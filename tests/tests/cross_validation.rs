//! Cross-validation between independent implementations of the same
//! quantity: analytical vs Monte-Carlo, matching vs brute logic, raw yield
//! vs closed form.

use dmfb_core::prelude::*;
use dmfb_integration_tests::TEST_SEEDS;

/// The DTMB(1,6) Monte-Carlo estimate brackets the analytical cluster
/// model (MC runs slightly above it: boundary spares have less
/// contention).
#[test]
fn dtmb16_analytic_vs_monte_carlo() {
    let n = 120;
    let chip = Biochip::dtmb(DtmbKind::Dtmb16, n);
    for (i, &p) in [0.94, 0.97, 0.99].iter().enumerate() {
        let mc = chip
            .yield_report(p, 8_000, TEST_SEEDS[0] + i as u64)
            .reconfigured_yield
            .point();
        let analytic = dtmb16_yield(p, n);
        assert!(
            (mc - analytic).abs() < 0.06,
            "p={p}: mc {mc} vs analytic {analytic}"
        );
        assert!(mc >= analytic - 0.02, "MC should not undershoot the model");
    }
}

/// Raw (unreconfigured) yield equals `p^scope` for every design: spares
/// don't matter when you never use them.
#[test]
fn raw_yield_matches_power_law() {
    for kind in [DtmbKind::Dtmb26A, DtmbKind::Dtmb44] {
        let chip = Biochip::dtmb(kind, 90);
        let p = 0.99;
        let report = chip.yield_report(p, 8_000, TEST_SEEDS[1]);
        let expected = no_redundancy_yield(p, chip.array().primary_count());
        assert!(
            (report.raw_yield - expected).abs() < 0.03,
            "{kind}: raw {} vs p^n {expected}",
            report.raw_yield
        );
    }
}

/// Effective yield exactly equals `Y * n / N` for the measured Y.
#[test]
fn effective_yield_definition_holds() {
    let chip = Biochip::dtmb(DtmbKind::Dtmb36, 100);
    let report = chip.yield_report(0.95, 2_000, TEST_SEEDS[2]);
    let n = chip.array().primary_count() as f64;
    let total = chip.array().total_cells() as f64;
    let expected = report.reconfigured_yield.point() * n / total;
    assert!((report.effective_yield - expected).abs() < 1e-12);
}

/// The two DTMB(2,6) placements (Figures 4(a) and 4(b)) are statistically
/// interchangeable.
#[test]
fn dtmb26_variants_agree() {
    let p = 0.94;
    let a = Biochip::dtmb(DtmbKind::Dtmb26A, 100)
        .yield_report(p, 6_000, TEST_SEEDS[3])
        .reconfigured_yield
        .point();
    let b = Biochip::dtmb(DtmbKind::Dtmb26B, 100)
        .yield_report(p, 6_000, TEST_SEEDS[3])
        .reconfigured_yield
        .point();
    assert!((a - b).abs() < 0.04, "variant A {a} vs variant B {b}");
}

/// Spare-count upper bound from `dmfb-yield::analytical` dominates every
/// Monte-Carlo estimate (sanity tie between the analytic and MC stacks).
#[test]
fn spare_count_bound_dominates_mc() {
    use dmfb_core::yield_model::analytical::spare_count_upper_bound;
    for kind in DtmbKind::TABLE1 {
        let chip = Biochip::dtmb(kind, 80);
        let p = 0.93;
        let mc = chip
            .yield_report(p, 3_000, TEST_SEEDS[0])
            .reconfigured_yield
            .point();
        let bound =
            spare_count_upper_bound(p, chip.array().primary_count(), chip.array().spare_count());
        assert!(
            mc <= bound + 0.02,
            "{kind}: mc {mc} exceeds spare-count bound {bound}"
        );
    }
}

/// Yield is monotone in p for every design (MC sanity).
#[test]
fn yield_monotone_in_survival() {
    for kind in DtmbKind::TABLE1 {
        let chip = Biochip::dtmb(kind, 80);
        let lo = chip
            .yield_report(0.90, 3_000, TEST_SEEDS[1])
            .reconfigured_yield
            .point();
        let hi = chip
            .yield_report(0.97, 3_000, TEST_SEEDS[1])
            .reconfigured_yield
            .point();
        assert!(hi >= lo - 0.02, "{kind}: {lo} -> {hi}");
    }
}
