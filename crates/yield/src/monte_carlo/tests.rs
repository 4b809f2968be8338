//! Hexagonal-array tests of [`SchemeYield`](crate::SchemeYield).

use crate::{analytical, SchemeYield};
use dmfb_defects::injection::{ExactCount, InjectionModel};
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::ReconfigPolicy;

const TRIALS: u32 = 3_000;

fn estimator(kind: DtmbKind, n: usize) -> SchemeYield {
    SchemeYield::new(kind.with_primary_count(n), ReconfigPolicy::AllPrimaries)
}

/// Yield with exactly `m` faults placed anywhere on the array (the
/// Figure 13 protocol).
fn exact_faults(kind: DtmbKind, n: usize, m: usize, trials: u32, seed: u64) -> f64 {
    let array = kind.with_primary_count(n);
    let model = ExactCount::new(m);
    let est = SchemeYield::new(array.clone(), ReconfigPolicy::AllPrimaries);
    let ev = est.evaluator();
    est.estimate_sampled(
        trials,
        seed,
        || (),
        |rng, _, faults| {
            faults.extend(ev.fault_ids(&model.inject(array.region(), rng)));
        },
    )
    .point()
}

#[test]
fn perfect_survival_always_yields() {
    let est = estimator(DtmbKind::Dtmb26A, 60).estimate_survival(1.0, 200, 1);
    assert_eq!(est.point(), 1.0);
}

#[test]
fn zero_survival_never_yields() {
    let est = estimator(DtmbKind::Dtmb26A, 60).estimate_survival(0.0, 200, 1);
    assert_eq!(est.point(), 0.0);
}

#[test]
fn zero_faults_always_yield() {
    assert_eq!(exact_faults(DtmbKind::Dtmb36, 60, 0, 100, 3), 1.0);
}

#[test]
fn mc_matches_analytical_for_dtmb16() {
    // The DTMB(1,6) analytical model should agree with MC within a few
    // points (boundary effects make MC slightly optimistic because
    // boundary clusters are smaller).
    let n = 120;
    let mc = estimator(DtmbKind::Dtmb16, n);
    for &p in &[0.95, 0.98] {
        let est = mc.estimate_survival(p, 6_000, 11);
        let analytic = analytical::dtmb16_yield(p, n);
        assert!(
            (est.point() - analytic).abs() < 0.05,
            "p={p}: mc {} vs analytic {analytic}",
            est.point()
        );
    }
}

#[test]
fn redundancy_order_matches_figure9() {
    // At fixed n and p, higher redundancy yields more.
    let p = 0.93;
    let n = 100;
    let y26 = estimator(DtmbKind::Dtmb26A, n)
        .estimate_survival(p, TRIALS, 5)
        .point();
    let y36 = estimator(DtmbKind::Dtmb36, n)
        .estimate_survival(p, TRIALS, 5)
        .point();
    let y44 = estimator(DtmbKind::Dtmb44, n)
        .estimate_survival(p, TRIALS, 5)
        .point();
    assert!(y44 >= y36 - 0.02, "44 {y44} vs 36 {y36}");
    assert!(y36 >= y26 - 0.02, "36 {y36} vs 26 {y26}");
    let baseline = analytical::no_redundancy_yield(p, n);
    assert!(y26 > baseline + 0.1);
}

#[test]
fn yield_monotone_in_fault_count() {
    let pts: Vec<f64> = [0, 5, 15, 40]
        .iter()
        .enumerate()
        .map(|(i, &m)| exact_faults(DtmbKind::Dtmb26A, 100, m, 1_500, 9 + i as u64))
        .collect();
    for w in pts.windows(2) {
        assert!(
            w[1] <= w[0] + 0.03,
            "yield should not increase with faults: {pts:?}"
        );
    }
}

#[test]
fn parallel_estimate_reproducible() {
    let mc = estimator(DtmbKind::Dtmb44, 60);
    let a = mc.estimate_survival(0.95, 1_000, 17);
    let b = mc
        .clone()
        .with_threads(4)
        .estimate_survival(0.95, 1_000, 17);
    assert_eq!(a, b);
}

#[test]
fn fast_engine_is_thread_invariant() {
    let mc = estimator(DtmbKind::Dtmb36, 80);
    let seq = mc.estimate_survival(0.94, 2_000, 29);
    for threads in [0, 2, 5] {
        let par = mc
            .clone()
            .with_threads(threads)
            .estimate_survival(0.94, 2_000, 29);
        assert_eq!(par, seq, "threads={threads}");
    }
}

#[test]
fn batched_sweep_matches_per_point_sweep() {
    let mc = estimator(DtmbKind::Dtmb26A, 100);
    let ps = [0.90, 0.94, 0.98, 1.0];
    let per_point = mc.sweep_survival(&ps, 4_000, 31);
    let batched = mc.sweep_survival_batched(&ps, 4_000, 31);
    assert_eq!(batched.len(), ps.len());
    for ((a, b), p) in per_point.iter().zip(&batched).zip(ps) {
        assert!(
            (a.point() - b.point()).abs() < 0.04,
            "p={p}: per-point {a} vs batched {b}"
        );
    }
    // Common random numbers make the batched curve monotone in p.
    for w in batched.windows(2) {
        assert!(
            w[1].point() >= w[0].point(),
            "batched curve must be monotone"
        );
    }
    assert_eq!(batched.last().unwrap().point(), 1.0, "p=1 never fails");
}

#[test]
fn batched_sweep_is_byte_identical_across_thread_counts() {
    let mc = estimator(DtmbKind::Dtmb44, 60);
    let ps = [0.85, 0.92, 0.99];
    let seq = mc.sweep_survival_batched(&ps, 1_000, 47);
    for threads in [0, 3, 8] {
        let par = mc
            .clone()
            .with_threads(threads)
            .sweep_survival_batched(&ps, 1_000, 47);
        assert_eq!(par, seq, "threads={threads}");
    }
}

#[test]
fn sweep_points_carry_ci() {
    let mc = estimator(DtmbKind::Dtmb44, 60);
    let pts = mc.sweep_survival(&[0.9, 0.95], 500, 23);
    assert_eq!(pts.len(), 2);
    for pt in pts {
        let (lo, hi) = pt.wilson95();
        assert!(lo <= pt.point() && pt.point() <= hi);
        assert_eq!(pt.trials(), 500);
    }
}
