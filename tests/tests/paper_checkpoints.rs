//! Integration tests asserting the paper's concrete numbers and shapes.
//!
//! Every figure and table of the paper's evaluation has a checkpoint here,
//! and a `dmfb` command prints the same figure: `sweep` (Figures 7 and 9),
//! `sweep --effective` (Figure 10), `faults --casestudy` (Figure 13),
//! `render` (Figures 3–6) and `assay --faults 10 --seed 2008` (Figure 12).

use dmfb_core::prelude::*;
use dmfb_core::yield_model::analytical::spare_row_yield;
use dmfb_integration_tests::{TEST_SEEDS, TEST_TRIALS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table 1: the redundancy-ratio limits are exactly s/p = 1/6, 1/3, 1/2
/// and 1, and a 600-primary array closes its spare pattern around the
/// boundary with 115, 224, 340 and 669 spares, so finite arrays run
/// slightly above the limit.
#[test]
fn table1_redundancy_ratios() {
    let expected = [
        (DtmbKind::Dtmb16, (1, 6), 115),
        (DtmbKind::Dtmb26A, (1, 3), 224),
        (DtmbKind::Dtmb36, (1, 2), 340),
        (DtmbKind::Dtmb44, (1, 1), 669),
    ];
    assert_eq!(DtmbKind::TABLE1, expected.map(|(kind, _, _)| kind));
    for (kind, (num, den), spares) in expected {
        let (s, p) = kind.spec();
        assert_eq!(s * den, p * num, "{kind}: s/p = {s}/{p}");
        assert_eq!(kind.redundancy_ratio_limit(), num as f64 / den as f64);
        let array = kind.with_primary_count(600);
        assert_eq!(array.primary_count(), 600, "{kind}");
        assert_eq!(array.spare_count(), spares, "{kind}");
        assert!(array.redundancy_ratio() > kind.redundancy_ratio_limit());
    }
}

/// Figures 3–6: every DTMB pattern, the alternative DTMB(2,6) included,
/// gives each interior primary exactly s adjacent spares and each
/// interior spare exactly p adjacent primaries (Definition 1).
#[test]
fn figures3_6_pattern_degrees() {
    let region = Region::parallelogram(12, 8);
    for kind in DtmbKind::ALL {
        let (s, p) = kind.spec();
        let audit = kind.instantiate(&region).audit().expect("audit");
        assert!(audit.interior_primaries > 0 && audit.interior_spares > 0);
        assert!(audit.matches(s, p), "{kind}: {audit:?} vs ({s}, {p})");
    }
    assert!(DtmbKind::ALL.contains(&DtmbKind::Dtmb26B));
}

/// Section 7: the non-redundant 108-cell chip yields 0.3378 at p = 0.99 —
/// analytically and by Monte-Carlo.
#[test]
fn section7_headline_number() {
    assert!((no_redundancy_yield(0.99, 108) - 0.3378).abs() < 5e-4);
    let chip = Biochip::without_redundancy(108);
    let mc = chip.yield_report(0.99, 10_000, TEST_SEEDS[0]);
    assert!(
        (mc.reconfigured_yield.point() - 0.3378).abs() < 0.02,
        "mc {}",
        mc.reconfigured_yield.point()
    );
}

/// Figure 7 shape: DTMB(1,6) dominates the no-redundancy baseline and
/// yield decreases with array size.
#[test]
fn figure7_shape() {
    for &n in &[60usize, 120, 240] {
        for &p in &[0.92, 0.96, 0.99] {
            assert!(dtmb16_yield(p, n) > no_redundancy_yield(p, n));
        }
    }
    assert!(dtmb16_yield(0.95, 60) > dtmb16_yield(0.95, 120));
    assert!(dtmb16_yield(0.95, 120) > dtmb16_yield(0.95, 240));
}

/// Figure 9 shape: higher redundancy gives higher yield at fixed (n, p),
/// and everything beats the baseline.
#[test]
fn figure9_ordering() {
    let n = 100;
    let p = 0.92;
    let yields: Vec<f64> = [DtmbKind::Dtmb26A, DtmbKind::Dtmb36, DtmbKind::Dtmb44]
        .iter()
        .map(|&k| {
            Biochip::dtmb(k, n)
                .yield_report(p, TEST_TRIALS, TEST_SEEDS[1])
                .reconfigured_yield
                .point()
        })
        .collect();
    assert!(yields[0] > no_redundancy_yield(p, n) + 0.2);
    assert!(yields[1] >= yields[0] - 0.02, "36 vs 26: {yields:?}");
    assert!(yields[2] >= yields[1] - 0.02, "44 vs 36: {yields:?}");
}

/// Figure 10 shape: effective yield crosses over — DTMB(4,4) wins at low
/// p, a leaner design wins at high p.
#[test]
fn figure10_crossover() {
    let n = 100;
    let lean = Biochip::dtmb(DtmbKind::Dtmb16, n);
    let fat = Biochip::dtmb(DtmbKind::Dtmb44, n);
    let low_p = 0.82;
    let high_p = 0.99;
    let ey =
        |chip: &Biochip, p: f64, seed: u64| chip.yield_report(p, TEST_TRIALS, seed).effective_yield;
    assert!(
        ey(&fat, low_p, TEST_SEEDS[2]) > ey(&lean, low_p, TEST_SEEDS[2]),
        "DTMB(4,4) must win on EY at p={low_p}"
    );
    assert!(
        ey(&lean, high_p, TEST_SEEDS[3]) > ey(&fat, high_p, TEST_SEEDS[3]),
        "DTMB(1,6) must win on EY at p={high_p}"
    );
}

/// Figure 13 shape: the case-study chip's yield is monotone non-increasing
/// in the fault count and stays high deep into double-digit fault counts.
#[test]
fn figure13_case_study_shape() {
    let chip = ivd_dtmb26_chip();
    assert_eq!(chip.array.primary_count(), 252);
    assert_eq!(chip.array.spare_count(), 91);
    let biochip = Biochip::from_array(chip.array.clone()).with_policy(used_cells_policy(&chip));
    let ms = [0usize, 10, 25, 45];
    let mut last = f64::INFINITY;
    for (i, &m) in ms.iter().enumerate() {
        let y = biochip
            .exact_fault_yield(m, TEST_TRIALS, TEST_SEEDS[0] + i as u64)
            .point();
        assert!(y <= last + 0.03, "yield must not increase with m");
        last = y;
    }
    // The paper reports >= 0.90 up to m = 35; with our denser assay block
    // the crossing lands near m = 30 — still "tens of faults tolerated".
    let y25 = biochip
        .exact_fault_yield(25, TEST_TRIALS, TEST_SEEDS[1])
        .point();
    assert!(y25 >= 0.90, "yield at m=25 should be >= 0.90, got {y25}");
    // And the redundancy is what does it: all-primaries policy is far worse.
    let strict = Biochip::from_array(chip.array);
    let y25_strict = strict
        .exact_fault_yield(25, TEST_TRIALS, TEST_SEEDS[1])
        .point();
    assert!(y25 > y25_strict + 0.1);
}

/// Figure 13 gap: the paper reports a yield of at least 0.90 for up to 35
/// faults. The block assay placement of [`ivd_dtmb26_chip`] does not reach
/// it: its yield at m = 35 is about 0.84 (0.841 at 10 000 trials), so the
/// claim holds here only to about m = 30. The paper's assay-cell mapping
/// is unpublished.
#[test]
fn figure13_paper_claim_gap_at_35_faults() {
    let chip = ivd_dtmb26_chip();
    let biochip = Biochip::from_array(chip.array.clone()).with_policy(used_cells_policy(&chip));
    let y35 = biochip.exact_fault_yield(35, TEST_TRIALS, TEST_SEEDS[2]);
    let (_, hi) = y35.wilson95();
    assert!(
        hi < 0.90,
        "yield at m=35 is {} with Wilson upper bound {hi}",
        y35.point()
    );
}

/// Figure 12: on the case-study chip, the 10-fault map of `dmfb assay
/// --faults 10 --seed 2008` (shorts closed) reconfigures under the
/// used-cells policy with at least one replacement, and so does every map
/// of the seeds 2005–2020 that the chip survives: each faulty assay cell
/// gets a distinct, adjacent, live spare.
#[test]
fn figure12_local_reconfiguration() {
    const FIGURE_SEED: u64 = 2008;
    let chip = ivd_dtmb26_chip();
    let policy = used_cells_policy(&chip);
    let mut replaced = 0;
    for seed in 2005..2021 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut defects = ExactCount::new(10).inject(chip.array.region(), &mut rng);
        defects.close_shorts();
        let plan = match attempt_reconfiguration(&chip.array, &defects, &policy) {
            Ok(plan) => plan,
            Err(e) => {
                assert_ne!(seed, FIGURE_SEED, "the Figure 12 map must reconfigure: {e}");
                continue;
            }
        };
        let faulty_assay: Vec<HexCoord> = chip
            .assay_cells
            .iter()
            .filter(|&c| defects.is_faulty(c))
            .collect();
        assert_eq!(plan.len(), faulty_assay.len(), "seed {seed}");
        let mut spares: Vec<HexCoord> = plan.spares_used().collect();
        spares.sort_unstable();
        spares.dedup();
        assert_eq!(
            spares.len(),
            plan.len(),
            "seed {seed}: spares must be distinct"
        );
        for (cell, spare) in plan.iter() {
            assert!(faulty_assay.contains(&cell), "seed {seed}: {cell}");
            assert!(chip.array.is_spare(spare), "seed {seed}: {spare}");
            assert!(!defects.is_faulty(spare), "seed {seed}: {spare} is faulty");
            assert!(cell.is_adjacent(spare), "seed {seed}: {cell} -> {spare}");
        }
        if seed == FIGURE_SEED {
            assert!(!plan.is_empty(), "the Figure 12 map shows no replacement");
        }
        replaced += plan.len();
    }
    assert!(replaced > 0, "no seed exercised a replacement");
}

/// Figure 2: at equal redundancy (RR = 1/6), 48 primaries with one
/// 8-cell boundary spare row against DTMB(1,6), both exact: local
/// reconfiguration yields more at every p.
#[test]
fn figure2_yield_at_equal_redundancy() {
    let expected = [
        (0.90, 0.0281, 0.2733),
        (0.95, 0.2574, 0.6955),
        (0.99, 0.9034, 0.9839),
    ];
    for (p, spare_row, dtmb16) in expected {
        let baseline = spare_row_yield(p, 8, 6, 1);
        let local = dtmb16_yield(p, 48);
        assert!((baseline - spare_row).abs() < 5e-5, "p={p}: {baseline}");
        assert!((local - dtmb16).abs() < 5e-5, "p={p}: {local}");
        assert!(local > baseline);
    }
}

/// Figure 2: the spare-row baseline reconfigures fault-free modules and
/// dies on a second faulty row; local reconfiguration does neither.
#[test]
fn figure2_baseline_contrast() {
    let baseline = SpareRowArray::figure2_example();
    let cascade = baseline
        .shifted_replacement(&[SquareCoord::new(0, 0)])
        .unwrap();
    assert!(
        cascade.modules_reconfigured.len() == 3,
        "fault farthest from the spare row drags every module"
    );
    assert!(baseline
        .shifted_replacement(&[SquareCoord::new(0, 0), SquareCoord::new(0, 2)])
        .is_err());

    let dtmb = DtmbKind::Dtmb26A.with_primary_count(48);
    let faulty: Vec<HexCoord> = dtmb.primaries().step_by(9).take(2).collect();
    let plan = attempt_reconfiguration(
        &dtmb,
        &DefectMap::from_cells(faulty),
        &ReconfigPolicy::AllPrimaries,
    )
    .expect("two scattered faults are locally tolerable");
    assert_eq!(plan.len(), 2, "exactly one spare per faulty cell");
}
