//! Property tests: the generic [`TrialEvaluator`] (compiled through the
//! `RedundancyScheme` layer) must agree with the per-scheme reference
//! oracles — `dmfb_oracle::square_dtmb::is_reconfigurable` and
//! `SpareRowArray::shifted_replacement` — on random defect maps, mirroring
//! `evaluator_props.rs` for the hexagonal engine.

use dmfb_defects::DefectMap;
use dmfb_grid::{SquareCoord, SquareRegion, Topology};
use dmfb_oracle::square_dtmb;
use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
use dmfb_reconfig::{SquarePattern, TrialEvaluator};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = SquarePattern> {
    prop::sample::select(SquarePattern::ALL.to_vec())
}

/// Maps pick indices onto distinct region cells. Fault sets are sets: the
/// legacy oracle takes a slice and would treat a duplicated faulty primary
/// as two left nodes competing for distinct spares, so duplicates are
/// removed up front (as `DefectMap` does implicitly).
fn cells_from_picks(region: &SquareRegion, picks: &[usize]) -> Vec<SquareCoord> {
    let cells: Vec<SquareCoord> = region.iter().collect();
    let mut faulty: Vec<SquareCoord> = picks.iter().map(|&i| cells[i % cells.len()]).collect();
    faulty.sort_unstable();
    faulty.dedup();
    faulty
}

proptest! {
    /// Square DTMB patterns: random fault subsets give identical verdicts
    /// through the generic engine and the legacy matching oracle,
    /// including with scratch reuse across cases.
    #[test]
    fn evaluator_matches_square_oracle(
        pattern in arb_pattern(),
        width in 3u32..14,
        height in 3u32..14,
        picks in prop::collection::vec(0usize..10_000, 0..40),
    ) {
        let region = SquareRegion::rect(width, height);
        let faulty = cells_from_picks(&region, &picks);
        let eval = TrialEvaluator::for_scheme(&region, &pattern);
        let mut scratch = eval.scratch();
        let expected = square_dtmb::is_reconfigurable(pattern, &region, &faulty);
        prop_assert_eq!(
            eval.evaluate_faulty_cells(&faulty, &mut scratch),
            expected,
            "{} {}x{}", pattern, width, height
        );
        // The DefectMap path agrees with the slice path.
        let map: DefectMap<SquareCoord> = DefectMap::from_cells(faulty.iter().copied());
        prop_assert_eq!(eval.evaluate_defects(&map, &mut scratch), expected);
        // Scratch reuse: evaluating again after an unrelated map still
        // gives the same verdict.
        let noise: Vec<SquareCoord> = region.iter().take(5).collect();
        let _ = eval.evaluate_faulty_cells(&noise, &mut scratch);
        prop_assert_eq!(eval.evaluate_faulty_cells(&faulty, &mut scratch), expected);
    }

    /// Spare-row arrays: the generic engine's matching verdict equals the
    /// legacy shift-plan feasibility, for arbitrary band layouts, spare
    /// counts and fault sets (including out-of-array and spare-row faults,
    /// which both sides must ignore).
    #[test]
    fn evaluator_matches_shifted_oracle(
        width in 1u32..10,
        band_rows in prop::collection::vec(1u32..4, 1..4),
        spare_rows in 0u32..4,
        picks in prop::collection::vec((-2i32..12, -2i32..14), 0..25),
    ) {
        let bands: Vec<ModuleBand> = band_rows
            .iter()
            .enumerate()
            .map(|(i, &rows)| ModuleBand { name: format!("Module {i}"), rows })
            .collect();
        let array = SpareRowArray::new(width, bands, spare_rows);
        let faults: Vec<SquareCoord> = picks
            .iter()
            .map(|&(x, y)| SquareCoord::new(x, y))
            .collect();
        let eval = TrialEvaluator::for_scheme(&array.region(), &array);
        let mut scratch = eval.scratch();
        prop_assert_eq!(
            eval.evaluate_faulty_cells(&faults, &mut scratch),
            array.shifted_replacement(&faults).is_ok()
        );
    }

    /// Survival-grid trials through the generic engine stay monotone in
    /// `p` for every scheme (the CRN invariant the batched sweeps rely
    /// on).
    #[test]
    fn square_grid_trials_are_monotone(
        pattern in arb_pattern(),
        seed in 0u64..500,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let region = SquareRegion::rect(10, 10);
        let eval = TrialEvaluator::for_scheme(&region, &pattern);
        let mut scratch = eval.scratch();
        let ps = [0.0, 0.6, 0.9, 0.97, 1.0];
        let mut out = [false; 5];
        let mut rng = StdRng::seed_from_u64(seed);
        eval.survival_trial_grid(&ps, &mut rng, &mut scratch, &mut out);
        for w in out.windows(2) {
            prop_assert!(w[1] || !w[0], "monotone violated: {:?}", out);
        }
        prop_assert!(out[4], "p = 1 never fails");
    }
}

#[test]
fn spare_row_units_track_region() {
    let array = SpareRowArray::new(
        5,
        vec![ModuleBand {
            name: "M".into(),
            rows: 4,
        }],
        2,
    );
    let eval = TrialEvaluator::for_scheme(&array.region(), &array);
    assert_eq!(eval.unit_count(), 4);
    assert_eq!(eval.resource_count(), 2);
    assert_eq!(eval.cell_count(), 20, "only module cells are sampled");
    assert_eq!(array.region().cell_count(), 30);
}
