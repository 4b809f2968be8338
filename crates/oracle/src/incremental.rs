//! Cross-checks of `dmfb_reconfig::incremental` against the oracles. A
//! unit test inside `dmfb_reconfig` would link a second copy of it, whose
//! types the oracles do not accept, so they live here.

#[cfg(test)]
mod tests {
    use crate::{local, square_dtmb};
    use dmfb_defects::DefectMap;
    use dmfb_grid::HexCoord;
    use dmfb_reconfig::dtmb::DtmbKind;
    use dmfb_reconfig::{ReconfigPolicy, SquarePattern, TrialEvaluator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_local_engine_on_random_maps() {
        use rand::seq::SliceRandom;
        for kind in DtmbKind::ALL {
            let array = kind.with_primary_count(60);
            let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
            let mut scratch = eval.scratch();
            let cells: Vec<HexCoord> = array.region().iter().collect();
            let mut rng = StdRng::seed_from_u64(0xD7);
            for faults in [0usize, 1, 3, 8, 20, 40] {
                for _ in 0..20 {
                    let mut pick = cells.clone();
                    pick.shuffle(&mut rng);
                    let defects = DefectMap::from_cells(pick.into_iter().take(faults));
                    let expected =
                        local::is_reconfigurable(&array, &defects, &ReconfigPolicy::AllPrimaries);
                    let got = eval.evaluate_defects(&defects, &mut scratch);
                    assert_eq!(got, expected, "{kind} faults={faults}");
                }
            }
        }
    }

    #[test]
    fn square_pattern_through_generic_engine() {
        use dmfb_grid::{SquareCoord, SquareRegion};
        let region = SquareRegion::rect(10, 10);
        for pattern in SquarePattern::ALL {
            let eval = TrialEvaluator::for_scheme(&region, &pattern);
            let mut scratch = eval.scratch();
            // Fault-free passes; the whole-array fault only passes when
            // there is nothing required (never here).
            assert!(eval.evaluate_faulty_cells(&[], &mut scratch), "{pattern}");
            let all: Vec<SquareCoord> = region.iter().collect();
            assert!(!eval.evaluate_faulty_cells(&all, &mut scratch), "{pattern}");
            // Single-fault verdicts match the legacy oracle everywhere.
            for c in region.iter() {
                assert_eq!(
                    eval.evaluate_faulty_cells(&[c], &mut scratch),
                    square_dtmb::is_reconfigurable(pattern, &region, &[c]),
                    "{pattern} fault at {c}"
                );
            }
        }
    }

    #[test]
    fn reconfigure_returns_valid_plans() {
        use rand::seq::SliceRandom;
        let array = DtmbKind::Dtmb26A.with_primary_count(80);
        let eval = TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries);
        let mut scratch = eval.scratch();
        let cells: Vec<HexCoord> = array.region().iter().collect();
        let mut rng = StdRng::seed_from_u64(0xA55A);
        for faults in [0usize, 1, 4, 12, 30] {
            for _ in 0..15 {
                let mut pick = cells.clone();
                pick.shuffle(&mut rng);
                let defects = DefectMap::from_cells(pick.into_iter().take(faults));
                let plan = eval.reconfigure(&defects, &mut scratch);
                assert_eq!(
                    plan.is_ok(),
                    local::is_reconfigurable(&array, &defects, &ReconfigPolicy::AllPrimaries),
                    "verdict must match the reference engine"
                );
                let Ok(plan) = plan else { continue };
                // Every faulty primary is assigned; assignments are local,
                // land on live spares, and use each spare once.
                let faulty: Vec<HexCoord> = defects
                    .faulty_cells()
                    .filter(|c| array.is_primary(*c))
                    .collect();
                assert_eq!(plan.len(), faulty.len());
                let mut used: Vec<HexCoord> = Vec::new();
                for (cell, spare) in plan.iter() {
                    assert!(faulty.contains(&cell));
                    assert!(cell.is_adjacent(spare), "{cell} -> {spare} not local");
                    assert!(array.is_spare(spare));
                    assert!(!defects.is_faulty(spare), "dead spare used");
                    used.push(spare);
                }
                used.sort();
                used.dedup();
                assert_eq!(used.len(), plan.len(), "spares must be distinct");
            }
        }
    }
}
