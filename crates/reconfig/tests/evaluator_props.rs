//! Property tests: the incremental [`TrialEvaluator`] must agree with the
//! adjacency-list reference `dmfb_oracle::local` on every defect map, for
//! every published DTMB design and policy scope — verdicts, plans and
//! failure witnesses alike.

use dmfb_defects::DefectMap;
use dmfb_grid::HexCoord;
use dmfb_oracle::{hall_violation, hopcroft_karp, local};
use dmfb_reconfig::dtmb::DtmbKind;
use dmfb_reconfig::{ReconfigPolicy, TrialEvaluator};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_kind() -> impl Strategy<Value = DtmbKind> {
    prop::sample::select(DtmbKind::ALL.to_vec())
}

proptest! {
    /// Random fault subsets of the array: identical verdicts, including
    /// when the evaluator's scratch is reused across cases.
    #[test]
    fn evaluator_matches_reference_engine(
        kind in arb_kind(),
        n in 20usize..80,
        picks in prop::collection::vec((0usize..1000, 0usize..1000), 0..30),
    ) {
        let array = kind.with_primary_count(n);
        let cells: Vec<HexCoord> = array.region().iter().collect();
        let faulty: Vec<HexCoord> = picks
            .iter()
            .map(|&(a, b)| cells[(a * 1000 + b) % cells.len()])
            .collect();
        let defects = DefectMap::from_cells(faulty);
        let policy = ReconfigPolicy::AllPrimaries;
        let eval = TrialEvaluator::new(&array, &policy);
        let mut scratch = eval.scratch();
        let expected = local::is_reconfigurable(&array, &defects, &policy);
        prop_assert_eq!(eval.evaluate_defects(&defects, &mut scratch), expected);
        // Scratch reuse: evaluating again (and after an unrelated map)
        // still gives the same verdict.
        let noise = DefectMap::from_cells(cells.iter().copied().take(5));
        let _ = eval.evaluate_defects(&noise, &mut scratch);
        prop_assert_eq!(eval.evaluate_defects(&defects, &mut scratch), expected);
    }

    /// Scoped policies: verdicts agree when only a subset of primaries is
    /// required to work.
    #[test]
    fn evaluator_matches_reference_under_scoped_policy(
        kind in arb_kind(),
        n in 20usize..60,
        scope_picks in prop::collection::vec(0usize..1000, 0..25),
        fault_picks in prop::collection::vec(0usize..1000, 0..25),
    ) {
        let array = kind.with_primary_count(n);
        let primaries: Vec<HexCoord> = array.primaries().collect();
        let cells: Vec<HexCoord> = array.region().iter().collect();
        let scope: BTreeSet<HexCoord> = scope_picks
            .iter()
            .map(|&i| primaries[i % primaries.len()])
            .collect();
        let policy = ReconfigPolicy::UsedCells(scope);
        let defects = DefectMap::from_cells(
            fault_picks.iter().map(|&i| cells[i % cells.len()]),
        );
        let eval = TrialEvaluator::new(&array, &policy);
        let mut scratch = eval.scratch();
        prop_assert_eq!(
            eval.evaluate_defects(&defects, &mut scratch),
            local::is_reconfigurable(&array, &defects, &policy)
        );
    }

    /// Plans and witnesses under the full and a random used-cells scope.
    /// A plan gives each in-scope faulty primary a distinct, live, adjacent
    /// spare and nothing else one. A failure's Hall witness equals the
    /// oracle's exactly (it is the same for every maximum matching); its
    /// unassigned cells are as many as the oracle's and lie inside it.
    #[test]
    fn reconfigure_plans_and_witnesses_match_the_oracle(
        kind in arb_kind(),
        n in 20usize..60,
        scoped in 0u8..2,
        scope_picks in prop::collection::vec(0usize..1000, 1..40),
        fault_picks in prop::collection::vec(0usize..1000, 0..30),
    ) {
        let array = kind.with_primary_count(n);
        let primaries: Vec<HexCoord> = array.primaries().collect();
        let cells: Vec<HexCoord> = array.region().iter().collect();
        let scope = scope_picks.iter().map(|&i| primaries[i % primaries.len()]);
        let policy = match scoped {
            0 => ReconfigPolicy::AllPrimaries,
            _ => ReconfigPolicy::UsedCells(scope.collect()),
        };
        let defects = DefectMap::from_cells(fault_picks.iter().map(|&i| cells[i % cells.len()]));
        let eval = TrialEvaluator::new(&array, &policy);
        let mut scratch = eval.scratch();
        let model = local::bipartite_model(&array, &defects, &policy);
        let matching = hopcroft_karp(&model.graph);
        match eval.reconfigure(&defects, &mut scratch) {
            Ok(plan) => {
                prop_assert!(matching.covers_all_left(&model.graph));
                prop_assert!(plan.iter().map(|(cell, _)| cell).eq(model.faulty.iter().copied()));
                let mut used = BTreeSet::new();
                for (cell, spare) in plan.iter() {
                    prop_assert!(array.adjacent_spares(cell).any(|s| s == spare));
                    prop_assert!(!defects.is_faulty(spare));
                    prop_assert!(used.insert(spare), "spare {} used twice", spare);
                }
            }
            Err(failure) => {
                prop_assert!(!matching.covers_all_left(&model.graph));
                let witness = hall_violation(&model.graph).expect("the oracle fails too");
                let deficient = witness.left_set.iter().map(|&a| model.faulty[a]);
                let spares = witness.neighborhood.iter().map(|&b| model.spares[b]);
                prop_assert!(failure.deficient_set.iter().copied().eq(deficient));
                prop_assert!(failure.available_spares.iter().copied().eq(spares));
                prop_assert_eq!(failure.unassigned.len(), model.faulty.len() - matching.len());
                for cell in &failure.unassigned {
                    prop_assert!(failure.deficient_set.contains(cell));
                }
            }
        }
    }
}
