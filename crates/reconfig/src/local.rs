//! Local reconfiguration via maximal bipartite matching (paper Section 6).
//!
//! "We develop a bipartite graph model to represent the relationship
//! between faulty and spare cells in the microfluidic array. ... nodes in A
//! represent the faulty primary cells ... while nodes in B denote the
//! fault-free spare cells. An edge exists from a node a in A to a node b in
//! B if and only if the faulty primary cell represented by a is physically
//! adjacent to the spare cell represented by b. ... If this maximal
//! matching covers all nodes in A, it implies that all faulty cells can be
//! replaced by their adjacent fault-free spare cells through local
//! reconfiguration. Otherwise, this microfluidic biochip cannot be
//! reconfigured."

use crate::array::DefectTolerantArray;
use crate::TrialEvaluator;
use dmfb_defects::DefectMap;
use dmfb_grid::HexCoord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Which primary cells must be functional for the chip to count as good.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum ReconfigPolicy {
    /// Every primary cell must be fault-free or replaced (the Figure 9
    /// yield experiments).
    #[default]
    AllPrimaries,
    /// Only the listed cells (e.g. the 108 cells used by the multiplexed
    /// bioassays in the Figure 13 case study) must be fault-free or
    /// replaced; faults on unused primaries are harmless.
    UsedCells(BTreeSet<HexCoord>),
}

impl ReconfigPolicy {
    /// Whether `cell` is within the policy's scope.
    #[must_use]
    pub fn requires(&self, cell: HexCoord) -> bool {
        match self {
            ReconfigPolicy::AllPrimaries => true,
            ReconfigPolicy::UsedCells(set) => set.contains(&cell),
        }
    }
}

/// A successful local reconfiguration: each faulty in-scope primary is
/// assigned a distinct adjacent fault-free spare.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct ReconfigPlan {
    assignments: Vec<(HexCoord, HexCoord)>,
}

impl ReconfigPlan {
    /// Builds a plan from explicit `(faulty_primary, replacing_spare)`
    /// pairs, sorted by faulty cell for deterministic iteration order.
    ///
    /// [`crate::TrialEvaluator::reconfigure`] builds its plans this way
    /// from the matcher's unit/resource pairs. The caller is responsible
    /// for the pairs actually being a valid matching — distinct spares,
    /// each adjacent to its faulty cell.
    #[must_use]
    pub fn from_assignments<I: IntoIterator<Item = (HexCoord, HexCoord)>>(pairs: I) -> Self {
        let mut assignments: Vec<(HexCoord, HexCoord)> = pairs.into_iter().collect();
        assignments.sort_unstable();
        ReconfigPlan { assignments }
    }

    /// Number of replacements performed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no replacement was needed (fault-free chip).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterates `(faulty_primary, replacing_spare)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (HexCoord, HexCoord)> + '_ {
        self.assignments.iter().copied()
    }

    /// Where the function of `cell` now lives: the assigned spare if the
    /// cell was replaced, otherwise the cell itself.
    #[must_use]
    pub fn remap(&self, cell: HexCoord) -> HexCoord {
        self.assignments
            .iter()
            .find(|(faulty, _)| *faulty == cell)
            .map_or(cell, |(_, spare)| *spare)
    }

    /// The spares consumed by this plan, in assignment order.
    pub fn spares_used(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.assignments.iter().map(|(_, s)| *s)
    }
}

/// Why local reconfiguration failed, with a deficiency witness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReconfigFailure {
    /// Faulty in-scope primaries that no matching could cover.
    pub unassigned: Vec<HexCoord>,
    /// A Hall-deficient set: these faulty cells jointly have fewer adjacent
    /// fault-free spares than members (empty only in degenerate cases).
    pub deficient_set: Vec<HexCoord>,
    /// The joint spare neighbourhood of `deficient_set`.
    pub available_spares: Vec<HexCoord>,
}

impl fmt::Display for ReconfigFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "local reconfiguration failed: {} faulty cell(s) unassigned [{}]; \
             {} faulty cell(s) [{}] compete for {} adjacent fault-free spare(s) [{}]",
            self.unassigned.len(),
            crate::format_cell_list(&self.unassigned),
            self.deficient_set.len(),
            crate::format_cell_list(&self.deficient_set),
            self.available_spares.len(),
            crate::format_cell_list(&self.available_spares),
        )
    }
}

impl std::error::Error for ReconfigFailure {}

/// Attempts local reconfiguration of `array` under `defects`.
///
/// Builds a [`TrialEvaluator`] for `(array, policy)` and calls
/// [`TrialEvaluator::reconfigure`]: the paper's bipartite model restricted
/// to the faulty primaries in the policy's scope, a maximum matching, and
/// either the replacement plan or a failure carrying a Hall-deficiency
/// witness. Loops over many defect maps of one array should hold the
/// evaluator and a scratch instead.
///
/// # Errors
///
/// Returns [`ReconfigFailure`] when some in-scope faulty primary cannot be
/// assigned a distinct adjacent fault-free spare.
///
/// # Example
///
/// ```
/// use dmfb_reconfig::{attempt_reconfiguration, ReconfigPolicy};
/// use dmfb_reconfig::dtmb::DtmbKind;
/// use dmfb_defects::DefectMap;
/// use dmfb_grid::Region;
///
/// let array = DtmbKind::Dtmb26A.instantiate(&Region::parallelogram(8, 8));
/// let faulty = array.primaries().next().unwrap();
/// let defects = DefectMap::from_cells([faulty]);
/// let plan = attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries)
///     .expect("single fault is tolerable");
/// assert_eq!(plan.len(), 1);
/// ```
pub fn attempt_reconfiguration(
    array: &DefectTolerantArray,
    defects: &DefectMap,
    policy: &ReconfigPolicy,
) -> Result<ReconfigPlan, ReconfigFailure> {
    let evaluator = TrialEvaluator::new(array, policy);
    evaluator.reconfigure(defects, &mut evaluator.scratch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtmb::DtmbKind;
    use dmfb_grid::Region;

    fn dtmb26_array() -> DefectTolerantArray {
        DtmbKind::Dtmb26A.instantiate(&Region::parallelogram(10, 10))
    }

    #[test]
    fn fault_free_chip_needs_no_plan() {
        let array = dtmb26_array();
        let plan =
            attempt_reconfiguration(&array, &DefectMap::new(), &ReconfigPolicy::AllPrimaries)
                .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn single_fault_replaced_by_adjacent_spare() {
        let array = dtmb26_array();
        // Interior primary with the full complement of spares.
        let cell = array
            .primaries()
            .find(|c| !array.region().is_boundary(*c).unwrap())
            .unwrap();
        let defects = DefectMap::from_cells([cell]);
        let plan =
            attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries).unwrap();
        assert_eq!(plan.len(), 1);
        let (faulty, spare) = plan.iter().next().unwrap();
        assert_eq!(faulty, cell);
        assert!(cell.is_adjacent(spare), "replacement must be local");
        assert!(array.is_spare(spare));
        assert_eq!(plan.remap(cell), spare);
        assert_eq!(plan.remap(HexCoord::new(1, 0)), HexCoord::new(1, 0));
    }

    #[test]
    fn faulty_spares_are_not_used() {
        let array = dtmb26_array();
        let cell = array
            .primaries()
            .find(|c| array.adjacent_spares(*c).count() == 2)
            .unwrap();
        let spares: Vec<HexCoord> = array.adjacent_spares(cell).collect();
        // Fail the primary and ALL of its adjacent spares.
        let mut cells = vec![cell];
        cells.extend(spares.iter().copied());
        let defects = DefectMap::from_cells(cells);
        let err =
            attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries).unwrap_err();
        assert_eq!(err.unassigned, vec![cell]);
        assert!(err.deficient_set.contains(&cell));
        assert!(err.available_spares.is_empty());
        assert!(err.to_string().contains("failed"));
    }

    #[test]
    fn contention_resolved_by_matching_when_possible() {
        // DTMB(4,4): a primary row between two spare rows. Two adjacent
        // faulty primaries share spares but each still has private ones.
        let array = DtmbKind::Dtmb44.instantiate(&Region::parallelogram(8, 8));
        let a = HexCoord::new(3, 3);
        let b = HexCoord::new(4, 3);
        assert!(array.is_primary(a) && array.is_primary(b));
        let defects = DefectMap::from_cells([a, b]);
        let plan =
            attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries).unwrap();
        assert_eq!(plan.len(), 2);
        let s1 = plan.remap(a);
        let s2 = plan.remap(b);
        assert_ne!(s1, s2, "distinct spares");
        assert!(a.is_adjacent(s1) && b.is_adjacent(s2));
    }

    #[test]
    fn policy_scopes_which_faults_matter() {
        let array = dtmb26_array();
        let unused = array
            .primaries()
            .find(|c| !array.region().is_boundary(*c).unwrap())
            .unwrap();
        let defects = DefectMap::from_cells([unused]);
        // Under AllPrimaries the fault must be handled...
        let plan_all =
            attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries).unwrap();
        assert_eq!(plan_all.len(), 1);
        // ...under a policy that does not use the cell, it is ignored.
        let policy = ReconfigPolicy::UsedCells(BTreeSet::new());
        let plan_none = attempt_reconfiguration(&array, &defects, &policy).unwrap();
        assert!(plan_none.is_empty());
        assert!(!policy.requires(unused));
    }

    #[test]
    fn spare_faults_alone_never_fail_the_chip() {
        let array = dtmb26_array();
        let spares: Vec<HexCoord> = array.spares().collect();
        let defects = DefectMap::from_cells(spares);
        assert!(attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries).is_ok());
    }

    #[test]
    fn dtmb16_tolerates_one_fault_per_cluster_only() {
        let array = DtmbKind::Dtmb16.instantiate(&Region::parallelogram(14, 14));
        // Find an interior spare and its six surrounding primaries.
        let spare = array
            .spares()
            .find(|c| !array.region().is_boundary(*c).unwrap())
            .unwrap();
        let cluster: Vec<HexCoord> = array.adjacent_primaries(spare).collect();
        assert_eq!(cluster.len(), 6);
        // One faulty primary in the cluster: fine.
        let one = DefectMap::from_cells([cluster[0]]);
        assert!(attempt_reconfiguration(&array, &one, &ReconfigPolicy::AllPrimaries).is_ok());
        // Two faulty primaries in the same cluster: they share the single
        // spare, so reconfiguration must fail.
        let two = DefectMap::from_cells([cluster[0], cluster[1]]);
        let err = attempt_reconfiguration(&array, &two, &ReconfigPolicy::AllPrimaries).unwrap_err();
        assert_eq!(err.deficient_set.len(), 2);
        assert_eq!(err.available_spares.len(), 1);
    }

    #[test]
    fn plans_use_each_spare_at_most_once() {
        let array = DtmbKind::Dtmb44.instantiate(&Region::parallelogram(10, 10));
        let faulty: Vec<HexCoord> = array.primaries().take(8).collect();
        let defects = DefectMap::from_cells(faulty);
        if let Ok(plan) = attempt_reconfiguration(&array, &defects, &ReconfigPolicy::AllPrimaries) {
            let mut used: Vec<HexCoord> = plan.spares_used().collect();
            let before = used.len();
            used.sort();
            used.dedup();
            assert_eq!(used.len(), before, "spares must be distinct");
        }
    }
}
