//! The `RedundancyScheme` abstraction: every redundancy design as
//! assignment-under-adjacency-conflicts.
//!
//! The paper compares three families of redundancy designs — the hexagonal
//! interstitial `DTMB(s, p)` patterns, their square-lattice analogues, and
//! the boundary spare-row baseline with its shifted-replacement cascade.
//! All three reduce to the same combinatorial question: *can every faulty
//! replaceable unit be assigned a distinct live spare resource it
//! conflicts-free borders?*
//!
//! * For the interstitial schemes (hex and square) a **unit** is a primary
//!   cell, a **resource** is a spare cell, and adjacency is lattice
//!   adjacency.
//! * For the spare-row baseline a **unit** is one module row (faulty as
//!   soon as any of its cells is faulty), the **resources** are the spare
//!   rows, and every row can cascade into every spare row — a complete
//!   bipartite adjacency. A matching covering all faulty rows exists iff
//!   the number of distinct faulty rows does not exceed the spare rows,
//!   exactly [`SpareRowArray::shifted_replacement`]'s success condition.
//!
//! [`RedundancyScheme::compile`] lowers a scheme over a [`Topology`] into
//! a [`SchemeStructure`], CSR arrays over dense cell ids that
//! [`crate::TrialEvaluator`] takes by move. Every cell-level scheme (hex
//! and square patterns, hex arrays under a policy) compiles through
//! `compile_cells`; the spare-row baseline writes its ids by arithmetic.
//! That is how square DTMB and spare-row arrays ride the same fast engine
//! as the hexagonal designs.

use crate::array::{role_slots, CellRole};
use crate::dtmb::DtmbKind;
use crate::shifted::SpareRowArray;
use crate::square_dtmb::SquarePattern;
use dmfb_grid::{Lattice, Region, SlotIndex, SquareCoord, SquareRegion, Topology};

/// The compiled assignment-under-conflicts structure of a redundancy
/// scheme over a concrete topology, in CSR form over dense cell ids.
///
/// * The **cells** are the lattice cells whose faults can matter; member
///   ids index this list, and trials draw one uniform per cell in its
///   order (sorted, for every shipped scheme).
/// * A **unit** is a set of cells that must be replaced as a whole when
///   any member cell is faulty (a single primary cell for interstitial
///   schemes; a module row for the spare-row baseline).
/// * A **resource** is a set of cells that can absorb one faulty unit,
///   dying if any member cell is faulty. A resource with *no* member
///   cells is indestructible (spare rows: the legacy shifted-replacement
///   semantics never fault the spare rows themselves).
/// * The **adjacency** lists, per unit, which resources may replace it.
///   It is filled push-only: [`SchemeStructure::connect`] only ever
///   extends the unit added last.
///
/// # Example
///
/// ```
/// use dmfb_reconfig::{SchemeStructure, TrialEvaluator};
/// use dmfb_grid::SquareCoord;
///
/// let mut s = SchemeStructure::new(vec![SquareCoord::new(0, 0), SquareCoord::new(0, 1)]);
/// let r = s.add_resource([1]);
/// let u = s.add_unit([0]);
/// s.connect(u, r);
/// let eval = TrialEvaluator::from_structure(s);
/// assert_eq!((eval.unit_count(), eval.resource_count(), eval.edge_count()), (1, 1, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemeStructure<C> {
    // `*_offsets` has one entry per unit (resource) plus one, and bounds
    // that unit's (resource's) slice of the array beside it; member ids
    // index `cells`.
    pub(crate) cells: Vec<C>,
    pub(crate) unit_offsets: Vec<u32>,
    pub(crate) unit_cells: Vec<u32>,
    pub(crate) res_offsets: Vec<u32>,
    pub(crate) res_cells: Vec<u32>,
    pub(crate) adj_offsets: Vec<u32>,
    pub(crate) adj_res: Vec<u32>,
}

impl<C: Ord> SchemeStructure<C> {
    /// An empty structure over `cells` (trials draw their fault states in
    /// this order).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is not strictly increasing (sorted, distinct).
    #[must_use]
    pub fn new(cells: Vec<C>) -> Self {
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "cells are strictly increasing"
        );
        SchemeStructure {
            cells,
            unit_offsets: vec![0],
            unit_cells: Vec::new(),
            res_offsets: vec![0],
            res_cells: Vec::new(),
            adj_offsets: vec![0],
            adj_res: Vec::new(),
        }
    }

    /// Adds a replaceable unit made of the cells with ids `members`
    /// (indices into the cell list; panics on one past its end); returns
    /// its index.
    pub fn add_unit<I: IntoIterator<Item = u32>>(&mut self, members: I) -> usize {
        extend_ids(&mut self.unit_cells, members, self.cells.len());
        self.unit_offsets.push(self.unit_cells.len() as u32);
        self.adj_offsets.push(self.adj_res.len() as u32);
        self.unit_offsets.len() - 2
    }

    /// Adds a spare resource made of the cells with ids `members` (none =
    /// indestructible; panics on one past the cell list); returns its
    /// index.
    pub fn add_resource<I: IntoIterator<Item = u32>>(&mut self, members: I) -> usize {
        extend_ids(&mut self.res_cells, members, self.cells.len());
        self.res_offsets.push(self.res_cells.len() as u32);
        self.res_offsets.len() - 2
    }

    /// Declares that `resource` may replace `unit`, the unit added last.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not the last unit added or `resource` is out
    /// of range.
    pub fn connect(&mut self, unit: usize, resource: usize) {
        assert!(
            unit + 2 == self.unit_offsets.len(),
            "connect the unit added last"
        );
        assert!(
            resource + 1 < self.res_offsets.len(),
            "resource index out of range"
        );
        self.adj_res.push(resource as u32);
        *self.adj_offsets.last_mut().expect("offsets start at 0") += 1;
    }
}

/// Appends member ids to `ids`, each checked against the cell count.
fn extend_ids(ids: &mut Vec<u32>, members: impl IntoIterator<Item = u32>, cells: usize) {
    for id in members {
        assert!((id as usize) < cells, "member id out of range");
        ids.push(id);
    }
}

/// The one cell-level compiler: every primary is a unit of one cell,
/// every spare a resource of one cell, with edges from lattice adjacency.
///
/// `roles` holds each slot's role (`None` off the topology). Units are
/// the primaries `in_scope` admits, in slot (sorted cell) order;
/// resources are the spares bordering at least one of them, numbered as
/// first met in neighbour order; the sampled cells are the units and
/// resources, numbered in slot order.
pub(crate) fn compile_cells<C: Lattice>(
    index: &SlotIndex<C>,
    roles: &[Option<CellRole>],
    mut in_scope: impl FnMut(C) -> bool,
) -> SchemeStructure<C> {
    const NONE: u32 = u32::MAX;
    // Room for a unit per slot, so the pass never reallocates; the
    // offsets kept in the evaluator are trimmed after.
    let mut unit_slots = Vec::with_capacity(roles.len());
    let mut res_slots = Vec::new();
    let mut res_of_slot = vec![NONE; roles.len()];
    let mut adj_offsets = Vec::with_capacity(roles.len() + 1);
    adj_offsets.push(0);
    let mut adj_res = Vec::new();
    for (slot, role) in roles.iter().enumerate() {
        if *role != Some(CellRole::Primary) || !in_scope(index.cell(slot)) {
            continue;
        }
        unit_slots.push(slot);
        for n in index.neighbors(slot) {
            if roles[n] != Some(CellRole::Spare) {
                continue;
            }
            if res_of_slot[n] == NONE {
                res_of_slot[n] = res_slots.len() as u32;
                res_slots.push(n);
            }
            adj_res.push(res_of_slot[n]);
        }
        adj_offsets.push(adj_res.len() as u32);
    }
    adj_offsets.shrink_to_fit();
    // Units and resources are distinct cells; number them in slot order.
    let mut id = vec![NONE; roles.len()];
    for &slot in unit_slots.iter().chain(&res_slots) {
        id[slot] = 0;
    }
    let mut cells = Vec::with_capacity(unit_slots.len() + res_slots.len());
    for (slot, cell) in id.iter_mut().enumerate() {
        if *cell != NONE {
            *cell = cells.len() as u32;
            cells.push(index.cell(slot));
        }
    }
    let singletons = |n: usize| (0..=n as u32).collect();
    SchemeStructure {
        cells,
        unit_offsets: singletons(unit_slots.len()),
        unit_cells: unit_slots.iter().map(|&s| id[s]).collect(),
        res_offsets: singletons(res_slots.len()),
        res_cells: res_slots.iter().map(|&s| id[s]).collect(),
        adj_offsets,
        adj_res,
    }
}

/// A redundancy design instantiable over a topology `T`.
///
/// Implementors provide primary/spare classification and (via
/// [`RedundancyScheme::compile`]) the reconfiguration semantics as a
/// [`SchemeStructure`]. The default `compile` implements the interstitial
/// cell-level semantics shared by the hexagonal DTMB patterns and their
/// square analogues: each primary cell is a unit, each spare cell a
/// single-cell resource, with edges given by topology adjacency. Schemes
/// with coarser replacement granularity (the spare-row baseline) override
/// `compile`.
pub trait RedundancyScheme<T: Topology> {
    /// Human-readable scheme label for reports and bench artifacts.
    fn label(&self) -> String;

    /// Whether lattice cell `cell` is a spare site under this scheme.
    fn is_spare_cell(&self, topo: &T, cell: T::Coord) -> bool;

    /// Compiles the scheme over `topo` into the structure the generic
    /// evaluator consumes.
    fn compile(&self, topo: &T) -> SchemeStructure<T::Coord> {
        let (index, roles) = role_slots(topo, |c| {
            if self.is_spare_cell(topo, c) {
                CellRole::Spare
            } else {
                CellRole::Primary
            }
        });
        compile_cells(&index, &roles, |_| true)
    }
}

/// The hexagonal interstitial patterns: primary/spare classification from
/// the published sublattice colourings, adjacency from 6-neighbour hex
/// adjacency. (Policy-scoped variants go through
/// [`crate::TrialEvaluator::new`], which runs the same compiler with
/// [`crate::ReconfigPolicy::requires`] as its unit filter.)
impl RedundancyScheme<Region> for DtmbKind {
    fn label(&self) -> String {
        self.to_string()
    }

    fn is_spare_cell(&self, _topo: &Region, cell: dmfb_grid::HexCoord) -> bool {
        self.is_spare_site(cell)
    }
}

/// The square-lattice interstitial analogues: same semantics on
/// 4-adjacency, so square patterns need no matching code of their own
/// (the adjacency-list reference lives in the dev-only `dmfb_oracle`).
impl RedundancyScheme<SquareRegion> for SquarePattern {
    fn label(&self) -> String {
        self.to_string()
    }

    fn is_spare_cell(&self, _topo: &SquareRegion, cell: SquareCoord) -> bool {
        self.is_spare_site(cell)
    }
}

/// The boundary spare-row baseline, via its shift-plan semantics: module
/// rows are the replaceable units (a row is faulty as soon as any of its
/// cells is), the spare rows are indestructible resources, and the
/// shifting cascade lets any faulty row reach any spare row — a complete
/// bipartite adjacency. Matching feasibility is then exactly
/// `#distinct faulty rows ≤ #spare rows`, the success condition of
/// [`SpareRowArray::shifted_replacement`].
///
/// The expected topology is [`SpareRowArray::region`]; the compiled
/// structure depends only on the array's own dimensions, mirroring the
/// legacy oracle's behaviour of ignoring faults outside the module rows.
impl RedundancyScheme<SquareRegion> for SpareRowArray {
    fn label(&self) -> String {
        format!(
            "spare-rows ({}x{}+{})",
            self.width(),
            self.module_rows(),
            self.spare_rows()
        )
    }

    fn is_spare_cell(&self, _topo: &SquareRegion, cell: SquareCoord) -> bool {
        cell.y >= 0
            && (cell.y as u32) >= self.module_rows()
            && (cell.y as u32) < self.total_rows()
            && cell.x >= 0
            && (cell.x as u32) < self.width()
    }

    fn compile(&self, _topo: &SquareRegion) -> SchemeStructure<SquareCoord> {
        let (width, rows, spares) = (self.width(), self.module_rows(), self.spare_rows());
        let w = i32::try_from(width).expect("width fits in i32");
        let h = i32::try_from(rows).expect("rows fit in i32");
        // The module-row cells in sorted (x-major) order, so cell (x, y)
        // has id x * rows + y; row y is unit y, and every unit may use
        // every (memberless) spare row.
        SchemeStructure {
            cells: (0..w)
                .flat_map(|x| (0..h).map(move |y| SquareCoord::new(x, y)))
                .collect(),
            unit_offsets: (0..=rows).map(|y| y * width).collect(),
            unit_cells: (0..rows)
                .flat_map(|y| (0..width).map(move |x| x * rows + y))
                .collect(),
            res_offsets: vec![0; spares as usize + 1],
            res_cells: Vec::new(),
            adj_offsets: (0..=rows).map(|y| y * spares).collect(),
            adj_res: (0..rows).flat_map(|_| 0..spares).collect(),
        }
    }
}

/// Audits a scheme over a topology: the `(min, max)` adjacent-spare count
/// over the *interior* primary cells — the generalisation of the paper's
/// Definition 1 degree check to any lattice. Returns `(0, 0)` when the
/// topology has no interior primaries.
///
/// This replaces the per-lattice audit duplicates: the square patterns'
/// audit is this function applied to 4-adjacency.
#[must_use]
pub fn scheme_audit<T: Topology>(topo: &T, scheme: &impl RedundancyScheme<T>) -> (usize, usize) {
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut any = false;
    for c in topo.cells_iter() {
        if scheme.is_spare_cell(topo, c) || !topo.is_interior_cell(c) {
            continue;
        }
        let k = topo
            .neighbors_of(c)
            .filter(|n| scheme.is_spare_cell(topo, *n))
            .count();
        min = min.min(k);
        max = max.max(k);
        any = true;
    }
    if any {
        (min, max)
    } else {
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrialEvaluator;

    #[test]
    fn hex_dtmb_compiles_to_cell_level_structure() {
        let region = Region::parallelogram(10, 10);
        let kind = DtmbKind::Dtmb26A;
        let eval = TrialEvaluator::from_structure(kind.compile(&region));
        let array = kind.instantiate(&region);
        assert_eq!(eval.unit_count(), array.primary_count());
        assert!(eval.edge_count() > 0);
        // Every compiled resource is a real spare cell of the array.
        for j in 0..eval.resource_count() {
            let cells: Vec<_> = eval.resource_coords(j).collect();
            assert_eq!(cells.len(), 1);
            assert!(array.is_spare(cells[0]));
        }
        assert_eq!(
            RedundancyScheme::<Region>::label(&kind),
            "DTMB(2,6)".to_string()
        );
    }

    #[test]
    fn square_pattern_compiles_with_four_adjacency() {
        let region = SquareRegion::rect(10, 10);
        let s = SquarePattern::Checkerboard.compile(&region);
        let (primaries, spares) = SquarePattern::Checkerboard.counts(&region);
        assert_eq!(s.unit_offsets.len(), primaries + 1);
        // Checkerboard: every spare borders a primary, so all spares appear.
        assert_eq!(s.res_offsets.len(), spares + 1);
        // Interior primaries have exactly 4 candidate spares.
        let max_adj = s.adj_offsets.windows(2).map(|w| w[1] - w[0]).max();
        assert_eq!(max_adj, Some(4));
    }

    #[test]
    fn quarter_pattern_leaves_units_without_resources() {
        let region = SquareRegion::rect(8, 8);
        let s = SquarePattern::Quarter.compile(&region);
        // The odd/odd cells have no adjacent spare: isolated units exist.
        assert!(s.adj_offsets.windows(2).any(|w| w[0] == w[1]));
    }

    #[test]
    fn spare_rows_compile_to_complete_bipartite_rows() {
        let array = SpareRowArray::figure2_example();
        let eval = TrialEvaluator::from_structure(array.compile(&array.region()));
        assert_eq!(eval.unit_count(), array.module_rows() as usize);
        assert_eq!(eval.resource_count(), array.spare_rows() as usize);
        assert_eq!(
            eval.edge_count(),
            (array.module_rows() * array.spare_rows()) as usize
        );
        // Units carry one cell per column; resources are indestructible.
        assert!(eval.unit_cell_counts().all(|n| n == array.width() as usize));
        assert!(eval.resource_cell_counts().all(|n| n == 0));
        assert!(array.label().contains("spare-rows"));
    }

    #[test]
    #[should_panic(expected = "connect the unit added last")]
    fn connect_extends_only_the_last_unit() {
        let mut s = SchemeStructure::new(vec![0u32, 1, 2]);
        let r = s.add_resource([2]);
        let first = s.add_unit([0]);
        s.add_unit([1]);
        s.connect(first, r);
    }

    #[test]
    #[should_panic(expected = "cells are strictly increasing")]
    fn duplicate_cells_are_rejected() {
        let _ = SchemeStructure::new(vec![0u32, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cells are strictly increasing")]
    fn unsorted_cells_are_rejected() {
        let _ = SchemeStructure::new(vec![SquareCoord::new(1, 0), SquareCoord::new(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "member id out of range")]
    fn unit_member_ids_are_checked() {
        SchemeStructure::new(vec![0u32, 1]).add_unit([0, 2]);
    }

    #[test]
    #[should_panic(expected = "member id out of range")]
    fn resource_member_ids_are_checked() {
        SchemeStructure::new(vec![0u32, 1]).add_resource([2]);
    }

    #[test]
    fn spare_row_cell_classification() {
        let array = SpareRowArray::figure2_example(); // 8 wide, 6 module rows + 1 spare
        let topo = array.region();
        assert!(!array.is_spare_cell(&topo, SquareCoord::new(0, 0)));
        assert!(array.is_spare_cell(&topo, SquareCoord::new(3, 6)));
        assert!(!array.is_spare_cell(&topo, SquareCoord::new(3, 7)));
        assert!(!array.is_spare_cell(&topo, SquareCoord::new(-1, 6)));
    }

    #[test]
    fn generic_audit_matches_hex_degree_guarantee() {
        for kind in DtmbKind::ALL {
            let region = Region::parallelogram(16, 16);
            let (min, max) = scheme_audit(&region, &kind);
            let (s, _) = kind.spec();
            assert_eq!((min, max), (s, s), "{kind}");
        }
    }
}
