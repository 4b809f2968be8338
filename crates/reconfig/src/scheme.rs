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
//! a [`SchemeStructure`], the neutral form the incremental
//! [`crate::TrialEvaluator`] consumes — which is how square DTMB and
//! spare-row arrays ride the same bitset-matching/CRN-batched fast engine
//! as the hexagonal designs.

use crate::dtmb::DtmbKind;
use crate::shifted::SpareRowArray;
use crate::square_dtmb::SquarePattern;
use dmfb_grid::{Region, SquareCoord, SquareRegion, Topology};
use std::collections::BTreeMap;

/// The compiled assignment-under-conflicts structure of a redundancy
/// scheme over a concrete topology.
///
/// * A **unit** is a set of cells that must be replaced as a whole when
///   any member cell is faulty (a single primary cell for interstitial
///   schemes; a module row for the spare-row baseline).
/// * A **resource** is a set of cells that can absorb one faulty unit,
///   dying if any member cell is faulty. A resource with *no* member
///   cells is indestructible (spare rows: the legacy shifted-replacement
///   semantics never fault the spare rows themselves).
/// * The **adjacency** lists, per unit, which resources may replace it.
///
/// # Example
///
/// ```
/// use dmfb_reconfig::SchemeStructure;
/// use dmfb_grid::SquareCoord;
///
/// let mut s = SchemeStructure::new();
/// let u = s.add_unit([SquareCoord::new(0, 0)]);
/// let r = s.add_resource([SquareCoord::new(0, 1)]);
/// s.connect(u, r);
/// assert_eq!((s.unit_count(), s.resource_count(), s.edge_count()), (1, 1, 1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchemeStructure<C> {
    units: Vec<Vec<C>>,
    resources: Vec<Vec<C>>,
    adjacency: Vec<Vec<u32>>,
}

impl<C: Copy + Ord> SchemeStructure<C> {
    /// Creates an empty structure.
    #[must_use]
    pub fn new() -> Self {
        SchemeStructure {
            units: Vec::new(),
            resources: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// Adds a replaceable unit made of `cells`; returns its index.
    pub fn add_unit<I: IntoIterator<Item = C>>(&mut self, cells: I) -> usize {
        self.units.push(cells.into_iter().collect());
        self.adjacency.push(Vec::new());
        self.units.len() - 1
    }

    /// Adds a spare resource made of `cells` (empty = indestructible);
    /// returns its index.
    pub fn add_resource<I: IntoIterator<Item = C>>(&mut self, cells: I) -> usize {
        self.resources.push(cells.into_iter().collect());
        self.resources.len() - 1
    }

    /// Declares that `resource` may replace `unit`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn connect(&mut self, unit: usize, resource: usize) {
        assert!(unit < self.units.len(), "unit index out of range");
        assert!(
            resource < self.resources.len(),
            "resource index out of range"
        );
        self.adjacency[unit].push(resource as u32);
    }

    /// Number of replaceable units.
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Number of spare resources.
    #[must_use]
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Number of unit→resource adjacencies.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// The member cells of unit `i`.
    #[must_use]
    pub fn unit_cells(&self, i: usize) -> &[C] {
        &self.units[i]
    }

    /// The member cells of resource `j` (empty = indestructible).
    #[must_use]
    pub fn resource_cells(&self, j: usize) -> &[C] {
        &self.resources[j]
    }

    /// The candidate resource indices of unit `i`.
    #[must_use]
    pub fn adjacent_resources(&self, i: usize) -> &[u32] {
        &self.adjacency[i]
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

    /// Compiles the scheme over `topo` into the neutral structure the
    /// generic evaluator consumes.
    fn compile(&self, topo: &T) -> SchemeStructure<T::Coord> {
        let mut s = SchemeStructure::new();
        let mut resource_index: BTreeMap<T::Coord, usize> = BTreeMap::new();
        for c in topo.cells_iter() {
            if self.is_spare_cell(topo, c) {
                continue;
            }
            let unit = s.add_unit([c]);
            for n in topo.neighbors_of(c) {
                if !self.is_spare_cell(topo, n) {
                    continue;
                }
                let resource = match resource_index.get(&n) {
                    Some(&r) => r,
                    None => {
                        let r = s.add_resource([n]);
                        resource_index.insert(n, r);
                        r
                    }
                };
                s.connect(unit, resource);
            }
        }
        s
    }
}

/// The hexagonal interstitial patterns: primary/spare classification from
/// the published sublattice colourings, adjacency from 6-neighbour hex
/// adjacency. (Policy-scoped variants go through
/// [`crate::TrialEvaluator::new`], which filters units by
/// [`crate::ReconfigPolicy`].)
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
        let mut s = SchemeStructure::new();
        let width = i32::try_from(self.width()).expect("width fits in i32");
        let spares: Vec<usize> = (0..self.spare_rows())
            .map(|_| s.add_resource(std::iter::empty()))
            .collect();
        for row in 0..self.module_rows() {
            let y = i32::try_from(row).expect("row fits in i32");
            let unit = s.add_unit((0..width).map(|x| SquareCoord::new(x, y)));
            for &r in &spares {
                s.connect(unit, r);
            }
        }
        s
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

    #[test]
    fn hex_dtmb_compiles_to_cell_level_structure() {
        let region = Region::parallelogram(10, 10);
        let kind = DtmbKind::Dtmb26A;
        let s = kind.compile(&region);
        let array = kind.instantiate(&region);
        assert_eq!(s.unit_count(), array.primary_count());
        // Every compiled resource is a real spare cell of the array.
        for j in 0..s.resource_count() {
            let cells = s.resource_cells(j);
            assert_eq!(cells.len(), 1);
            assert!(array.is_spare(cells[0]));
        }
        assert!(s.edge_count() > 0);
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
        assert_eq!(s.unit_count(), primaries);
        // Checkerboard: every spare borders a primary, so all spares appear.
        assert_eq!(s.resource_count(), spares);
        // Interior primaries have exactly 4 candidate spares.
        let max_adj = (0..s.unit_count())
            .map(|i| s.adjacent_resources(i).len())
            .max()
            .unwrap();
        assert_eq!(max_adj, 4);
    }

    #[test]
    fn quarter_pattern_leaves_units_without_resources() {
        let region = SquareRegion::rect(8, 8);
        let s = SquarePattern::Quarter.compile(&region);
        // The odd/odd cells have no adjacent spare: isolated units exist.
        assert!((0..s.unit_count()).any(|i| s.adjacent_resources(i).is_empty()));
    }

    #[test]
    fn spare_rows_compile_to_complete_bipartite_rows() {
        let array = SpareRowArray::figure2_example();
        let s = array.compile(&array.region());
        assert_eq!(s.unit_count(), array.module_rows() as usize);
        assert_eq!(s.resource_count(), array.spare_rows() as usize);
        assert_eq!(
            s.edge_count(),
            (array.module_rows() * array.spare_rows()) as usize
        );
        // Units carry one cell per column; resources are indestructible.
        for i in 0..s.unit_count() {
            assert_eq!(s.unit_cells(i).len(), array.width() as usize);
        }
        for j in 0..s.resource_count() {
            assert!(s.resource_cells(j).is_empty());
        }
        assert!(array.label().contains("spare-rows"));
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
