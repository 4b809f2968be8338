//! Defect-tolerant arrays: regions with a primary/spare role per cell.

use crate::dtmb::DtmbKind;
use dmfb_grid::{GridError, HexCoord, Region, SlotIndex, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The role of a cell in a defect-tolerant microfluidic array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CellRole {
    /// A working cell used (or usable) by bioassays.
    Primary,
    /// An interstitial spare that can functionally replace an adjacent
    /// faulty primary via local reconfiguration.
    Spare,
}

/// Lays `topo`'s cells out on a [`SlotIndex`] over its bounding box: the
/// index, and `role(c)` in each cell's slot (`None` off the topology).
pub(crate) fn role_slots<T: Topology>(
    topo: &T,
    mut role: impl FnMut(T::Coord) -> CellRole,
) -> (SlotIndex<T::Coord>, Vec<Option<CellRole>>) {
    let index = SlotIndex::covering(topo);
    let mut roles = vec![None; index.slot_count()];
    for c in topo.cells_iter() {
        roles[index.slot(c).expect("topology cells lie in the box")] = Some(role(c));
    }
    (index, roles)
}

/// A microfluidic array whose cells are partitioned into primary and spare
/// cells — the object the paper calls `DTMB(s, p)` when the spares follow
/// one of the interstitial patterns of Figures 3–6.
///
/// Roles are stored densely: one byte per slot of the region's padded
/// axial bounding box ([`SlotIndex`]), so role and adjacency queries are
/// index arithmetic and iteration in slot order is sorted cell order.
/// Memory is one byte per bounding-box slot on top of the [`Region`].
///
/// # Example
///
/// ```
/// use dmfb_reconfig::dtmb::DtmbKind;
/// use dmfb_grid::Region;
///
/// let array = DtmbKind::Dtmb26A.instantiate(&Region::parallelogram(10, 10));
/// assert_eq!(array.primary_count() + array.spare_count(), 100);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct DefectTolerantArray {
    region: Region,
    /// Slot arithmetic over `region`'s bounding box.
    index: SlotIndex,
    /// The role of each slot's cell; `None` off the region.
    roles: Vec<Option<CellRole>>,
    primaries: usize,
    spares: usize,
    kind: Option<DtmbKind>,
}

impl fmt::Debug for DefectTolerantArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DefectTolerantArray({:?}, {} primary + {} spare)",
            self.kind,
            self.primary_count(),
            self.spare_count()
        )
    }
}

impl DefectTolerantArray {
    /// An array with no redundancy at all: every cell is primary. This is
    /// the paper's baseline (`Y = pⁿ`) and the model of the first fabricated
    /// multiplexed-diagnostics chip.
    #[must_use]
    pub fn without_redundancy(region: Region) -> Self {
        DefectTolerantArray::with_roles(region, None, |_| CellRole::Primary)
    }

    /// Builds the array over `region` with `role(c)` for every cell.
    pub(crate) fn with_roles(
        region: Region,
        kind: Option<DtmbKind>,
        mut role: impl FnMut(HexCoord) -> CellRole,
    ) -> Self {
        let mut spares = 0;
        let (index, roles) = role_slots(&region, |c| {
            let r = role(c);
            spares += usize::from(r == CellRole::Spare);
            r
        });
        DefectTolerantArray {
            primaries: region.len() - spares,
            spares,
            region,
            index,
            roles,
            kind,
        }
    }

    /// The underlying cell region.
    #[must_use]
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The DTMB pattern this array was instantiated from, if any.
    #[must_use]
    pub fn kind(&self) -> Option<DtmbKind> {
        self.kind
    }

    /// The slot index the roles are stored over.
    pub(crate) fn slot_index(&self) -> &SlotIndex {
        &self.index
    }

    /// The role of every slot's cell (`None` off the region), in slot
    /// order.
    pub(crate) fn slot_roles(&self) -> &[Option<CellRole>] {
        &self.roles
    }

    fn role_at(&self, cell: HexCoord) -> Option<CellRole> {
        self.index.slot(cell).and_then(|s| self.roles[s])
    }

    /// The cells whose role is `role`, in sorted order.
    fn cells_with(&self, role: CellRole) -> impl Iterator<Item = HexCoord> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(move |(_, r)| **r == Some(role))
            .map(|(s, _)| self.index.cell(s))
    }

    /// The role of `cell`.
    ///
    /// # Errors
    ///
    /// [`GridError::CellNotInRegion`] if the cell is not part of the array.
    pub fn role(&self, cell: HexCoord) -> Result<CellRole, GridError> {
        self.role_at(cell).ok_or(GridError::CellNotInRegion(cell))
    }

    /// Whether `cell` is a spare (false for primaries *and* for cells
    /// outside the array).
    #[must_use]
    pub fn is_spare(&self, cell: HexCoord) -> bool {
        self.role_at(cell) == Some(CellRole::Spare)
    }

    /// Whether `cell` is a primary (false outside the array).
    #[must_use]
    pub fn is_primary(&self, cell: HexCoord) -> bool {
        self.role_at(cell) == Some(CellRole::Primary)
    }

    /// Iterates the primary cells in sorted order.
    pub fn primaries(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.cells_with(CellRole::Primary)
    }

    /// Iterates the spare cells in sorted order.
    pub fn spares(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.cells_with(CellRole::Spare)
    }

    /// Number of primary cells (`n` in the paper).
    #[must_use]
    pub fn primary_count(&self) -> usize {
        self.primaries
    }

    /// Number of spare cells.
    #[must_use]
    pub fn spare_count(&self) -> usize {
        self.spares
    }

    /// Total number of cells (`N = n + spares`).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.region.len()
    }

    /// The redundancy ratio `RR` — Definition 2: spares / primaries.
    /// Returns 0 for an array without primaries.
    #[must_use]
    pub fn redundancy_ratio(&self) -> f64 {
        let n = self.primary_count();
        if n == 0 {
            0.0
        } else {
            self.spare_count() as f64 / n as f64
        }
    }

    /// The spare cells adjacent to `cell` (its replacement candidates).
    pub fn adjacent_spares(&self, cell: HexCoord) -> impl Iterator<Item = HexCoord> + '_ {
        cell.neighbors().filter(|n| self.is_spare(*n))
    }

    /// The primary cells adjacent to `cell`.
    pub fn adjacent_primaries(&self, cell: HexCoord) -> impl Iterator<Item = HexCoord> + '_ {
        cell.neighbors().filter(|n| self.is_primary(*n))
    }

    /// Audits the array against Definition 1, returning the observed
    /// degree ranges.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::CellNotInRegion`] only if the array is
    /// internally inconsistent (cannot happen through public constructors).
    pub fn audit(&self) -> Result<DegreeAudit, GridError> {
        let mut spares_min = usize::MAX;
        let mut spares_max = 0usize;
        let mut interior_primaries = 0usize;
        for c in self.primaries() {
            if self.region.is_boundary(c)? {
                continue;
            }
            interior_primaries += 1;
            let k = self.adjacent_spares(c).count();
            spares_min = spares_min.min(k);
            spares_max = spares_max.max(k);
        }
        let mut prim_min = usize::MAX;
        let mut prim_max = 0usize;
        let mut interior_spares = 0usize;
        for c in self.spares() {
            if self.region.is_boundary(c)? {
                continue;
            }
            interior_spares += 1;
            let k = self.adjacent_primaries(c).count();
            prim_min = prim_min.min(k);
            prim_max = prim_max.max(k);
        }
        Ok(DegreeAudit {
            interior_primaries,
            interior_spares,
            spares_per_interior_primary: if interior_primaries == 0 {
                (0, 0)
            } else {
                (spares_min, spares_max)
            },
            primaries_per_interior_spare: if interior_spares == 0 {
                (0, 0)
            } else {
                (prim_min, prim_max)
            },
        })
    }
}

/// The observed adjacency degrees of an array, checked against the
/// `DTMB(s, p)` definition. Boundary cells are excluded, exactly as the
/// paper's Definition 1 does ("each *non-boundary* primary cell").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeAudit {
    /// Number of non-boundary primary cells.
    pub interior_primaries: usize,
    /// Number of non-boundary spare cells.
    pub interior_spares: usize,
    /// `(min, max)` spare-neighbour count over non-boundary primaries; a
    /// DTMB(s, p) array must have `min == max == s`.
    pub spares_per_interior_primary: (usize, usize),
    /// `(min, max)` primary-neighbour count over non-boundary spares; a
    /// DTMB(s, p) array must have `min == max == p`.
    pub primaries_per_interior_spare: (usize, usize),
}

impl DegreeAudit {
    /// Whether the audit matches an exact `DTMB(s, p)` degree guarantee.
    #[must_use]
    pub fn matches(&self, s: usize, p: usize) -> bool {
        (self.interior_primaries == 0 || self.spares_per_interior_primary == (s, s))
            && (self.interior_spares == 0 || self.primaries_per_interior_spare == (p, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_redundancy_all_primary() {
        let array = DefectTolerantArray::without_redundancy(Region::parallelogram(5, 5));
        assert_eq!(array.primary_count(), 25);
        assert_eq!(array.spare_count(), 0);
        assert_eq!(array.redundancy_ratio(), 0.0);
        assert!(array.kind().is_none());
        assert!(array.is_primary(HexCoord::new(2, 2)));
        assert!(!array.is_spare(HexCoord::new(2, 2)));
        assert!(!array.is_primary(HexCoord::new(50, 50)));
    }

    #[test]
    fn role_query_errors_outside() {
        let array = DefectTolerantArray::without_redundancy(Region::parallelogram(2, 2));
        assert!(array.role(HexCoord::new(9, 9)).is_err());
        assert_eq!(array.role(HexCoord::new(0, 0)).unwrap(), CellRole::Primary);
    }

    #[test]
    fn audit_of_plain_array() {
        let array = DefectTolerantArray::without_redundancy(Region::parallelogram(6, 6));
        let audit = array.audit().unwrap();
        assert!(audit.interior_primaries > 0);
        assert_eq!(audit.interior_spares, 0);
        assert_eq!(audit.spares_per_interior_primary, (0, 0));
        assert!(audit.matches(0, 0));
        assert!(!audit.matches(1, 6));
    }
}
