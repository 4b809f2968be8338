//! Per-chip defect maps.

use crate::fault::{CatastrophicDefect, DefectCause};
use dmfb_grid::{CellMap, HexCoord};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The set of faulty cells of one fabricated chip instance, with the cause
/// of each fault.
///
/// A `DefectMap` is what the test methodology produces and what the
/// reconfiguration engine consumes. It is generic over the cell coordinate
/// type `C`, defaulting to the hexagonal lattice's [`HexCoord`]; the square
/// lattice uses `DefectMap<SquareCoord>`. Electrode shorts implicitly fault
/// the *partner* cell too — the shorted pair "effectively forms one longer
/// electrode" — which [`DefectMap::close_shorts`] (hexagonal maps only)
/// makes explicit.
///
/// # Example
///
/// ```
/// use dmfb_defects::{CatastrophicDefect, DefectCause, DefectMap};
/// use dmfb_grid::HexCoord;
///
/// let mut defects = DefectMap::new();
/// defects.mark(
///     HexCoord::new(1, 1),
///     DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
/// );
/// assert!(defects.is_faulty(HexCoord::new(1, 1)));
/// assert_eq!(defects.fault_count(), 1);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct DefectMap<C: Ord + Copy = HexCoord> {
    faults: CellMap<DefectCause, C>,
}

impl<C: Ord + Copy> Default for DefectMap<C> {
    fn default() -> Self {
        DefectMap {
            faults: CellMap::new(),
        }
    }
}

impl<C: Ord + Copy + fmt::Debug> fmt::Debug for DefectMap<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DefectMap({} faulty cells)", self.faults.len())
    }
}

impl<C: Ord + Copy> DefectMap<C> {
    /// Creates an empty (fault-free) map.
    #[must_use]
    pub fn new() -> Self {
        DefectMap::default()
    }

    /// Builds a map marking `cells` faulty with a generic open-connection
    /// cause. Convenient for tests and for the exact-`m` injection mode
    /// where only *which* cells fail matters.
    #[must_use]
    pub fn from_cells<I: IntoIterator<Item = C>>(cells: I) -> Self {
        let mut map = DefectMap::new();
        for c in cells {
            map.mark(
                c,
                DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
            );
        }
        map
    }

    /// Marks `cell` faulty with `cause`; returns the previous cause if the
    /// cell was already faulty.
    pub fn mark(&mut self, cell: C, cause: DefectCause) -> Option<DefectCause> {
        self.faults.insert(cell, cause)
    }

    /// Whether `cell` is faulty.
    #[must_use]
    pub fn is_faulty(&self, cell: C) -> bool {
        self.faults.contains(cell)
    }

    /// The recorded cause of a fault, if any.
    #[must_use]
    pub fn cause(&self, cell: C) -> Option<&DefectCause> {
        self.faults.get(cell)
    }

    /// Number of faulty cells.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Whether the chip instance is entirely fault-free.
    #[must_use]
    pub fn is_fault_free(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates `(cell, cause)` in sorted cell order.
    pub fn iter(&self) -> impl Iterator<Item = (C, &DefectCause)> {
        self.faults.iter()
    }

    /// Iterates the faulty cells in sorted order.
    pub fn faulty_cells(&self) -> impl Iterator<Item = C> + '_ {
        self.faults.cells()
    }

    /// The union of two defect maps (first cause wins on conflicts).
    #[must_use]
    pub fn merged(&self, other: &DefectMap<C>) -> DefectMap<C> {
        let mut out = self.clone();
        for (c, cause) in other.iter() {
            if !out.is_faulty(c) {
                out.mark(c, *cause);
            }
        }
        out
    }
}

impl DefectMap<HexCoord> {
    /// Propagates electrode shorts to their partner cells: for every
    /// `ElectrodeShort(dir)` at cell `c`, the adjacent cell `c.step(dir)` is
    /// also marked faulty (as the other end of the same short) if not
    /// already. Returns the number of cells newly marked.
    ///
    /// Short directions are hexagonal transport directions, so this method
    /// exists only on hexagonal defect maps.
    pub fn close_shorts(&mut self) -> usize {
        let partners: Vec<(HexCoord, HexCoord)> = self
            .faults
            .iter()
            .filter_map(|(c, cause)| match cause {
                DefectCause::Catastrophic(CatastrophicDefect::ElectrodeShort(d)) => {
                    Some((c, c.step(*d)))
                }
                _ => None,
            })
            .collect();
        let mut added = 0;
        for (origin, partner) in partners {
            if !self.faults.contains(partner) {
                // Record the reciprocal short on the partner.
                let back = origin - partner;
                let dir = dmfb_grid::HexDir::ALL
                    .into_iter()
                    .find(|d| {
                        let (dq, dr) = d.offset();
                        dq == back.q && dr == back.r
                    })
                    .expect("short partner is adjacent by construction");
                self.faults.insert(
                    partner,
                    DefectCause::Catastrophic(CatastrophicDefect::ElectrodeShort(dir)),
                );
                added += 1;
            }
        }
        added
    }
}

impl<C: Ord + Copy> FromIterator<(C, DefectCause)> for DefectMap<C> {
    fn from_iter<I: IntoIterator<Item = (C, DefectCause)>>(iter: I) -> Self {
        DefectMap {
            faults: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_grid::{HexDir, SquareCoord};

    #[test]
    fn mark_query_clear() {
        let mut m = DefectMap::new();
        assert!(m.is_fault_free());
        let cell = HexCoord::new(2, 3);
        m.mark(
            cell,
            DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown),
        );
        assert!(m.is_faulty(cell));
        assert_eq!(m.fault_count(), 1);
        assert!(matches!(
            m.cause(cell),
            Some(DefectCause::Catastrophic(
                CatastrophicDefect::DielectricBreakdown
            ))
        ));
    }

    #[test]
    fn from_cells_marks_all() {
        let cells = [HexCoord::new(0, 0), HexCoord::new(1, 0)];
        let m = DefectMap::from_cells(cells);
        assert_eq!(m.fault_count(), 2);
        for c in cells {
            assert!(m.is_faulty(c));
        }
        let listed: Vec<_> = m.faulty_cells().collect();
        assert_eq!(listed, cells.to_vec());
    }

    #[test]
    fn close_shorts_marks_partner() {
        let mut m = DefectMap::new();
        let a = HexCoord::new(0, 0);
        m.mark(
            a,
            DefectCause::Catastrophic(CatastrophicDefect::ElectrodeShort(HexDir::East)),
        );
        assert_eq!(m.close_shorts(), 1);
        let b = a.step(HexDir::East);
        assert!(m.is_faulty(b));
        // Partner records the reciprocal direction.
        assert!(matches!(
            m.cause(b),
            Some(DefectCause::Catastrophic(
                CatastrophicDefect::ElectrodeShort(HexDir::West)
            ))
        ));
        // Idempotent.
        assert_eq!(m.close_shorts(), 0);
    }

    #[test]
    fn merge_prefers_existing() {
        let a_cell = HexCoord::new(0, 0);
        let mut a = DefectMap::new();
        a.mark(
            a_cell,
            DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
        );
        let mut b = DefectMap::new();
        b.mark(
            a_cell,
            DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown),
        );
        b.mark(
            HexCoord::new(5, 5),
            DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
        );
        let m = a.merged(&b);
        assert_eq!(m.fault_count(), 2);
        assert!(matches!(
            m.cause(a_cell),
            Some(DefectCause::Catastrophic(
                CatastrophicDefect::OpenConnection
            ))
        ));
    }

    #[test]
    fn square_lattice_map() {
        let cells = [SquareCoord::new(0, 0), SquareCoord::new(2, 1)];
        let m: DefectMap<SquareCoord> = DefectMap::from_cells(cells);
        assert_eq!(m.fault_count(), 2);
        assert!(m.is_faulty(SquareCoord::new(2, 1)));
        assert!(!m.is_faulty(SquareCoord::new(1, 1)));
        let merged = m.merged(&DefectMap::from_cells([SquareCoord::new(5, 5)]));
        assert_eq!(merged.fault_count(), 3);
    }
}
