//! Finite sets of hexagonal cells: the outline of a biochip array.

use crate::{GridError, HexCoord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A finite set of cells on the hexagonal lattice.
///
/// A `Region` is the footprint of a microfluidic array: the set of electrode
/// positions that physically exist on the chip. It provides deterministic
/// (sorted) iteration, O(log n) membership tests, and boundary/interior
/// classification — the paper's Definition 1 constrains only *non-boundary*
/// primary cells, so the distinction matters for finite arrays.
///
/// # Example
///
/// ```
/// use dmfb_grid::{HexCoord, Region};
///
/// let region = Region::hexagon(HexCoord::ORIGIN, 2);
/// assert_eq!(region.len(), 19);
/// let interior = region.iter().filter(|&c| !region.is_boundary(c).unwrap());
/// assert_eq!(interior.count(), 7);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Region {
    cells: BTreeSet<HexCoord>,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region({} cells)", self.cells.len())
    }
}

impl Region {
    /// A parallelogram-shaped region: `q in [0, width)`, `r in [0, height)`.
    ///
    /// This is the natural "rectangle" in axial coordinates and the default
    /// array shape used by the yield experiments.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` would overflow `i32`.
    #[must_use]
    pub fn parallelogram(width: u32, height: u32) -> Self {
        let w = i32::try_from(width).expect("width fits in i32");
        let h = i32::try_from(height).expect("height fits in i32");
        let cells = (0..w)
            .flat_map(|q| (0..h).map(move |r| HexCoord::new(q, r)))
            .collect();
        Region { cells }
    }

    /// A regular hexagon of the given `radius` centred at `center`
    /// (`radius = 0` is a single cell). Contains `1 + 3*radius*(radius+1)`
    /// cells.
    #[must_use]
    pub fn hexagon(center: HexCoord, radius: u32) -> Self {
        Region {
            cells: center.spiral(radius).collect(),
        }
    }

    /// A visually rectangular region using "odd-r" offset rows: rows of
    /// constant `r`, each horizontally shifted so the rendered array is a
    /// rectangle like the fabricated chip photographs.
    #[must_use]
    pub fn rectangle(width: u32, height: u32) -> Self {
        let w = i32::try_from(width).expect("width fits in i32");
        let h = i32::try_from(height).expect("height fits in i32");
        let mut cells = BTreeSet::new();
        for r in 0..h {
            // Offset rows: shift q so columns stay roughly vertical.
            let q0 = -(r / 2);
            for q in q0..q0 + w {
                cells.insert(HexCoord::new(q, r));
            }
        }
        Region { cells }
    }

    /// Number of cells in the region.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the region contains no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `cell` belongs to the region.
    #[must_use]
    pub fn contains(&self, cell: HexCoord) -> bool {
        self.cells.contains(&cell)
    }

    /// Inserts a cell; returns `true` if it was newly added.
    pub fn insert(&mut self, cell: HexCoord) -> bool {
        self.cells.insert(cell)
    }

    /// Removes a cell; returns `true` if it was present.
    pub fn remove(&mut self, cell: HexCoord) -> bool {
        self.cells.remove(&cell)
    }

    /// Iterates over the cells in sorted (deterministic) order.
    pub fn iter(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.cells.iter().copied()
    }

    /// The neighbours of `cell` that are inside the region.
    pub fn neighbors_in(&self, cell: HexCoord) -> impl Iterator<Item = HexCoord> + '_ {
        cell.neighbors().filter(|n| self.contains(*n))
    }

    /// In-region degree of a cell: how many of its six neighbours exist.
    ///
    /// Returns an error if the cell itself is not part of the region.
    ///
    /// # Errors
    ///
    /// [`GridError::CellNotInRegion`] if `cell` is outside the region.
    pub fn degree(&self, cell: HexCoord) -> Result<usize, GridError> {
        if !self.contains(cell) {
            return Err(GridError::CellNotInRegion(cell));
        }
        Ok(self.neighbors_in(cell).count())
    }

    /// Whether `cell` lies on the region boundary (fewer than six in-region
    /// neighbours). Boundary cells are exempt from the DTMB(s, p) degree
    /// guarantee (paper Definition 1).
    ///
    /// # Errors
    ///
    /// [`GridError::CellNotInRegion`] if `cell` is outside the region.
    pub fn is_boundary(&self, cell: HexCoord) -> Result<bool, GridError> {
        Ok(self.degree(cell)? < 6)
    }

    /// Whether every pair of cells is connected through in-region adjacency.
    /// Droplets cannot jump over missing electrodes, so a usable biochip
    /// region must be connected. An empty region counts as connected.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let Some(&start) = self.cells.iter().next() else {
            return true;
        };
        let mut seen = BTreeSet::new();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            for n in self.neighbors_in(c) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == self.cells.len()
    }

    /// Returns a new region translated by `offset`.
    #[must_use]
    pub fn translated(&self, offset: HexCoord) -> Region {
        Region {
            cells: self.cells.iter().map(|c| *c + offset).collect(),
        }
    }
}

impl FromIterator<HexCoord> for Region {
    fn from_iter<I: IntoIterator<Item = HexCoord>>(iter: I) -> Self {
        Region {
            cells: iter.into_iter().collect(),
        }
    }
}

impl Extend<HexCoord> for Region {
    fn extend<I: IntoIterator<Item = HexCoord>>(&mut self, iter: I) {
        self.cells.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Region {
    type Item = HexCoord;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, HexCoord>>;
    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn parallelogram_counts() {
        let region = Region::parallelogram(5, 4);
        assert_eq!(region.len(), 20);
        assert!(region.contains(HexCoord::new(0, 0)));
        assert!(region.contains(HexCoord::new(4, 3)));
        assert!(!region.contains(HexCoord::new(5, 0)));
        assert!(region.is_connected());
    }

    #[test]
    fn hexagon_counts_and_interior() {
        let region = Region::hexagon(HexCoord::ORIGIN, 3);
        assert_eq!(region.len(), 1 + 3 * 3 * 4);
        // Interior of a radius-3 hexagon is the radius-2 hexagon.
        let boundary = region
            .iter()
            .filter(|&c| region.is_boundary(c).unwrap())
            .count();
        assert_eq!(region.len() - boundary, 1 + 3 * 2 * 3);
        assert_eq!(boundary, 18);
    }

    #[test]
    fn rectangle_is_connected_with_full_rows() {
        let region = Region::rectangle(6, 5);
        assert_eq!(region.len(), 30);
        assert!(region.is_connected());
        // every row has exactly 6 cells
        for r in 0..5 {
            assert_eq!(region.iter().filter(|c| c.r == r).count(), 6);
        }
    }

    #[test]
    fn degree_and_boundary() {
        let region = Region::parallelogram(3, 3);
        // corner (0,0) has neighbours (1,0) and (0,1) in the parallelogram.
        assert_eq!(region.degree(HexCoord::new(0, 0)).unwrap(), 2);
        assert!(region.is_boundary(HexCoord::new(0, 0)).unwrap());
        assert!(!region.is_boundary(HexCoord::new(1, 1)).unwrap());
        assert!(region.degree(HexCoord::new(9, 9)).is_err());
    }

    #[test]
    fn connectivity_detects_split() {
        let mut region = Region::default();
        region.insert(HexCoord::new(0, 0));
        region.insert(HexCoord::new(5, 5));
        assert!(!region.is_connected());
        assert!(Region::default().is_connected());
    }

    #[test]
    fn translation_preserves_shape() {
        let a = Region::hexagon(HexCoord::ORIGIN, 2);
        let b = a.translated(HexCoord::new(10, -4));
        assert_eq!(a.len(), b.len());
        assert!(b.contains(HexCoord::new(10, -4)));
        let boundary = |r: &Region| r.iter().filter(|&c| r.is_boundary(c).unwrap()).count();
        assert_eq!(boundary(&b), boundary(&a));
    }

    #[test]
    fn bounds() {
        let region = Region::parallelogram(4, 2);
        let (lo, hi) = region.bounds().unwrap();
        assert_eq!(lo, HexCoord::new(0, 0));
        assert_eq!(hi, HexCoord::new(3, 1));
        assert!(Region::default().bounds().is_none());
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let region = Region::hexagon(HexCoord::new(2, 2), 2);
        let v: Vec<_> = region.iter().collect();
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(v, sorted);
    }
}
