//! The `Topology` abstraction: any finite cell set with an adjacency
//! relation.
//!
//! The paper evaluates redundancy schemes on two lattices — hexagonal
//! electrodes (6-adjacency, the DTMB designs) and square electrodes
//! (4-adjacency, the fabricated chip and the spare-row baseline). Every
//! downstream consumer (defect injection, reconfiguration structure
//! compilation, Monte-Carlo evaluation) only ever needs three things from
//! the geometry: deterministic cell iteration, membership, and in-region
//! neighbour iteration. [`Topology`] captures exactly that, so the fast
//! reconfiguration engine can be written once and ride on either lattice
//! (or any future one).

use crate::{HexCoord, Lattice, Region, SquareCoord, SquareRegion};

/// A finite set of cells with an adjacency relation — the geometric
/// substrate a redundancy scheme is instantiated on.
///
/// Implementations must be deterministic: [`Topology::cells_iter`] yields
/// cells in a fixed (sorted) order, and [`Topology::neighbors_of`] yields
/// only cells that are part of the topology. Both properties are what let
/// Monte-Carlo experiments be byte-reproducible across runs and thread
/// counts.
///
/// # Example
///
/// ```
/// use dmfb_grid::{Region, SquareRegion, Topology};
///
/// let hex = Region::parallelogram(4, 4);
/// assert_eq!(hex.cell_count(), 16);
/// assert_eq!(hex.full_degree(), 6);
///
/// let square = SquareRegion::rect(4, 4);
/// assert_eq!(square.cell_count(), 16);
/// assert_eq!(square.full_degree(), 4);
/// ```
pub trait Topology {
    /// The coordinate type of a cell on this topology; its [`Lattice`]
    /// arithmetic lays the cells out on a [`crate::SlotIndex`].
    type Coord: Lattice;

    /// Number of cells in the topology.
    fn cell_count(&self) -> usize;

    /// Whether `cell` belongs to the topology.
    fn contains_cell(&self, cell: Self::Coord) -> bool;

    /// Iterates every cell in sorted (deterministic) order.
    fn cells_iter(&self) -> impl Iterator<Item = Self::Coord> + '_;

    /// Iterates the in-topology neighbours of `cell`.
    fn neighbors_of(&self, cell: Self::Coord) -> impl Iterator<Item = Self::Coord> + '_;

    /// The lattice degree of an unobstructed interior cell (6 on the
    /// hexagonal lattice, 4 on the square lattice). Cells with fewer
    /// in-topology neighbours are boundary cells.
    fn full_degree(&self) -> usize {
        Self::Coord::STEPS.len()
    }

    /// The bounding box `(lo, hi)` of the cells, inclusive on both
    /// [`Lattice`] axes, or `None` for an empty topology.
    fn bounds(&self) -> Option<(Self::Coord, Self::Coord)> {
        let (x0, y0, x1, y1) = self
            .cells_iter()
            .map(Lattice::axes)
            .fold(None, |b, (x, y)| {
                let (x0, y0, x1, y1) = b.unwrap_or((x, y, x, y));
                Some((x0.min(x), y0.min(y), x1.max(x), y1.max(y)))
            })?;
        Some((Lattice::from_axes(x0, y0), Lattice::from_axes(x1, y1)))
    }

    /// In-topology degree of `cell`.
    fn degree_of(&self, cell: Self::Coord) -> usize {
        self.neighbors_of(cell).count()
    }

    /// Whether `cell` has the full complement of neighbours (i.e. is not
    /// on the topology boundary).
    fn is_interior_cell(&self, cell: Self::Coord) -> bool {
        self.degree_of(cell) == self.full_degree()
    }
}

impl Topology for Region {
    type Coord = HexCoord;

    fn cell_count(&self) -> usize {
        self.len()
    }

    fn contains_cell(&self, cell: HexCoord) -> bool {
        self.contains(cell)
    }

    fn cells_iter(&self) -> impl Iterator<Item = HexCoord> + '_ {
        self.iter()
    }

    fn neighbors_of(&self, cell: HexCoord) -> impl Iterator<Item = HexCoord> + '_ {
        self.neighbors_in(cell)
    }
}

impl Topology for SquareRegion {
    type Coord = SquareCoord;

    fn cell_count(&self) -> usize {
        self.len()
    }

    fn contains_cell(&self, cell: SquareCoord) -> bool {
        self.contains(cell)
    }

    fn cells_iter(&self) -> impl Iterator<Item = SquareCoord> + '_ {
        self.iter()
    }

    fn neighbors_of(&self, cell: SquareCoord) -> impl Iterator<Item = SquareCoord> + '_ {
        self.neighbors_in(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interior_count<T: Topology>(topo: &T) -> usize {
        topo.cells_iter()
            .filter(|c| topo.is_interior_cell(*c))
            .count()
    }

    #[test]
    fn hex_region_topology() {
        let region = Region::hexagon(HexCoord::ORIGIN, 2);
        assert_eq!(region.cell_count(), 19);
        assert_eq!(region.full_degree(), 6);
        assert!(region.contains_cell(HexCoord::ORIGIN));
        assert_eq!(region.degree_of(HexCoord::ORIGIN), 6);
        assert!(region.is_interior_cell(HexCoord::ORIGIN));
        // Interior of a radius-2 hexagon is the radius-1 hexagon.
        assert_eq!(interior_count(&region), 7);
        // Topology iteration matches the region's sorted order.
        let a: Vec<_> = region.cells_iter().collect();
        let b: Vec<_> = region.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn square_region_topology() {
        let region = SquareRegion::rect(4, 3);
        assert_eq!(region.cell_count(), 12);
        assert_eq!(region.full_degree(), 4);
        let corner = SquareCoord::new(0, 0);
        assert_eq!(region.degree_of(corner), 2);
        assert!(!region.is_interior_cell(corner));
        assert!(region.is_interior_cell(SquareCoord::new(1, 1)));
        assert_eq!(interior_count(&region), 2);
        let shifted: SquareRegion = [(-3, 4), (1, -2), (0, 0)]
            .map(|(x, y)| SquareCoord::new(x, y))
            .into_iter()
            .collect();
        assert_eq!(
            shifted.bounds(),
            Some((SquareCoord::new(-3, -2), SquareCoord::new(1, 4)))
        );
    }

    #[test]
    fn neighbors_stay_inside() {
        let region = SquareRegion::rect(3, 3);
        for c in region.cells_iter() {
            for n in region.neighbors_of(c) {
                assert!(region.contains_cell(n));
            }
        }
    }
}
