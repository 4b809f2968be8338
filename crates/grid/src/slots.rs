//! Dense slot indexing over a lattice region's padded bounding box.

use crate::{HexCoord, HexDir, SquareCoord, SquareDir, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A two-axis lattice coordinate with a fixed neighbour-offset table, for
/// [`SlotIndex`]. `Ord` must order cells by the major axis, then the
/// minor one, so that ascending slot order is sorted cell order.
pub trait Lattice: Copy + Ord + fmt::Debug + Send + Sync {
    /// The `(major, minor)` axes of the cell.
    fn axes(self) -> (i32, i32);

    /// The cell at `(major, minor)`.
    fn from_axes(major: i32, minor: i32) -> Self;

    /// The `(major, minor)` offsets of the neighbours, in the lattice's
    /// neighbour order (the order `Topology::neighbors_of` yields them).
    const STEPS: &'static [(i32, i32)];
}

/// Axial `(q, r)`, six neighbours in [`HexDir::ALL`] order.
impl Lattice for HexCoord {
    fn axes(self) -> (i32, i32) {
        (self.q, self.r)
    }

    fn from_axes(q: i32, r: i32) -> Self {
        HexCoord::new(q, r)
    }

    const STEPS: &'static [(i32, i32)] = &{
        let [a, b, c, d, e, f] = HexDir::ALL;
        [
            a.offset(),
            b.offset(),
            c.offset(),
            d.offset(),
            e.offset(),
            f.offset(),
        ]
    };
}

/// `(x, y)`, four neighbours in [`SquareDir::ALL`] order.
impl Lattice for SquareCoord {
    fn axes(self) -> (i32, i32) {
        (self.x, self.y)
    }

    fn from_axes(x: i32, y: i32) -> Self {
        SquareCoord::new(x, y)
    }

    const STEPS: &'static [(i32, i32)] = &{
        let [n, e, s, w] = SquareDir::ALL;
        [n.offset(), e.offset(), s.offset(), w.offset()]
    };
}

/// A dense index from lattice cells to array slots: one slot per cell of
/// a bounding box, padded by a one-cell closed border.
///
/// Slots are laid out **major-axis first** (q-major on the hex lattice,
/// x-major on the square one), so ascending slot order is `Ord` order and
/// a pass over a slot array visits cells as a sorted region does. The
/// border puts every neighbour of a non-border slot a fixed offset away
/// ([`SlotIndex::neighbors`]), with no bounds check. Payload arrays
/// (`Vec<T>` of [`SlotIndex::slot_count`] entries) live with the caller,
/// one `T` per slot of the padded box, so a sparse region spread over a
/// wide box pays for the whole box.
///
/// # Example
///
/// ```
/// use dmfb_grid::{HexCoord, HexDir, Region, SlotIndex};
///
/// let region = Region::hexagon(HexCoord::ORIGIN, 2);
/// let index = SlotIndex::covering(&region);
/// let slot = index.slot(HexCoord::ORIGIN).unwrap();
/// assert_eq!(index.cell(slot), HexCoord::ORIGIN);
/// let east = index.neighbors(slot).next().unwrap();
/// assert_eq!(index.cell(east), HexCoord::ORIGIN.step(HexDir::East));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotIndex<C = HexCoord> {
    /// The cell stored in slot 0 (one step outside the box's low corner,
    /// on the closed border).
    origin: C,
    /// Slots per column: the box's minor extent plus the two border rows.
    stride: i32,
    /// Columns: the box's major extent plus the two border columns.
    columns: i32,
}

impl<C: Lattice> SlotIndex<C> {
    /// The index over `topo`'s bounding box (a 2 × 2 box of border slots
    /// for an empty topology).
    ///
    /// # Panics
    ///
    /// Panics if the padded box holds more than `i32::MAX` slots.
    #[must_use]
    pub fn covering<T: Topology<Coord = C>>(topo: &T) -> Self {
        let (lo, hi) = topo
            .bounds()
            .unwrap_or((C::from_axes(0, 0), C::from_axes(-1, -1)));
        SlotIndex::spanning(lo, hi)
    }

    /// The index over the box from `lo` to `hi`, both axes inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the padded box holds more than `i32::MAX` slots or its
    /// border leaves the `i32` coordinate range.
    #[must_use]
    pub fn spanning(lo: C, hi: C) -> Self {
        let padded = |lo: i32, hi: i32| {
            hi.checked_add(1)?;
            Some((lo.checked_sub(1)?, hi.checked_sub(lo)?.checked_add(3)?))
        };
        let ((x0, y0), (x1, y1)) = (lo.axes(), hi.axes());
        let ((x0, columns), (y0, stride)) = padded(x0, x1)
            .zip(padded(y0, y1))
            .filter(|&((_, columns), (_, stride))| columns.checked_mul(stride).is_some())
            .expect("region bounding box fits in i32::MAX slots");
        SlotIndex {
            origin: C::from_axes(x0, y0),
            stride,
            columns,
        }
    }

    /// Number of slots, border included.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        (self.columns * self.stride) as usize
    }

    /// The slot holding `cell`, or `None` outside the padded box.
    #[must_use]
    pub fn slot(&self, cell: C) -> Option<usize> {
        let ((x, y), (x0, y0)) = (cell.axes(), self.origin.axes());
        let x = x.checked_sub(x0)?;
        let y = y.checked_sub(y0)?;
        ((0..self.columns).contains(&x) && (0..self.stride).contains(&y))
            .then(|| (x * self.stride + y) as usize)
    }

    /// The cell stored in `slot`.
    #[must_use]
    pub fn cell(&self, slot: usize) -> C {
        let slot = slot as i32;
        let (x0, y0) = self.origin.axes();
        C::from_axes(x0 + slot / self.stride, y0 + slot % self.stride)
    }

    /// The neighbour slots of `slot`, in the lattice's neighbour order
    /// ([`Lattice::STEPS`]). Only meaningful for a slot off the border
    /// (every cell of the covered box); a border slot's neighbours may
    /// wrap or leave the index.
    pub fn neighbors(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        C::STEPS
            .iter()
            .map(move |&(dx, dy)| slot.wrapping_add_signed((dx * self.stride + dy) as isize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Region, SquareRegion};

    fn square_block(lo: SquareCoord, width: i32, height: i32) -> SquareRegion {
        (0..width)
            .flat_map(|x| (0..height).map(move |y| SquareCoord::new(lo.x + x, lo.y + y)))
            .collect()
    }

    /// An empty topology covers the 2 × 2 border box below the origin.
    fn check_empty<T: Topology + Default>() {
        let index = SlotIndex::covering(&T::default());
        assert_eq!(index.slot_count(), 4);
        assert_eq!(index.slot(T::Coord::from_axes(-1, -1)), Some(0));
        assert_eq!(index.slot(T::Coord::from_axes(1, 1)), None);
    }

    #[test]
    fn empty_region_is_all_border() {
        check_empty::<Region>();
        check_empty::<SquareRegion>();
    }

    fn check_round_trip<C: Lattice>() {
        let index = SlotIndex::spanning(C::from_axes(-3, 2), C::from_axes(4, 5));
        assert_eq!(index.slot_count(), 10 * 6);
        // Major axis first: one step along it is a whole column of slots.
        assert_eq!(index.slot(C::from_axes(-4, 1)), Some(0));
        assert_eq!(index.slot(C::from_axes(-3, 1)), Some(6));
        for slot in 0..index.slot_count() {
            assert_eq!(index.slot(index.cell(slot)), Some(slot));
        }
        assert_eq!(index.slot(C::from_axes(6, 3)), None);
        assert_eq!(index.slot(C::from_axes(0, 7)), None);
        assert_eq!(index.slot(C::from_axes(-5, 3)), None);
    }

    #[test]
    fn cell_and_slot_round_trip() {
        check_round_trip::<HexCoord>();
        check_round_trip::<SquareCoord>();
    }

    /// Ascending slots are ascending cells, and the topology's own cells
    /// come out of a slot pass in its sorted order.
    fn check_slot_order<T: Topology>(topo: &T) {
        let index = SlotIndex::covering(topo);
        let cells: Vec<T::Coord> = (0..index.slot_count()).map(|s| index.cell(s)).collect();
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "slots are not in Ord order"
        );
        let inside: Vec<T::Coord> = cells
            .into_iter()
            .filter(|c| topo.contains_cell(*c))
            .collect();
        assert_eq!(inside, topo.cells_iter().collect::<Vec<_>>());
    }

    #[test]
    fn slot_order_is_cell_order() {
        check_slot_order(&Region::hexagon(HexCoord::ORIGIN, 4));
        check_slot_order(&square_block(SquareCoord::new(-4, -9), 7, 5));
    }

    /// Slot neighbours are the lattice's full neighbour list (`full`) at
    /// every cell, border-slot neighbours of boundary cells included, and
    /// the topology's own neighbours at an interior cell.
    fn check_neighbors<T, I>(topo: &T, low_corner: T::Coord, full: impl Fn(T::Coord) -> I)
    where
        T: Topology,
        I: Iterator<Item = T::Coord>,
    {
        let index = SlotIndex::covering(topo);
        assert_eq!(index.slot(low_corner), Some(0));
        let mut interior = 0;
        for cell in topo.cells_iter() {
            let slot = index.slot(cell).expect("topology cells have slots");
            assert_eq!(index.cell(slot), cell);
            let via_slots: Vec<T::Coord> = index.neighbors(slot).map(|n| index.cell(n)).collect();
            assert_eq!(via_slots, full(cell).collect::<Vec<_>>(), "at {cell:?}");
            if topo.is_interior_cell(cell) {
                interior += 1;
                assert_eq!(via_slots, topo.neighbors_of(cell).collect::<Vec<_>>());
            }
        }
        assert!(interior > 0, "the check needs interior cells");
    }

    #[test]
    fn neighbor_offsets_match_hex_neighbors() {
        // A hexagon at the origin spans negative coordinates on both axes.
        check_neighbors(
            &Region::hexagon(HexCoord::ORIGIN, 3),
            HexCoord::new(-4, -4),
            HexCoord::neighbors,
        );
    }

    #[test]
    fn neighbor_offsets_match_square_neighbors() {
        // A holed block at negative coordinates on both axes.
        let mut holed = square_block(SquareCoord::new(-6, -3), 6, 5);
        holed.remove(SquareCoord::new(-4, -1));
        check_neighbors(&holed, SquareCoord::new(-7, -4), SquareCoord::neighbors4);
    }

    fn oversized<C: Lattice>() {
        let _ = SlotIndex::spanning(C::from_axes(0, 0), C::from_axes(1 << 16, 1 << 16));
    }

    #[test]
    #[should_panic(expected = "fits in i32::MAX slots")]
    fn oversized_box_panics() {
        oversized::<HexCoord>();
    }

    #[test]
    #[should_panic(expected = "fits in i32::MAX slots")]
    fn oversized_square_box_panics() {
        oversized::<SquareCoord>();
    }
}
