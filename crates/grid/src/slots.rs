//! Dense slot indexing over a hexagonal region's axial bounding box.

use crate::{HexCoord, HexDir, Region};
use serde::{Deserialize, Serialize};

/// A dense index from hexagonal cells to array slots: one slot per cell
/// of an axial bounding box, padded by a one-cell closed border.
///
/// Slots are laid out **q-major** (`slot = column * stride + row`), so
/// ascending slot order is [`HexCoord`]'s derived `Ord` order and a pass
/// over a slot array visits cells exactly as a sorted [`Region`] does.
/// The border means every neighbour of a non-border slot is a fixed
/// offset away ([`SlotIndex::neighbors`]), with no bounds check. Payload
/// arrays (`Vec<T>` of [`SlotIndex::slot_count`] entries) live with the
/// caller; the index only does the arithmetic. Their memory is one `T`
/// per slot of the padded box, so a sparse region spread over a wide box
/// pays for the whole box.
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
pub struct SlotIndex {
    /// The cell stored in slot 0 (one step outside the box's low corner,
    /// on the closed border).
    origin: HexCoord,
    /// Slots per column: the box's `r` extent plus the two border rows.
    stride: i32,
    /// Columns: the box's `q` extent plus the two border columns.
    columns: i32,
    /// Slot offsets of the six neighbours, in [`HexDir::ALL`] order.
    steps: [isize; 6],
}

impl SlotIndex {
    /// The index over `region`'s axial bounding box (a 2 × 2 box of
    /// border slots for an empty region).
    ///
    /// # Panics
    ///
    /// Panics if the padded box holds more than `i32::MAX` slots.
    #[must_use]
    pub fn covering(region: &Region) -> Self {
        let (lo, hi) = region
            .bounds()
            .unwrap_or((HexCoord::ORIGIN, HexCoord::new(-1, -1)));
        SlotIndex::spanning(lo, hi)
    }

    /// The index over the axial box `lo.q..=hi.q` × `lo.r..=hi.r`.
    ///
    /// # Panics
    ///
    /// Panics if the padded box holds more than `i32::MAX` slots or its
    /// border leaves the `i32` coordinate range.
    #[must_use]
    pub fn spanning(lo: HexCoord, hi: HexCoord) -> Self {
        let padded = |lo: i32, hi: i32| {
            hi.checked_add(1)?;
            Some((lo.checked_sub(1)?, hi.checked_sub(lo)?.checked_add(3)?))
        };
        let ((q0, columns), (r0, stride)) = padded(lo.q, hi.q)
            .zip(padded(lo.r, hi.r))
            .filter(|&((_, columns), (_, stride))| columns.checked_mul(stride).is_some())
            .expect("region bounding box fits in i32::MAX slots");
        SlotIndex {
            origin: HexCoord::new(q0, r0),
            stride,
            columns,
            steps: HexDir::ALL.map(|d| {
                let (dq, dr) = d.offset();
                (dq * stride + dr) as isize
            }),
        }
    }

    /// Number of slots, border included.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        (self.columns * self.stride) as usize
    }

    /// The slot holding `cell`, or `None` outside the padded box.
    #[must_use]
    pub fn slot(&self, cell: HexCoord) -> Option<usize> {
        let q = cell.q.checked_sub(self.origin.q)?;
        let r = cell.r.checked_sub(self.origin.r)?;
        ((0..self.columns).contains(&q) && (0..self.stride).contains(&r))
            .then(|| (q * self.stride + r) as usize)
    }

    /// The cell stored in `slot`.
    #[must_use]
    pub fn cell(&self, slot: usize) -> HexCoord {
        let slot = slot as i32;
        HexCoord::new(
            self.origin.q + slot / self.stride,
            self.origin.r + slot % self.stride,
        )
    }

    /// The six neighbour slots of `slot`, in [`HexDir::ALL`] order. Only
    /// meaningful for a slot off the border (every cell of the covered
    /// box); a border slot's neighbours may wrap or leave the index.
    pub fn neighbors(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().map(move |&d| slot.wrapping_add_signed(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_region_is_all_border() {
        let index = SlotIndex::covering(&Region::new());
        assert_eq!(index.slot_count(), 4);
        assert_eq!(index.slot(HexCoord::new(-1, -1)), Some(0));
        assert_eq!(index.slot(HexCoord::new(1, 1)), None);
    }

    #[test]
    fn cell_and_slot_round_trip() {
        let index = SlotIndex::spanning(HexCoord::new(-3, 2), HexCoord::new(4, 5));
        assert_eq!(index.slot_count(), 10 * 6);
        for slot in 0..index.slot_count() {
            assert_eq!(index.slot(index.cell(slot)), Some(slot));
        }
        assert_eq!(index.slot(HexCoord::new(6, 3)), None);
        assert_eq!(index.slot(HexCoord::new(0, 7)), None);
    }

    #[test]
    fn slot_order_is_cell_order() {
        let region = Region::hexagon(HexCoord::ORIGIN, 4);
        let index = SlotIndex::covering(&region);
        let cells: Vec<HexCoord> = (0..index.slot_count()).map(|s| index.cell(s)).collect();
        assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "slots are not q-major"
        );
        let inside: Vec<HexCoord> = cells.into_iter().filter(|c| region.contains(*c)).collect();
        assert_eq!(inside, region.iter().collect::<Vec<_>>());
    }

    #[test]
    fn neighbor_offsets_match_hex_neighbors() {
        // A hexagon at the origin spans negative coordinates on both axes.
        let region = Region::hexagon(HexCoord::ORIGIN, 3);
        let index = SlotIndex::covering(&region);
        assert_eq!(index.slot(HexCoord::new(-4, -4)), Some(0));
        assert_eq!(index.slot(HexCoord::new(-3, -4)), Some(9));
        for cell in region.iter() {
            let slot = index.slot(cell).expect("region cells have slots");
            assert_eq!(index.cell(slot), cell);
            let via_slots: Vec<HexCoord> = index.neighbors(slot).map(|n| index.cell(n)).collect();
            assert_eq!(via_slots, cell.neighbors().collect::<Vec<_>>(), "at {cell}");
        }
    }

    #[test]
    #[should_panic(expected = "fits in i32::MAX slots")]
    fn oversized_box_panics() {
        let _ = SlotIndex::spanning(HexCoord::new(0, 0), HexCoord::new(1 << 16, 1 << 16));
    }
}
