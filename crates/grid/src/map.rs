//! Per-cell payload storage over a region.

use crate::{HexCoord, Region};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A map from cells to values with deterministic iteration order.
///
/// `CellMap` is the workhorse container for anything that annotates an
/// array: cell roles (primary/spare), fault states, droplet occupancy,
/// parametric deviations. It is backed by a `BTreeMap` so that iteration is
/// sorted — Monte-Carlo experiments must be bit-for-bit reproducible given a
/// seed, which rules out randomized iteration order.
///
/// The map is generic over the cell coordinate type `C` so the same storage
/// serves the hexagonal lattice ([`HexCoord`], the default) and the square
/// lattice ([`crate::SquareCoord`]).
///
/// # Example
///
/// ```
/// use dmfb_grid::{CellMap, HexCoord};
///
/// let mut occupancy: CellMap<bool> = CellMap::new();
/// occupancy.insert(HexCoord::new(0, 0), true);
/// assert_eq!(occupancy.get(HexCoord::new(0, 0)), Some(&true));
/// assert_eq!(occupancy.get(HexCoord::new(1, 0)), None);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellMap<T, C: Ord + Copy = HexCoord> {
    inner: BTreeMap<C, T>,
}

impl<T, C: Ord + Copy> Default for CellMap<T, C> {
    fn default() -> Self {
        CellMap {
            inner: BTreeMap::new(),
        }
    }
}

impl<T: fmt::Debug, C: Ord + Copy + fmt::Debug> fmt::Debug for CellMap<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.inner.iter()).finish()
    }
}

impl<T, C: Ord + Copy> CellMap<T, C> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        CellMap {
            inner: BTreeMap::new(),
        }
    }

    /// Number of mapped cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no cells are mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The value at `cell`, if mapped.
    #[must_use]
    pub fn get(&self, cell: C) -> Option<&T> {
        self.inner.get(&cell)
    }

    /// Whether `cell` is mapped.
    #[must_use]
    pub fn contains(&self, cell: C) -> bool {
        self.inner.contains_key(&cell)
    }

    /// Maps `cell` to `value`, returning the previous value if any.
    pub fn insert(&mut self, cell: C, value: T) -> Option<T> {
        self.inner.insert(cell, value)
    }

    /// Iterates `(cell, &value)` in sorted cell order.
    pub fn iter(&self) -> impl Iterator<Item = (C, &T)> {
        self.inner.iter().map(|(c, v)| (*c, v))
    }

    /// Iterates the mapped cells in sorted order.
    pub fn cells(&self) -> impl Iterator<Item = C> + '_ {
        self.inner.keys().copied()
    }

    /// The cells whose value satisfies `pred`, in sorted order.
    pub fn cells_where<'a>(
        &'a self,
        mut pred: impl FnMut(&T) -> bool + 'a,
    ) -> impl Iterator<Item = C> + 'a {
        self.inner
            .iter()
            .filter(move |(_, v)| pred(v))
            .map(|(c, _)| *c)
    }
}

impl<T> CellMap<T, HexCoord> {
    /// Fills every cell of `region` with values produced by `f`.
    pub fn from_region_with(region: &Region, mut f: impl FnMut(HexCoord) -> T) -> Self {
        CellMap {
            inner: region.iter().map(|c| (c, f(c))).collect(),
        }
    }
}

impl<T, C: Ord + Copy> FromIterator<(C, T)> for CellMap<T, C> {
    fn from_iter<I: IntoIterator<Item = (C, T)>>(iter: I) -> Self {
        CellMap {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<T, C: Ord + Copy> Extend<(C, T)> for CellMap<T, C> {
    fn extend<I: IntoIterator<Item = (C, T)>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl<'a, T, C: Ord + Copy> IntoIterator for &'a CellMap<T, C> {
    type Item = (&'a C, &'a T);
    type IntoIter = std::collections::btree_map::Iter<'a, C, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<T, C: Ord + Copy> IntoIterator for CellMap<T, C> {
    type Item = (C, T);
    type IntoIter = std::collections::btree_map::IntoIter<C, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SquareCoord;

    #[test]
    fn basic_crud() {
        let mut m = CellMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(HexCoord::new(0, 0), 1), None);
        assert_eq!(m.insert(HexCoord::new(0, 0), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(HexCoord::new(0, 0)), Some(&2));
        assert!(m.get(HexCoord::new(1, 0)).is_none());
    }

    #[test]
    fn from_region_with_covers_region() {
        let region = Region::parallelogram(3, 3);
        let m = CellMap::from_region_with(&region, |c| c.q + c.r);
        assert_eq!(m.len(), region.len());
        for c in region.iter() {
            assert_eq!(m.get(c), Some(&(c.q + c.r)));
        }
    }

    #[test]
    fn cells_where_filters() {
        let region = Region::parallelogram(4, 1);
        let m = CellMap::from_region_with(&region, |c| c.q % 2 == 0);
        let even: Vec<_> = m.cells_where(|v| *v).collect();
        assert_eq!(even, vec![HexCoord::new(0, 0), HexCoord::new(2, 0)]);
    }

    #[test]
    fn iteration_sorted() {
        let mut m = CellMap::new();
        m.insert(HexCoord::new(5, 0), "b");
        m.insert(HexCoord::new(0, 0), "a");
        let cells: Vec<_> = m.cells().collect();
        assert_eq!(cells, vec![HexCoord::new(0, 0), HexCoord::new(5, 0)]);
        let vals: Vec<_> = m.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec!["a", "b"]);
    }

    #[test]
    fn collect_and_extend() {
        let mut m: CellMap<i32> = [(HexCoord::new(0, 0), 1)].into_iter().collect();
        m.extend([(HexCoord::new(1, 0), 2)]);
        assert_eq!(m.len(), 2);
        let pairs: Vec<_> = m.into_iter().collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn square_coordinates_work_too() {
        let mut m: CellMap<u8, SquareCoord> = CellMap::new();
        m.insert(SquareCoord::new(1, 2), 7);
        assert_eq!(m.get(SquareCoord::new(1, 2)), Some(&7));
        assert!(m.contains(SquareCoord::new(1, 2)));
        assert_eq!(m.cells().count(), 1);
    }
}
