//! Square-electrode lattice, used by earlier-generation biochips.
//!
//! The fabricated multiplexed-diagnostics chip of the paper's Section 7
//! (Figure 11) uses conventional square electrodes where a droplet can move
//! in four directions. The spare-row "shifted replacement" baseline of
//! Figure 2 is also formulated on a square array.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Sub};

/// A cell position on the square lattice.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SquareCoord {
    /// Column index.
    pub x: i32,
    /// Row index.
    pub y: i32,
}

impl fmt::Debug for SquareCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sq({}, {})", self.x, self.y)
    }
}

impl fmt::Display for SquareCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// The four droplet transport directions on a square-electrode array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum SquareDir {
    /// `(0, -1)`
    North,
    /// `(0, +1)`
    South,
    /// `(+1, 0)`
    East,
    /// `(-1, 0)`
    West,
}

impl SquareDir {
    /// All four directions in a fixed order.
    pub const ALL: [SquareDir; 4] = [
        SquareDir::North,
        SquareDir::East,
        SquareDir::South,
        SquareDir::West,
    ];

    /// The `(dx, dy)` offset of this direction.
    #[must_use]
    pub const fn offset(self) -> (i32, i32) {
        match self {
            SquareDir::North => (0, -1),
            SquareDir::South => (0, 1),
            SquareDir::East => (1, 0),
            SquareDir::West => (-1, 0),
        }
    }
}

impl SquareCoord {
    /// Creates a coordinate.
    #[must_use]
    pub const fn new(x: i32, y: i32) -> Self {
        SquareCoord { x, y }
    }

    /// The cell one step away in direction `dir`.
    #[must_use]
    pub fn step(self, dir: SquareDir) -> SquareCoord {
        let (dx, dy) = dir.offset();
        SquareCoord::new(self.x + dx, self.y + dy)
    }

    /// The four edge-adjacent cells (droplet transport neighbours).
    pub fn neighbors4(self) -> impl Iterator<Item = SquareCoord> {
        SquareDir::ALL.into_iter().map(move |d| self.step(d))
    }
}

impl Add for SquareCoord {
    type Output = SquareCoord;
    fn add(self, rhs: SquareCoord) -> SquareCoord {
        SquareCoord::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for SquareCoord {
    type Output = SquareCoord;
    fn sub(self, rhs: SquareCoord) -> SquareCoord {
        SquareCoord::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(i32, i32)> for SquareCoord {
    fn from((x, y): (i32, i32)) -> Self {
        SquareCoord::new(x, y)
    }
}

/// A finite set of square cells with deterministic iteration.
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SquareRegion {
    cells: BTreeSet<SquareCoord>,
}

impl fmt::Debug for SquareRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SquareRegion({} cells)", self.cells.len())
    }
}

impl SquareRegion {
    /// An axis-aligned rectangle `x in [0, width)`, `y in [0, height)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` would overflow `i32`.
    #[must_use]
    pub fn rect(width: u32, height: u32) -> Self {
        let w = i32::try_from(width).expect("width fits in i32");
        let h = i32::try_from(height).expect("height fits in i32");
        SquareRegion {
            cells: (0..w)
                .flat_map(|x| (0..h).map(move |y| SquareCoord::new(x, y)))
                .collect(),
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, c: SquareCoord) -> bool {
        self.cells.contains(&c)
    }

    /// Inserts a cell; returns `true` if newly added.
    pub fn insert(&mut self, c: SquareCoord) -> bool {
        self.cells.insert(c)
    }

    /// Removes a cell; returns `true` if it was present.
    pub fn remove(&mut self, c: SquareCoord) -> bool {
        self.cells.remove(&c)
    }

    /// Sorted iteration over cells.
    pub fn iter(&self) -> impl Iterator<Item = SquareCoord> + '_ {
        self.cells.iter().copied()
    }

    /// In-region 4-neighbours of a cell.
    pub fn neighbors_in(&self, c: SquareCoord) -> impl Iterator<Item = SquareCoord> + '_ {
        c.neighbors4().filter(|n| self.contains(*n))
    }
}

impl FromIterator<SquareCoord> for SquareRegion {
    fn from_iter<I: IntoIterator<Item = SquareCoord>>(iter: I) -> Self {
        SquareRegion {
            cells: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn four_neighbors_distinct() {
        let c = SquareCoord::new(2, 3);
        let n: HashSet<_> = c.neighbors4().collect();
        assert_eq!(n.len(), 4);
        for x in n {
            assert_eq!(c.x.abs_diff(x.x) + c.y.abs_diff(x.y), 1);
        }
    }

    #[test]
    fn rect_region() {
        let r = SquareRegion::rect(4, 3);
        assert_eq!(r.len(), 12);
        assert!(r.contains(SquareCoord::new(3, 2)));
        assert!(!r.contains(SquareCoord::new(4, 0)));
        assert_eq!(r.neighbors_in(SquareCoord::new(0, 0)).count(), 2);
        assert_eq!(r.neighbors_in(SquareCoord::new(1, 1)).count(), 4);
    }

    #[test]
    fn arithmetic() {
        let a = SquareCoord::new(1, 2) + SquareCoord::new(3, 4);
        assert_eq!(a, SquareCoord::new(4, 6));
        assert_eq!(a - SquareCoord::new(1, 2), SquareCoord::new(3, 4));
        assert_eq!(SquareCoord::from((5, 6)), SquareCoord::new(5, 6));
    }
}
