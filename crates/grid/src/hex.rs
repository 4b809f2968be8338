//! Axial coordinates on the hexagonal lattice.
//!
//! We use *axial* coordinates `(q, r)` with the implicit third cube
//! coordinate `s = -q - r`. The six transport directions correspond to the
//! six electrodes adjacent to a hexagonal cell, matching Figure 1(b) of the
//! paper: a droplet can be moved to an adjacent cell in six possible
//! directions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A cell position on the hexagonal lattice in axial coordinates.
///
/// The lattice is unbounded; finite biochips are modelled by
/// [`Region`](crate::Region). Coordinates are `i32`, which is ample for any
/// fabricable electrode array.
///
/// # Example
///
/// ```
/// use dmfb_grid::{HexCoord, HexDir};
///
/// let a = HexCoord::new(2, -1);
/// let b = a.step(HexDir::SouthEast);
/// assert_eq!(b, HexCoord::new(2, 0));
/// assert_eq!(a.distance(b), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct HexCoord {
    /// Axial column coordinate.
    pub q: i32,
    /// Axial row coordinate.
    pub r: i32,
}

impl fmt::Debug for HexCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hex({}, {})", self.q, self.r)
    }
}

impl fmt::Display for HexCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.q, self.r)
    }
}

/// The six droplet transport directions on a hexagonal-electrode array.
///
/// Direction names follow a "pointy-top" hex layout where rows of constant
/// `r` render as horizontal rows shifted half a cell per row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum HexDir {
    /// `(+1, 0)`
    East,
    /// `(-1, 0)`
    West,
    /// `(+1, -1)`
    NorthEast,
    /// `(0, -1)`
    NorthWest,
    /// `(0, +1)`
    SouthEast,
    /// `(-1, +1)`
    SouthWest,
}

impl HexDir {
    /// All six directions in a fixed, deterministic order.
    pub const ALL: [HexDir; 6] = [
        HexDir::East,
        HexDir::NorthEast,
        HexDir::NorthWest,
        HexDir::West,
        HexDir::SouthWest,
        HexDir::SouthEast,
    ];

    /// The axial `(dq, dr)` offset of this direction.
    #[must_use]
    pub const fn offset(self) -> (i32, i32) {
        match self {
            HexDir::East => (1, 0),
            HexDir::West => (-1, 0),
            HexDir::NorthEast => (1, -1),
            HexDir::NorthWest => (0, -1),
            HexDir::SouthEast => (0, 1),
            HexDir::SouthWest => (-1, 1),
        }
    }
}

impl HexCoord {
    /// The lattice origin `(0, 0)`.
    pub const ORIGIN: HexCoord = HexCoord { q: 0, r: 0 };

    /// Creates a coordinate from axial components.
    #[must_use]
    pub const fn new(q: i32, r: i32) -> Self {
        HexCoord { q, r }
    }

    /// The implicit third cube coordinate `s = -q - r`.
    #[must_use]
    pub const fn s(self) -> i32 {
        -self.q - self.r
    }

    /// The cell one step away in direction `dir`.
    #[must_use]
    pub fn step(self, dir: HexDir) -> HexCoord {
        let (dq, dr) = dir.offset();
        HexCoord::new(self.q + dq, self.r + dr)
    }

    /// The six physically adjacent cells, in [`HexDir::ALL`] order.
    ///
    /// Physical adjacency is what *microfluidic locality* is about: a
    /// droplet — and hence the function of a faulty cell — can only move to
    /// one of these six positions.
    pub fn neighbors(self) -> impl Iterator<Item = HexCoord> {
        HexDir::ALL.into_iter().map(move |d| self.step(d))
    }

    /// Whether `other` is one of the six adjacent cells.
    #[must_use]
    pub fn is_adjacent(self, other: HexCoord) -> bool {
        self != other && self.distance(other) == 1
    }

    /// Hex-lattice (cube) distance: the minimum number of droplet moves
    /// between two cells on an unobstructed array.
    ///
    /// ```
    /// use dmfb_grid::HexCoord;
    /// assert_eq!(HexCoord::new(0, 0).distance(HexCoord::new(2, -1)), 2);
    /// ```
    #[must_use]
    pub fn distance(self, other: HexCoord) -> u32 {
        let dq = self.q - other.q;
        let dr = self.r - other.r;
        let ds = self.s() - other.s();
        ((dq.abs() + dr.abs() + ds.abs()) / 2) as u32
    }

    /// The ring of cells at exactly `radius` steps from `self`.
    ///
    /// `radius == 0` yields just `self`. For `radius >= 1` the ring has
    /// `6 * radius` cells, returned in contiguous walk order starting from
    /// the cell `radius` steps to the west.
    #[must_use]
    pub fn ring(self, radius: u32) -> Ring {
        Ring::new(self, radius)
    }

    /// All cells within `radius` steps (a filled hexagon), in spiral order
    /// from the centre outwards. Contains `1 + 3*radius*(radius+1)` cells.
    pub fn spiral(self, radius: u32) -> impl Iterator<Item = HexCoord> {
        (0..=radius).flat_map(move |k| self.ring(k))
    }
}

impl Add for HexCoord {
    type Output = HexCoord;
    fn add(self, rhs: HexCoord) -> HexCoord {
        HexCoord::new(self.q + rhs.q, self.r + rhs.r)
    }
}

impl Sub for HexCoord {
    type Output = HexCoord;
    fn sub(self, rhs: HexCoord) -> HexCoord {
        HexCoord::new(self.q - rhs.q, self.r - rhs.r)
    }
}

impl Neg for HexCoord {
    type Output = HexCoord;
    fn neg(self) -> HexCoord {
        HexCoord::new(-self.q, -self.r)
    }
}

impl From<(i32, i32)> for HexCoord {
    fn from((q, r): (i32, i32)) -> Self {
        HexCoord::new(q, r)
    }
}

/// Iterator over the cells of a hexagonal ring; see [`HexCoord::ring`].
#[derive(Clone, Debug)]
pub struct Ring {
    next: Option<HexCoord>,
    dir_idx: usize,
    steps_in_dir: u32,
    radius: u32,
    emitted: u64,
    total: u64,
}

/// Walk order for rings: start west of the centre, then walk the six sides.
const RING_WALK: [HexDir; 6] = [
    HexDir::NorthEast,
    HexDir::East,
    HexDir::SouthEast,
    HexDir::SouthWest,
    HexDir::West,
    HexDir::NorthWest,
];

impl Ring {
    fn new(center: HexCoord, radius: u32) -> Self {
        let total = if radius == 0 {
            1
        } else {
            u64::from(radius) * 6
        };
        let start = if radius == 0 {
            center
        } else {
            let (dq, dr) = HexDir::West.offset();
            let n = radius as i32;
            HexCoord::new(center.q + dq * n, center.r + dr * n)
        };
        Ring {
            next: Some(start),
            dir_idx: 0,
            steps_in_dir: 0,
            radius,
            emitted: 0,
            total,
        }
    }
}

impl Iterator for Ring {
    type Item = HexCoord;

    fn next(&mut self) -> Option<HexCoord> {
        if self.emitted >= self.total {
            return None;
        }
        let current = self.next?;
        self.emitted += 1;
        if self.emitted < self.total {
            let mut cur = current;
            let dir = RING_WALK[self.dir_idx];
            cur = cur.step(dir);
            self.steps_in_dir += 1;
            if self.steps_in_dir == self.radius {
                self.steps_in_dir = 0;
                self.dir_idx += 1;
            }
            self.next = Some(cur);
        } else {
            self.next = None;
        }
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.emitted) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Ring {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn six_distinct_neighbors() {
        let c = HexCoord::new(3, -2);
        let n: HashSet<_> = c.neighbors().collect();
        assert_eq!(n.len(), 6);
        assert!(!n.contains(&c));
        for x in &n {
            assert_eq!(c.distance(*x), 1);
            assert!(c.is_adjacent(*x));
        }
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        let pts = [
            HexCoord::new(0, 0),
            HexCoord::new(3, -1),
            HexCoord::new(-2, 4),
            HexCoord::new(5, 5),
        ];
        for a in pts {
            assert_eq!(a.distance(a), 0);
            for b in pts {
                assert_eq!(a.distance(b), b.distance(a));
                for c in pts {
                    assert!(a.distance(c) <= a.distance(b) + b.distance(c));
                }
            }
        }
    }

    #[test]
    fn ring_sizes_and_radii() {
        let c = HexCoord::new(1, 1);
        assert_eq!(c.ring(0).collect::<Vec<_>>(), vec![c]);
        for radius in 1..=4u32 {
            let ring: Vec<_> = c.ring(radius).collect();
            assert_eq!(ring.len(), (6 * radius) as usize);
            let set: HashSet<_> = ring.iter().copied().collect();
            assert_eq!(set.len(), ring.len(), "ring cells must be distinct");
            for x in &ring {
                assert_eq!(c.distance(*x), radius);
            }
            // Walk order: consecutive ring cells are adjacent, and the ring closes.
            for w in ring.windows(2) {
                assert!(w[0].is_adjacent(w[1]));
            }
            assert!(ring[ring.len() - 1].is_adjacent(ring[0]));
        }
    }

    #[test]
    fn spiral_is_filled_hexagon() {
        let c = HexCoord::ORIGIN;
        let cells: Vec<_> = c.spiral(3).collect();
        assert_eq!(cells.len(), 1 + 3 * 3 * 4);
        let set: HashSet<_> = cells.iter().copied().collect();
        assert_eq!(set.len(), cells.len());
        for x in &cells {
            assert!(c.distance(*x) <= 3);
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = HexCoord::new(1, 2);
        let b = HexCoord::new(-3, 5);
        assert_eq!(a + b, HexCoord::new(-2, 7));
        assert_eq!(a - b, HexCoord::new(4, -3));
        assert_eq!(-a, HexCoord::new(-1, -2));
        assert_eq!(HexCoord::from((1, 2)), a);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let a = HexCoord::new(0, 0);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }
}
