//! Hexagonal and square lattice geometry for digital microfluidic biochips.
//!
//! Digital microfluidics-based biochips (DMFBs) manipulate droplets over a
//! two-dimensional array of electrodes. The latest generation of biochips
//! studied by Su, Chakrabarty and Pamula (DATE 2005) uses *hexagonal*
//! electrodes, where a droplet can move to an adjacent cell in six possible
//! directions; earlier fabricated chips used square electrodes with four
//! neighbours.
//!
//! This crate provides the geometric substrate everything else is built on:
//!
//! * [`HexCoord`] — axial coordinates on the hexagonal lattice, with the six
//!   [`HexDir`] transport directions, distances, rings, spirals and lines.
//! * [`SquareCoord`] — integer coordinates on the square lattice with
//!   4-neighbour ([`SquareDir`]) adjacency.
//! * [`Region`] — a finite set of hexagonal cells (the biochip outline) with
//!   deterministic iteration order, boundary/interior classification and
//!   shape constructors (parallelogram, hexagon, rectangle, arbitrary sets).
//! * [`Topology`] — the abstraction over both lattices (cell iteration,
//!   membership, neighbour iteration) that redundancy schemes and the fast
//!   reconfiguration engine are generic over.
//! * [`CellMap`] — per-cell payload storage over a region, generic over the
//!   cell coordinate type.
//! * [`SlotIndex`] — dense slot arithmetic over a padded bounding box on
//!   either lattice ([`Lattice`]), for flat per-cell arrays with fixed
//!   neighbour offsets.
//! * [`render`] — ASCII rendering used by `dmfb render`.
//!
//! # Example
//!
//! ```
//! use dmfb_grid::{HexCoord, HexDir, Region};
//!
//! let origin = HexCoord::new(0, 0);
//! assert_eq!(origin.neighbors().count(), 6);
//! assert_eq!(origin.step(HexDir::East), HexCoord::new(1, 0));
//!
//! let chip = Region::parallelogram(4, 3);
//! assert_eq!(chip.len(), 12);
//! assert!(chip.contains(HexCoord::new(3, 2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hex;
mod map;
mod region;
pub mod render;
mod slots;
mod square;
mod topology;

pub use error::GridError;
pub use hex::{HexCoord, HexDir, Ring};
pub use map::CellMap;
pub use region::Region;
pub use slots::{Lattice, SlotIndex};
pub use square::{SquareCoord, SquareDir, SquareRegion};
pub use topology::Topology;
