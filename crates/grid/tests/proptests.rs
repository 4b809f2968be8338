//! Property-based tests for the lattice substrate.

use dmfb_grid::{HexCoord, HexDir, Region, Topology};
use proptest::prelude::*;

fn arb_coord() -> impl Strategy<Value = HexCoord> {
    (-50i32..50, -50i32..50).prop_map(|(q, r)| HexCoord::new(q, r))
}

fn arb_dir() -> impl Strategy<Value = HexDir> {
    prop::sample::select(HexDir::ALL.to_vec())
}

proptest! {
    /// distance(a, b) == distance(b, a) and distance(a, a) == 0.
    #[test]
    fn distance_symmetric(a in arb_coord(), b in arb_coord()) {
        prop_assert_eq!(a.distance(b), b.distance(a));
        prop_assert_eq!(a.distance(a), 0);
    }

    /// Triangle inequality for the hex metric.
    #[test]
    fn distance_triangle(a in arb_coord(), b in arb_coord(), c in arb_coord()) {
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c));
    }

    /// A unit step changes distance by exactly one from the origin of the step.
    #[test]
    fn step_moves_by_one(a in arb_coord(), d in arb_dir()) {
        let b = a.step(d);
        prop_assert_eq!(a.distance(b), 1);
    }

    /// Translation invariance of the metric.
    #[test]
    fn distance_translation_invariant(a in arb_coord(), b in arb_coord(), t in arb_coord()) {
        prop_assert_eq!((a + t).distance(b + t), a.distance(b));
    }

    /// Rings partition the filled hexagon.
    #[test]
    fn ring_cells_at_radius(c in arb_coord(), radius in 0u32..6) {
        let ring: Vec<_> = c.ring(radius).collect();
        let expected = if radius == 0 { 1 } else { (6 * radius) as usize };
        prop_assert_eq!(ring.len(), expected);
        for x in ring {
            prop_assert_eq!(c.distance(x), radius);
        }
    }

    /// Parallelogram regions are connected and have the right size.
    #[test]
    fn parallelogram_connected(w in 1u32..12, h in 1u32..12) {
        let region = Region::parallelogram(w, h);
        prop_assert_eq!(region.len(), (w * h) as usize);
        prop_assert!(region.is_connected());
    }

    /// The region's topology (the adjacency the defect injectors walk)
    /// mirrors geometric adjacency, is symmetric and satisfies the
    /// handshake lemma.
    #[test]
    fn graph_handshake(w in 1u32..8, h in 1u32..8) {
        let region = Region::parallelogram(w, h);
        let mut degree_sum = 0usize;
        for a in region.cells_iter() {
            for b in region.neighbors_of(a) {
                prop_assert!(region.contains_cell(b));
                prop_assert!(a.is_adjacent(b));
                prop_assert!(region.neighbors_of(b).any(|c| c == a));
                degree_sum += 1;
            }
        }
        prop_assert_eq!(degree_sum % 2, 0);
    }

    /// The boundary of a filled hexagon is its outer ring: the interior
    /// is the hexagon one radius smaller.
    #[test]
    fn boundary_interior_partition(radius in 0u32..6) {
        let region = Region::hexagon(HexCoord::ORIGIN, radius);
        let b = region.iter().filter(|&c| region.is_boundary(c).unwrap()).count();
        let inner = if radius == 0 { 0 } else { Region::hexagon(HexCoord::ORIGIN, radius - 1).len() };
        prop_assert_eq!(b + inner, region.len());
    }
}
