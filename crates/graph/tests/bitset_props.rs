//! Property-based equivalence suite: the bitset Hopcroft–Karp matcher
//! against the augmenting-path (Kuhn) oracle, on random DTMB-shaped
//! bipartite graphs.
//!
//! "DTMB-shaped" mirrors what the simulator actually builds: left nodes
//! are faulty primary cells with at most `s ≤ 4` adjacent spares (the
//! paper's designs have `s ∈ {1, 2, 3, 4}`), and the right side is the
//! pool of fault-free spares, never larger than a few dozen for the array
//! sizes the figures sweep.

use dmfb_graph::BitsetMatcher;
use dmfb_oracle::{
    augmenting_path_matching, hall_violation, hopcroft_karp, BipartiteGraph, Matching,
};
use proptest::prelude::*;

/// A DTMB-shaped instance: per-left degree at most 4, both sides small.
fn arb_dtmb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..32, 1usize..24).prop_flat_map(|(l, r)| {
        // For each left node: a degree 0..=4 and four candidate spares
        // (of which the first `degree` are used).
        prop::collection::vec((0usize..5, (0..r, 0..r, 0..r, 0..r)), l).prop_map(move |rows| {
            let mut g = BipartiteGraph::new(rows.len(), r);
            for (a, (degree, (b0, b1, b2, b3))) in rows.into_iter().enumerate() {
                for b in [b0, b1, b2, b3].into_iter().take(degree) {
                    g.add_edge(a, b);
                }
            }
            g
        })
    })
}

proptest! {
    /// Tentpole acceptance property: the new bitset Hopcroft–Karp and the
    /// existing augmenting-path matcher agree on the maximum matching size,
    /// and the bitset result is a structurally valid matching.
    #[test]
    fn bitset_hk_agrees_with_augmenting_path(g in arb_dtmb_graph()) {
        let bg = g.to_bitset();
        let mut matcher = BitsetMatcher::new();
        let bits = matcher.max_matching(&bg);
        prop_assert_eq!(bits, augmenting_path_matching(&g).len());
        prop_assert!(Matching::from_pairs(&g, matcher.left_pairs()).is_valid(&g));
    }

    /// The bitset matcher also agrees with the adjacency-list
    /// Hopcroft–Karp, and the graph conversion preserves the edge set.
    #[test]
    fn bitset_hk_agrees_with_list_hk(g in arb_dtmb_graph()) {
        let bg = g.to_bitset();
        prop_assert_eq!(bg.edge_count(), g.edge_count());
        for (a, b) in g.edges() {
            prop_assert!(bg.contains_edge(a, b));
        }
        prop_assert_eq!(BitsetMatcher::new().max_matching(&bg), hopcroft_karp(&g).len());
    }

    /// The early-exit feasibility path answers exactly "matching size
    /// equals left count", and a `hall_infeasible` certificate is never
    /// issued for a feasible instance.
    #[test]
    fn covers_all_left_matches_full_solve(g in arb_dtmb_graph()) {
        let bg = g.to_bitset();
        let mut matcher = BitsetMatcher::new();
        let covered = matcher.covers_all_left(&bg);
        let size = augmenting_path_matching(&g).len();
        prop_assert_eq!(covered, size == g.left_count());
        if bg.hall_infeasible() {
            prop_assert!(!covered);
        }
    }

    /// Scratch reuse never changes answers: solving a second, different
    /// instance with the same matcher gives the same result as a fresh
    /// matcher.
    #[test]
    fn matcher_reuse_is_sound(a in arb_dtmb_graph(), b in arb_dtmb_graph()) {
        let (ba, bb) = (a.to_bitset(), b.to_bitset());
        let mut reused = BitsetMatcher::new();
        let _ = reused.max_matching(&ba);
        let warm = reused.max_matching(&bb);
        prop_assert_eq!(warm, BitsetMatcher::new().max_matching(&bb));
        prop_assert!(Matching::from_pairs(&b, reused.left_pairs()).is_valid(&b));
    }

    /// The bitset Hall witness equals the list oracle's exactly: both are
    /// the alternating-reachability sets of a maximum matching, which do
    /// not depend on the matching chosen.
    #[test]
    fn bitset_witness_matches_list_witness(g in arb_dtmb_graph()) {
        let witness = BitsetMatcher::new().hall_witness(&g.to_bitset());
        prop_assert_eq!(witness, hall_violation(&g));
    }
}
