//! Property-based tests for the adjacency-list reference matchers the
//! bitset kernel is checked against.

use dmfb_oracle::{augmenting_path_matching, hall_violation, hopcroft_karp, BipartiteGraph};
use proptest::prelude::*;

/// A random bipartite graph strategy with both side sizes and an edge list.
fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1usize..12, 1usize..12).prop_flat_map(|(l, r)| {
        prop::collection::vec((0..l, 0..r), 0..40).prop_map(move |edges| {
            let mut g = BipartiteGraph::new(l, r);
            for (a, b) in edges {
                g.add_edge(a, b);
            }
            g
        })
    })
}

proptest! {
    /// Hopcroft–Karp and Kuhn always agree on the maximum matching size,
    /// and both produce structurally valid matchings.
    #[test]
    fn algorithms_agree(g in arb_graph()) {
        let hk = hopcroft_karp(&g);
        let kuhn = augmenting_path_matching(&g);
        prop_assert_eq!(hk.len(), kuhn.len());
        prop_assert!(hk.is_valid(&g));
        prop_assert!(kuhn.is_valid(&g));
    }

    /// The matching never exceeds either side and never exceeds edge count.
    #[test]
    fn matching_bounds(g in arb_graph()) {
        let m = hopcroft_karp(&g);
        prop_assert!(m.len() <= g.left_count());
        prop_assert!(m.len() <= g.right_count());
        prop_assert!(m.len() <= g.edge_count());
    }

    /// König/Hall duality: exactly one of "left-saturating matching exists"
    /// and "a Hall violation exists"; the violation is genuinely deficient.
    #[test]
    fn hall_duality(g in arb_graph()) {
        let m = hopcroft_karp(&g);
        match hall_violation(&g) {
            None => prop_assert!(m.covers_all_left(&g)),
            Some(v) => {
                prop_assert!(!m.covers_all_left(&g));
                prop_assert!(v.deficiency() >= 1);
                // Verify the witness's neighbourhood against the graph.
                let mut nbhd: Vec<usize> = v
                    .left_set
                    .iter()
                    .flat_map(|&a| g.neighbors(a).to_vec())
                    .collect();
                nbhd.sort_unstable();
                nbhd.dedup();
                prop_assert_eq!(nbhd, v.neighborhood.clone());
                prop_assert!(v.left_set.len() > v.neighborhood.len());
            }
        }
    }

    /// Adding an edge never decreases the maximum matching.
    #[test]
    fn monotone_in_edges(g in arb_graph(), a_seed in 0usize..100, b_seed in 0usize..100) {
        let before = hopcroft_karp(&g).len();
        let mut g2 = g.clone();
        g2.add_edge(a_seed % g.left_count(), b_seed % g.right_count());
        let after = hopcroft_karp(&g2).len();
        prop_assert!(after >= before);
        prop_assert!(after <= before + 1);
    }

    /// Unmatched-left report is exactly the complement of matched pairs.
    #[test]
    fn unmatched_partition(g in arb_graph()) {
        let m = hopcroft_karp(&g);
        let matched: Vec<usize> = m.pairs().map(|(a, _)| a).collect();
        let unmatched = m.unmatched_left();
        prop_assert_eq!(matched.len() + unmatched.len(), g.left_count());
        for a in unmatched {
            prop_assert!(m.partner_of_left(a).is_none());
        }
    }
}
