//! Cross-checks of `dmfb_graph`'s bitset layout and matcher against the
//! adjacency list.

#[cfg(test)]
mod tests {
    use crate::{hopcroft_karp, BipartiteGraph, Matching};
    use dmfb_graph::{BitsetGraph, BitsetMatcher};

    fn both(left: usize, right: usize, edges: &[(usize, usize)]) -> (BipartiteGraph, BitsetGraph) {
        let mut g = BipartiteGraph::new(left, right);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        let bg = g.to_bitset();
        (g, bg)
    }

    #[test]
    fn construction_mirrors_adjacency_list() {
        let (g, bg) = both(3, 70, &[(0, 0), (0, 69), (2, 64), (2, 64)]);
        assert_eq!(bg.left_count(), 3);
        assert_eq!(bg.right_count(), 70);
        assert_eq!(bg.edge_count(), g.edge_count());
        assert!(bg.contains_edge(0, 69));
        assert!(!bg.contains_edge(1, 0));
        for a in 0..3 {
            let row: Vec<usize> = bg.neighbors(a).collect();
            assert_eq!(row, g.neighbors(a));
        }
    }

    type EdgeCase = (usize, usize, &'static [(usize, usize)]);

    #[test]
    fn matches_list_matcher_on_fixed_cases() {
        let cases: &[EdgeCase] = &[
            (0, 0, &[]),
            (3, 3, &[]),
            (1, 1, &[(0, 0)]),
            (2, 1, &[(0, 0), (1, 0)]),
            (2, 2, &[(0, 0), (0, 1), (1, 0)]),
            (3, 3, &[(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
            (
                4,
                4,
                &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)],
            ),
        ];
        for &(l, r, edges) in cases {
            let (g, bg) = both(l, r, edges);
            let list = hopcroft_karp(&g);
            let mut matcher = BitsetMatcher::new();
            assert_eq!(list.len(), matcher.max_matching(&bg), "edges {edges:?}");
            assert!(Matching::from_pairs(&g, matcher.left_pairs()).is_valid(&g));
        }
    }
}
