//! Maximum bipartite matching over the adjacency list: Hopcroft–Karp and
//! the simple augmenting-path (Kuhn) matcher.

use crate::BipartiteGraph;
use std::collections::VecDeque;

/// A matching in a bipartite graph: a set of edges no two of which share a
/// node. Produced by [`hopcroft_karp`] or [`augmenting_path_matching`]
/// (or read off another matcher by [`Matching::from_pairs`]);
/// always *maximum* (largest possible cardinality), which is in particular
/// maximal in the paper's sense.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// `pair_left[a] = Some(b)` iff left `a` is matched to right `b`.
    pub(crate) pair_left: Vec<Option<usize>>,
    /// `pair_right[b] = Some(a)` iff right `b` is matched to left `a`.
    pub(crate) pair_right: Vec<Option<usize>>,
    pub(crate) size: usize,
}

impl Matching {
    pub(crate) fn new(left: usize, right: usize) -> Self {
        Matching {
            pair_left: vec![None; left],
            pair_right: vec![None; right],
            size: 0,
        }
    }

    /// The matching made of `(left, right)` `pairs` over `graph`'s node
    /// sides, e.g. `dmfb_graph::BitsetMatcher::left_pairs`, so it can be
    /// checked with [`Matching::is_valid`].
    #[must_use]
    pub fn from_pairs(graph: &BipartiteGraph, pairs: impl Iterator<Item = (usize, usize)>) -> Self {
        let mut m = Matching::new(graph.left_count(), graph.right_count());
        for (a, b) in pairs {
            m.pair_left[a] = Some(b);
            m.pair_right[b] = Some(a);
            m.size += 1;
        }
        m
    }

    /// Number of matched pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the matching is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The right partner of left node `a`, if matched.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn partner_of_left(&self, a: usize) -> Option<usize> {
        self.pair_left[a]
    }

    /// The left partner of right node `b`, if matched.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn partner_of_right(&self, b: usize) -> Option<usize> {
        self.pair_right[b]
    }

    /// Whether the matching saturates the left side — the paper's success
    /// criterion: every faulty cell found an adjacent fault-free spare.
    #[must_use]
    pub fn covers_all_left(&self, graph: &BipartiteGraph) -> bool {
        self.size == graph.left_count()
    }

    /// The left nodes left unmatched (the faulty cells that could not be
    /// replaced), in index order.
    #[must_use]
    pub fn unmatched_left(&self) -> Vec<usize> {
        self.pair_left
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(a, _)| a)
            .collect()
    }

    /// Iterates matched `(left, right)` pairs in left-index order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pair_left
            .iter()
            .enumerate()
            .filter_map(|(a, p)| p.map(|b| (a, b)))
    }

    /// Checks that the matching is consistent with `graph`: every matched
    /// pair is an edge and the two directions agree. Used by tests.
    #[must_use]
    pub fn is_valid(&self, graph: &BipartiteGraph) -> bool {
        if self.pair_left.len() != graph.left_count()
            || self.pair_right.len() != graph.right_count()
        {
            return false;
        }
        let mut count = 0;
        for (a, p) in self.pair_left.iter().enumerate() {
            if let Some(b) = p {
                if !graph.neighbors(a).contains(b) || self.pair_right[*b] != Some(a) {
                    return false;
                }
                count += 1;
            }
        }
        for (b, p) in self.pair_right.iter().enumerate() {
            if let Some(a) = p {
                if self.pair_left[*a] != Some(b) {
                    return false;
                }
            }
        }
        count == self.size
    }
}

/// Computes a maximum matching with the Hopcroft–Karp algorithm in
/// `O(E √V)` — the list-based reference for `dmfb_graph::BitsetMatcher`.
///
/// # Example
///
/// ```
/// use dmfb_oracle::{hopcroft_karp, BipartiteGraph};
///
/// let mut g = BipartiteGraph::new(2, 1);
/// g.add_edge(0, 0);
/// g.add_edge(1, 0);
/// // Two faulty cells contend for one spare: only one can be replaced.
/// assert_eq!(hopcroft_karp(&g).len(), 1);
/// ```
#[must_use]
pub fn hopcroft_karp(graph: &BipartiteGraph) -> Matching {
    const INF: u32 = u32::MAX;
    let n = graph.left_count();
    let mut m = Matching::new(n, graph.right_count());
    if n == 0 || graph.right_count() == 0 || graph.edge_count() == 0 {
        return m;
    }
    let mut dist = vec![INF; n];
    let mut queue = VecDeque::new();

    loop {
        // BFS phase: layer the graph from unmatched left nodes.
        queue.clear();
        for (a, d) in dist.iter_mut().enumerate() {
            if m.pair_left[a].is_none() {
                *d = 0;
                queue.push_back(a);
            } else {
                *d = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(a) = queue.pop_front() {
            for &b in graph.neighbors(a) {
                match m.pair_right[b] {
                    None => found_augmenting = true,
                    Some(a2) => {
                        if dist[a2] == INF {
                            dist[a2] = dist[a] + 1;
                            queue.push_back(a2);
                        }
                    }
                }
            }
        }
        if !found_augmenting {
            break;
        }
        // DFS phase: find vertex-disjoint shortest augmenting paths.
        for a in 0..n {
            if m.pair_left[a].is_none() && dfs(graph, a, &mut m, &mut dist) {
                m.size += 1;
            }
        }
    }
    m
}

fn dfs(graph: &BipartiteGraph, a: usize, m: &mut Matching, dist: &mut [u32]) -> bool {
    for i in 0..graph.neighbors(a).len() {
        let b = graph.neighbors(a)[i];
        let advance = match m.pair_right[b] {
            None => true,
            Some(a2) => dist[a2] == dist[a] + 1 && dfs(graph, a2, m, dist),
        };
        if advance {
            m.pair_left[a] = Some(b);
            m.pair_right[b] = Some(a);
            return true;
        }
    }
    dist[a] = u32::MAX;
    false
}

/// Computes a maximum matching with the classic single-path augmenting
/// (Hungarian/Kuhn) algorithm in `O(V · E)`.
///
/// Slower than [`hopcroft_karp`] but easy to audit: an independent second
/// reference.
#[must_use]
pub fn augmenting_path_matching(graph: &BipartiteGraph) -> Matching {
    let n = graph.left_count();
    let mut m = Matching::new(n, graph.right_count());
    let mut visited = vec![false; graph.right_count()];
    for a in 0..n {
        visited.iter_mut().for_each(|v| *v = false);
        if try_kuhn(graph, a, &mut m, &mut visited) {
            m.size += 1;
        }
    }
    m
}

fn try_kuhn(graph: &BipartiteGraph, a: usize, m: &mut Matching, visited: &mut [bool]) -> bool {
    for &b in graph.neighbors(a) {
        if visited[b] {
            continue;
        }
        visited[b] = true;
        let free_or_movable = match m.pair_right[b] {
            None => true,
            Some(a2) => try_kuhn(graph, a2, m, visited),
        };
        if free_or_movable {
            m.pair_left[a] = Some(b);
            m.pair_right[b] = Some(a);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_from_edges(left: usize, right: usize, edges: &[(usize, usize)]) -> BipartiteGraph {
        let mut g = BipartiteGraph::new(left, right);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Exhaustive maximum matching by brute force, for small graphs.
    fn brute_force_max(graph: &BipartiteGraph) -> usize {
        fn rec(graph: &BipartiteGraph, a: usize, used: &mut Vec<bool>) -> usize {
            if a == graph.left_count() {
                return 0;
            }
            // Option 1: leave `a` unmatched.
            let mut best = rec(graph, a + 1, used);
            // Option 2: match `a` with any free neighbour.
            for &b in graph.neighbors(a) {
                if !used[b] {
                    used[b] = true;
                    best = best.max(1 + rec(graph, a + 1, used));
                    used[b] = false;
                }
            }
            best
        }
        rec(graph, 0, &mut vec![false; graph.right_count()])
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::new(0, 0);
        let m = hopcroft_karp(&g);
        assert!(m.is_empty());
        assert!(m.covers_all_left(&g));
        assert!(m.is_valid(&g));
    }

    #[test]
    fn no_edges_no_matching() {
        let g = BipartiteGraph::new(3, 3);
        let m = hopcroft_karp(&g);
        assert_eq!(m.len(), 0);
        assert!(!m.covers_all_left(&g));
        assert_eq!(m.unmatched_left(), vec![0, 1, 2]);
    }

    #[test]
    fn perfect_matching_found() {
        // Paper Figure 8 shape: faulty cells each adjacent to 1-2 spares.
        let g = graph_from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.len(), 3);
        assert!(m.covers_all_left(&g));
        assert!(m.is_valid(&g));
        // pairs() is consistent
        for (a, b) in m.pairs() {
            assert_eq!(m.partner_of_left(a), Some(b));
            assert_eq!(m.partner_of_right(b), Some(a));
        }
    }

    #[test]
    fn contention_limits_matching() {
        // Two faulty cells share the only fault-free spare.
        let g = graph_from_edges(2, 1, &[(0, 0), (1, 0)]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.len(), 1);
        assert!(!m.covers_all_left(&g));
        assert_eq!(m.unmatched_left().len(), 1);
    }

    #[test]
    fn augmentation_reroutes_earlier_choices() {
        // Greedy would match 0-0 and strand 1; augmenting must fix it.
        let g = graph_from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let m = hopcroft_karp(&g);
        assert_eq!(m.len(), 2);
        assert_eq!(m.partner_of_left(1), Some(0));
        assert_eq!(m.partner_of_left(0), Some(1));
    }

    #[test]
    fn kuhn_agrees_with_hk_on_fixed_cases() {
        type Case = (usize, usize, Vec<(usize, usize)>);
        let cases: Vec<Case> = vec![
            (1, 1, vec![(0, 0)]),
            (
                4,
                4,
                vec![(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)],
            ),
            (3, 2, vec![(0, 0), (1, 0), (2, 0), (2, 1)]),
            (5, 5, vec![]),
        ];
        for (l, r, edges) in cases {
            let g = graph_from_edges(l, r, &edges);
            let hk = hopcroft_karp(&g);
            let kuhn = augmenting_path_matching(&g);
            assert_eq!(hk.len(), kuhn.len(), "edges {edges:?}");
            assert_eq!(hk.len(), brute_force_max(&g));
            assert!(hk.is_valid(&g));
            assert!(kuhn.is_valid(&g));
        }
    }

    #[test]
    fn randomized_cross_check() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..200 {
            let l = rng.gen_range(0..7);
            let r = rng.gen_range(0..7);
            let mut g = BipartiteGraph::new(l, r);
            if l > 0 && r > 0 {
                for a in 0..l {
                    for b in 0..r {
                        if rng.gen_bool(0.3) {
                            g.add_edge(a, b);
                        }
                    }
                }
            }
            let hk = hopcroft_karp(&g);
            let kuhn = augmenting_path_matching(&g);
            let brute = brute_force_max(&g);
            assert_eq!(hk.len(), brute);
            assert_eq!(kuhn.len(), brute);
            assert!(hk.is_valid(&g));
            assert!(kuhn.is_valid(&g));
        }
    }

    #[test]
    fn isolated_left_never_covered() {
        let g = graph_from_edges(2, 2, &[(0, 0)]);
        assert!(g.has_isolated_left());
        let m = hopcroft_karp(&g);
        assert!(!m.covers_all_left(&g));
        assert_eq!(m.unmatched_left(), vec![1]);
    }

    #[test]
    fn large_bipartite_complete_graph() {
        // K(50,50): perfect matching must be found quickly.
        let mut g = BipartiteGraph::new(50, 50);
        for a in 0..50 {
            for b in 0..50 {
                g.add_edge(a, b);
            }
        }
        let m = hopcroft_karp(&g);
        assert_eq!(m.len(), 50);
        assert!(m.is_valid(&g));
    }
}
