//! Bipartite graph `BG(A, B, E)` between faulty and spare cells.

use dmfb_graph::BitsetGraph;
use std::fmt;

/// A bipartite graph with `left_count` nodes on the left side (the paper's
/// set `A`: faulty primary cells) and `right_count` nodes on the right side
/// (set `B`: fault-free spare cells).
///
/// Nodes are dense `usize` indices on each side; callers keep their own
/// index ↔ cell mappings. Parallel edges are ignored.
///
/// # Example
///
/// ```
/// use dmfb_oracle::BipartiteGraph;
///
/// let mut g = BipartiteGraph::new(1, 2);
/// g.add_edge(0, 0);
/// g.add_edge(0, 1);
/// assert_eq!(g.degree_left(0), 2);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    adj_left: Vec<Vec<usize>>,
    right_count: usize,
    edges: usize,
}

impl fmt::Debug for BipartiteGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BipartiteGraph(left={}, right={}, edges={})",
            self.adj_left.len(),
            self.right_count,
            self.edges
        )
    }
}

impl BipartiteGraph {
    /// Creates a graph with the given side sizes and no edges.
    #[must_use]
    pub fn new(left_count: usize, right_count: usize) -> Self {
        BipartiteGraph {
            adj_left: vec![Vec::new(); left_count],
            right_count,
            edges: 0,
        }
    }

    /// Adds an (undirected) edge between left node `a` and right node `b`.
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.adj_left.len(), "left node {a} out of range");
        assert!(b < self.right_count, "right node {b} out of range");
        if !self.adj_left[a].contains(&b) {
            self.adj_left[a].push(b);
            self.edges += 1;
        }
    }

    /// Number of left-side nodes (`|A|`).
    #[must_use]
    pub fn left_count(&self) -> usize {
        self.adj_left.len()
    }

    /// Number of right-side nodes (`|B|`).
    #[must_use]
    pub fn right_count(&self) -> usize {
        self.right_count
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The right-side neighbours of left node `a`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn neighbors(&self, a: usize) -> &[usize] {
        &self.adj_left[a]
    }

    /// Degree of left node `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn degree_left(&self, a: usize) -> usize {
        self.adj_left[a].len()
    }

    /// Whether any left node has no neighbours at all (such a node can never
    /// be matched — e.g. a faulty cell with all adjacent spares failed).
    #[must_use]
    pub fn has_isolated_left(&self) -> bool {
        self.adj_left.iter().any(Vec::is_empty)
    }

    /// Iterates all edges as `(left, right)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj_left
            .iter()
            .enumerate()
            .flat_map(|(a, nbrs)| nbrs.iter().map(move |b| (a, *b)))
    }

    /// The same graph in the production bitset layout.
    #[must_use]
    pub fn to_bitset(&self) -> BitsetGraph {
        let mut g = BitsetGraph::new(self.left_count(), self.right_count());
        for (a, b) in self.edges() {
            g.add_edge(a, b);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_edges() {
        let mut g = BipartiteGraph::new(3, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(2, 1);
        assert_eq!(g.left_count(), 3);
        assert_eq!(g.right_count(), 2);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.degree_left(1), 0);
        assert!(g.has_isolated_left());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 0), (0, 1), (2, 1)]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0);
        g.add_edge(0, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_left() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_right() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 1);
    }

    #[test]
    fn empty_graph_no_isolated() {
        let g = BipartiteGraph::new(0, 5);
        assert!(!g.has_isolated_left());
        assert_eq!(g.edge_count(), 0);
    }
}
