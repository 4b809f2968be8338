//! Hall-theorem deficiency witnesses over the adjacency list.
//!
//! By König/Hall duality, a bipartite graph has a matching saturating the
//! left side iff every subset `S ⊆ A` satisfies `|N(S)| >= |S|`. This is
//! the reference for `BitsetMatcher::hall_witness`, which production
//! reconfiguration uses to explain failures.

use crate::{hopcroft_karp, BipartiteGraph};
use dmfb_graph::HallViolation;

/// Finds a Hall violation if the graph admits no left-saturating matching,
/// or `None` if all left nodes can be matched.
///
/// The witness is extracted from a maximum matching: starting from any
/// unmatched left node, alternate unmatched/matched edges; the left nodes
/// reachable this way form a deficient set.
///
/// # Example
///
/// ```
/// use dmfb_oracle::{hall_violation, BipartiteGraph};
///
/// // Two faulty cells fight over one spare.
/// let mut g = BipartiteGraph::new(2, 1);
/// g.add_edge(0, 0);
/// g.add_edge(1, 0);
/// let v = hall_violation(&g).expect("must be deficient");
/// assert_eq!(v.left_set, vec![0, 1]);
/// assert_eq!(v.neighborhood, vec![0]);
/// assert_eq!(v.deficiency(), 1);
/// ```
#[must_use]
pub fn hall_violation(graph: &BipartiteGraph) -> Option<HallViolation> {
    let m = hopcroft_karp(graph);
    if m.covers_all_left(graph) {
        return None;
    }
    // Alternating BFS from all unmatched left nodes.
    let mut left_visited = vec![false; graph.left_count()];
    let mut right_visited = vec![false; graph.right_count()];
    let mut stack: Vec<usize> = m.unmatched_left();
    for &a in &stack {
        left_visited[a] = true;
    }
    while let Some(a) = stack.pop() {
        for &b in graph.neighbors(a) {
            if right_visited[b] {
                continue;
            }
            right_visited[b] = true;
            if let Some(a2) = m.partner_of_right(b) {
                if !left_visited[a2] {
                    left_visited[a2] = true;
                    stack.push(a2);
                }
            }
        }
    }
    let left_set: Vec<usize> = (0..graph.left_count())
        .filter(|&a| left_visited[a])
        .collect();
    let neighborhood: Vec<usize> = (0..graph.right_count())
        .filter(|&b| right_visited[b])
        .collect();
    Some(HallViolation {
        left_set,
        neighborhood,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_graph_has_no_violation() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 1);
        assert!(hall_violation(&g).is_none());
    }

    #[test]
    fn witness_is_genuinely_deficient() {
        // 3 left nodes all adjacent only to right node 0 and 1.
        let mut g = BipartiteGraph::new(3, 3);
        for a in 0..3 {
            g.add_edge(a, 0);
            g.add_edge(a, 1);
        }
        let v = hall_violation(&g).expect("deficient");
        assert!(v.deficiency() >= 1);
        // Verify N(S) computed from the graph matches the witness.
        let mut nbhd: Vec<usize> = v
            .left_set
            .iter()
            .flat_map(|&a| graph_neighbors(&g, a))
            .collect();
        nbhd.sort_unstable();
        nbhd.dedup();
        assert_eq!(nbhd, v.neighborhood);
        assert!(v.left_set.len() > v.neighborhood.len());
    }

    fn graph_neighbors(g: &BipartiteGraph, a: usize) -> Vec<usize> {
        g.neighbors(a).to_vec()
    }

    #[test]
    fn isolated_node_is_minimal_witness() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        // left 1 isolated
        let v = hall_violation(&g).expect("deficient");
        assert!(v.left_set.contains(&1));
        // The neighbourhood of the witness set must be smaller than the set.
        assert!(v.left_set.len() > v.neighborhood.len());
    }

    #[test]
    fn empty_left_is_trivially_saturated() {
        let g = BipartiteGraph::new(0, 3);
        assert!(hall_violation(&g).is_none());
    }
}
