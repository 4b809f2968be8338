//! Bitset-adjacency bipartite graphs and a cache-friendly Hopcroft–Karp.
//!
//! The Monte-Carlo hot path solves tens of thousands of small bipartite
//! matching problems per yield point. An adjacency-list graph stores one
//! heap `Vec` per left node, which costs an allocation per node and a
//! pointer chase per neighbour. [`BitsetGraph`] instead packs each left
//! node's neighbour set into `u64` words of one flat buffer, so
//!
//! * building a graph is `left × words` zeroed `u64`s plus one bit-set per
//!   edge (no per-node allocations),
//! * neighbour iteration is `trailing_zeros` over a register, and
//! * whole-neighbourhood questions (Hall checks, unions) are word-wise ORs.
//!
//! [`BitsetMatcher`] runs Hopcroft–Karp over this layout with reusable
//! scratch buffers, and [`BitsetGraph::hall_infeasible`] answers "can a
//! left-perfect matching possibly exist?" in `O(left × words)` before any
//! search starts — the early exit that serves the simulator's yes/no
//! question. When the answer is no, [`BitsetMatcher::hall_witness`]
//! explains it with a Hall-deficient set.

/// A bipartite graph whose left-node neighbour sets are `u64` bitsets.
///
/// Neighbours iterate in ascending index order rather than insertion
/// order; in exchange storage is dense and set operations are word-wise.
///
/// # Example
///
/// ```
/// use dmfb_graph::{BitsetGraph, BitsetMatcher};
///
/// let mut g = BitsetGraph::new(2, 2);
/// g.add_edge(0, 0);
/// g.add_edge(0, 1);
/// g.add_edge(1, 0);
/// assert_eq!(BitsetMatcher::new().max_matching(&g), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitsetGraph {
    left_count: usize,
    right_count: usize,
    words_per_row: usize,
    /// `left_count × words_per_row` words; bit `b` of row `a` is edge `(a, b)`.
    adj: Vec<u64>,
    edges: usize,
}

impl BitsetGraph {
    /// Creates a graph with the given side sizes and no edges.
    #[must_use]
    pub fn new(left_count: usize, right_count: usize) -> Self {
        let words_per_row = right_count.div_ceil(64);
        BitsetGraph {
            left_count,
            right_count,
            words_per_row,
            adj: vec![0u64; left_count * words_per_row],
            edges: 0,
        }
    }

    /// Reshapes the graph to new side sizes, reusing the buffer when it is
    /// large enough, and clears all edges.
    pub fn reset(&mut self, left_count: usize, right_count: usize) {
        self.left_count = left_count;
        self.right_count = right_count;
        self.words_per_row = right_count.div_ceil(64);
        let need = left_count * self.words_per_row;
        self.adj.clear();
        self.adj.resize(need, 0);
        self.edges = 0;
    }

    /// Adds the edge `(a, b)`. Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.left_count, "left node {a} out of range");
        assert!(b < self.right_count, "right node {b} out of range");
        let word = &mut self.adj[a * self.words_per_row + b / 64];
        let mask = 1u64 << (b % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.edges += 1;
        }
    }

    /// Number of left-side nodes.
    #[must_use]
    pub fn left_count(&self) -> usize {
        self.left_count
    }

    /// Number of right-side nodes.
    #[must_use]
    pub fn right_count(&self) -> usize {
        self.right_count
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Whether the edge `(a, b)` is present.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn contains_edge(&self, a: usize, b: usize) -> bool {
        assert!(a < self.left_count, "left node {a} out of range");
        assert!(b < self.right_count, "right node {b} out of range");
        self.adj[a * self.words_per_row + b / 64] & (1u64 << (b % 64)) != 0
    }

    /// The neighbour bitset of left node `a` as `u64` words.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[must_use]
    pub fn row(&self, a: usize) -> &[u64] {
        &self.adj[a * self.words_per_row..(a + 1) * self.words_per_row]
    }

    /// Iterates the right-side neighbours of `a` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(a).iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Cheap certificate that **no left-saturating (perfect-on-A) matching
    /// can exist**, checked before any augmenting search:
    ///
    /// 1. more left nodes than right nodes,
    /// 2. an isolated left node (`N({a}) = ∅`), or
    /// 3. a Hall violation on the full left side: `|N(A)| < |A|`, computed
    ///    as the popcount of the word-wise OR of every row.
    ///
    /// A `false` return is *not* a feasibility proof — Hall's condition
    /// must hold for every subset — but on the simulator's sparse defect
    /// graphs these three checks dismiss most infeasible instances in one
    /// linear pass.
    #[must_use]
    pub fn hall_infeasible(&self) -> bool {
        if self.left_count == 0 {
            return false;
        }
        if self.left_count > self.right_count {
            return true;
        }
        // Single pass: OR all rows while watching for an empty one. The
        // per-trial graphs are narrow, so the union lives on the stack
        // unless the right side exceeds 512 nodes.
        let mut stack = [0u64; 8];
        let mut heap;
        let union: &mut [u64] = if self.words_per_row <= stack.len() {
            &mut stack[..self.words_per_row]
        } else {
            heap = vec![0u64; self.words_per_row];
            &mut heap
        };
        for a in 0..self.left_count {
            let row = self.row(a);
            let mut any = 0u64;
            // 4-wide unroll: four independent OR accumuland updates per
            // iteration keep wide rows off a serial dependency chain.
            let mut quads = union.chunks_exact_mut(4);
            let mut row_quads = row.chunks_exact(4);
            for (u, w) in (&mut quads).zip(&mut row_quads) {
                u[0] |= w[0];
                u[1] |= w[1];
                u[2] |= w[2];
                u[3] |= w[3];
                any |= (w[0] | w[1]) | (w[2] | w[3]);
            }
            for (u, &w) in quads.into_remainder().iter_mut().zip(row_quads.remainder()) {
                *u |= w;
                any |= w;
            }
            if any == 0 {
                return true; // isolated left node
            }
        }
        let reachable: usize = union.iter().map(|w| w.count_ones() as usize).sum();
        reachable < self.left_count
    }
}

/// A witness that no matching can cover all left nodes: a set `S` of left
/// nodes whose joint neighbourhood `N(S)` is strictly smaller than `S`
/// (Hall's theorem). When local reconfiguration fails, `S` — faulty cells
/// with fewer adjacent fault-free spares than members — explains why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HallViolation {
    /// The deficient left nodes (faulty cells), ascending.
    pub left_set: Vec<usize>,
    /// Their joint right-side neighbourhood (available spares), ascending.
    pub neighborhood: Vec<usize>,
}

impl HallViolation {
    /// Deficiency `|S| - |N(S)|` (always >= 1 for a genuine violation).
    #[must_use]
    pub fn deficiency(&self) -> usize {
        self.left_set.len().saturating_sub(self.neighborhood.len())
    }
}

const UNMATCHED: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// Reusable Hopcroft–Karp scratch state for [`BitsetGraph`]s.
///
/// The Monte-Carlo simulator calls the matcher once per trial; allocating
/// the BFS queue, layer array and pairing arrays each time dominates the
/// cost of the tiny searches themselves. A `BitsetMatcher` owns those
/// buffers and grows them on demand, so a long trial loop settles into
/// zero allocations.
///
/// # Example
///
/// ```
/// use dmfb_graph::{BitsetGraph, BitsetMatcher};
///
/// let mut g = BitsetGraph::new(2, 1);
/// g.add_edge(0, 0);
/// g.add_edge(1, 0);
/// let mut matcher = BitsetMatcher::new();
/// assert!(!matcher.covers_all_left(&g)); // two faults, one spare
/// assert_eq!(matcher.max_matching(&g), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitsetMatcher {
    pair_left: Vec<u32>,
    pair_right: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl BitsetMatcher {
    /// Creates a matcher with empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        BitsetMatcher::default()
    }

    fn prepare(&mut self, graph: &BitsetGraph) {
        self.pair_left.clear();
        self.pair_left.resize(graph.left_count(), UNMATCHED);
        self.pair_right.clear();
        self.pair_right.resize(graph.right_count(), UNMATCHED);
        self.dist.clear();
        self.dist.resize(graph.left_count(), INF);
        self.queue.clear();
    }

    /// Scans one adjacency word during the BFS layering phase: every set
    /// bit is a right node to relax through its current partner.
    #[inline(always)]
    fn bfs_word(&mut self, mut w: u64, base: usize, next: u32, found: &mut bool) {
        while w != 0 {
            let b = base + w.trailing_zeros() as usize;
            w &= w - 1;
            let a2 = self.pair_right[b];
            if a2 == UNMATCHED {
                *found = true;
            } else if self.dist[a2 as usize] == INF {
                self.dist[a2 as usize] = next;
                self.queue.push(a2);
            }
        }
    }

    /// One BFS layering phase. Returns `true` if an augmenting path
    /// exists. The adjacency-word loop is manually unrolled 4-wide: one
    /// OR dismisses four empty words at a time, which is the common case
    /// on the simulator's sparse per-trial rows.
    fn bfs(&mut self, graph: &BitsetGraph) -> bool {
        self.queue.clear();
        for a in 0..graph.left_count() {
            if self.pair_left[a] == UNMATCHED {
                self.dist[a] = 0;
                self.queue.push(a as u32);
            } else {
                self.dist[a] = INF;
            }
        }
        let mut found = false;
        let mut head = 0;
        while head < self.queue.len() {
            let a = self.queue[head] as usize;
            head += 1;
            let next = self.dist[a] + 1;
            let row = graph.row(a);
            let mut wi = 0;
            while wi + 4 <= row.len() {
                let (w0, w1, w2, w3) = (row[wi], row[wi + 1], row[wi + 2], row[wi + 3]);
                if (w0 | w1) | (w2 | w3) != 0 {
                    self.bfs_word(w0, wi * 64, next, &mut found);
                    self.bfs_word(w1, (wi + 1) * 64, next, &mut found);
                    self.bfs_word(w2, (wi + 2) * 64, next, &mut found);
                    self.bfs_word(w3, (wi + 3) * 64, next, &mut found);
                }
                wi += 4;
            }
            while wi < row.len() {
                self.bfs_word(row[wi], wi * 64, next, &mut found);
                wi += 1;
            }
        }
        found
    }

    /// Scans one adjacency word during the layered DFS; returns `true`
    /// as soon as an augmenting path through one of its bits succeeds.
    #[inline(always)]
    fn dfs_word(
        &mut self,
        graph: &BitsetGraph,
        a: usize,
        mut w: u64,
        base: usize,
        next: u32,
    ) -> bool {
        while w != 0 {
            let b = base + w.trailing_zeros() as usize;
            w &= w - 1;
            let a2 = self.pair_right[b];
            let advance =
                a2 == UNMATCHED || (self.dist[a2 as usize] == next && self.dfs(graph, a2 as usize));
            if advance {
                self.pair_left[a] = b as u32;
                self.pair_right[b] = a as u32;
                return true;
            }
        }
        false
    }

    /// Layered DFS from left node `a`, augmenting along a shortest path.
    /// Same 4-wide word unrolling as [`BitsetMatcher::bfs`]; bit visit
    /// order (ascending) is unchanged, so matchings are byte-identical
    /// to the rolled loop's.
    fn dfs(&mut self, graph: &BitsetGraph, a: usize) -> bool {
        let next = self.dist[a] + 1;
        let row = graph.row(a);
        let mut wi = 0;
        while wi + 4 <= row.len() {
            let (w0, w1, w2, w3) = (row[wi], row[wi + 1], row[wi + 2], row[wi + 3]);
            if (w0 | w1) | (w2 | w3) != 0
                && (self.dfs_word(graph, a, w0, wi * 64, next)
                    || self.dfs_word(graph, a, w1, (wi + 1) * 64, next)
                    || self.dfs_word(graph, a, w2, (wi + 2) * 64, next)
                    || self.dfs_word(graph, a, w3, (wi + 3) * 64, next))
            {
                return true;
            }
            wi += 4;
        }
        while wi < row.len() {
            if self.dfs_word(graph, a, row[wi], wi * 64, next) {
                return true;
            }
            wi += 1;
        }
        self.dist[a] = INF;
        false
    }

    /// Runs Hopcroft–Karp phases; returns the matching size. If
    /// `stop_at_left_cover` is set, returns early (possibly before the
    /// matching is maximum) once every left node is matched.
    fn solve(&mut self, graph: &BitsetGraph, stop_at_left_cover: bool) -> usize {
        self.prepare(graph);
        let n = graph.left_count();
        if n == 0 || graph.right_count() == 0 || graph.edge_count() == 0 {
            return 0;
        }
        let mut size = 0usize;
        while self.bfs(graph) {
            for a in 0..n {
                if self.pair_left[a] == UNMATCHED && self.dfs(graph, a) {
                    size += 1;
                }
            }
            if stop_at_left_cover && size == n {
                break;
            }
        }
        size
    }

    /// Whether a matching covering **every left node** exists — the
    /// simulator's tolerability question. Early-exits on
    /// [`BitsetGraph::hall_infeasible`] before searching, and stops
    /// augmenting as soon as the left side is saturated.
    pub fn covers_all_left(&mut self, graph: &BitsetGraph) -> bool {
        if graph.left_count() == 0 || graph.hall_infeasible() {
            // Early exits bypass `solve`; drop any pairs left over from a
            // previous run so `left_pairs` never reports a stale matching.
            self.pair_left.clear();
            self.pair_right.clear();
            return graph.left_count() == 0;
        }
        self.solve(graph, true) == graph.left_count()
    }

    /// The `(left, right)` pairs of the matching computed by the most
    /// recent [`BitsetMatcher::covers_all_left`],
    /// [`BitsetMatcher::max_matching`] or [`BitsetMatcher::hall_witness`]
    /// call, in ascending left order.
    ///
    /// This is how callers that need the *assignment* — not just the
    /// yes/no cover verdict — read it back: `covers_all_left` first, then
    /// iterate the pairs. Empty when no solve has run (or the left side
    /// was empty).
    ///
    /// # Example
    ///
    /// ```
    /// use dmfb_graph::{BitsetGraph, BitsetMatcher};
    ///
    /// let mut g = BitsetGraph::new(2, 2);
    /// g.add_edge(0, 1);
    /// g.add_edge(1, 0);
    /// let mut matcher = BitsetMatcher::new();
    /// assert!(matcher.covers_all_left(&g));
    /// let pairs: Vec<_> = matcher.left_pairs().collect();
    /// assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    /// ```
    pub fn left_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pair_left
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != UNMATCHED)
            .map(|(a, &b)| (a, b as usize))
    }

    /// Computes a maximum matching, reusing this matcher's buffers, and
    /// returns its size; [`BitsetMatcher::left_pairs`] reads it back.
    pub fn max_matching(&mut self, graph: &BitsetGraph) -> usize {
        self.solve(graph, false)
    }

    /// Computes a maximum matching and, if it leaves some left node
    /// unmatched, returns a [`HallViolation`]: the left nodes the
    /// alternating BFS from the unmatched ones reaches, and the right nodes
    /// it crosses. Both sets are the same for every maximum matching
    /// (Dulmage–Mendelsohn), so the witness does not depend on which one
    /// the search found. `None` when the left side is saturated.
    ///
    /// # Example
    ///
    /// ```
    /// use dmfb_graph::{BitsetGraph, BitsetMatcher};
    ///
    /// // Two faulty cells fight over one spare; a third has its own.
    /// let mut g = BitsetGraph::new(3, 2);
    /// g.add_edge(0, 0);
    /// g.add_edge(1, 0);
    /// g.add_edge(2, 1);
    /// let v = BitsetMatcher::new().hall_witness(&g).expect("must be deficient");
    /// assert_eq!((v.left_set, v.neighborhood), (vec![0, 1], vec![0]));
    /// ```
    pub fn hall_witness(&mut self, graph: &BitsetGraph) -> Option<HallViolation> {
        if self.solve(graph, false) == graph.left_count() {
            return None;
        }
        let mut left_seen: Vec<bool> = self.pair_left.iter().map(|&b| b == UNMATCHED).collect();
        let mut right_seen = vec![false; graph.right_count()];
        self.queue.clear();
        self.queue
            .extend((0..left_seen.len() as u32).filter(|&a| left_seen[a as usize]));
        let mut head = 0;
        while let Some(&a) = self.queue.get(head) {
            head += 1;
            for b in graph.neighbors(a as usize) {
                let a2 = self.pair_right[b];
                if !std::mem::replace(&mut right_seen[b], true)
                    && a2 != UNMATCHED
                    && !std::mem::replace(&mut left_seen[a2 as usize], true)
                {
                    self.queue.push(a2);
                }
            }
        }
        let members = |seen: Vec<bool>| (0..seen.len()).filter(|&i| seen[i]).collect();
        Some(HallViolation {
            left_set: members(left_seen),
            neighborhood: members(right_seen),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(left: usize, right: usize, edges: &[(usize, usize)]) -> BitsetGraph {
        let mut g = BitsetGraph::new(left, right);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn covers_all_left_agrees_with_full_matching() {
        let mut matcher = BitsetMatcher::new();
        let feasible = bits(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        assert!(matcher.covers_all_left(&feasible));
        let tight = bits(2, 1, &[(0, 0), (1, 0)]);
        assert!(!matcher.covers_all_left(&tight));
        let empty = bits(0, 4, &[]);
        assert!(matcher.covers_all_left(&empty));
    }

    #[test]
    fn hall_infeasible_certificates() {
        // More left than right.
        let g = bits(3, 2, &[(0, 0), (1, 1), (2, 0)]);
        assert!(g.hall_infeasible());
        // Isolated left node.
        let g = bits(2, 2, &[(0, 0)]);
        assert!(g.hall_infeasible());
        // Joint neighbourhood too small.
        let g = bits(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        assert!(g.hall_infeasible());
        // Feasible square.
        let g = bits(2, 2, &[(0, 0), (1, 1)]);
        assert!(!g.hall_infeasible());
        // Infeasible but not caught by the cheap certificate (subset
        // violation): {0,1} share spare 0 while spare 1 hangs off node 2.
        let g = bits(3, 3, &[(0, 0), (1, 0), (2, 1), (2, 2), (0, 0)]);
        assert!(!g.hall_infeasible());
        assert!(!BitsetMatcher::new().covers_all_left(&g));
        // Empty left side is trivially feasible.
        let g = bits(0, 1, &[]);
        assert!(!g.hall_infeasible());
    }

    #[test]
    fn matcher_buffers_are_reusable() {
        let mut matcher = BitsetMatcher::new();
        let a = bits(3, 3, &[(0, 0), (1, 1), (2, 2)]);
        let b = bits(2, 1, &[(0, 0), (1, 0)]);
        for _ in 0..3 {
            assert_eq!(matcher.max_matching(&a), 3);
            assert_eq!(matcher.max_matching(&b), 1);
            assert!(matcher.covers_all_left(&a));
            assert!(!matcher.covers_all_left(&b));
        }
    }

    #[test]
    fn reset_and_clear_reuse_storage() {
        let mut g = BitsetGraph::new(2, 130);
        g.add_edge(0, 129);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 2);
        g.reset(4, 5);
        assert_eq!(g.left_count(), 4);
        assert_eq!(g.right_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains_edge(1, 0));
        g.add_edge(3, 4);
        assert_eq!(g.edge_count(), 1);
        assert!(g.contains_edge(3, 4));
    }

    #[test]
    fn wide_right_side_crosses_word_boundaries() {
        // A perfect matching where partners sit in different u64 words.
        let mut g = BitsetGraph::new(4, 260);
        for a in 0..4 {
            g.add_edge(a, a * 64 + 63);
            g.add_edge(a, 259);
        }
        let mut matcher = BitsetMatcher::new();
        assert_eq!(matcher.max_matching(&g), 4);
        assert!(matcher.left_pairs().all(|(a, b)| g.contains_edge(a, b)));
        assert!(matcher.covers_all_left(&g));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bounds_checked() {
        let mut g = BitsetGraph::new(1, 64);
        g.add_edge(0, 64);
    }
}
