//! Disjoint-set forest (union-find).
//!
//! Nothing in the workspace calls it: the defect subsystem models shorts
//! between adjacent electrodes with `DefectMap::close_shorts`, which marks
//! both cells of a short directly.

/// A disjoint-set forest over `0..len` with path compression and union by
/// rank.
///
/// # Example
///
/// ```
/// use dmfb_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// assert_eq!(uf.component_count(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    #[must_use]
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The canonical representative of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` belong to the same set.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Members of the set containing `x`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len`.
    pub fn component_of(&mut self, x: usize) -> Vec<usize> {
        let root = self.find(x);
        (0..self.len()).filter(|&i| self.find(i) == root).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
        assert!(!uf.is_empty());
        assert!(UnionFind::new(0).is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.union(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(1, 3));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn component_members() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 2);
        uf.union(2, 4);
        assert_eq!(uf.component_of(4), vec![0, 2, 4]);
        assert_eq!(uf.component_of(1), vec![1]);
    }

    #[test]
    fn transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, 99));
    }
}
