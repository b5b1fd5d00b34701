//! Disjoint-set (union–find) with path compression and union by rank.
//!
//! Used by `pfg_core`'s dendrogram cut, which unions the applied merges
//! and reads one label per leaf.

/// A classic union–find structure over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `x` with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Unions the sets containing `a` and `b`. Returns `true` if they were
    /// previously in different sets.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }

    /// Returns, for every element, a label in `0..s`, where `s` is the
    /// number of sets, such that two elements share a label iff they are in
    /// the same set. Labels are assigned in order of first appearance.
    pub fn labels(&mut self) -> Vec<usize> {
        let n = self.parent.len();
        let mut label_of_root = vec![usize::MAX; n];
        let mut labels = vec![0; n];
        let mut next = 0;
        for (x, label) in labels.iter_mut().enumerate() {
            let r = self.find(x);
            if label_of_root[r] == usize::MAX {
                label_of_root[r] = next;
                next += 1;
            }
            *label = label_of_root[r];
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(3));
        // Three sets remain: {0, 1}, {2} and {3, 4}.
        assert_eq!(uf.labels(), vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn labels_are_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let labels = uf.labels();
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[0], labels[4]);
        assert_eq!(labels[1], labels[5]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[3], labels[0]);
        assert_ne!(labels[3], labels[1]);
        // Labels are compact: exactly one distinct value per set, and the
        // three unions left three sets.
        let mut distinct: Vec<usize> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, vec![0, 1, 2]);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.labels().is_empty());
    }
}
