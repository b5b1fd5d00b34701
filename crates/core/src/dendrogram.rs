//! Dendrograms: the hierarchical-clustering output of the DBHT and the
//! agglomerative baselines.
//!
//! A dendrogram over `n` objects has `n` leaves (ids `0..n`) and up to
//! `n − 1` binary internal nodes (ids `n..2n−1` in creation order). Each
//! internal node records the merge height; cutting the dendrogram so that
//! `k` clusters remain reproduces the evaluation protocol of §VII (cut such
//! that the number of clusters equals the number of ground-truth classes).

/// A node of a [`Dendrogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DendroNode {
    /// Left child id (`None` for leaves).
    pub left: Option<usize>,
    /// Right child id (`None` for leaves).
    pub right: Option<usize>,
    /// Merge height; `0.0` for leaves.
    pub height: f64,
    /// Number of leaves in this subtree.
    pub size: usize,
    /// Parent node id, if already merged into one.
    pub parent: Option<usize>,
}

impl DendroNode {
    /// Returns `true` if this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left.is_none()
    }
}

/// A binary merge tree over `n` leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    nodes: Vec<DendroNode>,
    num_leaves: usize,
}

impl Dendrogram {
    /// Creates a dendrogram with `n` leaves and no merges yet.
    pub fn new(num_leaves: usize) -> Self {
        let nodes = (0..num_leaves)
            .map(|_| DendroNode {
                left: None,
                right: None,
                height: 0.0,
                size: 1,
                parent: None,
            })
            .collect();
        Self { nodes, num_leaves }
    }

    /// Number of leaves.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of nodes (leaves + internal).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the dendrogram has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    #[inline]
    pub fn node(&self, id: usize) -> &DendroNode {
        &self.nodes[id]
    }

    /// Ids of all internal (merge) nodes, in creation order.
    pub fn internal_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (self.num_leaves..self.nodes.len()).filter(move |&id| !self.nodes[id].is_leaf())
    }

    /// Merges the subtrees rooted at `a` and `b` at the given `height`,
    /// returning the id of the new internal node.
    ///
    /// # Panics
    /// Panics if either node already has a parent or if `a == b`.
    pub fn merge(&mut self, a: usize, b: usize, height: f64) -> usize {
        assert_ne!(a, b, "cannot merge a node with itself");
        assert!(self.nodes[a].parent.is_none(), "node {a} already merged");
        assert!(self.nodes[b].parent.is_none(), "node {b} already merged");
        let id = self.nodes.len();
        let size = self.nodes[a].size + self.nodes[b].size;
        self.nodes.push(DendroNode {
            left: Some(a),
            right: Some(b),
            height,
            size,
            parent: None,
        });
        self.nodes[a].parent = Some(id);
        self.nodes[b].parent = Some(id);
        id
    }

    /// Overrides the height of node `id` (used by the DBHT height
    /// re-assignment step, §V-D).
    pub fn set_height(&mut self, id: usize, height: f64) {
        self.nodes[id].height = height;
    }

    /// The root node id, i.e. the unique node without a parent, provided the
    /// dendrogram is fully merged. Returns `None` if more than one subtree
    /// remains (or the dendrogram is empty).
    pub fn root(&self) -> Option<usize> {
        let mut roots = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent.is_none());
        match (roots.next(), roots.next()) {
            (Some((id, _)), None) => Some(id),
            _ => None,
        }
    }

    /// Returns `true` if every internal node's height is at least as large
    /// as both of its children's heights (the standard dendrogram
    /// monotonicity requirement discussed in §V-D).
    pub fn is_monotone(&self) -> bool {
        self.internal_nodes().all(|id| {
            let node = &self.nodes[id];
            let hl = self.nodes[node.left.expect("internal node")].height;
            let hr = self.nodes[node.right.expect("internal node")].height;
            node.height + 1e-12 >= hl && node.height + 1e-12 >= hr
        })
    }

    /// Cuts the dendrogram so that exactly `k` clusters remain (or as many
    /// as possible if fewer than `k` leaves / merges exist), returning a
    /// cluster label in `0..k` for every leaf.
    ///
    /// The cut applies the `n − k` merges with the smallest heights (ties
    /// broken by creation order, so children are always applied before their
    /// parents when heights are equal), which for monotone dendrograms is
    /// equivalent to removing the `k − 1` highest merges.
    pub fn cut_to_clusters(&self, k: usize) -> Vec<usize> {
        let n = self.num_leaves;
        if n == 0 {
            return Vec::new();
        }
        let k = k.max(1);
        let mut internal: Vec<usize> = self.internal_nodes().collect();
        internal.sort_by(|&a, &b| {
            self.nodes[a]
                .height
                .total_cmp(&self.nodes[b].height)
                .then(a.cmp(&b))
        });
        let merges_to_apply = internal.len().saturating_sub(k.saturating_sub(1));
        let mut applied = vec![false; self.nodes.len()];
        for &id in internal.iter().take(merges_to_apply) {
            applied[id] = true;
        }
        // `top[v]` is the highest node reached from `v` through applied
        // merges only: an applied parent joins its children's clusters,
        // an unapplied one leaves them apart. `merge` gives a parent a
        // larger id than its children, so one pass in decreasing id order
        // sets every parent's entry before its children read it.
        let mut top: Vec<usize> = (0..self.nodes.len()).collect();
        for v in (0..self.nodes.len()).rev() {
            if let Some(parent) = self.nodes[v].parent.filter(|&p| applied[p]) {
                top[v] = top[parent];
            }
        }
        // Clusters are numbered in order of their first leaf.
        let mut label_of_top = vec![usize::MAX; self.nodes.len()];
        let mut next = 0;
        top[..n]
            .iter()
            .map(|&t| {
                if label_of_top[t] == usize::MAX {
                    label_of_top[t] = next;
                    next += 1;
                }
                label_of_top[t]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds the dendrogram ((0,1)@1, (2,3)@2)@4 over 4 leaves.
    fn small_dendrogram() -> Dendrogram {
        let mut d = Dendrogram::new(4);
        let a = d.merge(0, 1, 1.0);
        let b = d.merge(2, 3, 2.0);
        d.merge(a, b, 4.0);
        d
    }

    #[test]
    fn merge_builds_binary_tree() {
        let d = small_dendrogram();
        assert_eq!(d.len(), 7);
        assert_eq!(d.root(), Some(6));
        assert_eq!(d.node(6).size, 4);
        assert!(d.is_monotone());
        // Node 4 joins leaves 0 and 1; the root joins nodes 4 and 5.
        assert_eq!((d.node(4).left, d.node(4).right), (Some(0), Some(1)));
        assert_eq!((d.node(6).left, d.node(6).right), (Some(4), Some(5)));
        assert_eq!(d.node(0).parent, Some(4));
    }

    #[test]
    fn cut_to_two_clusters() {
        let d = small_dendrogram();
        let labels = d.cut_to_clusters(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cut_to_one_and_many_clusters() {
        let d = small_dendrogram();
        let one = d.cut_to_clusters(1);
        assert!(one.iter().all(|&l| l == one[0]));
        let four = d.cut_to_clusters(4);
        let mut distinct = four.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
        // Asking for more clusters than leaves degrades gracefully.
        let many = d.cut_to_clusters(10);
        let mut distinct = many;
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn root_is_none_until_fully_merged() {
        let mut d = Dendrogram::new(3);
        assert_eq!(d.root(), None);
        let a = d.merge(0, 1, 1.0);
        assert_eq!(d.root(), None);
        d.merge(a, 2, 2.0);
        assert_eq!(d.root(), Some(4));
    }

    #[test]
    fn set_height_can_break_and_restore_monotonicity() {
        let mut d = small_dendrogram();
        d.set_height(6, 0.5);
        assert!(!d.is_monotone());
        d.set_height(6, 10.0);
        assert!(d.is_monotone());
    }

    #[test]
    #[should_panic]
    fn double_merge_panics() {
        let mut d = Dendrogram::new(3);
        d.merge(0, 1, 1.0);
        d.merge(0, 2, 2.0);
    }

    #[test]
    fn empty_dendrogram() {
        let d = Dendrogram::new(0);
        assert!(d.is_empty());
        assert_eq!(d.cut_to_clusters(3), Vec::<usize>::new());
    }

    #[test]
    fn singleton_dendrogram() {
        let d = Dendrogram::new(1);
        assert_eq!(d.root(), Some(0));
        assert_eq!(d.cut_to_clusters(1), vec![0]);
    }

    /// The cut as a union–find over every node: each of the `n − k`
    /// lowest merges joins its node with both children, and the leaves'
    /// sets are numbered in order of first appearance.
    fn cut_by_union_find(d: &Dendrogram, k: usize) -> Vec<usize> {
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut internal: Vec<usize> = d.internal_nodes().collect();
        internal.sort_by(|&a, &b| {
            let (ha, hb) = (d.node(a).height, d.node(b).height);
            ha.total_cmp(&hb).then(a.cmp(&b))
        });
        let apply = internal.len().saturating_sub(k.max(1) - 1);
        let mut parent: Vec<usize> = (0..d.len()).collect();
        for &id in &internal[..apply] {
            let node = d.node(id);
            for child in [node.left, node.right].into_iter().flatten() {
                let (a, b) = (find(&mut parent, id), find(&mut parent, child));
                parent[a] = b;
            }
        }
        let mut label_of_root = vec![usize::MAX; d.len()];
        let mut next = 0;
        (0..d.num_leaves())
            .map(|leaf| {
                let root = find(&mut parent, leaf);
                if label_of_root[root] == usize::MAX {
                    label_of_root[root] = next;
                    next += 1;
                }
                label_of_root[root]
            })
            .collect()
    }

    #[test]
    fn cut_matches_union_find_on_random_forests() {
        // Random merge trees, some only partly merged, with heights drawn
        // from four values so that ties and non-monotone merges occur;
        // every k from 0 to n + 1.
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let n = rng.gen_range(0..=14usize);
            let mut d = Dendrogram::new(n);
            let mut roots: Vec<usize> = (0..n).collect();
            let merges = rng.gen_range(0..=n.saturating_sub(1));
            for _ in 0..merges {
                let a = roots.swap_remove(rng.gen_range(0..roots.len()));
                let b = roots.swap_remove(rng.gen_range(0..roots.len()));
                let height = rng.gen_range(0..4usize) as f64;
                roots.push(d.merge(a, b, height));
            }
            for k in 0..=n + 1 {
                assert_eq!(
                    d.cut_to_clusters(k),
                    cut_by_union_find(&d, k),
                    "n={n} merges={merges} k={k}"
                );
            }
        }
    }
}
