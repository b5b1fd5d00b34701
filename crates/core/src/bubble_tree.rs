//! The bubble tree built on the fly during TMFG construction (Algorithm 2).
//!
//! A *bubble* is a maximal planar subgraph whose triangles are
//! non-separating; for a TMFG every inserted vertex creates exactly one new
//! bubble (the 4-clique formed by the vertex and the face it was inserted
//! into) and one new bubble-tree edge (the face itself, which becomes a
//! separating triangle). The tree is rooted and maintains the invariant
//! that all descendants of an edge lie on the interior side of its
//! separating triangle, which is what makes the linear-work direction
//! computation of Algorithm 3 possible.

use crate::face::Triangle;

/// A node of the bubble tree: a 4-clique of the TMFG.
#[derive(Debug, Clone)]
pub struct Bubble {
    /// The four vertices of the clique (sorted).
    pub vertices: [usize; 4],
    /// Parent bubble in the rooted tree, if any.
    pub parent: Option<usize>,
    /// The separating triangle shared with the parent (the bubble-tree edge
    /// towards the parent). `None` iff this bubble is the root.
    pub parent_triangle: Option<Triangle>,
    /// Children bubbles. Every non-root bubble has at most three children;
    /// the root can have up to four.
    pub children: Vec<usize>,
}

impl Bubble {
    /// Returns `true` if `v` is one of the bubble's four vertices.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        self.vertices.contains(&v)
    }
}

/// The rooted (initially undirected) bubble tree of a TMFG.
///
/// Bubble 0 always corresponds to the initial 4-clique, but is not
/// necessarily the root: inserting a vertex into the outer face makes the
/// new bubble the parent of the previous root (Algorithm 2, lines 4–7).
#[derive(Debug, Clone)]
pub struct BubbleTree {
    bubbles: Vec<Bubble>,
    root: usize,
    outer_face: Triangle,
    num_vertices: usize,
}

impl BubbleTree {
    /// Creates a bubble tree containing only the initial 4-clique.
    /// `outer_face` must be a face of that clique; the paper chooses
    /// `{v1, v2, v3}` (the choice does not affect the tree's topology).
    pub fn new(initial_clique: [usize; 4], outer_face: Triangle, num_vertices: usize) -> Self {
        debug_assert!(
            outer_face
                .corners()
                .iter()
                .all(|c| initial_clique.contains(c)),
            "outer face must be a face of the initial clique"
        );
        let mut vertices = initial_clique;
        vertices.sort_unstable();
        Self {
            bubbles: vec![Bubble {
                vertices,
                parent: None,
                parent_triangle: None,
                children: Vec::new(),
            }],
            root: 0,
            outer_face,
            num_vertices,
        }
    }

    /// Number of bubbles.
    #[inline]
    pub fn len(&self) -> usize {
        self.bubbles.len()
    }

    /// Returns `true` if the tree has no bubbles (never the case after
    /// construction; provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bubbles.is_empty()
    }

    /// The root bubble's identifier.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// The current outer face of the TMFG under construction.
    #[inline]
    pub fn outer_face(&self) -> Triangle {
        self.outer_face
    }

    /// Number of vertices of the underlying TMFG.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Access a bubble by id.
    #[inline]
    pub fn bubble(&self, id: usize) -> &Bubble {
        &self.bubbles[id]
    }

    /// `UpdateBubbleTree(v, t, T)` from Algorithm 2: vertex `v` was inserted
    /// into face `t`, which lies in bubble `containing_bubble`. Creates the
    /// new bubble and links it into the tree. Returns the new bubble's id.
    pub fn insert(&mut self, v: usize, t: Triangle, containing_bubble: usize) -> usize {
        let new_id = self.bubbles.len();
        let [a, b, c] = t.corners();
        let mut vertices = [v, a, b, c];
        vertices.sort_unstable();

        if t == self.outer_face {
            // Inserting into the outer face: the new bubble becomes the
            // parent of the current root, and the outer face advances to a
            // face of the new 4-clique.
            debug_assert_eq!(
                containing_bubble, self.root,
                "outer face must be in the root bubble"
            );
            let new_bubble = Bubble {
                vertices,
                parent: None,
                parent_triangle: None,
                children: vec![containing_bubble],
            };
            self.bubbles.push(new_bubble);
            self.bubbles[containing_bubble].parent = Some(new_id);
            self.bubbles[containing_bubble].parent_triangle = Some(t);
            self.root = new_id;
            self.outer_face = Triangle::new(v, a, b);
        } else {
            let new_bubble = Bubble {
                vertices,
                parent: Some(containing_bubble),
                parent_triangle: Some(t),
                children: Vec::new(),
            };
            self.bubbles.push(new_bubble);
            self.bubbles[containing_bubble].children.push(new_id);
        }
        new_id
    }

    /// Checks the structural invariants of the tree (used by tests and
    /// debug assertions): parent/child links are consistent, every non-root
    /// bubble has a parent triangle that is shared with its parent, the
    /// child count bounds hold, and the tree is connected.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.bubbles.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        if self.bubbles[self.root].parent.is_some() {
            return Err("root must not have a parent".into());
        }
        while let Some(b) = stack.pop() {
            if seen[b] {
                return Err(format!("bubble {b} reachable twice: not a tree"));
            }
            seen[b] = true;
            let bubble = &self.bubbles[b];
            let max_children = if b == self.root { 4 } else { 3 };
            if bubble.children.len() > max_children {
                return Err(format!(
                    "bubble {b} has {} children (max {max_children})",
                    bubble.children.len()
                ));
            }
            for &c in &bubble.children {
                let child = &self.bubbles[c];
                if child.parent != Some(b) {
                    return Err(format!("child {c} of {b} has parent {:?}", child.parent));
                }
                let t = child
                    .parent_triangle
                    .ok_or_else(|| format!("child {c} lacks a parent triangle"))?;
                for corner in t.corners() {
                    if !bubble.contains(corner) || !child.contains(corner) {
                        return Err(format!(
                            "separating triangle {t} of edge ({c}, {b}) not shared by both bubbles"
                        ));
                    }
                }
                stack.push(c);
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("bubble tree is not connected".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces Example 1 / Figure 2 of the paper: start with the clique
    /// {0,1,2,4}, insert 3 into {0,1,2} (the outer face), then 5 into
    /// {1,2,3} and 6 into {0,1,3}.
    fn paper_example_tree() -> BubbleTree {
        let outer = Triangle::new(0, 1, 2);
        let mut tree = BubbleTree::new([0, 1, 2, 4], outer, 7);
        // b1 = {0,1,2,4} is bubble 0.
        let b2 = tree.insert(3, Triangle::new(0, 1, 2), 0);
        // After inserting into the outer face, the outer face becomes {3,0,1}.
        assert_eq!(tree.outer_face(), Triangle::new(0, 1, 3));
        let b3 = tree.insert(6, Triangle::new(0, 1, 3), b2);
        let b4 = tree.insert(5, Triangle::new(1, 2, 3), b2);
        assert_eq!((b2, b3, b4), (1, 2, 3));
        tree
    }

    #[test]
    fn paper_example_structure() {
        let tree = paper_example_tree();
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 4);
        // b3 = {0,1,3,6} is the root (it absorbed the outer face twice).
        assert_eq!(tree.root(), 2);
        assert_eq!(tree.bubble(2).vertices, [0, 1, 3, 6]);
        // b2 = {0,1,2,3} is the child of b3 and parent of b1 and b4.
        let b2 = tree.bubble(1);
        assert_eq!(b2.vertices, [0, 1, 2, 3]);
        assert_eq!(b2.parent, Some(2));
        assert_eq!(b2.parent_triangle, Some(Triangle::new(0, 1, 3)));
        let mut children = b2.children.clone();
        children.sort_unstable();
        assert_eq!(children, vec![0, 3]);
        // b1 = {0,1,2,4} hangs off b2 via triangle {0,1,2}.
        let b1 = tree.bubble(0);
        assert_eq!(b1.parent, Some(1));
        assert_eq!(b1.parent_triangle, Some(Triangle::new(0, 1, 2)));
        // b4 = {1,2,3,5} hangs off b2 via triangle {1,2,3}.
        let b4 = tree.bubble(3);
        assert_eq!(b4.vertices, [1, 2, 3, 5]);
        assert_eq!(b4.parent, Some(1));
        assert_eq!(b4.parent_triangle, Some(Triangle::new(1, 2, 3)));
    }

    /// Edges on the path from bubble `b` up to the root.
    fn depth(tree: &BubbleTree, mut b: usize) -> usize {
        let mut edges = 0;
        while let Some(parent) = tree.bubble(b).parent {
            b = parent;
            edges += 1;
        }
        edges
    }

    #[test]
    fn height_and_vertex_membership() {
        let tree = paper_example_tree();
        // The longest root-to-leaf path has two edges: b3 → b2 → {b1, b4}.
        let height = (0..tree.len()).map(|b| depth(&tree, b)).max();
        assert_eq!(height, Some(2));
        let bubbles_with = |v: usize| -> Vec<usize> {
            (0..tree.len())
                .filter(|&b| tree.bubble(b).contains(v))
                .collect()
        };
        // Vertex 1 is in every bubble.
        assert_eq!(bubbles_with(1).len(), 4);
        // Vertex 4 is only in bubble 0, vertex 6 only in bubble 2.
        assert_eq!(bubbles_with(4), vec![0]);
        assert_eq!(bubbles_with(6), vec![2]);
    }

    #[test]
    fn inner_face_insert_keeps_root() {
        let outer = Triangle::new(0, 1, 2);
        let mut tree = BubbleTree::new([0, 1, 2, 3], outer, 6);
        // Insert into an inner face: root unchanged.
        let b = tree.insert(4, Triangle::new(1, 2, 3), 0);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.bubble(b).parent, Some(0));
        assert_eq!(tree.outer_face(), outer);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn single_bubble_invariants() {
        let tree = BubbleTree::new([2, 0, 3, 1], Triangle::new(0, 1, 2), 4);
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(depth(&tree, 0), 0);
        assert_eq!(tree.bubble(0).vertices, [0, 1, 2, 3]);
        assert!(!tree.is_empty());
    }
}
