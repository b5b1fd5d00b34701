//! The bubble tree of a maximal planar graph.
//!
//! A *bubble* is a maximal planar subgraph whose triangles are
//! non-separating, and two bubbles are joined by a tree edge when they
//! share a separating triangle. The tree is rooted, and all descendants of
//! an edge lie on the interior side of its separating triangle: the side
//! away from the root. That invariant is what makes the Θ(n)-work direction
//! computation of Algorithm 3 possible, for both filtered graphs.
//!
//! * The TMFG builds its tree on the fly (Algorithm 2): every inserted
//!   vertex creates exactly one new bubble, the 4-clique formed by the
//!   vertex and the face it was inserted into, and one new tree edge, the
//!   face itself, which becomes a separating triangle.
//! * Any other maximal planar graph, such as a PMFG, gets its tree from
//!   [`crate::dbht::planar_bubbles::decompose`], which reads it off how the
//!   separating triangles nest. Its bubbles can have any number of
//!   vertices.

use crate::face::Triangle;

/// A node of the bubble tree: a maximal planar piece of the graph with no
/// separating triangle, a 4-clique for every TMFG bubble.
#[derive(Debug, Clone)]
pub struct Bubble {
    /// The bubble's vertices, sorted: four for a TMFG bubble.
    pub vertices: Vec<usize>,
    /// Parent bubble in the rooted tree, if any.
    pub parent: Option<usize>,
    /// The separating triangle shared with the parent (the bubble-tree edge
    /// towards the parent). `None` iff this bubble is the root.
    pub parent_triangle: Option<Triangle>,
    /// Children bubbles. A bubble of k vertices has 2k − 4 faces, and each
    /// child hangs off one of them; a non-root bubble's parent triangle is
    /// one more. So a K4 has at most three children, or four at the root.
    pub children: Vec<usize>,
}

impl Bubble {
    /// Returns `true` if `v` is one of the bubble's vertices.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        self.vertices.contains(&v)
    }
}

/// The rooted (initially undirected) bubble tree of a maximal planar graph.
///
/// For a TMFG, bubble 0 always corresponds to the initial 4-clique, but is
/// not necessarily the root: inserting a vertex into the outer face makes
/// the new bubble the parent of the previous root (Algorithm 2, lines
/// 4–7). A decomposed tree is rooted at bubble 0.
#[derive(Debug, Clone)]
pub struct BubbleTree {
    bubbles: Vec<Bubble>,
    root: usize,
    num_vertices: usize,
}

impl BubbleTree {
    /// Creates a bubble tree containing only the initial 4-clique.
    pub fn new(initial_clique: [usize; 4], num_vertices: usize) -> Self {
        let mut vertices = initial_clique.to_vec();
        vertices.sort_unstable();
        Self::from_bubbles(
            vec![Bubble {
                vertices,
                parent: None,
                parent_triangle: None,
                children: Vec::new(),
            }],
            0,
            num_vertices,
        )
    }

    /// A tree from already linked bubbles.
    pub(crate) fn from_bubbles(bubbles: Vec<Bubble>, root: usize, num_vertices: usize) -> Self {
        Self {
            bubbles,
            root,
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

    /// Number of vertices of the underlying graph.
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
    ///
    /// `outer_face` says whether `t` is the TMFG's current outer face; the
    /// builder keeps that face, because only construction has one.
    pub fn insert(
        &mut self,
        v: usize,
        t: Triangle,
        containing_bubble: usize,
        outer_face: bool,
    ) -> usize {
        let new_id = self.bubbles.len();
        let [a, b, c] = t.corners();
        let mut vertices = vec![v, a, b, c];
        vertices.sort_unstable();

        if outer_face {
            // Inserting into the outer face: the new bubble becomes the
            // parent of the current root.
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
    /// bubble has a parent triangle that is shared with its parent, no
    /// bubble has more children than free faces (2k − 4 at the root and
    /// 2k − 5 elsewhere, for k vertices), and the tree is connected.
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
            let faces = (2 * bubble.vertices.len()).saturating_sub(4);
            let max_children = if b == self.root {
                faces
            } else {
                faces.saturating_sub(1)
            };
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
    /// {0,1,2,4}, insert 3 into {0,1,2} (the outer face), then 6 into
    /// {0,1,3} (the outer face after that insertion) and 5 into {1,2,3}.
    fn paper_example_tree() -> BubbleTree {
        let mut tree = BubbleTree::new([0, 1, 2, 4], 7);
        // b1 = {0,1,2,4} is bubble 0.
        let b2 = tree.insert(3, Triangle::new(0, 1, 2), 0, true);
        assert_eq!(tree.root(), b2);
        let b3 = tree.insert(6, Triangle::new(0, 1, 3), b2, true);
        let b4 = tree.insert(5, Triangle::new(1, 2, 3), b2, false);
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
        let mut tree = BubbleTree::new([0, 1, 2, 3], 6);
        // Insert into an inner face: root unchanged.
        let b = tree.insert(4, Triangle::new(1, 2, 3), 0, false);
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.bubble(b).parent, Some(0));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn child_bound_follows_the_face_count() {
        // A K4 root has four faces, so a fifth child breaks the bound.
        let mut tree = BubbleTree::new([0, 1, 2, 3], 9);
        for (v, [a, b, c]) in [
            (4, [0, 1, 2]),
            (5, [0, 1, 3]),
            (6, [0, 2, 3]),
            (7, [1, 2, 3]),
        ] {
            tree.insert(v, Triangle::new(a, b, c), 0, false);
        }
        tree.check_invariants().unwrap();
        tree.insert(8, Triangle::new(0, 1, 2), 0, false);
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("5 children (max 4)"), "{err}");
        // A six-vertex root bubble has eight faces.
        let wide = BubbleTree::from_bubbles(
            vec![Bubble {
                vertices: (0..6).collect(),
                parent: None,
                parent_triangle: None,
                children: Vec::new(),
            }],
            0,
            6,
        );
        wide.check_invariants().unwrap();
    }

    #[test]
    fn single_bubble_invariants() {
        let tree = BubbleTree::new([2, 0, 3, 1], 4);
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(depth(&tree, 0), 0);
        assert_eq!(tree.bubble(0).vertices, [0, 1, 2, 3]);
        assert!(!tree.is_empty());
    }
}
