//! Triangular faces of the planar graphs under construction.

/// A triangular face `{a, b, c}` of the filtered graph, stored with its
/// corners sorted so that two triangles compare equal iff they contain the
/// same vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triangle {
    corners: [usize; 3],
}

impl Triangle {
    /// Creates the triangle `{a, b, c}`.
    ///
    /// # Panics
    /// Panics if the three vertices are not distinct.
    pub fn new(a: usize, b: usize, c: usize) -> Self {
        assert!(
            a != b && b != c && a != c,
            "triangle corners must be distinct"
        );
        let mut corners = [a, b, c];
        corners.sort_unstable();
        Self { corners }
    }

    /// The sorted corners of the triangle.
    #[inline]
    pub fn corners(&self) -> [usize; 3] {
        self.corners
    }

    /// Returns `true` if `v` is a corner of this triangle.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        self.corners.contains(&v)
    }

    /// The three triangles obtained by replacing one corner with `v`
    /// (i.e. the new faces created when `v` is inserted into this face).
    pub fn split_with(&self, v: usize) -> [Triangle; 3] {
        let [a, b, c] = self.corners;
        [
            Triangle::new(v, a, b),
            Triangle::new(v, b, c),
            Triangle::new(v, a, c),
        ]
    }
}

impl std::fmt::Display for Triangle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{{}, {}, {}}}",
            self.corners[0], self.corners[1], self.corners[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangles_are_order_independent() {
        assert_eq!(Triangle::new(3, 1, 2), Triangle::new(2, 3, 1));
        assert_eq!(Triangle::new(0, 5, 9).corners(), [0, 5, 9]);
    }

    #[test]
    #[should_panic]
    fn degenerate_triangle_panics() {
        Triangle::new(1, 1, 2);
    }

    #[test]
    fn contains_checks_the_corners() {
        let t = Triangle::new(0, 1, 2);
        assert!(t.contains(1));
        assert!(!t.contains(3));
    }

    #[test]
    fn split_produces_three_new_faces() {
        let t = Triangle::new(0, 1, 2);
        let faces = t.split_with(5);
        assert!(faces.contains(&Triangle::new(5, 0, 1)));
        assert!(faces.contains(&Triangle::new(5, 1, 2)));
        assert!(faces.contains(&Triangle::new(5, 0, 2)));
    }

    #[test]
    fn display_is_sorted() {
        assert_eq!(Triangle::new(2, 0, 1).to_string(), "{0, 1, 2}");
    }
}
