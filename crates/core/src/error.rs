//! Error types for the filtered-graph construction and DBHT pipeline.

use std::fmt;

/// Errors produced by TMFG/PMFG construction and the DBHT pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The input matrix has fewer than four vertices; TMFG/PMFG start from a
    /// 4-clique and are undefined below that.
    TooFewVertices {
        /// Number of vertices supplied.
        got: usize,
    },
    /// The similarity and dissimilarity matrices have different sizes.
    DimensionMismatch {
        /// Size of the similarity matrix.
        similarity: usize,
        /// Size of the dissimilarity matrix.
        dissimilarity: usize,
    },
    /// The prefix size must be at least 1.
    InvalidPrefix,
    /// The PMFG batch schedule is invalid: the initial batch must be at
    /// least 1 and no larger than the maximum batch.
    InvalidBatch,
    /// The similarity matrix contains a non-finite (NaN or ±∞) entry.
    /// TMFG: NaN gains are never selected by the batch selector, and an
    /// infinity of either sign can produce them (∞ − ∞), so a vertex whose
    /// gains are all NaN could never be inserted. PMFG: a NaN would rank
    /// as a heavy edge and an infinity would make the edge-weight sum
    /// infinite. Both reject the input up front instead.
    NonFiniteSimilarity {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A filtered-graph edge has a NaN, negative or infinite dissimilarity.
    /// The DBHT's shortest paths need finite, non-negative edge lengths:
    /// Dijkstra is wrong on a negative one, and a NaN or infinite one would
    /// poison or cut the paths through the edge. Only the `3n − 6` edge
    /// lengths are read, so entries off the graph are never checked.
    InvalidDissimilarity {
        /// Smaller endpoint of the offending edge.
        u: usize,
        /// Larger endpoint of the offending edge.
        v: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TooFewVertices { got } => {
                write!(f, "filtered graphs require at least 4 vertices, got {got}")
            }
            CoreError::DimensionMismatch {
                similarity,
                dissimilarity,
            } => write!(
                f,
                "similarity matrix is {similarity}x{similarity} but dissimilarity matrix is {dissimilarity}x{dissimilarity}"
            ),
            CoreError::InvalidPrefix => write!(f, "prefix size must be at least 1"),
            CoreError::InvalidBatch => write!(
                f,
                "PMFG batch schedule is invalid: need 1 <= batch.initial <= batch.cap"
            ),
            CoreError::NonFiniteSimilarity { row, col } => {
                write!(f, "similarity matrix entry ({row}, {col}) is not finite")
            }
            CoreError::InvalidDissimilarity { u, v } => write!(
                f,
                "dissimilarity of edge ({u}, {v}) is not a finite non-negative number"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CoreError::TooFewVertices { got: 2 };
        assert!(e.to_string().contains("at least 4"));
        let e = CoreError::DimensionMismatch {
            similarity: 5,
            dissimilarity: 6,
        };
        assert!(e.to_string().contains("5x5"));
        assert!(CoreError::InvalidPrefix.to_string().contains("prefix"));
        assert!(CoreError::InvalidBatch.to_string().contains("batch"));
        let e = CoreError::NonFiniteSimilarity { row: 1, col: 3 };
        assert!(e.to_string().contains("(1, 3) is not finite"));
        let e = CoreError::InvalidDissimilarity { u: 0, v: 3 };
        assert!(e
            .to_string()
            .contains("edge (0, 3) is not a finite non-negative"));
    }
}
