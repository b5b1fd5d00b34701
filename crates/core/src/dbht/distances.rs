//! The demand-driven distance store the DBHT back half runs on.
//!
//! The full `n²` APSP matrix (Algorithm 4, line 7) is mostly dead weight:
//! after the vertex assignment, the hierarchy only ever reads
//!
//! * **intra-group pairs** — complete linkage inside each first-level
//!   group (levels 1 and 2 of the hierarchy), and
//! * **bubble-tree paths** — distances between the converging bubbles'
//!   vertices, which anchor the level-3 inter-group linkage and the
//!   mean-distance assignment of vertices outside converging bubbles.
//!
//! [`DbhtDistances`] stitches the two demand-driven stores from
//! `pfg_graph` together: [`GroupBlocks`] (per-group dense blocks, bitwise
//! equal to the full-APSP entries for the same pairs) and [`SourceRows`]
//! (full Dijkstra rows anchored at every converging-bubble vertex). A read
//! outside both stores panics — that panic is the proof obligation that
//! the DBHT really only consumes the distances it declared, and it is what
//! the differential suite in `tests/dbht_parallel.rs` leans on.

use pfg_graph::{GroupBlocks, PairDistances, SourceRows};

/// Restricted shortest-path distances: group blocks first, converging-
/// bubble source rows second.
#[derive(Debug, Clone)]
pub struct DbhtDistances {
    /// Full rows for every converging-bubble vertex.
    pub rows: SourceRows,
    /// Dense intra-group blocks keyed by the vertex assignment's groups.
    pub blocks: GroupBlocks,
}

impl PairDistances for DbhtDistances {
    fn pair(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        if self.blocks.same_group(u, v) {
            // Intra-group: bitwise equal to the dense APSP entry.
            self.blocks.pair(u, v)
        } else {
            // Cross-group reads are only legal when at least one endpoint
            // is a converging-bubble vertex; SourceRows panics otherwise.
            self.rows.pair(u, v)
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.rows.num_vertices()
    }
}
