//! The Directed Bubble Hierarchy Tree (DBHT) clustering algorithm (§V).
//!
//! Given a filtered graph (a TMFG or any maximal planar graph such as a
//! PMFG), its bubble tree, and a dissimilarity measure, the DBHT produces a
//! dendrogram in four steps:
//!
//! 1. [`direction`] — direct the bubble-tree edges by comparing, for each
//!    separating triangle, the weight of its connections to the interior
//!    and exterior (Algorithm 3; Θ(n) work for TMFG-built bubble trees,
//!    with a quadratic reference implementation for arbitrary planar
//!    graphs);
//! 2. [`assignment`] — assign every vertex to a converging bubble (its
//!    *group*) and to a bubble (Algorithm 4, lines 1–23);
//! 3. [`hierarchy`] — build the three-level complete-linkage hierarchy
//!    (intra-bubble, inter-bubble, inter-group; Algorithm 4, lines 24–33)
//!    with an exact nearest-neighbor-chain engine, one pool job per group;
//! 4. height re-assignment (§V-D) so that all single-group subtrees end at
//!    the same height.
//!
//! The shortest-path input (Algorithm 4, line 7) is *not* the full `n²`
//! APSP matrix: [`distances`] assembles the demand-driven restricted store
//! — full Dijkstra rows for the converging-bubble vertices (which is all
//! the assignment phase reads) plus dense intra-group blocks (which is all
//! the hierarchy reads within groups) — cutting the distance output to
//! `O(Σ group² + |conv|·n)`. [`DbhtRunStats`] reports what fraction of
//! `n²` that actually was. Both parts run the one Dijkstra engine of
//! [`pfg_graph::shortest_paths`]; the full APSP, where a test or bench
//! needs it, is [`SourceRows`] with every vertex a source.
//!
//! One private function, `run_back_half`, runs this stage sequence —
//! direction, checked edge lengths, source rows, assignment, group blocks,
//! hierarchy — for [`dbht_for_tmfg`], [`dbht_for_planar_graph`] and
//! [`crate::ParTdbht`]. It times each stage into a [`StageTimings`]
//! through the pipeline's report-only timer, and it is the one place that
//! builds [`DbhtRunStats`].
//!
//! [`planar_bubbles`] implements the original (quadratic) bubble
//! decomposition of an arbitrary maximal planar graph, which is what the
//! PMFG+DBHT baseline uses and what the TMFG fast path is validated
//! against.

pub mod assignment;
pub mod bubble_graph;
pub mod direction;
pub mod distances;
pub mod hierarchy;
pub mod planar_bubbles;

use pfg_graph::{GroupBlocks, PairDistances, SourceRows, WeightedGraph};

use crate::dendrogram::Dendrogram;
use crate::error::CoreError;
use crate::pipeline::{timed, StageTimings};
use crate::tmfg::Tmfg;

pub use assignment::VertexAssignment;
pub use bubble_graph::DirectedBubbleGraph;
pub use distances::DbhtDistances;
pub use hierarchy::build_hierarchy;

/// Per-stage counters of one DBHT run: how many HAC merges ran and how
/// much of the dense APSP the restricted distance store replaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbhtRunStats {
    /// HAC merge steps across all linkage runs. The nearest-neighbor chain
    /// merges one pair per step, so this always equals `hac_merges`.
    pub hac_rounds: usize,
    /// HAC merges across all linkage runs: the dendrogram's internal
    /// nodes, one per merge, so `n − 1` for the complete dendrogram over
    /// `n` vertices.
    pub hac_merges: usize,
    /// Distance entries the restricted APSP materialised.
    pub apsp_pairs_computed: usize,
    /// Entries the dense APSP would have materialised (`n²`).
    pub apsp_pairs_full: usize,
    /// Converging-bubble vertices with a full Dijkstra row.
    pub apsp_source_rows: usize,
}

impl DbhtRunStats {
    /// Fraction of the dense `n²` distance output actually computed.
    pub fn restricted_fraction(&self) -> f64 {
        if self.apsp_pairs_full == 0 {
            0.0
        } else {
            self.apsp_pairs_computed as f64 / self.apsp_pairs_full as f64
        }
    }
}

/// The full DBHT output.
#[derive(Debug, Clone)]
pub struct Dbht {
    /// The dendrogram with DBHT height assignment.
    pub dendrogram: Dendrogram,
    /// The directed bubble graph used to produce it.
    pub bubble_graph: DirectedBubbleGraph,
    /// The per-vertex group (converging bubble) and bubble assignments.
    pub assignment: VertexAssignment,
    /// HAC and restricted-APSP counters of this run.
    pub stats: DbhtRunStats,
}

/// Runs the DBHT on a TMFG, using the fast Θ(n)-work direction computation
/// enabled by the bubble tree built during TMFG construction.
///
/// `dissimilarity` supplies the edge lengths for the shortest-path
/// computations (the paper uses `d = sqrt(2 (1 − ρ))` for correlations).
/// Any [`PairDistances`] works — the dense matrix, or a zero-allocation
/// view like [`pfg_graph::DissimilarityView`]: the DBHT only ever reads
/// the `3n − 6` filtered-graph edges from it.
///
/// # Errors
/// Returns [`CoreError::DimensionMismatch`] if the dissimilarity matrix
/// size differs from the graph's vertex count, and
/// [`CoreError::InvalidDissimilarity`] if an edge length is NaN,
/// negative or infinite.
pub fn dbht_for_tmfg<D: PairDistances>(tmfg: &Tmfg, dissimilarity: &D) -> Result<Dbht, CoreError> {
    run_back_half(
        &tmfg.graph,
        || direction::direct_tmfg_bubble_tree(&tmfg.bubble_tree, &tmfg.graph),
        dissimilarity,
        &mut StageTimings::default(),
    )
}

/// Runs the DBHT on an arbitrary maximal planar graph (e.g. a PMFG), using
/// the original quadratic bubble decomposition and direction computation.
///
/// # Errors
/// Returns [`CoreError::DimensionMismatch`] if the dissimilarity matrix
/// size differs from the graph's vertex count,
/// [`CoreError::TooFewVertices`] if the graph has fewer than 4 vertices,
/// and [`CoreError::InvalidDissimilarity`] if an edge length is NaN,
/// negative or infinite.
pub fn dbht_for_planar_graph<D: PairDistances>(
    graph: &WeightedGraph,
    dissimilarity: &D,
) -> Result<Dbht, CoreError> {
    let n = graph.num_vertices();
    if n < 4 {
        return Err(CoreError::TooFewVertices { got: n });
    }
    run_back_half(
        graph,
        || direction::direct_generic(&planar_bubbles::decompose(graph), graph),
        dissimilarity,
        &mut StageTimings::default(),
    )
}

/// The dissimilarity-weighted copy of a filtered graph: the metric the
/// DBHT's shortest-path computations run on (Algorithm 4, line 7). Only
/// the graph's `3n − 6` edge distances are read from `dissimilarity`.
pub fn dissimilarity_graph<D: PairDistances>(
    graph: &WeightedGraph,
    dissimilarity: &D,
) -> WeightedGraph {
    let mut dgraph = WeightedGraph::new(graph.num_vertices());
    for (u, v, _) in graph.edges() {
        dgraph.add_edge(u, v, dissimilarity.pair(u, v));
    }
    dgraph
}

/// [`dissimilarity_graph`], rejecting an edge length that is NaN, negative
/// or infinite: the shortest paths need finite, non-negative lengths.
/// Reads only the `3n − 6` edge lengths.
fn checked_dissimilarity_graph<D: PairDistances>(
    graph: &WeightedGraph,
    dissimilarity: &D,
) -> Result<WeightedGraph, CoreError> {
    let dgraph = dissimilarity_graph(graph, dissimilarity);
    let invalid = dgraph
        .edges()
        .find(|&(_, _, w)| !(0.0..f64::INFINITY).contains(&w));
    match invalid {
        Some((u, v, _)) => Err(CoreError::InvalidDissimilarity { u, v }),
        None => Ok(dgraph),
    }
}

/// The sorted union of the converging bubbles' vertices: the source set
/// whose full shortest-path rows the DBHT needs.
pub fn converging_vertices(bubble_graph: &DirectedBubbleGraph) -> Vec<usize> {
    let mut sources: Vec<usize> = bubble_graph
        .converging_bubbles()
        .into_iter()
        .flat_map(|b| bubble_graph.bubble(b).iter().copied())
        .collect();
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// Computes the demand-driven distance store for an already-assigned
/// vertex partition: `rows` must cover the converging-bubble vertices.
pub fn restricted_distances(
    dgraph: &WeightedGraph,
    rows: SourceRows,
    assignment: &VertexAssignment,
) -> DbhtDistances {
    let blocks = GroupBlocks::compute(dgraph, &assignment.group_members());
    DbhtDistances { rows, blocks }
}

/// The DBHT back half, the one place its stages run: `direct` builds the
/// directed bubble graph (Algorithm 3), then come the checked edge
/// lengths, the converging-bubble source rows, the vertex assignment, the
/// per-group blocks and the hierarchy with its height re-assignment. Each
/// stage's wall time is added to its field of `timings` (all but `tmfg`).
pub(crate) fn run_back_half<D: PairDistances>(
    graph: &WeightedGraph,
    direct: impl FnOnce() -> DirectedBubbleGraph,
    dissimilarity: &D,
    timings: &mut StageTimings,
) -> Result<Dbht, CoreError> {
    let n = graph.num_vertices();
    if dissimilarity.num_vertices() != n {
        return Err(CoreError::DimensionMismatch {
            similarity: n,
            dissimilarity: dissimilarity.num_vertices(),
        });
    }
    // Direction first: it determines the converging bubbles and therefore
    // which shortest-path rows are needed at all.
    let bubble_graph = timed(&mut timings.direction, direct);

    // Full rows for the converging-bubble vertices — every distance the
    // assignment phase reads is anchored at one of them.
    let (dgraph, rows) = timed(&mut timings.apsp, || {
        let dgraph = checked_dissimilarity_graph(graph, dissimilarity)?;
        let rows = SourceRows::compute(&dgraph, &converging_vertices(&bubble_graph));
        Ok::<_, CoreError>((dgraph, rows))
    })?;
    let assignment = timed(&mut timings.assignment, || {
        assignment::assign_vertices(graph, &bubble_graph, &rows)
    });

    // Dense blocks for the now-known groups — every remaining hierarchy
    // read is either intra-group or between converging-bubble vertices.
    let distances = timed(&mut timings.apsp, || {
        restricted_distances(&dgraph, rows, &assignment)
    });
    let dendrogram = timed(&mut timings.hierarchy, || {
        hierarchy::build_hierarchy(&bubble_graph, &assignment, &distances)
    });

    let merges = dendrogram.internal_nodes().count();
    let stats = DbhtRunStats {
        hac_rounds: merges,
        hac_merges: merges,
        apsp_pairs_computed: distances.blocks.pairs_computed() + distances.rows.pairs_computed(),
        apsp_pairs_full: n * n,
        apsp_source_rows: distances.rows.sources().len(),
    };
    Ok(Dbht {
        dendrogram,
        bubble_graph,
        assignment,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::SymmetricMatrix;

    /// A 20 × 20 three-block similarity and its dissimilarity.
    fn three_blocks() -> (SymmetricMatrix, SymmetricMatrix) {
        let s = SymmetricMatrix::from_fn(20, |i, j| {
            if i == j {
                1.0
            } else if i % 3 == j % 3 {
                0.8 - 0.01 * ((i + j) % 4) as f64
            } else {
                0.1 + 0.01 * ((i * j) % 3) as f64
            }
        });
        let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
        (s, d)
    }

    #[test]
    fn invalid_edge_dissimilarity_is_rejected() {
        let (s, d) = three_blocks();
        let t = tmfg(&s, TmfgConfig::default()).unwrap();
        assert!(t.graph.has_edge(0, 3), "the probed entry is a TMFG edge");
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut d = d.clone();
            d.set(0, 3, bad);
            let expected = Err(CoreError::InvalidDissimilarity { u: 0, v: 3 });
            assert_eq!(dbht_for_tmfg(&t, &d).map(|_| ()), expected, "{bad}");
            assert_eq!(
                dbht_for_planar_graph(&t.graph, &d).map(|_| ()),
                expected,
                "{bad}"
            );
        }
    }

    #[test]
    fn entries_off_the_graph_are_not_read() {
        let (s, mut d) = three_blocks();
        let t = tmfg(&s, TmfgConfig::default()).unwrap();
        let (u, v) = (0..20)
            .flat_map(|u| (u + 1..20).map(move |v| (u, v)))
            .find(|&(u, v)| !t.graph.has_edge(u, v))
            .expect("a TMFG on 20 vertices is not complete");
        d.set(u, v, f64::NAN);
        let dbht = dbht_for_tmfg(&t, &d).unwrap();
        assert_eq!(dbht.dendrogram.num_leaves(), 20);
        // Zero-length edges are valid too.
        d.set(0, 3, 0.0);
        assert!(dbht_for_tmfg(&t, &d).is_ok());
    }
}
