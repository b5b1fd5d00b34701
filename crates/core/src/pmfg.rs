//! Planar Maximally Filtered Graph (PMFG) construction (§II), as a
//! round-based parallel algorithm.
//!
//! The PMFG considers all pairwise similarities in decreasing order and
//! adds each edge iff the graph remains planar, stopping once the maximal
//! planar edge count `3n − 6` is reached. The sequential baseline
//! ([`pmfg_sequential`]) pays a left–right planarity test per candidate,
//! which is what makes the PMFG orders of magnitude slower than the TMFG
//! — the runtime gap reproduced by the Figure 1/3 experiments. Following
//! the parallel PMFG of Yu & Shun (ICDE 2023), [`pmfg`] attacks that cost
//! with *speculative batches*, and skips the test wherever component
//! counts already decide it:
//!
//! 1. **Parallel phase.** Each round takes the next prefix of the
//!    weight-sorted candidate list and decides every candidate against
//!    the committed graph concurrently: by the component screen of point
//!    4, or by a test through the borrowed one-extra-edge view of
//!    [`pfg_graph::LrScratch`] (one warm scratch per pool worker, zero
//!    allocation and zero graph mutation per test).
//! 2. **Monotone rejection.** Planarity is monotone under edge addition:
//!    a subgraph of a planar graph is planar, so if `G + e` is non-planar
//!    then `G' + e` is non-planar for every supergraph `G' ⊇ G`. A
//!    candidate rejected against the round-start graph would therefore
//!    also be rejected by the sequential algorithm, whose test graph only
//!    ever grows — parallel rejections are **final** and need no retry.
//! 3. **Conflict-graph commit.** Survivors are committed in sorted order,
//!    but only survivors that *conflict* with an edge accepted earlier in
//!    the same round pay a commit-time re-test. The conflict structure is
//!    connected-component independence, tracked by an incremental
//!    union-find with round-stamped components (`RoundDsu`, private to
//!    this module):
//!
//!    A survivor `e = (u, v)` is **clean** when neither `u`'s nor `v`'s
//!    connected component (in the committed graph `G = G₀ + A`, where
//!    `G₀` is the round-start graph and `A` the edges accepted earlier
//!    this round) contains an endpoint of any edge of `A`. Then the
//!    components of `u` and `v` are *exactly* what they were in `G₀` —
//!    no `A`-edge touches them, and component membership only changes by
//!    touching — so the subgraph `G + e` adds `e` into is identical to
//!    the one `G₀ + e` adds it into. Planarity is decided per connected
//!    component (a graph is planar iff each component is), every other
//!    component of `G` is planar because `G` is (commits preserve
//!    planarity by construction), and the parallel phase proved
//!    `G₀ + e` planar — so `G + e` is planar and `e` commits **without a
//!    re-test**, matching the sequential decision exactly. A *dirty*
//!    survivor is re-validated against the committed graph (counted in
//!    [`Pmfg::commit_retests`]); that test is the exact test the
//!    sequential algorithm would run, so its accept *and* reject
//!    outcomes are final. Either way the result is **byte-identical** to
//!    [`pmfg_sequential`] at every thread count (the candidate schedule
//!    depends only on the input), which the differential tests pin down.
//!
//!    The shortcut has teeth because the PMFG spends most of its rounds
//!    on a *disconnected* graph: the heaviest `~n ln n / 2` edges arrive
//!    before random-weight components merge (Erdős–Rényi connectivity),
//!    which is most of the `3n − 6` acceptances — exactly the
//!    acceptance-heavy rounds where the old unconditional re-validation
//!    concentrated.
//! 4. **Component screen.** Before any planarity test — in the parallel
//!    phase against the round-start components, and for a dirty survivor
//!    against the current ones — the same union-find decides the
//!    candidate `(u, v)` from component counts when it can:
//!    * `u` and `v` in different components: **planar**, no test. A
//!      bridge between two planar graphs keeps the graph planar.
//!    * both in component `r` with `k ≥ 3` vertices that already holds
//!      `3k − 6` edges: **non-planar**, no test. A simple planar graph on
//!      `k ≥ 3` vertices has at most `3k − 6` edges, and planarity is
//!      decided per component.
//!    * otherwise: a left–right test, which covers only the component
//!      the candidate lands in (see [`LrScratch::stays_planar_with_edge`]).
//!
//!    Both verdicts are exactly what the test would return, so parallel
//!    rejections stay final, dirty survivors still count as commit
//!    re-tests, and the output and counters are unchanged. On clustered
//!    inputs the committed graph stays disconnected until nearly the
//!    last acceptance, and most rejections fall in saturated components:
//!    [`Pmfg::planarity_tests`] counts the tests that still run.
//!
//! The batch size adapts deterministically to the observed rejection rate:
//! early rounds are acceptance-heavy (small batches avoid useless stale
//! tests), late rounds are rejection-heavy (large batches turn almost all
//! tests into final parallel rejections). Candidates are sorted lazily —
//! construction usually stops long before the full `n(n−1)/2` pair list is
//! needed, so only top-weight chunks are ever sorted.

use std::cell::RefCell;
use std::cmp::Ordering;

use pfg_graph::{LrScratch, SimilaritySource, WeightedGraph};
use pfg_primitives::par_sort_unstable_by;
use rayon::prelude::*;

use crate::error::CoreError;
use crate::schedule::BatchSchedule;

thread_local! {
    /// Per-thread planarity scratch for the speculative batch phase. Pool
    /// workers are persistent, so each worker warms one scratch and then
    /// reuses it for every test of every round of every construction that
    /// runs on that worker.
    static SPECULATIVE_SCRATCH: RefCell<LrScratch> = RefCell::new(LrScratch::new());
}

/// Result of PMFG construction.
#[derive(Debug, Clone)]
pub struct Pmfg {
    /// The filtered graph with similarity edge weights.
    pub graph: WeightedGraph,
    /// Number of candidate edges whose planarity was decided. The parallel
    /// builder speculatively tests whole batches, so this can exceed the
    /// sequential builder's count by up to one round's tail (candidates
    /// past the point where the graph became maximal).
    pub candidates_examined: usize,
    /// Total rejected candidates: speculative (parallel-phase) rejections
    /// plus commit-time rejections.
    pub rejections: usize,
    /// Rounds of the batched parallel loop (`0` for [`pmfg_sequential`]).
    pub rounds: usize,
    /// Rejections decided in a parallel phase, against the round-start
    /// graph. Final by monotonicity of planarity under edge addition.
    /// `parallel_rejections / rejections` measures how much of the
    /// rejection work — the bulk of PMFG's cost — left the critical path.
    pub parallel_rejections: usize,
    /// Commit-time planarity re-tests: survivors whose connected
    /// component was touched by an earlier acceptance of the same round
    /// (the conflict-graph commit's *dirty* case — see the module docs).
    /// Clean survivors commit with no test at all; before the conflict
    /// commit, *every* survivor after a round's first acceptance paid
    /// this test. `0` for [`pmfg_sequential`].
    pub commit_retests: usize,
    /// Left–right planarity tests actually run, in the parallel phases and
    /// at commit. Candidates the component screen decides (module docs,
    /// point 4) run none. Equals `candidates_examined` for
    /// [`pmfg_sequential`], which tests every candidate.
    pub planarity_tests: usize,
}

impl Pmfg {
    /// Sum of the edge weights of the filtered graph.
    pub fn edge_weight_sum(&self) -> f64 {
        self.graph.total_edge_weight()
    }
}

/// Candidate edges in decreasing-weight order, sorted lazily in chunks.
///
/// PMFG construction stops after `3n − 6` acceptances, typically long
/// before the full `n(n−1)/2` pair list is consumed. Instead of sorting
/// everything up front (the previous behavior, `O(n² log n)` even for
/// inputs where construction examines a few percent of the pairs), the
/// stream partitions the next top-weight chunk with `select_nth_unstable`
/// (`O(remaining)`) and sorts only that chunk, doubling the chunk size on
/// each refill. The emitted order is identical to a full sort: the
/// comparator (weight descending, then vertex pair ascending) is a strict
/// total order, so the sorted prefix is unique.
struct CandidateStream<'a, S: SimilaritySource> {
    s: &'a S,
    pairs: Vec<(u32, u32)>,
    /// Next unconsumed position in `pairs`.
    pos: usize,
    /// `pairs[..sorted_end]` is fully sorted; beyond is an unsorted pool
    /// of strictly lighter candidates.
    sorted_end: usize,
    /// Size of the next chunk to carve out of the unsorted pool.
    chunk: usize,
}

/// The candidate order: weight descending under `f64::total_cmp`, then
/// smaller `i`, then smaller `j` (pairs are stored with `i < j`). `Less`
/// means "`a` comes first".
#[inline]
fn candidate_cmp<S: SimilaritySource>(s: &S, a: (u32, u32), b: (u32, u32)) -> Ordering {
    let wa = s.get(a.0 as usize, a.1 as usize);
    let wb = s.get(b.0 as usize, b.1 as usize);
    wb.total_cmp(&wa).then(a.cmp(&b))
}

impl<'a, S: SimilaritySource> CandidateStream<'a, S> {
    fn new(s: &'a S) -> Self {
        let n = s.n();
        let mut pairs = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                pairs.push((i, j));
            }
        }
        // First chunk: a few multiples of the acceptance target (clamped
        // into the schedule's range), so typical constructions refill at
        // most a handful of times.
        let target = 3 * n.saturating_sub(2);
        Self {
            s,
            pairs,
            pos: 0,
            sorted_end: 0,
            chunk: BatchSchedule::CANDIDATE_CHUNK.clamp(4 * target),
        }
    }

    /// Sorts the next chunk of the unsorted pool into `pairs[..sorted_end]`.
    fn extend_sorted(&mut self) {
        let s = self.s;
        let remaining = self.pairs.len() - self.sorted_end;
        let take = self.chunk.min(remaining);
        let pool = &mut self.pairs[self.sorted_end..];
        if take < remaining {
            // Partition the top-weight `take` candidates to the front.
            pool.select_nth_unstable_by(take - 1, |&a, &b| candidate_cmp(s, a, b));
        }
        par_sort_unstable_by(&mut pool[..take], |&a, &b| candidate_cmp(s, a, b));
        self.sorted_end += take;
        self.chunk = BatchSchedule::CANDIDATE_CHUNK.grow(self.chunk);
    }

    /// Returns the next (at most) `k` candidates in decreasing-weight
    /// order, without consuming them. Shorter only when the stream is
    /// nearly exhausted.
    fn peek(&mut self, k: usize) -> &[(u32, u32)] {
        while self.sorted_end < self.pairs.len() && self.pos + k > self.sorted_end {
            self.extend_sorted();
        }
        &self.pairs[self.pos..(self.pos + k).min(self.sorted_end)]
    }

    /// Consumes the first `k` previously peeked candidates.
    fn consume(&mut self, k: usize) {
        self.pos += k;
        debug_assert!(self.pos <= self.sorted_end);
    }
}

/// Builds the PMFG of the similarity matrix `s` with the round-based
/// parallel algorithm.
///
/// The speculative rounds follow one fixed schedule: small first rounds
/// (early rounds accept almost every candidate, and an acceptance can
/// dirty later survivors of its round, so small batches waste less work),
/// doubling on rejection-heavy rounds up to a cap (once rejections
/// dominate, large batches turn almost all tests into final parallel
/// rejections). The schedule is a function of the input only, never of
/// the thread count, so the construction and its counters are
/// deterministic across `RAYON_NUM_THREADS`.
///
/// The constructed graph (edge set, weights, adjacency order) is identical
/// to [`pmfg_sequential`]'s at every thread count; see the module docs for
/// the monotone-rejection argument.
///
/// # Errors
/// Returns [`CoreError::TooFewVertices`] if `s` has fewer than 4 rows, and
/// [`CoreError::NonFiniteSimilarity`] if any off-diagonal entry is NaN or
/// ±∞.
pub fn pmfg<S: SimilaritySource>(s: &S) -> Result<Pmfg, CoreError> {
    check_input(s)?;
    Ok(pmfg_rounds(s, BatchSchedule::PMFG_ROUNDS))
}

/// Rejects inputs below the 4-vertex minimum, and NaN or ±∞ similarities:
/// `total_cmp` ranks a positive NaN above every weight, so it would be
/// kept as a heavy edge, and an infinite weight makes the edge-weight sum
/// infinite.
fn check_input<S: SimilaritySource>(s: &S) -> Result<(), CoreError> {
    let n = s.n();
    if n < 4 {
        return Err(CoreError::TooFewVertices { got: n });
    }
    if let Some((row, col)) = s.find_non_finite() {
        return Err(CoreError::NonFiniteSimilarity { row, col });
    }
    Ok(())
}

/// Incremental union-find over the committed graph's vertices, with
/// round-stamped components and per-component edge counts — the conflict
/// structure of the commit phase and the component screen.
///
/// Components only ever merge (edges are only added), so one structure
/// serves the whole construction. Each acceptance unions its endpoints,
/// counts the edge, and stamps the merged component with the current
/// round id; a survivor is **clean** iff neither endpoint's component
/// carries the current round's stamp, i.e. no edge accepted earlier this
/// round has an endpoint in either component (see the module docs for
/// why clean survivors commit without a re-test). Stamps live on roots
/// and every union re-stamps the winning root, so staleness cannot
/// survive a merge.
///
/// `find` does not compress paths, so the parallel phase can screen
/// candidates through `&self`; union by size keeps every path at most
/// `log₂ n` long.
struct RoundDsu {
    /// Parent forest; roots point at themselves.
    parent: Vec<u32>,
    /// Component size, for union by size (valid at roots).
    size: Vec<u32>,
    /// Committed edges inside the component (valid at roots).
    edges: Vec<u32>,
    /// Id of the last round that accepted an edge with an endpoint in
    /// this component (valid at roots; 0 = never, round ids start at 1).
    stamp: Vec<usize>,
}

impl RoundDsu {
    fn new(n: usize) -> Self {
        RoundDsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            edges: vec![0; n],
            stamp: vec![0; n],
        }
    }

    fn find(&self, mut v: usize) -> usize {
        while self.parent[v] as usize != v {
            v = self.parent[v] as usize;
        }
        v
    }

    /// `true` iff neither endpoint's component was touched by an
    /// acceptance stamped `round`.
    fn is_clean(&self, u: usize, v: usize, round: usize) -> bool {
        self.stamp[self.find(u)] != round && self.stamp[self.find(v)] != round
    }

    /// The component screen (module docs, point 4): `Some(planar)` when
    /// component counts decide whether the committed graph plus `(u, v)`
    /// is planar, `None` when it takes a planarity test.
    fn screen(&self, u: usize, v: usize) -> Option<bool> {
        let r = self.find(u);
        if r != self.find(v) {
            return Some(true);
        }
        let (k, m) = (self.size[r], self.edges[r]);
        (k >= 3 && m + 1 > 3 * k - 6).then_some(false)
    }

    /// Records the acceptance of edge `(u, v)` in `round`: unions the
    /// components, counts the edge and stamps the merged root.
    fn accept(&mut self, u: usize, v: usize, round: usize) {
        let mut ru = self.find(u);
        let mut rv = self.find(v);
        if ru != rv {
            if self.size[ru] < self.size[rv] {
                std::mem::swap(&mut ru, &mut rv);
            }
            self.parent[rv] = ru as u32;
            self.size[ru] += self.size[rv];
            self.edges[ru] += self.edges[rv];
        }
        self.edges[ru] += 1;
        self.stamp[ru] = round;
    }
}

/// Decides whether the committed `graph` plus `(u, v)` is planar: by the
/// component screen when it can, else by a left–right test on `scratch`.
/// Returns the verdict and whether a test ran.
fn decide(
    dsu: &RoundDsu,
    scratch: &mut LrScratch,
    graph: &WeightedGraph,
    u: usize,
    v: usize,
) -> (bool, bool) {
    match dsu.screen(u, v) {
        Some(planar) => (planar, false),
        None => (scratch.stays_planar_with_edge(graph, u, v), true),
    }
}

/// The round loop over the lazily sorted candidate stream, with round
/// sizes from `schedule`.
fn pmfg_rounds<S: SimilaritySource>(s: &S, schedule: BatchSchedule) -> Pmfg {
    debug_assert!(1 <= schedule.initial && schedule.initial <= schedule.cap);
    let n = s.n();
    let mut stream = CandidateStream::new(s);
    let target_edges = 3 * n - 6;
    let mut graph = WeightedGraph::new(n);
    let mut commit_scratch = LrScratch::new();
    let mut dsu = RoundDsu::new(n);
    let mut batch_size = schedule.initial;
    let mut candidates_examined = 0;
    let mut rejections = 0;
    let mut rounds = 0;
    let mut parallel_rejections = 0;
    let mut commit_retests = 0;
    let mut planarity_tests = 0;
    while graph.num_edges() < target_edges {
        let batch = stream.peek(batch_size);
        if batch.is_empty() {
            break; // safety net: a full matrix always reaches 3n − 6 first
        }
        // Parallel phase: speculative verdicts against the committed graph,
        // screened against its components (module docs, point 4).
        // `with_max_len(1)` makes every candidate its own stealable leaf,
        // so even the small early rounds spread across (and steal-balance
        // over) the pool.
        let verdicts: Vec<(bool, bool)> = {
            let (graph, dsu) = (&graph, &dsu);
            batch
                .par_iter()
                .with_max_len(1)
                .map(|&(u, v)| {
                    SPECULATIVE_SCRATCH.with(|scratch| {
                        decide(
                            dsu,
                            &mut scratch.borrow_mut(),
                            graph,
                            u as usize,
                            v as usize,
                        )
                    })
                })
                .collect()
        };
        // Speculative rejections are final (monotonicity): count them all
        // before the commit loop so the counters don't depend on where the
        // graph happens to become maximal inside the batch.
        let round_rejections = verdicts.iter().filter(|&&(ok, _)| !ok).count();
        parallel_rejections += round_rejections;
        rejections += round_rejections;
        planarity_tests += verdicts.iter().filter(|&&(_, tested)| tested).count();
        candidates_examined += batch.len();
        // Commit phase: survivors in sorted order through the conflict
        // structure — only a survivor whose component was touched by an
        // earlier acceptance of this round (dirty) is re-validated; clean
        // survivors commit with no test (module docs, point 3). Round ids
        // start at 1 so the zero-initialised stamps read as "never".
        let round_id = rounds + 1;
        for (k, &(u, v)) in batch.iter().enumerate() {
            if !verdicts[k].0 {
                continue;
            }
            if graph.num_edges() == target_edges {
                break;
            }
            let (u, v) = (u as usize, v as usize);
            let accepted = dsu.is_clean(u, v, round_id) || {
                // The sequential algorithm would have decided this exact
                // candidate against this exact graph: accept and reject
                // outcomes are both final.
                commit_retests += 1;
                let (ok, tested) = decide(&dsu, &mut commit_scratch, &graph, u, v);
                planarity_tests += usize::from(tested);
                ok
            };
            if accepted {
                graph.add_edge(u, v, s.get(u, v));
                dsu.accept(u, v, round_id);
            } else {
                rejections += 1;
            }
        }
        let batch_len = batch.len();
        stream.consume(batch_len);
        rounds += 1;
        // Deterministic growth: once rejections dominate a round, double
        // the batch so the (perfectly parallel, final) rejection tests
        // amortize the round overhead.
        if 2 * round_rejections >= batch_len {
            batch_size = schedule.grow(batch_size);
        }
    }
    Pmfg {
        graph,
        candidates_examined,
        rejections,
        rounds,
        parallel_rejections,
        commit_retests,
        planarity_tests,
    }
}

/// Builds the PMFG one candidate at a time — the paper's sequential
/// baseline, and the reference the parallel builder is differentially
/// tested against.
///
/// Each candidate is tested through the borrowed one-extra-edge view of a
/// single warm [`LrScratch`] (no graph clone, no add/test/remove
/// round-trip, no per-test allocation). There is no component screen:
/// every candidate pays a test, so this is also the reference the
/// screen is tested against.
///
/// # Errors
/// Returns [`CoreError::TooFewVertices`] if `s` has fewer than 4 rows, and
/// [`CoreError::NonFiniteSimilarity`] if any off-diagonal entry is NaN or
/// ±∞.
pub fn pmfg_sequential<S: SimilaritySource>(s: &S) -> Result<Pmfg, CoreError> {
    check_input(s)?;
    let n = s.n();
    let target_edges = 3 * n - 6;
    let mut stream = CandidateStream::new(s);
    let mut scratch = LrScratch::new();
    let mut graph = WeightedGraph::new(n);
    let mut candidates_examined = 0;
    let mut rejections = 0;
    while graph.num_edges() < target_edges {
        let Some(&(u, v)) = stream.peek(1).first() else {
            break;
        };
        stream.consume(1);
        candidates_examined += 1;
        let (u, v) = (u as usize, v as usize);
        if scratch.stays_planar_with_edge(&graph, u, v) {
            graph.add_edge(u, v, s.get(u, v));
        } else {
            rejections += 1;
        }
    }
    Ok(Pmfg {
        graph,
        candidates_examined,
        rejections,
        rounds: 0,
        parallel_rejections: 0,
        commit_retests: 0,
        planarity_tests: candidates_examined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfg_graph::SymmetricMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_similarity(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { rng.gen_range(0.0..1.0) })
    }

    /// A block-structured similarity: high within `num_blocks` equal-sized
    /// clusters, low across, plus seeded jitter so all weights differ.
    fn clustered_similarity(n: usize, num_blocks: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                let base = if i % num_blocks == j % num_blocks {
                    0.8
                } else {
                    0.2
                };
                base + rng.gen_range(0.0..0.1)
            }
        })
    }

    fn edge_list(p: &Pmfg) -> Vec<(usize, usize, u64)> {
        p.graph
            .edges()
            .map(|(u, v, w)| (u, v, w.to_bits()))
            .collect()
    }

    #[test]
    fn rejects_tiny_inputs() {
        let s = SymmetricMatrix::filled(2, 1.0);
        assert!(matches!(pmfg(&s), Err(CoreError::TooFewVertices { .. })));
        assert!(matches!(
            pmfg_sequential(&s),
            Err(CoreError::TooFewVertices { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_similarities() {
        // An 8×8 matrix with one bad entry: NaN used to be kept as an
        // edge (with a NaN weight sum), ±∞ accepted silently.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = random_similarity(8, 41);
            s.set(2, 5, bad);
            let expected = Err(CoreError::NonFiniteSimilarity { row: 2, col: 5 });
            assert_eq!(pmfg(&s).map(|p| p.graph.num_edges()), expected, "{bad}");
            assert_eq!(
                pmfg_sequential(&s).map(|p| p.graph.num_edges()),
                expected,
                "{bad}"
            );
        }
    }

    #[test]
    fn pmfg_is_maximal_planar() {
        for n in [5, 10, 20] {
            let s = random_similarity(n, n as u64);
            let p = pmfg(&s).unwrap();
            assert_eq!(p.graph.num_edges(), 3 * n - 6);
            assert!(pfg_graph::is_planar(&p.graph));
            assert!(p.graph.is_connected());
        }
    }

    #[test]
    fn pmfg_of_five_vertices_drops_exactly_one_edge() {
        // K5 has 10 edges; a maximal planar graph on 5 vertices has 9. The
        // construction either rejects exactly one edge or stops early having
        // accepted the 9 heaviest, in which case the lightest edge is the
        // implicitly dropped one.
        let s = random_similarity(5, 3);
        let p = pmfg(&s).unwrap();
        assert_eq!(p.graph.num_edges(), 9);
        assert!(p.rejections <= 1);
        assert!(p.candidates_examined >= 9 && p.candidates_examined <= 10);
    }

    #[test]
    fn pmfg_keeps_heaviest_edges_greedily() {
        // With uniform weights plus one dominant edge, that edge must be kept.
        let n = 8;
        let mut s = SymmetricMatrix::filled(n, 0.1);
        for i in 0..n {
            s.set(i, i, 1.0);
        }
        s.set(2, 6, 0.99);
        let p = pmfg(&s).unwrap();
        assert!(p.graph.has_edge(2, 6));
    }

    #[test]
    fn pmfg_weight_at_least_tmfg_weight_typically() {
        // PMFG optimizes edge-by-edge and usually retains at least as much
        // total weight as the TMFG (Figure 7 shows ratios close to 1).
        let s = random_similarity(24, 11);
        let p = pmfg(&s).unwrap();
        let t = crate::tmfg::tmfg(&s, crate::tmfg::TmfgConfig::with_prefix(1)).unwrap();
        assert!(p.edge_weight_sum() > 0.9 * t.edge_weight_sum());
    }

    #[test]
    fn edge_weights_match_similarity() {
        let s = random_similarity(12, 5);
        let p = pmfg(&s).unwrap();
        for (u, v, w) in p.graph.edges() {
            assert!((w - s.get(u, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential_at_every_thread_count() {
        // The differential guarantee of the round-based algorithm: the
        // parallel builder's graph is byte-identical to the sequential
        // one's (edges, weights, adjacency order), and its counters are
        // identical across worker counts, for random and clustered inputs.
        for (name, s) in [
            ("random", random_similarity(60, 7)),
            ("clustered", clustered_similarity(48, 4, 21)),
        ] {
            let seq = pmfg_sequential(&s).unwrap();
            let baseline = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| pmfg(&s).unwrap());
            assert_eq!(
                edge_list(&seq),
                edge_list(&baseline),
                "{name}: parallel edge set must equal sequential"
            );
            for threads in [2, 8] {
                let par = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| pmfg(&s).unwrap());
                let ctx = format!("{name}, {threads} threads");
                assert_eq!(edge_list(&baseline), edge_list(&par), "{ctx}: edges");
                assert_eq!(baseline.rounds, par.rounds, "{ctx}: rounds");
                assert_eq!(
                    baseline.candidates_examined, par.candidates_examined,
                    "{ctx}: examined"
                );
                assert_eq!(baseline.rejections, par.rejections, "{ctx}: rejections");
                assert_eq!(
                    baseline.parallel_rejections, par.parallel_rejections,
                    "{ctx}: parallel rejections"
                );
                assert_eq!(
                    baseline.commit_retests, par.commit_retests,
                    "{ctx}: commit re-tests"
                );
                assert_eq!(
                    baseline.planarity_tests, par.planarity_tests,
                    "{ctx}: planarity tests"
                );
            }
            if name == "clustered" {
                // The component screen decides some candidates without a
                // test: blocks saturate before they join.
                assert!(
                    baseline.planarity_tests < baseline.candidates_examined,
                    "screen never fired: {} tests for {} candidates",
                    baseline.planarity_tests,
                    baseline.candidates_examined
                );
            }
        }
    }

    #[test]
    fn adversarial_same_round_conflicts_match_sequential() {
        // Worst case for the conflict-graph commit: one giant round whose
        // survivors all collide. Near-uniform weights on a K_n mean every
        // single-edge test against the round-start graph passes, so the
        // whole pair list survives round 1 and the commit phase must
        // serially re-discover the planarity limit — maximal dirty-path
        // traffic, including genuine commit-time *rejections*.
        let n = 20;
        let mut rng = StdRng::seed_from_u64(97);
        let s = SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                0.5 + rng.gen_range(0.0..1e-6)
            }
        });
        let schedule = BatchSchedule {
            initial: 1024,
            cap: 1024,
        };
        let seq = pmfg_sequential(&s).unwrap();
        let mut counters = Vec::new();
        for threads in [1, 2, 8] {
            let p = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| pmfg_rounds(&s, schedule));
            assert_eq!(
                edge_list(&seq),
                edge_list(&p),
                "{threads} threads: edge set"
            );
            assert!(
                p.commit_retests > 0,
                "{threads} threads: conflicting survivors must re-test"
            );
            assert!(
                p.rejections > p.parallel_rejections,
                "{threads} threads: same-round conflicts must reject at commit time"
            );
            counters.push((
                p.rounds,
                p.rejections,
                p.parallel_rejections,
                p.commit_retests,
            ));
        }
        assert_eq!(counters[0], counters[1]);
        assert_eq!(counters[1], counters[2]);
    }

    #[test]
    fn conflict_commit_saves_retests_vs_unconditional_rule() {
        // The shortcut's bite. Replay the pre-conflict-commit rule —
        // every survivor after a round's first acceptance pays a
        // commit-time test — on the same schedule, and check the
        // conflict commit (a) builds the same graph and (b) performs
        // strictly fewer re-tests. (It can never perform more: a dirty
        // survivor implies an earlier acceptance this round, so every
        // new-rule re-test is an old-rule re-test.)
        let s = random_similarity(60, 7);
        let schedule = BatchSchedule::PMFG_ROUNDS;
        let p = pmfg_rounds(&s, schedule);

        let n = s.n();
        let target = 3 * n - 6;
        let mut stream = CandidateStream::new(&s);
        let mut graph = WeightedGraph::new(n);
        let mut scratch = LrScratch::new();
        let mut batch_size = schedule.initial;
        let mut old_retests = 0usize;
        while graph.num_edges() < target {
            let batch: Vec<(u32, u32)> = stream.peek(batch_size).to_vec();
            if batch.is_empty() {
                break;
            }
            // Round-start verdicts, as the parallel phase computes them.
            let verdicts: Vec<bool> = batch
                .iter()
                .map(|&(u, v)| scratch.stays_planar_with_edge(&graph, u as usize, v as usize))
                .collect();
            let round_rejections = verdicts.iter().filter(|&&ok| !ok).count();
            let mut accepts = 0usize;
            for (k, &(u, v)) in batch.iter().enumerate() {
                if !verdicts[k] {
                    continue;
                }
                if graph.num_edges() == target {
                    break;
                }
                let (u, v) = (u as usize, v as usize);
                let ok = accepts == 0 || {
                    old_retests += 1;
                    scratch.stays_planar_with_edge(&graph, u, v)
                };
                if ok {
                    graph.add_edge(u, v, s.get(u, v));
                    accepts += 1;
                }
            }
            stream.consume(batch.len());
            if 2 * round_rejections >= batch.len() {
                batch_size = schedule.grow(batch_size);
            }
        }

        let replay_edges: Vec<(usize, usize, u64)> =
            graph.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        assert_eq!(
            edge_list(&p),
            replay_edges,
            "replay must build the same graph"
        );
        assert!(
            p.commit_retests < old_retests,
            "conflict commit saved nothing: {} re-tests vs old rule's {}",
            p.commit_retests,
            old_retests
        );
    }

    #[test]
    fn batch_schedule_does_not_change_the_graph() {
        // Any batch schedule produces the sequential edge set — rounds
        // only trade speculative work for commit re-validation.
        let s = random_similarity(40, 19);
        let reference = edge_list(&pmfg_sequential(&s).unwrap());
        for schedule in [
            BatchSchedule { initial: 1, cap: 1 },
            BatchSchedule { initial: 3, cap: 7 },
            BatchSchedule {
                initial: 1024,
                cap: 4096,
            },
        ] {
            let p = pmfg_rounds(&s, schedule);
            assert_eq!(edge_list(&p), reference, "{schedule:?}");
        }
    }

    #[test]
    fn rejections_are_monotone_under_edge_addition() {
        // The argument that makes parallel rejections final: once G + e is
        // non-planar, growing G can never make e acceptable again. Grow a
        // PMFG prefix and re-test every previously rejected candidate at
        // every later stage.
        let s = random_similarity(16, 5);
        let p = pmfg_sequential(&s).unwrap();
        let mut graph = WeightedGraph::new(s.n());
        let mut rejected: Vec<(usize, usize)> = Vec::new();
        let mut scratch = LrScratch::new();
        let mut stream = CandidateStream::new(&s);
        while graph.num_edges() < 3 * s.n() - 6 {
            let Some(&(u, v)) = stream.peek(1).first() else {
                break;
            };
            stream.consume(1);
            let (u, v) = (u as usize, v as usize);
            if scratch.stays_planar_with_edge(&graph, u, v) {
                graph.add_edge(u, v, s.get(u, v));
                // Every earlier rejection must still be a rejection
                // against the grown graph.
                for &(ru, rv) in &rejected {
                    assert!(
                        !scratch.stays_planar_with_edge(&graph, ru, rv),
                        "rejected edge ({ru}, {rv}) became acceptable"
                    );
                }
            } else {
                rejected.push((u, v));
            }
        }
        assert_eq!(graph.num_edges(), p.graph.num_edges());
        assert!(!rejected.is_empty(), "test needs at least one rejection");
    }

    #[test]
    fn candidate_stream_matches_full_sort() {
        let s = random_similarity(24, 13);
        let n = s.n();
        let mut full: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        full.sort_by(|&a, &b| candidate_cmp(&s, a, b));
        let mut stream = CandidateStream::new(&s);
        let mut streamed = Vec::new();
        // Uneven peek sizes exercise refills mid-batch.
        for k in [1usize, 7, 64, 3, 1000].iter().cycle() {
            let batch = stream.peek(*k);
            if batch.is_empty() {
                break;
            }
            streamed.extend_from_slice(batch);
            let len = batch.len();
            stream.consume(len);
        }
        assert_eq!(streamed, full);
    }

    #[test]
    fn f32_storage_matches_widened_f64() {
        // Construction sees a source only through `get`, so the f32 matrix
        // and the f64 matrix holding its widened entries build the same
        // graph, bit for bit.
        let s = random_similarity(40, 29);
        let f32_data: Vec<f32> = s.as_slice().iter().map(|&x| x as f32).collect();
        let widened = SymmetricMatrix::from_fn(s.n(), |i, j| f32_data[i * s.n() + j] as f64);
        let s32 = pfg_graph::SymmetricMatrixF32::from_symmetrized(s.n(), f32_data);
        let p = pmfg(&s32).unwrap();
        assert_eq!(edge_list(&p), edge_list(&pmfg(&widened).unwrap()));
        assert_eq!(p.graph.num_edges(), 3 * s.n() - 6);
    }

    #[test]
    fn counters_are_consistent() {
        let s = random_similarity(30, 2);
        let p = pmfg(&s).unwrap();
        let accepted = p.graph.num_edges();
        assert_eq!(accepted, 3 * s.n() - 6);
        assert!(p.parallel_rejections <= p.rejections);
        // Every examined candidate was accepted, rejected, or skipped as a
        // post-maximality survivor of the final round.
        assert!(p.candidates_examined >= accepted + p.rejections);
        assert!(p.rounds >= 1);
        // Only processed survivors re-test, and never a round's first.
        assert!(p.commit_retests <= accepted + (p.rejections - p.parallel_rejections));
        // Every test the parallel builder runs decides one examined
        // candidate or one dirty survivor.
        assert!(p.planarity_tests <= p.candidates_examined + p.commit_retests);
        let seq = pmfg_sequential(&s).unwrap();
        assert_eq!(seq.rounds, 0);
        assert_eq!(seq.parallel_rejections, 0);
        assert_eq!(seq.commit_retests, 0);
        assert_eq!(seq.planarity_tests, seq.candidates_examined);
        assert_eq!(
            seq.candidates_examined,
            seq.graph.num_edges() + seq.rejections
        );
        // Speculation can overshoot the maximality point, never undershoot.
        assert!(p.candidates_examined >= seq.candidates_examined);
    }
}
