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
//! with *speculative batches*, skips the test wherever component or block
//! counts already decide it, and tests one block where it can:
//!
//! 1. **Parallel phase.** Each round takes the next prefix of the
//!    weight-sorted candidate list and decides every candidate against
//!    the committed graph concurrently: by the component and block
//!    screens of point 4, or by a test through the borrowed
//!    one-extra-edge view of [`pfg_graph::LrScratch`] (one warm scratch
//!    per pool worker, zero allocation and zero graph mutation per test).
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
//! 4. **Component and block screens.** Before any planarity test — in
//!    the parallel phase against the round-start components, and for a
//!    dirty survivor against the current ones — the same union-find
//!    decides the candidate `(u, v)` from component counts when it can:
//!    * `u` and `v` in different components: **planar**, no test. A
//!      bridge between two planar graphs keeps the graph planar.
//!    * both in component `r` with `k ≥ 3` vertices that already holds
//!      `3k − 6` edges: **non-planar**, no test. A simple planar graph on
//!      `k ≥ 3` vertices has at most `3k − 6` edges, and planarity is
//!      decided per component.
//!
//!    In the parallel phase, a candidate the component screen leaves open
//!    goes to the *block screen*. A block is a biconnected component of
//!    the committed graph `G`. At the start of each round in which `G`
//!    has gained edges since the index was last built, an iterative
//!    Hopcroft–Tarjan DFS on the calling thread rebuilds the index of the
//!    blocks of `G` (`BlockIndex`, private to this module); the pool only
//!    reads it. If `u` and `v` share a block `B` with `k` vertices:
//!    * `k ≥ 3` and `B` already holds `3k − 6` edges: **non-planar**, no
//!      test;
//!    * `k ≤ 4`: **planar**, no test;
//!    * otherwise: a left–right test of `B + (u, v)` alone, on a local
//!      copy of `B`.
//!
//!    The verdict is exact. `G` is planar, because commits keep it so. A
//!    graph is planar iff each of its blocks is, two vertices share at
//!    most one block, and adding `(u, v)` inside `B` turns `B` into
//!    `B + (u, v)` and leaves every other block as it was. So `G + (u, v)`
//!    is planar iff `B + (u, v)` is: Euler's bound rules it out for a
//!    saturated `B`, and every graph on at most 4 vertices is planar. A
//!    candidate whose endpoints lie in different blocks takes a test of
//!    its whole component (see [`LrScratch::stays_planar_with_edge`]), and
//!    so does every dirty survivor: its graph gained edges this round,
//!    and the round-start blocks say nothing about that graph.
//!
//!    Every screened verdict is exactly what the test would return, so
//!    parallel rejections stay final, dirty survivors still count as
//!    commit re-tests, and the output and counters are unchanged;
//!    [`Pmfg::planarity_tests`] counts the tests that still run. On
//!    clustered inputs the committed graph stays disconnected until
//!    nearly the last acceptance, so most rejections fall in saturated
//!    components. Where clusters join early, through bridges or cut
//!    vertices, rejections fall in saturated blocks, and a test covers
//!    one block instead of the component.
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
    /// at commit, whether on a whole component or on one block.
    /// Candidates the component or block screen decides (module docs,
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
/// [`CoreError::NonFiniteSimilarity`] if any entry, diagonal included, is
/// NaN or ±∞.
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

/// Sentinel for "unvisited", "no local id" and "no local graph" in
/// [`BlockIndex`].
const NONE: u32 = u32::MAX;

/// One block (biconnected component) of a [`BlockIndex`].
#[derive(Clone, Copy)]
struct Block {
    /// Vertices of the block.
    vertices: u32,
    /// Committed edges with both endpoints in the block.
    edges: u32,
    /// Index of the block's local graph in `BlockIndex::graphs`, or
    /// `NONE` when counts decide every candidate inside the block.
    graph: u32,
}

impl Block {
    /// Whether the block holds Euler's maximum of `3k − 6` edges on its
    /// `k ≥ 3` vertices, so that no edge can join it and stay planar.
    fn is_saturated(&self) -> bool {
        self.vertices >= 3 && self.edges >= 3 * self.vertices - 6
    }
}

/// A DFS frame of [`BlockIndex::rebuild`].
#[derive(Clone, Copy)]
struct Frame {
    v: u32,
    /// Next position in `v`'s adjacency list.
    next: u32,
    /// Position of the tree edge into `v` on the edge stack (unused for a
    /// root).
    tree_edge: u32,
}

/// The blocks (biconnected components) of the committed graph at the
/// start of a round: the index of the block screen (module docs, point
/// 4).
///
/// It is built on the calling thread by one iterative Hopcroft–Tarjan
/// DFS (roots in id order, neighbours in adjacency order, so it is a
/// function of the graph alone), and the parallel phase only reads it.
/// Its buffers live for the whole construction.
#[derive(Default)]
struct BlockIndex {
    /// Committed edge count at the last rebuild, `None` before the first.
    /// Edges are only added, so an unchanged count means an unchanged
    /// graph.
    built_at: Option<usize>,
    /// Vertex `v`'s `(block, local id)` pairs, in block order, are
    /// `member[start[v]..start[v + 1]]`. A cut vertex has several, an
    /// isolated vertex none.
    start: Vec<u32>,
    member: Vec<(u32, u32)>,
    blocks: Vec<Block>,
    /// Local graphs, in local ids, of the blocks a test can still fail:
    /// at least 5 vertices and fewer than `3k − 6` edges.
    graphs: Vec<WeightedGraph>,
    // DFS state, reused across rebuilds.
    disc: Vec<u32>,
    low: Vec<u32>,
    frames: Vec<Frame>,
    edge_stack: Vec<(u32, u32)>,
    /// Local id of each vertex in the block being cut off (`NONE`
    /// otherwise), and that block's vertices.
    local: Vec<u32>,
    block_vertices: Vec<u32>,
    /// `(vertex, block, local id)` in block order, before the per-vertex
    /// sort into `member`.
    pairs: Vec<(u32, u32, u32)>,
}

impl BlockIndex {
    /// Rebuilds the index for `graph` unless it was built at the same
    /// committed edge count.
    fn refresh(&mut self, graph: &WeightedGraph) {
        if self.built_at != Some(graph.num_edges()) {
            self.rebuild(graph);
            self.built_at = Some(graph.num_edges());
        }
    }

    fn rebuild(&mut self, graph: &WeightedGraph) {
        let n = graph.num_vertices();
        self.disc.clear();
        self.disc.resize(n, NONE);
        self.low.clear();
        self.low.resize(n, 0);
        self.local.clear();
        self.local.resize(n, NONE);
        self.blocks.clear();
        self.graphs.clear();
        self.pairs.clear();
        let mut time = 0;
        for root in 0..n {
            if self.disc[root] != NONE || graph.degree(root) == 0 {
                continue;
            }
            self.disc[root] = time;
            self.low[root] = time;
            time += 1;
            self.frames.push(Frame {
                v: root as u32,
                next: 0,
                tree_edge: NONE,
            });
            while let Some(&top) = self.frames.last() {
                let v = top.v as usize;
                if let Some(&(w, _)) = graph.neighbors(v).get(top.next as usize) {
                    let depth = self.frames.len();
                    self.frames[depth - 1].next += 1;
                    if self.disc[w] == NONE {
                        self.frames.push(Frame {
                            v: w as u32,
                            next: 0,
                            tree_edge: self.edge_stack.len() as u32,
                        });
                        self.edge_stack.push((v as u32, w as u32));
                        self.disc[w] = time;
                        self.low[w] = time;
                        time += 1;
                    } else if self.disc[w] < self.disc[v]
                        && (depth < 2 || self.frames[depth - 2].v as usize != w)
                    {
                        // A back edge to a proper ancestor; the edge to
                        // the parent is the tree edge itself.
                        self.edge_stack.push((v as u32, w as u32));
                        self.low[v] = self.low[v].min(self.disc[w]);
                    }
                } else {
                    self.frames.pop();
                    if let Some(parent) = self.frames.last() {
                        let p = parent.v as usize;
                        self.low[p] = self.low[p].min(self.low[v]);
                        if self.low[v] >= self.disc[p] {
                            // `p` separates `v`'s subtree: the edges above
                            // the tree edge (p, v) form one block.
                            self.cut_block(top.tree_edge as usize);
                        }
                    }
                }
            }
        }
        // Stable counting sort of the pairs by vertex, so that each
        // vertex's pairs stay in block order.
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &(x, _, _) in &self.pairs {
            self.start[x as usize] += 1;
        }
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        self.member.clear();
        self.member.resize(self.pairs.len(), (0, 0));
        for &(x, block, id) in self.pairs.iter().rev() {
            self.start[x as usize] -= 1;
            self.member[self.start[x as usize] as usize] = (block, id);
        }
    }

    /// Pops the block whose edges sit on the edge stack from position
    /// `from` up, and records its counts, its members and, if a test can
    /// still fail inside it, its local graph.
    fn cut_block(&mut self, from: usize) {
        let Self {
            blocks,
            graphs,
            edge_stack,
            local,
            block_vertices,
            pairs,
            ..
        } = self;
        let id = blocks.len() as u32;
        for &(a, b) in &edge_stack[from..] {
            for x in [a, b] {
                if local[x as usize] == NONE {
                    local[x as usize] = block_vertices.len() as u32;
                    block_vertices.push(x);
                }
            }
        }
        let mut block = Block {
            vertices: block_vertices.len() as u32,
            edges: (edge_stack.len() - from) as u32,
            graph: NONE,
        };
        if block.vertices >= 5 && !block.is_saturated() {
            let mut g = WeightedGraph::new(block.vertices as usize);
            for &(a, b) in &edge_stack[from..] {
                g.add_edge(local[a as usize] as usize, local[b as usize] as usize, 1.0);
            }
            block.graph = graphs.len() as u32;
            graphs.push(g);
        }
        blocks.push(block);
        for x in block_vertices.drain(..) {
            pairs.push((x, id, local[x as usize]));
            local[x as usize] = NONE;
        }
        edge_stack.truncate(from);
    }

    /// Vertex `v`'s `(block, local id)` pairs, in block order.
    fn memberships(&self, v: usize) -> &[(u32, u32)] {
        &self.member[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// The block `u` and `v` share, with their local ids in it. Two
    /// distinct vertices share at most one block.
    fn shared(&self, u: usize, v: usize) -> Option<(usize, usize, usize)> {
        let (a, b) = (self.memberships(u), self.memberships(v));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    return Some((a[i].0 as usize, a[i].1 as usize, b[j].1 as usize))
                }
            }
        }
        None
    }

    /// The block screen (module docs, point 4): `Some((planar, tested))`
    /// when `u` and `v` share a block, which alone then decides whether
    /// the indexed graph plus `(u, v)` is planar; `None` otherwise.
    fn screen(&self, scratch: &mut LrScratch, u: usize, v: usize) -> Option<(bool, bool)> {
        let (id, lu, lv) = self.shared(u, v)?;
        let block = self.blocks[id];
        Some(if block.is_saturated() {
            (false, false)
        } else if block.graph == NONE {
            // At most 4 vertices: planar whatever the edges.
            (true, false)
        } else {
            let local = &self.graphs[block.graph as usize];
            (scratch.stays_planar_with_edge(local, lu, lv), true)
        })
    }
}

/// Decides whether the committed `graph` plus `(u, v)` is planar: by the
/// component screen when it can, then by the block screen when `blocks`
/// indexes `graph`, else by a left–right test of `graph` on `scratch`.
/// Returns the verdict and whether a test ran.
fn decide(
    dsu: &RoundDsu,
    blocks: Option<&BlockIndex>,
    scratch: &mut LrScratch,
    graph: &WeightedGraph,
    u: usize,
    v: usize,
) -> (bool, bool) {
    if let Some(planar) = dsu.screen(u, v) {
        return (planar, false);
    }
    blocks
        .and_then(|blocks| blocks.screen(scratch, u, v))
        .unwrap_or_else(|| (scratch.stays_planar_with_edge(graph, u, v), true))
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
    let mut blocks = BlockIndex::default();
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
        // screened against its components and its blocks (module docs,
        // point 4). `with_max_len(1)` makes every candidate its own
        // stealable leaf, so even the small early rounds spread across
        // (and steal-balance over) the pool.
        blocks.refresh(&graph);
        let verdicts: Vec<(bool, bool)> = {
            let (graph, dsu, blocks) = (&graph, &dsu, &blocks);
            batch
                .par_iter()
                .with_max_len(1)
                .map(|&(u, v)| {
                    SPECULATIVE_SCRATCH.with(|scratch| {
                        decide(
                            dsu,
                            Some(blocks),
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
                // outcomes are both final. The graph has gained edges
                // this round, so the round-start blocks do not apply.
                commit_retests += 1;
                let (ok, tested) = decide(&dsu, None, &mut commit_scratch, &graph, u, v);
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
/// [`CoreError::NonFiniteSimilarity`] if any entry, diagonal included, is
/// NaN or ±∞.
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

    /// `clusters` contiguous clusters of `size` vertices, strong within a
    /// cluster and weak across, chained by one heaviest edge between the
    /// first vertices of neighbouring clusters. Those bridges arrive
    /// first, so the committed graph is connected early and only the
    /// block screen can decide candidates inside a cluster.
    fn chained_clusters(clusters: usize, size: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(clusters * size, |i, j| {
            let (ci, cj) = (i / size, j / size);
            if i == j {
                1.0
            } else if ci == cj {
                0.7 + rng.gen_range(0.0..0.2)
            } else if cj == ci + 1 && i % size == 0 && j % size == 0 {
                0.95 + rng.gen_range(0.0..0.01)
            } else {
                0.1 + rng.gen_range(0.0..0.2)
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
        // The diagonal is no edge, but it is an entry of the input, in
        // either sign.
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = random_similarity(8, 41);
            s.set(6, 6, bad);
            let expected = Err(CoreError::NonFiniteSimilarity { row: 6, col: 6 });
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

    /// Whether `u` and `v` share a block of `g`, for every pair, by brute
    /// force: two vertices share a block iff they are connected and either
    /// adjacent or not separated by any single other vertex.
    fn shared_block_oracle(g: &WeightedGraph) -> Vec<Vec<bool>> {
        let n = g.num_vertices();
        let reaches = |u: usize, v: usize, removed: usize| {
            let allowed: Vec<bool> = (0..n).map(|x| x != removed).collect();
            pfg_graph::bfs_reachable_within(g, u, &allowed)[v]
        };
        let shares = |u: usize, v: usize| {
            reaches(u, v, n)
                && (g.has_edge(u, v)
                    || (0..n)
                        .filter(|&w| w != u && w != v)
                        .all(|w| reaches(u, v, w)))
        };
        (0..n)
            .map(|u| (0..n).map(|v| u != v && shares(u, v)).collect())
            .collect()
    }

    /// A random graph on at most 30 vertices, glued from pieces: paths
    /// (trees), cycles with chords, triangulated clusters and isolated
    /// vertices. A piece starts a new component or shares one vertex with
    /// the graph so far, which makes that vertex a cut vertex. A few extra
    /// edges merge blocks, and the labels are shuffled.
    fn glued_pieces(rng: &mut StdRng) -> WeightedGraph {
        let n = rng.gen_range(1..=30);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut placed = 0;
        while placed < n {
            let mut piece: Vec<usize> = Vec::new();
            if placed > 0 && rng.gen_bool(0.7) {
                piece.push(rng.gen_range(0..placed));
            }
            let size = rng.gen_range(1..=9);
            while piece.len() < size && placed < n {
                piece.push(placed);
                placed += 1;
            }
            let k = piece.len();
            match rng.gen_range(0..4) {
                0 => edges.extend(piece.windows(2).map(|w| (w[0], w[1]))),
                1 if k >= 3 => {
                    edges.extend((0..k).map(|i| (piece[i], piece[(i + 1) % k])));
                    for _ in 0..rng.gen_range(0..k) {
                        edges.push((piece[rng.gen_range(0..k)], piece[rng.gen_range(0..k)]));
                    }
                }
                2 if k >= 3 => {
                    // Grow a triangle by stacking each further vertex on
                    // a random face: a maximal planar cluster.
                    let mut faces = vec![[piece[0], piece[1], piece[2]]; 2];
                    edges.extend([
                        (piece[0], piece[1]),
                        (piece[1], piece[2]),
                        (piece[0], piece[2]),
                    ]);
                    for &x in &piece[3..] {
                        let [a, b, c] = faces.swap_remove(rng.gen_range(0..faces.len()));
                        edges.extend([(x, a), (x, b), (x, c)]);
                        faces.extend([[x, a, b], [x, b, c], [x, a, c]]);
                    }
                }
                _ => {} // isolated vertices
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            edges.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let mut g = WeightedGraph::new(n);
        for (a, b) in edges {
            let (a, b) = (label[a], label[b]);
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b, 1.0);
            }
        }
        g
    }

    #[test]
    fn block_index_matches_brute_force_oracle() {
        // Shapes the index must have met for the check to mean anything.
        let (mut cut_vertices, mut isolated, mut saturated, mut local_graphs) = (0, 0, 0, 0);
        let mut rng = StdRng::seed_from_u64(0x5eed_b10c);
        for case in 0..60 {
            let g = glued_pieces(&mut rng);
            let n = g.num_vertices();
            let share = shared_block_oracle(&g);
            let mut index = BlockIndex::default();
            index.refresh(&g);
            let ctx = format!(
                "case {case}: n={n}, edges {:?}",
                g.edges().collect::<Vec<_>>()
            );

            // Each block's members carry the local ids 0..k, and its
            // local graph, if any, is the block in those ids.
            let mut members: Vec<Vec<(usize, usize)>> = vec![Vec::new(); index.blocks.len()];
            for v in 0..n {
                let m = index.memberships(v);
                assert!(m.windows(2).all(|w| w[0].0 < w[1].0), "{ctx}: block order");
                cut_vertices += usize::from(m.len() >= 2);
                isolated += usize::from(m.is_empty());
                for &(b, l) in m {
                    members[b as usize].push((v, l as usize));
                }
            }
            let mut edges = 0;
            for (b, block) in index.blocks.iter().enumerate() {
                let k = block.vertices as usize;
                let mut ids: Vec<usize> = members[b].iter().map(|&(_, l)| l).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..k).collect::<Vec<_>>(), "{ctx}: block {b} ids");
                edges += block.edges as usize;
                saturated += usize::from(block.is_saturated());
                let testable = k >= 5 && !block.is_saturated();
                assert_eq!(block.graph != NONE, testable, "{ctx}: block {b}");
                if testable {
                    local_graphs += 1;
                    let local = &index.graphs[block.graph as usize];
                    assert_eq!(local.num_vertices(), k, "{ctx}: block {b}");
                    assert_eq!(local.num_edges(), block.edges as usize, "{ctx}: block {b}");
                    for &(x, lx) in &members[b] {
                        for &(y, ly) in &members[b] {
                            assert_eq!(local.has_edge(lx, ly), g.has_edge(x, y), "{ctx}");
                        }
                    }
                }
            }
            assert_eq!(edges, g.num_edges(), "{ctx}: every edge in one block");

            for u in 0..n {
                for v in (u + 1)..n {
                    let shared = index.shared(u, v);
                    assert_eq!(shared.is_some(), share[u][v], "{ctx}: ({u}, {v})");
                    let Some((b, lu, lv)) = shared else {
                        continue;
                    };
                    assert!(members[b].contains(&(u, lu)) && members[b].contains(&(v, lv)));
                    // The oracle's block: u, v and every vertex that
                    // shares a block with both.
                    let inside: Vec<bool> = (0..n)
                        .map(|w| w == u || w == v || (share[u][w] && share[v][w]))
                        .collect();
                    let k = inside.iter().filter(|&&x| x).count();
                    let m = g
                        .edges()
                        .filter(|&(a, c, _)| inside[a] && inside[c])
                        .count();
                    let block = index.blocks[b];
                    assert_eq!(
                        (block.vertices as usize, block.edges as usize),
                        (k, m),
                        "{ctx}: block of ({u}, {v})"
                    );
                }
            }
        }
        assert!(
            cut_vertices > 0 && isolated > 0 && saturated > 0 && local_graphs > 0,
            "shapes not covered: {cut_vertices} cut vertices, {isolated} isolated, \
             {saturated} saturated blocks, {local_graphs} local graphs"
        );
    }

    #[test]
    fn block_index_handles_a_deep_path() {
        // The DFS runs on an explicit stack: a path as deep as a large
        // committed graph cannot overflow the call stack.
        let n = 200_000;
        let path: Vec<(usize, usize, f64)> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
        let mut index = BlockIndex::default();
        index.refresh(&WeightedGraph::from_edges(n, &path));
        assert_eq!(index.blocks.len(), n - 1);
        assert!(index.shared(0, 2).is_none());
        assert_eq!(index.blocks[index.shared(7, 8).unwrap().0].vertices, 2);
    }

    #[test]
    fn block_screen_matches_full_test_on_pmfg_stages() {
        // Every verdict `decide` gives with the block index, against the
        // all-roots test of the grown graph, at four stages of the
        // sequential PMFG (each prefix of its acceptance order is one of
        // its intermediate graphs). The full PMFG is left out: it is one
        // saturated component, which the component screen decides.
        let mut scratch = LrScratch::new();
        let (mut saturated, mut block_tests) = (0, 0);
        for (name, s) in [
            ("clustered", clustered_similarity(40, 4, 3)),
            ("clustered", clustered_similarity(36, 3, 8)),
            ("chained", chained_clusters(5, 8, 4)),
            ("chained", chained_clusters(4, 10, 9)),
        ] {
            let n = s.n();
            let mut accepted: Vec<(usize, usize, f64)> =
                pmfg_sequential(&s).unwrap().graph.edges().collect();
            accepted.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
            for (num, den) in [(9, 10), (3, 4), (1, 2), (1, 4)] {
                let g = WeightedGraph::from_edges(n, &accepted[..accepted.len() * num / den]);
                let mut dsu = RoundDsu::new(n);
                for (u, v, _) in g.edges() {
                    dsu.accept(u, v, 1);
                }
                let mut index = BlockIndex::default();
                index.refresh(&g);
                for u in 0..n {
                    for v in (u + 1)..n {
                        if g.has_edge(u, v) {
                            continue;
                        }
                        let mut grown = g.clone();
                        grown.add_edge(u, v, 1.0);
                        let full = scratch.is_planar(&grown);
                        let (planar, _) = decide(&dsu, Some(&index), &mut scratch, &g, u, v);
                        assert_eq!(planar, full, "{name} n={n}, stage {num}/{den}, ({u}, {v})");
                        if dsu.screen(u, v).is_none() {
                            if let Some((b, _, _)) = index.shared(u, v) {
                                let block = index.blocks[b];
                                saturated += usize::from(block.is_saturated());
                                block_tests += usize::from(block.graph != NONE);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            saturated > 0 && block_tests > 0,
            "block screen idle: {saturated} saturated, {block_tests} tested"
        );
    }

    #[test]
    fn block_screen_decides_each_kind_of_block() {
        // Cut vertex 0 joins K5 minus (6, 7) on {0, 4, 5, 6, 7}, which is
        // saturated, and the 4-cycle 0-1-2-3; a bridge (3, 8) leads to the
        // 5-cycle on 8..=12. One component of 13 vertices and 19 edges, far
        // from saturated, so the component screen decides nothing here.
        let mut g = WeightedGraph::new(13);
        for (u, v) in [
            (0, 4),
            (0, 5),
            (0, 6),
            (0, 7),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
        ] {
            g.add_edge(u, v, 1.0);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 8)] {
            g.add_edge(u, v, 1.0);
        }
        for (u, v) in [(8, 9), (9, 10), (10, 11), (11, 12), (12, 8)] {
            g.add_edge(u, v, 1.0);
        }
        let mut dsu = RoundDsu::new(13);
        for (u, v, _) in g.edges() {
            dsu.accept(u, v, 1);
        }
        let mut index = BlockIndex::default();
        index.refresh(&g);
        let mut scratch = LrScratch::new();
        // (candidate, verdict, tested): saturated block, block of 4
        // vertices, block test, endpoints in different blocks.
        for ((u, v), planar, tested) in [
            ((6, 7), false, false),
            ((0, 2), true, false),
            ((9, 11), true, true),
            ((1, 4), true, true),
        ] {
            assert_eq!(dsu.screen(u, v), None);
            assert_eq!(index.shared(u, v).is_some(), (u, v) != (1, 4));
            assert_eq!(
                decide(&dsu, Some(&index), &mut scratch, &g, u, v),
                (planar, tested),
                "({u}, {v})"
            );
            let mut grown = g.clone();
            grown.add_edge(u, v, 1.0);
            assert_eq!(scratch.is_planar(&grown), planar, "({u}, {v})");
        }
    }

    #[test]
    fn block_screen_cuts_tests_on_chained_clusters() {
        // Chained clusters connect early, so the component screen leaves
        // the candidates inside a cluster to the block screen. The graph
        // must equal the sequential one, and the other five counters are
        // pinned to what `pmfg` gave before the block screen existed;
        // it ran 3,509 tests then, and must now run fewer.
        let s = chained_clusters(8, 12, 5);
        let seq = pmfg_sequential(&s).unwrap();
        for threads in [1, 2, 8] {
            let p = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| pmfg(&s).unwrap());
            assert_eq!(edge_list(&p), edge_list(&seq), "{threads} threads: edges");
            assert_eq!(
                (
                    p.candidates_examined,
                    p.rejections,
                    p.rounds,
                    p.parallel_rejections,
                    p.commit_retests
                ),
                (3424, 3142, 34, 3105, 258),
                "{threads} threads: counters"
            );
            assert!(
                p.planarity_tests < 3509,
                "{threads} threads: {} tests",
                p.planarity_tests
            );
        }
    }
}
