//! Planarity testing via the left–right (LR) criterion, on a dense,
//! scratch-reusing core built for hot loops.
//!
//! The PMFG (§II of the paper) adds the heaviest remaining edge iff the
//! graph stays planar, which means a planarity test per candidate edge
//! (the parallel PMFG in `pfg_core` skips the ones component or block
//! counts decide, and tests others on one block) — thousands of tests
//! against graphs that differ by a single edge, many of them concurrent.
//! This module is built for that access pattern:
//!
//! * **Dense indexed state.** Every undirected edge gets an integer id
//!   `0..m`; all per-edge tables of the LR algorithm (`lowpt`, `lowpt2`,
//!   nesting depth, orientation, interval references, …) are flat `Vec`s
//!   indexed by edge id instead of hash maps keyed by vertex pairs.
//! * **Reusable scratch.** All working memory lives in an [`LrScratch`]
//!   arena. Repeated tests on similarly-sized graphs reuse the same
//!   buffers and allocate nothing after warm-up; a fresh graph shape just
//!   grows (or logically shrinks) the buffers.
//! * **Borrowed one-extra-edge view.** Speculative tests ("would `G + e`
//!   still be planar?") run through [`LrScratch::stays_planar_with_edge`],
//!   which overlays the candidate edge on a borrowed graph. The graph is
//!   never cloned or mutated, so many speculative tests can share one
//!   immutable graph — this is what makes the parallel PMFG's batch phase
//!   safe and cheap.
//! * **One-component speculative tests.** Planarity is decided per
//!   connected component, and a speculative test's graph `G` is planar by
//!   precondition (the PMFG only ever commits planar graphs), so only the
//!   component `e` lands in can fail. Both passes run from one endpoint
//!   of `e` and never enter another component. [`LrScratch::is_planar`]
//!   has no such precondition and runs from every root.
//! * **Iterative DFS.** Both passes run on explicit stacks held in the
//!   scratch, so deep planar graphs (paths, filtered graphs on large `n`)
//!   cannot overflow the call stack.
//!
//! The algorithm itself is the left–right planarity criterion of
//! de Fraysseix and Rosenstiehl in the formulation of Brandes ("The
//! left-right planarity test"), boolean version (no embedding is produced,
//! which is all PMFG needs). It runs two depth-first passes:
//!
//! 1. an *orientation* pass that orients edges away from the DFS roots and
//!    computes `lowpt`, `lowpt2` and a nesting depth for every oriented
//!    edge, after which one counting sort over nesting depth orders the
//!    outgoing edges of each vertex (as in Brandes' formulation), and
//! 2. a *testing* pass that maintains a stack of conflict pairs of edge
//!    intervals; the graph is planar iff no interval pair ever conflicts on
//!    both sides.

use std::ops::Range;

use crate::weighted_graph::WeightedGraph;

/// Sentinel for "no edge" / "no vertex" / "unvisited" in the dense tables.
const NONE: u32 = u32::MAX;

/// An interval of back edges, identified by dense edge ids (`NONE` = empty
/// endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    low: u32,
    high: u32,
}

impl Default for Interval {
    fn default() -> Self {
        Interval {
            low: NONE,
            high: NONE,
        }
    }
}

impl Interval {
    #[inline]
    fn is_empty(&self) -> bool {
        self.low == NONE && self.high == NONE
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ConflictPair {
    left: Interval,
    right: Interval,
}

impl ConflictPair {
    #[inline]
    fn swap(&mut self) {
        std::mem::swap(&mut self.left, &mut self.right);
    }
}

/// A DFS frame: the vertex and a cursor into its (CSR or ordered)
/// adjacency range.
#[derive(Debug, Clone, Copy)]
struct Frame {
    v: u32,
    idx: u32,
}

/// A borrowed graph plus at most one speculative extra edge.
///
/// The planarity core reads the graph through this view, so testing
/// `G + (u, v)` requires neither cloning `G` nor temporarily inserting the
/// edge — the extra edge only exists inside the scratch's dense tables.
#[derive(Clone, Copy)]
struct ExtraEdgeView<'a> {
    graph: &'a WeightedGraph,
    /// Speculative extra edge, if any. Must not duplicate a graph edge.
    extra: Option<(u32, u32)>,
}

impl<'a> ExtraEdgeView<'a> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.graph.num_edges() + usize::from(self.extra.is_some())
    }
}

/// Reusable working memory for the left–right planarity test.
///
/// One scratch serves any number of tests, on graphs of any shape; buffers
/// are resized (never shrunk) on each call, so a warm scratch performs a
/// test without allocating. A scratch is cheap to create but *not* cheap
/// to warm up, so hot loops should hold one per thread and reuse it —
/// the parallel PMFG keeps one in thread-local storage per pool worker.
///
/// ```
/// use pfg_graph::{LrScratch, WeightedGraph};
///
/// let mut g = WeightedGraph::new(5);
/// for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)] {
///     g.add_edge(u, v, 1.0);
/// }
/// let mut scratch = LrScratch::new();
/// assert!(scratch.is_planar(&g));
/// // Speculative test: the graph is borrowed, never cloned or mutated.
/// assert!(scratch.stays_planar_with_edge(&g, 0, 4));
/// assert_eq!(g.num_edges(), 6);
/// ```
#[derive(Debug, Default)]
pub struct LrScratch {
    // CSR adjacency of the viewed graph: vertex v's incident half-edges
    // live in slots xadj[v]..xadj[v+1] of (vadj, eadj).
    xadj: Vec<u32>,
    vadj: Vec<u32>,
    eadj: Vec<u32>,
    /// Per-vertex fill cursor used while building the CSR.
    cursor: Vec<u32>,
    /// Endpoints of each undirected edge (id-indexed).
    ends: Vec<[u32; 2]>,
    // Per-vertex DFS state.
    height: Vec<u32>,
    parent_edge: Vec<u32>,
    // Per-edge DFS state (all id-indexed).
    src: Vec<u32>,
    lowpt: Vec<u32>,
    lowpt2: Vec<u32>,
    nesting: Vec<u32>,
    reference: Vec<u32>,
    lowpt_edge: Vec<u32>,
    stack_bottom: Vec<u32>,
    // Outgoing oriented edges of each vertex, sorted by nesting depth:
    // vertex v's ordered edges are ordered[ord_off[v]..ord_off[v+1]].
    ord_off: Vec<u32>,
    ordered: Vec<u32>,
    // Counting sort of the oriented edges by nesting depth: bucket starts
    // per depth, and the edges in (depth, id) order.
    depth_start: Vec<u32>,
    by_depth: Vec<u32>,
    // Explicit stacks.
    conflicts: Vec<ConflictPair>,
    dfs: Vec<Frame>,
    roots: Vec<u32>,
}

impl LrScratch {
    /// Creates an empty scratch. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `graph` is planar.
    ///
    /// Graphs with at most 4 vertices are always planar; graphs with more
    /// than `3n − 6` edges are rejected immediately by Euler's bound.
    pub fn is_planar(&mut self, graph: &WeightedGraph) -> bool {
        let n = graph.num_vertices();
        if n <= 4 {
            return true;
        }
        if graph.num_edges() > 3 * n - 6 {
            return false;
        }
        self.run(ExtraEdgeView { graph, extra: None })
    }

    /// Returns `true` if adding edge `(u, v)` to `graph` would keep it
    /// planar. The graph is borrowed — never cloned or mutated — so
    /// concurrent speculative tests can share one `&WeightedGraph`.
    ///
    /// **Precondition:** `graph` must be planar, as every graph the PMFG
    /// commits is. The test then covers only the component of `G + (u, v)`
    /// that contains the new edge: every other component is a component
    /// of `graph`, hence planar. On a non-planar `graph` the answer is
    /// unspecified (a non-planar component the new edge does not touch
    /// goes unseen); test `G + (u, v)` with [`is_planar`](Self::is_planar)
    /// instead.
    ///
    /// The caller must also ensure `u != v` and that `(u, v)` is not
    /// already an edge of `graph` (checked with `debug_assert!`; the PMFG
    /// candidate stream never re-tests a decided edge).
    pub fn stays_planar_with_edge(&mut self, graph: &WeightedGraph, u: usize, v: usize) -> bool {
        debug_assert!(u != v, "self loops are never planar candidates");
        debug_assert!(
            u < graph.num_vertices() && v < graph.num_vertices(),
            "vertex out of range"
        );
        debug_assert!(
            !graph.has_edge(u, v),
            "speculative edge ({u}, {v}) already present"
        );
        let n = graph.num_vertices();
        if n <= 4 {
            return true;
        }
        if graph.num_edges() + 1 > 3 * n - 6 {
            return false;
        }
        self.run(ExtraEdgeView {
            graph,
            extra: Some((u as u32, v as u32)),
        })
    }

    // ---- Setup -----------------------------------------------------------------

    /// Loads the view into the dense tables: CSR adjacency, edge ids, and
    /// cleared per-vertex/per-edge DFS state. `O(n + m)` writes, zero
    /// allocations once the buffers have grown to the view's size.
    fn load(&mut self, view: ExtraEdgeView<'_>) {
        let n = view.num_vertices();
        let m = view.num_edges();
        // Degree counts (extra edge contributes to both endpoints).
        self.xadj.clear();
        self.xadj.resize(n + 1, 0);
        for v in 0..n {
            self.xadj[v + 1] = view.graph.degree(v) as u32;
        }
        if let Some((u, v)) = view.extra {
            self.xadj[u as usize + 1] += 1;
            self.xadj[v as usize + 1] += 1;
        }
        for v in 0..n {
            self.xadj[v + 1] += self.xadj[v];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.xadj[..n]);
        self.vadj.clear();
        self.vadj.resize(2 * m, 0);
        self.eadj.clear();
        self.eadj.resize(2 * m, 0);
        self.ends.clear();
        self.ends.resize(m, [0, 0]);
        let mut next_id = 0u32;
        let mut place = |slf: &mut Self, u: u32, v: u32| {
            let e = next_id;
            next_id += 1;
            slf.ends[e as usize] = [u, v];
            let cu = slf.cursor[u as usize] as usize;
            slf.vadj[cu] = v;
            slf.eadj[cu] = e;
            slf.cursor[u as usize] += 1;
            let cv = slf.cursor[v as usize] as usize;
            slf.vadj[cv] = u;
            slf.eadj[cv] = e;
            slf.cursor[v as usize] += 1;
        };
        for (u, v, _) in view.graph.edges() {
            place(self, u as u32, v as u32);
        }
        if let Some((u, v)) = view.extra {
            place(self, u, v);
        }
        debug_assert_eq!(next_id as usize, m);
        // Per-vertex state.
        self.height.clear();
        self.height.resize(n, NONE);
        self.parent_edge.clear();
        self.parent_edge.resize(n, NONE);
        // Per-edge state.
        self.src.clear();
        self.src.resize(m, NONE);
        self.lowpt.clear();
        self.lowpt.resize(m, 0);
        self.lowpt2.clear();
        self.lowpt2.resize(m, 0);
        self.nesting.clear();
        self.nesting.resize(m, 0);
        self.reference.clear();
        self.reference.resize(m, NONE);
        self.lowpt_edge.clear();
        self.lowpt_edge.resize(m, NONE);
        self.stack_bottom.clear();
        self.stack_bottom.resize(m, 0);
        self.conflicts.clear();
        self.roots.clear();
    }

    /// Directed target of oriented edge `e` (the endpoint that is not its
    /// orientation source).
    #[inline]
    fn dst(&self, e: u32) -> u32 {
        let [a, b] = self.ends[e as usize];
        if self.src[e as usize] == a {
            b
        } else {
            a
        }
    }

    // ---- Phase 1: orientation DFS (iterative) ----------------------------------

    /// Orients every edge reachable from `roots`, starting a DFS at each
    /// root not yet visited, and computes `lowpt`, `lowpt2` and the
    /// nesting depth of each oriented edge.
    fn orient(&mut self, roots: Range<u32>) {
        for r in roots {
            if self.height[r as usize] != NONE {
                continue;
            }
            self.height[r as usize] = 0;
            self.roots.push(r);
            self.dfs.clear();
            self.dfs.push(Frame {
                v: r,
                idx: self.xadj[r as usize],
            });
            while let Some(&Frame { v, idx }) = self.dfs.last() {
                let end = self.xadj[v as usize + 1];
                let mut idx = idx;
                let mut descended = false;
                while idx < end {
                    let slot = idx as usize;
                    let w = self.vadj[slot];
                    let e = self.eadj[slot];
                    if self.src[e as usize] != NONE {
                        // Already oriented from the other endpoint.
                        idx += 1;
                        continue;
                    }
                    self.src[e as usize] = v;
                    let hv = self.height[v as usize];
                    self.lowpt[e as usize] = hv;
                    self.lowpt2[e as usize] = hv;
                    if self.height[w as usize] == NONE {
                        // Tree edge: descend; `finish_edge(e)` runs when
                        // the child's subtree completes (idx still points
                        // at e so the parent frame can find it again).
                        self.parent_edge[w as usize] = e;
                        self.height[w as usize] = hv + 1;
                        let fi = self.dfs.len() - 1;
                        self.dfs[fi].idx = idx;
                        self.dfs.push(Frame {
                            v: w,
                            idx: self.xadj[w as usize],
                        });
                        descended = true;
                        break;
                    }
                    // Back edge.
                    self.lowpt[e as usize] = self.height[w as usize];
                    self.finish_edge(e, v);
                    idx += 1;
                }
                if descended {
                    continue;
                }
                self.dfs.pop();
                if let Some(&Frame { v: pv, idx: pidx }) = self.dfs.last() {
                    // Post-process the tree edge we descended through.
                    let e = self.eadj[pidx as usize];
                    self.finish_edge(e, pv);
                    let fi = self.dfs.len() - 1;
                    self.dfs[fi].idx = pidx + 1;
                }
            }
        }
    }

    /// Computes the nesting depth of freshly-oriented edge `e` (source `v`)
    /// and folds its lowpoints into `v`'s parent edge.
    fn finish_edge(&mut self, e: u32, v: u32) {
        let ei = e as usize;
        let mut nest = 2 * self.lowpt[ei];
        if self.lowpt2[ei] < self.height[v as usize] {
            nest += 1; // chordal: nest inside
        }
        self.nesting[ei] = nest;
        let pe = self.parent_edge[v as usize];
        if pe != NONE {
            let pi = pe as usize;
            let (lp, lp2) = (self.lowpt[ei], self.lowpt2[ei]);
            let (plp, plp2) = (self.lowpt[pi], self.lowpt2[pi]);
            match lp.cmp(&plp) {
                std::cmp::Ordering::Less => {
                    self.lowpt2[pi] = plp.min(lp2);
                    self.lowpt[pi] = lp;
                }
                std::cmp::Ordering::Greater => {
                    self.lowpt2[pi] = plp2.min(lp);
                }
                std::cmp::Ordering::Equal => {
                    self.lowpt2[pi] = plp2.min(lp2);
                }
            }
        }
    }

    /// Groups the oriented edges by source vertex, sorted by nesting depth
    /// (ties by edge id, so the order is deterministic). Unoriented edges
    /// (outside the tested component) are left out.
    ///
    /// One counting sort over depth, then a stable scatter into per-source
    /// ranges: `O(n + m)`, no comparisons. Depth is `2·lowpt (+ 1)` with
    /// `lowpt` a DFS height `< n`, so it is `< 2n`.
    fn order_adjacency(&mut self) {
        let n = self.height.len();
        // Counts, shifted by one slot so the prefix sums give range starts.
        self.depth_start.clear();
        self.depth_start.resize(2 * n + 1, 0);
        self.ord_off.clear();
        self.ord_off.resize(n + 1, 0);
        for (e, &s) in self.src.iter().enumerate() {
            if s != NONE {
                self.depth_start[self.nesting[e] as usize + 1] += 1;
                self.ord_off[s as usize + 1] += 1;
            }
        }
        for d in 0..2 * n {
            self.depth_start[d + 1] += self.depth_start[d];
        }
        for v in 0..n {
            self.ord_off[v + 1] += self.ord_off[v];
        }
        // Edge ids in increasing order, so each depth keeps id order.
        let oriented = self.ord_off[n] as usize;
        self.by_depth.clear();
        self.by_depth.resize(oriented, 0);
        for (e, &s) in self.src.iter().enumerate() {
            if s != NONE {
                let d = self.nesting[e] as usize;
                self.by_depth[self.depth_start[d] as usize] = e as u32;
                self.depth_start[d] += 1;
            }
        }
        // Stable scatter into per-source ranges; `cursor` is free after
        // `load`.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.ord_off[..n]);
        self.ordered.clear();
        self.ordered.resize(oriented, 0);
        for &e in &self.by_depth {
            let s = self.src[e as usize] as usize;
            self.ordered[self.cursor[s] as usize] = e;
            self.cursor[s] += 1;
        }
    }

    // ---- Phase 2: testing DFS (iterative) --------------------------------------

    #[inline]
    fn interval_conflicting(&self, interval: &Interval, b: u32) -> bool {
        interval.high != NONE && self.lowpt[interval.high as usize] > self.lowpt[b as usize]
    }

    fn pair_lowest(&self, pair: &ConflictPair) -> u32 {
        let l = pair.left.low;
        let r = pair.right.low;
        match (l, r) {
            (NONE, NONE) => u32::MAX,
            (NONE, r) => self.lowpt[r as usize],
            (l, NONE) => self.lowpt[l as usize],
            (l, r) => self.lowpt[l as usize].min(self.lowpt[r as usize]),
        }
    }

    /// Runs the testing DFS from root `r`. Returns `false` on a left–right
    /// conflict (the graph is not planar).
    fn test_from(&mut self, r: u32) -> bool {
        self.dfs.clear();
        self.dfs.push(Frame {
            v: r,
            idx: self.ord_off[r as usize],
        });
        let mut returning = false;
        while let Some(&Frame { v, idx }) = self.dfs.last() {
            let mut idx = idx;
            if returning {
                // Just completed the subtree of tree edge ordered[idx].
                let e = self.ordered[idx as usize];
                if !self.integrate(e, v, idx) {
                    return false;
                }
                idx += 1;
                returning = false;
            }
            let end = self.ord_off[v as usize + 1];
            let mut descended = false;
            while idx < end {
                let e = self.ordered[idx as usize];
                self.stack_bottom[e as usize] = self.conflicts.len() as u32;
                let w = self.dst(e);
                if self.parent_edge[w as usize] == e {
                    // Tree edge: descend; `integrate(e)` runs on return.
                    let fi = self.dfs.len() - 1;
                    self.dfs[fi].idx = idx;
                    self.dfs.push(Frame {
                        v: w,
                        idx: self.ord_off[w as usize],
                    });
                    descended = true;
                    break;
                }
                // Back edge: a fresh one-edge interval on the right side.
                self.lowpt_edge[e as usize] = e;
                self.conflicts.push(ConflictPair {
                    left: Interval::default(),
                    right: Interval { low: e, high: e },
                });
                if !self.integrate(e, v, idx) {
                    return false;
                }
                idx += 1;
            }
            if descended {
                continue;
            }
            self.dfs.pop();
            let pe = self.parent_edge[v as usize];
            if pe != NONE {
                self.remove_back_edges(pe);
            }
            returning = true;
        }
        true
    }

    /// Integrates the return edges of `e` (the `idx`-th ordered edge of
    /// `v`) into the conflict stack: the first outgoing edge just forwards
    /// its lowpoint edge to the parent, later siblings must merge without
    /// a both-sides conflict.
    fn integrate(&mut self, e: u32, v: u32, idx: u32) -> bool {
        if self.lowpt[e as usize] < self.height[v as usize] {
            let pe = self.parent_edge[v as usize];
            if idx == self.ord_off[v as usize] {
                if pe != NONE {
                    self.lowpt_edge[pe as usize] = self.lowpt_edge[e as usize];
                }
            } else if !self.add_constraints(e, pe) {
                return false;
            }
        }
        true
    }

    fn add_constraints(&mut self, ei: u32, e: u32) -> bool {
        if e == NONE {
            return true;
        }
        let bottom = self.stack_bottom[ei as usize] as usize;
        let mut p = ConflictPair::default();
        // Merge return edges of ei into p.right.
        while self.conflicts.len() > bottom {
            let mut q = self.conflicts.pop().expect("len > bottom");
            if !q.left.is_empty() {
                q.swap();
            }
            if !q.left.is_empty() {
                return false; // not planar
            }
            let q_r_low = q.right.low;
            debug_assert_ne!(q_r_low, NONE, "right interval must be non-empty");
            if self.lowpt[q_r_low as usize] > self.lowpt[e as usize] {
                // Merge intervals.
                if p.right.is_empty() {
                    p.right.high = q.right.high;
                } else {
                    self.reference[p.right.low as usize] = q.right.high;
                }
                p.right.low = q.right.low;
            } else {
                // Align.
                self.reference[q_r_low as usize] = self.lowpt_edge[e as usize];
            }
        }
        // Merge conflicting return edges of previous sibling edges into p.left.
        loop {
            let conflicts = match self.conflicts.last() {
                Some(top) => {
                    self.interval_conflicting(&top.left, ei)
                        || self.interval_conflicting(&top.right, ei)
                }
                None => false,
            };
            if !conflicts {
                break;
            }
            let mut q = self.conflicts.pop().expect("checked non-empty");
            if self.interval_conflicting(&q.right, ei) {
                q.swap();
            }
            if self.interval_conflicting(&q.right, ei) {
                return false; // not planar
            }
            // Merge the interval below lowpt(ei) into p.right.
            if p.right.low != NONE {
                self.reference[p.right.low as usize] = q.right.high;
            }
            if q.right.low != NONE {
                p.right.low = q.right.low;
            }
            if p.left.is_empty() {
                p.left.high = q.left.high;
            } else {
                self.reference[p.left.low as usize] = q.left.high;
            }
            p.left.low = q.left.low;
        }
        if !(p.left.is_empty() && p.right.is_empty()) {
            self.conflicts.push(p);
        }
        true
    }

    fn remove_back_edges(&mut self, e: u32) {
        let u = self.src[e as usize];
        let hu = self.height[u as usize];
        // Drop entire conflict pairs whose lowest return point is at height[u].
        while let Some(top) = self.conflicts.last() {
            if self.pair_lowest(top) == hu {
                self.conflicts.pop();
            } else {
                break;
            }
        }
        // Trim one more conflict pair.
        if let Some(mut p) = self.conflicts.pop() {
            // Trim the left interval.
            while p.left.high != NONE && self.dst(p.left.high) == u {
                p.left.high = self.reference[p.left.high as usize];
            }
            if p.left.high == NONE && p.left.low != NONE {
                self.reference[p.left.low as usize] = p.right.low;
                p.left.low = NONE;
            }
            // Trim the right interval.
            while p.right.high != NONE && self.dst(p.right.high) == u {
                p.right.high = self.reference[p.right.high as usize];
            }
            if p.right.high == NONE && p.right.low != NONE {
                self.reference[p.right.low as usize] = p.left.low;
                p.right.low = NONE;
            }
            self.conflicts.push(p);
        }
        // The side of e is the side of a highest return edge.
        if self.lowpt[e as usize] < hu {
            if let Some(top) = self.conflicts.last() {
                let hl = top.left.high;
                let hr = top.right.high;
                let chosen = if hl != NONE
                    && (hr == NONE || self.lowpt[hl as usize] > self.lowpt[hr as usize])
                {
                    hl
                } else {
                    hr
                };
                self.reference[e as usize] = chosen;
            }
        }
    }

    /// Full test of a view: orientation, adjacency ordering, then the
    /// testing DFS from every root. A view with an extra edge `(u, v)` is
    /// oriented and tested from `u` alone: its graph is planar (the
    /// precondition of [`stays_planar_with_edge`](Self::stays_planar_with_edge)),
    /// so the component holding the new edge is the only one that can fail.
    fn run(&mut self, view: ExtraEdgeView<'_>) -> bool {
        self.load(view);
        self.orient(match view.extra {
            Some((u, _)) => u..u + 1,
            None => 0..view.num_vertices() as u32,
        });
        self.order_adjacency();
        for i in 0..self.roots.len() {
            let r = self.roots[i];
            if !self.test_from(r) {
                return false;
            }
        }
        true
    }
}

/// Returns `true` if `graph` is planar.
///
/// One-shot convenience over [`LrScratch::is_planar`]; allocates a fresh
/// scratch per call. Hot loops should hold an [`LrScratch`] instead.
pub fn is_planar(graph: &WeightedGraph) -> bool {
    LrScratch::new().is_planar(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_graph(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v, 1.0);
            }
        }
        g
    }

    fn complete_bipartite(a: usize, b: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(a + b);
        for u in 0..a {
            for v in 0..b {
                g.add_edge(u, a + v, 1.0);
            }
        }
        g
    }

    /// Builds a maximal planar graph on `n >= 4` vertices the TMFG way:
    /// start from K4 and repeatedly insert a vertex into a triangular face.
    fn triangulation(n: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(n);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        let mut faces = vec![(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)];
        for v in 4..n {
            let pos = v % faces.len();
            let (a, b, c) = faces[pos];
            g.add_edge(v, a, 1.0);
            g.add_edge(v, b, 1.0);
            g.add_edge(v, c, 1.0);
            faces.swap_remove(pos);
            faces.push((v, a, b));
            faces.push((v, b, c));
            faces.push((v, a, c));
        }
        g
    }

    /// Subdivides every edge of `g` once (replaces `(u, v)` with
    /// `(u, x), (x, v)` through a fresh vertex `x`). Subdivision preserves
    /// (non-)planarity.
    fn subdivide(g: &WeightedGraph) -> WeightedGraph {
        let n = g.num_vertices();
        let mut out = WeightedGraph::new(n + g.num_edges());
        for (next, (u, v, w)) in (n..).zip(g.edges()) {
            out.add_edge(u, next, w);
            out.add_edge(next, v, w);
        }
        out
    }

    #[test]
    fn small_graphs_are_planar() {
        assert!(is_planar(&WeightedGraph::new(0)));
        assert!(is_planar(&WeightedGraph::new(1)));
        assert!(is_planar(&complete_graph(3)));
        assert!(is_planar(&complete_graph(4)));
    }

    #[test]
    fn k5_is_not_planar() {
        assert!(!is_planar(&complete_graph(5)));
    }

    #[test]
    fn k6_is_not_planar() {
        assert!(!is_planar(&complete_graph(6)));
    }

    #[test]
    fn k33_is_not_planar() {
        assert!(!is_planar(&complete_bipartite(3, 3)));
    }

    #[test]
    fn k23_is_planar() {
        assert!(is_planar(&complete_bipartite(2, 3)));
    }

    #[test]
    fn k24_is_planar() {
        assert!(is_planar(&complete_bipartite(2, 4)));
    }

    #[test]
    fn k5_and_k33_subdivisions_are_not_planar() {
        // Kuratowski subdivisions have the original (non-)planarity but a
        // sparse edge count, so Euler's bound cannot short-circuit them —
        // the LR passes themselves must find the conflict.
        let k5_sub = subdivide(&complete_graph(5));
        assert!(k5_sub.num_edges() <= 3 * k5_sub.num_vertices() - 6);
        assert!(!is_planar(&k5_sub));
        let k33_sub = subdivide(&complete_bipartite(3, 3));
        assert!(!is_planar(&k33_sub));
        // A double subdivision is still a K5 subdivision.
        assert!(!is_planar(&subdivide(&k5_sub)));
        // Subdividing a planar graph keeps it planar.
        assert!(is_planar(&subdivide(&triangulation(12))));
    }

    #[test]
    fn trees_and_cycles_are_planar() {
        let mut path = WeightedGraph::new(10);
        for i in 0..9 {
            path.add_edge(i, i + 1, 1.0);
        }
        assert!(is_planar(&path));
        let mut cycle = WeightedGraph::new(10);
        for i in 0..10 {
            cycle.add_edge(i, (i + 1) % 10, 1.0);
        }
        assert!(is_planar(&cycle));
    }

    #[test]
    fn deep_path_does_not_overflow_the_stack() {
        // The DFS passes run on explicit stacks; a 200k-vertex path would
        // overflow the call stack under the old recursive implementation.
        let n = 200_000;
        let mut path = WeightedGraph::new(n);
        for i in 0..n - 1 {
            path.add_edge(i, i + 1, 1.0);
        }
        assert!(is_planar(&path));
        // Closing the long cycle keeps it planar; a chord also keeps it
        // planar; both at once still planar (outerplanar + one chord).
        let mut scratch = LrScratch::new();
        assert!(scratch.stays_planar_with_edge(&path, 0, n - 1));
    }

    #[test]
    fn planar_grid_is_planar() {
        let side = 5;
        let mut g = WeightedGraph::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    g.add_edge(v, v + 1, 1.0);
                }
                if r + 1 < side {
                    g.add_edge(v, v + side, 1.0);
                }
            }
        }
        assert!(is_planar(&g));
    }

    #[test]
    fn k5_minus_an_edge_is_planar() {
        let mut g = WeightedGraph::new(5);
        for u in 0..5 {
            for v in (u + 1)..5 {
                if !(u == 0 && v == 1) {
                    g.add_edge(u, v, 1.0);
                }
            }
        }
        assert!(is_planar(&g));
    }

    #[test]
    fn petersen_graph_is_not_planar() {
        // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
        let mut g = WeightedGraph::new(10);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5, 1.0);
            g.add_edge(5 + i, 5 + (i + 2) % 5, 1.0);
            g.add_edge(i, i + 5, 1.0);
        }
        assert!(!is_planar(&g));
    }

    #[test]
    fn disconnected_planar_components() {
        let mut g = WeightedGraph::new(8);
        for base in [0, 4] {
            for u in 0..4 {
                for v in (u + 1)..4 {
                    g.add_edge(base + u, base + v, 1.0);
                }
            }
        }
        assert!(is_planar(&g));
    }

    #[test]
    fn disconnected_with_one_nonplanar_component() {
        let mut g = WeightedGraph::new(8);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v, 1.0);
            }
        }
        assert!(!is_planar(&g));
    }

    #[test]
    fn triangulations_are_planar() {
        for n in [5, 10, 30, 80] {
            let g = triangulation(n);
            assert_eq!(g.num_edges(), 3 * n - 6);
            assert!(
                is_planar(&g),
                "triangulation on {n} vertices must be planar"
            );
        }
    }

    #[test]
    fn triangulation_plus_any_edge_is_not_planar() {
        let n = 30;
        let g = triangulation(n);
        // A maximal planar graph cannot accept any additional edge.
        let mut scratch = LrScratch::new();
        let mut checked = 0;
        for u in 0..n {
            for v in (u + 1)..n {
                if !g.has_edge(u, v) {
                    assert!(!scratch.stays_planar_with_edge(&g, u, v));
                    checked += 1;
                    if checked > 20 {
                        return; // enough samples; keep the test fast
                    }
                }
            }
        }
    }

    #[test]
    fn euler_bound_rejects_dense_graphs_fast() {
        let g = complete_graph(12);
        assert!(!is_planar(&g));
    }

    #[test]
    fn stays_planar_helper_does_not_mutate() {
        let mut h = WeightedGraph::new(5);
        h.add_edge(0, 1, 1.0);
        assert!(LrScratch::new().stays_planar_with_edge(&h, 2, 3));
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn one_scratch_serves_differently_shaped_graphs() {
        // Reuse a single scratch across graphs of wildly different sizes
        // and planarity; every answer must match a fresh scratch's.
        let mut scratch = LrScratch::new();
        let shapes: Vec<(WeightedGraph, bool)> = vec![
            (triangulation(80), true),
            (complete_graph(5), false),
            (WeightedGraph::new(0), true),
            (complete_bipartite(3, 3), false),
            (triangulation(7), true),
            (subdivide(&complete_graph(5)), false),
            (WeightedGraph::new(3), true),
            (complete_bipartite(2, 9), true),
        ];
        for _ in 0..3 {
            for (g, planar) in &shapes {
                assert_eq!(scratch.is_planar(g), *planar);
                assert_eq!(LrScratch::new().is_planar(g), *planar);
            }
        }
    }

    /// The disjoint union of `parts`, relabelled in order, plus
    /// `isolated` vertices at the end.
    fn disjoint_union(parts: &[WeightedGraph], isolated: usize) -> WeightedGraph {
        let n: usize = parts.iter().map(WeightedGraph::num_vertices).sum();
        let mut g = WeightedGraph::new(n + isolated);
        let mut base = 0;
        for part in parts {
            for (u, v, w) in part.edges() {
                g.add_edge(base + u, base + v, w);
            }
            base += part.num_vertices();
        }
        g
    }

    #[test]
    fn scratch_speculative_tests_agree_with_committed_tests() {
        // For every non-edge of several graphs, the borrowed-view result
        // must equal the result of really inserting the edge. The
        // disconnected inputs put a saturated triangulation away from
        // vertex 0, so a test of any component but the new edge's would
        // answer wrongly.
        let path = |n: usize| {
            let mut p = WeightedGraph::new(n);
            for i in 0..n - 1 {
                p.add_edge(i, i + 1, 1.0);
            }
            p
        };
        let star = |n: usize| {
            let mut p = WeightedGraph::new(n);
            for i in 1..n {
                p.add_edge(0, i, 1.0);
            }
            p
        };
        let graphs = [
            triangulation(9),
            complete_bipartite(2, 5),
            path(8),
            disjoint_union(&[triangulation(7), triangulation(8)], 0),
            disjoint_union(&[complete_bipartite(2, 5), triangulation(8)], 3),
            disjoint_union(&[path(4), star(5), WeightedGraph::new(2), path(3)], 2),
        ];
        let mut scratch = LrScratch::new();
        for g in &graphs {
            let n = g.num_vertices();
            for u in 0..n {
                for v in (u + 1)..n {
                    if g.has_edge(u, v) {
                        continue;
                    }
                    let speculative = scratch.stays_planar_with_edge(g, u, v);
                    let mut committed = g.clone();
                    committed.add_edge(u, v, 1.0);
                    assert_eq!(
                        speculative,
                        is_planar(&committed),
                        "edge ({u}, {v}) on n={n}"
                    );
                }
            }
        }
    }
}
