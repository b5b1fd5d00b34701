//! Algorithm 1: parallel (prefix-batched) TMFG construction.
//!
//! Batch selection (Lines 9–10) is conflict-aware: the round keeps drawing
//! the globally next-best `(face, vertex, gain)` pair — a face whose
//! candidate loses a vertex conflict immediately re-enters with its
//! next-best vertex — until `PREFIX` distinct vertices are selected, the
//! remaining pool is empty, or every active face is used. Conflicts
//! therefore shrink neither the batch nor the candidate pool: the round
//! inserts exactly `min(prefix, |remaining|, |active faces|)` vertices,
//! matching the paper's semantics where near-sequential quality at
//! moderate prefixes depends on contested faces staying in the running
//! with fresh next-best choices rather than sitting the round out.
//!
//! The draw runs on one max (tournament) tree over face ids that lives
//! across rounds. Each active face's leaf holds its key: the head of its
//! cached list, or — for a stale face, whose truncated list drained — the
//! list's last gain as an upper bound (see [`GainTable::stale_bound`]).
//! A stale face is rescanned only when its bound reaches the top of the
//! tree, i.e. only when it could win the draw; stale faces that surface
//! together are rescanned in one parallel batch. Accepting a pair, a
//! conflict refill and a rescan each update one leaf in O(log faces), and
//! the leaves a round changed are reset from the gain table after the
//! round is applied, so no step of a round touches every face. Every leaf
//! is at or above its face's true best pair, so each accepted pair is the
//! greatest available one and the construction is exactly the eager
//! greedy draw, bit for bit.

use pfg_graph::{SimilaritySource, WeightedGraph};
use rayon::prelude::*;

use crate::bubble_tree::BubbleTree;
use crate::error::CoreError;
use crate::face::Triangle;
use crate::tmfg::gains::{CandidateList, GainTable, NextBest};

/// How a selected batch is placed within a round.
///
/// The quality difference between the two modes is dominated by *arrival
/// cohorts*: when a cluster of mutually-similar vertices first becomes the
/// best remaining choice, a whole batch of them is selected in one round.
/// Placed simultaneously, they scatter across the stale round-start faces
/// (none of which belong to their cluster yet) and the cluster never forms
/// a coherent region of the filtered graph; placed with intra-round
/// freshness, the first arrival nucleates and the rest of the cohort
/// attaches to the faces it creates, exactly as the sequential algorithm
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchFreshness {
    /// All selected insertions are applied against the round-start face
    /// set, as written in the paper's Algorithm 1 (and its Figure 13
    /// walkthrough): a vertex selected this round can never be placed into
    /// a face created this round.
    Simultaneous,
    /// The selected cohort is placed one vertex at a time in decreasing
    /// fresh-gain order, and the three faces created by each placement are
    /// immediately available to the rest of the cohort. Selection (which
    /// vertices enter this round) still uses round-start information only,
    /// so the round structure and parallel gain maintenance of Algorithm 1
    /// are unchanged; the O(batch²) sequential placement pass is
    /// negligible next to the parallel candidate refresh. This is the
    /// default: it removes the arrival-cohort quality cliff and tracks
    /// sequential TMFG quality closely at every prefix.
    #[default]
    IntraRound,
}

/// Configuration for [`tmfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmfgConfig {
    /// Maximum number of vertices inserted per round (`PREFIX` in the
    /// paper). `prefix = 1` reproduces the sequential TMFG exactly.
    pub prefix: usize,
    /// Whether batch placement sees faces created earlier in the same
    /// round (see [`BatchFreshness`]).
    pub freshness: BatchFreshness,
}

impl Default for TmfgConfig {
    fn default() -> Self {
        // The paper uses prefix 10 for most experiments as a good
        // speed/quality trade-off (§VII-A).
        Self {
            prefix: 10,
            freshness: BatchFreshness::default(),
        }
    }
}

impl TmfgConfig {
    /// Configuration with the given prefix size (default freshness).
    pub fn with_prefix(prefix: usize) -> Self {
        Self {
            prefix,
            ..Self::default()
        }
    }

    /// The same configuration with the paper's literal simultaneous batch
    /// placement (Figure 13 semantics) instead of intra-round freshness.
    pub fn simultaneous(self) -> Self {
        Self {
            freshness: BatchFreshness::Simultaneous,
            ..self
        }
    }
}

/// One vertex insertion performed during TMFG construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insertion {
    /// The inserted vertex.
    pub vertex: usize,
    /// The face it was inserted into.
    pub face: Triangle,
    /// The gain (sum of the three new edge weights).
    pub gain: f64,
    /// The round (iteration of the outer while loop) of the insertion.
    pub round: usize,
}

/// Per-round accounting of the batch selector: how much staleness
/// (conflicts, cache exhaustion) it had to absorb. How full a round was
/// is in the insertion trace: every [`Insertion`] carries its round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Drawn candidates discarded because their vertex was already taken
    /// by a higher-gain pair this round (each one triggers a next-best
    /// refill for the losing face). A stale face rescanned mid-round skips
    /// the heads already taken this round without counting a conflict.
    pub conflicts: usize,
    /// Round-local head lookups that outran a face's cached candidate list
    /// — a conflict refill, or a mid-round rescan whose fresh list was all
    /// taken — and fell back to a scan of the remaining pool excluding
    /// this round's selections.
    pub rescans: usize,
    /// Full rescans of stale faces (truncated lists that drained): each
    /// one rebuilds the face's cached list from the remaining pool because
    /// its bound reached the top of the selector.
    pub refreshes: usize,
    /// Cohort vertices placed into a face created earlier in the same
    /// round instead of their round-start face (always 0 under
    /// [`BatchFreshness::Simultaneous`]). A high count means the
    /// round-start information was stale and intra-round freshness
    /// recovered quality the simultaneous placement would have lost.
    pub reassigned: usize,
}

/// The result of TMFG construction: the filtered graph, the bubble tree
/// built alongside it (Algorithm 2), and the insertion trace.
#[derive(Debug, Clone)]
pub struct Tmfg {
    /// The filtered graph; edge weights are similarities from the input
    /// matrix.
    pub graph: WeightedGraph,
    /// The bubble tree constructed during insertion.
    pub bubble_tree: BubbleTree,
    /// The initial 4-clique (the four vertices with largest row sums, in
    /// decreasing row-sum order).
    pub initial_clique: [usize; 4],
    /// Every vertex insertion, in the order it was applied.
    pub insertions: Vec<Insertion>,
    /// Number of rounds of the outer loop (ρ in the paper's analysis).
    pub rounds: usize,
    /// Per-round staleness counters, one entry per round.
    pub round_stats: Vec<RoundStats>,
}

impl Tmfg {
    /// Sum of all edge weights of the filtered graph (used by the Figure 7
    /// edge-weight-sum-ratio experiment).
    pub fn edge_weight_sum(&self) -> f64 {
        self.graph.total_edge_weight()
    }

    /// Number of vertices of the filtered graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Total vertex conflicts absorbed by the selector across all rounds.
    pub fn total_conflicts(&self) -> usize {
        self.round_stats.iter().map(|r| r.conflicts).sum()
    }

    /// Total candidate-cache exhaustions that forced a full rescan.
    pub fn total_rescans(&self) -> usize {
        self.round_stats.iter().map(|r| r.rescans).sum()
    }

    /// Total full rescans of stale faces (see [`RoundStats::refreshes`]).
    pub fn total_refreshes(&self) -> usize {
        self.round_stats.iter().map(|r| r.refreshes).sum()
    }

    /// Total cohort vertices whose placement moved to a fresher face than
    /// their round-start selection (staleness absorbed by intra-round
    /// placement).
    pub fn total_reassigned(&self) -> usize {
        self.round_stats.iter().map(|r| r.reassigned).sum()
    }
}

/// Builds the TMFG of the similarity matrix `s` (Algorithm 1).
///
/// # Errors
/// Returns [`CoreError::TooFewVertices`] if `s` has fewer than 4 rows,
/// [`CoreError::InvalidPrefix`] if `config.prefix == 0`, and
/// [`CoreError::NonFiniteSimilarity`] if any entry, diagonal included, is
/// NaN or ±∞ — the selector never picks NaN gains, and opposite
/// infinities sum to NaN, so a vertex whose gains are all NaN could never
/// be inserted and construction would not terminate; a non-finite
/// diagonal entry would decide the seed clique's row sums.
pub fn tmfg<S: SimilaritySource>(s: &S, config: TmfgConfig) -> Result<Tmfg, CoreError> {
    if config.prefix == 0 {
        return Err(CoreError::InvalidPrefix);
    }
    let n = s.n();
    if n < 4 {
        return Err(CoreError::TooFewVertices { got: n });
    }
    // Parallel scan (one row per task, matching the builder's other
    // whole-matrix passes); the trait default's `min` makes the reported
    // entry deterministic.
    if let Some((row, col)) = s.find_non_finite() {
        return Err(CoreError::NonFiniteSimilarity { row, col });
    }
    Ok(Builder::new(s, config).run())
}

/// A face's key in the [`Selector`]: a drawn `(face, vertex, gain)`
/// candidate, or a stale face's bound.
///
/// The selector draws the maximum gain first; ties break towards the
/// smaller face id, then the smaller vertex id, so the draw order is a
/// strict total order (each face has at most one key) and the selection
/// is deterministic regardless of worker count.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    face: usize,
    vertex: usize,
    gain: f64,
    origin: Origin,
}

/// Where a [`Candidate`] key came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// The entry at this position of the face's cached list.
    Cached(usize),
    /// A scan of the pool excluding this round's selections; a later
    /// refill for the same face must scan again.
    Rescan,
    /// A stale face: `gain` is its bound and `vertex` is 0, the most
    /// favourable vertex tie-break, so the key ranks at or above the
    /// face's true head. Drawing it rescans the face.
    Stale,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // total_cmp keeps the comparator a total order even for NaN gains
        // (which the gain table filters out anyway).
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.face.cmp(&self.face))
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

/// The batch selector: an array-backed max (tournament) tree over face
/// ids. Leaf `f` holds face `f`'s [`Candidate`] key (`None` for a used,
/// inactive or exhausted face) and every internal node the larger of its
/// children, so the root is the greatest key. Sized once for the `3n − 8`
/// faces a construction creates.
struct Selector {
    /// Number of leaves (a power of two); face `f` is node `leaves + f`.
    leaves: usize,
    /// `nodes[1]` is the root and node `i`'s children are `2i`, `2i + 1`.
    nodes: Vec<Option<Candidate>>,
}

impl Selector {
    fn new(faces: usize) -> Self {
        let leaves = faces.next_power_of_two();
        Self {
            leaves,
            nodes: vec![None; 2 * leaves],
        }
    }

    /// The greatest key.
    fn top(&self) -> Option<Candidate> {
        self.nodes[1]
    }

    /// Face `face`'s key.
    fn leaf(&self, face: usize) -> Option<Candidate> {
        self.nodes[self.leaves + face]
    }

    /// Sets face `face`'s key and repairs its root path: O(log faces).
    fn set(&mut self, face: usize, key: Option<Candidate>) {
        let mut node = self.leaves + face;
        self.nodes[node] = key;
        while node > 1 {
            node /= 2;
            self.nodes[node] = self.nodes[2 * node].max(self.nodes[2 * node + 1]);
        }
    }
}

/// Internal construction state for Algorithm 1.
struct Builder<'a, S: SimilaritySource> {
    s: &'a S,
    prefix: usize,
    freshness: BatchFreshness,
    graph: WeightedGraph,
    /// Face id → triangle.
    faces: Vec<Triangle>,
    /// Face id → still a face of the planar subgraph?
    face_active: Vec<bool>,
    /// Number of `true` entries in `face_active`.
    num_active_faces: usize,
    /// Face id → bubble id owning the face.
    face_bubble: Vec<usize>,
    /// Vertex → still waiting to be inserted?
    remaining: Vec<bool>,
    num_remaining: usize,
    /// The `remaining` vertex ids in ascending order: the pool every
    /// candidate scan walks, filtered once per round.
    pool: Vec<usize>,
    /// Vertex → selected earlier in the current round? Cleared as each
    /// round is applied.
    taken: Vec<bool>,
    gains: GainTable,
    selector: Selector,
    /// Faces whose selector leaf may differ from the gain table's view
    /// this round; reset in [`Builder::apply_batch`].
    touched: Vec<usize>,
    tree: BubbleTree,
    initial_clique: [usize; 4],
    insertions: Vec<Insertion>,
    rounds: usize,
    round_stats: Vec<RoundStats>,
}

impl<'a, S: SimilaritySource> Builder<'a, S> {
    fn new(s: &'a S, config: TmfgConfig) -> Self {
        let n = s.n();
        // Lines 1–2: the four vertices with the highest row sums and all six
        // edges among them.
        let top = s.top_rows_by_sum(4);
        let initial_clique = [top[0], top[1], top[2], top[3]];
        let mut graph = WeightedGraph::new(n);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (u, v) = (initial_clique[i], initial_clique[j]);
                graph.add_edge(u, v, s.get(u, v));
            }
        }
        // Line 3: the four triangular faces of the initial clique.
        let [v1, v2, v3, v4] = initial_clique;
        let faces = vec![
            Triangle::new(v1, v2, v3),
            Triangle::new(v1, v2, v4),
            Triangle::new(v1, v3, v4),
            Triangle::new(v2, v3, v4),
        ];
        // Line 4: the remaining vertices.
        let mut remaining = vec![true; n];
        for &v in &initial_clique {
            remaining[v] = false;
        }
        let num_remaining = n - 4;
        let pool: Vec<usize> = (0..n).filter(|&v| remaining[v]).collect();
        // Lines 6–7: the bubble tree starts with the initial clique and the
        // outer face {v1, v2, v3}.
        let outer_face = Triangle::new(v1, v2, v3);
        let tree = BubbleTree::new(initial_clique, outer_face, n);
        // Line 5: the candidate lists for each initial face.
        let mut gains = GainTable::new(n, config.prefix);
        let depth = gains.depth();
        // A scan batch (here, in `refresh_stale` and in `apply_batch`) is a
        // short list of whole scans of the remaining pool. `with_max_len(1)`
        // makes each scan its own pool job: the shim's 512-item gate, meant
        // for cheap items, would otherwise run the whole batch inline.
        let face_candidates: Vec<CandidateList> = faces
            .par_iter()
            .with_max_len(1)
            .map(|&t| GainTable::compute_candidates(s, t, &pool, depth))
            .collect();
        let mut face_active = Vec::with_capacity(4);
        let mut face_bubble = Vec::with_capacity(4);
        for (list, truncated) in face_candidates {
            let id = gains.push_face();
            face_active.push(true);
            face_bubble.push(0);
            gains.install(id, list, truncated);
        }
        let mut builder = Self {
            s,
            prefix: config.prefix,
            freshness: config.freshness,
            graph,
            faces,
            face_active,
            num_active_faces: 4,
            face_bubble,
            remaining,
            num_remaining,
            pool,
            taken: vec![false; n],
            gains,
            // Four seed faces, then three per inserted vertex.
            selector: Selector::new(3 * n - 8),
            touched: Vec::new(),
            tree,
            initial_clique,
            insertions: Vec::with_capacity(num_remaining),
            rounds: 0,
            round_stats: Vec::new(),
        };
        for face in 0..4 {
            let key = builder.leaf_key(face);
            builder.selector.set(face, key);
        }
        builder
    }

    fn run(mut self) -> Tmfg {
        // Lines 8–17: insert the remaining vertices in rounds of up to
        // `prefix` vertices.
        while self.num_remaining > 0 {
            debug_assert!(
                (0..self.faces.len()).all(|f| {
                    let bits = |c: Candidate| (c.gain.to_bits(), c.vertex, c.origin);
                    self.selector.leaf(f).map(bits) == self.leaf_key(f).map(bits)
                }),
                "every selector leaf must match the gain table at round start"
            );
            self.rounds += 1;
            let mut stats = RoundStats::default();
            let target = self
                .prefix
                .min(self.num_remaining)
                .min(self.num_active_faces);
            let selected = self.select_batch(target, &mut stats);
            debug_assert_eq!(
                selected.len(),
                target,
                "the conflict-aware selector must fill every round"
            );
            self.apply_batch(&selected, &mut stats);
            self.round_stats.push(stats);
        }
        debug_assert!(self.graph.has_maximal_planar_edge_count());
        Tmfg {
            graph: self.graph,
            bubble_tree: self.tree,
            initial_clique: self.initial_clique,
            insertions: self.insertions,
            rounds: self.rounds,
            round_stats: self.round_stats,
        }
    }

    /// Lines 9–10: select up to `target` vertex–face pairs in decreasing
    /// gain order, resolving vertex conflicts in favour of the largest gain
    /// *without* shrinking the batch — a face that loses its candidate
    /// re-enters the draw with its next-best vertex. Returns
    /// `(face_id, vertex, gain)` triples in the order they were accepted
    /// (non-increasing gain). `prefix = 1` is the same draw stopped after
    /// one pair.
    fn select_batch(&mut self, target: usize, stats: &mut RoundStats) -> Vec<(usize, usize, f64)> {
        let mut selected: Vec<(usize, usize, f64)> = Vec::with_capacity(target);
        while selected.len() < target {
            let Some(c) = self.selector.top() else { break };
            if c.origin == Origin::Stale {
                self.refresh_stale(stats);
                continue;
            }
            if !self.taken[c.vertex] {
                debug_assert!(self.remaining[c.vertex], "keys must be fresh");
                self.taken[c.vertex] = true;
                selected.push((c.face, c.vertex, c.gain));
                self.set_leaf(c.face, None);
                continue;
            }
            // Conflict: a higher-gain pair already claimed this vertex.
            // Refill the face with its next-best available candidate so the
            // conflict shrinks neither the batch nor the candidate pool.
            stats.conflicts += 1;
            let next = match c.origin {
                Origin::Cached(pos) => {
                    self.gains
                        .next_best(c.face, pos + 1, &self.remaining, &self.taken)
                }
                _ => NextBest::Exhausted { truncated: true },
            };
            let key = self.round_key(c.face, next, stats);
            self.set_leaf(c.face, key);
        }
        selected
    }

    /// Rescans every stale face whose bound ranks above the best fresh
    /// key — the stale keys at the top of the selector — in one parallel
    /// batch, installs the new lists and keys each face by its best
    /// candidate not yet taken this round.
    fn refresh_stale(&mut self, stats: &mut RoundStats) {
        let mut batch: Vec<usize> = Vec::new();
        while let Some(c) = self.selector.top() {
            if c.origin != Origin::Stale {
                break;
            }
            batch.push(c.face);
            self.selector.set(c.face, None);
        }
        stats.refreshes += batch.len();
        let (s, faces, pool, depth) = (self.s, &self.faces, &self.pool, self.gains.depth());
        // One pool job per scan (see `Builder::new`).
        let lists: Vec<CandidateList> = batch
            .par_iter()
            .with_max_len(1)
            .map(|&f| GainTable::compute_candidates(s, faces[f], pool, depth))
            .collect();
        for (face, (list, truncated)) in batch.into_iter().zip(lists) {
            self.gains.install(face, list, truncated);
            let next = self.gains.next_best(face, 0, &self.remaining, &self.taken);
            let key = self.round_key(face, next, stats);
            self.set_leaf(face, key);
        }
    }

    /// The round-local key for `face` given its next available cached
    /// candidate: that candidate, or — when a truncated list ran dry — the
    /// best of a scan of the pool excluding this round's selections.
    fn round_key(&self, face: usize, next: NextBest, stats: &mut RoundStats) -> Option<Candidate> {
        match next {
            NextBest::Found { pos, vertex, gain } => Some(Candidate {
                face,
                vertex,
                gain,
                origin: Origin::Cached(pos),
            }),
            NextBest::Exhausted { truncated: true } => {
                stats.rescans += 1;
                GainTable::rescan_excluding(self.s, self.faces[face], &self.pool, &self.taken).map(
                    |(vertex, gain)| Candidate {
                        face,
                        vertex,
                        gain,
                        origin: Origin::Rescan,
                    },
                )
            }
            NextBest::Exhausted { truncated: false } => None,
        }
    }

    /// Sets a selector leaf mid-round and marks it for the end-of-round
    /// reset.
    fn set_leaf(&mut self, face: usize, key: Option<Candidate>) {
        self.selector.set(face, key);
        self.touched.push(face);
    }

    /// Face `face`'s key as the gain table sees it between rounds: its
    /// cached head, its stale bound, or `None` if it is inactive or has no
    /// candidate left.
    fn leaf_key(&self, face: usize) -> Option<Candidate> {
        if !self.face_active[face] {
            return None;
        }
        if let Some((vertex, gain)) = self.gains.head(face) {
            return Some(Candidate {
                face,
                vertex,
                gain,
                origin: Origin::Cached(self.gains.head_pos(face)),
            });
        }
        self.gains.stale_bound(face).map(|gain| Candidate {
            face,
            vertex: 0,
            gain,
            origin: Origin::Stale,
        })
    }

    /// Inserts `v` into face `face_id`: adds the three edges, updates the
    /// bubble tree, deactivates the face and registers its three children.
    /// Returns the new face ids.
    fn insert_vertex(&mut self, face_id: usize, v: usize) -> [usize; 3] {
        let t = self.faces[face_id];
        let [a, b, c] = t.corners();
        // Line 13: add the three edges from v to the face corners.
        self.graph.add_edge(v, a, self.s.get(v, a));
        self.graph.add_edge(v, b, self.s.get(v, b));
        self.graph.add_edge(v, c, self.s.get(v, c));
        // Line 17: update the bubble tree (Algorithm 2).
        let bubble = self.face_bubble[face_id];
        let new_bubble = self.tree.insert(v, t, bubble);
        // Line 14: replace face t by the three new faces.
        self.face_active[face_id] = false;
        self.touched.push(face_id);
        let mut ids = [0usize; 3];
        for (slot, new_face) in t.split_with(v).into_iter().enumerate() {
            let id = self.gains.push_face();
            self.faces.push(new_face);
            self.face_active.push(true);
            self.face_bubble.push(new_bubble);
            debug_assert_eq!(id, self.faces.len() - 1);
            ids[slot] = id;
        }
        self.touched.extend(ids);
        self.num_active_faces += 2;
        ids
    }

    /// Lines 11–17: insert the selected vertices, update faces, the gain
    /// table and the bubble tree, then reset the selector leaves the round
    /// changed.
    fn apply_batch(&mut self, selected: &[(usize, usize, f64)], stats: &mut RoundStats) {
        // Line 11: remove the selected vertices from V first, so candidate
        // maintenance below never proposes a vertex inserted this round.
        for &(_, v, _) in selected {
            debug_assert!(self.remaining[v]);
            self.remaining[v] = false;
            self.taken[v] = false;
            self.num_remaining -= 1;
        }
        let remaining = &self.remaining;
        self.pool.retain(|&v| remaining[v]);

        let groups: Vec<ChildGroup> = match self.freshness {
            BatchFreshness::Simultaneous => self.place_simultaneous(selected),
            BatchFreshness::IntraRound => self.place_intra_round(selected, stats),
        };

        // Line 15: lazily advance the faces whose head vertex was inserted
        // this round. A face whose truncated list drains is not rescanned
        // here: it goes stale and keeps its bound until the selector draws
        // it.
        for &(_, v, _) in selected {
            self.gains
                .on_vertex_inserted(v, &self.remaining, &self.face_active, &mut self.touched);
        }

        let s = self.s;
        let pool = &self.pool;
        let depth = self.gains.depth();

        // Line 16: each insertion's three new faces refresh off one fused
        // scan of the remaining pool (4 similarity loads per vertex instead
        // of 9 — the follow-up paper's gain maintenance). Children consumed
        // later in the same round (intra-round freshness) are skipped at
        // install. One pool job per fused scan (see `Builder::new`).
        let fused: Vec<(ChildGroup, [CandidateList; 3])> = groups
            .par_iter()
            .with_max_len(1)
            .map(|&g| {
                (
                    g,
                    GainTable::compute_candidates_for_children(s, g.parent, g.vertex, pool, depth),
                )
            })
            .collect();
        for (g, lists) in fused {
            for (slot, (list, truncated)) in lists.into_iter().enumerate() {
                let f = g.children[slot];
                if self.face_active[f] {
                    self.gains.install(f, list, truncated);
                }
            }
        }

        // Every leaf this round changed — drawn, refilled, refreshed,
        // consumed, created or advanced — takes the gain table's view.
        self.touched.sort_unstable();
        self.touched.dedup();
        for &f in &self.touched {
            let key = self.leaf_key(f);
            self.selector.set(f, key);
        }
        self.touched.clear();
    }

    /// Applies every selected pair against the round-start face set (the
    /// paper's literal semantics). Returns the created child groups.
    fn place_simultaneous(&mut self, selected: &[(usize, usize, f64)]) -> Vec<ChildGroup> {
        let round = self.rounds;
        let mut groups = Vec::with_capacity(selected.len());
        for &(face_id, v, gain) in selected {
            let t = self.faces[face_id];
            let children = self.insert_vertex(face_id, v);
            groups.push(ChildGroup {
                parent: t,
                vertex: v,
                children,
            });
            self.insertions.push(Insertion {
                vertex: v,
                face: t,
                gain,
                round,
            });
        }
        groups
    }

    /// Places the selected cohort one vertex at a time in decreasing
    /// fresh-gain order, letting each placement's three new faces compete
    /// for the rest of the cohort — the intra-round freshness that lets an
    /// arrival cohort nucleate the way sequential insertion would. Each
    /// vertex keeps its phase-1 face reserved as a fallback, so the cohort
    /// always places completely. O(batch²) sequential work. Returns the
    /// created child groups; groups whose faces were consumed later in the
    /// same round are filtered by the caller's `face_active` check.
    fn place_intra_round(
        &mut self,
        selected: &[(usize, usize, f64)],
        stats: &mut RoundStats,
    ) -> Vec<ChildGroup> {
        let round = self.rounds;
        struct Pending {
            vertex: usize,
            /// The phase-1 face, reserved for this vertex only.
            reserved: usize,
            reserved_gain: f64,
            /// Best placement known so far (the reserved face or a face
            /// created earlier this round).
            best_face: usize,
            best_gain: f64,
        }
        let mut pending: Vec<Pending> = selected
            .iter()
            .map(|&(face, vertex, gain)| Pending {
                vertex,
                reserved: face,
                reserved_gain: gain,
                best_face: face,
                best_gain: gain,
            })
            .collect();
        // Faces created this round that are still unused; every pending
        // vertex may claim any of them.
        let mut open_children: Vec<usize> = Vec::with_capacity(3 * selected.len());
        let mut groups: Vec<ChildGroup> = Vec::with_capacity(selected.len());

        while !pending.is_empty() {
            // Deterministic argmax: gain, ties towards the smaller vertex.
            let next = pending
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    a.best_gain
                        .total_cmp(&b.best_gain)
                        .then_with(|| b.vertex.cmp(&a.vertex))
                })
                .map(|(i, _)| i)
                .expect("pending is non-empty");
            let p = pending.swap_remove(next);
            let face_id = p.best_face;
            let t = self.faces[face_id];
            if face_id != p.reserved {
                stats.reassigned += 1;
                open_children.retain(|&c| c != face_id);
            }
            let created = self.insert_vertex(face_id, p.vertex);
            self.insertions.push(Insertion {
                vertex: p.vertex,
                face: t,
                gain: p.best_gain,
                round,
            });
            open_children.extend(created);
            groups.push(ChildGroup {
                parent: t,
                vertex: p.vertex,
                children: created,
            });

            for q in &mut pending {
                if q.best_face == face_id {
                    // The face this vertex targeted was just consumed:
                    // fall back to its reserved face, then re-derive the
                    // best open child.
                    q.best_face = q.reserved;
                    q.best_gain = q.reserved_gain;
                    for &child in &open_children {
                        let gain = GainTable::gain_of(self.s, self.faces[child], q.vertex);
                        if gain.total_cmp(&q.best_gain).is_gt() {
                            q.best_face = child;
                            q.best_gain = gain;
                        }
                    }
                } else {
                    for &child in &created {
                        let gain = GainTable::gain_of(self.s, self.faces[child], q.vertex);
                        if gain.total_cmp(&q.best_gain).is_gt() {
                            q.best_face = child;
                            q.best_gain = gain;
                        }
                    }
                }
            }
        }
        groups
    }
}

/// One insertion's split, kept together for the fused candidate refresh:
/// the consumed parent face, the inserted vertex, and the three child face
/// ids in [`Triangle::split_with`] order (so
/// [`GainTable::compute_candidates_for_children`]'s k-th list installs
/// into `children[k]`).
#[derive(Debug, Clone, Copy)]
struct ChildGroup {
    parent: Triangle,
    vertex: usize,
    children: [usize; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmfg::assert_every_round_fills;
    use pfg_graph::SymmetricMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The correlation matrix of Figure 12 in the paper's appendix.
    fn appendix_matrix() -> SymmetricMatrix {
        let rows = vec![
            1.0, 0.8, 0.4, 0.8, 0.8, 0.4, //
            0.8, 1.0, 0.41, 0.9, 0.4, 0.0, //
            0.4, 0.41, 1.0, 0.0, 0.4, 0.42, //
            0.8, 0.9, 0.0, 1.0, 0.8, 0.8, //
            0.8, 0.4, 0.4, 0.8, 1.0, 0.8, //
            0.4, 0.0, 0.42, 0.8, 0.8, 1.0,
        ];
        SymmetricMatrix::from_rows(6, rows)
    }

    fn random_similarity(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { rng.gen_range(0.0..1.0) })
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let s = SymmetricMatrix::filled(3, 1.0);
        assert!(matches!(
            tmfg(&s, TmfgConfig::default()),
            Err(CoreError::TooFewVertices { got: 3 })
        ));
        let s = SymmetricMatrix::filled(5, 1.0);
        assert!(matches!(
            tmfg(&s, TmfgConfig::with_prefix(0)),
            Err(CoreError::InvalidPrefix)
        ));
    }

    #[test]
    fn nan_similarity_is_rejected_up_front() {
        // A vertex whose similarities are all NaN (e.g. the correlation of
        // a series containing a NaN sample) could never be selected — the
        // candidate generation skips NaN gains — so construction must
        // reject the input instead of looping forever.
        let s = SymmetricMatrix::from_fn(6, |i, j| {
            if i == j {
                1.0
            } else if i.max(j) == 4 {
                f64::NAN
            } else {
                0.5
            }
        });
        for prefix in [1, 3] {
            assert!(matches!(
                tmfg(&s, TmfgConfig::with_prefix(prefix)),
                Err(CoreError::NonFiniteSimilarity { .. })
            ));
        }
        // Opposite infinities make every face's gain for vertex 4 NaN
        // (∞ − ∞): unchecked, prefix 1 found no candidate and panicked and
        // prefix 10 repeated an empty round forever.
        let s = SymmetricMatrix::from_fn(5, |i, j| match (i.min(j), i.max(j)) {
            (a, b) if a == b => 1.0,
            (0 | 1, 4) => f64::INFINITY,
            (2 | 3, 4) => f64::NEG_INFINITY,
            _ => 0.5,
        });
        for prefix in [1, 10] {
            assert_eq!(
                tmfg(&s, TmfgConfig::with_prefix(prefix)).err(),
                Some(CoreError::NonFiniteSimilarity { row: 0, col: 4 }),
                "prefix {prefix}"
            );
        }
        // A diagonal entry enters its row sum, so it picks the seed clique:
        // unchecked, +NaN and +∞ forced vertex 7 into the clique and −NaN
        // and −∞ kept it out. Every sign is rejected, by the pipeline too.
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = random_similarity(20, 31);
            s.set(7, 7, bad);
            let expected = Some(CoreError::NonFiniteSimilarity { row: 7, col: 7 });
            assert_eq!(
                tmfg(&s, TmfgConfig::with_prefix(1)).err(),
                expected,
                "{bad}"
            );
            let pipeline = crate::ParTdbht::with_prefix(1)
                .run_with(&s, &pfg_graph::DissimilarityView::new(&s))
                .err();
            assert_eq!(pipeline, expected, "{bad}: pipeline");
        }
    }

    #[test]
    fn signed_zero_gains_rank_alike_at_every_prefix() {
        // Vertex 4's gain is −0.0 + −0.0 + −0.0 into {0,1,2} and a mix of
        // ±0.0 elsewhere. Every gain is zero, so the smallest face wins at
        // every prefix; ranking −0.0 below +0.0 at some prefixes but not
        // others would send the vertex to a different face.
        let s = SymmetricMatrix::from_fn(5, |i, j| match (i.min(j), i.max(j)) {
            (a, b) if a == b => 1.0,
            (0..=2, 4) => -0.0,
            (3, 4) => 0.0,
            _ => 0.5,
        });
        for prefix in [1, 10] {
            let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
            assert_eq!(t.initial_clique, [0, 1, 2, 3]);
            assert_eq!(t.insertions.len(), 1);
            let ins = t.insertions[0];
            assert_eq!(
                (ins.vertex, ins.face),
                (4, Triangle::new(0, 1, 2)),
                "prefix {prefix}"
            );
            assert_eq!(ins.gain.to_bits(), 0.0f64.to_bits(), "prefix {prefix}");
        }
    }

    #[test]
    fn four_vertices_is_just_the_clique() {
        let s = SymmetricMatrix::filled(4, 0.5);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        assert_eq!(t.graph.num_edges(), 6);
        assert_eq!(t.bubble_tree.len(), 1);
        assert_eq!(t.rounds, 0);
        assert!(t.insertions.is_empty());
        assert!(t.round_stats.is_empty());
    }

    #[test]
    fn appendix_prefix_one_matches_paper_example() {
        // Figure 13(a)-(d): with PREFIX = 1 the algorithm starts from the
        // clique {0,1,3,4}, inserts 5 into {0,3,4} and then 2 into {0,4,5}.
        let s = appendix_matrix();
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let mut clique = t.initial_clique;
        clique.sort_unstable();
        assert_eq!(clique, [0, 1, 3, 4]);
        assert_eq!(t.insertions.len(), 2);
        assert_eq!(t.insertions[0].vertex, 5);
        assert_eq!(t.insertions[0].face, Triangle::new(0, 3, 4));
        assert_eq!(t.insertions[1].vertex, 2);
        assert_eq!(t.insertions[1].face, Triangle::new(0, 4, 5));
        assert_eq!(t.rounds, 2);
    }

    #[test]
    fn appendix_prefix_three_matches_paper_example() {
        // Figure 13(e)-(h): with PREFIX = 3 and the paper's simultaneous
        // placement, vertices 5 and 2 are inserted in the same round; 2
        // goes into {0,1,4} because {0,4,5} does not exist yet.
        let s = appendix_matrix();
        let t = tmfg(&s, TmfgConfig::with_prefix(3).simultaneous()).unwrap();
        assert_eq!(t.rounds, 1);
        assert_eq!(t.insertions.len(), 2);
        let by_vertex: std::collections::HashMap<usize, Triangle> = t
            .insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face))
            .collect();
        assert_eq!(by_vertex[&5], Triangle::new(0, 3, 4));
        assert_eq!(by_vertex[&2], Triangle::new(0, 1, 4));
        assert_eq!(t.total_reassigned(), 0);
    }

    #[test]
    fn appendix_simultaneous_prefix_three_recovers_the_ground_truth() {
        // The appendix's point (Figure 12): the batched TMFG recovers the
        // clusters {0,1,2} / {3,4,5} and the exact TMFG does not. Only the
        // simultaneous placement reproduces it; the default intra-round
        // placement rebuilds the exact TMFG and its cut.
        let s = appendix_matrix();
        let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
        let cut = |config: TmfgConfig| {
            crate::ParTdbht::new(config)
                .run(&s, &d)
                .unwrap()
                .clusters(2)
        };
        let simultaneous = cut(TmfgConfig::with_prefix(3).simultaneous());
        assert_eq!(simultaneous, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(cut(TmfgConfig::with_prefix(1)), vec![0, 0, 1, 0, 1, 1]);
        assert_eq!(cut(TmfgConfig::with_prefix(3)), vec![0, 0, 1, 0, 1, 1]);
    }

    #[test]
    fn appendix_prefix_three_intra_round_recovers_sequential_placement() {
        // Same input, default (intra-round) freshness: 5 still lands in
        // {0,3,4}, but 2 is placed after 5 and sees the freshly created
        // {0,4,5} (gain 1.22 > 1.21), reproducing the sequential TMFG in a
        // single round. Exactly one placement moved off its round-start
        // face, and the counters record it.
        let s = appendix_matrix();
        let batched = tmfg(&s, TmfgConfig::with_prefix(3)).unwrap();
        let sequential = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        assert_eq!(batched.rounds, 1);
        assert_eq!(batched.total_reassigned(), 1);
        let batched_pairs: Vec<(usize, Triangle)> = batched
            .insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face))
            .collect();
        let sequential_pairs: Vec<(usize, Triangle)> = sequential
            .insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face))
            .collect();
        assert_eq!(batched_pairs, sequential_pairs);
        let batched_edges: Vec<_> = batched.graph.edges().collect();
        let sequential_edges: Vec<_> = sequential.graph.edges().collect();
        assert_eq!(batched_edges, sequential_edges);
    }

    #[test]
    fn tmfg_has_maximal_planar_structure() {
        for seed in 0..3 {
            let n = 40;
            let s = random_similarity(n, seed);
            for prefix in [1, 2, 5, 50] {
                let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
                assert_eq!(t.graph.num_edges(), 3 * n - 6, "prefix {prefix}");
                assert!(t.graph.is_connected());
                assert!(pfg_graph::is_planar(&t.graph), "TMFG must be planar");
                assert_eq!(t.bubble_tree.len(), n - 3);
                t.bubble_tree.check_invariants().unwrap();
                // Every non-clique vertex inserted exactly once.
                assert_eq!(t.insertions.len(), n - 4);
            }
        }
    }

    #[test]
    fn edge_weights_come_from_similarity_matrix() {
        let s = random_similarity(25, 7);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        for (u, v, w) in t.graph.edges() {
            assert!((w - s.get(u, v)).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_one_is_greedy_optimal_each_step() {
        // For the sequential TMFG, each insertion's gain must be the best
        // available at that time; in particular gains of later insertions
        // can exceed earlier ones only if enabled by newly created faces.
        let s = random_similarity(20, 3);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        assert_eq!(t.rounds, 16);
        for ins in &t.insertions {
            assert!(ins.gain.is_finite());
        }
    }

    #[test]
    fn larger_prefix_needs_fewer_rounds() {
        let s = random_similarity(60, 11);
        let seq = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let par = tmfg(&s, TmfgConfig::with_prefix(20)).unwrap();
        assert_eq!(seq.rounds, 56);
        assert!(par.rounds < seq.rounds);
        // Quality stays close: parallel edge weight sum within a few percent.
        let ratio = par.edge_weight_sum() / seq.edge_weight_sum();
        assert!(ratio > 0.85 && ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn every_round_is_fully_filled() {
        // The conflict-aware selector's defining property: a round inserts
        // exactly min(prefix, |remaining|, |active faces|) vertices — a
        // conflict never shrinks the batch. (The old truncate-then-dedup
        // selector failed this whenever several faces championed the same
        // vertex inside the top-prefix pairs.)
        for (n, prefix, seed) in [(60, 5, 2u64), (60, 10, 4), (90, 16, 8)] {
            let s = random_similarity(n, seed);
            let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
            assert_every_round_fills(&t, prefix);
            assert_eq!(t.round_stats.len(), t.rounds);
        }
    }

    #[test]
    fn conflicts_are_detected_and_absorbed() {
        // A rank-one-ish similarity concentrates every face's best on the
        // same few vertices, so a batched round must absorb conflicts; the
        // counters record them and the batch still fills.
        let n = 40;
        let mut rng = StdRng::seed_from_u64(17);
        let pull: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let s = SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { pull[i] * pull[j] });
        let t = tmfg(&s, TmfgConfig::with_prefix(8)).unwrap();
        assert!(
            t.total_conflicts() > 0,
            "shared-champion input must conflict"
        );
        assert_every_round_fills(&t, 8);
    }

    #[test]
    fn huge_prefix_still_valid() {
        let n = 30;
        let s = random_similarity(n, 5);
        let t = tmfg(&s, TmfgConfig::with_prefix(10_000)).unwrap();
        assert_eq!(t.graph.num_edges(), 3 * n - 6);
        assert!(pfg_graph::is_planar(&t.graph));
    }

    #[test]
    fn sequential_selector_matches_uncached_reference() {
        // prefix = 1 must reproduce the sequential TMFG exactly. Replay the
        // insertion trace against a from-scratch reference that rescans
        // every face's best vertex at every step (no candidate caching, no
        // reverse index), with the same gain/face/vertex tie-breaking.
        let s = random_similarity(50, 21);
        let seq = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        // Reference: a fresh sequential TMFG computed via best_for_face
        // scans only (no caching), validating the cached selector.
        let n = s.n();
        let mut pool: Vec<usize> = (0..n).filter(|v| !seq.initial_clique.contains(v)).collect();
        let mut faces = vec![
            Triangle::new(
                seq.initial_clique[0],
                seq.initial_clique[1],
                seq.initial_clique[2],
            ),
            Triangle::new(
                seq.initial_clique[0],
                seq.initial_clique[1],
                seq.initial_clique[3],
            ),
            Triangle::new(
                seq.initial_clique[0],
                seq.initial_clique[2],
                seq.initial_clique[3],
            ),
            Triangle::new(
                seq.initial_clique[1],
                seq.initial_clique[2],
                seq.initial_clique[3],
            ),
        ];
        let mut active = vec![true; 4];
        for ins in &seq.insertions {
            // Recompute every face's best from scratch and take the max.
            let mut best: Option<(usize, usize, f64)> = None;
            for (f, &t) in faces.iter().enumerate() {
                if !active[f] {
                    continue;
                }
                if let Some((v, g)) = GainTable::best_for_face(&s, t, &pool) {
                    let better = match best {
                        None => true,
                        Some((bf, bv, bg)) => g
                            .total_cmp(&bg)
                            .then_with(|| bf.cmp(&f))
                            .then_with(|| bv.cmp(&v))
                            .is_gt(),
                    };
                    if better {
                        best = Some((f, v, g));
                    }
                }
            }
            let (f, v, g) = best.expect("candidates remain");
            assert_eq!(ins.vertex, v);
            assert_eq!(ins.face, faces[f]);
            assert!((ins.gain - g).abs() < 1e-12);
            pool.retain(|&u| u != v);
            active[f] = false;
            for nf in faces[f].split_with(v) {
                faces.push(nf);
                active.push(true);
            }
        }
    }

    /// A test-only uncached reference of the conflict-aware selector with
    /// [`BatchFreshness::Simultaneous`] placement. Every round recomputes
    /// every active face's gain for every remaining vertex with
    /// [`GainTable::gain_of`] — no scan, no cache, no bound, no tree —
    /// ranks all `(face, vertex)` pairs by
    /// gain, then smaller face, then smaller vertex, and accepts pairs in
    /// that order while neither the face nor the vertex is used, up to
    /// `min(prefix, |remaining|, |active faces|)` of them.
    fn uncached_conflict_aware_reference(
        s: &SymmetricMatrix,
        prefix: usize,
        initial_clique: [usize; 4],
    ) -> Vec<Insertion> {
        let [v1, v2, v3, v4] = initial_clique;
        let mut faces = vec![
            Triangle::new(v1, v2, v3),
            Triangle::new(v1, v2, v4),
            Triangle::new(v1, v3, v4),
            Triangle::new(v2, v3, v4),
        ];
        let mut active = vec![true; 4];
        let mut pool: Vec<usize> = (0..s.n()).filter(|v| !initial_clique.contains(v)).collect();
        let mut insertions = Vec::new();
        let mut round = 0;
        while !pool.is_empty() {
            round += 1;
            let active_faces: Vec<usize> = (0..faces.len()).filter(|&f| active[f]).collect();
            let target = prefix.min(pool.len()).min(active_faces.len());
            let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
            for &f in &active_faces {
                pairs.extend(
                    pool.iter()
                        .map(|&v| (GainTable::gain_of(s, faces[f], v), f, v))
                        .filter(|&(gain, _, _)| !gain.is_nan()),
                );
            }
            pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
            let mut face_used = vec![false; faces.len()];
            let mut taken = vec![false; s.n()];
            let mut selected = Vec::new();
            for (gain, f, v) in pairs {
                if selected.len() == target {
                    break;
                }
                if !face_used[f] && !taken[v] {
                    face_used[f] = true;
                    taken[v] = true;
                    selected.push((f, v, gain));
                }
            }
            for (f, v, gain) in selected {
                insertions.push(Insertion {
                    vertex: v,
                    face: faces[f],
                    gain,
                    round,
                });
                active[f] = false;
                for child in faces[f].split_with(v) {
                    faces.push(child);
                    active.push(true);
                }
                pool.retain(|&u| u != v);
            }
        }
        insertions
    }

    #[test]
    fn batched_selector_matches_uncached_reference() {
        // The cached lists, stale bounds and selector tree must draw
        // exactly what an uncached, eager draw does at prefix > 1 — gain
        // bits included. Block-clustered similarities with a shared
        // within-block ranking make faces share their best vertices, so
        // truncated lists drain and stale faces are common; quantized
        // similarities make exact gain ties (including ties with stale
        // bounds) common. Prefix 50 (cache depth 32) needs more rounds
        // than n = 150 gives before a drained face's bound can win.
        for (prefix, n) in [(2, 150), (10, 150), (50, 400)] {
            let mut rng = StdRng::seed_from_u64(41);
            let block: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let pull: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let noise = random_similarity(n, 43);
            let blocks = SymmetricMatrix::from_fn(n, |i, j| {
                if i == j {
                    1.0
                } else if block[i] == block[j] {
                    0.5 + 0.4 * pull[i] * pull[j] + 0.1 * noise.get(i, j)
                } else {
                    0.3 * noise.get(i, j)
                }
            });
            let quantized = SymmetricMatrix::from_fn(n, |i, j| {
                if i == j {
                    1.0
                } else {
                    (noise.get(i, j) * 2.0).floor() / 2.0
                }
            });
            for (name, s) in [("blocks", &blocks), ("quantized", &quantized)] {
                let t = tmfg(s, TmfgConfig::with_prefix(prefix).simultaneous()).unwrap();
                let reference = uncached_conflict_aware_reference(s, prefix, t.initial_clique);
                let ctx = format!("{name} n {n} prefix {prefix}");
                assert_eq!(t.insertions.len(), reference.len(), "{ctx}");
                for (i, (got, want)) in t.insertions.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        (got.vertex, got.face, got.round, got.gain.to_bits()),
                        (want.vertex, want.face, want.round, want.gain.to_bits()),
                        "{ctx}: insertion {i}"
                    );
                }
                assert!(t.total_refreshes() > 0, "{ctx}: no stale face was drawn");
            }
        }
    }

    #[test]
    fn parallel_pool_matches_sequential_reference() {
        // The candidate maintenance runs on the work-stealing executor;
        // its results must be bit-identical to the single-threaded
        // reference for every worker count (the split-tree decomposition
        // depends on input length only, stealing may reorder execution but
        // never results, candidate order is preserved, and the selector is
        // a strict total order).
        //
        // The per-round parallel steps — the fused child refresh and the
        // stale-face rescans — run each scan as its own pool job, so at 2
        // and 8 threads the scans land on the workers in any order; the
        // comparison pins that the construction, selector counters
        // included, is independent of the pool it runs on. n = 300 gives
        // prefixes 10 and 50 many conflict, rescan and refresh rounds.
        let n = 300;
        let s = random_similarity(n, 13);
        for freshness in [BatchFreshness::IntraRound, BatchFreshness::Simultaneous] {
            for prefix in [1, 10, 50] {
                let config = TmfgConfig { prefix, freshness };
                let sequential = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .unwrap()
                    .install(|| tmfg(&s, config).unwrap());
                for threads in [2, 8] {
                    let parallel = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap()
                        .install(|| tmfg(&s, config).unwrap());
                    let ctx = format!("prefix {prefix} {freshness:?} threads {threads}");
                    assert_eq!(
                        sequential.insertions, parallel.insertions,
                        "{ctx}: insertion traces (incl. gains) must match"
                    );
                    assert_eq!(sequential.initial_clique, parallel.initial_clique);
                    assert_eq!(sequential.rounds, parallel.rounds);
                    assert_eq!(
                        sequential.round_stats, parallel.round_stats,
                        "{ctx}: staleness counters must match"
                    );
                    let seq_edges: Vec<_> = sequential.graph.edges().collect();
                    let par_edges: Vec<_> = parallel.graph.edges().collect();
                    assert_eq!(seq_edges, par_edges, "{ctx}: edge sets must match");
                }
            }
        }
    }

    #[test]
    fn f32_storage_matches_widened_f64() {
        // Construction reads a source through `get` and its rows (the gain
        // scans, the row sums), and an f32 entry widens to f64 exactly, so
        // the f32 matrix and the f64 matrix holding its widened entries
        // build the same TMFG, bit for bit.
        let s = random_similarity(40, 29);
        let f32_data: Vec<f32> = s.as_slice().iter().map(|&x| x as f32).collect();
        let widened = SymmetricMatrix::from_fn(s.n(), |i, j| f32_data[i * s.n() + j] as f64);
        let s32 = pfg_graph::SymmetricMatrixF32::from_symmetrized(s.n(), f32_data);
        let config = TmfgConfig::default();
        let narrow = tmfg(&s32, config).unwrap();
        let wide = tmfg(&widened, config).unwrap();
        assert_eq!(narrow.initial_clique, wide.initial_clique);
        assert_eq!(narrow.insertions, wide.insertions);
        assert_eq!(narrow.round_stats, wide.round_stats);
        let narrow_edges: Vec<_> = narrow.graph.edges().collect();
        let wide_edges: Vec<_> = wide.graph.edges().collect();
        assert_eq!(narrow_edges, wide_edges);
    }

    #[test]
    fn initial_clique_has_highest_row_sums() {
        let s = random_similarity(30, 9);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let sums = s.row_sums();
        let min_clique_sum = t
            .initial_clique
            .iter()
            .map(|&v| sums[v])
            .fold(f64::INFINITY, f64::min);
        let max_other = (0..30)
            .filter(|v| !t.initial_clique.contains(v))
            .map(|v| sums[v])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(min_clique_sum >= max_other);
    }
}
