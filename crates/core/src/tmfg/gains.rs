//! The gain table: per-face top-k candidate lists with lazy invalidation.
//!
//! Algorithm 1 keeps, for each face `t`, the best remaining vertex
//! `GAINS[t] = argmax_{u ∈ V} Σ_{c ∈ t} S[c, u]`. A single best vertex per
//! face is not enough for the prefix-batched selection of Lines 9–10,
//! though: when several faces champion the same vertex, every face that
//! loses the conflict must immediately offer its *next*-best vertex so the
//! round can still fill up to `PREFIX` distinct insertions. This table
//! therefore caches, per face, the top-k candidate `(vertex, gain)` pairs
//! found at the face's last refresh, in decreasing gain order.
//!
//! These properties make the cache cheap to keep fresh:
//!
//! * **Gains are immutable.** The gain of inserting `v` into face `t`
//!   depends only on the input matrix, so a cached list never reorders; the
//!   candidate pool only ever *shrinks* as vertices are inserted.
//! * **Lazy invalidation.** Entries for inserted vertices are not eagerly
//!   removed; readers skip them. Each face keeps a cursor to its first
//!   still-valid entry, advanced via the vertex → faces reverse index when
//!   the head vertex is inserted.
//! * **Drained faces keep a bound, not a rescan.** When a truncated list
//!   runs dry, the face is *stale*: it keeps the gain of its list's last
//!   entry ([`GainTable::stale_bound`]). Every vertex left off the list
//!   had a gain at most that value when the list was built, gains never
//!   change and the pool only shrinks, so the bound stays an upper bound
//!   on the face's best remaining gain for good. The builder's selector
//!   rescans a stale face only once its bound could win a draw, so many
//!   drained faces are never rescanned at all, and the rest later, over a
//!   smaller pool. A list that was *not* truncated held every candidate,
//!   so its face has none left once it drains.
//! * **Fused child refresh.** The only faces that *must* be scanned every
//!   round are the 3 per insertion that did not exist before it.
//!   Those three share two corners with the consumed parent and one with
//!   each other, so one scan over the remaining pool serves all three —
//!   4 similarity loads per vertex instead of 9 — via
//!   [`GainTable::compute_candidates_for_children`], bitwise identical to
//!   three standalone refreshes.
//!
//! Every scan walks the *remaining pool* — the ascending ids of the
//! vertices not yet inserted — so its cost shrinks as construction
//! proceeds, and ties resolve towards the smaller vertex id because the
//! scan visits ids in increasing order.
//!
//! **How a scan walks the pool.** A scan takes its corner rows
//! ([`SimilaritySource::row`]) once, then walks the pool in chunks of
//! eight consecutive entries: it computes their eight gains into one
//! array, each summed in the face's sorted-corner order with the trailing
//! `+ 0.0`, exactly as [`GainTable::gain_of`] sums one, and only then
//! tests the chunk against the list. A full list admits an entry only if
//! its gain is strictly above the list's current worst (for a rescan, the
//! current best), so a chunk whose every lane is at or below that bar —
//! none of them NaN — is skipped whole: it only marks the list truncated,
//! as the per-entry insert would have for each of its lanes. Any other
//! chunk, and the `len % 8` tail, take the per-entry ordered insert lane
//! by lane, in pool order. A skipped chunk is one in which the per-entry
//! insert would have rejected every lane, and every other entry takes
//! that insert in the same order, so every list, every `truncated` flag
//! and every rescan winner is bit for bit the per-entry scan's. On most
//! chunks the bar test, eight compares against one value, is all the
//! selection work there is: a full list's worst gain is high and most of
//! the pool falls below it, so about nine chunks in ten are skipped on
//! the benchmark's TMFG workloads.
//!
//! The reverse index `faces_of_best` maps each vertex to the faces whose
//! current head it is. A face re-registers on every head change and each
//! entry is consumed (and stale entries dropped) the moment its vertex is
//! inserted, so the index holds at most one live entry per face plus a
//! bounded number of stale ones — O(faces), not O(insertions × faces).
//!
//! NaN gains are skipped when candidate lists are built, so a NaN gain can
//! never be selected. Gains are computed with a trailing `+ 0.0`, which
//! turns a `−0.0` sum into `+0.0` and leaves every other value bitwise
//! unchanged, so the lists' `>=` order and the selector's `total_cmp`
//! order agree on every gain.

use pfg_graph::SimilaritySource;

use crate::face::Triangle;
use crate::schedule::BatchSchedule;

/// A freshly computed per-face candidate list (decreasing gain) and
/// whether it was truncated at the cache depth.
pub(crate) type CandidateList = (Vec<(usize, f64)>, bool);

/// Consecutive pool entries whose gains a scan computes before it tests
/// them against a list (16 lanes measured slower, 4 no faster).
const LANES: usize = 8;

/// A top-`depth` candidate list under construction: decreasing gain, ties
/// towards the smaller vertex id, NaN gains skipped.
struct TopList {
    list: Vec<(usize, f64)>,
    /// Whether a candidate was left off because the list was full.
    truncated: bool,
    depth: usize,
    /// The gain of the list's last entry once the list is full, NaN
    /// before: an entry at or below it cannot enter.
    bar: f64,
}

impl TopList {
    fn new(depth: usize) -> Self {
        Self {
            list: Vec::with_capacity(depth + 1),
            truncated: false,
            depth,
            bar: f64::NAN,
        }
    }

    /// The per-entry ordered insert of vertex `v` with gain `gain`.
    #[inline]
    fn offer(&mut self, v: usize, gain: f64) {
        if gain.is_nan() {
            return;
        }
        if self.list.len() == self.depth {
            // Full list: only gains strictly above the current worst
            // displace an entry (equal gains lose to the smaller vertex id
            // already present). Either way a candidate is left off.
            self.truncated = true;
            if gain <= self.bar {
                return;
            }
        }
        // Descending by gain, ties towards the smaller vertex id: the scan
        // visits vertices in increasing id order, so inserting *after*
        // equal gains preserves the tie-break.
        let at = self.list.partition_point(|&(_, g)| g >= gain);
        self.list.insert(at, (v, gain));
        self.list.truncate(self.depth);
        if self.list.len() == self.depth {
            self.bar = self.list[self.depth - 1].1;
        }
    }

    /// Whether every lane is at or below the bar: the list is full, no
    /// lane is NaN, and the per-entry insert would reject every lane.
    #[inline(always)]
    fn rejects(&self, gains: &[f64; LANES]) -> bool {
        let bar = self.bar;
        gains.iter().fold(true, |all, &g| all & (g <= bar))
    }

    /// Offers one chunk of consecutive pool entries. A chunk the list
    /// rejects only marks it truncated, as the per-entry insert would;
    /// any other chunk takes the per-entry insert lane by lane.
    #[inline(always)]
    fn offer_chunk(&mut self, ids: &[usize; LANES], gains: &[f64; LANES]) {
        if self.rejects(gains) {
            self.truncated = true;
            return;
        }
        for (&v, &gain) in ids.iter().zip(gains) {
            self.offer(v, gain);
        }
    }

    fn finish(self) -> CandidateList {
        (self.list, self.truncated)
    }
}

/// The values `f` takes at one chunk's pool entries: their gains, or one
/// row's entries.
#[inline(always)]
fn lanes(ids: &[usize; LANES], f: impl Fn(usize) -> f64) -> [f64; LANES] {
    let mut values = [0.0; LANES];
    for (x, &v) in values.iter_mut().zip(ids) {
        *x = f(v);
    }
    values
}

/// Result of asking a face for its next still-available candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum NextBest {
    /// The next candidate, with the list position it was found at (pass
    /// `pos + 1` as `from` on the next call for this face).
    Found {
        /// Position in the face's cached list.
        pos: usize,
        /// The candidate vertex.
        vertex: usize,
        /// The (exact) gain of inserting it into the face.
        gain: f64,
    },
    /// The cached list is out of available candidates. If `truncated`, the
    /// remaining pool held more candidates than the cache at refresh time,
    /// so the caller must fall back to [`GainTable::rescan_excluding`] (or,
    /// between rounds, keep the face's [`GainTable::stale_bound`]); if not,
    /// the face genuinely has no candidate left.
    Exhausted {
        /// Whether the cached list was truncated at refresh time.
        truncated: bool,
    },
}

/// Per-face candidate bookkeeping for the faces of the graph under
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct GainTable {
    /// Cache depth: how many candidates each refresh retains per face.
    depth: usize,
    /// `lists[f]` is face `f`'s candidate list from its last refresh, in
    /// decreasing gain order (ties towards the smaller vertex id). Entries
    /// go stale lazily as their vertices are inserted.
    lists: Vec<Vec<(usize, f64)>>,
    /// `cursor[f]` indexes the first entry of `lists[f]` whose vertex is
    /// still remaining (== `lists[f].len()` when the list is drained; a
    /// drained truncated list makes the face stale).
    cursor: Vec<usize>,
    /// `truncated[f]` records whether the remaining pool held more than
    /// `depth` candidates when `lists[f]` was computed.
    truncated: Vec<bool>,
    /// `faces_of_best[v]` lists face ids whose current head is (or recently
    /// was) `v`. Entries may be stale; they are dropped when processed.
    faces_of_best: Vec<Vec<usize>>,
}

impl GainTable {
    /// Creates an empty table for a graph on `num_vertices` vertices whose
    /// construction inserts up to `prefix` vertices per round. The cache
    /// depth scales with the prefix (clamped into
    /// [`BatchSchedule::TMFG_CACHE_DEPTH`], 4..=32) because a round can steal
    /// at most `prefix − 1` of a face's top candidates before the face is
    /// asked for another.
    pub(crate) fn new(num_vertices: usize, prefix: usize) -> Self {
        Self {
            depth: BatchSchedule::TMFG_CACHE_DEPTH.clamp(prefix),
            lists: Vec::new(),
            cursor: Vec::new(),
            truncated: Vec::new(),
            faces_of_best: vec![Vec::new(); num_vertices],
        }
    }

    /// The per-face candidate cache depth.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Registers a new face id; its candidate list starts empty (install
    /// one with [`GainTable::install`]).
    pub(crate) fn push_face(&mut self) -> usize {
        self.lists.push(Vec::new());
        self.cursor.push(0);
        self.truncated.push(false);
        self.lists.len() - 1
    }

    /// The face's best still-remaining candidate, if any. The head is kept
    /// valid by [`GainTable::on_vertex_inserted`]; its gain is exact, not
    /// an upper bound, because gains never change. `None` for a drained
    /// face (see [`GainTable::stale_bound`]).
    #[inline]
    pub(crate) fn head(&self, face: usize) -> Option<(usize, f64)> {
        self.lists[face].get(self.cursor[face]).copied()
    }

    /// The cursor position of the face's head (pass to
    /// [`GainTable::next_best`] as the starting point of a round-local
    /// walk).
    #[inline]
    pub(crate) fn head_pos(&self, face: usize) -> usize {
        self.cursor[face]
    }

    /// The upper bound a *stale* face — one whose truncated list drained —
    /// keeps in place of a head: the gain of the list's last entry. Every
    /// vertex left off the list had a gain at most this value when the
    /// list was built, gains never change and the pool only shrinks, so
    /// the face's best remaining gain never exceeds it. `None` while the
    /// face has a head, or if its drained list held every candidate (the
    /// face has none left).
    #[inline]
    pub(crate) fn stale_bound(&self, face: usize) -> Option<f64> {
        let list = &self.lists[face];
        if self.cursor[face] < list.len() || !self.truncated[face] {
            return None;
        }
        list.last().map(|&(_, gain)| gain)
    }

    /// Faces whose recorded head may be `v` (possibly stale).
    #[cfg(test)]
    pub(crate) fn faces_possibly_best_for(&self, v: usize) -> &[usize] {
        &self.faces_of_best[v]
    }

    /// Walks face `face`'s cached list from position `from`, skipping
    /// vertices that are no longer `remaining` or are `taken` by the
    /// current round, and returns the first available candidate.
    pub(crate) fn next_best(
        &self,
        face: usize,
        from: usize,
        remaining: &[bool],
        taken: &[bool],
    ) -> NextBest {
        for (offset, &(v, gain)) in self.lists[face][from.min(self.lists[face].len())..]
            .iter()
            .enumerate()
        {
            if remaining[v] && !taken[v] {
                return NextBest::Found {
                    pos: from + offset,
                    vertex: v,
                    gain,
                };
            }
        }
        NextBest::Exhausted {
            truncated: self.truncated[face],
        }
    }

    /// Installs a freshly computed candidate list for `face` (see
    /// [`GainTable::compute_candidates`]) and registers the face under its
    /// head vertex in the reverse index.
    pub(crate) fn install(&mut self, face: usize, list: Vec<(usize, f64)>, truncated: bool) {
        if let Some(&(head, _)) = list.first() {
            self.faces_of_best[head].push(face);
        }
        self.lists[face] = list;
        self.cursor[face] = 0;
        self.truncated[face] = truncated;
    }

    /// Reacts to the insertion of vertex `v`: every face registered under
    /// `v` advances its cursor to the next still-remaining entry,
    /// re-registers under the new head and is appended to `advanced` (the
    /// caller re-reads its [`GainTable::head`] or
    /// [`GainTable::stale_bound`]). A face whose truncated list drained is
    /// not rescanned here: it goes stale and keeps its bound. Stale
    /// registrations — faces that are no longer active or whose head moved
    /// on — are dropped, which keeps the reverse index O(faces).
    pub(crate) fn on_vertex_inserted(
        &mut self,
        v: usize,
        remaining: &[bool],
        face_active: &[bool],
        advanced: &mut Vec<usize>,
    ) {
        let registered = std::mem::take(&mut self.faces_of_best[v]);
        for face in registered {
            if !face_active[face] {
                continue;
            }
            let list = &self.lists[face];
            let mut cursor = self.cursor[face];
            if list.get(cursor).map(|&(head, _)| head) != Some(v) {
                // Stale registration: the face was refreshed (or advanced)
                // under a different head since this entry was pushed.
                continue;
            }
            while cursor < list.len() && !remaining[list[cursor].0] {
                cursor += 1;
            }
            self.cursor[face] = cursor;
            if let Some(&(new_head, _)) = list.get(cursor) {
                self.faces_of_best[new_head].push(face);
            }
            advanced.push(face);
        }
    }

    /// Computes the gain of inserting `vertex` into `triangle` under the
    /// similarity matrix `s`: the sum of the three new edge weights, in the
    /// triangle's sorted-corner order. The trailing `+ 0.0` turns a `−0.0`
    /// sum into `+0.0` and leaves every other value bitwise unchanged, so
    /// `>=` and `total_cmp` rank every gain alike.
    #[inline]
    pub(crate) fn gain_of<S: SimilaritySource>(s: &S, triangle: Triangle, vertex: usize) -> f64 {
        let [a, b, c] = triangle.corners();
        s.get(a, vertex) + s.get(b, vertex) + s.get(c, vertex) + 0.0
    }

    /// Scans `pool` (the remaining vertex ids, ascending) for the
    /// up-to-`depth` best vertices to insert into `triangle`, in decreasing
    /// gain order (ties towards the smaller vertex id). Returns the list
    /// and whether it was truncated (more than `depth` candidates
    /// remained). NaN gains are skipped.
    pub(crate) fn compute_candidates<S: SimilaritySource>(
        s: &S,
        triangle: Triangle,
        pool: &[usize],
        depth: usize,
    ) -> CandidateList {
        let [a, b, c] = triangle.corners().map(|corner| s.row(corner));
        let gain = |v: usize| a[v].into() + b[v].into() + c[v].into() + 0.0;
        let mut list = TopList::new(depth);
        let (chunks, tail) = pool.as_chunks::<LANES>();
        for ids in chunks {
            list.offer_chunk(ids, &lanes(ids, gain));
        }
        for &v in tail {
            list.offer(v, gain(v));
        }
        list.finish()
    }

    /// Fused candidate refresh for the three child faces created by one
    /// insertion: splitting `parent = {a, b, c}` with `vertex = v` yields
    /// `{v,a,b}`, `{v,b,c}`, `{v,a,c}` (in [`Triangle::split_with`]
    /// order), and the three scans share all of their similarity reads —
    /// each remaining vertex `u` needs only the four loads `s(a,u)`,
    /// `s(b,u)`, `s(c,u)`, `s(v,u)` instead of the nine that three
    /// independent [`GainTable::compute_candidates`] calls would issue.
    /// This is the follow-up paper's cheap per-round gain maintenance:
    /// refresh work is driven by the round's insertions (3 lists per
    /// insertion off one scan), not by full candidate-cache invalidation.
    ///
    /// Byte-identity with the unfused path is load-bearing: each child's
    /// gain is summed **in that child's sorted-corner order** (the order
    /// [`GainTable::gain_of`] uses, including its trailing `+ 0.0`),
    /// because float addition is not associative and the differential
    /// tests compare gains bitwise. Each child's list takes the pool's
    /// chunks and tail in pool order through the same chunk test and
    /// per-entry insert as [`GainTable::compute_candidates`], so each
    /// returned list is exactly what a standalone refresh of that child
    /// would have produced.
    pub(crate) fn compute_candidates_for_children<S: SimilaritySource>(
        s: &S,
        parent: Triangle,
        vertex: usize,
        pool: &[usize],
        depth: usize,
    ) -> [CandidateList; 3] {
        let [a, b, c] = parent.corners();
        // Load order of the shared reads; slot 3 is the inserted vertex.
        let ids = [a, b, c, vertex];
        // perm[k][i]: which shared load is child k's i-th sorted corner.
        let mut perm = [[0usize; 3]; 3];
        for (k, child) in parent.split_with(vertex).iter().enumerate() {
            for (i, corner) in child.corners().into_iter().enumerate() {
                perm[k][i] = ids
                    .iter()
                    .position(|&x| x == corner)
                    .expect("child corners come from {parent} ∪ {vertex}");
            }
        }
        let rows = ids.map(|x| s.row(x));
        let mut lists: [TopList; 3] = std::array::from_fn(|_| TopList::new(depth));
        let (chunks, tail) = pool.as_chunks::<LANES>();
        for chunk in chunks {
            // w[i][lane]: shared load i of the chunk's lane-th entry.
            let mut w = [[0.0; LANES]; 4];
            for (loads, row) in w.iter_mut().zip(&rows) {
                *loads = lanes(chunk, |u| row[u].into());
            }
            for (list, &[i, j, l]) in lists.iter_mut().zip(&perm) {
                let (x, y, z) = (&w[i], &w[j], &w[l]);
                let mut gains = [0.0; LANES];
                for (lane, g) in gains.iter_mut().enumerate() {
                    *g = x[lane] + y[lane] + z[lane] + 0.0;
                }
                list.offer_chunk(chunk, &gains);
            }
        }
        for &u in tail {
            let w: [f64; 4] = rows.map(|row| row[u].into());
            for (list, &[i, j, l]) in lists.iter_mut().zip(&perm) {
                list.offer(u, w[i] + w[j] + w[l] + 0.0);
            }
        }
        lists.map(TopList::finish)
    }

    /// Scans `pool` (the remaining vertex ids, ascending) for the best
    /// vertex to insert into `triangle` among those not `taken` — the
    /// fallback when a truncated cached list runs dry mid-round. Ties break
    /// towards the smaller vertex id; NaN gains never win. Returns
    /// `(vertex, gain)` or `None`.
    ///
    /// The best so far is a depth-1 list, which a later entry displaces
    /// only with a strictly larger gain. A chunk that list rejects holds
    /// no new best, taken lanes or not, so only the other chunks look at
    /// `taken`.
    pub(crate) fn rescan_excluding<S: SimilaritySource>(
        s: &S,
        triangle: Triangle,
        pool: &[usize],
        taken: &[bool],
    ) -> Option<(usize, f64)> {
        let [a, b, c] = triangle.corners().map(|corner| s.row(corner));
        let gain = |v: usize| a[v].into() + b[v].into() + c[v].into() + 0.0;
        let mut best = TopList::new(1);
        let (chunks, tail) = pool.as_chunks::<LANES>();
        for ids in chunks {
            let gains = lanes(ids, gain);
            if best.rejects(&gains) {
                continue;
            }
            for (&v, &g) in ids.iter().zip(&gains) {
                if !taken[v] {
                    best.offer(v, g);
                }
            }
        }
        for &v in tail {
            if !taken[v] {
                best.offer(v, gain(v));
            }
        }
        best.list.first().copied()
    }

    /// Scans `pool` for the single best vertex to insert into `triangle`,
    /// ranking [`GainTable::gain_of`] entry by entry (ties towards the
    /// smaller vertex id, NaN never wins); the tests' uncached reference.
    #[cfg(test)]
    pub(crate) fn best_for_face<S: SimilaritySource>(
        s: &S,
        triangle: Triangle,
        pool: &[usize],
    ) -> Option<(usize, f64)> {
        pool.iter()
            .map(|&v| (v, Self::gain_of(s, triangle, v)))
            .filter(|&(_, gain)| !gain.is_nan())
            .fold(None, |best, (v, gain)| match best {
                Some((_, bg)) if gain <= bg => best,
                _ => Some((v, gain)),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfg_graph::{SymmetricMatrix, SymmetricMatrixF32};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Per-entry reference of [`GainTable::compute_candidates`]: every
    /// pool entry takes the ordered insert, in pool order.
    fn reference_candidates<S: SimilaritySource>(
        s: &S,
        triangle: Triangle,
        pool: &[usize],
        depth: usize,
    ) -> CandidateList {
        let mut list: Vec<(usize, f64)> = Vec::with_capacity(depth + 1);
        let mut truncated = false;
        for &v in pool {
            let gain = GainTable::gain_of(s, triangle, v);
            if gain.is_nan() {
                continue;
            }
            if list.len() == depth {
                let (_, worst) = list[depth - 1];
                if gain <= worst {
                    truncated = true;
                    continue;
                }
                truncated = true;
            }
            let at = list.partition_point(|&(_, g)| g >= gain);
            list.insert(at, (v, gain));
            list.truncate(depth);
        }
        (list, truncated)
    }

    /// Per-entry reference of
    /// [`GainTable::compute_candidates_for_children`]: four loads per pool
    /// entry, then each child's ordered insert.
    fn reference_candidates_for_children<S: SimilaritySource>(
        s: &S,
        parent: Triangle,
        vertex: usize,
        pool: &[usize],
        depth: usize,
    ) -> [CandidateList; 3] {
        let [a, b, c] = parent.corners();
        let ids = [a, b, c, vertex];
        let mut perm = [[0usize; 3]; 3];
        for (k, child) in parent.split_with(vertex).iter().enumerate() {
            for (i, corner) in child.corners().into_iter().enumerate() {
                perm[k][i] = ids.iter().position(|&x| x == corner).unwrap();
            }
        }
        let mut lists: [Vec<(usize, f64)>; 3] =
            std::array::from_fn(|_| Vec::with_capacity(depth + 1));
        let mut truncated = [false; 3];
        for &u in pool {
            let w = [s.get(a, u), s.get(b, u), s.get(c, u), s.get(vertex, u)];
            for k in 0..3 {
                let [i, j, l] = perm[k];
                let gain = w[i] + w[j] + w[l] + 0.0;
                if gain.is_nan() {
                    continue;
                }
                let list = &mut lists[k];
                if list.len() == depth {
                    let (_, worst) = list[depth - 1];
                    if gain <= worst {
                        truncated[k] = true;
                        continue;
                    }
                    truncated[k] = true;
                }
                let at = list.partition_point(|&(_, g)| g >= gain);
                list.insert(at, (u, gain));
                list.truncate(depth);
            }
        }
        let [l0, l1, l2] = lists;
        [(l0, truncated[0]), (l1, truncated[1]), (l2, truncated[2])]
    }

    /// Per-entry reference of [`GainTable::rescan_excluding`].
    fn reference_rescan_excluding<S: SimilaritySource>(
        s: &S,
        triangle: Triangle,
        pool: &[usize],
        taken: &[bool],
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for &v in pool {
            if taken[v] {
                continue;
            }
            let gain = GainTable::gain_of(s, triangle, v);
            if gain.is_nan() {
                continue;
            }
            match best {
                None => best = Some((v, gain)),
                Some((_, bg)) if gain > bg => best = Some((v, gain)),
                _ => {}
            }
        }
        best
    }

    /// A candidate list as comparable bits: `(vertex, gain bits)` pairs and
    /// the truncation flag.
    fn bits((list, truncated): &CandidateList) -> (Vec<(usize, u64)>, bool) {
        let list = list.iter().map(|&(v, g)| (v, g.to_bits())).collect();
        (list, *truncated)
    }

    /// The entries the scan property test draws its matrices from.
    #[derive(Debug, Clone, Copy)]
    enum Entries {
        /// Uniform in `[-1, 1)`.
        Continuous,
        /// Four levels, so gains tie often, with each other and with a
        /// full list's worst entry.
        QuantizedTies,
        /// Continuous, with a NaN stripe of twelve columns (whole chunks of
        /// NaN gains) and one entry in eight NaN elsewhere.
        Nan,
        /// Mostly `−0.0` and `+0.0`, so many gains sum to `−0.0`.
        NegativeZero,
        /// Falling with the column id, so every chunk after a list fills
        /// is skipped whole.
        Falling,
    }

    fn entries_matrix(kind: Entries, n: usize, rng: &mut StdRng) -> SymmetricMatrix {
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                return 1.0;
            }
            match kind {
                Entries::Continuous => rng.gen_range(-1.0..1.0),
                Entries::QuantizedTies => rng.gen_range(0..4usize) as f64 * 0.25,
                Entries::Nan if (24..36).contains(&j) || rng.gen_range(0..8usize) == 0 => f64::NAN,
                Entries::Nan => rng.gen_range(-1.0..1.0),
                Entries::NegativeZero => match rng.gen_range(0..4usize) {
                    0 | 1 => -0.0,
                    2 => 0.0,
                    _ => 0.5,
                },
                Entries::Falling => 1.0 - (i + j) as f64 / (2 * n) as f64,
            }
        })
    }

    /// Checks the three chunked scans against their per-entry references
    /// on one source, face, vertex, pool and `taken` mask.
    fn assert_scans_match<S: SimilaritySource>(
        s: &S,
        parent: Triangle,
        vertex: usize,
        pool: &[usize],
        taken: &[bool],
        ctx: &str,
    ) {
        for depth in [1, 4, 8, 32] {
            let got = GainTable::compute_candidates(s, parent, pool, depth);
            let want = reference_candidates(s, parent, pool, depth);
            assert_eq!(bits(&got), bits(&want), "{ctx} depth {depth}: single face");
            let got = GainTable::compute_candidates_for_children(s, parent, vertex, pool, depth);
            let want = reference_candidates_for_children(s, parent, vertex, pool, depth);
            for k in 0..3 {
                assert_eq!(
                    bits(&got[k]),
                    bits(&want[k]),
                    "{ctx} depth {depth}: child {k}"
                );
            }
        }
        let bits = |best: Option<(usize, f64)>| best.map(|(v, g)| (v, g.to_bits()));
        assert_eq!(
            bits(GainTable::rescan_excluding(s, parent, pool, taken)),
            bits(reference_rescan_excluding(s, parent, pool, taken)),
            "{ctx}: rescan"
        );
    }

    #[test]
    fn chunked_scans_match_per_entry_references() {
        // Every pool length from 0 to 40 (each remainder mod 8, chunks and
        // tails), pools with gaps in their ids, f64 and f32 storage and
        // four depths: the chunked scans must return the per-entry scans'
        // lists, gain bits and truncation flags, and the same rescan
        // winner under a random `taken` mask.
        let n = 64;
        let mut rng = StdRng::seed_from_u64(20230309);
        for kind in [
            Entries::Continuous,
            Entries::QuantizedTies,
            Entries::Nan,
            Entries::NegativeZero,
            Entries::Falling,
        ] {
            let m = entries_matrix(kind, n, &mut rng);
            let data = m.as_slice().iter().map(|&x| x as f32).collect();
            let m32 = SymmetricMatrixF32::from_symmetrized(n, data);
            for len in 0..=40 {
                // A random order of the ids: the first three are the parent
                // face, the fourth the inserted vertex, and `len` of the
                // rest, ascending, the pool.
                let mut ids: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    ids.swap(i, rng.gen_range(0..i + 1));
                }
                let parent = Triangle::new(ids[0], ids[1], ids[2]);
                let vertex = ids[3];
                let mut pool = ids[4..4 + len].to_vec();
                pool.sort_unstable();
                let taken: Vec<bool> = (0..n).map(|_| rng.gen_range(0..3usize) == 0).collect();
                let ctx = format!("{kind:?} pool {len}");
                assert_scans_match(&m, parent, vertex, &pool, &taken, &format!("{ctx} f64"));
                assert_scans_match(&m32, parent, vertex, &pool, &taken, &format!("{ctx} f32"));
            }
        }
    }

    fn matrix() -> SymmetricMatrix {
        // 5 vertices; vertex 4 is strongly attached to {0,1,2}.
        SymmetricMatrix::from_fn(5, |i, j| {
            if i == j {
                1.0
            } else if (i, j) == (0, 4) || (i, j) == (1, 4) || (i, j) == (2, 4) {
                0.9
            } else {
                0.1
            }
        })
    }

    /// The ascending ids of the `true` entries of a remaining mask.
    fn pool_of(remaining: &[bool]) -> Vec<usize> {
        (0..remaining.len()).filter(|&v| remaining[v]).collect()
    }

    #[test]
    fn gain_is_sum_of_three_edges() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        assert!((GainTable::gain_of(&s, t, 4) - 2.7).abs() < 1e-12);
        assert!((GainTable::gain_of(&s, t, 3) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn best_for_face_prefers_highest_gain() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        let (v, gain) = GainTable::best_for_face(&s, t, &[3, 4]).unwrap();
        assert_eq!(v, 4);
        assert!((gain - 2.7).abs() < 1e-12);
    }

    #[test]
    fn best_for_face_tie_breaks_to_smaller_index() {
        let s = SymmetricMatrix::filled(5, 0.5);
        let t = Triangle::new(0, 1, 2);
        let (v, _) = GainTable::best_for_face(&s, t, &[3, 4]).unwrap();
        assert_eq!(v, 3);
    }

    #[test]
    fn best_for_face_none_when_empty() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        assert!(GainTable::best_for_face(&s, t, &[]).is_none());
    }

    #[test]
    fn candidates_are_sorted_with_ties_to_smaller_vertex() {
        let s = SymmetricMatrix::from_fn(6, |i, j| {
            if i == j {
                1.0
            } else if i.min(j) < 3 && i.max(j) == 4 {
                0.9
            } else {
                0.5
            }
        });
        let t = Triangle::new(0, 1, 2);
        let (list, truncated) = GainTable::compute_candidates(&s, t, &[3, 4, 5], 8);
        assert!(!truncated);
        let vertices: Vec<usize> = list.iter().map(|&(v, _)| v).collect();
        // 4 has gain 2.7; 3 and 5 tie at 1.5 → smaller id first.
        assert_eq!(vertices, vec![4, 3, 5]);
        assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn candidates_truncate_and_flag() {
        let s = SymmetricMatrix::from_fn(10, |i, j| {
            if i == j {
                1.0
            } else {
                ((i * 7 + j * 3) % 11) as f64 / 11.0
            }
        });
        let t = Triangle::new(0, 1, 2);
        let pool: Vec<usize> = (3..10).collect();
        let (full, full_truncated) = GainTable::compute_candidates(&s, t, &pool, 10);
        assert_eq!(full.len(), 7);
        assert!(!full_truncated);
        let (top3, truncated) = GainTable::compute_candidates(&s, t, &pool, 3);
        assert!(truncated);
        assert_eq!(top3, full[..3].to_vec());
    }

    #[test]
    fn candidates_skip_nan_gains() {
        let s = SymmetricMatrix::from_fn(6, |i, j| {
            if i == j {
                1.0
            } else if i.max(j) == 4 {
                f64::NAN
            } else {
                0.5
            }
        });
        let t = Triangle::new(0, 1, 2);
        let pool = [3, 4, 5];
        let (list, _) = GainTable::compute_candidates(&s, t, &pool, 8);
        let vertices: Vec<usize> = list.iter().map(|&(v, _)| v).collect();
        assert_eq!(vertices, vec![3, 5], "NaN-gain vertex 4 must be skipped");
        assert!(
            GainTable::rescan_excluding(&s, t, &pool, &[false; 6]).is_some_and(|(v, _)| v != 4),
            "rescan must not pick a NaN gain"
        );
    }

    #[test]
    fn fused_child_refresh_is_bitwise_identical_to_unfused() {
        // The fused scan must reproduce, bit for bit, what three
        // independent compute_candidates calls produce for the children of
        // one insertion — including gain sums (addition order), tie-break
        // order and truncation flags. Irrational-ish weights make any
        // addition-order deviation visible.
        let n = 24;
        let s = SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                (((i * 31 + j * 17) % 97) as f64 / 97.0).sin().abs()
            }
        });
        let parent = Triangle::new(2, 11, 19);
        let vertex = 7;
        let mut remaining = vec![true; n];
        for v in [2, 11, 19, 7, 0, 1] {
            remaining[v] = false;
        }
        let pool = pool_of(&remaining);
        for depth in [1, 4, 32] {
            let fused =
                GainTable::compute_candidates_for_children(&s, parent, vertex, &pool, depth);
            for (k, child) in parent.split_with(vertex).into_iter().enumerate() {
                let unfused = GainTable::compute_candidates(&s, child, &pool, depth);
                assert_eq!(fused[k].1, unfused.1, "depth {depth} child {k}: flag");
                assert_eq!(fused[k].0.len(), unfused.0.len());
                for (f, u) in fused[k].0.iter().zip(&unfused.0) {
                    assert_eq!(f.0, u.0, "depth {depth} child {k}: vertex");
                    assert_eq!(
                        f.1.to_bits(),
                        u.1.to_bits(),
                        "depth {depth} child {k}: gain bits"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_child_refresh_skips_nan_gains() {
        let s = SymmetricMatrix::from_fn(8, |i, j| {
            if i == j {
                1.0
            } else if i.max(j) == 6 {
                f64::NAN
            } else {
                0.5
            }
        });
        let parent = Triangle::new(0, 1, 2);
        let fused = GainTable::compute_candidates_for_children(&s, parent, 3, &[4, 5, 6, 7], 8);
        for (k, (list, _)) in fused.iter().enumerate() {
            assert!(
                list.iter().all(|&(v, g)| v != 6 && !g.is_nan()),
                "child {k} must skip the NaN vertex"
            );
        }
    }

    #[test]
    fn next_best_skips_taken_and_inserted() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        let mut table = GainTable::new(5, 4);
        let f = table.push_face();
        let remaining = vec![false, false, false, true, true];
        let (list, truncated) =
            GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
        table.install(f, list, truncated);
        assert_eq!(table.head(f), Some((4, 2.7)));

        let mut taken = vec![false; 5];
        taken[4] = true;
        match table.next_best(f, table.head_pos(f), &remaining, &taken) {
            NextBest::Found { vertex, gain, pos } => {
                assert_eq!((vertex, pos), (3, 1));
                assert!((gain - 0.3).abs() < 1e-12);
            }
            other => panic!("expected vertex 3, got {other:?}"),
        }
        taken[3] = true;
        assert_eq!(
            table.next_best(f, table.head_pos(f), &remaining, &taken),
            NextBest::Exhausted { truncated: false }
        );
    }

    #[test]
    fn on_vertex_inserted_advances_cursor_and_reregisters() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        let mut table = GainTable::new(5, 4);
        let f = table.push_face();
        let mut remaining = vec![false, false, false, true, true];
        let (list, truncated) =
            GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
        table.install(f, list, truncated);
        assert_eq!(table.faces_possibly_best_for(4), &[f]);

        remaining[4] = false;
        let mut advanced = Vec::new();
        table.on_vertex_inserted(4, &remaining, &[true], &mut advanced);
        assert_eq!(advanced, vec![f], "the face's head changed");
        let (head, gain) = table.head(f).unwrap();
        assert_eq!(head, 3);
        assert!((gain - 0.3).abs() < 1e-12);
        assert_eq!(table.stale_bound(f), None, "a face with a head is fresh");
        assert!(table.faces_possibly_best_for(4).is_empty(), "consumed");
        assert_eq!(table.faces_possibly_best_for(3), &[f]);

        // Inserting the last listed vertex drains a list that held every
        // candidate: the face has no head and no bound.
        remaining[3] = false;
        advanced.clear();
        table.on_vertex_inserted(3, &remaining, &[true], &mut advanced);
        assert_eq!(advanced, vec![f]);
        assert_eq!(table.head(f), None);
        assert_eq!(
            table.stale_bound(f),
            None,
            "untruncated list: no candidates left"
        );
    }

    #[test]
    fn drained_truncated_list_requests_rescan() {
        let s = SymmetricMatrix::filled(8, 0.5);
        let t = Triangle::new(0, 1, 2);
        let mut table = GainTable::new(8, 1); // depth clamps to the schedule's initial 4
        assert_eq!(table.depth(), BatchSchedule::TMFG_CACHE_DEPTH.initial);
        let f = table.push_face();
        let mut remaining = vec![true; 8];
        for slot in remaining.iter_mut().take(3) {
            *slot = false;
        }
        let (list, truncated) =
            GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
        assert!(truncated, "5 candidates > depth 4");
        table.install(f, list, truncated);
        // Insert the four cached candidates one by one. The face reports
        // every head change; draining the list does not rescan it but
        // leaves it stale, with the last entry's gain as its bound —
        // the request for a rescan once that bound can win a draw.
        let mut advanced = Vec::new();
        for v in 3..7 {
            assert_eq!(table.stale_bound(f), None, "fresh while a head remains");
            remaining[v] = false;
            table.on_vertex_inserted(v, &remaining, &[true], &mut advanced);
        }
        assert_eq!(advanced, vec![f; 4]);
        assert_eq!(table.head(f), None);
        assert_eq!(table.stale_bound(f), Some(1.5));
        let (fresh, fresh_truncated) =
            GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
        assert_eq!(fresh, vec![(7, 1.5)]);
        assert!(!fresh_truncated);
        // The rescan installs a fresh head within the bound.
        table.install(f, fresh, fresh_truncated);
        assert_eq!(table.head(f), Some((7, 1.5)));
        assert_eq!(table.stale_bound(f), None);
    }

    #[test]
    fn stale_bound_covers_every_remaining_vertex() {
        // Whatever drains a truncated list — its own vertices, in any
        // order, along with others — the bound it leaves is the last
        // entry's gain and is at least the gain of every vertex still
        // remaining. Quantized entries make ties with the bound common.
        let n = 40;
        let s = SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                ((i * 13 + j * 13 + (i * j) % 7) % 5) as f64 / 4.0
            }
        });
        let t = Triangle::new(0, 1, 2);
        for depth_prefix in [1, 10] {
            let mut table = GainTable::new(n, depth_prefix);
            let f = table.push_face();
            let mut remaining = vec![true; n];
            for v in t.corners() {
                remaining[v] = false;
            }
            let (list, truncated) =
                GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
            assert!(truncated);
            let last_gain = list.last().unwrap().1;
            let listed: Vec<usize> = list.iter().map(|&(v, _)| v).collect();
            table.install(f, list, truncated);
            // Drain in reverse list order, inserting an unlisted vertex
            // between steps.
            let mut advanced = Vec::new();
            let mut others = (3..n).filter(|v| !listed.contains(v));
            for &v in listed.iter().rev() {
                remaining[v] = false;
                table.on_vertex_inserted(v, &remaining, &[true], &mut advanced);
                if let Some(u) = others.next() {
                    remaining[u] = false;
                    table.on_vertex_inserted(u, &remaining, &[true], &mut advanced);
                }
            }
            assert_eq!(table.head(f), None);
            let bound = table
                .stale_bound(f)
                .expect("a drained truncated list is stale");
            assert_eq!(
                bound.to_bits(),
                last_gain.to_bits(),
                "the bound is the last entry"
            );
            for v in pool_of(&remaining) {
                assert!(
                    GainTable::gain_of(&s, t, v) <= bound,
                    "vertex {v} exceeds the stale bound {bound}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_gains_are_normalised() {
        // A −0.0 sum becomes +0.0 in both the standalone and the fused
        // scan, so `>=` (the lists) and `total_cmp` (the selector) agree.
        let s = SymmetricMatrix::from_fn(5, |i, j| {
            if i == j {
                1.0
            } else if i.max(j) == 4 {
                -0.0
            } else {
                0.5
            }
        });
        let t = Triangle::new(0, 1, 2);
        assert_eq!(GainTable::gain_of(&s, t, 4).to_bits(), 0.0f64.to_bits());
        let fused = GainTable::compute_candidates_for_children(&s, t, 3, &[4], 4);
        for (k, (list, _)) in fused.iter().enumerate() {
            // Every child's corners lie in {0,..,3}: three −0.0 entries.
            assert_eq!(list.len(), 1, "child {k}");
            assert!(
                !list[0].1.is_sign_negative(),
                "child {k}: gain must not be -0.0"
            );
        }
    }

    #[test]
    fn stale_registrations_are_dropped() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        let mut table = GainTable::new(5, 4);
        let f = table.push_face();
        let remaining = vec![false, false, false, true, true];
        let (list, truncated) =
            GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
        table.install(f, list.clone(), truncated);
        // Reinstall under the same head: the old registration is now a
        // duplicate. Processing the vertex must drop both (one consumed,
        // one stale) without double-advancing the cursor.
        table.install(f, list, truncated);
        assert_eq!(table.faces_possibly_best_for(4), &[f, f]);
        let mut remaining = remaining;
        remaining[4] = false;
        let mut advanced = Vec::new();
        table.on_vertex_inserted(4, &remaining, &[true], &mut advanced);
        assert_eq!(advanced, vec![f], "advanced once");
        assert_eq!(table.head(f).unwrap().0, 3);
        assert_eq!(table.faces_possibly_best_for(3), &[f]);
        assert!(table.faces_possibly_best_for(4).is_empty());
    }

    #[test]
    fn inactive_faces_are_pruned_from_reverse_index() {
        let s = matrix();
        let t = Triangle::new(0, 1, 2);
        let mut table = GainTable::new(5, 4);
        let f = table.push_face();
        let mut remaining = vec![false, false, false, true, true];
        let (list, truncated) =
            GainTable::compute_candidates(&s, t, &pool_of(&remaining), table.depth());
        table.install(f, list, truncated);
        remaining[4] = false;
        let mut advanced = Vec::new();
        // The face went inactive (split) before its head was inserted.
        table.on_vertex_inserted(4, &remaining, &[false], &mut advanced);
        assert!(table.faces_possibly_best_for(4).is_empty());
        assert!(
            table.faces_possibly_best_for(3).is_empty(),
            "not re-registered"
        );
        assert!(advanced.is_empty());
    }
}
