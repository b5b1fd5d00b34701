//! The three-level complete-linkage hierarchy and dendrogram heights
//! (Algorithm 4, lines 24–33, and §V-D), built by an exact
//! nearest-neighbor-chain HAC with one pool job per group.
//!
//! The hierarchy is built bottom-up:
//!
//! 1. **intra-bubble** — within every *subgroup* (vertices sharing both a
//!    group, i.e. converging bubble, and a bubble assignment) the vertices
//!    are merged by complete linkage under the shortest-path distance;
//! 2. **inter-bubble** — within every group the subgroup dendrograms are
//!    merged by complete linkage;
//! 3. **inter-group** — the group dendrograms are merged by complete
//!    linkage over the groups' *converging-bubble vertices* (the anchors
//!    of the bubble-tree paths between group cores), which is what lets
//!    the whole hierarchy run on the demand-driven restricted distance
//!    store instead of the full `n²` APSP matrix.
//!
//! Heights are then re-assigned: inter-group nodes receive the number of
//! converging bubbles among their descendants, and the nodes inside each
//! group receive the ladder `[1/(n_b−1), …, 1/2, 1]` in the prescribed
//! order, so that every single-group subtree tops out at height 1.
//!
//! # The linkage engine
//!
//! Every linkage run orders candidate pairs by the strict total order
//! `K(A, B) = (max cross distance, mean cross distance, min member id of
//! one cluster, min member id of the other)`. Min member ids are unique
//! per active cluster, so every cluster has a *unique* nearest neighbor.
//! A run follows the classical nearest-neighbor chain: walk from cluster
//! to nearest neighbor until the last two clusters are each other's
//! nearest, merge them, and continue from what is left of the chain. Each
//! merge costs `O(m)` table work, so a run of `m` clusters costs `O(m²)`
//! plus the member-list reads below.
//!
//! * **Lance–Williams max, exact.** The pair table holds only the max
//!   cross distance. When `A` and `B` merge, the survivor's row becomes
//!   `max(d(A, C), d(B, C))` for every other cluster `C` — no member list
//!   is re-read. This is exact in floating point, not an approximation.
//!   The pure max is a fold from `+0.0` over the cross pairs that replaces
//!   its accumulator only by a strictly larger value. Like `f64::max`, it
//!   ignores NaN; unlike `f64::max`, it never lets a `-0.0` replace
//!   `+0.0` (a choice `f64::max` leaves unspecified), and it agrees with
//!   `f64::max` bit for bit on every other input. Its result is therefore
//!   a function of the *set* of cross distances, and the max of two folds
//!   equals the fold over their union.
//! * **Lazy mean.** The mean only breaks ties in the max. The
//!   nearest-neighbor scan computes it only for the partners tied on the
//!   row's minimum max, and a merge computes its event's mean once,
//!   before the two member lists are joined. Both come from the same pure
//!   function of the two member lists, summed in one canonical order
//!   (outer loop over the smaller-min-member cluster, members ascending).
//!   A Lance–Williams mean would drift by ulps with the merge order.
//! * **Canonical replay.** The chain discovers merges in chain order, not
//!   in `K` order, so planned merges are renumbered before they touch the
//!   [`Dendrogram`]: repeatedly emit the *available* merge (both children
//!   already emitted) with the smallest `K`-key. Available merges have
//!   disjoint member sets, hence distinct keys, so every dendrogram node
//!   id — and with it the creation-order tie-break of the §V-D height
//!   ladder — is a function of the merge set alone, not of the order the
//!   schedule found it in.
//!
//! # The schedule decides the tree on tied maxima
//!
//! Over the reals, complete linkage is *reducible* under `K`: a merged
//! cluster is never nearer to a third cluster than the nearer of its two
//! children, so every schedule of mutually-nearest merges — a chain, a
//! round of disjoint mutual pairs, the global greedy order — yields the
//! same tree. In floating point the max part still holds, but the mean
//! part does not. Two children, each with cross mean `1.46312704190058`
//! to a third cluster, can merge into a cluster whose recomputed mean to
//! it is `1.4631270419005793`, below both. Once two candidates tie on the
//! max, such a rounding can flip a comparison, and different schedules
//! then build different trees. The output is therefore defined as *this*
//! engine's tree under `K`. Each run is sequential and the plans are
//! replayed in group order, so the dendrogram is byte-identical at every
//! thread count. The chain stays well defined without reducibility:
//! between two merges its link keys strictly decrease, so every walk ends
//! at a mutually-nearest pair, and a slot that a merge retired is dropped
//! when it reaches the top of the chain.
//!
//! # Parallelism
//!
//! Groups are independent, so each group's level-1 and level-2 plans are
//! one pool job. Round-based mutual-nearest-neighbor designs pay off only
//! when a round merges many pairs; on the benchmark workloads a round of
//! DBHT linkage merged 1.4–1.8 pairs, so the parallelism lives across
//! groups instead. The inter-group run is small and plans last.

use std::cmp::Ordering;

use pfg_graph::PairDistances;
use rayon::prelude::*;

use crate::dbht::assignment::VertexAssignment;
use crate::dbht::bubble_graph::DirectedBubbleGraph;
use crate::dendrogram::Dendrogram;

/// Which of the three levels created an internal dendrogram node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeKind {
    /// Merge inside a subgroup (same group and bubble assignment).
    IntraBubble { group: usize, bubble: usize },
    /// Merge of subgroup dendrograms inside one group.
    InterBubble { group: usize },
    /// Merge of group dendrograms.
    InterGroup,
}

/// Book-keeping for one internal node created during hierarchy
/// construction.
#[derive(Debug, Clone, Copy)]
struct MergeRecord {
    node: usize,
    kind: MergeKind,
    distance: f64,
}

/// One input cluster of a linkage run.
#[derive(Debug, Clone)]
struct LinkItem {
    /// Vertices whose pairwise distances define the cluster distance
    /// (sorted ascending). For levels 1–2 these are the true members; for
    /// level 3 they are the group's converging-bubble vertices.
    members: Vec<usize>,
    /// Canonical cluster identity for tie-breaking: the smallest *true*
    /// member id. Unique across the items of one run.
    mm: usize,
}

/// One planned merge. References `0..m` are input items; `m + k` is the
/// `k`-th event of the same plan. After canonicalization the events are in
/// canonical emission order and `left` names the smaller-min-member child.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanEvent {
    left: usize,
    right: usize,
    dist: f64,
    mean: f64,
}

/// Builds the DBHT dendrogram from the vertex assignment.
pub fn build_hierarchy<D: PairDistances + Sync>(
    bubble_graph: &DirectedBubbleGraph,
    assignment: &VertexAssignment,
    distances: &D,
) -> Dendrogram {
    build_with_planner(bubble_graph, assignment, distances, plan_linkage)
}

/// Per-group planning output: the canonical merge plans of the group's
/// subgroups (level 1) and of the group itself (level 2).
struct GroupPlan {
    group: usize,
    num_members: usize,
    /// `(bubble id, subgroup vertices ascending, canonical plan)`.
    subgroups: Vec<(usize, Vec<usize>, Vec<PlanEvent>)>,
    /// Level-2 plan; item `i` is `subgroups[i]`'s dendrogram root.
    inter_bubble: Vec<PlanEvent>,
}

/// The hierarchy with `plan` planning every linkage run (the tests swap
/// in their from-scratch reference here).
fn build_with_planner<D, P>(
    bubble_graph: &DirectedBubbleGraph,
    assignment: &VertexAssignment,
    distances: &D,
    plan: P,
) -> Dendrogram
where
    D: PairDistances + Sync,
    P: Fn(Vec<LinkItem>, &D) -> Vec<PlanEvent> + Sync,
{
    let n = bubble_graph.num_vertices();
    let mut dendrogram = Dendrogram::new(n);
    if n == 0 {
        return dendrogram;
    }

    let group_members = assignment.group_members();

    // ---- Plan levels 1 + 2, one pool job per group -----------------------
    // A group's plan is whole linkage runs, far heavier than the items the
    // pool's cheap-item gate is tuned for: without `with_max_len(1)` a few
    // dozen groups would all plan inline on the caller.
    let plans: Vec<GroupPlan> = (0..assignment.groups.len())
        .into_par_iter()
        .with_max_len(1)
        .map(|gi| {
            let group = assignment.groups[gi];
            let members = &group_members[gi];
            let mut bubbles: Vec<usize> = members.iter().map(|&v| assignment.bubble[v]).collect();
            bubbles.sort_unstable();
            bubbles.dedup();
            let subgroups: Vec<(usize, Vec<usize>, Vec<PlanEvent>)> = bubbles
                .iter()
                .map(|&b| {
                    let verts: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|&v| assignment.bubble[v] == b)
                        .collect();
                    let items: Vec<LinkItem> = verts
                        .iter()
                        .map(|&v| LinkItem {
                            members: vec![v],
                            mm: v,
                        })
                        .collect();
                    let events = plan(items, distances);
                    (b, verts, events)
                })
                .collect();
            let sub_items: Vec<LinkItem> = subgroups
                .iter()
                .map(|(_, verts, _)| LinkItem {
                    members: verts.clone(),
                    mm: verts[0],
                })
                .collect();
            let inter_bubble = plan(sub_items, distances);
            GroupPlan {
                group,
                num_members: members.len(),
                subgroups,
                inter_bubble,
            }
        })
        .collect();

    // ---- Replay sequentially in group order ------------------------------
    let mut records: Vec<MergeRecord> = Vec::new();
    let mut group_roots: Vec<usize> = Vec::with_capacity(plans.len());
    let mut group_sizes: Vec<(usize, usize)> = Vec::with_capacity(plans.len());
    for plan in &plans {
        group_sizes.push((plan.group, plan.num_members));
        let mut sub_roots: Vec<usize> = Vec::with_capacity(plan.subgroups.len());
        for (b, verts, events) in &plan.subgroups {
            let root = replay(&mut dendrogram, verts, events, |node, distance| {
                records.push(MergeRecord {
                    node,
                    kind: MergeKind::IntraBubble {
                        group: plan.group,
                        bubble: *b,
                    },
                    distance,
                });
            });
            sub_roots.push(root);
        }
        let group_root = replay(
            &mut dendrogram,
            &sub_roots,
            &plan.inter_bubble,
            |node, d| {
                records.push(MergeRecord {
                    node,
                    kind: MergeKind::InterBubble { group: plan.group },
                    distance: d,
                });
            },
        );
        group_roots.push(group_root);
    }

    // ---- Level 3: inter-group over converging-bubble vertices ------------
    let group_items: Vec<LinkItem> = (0..assignment.groups.len())
        .map(|gi| {
            let mut proxy = bubble_graph.bubble(assignment.groups[gi]).to_vec();
            proxy.sort_unstable();
            LinkItem {
                members: proxy,
                mm: group_members[gi][0],
            }
        })
        .collect();
    let inter_group = plan(group_items, distances);
    let _root = replay(&mut dendrogram, &group_roots, &inter_group, |node, d| {
        records.push(MergeRecord {
            node,
            kind: MergeKind::InterGroup,
            distance: d,
        });
    });

    assign_heights(&mut dendrogram, &records, &group_sizes, &group_roots);
    dendrogram
}

/// Emits a canonical plan into the dendrogram. `slot_nodes[i]` is the
/// dendrogram node id of plan item `i`; returns the root node id.
fn replay(
    dendrogram: &mut Dendrogram,
    slot_nodes: &[usize],
    events: &[PlanEvent],
    mut on_merge: impl FnMut(usize, f64),
) -> usize {
    let mut node_of: Vec<usize> = Vec::with_capacity(slot_nodes.len() + events.len());
    node_of.extend_from_slice(slot_nodes);
    for event in events {
        let node = dendrogram.merge(node_of[event.left], node_of[event.right], event.dist);
        on_merge(node, event.dist);
        node_of.push(node);
    }
    *node_of.last().expect("at least one cluster")
}

/// The max rule of a linkage run: `b` if it is strictly larger than `a`,
/// else `a`. From a `+0.0` start, NaN and zeros of either sign never win
/// (see the module docs).
#[inline]
fn larger(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// The largest cross distance between two member lists, folded with
/// [`larger`] from `+0.0`: a function of the set of cross distances, so
/// the member order is irrelevant.
fn cross_max<D: PairDistances>(d: &D, a: &[usize], b: &[usize]) -> f64 {
    let mut max = 0.0_f64;
    for &u in a {
        for &v in b {
            max = larger(max, d.pair(u, v));
        }
    }
    max
}

/// The mean cross distance of two clusters, summed in the canonical order:
/// outer loop over the smaller-min-member cluster, members ascending. A
/// pure function of the two member lists, so every comparison and every
/// event label is the same whenever it is computed.
fn cross_mean<D: PairDistances>(d: &D, a: (&[usize], usize), b: (&[usize], usize)) -> f64 {
    let (outer, inner) = if a.1 < b.1 { (a.0, b.0) } else { (b.0, a.0) };
    let mut sum = 0.0_f64;
    for &u in outer {
        for &v in inner {
            sum += d.pair(u, v);
        }
    }
    sum / (outer.len() * inner.len()) as f64
}

/// Mutable state of one linkage run: the active clusters and the max
/// cross distance of every active pair.
struct LinkState {
    m: usize,
    members: Vec<Vec<usize>>,
    mm: Vec<usize>,
    /// Plan reference currently representing each slot.
    refid: Vec<usize>,
    active: Vec<bool>,
    remaining: usize,
    /// Row-major `m × m` max cross distances, Lance–Williams updated.
    dist: Vec<f64>,
}

impl LinkState {
    fn init<D: PairDistances + Sync>(items: Vec<LinkItem>, d: &D) -> Self {
        let m = items.len();
        let mut dist = vec![f64::INFINITY; m * m];
        // Max cross distances for the upper triangle, rows in parallel.
        let rows: Vec<Vec<f64>> = {
            let items = &items;
            (0..m)
                .into_par_iter()
                .map(|i| {
                    ((i + 1)..m)
                        .map(|j| cross_max(d, &items[i].members, &items[j].members))
                        .collect()
                })
                .collect()
        };
        for (i, row) in rows.into_iter().enumerate() {
            for (k, x) in row.into_iter().enumerate() {
                let j = i + 1 + k;
                dist[i * m + j] = x;
                dist[j * m + i] = x;
            }
        }
        let (members, mm) = items.into_iter().map(|it| (it.members, it.mm)).unzip();
        Self {
            m,
            members,
            mm,
            refid: (0..m).collect(),
            active: vec![true; m],
            remaining: m,
            dist,
        }
    }

    /// The mean cross distance of slots `i` and `j`.
    fn mean<D: PairDistances>(&self, i: usize, j: usize, d: &D) -> f64 {
        cross_mean(
            d,
            (&self.members[i], self.mm[i]),
            (&self.members[j], self.mm[j]),
        )
    }

    /// The unique nearest neighbor of active slot `i` under `K`: the
    /// smallest max, then — among partners tied on it only — the smallest
    /// mean, then the smallest partner min-member. `ties` is a reused buffer.
    fn nearest<D: PairDistances>(&self, i: usize, d: &D, ties: &mut Vec<usize>) -> usize {
        let row = &self.dist[i * self.m..(i + 1) * self.m];
        let mut best = f64::INFINITY;
        ties.clear();
        for (j, &x) in row.iter().enumerate() {
            if !self.active[j] || j == i {
                continue;
            }
            match x.total_cmp(&best) {
                Ordering::Less => {
                    best = x;
                    ties.clear();
                    ties.push(j);
                }
                Ordering::Equal => ties.push(j),
                Ordering::Greater => {}
            }
        }
        if let [only] = ties[..] {
            return only;
        }
        ties.iter()
            .map(|&j| (self.mean(i, j, d), self.mm[j], j))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("an active partner")
            .2
    }

    /// Merges slots `x` and `y` into the smaller slot and records the
    /// event. The event's mean is computed before the member lists are
    /// joined; the survivor's row takes the Lance–Williams max of both
    /// rows.
    fn apply_merge<D: PairDistances>(
        &mut self,
        x: usize,
        y: usize,
        d: &D,
        events: &mut Vec<PlanEvent>,
    ) {
        let (s, o, m) = (x.min(y), x.max(y), self.m);
        let (dist, mean) = (self.dist[s * m + o], self.mean(s, o, d));
        // The canonical child order (left = smaller min member) is fixed
        // here; canonicalization only reorders whole events.
        let (left, right) = if self.mm[s] < self.mm[o] {
            (self.refid[s], self.refid[o])
        } else {
            (self.refid[o], self.refid[s])
        };
        self.refid[s] = m + events.len();
        events.push(PlanEvent {
            left,
            right,
            dist,
            mean,
        });
        for j in 0..m {
            if self.active[j] && j != s && j != o {
                let x = larger(self.dist[s * m + j], self.dist[o * m + j]);
                self.dist[s * m + j] = x;
                self.dist[j * m + s] = x;
            }
        }
        let other = std::mem::take(&mut self.members[o]);
        let mut merged = Vec::with_capacity(self.members[s].len() + other.len());
        {
            // Merge two sorted lists.
            let a = &self.members[s];
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < other.len() {
                if a[i] < other[j] {
                    merged.push(a[i]);
                    i += 1;
                } else {
                    merged.push(other[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&other[j..]);
        }
        self.members[s] = merged;
        self.mm[s] = self.mm[s].min(self.mm[o]);
        self.active[o] = false;
        self.remaining -= 1;
    }
}

/// Plans one complete-linkage run and canonicalizes the result.
fn plan_linkage<D: PairDistances + Sync>(items: Vec<LinkItem>, d: &D) -> Vec<PlanEvent> {
    let m = items.len();
    assert!(m > 0, "complete linkage needs at least one cluster");
    if m == 1 {
        return Vec::new();
    }
    let item_mm: Vec<usize> = items.iter().map(|it| it.mm).collect();
    let mut state = LinkState::init(items, d);
    let events = plan_nn_chain(&mut state, d);
    canonicalize(m, &item_mm, events)
}

/// The nearest-neighbor chain: `m − 1` merges, each found by `O(m)`
/// nearest-neighbor scans along the chain.
fn plan_nn_chain<D: PairDistances>(state: &mut LinkState, d: &D) -> Vec<PlanEvent> {
    let m = state.m;
    let mut events = Vec::with_capacity(m - 1);
    let mut chain: Vec<usize> = Vec::new();
    let mut ties: Vec<usize> = Vec::new();
    while state.remaining > 1 {
        // A slot can sit twice on the chain once a rounded mean breaks
        // reducibility (module docs); drop a copy a merge has retired.
        while chain.last().is_some_and(|&top| !state.active[top]) {
            chain.pop();
        }
        if chain.is_empty() {
            let start = (0..m)
                .filter(|&i| state.active[i])
                .min_by_key(|&i| state.mm[i])
                .expect("at least two active clusters remain");
            chain.push(start);
        }
        let current = *chain.last().expect("chain non-empty");
        let nearest = state.nearest(current, d, &mut ties);
        if chain.len() >= 2 && chain[chain.len() - 2] == nearest {
            chain.truncate(chain.len() - 2);
            state.apply_merge(current, nearest, d, &mut events);
        } else {
            chain.push(nearest);
        }
    }
    events
}

/// Canonicalization heap entry: pops the smallest `(dist, mean, mm_low,
/// mm_high)` key first.
struct CanonEntry {
    dist: f64,
    mean: f64,
    mm_low: usize,
    mm_high: usize,
    event: usize,
}

impl PartialEq for CanonEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for CanonEntry {}
impl PartialOrd for CanonEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CanonEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so BinaryHeap (a max-heap) pops the smallest key.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.mean.total_cmp(&self.mean))
            .then_with(|| other.mm_low.cmp(&self.mm_low))
            .then_with(|| other.mm_high.cmp(&self.mm_high))
    }
}

/// Renumbers a plan into the canonical emission order: repeatedly emit the
/// available event (children already emitted) with the smallest `K`-key.
/// Coexisting available events have disjoint member sets and therefore
/// distinct `(mm_low, mm_high)`, so the order is deterministic; because a
/// run merges to a single root, the root is always emitted last.
fn canonicalize(m: usize, item_mm: &[usize], events: Vec<PlanEvent>) -> Vec<PlanEvent> {
    let e = events.len();
    if e == 0 {
        return events;
    }
    let mut ref_mm = vec![usize::MAX; m + e];
    ref_mm[..m].copy_from_slice(item_mm);
    for (k, ev) in events.iter().enumerate() {
        ref_mm[m + k] = ref_mm[ev.left].min(ref_mm[ev.right]);
    }
    let mut parent = vec![usize::MAX; m + e];
    let mut pending = vec![0_u8; e];
    for (k, ev) in events.iter().enumerate() {
        parent[ev.left] = k;
        parent[ev.right] = k;
        pending[k] = (ev.left >= m) as u8 + (ev.right >= m) as u8;
    }
    let entry = |k: usize, events: &[PlanEvent], ref_mm: &[usize]| {
        let ev = &events[k];
        let (a, b) = (ref_mm[ev.left], ref_mm[ev.right]);
        CanonEntry {
            dist: ev.dist,
            mean: ev.mean,
            mm_low: a.min(b),
            mm_high: a.max(b),
            event: k,
        }
    };
    let mut heap = std::collections::BinaryHeap::with_capacity(e);
    for (k, &count) in pending.iter().enumerate() {
        if count == 0 {
            heap.push(entry(k, &events, &ref_mm));
        }
    }
    let mut new_ref = vec![usize::MAX; m + e];
    for (i, slot) in new_ref.iter_mut().take(m).enumerate() {
        *slot = i;
    }
    let mut out = Vec::with_capacity(e);
    while let Some(CanonEntry { event: k, .. }) = heap.pop() {
        let ev = &events[k];
        let (left, right) = if ref_mm[ev.left] < ref_mm[ev.right] {
            (ev.left, ev.right)
        } else {
            (ev.right, ev.left)
        };
        out.push(PlanEvent {
            left: new_ref[left],
            right: new_ref[right],
            dist: ev.dist,
            mean: ev.mean,
        });
        new_ref[m + k] = m + out.len() - 1;
        let p = parent[m + k];
        if p != usize::MAX {
            pending[p] -= 1;
            if pending[p] == 0 {
                heap.push(entry(p, &events, &ref_mm));
            }
        }
    }
    debug_assert_eq!(out.len(), e, "plan must form a single tree");
    out
}

/// Re-assigns the dendrogram heights per §V-D.
fn assign_heights(
    dendrogram: &mut Dendrogram,
    records: &[MergeRecord],
    group_sizes: &[(usize, usize)],
    group_root_nodes: &[usize],
) {
    use std::collections::HashMap;

    // Inter-group nodes: height = number of converging bubbles (groups)
    // among the node's descendants. Group roots count 1; leaves of the
    // inter-group level are exactly the group roots.
    let group_root_set: std::collections::HashSet<usize> =
        group_root_nodes.iter().copied().collect();
    let mut groups_below: HashMap<usize, usize> = HashMap::new();
    let count_groups =
        |dendrogram: &Dendrogram, node: usize, groups_below: &mut HashMap<usize, usize>| {
            // Children of inter-group nodes are either group roots or earlier
            // inter-group nodes (already counted, since records are in creation
            // order).
            let n = dendrogram.node(node);
            let child_count = |c: usize, groups_below: &HashMap<usize, usize>| {
                if group_root_set.contains(&c) {
                    1
                } else {
                    *groups_below.get(&c).unwrap_or(&1)
                }
            };
            let total = child_count(n.left.expect("internal"), groups_below)
                + child_count(n.right.expect("internal"), groups_below);
            groups_below.insert(node, total);
            total
        };
    for record in records {
        if record.kind == MergeKind::InterGroup {
            let total = count_groups(dendrogram, record.node, &mut groups_below);
            dendrogram.set_height(record.node, total as f64);
        }
    }

    // Per-group ladder heights.
    let mut per_group: HashMap<usize, Vec<&MergeRecord>> = HashMap::new();
    for record in records {
        match record.kind {
            MergeKind::IntraBubble { group, .. } | MergeKind::InterBubble { group } => {
                per_group.entry(group).or_default().push(record);
            }
            MergeKind::InterGroup => {}
        }
    }
    // Drain in plan (`group_sizes`) order, not hash order: each group's
    // heights are independent, but the byte-identity contract bans
    // hash-order traversal on any result path outright.
    for &(group, nb) in group_sizes {
        let Some(mut group_records) = per_group.remove(&group) else {
            continue;
        };
        debug_assert_eq!(group_records.len(), nb.saturating_sub(1));
        // Sort: intra-bubble nodes first (by bubble assignment, then merge
        // distance, then creation order), then inter-bubble nodes (by merge
        // distance, then creation order).
        group_records.sort_by(|a, b| {
            let key = |r: &MergeRecord| match r.kind {
                MergeKind::IntraBubble { bubble, .. } => (0_usize, bubble),
                MergeKind::InterBubble { .. } => (1, 0),
                MergeKind::InterGroup => unreachable!("filtered above"),
            };
            key(a)
                .cmp(&key(b))
                .then(a.distance.total_cmp(&b.distance))
                .then(a.node.cmp(&b.node))
        });
        // Ladder 1/(nb−1), 1/(nb−2), …, 1/2, 1.
        for (i, record) in group_records.iter().enumerate() {
            let denom = (nb - 1 - i) as f64;
            dendrogram.set_height(record.node, 1.0 / denom);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbht::{
        assignment, converging_vertices, dbht_for_tmfg, direction, dissimilarity_graph,
        restricted_distances,
    };
    use crate::tmfg::{tmfg, TmfgConfig};
    use pfg_graph::{SourceRows, SymmetricMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blocks_matrix(
        n: usize,
        blocks: usize,
        strong: f64,
        weak: f64,
        seed: u64,
    ) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if (i % blocks) == (j % blocks) {
                strong + rng.gen_range(-0.02..0.02)
            } else {
                weak + rng.gen_range(-0.02..0.02)
            }
        })
    }

    fn dissimilarity_of(s: &SymmetricMatrix) -> SymmetricMatrix {
        s.map(|p| (2.0 * (1.0 - p)).sqrt())
    }

    #[test]
    fn dendrogram_covers_all_vertices_and_is_monotone() {
        for prefix in [1, 5] {
            let n = 24;
            let s = blocks_matrix(n, 3, 0.8, 0.1, 7);
            let t = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
            let d = dissimilarity_of(&s);
            let result = dbht_for_tmfg(&t, &d).unwrap();
            let dend = &result.dendrogram;
            assert_eq!(dend.num_leaves(), n);
            let root = dend.root().expect("fully merged dendrogram");
            assert_eq!(dend.node(root).size, n);
            assert!(dend.is_monotone(), "DBHT heights must be monotone");
        }
    }

    #[test]
    fn root_height_equals_number_of_groups() {
        let n = 30;
        let s = blocks_matrix(n, 3, 0.85, 0.05, 3);
        let t = tmfg(&s, TmfgConfig::with_prefix(2)).unwrap();
        let d = dissimilarity_of(&s);
        let result = dbht_for_tmfg(&t, &d).unwrap();
        let dend = &result.dendrogram;
        let root = dend.root().unwrap();
        let groups = result.assignment.num_groups();
        if groups > 1 {
            assert!((dend.node(root).height - groups as f64).abs() < 1e-9);
        } else {
            // A single group tops out at height 1.
            assert!((dend.node(root).height - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn three_blocks_recovered_by_cutting() {
        let n = 30;
        let s = blocks_matrix(n, 3, 0.85, 0.05, 11);
        let t = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let d = dissimilarity_of(&s);
        let result = dbht_for_tmfg(&t, &d).unwrap();
        let labels = result.dendrogram.cut_to_clusters(3);
        // Measure agreement with ground truth (i % 3) via pair counting:
        // the clustering should be far better than random.
        let mut agree = 0_usize;
        let mut total = 0_usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let same_truth = i % 3 == j % 3;
                let same_label = labels[i] == labels[j];
                if same_truth == same_label {
                    agree += 1;
                }
                total += 1;
            }
        }
        let agreement = agree as f64 / total as f64;
        assert!(agreement > 0.8, "agreement {agreement}");
    }

    #[test]
    fn group_subtrees_top_out_at_height_one() {
        let n = 26;
        let s = blocks_matrix(n, 2, 0.8, 0.1, 5);
        let t = tmfg(&s, TmfgConfig::with_prefix(3)).unwrap();
        let d = dissimilarity_of(&s);
        let result = dbht_for_tmfg(&t, &d).unwrap();
        let dend = &result.dendrogram;
        // Every internal node height is either in (0, 1] (within-group) or
        // an integer ≥ 2 (inter-group).
        for id in dend.internal_nodes() {
            let h = dend.node(id).height;
            let within = h > 0.0 && h <= 1.0 + 1e-12;
            let inter = h >= 2.0 - 1e-12 && (h - h.round()).abs() < 1e-9;
            assert!(within || inter, "unexpected height {h}");
        }
    }

    #[test]
    fn linkage_plan_merges_closest_first() {
        // Four singleton clusters on a line: 0-1 close, 2-3 close, the two
        // pairs far apart. The canonical plan has the tight pairs at
        // distance 1 (lower min-member first), then the final merge at the
        // complete-linkage distance 11.
        let spd = SymmetricMatrix::from_fn(4, |i, j| {
            let pos: [f64; 4] = [0.0, 1.0, 10.0, 11.0];
            (pos[i] - pos[j]).abs()
        });
        let events = plan_linkage(singletons(4), &spd);
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].left, events[0].right), (0, 1));
        assert!((events[0].dist - 1.0).abs() < 1e-12);
        assert_eq!((events[1].left, events[1].right), (2, 3));
        assert!((events[1].dist - 1.0).abs() < 1e-12);
        // Final merge of the two planned clusters (refs 4 and 5).
        assert_eq!((events[2].left, events[2].right), (4, 5));
        assert!((events[2].dist - 11.0).abs() < 1e-12);
        assert!((events[2].mean - 10.0).abs() < 1e-12);
    }

    // ---- The from-scratch reference ---------------------------------------

    /// `(max, mean)` cross statistics recomputed from two member lists:
    /// an `f64::max` fold from `+0.0` and one running sum, outer loop over
    /// the smaller-min-member cluster, members ascending.
    fn cross_stats<D: PairDistances>(
        d: &D,
        a: (&[usize], usize),
        b: (&[usize], usize),
    ) -> (f64, f64) {
        let (outer, inner) = if a.1 < b.1 { (a.0, b.0) } else { (b.0, a.0) };
        let mut max = 0.0_f64;
        let mut sum = 0.0_f64;
        for &u in outer {
            for &v in inner {
                let x = d.pair(u, v);
                max = max.max(x);
                sum += x;
            }
        }
        (max, sum / (outer.len() * inner.len()) as f64)
    }

    /// The reference linkage state: an eager `(max, mean)` table whose
    /// merged row is recomputed from the member lists after every merge —
    /// no Lance–Williams update, no lazy mean.
    struct Reference {
        m: usize,
        members: Vec<Vec<usize>>,
        mm: Vec<usize>,
        refid: Vec<usize>,
        active: Vec<bool>,
        remaining: usize,
        stats: Vec<(f64, f64)>,
    }

    impl Reference {
        fn new<D: PairDistances>(items: Vec<LinkItem>, d: &D) -> Self {
            let m = items.len();
            let mut state = Self {
                m,
                members: items.iter().map(|it| it.members.clone()).collect(),
                mm: items.iter().map(|it| it.mm).collect(),
                refid: (0..m).collect(),
                active: vec![true; m],
                remaining: m,
                stats: vec![(f64::INFINITY, f64::INFINITY); m * m],
            };
            for i in 0..m {
                state.refresh_row(i, d);
            }
            state
        }

        fn refresh_row<D: PairDistances>(&mut self, s: usize, d: &D) {
            for j in (0..self.m).filter(|&j| self.active[j] && j != s) {
                let st = cross_stats(
                    d,
                    (&self.members[s], self.mm[s]),
                    (&self.members[j], self.mm[j]),
                );
                self.stats[s * self.m + j] = st;
                self.stats[j * self.m + s] = st;
            }
        }

        /// The full key `K` of the active pair `(i, j)`.
        fn key(&self, i: usize, j: usize) -> (f64, f64, usize, usize) {
            let (max, mean) = self.stats[i * self.m + j];
            let (lo, hi) = (self.mm[i].min(self.mm[j]), self.mm[i].max(self.mm[j]));
            (max, mean, lo, hi)
        }

        fn nearest(&self, i: usize) -> usize {
            (0..self.m)
                .filter(|&j| self.active[j] && j != i)
                .min_by(|&a, &b| key_cmp(self.key(i, a), self.key(i, b)))
                .expect("an active partner")
        }

        fn merge<D: PairDistances>(
            &mut self,
            x: usize,
            y: usize,
            d: &D,
            events: &mut Vec<PlanEvent>,
        ) {
            let (s, o) = (x.min(y), x.max(y));
            let (dist, mean) = self.stats[s * self.m + o];
            let (left, right) = if self.mm[s] < self.mm[o] {
                (self.refid[s], self.refid[o])
            } else {
                (self.refid[o], self.refid[s])
            };
            self.refid[s] = self.m + events.len();
            events.push(PlanEvent {
                left,
                right,
                dist,
                mean,
            });
            let other = std::mem::take(&mut self.members[o]);
            self.members[s].extend(other);
            self.members[s].sort_unstable();
            self.mm[s] = self.mm[s].min(self.mm[o]);
            self.active[o] = false;
            self.remaining -= 1;
            self.refresh_row(s, d);
        }
    }

    fn key_cmp(a: (f64, f64, usize, usize), b: (f64, f64, usize, usize)) -> Ordering {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.cmp(&b.3))
    }

    /// The test oracle: the nearest-neighbor chain over [`Reference`].
    fn reference_plan<D: PairDistances>(items: Vec<LinkItem>, d: &D) -> Vec<PlanEvent> {
        let m = items.len();
        let item_mm: Vec<usize> = items.iter().map(|it| it.mm).collect();
        let mut state = Reference::new(items, d);
        let mut events = Vec::new();
        let mut chain: Vec<usize> = Vec::new();
        while state.remaining > 1 {
            if chain.is_empty() {
                let start = (0..m)
                    .filter(|&i| state.active[i])
                    .min_by_key(|&i| state.mm[i])
                    .expect("two active clusters");
                chain.push(start);
            }
            let current = *chain.last().expect("chain non-empty");
            let nearest = state.nearest(current);
            if chain.len() >= 2 && chain[chain.len() - 2] == nearest {
                chain.truncate(chain.len() - 2);
                state.merge(current, nearest, d, &mut events);
            } else {
                chain.push(nearest);
            }
        }
        canonicalize(m, &item_mm, events)
    }

    /// The global-greedy schedule: merge the `K`-smallest active pair,
    /// every step. Matches the chain only where no rounded mean decides a
    /// tie, i.e. on untied inputs.
    fn greedy_plan<D: PairDistances>(items: Vec<LinkItem>, d: &D) -> Vec<PlanEvent> {
        let m = items.len();
        let item_mm: Vec<usize> = items.iter().map(|it| it.mm).collect();
        let mut state = Reference::new(items, d);
        let mut events = Vec::new();
        while state.remaining > 1 {
            let active: Vec<usize> = (0..m).filter(|&i| state.active[i]).collect();
            let (x, y) = active
                .iter()
                .flat_map(|&i| active.iter().filter(move |&&j| j > i).map(move |&j| (i, j)))
                .min_by(|&(a, b), &(c, e)| key_cmp(state.key(a, b), state.key(c, e)))
                .expect("two active clusters");
            state.merge(x, y, d, &mut events);
        }
        canonicalize(m, &item_mm, events)
    }

    /// A plan with its floats as bits, for bitwise comparison.
    fn bits(plan: &[PlanEvent]) -> Vec<(usize, usize, u64, u64)> {
        plan.iter()
            .map(|e| (e.left, e.right, e.dist.to_bits(), e.mean.to_bits()))
            .collect()
    }

    // ---- Oracle inputs -----------------------------------------------------

    fn singletons(m: usize) -> Vec<LinkItem> {
        (0..m)
            .map(|v| LinkItem {
                members: vec![v],
                mm: v,
            })
            .collect()
    }

    fn continuous(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.1..2.0) })
    }

    /// Dissimilarities `√(2(1 − ρ))` of correlations quantized to
    /// `levels.len()` values: the max ties everywhere, and the means of
    /// merged clusters round.
    fn quantized(n: usize, levels: &[f64], seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                0.0
            } else {
                let rho = levels[rng.gen_range(0..levels.len())];
                (2.0 * (1.0 - rho)).sqrt()
            }
        })
    }

    /// Euclidean distances between rows drawn from a few distinct points,
    /// so duplicated rows sit at distance zero.
    fn duplicate_rows(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<(f64, f64)> = (0..n / 3)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let row: Vec<(f64, f64)> = (0..n)
            .map(|_| points[rng.gen_range(0..points.len())])
            .collect();
        SymmetricMatrix::from_fn(n, |i, j| (row[i].0 - row[j].0).hypot(row[i].1 - row[j].1))
    }

    /// `m` disjoint multi-member items partitioning `0..n`.
    fn partition(n: usize, m: usize, seed: u64) -> Vec<LinkItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut members = vec![Vec::new(); m];
        for v in 0..n {
            let item = if v < m { v } else { rng.gen_range(0..m) };
            members[item].push(v);
        }
        members
            .into_iter()
            .map(|members| LinkItem {
                mm: members[0],
                members,
            })
            .collect()
    }

    /// Level-3-style items: `m` small member sets drawn from `0..n` that
    /// overlap, each with a unique identity that is not one of its
    /// members.
    fn overlapping(n: usize, m: usize, seed: u64) -> Vec<LinkItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|i| {
                let mut members: Vec<usize> = (0..rng.gen_range(1..5))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                members.sort_unstable();
                members.dedup();
                LinkItem {
                    members,
                    mm: n + (i * 7) % m,
                }
            })
            .collect()
    }

    const TWO_LEVELS: [f64; 2] = [0.7, 0.2];
    const THREE_LEVELS: [f64; 3] = [0.7, 0.4, 0.2];

    /// Every oracle input: `(name, distances, items, untied)`.
    fn oracle_inputs() -> Vec<(String, SymmetricMatrix, Vec<LinkItem>, bool)> {
        let mut inputs = Vec::new();
        for seed in 0..6 {
            inputs.push((
                format!("random-{seed}"),
                continuous(30, seed),
                singletons(30),
                true,
            ));
            inputs.push((
                format!("random-items-{seed}"),
                continuous(60, seed),
                partition(60, 14, seed),
                true,
            ));
            for levels in [&TWO_LEVELS[..], &THREE_LEVELS[..]] {
                let q = levels.len();
                inputs.push((
                    format!("quantized{q}-{seed}"),
                    quantized(40, levels, seed),
                    singletons(40),
                    false,
                ));
                inputs.push((
                    format!("quantized{q}-items-{seed}"),
                    quantized(60, levels, seed),
                    partition(60, 14, seed),
                    false,
                ));
                inputs.push((
                    format!("quantized{q}-overlapping-{seed}"),
                    quantized(16, levels, seed),
                    overlapping(16, 10, seed),
                    false,
                ));
            }
            inputs.push((
                format!("duplicate-rows-{seed}"),
                duplicate_rows(30, seed),
                singletons(30),
                false,
            ));
            inputs.push((
                format!("random-overlapping-{seed}"),
                continuous(16, seed),
                overlapping(16, 10, seed),
                false,
            ));
        }
        inputs
    }

    #[test]
    fn chain_plan_equals_reference_bitwise() {
        for (name, d, items, _) in oracle_inputs() {
            let engine = plan_linkage(items.clone(), &d);
            assert_eq!(engine.len(), items.len() - 1, "{name}");
            assert_eq!(bits(&engine), bits(&reference_plan(items, &d)), "{name}");
        }
    }

    #[test]
    fn engines_plan_identical_events_on_random_inputs() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = 14;
            let d = SymmetricMatrix::from_fn(
                m,
                |i, j| {
                    if i == j {
                        0.0
                    } else {
                        rng.gen_range(0.1..2.0)
                    }
                },
            );
            let chain = plan_linkage(singletons(m), &d);
            assert_eq!(chain.len(), m - 1, "seed {seed}");
            assert_eq!(
                bits(&chain),
                bits(&reference_plan(singletons(m), &d)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn engines_plan_identical_events_under_maximal_ties() {
        // All pairwise distances equal: every comparison falls through to
        // the min-member tie level. The chain and the reference must still
        // agree on one canonical plan, every merge at the common distance.
        let pipeline_equal = (2.0 * (1.0 - 0.7_f64)).sqrt();
        for (m, equal) in [(9, 1.0), (24, pipeline_equal)] {
            let d = SymmetricMatrix::from_fn(m, |i, j| if i == j { 0.0 } else { equal });
            let chain = plan_linkage(singletons(m), &d);
            assert_eq!(chain.len(), m - 1, "m = {m}");
            assert!(chain.iter().all(|e| e.dist == equal), "m = {m}");
            assert_eq!(
                bits(&chain),
                bits(&reference_plan(singletons(m), &d)),
                "m = {m}"
            );
        }
    }

    #[test]
    fn chain_plan_equals_global_greedy_on_untied_inputs() {
        for (name, d, items, untied) in oracle_inputs() {
            if untied {
                let engine = plan_linkage(items.clone(), &d);
                assert_eq!(bits(&engine), bits(&greedy_plan(items, &d)), "{name}");
            }
        }
    }

    // ---- Whole hierarchies against the reference ---------------------------

    /// Tie-heavy similarity: entries quantised to two values (the same
    /// generator as the differential suite in `tests/dbht_parallel.rs`).
    fn tie_heavy_similarity(n: usize, seed: u64) -> SymmetricMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if rng.gen_bool(0.5) {
                0.7
            } else {
                0.2
            }
        })
    }

    /// The engine's and the reference's dendrogram for one pipeline input.
    fn engine_and_reference(s: &SymmetricMatrix, prefix: usize) -> (Dendrogram, Dendrogram) {
        let d = dissimilarity_of(s);
        let t = tmfg(s, TmfgConfig::with_prefix(prefix)).unwrap();
        let bubble_graph = direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
        let dgraph = dissimilarity_graph(&t.graph, &d);
        let rows = SourceRows::compute(&dgraph, &converging_vertices(&bubble_graph));
        let assignment = assignment::assign_vertices(&t.graph, &bubble_graph, &rows);
        let distances = restricted_distances(&dgraph, rows, &assignment);
        let engine = build_hierarchy(&bubble_graph, &assignment, &distances);
        assert_eq!(engine.internal_nodes().count(), s.n() - 1);
        let reference = build_with_planner(&bubble_graph, &assignment, &distances, reference_plan);
        (engine, reference)
    }

    /// FNV-1a over every internal node's children and height bits.
    fn digest(dendrogram: &Dendrogram) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for id in dendrogram.internal_nodes() {
            let node = dendrogram.node(id);
            for word in [
                node.left.expect("internal") as u64,
                node.right.expect("internal") as u64,
                node.height.to_bits(),
            ] {
                h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn hierarchy_equals_reference_on_pipeline_inputs() {
        let inputs = [
            (blocks_matrix(40, 3, 0.8, 0.1, 7), 5),
            (tie_heavy_similarity(40, 11), 1),
            (tie_heavy_similarity(60, 13), 1),
            (tie_heavy_similarity(60, 17), 9),
            (
                SymmetricMatrix::from_fn(24, |i, j| if i == j { 1.0 } else { 0.5 }),
                1,
            ),
        ];
        for (k, (s, prefix)) in inputs.iter().enumerate() {
            let (engine, reference) = engine_and_reference(s, *prefix);
            assert_eq!(engine, reference, "input {k}");
        }
    }

    #[test]
    fn schedule_sensitive_tie_input_keeps_the_chain_tree() {
        // A recomputed mean on this input rounds below both children's
        // means (module docs), so the schedule decides the tree. The
        // retired mutual-NN round engine built the tree whose digest is
        // `ROUNDS_TREE`; the chain, then and now, builds `CHAIN_TREE`.
        const ROUNDS_TREE: u64 = 7_804_294_872_943_132_521;
        const CHAIN_TREE: u64 = 3_052_951_106_970_120_169;
        let (engine, reference) = engine_and_reference(&tie_heavy_similarity(60, 13), 5);
        assert_eq!(engine, reference);
        assert_eq!(digest(&engine), CHAIN_TREE);
        assert_ne!(digest(&engine), ROUNDS_TREE);
    }
}
