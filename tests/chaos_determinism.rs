//! Byte-identity under adversarial steal orders.
//!
//! The executor shim's chaos mode (`ThreadPoolBuilder::chaos_seed`)
//! permutes each steal's victim scan and injects yields, exercising
//! schedules an idle machine never produces. The workspace's determinism
//! contract says scheduling must be *invisible*: decomposition is a
//! function of input length alone, so every seed × thread-count
//! combination must reproduce the single-threaded result bit for bit —
//! for the most order-sensitive primitives (float reduction), the
//! parallel sort, the full tiled correlation/dissimilarity kernels, TMFG
//! and PMFG construction, the DBHT on a PMFG, and the DBHT's
//! demand-driven shortest-path stores.

use pfg_core::dbht::{
    assignment, converging_vertices, direction, dissimilarity_graph, restricted_distances,
};
use pfg_core::{tmfg, Dbht, Tmfg, TmfgConfig};
use pfg_data::correlation::{correlation_matrix_with, TileConfig};
use pfg_graph::{PairDistances, SourceRows, SymmetricMatrix, SymmetricMatrixF32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

const CHAOS_SEEDS: [u64; 3] = [1, 2, 3];
const THREADS: [usize; 2] = [2, 8];

fn chaos_pool(threads: usize, seed: u64) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .chaos_seed(seed)
        .build()
        .expect("pool builds")
}

fn reference_pool() -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds")
}

/// Runs `op` on the reference pool and on every seed × thread-count chaos
/// pool, asserting all results equal via `eq` (callers pass bit-level
/// comparisons for floats).
fn assert_schedule_invariant<R>(op: impl Fn() -> R, eq: impl Fn(&R, &R) -> bool) {
    let reference = reference_pool().install(&op);
    for threads in THREADS {
        for seed in CHAOS_SEEDS {
            let got = chaos_pool(threads, seed).install(&op);
            assert!(
                eq(&got, &reference),
                "result diverged under chaos seed {seed} at {threads} threads"
            );
        }
    }
}

#[test]
fn float_reduction_is_schedule_invariant() {
    let v: Vec<f64> = (0..50_000).map(|i| (i as f64 * 0.37).sin()).collect();
    assert_schedule_invariant(
        || {
            v.par_iter()
                .map(|&x| x * 1.000001 + 0.25)
                .fold(|| 0.0f64, |acc, x| acc + x)
                .reduce(|| 0.0f64, |a, b| a + b)
        },
        |a, b| a.to_bits() == b.to_bits(),
    );
}

#[test]
fn parallel_sort_is_schedule_invariant() {
    let mut rng = StdRng::seed_from_u64(7);
    let base: Vec<f64> = (0..40_000).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
    assert_schedule_invariant(
        || {
            let mut v = base.clone();
            v.par_sort_by(|a, b| a.total_cmp(b));
            v
        },
        |a, b| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        },
    );
}

#[test]
fn tiled_correlation_is_schedule_invariant() {
    let mut rng = StdRng::seed_from_u64(11);
    let series: Vec<Vec<f64>> = (0..48)
        .map(|_| (0..96).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
        .collect();
    let config = TileConfig { tile: 8 };
    assert_schedule_invariant(
        || correlation_matrix_with(&series, config).0,
        |a, b| {
            a.n() == b.n()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        },
    );
}

#[test]
fn fine_grained_steal_storm_is_schedule_invariant() {
    // `with_max_len(1)` turns every item into its own job, flooding the
    // owner's Chase–Lev deque and maximising thief CAS traffic on its top
    // pointer — the schedule-space stress for the lock-free deque's
    // owner/thief race window (last-element CAS, speculative cell reads,
    // buffer growth mid-storm). The fold tree is a function of input
    // length only, so the bit-exact sum must survive every steal order.
    let v: Vec<f64> = (0..4_096).map(|i| (i as f64 * 0.61).cos()).collect();
    assert_schedule_invariant(
        || {
            v.par_iter()
                .with_max_len(1)
                .map(|&x| x * 1.000001 + 0.25)
                .fold(|| 0.0f64, |acc, x| acc + x)
                .reduce(|| 0.0f64, |a, b| a + b)
        },
        |a, b| a.to_bits() == b.to_bits(),
    );
}

#[test]
fn pmfg_construction_is_schedule_invariant() {
    // End-to-end PMFG under chaos: the speculative round tests run on the
    // pool (and are reordered by the chaos schedule), but the
    // conflict-graph commit replays survivors in candidate order on the
    // calling thread, so edges, rounds and every counter — including the
    // commit re-test count — must be byte-identical to the 1-thread run.
    let mut rng = StdRng::seed_from_u64(23);
    let n = 60;
    let s = SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0.0f64..1.0)
        }
    });
    assert_schedule_invariant(
        || pfg_core::pmfg(&s).expect("pmfg builds"),
        |a, b| {
            let a_edges: Vec<_> = a.graph.edges().collect();
            let b_edges: Vec<_> = b.graph.edges().collect();
            a_edges.len() == b_edges.len()
                && a_edges
                    .iter()
                    .zip(&b_edges)
                    .all(|((u1, v1, w1), (u2, v2, w2))| {
                        u1 == u2 && v1 == v2 && w1.to_bits() == w2.to_bits()
                    })
                && a.rounds == b.rounds
                && a.rejections == b.rejections
                && a.parallel_rejections == b.parallel_rejections
                && a.commit_retests == b.commit_retests
        },
    );
}

/// Whether two DBHT runs agree bit for bit: every directed bubble edge,
/// the assignment, the counters and every internal dendrogram node with
/// its height bits.
fn same_dbht(a: &Dbht, b: &Dbht) -> bool {
    let edges = |d: &Dbht| -> Vec<_> {
        d.bubble_graph
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.triangle))
            .collect()
    };
    let nodes = |d: &Dbht| -> Vec<_> {
        d.dendrogram
            .internal_nodes()
            .map(|id| {
                let node = d.dendrogram.node(id);
                (id, node.left, node.right, node.height.to_bits())
            })
            .collect()
    };
    edges(a) == edges(b)
        && a.assignment.group == b.assignment.group
        && a.assignment.bubble == b.assignment.bubble
        && a.stats == b.stats
        && nodes(a) == nodes(b)
}

#[test]
fn pmfg_dbht_is_schedule_invariant() {
    // The DBHT on a PMFG under chaos: the separating-triangle filter runs
    // on the pool (n = 240 gives more 3-cliques than the shim's 512-item
    // gate), and so do the direction levels, the shortest-path stores and
    // the per-group hierarchy. The bubble tree itself is built on the
    // calling thread. Everything must match the 1-thread run bit for bit.
    let mut rng = StdRng::seed_from_u64(37);
    let n = 240;
    let s = SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else if i % 4 == j % 4 {
            0.75 + rng.gen_range(0.0f64..0.2)
        } else {
            0.1 + rng.gen_range(0.0f64..0.2)
        }
    });
    let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
    let p = reference_pool().install(|| pfg_core::pmfg(&s).expect("pmfg builds"));
    assert!(
        p.graph.triangles().len() > 512,
        "the filter must reach the pool"
    );
    assert_schedule_invariant(
        || pfg_core::dbht_for_planar_graph(&p.graph, &d).expect("dbht runs"),
        same_dbht,
    );
}

/// Whether two TMFGs agree bit for bit: seed clique, insertion trace
/// with gain bits, per-round counters and edge list with weight bits.
fn same_tmfg(a: &Tmfg, b: &Tmfg) -> bool {
    let trace = |t: &Tmfg| -> Vec<_> {
        t.insertions
            .iter()
            .map(|ins| (ins.vertex, ins.face, ins.gain.to_bits(), ins.round))
            .collect()
    };
    let edges = |t: &Tmfg| -> Vec<_> {
        t.graph
            .edges()
            .map(|(u, v, w)| (u, v, w.to_bits()))
            .collect()
    };
    a.initial_clique == b.initial_clique
        && trace(a) == trace(b)
        && a.round_stats == b.round_stats
        && edges(a) == edges(b)
}

#[test]
fn tmfg_construction_is_schedule_invariant() {
    // TMFG under chaos. The per-round scan batches run each scan as its
    // own pool job at every n. n = 520, just above the shim's 512-item
    // gate, also sends the seed clique's row sums and the up-front
    // non-finite scan to the pool. Both storages must reproduce the
    // 1-thread construction bit for bit.
    let mut rng = StdRng::seed_from_u64(31);
    let n = 520;
    let s = SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0.0f64..1.0)
        }
    });
    let s32 =
        SymmetricMatrixF32::from_symmetrized(n, s.as_slice().iter().map(|&x| x as f32).collect());
    for prefix in [1, 10] {
        let config = TmfgConfig::with_prefix(prefix);
        assert_schedule_invariant(|| tmfg(&s, config).expect("tmfg builds"), same_tmfg);
        assert_schedule_invariant(|| tmfg(&s32, config).expect("tmfg builds"), same_tmfg);
    }
}

#[test]
fn dissimilarity_pipeline_input_is_schedule_invariant() {
    let mut rng = StdRng::seed_from_u64(13);
    let series: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..64).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
        .collect();
    assert_schedule_invariant(
        || pfg_data::correlation::correlation_and_dissimilarity(&series).1,
        |a, b| {
            a.n() == b.n()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        },
    );
}

#[test]
fn restricted_distances_are_schedule_invariant() {
    // The DBHT's distance layer under chaos: one Dijkstra per converging
    // vertex (`SourceRows`) and one early-terminating Dijkstra per group
    // member (`GroupBlocks`), each a pool job. Every entry the store
    // serves, and its work counter, must match the 1-thread run bit for
    // bit.
    let mut rng = StdRng::seed_from_u64(29);
    let n = 80;
    let s = SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0.01f64..0.99)
        }
    });
    let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
    let t = pfg_core::tmfg(&s, pfg_core::TmfgConfig::with_prefix(5)).expect("tmfg builds");
    let bubble_graph = direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
    let dgraph = dissimilarity_graph(&t.graph, &d);
    let sources = converging_vertices(&bubble_graph);
    let rows = SourceRows::compute(&dgraph, &sources);
    let assigned = assignment::assign_vertices(&t.graph, &bubble_graph, &rows);
    assert!(
        assigned.groups.len() > 1,
        "the input must have several groups"
    );
    let served = |u: usize, v: usize| {
        u == v || assigned.group[u] == assigned.group[v] || rows.is_source(u) || rows.is_source(v)
    };
    assert_schedule_invariant(
        || {
            let rows = SourceRows::compute(&dgraph, &sources);
            restricted_distances(&dgraph, rows, &assigned)
        },
        |a, b| {
            a.blocks.vertices_settled() == b.blocks.vertices_settled()
                && (0..n).all(|u| {
                    (0..n)
                        .filter(|&v| served(u, v))
                        .all(|v| a.pair(u, v).to_bits() == b.pair(u, v).to_bits())
                })
        },
    );
}
