//! Byte-identity digests of the pipeline's outputs and counters.
//!
//! Each run is reduced to two FNV-1a digests:
//!
//! * **outputs** — the TMFG insertion trace (vertex, face corners, gain
//!   bits, round), the filtered graph's edge list with weight bits, the
//!   assignment's `group` and `bubble`, and every internal dendrogram
//!   node's children and height bits;
//! * **counters** — the TMFG `RoundStats`, the `Pmfg` counters and the
//!   `DbhtRunStats`.
//!
//! Every run executes on explicit 1- and 2-thread pools, and both digests
//! must equal the golden constants below. The inputs are drawn from the
//! `rand` shim with additions and multiplications only, and the
//! dissimilarity is `sqrt(2 (1 − s))`; `sqrt` is correctly rounded, so the
//! digests do not depend on the platform's libm. The `tdbht-f32` runs
//! take the same matrices rounded once to `f32` through
//! `ParTdbht::run_f32`, which derives the dissimilarity on the fly. The
//! `pmfg-dbht` runs build the PMFG of each input and run
//! `dbht_for_planar_graph` on it; on the quantized input its direction
//! sums can tie exactly.
//!
//! A change that alters any output or counter on purpose re-pins the
//! constants (the failure message prints every run's actual digests) and
//! says why in `CHANGES.md`.

use par_filtered_graph_clustering::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(run, outputs, counters)`, one line per run, as the failure message
/// prints them.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("uniform-120/tdbht-p1", 0x58da2cb454570446, 0xded27e2c37c0bc2d),
    ("uniform-120/tdbht-p10", 0x5fc9ee10cf988179, 0xd685e3b29483e75e),
    ("uniform-120/pmfg-dbht", 0xfb2e7ad5af621f42, 0x19c9ebb3da5ea89a),
    ("blocks-150/tdbht-p1", 0xcd3a4aa0d9381272, 0x61c25a90a5c4b12b),
    ("blocks-150/tdbht-p10", 0x9e422504340023f9, 0xc938b7b70a96ddbf),
    ("blocks-150/pmfg-dbht", 0xceb15447dfe43d65, 0x275cac2bdda513c0),
    ("ties-100/tdbht-p1", 0x0b74903dda6e694a, 0xbba06d91345edee0),
    ("ties-100/tdbht-p10", 0xc0f488495959b330, 0x1f7559eeacc0873d),
    ("ties-100/pmfg-dbht", 0xf356f6c85542afa2, 0x800739a438819deb),
    ("uniform-120/tdbht-f32-p1", 0x6cafbb005e286f42, 0xded27e2c37c0bc2d),
    ("uniform-120/tdbht-f32-p10", 0x29a557481615ee24, 0xd685e3b29483e75e),
    ("blocks-150/tdbht-f32-p1", 0xb639dbfc13175b8b, 0x61c25a90a5c4b12b),
    ("blocks-150/tdbht-f32-p10", 0xcfc969f65e1b6912, 0xc938b7b70a96ddbf),
    ("ties-100/tdbht-f32-p1", 0x0b74903dda6e694a, 0xbba06d91345edee0),
    ("ties-100/tdbht-f32-p10", 0xc0f488495959b330, 0x1f7559eeacc0873d),
];

/// 64-bit FNV-1a over the little-endian bytes of the words written.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn option(&mut self, x: Option<usize>) {
        self.word(x.map_or(u64::MAX, |v| v as u64));
    }
}

/// Uniform similarities in `[0, 1)`.
fn uniform(n: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { rng.gen_range(0.0..1.0) })
}

/// Four interleaved blocks: strong within a block, weak across, jittered.
fn four_blocks(n: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else if i % 4 == j % 4 {
            0.75 + rng.gen_range(0.0..0.2)
        } else {
            0.1 + rng.gen_range(0.0..0.2)
        }
    })
}

/// Similarities quantized to eight levels, so gains, edge weights and
/// linkage keys tie often.
fn quantized_ties(n: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0..8usize) as f64 * 0.125
        }
    })
}

fn dissimilarity_of(s: &SymmetricMatrix) -> SymmetricMatrix {
    s.map(|p| (2.0 * (1.0 - p)).sqrt())
}

fn hash_graph(h: &mut Fnv, graph: &WeightedGraph) {
    h.usize(graph.num_edges());
    for (u, v, w) in graph.edges() {
        h.usize(u);
        h.usize(v);
        h.f64(w);
    }
}

fn hash_clustering(h: &mut Fnv, assignment: &VertexAssignment, dendrogram: &Dendrogram) {
    for &g in &assignment.group {
        h.usize(g);
    }
    for &b in &assignment.bubble {
        h.usize(b);
    }
    for id in dendrogram.internal_nodes() {
        let node = dendrogram.node(id);
        h.usize(id);
        h.option(node.left);
        h.option(node.right);
        h.f64(node.height);
    }
}

fn hash_dbht_stats(h: &mut Fnv, stats: &DbhtRunStats) {
    h.usize(stats.hac_rounds);
    h.usize(stats.hac_merges);
    h.usize(stats.apsp_pairs_computed);
    h.usize(stats.apsp_pairs_full);
    h.usize(stats.apsp_source_rows);
}

/// The matrix rounded once to `f32`.
fn rounded_f32(s: &SymmetricMatrix) -> SymmetricMatrixF32 {
    let data = s.as_slice().iter().map(|&x| x as f32).collect();
    SymmetricMatrixF32::from_symmetrized(s.n(), data)
}

/// `(outputs, counters)` of one `ParTdbht` run.
fn tdbht_digests(result: ParTdbhtResult) -> (u64, u64) {
    let mut out = Fnv::new();
    out.usize(result.tmfg.insertions.len());
    for ins in &result.tmfg.insertions {
        out.usize(ins.vertex);
        for corner in ins.face.corners() {
            out.usize(corner);
        }
        out.f64(ins.gain);
        out.usize(ins.round);
    }
    hash_graph(&mut out, &result.tmfg.graph);
    hash_clustering(&mut out, &result.assignment, &result.dendrogram);

    let mut counters = Fnv::new();
    counters.usize(result.tmfg.round_stats.len());
    for r in &result.tmfg.round_stats {
        counters.usize(r.conflicts);
        counters.usize(r.rescans);
        counters.usize(r.refreshes);
        counters.usize(r.reassigned);
    }
    hash_dbht_stats(&mut counters, &result.dbht_stats);
    (out.0, counters.0)
}

/// `(outputs, counters)` of `pmfg` followed by `dbht_for_planar_graph`.
fn pmfg_dbht_digests(s: &SymmetricMatrix, d: &SymmetricMatrix) -> (u64, u64) {
    let p = pmfg(s).unwrap();
    let dbht = dbht_for_planar_graph(&p.graph, d).unwrap();
    let mut out = Fnv::new();
    hash_graph(&mut out, &p.graph);
    hash_clustering(&mut out, &dbht.assignment, &dbht.dendrogram);

    let mut counters = Fnv::new();
    for c in [
        p.candidates_examined,
        p.rejections,
        p.rounds,
        p.parallel_rejections,
        p.commit_retests,
        p.planarity_tests,
    ] {
        counters.usize(c);
    }
    hash_dbht_stats(&mut counters, &dbht.stats);
    (out.0, counters.0)
}

/// Runs `digests` on a 1-thread and a 2-thread pool, checks that both
/// agree and records the result under `run`.
fn record(
    actual: &mut Vec<(String, (u64, u64))>,
    run: String,
    digests: impl Fn() -> (u64, u64) + Sync,
) {
    let on_pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(&digests)
    };
    let one = on_pool(1);
    assert_eq!(one, on_pool(2), "{run}: 1 thread vs 2 threads");
    actual.push((run, one));
}

#[test]
fn outputs_and_counters_match_the_pinned_digests() {
    let inputs = [
        ("uniform-120", uniform(120, 20230309)),
        ("blocks-150", four_blocks(150, 20230310)),
        ("ties-100", quantized_ties(100, 20230311)),
    ];
    let mut actual = Vec::new();
    for (name, s) in &inputs {
        let d = dissimilarity_of(s);
        for prefix in [1, 10] {
            record(&mut actual, format!("{name}/tdbht-p{prefix}"), || {
                tdbht_digests(ParTdbht::with_prefix(prefix).run(s, &d).unwrap())
            });
        }
        record(&mut actual, format!("{name}/pmfg-dbht"), || {
            pmfg_dbht_digests(s, &d)
        });
    }
    for (name, s) in &inputs {
        let s32 = rounded_f32(s);
        for prefix in [1, 10] {
            record(&mut actual, format!("{name}/tdbht-f32-p{prefix}"), || {
                tdbht_digests(ParTdbht::with_prefix(prefix).run_f32(&s32).unwrap())
            });
        }
    }

    let table: String = actual
        .iter()
        .map(|(run, (o, c))| format!("    (\"{run}\", {o:#018x}, {c:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, (u64, u64))> = GOLDEN
        .iter()
        .map(|&(run, o, c)| (run.to_string(), (o, c)))
        .collect();
    assert!(
        pinned == actual,
        "digests differ from the pinned constants; actual table:\n{table}"
    );
}
