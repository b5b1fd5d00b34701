//! Differential tests pinning the parallel DBHT back half.
//!
//! The hierarchy plans every group as its own pool job, so its dendrogram
//! must be *byte-identical* at every thread-pool size — same merge list,
//! same heights, same cut clusters — on random, clustered and tie-heavy
//! inputs. (The linkage engine itself is held bitwise to a from-scratch
//! reference by the `dbht::hierarchy` unit tests.) Likewise, the
//! restricted (demand-driven) APSP must agree with the full `n²` APSP —
//! `SourceRows` with every vertex a source — on every distance the DBHT
//! actually reads: bitwise on intra-group pairs and on source–source
//! pairs, and to floating-point noise on the one-directional source rows.
//! (Both run the same Dijkstra; `pfg_graph`'s unit tests hold that engine
//! to an independent Floyd–Warshall oracle.)

use par_filtered_graph_clustering::prelude::*;
use pfg_core::dbht::{
    assignment, converging_vertices, dbht_for_tmfg, direction, dissimilarity_graph, hierarchy,
    restricted_distances,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random similarity matrix with continuous off-diagonal entries.
fn random_similarity(n: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            rng.gen_range(0.01..0.99)
        }
    })
}

/// Clustered similarity matrix: `k` strong blocks plus mild noise.
fn clustered_similarity(n: usize, k: usize, seed: u64) -> SymmetricMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else if (i % k) == (j % k) {
            0.8 + rng.gen_range(-0.05..0.05)
        } else {
            0.1 + rng.gen_range(-0.05..0.05)
        }
    })
}

/// Tie-heavy similarity matrix: entries quantised to two values, so masses
/// of cluster pairs compare equal on the primary linkage key and the
/// linkage runs through the full tie-breaking cascade.
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

fn dissimilarity_of(s: &SymmetricMatrix) -> SymmetricMatrix {
    s.map(|p| (2.0 * (1.0 - p)).sqrt())
}

/// Everything the hierarchy step consumes, precomputed once per matrix.
struct Prepared {
    tmfg: Tmfg,
    bubble_graph: pfg_core::dbht::DirectedBubbleGraph,
    assignment: pfg_core::VertexAssignment,
    distances: DbhtDistances,
    /// The full APSP: a row from every vertex.
    dense: SourceRows,
    sources: Vec<usize>,
}

fn prepare(s: &SymmetricMatrix, prefix: usize) -> Prepared {
    let d = dissimilarity_of(s);
    let t = tmfg(s, TmfgConfig::with_prefix(prefix)).unwrap();
    let bubble_graph = direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
    let dgraph = dissimilarity_graph(&t.graph, &d);
    let sources = converging_vertices(&bubble_graph);
    let rows = SourceRows::compute(&dgraph, &sources);
    let assignment = assignment::assign_vertices(&t.graph, &bubble_graph, &rows);
    let distances = restricted_distances(&dgraph, rows, &assignment);
    let all: Vec<usize> = (0..s.n()).collect();
    let dense = SourceRows::compute(&dgraph, &all);
    Prepared {
        tmfg: t,
        bubble_graph,
        assignment,
        distances,
        dense,
        sources,
    }
}

/// The matrices the differential suite runs over: random, clustered and
/// tie-heavy, with both sequential and batched TMFG construction.
fn suite_inputs() -> Vec<(String, SymmetricMatrix, usize)> {
    let mut inputs = Vec::new();
    for seed in [1u64, 2, 3] {
        inputs.push((format!("random-{seed}"), random_similarity(48, seed), 1));
        inputs.push((
            format!("random-batched-{seed}"),
            random_similarity(48, seed + 10),
            8,
        ));
    }
    inputs.push(("clustered".into(), clustered_similarity(60, 3, 7), 5));
    inputs.push(("tie-heavy".into(), tie_heavy_similarity(40, 11), 1));
    inputs.push(("tie-heavy-batched".into(), tie_heavy_similarity(60, 13), 5));
    inputs
}

/// The hierarchy of one prepared input, planned on a pool of `threads`.
fn hierarchy_on_pool(p: &Prepared, threads: usize) -> Dendrogram {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| hierarchy::build_hierarchy(&p.bubble_graph, &p.assignment, &p.distances))
}

// ---------------------------------------------------------------------------
// Tentpole differential: one HAC dendrogram at every pool size.
// ---------------------------------------------------------------------------

#[test]
fn hac_dendrogram_is_identical_at_every_pool_size() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let reference = hierarchy_on_pool(&p, 1);
        // Every merge is one internal node of a full dendrogram.
        assert_eq!(reference.internal_nodes().count(), s.n() - 1, "{name}");

        for threads in [2usize, 8] {
            let parallel = hierarchy_on_pool(&p, threads);
            // Byte-identical dendrogram: same merge list, same heights.
            assert_eq!(parallel, reference, "{name} at {threads} threads");
            // Same clusters at every cut that the pipeline exposes.
            for k in [2usize, 3, 5] {
                assert_eq!(
                    parallel.cut_to_clusters(k),
                    reference.cut_to_clusters(k),
                    "{name} cut {k}"
                );
            }
        }
    }
}

#[test]
fn full_dbht_is_byte_identical_across_thread_counts() {
    let s = clustered_similarity(60, 3, 19);
    let d = dissimilarity_of(&s);
    let t = tmfg(&s, TmfgConfig::with_prefix(5)).unwrap();
    let reference = dbht_for_tmfg(&t, &d).unwrap();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let run = pool.install(|| dbht_for_tmfg(&t, &d).unwrap());
        assert_eq!(run.dendrogram, reference.dendrogram, "{threads} threads");
        assert_eq!(run.assignment.group, reference.assignment.group);
        assert_eq!(run.assignment.bubble, reference.assignment.bubble);
        assert_eq!(run.stats, reference.stats);
    }
}

// ---------------------------------------------------------------------------
// Tentpole differential: restricted APSP == full APSP on every distance
// the DBHT reads.
// ---------------------------------------------------------------------------

#[test]
fn restricted_apsp_matches_full_apsp_on_every_distance_dbht_reads() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let n = s.n();

        // Intra-group pairs (hierarchy levels 1–2): bitwise equal.
        for members in p.assignment.group_members() {
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    let restricted = p.distances.pair(u, v);
                    let full = p.dense.pair(u, v);
                    assert_eq!(
                        restricted.to_bits(),
                        full.to_bits(),
                        "{name}: intra-group pair ({u}, {v})"
                    );
                }
            }
        }

        // Source–source pairs (hierarchy level 3): bitwise equal, because
        // both stores symmetrise the two directed runs the same way.
        for (i, &a) in p.sources.iter().enumerate() {
            for &b in &p.sources[i + 1..] {
                assert_eq!(
                    p.distances.rows.pair(a, b).to_bits(),
                    p.dense.pair(a, b).to_bits(),
                    "{name}: source pair ({a}, {b})"
                );
            }
        }

        // Source × non-source rows (vertex assignment): one-directional in
        // the restricted store, so only equal up to symmetrisation noise.
        for &a in &p.sources {
            for v in 0..n {
                let restricted = p.distances.rows.pair(a, v);
                let full = p.dense.pair(a, v);
                assert!(
                    (restricted - full).abs() <= 1e-9 * full.max(1.0),
                    "{name}: row pair ({a}, {v}): {restricted} vs {full}"
                );
            }
        }
    }
}

#[test]
fn hierarchy_from_restricted_distances_equals_hierarchy_from_full_apsp() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let restricted = hierarchy::build_hierarchy(&p.bubble_graph, &p.assignment, &p.distances);
        let full = hierarchy::build_hierarchy(&p.bubble_graph, &p.assignment, &p.dense);
        assert_eq!(restricted, full, "{name}");
    }
}

#[test]
fn assignment_from_restricted_rows_equals_assignment_from_full_apsp() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let from_full = assignment::assign_vertices(&p.tmfg.graph, &p.bubble_graph, &p.dense);
        assert_eq!(p.assignment.group, from_full.group, "{name}");
        assert_eq!(p.assignment.bubble, from_full.bubble, "{name}");
    }
}

#[test]
fn restricted_apsp_computes_fewer_than_half_the_pairs_on_clustered_input() {
    let s = clustered_similarity(120, 3, 23);
    let d = dissimilarity_of(&s);
    let t = tmfg(&s, TmfgConfig::with_prefix(5)).unwrap();
    let dbht = dbht_for_tmfg(&t, &d).unwrap();
    let fraction = dbht.stats.restricted_fraction();
    assert!(
        fraction < 0.5,
        "restricted APSP computed {:.3} of the dense output",
        fraction
    );
    assert!(dbht.stats.apsp_pairs_computed > 0);
    assert_eq!(dbht.stats.apsp_pairs_full, 120 * 120);
}

// ---------------------------------------------------------------------------
// Property tests of the hierarchy.
// ---------------------------------------------------------------------------

#[test]
fn dendrogram_heights_are_monotone_non_decreasing() {
    for (name, s, prefix) in suite_inputs() {
        let p = prepare(&s, prefix);
        let dendrogram = hierarchy::build_hierarchy(&p.bubble_graph, &p.assignment, &p.distances);
        assert!(dendrogram.is_monotone(), "{name}");
        assert_eq!(dendrogram.num_leaves(), s.n(), "{name}");
        assert!(dendrogram.root().is_some(), "{name}");
    }
}

#[test]
fn all_equal_weights_yield_one_canonical_dendrogram() {
    // Every off-diagonal similarity identical: linkage comparisons tie on
    // the max everywhere and fall through to the mean and member-id
    // tie-breaks, the worst case for a schedule-dependent result. Every
    // pool size must produce the exact same dendrogram.
    let s = SymmetricMatrix::from_fn(24, |i, j| if i == j { 1.0 } else { 0.5 });
    let p = prepare(&s, 1);
    let reference = hierarchy_on_pool(&p, 1);
    for threads in [2usize, 8] {
        let parallel = hierarchy_on_pool(&p, threads);
        assert_eq!(parallel, reference, "{threads} threads");
    }
}
