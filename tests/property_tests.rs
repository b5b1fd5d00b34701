//! Randomized property tests over the core data structures and algorithms:
//! structural invariants of TMFGs and bubble trees, metric properties of
//! ARI/AMI, and dendrogram well-formedness, on randomly generated inputs.
//!
//! Originally written against `proptest`; the offline build has no access
//! to crates.io, so the same properties are exercised with hand-rolled
//! generators over a seeded [`StdRng`] (fixed seeds, 24 cases per property,
//! no shrinking). Each case reports its parameters on failure so it can be
//! reproduced by seed.

use par_filtered_graph_clustering::prelude::*;
use pfg_core::dbht::direction::direct_tmfg_bubble_tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A random symmetric similarity matrix with off-diagonal entries in
/// (0.01, 0.99) and a unit diagonal.
fn similarity_matrix(rng: &mut StdRng, min_n: usize, max_n: usize) -> SymmetricMatrix {
    let n = rng.gen_range(min_n..=max_n);
    let entries = n * (n - 1) / 2;
    let upper: Vec<f64> = (0..entries).map(|_| rng.gen_range(0.01f64..0.99)).collect();
    let mut iter = upper.into_iter();
    SymmetricMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { iter.next().unwrap() })
}

/// A pair of random label vectors of equal length with up to 5 classes.
fn label_pairs(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let n = rng.gen_range(2usize..60);
    let truth = (0..n).map(|_| rng.gen_range(0usize..5)).collect();
    let predicted = (0..n).map(|_| rng.gen_range(0usize..5)).collect();
    (truth, predicted)
}

/// Every TMFG is a connected maximal planar graph with 3n − 6 edges and
/// a bubble tree with n − 3 nodes, for any prefix size.
#[test]
fn tmfg_structural_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7100 + case);
        let s = similarity_matrix(&mut rng, 5, 28);
        let prefix = rng.gen_range(1usize..12);
        let n = s.n();
        let result = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
        let ctx = format!("case {case}: n={n}, prefix={prefix}");
        assert_eq!(result.graph.num_edges(), 3 * n - 6, "{ctx}");
        assert!(result.graph.is_connected(), "{ctx}");
        assert!(pfg_graph::is_planar(&result.graph), "{ctx}");
        assert_eq!(result.bubble_tree.len(), n - 3, "{ctx}");
        assert!(result.bubble_tree.check_invariants().is_ok(), "{ctx}");
        // Edge weights are exactly the similarities.
        for (u, v, w) in result.graph.edges() {
            assert!((w - s.get(u, v)).abs() < 1e-12, "{ctx}: edge ({u}, {v})");
        }
    }
}

/// The batched TMFG is not guaranteed to retain more total edge weight than
/// the sequential TMFG, but it must stay within a sane band of it, and the
/// directed bubble graph must always have at least one converging bubble.
#[test]
fn prefix_tmfg_weight_and_direction_sanity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7200 + case);
        let s = similarity_matrix(&mut rng, 8, 24);
        let prefix = rng.gen_range(2usize..10);
        let ctx = format!("case {case}: n={}, prefix={prefix}", s.n());
        let sequential = tmfg(&s, TmfgConfig::with_prefix(1)).unwrap();
        let batched = tmfg(&s, TmfgConfig::with_prefix(prefix)).unwrap();
        let ratio = batched.edge_weight_sum() / sequential.edge_weight_sum();
        assert!(ratio > 0.5 && ratio < 1.5, "{ctx}: ratio {ratio}");
        let directed = direct_tmfg_bubble_tree(&batched.bubble_tree, &batched.graph);
        assert!(directed.check_invariants().is_ok(), "{ctx}");
        assert!(!directed.converging_bubbles().is_empty(), "{ctx}");
    }
}

/// The DBHT dendrogram is always complete (covers all vertices), monotone,
/// and cutting it to k clusters yields at most k labels.
#[test]
fn dbht_dendrogram_wellformed() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7300 + case);
        let s = similarity_matrix(&mut rng, 8, 22);
        let prefix = rng.gen_range(1usize..6);
        let k = rng.gen_range(1usize..6);
        let ctx = format!("case {case}: n={}, prefix={prefix}, k={k}", s.n());
        let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
        let result = ParTdbht::with_prefix(prefix).run(&s, &d).unwrap();
        let dend = &result.dendrogram;
        assert_eq!(dend.num_leaves(), s.n(), "{ctx}");
        assert!(dend.root().is_some(), "{ctx}");
        assert!(dend.is_monotone(), "{ctx}");
        let labels = result.clusters(k);
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= k.max(1), "{ctx}");
        assert_eq!(labels.len(), s.n(), "{ctx}");
    }
}

/// ARI and AMI are symmetric, bounded above by 1, and exactly 1 on
/// identical labelings (up to renaming).
#[test]
fn metric_properties() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7400 + case);
        let (truth, predicted) = label_pairs(&mut rng);
        let ctx = format!("case {case}: n={}", truth.len());
        let ari = adjusted_rand_index(&truth, &predicted);
        let ari_swapped = adjusted_rand_index(&predicted, &truth);
        assert!((ari - ari_swapped).abs() < 1e-9, "{ctx}");
        assert!(ari <= 1.0 + 1e-9, "{ctx}");
        let ami = adjusted_mutual_information(&truth, &predicted);
        assert!(
            (ami - adjusted_mutual_information(&predicted, &truth)).abs() < 1e-9,
            "{ctx}"
        );
        assert!(ami <= 1.0 + 1e-6, "{ctx}");
        // Renaming labels never changes the scores.
        let renamed: Vec<usize> = predicted.iter().map(|&l| l + 17).collect();
        assert!(
            (adjusted_rand_index(&truth, &renamed) - ari).abs() < 1e-12,
            "{ctx}"
        );
        // Self-comparison is perfect.
        assert!(
            (adjusted_rand_index(&truth, &truth) - 1.0).abs() < 1e-12,
            "{ctx}"
        );
    }
}

/// HAC dendrograms under any linkage are complete and monotone, and
/// cutting them produces the requested number of clusters when possible.
#[test]
fn hac_dendrogram_wellformed() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7500 + case);
        let s = similarity_matrix(&mut rng, 4, 30);
        let k = rng.gen_range(1usize..5);
        let ctx = format!("case {case}: n={}, k={k}", s.n());
        let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
        for linkage in [Linkage::Complete, Linkage::Average] {
            let dend = hac(&d, linkage);
            assert!(dend.root().is_some(), "{ctx}, linkage {linkage:?}");
            assert!(dend.is_monotone(), "{ctx}, linkage {linkage:?}");
            let labels = dend.cut_to_clusters(k);
            let mut distinct = labels;
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), k.min(s.n()), "{ctx}, linkage {linkage:?}");
        }
    }
}

/// PMFG structural invariants on small random inputs, for both the
/// round-based parallel builder and the sequential baseline.
#[test]
fn pmfg_structural_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7600 + case);
        let s = similarity_matrix(&mut rng, 5, 12);
        let n = s.n();
        let ctx = format!("case {case}: n={n}");
        let result = pmfg(&s).unwrap();
        assert_eq!(result.graph.num_edges(), 3 * n - 6, "{ctx}");
        assert!(pfg_graph::is_planar(&result.graph), "{ctx}");
        assert!(result.graph.is_connected(), "{ctx}");
        let sequential = pmfg_sequential(&s).unwrap();
        assert_eq!(sequential.graph.num_edges(), 3 * n - 6, "{ctx}");
    }
}

/// A random block-structured similarity matrix: `blocks` clusters with
/// high in-cluster and low cross-cluster similarity plus jitter, the
/// regime where PMFG rejections concentrate early (cluster-internal
/// candidates saturate faces fast).
fn clustered_matrix(
    rng: &mut StdRng,
    min_n: usize,
    max_n: usize,
    blocks: usize,
) -> SymmetricMatrix {
    let n = rng.gen_range(min_n..=max_n);
    let entries = n * (n - 1) / 2;
    let jitter: Vec<f64> = (0..entries).map(|_| rng.gen_range(0.0f64..0.15)).collect();
    let mut iter = jitter.into_iter();
    SymmetricMatrix::from_fn(n, |i, j| {
        if i == j {
            1.0
        } else {
            let base = if i % blocks == j % blocks { 0.7 } else { 0.1 };
            base + iter.next().unwrap()
        }
    })
}

/// The round-based parallel PMFG must produce the exact sequential edge
/// set — weights, order, everything — at every worker count, and its
/// speculative counters must not depend on the worker count either, on
/// random and clustered matrices.
#[test]
fn pmfg_parallel_matches_sequential_across_thread_counts() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x7700 + case);
        let s = if case % 2 == 0 {
            similarity_matrix(&mut rng, 20, 40)
        } else {
            clustered_matrix(&mut rng, 20, 40, 4)
        };
        let ctx = format!("case {case}: n={}", s.n());
        let sequential = pmfg_sequential(&s).unwrap();
        let seq_edges: Vec<_> = sequential.graph.edges().collect();
        let mut counters: Option<(usize, usize, usize)> = None;
        for threads in [1usize, 2, 8] {
            let parallel = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| pmfg(&s).unwrap());
            let par_edges: Vec<_> = parallel.graph.edges().collect();
            assert_eq!(seq_edges, par_edges, "{ctx}, {threads} threads");
            let these = (
                parallel.rounds,
                parallel.candidates_examined,
                parallel.parallel_rejections,
            );
            match counters {
                None => counters = Some(these),
                Some(first) => assert_eq!(first, these, "{ctx}, {threads} threads"),
            }
        }
    }
}

/// The one-component speculative test agrees with a full test of the
/// grown graph on every non-edge of a sequential PMFG caught at several
/// stages. Block-clustered inputs keep the early stages disconnected, with
/// saturated blocks away from vertex 0 — where a test of the wrong
/// component would answer wrongly.
#[test]
fn speculative_test_matches_full_test_on_pmfg_stages() {
    let mut scratch = LrScratch::new();
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x7900 + case);
        let s = clustered_matrix(&mut rng, 16, 32, 2 + case as usize % 3);
        let n = s.n();
        // The sequential PMFG accepts its edges in candidate order, so
        // every prefix of that order is one of its intermediate graphs.
        let mut accepted: Vec<(usize, usize, f64)> =
            pmfg_sequential(&s).unwrap().graph.edges().collect();
        accepted.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        let mut checked_rejections = 0;
        for stage in [4, 3, 2, 1] {
            let g = WeightedGraph::from_edges(n, &accepted[..accepted.len() * stage / 4]);
            for u in 0..n {
                for v in (u + 1)..n {
                    if g.has_edge(u, v) {
                        continue;
                    }
                    let mut grown = g.clone();
                    grown.add_edge(u, v, 1.0);
                    let full = scratch.is_planar(&grown);
                    assert_eq!(
                        scratch.stays_planar_with_edge(&g, u, v),
                        full,
                        "case {case}: n={n}, stage {stage}/4, edge ({u}, {v})"
                    );
                    checked_rejections += usize::from(!full);
                }
            }
        }
        assert!(checked_rejections > 0, "case {case}: no non-planar edge");
    }
}

/// Random TMFG-style triangulations (grow K4 by inserting each vertex
/// into a random face) are maximal planar: the LR core must accept them
/// and reject every additional edge — with one scratch reused across all
/// differently-shaped cases.
#[test]
fn random_triangulations_are_planar_and_maximal() {
    let mut scratch = LrScratch::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7800 + case);
        let n = rng.gen_range(5usize..60);
        let mut g = WeightedGraph::new(n);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        let mut faces = vec![(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)];
        for v in 4..n {
            let pos = rng.gen_range(0..faces.len());
            let (a, b, c) = faces.swap_remove(pos);
            g.add_edge(v, a, 1.0);
            g.add_edge(v, b, 1.0);
            g.add_edge(v, c, 1.0);
            faces.push((v, a, b));
            faces.push((v, b, c));
            faces.push((v, a, c));
        }
        let ctx = format!("case {case}: n={n}");
        assert_eq!(g.num_edges(), 3 * n - 6, "{ctx}");
        assert!(scratch.is_planar(&g), "{ctx}");
        // Sample a handful of absent edges; none may be addable.
        let mut checked = 0;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !g.has_edge(u, v) {
                    assert!(
                        !scratch.stays_planar_with_edge(&g, u, v),
                        "{ctx}: ({u},{v})"
                    );
                    checked += 1;
                    if checked >= 8 {
                        break 'outer;
                    }
                }
            }
        }
    }
}

/// Kuratowski subdivisions keep their non-planarity through the shared
/// scratch, interleaved with planar graphs of different shapes (exercises
/// scratch reuse across sizes in both directions).
#[test]
fn scratch_reuse_rejects_kuratowski_subdivisions() {
    let mut scratch = LrScratch::new();
    let subdivide = |g: &WeightedGraph| {
        let n = g.num_vertices();
        let mut out = WeightedGraph::new(n + g.num_edges());
        for (next, (u, v, w)) in (n..).zip(g.edges()) {
            out.add_edge(u, next, w);
            out.add_edge(next, v, w);
        }
        out
    };
    let mut k5 = WeightedGraph::new(5);
    for u in 0..5 {
        for v in (u + 1)..5 {
            k5.add_edge(u, v, 1.0);
        }
    }
    let mut k33 = WeightedGraph::new(6);
    for u in 0..3 {
        for v in 0..3 {
            k33.add_edge(u, 3 + v, 1.0);
        }
    }
    let mut big_planar = WeightedGraph::new(400);
    for i in 0..399 {
        big_planar.add_edge(i, i + 1, 1.0);
    }
    for _ in 0..3 {
        assert!(!scratch.is_planar(&subdivide(&k5)));
        assert!(scratch.is_planar(&big_planar));
        assert!(!scratch.is_planar(&subdivide(&k33)));
        assert!(scratch.is_planar(&WeightedGraph::new(2)));
        assert!(!scratch.is_planar(&subdivide(&subdivide(&k5))));
    }
}
