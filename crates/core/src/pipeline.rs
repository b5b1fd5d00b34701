//! The end-to-end PAR-TDBHT pipeline: similarity matrix → TMFG → DBHT →
//! dendrogram, with per-stage wall-clock timings.
//!
//! The stage timings refine the runtime-breakdown categories of Figure 5
//! in the paper: `tmfg` (Algorithm 1, including the on-the-fly bubble
//! tree), `apsp` (the demand-driven shortest paths on the
//! dissimilarity-weighted filtered graph — converging-bubble source rows
//! plus per-group blocks), `direction` (Algorithm 3), `assignment`
//! (Algorithm 4, lines 1–23) and `hierarchy` (the three-level
//! complete-linkage step, lines 24–33, plus §V-D height re-assignment).
//! The paper's lumped "bubble tree" category is `direction + assignment`.
//!
//! [`ParTdbht::run_with`] times the TMFG construction itself and hands the
//! rest to the DBHT back half in [`crate::dbht`], which runs the stage
//! sequence for every DBHT entry point. Both time their stages through
//! this module's crate-private `timed` helper, the crate's one clock read.
//! The times only report; no result depends on them.

use std::time::{Duration, Instant};

use pfg_graph::{
    DissimilarityView, PairDistances, SimilaritySource, SymmetricMatrix, SymmetricMatrixF32,
};

use crate::dbht::{direction, run_back_half, Dbht, DbhtRunStats, VertexAssignment};
use crate::dendrogram::Dendrogram;
use crate::error::CoreError;
use crate::tmfg::{tmfg, Tmfg, TmfgConfig};

/// Runs `stage` and adds its wall time to `slot`.
pub(crate) fn timed<T>(slot: &mut Duration, stage: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = stage();
    *slot += start.elapsed();
    out
}

/// Wall-clock timings of the pipeline stages (refined Figure 5 categories).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// TMFG construction (Algorithm 1 + Algorithm 2).
    pub tmfg: Duration,
    /// Demand-driven shortest paths over the dissimilarity-weighted TMFG:
    /// converging-bubble source rows plus per-group dense blocks (both
    /// phases summed).
    pub apsp: Duration,
    /// Bubble-tree direction computation (Algorithm 3).
    pub direction: Duration,
    /// Vertex-to-bubble assignment (Algorithm 4, lines 1–23).
    pub assignment: Duration,
    /// Three-level complete-linkage hierarchy (Algorithm 4, lines 24–33).
    pub hierarchy: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.tmfg + self.apsp + self.direction + self.assignment + self.hierarchy
    }
}

/// The result of running the full pipeline.
#[derive(Debug, Clone)]
pub struct ParTdbhtResult {
    /// The constructed TMFG (graph, bubble tree, insertion trace).
    pub tmfg: Tmfg,
    /// Per-vertex group and bubble assignments.
    pub assignment: VertexAssignment,
    /// The final DBHT dendrogram.
    pub dendrogram: Dendrogram,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// HAC and restricted-APSP counters of the DBHT back half.
    pub dbht_stats: DbhtRunStats,
}

impl ParTdbhtResult {
    /// Convenience: cluster labels obtained by cutting the dendrogram into
    /// `k` clusters.
    pub fn clusters(&self, k: usize) -> Vec<usize> {
        self.dendrogram.cut_to_clusters(k)
    }
}

/// The PAR-TDBHT pipeline runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParTdbht {
    config: TmfgConfig,
}

impl ParTdbht {
    /// Creates a runner with the given TMFG construction parameters.
    pub fn new(config: TmfgConfig) -> Self {
        Self { config }
    }

    /// Creates a runner with the given TMFG prefix size.
    pub fn with_prefix(prefix: usize) -> Self {
        Self::new(TmfgConfig::with_prefix(prefix))
    }

    /// Runs TMFG construction followed by the DBHT.
    ///
    /// `similarity` is the full pairwise similarity matrix (e.g. Pearson
    /// correlations); `dissimilarity` supplies the edge lengths for the
    /// shortest-path computations (e.g. `sqrt(2 (1 − ρ))`).
    ///
    /// # Errors
    /// Propagates [`CoreError`] for inputs that are too small, mismatched
    /// matrix sizes, an invalid prefix, a non-finite similarity, or an
    /// invalid edge dissimilarity.
    pub fn run(
        &self,
        similarity: &SymmetricMatrix,
        dissimilarity: &SymmetricMatrix,
    ) -> Result<ParTdbhtResult, CoreError> {
        self.run_with(similarity, dissimilarity)
    }

    /// [`ParTdbht::run`] over half-footprint `f32` similarity storage,
    /// deriving edge dissimilarities on the fly through
    /// [`DissimilarityView`] — no dense `f64` copy and no dense
    /// dissimilarity matrix are ever materialized, cutting the input-side
    /// memory from `16 n²` bytes to `4 n²`.
    ///
    /// # Errors
    /// Propagates [`CoreError`] exactly like [`ParTdbht::run`].
    pub fn run_f32(&self, similarity: &SymmetricMatrixF32) -> Result<ParTdbhtResult, CoreError> {
        self.run_with(similarity, &DissimilarityView::new(similarity))
    }

    /// The generic pipeline: any [`SimilaritySource`] for construction,
    /// any [`PairDistances`] for the DBHT metric. [`ParTdbht::run`] and
    /// [`ParTdbht::run_f32`] are thin wrappers.
    ///
    /// # Errors
    /// Propagates [`CoreError`] for inputs that are too small, mismatched
    /// matrix sizes, an invalid prefix, or a non-finite similarity (the
    /// diagonal included). Returns
    /// [`CoreError::InvalidDissimilarity`] if a TMFG edge's dissimilarity
    /// is NaN, negative or infinite; only those `3n − 6` entries are read.
    pub fn run_with<S: SimilaritySource, D: PairDistances>(
        &self,
        similarity: &S,
        dissimilarity: &D,
    ) -> Result<ParTdbhtResult, CoreError> {
        if similarity.n() != dissimilarity.num_vertices() {
            return Err(CoreError::DimensionMismatch {
                similarity: similarity.n(),
                dissimilarity: dissimilarity.num_vertices(),
            });
        }

        // Construction (Algorithm 1, with the bubble tree of Algorithm 2).
        let mut timings = StageTimings::default();
        let tmfg_result = timed(&mut timings.tmfg, || tmfg(similarity, self.config))?;
        let Dbht {
            dendrogram,
            assignment,
            stats,
            ..
        } = run_back_half(
            &tmfg_result.graph,
            || direction::direct_tmfg_bubble_tree(&tmfg_result.bubble_tree, &tmfg_result.graph),
            dissimilarity,
            &mut timings,
        )?;
        Ok(ParTdbhtResult {
            tmfg: tmfg_result,
            assignment,
            dendrogram,
            timings,
            dbht_stats: stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbht::dbht_for_tmfg;
    use crate::tmfg::assert_every_round_fills;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blocks(n: usize, k: usize, seed: u64) -> (SymmetricMatrix, SymmetricMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        let s = SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else if labels[i] == labels[j] {
                0.8 + rng.gen_range(-0.05..0.05)
            } else {
                0.1 + rng.gen_range(-0.05..0.05)
            }
        });
        let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
        (s, d, labels)
    }

    #[test]
    fn pipeline_produces_complete_dendrogram() {
        let (s, d, _) = blocks(40, 4, 1);
        for prefix in [1, 10] {
            let result = ParTdbht::with_prefix(prefix).run(&s, &d).unwrap();
            assert_eq!(result.dendrogram.num_leaves(), 40);
            assert!(result.dendrogram.root().is_some());
            assert!(result.dendrogram.is_monotone());
            assert!(result.timings.total() > Duration::ZERO);
        }
    }

    /// Asserts that a pipeline result equals `tmfg` followed by `dbht` on
    /// every output but the timings.
    fn assert_same_run(ctx: &str, result: &ParTdbhtResult, t: &Tmfg, dbht: &Dbht) {
        assert_eq!(result.tmfg.insertions, t.insertions, "{ctx}");
        assert_eq!(result.dendrogram, dbht.dendrogram, "{ctx}");
        assert_eq!(result.assignment.group, dbht.assignment.group, "{ctx}");
        assert_eq!(result.assignment.bubble, dbht.assignment.bubble, "{ctx}");
        assert_eq!(result.assignment.groups, dbht.assignment.groups, "{ctx}");
        assert_eq!(result.dbht_stats, dbht.stats, "{ctx}");
        let n = t.num_vertices();
        let stats = result.dbht_stats;
        assert_eq!(stats.hac_merges, n - 1, "{ctx}");
        assert_eq!(stats.hac_rounds, n - 1, "{ctx}");
        assert_eq!(stats.apsp_pairs_full, n * n, "{ctx}");
    }

    #[test]
    fn pipeline_equals_tmfg_then_dbht() {
        let (s, d, _) = blocks(48, 4, 2);
        let f32_data: Vec<f32> = s.as_slice().iter().map(|&x| x as f32).collect();
        let s32 = SymmetricMatrixF32::from_symmetrized(48, f32_data);
        for prefix in [1, 10] {
            let runner = ParTdbht::with_prefix(prefix);
            let config = TmfgConfig::with_prefix(prefix);

            let t = tmfg(&s, config).unwrap();
            let dbht = dbht_for_tmfg(&t, &d).unwrap();
            let result = runner.run(&s, &d).unwrap();
            assert_same_run(&format!("dense, prefix {prefix}"), &result, &t, &dbht);

            let t = tmfg(&s32, config).unwrap();
            let dbht = dbht_for_tmfg(&t, &DissimilarityView::new(&s32)).unwrap();
            let result = runner.run_f32(&s32).unwrap();
            assert_same_run(&format!("f32, prefix {prefix}"), &result, &t, &dbht);
        }
    }

    /// Pairwise agreement between a found clustering and ground-truth labels.
    fn pair_agreement(labels: &[usize], found: &[usize]) -> f64 {
        let n = labels.len();
        let mut agree = 0;
        let mut total = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if (labels[i] == labels[j]) == (found[i] == found[j]) {
                    agree += 1;
                }
                total += 1;
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn sequential_pipeline_recovers_block_structure_exactly() {
        let (s, d, labels) = blocks(36, 3, 5);
        let result = ParTdbht::with_prefix(1).run(&s, &d).unwrap();
        let found = result.clusters(3);
        let agreement = pair_agreement(&labels, &found);
        assert!(agreement > 0.99, "agreement {agreement}");
    }

    /// Generates a correlation matrix from synthetic time series with one
    /// archetype per class — the realistic input shape the algorithm is
    /// designed for (heterogeneous within-class correlations), unlike the
    /// constant-block matrices above.
    fn time_series_correlation(
        n: usize,
        classes: usize,
        seed: u64,
    ) -> (SymmetricMatrix, SymmetricMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = 64;
        let archetypes: Vec<Vec<f64>> = (0..classes)
            .map(|_| {
                let freq = rng.gen_range(1.0..4.0);
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                (0..len)
                    .map(|t| (freq * t as f64 / len as f64 * std::f64::consts::TAU + phase).sin())
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let series: Vec<Vec<f64>> = labels
            .iter()
            .map(|&c| {
                archetypes[c]
                    .iter()
                    .map(|&x| x + rng.gen_range(-0.4..0.4))
                    .collect()
            })
            .collect();
        let pearson = |a: &[f64], b: &[f64]| {
            let ma = a.iter().sum::<f64>() / a.len() as f64;
            let mb = b.iter().sum::<f64>() / b.len() as f64;
            let mut cov = 0.0;
            let mut va = 0.0;
            let mut vb = 0.0;
            for i in 0..a.len() {
                cov += (a[i] - ma) * (b[i] - mb);
                va += (a[i] - ma).powi(2);
                vb += (b[i] - mb).powi(2);
            }
            cov / (va.sqrt() * vb.sqrt())
        };
        let s = SymmetricMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                pearson(&series[i], &series[j])
            }
        });
        let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
        (s, d, labels)
    }

    #[test]
    fn prefix_pipeline_recovers_class_structure_on_time_series() {
        // On realistic correlation structure (per-class archetype signals
        // plus noise) the batched construction retains clustering quality —
        // the Figure 6 claim. Everything here is deterministic (fixed seeds,
        // seeded generators), so the bars below are calibrated against
        // measured values with headroom, not statistical guesses.
        //
        // With the conflict-aware top-k selector and intra-round batch
        // placement, the measured mean pair agreement at this scale is
        // 0.8882 (prefix 5) and 0.8894 (prefix 10) against 0.9458
        // sequential — a gap under 0.06, where the pre-fix selector lost
        // 0.25–0.30. The bars enforce a gap of at most 0.1 so the Fig. 6
        // near-parity property cannot silently regress.
        let seeds = [0u64, 1, 2, 3, 4];
        // Per-prefix quality bars: (prefix, absolute floor, max drop below
        // the sequential mean). Chance pair agreement for 3 balanced
        // classes is 5/9 ≈ 0.56; the floors stay far above it.
        let bands = [(5usize, 0.85, 0.1), (10, 0.85, 0.1)];
        let mut seq_total = 0.0;
        let mut batched_total = [0.0f64; 2];
        for &seed in &seeds {
            let (s, d, labels) = time_series_correlation(120, 3, seed);
            let sequential = ParTdbht::with_prefix(1).run(&s, &d).unwrap();
            seq_total += pair_agreement(&labels, &sequential.clusters(3));
            for (slot, &(prefix, _, _)) in bands.iter().enumerate() {
                let result = ParTdbht::with_prefix(prefix).run(&s, &d).unwrap();
                batched_total[slot] += pair_agreement(&labels, &result.clusters(3));
                // Figure 7: with intra-round placement the edge-weight sum
                // stays within 2% of sequential on every single draw
                // (measured ≥ 0.998 on this suite), not just on average.
                let ratio = result.tmfg.edge_weight_sum() / sequential.tmfg.edge_weight_sum();
                assert!(
                    ratio > 0.98,
                    "seed {seed} prefix {prefix} edge-sum ratio {ratio}"
                );
                // The selector's defining invariant: every round fills its
                // target, so conflicts never shrink a batch.
                assert_every_round_fills(&result.tmfg, prefix);
            }
        }
        let n = seeds.len() as f64;
        let seq_agreement = seq_total / n;
        assert!(
            seq_agreement > 0.9,
            "sequential mean agreement {seq_agreement}"
        );
        for (slot, &(prefix, floor, band)) in bands.iter().enumerate() {
            let agreement = batched_total[slot] / n;
            assert!(
                agreement > floor && agreement > seq_agreement - band,
                "prefix {prefix} mean agreement {agreement} vs sequential {seq_agreement}"
            );
        }
    }

    #[test]
    fn f32_pipeline_recovers_block_structure() {
        // The large-n configuration — f32 storage and the on-the-fly
        // dissimilarity view — must recover the same block structure as
        // the dense f64 path.
        let (s, d, labels) = blocks(40, 4, 1);
        let dense = ParTdbht::with_prefix(10).run(&s, &d).unwrap();
        let f32_data: Vec<f32> = s.as_slice().iter().map(|&x| x as f32).collect();
        let s32 = SymmetricMatrixF32::from_symmetrized(40, f32_data);
        let r = ParTdbht::with_prefix(10).run_f32(&s32).unwrap();
        assert_eq!(r.dendrogram.num_leaves(), 40);
        assert!(r.dendrogram.is_monotone());
        let agreement = pair_agreement(&labels, &r.clusters(4));
        let dense_agreement = pair_agreement(&labels, &dense.clusters(4));
        assert!(
            agreement >= dense_agreement - 1e-9,
            "f32 agreement {agreement} vs dense {dense_agreement}"
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let (s, _, _) = blocks(20, 2, 3);
        let (_, d_small, _) = blocks(10, 2, 3);
        assert!(matches!(
            ParTdbht::default().run(&s, &d_small),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_edge_dissimilarity_is_rejected() {
        let (s, d, _) = blocks(20, 3, 3);
        let t = tmfg(&s, TmfgConfig::default()).unwrap();
        let (u, v, _) = t.graph.edges().next().expect("a TMFG has edges");
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut d = d.clone();
            d.set(u, v, bad);
            let expected = Err(CoreError::InvalidDissimilarity { u, v });
            let runner = ParTdbht::default();
            assert_eq!(runner.run_with(&s, &d).map(|_| ()), expected, "{bad}");
            assert_eq!(runner.run(&s, &d).map(|_| ()), expected, "{bad}");
        }
    }

    #[test]
    fn prefix_variants_produce_similar_structures() {
        let (s, d, _) = blocks(50, 5, 9);
        let r1 = ParTdbht::with_prefix(1).run(&s, &d).unwrap();
        let r10 = ParTdbht::with_prefix(10).run(&s, &d).unwrap();
        let w1 = r1.tmfg.edge_weight_sum();
        let w10 = r10.tmfg.edge_weight_sum();
        // Figure 7 reports ratios of 92–100% on real correlation matrices.
        // Intra-round placement keeps even this adversarial hard-block
        // matrix at ≥ 99% of the sequential edge-weight sum (measured
        // 0.9977; the exact ratios are reported by the fig7 bench).
        assert!(w10 / w1 > 0.99, "edge-sum ratio {}", w10 / w1);
        assert!(w10 / w1 <= 1.0 + 1e-9, "edge-sum ratio {}", w10 / w1);
    }
}
