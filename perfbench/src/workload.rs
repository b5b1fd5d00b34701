//! The workloads: seeded inputs, the untraced calls through the
//! public pipeline entry points, and the traced calls into each layer.

use pfg_core::dbht::{
    assignment, converging_vertices, direction, dissimilarity_graph, hierarchy, planar_bubbles,
    restricted_distances, DirectedBubbleGraph,
};
use pfg_core::{
    dbht_for_planar_graph, pmfg, tmfg, CoreError, DbhtRunStats, Dendrogram, ParTdbht, TmfgConfig,
};
use pfg_data::{
    correlation_and_dissimilarity, correlation_matrix_f32, ucr_catalogue, CorrelationKernelStats,
    StockMarket, StockMarketConfig, TileConfig, SECTORS,
};
use pfg_graph::{
    DissimilarityView, PairDistances, SimilaritySource, SourceRows, SymmetricMatrix,
    SymmetricMatrixF32, WeightedGraph,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// Seed of what every run of a workload shares: the class archetypes, the
/// sector factors. The run's seed draws the noise added on top, so seeds
/// vary the input without changing its structure, and with it the work.
const STRUCTURE_SEED: u64 = 20230309;

/// Half-width of the uniform noise the run's seed adds to every sample,
/// relative to the unit-amplitude archetypes and unit-variance returns.
const JITTER: f64 = 0.1;

/// One benchmark workload. Why each exists is recorded in
/// `perfbench/README.md` and `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// StarLightCurves stand-in, n = 6,003, f32 storage, PAR-TDBHT-10.
    StarlightP10,
    /// Crop stand-in, n = 3,882, fused f64 kernel, exact TMFG (prefix 1).
    CropP1,
    /// Simulated market, 1,614 stocks × 1,761 days, PAR-TDBHT-30.
    StocksP30,
    /// ECG5000 stand-in, n = 500, PMFG + planar DBHT.
    PmfgEcg500,
}

/// A generated input: series, ground-truth classes and their count.
#[derive(Debug, Clone)]
pub struct Input {
    pub series: Vec<Vec<f64>>,
    pub labels: Vec<usize>,
    pub classes: usize,
}

/// The similarity input of the clustering step.
pub enum Matrices {
    /// Half-footprint correlations; dissimilarities are derived on the fly.
    F32(SymmetricMatrixF32),
    /// Correlations and dissimilarities from the fused kernel.
    F64 {
        s: SymmetricMatrix,
        d: SymmetricMatrix,
    },
}

/// What every run is checked on.
#[derive(Debug, Clone)]
pub struct Output {
    pub dendrogram: Dendrogram,
    /// Edges of the filtered graph.
    pub edges: usize,
}

/// Counters read from the entry points' public result structs. The
/// construction counters of the filtered graph a workload does not build
/// are 0.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub rounds: usize,
    pub edge_sum: f64,
    pub tmfg_rescans: usize,
    pub tmfg_conflicts: usize,
    pub pmfg_examined: usize,
    pub pmfg_rejections: usize,
    pub pmfg_parallel_rejections: usize,
    pub pmfg_commit_retests: usize,
    pub dbht: DbhtRunStats,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StarlightP10,
        Workload::CropP1,
        Workload::StocksP30,
        Workload::PmfgEcg500,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarlightP10 => "starlight-p10",
            Workload::CropP1 => "crop-p1",
            Workload::StocksP30 => "stocks-p30",
            Workload::PmfgEcg500 => "pmfg-ecg500",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// TMFG prefix of the PAR-TDBHT workloads.
    fn prefix(self) -> usize {
        match self {
            Workload::StarlightP10 => 10,
            Workload::StocksP30 => 30,
            Workload::CropP1 | Workload::PmfgEcg500 => 1,
        }
    }

    /// The seeded input. `quick` shrinks every workload to a few hundred
    /// series at most, keeping the code path.
    pub fn generate(self, seed: u64, quick: bool) -> Input {
        let ucr = |name: &str, scale: f64| {
            let spec = ucr_catalogue()
                .into_iter()
                .find(|spec| spec.name == name)
                .expect("data set is in the Table II catalogue");
            let data = spec.generate(scale, STRUCTURE_SEED);
            (data.series, data.labels, spec.num_classes)
        };
        let (mut series, labels, classes) = match self {
            Workload::StarlightP10 => ucr("StarLightCurves", if quick { 0.01 } else { 0.65 }),
            Workload::CropP1 => ucr("Crop", if quick { 0.01 } else { 0.2 }),
            Workload::PmfgEcg500 => ucr("ECG5000", if quick { 0.012 } else { 0.1 }),
            Workload::StocksP30 => {
                let (num_stocks, num_days) = if quick { (96, 240) } else { (1614, 1761) };
                let market = StockMarket::generate(&StockMarketConfig {
                    num_stocks,
                    num_days,
                    seed: STRUCTURE_SEED,
                    ..StockMarketConfig::default()
                });
                (market.detrended_returns(), market.sector, SECTORS.len())
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for x in series.iter_mut().flatten() {
            *x += rng.gen_range(-JITTER..JITTER);
        }
        Input {
            series,
            labels,
            classes,
        }
    }

    /// The correlation kernel: f32 storage for the large-n workload, the
    /// fused correlation + dissimilarity pass for the others.
    pub fn kernel(self, series: &[Vec<f64>]) -> (Matrices, CorrelationKernelStats) {
        if self == Workload::StarlightP10 {
            let (s, stats) = correlation_matrix_f32(series, TileConfig::default());
            (Matrices::F32(s), stats)
        } else {
            let (s, d, stats) = correlation_and_dissimilarity(series);
            (Matrices::F64 { s, d }, stats)
        }
    }

    /// Similarity matrix → dendrogram through the public entry points.
    pub fn cluster(self, m: &Matrices) -> Result<(Output, Counters), CoreError> {
        let runner = ParTdbht::with_prefix(self.prefix());
        let result = match m {
            Matrices::F64 { s, d } if self == Workload::PmfgEcg500 => {
                let p = pmfg(s)?;
                let dbht = dbht_for_planar_graph(&p.graph, d)?;
                let counters = Counters {
                    rounds: p.rounds,
                    edge_sum: p.edge_weight_sum(),
                    pmfg_examined: p.candidates_examined,
                    pmfg_rejections: p.rejections,
                    pmfg_parallel_rejections: p.parallel_rejections,
                    pmfg_commit_retests: p.commit_retests,
                    tmfg_rescans: 0,
                    tmfg_conflicts: 0,
                    dbht: dbht.stats,
                };
                let out = Output {
                    dendrogram: dbht.dendrogram,
                    edges: p.graph.num_edges(),
                };
                return Ok((out, counters));
            }
            Matrices::F64 { s, d } => runner.run(s, d)?,
            Matrices::F32(s) => runner.run_f32(s)?,
        };
        let counters = Counters {
            rounds: result.tmfg.rounds,
            edge_sum: result.tmfg.edge_weight_sum(),
            tmfg_rescans: result.tmfg.total_rescans(),
            tmfg_conflicts: result.tmfg.total_conflicts(),
            pmfg_examined: 0,
            pmfg_rejections: 0,
            pmfg_parallel_rejections: 0,
            pmfg_commit_retests: 0,
            dbht: result.dbht_stats,
        };
        let out = Output {
            edges: result.tmfg.graph.num_edges(),
            dendrogram: result.dendrogram,
        };
        Ok((out, counters))
    }

    /// [`Workload::cluster`] as a sequence of layer calls, each inside a
    /// span of `tracer`, in the pipeline's order.
    pub fn cluster_traced(self, m: &Matrices, tracer: &mut Tracer) -> Result<Output, CoreError> {
        match m {
            Matrices::F64 { s, d } if self == Workload::PmfgEcg500 => {
                let p = tracer.span("build", || pmfg(s))?;
                let parts = tracer.span("planar_bubbles", || planar_bubbles::decompose(&p.graph));
                let bubbles =
                    tracer.span("direction", || direction::direct_generic(&parts, &p.graph));
                Ok(traced_dbht(&p.graph, &bubbles, d, tracer))
            }
            Matrices::F64 { s, d } => self.traced_tmfg(s, d, tracer),
            Matrices::F32(s) => self.traced_tmfg(s, &DissimilarityView::new(s), tracer),
        }
    }

    fn traced_tmfg<S: SimilaritySource, D: PairDistances>(
        self,
        s: &S,
        d: &D,
        tracer: &mut Tracer,
    ) -> Result<Output, CoreError> {
        let t = tracer.span("build", || tmfg(s, TmfgConfig::with_prefix(self.prefix())))?;
        let bubbles = tracer.span("direction", || {
            direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph)
        });
        Ok(traced_dbht(&t.graph, &bubbles, d, tracer))
    }
}

/// The DBHT back half shared by both filtered graphs.
fn traced_dbht<D: PairDistances>(
    graph: &WeightedGraph,
    bubbles: &DirectedBubbleGraph,
    d: &D,
    tracer: &mut Tracer,
) -> Output {
    let (dgraph, rows) = tracer.span("apsp.rows", || {
        let dgraph = dissimilarity_graph(graph, d);
        let rows = SourceRows::compute(&dgraph, &converging_vertices(bubbles));
        (dgraph, rows)
    });
    let assigned = tracer.span("assign", || {
        assignment::assign_vertices(graph, bubbles, &rows)
    });
    let distances = tracer.span("apsp.blocks", || {
        restricted_distances(&dgraph, rows, &assigned)
    });
    let dendrogram = tracer.span("hac", || {
        hierarchy::build_hierarchy(bubbles, &assigned, &distances)
    });
    Output {
        dendrogram,
        edges: graph.num_edges(),
    }
}
