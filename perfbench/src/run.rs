//! One benchmark run: set-up, a closed measurement loop over one workload,
//! and the metrics it reports.
//!
//! The load is a closed loop: one pipeline run at a time from a single
//! client, the next starting when the previous one ends. Every iteration
//! is checked. Timings are medians over the iterations of the run.

use pfg_data::CorrelationKernelStats;
use pfg_metrics::adjusted_rand_index;
use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::checks::{problems, Audit};
use crate::host::{self, Host};
use crate::speed::{probe_s, scale};
use crate::trace::{now, since, Tracer};
use crate::workload::{Counters, Input, Matrices, Output, Workload};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement time; the loop runs at least one iteration and starts
    /// no iteration it expects to end later.
    pub seconds: f64,
    /// Report the per-layer metrics of the traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Shrink the inputs (same code path).
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub audit: Audit,
    pub metrics: Vec<Metric>,
    /// Medians of the unscaled end-to-end times, as a JSON object.
    pub raw: String,
    /// The host stamp, as JSON.
    pub host: String,
    /// Every traced run's spans, as a JSON array (traced runs only).
    pub spans: Option<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.audit.failed == 0 && self.audit.attempted > 0,
            self.audit.attempted,
            self.audit.failed,
            metrics.join(", ")
        )
    }
}

struct Pools {
    n: ThreadPool,
    one: ThreadPool,
}

impl Pools {
    fn build() -> Self {
        let pool = |threads| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the pool shim cannot fail to build")
        };
        Self {
            n: pool(host::nproc()),
            one: pool(1),
        }
    }
}

/// One untraced N-thread run: series → labels through the entry points.
struct Sample {
    cluster_s: f64,
    total_s: f64,
    kernel: CorrelationKernelStats,
    matrices: Matrices,
    out: Output,
    counters: Counters,
    labels: Vec<usize>,
}

fn untraced(w: Workload, input: &Input, pool: &ThreadPool) -> Result<Sample, String> {
    pool.install(|| {
        let start = now();
        let (matrices, kernel) = w.kernel(&input.series);
        let kernel_s = since(start);
        let (out, counters) = w.cluster(&matrices).map_err(|e| e.to_string())?;
        let cluster_s = since(start) - kernel_s;
        let labels = out.dendrogram.cut_to_clusters(input.classes);
        let total_s = since(start);
        Ok(Sample {
            cluster_s,
            total_s,
            kernel,
            matrices,
            out,
            counters,
            labels,
        })
    })
}

/// One traced run: the same pipeline, one span per layer call.
fn traced(w: Workload, input: &Input, pool: &ThreadPool) -> (Tracer, Result<Output, String>) {
    let mut tracer = Tracer::default();
    let result = pool.install(|| {
        let total = tracer.begin("total");
        let (matrices, _) = tracer.span("kernel", || w.kernel(&input.series));
        let cluster = tracer.begin("cluster");
        let out = w.cluster_traced(&matrices, &mut tracer);
        tracer.end(cluster);
        if let Ok(out) = &out {
            tracer.span("cut", || out.dendrogram.cut_to_clusters(input.classes));
        }
        tracer.end(total);
        out.map_err(|e| e.to_string())
    });
    (tracer, result)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Set-up: both pools and the input, with the time it took.
fn set_up(opts: &Options) -> (f64, Pools, Input) {
    let start = now();
    let pools = Pools::build();
    let input = opts.workload.generate(opts.seed, opts.quick);
    (since(start), pools, input)
}

pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    // Set-up runs once before the loop and is timed after every iteration,
    // so the median `setup_s` sees the same machine as the measured runs
    // rather than one moment at process start.
    let (_, pools, input) = set_up(opts);
    let mut setup_s = Vec::new();
    let n = input.series.len();
    let host = Host::detect([
        pools.n.current_num_threads(),
        pools.one.current_num_threads(),
    ]);

    let mut audit = Audit::default();
    // The first untraced output, which every later run must reproduce.
    let mut reference: Option<Output> = None;
    let mut first: Option<(Counters, CorrelationKernelStats, f64)> = None;
    let mut series: Vec<(String, f64)> = Vec::new();
    let mut spans = Vec::new();
    let start = now();
    let mut iteration = 0;
    // An iteration starts only if one of median length still ends within
    // the measurement time, so a run takes `seconds`, not up to one
    // iteration more.
    let mut iteration_s = Vec::new();
    while iteration == 0 || since(start) + median(&iteration_s) <= opts.seconds {
        let began = now();
        let before = probe_s(&pools.n);
        let sample = untraced(w, &input, &pools.n);
        let k = scale(before, probe_s(&pools.n));
        match sample {
            Err(e) => audit.record("untraced N-thread run", vec![e]),
            Ok(s) => {
                let against = reference.as_ref().map(|r| ("the first run", &r.dendrogram));
                audit.record("untraced N-thread run", problems(n, &s.out, against));
                series.push(("total_s".into(), k * s.total_s));
                series.push(("cluster_s".into(), k * s.cluster_s));
                series.push(("raw.total_s".into(), s.total_s));
                series.push(("raw.cluster_s".into(), s.cluster_s));
                first.get_or_insert_with(|| {
                    (
                        s.counters,
                        s.kernel,
                        adjusted_rand_index(&input.labels, &s.labels),
                    )
                });
                if !opts.trace {
                    let before = probe_s(&pools.one);
                    let t = now();
                    let one = pools.one.install(|| w.cluster(&s.matrices));
                    let raw = since(t);
                    let k = scale(before, probe_s(&pools.one));
                    series.push(("cluster_1t_s".into(), k * raw));
                    series.push(("raw.cluster_1t_s".into(), raw));
                    match one {
                        Err(e) => audit.record("untraced 1-thread run", vec![e.to_string()]),
                        Ok((o, _)) => audit.record(
                            "untraced 1-thread run",
                            problems(n, &o, Some(("the N-thread run", &s.out.dendrogram))),
                        ),
                    }
                }
                reference.get_or_insert(s.out);
            }
        }
        if opts.trace {
            for (pool, threads, suffix) in [(&pools.n, "N", ""), (&pools.one, "1", ".1t")] {
                let (tracer, out) = traced(w, &input, pool);
                let run = format!("traced {threads}-thread run");
                match out {
                    Err(e) => audit.record(&run, vec![e]),
                    Ok(o) => {
                        let against = reference
                            .as_ref()
                            .map(|r| ("the untraced run", &r.dendrogram));
                        audit.record(&run, problems(n, &o, against));
                    }
                }
                for layer in LAYERS {
                    series.push((format!("{layer}{suffix}"), tracer.self_seconds(layer)));
                }
                if suffix.is_empty() {
                    series.push(("traced.total".into(), tracer.seconds("total")));
                }
                spans.push(tracer.to_json(iteration, pool.current_num_threads()));
            }
        }
        let before = probe_s(&pools.one);
        let raw = set_up(opts).0;
        let k = scale(before, probe_s(&pools.one));
        setup_s.push(k * raw);
        series.push(("raw.setup_s".into(), raw));
        iteration_s.push(since(began));
        iteration += 1;
    }

    let med = |key: &str| {
        let values: Vec<f64> = series
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|e| e.1)
            .collect();
        median(&values)
    };
    let Some((counters, kernel, ari)) = first else {
        // Every run failed: nothing to measure, and the result says so.
        return Outcome {
            audit,
            metrics: Vec::new(),
            raw: "{}".into(),
            host: host.to_json(w.name(), opts.seed, 0),
            spans: None,
        };
    };
    let matrix_bytes = kernel.output_bytes;
    let metrics = if opts.trace {
        layer_metrics(&med, &counters, &kernel)
    } else {
        let peak = host::peak_rss_mb();
        if peak.is_none() {
            audit.record(
                "peak RSS read",
                vec!["/proc/self/status has no VmHWM".into()],
            );
        }
        vec![
            metric("total_s", med("total_s"), "s"),
            metric("cluster_s", med("cluster_s"), "s"),
            metric("cluster_1t_s", med("cluster_1t_s"), "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("ari", ari, "ARI"),
            metric("peak_rss_mb", peak.unwrap_or(0.0), "MB"),
        ]
    };
    let raw = ["total_s", "cluster_s", "cluster_1t_s", "setup_s"]
        .map(|name| format!("\"{name}\": {}", med(&format!("raw.{name}"))))
        .join(", ");
    Outcome {
        audit,
        metrics,
        raw: format!("{{{raw}}}"),
        host: host.to_json(w.name(), opts.seed, matrix_bytes),
        spans: opts.trace.then(|| format!("[{}]", spans.join(", "))),
    }
}

/// Span names of the traced run's layer calls.
const LAYERS: [&str; 8] = [
    "kernel",
    "build",
    "planar_bubbles",
    "direction",
    "apsp.rows",
    "assign",
    "apsp.blocks",
    "hac",
];

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn layer_metrics(
    med: &dyn Fn(&str) -> f64,
    c: &Counters,
    kernel: &CorrelationKernelStats,
) -> Vec<Metric> {
    let at = |layer: &str, suffix: &str| med(&format!("{layer}{suffix}"));
    let n = kernel.n as f64;
    let total = med("traced.total");
    let share = |s: f64| 100.0 * ratio(s, total);
    let dbht = &c.dbht;

    let kernel_s = at("kernel", "");
    let kernel_1t = at("kernel", ".1t");
    let build_s = at("build", "");
    let build_1t = at("build", ".1t");
    let bubbles_s = at("planar_bubbles", "") + at("direction", "");
    let rows_s = at("apsp.rows", "");
    let blocks_s = at("apsp.blocks", "");
    let apsp_1t = at("apsp.rows", ".1t") + at("apsp.blocks", ".1t");
    let assign_s = at("assign", "");
    let hac_s = at("hac", "");
    let hac_1t = at("hac", ".1t");
    let madds = n * (n - 1.0) / 2.0 * kernel.series_len as f64;
    vec![
        metric("kernel.s", kernel_s, "s"),
        metric("kernel.1t_s", kernel_1t, "s"),
        metric("kernel.speedup", ratio(kernel_1t, kernel_s), "x"),
        metric("kernel.share", share(kernel_s), "%"),
        metric("kernel.tiles", kernel.tiles_computed as f64, "count"),
        metric("kernel.madds", madds, "count"),
        metric("kernel.out_mb", kernel.output_bytes as f64 / 1e6, "MB"),
        metric(
            "kernel.gmadd_per_s",
            ratio(madds / 1e9, kernel_s),
            "Gmadd/s",
        ),
        metric("build.s", build_s, "s"),
        metric("build.1t_s", build_1t, "s"),
        metric("build.speedup", ratio(build_1t, build_s), "x"),
        metric("build.share", share(build_s), "%"),
        metric("build.rounds", c.rounds as f64, "count"),
        metric(
            "build.us_per_round",
            1e6 * ratio(build_s, c.rounds as f64),
            "us",
        ),
        metric("build.edge_sum", c.edge_sum, "sum"),
        metric("tmfg.rescans", c.tmfg_rescans as f64, "count"),
        metric("tmfg.conflicts", c.tmfg_conflicts as f64, "count"),
        metric("pmfg.examined", c.pmfg_examined as f64, "count"),
        metric("pmfg.rejections", c.pmfg_rejections as f64, "count"),
        metric(
            "pmfg.spec_eff",
            ratio(c.pmfg_parallel_rejections as f64, c.pmfg_rejections as f64),
            "ratio",
        ),
        metric("pmfg.commit_retests", c.pmfg_commit_retests as f64, "count"),
        metric("bubbles.s", bubbles_s, "s"),
        metric("bubbles.share", share(bubbles_s), "%"),
        metric("apsp.rows_s", rows_s, "s"),
        metric("apsp.blocks_s", blocks_s, "s"),
        metric("apsp.1t_s", apsp_1t, "s"),
        metric("apsp.speedup", ratio(apsp_1t, rows_s + blocks_s), "x"),
        metric("apsp.share", share(rows_s + blocks_s), "%"),
        metric("apsp.pairs", dbht.apsp_pairs_computed as f64, "count"),
        metric("apsp.frac", dbht.restricted_fraction(), "ratio"),
        metric("apsp.source_rows", dbht.apsp_source_rows as f64, "count"),
        metric("assign.s", assign_s, "s"),
        metric("assign.share", share(assign_s), "%"),
        metric("hac.s", hac_s, "s"),
        metric("hac.1t_s", hac_1t, "s"),
        metric("hac.speedup", ratio(hac_1t, hac_s), "x"),
        metric("hac.share", share(hac_s), "%"),
        metric("hac.rounds", dbht.hac_rounds as f64, "count"),
        metric("hac.merges", dbht.hac_merges as f64, "count"),
        metric(
            "hac.merges_per_round",
            ratio(dbht.hac_merges as f64, dbht.hac_rounds as f64),
            "merges/round",
        ),
        metric("trace.overhead_s", total - med("raw.total_s"), "s"),
    ]
}
