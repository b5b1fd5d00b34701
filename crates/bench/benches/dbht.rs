//! DBHT stage benchmarks: the full APSP baseline (`SourceRows` with every
//! vertex a source) against the restricted (demand-driven) distance build,
//! direction + assignment, and the hierarchy step (Figure 5's categories).

use criterion::{criterion_group, criterion_main, Criterion};
use pfg_bench::{BenchDataset, SuiteConfig};
use pfg_core::dbht::{
    assignment, converging_vertices, direction, dissimilarity_graph, hierarchy,
    restricted_distances,
};
use pfg_core::{tmfg, TmfgConfig};
use pfg_data::ucr_catalogue;
use pfg_graph::SourceRows;
use std::hint::black_box;

fn bench_dbht_stages(c: &mut Criterion) {
    let spec = ucr_catalogue()
        .into_iter()
        .find(|s| s.name == "ECG5000")
        .expect("catalogue entry");
    let data = BenchDataset::prepare(
        &spec,
        &SuiteConfig {
            scale: 0.05,
            ..SuiteConfig::default()
        },
    );
    let t = tmfg(&data.correlation, TmfgConfig::with_prefix(10)).expect("valid");
    let dgraph = dissimilarity_graph(&t.graph, &data.dissimilarity);
    let directed = direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph);
    let sources = converging_vertices(&directed);
    let rows = SourceRows::compute(&dgraph, &sources);
    let assigned = assignment::assign_vertices(&t.graph, &directed, &rows);
    let distances = restricted_distances(&dgraph, rows.clone(), &assigned);
    let all: Vec<usize> = (0..dgraph.num_vertices()).collect();

    let mut group = c.benchmark_group("dbht");
    group.sample_size(10);
    group.bench_function("apsp_full", |b| {
        b.iter(|| black_box(SourceRows::compute(&dgraph, &all)))
    });
    group.bench_function("apsp_restricted", |b| {
        b.iter(|| {
            let rows = SourceRows::compute(&dgraph, &sources);
            black_box(restricted_distances(&dgraph, rows, &assigned))
        })
    });
    group.bench_function("direction", |b| {
        b.iter(|| black_box(direction::direct_tmfg_bubble_tree(&t.bubble_tree, &t.graph)))
    });
    group.bench_function("assignment", |b| {
        b.iter(|| black_box(assignment::assign_vertices(&t.graph, &directed, &rows)))
    });
    group.bench_function("hierarchy", |b| {
        b.iter(|| black_box(hierarchy::build_hierarchy(&directed, &assigned, &distances)))
    });
    group.finish();
}

criterion_group!(benches, bench_dbht_stages);
criterion_main!(benches);
