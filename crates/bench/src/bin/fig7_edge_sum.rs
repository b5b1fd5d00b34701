//! Figure 7: ratio of the filtered graph's total edge weight to that of the
//! sequential TMFG, for PMFG and for prefix sizes 1–200.
//!
//! Usage: `cargo run --release -p pfg_bench --bin fig7_edge_sum [scale] [max_datasets]`

use pfg_bench::{build_suite, parse_scale_from_args, Record};
use pfg_core::{pmfg, tmfg, TmfgConfig};

fn main() {
    let mut config = parse_scale_from_args();
    if config.max_datasets == usize::MAX {
        // The PMFG column is expensive; keep the default run modest.
        config.max_datasets = 8;
    }
    let suite = build_suite(&config);
    let prefixes = [2usize, 5, 10, 30, 50, 200];
    println!(
        "# Figure 7: edge-weight-sum ratio vs sequential TMFG (scale = {})",
        config.scale
    );
    print!("{:<28} {:>8}", "dataset", "PMFG");
    for p in prefixes {
        print!(" {:>8}", format!("p={p}"));
    }
    println!();
    for dataset in &suite {
        let sequential = tmfg(&dataset.correlation, TmfgConfig::with_prefix(1))
            .expect("valid matrices")
            .edge_weight_sum();
        let pmfg_ratio = pmfg(&dataset.correlation)
            .expect("valid matrices")
            .edge_weight_sum()
            / sequential;
        print!("{:<28} {:>8.4}", dataset.name, pmfg_ratio);
        let record = |method: String, ratio: f64| Record {
            experiment: "fig7".into(),
            dataset: dataset.name.clone(),
            method,
            params: String::new(),
            seconds: 0.0,
            ari: None,
            value: Some(ratio),
        };
        // A row's records go out after its newline, each on its own line.
        let mut records = vec![record("PMFG".into(), pmfg_ratio)];
        for prefix in prefixes {
            let ratio = tmfg(&dataset.correlation, TmfgConfig::with_prefix(prefix))
                .expect("valid matrices")
                .edge_weight_sum()
                / sequential;
            print!(" {:>8.4}", ratio);
            records.push(record(format!("TMFG-prefix-{prefix}"), ratio));
        }
        println!();
        records.iter().for_each(Record::emit);
    }
}
