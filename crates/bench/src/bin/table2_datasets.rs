//! Table II: summary of the benchmark data sets (id, name, n, L, #classes)
//! and the scaled sizes actually generated at the chosen harness scale.
//!
//! Usage: `cargo run --release -p pfg_bench --bin table2_datasets [scale] [max_datasets]`

use pfg_bench::{build_suite, parse_scale_from_args};
use pfg_data::ucr_catalogue;

fn main() {
    let config = parse_scale_from_args();
    println!("# Table II: data sets (scale = {})", config.scale);
    println!(
        "{:>3} {:<28} {:>7} {:>6} {:>9} | {:>9} {:>8}",
        "ID", "Name", "n", "L", "#classes", "n(scaled)", "L(gen)"
    );
    let suite = build_suite(&config);
    for (spec, ds) in ucr_catalogue().iter().zip(suite.iter()) {
        println!(
            "{:>3} {:<28} {:>7} {:>6} {:>9} | {:>9} {:>8}",
            spec.id,
            spec.name,
            spec.n,
            spec.length,
            spec.num_classes,
            ds.len(),
            ds.series.first().map_or(0, |s| s.len()),
        );
    }
}
