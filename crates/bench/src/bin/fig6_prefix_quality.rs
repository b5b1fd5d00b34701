//! Figure 6: clustering quality (ARI) of PAR-TDBHT for prefix sizes
//! 1, 2, 5, 10, 30, 50 and 200 on every data set, plus the batch
//! selector's staleness counters per prefix.
//!
//! Besides the text table (and the per-run JSON record lines shared by all
//! harnesses), the full agreement table is written machine-readably to
//! `<record dir>/FIG6_prefix_quality.json` (one flat object per
//! dataset × prefix cell), so the Fig. 6 trajectory can be tracked across
//! commits the same way the bench records are.
//!
//! Usage: `cargo run --release -p pfg_bench --bin fig6_prefix_quality [scale] [max_datasets]`

use pfg_bench::records::{json_string, record_dir, write_json_array};
use pfg_bench::{build_suite, parse_scale_from_args, run_method, Method, Record};

fn main() {
    let config = parse_scale_from_args();
    let suite = build_suite(&config);
    let prefixes = [1usize, 2, 5, 10, 30, 50, 200];
    println!("# Figure 6: ARI per prefix size (scale = {})", config.scale);
    print!("{:<28}", "dataset");
    for p in prefixes {
        print!(" {:>8}", format!("p={p}"));
    }
    println!();
    let mut table_lines: Vec<String> = Vec::new();
    // Selector counters aggregated per prefix across the suite.
    let mut totals = vec![(0usize, 0usize, 0usize, 0usize); prefixes.len()];
    for dataset in &suite {
        print!("{:<28}", dataset.name);
        for (slot, &prefix) in prefixes.iter().enumerate() {
            let output = run_method(Method::ParTdbht { prefix }, dataset);
            print!(" {:>8.3}", output.ari);
            Record {
                experiment: "fig6".into(),
                dataset: dataset.name.clone(),
                method: format!("PAR-TDBHT-{prefix}"),
                params: format!("n={}", dataset.len()),
                seconds: output.elapsed.as_secs_f64(),
                ari: Some(output.ari),
                value: None,
            }
            .emit();
            let t = output.tmfg.as_ref().expect("TMFG method carries its graph");
            let (rounds, conflicts, rescans, reassigned) = (
                t.rounds,
                t.total_conflicts(),
                t.total_rescans(),
                t.total_reassigned(),
            );
            totals[slot].0 += rounds;
            totals[slot].1 += conflicts;
            totals[slot].2 += rescans;
            totals[slot].3 += reassigned;
            table_lines.push(format!(
                "{{\"dataset\":{},\"n\":{},\"prefix\":{},\"ari\":{:.6},\"seconds\":{:.6},\"rounds\":{},\"conflicts\":{},\"rescans\":{},\"reassigned\":{}}}",
                json_string(&dataset.name),
                dataset.len(),
                prefix,
                output.ari,
                output.elapsed.as_secs_f64(),
                rounds,
                conflicts,
                rescans,
                reassigned,
            ));
        }
        println!();
    }
    println!();
    println!("# batch selector counters (summed over the suite)");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10}",
        "prefix", "rounds", "conflicts", "rescans", "reassigned"
    );
    for (slot, &prefix) in prefixes.iter().enumerate() {
        let (rounds, conflicts, rescans, reassigned) = totals[slot];
        println!("{prefix:<8} {rounds:>8} {conflicts:>10} {rescans:>10} {reassigned:>10}");
    }
    let path = record_dir().join("FIG6_prefix_quality.json");
    match write_json_array(&path, &table_lines) {
        Ok(()) => println!("# agreement table written to {}", path.display()),
        Err(e) => eprintln!(
            "# failed to write agreement table to {}: {e}",
            path.display()
        ),
    }
}
