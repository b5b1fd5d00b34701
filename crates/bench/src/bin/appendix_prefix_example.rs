//! Appendix (Figures 12–13): the 6-point correlation matrix for which the
//! batched TMFG (prefix 3) recovers the ground-truth clustering while the
//! exact TMFG (prefix 1) does not.
//!
//! The prefix-3 run uses the paper's literal *simultaneous* batch
//! placement so the walkthrough matches Figure 13 step for step (the
//! library default, intra-round placement, would instead reproduce the
//! sequential insertion of vertex 2 into {0,4,5}).
//!
//! Usage: `cargo run --release -p pfg_bench --bin appendix_prefix_example`

use pfg_core::{tmfg, ParTdbht, TmfgConfig};
use pfg_graph::SymmetricMatrix;
use pfg_metrics::adjusted_rand_index;

fn main() {
    let rows = vec![
        1.0, 0.8, 0.4, 0.8, 0.8, 0.4, //
        0.8, 1.0, 0.41, 0.9, 0.4, 0.0, //
        0.4, 0.41, 1.0, 0.0, 0.4, 0.42, //
        0.8, 0.9, 0.0, 1.0, 0.8, 0.8, //
        0.8, 0.4, 0.4, 0.8, 1.0, 0.8, //
        0.4, 0.0, 0.42, 0.8, 0.8, 1.0,
    ];
    let s = SymmetricMatrix::from_rows(6, rows);
    let d = s.map(|p| (2.0 * (1.0 - p)).sqrt());
    let truth = vec![0usize, 0, 0, 1, 1, 1];
    println!("# Appendix example (Figure 12/13)");
    for prefix in [1usize, 3] {
        let config = TmfgConfig::with_prefix(prefix).simultaneous();
        let t = tmfg(&s, config).expect("valid matrix");
        println!("\nPREFIX = {prefix}:");
        println!("  initial clique: {:?}", t.initial_clique);
        for ins in &t.insertions {
            println!(
                "  round {}: insert {} into {} (gain {:.2})",
                ins.round, ins.vertex, ins.face, ins.gain
            );
        }
        let result = ParTdbht::new(config).run(&s, &d).expect("valid matrix");
        let labels = result.clusters(2);
        println!(
            "  2-cluster cut: {:?}  ARI vs {{0,1,2}}/{{3,4,5}} = {:.3}",
            labels,
            adjusted_rand_index(&truth, &labels)
        );
    }
}
