//! Figure 10: clustering of the (simulated) US stock market with
//! PAR-TDBHT (prefix 30) compared against the ICB-style sector labels —
//! the stacked sector-composition counts per cluster.
//!
//! Usage: `cargo run --release -p pfg_bench --bin fig10_stocks [num_stocks] [num_days]`

use pfg_baselines::{spectral_embedding, SpectralConfig};
use pfg_bench::Record;
use pfg_core::ParTdbht;
use pfg_data::{correlation_and_dissimilarity, StockMarket, StockMarketConfig, SECTORS};
use pfg_metrics::adjusted_rand_index;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num_stocks = args
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(400usize);
    let num_days = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(500usize);
    let market = StockMarket::generate(&StockMarketConfig {
        num_stocks,
        num_days,
        ..StockMarketConfig::default()
    });
    println!(
        "# Figure 10: PAR-TDBHT-30 clusters vs sectors ({} stocks, {} days)",
        market.len(),
        num_days
    );

    // Preprocessing as in §VII: detrended log-returns → spectral embedding →
    // Pearson correlation of the embedded data.
    let detrended = market.detrended_returns();
    let embedded = spectral_embedding(
        &detrended,
        &SpectralConfig {
            neighbors: (market.len() / 16).clamp(5, 100),
            dimensions: SECTORS.len(),
            iterations: 150,
            seed: 13,
        },
    );
    let (correlation, dissimilarity, _kernel) = correlation_and_dissimilarity(&embedded);

    let start = std::time::Instant::now();
    let result = ParTdbht::with_prefix(30)
        .run(&correlation, &dissimilarity)
        .expect("valid matrices");
    let elapsed = start.elapsed();
    let clusters = result.clusters(SECTORS.len());
    let ari = adjusted_rand_index(&market.sector, &clusters);
    // The exact-TMFG variant, for the paper's "better than the original
    // TMFG algorithm" comparison (ARI 0.36 vs 0.28 in the paper).
    let exact = ParTdbht::with_prefix(1)
        .run(&correlation, &dissimilarity)
        .expect("valid matrices");
    let exact_ari = adjusted_rand_index(&market.sector, &exact.clusters(SECTORS.len()));
    println!("PAR-TDBHT-30 ARI = {ari:.3} ({elapsed:?}); exact-TMFG ARI = {exact_ari:.3}");

    let num_clusters = clusters.iter().copied().max().unwrap_or(0) + 1;
    println!("\ncluster composition (rows = clusters, columns = sectors):");
    print!("{:>8}", "cluster");
    for sector in SECTORS {
        print!(" {:>4}", &sector[..3.min(sector.len())]);
    }
    println!(" total");
    for c in 0..num_clusters {
        print!("{c:>8}");
        let mut total = 0;
        for s in 0..SECTORS.len() {
            let count = (0..market.len())
                .filter(|&i| clusters[i] == c && market.sector[i] == s)
                .count();
            total += count;
            print!(" {count:>4}");
        }
        println!(" {total:>5}");
    }
    Record {
        experiment: "fig10".into(),
        dataset: format!("stock-market-{num_stocks}"),
        method: "PAR-TDBHT-30".into(),
        params: format!("days={num_days}"),
        seconds: elapsed.as_secs_f64(),
        ari: Some(ari),
        value: Some(exact_ari),
    }
    .emit();
}
