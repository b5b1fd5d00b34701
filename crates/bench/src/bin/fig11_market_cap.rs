//! Figure 11: market-cap distribution per sector (a) and per PAR-TDBHT
//! cluster (b) on the simulated stock market. The paper's observation is
//! that sector medians are comparable while the "mixed" clusters skew
//! towards smaller caps.
//!
//! Usage: `cargo run --release -p pfg_bench --bin fig11_market_cap [num_stocks] [num_days]`

use pfg_baselines::{spectral_embedding, SpectralConfig};
use pfg_core::ParTdbht;
use pfg_data::{correlation_and_dissimilarity, StockMarket, StockMarketConfig, SECTORS};

fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let q = |f: f64| values[((values.len() - 1) as f64 * f) as usize];
    (q(0.25), q(0.5), q(0.75))
}

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
        "# Figure 11: market-cap distributions ({} stocks)",
        market.len()
    );

    println!("\n(a) per sector: 25% / median / 75% market cap");
    for (s, sector) in SECTORS.iter().enumerate() {
        let mut caps: Vec<f64> = (0..market.len())
            .filter(|&i| market.sector[i] == s)
            .map(|i| market.market_cap[i])
            .collect();
        if caps.is_empty() {
            continue;
        }
        let (q1, q2, q3) = quartiles(&mut caps);
        println!("{sector:<26} {q1:>14.0} {q2:>14.0} {q3:>14.0}");
    }

    // Cluster the market exactly as the fig10 harness does.
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
    let result = ParTdbht::with_prefix(30)
        .run(&correlation, &dissimilarity)
        .expect("valid matrices");
    let clusters = result.clusters(SECTORS.len());
    let num_clusters = clusters.iter().copied().max().unwrap_or(0) + 1;

    println!("\n(b) per PAR-TDBHT cluster: 25% / median / 75% market cap");
    for c in 0..num_clusters {
        let mut caps: Vec<f64> = (0..market.len())
            .filter(|&i| clusters[i] == c)
            .map(|i| market.market_cap[i])
            .collect();
        if caps.is_empty() {
            continue;
        }
        let (q1, q2, q3) = quartiles(&mut caps);
        println!("cluster {c:<18} {q1:>14.0} {q2:>14.0} {q3:>14.0}");
    }
}
