//! A synthetic US-stock-market generator for the §VII "Clustering Stocks"
//! experiment (Figures 10 and 11).
//!
//! The paper uses daily closing prices of 1614 US stocks (2013–2019) with
//! ICB industry labels and Yahoo-Finance market caps. We replace that data
//! with a standard multi-factor return model: every stock's daily return is
//! a mix of a market factor, its sector factor, and idiosyncratic noise.
//! This produces exactly the block-plus-market correlation structure that
//! makes the DBHT clusters align with sectors, and log-normal market caps
//! whose sector medians are comparable (Figure 11(a)) while "small caps are
//! noisier" can be modelled through the idiosyncratic volatility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 11 ICB-style sectors used by the paper (Table III).
pub const SECTORS: [&str; 11] = [
    "TECHNOLOGY",
    "INDUSTRIALS",
    "FINANCIALS",
    "HEALTH CARE",
    "CONSUMER DISCRETIONARY",
    "REAL ESTATE",
    "UTILITIES",
    "CONSUMER STAPLES",
    "BASIC MATERIALS",
    "ENERGY",
    "TELECOMMUNICATIONS",
];

/// Configuration of the market simulator.
#[derive(Debug, Clone)]
pub struct StockMarketConfig {
    /// Number of stocks (the paper uses 1614).
    pub num_stocks: usize,
    /// Number of trading days (the paper uses 1761).
    pub num_days: usize,
    /// Strength of the common market factor in every return.
    pub market_beta: f64,
    /// Strength of the sector factor.
    pub sector_beta: f64,
    /// Idiosyncratic volatility for large-cap stocks; small caps receive up
    /// to twice this value, which is what makes low-cap clusters noisier
    /// (Figure 11(b)).
    pub idiosyncratic_vol: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StockMarketConfig {
    fn default() -> Self {
        Self {
            num_stocks: 400,
            num_days: 500,
            market_beta: 0.4,
            sector_beta: 0.8,
            idiosyncratic_vol: 0.9,
            seed: 2013,
        }
    }
}

/// A simulated stock market: daily returns, sector labels and market caps.
#[derive(Debug, Clone)]
pub struct StockMarket {
    /// Ticker names (synthetic, `S0001`, `S0002`, …).
    pub tickers: Vec<String>,
    /// Sector index (into [`SECTORS`]) per stock — the ground truth used for
    /// the ARI computation of the stock experiment.
    pub sector: Vec<usize>,
    /// Daily log-returns per stock.
    pub returns: Vec<Vec<f64>>,
    /// Market capitalisation per stock (log-normal).
    pub market_cap: Vec<f64>,
}

impl StockMarket {
    /// Simulates a market with the given configuration.
    pub fn generate(config: &StockMarketConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let num_sectors = SECTORS.len();
        let gaussian = |rng: &mut StdRng| -> f64 {
            // Sum of uniforms (Irwin–Hall) as a light-weight normal sample.
            (0..6).map(|_| rng.gen_range(-1.0_f64..1.0)).sum::<f64>() / 6.0_f64.sqrt() * 1.73
        };

        // Common market factor and per-sector factors per day.
        let market: Vec<f64> = (0..config.num_days).map(|_| gaussian(&mut rng)).collect();
        let sector_factors: Vec<Vec<f64>> = (0..num_sectors)
            .map(|_| (0..config.num_days).map(|_| gaussian(&mut rng)).collect())
            .collect();

        let mut tickers = Vec::with_capacity(config.num_stocks);
        let mut sector = Vec::with_capacity(config.num_stocks);
        let mut returns = Vec::with_capacity(config.num_stocks);
        let mut market_cap = Vec::with_capacity(config.num_stocks);
        for i in 0..config.num_stocks {
            let s = i % num_sectors;
            tickers.push(format!("S{:04}", i + 1));
            sector.push(s);
            // Log-normal market cap: medians comparable across sectors
            // (Figure 11(a)), heavy right tail.
            let cap = (9.0 + 2.0 * gaussian(&mut rng)).exp() * 1.0e3;
            // Small caps get a larger idiosyncratic volatility.
            let size_percentile = ((cap.ln() - 9.0 - (1.0e3_f64).ln()) / 4.0).clamp(-1.0, 1.0);
            let idio = config.idiosyncratic_vol * (1.5 - 0.5 * size_percentile);
            let beta_m = config.market_beta * rng.gen_range(0.7..1.3);
            let beta_s = config.sector_beta * rng.gen_range(0.7..1.3);
            let series: Vec<f64> = (0..config.num_days)
                .map(|t| {
                    beta_m * market[t] + beta_s * sector_factors[s][t] + idio * gaussian(&mut rng)
                })
                .collect();
            returns.push(series);
            market_cap.push(cap);
        }
        Self {
            tickers,
            sector,
            returns,
            market_cap,
        }
    }

    /// Number of stocks.
    pub fn len(&self) -> usize {
        self.tickers.len()
    }

    /// True if the market has no stocks.
    pub fn is_empty(&self) -> bool {
        self.tickers.is_empty()
    }

    /// Detrended log-returns following Musmeci et al.: subtract the
    /// cross-sectional market average from each day's return, then
    /// z-normalise each stock's series. This removes the common market mode
    /// so the correlation matrix exposes the sector structure.
    pub fn detrended_returns(&self) -> Vec<Vec<f64>> {
        let num_days = self.returns.first().map_or(0, |r| r.len());
        let n = self.len();
        let mut daily_mean = vec![0.0; num_days];
        for series in &self.returns {
            for (t, &r) in series.iter().enumerate() {
                daily_mean[t] += r / n as f64;
            }
        }
        self.returns
            .iter()
            .map(|series| {
                let detrended: Vec<f64> = series
                    .iter()
                    .enumerate()
                    .map(|(t, &r)| r - daily_mean[t])
                    .collect();
                let mean = detrended.iter().sum::<f64>() / num_days.max(1) as f64;
                let var = detrended.iter().map(|&x| (x - mean).powi(2)).sum::<f64>()
                    / num_days.max(1) as f64;
                let std = var.sqrt().max(1e-12);
                detrended.into_iter().map(|x| (x - mean) / std).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::correlation_matrix;

    #[test]
    fn generation_dimensions() {
        let config = StockMarketConfig {
            num_stocks: 55,
            num_days: 120,
            ..StockMarketConfig::default()
        };
        let market = StockMarket::generate(&config);
        assert_eq!(market.len(), 55);
        assert!(!market.is_empty());
        assert!(market.returns.iter().all(|r| r.len() == 120));
        assert_eq!(market.market_cap.len(), 55);
        assert_eq!(market.tickers.len(), 55);
        assert!(market.sector.iter().all(|&s| s < SECTORS.len()));
    }

    #[test]
    fn generation_is_deterministic() {
        let config = StockMarketConfig::default();
        let a = StockMarket::generate(&config);
        let b = StockMarket::generate(&config);
        assert_eq!(a.returns, b.returns);
        assert_eq!(a.market_cap, b.market_cap);
    }

    #[test]
    fn detrending_removes_market_mode() {
        let config = StockMarketConfig {
            num_stocks: 66,
            num_days: 250,
            ..StockMarketConfig::default()
        };
        let market = StockMarket::generate(&config);
        let raw_corr = correlation_matrix(&market.returns);
        let detrended = market.detrended_returns();
        let det_corr = correlation_matrix(&detrended);
        // Average cross-sector correlation should drop after detrending.
        let mut raw_cross = Vec::new();
        let mut det_cross = Vec::new();
        for i in 0..market.len() {
            for j in (i + 1)..market.len() {
                if market.sector[i] != market.sector[j] {
                    raw_cross.push(raw_corr.get(i, j));
                    det_cross.push(det_corr.get(i, j));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&det_cross) < mean(&raw_cross));
    }

    #[test]
    fn same_sector_stocks_correlate_more() {
        let config = StockMarketConfig {
            num_stocks: 110,
            num_days: 400,
            ..StockMarketConfig::default()
        };
        let market = StockMarket::generate(&config);
        let corr = correlation_matrix(&market.detrended_returns());
        let mut within = Vec::new();
        let mut across = Vec::new();
        for i in 0..market.len() {
            for j in (i + 1)..market.len() {
                if market.sector[i] == market.sector[j] {
                    within.push(corr.get(i, j));
                } else {
                    across.push(corr.get(i, j));
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&within) > mean(&across) + 0.1,
            "within {} across {}",
            mean(&within),
            mean(&across)
        );
    }

    #[test]
    fn market_caps_are_positive_and_spread_out() {
        let market = StockMarket::generate(&StockMarketConfig::default());
        assert!(market.market_cap.iter().all(|&c| c > 0.0));
        let max = market.market_cap.iter().cloned().fold(f64::MIN, f64::max);
        let min = market.market_cap.iter().cloned().fold(f64::MAX, f64::min);
        // Log-normal caps span multiple orders of magnitude.
        assert!(max / min > 100.0);
    }

    #[test]
    fn sector_names_resolve() {
        let market = StockMarket::generate(&StockMarketConfig {
            num_stocks: 12,
            num_days: 30,
            ..StockMarketConfig::default()
        });
        assert_eq!(SECTORS[market.sector[0]], "TECHNOLOGY");
        assert_eq!(SECTORS[market.sector[11]], "TECHNOLOGY");
        assert_eq!(SECTORS[market.sector[1]], "INDUSTRIALS");
    }
}
