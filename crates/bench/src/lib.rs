//! Shared harness utilities for the experiment binaries that regenerate the
//! paper's tables and figures (README, "Reproducing the paper's figures and
//! tables", has the experiment index).
//!
//! Each binary in `src/bin/` reproduces one table or figure; this library
//! provides the pieces they share: building the UCR-like data-set suite at
//! a configurable scale, running every clustering method under a common
//! interface, timing, and tabular/JSON output.

pub mod methods;
pub mod records;
pub mod suite;

pub use methods::{pmfg_summary, run_method, Method, MethodOutput};
pub use suite::{build_suite, parse_scale_from_args, BenchDataset, SuiteConfig};

use std::time::Duration;

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A serialisable experiment record dumped by the harnesses, one JSON line
/// per result, so outputs can be concatenated and grepped (README,
/// "Reproducing the paper's figures and tables").
#[derive(Debug, Clone)]
pub struct Record {
    /// Experiment id (e.g. "fig6").
    pub experiment: String,
    /// Data-set name.
    pub dataset: String,
    /// Method name (e.g. "PAR-TDBHT-10").
    pub method: String,
    /// Free-form parameter description (e.g. "prefix=10").
    pub params: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Adjusted Rand Index against ground truth, if measured.
    pub ari: Option<f64>,
    /// Additional metric value (e.g. edge-sum ratio or speedup).
    pub value: Option<f64>,
}

impl Record {
    /// Prints the record as a single JSON line (one record per line so the
    /// output of every harness can be concatenated and grepped).
    ///
    /// The JSON is written by hand — the offline build has no `serde` — and
    /// the field set is flat strings/numbers, so escaping string values is
    /// all that is needed.
    pub fn emit(&self) {
        println!("{}", self.to_json());
    }

    /// The record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        use crate::records::json_string as json_str;
        fn json_f64(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                // JSON has no Infinity/NaN literals; null keeps lines parseable.
                "null".to_string()
            }
        }
        fn json_opt(x: Option<f64>) -> String {
            x.map_or_else(|| "null".to_string(), json_f64)
        }
        format!(
            "{{\"experiment\":{},\"dataset\":{},\"method\":{},\"params\":{},\"seconds\":{},\"ari\":{},\"value\":{}}}",
            json_str(&self.experiment),
            json_str(&self.dataset),
            json_str(&self.method),
            json_str(&self.params),
            json_f64(self.seconds),
            json_opt(self.ari),
            json_opt(self.value),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::Record;

    #[test]
    fn record_emits_valid_json_line() {
        let record = Record {
            experiment: "fig6".to_string(),
            dataset: "ucr\"1\"".to_string(),
            method: "PAR-TDBHT-10".to_string(),
            params: "prefix=10".to_string(),
            seconds: 1.25,
            ari: Some(0.5),
            value: None,
        };
        assert_eq!(
            record.to_json(),
            "{\"experiment\":\"fig6\",\"dataset\":\"ucr\\\"1\\\"\",\"method\":\"PAR-TDBHT-10\",\
             \"params\":\"prefix=10\",\"seconds\":1.25,\"ari\":0.5,\"value\":null}"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let record = Record {
            experiment: String::new(),
            dataset: String::new(),
            method: String::new(),
            params: String::new(),
            seconds: f64::NAN,
            ari: Some(f64::INFINITY),
            value: Some(2.0),
        };
        let json = record.to_json();
        assert!(json.contains("\"seconds\":null"));
        assert!(json.contains("\"ari\":null"));
        assert!(json.contains("\"value\":2"));
    }
}
