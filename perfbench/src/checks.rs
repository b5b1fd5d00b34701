//! The checks every pipeline run must pass. A run with any problem is a
//! failed run, counted against the runs attempted.

use pfg_core::Dendrogram;

use crate::workload::Output;

/// Everything wrong with one run's output on `n` objects. `reference` is
/// the dendrogram the run must reproduce exactly, with what it came from.
pub fn problems(n: usize, out: &Output, reference: Option<(&str, &Dendrogram)>) -> Vec<String> {
    let d = &out.dendrogram;
    let mut found = Vec::new();
    if d.num_leaves() != n {
        found.push(format!("{} leaves, expected {n}", d.num_leaves()));
    }
    if d.len() + 1 != 2 * n || d.root().is_none() {
        found.push(format!(
            "{} dendrogram nodes, expected {}",
            d.len(),
            2 * n - 1
        ));
    }
    if !d.is_monotone() {
        found.push("merge heights are not monotone".to_string());
    }
    if out.edges + 6 != 3 * n {
        found.push(format!("{} graph edges, expected 3n - 6", out.edges));
    }
    if let Some((what, expected)) = reference {
        if d != expected {
            found.push(format!("dendrogram differs from {what}"));
        }
    }
    found
}

/// Runs attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Audit {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Audit {
    /// Counts one run; it failed if `problems` is not empty.
    pub fn record(&mut self, run: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors
                .extend(problems.into_iter().map(|p| format!("{run}: {p}")));
        }
    }
}
