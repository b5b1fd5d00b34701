//! The repository's benchmark: four seeded workloads through the public
//! pipeline entry points (end-to-end metrics), and a traced run that calls
//! each layer in the pipeline's order (per-layer metrics). See
//! `perfbench/README.md` for the metrics, the layer map and the seed
//! procedure.

pub mod checks;
pub mod host;
pub mod run;
pub mod speed;
pub mod trace;
pub mod workload;

pub use run::{run, Options, Outcome};
pub use workload::Workload;
