//! The shadow-write audit, driven end to end. Built only under
//! `RUSTFLAGS="--cfg pfg_racecheck"`; in ordinary builds this file
//! compiles to nothing (and the audit types themselves are zero-sized —
//! asserted by `pfg_audit`'s `zero_sized_when_disabled` test).
//!
//! Two halves:
//!
//! * **Violations are caught and name both sites.** A seeded overlap /
//!   double write must panic with a message carrying the label and the
//!   `file:line` of *both* conflicting claims — that is the property that
//!   makes a violation debuggable rather than a mystery corruption.
//! * **The real kernels are clean.** The audited production paths — the
//!   tiled correlation kernel and the parallel merge sort — run under the
//!   registry (and a chaos-seeded pool) without tripping it.
#![cfg(pfg_racecheck)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use pfg_primitives::DisjointWriteAudit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// Runs `f`, which must panic, and returns the panic payload as text.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a racecheck panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is text")
}

#[test]
fn overlapping_range_claims_panic_with_both_sites() {
    let audit = DisjointWriteAudit::ranges("racecheck-suite ranges");
    let _live = audit.claim_range(0, 100);
    let msg = panic_message(|| {
        let _overlap = audit.claim_range(50, 150);
    });
    assert!(
        msg.contains("racecheck-suite ranges"),
        "label missing: {msg}"
    );
    assert!(msg.contains("[50, 150)"), "offender range missing: {msg}");
    assert!(msg.contains("[0, 100)"), "live range missing: {msg}");
    // Both claim sites (this file, two distinct lines) are named.
    assert_eq!(
        msg.matches("racecheck.rs").count(),
        2,
        "expected both claim sites in: {msg}"
    );
}

#[test]
fn released_range_can_be_reclaimed() {
    let audit = DisjointWriteAudit::ranges("racecheck-suite reuse");
    {
        let _live = audit.claim_range(0, 64);
    }
    // The RAII release makes temporally nested ownership legal.
    let _again = audit.claim_range(0, 64);
}

#[test]
fn double_cell_write_panics_with_both_sites() {
    let audit = DisjointWriteAudit::cells("racecheck-suite cells", 16);
    audit.write_once(7);
    let msg = panic_message(|| audit.write_once(7));
    assert!(
        msg.contains("racecheck-suite cells"),
        "label missing: {msg}"
    );
    assert!(msg.contains("cell 7"), "cell index missing: {msg}");
    assert_eq!(
        msg.matches("racecheck.rs").count(),
        2,
        "expected both claim sites in: {msg}"
    );
}

#[test]
fn audited_kernels_run_clean_under_chaos() {
    // The production disjoint-write paths, all at once, on a chaos-seeded
    // pool: any unsound decomposition has to trip the registry here.
    let pool = ThreadPoolBuilder::new()
        .num_threads(4)
        .chaos_seed(0xC0FFEE)
        .build()
        .expect("pool builds");
    // 301 series are three tiles at the default 128, so several tasks
    // write each matrix; 301 is 1 mod 4 and 5 mod 8, so the last tile
    // ends in a partial row block and a partial panel.
    let mut rng = StdRng::seed_from_u64(17);
    let series: Vec<Vec<f64>> = (0..301)
        .map(|_| (0..80).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
        .collect();
    pool.install(|| {
        use pfg_data::correlation::{
            correlation_and_dissimilarity, correlation_matrix_f32, correlation_matrix_with,
            TileConfig,
        };
        let (corr, diss, stats) = correlation_and_dissimilarity(&series);
        assert_eq!(corr.n(), 301);
        assert_eq!(diss.n(), 301);
        assert_eq!(stats.tiles_computed, 6);
        let (corr64, _) = correlation_matrix_with(&series, TileConfig::default());
        assert_eq!(corr64.as_slice(), corr.as_slice());
        let (corr32, _) = correlation_matrix_f32(&series, TileConfig::default());
        assert_eq!(corr32.n(), 301);

        let mut v: Vec<f64> = (0..30_000)
            .map(|i| ((i * 37) % 1000) as f64 * 0.5)
            .collect();
        v.par_sort_by(|a, b| a.total_cmp(b));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    });
}
