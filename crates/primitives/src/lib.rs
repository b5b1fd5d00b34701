//! Shared low-level pieces of the parallel filtered-graph algorithms.
//!
//! * [`par_sort_unstable_by`] — the parallel comparison sort of Table I of
//!   *Parallel Filtered Graphs for Hierarchical Clustering* (Yu & Shun,
//!   ICDE 2023), which sorts the PMFG's candidate edges. It runs on
//!   rayon's fork–join API: under the offline shim a persistent worker
//!   pool, with registry rayon the randomized work-stealing scheduler.
//! * [`allow`] — the line discipline of the checked-in allow files
//!   (`lint.allow`, `bench.allow`).
//! * Re-exports of the disjoint-write audit types from `pfg_audit`.
//!
//! Table I's other primitives have no helper here. The pipeline's
//! filters, maxima and sums are plain rayon adapters at their call sites,
//! and its priority concurrent writes (`WRITE_MAX`, `WRITE_ADD`) are
//! per-vertex or per-bubble pulls with a fixed operand order (see
//! `pfg_core::dbht::assignment` and `pfg_core::dbht::direction`), so no
//! result depends on thread scheduling.

pub mod allow;
pub mod par;

pub use allow::{AllowEntry, AllowFile};
pub use par::par_sort_unstable_by;

/// Re-export of the shadow-write audit crate: [`SendPtr`] is the one
/// shared raw-pointer wrapper for disjoint-write parallel kernels, and
/// [`DisjointWriteAudit`] is the registry those kernels declare their
/// claimed ranges/cells to (checked under `--cfg pfg_racecheck`, zero-cost
/// otherwise). The types live in the dependency-free `pfg_audit` crate so
/// the rayon shim can use them too (this crate depends on the shim, so
/// they cannot be defined here), but downstream crates should reach them
/// through this re-export.
pub use pfg_audit::{DisjointWriteAudit, RangeClaim, SendPtr};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_reexports() {
        let mut v = vec![3_i64, 1, 4, 1, 5];
        par_sort_unstable_by(&mut v, |a, b| b.cmp(a));
        assert_eq!(v, vec![5, 4, 3, 1, 1]);
        let allow = AllowFile::parse_prefixes("primitives/sort\n");
        assert!(allow.allows(None, "primitives/sort/100000"));
        let mut out = [0_u32; 2];
        let ptr = SendPtr::new(out.as_mut_ptr());
        assert_eq!(ptr.get(), out.as_mut_ptr());
    }
}
