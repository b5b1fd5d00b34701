//! Offline stand-in for the `rayon` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this shim provides the *subset* of the rayon 1.x API that the workspace
//! actually uses. Since PR 4 it is built on a **work-stealing executor**
//! with **lazy, fused adapters**:
//!
//! * `pool` (internal) — per-worker deques (push/pop local, steal remote)
//!   plus a shared injector for non-worker callers. A parallel operation
//!   is split by recursive halving into pieces whose boundaries depend on
//!   the input length **only**; halves are published as stealable jobs and
//!   reclaimed inline when nobody steals them, so granularity adapts to
//!   load while `fold`/`collect` results stay byte-for-byte identical
//!   across multi-threaded worker counts and steals. Worker panics are
//!   caught and
//!   re-raised on the caller, and the workers survive.
//!   `RAYON_NUM_THREADS` pins the global worker count (as in real rayon).
//! * [`join`] — the rayon fork–join primitive. `join(a, b)` publishes `b`
//!   as a stealable job, runs `a`, and either pops `b` back (one deque
//!   push/pop, no synchronisation) or helps — steals other jobs — until
//!   the thief finishes. Waiting threads never block while work exists,
//!   which keeps arbitrarily nested `join`s deadlock-free.
//! * [`iter`] — rayon-style lazy adapters. `map`/`filter`/`filter_map`/
//!   `enumerate`/`zip`/`cloned`/`copied`/`fold`/`with_max_len` fuse into
//!   a single parallel pass executed when a terminal operation
//!   (`collect`, `for_each`, `reduce`, `sum`, `min`/`max`(`_by_key`),
//!   `count`) runs — a chain of k adapters costs one split tree and no
//!   intermediate allocations.
//! * `sort` (internal) — a buffer-based parallel merge sort behind
//!   [`ParallelSliceMut::par_sort_by`] / `par_sort_unstable_by`: std
//!   stable run sorts at the leaves, `join`-recursive merges that split
//!   the larger run at its midpoint and binary-search the partner, moving
//!   elements through one scratch buffer. Requires only `T: Send`, like
//!   real rayon (an earlier index-merge sort needed `T: Sync` as well).
//!   Taken only when both the pool and the hardware offer parallelism
//!   (oversubscription cannot win at sorting); otherwise the std stable
//!   sort runs. Both sorts are stable on both paths, so they return the
//!   same permutation either way.
//!
//! Observable semantics match rayon for the operations the algorithms rely
//! on: `collect` preserves input order, `fold`/`reduce` see one
//! accumulator per contiguous piece combined left to right, `par_sort_by`
//! is stable — and every one of those results is deterministic across
//! runs *and* across all worker counts, one included (stealing may
//! reorder execution, never results). A single-threaded pool walks the
//! same length-determined piece tree inline, so float reductions group
//! identically at every thread count.
//!
//! Supported surface:
//!
//! * [`prelude`] — [`IntoParallelIterator`], [`IntoParallelRefIterator`]
//!   (`par_iter`), [`ParallelIterator`], [`IndexedParallelIterator`],
//!   [`ParallelSliceMut`] (`par_sort_by`, `par_sort_unstable_by`,
//!   `par_chunks_mut`);
//! * [`join`];
//! * [`ThreadPoolBuilder`] / [`ThreadPool`] — `num_threads`, `build`,
//!   `install` (scopes all parallel work of the closure — including
//!   nested work on the pool's own workers — onto a caller-owned pool);
//! * [`current_num_threads`].
//!
//! When the swap to the real crates-io rayon happens, delete this crate and
//! point the `[workspace.dependencies]` entry at the registry version; no
//! downstream source changes should be needed.

use std::cmp::Ordering;
use std::fmt;

pub mod iter;
mod join;
mod pool;
pub mod protocol;
mod sort;

pub use join::join;

pub use iter::{
    IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
};

/// Number of worker threads parallel operations split across on the current
/// thread: the innermost [`ThreadPool::install`] pool's size if one is
/// active (or if running on one of its workers), otherwise the global
/// pool's size (`RAYON_NUM_THREADS` when set, else the machine's available
/// parallelism).
pub fn current_num_threads() -> usize {
    pool::effective_parallelism()
}

/// Parallel operations on mutable slices, mirroring
/// `rayon::slice::ParallelSliceMut`. `T: Send` is the only element bound,
/// as in real rayon (the PR 2 sort additionally required `T: Sync`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel stable sort by comparator.
    fn par_sort_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync;
    /// Parallel unstable sort by comparator. The shim sorts stably (one
    /// of the orders an unstable sort may return), so ties land in the
    /// same order at every worker count.
    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync;
    /// Parallel iterator over non-overlapping mutable chunks of
    /// `chunk_size` elements (the last chunk may be shorter), in order.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero, as in real rayon.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> iter::ChunksMutSource<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        sort::par_merge_sort_by(self, &cmp);
    }

    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        sort::par_merge_sort_by(self, &cmp);
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> iter::ChunksMutSource<'_, T> {
        iter::ChunksMutSource::new(self, chunk_size)
    }
}

/// The traits needed for `.par_iter()`, `.into_par_iter()`, the adapter
/// methods and `.par_sort_by(...)` method syntax.
pub mod prelude {
    pub use crate::iter::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
    pub use crate::ParallelSliceMut;
}

/// Error returned by [`ThreadPoolBuilder::build`]. The shim cannot actually
/// fail to build a pool, so this is never constructed, but the type keeps
/// `Result`-based call sites source-compatible with real rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
    chaos_seed: Option<u64>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count. `0` means "use the default" (the
    /// `RAYON_NUM_THREADS` override or the available parallelism), as in
    /// real rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Enables steal-order chaos mode (shim extension, not in real rayon):
    /// every steal scan rotates/reverses its victim order and sometimes
    /// yields at the steal point, driven by a splitmix64 stream over
    /// `(seed, draw index)`. Used by the concurrency-audit suites to
    /// stress many schedules while asserting results stay byte-identical;
    /// the global pool takes its seed from `PFG_CHAOS_SEED` instead.
    pub fn chaos_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }

    /// Builds the pool, spawning its workers. Infallible in the shim, but
    /// kept `Result`-typed for source compatibility.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => pool::global_size(),
            Some(n) => n,
        };
        let (state, workers) = pool::PoolState::spawn(n, self.chaos_seed);
        Ok(ThreadPool { state, workers })
    }
}

/// A caller-owned pool of persistent workers, mirroring `rayon::ThreadPool`.
///
/// Workers are spawned by [`ThreadPoolBuilder::build`], park on the pool's
/// condvar while idle, and are joined when the pool is dropped.
pub struct ThreadPool {
    state: std::sync::Arc<pool::PoolState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.state.num_threads)
            .finish()
    }
}

impl ThreadPool {
    /// Runs `op` with this pool as the dispatch target: every parallel
    /// operation started by `op` on this thread (and nested operations on
    /// this pool's workers) executes on this pool's workers, with the
    /// calling thread helping. The previous dispatch target is restored
    /// when `op` returns, even by unwinding.
    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        pool::with_pool(&self.state, op)
    }

    /// This pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.state.num_threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.state.shut_down();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a task (a shim bug, not a user
            // panic — those are caught) surfaces here at the latest.
            worker.join().expect("rayon-shim worker exited cleanly");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    /// A pool large enough to exercise real parallelism even on the
    /// single-core CI machine (oversubscription is fine for correctness
    /// tests).
    fn test_pool() -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(4).build().unwrap()
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = test_pool().install(|| v.par_iter().map(|&x| x * 2).collect());
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chaos_pools_keep_results_byte_identical() {
        // The chaos mode may only perturb *scheduling*: decomposition is a
        // function of input length alone, so a float fold — the most
        // order-sensitive primitive — must come out bitwise equal to the
        // undisturbed pool's result under every seed.
        let v: Vec<f64> = (0..30_000).map(|i| (i as f64 * 0.1).sin()).collect();
        let sum_under = |pool: ThreadPool| {
            pool.install(|| {
                v.par_iter()
                    .map(|&x| x * 1.000001 + 0.5)
                    .fold(|| 0.0f64, |acc, x| acc + x)
                    .reduce(|| 0.0f64, |a, b| a + b)
            })
        };
        let reference = sum_under(test_pool());
        for seed in [1u64, 2, 3, 0xDEAD_BEEF] {
            let chaotic = ThreadPoolBuilder::new()
                .num_threads(4)
                .chaos_seed(seed)
                .build()
                .unwrap();
            assert_eq!(
                sum_under(chaotic).to_bits(),
                reference.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn adapter_chain_fuses_and_preserves_order() {
        let v: Vec<usize> = (0..20_000).collect();
        let got: Vec<(usize, usize)> = test_pool().install(|| {
            v.par_iter()
                .copied()
                .filter(|&x| x % 3 == 0)
                .map(|x| (x, x * x))
                .collect()
        });
        let expected: Vec<(usize, usize)> = (0..20_000)
            .filter(|&x| x % 3 == 0)
            .map(|x| (x, x * x))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn filter_preserves_order() {
        let v: Vec<usize> = (0..5_000).collect();
        let kept: Vec<usize> =
            test_pool().install(|| v.into_par_iter().filter(|&x| x % 3 == 0).collect());
        assert_eq!(kept, (0..5_000).filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_matches_sequential() {
        let got: Vec<usize> = test_pool().install(|| {
            (0..30_000usize)
                .into_par_iter()
                .filter_map(|x| (x % 7 == 0).then_some(x / 7))
                .collect()
        });
        let expected: Vec<usize> = (0..30_000)
            .filter_map(|x| (x % 7 == 0).then_some(x / 7))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn fold_reduce_matches_sequential_sum() {
        let v: Vec<u64> = (0..100_000).collect();
        let total = test_pool().install(|| {
            v.par_iter()
                .fold(|| 0u64, |acc, &x| acc + x)
                .reduce(|| 0, |a, b| a + b)
        });
        assert_eq!(total, (0..100_000u64).sum());
    }

    #[test]
    fn sum_and_zip() {
        let a: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..10_000).map(|i| (i * 2) as f64).collect();
        let dot: f64 =
            test_pool().install(|| a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum());
        let expected: f64 = (0..10_000).map(|i| (i * i * 2) as f64).sum();
        assert!((dot - expected).abs() < 1e-6);
    }

    #[test]
    fn zip_truncates_to_shorter_side() {
        let a: Vec<u32> = (0..10_000).collect();
        let b: Vec<u32> = (0..7_531).collect();
        let pairs: Vec<(u32, u32)> =
            test_pool().install(|| a.par_iter().copied().zip(b.par_iter().copied()).collect());
        assert_eq!(pairs.len(), 7_531);
        assert!(pairs.iter().all(|&(x, y)| x == y));
    }

    #[test]
    fn enumerate_yields_global_indices() {
        let v: Vec<u32> = (0..25_000).map(|i| i * 3).collect();
        let ok = test_pool().install(|| {
            v.par_iter()
                .enumerate()
                .map(|(i, &x)| x as usize == i * 3)
                .fold(|| true, |a, b| a && b)
                .reduce(|| true, |a, b| a && b)
        });
        assert!(ok);
    }

    #[test]
    fn min_max_and_keyed_variants() {
        let v: Vec<i64> = (0..40_000).map(|i| (i * 48_271) % 65_537).collect();
        let pool = test_pool();
        assert_eq!(
            pool.install(|| v.par_iter().copied().min()),
            v.iter().copied().min()
        );
        assert_eq!(
            pool.install(|| v.par_iter().copied().max()),
            v.iter().copied().max()
        );
        assert_eq!(
            pool.install(|| v.par_iter().max_by_key(|&&x| x)),
            v.iter().max_by_key(|&&x| x)
        );
        assert_eq!(
            pool.install(|| v.par_iter().min_by_key(|&&x| x)),
            v.iter().min_by_key(|&&x| x)
        );
        assert_eq!(
            pool.install(|| v.par_iter().filter(|&&x| x % 2 == 0).count()),
            v.iter().filter(|&&x| x % 2 == 0).count()
        );
    }

    #[test]
    fn empty_and_tiny_pipelines() {
        let empty: Vec<u64> = Vec::new();
        let collected: Vec<u64> = empty.par_iter().copied().collect();
        assert!(collected.is_empty());
        assert_eq!(empty.par_iter().copied().min(), None);
        assert_eq!(empty.par_iter().count(), 0);
        let one = [42u64];
        assert_eq!(one.par_iter().copied().sum::<u64>(), 42);
    }

    #[test]
    fn for_each_visits_every_element() {
        let counter = AtomicUsize::new(0);
        test_pool().install(|| {
            (0..20_000usize).into_par_iter().for_each(|_| {
                counter.fetch_add(1, AtomicOrdering::Relaxed);
            });
        });
        assert_eq!(counter.load(AtomicOrdering::Relaxed), 20_000);
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            assert_eq!(nested.install(current_num_threads), 2);
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn install_override_propagates_into_worker_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        // Large enough to force the parallel path.
        let observed: Vec<usize> = pool.install(|| {
            (0..10_000usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(observed.iter().all(|&t| t == 3), "workers saw {:?}", {
            let mut distinct = observed.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct
        });
    }

    #[test]
    fn install_restores_override_after_panic() {
        let outside = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("boom"))
        }));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn panic_in_worker_task_propagates_and_pool_survives() {
        let pool = test_pool();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..10_000usize).into_par_iter().for_each(|i| {
                    if i == 7_777 {
                        panic!("task panic");
                    }
                });
            })
        }));
        assert!(caught.is_err());
        // The pool keeps serving after a propagated panic.
        let sum: usize = pool.install(|| (0..10_000usize).into_par_iter().sum());
        assert_eq!(sum, (0..10_000).sum());
    }

    #[test]
    fn nested_parallelism_completes_and_matches_sequential() {
        let pool = test_pool();
        let totals: Vec<u64> = pool.install(|| {
            (0..4u64)
                .into_par_iter()
                .map(|block| {
                    (0..50_000u64)
                        .into_par_iter()
                        .map(|x| x + block)
                        .sum::<u64>()
                })
                .collect()
        });
        let expected: Vec<u64> = (0..4u64)
            .map(|block| (0..50_000u64).map(|x| x + block).sum())
            .collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn concurrent_installs_from_multiple_threads() {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    let pool = ThreadPoolBuilder::new().num_threads(t + 2).build().unwrap();
                    pool.install(|| {
                        assert_eq!(current_num_threads(), t + 2);
                        (0..60_000u64).into_par_iter().map(|x| x * 2).sum::<u64>()
                    })
                })
            })
            .collect();
        let expected: u64 = (0..60_000u64).map(|x| x * 2).sum();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), expected);
        }
    }

    #[test]
    fn par_sort_matches_std() {
        let mut v: Vec<i64> = (0..10_000).map(|i| (i * 7_919) % 1_000).collect();
        let mut expected = v.clone();
        expected.sort();
        test_pool().install(|| v.par_sort_by(|a, b| a.cmp(b)));
        assert_eq!(v, expected);
    }

    #[test]
    fn par_sort_unstable_matches_std_large() {
        let mut v: Vec<i64> = (0..50_000)
            .map(|i| (i * 2_654_435_761_i64) % 10_007)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        test_pool().install(|| v.par_sort_unstable_by(|a, b| a.cmp(b)));
        assert_eq!(v, expected);
    }

    #[test]
    fn par_sort_is_stable() {
        // Many duplicate keys; payloads record the original order.
        let mut v: Vec<(i64, usize)> = (0..30_000).map(|i| ((i as i64 * 31) % 10, i)).collect();
        test_pool().install(|| v.par_sort_by(|a, b| a.0.cmp(&b.0)));
        for pair in v.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "stability violated: {pair:?}");
            }
        }
    }

    #[test]
    fn par_sort_empty_and_single_element() {
        let mut empty: Vec<i64> = Vec::new();
        empty.par_sort_by(|a, b| a.cmp(b));
        assert!(empty.is_empty());
        empty.par_sort_unstable_by(|a, b| a.cmp(b));
        assert!(empty.is_empty());
        let mut one = vec![9i64];
        one.par_sort_by(|a, b| a.cmp(b));
        assert_eq!(one, vec![9]);
        one.par_sort_unstable_by(|a, b| a.cmp(b));
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn par_sort_propagates_comparator_panic() {
        let pool = test_pool();
        let mut v: Vec<i64> = (0..20_000).rev().collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                v.par_sort_unstable_by(|a, b| {
                    if *a == 13 && *b != 13 {
                        panic!("comparator panic");
                    }
                    a.cmp(b)
                })
            })
        }));
        assert!(caught.is_err());
        // The slice still holds a permutation of the original elements.
        let mut recovered = v.clone();
        recovered.sort_unstable();
        assert_eq!(recovered, (0..20_000).collect::<Vec<_>>());
    }
}
