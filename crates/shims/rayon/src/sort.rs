//! Buffer-based parallel merge sort for `par_sort_by` /
//! `par_sort_unstable_by`. Both sorts are stable: a stable order is
//! unique, so every path below returns the same permutation.
//!
//! The PR 2 implementation merged sorted runs into *index* vectors
//! (`order[k]` = slice position of the k-th smallest element) and applied
//! the final permutation with cycle-following swaps. That kept `T` move-
//! only but cost `O(n log runs)` extra index traffic and allocations, and
//! — because the merge phase read the slice through shared references
//! across workers — forced `T: Sync` on the public sorts, a documented
//! divergence from real rayon. This version merges *elements* through a
//! scratch buffer instead, and needs only `T: Send`:
//!
//! 1. **Run decomposition** — the slice is cut into runs at boundaries
//!    that are a function of the length **only** (never the worker
//!    count), so the sort is byte-for-byte deterministic across
//!    `RAYON_NUM_THREADS` and across steals.
//! 2. **Recursive sort via [`crate::join`]** — each node sorts its two
//!    halves (leaves use the std stable sort in place) and then merges
//!    them.
//! 3. **Buffer-based parallel merge** — a node merges its two sorted
//!    halves into the matching range of one shared scratch buffer, then
//!    memcpy-moves the range back. The merge splits the *larger* run at
//!    its midpoint, binary-searches the partner for the matching split
//!    (ties keep left-run elements first, so the sort is stable end to
//!    end), and recurses over the two independent sub-merges via `join`;
//!    small sub-merges run sequentially.
//!
//! Every sub-problem owns *disjoint* ranges of the slice and the buffer,
//! so closures carry raw range pointers ([`SendPtr`]) rather than shared
//! slices — that disjointness (not `Sync`) is what makes cross-thread
//! access sound, exactly as in rayon's own sort internals.
//!
//! A comparator panic unwinds while the slice holds an unspecified
//! permutation of its original elements, matching rayon's contract: the
//! std run sorts guarantee it for leaves, and a merge writes only the
//! scratch buffer until it completes (the copy-back runs no user code).
//! The scratch buffer is plain capacity (length zero) and is deallocated
//! without dropping elements on every path.

use std::cmp::Ordering;
use std::ptr;

use pfg_audit::{DisjointWriteAudit, SendPtr};

use crate::pool;

/// Below this length (or on a single-threaded pool) the std stable sort is
/// used directly: it is highly optimised and the merge machinery only pays
/// for itself once several workers sort runs concurrently.
pub(crate) const MIN_PAR_SORT_LEN: usize = 4096;

/// Target elements per leaf run. Boundaries derived from this depend only
/// on the input length, keeping the sort deterministic across worker
/// counts (see the module docs).
const RUN_TARGET_LEN: usize = MIN_PAR_SORT_LEN / 2;

/// Cap on the number of leaf runs, bounding split-tree depth on huge
/// inputs while leaving ample stealing slack for any plausible core count.
const MAX_RUNS: usize = 64;

/// Sub-merges at or below this many elements run sequentially.
const MERGE_SEQ_LEN: usize = 4096;

/// Stably sorts `v` by `cmp` on the current pool.
///
/// The parallel path is taken only when the pool *and the hardware* offer
/// parallelism: on a single-core machine an oversubscribed pool (e.g.
/// `RAYON_NUM_THREADS=4` on 1-CPU CI) could only add merge overhead, so
/// the std stable sort is used regardless of the configured worker count.
/// Both paths sort stably, so the gate picks the faster one without
/// changing the result.
pub(crate) fn par_merge_sort_by<T, F>(v: &mut [T], cmp: &F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if pool::effective_parallelism() <= 1
        || pool::hardware_parallelism() <= 1
        || v.len() < MIN_PAR_SORT_LEN
    {
        v.sort_by(cmp);
        return;
    }
    par_merge_sort_impl(v, cmp);
}

/// The ungated parallel merge sort. Split out so tests (and only tests)
/// can exercise the parallel machinery even on single-core CI machines,
/// where [`par_merge_sort_by`] deliberately falls back to the std sort.
pub(crate) fn par_merge_sort_impl<T, F>(v: &mut [T], cmp: &F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = v.len();
    let runs = n.div_ceil(RUN_TARGET_LEN).clamp(1, MAX_RUNS);
    if runs < 2 {
        v.sort_by(cmp);
        return;
    }
    let run_len = n.div_ceil(runs);
    // Scratch capacity only: length stays 0, so dropping `buf` deallocates
    // raw memory without dropping any `T` (merges move elements through it
    // bitwise and always move them back before completing).
    let mut buf: Vec<T> = Vec::with_capacity(n);
    let base = SendPtr::new(v.as_mut_ptr());
    let scratch = SendPtr::new(buf.as_mut_ptr());
    let audits = SortAudits {
        base: DisjointWriteAudit::ranges("sort slice"),
        scratch: DisjointWriteAudit::ranges("sort scratch"),
    };
    sort_runs(base, scratch, n, run_len, 0, runs, cmp, &audits);
}

/// Shadow-write registries for the two buffers the sort writes: the slice
/// itself (leaf run sorts, copy-backs) and the scratch buffer (merge
/// output ranges). Claims are scoped to the writing phase, so temporally
/// nested ownership — a parent node reusing its completed children's
/// ranges — audits cleanly while concurrent overlap panics under
/// `--cfg pfg_racecheck`. (`SendPtr` itself is the shared wrapper from
/// `pfg_audit`; the disjointness the closures rely on is exactly what
/// these registries check.)
struct SortAudits {
    base: DisjointWriteAudit,
    scratch: DisjointWriteAudit,
}

/// Sorts the element range covered by leaf runs `[run_lo, run_hi)`:
/// recursively sorts both halves (in parallel via `join`), then merges
/// them through the scratch buffer.
#[allow(clippy::too_many_arguments)]
fn sort_runs<T, F>(
    base: SendPtr<T>,
    scratch: SendPtr<T>,
    n: usize,
    run_len: usize,
    run_lo: usize,
    run_hi: usize,
    cmp: &F,
    audits: &SortAudits,
) where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let lo = (run_lo * run_len).min(n);
    let hi = (run_hi * run_len).min(n);
    if run_hi - run_lo == 1 {
        let _claim = audits.base.claim_range(lo, hi);
        // SAFETY: this call has exclusive access to `[lo, hi)` (disjoint
        // leaf ranges), and `base` points at `n >= hi` valid elements.
        let run = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        run.sort_by(cmp);
        return;
    }
    let run_mid = run_lo + (run_hi - run_lo) / 2;
    let mid = (run_mid * run_len).min(n);
    crate::join(
        || sort_runs(base, scratch, n, run_len, run_lo, run_mid, cmp, audits),
        || sort_runs(base, scratch, n, run_len, run_mid, run_hi, cmp, audits),
    );
    // SAFETY: both halves of `[lo, hi)` are sorted and exclusively ours;
    // the matching scratch range is disjoint from every other node's.
    unsafe {
        par_merge(
            base.get().add(lo),
            mid - lo,
            base.get().add(mid),
            hi - mid,
            scratch.get().add(lo),
            cmp,
            audits,
            lo,
        );
        // The merge moved `[lo, hi)` into the scratch range; move it back.
        // No user code runs here, so this cannot unwind half-done.
        let _claim = audits.base.claim_range(lo, hi);
        ptr::copy_nonoverlapping(scratch.get().add(lo), base.get().add(lo), hi - lo);
    }
}

/// Merges the sorted runs `left[..left_len]` and `right[..right_len]` into
/// `out[..left_len + right_len]`, splitting the larger run at its midpoint
/// and recursing over the two independent sub-merges via `join`. Ties take
/// left-run elements first (stability).
///
/// # Safety
/// The caller must have exclusive access to all three ranges, and `out`
/// must not overlap the inputs. `out_off` is the absolute scratch offset
/// of `out` (audit bookkeeping only).
#[allow(clippy::too_many_arguments)]
unsafe fn par_merge<T, F>(
    left: *mut T,
    left_len: usize,
    right: *mut T,
    right_len: usize,
    out: *mut T,
    cmp: &F,
    audits: &SortAudits,
    out_off: usize,
) where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if left_len + right_len <= MERGE_SEQ_LEN {
        let _claim = audits
            .scratch
            .claim_range(out_off, out_off + left_len + right_len);
        seq_merge(left, left_len, right, right_len, out, cmp);
        return;
    }
    // Split the larger run at its midpoint and binary-search the partner:
    // elements equal to the pivot stay ordered left-run-first.
    let (left_at, right_at) = if left_len >= right_len {
        let left_at = left_len / 2;
        let pivot = &*left.add(left_at);
        let right_run = std::slice::from_raw_parts(right, right_len);
        // Strictly-less: right-run elements equal to the pivot sort after
        // it, i.e. into the second sub-merge.
        let right_at = right_run.partition_point(|x| cmp(x, pivot) == Ordering::Less);
        (left_at, right_at)
    } else {
        let right_at = right_len / 2;
        let pivot = &*right.add(right_at);
        let left_run = std::slice::from_raw_parts(left, left_len);
        // Less-or-equal: left-run elements equal to the pivot sort before
        // it, i.e. into the first sub-merge.
        let left_at = left_run.partition_point(|x| cmp(x, pivot) != Ordering::Greater);
        (left_at, right_at)
    };
    let (l, r, o) = (SendPtr::new(left), SendPtr::new(right), SendPtr::new(out));
    crate::join(
        move || {
            // SAFETY: `[0, left_at)` × `[0, right_at)` → out `[0, left_at
            // + right_at)` is disjoint from the sibling's ranges.
            unsafe {
                par_merge(
                    l.get(),
                    left_at,
                    r.get(),
                    right_at,
                    o.get(),
                    cmp,
                    audits,
                    out_off,
                )
            }
        },
        move || {
            // SAFETY: the complementary ranges, equally disjoint.
            unsafe {
                par_merge(
                    l.get().add(left_at),
                    left_len - left_at,
                    r.get().add(right_at),
                    right_len - right_at,
                    o.get().add(left_at + right_at),
                    cmp,
                    audits,
                    out_off + left_at + right_at,
                )
            }
        },
    );
}

/// Sequential two-run merge by bitwise moves. Ties take `left` first.
///
/// # Safety
/// As for [`par_merge`]. Elements are duplicated bitwise into `out`; the
/// caller must treat `out` as the owner afterwards (the copy-back in
/// [`sort_runs`] restores single ownership to the slice).
unsafe fn seq_merge<T, F>(
    left: *mut T,
    left_len: usize,
    right: *mut T,
    right_len: usize,
    out: *mut T,
    cmp: &F,
) where
    F: Fn(&T, &T) -> Ordering,
{
    let (mut l, mut r, mut o) = (0, 0, out);
    while l < left_len && r < right_len {
        if cmp(&*right.add(r), &*left.add(l)) == Ordering::Less {
            ptr::copy_nonoverlapping(right.add(r), o, 1);
            r += 1;
        } else {
            ptr::copy_nonoverlapping(left.add(l), o, 1);
            l += 1;
        }
        o = o.add(1);
    }
    ptr::copy_nonoverlapping(left.add(l), o, left_len - l);
    ptr::copy_nonoverlapping(right.add(r), o.add(left_len - l), right_len - r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    // The hardware gate in `par_merge_sort_by` means the public path may
    // legitimately use the std sort on single-core CI machines, so the
    // parallel machinery is exercised here through `par_merge_sort_impl`
    // directly, under an installed (possibly oversubscribed) pool.

    fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(op)
    }

    #[test]
    fn parallel_path_matches_std_large() {
        let mut v: Vec<i64> = (0..50_000)
            .map(|i| (i * 2_654_435_761_i64) % 10_007)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        with_pool(4, || par_merge_sort_impl(&mut v, &|a, b| a.cmp(b)));
        assert_eq!(v, expected);
    }

    #[test]
    fn parallel_path_is_stable() {
        let mut v: Vec<(i64, usize)> = (0..30_000).map(|i| ((i as i64 * 31) % 10, i)).collect();
        with_pool(4, || par_merge_sort_impl(&mut v, &|a, b| a.0.cmp(&b.0)));
        for pair in v.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "stability violated: {pair:?}");
            }
        }
    }

    #[test]
    fn parallel_path_sorts_send_only_elements() {
        // `Cell<i64>` is `Send` but not `Sync` — the bound real rayon has
        // and the PR 2 index-merge sort could not meet. The merge phase
        // must stay correct with zero shared references to the elements.
        let mut v: Vec<Cell<i64>> = (0..40_000)
            .map(|i| Cell::new((i * 48_271) % 65_537))
            .collect();
        with_pool(4, || {
            par_merge_sort_impl(&mut v, &|a, b| a.get().cmp(&b.get()))
        });
        let got: Vec<i64> = v.iter().map(Cell::get).collect();
        let mut expected: Vec<i64> = (0..40_000).map(|i| (i * 48_271) % 65_537).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn parallel_path_matches_std_fallback_on_ties() {
        // The gate in `par_merge_sort_by` falls back to the std stable
        // sort, so the merge path must produce the same permutation of a
        // tie-heavy input. Run on a 1-thread pool so 1-core hosts cover it.
        let input: Vec<(i64, usize)> = (0..40_000).map(|i| ((i as i64 * 37) % 11, i)).collect();
        let mut expected = input.clone();
        expected.sort_by_key(|p| p.0);
        let mut v = input;
        with_pool(1, || par_merge_sort_impl(&mut v, &|a, b| a.0.cmp(&b.0)));
        assert_eq!(v, expected);
    }

    #[test]
    fn parallel_path_deterministic_across_worker_counts() {
        let input: Vec<(i64, usize)> = (0..60_000).map(|i| ((i as i64 * 131) % 257, i)).collect();
        let mut reference = input.clone();
        with_pool(1, || {
            par_merge_sort_impl(&mut reference, &|a, b| a.0.cmp(&b.0))
        });
        for threads in [2, 4, 8] {
            let mut v = input.clone();
            with_pool(threads, || {
                par_merge_sort_impl(&mut v, &|a, b| a.0.cmp(&b.0))
            });
            assert_eq!(v, reference, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_path_propagates_comparator_panic() {
        let mut v: Vec<i64> = (0..20_000).rev().collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_pool(4, || {
                par_merge_sort_impl(&mut v, &|a: &i64, b: &i64| {
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

    #[test]
    fn parallel_path_no_leaks_with_owned_elements() {
        // Boxed elements through the full parallel path: Miri-style double
        // drops or leaks would abort/fail under the allocator checks in
        // debug runs, and the value check catches any lost element.
        let mut v: Vec<Box<i64>> = (0..10_000).map(|i| Box::new((i * 7_919) % 1_000)).collect();
        with_pool(4, || par_merge_sort_impl(&mut v, &|a, b| a.cmp(b)));
        let mut expected: Vec<i64> = (0..10_000).map(|i| (i * 7_919) % 1_000).collect();
        expected.sort();
        assert_eq!(v.iter().map(|b| **b).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn parallel_path_tiny_inputs() {
        let mut empty: Vec<i64> = Vec::new();
        par_merge_sort_impl(&mut empty, &|a: &i64, b: &i64| a.cmp(b));
        assert!(empty.is_empty());
        let mut one = vec![9i64];
        par_merge_sort_impl(&mut one, &|a, b| a.cmp(b));
        assert_eq!(one, vec![9]);
        let mut few = vec![3i64, 1, 2];
        with_pool(4, || par_merge_sort_impl(&mut few, &|a, b| a.cmp(b)));
        assert_eq!(few, vec![1, 2, 3]);
    }

    #[test]
    fn seq_merge_prefers_left_on_ties() {
        let mut left = [(1, 'l')];
        let mut right = [(0, 'r'), (1, 'r')];
        let mut out: Vec<std::mem::MaybeUninit<(i32, char)>> = Vec::with_capacity(3);
        // SAFETY: exclusive stack arrays, out has capacity 3.
        let merged: Vec<(i32, char)> = unsafe {
            seq_merge(
                left.as_mut_ptr(),
                left.len(),
                right.as_mut_ptr(),
                right.len(),
                out.as_mut_ptr().cast(),
                &|a: &(i32, char), b: &(i32, char)| a.0.cmp(&b.0),
            );
            (0..3)
                .map(|i| out.as_ptr().cast::<(i32, char)>().add(i).read())
                .collect()
        };
        assert_eq!(merged, vec![(0, 'r'), (1, 'l'), (1, 'r')]);
    }
}
