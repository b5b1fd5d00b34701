//! Parallel filter, sort, maximum and reduction helpers (Table I).
//!
//! Thin, well-tested wrappers over rayon that match the interfaces used in
//! the paper's pseudocode. The rayon adapters are lazy and fused, so each
//! helper is a single parallel pass on the persistent pool; the helpers
//! additionally fall back to plain sequential execution for small inputs,
//! where even one pool round trip would dominate the work.

use rayon::prelude::*;
use std::cmp::Ordering;

/// Below this many elements the primitives run sequentially; parallel
/// scheduling overhead outweighs the work for smaller inputs.
pub const SEQ_THRESHOLD: usize = 2048;

/// Parallel filter: returns the elements of `items` for which `pred` holds,
/// preserving their input order (as required by the paper's `Filter`).
/// The filter and the clone fuse into one parallel pass.
pub fn par_filter<T, F>(items: &[T], pred: F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    if items.len() < SEQ_THRESHOLD {
        items.iter().filter(|x| pred(x)).cloned().collect()
    } else {
        items.par_iter().filter(|x| pred(x)).cloned().collect()
    }
}

/// Parallel stable sort by a comparison function. Above the threshold this
/// delegates to rayon's `par_sort_by` (under the shim, a buffer-based
/// parallel merge sort that itself uses std sorts below ~4k elements or on
/// a single-threaded pool). Elements only need `T: Send`, as with real
/// rayon.
pub fn par_sort_by<T, F>(items: &mut [T], cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Send + Sync,
{
    if items.len() < SEQ_THRESHOLD {
        items.sort_by(cmp);
    } else {
        items.par_sort_by(cmp);
    }
}

/// Parallel unstable sort by a comparison function. Above the threshold
/// this delegates to rayon's `par_sort_unstable_by` (under the shim, the
/// same stable buffer-based merge sort with the same ~4k/single-thread
/// fallback). Elements only need `T: Send`.
pub fn par_sort_unstable_by<T, F>(items: &mut [T], cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Send + Sync,
{
    if items.len() < SEQ_THRESHOLD {
        items.sort_unstable_by(cmp);
    } else {
        items.par_sort_unstable_by(cmp);
    }
}

/// Parallel maximum: returns the index of the element with the maximal key,
/// breaking ties towards the smaller index so the result is deterministic.
/// Returns `None` for an empty slice. `NaN` keys never win.
pub fn par_max_index<T, F>(items: &[T], key: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> f64 + Send + Sync,
{
    extremal_index(items, key, |candidate, best| candidate > best)
}

/// Parallel minimum: index of the element with the minimal key, ties broken
/// towards the smaller index. `NaN` keys never win.
pub fn par_min_index<T, F>(items: &[T], key: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> f64 + Send + Sync,
{
    extremal_index(items, key, |candidate, best| candidate < best)
}

fn extremal_index<T, F, B>(items: &[T], key: F, better: B) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> f64 + Send + Sync,
    B: Fn(f64, f64) -> bool + Send + Sync,
{
    if items.is_empty() {
        return None;
    }
    let fold = |acc: Option<(usize, f64)>, (i, item): (usize, &T)| -> Option<(usize, f64)> {
        let k = key(item);
        if k.is_nan() {
            return acc;
        }
        match acc {
            None => Some((i, k)),
            Some((bi, bk)) => {
                if better(k, bk) || (k == bk && i < bi) {
                    Some((i, k))
                } else {
                    Some((bi, bk))
                }
            }
        }
    };
    let combine = |a: Option<(usize, f64)>, b: Option<(usize, f64)>| match (a, b) {
        (None, x) | (x, None) => x,
        (Some((ai, ak)), Some((bi, bk))) => {
            if better(bk, ak) || (bk == ak && bi < ai) {
                Some((bi, bk))
            } else {
                Some((ai, ak))
            }
        }
    };
    let best = if items.len() < SEQ_THRESHOLD {
        items.iter().enumerate().fold(None, fold)
    } else {
        items
            .par_iter()
            .enumerate()
            .fold(|| None, fold)
            .reduce(|| None, combine)
    };
    best.map(|(i, _)| i)
}

/// Parallel maximum by an arbitrary totally-ordered key.
pub fn par_max_by_key<T, K, F>(items: &[T], key: F) -> Option<&T>
where
    T: Sync,
    K: Ord + Send,
    F: Fn(&T) -> K + Send + Sync,
{
    if items.is_empty() {
        None
    } else if items.len() < SEQ_THRESHOLD {
        items.iter().max_by_key(|x| key(x))
    } else {
        items.par_iter().max_by_key(|x| key(x))
    }
}

/// Parallel sum of a slice of `f64` values.
pub fn par_sum_f64(items: &[f64]) -> f64 {
    if items.len() < SEQ_THRESHOLD {
        items.iter().sum()
    } else {
        items.par_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_preserves_order() {
        let v: Vec<u32> = (0..10_000).collect();
        let filtered = par_filter(&v, |x| x % 7 == 0);
        let expected: Vec<u32> = (0..10_000).filter(|x| x % 7 == 0).collect();
        assert_eq!(filtered, expected);
    }

    #[test]
    fn max_index_ties_break_to_smallest_index() {
        let v = vec![1.0, 5.0, 5.0, 2.0];
        assert_eq!(par_max_index(&v, |x| *x), Some(1));
        assert_eq!(par_min_index(&v, |x| *x), Some(0));
    }

    #[test]
    fn max_index_ignores_nan() {
        let v = vec![f64::NAN, 2.0, f64::NAN, 3.0];
        assert_eq!(par_max_index(&v, |x| *x), Some(3));
        assert_eq!(par_min_index(&v, |x| *x), Some(1));
    }

    #[test]
    fn max_index_empty_and_all_nan() {
        let empty: Vec<f64> = vec![];
        assert_eq!(par_max_index(&empty, |x| *x), None);
        let all_nan = vec![f64::NAN; 10];
        assert_eq!(par_max_index(&all_nan, |x| *x), None);
    }

    #[test]
    fn sort_matches_std_sort_large() {
        let mut v: Vec<i64> = (0..50_000).map(|i| (i * 2654435761_i64) % 10_007).collect();
        let mut expected = v.clone();
        expected.sort();
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, expected);
    }

    #[test]
    fn sum_matches_sequential() {
        let v: Vec<f64> = (0..100_000).map(|i| (i % 13) as f64).collect();
        let seq: f64 = v.iter().sum();
        assert!((par_sum_f64(&v) - seq).abs() < 1e-6);
    }

    #[test]
    fn max_by_key_matches_std() {
        let v: Vec<u64> = (0..30_000).map(|i| (i * 48271) % 65_537).collect();
        assert_eq!(par_max_by_key(&v, |x| *x).copied(), v.iter().max().copied());
    }
}
