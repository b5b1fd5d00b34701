//! Parallel comparison sort (Table I).
//!
//! A thin wrapper over rayon's slice sort that falls back to the plain
//! sequential sort for small inputs, where even one pool round trip would
//! dominate the work.

use rayon::prelude::*;
use std::cmp::Ordering;

/// Below this many elements the sort runs sequentially; parallel
/// scheduling overhead outweighs the work for smaller inputs.
const SEQ_THRESHOLD: usize = 2048;

/// Parallel unstable sort by a comparison function. Above the threshold
/// this delegates to rayon's `par_sort_unstable_by` (under the shim, a
/// stable buffer-based merge sort that itself uses std sorts below ~4k
/// elements or on a single-threaded pool). Elements only need `T: Send`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_matches_std_sort_large() {
        let mut v: Vec<i64> = (0..50_000).map(|i| (i * 2654435761_i64) % 10_007).collect();
        let mut expected = v.clone();
        expected.sort();
        par_sort_unstable_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, expected);
    }
}
