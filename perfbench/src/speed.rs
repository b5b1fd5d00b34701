//! The host's speed, measured next to every timed end-to-end step.
//!
//! On the shared 2-core host this benchmark was built on, a fixed loop's
//! time swings by up to 1.5× from one minute to the next, in CPU time as
//! much as in wall time, and the two vCPUs can differ. Raw seconds from
//! runs a few minutes apart then disagree by more than any useful
//! regression bound. So every end-to-end time is reported scaled to a
//! nominal host speed: multiplied by [`NOMINAL_S`] over the time of a fixed
//! probe computation, measured on the same threads right before and right
//! after the step. The probe shares no code with the pipeline, so a change
//! to the pipeline moves the scaled time exactly as much as the raw one.

use std::hint::black_box;

use rayon::ThreadPool;

use crate::trace::{now, since};

/// The probe's time on the reference host (2-core VM) when undisturbed.
/// Scaled times read as seconds on that host.
pub const NOMINAL_S: f64 = 0.02;

/// Passes over the probe's table; sized for about [`NOMINAL_S`].
const PROBE_ROUNDS: u32 = 48;

/// The probe: SplitMix64 hashing with dependent loads and float
/// multiply-adds over a 256 KiB table, the integer, cache and
/// floating-point mix the pipeline runs on.
fn probe_work() -> f64 {
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for round in 0..PROBE_ROUNDS {
        for i in 0..table.len() {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let j = (z as usize ^ i) & mask;
            table[i] ^= z.rotate_left(round) ^ table[j];
            acc = acc.mul_add(0.999_999, (table[i] >> 11) as f64 * 1e-18);
        }
    }
    black_box(acc)
}

/// One probe on each of `threads` threads at once, by nested joins.
fn probe_on(threads: usize) -> f64 {
    if threads <= 1 {
        return probe_work();
    }
    let half = threads / 2;
    let (a, b) = rayon::join(|| probe_on(half), || probe_on(threads - half));
    a + b
}

/// Wall time of one probe on every thread of `pool` at once: the slowest
/// thread decides, as it does for the pipeline's fork-join steps.
pub fn probe_s(pool: &ThreadPool) -> f64 {
    pool.install(|| {
        let start = now();
        black_box(probe_on(pool.current_num_threads()));
        since(start)
    })
}

/// The factor that scales seconds measured between the probes `before`
/// and `after` to the nominal host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        assert!((3.0 * scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
        assert!((scale(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
    }
}
