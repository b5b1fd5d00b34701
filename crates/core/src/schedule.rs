//! The one batch-growth schedule shape shared by every round-based
//! construction in this crate.
//!
//! PMFG rounds, the TMFG gain-cache depth, and the lazy candidate-sort
//! chunk all follow the same discipline: start small, double on demand,
//! stop at a cap — but each used to carry its own pair of magic numbers
//! inline. [`BatchSchedule`] names the pair, documents where each tuned
//! value came from, and centralises the validation (`1 <= initial <=
//! cap`) that [`crate::PmfgConfig`] exposes to callers.
//!
//! A schedule is a *shape*, not a policy: callers decide **when** to grow
//! (PMFG doubles only on rejection-heavy rounds, the candidate stream on
//! every refill) — the schedule only answers "from where", "to what", and
//! "never past what".

use crate::error::CoreError;

/// A doubling batch schedule: start at `initial`, grow by doubling, never
/// exceed `cap`.
///
/// All three uses are deterministic functions of the input (never of the
/// thread count), which is what keeps every construction byte-identical
/// across `RAYON_NUM_THREADS`; see the determinism notes on
/// [`crate::PmfgConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSchedule {
    /// First batch size.
    pub initial: usize,
    /// Upper bound for growth.
    pub cap: usize,
}

impl BatchSchedule {
    /// PMFG speculative round sizes. Measured on the construction bench
    /// (ECG5000 correlation matrices, n ∈ {100, 250}, 1-core host; see
    /// the `pmfg_counters` example for the sweep): small early rounds
    /// waste fewer stale tests while acceptances dominate, the 128 cap
    /// keeps the speculative tail past maximality short — a 4096 cap
    /// spends 2333 commit-time re-tests at n = 250 where 128 spends 238
    /// (pre-conflict-commit counts; the conflict-graph commit removes
    /// most of the remainder).
    pub const PMFG_ROUNDS: BatchSchedule = BatchSchedule {
        initial: 32,
        cap: 128,
    };

    /// TMFG per-face candidate cache depth, clamped from the insertion
    /// prefix. A list drains as its vertices are inserted elsewhere; a
    /// drained face then keeps its last entry's gain as a stale bound and
    /// is rescanned only if that bound could win a draw. At least 4, so a
    /// face survives a few insertions of its best vertices before it goes
    /// stale and its bound sits close to its true head; at most 32,
    /// because within a round a face's cache only shrinks by entries
    /// *stolen* by other faces (≤ prefix − 1 of them) and deeper lists
    /// just cost memory and insert time.
    pub const TMFG_CACHE_DEPTH: BatchSchedule = BatchSchedule {
        initial: 4,
        cap: 32,
    };

    /// Lazy candidate-sort chunk of the PMFG streams: the first chunk is
    /// a few multiples of the `3n − 6` acceptance target (floored at
    /// 1024 so tiny inputs sort once), doubling on every refill so a
    /// construction that consumes deep into the pair list pays
    /// `O(log)` refills, uncapped because the pair list itself is the
    /// only bound.
    pub const CANDIDATE_CHUNK: BatchSchedule = BatchSchedule {
        initial: 1024,
        cap: usize::MAX,
    };

    /// Validates the shape: a schedule must be able to produce a first
    /// batch (`initial >= 1`) and must not start past its cap.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidBatch`] otherwise.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.initial == 0 || self.initial > self.cap {
            return Err(CoreError::InvalidBatch);
        }
        Ok(())
    }

    /// The next batch size after `current`: doubled, saturating, capped.
    pub fn grow(&self, current: usize) -> usize {
        current.saturating_mul(2).min(self.cap)
    }

    /// Clamps a caller-derived starting size into the schedule's range —
    /// how the candidate stream seeds its first chunk from the acceptance
    /// target and the gain table its depth from the insertion prefix.
    pub fn clamp(&self, value: usize) -> usize {
        value.clamp(self.initial, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_schedules_are_valid() {
        for s in [
            BatchSchedule::PMFG_ROUNDS,
            BatchSchedule::TMFG_CACHE_DEPTH,
            BatchSchedule::CANDIDATE_CHUNK,
        ] {
            s.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        for s in [
            BatchSchedule { initial: 0, cap: 8 },
            BatchSchedule { initial: 9, cap: 8 },
        ] {
            assert!(matches!(s.validate(), Err(CoreError::InvalidBatch)));
        }
    }

    #[test]
    fn grow_doubles_to_the_cap() {
        let s = BatchSchedule {
            initial: 4,
            cap: 100,
        };
        assert_eq!(s.grow(4), 8);
        assert_eq!(s.grow(64), 100);
        assert_eq!(s.grow(100), 100);
        // Uncapped schedules saturate instead of overflowing.
        assert_eq!(
            BatchSchedule::CANDIDATE_CHUNK.grow(usize::MAX / 2 + 1),
            usize::MAX
        );
    }

    #[test]
    fn clamp_pins_into_range() {
        let s = BatchSchedule {
            initial: 4,
            cap: 32,
        };
        assert_eq!(s.clamp(1), 4);
        assert_eq!(s.clamp(10), 10);
        assert_eq!(s.clamp(1000), 32);
    }
}
