//! Duty scheduling: the proposer lottery.
//!
//! The real protocol derives proposers from RANDAO; the simulation uses a
//! seeded hash lottery with the same statistical property the paper's
//! §5.3 analysis relies on: each slot's proposer is (approximately)
//! uniform over the active validator set, so the probability that none of
//! the first `j` slots of an epoch has a Byzantine proposer is
//! `(1 − β)^j`.

use ethpos_crypto::hash_u64;
use ethpos_types::{Epoch, Slot, ValidatorIndex};

/// Seeded proposer lottery over a fixed validator set.
///
/// # Example
///
/// ```
/// use ethpos_validator::ProposerLottery;
/// use ethpos_types::Slot;
///
/// let lottery = ProposerLottery::new(7, 64);
/// let p = lottery.proposer(Slot::new(42));
/// assert!(p.as_u64() < 64);
/// assert_eq!(p, lottery.proposer(Slot::new(42))); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct ProposerLottery {
    seed: u64,
    n: u64,
}

impl ProposerLottery {
    /// Creates a lottery over validators `0..n` with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(seed: u64, n: u64) -> Self {
        assert!(n > 0, "lottery needs at least one validator");
        ProposerLottery { seed, n }
    }

    /// The proposer of `slot`.
    pub fn proposer(&self, slot: Slot) -> ValidatorIndex {
        let digest = hash_u64(&[0x7072_6f70_6f73_6572, self.seed, slot.as_u64()]);
        let word = u64::from_le_bytes(digest.as_bytes()[..8].try_into().expect("8 bytes"));
        ValidatorIndex::new(word % self.n)
    }

    /// True if any of the first `j` slots of `epoch` has its proposer in
    /// `set` — the §5.3 continuation condition for one epoch.
    pub fn any_proposer_in_first_slots<F>(
        &self,
        epoch: Epoch,
        j: u64,
        slots_per_epoch: u64,
        is_member: F,
    ) -> bool
    where
        F: Fn(ValidatorIndex) -> bool,
    {
        let start = epoch.start_slot(slots_per_epoch);
        (0..j.min(slots_per_epoch)).any(|k| is_member(self.proposer(start + k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn proposer_is_deterministic_and_in_range() {
        let lot = ProposerLottery::new(7, 100);
        for s in 0..1000u64 {
            let p = lot.proposer(Slot::new(s));
            assert!(p.as_u64() < 100);
            assert_eq!(p, lot.proposer(Slot::new(s)));
        }
    }

    #[test]
    fn proposer_distribution_is_roughly_uniform() {
        let n = 10u64;
        let lot = ProposerLottery::new(42, n);
        let mut counts = vec![0u32; n as usize];
        let trials = 20_000u64;
        for s in 0..trials {
            counts[lot.proposer(Slot::new(s)).as_usize()] += 1;
        }
        let expected = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.1,
                "validator {i} proposed {c} times (expected {expected})"
            );
        }
    }

    #[test]
    fn byzantine_proposer_frequency_matches_probability() {
        // With β = 1/3 of validators Byzantine, the fraction of epochs
        // whose first 8 slots contain a Byzantine proposer should approach
        // 1 − (2/3)^8 ≈ 0.961.
        let n = 300u64;
        let byz: HashSet<u64> = (0..100).collect();
        let lot = ProposerLottery::new(3, n);
        let epochs = 4000u64;
        let hits = (0..epochs)
            .filter(|&e| {
                lot.any_proposer_in_first_slots(Epoch::new(e), 8, 32, |v| byz.contains(&v.as_u64()))
            })
            .count();
        let rate = hits as f64 / epochs as f64;
        let expected = 1.0 - (2.0f64 / 3.0).powi(8);
        assert!(
            (rate - expected).abs() < 0.02,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = ProposerLottery::new(1, 50);
        let b = ProposerLottery::new(2, 50);
        let same = (0..200u64)
            .filter(|&s| a.proposer(Slot::new(s)) == b.proposer(Slot::new(s)))
            .count();
        assert!(same < 50, "schedules should differ, {same}/200 equal");
    }
}
