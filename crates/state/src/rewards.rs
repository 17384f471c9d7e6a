//! Rewards and penalties (Altair accounting).
//!
//! Two delta sources matter for the paper:
//!
//! * **attestation deltas** — rewards for timely source/target/head flags
//!   and penalties for missing source/target. During an inactivity leak
//!   attesters receive *no rewards* (paper §4: "there are no more rewards
//!   given to attesters"), only penalties;
//! * **inactivity penalties** (paper Eq. 2) — every eligible validator
//!   without the timely-target flag loses
//!   `inactivity_score × effective_balance / (BIAS × QUOTIENT)`
//!   per epoch, i.e. `I·s / 2²⁶` with mainnet constants.

use ethpos_types::{Gwei, ValidatorIndex};

use crate::beacon_state::BeaconState;
use crate::participation::{
    TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};

/// Integer square root (spec `integer_squareroot`): `⌊√n⌋` by Newton's
/// iteration.
///
/// The spec seeds the iteration at `n`; any seed `≥ √n` descends
/// monotonically to the same floor, so this one starts at
/// `2^⌈bits(n)/2⌉` — a handful of divisions instead of one per two bits
/// of `n`, once per state and epoch on the compressed backend.
pub(crate) fn integer_sqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let bits = u64::BITS - n.leading_zeros();
    let mut x = 1u64 << bits.div_ceil(2);
    let mut y = (x + n / x) / 2;
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

impl BeaconState {
    /// Spec `get_base_reward_per_increment`.
    pub fn base_reward_per_increment(&self) -> Gwei {
        let increment = self.config().effective_balance_increment.as_u64();
        let factor = self.config().base_reward_factor;
        let sqrt_total = integer_sqrt(self.total_active_balance().as_u64());
        Gwei::new(increment * factor / sqrt_total.max(1))
    }

    /// Spec `process_rewards_and_penalties`: applies attestation-flag
    /// deltas and inactivity penalties for the previous epoch.
    pub fn process_rewards_and_penalties(&mut self) {
        // Spec: genesis epoch has no previous epoch to settle.
        if self.current_epoch().as_u64() == 0 {
            return;
        }
        let deltas = self.attestation_deltas();
        for (i, (reward, penalty)) in deltas.into_iter().enumerate() {
            let idx = ValidatorIndex::from(i);
            self.increase_balance(idx, reward);
            self.decrease_balance(idx, penalty);
        }
    }

    /// Computes per-validator `(reward, penalty)` for the previous epoch:
    /// flag deltas (spec `get_flag_index_deltas`) plus inactivity
    /// penalties (spec `get_inactivity_penalty_deltas`).
    pub fn attestation_deltas(&self) -> Vec<(Gwei, Gwei)> {
        let previous_epoch = self.previous_epoch();
        let n = self.num_validators();
        let mut deltas = vec![(Gwei::ZERO, Gwei::ZERO); n];

        let total_active = self.total_active_balance().as_u64();
        let increment = self.config().effective_balance_increment.as_u64();
        let total_increments = (total_active / increment).max(1);
        let base_per_increment = self.base_reward_per_increment().as_u64();
        let denominator = self.config().weight_denominator;
        let in_leak = self.is_in_inactivity_leak();

        // Participating increments per flag (unslashed, previous epoch).
        let mut participating_increments = [0u64; 3];
        for (v, i) in self.validators().iter().zip(0..n) {
            if v.slashed || !v.is_active_at(previous_epoch) {
                continue;
            }
            let flags = self.previous_participation(ValidatorIndex::from(i));
            for (k, flag) in [
                TIMELY_SOURCE_FLAG_INDEX,
                TIMELY_TARGET_FLAG_INDEX,
                TIMELY_HEAD_FLAG_INDEX,
            ]
            .into_iter()
            .enumerate()
            {
                if flags.has(flag) {
                    participating_increments[k] += v.effective_balance.as_u64() / increment;
                }
            }
        }

        let weights = [
            self.config().timely_source_weight,
            self.config().timely_target_weight,
            self.config().timely_head_weight,
        ];

        let leak_denominator = self.config().inactivity_penalty_denominator();

        for (i, v) in self.validators().iter().enumerate() {
            let idx = ValidatorIndex::from(i);
            let eligible = v.is_active_at(previous_epoch)
                || (v.slashed && previous_epoch + 1 < v.withdrawable_epoch);
            if !eligible {
                continue;
            }
            let flags = self.previous_participation(idx);
            let increments_i = v.effective_balance.as_u64() / increment;
            let base_reward = increments_i * base_per_increment;

            for (k, flag) in [
                TIMELY_SOURCE_FLAG_INDEX,
                TIMELY_TARGET_FLAG_INDEX,
                TIMELY_HEAD_FLAG_INDEX,
            ]
            .into_iter()
            .enumerate()
            {
                let participated = !v.slashed && flags.has(flag);
                if participated {
                    if !in_leak {
                        let numerator = base_reward * weights[k] * participating_increments[k];
                        deltas[i].0 += Gwei::new(numerator / (total_increments * denominator));
                    }
                    // In a leak: no reward (paper §4).
                } else if flag != TIMELY_HEAD_FLAG_INDEX {
                    // Missing source/target is penalized; head is not.
                    deltas[i].1 += Gwei::new(base_reward * weights[k] / denominator);
                }
            }

            // Inactivity penalty: under spec semantics it hits eligible
            // validators without the timely-target flag this epoch; under
            // the paper's Eq. 2 semantics it hits every epoch while the
            // inactivity score is positive (see
            // `ChainConfig::paper_inactivity_penalties`).
            let pays_inactivity = if self.config().paper_inactivity_penalties {
                v.slashed || self.inactivity_score(idx) > 0
            } else {
                v.slashed || !flags.has(TIMELY_TARGET_FLAG_INDEX)
            };
            if pays_inactivity {
                let penalty_numerator =
                    v.effective_balance.as_u64() as u128 * self.inactivity_score(idx) as u128;
                deltas[i].1 += Gwei::new((penalty_numerator / leak_denominator as u128) as u64);
            }
        }
        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participation::ParticipationFlags;
    use ethpos_types::{ChainConfig, Epoch};

    /// Spec `get_base_reward` for one validator: the per-validator
    /// oracle of the flag deltas `attestation_deltas` computes in bulk.
    fn base_reward(s: &BeaconState, index: ValidatorIndex) -> Gwei {
        let increments = s.validators()[index.as_usize()].effective_balance.as_u64()
            / s.config().effective_balance_increment.as_u64();
        Gwei::new(increments * s.base_reward_per_increment().as_u64())
    }

    fn state(n: usize) -> BeaconState {
        BeaconState::genesis(ChainConfig::minimal(), n)
    }

    /// The spec's loop, seeded at `n`: the oracle for the seeded one.
    fn integer_sqrt_spec(n: u64) -> u64 {
        let mut x = n;
        let mut y = x.div_ceil(2);
        while y < x {
            x = y;
            y = (x + n / x) / 2;
        }
        x
    }

    /// `r = ⌊√n⌋` ⇔ `r² ≤ n < (r + 1)²`, and the spec loop agrees.
    fn assert_floor_sqrt(n: u64) {
        let r = integer_sqrt(n);
        assert_eq!(r, integer_sqrt_spec(n), "sqrt({n})");
        assert!(
            r.checked_mul(r).is_some_and(|sq| sq <= n),
            "sqrt({n}) = {r}"
        );
        assert!((r + 1).checked_mul(r + 1).is_none_or(|sq| sq > n));
    }

    #[test]
    fn integer_sqrt_matches_float() {
        for n in [0u64, 1, 2, 3, 4, 15, 16, 17, 1 << 40, u64::MAX / 2] {
            assert_floor_sqrt(n);
        }
    }

    #[test]
    fn integer_sqrt_is_the_floor_at_every_seed_boundary() {
        assert_floor_sqrt(u64::MAX);
        for k in 0..64u32 {
            // Around each power of two the seed's exponent steps.
            for n in (1u64 << k).saturating_sub(2)..=(1u64 << k).saturating_add(2) {
                assert_floor_sqrt(n);
            }
            // Around each perfect square the floor steps.
            let r = (1u64 << (k / 2)) + u64::from(k) * 0x9e37 % (1 << (k / 2));
            for n in r * r - 1..=r * r + 1 {
                assert_floor_sqrt(n);
            }
        }
        // The largest root, and the total stakes the simulators take it of.
        let r = u64::from(u32::MAX);
        for n in [r * r - 1, r * r, r * r + 1, 32_000_000_000 * 1_000_000] {
            assert_floor_sqrt(n);
        }
    }

    proptest::proptest! {
        #[test]
        fn integer_sqrt_equals_the_spec_loop(n in proptest::prelude::any::<u64>(), shift in 0u32..64) {
            assert_floor_sqrt(n >> shift);
        }
    }

    #[test]
    fn base_reward_scales_with_effective_balance() {
        let mut s = state(16);
        s.validators_mut()[0].effective_balance = Gwei::from_eth_u64(16);
        let full = base_reward(&s, ValidatorIndex::new(1));
        let half = base_reward(&s, ValidatorIndex::new(0));
        assert_eq!(half.as_u64() * 2, full.as_u64());
    }

    #[test]
    fn full_participation_earns_rewards_outside_leak() {
        let mut s = state(8);
        for i in 0..8u64 {
            s.merge_current_participation(ValidatorIndex::from(i), ParticipationFlags::all());
        }
        s.advance_epoch(None); // rotates flags, settles epoch 0
        s.advance_epoch(None); // settles epoch 1 deltas... rotated again
                               // After the first boundary, previous participation is full; the
                               // second boundary pays rewards for it (current_epoch = 1 then).
        let b = s.balance(ValidatorIndex::new(0));
        assert!(
            b > Gwei::from_eth_u64(32),
            "full participants must earn rewards, balance = {b}"
        );
    }

    #[test]
    fn idle_validators_are_penalized() {
        let mut s = state(8);
        s.advance_epoch(None);
        s.advance_epoch(None);
        let b = s.balance(ValidatorIndex::new(0));
        assert!(
            b < Gwei::from_eth_u64(32),
            "idle validators must lose stake, balance = {b}"
        );
    }

    #[test]
    fn no_rewards_during_leak() {
        let mut s = state(8);
        // Drive into a leak with 8 idle epochs.
        for _ in 0..8 {
            s.advance_epoch(None);
        }
        assert!(s.is_in_inactivity_leak());
        // Now everyone participates fully for one epoch; during a leak the
        // reward must be zero (balance must not increase).
        let before = s.balance(ValidatorIndex::new(0));
        for i in 0..8u64 {
            s.merge_current_participation(ValidatorIndex::from(i), ParticipationFlags::all());
        }
        s.advance_epoch(None);
        let after = s.balance(ValidatorIndex::new(0));
        assert!(
            after <= before,
            "no attestation rewards during a leak: {before} → {after}"
        );
    }

    #[test]
    fn inactivity_penalty_matches_paper_equation_2() {
        // During a leak, an inactive validator with score I and effective
        // balance s loses exactly I*s/2^26 per epoch (plus flat
        // source+target penalties).
        let mut s = state(8);
        for _ in 0..10 {
            s.advance_epoch(None);
        }
        assert!(s.is_in_inactivity_leak());
        let idx = ValidatorIndex::new(0);
        let score = s.inactivity_score(idx);
        assert!(score > 0);
        let eff = s.validators()[0].effective_balance;
        let before = s.balance(idx);
        let base = base_reward(&s, idx).as_u64();
        let flat = base * 14 / 64 + base * 26 / 64; // source + target penalties
        s.advance_epoch(None);
        // score has grown by 4 during the epoch we just processed
        let expected_inactivity =
            (eff.as_u64() as u128 * (score + 4) as u128 / (1u128 << 26)) as u64;
        let after = s.balance(idx);
        let lost = before.as_u64() - after.as_u64();
        assert_eq!(lost, flat + expected_inactivity);
    }

    #[test]
    fn deltas_are_zero_for_exited_validators() {
        let mut s = state(8);
        s.validators_mut()[3].exit_epoch = Epoch::new(0);
        for _ in 0..6 {
            s.advance_epoch(None);
        }
        assert_eq!(s.balance(ValidatorIndex::new(3)), Gwei::from_eth_u64(32));
    }
}
