//! Slashing: the initial penalty and the epoch-wise correlation penalty.
//!
//! The paper's scenario 5.2.1 has Byzantine validators attest on both
//! branches of a fork — a *double vote*. Once the partition heals and the
//! evidence is included, every indicted validator is slashed: ejected
//! from the registry with an immediate penalty of `effective_balance/32`
//! and a later correlation penalty scaled by how much stake was slashed in
//! the surrounding window.

use ethpos_types::{Gwei, ValidatorIndex};

use crate::beacon_state::BeaconState;
use crate::validator::FAR_FUTURE_EPOCH;

impl BeaconState {
    /// Slashes `index` (spec `slash_validator`): marks it slashed, exits
    /// it, schedules its withdrawable epoch a full slashings-vector away,
    /// records its effective balance in the slashings ring and applies the
    /// immediate `eff/MIN_SLASHING_PENALTY_QUOTIENT` penalty.
    ///
    /// Returns the immediate penalty applied.
    pub fn slash_validator(&mut self, index: ValidatorIndex) -> Gwei {
        let current_epoch = self.current_epoch();
        let vector = self.config().epochs_per_slashings_vector;
        let quotient = self.config().min_slashing_penalty_quotient;

        let (eff, already) = {
            let v = &self.validators()[index.as_usize()];
            (v.effective_balance, v.slashed)
        };
        if already {
            return Gwei::ZERO;
        }

        {
            let v = &mut self.validators_mut()[index.as_usize()];
            v.slashed = true;
            if v.exit_epoch == FAR_FUTURE_EPOCH {
                v.exit_epoch = current_epoch + 1;
            }
            let min_withdrawable = current_epoch + vector;
            if v.withdrawable_epoch == FAR_FUTURE_EPOCH || v.withdrawable_epoch < min_withdrawable {
                v.withdrawable_epoch = min_withdrawable;
            }
        }

        let ring_len = vector as usize;
        let idx = (current_epoch.as_u64() % vector) as usize;
        debug_assert!(idx < ring_len);
        self.slashings_ring()[idx] += eff;

        let penalty = eff.integer_div(quotient);
        self.decrease_balance(index, penalty);
        penalty
    }

    /// Spec `process_slashings`: at the halfway point of a validator's
    /// withdrawability delay, applies the correlation penalty
    /// `eff × min(3·total_slashed, total_balance) / total_balance`
    /// (increment-floored).
    pub fn process_slashings(&mut self) {
        let epoch = self.current_epoch();
        let vector = self.config().epochs_per_slashings_vector;
        let multiplier = self.config().proportional_slashing_multiplier;
        let increment = self.config().effective_balance_increment.as_u64();

        let total_balance = self.total_active_balance().as_u64();
        let adjusted =
            (self.slashings_sum().as_u64().saturating_mul(multiplier)).min(total_balance);
        if adjusted == 0 {
            return;
        }

        let targets: Vec<(ValidatorIndex, u64)> = self
            .validators()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.slashed && epoch + vector / 2 == v.withdrawable_epoch)
            .map(|(i, v)| (ValidatorIndex::from(i), v.effective_balance.as_u64()))
            .collect();

        for (index, eff) in targets {
            let penalty_numerator = (eff / increment) as u128 * adjusted as u128;
            let penalty = (penalty_numerator / total_balance as u128) as u64 * increment;
            self.decrease_balance(index, Gwei::new(penalty));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_types::{ChainConfig, Epoch};

    fn state(n: usize) -> BeaconState {
        BeaconState::genesis(ChainConfig::minimal(), n)
    }

    #[test]
    fn slash_applies_immediate_penalty_and_exit() {
        let mut s = state(8);
        let idx = ValidatorIndex::new(2);
        let penalty = s.slash_validator(idx);
        assert_eq!(penalty, Gwei::from_eth_u64(1)); // 32/32
        assert_eq!(s.balance(idx), Gwei::from_eth_u64(31));
        let v = &s.validators()[2];
        assert!(v.slashed);
        assert_eq!(v.exit_epoch, Epoch::new(1));
        assert_eq!(v.withdrawable_epoch, Epoch::new(8192));
    }

    #[test]
    fn double_slash_is_noop() {
        let mut s = state(8);
        let idx = ValidatorIndex::new(2);
        s.slash_validator(idx);
        let again = s.slash_validator(idx);
        assert_eq!(again, Gwei::ZERO);
        assert_eq!(s.balance(idx), Gwei::from_eth_u64(31));
    }

    #[test]
    fn correlation_penalty_applies_exactly_at_halfway_window() {
        let mut s = state(8);
        let idx = ValidatorIndex::new(0);
        s.slash_validator(idx);
        // Rig the withdrawable epoch so the halfway condition holds *now*:
        // epoch (0) + vector/2 == withdrawable.
        let half = s.config().epochs_per_slashings_vector / 2;
        s.validators_mut()[0].withdrawable_epoch = Epoch::new(half);
        let before = s.balance(idx);
        s.process_slashings();
        let after = s.balance(idx);
        assert!(
            after < before,
            "correlation penalty must apply: {before} → {after}"
        );
        // One epoch off: no penalty.
        let idx2 = ValidatorIndex::new(1);
        s.slash_validator(idx2);
        s.validators_mut()[1].withdrawable_epoch = Epoch::new(half + 1);
        let before2 = s.balance(idx2);
        s.process_slashings();
        assert_eq!(s.balance(idx2), before2);
    }

    #[test]
    fn correlation_penalty_formula() {
        // With 1/3 of the stake slashed, multiplier 3 ⇒ adjusted = total,
        // so the penalty equals the full effective balance.
        let mut s = state(3);
        s.slash_validator(ValidatorIndex::new(0));
        let total = s.total_active_balance().as_u64();
        let adjusted = (s.slashings_sum().as_u64() * 3).min(total);
        // one of three validators slashed (total_active excludes it next
        // epoch, but at this epoch it is still counted active)
        assert_eq!(adjusted, 3 * Gwei::from_eth_u64(32).as_u64());
        assert_eq!(adjusted, total);
    }
}
