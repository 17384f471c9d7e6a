//! Validator registry records.

use serde::{Deserialize, Serialize};

use ethpos_types::{Epoch, Gwei};

/// Sentinel for "no scheduled epoch" (spec `FAR_FUTURE_EPOCH`).
pub(crate) const FAR_FUTURE_EPOCH: Epoch = Epoch::new(u64::MAX);

/// One entry of the validator registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Validator {
    /// Compact public key identifier (derived in `ethpos-crypto`).
    pub pubkey: u64,
    /// Effective balance: the actual balance rounded to 1-ETH increments
    /// with hysteresis; the value all voting power and penalties use.
    pub effective_balance: Gwei,
    /// Whether the validator has been slashed.
    pub slashed: bool,
    /// First epoch of activity.
    pub activation_epoch: Epoch,
    /// Epoch at which the validator exits (or `FAR_FUTURE_EPOCH`).
    pub exit_epoch: Epoch,
    /// Epoch after which the stake is withdrawable (used by the
    /// correlation-slashing penalty window).
    pub withdrawable_epoch: Epoch,
}

impl Validator {
    /// A genesis validator with a full 32-ETH effective balance.
    pub fn genesis(pubkey: u64, max_effective_balance: Gwei) -> Self {
        Validator {
            pubkey,
            effective_balance: max_effective_balance,
            slashed: false,
            activation_epoch: Epoch::GENESIS,
            exit_epoch: FAR_FUTURE_EPOCH,
            withdrawable_epoch: FAR_FUTURE_EPOCH,
        }
    }

    /// True if the validator is in the active set at `epoch`
    /// (`activation ≤ epoch < exit`).
    pub fn is_active_at(&self, epoch: Epoch) -> bool {
        self.activation_epoch <= epoch && epoch < self.exit_epoch
    }

    /// True if the validator has exited (at any epoch ≤ `epoch`).
    pub fn has_exited_by(&self, epoch: Epoch) -> bool {
        self.exit_epoch <= epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> Validator {
        Validator::genesis(7, Gwei::from_eth_u64(32))
    }

    #[test]
    fn genesis_validator_is_active() {
        let val = v();
        assert!(val.is_active_at(Epoch::new(0)));
        assert!(val.is_active_at(Epoch::new(10_000)));
        assert!(!val.has_exited_by(Epoch::new(10_000)));
    }

    #[test]
    fn exited_validator_is_inactive() {
        let mut val = v();
        val.exit_epoch = Epoch::new(5);
        assert!(val.is_active_at(Epoch::new(4)));
        assert!(!val.is_active_at(Epoch::new(5)));
        assert!(val.has_exited_by(Epoch::new(5)));
    }

    #[test]
    fn not_yet_activated_is_inactive() {
        let mut val = v();
        val.activation_epoch = Epoch::new(3);
        assert!(!val.is_active_at(Epoch::new(2)));
        assert!(val.is_active_at(Epoch::new(3)));
    }
}
