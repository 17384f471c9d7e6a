//! Protocol constants.
//!
//! The values follow the Ethereum consensus specification in its
//! Bellatrix-era configuration — the configuration in force when the paper
//! was written and the one its arithmetic assumes (the per-epoch inactivity
//! penalty `I·s / 2²⁶` corresponds to `INACTIVITY_SCORE_BIAS = 4` and
//! `INACTIVITY_PENALTY_QUOTIENT_BELLATRIX = 2²⁴`).

use serde::{Deserialize, Serialize};

use crate::units::Gwei;

/// Bundle of protocol constants used by the state transition and the
/// simulators.
///
/// Use [`ChainConfig::mainnet`] for paper-faithful numbers, or
/// [`ChainConfig::minimal`] for fast tests (shorter epochs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainConfig {
    // ── time ────────────────────────────────────────────────────────────
    /// Slots per epoch (mainnet: 32).
    pub slots_per_epoch: u64,
    /// Seconds per slot (mainnet: 12).
    pub seconds_per_slot: u64,

    // ── stake & effective balance ───────────────────────────────────────
    /// Cap on effective balance (mainnet: 32 ETH).
    pub max_effective_balance: Gwei,
    /// Granularity of effective balance (mainnet: 1 ETH).
    pub effective_balance_increment: Gwei,
    /// Validators whose effective balance falls to this value or below are
    /// ejected (mainnet: 16 ETH — reached when the actual balance drops
    /// below 16.75 ETH thanks to hysteresis).
    pub ejection_balance: Gwei,
    /// Hysteresis quotient for effective-balance updates (mainnet: 4).
    pub hysteresis_quotient: u64,
    /// Downward hysteresis multiplier (mainnet: 1 ⇒ −0.25 ETH threshold).
    pub hysteresis_downward_multiplier: u64,
    /// Upward hysteresis multiplier (mainnet: 5 ⇒ +1.25 ETH threshold).
    pub hysteresis_upward_multiplier: u64,

    // ── inactivity leak (paper §4) ──────────────────────────────────────
    /// Added to the inactivity score of an inactive validator each epoch
    /// (mainnet: 4 — the `+4` of paper Eq. 1).
    pub inactivity_score_bias: u64,
    /// Global score reduction applied each epoch outside a leak
    /// (mainnet: 16).
    pub inactivity_score_recovery_rate: u64,
    /// Inactivity penalty quotient (Bellatrix: 2²⁴). The effective
    /// per-epoch penalty divisor is `bias × quotient = 2²⁶`, matching the
    /// paper's Eq. 2.
    pub inactivity_penalty_quotient: u64,
    /// Number of epochs without finality before the leak starts
    /// (mainnet: 4).
    pub min_epochs_to_inactivity_penalty: u64,

    // ── slashing ────────────────────────────────────────────────────────
    /// Initial slashing penalty divisor (Bellatrix: 32).
    pub min_slashing_penalty_quotient: u64,
    /// Proportional (correlation) slashing multiplier (Bellatrix: 3).
    pub proportional_slashing_multiplier: u64,
    /// Length of the sliding slashings vector (mainnet: 8192 epochs).
    pub epochs_per_slashings_vector: u64,
    /// Whistleblower reward divisor (mainnet: 512).
    pub whistleblower_reward_quotient: u64,

    // ── rewards ─────────────────────────────────────────────────────────
    /// Base reward factor (mainnet: 64).
    pub base_reward_factor: u64,
    /// Altair participation weight for timely source votes (14).
    pub timely_source_weight: u64,
    /// Altair participation weight for timely target votes (26).
    pub timely_target_weight: u64,
    /// Altair participation weight for timely head votes (14).
    pub timely_head_weight: u64,
    /// Altair proposer weight (8).
    pub proposer_weight: u64,
    /// Altair weight denominator (64).
    pub weight_denominator: u64,

    // ── modelling switches ──────────────────────────────────────────────
    /// Inactivity-penalty semantics.
    ///
    /// * `false` (spec, Bellatrix): the penalty `I·s/2²⁶` applies **only
    ///   in epochs where the validator missed the timely-target flag**
    ///   (`get_inactivity_penalty_deltas`).
    /// * `true` (paper Eq. 2 / §4.3): the penalty applies **every epoch**
    ///   to any validator with a positive inactivity score.
    ///
    /// The two coincide for always-active and always-inactive validators
    /// but differ by a factor ~2 in the decay exponent for *semi-active*
    /// validators (paper: `e^(−3t²/2²⁸)`; spec: ≈ `e^(−3t²/2²⁹)`) — a
    /// divergence this reproduction documents in EXPERIMENTS.md. The
    /// paper's tables/figures are regenerated with `true`.
    pub paper_inactivity_penalties: bool,
}

impl ChainConfig {
    /// Mainnet (Bellatrix-era) constants — the configuration the paper
    /// analyses.
    pub fn mainnet() -> Self {
        ChainConfig {
            slots_per_epoch: 32,
            seconds_per_slot: 12,
            max_effective_balance: Gwei::from_eth_u64(32),
            effective_balance_increment: Gwei::from_eth_u64(1),
            ejection_balance: Gwei::from_eth_u64(16),
            hysteresis_quotient: 4,
            hysteresis_downward_multiplier: 1,
            hysteresis_upward_multiplier: 5,
            inactivity_score_bias: 4,
            inactivity_score_recovery_rate: 16,
            inactivity_penalty_quotient: 1 << 24,
            min_epochs_to_inactivity_penalty: 4,
            min_slashing_penalty_quotient: 32,
            proportional_slashing_multiplier: 3,
            epochs_per_slashings_vector: 8192,
            whistleblower_reward_quotient: 512,
            base_reward_factor: 64,
            timely_source_weight: 14,
            timely_target_weight: 26,
            timely_head_weight: 14,
            proposer_weight: 8,
            weight_denominator: 64,
            paper_inactivity_penalties: false,
        }
    }

    /// A reduced configuration for fast tests: 8-slot epochs, otherwise
    /// mainnet penalty arithmetic.
    pub fn minimal() -> Self {
        ChainConfig {
            slots_per_epoch: 8,
            ..ChainConfig::mainnet()
        }
    }

    /// The paper's modelling configuration: mainnet constants with
    /// attestation rewards/penalties switched off (`base_reward_factor =
    /// 0`).
    ///
    /// The paper's analysis keeps only the inactivity penalty (Eq. 2) and
    /// slashing: *"we focus on penalties predominant during the inactivity
    /// leak […] since during this period attestation penalties tend to be
    /// less significant"* (§6). On mainnet that holds because the base
    /// reward scales with `1/√total_stake` over ~10⁶ validators; in a
    /// small simulated registry the flat penalties would dominate, so this
    /// preset removes them — making simulated registries of any size match
    /// the paper's equations.
    pub fn paper() -> Self {
        ChainConfig {
            base_reward_factor: 0,
            paper_inactivity_penalties: true,
            ..ChainConfig::mainnet()
        }
    }

    /// The combined inactivity-penalty divisor: `bias × quotient`.
    ///
    /// With mainnet values this is `4 × 2²⁴ = 2²⁶`, the denominator of the
    /// paper's Eq. 2: the per-epoch penalty is
    /// `inactivity_score × balance / 2²⁶`.
    pub fn inactivity_penalty_denominator(&self) -> u64 {
        self.inactivity_score_bias * self.inactivity_penalty_quotient
    }

    /// Snaps an actual balance to an effective balance: floored to a whole
    /// effective-balance increment and capped at the maximum — the rule
    /// shared by deposit processing (spec `apply_deposit`) and the
    /// hysteresis update (spec `process_effective_balance_updates`).
    pub fn snapped_effective_balance(&self, balance: Gwei) -> Gwei {
        let increment = self.effective_balance_increment.as_u64();
        Gwei::new(balance.as_u64() - balance.as_u64() % increment).min(self.max_effective_balance)
    }
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig::mainnet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mainnet_leak_denominator_is_2_pow_26() {
        let c = ChainConfig::mainnet();
        assert_eq!(c.inactivity_penalty_denominator(), 1 << 26);
    }

    #[test]
    fn minimal_differs_only_in_epoch_length() {
        let m = ChainConfig::minimal();
        assert_eq!(m.slots_per_epoch, 8);
        assert_eq!(m.inactivity_penalty_denominator(), 1 << 26);
    }
}
