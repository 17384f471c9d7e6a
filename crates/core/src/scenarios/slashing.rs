//! §5.2.1 — Byzantine validators active on both branches (slashable).
//!
//! Byzantine validators (proportion `β0`) attest on **both** branches
//! every epoch; while the partition hides the equivocation evidence they
//! cannot be punished. The active ratio on the branch holding a
//! proportion `p0` of the honest validators becomes (Eq. 8):
//!
//! ```text
//! ratio(t) = (p0(1−β0) + β0) / (p0(1−β0) + β0 + (1−p0)(1−β0)·e^(−t²/2²⁵))
//! ```
//!
//! and the ⅔ threshold is crossed at (Eq. 9):
//!
//! ```text
//! t = min(√(2²⁵·[ln(2(1−p0)) − ln(p0 + β0/(1−β0))]), 4685)
//! ```

use serde::Serialize;

use crate::stake_model::PAPER_EJECT_INACTIVE;

/// Eq. 8: active-stake ratio with dual-active Byzantine validators.
pub fn active_ratio(p0: f64, beta0: f64, t: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p0));
    assert!((0.0..1.0).contains(&beta0));
    if t >= PAPER_EJECT_INACTIVE {
        return 1.0;
    }
    let decay = (-t * t / 2f64.powi(25)).exp();
    let active = p0 * (1.0 - beta0) + beta0;
    active / (active + (1.0 - p0) * (1.0 - beta0) * decay)
}

/// Eq. 9: epoch at which the branch with honest proportion `p0` reaches
/// ⅔ under the slashable strategy (0 if immediate, capped at 4685).
pub fn two_thirds_epoch(p0: f64, beta0: f64) -> f64 {
    assert!(p0 > 0.0 && p0 < 1.0);
    assert!((0.0..1.0).contains(&beta0));
    let inner = p0 + beta0 / (1.0 - beta0);
    let arg = (2.0 * (1.0 - p0)).ln() - inner.ln();
    if arg <= 0.0 {
        return 0.0;
    }
    (2f64.powi(25) * arg).sqrt().min(PAPER_EJECT_INACTIVE)
}

/// Conflicting finalization epoch: the slower of the two branches.
pub fn conflicting_finalization_epoch(p0: f64, beta0: f64) -> f64 {
    two_thirds_epoch(p0, beta0).max(two_thirds_epoch(1.0 - p0, beta0))
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table2Row {
    /// Initial Byzantine proportion.
    pub beta0: f64,
    /// Epoch of finalization on conflicting branches (Eq. 9, rounded up
    /// like the paper).
    pub t: u64,
}

/// Regenerates Table 2 (p0 = 0.5): epoch of conflicting finalization per
/// initial Byzantine proportion, slashable strategy.
pub fn table2() -> Vec<Table2Row> {
    [0.0, 0.1, 0.15, 0.2, 0.33]
        .into_iter()
        .map(|beta0| Table2Row {
            beta0,
            t: conflicting_finalization_epoch(0.5, beta0).ceil() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The post-GST aftermath of the slashable strategy (paper §5.2.1: *"they
    /// will get ejected from the set of validators once communication is
    /// restored and evidence of their slashable offense is included in a
    /// block"*).
    #[derive(Debug)]
    struct SlashingAftermath {
        /// Number of Byzantine validators slashed.
        slashed: usize,
        /// Total immediate penalty collected (Gwei): `eff/32` each.
        immediate_penalty_gwei: u64,
        /// Total correlation penalty collected at the halfway window (Gwei).
        correlation_penalty_gwei: u64,
        /// Remaining average Byzantine balance after both penalties (ETH).
        remaining_balance_eth: f64,
        /// Whether every slashed validator exited the active set.
        all_exited: bool,
    }

    /// Simulates the aftermath: once the partition heals, equivocation
    /// evidence slashes every Byzantine validator; the immediate `eff/32`
    /// penalty applies at inclusion and the correlation penalty at the
    /// halfway point of the withdrawability delay. With β₀ of the stake
    /// slashed in one window, the correlation penalty is
    /// `min(3·β₀, 1)·eff` — a full wipe-out for β₀ ≥ ⅓.
    fn slashing_aftermath(n: usize, byzantine: usize) -> SlashingAftermath {
        use ethpos_state::BeaconState;
        use ethpos_types::{ChainConfig, Epoch, ValidatorIndex};

        let config = ChainConfig::paper();
        let vector = config.epochs_per_slashings_vector;
        let mut state = BeaconState::genesis(config, n);

        let mut immediate = 0u64;
        for i in 0..byzantine {
            immediate += state.slash_validator(ValidatorIndex::from(i)).as_u64();
        }
        let before: u64 = (0..byzantine)
            .map(|i| state.balance(ValidatorIndex::from(i)).as_u64())
            .sum();

        // Advance to just past the correlation window (epoch + vector/2 ==
        // withdrawable), keeping the healthy (honest) chain finalizing so no
        // new leak starts: mark every honest validator timely each epoch.
        use ethpos_state::participation::TIMELY_TARGET_FLAG_INDEX;
        let mut flags = ethpos_state::ParticipationFlags::EMPTY;
        flags.set(TIMELY_TARGET_FLAG_INDEX);
        let target = Epoch::new(vector / 2 + 1);
        while state.current_epoch() < target {
            for i in byzantine..n {
                state.merge_current_participation(ValidatorIndex::from(i), flags);
            }
            state.advance_epoch(None);
        }

        let after: u64 = (0..byzantine)
            .map(|i| state.balance(ValidatorIndex::from(i)).as_u64())
            .sum();
        let all_exited =
            (0..byzantine).all(|i| state.validators()[i].has_exited_by(state.current_epoch()));

        SlashingAftermath {
            slashed: byzantine,
            immediate_penalty_gwei: immediate,
            correlation_penalty_gwei: before - after,
            remaining_balance_eth: after as f64 / 1e9 / byzantine.max(1) as f64,
            all_exited,
        }
    }

    /// Pins every row of the paper's Table 2.
    #[test]
    fn table2_matches_paper() {
        let rows = table2();
        let expected: [(f64, u64); 5] = [
            (0.0, 4685),
            (0.1, 4066),
            (0.15, 3622),
            (0.2, 3107),
            (0.33, 502),
        ];
        for (row, (beta0, t)) in rows.iter().zip(expected) {
            assert_eq!(row.beta0, beta0);
            assert_eq!(row.t, t, "β0 = {beta0}: got {}, paper says {t}", row.t);
        }
    }

    #[test]
    fn ratio_reduces_to_honest_case_at_beta_zero() {
        for t in [0.0, 500.0, 2000.0] {
            let with = active_ratio(0.4, 0.0, t);
            let honest = crate::scenarios::honest::active_ratio(0.4, t);
            assert!((with - honest).abs() < 1e-12);
        }
    }

    #[test]
    fn byzantine_help_accelerates_threshold() {
        let t0 = two_thirds_epoch(0.5, 0.0);
        let t1 = two_thirds_epoch(0.5, 0.2);
        let t2 = two_thirds_epoch(0.5, 0.3);
        assert!(t1 < t0);
        assert!(t2 < t1);
    }

    #[test]
    fn beta_exactly_one_third_is_immediate() {
        // p0(1−β)+β = 0.5·(2/3)+1/3 = 2/3 ⇒ immediate finalization.
        let t = two_thirds_epoch(0.5, 1.0 / 3.0);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn conflicting_uses_slower_branch() {
        // p0 = 0.7: branch A immediate, branch B (0.3) slow.
        let t = conflicting_finalization_epoch(0.7, 0.1);
        assert_eq!(t, two_thirds_epoch(0.3, 0.1));
        assert!(t > 0.0);
    }

    #[test]
    fn aftermath_one_third_is_wiped_out() {
        // β0 = 1/3 slashed in one window ⇒ correlation multiplier
        // min(3·(1/3), 1) wipes the entire effective balance.
        let a = slashing_aftermath(30, 10);
        assert_eq!(a.slashed, 10);
        assert!(a.all_exited, "slashed validators must exit");
        // immediate penalty: 1 ETH each
        assert_eq!(a.immediate_penalty_gwei, 10 * 1_000_000_000);
        // correlation penalty leaves essentially nothing
        assert!(
            a.remaining_balance_eth < 0.5,
            "remaining = {} ETH",
            a.remaining_balance_eth
        );
    }

    #[test]
    fn aftermath_small_fraction_keeps_most_stake() {
        // A lone slashed validator (β0 = 1/30): the correlation penalty is
        // eff · min(3·slashed_fraction, 1) ≈ 31 · 3 · 32/928 ≈ 3.2 ETH
        // (increment-floored to 3), so most of the stake survives.
        let a = slashing_aftermath(30, 1);
        assert!(a.all_exited);
        assert_eq!(a.immediate_penalty_gwei, 1_000_000_000);
        assert_eq!(a.correlation_penalty_gwei, 3_000_000_000);
        assert!((a.remaining_balance_eth - 28.0).abs() < 0.01);
    }

    #[test]
    fn ratio_is_monotone_in_time_and_beta() {
        for &beta in &[0.0, 0.1, 0.2, 0.3] {
            assert!(active_ratio(0.5, beta, 100.0) < active_ratio(0.5, beta, 1000.0));
        }
        for &t in &[100.0, 1000.0] {
            assert!(active_ratio(0.5, 0.1, t) < active_ratio(0.5, 0.3, t));
        }
    }
}
