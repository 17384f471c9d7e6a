//! Single-branch cohort simulation: stake trajectories under a leak.
//!
//! Regenerates paper Figure 2: one chain stops finalizing (everyone not in
//! the "active" cohort is inactive *from this chain's point of view*), the
//! leak starts after 4 epochs, and each behaviour class traces its stake
//! curve with the spec's exact integer arithmetic.
//!
//! [`run_single_branch_on`] is generic over the [`StateBackend`]: on the
//! dense backend with classes of one member each it is the
//! per-validator O(n·epochs) reference; on
//! [`ethpos_state::CohortState`] the same schedule costs O(#classes) per
//! epoch, which is what lets the Figure 2 cross-check run at the paper's
//! true million-validator population.
//!
//! Its loop hands the classes a fixed behaviour schedule says attest to
//! [`StateBackend::advance_steady`], one quiet interval per call (the
//! compact cohort path), recording every epoch from the callback that
//! names the epoch's root (`None`): there is no adversary deciding
//! from an observed status and no checkpoint root to choose, so it is
//! the one epoch loop that does not go through the per-branch
//! [`kernel`](crate::kernel). It also records per-class trajectories,
//! which [`PartitionSim`](crate::PartitionSim) does not, so it stays a
//! free function rather than a `PartitionSim` constructor: folding it in
//! would make the runner branch on its caller.

use ethpos_state::{ClassSpec, StateBackend};
use ethpos_types::ChainConfig;

/// Per-epoch participation behaviour of a validator class (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Active every epoch (paper: constant stake).
    Active,
    /// Active every other epoch (paper: `s₀·e^(−3t²/2²⁸)`).
    SemiActive,
    /// Never active (paper: `s₀·e^(−t²/2²⁵)`).
    Inactive,
}

impl Behavior {
    /// Whether this behaviour attests (with a correct target) at `epoch`.
    pub fn participates(self, epoch: u64) -> bool {
        match self {
            Behavior::Active => true,
            Behavior::SemiActive => epoch.is_multiple_of(2),
            Behavior::Inactive => false,
        }
    }
}

/// The per-member stake trajectory of one behaviour class (every member
/// of a class follows the same integer trajectory).
#[derive(Debug, Clone)]
pub struct ClassTrajectory {
    /// The behaviour simulated.
    pub behavior: Behavior,
    /// Members in the class.
    pub count: u64,
    /// Per-member balance in Gwei at the start of each epoch.
    pub balance_gwei: Vec<u64>,
    /// Per-member inactivity score at the start of each epoch.
    pub inactivity_score: Vec<u64>,
    /// First epoch at which the class was ejected, if any.
    pub ejected_at: Option<u64>,
}

/// Runs a single branch for `epochs` epochs with one behaviour class per
/// entry of `classes` (`(behavior, member count)`), never letting the
/// branch finalize as long as the active classes stay below ⅔ of the
/// stake, and returns each class's per-member trajectory.
///
/// # Example
///
/// The Figure 2 mix at Ethereum scale on the cohort backend:
///
/// ```
/// use ethpos_sim::{run_single_branch_on, Behavior};
/// use ethpos_state::CohortState;
/// use ethpos_types::ChainConfig;
///
/// let classes = [
///     (Behavior::Active, 100_000),
///     (Behavior::SemiActive, 100_000),
///     (Behavior::Inactive, 800_000),
/// ];
/// let t = run_single_branch_on::<CohortState>(ChainConfig::paper(), &classes, 64);
/// assert_eq!(t[0].count, 100_000);
/// // The inactive class is already losing stake to the leak.
/// assert!(t[2].balance_gwei.last() < t[2].balance_gwei.first());
/// ```
pub fn run_single_branch_on<B: StateBackend>(
    config: ChainConfig,
    classes: &[(Behavior, u64)],
    epochs: u64,
) -> Vec<ClassTrajectory> {
    let specs: Vec<ClassSpec> = classes
        .iter()
        .map(|&(_, count)| ClassSpec::full_stake(count, &config))
        .collect();
    let mut state = B::from_classes(config, &specs);

    let mut trajectories: Vec<ClassTrajectory> = classes
        .iter()
        .map(|&(behavior, count)| ClassTrajectory {
            behavior,
            count,
            balance_gwei: Vec::with_capacity(epochs as usize + 1),
            inactivity_score: Vec::with_capacity(epochs as usize + 1),
            ejected_at: None,
        })
        .collect();

    let record = |state: &B, trajectories: &mut Vec<ClassTrajectory>, epoch: u64| {
        for (c, t) in trajectories.iter_mut().enumerate() {
            let floor = state
                .class_floor(c)
                .expect("classes are non-empty for the whole run");
            t.balance_gwei.push(floor.balance.as_u64());
            t.inactivity_score.push(floor.inactivity_score);
            if t.ejected_at.is_none() && floor.has_exited_by(state.current_epoch()) {
                t.ejected_at = Some(epoch);
            }
        }
    };

    let mut epoch = 0;
    while epoch < epochs {
        epoch += B::advance_steady(
            &mut [&mut state],
            |_, epoch, c| classes[c].0.participates(epoch),
            |_, state| {
                record(state, &mut trajectories, state.current_epoch().as_u64());
                None
            },
            epochs - epoch,
        );
    }
    record(&state, &mut trajectories, epochs);
    trajectories
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_state::{CohortState, DenseState};
    use ethpos_types::Gwei;

    /// One validator per class: one of each tracked behaviour + inactive
    /// filler so the active cohort stays far below 2/3 (leak persists).
    fn mainnet_mix() -> Vec<(Behavior, u64)> {
        let mut v = vec![Behavior::Active, Behavior::SemiActive, Behavior::Inactive];
        v.extend(std::iter::repeat_n(Behavior::Inactive, 7));
        v.into_iter().map(|b| (b, 1)).collect()
    }

    fn per_validator(config: ChainConfig, epochs: u64) -> Vec<ClassTrajectory> {
        run_single_branch_on::<DenseState>(config, &mainnet_mix(), epochs)
    }

    #[test]
    fn active_validator_keeps_stake_during_leak() {
        let t = per_validator(ChainConfig::mainnet(), 200);
        let active = &t[0];
        // During the leak active validators get neither rewards nor
        // penalties (paper: constant stake). The handful of pre-leak
        // epochs pays out small attestation rewards, so the balance is
        // ≥ 32 ETH but only barely above it.
        let last = *active.balance_gwei.last().unwrap();
        assert!(last >= Gwei::from_eth_u64(32).as_u64());
        assert!(last <= Gwei::from_eth_f64(32.05).as_u64(), "got {last}");
        // and it is constant across the leak
        assert_eq!(active.balance_gwei[50], last);
        assert_eq!(active.ejected_at, None);
    }

    #[test]
    fn inactive_decays_faster_than_semi_active() {
        let t = per_validator(ChainConfig::paper(), 500);
        let semi = *t[1].balance_gwei.last().unwrap();
        let inactive = *t[2].balance_gwei.last().unwrap();
        assert!(
            inactive < semi,
            "inactive ({inactive}) must decay faster than semi-active ({semi})"
        );
        assert!(semi < Gwei::from_eth_u64(32).as_u64());
    }

    #[test]
    fn inactive_stake_tracks_paper_curve() {
        // Paper: s(t) = 32·exp(−t²/2²⁵). At t = 1000:
        // 32·exp(−10⁶/2²⁵) ≈ 32·0.9706 ≈ 31.06 ETH. The spec's integer
        // arithmetic with effective-balance hysteresis tracks this within
        // ~2%.
        let t = per_validator(ChainConfig::paper(), 1000);
        let inactive_eth = *t[2].balance_gwei.last().unwrap() as f64 / 1e9;
        let paper = 32.0 * (-(1000.0f64 * 1000.0) / 2f64.powi(25)).exp();
        let rel = (inactive_eth - paper).abs() / paper;
        assert!(
            rel < 0.02,
            "discrete {inactive_eth:.3} vs continuous {paper:.3} (rel {rel:.4})"
        );
    }

    #[test]
    fn inactivity_scores_match_paper_rates() {
        let t = per_validator(ChainConfig::paper(), 100);
        // Paper: inactive score grows 4/epoch, semi-active 3 per 2 epochs.
        // The leak starts after min_epochs_to_inactivity_penalty; scores
        // before it are clamped by the recovery rate.
        let semi = *t[1].inactivity_score.last().unwrap();
        let inactive = *t[2].inactivity_score.last().unwrap();
        assert!(inactive > 4 * 80, "inactive score too low: {inactive}");
        assert!(inactive <= 4 * 100);
        let expected_semi = 3 * 100 / 2;
        let dev = (semi as i64 - expected_semi as i64).abs();
        assert!(dev < 20, "semi score {semi} vs expected ≈{expected_semi}");
    }

    #[test]
    fn ejection_epoch_close_to_paper() {
        // Paper Figure 2: inactive validators ejected at epoch 4685 (the
        // continuous model's own root is 4660.6; the spec's hysteresis
        // makes the discrete value land slightly later). Accept 4600–4750.
        let t = per_validator(ChainConfig::paper(), 4800);
        let ej = t[2].ejected_at.expect("inactive validator must be ejected");
        assert!(
            (4600..=4750).contains(&ej),
            "inactive ejection at {ej}, expected ≈4685"
        );
        // Semi-active must not be ejected yet at 4800 (paper: 7652).
        assert_eq!(t[1].ejected_at, None);
    }

    /// The generic class runner on both backends reproduces the
    /// per-validator reference trajectories value-for-value.
    #[test]
    fn class_runner_matches_per_validator_reference() {
        let reference = per_validator(ChainConfig::paper(), 300);
        let classes = [
            (Behavior::Active, 1),
            (Behavior::SemiActive, 1),
            (Behavior::Inactive, 8),
        ];
        let dense = run_single_branch_on::<DenseState>(ChainConfig::paper(), &classes, 300);
        let cohort = run_single_branch_on::<CohortState>(ChainConfig::paper(), &classes, 300);
        for (c, (d, k)) in dense.iter().zip(cohort.iter()).enumerate() {
            assert_eq!(d.balance_gwei, k.balance_gwei, "class {c} balances");
            assert_eq!(d.inactivity_score, k.inactivity_score, "class {c} scores");
            assert_eq!(d.ejected_at, k.ejected_at, "class {c} ejection");
            assert_eq!(d.balance_gwei, reference[c].balance_gwei, "class {c} ref");
        }
    }
}
