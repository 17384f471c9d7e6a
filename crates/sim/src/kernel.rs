//! The per-branch epoch kernel: the one way an epoch-level engine moves
//! a branch state through an epoch, and the one fold of a branch's
//! lifetime outcome.
//!
//! Every §5 scenario has the same shape: each branch leaks on its own,
//! and one coordinated adversary picks, each epoch, where to attest from
//! what it sees on every branch. So an engine is "for each branch
//! [`observe`]; decide; for each branch [`advance`] and
//! [`BranchFold::push`]", composed three ways:
//!
//! * [`PartitionSim::step`](crate::PartitionSim::step) — k live branches
//!   with churn draws and the safety monitor, which the paper scenarios
//!   drive over their two-branch timelines;
//! * the search memo's gene streams — one branch under a duty cycle;
//! * the search memo's dwell continuations — two branches under a full
//!   schedule.
//!
//! The caller owns every buffer and the checkpoint root of each advance
//! (the partition engine names each branch's block by branch and epoch,
//! which the state hashes only if justification needs it; the memo
//! labels epochs).
//!
//! [`observe`] takes the caller's draws, so an engine calls it for its
//! branches one at a time, in a fixed order. [`advance`] draws nothing
//! and touches only its own branch, which lets `PartitionSim::step` run
//! an epoch's advances concurrently; [`BranchFold::push`] then runs in
//! branch-id order once they have all returned.

use serde::Serialize;

use crate::byzantine::BranchStatus;
use ethpos_state::{ParticipationFlags, RootLabel, StateBackend};
use ethpos_stats::PreparedBinomial;
use ethpos_types::BranchId;

/// Class index of the Byzantine cohort in every engine's class layout
/// (the honest classes follow it).
pub const BYZANTINE_CLASS: usize = 0;

/// Per-branch metrics captured at the end of an epoch.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BranchEpochStats {
    /// Active-stake ratio of this epoch's attesters (honest + Byzantine if
    /// they attested) over the total active stake — the paper's Eq. 5/8/10
    /// ratio.
    pub active_ratio: f64,
    /// Byzantine proportion of the total active stake — the paper's
    /// Eq. 11 β(t).
    pub byzantine_proportion: f64,
    /// Justified epoch of the branch state.
    pub justified_epoch: u64,
    /// Finalized epoch of the branch state.
    pub finalized_epoch: u64,
    /// Total active effective stake (Gwei).
    pub total_active_stake: u64,
    /// Number of ejected (exited) honest validators.
    pub ejected_honest: usize,
    /// Number of ejected (exited) Byzantine validators.
    pub ejected_byzantine: usize,
}

/// Marks one branch's honest attesters for `epoch` — the `pinned`
/// classes whole, then each `churned` class by per-cohort count draws
/// (`draw(law, cohort_size)` returns how many of the cohort attest) —
/// and reads the adversary's view of the branch with one
/// [`StateBackend::observe`] walk.
///
/// Returns the branch's [`BranchStatus`] and its exited
/// `(honest, Byzantine)` member counts. Byzantine marking touches only
/// participation flags, so [`advance`] cuts the epoch's stats from this
/// same read.
pub fn observe<B: StateBackend>(
    state: &mut B,
    branch: BranchId,
    epoch: u64,
    pinned: &[usize],
    churned: &[(usize, PreparedBinomial)],
    mut draw: impl FnMut(&PreparedBinomial, u64) -> u64,
) -> (BranchStatus, (u64, u64)) {
    let flags = ParticipationFlags::all();
    for &class in pinned {
        state.mark_class(class, flags);
    }
    for (class, law) in churned {
        state.mark_class_counted(*class, flags, &mut |count| draw(law, count));
    }
    let seen = state.observe(BYZANTINE_CLASS);
    let status = BranchStatus {
        branch,
        epoch,
        total_active_stake: seen.total_active.as_u64(),
        honest_active_stake: seen.current_target.as_u64(),
        byzantine_stake: seen.class.active_stake.as_u64(),
        justified_epoch: state.current_justified_checkpoint().epoch.as_u64(),
        finalized_epoch: state.finalized_checkpoint().epoch.as_u64(),
    };
    (status, (seen.exited_elsewhere, seen.class.exited))
}

/// Marks the Byzantine class if it attests here (`byzantine`), runs the
/// epoch transition under checkpoint root `root`, and returns the epoch's
/// stats: ratios and exits from what [`observe`] returned (`status`,
/// `ejected`), checkpoints from the advanced state.
pub fn advance<B: StateBackend>(
    state: &mut B,
    status: &BranchStatus,
    ejected: (u64, u64),
    byzantine: bool,
    root: RootLabel,
) -> BranchEpochStats {
    if byzantine {
        state.mark_class(BYZANTINE_CLASS, ParticipationFlags::all());
    }
    state.advance_epoch(Some(root));
    // The total is floored at one increment; the `max` only keeps a
    // hand-made zero total from dividing by zero (its stakes are zero).
    let total = status.total_active_stake;
    let share = |stake: u64| stake as f64 / total.max(1) as f64;
    let byzantine_attesting = if byzantine { status.byzantine_stake } else { 0 };
    BranchEpochStats {
        active_ratio: share(status.honest_active_stake + byzantine_attesting),
        byzantine_proportion: share(status.byzantine_stake),
        justified_epoch: state.current_justified_checkpoint().epoch.as_u64(),
        finalized_epoch: state.finalized_checkpoint().epoch.as_u64(),
        total_active_stake: total,
        ejected_honest: ejected.0 as usize,
        ejected_byzantine: ejected.1 as usize,
    }
}

/// One branch's lifetime outcome, folded epoch by epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BranchFold {
    /// First epoch at which the Byzantine proportion exceeded ⅓ — the
    /// paper's Safety loss №2.
    pub byzantine_exceeds_third_epoch: Option<u64>,
    /// Maximum Byzantine proportion observed.
    pub max_byzantine_proportion: f64,
    /// First epoch whose advance finalized a checkpoint beyond genesis.
    pub first_finalization_epoch: Option<u64>,
    /// First epoch after which the **whole** Byzantine class had exited
    /// (never set for an empty class).
    pub byzantine_exit_epoch: Option<u64>,
}

impl BranchFold {
    /// Folds in `epoch` (epochs arrive in order): `stats` as [`advance`]
    /// returned them, `state` the advanced branch state. The Byzantine
    /// class is read only until its exit epoch is known.
    pub fn push<B: StateBackend>(&mut self, epoch: u64, stats: &BranchEpochStats, state: &B) {
        let proportion = stats.byzantine_proportion;
        self.max_byzantine_proportion = self.max_byzantine_proportion.max(proportion);
        if self.byzantine_exceeds_third_epoch.is_none() && proportion > 1.0 / 3.0 {
            self.byzantine_exceeds_third_epoch = Some(epoch);
        }
        if self.first_finalization_epoch.is_none() && stats.finalized_epoch > 0 {
            self.first_finalization_epoch = Some(epoch);
        }
        if self.byzantine_exit_epoch.is_none() {
            let byzantine = state.class_stats(BYZANTINE_CLASS);
            if byzantine.total > 0 && byzantine.exited == byzantine.total {
                self.byzantine_exit_epoch = Some(epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_state::ClassSpec;
    use ethpos_state::DenseState;
    use ethpos_types::{ChainConfig, Gwei, Root};

    /// A genesis state with the Byzantine class (class 0) and one honest
    /// class (class 1) of the given sizes.
    fn genesis(chain: ChainConfig, byzantine: u64, honest: u64) -> DenseState {
        let classes = [byzantine, honest].map(|count| ClassSpec::full_stake(count, &chain));
        DenseState::from_classes(chain, &classes)
    }

    /// One kernel epoch of the fixed two-class layout: honest class 1
    /// attests, the Byzantine class as `byzantine` says.
    fn step(
        state: &mut DenseState,
        epoch: u64,
        byzantine: bool,
    ) -> (BranchStatus, BranchEpochStats) {
        let (status, ejected) = observe(state, BranchId::GENESIS, epoch, &[1], &[], |_, _| 0);
        let stats = advance(
            state,
            &status,
            ejected,
            byzantine,
            Root::from_u64(epoch + 1).into(),
        );
        (status, stats)
    }

    /// A proportion of exactly ⅓ is not "above ⅓"; one Gwei more is.
    #[test]
    fn third_is_exceeded_only_strictly() {
        let third = Gwei::from_eth_u64(32).as_u64();
        for (byzantine_stake, exceeds) in [(third, None), (third + 1, Some(7))] {
            let mut state = genesis(ChainConfig::paper(), 1, 2);
            let status = BranchStatus {
                branch: BranchId::GENESIS,
                epoch: 7,
                total_active_stake: 3 * third,
                honest_active_stake: 0,
                byzantine_stake,
                justified_epoch: 0,
                finalized_epoch: 0,
            };
            let stats = advance(&mut state, &status, (0, 0), false, Root::from_u64(8).into());
            let mut fold = BranchFold::default();
            fold.push(7, &stats, &state);
            assert_eq!(
                fold.byzantine_exceeds_third_epoch, exceeds,
                "{byzantine_stake}"
            );
            assert_eq!(fold.max_byzantine_proportion, stats.byzantine_proportion);
        }
    }

    /// The first finalization is the epoch whose *advance* finalized: the
    /// view entering it had not finalized, the state leaving it has.
    #[test]
    fn finalization_is_read_after_the_advance() {
        let mut state = genesis(ChainConfig::paper(), 0, 4);
        let mut fold = BranchFold::default();
        for epoch in 0..8 {
            let (status, stats) = step(&mut state, epoch, false);
            fold.push(epoch, &stats, &state);
            if state.finalized_checkpoint().epoch.as_u64() > 0 {
                assert_eq!(status.finalized_epoch, 0);
                assert_eq!(fold.first_finalization_epoch, Some(epoch));
                return;
            }
            assert_eq!(fold.first_finalization_epoch, None);
        }
        panic!("an all-honest branch finalizes within 8 epochs");
    }

    /// A branch without Byzantine validators never reports their exit.
    #[test]
    fn empty_byzantine_class_never_exits() {
        let mut state = genesis(ChainConfig::paper(), 0, 4);
        let mut fold = BranchFold::default();
        for epoch in 0..4 {
            let (_, stats) = step(&mut state, epoch, true);
            fold.push(epoch, &stats, &state);
        }
        assert_eq!(fold.byzantine_exit_epoch, None);
    }

    /// The exit epoch is the first epoch after which *every* Byzantine
    /// member has exited: with the ejection floor at 31 ETH, two members
    /// inactive from genesis leave ≈ 200 epochs before one that attests
    /// for the first 200 epochs.
    #[test]
    fn exit_epoch_is_when_the_last_member_has_exited() {
        let chain = ChainConfig {
            ejection_balance: Gwei::from_eth_u64(31),
            ..ChainConfig::paper()
        };
        let mut state = genesis(chain, 3, 1);
        let mut fold = BranchFold::default();
        let mut first_partial = None;
        for epoch in 0..2000 {
            let (status, ejected) =
                observe(&mut state, BranchId::GENESIS, epoch, &[1], &[], |_, _| 0);
            if epoch < 200 {
                let mut left = 1;
                state.mark_class_counted(
                    BYZANTINE_CLASS,
                    ParticipationFlags::all(),
                    &mut |count| {
                        let marked = count.min(left);
                        left -= marked;
                        marked
                    },
                );
            }
            let stats = advance(
                &mut state,
                &status,
                ejected,
                false,
                Root::from_u64(epoch + 1).into(),
            );
            fold.push(epoch, &stats, &state);
            let byzantine = state.class_stats(BYZANTINE_CLASS);
            if byzantine.exited > 0 && first_partial.is_none() {
                first_partial = Some(epoch);
            }
            if byzantine.exited == byzantine.total {
                assert_eq!(fold.byzantine_exit_epoch, Some(epoch));
                assert!(first_partial.expect("inactive members leave first") + 100 < epoch);
                return;
            }
            assert_eq!(fold.byzantine_exit_epoch, None, "epoch {epoch}");
        }
        panic!("the late leaver reaches the 31 ETH floor within 2000 epochs");
    }

    /// Honest marking covers the pinned classes and every churned cohort
    /// (one `draw` per cohort, here granting all of it) before the view
    /// is read.
    #[test]
    fn observe_reads_the_view_after_all_honest_marking() {
        let chain = ChainConfig::paper();
        let classes = [1, 2, 3].map(|count| ClassSpec::full_stake(count, &chain));
        let mut state = DenseState::from_classes(chain, &classes);
        let churned = [(2, PreparedBinomial::new(0.5))];
        let mut drawn = Vec::new();
        let (status, ejected) = observe(
            &mut state,
            BranchId::new(3),
            5,
            &[1],
            &churned,
            |_, count| {
                drawn.push(count);
                count
            },
        );
        assert_eq!(drawn, [1, 1, 1], "one draw per dense singleton cohort");
        let eth = Gwei::from_eth_u64(32).as_u64();
        assert_eq!(status.honest_active_stake, 5 * eth);
        assert_eq!(
            (status.byzantine_stake, status.total_active_stake),
            (eth, 6 * eth)
        );
        assert_eq!(
            (status.branch, status.epoch, ejected),
            (BranchId::new(3), 5, (0, 0))
        );
    }
}
