//! The run records of a partition run: per-epoch records, per-branch
//! lifetime summaries, the run outcome and the fork / churn counters —
//! plus the two-branch shape the paper scenarios, the golden fixtures and
//! the search frontier render ([`PartitionOutcome::into_two_branch`]).

use serde::Serialize;

use ethpos_types::{BranchId, Checkpoint};

use crate::kernel::{BranchEpochStats, BranchFold};

/// One recorded epoch of a partition run.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionEpochRecord {
    /// Epoch number.
    pub epoch: u64,
    /// The live branches, in id order.
    pub branches: Vec<BranchId>,
    /// Stats per live branch (aligned with `branches`).
    pub stats: Vec<BranchEpochStats>,
    /// Whether the Byzantine validators attested per live branch
    /// (aligned with `branches`).
    pub byzantine_active: Vec<bool>,
}

/// A conflicting finalization observed between two branches.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SafetyViolation {
    /// The lower-id branch of the conflicting pair.
    pub branch_a: BranchId,
    /// The higher-id branch of the conflicting pair.
    pub branch_b: BranchId,
    /// `branch_a`'s finalized checkpoint at detection time.
    pub checkpoint_a: Checkpoint,
    /// `branch_b`'s finalized checkpoint at detection time.
    pub checkpoint_b: Checkpoint,
}

/// Lifetime summary of one branch.
#[derive(Debug, Clone, Serialize)]
pub struct BranchOutcome {
    /// The branch.
    pub branch: BranchId,
    /// Epoch the branch was created (0 for the genesis branch).
    pub created_at_epoch: u64,
    /// Epoch the branch was healed away, if it was.
    pub healed_at_epoch: Option<u64>,
    /// First epoch at which the Byzantine proportion exceeded ⅓ on this
    /// branch — the paper's Safety loss №2.
    pub byzantine_exceeds_third_epoch: Option<u64>,
    /// Maximum Byzantine proportion observed.
    pub max_byzantine_proportion: f64,
    /// First epoch at which the branch finalized a checkpoint beyond
    /// genesis.
    pub first_finalization_epoch: Option<u64>,
    /// First epoch at which the **whole** Byzantine class had exited on
    /// this branch.
    pub byzantine_exit_epoch: Option<u64>,
    /// Total actual balance (Gwei) held by the Byzantine class at the
    /// end of the branch's life (heal epoch, or end of run).
    pub final_byzantine_balance_gwei: u64,
    /// The branch's finalized epoch at the end of its life.
    pub final_finalized_epoch: u64,
}

impl BranchOutcome {
    /// The lifetime fold these fields were copied from.
    fn fold(&self) -> BranchFold {
        BranchFold {
            byzantine_exceeds_third_epoch: self.byzantine_exceeds_third_epoch,
            max_byzantine_proportion: self.max_byzantine_proportion,
            first_finalization_epoch: self.first_finalization_epoch,
            byzantine_exit_epoch: self.byzantine_exit_epoch,
        }
    }
}

/// Counters describing the fork (`Split`) activity of one run — the
/// observability surface of the copy-on-write state layer.
///
/// Deliberately **not** part of [`PartitionOutcome`]: outcome JSON is
/// byte-pinned by the golden corpus and must not grow fields. The CLI
/// reports these through the separate `--stats-out` artifact instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ForkStats {
    /// Child branches created by `Split` events (one per child).
    pub forks: u64,
    /// Sum of the epochs at which forks happened — with `forks`, this
    /// gives the mean fork depth.
    pub fork_epoch_sum: u64,
    /// Deepest epoch at which a fork happened.
    pub max_fork_epoch: u64,
    /// Storage chunks each freshly forked child shared with its parent
    /// at fork time, summed over forks (0 on the dense
    /// backend; positive iff copy-on-write sharing is engaged).
    pub shared_chunks: u64,
}

impl ForkStats {
    /// Accumulates another run's counters (for campaign-level totals).
    pub fn absorb(&mut self, other: &ForkStats) {
        self.forks += other.forks;
        self.fork_epoch_sum += other.fork_epoch_sum;
        self.max_fork_epoch = self.max_fork_epoch.max(other.max_fork_epoch);
        self.shared_chunks += other.shared_chunks;
    }
}

/// Counters describing the count-level churn sampling of one run — the
/// observability surface of the per-cohort binomial draw path.
///
/// Like [`ForkStats`], deliberately **not** part of
/// [`PartitionOutcome`]: outcome JSON is byte-pinned by the golden
/// corpus. The CLI reports these through the separate `--stats-out`
/// artifact instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChurnStats {
    /// Binomial count draws performed: one per (branch, churn group,
    /// class, active cohort) per epoch.
    pub draws: u64,
    /// Members covered by those draws — the number of Bernoulli draws
    /// the per-validator path would have made instead, so
    /// `members / draws` is the mean cohort size the churn stage saw and
    /// `members / draws ≫ 1` is the compression win.
    pub members: u64,
}

impl ChurnStats {
    /// Accumulates another run's counters (for campaign-level totals).
    pub fn absorb(&mut self, other: &ChurnStats) {
        self.draws += other.draws;
        self.members += other.members;
    }
}

/// Result of a partition-timeline run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PartitionOutcome {
    /// First epoch at which two branches held conflicting finalized
    /// checkpoints — the paper's Safety loss №1, generalized to any
    /// branch pair (ancestry-aware: checkpoints on a shared prefix do
    /// not conflict).
    pub conflicting_finalization_epoch: Option<u64>,
    /// The first conflicting pair, if any.
    pub violation: Option<SafetyViolation>,
    /// Per-branch lifetime summaries, in id order (every branch the
    /// timeline ever created).
    pub branches: Vec<BranchOutcome>,
    /// Number of epochs in which the schedule attested on ≥ 2 branches —
    /// each one is a slashable double vote (§5.2.1).
    pub double_vote_epochs: u64,
    /// Per-epoch records (thinned by `record_every`).
    pub history: Vec<PartitionEpochRecord>,
    /// Number of epochs simulated.
    pub epochs_run: u64,
}

impl PartitionOutcome {
    /// Projects the outcome of a two-branch run — a
    /// [`PartitionTimeline::two_branch`](super::PartitionTimeline::two_branch)
    /// or `two_branch_churn` timeline — onto the historical two-branch
    /// shape, branch 0 and branch 1 side by side.
    ///
    /// # Panics
    ///
    /// Panics unless the run created exactly branches 0 and 1: a run with
    /// more branches, or one that never stepped (a zero-epoch horizon
    /// never applies the epoch-0 split).
    ///
    /// # Example
    ///
    /// ```
    /// use ethpos_sim::{PartitionConfig, PartitionSim, PartitionTimeline};
    /// use ethpos_sim::DualActive;
    ///
    /// // §5.2.1 at β₀ = ⅓: immediate conflicting finalization.
    /// let cfg = PartitionConfig::paper(120, 40, PartitionTimeline::two_branch(0.5), 50);
    /// let two = PartitionSim::new(cfg, Box::new(DualActive)).unwrap().run().into_two_branch();
    /// assert!(two.first_finalization_epoch.iter().all(|t| t.is_some_and(|t| t < 10)));
    /// ```
    pub fn into_two_branch(self) -> TwoBranchOutcome {
        let [b0, b1] = self.branches.as_slice() else {
            panic!(
                "a two-branch outcome needs exactly branches 0 and 1, but the run created {} \
                 (a zero-epoch horizon never applies the epoch-0 split)",
                self.branches.len()
            );
        };
        let branches = [b0, b1];
        let history = self
            .history
            .into_iter()
            .map(|r| EpochRecord {
                epoch: r.epoch,
                branch: [r.stats[0], r.stats[1]],
                byzantine_active: [r.byzantine_active[0], r.byzantine_active[1]],
            })
            .collect();
        TwoBranchOutcome::from_folds(
            self.conflicting_finalization_epoch,
            branches.map(|b| b.fold()),
            branches.map(|b| b.final_byzantine_balance_gwei),
            self.double_vote_epochs,
            history,
            self.epochs_run,
        )
    }
}

/// One recorded epoch of a two-branch run.
#[derive(Debug, Clone, Serialize)]
pub struct EpochRecord {
    /// Epoch number.
    pub epoch: u64,
    /// Stats per branch.
    pub branch: [BranchEpochStats; 2],
    /// Whether the Byzantine validators attested on branch 0 / 1 this
    /// epoch — the raw material of the paper's Fig. 4 (dual-active) and
    /// Fig. 5 (alternating) attack schematics.
    pub byzantine_active: [bool; 2],
}

/// The outcome of a two-branch run, branch 0 and branch 1 side by side.
#[derive(Debug, Clone, Serialize)]
pub struct TwoBranchOutcome {
    /// First epoch at which **both** branches had finalized a checkpoint
    /// beyond genesis — conflicting finalization, the paper's Safety
    /// loss №1.
    pub conflicting_finalization_epoch: Option<u64>,
    /// First epoch at which the Byzantine proportion exceeded ⅓ on branch
    /// 0 / branch 1 — the paper's Safety loss №2.
    pub byzantine_exceeds_third_epoch: [Option<u64>; 2],
    /// Maximum Byzantine proportion observed per branch.
    pub max_byzantine_proportion: [f64; 2],
    /// First epoch at which branch 0 / branch 1 finalized a checkpoint
    /// beyond genesis — the end of that branch's finalization delay.
    pub first_finalization_epoch: [Option<u64>; 2],
    /// First epoch at which the **whole** Byzantine class had exited
    /// (been ejected) on branch 0 / branch 1.
    pub byzantine_exit_epoch: [Option<u64>; 2],
    /// Total actual balance (Gwei) held by the Byzantine class on each
    /// branch at the end of the run — what the inactivity leak left the
    /// adversary with. Exited members keep their residual balance.
    pub final_byzantine_balance_gwei: [u64; 2],
    /// Number of epochs in which the schedule attested on **both**
    /// branches — each one is a slashable double vote (§5.2.1).
    pub double_vote_epochs: u64,
    /// Per-epoch records (thinned by `record_every`).
    pub history: Vec<EpochRecord>,
    /// Number of epochs simulated.
    pub epochs_run: u64,
}

impl TwoBranchOutcome {
    /// Assembles an outcome from the two branches' lifetime folds, their
    /// closing Byzantine balances and the run-level counts.
    pub fn from_folds(
        conflicting_finalization_epoch: Option<u64>,
        folds: [BranchFold; 2],
        final_byzantine_balance_gwei: [u64; 2],
        double_vote_epochs: u64,
        history: Vec<EpochRecord>,
        epochs_run: u64,
    ) -> Self {
        TwoBranchOutcome {
            conflicting_finalization_epoch,
            byzantine_exceeds_third_epoch: folds.map(|f| f.byzantine_exceeds_third_epoch),
            max_byzantine_proportion: folds.map(|f| f.max_byzantine_proportion),
            first_finalization_epoch: folds.map(|f| f.first_finalization_epoch),
            byzantine_exit_epoch: folds.map(|f| f.byzantine_exit_epoch),
            final_byzantine_balance_gwei,
            double_vote_epochs,
            history,
            epochs_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::{
        BranchChoice, BranchStatus, ByzantineSchedule, DualActive, SemiActive, ThresholdSeeker,
    };
    use crate::partition::{PartitionConfig, PartitionSim, PartitionTimeline};
    use ethpos_state::StateBackend;
    use ethpos_state::{CohortState, DenseState};

    /// The paper's fixed split `p0 / 1 − p0` at epoch 0.
    fn paper(n: usize, byzantine: usize, p0: f64, epochs: u64) -> PartitionConfig {
        PartitionConfig::paper(n, byzantine, PartitionTimeline::two_branch(p0), epochs)
    }

    fn run<B: StateBackend>(
        config: PartitionConfig,
        schedule: Box<dyn ByzantineSchedule>,
    ) -> TwoBranchOutcome {
        PartitionSim::<B>::with_backend(config, schedule)
            .expect("the two-branch timeline compiles")
            .run()
            .into_two_branch()
    }

    /// §5.1 sanity at a reduced horizon: with p0 = 0.5 and no Byzantine
    /// validators, neither branch can justify for a long time.
    #[test]
    fn honest_even_split_stays_unfinalized_early() {
        // Effective-balance hysteresis keeps the ratio at exactly 0.5
        // until the first 1-ETH step of the inactive cohort (≈ epoch 513);
        // run to 800 to observe the ratio moving.
        let cfg = PartitionConfig {
            record_every: 100,
            ..paper(120, 0, 0.5, 800)
        };
        let out = run::<DenseState>(cfg, Box::new(DualActive));
        assert_eq!(out.conflicting_finalization_epoch, None);
        let last = out.history.last().unwrap();
        for b in 0..2 {
            assert_eq!(last.branch[b].finalized_epoch, 0);
            // ratio starts at 0.5 and grows as the leak drains the others
            assert!(last.branch[b].active_ratio > 0.5);
            assert!(last.branch[b].active_ratio < 2.0 / 3.0);
        }
    }

    /// A branch holding a ⅔ honest supermajority finalizes immediately and
    /// never leaks.
    #[test]
    fn supermajority_branch_finalizes_quickly() {
        let cfg = PartitionConfig {
            stop_on_conflict: false,
            ..paper(120, 0, 0.75, 12)
        };
        let out = run::<DenseState>(cfg, Box::new(DualActive));
        let last = out.history.last().unwrap();
        assert!(last.branch[0].finalized_epoch > 5);
        assert_eq!(last.branch[1].finalized_epoch, 0);
    }

    /// §5.2.1 at β₀ close to ⅓: dual-active Byzantine validators finalize
    /// both branches within a few hundred epochs (paper: 502 for
    /// β₀ = 0.33, p₀ = 0.5).
    #[test]
    fn dual_active_near_third_finalizes_conflicting_fast() {
        // n = 1200 with 396 Byzantine ⇒ β₀ = 0.33 exactly (paper row).
        let cfg = PartitionConfig {
            record_every: 100,
            ..paper(1200, 396, 0.5, 800)
        };
        let out = run::<DenseState>(cfg, Box::new(DualActive));
        let t = out
            .conflicting_finalization_epoch
            .expect("must finalize conflicting branches");
        assert!(
            (495..530).contains(&t),
            "conflicting finalization at {t}, paper: 502 for β₀ = 0.33"
        );
    }

    /// The cohort backend reproduces the dense §5.2.1 run record-for-record
    /// — same epochs, same stats, same conflict epoch.
    #[test]
    fn cohort_backend_matches_dense_run() {
        let mk = || PartitionConfig {
            record_every: 50,
            ..paper(1200, 396, 0.5, 800)
        };
        let dense = run::<DenseState>(mk(), Box::new(DualActive));
        let cohort = run::<CohortState>(mk(), Box::new(DualActive));
        assert_eq!(
            dense.conflicting_finalization_epoch,
            cohort.conflicting_finalization_epoch
        );
        assert_eq!(dense.epochs_run, cohort.epochs_run);
        assert_eq!(
            serde_json::to_string(&dense.history).unwrap(),
            serde_json::to_string(&cohort.history).unwrap()
        );
    }

    /// Regression: a run that never stepped has the genesis branch alone,
    /// and projecting it died on a bare index panic; the projection now
    /// names the cause.
    #[test]
    #[should_panic(expected = "needs exactly branches 0 and 1")]
    fn zero_epoch_horizon_is_rejected_up_front() {
        run::<CohortState>(paper(120, 40, 0.5, 0), Box::new(DualActive));
    }

    /// A three-way split has no two-branch shape.
    #[test]
    #[should_panic(expected = "needs exactly branches 0 and 1")]
    fn three_branch_outcome_has_no_two_branch_projection() {
        let timeline = PartitionTimeline::new().split(0, BranchId::GENESIS, &[0.4, 0.3, 0.3]);
        run::<CohortState>(
            PartitionConfig::paper(120, 40, timeline, 4),
            Box::new(DualActive),
        );
    }

    /// Attests on branch 1 every epoch and on branch 0 every third one.
    #[derive(Debug)]
    struct LeanOnBranchOne;

    impl ByzantineSchedule for LeanOnBranchOne {
        fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
            let choice = BranchChoice::NONE.with(1);
            if status[0].epoch.is_multiple_of(3) {
                choice.with(0)
            } else {
                choice
            }
        }

        fn name(&self) -> &'static str {
            "lean-on-branch-one"
        }
    }

    /// The projection reads each side off its own branch: on a 0.3 / 0.7
    /// split where branch 1 (56 honest + 20 Byzantine of 100) finalizes
    /// at once and branch 0 leaks, every field equals what that branch's
    /// `BranchOutcome` and the thinned `PartitionEpochRecord`s say.
    #[test]
    fn projection_reads_each_branch_off_its_own_records() {
        let config = PartitionConfig {
            stop_on_conflict: false,
            record_every: 7,
            ..paper(100, 20, 0.3, 200)
        };
        let full = PartitionSim::<CohortState>::with_backend(config, Box::new(LeanOnBranchOne))
            .unwrap()
            .run();
        let two = full.clone().into_two_branch();
        assert_eq!(
            two.conflicting_finalization_epoch,
            full.conflicting_finalization_epoch
        );
        assert_eq!(two.epochs_run, 200);
        assert_eq!(two.double_vote_epochs, full.double_vote_epochs);
        assert_eq!(two.double_vote_epochs, 67, "epochs 0, 3, …, 198");
        for (b, branch) in full.branches.iter().enumerate() {
            assert_eq!(
                two.byzantine_exceeds_third_epoch[b],
                branch.byzantine_exceeds_third_epoch
            );
            assert_eq!(
                two.max_byzantine_proportion[b],
                branch.max_byzantine_proportion
            );
            assert_eq!(
                two.first_finalization_epoch[b],
                branch.first_finalization_epoch
            );
            assert_eq!(two.byzantine_exit_epoch[b], branch.byzantine_exit_epoch);
            assert_eq!(
                two.final_byzantine_balance_gwei[b],
                branch.final_byzantine_balance_gwei
            );
        }
        // The two sides really differ, so a swapped or doubled side shows.
        assert_eq!(two.first_finalization_epoch[0], None);
        assert!(two.first_finalization_epoch[1].is_some());
        assert!(two.final_byzantine_balance_gwei[0] < two.final_byzantine_balance_gwei[1]);
        assert_eq!(two.history.len(), full.history.len());
        for (got, want) in two.history.iter().zip(&full.history) {
            assert_eq!(got.epoch, want.epoch);
            assert_eq!(want.branches, [BranchId::new(0), BranchId::new(1)]);
            assert_eq!(
                serde_json::to_string(&got.branch).unwrap(),
                serde_json::to_string(&want.stats).unwrap(),
                "epoch {}",
                got.epoch
            );
            assert_eq!(got.byzantine_active[..], want.byzantine_active[..]);
            assert_ne!(
                got.branch[0].active_ratio, got.branch[1].active_ratio,
                "epoch {}",
                got.epoch
            );
        }
    }

    /// The recorded traces witness the paper's attack schematics:
    /// Fig. 4 (dual-active on both branches every epoch) and Fig. 5
    /// (alternating, never the same epoch on both).
    #[test]
    fn traces_match_paper_schematics() {
        let mk = || PartitionConfig {
            stop_on_conflict: false,
            ..paper(60, 18, 0.5, 24)
        };
        let dual = run::<DenseState>(mk(), Box::new(DualActive));
        assert!(dual
            .history
            .iter()
            .all(|r| r.byzantine_active == [true, true]));
        let semi = run::<DenseState>(mk(), Box::new(SemiActive::new()));
        for r in &semi.history {
            // never simultaneously on both (non-slashable), always on one
            assert_ne!(
                r.byzantine_active[0], r.byzantine_active[1],
                "epoch {}",
                r.epoch
            );
        }
        // alternation: consecutive epochs flip branches
        for w in semi.history.windows(2) {
            assert_ne!(
                w[0].byzantine_active[0], w[1].byzantine_active[0],
                "no flip between epochs {} and {}",
                w[0].epoch, w[1].epoch
            );
        }
    }

    /// §5.2.2: semi-active (non-slashable) is slower than dual-active but
    /// still succeeds.
    #[test]
    fn semi_active_finalizes_conflicting_later_than_dual() {
        let mk = || PartitionConfig {
            record_every: 100,
            ..paper(1200, 396, 0.5, 1200)
        };
        let dual = run::<DenseState>(mk(), Box::new(DualActive))
            .conflicting_finalization_epoch
            .expect("dual finalizes");
        let semi = run::<DenseState>(mk(), Box::new(SemiActive::new()))
            .conflicting_finalization_epoch
            .expect("semi finalizes");
        // Paper (continuous model): 502 vs 556 for β₀ = 0.33. The 1-ETH
        // effective-balance staircase compresses that gap in the discrete
        // protocol: both strategies trip the ⅔ threshold at the first
        // 1-ETH step of the inactive cohort (≈ epoch 513). The ordering
        // still holds, and at smaller β₀ (larger t, more decay) the gap
        // re-opens — covered by the β₀ = 0.2 integration test.
        assert!(
            semi >= dual,
            "semi-active ({semi}) must not beat dual-active ({dual})"
        );
        assert!((495..540).contains(&dual), "dual at {dual}");
        assert!((495..620).contains(&semi), "semi at {semi}");
    }

    /// §5.2.3: with β₀ ≥ 0.2421 and pure alternation, the Byzantine
    /// proportion eventually exceeds ⅓ (needs the honest-inactive
    /// ejection, so this is a long run — kept small here and covered at
    /// full scale in the experiments).
    #[test]
    fn threshold_seeker_proportion_grows() {
        let cfg = PartitionConfig {
            stop_on_conflict: false,
            record_every: 50,
            ..paper(120, 36, 0.5, 600) // β0 = 0.30
        };
        let out = run::<DenseState>(cfg, Box::new(ThresholdSeeker::new()));
        // β(t) grows monotonically from 0.30
        let first = out.history.first().unwrap().branch[0].byzantine_proportion;
        let last = out.history.last().unwrap().branch[0].byzantine_proportion;
        assert!(first < 0.32);
        assert!(last > first, "β must grow: {first} → {last}");
        // and no finalization happened anywhere
        assert_eq!(out.conflicting_finalization_epoch, None);
    }

    /// The §5.3 churn timeline runs on the cohort backend through
    /// per-cohort count draws (branch 1 the complement of branch 0):
    /// totals are conserved and the Byzantine proportion behaves like the
    /// dense run's.
    #[test]
    fn random_membership_runs_on_cohort_backend() {
        let cfg = PartitionConfig {
            stop_on_conflict: false,
            seed: 9,
            record_every: 100,
            ..PartitionConfig::paper(300, 100, PartitionTimeline::two_branch_churn(0.5), 400)
        };
        let out = run::<CohortState>(cfg, Box::new(ThresholdSeeker::new()));
        assert_eq!(out.epochs_run, 400);
        let last = out.history.last().unwrap();
        for b in 0..2 {
            assert!(last.branch[b].byzantine_proportion > 0.25);
            assert_eq!(last.branch[b].ejected_byzantine, 0);
        }
        assert_eq!(out.conflicting_finalization_epoch, None);
    }
}
