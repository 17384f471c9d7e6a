//! Two-branch epoch-level simulation — a thin two-branch timeline over
//! the k-branch [`PartitionSim`] engine.
//!
//! Emulates the paper's partition scenario: honest validators split into
//! two branches (a proportion `p0` active on branch 0), Byzantine
//! validators coordinated across both, each branch evolving its own
//! [`StateBackend`] with the exact integer spec arithmetic. Byzantine
//! participation per epoch is delegated to a
//! [`ethpos_validator::ByzantineSchedule`].
//!
//! [`TwoBranchSim`] predates the partition engine; it is kept as the
//! two-branch API the paper scenarios and the search's from-genesis
//! oracle (`ethpos_search::evaluate`) drive — its configuration compiles
//! to the obvious timeline (a fixed or churn split of the genesis branch
//! at epoch 0) and its [`TwoBranchOutcome`] is assembled from the
//! engine's per-branch folds by [`TwoBranchOutcome::from_folds`], the
//! constructor the search's prefix memo uses too. The translation is
//! **byte-exact**: the engine marks, draws, advances and records in the
//! same order the historical two-branch loop did, so every experiment
//! JSON and search frontier produced before the refactor is reproduced
//! bit-for-bit (pinned by the golden-snapshot corpus under
//! `tests/golden/`).
//!
//! Validators are addressed by **behaviour class**, never individually:
//! class 0 is the Byzantine cohort; under
//! [`MembershipModel::FixedPartition`] classes 1 and 2 are the honest
//! validators pinned to branch 0 / branch 1, while under
//! [`MembershipModel::RandomEachEpoch`] class 1 is the whole honest set,
//! whose attesters each branch draws per cohort every epoch. Class-level
//! addressing is what lets the same driver run on the dense
//! per-validator [`DenseState`] (the reference path) or the compressed
//! [`CohortState`](ethpos_state::CohortState) at O(#cohorts) per epoch.
//!
//! Branch checkpoint roots are synthetic but branch-distinct, so the
//! states' own justification/finalization machinery runs unmodified and
//! *conflicting finalization* (the paper's Safety loss №1) is observable
//! by comparing finalized checkpoints.

use serde::Serialize;

use ethpos_state::backend::{StateBackend, StateSnapshot};
use ethpos_state::DenseState;
use ethpos_types::{BranchId, ChainConfig};
use ethpos_validator::ByzantineSchedule;

use crate::kernel::{BranchEpochStats, BranchFold};
use crate::partition::{PartitionConfig, PartitionOutcome, PartitionSim, PartitionTimeline};

/// How honest validators map to branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipModel {
    /// Network partition: the split is fixed for the whole run
    /// (scenarios 5.1, 5.2.x).
    FixedPartition,
    /// Probabilistic bouncing: each honest validator lands on branch 0
    /// with probability `p0`, independently every epoch (scenario 5.3,
    /// the Markov chain of paper Fig. 8).
    RandomEachEpoch,
}

/// Configuration of a two-branch run.
#[derive(Debug, Clone)]
pub struct TwoBranchConfig {
    /// Protocol constants (use [`ChainConfig::paper`] for paper numbers).
    pub chain: ChainConfig,
    /// Registry size.
    pub n: usize,
    /// Number of Byzantine validators (indices `0..byzantine`).
    pub byzantine: usize,
    /// Fraction of honest validators on branch 0.
    pub p0: f64,
    /// Honest membership model.
    pub membership: MembershipModel,
    /// Epoch horizon.
    pub max_epochs: u64,
    /// RNG seed (only used by [`MembershipModel::RandomEachEpoch`]).
    pub seed: u64,
    /// Stop as soon as both branches have finalized conflicting
    /// checkpoints.
    pub stop_on_conflict: bool,
    /// Stop as soon as **any** branch finalizes a checkpoint beyond
    /// genesis — the natural horizon of finalization-*delay* objectives
    /// (the attack-search drivers set this; the paper scenarios don't).
    pub stop_on_finalization: bool,
    /// Record a full [`EpochRecord`] every `record_every` epochs (1 =
    /// every epoch).
    pub record_every: u64,
}

impl TwoBranchConfig {
    /// A paper-faithful configuration: `n` validators, `byzantine` of them
    /// Byzantine, honest split `p0`, fixed partition.
    pub fn paper(n: usize, byzantine: usize, p0: f64, max_epochs: u64) -> Self {
        TwoBranchConfig {
            chain: ChainConfig::paper(),
            n,
            byzantine,
            p0,
            membership: MembershipModel::FixedPartition,
            max_epochs,
            seed: 0,
            stop_on_conflict: true,
            stop_on_finalization: false,
            record_every: 1,
        }
    }

    /// The equivalent partition timeline: a fixed or churn split of the
    /// genesis branch at epoch 0.
    pub fn timeline(&self) -> PartitionTimeline {
        match self.membership {
            MembershipModel::FixedPartition => PartitionTimeline::two_branch(self.p0),
            MembershipModel::RandomEachEpoch => PartitionTimeline::two_branch_churn(self.p0),
        }
    }
}

/// One recorded epoch.
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

/// Result of a run.
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

/// The two-branch simulator: the paper's partition scenarios, executed
/// by the k-branch partition engine over a two-branch timeline.
///
/// [`TwoBranchSim::new`] builds the dense reference simulator;
/// [`TwoBranchSim::with_backend`] picks the backend explicitly — use
/// [`ethpos_state::CohortState`] to run the paper's scenarios at their
/// true Ethereum population sizes.
///
/// # Example
///
/// Run the paper's §5.2.1 scenario at β₀ = ⅓ (immediate conflicting
/// finalization), once on each backend:
///
/// ```
/// use ethpos_sim::{TwoBranchConfig, TwoBranchSim};
/// use ethpos_state::CohortState;
/// use ethpos_validator::DualActive;
///
/// let cfg = TwoBranchConfig::paper(120, 40, 0.5, 50); // β0 = 1/3
/// let dense = TwoBranchSim::new(cfg.clone(), Box::new(DualActive)).run();
/// let cohort =
///     TwoBranchSim::<CohortState>::with_backend(cfg, Box::new(DualActive)).run();
/// assert_eq!(
///     dense.conflicting_finalization_epoch,
///     cohort.conflicting_finalization_epoch,
/// );
/// assert!(dense.conflicting_finalization_epoch.unwrap() < 10);
/// ```
pub struct TwoBranchSim<B: StateBackend = DenseState> {
    inner: PartitionSim<B>,
}

impl<B: StateBackend> core::fmt::Debug for TwoBranchSim<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TwoBranchSim")
            .field("inner", &self.inner)
            .finish()
    }
}

impl TwoBranchSim<DenseState> {
    /// Creates a simulator on the dense reference backend.
    ///
    /// # Panics
    ///
    /// Panics if `byzantine > n`, `p0 ∉ [0, 1]` or `max_epochs == 0`.
    pub fn new(config: TwoBranchConfig, schedule: Box<dyn ByzantineSchedule>) -> Self {
        TwoBranchSim::with_backend(config, schedule)
    }
}

impl<B: StateBackend> TwoBranchSim<B> {
    /// Creates a simulator with the given Byzantine schedule on backend
    /// `B`.
    ///
    /// # Panics
    ///
    /// Panics if `byzantine > n`, `p0 ∉ [0, 1]` or `max_epochs == 0` (the
    /// two branches exist only once the epoch-0 split has been applied,
    /// so a run that never steps has no two-branch outcome).
    pub fn with_backend(config: TwoBranchConfig, schedule: Box<dyn ByzantineSchedule>) -> Self {
        assert!(config.byzantine <= config.n, "byzantine > n");
        assert!(config.max_epochs > 0, "zero epoch horizon");
        assert!(
            (0.0..=1.0).contains(&config.p0),
            "p0 must be in [0,1], got {}",
            config.p0
        );
        let timeline = config.timeline();
        let partition = PartitionConfig {
            chain: config.chain,
            n: config.n,
            byzantine: config.byzantine,
            timeline,
            max_epochs: config.max_epochs,
            seed: config.seed,
            stop_on_conflict: config.stop_on_conflict,
            stop_on_finalization: config.stop_on_finalization,
            record_every: config.record_every,
        };
        let inner = PartitionSim::with_backend(partition, schedule)
            .expect("the two-branch timeline always compiles");
        TwoBranchSim { inner }
    }

    /// Runs the simulation.
    pub fn run(self) -> TwoBranchOutcome {
        Self::convert(self.inner.run())
    }

    /// Runs the simulation and additionally captures the final
    /// [`StateSnapshot`] of both branches — the fixtures of the
    /// golden-snapshot corpus.
    pub fn run_with_snapshots(mut self) -> (TwoBranchOutcome, [StateSnapshot; 2]) {
        while self.inner.step() {}
        let snapshots = [
            self.inner.branch(BranchId::new(0)).snapshot(),
            self.inner.branch(BranchId::new(1)).snapshot(),
        ];
        (Self::convert(self.inner.finish()), snapshots)
    }

    /// Projects the engine's k-branch outcome onto the historical
    /// two-branch shape (branch ids 0 and 1 are the only branches a
    /// two-branch timeline ever creates).
    fn convert(outcome: PartitionOutcome) -> TwoBranchOutcome {
        let branches = [&outcome.branches[0], &outcome.branches[1]];
        let history = outcome
            .history
            .into_iter()
            .map(|r| EpochRecord {
                epoch: r.epoch,
                branch: [r.stats[0], r.stats[1]],
                byzantine_active: [r.byzantine_active[0], r.byzantine_active[1]],
            })
            .collect();
        TwoBranchOutcome::from_folds(
            outcome.conflicting_finalization_epoch,
            branches.map(|b| b.fold()),
            branches.map(|b| b.final_byzantine_balance_gwei),
            outcome.double_vote_epochs,
            history,
            outcome.epochs_run,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_state::CohortState;
    use ethpos_validator::{DualActive, SemiActive, ThresholdSeeker};

    /// §5.1 sanity at a reduced horizon: with p0 = 0.5 and no Byzantine
    /// validators, neither branch can justify for a long time.
    #[test]
    fn honest_even_split_stays_unfinalized_early() {
        // Effective-balance hysteresis keeps the ratio at exactly 0.5
        // until the first 1-ETH step of the inactive cohort (≈ epoch 513);
        // run to 800 to observe the ratio moving.
        let cfg = TwoBranchConfig {
            record_every: 100,
            ..TwoBranchConfig::paper(120, 0, 0.5, 800)
        };
        let out = TwoBranchSim::new(cfg, Box::new(DualActive)).run();
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
        let cfg = TwoBranchConfig {
            stop_on_conflict: false,
            ..TwoBranchConfig::paper(120, 0, 0.75, 12)
        };
        let out = TwoBranchSim::new(cfg, Box::new(DualActive)).run();
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
        let cfg = TwoBranchConfig {
            record_every: 100,
            ..TwoBranchConfig::paper(1200, 396, 0.5, 800)
        };
        let out = TwoBranchSim::new(cfg, Box::new(DualActive)).run();
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
        let mk = || TwoBranchConfig {
            record_every: 50,
            ..TwoBranchConfig::paper(1200, 396, 0.5, 800)
        };
        let dense = TwoBranchSim::new(mk(), Box::new(DualActive)).run();
        let cohort = TwoBranchSim::<CohortState>::with_backend(mk(), Box::new(DualActive)).run();
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

    /// Regression: a run that never stepped reached `convert` with the
    /// genesis branch alone and died on a bare index panic.
    #[test]
    #[should_panic(expected = "zero epoch horizon")]
    fn zero_epoch_horizon_is_rejected_up_front() {
        let cfg = TwoBranchConfig::paper(120, 40, 0.5, 0);
        let _ = TwoBranchSim::<CohortState>::with_backend(cfg, Box::new(DualActive));
    }

    /// The recorded traces witness the paper's attack schematics:
    /// Fig. 4 (dual-active on both branches every epoch) and Fig. 5
    /// (alternating, never the same epoch on both).
    #[test]
    fn traces_match_paper_schematics() {
        let mk = || TwoBranchConfig {
            stop_on_conflict: false,
            ..TwoBranchConfig::paper(60, 18, 0.5, 24)
        };
        let dual = TwoBranchSim::new(mk(), Box::new(DualActive)).run();
        assert!(dual
            .history
            .iter()
            .all(|r| r.byzantine_active == [true, true]));
        let semi = TwoBranchSim::new(mk(), Box::new(SemiActive::new())).run();
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
        let mk = || TwoBranchConfig {
            record_every: 100,
            ..TwoBranchConfig::paper(1200, 396, 0.5, 1200)
        };
        let dual = TwoBranchSim::new(mk(), Box::new(DualActive))
            .run()
            .conflicting_finalization_epoch
            .expect("dual finalizes");
        let semi = TwoBranchSim::new(mk(), Box::new(SemiActive::new()))
            .run()
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
        let cfg = TwoBranchConfig {
            stop_on_conflict: false,
            record_every: 50,
            ..TwoBranchConfig::paper(120, 36, 0.5, 600) // β0 = 0.30
        };
        let out = TwoBranchSim::new(cfg, Box::new(ThresholdSeeker::new())).run();
        // β(t) grows monotonically from 0.30
        let first = out.history.first().unwrap().branch[0].byzantine_proportion;
        let last = out.history.last().unwrap().branch[0].byzantine_proportion;
        assert!(first < 0.32);
        assert!(last > first, "β must grow: {first} → {last}");
        // and no finalization happened anywhere
        assert_eq!(out.conflicting_finalization_epoch, None);
    }

    /// The random membership model runs on the cohort backend through
    /// per-member sampled cohort splits (one membership bit per honest
    /// validator, branch 1 the complement of branch 0): totals are
    /// conserved and the Byzantine proportion behaves like the dense
    /// run's.
    #[test]
    fn random_membership_runs_on_cohort_backend() {
        let cfg = TwoBranchConfig {
            membership: MembershipModel::RandomEachEpoch,
            stop_on_conflict: false,
            seed: 9,
            record_every: 100,
            ..TwoBranchConfig::paper(300, 100, 0.5, 400) // β0 = 1/3
        };
        let out =
            TwoBranchSim::<CohortState>::with_backend(cfg, Box::new(ThresholdSeeker::new())).run();
        assert_eq!(out.epochs_run, 400);
        let last = out.history.last().unwrap();
        for b in 0..2 {
            assert!(last.branch[b].byzantine_proportion > 0.25);
            assert_eq!(last.branch[b].ejected_byzantine, 0);
        }
        assert_eq!(out.conflicting_finalization_epoch, None);
    }
}
