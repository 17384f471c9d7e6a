//! Damage objectives: what the adversary maximizes, and what it pays.
//!
//! Each candidate [`Genome`] is evaluated by one full [`PartitionSim`]
//! run over the two-branch timeline (dense or cohort-compressed backend,
//! exact integer spec arithmetic). An
//! [`Objective`] turns the run's [`TwoBranchOutcome`] into a scalar
//! **damage** (higher = worse for the network) and every evaluation is
//! paired with the adversary's **cost** in ETH:
//!
//! * stake *leaked* to the inactivity penalty on the worse of the two
//!   branches (the adversary cannot know which branch survives the
//!   partition, so the worst case is the honest cost measure), plus
//! * the *slashing exposure* if the schedule ever double-voted: once the
//!   partition heals the equivocation evidence slashes the whole cohort —
//!   the immediate `eff/32` penalty plus the `min(3·β₀, 1)` correlation
//!   penalty on whatever balance the leak left (§5.2.1 aftermath).

use serde::Serialize;

use ethpos_sim::{PartitionConfig, PartitionSim, PartitionTimeline, TwoBranchOutcome};
use ethpos_state::{BackendKind, CohortState, DenseState};

use crate::genome::{Genome, ParamSchedule};

/// What the search maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// §5.2.1/§5.2.2 — earliest conflicting finalization (damage grows
    /// as the conflict epoch shrinks).
    Conflict,
    /// §5.2.3 — maximum Byzantine proportion of the active stake.
    Proportion,
    /// Longest finalization-delay horizon achievable **without a single
    /// slashable vote**: the first epoch at which any branch finalizes
    /// (candidates that double-vote are infeasible for this objective).
    NonSlashableHorizon,
}

impl Objective {
    /// Every objective, in CLI listing order.
    pub fn all() -> [Objective; 3] {
        [
            Objective::Conflict,
            Objective::Proportion,
            Objective::NonSlashableHorizon,
        ]
    }

    /// Short CLI identifier.
    ///
    /// ```
    /// use ethpos_search::Objective;
    ///
    /// assert_eq!(Objective::Conflict.id(), "conflict");
    /// assert_eq!(
    ///     Objective::from_id("non-slashable-horizon"),
    ///     Some(Objective::NonSlashableHorizon)
    /// );
    /// assert_eq!(Objective::from_id("bogus"), None);
    /// ```
    pub fn id(&self) -> &'static str {
        match self {
            Objective::Conflict => "conflict",
            Objective::Proportion => "proportion",
            Objective::NonSlashableHorizon => "non-slashable-horizon",
        }
    }

    /// Parses [`Objective::id`] back.
    pub fn from_id(id: &str) -> Option<Objective> {
        Objective::all().into_iter().find(|o| o.id() == id)
    }

    /// Human description used by reports.
    pub fn title(&self) -> &'static str {
        match self {
            Objective::Conflict => "earliest conflicting finalization",
            Objective::Proportion => "maximum Byzantine stake proportion",
            Objective::NonSlashableHorizon => "non-slashable finalization-delay horizon",
        }
    }

    /// The epoch horizon a search at this objective needs by default:
    /// conflicting finalization is over by the inactive-ejection epoch
    /// (Table 2/3 horizons), while the delay and proportion objectives
    /// must outlive the semi-active ejection at ≈ 7652.
    pub fn default_epochs(&self) -> u64 {
        match self {
            Objective::Conflict => 5200,
            Objective::Proportion | Objective::NonSlashableHorizon => 8192,
        }
    }

    /// The default initial Byzantine proportion of a search at this
    /// objective: `0.3` keeps the Table 2 vs Table 3 gap visible for the
    /// conflict/proportion objectives, while the delay horizon uses the
    /// paper's headline `β₀ = 0.33` (just below ⅓, where no branch can
    /// finalize honest-only before the semi-active adversary is ejected).
    pub fn default_beta0(&self) -> f64 {
        match self {
            Objective::Conflict | Objective::Proportion => 0.3,
            Objective::NonSlashableHorizon => 0.33,
        }
    }

    /// Is this candidate admissible for the objective at all?
    pub fn feasible(&self, slashable: bool) -> bool {
        match self {
            Objective::Conflict | Objective::Proportion => true,
            Objective::NonSlashableHorizon => !slashable,
        }
    }

    /// Scalar damage of an outcome (higher = worse for the network).
    pub fn damage(&self, outcome: &TwoBranchOutcome, max_epochs: u64) -> f64 {
        match self {
            Objective::Conflict => outcome
                .conflicting_finalization_epoch
                .map(|t| (max_epochs + 1 - t.min(max_epochs)) as f64)
                .unwrap_or(0.0),
            Objective::Proportion => outcome
                .max_byzantine_proportion
                .iter()
                .fold(0.0f64, |acc, &p| acc.max(p)),
            Objective::NonSlashableHorizon => outcome
                .first_finalization_epoch
                .iter()
                .flatten()
                .min()
                .copied()
                .unwrap_or(max_epochs) as f64,
        }
    }
}

/// Serializes as [`Objective::id`] so frontier JSON round-trips through
/// the CLI's `--objective` flag.
impl Serialize for Objective {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.id().into())
    }
}

/// One evaluated candidate: the genome, its damage under the objective,
/// and what the attack cost the adversary.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// The candidate.
    pub genome: Genome,
    /// Human-readable genome label.
    pub label: String,
    /// The paper strategy this genome coincides with, if any.
    pub paper_strategy: Option<String>,
    /// Whether the objective admits this candidate.
    pub feasible: bool,
    /// Objective damage (higher = worse for the network).
    pub damage: f64,
    /// Adversary cost in ETH (worst-branch leak + slashing exposure).
    pub cost_eth: f64,
    /// Did the schedule double-vote at least once?
    pub slashable: bool,
    /// Epochs with a double vote.
    pub double_vote_epochs: u64,
    /// Epoch of conflicting finalization, if reached.
    pub conflict_epoch: Option<u64>,
    /// First epoch at which any branch finalized (`None` = the full
    /// horizon passed without finalization).
    pub horizon: Option<u64>,
    /// Maximum Byzantine stake proportion over both branches.
    pub max_byzantine_proportion: f64,
    /// First epoch the whole Byzantine cohort was ejected, per branch.
    pub byzantine_exit_epoch: [Option<u64>; 2],
    /// Epochs actually simulated (early-stop aware).
    pub epochs_run: u64,
}

/// Evaluation parameters shared by every candidate of one search.
#[derive(Debug, Clone, Copy)]
pub struct EvalParams {
    /// Registry size.
    pub n: usize,
    /// Initial Byzantine proportion (realized as `round(β₀·n)`
    /// validators).
    pub beta0: f64,
    /// Fraction of honest validators on branch 0.
    pub p0: f64,
    /// Epoch horizon.
    pub epochs: u64,
    /// State backend candidates run on.
    pub backend: BackendKind,
    /// The objective (drives the early-stop rule and feasibility).
    pub objective: Objective,
}

/// The simulator configuration every candidate of one search runs
/// under (shared by the plain path below and
/// [`crate::prefix::PrefixMemo`]).
pub(crate) fn sim_config(params: &EvalParams) -> PartitionConfig {
    assert!(params.epochs > 0, "zero epoch horizon");
    let byzantine = (params.beta0 * params.n as f64).round() as usize;
    let timeline = PartitionTimeline::two_branch(params.p0);
    PartitionConfig {
        // Early-stop as soon as the objective's damage is decided: the
        // conflict objective needs both branches finalized, the delay
        // horizon just the first finalization; the proportion objective
        // must run the full horizon.
        stop_on_conflict: params.objective == Objective::Conflict,
        stop_on_finalization: params.objective == Objective::NonSlashableHorizon,
        record_every: u64::MAX,
        ..PartitionConfig::paper(params.n, byzantine, timeline, params.epochs)
    }
}

/// Genesis stake of the Byzantine class (`ClassSpec::full_stake`):
/// derived from the protocol constants, not hard-coded.
pub(crate) fn initial_byzantine_gwei(config: &PartitionConfig) -> u64 {
    config.byzantine as u64 * config.chain.max_effective_balance.as_u64()
}

/// Runs one candidate through the two-branch simulator and scores it.
///
/// This is the reference path — one full run from genesis per call. The
/// search driver goes through [`crate::prefix::PrefixMemo`] instead,
/// which is byte-identical (pinned by the `prefix_equivalence` tests)
/// but shares work across candidates.
///
/// # Panics
///
/// Panics if `params.epochs == 0`.
pub fn evaluate(params: &EvalParams, genome: Genome) -> Evaluation {
    let config = sim_config(params);
    let initial_gwei = initial_byzantine_gwei(&config);
    let schedule = Box::new(ParamSchedule::new(genome));
    let outcome = match params.backend {
        BackendKind::Dense => {
            PartitionSim::<DenseState>::with_backend(config, schedule).map(PartitionSim::run)
        }
        BackendKind::Cohort => {
            PartitionSim::<CohortState>::with_backend(config, schedule).map(PartitionSim::run)
        }
    };
    let outcome = outcome.expect("the two-branch timeline compiles");
    score(params, genome, initial_gwei, &outcome.into_two_branch())
}

/// Scores a finished run (split out so tests can score synthetic
/// outcomes, and so [`crate::prefix::PrefixMemo`] can score
/// reconstructed ones).
pub(crate) fn score(
    params: &EvalParams,
    genome: Genome,
    initial_gwei: u64,
    outcome: &TwoBranchOutcome,
) -> Evaluation {
    let slashable = outcome.double_vote_epochs > 0;
    // Worst-branch leak: the adversary cannot pick the surviving branch.
    let final_worst = *outcome
        .final_byzantine_balance_gwei
        .iter()
        .min()
        .expect("two branches");
    let final_best = *outcome
        .final_byzantine_balance_gwei
        .iter()
        .max()
        .expect("two branches");
    let leak_eth = initial_gwei.saturating_sub(final_worst) as f64 / 1e9;
    // §5.2.1 aftermath on the surviving branch: immediate eff/32 plus the
    // min(3·β₀, 1) correlation penalty, capped at what is left.
    let slash_eth = if slashable {
        let remaining = final_best as f64 / 1e9;
        (remaining * (1.0 / 32.0 + (3.0 * params.beta0).min(1.0))).min(remaining)
    } else {
        0.0
    };
    Evaluation {
        genome,
        label: genome.label(),
        paper_strategy: genome.paper_corner().map(str::to_string),
        feasible: params.objective.feasible(slashable),
        damage: params.objective.damage(outcome, params.epochs),
        cost_eth: leak_eth + slash_eth,
        slashable,
        double_vote_epochs: outcome.double_vote_epochs,
        conflict_epoch: outcome.conflicting_finalization_epoch,
        horizon: outcome
            .first_finalization_epoch
            .iter()
            .flatten()
            .min()
            .copied(),
        max_byzantine_proportion: outcome
            .max_byzantine_proportion
            .iter()
            .fold(0.0f64, |acc, &p| acc.max(p)),
        byzantine_exit_epoch: outcome.byzantine_exit_epoch,
        epochs_run: outcome.epochs_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(objective: Objective) -> EvalParams {
        EvalParams {
            n: 120,
            beta0: 0.33,
            p0: 0.5,
            epochs: 60,
            backend: BackendKind::Cohort,
            objective,
        }
    }

    #[test]
    fn objective_ids_round_trip() {
        for o in Objective::all() {
            assert_eq!(Objective::from_id(o.id()), Some(o));
        }
    }

    #[test]
    fn dual_active_is_slashable_and_costed() {
        let e = evaluate(&params(Objective::Conflict), Genome::DUAL_ACTIVE);
        assert!(e.slashable);
        assert_eq!(e.double_vote_epochs, e.epochs_run);
        // no leak (active on both branches), but the slashing exposure
        // prices in nearly the whole stake at β0 = 0.33
        let stake = (0.33f64 * 120.0).round() * 32.0;
        assert!(
            e.cost_eth > 0.9 * stake,
            "cost {} vs stake {stake}",
            e.cost_eth
        );
        assert!(e.feasible);
    }

    #[test]
    fn alternation_is_not_slashable_and_cheap_short_term() {
        let e = evaluate(&params(Objective::Conflict), Genome::THRESHOLD_SEEKER);
        assert!(!e.slashable);
        assert_eq!(e.double_vote_epochs, 0);
        // over 60 epochs the semi-active leak is well under 1 ETH total
        assert!(e.cost_eth < 1.0, "cost {}", e.cost_eth);
    }

    #[test]
    fn horizon_objective_rejects_double_voters() {
        let e = evaluate(&params(Objective::NonSlashableHorizon), Genome::DUAL_ACTIVE);
        assert!(!e.feasible);
        let e = evaluate(
            &params(Objective::NonSlashableHorizon),
            Genome::THRESHOLD_SEEKER,
        );
        assert!(e.feasible);
        // nothing finalizes in 60 epochs at β0 = 0.33: damage = cap
        assert_eq!(e.horizon, None);
        assert_eq!(e.damage, 60.0);
    }

    #[test]
    fn conflict_damage_grows_with_earliness() {
        // β0 = 1/3 exactly ⇒ dual-active finalizes both branches almost
        // immediately even at n = 120.
        let p = EvalParams {
            beta0: 1.0 / 3.0,
            ..params(Objective::Conflict)
        };
        let dual = evaluate(&p, Genome::DUAL_ACTIVE);
        let idle = evaluate(
            &p,
            Genome {
                duty: [crate::genome::DutyGene::OFF, crate::genome::DutyGene::OFF],
                dwell: 0,
            },
        );
        assert!(dual.conflict_epoch.is_some());
        assert!(dual.damage > idle.damage);
        assert_eq!(idle.damage, 0.0);
    }
}
