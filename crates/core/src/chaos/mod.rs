//! The chaos campaign runner: a standing randomized adversarial search
//! over the full scenario space, checked against explicit safety and
//! liveness oracles.
//!
//! The paper validates its claims on five hand-picked scenarios; the
//! search (`ethpos_search`) and timeline (`ethpos_sim::partition`)
//! layers opened a space far larger than any fixed test list. A
//! [`ChaosSpec`] samples `budget` random **cases** — a
//! [`PartitionTimeline`] × adversary ([`StrategyKind`] or a searchable
//! [`Genome`]) × Byzantine stake β₀ — each from its own
//! [`SeedSequence`] child, runs them on the [`ChunkPool`] heaviest
//! predicted case first (bytes never depend on the thread count or the
//! claim order) at populations up to 10⁶ on the cohort
//! backend, and classifies every outcome against the paper's
//! closed-form expectation model:
//!
//! * **Safety oracle** — the engine's `SafetyMonitor` reports
//!   conflicting finalization. A conflict is an *expected attack* when
//!   it arrives no earlier than the Eq. 9 closed-form lower bound for
//!   the conflicting branch pair (each branch's most favorable honest
//!   share, full Byzantine help, staircase slack); an earlier conflict
//!   is a genuine violation — the engine finalized two branches faster
//!   than the leak model permits.
//! * **Liveness oracle** — a branch whose pinned honest stake alone is
//!   a ⅔ supermajority must finalize within a grace window of its
//!   creation, and a branch the adversary *cannot* block
//!   (honest-attesting share `q > 2β₀`, no churn) must finalize by the
//!   closed-form leak bound (absent honest decay with the Byzantine
//!   stake pessimistically frozen, capped at the inactive-ejection
//!   epoch). Branches the adversary can legitimately stall (`q ≤ 2β₀`
//!   — the §5.2.3/§5.3 regime — or churned membership) are classified
//!   *expected-stall*, never violations.
//! * **Backend invariant** — a sampled subset of churn-free cases is
//!   re-run at a small population on **both** state backends and the
//!   outcome summaries compared field-for-field; any divergence is a
//!   genuine violation of the dense/cohort equivalence contract.
//!
//! On an unexpected violation the [`shrink`] module minimizes the
//! reproducer (drop timeline events, merge branches, shorten horizons,
//! soften weights, simplify the adversary — re-running the oracle at
//! every step) and the [`corpus`] module renders it in the
//! `tests/golden/chaos/` fixture format, so every counterexample the
//! campaign ever finds becomes a permanent regression test.

pub mod corpus;
pub mod shrink;

use rand::Rng;
use serde::{Deserialize, Serialize};

use ethpos_search::{Genome, ParamSchedule};
use ethpos_sim::{
    run_partition, sample_timeline, two_branch_only, ByzantineSchedule, ChunkPool, ChurnStats,
    CompiledTimeline, ForkStats, MarkingPlan, PartitionConfig, PartitionOutcome, PartitionTimeline,
    TimelineAction,
};
use ethpos_state::BackendKind;
use ethpos_stats::SeedSequence;
use ethpos_types::ChainConfig;

use crate::partition::StrategyKind;
use crate::report::Table;
use crate::stake_model::PAPER_EJECT_INACTIVE;

/// Population used to resolve timeline weights into class fractions for
/// the expectation model (large enough that rounding is negligible).
const PROBE: u64 = 1 << 20;

// Churn cases used to be clamped to n = 256 × 384 epochs here
// (`CHURN_MAX_N`/`CHURN_MAX_EPOCHS`): membership was re-drawn per honest
// validator per epoch, costing O(n·epochs) regardless of backend. The
// churn stage now draws per-cohort binomial counts
// (`mark_class_counted`), so churn cases run unclamped at the campaign's
// full population scale like every other case. They are still the
// campaign's most expensive shape: a churned branch in a deep leak
// fragments toward one cohort per distinct leaked balance (see
// ARCHITECTURE.md "Churn sampling"), so long-horizon full-population
// campaigns should bound the horizon (`--epochs`) or the budget.

/// The oracle thresholds — separated out so tests can *inject bugs*
/// (tighten a bound) and watch the campaign catch and shrink them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleParams {
    /// Epochs allowed past any bound for discrete justify/finalize
    /// latency.
    pub grace: f64,
    /// Relative slack on closed-form bounds. The staircase-quantized
    /// Eq. 9/10 kernels (see `staircase_crossing`) track the engine
    /// within ~1–2 % across the sampled β₀ ∈ [0.05, 0.45] range; the
    /// default absorbs 5 % plus `abs_slack` epochs.
    pub rel_slack: f64,
    /// Absolute slack in epochs on closed-form bounds.
    pub abs_slack: f64,
    /// Stake-proportion margin for the supermajority / blockability
    /// tests (absorbs `round(β₀·n)` and class-rounding effects).
    pub margin: f64,
    /// Conflicting finalization before this epoch is always a genuine
    /// violation (justification alone needs two epochs).
    pub min_conflict_epoch: u64,
}

impl Default for OracleParams {
    fn default() -> Self {
        OracleParams {
            grace: 8.0,
            rel_slack: 0.05,
            abs_slack: 32.0,
            margin: 0.005,
            min_conflict_epoch: 2,
        }
    }
}

/// Sizing of the dense/cohort divergence cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CrosscheckParams {
    /// Cross-check every `every`-th case (0 disables the oracle).
    /// Churn cases are skipped: their Bernoulli stream is consumed in
    /// backend order, so the backends are only equal in law.
    pub every: u64,
    /// Population of the cross-check re-runs (dense is O(n) per epoch,
    /// so this stays small).
    pub n: usize,
    /// Epoch cap of the cross-check re-runs.
    pub max_epochs: u64,
}

impl Default for CrosscheckParams {
    fn default() -> Self {
        CrosscheckParams {
            every: 16,
            n: 1024,
            max_epochs: 768,
        }
    }
}

/// The adversary of one chaos case: a hand-written strategy or a
/// searchable duty-cycle genome (genomes are the paper's two-branch
/// machine, so the sampler only pairs them with all-two-branch
/// timelines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Adversary {
    /// One of the named k-branch strategies.
    Strategy(StrategyKind),
    /// A `ethpos_search` duty-cycle genome (two-branch timelines only).
    Genome(Genome),
}

impl Adversary {
    /// A compact, parseable label: `strategy:<id>` or
    /// `genome:<p>.<on>.<ph>+<p>.<on>.<ph>@<dwell>`.
    pub fn label(&self) -> String {
        match self {
            Adversary::Strategy(kind) => format!("strategy:{}", kind.id()),
            Adversary::Genome(g) => format!(
                "genome:{}.{}.{}+{}.{}.{}@{}",
                g.duty[0].period,
                g.duty[0].on,
                g.duty[0].phase,
                g.duty[1].period,
                g.duty[1].on,
                g.duty[1].phase,
                g.dwell
            ),
        }
    }

    /// Parses [`Adversary::label`] back.
    pub fn parse(label: &str) -> Option<Adversary> {
        if let Some(id) = label.strip_prefix("strategy:") {
            return StrategyKind::from_id(id).map(Adversary::Strategy);
        }
        let body = label.strip_prefix("genome:")?;
        let (duty, dwell) = body.split_once('@')?;
        let (a, b) = duty.split_once('+')?;
        let gene = |s: &str| -> Option<ethpos_search::DutyGene> {
            let mut it = s.split('.');
            let gene = ethpos_search::DutyGene {
                period: it.next()?.parse().ok()?,
                on: it.next()?.parse().ok()?,
                phase: it.next()?.parse().ok()?,
            };
            it.next().is_none().then_some(gene)
        };
        Some(Adversary::Genome(Genome {
            duty: [gene(a)?, gene(b)?],
            dwell: dwell.parse().ok()?,
        }))
    }

    /// Builds a fresh schedule instance.
    pub fn build(&self) -> Box<dyn ByzantineSchedule> {
        match self {
            Adversary::Strategy(kind) => kind.build(),
            Adversary::Genome(g) => Box::new(ParamSchedule::new(*g)),
        }
    }

    /// True when the schedule is only defined for exactly two live
    /// branches in every phase.
    pub fn requires_two_branches(&self) -> bool {
        matches!(
            self,
            Adversary::Genome(_) | Adversary::Strategy(StrategyKind::SemiActive)
        )
    }

    /// A monotone complexity score the shrinker drives down
    /// (`DualActive` — attest everything always — is the simplest).
    pub fn complexity(&self) -> u64 {
        match self {
            Adversary::Strategy(StrategyKind::DualActive) => 0,
            Adversary::Strategy(_) => 1,
            Adversary::Genome(g) => {
                2 + u64::from(g.dwell)
                    + g.duty
                        .iter()
                        .map(|d| u64::from(d.period) + u64::from(d.on) + u64::from(d.phase))
                        .sum::<u64>()
            }
        }
    }
}

/// One sampled chaos case — everything needed to reproduce one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// Campaign index (the `SeedSequence` child the case was drawn
    /// from; shrunk reproducers keep their origin's index).
    pub index: u64,
    /// The partition timeline.
    pub timeline: PartitionTimeline,
    /// The adversary.
    pub adversary: Adversary,
    /// Initial Byzantine proportion (realized as `round(β₀·n)`).
    pub beta0: f64,
    /// Registry size.
    pub n: usize,
    /// Epoch horizon.
    pub max_epochs: u64,
    /// Engine RNG seed (consumed by churn draws only).
    pub engine_seed: u64,
}

impl ChaosCase {
    /// A scalar size the shrinker minimizes: timeline structure first,
    /// then adversary complexity, then the horizon.
    pub fn size(&self) -> u64 {
        1000 * ethpos_sim::event_count(&self.timeline) as u64
            + 100 * ethpos_sim::branch_slots(&self.timeline) as u64
            + 10 * self.adversary.complexity()
            + self.max_epochs
    }

    /// The serializable form (timeline in spec syntax, adversary as its
    /// label).
    pub fn record(&self) -> CaseRecord {
        CaseRecord {
            index: self.index,
            timeline: self.timeline.render(),
            adversary: self.adversary.label(),
            beta0: self.beta0,
            n: self.n as u64,
            max_epochs: self.max_epochs,
            engine_seed: self.engine_seed,
        }
    }

    /// True when any timeline event churns its membership.
    pub fn has_churn(&self) -> bool {
        self.timeline
            .events
            .iter()
            .any(|e| matches!(e.action, TimelineAction::Split { churn: true, .. }))
    }
}

/// The flat, serializable form of a [`ChaosCase`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseRecord {
    /// Campaign index.
    pub index: u64,
    /// Timeline in spec syntax.
    pub timeline: String,
    /// Adversary label.
    pub adversary: String,
    /// Initial Byzantine proportion.
    pub beta0: f64,
    /// Registry size.
    pub n: u64,
    /// Epoch horizon.
    pub max_epochs: u64,
    /// Engine RNG seed.
    pub engine_seed: u64,
}

/// A chaos campaign: `budget` sampled cases, classified and (on any
/// unexpected violation) shrunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Number of cases to sample.
    pub budget: u64,
    /// Campaign root seed (each case is `SeedSequence::new(seed)`'s
    /// child `index`).
    pub seed: u64,
    /// Registry size of the main runs.
    pub n: usize,
    /// Epoch horizon of the main runs (also the cap for sampled event
    /// epochs).
    pub max_epochs: u64,
    /// State backend of the main runs.
    pub backend: BackendKind,
    /// Worker threads (`0` = one per hardware thread). Never changes
    /// the report bytes.
    pub threads: usize,
    /// Oracle thresholds.
    pub oracle: OracleParams,
    /// Dense/cohort cross-check sizing.
    pub crosscheck: CrosscheckParams,
}

impl Default for ChaosSpec {
    /// The headline configuration: 256 cases at the paper's true
    /// million-validator population on the cohort backend.
    fn default() -> Self {
        ChaosSpec {
            budget: 256,
            seed: 1,
            n: 1_000_000,
            max_epochs: 4096,
            backend: BackendKind::Cohort,
            threads: 0,
            oracle: OracleParams::default(),
            crosscheck: CrosscheckParams::default(),
        }
    }
}

impl ChaosSpec {
    /// A small instance for the experiment registry and smoke tests.
    ///
    /// The population is explicit (not the headline million): churn
    /// cases run unclamped, and a deep-leak churn run fragments the
    /// cohort backend toward one cohort per churned validator (every
    /// participation history leaks to a distinct balance), so a smoke
    /// instance pays O(n) per epoch on churn cases. 8 192 keeps the
    /// whole registry interactive in debug builds; the full-population
    /// campaign lives on `ethpos-cli chaos`.
    pub fn smoke() -> Self {
        ChaosSpec {
            budget: 16,
            n: 8_192,
            max_epochs: 1536,
            ..ChaosSpec::default()
        }
    }

    /// Runs the campaign: samples, runs and classifies every case on
    /// the worker pool, then shrinks any unexpected violation on the
    /// coordinating thread (byte-identical for any `threads`).
    pub fn run(&self) -> ChaosReport {
        self.run_with_stats().0
    }

    /// [`ChaosSpec::run`] plus the campaign's aggregated [`ChaosStats`]
    /// fork and churn-draw counters. The report is unchanged — the stats
    /// are the side-channel the CLI writes to its separate `--stats-out`
    /// artifact (report JSON is byte-pinned by the golden corpus).
    pub fn run_with_stats(&self) -> (ChaosReport, ChaosStats) {
        let _span = ethpos_obs::span("chaos", "chaos campaign");
        let cases: Vec<ChaosCase> = (0..self.budget).map(|i| sample_case(self, i)).collect();
        let order = self.claim_order(&cases);
        let mut evaluated = ChunkPool::new(self.threads).map(order.len(), |claim| {
            evaluate_case(self, &cases[order[claim]])
        });
        // Claim order is not result order: every result goes back to its
        // case index before anything reads it.
        evaluated.sort_unstable_by_key(|(row, _, _)| row.case.index);
        self.assemble(&cases, evaluated)
    }

    /// The order the pool claims `cases` in: descending
    /// [`ChaosSpec::predicted_cost`], ties in index order. Case cost is
    /// heavy tailed (a churn case can outweigh the rest of the campaign),
    /// so a heavy case claimed last leaves the other workers idle while
    /// it runs alone; claimed first, it overlaps the light ones.
    fn claim_order(&self, cases: &[ChaosCase]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..cases.len()).collect();
        // Stable, so equal costs keep their index order.
        order.sort_by_cached_key(|&i| std::cmp::Reverse(self.predicted_cost(&cases[i])));
        order
    }

    /// A case's predicted cost from its shape alone, compared
    /// lexicographically: churn work first, then plain work.
    ///
    /// Churn work is churned members × live branches × churning epochs
    /// of the compiled timeline — the per-cohort count draws and the
    /// fragmentation they cause dominate every churn case, so any churn
    /// case outranks every churn-free one. Plain work is the main run's
    /// branch-epochs plus, for a cross-checked case, the dense replica's
    /// branch-epochs weighted by its population (a dense epoch walks
    /// every validator; a pinned cohort epoch walks a handful of
    /// cohorts).
    fn predicted_cost(&self, case: &ChaosCase) -> (u64, u64) {
        let compiled = compile_case(case);
        let churn = phase_spans(&compiled, case.max_epochs)
            .map(|(plan, epochs)| {
                let members: u64 = plan.churn_groups().iter().map(|g| g.members).sum();
                members * plan.live_branches().len() as u64 * epochs
            })
            .sum();
        let mut plain = branch_epochs(&compiled, case.max_epochs);
        if self.crosschecked(case) {
            let replica_epochs = case.max_epochs.min(self.crosscheck.max_epochs);
            plain += self.crosscheck.n as u64 * branch_epochs(&compiled, replica_epochs);
        }
        (churn, plain)
    }

    /// True when `case` goes through the dense/cohort cross-check: every
    /// `crosscheck.every`-th index, churn cases excepted.
    fn crosschecked(&self, case: &ChaosCase) -> bool {
        self.crosscheck.every > 0
            && case.index.is_multiple_of(self.crosscheck.every)
            && !case.has_churn()
    }

    /// Folds the evaluated `cases`, in case-index order, into the report
    /// and its stats, shrinking every unexpected violation on this
    /// thread.
    fn assemble(
        &self,
        cases: &[ChaosCase],
        evaluated: Vec<(ChaosRow, ForkStats, ChurnStats)>,
    ) -> (ChaosReport, ChaosStats) {
        let mut stats = ChaosStats {
            cases: self.budget,
            fork: ForkStats::default(),
            churn: ChurnStats::default(),
        };
        let rows: Vec<ChaosRow> = evaluated
            .into_iter()
            .map(|(row, fork, churn)| {
                stats.fork.absorb(&fork);
                stats.churn.absorb(&churn);
                row
            })
            .collect();
        let mut violations = Vec::new();
        for row in rows.iter().filter(|r| r.unexpected()) {
            violations.push(shrink_violation(self, &cases[row.case.index as usize], row));
        }
        let counts = Counts::tally(&rows);
        let report = ChaosReport {
            budget: self.budget,
            seed: self.seed,
            n: self.n as u64,
            max_epochs: self.max_epochs,
            backend: self.backend,
            counts,
            violations,
            rows,
        };
        (report, stats)
    }
}

/// Campaign-level fork counters: every sampled case's timeline `Split`
/// activity, summed. Deliberately **not** part of [`ChaosReport`] —
/// report JSON is byte-pinned by the golden replay corpus; the CLI
/// writes these to the separate `--stats-out` artifact. (Shrinker and
/// cross-check re-runs are diagnostics, not campaign cases, and are not
/// counted.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChaosStats {
    /// Cases the campaign ran (`budget`).
    pub cases: u64,
    /// Their aggregated [`ForkStats`]: fork counts, depths, and the
    /// copy-on-write chunks forked children shared with their parents.
    pub fork: ForkStats,
    /// Their aggregated [`ChurnStats`]: per-cohort binomial count draws
    /// and the members those draws covered (`members / draws` is the
    /// campaign-wide mean cohort size on the churn path).
    pub churn: ChurnStats,
}

/// Samples case `index` of the campaign — a pure function of
/// `(spec.seed, index)`, independent of sibling cases and thread
/// scheduling.
pub fn sample_case(spec: &ChaosSpec, index: u64) -> ChaosCase {
    let seq = SeedSequence::new(spec.seed).child(index);
    let mut rng = seq.child_rng(0);
    // The horizon is part of the sampled shape: the spec's cap halved
    // zero to three times (floored at `sample_timeline`'s 64-epoch
    // minimum). Short-horizon cases probe early-epoch behaviour (and
    // keep the campaign's wall clock dominated by structure, not by
    // replaying the same long stall over and over).
    let max_epochs = (spec.max_epochs >> rng.random_range(0..4u32)).max(64);
    let timeline = sample_timeline(&mut rng, max_epochs);
    let beta0 = match rng.random_range(0..10u32) {
        0 => 0.0,
        1 => 0.33,
        _ => 0.05 + 0.40 * rng.random::<f64>(),
    };
    let two_branch = two_branch_only(&timeline);
    let adversary = if two_branch && rng.random_bool(0.5) {
        let corner = match rng.random_range(0..3u32) {
            0 => Genome::DUAL_ACTIVE,
            1 => Genome::THRESHOLD_SEEKER,
            _ => Genome::SEMI_ACTIVE,
        };
        let mutations = rng.random_range(0..4u32);
        let mut genome = corner;
        for _ in 0..mutations {
            genome = genome.mutate(&mut rng);
        }
        Adversary::Genome(genome.canonical())
    } else {
        let eligible: &[StrategyKind] = if two_branch {
            &[
                StrategyKind::DualActive,
                StrategyKind::SemiActive,
                StrategyKind::ThresholdSeeker,
                StrategyKind::Rotate,
                StrategyKind::RotateDwell,
            ]
        } else {
            &[
                StrategyKind::DualActive,
                StrategyKind::ThresholdSeeker,
                StrategyKind::Rotate,
                StrategyKind::RotateDwell,
            ]
        };
        Adversary::Strategy(eligible[rng.random_range(0..eligible.len() as u32) as usize])
    };
    ChaosCase {
        index,
        timeline,
        adversary,
        beta0,
        n: spec.n,
        max_epochs,
        engine_seed: seq.child_seed(1),
    }
}

/// Runs one case on the chosen backend.
///
/// # Panics
///
/// Panics if the timeline does not compile at this population size —
/// sampled and shrunk cases are compile-checked before they get here.
pub fn run_case(case: &ChaosCase, backend: BackendKind) -> PartitionOutcome {
    run_case_with_stats(case, backend).0
}

/// [`run_case`] plus the run's [`ForkStats`] (the `Split` activity of
/// the copy-on-write state layer) and [`ChurnStats`] (the count-level
/// churn draws), through [`run_partition`] on one thread.
pub fn run_case_with_stats(
    case: &ChaosCase,
    backend: BackendKind,
) -> (PartitionOutcome, ForkStats, ChurnStats) {
    let byzantine = byzantine_count(case);
    let config = PartitionConfig {
        chain: ChainConfig::paper(),
        n: case.n,
        byzantine,
        timeline: case.timeline.clone(),
        max_epochs: case.max_epochs,
        seed: case.engine_seed,
        stop_on_conflict: true,
        stop_on_finalization: false,
        record_every: u64::MAX,
    };
    run_partition(backend, config, case.adversary.build(), 1)
        .unwrap_or_else(|err| panic!("chaos case {}: {err}", case.index))
}

/// The Byzantine registry size of a case: `round(β₀·n)`.
fn byzantine_count(case: &ChaosCase) -> usize {
    (case.beta0 * case.n as f64).round() as usize
}

/// The case's timeline compiled at the honest population its run
/// compiles it at.
fn compile_case(case: &ChaosCase) -> CompiledTimeline {
    let honest = case.n.saturating_sub(byzantine_count(case)) as u64;
    case.timeline
        .compile(honest)
        .unwrap_or_else(|err| panic!("chaos case {}: {err}", case.index))
}

/// Each phase's marking plan with the epochs it is in force within a
/// `horizon`-epoch run (0 for a phase that starts past the horizon).
fn phase_spans(
    compiled: &CompiledTimeline,
    horizon: u64,
) -> impl Iterator<Item = (&MarkingPlan, u64)> {
    let steps = compiled.steps();
    steps.iter().enumerate().map(move |(k, step)| {
        let end = steps
            .get(k + 1)
            .map_or(horizon, |next| next.epoch().min(horizon));
        (step.plan(), end.saturating_sub(step.epoch()))
    })
}

/// Live branches × epochs over a `horizon`-epoch run: how many branch
/// states the engine advances.
fn branch_epochs(compiled: &CompiledTimeline, horizon: u64) -> u64 {
    phase_spans(compiled, horizon)
        .map(|(plan, epochs)| plan.live_branches().len() as u64 * epochs)
        .sum()
}

// ─── The expectation model ──────────────────────────────────────────────

/// What the closed forms say about one branch of a timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchProfile {
    /// Branch id.
    pub branch: u32,
    /// Epoch of the step that created the branch.
    pub created: u64,
    /// The largest honest-stake fraction the branch ever commands
    /// (churn groups counted whole — the branch's best case).
    pub max_w: f64,
    /// The smallest *pinned* honest fraction while live (churned
    /// membership counts 0 — the branch's worst case).
    pub min_w: f64,
    /// True when the branch's membership churns in any phase.
    pub churns: bool,
}

/// Derives the per-branch closed-form profiles of a timeline.
///
/// # Panics
///
/// Panics if the timeline does not compile.
pub fn branch_profiles(timeline: &PartitionTimeline) -> Vec<BranchProfile> {
    let compiled = timeline
        .compile(PROBE)
        .unwrap_or_else(|e| panic!("profiled timeline must compile: {e}"));
    let sizes = compiled.honest_classes();
    let total: u64 = sizes.iter().sum();
    // state class index c holds sizes[c - 1] honest members
    let class_w = |c: usize| sizes[c - 1] as f64 / total as f64;
    let mut profiles: Vec<Option<BranchProfile>> = vec![None; compiled.total_branches() as usize];
    for step in compiled.steps() {
        let plan = step.plan();
        for branch in plan.live_branches() {
            let pinned: f64 = plan
                .pinned_classes(branch)
                .expect("live branch")
                .iter()
                .map(|&c| class_w(c))
                .sum();
            let mut best = pinned;
            let mut churns_here = false;
            for group in plan.churn_groups() {
                if group.branches.contains(&branch) {
                    churns_here = true;
                    best += group.members as f64 / total as f64;
                }
            }
            let id = branch.as_u64() as usize;
            let entry = profiles[id].get_or_insert(BranchProfile {
                branch: branch.as_u64() as u32,
                created: step.epoch(),
                max_w: best,
                min_w: pinned,
                churns: churns_here,
            });
            entry.max_w = entry.max_w.max(best);
            entry.min_w = entry.min_w.min(pinned);
            entry.churns |= churns_here;
        }
    }
    profiles.into_iter().flatten().collect()
}

/// The epoch at which an absent validator's *effective-balance* weight
/// can first have shrunk to `d_star` of its genesis weight.
///
/// The paper's Eq. 8/9 model the inactivity leak as a continuous decay
/// `e^(−t²/2²⁵)`, but the engine accounts stake in 1-ETH effective
/// balances with 0.25 ETH downward hysteresis: an absent validator's
/// weight is the continuous leak *snapped to 1/32 steps*, and the step
/// to `32 − k` ETH fires as soon as the actual balance has leaked more
/// than `k − 0.75` ETH. Near a ratio threshold this staircase dominates
/// the dynamics — the first step (t ≈ 513) instantly removes ~3 % of
/// the absent weight, so a branch whose continuous Eq. 9 crossing is
/// epoch ~1000 can conflict at ~519. The quantized kernel stays within
/// ~1 % of the engine across the sampled β₀ range where the continuous
/// form is off by up to 2×.
///
/// Ejection (actual balance < 16.75 ETH, epoch 4685) removes the
/// validator entirely, so every `d_star` is reachable by then.
fn staircase_crossing(d_star: f64) -> f64 {
    if d_star >= 1.0 {
        return 0.0;
    }
    // Smallest k with (32 − k)/32 ≤ d_star, i.e. the first effective-
    // balance step that brings the absent weight under the target.
    let k = (32.0 * (1.0 - d_star)).ceil().min(32.0);
    let trigger = 32.0 - k + 0.75;
    (2f64.powi(25) * (32.0 / trigger).ln())
        .sqrt()
        .min(PAPER_EJECT_INACTIVE)
}

/// The earliest epoch (from 0) at which a branch that ever commands
/// honest fraction `max_w` can reach ⅔ with full Byzantine help — the
/// Eq. 9 ratio condition (`attesting ≥ 2 × absent × decay`) solved on
/// the effective-balance staircase ([`staircase_crossing`]) instead of
/// the continuous decay. Leak persisting through heals can only bring
/// the crossing *toward* this bound, never below it.
fn earliest_two_thirds(max_w: f64, beta0: f64) -> f64 {
    let w = max_w.clamp(1e-9, 1.0 - 1e-9);
    let beta0 = beta0.clamp(0.0, 1.0 - 1e-9);
    let attesting = beta0 + w * (1.0 - beta0);
    let absent = (1.0 - w) * (1.0 - beta0);
    staircase_crossing(attesting / (2.0 * absent))
}

/// The closed-form lower bound for a conflict between two branches.
pub fn conflict_lower_bound(a: &BranchProfile, b: &BranchProfile, beta0: f64) -> f64 {
    earliest_two_thirds(a.max_w, beta0).max(earliest_two_thirds(b.max_w, beta0))
}

/// The guaranteed-finalization epoch of a branch, or `None` when the
/// adversary can legitimately block it forever (`q ≤ 2β₀`, the
/// threshold/bouncing regime) or its membership churns (the §5.3
/// random-walk regime — no deterministic leak).
///
/// With `q = min_w·(1−β₀)` the branch's honest-attesting stake
/// fraction: a `q ≥ ⅔` supermajority finalizes within `grace` of
/// creation regardless of the adversary; otherwise the absent honest
/// stake decays as `exp(−t²/2²⁵)` while the Byzantine stake is
/// pessimistically frozen (a real adversary leaks when absent and
/// *helps* when attesting), so the ratio crosses ⅔ no later than the
/// solved bound, capped at the inactive-ejection epoch.
pub fn liveness_bound(profile: &BranchProfile, beta0: f64, oracle: &OracleParams) -> Option<f64> {
    if profile.churns {
        return None;
    }
    let q = profile.min_w * (1.0 - beta0);
    if q >= 2.0 / 3.0 + oracle.margin {
        return Some(profile.created as f64 + oracle.grace);
    }
    if q <= 2.0 * beta0 + oracle.margin {
        return None;
    }
    let absent = (1.0 - profile.min_w) * (1.0 - beta0);
    let t = if absent <= 1e-12 {
        0.0
    } else {
        // The same effective-balance staircase as the conflict bound:
        // the sufficient step is *forced* once the actual balance passes
        // its hysteresis trigger, so the crossing happens by the trigger
        // epoch (plus justify/finalize latency, covered by `grace`).
        staircase_crossing((q - 2.0 * beta0) / (2.0 * absent))
    };
    Some(profile.created as f64 + t * (1.0 + oracle.rel_slack) + oracle.abs_slack + oracle.grace)
}

/// The classified outcome of one case.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Classification {
    /// `healthy`, `expected-conflict`, `expected-stall`,
    /// `unexpected-safety`, `unexpected-liveness` or
    /// `unexpected-divergence`.
    pub verdict: String,
    /// Human-readable explanation (bounds, branches, observations).
    pub detail: String,
    /// Observed conflicting-finalization epoch, if any.
    pub conflict_epoch: Option<u64>,
    /// The closed-form conflict lower bound, when a conflict was
    /// observed.
    pub conflict_lower_bound: Option<f64>,
}

impl Classification {
    /// True for the `unexpected-*` verdicts.
    pub fn unexpected(&self) -> bool {
        self.verdict.starts_with("unexpected")
    }
}

/// Classifies a finished run against the expectation model.
///
/// # Panics
///
/// Panics if the case's timeline does not compile.
pub fn classify(
    case: &ChaosCase,
    outcome: &PartitionOutcome,
    oracle: &OracleParams,
) -> Classification {
    let profiles = branch_profiles(&case.timeline);
    let profile_of = |id: u64| profiles.iter().find(|p| u64::from(p.branch) == id);
    if let Some(violation) = &outcome.violation {
        let observed = outcome
            .conflicting_finalization_epoch
            .unwrap_or(outcome.epochs_run);
        let (a, b) = (violation.branch_a.as_u64(), violation.branch_b.as_u64());
        if observed < oracle.min_conflict_epoch {
            return Classification {
                verdict: "unexpected-safety".into(),
                detail: format!(
                    "conflicting finalization between branches {a} and {b} at epoch {observed}, \
                     before the structural minimum {}",
                    oracle.min_conflict_epoch
                ),
                conflict_epoch: Some(observed),
                conflict_lower_bound: Some(oracle.min_conflict_epoch as f64),
            };
        }
        let (pa, pb) = match (profile_of(a), profile_of(b)) {
            (Some(pa), Some(pb)) => (pa, pb),
            _ => {
                return Classification {
                    verdict: "unexpected-safety".into(),
                    detail: format!("conflict names unknown branch {a} or {b}"),
                    conflict_epoch: Some(observed),
                    conflict_lower_bound: None,
                }
            }
        };
        let bound = conflict_lower_bound(pa, pb, case.beta0);
        let floor = (bound * (1.0 - oracle.rel_slack) - oracle.abs_slack).max(0.0);
        if (observed as f64) < floor {
            Classification {
                verdict: "unexpected-safety".into(),
                detail: format!(
                    "conflict between branches {a} and {b} at epoch {observed}, before the \
                     closed-form lower bound {bound:.0} (floor {floor:.0})"
                ),
                conflict_epoch: Some(observed),
                conflict_lower_bound: Some(bound),
            }
        } else {
            Classification {
                verdict: "expected-conflict".into(),
                detail: format!(
                    "conflict between branches {a} and {b} at epoch {observed} ≥ closed-form \
                     lower bound {bound:.0}"
                ),
                conflict_epoch: Some(observed),
                conflict_lower_bound: Some(bound),
            }
        }
    } else {
        // No conflict: check every branch's liveness bound.
        for profile in &profiles {
            let branch = outcome
                .branches
                .iter()
                .find(|b| b.branch.as_u64() == u64::from(profile.branch));
            let Some(branch) = branch else { continue };
            let window_end = branch.healed_at_epoch.unwrap_or(outcome.epochs_run);
            let Some(bound) = liveness_bound(profile, case.beta0, oracle) else {
                continue;
            };
            match branch.first_finalization_epoch {
                Some(f) if (f as f64) > bound => {
                    return Classification {
                        verdict: "unexpected-liveness".into(),
                        detail: format!(
                            "branch {} first finalized at epoch {f}, past its bound {bound:.0}",
                            profile.branch
                        ),
                        conflict_epoch: None,
                        conflict_lower_bound: None,
                    };
                }
                None if (window_end as f64) >= bound => {
                    return Classification {
                        verdict: "unexpected-liveness".into(),
                        detail: format!(
                            "branch {} never finalized though it ran to epoch {window_end}, \
                             past its bound {bound:.0}",
                            profile.branch
                        ),
                        conflict_epoch: None,
                        conflict_lower_bound: None,
                    };
                }
                _ => {}
            }
        }
        let stalled: Vec<u32> = profiles
            .iter()
            .filter(|p| {
                outcome
                    .branches
                    .iter()
                    .find(|b| b.branch.as_u64() == u64::from(p.branch))
                    .is_some_and(|b| {
                        b.healed_at_epoch.is_none() && b.first_finalization_epoch.is_none()
                    })
            })
            .map(|p| p.branch)
            .collect();
        if stalled.is_empty() {
            Classification {
                verdict: "healthy".into(),
                detail: "every surviving branch finalized within its bound".into(),
                conflict_epoch: None,
                conflict_lower_bound: None,
            }
        } else {
            Classification {
                verdict: "expected-stall".into(),
                detail: format!(
                    "branch(es) {stalled:?} unfinalized — blockable (q ≤ 2β₀), churned, or \
                     bound beyond the horizon"
                ),
                conflict_epoch: None,
                conflict_lower_bound: None,
            }
        }
    }
}

// ─── The divergence oracle ──────────────────────────────────────────────

/// The backend-comparison digest of one outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct OutcomeSummary {
    conflict_epoch: Option<u64>,
    violation: Option<[u64; 2]>,
    epochs_run: u64,
    double_vote_epochs: u64,
    branches: Vec<BranchSummary>,
}

/// One branch of the comparison digest.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct BranchSummary {
    branch: u64,
    created: u64,
    healed: Option<u64>,
    first_finalization: Option<u64>,
    final_finalized: u64,
    byzantine_exit: Option<u64>,
    final_byzantine_balance: u64,
}

fn summarize(outcome: &PartitionOutcome) -> OutcomeSummary {
    OutcomeSummary {
        conflict_epoch: outcome.conflicting_finalization_epoch,
        violation: outcome
            .violation
            .as_ref()
            .map(|v| [v.branch_a.as_u64(), v.branch_b.as_u64()]),
        epochs_run: outcome.epochs_run,
        double_vote_epochs: outcome.double_vote_epochs,
        branches: outcome
            .branches
            .iter()
            .map(|b| BranchSummary {
                branch: b.branch.as_u64(),
                created: b.created_at_epoch,
                healed: b.healed_at_epoch,
                first_finalization: b.first_finalization_epoch,
                final_finalized: b.final_finalized_epoch,
                byzantine_exit: b.byzantine_exit_epoch,
                final_byzantine_balance: b.final_byzantine_balance_gwei,
            })
            .collect(),
    }
}

/// Re-runs a (churn-free) case at the cross-check population on both
/// backends; returns the divergence description when the outcome
/// digests differ.
pub fn crosscheck_divergence(case: &ChaosCase, params: &CrosscheckParams) -> Option<String> {
    let mut small = case.clone();
    small.n = params.n;
    small.max_epochs = case.max_epochs.min(params.max_epochs);
    let dense = serde_json::to_string(&summarize(&run_case(&small, BackendKind::Dense)))
        .expect("serializable");
    let cohort = serde_json::to_string(&summarize(&run_case(&small, BackendKind::Cohort)))
        .expect("serializable");
    (dense != cohort).then(|| {
        format!(
            "dense/cohort outcome digests diverge at n = {} (dense {dense} vs cohort {cohort})",
            params.n
        )
    })
}

// ─── Campaign assembly ──────────────────────────────────────────────────

/// One case's report row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosRow {
    /// The sampled case.
    pub case: CaseRecord,
    /// Its classification.
    pub classification: Classification,
    /// First finalization epoch per branch (id order).
    pub first_finalization: Vec<Option<u64>>,
    /// Epochs with a slashable double vote.
    pub double_vote_epochs: u64,
    /// Epochs actually simulated (early-stop aware).
    pub epochs_run: u64,
    /// True when this case went through the dense/cohort cross-check.
    pub crosschecked: bool,
}

impl ChaosRow {
    /// True when the row carries an `unexpected-*` verdict.
    pub fn unexpected(&self) -> bool {
        self.classification.unexpected()
    }
}

fn evaluate_case(spec: &ChaosSpec, case: &ChaosCase) -> (ChaosRow, ForkStats, ChurnStats) {
    let _span = ethpos_obs::span_with("chaos", || format!("case {}", case.index));
    let (outcome, fork, churn) = run_case_with_stats(case, spec.backend);
    let mut classification = classify(case, &outcome, &spec.oracle);
    let crosschecked = spec.crosschecked(case);
    if crosschecked {
        if let Some(detail) = crosscheck_divergence(case, &spec.crosscheck) {
            classification = Classification {
                verdict: "unexpected-divergence".into(),
                detail,
                conflict_epoch: outcome.conflicting_finalization_epoch,
                conflict_lower_bound: None,
            };
        }
    }
    let row = ChaosRow {
        case: case.record(),
        classification,
        first_finalization: outcome
            .branches
            .iter()
            .map(|b| b.first_finalization_epoch)
            .collect(),
        double_vote_epochs: outcome.double_vote_epochs,
        epochs_run: outcome.epochs_run,
        crosschecked,
    };
    (row, fork, churn)
}

/// Verdict tallies over a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Counts {
    /// Cases where every surviving branch finalized within bound.
    pub healthy: u64,
    /// Conflicts the closed forms predict.
    pub expected_conflict: u64,
    /// Non-finalizations the adversary can legitimately cause.
    pub expected_stall: u64,
    /// Genuine violations (safety, liveness or backend divergence).
    pub unexpected: u64,
    /// Cases that went through the dense/cohort cross-check.
    pub crosschecked: u64,
}

impl Counts {
    fn tally(rows: &[ChaosRow]) -> Counts {
        let of = |verdict: &str| {
            rows.iter()
                .filter(|r| r.classification.verdict == verdict)
                .count() as u64
        };
        Counts {
            healthy: of("healthy"),
            expected_conflict: of("expected-conflict"),
            expected_stall: of("expected-stall"),
            unexpected: rows.iter().filter(|r| r.unexpected()).count() as u64,
            crosschecked: rows.iter().filter(|r| r.crosschecked).count() as u64,
        }
    }
}

/// An unexpected violation with its minimized reproducer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShrunkViolation {
    /// The violated verdict (`unexpected-safety`, `unexpected-liveness`
    /// or `unexpected-divergence`).
    pub verdict: String,
    /// The original detail string.
    pub detail: String,
    /// The case as sampled.
    pub original: CaseRecord,
    /// [`ChaosCase::size`] of the original.
    pub original_size: u64,
    /// The minimized reproducer.
    pub shrunk: CaseRecord,
    /// [`ChaosCase::size`] of the reproducer.
    pub shrunk_size: u64,
    /// Oracle re-runs the shrinker spent.
    pub predicate_calls: u64,
}

fn shrink_violation(spec: &ChaosSpec, case: &ChaosCase, row: &ChaosRow) -> ShrunkViolation {
    let verdict = row.classification.verdict.clone();
    let backend = spec.backend;
    let oracle = spec.oracle;
    let crosscheck = spec.crosscheck;
    let mut predicate: Box<dyn FnMut(&ChaosCase) -> bool> = if verdict == "unexpected-divergence" {
        Box::new(move |c: &ChaosCase| crosscheck_divergence(c, &crosscheck).is_some())
    } else {
        let wanted = verdict.clone();
        Box::new(move |c: &ChaosCase| classify(c, &run_case(c, backend), &oracle).verdict == wanted)
    };
    let result = shrink::shrink_case(case, &mut *predicate, shrink::DEFAULT_STEP_BUDGET);
    ShrunkViolation {
        verdict,
        detail: row.classification.detail.clone(),
        original: case.record(),
        original_size: case.size(),
        shrunk_size: result.case.size(),
        shrunk: result.case.record(),
        predicate_calls: result.predicate_calls as u64,
    }
}

/// The assembled campaign report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosReport {
    /// Cases sampled.
    pub budget: u64,
    /// Campaign root seed.
    pub seed: u64,
    /// Registry size.
    pub n: u64,
    /// Epoch horizon.
    pub max_epochs: u64,
    /// State backend.
    pub backend: BackendKind,
    /// Verdict tallies.
    pub counts: Counts,
    /// Unexpected violations with minimized reproducers (empty on a
    /// healthy engine).
    pub violations: Vec<ShrunkViolation>,
    /// One row per case, in sample order.
    pub rows: Vec<ChaosRow>,
}

impl ChaosReport {
    /// Renders the verdict tally as one table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Chaos campaign (budget {}, seed {}, n = {}, {} backend)",
                self.budget,
                self.seed,
                self.n,
                self.backend.id()
            ),
            &[
                "cases",
                "healthy",
                "expected conflict",
                "expected stall",
                "unexpected",
                "crosschecked",
            ],
        );
        table.push_row(vec![
            self.budget.to_string(),
            self.counts.healthy.to_string(),
            self.counts.expected_conflict.to_string(),
            self.counts.expected_stall.to_string(),
            self.counts.unexpected.to_string(),
            self.counts.crosschecked.to_string(),
        ]);
        table
    }

    /// Renders the report as plain text (tally plus any violations with
    /// their minimized reproducers).
    pub fn render_text(&self) -> String {
        let mut out = String::from(
            "# Chaos campaign — randomized timelines × adversaries vs the paper's oracles\n\n",
        );
        out.push_str(&self.table().render_text());
        if self.violations.is_empty() {
            out.push_str("\nno unexpected violations: every sampled run matches the closed-form expectation model\n");
        }
        for v in &self.violations {
            out.push_str(&format!(
                "\nUNEXPECTED {}: {}\n  original (size {}): {} | {} | β0 = {}\n  shrunk   (size {}): {} | {} | β0 = {} | {} epochs\n",
                v.verdict,
                v.detail,
                v.original_size,
                v.original.timeline,
                v.original.adversary,
                v.original.beta0,
                v.shrunk_size,
                v.shrunk.timeline,
                v.shrunk.adversary,
                v.shrunk.beta0,
                v.shrunk.max_epochs,
            ));
        }
        out
    }

    /// Serializes the full report to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable")
    }
}

#[cfg(test)]
mod tests;
