//! The `partition` experiment family: k-branch partition timelines the
//! paper cannot express, run at paper-true population sizes.
//!
//! A [`PartitionSpec`] is a batch of named [`PartitionScenario`]s — each
//! a [`PartitionTimeline`] plus an adversary strategy and sizing — that
//! is evaluated on the deterministic [`ChunkPool`]: scenarios fan out
//! over worker threads and merge in declaration order, so the whole
//! report is **bit-identical for any `threads` value** like every other
//! subsystem (see `ARCHITECTURE.md`, "The determinism model").
//!
//! Two headline scenarios ship as presets:
//!
//! * [`three_branch`] — a 3-way even split at β₀ = 0.33 under the
//!   k-branch semi-active rotation ([`RoundRobin`] dwell 2): each branch
//!   holds only ~22% honest stake, so the ⅔ threshold arrives with the
//!   inactive ejection wave (≈ epoch 4700, vs ≈ 513 for the two-branch
//!   split) and the dwell then finalizes the branches pairwise —
//!   conflicting finalization across **three** views.
//! * [`heal_resplit`] — a bouncing partition: split, heal (the network
//!   finalizes normally for a while), then re-split. The first
//!   partition's inactivity decay persists through the heal, so the
//!   second conflict arrives faster than a fresh β₀ = 0.3 partition —
//!   and the finalizations from the healed phase sit on the shared
//!   prefix of both new branches, which only an ancestry-aware safety
//!   check (the extended `SafetyMonitor`) classifies correctly.

use serde::Serialize;

use ethpos_sim::{
    run_partition, ByzantineSchedule, ChunkPool, ChurnStats, DualActive, ForkStats,
    PartitionConfig, PartitionOutcome, PartitionTimeline, RoundRobin, SemiActive, ThresholdSeeker,
    TimelineError,
};
use ethpos_state::BackendKind;
use ethpos_types::ChainConfig;

use crate::report::Table;

/// The adversary strategy driving a partition scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// §5.2.1: attest every live branch every epoch (slashable).
    DualActive,
    /// §5.2.2: the paper's two-branch alternation + dwell machine
    /// (two-branch timelines only).
    SemiActive,
    /// §5.2.3: rotate over the live branches, never finalize.
    ThresholdSeeker,
    /// Beyond the paper: rotate over k branches, no dwell.
    Rotate,
    /// Beyond the paper: rotate over k branches, dwell 2 once all can
    /// reach ⅔ — the k-branch semi-active generalization.
    RotateDwell,
}

impl StrategyKind {
    /// All strategies, in CLI listing order.
    pub fn all() -> [StrategyKind; 5] {
        [
            StrategyKind::DualActive,
            StrategyKind::SemiActive,
            StrategyKind::ThresholdSeeker,
            StrategyKind::Rotate,
            StrategyKind::RotateDwell,
        ]
    }

    /// Short CLI identifier.
    ///
    /// ```
    /// use ethpos_core::partition::StrategyKind;
    ///
    /// assert_eq!(StrategyKind::RotateDwell.id(), "rotate-dwell");
    /// assert_eq!(StrategyKind::from_id("dual-active"), Some(StrategyKind::DualActive));
    /// assert_eq!(StrategyKind::from_id("bogus"), None);
    /// ```
    pub fn id(&self) -> &'static str {
        match self {
            StrategyKind::DualActive => "dual-active",
            StrategyKind::SemiActive => "semi-active",
            StrategyKind::ThresholdSeeker => "threshold-seeker",
            StrategyKind::Rotate => "rotate",
            StrategyKind::RotateDwell => "rotate-dwell",
        }
    }

    /// Parses [`StrategyKind::id`] back.
    pub fn from_id(id: &str) -> Option<StrategyKind> {
        StrategyKind::all().into_iter().find(|s| s.id() == id)
    }

    /// Builds a fresh schedule instance.
    pub fn build(&self) -> Box<dyn ByzantineSchedule> {
        match self {
            StrategyKind::DualActive => Box::new(DualActive),
            StrategyKind::SemiActive => Box::new(SemiActive::new()),
            StrategyKind::ThresholdSeeker => Box::new(ThresholdSeeker::new()),
            StrategyKind::Rotate => Box::new(RoundRobin::new(0)),
            StrategyKind::RotateDwell => Box::new(RoundRobin::new(2)),
        }
    }
}

/// One named partition scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionScenario {
    /// Scenario name (report row label).
    pub name: String,
    /// The partition timeline.
    pub timeline: PartitionTimeline,
    /// The adversary strategy.
    pub strategy: StrategyKind,
    /// Initial Byzantine proportion (realized as `round(β₀·n)`
    /// validators).
    pub beta0: f64,
    /// Epoch horizon.
    pub epochs: u64,
    /// Stop as soon as conflicting finalization is observed.
    pub stop_on_conflict: bool,
}

/// The 3-branch semi-active headline scenario (see the module docs).
pub fn three_branch() -> PartitionScenario {
    PartitionScenario {
        name: "three-branch".into(),
        timeline: PartitionTimeline::new().split(
            0,
            ethpos_types::BranchId::GENESIS,
            &[0.34, 0.33, 0.33],
        ),
        strategy: StrategyKind::RotateDwell,
        beta0: 0.33,
        epochs: 6000,
        stop_on_conflict: true,
    }
}

/// The heal-then-resplit bouncing-partition headline scenario (see the
/// module docs).
pub fn heal_resplit() -> PartitionScenario {
    let genesis = ethpos_types::BranchId::GENESIS;
    PartitionScenario {
        name: "heal-resplit".into(),
        timeline: PartitionTimeline::new()
            .split(0, genesis, &[0.5, 0.5])
            .heal(300, genesis, &[ethpos_types::BranchId::new(1)])
            .split(400, genesis, &[0.5, 0.5]),
        strategy: StrategyKind::DualActive,
        beta0: 0.3,
        epochs: 2600,
        stop_on_conflict: true,
    }
}

/// The preset scenario suite (the CI smoke set and the default of
/// `ethpos-cli partition`).
pub fn preset_scenarios() -> Vec<PartitionScenario> {
    vec![three_branch(), heal_resplit()]
}

/// Default Byzantine proportion for a raw timeline spec (presets carry
/// their own; shared by `ethpos-cli partition` and the request API so
/// both resolve identical scenarios).
pub const RAW_TIMELINE_BETA0: f64 = 0.33;

/// Default epoch horizon for a raw timeline spec (see
/// [`RAW_TIMELINE_BETA0`]).
pub const RAW_TIMELINE_EPOCHS: u64 = 6000;

/// Resolves a `--timeline` argument: a preset name or a timeline spec
/// string (see [`PartitionTimeline::parse`]). Presets carry their own
/// strategy/β₀/horizon; a raw spec uses the caller's defaults.
///
/// # Errors
///
/// Returns a [`TimelineError`] when the argument is neither a preset
/// name nor a parsable spec.
pub fn resolve_scenario(
    arg: &str,
    strategy: StrategyKind,
    beta0: f64,
    epochs: u64,
) -> Result<PartitionScenario, TimelineError> {
    match arg {
        "three-branch" => Ok(three_branch()),
        "heal-resplit" => Ok(heal_resplit()),
        spec => {
            let timeline = PartitionTimeline::parse(spec)?;
            // Surface structural errors (weight counts, retired
            // branches, churn-group rules) at argument time, not after a
            // long run — the checks are population-independent.
            timeline.compile(1 << 20)?;
            Ok(PartitionScenario {
                name: format!("timeline[{}]", spec.trim()),
                timeline,
                strategy,
                beta0,
                epochs,
                stop_on_conflict: true,
            })
        }
    }
}

/// Checks that a scenario's strategy can observe its timeline: the
/// paper's [`StrategyKind::SemiActive`] machine is defined for exactly
/// two live branches, so any phase with a different branch count (a
/// k ≠ 2 split, a pre-split genesis phase, or a post-heal single view)
/// is rejected up front instead of panicking mid-run.
///
/// # Errors
///
/// Returns a [`TimelineError`] naming the offending phase.
pub fn validate_scenario(scenario: &PartitionScenario) -> Result<(), TimelineError> {
    if scenario.strategy != StrategyKind::SemiActive {
        return Ok(());
    }
    let compiled = scenario.timeline.compile(1 << 20)?;
    for step in compiled.steps() {
        let k = step.plan().live_branches().len();
        if k != 2 {
            return Err(TimelineError::new(format!(
                "strategy `semi-active` is the paper's two-branch machine, \
                 but scenario `{}` has {k} live branch(es) from epoch {} — \
                 use `rotate-dwell` (its k-branch generalization)",
                scenario.name,
                step.epoch()
            )));
        }
    }
    Ok(())
}

/// A batch of partition scenarios, sized and threaded.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// The scenarios, in report order.
    pub scenarios: Vec<PartitionScenario>,
    /// Registry size.
    pub n: usize,
    /// State backend.
    pub backend: BackendKind,
    /// RNG seed (consumed by churn timelines only).
    pub seed: u64,
    /// Worker threads (`0` = one per hardware thread). Scenarios run
    /// on them in parallel, and each scenario's simulator gets the
    /// threads the batch leaves spare (`threads / scenarios`, at least
    /// one) to advance its branches concurrently. Never changes the
    /// output bytes.
    pub threads: usize,
}

impl Default for PartitionSpec {
    /// The headline configuration: both presets at the paper's true
    /// million-validator population on the cohort backend.
    fn default() -> Self {
        PartitionSpec {
            scenarios: preset_scenarios(),
            n: 1_000_000,
            backend: BackendKind::Cohort,
            seed: 0,
            threads: 0,
        }
    }
}

impl PartitionSpec {
    /// A small instance of the preset suite that runs in well under a
    /// second even unoptimized — used by the experiment registry, the
    /// doctests and the CLI smoke tests.
    pub fn smoke() -> Self {
        PartitionSpec {
            n: 3000,
            ..PartitionSpec::default()
        }
    }

    /// Runs every scenario on the worker pool and assembles the report
    /// (byte-identical for any `threads`).
    ///
    /// # Panics
    ///
    /// Panics if a scenario's timeline does not compile — use
    /// [`resolve_scenario`] (or compile the timeline up front) to
    /// surface user errors before running.
    ///
    /// # Example
    ///
    /// ```
    /// use ethpos_core::partition::PartitionSpec;
    ///
    /// let report = PartitionSpec::smoke().run();
    /// assert_eq!(report.rows.len(), 2);
    /// // both headline scenarios end in conflicting finalization
    /// assert!(report.rows.iter().all(|r| r.conflict_epoch.is_some()));
    /// ```
    pub fn run(&self) -> PartitionReport {
        self.run_with_stats().0
    }

    /// [`PartitionSpec::run`] plus the batch's aggregated
    /// [`PartitionStats`] fork and churn-draw counters. The report is
    /// unchanged — the stats are the side channel `--stats-out` writes
    /// and the experiment service attaches to partition jobs (report
    /// JSON is byte-pinned by the golden corpus and must not grow
    /// fields).
    pub fn run_with_stats(&self) -> (PartitionReport, PartitionStats) {
        let _span = ethpos_obs::span("partition", "partition batch");
        let pool = ChunkPool::new(self.threads);
        let sim_threads = sim_threads(pool.threads(), self.scenarios.len());
        let results = pool.map(self.scenarios.len(), |i| {
            let scenario = &self.scenarios[i];
            let (outcome, fork, churn) =
                run_scenario_with_stats(scenario, self.n, self.backend, self.seed, sim_threads);
            (PartitionRow::new(scenario, &outcome), fork, churn)
        });
        let mut stats = PartitionStats {
            scenarios: self.scenarios.len() as u64,
            fork: ForkStats::default(),
            churn: ChurnStats::default(),
        };
        let rows: Vec<PartitionRow> = results
            .into_iter()
            .map(|(row, fork, churn)| {
                stats.fork.absorb(&fork);
                stats.churn.absorb(&churn);
                row
            })
            .collect();
        let report = PartitionReport {
            n: self.n,
            backend: self.backend,
            seed: self.seed,
            rows,
        };
        (report, stats)
    }
}

/// The threads each of `scenarios` simulators gets from a pool of
/// `pool_threads`: the ones the scenario fan-out leaves spare, and at
/// least one (an empty batch included).
fn sim_threads(pool_threads: usize, scenarios: usize) -> usize {
    (pool_threads / scenarios.max(1)).max(1)
}

/// Batch-level work counters of one partition run: every scenario's
/// [`ForkStats`] and [`ChurnStats`], summed. Deliberately **not** part
/// of [`PartitionReport`] — report JSON is byte-pinned by the golden
/// corpus; these travel as the job-stats side channel instead
/// (`ethpos-cli partition --stats-out`, the server's job `stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PartitionStats {
    /// Scenarios the batch ran.
    pub scenarios: u64,
    /// Their aggregated fork counters.
    pub fork: ForkStats,
    /// Their aggregated churn-draw counters.
    pub churn: ChurnStats,
}

/// Runs one scenario at registry size `n` on the chosen backend.
///
/// # Panics
///
/// Panics if the timeline does not compile at this population size.
pub fn run_scenario(
    scenario: &PartitionScenario,
    n: usize,
    backend: BackendKind,
    seed: u64,
) -> PartitionOutcome {
    run_scenario_with_stats(scenario, n, backend, seed, 1).0
}

/// [`run_scenario`] plus the run's [`ForkStats`] and [`ChurnStats`],
/// through [`run_partition`] with its branches advancing on up to
/// `threads` threads. The thread count never changes the outcome.
///
/// # Panics
///
/// Panics if the timeline does not compile at this population size.
pub fn run_scenario_with_stats(
    scenario: &PartitionScenario,
    n: usize,
    backend: BackendKind,
    seed: u64,
    threads: usize,
) -> (PartitionOutcome, ForkStats, ChurnStats) {
    let _span = ethpos_obs::span_with("partition", || format!("scenario {}", scenario.name));
    let byzantine = (scenario.beta0 * n as f64).round() as usize;
    let config = PartitionConfig {
        chain: ChainConfig::paper(),
        n,
        byzantine,
        timeline: scenario.timeline.clone(),
        max_epochs: scenario.epochs,
        seed,
        stop_on_conflict: scenario.stop_on_conflict,
        stop_on_finalization: false,
        record_every: u64::MAX,
    };
    run_partition(backend, config, scenario.strategy.build(), threads)
        .unwrap_or_else(|err| panic!("scenario `{}`: {err}", scenario.name))
}

/// One scenario's report row.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionRow {
    /// Scenario name.
    pub scenario: String,
    /// The timeline in spec syntax.
    pub timeline: String,
    /// Strategy id.
    pub strategy: String,
    /// Initial Byzantine proportion.
    pub beta0: f64,
    /// Epoch horizon.
    pub epochs: u64,
    /// Branches the timeline created over the run.
    pub branches_total: usize,
    /// Epoch of the first conflicting finalization, if reached.
    pub conflict_epoch: Option<u64>,
    /// The conflicting branch pair, if any.
    pub conflict_between: Option<[u64; 2]>,
    /// First finalization epoch per branch (id order; `None` = never).
    pub first_finalization: Vec<Option<u64>>,
    /// Maximum Byzantine proportion observed over all branches.
    pub max_byzantine_proportion: f64,
    /// Epochs with a slashable double vote.
    pub double_vote_epochs: u64,
    /// Epochs actually simulated (early-stop aware).
    pub epochs_run: u64,
}

impl PartitionRow {
    fn new(scenario: &PartitionScenario, outcome: &PartitionOutcome) -> Self {
        PartitionRow {
            scenario: scenario.name.clone(),
            timeline: scenario.timeline.render(),
            strategy: scenario.strategy.id().into(),
            beta0: scenario.beta0,
            epochs: scenario.epochs,
            branches_total: outcome.branches.len(),
            conflict_epoch: outcome.conflicting_finalization_epoch,
            conflict_between: outcome
                .violation
                .map(|v| [v.branch_a.as_u64(), v.branch_b.as_u64()]),
            first_finalization: outcome
                .branches
                .iter()
                .map(|b| b.first_finalization_epoch)
                .collect(),
            max_byzantine_proportion: outcome
                .branches
                .iter()
                .fold(0.0f64, |acc, b| acc.max(b.max_byzantine_proportion)),
            double_vote_epochs: outcome.double_vote_epochs,
            epochs_run: outcome.epochs_run,
        }
    }
}

/// The assembled partition report.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionReport {
    /// Registry size.
    pub n: usize,
    /// State backend.
    pub backend: BackendKind,
    /// RNG seed.
    pub seed: u64,
    /// One row per scenario, in declaration order.
    pub rows: Vec<PartitionRow>,
}

impl PartitionReport {
    /// Renders the report as one table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Partition timelines (n = {}, {} backend)",
                self.n,
                self.backend.id()
            ),
            &[
                "scenario",
                "strategy",
                "β0",
                "branches",
                "conflict epoch",
                "between",
                "max β",
                "double votes",
                "epochs run",
            ],
        );
        for r in &self.rows {
            table.push_row(vec![
                r.scenario.clone(),
                r.strategy.clone(),
                format!("{}", r.beta0),
                r.branches_total.to_string(),
                r.conflict_epoch
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "none".into()),
                r.conflict_between
                    .map(|[a, b]| format!("{a}-{b}"))
                    .unwrap_or_else(|| "—".into()),
                format!("{:.4}", r.max_byzantine_proportion),
                r.double_vote_epochs.to_string(),
                r.epochs_run.to_string(),
            ]);
        }
        table
    }

    /// Renders the report as plain text.
    pub fn render_text(&self) -> String {
        let mut out =
            String::from("# Partition timelines — k-branch scenarios beyond the paper\n\n");
        out.push_str(&self.table().render_text());
        for r in &self.rows {
            out.push_str(&format!("\n{}: {}\n", r.scenario, r.timeline));
        }
        out
    }

    /// Serializes the full report to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_ids_round_trip() {
        for s in StrategyKind::all() {
            assert_eq!(StrategyKind::from_id(s.id()), Some(s));
        }
        assert_eq!(StrategyKind::from_id("mayhem"), None);
    }

    #[test]
    fn presets_resolve_by_name_and_specs_by_syntax() {
        let p = resolve_scenario("three-branch", StrategyKind::DualActive, 0.2, 10).unwrap();
        assert_eq!(p.name, "three-branch");
        assert_eq!(p.strategy, StrategyKind::RotateDwell); // preset wins
        let c = resolve_scenario("split@0:0=0.5,0.5", StrategyKind::DualActive, 0.33, 100).unwrap();
        assert_eq!(c.strategy, StrategyKind::DualActive);
        assert_eq!(c.beta0, 0.33);
        assert!(resolve_scenario("gibberish", StrategyKind::DualActive, 0.2, 10).is_err());
    }

    #[test]
    fn smoke_suite_is_thread_invariant() {
        let mk = |threads| PartitionSpec {
            threads,
            ..PartitionSpec::smoke()
        };
        let one = mk(1).run().to_json();
        let four = mk(4).run().to_json();
        assert_eq!(one, four);
    }

    /// A one-scenario churn batch hands its simulator the whole pool,
    /// which advances the branches concurrently once they fragment: the
    /// report and the counters stay the same at every thread count.
    #[test]
    fn one_churn_scenario_is_thread_invariant() {
        let scenario =
            resolve_scenario("churn@0:0=0.5,0.5", StrategyKind::DualActive, 0.2, 48).unwrap();
        let mk = |threads| PartitionSpec {
            scenarios: vec![scenario.clone()],
            n: 4000,
            threads,
            ..PartitionSpec::smoke()
        };
        let (report, stats) = mk(1).run_with_stats();
        assert!(stats.churn.draws > 0);
        for threads in [2, 0] {
            let (other, other_stats) = mk(threads).run_with_stats();
            assert_eq!(other.to_json(), report.to_json(), "threads {threads}");
            assert_eq!(other_stats, stats, "threads {threads}");
        }
    }

    /// Each simulator gets the threads the scenario fan-out leaves
    /// spare, and at least one.
    #[test]
    fn simulators_get_the_spare_threads() {
        assert_eq!(sim_threads(2, 2), 1);
        assert_eq!(sim_threads(3, 1), 3);
        assert_eq!(sim_threads(8, 3), 2);
        assert_eq!(sim_threads(2, 5), 1);
        assert_eq!(sim_threads(2, 0), 2);
        let empty = PartitionSpec {
            scenarios: Vec::new(),
            threads: 2,
            ..PartitionSpec::smoke()
        };
        let (report, stats) = empty.run_with_stats();
        assert!(report.rows.is_empty());
        assert_eq!(stats.scenarios, 0);
    }

    #[test]
    fn smoke_report_renders_both_presets() {
        let report = PartitionSpec::smoke().run();
        let text = report.render_text();
        assert!(text.contains("three-branch"), "{text}");
        assert!(text.contains("heal-resplit"), "{text}");
        let json: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        let rows = json.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn heal_resplit_reuses_decay_for_a_faster_second_conflict() {
        // The first partition leaks for 300 epochs before healing, so
        // the second conflict beats a fresh β₀ = 0.3 partition's ≈ 1577
        // epochs (Eq. 9) measured from the re-split.
        let spec = PartitionSpec {
            scenarios: vec![heal_resplit()],
            ..PartitionSpec::smoke()
        };
        let row = &spec.run().rows[0];
        let conflict = row.conflict_epoch.expect("must conflict");
        assert!(
            conflict > 400,
            "conflict after the re-split, got {conflict}"
        );
        assert!(
            conflict - 400 < 1577,
            "persisted decay must beat the fresh-partition bound, got {}",
            conflict - 400
        );
        assert_eq!(row.branches_total, 3);
        assert_eq!(row.conflict_between, Some([0, 2]));
    }
}
