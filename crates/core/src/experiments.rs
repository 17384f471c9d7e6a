//! The experiment registry: every table and figure of the paper's
//! evaluation, regenerated from the analytical model.
//!
//! [`run_experiment`] is fast (closed forms / numerical solving only) and
//! deterministic; the simulation-backed cross-checks live in
//! [`simulated`] and are exercised by the benchmark harness and the
//! workspace integration tests.

use serde::Serialize;

use ethpos_state::BackendKind;

use crate::report::{Series, Table};
use crate::scenarios::{bouncing, honest, outcome_table, semi_active, slashing, threshold};
use crate::stake_model::StakeBehavior;

/// Identifier of a paper table/figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Experiment {
    /// Figure 2 — stake trajectories during a leak.
    Fig2StakeTrajectories,
    /// Figure 3 — active-validator ratio for p0 grid (Eq. 5).
    Fig3ActiveRatio,
    /// Table 1 — scenario → outcome summary.
    Table1Outcomes,
    /// Table 2 — conflicting-finalization epoch, slashable strategy.
    Table2Slashable,
    /// Table 3 — conflicting-finalization epoch, non-slashable strategy.
    Table3NonSlashable,
    /// Figure 6 — finalization epoch vs β0, both strategies.
    Fig6FinalizationTime,
    /// Figure 7 — (p0, β0) region where β_max ≥ ⅓.
    Fig7ThresholdRegion,
    /// Figure 8 — the bouncing Markov chain's score-transition law
    /// (Eq. 15).
    Fig8MarkovTransitions,
    /// Figure 9 — censored stake distribution at t = 4024.
    Fig9StakeDistribution,
    /// Figure 10 — `P[β > 1/3]` over time for the β0 grid.
    Fig10ThresholdProbability,
    /// Beyond the paper: a smoke run of the `ethpos_search` attack
    /// frontier (Pareto set of damage vs. adversary cost).
    AttackFrontier,
    /// Beyond the paper: the k-branch partition-timeline scenario suite
    /// (3-branch semi-active, heal-then-resplit).
    PartitionTimelines,
    /// Beyond the paper: a smoke chaos campaign — randomized timelines ×
    /// adversaries checked against the closed-form safety/liveness
    /// oracles.
    ChaosCampaign,
}

impl Experiment {
    /// All experiments in paper order (plus the beyond-the-paper attack
    /// frontier and partition timelines last, so `ethpos-cli all`
    /// exercises the search and partition subsystems).
    pub fn all() -> [Experiment; 13] {
        [
            Experiment::Fig2StakeTrajectories,
            Experiment::Fig3ActiveRatio,
            Experiment::Table1Outcomes,
            Experiment::Table2Slashable,
            Experiment::Table3NonSlashable,
            Experiment::Fig6FinalizationTime,
            Experiment::Fig7ThresholdRegion,
            Experiment::Fig8MarkovTransitions,
            Experiment::Fig9StakeDistribution,
            Experiment::Fig10ThresholdProbability,
            Experiment::AttackFrontier,
            Experiment::PartitionTimelines,
            Experiment::ChaosCampaign,
        ]
    }

    /// Short identifier (e.g. `fig2`).
    pub fn id(&self) -> &'static str {
        match self {
            Experiment::Fig2StakeTrajectories => "fig2",
            Experiment::Fig3ActiveRatio => "fig3",
            Experiment::Table1Outcomes => "table1",
            Experiment::Table2Slashable => "table2",
            Experiment::Table3NonSlashable => "table3",
            Experiment::Fig6FinalizationTime => "fig6",
            Experiment::Fig7ThresholdRegion => "fig7",
            Experiment::Fig8MarkovTransitions => "fig8",
            Experiment::Fig9StakeDistribution => "fig9",
            Experiment::Fig10ThresholdProbability => "fig10",
            Experiment::AttackFrontier => "frontier",
            Experiment::PartitionTimelines => "partition",
            Experiment::ChaosCampaign => "chaos",
        }
    }

    /// Title with the paper reference, as printed atop the rendered
    /// output (static, so listings don't have to run the generators).
    pub fn title(&self) -> &'static str {
        match self {
            Experiment::Fig2StakeTrajectories => {
                "Figure 2 — stake trajectories during an inactivity leak"
            }
            Experiment::Fig3ActiveRatio => {
                "Figure 3 — ratio of active validators during the leak (Eq. 5)"
            }
            Experiment::Table1Outcomes => "Table 1 — scenarios and outcomes",
            Experiment::Table2Slashable => {
                "Table 2 — time to conflicting finalization (with slashing)"
            }
            Experiment::Table3NonSlashable => {
                "Table 3 — time to conflicting finalization (without slashing)"
            }
            Experiment::Fig6FinalizationTime => "Figure 6 — time to conflicting finalization vs β0",
            Experiment::Fig7ThresholdRegion => "Figure 7 — (p0, β0) pairs with β_max ≥ 1/3",
            Experiment::Fig8MarkovTransitions => {
                "Figure 8 — bouncing Markov chain (honest branch membership)"
            }
            Experiment::Fig9StakeDistribution => {
                "Figure 9 — censored stake distribution P̄ at t = 4024"
            }
            Experiment::Fig10ThresholdProbability => {
                "Figure 10 — probability of exceeding the 1/3 threshold (Eq. 24)"
            }
            Experiment::AttackFrontier => {
                "Attack frontier (beyond the paper) — smoke strategy search"
            }
            Experiment::PartitionTimelines => {
                "Partition timelines (beyond the paper) — k-branch scenario suite"
            }
            Experiment::ChaosCampaign => {
                "Chaos campaign (beyond the paper) — smoke adversarial search vs the oracles"
            }
        }
    }

    /// Parses a short identifier (the inverse of [`Experiment::id`]).
    ///
    /// ```
    /// use ethpos_core::experiments::Experiment;
    ///
    /// assert_eq!(Experiment::from_id("table2"), Some(Experiment::Table2Slashable));
    /// assert_eq!(Experiment::from_id("fig42"), None);
    /// ```
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::all().into_iter().find(|e| e.id() == id)
    }
}

/// The output of one experiment: tables and/or series plus context.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentOutput {
    /// Which experiment this is.
    pub experiment: Experiment,
    /// Title (paper reference).
    pub title: String,
    /// Tables produced.
    pub tables: Vec<Table>,
    /// Curves produced.
    pub series: Vec<Series>,
}

impl ExperimentOutput {
    /// Renders everything as plain text.
    pub fn render_text(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        for t in &self.tables {
            out.push_str(&t.render_text());
            out.push('\n');
        }
        for s in &self.series {
            out.push_str(&s.render_summary());
            out.push('\n');
        }
        out
    }

    /// Serializes the full output (including every series point) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable")
    }
}

/// Monte-Carlo and discrete cross-check knobs for
/// [`run_experiment_with`]: sizing, seeding, the worker-thread budget,
/// and the validator population / state backend of the discrete
/// protocol cross-checks.
///
/// The defaults are the paper's §5.3 run — 20 000 walkers to epoch 8000
/// — sharded over one worker per hardware thread, with the discrete
/// cross-checks disabled (`validators: None`). The thread count only
/// changes wall-clock time, never a single output byte (see
/// `ARCHITECTURE.md`, "The determinism model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct McConfig {
    /// Worker threads (`0` = one per hardware thread).
    pub threads: usize,
    /// Monte-Carlo walker count.
    pub walkers: usize,
    /// Epoch horizon.
    pub epochs: u64,
    /// Root seed of the per-chunk seed stream.
    pub seed: u64,
    /// Registry size of the discrete protocol cross-checks (`None`
    /// disables them). With [`BackendKind::Cohort`] the paper's true
    /// million-validator population is interactive.
    pub validators: Option<usize>,
    /// State backend the discrete cross-checks run on.
    pub backend: BackendKind,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            threads: 0,
            walkers: 20_000,
            epochs: 8000,
            seed: 42,
            validators: None,
            backend: BackendKind::Cohort,
        }
    }
}

/// Runs the analytical generator for `experiment`.
pub fn run_experiment(experiment: Experiment) -> ExperimentOutput {
    match experiment {
        Experiment::Fig2StakeTrajectories => fig2(),
        Experiment::Fig3ActiveRatio => fig3(),
        Experiment::Table1Outcomes => table1(),
        Experiment::Table2Slashable => table2(),
        Experiment::Table3NonSlashable => table3(),
        Experiment::Fig6FinalizationTime => fig6(),
        Experiment::Fig7ThresholdRegion => fig7(),
        Experiment::Fig8MarkovTransitions => fig8(),
        Experiment::Fig9StakeDistribution => fig9(),
        Experiment::Fig10ThresholdProbability => fig10(),
        Experiment::AttackFrontier => frontier_smoke(&McConfig::default()),
        Experiment::PartitionTimelines => partition_smoke(&McConfig::default()),
        Experiment::ChaosCampaign => chaos_smoke(&McConfig::default()),
    }
}

/// [`run_experiment`] plus the simulation-backed cross-checks, where
/// defined.
///
/// For [`Experiment::Fig10ThresholdProbability`] this appends the §5.3
/// walker Monte Carlo (Eq. 24 vs empirical breach fraction at
/// `β0 = 0.33`) sized by `mc`. When `mc.validators` is set, the
/// discrete protocol cross-checks also run at that population on
/// `mc.backend`: [`Experiment::Fig2StakeTrajectories`] gains measured
/// stake trajectories/ejection epochs, and
/// [`Experiment::Table2Slashable`] /
/// [`Experiment::Table3NonSlashable`] gain simulated
/// conflicting-finalization rows. Every other experiment is purely
/// analytical and returned unchanged. The output is bit-identical for
/// any `mc.threads`.
///
/// # Example
///
/// ```
/// use ethpos_core::experiments::{run_experiment_with, Experiment, McConfig};
///
/// let mc = McConfig {
///     walkers: 500,
///     epochs: 400,
///     ..McConfig::default()
/// };
/// let out = run_experiment_with(Experiment::Fig10ThresholdProbability, &mc);
/// assert_eq!(out.tables.len(), 2); // analytic table + MC cross-check
/// ```
pub fn run_experiment_with(experiment: Experiment, mc: &McConfig) -> ExperimentOutput {
    if experiment == Experiment::AttackFrontier {
        // The smoke search honours the worker budget and, like the
        // discrete cross-checks, `--validators`/`--backend`; the search
        // budget and horizon stay smoke-sized (the full-size knobs live
        // on `ethpos-cli search`). Bit-identical for any thread count.
        return frontier_smoke(mc);
    }
    if experiment == Experiment::PartitionTimelines {
        // Same contract: `--validators`/`--backend`/`--threads` are
        // honoured, the scenario suite stays the smoke presets (the
        // full-size knobs live on `ethpos-cli partition`).
        return partition_smoke(mc);
    }
    if experiment == Experiment::ChaosCampaign {
        // Same contract again: `--seed`/`--threads`/`--validators`/
        // `--backend` are honoured, the budget stays smoke-sized (the
        // full campaign lives on `ethpos-cli chaos`).
        return chaos_smoke(mc);
    }
    let mut out = run_experiment(experiment);
    match experiment {
        Experiment::Fig10ThresholdProbability => {
            out.tables.push(simulated::fig10_monte_carlo(0.33, mc));
        }
        Experiment::Fig2StakeTrajectories => {
            if let Some(n) = mc.validators {
                let discrete = simulated::fig2_discrete_at(mc.epochs, n, mc.backend);
                out.tables.extend(discrete.tables);
                out.series.extend(discrete.series);
            }
        }
        Experiment::Table2Slashable => {
            if let Some(n) = mc.validators {
                out.tables
                    .push(simulated::table2_cross_check(n, mc.backend, mc.threads));
            }
        }
        Experiment::Table3NonSlashable => {
            if let Some(n) = mc.validators {
                out.tables
                    .push(simulated::table3_cross_check(n, mc.backend, mc.threads));
            }
        }
        _ => {}
    }
    out
}

fn fig2() -> ExperimentOutput {
    let behaviors = [
        StakeBehavior::Active,
        StakeBehavior::SemiActive,
        StakeBehavior::Inactive,
    ];
    let mut series = Vec::new();
    for b in behaviors {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut t = 0.0;
        while t <= 8000.0 {
            x.push(t);
            y.push(b.stake_censored(t));
            t += 10.0;
        }
        series.push(Series::new(format!("{b:?} validator's stake"), x, y));
    }
    let mut table = Table::new(
        "Ejection epochs (paper: inactive 4685, semi-active 7652)",
        &["behavior", "closed-form ejection epoch"],
    );
    for b in behaviors {
        table.push_row(vec![
            format!("{b:?}"),
            b.ejection_epoch()
                .map(|e| format!("{e:.1}"))
                .unwrap_or_else(|| "never".into()),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::Fig2StakeTrajectories,
        title: Experiment::Fig2StakeTrajectories.title().into(),
        tables: vec![table],
        series,
    }
}

fn fig3() -> ExperimentOutput {
    let mut series = Vec::new();
    for p0 in [0.6, 0.5, 0.4, 0.3, 0.2] {
        let s = honest::figure3_series(p0, 8000.0, 10.0);
        series.push(Series::new(format!("p0 = {p0}"), s.epochs, s.ratio));
    }
    let mut table = Table::new(
        "Epoch at which the 2/3 threshold is reached (Eq. 6)",
        &["p0", "t (epochs)"],
    );
    for p0 in [0.6, 0.5, 0.4, 0.3, 0.2] {
        table.push_row(vec![
            format!("{p0}"),
            format!("{:.0}", honest::two_thirds_epoch(p0)),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::Fig3ActiveRatio,
        title: Experiment::Fig3ActiveRatio.title().into(),
        tables: vec![table],
        series,
    }
}

fn table1() -> ExperimentOutput {
    let mut table = Table::new(
        "Analysed scenarios and their outcomes",
        &["Scenario", "Outcome"],
    );
    for (scenario, outcome) in outcome_table() {
        table.push_row(vec![scenario, outcome]);
    }
    ExperimentOutput {
        experiment: Experiment::Table1Outcomes,
        title: Experiment::Table1Outcomes.title().into(),
        tables: vec![table],
        series: vec![],
    }
}

fn table2() -> ExperimentOutput {
    let mut table = Table::new(
        "Conflicting finalization epoch, slashable strategy, p0 = 0.5 (Eq. 9)",
        &["β0", "t (epochs)"],
    );
    for row in slashing::table2() {
        table.push_row(vec![format!("{}", row.beta0), format!("{}", row.t)]);
    }
    ExperimentOutput {
        experiment: Experiment::Table2Slashable,
        title: Experiment::Table2Slashable.title().into(),
        tables: vec![table],
        series: vec![],
    }
}

fn table3() -> ExperimentOutput {
    let mut table = Table::new(
        "Conflicting finalization epoch, non-slashable strategy, p0 = 0.5 (Eq. 10)",
        &["β0", "t (epochs)", "paper"],
    );
    for row in semi_active::table3() {
        table.push_row(vec![
            format!("{}", row.beta0),
            format!("{}", row.t),
            format!("{}", row.paper_t),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::Table3NonSlashable,
        title: Experiment::Table3NonSlashable.title().into(),
        tables: vec![table],
        series: vec![],
    }
}

fn fig6() -> ExperimentOutput {
    let betas: Vec<f64> = (0..=66).map(|i| i as f64 * 0.005).collect();
    let slash: Vec<f64> = betas
        .iter()
        .map(|&b| slashing::conflicting_finalization_epoch(0.5, b))
        .collect();
    let semi: Vec<f64> = betas
        .iter()
        .map(|&b| semi_active::conflicting_finalization_epoch(0.5, b))
        .collect();
    let series = vec![
        Series::new("Byzantine with slashing behavior", betas.clone(), slash),
        Series::new("Byzantine without slashing behavior", betas, semi),
    ];
    ExperimentOutput {
        experiment: Experiment::Fig6FinalizationTime,
        title: Experiment::Fig6FinalizationTime.title().into(),
        tables: vec![],
        series,
    }
}

fn fig7() -> ExperimentOutput {
    // Boundary curves: minimal β0 per p0 for each branch.
    let p0s: Vec<f64> = (1..100).map(|i| i as f64 / 100.0).collect();
    let branch1: Vec<f64> = p0s
        .iter()
        .map(|&p| threshold::min_beta0_for_third(p))
        .collect();
    let branch2: Vec<f64> = p0s
        .iter()
        .map(|&p| threshold::min_beta0_for_third(1.0 - p))
        .collect();
    let both: Vec<f64> = p0s
        .iter()
        .map(|&p| threshold::min_beta0_for_third_both_branches(p))
        .collect();
    let mut table = Table::new(
        "Threshold-breach bound (Eq. 13)",
        &["p0", "min β0 (both branches)"],
    );
    for p0 in [0.3, 0.4, 0.5, 0.6, 0.7] {
        table.push_row(vec![
            format!("{p0}"),
            format!("{:.4}", threshold::min_beta0_for_third_both_branches(p0)),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::Fig7ThresholdRegion,
        title: Experiment::Fig7ThresholdRegion.title().into(),
        tables: vec![table],
        series: vec![
            Series::new(
                "β_max(p0, β0) ≥ 1/3 boundary (branch 1)",
                p0s.clone(),
                branch1,
            ),
            Series::new(
                "β_max(1−p0, β0) ≥ 1/3 boundary (branch 2)",
                p0s.clone(),
                branch2,
            ),
            Series::new("both branches", p0s, both),
        ],
    }
}

fn fig8() -> ExperimentOutput {
    let mut table = Table::new(
        "Two-epoch inactivity-score transitions under the bounce (Eq. 15)",
        &["p0", "P(+8)", "P(+3)", "P(−2)", "mean/2 epochs"],
    );
    for p0 in [0.5, 0.55, 0.6, 0.65] {
        let d = bouncing::score_transition_two_epochs(p0);
        let mean: f64 = d.iter().map(|(dx, p)| *dx as f64 * p).sum();
        table.push_row(vec![
            format!("{p0}"),
            format!("{:.4}", d[0].1),
            format!("{:.4}", d[1].1),
            format!("{:.4}", d[2].1),
            format!("{mean:.4}"),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::Fig8MarkovTransitions,
        title: Experiment::Fig8MarkovTransitions.title().into(),
        tables: vec![table],
        series: vec![],
    }
}

fn fig9() -> ExperimentOutput {
    let law = bouncing::BouncingLaw::new(0.5);
    let d = law.censored_distribution(4024.0, 512);
    let mut table = Table::new(
        "Censored stake distribution at t = 4024 (Eq. 20-21)",
        &["component", "mass"],
    );
    table.push_row(vec![
        "δ at 0 (ejected)".into(),
        format!("{:.4}", d.mass_at_zero),
    ]);
    table.push_row(vec![
        "δ at 32 (cap)".into(),
        format!("{:.4}", d.mass_at_cap),
    ]);
    table.push_row(vec![
        "continuous (16.75, 32)".into(),
        format!("{:.4}", 1.0 - d.mass_at_zero - d.mass_at_cap),
    ]);
    ExperimentOutput {
        experiment: Experiment::Fig9StakeDistribution,
        title: Experiment::Fig9StakeDistribution.title().into(),
        tables: vec![table],
        series: vec![Series::new("density on (16.75, 32)", d.stake, d.density)],
    }
}

fn fig10() -> ExperimentOutput {
    let curves = bouncing::figure10_curves(&bouncing::paper_fig10_betas(), 8000.0, 20.0);
    let series = curves
        .into_iter()
        .map(|c| Series::new(format!("β0 = {:.4}", c.beta0), c.epochs, c.prob))
        .collect();
    let mut table = Table::new(
        "P[β > 1/3] at selected epochs (Eq. 24, p0 = 0.5)",
        &["β0", "t = 2000", "t = 4000", "t = 6000"],
    );
    let law = bouncing::BouncingLaw::new(0.5);
    for beta0 in bouncing::paper_fig10_betas() {
        table.push_row(vec![
            format!("{beta0:.4}"),
            format!("{:.4}", law.prob_exceed_third(beta0, 2000.0)),
            format!("{:.4}", law.prob_exceed_third(beta0, 4000.0)),
            format!("{:.4}", law.prob_exceed_third(beta0, 6000.0)),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::Fig10ThresholdProbability,
        title: Experiment::Fig10ThresholdProbability.title().into(),
        tables: vec![table],
        series,
    }
}

/// The `frontier` experiment: [`ethpos_search::SearchSpec::smoke`] —
/// a budgeted grid-plus-refine search over the attack-strategy space at
/// β₀ just above ⅓, rendered as one damage-vs-cost table. Honours
/// `mc.threads`, `mc.validators` and `mc.backend` (on the cohort
/// backend the registry size is essentially free); the budget and
/// horizon stay smoke-sized. Deterministic and thread-count invariant
/// like every other experiment.
fn frontier_smoke(mc: &McConfig) -> ExperimentOutput {
    let mut spec = ethpos_search::SearchSpec::smoke();
    spec.threads = mc.threads;
    if let Some(n) = mc.validators {
        spec.n = n;
        spec.backend = mc.backend;
    }
    let frontier = spec.run();
    let mut table = Table::new(
        format!(
            "Pareto frontier: {} (β0 = {}, p0 = {}, n = {}, {} backend, \
             {} candidates evaluated)",
            frontier.objective.title(),
            frontier.beta0,
            frontier.p0,
            frontier.validators,
            frontier.backend,
            frontier.evaluated,
        ),
        &[
            "genome",
            "≡ paper",
            "damage",
            "cost (ETH)",
            "slashable",
            "conflict epoch",
        ],
    );
    for r in &frontier.rows {
        table.push_row(vec![
            r.label.clone(),
            r.paper_strategy.clone().unwrap_or_else(|| "—".into()),
            format!("{:.0}", r.damage),
            format!("{:.1}", r.cost_eth),
            if r.slashable { "yes" } else { "no" }.into(),
            r.conflict_epoch
                .map(|t| t.to_string())
                .unwrap_or_else(|| "none".into()),
        ]);
    }
    ExperimentOutput {
        experiment: Experiment::AttackFrontier,
        title: Experiment::AttackFrontier.title().into(),
        tables: vec![table],
        series: vec![],
    }
}

/// The `partition` experiment: the preset k-branch timeline suite at
/// smoke size ([`crate::partition::PartitionSpec::smoke`]), honouring
/// `mc.threads` and, when set, `mc.validators`/`mc.backend`.
/// Deterministic and thread-count invariant like every other experiment.
fn partition_smoke(mc: &McConfig) -> ExperimentOutput {
    let mut spec = crate::partition::PartitionSpec::smoke();
    spec.threads = mc.threads;
    if let Some(n) = mc.validators {
        spec.n = n;
        spec.backend = mc.backend;
    }
    let report = spec.run();
    ExperimentOutput {
        experiment: Experiment::PartitionTimelines,
        title: Experiment::PartitionTimelines.title().into(),
        tables: vec![report.table()],
        series: vec![],
    }
}

/// The `chaos` experiment: a smoke-budget chaos campaign
/// ([`crate::chaos::ChaosSpec::smoke`]) honouring `mc.seed`,
/// `mc.threads` and, when set, `mc.validators`/`mc.backend`.
/// Deterministic and thread-count invariant like every other experiment.
fn chaos_smoke(mc: &McConfig) -> ExperimentOutput {
    let mut spec = crate::chaos::ChaosSpec::smoke();
    spec.seed = mc.seed;
    spec.threads = mc.threads;
    if let Some(n) = mc.validators {
        spec.n = n;
        spec.backend = mc.backend;
    }
    let report = spec.run();
    let mut tables = vec![report.table()];
    for v in &report.violations {
        let mut table = Table::new(
            format!("UNEXPECTED {} — minimized reproducer", v.verdict),
            &["field", "original", "shrunk"],
        );
        table.push_row(vec![
            "timeline".into(),
            v.original.timeline.clone(),
            v.shrunk.timeline.clone(),
        ]);
        table.push_row(vec![
            "adversary".into(),
            v.original.adversary.clone(),
            v.shrunk.adversary.clone(),
        ]);
        table.push_row(vec![
            "size".into(),
            v.original_size.to_string(),
            v.shrunk_size.to_string(),
        ]);
        tables.push(table);
    }
    ExperimentOutput {
        experiment: Experiment::ChaosCampaign,
        title: Experiment::ChaosCampaign.title().into(),
        tables,
        series: vec![],
    }
}

/// Simulation-backed regenerations (slower; exercised by the experiment
/// registry, the examples and the integration tests).
pub mod simulated {
    use super::*;
    use ethpos_sim::{
        run_partition, run_single_branch_on, Behavior, ChunkPool, PartitionConfig,
        PartitionTimeline,
    };
    use ethpos_sim::{ByzantineSchedule, DualActive, SemiActive};
    use ethpos_state::{CohortState, DenseState};

    /// The Figure 2 population mix at registry size `n`: one tenth
    /// always-active, one tenth semi-active, the rest inactive (the same
    /// 1/1/8 proportions as the original 10-validator reproduction).
    pub fn fig2_classes(n: usize) -> [(Behavior, u64); 3] {
        let tenth = (n as u64 / 10).max(1);
        [
            (Behavior::Active, tenth),
            (Behavior::SemiActive, tenth),
            (
                Behavior::Inactive,
                (n as u64).saturating_sub(2 * tenth).max(1),
            ),
        ]
    }

    /// Figure 2 via the discrete simulator at registry size `n` on the
    /// chosen backend. On [`BackendKind::Cohort`] the million-validator
    /// population is interactive; the dense path is the O(n·epochs)
    /// reference.
    pub fn fig2_discrete_at(epochs: u64, n: usize, backend: BackendKind) -> ExperimentOutput {
        let classes = fig2_classes(n);
        let config = ethpos_types::ChainConfig::paper();
        let trajectories = match backend {
            BackendKind::Dense => run_single_branch_on::<DenseState>(config, &classes, epochs),
            BackendKind::Cohort => run_single_branch_on::<CohortState>(config, &classes, epochs),
        };
        let mut series = Vec::new();
        let mut table = Table::new(
            format!(
                "Measured ejection epochs (discrete protocol, n = {n}, {} backend)",
                backend.id()
            ),
            &["behavior", "members", "ejection epoch", "paper"],
        );
        for (t, paper) in trajectories.iter().zip(["never", "7652", "4685"]) {
            let x: Vec<f64> = (0..t.balance_gwei.len()).map(|i| i as f64).collect();
            let y: Vec<f64> = t.balance_gwei.iter().map(|&b| b as f64 / 1e9).collect();
            series.push(Series::new(format!("{:?} (discrete)", t.behavior), x, y));
            table.push_row(vec![
                format!("{:?}", t.behavior),
                t.count.to_string(),
                t.ejected_at
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "never".into()),
                paper.into(),
            ]);
        }
        ExperimentOutput {
            experiment: Experiment::Fig2StakeTrajectories,
            title: "Figure 2 (simulated) — discrete stake trajectories".into(),
            tables: vec![table],
            series,
        }
    }

    /// One Table 2/3 row measured on the two-branch simulator, on the
    /// chosen backend.
    ///
    /// `n` controls granularity (β0 is realized as `round(β0·n)`
    /// validators). Returns the epoch of conflicting finalization.
    pub fn conflicting_finalization_on(
        beta0: f64,
        p0: f64,
        n: usize,
        slashable: bool,
        max_epochs: u64,
        backend: BackendKind,
    ) -> Option<u64> {
        let _span = ethpos_obs::span("sim", "partition run");
        let byz = (beta0 * n as f64).round() as usize;
        let cfg = PartitionConfig {
            record_every: u64::MAX,
            ..PartitionConfig::paper(n, byz, PartitionTimeline::two_branch(p0), max_epochs)
        };
        let schedule: Box<dyn ByzantineSchedule> = if slashable {
            Box::new(DualActive)
        } else {
            Box::new(SemiActive::new())
        };
        let (outcome, ..) =
            run_partition(backend, cfg, schedule, 1).expect("the two-branch timeline compiles");
        outcome.conflicting_finalization_epoch
    }

    /// Table 2 cross-check (Eq. 9 vs the discrete protocol) at registry
    /// size `n` on the chosen backend, over the paper's β₀ rows that
    /// finalize within the 5200-epoch horizon. The rows run on a
    /// [`ChunkPool`] of `threads` workers (`0` = one per hardware
    /// thread); the table is the same at any count.
    pub fn table2_cross_check(n: usize, backend: BackendKind, threads: usize) -> Table {
        cross_check_table(n, &[0.33, 0.3, 0.25], true, backend, threads)
    }

    /// Table 3 cross-check (Eq. 10 vs the discrete protocol) at registry
    /// size `n` on the chosen backend, its rows on `threads` workers
    /// like [`table2_cross_check`]'s.
    pub fn table3_cross_check(n: usize, backend: BackendKind, threads: usize) -> Table {
        cross_check_table(n, &[0.33, 0.3, 0.25], false, backend, threads)
    }

    /// One independent two-branch run per β₀ row, mapped over the pool
    /// and assembled in row order.
    fn cross_check_table(
        n: usize,
        betas: &[f64],
        slashable: bool,
        backend: BackendKind,
        threads: usize,
    ) -> Table {
        let (eq, strategy) = if slashable {
            ("Eq. 9", "slashable")
        } else {
            ("Eq. 10", "non-slashable")
        };
        let mut table = Table::new(
            format!(
                "Table {} cross-check: {eq} vs discrete simulation \
                 (n = {n}, {} backend, {strategy})",
                if slashable { 2 } else { 3 },
                backend.id()
            ),
            &["β0", "analytic t", "simulated t"],
        );
        let simulated = ChunkPool::new(threads).map(betas.len(), |row| {
            conflicting_finalization_on(betas[row], 0.5, n, slashable, 5200, backend)
        });
        for (&beta0, sim) in betas.iter().zip(simulated) {
            let analytic = if slashable {
                slashing::conflicting_finalization_epoch(0.5, beta0)
            } else {
                semi_active::conflicting_finalization_epoch(0.5, beta0)
            };
            table.push_row(vec![
                format!("{beta0}"),
                format!("{analytic:.0}"),
                sim.map(|t| t.to_string()).unwrap_or_else(|| "none".into()),
            ]);
        }
        table
    }

    /// The §5.3 Monte Carlo (Fig. 10) at one β0, compared to Eq. 24.
    /// Sized, seeded and threaded by `mc`; thread-count invariant.
    pub fn fig10_monte_carlo(beta0: f64, mc: &McConfig) -> Table {
        use ethpos_sim::{run_bouncing_walks, BouncingWalkConfig};
        let law = bouncing::BouncingLaw::new(0.5);
        let mc = run_bouncing_walks(&BouncingWalkConfig {
            beta0,
            walkers: mc.walkers,
            epochs: mc.epochs,
            seed: mc.seed,
            threads: mc.threads,
            record_every: (mc.epochs / 8).max(1),
            ..BouncingWalkConfig::default()
        });
        let mut table = Table::new(
            format!("Fig. 10 cross-check at β0 = {beta0}: Eq. 24 vs Monte Carlo"),
            &["epoch", "analytic", "monte carlo"],
        );
        for s in &mc.series {
            if s.epoch == 0 {
                continue;
            }
            table.push_row(vec![
                s.epoch.to_string(),
                format!("{:.4}", law.prob_exceed_third(beta0, s.epoch as f64)),
                format!("{:.4}", s.prob_exceed_third),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run_and_render() {
        for e in Experiment::all() {
            let out = run_experiment(e);
            let text = out.render_text();
            assert!(text.len() > 40, "{}: too short", e.id());
            let json = out.to_json();
            assert!(json.contains("experiment"));
        }
    }

    #[test]
    fn table2_output_contains_paper_values() {
        let out = run_experiment(Experiment::Table2Slashable);
        let text = out.render_text();
        for v in ["4685", "4066", "3622", "3107", "502"] {
            assert!(text.contains(v), "missing {v} in:\n{text}");
        }
    }

    #[test]
    fn table2_and_table3_rows_are_byte_equal_at_any_thread_count() {
        for e in [Experiment::Table2Slashable, Experiment::Table3NonSlashable] {
            let at = |threads| {
                let mc = McConfig {
                    threads,
                    validators: Some(1000),
                    ..McConfig::default()
                };
                run_experiment_with(e, &mc).to_json()
            };
            let serial = at(1);
            for threads in [2, 3] {
                assert_eq!(at(threads), serial, "{} at {threads} threads", e.id());
            }
        }
        // Row order: each row holds its own β₀'s run, and every run
        // finalizes conflicting checkpoints within the horizon.
        for slashable in [true, false] {
            let table = if slashable {
                simulated::table2_cross_check(1000, BackendKind::Cohort, 3)
            } else {
                simulated::table3_cross_check(1000, BackendKind::Cohort, 3)
            };
            for (row, beta0) in table.rows.iter().zip([0.33, 0.3, 0.25]) {
                let sim = simulated::conflicting_finalization_on(
                    beta0,
                    0.5,
                    1000,
                    slashable,
                    5200,
                    BackendKind::Cohort,
                );
                let sim = sim.expect("conflicts within the horizon").to_string();
                assert_eq!((&row[0], &row[2]), (&beta0.to_string(), &sim));
            }
        }
    }

    #[test]
    fn fig10_table_top_curve_is_half() {
        let out = run_experiment(Experiment::Fig10ThresholdProbability);
        let text = out.render_text();
        assert!(text.contains("0.5000"), "{text}");
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = Experiment::all().iter().map(|e| e.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13);
    }

    #[test]
    fn chaos_experiment_is_registered() {
        assert_eq!(
            Experiment::from_id("chaos"),
            Some(Experiment::ChaosCampaign)
        );
        assert!(Experiment::ChaosCampaign.title().contains("Chaos campaign"));
        // The campaign itself is exercised by the `chaos` module's own
        // tests and the CLI; here only the registry wiring matters.
    }

    #[test]
    fn partition_smoke_reports_both_presets() {
        let out = run_experiment(Experiment::PartitionTimelines);
        let text = out.render_text();
        assert!(text.contains("three-branch"), "{text}");
        assert!(text.contains("heal-resplit"), "{text}");
    }

    #[test]
    fn frontier_smoke_renders_the_pareto_set() {
        let out = run_experiment(Experiment::AttackFrontier);
        let text = out.render_text();
        // the slashable optimum and at least one cheaper non-slashable
        // row survive the Pareto filter
        assert!(text.contains("dual-active"), "{text}");
        assert!(text.contains("Pareto frontier"), "{text}");
    }
}
