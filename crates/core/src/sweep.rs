//! Parameter sweeps: run the paper's scenarios over grids instead of the
//! publication's hard-coded parameters.
//!
//! A [`SweepSpec`] is a cartesian grid over the attack parameters the
//! paper tabulates one point at a time — Byzantine proportion `β₀`,
//! partition split `p0` (the probability of an honest validator sitting
//! on branch A), walker count, and penalty semantics (paper Eq. 2 vs
//! Bellatrix). [`SweepSpec::run`] evaluates every grid point:
//!
//! * the §5.3 two-branch Monte Carlo ([`ethpos_sim::run_two_branch_walks`]),
//!   giving the empirical single-branch and either-branch breach
//!   fractions at the horizon;
//! * the analytical Eq. 24 probability (paper semantics only — the
//!   closed forms assume the Eq. 2 penalty);
//! * the closed-form conflicting-finalization epochs of §5.2.1 (Eq. 9)
//!   and §5.2.2 (Eq. 10) for the same `(p0, β₀)`;
//! * the Eq. 14 bouncing-viability check.
//!
//! Every point draws its Monte-Carlo seed from an order-insensitive
//! [`SeedSequence`] child, and the walker chunks of *all* points form one
//! flat `(grid point, chunk)` task list on the deterministic chunked
//! thread pool ([`ethpos_sim::ChunkPool`]) — a grid narrower than the
//! pool still keeps every worker busy — so the whole sweep is
//! **bit-identical for any `threads` value** (see `ARCHITECTURE.md`,
//! "The determinism model").

use serde::Serialize;

use ethpos_sim::{ChunkPool, TwoBranchWalkConfig, TwoBranchWalkPlan, TwoBranchWalkResult};
use ethpos_state::BackendKind;
use ethpos_stats::SeedSequence;

use crate::experiments::simulated::conflicting_finalization_on;
use crate::report::Table;
use crate::scenarios::{bouncing, semi_active, slashing};
use crate::stake_model::PenaltySemantics;

/// A cartesian parameter grid over the bouncing-attack Monte Carlo and
/// the §5.2 closed forms.
///
/// Axis vectors multiply out: the grid has
/// `beta0.len() × p0.len() × walkers.len() × semantics.len()` points,
/// enumerated semantics-major, then `p0`, then `beta0`, then `walkers`
/// (the row order of the rendered table).
///
/// # Example
///
/// ```
/// use ethpos_core::SweepSpec;
///
/// let spec = SweepSpec {
///     beta0: vec![0.3, 0.333],
///     ..SweepSpec::smoke()
/// };
/// let result = spec.run();
/// assert_eq!(result.rows.len(), 2);
/// // The union breach rate dominates the single-branch rate everywhere.
/// assert!(result
///     .rows
///     .iter()
///     .all(|r| r.mc_either_branch >= r.mc_single_branch));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Initial Byzantine proportions to sweep.
    pub beta0: Vec<f64>,
    /// Partition splits (probability of an honest validator being on
    /// branch A at even epochs).
    pub p0: Vec<f64>,
    /// Monte-Carlo walker counts.
    pub walkers: Vec<usize>,
    /// Penalty semantics to sweep (paper Eq. 2 and/or Bellatrix spec).
    pub semantics: Vec<PenaltySemantics>,
    /// Registry sizes for the discrete §5.2.1 protocol cross-check; an
    /// empty axis (the default) skips the discrete run. At spec scale
    /// (10⁵–10⁶ validators) combine with [`BackendKind::Cohort`].
    pub validators: Vec<usize>,
    /// State backend of the discrete cross-check runs.
    pub backend: BackendKind,
    /// Epoch horizon at which breach fractions are evaluated.
    pub epochs: u64,
    /// Root seed of the per-grid-point seed stream.
    pub seed: u64,
    /// Worker threads (`0` = one per hardware thread). Never changes the
    /// numbers, only the wall-clock time.
    pub threads: usize,
}

impl Default for SweepSpec {
    /// The paper-flavoured default grid: the Fig. 10 β₀ values of
    /// interest at `p0 = 0.5`, paper semantics, 20 000 walkers to epoch
    /// 3000.
    fn default() -> Self {
        SweepSpec {
            beta0: vec![0.3, 0.33, 0.333],
            p0: vec![0.5],
            walkers: vec![20_000],
            semantics: vec![PenaltySemantics::Paper],
            validators: vec![],
            backend: BackendKind::Cohort,
            epochs: 3000,
            seed: 11,
            threads: 0,
        }
    }
}

impl SweepSpec {
    /// A small grid that runs in well under a second even unoptimized —
    /// used by doctests, the CLI smoke tests and the CI sweep artifact.
    pub fn smoke() -> Self {
        SweepSpec {
            beta0: vec![0.3, 0.333],
            p0: vec![0.5],
            walkers: vec![2000],
            semantics: vec![PenaltySemantics::Paper],
            validators: vec![],
            backend: BackendKind::Cohort,
            epochs: 400,
            seed: 11,
            threads: 0,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.beta0.len()
            * self.p0.len()
            * self.walkers.len()
            * self.semantics.len()
            * self.validators.len().max(1)
    }

    /// True if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grid points in row order (semantics-major, then `p0`, `beta0`,
    /// `walkers`, `validators`). An empty `validators` axis enumerates a
    /// single `None` pseudo-value.
    fn points(&self) -> Vec<SweepPoint> {
        let validators: Vec<Option<usize>> = if self.validators.is_empty() {
            vec![None]
        } else {
            self.validators.iter().copied().map(Some).collect()
        };
        let mut points = Vec::with_capacity(self.len());
        for &semantics in &self.semantics {
            for &p0 in &self.p0 {
                for &beta0 in &self.beta0 {
                    for &walkers in &self.walkers {
                        for &validators in &validators {
                            points.push(SweepPoint {
                                beta0,
                                p0,
                                walkers,
                                semantics,
                                validators,
                            });
                        }
                    }
                }
            }
        }
        points
    }

    /// Runs the full grid and aggregates the rows.
    ///
    /// Point `g`'s Monte Carlo is seeded with child `g` of the root
    /// [`SeedSequence`] and contributes its walker chunks to one flat
    /// task list shared by all points, so results depend only on
    /// `(seed, grid)` — never on the thread count — and the pool stays
    /// packed whatever the grid's shape.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or a value is outside its domain
    /// (a `sweep` request rejects both when it is parsed).
    pub fn run(&self) -> SweepResult {
        assert!(!self.is_empty(), "empty sweep grid");
        let points = self.points();
        let seq = SeedSequence::new(self.seed);
        let pool = ChunkPool::new(self.threads);
        // The discrete §5.2.1 run depends only on (β0, p0, n) — evaluate
        // each unique combination once (fanned onto the pool, no RNG, so
        // thread-invariant) instead of once per walkers/semantics point.
        let combos: Vec<(f64, f64, usize)> = self
            .p0
            .iter()
            .flat_map(|&p0| {
                self.beta0
                    .iter()
                    .flat_map(move |&beta0| self.validators.iter().map(move |&n| (beta0, p0, n)))
            })
            .collect();
        let discrete_epochs = pool.map(combos.len(), |i| {
            let (beta0, p0, n) = combos[i];
            conflicting_finalization_on(beta0, p0, n, true, self.epochs, self.backend)
        });
        let discrete: std::collections::HashMap<(u64, u64, usize), Option<u64>> = combos
            .iter()
            .zip(&discrete_epochs)
            .map(|(&(beta0, p0, n), &t)| ((beta0.to_bits(), p0.to_bits(), n), t))
            .collect();
        // One flat (grid point, walker chunk) task list, point-major, so
        // each point's chunk counts come back as one contiguous run.
        let plans: Vec<TwoBranchWalkPlan> = points
            .iter()
            .zip(0u64..)
            .map(|(point, g)| {
                TwoBranchWalkPlan::new(&TwoBranchWalkConfig {
                    p0: point.p0,
                    beta0: point.beta0,
                    walkers: point.walkers,
                    epochs: self.epochs,
                    seed: seq.child_seed(g),
                    paper_semantics: point.semantics == PenaltySemantics::Paper,
                    threads: self.threads,
                })
            })
            .collect();
        let tasks: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(g, plan)| (0..plan.chunks()).map(move |c| (g, c)))
            .collect();
        let counts = pool.map(tasks.len(), |t| {
            let (g, c) = tasks[t];
            plans[g].run_chunk(c)
        });
        let mut rest = counts.as_slice();
        let rows = points
            .iter()
            .zip(&plans)
            .map(|(point, plan)| {
                let (mine, others) = rest.split_at(plan.chunks());
                rest = others;
                run_point(point, self.epochs, plan.finish(mine), &discrete)
            })
            .collect();
        SweepResult {
            epochs: self.epochs,
            seed: self.seed,
            rows,
        }
    }
}

/// One grid point (the sweep-axis coordinates of a [`SweepRow`]).
#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    beta0: f64,
    p0: f64,
    walkers: usize,
    semantics: PenaltySemantics,
    validators: Option<usize>,
}

/// Assembles the row of `point` from its finished Monte Carlo `mc`.
fn run_point(
    point: &SweepPoint,
    epochs: u64,
    mc: TwoBranchWalkResult,
    discrete: &std::collections::HashMap<(u64, u64, usize), Option<u64>>,
) -> SweepRow {
    // The closed forms all assume the paper's Eq. 2 penalty; under spec
    // semantics only the Monte Carlo is meaningful.
    let analytic_prob = (point.semantics == PenaltySemantics::Paper).then(|| {
        bouncing::BouncingLaw::new(point.p0).prob_exceed_third(point.beta0, epochs as f64)
    });
    // Discrete §5.2.1 protocol result, precomputed once per unique
    // (β0, p0, n) by `SweepSpec::run`.
    let discrete_finalization_epoch = point
        .validators
        .and_then(|n| discrete[&(point.beta0.to_bits(), point.p0.to_bits(), n)]);
    SweepRow {
        beta0: point.beta0,
        p0: point.p0,
        walkers: point.walkers,
        semantics: point.semantics,
        validators: point.validators,
        discrete_finalization_epoch,
        bouncing_viable: bouncing::is_viable(point.p0, point.beta0),
        analytic_prob,
        mc_single_branch: mc.single_branch_breach,
        mc_either_branch: mc.either_branch_breach,
        byzantine_stake: mc.byzantine_stake[0],
        slashable_finalization_epoch: slashing::conflicting_finalization_epoch(
            point.p0,
            point.beta0,
        ),
        non_slashable_finalization_epoch: semi_active::conflicting_finalization_epoch(
            point.p0,
            point.beta0,
        ),
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Initial Byzantine proportion.
    pub beta0: f64,
    /// Partition split.
    pub p0: f64,
    /// Monte-Carlo walker count.
    pub walkers: usize,
    /// Penalty semantics this row was evaluated under.
    pub semantics: PenaltySemantics,
    /// Registry size of the discrete protocol cross-check (`None` when
    /// the `validators` axis is empty).
    pub validators: Option<usize>,
    /// Conflicting-finalization epoch measured by the discrete §5.2.1
    /// run at `validators` (`None` if disabled or not reached within the
    /// horizon).
    pub discrete_finalization_epoch: Option<u64>,
    /// Eq. 14: can the bouncing attack keep going at `(p0, β0)`?
    pub bouncing_viable: bool,
    /// Eq. 24 at the horizon (`None` under spec semantics, where the
    /// closed form does not apply).
    pub analytic_prob: Option<f64>,
    /// Monte-Carlo fraction of walkers breaching the ⅓ threshold on
    /// branch A.
    pub mc_single_branch: f64,
    /// Monte-Carlo fraction breaching on either branch (the union the
    /// paper bounds by `2·P`).
    pub mc_either_branch: f64,
    /// Byzantine semi-active stake (ETH) at the horizon, branch A's view.
    pub byzantine_stake: f64,
    /// Eq. 9: conflicting-finalization epoch, slashable strategy.
    pub slashable_finalization_epoch: f64,
    /// Eq. 10: conflicting-finalization epoch, non-slashable strategy.
    pub non_slashable_finalization_epoch: f64,
}

/// The aggregated output of [`SweepSpec::run`].
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    /// Horizon the breach fractions were evaluated at.
    pub epochs: u64,
    /// Root seed the per-point seeds were derived from.
    pub seed: u64,
    /// One row per grid point, in grid order.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Renders the sweep as one rectangular table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Parameter sweep at horizon t = {} (seed {})",
                self.epochs, self.seed
            ),
            &[
                "β0",
                "p0",
                "walkers",
                "semantics",
                "validators",
                "viable",
                "Eq.24 P",
                "MC P (A)",
                "MC P (A∪B)",
                "s_B (ETH)",
                "t_slash (Eq.9)",
                "t_semi (Eq.10)",
                "t_disc (sim)",
            ],
        );
        for r in &self.rows {
            table.push_row(vec![
                format!("{}", r.beta0),
                format!("{}", r.p0),
                r.walkers.to_string(),
                r.semantics.id().to_string(),
                r.validators
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "—".into()),
                if r.bouncing_viable { "yes" } else { "no" }.into(),
                r.analytic_prob
                    .map(|p| format!("{p:.4}"))
                    .unwrap_or_else(|| "—".into()),
                format!("{:.4}", r.mc_single_branch),
                format!("{:.4}", r.mc_either_branch),
                format!("{:.3}", r.byzantine_stake),
                format!("{:.0}", r.slashable_finalization_epoch),
                format!("{:.0}", r.non_slashable_finalization_epoch),
                r.discrete_finalization_epoch
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "—".into()),
            ]);
        }
        table
    }

    /// Renders the table as text (the CLI's `--format text`).
    pub fn render_text(&self) -> String {
        format!("# Parameter sweep\n\n{}", self.table().render_text())
    }

    /// Serializes every row to pretty JSON (the CLI's `--format json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepSpec {
        SweepSpec {
            beta0: vec![0.3, 0.333],
            p0: vec![0.5],
            walkers: vec![512],
            semantics: vec![PenaltySemantics::Paper],
            validators: vec![],
            backend: BackendKind::Cohort,
            epochs: 200,
            seed: 7,
            threads: 1,
        }
    }

    #[test]
    fn grid_enumeration_is_the_full_product() {
        let mut spec = tiny();
        spec.p0 = vec![0.5, 0.55];
        spec.semantics = vec![PenaltySemantics::Paper, PenaltySemantics::Spec];
        assert_eq!(spec.len(), 8); // 2 β0 × 2 p0 × 1 walkers × 2 semantics
        let result = spec.run();
        assert_eq!(result.rows.len(), 8);
        // semantics-major ordering
        assert_eq!(result.rows[0].semantics, PenaltySemantics::Paper);
        assert_eq!(result.rows[7].semantics, PenaltySemantics::Spec);
        // spec rows carry no analytic column
        assert!(result.rows[0].analytic_prob.is_some());
        assert!(result.rows[7].analytic_prob.is_none());
    }

    #[test]
    fn sweep_is_thread_invariant() {
        let run = |threads: usize| {
            let mut spec = tiny();
            spec.threads = threads;
            spec.run().to_json()
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), one, "threads {threads}");
        }
    }

    #[test]
    fn flat_schedule_equals_per_point_runs() {
        // Heterogeneous grid: points of one (partial) and three chunks,
        // both kernels. Each row must be exactly what a stand-alone
        // `run_two_branch_walks` of that point (seeded with the point's
        // `SeedSequence` child) reports, whatever the pool width.
        let spec = SweepSpec {
            walkers: vec![100, 3000],
            semantics: vec![PenaltySemantics::Paper, PenaltySemantics::Spec],
            beta0: vec![1.0 / 3.0],
            threads: 3,
            ..tiny()
        };
        let result = spec.run();
        assert_eq!(result.rows.len(), 4);
        let seq = SeedSequence::new(spec.seed);
        for (row, g) in result.rows.iter().zip(0u64..) {
            let alone = ethpos_sim::run_two_branch_walks(&TwoBranchWalkConfig {
                p0: row.p0,
                beta0: row.beta0,
                walkers: row.walkers,
                epochs: spec.epochs,
                seed: seq.child_seed(g),
                paper_semantics: row.semantics == PenaltySemantics::Paper,
                threads: 1,
            });
            assert_eq!(row.mc_single_branch, alone.single_branch_breach, "row {g}");
            assert_eq!(row.mc_either_branch, alone.either_branch_breach, "row {g}");
            assert_eq!(row.byzantine_stake, alone.byzantine_stake[0], "row {g}");
        }
        assert_eq!(
            (result.rows[0].walkers, result.rows[1].walkers),
            (100, 3000)
        );
        // β₀ = ⅓ splits the walkers, so a misrouted chunk would show.
        assert!(result.rows.iter().all(|r| r.mc_single_branch > 0.0));
        let json = result.to_json();
        for threads in [1, 2, 8] {
            let again = SweepSpec {
                threads,
                ..spec.clone()
            }
            .run()
            .to_json();
            assert_eq!(again, json, "threads {threads}");
        }
    }

    #[test]
    fn validators_axis_runs_the_discrete_cross_check() {
        let mut spec = tiny();
        spec.beta0 = vec![0.33];
        spec.walkers = vec![128];
        spec.epochs = 600;
        spec.validators = vec![600, 1200];
        let result = spec.run();
        assert_eq!(result.rows.len(), 2);
        for r in &result.rows {
            // β0 = 0.33 finalizes conflicting branches around epoch ~513
            // in the discrete protocol (Table 2: 502).
            let t = r.discrete_finalization_epoch.expect("must finalize");
            assert!((480..560).contains(&t), "t = {t} at n = {:?}", r.validators);
        }
        // Without the axis the column stays empty.
        let bare = tiny().run();
        assert!(bare
            .rows
            .iter()
            .all(|r| r.validators.is_none() && r.discrete_finalization_epoch.is_none()));
    }

    #[test]
    fn validators_axis_is_thread_invariant() {
        let run = |threads: usize| {
            let mut spec = tiny();
            spec.beta0 = vec![0.33];
            spec.walkers = vec![256];
            spec.epochs = 600;
            spec.validators = vec![600, 1200];
            spec.threads = threads;
            spec.run().to_json()
        };
        let one = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), one, "threads {threads}");
        }
    }

    #[test]
    fn larger_beta_breaches_more() {
        let result = SweepSpec {
            epochs: 2000,
            walkers: vec![4000],
            ..tiny()
        }
        .run();
        assert!(result.rows[1].mc_single_branch > result.rows[0].mc_single_branch);
        // Eq. 24 disregards the score floor at zero ("conservatively
        // estimating the loss of stake"), so it tracks the Monte Carlo
        // from above, within a few percent at these sizes.
        for r in &result.rows {
            let analytic = r.analytic_prob.unwrap();
            assert!(
                analytic >= r.mc_single_branch - 0.01,
                "β0 {}: analytic {analytic} below MC {}",
                r.beta0,
                r.mc_single_branch
            );
            assert!(
                (analytic - r.mc_single_branch).abs() < 0.1,
                "β0 {}: analytic {analytic} vs MC {}",
                r.beta0,
                r.mc_single_branch
            );
        }
    }

    #[test]
    fn closed_forms_ride_along() {
        let mut spec = tiny();
        spec.p0 = vec![0.5, 0.6];
        let result = spec.run();
        for r in &result.rows {
            // §5.2: the non-slashable strategy always takes longer.
            assert!(r.non_slashable_finalization_epoch > r.slashable_finalization_epoch);
            // Eq. 14: at p0 = 0.5 the window needs β0 > 1/3 strictly, so
            // these grid points sit outside; p0 = 0.6 is inside for both.
            assert_eq!(r.bouncing_viable, r.p0 > 0.5, "({}, {})", r.p0, r.beta0);
        }
    }

    #[test]
    fn table_and_json_render() {
        let result = tiny().run();
        let text = result.render_text();
        assert!(text.contains("Parameter sweep"));
        assert!(text.contains("0.333"));
        let value: serde_json::Value = serde_json::from_str(&result.to_json()).unwrap();
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        // serialized as the CLI-round-trippable id, not the variant name
        assert_eq!(
            rows[0].get("semantics").and_then(|v| v.as_str()),
            Some("paper")
        );
    }
}
