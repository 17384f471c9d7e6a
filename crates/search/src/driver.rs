//! Search drivers: exhaustive coarse grid plus a deterministic (1+λ)
//! evolutionary refiner, sharded over the workspace thread pool.
//!
//! Determinism model (the same contract as the Monte-Carlo engines, see
//! `ARCHITECTURE.md`): candidate evaluations carry no randomness at all
//! (fixed-partition two-branch runs), and the only random choices — the
//! (1+λ) mutations — draw from [`SeedSequence`] children keyed by
//! `(generation, offspring index)`. Evaluations fan onto a
//! [`ChunkPool`], whose in-task-order merge makes the archive, and with
//! it the [`Frontier`], **bit-identical for any `threads` value**.

use std::collections::BTreeMap;

use ethpos_sim::ChunkPool;
use ethpos_state::{BackendKind, CohortState, DenseState, StateBackend};
use ethpos_stats::SeedSequence;

use crate::frontier::{fitness_cmp, Frontier, FrontierMeta};
use crate::genome::Genome;
use crate::objective::{EvalParams, Evaluation, Objective};
use crate::prefix::{PrefixMemo, SearchStats};

/// One search: objective, attack parameters, evaluation budget,
/// genome-space bounds and threading.
///
/// # Example
///
/// A tiny conflict search (runs in well under a second even unoptimized):
///
/// ```
/// use ethpos_search::{Objective, SearchSpec};
///
/// let mut spec = SearchSpec::new(Objective::Conflict);
/// spec.n = 120;
/// spec.beta0 = 1.0 / 3.0; // immediate conflicting finalization
/// spec.epochs = 40;
/// spec.budget = 12;
/// spec.threads = 1;
/// let frontier = spec.run();
/// // The fastest strategy at β0 = 1/3 is the dual-active corner.
/// assert_eq!(frontier.best.genome, ethpos_search::Genome::DUAL_ACTIVE);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// What to maximize.
    pub objective: Objective,
    /// Registry size (default 1 000 000 — spec scale is interactive on
    /// the cohort backend).
    pub n: usize,
    /// Initial Byzantine proportion (objective-specific default, see
    /// [`Objective::default_beta0`]).
    pub beta0: f64,
    /// Fraction of honest validators on branch 0.
    pub p0: f64,
    /// Epoch horizon of each evaluation (objective-specific default).
    pub epochs: u64,
    /// State backend candidates run on.
    pub backend: BackendKind,
    /// Maximum number of unique candidate evaluations.
    pub budget: usize,
    /// Period bound of the exhaustive grid (mutations may go finer, up
    /// to a period of 6).
    pub max_period: u8,
    /// Offspring per (1+λ) generation.
    pub lambda: usize,
    /// Root seed of the mutation stream.
    pub seed: u64,
    /// Worker threads (`0` = one per hardware thread). Never changes the
    /// frontier, only the wall-clock time.
    pub threads: usize,
}

impl SearchSpec {
    /// The default search at `objective`: paper partition (`p0 = 0.5`),
    /// million-validator registry on the cohort backend,
    /// objective-appropriate β₀ and horizon, a 256-evaluation budget over
    /// the period ≤ 3 grid.
    pub fn new(objective: Objective) -> Self {
        SearchSpec {
            objective,
            n: 1_000_000,
            beta0: objective.default_beta0(),
            p0: 0.5,
            epochs: objective.default_epochs(),
            backend: BackendKind::Cohort,
            budget: 256,
            max_period: 3,
            lambda: 16,
            seed: 1,
            threads: 0,
        }
    }

    /// A small smoke search used by the `frontier` experiment (so
    /// `ethpos-cli all` exercises the subsystem): conflict objective just
    /// above β₀ = ⅓ — where finalization is immediate and every
    /// evaluation is cheap — over the period ≤ 2 grid.
    pub fn smoke() -> Self {
        SearchSpec {
            n: 600,
            beta0: 0.34,
            epochs: 400,
            budget: 24,
            max_period: 2,
            lambda: 8,
            ..SearchSpec::new(Objective::Conflict)
        }
    }

    /// The evaluation parameters every candidate of this search shares.
    pub fn eval_params(&self) -> EvalParams {
        EvalParams {
            n: self.n,
            beta0: self.beta0,
            p0: self.p0,
            epochs: self.epochs,
            backend: self.backend,
            objective: self.objective,
        }
    }

    /// Runs the search: the coarse grid first (budget-truncated prefix
    /// if necessary, keeping ≥ ¼ of the budget for refinement), then
    /// (1+λ) evolution from the best candidate until the budget is
    /// spent. Returns the Pareto [`Frontier`] of the whole archive.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`, `epochs == 0` or an axis is out of domain
    /// (`β₀ ∉ (0, 1)`, `p0 ∉ [0, 1]`). The internal "no feasible
    /// candidate" assertion is unreachable from here: the grid's first
    /// entry is the non-slashable alternation corner, which every
    /// objective accepts, so any `budget ≥ 1` evaluates it.
    pub fn run(&self) -> Frontier {
        self.run_with_stats().0
    }

    /// [`SearchSpec::run`] plus the [`SearchStats`] work counters of the
    /// prefix memo the search ran on (see [`PrefixMemo`]). The
    /// frontier is byte-identical to evaluating every candidate from
    /// genesis; the stats are the observability side channel.
    pub fn run_with_stats(&self) -> (Frontier, SearchStats) {
        assert!(self.budget > 0, "zero search budget");
        assert!(
            self.beta0 > 0.0 && self.beta0 < 1.0,
            "beta0 must be in (0, 1), got {}",
            self.beta0
        );
        let _span = ethpos_obs::span("search", "search run");
        match self.backend {
            BackendKind::Dense => self.run_typed::<DenseState>(),
            BackendKind::Cohort => self.run_typed::<CohortState>(),
        }
    }

    /// The search loop, monomorphized over the state backend so the
    /// prefix memo can hold real branch states of that backend.
    fn run_typed<B: StateBackend + Send + Sync>(&self) -> (Frontier, SearchStats) {
        let params = self.eval_params();
        let pool = ChunkPool::new(self.threads);
        let mut memo = PrefixMemo::<B>::new(&params);
        let mut archive: BTreeMap<Genome, Evaluation> = BTreeMap::new();

        // Stage 1 — exhaustive coarse grid. When the budget cannot cover
        // the whole grid, keep a coarse-first prefix and reserve at least
        // a quarter of the budget for the evolutionary refiner.
        let grid = Genome::grid(self.max_period);
        let grid_take = if self.budget >= grid.len() {
            grid.len()
        } else {
            self.budget - (self.budget / 4)
        };
        let batch: Vec<Genome> = grid.into_iter().take(grid_take).collect();
        for e in memo.evaluate_batch(&pool, &batch) {
            archive.insert(e.genome, e);
        }

        // Stage 2 — deterministic (1+λ) evolution. Mutations are pure
        // functions of (seed, generation, offspring index); offspring
        // already in the archive are skipped without spending budget.
        let seq = SeedSequence::new(self.seed);
        let mut parent = best_of(&archive);
        let mut generation = 0u64;
        while archive.len() < self.budget {
            let gen_seq = seq.child(generation);
            let want = self.lambda.max(1).min(self.budget - archive.len());
            let mut offspring: Vec<Genome> = Vec::with_capacity(want);
            for draw in 0..(8 * self.lambda.max(1)) as u64 {
                if offspring.len() >= want {
                    break;
                }
                let mut rng = gen_seq.child_rng(draw);
                let child = parent.mutate(&mut rng);
                if !archive.contains_key(&child) && !offspring.contains(&child) {
                    offspring.push(child);
                }
            }
            if offspring.is_empty() {
                break; // the neighbourhood is exhausted
            }
            for e in memo.evaluate_batch(&pool, &offspring) {
                archive.insert(e.genome, e);
            }
            let best = best_of(&archive);
            if fitness_cmp(&archive[&best], &archive[&parent]).is_lt() {
                parent = best;
            }
            generation += 1;
        }

        let frontier = Frontier::from_archive(
            self.objective,
            FrontierMeta {
                validators: self.n,
                beta0: self.beta0,
                p0: self.p0,
                epochs: self.epochs,
                backend: self.backend.id().into(),
                budget: self.budget,
                seed: self.seed,
            },
            archive.into_values().collect(),
        );
        (frontier, memo.stats())
    }
}

/// The archive's fittest genome (see
/// [`fitness_cmp`]).
fn best_of(archive: &BTreeMap<Genome, Evaluation>) -> Genome {
    archive
        .values()
        .min_by(|a, b| fitness_cmp(a, b))
        .expect("non-empty archive")
        .genome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(objective: Objective) -> SearchSpec {
        SearchSpec {
            n: 120,
            beta0: 1.0 / 3.0,
            epochs: 40,
            budget: 20,
            max_period: 2,
            lambda: 4,
            threads: 1,
            ..SearchSpec::new(objective)
        }
    }

    #[test]
    fn conflict_search_finds_dual_active_at_one_third() {
        let frontier = tiny(Objective::Conflict).run();
        assert_eq!(frontier.best.genome, Genome::DUAL_ACTIVE);
        assert!(frontier.best.slashable);
        assert!(frontier.best.conflict_epoch.unwrap() < 10);
        assert_eq!(frontier.evaluated, 20);
    }

    #[test]
    fn frontier_rows_are_mutually_non_dominated() {
        let frontier = tiny(Objective::Conflict).run();
        for a in &frontier.rows {
            for b in &frontier.rows {
                if a.genome == b.genome {
                    continue;
                }
                let dominates = a.damage >= b.damage
                    && a.cost_eth <= b.cost_eth
                    && (a.damage > b.damage || a.cost_eth < b.cost_eth);
                assert!(!dominates, "{} dominates {}", a.label, b.label);
            }
        }
        // rows are damage-sorted and start at `best`
        assert_eq!(frontier.rows[0].genome, frontier.best.genome);
        for w in frontier.rows.windows(2) {
            assert!(w[0].damage >= w[1].damage);
        }
    }

    #[test]
    fn search_is_thread_invariant() {
        let json = |threads: usize| {
            let mut spec = tiny(Objective::Conflict);
            spec.budget = 24;
            spec.threads = threads;
            spec.run().to_json()
        };
        let one = json(1);
        for threads in [2, 8] {
            assert_eq!(json(threads), one, "threads {threads}");
        }
    }

    #[test]
    fn horizon_objective_never_reports_a_slashable_winner() {
        let frontier = tiny(Objective::NonSlashableHorizon).run();
        assert!(frontier.rows.iter().all(|r| !r.slashable));
        assert!(frontier.infeasible > 0, "grid contains double-voters");
    }

    #[test]
    fn budget_truncation_keeps_the_coarse_prefix_and_refines() {
        let mut spec = tiny(Objective::Conflict);
        spec.budget = 10; // < the 32-genome period ≤ 2 grid
        let frontier = spec.run();
        assert_eq!(frontier.evaluated, 10);
        // grid prefix is 10 − 10/4 = 8 candidates; 2 evolved
        assert!(frontier.best.conflict_epoch.is_some());
    }

    /// Regression: `epochs: 0` used to reach the two-branch engine and
    /// die there on a bare index panic.
    #[test]
    #[should_panic(expected = "zero epoch horizon")]
    fn zero_epoch_horizon_panics_with_a_message() {
        let mut spec = tiny(Objective::Conflict);
        spec.epochs = 0;
        spec.run();
    }

    #[test]
    fn zero_budget_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut spec = tiny(Objective::Conflict);
            spec.budget = 0;
            spec.run()
        });
        assert!(result.is_err());
    }
}
