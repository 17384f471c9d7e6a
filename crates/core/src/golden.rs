//! The golden-snapshot corpus: pinned end states for the five paper
//! scenarios.
//!
//! Each scenario runs [`PartitionSim`] over its two-branch timeline at a
//! small, fast registry size and renders a JSON fixture holding the full
//! [`TwoBranchOutcome`] **and** the final run-length-encoded
//! [`StateSnapshot`] of both branches. The fixtures are committed under
//! `tests/golden/`; the workspace test `golden_snapshots.rs` re-runs every
//! scenario on both backends and compares byte-for-byte — so a refactor
//! of the simulation stack diffs against pinned *state*, not just summary
//! numbers.
//!
//! Regenerate after an intentional behaviour change with
//! `REGEN_GOLDEN=1 cargo test --test golden_snapshots --test chaos_corpus
//! --test churn_law_pins` (it rewrites these fixtures, the chaos
//! replay corpus and the churn-law pins), then review the diff like any
//! other code change.
//!
//! No run mode calls this module: it is `pub` for `golden_snapshots.rs`,
//! its one caller.

use serde::Serialize;

use ethpos_sim::{PartitionConfig, PartitionSim, PartitionTimeline, TwoBranchOutcome};
use ethpos_state::{BackendKind, CohortState, DenseState, StateBackend, StateSnapshot};
use ethpos_types::BranchId;

use crate::partition::StrategyKind;

/// One golden scenario: a paper scenario pinned at a fixture-friendly
/// size.
#[derive(Debug, Clone)]
pub struct GoldenScenario {
    /// Scenario name (also the fixture file stem).
    pub name: &'static str,
    /// The paper section it witnesses.
    pub paper: &'static str,
    /// Registry size.
    pub n: usize,
    /// Byzantine validators.
    pub byzantine: usize,
    /// Honest split.
    pub p0: f64,
    /// Re-draw the honest split every epoch (§5.3) instead of pinning it.
    pub churn: bool,
    /// Adversary strategy.
    pub strategy: StrategyKind,
    /// Epoch horizon.
    pub epochs: u64,
    /// Churn seed (the fixed-partition scenarios ignore it).
    pub seed: u64,
    /// Stop on conflicting finalization.
    pub stop_on_conflict: bool,
    /// History thinning.
    pub record_every: u64,
}

impl GoldenScenario {
    /// The fixture file name.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.name)
    }

    /// The two-branch configuration of this scenario.
    pub fn config(&self) -> PartitionConfig {
        let timeline = if self.churn {
            PartitionTimeline::two_branch_churn(self.p0)
        } else {
            PartitionTimeline::two_branch(self.p0)
        };
        PartitionConfig {
            seed: self.seed,
            stop_on_conflict: self.stop_on_conflict,
            record_every: self.record_every,
            ..PartitionConfig::paper(self.n, self.byzantine, timeline, self.epochs)
        }
    }

    /// Runs the scenario on `backend` and returns the outcome plus both
    /// branches' final snapshots.
    pub fn run(&self, backend: BackendKind) -> (TwoBranchOutcome, [StateSnapshot; 2]) {
        match backend {
            BackendKind::Dense => self.run_on::<DenseState>(),
            BackendKind::Cohort => self.run_on::<CohortState>(),
        }
    }

    fn run_on<B: StateBackend>(&self) -> (TwoBranchOutcome, [StateSnapshot; 2]) {
        let mut sim = PartitionSim::<B>::with_backend(self.config(), self.strategy.build())
            .expect("the two-branch timeline compiles");
        while sim.step() {}
        let snapshots = [0, 1].map(|b| sim.branch(BranchId::new(b)).snapshot());
        (sim.finish().into_two_branch(), snapshots)
    }

    /// Renders the fixture JSON (dense reference backend). The fixture
    /// is a lossless rendering of the outcome plus both branches' final
    /// snapshots — with the slashings ring buffer run-length encoded
    /// like the member runs, so a fixture stays reviewable.
    pub fn render(&self) -> String {
        let (outcome, final_snapshots) = self.run(BackendKind::Dense);
        self.render_from(outcome, final_snapshots)
    }

    /// Renders the fixture from an already-computed run (how the golden
    /// test renders the cohort backend's result for comparison).
    pub fn render_from(
        &self,
        outcome: TwoBranchOutcome,
        final_snapshots: [StateSnapshot; 2],
    ) -> String {
        let fixture = Fixture {
            scenario: self.name,
            paper: self.paper,
            n: self.n,
            byzantine: self.byzantine,
            p0: self.p0,
            epochs: self.epochs,
            seed: self.seed,
            strategy: self.strategy.id(),
            outcome,
            final_snapshots: final_snapshots.map(FixtureSnapshot::from),
        };
        format!(
            "{}\n",
            serde_json::to_string_pretty(&fixture).expect("serializable")
        )
    }

    /// Whether the dense and cohort backends produce identical fixtures
    /// for this scenario. True for every fixed-partition scenario; the
    /// churn scenario consumes its draw stream in backend order (one
    /// draw per member on the dense backend, one count per cohort on the
    /// cohort backend), so only its dense rendering is pinned (see
    /// `ethpos_state::StateBackend::mark_class_counted`).
    pub fn backend_agnostic(&self) -> bool {
        !self.churn
    }
}

#[derive(Debug, Serialize)]
struct Fixture {
    scenario: &'static str,
    paper: &'static str,
    n: usize,
    byzantine: usize,
    p0: f64,
    epochs: u64,
    seed: u64,
    strategy: &'static str,
    outcome: TwoBranchOutcome,
    final_snapshots: [FixtureSnapshot; 2],
}

/// A [`StateSnapshot`] with the slashings ring buffer run-length
/// encoded (lossless: `(value_gwei, run length)` in ring order).
#[derive(Debug, Serialize)]
struct FixtureSnapshot {
    slot: ethpos_types::Slot,
    justification_bits: [bool; 4],
    previous_justified: ethpos_types::Checkpoint,
    current_justified: ethpos_types::Checkpoint,
    finalized: ethpos_types::Checkpoint,
    slashings_rle: Vec<(u64, u64)>,
    classes: Vec<Vec<(ethpos_state::MemberState, u64)>>,
}

impl From<StateSnapshot> for FixtureSnapshot {
    fn from(snapshot: StateSnapshot) -> Self {
        let mut slashings_rle: Vec<(u64, u64)> = Vec::new();
        for gwei in &snapshot.slashings {
            match slashings_rle.last_mut() {
                Some((value, count)) if *value == gwei.as_u64() => *count += 1,
                _ => slashings_rle.push((gwei.as_u64(), 1)),
            }
        }
        FixtureSnapshot {
            slot: snapshot.slot,
            justification_bits: snapshot.justification_bits,
            previous_justified: snapshot.previous_justified,
            current_justified: snapshot.current_justified,
            finalized: snapshot.finalized,
            slashings_rle,
            classes: snapshot.classes,
        }
    }
}

/// The five paper scenarios, pinned at fixture-friendly sizes.
pub fn scenarios() -> Vec<GoldenScenario> {
    vec![
        GoldenScenario {
            name: "s51_honest_even_split",
            paper: "§5.1 — honest even split, no finalization during the leak",
            n: 120,
            byzantine: 0,
            p0: 0.5,
            churn: false,
            strategy: StrategyKind::DualActive,
            epochs: 800,
            seed: 0,
            stop_on_conflict: true,
            record_every: 100,
        },
        GoldenScenario {
            name: "s521_dual_active",
            paper: "§5.2.1 — slashable dual voting, conflicting finalization",
            n: 1200,
            byzantine: 396,
            p0: 0.5,
            churn: false,
            strategy: StrategyKind::DualActive,
            epochs: 800,
            seed: 0,
            stop_on_conflict: true,
            record_every: 100,
        },
        GoldenScenario {
            name: "s522_semi_active",
            paper: "§5.2.2 — non-slashable alternation + dwell",
            n: 1200,
            byzantine: 396,
            p0: 0.5,
            churn: false,
            strategy: StrategyKind::SemiActive,
            epochs: 1200,
            seed: 0,
            stop_on_conflict: true,
            record_every: 100,
        },
        GoldenScenario {
            name: "s523_threshold_seeker",
            paper: "§5.2.3 — Byzantine proportion exceeds 1/3",
            n: 120,
            byzantine: 36,
            p0: 0.5,
            churn: false,
            strategy: StrategyKind::ThresholdSeeker,
            epochs: 600,
            seed: 0,
            stop_on_conflict: false,
            record_every: 50,
        },
        GoldenScenario {
            name: "s53_bouncing",
            paper: "§5.3 — probabilistic bouncing (random membership)",
            n: 300,
            byzantine: 100,
            p0: 0.5,
            churn: true,
            strategy: StrategyKind::ThresholdSeeker,
            epochs: 400,
            seed: 9,
            stop_on_conflict: false,
            record_every: 100,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_unique_and_cover_the_paper() {
        let s = scenarios();
        assert_eq!(s.len(), 5);
        let mut names: Vec<&str> = s.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        for section in ["§5.1", "§5.2.1", "§5.2.2", "§5.2.3", "§5.3"] {
            assert!(
                s.iter().any(|g| g.paper.contains(section)),
                "missing {section}"
            );
        }
    }

    #[test]
    fn fixtures_render_deterministically() {
        // The fastest scenario, rendered twice: identical bytes.
        let s = &scenarios()[0];
        assert_eq!(s.render(), s.render());
    }
}
