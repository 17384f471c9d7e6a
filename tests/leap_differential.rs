//! The quiet-interval leap against its oracles.
//!
//! `CohortState::advance_steady` takes a compact path through an interval;
//! `PerEpoch` below is the same state under the trait's default, the
//! per-epoch `advance_epoch` loop; `DenseState` is the independent
//! per-validator reference; and a schedule wrapped in `OneEpoch` names
//! no cadence, so its engine steps one epoch at a time. Driven alike,
//! all of them must agree at every interval boundary and on the whole
//! outcome.

use ethpos::core::chaos::{sample_case, Adversary, ChaosSpec};
use ethpos::core::experiments::simulated::fig2_classes;
use ethpos::core::partition::preset_scenarios;
use ethpos::core::StrategyKind;
use ethpos::sim::{
    run_single_branch_on, BranchChoice, BranchStatus, ByzantineSchedule, PartitionConfig,
    PartitionOutcome, PartitionSim, PartitionTimeline,
};
use ethpos::state::{
    BranchObservation, ClassSpec, ClassStats, CohortState, DenseState, Fragmentation, MemberState,
    ParticipationFlags, RootLabel, StateBackend, StateSnapshot,
};
use ethpos::types::{ChainConfig, Checkpoint, Epoch, Gwei};

/// [`CohortState`] with the trait's default `advance_steady`: every
/// epoch of an interval goes through `advance_epoch`.
#[derive(Debug, Clone)]
struct PerEpoch(CohortState);

impl StateBackend for PerEpoch {
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self {
        PerEpoch(CohortState::from_classes(config, classes))
    }
    fn config(&self) -> &ChainConfig {
        self.0.config()
    }
    fn current_epoch(&self) -> Epoch {
        self.0.current_epoch()
    }
    fn current_justified_checkpoint(&self) -> Checkpoint {
        self.0.current_justified_checkpoint()
    }
    fn finalized_checkpoint(&self) -> Checkpoint {
        self.0.finalized_checkpoint()
    }
    fn total_active_balance(&self) -> Gwei {
        self.0.total_active_balance()
    }
    fn current_target_balance(&self) -> Gwei {
        self.0.current_target_balance()
    }
    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }
    fn class_stats(&self, class: usize) -> ClassStats {
        self.0.class_stats(class)
    }
    fn observe(&self, class: usize) -> BranchObservation {
        self.0.observe(class)
    }
    fn class_floor(&self, class: usize) -> Option<MemberState> {
        self.0.class_floor(class)
    }
    fn mark_class(&mut self, class: usize, flags: ParticipationFlags) {
        self.0.mark_class(class, flags)
    }
    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut impl FnMut(u64) -> u64,
    ) {
        self.0.mark_class_counted(class, flags, sample)
    }
    fn advance_epoch(&mut self, next_checkpoint_root: Option<RootLabel>) {
        self.0.advance_epoch(next_checkpoint_root)
    }
    fn class_balance(&self, class: usize) -> Gwei {
        self.0.class_balance(class)
    }
    fn snapshot(&self) -> StateSnapshot {
        self.0.snapshot()
    }
    fn shared_chunks_with(&self, other: &Self) -> usize {
        self.0.shared_chunks_with(&other.0)
    }
    fn fragmentation(&self) -> Option<Fragmentation> {
        self.0.fragmentation()
    }
}

/// A schedule that names no cadence: its engine steps epoch by epoch.
#[derive(Debug)]
struct OneEpoch(Box<dyn ByzantineSchedule>);

impl ByzantineSchedule for OneEpoch {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        self.0.participate(status)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn sim<B: StateBackend>(
    config: &PartitionConfig,
    schedule: Box<dyn ByzantineSchedule>,
) -> PartitionSim<B> {
    PartitionSim::with_backend(config.clone(), schedule).expect("timeline compiles")
}

/// Runs `config` on the leaping cohort engine, on [`PerEpoch`], on the
/// [`OneEpoch`] engine and (if `dense`) on [`DenseState`], comparing
/// every live branch's snapshot at each of the leaping engine's step
/// boundaries and the outcomes' JSON at the end. Returns the first and
/// last epoch of each of the leaping engine's steps, and its outcome.
fn differential(
    name: &str,
    config: &PartitionConfig,
    schedule: &dyn Fn() -> Box<dyn ByzantineSchedule>,
    dense: bool,
) -> (Vec<(u64, u64)>, PartitionOutcome) {
    let mut leap = sim::<CohortState>(config, schedule());
    let mut per_epoch = sim::<PerEpoch>(config, schedule());
    let mut one_epoch = sim::<CohortState>(config, Box::new(OneEpoch(schedule())));
    let mut dense = dense.then(|| sim::<DenseState>(config, schedule()));
    let mut steps = Vec::new();
    loop {
        let first = leap.current_epoch();
        let more = leap.step();
        let epoch = leap.current_epoch();
        steps.push((first, epoch - 1));
        assert_eq!(per_epoch.step(), more, "{name} at {epoch}");
        assert_eq!(
            per_epoch.current_epoch(),
            epoch,
            "{name}: the intervals part"
        );
        if let Some(dense) = &mut dense {
            assert_eq!(dense.step(), more, "{name} at {epoch}");
            assert_eq!(dense.current_epoch(), epoch, "{name}: dense intervals part");
        }
        while one_epoch.current_epoch() < epoch && one_epoch.step() {}
        assert_eq!(
            one_epoch.current_epoch(),
            epoch,
            "{name}: the runs end apart"
        );
        for b in leap.live_branches() {
            let snapshot = leap.branch(b).snapshot();
            let context = format!("{name}: branch {b} at epoch {epoch}");
            assert_eq!(
                per_epoch.branch(b).snapshot(),
                snapshot,
                "{context}, per epoch"
            );
            assert_eq!(
                one_epoch.branch(b).snapshot(),
                snapshot,
                "{context}, one epoch"
            );
            if let Some(dense) = &dense {
                assert_eq!(dense.branch(b).snapshot(), snapshot, "{context}, dense");
            }
        }
        if !more {
            break;
        }
    }
    let json = |outcome: &PartitionOutcome| serde_json::to_string(outcome).expect("serializable");
    let leap_outcome = leap.finish();
    let outcome = json(&leap_outcome);
    assert_eq!(
        json(&per_epoch.finish()),
        outcome,
        "{name}: per-epoch outcome"
    );
    assert_eq!(
        json(&one_epoch.finish()),
        outcome,
        "{name}: one-epoch outcome"
    );
    if let Some(dense) = dense {
        assert_eq!(json(&dense.finish()), outcome, "{name}: dense outcome");
    }
    (steps, leap_outcome)
}

/// The partition presets' configuration at `n` validators.
fn presets(n: usize) -> Vec<(String, PartitionConfig, StrategyKind)> {
    preset_scenarios()
        .into_iter()
        .map(|scenario| {
            let byzantine = (scenario.beta0 * n as f64).round() as usize;
            let config = PartitionConfig {
                stop_on_conflict: scenario.stop_on_conflict,
                record_every: u64::MAX,
                ..PartitionConfig::paper(n, byzantine, scenario.timeline, scenario.epochs)
            };
            let name = format!("{} at {n}", scenario.name);
            (name, config, scenario.strategy)
        })
        .collect()
}

/// The six Table 2/3 rows at `n` validators (`conflicting_finalization_on`).
fn table_rows(n: usize) -> Vec<(String, PartitionConfig, StrategyKind)> {
    let mut rows = Vec::new();
    for slashable in [true, false] {
        for beta0 in [0.33, 0.3, 0.25] {
            let byzantine = (beta0 * n as f64).round() as usize;
            let config = PartitionConfig {
                record_every: u64::MAX,
                ..PartitionConfig::paper(n, byzantine, PartitionTimeline::two_branch(0.5), 5200)
            };
            let strategy = if slashable {
                StrategyKind::DualActive
            } else {
                StrategyKind::SemiActive
            };
            rows.push((
                format!("β0 {beta0} slashable {slashable} at {n}"),
                config,
                strategy,
            ));
        }
    }
    rows
}

#[test]
fn presets_leap_as_single_epochs_step() {
    for (name, config, strategy) in presets(600) {
        differential(&name, &config, &|| strategy.build(), true);
    }
    let (name, config, strategy) = presets(1_000_000).swap_remove(0);
    let (steps, outcome) = differential(&name, &config, &|| strategy.build(), false);
    let epochs = outcome.epochs_run;
    assert!(
        steps.len() as u64 * 4 < epochs,
        "{name}: {} steps for {epochs} epochs",
        steps.len()
    );
}

#[test]
fn table_rows_leap_as_single_epochs_step() {
    for (name, config, strategy) in table_rows(300) {
        differential(&name, &config, &|| strategy.build(), true);
    }
    for (name, config, strategy) in table_rows(1_000_000) {
        differential(&name, &config, &|| strategy.build(), false);
    }
}

/// The compact workloads at 10⁶ leap: the presets and the six rows run
/// 15 811 epochs, and an epoch-by-epoch engine steps that often.
#[test]
fn compact_workloads_take_under_a_thousand_steps() {
    let (mut steps, mut epochs) = (0, 0);
    for (_, config, strategy) in presets(1_000_000).into_iter().chain(table_rows(1_000_000)) {
        let mut sim = sim::<CohortState>(&config, strategy.build());
        while sim.step() {
            steps += 1;
        }
        steps += 1;
        epochs += sim.current_epoch();
    }
    assert_eq!(epochs, 15_811);
    assert!(steps < 1_000, "{steps} steps");
}

/// Runs in which every branch finalizes and loses its whole Byzantine
/// class, on strategies that name a cadence throughout. Both fold events
/// must match the one-epoch engine's. Each lands on a one-epoch step: an
/// exit follows the effective-balance stair of the epoch before, and a
/// first finalization the justification of the epoch before (or of the
/// same one), both events that end the step before it.
#[test]
fn fold_events_match_the_one_epoch_engine() {
    let cases = [
        (StrategyKind::ThresholdSeeker, 0.33, 0.5),
        (StrategyKind::ThresholdSeeker, 0.36, 0.6),
        (StrategyKind::Rotate, 0.33, 0.5),
    ];
    for (strategy, beta0, p0) in cases {
        let n = 60;
        let config = PartitionConfig {
            stop_on_conflict: false,
            record_every: u64::MAX,
            ..PartitionConfig::paper(
                n,
                (beta0 * n as f64).round() as usize,
                PartitionTimeline::two_branch(p0),
                8200,
            )
        };
        let name = format!("{strategy:?} β0 {beta0} p0 {p0}");
        let (steps, outcome) = differential(&name, &config, &|| strategy.build(), true);
        let events: Vec<u64> = (outcome.branches.iter())
            .flat_map(|b| [b.first_finalization_epoch, b.byzantine_exit_epoch])
            .collect::<Option<_>>()
            .unwrap_or_else(|| {
                panic!("{name}: a branch kept its Byzantine class or never finalized")
            });
        for event in events {
            let step = steps
                .iter()
                .find(|&&(first, last)| first <= event && event <= last);
            assert_eq!(
                step,
                Some(&(event, event)),
                "{name}: the step of epoch {event}"
            );
        }
    }
}

/// Sixteen churn-free chaos cases with a hand-written strategy.
#[test]
fn pinned_chaos_cases_leap_as_single_epochs_step() {
    let spec = ChaosSpec {
        n: 512,
        max_epochs: 1024,
        seed: 3,
        ..ChaosSpec::default()
    };
    let cases = (0..)
        .map(|index| sample_case(&spec, index))
        .filter(|case| !case.has_churn() && matches!(case.adversary, Adversary::Strategy(_)))
        .take(16);
    for case in cases {
        let config = PartitionConfig {
            seed: case.engine_seed,
            record_every: u64::MAX,
            ..PartitionConfig::paper(
                case.n,
                (case.beta0 * case.n as f64).round() as usize,
                case.timeline.clone(),
                case.max_epochs,
            )
        };
        let name = format!("chaos case {} ({})", case.index, case.timeline.render());
        differential(&name, &config, &|| case.adversary.build(), true);
    }
}

/// The Figure 2 mix at `n`, driven interval by interval on the compact
/// path beside [`PerEpoch`] (and, if `dense`, [`DenseState`]): the same
/// interval lengths, and equal snapshots at every boundary. Returns the
/// number of intervals.
fn fig2_intervals(config: &ChainConfig, n: u64, epochs: u64, dense: bool) -> u64 {
    let classes = fig2_classes(n as usize);
    let specs = classes.map(|(_, count)| ClassSpec::full_stake(count, config));
    let marks = |_, epoch, class: usize| classes[class].0.participates(epoch);
    let mut leap = CohortState::from_classes(config.clone(), &specs);
    let mut per_epoch = PerEpoch::from_classes(config.clone(), &specs);
    let mut dense = dense.then(|| DenseState::from_classes(config.clone(), &specs));
    let mut intervals = 0;
    while leap.current_epoch().as_u64() < epochs {
        let left = epochs - leap.current_epoch().as_u64();
        let taken = CohortState::advance_steady(&mut [&mut leap], marks, |_, _| None, left);
        intervals += 1;
        let epoch = leap.current_epoch();
        let per_epoch_taken =
            PerEpoch::advance_steady(&mut [&mut per_epoch], marks, |_, _| None, left);
        assert_eq!(per_epoch_taken, taken, "at {epoch}");
        assert_eq!(per_epoch.snapshot(), leap.snapshot(), "n {n} at {epoch}");
        if let Some(dense) = &mut dense {
            let dense_taken = DenseState::advance_steady(&mut [dense], marks, |_, _| None, left);
            assert_eq!(dense_taken, taken, "at {epoch}");
            assert_eq!(dense.snapshot(), leap.snapshot(), "n {n} at {epoch}, dense");
        }
    }
    let trajectories = run_single_branch_on::<CohortState>(config.clone(), &classes, epochs);
    let reference = match dense {
        Some(_) => run_single_branch_on::<DenseState>(config.clone(), &classes, epochs),
        None => run_single_branch_on::<PerEpoch>(config.clone(), &classes, epochs),
    };
    for (t, r) in trajectories.iter().zip(&reference) {
        assert_eq!(t.balance_gwei, r.balance_gwei, "{:?} at n {n}", t.behavior);
        assert_eq!(t.inactivity_score, r.inactivity_score, "{:?}", t.behavior);
        assert_eq!(t.ejected_at, r.ejected_at, "{:?}", t.behavior);
    }
    intervals
}

#[test]
fn fig2_leaps_as_single_epochs_step() {
    for config in [ChainConfig::paper(), ChainConfig::mainnet()] {
        let intervals = fig2_intervals(&config, 1_000_000, 8000, false);
        assert!(intervals < 4000, "{intervals} intervals in 8000 epochs");
        for n in [10, 7] {
            fig2_intervals(&config, n, 8000, true);
        }
    }
}
