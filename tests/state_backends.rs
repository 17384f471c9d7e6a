//! The cohort-compressed backend at the paper's true population sizes.
//!
//! The §5.1/§5.2 discrete cross-checks historically ran on toy
//! registries (10–1200 validators) because the dense state costs
//! O(n·epochs). The cohort backend compresses per-validator state into
//! behaviour cohorts with exact spec integer arithmetic, so the same
//! runs complete interactively at **one million validators** — these
//! tests execute the paper-scale populations directly and cross-check
//! the results against the closed forms and the dense reference at
//! overlapping sizes.

use ethpos::core::experiments::{run_experiment_with, simulated, Experiment, McConfig};
use ethpos::core::BackendKind;
use ethpos::sim::{
    run_single_branch_on, DualActive, PartitionConfig, PartitionSim, PartitionTimeline,
    SafetyMonitor,
};
use ethpos::state::{CohortState, StateBackend};
use ethpos::types::ChainConfig;

/// Figure 2 at the paper's Ethereum-scale population: one million
/// validators (100k active / 100k semi-active / 800k inactive) to epoch
/// 4800 — the inactive class is ejected at the paper's ≈4685.
#[test]
fn fig2_ejection_epoch_at_one_million_validators() {
    let classes = simulated::fig2_classes(1_000_000);
    assert_eq!(classes[2].1, 800_000);
    let t = run_single_branch_on::<CohortState>(ChainConfig::paper(), &classes, 4800);
    let ej = t[2].ejected_at.expect("inactive class must be ejected");
    assert!(
        (4600..=4750).contains(&ej),
        "inactive ejection at {ej}, expected ≈4685"
    );
    assert_eq!(t[1].ejected_at, None, "semi-active ejects at ≈7652");
    assert_eq!(t[0].ejected_at, None);
}

/// Table 2 (β₀ = 0.33): conflicting finalization at one million
/// validators lands in the same window as the 1200-validator dense run
/// and the paper's 502 (the 1-ETH staircase shifts it to ≈513).
#[test]
fn table2_conflicting_finalization_at_one_million_validators() {
    let t = simulated::conflicting_finalization_on(
        0.33,
        0.5,
        1_000_000,
        true,
        800,
        BackendKind::Cohort,
    )
    .expect("must finalize conflicting branches");
    assert!((495..530).contains(&t), "t = {t}, paper: 502");
}

/// Table 3 (non-slashable, β₀ = 0.33) at one million validators: later
/// than the slashable strategy, same window as the small-registry runs.
#[test]
fn table3_non_slashable_at_one_million_validators() {
    let semi = simulated::conflicting_finalization_on(
        0.33,
        0.5,
        1_000_000,
        false,
        900,
        BackendKind::Cohort,
    )
    .expect("must finalize conflicting branches");
    assert!((495..620).contains(&semi), "t = {semi}");
}

/// At overlapping sizes the two backends produce byte-identical
/// experiment artifacts: the full fig2 + table2 cross-check JSON agrees
/// field-for-field.
#[test]
fn experiment_outputs_are_byte_identical_across_backends() {
    let mc = |backend| McConfig {
        validators: Some(1000),
        backend,
        epochs: 600,
        ..McConfig::default()
    };
    for experiment in [
        Experiment::Fig2StakeTrajectories,
        Experiment::Table2Slashable,
    ] {
        let dense = run_experiment_with(experiment, &mc(BackendKind::Dense)).to_json();
        let cohort = run_experiment_with(experiment, &mc(BackendKind::Cohort)).to_json();
        // The backend name is printed in the table titles; everything
        // else — every series point, every measured epoch — must agree.
        let dense = dense.replace("dense backend", "* backend");
        let cohort = cohort.replace("cohort backend", "* backend");
        assert_eq!(dense, cohort, "{experiment:?}");
    }
}

/// β₀ = 0.4 on the cohort backend at one million validators: dual-active
/// Byzantine validators give both branches a 0.7 supermajority, so
/// conflicting finalization is immediate (Table 2's "< 1 epoch" regime).
#[test]
fn immediate_conflict_at_one_million_validators() {
    let cfg = PartitionConfig {
        record_every: u64::MAX,
        ..PartitionConfig::paper(1_000_000, 400_000, PartitionTimeline::two_branch(0.5), 40)
    };
    let outcome = PartitionSim::<CohortState>::with_backend(cfg, Box::new(DualActive))
        .unwrap()
        .run();
    assert!(outcome.conflicting_finalization_epoch.expect("conflict") < 10);
}

/// The safety monitor consumes finalized checkpoints straight from any
/// backend: two million-validator cohort branches finalizing conflicting
/// synthetic checkpoints trip the Property-4 violation.
#[test]
fn safety_monitor_observes_cohort_branches() {
    use ethpos::state::ClassSpec;
    use ethpos::state::ParticipationFlags;
    use ethpos::state::RootLabel;

    let config = ChainConfig::paper();
    let classes = [ClassSpec::full_stake(1_000_000, &config)];
    let mut branches = [
        CohortState::from_classes(config.clone(), &classes),
        CohortState::from_classes(config, &classes),
    ];
    let genesis_root = branches[0].finalized_checkpoint().root;
    let mut monitor = SafetyMonitor::new(genesis_root, 2);
    for epoch in 0..8u64 {
        for (b, state) in branches.iter_mut().enumerate() {
            state.mark_class(0, ParticipationFlags::all());
            state.advance_epoch(Some(RootLabel::Branch {
                id: b as u64,
                epoch: epoch + 1,
            }));
            monitor.observe_backend(b, state);
        }
    }
    let (a, b, ca, cb) = monitor
        .violation()
        .expect("conflicting finalization missed");
    assert_eq!((a, b), (0, 1));
    assert_ne!(ca.root, cb.root);
}
