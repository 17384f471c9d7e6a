//! The k-branch partition engine end-to-end: scenario families the
//! paper cannot express, run at the paper's true million-validator
//! population on the cohort backend — plus the safety-detection
//! regression the engine was built to fix.

use ethpos::core::partition::{
    heal_resplit, run_scenario, three_branch, PartitionSpec, StrategyKind,
};
use ethpos::core::BackendKind;
use ethpos::sim::{DualActive, PartitionConfig, PartitionSim, PartitionTimeline};
use ethpos::state::CohortState;
use ethpos::types::BranchId;

fn b(i: u32) -> BranchId {
    BranchId::new(i)
}

/// Regression (the two-branch era hard-coded branches 0 and 1 in its
/// conflict check): a violation between branches **1 and 2** of a 3-way
/// split must be detected. β₀ = 0.45 with weights [0.2, 0.4, 0.4] puts
/// branches 1 and 2 at (0.4·0.55 + 0.45) = 0.67 ≥ ⅔ — they finalize
/// conflicting checkpoints immediately — while branch 0 sits at 0.56
/// and never finalizes, so the old `stats[0] && stats[1]` rule would
/// have reported no conflict at all.
#[test]
fn three_way_violation_between_branches_one_and_two_is_detected() {
    let timeline = PartitionTimeline::new().split(0, b(0), &[0.2, 0.4, 0.4]);
    let config = PartitionConfig::paper(1200, 540, timeline, 60);
    let out = PartitionSim::new(config, Box::new(DualActive))
        .unwrap()
        .run();
    let violation = out.violation.expect("branches 1 and 2 must conflict");
    assert_eq!((violation.branch_a, violation.branch_b), (b(1), b(2)));
    assert!(out.conflicting_finalization_epoch.unwrap() < 10);
    // branch 0 (the pair the old check watched) never finalized
    assert_eq!(out.branches[0].first_finalization_epoch, None);
    assert!(out.branches[1].first_finalization_epoch.is_some());
    assert!(out.branches[2].first_finalization_epoch.is_some());
}

/// The 3-branch semi-active headline at one million validators: the
/// k-branch rotation + dwell finalizes conflicting branches near the
/// inactive-ejection epoch (≈ 4700), a regime outside the paper's
/// two-branch analysis — and the cohort backend does it in seconds.
#[test]
fn three_branch_headline_at_one_million_validators() {
    let out = run_scenario(&three_branch(), 1_000_000, BackendKind::Cohort, 0);
    let t = out
        .conflicting_finalization_epoch
        .expect("conflicting finalization across a branch pair");
    assert!(
        (4400..5200).contains(&t),
        "expected the ejection-wave window, got {t}"
    );
    // rotation never double-votes: the whole attack is non-slashable
    assert_eq!(out.double_vote_epochs, 0);
    assert_eq!(out.branches.len(), 3);
}

/// The heal-then-resplit bouncing headline at one million validators:
/// the first partition's decay persists through the heal, so the second
/// conflict beats the fresh β₀ = 0.3 bound (Eq. 9: 1577 epochs), and
/// the finalizations of the healed phase — inherited by both re-split
/// branches — are correctly classified as shared-prefix, not conflict.
#[test]
fn heal_resplit_headline_at_one_million_validators() {
    let out = run_scenario(&heal_resplit(), 1_000_000, BackendKind::Cohort, 0);
    let t = out.conflicting_finalization_epoch.expect("must conflict");
    assert!(t > 400, "the healed phase must not count as conflict: {t}");
    assert!(
        t - 400 < 1577,
        "persisted decay must beat the fresh-partition bound, got {} after the re-split",
        t - 400
    );
    // the healed phase finalized on the surviving branch
    let healed = &out.branches[1];
    assert_eq!(healed.healed_at_epoch, Some(300));
    assert!(out.branches[0].first_finalization_epoch.is_some());
    let violation = out.violation.expect("violation reported");
    assert_eq!((violation.branch_a, violation.branch_b), (b(0), b(2)));
}

/// Small-scale cross-check: at an overlapping size the dense and cohort
/// backends produce byte-identical partition reports for the preset
/// suite.
#[test]
fn partition_reports_are_byte_identical_across_backends() {
    let mk = |backend| PartitionSpec {
        backend,
        ..PartitionSpec::smoke()
    };
    let dense = mk(BackendKind::Dense).run().to_json();
    let cohort = mk(BackendKind::Cohort).run().to_json();
    let dense = dense.replace("\"Dense\"", "\"*\"");
    let cohort = cohort.replace("\"Cohort\"", "\"*\"");
    assert_eq!(dense, cohort);
}

/// A two-branch timeline through the partition CLI surface equals the
/// library's two-branch run: same conflict epoch as the golden §5.2.1
/// fixture's 519.
#[test]
fn partition_subsumes_the_two_branch_scenario() {
    let scenario = ethpos::core::partition::resolve_scenario(
        "split@0:0=0.5,0.5",
        StrategyKind::DualActive,
        0.33,
        800,
    )
    .unwrap();
    let out = run_scenario(&scenario, 1200, BackendKind::Cohort, 0);
    assert_eq!(out.conflicting_finalization_epoch, Some(519));
    let library = PartitionSim::<CohortState>::with_backend(
        PartitionConfig {
            record_every: u64::MAX,
            ..PartitionConfig::paper(1200, 396, PartitionTimeline::two_branch(0.5), 800)
        },
        Box::new(DualActive),
    )
    .unwrap()
    .run();
    assert_eq!(
        library.conflicting_finalization_epoch,
        out.conflicting_finalization_epoch
    );
}
