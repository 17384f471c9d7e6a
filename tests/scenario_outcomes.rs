//! Table 1 end-to-end: every scenario's *observed* outcome on the
//! simulators matches the outcome the paper attributes to it.

use ethpos::core::scenarios::{Outcome, Scenario};
use ethpos::sim::{
    ByzantineSchedule, DualActive, PartitionConfig, PartitionSim, PartitionTimeline, SemiActive,
    ThresholdSeeker, TwoBranchOutcome,
};

fn paper_cfg(n: usize, byz: usize, epochs: u64) -> PartitionConfig {
    PartitionConfig {
        record_every: u64::MAX,
        ..PartitionConfig::paper(n, byz, PartitionTimeline::two_branch(0.5), epochs)
    }
}

fn run(config: PartitionConfig, schedule: Box<dyn ByzantineSchedule>) -> TwoBranchOutcome {
    PartitionSim::new(config, schedule)
        .unwrap()
        .run()
        .into_two_branch()
}

#[test]
fn scenario_5_1_all_honest_two_finalized_branches() {
    assert_eq!(Scenario::AllHonest.outcome(), Outcome::TwoFinalizedBranches);
    let out = run(paper_cfg(600, 0, 5000), Box::new(DualActive));
    assert!(out.conflicting_finalization_epoch.is_some());
}

#[test]
fn scenario_5_2_1_slashable_two_finalized_branches() {
    assert_eq!(
        Scenario::SlashableByzantine.outcome(),
        Outcome::TwoFinalizedBranches
    );
    let out = run(paper_cfg(1200, 396, 800), Box::new(DualActive));
    let t = out.conflicting_finalization_epoch.expect("finalizes");
    assert!(t < 600, "byzantine acceleration: {t} ≪ 4686");
}

#[test]
fn scenario_5_2_2_non_slashable_two_finalized_branches() {
    assert_eq!(
        Scenario::NonSlashableByzantine.outcome(),
        Outcome::TwoFinalizedBranches
    );
    let out = run(paper_cfg(1200, 396, 800), Box::new(SemiActive::new()));
    assert!(out.conflicting_finalization_epoch.is_some());
}

#[test]
fn scenario_5_2_3_beyond_one_third() {
    assert_eq!(Scenario::ThresholdBreach.outcome(), Outcome::BeyondOneThird);
    let mut cfg = paper_cfg(1200, 312, 4800); // β0 = 0.26 > 0.2421
    cfg.stop_on_conflict = false;
    let out = run(cfg, Box::new(ThresholdSeeker::new()));
    assert!(out.byzantine_exceeds_third_epoch[0].is_some());
    assert!(out.byzantine_exceeds_third_epoch[1].is_some());
}

#[test]
fn scenario_5_3_beyond_one_third_probabilistic() {
    assert_eq!(
        Scenario::ProbabilisticBouncing.outcome(),
        Outcome::BeyondOneThirdProbabilistic
    );
    // Probabilistic: with β0 = 1/3 − ε the breach happens on some seeds,
    // not others — exactly the paper's "probably".
    let run = |seed: u64| {
        let mut cfg = paper_cfg(300, 100, 1500);
        cfg.timeline = PartitionTimeline::two_branch_churn(0.5);
        cfg.stop_on_conflict = false;
        cfg.seed = seed;
        let out = run(cfg, Box::new(ThresholdSeeker::new()));
        out.max_byzantine_proportion[0].max(out.max_byzantine_proportion[1]) > 1.0 / 3.0
    };
    let successes = (0..6u64).filter(|&s| run(s)).count();
    assert!(
        successes > 0,
        "the breach must happen with non-trivial probability"
    );
}
