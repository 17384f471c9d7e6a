//! §5.1 end-to-end: a long partition ends in conflicting finalization —
//! the paper's headline Safety violation.

use ethpos::sim::{DualActive, PartitionConfig, PartitionOutcome, PartitionSim, PartitionTimeline};
use ethpos::types::BranchId;

/// The honest-only two-branch run at split `p0`, recording every
/// `record_every` epochs.
fn honest_split(p0: f64, record_every: u64) -> PartitionOutcome {
    let cfg = PartitionConfig {
        record_every,
        ..PartitionConfig::paper(600, 0, PartitionTimeline::two_branch(p0), 5000)
    };
    PartitionSim::new(cfg, Box::new(DualActive)).unwrap().run()
}

/// The full §5.1 run: honest validators split 50/50, leak until both
/// branches finalize. Paper: epoch 4686; the discrete protocol (1-ETH
/// effective-balance staircase) lands within ~1%. Until then neither
/// branch finalizes anything: Liveness is lost during the partition.
#[test]
fn honest_even_split_finalizes_conflicting_around_4686() {
    let out = honest_split(0.5, 1000);
    let early: Vec<_> = out.history.iter().filter(|r| r.epoch < 4000).collect();
    assert!(early.len() >= 4, "epochs 0..4000 must be recorded");
    for r in early {
        assert!(
            r.stats.iter().all(|s| s.finalized_epoch == 0),
            "a branch finalized during the partition at epoch {}",
            r.epoch
        );
    }
    let t = out
        .conflicting_finalization_epoch
        .expect("partition must end in conflicting finalization");
    assert!(
        (4600..=4750).contains(&t),
        "conflicting finalization at {t}, paper: 4686"
    );
}

/// Asymmetric split: the larger side finalizes earlier (paper Fig. 3
/// p0 = 0.6 ⇒ epoch ≈ 3107), the smaller side only at ejection.
#[test]
fn asymmetric_split_slower_branch_binds() {
    let out = honest_split(0.6, 250);
    // Branch 0 (60 %) finalizes around epoch 3107.
    let b0_finalized_at = out
        .history
        .iter()
        .find(|r| r.stats[0].finalized_epoch > 0)
        .map(|r| r.epoch)
        .expect("branch 0 must finalize");
    assert!(
        (2900..=3400).contains(&b0_finalized_at),
        "branch-0 finalization near {b0_finalized_at}, paper ≈ 3107"
    );
    // Conflicting finalization still waits for the slow branch (ejection).
    let t = out.conflicting_finalization_epoch.expect("both finalize");
    assert!(t > 4500, "slow branch finalized too early: {t}");
}

/// Without Byzantine help an even split cannot finalize inside a short
/// horizon. Availability holds, since both branches stay live and keep
/// their honest half attesting, but Liveness is lost.
#[test]
fn availability_without_liveness_during_partition() {
    let cfg = PartitionConfig {
        record_every: 1,
        ..PartitionConfig::paper(10, 0, PartitionTimeline::two_branch(0.5), 64)
    };
    let out = PartitionSim::new(cfg, Box::new(DualActive)).unwrap().run();
    assert!(out.violation.is_none());
    assert_eq!(out.history.len(), 64, "every epoch recorded");
    for r in &out.history {
        // Availability: both branches live, each with its honest half active.
        assert_eq!(r.branches, [BranchId::new(0), BranchId::new(1)]);
        for s in &r.stats {
            assert_eq!(s.active_ratio, 0.5);
            // Liveness lost: nothing justifies, so nothing finalizes.
            assert_eq!((s.justified_epoch, s.finalized_epoch), (0, 0));
        }
    }
}
