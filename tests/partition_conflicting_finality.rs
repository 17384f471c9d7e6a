//! §5.1 end-to-end: a long partition ends in conflicting finalization —
//! the paper's headline Safety violation — at both simulation levels.

use ethpos::network::NetworkConfig;
use ethpos::sim::{
    PartitionConfig, PartitionOutcome, PartitionSim, PartitionTimeline, SlotByzMode, SlotSim,
    SlotSimConfig,
};
use ethpos::types::Slot;
use ethpos::validator::DualActive;

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
/// effective-balance staircase) lands within ~1%.
#[test]
fn honest_even_split_finalizes_conflicting_around_4686() {
    let out = honest_split(0.5, 1000);
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

/// Slot-level witness: with β₀ = 1/3 dual-active Byzantine validators and
/// an even partition, two conflicting checkpoints finalize within a few
/// epochs, and the safety monitor reports the exact pair.
#[test]
fn slot_level_conflicting_finalization_witnessed() {
    let mut cfg = SlotSimConfig::healthy(12, 10 * 8);
    cfg.byzantine = 4;
    cfg.network = NetworkConfig::partitioned(Slot::new(1_000_000));
    cfg.honest_group = vec![0, 0, 0, 0, 1, 1, 1, 1];
    cfg.byz_mode = SlotByzMode::DualActive;
    let report = SlotSim::new(cfg).run();
    let (va, vb, ca, cb) = report
        .safety_violation
        .expect("safety violation must be witnessed");
    assert_ne!(va, vb);
    assert_ne!(ca.root, cb.root);
    assert!(ca.epoch.as_u64() > 0 && cb.epoch.as_u64() > 0);
}

/// Without Byzantine help an even slot-level split cannot finalize at all
/// inside a short horizon — Availability holds (blocks keep coming), but
/// Liveness is lost.
#[test]
fn availability_without_liveness_during_partition() {
    let mut cfg = SlotSimConfig::healthy(10, 8 * 8);
    cfg.network = NetworkConfig::partitioned(Slot::new(1_000_000));
    cfg.honest_group = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
    let report = SlotSim::new(cfg).run();
    assert!(report.safety_violation.is_none());
    assert_eq!(report.finalized[0].epoch.as_u64(), 0);
    assert_eq!(report.finalized[1].epoch.as_u64(), 0);
    // Availability: both branches kept producing blocks.
    assert!(report.blocks_produced > 40);
    assert_ne!(report.heads[0], report.heads[1]);
}
