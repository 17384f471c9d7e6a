//! End-to-end: a healthy (unpartitioned) network finalizes steadily on the
//! epoch-level engine, and the run is deterministic.

use ethpos::sim::{DualActive, PartitionConfig, PartitionOutcome, PartitionSim, PartitionTimeline};
use ethpos::types::ChainConfig;

/// `n` honest validators on one branch for `epochs` epochs, every epoch
/// recorded.
fn healthy(chain: ChainConfig, n: usize, epochs: u64) -> PartitionOutcome {
    let cfg = PartitionConfig {
        chain,
        record_every: 1,
        ..PartitionConfig::paper(n, 0, PartitionTimeline::new(), epochs)
    };
    PartitionSim::new(cfg, Box::new(DualActive)).unwrap().run()
}

#[test]
fn healthy_chain_reaches_steady_finality() {
    let out = healthy(ChainConfig::minimal(), 24, 16);
    assert!(out.violation.is_none());
    let last = out.history.last().expect("history recorded");
    // Steady state: finalization lags the clock by 2 epochs.
    assert!(last.stats[0].finalized_epoch >= 12);
    assert_eq!(
        last.stats[0].justified_epoch,
        last.stats[0].finalized_epoch + 1
    );
}

#[test]
fn runs_are_deterministic() {
    let a = healthy(ChainConfig::minimal(), 16, 10);
    let b = healthy(ChainConfig::minimal(), 16, 10);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn mainnet_sized_epochs_also_finalize() {
    let out = healthy(ChainConfig::mainnet(), 32, 6);
    assert!(out.violation.is_none());
    let last = out.history.last().expect("history recorded");
    assert!(last.stats[0].finalized_epoch >= 2);
}
