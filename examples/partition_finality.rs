//! Scenario §5.1 — a network partition with only honest validators.
//!
//! Splits 600 honest validators across two regions (`--p0` fraction on
//! branch 0) and lets the inactivity leak run on both branches with the
//! exact integer spec arithmetic, printing the active-stake ratio until
//! both branches finalize conflicting checkpoints (paper Fig. 3 and the
//! 4686-epoch Safety bound).
//!
//! ```bash
//! cargo run --release --example partition_finality -- 0.5
//! ```

use ethpos::core::scenarios::honest;
use ethpos::sim::{DualActive, PartitionConfig, PartitionSim, PartitionTimeline};

fn main() {
    let p0: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    assert!(p0 > 0.0 && p0 < 1.0, "p0 must be in (0,1)");

    println!("§5.1: honest-only partition, p0 = {p0}");
    println!(
        "analytic (Eq. 6): branch-0 regains 2/3 at epoch {:.0}, branch-1 at {:.0};",
        honest::two_thirds_epoch(p0),
        honest::two_thirds_epoch(1.0 - p0)
    );
    println!(
        "conflicting finalization (paper bound) at epoch {:.0}\n",
        honest::conflicting_finalization_epoch(p0)
    );

    let cfg = PartitionConfig {
        record_every: 250,
        ..PartitionConfig::paper(600, 0, PartitionTimeline::two_branch(p0), 5000)
    };
    let outcome = PartitionSim::new(cfg, Box::new(DualActive))
        .expect("the two-branch timeline compiles")
        .run()
        .into_two_branch();

    println!("discrete two-branch simulation (600 validators):");
    println!("epoch   ratio(b0)  ratio(b1)  fin(b0)  fin(b1)");
    for rec in &outcome.history {
        println!(
            "{:>5}   {:>8.4}   {:>8.4}   {:>6}   {:>6}",
            rec.epoch,
            rec.branch[0].active_ratio,
            rec.branch[1].active_ratio,
            rec.branch[0].finalized_epoch,
            rec.branch[1].finalized_epoch,
        );
    }
    match outcome.conflicting_finalization_epoch {
        Some(t) => println!(
            "\nSAFETY VIOLATED: both branches finalized conflicting checkpoints at epoch {t}\n\
             (paper: 4686 for p0 = 0.5; the discrete run lands within the\n\
             effective-balance staircase tolerance)"
        ),
        None => println!("\nno conflicting finalization within the horizon (try p0 closer to 0.5)"),
    }
}
