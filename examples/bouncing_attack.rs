//! Scenario §5.3 — the probabilistic bouncing attack under the
//! inactivity leak.
//!
//! Prints the attack's viability window (Eq. 14), its continuation
//! probability, the analytic probability of breaching the ⅓ threshold
//! (Eq. 24 / Fig. 10), and cross-checks with the per-validator Monte
//! Carlo.
//!
//! ```bash
//! cargo run --release --example bouncing_attack -- 0.333
//! ```

use ethpos::core::scenarios::bouncing::{continuation_log_prob, viability_window, BouncingLaw};
use ethpos::sim::{run_bouncing_walks, BouncingWalkConfig};

fn main() {
    let beta0: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.333);
    assert!(beta0 > 0.0 && beta0 < 1.0, "β0 must be in (0,1)");

    println!("§5.3: probabilistic bouncing attack, β0 = {beta0}, p0 = 0.5, j = 8");
    let (lo, hi) = viability_window(beta0);
    println!("Eq. 14 viability window: {lo:.4} < p0 < {hi:.4}");

    let log10 = continuation_log_prob(beta0, 8, 7000) / std::f64::consts::LN_10;
    println!(
        "continuation to epoch 7000: 10^{log10:.1} \
         (paper: 1.01e-121 at β0 = 1/3)"
    );

    // Analytic Eq. 24 curve.
    let law = BouncingLaw::new(0.5);
    println!("\nEq. 24: P[β(t) > 1/3] (analytic / Monte Carlo, 20k walkers):");
    let mc = run_bouncing_walks(&BouncingWalkConfig {
        beta0,
        walkers: 20_000,
        epochs: 6001,
        record_every: 1000,
        ..BouncingWalkConfig::default()
    });
    for s in &mc.series {
        if s.epoch == 0 {
            continue;
        }
        println!(
            "  t = {:>5}: analytic {:.4}   MC {:.4}   (mean honest stake {:.2} ETH, byz {:.2} ETH)",
            s.epoch,
            law.prob_exceed_third(beta0, s.epoch as f64),
            s.prob_exceed_third,
            s.mean_honest_stake,
            s.byzantine_stake,
        );
    }
}
