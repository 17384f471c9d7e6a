//! Scenario §5.2.3 — driving the Byzantine stake proportion over ⅓.
//!
//! Semi-active Byzantine validators refuse to finalize while the leak
//! drains honest-inactive stake; their proportion β(t) peaks at the
//! honest-inactive ejection (epoch 4685). Prints the Fig. 7 bound and
//! runs the discrete simulation to the ejection cliff.
//!
//! ```bash
//! cargo run --release --example threshold_breach -- 0.25
//! ```

use ethpos::core::scenarios::threshold;
use ethpos::sim::{PartitionConfig, PartitionSim, PartitionTimeline, ThresholdSeeker};

fn main() {
    let beta0: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    assert!(beta0 > 0.0 && beta0 < 1.0 / 3.0, "β0 must be in (0, 1/3)");

    println!("§5.2.3: threshold breach analysis, p0 = 0.5, β0 = {beta0}");
    println!(
        "Eq. 13 bound: β0 ≥ {:.4} breaches 1/3 on both branches;",
        threshold::min_beta0_for_third_both_branches(0.5)
    );
    println!(
        "analytic β_max({beta0}) = {:.4} ({})",
        threshold::beta_max(0.5, beta0),
        if threshold::beta_max(0.5, beta0) >= 1.0 / 3.0 {
            "EXCEEDS 1/3"
        } else {
            "stays below 1/3"
        }
    );

    // β(t) trajectory (Eq. 11) at a few epochs.
    println!("\nβ(t) trajectory (Eq. 11):");
    for t in [0.0, 1000.0, 2000.0, 3000.0, 4000.0, 4684.0, 4685.0] {
        println!(
            "  t = {t:>6}: β = {:.4}",
            threshold::byzantine_proportion(0.5, beta0, t)
        );
    }

    // Discrete run to just past the ejection cliff.
    let n = 1200usize;
    let byz = (beta0 * n as f64).round() as usize;
    println!("\ndiscrete two-branch simulation (n = {n}, {byz} Byzantine):");
    let cfg = PartitionConfig {
        stop_on_conflict: false,
        record_every: 500,
        ..PartitionConfig::paper(n, byz, PartitionTimeline::two_branch(0.5), 4800)
    };
    let out = PartitionSim::new(cfg, Box::new(ThresholdSeeker::new()))
        .expect("the two-branch timeline compiles")
        .run()
        .into_two_branch();
    for rec in &out.history {
        println!(
            "  epoch {:>5}: β(b0) = {:.4}, ejected honest = {}",
            rec.epoch, rec.branch[0].byzantine_proportion, rec.branch[0].ejected_honest
        );
    }
    println!(
        "\nmax β measured: branch0 = {:.4}, branch1 = {:.4}",
        out.max_byzantine_proportion[0], out.max_byzantine_proportion[1]
    );
    match out.byzantine_exceeds_third_epoch[0] {
        Some(e) => println!("β exceeded 1/3 on branch 0 at epoch {e} — SAFETY THRESHOLD BROKEN"),
        None => println!("β never exceeded 1/3 (β0 below the 0.2421 bound)"),
    }
}
