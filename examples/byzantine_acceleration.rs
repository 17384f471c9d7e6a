//! Scenarios §5.2.1 / §5.2.2 — Byzantine validators accelerating the loss
//! of Safety.
//!
//! Regenerates Tables 2 and 3 analytically and cross-checks two rows on
//! the discrete two-branch simulator (slashable dual-voting vs
//! non-slashable semi-active alternation).
//!
//! ```bash
//! cargo run --release --example byzantine_acceleration
//! ```

use ethpos::core::experiments::simulated::conflicting_finalization_on;
use ethpos::core::experiments::{run_experiment, Experiment};
use ethpos::core::scenarios::{semi_active, slashing};
use ethpos::state::BackendKind;

fn main() {
    println!(
        "{}",
        run_experiment(Experiment::Table2Slashable).render_text()
    );
    println!(
        "{}",
        run_experiment(Experiment::Table3NonSlashable).render_text()
    );

    println!("speed-up vs the honest-only baseline (4685 epochs):");
    for beta0 in [0.1, 0.2, 0.33] {
        let dual = slashing::conflicting_finalization_epoch(0.5, beta0);
        let semi = semi_active::conflicting_finalization_epoch(0.5, beta0);
        println!(
            "  β0 = {beta0:<4}: slashable {:.0} ({:.1}×), non-slashable {:.0} ({:.1}×)",
            dual,
            4685.0 / dual,
            semi,
            4685.0 / semi
        );
    }

    println!("\ncross-check on the discrete simulator (n = 1200, β0 = 0.33):");
    for (label, slashable) in [("slashable", true), ("non-slashable", false)] {
        let t = conflicting_finalization_on(0.33, 0.5, 1200, slashable, 1500, BackendKind::Dense);
        println!(
            "  {label:<14} conflicting finalization at epoch {}",
            t.map(|t| t.to_string()).unwrap_or_else(|| "none".into())
        );
    }
    println!(
        "\n(paper: 502 and 556; the discrete protocol's 1-ETH effective-balance\n\
         staircase lands both near the first balance step ≈ 513–521 — see\n\
         EXPERIMENTS.md for the full cross-check at all β0)"
    );
}
