//! Full reproduction driver: runs every table and figure of the paper at
//! both the analytic and simulated levels and prints a paper-vs-measured
//! summary (the source of EXPERIMENTS.md).
//!
//! ```bash
//! cargo run --release --example reproduce_all
//! ```
//!
//! Pass `--json DIR` to also dump every experiment's full data as JSON.

use ethpos::core::experiments::simulated::conflicting_finalization_on;
use ethpos::core::experiments::{run_experiment, Experiment};
use ethpos::core::scenarios::{bouncing, semi_active, slashing, threshold};
use ethpos::core::StakeBehavior;
use ethpos::sim::{
    run_bouncing_walks, run_single_branch_on, Behavior, BouncingWalkConfig, PartitionConfig,
    PartitionSim, PartitionTimeline, ThresholdSeeker,
};
use ethpos::state::{BackendKind, DenseState};
use ethpos::types::ChainConfig;

fn main() {
    let json_dir = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    println!("=== ethpos full reproduction ===\n");

    // ── Fig. 2: stake trajectories & ejection epochs ────────────────────
    // One validator per class, per-validator on the dense backend.
    let classes: Vec<(Behavior, u64)> = {
        let mut v = vec![Behavior::Active, Behavior::SemiActive, Behavior::Inactive];
        v.extend(std::iter::repeat_n(Behavior::Inactive, 7));
        v.into_iter().map(|b| (b, 1)).collect()
    };
    let fig2 = run_single_branch_on::<DenseState>(ChainConfig::paper(), &classes, 8000);
    println!("Fig. 2 — ejection epochs (paper / closed form / simulated):");
    println!(
        "  inactive    : 4685 / {:.0} / {}",
        StakeBehavior::Inactive.ejection_epoch().unwrap(),
        fig2[2]
            .ejected_at
            .map(|e| e.to_string())
            .unwrap_or_default()
    );
    println!(
        "  semi-active : 7652 / {:.0} / {}",
        StakeBehavior::SemiActive.ejection_epoch().unwrap(),
        fig2[1]
            .ejected_at
            .map(|e| e.to_string())
            .unwrap_or_default()
    );

    // ── §5.1: honest-only conflicting finalization ──────────────────────
    let honest = conflicting_finalization_on(0.0, 0.5, 600, true, 5000, BackendKind::Dense);
    println!("\n§5.1 — conflicting finalization, honest only, p0 = 0.5:");
    println!("  paper 4686 / simulated {:?}", honest.unwrap());

    // ── Tables 2 & 3: full sweep ────────────────────────────────────────
    println!("\nTables 2–3 — conflicting finalization epoch (p0 = 0.5):");
    println!("  β0     Eq.9    sim(dual)   Eq.10-root  paper-T3   sim(semi)");
    for beta0 in [0.1f64, 0.15, 0.2, 0.33] {
        let a2 = slashing::conflicting_finalization_epoch(0.5, beta0);
        let a3 = semi_active::conflicting_finalization_epoch(0.5, beta0);
        let paper3 = if beta0 == 0.1 {
            4221
        } else if beta0 == 0.15 {
            3819
        } else if beta0 == 0.2 {
            3328
        } else {
            556
        };
        let s2 = conflicting_finalization_on(beta0, 0.5, 1200, true, 5000, BackendKind::Dense);
        let s3 = conflicting_finalization_on(beta0, 0.5, 1200, false, 5000, BackendKind::Dense);
        println!(
            "  {beta0:<5}  {a2:<6.0}  {:<10}  {a3:<10.0}  {paper3:<8}  {}",
            s2.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            s3.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
        );
    }

    // ── §5.2.3 / Fig. 7: threshold breach ───────────────────────────────
    println!("\n§5.2.3 / Fig. 7 — threshold breach (p0 = 0.5):");
    println!(
        "  bound: min β0 = {:.4} (paper 0.2421)",
        threshold::min_beta0_for_third(0.5)
    );
    for beta0 in [0.22f64, 0.25, 0.30] {
        let byzantine = (beta0 * 1200.0).round() as usize;
        let cfg = PartitionConfig {
            stop_on_conflict: false,
            record_every: u64::MAX,
            ..PartitionConfig::paper(1200, byzantine, PartitionTimeline::two_branch(0.5), 4800)
        };
        let out = PartitionSim::new(cfg, Box::new(ThresholdSeeker::new()))
            .expect("the two-branch timeline compiles")
            .run()
            .into_two_branch();
        println!(
            "  β0 = {beta0}: Eq.13 β_max = {:.4}, simulated max β = {:.4}, crossed 1/3: {}",
            threshold::beta_max(0.5, beta0),
            out.max_byzantine_proportion[0],
            out.byzantine_exceeds_third_epoch[0]
                .map(|e| format!("at epoch {e}"))
                .unwrap_or_else(|| "no".into()),
        );
    }

    // ── §5.3 / Fig. 10: bouncing attack ─────────────────────────────────
    println!("\n§5.3 / Fig. 10 — P[β > 1/3] (p0 = 0.5):");
    let law = bouncing::BouncingLaw::new(0.5);
    for beta0 in [1.0 / 3.0, 0.333, 0.33, 0.3] {
        let mc = run_bouncing_walks(&BouncingWalkConfig {
            beta0,
            walkers: 20_000,
            epochs: 4001,
            record_every: 4000,
            ..BouncingWalkConfig::default()
        });
        let at4000 = mc.series.last().unwrap();
        println!(
            "  β0 = {beta0:<7.4}: Eq.24 @4000 = {:.4}, Monte Carlo = {:.4}",
            law.prob_exceed_third(beta0, 4000.0),
            at4000.prob_exceed_third
        );
    }
    println!(
        "  continuation to epoch 7000 at β0 = 1/3: 10^{:.1} (paper: 1.01e-121)",
        bouncing::continuation_log_prob(1.0 / 3.0, 8, 7000) / std::f64::consts::LN_10
    );

    // ── Ablation: paper vs spec penalty semantics ───────────────────────
    let spec_cfg = ChainConfig {
        base_reward_factor: 0,
        paper_inactivity_penalties: false,
        ..ChainConfig::mainnet()
    };
    let spec = run_single_branch_on::<DenseState>(spec_cfg, &classes, 8000);
    println!("\nAblation — inactivity-penalty semantics (semi-active validator):");
    println!(
        "  stake at t = 4000: paper-semantics {:.2} ETH (model 26.76), spec-semantics {:.2} ETH",
        fig2[1].balance_gwei[4000] as f64 / 1e9,
        spec[1].balance_gwei[4000] as f64 / 1e9,
    );
    println!(
        "  semi-active ejection: paper-semantics {:?}, spec-semantics {:?} (paper claims 7652)",
        fig2[1].ejected_at, spec[1].ejected_at
    );

    // ── JSON dump ───────────────────────────────────────────────────────
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        for e in Experiment::all() {
            let out = run_experiment(e);
            let path = format!("{dir}/{}.json", e.id());
            std::fs::write(&path, out.to_json()).expect("write json");
            println!("wrote {path}");
        }
    }
}
