//! Distributional differential wall for count-level churn sampling.
//!
//! The cohort backend draws one `Binomial(c, p)` count per cohort while
//! the dense backend keeps per-validator Bernoulli reference semantics.
//! The two consume *different* randomness (one draw per cohort vs one
//! per member), so byte equality across backends is out for churn
//! timelines — exchangeability makes them equal **in law** instead.
//! These tests check the law at small n over many seeds: branch-stake
//! trajectory moments agree, and the chaos oracle classifies a sampled
//! case set identically on both backends.

use ethpos::core::chaos::ChaosSpec;
use ethpos::sim::{DualActive, PartitionConfig, PartitionSim, PartitionTimeline};
use ethpos::state::{BackendKind, StateBackend};
use ethpos::types::BranchId;

/// Probe epochs of the trajectory comparison (the horizon is 64; the
/// step loop reports completed epochs, so probes stay strictly below).
const PROBES: [u64; 4] = [8, 16, 32, 60];
const SEEDS: u64 = 48;

/// Runs a two-branch 50/50 churn timeline at n = 120, β₀ = ⅓ and returns
/// branch 0's total active balance (ETH) at each probe epoch.
fn stake_trajectory<B: StateBackend>(seed: u64) -> Vec<f64> {
    let timeline = PartitionTimeline::two_branch_churn(0.5);
    let config = PartitionConfig {
        seed: seed * 7919 + 1,
        stop_on_conflict: false,
        stop_on_finalization: false,
        record_every: u64::MAX,
        ..PartitionConfig::paper(120, 40, timeline, 64)
    };
    let mut sim = PartitionSim::<B>::with_backend(config, Box::new(DualActive))
        .expect("valid by construction");
    let mut out = Vec::with_capacity(PROBES.len());
    let mut epoch = 0u64;
    while sim.step() {
        epoch += 1;
        if PROBES.contains(&epoch) {
            let gwei = sim.branch(BranchId::GENESIS).total_active_balance();
            out.push(gwei.as_u64() as f64 / 1e9);
        }
    }
    assert_eq!(out.len(), PROBES.len());
    out
}

fn mean_and_sd(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Branch-stake trajectory moments agree between the per-validator
/// (dense) and per-cohort (cohort) churn paths: at every probe epoch the
/// across-seed means are within a few standard errors and the spreads
/// are the same order.
#[test]
fn churn_stake_trajectory_moments_agree_across_backends() {
    let dense: Vec<Vec<f64>> = (0..SEEDS)
        .map(stake_trajectory::<ethpos::state::DenseState>)
        .collect();
    let cohort: Vec<Vec<f64>> = (0..SEEDS)
        .map(stake_trajectory::<ethpos::state::CohortState>)
        .collect();
    for (pi, &probe) in PROBES.iter().enumerate() {
        let d: Vec<f64> = dense.iter().map(|t| t[pi]).collect();
        let c: Vec<f64> = cohort.iter().map(|t| t[pi]).collect();
        let (dm, ds) = mean_and_sd(&d);
        let (cm, cs) = mean_and_sd(&c);
        // Means within 5 pooled standard errors (plus a small absolute
        // floor for the late probes where the leak has squeezed the
        // spread toward zero).
        let se = ((ds * ds + cs * cs) / SEEDS as f64).sqrt();
        let tol = 5.0 * se + 0.02 * dm.max(1.0);
        assert!(
            (dm - cm).abs() < tol,
            "epoch {probe}: dense mean {dm:.3} ETH vs cohort mean {cm:.3} ETH (tol {tol:.3})"
        );
        // Same order of across-seed spread (churn noise dominates it).
        if ds > 1.0 || cs > 1.0 {
            let ratio = ds.max(cs) / ds.min(cs).max(1e-9);
            assert!(
                ratio < 3.0,
                "epoch {probe}: dense sd {ds:.3} vs cohort sd {cs:.3}"
            );
        }
    }
}

/// The chaos oracle classifies a sampled case set identically on both
/// backends — including the churn cases, where the two backends run
/// different random streams and only the law is shared.
#[test]
fn chaos_oracle_classification_identical_across_backends() {
    let spec = |backend: BackendKind| ChaosSpec {
        budget: 96,
        seed: 20240607,
        n: 200,
        max_epochs: 256,
        backend,
        threads: 1,
        ..ChaosSpec::default()
    };
    let dense = spec(BackendKind::Dense).run();
    let cohort = spec(BackendKind::Cohort).run();
    assert!(dense.violations.is_empty(), "{:?}", dense.violations);
    assert!(cohort.violations.is_empty(), "{:?}", cohort.violations);
    let mut churn_cases = 0u32;
    for (d, c) in dense.rows.iter().zip(&cohort.rows) {
        assert_eq!(d.case, c.case, "sampling must be backend-independent");
        if d.case.timeline.contains("churn") {
            churn_cases += 1;
        }
        assert_eq!(
            d.classification.verdict, c.classification.verdict,
            "case {} ({}): verdicts diverged",
            d.case.index, d.case.timeline
        );
    }
    assert!(
        churn_cases >= 5,
        "sampled case set must exercise churn, got {churn_cases}"
    );
}
