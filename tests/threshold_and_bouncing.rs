//! §5.2.3 and §5.3 end-to-end: the Byzantine proportion crossing ⅓, on
//! the discrete simulator and in the bouncing Monte Carlo.

use ethpos::core::scenarios::{bouncing, threshold};
use ethpos::sim::{
    run_bouncing_walks, BouncingWalkConfig, PartitionConfig, PartitionSim, PartitionTimeline,
    ThresholdSeeker, TwoBranchOutcome,
};

/// A ThresholdSeeker run of `config`, in the two-branch shape.
fn threshold_seeker(config: PartitionConfig) -> TwoBranchOutcome {
    PartitionSim::new(config, Box::new(ThresholdSeeker::new()))
        .unwrap()
        .run()
        .into_two_branch()
}

/// §5.2.3 with β₀ = 0.25 (above the 0.2421 bound): the discrete run's β
/// exceeds ⅓ on both branches at the honest-inactive ejection cliff.
#[test]
fn threshold_breach_above_bound_succeeds() {
    assert!(threshold::beta_max(0.5, 0.25) > 1.0 / 3.0);
    let out = threshold_seeker(PartitionConfig {
        stop_on_conflict: false,
        record_every: 2000,
        ..PartitionConfig::paper(1200, 300, PartitionTimeline::two_branch(0.5), 4800) // β0 = 0.25
    });
    for b in 0..2 {
        let e = out.byzantine_exceeds_third_epoch[b]
            .unwrap_or_else(|| panic!("β must cross 1/3 on branch {b}"));
        assert!(
            (4300..=4800).contains(&e),
            "branch {b} crossed at {e}, paper: at the 4685 ejection"
        );
        // analytic β_max within 2% of the measured peak
        let analytic = threshold::beta_max(0.5, 0.25);
        let measured = out.max_byzantine_proportion[b];
        assert!(
            (measured - analytic).abs() / analytic < 0.02,
            "branch {b}: measured {measured:.4} vs Eq. 13 {analytic:.4}"
        );
    }
}

/// §5.2.3 with β₀ = 0.22 (below the bound): β approaches but never
/// crosses ⅓.
#[test]
fn threshold_breach_below_bound_fails() {
    assert!(threshold::beta_max(0.5, 0.22) < 1.0 / 3.0);
    let out = threshold_seeker(PartitionConfig {
        stop_on_conflict: false,
        record_every: 2000,
        ..PartitionConfig::paper(1200, 264, PartitionTimeline::two_branch(0.5), 4800) // β0 = 0.22
    });
    assert_eq!(out.byzantine_exceeds_third_epoch, [None, None]);
    assert!(out.max_byzantine_proportion[0] > 0.25); // it did grow
    assert!(out.max_byzantine_proportion[0] < 1.0 / 3.0);
}

/// §5.3: Eq. 24 vs the Monte Carlo across epochs — the analytic law must
/// upper-bound the faithful walk (the paper drops the score floor,
/// "conservatively estimating the loss of stake") and track it within
/// 0.08 absolute (the gap peaks mid-curve where the floor bites most).
#[test]
fn bouncing_eq24_tracks_monte_carlo() {
    let law = bouncing::BouncingLaw::new(0.5);
    let mc = run_bouncing_walks(&BouncingWalkConfig {
        beta0: 0.333,
        walkers: 30_000,
        epochs: 5001,
        record_every: 1000,
        ..BouncingWalkConfig::default()
    });
    for s in mc.series.iter().filter(|s| s.epoch >= 2000) {
        let analytic = law.prob_exceed_third(0.333, s.epoch as f64);
        assert!(
            analytic >= s.prob_exceed_third - 0.01,
            "epoch {}: analytic {analytic:.4} below MC {:.4}",
            s.epoch,
            s.prob_exceed_third
        );
        assert!(
            (analytic - s.prob_exceed_third).abs() < 0.08,
            "epoch {}: analytic {analytic:.4} vs MC {:.4}",
            s.epoch,
            s.prob_exceed_third
        );
    }
}

/// §5.3 on the full two-branch protocol simulator with per-epoch random
/// membership (the Fig. 8 Markov chain): at β₀ = 0.333 the Byzantine
/// proportion fluctuates above ⅓ on at least one branch within a few
/// thousand epochs.
#[test]
fn bouncing_two_branch_protocol_run() {
    let out = threshold_seeker(PartitionConfig {
        stop_on_conflict: false,
        seed: 7,
        record_every: 500,
        ..PartitionConfig::paper(600, 200, PartitionTimeline::two_branch_churn(0.5), 3000) // β0 = 1/3
    });
    // With β0 = 1/3 exactly, symmetry puts each branch above 1/3 about
    // half the time once penalties differentiate the cohorts.
    assert!(
        out.max_byzantine_proportion[0] > 1.0 / 3.0 || out.max_byzantine_proportion[1] > 1.0 / 3.0,
        "max β = {:?}",
        out.max_byzantine_proportion
    );
    // No finalization during the bounce (justification alternates).
    assert_eq!(out.conflicting_finalization_epoch, None);
}

/// Eq. 14 window endpoints double-checked against the justification
/// arithmetic: inside the window honest votes alone cannot justify but
/// honest + Byzantine can; outside, one of those fails.
#[test]
fn viability_window_is_tight() {
    for beta0 in [0.1, 0.2, 0.3, 1.0 / 3.0] {
        let (lo, hi) = bouncing::viability_window(beta0);
        for p0 in [lo + 1e-6, (lo + hi) / 2.0, hi - 1e-6] {
            let honest_alone = p0 * (1.0 - beta0);
            let with_byz = honest_alone + beta0;
            assert!(honest_alone < 2.0 / 3.0, "honest can justify alone");
            assert!(with_byz > 2.0 / 3.0, "byzantine cannot tip the branch");
        }
        // just outside
        assert!((hi + 1e-6) * (1.0 - beta0) > 2.0 / 3.0 - 1e-9);
        assert!((lo - 1e-6) * (1.0 - beta0) + beta0 < 2.0 / 3.0 + 1e-9);
    }
}
