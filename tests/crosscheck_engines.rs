//! Cross-validation of the epoch-level engine against the paper's
//! analytic model on overlapping scenarios.

use ethpos::core::StakeBehavior;
use ethpos::sim::{
    run_single_branch_on, Behavior, ClassTrajectory, DualActive, PartitionConfig, PartitionSim,
    PartitionTimeline,
};
use ethpos::state::DenseState;
use ethpos::types::{BranchId, ChainConfig};

/// One validator per behaviour (plus inactive filler keeping the branch
/// from finalizing), per-validator on the dense backend.
fn figure2_mix(epochs: u64) -> Vec<ClassTrajectory> {
    let mut classes = vec![Behavior::Active, Behavior::SemiActive, Behavior::Inactive];
    classes.extend(std::iter::repeat_n(Behavior::Inactive, 7));
    let classes: Vec<(Behavior, u64)> = classes.into_iter().map(|b| (b, 1)).collect();
    run_single_branch_on::<DenseState>(ChainConfig::paper(), &classes, epochs)
}

/// A supermajority partition: the 70% branch finalizes, the 30% branch
/// does not (within a short horizon).
#[test]
fn supermajority_branch_finalizes_alone() {
    let cohort_cfg = PartitionConfig {
        stop_on_conflict: false,
        record_every: 1,
        chain: ChainConfig::minimal(),
        ..PartitionConfig::paper(10, 0, PartitionTimeline::two_branch(0.7), 10)
    };
    let cohort = PartitionSim::new(cohort_cfg, Box::new(DualActive))
        .unwrap()
        .run();
    let last = cohort.history.last().expect("history recorded");

    assert!(last.stats[0].finalized_epoch > 0);
    assert_eq!(last.stats[1].finalized_epoch, 0);
}

/// The cohort engine's integer arithmetic tracks the paper's continuous
/// stake model within 1% over 3000 epochs for both decaying behaviours.
#[test]
fn cohort_tracks_continuous_stake_model() {
    let discrete = figure2_mix(3000);
    for (idx, model) in [(1, StakeBehavior::SemiActive), (2, StakeBehavior::Inactive)] {
        for &t in &[1000u64, 2000, 3000] {
            let sim_eth = discrete[idx].balance_gwei[t as usize] as f64 / 1e9;
            let ode = model.stake(t as f64);
            let rel = (sim_eth - ode).abs() / ode;
            assert!(
                rel < 0.01,
                "{model:?} at t={t}: sim {sim_eth:.3} vs ODE {ode:.3} ({rel:.4})"
            );
        }
    }
}

/// The β₀ → ⅓ cliff: at β₀ = ⅓ the conflicting finalization is
/// immediate (first possible epochs), far from the β₀ = 0.2 value, and
/// the safety monitor names the conflicting pair.
#[test]
fn finalization_cliff_near_one_third() {
    let cfg = PartitionConfig {
        record_every: u64::MAX,
        ..PartitionConfig::paper(300, 100, PartitionTimeline::two_branch(0.5), 100) // β0 = 1/3 exactly
    };
    let out = PartitionSim::new(cfg, Box::new(DualActive)).unwrap().run();
    let t = out.conflicting_finalization_epoch.expect("immediate");
    assert!(t < 10, "β0 = 1/3 must finalize almost immediately, got {t}");
    let v = out.violation.expect("safety violation must be witnessed");
    assert_eq!(
        (v.branch_a, v.branch_b),
        (BranchId::new(0), BranchId::new(1))
    );
    assert_ne!(v.checkpoint_a.root, v.checkpoint_b.root);
    assert!(v.checkpoint_a.epoch.as_u64() > 0 && v.checkpoint_b.epoch.as_u64() > 0);
}

/// Ejection epochs measured by the cohort engine vs closed forms.
#[test]
fn ejection_epochs_cross_engine() {
    let t = figure2_mix(8000);
    let inactive_ej = t[2].ejected_at.expect("inactive ejected") as f64;
    let semi_ej = t[1].ejected_at.expect("semi-active ejected") as f64;
    let inactive_model = StakeBehavior::Inactive.ejection_epoch().unwrap();
    let semi_model = StakeBehavior::SemiActive.ejection_epoch().unwrap();
    assert!((inactive_ej - inactive_model).abs() / inactive_model < 0.01);
    assert!((semi_ej - semi_model).abs() / semi_model < 0.01);
    // paper's quoted constants are within 0.7% of the measurements
    assert!((inactive_ej - 4685.0).abs() / 4685.0 < 0.007);
    assert!((semi_ej - 7652.0).abs() / 7652.0 < 0.007);
}
