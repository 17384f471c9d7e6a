//! The attack-search subsystem end-to-end: the search *rediscovers* the
//! paper's hand-picked strategies as optima of their objectives, the
//! frontier is a genuine Pareto set, and the whole report is
//! thread-count invariant (the workspace determinism model).
//!
//! These searches are sized for debug-mode CI: capped horizons and
//! coarse grids. The full-scale rediscovery (the search over n = 10⁶ and
//! 8192 epochs) runs in the release-mode `search-smoke` CI job; the
//! horizon of its winner is evaluated here on its own.

use ethpos::search::{evaluate, Genome, Objective, SearchSpec};
use ethpos::state::BackendKind;

/// §5.2.1 rediscovered: with the conflict objective, the damage-optimal
/// strategy is the dual-active corner — active on both branches every
/// epoch, slashable — and nothing in the genome space finalizes
/// conflicting branches earlier (paper Table 2).
#[test]
fn conflict_search_rediscovers_dual_active() {
    let mut spec = SearchSpec::new(Objective::Conflict);
    spec.n = 1200;
    spec.beta0 = 0.33;
    spec.epochs = 700;
    spec.budget = 40;
    spec.max_period = 2;
    spec.threads = 0;
    let frontier = spec.run();
    assert_eq!(frontier.best.genome, Genome::DUAL_ACTIVE);
    assert!(frontier.best.slashable);
    // Table 2 (β0 = 0.33): 502 analytically; the discrete
    // effective-balance staircase lands at ≈ 513.
    let t = frontier.best.conflict_epoch.expect("conflict reached");
    assert!((495..530).contains(&t), "conflict at {t}, expected ≈ 513");
    // the non-slashable semi-active strategy survives on the frontier as
    // the cheap end (conflicting finalization without slashing exposure)
    let semi = frontier
        .rows
        .iter()
        .find(|r| !r.slashable && r.conflict_epoch.is_some())
        .expect("a non-slashable finalizer on the frontier");
    assert!(semi.cost_eth < frontier.best.cost_eth / 10.0);
}

/// §5.2.2/§5.2.3 rediscovered: with the non-slashable-horizon objective
/// the winner is semi-active alternation — the antiphase 1-of-2 duty
/// pair, never double-voting — which outlives every other non-slashable
/// candidate (full inactivity: ejected at ≈ 4685; alternation survives
/// to the semi-active ejection at ≈ 7652). The horizon here is capped at
/// 1100 epochs so the test stays debug-fast; at the cap the winner is
/// decided by minimal cost, which is exactly the paper's argument that
/// alternation leaks slowest.
#[test]
fn horizon_search_rediscovers_semi_active_alternation() {
    let mut spec = SearchSpec::new(Objective::NonSlashableHorizon);
    spec.n = 1200;
    spec.epochs = 1100;
    spec.budget = 40;
    spec.max_period = 2;
    spec.threads = 0;
    assert_eq!(spec.beta0, 0.33, "objective default β0");
    let frontier = spec.run();
    let best = &frontier.best;
    assert!(!best.slashable);
    // nothing finalizes within the cap under alternation
    assert_eq!(best.horizon, None);
    assert_eq!(best.damage, 1100.0);
    // the winner is the alternation genome (either phase assignment —
    // the mirror is the same strategy with branch labels swapped)
    let duty = best.genome.duty;
    assert_eq!(best.genome.dwell, 0);
    assert_eq!([duty[0].period, duty[1].period], [2, 2]);
    assert_eq!([duty[0].on, duty[1].on], [1, 1]);
    assert_ne!(
        duty[0].phase, duty[1].phase,
        "antiphase, never double-voting"
    );
    assert!(
        best.paper_strategy
            .as_deref()
            .expect("recognized as a paper strategy")
            .contains("semi-active alternation"),
        "{:?}",
        best.paper_strategy
    );
    // slashable candidates were seen and rejected by the objective
    assert!(frontier.infeasible > 0);
    assert!(frontier.rows.iter().all(|r| !r.slashable));
}

/// The alternation corner evaluated at the objective's full scale
/// (n = 10⁶ on the cohort backend, 8192 epochs): its delay horizon sits
/// next to the paper's Table 3 / Fig. 2 semi-active ejection at 7652
/// (the discrete effective-balance staircase lands at 7657).
#[test]
fn alternation_horizon_at_one_million_validators() {
    let params = SearchSpec::new(Objective::NonSlashableHorizon).eval_params();
    assert_eq!((params.n, params.epochs), (1_000_000, 8192));
    let horizon = evaluate(&params, Genome::THRESHOLD_SEEKER)
        .horizon
        .expect("honest branches finalize after ejection");
    assert!(
        (7645..=7670).contains(&horizon),
        "alternation horizon {horizon}, expected ≈ 7652 (paper) / 7657 (discrete)"
    );
}

/// The frontier JSON is byte-identical for any thread count — the same
/// determinism contract as the sweep and Monte-Carlo layers, mirrored
/// here for the search driver (grid + (1+λ) refinement included).
#[test]
fn search_frontier_is_thread_invariant() {
    let json = |threads: usize| {
        let mut spec = SearchSpec::new(Objective::Conflict);
        spec.n = 600;
        spec.beta0 = 0.34; // immediate finalization: every evaluation is cheap
        spec.epochs = 120;
        spec.budget = 48; // 32-genome grid + 16 evolved candidates
        spec.max_period = 2;
        spec.seed = 9;
        spec.threads = threads;
        spec.run().to_json()
    };
    let reference = json(1);
    for threads in [2, 3, 8] {
        assert_eq!(json(threads), reference, "threads {threads}");
    }
}

/// Dense and cohort backends agree on a search verdict (the backends are
/// exact equivalents; the search inherits that).
#[test]
fn search_backends_agree() {
    let run = |backend: BackendKind| {
        let mut spec = SearchSpec::new(Objective::Conflict);
        spec.n = 240;
        spec.beta0 = 0.34;
        spec.epochs = 60;
        spec.budget = 12;
        spec.max_period = 2;
        spec.backend = backend;
        spec.threads = 1;
        spec.run()
    };
    let dense = run(BackendKind::Dense);
    let cohort = run(BackendKind::Cohort);
    assert_eq!(dense.best.genome, cohort.best.genome);
    assert_eq!(dense.best.conflict_epoch, cohort.best.conflict_epoch);
    assert_eq!(dense.rows.len(), cohort.rows.len());
    for (d, c) in dense.rows.iter().zip(&cohort.rows) {
        assert_eq!(d.genome, c.genome);
        assert_eq!(d.damage, c.damage);
        assert_eq!(d.cost_eth, c.cost_eth);
    }
}
