//! Unit and integration tests for the chaos campaign runner: sampling
//! determinism, the expectation model against known scenarios
//! (satellite: liveness oracle), campaign thread-invariance, and the
//! injected-bug find→shrink path end-to-end.

use super::*;
use crate::partition::StrategyKind;
use ethpos_sim::TimelineEvent;
use ethpos_types::BranchId;

/// A campaign spec small enough for debug-mode tests. The cohort
/// backend makes *non-churn* cases nearly population-free, but an
/// unclamped churn case fragments cohorts toward one per churned
/// validator (distinct leaked balances), so the population has to stay
/// small for the horizon to remain the dominant cost.
fn test_spec() -> ChaosSpec {
    ChaosSpec {
        budget: 12,
        seed: 7,
        n: 8_192,
        max_epochs: 1024,
        backend: BackendKind::Cohort,
        threads: 1,
        oracle: OracleParams::default(),
        crosscheck: CrosscheckParams {
            every: 6,
            n: 512,
            max_epochs: 256,
        },
    }
}

fn hand_case(timeline: PartitionTimeline, beta0: f64, max_epochs: u64) -> ChaosCase {
    ChaosCase {
        index: 0,
        timeline,
        adversary: Adversary::Strategy(StrategyKind::DualActive),
        beta0,
        n: 65_536,
        max_epochs,
        engine_seed: 3,
    }
}

// ─── Sampling ───────────────────────────────────────────────────────────

#[test]
fn sample_case_is_deterministic_and_structurally_valid() {
    let spec = ChaosSpec::default();
    for index in 0..48 {
        let case = sample_case(&spec, index);
        assert_eq!(case, sample_case(&spec, index), "case {index}");
        assert!(case.timeline.compile(1 << 16).is_ok(), "case {index}");
        assert!(
            (0.0..0.5).contains(&case.beta0),
            "case {index}: β₀ = {}",
            case.beta0
        );
        // Churn cases run unclamped: count-level cohort sampling makes
        // the population nearly free, so every case — churn or not —
        // keeps the spec's full n and a horizon that is the cap halved
        // zero to three times.
        assert!(
            [1, 2, 4, 8].contains(&(spec.max_epochs / case.max_epochs)),
            "case {index}: horizon {}",
            case.max_epochs
        );
        assert_eq!(case.n, spec.n);
        if case.adversary.requires_two_branches() {
            assert!(
                ethpos_sim::two_branch_only(&case.timeline),
                "case {index}: {:?} on a non-two-branch timeline",
                case.adversary
            );
        }
    }
}

#[test]
fn sample_case_covers_the_adversary_and_shape_space() {
    let spec = ChaosSpec::default();
    let cases: Vec<ChaosCase> = (0..96).map(|i| sample_case(&spec, i)).collect();
    assert!(cases
        .iter()
        .any(|c| matches!(c.adversary, Adversary::Genome(_))));
    assert!(cases
        .iter()
        .any(|c| matches!(c.adversary, Adversary::Strategy(_))));
    assert!(cases.iter().any(ChaosCase::has_churn));
    assert!(cases.iter().any(|c| c.timeline.events.len() > 1));
    assert!(cases.iter().any(|c| c.beta0 == 0.0));
    assert!(cases.iter().any(|c| c.beta0 == 0.33));
}

#[test]
fn adversary_labels_round_trip() {
    let mut adversaries: Vec<Adversary> = StrategyKind::all()
        .iter()
        .copied()
        .map(Adversary::Strategy)
        .collect();
    adversaries.extend([
        Adversary::Genome(Genome::DUAL_ACTIVE),
        Adversary::Genome(Genome::THRESHOLD_SEEKER),
        Adversary::Genome(Genome::SEMI_ACTIVE),
    ]);
    for adversary in adversaries {
        let label = adversary.label();
        assert_eq!(Adversary::parse(&label), Some(adversary), "{label}");
    }
    assert_eq!(Adversary::parse("strategy:nope"), None);
    assert_eq!(Adversary::parse("genome:1.1"), None);
}

// ─── The expectation model ──────────────────────────────────────────────

#[test]
fn branch_profiles_track_pinned_and_churned_stake() {
    let split = PartitionTimeline::two_branch(0.6);
    let profiles = branch_profiles(&split);
    assert_eq!(profiles.len(), 2);
    assert!((profiles[0].max_w - 0.6).abs() < 1e-3);
    assert!((profiles[1].min_w - 0.4).abs() < 1e-3);
    assert!(!profiles[0].churns);

    // After a heal the surviving branch commands everything.
    let healed =
        PartitionTimeline::two_branch(0.6).heal(100, BranchId::GENESIS, &[BranchId::new(1)]);
    let profiles = branch_profiles(&healed);
    assert!((profiles[0].max_w - 1.0).abs() < 1e-9);
    assert!((profiles[0].min_w - 0.6).abs() < 1e-3);

    // Churned membership counts toward max_w but not min_w.
    let churn = PartitionTimeline::two_branch_churn(0.5);
    let profiles = branch_profiles(&churn);
    assert!(profiles.iter().all(|p| p.churns));
    assert!(profiles.iter().all(|p| (p.max_w - 1.0).abs() < 1e-9));
    assert!(profiles.iter().all(|p| p.min_w.abs() < 1e-9));
}

#[test]
fn liveness_bound_has_three_regimes() {
    let oracle = OracleParams::default();
    let profile = |min_w: f64, churns: bool| BranchProfile {
        branch: 0,
        created: 100,
        max_w: min_w,
        min_w,
        churns,
    };
    // Supermajority: bound is creation + grace.
    let b = liveness_bound(&profile(0.8, false), 0.1, &oracle).unwrap();
    assert!((b - (100.0 + oracle.grace)).abs() < 1e-9);
    // Blockable (q ≤ 2β₀): no bound — the §5.2.3 regime.
    assert_eq!(liveness_bound(&profile(0.25, false), 0.33, &oracle), None);
    // Churn: no bound — the §5.3 regime.
    assert_eq!(liveness_bound(&profile(0.8, true), 0.1, &oracle), None);
    // In between: a finite leak bound past creation, capped by ejection.
    let b = liveness_bound(&profile(0.5, false), 0.1, &oracle).unwrap();
    assert!(b > 100.0 + oracle.grace);
    assert!(
        b <= 100.0
            + crate::stake_model::PAPER_EJECT_INACTIVE * (1.0 + oracle.rel_slack)
            + oracle.abs_slack
            + oracle.grace
    );
}

#[test]
fn conflict_lower_bound_is_the_first_staircase_step_for_the_even_split() {
    let profiles = branch_profiles(&PartitionTimeline::two_branch(0.5));
    let bound = conflict_lower_bound(&profiles[0], &profiles[1], 0.33);
    // At p₀ = 0.5, β₀ = 0.33 the attesting weight (0.665) crosses ⅔ of
    // the active stake on the *first* effective-balance step of the
    // absent class, which the hysteresis fires once the leak exceeds
    // 0.25 ETH out of 32 — the staircase bound, not the continuous
    // Eq. 9 solve (which overshoots by the sub-step leak).
    let first_step = (2f64.powi(25) * (32.0f64 / 31.75).ln()).sqrt();
    assert!((bound - first_step).abs() < 1e-9, "{bound} vs {first_step}");
    // The golden dual-active run conflicts at ≈515: the bound must sit
    // just below the engine, not above it.
    assert!((505.0..520.0).contains(&bound), "{bound}");
}

// ─── The oracles on known scenarios ─────────────────────────────────────

#[test]
fn healed_even_split_is_healthy() {
    let timeline =
        PartitionTimeline::two_branch(0.5).heal(64, BranchId::GENESIS, &[BranchId::new(1)]);
    let case = hand_case(timeline, 0.0, 256);
    let outcome = run_case(&case, BackendKind::Cohort);
    let verdict = classify(&case, &outcome, &OracleParams::default());
    assert_eq!(verdict.verdict, "healthy", "{}", verdict.detail);
}

#[test]
fn supermajority_branch_finalizes_within_grace_and_minority_stall_is_expected() {
    let case = hand_case(PartitionTimeline::two_branch(0.8), 0.1, 64);
    let outcome = run_case(&case, BackendKind::Cohort);
    let first = outcome.branches[0]
        .first_finalization_epoch
        .expect("finalizes");
    assert!(
        first as f64 <= OracleParams::default().grace,
        "first = {first}"
    );
    // The 20 % branch is legitimately blockable (q = 0.18 ≤ 2β₀ = 0.2):
    // an expected stall, not a liveness violation.
    let verdict = classify(&case, &outcome, &OracleParams::default());
    assert_eq!(verdict.verdict, "expected-stall", "{}", verdict.detail);
}

#[test]
fn dual_active_attack_is_expected_by_model() {
    let case = hand_case(PartitionTimeline::two_branch(0.5), 0.33, 1024);
    let outcome = run_case(&case, BackendKind::Cohort);
    let verdict = classify(&case, &outcome, &OracleParams::default());
    assert_eq!(verdict.verdict, "expected-conflict", "{}", verdict.detail);
    let observed = verdict.conflict_epoch.expect("conflicts");
    let bound = verdict.conflict_lower_bound.expect("bound recorded");
    assert!(observed as f64 >= bound * 0.95, "{observed} vs {bound}");
}

#[test]
fn semi_active_attack_is_expected_by_model() {
    let mut case = hand_case(PartitionTimeline::two_branch(0.5), 0.33, 8192);
    case.adversary = Adversary::Strategy(StrategyKind::SemiActive);
    let outcome = run_case(&case, BackendKind::Cohort);
    let verdict = classify(&case, &outcome, &OracleParams::default());
    // §5.2.2: no slashable double votes, conflict still predicted.
    assert_eq!(verdict.verdict, "expected-conflict", "{}", verdict.detail);
    assert!(verdict.conflict_epoch.unwrap() as f64 >= verdict.conflict_lower_bound.unwrap());
    assert_eq!(outcome.double_vote_epochs, 0);
}

#[test]
fn bouncing_churn_walk_is_never_an_unexpected_violation() {
    let mut case = hand_case(PartitionTimeline::two_branch_churn(0.5), 0.33, 384);
    case.adversary = Adversary::Strategy(StrategyKind::ThresholdSeeker);
    case.n = 512; // deep-leak churn fragments toward O(n) cohorts: keep the walk small
    let outcome = run_case(&case, BackendKind::Cohort);
    let verdict = classify(&case, &outcome, &OracleParams::default());
    assert!(
        !verdict.unexpected(),
        "{}: {}",
        verdict.verdict,
        verdict.detail
    );
}

#[test]
fn threshold_seeker_stall_is_expected() {
    let mut case = hand_case(PartitionTimeline::two_branch(0.5), 0.33, 512);
    case.adversary = Adversary::Strategy(StrategyKind::ThresholdSeeker);
    let outcome = run_case(&case, BackendKind::Cohort);
    let verdict = classify(&case, &outcome, &OracleParams::default());
    // q = 0.5·0.67 = 0.335 ≤ 2β₀ = 0.66: the adversary may block forever.
    assert_eq!(verdict.verdict, "expected-stall", "{}", verdict.detail);
}

// ─── Campaigns ──────────────────────────────────────────────────────────

#[test]
fn smoke_campaign_classifies_every_case_with_no_unexpected_violations() {
    let report = test_spec().run();
    assert_eq!(report.rows.len(), 12);
    assert_eq!(report.counts.unexpected, 0, "{}", report.render_text());
    assert!(report.violations.is_empty());
    assert!(report.counts.crosschecked >= 1);
    let classified =
        report.counts.healthy + report.counts.expected_conflict + report.counts.expected_stall;
    assert_eq!(classified, 12, "every sampled run must be classified");
    assert!(report.render_text().contains("no unexpected violations"));
}

#[test]
fn campaign_report_is_thread_invariant() {
    let mut spec = test_spec();
    spec.budget = 6;
    spec.max_epochs = 768;
    let one = spec.run().to_json();
    spec.threads = 4;
    let four = spec.run().to_json();
    assert_eq!(one, four);
}

/// The shape of the benchmark's chaos campaigns (budget 16, 128-epoch
/// caps) at population `n`.
fn ledger_spec(seed: u64, n: usize, threads: usize) -> ChaosSpec {
    ChaosSpec {
        budget: 16,
        seed,
        n,
        max_epochs: 128,
        threads,
        ..ChaosSpec::default()
    }
}

/// The pool claims cases longest-predicted-first, yet every result lands
/// at its case index: the report and stats equal a plain index-order
/// evaluation of the same cases at any thread count.
#[test]
fn cost_ordered_campaign_equals_index_order_evaluation() {
    for seed in 1..=4 {
        let spec = ledger_spec(seed, 2_000, 1);
        let cases: Vec<ChaosCase> = (0..spec.budget).map(|i| sample_case(&spec, i)).collect();
        let identity: Vec<usize> = (0..cases.len()).collect();
        assert_ne!(spec.claim_order(&cases), identity, "seed {seed}");
        let in_index_order = cases.iter().map(|c| evaluate_case(&spec, c)).collect();
        let (report, stats) = spec.assemble(&cases, in_index_order);
        for threads in [1, 2, 3] {
            let (ordered, ordered_stats) = ChaosSpec {
                threads,
                ..spec.clone()
            }
            .run_with_stats();
            assert_eq!(
                ordered.to_json(),
                report.to_json(),
                "seed {seed}, threads {threads}"
            );
            assert_eq!(ordered_stats, stats, "seed {seed}, threads {threads}");
        }
    }
}

/// A campaign's work counters are its sampled cases' runs and nothing
/// else: the cross-check replicas (budget 20 crosses the every-16
/// cadence, so at least one runs) never enter [`ChaosStats`].
#[test]
fn campaign_stats_count_only_the_sampled_runs() {
    let spec = ChaosSpec {
        budget: 20,
        ..ledger_spec(9, 2_000, 2)
    };
    let (report, stats) = spec.run_with_stats();
    assert!(report.counts.crosschecked >= 1, "no cross-check ran");
    let (mut fork, mut churn) = (ForkStats::default(), ChurnStats::default());
    for index in 0..spec.budget {
        let (_, f, c) = run_case_with_stats(&sample_case(&spec, index), spec.backend);
        fork.absorb(&f);
        churn.absorb(&c);
    }
    assert!(fork.forks > 0, "no case forked");
    assert_eq!(stats.fork, fork);
    assert_eq!(stats.churn, churn);
}

/// The cost model against the work the benchmark's four campaigns really
/// do, counted (never timed): every churn case is claimed before every
/// churn-free one, and the case with the most work — churn count draws
/// plus branch-epochs run — is among the first two claims, so on two
/// threads it starts at once.
#[test]
fn claim_order_starts_churn_and_the_heaviest_case_first() {
    for seed in 1..=4 {
        let spec = ledger_spec(seed, 10_000, 2);
        let cases: Vec<ChaosCase> = (0..spec.budget).map(|i| sample_case(&spec, i)).collect();
        let order = spec.claim_order(&cases);
        let churn: Vec<bool> = order.iter().map(|&i| cases[i].has_churn()).collect();
        assert!(churn.contains(&true), "seed {seed}: no churn case");
        assert!(
            churn.windows(2).all(|w| w[0] >= w[1]),
            "seed {seed}: a churn-free case is claimed before a churn case: {order:?}"
        );
        let work = ChunkPool::new(spec.threads).map(cases.len(), |i| {
            let (row, _, churn) = evaluate_case(&spec, &cases[i]);
            churn.draws + branch_epochs(&compile_case(&cases[i]), row.epochs_run)
        });
        let heaviest = (0..work.len()).max_by_key(|&i| work[i]).expect("cases");
        assert!(
            order[..2].contains(&heaviest),
            "seed {seed}: case {heaviest} does the most work ({}) but is claimed at {:?}",
            work[heaviest],
            order.iter().position(|&i| i == heaviest)
        );
    }
}

#[test]
fn injected_grace_bug_is_caught_and_shrunk_end_to_end() {
    // Tighten the liveness grace to zero: the supermajority branch's
    // normal ~2-epoch finalization latency now "violates" its bound.
    let oracle = OracleParams {
        grace: 0.0,
        ..OracleParams::default()
    };
    let timeline =
        PartitionTimeline::two_branch(0.8).heal(1500, BranchId::GENESIS, &[BranchId::new(1)]);
    let original = hand_case(timeline, 0.1, 2048);
    let outcome = run_case(&original, BackendKind::Cohort);
    let verdict = classify(&original, &outcome, &oracle);
    assert_eq!(verdict.verdict, "unexpected-liveness", "{}", verdict.detail);
    let result = shrink::shrink_case(
        &original,
        &mut |c| {
            classify(c, &run_case(c, BackendKind::Cohort), &oracle).verdict == "unexpected-liveness"
        },
        shrink::DEFAULT_STEP_BUDGET,
    );
    assert!(
        result.case.size() < original.size(),
        "{} vs {}",
        result.case.size(),
        original.size()
    );
    // The decoy heal is dropped and the horizon collapses to the floor.
    assert_eq!(result.case.timeline.events.len(), 1);
    assert_eq!(result.case.max_epochs, 8);
    // The minimized case still violates under the injected oracle but is
    // clean under the real one.
    let shrunk_outcome = run_case(&result.case, BackendKind::Cohort);
    assert_eq!(
        classify(&result.case, &shrunk_outcome, &oracle).verdict,
        "unexpected-liveness"
    );
    assert!(!classify(&result.case, &shrunk_outcome, &OracleParams::default()).unexpected());
}

#[test]
fn crosscheck_divergence_is_silent_on_the_healthy_engine() {
    let case = hand_case(PartitionTimeline::two_branch(0.5), 0.33, 512);
    assert_eq!(
        crosscheck_divergence(&case, &CrosscheckParams::default()),
        None
    );
}

#[test]
fn report_table_and_json_carry_the_tally() {
    let mut spec = test_spec();
    spec.budget = 4;
    spec.max_epochs = 512;
    let report = spec.run();
    let text = report.table().render_text();
    assert!(text.contains("Chaos campaign"));
    let json = report.to_json();
    let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        doc.get("budget").and_then(serde_json::Value::as_u64),
        Some(4)
    );
    assert_eq!(
        doc.get("rows")
            .and_then(serde_json::Value::as_array)
            .map(Vec::len),
        Some(4)
    );
}

#[test]
fn case_size_orders_structural_complexity_first() {
    let small = hand_case(PartitionTimeline::two_branch(0.5), 0.2, 8);
    let more_events = hand_case(
        PartitionTimeline::two_branch(0.5).heal(50, BranchId::GENESIS, &[BranchId::new(1)]),
        0.2,
        8,
    );
    assert!(more_events.size() > small.size());
    let longer = hand_case(PartitionTimeline::two_branch(0.5), 0.2, 4096);
    // One extra event outweighs any horizon the sampler can draw.
    assert!(more_events.size() > longer.size() - 4096 + 8);
    let mut genome = small.clone();
    genome.adversary = Adversary::Genome(Genome::SEMI_ACTIVE);
    assert!(genome.size() > small.size());
}

#[test]
fn has_churn_detects_churn_splits() {
    let pinned = hand_case(PartitionTimeline::two_branch(0.5), 0.2, 8);
    assert!(!pinned.has_churn());
    let churned = hand_case(PartitionTimeline::two_branch_churn(0.5), 0.2, 8);
    assert!(churned.has_churn());
    assert!(churned
        .timeline
        .events
        .iter()
        .any(|TimelineEvent { action, .. }| {
            matches!(
                action,
                ethpos_sim::TimelineAction::Split { churn: true, .. }
            )
        }));
}
