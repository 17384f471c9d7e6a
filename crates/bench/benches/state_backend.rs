//! Dense vs cohort epoch throughput across registry sizes.
//!
//! The cohort-compressed backend promises the *same results* as the
//! dense per-validator state in O(#cohorts) instead of O(n) per epoch.
//! This bench first **verifies** snapshot equality on the benched
//! schedule (like `mc_throughput` verifies bit-identity before timing),
//! then times full epoch processing — participation marking + the eight
//! spec epoch steps — on both backends at n = 10³ … 10⁶.
//!
//! The workload is the Figure 2 cohort mix (10% active, 10% semi-active,
//! 80% inactive) under the paper configuration: a persistent inactivity
//! leak, the arithmetic-heaviest regime.
//!
//! A second, **fragmented** case churns the large class by per-cohort
//! binomial counts (the §5.3 regime): cohorts split every epoch, so the
//! cohort backend pays its linear marking pass, aggregate walk, member
//! map and keyed re-sort on ~one cohort per member. Its equality gate is
//! the clone-based `ReferenceCohortState`, which consumes the same draw
//! stream (the dense backend draws per member — equal in law only).

use criterion::{criterion_group, criterion_main, Criterion};
use ethpos_sim::{run_single_branch_on, Behavior};
use ethpos_state::backend::{ClassSpec, StateBackend, StateSnapshot};
use ethpos_state::{CohortState, DenseState, ParticipationFlags, ReferenceCohortState};
use ethpos_stats::{seeded_rng, PreparedBinomial};
use ethpos_types::ChainConfig;
use std::hint::black_box;

const EPOCHS: u64 = 32;
/// Horizon of the fragmented case: deep enough into the leak that the
/// churned class holds a cohort for most of its members.
const FRAGMENTED_EPOCHS: u64 = 96;

fn classes(n: u64) -> [(Behavior, u64); 3] {
    [
        (Behavior::Active, n / 10),
        (Behavior::SemiActive, n / 10),
        (Behavior::Inactive, n - 2 * (n / 10)),
    ]
}

fn run<B: StateBackend>(n: u64) -> Vec<u64> {
    run_single_branch_on::<B>(ChainConfig::paper(), &classes(n), EPOCHS)
        .into_iter()
        .map(|t| *t.balance_gwei.last().unwrap())
        .collect()
}

/// A leak in which a pinned fifth attests every epoch and the rest
/// churn at p = 0.5 by count draws off one seeded stream.
fn run_fragmented<B: StateBackend>(n: u64, epochs: u64) -> StateSnapshot {
    let config = ChainConfig::paper();
    let classes = [
        ClassSpec::full_stake(n / 5, &config),
        ClassSpec::full_stake(n - n / 5, &config),
    ];
    let mut state = B::from_classes(config, &classes);
    let law = PreparedBinomial::new(0.5);
    let mut rng = seeded_rng(7);
    for _ in 0..epochs {
        state.mark_class(0, ParticipationFlags::all());
        state.mark_class_counted(1, ParticipationFlags::all(), &mut |count| {
            law.sample(count, &mut rng)
        });
        state.advance_epoch(None);
    }
    state.snapshot()
}

fn bench(c: &mut Criterion) {
    // Equality gate: the benched schedule must produce identical final
    // balances (snapshot equality is covered exhaustively by the
    // `backend_equivalence` property tests).
    let dense = run::<DenseState>(10_000);
    let cohort = run::<CohortState>(10_000);
    assert_eq!(dense, cohort, "backends diverged on the benched schedule");

    // Equality gate of the fragmented case, at a size whose chunk
    // crosses the key-sort threshold: exact ≡ reference, byte for byte.
    let exact = run_fragmented::<CohortState>(2_000, FRAGMENTED_EPOCHS);
    let reference = run_fragmented::<ReferenceCohortState>(2_000, FRAGMENTED_EPOCHS);
    assert_eq!(
        exact, reference,
        "cohort backends diverged on the fragmented schedule"
    );
    assert!(exact.classes[1].len() > 256, "the gate never fragmented");
    let name = format!("state_backend/fragmented_{FRAGMENTED_EPOCHS}e_n30000");
    let mut g = c.benchmark_group(&name);
    g.sample_size(10);
    g.bench_function("cohort", |b| {
        b.iter(|| black_box(run_fragmented::<CohortState>(30_000, FRAGMENTED_EPOCHS)))
    });
    g.finish();

    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        let name = format!("state_backend/fig2_mix_{EPOCHS}e_n{n}");
        let mut g = c.benchmark_group(&name);
        g.sample_size(10);
        g.bench_function("dense", |b| b.iter(|| black_box(run::<DenseState>(n))));
        g.bench_function("cohort", |b| b.iter(|| black_box(run::<CohortState>(n))));
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
