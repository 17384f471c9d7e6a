//! Monte-Carlo throughput: 1-thread vs N-thread walker sharding.
//!
//! The deterministic parallel harness (`ethpos_sim::ChunkPool` +
//! per-chunk `SeedSequence` child RNGs) promises bit-identical results
//! for any thread count; this bench measures what the extra threads buy.
//! It first *verifies* the bit-identity on both benched configurations,
//! then times `run_bouncing_walks` and `run_two_branch_walks` at one
//! worker and at one-per-hardware-thread.

use criterion::{criterion_group, criterion_main, Criterion};
use ethpos_sim::{
    run_bouncing_walks, run_two_branch_walks, BouncingWalkConfig, ChunkPool, TwoBranchWalkConfig,
};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // The same 0-means-hardware resolution the engines use.
    let n = ChunkPool::new(0).threads();

    let bouncing = |threads: usize| BouncingWalkConfig {
        walkers: 8192,
        epochs: 2000,
        record_every: 500,
        threads,
        ..BouncingWalkConfig::default()
    };
    let one = run_bouncing_walks(&bouncing(1));
    let wide = run_bouncing_walks(&bouncing(n));
    assert_eq!(
        one.final_stakes, wide.final_stakes,
        "thread count changed the Monte Carlo"
    );

    let mut g = c.benchmark_group("mc_throughput/bouncing_8192w_2000e");
    g.sample_size(10);
    g.bench_function("threads_1", |b| {
        b.iter(|| black_box(run_bouncing_walks(&bouncing(1))))
    });
    let wide_id = format!("threads_{n}");
    g.bench_function(&wide_id, |b| {
        b.iter(|| black_box(run_bouncing_walks(&bouncing(n))))
    });
    g.finish();

    let two_branch = |threads: usize| TwoBranchWalkConfig {
        walkers: 8192,
        epochs: 1500,
        threads,
        ..TwoBranchWalkConfig::default()
    };
    let (one, wide) = (
        run_two_branch_walks(&two_branch(1)),
        run_two_branch_walks(&two_branch(n)),
    );
    assert_eq!(
        (one.single_branch_breach, one.either_branch_breach),
        (wide.single_branch_breach, wide.either_branch_breach),
        "thread count changed the two-branch Monte Carlo"
    );

    let mut g = c.benchmark_group("mc_throughput/two_branch_8192w_1500e");
    g.sample_size(10);
    g.bench_function("threads_1", |b| {
        b.iter(|| black_box(run_two_branch_walks(&two_branch(1))))
    });
    g.bench_function(&wide_id, |b| {
        b.iter(|| black_box(run_two_branch_walks(&two_branch(n))))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
