//! Engine-throughput benchmarks: how fast each simulation level runs,
//! plus an ablation of the paper-vs-spec inactivity-penalty semantics.

use criterion::{criterion_group, criterion_main, Criterion};
use ethpos_sim::{
    run_single_branch_on, Behavior, PartitionConfig, PartitionSim, PartitionTimeline,
};
use ethpos_state::DenseState;
use ethpos_types::ChainConfig;
use ethpos_validator::DualActive;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Cohort engine: two branches, 600 validators, 500 epochs.
    let mut g = c.benchmark_group("engines/cohort");
    g.sample_size(10);
    g.bench_function("two_branch_600val_500epochs", |b| {
        b.iter(|| {
            let cfg = PartitionConfig {
                stop_on_conflict: false,
                record_every: u64::MAX,
                ..PartitionConfig::paper(600, 0, PartitionTimeline::two_branch(0.5), 500)
            };
            black_box(PartitionSim::new(cfg, Box::new(DualActive)).unwrap().run())
        })
    });
    g.finish();

    // Ablation: paper vs spec penalty semantics over 2000 epochs.
    // One validator per class, per-validator on the dense backend.
    let classes: Vec<(Behavior, u64)> = {
        let mut v = vec![Behavior::Active, Behavior::SemiActive, Behavior::Inactive];
        v.extend(std::iter::repeat_n(Behavior::Inactive, 7));
        v.into_iter().map(|b| (b, 1)).collect()
    };
    let paper = run_single_branch_on::<DenseState>(ChainConfig::paper(), &classes, 2000);
    let spec = {
        let cfg = ChainConfig {
            base_reward_factor: 0,
            paper_inactivity_penalties: false,
            ..ChainConfig::mainnet()
        };
        run_single_branch_on::<DenseState>(cfg, &classes, 2000)
    };
    eprintln!(
        "ablation (semi-active stake at t = 2000): paper-semantics {:.3} ETH, \
         spec-semantics {:.3} ETH, paper model 30.601 ETH",
        paper[1].balance_gwei[2000] as f64 / 1e9,
        spec[1].balance_gwei[2000] as f64 / 1e9,
    );
    let mut g = c.benchmark_group("engines/single_branch");
    g.sample_size(10);
    g.bench_function("leak_10val_2000epochs", |b| {
        b.iter(|| {
            black_box(run_single_branch_on::<DenseState>(
                ChainConfig::paper(),
                black_box(&classes),
                2000,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
