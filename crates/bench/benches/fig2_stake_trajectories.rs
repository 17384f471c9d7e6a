//! Figure 2 — stake trajectories during an inactivity leak.
//!
//! Regenerates the analytic curves (paper §4.3) and the discrete
//! spec-arithmetic trajectories, then benchmarks both generators.

use criterion::{criterion_group, criterion_main, Criterion};
use ethpos_bench::print_experiment;
use ethpos_core::experiments::{simulated, Experiment};
use ethpos_state::BackendKind;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    print_experiment(Experiment::Fig2StakeTrajectories);
    eprintln!(
        "{}",
        simulated::fig2_discrete_at(8000, 10, BackendKind::Dense).render_text()
    );

    c.bench_function("fig2/analytic_curves", |b| {
        b.iter(|| {
            black_box(ethpos_core::experiments::run_experiment(
                Experiment::Fig2StakeTrajectories,
            ))
        })
    });
    let mut g = c.benchmark_group("fig2/discrete");
    g.sample_size(10);
    g.bench_function("simulate_8000_epochs", |b| {
        b.iter(|| black_box(simulated::fig2_discrete_at(8000, 10, BackendKind::Dense)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
