//! Per-layer probes: each layer measured from outside by timing calls
//! into its public API. Layers are the crate names. The probes run only
//! in a traced run, after the workload's own rounds, and never feed an
//! end-to-end number.
//!
//! Not probed: `forkchoice`, `network`, `validator` duties and
//! `sim::engine` (`SlotSim`) — no `JobRequest` kind reaches them, so no
//! workload could confirm what a probe of them claims.

use std::hint::black_box;
use std::time::Instant;

use ethpos_core::chaos::{run_case_with_stats, sample_case};
use ethpos_core::experiments::{run_experiment_with, Experiment, McConfig};
use ethpos_core::partition::{three_branch, StrategyKind};
use ethpos_core::{JobOutput, JobRequest, ARTIFACT_SALT};
use ethpos_server::ArtifactCache;
use ethpos_sim::{
    run_bouncing_walks, run_single_branch_on, run_two_branch_walks, Behavior, BouncingWalkConfig,
    PartitionConfig, PartitionSim, PartitionTimeline, TwoBranchWalkConfig,
};
use ethpos_state::participation::{
    TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};
use ethpos_state::{ClassSpec, CohortState, DenseState, ParticipationFlags, StateBackend};
use ethpos_stats::{Binomial, SeedSequence};
use ethpos_types::ChainConfig;
use rand::RngCore;

use crate::client;
use crate::machine;
use crate::paths::ScratchDir;
use crate::requests::{self, Op};
use crate::spans::Recorder;
use crate::stats::{last_decile_mean, median, percentile};
use crate::workloads::{execute_direct, submit_and_poll, LiveServer, ENGINE_THREADS};

/// One measured value and the number of timings behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Catalog name.
    pub name: String,
    /// The value, in the catalog's unit.
    pub value: f64,
    /// Timings (or exact counts) the value summarizes; `0` marks a
    /// metric that could not be measured on this machine.
    pub samples: u64,
}

/// The probe results, in the order they were taken.
#[derive(Debug, Default)]
pub struct Samples(pub Vec<Sample>);

impl Samples {
    /// Records one value.
    pub fn push(&mut self, name: &str, value: f64, samples: u64) {
        self.0.push(Sample {
            name: name.to_string(),
            value,
            samples,
        });
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn all_flags() -> ParticipationFlags {
    let mut flags = ParticipationFlags::EMPTY;
    flags.set(TIMELY_SOURCE_FLAG_INDEX);
    flags.set(TIMELY_TARGET_FLAG_INDEX);
    flags.set(TIMELY_HEAD_FLAG_INDEX);
    flags
}

/// `core.parse_us`, `core.canonical_json_us`, `core.request_hash_us`
/// and `crypto.hash_ns_per_byte` over the bodies a round of the
/// workload submits.
pub fn request_path(bodies: &[String], out: &mut Samples) {
    const PASSES: usize = 50;
    let (mut parse, mut canonical, mut hash) = (Vec::new(), Vec::new(), Vec::new());
    let mut payloads = Vec::new();
    for pass in 0..PASSES {
        for body in bodies {
            let started = Instant::now();
            let request = JobRequest::parse(black_box(body));
            parse.push(started.elapsed().as_secs_f64() * 1e6);
            let Ok(request) = request else { continue };
            let started = Instant::now();
            let json = black_box(request.canonical_json());
            canonical.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            black_box(request.request_hash());
            hash.push(started.elapsed().as_secs_f64() * 1e6);
            if pass == 0 {
                payloads.push(format!("{ARTIFACT_SALT}\n{json}"));
            }
        }
    }
    out.push("core.parse_us", median(&parse), parse.len() as u64);
    out.push(
        "core.canonical_json_us",
        median(&canonical),
        canonical.len() as u64,
    );
    out.push("core.request_hash_us", median(&hash), hash.len() as u64);

    const HASH_PASSES: usize = 2000;
    let bytes: usize = payloads.iter().map(String::len).sum();
    let spent = secs(|| {
        for _ in 0..HASH_PASSES {
            for payload in &payloads {
                black_box(ethpos_crypto::hash(black_box(payload.as_bytes())));
            }
        }
    });
    let hashed = (bytes * HASH_PASSES).max(1);
    out.push(
        "crypto.hash_ns_per_byte",
        spent * 1e9 / hashed as f64,
        (payloads.len() * HASH_PASSES) as u64,
    );
}

/// `core.render_ms_per_mb`, `core.closed_form_ms`,
/// `core.sweep_ms_per_point`.
pub fn core_documents(seed: u64, out: &mut Samples) {
    let mc = McConfig {
        threads: ENGINE_THREADS,
        validators: Some(1_000_000),
        ..McConfig::default()
    };
    let mut render_ms_per_mb = Vec::new();
    for _ in 0..5 {
        let output = run_experiment_with(Experiment::Fig2StakeTrajectories, &mc);
        let started = Instant::now();
        let json = black_box(output.to_json());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        render_ms_per_mb.push(ms / (json.len() as f64 / (1u64 << 20) as f64));
    }
    out.push(
        "core.render_ms_per_mb",
        median(&render_ms_per_mb),
        render_ms_per_mb.len() as u64,
    );

    let closed = requests::closed_forms(seed).op();
    let mut off = Recorder::new(false);
    let closed_ms: Vec<f64> = (0..7)
        .map(|_| secs(|| drop(black_box(execute_direct(&closed, 0, &mut off)))) * 1e3)
        .collect();
    out.push(
        "core.closed_form_ms",
        median(&closed_ms),
        closed_ms.len() as u64,
    );

    let sweep = requests::bouncing_mc(seed)
        .iter()
        .map(requests::Template::op)
        .find_map(|op| match JobRequest::parse(&op.body) {
            Ok(JobRequest::Sweep { mut spec, .. }) => {
                spec.threads = ENGINE_THREADS;
                Some(spec)
            }
            _ => None,
        })
        .expect("bouncing_mc submits a sweep");
    let spent = secs(|| drop(black_box(sweep.run())));
    out.push(
        "core.sweep_ms_per_point",
        spent * 1e3 / sweep.len().max(1) as f64,
        sweep.len() as u64,
    );
}

/// `core.chaos_cases_per_s`, `core.chaos_slowest_case_share`,
/// `core.chaos_churn_case_share`: every case of the `chaos_campaign`
/// round, sampled and run singly on this thread.
pub fn chaos_cases(seed: u64, out: &mut Samples) {
    let (mut total, mut slowest, mut churn, mut cases) = (0.0f64, 0.0f64, 0.0f64, 0u64);
    for template in requests::chaos_campaign(seed) {
        let Ok(JobRequest::Chaos { spec, .. }) = JobRequest::parse(&template.op().body) else {
            continue;
        };
        for index in 0..spec.budget {
            let started = Instant::now();
            let case = sample_case(&spec, index);
            black_box(run_case_with_stats(&case, spec.backend));
            let spent = started.elapsed().as_secs_f64();
            total += spent;
            slowest = slowest.max(spent);
            if case.has_churn() {
                churn += spent;
            }
            cases += 1;
        }
    }
    let total = total.max(f64::MIN_POSITIVE);
    out.push("core.chaos_cases_per_s", cases as f64 / total, cases);
    out.push("core.chaos_slowest_case_share", slowest / total, cases);
    out.push("core.chaos_churn_case_share", churn / total, cases);
}

/// `stats.binv_ns_per_draw` (n·p = 2), `stats.btpe_ns_per_draw`
/// (n·p = 5000), `stats.rng_ns_per_u64`.
pub fn stats_samplers(seed: u64, out: &mut Samples) {
    const DRAWS: u64 = 1_000_000;
    let sequence = SeedSequence::new(seed);
    for (name, law) in [
        ("stats.binv_ns_per_draw", Binomial::new(4, 0.5)),
        ("stats.btpe_ns_per_draw", Binomial::new(10_000, 0.5)),
    ] {
        let mut rng = sequence.child_rng(0);
        let spent = secs(|| {
            let mut sum = 0u64;
            for _ in 0..DRAWS {
                sum = sum.wrapping_add(law.sample(&mut rng));
            }
            black_box(sum);
        });
        out.push(name, spent * 1e9 / DRAWS as f64, DRAWS);
    }
    let mut rng = sequence.child_rng(1);
    let words = 10 * DRAWS;
    let spent = secs(|| {
        let mut sum = 0u64;
        for _ in 0..words {
            sum = sum.wrapping_add(rng.next_u64());
        }
        black_box(sum);
    });
    out.push("stats.rng_ns_per_u64", spent * 1e9 / words as f64, words);
}

/// `state.cohort_compact_ns_per_epoch`, `state.fork_clone_us`,
/// `state.dense_ns_per_validator_epoch`: the state layer where cohorts
/// stay compact, and the dense reference.
pub fn state_compact(out: &mut Samples) {
    let flags = all_flags();
    let config = ChainConfig::paper();
    let classes = [ClassSpec::full_stake(250_000, &config); 4];
    let mut state = CohortState::from_classes(config.clone(), &classes);
    const EPOCHS: u64 = 4096;
    let spent = secs(|| {
        for _ in 0..EPOCHS {
            // Two of four classes attest: below ⅔, so the leak runs.
            state.mark_class(0, flags);
            state.mark_class(1, flags);
            state.advance_epoch(None);
        }
    });
    out.push(
        "state.cohort_compact_ns_per_epoch",
        spent * 1e9 / EPOCHS as f64,
        EPOCHS,
    );

    let clone_us: Vec<f64> = (0..2000)
        .map(|_| {
            secs(|| {
                let mut fork = state.clone();
                fork.mark_class(0, flags);
                black_box(fork);
            }) * 1e6
        })
        .collect();
    out.push(
        "state.fork_clone_us",
        median(&clone_us),
        clone_us.len() as u64,
    );

    const DENSE_N: u64 = 16_384;
    const DENSE_EPOCHS: u64 = 64;
    let classes = [ClassSpec::full_stake(DENSE_N / 4, &config); 4];
    let mut dense = DenseState::from_classes(config, &classes);
    let spent = secs(|| {
        for _ in 0..DENSE_EPOCHS {
            dense.mark_class(0, flags);
            dense.mark_class(1, flags);
            dense.advance_epoch(None);
        }
    });
    out.push(
        "state.dense_ns_per_validator_epoch",
        spent * 1e9 / (DENSE_N * DENSE_EPOCHS) as f64,
        DENSE_EPOCHS,
    );
}

/// What stepping one churn partition showed.
#[derive(Debug, Default)]
struct ChurnProbe {
    step_us: Vec<f64>,
    /// Probed `advance_epoch` nanoseconds and the cohorts they covered.
    advance_ns: f64,
    mark_ns: f64,
    probed_cohorts: u64,
    /// Step time and probed state time at the sampled epochs.
    sampled_step_ns: f64,
    sampled_state_ns: f64,
    cohorts_peak: u64,
    cohorts_final: u64,
    draws: u64,
    members: u64,
}

/// Steps the 50/50 churn partition epoch by epoch; every
/// `sample_every`-th epoch, re-times `mark_class_counted` (sampler
/// `c/2`) and `advance_epoch` on a clone of each live branch.
fn step_churn_partition(n: usize, epochs: u64, sample_every: u64, seed: u64) -> ChurnProbe {
    let flags = all_flags();
    let timeline = PartitionTimeline::parse("churn@0:0=0.5,0.5").expect("churn timeline parses");
    let byzantine = (requests::CHURN_BETA0 * n as f64).round() as usize;
    let mut config = PartitionConfig::paper(n, byzantine, timeline, epochs);
    config.seed = seed;
    config.record_every = u64::MAX;
    let mut sim =
        PartitionSim::<CohortState>::with_backend(config, StrategyKind::RotateDwell.build())
            .expect("churn timeline compiles");
    let mut probe = ChurnProbe::default();
    loop {
        let epoch = sim.current_epoch();
        let started = Instant::now();
        let alive = sim.step();
        let step_ns = started.elapsed().as_nanos() as f64;
        if !alive {
            break;
        }
        probe.step_us.push(step_ns / 1e3);
        let sampled = epoch % sample_every == sample_every - 1;
        let mut cohorts_now = 0;
        for branch in sim.live_branches() {
            let state = sim.branch(branch);
            let cohorts = state.fragmentation().map_or(0, |f| f.cohorts);
            cohorts_now = cohorts_now.max(cohorts);
            if !sampled {
                continue;
            }
            let mut fork = state.clone();
            let started = Instant::now();
            for class in 1..fork.num_classes() {
                fork.mark_class_counted(class, flags, &mut |count| count / 2);
            }
            let mark_ns = started.elapsed().as_nanos() as f64;
            let started = Instant::now();
            fork.advance_epoch(None);
            let advance_ns = started.elapsed().as_nanos() as f64;
            black_box(fork);
            probe.mark_ns += mark_ns;
            probe.advance_ns += advance_ns;
            probe.probed_cohorts += cohorts;
            probe.sampled_state_ns += mark_ns + advance_ns;
        }
        if sampled {
            probe.sampled_step_ns += step_ns;
        }
        probe.cohorts_peak = probe.cohorts_peak.max(cohorts_now);
        probe.cohorts_final = cohorts_now;
    }
    let churn = sim.churn_stats();
    probe.draws = churn.draws;
    probe.members = churn.members;
    probe
}

/// Validators of the beyond-the-last-level-cache fragmentation probe.
const FRAG_1M_VALIDATORS: usize = 1_000_000;
/// Its horizon: long enough to fragment past 10⁵ cohorts per branch
/// (a working set beyond the last-level cache), short enough for every
/// traced run.
const FRAG_1M_EPOCHS: u64 = 56;

/// The fragmentation floor, from inside the `churn_leak` simulation:
/// `state.cohort_frag_*`, `state.mark_counted_ns_per_cohort`,
/// `state.cohorts_*`, `sim.step_*`, `sim.churn_draws_per_member`.
pub fn churn_floor(seed: u64, out: &mut Samples) {
    let n = requests::CHURN_VALIDATORS as usize;
    let probe = step_churn_partition(n, requests::CHURN_EPOCHS, 16, seed);
    let cohorts = probe.probed_cohorts.max(1) as f64;
    out.push(
        "state.cohort_frag_ns_per_cohort_epoch",
        probe.advance_ns / cohorts,
        probe.probed_cohorts,
    );
    out.push(
        "state.mark_counted_ns_per_cohort",
        probe.mark_ns / cohorts,
        probe.probed_cohorts,
    );
    out.push("state.cohorts_peak", probe.cohorts_peak as f64, 1);
    out.push(
        "state.cohorts_per_member_final",
        probe.cohorts_final as f64 / n as f64,
        1,
    );
    let steps = probe.step_us.len() as u64;
    out.push("sim.step_us_p50", median(&probe.step_us), steps);
    out.push(
        "sim.step_us_last_decile",
        last_decile_mean(&probe.step_us),
        (steps / 10).max(1),
    );
    let self_share = if probe.sampled_step_ns > 0.0 {
        (1.0 - probe.sampled_state_ns / probe.sampled_step_ns).max(0.0)
    } else {
        0.0
    };
    out.push("sim.step_self_share", self_share, steps / 16);
    out.push(
        "sim.churn_draws_per_member",
        probe.draws as f64 / probe.members.max(1) as f64,
        probe.draws,
    );

    let big = step_churn_partition(FRAG_1M_VALIDATORS, FRAG_1M_EPOCHS, 8, seed);
    out.push(
        "state.cohort_frag_ns_per_cohort_epoch_1m",
        big.advance_ns / big.probed_cohorts.max(1) as f64,
        big.probed_cohorts,
    );
}

/// `sim.single_branch_ns_per_epoch`, `sim.timeline_compile_us`,
/// `sim.walk_*`, `sim.pool_speedup_t2`, `sim.pool_cpu_ratio_t2`.
pub fn sim_engines(seed: u64, out: &mut Samples) {
    const EPOCHS: u64 = 4096;
    let classes = [
        (Behavior::Active, 100_000),
        (Behavior::SemiActive, 100_000),
        (Behavior::Inactive, 800_000),
    ];
    let spent = secs(|| {
        black_box(run_single_branch_on::<CohortState>(
            ChainConfig::paper(),
            &classes,
            EPOCHS,
        ));
    });
    out.push(
        "sim.single_branch_ns_per_epoch",
        spent * 1e9 / EPOCHS as f64,
        EPOCHS,
    );

    let spec = three_branch().timeline.render();
    let compile_us: Vec<f64> = (0..2000)
        .map(|_| {
            secs(|| {
                let timeline = PartitionTimeline::parse(black_box(&spec)).expect("preset parses");
                black_box(timeline.compile(1_000_000).expect("preset compiles"));
            }) * 1e6
        })
        .collect();
    out.push(
        "sim.timeline_compile_us",
        median(&compile_us),
        compile_us.len() as u64,
    );

    let walk = |walkers: usize, threads: usize| {
        let config = BouncingWalkConfig {
            walkers,
            seed,
            threads,
            ..BouncingWalkConfig::default()
        };
        let spent = secs(|| drop(black_box(run_bouncing_walks(&config))));
        (spent, walkers as u64 * config.epochs)
    };
    let (spent, walker_epochs) = walk(2000, 1);
    out.push(
        "sim.walk_ns_per_walker_epoch",
        spent * 1e9 / walker_epochs as f64,
        walker_epochs,
    );
    let config = TwoBranchWalkConfig {
        walkers: 2000,
        seed,
        threads: 1,
        ..TwoBranchWalkConfig::default()
    };
    let spent = secs(|| {
        black_box(run_two_branch_walks(&config));
    });
    let walker_epochs = config.walkers as u64 * config.epochs;
    out.push(
        "sim.two_branch_walk_ns_per_walker_epoch",
        spent * 1e9 / walker_epochs as f64,
        walker_epochs,
    );

    // Thread scaling is a measurement only where there is a second
    // core to scale onto; elsewhere it is reported as unmeasured
    // (samples = 0), never as a number.
    if machine::nproc() >= 2 {
        let timed = |threads: usize| {
            let cpu_before = machine::process_cpu_seconds();
            let (wall, _) = walk(10_000, threads);
            (wall, machine::process_cpu_seconds() - cpu_before)
        };
        let ((wall_1, cpu_1), (wall_2, cpu_2)) = (timed(1), timed(2));
        out.push(
            "sim.pool_speedup_t2",
            wall_1 / wall_2.max(f64::MIN_POSITIVE),
            2,
        );
        out.push(
            "sim.pool_cpu_ratio_t2",
            cpu_2 / cpu_1.max(f64::MIN_POSITIVE),
            2,
        );
    } else {
        out.push("sim.pool_speedup_t2", 0.0, 0);
        out.push("sim.pool_cpu_ratio_t2", 0.0, 0);
    }
}

/// `search.us_per_candidate.*`, `search.memoized_fraction`,
/// `search.pair_epochs_per_candidate` over the `search_frontier` specs.
pub fn search_objectives(seed: u64, out: &mut Samples) {
    let (mut evaluations, mut memoized, mut pair_epochs) = (0u64, 0u64, 0u64);
    for (template, name) in requests::search_frontier(seed).iter().zip([
        "search.us_per_candidate.nsh",
        "search.us_per_candidate.conflict",
        "search.us_per_candidate.proportion",
    ]) {
        let Ok(JobRequest::Search { mut spec, .. }) = JobRequest::parse(&template.op().body) else {
            continue;
        };
        spec.threads = ENGINE_THREADS;
        let started = Instant::now();
        let (_, stats) = black_box(spec.run_with_stats());
        let spent = started.elapsed().as_secs_f64();
        out.push(
            name,
            spent * 1e6 / stats.evaluations.max(1) as f64,
            stats.evaluations,
        );
        evaluations += stats.evaluations;
        memoized += stats.reconstructed + stats.checkpoint_hits;
        pair_epochs += stats.pair_epochs;
    }
    let candidates = evaluations.max(1) as f64;
    out.push(
        "search.memoized_fraction",
        memoized as f64 / candidates,
        evaluations,
    );
    out.push(
        "search.pair_epochs_per_candidate",
        pair_epochs as f64 / candidates,
        evaluations,
    );
}

/// Hits of the server probe's latency sample (10 % large, like a
/// `server_hit` round).
const PROBE_HITS: usize = 3000;

/// The `server.*` metrics: per-route client timings against a live
/// server, and `ArtifactCache` called directly.
pub fn server_routes(seed: u64, out: &mut Samples) {
    let artifacts = requests::hit_artifacts(seed);
    let ops: Vec<Op> = artifacts.iter().map(requests::Template::op).collect();
    let large = ops.len() - 1;
    let mut off = Recorder::new(false);
    let mut outputs: Vec<JobOutput> = Vec::new();
    let server = LiveServer::start(|cache| {
        for op in &ops {
            let (address, output) = execute_direct(op, 0, &mut off).expect("artifact executes");
            cache.store(&address, &output).expect("prefill commit");
            outputs.push(output);
        }
    });
    let addr = server.addr;
    let timed_us = |f: &mut dyn FnMut() -> bool| -> Option<f64> {
        let started = Instant::now();
        f().then(|| started.elapsed().as_secs_f64() * 1e6)
    };

    let healthz: Vec<f64> = (0..300)
        .filter_map(|_| {
            timed_us(&mut || client::get(addr, "/healthz").is_ok_and(|r| r.status == 200))
        })
        .collect();
    out.push(
        "server.healthz_us_p50",
        median(&healthz),
        healthz.len() as u64,
    );

    let (mut small_us, mut large_us) = (Vec::new(), Vec::new());
    for hit in requests::hit_round(seed, 0, ops.len())
        .into_iter()
        .cycle()
        .take(PROBE_HITS)
    {
        let body = &ops[hit.artifact].body;
        let Some(us) =
            timed_us(&mut || client::post(addr, "/v1/jobs", body).is_ok_and(|r| r.status == 200))
        else {
            continue;
        };
        if hit.artifact == large {
            large_us.push(us);
        } else {
            small_us.push(us);
        }
    }
    let large_kib = outputs[large].document.len() as f64 / 1024.0;
    out.push(
        "server.hit_small_us_p50",
        median(&small_us),
        small_us.len() as u64,
    );
    out.push(
        "server.hit_large_us_p50",
        median(&large_us),
        large_us.len() as u64,
    );
    out.push(
        "server.hit_large_us_per_kb",
        median(&large_us) / large_kib,
        large_us.len() as u64,
    );
    let all_us: Vec<f64> = small_us.iter().chain(&large_us).copied().collect();
    out.push(
        "server.hit_us_p99",
        percentile(&all_us, 99.0),
        all_us.len() as u64,
    );

    let scrape_ms: Vec<f64> = (0..30)
        .filter_map(|_| {
            timed_us(&mut || client::get(addr, "/metrics").is_ok_and(|r| r.status == 200))
        })
        .map(|us| us / 1e3)
        .collect();
    out.push(
        "server.metrics_scrape_ms_p50",
        median(&scrape_ms),
        scrape_ms.len() as u64,
    );

    // Misses: the `paper_1m` partition request under never-seen seeds,
    // next to the direct execute of the same body.
    let misses: Vec<Op> = requests::miss_round(seed, u64::from(u32::MAX))
        .into_iter()
        .filter(|op| op.label == "miss_partition")
        .take(8)
        .collect();
    let (mut miss_ms, mut direct_ms) = (Vec::new(), Vec::new());
    let (mut polls, mut rejected) = (0u64, 0u64);
    for op in &misses {
        let started = Instant::now();
        let outcome = submit_and_poll(addr, &op.body, 0, &mut off);
        miss_ms.push(started.elapsed().as_secs_f64() * 1e3);
        polls += outcome.polls;
        rejected += u64::from(outcome.document.is_err());
        direct_ms.push(secs(|| drop(black_box(execute_direct(op, 0, &mut off)))) * 1e3);
    }
    out.push(
        "core.partition_1m_ms",
        median(&direct_ms),
        direct_ms.len() as u64,
    );
    out.push(
        "server.miss_overhead_ms_p50",
        median(&miss_ms) - median(&direct_ms),
        miss_ms.len() as u64,
    );
    out.push(
        "server.miss_polls_per_op",
        polls as f64 / misses.len().max(1) as f64,
        misses.len() as u64,
    );
    out.push(
        "server.rejected_share",
        rejected as f64 / misses.len().max(1) as f64,
        misses.len() as u64,
    );
    // Jobs are numbered from 1 and all of them are done by now.
    let status: Vec<f64> = (0..300)
        .filter_map(|_| {
            timed_us(&mut || client::get(addr, "/v1/jobs/1").is_ok_and(|r| r.status == 200))
        })
        .collect();
    out.push("server.status_us_p50", median(&status), status.len() as u64);

    let scratch = ScratchDir::new("cache-probe");
    let cache = ArtifactCache::open(scratch.path()).expect("open probe cache");
    let address = |i: usize| format!("{i:064x}");
    let store_ms = |output: &JobOutput, base: usize, times: usize| -> Vec<f64> {
        (0..times)
            .map(|i| secs(|| cache.store(&address(base + i), output).expect("store")) * 1e3)
            .collect()
    };
    let small_ms = store_ms(&outputs[0], 0, 50);
    let large_ms = store_ms(&outputs[large], 1000, 10);
    out.push(
        "server.cache_store_ms_small",
        median(&small_ms),
        small_ms.len() as u64,
    );
    out.push(
        "server.cache_store_ms_large",
        median(&large_ms),
        large_ms.len() as u64,
    );
    let large_mib = outputs[large].document.len() as f64 / (1u64 << 20) as f64;
    let load_us: Vec<f64> = (0..20)
        .map(|i| secs(|| drop(black_box(cache.load_document(&address(1000 + i % 10))))) * 1e6)
        .collect();
    out.push(
        "server.cache_load_us_per_mb",
        median(&load_us) / large_mib,
        load_us.len() as u64,
    );
}

/// Every workload-independent probe, server last (binding a server
/// turns the metrics registry on for the rest of the process).
pub fn run_all(seed: u64, out: &mut Samples) {
    core_documents(seed, out);
    chaos_cases(seed, out);
    stats_samplers(seed, out);
    state_compact(out);
    churn_floor(seed, out);
    sim_engines(seed, out);
    search_objectives(seed, out);
    server_routes(seed, out);
}
