//! One run of one workload in this process: set up, measure for
//! `--seconds`, verify, report.
//!
//! An untraced run produces the end-to-end metrics with the harness
//! recorder off and `ethpos_obs` off (except where `Server::bind` turns
//! the registry on itself). A traced run splits the same time between
//! untraced rounds and rounds with harness spans and the metrics
//! registry on — their difference is the tracing overhead — then runs
//! the per-layer probes; none of its numbers are end-to-end numbers.

use std::time::Instant;

use serde_json::Value;

use crate::catalog::{self, MetricSpec};
use crate::json::{object, text};
use crate::machine;
use crate::oracle::{self, Verifier};
use crate::paths;
use crate::probes::{self, Sample, Samples};
use crate::requests::DEFAULT_SEED;
use crate::spans::{self, Recorder};
use crate::stats::{median, quartiles};
use crate::workloads::{self, Session};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest rounds an untraced run measures, however slow the machine.
const MIN_ROUNDS: usize = 5;
/// Fewest rounds of each half of a traced run.
const MIN_TRACED_ROUNDS: usize = 2;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name (checked against the catalog by the caller).
    pub workload: String,
    /// The one seed every input is derived from.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Rewrite `expected/<workload>.digests` from this run instead of
    /// checking against it.
    pub regen_digests: bool,
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The options it ran under.
    pub options: Options,
    /// Ops carried out, set-up and warm-up included.
    pub attempted: u64,
    /// Ops that failed the oracle.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Every metric of the run's kind, in catalog order.
    pub metrics: Vec<Sample>,
    /// Wall time of each measured round, milliseconds.
    pub rounds_ms: Vec<f64>,
    /// One-minute load average before and after.
    pub load: (Option<f64>, Option<f64>),
}

/// Rounds measured back to back.
#[derive(Debug, Default)]
struct Phase {
    rounds_ms: Vec<f64>,
    /// Peak RSS reached inside each round, MiB (empty where the kernel
    /// does not let a process reset its high-water mark).
    round_peak_mib: Vec<f64>,
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
}

fn measure(
    session: &mut dyn Session,
    seconds: f64,
    min_rounds: usize,
    first_round: u64,
    rec: &mut Recorder,
    oracle: &mut Verifier,
) -> Phase {
    let mut phase = Phase::default();
    let cpu_before = machine::process_cpu_seconds();
    let started = Instant::now();
    while phase.rounds_ms.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let round = first_round + phase.rounds_ms.len() as u64;
        let peak_is_per_round = machine::reset_peak_rss();
        let span = rec.begin("round", round);
        let round_started = Instant::now();
        phase.ops += session.round(round, rec, oracle);
        phase
            .rounds_ms
            .push(round_started.elapsed().as_secs_f64() * 1e3);
        rec.end(span);
        if peak_is_per_round {
            phase.round_peak_mib.push(machine::peak_rss_mib());
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.cpu_s = machine::process_cpu_seconds() - cpu_before;
    phase
}

/// Digests pinned at the default seed say nothing about another seed's
/// documents — except for `chaos_campaign`, whose campaigns are the
/// same at every seed.
fn pins_apply(options: &Options) -> bool {
    !options.regen_digests && (options.seed == DEFAULT_SEED || options.workload == "chaos_campaign")
}

/// Sums of the `ethpos_obs` registry the harness reads, parsed from the
/// registry's own JSON snapshot (no handle is created, so the harness
/// never registers a family).
#[derive(Debug, Default)]
struct RegistrySnapshot {
    /// `(backend, stage) → seconds` from `ethpos_epoch_stage_seconds`.
    stage_seconds: Vec<(String, String, f64)>,
    pool_busy_micros: f64,
    pool_wall_micros: f64,
}

impl RegistrySnapshot {
    fn take() -> RegistrySnapshot {
        let mut snapshot = RegistrySnapshot::default();
        let Ok(doc) = serde_json::from_str::<Value>(&ethpos_obs::global().render_json()) else {
            return snapshot;
        };
        let families = doc.get("metrics").and_then(Value::as_array);
        for family in families.into_iter().flatten() {
            let name = family.get("name").and_then(Value::as_str).unwrap_or("");
            let series = family.get("series").and_then(Value::as_array);
            for s in series.into_iter().flatten() {
                let label = |key: &str| {
                    s.get("labels")
                        .and_then(|l| l.get(key))
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                let number = |key: &str| s.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                match name {
                    "ethpos_epoch_stage_seconds" => {
                        snapshot.stage_seconds.push((
                            label("backend"),
                            label("stage"),
                            number("sum"),
                        ));
                    }
                    "ethpos_chunk_pool_worker_busy_micros_total" => {
                        snapshot.pool_busy_micros += number("value");
                    }
                    "ethpos_chunk_pool_wall_micros_total" => {
                        snapshot.pool_wall_micros += number("value");
                    }
                    _ => {}
                }
            }
        }
        snapshot
    }
}

/// The per-layer numbers that come from the workload's own traced
/// rounds rather than from a probe.
fn traced_round_metrics(
    untraced: &Phase,
    traced: &Phase,
    rec: &Recorder,
    registry: &RegistrySnapshot,
    job_threads: usize,
    out: &mut Samples,
) {
    let rounds = traced.rounds_ms.len() as u64;
    let round_ns = rec.total_ns("round").max(1) as f64;
    out.push(
        "core.execute_share",
        rec.total_ns("core.execute") as f64 / round_ns,
        rounds,
    );
    // Time inside layer-named spans, as a share of the rounds: what is
    // left is the harness itself (request bookkeeping, the oracle).
    let self_ns = spans::self_times_ns(rec.spans());
    let layered: u64 = rec
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| !matches!(s.name, "round" | "request") && !s.name.starts_with("harness."))
        .map(|(_, own)| own)
        .sum();
    out.push("obs.span_coverage_share", layered as f64 / round_ns, rounds);
    let (plain, with) = (median(&untraced.rounds_ms), median(&traced.rounds_ms));
    let overhead = if plain > 0.0 {
        (with - plain) / plain
    } else {
        0.0
    };
    out.push("obs.traced_overhead_share", overhead, rounds);

    let total: f64 = registry.stage_seconds.iter().map(|(_, _, s)| s).sum();
    for (backend, stage, seconds) in &registry.stage_seconds {
        let share = if total > 0.0 { seconds / total } else { 0.0 };
        out.push(
            &format!("state.stage_share.{backend}.{stage}"),
            share,
            rounds,
        );
    }
    let capacity = registry.pool_wall_micros * job_threads as f64;
    let busy = if capacity > 0.0 {
        registry.pool_busy_micros / capacity
    } else {
        0.0
    };
    out.push("sim.pool_busy_share", busy, rounds);
}

/// Orders `found` by `specs`, reporting a metric nothing measured as
/// `0` with no samples.
fn in_catalog_order(specs: &[MetricSpec], found: &Samples) -> Vec<Sample> {
    specs
        .iter()
        .map(|spec| {
            found
                .0
                .iter()
                .find(|s| s.name == spec.name)
                .cloned()
                .unwrap_or(Sample {
                    name: spec.name.to_string(),
                    value: 0.0,
                    samples: 0,
                })
        })
        .collect()
}

/// Runs one workload once.
///
/// # Errors
///
/// Returns a message when the pinned digests cannot be read or
/// written; measurement problems are failed ops, not errors.
pub fn run(options: &Options) -> Result<Report, String> {
    let load_before = machine::load_average_1m();
    let pins = if pins_apply(options) {
        oracle::load_pins(&paths::digest_file(&options.workload))?
    } else {
        oracle::Pins::new()
    };
    let mut oracle = Verifier::new(pins);
    let mut rec = Recorder::new(false);
    let mut found = Samples::default();

    let repeats = if options.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..repeats {
        let started = Instant::now();
        session = Some(workloads::set_up(
            &options.workload,
            options.seed,
            &mut rec,
            &mut oracle,
        ));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");

    let rounds_ms = if options.trace {
        let third = options.seconds / 3.0;
        let untraced = measure(
            session.as_mut(),
            third,
            MIN_TRACED_ROUNDS,
            0,
            &mut rec,
            &mut oracle,
        );
        let metrics_were_on = ethpos_obs::metrics_enabled();
        rec.set_enabled(true);
        ethpos_obs::set_metrics_enabled(true);
        let traced = measure(
            session.as_mut(),
            third,
            MIN_TRACED_ROUNDS,
            untraced.rounds_ms.len() as u64,
            &mut rec,
            &mut oracle,
        );
        rec.set_enabled(false);
        let registry = RegistrySnapshot::take();
        ethpos_obs::set_metrics_enabled(metrics_were_on);
        session.finish(&mut oracle);
        traced_round_metrics(
            &untraced,
            &traced,
            &rec,
            &registry,
            session.job_threads(),
            &mut found,
        );
        probes::request_path(&session.bodies(), &mut found);
        probes::run_all(options.seed, &mut found);
        let trace_file = paths::out_dir().join(format!("trace-{}.json", options.workload));
        std::fs::write(&trace_file, rec.export_chrome_json(&options.workload))
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        traced.rounds_ms
    } else {
        let phase = measure(
            session.as_mut(),
            options.seconds,
            MIN_ROUNDS,
            0,
            &mut rec,
            &mut oracle,
        );
        session.finish(&mut oracle);
        let ops = phase.ops.max(1) as f64;
        let rounds = phase.rounds_ms.len() as u64;
        found.push("setup_s", median(&setup_s), setup_s.len() as u64);
        found.push("round_p50_ms", median(&phase.rounds_ms), rounds);
        found.push("ops_per_s", phase.ops as f64 / phase.wall_s, phase.ops);
        found.push("cpu_ms_per_op", phase.cpu_s * 1e3 / ops, phase.ops);
        // The median of the per-round peaks: which rounds happen to
        // overlap two workers' largest allocations changes a single
        // process-wide high-water mark by 20 % from run to run.
        if phase.round_peak_mib.is_empty() {
            found.push("peak_rss_mb", machine::peak_rss_mib(), 1);
        } else {
            found.push("peak_rss_mb", median(&phase.round_peak_mib), rounds);
        }
        phase.rounds_ms
    };

    if options.regen_digests {
        let file = paths::digest_file(&options.workload);
        if let Some(dir) = file.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = oracle::render_pins(&options.workload, options.seed, &oracle.stable_digests());
        std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
    }

    let specs: &[MetricSpec] = if options.trace {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };
    Ok(Report {
        options: options.clone(),
        attempted: oracle.attempted(),
        failed: oracle.failed(),
        reasons: oracle.reasons().to_vec(),
        metrics: in_catalog_order(specs, &found),
        rounds_ms,
        load: (load_before, machine::load_average_1m()),
    })
}

fn unit_of(name: &str) -> &'static str {
    catalog::END_TO_END
        .iter()
        .chain(&catalog::PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

impl Report {
    /// Whether every op passed the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with unit and sample count, the round-time
    /// quartiles and the verdict — the human-readable part of the
    /// output.
    pub fn render_text(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "workload {} seed {} seconds {} trace {}\n",
            o.workload,
            o.seed,
            o.seconds,
            u8::from(o.trace)
        );
        for m in &self.metrics {
            let note = if m.samples == 0 { "  (unmeasured)" } else { "" };
            out.push_str(&format!(
                "  {:<44} {:>16.6} {:<7} n={}{note}\n",
                m.name,
                m.value,
                unit_of(&m.name),
                m.samples
            ));
        }
        if let Some([q1, q2, q3]) = quartiles(&self.rounds_ms) {
            out.push_str(&format!(
                "  rounds {} (ms: q1 {q1:.3} p50 {q2:.3} q3 {q3:.3})\n",
                self.rounds_ms.len()
            ));
        }
        out.push_str(&format!(
            "  ops attempted {} failed {}  load {:?} -> {:?}\n",
            self.attempted, self.failed, self.load.0, self.load.1
        ));
        for why in &self.reasons {
            out.push_str(&format!("  FAILED {why}\n"));
        }
        out
    }

    /// Every metric as `name → {value, unit}` (the shape the benchmark
    /// contract fixes), with the sample count for a result file.
    fn metrics_value(&self, with_samples: bool) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value".to_string(), Value::F64(m.value)),
                        ("unit".to_string(), text(unit_of(&m.name))),
                    ];
                    if with_samples {
                        fields.push(("samples".to_string(), Value::U64(m.samples)));
                    }
                    (m.name.clone(), Value::Object(fields))
                })
                .collect(),
        )
    }

    /// The one-line result object the benchmark contract asks for:
    /// exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let line = object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", self.metrics_value(false)),
        ]);
        serde_json::to_string(&line).expect("measured values are finite")
    }

    /// The report as a result-file entry.
    pub fn to_value(&self) -> Value {
        let o = &self.options;
        let load = |l: Option<f64>| l.map_or(Value::Null, Value::F64);
        // Every run measures at least two rounds.
        let [q1, q2, q3] = quartiles(&self.rounds_ms).unwrap_or_default();
        object([
            ("workload", text(&o.workload)),
            ("seed", Value::U64(o.seed)),
            ("seconds", Value::F64(o.seconds)),
            ("trace", Value::Bool(o.trace)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "reasons",
                Value::Array(self.reasons.iter().map(|r| text(r)).collect()),
            ),
            (
                "rounds",
                object([
                    ("count", Value::U64(self.rounds_ms.len() as u64)),
                    ("q1_ms", Value::F64(q1)),
                    ("p50_ms", Value::F64(q2)),
                    ("q3_ms", Value::F64(q3)),
                ]),
            ),
            (
                "load_average_1m",
                object([("before", load(self.load.0)), ("after", load(self.load.1))]),
            ),
            ("metrics", self.metrics_value(true)),
        ])
    }
}
