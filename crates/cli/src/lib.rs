//! Argument parsing and rendering for `ethpos-cli`, split out of the
//! binary so the logic is unit-testable.
//!
//! Every run mode — the paper's experiments (positional ids or `all`),
//! `sweep`, `search`, `partition` and `chaos` — is a [`JobRequest`],
//! whose fields live in one table, [`MODES`]. [`parse_args`] takes its
//! request flags from the table: it writes the subcommand into `kind` and
//! each flag into the field of its name (`--max-period` → `max_period`,
//! each `--timeline` appended to `timelines`, each `--grid axis=v1,v2,…`
//! replacing one of `sweep`'s array fields), and [`JobRequest::from_json`]
//! checks the object against the same rows; [`usage`] renders them. A
//! command line and the equivalent API request so have the same address
//! and, through [`JobRequest::execute`], the same bytes. `--threads`
//! bounds the worker pool: it changes wall-clock time, never a byte.
//!
//! The CLI itself decides only where the outputs go: `--out <path>`
//! writes the document to a file instead of stdout, `--stats-out`
//! (search, partition and chaos) the work counters, `--metrics-out` /
//! `--trace-out` the observability artifacts. `serve` runs the resident
//! service ([`ethpos_server`]).

#![warn(missing_docs)]

use ethpos_core::experiments::Experiment;
use ethpos_core::request::{mode, Field, FieldType, Mode, FORMAT, MODES};
use ethpos_core::JobRequest;
use serde_json::Value;

/// The literal part of [`usage`]: the modes and the CLI's own options.
const USAGE_HEAD: &str = "\
ethpos-cli — reproduce the tables and figures of
'Byzantine Attacks Exploiting Penalties in Ethereum PoS' (DSN 2024)

USAGE:
    ethpos-cli [EXPERIMENT]... [OPTIONS]
    ethpos-cli sweep [--grid AXIS=V1,V2,...]... [OPTIONS]
    ethpos-cli search [--objective ID] [--budget N] [OPTIONS]
    ethpos-cli partition [--timeline SPEC]... [OPTIONS]
    ethpos-cli chaos [--budget N] [--seed S] [OPTIONS]
    ethpos-cli serve [--addr A] [--cache-dir D] [--threads N]
    ethpos-cli --list

ARGS:
    EXPERIMENT    a paper experiment (the ids under `experiment` below),
                  or `all` for every experiment in paper order
    sweep         run a parameter grid (β0 × p0 × walkers × semantics)
                  over the §5.3 Monte Carlo and the §5.2 closed forms
    search        search duty-cycle adversary genomes over both branches
                  for the worst-case damage-vs-cost Pareto frontier, on
                  the exact discrete protocol
    partition     run k-branch partition timelines (splits, heals, churn)
                  the paper cannot express, at paper-true population
                  sizes on the cohort backend
    chaos         run sampled timelines × adversaries × stake splits
                  against safety/liveness oracles, shrinking unexpected
                  violations to minimal reproducers
    serve         run the resident service: a JSON API over every mode
                  above behind a content-addressed artifact cache (an
                  identical request is answered without re-simulating),
                  with GET /metrics and GET /healthz

OPTIONS — the CLI's own; none changes a byte of a run's document:
    --out <path>            Write the document to a file instead of stdout
    --stats-out <path>      (search, partition, chaos) also write the
                            run's work counters (prefix-memo hits, fork
                            depths, churn draws) as JSON
    --metrics-out <path>    Record metrics (pool throughput, epoch stage
                            timings, cohort gauges) and write their
                            Prometheus text exposition after the run
    --trace-out <path>      Record spans and write a Chrome trace-event
                            JSON (chrome://tracing, Perfetto) after the run
    --threads <N>           Worker threads, 0 = all hardware threads
                            [default: 0]
    --addr <HOST:PORT>      (serve) listen address [default: 127.0.0.1:4280;
                            port 0 picks a free port]
    --cache-dir <DIR>       (serve) artifact cache directory
                            [default: .ethpos-cache]
    --list                  List experiment ids with their paper reference
    -h, --help              Show this help

REQUEST FIELDS — each flag sets the request field of its name
(`--max-period` sets `max_period`); a POST /v1/jobs body takes the same
fields of each mode:
";

/// The usage text printed on `--help` and argument errors: the CLI's own
/// options, then every mode's request fields rendered from [`MODES`].
pub fn usage() -> String {
    let mut out = USAGE_HEAD.to_string();
    let common = ("any mode", std::slice::from_ref(&FORMAT));
    for (kind, fields) in std::iter::once(common).chain(MODES.iter().map(|m| (m.kind, m.fields))) {
        out.push_str(&format!("  {kind}:\n"));
        for field in fields {
            let (value, mut help) = (metavar(&field.ty), field.help.to_string());
            let spelling = match field.ty {
                _ if field.name == "experiments" => {
                    // On the command line these words name the subcommands.
                    let (shadowed, ids): (Vec<&str>, Vec<&str>) =
                        value.split('|').partition(|id| SUBCOMMANDS.contains(id));
                    help = format!(
                        "{help}; one of {}; the {} smoke experiments run under `all` or in \
                         a POST body",
                        ids.join(", "),
                        shadowed.join(" and ")
                    );
                    "EXPERIMENT...".to_string()
                }
                _ if field.name == "timelines" => format!("--timeline <{value}>..."),
                FieldType::Array(_) if one_point_axis(kind, field.name) => {
                    format!("--grid {0}=<{value}>,.. | --{0} <{value}>", field.name)
                }
                FieldType::Array(_) => format!("--grid {}=<{value}>,..", field.name),
                _ => format!("--{} <{value}>", field.name.replace('_', "-")),
            };
            // The spelling, then the help word-wrapped from column 30.
            let mut line = format!("    {spelling:<25}");
            if spelling.chars().count() > 25 {
                out.push_str(&format!("{line}\n"));
                line = " ".repeat(29);
            }
            for word in help.split(' ') {
                if line.chars().count() > 29 && line.chars().count() + word.chars().count() >= 78 {
                    out.push_str(&format!("{line}\n"));
                    line = " ".repeat(29);
                }
                line = format!("{line} {word}");
            }
            out.push_str(&format!("{line}\n"));
        }
    }
    out
}

/// A field type's value placeholder.
fn metavar(ty: &FieldType) -> String {
    match *ty {
        FieldType::Int(min, max) if max < u64::MAX => format!("{min}-{max}"),
        FieldType::Int(..) => "N".into(),
        FieldType::Unit => "X".into(),
        FieldType::Id(_, ids) => ids().join("|"),
        FieldType::Text => "SPEC".into(),
        FieldType::Array(each) => metavar(each),
    }
}

/// The observability outputs of one invocation — `--metrics-out` and
/// `--trace-out`, valid in every run mode.
/// Recording is **off** unless the corresponding output is requested,
/// and by the workspace's determinism model turning it on never changes
/// a byte of the main document (or of `--stats-out`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsOutputs {
    /// `--metrics-out` destination for the Prometheus text exposition;
    /// the metrics registry records iff this is set.
    pub metrics_out: Option<String>,
    /// `--trace-out` destination; span tracing records iff this is set.
    pub trace_out: Option<String>,
}

/// What one invocation should do.
#[derive(Debug, Clone, PartialEq)]
pub enum Cli {
    /// Run one request (an experiment list, `sweep`, `search`,
    /// `partition` or `chaos`) and write its document.
    Job {
        /// The request, exactly as the service would parse the same
        /// knobs from a JSON body (same address, same bytes). Boxed: it
        /// dwarfs the other variants.
        request: Box<JobRequest>,
        /// `--out` destination (stdout when absent).
        out: Option<String>,
        /// `--stats-out` destination for the work counters (search,
        /// partition and chaos; never part of the document).
        stats_out: Option<String>,
        /// Metrics/trace outputs (`--metrics-out`, `--trace-out`).
        obs: ObsOutputs,
    },
    /// Run the resident experiment service (`serve`).
    Serve {
        /// `--addr` listen address (`host:port`; port 0 = ephemeral).
        addr: String,
        /// `--cache-dir` artifact cache directory.
        cache_dir: String,
        /// `--threads` worker budget handed to every job (0 = all
        /// cores).
        threads: usize,
    },
    /// Print the experiment table (`--list`).
    List,
    /// Print [`usage`] (`--help`).
    Help,
}

/// A failed parse: the message to print before [`usage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Unknown id, unknown flag or malformed option value.
    Usage(String),
}

/// The CLI's own flags: the repeatable `timeline` and `grid`, which
/// build request arrays, and the invocation's own. Every other flag
/// names a request field ([`request_field`]).
const CLI_FLAGS: [&str; 9] = [
    "timeline",
    "grid",
    "threads",
    "out",
    "stats-out",
    "metrics-out",
    "trace-out",
    "addr",
    "cache-dir",
];

const SUBCOMMANDS: [&str; 5] = ["sweep", "search", "partition", "chaos", "serve"];

/// The request field `--flag` sets: a non-array field of some mode, `_`
/// spelled `-`. A repeated flag replaces the earlier value.
fn request_field(flag: &str) -> Option<&'static str> {
    let scalar = |f: &&Field| !matches!(f.ty, FieldType::Array(_));
    let named = |f: &&Field| f.name.replace('_', "-") == flag;
    let fields = MODES.iter().flat_map(Mode::all_fields);
    fields.filter(scalar).find(named).map(|f| f.name)
}

/// In a sweep, a flag naming a knob of the `experiment` mode (whose
/// Monte-Carlo configuration the sweep grids) sets a one-point axis.
fn one_point_axis(kind: &str, name: &str) -> bool {
    let field = |kind| mode(kind).and_then(|m| m.field(name));
    kind == "sweep"
        && field("experiment").is_some()
        && field("sweep").is_some_and(|f| matches!(f.ty, FieldType::Array(_)))
}

/// Parses command-line arguments (without the program name).
///
/// Every run mode becomes a request: the subcommand sets `kind`
/// (`experiment` without one, the positional ids going into
/// `experiments`), each request flag sets its field and
/// [`JobRequest::from_json`] decides what the mode accepts. The CLI adds
/// `"format": "text"` unless `--format` is given, and checks only what a
/// request cannot know: where the outputs go and `serve`'s own flags.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, CliError> {
    let usage = |msg: String| Err(CliError::Usage(msg));
    let mut words = Vec::new();
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--list" => return Ok(Cli::List),
            word if !word.starts_with('-') => {
                words.push(arg);
                continue;
            }
            _ => {}
        }
        // `--opt value` and `--opt=value` are both accepted.
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let known = name
            .strip_prefix("--")
            .filter(|name| CLI_FLAGS.contains(name) || request_field(name).is_some());
        let Some(flag) = known else {
            return usage(format!("unknown option `{arg}`"));
        };
        let Some(value) = inline.or_else(|| iter.next()) else {
            return usage(format!("{name} needs a value"));
        };
        flags.push((flag.to_string(), value));
    }
    let last = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.clone())
    };
    let (subcommands, experiments): (Vec<String>, Vec<String>) = words
        .into_iter()
        .partition(|word| SUBCOMMANDS.contains(&word.as_str()));
    if subcommands.len() > 1 {
        return usage(
            "`sweep`, `search`, `partition`, `chaos` and `serve` are different \
             subcommands"
                .into(),
        );
    }
    let kind = subcommands.first().map_or("experiment", String::as_str);
    let threads = last("threads")
        .map(|value| value.parse::<usize>().map_err(|_| value))
        .transpose()
        .map_err(|value| {
            CliError::Usage(format!("--threads `{value}` is not a non-negative integer"))
        })?;
    if kind != "serve" && (last("addr").is_some() || last("cache-dir").is_some()) {
        return usage("--addr and --cache-dir are only valid with the `serve` subcommand".into());
    }
    if kind == "serve" {
        if let Some(id) = experiments.first() {
            return usage(format!(
                "`serve` cannot be combined with experiment ids (got `{id}`) — \
                 submit them to POST /v1/jobs instead"
            ));
        }
        // Every run-shaping and output flag belongs to a *request*, not to
        // the service: the server takes them per-job from the JSON body and
        // serves documents over HTTP, so a flag here could only be ignored.
        if let Some((flag, _)) = flags
            .iter()
            .find(|(flag, _)| !["addr", "cache-dir", "threads"].contains(&flag.as_str()))
        {
            return usage(format!(
                "--{flag} is a per-request knob; pass it in the JSON body of \
                 POST /v1/jobs (`serve` only takes --addr, --cache-dir and \
                 --threads)"
            ));
        }
        let defaults = ethpos_server::ServerConfig::default();
        return Ok(Cli::Serve {
            addr: last("addr").unwrap_or(defaults.addr),
            cache_dir: last("cache-dir").unwrap_or(defaults.cache_dir),
            threads: threads.unwrap_or(defaults.threads),
        });
    }
    if last("stats-out").is_some() && !matches!(kind, "search" | "partition" | "chaos") {
        return usage(
            "--stats-out is only valid with the `search`, `partition` and `chaos` subcommands"
                .into(),
        );
    }

    let mut fields = vec![
        ("kind".to_string(), Value::String(kind.into())),
        ("format".to_string(), Value::String("text".into())),
    ];
    if !experiments.is_empty() {
        let ids = experiments.into_iter().map(Value::String).collect();
        fields.push(("experiments".into(), Value::Array(ids)));
    }
    let mut timelines = Vec::new();
    let mut grids = Vec::new();
    for (flag, value) in &flags {
        match flag.as_str() {
            "timeline" => timelines.push(typed(value)),
            "grid" => {
                let Some((axis, values)) = value.split_once('=') else {
                    return usage(format!("grid directive `{value}` is not `axis=v1,v2,…`"));
                };
                let sweep = mode("sweep").map_or(&[][..], |m| m.fields);
                let axes = sweep.iter().filter(|f| matches!(f.ty, FieldType::Array(_)));
                let axes: Vec<&str> = axes.map(|f| f.name).collect();
                if !axes.contains(&axis) {
                    return usage(format!(
                        "unknown grid axis `{axis}` (expected {})",
                        axes.join(", ")
                    ));
                }
                let values = values.split(',').filter(|v| !v.is_empty()).map(typed);
                grids.push((axis, Value::Array(values.collect())));
            }
            flag => {
                if let Some(field) = request_field(flag) {
                    let value = match one_point_axis(kind, field) {
                        true => Value::Array(vec![typed(value)]),
                        false => typed(value),
                    };
                    set(&mut fields, field, value);
                }
            }
        }
    }
    if !timelines.is_empty() {
        set(&mut fields, "timelines", Value::Array(timelines));
    }
    // Grid directives come last, so `--grid walkers=…` wins over
    // `--walkers N` whatever the flag order.
    for (axis, values) in grids {
        set(&mut fields, axis, values);
    }
    let mut request =
        JobRequest::from_json(&Value::Object(fields)).map_err(|err| CliError::Usage(err.0))?;
    if let Some(threads) = threads {
        request.set_threads(threads);
    }
    Ok(Cli::Job {
        request: Box::new(request),
        out: last("out"),
        stats_out: last("stats-out"),
        obs: ObsOutputs {
            metrics_out: last("metrics-out"),
            trace_out: last("trace-out"),
        },
    })
}

/// Writes `value` into the request field `key`, replacing an earlier one.
fn set(fields: &mut Vec<(String, Value)>, key: &str, value: Value) {
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => fields.push((key.into(), value)),
    }
}

/// Types a flag value the way the JSON lexer types a number literal
/// (`u64`, else `f64`), else as a string — so a flag carries the exact
/// value the equivalent request body would.
fn typed(value: &str) -> Value {
    if let Ok(n) = value.parse::<u64>() {
        Value::U64(n)
    } else if let Ok(x) = value.parse::<f64>() {
        Value::F64(x)
    } else {
        Value::String(value.into())
    }
}

/// A side-channel artifact: destination path and rendered contents
/// (work counters, Prometheus text or Chrome trace JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Destination path.
    pub path: String,
    /// Rendered contents (newline-terminated).
    pub contents: String,
}

/// Everything one invocation produced: the main document plus the
/// side-channel artifacts it asked for. The document bytes never depend
/// on which artifacts were requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArtifacts {
    /// The main document (what stdout or `--out` receives).
    pub document: String,
    /// `--stats-out` (search, partition, chaos), `--metrics-out` and
    /// `--trace-out`, in that order, each present only when requested.
    pub side_channels: Vec<Artifact>,
}

/// Executes a parsed invocation and returns everything to write.
///
/// A job runs through [`JobRequest::execute`], the execution path
/// `ethpos-server` shares. Metrics and tracing are enabled
/// (process-globally) before the run iff their output was requested, and
/// rendered once it is done; instrumentation is observation-only, so the
/// document and `--stats-out` bytes are identical with and without it.
pub fn run(cli: &Cli) -> RunArtifacts {
    let document = |document: String| RunArtifacts {
        document,
        side_channels: Vec::new(),
    };
    let (request, stats_out, obs) = match cli {
        Cli::Job {
            request,
            stats_out,
            obs,
            ..
        } => (request, stats_out, obs),
        Cli::Help => return document(usage() + "\n"),
        Cli::List => {
            // On the command line the subcommand words shadow their ids.
            let mut out = String::from("id         paper reference\n");
            let mut shadowed = Vec::new();
            for e in Experiment::all() {
                let mut id = e.id().to_string();
                if SUBCOMMANDS.contains(&e.id()) {
                    shadowed.push(e.id());
                    id.push('*');
                }
                out.push_str(&format!("{id:<10} {}\n", e.title()));
            }
            out.push_str(&format!(
                "\n* {} are subcommands; their smoke experiments run under `all` or in a \
                 POST body\n",
                shadowed.join(" and ")
            ));
            return document(out);
        }
        // The binary routes this through `ethpos_server`; the arm keeps
        // `run` total for library callers.
        Cli::Serve { addr, .. } => {
            return document(format!(
                "serve is a resident mode: run the `ethpos-cli` binary ({addr})\n"
            ))
        }
    };
    if obs.metrics_out.is_some() {
        ethpos_obs::set_metrics_enabled(true);
    }
    if obs.trace_out.is_some() {
        ethpos_obs::set_trace_enabled(true);
    }
    let output = request.execute();
    let stats = stats_out.clone().zip(output.stats);
    let metrics = obs
        .metrics_out
        .clone()
        .map(|path| (path, ethpos_obs::global().render_prometheus()));
    let trace = obs
        .trace_out
        .clone()
        .map(|path| (path, ethpos_obs::tracer().export_chrome_json()));
    RunArtifacts {
        document: output.document,
        side_channels: [stats, metrics, trace]
            .into_iter()
            .flatten()
            .map(|(path, contents)| Artifact { path, contents })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_core::experiments::McConfig;
    use ethpos_core::partition::{PartitionSpec, StrategyKind};
    use ethpos_core::PenaltySemantics;
    use ethpos_core::{BackendKind, ChaosSpec, DocumentFormat};
    use ethpos_search::{Objective, SearchSpec};
    use proptest::prelude::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The request of a job invocation (panics on anything else).
    fn job(list: &[&str]) -> JobRequest {
        match parse_args(args(list)) {
            Ok(Cli::Job { request, .. }) => *request,
            other => panic!("{list:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn every_id_parses_to_its_experiment() {
        // The ids `--help` lists for EXPERIMENT, read off the rendered text.
        let help = usage();
        let (_, block) = help
            .split_once("    EXPERIMENT...")
            .expect("--help lists EXPERIMENT");
        let block = block.split("\n    --").next().unwrap_or_default();
        let block = block.split_whitespace().collect::<Vec<_>>().join(" ");
        let (_, listed) = block.split_once("one of ").expect("--help lists the ids");
        let listed: Vec<&str> = listed
            .split(';')
            .next()
            .unwrap_or_default()
            .split(", ")
            .collect();
        for id in &listed {
            assert!(
                *id == "all" || Experiment::from_id(id).is_some(),
                "--help lists `{id}`"
            );
        }
        for e in Experiment::all() {
            if !listed.contains(&e.id()) {
                // A word that is a subcommand on the command line; its
                // smoke experiment still runs through `all`.
                let request = job(&[e.id()]);
                let shadowed = matches!(
                    request,
                    JobRequest::Partition { .. } | JobRequest::Chaos { .. }
                );
                assert!(shadowed, "--help leaves out `{}`", e.id());
                continue;
            }
            match parse_args(args(&[e.id()])) {
                Ok(Cli::Job {
                    request,
                    out,
                    stats_out,
                    obs,
                }) => {
                    let JobRequest::Run {
                        experiments,
                        format,
                        mc,
                    } = *request
                    else {
                        panic!("{}: not a run", e.id());
                    };
                    assert_eq!(experiments, vec![e]);
                    assert_eq!(out, None);
                    assert_eq!(stats_out, None);
                    assert_eq!(format, DocumentFormat::Text);
                    assert_eq!(mc, McConfig::default());
                    assert_eq!(obs, ObsOutputs::default());
                }
                other => panic!("{}: parsed to {other:?}", e.id()),
            }
        }
    }

    #[test]
    fn all_expands_in_paper_order() {
        let JobRequest::Run { experiments, .. } = job(&["all"]) else {
            panic!("`all` did not parse to a run");
        };
        assert_eq!(experiments, Experiment::all().to_vec());
    }

    #[test]
    fn unknown_id_is_a_usage_error() {
        for bad in ["fig42", "table9", "figure2", ""] {
            let err = parse_args(args(&[bad]));
            assert!(
                matches!(err, Err(CliError::Usage(_))),
                "`{bad}` parsed to {err:?}"
            );
        }
    }

    #[test]
    fn format_flag_both_spellings() {
        for argv in [
            &["fig2", "--format", "json"] as &[&str],
            &["--format=json", "fig2"],
        ] {
            assert_eq!(job(argv).format(), DocumentFormat::Json);
        }
        assert!(matches!(
            parse_args(args(&["fig2", "--format", "yaml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(args(&["fig2", "--format"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn no_experiment_is_a_usage_error() {
        assert!(matches!(parse_args(args(&[])), Err(CliError::Usage(_))));
    }

    #[test]
    fn duplicate_selection_runs_once_even_when_not_adjacent() {
        let JobRequest::Run { experiments, .. } = job(&["all", "fig2"]) else {
            panic!("`all fig2` did not parse to a run");
        };
        assert_eq!(experiments, Experiment::all().to_vec());
    }

    #[test]
    fn mc_knobs_reach_the_config() {
        let JobRequest::Run { mc, .. } = job(&[
            "fig10",
            "--threads=4",
            "--walkers",
            "1000",
            "--epochs=500",
            "--seed",
            "7",
        ]) else {
            panic!("not a run");
        };
        assert_eq!(
            mc,
            McConfig {
                threads: 4,
                walkers: 1000,
                epochs: 500,
                seed: 7,
                ..McConfig::default()
            }
        );
        // zero walkers / epochs are rejected, zero threads means "all"
        assert!(parse_args(args(&["fig10", "--walkers", "0"])).is_err());
        assert!(parse_args(args(&["fig10", "--epochs", "0"])).is_err());
        assert!(parse_args(args(&["fig10", "--threads", "0"])).is_ok());
    }

    #[test]
    fn validators_and_backend_reach_the_config() {
        let JobRequest::Run { mc, .. } =
            job(&["fig2", "--validators", "1000000", "--backend=cohort"])
        else {
            panic!("not a run");
        };
        assert_eq!(mc.validators, Some(1_000_000));
        assert_eq!(mc.backend, BackendKind::Cohort);
        let JobRequest::Run { mc, .. } = job(&["table2", "--validators=600", "--backend", "dense"])
        else {
            panic!("not a run");
        };
        assert_eq!(mc.validators, Some(600));
        assert_eq!(mc.backend, BackendKind::Dense);
        // defaults: cross-checks off, cohort backend
        let JobRequest::Run { mc, .. } = job(&["fig2"]) else {
            panic!("fig2 did not parse to a run");
        };
        assert_eq!(mc.validators, None);
        assert_eq!(mc.backend, BackendKind::Cohort);
        // rejections
        assert!(parse_args(args(&["fig2", "--validators", "0"])).is_err());
        assert!(parse_args(args(&["fig2", "--backend", "sparse"])).is_err());
    }

    #[test]
    fn sweep_accepts_validators_scalar_and_grid() {
        let JobRequest::Sweep { spec, .. } =
            job(&["sweep", "--validators", "1200", "--backend", "cohort"])
        else {
            panic!("not a sweep");
        };
        assert_eq!(spec.validators, vec![1200]);
        assert_eq!(spec.backend, BackendKind::Cohort);
        // the grid axis wins over the scalar, like walkers
        let JobRequest::Sweep { spec, .. } = job(&[
            "sweep",
            "--grid",
            "validators=600,1000000",
            "--validators",
            "1200",
        ]) else {
            panic!("not a sweep");
        };
        assert_eq!(spec.validators, vec![600, 1_000_000]);
    }

    #[test]
    fn fig2_cross_check_rides_along_at_small_n() {
        let cli = parse_args(args(&[
            "fig2",
            "--validators",
            "20",
            "--backend",
            "cohort",
            "--epochs",
            "64",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli).document).unwrap();
        let tables = value.get("tables").and_then(|v| v.as_array()).unwrap();
        assert_eq!(tables.len(), 2); // closed-form + discrete cross-check
        let text = serde_json::to_string(&tables[1]).unwrap();
        assert!(text.contains("cohort backend"), "{text}");
    }

    #[test]
    fn sweep_parses_with_grid_directives() {
        let JobRequest::Sweep { spec, format } = job(&[
            "sweep",
            "--grid",
            "beta0=0.3,0.32",
            "--grid=semantics=paper,spec",
            "--grid",
            "p0=0.6,",
            "--walkers",
            "500",
            "--epochs",
            "200",
            "--threads",
            "2",
            "--seed=9",
        ]) else {
            panic!("not a sweep");
        };
        assert_eq!(format, DocumentFormat::Text);
        assert_eq!(spec.beta0, vec![0.3, 0.32]);
        assert_eq!(
            spec.semantics,
            vec![PenaltySemantics::Paper, PenaltySemantics::Spec]
        );
        // empty tokens are dropped
        assert_eq!(spec.p0, vec![0.6]);
        assert_eq!(spec.walkers, vec![500]);
        assert_eq!(spec.epochs, 200);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn grid_walkers_wins_over_scalar_walkers() {
        let JobRequest::Sweep { spec, .. } =
            job(&["sweep", "--grid", "walkers=100,200", "--walkers", "5000"])
        else {
            panic!("not a sweep");
        };
        assert_eq!(spec.walkers, vec![100, 200]);
    }

    #[test]
    fn sweep_misuse_is_a_usage_error() {
        for bad in [
            // grid without sweep
            &["fig2", "--grid", "beta0=0.3"] as &[&str],
            // sweep with an experiment id
            &["sweep", "fig2"],
            // malformed directives: unknown axis, out-of-range and
            // non-numeric values, zero or negative walkers, unknown
            // semantics, an axis with no values, no `=`
            &["sweep", "--grid", "gamma=1"],
            &["sweep", "--grid", "beta0=2"],
            &["sweep", "--grid", "beta0=1.5"],
            &["sweep", "--grid", "beta0=zero"],
            &["sweep", "--grid", "p0=0"],
            &["sweep", "--grid", "walkers=0"],
            &["sweep", "--grid", "walkers=-3"],
            &["sweep", "--grid", "semantics=bellatrix"],
            &["sweep", "--grid", "beta0="],
            &["sweep", "--grid", "beta0=,"],
            &["sweep", "--grid", "beta0"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn search_parses_with_objective_defaults() {
        let Ok(Cli::Job {
            request,
            out,
            stats_out,
            obs,
        }) = parse_args(args(&["search"]))
        else {
            panic!("bare search did not parse");
        };
        let JobRequest::Search { spec, format } = *request else {
            panic!("not a search");
        };
        assert_eq!(format, DocumentFormat::Text);
        assert_eq!(out, None);
        assert_eq!(stats_out, None);
        assert_eq!(obs, ObsOutputs::default());
        assert_eq!(spec, SearchSpec::new(Objective::Conflict));
        // the delay objective switches β0 and the horizon
        let JobRequest::Search { spec, .. } =
            job(&["search", "--objective", "non-slashable-horizon"])
        else {
            panic!("not a search");
        };
        assert_eq!(spec.objective, Objective::NonSlashableHorizon);
        assert_eq!(spec.beta0, 0.33);
        assert_eq!(spec.epochs, 8192);
    }

    #[test]
    fn search_knobs_reach_the_spec() {
        let JobRequest::Search { spec, .. } = job(&[
            "search",
            "--objective=conflict",
            "--budget",
            "64",
            "--beta0=0.25",
            "--p0",
            "0.6",
            "--validators",
            "1200",
            "--backend=dense",
            "--epochs",
            "700",
            "--max-period",
            "2",
            "--seed=5",
            "--threads",
            "3",
        ]) else {
            panic!("not a search");
        };
        assert_eq!(spec.budget, 64);
        assert_eq!(spec.beta0, 0.25);
        assert_eq!(spec.p0, 0.6);
        assert_eq!(spec.n, 1200);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.epochs, 700);
        assert_eq!(spec.max_period, 2);
        assert_eq!(spec.seed, 5);
        assert_eq!(spec.threads, 3);
    }

    #[test]
    fn lambda_flag_is_the_search_request_field() {
        let cli = job(&["search", "--lambda", "4", "--format", "json"]);
        let api = JobRequest::parse(r#"{"kind": "search", "lambda": 4}"#).unwrap();
        assert_eq!(cli.request_hash(), api.request_hash());
        let JobRequest::Search { spec, .. } = cli else {
            panic!("not a search");
        };
        assert_eq!(spec.lambda, 4);
        for bad in [
            &["search", "--lambda", "0"] as &[&str],
            &["chaos", "--lambda", "4"],
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn search_misuse_is_a_usage_error() {
        for bad in [
            &["search", "fig2"] as &[&str],
            &["search", "--objective", "mayhem"],
            &["search", "--budget", "0"],
            &["search", "--beta0", "1.5"],
            &["search", "--max-period", "40"],
            &["search", "--grid", "beta0=0.3"],
            &["search", "--walkers", "100"],
            &["search", "sweep"],
            &["fig2", "--objective", "conflict"],
            &["fig2", "--budget", "9"],
            &["sweep", "--beta0", "0.3"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn out_flag_is_captured_in_every_mode() {
        let out = |list: &[&str]| match parse_args(args(list)).unwrap() {
            Cli::Job { out, .. } => out,
            _ => None,
        };
        assert_eq!(out(&["fig2", "--out", "a.json"]).as_deref(), Some("a.json"));
        assert_eq!(out(&["sweep", "--out=b.json"]).as_deref(), Some("b.json"));
        assert_eq!(
            out(&["search", "--out", "c.json"]).as_deref(),
            Some("c.json")
        );
        assert_eq!(
            out(&["chaos", "--out", "d.json"]).as_deref(),
            Some("d.json")
        );
        assert_eq!(out(&["--list"]), None);
        assert!(parse_args(args(&["fig2", "--out"])).is_err());
    }

    #[test]
    fn stats_out_is_valid_only_for_modes_with_work_counters() {
        for mode in ["search", "partition", "chaos"] {
            let parsed = parse_args(args(&[mode, "--stats-out", "s.json"]));
            let Ok(Cli::Job { stats_out, .. }) = parsed else {
                panic!("{mode}: {parsed:?}");
            };
            assert_eq!(stats_out.as_deref(), Some("s.json"));
        }
        for mode in ["fig2", "sweep"] {
            assert!(
                matches!(
                    parse_args(args(&[mode, "--stats-out", "s.json"])),
                    Err(CliError::Usage(_))
                ),
                "{mode} accepted --stats-out"
            );
        }
    }

    #[test]
    fn obs_flags_are_captured_in_every_run_mode() {
        let obs = |argv: Vec<String>| match parse_args(argv) {
            Ok(Cli::Job { obs, .. }) => obs,
            other => panic!("no obs: {other:?}"),
        };
        for mode in [
            &["fig2"] as &[&str],
            &["sweep"],
            &["search"],
            &["partition"],
            &["chaos"],
        ] {
            let mut argv = args(mode);
            argv.extend(args(&["--metrics-out", "m.prom", "--trace-out", "t.json"]));
            let obs = obs(argv);
            assert_eq!(obs.metrics_out.as_deref(), Some("m.prom"));
            assert_eq!(obs.trace_out.as_deref(), Some("t.json"));
        }
        // defaults: everything off
        let fig2 = obs(args(&["fig2", "--metrics-out", "m.prom"]));
        assert_eq!(fig2.trace_out, None);
        assert!(fig2.metrics_out.is_some());
        // trace alone is fine too
        let partition = obs(args(&["partition", "--trace-out=t.json"]));
        assert_eq!(partition.metrics_out, None);
    }

    #[test]
    fn obs_flag_misuse_is_a_usage_error() {
        for bad in [
            // missing values
            &["fig2", "--metrics-out"] as &[&str],
            &["fig2", "--trace-out"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn frontier_experiment_is_listed_and_runs_in_all() {
        assert_eq!(
            Experiment::from_id("frontier"),
            Some(Experiment::AttackFrontier)
        );
        let JobRequest::Run { experiments, .. } = job(&["all"]) else {
            panic!("`all` did not parse to a run");
        };
        assert!(experiments.contains(&Experiment::AttackFrontier));
    }

    #[test]
    fn search_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "search",
            "--validators",
            "120",
            "--beta0=0.34",
            "--epochs",
            "60",
            "--budget",
            "10",
            "--max-period=2",
            "--threads",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli).document).unwrap();
        assert_eq!(
            value.get("objective").and_then(|v| v.as_str()),
            Some("conflict")
        );
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert!(!rows.is_empty());
        assert!(value.get("best").is_some());
    }

    #[test]
    fn json_run_emits_one_valid_document() {
        let cli = parse_args(args(&["table2", "--format", "json"])).unwrap();
        let out = run(&cli).document;
        let value: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            value.get("experiment").and_then(|v| v.as_str()),
            Some("Table2Slashable")
        );
        assert!(value.get("tables").is_some());

        let cli = parse_args(args(&["fig8", "table1", "--format", "json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli).document).unwrap();
        let items = value.as_array().expect("array for multiple experiments");
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn partition_parses_with_preset_defaults() {
        let Ok(Cli::Job { request, out, .. }) = parse_args(args(&["partition"])) else {
            panic!("bare partition did not parse");
        };
        let JobRequest::Partition { spec, format } = *request else {
            panic!("not a partition");
        };
        assert_eq!(format, DocumentFormat::Text);
        assert_eq!(out, None);
        assert_eq!(spec, PartitionSpec::default());
        assert_eq!(spec.n, 1_000_000);
        assert_eq!(spec.backend, BackendKind::Cohort);
        assert_eq!(spec.scenarios.len(), 2);
    }

    #[test]
    fn partition_knobs_reach_the_spec() {
        let JobRequest::Partition { spec, .. } = job(&[
            "partition",
            "--timeline",
            "three-branch",
            "--timeline=split@0:0=0.5,0.5",
            "--strategy",
            "dual-active",
            "--beta0=0.3",
            "--epochs",
            "700",
            "--validators",
            "3000",
            "--backend=dense",
            "--seed=4",
            "--threads",
            "2",
        ]) else {
            panic!("not a partition");
        };
        assert_eq!(spec.scenarios.len(), 2);
        // explicit flags override the preset's own knobs too
        for scenario in &spec.scenarios {
            assert_eq!(scenario.strategy, StrategyKind::DualActive);
            assert_eq!(scenario.beta0, 0.3);
            assert_eq!(scenario.epochs, 700);
        }
        assert_eq!(spec.n, 3000);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.seed, 4);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn partition_misuse_is_a_usage_error() {
        for bad in [
            &["partition", "fig2"] as &[&str],
            &["partition", "sweep"],
            &["partition", "--timeline", "gibberish"],
            &["partition", "--timeline", "split@0:0=0.5"],
            &["partition", "--strategy", "mayhem"],
            &["partition", "--walkers", "100"],
            &["partition", "--objective", "conflict"],
            &["partition", "--p0", "0.5"],
            &["partition", "--grid", "beta0=0.3"],
            &["fig2", "--timeline", "three-branch"],
            &["sweep", "--strategy", "rotate"],
            &["search", "--timeline", "three-branch"],
            // the paper's two-branch machine cannot observe k ≠ 2
            &[
                "partition",
                "--timeline",
                "split@0:0=0.4,0.3,0.3",
                "--strategy",
                "semi-active",
            ],
            &[
                "partition",
                "--timeline",
                "three-branch",
                "--strategy",
                "semi-active",
            ],
            &[
                "partition",
                "--timeline",
                "heal-resplit",
                "--strategy",
                "semi-active",
            ],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn semi_active_is_accepted_on_two_branch_timelines() {
        let JobRequest::Partition { spec, .. } = job(&[
            "partition",
            "--timeline",
            "split@0:0=0.5,0.5",
            "--strategy",
            "semi-active",
        ]) else {
            panic!("two-branch semi-active did not parse");
        };
        assert_eq!(spec.scenarios[0].strategy, StrategyKind::SemiActive);
    }

    #[test]
    fn partition_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "partition",
            "--validators",
            "3000",
            "--threads",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli).document).unwrap();
        assert_eq!(value.get("n").and_then(|v| v.as_u64()), Some(3000));
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("scenario").and_then(|v| v.as_str()),
            Some("three-branch")
        );
        assert!(rows[0].get("conflict_epoch").is_some());
    }

    #[test]
    fn chaos_parses_with_defaults() {
        let Ok(Cli::Job {
            request,
            out,
            stats_out,
            obs,
        }) = parse_args(args(&["chaos"]))
        else {
            panic!("bare chaos did not parse");
        };
        let JobRequest::Chaos { spec, format } = *request else {
            panic!("not a chaos campaign");
        };
        assert_eq!(format, DocumentFormat::Text);
        assert_eq!(out, None);
        assert_eq!(stats_out, None);
        assert_eq!(obs, ObsOutputs::default());
        assert_eq!(spec, ChaosSpec::default());
        assert_eq!(spec.n, 1_000_000);
        assert_eq!(spec.backend, BackendKind::Cohort);
        assert_eq!(spec.budget, 256);
        assert_eq!(spec.seed, 1);
    }

    #[test]
    fn chaos_knobs_reach_the_spec() {
        let JobRequest::Chaos { spec, .. } = job(&[
            "chaos",
            "--budget",
            "64",
            "--seed=9",
            "--epochs",
            "2048",
            "--validators",
            "65536",
            "--backend=dense",
            "--threads",
            "2",
        ]) else {
            panic!("not a chaos campaign");
        };
        assert_eq!(spec.budget, 64);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.max_epochs, 2048);
        assert_eq!(spec.n, 65536);
        assert_eq!(spec.backend, BackendKind::Dense);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn chaos_misuse_is_a_usage_error() {
        for bad in [
            &["chaos", "fig2"] as &[&str],
            &["chaos", "sweep"],
            &["chaos", "search"],
            &["chaos", "partition"],
            &["chaos", "--budget", "0"],
            &["chaos", "--walkers", "100"],
            &["chaos", "--grid", "beta0=0.3"],
            // the campaign samples its own splits and adversaries
            &["chaos", "--beta0", "0.3"],
            &["chaos", "--p0", "0.5"],
            &["chaos", "--objective", "conflict"],
            &["chaos", "--max-period", "2"],
            &["chaos", "--timeline", "three-branch"],
            &["chaos", "--strategy", "rotate"],
        ] {
            assert!(
                matches!(parse_args(args(bad)), Err(CliError::Usage(_))),
                "{bad:?} was accepted"
            );
        }
    }

    #[test]
    fn chaos_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "chaos",
            "--budget",
            "3",
            "--seed=5",
            "--validators",
            "4096",
            "--epochs",
            "256",
            "--threads",
            "1",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli).document).unwrap();
        assert_eq!(value.get("budget").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(value.get("seed").and_then(|v| v.as_u64()), Some(5));
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(value.get("counts").is_some());
        let violations = value.get("violations").and_then(|v| v.as_array()).unwrap();
        assert!(violations.is_empty(), "healthy engine, no violations");
    }

    #[test]
    fn sweep_run_emits_valid_json() {
        let cli = parse_args(args(&[
            "sweep",
            "--grid",
            "beta0=0.3,0.333",
            "--walkers",
            "256",
            "--epochs",
            "100",
            "--format",
            "json",
        ]))
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&run(&cli).document).unwrap();
        assert_eq!(value.get("epochs").and_then(|v| v.as_u64()), Some(100));
        let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
    }

    /// The content addresses of command lines, pinned to the values the
    /// per-mode CLI parser this one replaced produced: a cached artifact
    /// must stay reachable from the same invocation.
    #[test]
    fn cli_request_addresses_are_pinned() {
        for (argv, hash) in [
            (
                &["fig2"] as &[&str],
                "b9347c185fa0a682c8f96ba2b5e5be459dd43b46b9331df06b327ea681e76086",
            ),
            (
                &["sweep"],
                "04de336d8ba2b56ee376c69a79abe06ff6810b42a7255b1d09bce9174c0f1793",
            ),
            (
                &["search"],
                "cb8ed1ce50bf5760ffc967965197beeace683100ab8979a3a881df4892ba30fa",
            ),
            (
                &["partition"],
                "c309e1020e5cd9029f080c731a998a74df5721989f94920761e584ffb730b34b",
            ),
            (
                &["chaos"],
                "bca957a68cbb6bc8508b7a01f4e4e18269e468ce1711fa83bf65f5a828faace3",
            ),
            (
                &[
                    "fig2",
                    "table2",
                    "all",
                    "--walkers",
                    "1000",
                    "--epochs",
                    "500",
                    "--seed",
                    "7",
                    "--validators",
                    "600",
                    "--backend",
                    "dense",
                    "--format",
                    "json",
                ],
                "1aa43ecd67c800332d5b96303d476dbd1425738a62e0a5274117a8b8f3c31f88",
            ),
            (
                &[
                    "sweep",
                    "--grid",
                    "beta0=0.3,0.32",
                    "--grid=semantics=paper,spec",
                    "--grid",
                    "p0=0.5,0.6,",
                    "--epochs",
                    "200",
                    "--seed=9",
                    "--validators",
                    "1200",
                    "--backend",
                    "dense",
                    "--format",
                    "json",
                ],
                "72d398e8150ac023be5723e4e2866903deabbc7dd2f2c48f775f3295a2c7721e",
            ),
            (
                &["sweep", "--walkers", "100", "--grid", "walkers=200,300"],
                "53f1acd198e54be3ad8f973f88b77fd066f7618d7d5e157b707d18f5f012ccb5",
            ),
            (
                &["sweep", "--grid", "walkers=200,300", "--walkers", "100"],
                "53f1acd198e54be3ad8f973f88b77fd066f7618d7d5e157b707d18f5f012ccb5",
            ),
            (
                &[
                    "sweep",
                    "--walkers",
                    "500",
                    "--grid",
                    "validators=600,1000000",
                ],
                "f3f5a1570eb03f23ef154206efa471ccc803ff40e89f1b16a756530a113e72ad",
            ),
            (
                &[
                    "search",
                    "--objective",
                    "non-slashable-horizon",
                    "--budget",
                    "64",
                    "--beta0",
                    "0.25",
                    "--p0",
                    "0.6",
                    "--validators",
                    "1200",
                    "--backend",
                    "dense",
                    "--epochs",
                    "700",
                    "--max-period",
                    "2",
                    "--seed",
                    "5",
                    "--format",
                    "json",
                ],
                "d8cb058339a96e557d2ed6e12995c151c1b270820a5b20d0a26d55d8eb2b7335",
            ),
            (
                &[
                    "partition",
                    "--timeline",
                    "three-branch",
                    "--beta0",
                    "0.3",
                    "--strategy",
                    "rotate",
                ],
                "23d420e7c2cd3e4a9581d8d418311d3ec3bcf767babcda3623b42cf22562de12",
            ),
            (
                &[
                    "partition",
                    "--timeline",
                    "split@0:0=0.5,0.5; heal@300:0<-1",
                    "--timeline=heal-resplit",
                    "--epochs",
                    "700",
                    "--validators",
                    "3000",
                    "--backend",
                    "dense",
                    "--seed",
                    "4",
                    "--format",
                    "json",
                ],
                "cc47f6175536ca48c2cbde032273448c816499bc90fffdc4fad23c883fff49a5",
            ),
            (
                &[
                    "chaos",
                    "--budget",
                    "8",
                    "--seed",
                    "3",
                    "--epochs",
                    "256",
                    "--validators",
                    "2000",
                    "--backend",
                    "dense",
                    "--format",
                    "json",
                ],
                "37e234f9a772d37912c05c4d6417ab38eb28da1c052e98312deafa00b7db7666",
            ),
            // the last of a repeated flag wins
            (
                &["fig10", "--seed", "1", "--seed", "2"],
                "a160a7a065ca352b0d79b0dbecf0ebbf6f577bed2357f82acacd31eaf04118bf",
            ),
            // `--threads` never reaches the address
            (
                &["partition", "--validators", "3000", "--threads", "1"],
                "50129b2b3a78d21948d9bedf59acdebb832d990c345d12016846edc1dd3dc224",
            ),
            (
                &["partition", "--validators", "3000", "--threads", "8"],
                "50129b2b3a78d21948d9bedf59acdebb832d990c345d12016846edc1dd3dc224",
            ),
        ] {
            assert_eq!(job(argv).request_hash(), hash, "{argv:?}");
        }
    }

    /// `--help` states the defaults each mode resolves to, and lists
    /// exactly the flags `parse_args` takes. A default is checked in the
    /// mode section it is listed under: spelling it out must leave the
    /// address of the mode's minimal request unchanged (search at its
    /// default objective, partition on a raw timeline).
    #[test]
    fn help_states_the_resolved_defaults_and_every_flag() {
        let help = usage();
        let hash = |argv: Vec<String>| match parse_args(argv.clone()) {
            Ok(Cli::Job { request, .. }) => request.request_hash(),
            other => panic!("{argv:?} parsed to {other:?}"),
        };
        let raw = ["--timeline", "split@0:0=0.5,0.5"];
        // Each row of the request section, its continuation lines joined.
        let (mut kind, mut rows) = ("", Vec::<(&str, String)>::new());
        let section = help
            .split("REQUEST FIELDS")
            .nth(1)
            .expect("a request section");
        for line in section.lines() {
            match line.len() - line.trim_start().len() {
                2 => kind = line.trim().trim_end_matches(':'),
                4 if !kind.is_empty() => rows.push((kind, line.trim().to_string())),
                n if n > 4 && !rows.is_empty() => {
                    let row = &mut rows.last_mut().expect("a row").1;
                    *row = format!("{row} {}", line.trim());
                }
                _ => {}
            }
        }
        let mut checked = Vec::new();
        for (kind, row) in &rows {
            let Some((_, default)) = row.split_once("[default: ") else {
                continue;
            };
            let default = default.split([';', ']']).next().expect("a value");
            let mut words = row.split_whitespace();
            let flag = words.next().expect("a spelling");
            let (drop_raw, added) = match flag {
                "--grid" => {
                    let axis = words
                        .next()
                        .and_then(|w| w.split_once('='))
                        .expect("axis")
                        .0;
                    (false, vec![flag.to_string(), format!("{axis}={default}")])
                }
                "--timeline" => {
                    let each = default.split(',').flat_map(|t| [flag, t]);
                    (true, each.map(String::from).collect())
                }
                _ => (false, vec![flag.to_string(), default.to_string()]),
            };
            let kinds: Vec<&str> = match *kind {
                "any mode" => MODES.iter().map(|m| m.kind).collect(),
                kind => vec![kind],
            };
            for kind in kinds {
                let base = match kind {
                    "experiment" => args(&["fig2"]),
                    "partition" if !drop_raw => args(&[&["partition"][..], &raw].concat()),
                    kind => args(&[kind]),
                };
                let spelled = [base.clone(), added.clone()].concat();
                assert_eq!(
                    hash(base),
                    hash(spelled.clone()),
                    "--help's default: {spelled:?}"
                );
                checked.push(kind);
            }
        }
        for m in &MODES {
            assert!(
                checked.contains(&m.kind),
                "no default checked for {}",
                m.kind
            );
        }

        let unknown = |flag: &str| {
            let parsed = parse_args(args(&[flag, "1"]));
            matches!(parsed, Err(CliError::Usage(m)) if m.starts_with("unknown option"))
        };
        let word = |c: char| c.is_ascii_alphanumeric() || c == '-';
        let listed: Vec<&str> = help
            .split(|c| !word(c))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect();
        for flag in &listed {
            assert!(
                !unknown(flag),
                "--help lists {flag}, which parse_args rejects"
            );
        }
        let fields = MODES.iter().flat_map(Mode::all_fields).map(|f| f.name);
        let names = fields.chain(CLI_FLAGS).chain(["help", "list"]);
        for flag in names.map(|name| format!("--{}", name.replace('_', "-"))) {
            assert!(
                unknown(&flag) || listed.contains(&flag.as_str()),
                "{flag} is not in --help"
            );
        }
    }

    /// The tables the never-panics property draws arguments from:
    /// subcommands and ids, every flag, and values and timeline
    /// fragments that probe the number and timeline parsers' edges.
    const WORDS: &[&str] = &[
        "sweep",
        "search",
        "partition",
        "chaos",
        "serve",
        "all",
        "fig2",
        "table2",
        "fig10",
        "frontier",
        "fig42",
    ];
    const FLAGS: &[&str] = &[
        "--help",
        "--list",
        "--format",
        "--walkers",
        "--epochs",
        "--seed",
        "--validators",
        "--backend",
        "--objective",
        "--budget",
        "--beta0",
        "--p0",
        "--max-period",
        "--lambda",
        "--strategy",
        "--timeline",
        "--grid",
        "--threads",
        "--out",
        "--stats-out",
        "--metrics-out",
        "--trace-out",
        "--addr",
        "--cache-dir",
        "--bogus",
        "-x",
    ];
    const VALUES: &[&str] = &[
        "2",
        "64",
        "0.3",
        "0",
        "-1",
        "1e3",
        "0.5",
        "nan",
        "inf",
        "18446744073709551616",
        "json",
        "dense",
        "rotate",
        "semi-active",
        "three-branch",
        "beta0=0.3,nan",
        "walkers=0,1e3",
        "semantics=",
        "x",
        "",
        "split@",
        "heal@0:0<-",
        "churn@0:0=1,",
        "split@18446744073709551615:0=0.5,0.5",
        "split@0:0=0.5,0.5; heal@18446744073709551615:0<-1",
        "split@0:0=0.5,0.5; churn@18446744073709551615:1=0.5,0.5",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200_000))]
        #[test]
        fn parse_args_never_panics(picks in proptest::collection::vec(any::<u64>(), 0..8)) {
            // The first pick is a word; each later one a word, a bare
            // flag, `--flag=value` or `--flag value`, mostly the last
            // two. About 1 vector in 2 700 gets past every earlier check
            // to the timeline compiler, hence the case count.
            let mut argv = Vec::new();
            for (i, pick) in picks.into_iter().enumerate() {
                let word = WORDS[pick as usize % WORDS.len()];
                let flag = FLAGS[(pick >> 8) as usize % FLAGS.len()];
                let value = VALUES[(pick >> 16) as usize % VALUES.len()];
                match if i == 0 { 0 } else { (pick >> 24) % 8 } {
                    0 => argv.push(word.to_string()),
                    1 => argv.push(flag.to_string()),
                    2 | 3 => argv.push(format!("{flag}={value}")),
                    _ => argv.extend([flag.to_string(), value.to_string()]),
                }
            }
            // `CliError::Usage` is the only error: returning at all means
            // no panic.
            let _ = parse_args(argv);
        }
    }
}
