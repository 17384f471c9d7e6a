//! Canonical experiment requests: the service-facing surface of the
//! workspace.
//!
//! A [`JobRequest`] is one of the five run modes (`experiment`, `sweep`,
//! `search`, `partition`, `chaos`) parsed from a JSON body into the
//! existing spec types. [`MODES`] is the one place a mode's fields live:
//! each row names a field, its type with its valid range or id set, and a
//! help line stating the mode's default. [`JobRequest::from_json`] checks
//! a body against the rows before the mode reads it, and `ethpos-cli`
//! derives its flags and `--help` from them, so a request and the
//! equivalent command line have the same address and produce
//! **byte-identical documents**. Three properties make results cacheable
//! forever:
//!
//! 1. **Strict parsing.** Unknown or repeated fields and malformed
//!    values are errors, never silently ignored — otherwise two
//!    spellings of the same request could hash differently (or worse,
//!    two different requests identically).
//! 2. **Canonicalization.** [`JobRequest::canonical_value`] renders the
//!    *resolved* spec — defaults filled in, fields in a fixed order,
//!    `threads` excluded (it never changes output bytes; see
//!    `ARCHITECTURE.md`, "The determinism model"). Any two requests
//!    that would produce the same document canonicalize identically.
//! 3. **Salting.** [`JobRequest::request_hash`] prefixes
//!    [`ARTIFACT_SALT`] before hashing, so a semantics or golden-corpus
//!    version bump invalidates every cached artifact at once instead of
//!    serving stale bytes.
//!
//! [`JobRequest::execute`] runs the request and returns the document
//! plus the `--stats-out`-equivalent side channel; `ethpos-cli` routes
//! its run modes through it, and `ethpos-server` caches its output
//! under the request hash.

use serde::Serialize;
use serde_json::Value;

use crate::chaos::{ChaosReport, ChaosSpec};
use crate::experiments::{run_experiment_with, Experiment, ExperimentOutput, McConfig};
use crate::partition::{self, PartitionReport, PartitionSpec, StrategyKind};
use crate::stake_model::PenaltySemantics;
use crate::sweep::{SweepResult, SweepSpec};
use ethpos_search::{Frontier, Objective, SearchSpec};
use ethpos_state::BackendKind;

/// Version salt mixed into every [`JobRequest::request_hash`].
///
/// Bump the trailing version whenever the meaning of a spec changes
/// without its canonical form changing — a penalty-semantics fix, a
/// golden-corpus regeneration, a renderer change — so every cached
/// artifact keyed on the old behaviour is invalidated at once.
pub const ARTIFACT_SALT: &str = "ethpos/artifact/v1";

/// Output format of the rendered document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DocumentFormat {
    /// Rendered tables and series summaries.
    Text,
    /// The full output as JSON (the service default: machine callers
    /// want machine documents).
    #[default]
    Json,
}

impl DocumentFormat {
    /// Wire identifier (`"text"` / `"json"`).
    pub fn id(&self) -> &'static str {
        match self {
            DocumentFormat::Text => "text",
            DocumentFormat::Json => "json",
        }
    }

    /// Parses [`DocumentFormat::id`] back.
    pub fn from_id(id: &str) -> Option<DocumentFormat> {
        match id {
            "text" => Some(DocumentFormat::Text),
            "json" => Some(DocumentFormat::Json),
            _ => None,
        }
    }
}

/// A malformed request: the message the service returns with its 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError(pub String);

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RequestError {}

fn err<T>(msg: impl Into<String>) -> Result<T, RequestError> {
    Err(RequestError(msg.into()))
}

/// The JSON value a request field takes, with its valid range or id set.
#[derive(Debug, Clone, Copy)]
pub enum FieldType {
    /// An integer in `.0..=.1`.
    Int(u64, u64),
    /// A float in the open unit interval (0, 1).
    Unit,
    /// One id of a set: what an id names (for messages) and the set.
    Id(&'static str, fn() -> Vec<&'static str>),
    /// A string the mode parses itself (a partition timeline).
    Text,
    /// A non-empty array of the inner type.
    Array(&'static FieldType),
}

impl FieldType {
    /// Checks `value` against the type; the error names the field.
    fn check(&self, name: &str, value: &Value) -> Result<(), RequestError> {
        let valid = match *self {
            FieldType::Int(min, max) => value.as_u64().is_some_and(|n| (min..=max).contains(&n)),
            FieldType::Unit => value.as_f64().is_some_and(|x| x > 0.0 && x < 1.0),
            FieldType::Id(noun, ids) => match value.as_str() {
                Some(id) if !ids().contains(&id) => {
                    let ids = ids().join(", ");
                    return err(format!("`{name}`: unknown {noun} `{id}` (expected {ids})"));
                }
                id => id.is_some(),
            },
            FieldType::Text => value.as_str().is_some(),
            FieldType::Array(each) => match value.as_array() {
                Some(items) if !items.is_empty() => {
                    return items.iter().try_for_each(|item| each.check(name, item))
                }
                _ => false,
            },
        };
        match valid {
            true => Ok(()),
            false => err(format!("`{name}` must be {}", self.describe())),
        }
    }

    fn describe(&self) -> String {
        match *self {
            FieldType::Int(0, u64::MAX) => "a non-negative integer".into(),
            FieldType::Int(1, u64::MAX) => "a positive integer".into(),
            FieldType::Int(min, max) => format!("an integer in {min}..={max}"),
            FieldType::Unit => "a float in (0, 1)".into(),
            FieldType::Id(noun, _) => format!("a {noun} id (a string)"),
            FieldType::Text => "a string".into(),
            FieldType::Array(each) => format!("a non-empty array, each entry {}", each.describe()),
        }
    }
}

/// One request field: its name (the JSON key; `--name` on the command
/// line, `_` spelled `-`), its type, and a help line stating the mode's
/// default.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The JSON key.
    pub name: &'static str,
    /// The value it takes.
    pub ty: FieldType,
    /// One line of help; a default is stated as `[default: V]`.
    pub help: &'static str,
}

const fn field(name: &'static str, ty: FieldType, help: &'static str) -> Field {
    Field { name, ty, help }
}

/// One run mode: its `kind` and its fields. The constructor reads a body
/// whose fields the table has already checked.
#[derive(Debug)]
pub struct Mode {
    /// The `kind` a request names the mode by.
    pub kind: &'static str,
    /// The mode's fields beside `kind` and [`FORMAT`].
    pub fields: &'static [Field],
    build: fn(&Fields<'_>, DocumentFormat) -> Result<JobRequest, RequestError>,
}

impl Mode {
    /// Every field the mode takes besides `kind`: [`FORMAT`], then its own.
    pub fn all_fields(&self) -> impl Iterator<Item = &'static Field> {
        std::iter::once(&FORMAT).chain(self.fields)
    }

    /// The mode's field `name`.
    pub fn field(&self, name: &str) -> Option<&'static Field> {
        self.all_fields().find(|f| f.name == name)
    }
}

/// The run mode a request of `kind` names.
pub fn mode(kind: &str) -> Option<&'static Mode> {
    MODES.iter().find(|m| m.kind == kind)
}

const COUNT: FieldType = FieldType::Int(1, u64::MAX);
const COUNTS: FieldType = FieldType::Array(&COUNT);
const SEED: FieldType = FieldType::Int(0, u64::MAX);
const PERIOD: FieldType = FieldType::Int(1, 8);
const UNIT: FieldType = FieldType::Unit;
const UNITS: FieldType = FieldType::Array(&UNIT);
const TIMELINES: FieldType = FieldType::Array(&FieldType::Text);
const BACKEND: FieldType = FieldType::Id("backend", || {
    vec![BackendKind::Dense.id(), BackendKind::Cohort.id()]
});
const EXPERIMENTS: FieldType = FieldType::Array(&FieldType::Id("experiment", || {
    let ids = Experiment::all().map(|e| e.id());
    ids.into_iter().chain(["all"]).collect()
}));
const SEMANTICS: FieldType = FieldType::Array(&FieldType::Id("semantics", || {
    vec![PenaltySemantics::Paper.id(), PenaltySemantics::Spec.id()]
}));
const OBJECTIVE: FieldType =
    FieldType::Id("objective", || Objective::all().map(|o| o.id()).to_vec());
const STRATEGY: FieldType =
    FieldType::Id("strategy", || StrategyKind::all().map(|s| s.id()).to_vec());

/// The field every mode takes: the document format.
pub const FORMAT: Field = field(
    "format",
    FieldType::Id("format", || {
        vec![DocumentFormat::Text.id(), DocumentFormat::Json.id()]
    }),
    "document format (a request body defaults to json, the CLI to text)",
);

/// Every run mode's request fields: the one place a mode's field set,
/// types, ranges and defaults are written down.
pub const MODES: [Mode; 5] = [
    Mode {
        kind: "experiment",
        build: experiment,
        fields: &[
            field(
                "experiments",
                EXPERIMENTS,
                "the experiments to run, in order; `all` is every one (required)",
            ),
            field("walkers", COUNT, "Monte-Carlo walkers [default: 20000]"),
            field("epochs", COUNT, "Monte-Carlo epoch horizon [default: 8000]"),
            field("seed", SEED, "Monte-Carlo root seed [default: 42]"),
            field(
                "validators",
                COUNT,
                "registry size of the discrete cross-checks of fig2, table2 and table3, \
                 which run only when it is given",
            ),
            field("backend", BACKEND, "state backend [default: cohort]"),
        ],
    },
    Mode {
        kind: "sweep",
        build: sweep,
        fields: &[
            field("beta0", UNITS, "β0 values [default: 0.3,0.33,0.333]"),
            field("p0", UNITS, "honest splits [default: 0.5]"),
            field("walkers", COUNTS, "Monte-Carlo walkers [default: 20000]"),
            field("semantics", SEMANTICS, "penalty semantics [default: paper]"),
            field("validators", COUNTS, "t_disc registry sizes (default none)"),
            field("backend", BACKEND, "state backend [default: cohort]"),
            field("epochs", COUNT, "Monte-Carlo epoch horizon [default: 3000]"),
            field("seed", SEED, "Monte-Carlo root seed [default: 11]"),
        ],
    },
    Mode {
        kind: "search",
        build: search,
        fields: &[
            field("objective", OBJECTIVE, "damage metric [default: conflict]"),
            field("validators", COUNT, "registry size [default: 1000000]"),
            field(
                "beta0",
                UNIT,
                "initial Byzantine proportion [default: 0.3; non-slashable-horizon: 0.33]",
            ),
            field("p0", UNIT, "honest split [default: 0.5]"),
            field(
                "epochs",
                COUNT,
                "epoch horizon [default: 5200; proportion, non-slashable-horizon: 8192]",
            ),
            field("backend", BACKEND, "state backend [default: cohort]"),
            field("budget", COUNT, "candidate evaluations [default: 256]"),
            field("max_period", PERIOD, "duty-period bound [default: 3]"),
            field("lambda", COUNT, "offspring per generation [default: 16]"),
            field("seed", SEED, "search seed [default: 1]"),
        ],
    },
    Mode {
        kind: "partition",
        build: partition,
        fields: &[
            field(
                "timelines",
                TIMELINES,
                "presets (three-branch, heal-resplit) or raw specs of `;`-separated \
                 split@E:B=W1,W2,… churn@E:B=W1,W2,… heal@E:S<-B1+B2 events \
                 [default: three-branch,heal-resplit]; a preset keeps its own strategy, \
                 beta0 and epochs unless they are given",
            ),
            field("strategy", STRATEGY, "adversary [default: rotate-dwell]"),
            field(
                "beta0",
                UNIT,
                "initial Byzantine proportion [default: 0.33]",
            ),
            field("epochs", COUNT, "epoch horizon [default: 6000]"),
            field("validators", COUNT, "registry size [default: 1000000]"),
            field("backend", BACKEND, "state backend [default: cohort]"),
            field("seed", SEED, "churn draw seed [default: 0]"),
        ],
    },
    Mode {
        kind: "chaos",
        build: chaos,
        fields: &[
            field("budget", COUNT, "sampled cases [default: 256]"),
            field("seed", SEED, "campaign root seed [default: 1]"),
            field("validators", COUNT, "registry size [default: 1000000]"),
            field("epochs", COUNT, "epoch cap of each case [default: 4096]"),
            field("backend", BACKEND, "state backend [default: cohort]"),
        ],
    },
];

/// One canonicalized experiment request — the unit the service hashes,
/// caches and executes.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// `kind: "experiment"` — one or more paper experiments
    /// ([`crate::experiments`]).
    Run {
        /// Experiments in run order (deduplicated).
        experiments: Vec<Experiment>,
        /// Monte-Carlo sizing and the discrete cross-check knobs.
        mc: McConfig,
        /// Document format.
        format: DocumentFormat,
    },
    /// `kind: "sweep"` — a parameter grid ([`SweepSpec`]).
    Sweep {
        /// The grid.
        spec: SweepSpec,
        /// Document format.
        format: DocumentFormat,
    },
    /// `kind: "search"` — an adversary-strategy search
    /// ([`ethpos_search`]).
    Search {
        /// The search.
        spec: SearchSpec,
        /// Document format.
        format: DocumentFormat,
    },
    /// `kind: "partition"` — a partition-timeline batch
    /// ([`crate::partition`]).
    Partition {
        /// The scenario batch.
        spec: PartitionSpec,
        /// Document format.
        format: DocumentFormat,
    },
    /// `kind: "chaos"` — a randomized campaign ([`crate::chaos`]).
    Chaos {
        /// The campaign.
        spec: ChaosSpec,
        /// Document format.
        format: DocumentFormat,
    },
}

/// What one executed request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// The rendered document (what the CLI prints / `--out` writes).
    pub document: String,
    /// The `--stats-out`-equivalent work counters as pretty JSON
    /// (search, partition and chaos; `None` for the stat-free modes).
    pub stats: Option<String>,
}

impl JobRequest {
    /// Parses a JSON request body.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] on invalid JSON, a missing/unknown
    /// `kind`, an unknown or repeated field, or a malformed value — the
    /// service maps these to HTTP 400 without touching the cache.
    pub fn parse(body: &str) -> Result<JobRequest, RequestError> {
        let value: Value =
            serde_json::from_str(body).map_err(|e| RequestError(format!("invalid JSON: {e:?}")))?;
        JobRequest::from_json(&value)
    }

    /// Parses an already-decoded JSON value (see [`JobRequest::parse`]):
    /// every field is checked against its [`MODES`] row, then the mode's
    /// constructor reads the checked values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`JobRequest::parse`].
    pub fn from_json(value: &Value) -> Result<JobRequest, RequestError> {
        let Value::Object(fields) = value else {
            return err("request body must be a JSON object");
        };
        let kinds = || MODES.map(|m| m.kind).join(", ");
        let Some(kind) = value.get("kind").and_then(Value::as_str) else {
            return err(format!("missing `kind` ({})", kinds()));
        };
        let Some(mode) = mode(kind) else {
            return err(format!("unknown kind `{kind}` (expected {})", kinds()));
        };
        for (i, (key, value)) in fields.iter().enumerate() {
            match mode.field(key) {
                Some(field) => field.ty.check(key, value)?,
                None if key == "kind" => {}
                None => {
                    let names: Vec<_> = mode.all_fields().map(|f| f.name).collect();
                    return err(format!(
                        "unknown field `{key}` for kind `{kind}` (allowed: {})",
                        names.join(", ")
                    ));
                }
            }
            // A repeated key (`kind` included) would otherwise resolve to
            // its first value silently. The keys before `i` are known and
            // distinct, so this scan stays short however large the body.
            if fields[..i].iter().any(|(k, _)| k == key) {
                return err(format!("duplicate field `{key}`"));
            }
        }
        let fields = Fields(fields);
        let format = fields.id("format", DocumentFormat::from_id);
        (mode.build)(&fields, format.unwrap_or_default())
    }
    /// The request's kind id (the `kind` field it parses from).
    pub fn kind(&self) -> &'static str {
        match self {
            JobRequest::Run { .. } => "experiment",
            JobRequest::Sweep { .. } => "sweep",
            JobRequest::Search { .. } => "search",
            JobRequest::Partition { .. } => "partition",
            JobRequest::Chaos { .. } => "chaos",
        }
    }

    /// The requested document format.
    pub fn format(&self) -> DocumentFormat {
        match self {
            JobRequest::Run { format, .. }
            | JobRequest::Sweep { format, .. }
            | JobRequest::Search { format, .. }
            | JobRequest::Partition { format, .. }
            | JobRequest::Chaos { format, .. } => *format,
        }
    }

    /// Overrides the worker-thread budget (a deployment knob, never part
    /// of the canonical form — thread count cannot change output bytes).
    pub fn set_threads(&mut self, threads: usize) {
        match self {
            JobRequest::Run { mc, .. } => mc.threads = threads,
            JobRequest::Sweep { spec, .. } => spec.threads = threads,
            JobRequest::Search { spec, .. } => spec.threads = threads,
            JobRequest::Partition { spec, .. } => spec.threads = threads,
            JobRequest::Chaos { spec, .. } => spec.threads = threads,
        }
    }

    /// The resolved request as a canonical JSON value: defaults filled
    /// in, fields in a fixed order, `threads` excluded. Two requests
    /// canonicalize identically iff they would produce the same
    /// document.
    ///
    /// This is the preimage of [`JobRequest::request_hash`], not a wire
    /// format: [`JobRequest::from_json`] need not accept it (it rejects
    /// the canonical form of every kind but `search`, e.g. `partition`'s
    /// resolved `scenarios` and `chaos`'s oracle thresholds), and making
    /// it re-parse would move every cache address.
    pub fn canonical_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("kind".into(), Value::String(self.kind().into())),
            ("format".into(), Value::String(self.format().id().into())),
        ];
        match self {
            JobRequest::Run {
                experiments, mc, ..
            } => {
                let ids = experiments.iter().map(|e| e.id());
                fields.push(("experiments".into(), id_array(ids)));
                fields.push(("walkers".into(), Value::U64(mc.walkers as u64)));
                fields.push(("epochs".into(), Value::U64(mc.epochs)));
                fields.push(("seed".into(), Value::U64(mc.seed)));
                fields.push((
                    "validators".into(),
                    match mc.validators {
                        Some(n) => Value::U64(n as u64),
                        None => Value::Null,
                    },
                ));
                fields.push(("backend".into(), Value::String(mc.backend.id().into())));
            }
            JobRequest::Sweep { spec, .. } => {
                fields.push(("beta0".into(), f64_array(&spec.beta0)));
                fields.push(("p0".into(), f64_array(&spec.p0)));
                fields.push(("walkers".into(), count_array(&spec.walkers)));
                let semantics = spec.semantics.iter().map(|s| s.id());
                fields.push(("semantics".into(), id_array(semantics)));
                fields.push(("validators".into(), count_array(&spec.validators)));
                fields.push(("backend".into(), Value::String(spec.backend.id().into())));
                fields.push(("epochs".into(), Value::U64(spec.epochs)));
                fields.push(("seed".into(), Value::U64(spec.seed)));
            }
            JobRequest::Search { spec, .. } => {
                fields.push((
                    "objective".into(),
                    Value::String(spec.objective.id().into()),
                ));
                fields.push(("validators".into(), Value::U64(spec.n as u64)));
                fields.push(("beta0".into(), Value::F64(spec.beta0)));
                fields.push(("p0".into(), Value::F64(spec.p0)));
                fields.push(("epochs".into(), Value::U64(spec.epochs)));
                fields.push(("backend".into(), Value::String(spec.backend.id().into())));
                fields.push(("budget".into(), Value::U64(spec.budget as u64)));
                fields.push(("max_period".into(), Value::U64(spec.max_period as u64)));
                fields.push(("lambda".into(), Value::U64(spec.lambda as u64)));
                fields.push(("seed".into(), Value::U64(spec.seed)));
            }
            JobRequest::Partition { spec, .. } => {
                fields.push(("validators".into(), Value::U64(spec.n as u64)));
                fields.push(("backend".into(), Value::String(spec.backend.id().into())));
                fields.push(("seed".into(), Value::U64(spec.seed)));
                fields.push((
                    "scenarios".into(),
                    Value::Array(
                        spec.scenarios
                            .iter()
                            .map(|s| {
                                Value::Object(vec![
                                    ("name".into(), Value::String(s.name.clone())),
                                    ("timeline".into(), Value::String(s.timeline.render())),
                                    ("strategy".into(), Value::String(s.strategy.id().into())),
                                    ("beta0".into(), Value::F64(s.beta0)),
                                    ("epochs".into(), Value::U64(s.epochs)),
                                    ("stop_on_conflict".into(), Value::Bool(s.stop_on_conflict)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            JobRequest::Chaos { spec, .. } => {
                fields.push(("budget".into(), Value::U64(spec.budget)));
                fields.push(("seed".into(), Value::U64(spec.seed)));
                fields.push(("validators".into(), Value::U64(spec.n as u64)));
                fields.push(("max_epochs".into(), Value::U64(spec.max_epochs)));
                fields.push(("backend".into(), Value::String(spec.backend.id().into())));
                // Oracle and cross-check thresholds are part of the
                // request's meaning (they decide verdicts), so they are
                // part of its canonical form even though the API does
                // not expose them yet.
                fields.push(("oracle".into(), serde_json::to_value(&spec.oracle)));
                fields.push(("crosscheck".into(), serde_json::to_value(&spec.crosscheck)));
            }
        }
        Value::Object(fields)
    }

    /// [`JobRequest::canonical_value`] rendered as compact JSON.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(&self.canonical_value()).expect("canonical value serializes")
    }

    /// The content-address of this request's artifact: the hex digest of
    /// [`ARTIFACT_SALT`] + the canonical JSON. Everything that can change
    /// a document byte is inside; nothing else is.
    pub fn request_hash(&self) -> String {
        let payload = format!("{ARTIFACT_SALT}\n{}", self.canonical_json());
        let digest = ethpos_crypto::hash(payload.as_bytes());
        digest
            .as_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Runs the request to completion and renders the document (and, for
    /// the stats-bearing modes, the work-counter side channel). This is
    /// the single execution path shared by `ethpos-cli` and
    /// `ethpos-server`: document bytes depend only on the canonical
    /// form, never on the caller.
    pub fn execute(&self) -> JobOutput {
        let format = self.format();
        match self {
            JobRequest::Run {
                experiments, mc, ..
            } => {
                let outputs: Vec<ExperimentOutput> = experiments
                    .iter()
                    .map(|e| run_experiment_with(*e, mc))
                    .collect();
                let text = |outputs: &Vec<ExperimentOutput>| {
                    outputs.iter().map(|o| o.render_text() + "\n").collect()
                };
                let json = |outputs: &Vec<ExperimentOutput>| match outputs.as_slice() {
                    [single] => single.to_json(),
                    many => {
                        let items: Vec<String> = many.iter().map(|o| o.to_json()).collect();
                        format!("[{}]", items.join(",\n"))
                    }
                };
                output(format, outputs, text, json, None)
            }
            JobRequest::Sweep { spec, .. } => {
                let (text, json) = (SweepResult::render_text, SweepResult::to_json);
                output(format, spec.run(), text, json, None)
            }
            JobRequest::Search { spec, .. } => {
                let (frontier, stats) = spec.run_with_stats();
                let (text, json) = (Frontier::render_text, Frontier::to_json);
                output(format, frontier, text, json, Some(&stats))
            }
            JobRequest::Partition { spec, .. } => {
                let (report, stats) = spec.run_with_stats();
                let (text, json) = (PartitionReport::render_text, PartitionReport::to_json);
                output(format, report, text, json, Some(&stats))
            }
            JobRequest::Chaos { spec, .. } => {
                let (report, stats) = spec.run_with_stats();
                let (text, json) = (ChaosReport::render_text, ChaosReport::to_json);
                output(format, report, text, json, Some(&stats))
            }
        }
    }
}

/// Every mode's output: the report as text or as one JSON line, and its
/// work counters as pretty JSON.
fn output<R>(
    format: DocumentFormat,
    report: R,
    text: fn(&R) -> String,
    json: fn(&R) -> String,
    stats: Option<&dyn Serialize>,
) -> JobOutput {
    let pretty = |stats| serde_json::to_string_pretty(stats).expect("serializable") + "\n";
    JobOutput {
        document: match format {
            DocumentFormat::Text => text(&report),
            DocumentFormat::Json => json(&report) + "\n",
        },
        stats: stats.map(pretty),
    }
}

fn f64_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&x| Value::F64(x)).collect())
}

fn count_array(values: &[usize]) -> Value {
    Value::Array(values.iter().map(|&n| Value::U64(n as u64)).collect())
}

fn id_array<'a>(ids: impl Iterator<Item = &'a str>) -> Value {
    Value::Array(ids.map(|id| Value::String(id.into())).collect())
}

/// A request body whose every field its mode's [`MODES`] row has
/// checked: the constructors below only read values known to be valid.
struct Fields<'a>(&'a [(String, Value)]);

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Option<&'a Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_u64)
    }

    fn usize(&self, key: &str) -> Option<usize> {
        self.u64(key).map(|n| n as usize)
    }

    fn f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    fn id<T>(&self, key: &str, from_id: fn(&str) -> Option<T>) -> Option<T> {
        self.get(key).and_then(Value::as_str).and_then(from_id)
    }

    fn array<T>(&self, key: &str, each: impl Fn(&'a Value) -> Option<T>) -> Option<Vec<T>> {
        self.get(key)?.as_array()?.iter().map(each).collect()
    }
}

fn as_usize(value: &Value) -> Option<usize> {
    value.as_u64().map(|n| n as usize)
}

fn experiment(obj: &Fields, format: DocumentFormat) -> Result<JobRequest, RequestError> {
    let Some(ids) = obj.array("experiments", Value::as_str) else {
        return err("missing `experiments` (ids, or [\"all\"])");
    };
    // Order-preserving dedup: `["all", "fig2"]` runs fig2 once.
    let mut experiments = Vec::new();
    for id in ids {
        let named = match id {
            "all" => Experiment::all().to_vec(),
            id => Experiment::from_id(id).into_iter().collect(),
        };
        for e in named {
            if !experiments.contains(&e) {
                experiments.push(e);
            }
        }
    }
    let d = McConfig::default();
    let mc = McConfig {
        walkers: obj.usize("walkers").unwrap_or(d.walkers),
        epochs: obj.u64("epochs").unwrap_or(d.epochs),
        seed: obj.u64("seed").unwrap_or(d.seed),
        validators: obj.usize("validators"),
        backend: obj.id("backend", BackendKind::from_id).unwrap_or(d.backend),
        ..d
    };
    Ok(JobRequest::Run {
        experiments,
        mc,
        format,
    })
}

fn sweep(obj: &Fields, format: DocumentFormat) -> Result<JobRequest, RequestError> {
    let d = SweepSpec::default();
    let spec = SweepSpec {
        beta0: obj.array("beta0", Value::as_f64).unwrap_or(d.beta0),
        p0: obj.array("p0", Value::as_f64).unwrap_or(d.p0),
        walkers: obj.array("walkers", as_usize).unwrap_or(d.walkers),
        semantics: obj
            .array("semantics", |v| {
                v.as_str().and_then(PenaltySemantics::from_id)
            })
            .unwrap_or(d.semantics),
        validators: obj.array("validators", as_usize).unwrap_or(d.validators),
        backend: obj.id("backend", BackendKind::from_id).unwrap_or(d.backend),
        epochs: obj.u64("epochs").unwrap_or(d.epochs),
        seed: obj.u64("seed").unwrap_or(d.seed),
        ..d
    };
    Ok(JobRequest::Sweep { spec, format })
}

fn search(obj: &Fields, format: DocumentFormat) -> Result<JobRequest, RequestError> {
    let objective = obj.id("objective", Objective::from_id);
    let d = SearchSpec::new(objective.unwrap_or(Objective::Conflict));
    let spec = SearchSpec {
        n: obj.usize("validators").unwrap_or(d.n),
        beta0: obj.f64("beta0").unwrap_or(d.beta0),
        p0: obj.f64("p0").unwrap_or(d.p0),
        epochs: obj.u64("epochs").unwrap_or(d.epochs),
        backend: obj.id("backend", BackendKind::from_id).unwrap_or(d.backend),
        budget: obj.usize("budget").unwrap_or(d.budget),
        max_period: obj.u64("max_period").map_or(d.max_period, |p| p as u8),
        lambda: obj.usize("lambda").unwrap_or(d.lambda),
        seed: obj.u64("seed").unwrap_or(d.seed),
        ..d
    };
    Ok(JobRequest::Search { spec, format })
}

/// The cross-field rules beside the table: a raw timeline takes the
/// given knobs or the raw-spec defaults, a preset its own unless a knob
/// is given, and the strategy must suit every timeline it runs on.
fn partition(obj: &Fields, format: DocumentFormat) -> Result<JobRequest, RequestError> {
    let strategy = obj.id("strategy", StrategyKind::from_id);
    let beta0 = obj.f64("beta0");
    let epochs = obj.u64("epochs");
    let timeline_error = |e: ethpos_sim::TimelineError| RequestError(format!("`timelines`: {e}"));
    let mut scenarios = match obj.array("timelines", Value::as_str) {
        None => partition::preset_scenarios(),
        Some(args) => args
            .into_iter()
            .map(|arg| {
                partition::resolve_scenario(
                    arg,
                    strategy.unwrap_or(StrategyKind::RotateDwell),
                    beta0.unwrap_or(partition::RAW_TIMELINE_BETA0),
                    epochs.unwrap_or(partition::RAW_TIMELINE_EPOCHS),
                )
                .map_err(timeline_error)
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    for scenario in &mut scenarios {
        scenario.beta0 = beta0.unwrap_or(scenario.beta0);
        scenario.epochs = epochs.unwrap_or(scenario.epochs);
        scenario.strategy = strategy.unwrap_or(scenario.strategy);
        partition::validate_scenario(scenario).map_err(|e| RequestError(e.to_string()))?;
    }
    let d = PartitionSpec::default();
    let spec = PartitionSpec {
        scenarios,
        n: obj.usize("validators").unwrap_or(d.n),
        backend: obj.id("backend", BackendKind::from_id).unwrap_or(d.backend),
        seed: obj.u64("seed").unwrap_or(d.seed),
        ..d
    };
    Ok(JobRequest::Partition { spec, format })
}

fn chaos(obj: &Fields, format: DocumentFormat) -> Result<JobRequest, RequestError> {
    let d = ChaosSpec::default();
    let spec = ChaosSpec {
        budget: obj.u64("budget").unwrap_or(d.budget),
        seed: obj.u64("seed").unwrap_or(d.seed),
        n: obj.usize("validators").unwrap_or(d.n),
        max_epochs: obj.u64("epochs").unwrap_or(d.max_epochs),
        backend: obj.id("backend", BackendKind::from_id).unwrap_or(d.backend),
        ..d
    };
    Ok(JobRequest::Chaos { spec, format })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn parse(body: &str) -> JobRequest {
        JobRequest::parse(body).unwrap_or_else(|e| panic!("{body}: {e}"))
    }

    #[test]
    fn defaults_and_explicit_values_canonicalize_identically() {
        // A request that spells out a default must hash like the request
        // that omits it — the cache would otherwise recompute known
        // documents.
        let terse = parse(r#"{"kind": "experiment", "experiments": ["fig2"]}"#);
        let spelled = parse(
            r#"{"kind": "experiment", "experiments": ["fig2"], "walkers": 20000,
                "epochs": 8000, "seed": 42, "backend": "cohort", "format": "json"}"#,
        );
        assert_eq!(terse.canonical_json(), spelled.canonical_json());
        assert_eq!(terse.request_hash(), spelled.request_hash());
    }

    #[test]
    fn every_kind_parses_and_hashes_stably() {
        let bodies = [
            r#"{"kind": "experiment", "experiments": ["all"]}"#,
            r#"{"kind": "sweep", "beta0": [0.3, 0.33]}"#,
            r#"{"kind": "search", "objective": "conflict", "budget": 16}"#,
            r#"{"kind": "partition", "validators": 3000}"#,
            r#"{"kind": "chaos", "budget": 4}"#,
        ];
        let mut hashes = Vec::new();
        for body in bodies {
            let req = parse(body);
            let hash = req.request_hash();
            assert_eq!(hash.len(), 64, "{body}");
            assert!(hash.chars().all(|c| c.is_ascii_hexdigit()), "{body}");
            assert_eq!(hash, parse(body).request_hash(), "unstable: {body}");
            hashes.push(hash);
        }
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), bodies.len(), "kinds must hash apart");
    }

    #[test]
    fn threads_never_reach_the_canonical_form() {
        let mut req = parse(r#"{"kind": "partition", "validators": 3000}"#);
        let before = req.request_hash();
        req.set_threads(7);
        assert_eq!(req.request_hash(), before);
        assert!(!req.canonical_json().contains("threads"));
    }

    #[test]
    fn format_is_part_of_the_address() {
        let json = parse(r#"{"kind": "experiment", "experiments": ["fig2"]}"#);
        let text = parse(r#"{"kind": "experiment", "experiments": ["fig2"], "format": "text"}"#);
        assert_ne!(json.request_hash(), text.request_hash());
    }

    #[test]
    fn unknown_fields_and_values_are_rejected() {
        for body in [
            "not json",
            "[1, 2]",
            r#"{"kind": "teapot"}"#,
            r#"{"experiments": ["fig2"]}"#,
            r#"{"kind": "experiment"}"#,
            r#"{"kind": "experiment", "experiments": ["fig2"], "walkerz": 10}"#,
            r#"{"kind": "experiment", "experiments": ["nope"]}"#,
            r#"{"kind": "experiment", "experiments": []}"#,
            r#"{"kind": "experiment", "experiments": ["fig2"], "walkers": 0}"#,
            r#"{"kind": "sweep", "beta0": [1.5]}"#,
            r#"{"kind": "sweep", "grid": "beta0=0.3"}"#,
            r#"{"kind": "search", "objective": "world-peace"}"#,
            r#"{"kind": "search", "max_period": 9}"#,
            r#"{"kind": "partition", "timelines": ["gibberish"]}"#,
            r#"{"kind": "partition", "timelines": ["split@0:0=0.5,0.5"], "strategy": "bogus"}"#,
            r#"{"kind": "chaos", "budget": 0}"#,
            r#"{"kind": "chaos", "oracle": {}}"#,
            // a repeated key is never resolved silently
            r#"{"kind":"chaos","budget":4,"budget":"x"}"#,
            r#"{"kind":"chaos","kind":"teapot","budget":4}"#,
            r#"{"kind":"experiment","experiments":["fig2"],"seed":1,"seed":-5}"#,
        ] {
            assert!(JobRequest::parse(body).is_err(), "accepted: {body}");
        }
    }

    #[test]
    fn partition_request_matches_the_cli_spec() {
        // The parsed spec equals what `ethpos-cli partition` builds for
        // the same knobs, so service and CLI share one execution path.
        let req = parse(
            r#"{"kind": "partition", "timelines": ["three-branch"],
                "beta0": 0.3, "validators": 4000}"#,
        );
        match &req {
            JobRequest::Partition { spec, .. } => {
                assert_eq!(spec.n, 4000);
                assert_eq!(spec.scenarios.len(), 1);
                assert_eq!(spec.scenarios[0].name, "three-branch");
                // Explicit beta0 overrides the preset's.
                assert!((spec.scenarios[0].beta0 - 0.3).abs() < 1e-12);
                // No explicit strategy: the preset keeps its own.
                assert_eq!(spec.scenarios[0].strategy, StrategyKind::RotateDwell);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn semi_active_on_a_three_branch_timeline_is_rejected() {
        let body = r#"{"kind": "partition", "timelines": ["split@0:0=0.4,0.3,0.3"],
                       "strategy": "semi-active"}"#;
        let e = JobRequest::parse(body).unwrap_err();
        assert!(e.0.contains("semi-active"), "{e}");
    }

    #[test]
    fn executed_smoke_document_matches_spec_run() {
        let req = parse(r#"{"kind": "partition", "validators": 3000, "format": "json"}"#);
        let out = req.execute();
        let direct = PartitionSpec {
            n: 3000,
            ..PartitionSpec::default()
        };
        assert_eq!(out.document, format!("{}\n", direct.run().to_json()));
        let stats = out.stats.expect("partition jobs carry stats");
        let parsed: Value = serde_json::from_str(&stats).expect("stats JSON");
        assert_eq!(parsed.get("scenarios").and_then(Value::as_u64), Some(2));
    }

    /// Raw timelines with two live branches from epoch 0 on, so any
    /// strategy (`semi-active` included) runs on them.
    const TWO_BRANCH: [&str; 3] = [
        "split@0:0=0.5,0.5",
        "split@0:0=0.7,0.3",
        "churn@0:0=0.5,0.5",
    ];

    /// Presets and raw timelines `semi-active` cannot observe.
    const K_BRANCH: [&str; 3] = [
        "three-branch",
        "heal-resplit",
        "split@0:0=0.5,0.5; heal@300:0<-1",
    ];

    fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
        items[rng.below(items.len() as u64) as usize]
    }

    /// A value of `ty` in its range: integers mostly small, sometimes
    /// the range's ends.
    fn valid(ty: &FieldType, rng: &mut TestRng) -> Value {
        match *ty {
            FieldType::Int(min, max) => Value::U64(match rng.below(4) {
                0 => min,
                1 => max,
                _ => min + rng.below((max - min).min(9_999) + 1),
            }),
            FieldType::Unit => Value::F64((rng.below(999) + 1) as f64 / 1000.0),
            FieldType::Id(_, ids) => Value::String(pick(rng, &ids()).into()),
            FieldType::Text => {
                let timelines = [TWO_BRANCH, K_BRANCH].concat();
                Value::String(pick(rng, &timelines).into())
            }
            FieldType::Array(each) => {
                let len = 1 + rng.below(3);
                Value::Array((0..len).map(|_| valid(each, rng)).collect())
            }
        }
    }

    /// A valid request drawn from the table: a random subset of a random
    /// mode's fields (`experiments` always, being required), each in
    /// range. The one cross-field rule the rows cannot state is kept by
    /// hand: `semi-active` only runs on two-branch timelines.
    fn arbitrary_request(rng: &mut TestRng) -> Vec<(String, Value)> {
        let mode = &MODES[rng.below(MODES.len() as u64) as usize];
        let mut fields = vec![("kind".to_string(), Value::String(mode.kind.into()))];
        for field in mode.all_fields() {
            if field.name == "experiments" || rng.below(2) == 0 {
                fields.push((field.name.into(), valid(&field.ty, rng)));
            }
        }
        let semi_active = Value::String(StrategyKind::SemiActive.id().into());
        if fields.contains(&("strategy".into(), semi_active)) {
            fields.retain(|(key, _)| key != "timelines");
            let timeline = Value::String(pick(rng, &TWO_BRANCH).into());
            fields.push(("timelines".into(), Value::Array(vec![timeline])));
        }
        fields
    }

    /// The value that breaks `ty` the way `corruption` says: 0 out of
    /// range, 1 of the wrong type.
    fn broken(ty: &FieldType, corruption: u64) -> Value {
        match (*ty, corruption) {
            (FieldType::Int(0, u64::MAX), 0) => Value::I64(-1),
            (FieldType::Int(0, max), 0) => Value::U64(max + 1),
            (FieldType::Int(min, _), 0) => Value::U64(min - 1),
            (FieldType::Unit, 0) => Value::F64(1.0),
            (FieldType::Id(..), 0) => Value::String("bogus".into()),
            (FieldType::Text, 0) => Value::String("gibberish".into()),
            (FieldType::Array(_), 0) => Value::Array(Vec::new()),
            (FieldType::Int(..) | FieldType::Unit, _) => Value::String("7".into()),
            (FieldType::Id(..) | FieldType::Text, _) => Value::U64(7),
            (FieldType::Array(each), _) => broken(each, 1),
        }
    }

    /// Two distinct in-range values of `ty`.
    fn two_values(ty: &FieldType) -> (Value, Value) {
        match *ty {
            FieldType::Int(min, _) => (Value::U64(min), Value::U64(min + 1)),
            FieldType::Unit => (Value::F64(0.25), Value::F64(0.75)),
            FieldType::Id(_, ids) => {
                let ids = ids();
                (Value::String(ids[0].into()), Value::String(ids[1].into()))
            }
            FieldType::Text => (
                Value::String(TWO_BRANCH[0].into()),
                Value::String(TWO_BRANCH[1].into()),
            ),
            FieldType::Array(each) => {
                let (a, b) = two_values(each);
                (Value::Array(vec![a]), Value::Array(vec![b]))
            }
        }
    }

    /// Every row is read by its mode: two requests that differ in one
    /// field's value alone have different addresses.
    #[test]
    fn every_field_reaches_the_canonical_form() {
        for mode in &MODES {
            for field in mode.all_fields() {
                let hash = |value: Value| {
                    let mut body = vec![("kind".to_string(), Value::String(mode.kind.into()))];
                    let required = match mode.kind {
                        "experiment" => Some(("experiments", "fig2")),
                        "partition" => Some(("timelines", TWO_BRANCH[0])),
                        _ => None,
                    };
                    if let Some((key, item)) = required.filter(|(key, _)| *key != field.name) {
                        let item = Value::Array(vec![Value::String(item.into())]);
                        body.push((key.into(), item));
                    }
                    body.push((field.name.into(), value));
                    let body = Value::Object(body);
                    let request = JobRequest::from_json(&body);
                    request
                        .unwrap_or_else(|e| panic!("{body:?}: {e}"))
                        .request_hash()
                };
                let (a, b) = two_values(&field.ty);
                assert_ne!(hash(a), hash(b), "`{}` of {}", field.name, mode.kind);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn table_requests_parse_in_any_order_and_reject_one_bad_field(seed in any::<u64>()) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let fields = arbitrary_request(&mut rng);
            let parse = |fields: &[(String, Value)]| JobRequest::from_json(&Value::Object(fields.to_vec()));
            let request = parse(&fields).map_err(|e| format!("{fields:?}: {e}"))?;

            let mut shuffled = fields.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let reordered = parse(&shuffled).map_err(|e| format!("{shuffled:?}: {e}"))?;
            prop_assert_eq!(&reordered, &request);
            prop_assert_eq!(reordered.request_hash(), request.request_hash());

            // Break one field: out of range, wrong type, unknown name or
            // repeated key. The rejection names it.
            let victim = rng.below(fields.len() as u64) as usize;
            let name = fields[victim].0.clone();
            let ty = mode(request.kind()).and_then(|m| m.field(&name)).map(|f| f.ty);
            for corruption in 0..4 {
                let mut bad = fields.clone();
                let named = match (corruption, ty) {
                    (0 | 1, Some(ty)) => {
                        bad[victim].1 = broken(&ty, corruption);
                        name.clone()
                    }
                    (0 | 1, None) => continue, // `kind` has no row
                    (2, _) => {
                        bad.insert(victim, ("bogus_field".into(), Value::U64(1)));
                        "bogus_field".into()
                    }
                    _ => {
                        bad.insert(victim, fields[victim].clone());
                        name.clone()
                    }
                };
                match parse(&bad) {
                    Ok(_) => prop_assert!(false, "accepted {bad:?}"),
                    Err(e) => prop_assert!(e.0.contains(&format!("`{named}`")), "{bad:?}: {e}"),
                }
            }
        }
    }
}
