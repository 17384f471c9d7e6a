//! Canonical experiment requests: the service-facing surface of the
//! workspace.
//!
//! A [`JobRequest`] is one of the five run modes (`experiment`, `sweep`,
//! `search`, `partition`, `chaos`) parsed from a JSON body into the
//! existing spec types. This is the only per-mode parser: `ethpos-cli`
//! writes its flags into the fields of a request object and parses it
//! here, so a request and the equivalent command line have the same
//! address and produce **byte-identical documents**. Three properties
//! make results cacheable forever:
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

use serde_json::Value;

use crate::experiments::{run_experiment_with, Experiment, McConfig};
use crate::partition::{self, PartitionSpec, StrategyKind};
use crate::stake_model::PenaltySemantics;
use crate::sweep::SweepSpec;
use crate::ChaosSpec;
use ethpos_search::{Objective, SearchSpec};
use ethpos_state::BackendKind;

/// Version salt mixed into every [`JobRequest::request_hash`].
///
/// Bump the trailing version whenever the meaning of a spec changes
/// without its canonical form changing — a penalty-semantics fix, a
/// golden-corpus regeneration, a renderer change — so every cached
/// artifact keyed on the old behaviour is invalidated at once.
pub const ARTIFACT_SALT: &str = "ethpos/artifact/v1";

/// The axes a `sweep` request takes as arrays — the grid the CLI's
/// `--grid axis=v1,v2,…` replaces one axis of.
pub const SWEEP_AXES: [&str; 5] = ["beta0", "p0", "walkers", "semantics", "validators"];

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
    /// `kind: "sweep"` — a parameter grid ([`crate::sweep`]).
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

    /// Parses an already-decoded JSON value (see [`JobRequest::parse`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`JobRequest::parse`].
    pub fn from_json(value: &Value) -> Result<JobRequest, RequestError> {
        let fields = match value {
            Value::Object(fields) => fields,
            _ => return err("request body must be a JSON object"),
        };
        let kind = match value.get("kind").and_then(Value::as_str) {
            Some(kind) => kind,
            None => return err("missing `kind` (experiment, sweep, search, partition or chaos)"),
        };
        let obj = Obj { kind, fields };
        match kind {
            "experiment" => parse_run(&obj),
            "sweep" => parse_sweep(&obj),
            "search" => parse_search(&obj),
            "partition" => parse_partition(&obj),
            "chaos" => parse_chaos(&obj),
            other => err(format!(
                "unknown kind `{other}` (expected experiment, sweep, search, \
                 partition or chaos)"
            )),
        }
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
                fields.push((
                    "experiments".into(),
                    Value::Array(
                        experiments
                            .iter()
                            .map(|e| Value::String(e.id().into()))
                            .collect(),
                    ),
                ));
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
                fields.push((
                    "walkers".into(),
                    Value::Array(spec.walkers.iter().map(|&w| Value::U64(w as u64)).collect()),
                ));
                fields.push((
                    "semantics".into(),
                    Value::Array(
                        spec.semantics
                            .iter()
                            .map(|s| Value::String(s.id().into()))
                            .collect(),
                    ),
                ));
                fields.push((
                    "validators".into(),
                    Value::Array(
                        spec.validators
                            .iter()
                            .map(|&n| Value::U64(n as u64))
                            .collect(),
                    ),
                ));
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
        let pretty = |stats: String| Some(format!("{stats}\n"));
        match self {
            JobRequest::Run {
                experiments,
                mc,
                format,
            } => {
                let document = match format {
                    DocumentFormat::Text => {
                        let mut out = String::new();
                        for e in experiments {
                            out.push_str(&run_experiment_with(*e, mc).render_text());
                            out.push('\n');
                        }
                        out
                    }
                    DocumentFormat::Json => {
                        let outputs: Vec<String> = experiments
                            .iter()
                            .map(|e| run_experiment_with(*e, mc).to_json())
                            .collect();
                        match outputs.as_slice() {
                            [single] => format!("{single}\n"),
                            many => format!("[{}]\n", many.join(",\n")),
                        }
                    }
                };
                JobOutput {
                    document,
                    stats: None,
                }
            }
            JobRequest::Sweep { spec, format } => {
                let result = spec.run();
                let document = match format {
                    DocumentFormat::Text => result.render_text(),
                    DocumentFormat::Json => format!("{}\n", result.to_json()),
                };
                JobOutput {
                    document,
                    stats: None,
                }
            }
            JobRequest::Search { spec, format } => {
                let (frontier, stats) = spec.run_with_stats();
                let document = match format {
                    DocumentFormat::Text => frontier.render_text(),
                    DocumentFormat::Json => format!("{}\n", frontier.to_json()),
                };
                JobOutput {
                    document,
                    stats: pretty(serde_json::to_string_pretty(&stats).expect("serializable")),
                }
            }
            JobRequest::Partition { spec, format } => {
                let (report, stats) = spec.run_with_stats();
                let document = match format {
                    DocumentFormat::Text => report.render_text(),
                    DocumentFormat::Json => format!("{}\n", report.to_json()),
                };
                JobOutput {
                    document,
                    stats: pretty(serde_json::to_string_pretty(&stats).expect("serializable")),
                }
            }
            JobRequest::Chaos { spec, format } => {
                let (report, stats) = spec.run_with_stats();
                let document = match format {
                    DocumentFormat::Text => report.render_text(),
                    DocumentFormat::Json => format!("{}\n", report.to_json()),
                };
                JobOutput {
                    document,
                    stats: pretty(serde_json::to_string_pretty(&stats).expect("serializable")),
                }
            }
        }
    }
}

fn f64_array(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&x| Value::F64(x)).collect())
}

/// One request object mid-parse: the kind (for error messages) and the
/// raw field list (for strict unknown-field checking).
struct Obj<'a> {
    kind: &'a str,
    fields: &'a [(String, Value)],
}

impl Obj<'_> {
    /// Rejects any field outside `allowed`, and any repeated field
    /// (`kind` included), which `Obj::get` would otherwise resolve to
    /// its first value silently — the strictness that makes hashing
    /// sound (see the module docs).
    fn check_fields(&self, allowed: &[&str]) -> Result<(), RequestError> {
        for (i, (key, _)) in self.fields.iter().enumerate() {
            if key != "kind" && !allowed.contains(&key.as_str()) {
                return err(format!(
                    "unknown field `{key}` for kind `{}` (allowed: {})",
                    self.kind,
                    allowed.join(", ")
                ));
            }
            // The keys before `i` are allowed and distinct, so this scan
            // stays short however large the body.
            if self.fields[..i].iter().any(|(k, _)| k == key) {
                return err(format!("duplicate field `{key}`"));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn format(&self) -> Result<DocumentFormat, RequestError> {
        match self.get("format") {
            None => Ok(DocumentFormat::default()),
            Some(v) => {
                let id = v
                    .as_str()
                    .ok_or_else(|| RequestError("`format` must be a string".into()))?;
                DocumentFormat::from_id(id)
                    .ok_or_else(|| RequestError(format!("unknown format `{id}` (text or json)")))
            }
        }
    }

    fn u64_field(&self, key: &str) -> Result<Option<u64>, RequestError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.as_u64() {
                Some(n) => Ok(Some(n)),
                None => err(format!("`{key}` must be a non-negative integer")),
            },
        }
    }

    /// A positive integer field (`0` rejected).
    fn count_field(&self, key: &str) -> Result<Option<u64>, RequestError> {
        match self.u64_field(key)? {
            Some(0) => err(format!("`{key}` must be positive")),
            other => Ok(other),
        }
    }

    /// A float in the open unit interval (β₀ / p0 style knobs).
    fn unit_field(&self, key: &str) -> Result<Option<f64>, RequestError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.as_f64() {
                Some(x) if x > 0.0 && x < 1.0 => Ok(Some(x)),
                _ => err(format!("`{key}` must be a float in (0, 1)")),
            },
        }
    }

    fn str_field(&self, key: &str) -> Result<Option<&str>, RequestError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.as_str() {
                Some(s) => Ok(Some(s)),
                None => err(format!("`{key}` must be a string")),
            },
        }
    }

    fn backend(&self) -> Result<Option<BackendKind>, RequestError> {
        match self.str_field("backend")? {
            None => Ok(None),
            Some(id) => match BackendKind::from_id(id) {
                Some(b) => Ok(Some(b)),
                None => err(format!("unknown backend `{id}` (dense or cohort)")),
            },
        }
    }

    /// A non-empty array field, with each element converted by `each`.
    fn array_field<T>(
        &self,
        key: &str,
        each: impl Fn(&Value) -> Result<T, RequestError>,
    ) -> Result<Option<Vec<T>>, RequestError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| RequestError(format!("`{key}` must be an array")))?;
                if items.is_empty() {
                    return err(format!("`{key}` must not be empty"));
                }
                Ok(Some(items.iter().map(each).collect::<Result<Vec<T>, _>>()?))
            }
        }
    }
}

fn parse_run(obj: &Obj) -> Result<JobRequest, RequestError> {
    obj.check_fields(&[
        "format",
        "experiments",
        "walkers",
        "epochs",
        "seed",
        "validators",
        "backend",
    ])?;
    let ids = obj
        .array_field("experiments", |v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| RequestError("`experiments` entries must be strings".into()))
        })?
        .ok_or_else(|| RequestError("missing `experiments` (ids, or [\"all\"])".into()))?;
    let mut experiments = Vec::new();
    for id in &ids {
        if id == "all" {
            experiments.extend(Experiment::all());
        } else {
            experiments.push(Experiment::from_id(id).ok_or_else(|| {
                RequestError(format!("unknown experiment `{id}` (fig2 … table3, all)"))
            })?);
        }
    }
    // Order-preserving dedup: `["all", "fig2"]` runs fig2 once.
    let mut seen = Vec::new();
    experiments.retain(|e| {
        let fresh = !seen.contains(e);
        seen.push(*e);
        fresh
    });
    let defaults = McConfig::default();
    let mc = McConfig {
        threads: defaults.threads,
        walkers: obj
            .count_field("walkers")?
            .unwrap_or(defaults.walkers as u64) as usize,
        epochs: obj.count_field("epochs")?.unwrap_or(defaults.epochs),
        seed: obj.u64_field("seed")?.unwrap_or(defaults.seed),
        validators: obj.count_field("validators")?.map(|n| n as usize),
        backend: obj.backend()?.unwrap_or(defaults.backend),
    };
    Ok(JobRequest::Run {
        experiments,
        mc,
        format: obj.format()?,
    })
}

fn parse_sweep(obj: &Obj) -> Result<JobRequest, RequestError> {
    obj.check_fields(&[&["format"], &SWEEP_AXES[..], &["backend", "epochs", "seed"]].concat())?;
    let unit = |key: &'static str| {
        move |v: &Value| match v.as_f64() {
            Some(x) if x > 0.0 && x < 1.0 => Ok(x),
            _ => err(format!("`{key}` entries must be floats in (0, 1)")),
        }
    };
    let counts = |key: &'static str| {
        move |v: &Value| match v.as_u64() {
            Some(n) if n > 0 => Ok(n as usize),
            _ => err(format!("`{key}` entries must be positive integers")),
        }
    };
    let mut spec = SweepSpec::default();
    if let Some(beta0) = obj.array_field("beta0", unit("beta0"))? {
        spec.beta0 = beta0;
    }
    if let Some(p0) = obj.array_field("p0", unit("p0"))? {
        spec.p0 = p0;
    }
    if let Some(walkers) = obj.array_field("walkers", counts("walkers"))? {
        spec.walkers = walkers;
    }
    if let Some(semantics) = obj.array_field("semantics", |v| {
        v.as_str()
            .and_then(PenaltySemantics::from_id)
            .ok_or_else(|| RequestError("`semantics` entries must be `paper` or `spec`".into()))
    })? {
        spec.semantics = semantics;
    }
    if let Some(validators) = obj.array_field("validators", counts("validators"))? {
        spec.validators = validators;
    }
    if let Some(backend) = obj.backend()? {
        spec.backend = backend;
    }
    if let Some(epochs) = obj.count_field("epochs")? {
        spec.epochs = epochs;
    }
    if let Some(seed) = obj.u64_field("seed")? {
        spec.seed = seed;
    }
    Ok(JobRequest::Sweep {
        spec,
        format: obj.format()?,
    })
}

fn parse_search(obj: &Obj) -> Result<JobRequest, RequestError> {
    obj.check_fields(&[
        "format",
        "objective",
        "validators",
        "beta0",
        "p0",
        "epochs",
        "backend",
        "budget",
        "max_period",
        "lambda",
        "seed",
    ])?;
    let objective = match obj.str_field("objective")? {
        None => Objective::Conflict,
        Some(id) => Objective::from_id(id).ok_or_else(|| {
            RequestError(format!(
                "unknown objective `{id}` (conflict, proportion or \
                 non-slashable-horizon)"
            ))
        })?,
    };
    let mut spec = SearchSpec::new(objective);
    if let Some(beta0) = obj.unit_field("beta0")? {
        spec.beta0 = beta0;
    }
    if let Some(p0) = obj.unit_field("p0")? {
        spec.p0 = p0;
    }
    if let Some(n) = obj.count_field("validators")? {
        spec.n = n as usize;
    }
    if let Some(backend) = obj.backend()? {
        spec.backend = backend;
    }
    if let Some(epochs) = obj.count_field("epochs")? {
        spec.epochs = epochs;
    }
    if let Some(budget) = obj.count_field("budget")? {
        spec.budget = budget as usize;
    }
    if let Some(max_period) = obj.count_field("max_period")? {
        if max_period > 8 {
            return err("`max_period` is too fine (the exhaustive grid grows \
                 combinatorially; use ≤ 8)");
        }
        spec.max_period = max_period as u8;
    }
    if let Some(lambda) = obj.count_field("lambda")? {
        spec.lambda = lambda as usize;
    }
    if let Some(seed) = obj.u64_field("seed")? {
        spec.seed = seed;
    }
    Ok(JobRequest::Search {
        spec,
        format: obj.format()?,
    })
}

fn parse_partition(obj: &Obj) -> Result<JobRequest, RequestError> {
    obj.check_fields(&[
        "format",
        "timelines",
        "strategy",
        "beta0",
        "epochs",
        "validators",
        "backend",
        "seed",
    ])?;
    let strategy = match obj.str_field("strategy")? {
        None => StrategyKind::RotateDwell,
        Some(id) => StrategyKind::from_id(id).ok_or_else(|| {
            RequestError(format!(
                "unknown strategy `{id}` (dual-active, semi-active, \
                 threshold-seeker, rotate or rotate-dwell)"
            ))
        })?,
    };
    let beta0 = obj.unit_field("beta0")?;
    let epochs = obj.count_field("epochs")?;
    let timelines = obj.array_field("timelines", |v| {
        v.as_str()
            .map(String::from)
            .ok_or_else(|| RequestError("`timelines` entries must be strings".into()))
    })?;
    let mut scenarios = match timelines {
        None => partition::preset_scenarios(),
        Some(args) => args
            .iter()
            .map(|arg| {
                partition::resolve_scenario(
                    arg,
                    strategy,
                    beta0.unwrap_or(partition::RAW_TIMELINE_BETA0),
                    epochs.unwrap_or(partition::RAW_TIMELINE_EPOCHS),
                )
                .map_err(|e| RequestError(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    // Explicit knobs override preset-carried ones, so
    // `--timeline three-branch --beta0 0.3` means what it says.
    for scenario in &mut scenarios {
        if let Some(beta0) = beta0 {
            scenario.beta0 = beta0;
        }
        if let Some(epochs) = epochs {
            scenario.epochs = epochs;
        }
        if obj.get("strategy").is_some() {
            scenario.strategy = strategy;
        }
        partition::validate_scenario(scenario).map_err(|e| RequestError(e.to_string()))?;
    }
    let defaults = PartitionSpec::default();
    let spec = PartitionSpec {
        scenarios,
        n: obj
            .count_field("validators")?
            .map(|n| n as usize)
            .unwrap_or(defaults.n),
        backend: obj.backend()?.unwrap_or(defaults.backend),
        seed: obj.u64_field("seed")?.unwrap_or(defaults.seed),
        threads: defaults.threads,
    };
    Ok(JobRequest::Partition {
        spec,
        format: obj.format()?,
    })
}

fn parse_chaos(obj: &Obj) -> Result<JobRequest, RequestError> {
    obj.check_fields(&[
        "format",
        "budget",
        "seed",
        "validators",
        "epochs",
        "backend",
    ])?;
    let mut spec = ChaosSpec::default();
    if let Some(budget) = obj.count_field("budget")? {
        spec.budget = budget;
    }
    if let Some(seed) = obj.u64_field("seed")? {
        spec.seed = seed;
    }
    if let Some(n) = obj.count_field("validators")? {
        spec.n = n as usize;
    }
    if let Some(epochs) = obj.count_field("epochs")? {
        spec.max_epochs = epochs;
    }
    if let Some(backend) = obj.backend()? {
        spec.backend = backend;
    }
    Ok(JobRequest::Chaos {
        spec,
        format: obj.format()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
