//! The metrics half: atomic counters, gauges and histograms collected
//! in a [`Registry`], rendered as Prometheus text exposition or a JSON
//! snapshot.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s returned
//! by the registry's get-or-create methods; recording is lock-free
//! (relaxed atomics, CAS bit-loop for the histogram's f64 sum). The
//! registry itself takes a mutex only on handle *creation* and on
//! rendering — hot paths look a handle up once and then never touch the
//! lock, so the cost of an observation is a few uncontended atomic RMWs.
//!
//! Label sets are static per series: a series is keyed by
//! `(name, sorted label pairs)`, values owned (branch ids and verdict
//! strings are runtime values). Registering the same name with a
//! different metric kind or histogram bucketing panics — that is a
//! programming error, not a runtime condition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable floating-point gauge (f64 bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the gauge to `max(current, v)` (a high-water mark).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed bucket upper bounds (a `+Inf` bucket is
/// implicit), with an f64 sum maintained by a CAS bit-loop.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per finite bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Non-cumulative per-bucket counts (last slot is `+Inf`).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Exponential bucket bounds: `count` values starting at `start`,
/// multiplied by `factor` each step (the usual latency-histogram
/// layout).
///
/// # Panics
///
/// Panics unless `start > 0`, `factor > 1` and `count ≥ 1`.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count >= 1);
    let mut v = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        v.push(b);
        b *= factor;
    }
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    series: BTreeMap<LabelSet, Series>,
}

/// A collection of metric families. Cheap to clone (shared interior);
/// [`crate::global`] holds the process default, `Registry::new` gives
/// an isolated one (per-run injection, unit tests).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Locks the family map, recovering from a poisoned mutex. A panic
    /// on another thread mid-registration (a kind conflict, a bad
    /// histogram bucketing, a dying job thread) must not take every
    /// later scrape down with it — a resident server keeps serving
    /// `/metrics` after a worker dies. Recovery is sound because every
    /// mutation under this lock is a single map-entry insertion: the
    /// map is structurally consistent at every panic site.
    fn lock_families(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn series<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Series,
        pick: impl FnOnce(&Series) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut sorted: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let mut families = self.lock_families();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} already registered as a {}",
            family.kind.as_str()
        );
        let series = family.series.entry(sorted).or_insert_with(make);
        pick(series).unwrap_or_else(|| unreachable!("kind checked above"))
    }

    /// Gets or creates the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.series(
            name,
            help,
            labels,
            Kind::Counter,
            || Series::Counter(Arc::new(Counter::default())),
            |s| match s {
                Series::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.series(
            name,
            help,
            labels,
            Kind::Gauge,
            || Series::Gauge(Arc::new(Gauge::default())),
            |s| match s {
                Series::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates the histogram `name{labels}` with the given
    /// finite bucket bounds (ignored when the series already exists —
    /// bucketing is fixed at creation).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.series(
            name,
            help,
            labels,
            Kind::Histogram,
            || Series::Histogram(Arc::new(Histogram::new(bounds))),
            |s| match s {
                Series::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, one sample per line, histograms as
    /// cumulative `_bucket{le=...}` plus `_sum` / `_count`).
    pub fn render_prometheus(&self) -> String {
        let families = self.lock_families();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", prom_labels(labels, None), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            prom_labels(labels, None),
                            fmt_f64(g.get())
                        );
                    }
                    Series::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cum += c;
                            let le = h
                                .bounds()
                                .get(i)
                                .map(|&b| fmt_f64(b))
                                .unwrap_or_else(|| "+Inf".into());
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                prom_labels(labels, Some(&le))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            prom_labels(labels, None),
                            fmt_f64(h.sum())
                        );
                        let _ = writeln!(out, "{name}_count{} {}", prom_labels(labels, None), cum);
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as a JSON snapshot: an object with one
    /// `metrics` array of `{name, kind, help, series}` entries, each
    /// series carrying its labels and value(s).
    pub fn render_json(&self) -> String {
        let families = self.lock_families();
        let mut out = String::from("{\n  \"metrics\": [");
        let mut first_family = true;
        for (name, family) in families.iter() {
            if !first_family {
                out.push(',');
            }
            first_family = false;
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"kind\": \"{}\", \"help\": {}, \"series\": [",
                json_str(name),
                family.kind.as_str(),
                json_str(&family.help)
            );
            let mut first_series = true;
            for (labels, series) in &family.series {
                if !first_series {
                    out.push_str(", ");
                }
                first_series = false;
                out.push_str("{\"labels\": {");
                for (i, (k, v)) in labels.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: {}", json_str(k), json_str(v));
                }
                out.push('}');
                match series {
                    Series::Counter(c) => {
                        let _ = write!(out, ", \"value\": {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = write!(out, ", \"value\": {}", json_f64(g.get()));
                    }
                    Series::Histogram(h) => {
                        let _ = write!(
                            out,
                            ", \"count\": {}, \"sum\": {}, \"buckets\": [",
                            h.count(),
                            json_f64(h.sum())
                        );
                        let counts = h.bucket_counts();
                        for (i, c) in counts.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            let le = h
                                .bounds()
                                .get(i)
                                .map(|&b| json_f64(b))
                                .unwrap_or_else(|| "\"+Inf\"".into());
                            let _ = write!(out, "{{\"le\": {le}, \"count\": {c}}}");
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Formats a label set as `{k="v",...}` (empty string when no labels),
/// with an optional extra `le` label (histogram buckets).
fn prom_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a finite f64 the Prometheus way: integral values without a
/// fraction, everything else via Rust's shortest round-trip `Display`.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A JSON number for `v` (JSON has no NaN/Inf — those become `null`,
/// which no workspace metric produces in practice).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".into()
    }
}

/// A JSON string literal for `s`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "Requests.", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // The same (name, labels) returns the same underlying series.
        assert_eq!(r.counter("reqs_total", "Requests.", &[]).get(), 5);

        let g = r.gauge("depth", "Depth.", &[("q", "main")]);
        g.set(2.5);
        g.set_max(1.0); // lower: no effect
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("x_total", "X.", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x_total", "X.", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "differently-ordered labels are one series");
        let text = r.render_prometheus();
        assert!(text.contains("x_total{a=\"1\",b=\"2\"} 1"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("esc_total", "E.", &[("k", "a\"b\\c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("k=\"a\\\"b\\\\c\\nd\""), "{text}");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("dual", "D.", &[]);
        r.gauge("dual", "D.", &[]);
    }

    #[test]
    fn histogram_bucketing() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.1, 0.5, 2.0, 100.0] {
            h.observe(v);
        }
        // 0.05 and 0.1 land in le=0.1 (bounds are inclusive); 0.5 in
        // le=1; 2.0 in le=10; 100.0 overflows to +Inf.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 102.65).abs() < 1e-9);
    }

    #[test]
    fn histogram_prometheus_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "Latency.", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render_prometheus();
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_count 3"), "{text}");
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
    }

    #[test]
    fn exponential_buckets_shape() {
        assert_eq!(exponential_buckets(1.0, 2.0, 4), vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn json_snapshot_is_valid_json() {
        let r = Registry::new();
        r.counter("a_total", "A \"quoted\" help.", &[("l", "v")])
            .add(3);
        r.gauge("b", "B.", &[]).set(1.5);
        r.histogram("c_seconds", "C.", &[], &[0.001, 0.1])
            .observe(0.01);
        let json = r.render_json();
        let parsed: serde_json::Value = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("snapshot must parse: {e}\n{json}"));
        let metrics = parsed
            .get("metrics")
            .and_then(|m| m.as_array())
            .expect("metrics array");
        assert_eq!(metrics.len(), 3);
        let field = |i: usize, k: &str| metrics[i].get(k).cloned().expect(k);
        assert_eq!(field(0, "name").as_str(), Some("a_total"));
        let series0 = field(0, "series").get_index(0).cloned().expect("series");
        assert_eq!(series0.get("value").and_then(|v| v.as_u64()), Some(3));
        let series2 = field(2, "series").get_index(0).cloned().expect("series");
        assert_eq!(series2.get("count").and_then(|v| v.as_u64()), Some(1));
    }

    /// A panic raised while the registry lock is held (here: a bad
    /// histogram bucketing inside the get-or-create closure) poisons
    /// the mutex. A resident process scrapes `/metrics` long after any
    /// individual worker dies, so the registry must recover: later
    /// registrations and renders keep working.
    #[test]
    fn registry_survives_a_poisoning_panic() {
        let r = Registry::new();
        r.counter("pre_total", "Registered before the panic.", &[])
            .inc();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Decreasing bounds: `Histogram::new` asserts inside
            // `or_insert_with` with the families guard alive.
            r.histogram("bad_seconds", "Bad bucketing.", &[], &[2.0, 1.0]);
        }));
        assert!(panicked.is_err(), "bad bucketing must still panic");
        r.counter("post_total", "Registered after the panic.", &[])
            .add(2);
        let text = r.render_prometheus();
        assert!(text.contains("pre_total 1"), "{text}");
        assert!(text.contains("post_total 2"), "{text}");
        let json = r.render_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&json).expect("snapshot parses after poison recovery");
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let r = Registry::new();
        let c = r.counter("par_total", "P.", &[]);
        let h = r.histogram("par_seconds", "P.", &[], &[1e-6, 4e-6]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(1e-6 * (i % 7 + 1) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
        let expect: f64 = 8.0 * (0..1000).map(|i| 1e-6 * (i % 7 + 1) as f64).sum::<f64>();
        assert!((h.sum() - expect).abs() < 1e-9, "{} vs {expect}", h.sum());
    }
}
