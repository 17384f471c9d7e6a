//! The tracing half: RAII hierarchical spans recorded into a bounded
//! ring buffer and exported in the Chrome trace-event format.
//!
//! A [`Span`] measures one slice of wall-clock work (monotonic
//! [`Instant`] timings, microsecond resolution). Spans nest naturally —
//! the viewer stacks same-thread slices by their `ts`/`dur` intervals,
//! and each event additionally carries its thread-local nesting `depth`
//! so well-formedness is testable without a viewer. Counter events
//! (`ph: "C"`) record sampled time series (the cohort-fragmentation
//! gauges) that Perfetto plots as stacked area charts.
//!
//! The buffer is bounded ([`Tracer::CAPACITY`] events): once full, new
//! events are dropped and counted, so a runaway trace costs memory
//! proportional to the cap, never the run length. Export
//! ([`Tracer::export_chrome_json`]) produces a single JSON object
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sequential per-thread ids (std's `ThreadId` has no stable integer
/// form), assigned on each thread's first trace event.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    /// Current span nesting depth on this thread.
    static DEPTH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One recorded trace event (Chrome trace-event model).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Slice or series name.
    pub name: String,
    /// Category (`experiment`, `stage`, `chunk`, ...).
    pub cat: &'static str,
    /// Phase: `'X'` complete slice, `'C'` counter sample.
    pub ph: char,
    /// Start, µs since the tracer's epoch.
    pub ts_us: u64,
    /// Duration in µs (complete slices only).
    pub dur_us: u64,
    /// Recording thread.
    pub tid: u64,
    /// Event arguments: nesting depth for slices, series values for
    /// counters.
    pub args: Vec<(String, f64)>,
}

/// The bounded event recorder. One process-global instance lives behind
/// [`crate::tracer`]; tests build their own with [`Tracer::new`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Ring-buffer bound: enough for every span of the headline
    /// million-validator timeline runs (a 6000-epoch, 5-stage partition
    /// records ~30k slices) with 4× headroom.
    pub const CAPACITY: usize = 1 << 17;

    /// An empty tracer anchored at "now".
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds since this tracer's epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span: the returned guard records one `'X'` complete
    /// event when dropped. Callers normally go through [`crate::span`],
    /// which checks the global enable flag first.
    pub fn start_span(&'static self, cat: &'static str, name: String) -> Span {
        DEPTH.with(|d| d.set(d.get() + 1));
        Span {
            tracer: Some(self),
            cat,
            name,
            start_us: self.now_us(),
        }
    }

    /// Records a counter sample (`ph: 'C'`): one named series with one
    /// or more values, plotted over time by the viewer.
    pub fn counter_event(&self, name: &str, values: &[(&str, f64)]) {
        self.push(TraceEvent {
            name: name.to_string(),
            cat: "counter",
            ph: 'C',
            ts_us: self.now_us(),
            dur_us: 0,
            tid: current_tid(),
            args: values.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Locks the event buffer, recovering from a poisoned mutex: a
    /// panicking span holder on a worker thread must not silence the
    /// tracer for the rest of a resident process (same rationale as
    /// `Registry::lock_families`; every mutation is a single push or
    /// clear, so the buffer stays consistent under poison).
    fn lock_events(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.lock_events();
        if events.len() < Self::CAPACITY {
            events.push(event);
        } else {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Exports the buffer as Chrome trace JSON: one `traceEvents` array
    /// of complete/counter events (one per line, stable order), loadable
    /// in `chrome://tracing` and Perfetto.
    pub fn export_chrome_json(&self) -> String {
        let events = self.lock_events();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"{}\", \"ts\": {}, ",
                json_str(&e.name),
                e.cat,
                e.ph,
                e.ts_us
            );
            if e.ph == 'X' {
                let _ = write!(out, "\"dur\": {}, ", e.dur_us);
            }
            let _ = write!(out, "\"pid\": 1, \"tid\": {}, \"args\": {{", e.tid);
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json_str(k), fmt_json_f64(*v));
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"dropped_events\": {}}}}}\n",
            self.dropped()
        );
        out
    }
}

/// RAII span guard: records one complete event on drop. Inert when
/// built via [`Span::disabled`] (tracing off).
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    tracer: Option<&'static Tracer>,
    cat: &'static str,
    name: String,
    start_us: u64,
}

impl Span {
    /// The no-op span handed out while tracing is disabled.
    pub fn disabled() -> Span {
        Span {
            tracer: None,
            cat: "",
            name: String::new(),
            start_us: 0,
        }
    }

    /// Renames a recording span to `name()`; a disabled one builds none.
    pub fn rename(&mut self, name: impl FnOnce() -> String) {
        if self.tracer.is_some() {
            self.name = name();
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth - 1);
            depth
        });
        let end = tracer.now_us();
        tracer.push(TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            ph: 'X',
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            tid: current_tid(),
            args: vec![("depth".to_string(), depth as f64)],
        });
    }
}

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

fn fmt_json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the tests read of the buffer.
    impl Tracer {
        /// Number of events currently buffered.
        pub(crate) fn len(&self) -> usize {
            self.lock_events().len()
        }

        /// A snapshot of the buffered events.
        pub(crate) fn events(&self) -> Vec<TraceEvent> {
            self.lock_events().clone()
        }
    }

    fn leaked() -> &'static Tracer {
        Box::leak(Box::new(Tracer::new()))
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = leaked();
        {
            let _outer = t.start_span("stage", "outer".into());
            {
                let _inner = t.start_span("stage", "inner".into());
            }
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        // Inner drops first (deeper), outer second.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].args, vec![("depth".to_string(), 2.0)]);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].args, vec![("depth".to_string(), 1.0)]);
        // The outer interval contains the inner one.
        assert!(events[1].ts_us <= events[0].ts_us);
        assert!(
            events[1].ts_us + events[1].dur_us >= events[0].ts_us + events[0].dur_us,
            "outer must cover inner"
        );
        assert_eq!(events[0].tid, events[1].tid);
    }

    #[test]
    fn counter_events_carry_values() {
        let t = leaked();
        t.counter_event("cohorts", &[("branch0", 42.0), ("branch1", 7.5)]);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, 'C');
        assert_eq!(events[0].args[0], ("branch0".to_string(), 42.0));
        assert_eq!(events[0].args[1], ("branch1".to_string(), 7.5));
    }

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let t = leaked();
        {
            let _s = t.start_span("experiment", "run \"quoted\"".into());
            t.counter_event("series", &[("v", 1.25)]);
        }
        let json = t.export_chrome_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("trace must parse: {e}\n{json}"));
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        for e in events {
            // Chrome's loader requires these fields on every event.
            assert!(e.get("name").and_then(|v| v.as_str()).is_some());
            assert!(e.get("ph").and_then(|v| v.as_str()).is_some());
            for key in ["ts", "pid", "tid"] {
                assert!(e.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
            }
        }
        let slice = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .expect("complete event");
        assert!(slice.get("dur").and_then(|v| v.as_u64()).is_some());
        assert_eq!(
            slice.get("name").and_then(|v| v.as_str()),
            Some("run \"quoted\"")
        );
        let dropped = parsed
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(|v| v.as_u64());
        assert_eq!(dropped, Some(0));
    }

    #[test]
    fn buffer_bounds_and_drop_counting() {
        let t = Tracer::new();
        for i in 0..(Tracer::CAPACITY + 5) {
            t.counter_event("x", &[("v", i as f64)]);
        }
        assert_eq!(t.len(), Tracer::CAPACITY);
        assert_eq!(t.dropped(), 5);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let t = leaked();
        let live = t.start_span("stage", "live".into());
        drop(Span::disabled());
        assert_eq!(t.len(), 0);
        // Nor does it unwind the nesting depth of the spans around it.
        drop(live);
        assert_eq!(t.events()[0].args, vec![("depth".to_string(), 1.0)]);
    }
}
