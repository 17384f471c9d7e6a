//! Workspace-wide observability substrate: a lock-free metrics registry
//! and hierarchical span tracing, with **zero** effect on simulation
//! results.
//!
//! The workspace's determinism contract (see `ARCHITECTURE.md`) pins
//! every report, frontier, and golden document byte-for-byte across
//! thread counts. Instrumentation therefore lives strictly *beside* the
//! simulation: it never touches an RNG stream, never feeds back into
//! control flow, and renders into its own artifacts (`--metrics-out`,
//! `--trace-out`), so a document produced with instrumentation on is
//! byte-identical to one produced with it off.
//!
//! Two halves:
//!
//! * Metrics — atomic counters, gauges and histograms with static
//!   label sets, collected in a [`Registry`]. A process-global default
//!   registry ([`global`]) serves the CLI; per-run registries
//!   ([`Registry::new`]) are plain values every exposition function
//!   accepts, so tests and the future experiment service can inject
//!   their own. Exposition is Prometheus text ([`Registry::render_prometheus`])
//!   or a JSON snapshot ([`Registry::render_json`]).
//! * Tracing — RAII hierarchical spans (experiment → stage →
//!   epoch-chunk) with monotonic wall-clock timings, recorded into a
//!   bounded ring buffer and exported in the Chrome trace-event format
//!   ([`Tracer::export_chrome_json`], loadable in `chrome://tracing` /
//!   Perfetto).
//!
//! # Runtime gating
//!
//! Both halves start **disabled**: every instrumentation site first
//! checks [`metrics_enabled`] / [`trace_enabled`] (one relaxed atomic
//! load plus a predicted branch), so an uninstrumented run pays no
//! measurable cost — the perf ledger's `obs.traced_overhead_share`
//! measures what turning both halves on costs each workload. The CLI
//! enables a half only when the matching output flag is present.
//!
//! # Example
//!
//! ```
//! use ethpos_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total", "Cache hits.", &[("tier", "l1")]);
//! hits.add(3);
//! let text = registry.render_prometheus();
//! assert!(text.contains("cache_hits_total{tier=\"l1\"} 3"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod metrics;
mod trace;

pub use metrics::{exponential_buckets, Counter, Gauge, Histogram, Registry};
pub use trace::{Span, TraceEvent, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metric recording is on (off by default). Instrumentation
/// sites check this before touching the registry, so a disabled run is
/// one relaxed load per site.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// True when span/trace recording is on (off by default).
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turns span/trace recording on or off process-wide.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global default registry (what the CLI exports). Library
/// code records here; anything that wants an isolated registry builds
/// its own with [`Registry::new`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-global tracer (what the CLI exports).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Opens a span on the global tracer when tracing is enabled; a no-op
/// guard otherwise. The span closes (and records one Chrome `"X"`
/// complete event) when the guard drops.
///
/// `cat` groups spans in the viewer (`experiment`, `stage`, `chunk`);
/// `name` labels the slice.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if trace_enabled() {
        tracer().start_span(cat, name.to_string())
    } else {
        Span::disabled()
    }
}

/// [`span`] with a runtime-built name (e.g. a case or scenario label).
/// The name closure only runs when tracing is enabled, so disabled call
/// sites pay no allocation.
#[inline]
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    if trace_enabled() {
        tracer().start_span(cat, name())
    } else {
        Span::disabled()
    }
}

/// Records a Chrome `"C"` counter event (a sampled time series the
/// trace viewer plots) on the global tracer when tracing is enabled.
#[inline]
pub fn counter_event(name: &str, values: &[(&str, f64)]) {
    if trace_enabled() {
        tracer().counter_event(name, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test covers all process-global flag behaviour: unit tests run
    // in parallel threads, so global toggles must not be spread across
    // test functions.
    #[test]
    fn global_flags_gate_recording() {
        assert!(!metrics_enabled(), "metrics must start disabled");
        assert!(!trace_enabled(), "tracing must start disabled");

        // Disabled spans are inert: nothing reaches the ring buffer.
        let before = tracer().len();
        {
            let _s = span("test", "noop");
            counter_event("noop", &[("v", 1.0)]);
        }
        assert_eq!(tracer().len(), before);

        set_trace_enabled(true);
        {
            let _s = span("test", "recorded");
        }
        set_trace_enabled(false);
        assert_eq!(tracer().len(), before + 1);

        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
    }
}
