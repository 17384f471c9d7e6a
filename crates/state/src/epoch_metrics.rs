//! Per-stage epoch-processing timers feeding the
//! `ethpos_epoch_stage_seconds{backend, stage}` histograms.
//!
//! Shared by both backends: the dense path times every spec stage of
//! every epoch (dense epochs cost µs–ms, the timer is noise), the
//! cohort path times its three fused phases on a 1-in-64 epoch sample
//! (its epochs cost ~0.5 µs, so even sparse timing is measurable — see
//! the perf ledger's `obs.traced_overhead_share`). Purely observational:
//! timers never touch the transition's arithmetic or control flow.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ethpos_obs::Histogram;

/// Stage histograms are looked up once per `(backend, stage)` pair and
/// cached; the set is tiny (≤ 11 pairs), so a linear scan under a mutex
/// beats hashing and keeps this std-only.
fn histogram_for(backend: &'static str, stage: &'static str) -> Arc<Histogram> {
    type Cache = Vec<((&'static str, &'static str), Arc<Histogram>)>;
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache.lock().expect("stage cache poisoned");
    if let Some((_, h)) = guard
        .iter()
        .find(|((b, s), _)| *b == backend && *s == stage)
    {
        return h.clone();
    }
    let h = ethpos_obs::global().histogram(
        "ethpos_epoch_stage_seconds",
        "Wall-clock seconds per epoch-processing stage (cohort stages are \
         sampled 1-in-64 epochs).",
        &[("backend", backend), ("stage", stage)],
        // Stages span ~100 ns (compressed cohort phases) to ~1 s (dense
        // million-validator rewards).
        &ethpos_obs::exponential_buckets(1e-7, 4.0, 14),
    );
    guard.push(((backend, stage), h.clone()));
    h
}

/// Measures consecutive stages: each [`StageTimer::stage`] call records
/// the wall-clock time since the previous call (or construction) into
/// that stage's histogram.
pub(crate) struct StageTimer {
    backend: &'static str,
    last: Instant,
}

impl StageTimer {
    /// Closes the current stage under `stage` and starts the next.
    pub(crate) fn stage(&mut self, stage: &'static str) {
        let now = Instant::now();
        let elapsed = now - self.last;
        self.last = now;
        histogram_for(self.backend, stage).observe(elapsed.as_secs_f64());
    }
}

/// A running timer when metrics are enabled *and* this epoch is in the
/// caller's sample (`sampled`); `None` otherwise — the disabled path is
/// one relaxed load and a branch.
#[inline]
pub(crate) fn stage_timer(backend: &'static str, sampled: bool) -> Option<StageTimer> {
    if sampled && ethpos_obs::metrics_enabled() {
        Some(StageTimer {
            backend,
            last: Instant::now(),
        })
    } else {
        None
    }
}
