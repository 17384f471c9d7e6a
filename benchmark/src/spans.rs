//! The harness's own span recorder.
//!
//! Spans are opened by the harness around each call it makes into a
//! layer (`request → core.parse → core.request_hash → core.execute`,
//! or `→ server.http_exchange → server.poll …`), kept in a `Vec` for
//! the whole run and written out once at exit in the Chrome
//! trace-event format — the same viewer `ethpos-cli --trace-out` feeds.
//! A disabled recorder costs one branch per call, so the untraced
//! end-to-end numbers do not pay for it.

use std::time::Instant;

use serde_json::Value;

use crate::json::{object, text};

/// Index of a recorded span.
pub type SpanId = usize;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `core.execute`.
    pub name: &'static str,
    /// The op (request) this span belongs to; spans of one request share
    /// it. Round spans carry the round index.
    pub op: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (`start_ns`
    /// while open).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with an open-span stack (single-threaded: the
/// harness thread is the only writer).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<SpanId>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans stay open).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Recorder::begin`] (and any span left
    /// open inside it).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total wall time of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::duration_ns)
            .sum()
    }

    /// Chrome trace-event JSON (`"X"` complete events, microsecond
    /// timestamps; `args` carry the op id, parent and self time).
    pub fn export_chrome_json(&self, workload: &str) -> String {
        let self_ns = self_times_ns(&self.spans);
        let events: Vec<Value> = self
            .spans
            .iter()
            .zip(&self_ns)
            .enumerate()
            .map(|(id, (s, &self_time))| {
                let args = object([
                    ("id", Value::U64(id as u64)),
                    ("op", Value::U64(s.op)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("self_ns", Value::U64(self_time)),
                    ("workload", text(workload)),
                ]);
                object([
                    ("name", text(s.name)),
                    ("cat", text(s.name.split('.').next().unwrap_or("harness"))),
                    ("ph", text("X")),
                    ("ts", Value::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Value::F64(s.duration_ns() as f64 / 1e3)),
                    ("pid", Value::U64(1)),
                    ("tid", Value::U64(1)),
                    ("args", args),
                ])
            })
            .collect();
        let doc = object([
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", text("ms")),
        ]);
        serde_json::to_string(&doc).expect("finite timestamps serialize")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once (interval union), so a
/// self time is never negative.
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for (start, end) in kids {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            rec("round", None, 0, 100),
            rec("op", Some(0), 10, 90),
            rec("execute", Some(1), 20, 70),
            rec("digest", Some(1), 70, 80),
        ];
        // round: 100 − 80 (op); op: 80 − 50 − 10; leaves keep their own.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let spans = vec![
            rec("parent", None, 100, 200),
            rec("a", Some(0), 110, 150),
            rec("b", Some(0), 140, 170), // overlaps `a` by 10
            rec("c", Some(0), 190, 260), // overhangs the parent by 60
            rec("d", Some(0), 120, 130), // inside `a`
        ];
        // union = [110,170] ∪ [190,200] = 70 → self 30.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_ignores_calls_when_disabled() {
        let mut off = Recorder::new(false);
        let id = off.begin("x", 1);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Recorder::new(true);
        let round = on.begin("round", 0);
        let inner = on.begin("core.parse", 7);
        on.end(inner);
        let dangling = on.begin("core.execute", 7);
        assert!(dangling.is_some());
        on.end(round); // closes the dangling span too
        assert_eq!(on.spans().len(), 3);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[2].parent, Some(0));
        assert!(on.spans()[2].end_ns >= on.spans()[2].start_ns);
        let json = on.export_chrome_json("w");
        let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(3)
        );
    }
}
