//! `compare A.json B.json`: judge B against A.
//!
//! Per (workload, end-to-end metric) the medians over the untraced runs
//! of each file are compared against the catalog's bound. A difference
//! only counts when the runs resolve it: where the spread of either
//! side is wider than the bound the pair is *unresolved*, not
//! *unchanged* — unless every run of one side reads better than every
//! run of the other. Exact-count per-layer metrics must be bit-equal
//! between traced runs of the same seed.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::catalog::{self, Better, MetricSpec};
use crate::ledger;
use crate::stats::{iqr_share, median};

/// What the runs say about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, and the runs resolve it.
    Improved,
    /// Within the bound, and the runs could have shown otherwise.
    Unchanged,
    /// Worse by more than the bound, and the runs resolve it.
    Regressed,
    /// The spread is wider than the bound and the sides overlap.
    Unresolved,
}

impl Verdict {
    fn id(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's values of one metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    /// The metric in each untraced run.
    pub values: Vec<f64>,
    /// Fallback spread when there are too few runs for quartiles: the
    /// widest in-run round-time spread, `(q3 − q1) / p50`.
    pub round_spread: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        iqr_share(&self.values)
            .filter(|_| self.values.len() >= 4)
            .unwrap_or(self.round_spread)
    }
}

/// How much worse `b` is than `a` as a share of `a`, signed so that
/// positive is worse whichever way the metric improves.
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match spec.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one pair and the signed change it rests on.
pub fn judge(spec: &MetricSpec, a: &Side, b: &Side) -> (Verdict, f64) {
    let delta = worse_by(spec, median(&a.values), median(&b.values));
    let resolved = a.spread().max(b.spread()) <= spec.bound;
    // Every run of B on one side of every run of A.
    let all = |worse: bool| {
        !a.values.is_empty()
            && !b.values.is_empty()
            && a.values.iter().all(|&x| {
                b.values.iter().all(|&y| {
                    let d = worse_by(spec, x, y);
                    if worse {
                        d > 0.0
                    } else {
                        d < 0.0
                    }
                })
            })
    };
    let verdict = if delta > spec.bound {
        if resolved || all(true) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if delta < -spec.bound {
        if resolved || all(false) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if resolved {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    };
    (verdict, delta)
}

/// Per-layer metrics that are counts of deterministic work: equal
/// inputs must give bit-equal values.
pub const EXACT_COUNTS: [&str; 5] = [
    "state.cohorts_peak",
    "state.cohorts_per_member_final",
    "sim.churn_draws_per_member",
    "search.memoized_fraction",
    "search.pair_epochs_per_candidate",
];

/// The runs of one workload in one file.
#[derive(Debug, Default)]
struct WorkloadRuns {
    metrics: BTreeMap<String, Side>,
    attempted: u64,
    failed: u64,
    /// `(seed, metric) → value` of the traced runs' exact counts.
    exact: BTreeMap<(u64, String), f64>,
}

fn group(entries: &[Value]) -> BTreeMap<String, WorkloadRuns> {
    let mut by_workload: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for entry in entries {
        let Some(workload) = entry.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let runs = by_workload.entry(workload.to_string()).or_default();
        let traced = entry.get("trace").and_then(Value::as_bool) == Some(true);
        let seed = entry.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let metric = |name: &str| {
            entry
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        if traced {
            for name in EXACT_COUNTS {
                if let Some(value) = metric(name) {
                    runs.exact.insert((seed, name.to_string()), value);
                }
            }
            continue;
        }
        runs.attempted += entry.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        runs.failed += entry.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let rounds = |key: &str| {
            entry
                .get("rounds")
                .and_then(|r| r.get(key))
                .and_then(Value::as_f64)
        };
        let round_spread = match (rounds("q1_ms"), rounds("p50_ms"), rounds("q3_ms")) {
            (Some(q1), Some(p50), Some(q3)) if p50 > 0.0 => (q3 - q1) / p50,
            _ => 0.0,
        };
        for spec in &catalog::END_TO_END {
            if let Some(value) = metric(spec.name) {
                let side = runs.metrics.entry(spec.name.to_string()).or_default();
                side.values.push(value);
                side.round_spread = side.round_spread.max(round_spread);
            }
        }
    }
    by_workload
}

/// The comparison as text plus whether B is acceptable (no regression,
/// no rise in failed ops, no exact count changed).
pub fn compare_entries(a: &[Value], b: &[Value]) -> (String, bool) {
    let (a, b) = (group(a), group(b));
    let mut out = String::new();
    let mut acceptable = true;
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            out.push_str(&format!("{workload:<16} only in A\n"));
            continue;
        };
        let mut row = format!("{workload:<16}");
        for spec in &catalog::END_TO_END {
            let (Some(side_a), Some(side_b)) =
                (runs_a.metrics.get(spec.name), runs_b.metrics.get(spec.name))
            else {
                continue;
            };
            let (verdict, delta) = judge(spec, side_a, side_b);
            acceptable &= verdict != Verdict::Regressed;
            row.push_str(&format!(
                " {}={}({:+.1}%)",
                spec.name,
                verdict.id(),
                // Report the change in the metric's own direction.
                delta
                    * 100.0
                    * if spec.better == Better::Lower {
                        1.0
                    } else {
                        -1.0
                    }
            ));
        }
        let share = |r: &WorkloadRuns| r.failed as f64 / r.attempted.max(1) as f64;
        let (fa, fb) = (share(runs_a), share(runs_b));
        if fb > fa {
            acceptable = false;
            row.push_str(&format!(" ops_failed_share=ROSE({fa:.4}->{fb:.4})"));
        } else {
            row.push_str(&format!(" ops_failed_share={fb}"));
        }
        for ((seed, name), value_a) in &runs_a.exact {
            if let Some(value_b) = runs_b.exact.get(&(*seed, name.clone())) {
                if value_a.to_bits() != value_b.to_bits() {
                    acceptable = false;
                    row.push_str(&format!(" {name}@seed{seed}=CHANGED({value_a}->{value_b})"));
                }
            }
        }
        out.push_str(&row);
        out.push('\n');
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        out.push_str(&format!("{workload:<16} only in B\n"));
    }
    (out, acceptable)
}

/// Compares two result files and prints the table.
///
/// # Errors
///
/// Returns a message when either file cannot be read as a result file.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (text, acceptable) = compare_entries(&ledger::read_entries(a)?, &ledger::read_entries(b)?);
    println!("compare {a} -> {b}");
    print!("{text}");
    println!(
        "{}",
        if acceptable {
            "no regression"
        } else {
            "REGRESSION"
        }
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::object;

    /// Specs with a bound of a tenth, whatever the catalog's are tuned to.
    const ROUND: MetricSpec = MetricSpec {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const OPS: MetricSpec = MetricSpec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            round_spread: 0.0,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (round, ops) = (&ROUND, &OPS);
        let tight_a = side(&[100.0, 101.0, 99.0, 100.5]);
        assert_eq!(
            judge(round, &tight_a, &side(&[120.0, 121.0, 119.0, 120.0])).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(round, &tight_a, &side(&[80.0, 81.0, 79.0, 80.0])).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(round, &tight_a, &side(&[104.0, 105.0, 103.0, 104.0])).0,
            Verdict::Unchanged
        );
        // Direction flips for a higher-is-better metric.
        assert_eq!(
            judge(ops, &tight_a, &side(&[120.0, 121.0, 119.0, 120.0])).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(ops, &tight_a, &side(&[80.0, 81.0, 79.0, 80.0])).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let round = &ROUND;
        let noisy_a = side(&[80.0, 100.0, 120.0, 140.0, 90.0]);
        // Medians equal, spread ≫ bound: not "unchanged".
        assert_eq!(
            judge(round, &noisy_a, &side(&[85.0, 100.0, 125.0, 135.0, 95.0])).0,
            Verdict::Unresolved
        );
        // Worse on median but overlapping: unresolved, not regressed.
        assert_eq!(
            judge(round, &noisy_a, &side(&[100.0, 130.0, 150.0, 170.0, 115.0])).0,
            Verdict::Unresolved
        );
        // Every run of B above every run of A: resolved despite spread.
        assert_eq!(
            judge(round, &noisy_a, &side(&[150.0, 190.0, 230.0, 260.0])).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(round, &noisy_a, &side(&[40.0, 50.0, 70.0, 75.0])).0,
            Verdict::Improved
        );
        // One run per side: the in-run round spread stands in.
        let single = |v: f64, spread: f64| Side {
            values: vec![v],
            round_spread: spread,
        };
        assert_eq!(
            judge(round, &single(100.0, 0.02), &single(103.0, 0.03)).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(round, &single(100.0, 0.3), &single(103.0, 0.03)).0,
            Verdict::Unresolved
        );
    }

    fn entry(workload: &str, trace: bool, failed: u64, metrics: &[(&str, f64)]) -> Value {
        object([
            ("workload", Value::String(workload.into())),
            ("seed", Value::U64(1)),
            ("trace", Value::Bool(trace)),
            ("attempted", Value::U64(100)),
            ("failed", Value::U64(failed)),
            (
                "rounds",
                object([
                    ("q1_ms", Value::F64(9.9)),
                    ("p50_ms", Value::F64(10.0)),
                    ("q3_ms", Value::F64(10.1)),
                ]),
            ),
            (
                "metrics",
                Value::Object(
                    metrics
                        .iter()
                        .map(|(name, value)| {
                            (name.to_string(), object([("value", Value::F64(*value))]))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn files_compare_row_by_row_and_failures_or_changed_counts_reject() {
        let a = vec![
            entry(
                "paper_1m",
                false,
                0,
                &[("round_p50_ms", 50.0), ("ops_per_s", 40.0)],
            ),
            entry("paper_1m", true, 0, &[("state.cohorts_peak", 31914.0)]),
            entry("churn_leak", false, 0, &[("round_p50_ms", 1400.0)]),
        ];
        let same = compare_entries(&a, &a);
        assert!(same.1, "{}", same.0);
        assert_eq!(same.0.lines().count(), 2);
        assert!(same.0.contains("round_p50_ms=unchanged"));

        let slower = vec![entry("paper_1m", false, 0, &[("round_p50_ms", 100.0)])];
        let (text, ok) = compare_entries(&a, &slower);
        assert!(
            !ok && text.contains("round_p50_ms=REGRESSED(+100.0%)"),
            "{text}"
        );
        assert!(text.contains("churn_leak       only in A"), "{text}");

        let failing = vec![entry("paper_1m", false, 3, &[("round_p50_ms", 50.0)])];
        let (text, ok) = compare_entries(&a, &failing);
        assert!(!ok && text.contains("ops_failed_share=ROSE"), "{text}");

        let recount = vec![
            entry("paper_1m", false, 0, &[("round_p50_ms", 50.0)]),
            entry("paper_1m", true, 0, &[("state.cohorts_peak", 31915.0)]),
        ];
        let (text, ok) = compare_entries(&a, &recount);
        assert!(
            !ok && text.contains("state.cohorts_peak@seed1=CHANGED"),
            "{text}"
        );
    }
}
