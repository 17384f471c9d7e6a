//! The "how the metrics interact" predictions, written down before
//! anything was measured and checked here against the entries of a
//! pass. Each result file carries the verdicts; a refuted prediction is
//! a finding about the system, not a failure of the run.

use serde_json::Value;

use crate::json::object;

fn metric(entries: &[Value], workload: &str, traced: bool, name: &str) -> Option<f64> {
    entries
        .iter()
        .find(|e| {
            e.get("workload").and_then(Value::as_str) == Some(workload)
                && e.get("trace").and_then(Value::as_bool) == Some(traced)
        })?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn stage_total(entries: &[Value], workload: &str) -> Option<f64> {
    let entry = entries.iter().find(|e| {
        e.get("workload").and_then(Value::as_str) == Some(workload)
            && e.get("trace").and_then(Value::as_bool) == Some(true)
    })?;
    let Value::Object(metrics) = entry.get("metrics")? else {
        return None;
    };
    Some(
        metrics
            .iter()
            .filter(|(name, _)| name.starts_with("state.stage_share."))
            .filter_map(|(_, m)| m.get("value").and_then(Value::as_f64))
            .sum(),
    )
}

fn row(claim: &str, observed: Option<(String, bool)>) -> Value {
    let (observed, verdict) = match observed {
        Some((text, true)) => (text, "confirmed"),
        Some((text, false)) => (text, "refuted"),
        None => ("not measured in this file".to_string(), "untested"),
    };
    object([
        ("claim", Value::String(claim.into())),
        ("observed", Value::String(observed)),
        ("verdict", Value::String(verdict.into())),
    ])
}

/// Checks every prediction the entries can decide.
pub fn check(entries: &[Value]) -> Value {
    let traced = |w: &str, name: &str| metric(entries, w, true, name);
    let plain = |w: &str, name: &str| metric(entries, w, false, name);
    let mut rows = Vec::new();

    rows.push(row(
        "the state layer (count-marking + advance_epoch) is >= 80% of a churn_leak epoch step",
        traced("churn_leak", "sim.step_self_share").map(|own| {
            (
                format!("state share of step = {:.3}", 1.0 - own),
                1.0 - own >= 0.8,
            )
        }),
    ));
    rows.push(row(
        "member_updates dominates churn_leak's epoch stages and is not what paper_1m spends its stages on",
        traced("churn_leak", "state.stage_share.cohort.member_updates")
            .zip(traced("paper_1m", "state.stage_share.cohort.member_updates"))
            .map(|(churn, paper)| {
                (
                    format!("member_updates share: churn_leak {churn:.3}, paper_1m {paper:.3}"),
                    churn >= 0.8 && paper < 0.5,
                )
            }),
    ));
    rows.push(row(
        "the epoch engine does nothing on bouncing_mc (a state-layer change must not move it)",
        stage_total(entries, "bouncing_mc")
            .map(|total| (format!("sum of stage shares = {total}"), total == 0.0)),
    ));
    rows.push(row(
        "request hashing matters only where no simulation runs: < 0.1% of an engine op, >= 1% of a small hit",
        traced("paper_1m", "core.request_hash_us")
            .zip(plain("paper_1m", "ops_per_s"))
            .zip(traced("server_hit", "core.request_hash_us"))
            .zip(traced("server_hit", "server.hit_small_us_p50"))
            .map(|(((hash_us, ops), hit_hash_us), hit_us)| {
                let engine = hash_us / (1e6 / ops);
                let hit = hit_hash_us / hit_us;
                (
                    format!("hash share: paper_1m op {engine:.5}, small hit {hit:.4}"),
                    engine < 0.001 && hit >= 0.01,
                )
            }),
    ));
    rows.push(row(
        "a miss costs the direct execute plus server.miss_overhead_ms_p50: server_miss op ~ paper_1m mix + overhead (within 25%)",
        plain("server_miss", "ops_per_s")
            .zip(plain("paper_1m", "round_p50_ms"))
            .zip(traced("server_miss", "core.partition_1m_ms"))
            .zip(traced("server_miss", "server.miss_overhead_ms_p50"))
            .map(|(((ops, round), partition), overhead)| {
                // A miss round is 15 partitions + 5 experiments; a
                // paper_1m round is one of each.
                let mix = (15.0 * partition + 5.0 * (round - partition)) / 20.0;
                let predicted = mix + overhead;
                let observed = 1e3 / ops;
                (
                    format!("observed {observed:.2} ms/op, predicted {predicted:.2} ms/op"),
                    (observed - predicted).abs() <= 0.25 * predicted,
                )
            }),
    ));
    rows.push(row(
        "chaos_campaign waits for its slowest case: its pool is less busy than bouncing_mc's homogeneous chunks",
        traced("chaos_campaign", "sim.pool_busy_share")
            .zip(traced("bouncing_mc", "sim.pool_busy_share"))
            .zip(traced("chaos_campaign", "core.chaos_slowest_case_share"))
            .map(|((chaos, mc), slowest)| {
                (
                    format!(
                        "pool busy: chaos_campaign {chaos:.3}, bouncing_mc {mc:.3}; slowest case {slowest:.3} of all case time"
                    ),
                    chaos < mc,
                )
            }),
    ));
    rows.push(row(
        "parallelism moves wall time and leaves CPU time flat or worse (the fig10 walk at 1 then 2 threads)",
        traced("bouncing_mc", "sim.pool_speedup_t2")
            .zip(traced("bouncing_mc", "sim.pool_cpu_ratio_t2"))
            // Both read 0 where there is no second core to scale onto.
            .filter(|(speedup, _)| *speedup > 0.0)
            .map(|(speedup, cpu)| {
                (
                    format!("wall speed-up {speedup:.2}, CPU time ratio {cpu:.2}"),
                    speedup > 1.2 && cpu >= 0.9,
                )
            }),
    ));
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::object;

    fn entry(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> Value {
        object([
            ("workload", Value::String(workload.into())),
            ("trace", Value::Bool(trace)),
            (
                "metrics",
                Value::Object(
                    metrics
                        .iter()
                        .map(|(n, v)| (n.to_string(), object([("value", Value::F64(*v))])))
                        .collect(),
                ),
            ),
        ])
    }

    fn verdicts(entries: &[Value]) -> Vec<String> {
        match check(entries) {
            Value::Array(rows) => rows
                .iter()
                .map(|r| {
                    r.get("verdict")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn predictions_are_untested_without_traced_entries_and_decided_with_them() {
        assert!(verdicts(&[]).iter().all(|v| v == "untested"));
        let entries = vec![
            entry("churn_leak", true, &[("sim.step_self_share", 0.1)]),
            entry(
                "bouncing_mc",
                true,
                &[("state.stage_share.cohort.member_updates", 0.0)],
            ),
        ];
        let v = verdicts(&entries);
        assert_eq!(v[0], "confirmed");
        assert_eq!(v[1], "untested");
        assert_eq!(v[2], "confirmed");
        let refuted = vec![entry("churn_leak", true, &[("sim.step_self_share", 0.6)])];
        assert_eq!(verdicts(&refuted)[0], "refuted");
    }
}
