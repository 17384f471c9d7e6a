//! The ledger's vocabulary: every workload and every metric by name,
//! unit and direction. `BENCHMARK.json` at the repository root is
//! generated from this table (`manifest` subcommand) and a self-test
//! keeps the two equal, so a name is spelled in exactly one place.

use serde_json::Value;

use crate::json::{object, text};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Manifest spelling.
    pub fn id(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name (`--workload`).
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The seven workloads, in suite order.
pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "paper_1m",
        why: "fig2/table2/table3 + partition presets at n=1e6: deterministic timelines, CoW forks, heal; no churn sampling, no MC",
    },
    WorkloadSpec {
        name: "churn_leak",
        why: "50/50 churn partition, 128 epochs: the cohort fragmentation floor (member updates, re-sort, per-cohort binomial draws)",
    },
    WorkloadSpec {
        name: "search_frontier",
        why: "three search objectives: PrefixMemo hit path, early-stop path, full-horizon path over the two-branch engine on the pool",
    },
    WorkloadSpec {
        name: "bouncing_mc",
        why: "fig10 walk MC + sweep grid + closed forms: seed streams and stats numerics; state and partition engine do nothing here",
    },
    WorkloadSpec {
        name: "chaos_campaign",
        why: "heterogeneous cases on the pool, oracles, dense cross-checks; churn beside pinned timelines, slowest case sets the round",
    },
    WorkloadSpec {
        name: "server_hit",
        why: "500 cached POSTs per round over loopback, 10% large documents: the read path, no simulation at all",
    },
    WorkloadSpec {
        name: "server_miss",
        why: "never-seen paper_1m requests: POST, poll, document; queue, runner, execute, commit beside the read path",
    },
];

/// Whether `name` is one of [`WORKLOADS`].
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system waits for or pays.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("round_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// One number per layer-level question; layers are the crate names.
pub const PER_LAYER: [MetricSpec; 65] = [
    lower("core.parse_us", "us"),
    lower("core.canonical_json_us", "us"),
    lower("core.request_hash_us", "us"),
    higher("core.execute_share", "ratio"),
    lower("core.render_ms_per_mb", "ms/MiB"),
    lower("core.closed_form_ms", "ms"),
    lower("core.sweep_ms_per_point", "ms"),
    lower("core.partition_1m_ms", "ms"),
    higher("core.chaos_cases_per_s", "1/s"),
    lower("core.chaos_slowest_case_share", "ratio"),
    lower("core.chaos_churn_case_share", "ratio"),
    lower("crypto.hash_ns_per_byte", "ns/B"),
    lower("stats.binv_ns_per_draw", "ns"),
    lower("stats.btpe_ns_per_draw", "ns"),
    lower("stats.rng_ns_per_u64", "ns"),
    lower("state.cohort_compact_ns_per_epoch", "ns"),
    lower("state.fork_clone_us", "us"),
    lower("state.cohort_frag_ns_per_cohort_epoch", "ns"),
    lower("state.cohort_frag_ns_per_cohort_epoch_1m", "ns"),
    lower("state.mark_counted_ns_per_cohort", "ns"),
    lower("state.cohorts_peak", "count"),
    lower("state.cohorts_per_member_final", "ratio"),
    lower("state.dense_ns_per_validator_epoch", "ns"),
    lower("state.stage_share.cohort.justification", "ratio"),
    lower("state.stage_share.cohort.member_updates", "ratio"),
    lower("state.stage_share.cohort.slashings_reset", "ratio"),
    lower("state.stage_share.dense.justification", "ratio"),
    lower("state.stage_share.dense.inactivity_leak", "ratio"),
    lower("state.stage_share.dense.rewards_penalties", "ratio"),
    lower("state.stage_share.dense.registry_ejection", "ratio"),
    lower("state.stage_share.dense.slashings", "ratio"),
    lower("state.stage_share.dense.effective_balance", "ratio"),
    lower("state.stage_share.dense.slashings_reset", "ratio"),
    lower("state.stage_share.dense.flag_rotation", "ratio"),
    lower("sim.step_us_p50", "us"),
    lower("sim.step_us_last_decile", "us"),
    lower("sim.step_self_share", "ratio"),
    lower("sim.churn_draws_per_member", "ratio"),
    lower("sim.single_branch_ns_per_epoch", "ns"),
    lower("sim.timeline_compile_us", "us"),
    lower("sim.walk_ns_per_walker_epoch", "ns"),
    lower("sim.two_branch_walk_ns_per_walker_epoch", "ns"),
    higher("sim.pool_speedup_t2", "ratio"),
    lower("sim.pool_cpu_ratio_t2", "ratio"),
    higher("sim.pool_busy_share", "ratio"),
    lower("search.us_per_candidate.nsh", "us"),
    lower("search.us_per_candidate.conflict", "us"),
    lower("search.us_per_candidate.proportion", "us"),
    higher("search.memoized_fraction", "ratio"),
    lower("search.pair_epochs_per_candidate", "count"),
    lower("server.healthz_us_p50", "us"),
    lower("server.hit_small_us_p50", "us"),
    lower("server.hit_large_us_p50", "us"),
    lower("server.hit_large_us_per_kb", "us/KiB"),
    lower("server.hit_us_p99", "us"),
    lower("server.metrics_scrape_ms_p50", "ms"),
    lower("server.cache_load_us_per_mb", "us/MiB"),
    lower("server.cache_store_ms_small", "ms"),
    lower("server.cache_store_ms_large", "ms"),
    lower("server.miss_overhead_ms_p50", "ms"),
    lower("server.miss_polls_per_op", "count"),
    lower("server.status_us_p50", "us"),
    lower("server.rejected_share", "ratio"),
    lower("obs.traced_overhead_share", "ratio"),
    higher("obs.span_coverage_share", "ratio"),
];

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let name_unit_better = |m: &MetricSpec| {
        [
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.id())),
        ]
    };
    let bounded = |m: &MetricSpec| {
        let [name, unit, better] = name_unit_better(m);
        object([name, unit, better, ("bound", Value::F64(m.bound))])
    };
    let doc = object([
        (
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(bounded).collect()),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| object(name_unit_better(m)))
                    .collect(),
            ),
        ),
    ]);
    format!(
        "{}\n",
        serde_json::to_string_pretty(&doc).expect("manifest serializes")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_manifest_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(names.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_rendered_catalog() {
        let path = crate::paths::harness_dir().join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
