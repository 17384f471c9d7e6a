//! The observability determinism wall, checked at the process boundary:
//! enabling `--metrics-out` / `--trace-out` must never change a byte of
//! any pinned document (reports, frontiers, stats artifacts), at any
//! `--threads` value — instrumentation is observation-only. Also checks
//! the artifacts themselves: a Prometheus exposition and a loadable
//! Chrome trace with the expected series.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ethpos_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ethpos-cli"))
        .args(args)
        .output()
        .expect("spawn ethpos-cli")
}

/// Runs the binary and returns raw stdout, asserting success.
fn stdout_bytes(args: &[&str]) -> Vec<u8> {
    let out = ethpos_cli(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// A collision-free temp path (process id + caller tag).
fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ethpos-obs-{}-{tag}", std::process::id()))
}

/// Reads and removes a temp artifact.
fn take(path: &PathBuf) -> String {
    let contents = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    std::fs::remove_file(path).ok();
    contents
}

const PARTITION_SMALL: &[&str] = &["partition", "--validators", "3000", "--format", "json"];

/// The partition report and its `--stats-out` work counters are
/// byte-identical with instrumentation off, with metrics + tracing on,
/// and across `--threads` — while the artifacts carry the key series.
#[test]
fn partition_report_is_byte_identical_with_instrumentation_on() {
    let stats_path = temp("partition.stats.json");
    let stats_arg: &[&str] = &["--stats-out", stats_path.to_str().unwrap()];
    let plain = stdout_bytes(&[PARTITION_SMALL, stats_arg, &["--threads", "1"]].concat());
    let plain_stats = take(&stats_path);
    let stats: serde_json::Value = serde_json::from_str(&plain_stats).expect("valid stats JSON");
    let forks = stats.get("fork").and_then(|f| f.get("forks"));
    assert!(
        forks.and_then(|v| v.as_u64()).is_some_and(|n| n >= 1),
        "no fork counted: {plain_stats}"
    );
    let metrics_path = temp("partition.prom");
    let trace_path = temp("partition.trace.json");
    for threads in ["1", "8"] {
        let instrumented = stdout_bytes(
            &[
                PARTITION_SMALL,
                stats_arg,
                &[
                    "--threads",
                    threads,
                    "--metrics-out",
                    metrics_path.to_str().unwrap(),
                    "--trace-out",
                    trace_path.to_str().unwrap(),
                ],
            ]
            .concat(),
        );
        assert_eq!(
            instrumented, plain,
            "instrumentation changed the report at --threads {threads}"
        );
        assert_eq!(
            take(&stats_path),
            plain_stats,
            "instrumentation changed --stats-out at --threads {threads}"
        );
        let prom = take(&metrics_path);
        // Chunk-pool throughput: two scenario tasks ran to completion.
        assert!(
            prom.contains("ethpos_chunk_pool_tasks_completed_total 2"),
            "--threads {threads}:\n{prom}"
        );
        // Per-stage epoch timings on the cohort backend (sampled 1-in-64).
        assert!(
            prom.contains("# TYPE ethpos_epoch_stage_seconds histogram"),
            "{prom}"
        );
        assert!(
            prom.contains("backend=\"cohort\",stage=\"justification\""),
            "{prom}"
        );
        // Fragmentation gauges, per branch.
        assert!(prom.contains("# TYPE ethpos_cohorts gauge"), "{prom}");
        assert!(prom.contains("ethpos_cohorts{branch=\"0\"}"), "{prom}");
        assert!(prom.contains("ethpos_max_cohorts_per_class{"), "{prom}");
        let trace = take(&trace_path);
        let value: serde_json::Value = serde_json::from_str(&trace).expect("valid trace JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty(), "empty trace");
        // Scenario spans and per-epoch sim spans both make it in.
        let cat_of =
            |e: &serde_json::Value| e.get("cat").and_then(|v| v.as_str()).map(String::from);
        assert!(
            events
                .iter()
                .any(|e| cat_of(e).as_deref() == Some("partition")),
            "no partition span"
        );
        assert!(
            events.iter().any(|e| cat_of(e).as_deref() == Some("sim")),
            "no sim span"
        );
        // Every complete event carries the Chrome-required fields.
        for e in events {
            assert!(e.get("name").is_some() && e.get("ph").is_some() && e.get("ts").is_some());
        }
    }
}

/// The search frontier **and** its `--stats-out` artifact are
/// byte-identical with metrics enabled.
#[test]
fn search_stats_artifact_is_byte_identical_with_metrics_on() {
    let search: &[&str] = &[
        "search",
        "--validators",
        "120",
        "--beta0",
        "0.34",
        "--epochs",
        "80",
        "--budget",
        "16",
        "--max-period",
        "2",
        "--seed",
        "3",
        "--format",
        "json",
    ];
    let stats_path = temp("search.stats.json");
    let stats_arg: &[&str] = &["--stats-out", stats_path.to_str().unwrap()];
    let plain = stdout_bytes(&[search, stats_arg, &["--threads", "1"]].concat());
    let plain_stats = take(&stats_path);
    let metrics_path = temp("search.prom");
    for threads in ["1", "8"] {
        let instrumented = stdout_bytes(
            &[
                search,
                stats_arg,
                &[
                    "--threads",
                    threads,
                    "--metrics-out",
                    metrics_path.to_str().unwrap(),
                ],
            ]
            .concat(),
        );
        assert_eq!(instrumented, plain, "metrics changed the frontier");
        assert_eq!(
            take(&stats_path),
            plain_stats,
            "metrics changed --stats-out"
        );
        take(&metrics_path);
    }
}

/// Same wall for a chaos campaign: report and stats bytes survive
/// instrumentation.
#[test]
fn chaos_report_is_byte_identical_with_instrumentation_on() {
    let chaos: &[&str] = &[
        "chaos",
        "--budget",
        "3",
        "--seed",
        "5",
        "--validators",
        "4096",
        "--epochs",
        "256",
        "--format",
        "json",
    ];
    let stats_path = temp("chaos.stats.json");
    let stats_arg: &[&str] = &["--stats-out", stats_path.to_str().unwrap()];
    let plain = stdout_bytes(&[chaos, stats_arg, &["--threads", "1"]].concat());
    let plain_stats = take(&stats_path);
    let metrics_path = temp("chaos.prom");
    let trace_path = temp("chaos.trace.json");
    for threads in ["1", "8"] {
        let instrumented = stdout_bytes(
            &[
                chaos,
                stats_arg,
                &[
                    "--threads",
                    threads,
                    "--metrics-out",
                    metrics_path.to_str().unwrap(),
                    "--trace-out",
                    trace_path.to_str().unwrap(),
                ],
            ]
            .concat(),
        );
        assert_eq!(instrumented, plain, "instrumentation changed the report");
        assert_eq!(
            take(&stats_path),
            plain_stats,
            "metrics changed --stats-out"
        );
        take(&metrics_path);
        let trace = take(&trace_path);
        let value: serde_json::Value = serde_json::from_str(&trace).expect("valid trace JSON");
        let events = value.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(
            events
                .iter()
                .any(|e| { e.get("cat").and_then(|v| v.as_str()) == Some("chaos") }),
            "no chaos span"
        );
    }
}

/// The golden-pinned experiment documents survive instrumentation too.
#[test]
fn experiment_json_is_byte_identical_with_instrumentation_on() {
    let plain = stdout_bytes(&["table2", "--format", "json"]);
    let metrics_path = temp("table2.prom");
    let trace_path = temp("table2.trace.json");
    let instrumented = stdout_bytes(&[
        "table2",
        "--format",
        "json",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(instrumented, plain, "instrumentation changed table2");
    take(&metrics_path);
    take(&trace_path);
}
