//! End-to-end tests of the `ethpos-cli` binary: experiment-id parsing at
//! the process boundary, exit codes, and JSON that round-trips through
//! serde.

use std::process::{Command, Output};

use ethpos_cli::{parse_args, Cli};
use ethpos_core::experiments::Experiment;
use ethpos_core::JobRequest;

fn ethpos_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ethpos-cli"))
        .args(args)
        .output()
        .expect("spawn ethpos-cli")
}

#[test]
fn single_experiment_renders_text() {
    let out = ethpos_cli(&["table2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("# "), "no title in:\n{text}");
    // Paper headline: conflicting finalization at epoch 3107 for β0 = 0.33.
    assert!(text.contains("3107"), "missing headline number:\n{text}");
}

#[test]
fn json_output_round_trips_through_serde() {
    let out = ethpos_cli(&["fig8", "--format", "json"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        value.get("experiment").and_then(|v| v.as_str()),
        Some("Fig8MarkovTransitions")
    );
    for key in ["title", "tables", "series"] {
        assert!(value.get(key).is_some(), "missing `{key}`");
    }
    // Render → parse → render is a fixed point, i.e. the JSON truly
    // round-trips through the serde value model.
    let rendered = serde_json::to_string_pretty(&value).unwrap();
    let reparsed: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    assert_eq!(reparsed, value);
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let out = ethpos_cli(&["fig42"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment `fig42`"), "stderr: {err}");
    assert!(err.contains("USAGE"), "stderr: {err}");
}

#[test]
fn list_names_every_experiment() {
    let out = ethpos_cli(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for id in [
        "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2", "table3",
    ] {
        assert!(text.contains(id), "`{id}` missing from --list:\n{text}");
    }
    // The table's rows: an unmarked id runs as one experiment, an id
    // marked `*` is a subcommand word on the command line.
    let rows = text.lines().skip(1).take_while(|line| !line.is_empty());
    for id in rows.map(|row| row.split_whitespace().next().unwrap()) {
        let (word, marked) = match id.strip_suffix('*') {
            Some(word) => (word, true),
            None => (id, false),
        };
        let Ok(Cli::Job { request, .. }) = parse_args([word.to_string()]) else {
            panic!("--list offers `{id}`, which does not parse to a job");
        };
        match *request {
            JobRequest::Run { experiments, .. } if !marked => {
                assert_eq!(experiments, [Experiment::from_id(word).unwrap()], "`{id}`");
            }
            request if marked => assert_eq!(request.kind(), word, "`{id}` is no subcommand"),
            request => panic!("--list offers `{id}`, a `{}` request", request.kind()),
        }
    }
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

/// The workspace determinism model, observed at the process boundary:
/// the fig10 JSON (including its Monte-Carlo cross-check table) is
/// byte-identical for any `--threads` value.
#[test]
fn fig10_json_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        stdout_bytes(&[
            "fig10",
            "--walkers",
            "2048",
            "--epochs",
            "400",
            "--seed",
            "42",
            "--format",
            "json",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    assert!(!one.is_empty());
    for threads in ["2", "8"] {
        assert_eq!(run(threads), one, "--threads {threads} changed fig10");
    }
}

/// Same property for a sweep grid: `--threads` may only change
/// wall-clock time.
#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        stdout_bytes(&[
            "sweep",
            "--grid",
            "beta0=0.3,0.333",
            "--grid",
            "semantics=paper,spec",
            "--walkers",
            "1024",
            "--epochs",
            "300",
            "--format",
            "json",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    for threads in ["2", "8"] {
        assert_eq!(run(threads), one, "--threads {threads} changed the sweep");
    }
    // and the document is valid JSON with the full grid
    let text = String::from_utf8(one).expect("utf-8");
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
    assert_eq!(rows.len(), 4);
}

#[test]
fn sweep_text_renders_the_grid_table() {
    let out = stdout_bytes(&[
        "sweep",
        "--walkers",
        "512",
        "--epochs",
        "200",
        "--threads",
        "2",
    ]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("Parameter sweep"), "{text}");
    // One row per default-grid β0, matched as whole padded table cells
    // so a shorter value cannot satisfy a longer one's assertion.
    for cell in ["| 0.3   |", "| 0.33  |", "| 0.333 |"] {
        assert!(text.contains(cell), "missing β0 row `{cell}`:\n{text}");
    }
}

#[test]
fn sweep_rejects_bad_grid_axis() {
    let out = ethpos_cli(&["sweep", "--grid", "gamma=1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown grid axis"), "stderr: {err}");
}

/// `--out` writes exactly the document that would have gone to stdout,
/// and keeps stdout empty (the confirmation goes to stderr).
#[test]
fn out_flag_writes_the_stdout_document_to_a_file() {
    let path = std::env::temp_dir().join(format!("ethpos-out-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let stdout = stdout_bytes(&["table2", "--format", "json"]);
    let out = ethpos_cli(&["table2", "--format", "json", "--out", path_str]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "stdout must stay clean with --out");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("wrote"), "stderr: {err}");
    let written = std::fs::read(&path).expect("file written");
    assert_eq!(written, stdout, "--out bytes differ from stdout bytes");
    std::fs::remove_file(&path).ok();
}

/// Writing to an impossible path fails loudly with a non-zero exit.
#[test]
fn out_flag_to_bad_path_fails() {
    let out = ethpos_cli(&["table1", "--out", "/nonexistent-dir/x/y.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot write"), "stderr: {err}");
}

/// A tiny end-to-end search: the subcommand runs, reports a frontier,
/// and the winner at β0 > ⅓ is the paper's dual-active strategy.
#[test]
fn search_subcommand_end_to_end() {
    let out = stdout_bytes(&[
        "search",
        "--validators",
        "120",
        "--beta0",
        "0.34",
        "--epochs",
        "60",
        "--budget",
        "12",
        "--max-period",
        "2",
        "--threads",
        "2",
    ]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("Attack search"), "{text}");
    assert!(text.contains("dual-active"), "{text}");
}

/// A small end-to-end partition run: both preset timelines execute and
/// report conflicting finalization with the conflicting branch pair.
#[test]
fn partition_subcommand_end_to_end() {
    let out = stdout_bytes(&["partition", "--validators", "3000", "--threads", "2"]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("Partition timelines"), "{text}");
    assert!(text.contains("three-branch"), "{text}");
    assert!(text.contains("heal-resplit"), "{text}");
    assert!(text.contains("split@0:0=0.5,0.5; heal@300:0<-1"), "{text}");
}

/// The partition report honours the workspace determinism model at the
/// process boundary: byte-identical JSON for any `--threads` value.
#[test]
fn partition_json_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        stdout_bytes(&[
            "partition",
            "--validators",
            "3000",
            "--format",
            "json",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    assert!(!one.is_empty());
    for threads in ["2", "8"] {
        assert_eq!(run(threads), one, "--threads {threads} changed the report");
    }
    let text = String::from_utf8(one).expect("utf-8");
    let value: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let rows = value.get("rows").and_then(|v| v.as_array()).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r
        .get("conflict_epoch")
        .map(|t| !t.is_null())
        .unwrap_or(false)));
}

/// A raw `--timeline` spec runs end-to-end, and a malformed one fails
/// with a usage error naming the problem.
#[test]
fn partition_timeline_spec_end_to_end() {
    let out = stdout_bytes(&[
        "partition",
        "--timeline",
        "split@0:0=0.5,0.5",
        "--strategy",
        "dual-active",
        "--beta0",
        "0.34",
        "--epochs",
        "60",
        "--validators",
        "300",
        "--threads",
        "1",
    ]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("dual-active"), "{text}");
    let bad = ethpos_cli(&["partition", "--timeline", "split@0:7=0.5,0.5"]);
    assert_eq!(bad.status.code(), Some(2));
    let err = String::from_utf8(bad.stderr).unwrap();
    assert!(err.contains("not live"), "stderr: {err}");
}

/// The search frontier honours the workspace determinism model at the
/// process boundary: byte-identical JSON for any `--threads` value.
#[test]
fn search_json_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        stdout_bytes(&[
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
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    assert!(!one.is_empty());
    for threads in ["2", "8"] {
        assert_eq!(
            run(threads),
            one,
            "--threads {threads} changed the frontier"
        );
    }
}
