//! Result files and the suite that fills them.
//!
//! A result file is the machine fingerprint plus a flat list of run
//! entries (`run::Report::to_value`), traced and untraced, one per
//! (workload, seed). The suite runs each workload in a fresh child
//! process of this binary: `peak_rss_mb` is a per-process high-water
//! mark, `Server::bind` flips the process-global registry on, and
//! `serve()` never returns.

use serde_json::Value;

use crate::catalog;
use crate::compare;
use crate::json::object;
use crate::machine;
use crate::paths;
use crate::predictions;

/// Schema tag of a result file.
pub const SCHEMA: &str = "ethpos-benchmark/1";

/// `benchmark/out/<name>` as a string.
pub fn default_out(name: &str) -> String {
    paths::out_dir().join(name).to_string_lossy().into_owned()
}

/// Writes a result file: fingerprint, then `entries`.
///
/// # Errors
///
/// Returns a message naming the path that could not be written.
pub fn write_entries(
    path: &str,
    entries: Vec<Value>,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let doc = object([
        ("schema", Value::String(SCHEMA.into())),
        ("fingerprint", machine::fingerprint(seed, seconds)),
        ("predictions", predictions::check(&entries)),
        ("runs", Value::Array(entries)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))
}

/// Reads the run entries of a result file.
///
/// # Errors
///
/// Returns a message when the file is missing, is not JSON, or is not a
/// result file of this schema.
pub fn read_entries(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not an {SCHEMA} result file"));
    }
    doc.get("runs")
        .and_then(Value::as_array)
        .cloned()
        .ok_or_else(|| format!("{path}: no `runs`"))
}

/// A pass over every workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// First seed.
    pub seed: u64,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Untraced runs per workload, on seeds `seed, seed + 1, …`.
    pub repeat: u64,
    /// Run the untraced (end-to-end) runs.
    pub untraced: bool,
    /// Run one traced (per-layer) run per workload, at `seed`.
    pub traced: bool,
    /// Rewrite the pinned digests from the untraced run at `seed`.
    pub regen_digests: bool,
}

impl Suite {
    fn child(&self, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
        let part = default_out(&format!(
            ".part-{}-{workload}-{seed}-{}.json",
            std::process::id(),
            u8::from(trace)
        ));
        let (seed_arg, seconds_arg) = (seed.to_string(), self.seconds.to_string());
        let mut command = machine::pinned_self([
            "run",
            "--workload",
            workload,
            "--seed",
            &seed_arg,
            "--seconds",
            &seconds_arg,
            "--trace",
            if trace { "1" } else { "0" },
            "--out",
            &part,
        ])?;
        if self.regen_digests && !trace && seed == self.seed {
            command.arg("--regen-digests");
        }
        // Inherited stdout: the child prints every metric by name. A
        // failed op makes the child exit non-zero; its entry still
        // lands in the part file, so only a missing file is an error.
        let status = command
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let entries = read_entries(&part);
        std::fs::remove_file(&part).ok();
        let mut entries = entries.map_err(|e| format!("{workload} ({status}): {e}"))?;
        entries
            .pop()
            .ok_or_else(|| format!("{workload}: empty part file"))
    }

    /// Runs the pass and returns its entries.
    ///
    /// # Errors
    ///
    /// Returns a message when a child cannot be spawned or leaves no
    /// result behind.
    pub fn run_entries(&self) -> Result<Vec<Value>, String> {
        let mut entries = Vec::new();
        for workload in &catalog::WORKLOADS {
            if self.untraced {
                for k in 0..self.repeat {
                    entries.push(self.child(workload.name, self.seed + k, false)?);
                }
            }
            if self.traced {
                entries.push(self.child(workload.name, self.seed, true)?);
            }
        }
        Ok(entries)
    }
}

fn all_correct(entries: &[Value]) -> bool {
    entries
        .iter()
        .all(|e| e.get("failed").and_then(Value::as_u64) == Some(0))
}

/// Runs `suite` and writes its result file; `Ok(false)` when an op
/// failed.
///
/// # Errors
///
/// Same as [`Suite::run_entries`] and [`write_entries`].
pub fn run_suite(suite: &Suite, out: &str) -> Result<bool, String> {
    let entries = suite.run_entries()?;
    let correct = all_correct(&entries);
    write_entries(out, entries, suite.seed, suite.seconds)?;
    println!("wrote {out}");
    Ok(correct)
}

/// The self-agreement check: the same pass twice on the same build,
/// then `compare`. `Ok(true)` when no pair regressed and no op failed.
///
/// # Errors
///
/// Same as [`run_suite`].
pub fn aa(suite: &Suite) -> Result<bool, String> {
    let (a, b) = (default_out("aa-A.json"), default_out("aa-B.json"));
    let first = run_suite(suite, &a)?;
    let second = run_suite(suite, &b)?;
    Ok(compare::compare_files(&a, &b)? && first && second)
}
