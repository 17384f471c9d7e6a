//! `ethpos-benchmark` — the repo's perf ledger.
//!
//! Seven request-level workloads, five end-to-end metrics with
//! regression bounds, per-layer probes and a traced run, driven only
//! through the workspace's public functions (`JobRequest::{parse,
//! canonical_json, request_hash, set_threads, execute}` and real
//! HTTP/1.1 against an in-process `ethpos-server`). See `README.md`
//! beside this crate for the tables and how to read them.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--repeat K] [--out FILE]
//!     compare A.json B.json
//!     aa [--seed S] [--seconds N] [--repeat K]
//!     manifest
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod catalog;
mod client;
mod compare;
mod json;
mod ledger;
mod machine;
mod oracle;
mod paths;
mod predictions;
mod probes;
mod requests;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage: ethpos-benchmark <command>

  run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
      [--repeat K] [--out FILE] [--regen-digests]
        One workload in this process (the last stdout line is the result
        object), or - without --workload - every workload, each in a
        child process, untraced then traced, K seeds from S upward.
  compare A.json B.json
        Judge B against A per (workload, end-to-end metric) by the
        catalog's bounds; exits non-zero on a regression.
  aa [--seed S] [--seconds N] [--repeat K]
        Run the suite twice on this build and compare the two.
  manifest
        Print BENCHMARK.json as the catalog defines it.
";

/// Parsed `run` / `aa` flags.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: u64,
    out: Option<String>,
    regen_digests: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: requests::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: None,
        repeat: 1,
        out: None,
        regen_digests: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !catalog::is_workload(&name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                flags.workload = Some(name);
            }
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?;
            }
            "--seconds" => {
                flags.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--repeat" => {
                flags.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--repeat takes a positive integer")?;
            }
            "--out" => flags.out = Some(value()?),
            "--regen-digests" => flags.regen_digests = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    match &flags.workload {
        // A measured process runs under the allocator pin: start over
        // as a child that has it, and answer with the child's verdict.
        Some(_) if !machine::allocator_is_pinned() => {
            let status = machine::pinned_self(
                std::iter::once("run").chain(args.iter().map(String::as_str)),
            )?
            .status()
            .map_err(|e| format!("spawn pinned run: {e}"))?;
            match status.code() {
                Some(0) => Ok(true),
                Some(1) => Ok(false),
                _ => Err(format!("pinned run ended with {status}")),
            }
        }
        Some(workload) => {
            let options = run::Options {
                workload: workload.clone(),
                seed: flags.seed,
                seconds: flags.seconds,
                trace: flags.trace.unwrap_or(false),
                regen_digests: flags.regen_digests,
            };
            let report = run::run(&options)?;
            print!("{}", report.render_text());
            if let Some(out) = &flags.out {
                ledger::write_entries(out, vec![report.to_value()], flags.seed, flags.seconds)?;
            }
            // The contract's result object is the last line of stdout.
            println!("{}", report.contract_line());
            Ok(report.correct())
        }
        None => {
            let out = flags
                .out
                .clone()
                .unwrap_or_else(|| ledger::default_out("BENCH.json"));
            ledger::run_suite(&suite_of(&flags), &out)
        }
    }
}

/// The pass over every workload that `flags` ask for.
fn suite_of(flags: &Flags) -> ledger::Suite {
    ledger::Suite {
        seed: flags.seed,
        seconds: flags.seconds,
        repeat: flags.repeat,
        untraced: flags.trace != Some(true),
        traced: flags.trace != Some(false),
        regen_digests: flags.regen_digests,
    }
}

fn aa_command(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    if flags.workload.is_some()
        || flags.trace.is_some()
        || flags.out.is_some()
        || flags.regen_digests
    {
        return Err("aa takes only --seed, --seconds and --repeat".into());
    }
    ledger::aa(&suite_of(&flags))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => run_command(rest),
            "compare" => match rest {
                [a, b] => compare::compare_files(a, b),
                _ => Err("compare takes two result files".into()),
            },
            "aa" => aa_command(rest),
            "manifest" => {
                print!("{}", catalog::manifest_json());
                Ok(true)
            }
            _ => Err(format!("unknown command `{command}`\n\n{USAGE}")),
        },
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_invocation_parses() {
        let f = flags(&[
            "--workload",
            "server_hit",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(f.workload.as_deref(), Some("server_hit"));
        assert_eq!((f.seed, f.seconds, f.trace), (7, 10.0, Some(true)));
        let d = flags(&[]).expect("defaults");
        assert_eq!(
            (d.seed, d.repeat, d.trace),
            (requests::DEFAULT_SEED, 1, None)
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(flags(bad).is_err(), "{bad:?}");
        }
    }
}
