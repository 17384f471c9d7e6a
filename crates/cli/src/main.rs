//! `ethpos-cli` — regenerate any table or figure of *Byzantine Attacks
//! Exploiting Penalties in Ethereum PoS* (Pavloff, Amoussou-Guenou,
//! Tucci-Piergiovanni — DSN 2024) from the analytical model.
//!
//! ```bash
//! cargo run --release -p ethpos-cli -- table2        # one experiment
//! cargo run --release -p ethpos-cli -- fig2 fig10    # several
//! cargo run --release -p ethpos-cli -- all           # the whole paper
//! cargo run --release -p ethpos-cli -- all --format json
//! cargo run --release -p ethpos-cli -- --list
//!
//! # Beyond the paper: parameter sweeps on the deterministic thread pool
//! # (the thread count never changes a single output byte):
//! cargo run --release -p ethpos-cli -- sweep --grid beta0=0.3,0.33,0.333 \
//!     --grid semantics=paper,spec --threads 8 --format json
//! cargo run --release -p ethpos-cli -- fig10 --threads 8
//!
//! # Discrete cross-checks at the paper's true population size, on the
//! # cohort-compressed state backend (exact spec arithmetic, interactive
//! # at a million validators):
//! cargo run --release -p ethpos-cli -- fig2 table2 --validators 1000000 \
//!     --backend cohort
//!
//! # Beyond the paper: search the adversary strategy space for the
//! # worst-case damage-vs-cost frontier (rediscovers the paper's
//! # dual-active and semi-active strategies as the frontier's ends):
//! cargo run --release -p ethpos-cli -- search \
//!     --objective non-slashable-horizon --out frontier.json --format json
//!
//! # Beyond the paper: a randomized chaos campaign — sampled timelines ×
//! # adversaries checked against safety/liveness oracles derived from
//! # the paper's closed forms, with minimized reproducers for anything
//! # unexpected:
//! cargo run --release -p ethpos-cli -- chaos --budget 512 --seed 1 \
//!     --out chaos.json --format json
//! ```

use std::process::ExitCode;

use ethpos_cli::{parse_args, run, usage, Cli, CliError};

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        // `serve` never returns on success: bind, announce the resolved
        // address (tests and scripts parse it, so it goes to stdout and
        // is flushed before blocking), then serve forever.
        Ok(Cli::Serve {
            addr,
            cache_dir,
            threads,
        }) => {
            let config = ethpos_server::ServerConfig {
                addr,
                cache_dir,
                threads,
                ..ethpos_server::ServerConfig::default()
            };
            let server = match ethpos_server::Server::bind(&config) {
                Ok(server) => server,
                Err(err) => {
                    eprintln!("error: cannot start the server on `{}`: {err}", config.addr);
                    return ExitCode::FAILURE;
                }
            };
            match server.local_addr() {
                Ok(addr) => {
                    use std::io::Write;
                    println!("ethpos-server listening on http://{addr}");
                    let _ = std::io::stdout().flush();
                }
                Err(err) => {
                    eprintln!("error: cannot resolve the listen address: {err}");
                    return ExitCode::FAILURE;
                }
            }
            server.serve()
        }
        Ok(cli) => {
            // Probe the destinations up front so a typo'd path fails in
            // milliseconds, not after a long simulation — without
            // truncating a pre-existing artifact (an interrupted run
            // must not destroy the previous good output).
            let (out, destinations) = match &cli {
                Cli::Job {
                    out,
                    stats_out,
                    obs,
                    ..
                } => (out, vec![out, stats_out, &obs.metrics_out, &obs.trace_out]),
                _ => (&None, vec![]),
            };
            for path in destinations.into_iter().flatten() {
                let probe = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(path);
                if let Err(err) = probe {
                    eprintln!("error: cannot write `{path}`: {err}");
                    return ExitCode::FAILURE;
                }
            }
            let artifacts = run(&cli);
            match out {
                None => print!("{}", artifacts.document),
                Some(path) => {
                    if let Err(err) = std::fs::write(path, &artifacts.document) {
                        eprintln!("error: cannot write `{path}`: {err}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
            }
            for artifact in artifacts.side_channels {
                if let Err(err) = std::fs::write(&artifact.path, &artifact.contents) {
                    eprintln!("error: cannot write `{}`: {err}", artifact.path);
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", artifact.path);
            }
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
