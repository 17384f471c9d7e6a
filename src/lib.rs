//! # ethpos — Byzantine Attacks Exploiting Penalties in Ethereum PoS
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *Byzantine Attacks Exploiting Penalties in Ethereum
//! PoS* (Pavloff, Amoussou-Guenou, Tucci-Piergiovanni — DSN 2024).
//!
//! The workspace contains:
//!
//! * [`types`] — slots, epochs, Gwei, roots, checkpoints, branch ids,
//!   configs;
//! * [`crypto`] — the simulated 256-bit hash (SipHash lanes);
//! * [`stats`] — erf, root finding, quadrature, exact binomial draws and
//!   seed streams;
//! * [`state`] — the beacon state transition with the inactivity leak;
//! * [`sim`] — the Byzantine participation schedules, the epoch-level
//!   k-branch partition engine, single-branch trajectories and the §5.3
//!   Monte-Carlo walks;
//! * [`core`] — the paper's analytical model and the five attack
//!   scenarios, plus the experiment registry regenerating every table and
//!   figure;
//! * [`search`] — adversary strategy search: duty-cycle genomes over the
//!   paper's attack space, damage objectives, and worst-case
//!   damage-vs-cost Pareto frontiers;
//! * [`obs`] — the observability substrate: a lock-free metrics registry
//!   (Prometheus/JSON exposition) and hierarchical span tracing (Chrome
//!   trace export), runtime-gated and zero-perturbation;
//! * [`server`] — the resident experiment service: a std-only HTTP
//!   server executing canonicalized requests behind a content-addressed
//!   artifact cache (`ethpos-cli serve`).
//!
//! # Quickstart
//!
//! ```
//! use ethpos::core::experiments::{Experiment, run_experiment};
//!
//! // Regenerate Table 2 of the paper (conflicting finalization epochs
//! // under the slashable dual-voting attack).
//! let table = run_experiment(Experiment::Table2Slashable);
//! println!("{}", table.render_text());
//! ```

pub use ethpos_core as core;
pub use ethpos_crypto as crypto;
pub use ethpos_obs as obs;
pub use ethpos_search as search;
pub use ethpos_server as server;
pub use ethpos_sim as sim;
pub use ethpos_state as state;
pub use ethpos_stats as stats;
pub use ethpos_types as types;
