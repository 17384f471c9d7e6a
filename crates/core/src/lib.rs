//! The paper's contribution: a formal model of the Ethereum PoS
//! **inactivity leak** and the Byzantine attacks it enables.
//!
//! *Byzantine Attacks Exploiting Penalties in Ethereum PoS* (Pavloff,
//! Amoussou-Guenou, Tucci-Piergiovanni — DSN 2024) analyses five
//! scenarios; this crate implements the full analytical apparatus
//! (equations 1–24) and the scenario drivers that cross-check it against
//! the discrete protocol simulators in `ethpos-sim`:
//!
//! | Module | Paper section | Outcome |
//! |---|---|---|
//! | [`scenarios::honest`] | §5.1 | two finalized branches (bound: 4686 epochs) |
//! | [`scenarios::slashing`] | §5.2.1 | two finalized branches, faster (Table 2) |
//! | [`scenarios::semi_active`] | §5.2.2 | same without slashable actions (Table 3) |
//! | [`scenarios::threshold`] | §5.2.3 | Byzantine proportion > ⅓ (Fig. 7) |
//! | [`scenarios::bouncing`] | §5.3 | probabilistic breach of ⅓ (Figs. 9–10) |
//!
//! [`StakeBehavior`] holds the §4.3 continuous stake functions, and
//! [`experiments`] exposes a typed registry that regenerates **every**
//! table and figure of the paper's evaluation. [`SweepSpec`] generalizes the
//! hard-coded paper parameters into grids (`β₀ × p0 × walkers ×
//! semantics × validators`) evaluated on the deterministic thread pool.
//! [`partition`] opens the scenario families the paper cannot express —
//! k-branch partition timelines with splits, heals and churn —
//! and [`golden`] pins the five paper scenarios as byte-exact state
//! fixtures under `tests/golden/`. The discrete cross-checks run on
//! either state backend ([`BackendKind`]): the cohort-compressed backend
//! executes the paper's scenarios at their true million-validator
//! population sizes.
//!
//! # Example
//!
//! ```
//! use ethpos_core::experiments::{run_experiment, Experiment};
//!
//! let out = run_experiment(Experiment::Table2Slashable);
//! println!("{}", out.render_text());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod chaos;
pub mod experiments;
pub mod golden;
pub mod partition;
mod report;
pub mod request;
pub mod scenarios;
mod stake_model;
mod sweep;

pub use chaos::ChaosSpec;
pub use ethpos_state::BackendKind;
pub use experiments::{run_experiment, run_experiment_with, Experiment, McConfig};
pub use partition::{PartitionSpec, StrategyKind};
pub use report::{Series, Table};
pub use request::{DocumentFormat, JobOutput, JobRequest, RequestError, ARTIFACT_SALT};
pub use stake_model::{PenaltySemantics, StakeBehavior};
pub use sweep::{SweepResult, SweepRow, SweepSpec};
