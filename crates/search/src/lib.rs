//! Adversary strategy search over the paper's attack space.
//!
//! The paper analyses five *hand-picked* Byzantine strategies and leaves
//! open how close they are to worst-case. This crate treats the
//! adversary's per-epoch, per-branch participation as a **searchable
//! policy**:
//!
//! * [`Genome`] / [`ParamSchedule`] — a compact parameterization
//!   (per-branch duty cycles plus a ⅔-reachability feedback rule) whose
//!   corners reproduce the paper's `DualActive`, `SemiActive` and
//!   `ThresholdSeeker` schedules exactly;
//! * [`Objective`] — pluggable damage metrics (earliest conflicting
//!   finalization, maximum Byzantine stake proportion, non-slashable
//!   finalization-delay horizon), each evaluation paired with the
//!   adversary's cost in ETH (worst-branch inactivity leak + slashing
//!   exposure);
//! * [`SearchSpec`] — an exhaustive coarse grid plus a deterministic
//!   (1+λ) evolutionary refiner, sharded over
//!   [`ChunkPool`](ethpos_sim::ChunkPool) with
//!   [`SeedSequence`](ethpos_stats::SeedSequence) child seeds, so the
//!   resulting [`Frontier`] is **bit-identical for any thread count**;
//! * [`Frontier`] — the Pareto set of damage vs. cost, rendered as text
//!   or JSON (the `ethpos-cli search` subcommand).
//!
//! Every candidate scores as one full two-branch run of the exact
//! integer spec arithmetic ([`evaluate`]); on the cohort-compressed
//! backend a million-validator, 8000-epoch evaluation costs a few
//! milliseconds, and the drivers share that work across candidates
//! through [`PrefixMemo`] — byte-identical, without building a
//! two-branch simulator at all — which is what turns "search the attack
//! space" into a fraction of a second of CPU (see `ARCHITECTURE.md`,
//! "Attack search").
//!
//! # Quickstart
//!
//! ```
//! use ethpos_search::{Objective, SearchSpec};
//!
//! let mut spec = SearchSpec::new(Objective::Conflict);
//! spec.n = 120;            // toy registry: the doctest stays fast
//! spec.beta0 = 1.0 / 3.0;  // β0 = ⅓ finalizes almost immediately
//! spec.epochs = 40;
//! spec.budget = 16;
//! let frontier = spec.run();
//! assert_eq!(frontier.best.genome, ethpos_search::Genome::DUAL_ACTIVE);
//! println!("{}", frontier.render_text());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod driver;
mod frontier;
mod genome;
mod objective;
mod prefix;

pub use driver::SearchSpec;
pub use frontier::Frontier;
pub use genome::{DutyGene, Genome, ParamSchedule};
pub use objective::{evaluate, EvalParams, Evaluation, Objective};
pub use prefix::{PrefixMemo, SearchStats};
