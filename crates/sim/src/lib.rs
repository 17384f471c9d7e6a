//! Simulators for the Ethereum PoS inactivity-leak reproduction.
//!
//! Three engines at different fidelity/horizon trade-offs, cross-validated
//! against each other (see the workspace integration tests):
//!
//! * [`engine`] — **slot-level** discrete-event simulation: real blocks
//!   and attestations over the simulated network, one fork-choice view per
//!   partition (plus the omniscient adversary). Used for healthy-chain
//!   runs, short-horizon partition scenarios, and attack traces.
//! * [`kernel`] — the **per-branch epoch kernel** every epoch-level
//!   engine composes: observe a branch, advance it under a caller-chosen
//!   root, fold its lifetime outcome.
//! * [`partition`] — **epoch-level k-branch** simulation: drives one
//!   [`ethpos_state::backend::StateBackend`] per live branch of a
//!   declarative [`PartitionTimeline`] (splits, heals, churn hooks) with
//!   class-level participation patterns, using the exact integer spec
//!   arithmetic. Generic over the backend: the dense reference handles
//!   the paper's 10⁴-epoch horizons at toy sizes, and the
//!   cohort-compressed [`ethpos_state::CohortState`] runs the same
//!   timelines bit-identically at the true million-validator population.
//! * [`cohort`] — the **two-branch** view over the partition engine
//!   ([`TwoBranchSim`] is a thin two-branch timeline): the paper's
//!   partition scenarios, regenerating Tables 2–3 and Figures 2, 3, 6,
//!   7 byte-for-byte.
//! * [`walk_mc`] — **Monte-Carlo random walks** for the probabilistic
//!   bouncing attack (§5.3): per-validator inactivity-score walks and
//!   stake trajectories, regenerating Figures 9–10 empirically.
//!
//! The Monte-Carlo engines shard their walkers over [`pool::ChunkPool`]
//! with per-chunk [`ethpos_stats::SeedSequence`] child RNGs, so results
//! are **bit-identical for any thread count** (see `ARCHITECTURE.md`).
//!
//! [`monitor::SafetyMonitor`] watches all views/branches for conflicting
//! finalized checkpoints — a Safety violation is an *observed result*, not
//! an assertion failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cohort;
pub mod engine;
pub mod kernel;
pub mod monitor;
pub mod partition;
pub mod pool;
pub mod single_branch;
pub mod timeline_sample;
pub mod view;
pub mod walk_mc;

pub use cohort::{EpochRecord, MembershipModel, TwoBranchConfig, TwoBranchOutcome, TwoBranchSim};
pub use engine::{run_slot_sims, SlotByzMode, SlotSim, SlotSimConfig, SlotSimReport};
pub use kernel::BranchEpochStats;
pub use monitor::SafetyMonitor;
pub use partition::{
    BranchOutcome, ChurnStats, ForkStats, PartitionConfig, PartitionEpochRecord, PartitionOutcome,
    PartitionSim, PartitionTimeline, SafetyViolation, TimelineAction, TimelineError, TimelineEvent,
};
pub use pool::ChunkPool;
pub use single_branch::{run_single_branch_on, Behavior, ClassTrajectory};
pub use timeline_sample::{
    branch_slots, event_count, merge_tail_weights, sample_timeline, soften_weights,
    two_branch_only, without_event,
};
pub use view::View;
pub use walk_mc::{
    run_bouncing_walks, run_two_branch_walks, BouncingWalkConfig, BouncingWalkResult,
    TwoBranchChunkCounts, TwoBranchWalkConfig, TwoBranchWalkPlan, TwoBranchWalkResult,
};
