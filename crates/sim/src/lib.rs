//! Simulators for the Ethereum PoS inactivity-leak reproduction.
//!
//! Three engines, each cross-validated against the paper's closed forms
//! (see the workspace integration tests). All of them reason per epoch,
//! as the paper does; none builds blocks or simulates message delivery.
//!
//! * [`partition`] — **epoch-level k-branch** simulation, the one
//!   epoch-level simulator: [`PartitionSim`] drives one
//!   [`ethpos_state::backend::StateBackend`] per live branch of a
//!   declarative [`PartitionTimeline`] (splits, heals, churn hooks)
//!   through the per-branch [`kernel`], using the exact integer spec
//!   arithmetic. The paper's partition scenarios (Tables 2–3, Figures 3,
//!   6, 7) are its two-branch timelines, read through
//!   [`PartitionOutcome::into_two_branch`]. Generic over the backend: the
//!   dense reference handles the paper's 10⁴-epoch horizons at toy
//!   sizes, and the cohort-compressed [`ethpos_state::CohortState`] runs
//!   the same timelines bit-identically at the true million-validator
//!   population.
//! * [`single_branch`] — **per-class stake trajectories** on one leaking
//!   chain (Figure 2).
//! * [`walk_mc`] — **Monte-Carlo random walks** for the probabilistic
//!   bouncing attack (§5.3): per-validator inactivity-score walks and
//!   stake trajectories, regenerating Figures 9–10 empirically.
//!
//! The Monte-Carlo engines shard their walkers over [`pool::ChunkPool`]
//! with per-chunk [`ethpos_stats::SeedSequence`] child RNGs, so results
//! are **bit-identical for any thread count** (see `ARCHITECTURE.md`).
//!
//! [`monitor::SafetyMonitor`] watches all branches for conflicting
//! finalized checkpoints — a Safety violation is an *observed result*, not
//! an assertion failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kernel;
pub mod monitor;
pub mod partition;
pub mod pool;
pub mod single_branch;
pub mod timeline_sample;
pub mod walk_mc;

pub use kernel::BranchEpochStats;
pub use monitor::SafetyMonitor;
pub use partition::{
    run_partition, BranchOutcome, ChurnStats, EpochRecord, ForkStats, PartitionConfig,
    PartitionEpochRecord, PartitionOutcome, PartitionSim, PartitionTimeline, SafetyViolation,
    TimelineAction, TimelineError, TimelineEvent, TwoBranchOutcome,
};
pub use pool::ChunkPool;
pub use single_branch::{run_single_branch_on, Behavior, ClassTrajectory};
pub use timeline_sample::{
    branch_slots, event_count, merge_tail_weights, sample_timeline, soften_weights,
    two_branch_only, without_event,
};
pub use walk_mc::{
    run_bouncing_walks, run_two_branch_walks, BouncingWalkConfig, BouncingWalkResult,
    TwoBranchChunkCounts, TwoBranchWalkConfig, TwoBranchWalkPlan, TwoBranchWalkResult,
};
