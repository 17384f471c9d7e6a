//! Simulators for the Ethereum PoS inactivity-leak reproduction, and
//! the Byzantine participation schedules they drive.
//!
//! Three engines, each cross-validated against the paper's closed forms
//! (see the workspace integration tests). All of them reason per epoch,
//! as the paper does; none builds blocks or simulates message delivery.
//!
//! * **Epoch-level k-branch** simulation, the one epoch-level
//!   simulator: [`PartitionSim`] drives one
//!   [`ethpos_state::StateBackend`] per live branch of a
//!   declarative [`PartitionTimeline`] (splits, heals, churn hooks)
//!   through the per-branch [`kernel`], using the exact integer spec
//!   arithmetic. The paper's partition scenarios (Tables 2–3, Figures 3,
//!   6, 7) are its two-branch timelines, read through
//!   [`PartitionOutcome::into_two_branch`]. Generic over the backend: the
//!   dense reference handles the paper's 10⁴-epoch horizons at toy
//!   sizes, and the cohort-compressed [`ethpos_state::CohortState`] runs
//!   the same timelines bit-identically at the true million-validator
//!   population.
//! * **Per-class stake trajectories** on one leaking chain
//!   ([`run_single_branch_on`], Figure 2).
//! * **Monte-Carlo random walks** for the probabilistic bouncing attack
//!   (§5.3, [`run_bouncing_walks`]): per-validator inactivity-score walks
//!   and stake trajectories, regenerating Figures 9–10 empirically.
//!
//! The adversary is a [`ByzantineSchedule`]: it observes every live
//! branch ([`BranchStatus`]) and answers with a [`BranchChoice`] each
//! epoch. The paper's strategies are [`DualActive`] (§5.2.1, slashable),
//! [`SemiActive`] (§5.2.2, non-slashable, fastest finalization) and
//! [`ThresholdSeeker`] (§5.2.3, maximize the Byzantine stake
//! proportion); [`RoundRobin`] generalizes the semi-active machine to
//! k branches. The §5.3 bouncing attack is not a schedule: the walk
//! Monte Carlo and `ethpos_core`'s closed forms reproduce it.
//!
//! The Monte-Carlo engines shard their walkers over [`ChunkPool`]
//! with per-chunk [`ethpos_stats::SeedSequence`] child RNGs, so results
//! are **bit-identical for any thread count** (see `ARCHITECTURE.md`).
//!
//! [`SafetyMonitor`] watches all branches for conflicting
//! finalized checkpoints — a Safety violation is an *observed result*, not
//! an assertion failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod byzantine;
pub mod kernel;
mod monitor;
mod partition;
mod pool;
mod single_branch;
mod timeline_sample;
mod walk_mc;

pub use byzantine::{
    BranchChoice, BranchStatus, ByzantineSchedule, DualActive, RoundRobin, SemiActive,
    ThresholdSeeker,
};
pub use monitor::SafetyMonitor;
pub use partition::{
    run_partition, BranchOutcome, ChurnPlan, ChurnStats, CompiledStep, CompiledTimeline,
    EpochRecord, ForkStats, MarkingPlan, PartitionConfig, PartitionEpochRecord, PartitionOutcome,
    PartitionSim, PartitionTimeline, SafetyViolation, TimelineAction, TimelineError, TimelineEvent,
    TwoBranchOutcome,
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
    WalkEpochStats,
};
