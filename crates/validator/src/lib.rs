//! Validator behaviours: the paper's adversarial strategies as
//! *participation schedules* over the live branches of a fork —
//! [`byzantine::DualActive`] (§5.2.1, slashable),
//! [`byzantine::SemiActive`] (§5.2.2, non-slashable, fastest
//! finalization), [`byzantine::ThresholdSeeker`] (§5.2.3, maximize the
//! Byzantine stake proportion) and [`byzantine::RoundRobin`] (beyond the
//! paper: the k-branch generalization of the semi-active machine for
//! partition timelines). The §5.3 probabilistic bouncing attack is not a
//! schedule: `ethpos_sim`'s walk Monte Carlo and `ethpos_core`'s closed
//! forms reproduce it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod byzantine;

pub use byzantine::{
    BranchChoice, BranchStatus, ByzantineSchedule, DualActive, RoundRobin, SemiActive,
    ThresholdSeeker,
};
