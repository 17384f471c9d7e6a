//! Validator behaviours.
//!
//! * [`duties`] — who proposes which slot (a seeded lottery standing in
//!   for RANDAO), which the §5.3 bouncing attack consults;
//! * [`byzantine`] — the paper's adversarial strategies as *participation
//!   schedules* over the live branches of a fork:
//!   [`byzantine::DualActive`] (§5.2.1, slashable),
//!   [`byzantine::SemiActive`] (§5.2.2, non-slashable, fastest
//!   finalization), [`byzantine::ThresholdSeeker`] (§5.2.3, maximize the
//!   Byzantine stake proportion), [`byzantine::Bouncing`] (§5.3, the
//!   probabilistic bouncing attack under the inactivity leak) and
//!   [`byzantine::RoundRobin`] (beyond the paper: the k-branch
//!   generalization of the semi-active machine for partition timelines).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod byzantine;
pub mod duties;

pub use byzantine::{
    Bouncing, BranchChoice, BranchStatus, ByzantineSchedule, DualActive, RoundRobin, SemiActive,
    ThresholdSeeker,
};
pub use duties::ProposerLottery;
