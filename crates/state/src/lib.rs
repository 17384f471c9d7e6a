//! Beacon-state transition for the Ethereum PoS reproduction.
//!
//! This crate implements the part of the Ethereum consensus specification
//! that the paper's analysis rests on, shaped like a consensus client's
//! state-transition module (Lighthouse is the reference layout):
//!
//! * the [`BeaconState`] container: validator registry, balances,
//!   inactivity scores, participation flags, justification bits,
//!   checkpoints;
//! * epoch-at-a-time advancement over a two-root checkpoint window, and
//!   participation marking in place of attestation processing;
//! * per-epoch processing, in spec order: justification & finalization
//!   (Casper FFG's four finalization rules), inactivity-score updates
//!   (paper Eq. 1), attestation rewards and penalties (suppressed during a
//!   leak), **inactivity penalties** (paper Eq. 2, `I·s / 2²⁶`), registry
//!   updates (ejection at 16 ETH effective balance), correlation slashing
//!   penalties, and effective-balance hysteresis;
//! * slashing (`slash_validator`: the immediate penalty and exit);
//! * the [`StateBackend`] abstraction over the epoch-transition surface, with
//!   the dense per-validator reference ([`DenseState`]) and the exact
//!   cohort-compressed representation ([`CohortState`]) that makes
//!   million-validator simulations O(#cohorts) per epoch.
//!
//! Deliberate simplifications (see `ARCHITECTURE.md`, "Deliberate
//! simplifications"): blocks, attestations, deposits, voluntary exits,
//! exit-queue churn, sync committees and execution payloads are
//! omitted — none of them participates in the paper's analysis. Everything the inactivity leak touches is implemented with
//! the spec's exact integer arithmetic.
//!
//! # Example
//!
//! ```
//! use ethpos_state::BeaconState;
//! use ethpos_types::{ChainConfig, Gwei};
//!
//! // 64 validators with the full 32 ETH stake.
//! let state = BeaconState::genesis(ChainConfig::minimal(), 64);
//! assert_eq!(state.total_active_balance(), Gwei::from_eth_u64(64 * 32));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod backend;
mod beacon_state;
mod cohort_state;
mod epoch;
mod epoch_metrics;
pub mod participation;
mod rewards;
mod slashings;
mod validator;

pub use backend::{
    synthetic_branch_root, BackendKind, BranchObservation, ClassSpec, ClassStats, DenseState,
    Fragmentation, MemberState, RootLabel, StateBackend, StateSnapshot,
};
pub use beacon_state::BeaconState;
pub use cohort_state::CohortState;
pub use participation::ParticipationFlags;
pub use validator::Validator;
