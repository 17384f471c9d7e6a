//! Base types for the Ethereum proof-of-stake inactivity-leak reproduction.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace: protocol time ([`Slot`], [`Epoch`]), stake denominations
//! ([`Gwei`]), identifiers ([`ValidatorIndex`], [`Root`], [`BranchId`]),
//! FFG [`Checkpoint`]s and the protocol constants bundle ([`ChainConfig`]).
//!
//! The types mirror the Ethereum consensus specification (Bellatrix era,
//! the era analysed by the paper) closely enough that the state-transition
//! crate reads like a consensus client, while staying free of any
//! networking or cryptographic dependencies.
//!
//! # Example
//!
//! ```
//! use ethpos_types::{ChainConfig, Epoch, Slot, Gwei};
//!
//! let config = ChainConfig::mainnet();
//! let slot = Slot::new(70);
//! assert_eq!(slot.epoch(config.slots_per_epoch), Epoch::new(2));
//! assert_eq!(config.max_effective_balance, Gwei::from_eth_u64(32));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod branch;
mod checkpoint;
mod config;
mod root;
mod time;
mod units;
mod validator;

pub use branch::BranchId;
pub use checkpoint::Checkpoint;
pub use config::ChainConfig;
pub use root::Root;
pub use time::{Epoch, Slot};
pub use units::Gwei;
pub use validator::ValidatorIndex;
