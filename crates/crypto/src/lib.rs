//! Hashing for the Ethereum PoS reproduction.
//!
//! None of the paper's measured quantities (stake trajectories,
//! finalization epochs, Byzantine proportions) depend on real
//! cryptography, and the simulators build no blocks or signatures. What
//! they do need is a deterministic 256-bit hash: [`hash`] (and the
//! word-level [`hash_u64`]) built from four independently keyed
//! SipHash-2-4 lanes, used for genesis and synthetic checkpoint roots.
//!
//! The substitution for SHA-256 is documented in `ARCHITECTURE.md`,
//! "Deliberate simplifications".

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod hashing;

pub use hashing::{hash, hash_u64};
