//! Attestations: the votes validators cast once per epoch.
//!
//! An attestation carries two votes (paper §3.2):
//!
//! * the **block vote** (`beacon_block_root`) feeding the LMD-GHOST fork
//!   choice, and
//! * the **checkpoint vote** (`source` → `target`) feeding Casper FFG
//!   justification/finalization — the vote whose correctness determines a
//!   validator's *activity* for inactivity-leak accounting.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::checkpoint::Checkpoint;
use crate::root::Root;
use crate::time::Slot;
use crate::validator::ValidatorIndex;

/// Opaque signature tag.
///
/// Nothing in the workspace signs or verifies; this type is the wire
/// representation. Equality of tags models signature equality.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Signature(pub u64);

/// The data every participant in an attestation signs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttestationData {
    /// Slot at which the attestation was produced.
    pub slot: Slot,
    /// Head block according to the attester's fork choice (block vote).
    pub beacon_block_root: Root,
    /// FFG source: the attester's current justified checkpoint.
    pub source: Checkpoint,
    /// FFG target: the checkpoint of the attester's current epoch.
    pub target: Checkpoint,
}

impl AttestationData {
    /// True if two attestation data are a *double vote*: same target epoch
    /// but different data — a slashable equivocation (Casper rule I).
    pub fn is_double_vote(&self, other: &AttestationData) -> bool {
        self != other && self.target.epoch == other.target.epoch
    }

    /// True if `self` *surrounds* `other` (Casper rule II):
    /// `self.source.epoch < other.source.epoch` and
    /// `other.target.epoch < self.target.epoch`.
    pub fn surrounds(&self, other: &AttestationData) -> bool {
        self.source.epoch < other.source.epoch && other.target.epoch < self.target.epoch
    }

    /// True if the pair is slashable under either Casper rule.
    pub fn is_slashable_with(&self, other: &AttestationData) -> bool {
        self.is_double_vote(other) || self.surrounds(other) || other.surrounds(self)
    }
}

/// An (aggregated) attestation: the data plus the set of attesting
/// validators and their aggregate signature tag.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attestation {
    /// Validators that signed `data`, sorted ascending, no duplicates.
    pub attesting_indices: Vec<ValidatorIndex>,
    /// The signed data.
    pub data: AttestationData,
    /// Aggregate signature tag over `data`.
    pub signature: Signature,
}

impl Attestation {
    /// Creates an attestation, sorting and deduplicating the indices.
    pub fn new(
        mut attesting_indices: Vec<ValidatorIndex>,
        data: AttestationData,
        signature: Signature,
    ) -> Self {
        attesting_indices.sort_unstable();
        attesting_indices.dedup();
        Attestation {
            attesting_indices,
            data,
            signature,
        }
    }

    /// Number of attesting validators.
    pub fn num_attesters(&self) -> usize {
        self.attesting_indices.len()
    }

    /// True if `index` attested.
    pub fn contains(&self, index: ValidatorIndex) -> bool {
        self.attesting_indices.binary_search(&index).is_ok()
    }
}

impl fmt::Display for Attestation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attestation[{} validators] {} head=0x{} {}→{}",
            self.attesting_indices.len(),
            self.data.slot,
            self.data.beacon_block_root.short_hex(),
            self.data.source,
            self.data.target,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Epoch;

    fn data(slot: u64, src: u64, tgt: u64) -> AttestationData {
        AttestationData {
            slot: Slot::new(slot),
            beacon_block_root: Root::from_u64(slot),
            source: Checkpoint::new(Epoch::new(src), Root::from_u64(src)),
            target: Checkpoint::new(Epoch::new(tgt), Root::from_u64(tgt)),
        }
    }

    #[test]
    fn double_vote_detection() {
        let a = data(64, 1, 2);
        let mut b = data(64, 1, 2);
        assert!(!a.is_double_vote(&b)); // identical is not a double vote
        b.beacon_block_root = Root::from_u64(999);
        assert!(a.is_double_vote(&b));
        assert!(a.is_slashable_with(&b));
    }

    #[test]
    fn different_target_epochs_not_double_vote() {
        let a = data(64, 1, 2);
        let b = data(96, 2, 3);
        assert!(!a.is_double_vote(&b));
        assert!(!a.is_slashable_with(&b));
    }

    #[test]
    fn surround_vote_detection() {
        let outer = data(160, 1, 5);
        let inner = data(128, 2, 4);
        assert!(outer.surrounds(&inner));
        assert!(!inner.surrounds(&outer));
        assert!(outer.is_slashable_with(&inner));
        assert!(inner.is_slashable_with(&outer));
    }

    #[test]
    fn attestation_sorts_and_dedups() {
        let att = Attestation::new(
            vec![3u64.into(), 1u64.into(), 3u64.into(), 2u64.into()],
            data(5, 0, 1),
            Signature(0),
        );
        assert_eq!(
            att.attesting_indices,
            vec![1u64.into(), 2u64.into(), 3u64.into()]
        );
        assert!(att.contains(2u64.into()));
        assert!(!att.contains(9u64.into()));
        assert_eq!(att.num_attesters(), 3);
    }
}
