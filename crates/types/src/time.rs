//! Protocol time: slots and epochs.
//!
//! Ethereum PoS measures time in 12-second *slots*; 32 consecutive slots
//! form an *epoch*, the unit at which justification, finalization, and all
//! penalty accounting (including the inactivity leak) happen.

use core::fmt;
use core::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

/// A slot number (12 seconds of protocol time).
///
/// Slots are consecutively numbered from genesis (slot 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Slot(u64);

/// An epoch number (32 slots, 6 minutes 24 seconds of protocol time).
///
/// Epochs are the granularity of the finality gadget: checkpoints are
/// epoch-boundary blocks, and the inactivity leak advances once per epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Epoch(u64);

impl Slot {
    /// The genesis slot.
    pub const GENESIS: Slot = Slot(0);

    /// Creates a slot from its number.
    pub const fn new(slot: u64) -> Self {
        Slot(slot)
    }

    /// Returns the raw slot number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the epoch that contains this slot.
    pub const fn epoch(self, slots_per_epoch: u64) -> Epoch {
        Epoch(self.0 / slots_per_epoch)
    }
}

impl Epoch {
    /// The genesis epoch.
    pub const GENESIS: Epoch = Epoch(0);

    /// Creates an epoch from its number.
    pub const fn new(epoch: u64) -> Self {
        Epoch(epoch)
    }

    /// Returns the raw epoch number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the first slot of this epoch (its checkpoint slot).
    pub const fn start_slot(self, slots_per_epoch: u64) -> Slot {
        Slot(self.0 * slots_per_epoch)
    }

    /// The previous epoch, saturating at genesis.
    pub const fn prev(self) -> Epoch {
        Epoch(self.0.saturating_sub(1))
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

impl Add<u64> for Slot {
    type Output = Slot;
    fn add(self, rhs: u64) -> Slot {
        Slot(self.0 + rhs)
    }
}

impl Add<u64> for Epoch {
    type Output = Epoch;
    fn add(self, rhs: u64) -> Epoch {
        Epoch(self.0 + rhs)
    }
}

impl Sub<Epoch> for Epoch {
    type Output = u64;
    fn sub(self, rhs: Epoch) -> u64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPE: u64 = 32;

    #[test]
    fn slot_to_epoch_boundaries() {
        assert_eq!(Slot::new(0).epoch(SPE), Epoch::new(0));
        assert_eq!(Slot::new(31).epoch(SPE), Epoch::new(0));
        assert_eq!(Slot::new(32).epoch(SPE), Epoch::new(1));
        assert_eq!(Slot::new(63).epoch(SPE), Epoch::new(1));
        assert_eq!(Slot::new(64).epoch(SPE), Epoch::new(2));
    }

    #[test]
    fn epoch_start_slot_roundtrip() {
        assert_eq!(Epoch::new(0).start_slot(SPE), Slot::new(0));
        assert_eq!(Epoch::new(3).start_slot(SPE), Slot::new(96));
        for e in 0..100 {
            let epoch = Epoch::new(e);
            assert_eq!(epoch.start_slot(SPE).epoch(SPE), epoch);
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Slot::new(5) + 3, Slot::new(8));
        assert_eq!(Epoch::new(5) + 1, Epoch::new(6));
        assert_eq!(Epoch::new(8) - Epoch::new(5), 3);
        assert_eq!(Epoch::new(3).prev(), Epoch::new(2));
        assert_eq!(Epoch::new(0).prev(), Epoch::new(0));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Slot::new(1) < Slot::new(2));
        assert!(Epoch::new(1) < Epoch::new(2));
        assert_eq!(Slot::new(7).to_string(), "slot 7");
        assert_eq!(Epoch::new(7).to_string(), "epoch 7");
    }
}
