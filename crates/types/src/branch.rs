//! Branch identifiers for partitioned-network simulations.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of one branch (one chain view) of a partitioned network.
///
/// The two-branch scenarios of the paper use branches `0` and `1`; the
/// k-branch partition-timeline engine assigns a fresh id to every branch
/// a `Split` event creates, so ids are dense (`0..total_branches`) and
/// never reused — a healed branch's id stays retired, which is what lets
/// safety monitors keep attributing its final checkpoints after the heal.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BranchId(u32);

impl BranchId {
    /// The genesis branch: the single view every timeline starts from.
    pub const GENESIS: BranchId = BranchId(0);

    /// Creates a branch id.
    pub const fn new(id: u32) -> Self {
        BranchId(id)
    }

    /// The id as `u64` (synthetic checkpoint roots are keyed on this).
    pub const fn as_u64(&self) -> u64 {
        self.0 as u64
    }

    /// The id as `usize` (branch ids are dense, so they double as
    /// indices into per-branch tables).
    pub const fn as_usize(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for BranchId {
    fn from(id: u32) -> Self {
        BranchId(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert_eq!(BranchId::GENESIS, BranchId::new(0));
        assert!(BranchId::new(1) < BranchId::new(2));
        assert_eq!(BranchId::new(7).to_string(), "7");
        assert_eq!(BranchId::new(7).as_usize(), 7);
        assert_eq!(BranchId::from(3u32).as_u64(), 3);
    }
}
