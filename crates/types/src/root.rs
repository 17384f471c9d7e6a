//! 256-bit roots identifying blocks and other hashed objects.

use core::fmt;

use serde::{Deserialize, Serialize};

/// A 32-byte hash root identifying a block (or any hashed object).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Root(pub [u8; 32]);

impl Root {
    /// The all-zero root, used for "empty" references (e.g. genesis parent).
    pub const ZERO: Root = Root([0u8; 32]);

    /// Builds a root from raw bytes.
    pub const fn new(bytes: [u8; 32]) -> Self {
        Root(bytes)
    }

    /// Builds a deterministic root from a `u64` label.
    ///
    /// Handy for tests and synthetic fixtures; hashed roots come from
    /// `ethpos_crypto`.
    pub fn from_u64(v: u64) -> Self {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&v.to_le_bytes());
        Root(bytes)
    }

    /// Returns the raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// True if this is the all-zero root.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Short hexadecimal prefix (8 hex chars) for human-readable logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Root {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Root(0x{}…)", self.short_hex())
    }
}

impl fmt::Display for Root {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_root() {
        assert!(Root::ZERO.is_zero());
        assert!(!Root::from_u64(1).is_zero());
    }

    #[test]
    fn from_u64_is_injective_on_small_values() {
        for a in 0..100u64 {
            for b in (a + 1)..100u64 {
                assert_ne!(Root::from_u64(a), Root::from_u64(b));
            }
        }
    }

    #[test]
    fn display_and_short_hex() {
        let r = Root::from_u64(0x0102_0304);
        assert_eq!(r.short_hex(), "04030201");
        assert!(r.to_string().starts_with("0x04030201"));
        assert_eq!(r.to_string().len(), 2 + 64);
    }
}
