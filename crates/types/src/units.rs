//! Stake denominations.
//!
//! All balances are tracked in Gwei (10⁻⁹ ETH), exactly like the consensus
//! specification; the paper's continuous model works in ETH, so [`Gwei`]
//! offers lossless conversions in both directions.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of Gwei in one ETH.
pub(crate) const GWEI_PER_ETH: u64 = 1_000_000_000;

/// A balance in Gwei (10⁻⁹ ETH).
///
/// Arithmetic is saturating on subtraction (balances never go negative,
/// matching `decrease_balance` in the spec) and checked-in-debug on
/// addition.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Gwei(u64);

impl Gwei {
    /// Zero balance.
    pub const ZERO: Gwei = Gwei(0);

    /// Creates a balance from a raw Gwei amount.
    pub const fn new(gwei: u64) -> Self {
        Gwei(gwei)
    }

    /// Creates a balance from a whole number of ETH.
    pub const fn from_eth_u64(eth: u64) -> Self {
        Gwei(eth * GWEI_PER_ETH)
    }

    /// Creates a balance from a (non-negative, finite) fractional ETH
    /// amount, rounding to the nearest Gwei.
    ///
    /// # Panics
    ///
    /// Panics if `eth` is negative, NaN, or too large for `u64`.
    pub fn from_eth_f64(eth: f64) -> Self {
        assert!(
            eth.is_finite() && eth >= 0.0 && eth < u64::MAX as f64 / GWEI_PER_ETH as f64,
            "invalid ETH amount: {eth}"
        );
        Gwei((eth * GWEI_PER_ETH as f64).round() as u64)
    }

    /// Returns the raw Gwei amount.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the balance as fractional ETH.
    pub fn as_eth_f64(self) -> f64 {
        self.0 as f64 / GWEI_PER_ETH as f64
    }

    /// Saturating subtraction (spec `decrease_balance` semantics).
    pub const fn saturating_sub(self, rhs: Gwei) -> Gwei {
        Gwei(self.0.saturating_sub(rhs.0))
    }

    /// Integer division by a scalar (spec quotient semantics: truncating).
    pub const fn integer_div(self, divisor: u64) -> Gwei {
        Gwei(self.0 / divisor)
    }

    /// Returns the smaller of two balances.
    pub const fn min(self, other: Gwei) -> Gwei {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two balances.
    pub const fn max(self, other: Gwei) -> Gwei {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// True if the balance is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Gwei {
    type Output = Gwei;
    fn add(self, rhs: Gwei) -> Gwei {
        Gwei(self.0 + rhs.0)
    }
}

impl AddAssign for Gwei {
    fn add_assign(&mut self, rhs: Gwei) {
        self.0 += rhs.0;
    }
}

impl Sub for Gwei {
    type Output = Gwei;
    /// Saturating: balances never go negative.
    fn sub(self, rhs: Gwei) -> Gwei {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Gwei {
    fn sub_assign(&mut self, rhs: Gwei) {
        *self = self.saturating_sub(rhs);
    }
}

impl Sum for Gwei {
    fn sum<I: Iterator<Item = Gwei>>(iter: I) -> Gwei {
        iter.fold(Gwei::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Gwei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let eth = self.0 / GWEI_PER_ETH;
        let rem = self.0 % GWEI_PER_ETH;
        if rem == 0 {
            write!(f, "{eth} ETH")
        } else {
            write!(f, "{:.9} ETH", self.as_eth_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eth_conversions_roundtrip() {
        assert_eq!(Gwei::from_eth_u64(32).as_u64(), 32_000_000_000);
        assert_eq!(Gwei::from_eth_f64(16.75).as_u64(), 16_750_000_000);
        assert!((Gwei::new(16_750_000_000).as_eth_f64() - 16.75).abs() < 1e-12);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(Gwei::new(5) - Gwei::new(10), Gwei::ZERO);
        let mut b = Gwei::new(3);
        b -= Gwei::new(7);
        assert_eq!(b, Gwei::ZERO);
    }

    #[test]
    fn sum_and_minmax() {
        let total: Gwei = [Gwei::new(1), Gwei::new(2), Gwei::new(3)].into_iter().sum();
        assert_eq!(total, Gwei::new(6));
        assert_eq!(Gwei::new(1).min(Gwei::new(2)), Gwei::new(1));
        assert_eq!(Gwei::new(1).max(Gwei::new(2)), Gwei::new(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gwei::from_eth_u64(32).to_string(), "32 ETH");
        assert_eq!(Gwei::new(16_750_000_000).to_string(), "16.750000000 ETH");
    }

    #[test]
    #[should_panic]
    fn from_eth_f64_rejects_nan() {
        let _ = Gwei::from_eth_f64(f64::NAN);
    }

    proptest! {
        #[test]
        fn prop_sub_never_underflows(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let r = Gwei::new(a) - Gwei::new(b);
            prop_assert!(r.as_u64() <= a);
        }

        #[test]
        fn prop_eth_roundtrip(gwei in 0u64..100_000_000_000u64) {
            let g = Gwei::new(gwei);
            let back = Gwei::from_eth_f64(g.as_eth_f64());
            // f64 has 53 bits of mantissa; amounts < 2^53 Gwei roundtrip exactly.
            prop_assert_eq!(back, g);
        }
    }
}
