//! Counter-based seed streams for deterministic parallel execution.
//!
//! A [`SeedSequence`] turns one root seed into arbitrarily many
//! **independent child seeds** (and RNGs). A child is a pure function of
//! the root key and the child's index — *not* of how many siblings were
//! spawned before it — so work can be sharded across any number of
//! threads, claimed in any order, and still consume exactly the same
//! random streams. This is the property that makes the workspace's
//! Monte-Carlo results bit-identical for any `--threads` value (see
//! `ARCHITECTURE.md`, "The determinism model").
//!
//! The construction is counter-based in the spirit of NumPy's
//! `SeedSequence` / Philox: `child(i)`'s seed is a SplitMix64-style
//! avalanche hash of `(key, i)`. SplitMix64's finalizer is a bijection on
//! `u64` with full avalanche, so distinct indices can never collide for a
//! fixed key, and nearby indices produce statistically unrelated seeds.
//! Children are themselves sequences, so a tree of tasks (experiment →
//! grid point → walker chunk) gets its own independent subtree of
//! streams.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden-ratio increment used by SplitMix64 to decorrelate
/// consecutive counters before mixing.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic, order-insensitive stream of child seeds.
///
/// # Example
///
/// Children depend only on their index, never on spawn order:
///
/// ```
/// use ethpos_stats::SeedSequence;
///
/// let seq = SeedSequence::new(42);
/// let late_first = seq.child_seed(7);
/// let _ = seq.child_seed(0); // spawning other children changes nothing
/// assert_eq!(seq.child_seed(7), late_first);
///
/// // Children spawn independent grandchildren (a tree of streams).
/// let chunk = seq.child(3);
/// assert_ne!(chunk.child_seed(0), seq.child_seed(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    key: u64,
}

impl SeedSequence {
    /// Creates the root sequence for `root_seed`.
    ///
    /// The root seed is pre-mixed so that structured user seeds
    /// (0, 1, 2, …) land on unrelated keys.
    pub fn new(root_seed: u64) -> Self {
        SeedSequence {
            key: mix64(root_seed.wrapping_add(GOLDEN)),
        }
    }

    /// The seed of child `index` — a pure function of `(key, index)`.
    pub fn child_seed(&self, index: u64) -> u64 {
        mix64(self.key ^ mix64(index.wrapping_add(GOLDEN)))
    }

    /// Child `index` as a sequence of its own, for nested task trees.
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence {
            key: self.child_seed(index),
        }
    }

    /// A deterministic RNG for child `index`.
    ///
    /// ```
    /// use ethpos_stats::SeedSequence;
    /// use rand::Rng;
    ///
    /// let seq = SeedSequence::new(7);
    /// let (mut a, mut b) = (seq.child_rng(1), seq.child_rng(1));
    /// assert_eq!(a.random::<u64>(), b.random::<u64>());
    /// ```
    pub fn child_rng(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.child_seed(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn children_are_order_insensitive() {
        // Derive child 5 before and after touching other children, and
        // from an independently reconstructed sequence.
        let a = SeedSequence::new(123);
        let early = a.child_seed(5);
        for i in 0..100 {
            let _ = a.child_seed(i);
        }
        assert_eq!(a.child_seed(5), early);
        assert_eq!(SeedSequence::new(123).child_seed(5), early);
    }

    #[test]
    fn children_are_pairwise_distinct() {
        let seq = SeedSequence::new(0);
        let mut seeds: Vec<u64> = (0..10_000).map(|i| seq.child_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn sibling_streams_are_uncorrelated() {
        // Adjacent children's RNG outputs should look independent: the
        // fraction of equal leading bits across many draws stays near 1/2.
        let seq = SeedSequence::new(99);
        let mut a = seq.child_rng(0);
        let mut b = seq.child_rng(1);
        let n = 10_000;
        let mut same_bits = 0u32;
        for _ in 0..n {
            let x: u64 = a.random();
            let y: u64 = b.random();
            same_bits += ((x ^ y) >> 63 == 0) as u32;
        }
        let frac = f64::from(same_bits) / f64::from(n);
        assert!((0.45..0.55).contains(&frac), "top-bit agreement {frac}");
    }

    #[test]
    fn nearby_roots_diverge() {
        let a = SeedSequence::new(1);
        let b = SeedSequence::new(2);
        assert_ne!(a.child_seed(0), b.child_seed(0));
        assert_ne!(a.child_seed(0), a.child_seed(1));
        // child-of-child differs from the flat children
        assert_ne!(a.child(0).child_seed(0), a.child_seed(0));
    }

    #[test]
    fn child_rng_matches_child_seed() {
        let seq = SeedSequence::new(7);
        let mut from_rng = seq.child_rng(4);
        let mut manual = crate::seeded_rng(seq.child_seed(4));
        for _ in 0..16 {
            assert_eq!(from_rng.random::<u64>(), manual.random::<u64>());
        }
    }
}
