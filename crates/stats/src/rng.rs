//! Seeded random number generation.
//!
//! Every stochastic component of the workspace (Monte-Carlo walks,
//! churn draws) takes an explicit seed so experiments reproduce
//! bit-for-bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates a deterministic RNG from a `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }
}
