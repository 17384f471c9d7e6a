//! 256-bit hashing from four keyed SipHash-2-4 lanes.
//!
//! SipHash-2-4 is a well-studied keyed PRF; running four lanes with
//! distinct fixed keys over the same input yields a 256-bit digest that is
//! (for simulation purposes) collision-free and avalanche-complete. This
//! replaces SHA-256 from the real protocol; see `ARCHITECTURE.md`,
//! "Deliberate simplifications".
//!
//! Two entry shapes, one digest, one pass: [`hash`] reads its bytes as
//! little-endian 8-byte blocks straight from the caller's slice, and
//! [`hash_u64`] takes those blocks as words. Either way each block goes
//! into the four lanes side by side, and the final block carries the
//! byte length. A `u64` word is exactly the block its `to_le_bytes`
//! would have produced, so the two agree bit for bit (tested in both
//! build profiles).

use ethpos_types::Root;

/// Fixed lane keys (nothing-up-my-sleeve: digits of π in hex).
const LANE_KEYS: [(u64, u64); 4] = [
    (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344),
    (0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89),
    (0x4528_21e6_38d0_1377, 0xbe54_66cf_34e9_0c6c),
    (0xc0ac_29b7_c97c_50dd, 0x3f84_d5b5_b547_0917),
];

/// Hashes a byte slice to a 256-bit root.
///
/// # Example
///
/// ```
/// use ethpos_crypto::{hash, hash_u64};
///
/// let root = hash(&42u64.to_le_bytes());
/// assert!(!root.is_zero());
/// assert_eq!(root, hash_u64(&[42]));
/// ```
pub fn hash(bytes: &[u8]) -> Root {
    let mut lanes = Lanes::new();
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        lanes.absorb(u64::from_le_bytes(block.try_into().expect("8-byte block")));
    }
    // SipHash's final block: the remaining bytes, and `byte length mod
    // 256` in its top byte.
    let rest = blocks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = bytes.len() as u8;
    lanes.absorb(u64::from_le_bytes(last));
    lanes.finish()
}

/// Hashes a sequence of `u64` words — convenient for hashing structured
/// fixed-size records.
///
/// Equal to [`hash`] of the words' little-endian bytes: a little-endian
/// `u64` *is* one SipHash message block, so each word goes straight
/// into the lanes, and the final block is the byte length alone.
pub fn hash_u64(words: &[u64]) -> Root {
    let mut lanes = Lanes::new();
    for &word in words {
        lanes.absorb(word);
    }
    lanes.absorb((words.len() as u64 * 8) << 56);
    lanes.finish()
}

/// The four keyed lanes, fed the same message blocks side by side.
struct Lanes([SipLane; 4]);

impl Lanes {
    fn new() -> Self {
        Lanes(LANE_KEYS.map(|(k0, k1)| SipLane::new(k0, k1)))
    }

    #[inline(always)]
    fn absorb(&mut self, block: u64) {
        for lane in &mut self.0 {
            lane.absorb(block);
        }
    }

    /// The digest: lane `i`'s output in bytes `8i..8i + 8`.
    fn finish(self) -> Root {
        let mut out = [0u8; 32];
        for (lane, bytes) in self.0.into_iter().zip(out.chunks_exact_mut(8)) {
            bytes.copy_from_slice(&lane.finish().to_le_bytes());
        }
        Root::new(out)
    }
}

/// The four-word state of one SipHash-2-4 lane.
struct SipLane {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl SipLane {
    fn new(k0: u64, k1: u64) -> Self {
        SipLane {
            v0: 0x736f_6d65_7073_6575 ^ k0,
            v1: 0x646f_7261_6e64_6f6d ^ k1,
            v2: 0x6c79_6765_6e65_7261 ^ k0,
            v3: 0x7465_6462_7974_6573 ^ k1,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Compresses one little-endian 8-byte message block (two rounds).
    #[inline(always)]
    fn absorb(&mut self, block: u64) {
        self.v3 ^= block;
        self.round();
        self.round();
        self.v0 ^= block;
    }

    /// Finalization (four rounds).
    #[inline(always)]
    fn finish(mut self) -> u64 {
        self.v2 ^= 0xff;
        for _ in 0..4 {
            self.round();
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// SipHash-2-4 with the given 128-bit key over `data`, one lane on
    /// its own, per the reference specification (Aumasson & Bernstein):
    /// the oracle the four-lane digest is held against.
    fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
        let mut lane = SipLane::new(k0, k1);
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            lane.absorb(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        // final block: remaining bytes plus length in the top byte
        let rem = chunks.remainder();
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        last[7] = (data.len() & 0xff) as u8;
        lane.absorb(u64::from_le_bytes(last));
        lane.finish()
    }

    /// The four lanes of `data`'s digest, each its own `siphash24` pass.
    fn per_lane(data: &[u8]) -> Root {
        let mut out = [0u8; 32];
        for (lane, (k0, k1)) in LANE_KEYS.into_iter().enumerate() {
            out[lane * 8..][..8].copy_from_slice(&siphash24(k0, k1, data).to_le_bytes());
        }
        Root::new(out)
    }

    /// Reference test vector from the SipHash paper (Appendix A):
    /// key = 00 01 … 0f, input = 00 01 … 0e, output = 0xa129ca6149be45e5.
    #[test]
    fn siphash_reference_vector() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let input: Vec<u8> = (0u8..15).collect();
        assert_eq!(siphash24(k0, k1, &input), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash(b"abc"), hash(b"abc"));
        assert_ne!(hash(b"abc"), hash(b"abd"));
    }

    #[test]
    fn empty_input_hashes() {
        assert!(!hash(b"").is_zero());
    }

    #[test]
    fn no_collisions_on_small_domain() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash_u64(&[i])), "collision at {i}");
        }
    }

    /// `hash_u64` feeds words to the lanes; `hash` of their bytes is its
    /// oracle. 32 words are 256 bytes, where the length byte wraps.
    #[test]
    fn hash_u64_equals_the_byte_path() {
        for n in 0..40u64 {
            let words: Vec<u64> = (0..n)
                .map(|i| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ n)
                .collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(hash_u64(&words), hash(&bytes), "{n} words");
        }
    }

    /// The one-pass digest is the four keyed lanes, each the
    /// reference-vector-tested `siphash24`, at every length through the
    /// 64-byte mark (every remainder of a block, eight times over).
    #[test]
    fn hash_is_the_four_siphash24_lanes() {
        for n in 0..=64usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(hash(&data), per_lane(&data), "{n} bytes");
        }
    }

    #[test]
    fn length_extension_distinguished() {
        // inputs that differ only by trailing zero bytes must hash apart
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 3, 0]));
        assert_ne!(hash(&[]), hash(&[0]));
    }

    proptest! {
        #[test]
        fn prop_deterministic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(hash(&data), hash(&data));
        }

        /// Past 64 bytes, and past 256 where the length byte wraps.
        #[test]
        fn prop_hash_is_the_four_siphash24_lanes(
            data in proptest::collection::vec(any::<u8>(), 65..1100),
        ) {
            prop_assert_eq!(hash(&data), per_lane(&data));
        }

        #[test]
        fn prop_single_bit_flip_changes_digest(
            data in proptest::collection::vec(any::<u8>(), 1..64),
            byte in 0usize..64,
            bit in 0u8..8,
        ) {
            let byte = byte % data.len();
            let mut flipped = data.clone();
            flipped[byte] ^= 1 << bit;
            prop_assert_ne!(hash(&data), hash(&flipped));
        }
    }
}
