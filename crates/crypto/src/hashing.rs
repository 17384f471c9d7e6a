//! 256-bit hashing from four keyed SipHash-2-4 lanes.
//!
//! SipHash-2-4 is a well-studied keyed PRF; running four lanes with
//! distinct fixed keys over the same input yields a 256-bit digest that is
//! (for simulation purposes) collision-free and avalanche-complete. This
//! replaces SHA-256 from the real protocol; see `ARCHITECTURE.md`,
//! "Deliberate simplifications".
//!
//! Two entry shapes, one digest: bytes go through the buffering
//! [`Hasher`] (one [`siphash24`] pass per lane), while [`hash_u64`] — the
//! synthetic checkpoint root every epoch-level branch takes every epoch —
//! compresses its words into the four lanes directly. SipHash reads its
//! input as little-endian 8-byte blocks, so a `u64` word is exactly the
//! block its `to_le_bytes` would have produced and the two paths agree
//! bit for bit (tested in both build profiles).

use ethpos_types::Root;

/// Fixed lane keys (nothing-up-my-sleeve: digits of π in hex).
const LANE_KEYS: [(u64, u64); 4] = [
    (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344),
    (0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89),
    (0x4528_21e6_38d0_1377, 0xbe54_66cf_34e9_0c6c),
    (0xc0ac_29b7_c97c_50dd, 0x3f84_d5b5_b547_0917),
];

/// Incremental 256-bit hasher (four SipHash-2-4 lanes).
///
/// # Example
///
/// ```
/// use ethpos_crypto::Hasher;
///
/// let mut h = Hasher::new();
/// h.update(b"hello");
/// h.update(&42u64.to_le_bytes());
/// let root = h.finalize();
/// assert!(!root.is_zero());
/// ```
#[derive(Debug, Clone)]
pub struct Hasher {
    buf: Vec<u8>,
}

impl Hasher {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        Hasher { buf: Vec::new() }
    }

    /// Appends bytes to the input.
    pub fn update(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Produces the 256-bit digest.
    pub fn finalize(&self) -> Root {
        let mut out = [0u8; 32];
        for (i, (k0, k1)) in LANE_KEYS.iter().enumerate() {
            let lane = siphash24(*k0, *k1, &self.buf);
            out[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
        }
        Root::new(out)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// Hashes a byte slice to a 256-bit root.
pub fn hash(bytes: &[u8]) -> Root {
    let mut h = Hasher::new();
    h.update(bytes);
    h.finalize()
}

/// Hashes a sequence of `u64` words — convenient for hashing structured
/// fixed-size records.
///
/// Equal to feeding the words' little-endian bytes to a [`Hasher`],
/// without the byte buffer: a little-endian `u64`
/// *is* one SipHash message block, so each word goes straight into the
/// four lanes, side by side, and the final block is the byte length
/// alone. This is the per-branch, per-epoch root of the epoch-level
/// simulators, so it must not allocate.
pub fn hash_u64(words: &[u64]) -> Root {
    let mut lanes = LANE_KEYS.map(|(k0, k1)| SipLane::new(k0, k1));
    // SipHash's final block carries `byte length mod 256` in its top byte.
    let length_block = (words.len() as u64 * 8) << 56;
    for &block in words.iter().chain([&length_block]) {
        for lane in &mut lanes {
            lane.absorb(block);
        }
    }
    let mut out = [0u8; 32];
    for (lane, bytes) in lanes.into_iter().zip(out.chunks_exact_mut(8)) {
        bytes.copy_from_slice(&lane.finish().to_le_bytes());
    }
    Root::new(out)
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

/// SipHash-2-4 with the given 128-bit key, per the reference
/// specification (Aumasson & Bernstein).
pub(crate) fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

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

    /// `hash_u64` feeds words to the lanes directly; the byte hasher is
    /// its oracle. 32 words are 256 bytes, where the length byte wraps.
    #[test]
    fn hash_u64_equals_the_byte_path() {
        for n in 0..40u64 {
            let words: Vec<u64> = (0..n)
                .map(|i| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ n)
                .collect();
            let mut buffered = Hasher::new();
            for w in &words {
                buffered.update(&w.to_le_bytes());
            }
            assert_eq!(hash_u64(&words), buffered.finalize(), "{n} words");
        }
    }

    /// The digest is the four keyed lanes, each the reference-vector-tested
    /// `siphash24`, at every remainder length and past the 64-byte mark.
    #[test]
    fn hash_is_the_four_siphash24_lanes() {
        for n in 0..70usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let root = hash(&data);
            for (lane, (k0, k1)) in LANE_KEYS.into_iter().enumerate() {
                assert_eq!(
                    root.as_bytes()[lane * 8..][..8],
                    siphash24(k0, k1, &data).to_le_bytes(),
                    "{n} bytes, lane {lane}"
                );
            }
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
