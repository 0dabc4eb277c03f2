//! A fast, non-cryptographic hasher for small integer keys.
//!
//! The metrics collector touches its uid set and its per-reason tallies
//! on every delivery, drop and cache hit — millions of times in a full
//! campaign — and the standard library's default SipHash shows up as a
//! fixed per-call tax in the profiler. Packet uids are dense sequential
//! integers under the caller's control, not attacker input, so HashDoS
//! resistance buys nothing here. [`U64Hasher`] replaces
//! SipHash with a single Fibonacci multiply, which mixes low-entropy
//! sequential keys into the high bits that hashbrown's control bytes and
//! bucket index are derived from.
//!
//! [`fnv1a`] is the one byte fold behind every committed digest, config
//! fingerprint and journal checksum.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for integer-keyed sets and maps.
///
/// Correct for any `Hash` type (the byte path folds with an FNV-style
/// prime) but designed for keys that hash via a single `write_u64` /
/// `write_u32` / `write_u16` call, e.g. packet uids.
#[derive(Debug, Default, Clone, Copy)]
pub struct U64Hasher(u64);

/// 2^64 / φ, the usual Fibonacci-hashing multiplier: odd, and empirically
/// excellent at spreading consecutive integers across the whole range.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
/// FNV-1a's 64-bit offset basis: the state a fresh [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of `bytes`, continued from the state `h` ([`FNV_OFFSET`]
/// for a fresh digest).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

impl U64Hasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        // XOR the incoming word with the running state (so multi-word keys
        // still combine), then one multiply. The high bits — the ones
        // hashbrown uses — end up depending on every input bit.
        self.0 = (self.0 ^ n).wrapping_mul(PHI);
    }
}

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One extra rotate so the low bits (hashbrown's 7-bit control tag)
        // also see high-entropy state.
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashSet` keyed by the fast integer hasher.
pub type U64HashSet<K> = HashSet<K, BuildHasherDefault<U64Hasher>>;
/// `HashMap` keyed by the fast integer hasher.
pub type U64HashMap<K, V> = HashMap<K, V, BuildHasherDefault<U64Hasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_roundtrip_sequential_keys() {
        let mut set: U64HashSet<u64> = U64HashSet::default();
        for i in 0..10_000u64 {
            assert!(set.insert(i));
        }
        for i in 0..10_000u64 {
            assert!(set.contains(&i));
            assert!(set.remove(&i));
        }
        assert!(set.is_empty());
    }

    #[test]
    fn map_roundtrip() {
        let mut map: U64HashMap<u32, &'static str> = U64HashMap::default();
        map.insert(7, "seven");
        map.insert(8, "eight");
        assert_eq!(map.get(&7), Some(&"seven"));
        assert_eq!(map.remove(&8), Some("eight"));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn sequential_keys_spread_across_buckets() {
        // Consecutive ids must not collide in the top bits hashbrown uses
        // for bucket selection: check the top byte takes many values over
        // a small consecutive range.
        let mut top_bytes = HashSet::new();
        for i in 0..256u64 {
            let mut h = U64Hasher::default();
            h.write_u64(i);
            top_bytes.insert((h.finish() >> 56) as u8);
        }
        assert!(top_bytes.len() > 128, "only {} distinct top bytes", top_bytes.len());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn byte_path_differs_by_content() {
        let mut a = U64Hasher::default();
        a.write(b"hello");
        let mut b = U64Hasher::default();
        b.write(b"world");
        assert_ne!(a.finish(), b.finish());
    }
}
