//! A fast, deterministic hasher for hot in-memory maps.
//!
//! `std`'s default `HashMap` hasher (SipHash) is built for HashDoS
//! resistance on attacker-controlled keys; for the engine's internal
//! maps — the term dictionary above all, whose construction sits on the
//! cold-start path (DESIGN.md §14) — that robustness costs several
//! milliseconds per 10⁴ keys. This is the well-known Fx multiply-rotate
//! hash (the rustc symbol-table hasher): one rotate, one xor, one
//! multiply per word. The workspace takes no external dependencies, so
//! it is implemented here.
//!
//! Determinism note: the hash is fixed (no random state), so map
//! *iteration order* is stable for a given key set — but nothing in the
//! repo may depend on iteration order anyway; everything serialized or
//! compared is explicitly ordered first.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier from the Fx hash (π-derived, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-at-a-time Fx hasher state.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fx's multiply concentrates entropy in the high bits; hashbrown
        // masks *low* bits for the bucket index, so near-sequential keys
        // (synthetic vocabularies!) would cluster and probe-chain. One
        // xor-shift-multiply finalizer restores low-bit avalanche.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" cannot collide
            // trivially through the zero padding.
            word[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` plumbing for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(b"apple"), hash_of(b"apple"));
        assert_ne!(hash_of(b"apple"), hash_of(b"apples"));
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert(format!("t{i:06}"), i);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get("t000417"), Some(&417));
        assert_eq!(map.get("t999999"), None);
    }
}
