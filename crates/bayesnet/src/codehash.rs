//! A fast, deterministic hash for the crate's lookup-only maps keyed by
//! codes: the structure learner's similarity memos and the sparse rows of
//! [`crate::CompiledCpt`]. Neither map's iteration order is ever observed,
//! and their keys are codes, not outside input, so they need no keyed
//! hash. The std default, SipHash, cost more than the rest of a sparse
//! CPT probe.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map hashed with [`CodeHasher`].
pub(crate) type CodeMap<K, V> = HashMap<K, V, BuildHasherDefault<CodeHasher>>;

/// Minimal multiplicative hasher for small fixed-width keys (code pairs,
/// mixed-radix configuration indexes): one multiply–xorshift–multiply
/// round per 64-bit word, the same in every process.
#[derive(Default)]
pub(crate) struct CodeHasher(u64);

impl Hasher for CodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut x = self.0 ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        self.0 = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    /// Every configuration index of a 300 × 300 parent space, and one past
    /// the 64-bit boundary, hashes to its own value, and two builders agree.
    #[test]
    fn configuration_indexes_hash_apart_and_reproducibly() {
        let build = BuildHasherDefault::<CodeHasher>::default();
        let keys: Vec<u128> = (0..300u128 * 300).chain([1u128 << 64, (1u128 << 64) + 1]).collect();
        let hashes: std::collections::HashSet<u64> = keys.iter().map(|k| build.hash_one(k)).collect();
        assert_eq!(hashes.len(), keys.len());
        let again = BuildHasherDefault::<CodeHasher>::default();
        assert!(keys.iter().all(|k| build.hash_one(k) == again.hash_one(k)));
    }
}
