//! A fast non-cryptographic hasher for the memory-structure maps.
//!
//! The standard library's default hasher (SipHash 1-3) is keyed and
//! DoS-resistant, which simulation lookups keyed by effective address or
//! transaction tag do not need — they sit on the per-cycle hot path of every
//! machine model, where hashing cost was a measurable share of whole-run
//! time.  This is the classic Fx multiply-and-rotate hash used by rustc
//! (deterministic, a few cycles per word).

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hash state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's multiplicative constant (2^64 / φ, made odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            map.insert(i * 8, i as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(999 * 8)), Some(&999));
        assert_eq!(map.remove(&0), Some(0));
        assert!(!map.contains_key(&0));
    }

    #[test]
    fn hashing_is_deterministic() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |v: u64| build.hash_one(v);
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }
}
