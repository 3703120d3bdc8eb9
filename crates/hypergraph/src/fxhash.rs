//! A local implementation of the Fx hash algorithm (as popularised by rustc
//! and the `rustc-hash` crate).
//!
//! The matching engine hashes small integer keys (labels, ids, signature
//! bytes) on hot paths — signature interning during load, vertex-profile
//! multiset comparison during validation. SipHash's HashDoS protection buys
//! nothing for an analytical engine that never hashes untrusted keys into a
//! long-lived table, so we follow the Rust Performance Book's guidance and
//! use the much faster Fx algorithm. Implemented locally because only a fixed
//! set of third-party crates is available offline (see DESIGN.md §7).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx algorithm (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for trusted integer-like keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The multiply in `add_to_hash` only carries bits upward,
    /// so the low bits of the state depend on the low bits of the last word
    /// alone: the sorted pair `[0, x]` hashes as the single word `x << 32`,
    /// and without the rotate every spoke of a hub with id 0 shares its low
    /// 32 bits — one hashbrown probe chain, a quadratic
    /// `HypergraphBuilder::add_edge`. Rotating the well-mixed high bits down
    /// (as rustc-hash 2 does) serves both table indexing (low bits) and
    /// control bytes (top 7 bits).
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (chunk, rest) = bytes.split_at(8);
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (chunk, rest) = bytes.split_at(4);
            self.add_to_hash(u64::from(u32::from_le_bytes(chunk.try_into().unwrap())));
            bytes = rest;
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx algorithm.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx algorithm.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
        assert_ne!(hash_of(&[1u32, 2]), hash_of(&[2u32, 1]));
    }

    #[test]
    fn handles_all_byte_lengths() {
        // Exercise the 8-byte, 4-byte and residual paths of `write`.
        for len in 0..=17 {
            let bytes: Vec<u8> = (0..len).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let first = h.finish();
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(first, h2.finish(), "len {len} not deterministic");
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u32, &str> = FxHashMap::default();
        map.insert(1, "one");
        assert_eq!(map.get(&1), Some(&"one"));

        let mut set: FxHashSet<u64> = FxHashSet::default();
        set.insert(99);
        assert!(set.contains(&99));
    }

    /// Hub spokes `{0, x}` are `Vec<u32>` keys `[0, x]`: their hashes must
    /// spread over the low bits a hash table indexes with.
    #[test]
    fn low_bits_spread_on_hub_spoke_keys() {
        for keys in [
            (1..100_000u32).map(|x| vec![0, x]).collect::<Vec<_>>(),
            (0..99_999u32).map(|x| vec![x, 100_000]).collect(),
        ] {
            let low16: FxHashSet<u16> = keys.iter().map(|k| hash_of(k) as u16).collect();
            // 99 999 balls into 65 536 bins leave ~78 % occupied when uniform.
            assert!(
                low16.len() > 40_000,
                "{} distinct low-16-bit values over {} keys like {:?}",
                low16.len(),
                keys.len(),
                keys[0]
            );
        }
    }
}
