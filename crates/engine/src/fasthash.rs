//! A fast multiplicative hasher for small integer keys.
//!
//! The default SipHash is robust against adversarial keys but costs tens of
//! cycles per lookup, which would dominate the per-event work we are trying
//! to measure. Grouping keys here are small trusted integers (device ids),
//! so a Fibonacci-multiplicative mix is both sufficient and fast — the same
//! trade-off `rustc` makes with `FxHash` (that crate is not in our
//! dependency allowance, so we carry the 10-line equivalent).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const SEED: u64 = 0x9E37_79B9_7F4A_7C15; // 2^64 / φ

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = (self.0 ^ u64::from(i)).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by small integers using the fast hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A hasher specialized for `u32` keys: identity write, one Fibonacci
/// multiply at `finish`.
///
/// Grouping keys are dense small integers (device ids `0..K`), so the
/// general [`FastHasher`] — which must fold arbitrarily many writes into
/// its running state — does more work than a single 4-byte key needs (an
/// xor into the running state plus the multiply). This hasher stores the
/// key verbatim and performs exactly one multiplication when the table
/// asks for the hash: the odd multiplier is a bijection modulo every
/// `2^k`, so both the low bits (hashbrown's bucket index) and the top
/// bits (its 7 control bits) change with every key, dense or sparse,
/// with the shortest possible dependency chain in front of the probe's
/// address computation. No xor, no shift, no per-byte loop — strictly
/// less work per probe than the generic hasher, so sparse (random) keys
/// cannot regress (`cargo bench --bench micro` tracks dense and sparse
/// probe timings side by side).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastU32Hasher(u64);

impl Hasher for FastU32Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(SEED)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Non-u32 writes (only reachable if the map is misused with a
        // composite key) fall back to the general byte fold.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        // Identity: the mix happens once, in `finish`.
        self.0 = u64::from(i);
    }
}

/// `BuildHasher` for [`FastU32Hasher`].
pub type FastU32BuildHasher = BuildHasherDefault<FastU32Hasher>;

/// A `HashMap` keyed by `u32` using the specialized hasher.
pub type FastU32Map<V> = std::collections::HashMap<u32, V, FastU32BuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..10_000 {
            let mut h = FastHasher::default();
            h.write_u32(k);
            assert!(seen.insert(h.finish()), "collision at {k}");
        }
    }

    #[test]
    fn map_round_trip() {
        let mut m: FastMap<u32, u64> = FastMap::default();
        for k in 0..100u32 {
            m.insert(k, u64::from(k) * 3);
        }
        for k in 0..100u32 {
            assert_eq!(m.get(&k), Some(&(u64::from(k) * 3)));
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn u32_hasher_is_collision_free_on_dense_and_strided_keys() {
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..10_000 {
            let mut h = FastU32Hasher::default();
            h.write_u32(k);
            assert!(seen.insert(h.finish()), "collision at dense {k}");
        }
        // Strided keys (the worst case for low-bit bucket indexing).
        let mut seen = std::collections::HashSet::new();
        for k in (0u32..10_000).map(|k| k << 12) {
            let mut h = FastU32Hasher::default();
            h.write_u32(k);
            assert!(seen.insert(h.finish()), "collision at strided {k}");
        }
    }

    #[test]
    fn u32_hashes_vary_in_low_bits_for_dense_keys() {
        // hashbrown derives the bucket index from the low bits: dense keys
        // must not collapse onto a few buckets there.
        let mut low = std::collections::HashSet::new();
        for k in 0u32..256 {
            let mut h = FastU32Hasher::default();
            h.write_u32(k);
            low.insert(h.finish() & 0xFF);
        }
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn u32_map_round_trip() {
        let mut m: FastU32Map<u64> = FastU32Map::default();
        for k in 0..1000u32 {
            m.insert(k, u64::from(k) * 7);
        }
        for k in 0..1000u32 {
            assert_eq!(m.get(&k), Some(&(u64::from(k) * 7)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn byte_writes_mix() {
        let mut a = FastHasher::default();
        a.write(b"abc");
        let mut b = FastHasher::default();
        b.write(b"abd");
        assert_ne!(a.finish(), b.finish());
    }
}
