//! Stable, dependency-free content hashing.
//!
//! The experiment cell cache keys its on-disk entries by a digest of the
//! cell's full input description. [`std::hash::DefaultHasher`] is
//! explicitly not guaranteed stable across Rust releases, so cache files
//! written by one toolchain could silently miss under another; FNV-1a is
//! trivially stable, fast on short keys, and good enough for a cache
//! whose entries also embed the full key for collision detection.

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a string and renders the digest with [`digest_hex`].
pub fn fnv1a_64_hex(text: &str) -> String {
    digest_hex(fnv1a_64(text.as_bytes()))
}

/// Renders a digest as 16 lowercase hex digits — the filename-safe form
/// cache entries are stored under.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// A non-cryptographic [`std::hash::Hasher`] for integer-keyed interior
/// maps on simulation hot paths (e.g. the per-branch surprise
/// classifier), where the default SipHash costs more than the table
/// probe it guards. Integer writes fold into a Fibonacci-multiply mix;
/// byte writes fall back to FNV-1a. Not DoS-resistant — never use it
/// for maps keyed by external input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // Final avalanche so power-of-two table masks see high entropy.
        let h = self.0;
        h ^ (h >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`]; use as the third type
/// parameter of `HashMap`/`HashSet` on hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHashState;

impl std::hash::BuildHasher for FastHashState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_form_is_16_digits_and_stable() {
        let h = fnv1a_64_hex("zbp-cell-v1|sim|seed=3");
        assert_eq!(h.len(), 16);
        assert_eq!(h, fnv1a_64_hex("zbp-cell-v1|sim|seed=3"));
        assert_ne!(h, fnv1a_64_hex("zbp-cell-v1|sim|seed=4"));
    }

    #[test]
    fn distinct_keys_rarely_collide_in_practice() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            assert!(seen.insert(fnv1a_64(format!("key-{i}").as_bytes())));
        }
    }

    #[test]
    fn fast_hash_map_roundtrips_and_spreads() {
        use std::hash::{BuildHasher, Hasher};
        let mut m: std::collections::HashMap<u64, u64, FastHashState> =
            std::collections::HashMap::default();
        // Aligned instruction addresses (the classifier's key shape).
        for i in 0..10_000u64 {
            m.insert(0x1000 + i * 6, i);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&(0x1000 + 42 * 6)), Some(&42));
        // Low bits must vary even for stride-aligned keys.
        let finish = |k: u64| {
            let mut h = FastHashState.build_hasher();
            h.write_u64(k);
            h.finish()
        };
        let low: std::collections::HashSet<u64> =
            (0..64u64).map(|i| finish(i * 64) & 0xFFF).collect();
        assert!(low.len() > 48, "only {} distinct low-bit patterns", low.len());
    }
}
