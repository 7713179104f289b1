//! The workspace's small non-cryptographic hashes (FNV-1a in 64- and
//! 32-bit widths) and its one seedable generator (SplitMix64).
//!
//! Their outputs are persisted or pinned — WAL fingerprints and record
//! checksums, section contents hashes, section-cache keys and checksums,
//! workload input data — so every constant here is part of an on-disk or
//! golden-output format and must not change.

use std::fmt;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV32_OFFSET: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;

/// Rolling FNV-1a/64 hasher.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV-1a/64 offset basis.
    pub fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }

    /// Continue hashing from a previously finished value, as if the bytes
    /// that produced `state` were still being fed.
    pub fn resume(state: u64) -> Self {
        Fnv64(state)
    }

    /// Fold `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// `fmt::Write` adapter so `Display` text hashes without an intermediate
/// `String`.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a/32 of `bytes` — the record and file checksum.
#[inline]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(FNV32_OFFSET, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(FNV32_PRIME)
    })
}

/// The SplitMix64 output finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, seedable generator for reproducible streams that
/// need no RNG dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Next float in `[0, 1)` (the top 53 bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        let mut h = Fnv64::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().finish(), FNV64_OFFSET);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b""), FNV32_OFFSET);
    }

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs of the reference SplitMix64 seeded with 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let u = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
