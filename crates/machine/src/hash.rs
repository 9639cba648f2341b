//! The repo's one hash: 64-bit FNV-1a.
//!
//! Every pinned digest, checkpoint fingerprint, memo shard index and
//! scheduling signature folds its bytes through this. It lives in the
//! lowest crate all of them already depend on. `DefaultHasher` will not
//! do: it is seeded per process, and these values are written to journals
//! and to `results/`.
//!
//! Field separators (`0xff` in the checkpoint fingerprints, `0x1f` in the
//! result digests, none in the fixed-width folds) are the caller's
//! business: they are part of each pinned value, not of the hash.

/// A running FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` in, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// So a key's `Hash` impl can feed it (the compile memo picks shards
/// this way).
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        Fnv1a::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        let of = |s: &str| {
            let mut h = Fnv1a::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn writes_concatenate_and_the_hasher_impl_agrees() {
        use std::hash::Hasher;
        let mut whole = Fnv1a::new();
        whole.write(b"foobar");
        let mut parts = Fnv1a::default();
        Hasher::write(&mut parts, b"foo");
        Hasher::write(&mut parts, b"bar");
        assert_eq!(Hasher::finish(&parts), whole.finish());
    }
}
