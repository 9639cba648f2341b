//! The repo's one *persisted* hash: 64-bit FNV-1a.
//!
//! Every pinned digest, checkpoint fingerprint, scheduling signature
//! ([`crate::Mdes::content_hash`]) and file under `results/` folds its
//! bytes through this, so its values must be the same in every process
//! and every release. It lives in the lowest crate all of them already
//! depend on. `DefaultHasher` will not do: it is seeded per process, and
//! these values are written to journals and to `results/`. In-process
//! tables, whose hash values never leave the process, use the cheaper
//! `cfp_ir::WordHasher` instead.
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

/// So `write!` can fold a value's `Display` straight in, with no
/// intermediate `String` (the service's result digests do this).
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
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
    fn writes_concatenate_and_the_fmt_impl_agrees() {
        use std::fmt::Write;
        let mut whole = Fnv1a::new();
        whole.write(b"foobar 42");
        let (mut parts, bar) = (Fnv1a::default(), "bar");
        write!(parts, "foo{bar} {}", 42).unwrap();
        assert_eq!(parts.finish(), whole.finish());
    }
}
