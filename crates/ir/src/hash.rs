//! The repo's one *in-process table* hash.
//!
//! [`WordHasher`] — one xor-multiply per word — sits behind every
//! `HashMap`/`HashSet` the exploration keeps ([`WordMap`], [`WordSet`]),
//! the optimizer's CSE expression table and the compile memo's shard
//! pick. Its values never leave the process and nothing may depend on
//! them but where an entry sits in a table, so it can be as cheap as the
//! keys allow. It is unkeyed: the tables it serves hold the program's
//! own keys (plan ids, signatures, specs, expressions), never input an
//! adversary chooses.
//!
//! What is written to disk or pinned goes through the other hash,
//! `cfp_machine::Fnv1a`, whose values must be the same in every process
//! and every release. This one lives here, in the lowest crate, because
//! every table owner (`cfp-opt`, `cfp-dse`) already depends on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// How far [`Hasher::finish`] rotates the product left: its mixed high
/// bits come down to where a table indexes, and its unmixed low bits go
/// up to bits `ROTATE..`, clear of both the index bits and `hashbrown`'s
/// control byte (the top seven).
const ROTATE: u32 = 26;

/// The in-process table hasher: one xor-multiply per word a key's
/// `Hash` impl feeds it (integers are one word each; byte slices go in
/// eight bytes at a time) — FNV-1a's step, a word at a time, with a
/// 64-bit multiplier.
///
/// A multiply carries every input bit upward, so the product's high
/// bits are the mixed ones and its low bits never see a higher bit:
/// with the other words fixed, the product's low `k` bits are a
/// bijection of each word's low `k` bits. [`Hasher::finish`] rotates the
/// mixed bits down for the table to index by; [`WordHasher::unmixed`]
/// gives the product back, for a caller that wants keys differing in
/// one dense field (a plan id) by less than `2^k` to get distinct low
/// bits. A rotate in every round would mix those bits like the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The product behind a [`Hasher::finish`] value: its low `k` bits
    /// are a bijection of each key word's low `k` bits (see the type's
    /// docs). The compile memo picks its shard from them.
    #[must_use]
    pub const fn unmixed(hash: u64) -> u64 {
        hash.rotate_right(ROTATE)
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0_u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(ROTATE)
    }
}

/// Builds [`WordHasher`]s; the hasher parameter of [`WordMap`] and
/// [`WordSet`].
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` on the in-process table hash.
pub type WordMap<K, V> = HashMap<K, V, WordBuildHasher>;

/// A `HashSet` on the in-process table hash.
pub type WordSet<K> = HashSet<K, WordBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn integers_go_in_as_the_words_their_bytes_make() {
        // `write_u8`/`write_u32` are shortcuts: the same word as the
        // zero-padded little-endian bytes through `write`.
        let via_bytes = |bytes: &[u8]| {
            let mut h = WordHasher::default();
            h.write(bytes);
            h.finish()
        };
        let mut h = WordHasher::default();
        h.write_u32(0xdead_beef);
        assert_eq!(h.finish(), via_bytes(&0xdead_beef_u32.to_le_bytes()));
        let mut h = WordHasher::default();
        h.write_u8(7);
        assert_eq!(h.finish(), via_bytes(&[7]));
        // Distinct small keys spread over the low bits a table indexes by.
        let hash = |k: u32| WordBuildHasher::default().hash_one(k);
        let low: WordSet<u64> = (0..256_u32).map(|k| hash(k) & 0xff).collect();
        assert!(low.len() > 140, "{} distinct low bytes of 256", low.len());
    }

    #[test]
    fn the_unmixed_bits_are_a_bijection_of_each_words_low_bits() {
        // Two-word keys: whichever word varies over 0..64 with the other
        // fixed, the unmixed low six bits take 64 distinct values.
        let low6 = |k: (u64, u64)| WordHasher::unmixed(WordBuildHasher::default().hash_one(k)) % 64;
        for fixed in [0, 1, 0x9e37_79b9, u64::MAX] {
            let first: WordSet<u64> = (0..64).map(|v| low6((v, fixed))).collect();
            let second: WordSet<u64> = (0..64).map(|v| low6((fixed, v))).collect();
            assert_eq!((first.len(), second.len()), (64, 64), "fixed {fixed:#x}");
        }
    }
}
