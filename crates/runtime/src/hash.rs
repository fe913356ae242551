//! A fast, deterministic hasher for in-memory maps.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! random key: sound against hash flooding, but several times the cost of
//! the multiply-rotate hashers that in-memory indexes over trusted data
//! use. [`MixHasher`] is one of those, with no key, so one input hashes the
//! same in every run.
//!
//! Each integer written is one round, `h = (h.rotl(5) ^ word) * K`
//! (FxHash's step, [`ROTATE`] and [`MULTIPLIER`]), starting from `h = 0`. A
//! byte slice is fed as little-endian 8-byte words, a shorter tail
//! zero-padded. A round only carries input bits *upwards*: a word whose
//! low bits are zero — the `f64` bit pattern of every small integer —
//! leaves the low bits of `h` alone. `finish` therefore folds the 128-bit product of `h` and a second odd constant,
//! XOR-ing its high half into its low half, so every input bit reaches the
//! low bits that `HashMap` picks buckets with.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The odd multiplier of one round (FxHash's 64-bit constant).
pub const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// The left rotation of one round.
pub const ROTATE: u32 = 5;

/// The odd multiplier of the final fold (the 64-bit golden ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic multiply-rotate hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixHasher {
    hash: u64,
}

impl MixHasher {
    #[inline]
    fn round(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.round(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.round(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.round(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.round(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let wide = (self.hash as u128) * (FOLD as u128);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// Builds [`MixHasher`]s; the `S` of a [`MixHashMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MixState;

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher::default()
    }
}

/// A `HashMap` hashed by [`MixHasher`].
pub type MixHashMap<K, V> = HashMap<K, V, MixState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_bits_see_high_input_bits() {
        // small integers as floats: every input bit sits above bit 32
        let mut counts = vec![0usize; 1024];
        for i in 0..10_000u32 {
            counts[MixState.hash_one(f64::from(i).to_bits()) as usize & 1023] += 1;
        }
        assert!(counts.into_iter().max().unwrap() <= 30);
    }
}
