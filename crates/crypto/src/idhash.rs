//! The one hasher every hash table in the workspace uses.
//!
//! Most table keys here are SHA-256 outputs (message, transaction and
//! set ids) or are derived from them, so a key's bytes are already
//! uniform; std's SipHash-1-3 spends its rounds re-mixing bytes that need
//! almost none of it. Peers still choose many of these keys (advert ids,
//! signatures, account ids), so the tables stay keyed: [`IdState`] draws a
//! secret 64-bit key per instance from std's `RandomState`, and no one
//! outside the process can aim inputs at one bucket.
//!
//! [`IdHasher`] starts from that key and folds each 8-byte word of the
//! hashed value into it with one 64×64→128-bit multiply, XORing the two
//! halves of the product, and folds once more to finish. Every word
//! passes through its own multiply and the finishing one, so ids that
//! differ only in their last word spread as well as ids that differ only
//! in their first. Nothing in the workspace iterates these tables, so the
//! key never reaches a header, page or digest.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`IdState`].
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A `HashSet` hashed by [`IdState`].
pub type IdSet<K> = HashSet<K, IdState>;

/// The multiplier each full word is folded with. It and the two below are
/// odd 64-bit words of π's fraction.
const WORD: u64 = 0x243f_6a88_85a3_08d3;

/// The multiplier for a write's last 1–7 bytes, so a short tail and a
/// full word never feed the fold the same way.
const TAIL: u64 = 0x4528_21e6_38d0_1377;

/// The multiplier of the last fold. Without it, ids that differ only in
/// the high bits of their last word would reach the low bits of the hash
/// through the high half of one product alone, an evenly stepped sequence
/// that bunches in some buckets whatever the key.
const FINISH: u64 = 0x082e_fa98_ec4e_6c89;

/// The 128-bit product of `a` and `b`, high half XOR low half.
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds [`IdHasher`]s that share one secret key, drawn per instance.
#[derive(Clone)]
pub struct IdState {
    key: u64,
}

impl Default for IdState {
    fn default() -> IdState {
        IdState {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl fmt::Debug for IdState {
    /// The key stays out of logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdState").finish_non_exhaustive()
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { acc: self.key }
    }
}

/// The multiply-fold hasher [`IdState`] builds.
#[derive(Debug)]
pub struct IdHasher {
    acc: u64,
}

impl IdHasher {
    fn word(&mut self, w: u64) {
        self.acc = fold(self.acc ^ w, WORD);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(w.try_into().map_or(0, u64::from_le_bytes));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The length sits above the bytes, so "ab" and "ab\0" differ.
            let n = tail.len() as u64;
            let w = tail.iter().rev().fold(n, |w, &b| (w << 8) | u64::from(b));
            self.acc = fold(self.acc ^ w, TAIL);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        fold(self.acc, FINISH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hash256;

    /// 4 096 ids equal to a random base but for the 8-byte word at
    /// `word`, which holds the counter placed by `place`.
    fn ids_varying(word: usize, place: impl Fn(u64) -> u64) -> Vec<Hash256> {
        let base = crate::sha256::sha256(b"id hasher spread");
        (0..4096u64)
            .map(|i| {
                let mut id = base;
                id.0[word * 8..word * 8 + 8].copy_from_slice(&place(i).to_le_bytes());
                id
            })
            .collect()
    }

    /// For each word of a 32-byte id, 4 096 ids differing only there
    /// spread over 1 024 buckets with at most 16 in one (4 on average)
    /// and reach at least 120 of the 128 top-7-bit tags a table compares
    /// first. The keys are fixed, so the test is exact: a random key fails
    /// the bucket bound in about one set of 600, near a random function's
    /// one in 860.
    #[test]
    fn ids_differing_in_any_one_word_spread_over_buckets_and_tags() {
        // The counter in the low bits, the high bits, and spread thinly.
        let placements: [fn(u64) -> u64; 3] = [|i| i, |i| i << 52, |i| i * 0x0101_0101];
        for key in [0, 1, 0x5eed_5eed, u64::MAX] {
            let state = IdState { key };
            for word in 0..4 {
                for (p, place) in placements.iter().enumerate() {
                    let mut buckets = vec![0u32; 1024];
                    let mut tags = [false; 128];
                    for id in ids_varying(word, place) {
                        let h = state.hash_one(id);
                        buckets[(h & 1023) as usize] += 1;
                        tags[(h >> 57) as usize] = true;
                    }
                    let max = buckets.iter().max().copied().unwrap_or(0);
                    let covered = tags.iter().filter(|t| **t).count();
                    let at = format!("key {key:#x}, word {word}, placement {p}");
                    assert!(max <= 16, "{at}: a bucket holds {max}");
                    assert!(covered >= 120, "{at}: {covered} tags");
                }
            }
        }
    }

    #[test]
    fn two_states_disagree_on_some_id() {
        let (a, b) = (IdState::default(), IdState::default());
        let ids = ids_varying(0, |i| i);
        assert!(ids.iter().any(|id| a.hash_one(id) != b.hash_one(id)));
    }

    #[test]
    fn a_tail_differs_from_its_zero_padding_and_from_a_full_word() {
        let s = IdState::default();
        let hash = |bytes: &[u8]| {
            let mut h = s.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b"abcdefg"), hash(b"abcdefg\x07"));
        assert_ne!(s.hash_one("ab"), s.hash_one("ab\0"));
    }
}
