//! Cryptographic substrate for the Stellar reproduction.
//!
//! This crate provides everything the consensus and ledger layers need from
//! cryptography, implemented from scratch so the workspace has no external
//! crypto dependencies:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, validated against published vectors.
//!   Hashing is load-bearing in Stellar (bucket hashing, transaction-set
//!   hashes, leader selection), so it is implemented for real. Two
//!   compression functions give the same digests: the x86-64 SHA extensions
//!   where the CPU has them, the portable rounds everywhere else, picked at
//!   run time ([`sha256::kernel`] names the one in use). The call into the
//!   SHA-extension kernel is the workspace's one `unsafe` block, which is
//!   why this crate root denies `unsafe_code` where every other forbids it.
//! * [`sign`] — a structurally faithful Schnorr signature scheme at toy
//!   parameters standing in for ed25519 (see `DESIGN.md`, substitutions):
//!   Montgomery multiplication modulo a 62-bit safe prime, and a verify
//!   that evaluates `g^s·y^(q−e)` in one pass over both exponents.
//! * [`codec`] — a deterministic binary encoding (in the spirit of XDR,
//!   which production `stellar-core` uses) so that hashes of structures are
//!   well-defined and identical across nodes.
//! * [`hex`] — hex encoding for display and test vectors.
//! * [`idhash`] — [`IdState`], the keyed multiply-fold hasher behind every
//!   hash table in the workspace ([`IdMap`], [`IdSet`]).
//! * [`heap`] — the heap-size estimators the memory census sums.
//!
//! The central type is [`Hash256`], a 32-byte digest used pervasively as a
//! content address (ledger headers, buckets, transaction sets, values).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod heap;
pub mod hex;
pub mod idhash;
pub mod sha256;
pub mod sign;

pub use idhash::{IdMap, IdSet, IdState};

use std::fmt;

/// A 256-bit digest, the universal content address in this workspace.
///
/// `Hash256` values are produced by [`sha256::sha256`] (directly or via
/// [`hash_xdr`]) and are ordered lexicographically, which the protocol uses
/// for deterministic tie-breaking (e.g. picking among candidate transaction
/// sets with equal operation counts and fees).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as the genesis "previous ledger" link.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 8 bytes as a big-endian integer.
    ///
    /// Used for hash-based tie-breaking and for mapping digests into numeric
    /// ranges (leader priorities).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes([
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5], self.0[6], self.0[7],
        ])
    }

    /// Renders the full digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show an 8-hex-char prefix; full digests are noisy in logs.
        write!(f, "Hash256({}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Hashes the deterministic encoding of any [`codec::Encode`] value.
///
/// This is the workspace's canonical "hash of a structure" operation,
/// mirroring `stellar-core`'s hash-of-XDR convention.
pub fn hash_xdr<T: codec::Encode + ?Sized>(value: &T) -> Hash256 {
    let mut buf = Vec::with_capacity(128);
    value.encode(&mut buf);
    sha256::sha256(&buf)
}

/// Hashes the concatenation of several byte strings, each length-prefixed.
///
/// Length prefixes make the combination injective (no ambiguity between
/// `("ab","c")` and `("a","bc")`).
pub fn hash_concat(parts: &[&[u8]]) -> Hash256 {
    let mut h = sha256::Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_be_bytes());
        h.update(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash256_hex_roundtrip() {
        let h = sha256::sha256(b"roundtrip");
        let s = h.to_hex();
        assert_eq!(hex::decode(&s).as_deref(), Some(&h.0[..]));
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut b = [0u8; 32];
        b[0] = 0x01;
        b[7] = 0x02;
        assert_eq!(Hash256(b).prefix_u64(), 0x0100_0000_0000_0002);
    }

    #[test]
    fn hash_concat_is_injective_on_boundaries() {
        let a = hash_concat(&[b"ab", b"c"]);
        let b = hash_concat(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_hash_is_all_zeroes() {
        assert_eq!(Hash256::ZERO.as_bytes(), &[0u8; 32]);
    }
}
