//! Public-key signatures for SCP envelopes and transactions.
//!
//! Production Stellar signs envelopes and transactions with ed25519. This
//! workspace has no external crypto dependencies, so we substitute a
//! **structurally faithful Schnorr signature at toy parameters** (see
//! `DESIGN.md`, substitutions): key generation, signing, and public
//! verification all work exactly as in a production scheme, over the
//! multiplicative group of a 62-bit safe prime. The group is far too small
//! to be secure against a real attacker, but the protocol code paths —
//! envelope signing, signature checks on receipt, multisig weight
//! accumulation — are identical to what a production scheme would exercise,
//! and the API is swap-in compatible.
//!
//! Scheme (Fiat–Shamir Schnorr):
//! * parameters: safe prime `p = 2q + 1`, generator `g` of the order-`q`
//!   subgroup;
//! * secret key `x ∈ [1, q)`, public key `y = g^x mod p`;
//! * sign(m): pick nonce `k` (derived deterministically from the secret key
//!   and message, RFC 6979-style), `r = g^k`, `e = H(r ∥ y ∥ m) mod q`,
//!   `s = k + x·e mod q`; signature is `(e, s)`;
//! * verify: `r' = g^s · y^{-e}`, accept iff `e == H(r' ∥ y ∥ m) mod q`.

use crate::codec::{Decode, DecodeError, Encode};
use crate::hash_concat;
use rand::Rng;

/// Safe prime modulus `p = 2q + 1` (62 bits).
pub const P: u64 = 0x3fff_ffff_ffff_d6bb;
/// Prime group order `q = (p - 1) / 2`.
pub const Q: u64 = 0x1fff_ffff_ffff_eb5d;
/// Generator of the order-`q` subgroup (`g = 2² mod p`).
pub const G: u64 = 4;

// Arithmetic in `Z_p` runs on Montgomery products with `R = 2⁶⁴`: an
// element `a` is held as `a·R mod p`, and a product costs two 64×64-bit
// multiplies and a shift instead of a 128-bit division.

/// `−p⁻¹ mod R`, by Newton's iteration: `p·p ≡ 1 (mod 8)` for odd `p`,
/// and each step doubles the correct low bits (3 → 96).
const P_NEG_INV: u64 = {
    let mut inv = P;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};
/// `R mod p`: one, in Montgomery form.
const R1: u64 = ((1u128 << 64) % P as u128) as u64;
/// `R² mod p`: a Montgomery product with it enters Montgomery form.
const R2: u64 = ((R1 as u128 * R1 as u128) % P as u128) as u64;

/// Montgomery product `a·b·R⁻¹ mod p`, for `a, b < p`.
fn mont_mul(a: u64, b: u64) -> u64 {
    let t = a as u128 * b as u128;
    let m = (t as u64).wrapping_mul(P_NEG_INV);
    // `t + m·p` is divisible by R, and below `2·p·R` since `t < p²`.
    let u = ((t + m as u128 * P as u128) >> 64) as u64;
    if u >= P {
        u - P
    } else {
        u
    }
}

/// `base^exp mod p`.
fn pow_mod(base: u64, exp: u64) -> u64 {
    pow2_mod(base, exp, 1, 0)
}

/// `a^x · b^y mod p` in one left-to-right pass over both exponents
/// (Shamir's trick): one squaring per bit, plus one multiply by `a`, `b` or
/// `a·b` wherever either exponent has a one.
fn pow2_mod(a: u64, x: u64, b: u64, y: u64) -> u64 {
    let a = mont_mul(a % P, R2);
    let b = mont_mul(b % P, R2);
    let factors = [a, b, mont_mul(a, b)];
    let mut acc = R1;
    for i in (0..u64::BITS - (x | y).leading_zeros()).rev() {
        acc = mont_mul(acc, acc);
        let bits = (x >> i & 1) | (y >> i & 1) << 1;
        if bits != 0 {
            acc = mont_mul(acc, factors[bits as usize - 1]);
        }
    }
    mont_mul(acc, 1)
}

/// A public verification key (a group element).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PublicKey(pub u64);

/// A secret signing key (an exponent in `[1, q)`).
///
/// Deliberately does not implement `Debug`/`Display` with its value, and is
/// not `Copy`, mirroring hygiene conventions for real key material.
#[derive(Clone)]
pub struct SecretKey(u64);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Fiat–Shamir challenge `e = H(r ∥ y ∥ m) mod q`.
    pub e: u64,
    /// Response `s = k + x·e mod q`.
    pub s: u64,
}

crate::impl_codec_struct!(Signature { e, s });

impl Encode for PublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for PublicKey {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PublicKey(u64::decode(input)?))
    }
}

/// A signing keypair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates a keypair from the given RNG.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> KeyPair {
        let x = rng.gen_range(1..Q);
        KeyPair::from_secret_exponent(x)
    }

    /// Derives a keypair deterministically from a seed.
    ///
    /// Handy for reproducible simulations: node `i` of an experiment always
    /// gets the same identity.
    pub fn from_seed(seed: u64) -> KeyPair {
        let h = hash_concat(&[b"stellar-keypair-seed", &seed.to_be_bytes()]);
        let x = 1 + h.prefix_u64() % (Q - 1);
        KeyPair::from_secret_exponent(x)
    }

    fn from_secret_exponent(x: u64) -> KeyPair {
        debug_assert!((1..Q).contains(&x));
        KeyPair {
            secret: SecretKey(x),
            public: PublicKey(pow_mod(G, x)),
        }
    }

    /// Returns the public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`, producing a publicly verifiable signature.
    ///
    /// The nonce is derived deterministically from the secret key and the
    /// message (RFC 6979 style), so signing is reproducible and never reuses
    /// a nonce across distinct messages.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let kd = hash_concat(&[b"nonce", &self.secret.0.to_be_bytes(), msg]);
        let k = 1 + kd.prefix_u64() % (Q - 1);
        let r = pow_mod(G, k);
        let e = challenge(r, self.public, msg);
        let s = (k as u128 + mul_mod_q(self.secret.0, e) as u128) % Q as u128;
        Signature { e, s: s as u64 }
    }
}

/// Multiplication modulo the group order `q`.
fn mul_mod_q(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % Q as u128) as u64
}

/// Fiat–Shamir challenge hash, reduced mod `q`.
fn challenge(r: u64, public: PublicKey, msg: &[u8]) -> u64 {
    let h = hash_concat(&[b"schnorr", &r.to_be_bytes(), &public.0.to_be_bytes(), msg]);
    h.prefix_u64() % Q
}

/// Verifies `sig` over `msg` under `public`.
pub fn verify(public: PublicKey, msg: &[u8], sig: &Signature) -> bool {
    if sig.e >= Q || sig.s >= Q || public.0 == 0 || public.0 >= P {
        return false;
    }
    // r' = g^s * y^(-e) = g^s * y^(q - e)  (y has order q).
    let r = pow2_mod(G, sig.s, public.0, Q - sig.e);
    challenge(r, public, msg) == sig.e
}

/// Verifies `sig` over a precomputed 32-byte hash under `public`.
///
/// Identical to `verify(public, hash.as_bytes(), sig)` but spelled so hot
/// paths that already hold the transaction hash (memoized in the envelope)
/// don't re-borrow through a temporary slice at every call site.
pub fn verify_hash(public: PublicKey, hash: &crate::Hash256, sig: &Signature) -> bool {
    verify(public, hash.as_bytes(), sig)
}

/// Convenience wrapper: signs the hash of an encodable structure.
pub fn sign_xdr<T: Encode>(keys: &KeyPair, value: &T) -> Signature {
    keys.sign(crate::hash_xdr(value).as_bytes())
}

/// Convenience wrapper: verifies a signature over the hash of a structure.
pub fn verify_xdr<T: Encode>(public: PublicKey, value: &T, sig: &Signature) -> bool {
    verify(public, crate::hash_xdr(value).as_bytes(), sig)
}

#[cfg(test)]
/// Deterministic Miller–Rabin primality check for `u64`.
///
/// With the witness set below, the test is *deterministic* (not
/// probabilistic) for all 64-bit integers; it backs the parameter
/// self-checks in this module's tests.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == small {
            return true;
        }
        if n.is_multiple_of(small) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod_n(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = ((x as u128 * x as u128) % n as u128) as u64;
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
fn pow_mod_n(mut base: u64, mut exp: u64, n: u64) -> u64 {
    let mut acc: u64 = 1;
    base %= n;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = ((acc as u128 * base as u128) % n as u128) as u64;
        }
        base = ((base as u128 * base as u128) % n as u128) as u64;
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameters_are_a_schnorr_group() {
        assert!(is_prime_u64(P), "p must be prime");
        assert!(is_prime_u64(Q), "q must be prime");
        assert_eq!(P, 2 * Q + 1, "p must be a safe prime");
        assert_eq!(pow_mod(G, Q), 1, "g must have order q");
        assert_ne!(G % P, 1);
    }

    /// The square-and-multiply on `u128` remainders that Montgomery
    /// arithmetic replaced (`pow_mod_n` is that routine with `n` a
    /// parameter), kept as the oracle.
    fn old_pow_mod(base: u64, exp: u64) -> u64 {
        pow_mod_n(base, exp, P)
    }

    fn old_mul_mod(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % P as u128) as u64
    }

    #[test]
    fn montgomery_constants() {
        assert_eq!(P.wrapping_mul(P_NEG_INV), u64::MAX, "p·(−p⁻¹) ≡ −1 mod R");
        assert_eq!(mont_mul(R2, 1), R1);
        assert_eq!(mont_mul(R1, 1), 1);
    }

    #[test]
    fn pow_mod_matches_the_u128_oracle() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut bases = vec![0, 1, 2, G, P - 1, P, P + 1, u64::MAX];
        let mut exps = vec![0, 1, 2, Q - 1, Q, P - 1, u64::MAX];
        for _ in 0..40 {
            bases.push(rng.gen());
            bases.push(rng.gen_range(0..P));
            exps.push(rng.gen());
            exps.push(rng.gen_range(0..Q));
        }
        for &b in &bases {
            for &e in &exps {
                assert_eq!(pow_mod(b, e), old_pow_mod(b, e), "{b}^{e}");
            }
        }
    }

    #[test]
    fn pow2_mod_matches_the_u128_oracle() {
        let mut rng = StdRng::seed_from_u64(30);
        let edges = [0, 1, Q - 1, Q, u64::MAX];
        let bases = [1, P - 1, P, P + 7, G];
        for _ in 0..2_000 {
            let pick = |rng: &mut StdRng, edge: &[u64], range: u64| match rng.gen_range(0..3) {
                0 => edge[rng.gen_range(0..edge.len())],
                1 => rng.gen_range(0..range),
                _ => rng.gen(),
            };
            let (a, b) = (pick(&mut rng, &bases, P), pick(&mut rng, &bases, P));
            let (x, y) = (pick(&mut rng, &edges, Q), pick(&mut rng, &edges, Q));
            let expect = old_mul_mod(old_pow_mod(a, x), old_pow_mod(b, y));
            assert_eq!(pow2_mod(a, x, b, y), expect, "{a}^{x} · {b}^{y}");
        }
    }

    /// Keys and signatures recorded before Montgomery arithmetic and the
    /// SHA-NI compression: both must leave every one unchanged.
    #[test]
    fn known_answers() {
        let pins: [(u64, u64, u64, u64); 4] = [
            (
                0,
                0x1958_9204_9585_298c,
                0x1f8c_170d_5dcc_1dbf,
                0x159d_2ed8_637c_7cbb,
            ),
            (
                7,
                0x3d3f_47fc_443f_018d,
                0x1226_6bdd_b76d_c796,
                0x1a23_c7d8_db5f_64d5,
            ),
            (
                42,
                0x290a_cf54_48e5_ca7b,
                0x0498_0c63_1a5a_a6ad,
                0x1661_5c91_57c1_8240,
            ),
            (
                u64::MAX,
                0x04b7_2569_1b3d_9e60,
                0x1e09_b6e5_ab58_5617,
                0x0bb0_bccf_1ebd_18e2,
            ),
        ];
        for (seed, public, e, s) in pins {
            let kp = KeyPair::from_seed(seed);
            assert_eq!(kp.public(), PublicKey(public), "seed {seed}");
            assert_eq!(kp.sign(b"abc"), Signature { e, s }, "seed {seed}");
            assert!(verify(kp.public(), b"abc", &Signature { e, s }));
        }
        let empty = KeyPair::from_seed(1).sign(b"");
        assert_eq!(
            (empty.e, empty.s),
            (0x1dcd_6a96_dc51_026c, 0x0387_05a7_f90d_1c30)
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let kp = KeyPair::generate(&mut rng);
            let msg = b"pay 100 USD to GABC...";
            let sig = kp.sign(msg);
            assert!(verify(kp.public(), msg, &sig));
        }
    }

    #[test]
    fn wrong_message_fails() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"message A");
        assert!(!verify(kp.public(), b"message B", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = KeyPair::from_seed(1);
        let kp2 = KeyPair::from_seed(2);
        let sig = kp1.sign(b"hello");
        assert!(!verify(kp2.public(), b"hello", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = KeyPair::from_seed(3);
        let mut sig = kp.sign(b"hello");
        sig.s ^= 1;
        assert!(!verify(kp.public(), b"hello", &sig));
        let mut sig2 = kp.sign(b"hello");
        sig2.e = (sig2.e + 1) % Q;
        assert!(!verify(kp.public(), b"hello", &sig2));
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let kp = KeyPair::from_seed(4);
        let sig = Signature { e: Q, s: 0 };
        assert!(!verify(kp.public(), b"x", &sig));
        assert!(!verify(PublicKey(0), b"x", &kp.sign(b"x")));
        assert!(!verify(PublicKey(P), b"x", &kp.sign(b"x")));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = KeyPair::from_seed(42);
        let b = KeyPair::from_seed(42);
        assert_eq!(a.public(), b.public());
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn signing_is_deterministic_but_message_dependent() {
        let kp = KeyPair::from_seed(9);
        assert_eq!(kp.sign(b"m1"), kp.sign(b"m1"));
        assert_ne!(kp.sign(b"m1"), kp.sign(b"m2"));
    }

    #[test]
    fn signature_codec_roundtrip() {
        let kp = KeyPair::from_seed(11);
        let sig = kp.sign(b"encode me");
        let decoded = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(decoded, sig);
        assert!(verify(kp.public(), b"encode me", &decoded));
    }

    #[test]
    fn miller_rabin_sanity() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(3));
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(0));
        assert!(is_prime_u64(2_147_483_647)); // 2^31 - 1
        assert!(!is_prime_u64(2_147_483_647 * 2 + 1));
        // Carmichael number 561 = 3·11·17 must be rejected.
        assert!(!is_prime_u64(561));
    }
}
