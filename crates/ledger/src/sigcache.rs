//! Verified-signature cache.
//!
//! A validator signature-checks each transaction twice on its way into a
//! ledger: when it is admitted to the pending queue, and inside
//! `close_ledger` when it is applied (§5.2: every validator replays the
//! full apply path; validating a nominated set checks no signature). The
//! Schnorr verification each check performs — two modular
//! exponentiations — is the most expensive single operation on the close
//! path, yet its outcome is a pure function of `(message, key,
//! signature)`. Production stellar-core keeps such a cache; this is ours.
//!
//! The cache **ages by ledger**. It keeps two generations: checks insert
//! into the fresh one, a hit in the old one moves the outcome back to the
//! fresh one, and every close (whatever calls `close_ledger`: a live
//! close, catch-up replay or a driver of its own) makes the fresh
//! generation the old one and drops what the old one held. An outcome
//! therefore lives until the second close after its last use: long enough
//! to carry the admission check to the apply check, and no longer, since
//! nothing asks again once its transaction is applied.
//!
//! A **count cap** is the bound a hostile submitter meets: a flood of
//! distinct signatures between two closes rotates the generations early
//! whenever the fresh one fills to half the capacity, so the cache never
//! holds more than its capacity. Both rotations are O(1) amortized and
//! deterministic (no clocks, no randomized LRU sampling), so twin runs
//! produce identical results — a hit returns bit-for-bit what
//! verification would have.
//!
//! Negative results are cached too: a flood of copies of one bad
//! signature costs one verification, not one per copy.

use stellar_crypto::sign::{verify_hash, PublicKey, Signature};
use stellar_crypto::{heap, Hash256, IdMap};

/// Cache key: the signed message hash plus the full `(key, signature)`
/// triple, so distinct signatures over one transaction never collide.
type SigKey = (Hash256, u64, u64, u64);

/// A bounded memo table for Schnorr verification outcomes.
///
/// Correctness does not depend on the cache: it stores only pure
/// verification outcomes, keyed by every input of the verification. A
/// disabled cache (capacity 0) degrades to calling `verify` every time,
/// which the twin-run determinism test exploits.
#[derive(Debug)]
pub struct SigVerifyCache {
    /// Maximum total entries across both generations (0 = disabled).
    capacity: usize,
    /// Fresh generation: receives all inserts.
    young: IdMap<SigKey, bool>,
    /// Previous generation: read-only; hits are promoted back to `young`.
    old: IdMap<SigKey, bool>,
    /// `old`'s length when it took its last insert: what its table holds
    /// room for, since hits only remove from it.
    old_grown: usize,
    hits: u64,
    misses: u64,
}

impl SigVerifyCache {
    /// A cache holding at most `capacity` verified outcomes.
    pub fn new(capacity: usize) -> SigVerifyCache {
        SigVerifyCache {
            capacity,
            young: IdMap::default(),
            old: IdMap::default(),
            old_grown: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A disabled cache: every check verifies from scratch.
    pub fn disabled() -> SigVerifyCache {
        SigVerifyCache::new(0)
    }

    /// Verifies `sig` by `pk` over `msg`, consulting the cache first.
    pub fn check(&mut self, msg: &Hash256, pk: PublicKey, sig: &Signature) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return verify_hash(pk, msg, sig);
        }
        let key = (*msg, pk.0, sig.e, sig.s);
        if let Some(&ok) = self.young.get(&key) {
            self.hits += 1;
            return ok;
        }
        if let Some(ok) = self.old.remove(&key) {
            self.hits += 1;
            self.insert(key, ok);
            return ok;
        }
        self.misses += 1;
        let ok = verify_hash(pk, msg, sig);
        self.insert(key, ok);
        ok
    }

    fn insert(&mut self, key: SigKey, ok: bool) {
        if self.young.len() >= self.capacity.div_ceil(2).max(1) {
            self.rotate();
        }
        self.young.insert(key, ok);
    }

    /// Ages the cache by one generation: the fresh generation becomes the
    /// old one and what the old one held is forgotten. `close_ledger`
    /// calls it once per close.
    pub fn rotate(&mut self) {
        self.old = std::mem::take(&mut self.young);
        self.old_grown = self.old.len();
    }

    /// Checks answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checks that had to run a real verification.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.young.is_empty() && self.old.is_empty()
    }

    /// Heap bytes the two generations hold.
    pub fn resident_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(SigKey, bool)>();
        heap::table(self.young.len(), entry) + heap::table(self.old_grown, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::KeyPair;
    use stellar_crypto::Hash256;

    fn msg(n: u8) -> Hash256 {
        Hash256([n; 32])
    }

    #[test]
    fn caches_positive_and_negative_outcomes() {
        let kp = KeyPair::from_seed(1);
        let good = kp.sign(msg(7).as_bytes());
        let bad = kp.sign(msg(8).as_bytes()); // valid for a different msg
        let mut c = SigVerifyCache::new(64);
        assert!(c.check(&msg(7), kp.public(), &good));
        assert!(!c.check(&msg(7), kp.public(), &bad));
        assert_eq!(c.hits(), 0);
        assert!(c.check(&msg(7), kp.public(), &good));
        assert!(!c.check(&msg(7), kp.public(), &bad));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn disabled_cache_still_verifies_correctly() {
        let kp = KeyPair::from_seed(2);
        let sig = kp.sign(msg(1).as_bytes());
        let mut c = SigVerifyCache::disabled();
        assert!(c.check(&msg(1), kp.public(), &sig));
        assert!(c.check(&msg(1), kp.public(), &sig));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_bounded_and_hot_keys_survive_rotation() {
        let kp = KeyPair::from_seed(3);
        let hot = kp.sign(msg(0).as_bytes());
        let mut c = SigVerifyCache::new(32);
        for i in 0..1000u64 {
            // Re-touch the hot key between batches of one-shot fillers.
            assert!(c.check(&msg(0), kp.public(), &hot));
            let m = Hash256([i as u8; 32]);
            let filler = Signature {
                e: i % stellar_crypto::sign::Q,
                s: i % stellar_crypto::sign::Q,
            };
            c.check(&m, kp.public(), &filler);
        }
        assert!(c.len() <= 32 + 1, "len {} exceeds bound", c.len());
        // The hot key was touched every round: almost all of its checks hit.
        assert!(c.hits() > 900, "hits {}", c.hits());
    }

    #[test]
    fn an_outcome_unused_for_two_closes_is_forgotten() {
        let kp = KeyPair::from_seed(6);
        let sig = kp.sign(msg(1).as_bytes());
        let mut c = SigVerifyCache::new(64);
        assert!(c.check(&msg(1), kp.public(), &sig));
        c.rotate();
        assert_eq!(c.len(), 1, "one close later the outcome is still held");
        c.rotate();
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.check(&msg(1), kp.public(), &sig));
        assert_eq!((c.hits(), c.misses()), (0, 2));
    }

    #[test]
    fn an_outcome_used_at_every_close_survives() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(msg(2).as_bytes());
        let mut c = SigVerifyCache::new(64);
        for _ in 0..10 {
            assert!(c.check(&msg(2), kp.public(), &sig));
            c.rotate();
        }
        assert_eq!((c.hits(), c.misses()), (9, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn negative_outcomes_age_the_same_way() {
        let kp = KeyPair::from_seed(8);
        let bad = kp.sign(msg(4).as_bytes()); // valid for a different msg
        let mut c = SigVerifyCache::new(64);
        assert!(!c.check(&msg(3), kp.public(), &bad));
        c.rotate();
        assert!(!c.check(&msg(3), kp.public(), &bad));
        assert_eq!(c.hits(), 1, "used within one close: a hit");
        c.rotate();
        c.rotate();
        assert!(c.is_empty());
        assert!(!c.check(&msg(3), kp.public(), &bad));
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn a_flood_between_two_closes_stays_within_the_count_cap() {
        let kp = KeyPair::from_seed(9);
        // A cache that took 32 distinct outcomes holds as much as any.
        let mut full = SigVerifyCache::new(32);
        for i in 0..32u64 {
            let bad = Signature { e: i + 1, s: i + 1 };
            full.check(&msg(5), kp.public(), &bad);
        }
        let bound = full.resident_bytes();
        let mut c = SigVerifyCache::new(32);
        for i in 0..10_000u64 {
            let bad = Signature {
                e: i % stellar_crypto::sign::Q,
                s: (i * 7 + 1) % stellar_crypto::sign::Q,
            };
            assert!(!c.check(&msg(5), kp.public(), &bad));
            assert!(c.len() <= 32, "len {} exceeds the cap", c.len());
            assert!(c.resident_bytes() <= bound);
        }
        c.rotate();
        assert!(c.len() <= 16);
    }

    #[test]
    fn distinct_signatures_over_same_message_do_not_collide() {
        let k1 = KeyPair::from_seed(4);
        let k2 = KeyPair::from_seed(5);
        let s1 = k1.sign(msg(9).as_bytes());
        let s2 = k2.sign(msg(9).as_bytes());
        let mut c = SigVerifyCache::new(16);
        assert!(c.check(&msg(9), k1.public(), &s1));
        assert!(c.check(&msg(9), k2.public(), &s2));
        // Cross-wiring key and signature must fail even with warm cache.
        assert!(!c.check(&msg(9), k1.public(), &s2));
        assert!(!c.check(&msg(9), k2.public(), &s1));
    }
}
