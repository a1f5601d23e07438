//! A single bucket: a sorted set of entry versions and tombstones.
//!
//! Internally a bucket is a key-sorted vector of reference-counted
//! *slots*, each carrying its serialized form. Sorting makes
//! [`Bucket::merge`] a linear merge-join (the dominant cost of deep
//! spills), ref-counting lets unchanged slots flow from input to output
//! buckets without copying the entry, and the cached bytes make
//! [`Bucket::hash`] a pure streaming pass — each entry is serialized once
//! in its lifetime, no matter how many merges and hashes it survives.
//! The hash value is byte-identical to serializing on the fly.

use std::rc::Rc;
use stellar_crypto::codec::{Decode, DecodeError, Encode};
use stellar_crypto::{sha256::Sha256, Hash256};
use stellar_ledger::entry::{LedgerEntry, LedgerKey};

/// One slot in a bucket: the latest version of an entry, or a tombstone
/// recording its deletion (needed so deletions shadow older versions in
/// lower levels until they reach the bottom).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BucketEntry {
    /// A live entry version.
    Live(LedgerEntry),
    /// The entry was deleted.
    Dead,
}

stellar_crypto::impl_codec_enum!(BucketEntry: u8 {
    0 => Live(entry),
    1 => Dead,
});

/// A key, its entry version, and their serialization — computed once when
/// the slot is created and reused by every later hash.
#[derive(Debug)]
struct Slot {
    key: LedgerKey,
    entry: BucketEntry,
    enc: Vec<u8>,
}

impl Slot {
    fn new(key: LedgerKey, entry: BucketEntry) -> Slot {
        let mut enc = Vec::new();
        key.encode(&mut enc);
        entry.encode(&mut enc);
        Slot { key, entry, enc }
    }
}

/// A sorted, content-hashed bucket.
#[derive(Clone, Debug, Default)]
pub struct Bucket {
    /// Slots sorted by key, keys unique. `Rc` so merges share unchanged
    /// slots with their inputs instead of re-allocating them.
    slots: Vec<Rc<Slot>>,
    /// Total cached-encoding bytes across slots — the exact size of
    /// [`Bucket::encoded_bytes`], tracked at construction so resident-set
    /// gauges never have to walk the slots.
    bytes: u64,
}

impl PartialEq for Bucket {
    fn eq(&self, other: &Bucket) -> bool {
        self.slots.len() == other.slots.len()
            && self
                .slots
                .iter()
                .zip(&other.slots)
                .all(|(a, b)| a.key == b.key && a.entry == b.entry)
    }
}

impl Eq for Bucket {}

impl Bucket {
    /// The empty bucket.
    pub fn empty() -> Bucket {
        Bucket::default()
    }

    /// Builds a bucket from a ledger-close change feed (later changes to
    /// the same key shadow earlier ones).
    pub fn from_changes(changes: &[(LedgerKey, Option<LedgerEntry>)]) -> Bucket {
        let mut slots: Vec<Rc<Slot>> = changes
            .iter()
            .map(|(key, change)| {
                let be = match change {
                    Some(e) => BucketEntry::Live(e.clone()),
                    None => BucketEntry::Dead,
                };
                Rc::new(Slot::new(key.clone(), be))
            })
            .collect();
        // Stable sort + keep-last dedup: the last change for a key wins,
        // matching map-insert semantics.
        slots.sort_by(|a, b| a.key.cmp(&b.key));
        let mut deduped: Vec<Rc<Slot>> = Vec::with_capacity(slots.len());
        for s in slots {
            if deduped.last().is_some_and(|p| p.key == s.key) {
                *deduped.last_mut().expect("nonempty") = s;
            } else {
                deduped.push(s);
            }
        }
        let bytes = deduped.iter().map(|s| s.enc.len() as u64).sum();
        Bucket {
            slots: deduped,
            bytes,
        }
    }

    /// Rebuilds a bucket from its serialized form (a concatenation of
    /// slot encodings, as produced by [`Bucket::encoded_bytes`] — also
    /// the archive's checkpoint blob format). Slots must appear in key
    /// order with unique keys; anything else is a corrupt blob.
    pub fn decode(blob: &[u8]) -> Result<Bucket, DecodeError> {
        let mut input = blob;
        let mut slots: Vec<Rc<Slot>> = Vec::new();
        while !input.is_empty() {
            let start = input;
            let key = LedgerKey::decode(&mut input)?;
            let entry = BucketEntry::decode(&mut input)?;
            if slots.last().is_some_and(|p| p.key >= key) {
                return Err(DecodeError::Invalid("bucket slots out of order"));
            }
            let enc = start[..start.len() - input.len()].to_vec();
            slots.push(Rc::new(Slot { key, entry, enc }));
        }
        let bytes = blob.len() as u64;
        Ok(Bucket { slots, bytes })
    }

    /// The serialized bucket: every slot's cached encoding, concatenated
    /// in key order. `sha256(encoded_bytes()) == hash()` by construction.
    pub fn encoded_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes as usize);
        for s in &self.slots {
            out.extend_from_slice(&s.enc);
        }
        out
    }

    /// Size of [`Bucket::encoded_bytes`] without materializing it.
    pub fn encoded_len(&self) -> u64 {
        self.bytes
    }

    /// Number of slots (live + tombstones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the bucket holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up an entry version by key (binary search).
    pub fn get(&self, key: &LedgerKey) -> Option<&BucketEntry> {
        let i = self.slots.binary_search_by(|s| s.key.cmp(key)).ok()?;
        Some(&self.slots[i].entry)
    }

    /// Sequential iteration in key order (the access pattern merges need).
    pub fn iter(&self) -> impl Iterator<Item = (&LedgerKey, &BucketEntry)> {
        self.slots.iter().map(|s| (&s.key, &s.entry))
    }

    /// Content hash: SHA-256 over the sorted serialized slots.
    ///
    /// Streams each slot's cached bytes — no per-hash serialization. The
    /// resulting value is identical to encoding every `(key, entry)` pair
    /// in key order, so cached and from-scratch hashes always agree.
    pub fn hash(&self) -> Hash256 {
        let mut h = Sha256::new();
        for s in &self.slots {
            h.update(&s.enc);
        }
        h.finish()
    }

    /// Merges `newer` over `self`, producing the combined bucket.
    ///
    /// Newer versions shadow older ones. Tombstones are kept unless
    /// `bottom_level` is set, in which case they annihilate (nothing below
    /// could still hold a shadowed version). Linear merge-join over the
    /// two sorted slot vectors; surviving slots are shared, not copied.
    pub fn merge(&self, newer: &Bucket, bottom_level: bool) -> Bucket {
        let mut out: Vec<Rc<Slot>> = Vec::with_capacity(self.slots.len() + newer.slots.len());
        let mut older = self.slots.iter().peekable();
        let mut fresh = newer.slots.iter().peekable();
        loop {
            let take_fresh = match (older.peek(), fresh.peek()) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(o), Some(f)) => {
                    if o.key < f.key {
                        false
                    } else {
                        if o.key == f.key {
                            older.next(); // shadowed by the newer version
                        }
                        true
                    }
                }
            };
            let slot = if take_fresh {
                fresh.next().expect("peeked")
            } else {
                older.next().expect("peeked")
            };
            if bottom_level && matches!(slot.entry, BucketEntry::Dead) {
                continue;
            }
            out.push(Rc::clone(slot));
        }
        let bytes = out.iter().map(|s| s.enc.len() as u64).sum();
        Bucket { slots: out, bytes }
    }

    /// Live entries only (for state reconstruction during catch-up).
    pub fn live_entries(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.slots.iter().filter_map(|s| match &s.entry {
            BucketEntry::Live(e) => Some(e),
            BucketEntry::Dead => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::PublicKey;
    use stellar_ledger::entry::{AccountEntry, AccountId};

    fn key(n: u64) -> LedgerKey {
        LedgerKey::Account(AccountId(PublicKey(n)))
    }

    fn live(n: u64, balance: i64) -> (LedgerKey, Option<LedgerEntry>) {
        (
            key(n),
            Some(LedgerEntry::Account(AccountEntry::new(
                AccountId(PublicKey(n)),
                balance,
            ))),
        )
    }

    fn dead(n: u64) -> (LedgerKey, Option<LedgerEntry>) {
        (key(n), None)
    }

    #[test]
    fn hash_is_order_independent_and_content_sensitive() {
        let a = Bucket::from_changes(&[live(1, 10), live(2, 20)]);
        let b = Bucket::from_changes(&[live(2, 20), live(1, 10)]);
        assert_eq!(a.hash(), b.hash());
        let c = Bucket::from_changes(&[live(1, 11), live(2, 20)]);
        assert_ne!(a.hash(), c.hash());
        assert_eq!(Bucket::empty().hash(), Bucket::empty().hash());
    }

    #[test]
    fn later_change_for_same_key_wins() {
        let b = Bucket::from_changes(&[live(1, 10), live(1, 99)]);
        assert_eq!(b.len(), 1);
        match b.get(&key(1)).unwrap() {
            BucketEntry::Live(LedgerEntry::Account(a)) => assert_eq!(a.balance, 99),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_newer_shadows_older() {
        let old = Bucket::from_changes(&[live(1, 10), live(2, 20)]);
        let new = Bucket::from_changes(&[live(1, 99)]);
        let merged = old.merge(&new, false);
        match merged.get(&key(1)).unwrap() {
            BucketEntry::Live(LedgerEntry::Account(a)) => assert_eq!(a.balance, 99),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_interleaves_in_key_order() {
        let old = Bucket::from_changes(&[live(1, 1), live(3, 3), live(5, 5)]);
        let new = Bucket::from_changes(&[live(0, 0), live(3, 33), live(6, 6)]);
        let merged = old.merge(&new, false);
        let keys: Vec<&LedgerKey> = merged.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merge output must stay key-sorted");
        assert_eq!(merged.len(), 5);
        // The merged bucket hashes identically to a from-scratch build of
        // the same final contents — cached encodings are not stale.
        let rebuilt =
            Bucket::from_changes(&[live(0, 0), live(1, 1), live(3, 33), live(5, 5), live(6, 6)]);
        assert_eq!(merged.hash(), rebuilt.hash());
    }

    #[test]
    fn tombstones_survive_mid_levels_and_annihilate_at_bottom() {
        let old = Bucket::from_changes(&[live(1, 10)]);
        let new = Bucket::from_changes(&[dead(1)]);
        let mid = old.merge(&new, false);
        assert!(matches!(mid.get(&key(1)), Some(BucketEntry::Dead)));
        let bottom = old.merge(&new, true);
        assert!(bottom.get(&key(1)).is_none());
        assert!(bottom.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip_preserves_hash() {
        let b = Bucket::from_changes(&[live(1, 10), dead(2), live(3, 30)]);
        let blob = b.encoded_bytes();
        assert_eq!(blob.len() as u64, b.encoded_len());
        assert_eq!(stellar_crypto::sha256::sha256(&blob), b.hash());
        let back = Bucket::decode(&blob).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.hash(), b.hash());
        assert_eq!(back.encoded_len(), b.encoded_len());
        // Truncation never decodes.
        assert!(Bucket::decode(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn live_entries_skips_tombstones() {
        let b = Bucket::from_changes(&[live(1, 10), dead(2)]);
        assert_eq!(b.live_entries().count(), 1);
    }
}
