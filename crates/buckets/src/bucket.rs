//! A single bucket: a sorted set of entry versions and tombstones.
//!
//! A bucket is its canonical encoding: one byte buffer holding every
//! slot's `key ‖ entry` encoding in key order, plus the offset where each
//! slot starts. That buffer is at once the hash input, the data-disk blob
//! and the history archive's checkpoint blob, so [`Bucket::hash`] is one
//! SHA-256 pass and persisting or publishing a level writes it as it is.
//! [`Bucket::merge`] is a linear merge-join that decodes only the key
//! under each cursor and copies the winning slot's bytes; entries are
//! decoded only when something reads them ([`Bucket::iter`],
//! [`Bucket::live_entries`]: state reconstruction, catch-up, tests).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::rc::Rc;
use stellar_crypto::codec::{Decode, DecodeError, Encode};
use stellar_crypto::{heap, sha256::sha256, Hash256};
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

/// `BucketEntry::Live`'s tag, so a borrowed entry encodes as a live slot
/// without being cloned into a `BucketEntry`.
const LIVE_TAG: u8 = 0;

/// A slot start as a `u32` offset: a bucket's bytes stay under 4 GiB.
fn offset(pos: usize) -> Result<u32, DecodeError> {
    u32::try_from(pos).map_err(|_| DecodeError::BadLength(pos as u64))
}

/// The start of a slot about to be appended to `bytes`.
fn next_start(bytes: &[u8]) -> u32 {
    offset(bytes.len()).expect("bucket under 4 GiB")
}

/// A sorted, content-hashed bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Every slot's `key ‖ entry` encoding, concatenated in key order;
    /// keys are unique. Shared, never copied, with the history archive
    /// while this bucket is a resident level.
    bytes: Rc<Vec<u8>>,
    /// Where each slot begins in `bytes`.
    starts: Vec<u32>,
}

impl Bucket {
    /// The empty bucket.
    pub fn empty() -> Bucket {
        Bucket::default()
    }

    /// Builds a bucket from a ledger-close change feed (later changes to
    /// the same key shadow earlier ones).
    pub fn from_changes(changes: &[(LedgerKey, Option<LedgerEntry>)]) -> Bucket {
        let mut sorted: Vec<&(LedgerKey, Option<LedgerEntry>)> = changes.iter().collect();
        // Stable: a key's changes stay in feed order, so the last one wins.
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        Bucket::from_sorted(sorted.into_iter().map(|(key, e)| (key, e.as_ref())))
    }

    /// Builds a bucket of live entries from a full state snapshot, a
    /// later version of a key replacing an earlier one.
    ///
    /// Input in strictly ascending key order — what every store snapshot
    /// yields — is encoded as it streams in, straight into the bucket's
    /// bytes, whose buffer is sized from the slots so far and the length
    /// the input still promises, so it is not doubled past the state. At
    /// the first key out of order, the slots encoded so far are decoded
    /// back and, with the rest of the input, sorted and encoded anew.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = LedgerEntry>) -> Bucket {
        let mut entries = entries.into_iter();
        let (mut bytes, mut starts) = (Vec::new(), Vec::with_capacity(entries.size_hint().0));
        let mut last: Option<LedgerKey> = None;
        while let Some(entry) = entries.next() {
            let key = entry.key();
            if last.as_ref().is_some_and(|last| *last >= key) {
                let prefix = Bucket::new(bytes, starts);
                let mut all: Vec<LedgerEntry> = prefix.live_entries().collect();
                drop(prefix);
                all.push(entry);
                all.extend(entries);
                // Stable: a key's versions keep input order, so the last wins.
                all.sort_by_key(LedgerEntry::key);
                return Bucket::from_sorted(all.iter().map(|e| (e.key(), Some(e))));
            }
            if let Some(per_slot) = bytes.len().checked_div(starts.len()) {
                if bytes.capacity() - bytes.len() < per_slot {
                    match entries.size_hint().0 {
                        0 => bytes.reserve(per_slot),
                        rest => bytes.reserve_exact((per_slot + 1) * (rest + 1)),
                    }
                }
            }
            starts.push(next_start(&bytes));
            key.encode(&mut bytes);
            (LIVE_TAG, &entry).encode(&mut bytes);
            last = Some(key);
        }
        Bucket::new(bytes, starts)
    }

    /// Encodes key-sorted slots in which a key's versions are adjacent,
    /// oldest first: only the last of each run is kept.
    fn from_sorted<'a, K: Borrow<LedgerKey>>(
        slots: impl Iterator<Item = (K, Option<&'a LedgerEntry>)>,
    ) -> Bucket {
        let (mut bytes, mut starts) = (Vec::new(), Vec::new());
        let mut slots = slots.peekable();
        while let Some((key, entry)) = slots.next() {
            if slots
                .peek()
                .is_some_and(|(next, _)| next.borrow() == key.borrow())
            {
                continue;
            }
            starts.push(next_start(&bytes));
            key.borrow().encode(&mut bytes);
            match entry {
                Some(e) => (LIVE_TAG, e).encode(&mut bytes),
                None => BucketEntry::Dead.encode(&mut bytes),
            }
        }
        Bucket::new(bytes, starts)
    }

    /// Rebuilds a bucket from its serialized form ([`Bucket::encoded_bytes`],
    /// also the archive's checkpoint blob and the data disk's level blob).
    /// Every slot is decoded once to validate it; slots must appear in key
    /// order with unique keys, and anything else is a corrupt blob.
    pub fn decode(blob: &[u8]) -> Result<Bucket, DecodeError> {
        offset(blob.len())?;
        let mut input = blob;
        let mut starts = Vec::new();
        let mut prev: Option<LedgerKey> = None;
        while !input.is_empty() {
            starts.push(offset(blob.len() - input.len())?);
            let key = LedgerKey::decode(&mut input)?;
            BucketEntry::decode(&mut input)?;
            if prev.as_ref().is_some_and(|p| *p >= key) {
                return Err(DecodeError::Invalid("bucket slots out of order"));
            }
            prev = Some(key);
        }
        Ok(Bucket::new(blob.to_vec(), starts))
    }

    /// The serialized bucket: every slot's encoding, concatenated in key
    /// order. `sha256(encoded_bytes()) == hash()` by construction.
    pub fn encoded_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// [`Bucket::encoded_bytes`] as a shared handle.
    pub(crate) fn shared_bytes(&self) -> Rc<Vec<u8>> {
        Rc::clone(&self.bytes)
    }

    /// Size of [`Bucket::encoded_bytes`].
    pub fn encoded_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Heap bytes the bucket holds: its encoding plus one `u32` offset
    /// per slot.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.encoded_len() + (4 * self.starts.len()) as u64
    }

    /// This bucket's share of the heap its encoding and offsets hold: a
    /// bucket list that shares its encoding with a clone of itself or
    /// with an archive counts it by share, and the holders together
    /// count it once.
    pub(crate) fn resident_share(&self) -> u64 {
        let bytes =
            heap::RC_HEADER + (std::mem::size_of::<Vec<u8>>() + self.bytes.capacity()) as u64;
        heap::shared(bytes, Rc::strong_count(&self.bytes))
            + heap::array::<u32>(self.starts.capacity())
    }

    /// Number of slots (live + tombstones).
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the bucket holds nothing.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Each slot in key order as its decoded key, its whole encoding and
    /// its entry's encoding (which begins with the entry's tag).
    fn raw_slots(&self) -> impl Iterator<Item = (LedgerKey, &[u8], &[u8])> {
        let ends = self.starts.iter().skip(1).map(|&s| s as usize);
        let ends = ends.chain([self.bytes.len()]);
        self.starts.iter().zip(ends).map(|(&start, end)| {
            let slot = &self.bytes[start as usize..end];
            let mut entry = slot;
            let key = LedgerKey::decode(&mut entry).expect("validated slot");
            (key, slot, entry)
        })
    }

    /// Sequential iteration in key order, decoding each entry.
    pub fn iter(&self) -> impl Iterator<Item = (LedgerKey, BucketEntry)> + '_ {
        self.raw_slots().map(|(key, _, entry)| {
            let entry = BucketEntry::from_bytes(entry).expect("validated slot");
            (key, entry)
        })
    }

    /// Content hash: SHA-256 over the bucket's bytes.
    pub fn hash(&self) -> Hash256 {
        sha256(&self.bytes)
    }

    /// Merges `newer` over `self`, producing the combined bucket.
    ///
    /// Newer versions shadow older ones. Tombstones are kept unless
    /// `bottom_level` is set, in which case they annihilate (nothing below
    /// could still hold a shadowed version). Linear merge-join over the
    /// two sorted buckets: each winning slot's bytes are copied as they
    /// are, and only keys (and a tombstone's tag) are read.
    pub fn merge(&self, newer: &Bucket, bottom_level: bool) -> Bucket {
        let mut bytes = Vec::with_capacity(self.bytes.len() + newer.bytes.len());
        let mut starts = Vec::with_capacity(self.len() + newer.len());
        let mut older = self.raw_slots().peekable();
        let mut fresh = newer.raw_slots().peekable();
        loop {
            let take_fresh = match (older.peek(), fresh.peek()) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(o), Some(f)) => match o.0.cmp(&f.0) {
                    Ordering::Less => false,
                    Ordering::Equal => {
                        older.next(); // shadowed by the newer version
                        true
                    }
                    Ordering::Greater => true,
                },
            };
            let next = if take_fresh {
                fresh.next()
            } else {
                older.next()
            };
            let (_, slot, entry) = next.expect("peeked");
            if bottom_level && entry[0] == BucketEntry::Dead.tag() {
                continue;
            }
            starts.push(next_start(&bytes));
            bytes.extend_from_slice(slot);
        }
        Bucket::new(bytes, starts)
    }

    /// Wraps a finished encoding without spare capacity, so
    /// [`Bucket::resident_bytes`] is what the bucket holds.
    fn new(mut bytes: Vec<u8>, mut starts: Vec<u32>) -> Bucket {
        bytes.shrink_to_fit();
        starts.shrink_to_fit();
        Bucket {
            bytes: Rc::new(bytes),
            starts,
        }
    }

    /// Live entries only (for state reconstruction during catch-up).
    pub fn live_entries(&self) -> impl Iterator<Item = LedgerEntry> + '_ {
        self.iter().filter_map(|(_, entry)| match entry {
            BucketEntry::Live(e) => Some(e),
            BucketEntry::Dead => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use stellar_crypto::sign::PublicKey;
    use stellar_ledger::amount::Price;
    use stellar_ledger::entry::{AccountEntry, AccountId, DataEntry, OfferEntry, TrustLineEntry};
    use stellar_ledger::Asset;

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

    fn get(bucket: &Bucket, k: &LedgerKey) -> Option<BucketEntry> {
        bucket.iter().find(|(key, _)| key == k).map(|(_, e)| e)
    }

    /// An entry of key kind `kind`, `n < 6` picking one of six keys per
    /// kind and `v` its contents. Asset codes and data names are chosen so
    /// that their order and their length-prefixed encodings' order differ.
    fn entry(kind: u8, n: u64, v: i64) -> LedgerEntry {
        let account = AccountId(PublicKey(n % 3));
        let asset = Asset::issued(AccountId(PublicKey(9)), ["USD", "EURO"][n as usize % 2]);
        match kind {
            0 => LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(n)), v)),
            1 => LedgerEntry::TrustLine(TrustLineEntry {
                account,
                asset,
                balance: v,
                limit: v + 1,
                authorized: v % 2 == 0,
            }),
            2 => LedgerEntry::Offer(OfferEntry {
                id: n,
                account,
                selling: Asset::Native,
                buying: asset,
                amount: v,
                price: Price::new(1, 2),
                passive: false,
            }),
            _ => LedgerEntry::Data(DataEntry {
                account,
                name: ["b", "aa"][n as usize / 3].to_string(),
                value: v.to_be_bytes().to_vec(),
            }),
        }
    }

    /// `bucket` holds exactly `model`, in the reference encoding.
    fn check(bucket: &Bucket, model: &BTreeMap<LedgerKey, Option<LedgerEntry>>) {
        let slots: Vec<(LedgerKey, BucketEntry)> = model
            .iter()
            .map(|(k, e)| {
                let entry = e.clone().map_or(BucketEntry::Dead, BucketEntry::Live);
                (k.clone(), entry)
            })
            .collect();
        let mut want = Vec::new();
        for (k, e) in &slots {
            k.encode(&mut want);
            e.encode(&mut want);
        }
        assert_eq!(bucket.encoded_bytes(), want);
        assert_eq!(bucket.hash(), sha256(&want));
        assert_eq!(bucket.iter().collect::<Vec<_>>(), slots);
        assert_eq!(Bucket::decode(&want).as_ref(), Ok(bucket));
    }

    proptest! {
        /// `from_changes`, `merge` (mid level and bottom), `from_entries`
        /// and `decode` against a map from key to latest version, over all
        /// four key kinds with keys repeated within and across batches.
        #[test]
        fn buckets_agree_with_reference_map(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u64..6, any::<bool>(), 0i64..1000), 0..16),
                1..8),
        ) {
            let mut mid = Bucket::empty();
            let mut model: BTreeMap<LedgerKey, Option<LedgerEntry>> = BTreeMap::new();
            for batch in &batches {
                let changes: Vec<(LedgerKey, Option<LedgerEntry>)> = batch
                    .iter()
                    .map(|&(kind, n, delete, v)| {
                        let e = entry(kind, n, v);
                        (e.key(), (!delete).then_some(e))
                    })
                    .collect();
                let fresh = Bucket::from_changes(&changes);
                check(&fresh, &changes.iter().cloned().collect());

                let bottom = mid.merge(&fresh, true);
                mid = mid.merge(&fresh, false);
                model.extend(changes);
                check(&mid, &model);
                let mut live = model.clone();
                live.retain(|_, e| e.is_some());
                check(&bottom, &live);
                let entries = live.into_values().rev().flatten();
                prop_assert_eq!(&Bucket::from_entries(entries), &bottom);
            }
        }
    }

    proptest! {
        /// `from_entries` streams key-ordered input and sorts the rest:
        /// both agree with a bucket encoded from the input sorted up
        /// front (stably, so a repeated key's last version wins), for the
        /// input in key order and for the same entries shuffled.
        #[test]
        fn streamed_and_sorted_from_entries_agree(
            items in proptest::collection::vec((0u8..4, 0u64..6, 0i64..1000, any::<u64>()), 0..48),
        ) {
            let sorted_reference = |mut entries: Vec<LedgerEntry>| {
                entries.sort_by_key(LedgerEntry::key);
                Bucket::from_sorted(entries.iter().map(|e| (e.key(), Some(e))))
            };
            let mut shuffled: Vec<(u64, LedgerEntry)> = items
                .iter()
                .map(|&(kind, n, v, rank)| (rank, entry(kind, n, v)))
                .collect();
            shuffled.sort_by_key(|(rank, _)| *rank);
            let shuffled: Vec<LedgerEntry> = shuffled.into_iter().map(|(_, e)| e).collect();
            let in_order: Vec<LedgerEntry> = shuffled
                .iter()
                .map(|e| (e.key(), e.clone()))
                .collect::<BTreeMap<_, _>>()
                .into_values()
                .collect();

            prop_assert_eq!(
                Bucket::from_entries(in_order.clone()),
                sorted_reference(in_order)
            );
            prop_assert_eq!(
                Bucket::from_entries(shuffled.clone()),
                sorted_reference(shuffled)
            );
        }
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
        match get(&b, &key(1)).unwrap() {
            BucketEntry::Live(LedgerEntry::Account(a)) => assert_eq!(a.balance, 99),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_newer_shadows_older() {
        let old = Bucket::from_changes(&[live(1, 10), live(2, 20)]);
        let new = Bucket::from_changes(&[live(1, 99)]);
        let merged = old.merge(&new, false);
        match get(&merged, &key(1)).unwrap() {
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
        let keys: Vec<LedgerKey> = merged.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merge output must stay key-sorted");
        assert_eq!(merged.len(), 5);
        // The merged bucket hashes identically to a from-scratch build of
        // the same final contents.
        let rebuilt =
            Bucket::from_changes(&[live(0, 0), live(1, 1), live(3, 33), live(5, 5), live(6, 6)]);
        assert_eq!(merged.hash(), rebuilt.hash());
    }

    #[test]
    fn tombstones_survive_mid_levels_and_annihilate_at_bottom() {
        let old = Bucket::from_changes(&[live(1, 10)]);
        let new = Bucket::from_changes(&[dead(1)]);
        let mid = old.merge(&new, false);
        assert_eq!(get(&mid, &key(1)), Some(BucketEntry::Dead));
        let bottom = old.merge(&new, true);
        assert!(bottom.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip_preserves_hash() {
        let b = Bucket::from_changes(&[live(1, 10), dead(2), live(3, 30)]);
        let blob = b.encoded_bytes();
        assert_eq!(blob.len() as u64, b.encoded_len());
        assert_eq!(sha256(blob), b.hash());
        let back = Bucket::decode(blob).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.hash(), b.hash());
        // Truncation never decodes.
        assert!(Bucket::decode(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn offsets_past_u32_are_a_decode_error() {
        assert_eq!(offset(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            offset(u32::MAX as usize + 1),
            Err(DecodeError::BadLength(1 << 32))
        );
    }

    /// Every prefix and every single-bit flip of a blob mixing all four
    /// key kinds and tombstones is refused, or decodes to a bucket whose
    /// every slot can be read back — the `expect`s on validated slots in
    /// `iter` and `merge` never fire on what `decode` accepted.
    #[test]
    fn corrupt_blobs_are_refused_or_fully_readable() {
        let changes: Vec<(LedgerKey, Option<LedgerEntry>)> = (0..4u8)
            .flat_map(|kind| (0..6u64).map(move |n| entry(kind, n, 7 * n as i64)))
            .map(|e| (e.key(), Some(e)))
            .enumerate()
            .map(|(i, (k, e))| (k, e.filter(|_| i % 5 != 0)))
            .collect();
        let blob = Bucket::from_changes(&changes).encoded_bytes().to_vec();
        let mut accepted = 0;
        let mut probe = |bytes: &[u8]| {
            if let Ok(b) = Bucket::decode(bytes) {
                accepted += 1;
                assert_eq!(b.encoded_bytes(), bytes);
                assert_eq!(b.iter().count(), b.len());
                assert!(b.live_entries().count() <= b.len());
                assert_eq!(b.merge(&b, false), b);
                assert!(b.merge(&Bucket::empty(), true).len() <= b.len());
            }
        };
        for end in 0..=blob.len() {
            probe(&blob[..end]);
        }
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut flipped = blob.clone();
                flipped[i] ^= 1 << bit;
                probe(&flipped);
            }
        }
        assert!(accepted > 1, "the sweep must reach accepted blobs");
    }

    #[test]
    fn live_entries_skips_tombstones() {
        let b = Bucket::from_changes(&[live(1, 10), dead(2)]);
        assert_eq!(b.live_entries().count(), 1);
    }
}
