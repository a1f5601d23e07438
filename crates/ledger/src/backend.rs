//! Pluggable ledger storage backends.
//!
//! The ledger store ([`crate::store::LedgerStore`]) is a thin facade over a
//! [`LedgerBackend`]: the four entry maps plus the order-book side index,
//! behind get/put/delete/iterate. Two implementations exist:
//!
//! * [`MemBackend`] (here) — the original in-RAM `BTreeMap`s. Fast,
//!   unbounded memory.
//! * `DiskBackend` (`crates/store`) — a log-structured store over the
//!   simulated disk in `crates/persist`, with a bounded write-back cache.
//!
//! The read half is its own trait, [`LedgerRead`], because backends are
//! not the only thing transactions read through: every
//! [`crate::store::LedgerDelta`] is a `LedgerRead` over another one.
//!
//! Reads deliberately return *owned* entries: a disk backend cannot
//! hand out references into its cache without freezing it, and the apply
//! path already copies entries into the bucket list anyway. Reads take
//! `&self`; backends with interior caches use interior mutability.
//!
//! The order-book index (`selling → buying → {(price, id)}`) is shared
//! infrastructure: both backends keep it in RAM (it is small — one cursor
//! per open offer) and maintain it through [`book_apply`], so price/time
//! priority cannot drift between backends.

use crate::amount::Price;
use crate::asset::Asset;
use crate::entry::{
    AccountEntry, AccountId, DataEntry, LedgerEntry, LedgerKey, OfferEntry, TrustLineEntry,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::rc::Rc;
use stellar_persist::DurableStore;

/// Position in a pair's book: `(price, offer id)` — the canonical
/// price-time-priority ordering (numeric price, ties by id).
pub type BookCursor = (Price, u64);

/// The order-book side index: selling asset → buying asset → positions.
pub type BookIndex = BTreeMap<Asset, BTreeMap<Asset, BTreeSet<BookCursor>>>;

/// The book position of an offer — the one definition of book ordering
/// shared by the base index and every delta merge, so price/time priority
/// cannot drift between the two paths.
pub fn book_key(offer: &OfferEntry) -> BookCursor {
    (offer.price, offer.id)
}

fn index_insert(book: &mut BookIndex, offer: &OfferEntry) {
    book.entry(offer.selling.clone())
        .or_default()
        .entry(offer.buying.clone())
        .or_default()
        .insert(book_key(offer));
}

fn index_remove(book: &mut BookIndex, offer: &OfferEntry) {
    if let Some(buys) = book.get_mut(&offer.selling) {
        if let Some(set) = buys.get_mut(&offer.buying) {
            set.remove(&book_key(offer));
            if set.is_empty() {
                buys.remove(&offer.buying);
            }
        }
        if buys.is_empty() {
            book.remove(&offer.selling);
        }
    }
}

/// Applies one offer transition (`prev` → `new`) to the book index.
///
/// An update may have moved the offer's book position; the stale one is
/// dropped *after* inserting the new one. Position must be compared with
/// `Ord` (the set's notion of equality): prices are unreduced fractions,
/// so 2/4 and 1/2 are Ord-equal but field-different, and removing the
/// "old" key would strip the entry the no-op insert just kept.
pub fn book_apply(book: &mut BookIndex, prev: Option<&OfferEntry>, new: Option<&OfferEntry>) {
    match (prev, new) {
        (prev, Some(cur)) => {
            index_insert(book, cur);
            if let Some(prev) = prev {
                if book_key(prev).cmp(&book_key(cur)) != std::cmp::Ordering::Equal
                    || prev.selling != cur.selling
                    || prev.buying != cur.buying
                {
                    index_remove(book, prev);
                }
            }
        }
        (Some(prev), None) => index_remove(book, prev),
        (None, None) => {}
    }
}

/// Reads the positions for a pair strictly after `after`, up to `limit`.
pub fn book_range(
    book: &BookIndex,
    selling: &Asset,
    buying: &Asset,
    after: Option<BookCursor>,
    limit: usize,
) -> Vec<BookCursor> {
    let Some(set) = book.get(selling).and_then(|m| m.get(buying)) else {
        return Vec::new();
    };
    let lower = match after {
        Some(cursor) => Bound::Excluded(cursor),
        None => Bound::Unbounded,
    };
    set.range((lower, Bound::Unbounded))
        .take(limit)
        .copied()
        .collect()
}

/// Lifetime I/O counters a backend exposes for telemetry. All zero for
/// the in-RAM backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Reads served from the write-back cache.
    pub cache_hits: u64,
    /// Reads that had to touch a segment.
    pub cache_misses: u64,
    /// Clean entries evicted to stay under the cache cap.
    pub cache_evicts: u64,
    /// Payload bytes staged to the data disk.
    pub bytes_written: u64,
    /// Payload bytes read back from segments.
    pub bytes_read: u64,
    /// Successful data-disk syncs.
    pub fsyncs: u64,
    /// Failed (fault-injected) data-disk syncs.
    pub failed_fsyncs: u64,
    /// Live segment files.
    pub segments: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Bytes currently occupying the data disk.
    pub disk_bytes: u64,
}

/// The read surface transaction execution sees: point lookups of the
/// four entry kinds plus ordered book pages. Every layer a
/// [`crate::store::LedgerDelta`] can sit on implements it — a backend
/// or another delta — so a read-only layer never has to stub the
/// mutating half of a backend.
pub trait LedgerRead {
    /// Looks up an account.
    fn account(&self, id: AccountId) -> Option<AccountEntry>;
    /// Looks up a trustline.
    fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry>;
    /// Looks up an offer by id.
    fn offer(&self, id: u64) -> Option<OfferEntry>;
    /// Looks up a data entry.
    fn data(&self, id: AccountId, name: &str) -> Option<DataEntry>;

    /// Book positions for a pair strictly after `after`, best price
    /// first, ties by id, up to `limit`.
    fn book_page(
        &self,
        selling: &Asset,
        buying: &Asset,
        after: Option<BookCursor>,
        limit: usize,
    ) -> Vec<BookCursor>;
}

/// Storage backend for the ledger store: [`LedgerRead`] over the four
/// entry maps and the order-book index, plus put/delete/iterate.
pub trait LedgerBackend: LedgerRead {
    /// A short name for reports ("mem" / "disk").
    fn name(&self) -> &'static str;

    /// All trustlines of one account (Horizon's account view).
    fn trustlines_of(&self, id: AccountId) -> Vec<TrustLineEntry>;

    /// Applies a committed change feed: `Some` upserts, `None` deletes.
    /// The feed is the same one handed to the bucket list.
    fn apply(&mut self, feed: &[(LedgerKey, Option<LedgerEntry>)]);

    /// The next offer id to allocate.
    fn next_offer_id(&self) -> u64;
    /// Overwrites the offer-id allocator (commit / recovery).
    fn set_next_offer_id(&mut self, id: u64);

    /// Number of accounts.
    fn account_count(&self) -> usize;
    /// Number of open offers.
    fn offer_count(&self) -> usize;

    /// Every live entry: accounts, trustlines, offers, data — each kind
    /// in key order (snapshot hashing, bucket seeding).
    fn all_entries(&self) -> Vec<LedgerEntry>;

    /// Makes everything applied so far durable, tagged with the ledger
    /// it belongs to. Returns `false` if the disk sync failed (the data
    /// stays cached and is retried on the next flush). No-op in RAM.
    fn flush(&mut self, _ledger_seq: u64) -> bool {
        true
    }

    /// The data disk this backend writes to, if any — shared with the
    /// bucket list so spilled levels ride the same sync.
    fn disk(&self) -> Option<Rc<RefCell<DurableStore>>> {
        None
    }

    /// Lifetime I/O counters (telemetry).
    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats::default()
    }

    /// Approximate bytes of RAM the backend currently holds entries in.
    fn resident_bytes(&self) -> u64;

    /// Clones the backend behind the trait object.
    fn boxed_clone(&self) -> Box<dyn LedgerBackend>;
}

/// Approximate in-RAM weight of an entry, by kind, for resident-bytes
/// gauges: struct size plus typical map/allocation overhead. Precision is
/// not the point — trend and order of magnitude are.
pub fn approx_entry_bytes(key: &LedgerKey) -> u64 {
    match key {
        LedgerKey::Account(_) => 136,
        LedgerKey::TrustLine(..) => 112,
        LedgerKey::Offer(_) => 120,
        LedgerKey::Data(..) => 112,
    }
}

/// The original in-RAM backend: ordered maps, split-keyed so point reads
/// never build scratch tuple keys.
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    accounts: BTreeMap<AccountId, AccountEntry>,
    trustlines: BTreeMap<AccountId, BTreeMap<Asset, TrustLineEntry>>,
    offers: BTreeMap<u64, OfferEntry>,
    data: BTreeMap<AccountId, BTreeMap<String, DataEntry>>,
    /// Side index over `offers`, maintained by every offer mutation.
    book: BookIndex,
    next_offer_id: u64,
}

impl MemBackend {
    /// An empty backend.
    pub fn new() -> MemBackend {
        MemBackend {
            next_offer_id: 1,
            ..MemBackend::default()
        }
    }
}

impl LedgerRead for MemBackend {
    fn account(&self, id: AccountId) -> Option<AccountEntry> {
        self.accounts.get(&id).cloned()
    }

    fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry> {
        self.trustlines.get(&id)?.get(asset).cloned()
    }

    fn offer(&self, id: u64) -> Option<OfferEntry> {
        self.offers.get(&id).cloned()
    }

    fn data(&self, id: AccountId, name: &str) -> Option<DataEntry> {
        self.data.get(&id)?.get(name).cloned()
    }

    fn book_page(
        &self,
        selling: &Asset,
        buying: &Asset,
        after: Option<BookCursor>,
        limit: usize,
    ) -> Vec<BookCursor> {
        book_range(&self.book, selling, buying, after, limit)
    }
}

impl LedgerBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn trustlines_of(&self, id: AccountId) -> Vec<TrustLineEntry> {
        self.trustlines
            .get(&id)
            .map(|m| m.values().cloned().collect())
            .unwrap_or_default()
    }

    fn apply(&mut self, feed: &[(LedgerKey, Option<LedgerEntry>)]) {
        for (key, slot) in feed {
            match (key, slot) {
                (LedgerKey::Account(id), Some(LedgerEntry::Account(a))) => {
                    self.accounts.insert(*id, a.clone());
                }
                (LedgerKey::Account(id), None) => {
                    self.accounts.remove(id);
                }
                (LedgerKey::TrustLine(id, asset), Some(LedgerEntry::TrustLine(t))) => {
                    self.trustlines
                        .entry(*id)
                        .or_default()
                        .insert(asset.clone(), t.clone());
                }
                (LedgerKey::TrustLine(id, asset), None) => {
                    if let Some(m) = self.trustlines.get_mut(id) {
                        m.remove(asset);
                        if m.is_empty() {
                            self.trustlines.remove(id);
                        }
                    }
                }
                (LedgerKey::Offer(id), Some(LedgerEntry::Offer(o))) => {
                    let prev = self.offers.insert(*id, o.clone());
                    book_apply(&mut self.book, prev.as_ref(), Some(o));
                }
                (LedgerKey::Offer(id), None) => {
                    if let Some(prev) = self.offers.remove(id) {
                        book_apply(&mut self.book, Some(&prev), None);
                    }
                }
                (LedgerKey::Data(id, name), Some(LedgerEntry::Data(d))) => {
                    self.data
                        .entry(*id)
                        .or_default()
                        .insert(name.clone(), d.clone());
                }
                (LedgerKey::Data(id, name), None) => {
                    if let Some(m) = self.data.get_mut(id) {
                        m.remove(name);
                        if m.is_empty() {
                            self.data.remove(id);
                        }
                    }
                }
                // A key/value kind mismatch cannot be produced by commit.
                (key, Some(entry)) => {
                    debug_assert!(false, "mismatched feed item: {key:?} / {entry:?}")
                }
            }
        }
    }

    fn next_offer_id(&self) -> u64 {
        self.next_offer_id
    }

    fn set_next_offer_id(&mut self, id: u64) {
        self.next_offer_id = id;
    }

    fn account_count(&self) -> usize {
        self.accounts.len()
    }

    fn offer_count(&self) -> usize {
        self.offers.len()
    }

    fn all_entries(&self) -> Vec<LedgerEntry> {
        let mut out = Vec::new();
        out.extend(self.accounts.values().cloned().map(LedgerEntry::Account));
        out.extend(
            self.trustlines
                .values()
                .flat_map(BTreeMap::values)
                .cloned()
                .map(LedgerEntry::TrustLine),
        );
        out.extend(self.offers.values().cloned().map(LedgerEntry::Offer));
        out.extend(
            self.data
                .values()
                .flat_map(BTreeMap::values)
                .cloned()
                .map(LedgerEntry::Data),
        );
        out
    }

    fn resident_bytes(&self) -> u64 {
        let tls: usize = self.trustlines.values().map(BTreeMap::len).sum();
        let data: usize = self.data.values().map(BTreeMap::len).sum();
        self.accounts.len() as u64 * 136
            + tls as u64 * 112
            + self.offers.len() as u64 * 120
            + data as u64 * 112
    }

    fn boxed_clone(&self) -> Box<dyn LedgerBackend> {
        Box::new(self.clone())
    }
}
