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
    AccountEntry, AccountId, DataEntry, LedgerEntry, LedgerKey, OfferEntry, Signer, TrustLineEntry,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;
use std::ops::Bound;
use std::rc::Rc;
use stellar_crypto::heap;
use stellar_persist::DurableStore;

/// Position in a pair's book: `(price, offer id)` — the canonical
/// price-time-priority ordering (numeric price, ties by id).
pub type BookCursor = (Price, u64);

/// The order-book side index: selling asset → buying asset → positions.
pub type BookIndex = BTreeMap<Asset, BTreeMap<Asset, BTreeSet<BookCursor>>>;

/// Heap bytes of an order-book side index.
pub fn book_heap_bytes(book: &BookIndex) -> u64 {
    let sides: u64 = book
        .iter()
        .map(|(selling, by_buying)| {
            let books: u64 = by_buying
                .iter()
                .map(|(buying, cursors)| {
                    buying.heap_bytes() + heap::btree(cursors.len(), size_of::<BookCursor>())
                })
                .sum();
            let table = size_of::<(Asset, BTreeSet<BookCursor>)>();
            selling.heap_bytes() + heap::btree(by_buying.len(), table) + books
        })
        .sum();
    let table = size_of::<(Asset, BTreeMap<Asset, BTreeSet<BookCursor>>)>();
    heap::btree(book.len(), table) + sides
}

/// The book position of an offer — the one definition of book ordering
/// shared by the base index and every delta merge, so price/time priority
/// cannot drift between the two paths.
pub fn book_key(offer: &OfferEntry) -> BookCursor {
    (offer.price, offer.id)
}

fn index_insert(book: &mut BookIndex, offer: &OfferEntry) {
    // A pair already on the book takes the position without cloning
    // either asset.
    if let Some(set) = book
        .get_mut(&offer.selling)
        .and_then(|buys| buys.get_mut(&offer.buying))
    {
        set.insert(book_key(offer));
        return;
    }
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

    /// Every live entry in `LedgerKey` order — accounts, trustlines,
    /// offers, data — as a lazy walk over the backend's own tables, one
    /// entry at a time: a whole-state pass (snapshot hashing, bucket
    /// seeding, a disk genesis) never holds a second copy of the state.
    fn all_entries(&self) -> Box<dyn Iterator<Item = LedgerEntry> + '_>;

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

    /// Heap bytes the backend holds, estimated from its tables' lengths
    /// and the running totals `apply` keeps (`stellar_crypto::heap`), with
    /// no walk over the state: what the memory census counts and the
    /// resident-bytes gauges report each close.
    fn resident_bytes(&self) -> u64;

    /// Clones the backend behind the trait object.
    fn boxed_clone(&self) -> Box<dyn LedgerBackend>;
}

/// The original in-RAM backend: ordered maps, split-keyed so point reads
/// never build scratch tuple keys.
#[derive(Debug, Default)]
pub struct MemBackend {
    accounts: BTreeMap<AccountId, AccountEntry>,
    trustlines: BTreeMap<AccountId, BTreeMap<Asset, TrustLineEntry>>,
    offers: BTreeMap<u64, OfferEntry>,
    data: BTreeMap<AccountId, BTreeMap<String, DataEntry>>,
    /// Side index over `offers`, maintained by every offer mutation.
    book: BookIndex,
    next_offer_id: u64,
    /// [`MemBackend::entry_heap`], kept current by `apply`, so the
    /// per-close resident-bytes gauge costs no walk over the state.
    entry_heap: u64,
}

impl Clone for MemBackend {
    fn clone(&self) -> MemBackend {
        let mut copy = MemBackend {
            accounts: self.accounts.clone(),
            trustlines: self.trustlines.clone(),
            offers: self.offers.clone(),
            data: self.data.clone(),
            book: self.book.clone(),
            next_offer_id: self.next_offer_id,
            entry_heap: 0,
        };
        // A copied entry holds no spare capacity; count what it holds.
        copy.entry_heap = copy.entry_heap();
        copy
    }
}

/// Heap an account entry holds beyond its own size.
fn signers_heap(account: &AccountEntry) -> u64 {
    heap::array::<Signer>(account.signers.capacity())
}

/// Heap of one account's trustline map: its nodes, and the asset held
/// in each key and each line.
fn lines_heap(lines: &BTreeMap<Asset, TrustLineEntry>) -> u64 {
    let assets: u64 = lines
        .iter()
        .map(|(a, line)| a.heap_bytes() + line.asset.heap_bytes())
        .sum();
    heap::btree(lines.len(), size_of::<(Asset, TrustLineEntry)>()) + assets
}

/// Heap of an offer entry beyond its own size: its two assets.
fn offer_heap(offer: &OfferEntry) -> u64 {
    offer.selling.heap_bytes() + offer.buying.heap_bytes()
}

/// Heap of one account's data map: its nodes, and the name held in each
/// key and each entry, and each value.
fn data_heap(data: &BTreeMap<String, DataEntry>) -> u64 {
    let bytes: u64 = data
        .iter()
        .map(|(k, e)| (k.capacity() + e.name.capacity() + e.value.capacity()) as u64)
        .sum();
    heap::btree(data.len(), size_of::<(String, DataEntry)>()) + bytes
}

impl MemBackend {
    /// An empty backend.
    pub fn new() -> MemBackend {
        MemBackend {
            next_offer_id: 1,
            ..MemBackend::default()
        }
    }

    /// A backend holding `entries`, a later version of a key replacing an
    /// earlier one, with the offer-id allocator past the highest offer.
    /// Each map is bulk-built from its sorted run (`BTreeMap::from_iter`
    /// sorts stably, keeps the last of equal keys and fills every node),
    /// so a genesis or catch-up load costs one sort per kind, not one
    /// tree descent and split per entry.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = LedgerEntry>) -> MemBackend {
        let (mut accounts, mut lines, mut offers, mut data) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for entry in entries {
            match entry {
                LedgerEntry::Account(a) => accounts.push((a.id, a)),
                LedgerEntry::TrustLine(t) => lines.push(((t.account, t.asset.clone()), t)),
                LedgerEntry::Offer(o) => offers.push((o.id, o)),
                LedgerEntry::Data(d) => data.push(((d.account, d.name.clone()), d)),
            }
        }
        let offers: BTreeMap<u64, OfferEntry> = offers.into_iter().collect();
        let mut book = BookIndex::new();
        for offer in offers.values() {
            book_apply(&mut book, None, Some(offer));
        }
        let mut backend = MemBackend {
            accounts: accounts.into_iter().collect(),
            trustlines: nest(lines),
            next_offer_id: offers.keys().next_back().map_or(1, |id| id + 1),
            offers,
            data: nest(data),
            book,
            entry_heap: 0,
        };
        backend.entry_heap = backend.entry_heap();
        backend
    }

    /// Heap the entries hold beyond the four outer maps' nodes and the
    /// book: each entry's own heap, and each account's trustline and data
    /// maps whole. The definition the running `entry_heap` total keeps.
    fn entry_heap(&self) -> u64 {
        let accounts: u64 = self.accounts.values().map(signers_heap).sum();
        let lines: u64 = self.trustlines.values().map(lines_heap).sum();
        let offers: u64 = self.offers.values().map(offer_heap).sum();
        let data: u64 = self.data.values().map(data_heap).sum();
        accounts + lines + offers + data
    }
}

/// Per-account maps from `((account, key), value)` pairs: one stable
/// sort, then each account's run and the outer map bulk-built in order.
fn nest<K: Ord, V>(mut pairs: Vec<((AccountId, K), V)>) -> BTreeMap<AccountId, BTreeMap<K, V>> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut runs: Vec<(AccountId, Vec<(K, V)>)> = Vec::new();
    for ((account, key), value) in pairs {
        match runs.last_mut() {
            Some((last, run)) if *last == account => run.push((key, value)),
            _ => runs.push((account, vec![(key, value)])),
        }
    }
    runs.into_iter()
        .map(|(account, run)| (account, run.into_iter().collect()))
        .collect()
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
        // Each arm counts the copy it stores (a copy holds no spare
        // capacity), and adds that before taking off what it frees, so
        // the running total never underflows.
        for (key, slot) in feed {
            match (key, slot) {
                (LedgerKey::Account(id), Some(LedgerEntry::Account(a))) => {
                    let a = a.clone();
                    self.entry_heap += signers_heap(&a);
                    if let Some(old) = self.accounts.insert(*id, a) {
                        self.entry_heap -= signers_heap(&old);
                    }
                }
                (LedgerKey::Account(id), None) => {
                    if let Some(old) = self.accounts.remove(id) {
                        self.entry_heap -= signers_heap(&old);
                    }
                }
                (LedgerKey::TrustLine(id, asset), Some(LedgerEntry::TrustLine(t))) => {
                    let lines = self.trustlines.entry(*id).or_default();
                    let before = lines_heap(lines);
                    lines.insert(asset.clone(), t.clone());
                    self.entry_heap = self.entry_heap + lines_heap(lines) - before;
                }
                (LedgerKey::TrustLine(id, asset), None) => {
                    if let Some(m) = self.trustlines.get_mut(id) {
                        let before = lines_heap(m);
                        m.remove(asset);
                        self.entry_heap = self.entry_heap + lines_heap(m) - before;
                        if m.is_empty() {
                            self.trustlines.remove(id);
                        }
                    }
                }
                (LedgerKey::Offer(id), Some(LedgerEntry::Offer(o))) => {
                    let copy = o.clone();
                    self.entry_heap += offer_heap(&copy);
                    let prev = self.offers.insert(*id, copy);
                    book_apply(&mut self.book, prev.as_ref(), Some(o));
                    self.entry_heap -= prev.as_ref().map_or(0, offer_heap);
                }
                (LedgerKey::Offer(id), None) => {
                    if let Some(prev) = self.offers.remove(id) {
                        book_apply(&mut self.book, Some(&prev), None);
                        self.entry_heap -= offer_heap(&prev);
                    }
                }
                (LedgerKey::Data(id, name), Some(LedgerEntry::Data(d))) => {
                    let data = self.data.entry(*id).or_default();
                    let before = data_heap(data);
                    data.insert(name.clone(), d.clone());
                    self.entry_heap = self.entry_heap + data_heap(data) - before;
                }
                (LedgerKey::Data(id, name), None) => {
                    if let Some(m) = self.data.get_mut(id) {
                        let before = data_heap(m);
                        m.remove(name);
                        self.entry_heap = self.entry_heap + data_heap(m) - before;
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

    fn all_entries(&self) -> Box<dyn Iterator<Item = LedgerEntry> + '_> {
        let accounts = self.accounts.values().cloned().map(LedgerEntry::Account);
        let lines = self.trustlines.values().flat_map(BTreeMap::values);
        let offers = self.offers.values().cloned().map(LedgerEntry::Offer);
        let data = self.data.values().flat_map(BTreeMap::values);
        Box::new(
            accounts
                .chain(lines.cloned().map(LedgerEntry::TrustLine))
                .chain(offers)
                .chain(data.cloned().map(LedgerEntry::Data)),
        )
    }

    fn resident_bytes(&self) -> u64 {
        heap::btree(self.accounts.len(), size_of::<(AccountId, AccountEntry)>())
            + heap::btree(
                self.trustlines.len(),
                size_of::<(AccountId, BTreeMap<Asset, TrustLineEntry>)>(),
            )
            + heap::btree(self.offers.len(), size_of::<(u64, OfferEntry)>())
            + heap::btree(
                self.data.len(),
                size_of::<(AccountId, BTreeMap<String, DataEntry>)>(),
            )
            + self.entry_heap
            + book_heap_bytes(&self.book)
    }

    fn boxed_clone(&self) -> Box<dyn LedgerBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    /// A feed item over a small key space of every kind: `op` picks the
    /// kind and whether it deletes, `n` the key, `v` the contents (and
    /// how much heap the entry holds).
    fn item(op: u8, n: u64, v: u8) -> (LedgerKey, Option<LedgerEntry>) {
        let asset = Asset::issued(acct(9), ["USD", "EURO", "MXNX"][n as usize % 3]);
        let entry = match op % 4 {
            0 => {
                let mut a = AccountEntry::new(acct(n), i64::from(v));
                // Pushed one by one, as an operation adds signers: the
                // feed's vector may hold spare capacity the stored copy
                // does not.
                for w in 0..v % 3 {
                    a.signers.push(Signer::key(PublicKey(u64::from(w)), 1));
                }
                LedgerEntry::Account(a)
            }
            1 => LedgerEntry::TrustLine(TrustLineEntry {
                account: acct(n % 4),
                asset,
                balance: i64::from(v),
                limit: 1000,
                authorized: true,
            }),
            2 => LedgerEntry::Offer(OfferEntry {
                id: n,
                account: acct(1),
                selling: Asset::Native,
                buying: asset,
                amount: i64::from(v) + 1,
                price: Price::new(1, u32::from(v) + 1),
                passive: false,
            }),
            _ => LedgerEntry::Data(DataEntry {
                account: acct(n % 4),
                name: format!("k{}", n % 3),
                value: vec![v; usize::from(v % 5)],
            }),
        };
        (entry.key(), (op < 4).then_some(entry))
    }

    proptest! {
        /// The running heap total `apply` keeps equals a walk over the
        /// maps, from a bulk-built start, through puts and deletes of
        /// every kind, and in a clone.
        #[test]
        fn the_running_heap_total_equals_a_walk(
            genesis in proptest::collection::vec((0u8..4, 0u64..8, any::<u8>()), 0..24),
            feeds in proptest::collection::vec(
                proptest::collection::vec((0u8..8, 0u64..8, any::<u8>()), 0..12),
                1..6),
        ) {
            let entries = genesis.iter().filter_map(|&(op, n, v)| item(op, n, v).1);
            let mut b = MemBackend::from_entries(entries);
            prop_assert_eq!(b.entry_heap, b.entry_heap());
            for feed in &feeds {
                let feed: Vec<_> = feed.iter().map(|&(op, n, v)| item(op, n, v)).collect();
                b.apply(&feed);
                prop_assert_eq!(b.entry_heap, b.entry_heap());
            }
            let copy = b.clone();
            prop_assert_eq!(copy.entry_heap, copy.entry_heap());
        }
    }
}
