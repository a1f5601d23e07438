//! The ledger entry store and its scratch overlay.
//!
//! Production `stellar-core` keeps the ledger in a SQL database; this
//! reproduction substitutes a pluggable [`LedgerBackend`] behind the same
//! read/modify interface (see `DESIGN.md`): in-RAM ordered maps by
//! default, a log-structured disk store via `crates/store`. The important
//! structural property is shared: transactions execute against a
//! [`LedgerDelta`] overlay that is either *committed* into the base store
//! or discarded — which is how "transactions are atomic: if any operation
//! fails, none of them execute" (§5.2) is implemented.
//!
//! There is one overlay type and it layers. A delta holds only its own
//! writes and reads through to whatever [`LedgerRead`] it sits on — the
//! backend, or another delta. The close applies a whole transaction set
//! to one delta over the backend; each transaction runs its operations
//! in a [`fork`](LedgerDelta::fork) of that delta and, on success, moves
//! its writes down with [`absorb`](LedgerDelta::absorb). Both cost what
//! the transaction touched, never what the close has accumulated. Depth
//! is bounded by construction: transaction fork → close delta → backend,
//! one deeper for `quote_path`'s dry run.
//!
//! The store also tracks, per ledger close, which entries changed; that
//! change feed drives both the backend and the bucket list in
//! `stellar-buckets` (one feed, two consumers).
//!
//! Two hot-path choices matter for close throughput:
//!
//! * **Split keying.** Trustlines and data entries are keyed by nested
//!   maps (`account → asset → entry`), not by `(AccountId, Asset)` tuples,
//!   so point reads never clone an `Asset` or build a scratch `String`
//!   just to form a lookup key.
//! * **Order-book index.** Backends maintain a side index
//!   `selling → buying → {(price, offer id)}` kept in lockstep with the
//!   offer map at commit time. `offers_for_pair` walks the index in order
//!   — O(log n + k) for k results — instead of scanning and sorting every
//!   live offer; the matching engine pages through it lazily so a deep
//!   book costs only what it fills.

use crate::asset::Asset;
use crate::backend::{LedgerBackend, LedgerRead, MemBackend, StoreIoStats};
use crate::entry::{
    AccountEntry, AccountId, DataEntry, LedgerEntry, LedgerKey, OfferEntry, TrustLineEntry,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use stellar_persist::DurableStore;

pub use crate::backend::{book_key, BookCursor};

/// The base ledger state: all live entries, behind a pluggable backend.
pub struct LedgerStore {
    backend: Box<dyn LedgerBackend>,
}

impl Clone for LedgerStore {
    fn clone(&self) -> LedgerStore {
        LedgerStore {
            backend: self.backend.boxed_clone(),
        }
    }
}

impl std::fmt::Debug for LedgerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerStore")
            .field("backend", &self.backend.name())
            .field("accounts", &self.backend.account_count())
            .field("offers", &self.backend.offer_count())
            .finish()
    }
}

impl Default for LedgerStore {
    fn default() -> Self {
        LedgerStore::new()
    }
}

impl LedgerStore {
    /// An empty store over the in-RAM backend.
    pub fn new() -> LedgerStore {
        LedgerStore::with_backend(Box::new(MemBackend::new()))
    }

    /// A store over an explicit backend (the one constructor `sim`,
    /// `herder`, and `horizon` thread the backend choice through).
    pub fn with_backend(backend: Box<dyn LedgerBackend>) -> LedgerStore {
        LedgerStore { backend }
    }

    /// The backend's short name ("mem" / "disk").
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The next offer id the allocator will hand out.
    pub fn next_offer_id(&self) -> u64 {
        self.backend.next_offer_id()
    }

    /// Number of accounts.
    pub fn account_count(&self) -> usize {
        self.backend.account_count()
    }

    /// Number of open offers.
    pub fn offer_count(&self) -> usize {
        self.backend.offer_count()
    }

    /// Looks up an account.
    pub fn account(&self, id: AccountId) -> Option<AccountEntry> {
        self.backend.account(id)
    }

    /// Looks up a trustline.
    pub fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry> {
        self.backend.trustline(id, asset)
    }

    /// Looks up an offer by id.
    pub fn offer(&self, id: u64) -> Option<OfferEntry> {
        self.backend.offer(id)
    }

    /// Looks up a data entry.
    pub fn data(&self, id: AccountId, name: &str) -> Option<DataEntry> {
        self.backend.data(id, name)
    }

    /// All trustlines of one account (Horizon's account view).
    pub fn trustlines_of(&self, id: AccountId) -> Vec<TrustLineEntry> {
        self.backend.trustlines_of(id)
    }

    /// Every live offer, in id order (naive-scan reference for tests).
    pub fn offers(&self) -> Vec<OfferEntry> {
        self.backend
            .all_entries()
            .into_iter()
            .filter_map(|e| match e {
                LedgerEntry::Offer(o) => Some(o),
                _ => None,
            })
            .collect()
    }

    /// All offers selling `selling` for `buying`, best (lowest) price
    /// first, ties by offer id (time priority). Served from the book
    /// index: O(log n + k), already in order.
    pub fn offers_for_pair(&self, selling: &Asset, buying: &Asset) -> Vec<OfferEntry> {
        self.backend
            .book_page(selling, buying, None, usize::MAX)
            .into_iter()
            .map(|(_, id)| self.backend.offer(id).expect("indexed offer exists"))
            .collect()
    }

    /// Directly inserts an account (genesis / test setup).
    pub fn put_account(&mut self, account: AccountEntry) {
        let key = LedgerKey::Account(account.id);
        self.backend
            .apply(&[(key, Some(LedgerEntry::Account(account)))]);
    }

    /// Directly inserts a trustline (genesis / test setup).
    pub fn put_trustline(&mut self, tl: TrustLineEntry) {
        let key = LedgerKey::TrustLine(tl.account, tl.asset.clone());
        self.backend
            .apply(&[(key, Some(LedgerEntry::TrustLine(tl)))]);
    }

    /// Iterates over every live entry (snapshot hashing, bucket seeding).
    pub fn all_entries(&self) -> impl Iterator<Item = LedgerEntry> {
        self.backend.all_entries().into_iter()
    }

    /// Rebuilds a store (in-RAM backend) from a flat entry dump
    /// (bucket-list catch-up), bumping the offer-id allocator past any
    /// loaded offer. Entries go in 8 192 at a time, so no second copy of
    /// the whole dump is ever held.
    pub fn from_entries(entries: impl IntoIterator<Item = LedgerEntry>) -> LedgerStore {
        const CHUNK: usize = 8192;
        let mut store = LedgerStore::new();
        let mut next_offer_id = store.backend.next_offer_id();
        let mut batch = Vec::with_capacity(CHUNK);
        for e in entries {
            if let LedgerEntry::Offer(o) = &e {
                next_offer_id = next_offer_id.max(o.id + 1);
            }
            batch.push((e.key(), Some(e)));
            if batch.len() >= CHUNK {
                store.backend.apply(&batch);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            store.backend.apply(&batch);
        }
        store.backend.set_next_offer_id(next_offer_id);
        store
    }

    /// Makes all committed state durable (disk backends). `true` in RAM.
    pub fn flush(&mut self, ledger_seq: u64) -> bool {
        self.backend.flush(ledger_seq)
    }

    /// The data disk the backend writes to, if any.
    pub fn disk(&self) -> Option<Rc<RefCell<DurableStore>>> {
        self.backend.disk()
    }

    /// Backend I/O counters (telemetry).
    pub fn io_stats(&self) -> StoreIoStats {
        self.backend.io_stats()
    }

    /// Approximate bytes of RAM the backend holds entries in.
    pub fn resident_bytes(&self) -> u64 {
        self.backend.resident_bytes()
    }

    /// Starts a delta (scratch overlay) over this store.
    pub fn begin(&self) -> LedgerDelta<'_> {
        LedgerDelta::over(self.backend.as_ref(), self.backend.next_offer_id())
    }

    /// Applies a committed delta's changes, returning the change feed for
    /// the bucket list: `(key, Some(entry))` for creates/updates,
    /// `(key, None)` for deletions.
    ///
    /// Entries are *moved* out of the delta into the feed (not cloned):
    /// the feed is built once and shared by the backend and the bucket
    /// list, so memoized encodings stay warm and a disk backend can
    /// serialize straight from it.
    pub fn commit(&mut self, changes: DeltaChanges) -> Vec<(LedgerKey, Option<LedgerEntry>)> {
        let mut feed = Vec::new();
        for (id, slot) in changes.accounts {
            feed.push((LedgerKey::Account(id), slot.map(LedgerEntry::Account)));
        }
        for (id, by_asset) in changes.trustlines {
            for (asset, slot) in by_asset {
                feed.push((
                    LedgerKey::TrustLine(id, asset),
                    slot.map(LedgerEntry::TrustLine),
                ));
            }
        }
        for (id, slot) in changes.offers {
            feed.push((LedgerKey::Offer(id), slot.map(LedgerEntry::Offer)));
        }
        for (id, by_name) in changes.data {
            for (name, slot) in by_name {
                feed.push((LedgerKey::Data(id, name), slot.map(LedgerEntry::Data)));
            }
        }
        self.backend.apply(&feed);
        self.backend.set_next_offer_id(changes.next_offer_id);
        feed
    }
}

/// The owned changes extracted from a delta: what that one layer wrote,
/// nothing inherited from the layers below it.
#[derive(Debug, Default)]
pub struct DeltaChanges {
    accounts: BTreeMap<AccountId, Option<AccountEntry>>,
    trustlines: BTreeMap<AccountId, BTreeMap<Asset, Option<TrustLineEntry>>>,
    offers: BTreeMap<u64, Option<OfferEntry>>,
    data: BTreeMap<AccountId, BTreeMap<String, Option<DataEntry>>>,
    next_offer_id: u64,
}

/// A scratch overlay over any [`LedgerRead`]: a backend or another delta.
///
/// Reads fall through to the layer below; writes land in this layer.
/// `None` in an overlay slot means "deleted". Dropping the delta discards
/// its writes; [`LedgerDelta::into_changes`] extracts them for
/// [`LedgerStore::commit`] or a parent's [`LedgerDelta::absorb`].
pub struct LedgerDelta<'a> {
    base: &'a dyn LedgerRead,
    changes: DeltaChanges,
}

impl<'a> LedgerDelta<'a> {
    /// Starts an empty delta over `base`, allocating offer ids from
    /// `next_offer_id`.
    fn over(base: &'a dyn LedgerRead, next_offer_id: u64) -> LedgerDelta<'a> {
        LedgerDelta {
            base,
            changes: DeltaChanges {
                next_offer_id,
                ..DeltaChanges::default()
            },
        }
    }
}

impl LedgerRead for LedgerDelta<'_> {
    fn account(&self, id: AccountId) -> Option<AccountEntry> {
        match self.changes.accounts.get(&id) {
            Some(slot) => slot.clone(),
            None => self.base.account(id),
        }
    }

    fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry> {
        match self.changes.trustlines.get(&id).and_then(|m| m.get(asset)) {
            Some(slot) => slot.clone(),
            None => self.base.trustline(id, asset),
        }
    }

    fn offer(&self, id: u64) -> Option<OfferEntry> {
        match self.changes.offers.get(&id) {
            Some(slot) => slot.clone(),
            None => self.base.offer(id),
        }
    }

    fn data(&self, id: AccountId, name: &str) -> Option<DataEntry> {
        match self.changes.data.get(&id).and_then(|m| m.get(name)) {
            Some(slot) => slot.clone(),
            None => self.base.data(id, name),
        }
    }

    /// The one overlay-over-lower-layer book merge. The lower layer pages
    /// in bounded chunks (so a disk backend, or a deeper delta, produces
    /// only what the merge consumes), this layer contributes the offers
    /// it wrote, and both sides order by [`book_key`] so the merged order
    /// cannot diverge from the backend's index.
    fn book_page(
        &self,
        selling: &Asset,
        buying: &Asset,
        after: Option<BookCursor>,
        limit: usize,
    ) -> Vec<BookCursor> {
        const CHUNK: usize = 64;
        let offers = &self.changes.offers;
        let mut overlay: Vec<BookCursor> = offers
            .values()
            .filter_map(Option::as_ref)
            .filter(|o| &o.selling == selling && &o.buying == buying)
            .map(book_key)
            .filter(|k| after.is_none_or(|cursor| *k > cursor))
            .collect();
        overlay.sort_unstable();
        let mut overlay = overlay.into_iter().peekable();

        let mut lower: VecDeque<BookCursor> = VecDeque::new();
        let mut lower_cursor = after;
        let mut lower_done = false;
        let mut out = Vec::new();
        while out.len() < limit {
            // Refill from below, skipping ids this layer has a slot for
            // (updated, deleted, or merely re-written): it owns those.
            while lower.is_empty() && !lower_done {
                let chunk = self.base.book_page(selling, buying, lower_cursor, CHUNK);
                if chunk.len() < CHUNK {
                    lower_done = true;
                }
                if let Some(&last) = chunk.last() {
                    lower_cursor = Some(last);
                }
                lower.extend(chunk.into_iter().filter(|(_, id)| !offers.contains_key(id)));
            }
            let next = match (lower.front().copied(), overlay.peek().copied()) {
                (None, None) => break,
                (Some(lk), Some(ok)) if ok < lk => overlay.next(),
                (None, Some(_)) => overlay.next(),
                (Some(_), _) => lower.pop_front(),
            };
            out.extend(next);
        }
        out
    }
}

impl LedgerDelta<'_> {
    /// Looks up an account through the overlay.
    pub fn account(&self, id: AccountId) -> Option<AccountEntry> {
        LedgerRead::account(self, id)
    }

    /// Writes an account.
    pub fn put_account(&mut self, account: AccountEntry) {
        self.changes.accounts.insert(account.id, Some(account));
    }

    /// Deletes an account.
    pub fn delete_account(&mut self, id: AccountId) {
        self.changes.accounts.insert(id, None);
    }

    /// Looks up a trustline through the overlay.
    pub fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry> {
        LedgerRead::trustline(self, id, asset)
    }

    /// Writes a trustline.
    pub fn put_trustline(&mut self, tl: TrustLineEntry) {
        self.changes
            .trustlines
            .entry(tl.account)
            .or_default()
            .insert(tl.asset.clone(), Some(tl));
    }

    /// Deletes a trustline.
    pub fn delete_trustline(&mut self, id: AccountId, asset: &Asset) {
        self.changes
            .trustlines
            .entry(id)
            .or_default()
            .insert(asset.clone(), None);
    }

    /// Looks up an offer through the overlay.
    pub fn offer(&self, id: u64) -> Option<OfferEntry> {
        LedgerRead::offer(self, id)
    }

    /// Writes an offer.
    pub fn put_offer(&mut self, offer: OfferEntry) {
        self.changes.offers.insert(offer.id, Some(offer));
    }

    /// Deletes an offer.
    pub fn delete_offer(&mut self, id: u64) {
        self.changes.offers.insert(id, None);
    }

    /// Allocates a fresh ledger-unique offer id.
    pub fn allocate_offer_id(&mut self) -> u64 {
        let id = self.changes.next_offer_id;
        self.changes.next_offer_id += 1;
        id
    }

    /// Looks up a data entry through the overlay.
    pub fn data(&self, id: AccountId, name: &str) -> Option<DataEntry> {
        LedgerRead::data(self, id, name)
    }

    /// Writes a data entry.
    pub fn put_data(&mut self, entry: DataEntry) {
        self.changes
            .data
            .entry(entry.account)
            .or_default()
            .insert(entry.name.clone(), Some(entry));
    }

    /// Deletes a data entry.
    pub fn delete_data(&mut self, id: AccountId, name: &str) {
        self.changes
            .data
            .entry(id)
            .or_default()
            .insert(name.to_string(), None);
    }

    /// Offers for a pair, merged through every layer, best price first.
    pub fn offers_for_pair(&self, selling: &Asset, buying: &Asset) -> Vec<OfferEntry> {
        self.offers_page(selling, buying, None, usize::MAX)
    }

    /// Up to `limit` offers for a pair strictly after `after` in book
    /// order (best price first, ties by id) — the matching engine's lazy
    /// view of the book: [`LedgerRead::book_page`] for the positions,
    /// then one point read per offer actually returned.
    pub fn offers_page(
        &self,
        selling: &Asset,
        buying: &Asset,
        after: Option<BookCursor>,
        limit: usize,
    ) -> Vec<OfferEntry> {
        self.book_page(selling, buying, after, limit)
            .into_iter()
            .map(|(_, id)| self.offer(id).expect("indexed offer exists"))
            .collect()
    }

    /// Extracts this layer's writes, for commit or a parent's `absorb`.
    pub fn into_changes(self) -> DeltaChanges {
        self.changes
    }

    /// Moves a child's writes into this layer, newest wins.
    pub fn absorb(&mut self, child: DeltaChanges) {
        let own = &mut self.changes;
        own.accounts.extend(child.accounts);
        for (id, by_asset) in child.trustlines {
            own.trustlines.entry(id).or_default().extend(by_asset);
        }
        own.offers.extend(child.offers);
        for (id, by_name) in child.data {
            own.data.entry(id).or_default().extend(by_name);
        }
        own.next_offer_id = own.next_offer_id.max(child.next_offer_id);
    }

    /// Starts a nested scratch delta: empty, reading through `self`, and
    /// continuing its offer-id allocator. Drop it to roll back, or
    /// [`absorb`](LedgerDelta::absorb) its changes to keep them. The
    /// borrow freezes `self` for as long as the fork lives.
    pub fn fork(&self) -> LedgerDelta<'_> {
        LedgerDelta::over(self, self.changes.next_offer_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Price;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    #[test]
    fn delta_reads_fall_through() {
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(1), 100));
        let delta = store.begin();
        assert_eq!(delta.account(acct(1)).unwrap().balance, 100);
        assert!(delta.account(acct(2)).is_none());
    }

    #[test]
    fn delta_writes_do_not_touch_base_until_commit() {
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(1), 100));
        let mut delta = store.begin();
        let mut a = delta.account(acct(1)).unwrap();
        a.balance = 50;
        delta.put_account(a);
        assert_eq!(delta.account(acct(1)).unwrap().balance, 50);
        assert_eq!(store.account(acct(1)).unwrap().balance, 100);
        let changes = delta.into_changes();
        store.commit(changes);
        assert_eq!(store.account(acct(1)).unwrap().balance, 50);
    }

    #[test]
    fn dropping_delta_discards() {
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(1), 100));
        {
            let mut delta = store.begin();
            delta.delete_account(acct(1));
            assert!(delta.account(acct(1)).is_none());
        }
        assert!(store.account(acct(1)).is_some());
    }

    #[test]
    fn delete_shadows_base() {
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(1), 100));
        let mut delta = store.begin();
        delta.delete_account(acct(1));
        let changes = delta.into_changes();
        let feed = store.commit(changes);
        assert!(store.account(acct(1)).is_none());
        assert!(feed
            .iter()
            .any(|(k, v)| matches!(k, LedgerKey::Account(_)) && v.is_none()));
    }

    #[test]
    fn offer_ids_are_unique_across_commit() {
        let mut store = LedgerStore::new();
        let mut delta = store.begin();
        let id1 = delta.allocate_offer_id();
        let id2 = delta.allocate_offer_id();
        assert_ne!(id1, id2);
        let changes = delta.into_changes();
        store.commit(changes);
        let mut delta2 = store.begin();
        let id3 = delta2.allocate_offer_id();
        assert!(id3 > id2);
    }

    #[test]
    fn offers_for_pair_sorted_by_price_then_id() {
        let mut store = LedgerStore::new();
        let usd = Asset::issued(acct(9), "USD");
        let mk = |id: u64, n: u32| OfferEntry {
            id,
            account: acct(1),
            selling: Asset::Native,
            buying: usd.clone(),
            amount: 10,
            price: Price::new(n, 2),
            passive: false,
        };
        let mut delta = store.begin();
        delta.put_offer(mk(2, 3));
        delta.put_offer(mk(1, 3));
        delta.put_offer(mk(3, 1));
        let changes = delta.into_changes();
        store.commit(changes);
        let book = store.offers_for_pair(&Asset::Native, &usd);
        assert_eq!(book.iter().map(|o| o.id).collect::<Vec<_>>(), vec![3, 1, 2]);
    }

    #[test]
    fn book_index_tracks_updates_and_deletes() {
        let mut store = LedgerStore::new();
        let usd = Asset::issued(acct(9), "USD");
        let mk = |id: u64, n: u32| OfferEntry {
            id,
            account: acct(1),
            selling: Asset::Native,
            buying: usd.clone(),
            amount: 10,
            price: Price::new(n, 1),
            passive: false,
        };
        let mut d = store.begin();
        d.put_offer(mk(1, 5));
        d.put_offer(mk(2, 2));
        store.commit(d.into_changes());
        assert_eq!(
            store
                .offers_for_pair(&Asset::Native, &usd)
                .iter()
                .map(|o| o.id)
                .collect::<Vec<_>>(),
            vec![2, 1]
        );
        // Reprice offer 1 below offer 2, delete offer 2.
        let mut d = store.begin();
        d.put_offer(mk(1, 1));
        d.delete_offer(2);
        store.commit(d.into_changes());
        let book = store.offers_for_pair(&Asset::Native, &usd);
        assert_eq!(book.iter().map(|o| o.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(book[0].price, Price::new(1, 1));
        // No stale index entries: a fresh delta sees exactly one offer.
        let delta = store.begin();
        assert_eq!(delta.offers_for_pair(&Asset::Native, &usd).len(), 1);
    }

    #[test]
    fn delta_pages_merge_overlay_and_base_in_book_order() {
        let mut store = LedgerStore::new();
        let usd = Asset::issued(acct(9), "USD");
        let mk = |id: u64, n: u32| OfferEntry {
            id,
            account: acct(1),
            selling: Asset::Native,
            buying: usd.clone(),
            amount: 10,
            price: Price::new(n, 1),
            passive: false,
        };
        let mut d = store.begin();
        d.put_offer(mk(1, 2));
        d.put_offer(mk(2, 4));
        d.put_offer(mk(3, 6));
        store.commit(d.into_changes());
        let mut delta = store.begin();
        delta.put_offer(mk(4, 3)); // overlay insert between base offers
        delta.put_offer(mk(2, 5)); // overlay reprice of a base offer
        delta.delete_offer(3); // overlay delete of a base offer
        let ids: Vec<u64> = delta
            .offers_for_pair(&Asset::Native, &usd)
            .iter()
            .map(|o| o.id)
            .collect();
        assert_eq!(ids, vec![1, 4, 2]);
        // Paging: first page of 2, then the rest from a cursor.
        let page1 = delta.offers_page(&Asset::Native, &usd, None, 2);
        assert_eq!(page1.iter().map(|o| o.id).collect::<Vec<_>>(), vec![1, 4]);
        let cursor = book_key(page1.last().unwrap());
        let page2 = delta.offers_page(&Asset::Native, &usd, Some(cursor), 2);
        assert_eq!(page2.iter().map(|o| o.id).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn fork_and_absorb() {
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(1), 100));
        let mut outer = store.begin();
        let mut inner = outer.fork();
        let mut a = inner.account(acct(1)).unwrap();
        a.balance = 42;
        inner.put_account(a);
        outer.absorb(inner.into_changes());
        assert_eq!(outer.account(acct(1)).unwrap().balance, 42);
    }

    fn change_count(c: &DeltaChanges) -> usize {
        c.accounts.len()
            + c.trustlines.values().map(BTreeMap::len).sum::<usize>()
            + c.offers.len()
            + c.data.values().map(BTreeMap::len).sum::<usize>()
    }

    fn offer(id: u64, price: u32, usd: &Asset) -> OfferEntry {
        OfferEntry {
            id,
            account: acct(1),
            selling: Asset::Native,
            buying: usd.clone(),
            amount: 10,
            price: Price::new(price, 1),
            passive: false,
        }
    }

    /// The per-transaction cost of a fork must not depend on how much the
    /// close has already written: a fork carries only its own writes.
    #[test]
    fn fork_starts_empty_however_much_the_parent_holds() {
        let store = LedgerStore::new();
        let mut outer = store.begin();
        for n in 0..100 {
            outer.put_account(AccountEntry::new(acct(n), 1));
        }
        assert_eq!(change_count(&outer.fork().into_changes()), 0);
        let mut inner = outer.fork();
        inner.put_account(AccountEntry::new(acct(7), 2));
        assert_eq!(change_count(&inner.into_changes()), 1);
    }

    #[test]
    fn dropping_a_fork_leaves_the_parent_untouched() {
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(1), 100));
        let mut outer = store.begin();
        outer.put_account(AccountEntry::new(acct(2), 5));
        {
            let mut inner = outer.fork();
            inner.delete_account(acct(1));
            inner.put_account(AccountEntry::new(acct(2), 6));
            inner.allocate_offer_id();
            assert!(inner.account(acct(1)).is_none());
        }
        assert_eq!(outer.account(acct(1)).unwrap().balance, 100);
        assert_eq!(outer.account(acct(2)).unwrap().balance, 5);
        assert_eq!(change_count(&outer.into_changes()), 1);
    }

    #[test]
    fn child_delete_shadows_parent_put_and_base_entry() {
        let mut store = LedgerStore::new();
        let usd = Asset::issued(acct(9), "USD");
        store.put_account(AccountEntry::new(acct(1), 100)); // base entry
        let mut d = store.begin();
        d.put_offer(offer(1, 2, &usd));
        store.commit(d.into_changes()); // base offer
        let mut outer = store.begin();
        outer.put_account(AccountEntry::new(acct(2), 5)); // parent put
        outer.put_offer(offer(2, 3, &usd));
        let mut inner = outer.fork();
        inner.delete_account(acct(1));
        inner.delete_account(acct(2));
        inner.delete_offer(1);
        inner.delete_offer(2);
        assert!(inner.account(acct(1)).is_none());
        assert!(inner.account(acct(2)).is_none());
        assert!(inner.offer(1).is_none() && inner.offer(2).is_none());
        assert!(inner.offers_for_pair(&Asset::Native, &usd).is_empty());
        // The parent still sees both until it absorbs the deletes.
        assert_eq!(outer.offers_for_pair(&Asset::Native, &usd).len(), 2);
    }

    #[test]
    fn child_reprice_of_base_offer_lists_it_once_at_the_new_position() {
        let mut store = LedgerStore::new();
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        d.put_offer(offer(1, 2, &usd));
        d.put_offer(offer(2, 4, &usd));
        store.commit(d.into_changes());
        let mut outer = store.begin();
        outer.put_offer(offer(3, 3, &usd)); // parent insert between them
        let mut inner = outer.fork();
        inner.put_offer(offer(1, 5, &usd)); // base offer 1: best -> worst
        let book = inner.offers_for_pair(&Asset::Native, &usd);
        assert_eq!(book.iter().map(|o| o.id).collect::<Vec<_>>(), vec![3, 2, 1]);
        assert_eq!(book[2].price, Price::new(5, 1));
        // Paging from a cursor past the offer's *old* position must not
        // resurrect it there.
        let page = inner.offers_page(&Asset::Native, &usd, Some((Price::new(2, 1), 0)), 1);
        assert_eq!(page[0].id, 3);
    }

    #[test]
    fn offer_id_allocation_continues_across_fork_and_absorb() {
        let store = LedgerStore::new();
        let mut outer = store.begin();
        let a = outer.allocate_offer_id();
        let mut inner = outer.fork();
        let b = inner.allocate_offer_id();
        let c = inner.allocate_offer_id();
        outer.absorb(inner.into_changes());
        let d = outer.allocate_offer_id();
        assert_eq!([b, c, d], [a + 1, a + 2, a + 3]);
        // A discarded fork's allocations are handed out again.
        let e = outer.fork().allocate_offer_id();
        assert_eq!(e, outer.allocate_offer_id());
    }

    #[test]
    fn change_feed_reports_all_mutations() {
        let mut store = LedgerStore::new();
        let mut delta = store.begin();
        delta.put_account(AccountEntry::new(acct(1), 7));
        delta.put_data(DataEntry {
            account: acct(1),
            name: "k".into(),
            value: vec![1],
        });
        let feed = store.commit(delta.into_changes());
        assert_eq!(feed.len(), 2);
    }

    #[test]
    fn trustline_and_data_roundtrip_through_delta() {
        let mut store = LedgerStore::new();
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        d.put_trustline(TrustLineEntry {
            account: acct(1),
            asset: usd.clone(),
            balance: 5,
            limit: 100,
            authorized: true,
        });
        d.put_data(DataEntry {
            account: acct(1),
            name: "k1".into(),
            value: vec![9],
        });
        store.commit(d.into_changes());
        assert_eq!(store.trustline(acct(1), &usd).unwrap().balance, 5);
        assert_eq!(store.data(acct(1), "k1").unwrap().value, vec![9]);
        assert_eq!(store.trustlines_of(acct(1)).len(), 1);
        // Delete through a delta; the nested maps must clean up fully.
        let mut d = store.begin();
        d.delete_trustline(acct(1), &usd);
        d.delete_data(acct(1), "k1");
        let feed = store.commit(d.into_changes());
        assert_eq!(feed.len(), 2);
        assert!(store.trustline(acct(1), &usd).is_none());
        assert!(store.data(acct(1), "k1").is_none());
        assert_eq!(store.all_entries().count(), 0);
    }

    #[test]
    fn from_entries_restores_offer_allocator() {
        let usd = Asset::issued(acct(9), "USD");
        let store = LedgerStore::from_entries(vec![
            LedgerEntry::Account(AccountEntry::new(acct(1), 10)),
            LedgerEntry::Offer(OfferEntry {
                id: 41,
                account: acct(1),
                selling: Asset::Native,
                buying: usd.clone(),
                amount: 1,
                price: Price::new(1, 1),
                passive: false,
            }),
        ]);
        let mut d = store.begin();
        assert_eq!(d.allocate_offer_id(), 42);
        assert_eq!(store.offers_for_pair(&Asset::Native, &usd).len(), 1);
    }
}
