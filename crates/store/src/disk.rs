//! The log-structured disk backend.
//!
//! Layout on the data disk (one [`DurableStore`]):
//!
//! * `seg/<n>` — immutable segment files: a concatenation of records
//!   `tag(u8) ‖ key ‖ [entry]` where tag 0 is a live entry and tag 1 a
//!   tombstone. Segment ids are monotonic and never reused, so scanning
//!   segments in id order replays history oldest-first.
//! * `store/meta` — the manifest: ledger sequence of the last durable
//!   flush, the offer-id allocator, the next segment id, and the list of
//!   live segments. A flush stages its new segments *and* the manifest
//!   and syncs once, so the manifest never references a segment the same
//!   sync did not land (the simulated disk drains staged writes in order
//!   and atomically per sync).
//!
//! In RAM the backend keeps a sparse index `key → (segment, offset,
//! len)` — a few dozen bytes per entry instead of the whole entry — plus
//! a bounded **write-back cache**: per-close deltas stay dirty (pinned)
//! until `flush`, clean read results are LRU-evicted beyond the cap.
//! This is the Sui-style writeback-cache arrangement: reads overlay
//! dirty state over committed segments, and the commit path drains the
//! dirty set in one batch.
//!
//! Failed fsyncs leave everything staged: the dirty cache, the index,
//! and the manifest are untouched, and the next flush retries with fresh
//! segment ids (staging removals for the ids the failed attempt may
//! still land — the in-order drain makes insert-then-remove correct).
//! Compaction rewrites live records into fresh segments when the dead
//! ratio passes the configured threshold and retires the old ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use stellar_crypto::codec::{Decode, Encode};
use stellar_ledger::backend::{
    approx_entry_bytes, book_apply, book_range, BookCursor, BookIndex, LedgerBackend, LedgerRead,
    StoreIoStats,
};
use stellar_ledger::entry::{
    AccountEntry, AccountId, DataEntry, LedgerEntry, LedgerKey, OfferEntry, TrustLineEntry,
};
use stellar_ledger::Asset;
use stellar_persist::DurableStore;

/// Disk key of the store manifest.
const META_KEY: &str = "store/meta";

/// Version stamp of the manifest format.
const STORE_META_VERSION: u32 = 1;

/// Decoded segment payloads kept around for locality of reads.
const SEG_CACHE_CAP: usize = 8;

/// Approximate RAM cost of one sparse-index entry (key + location +
/// node overhead).
const INDEX_ENTRY_BYTES: u64 = 72;

fn seg_key(id: u64) -> String {
    format!("seg/{id}")
}

/// Tuning for the disk backend.
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Maximum entries resident in the write-back cache. Dirty entries
    /// are pinned regardless (bounded by one close's delta); clean ones
    /// are LRU-evicted beyond this.
    pub cache_capacity: usize,
    /// Target payload size at which a segment under construction is
    /// sealed.
    pub segment_target_bytes: usize,
    /// Compact when dead bytes exceed this percentage of total segment
    /// bytes.
    pub compact_dead_ratio_pct: u8,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            cache_capacity: 65_536,
            segment_target_bytes: 1 << 20,
            compact_dead_ratio_pct: 50,
        }
    }
}

/// Where an entry's bytes live: segment id, offset and length of the
/// entry encoding within the segment payload.
#[derive(Clone, Copy, Debug)]
struct EntryLoc {
    seg: u64,
    off: u32,
    len: u32,
}

/// Live/dead byte accounting per segment, for the compaction trigger.
#[derive(Clone, Copy, Debug, Default)]
struct SegInfo {
    total: u64,
    dead: u64,
}

/// A cached entry. `entry == None` means "deleted" (only ever dirty —
/// negative read results are not cached).
#[derive(Clone, Debug)]
struct CacheSlot {
    entry: Option<LedgerEntry>,
    dirty: bool,
    /// LRU generation; meaningful only for clean slots (dirty slots are
    /// pinned and absent from the LRU).
    gen: u64,
}

/// Interior-mutable half of the backend: reads go through `&self` but
/// populate the cache and bump counters.
#[derive(Clone, Debug, Default)]
struct CacheState {
    entries: BTreeMap<LedgerKey, CacheSlot>,
    /// Clean slots by LRU generation (oldest first).
    lru: BTreeMap<u64, LedgerKey>,
    gen: u64,
    /// Recently read segment payloads, by segment id.
    seg_cache: BTreeMap<u64, (u64, Rc<Vec<u8>>)>,
    seg_gen: u64,
    /// Approximate bytes held by cached entries.
    resident: u64,
    stats: StoreIoStats,
}

/// The log-structured, write-back-cached ledger backend.
#[derive(Debug)]
pub struct DiskBackend {
    disk: Rc<RefCell<DurableStore>>,
    cfg: DiskConfig,
    /// Sparse index over durable segments.
    index: BTreeMap<LedgerKey, EntryLoc>,
    segs: BTreeMap<u64, SegInfo>,
    /// The in-RAM order-book side index (small: one cursor per offer).
    book: BookIndex,
    /// Live counts: accounts, trustlines, offers, data.
    counts: [usize; 4],
    next_offer_id: u64,
    next_seg_id: u64,
    /// Segment ids a failed or superseded sync may have left (or leave)
    /// on disk unreferenced; their removal is staged at the start of the
    /// next flush.
    orphans: Vec<u64>,
    state: RefCell<CacheState>,
}

impl Clone for DiskBackend {
    fn clone(&self) -> Self {
        // Deep-copies the disk: a cloned backend gets an independent
        // simulated device (sim restarts re-share disks explicitly).
        DiskBackend {
            disk: Rc::new(RefCell::new(self.disk.borrow().clone())),
            cfg: self.cfg.clone(),
            index: self.index.clone(),
            segs: self.segs.clone(),
            book: self.book.clone(),
            counts: self.counts,
            next_offer_id: self.next_offer_id,
            next_seg_id: self.next_seg_id,
            orphans: self.orphans.clone(),
            state: RefCell::new(self.state.borrow().clone()),
        }
    }
}

fn kind_idx(key: &LedgerKey) -> usize {
    match key {
        LedgerKey::Account(_) => 0,
        LedgerKey::TrustLine(..) => 1,
        LedgerKey::Offer(_) => 2,
        LedgerKey::Data(..) => 3,
    }
}

fn key_enc_len(key: &LedgerKey) -> u64 {
    let mut scratch = Vec::new();
    key.encode(&mut scratch);
    scratch.len() as u64
}

/// A record sealed into a new segment during flush/compaction:
/// `live = Some((off, len))` of the entry encoding, `None` = tombstone.
struct NewRec {
    key: LedgerKey,
    live: Option<(u32, u32)>,
}

impl DiskBackend {
    /// A fresh backend on a fresh simulated disk.
    pub fn new(cfg: DiskConfig) -> DiskBackend {
        DiskBackend::with_disk(Rc::new(RefCell::new(DurableStore::new())), cfg)
    }

    /// A fresh backend around an existing disk (recovery, tests).
    pub fn with_disk(disk: Rc<RefCell<DurableStore>>, cfg: DiskConfig) -> DiskBackend {
        DiskBackend {
            disk,
            cfg,
            index: BTreeMap::new(),
            segs: BTreeMap::new(),
            book: BookIndex::new(),
            counts: [0; 4],
            next_offer_id: 1,
            next_seg_id: 0,
            orphans: Vec::new(),
            state: RefCell::new(CacheState::default()),
        }
    }

    /// Reads a segment payload through the small segment cache.
    fn seg_payload(&self, st: &mut CacheState, seg: u64) -> Rc<Vec<u8>> {
        if let Some((_, payload)) = st.seg_cache.get(&seg) {
            return payload.clone();
        }
        let payload = Rc::new(
            self.disk
                .borrow()
                .read(&seg_key(seg))
                .expect("indexed segment must be durable and intact"),
        );
        st.stats.bytes_read += payload.len() as u64;
        st.seg_gen += 1;
        st.seg_cache.insert(seg, (st.seg_gen, payload.clone()));
        while st.seg_cache.len() > SEG_CACHE_CAP {
            let oldest = st
                .seg_cache
                .iter()
                .min_by_key(|(_, (g, _))| *g)
                .map(|(id, _)| *id)
                .expect("nonempty");
            st.seg_cache.remove(&oldest);
        }
        payload
    }

    /// Decodes the entry at `loc` (no cache interaction beyond the
    /// segment cache).
    fn read_at(&self, st: &mut CacheState, loc: EntryLoc) -> LedgerEntry {
        let payload = self.seg_payload(st, loc.seg);
        let mut slice = &payload[loc.off as usize..(loc.off + loc.len) as usize];
        LedgerEntry::decode(&mut slice).expect("durable record decodes")
    }

    /// Moves a clean slot to the LRU front.
    fn touch(st: &mut CacheState, key: &LedgerKey) {
        let Some(slot) = st.entries.get(key) else {
            return;
        };
        if slot.dirty {
            return;
        }
        let old = slot.gen;
        st.lru.remove(&old);
        st.gen += 1;
        let gen = st.gen;
        if let Some(slot) = st.entries.get_mut(key) {
            slot.gen = gen;
        }
        st.lru.insert(gen, key.clone());
    }

    /// Evicts clean slots (oldest first) until the cache is within
    /// `cap`. Dirty slots are pinned and never evicted.
    fn evict_to_cap(st: &mut CacheState, cap: usize) {
        while st.entries.len() > cap {
            let Some((&gen, _)) = st.lru.iter().next() else {
                break; // everything left is dirty
            };
            let key = st.lru.remove(&gen).expect("just observed");
            if st.entries.remove(&key).is_some() {
                st.resident = st.resident.saturating_sub(approx_entry_bytes(&key));
                st.stats.cache_evicts += 1;
            }
        }
    }

    /// The point-read path: cache overlay first, then the sparse index
    /// and a segment read (populating the cache).
    fn fetch(&self, key: &LedgerKey) -> Option<LedgerEntry> {
        let mut st = self.state.borrow_mut();
        if let Some(entry) = st.entries.get(key).map(|slot| slot.entry.clone()) {
            st.stats.cache_hits += 1;
            Self::touch(&mut st, key);
            return entry;
        }
        st.stats.cache_misses += 1;
        let loc = *self.index.get(key)?;
        let entry = self.read_at(&mut st, loc);
        st.gen += 1;
        let gen = st.gen;
        st.entries.insert(
            key.clone(),
            CacheSlot {
                entry: Some(entry.clone()),
                dirty: false,
                gen,
            },
        );
        st.lru.insert(gen, key.clone());
        st.resident += approx_entry_bytes(key);
        Self::evict_to_cap(&mut st, self.cfg.cache_capacity);
        Some(entry)
    }

    /// Whether `key` currently exists (cache overlay over index), with
    /// no segment read.
    fn exists(&self, key: &LedgerKey) -> bool {
        let st = self.state.borrow();
        match st.entries.get(key) {
            Some(slot) => slot.entry.is_some(),
            None => self.index.contains_key(key),
        }
    }

    fn encode_meta(&self, ledger_seq: u64, extra_segs: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        STORE_META_VERSION.encode(&mut out);
        ledger_seq.encode(&mut out);
        self.next_offer_id.encode(&mut out);
        self.next_seg_id.encode(&mut out);
        let ids: Vec<u64> = self
            .segs
            .keys()
            .copied()
            .chain(extra_segs.iter().copied())
            .collect();
        (ids.len() as u64).encode(&mut out);
        for id in ids {
            id.encode(&mut out);
        }
        out
    }

    /// Packs `(key, entry)` records into target-sized segments, taking
    /// ids from the allocator.
    fn seal_records<'a>(
        &mut self,
        items: impl Iterator<Item = (&'a LedgerKey, Option<&'a LedgerEntry>)>,
    ) -> Vec<(u64, Vec<u8>, Vec<NewRec>)> {
        let mut out = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut recs: Vec<NewRec> = Vec::new();
        for (key, entry) in items {
            match entry {
                Some(e) => {
                    0u8.encode(&mut buf);
                    key.encode(&mut buf);
                    let off = buf.len();
                    e.encode(&mut buf);
                    recs.push(NewRec {
                        key: key.clone(),
                        live: Some((off as u32, (buf.len() - off) as u32)),
                    });
                }
                None => {
                    1u8.encode(&mut buf);
                    key.encode(&mut buf);
                    recs.push(NewRec {
                        key: key.clone(),
                        live: None,
                    });
                }
            }
            if buf.len() >= self.cfg.segment_target_bytes {
                let id = self.next_seg_id;
                self.next_seg_id += 1;
                out.push((id, std::mem::take(&mut buf), std::mem::take(&mut recs)));
            }
        }
        if !buf.is_empty() {
            let id = self.next_seg_id;
            self.next_seg_id += 1;
            out.push((id, buf, recs));
        }
        out
    }

    /// Applies a successful flush's records to the sparse index, with
    /// dead-byte accounting for the versions they supersede.
    fn index_new_segs(&mut self, new_segs: &[(u64, Vec<u8>, Vec<NewRec>)]) {
        for (seg_id, buf, recs) in new_segs {
            self.segs.insert(
                *seg_id,
                SegInfo {
                    total: buf.len() as u64,
                    dead: 0,
                },
            );
            for rec in recs {
                let key_overhead = 1 + key_enc_len(&rec.key);
                match rec.live {
                    Some((off, len)) => {
                        let loc = EntryLoc {
                            seg: *seg_id,
                            off,
                            len,
                        };
                        if let Some(old) = self.index.insert(rec.key.clone(), loc) {
                            if let Some(si) = self.segs.get_mut(&old.seg) {
                                si.dead += u64::from(old.len) + key_overhead;
                            }
                        }
                    }
                    None => {
                        if let Some(old) = self.index.remove(&rec.key) {
                            if let Some(si) = self.segs.get_mut(&old.seg) {
                                si.dead += u64::from(old.len) + key_overhead;
                            }
                        }
                        // The tombstone record itself is dead weight
                        // from birth; it exists only for replay.
                        if let Some(si) = self.segs.get_mut(seg_id) {
                            si.dead += key_overhead;
                        }
                    }
                }
            }
        }
    }

    /// Rewrites all live records into fresh segments and retires the old
    /// ones. Runs after a flush whose dead ratio crossed the threshold.
    fn compact(&mut self, ledger_seq: u64) {
        let old_ids: Vec<u64> = self.segs.keys().copied().collect();
        // Copy each live record's bytes verbatim (no decode round-trip).
        let mut records: Vec<(LedgerKey, Vec<u8>)> = Vec::with_capacity(self.index.len());
        {
            let mut st = self.state.borrow_mut();
            for (key, loc) in &self.index {
                let payload = self.seg_payload(&mut st, loc.seg);
                let enc = payload[loc.off as usize..(loc.off + loc.len) as usize].to_vec();
                records.push((key.clone(), enc));
            }
        }
        let mut out: Vec<(u64, Vec<u8>, Vec<NewRec>)> = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut recs: Vec<NewRec> = Vec::new();
        for (key, enc) in records {
            0u8.encode(&mut buf);
            key.encode(&mut buf);
            let off = buf.len();
            buf.extend_from_slice(&enc);
            recs.push(NewRec {
                key,
                live: Some((off as u32, enc.len() as u32)),
            });
            if buf.len() >= self.cfg.segment_target_bytes {
                let id = self.next_seg_id;
                self.next_seg_id += 1;
                out.push((id, std::mem::take(&mut buf), std::mem::take(&mut recs)));
            }
        }
        if !buf.is_empty() {
            let id = self.next_seg_id;
            self.next_seg_id += 1;
            out.push((id, buf, recs));
        }

        let new_ids: Vec<u64> = out.iter().map(|(id, _, _)| *id).collect();
        {
            let mut disk = self.disk.borrow_mut();
            for (id, buf, _) in &out {
                disk.write(&seg_key(*id), buf);
            }
        }
        // Manifest listing only the fresh segments.
        let meta = {
            let saved = std::mem::take(&mut self.segs);
            let meta = self.encode_meta(ledger_seq, &new_ids);
            self.segs = saved;
            meta
        };
        self.disk.borrow_mut().write(META_KEY, &meta);
        {
            let mut st = self.state.borrow_mut();
            st.stats.bytes_written +=
                out.iter().map(|(_, b, _)| b.len() as u64).sum::<u64>() + meta.len() as u64;
        }
        let ok = self.disk.borrow_mut().sync();
        let mut st = self.state.borrow_mut();
        if ok {
            st.stats.fsyncs += 1;
            st.stats.compactions += 1;
            drop(st);
            // Old segments are durable garbage now; reclaim at the next
            // flush (their blobs stay readable until then, which keeps
            // any in-flight segment-cache payloads harmless).
            self.orphans.extend(old_ids);
            self.segs.clear();
            for (seg_id, buf, recs) in &out {
                self.segs.insert(
                    *seg_id,
                    SegInfo {
                        total: buf.len() as u64,
                        dead: 0,
                    },
                );
                for rec in recs {
                    let (off, len) = rec.live.expect("compaction writes live records only");
                    self.index.insert(
                        rec.key.clone(),
                        EntryLoc {
                            seg: *seg_id,
                            off,
                            len,
                        },
                    );
                }
            }
            // Drop cached payloads of retired segments.
            self.state.borrow_mut().seg_cache.clear();
        } else {
            st.stats.failed_fsyncs += 1;
            drop(st);
            // The staged batch (new segs + manifest) stays pending; if a
            // later sync lands it, the next flush's manifest supersedes
            // it in the same drain. Schedule the fresh ids for removal.
            self.orphans.extend(new_ids);
        }
    }

    /// Rebuilds a backend from a data disk's manifest and segments.
    /// Returns the backend and the ledger sequence of its last durable
    /// flush, or `None` if the manifest or any referenced segment is
    /// missing, torn, or malformed.
    pub fn recover(disk: Rc<RefCell<DurableStore>>, cfg: DiskConfig) -> Option<(DiskBackend, u64)> {
        let meta = disk.borrow().read(META_KEY)?;
        let mut input = meta.as_slice();
        let version = u32::decode(&mut input).ok()?;
        if version != STORE_META_VERSION {
            return None;
        }
        let ledger_seq = u64::decode(&mut input).ok()?;
        let next_offer_id = u64::decode(&mut input).ok()?;
        let next_seg_id = u64::decode(&mut input).ok()?;
        let n = u64::decode(&mut input).ok()? as usize;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(u64::decode(&mut input).ok()?);
        }

        let mut backend = DiskBackend::with_disk(disk.clone(), cfg);
        backend.next_offer_id = next_offer_id;
        backend.next_seg_id = next_seg_id;
        // Replay segments oldest-first: within the manifest, ids are
        // ascending and ids are never reused, so the last record seen
        // for a key is its latest version.
        for id in ids {
            let payload = disk.borrow().read(&seg_key(id))?;
            backend.segs.insert(
                id,
                SegInfo {
                    total: payload.len() as u64,
                    dead: 0,
                },
            );
            let mut input = payload.as_slice();
            while !input.is_empty() {
                let tag = u8::decode(&mut input).ok()?;
                let key = LedgerKey::decode(&mut input).ok()?;
                let key_overhead = 1 + key_enc_len(&key);
                match tag {
                    0 => {
                        let off = (payload.len() - input.len()) as u32;
                        LedgerEntry::decode(&mut input).ok()?;
                        let len = (payload.len() - input.len()) as u32 - off;
                        if let Some(old) = backend.index.insert(key, EntryLoc { seg: id, off, len })
                        {
                            if let Some(si) = backend.segs.get_mut(&old.seg) {
                                si.dead += u64::from(old.len) + key_overhead;
                            }
                        }
                    }
                    1 => {
                        if let Some(old) = backend.index.remove(&key) {
                            if let Some(si) = backend.segs.get_mut(&old.seg) {
                                si.dead += u64::from(old.len) + key_overhead;
                            }
                        }
                        if let Some(si) = backend.segs.get_mut(&id) {
                            si.dead += key_overhead;
                        }
                    }
                    _ => return None,
                }
            }
        }

        // Counts from the index; book index by decoding live offers.
        let mut offers: Vec<EntryLoc> = Vec::new();
        for (key, loc) in &backend.index {
            backend.counts[kind_idx(key)] += 1;
            if matches!(key, LedgerKey::Offer(_)) {
                offers.push(*loc);
            }
        }
        {
            let mut st = backend.state.borrow_mut();
            for loc in offers {
                let LedgerEntry::Offer(o) = backend.read_at(&mut st, loc) else {
                    return None;
                };
                book_apply(&mut backend.book, None, Some(&o));
            }
        }
        Some((backend, ledger_seq))
    }
}

impl LedgerRead for DiskBackend {
    fn account(&self, id: AccountId) -> Option<AccountEntry> {
        match self.fetch(&LedgerKey::Account(id))? {
            LedgerEntry::Account(a) => Some(a),
            _ => None,
        }
    }

    fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry> {
        match self.fetch(&LedgerKey::TrustLine(id, asset.clone()))? {
            LedgerEntry::TrustLine(t) => Some(t),
            _ => None,
        }
    }

    fn offer(&self, id: u64) -> Option<OfferEntry> {
        match self.fetch(&LedgerKey::Offer(id))? {
            LedgerEntry::Offer(o) => Some(o),
            _ => None,
        }
    }

    fn data(&self, id: AccountId, name: &str) -> Option<DataEntry> {
        match self.fetch(&LedgerKey::Data(id, name.to_owned()))? {
            LedgerEntry::Data(d) => Some(d),
            _ => None,
        }
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

impl LedgerBackend for DiskBackend {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn trustlines_of(&self, id: AccountId) -> Vec<TrustLineEntry> {
        // Asset::Native is the minimum asset, so this is the lower bound
        // of the account's trustline key range.
        let lo = LedgerKey::TrustLine(id, Asset::Native);
        let in_range = |k: &LedgerKey| matches!(k, LedgerKey::TrustLine(a, _) if *a == id);
        let mut keys: std::collections::BTreeSet<LedgerKey> = self
            .index
            .range(lo.clone()..)
            .take_while(|(k, _)| in_range(k))
            .map(|(k, _)| k.clone())
            .collect();
        {
            let st = self.state.borrow();
            for (k, slot) in st.entries.range(lo..).take_while(|(k, _)| in_range(k)) {
                if slot.entry.is_some() {
                    keys.insert(k.clone());
                } else {
                    keys.remove(k);
                }
            }
        }
        keys.into_iter()
            .filter_map(|k| match self.fetch(&k) {
                Some(LedgerEntry::TrustLine(t)) => Some(t),
                _ => None,
            })
            .collect()
    }

    fn apply(&mut self, feed: &[(LedgerKey, Option<LedgerEntry>)]) {
        for (key, slot) in feed {
            // Offers need the previous version for book maintenance;
            // other kinds only an existence check (no segment read).
            let existed = if let LedgerKey::Offer(_) = key {
                let prev = match self.fetch(key) {
                    Some(LedgerEntry::Offer(o)) => Some(o),
                    _ => None,
                };
                let new = match slot {
                    Some(LedgerEntry::Offer(o)) => Some(o),
                    _ => None,
                };
                book_apply(&mut self.book, prev.as_ref(), new);
                prev.is_some()
            } else {
                self.exists(key)
            };

            if slot.is_none() && !existed {
                continue; // deleting nothing: skip the tombstone
            }
            let k = kind_idx(key);
            if slot.is_some() && !existed {
                self.counts[k] += 1;
            } else if slot.is_none() && existed {
                self.counts[k] -= 1;
            }

            let mut st = self.state.borrow_mut();
            if let Some(old) = st.entries.get(key) {
                let gen = old.gen;
                if !old.dirty {
                    st.lru.remove(&gen);
                }
            } else {
                st.resident += approx_entry_bytes(key);
            }
            st.entries.insert(
                key.clone(),
                CacheSlot {
                    entry: slot.clone(),
                    dirty: true,
                    gen: 0,
                },
            );
        }
    }

    fn next_offer_id(&self) -> u64 {
        self.next_offer_id
    }

    fn set_next_offer_id(&mut self, id: u64) {
        self.next_offer_id = id;
    }

    fn account_count(&self) -> usize {
        self.counts[0]
    }

    fn offer_count(&self) -> usize {
        self.counts[2]
    }

    fn all_entries(&self) -> Vec<LedgerEntry> {
        // Overlay snapshot first (bounded by the cache), then a merged
        // sweep over the sparse index. `LedgerKey`'s ordering groups
        // kinds exactly like the in-RAM backend's per-kind maps, so the
        // output order matches MemBackend byte for byte.
        let overlay: Vec<(LedgerKey, Option<LedgerEntry>)> = {
            let st = self.state.borrow();
            st.entries
                .iter()
                .map(|(k, s)| (k.clone(), s.entry.clone()))
                .collect()
        };
        let mut ov = overlay.into_iter().peekable();
        let mut st = self.state.borrow_mut();
        let mut out = Vec::with_capacity(self.index.len());
        for (key, loc) in &self.index {
            while let Some((k, _)) = ov.peek() {
                if k < key {
                    let (_, e) = ov.next().expect("just peeked");
                    out.extend(e);
                } else {
                    break;
                }
            }
            if let Some((k, _)) = ov.peek() {
                if k == key {
                    let (_, e) = ov.next().expect("just peeked");
                    out.extend(e);
                    continue;
                }
            }
            out.push(self.read_at(&mut st, *loc));
        }
        for (_, e) in ov {
            out.extend(e);
        }
        out
    }

    fn flush(&mut self, ledger_seq: u64) -> bool {
        // Reclaim segments a failed (or superseding) sync left behind.
        let orphans = std::mem::take(&mut self.orphans);
        {
            let mut disk = self.disk.borrow_mut();
            for id in &orphans {
                disk.remove(&seg_key(*id));
            }
        }

        // Drain the dirty set, in key order, into fresh segments.
        let dirty: Vec<(LedgerKey, Option<LedgerEntry>)> = {
            let st = self.state.borrow();
            st.entries
                .iter()
                .filter(|(_, s)| s.dirty)
                .map(|(k, s)| (k.clone(), s.entry.clone()))
                .collect()
        };
        let new_segs = self.seal_records(dirty.iter().map(|(k, e)| (k, e.as_ref())));
        let new_ids: Vec<u64> = new_segs.iter().map(|(id, _, _)| *id).collect();

        let meta = self.encode_meta(ledger_seq, &new_ids);
        {
            let mut disk = self.disk.borrow_mut();
            for (id, buf, _) in &new_segs {
                disk.write(&seg_key(*id), buf);
            }
            disk.write(META_KEY, &meta);
        }
        {
            let mut st = self.state.borrow_mut();
            st.stats.bytes_written +=
                new_segs.iter().map(|(_, b, _)| b.len() as u64).sum::<u64>() + meta.len() as u64;
        }

        let ok = self.disk.borrow_mut().sync();
        if !ok {
            self.state.borrow_mut().stats.failed_fsyncs += 1;
            // Everything stays staged on the disk and dirty in the
            // cache; the next flush re-encodes under fresh ids and
            // removes these (whether or not a later sync lands them).
            self.orphans = orphans;
            self.orphans.extend(new_ids);
            return false;
        }
        self.state.borrow_mut().stats.fsyncs += 1;
        self.index_new_segs(&new_segs);

        // Dirty slots become clean (deletions leave the cache — negative
        // results are not cached), then trim to capacity.
        {
            let mut st = self.state.borrow_mut();
            for (key, entry) in dirty {
                if entry.is_none() {
                    st.entries.remove(&key);
                    st.resident = st.resident.saturating_sub(approx_entry_bytes(&key));
                } else {
                    st.gen += 1;
                    let gen = st.gen;
                    if let Some(slot) = st.entries.get_mut(&key) {
                        slot.dirty = false;
                        slot.gen = gen;
                    }
                    st.lru.insert(gen, key);
                }
            }
            Self::evict_to_cap(&mut st, self.cfg.cache_capacity);
        }

        let total: u64 = self.segs.values().map(|s| s.total).sum();
        let dead: u64 = self.segs.values().map(|s| s.dead).sum();
        if self.segs.len() > 1
            && total > 0
            && dead * 100 > total * u64::from(self.cfg.compact_dead_ratio_pct)
        {
            self.compact(ledger_seq);
        }
        true
    }

    fn disk(&self) -> Option<Rc<RefCell<DurableStore>>> {
        Some(self.disk.clone())
    }

    fn io_stats(&self) -> StoreIoStats {
        let mut s = self.state.borrow().stats;
        s.segments = self.segs.len() as u64;
        s.disk_bytes = self.disk.borrow().durable_bytes();
        s
    }

    fn resident_bytes(&self) -> u64 {
        let st = self.state.borrow();
        let seg_cache: u64 = st.seg_cache.values().map(|(_, p)| p.len() as u64).sum();
        st.resident + self.index.len() as u64 * INDEX_ENTRY_BYTES + seg_cache
    }

    fn boxed_clone(&self) -> Box<dyn LedgerBackend> {
        Box::new(self.clone())
    }
}
