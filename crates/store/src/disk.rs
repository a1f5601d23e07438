//! The log-structured disk backend.
//!
//! Layout on the data disk (one [`DurableStore`]):
//!
//! * `seg/<n>` — immutable segment files: a concatenation of records,
//!   `0 ‖ key ‖ entry ‖ crc32c(entry)` for a live entry (the CRC-32C a
//!   little-endian u32) and `1 ‖ key` for a tombstone. Segment ids are
//!   monotonic and never reused, so scanning segments in id order
//!   replays history oldest-first.
//! * `store/meta` — the manifest: ledger sequence of the last durable
//!   flush, the offer-id allocator, the next segment id, and the list of
//!   live segments. A flush stages its new segments *and* the manifest
//!   and syncs once, so the manifest never references a segment the same
//!   sync did not land (the simulated disk drains staged writes in order
//!   and atomically per sync).
//!
//! A cache miss costs one record, not one segment. The sparse index
//! `key → (segment, offset, len)` locates the record's `entry ‖ crc`,
//! which is sliced in place out of the segment through
//! [`DurableStore::read_unverified`] — the frame's length is checked (a
//! torn segment never reads), its whole-segment SHA-256 is not. The miss
//! then checks the record's CRC and that the decoded entry carries the
//! key that was looked up; either mismatch means the node's own durable
//! state is corrupt, and the read panics. Recovery trusts nothing: it
//! reads every segment through [`DurableStore::read`] (whole-frame
//! SHA-256) and checks every record's CRC, refusing the disk on any
//! mismatch.
//!
//! In RAM the backend keeps that sparse index — a few dozen bytes per
//! entry instead of the whole entry — plus a bounded **write-back
//! cache**: per-close deltas stay dirty (pinned) until `flush`, clean
//! read results are LRU-evicted beyond the cap. This is the Sui-style
//! writeback-cache arrangement: reads overlay dirty state over committed
//! segments, and the commit path drains the dirty-key set in one batch.
//!
//! Failed fsyncs leave everything staged: the dirty cache and its key
//! set, the index, and the manifest are untouched, and the next flush
//! retries with fresh segment ids (staging removals for the ids the
//! failed attempt may still land — the in-order drain makes
//! insert-then-remove correct). Compaction copies every live record's
//! `entry ‖ crc` verbatim into fresh segments when the dead ratio passes
//! the configured threshold and retires the old ones.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
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

/// Approximate RAM cost of one sparse-index entry (key + location +
/// node overhead).
const INDEX_ENTRY_BYTES: u64 = 72;

/// Bytes of the CRC-32C trailer on a live record.
const CRC_LEN: usize = 4;

fn seg_key(id: u64) -> String {
    format!("seg/{id}")
}

/// The CRC-32C (Castagnoli) lookup table, reflected polynomial
/// `0x82F6_3B78`.
const fn crc32c_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32C_TABLE: [u32; 256] = crc32c_table();

/// CRC-32C of `bytes`: the checksum trailing every live segment record.
fn crc32c(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        CRC32C_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8)
    })
}

/// The entry bytes of an `entry ‖ crc` record, if its CRC matches.
fn crc_checked(record: &[u8]) -> Option<&[u8]> {
    let (entry, crc) = record.split_at(record.len().checked_sub(CRC_LEN)?);
    (crc32c(entry).to_le_bytes() == crc).then_some(entry)
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
/// entry encoding within the segment payload (its CRC follows it).
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
    /// LRU generation; meaningful only for clean slots (dirty slots are
    /// pinned and absent from the LRU).
    gen: u64,
}

/// Interior-mutable half of the backend: reads go through `&self` but
/// populate the cache and bump counters.
#[derive(Clone, Debug, Default)]
struct CacheState {
    entries: BTreeMap<LedgerKey, CacheSlot>,
    /// Keys whose slot is dirty: applied since the last successful
    /// flush, pinned in `entries`, and what the next flush seals.
    dirty: BTreeSet<LedgerKey>,
    /// Clean slots by LRU generation (oldest first).
    lru: BTreeMap<u64, LedgerKey>,
    gen: u64,
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

/// A record sealed into a segment (or parsed back out of one at
/// recovery).
struct NewRec {
    key: LedgerKey,
    /// Bytes of the record's `tag ‖ key`: all of a tombstone, and all of
    /// a live record but its `entry ‖ crc`.
    head: u32,
    /// `Some((off, len))` of the entry encoding, `None` = tombstone.
    live: Option<(u32, u32)>,
}

/// What follows a record's `tag ‖ key` when it is sealed.
enum Body<'a> {
    /// A live entry, encoded and checksummed here (flush).
    Entry(&'a LedgerEntry),
    /// An existing record's `entry ‖ crc`, copied verbatim (compaction).
    Sealed(&'a [u8]),
    /// A deletion.
    Tombstone,
}

/// Packs records into target-sized segments, taking ids from
/// `next_seg_id`. Returns `(id, payload, records)` per segment.
fn seal_records<'a>(
    next_seg_id: &mut u64,
    target_bytes: usize,
    items: impl Iterator<Item = (&'a LedgerKey, Body<'a>)>,
) -> Vec<(u64, Vec<u8>, Vec<NewRec>)> {
    let mut out = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut recs: Vec<NewRec> = Vec::new();
    for (key, body) in items {
        let start = buf.len();
        // Tag 0: live, 1: tombstone.
        u8::from(matches!(body, Body::Tombstone)).encode(&mut buf);
        key.encode(&mut buf);
        let off = buf.len();
        let live = match body {
            Body::Entry(e) => {
                e.encode(&mut buf);
                let crc = crc32c(&buf[off..]);
                buf.extend_from_slice(&crc.to_le_bytes());
                Some((off as u32, (buf.len() - off - CRC_LEN) as u32))
            }
            Body::Sealed(record) => {
                buf.extend_from_slice(record);
                Some((off as u32, (record.len() - CRC_LEN) as u32))
            }
            Body::Tombstone => None,
        };
        recs.push(NewRec {
            key: key.clone(),
            head: (off - start) as u32,
            live,
        });
        if buf.len() >= target_bytes {
            out.push((
                *next_seg_id,
                std::mem::take(&mut buf),
                std::mem::take(&mut recs),
            ));
            *next_seg_id += 1;
        }
    }
    if !buf.is_empty() {
        out.push((*next_seg_id, buf, recs));
        *next_seg_id += 1;
    }
    out
}

/// Parses a frame-verified segment payload back into its records,
/// checking every live record's CRC and that its entry decodes under
/// its key. `None` on any mismatch or malformed record.
fn parse_segment(payload: &[u8]) -> Option<Vec<NewRec>> {
    let mut recs = Vec::new();
    let mut input = payload;
    while !input.is_empty() {
        let start = payload.len() - input.len();
        let tag = u8::decode(&mut input).ok()?;
        let key = LedgerKey::decode(&mut input).ok()?;
        let off = payload.len() - input.len();
        let live = match tag {
            0 => {
                let mut rest = input;
                let entry = LedgerEntry::decode(&mut rest).ok()?;
                let len = input.len() - rest.len();
                crc_checked(input.get(..len + CRC_LEN)?)?;
                if entry.key() != key {
                    return None;
                }
                input = &input[len + CRC_LEN..];
                Some((off as u32, len as u32))
            }
            1 => None,
            _ => return None,
        };
        recs.push(NewRec {
            key,
            head: (off - start) as u32,
            live,
        });
    }
    Some(recs)
}

/// `entry ‖ crc` of the live record at `loc`, sliced in place out of its
/// segment: the frame's length is checked, nothing is hashed.
fn record_at(disk: &DurableStore, loc: EntryLoc) -> &[u8] {
    let payload = disk
        .read_unverified(&seg_key(loc.seg))
        .expect("indexed segment must be durable and intact");
    let off = loc.off as usize;
    payload
        .get(off..off + loc.len as usize + CRC_LEN)
        .expect("indexed record lies inside its segment")
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

    /// Reads `key`'s live entry at `loc`: one ranged read of
    /// `entry ‖ crc`, whose CRC is checked, and whose decoded entry must
    /// carry `key`. Panics on either mismatch — this is state the node
    /// itself made durable, so a mismatch is corruption, not input.
    fn read_at(&self, st: &mut CacheState, key: &LedgerKey, loc: EntryLoc) -> LedgerEntry {
        let disk = self.disk.borrow();
        let record = record_at(&disk, loc);
        st.stats.bytes_read += record.len() as u64;
        let mut bytes = crc_checked(record).unwrap_or_else(|| {
            panic!(
                "segment {} record at offset {}: checksum mismatch",
                loc.seg, loc.off
            )
        });
        let entry = LedgerEntry::decode(&mut bytes).expect("durable record decodes");
        assert!(
            entry.key() == *key,
            "segment {} record at offset {} holds another key",
            loc.seg,
            loc.off
        );
        entry
    }

    /// Moves a clean slot to the LRU front.
    fn touch(st: &mut CacheState, key: &LedgerKey) {
        if st.dirty.contains(key) {
            return;
        }
        let Some(slot) = st.entries.get(key) else {
            return;
        };
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
    /// and a record read (populating the cache).
    fn fetch(&self, key: &LedgerKey) -> Option<LedgerEntry> {
        let mut st = self.state.borrow_mut();
        if let Some(entry) = st.entries.get(key).map(|slot| slot.entry.clone()) {
            st.stats.cache_hits += 1;
            Self::touch(&mut st, key);
            return entry;
        }
        st.stats.cache_misses += 1;
        let loc = *self.index.get(key)?;
        let entry = self.read_at(&mut st, key, loc);
        st.gen += 1;
        let gen = st.gen;
        st.entries.insert(
            key.clone(),
            CacheSlot {
                entry: Some(entry.clone()),
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

    /// Indexes one durable segment's records — a flushed, compacted or
    /// recovered one — with dead-byte accounting: each version a record
    /// supersedes is a live record of the same key, so its
    /// `head + len + CRC` bytes turn dead in its segment.
    fn index_seg(&mut self, seg: u64, total: u64, recs: &[NewRec]) {
        self.segs.insert(seg, SegInfo { total, dead: 0 });
        for rec in recs {
            let superseded = match rec.live {
                Some((off, len)) => self
                    .index
                    .insert(rec.key.clone(), EntryLoc { seg, off, len }),
                None => {
                    // The tombstone record itself is dead weight from
                    // birth; it exists only for replay.
                    if let Some(si) = self.segs.get_mut(&seg) {
                        si.dead += u64::from(rec.head);
                    }
                    self.index.remove(&rec.key)
                }
            };
            if let Some(old) = superseded {
                if let Some(si) = self.segs.get_mut(&old.seg) {
                    si.dead += u64::from(rec.head) + u64::from(old.len) + CRC_LEN as u64;
                }
            }
        }
    }

    /// Rewrites all live records into fresh segments and retires the old
    /// ones. Runs after a flush whose dead ratio crossed the threshold.
    fn compact(&mut self, ledger_seq: u64) {
        let old_ids: Vec<u64> = self.segs.keys().copied().collect();
        // Copy each live record's `entry ‖ crc` verbatim (no decode
        // round-trip; the CRC travels with it).
        let mut bytes_read = 0u64;
        let out = {
            let disk = self.disk.borrow();
            seal_records(
                &mut self.next_seg_id,
                self.cfg.segment_target_bytes,
                self.index.iter().map(|(key, loc)| {
                    let record = record_at(&disk, *loc);
                    bytes_read += record.len() as u64;
                    (key, Body::Sealed(record))
                }),
            )
        };

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
            st.stats.bytes_read += bytes_read;
            st.stats.bytes_written +=
                out.iter().map(|(_, b, _)| b.len() as u64).sum::<u64>() + meta.len() as u64;
        }
        let ok = self.disk.borrow_mut().sync();
        let mut st = self.state.borrow_mut();
        if ok {
            st.stats.fsyncs += 1;
            st.stats.compactions += 1;
            drop(st);
            // Old segments are durable garbage now; reclaim them at the
            // next flush.
            self.orphans.extend(old_ids);
            self.segs.clear();
            for (seg_id, buf, recs) in &out {
                self.index_seg(*seg_id, buf.len() as u64, recs);
            }
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
    /// Every segment is read with its whole-frame SHA-256 verified and
    /// every record's CRC checked. Returns the backend and the ledger
    /// sequence of its last durable flush, or `None` if the manifest or
    /// any referenced segment is missing, torn, or malformed.
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
            let recs = parse_segment(&payload)?;
            backend.index_seg(id, payload.len() as u64, &recs);
        }

        // Counts from the index; book index by decoding live offers.
        let mut offers: Vec<(LedgerKey, EntryLoc)> = Vec::new();
        for (key, loc) in &backend.index {
            backend.counts[kind_idx(key)] += 1;
            if matches!(key, LedgerKey::Offer(_)) {
                offers.push((key.clone(), *loc));
            }
        }
        {
            let mut st = backend.state.borrow_mut();
            for (key, loc) in offers {
                let LedgerEntry::Offer(o) = backend.read_at(&mut st, &key, loc) else {
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
        let mut keys: BTreeSet<LedgerKey> = self
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
            let newly_dirty = st.dirty.insert(key.clone());
            let old = st.entries.insert(
                key.clone(),
                CacheSlot {
                    entry: slot.clone(),
                    gen: 0,
                },
            );
            match old {
                // A clean slot turning dirty leaves the LRU (pinned).
                Some(old) if newly_dirty => {
                    st.lru.remove(&old.gen);
                }
                Some(_) => {}
                None => st.resident += approx_entry_bytes(key),
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
            out.push(self.read_at(&mut st, key, *loc));
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

        // Drain the dirty-key set, in key order, into fresh segments.
        let dirty: Vec<(LedgerKey, Option<LedgerEntry>)> = {
            let st = self.state.borrow();
            st.dirty
                .iter()
                .map(|k| {
                    let slot = st.entries.get(k).expect("dirty slots are pinned");
                    (k.clone(), slot.entry.clone())
                })
                .collect()
        };
        let new_segs = seal_records(
            &mut self.next_seg_id,
            self.cfg.segment_target_bytes,
            dirty
                .iter()
                .map(|(k, e)| (k, e.as_ref().map_or(Body::Tombstone, Body::Entry))),
        );
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
            // cache (the key set included); the next flush re-encodes
            // under fresh ids and removes these (whether or not a later
            // sync lands them).
            self.orphans = orphans;
            self.orphans.extend(new_ids);
            return false;
        }
        self.state.borrow_mut().stats.fsyncs += 1;
        for (seg_id, buf, recs) in &new_segs {
            self.index_seg(*seg_id, buf.len() as u64, recs);
        }

        // Dirty slots become clean (deletions leave the cache — negative
        // results are not cached), then trim to capacity.
        {
            let mut st = self.state.borrow_mut();
            st.dirty.clear();
            for (key, entry) in dirty {
                if entry.is_none() {
                    st.entries.remove(&key);
                    st.resident = st.resident.saturating_sub(approx_entry_bytes(&key));
                } else {
                    st.gen += 1;
                    let gen = st.gen;
                    if let Some(slot) = st.entries.get_mut(&key) {
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
        self.state.borrow().resident + self.index.len() as u64 * INDEX_ENTRY_BYTES
    }

    fn boxed_clone(&self) -> Box<dyn LedgerBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    fn put(n: u64, balance: i64) -> (LedgerKey, Option<LedgerEntry>) {
        let entry = LedgerEntry::Account(AccountEntry::new(acct(n), balance));
        (entry.key(), Some(entry))
    }

    /// Every read after a flush misses; segment ids are never taken by
    /// compaction (dead bytes cannot exceed total bytes).
    fn uncached() -> DiskConfig {
        DiskConfig {
            cache_capacity: 0,
            compact_dead_ratio_pct: 100,
            ..DiskConfig::default()
        }
    }

    #[test]
    fn crc32c_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn a_miss_reads_one_record_and_its_crc() {
        let mut b = DiskBackend::new(uncached());
        b.apply(&[put(1, 10), put(2, 20)]);
        assert!(b.flush(1));
        let before = b.io_stats();
        let entry = b.account(acct(1)).expect("flushed");
        let after = b.io_stats();
        assert_eq!(after.cache_misses - before.cache_misses, 1);
        assert_eq!(
            after.bytes_read - before.bytes_read,
            LedgerEntry::Account(entry).to_bytes().len() as u64 + CRC_LEN as u64
        );
    }

    /// A backend holding one flushed account in segment 0, which the
    /// test rebuilds by hand — `0 ‖ key ‖ entry ‖ crc32c(entry)` — and,
    /// with `bad_crc`, rewrites under a valid frame with one CRC bit
    /// flipped.
    fn one_record(bad_crc: bool) -> DiskBackend {
        let mut b = DiskBackend::new(uncached());
        let (key, entry) = put(7, 70);
        b.apply(&[(key.clone(), entry.clone())]);
        assert!(b.flush(1));
        let entry = entry.expect("live").to_bytes();
        let mut seg = vec![0u8];
        key.encode(&mut seg);
        seg.extend_from_slice(&entry);
        seg.extend_from_slice(&crc32c(&entry).to_le_bytes());
        assert_eq!(b.disk.borrow().read(&seg_key(0)), Some(seg.clone()));
        if bad_crc {
            *seg.last_mut().expect("nonempty") ^= 1;
            b.disk.borrow_mut().write(&seg_key(0), &seg);
            assert!(b.disk.borrow_mut().sync());
        }
        b
    }

    #[test]
    fn recovery_checks_every_record_crc() {
        let good = one_record(false);
        let (back, seq) = DiskBackend::recover(good.disk.clone(), uncached()).expect("intact");
        assert_eq!(seq, 1);
        assert_eq!(back.account(acct(7)).map(|a| a.balance), Some(70));

        let bad = one_record(true);
        assert!(DiskBackend::recover(bad.disk.clone(), uncached()).is_none());
    }

    #[test]
    #[should_panic(expected = "checksum mismatch")]
    fn a_live_read_of_a_corrupt_record_panics() {
        one_record(true).account(acct(7));
    }

    #[test]
    fn failed_flush_keeps_the_dirty_set_and_the_retry_seals_the_same_records() {
        let mut b = DiskBackend::new(uncached());
        b.apply(&[put(1, 1), put(2, 2)]);
        assert!(b.flush(1));
        b.apply(&[put(2, 20), put(3, 30), (LedgerKey::Account(acct(1)), None)]);
        let dirty = b.state.borrow().dirty.clone();
        assert_eq!(dirty.len(), 3);
        let mut never_failed = b.clone();

        b.disk.borrow_mut().fail_next_fsyncs(1);
        assert!(!b.flush(2));
        assert_eq!(b.state.borrow().dirty, dirty);
        assert!(b.flush(2));
        assert!(b.state.borrow().dirty.is_empty());

        // Segment 1 was the failed attempt (now an orphan); the retry
        // sealed segment 2 with exactly what a flush that never failed
        // sealed into segment 1.
        assert!(never_failed.flush(2));
        assert_eq!((b.next_seg_id, never_failed.next_seg_id), (3, 2));
        let retried = b.disk.borrow().read(&seg_key(2));
        assert!(retried.is_some());
        assert_eq!(retried, never_failed.disk.borrow().read(&seg_key(1)));
        assert_eq!(b.account(acct(2)).map(|a| a.balance), Some(20));
        assert_eq!(b.account(acct(1)), None);
    }

    /// Each segment's `dead` is its `total` minus the bytes of the live
    /// records the index still points into it — exactly.
    fn assert_dead_bytes_exact(b: &DiskBackend) {
        let mut live: BTreeMap<u64, u64> = BTreeMap::new();
        for (key, loc) in &b.index {
            *live.entry(loc.seg).or_default() +=
                1 + key.to_bytes().len() as u64 + u64::from(loc.len) + CRC_LEN as u64;
        }
        for (id, si) in &b.segs {
            assert_eq!(
                si.dead,
                si.total - live.get(id).copied().unwrap_or(0),
                "segment {id}"
            );
        }
    }

    #[test]
    fn dead_bytes_equal_total_minus_live_record_bytes() {
        let cfg = DiskConfig {
            cache_capacity: 4,
            segment_target_bytes: 256,
            ..uncached()
        };
        let mut b = DiskBackend::new(cfg.clone());
        for round in 0..8u64 {
            let feed: Vec<_> = (0..12u64)
                .filter(|n| (n + round) % 3 != 0 || round == 0)
                .map(|n| put(n, (round * 100 + n) as i64))
                .collect();
            b.apply(&feed);
            assert!(b.flush(round + 1));
            assert_dead_bytes_exact(&b);
        }
        assert!(b.segs.len() > 1, "records span several segments");
        assert!(b.segs.values().any(|si| si.dead > 0));
        let (back, _) = DiskBackend::recover(b.disk.clone(), cfg).expect("intact");
        assert_dead_bytes_exact(&back);
        assert_eq!(
            back.segs.values().map(|si| si.dead).collect::<Vec<_>>(),
            b.segs.values().map(|si| si.dead).collect::<Vec<_>>()
        );
    }
}
