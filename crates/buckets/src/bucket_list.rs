//! The leveled bucket list (§5.1): snapshot hashing that scales.
//!
//! Entries are stratified by time of last modification into exponentially
//! sized levels. Each ledger close merges that ledger's changes into level
//! 0; every `4^(i+1)` ledgers, level *i* spills into level *i+1*. Most
//! closes therefore touch only the small top levels, and the big cold
//! buckets at the bottom are merged (and re-hashed) exponentially rarely —
//! this is the "overhead of merging buckets, which get larger" visible in
//! the paper's Fig. 9 account sweep.
//!
//! With a data disk attached ([`BucketList::attach_disk`]), level blobs
//! are additionally persisted — each level's serialized form under
//! `bkt/<i>`, whose SHA-256 *is* the level hash — and cold levels (≥
//! [`SPILL_MIN_LEVEL`]) drop their in-RAM buckets entirely once their
//! blob is durable. Deep levels are then resident only as `(hash, len)`
//! bookkeeping; they are re-loaded (and hash-verified) only when a deep
//! spill falls due, which is exponentially rare. The blob is the
//! bucket's own byte buffer, byte-identical to the history archive's
//! checkpoint blob: persisting writes it as it is, and the archive shares
//! a resident level's buffer or reads a spilled one off disk.

use crate::bucket::Bucket;
use std::cell::RefCell;
use std::rc::Rc;
use stellar_crypto::codec::{Decode, Encode};
use stellar_crypto::sha256::{sha256, Sha256};
use stellar_crypto::Hash256;
use stellar_ledger::entry::{LedgerEntry, LedgerKey};
use stellar_persist::DurableStore;

/// Number of levels; `4^(NUM_LEVELS)` ledgers before the bottom level
/// spills, which at 5 s/ledger is far beyond any experiment horizon.
pub const NUM_LEVELS: usize = 10;

/// Levels at or below this index are spilled to disk (RAM copy dropped)
/// once their blob is durable. Level 6 spills into 7 every 4^7 ≈ 16k
/// ledgers — deep enough that re-loading is negligible, shallow enough
/// that a seeded bottom level never stays resident.
pub const SPILL_MIN_LEVEL: usize = 6;

/// Version stamp of the on-disk bucket metadata record.
const BUCKET_META_VERSION: u32 = 1;

/// Disk key of the bucket metadata record.
const BUCKET_META_KEY: &str = "bkt/meta";

fn level_key(i: usize) -> String {
    format!("bkt/{i}")
}

/// One level: either resident, or spilled to disk with its identifying
/// hash and slot count retained.
#[derive(Clone, Debug)]
enum LevelSlot {
    /// The bucket is in RAM.
    Ram(Bucket),
    /// The bucket lives on disk under `bkt/<i>`; `hash` is the level
    /// hash (= SHA-256 of the blob), `len` its slot count, `bytes` the
    /// blob size.
    Spilled {
        hash: Hash256,
        len: usize,
        bytes: u64,
    },
}

impl LevelSlot {
    fn len(&self) -> usize {
        match self {
            LevelSlot::Ram(b) => b.len(),
            LevelSlot::Spilled { len, .. } => *len,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The leveled bucket structure.
///
/// Cloning shares the attached data disk (the clone writes to the same
/// simulated device); validators that need independent disks construct
/// their own lists.
#[derive(Clone, Debug)]
pub struct BucketList {
    levels: Vec<LevelSlot>,
    /// Cached per-level hashes, invalidated on change. A spilled level's
    /// hash is always cached (it is the key to its blob).
    level_hashes: Vec<Option<Hash256>>,
    /// Cumulative work counter: slots merged so far (metrics for the
    /// Fig. 9 "merging buckets" overhead).
    pub merge_work: u64,
    /// The node's data disk, shared with the ledger store's disk backend
    /// so one sync per close covers both.
    disk: Option<Rc<RefCell<DurableStore>>>,
    /// Per-level hash as last made durable; levels whose current hash
    /// matches are skipped by [`BucketList::persist_levels`].
    synced: Vec<Option<Hash256>>,
}

impl Default for BucketList {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketList {
    /// An empty bucket list.
    pub fn new() -> BucketList {
        BucketList {
            levels: (0..NUM_LEVELS)
                .map(|_| LevelSlot::Ram(Bucket::empty()))
                .collect(),
            level_hashes: vec![None; NUM_LEVELS],
            merge_work: 0,
            disk: None,
            synced: vec![None; NUM_LEVELS],
        }
    }

    /// Seeds the list from a full state snapshot (genesis or catch-up):
    /// everything lands in the bottom level, as if untouched for ages.
    pub fn seed(entries: impl IntoIterator<Item = LedgerEntry>) -> BucketList {
        let mut list = BucketList::new();
        list.levels[NUM_LEVELS - 1] = LevelSlot::Ram(Bucket::from_entries(entries));
        list
    }

    /// The spill period of level `i`: it spills into `i+1` every
    /// `4^(i+1)` ledgers.
    fn spill_period(i: usize) -> u64 {
        4u64.pow(i as u32 + 1)
    }

    /// Decodes spilled level `i` from its durable blob. The blob is read
    /// length-checked only: its SHA-256 against the level hash is the one
    /// verification pass.
    fn load_spilled(&self, i: usize, hash: Hash256) -> Bucket {
        let disk = self
            .disk
            .as_ref()
            .expect("spilled level without a disk")
            .borrow();
        let blob = disk
            .read_unverified(&level_key(i))
            .expect("spilled bucket blob must be durable");
        assert_eq!(sha256(blob), hash, "spilled bucket blob hash mismatch");
        Bucket::decode(blob).expect("durable bucket blob decodes")
    }

    /// Re-loads a spilled level into RAM, verifying its blob hash.
    fn ensure_ram(&mut self, i: usize) {
        let LevelSlot::Spilled { hash, .. } = self.levels[i] else {
            return;
        };
        self.levels[i] = LevelSlot::Ram(self.load_spilled(i, hash));
    }

    /// Read-only view of a level's bucket, loading a spilled one into a
    /// scratch copy without mutating the list.
    fn level_snapshot(&self, i: usize) -> std::borrow::Cow<'_, Bucket> {
        match &self.levels[i] {
            LevelSlot::Ram(b) => std::borrow::Cow::Borrowed(b),
            LevelSlot::Spilled { hash, .. } => std::borrow::Cow::Owned(self.load_spilled(i, *hash)),
        }
    }

    /// Adds one ledger's change batch (at `ledger_seq`) and performs any
    /// spills that fall due.
    pub fn add_batch(&mut self, ledger_seq: u64, changes: &[(LedgerKey, Option<LedgerEntry>)]) {
        // Spill from the deepest due level upward, so a batch never
        // leapfrogs levels within one close. Skip the bottom level (it
        // only accumulates).
        for i in (0..NUM_LEVELS - 1).rev() {
            if ledger_seq.is_multiple_of(Self::spill_period(i)) && !self.levels[i].is_empty() {
                self.ensure_ram(i);
                self.ensure_ram(i + 1);
                let spilled =
                    match std::mem::replace(&mut self.levels[i], LevelSlot::Ram(Bucket::empty())) {
                        LevelSlot::Ram(b) => b,
                        LevelSlot::Spilled { .. } => unreachable!("ensure_ram loaded it"),
                    };
                let LevelSlot::Ram(below) = &self.levels[i + 1] else {
                    unreachable!("ensure_ram loaded it")
                };
                let bottom = i + 1 == NUM_LEVELS - 1;
                self.merge_work += (spilled.len() + below.len()) as u64;
                self.levels[i + 1] = LevelSlot::Ram(below.merge(&spilled, bottom));
                self.level_hashes[i] = None;
                self.level_hashes[i + 1] = None;
            }
        }
        if !changes.is_empty() {
            self.ensure_ram(0);
            let batch = Bucket::from_changes(changes);
            let LevelSlot::Ram(level0) = &self.levels[0] else {
                unreachable!("ensure_ram loaded it")
            };
            self.merge_work += (batch.len() + level0.len()) as u64;
            self.levels[0] = LevelSlot::Ram(level0.merge(&batch, false));
            self.level_hashes[0] = None;
        }
    }

    fn level_hash(&mut self, i: usize) -> Hash256 {
        match self.level_hashes[i] {
            Some(x) => x,
            None => {
                let x = match &self.levels[i] {
                    LevelSlot::Ram(b) => b.hash(),
                    LevelSlot::Spilled { hash, .. } => *hash,
                };
                self.level_hashes[i] = Some(x);
                x
            }
        }
    }

    /// The snapshot hash: a cumulative hash over the per-level bucket
    /// hashes ("a small, fixed index of reference hashes", §5.1).
    pub fn hash(&mut self) -> Hash256 {
        let mut h = Sha256::new();
        for i in 0..NUM_LEVELS {
            let lh = self.level_hash(i);
            h.update(lh.as_bytes());
        }
        h.finish()
    }

    /// Per-level bucket hashes (what peers exchange to reconcile: only
    /// buckets whose hashes differ need downloading).
    pub fn level_hashes(&mut self) -> Vec<Hash256> {
        (0..NUM_LEVELS).map(|i| self.level_hash(i)).collect()
    }

    /// A level's serialized blob — the concatenated slot encodings whose
    /// SHA-256 is the level hash. Spilled levels stream straight from
    /// their durable blob; resident levels hand out their own bytes.
    pub fn level_bytes(&self, i: usize) -> Rc<Vec<u8>> {
        match &self.levels[i] {
            LevelSlot::Ram(b) => b.shared_bytes(),
            LevelSlot::Spilled { .. } => {
                let disk = self.disk.as_ref().expect("spilled level without a disk");
                let blob = disk.borrow().read(&level_key(i));
                Rc::new(blob.expect("spilled bucket blob must be durable"))
            }
        }
    }

    /// Bytes of RAM the resident levels hold (spilled levels cost only
    /// their bookkeeping).
    pub fn resident_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| match l {
                LevelSlot::Ram(b) => b.resident_bytes(),
                LevelSlot::Spilled { .. } => 0,
            })
            .sum()
    }

    /// Bytes of durable blob the spilled (non-resident) levels occupy.
    pub fn spilled_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| match l {
                LevelSlot::Ram(_) => 0,
                LevelSlot::Spilled { bytes, .. } => *bytes,
            })
            .sum()
    }

    /// Reconstructs the latest live state by merging bottom-up (catch-up
    /// path for a new node that downloaded the buckets).
    pub fn reconstruct_state(&self) -> Vec<LedgerEntry> {
        let mut acc = Bucket::empty();
        for i in (0..NUM_LEVELS).rev() {
            acc = acc.merge(&self.level_snapshot(i), false);
        }
        acc.live_entries().collect()
    }

    /// Which levels differ from another list (reconciliation after a
    /// disconnect downloads only these).
    pub fn diff_levels(&mut self, other: &mut BucketList) -> Vec<usize> {
        let a = self.level_hashes();
        let b = other.level_hashes();
        (0..NUM_LEVELS).filter(|&i| a[i] != b[i]).collect()
    }

    // ---- disk spill ----

    /// Attaches the node's data disk: persists every level blob now
    /// (one sync) and drops cold levels from RAM. Called once at node
    /// construction, with the store's disk, so bucket blobs and ledger
    /// segments ride the same device.
    pub fn attach_disk(&mut self, disk: Rc<RefCell<DurableStore>>, ledger_seq: u64) {
        self.disk = Some(disk);
        self.persist_levels(ledger_seq);
        let ok = self
            .disk
            .as_ref()
            .expect("just attached")
            .borrow_mut()
            .sync();
        if ok {
            self.note_synced();
        }
    }

    /// Stages every changed level blob plus the bucket metadata record
    /// onto the data disk. Nothing is durable until the caller syncs the
    /// disk (the ledger store's flush provides that sync, so bucket and
    /// store writes commit atomically per close).
    pub fn persist_levels(&mut self, ledger_seq: u64) {
        let Some(disk) = self.disk.clone() else {
            return;
        };
        let mut disk = disk.borrow_mut();
        for i in 0..NUM_LEVELS {
            let h = self.level_hash(i);
            // A spilled level is already durable under the same hash.
            if let LevelSlot::Ram(b) = &self.levels[i] {
                if self.synced[i] != Some(h) {
                    disk.write(&level_key(i), b.encoded_bytes());
                }
            }
        }
        let mut meta = Vec::new();
        BUCKET_META_VERSION.encode(&mut meta);
        ledger_seq.encode(&mut meta);
        for i in 0..NUM_LEVELS {
            self.level_hash(i); // ensure cached
        }
        for i in 0..NUM_LEVELS {
            self.level_hashes[i]
                .expect("cached above")
                .encode(&mut meta);
            (self.levels[i].len() as u64).encode(&mut meta);
        }
        disk.write(BUCKET_META_KEY, &meta);
    }

    /// Records that the disk sync following [`BucketList::persist_levels`]
    /// succeeded: every level blob staged there is now durable. Cold
    /// levels (≥ [`SPILL_MIN_LEVEL`]) drop their RAM copy — only when a
    /// disk holds the blob; without one the RAM copy is the only copy.
    pub fn note_synced(&mut self) {
        let spill_ok = self.disk.is_some();
        for i in 0..NUM_LEVELS {
            let h = self.level_hash(i);
            self.synced[i] = Some(h);
            if spill_ok && i >= SPILL_MIN_LEVEL {
                if let LevelSlot::Ram(b) = &self.levels[i] {
                    if !b.is_empty() {
                        self.levels[i] = LevelSlot::Spilled {
                            hash: h,
                            len: b.len(),
                            bytes: b.encoded_len(),
                        };
                    }
                }
            }
        }
    }

    /// Rebuilds a bucket list from a data disk, verifying every level
    /// blob against `expected_hashes` (the per-level hashes the node's
    /// write-ahead LCL record vouches for). Returns the list and the
    /// ledger sequence its blobs describe, or `None` if anything is
    /// missing, torn, or divergent — callers then fall back to archive
    /// replay.
    pub fn recover(
        disk: Rc<RefCell<DurableStore>>,
        expected_hashes: &[Hash256],
    ) -> Option<(BucketList, u64)> {
        if expected_hashes.len() != NUM_LEVELS {
            return None;
        }
        let meta = disk.borrow().read(BUCKET_META_KEY)?;
        let mut input = meta.as_slice();
        let version = u32::decode(&mut input).ok()?;
        if version != BUCKET_META_VERSION {
            return None;
        }
        let ledger_seq = u64::decode(&mut input).ok()?;
        let mut list = BucketList::new();
        let store = disk.borrow();
        for (i, expected) in expected_hashes.iter().enumerate() {
            let hash = Hash256::decode(&mut input).ok()?;
            let len = u64::decode(&mut input).ok()? as usize;
            if hash != *expected {
                return None;
            }
            // Length-checked read: the level-hash check below is the
            // verification (a whole-frame SHA-256 would be a second
            // pass over the same bytes).
            let blob = store.read_unverified(&level_key(i)).or_else(|| {
                // An always-empty level may never have been written.
                (len == 0).then_some(&[][..])
            })?;
            if sha256(blob) != hash {
                return None;
            }
            if i >= SPILL_MIN_LEVEL && len > 0 {
                list.levels[i] = LevelSlot::Spilled {
                    hash,
                    len,
                    bytes: blob.len() as u64,
                };
            } else {
                let bucket = Bucket::decode(blob).ok()?;
                if bucket.len() != len {
                    return None;
                }
                list.levels[i] = LevelSlot::Ram(bucket);
            }
            list.level_hashes[i] = Some(hash);
            list.synced[i] = Some(hash);
        }
        drop(store);
        list.disk = Some(disk);
        Some((list, ledger_seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::PublicKey;
    use stellar_ledger::entry::{AccountEntry, AccountId};

    fn change(n: u64, balance: i64) -> (LedgerKey, Option<LedgerEntry>) {
        let id = AccountId(PublicKey(n));
        (
            LedgerKey::Account(id),
            Some(LedgerEntry::Account(AccountEntry::new(id, balance))),
        )
    }

    fn delete(n: u64) -> (LedgerKey, Option<LedgerEntry>) {
        (LedgerKey::Account(AccountId(PublicKey(n))), None)
    }

    fn slot_counts(bl: &BucketList) -> Vec<usize> {
        bl.levels.iter().map(LevelSlot::len).collect()
    }

    #[test]
    fn hash_changes_with_batches() {
        let mut bl = BucketList::new();
        let h0 = bl.hash();
        bl.add_batch(1, &[change(1, 10)]);
        let h1 = bl.hash();
        assert_ne!(h0, h1);
        bl.add_batch(2, &[change(1, 20)]);
        assert_ne!(h1, bl.hash());
    }

    #[test]
    fn identical_histories_identical_hashes() {
        let mut a = BucketList::new();
        let mut b = BucketList::new();
        for seq in 1..=100u64 {
            let batch = [change(seq % 7, seq as i64)];
            a.add_batch(seq, &batch);
            b.add_batch(seq, &batch);
        }
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn spills_move_entries_down() {
        let mut bl = BucketList::new();
        for seq in 1..=16u64 {
            bl.add_batch(seq, &[change(seq, seq as i64)]);
        }
        // After 16 ledgers, level-0 spilled at 4, 8, 12, 16 and level-1
        // spilled at 16.
        assert!(!bl.levels[1].is_empty() || !bl.levels[2].is_empty());
        assert_eq!(bl.reconstruct_state().len(), 16);
    }

    #[test]
    fn reconstruct_state_sees_latest_versions_and_deletes() {
        let mut bl = BucketList::new();
        bl.add_batch(1, &[change(1, 10), change(2, 20)]);
        bl.add_batch(2, &[change(1, 99)]);
        bl.add_batch(3, &[delete(2)]);
        let state = bl.reconstruct_state();
        assert_eq!(state.len(), 1);
        match &state[0] {
            LedgerEntry::Account(a) => assert_eq!(a.balance, 99),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn seeded_list_reconstructs_seed() {
        let entries: Vec<LedgerEntry> = (0..50u64)
            .map(|n| LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(n)), n as i64)))
            .collect();
        let bl = BucketList::seed(entries.clone());
        let mut got = bl.reconstruct_state();
        got.sort_by_key(|e| e.key());
        assert_eq!(got.len(), entries.len());
    }

    #[test]
    fn diff_levels_detects_divergence() {
        let mut a = BucketList::new();
        let mut b = BucketList::new();
        for seq in 1..=20u64 {
            let batch = [change(seq, seq as i64)];
            a.add_batch(seq, &batch);
            b.add_batch(seq, &batch);
        }
        assert!(a.diff_levels(&mut b).is_empty());
        b.add_batch(21, &[change(999, 1)]);
        a.add_batch(21, &[]);
        assert!(!a.diff_levels(&mut b).is_empty());
    }

    #[test]
    fn merge_work_grows_with_account_count() {
        // The Fig. 9 effect: more accounts ⇒ bigger buckets ⇒ more merge
        // work per spill.
        let work = |n: u64| {
            let mut bl = BucketList::new();
            for seq in 1..=64u64 {
                let batch: Vec<_> = (0..n).map(|k| change(seq * 1000 + k, 1)).collect();
                bl.add_batch(seq, &batch);
            }
            bl.merge_work
        };
        assert!(work(20) > work(2) * 5);
    }

    #[test]
    fn hash_cache_consistent_with_recompute() {
        let mut bl = BucketList::new();
        for seq in 1..=40u64 {
            bl.add_batch(seq, &[change(seq % 5, seq as i64)]);
        }
        let cached = bl.hash();
        // Recompute from a fresh clone with no caches.
        let mut fresh = bl.clone();
        fresh.level_hashes = vec![None; NUM_LEVELS];
        assert_eq!(cached, fresh.hash());
    }

    #[test]
    fn disk_spill_preserves_hashes_and_state() {
        let entries: Vec<LedgerEntry> = (0..200u64)
            .map(|n| LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(n)), n as i64)))
            .collect();
        let mut ram = BucketList::seed(entries.clone());
        let expected = ram.hash();

        let disk = Rc::new(RefCell::new(DurableStore::new()));
        let mut spilled = BucketList::seed(entries);
        spilled.attach_disk(disk.clone(), 1);
        // The seeded bottom level must have left RAM.
        assert_eq!(spilled.resident_bytes(), 0);
        assert!(disk.borrow().read(&level_key(NUM_LEVELS - 1)).is_some());
        assert_eq!(spilled.hash(), expected);
        assert_eq!(slot_counts(&spilled).iter().sum::<usize>(), 200);
        assert_eq!(spilled.reconstruct_state().len(), 200);
        // Archive blob path reads the durable bytes directly.
        assert_eq!(
            sha256(&spilled.level_bytes(NUM_LEVELS - 1)),
            spilled.level_hashes()[NUM_LEVELS - 1]
        );

        // Batches keep both lists in lockstep even across deep reloads.
        for seq in 2..=40u64 {
            let batch = [change(seq % 9, seq as i64)];
            ram.add_batch(seq, &batch);
            spilled.add_batch(seq, &batch);
            spilled.persist_levels(seq);
            assert!(disk.borrow_mut().sync());
            spilled.note_synced();
            assert_eq!(ram.hash(), spilled.hash(), "seq {seq}");
        }
    }

    #[test]
    fn resident_bytes_are_ram_levels_with_their_offsets() {
        let entries = (0..200u64)
            .map(|n| LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(n)), n as i64)));
        let mut bl = BucketList::seed(entries);
        let bottom = bl.level_bytes(NUM_LEVELS - 1).len() as u64;
        assert_eq!(bl.resident_bytes(), bottom + 200 * 4);
        bl.attach_disk(Rc::new(RefCell::new(DurableStore::new())), 1);
        assert_eq!(
            bl.resident_bytes(),
            0,
            "the spilled bottom level costs no RAM"
        );
        assert_eq!(bl.spilled_bytes(), bottom);
        bl.add_batch(2, &[change(1, 5), change(2, 6), delete(3)]);
        assert_eq!(bl.resident_bytes(), bl.level_bytes(0).len() as u64 + 3 * 4);
    }

    #[test]
    fn note_synced_without_a_disk_keeps_deep_levels_resident() {
        // Regression: a diskless list must never mark a deep level
        // Spilled — the RAM copy is the only copy, and dropping it both
        // loses the data (ensure_ram panics later) and zeroes the
        // level's resident-byte accounting.
        let entries: Vec<LedgerEntry> = (0..200u64)
            .map(|n| LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(n)), n as i64)))
            .collect();
        let mut bl = BucketList::seed(entries);
        let expected = bl.hash();
        bl.note_synced();
        assert!(bl.resident_bytes() > 0, "deep level dropped without a disk");
        assert_eq!(bl.hash(), expected);
        assert_eq!(bl.reconstruct_state().len(), 200);
    }

    #[test]
    fn recover_roundtrip_and_tamper_detection() {
        let entries: Vec<LedgerEntry> = (0..150u64)
            .map(|n| LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(n)), n as i64)))
            .collect();
        let disk = Rc::new(RefCell::new(DurableStore::new()));
        let mut bl = BucketList::seed(entries);
        bl.attach_disk(disk.clone(), 1);
        for seq in 2..=10u64 {
            bl.add_batch(seq, &[change(seq, seq as i64)]);
            bl.persist_levels(seq);
            assert!(disk.borrow_mut().sync());
            bl.note_synced();
        }
        let want = bl.hash();
        let hashes = bl.level_hashes();

        let (mut back, seq) = BucketList::recover(disk.clone(), &hashes).unwrap();
        assert_eq!(seq, 10);
        assert_eq!(back.hash(), want);
        assert_eq!(slot_counts(&back), slot_counts(&bl));

        // Divergent expected hashes are refused.
        let mut wrong = hashes.clone();
        wrong[0] = Hash256::ZERO;
        assert!(BucketList::recover(disk.clone(), &wrong).is_none());

        // A torn level blob is refused even with honest expectations.
        let mut torn = disk.borrow().clone();
        torn.write(&level_key(NUM_LEVELS - 1), b"partial");
        torn.tear_next_crash();
        torn.crash();
        assert!(BucketList::recover(Rc::new(RefCell::new(torn)), &hashes).is_none());
    }
}
