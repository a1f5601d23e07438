//! A deterministic simulated durable store.
//!
//! stellar-core persists its latest SCP messages and ledger state to disk
//! *before* emitting them, so that a rebooted validator cannot forget votes
//! it already cast and equivocate (paper §3, §5.4). This crate models the
//! node-local disk that discipline writes to: a key→record map with explicit
//! `write`/`sync` semantics and injectable crash faults.
//!
//! The fault model mirrors what real disks do to naive code:
//!
//! * **Lost unsynced writes** — `write` only stages a record; a `crash`
//!   before `sync` drops everything staged. Only synced records survive.
//! * **Failed fsyncs** — `fail_next_fsyncs(n)` makes the next `n` calls to
//!   `sync` return `false` while leaving the staged records pending, like
//!   an EIO from fsync. Callers must not act (emit messages) on state they
//!   could not make durable.
//! * **Torn records** — `tear_next_crash()` makes the next `crash` commit a
//!   strict prefix of the oldest staged record in place of the key's old
//!   value, modelling a crash mid-overwrite. Torn records never
//!   deserialize: every record is framed with a length prefix and a
//!   trailing SHA-256, so `read` reports them as absent.
//!
//! Everything is in-memory and deterministic — no real I/O — so simulation
//! runs stay byte-for-byte reproducible.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::ops::Bound;
use stellar_crypto::sha256::sha256;

/// Bytes of framing overhead added to each record: an 8-byte big-endian
/// payload length plus a 32-byte SHA-256 of the payload.
pub const FRAME_OVERHEAD: usize = 8 + 32;

/// Frames a payload for durable storage: `len(u64 BE) ‖ payload ‖ sha256(payload)`.
///
/// The trailing hash means a record is only readable if the *entire* frame
/// made it to disk: any strict prefix either truncates the payload (length
/// mismatch) or truncates/corrupts the hash.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(sha256(payload).as_bytes());
    out
}

/// Recovers the payload from a framed record, or `None` if the record is
/// torn, truncated, or corrupt. No strict prefix of a valid frame unframes
/// successfully (the embedded length pins the exact frame size).
pub fn unframe(record: &[u8]) -> Option<Vec<u8>> {
    if record.len() < FRAME_OVERHEAD {
        return None;
    }
    let len = u64::from_be_bytes(record[..8].try_into().ok()?) as usize;
    if record.len() != FRAME_OVERHEAD + len {
        return None;
    }
    let payload = &record[8..8 + len];
    let digest = &record[8 + len..];
    if sha256(payload).as_bytes() != digest {
        return None;
    }
    Some(payload.to_vec())
}

/// Counters describing a store's lifetime I/O, for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Framed bytes accepted by `write` (whether or not later synced).
    pub bytes_written: u64,
    /// Framed bytes made durable by successful `sync` calls.
    pub bytes_synced: u64,
    /// Successful `sync` calls.
    pub syncs: u64,
    /// `sync` calls failed by fault injection.
    pub failed_syncs: u64,
    /// `crash` calls observed.
    pub crashes: u64,
    /// Staged records dropped by crashes (lost unsynced writes).
    pub lost_writes: u64,
    /// Records committed torn (as an unreadable prefix) by crashes.
    pub torn_writes: u64,
}

/// The simulated durable store: a key→framed-record map plus a staging
/// area of unsynced writes.
///
/// A disabled store (persistence off) accepts and immediately discards all
/// writes — the configuration the amnesia chaos scenarios run under.
#[derive(Clone, Debug)]
pub struct DurableStore {
    enabled: bool,
    durable: BTreeMap<String, Vec<u8>>,
    /// Unsynced writes in write order. A later write to the same key
    /// shadows the earlier one at sync time (last write wins). `None`
    /// stages a deletion (file unlink), applied at the same sync.
    pending: Vec<(String, Option<Vec<u8>>)>,
    fail_next_fsyncs: u32,
    tear_next_crash: bool,
    stats: PersistStats,
}

impl Default for DurableStore {
    fn default() -> Self {
        DurableStore::new()
    }
}

impl DurableStore {
    /// A fresh, enabled store.
    pub fn new() -> DurableStore {
        DurableStore {
            enabled: true,
            durable: BTreeMap::new(),
            pending: Vec::new(),
            fail_next_fsyncs: 0,
            tear_next_crash: false,
            stats: PersistStats::default(),
        }
    }

    /// A store with persistence disabled: writes vanish, reads find nothing.
    pub fn disabled() -> DurableStore {
        let mut s = DurableStore::new();
        s.enabled = false;
        s
    }

    /// Whether persistence is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stages a record for `key`. Nothing is durable until `sync` succeeds.
    pub fn write(&mut self, key: &str, payload: &[u8]) {
        if !self.enabled {
            return;
        }
        let rec = frame(payload);
        self.stats.bytes_written += rec.len() as u64;
        self.pending.push((key.to_string(), Some(rec)));
    }

    /// Stages a deletion of `key` (segment reclamation after compaction).
    /// Like `write`, nothing happens until `sync` succeeds.
    pub fn remove(&mut self, key: &str) {
        if !self.enabled {
            return;
        }
        self.pending.push((key.to_string(), None));
    }

    /// Flushes staged writes to durable storage. Returns `false` (leaving
    /// the writes staged) while fsync-failure faults are armed; callers
    /// must treat `false` as "this state is NOT on disk yet".
    pub fn sync(&mut self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.fail_next_fsyncs > 0 {
            self.fail_next_fsyncs -= 1;
            self.stats.failed_syncs += 1;
            return false;
        }
        for (key, slot) in self.pending.drain(..) {
            match slot {
                Some(rec) => {
                    self.stats.bytes_synced += rec.len() as u64;
                    self.durable.insert(key, rec);
                }
                None => {
                    self.durable.remove(&key);
                }
            }
        }
        self.stats.syncs += 1;
        true
    }

    /// Simulates a process crash: staged (unsynced) writes are lost. If a
    /// torn-write fault is armed, the oldest staged record is instead
    /// committed as a strict prefix — overwriting the key's previous value
    /// with garbage, as a crash mid-overwrite would.
    pub fn crash(&mut self) {
        self.stats.crashes += 1;
        if self.tear_next_crash {
            self.tear_next_crash = false;
            // The oldest staged *write* tears; staged deletions have no
            // bytes to half-apply.
            let oldest = self
                .pending
                .iter()
                .find_map(|(key, slot)| slot.as_ref().map(|rec| (key.clone(), rec.clone())));
            if let Some((key, rec)) = oldest {
                let cut = (rec.len() / 2).max(1).min(rec.len() - 1);
                self.durable.insert(key, rec[..cut].to_vec());
                self.stats.torn_writes += 1;
            }
        }
        self.stats.lost_writes += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Reads the durable record for `key`, verifying its frame. Torn or
    /// corrupt records read as absent — recovery code falls back to the
    /// history archive, it never trusts a half-written snapshot.
    pub fn read(&self, key: &str) -> Option<Vec<u8>> {
        unframe(self.durable.get(key)?)
    }

    /// The payload of the durable record for `key`, borrowed in place,
    /// with the frame's length checked but its SHA-256 **not** verified.
    ///
    /// The length check alone still rejects a torn record (a strict
    /// prefix of its frame can never match the embedded length), so this
    /// never hands out a half-written record. It does not detect a
    /// full-length record with corrupt bytes: the caller must verify
    /// whatever it slices out — the disk backend checks each record's
    /// CRC-32C, spilled bucket blobs are checked against their level
    /// hash — and recovery, which trusts nothing, uses [`Self::read`].
    pub fn read_unverified(&self, key: &str) -> Option<&[u8]> {
        let record = self.durable.get(key)?;
        let len = u64::from_be_bytes(record.get(..8)?.try_into().ok()?);
        let len = usize::try_from(len).ok()?;
        if len.checked_add(FRAME_OVERHEAD) != Some(record.len()) {
            return None;
        }
        Some(&record[8..8 + len])
    }

    /// The durable keys starting with `prefix`, in key order — torn
    /// records included, so recovery can clear them away.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.durable
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(key, _)| key)
            .take_while(|key| key.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// The raw framed record for `key`, including torn ones (for tests).
    pub fn raw(&self, key: &str) -> Option<&[u8]> {
        self.durable.get(key).map(Vec::as_slice)
    }

    /// Arms the next `n` calls to `sync` to fail.
    pub fn fail_next_fsyncs(&mut self, n: u32) {
        self.fail_next_fsyncs = n;
    }

    /// Arms the next `crash` to tear the oldest staged record.
    pub fn tear_next_crash(&mut self) {
        self.tear_next_crash = true;
    }

    /// Lifetime I/O counters.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Number of durable records (readable or torn).
    pub fn durable_len(&self) -> usize {
        self.durable.len()
    }

    /// Total bytes occupying durable storage (framed records).
    pub fn durable_bytes(&self) -> u64 {
        self.durable.values().map(|rec| rec.len() as u64).sum()
    }

    /// Number of staged, not-yet-synced writes.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_writes_survive_crash() {
        let mut s = DurableStore::new();
        s.write("lcl", b"header-1");
        assert!(s.sync());
        s.crash();
        assert_eq!(s.read("lcl").unwrap(), b"header-1");
        assert_eq!(s.read_unverified("lcl").unwrap(), b"header-1");
    }

    #[test]
    fn unsynced_writes_are_lost_on_crash() {
        let mut s = DurableStore::new();
        s.write("lcl", b"header-1");
        assert!(s.sync());
        s.write("lcl", b"header-2");
        s.crash();
        assert_eq!(s.read("lcl").unwrap(), b"header-1");
        assert_eq!(s.stats().lost_writes, 1);
    }

    #[test]
    fn failed_fsync_keeps_writes_pending() {
        let mut s = DurableStore::new();
        s.fail_next_fsyncs(1);
        s.write("scp/7", b"snapshot");
        assert!(!s.sync());
        assert_eq!(s.read("scp/7"), None);
        assert_eq!(s.pending_len(), 1);
        assert!(s.sync(), "fault is consumed");
        assert_eq!(s.read("scp/7").unwrap(), b"snapshot");
    }

    #[test]
    fn torn_crash_commits_unreadable_prefix() {
        let mut s = DurableStore::new();
        s.write("scp/7", b"good snapshot");
        assert!(s.sync());
        s.write("scp/7", b"newer snapshot, much longer than the old one");
        s.tear_next_crash();
        s.crash();
        // The torn overwrite destroyed the old record and the new one
        // never fully landed: the key reads as absent.
        assert_eq!(s.read("scp/7"), None);
        assert_eq!(
            s.read_unverified("scp/7"),
            None,
            "length check alone refuses it"
        );
        assert!(s.raw("scp/7").is_some(), "garbage is on disk");
        assert_eq!(s.stats().torn_writes, 1);
    }

    #[test]
    fn last_write_wins_within_one_sync() {
        let mut s = DurableStore::new();
        s.write("k", b"a");
        s.write("k", b"b");
        assert!(s.sync());
        assert_eq!(s.read("k").unwrap(), b"b");
    }

    #[test]
    fn disabled_store_drops_everything() {
        let mut s = DurableStore::disabled();
        s.write("lcl", b"header");
        assert!(s.sync());
        assert_eq!(s.read("lcl"), None);
        assert_eq!(s.durable_len(), 0);
    }

    #[test]
    fn no_strict_prefix_of_a_frame_unframes() {
        let rec = frame(b"some payload bytes");
        assert_eq!(unframe(&rec).unwrap(), b"some payload bytes");
        for cut in 0..rec.len() {
            assert_eq!(unframe(&rec[..cut]), None, "prefix of len {cut}");
        }
    }

    #[test]
    fn staged_removal_applies_at_sync() {
        let mut s = DurableStore::new();
        s.write("seg/1", b"old segment");
        assert!(s.sync());
        s.remove("seg/1");
        s.write("seg/2", b"compacted segment");
        assert!(s.sync());
        assert_eq!(s.read("seg/1"), None);
        assert_eq!(s.durable_len(), 1);
        assert_eq!(s.read("seg/2").unwrap(), b"compacted segment");
    }

    #[test]
    fn unsynced_removal_is_lost_on_crash() {
        let mut s = DurableStore::new();
        s.write("seg/1", b"old segment");
        assert!(s.sync());
        s.remove("seg/1");
        s.crash();
        assert_eq!(s.read("seg/1").unwrap(), b"old segment");
    }

    #[test]
    fn prefix_listing_sees_durable_keys_only_torn_ones_included() {
        let mut s = DurableStore::new();
        for key in ["lcl", "scp/10", "scp/9", "scq"] {
            s.write(key, b"synced");
        }
        assert!(s.sync());
        s.write("scp/11", b"staged, about to tear");
        assert_eq!(s.keys_with_prefix("scp/").len(), 2, "staged is not durable");
        s.tear_next_crash();
        s.crash();
        assert_eq!(s.keys_with_prefix("scp/"), ["scp/10", "scp/11", "scp/9"]);
        assert_eq!(s.read("scp/11"), None);
    }

    #[test]
    fn durable_bytes_tracks_live_records() {
        let mut s = DurableStore::new();
        s.write("a", b"12345");
        assert!(s.sync());
        assert_eq!(s.durable_bytes(), 5 + FRAME_OVERHEAD as u64);
        s.remove("a");
        assert!(s.sync());
        assert_eq!(s.durable_bytes(), 0);
    }

    #[test]
    fn empty_payload_round_trips() {
        let rec = frame(b"");
        assert_eq!(unframe(&rec).unwrap(), Vec::<u8>::new());
    }
}
