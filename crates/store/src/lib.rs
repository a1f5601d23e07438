//! Disk-backed ledger storage: the pluggable backend layer.
//!
//! The paper's nodes keep the ledger in RAM; at 10M+ accounts that stops
//! being free. This crate provides the alternative: [`DiskBackend`], a
//! log-structured store over the simulated durable disk in
//! `crates/persist`, with a sparse in-memory key index and a bounded
//! write-back cache — dirty per-close deltas layered over committed
//! segment files. Every live record carries its own CRC-32C, so a cache
//! miss reads and checks one record, not a whole segment; the segment's
//! whole-frame SHA-256 is verified only at recovery (see [`disk`] for the
//! format).
//!
//! The backend choice threads through `sim`/`herder`/`horizon` behind
//! one constructor, [`open`]: every node runs identically — and produces
//! byte-identical ledger header and bucket hashes — on either backend.
//! [`BackendKind::from_env`] lets `STELLAR_STORE_BACKEND=disk` flip an
//! entire test run onto the disk backend.
//!
//! [`recover_node`] is the durable-restart path: it rebuilds the ledger
//! store *and* the bucket list from the data disk, cross-checking the
//! store manifest, the bucket manifest, and the caller's write-ahead LCL
//! record (header + bucket hashes) against each other. Any mismatch —
//! torn manifest, divergent sequence, wrong snapshot hash — returns
//! `None` and the caller falls back to genesis replay + catch-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;

pub use disk::{DiskBackend, DiskConfig};

use std::cell::RefCell;
use std::rc::Rc;
use stellar_buckets::BucketList;
use stellar_crypto::Hash256;
use stellar_ledger::entry::LedgerEntry;
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::LedgerStore;
use stellar_persist::DurableStore;

/// Which storage backend a node runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The original in-RAM maps.
    #[default]
    Mem,
    /// The log-structured disk backend.
    Disk,
}

impl BackendKind {
    /// Reads `STELLAR_STORE_BACKEND` ("disk" selects [`BackendKind::Disk`];
    /// anything else, or unset, selects [`BackendKind::Mem`]). This is how
    /// the CI harness runs the whole suite once per backend.
    pub fn from_env() -> BackendKind {
        match std::env::var("STELLAR_STORE_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("disk") => BackendKind::Disk,
            _ => BackendKind::Mem,
        }
    }

    /// The backend's short name ("mem" / "disk").
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Disk => "disk",
        }
    }
}

/// Builds a node's ledger store from a genesis template on the chosen
/// backend. `Mem` clones the template; `Disk` streams the template's
/// entries, in key order, onto a fresh data disk and boots it the way
/// [`recover_node`] boots a restart ([`open_streaming`]). Beyond the store
/// it returns, a disk open holds one segment being sealed, or read back,
/// at a time.
pub fn open(genesis: &LedgerStore, kind: BackendKind, cfg: &DiskConfig) -> LedgerStore {
    match kind {
        BackendKind::Mem => genesis.clone(),
        BackendKind::Disk => open_streaming(genesis.all_entries(), genesis.next_offer_id(), cfg),
    }
}

/// Disk-backed [`open`] from a raw entry stream (large benchmarks build
/// entries on the fly instead of materializing a RAM store first): the
/// entries are sealed into segments as they arrive, the manifest follows,
/// one sync lands them, and the store boots through
/// [`DiskBackend::recover`] with an empty cache, exactly as a restarted
/// node does. A later version of a key replaces an earlier one.
pub fn open_streaming(
    entries: impl IntoIterator<Item = LedgerEntry>,
    next_offer_id: u64,
    cfg: &DiskConfig,
) -> LedgerStore {
    let store = DiskBackend::genesis(entries, next_offer_id, cfg.clone())
        .map(|backend| LedgerStore::with_backend(Box::new(backend)));
    // A disk nobody else holds yet cannot fail its sync or lose a write.
    assert!(store.is_some(), "a fresh data disk refused its genesis");
    store.unwrap_or_default()
}

/// Rebuilds a node's ledger store and bucket list from its data disk
/// after a crash, verified end to end against the write-ahead LCL record
/// (`header` + `bucket_hashes`):
///
/// * the store manifest, the bucket manifest, and the header must agree
///   on the ledger sequence (the data disk syncs before the LCL record,
///   so a mismatch means the crash split them);
/// * every bucket blob must hash to its expected level hash, and the
///   resulting bucket list must reproduce `header.snapshot_hash`.
///
/// Returns `None` on any discrepancy — the caller falls back to genesis
/// replay plus archive catch-up, which is always correct, just slower.
pub fn recover_node(
    disk: Rc<RefCell<DurableStore>>,
    header: &LedgerHeader,
    bucket_hashes: &[Hash256],
    cfg: &DiskConfig,
) -> Option<(LedgerStore, BucketList)> {
    let (backend, store_seq) = DiskBackend::recover(disk.clone(), cfg.clone())?;
    if store_seq != header.ledger_seq {
        return None;
    }
    let (mut buckets, bucket_seq) = BucketList::recover(disk, bucket_hashes)?;
    if bucket_seq != header.ledger_seq {
        return None;
    }
    if buckets.hash() != header.snapshot_hash {
        return None;
    }
    Some((LedgerStore::with_backend(Box::new(backend)), buckets))
}
