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
use stellar_ledger::{LedgerBackend, LedgerStore};
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

/// Entries applied per batch while streaming a genesis state onto disk —
/// bounds the transient dirty set (each chunk is flushed before the
/// next).
const GENESIS_CHUNK: usize = 8192;

/// Builds a node's ledger store from a genesis template on the chosen
/// backend. `Mem` clones the template; `Disk` streams its entries onto a
/// fresh simulated disk in flushed chunks, so even a 10M-account genesis
/// never holds more than a chunk of dirty state plus the configured
/// cache.
pub fn open(genesis: &LedgerStore, kind: BackendKind, cfg: &DiskConfig) -> LedgerStore {
    match kind {
        BackendKind::Mem => genesis.clone(),
        BackendKind::Disk => open_streaming(genesis.all_entries(), genesis.next_offer_id(), cfg),
    }
}

/// Disk-backed [`open`] from a raw entry stream (large benchmarks build
/// entries on the fly instead of materializing a RAM store first).
pub fn open_streaming(
    entries: impl IntoIterator<Item = LedgerEntry>,
    next_offer_id: u64,
    cfg: &DiskConfig,
) -> LedgerStore {
    let mut backend = DiskBackend::new(cfg.clone());
    let mut feed = Vec::with_capacity(GENESIS_CHUNK);
    for e in entries {
        feed.push((e.key(), Some(e)));
        if feed.len() == GENESIS_CHUNK {
            backend.apply(&feed);
            feed.clear();
            assert!(backend.flush(0), "genesis flush cannot fail");
        }
    }
    if !feed.is_empty() {
        backend.apply(&feed);
    }
    backend.set_next_offer_id(next_offer_id);
    assert!(backend.flush(0), "genesis flush cannot fail");
    LedgerStore::with_backend(Box::new(backend))
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
