//! The memory census: exact, deterministic bytes per holder, summed over
//! every node of a run.
//!
//! Each holder estimates its own heap from lengths (`resident_bytes()`,
//! see `stellar_crypto::heap`), so two runs of one seed report the same
//! census. A payload that several holders share through one `Arc` (a
//! flooded message, a transaction, a set, a consensus value) is counted
//! once across all of them. The census walks what exists at report time
//! and allocates nothing per entry, so taking it does not move the peak
//! it describes.

use crate::node::Node;
use crate::simulation::Simulation;

/// Heap bytes per holder, summed over every node of a run: validators
/// as they run or as they went down, and watchers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryCensus {
    /// Verified-signature caches.
    pub sig_caches: u64,
    /// Flood engines: seen generations, wants and advert batches, and
    /// the payload caches with their share of each payload.
    pub flood: u64,
    /// Ledger stores with their data disks, the write-ahead disks, and
    /// the genesis store a reboot starts from.
    pub stores: u64,
    /// Bucket lists' resident levels, the genesis list's included.
    pub bucket_lists: u64,
    /// History archives.
    pub archives: u64,
    /// Pending-transaction queues and known transaction sets.
    pub queues: u64,
    /// Metrics registries, flight recorders, span buffers, slot records
    /// and close statistics.
    pub telemetry: u64,
    /// SCP slots: statements, quorum kernels and federated-voting memos.
    pub scp: u64,
    /// Scheduled events, with their share of each payload they carry.
    pub events: u64,
}

impl MemoryCensus {
    /// Every holder's bytes together.
    pub fn total(&self) -> u64 {
        self.sig_caches
            + self.flood
            + self.stores
            + self.bucket_lists
            + self.archives
            + self.queues
            + self.telemetry
            + self.scp
            + self.events
    }

    /// Adds one node's holders.
    fn add_node(&mut self, node: &Node) {
        self.flood += node.engine.resident_bytes();
        self.telemetry += node.horizon_load.resident_bytes();
        let Some(v) = node.validator() else {
            return;
        };
        let h = &v.herder;
        self.sig_caches += h.sig_cache.resident_bytes();
        let data_disk = h.store.disk().map_or(0, |d| d.borrow().resident_bytes());
        self.stores += h.store.resident_bytes() + data_disk + h.persist.resident_bytes();
        self.bucket_lists += h.buckets.resident_share();
        self.archives += h.archive.resident_bytes();
        self.queues += h.queue.resident_bytes() + h.tx_sets_resident_bytes();
        self.telemetry += h.records_resident_bytes();
        self.scp += v.scp.resident_bytes();
    }
}

impl Simulation {
    /// The memory census as of now.
    pub fn census(&self) -> MemoryCensus {
        let (stores, bucket_lists) = self.genesis.resident_bytes();
        let mut census = MemoryCensus {
            stores,
            bucket_lists,
            events: self.queue.resident_bytes(),
            ..MemoryCensus::default()
        };
        for node in self.nodes.values() {
            census.add_node(node);
        }
        census
    }
}
