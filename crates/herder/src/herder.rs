//! The [`Herder`]: application state plus the SCP [`Driver`] hooks.
//!
//! The herder buffers every side effect SCP requests (outgoing envelopes,
//! timer arms, decisions) so the embedding layer — the deterministic
//! simulator or an in-process harness — can drain and route them. It also
//! owns the ledger store, bucket list, history archive, transaction queue,
//! and the upgrade policy, and performs ledger close when a slot
//! externalizes.

use crate::queue::TxQueue;
use crate::upgrade::{UpgradePolicy, UpgradeVerdict};
use crate::value::StellarValue;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Duration;
use stellar_buckets::{BucketList, HistoryArchive};
use stellar_crypto::codec::{Decode, Encode};
use stellar_crypto::sign::PublicKey;
use stellar_crypto::Hash256;
use stellar_ledger::apply::close_ledger;
use stellar_ledger::entry::{LedgerEntry, LedgerKey};
use stellar_ledger::header::{LedgerHeader, LedgerParams};
use stellar_ledger::sigcache::SigVerifyCache;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::{TransactionEnvelope, TxResult};
use stellar_ledger::txset::TransactionSet;
use stellar_ledger::StoreIoStats;
use stellar_persist::DurableStore;
use stellar_scp::driver::{Driver, Rejection, ScpEvent, TimerKind, Validity};
use stellar_scp::{Envelope, NodeId, SlotIndex, Value};
use stellar_telemetry::{NodeTelemetry, SpanPhase, TraceKind};

/// Durable-store key prefix of the SCP write-ahead records: per slot, the
/// latest NOMINATE and the latest ballot [`Envelope`] this node sent,
/// each written before the envelope is released.
pub const SCP_SLOT_PREFIX: &str = "scp/";

/// Durable-store key of the record holding our latest nomination
/// (`scp/<slot>/nominate`) or ballot (`scp/<slot>/ballot`) envelope for
/// `slot`.
pub fn scp_record_key(slot: SlotIndex, nomination: bool) -> String {
    let protocol = if nomination { "nominate" } else { "ballot" };
    format!("{SCP_SLOT_PREFIX}{slot}/{protocol}")
}

/// Durable-store key for the latest-closed-ledger record (written at
/// every ledger close).
pub const LCL_KEY: &str = "lcl";

/// Closed slots a node keeps protocol state for: SCP slots and learned
/// transaction sets older than `current_slot − SLOT_WINDOW` are only of
/// use to stragglers, who catch up from the archive instead.
pub const SLOT_WINDOW: u64 = 4;

/// How far above the current slot a peer's SCP envelope may name a slot
/// (production stellar-core's `LEDGER_VALIDITY_BRACKET`). Beyond it the
/// envelope is dropped and counted (`scp.far_future_dropped`), so a keyed
/// peer cannot make a node hold state for slots it may never reach.
pub const LEDGER_VALIDITY_BRACKET: u64 = 100;

/// The durable latest-closed-ledger record: the header plus the bucket
/// level hashes it commits to. Used after a restart to cross-check the
/// state rebuilt from the history archive against what this node had
/// actually made durable before crashing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LclRecord {
    /// The latest closed ledger header.
    pub header: LedgerHeader,
    /// Bucket-list level hashes at that close.
    pub bucket_hashes: Vec<Hash256>,
}

stellar_crypto::impl_codec_struct!(LclRecord {
    header,
    bucket_hashes,
});

/// One ledger close as seen by an off-consensus consumer — the feed the
/// Horizon ingestion indexer materializes its tables from. Produced only
/// when a consumer opted in via [`Herder::enable_ingest`]; consensus
/// never reads it, so enabling or disabling it cannot change what the
/// node externalizes (the twin-run determinism gate in CI asserts this).
#[derive(Clone, Debug)]
pub struct CloseEvent {
    /// Ledger sequence that closed.
    pub ledger_seq: u64,
    /// Consensus close time (seconds).
    pub close_time: u64,
    /// The applied transaction set, in apply order.
    pub txs: Vec<TransactionEnvelope>,
    /// Per-transaction results, parallel to `txs`.
    pub results: Vec<TxResult>,
    /// The ledger-entry change feed from this close: every created,
    /// updated (`Some`), or deleted (`None`) entry.
    pub changes: Vec<(LedgerKey, Option<LedgerEntry>)>,
}

/// Statistics from one ledger close (feeds the §7.3 metrics).
#[derive(Clone, Debug)]
pub struct CloseStats {
    /// Ledger sequence closed.
    pub ledger_seq: u64,
    /// Transactions applied (successfully or not).
    pub tx_count: usize,
    /// Operations applied.
    pub op_count: usize,
    /// Wall-clock time spent applying the set and re-hashing buckets.
    pub apply_time: Duration,
    /// Close time agreed by consensus.
    pub close_time: u64,
    /// Transactions that failed or were invalid.
    pub failed_tx_count: usize,
    /// Hash of the resulting ledger header. Nodes that applied the same
    /// slot must agree on it — the safety invariant chaos monitors check.
    pub header_hash: Hash256,
}

/// Static metric key for an outbound envelope of a statement class —
/// per-statement counters without a hot-path allocation.
fn envelope_out_key(class: &str) -> &'static str {
    match class {
        "nominate" => "scp.envelope_out.nominate",
        "prepare" => "scp.envelope_out.prepare",
        "confirm" => "scp.envelope_out.confirm",
        "externalize" => "scp.envelope_out.externalize",
        _ => "scp.envelope_out.other",
    }
}

/// Static metric key for an inbound envelope of a statement class.
fn envelope_in_key(class: &str) -> &'static str {
    match class {
        "nominate" => "scp.envelope_in.nominate",
        "prepare" => "scp.envelope_in.prepare",
        "confirm" => "scp.envelope_in.confirm",
        "externalize" => "scp.envelope_in.externalize",
        _ => "scp.envelope_in.other",
    }
}

/// The transaction sets the values of `env` name.
pub(crate) fn named_tx_sets(env: &Envelope) -> impl Iterator<Item = Hash256> {
    let values = env.statement.kind.values().into_iter();
    values.filter_map(|v| StellarValue::from_scp(&v).map(|sv| sv.tx_set_hash))
}

/// Trace label for a timer kind.
fn timer_name(kind: TimerKind) -> &'static str {
    match kind {
        TimerKind::Nomination => "nomination",
        TimerKind::Ballot => "ballot",
    }
}

/// Application state + buffered driver outputs for one validator.
pub struct Herder {
    /// This validator's id (for logs; SCP owns the signing identity).
    pub node_id: NodeId,
    /// The ledger entry store.
    pub store: LedgerStore,
    /// The bucket list (snapshot hashing).
    pub buckets: BucketList,
    /// The write-only history archive.
    pub archive: HistoryArchive,
    /// The current (latest closed) header.
    pub header: LedgerHeader,
    /// `header.hash()`, computed once per close: nomination checks every
    /// value it validates against it.
    header_hash: Hash256,
    /// Pending transactions.
    pub queue: TxQueue,
    /// Node-level verified-signature cache. One transaction is
    /// signature-checked at submission, nomination validation, and apply;
    /// this cache makes the second and third checks free. Purely an
    /// optimization: externalized state is identical with it disabled.
    pub sig_cache: SigVerifyCache,
    /// Governance stance.
    pub upgrade_policy: UpgradePolicy,
    /// Known transaction sets by hash; they also answer peers' demands.
    /// Sets that arrive through [`Herder::make_proposal`] and
    /// [`Herder::learn_tx_set`] are forgotten [`SLOT_WINDOW`] closes later.
    pub known_tx_sets: HashMap<Hash256, TransactionSet>,
    /// This node's proposal until an envelope it emits names it; a set a
    /// peer flooded first is that peer's to ship.
    unshipped: Option<Hash256>,
    /// Set hashes a validated or decided value named but this node lacks.
    pub(crate) lacking: BTreeSet<Hash256>,
    /// The slot that was current when each ageing set was last proposed
    /// or learned. A set inserted into `known_tx_sets` directly has no
    /// entry here and is never aged.
    tx_set_learned_at: HashMap<Hash256, SlotIndex>,
    /// Wall clock, supplied by the embedder (seconds). Close-time
    /// validation measures against this.
    pub now: u64,
    /// Millisecond clock for event timestamps (metrics resolution).
    pub clock_ms: u64,
    /// Maximum close-time skew tolerated in validation (seconds).
    pub max_time_slip: u64,
    /// Resolves peers' signature keys.
    pub key_registry: BTreeMap<NodeId, PublicKey>,
    /// This node's observability bundle: metrics registry + flight
    /// recorder, updated on the hot path by every driver hook.
    pub telemetry: NodeTelemetry,
    /// This node's simulated disk: our own SCP envelopes are written here
    /// write-ahead of their release, and the latest closed ledger at
    /// every close, so a crash-restarted node recovers without amnesia
    /// (§3, §5.4).
    pub persist: DurableStore,
    /// Slots with SCP records on `persist`, durable or staged; each is
    /// removed once its slot leaves the [`SLOT_WINDOW`].
    scp_record_slots: BTreeSet<SlotIndex>,
    /// Data-disk I/O counters as of the previous close — the per-close
    /// telemetry deltas are computed against this.
    last_store_stats: StoreIoStats,
    /// Close-event feed for the Horizon ingestion indexer. `None` (the
    /// default) costs nothing on the close path; [`Herder::enable_ingest`]
    /// turns it on with a bounded capacity.
    ingest_buffer: Option<VecDeque<CloseEvent>>,
    /// Capacity bound on `ingest_buffer`; an event pushed past it drops
    /// the oldest (`ingest.feed_dropped`), a gap the indexer detects by
    /// sequence number and backfills from the archive.
    ingest_cap: usize,

    /// The deadline (ms) of each SCP timer armed and neither fired nor
    /// cancelled: an arm replaces the entry, a cancel removes it. It is
    /// RAM, so a rebooted process starts with none.
    pub armed: BTreeMap<(SlotIndex, TimerKind), u64>,

    // ---- buffered driver outputs ----
    /// Envelopes to flood.
    pub outbox: Vec<Envelope>,
    /// Timer arms requested: (slot, kind, deadline in ms).
    pub timer_requests: Vec<(SlotIndex, TimerKind, u64)>,
    /// Protocol events (metrics), every kind but `EnvelopeProcessed`.
    pub events: Vec<(u64, ScpEvent)>,
    /// Ledger close statistics, most recent last.
    pub close_stats: Vec<CloseStats>,
    /// Decided slots not yet closed, with the value SCP externalized for
    /// each: a slot ahead of the ledger, or one whose transaction set has
    /// not arrived. [`Herder::close_decided`] closes them in slot order.
    pub decided: BTreeMap<SlotIndex, StellarValue>,
}

impl Herder {
    /// Creates a herder over a genesis state.
    pub fn new(
        node_id: NodeId,
        store: LedgerStore,
        key_registry: BTreeMap<NodeId, PublicKey>,
    ) -> Herder {
        let mut buckets = BucketList::seed(store.all_entries());
        // A disk-backed store brings a data disk; spill cold bucket
        // levels onto the same device so one sync per close covers both.
        if let Some(disk) = store.disk() {
            buckets.attach_disk(disk, 0);
        }
        let header = LedgerHeader::genesis(buckets.hash());
        Herder::from_recovered(node_id, store, buckets, header, key_registry)
    }

    /// Creates a herder from state recovered off a durable data disk
    /// (`stellar-store`'s `recover_node`): the ledger store, bucket list,
    /// and header resume exactly where the crashed node's last durable
    /// flush left them — no genesis replay. The archive starts empty;
    /// catch-up from a peer's archive fills the gap to the network tip.
    pub fn from_recovered(
        node_id: NodeId,
        store: LedgerStore,
        buckets: BucketList,
        header: LedgerHeader,
        key_registry: BTreeMap<NodeId, PublicKey>,
    ) -> Herder {
        debug_assert_eq!(header.snapshot_hash, {
            let mut b = buckets.clone();
            b.hash()
        });
        let last_store_stats = store.io_stats();
        Herder {
            node_id,
            store,
            buckets,
            archive: HistoryArchive::new(),
            header_hash: header.hash(),
            header,
            last_store_stats,
            ingest_buffer: None,
            ingest_cap: 0,
            queue: TxQueue::new(),
            sig_cache: SigVerifyCache::new(1 << 16),
            upgrade_policy: UpgradePolicy::default(),
            known_tx_sets: HashMap::new(),
            unshipped: None,
            lacking: BTreeSet::new(),
            tx_set_learned_at: HashMap::new(),
            now: 1,
            clock_ms: 1000,
            max_time_slip: 60,
            key_registry,
            telemetry: NodeTelemetry::new(node_id.0),
            persist: DurableStore::new(),
            scp_record_slots: BTreeSet::new(),
            armed: BTreeMap::new(),
            outbox: Vec::new(),
            timer_requests: Vec::new(),
            events: Vec::new(),
            close_stats: Vec::new(),
            decided: BTreeMap::new(),
        }
    }

    /// Turns on the close-event feed for an ingestion consumer, keeping
    /// at most `cap` pending events. Off-consensus: the feed is produced
    /// after the close is already final, so enabling it cannot change
    /// externalized headers or bucket hashes.
    pub fn enable_ingest(&mut self, cap: usize) {
        self.ingest_cap = cap.max(1);
        if self.ingest_buffer.is_none() {
            self.ingest_buffer = Some(VecDeque::new());
        }
    }

    /// Drains pending close events (oldest first).
    pub fn take_close_events(&mut self) -> Vec<CloseEvent> {
        match self.ingest_buffer.as_mut() {
            Some(buf) => buf.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Appends one close to the ingest feed (no-op when disabled). The
    /// change vector is moved in — the close path is done with it either
    /// way — while txs/results are cloned only when a consumer exists.
    fn push_close_event(
        &mut self,
        ledger_seq: u64,
        close_time: u64,
        set: &TransactionSet,
        results: &[TxResult],
        changes: Vec<(LedgerKey, Option<LedgerEntry>)>,
    ) {
        let Some(buf) = self.ingest_buffer.as_mut() else {
            return;
        };
        if buf.len() >= self.ingest_cap {
            buf.pop_front();
            self.telemetry.registry.inc("ingest.feed_dropped");
        }
        buf.push_back(CloseEvent {
            ledger_seq,
            close_time,
            txs: set.txs.clone(),
            results: results.to_vec(),
            changes,
        });
    }

    /// The slot index the network is currently deciding.
    pub fn current_slot(&self) -> SlotIndex {
        self.header.ledger_seq + 1
    }

    /// Assembles this validator's proposal for the next ledger: builds a
    /// transaction set from the queue and wraps it in a [`StellarValue`]
    /// with any desired upgrades.
    ///
    /// Returns the value plus the set, which is flooded only once an
    /// envelope this node emits names it
    /// ([`crate::validator::Validator::drain_outputs`]).
    pub fn make_proposal(&mut self) -> (StellarValue, TransactionSet) {
        let candidates = self.queue.candidates(&self.store);
        let set = TransactionSet::assemble(
            self.header_hash,
            candidates,
            self.header.params.max_tx_set_ops,
        );
        let close_time = self.now.max(self.header.close_time + 1);
        let learned = self.known_tx_sets.contains_key(&set.hash());
        let tx_set_hash = self.remember_tx_set(&set);
        self.unshipped = (!learned).then_some(tx_set_hash);
        let mut value = StellarValue::new(tx_set_hash, close_time);
        if self.upgrade_policy.governing {
            value.upgrades = self
                .upgrade_policy
                .desired
                .iter()
                .filter(|u| !u.is_satisfied(&self.header.params))
                .cloned()
                .collect();
        }
        // Tracing: every transaction in the proposal reached the
        // nominated-in-txset milestone on this node.
        if self.telemetry.spans.enabled() {
            let slot = self.current_slot();
            let t = self.clock_ms;
            for tx in &set.txs {
                self.telemetry
                    .span(tx.hash().prefix_u64(), t, SpanPhase::Nominated { slot });
            }
        }
        (value, set)
    }

    /// This node's proposal, the first time one of `envelopes` names it.
    pub(crate) fn take_named_proposal(&mut self, envelopes: &[Envelope]) -> Option<TransactionSet> {
        let hash = self.unshipped?;
        envelopes
            .iter()
            .flat_map(named_tx_sets)
            .find(|h| *h == hash)?;
        self.unshipped = None;
        self.known_tx_sets.get(&hash).cloned()
    }

    /// Registers a transaction set learned from a peer.
    pub fn learn_tx_set(&mut self, set: TransactionSet) {
        let hash = self.remember_tx_set(&set);
        self.unshipped = self.unshipped.filter(|h| *h != hash);
        self.close_decided();
    }

    /// Files `set` under its hash, stamped with the current slot for
    /// [`Herder::forget_old_tx_sets`]. Returns the hash.
    fn remember_tx_set(&mut self, set: &TransactionSet) -> Hash256 {
        let hash = set.hash();
        self.known_tx_sets.insert(hash, set.clone());
        self.tx_set_learned_at.insert(hash, self.current_slot());
        hash
    }

    /// Drops every set last learned more than [`SLOT_WINDOW`] slots ago,
    /// except one a decided slot is still waiting to close with.
    fn forget_old_tx_sets(&mut self) {
        let keep_from = self.current_slot().saturating_sub(SLOT_WINDOW);
        let before = self.tx_set_learned_at.len();
        self.tx_set_learned_at.retain(|hash, learned_at| {
            let keep =
                *learned_at >= keep_from || self.decided.values().any(|v| v.tx_set_hash == *hash);
            if !keep {
                self.known_tx_sets.remove(hash);
            }
            keep
        });
        let pruned = before - self.tx_set_learned_at.len();
        self.telemetry
            .registry
            .add("herder.tx_sets_pruned", pruned as u64);
    }

    /// Files the decision for `slot` unless the ledger is past it; a slot
    /// is filed once however often SCP re-announces its decision.
    fn file_decided(&mut self, slot: SlotIndex, value: StellarValue) {
        if slot < self.current_slot() {
            return;
        }
        match self.decided.entry(slot) {
            Entry::Vacant(e) => {
                e.insert(value);
            }
            Entry::Occupied(_) => self.telemetry.registry.inc("herder.stalled_dropped"),
        }
    }

    /// Closes every consecutive decided slot from the current one whose
    /// transaction set the herder holds; the rest stay filed (and keep
    /// their sets). Decisions for slots the ledger has passed are dropped.
    pub fn close_decided(&mut self) {
        loop {
            let current = self.current_slot();
            self.decided.retain(|slot, _| *slot >= current);
            let Some(due) = self.decided.first_entry().filter(|e| *e.key() == current) else {
                return;
            };
            let hash = due.get().tx_set_hash;
            let Some(set) = self.known_tx_sets.get(&hash).cloned() else {
                self.lacking.insert(hash);
                return;
            };
            let value = due.remove();
            self.close_slot(current, &set, &value);
        }
    }

    /// Validates a [`StellarValue`] for `slot` (the [`Driver`] hook body).
    fn validate_stellar_value(&mut self, value: &StellarValue, nomination: bool) -> Validity {
        // Close time must move forward and not outrun our clock too far.
        if value.close_time <= self.header.close_time {
            return Validity::Invalid;
        }
        if nomination && value.close_time > self.now + self.max_time_slip {
            return Validity::Invalid;
        }
        // Upgrades must be acceptable.
        for u in &value.upgrades {
            match self.upgrade_policy.classify(u) {
                UpgradeVerdict::Invalid => return Validity::Invalid,
                UpgradeVerdict::Desired | UpgradeVerdict::Valid => {}
            }
        }
        // We can fully validate only transaction sets we actually hold and
        // that chain from our current header.
        match self.known_tx_sets.get(&value.tx_set_hash) {
            Some(set) if set.prev_ledger_hash == self.header_hash => Validity::FullyValidated,
            Some(_) => Validity::Invalid,
            None => {
                self.lacking.insert(value.tx_set_hash);
                if nomination {
                    // Don't vote for sets we can't inspect.
                    Validity::Invalid
                } else {
                    Validity::MaybeValid
                }
            }
        }
    }

    /// The close sequence every path shares — live close, catch-up and
    /// restart replay: apply `set` on top of the current header, fold the
    /// changes into the bucket list, commit to the resulting snapshot
    /// hash, publish to the archive, advance the header, emit the ingest
    /// feed event and record [`CloseStats`]. Returns the time spent
    /// applying and re-hashing.
    ///
    /// With `expected` set (replay) the header this node computed must
    /// hash like the archived one; if it does not the function returns
    /// `None` with store and buckets already changed but the header not
    /// advanced and nothing published, emitted or recorded. Making the
    /// close durable (store flush, LCL record), pruning the queue and
    /// telemetry stay with the caller: live does them per close, replay
    /// once per batch.
    fn close(
        &mut self,
        set: &TransactionSet,
        close_time: u64,
        params: LedgerParams,
        expected: Option<&LedgerHeader>,
    ) -> Option<Duration> {
        let start = std::time::Instant::now();
        let result = close_ledger(
            &mut self.store,
            &self.header,
            set,
            close_time,
            params,
            &mut self.sig_cache,
        );
        self.buckets
            .add_batch(result.header.ledger_seq, &result.changes);
        let mut header = result.header;
        header.snapshot_hash = self.buckets.hash();
        let apply_time = start.elapsed();
        if expected.is_some_and(|e| e.hash() != header.hash()) {
            return None;
        }
        self.archive.publish(&header, set, &mut self.buckets);
        self.header_hash = header.hash();
        self.header = header;
        // Replay re-emits the feed too, so a recovering node's indexer
        // rebuilds the same tables it would have ingested live.
        self.push_close_event(
            self.header.ledger_seq,
            close_time,
            set,
            &result.results,
            result.changes,
        );
        let failed = result.results.iter().filter(|r| !r.is_success()).count();
        self.close_stats.push(CloseStats {
            ledger_seq: self.header.ledger_seq,
            tx_count: set.txs.len(),
            op_count: set.op_count(),
            apply_time,
            close_time,
            failed_tx_count: failed,
            header_hash: self.header_hash,
        });
        Some(apply_time)
    }

    /// Applies an externalized value: closes the ledger, updates buckets
    /// and archive, prunes the queue. Records [`CloseStats`].
    ///
    /// Returns `false` when `slot` is not the current one or its
    /// transaction set is not yet known: a future slot, or one whose set
    /// is missing, is filed and closes in its turn
    /// ([`Herder::close_decided`]); a past one is dropped.
    pub fn apply_externalized(&mut self, slot: SlotIndex, value: &StellarValue) -> bool {
        let set = self.known_tx_sets.get(&value.tx_set_hash);
        let Some(set) = set.filter(|_| slot == self.current_slot()).cloned() else {
            self.file_decided(slot, value.clone());
            return false;
        };
        self.close_slot(slot, &set, value);
        self.close_decided();
        true
    }

    /// Closes `slot` with `value` and its transaction set `set`, then
    /// forgets the sets that left the slot window.
    fn close_slot(&mut self, slot: SlotIndex, set: &TransactionSet, value: &StellarValue) {
        let mut params = self.header.params;
        for u in &value.upgrades {
            u.apply(&mut params);
        }
        let apply_time = self
            .close(set, value.close_time, params, None)
            .expect("no archived header to disagree with");
        self.queue.prune(&self.store);
        let apply_us = apply_time.as_micros() as u64;
        self.telemetry.registry.inc("ledger.closed");
        self.telemetry.registry.observe("ledger.apply_us", apply_us);
        self.telemetry
            .registry
            .observe("ledger.txset_size", set.txs.len() as u64);
        self.telemetry
            .registry
            .observe("ledger.ops_per_ledger", set.op_count() as u64);
        self.telemetry.trace(
            self.clock_ms,
            slot,
            TraceKind::LedgerClosed {
                tx_count: set.txs.len() as u32,
            },
        );
        // Data disk first, then the write-ahead LCL record: the LCL
        // never vouches for state the data disk has not made durable.
        self.flush_store();
        self.persist_lcl();
        // Per-transaction lifecycle milestones, in pipeline order. They
        // share one simulated-ms timestamp (the close is atomic in sim
        // time); wall-clock apply cost lives in `ledger.apply_us`.
        if self.telemetry.spans.enabled() {
            let t = self.clock_ms;
            for tx in &set.txs {
                let trace = tx.hash().prefix_u64();
                self.telemetry
                    .span(trace, t, SpanPhase::Externalized { slot });
                self.telemetry.span(trace, t, SpanPhase::Applied { slot });
            }
        }
        self.forget_old_tx_sets();
    }

    /// Catches up from a peer's history archive: replays every archived
    /// transaction set past our current ledger (paper §5.4 — the archive
    /// is how rejoining nodes recover history that naïve flooding will
    /// never retransmit). Returns the number of ledgers applied.
    ///
    /// Nothing is applied on the archive's word alone. Before a ledger
    /// touches `store` or `buckets`, its archived header must extend our
    /// tip and its archived set — decoded from the stored bytes and
    /// hashed afresh — must be the one that header names and must chain
    /// from our tip too; a tampered or foreign archive stops there
    /// (`ledger.catchup_refused`), and stored bytes that do not decode
    /// end the replay like a gap, leaving store, buckets and header at
    /// the last verified ledger. What only applying can check —
    /// results hash, fee pool, snapshot hash — is compared afterwards; a
    /// mismatch there means this node's own prior state differs from the
    /// archived chain's, and the header is not advanced over it.
    pub fn catch_up_from(&mut self, archive: &HistoryArchive) -> u64 {
        let Some(target) = archive.latest_seq() else {
            return 0;
        };
        let mut applied = 0;
        for seq in self.header.ledger_seq + 1..=target {
            let (Some(set), Some(expected)) = (archive.tx_set(seq), archive.header(seq)) else {
                break; // gap in the archive; cannot replay further
            };
            let tip = self.header_hash;
            if expected.ledger_seq != seq
                || expected.prev_header_hash != tip
                || set.prev_ledger_hash != tip
                || set.hash() != expected.tx_set_hash
            {
                self.telemetry.registry.inc("ledger.catchup_refused");
                break;
            }
            let closed = self.close(&set, expected.close_time, expected.params, Some(expected));
            if closed.is_none() {
                break; // our apply disagrees with the archived outcome
            }
            self.telemetry.registry.inc("ledger.catchup_applied");
            applied += 1;
        }
        if applied > 0 {
            self.queue.prune(&self.store);
            self.flush_store();
            self.persist_lcl();
            self.forget_old_tx_sets();
            self.close_decided();
        }
        applied
    }

    /// Makes the close durable on the data disk: stages changed bucket
    /// level blobs, flushes the ledger store (one sync covers both), and
    /// records the per-close I/O telemetry. A failed sync leaves
    /// everything cached and dirty — the next close retries; reads are
    /// unaffected.
    fn flush_store(&mut self) {
        let seq = self.header.ledger_seq;
        self.buckets.persist_levels(seq);
        if self.store.flush(seq) {
            self.buckets.note_synced();
        }
        let s = self.store.io_stats();
        let p = self.last_store_stats;
        let reg = &mut self.telemetry.registry;
        reg.add("store.cache_hit", s.cache_hits - p.cache_hits);
        reg.add("store.cache_miss", s.cache_misses - p.cache_misses);
        reg.add("store.cache_evict", s.cache_evicts - p.cache_evicts);
        reg.add("store.bytes_written", s.bytes_written - p.bytes_written);
        reg.add("store.fsyncs", s.fsyncs - p.fsyncs);
        reg.add("store.failed_fsyncs", s.failed_fsyncs - p.failed_fsyncs);
        let resident = self.store.resident_bytes() + self.buckets.resident_bytes();
        reg.set_gauge("store.resident_bytes", resident as i64);
        reg.set_gauge("store.disk_bytes", s.disk_bytes as i64);
        self.last_store_stats = s;
    }

    /// Fsyncs whatever is staged on the node disk and accounts for it in
    /// `persist.*`; `before` is the `bytes_written` reading taken before
    /// staging. Returns whether the sync succeeded and how many bytes
    /// were staged for it.
    fn sync_durable(&mut self, before: u64) -> (bool, u64) {
        let ok = self.persist.sync();
        let written = self.persist.stats().bytes_written - before;
        let reg = &mut self.telemetry.registry;
        reg.add("persist.bytes_written", written);
        if ok {
            reg.inc("persist.syncs");
            reg.inc("persist.fsyncs");
        } else {
            reg.inc("persist.failed_syncs");
        }
        (ok, written)
    }

    /// Write-ahead persists the envelopes about to be released: each is
    /// staged as its slot's nomination or ballot record, a later envelope
    /// for the same record replacing an earlier one, and the records of
    /// slots that have left the [`SLOT_WINDOW`] are removed — all under a
    /// single fsync. No statement is re-signed: the record is the
    /// envelope peers receive.
    ///
    /// Returns `false` when the fsync failed: the envelopes are NOT on
    /// disk and the caller must hold them back until a later sync
    /// succeeds (otherwise a crash could make this node contradict a
    /// vote the network already saw).
    pub fn persist_scp(&mut self, envelopes: &[Envelope]) -> bool {
        if !self.persist.is_enabled() {
            return true;
        }
        let before = self.persist.stats().bytes_written;
        let keep_from = self.current_slot().saturating_sub(SLOT_WINDOW);
        let kept = self.scp_record_slots.split_off(&keep_from);
        for slot in std::mem::replace(&mut self.scp_record_slots, kept) {
            self.persist.remove(&scp_record_key(slot, true));
            self.persist.remove(&scp_record_key(slot, false));
        }
        let latest: BTreeMap<(SlotIndex, bool), &Envelope> = envelopes
            .iter()
            .filter(|env| env.statement.slot >= keep_from)
            .map(|env| {
                (
                    (env.statement.slot, env.statement.kind.is_nomination()),
                    env,
                )
            })
            .collect();
        for (&(slot, nomination), env) in &latest {
            self.persist
                .write(&scp_record_key(slot, nomination), &env.to_bytes());
            self.scp_record_slots.insert(slot);
        }
        let (ok, written) = self.sync_durable(before);
        let reg = &mut self.telemetry.registry;
        reg.add("persist.scp.bytes_written", written);
        reg.add("persist.scp.records_written", latest.len() as u64);
        ok
    }

    /// Persists the latest-closed-ledger record (header + bucket level
    /// hashes) and fsyncs. Called at every ledger close; the archive
    /// already holds the full history, this record is the node-local
    /// integrity anchor recovery verifies against.
    pub fn persist_lcl(&mut self) -> bool {
        if !self.persist.is_enabled() {
            return true;
        }
        let rec = LclRecord {
            header: self.header.clone(),
            bucket_hashes: self.buckets.level_hashes(),
        };
        let before = self.persist.stats().bytes_written;
        self.persist.write(LCL_KEY, &rec.to_bytes());
        let (ok, written) = self.sync_durable(before);
        self.telemetry
            .registry
            .observe("persist.lcl_bytes", written);
        ok
    }

    /// Reads back the durable SCP records of slots at or above
    /// `keep_from`, in slot order (crash recovery). Every other `scp/`
    /// record — a slot below the window the restarted node will never
    /// load into RAM, or a torn record — is staged for removal at the
    /// next sync, which keeps the durable key set bounded across any
    /// number of restarts. With nothing readable, recovery leans on the
    /// history archive alone.
    pub fn recover_scp_envelopes(&mut self, keep_from: SlotIndex) -> Vec<Envelope> {
        let mut envelopes = Vec::new();
        for key in self.persist.keys_with_prefix(SCP_SLOT_PREFIX) {
            let env = self
                .persist
                .read(&key)
                .and_then(|bytes| Envelope::from_bytes(&bytes).ok());
            match env {
                Some(env) if env.statement.slot >= keep_from => {
                    self.scp_record_slots.insert(env.statement.slot);
                    envelopes.push(env);
                }
                _ => self.persist.remove(&key),
            }
        }
        envelopes.sort_by_key(|env| env.statement.slot);
        envelopes
    }

    /// Reads back the durable latest-closed-ledger record, if intact.
    pub fn recover_lcl(&self) -> Option<LclRecord> {
        LclRecord::from_bytes(&self.persist.read(LCL_KEY)?).ok()
    }

    /// Drains buffered envelopes.
    pub fn take_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains buffered timer arms.
    pub fn take_timer_requests(&mut self) -> Vec<(SlotIndex, TimerKind, u64)> {
        std::mem::take(&mut self.timer_requests)
    }
}

impl Driver for Herder {
    fn validate_value(&mut self, _slot: SlotIndex, value: &Value, nomination: bool) -> Validity {
        match StellarValue::from_scp(value) {
            Some(sv) => self.validate_stellar_value(&sv, nomination),
            None => Validity::Invalid,
        }
    }

    fn combine_candidates(
        &mut self,
        _slot: SlotIndex,
        candidates: &BTreeSet<Value>,
    ) -> Option<Value> {
        let parsed: Vec<StellarValue> = candidates
            .iter()
            .filter_map(StellarValue::from_scp)
            .collect();
        let metrics = |h: &Hash256| {
            self.known_tx_sets
                .get(h)
                .map(|s| (s.op_count(), s.total_fees()))
        };
        StellarValue::combine(&parsed, metrics).map(|v| v.to_scp())
    }

    fn emit_envelope(&mut self, envelope: &Envelope) {
        let class = envelope.statement.kind.class_name();
        self.telemetry.registry.inc(envelope_out_key(class));
        self.telemetry.trace(
            self.clock_ms,
            envelope.statement.slot,
            TraceKind::EnvelopeSent { statement: class },
        );
        self.outbox.push(envelope.clone());
    }

    fn set_timer(&mut self, slot: SlotIndex, kind: TimerKind, delay: Option<Duration>) {
        let timer = timer_name(kind);
        match delay {
            Some(d) => {
                let delay_ms = d.as_millis() as u64;
                self.telemetry.registry.inc("scp.timer_arms");
                self.telemetry.trace(
                    self.clock_ms,
                    slot,
                    TraceKind::TimerArmed { timer, delay_ms },
                );
                let deadline = self.clock_ms + delay_ms;
                self.armed.insert((slot, kind), deadline);
                self.timer_requests.push((slot, kind, deadline));
            }
            None => {
                self.telemetry
                    .trace(self.clock_ms, slot, TraceKind::TimerCanceled { timer });
                self.armed.remove(&(slot, kind));
            }
        }
    }

    fn externalized(&mut self, slot: SlotIndex, value: &Value) {
        if let Some(value) = StellarValue::from_scp(value) {
            self.file_decided(slot, value);
        }
    }

    fn public_key(&self, node: NodeId) -> Option<PublicKey> {
        self.key_registry.get(&node).copied()
    }

    fn on_event(&mut self, event: ScpEvent) {
        let t = self.clock_ms;
        match &event {
            ScpEvent::NominationStarted { slot } => {
                self.telemetry.registry.inc("scp.nomination_started");
                self.telemetry.trace(
                    t,
                    *slot,
                    TraceKind::Phase {
                        phase: "nomination",
                    },
                );
            }
            ScpEvent::NominationRoundStarted { slot, round } => {
                self.telemetry.nomination_round(t, *slot, *round);
            }
            ScpEvent::NewCandidate { slot, .. } => {
                self.telemetry.registry.inc("scp.candidates");
                self.telemetry
                    .trace(t, *slot, TraceKind::Phase { phase: "candidate" });
            }
            ScpEvent::BallotBumped { slot, counter } => {
                self.telemetry.registry.inc("scp.ballot_bumps");
                self.telemetry
                    .trace(t, *slot, TraceKind::BallotBump { counter: *counter });
            }
            ScpEvent::AcceptedPrepared { slot, counter } => {
                self.telemetry.registry.inc("scp.accepted_prepared");
                self.telemetry.trace(
                    t,
                    *slot,
                    TraceKind::QuorumThreshold {
                        milestone: "accept-prepare",
                        counter: *counter,
                    },
                );
            }
            ScpEvent::ConfirmedPrepared { slot, counter } => {
                self.telemetry.registry.inc("scp.confirmed_prepared");
                self.telemetry.trace(
                    t,
                    *slot,
                    TraceKind::QuorumThreshold {
                        milestone: "confirm-prepare",
                        counter: *counter,
                    },
                );
            }
            ScpEvent::AcceptedCommit { slot, counter } => {
                self.telemetry.registry.inc("scp.accepted_commit");
                self.telemetry.trace(
                    t,
                    *slot,
                    TraceKind::QuorumThreshold {
                        milestone: "accept-commit",
                        counter: *counter,
                    },
                );
            }
            ScpEvent::TimeoutFired { slot, kind } => {
                self.telemetry.registry.inc(match kind {
                    TimerKind::Nomination => "scp.timeout.nomination",
                    TimerKind::Ballot => "scp.timeout.ballot",
                });
                self.telemetry.trace(
                    t,
                    *slot,
                    TraceKind::TimerFired {
                        timer: timer_name(*kind),
                    },
                );
            }
            ScpEvent::Externalized { slot, .. } => {
                self.telemetry.slot_externalized(t, *slot);
            }
            ScpEvent::EnvelopeRejected { reason, .. } => {
                self.telemetry.registry.inc(match reason {
                    Rejection::BadSignature => "scp.bad_signatures",
                    Rejection::MalformedQset => "scp.malformed_qsets",
                    Rejection::Insane => "scp.insane_statements",
                });
                return;
            }
            ScpEvent::EnvelopeProcessed { slot, from, kind } => {
                self.telemetry.registry.inc(envelope_in_key(kind));
                self.telemetry.trace(
                    t,
                    *slot,
                    TraceKind::EnvelopeReceived {
                        statement: kind,
                        from: from.0,
                    },
                );
                // Counted and flight-recorded, not retained: one per
                // received envelope would be nearly all of the log.
                return;
            }
        }
        self.events.push((self.clock_ms, event));
    }

    fn ballot_timeout(&self, counter: u32) -> Duration {
        // Production stellar-core: (counter + 1) seconds, capped.
        Duration::from_secs(u64::from(counter.min(59)) + 1)
    }

    fn nomination_timeout(&self, round: u32) -> Duration {
        // §7.2: "a 1-second timeout in nomination leader selection",
        // growing linearly per round.
        Duration::from_secs(u64::from(round.min(59)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::KeyPair;
    use stellar_ledger::amount::{xlm, BASE_FEE};
    use stellar_ledger::asset::Asset;
    use stellar_ledger::entry::{AccountEntry, AccountId};
    use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};

    fn keys(n: u64) -> KeyPair {
        KeyPair::from_seed(0xDE5 + n)
    }

    fn acct(n: u64) -> AccountId {
        AccountId(keys(n).public())
    }

    fn herder() -> Herder {
        let mut store = LedgerStore::new();
        for i in 0..3 {
            store.put_account(AccountEntry::new(acct(i), xlm(100)));
        }
        let mut h = Herder::new(NodeId(0), store, BTreeMap::new());
        h.now = 100;
        h
    }

    fn payment_env(h: &Herder, from: u64, to: u64, seq: u64) -> TransactionEnvelope {
        let _ = h;
        TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: seq,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(to),
                        asset: Asset::Native,
                        amount: 1,
                    },
                }],
            },
            &[&keys(from)],
        )
    }

    #[test]
    fn proposal_close_time_moves_forward() {
        let mut h = herder();
        h.header.close_time = 500;
        h.now = 400; // clock behind the chain: still must propose > 500
        let (value, _) = h.make_proposal();
        assert!(value.close_time > 500);
    }

    #[test]
    fn validate_rejects_stale_and_far_future_close_times() {
        let mut h = herder();
        h.header.close_time = 100;
        let (value, set) = h.make_proposal();
        h.learn_tx_set(set);
        // A good value is fully validated.
        assert_eq!(
            h.validate_value(2, &value.to_scp(), true),
            Validity::FullyValidated
        );
        // Stale close time.
        let mut stale = value.clone();
        stale.close_time = 100;
        assert_eq!(
            h.validate_value(2, &stale.to_scp(), true),
            Validity::Invalid
        );
        // Close time beyond now + slip is rejected in nomination but
        // tolerated in balloting (others may have confirmed it).
        let mut future = value.clone();
        future.close_time = h.now + h.max_time_slip + 10;
        assert_eq!(
            h.validate_value(2, &future.to_scp(), true),
            Validity::Invalid
        );
        assert_eq!(
            h.validate_value(2, &future.to_scp(), false),
            Validity::FullyValidated
        );
    }

    #[test]
    fn unknown_tx_set_maybe_valid_in_ballot_invalid_in_nomination() {
        let mut h = herder();
        let unknown = StellarValue::new(stellar_crypto::sha256::sha256(b"nope"), h.now + 1);
        assert_eq!(
            h.validate_value(2, &unknown.to_scp(), true),
            Validity::Invalid
        );
        assert_eq!(
            h.validate_value(2, &unknown.to_scp(), false),
            Validity::MaybeValid
        );
    }

    #[test]
    fn tx_set_chaining_from_wrong_header_invalid() {
        let mut h = herder();
        let foreign = TransactionSet::empty(stellar_crypto::sha256::sha256(b"other-chain"));
        h.learn_tx_set(foreign.clone());
        let v = StellarValue::new(foreign.hash(), h.now + 1);
        assert_eq!(h.validate_value(2, &v.to_scp(), true), Validity::Invalid);
        assert_eq!(h.validate_value(2, &v.to_scp(), false), Validity::Invalid);
    }

    #[test]
    fn malformed_scp_value_invalid() {
        let mut h = herder();
        let garbage = Value::new(vec![1, 2, 3]);
        assert_eq!(h.validate_value(2, &garbage, false), Validity::Invalid);
    }

    #[test]
    fn stalled_externalize_applies_when_tx_set_arrives() {
        let mut h = herder();
        let env = payment_env(&h, 0, 1, 1);
        let set = TransactionSet::assemble(h.header.hash(), vec![env], 100);
        let value = StellarValue::new(set.hash(), h.now + 1);
        // Externalize before the tx set is known: deferred.
        assert!(!h.apply_externalized(2, &value));
        assert_eq!(h.header.ledger_seq, 1);
        // Learning the set triggers the deferred close.
        h.learn_tx_set(set);
        assert_eq!(h.header.ledger_seq, 2);
        assert_eq!(h.store.account(acct(1)).unwrap().balance, xlm(100) + 1);
    }

    #[test]
    fn out_of_order_externalizations_apply_in_order() {
        let mut h = herder();
        let env2 = payment_env(&h, 0, 1, 1);
        let set2 = TransactionSet::assemble(h.header.hash(), vec![env2], 100);
        let v2 = StellarValue::new(set2.hash(), h.now + 1);
        // Build slot 3's set against the post-slot-2 header: apply slot 2
        // on a scratch herder to learn the future header hash.
        let mut scratch = herder();
        scratch.learn_tx_set(set2.clone());
        assert!(scratch.apply_externalized(2, &v2));
        let env3 = payment_env(&scratch, 1, 2, 1);
        let set3 = TransactionSet::assemble(scratch.header.hash(), vec![env3], 100);
        let v3 = StellarValue::new(set3.hash(), scratch.header.close_time + 1);

        // Deliver slot 3 first (future slot: parked), then slot 2.
        h.learn_tx_set(set3);
        assert!(!h.apply_externalized(3, &v3));
        assert_eq!(h.header.ledger_seq, 1);
        h.learn_tx_set(set2);
        assert!(h.apply_externalized(2, &v2));
        // Slot 3 unparked automatically.
        assert_eq!(h.header.ledger_seq, 3);
        assert_eq!(h.store.account(acct(2)).unwrap().balance, xlm(100) + 1);
    }

    #[test]
    fn a_traced_close_records_externalize_then_apply_per_transaction() {
        let mut h = herder();
        let txs: Vec<_> = (0..3).map(|i| payment_env(&h, i, (i + 1) % 3, 1)).collect();
        let set = TransactionSet::assemble(h.header.hash(), txs.clone(), 100);
        h.learn_tx_set(set.clone());
        assert!(h.apply_externalized(2, &StellarValue::new(set.hash(), h.now + 1)));
        assert_eq!(h.telemetry.spans.len(), 2 * txs.len());
        for env in &txs {
            let phases: Vec<&SpanPhase> = h
                .telemetry
                .spans
                .for_trace(env.hash().prefix_u64())
                .into_iter()
                .map(|s| &s.phase)
                .collect();
            assert_eq!(
                phases,
                [
                    &SpanPhase::Externalized { slot: 2 },
                    &SpanPhase::Applied { slot: 2 }
                ]
            );
        }
    }

    fn close_empty_ledger(h: &mut Herder) {
        let (value, _) = h.make_proposal();
        assert!(h.apply_externalized(h.current_slot(), &value));
    }

    #[test]
    fn tx_sets_age_out_of_the_slot_window_unless_parked() {
        let mut h = herder();
        let old = TransactionSet::empty(stellar_crypto::sha256::sha256(b"learned at slot 2"));
        let awaited = TransactionSet::empty(stellar_crypto::sha256::sha256(b"far ahead"));
        h.learn_tx_set(old.clone());
        h.learn_tx_set(awaited.clone());
        // An externalization for a slot far ahead parks, naming `awaited`.
        let parked = StellarValue::new(awaited.hash(), h.now + 1);
        assert!(!h.apply_externalized(100, &parked));
        for _ in 0..SLOT_WINDOW {
            close_empty_ledger(&mut h);
            assert!(h.known_tx_sets.contains_key(&old.hash()));
        }
        // The fifth close moves slot 2 out of the window.
        close_empty_ledger(&mut h);
        assert!(!h.known_tx_sets.contains_key(&old.hash()));
        assert!(h.known_tx_sets.contains_key(&awaited.hash()));
        // What is left: `awaited` and our own last four proposals.
        assert_eq!(h.known_tx_sets.len(), 1 + SLOT_WINDOW as usize);
        assert_eq!(h.telemetry.registry.counter("herder.tx_sets_pruned"), 2);
        // A set put into the public map directly is never aged.
        h.known_tx_sets.insert(old.hash(), old.clone());
        for _ in 0..=SLOT_WINDOW {
            close_empty_ledger(&mut h);
        }
        assert!(h.known_tx_sets.contains_key(&old.hash()));
        assert_eq!(h.known_tx_sets.len(), 2 + SLOT_WINDOW as usize);
    }

    #[test]
    fn duplicate_externalize_notifications_park_once() {
        let mut h = herder();
        let env = payment_env(&h, 0, 1, 1);
        let set = TransactionSet::assemble(h.header.hash(), vec![env], 100);
        let value = StellarValue::new(set.hash(), h.now + 1);
        let next = StellarValue::new(stellar_crypto::sha256::sha256(b"unseen"), h.now + 2);
        // Current slot, set unknown — announced three times; next slot twice.
        for _ in 0..3 {
            assert!(!h.apply_externalized(2, &value));
        }
        for _ in 0..2 {
            assert!(!h.apply_externalized(3, &next));
        }
        assert_eq!(h.decided.len(), 2);
        assert_eq!(h.telemetry.registry.counter("herder.stalled_dropped"), 3);
        // The set arrives: slot 2 closes once, slot 3 stays filed.
        h.learn_tx_set(set);
        assert_eq!(h.header.ledger_seq, 2);
        assert_eq!(h.close_stats.len(), 1);
        assert_eq!(h.decided.len(), 1);
        assert_eq!(h.decided.keys().next(), Some(&3));
    }

    #[test]
    fn live_close_and_archive_replay_leave_the_same_ledger() {
        // One set with a payment that applies and one that fails at apply
        // (more than the source holds), closed live on one node...
        let mut live = herder();
        live.enable_ingest(8);
        let ok = payment_env(&live, 0, 1, 1);
        let mut too_much = payment_env(&live, 2, 1, 1);
        too_much = TransactionEnvelope::sign(
            Transaction {
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(1),
                        asset: Asset::Native,
                        amount: xlm(1000),
                    },
                }],
                ..too_much.tx.clone()
            },
            &[&keys(2)],
        );
        let set = TransactionSet::assemble(live.header.hash(), vec![ok, too_much], 100);
        live.learn_tx_set(set.clone());
        let value = StellarValue::new(set.hash(), live.now + 1);
        assert!(live.apply_externalized(2, &value));
        // ...and replayed from that node's archive on another.
        let mut replayed = herder();
        replayed.enable_ingest(8);
        assert_eq!(replayed.catch_up_from(&live.archive), 1);

        assert_eq!(live.header, replayed.header);
        assert_eq!(live.archive.latest_seq(), replayed.archive.latest_seq());
        let (a, b) = (&live.close_stats[0], &replayed.close_stats[0]);
        assert_eq!(
            (
                a.ledger_seq,
                a.tx_count,
                a.op_count,
                a.close_time,
                a.header_hash
            ),
            (
                b.ledger_seq,
                b.tx_count,
                b.op_count,
                b.close_time,
                b.header_hash
            ),
        );
        assert_eq!((a.failed_tx_count, b.failed_tx_count), (1, 1));
        let (fed_live, fed_replay) = (live.take_close_events(), replayed.take_close_events());
        assert_eq!(fed_live.len(), 1);
        assert_eq!(format!("{fed_live:?}"), format!("{fed_replay:?}"));
        assert!(!fed_live[0].changes.is_empty());
        // What differs is the caller's: per-close telemetry live, batch
        // counters on replay.
        assert_eq!(live.telemetry.registry.counter("ledger.closed"), 1);
        assert_eq!(replayed.telemetry.registry.counter("ledger.closed"), 0);
        assert_eq!(
            replayed
                .telemetry
                .registry
                .counter("ledger.catchup_applied"),
            1
        );
    }

    #[test]
    fn disk_backend_counts_each_device_under_its_own_name() {
        let genesis = herder().store;
        let cfg = stellar_store::DiskConfig::default();
        let store = stellar_store::open(&genesis, stellar_store::BackendKind::Disk, &cfg);
        let mut h = Herder::new(NodeId(0), store, BTreeMap::new());
        h.now = 100;
        let (wal0, disk0) = (h.persist.stats(), h.store.io_stats());
        let data_disk = h.store.disk().expect("a data disk");
        for seq in 1..=3 {
            if seq == 2 {
                h.persist.fail_next_fsyncs(1);
                data_disk.borrow_mut().fail_next_fsyncs(1);
            }
            let set =
                TransactionSet::assemble(h.header.hash(), vec![payment_env(&h, 0, 1, seq)], 100);
            h.learn_tx_set(set.clone());
            h.now += 5;
            let v = StellarValue::new(set.hash(), h.now);
            assert!(h.apply_externalized(h.current_slot(), &v));
        }
        let (wal, disk) = (h.persist.stats(), h.store.io_stats());
        assert!(disk.fsyncs > disk0.fsyncs && wal.syncs > wal0.syncs);
        assert!(disk.failed_fsyncs > disk0.failed_fsyncs && wal.failed_syncs > wal0.failed_syncs);
        let reg = &h.telemetry.registry;
        let wal_counters = [
            (
                "persist.bytes_written",
                wal.bytes_written - wal0.bytes_written,
            ),
            ("persist.fsyncs", wal.syncs - wal0.syncs),
            ("persist.failed_syncs", wal.failed_syncs - wal0.failed_syncs),
        ];
        let disk_counters = [
            (
                "store.bytes_written",
                disk.bytes_written - disk0.bytes_written,
            ),
            ("store.fsyncs", disk.fsyncs - disk0.fsyncs),
            (
                "store.failed_fsyncs",
                disk.failed_fsyncs - disk0.failed_fsyncs,
            ),
        ];
        for (name, delta) in wal_counters.into_iter().chain(disk_counters) {
            assert_eq!(reg.counter(name), delta, "{name}");
        }
    }

    #[test]
    fn close_stats_recorded_per_ledger() {
        let mut h = herder();
        let env = payment_env(&h, 0, 1, 1);
        let set = TransactionSet::assemble(h.header.hash(), vec![env], 100);
        h.learn_tx_set(set.clone());
        let v = StellarValue::new(set.hash(), h.now + 1);
        assert!(h.apply_externalized(2, &v));
        assert_eq!(h.close_stats.len(), 1);
        let cs = &h.close_stats[0];
        assert_eq!(cs.ledger_seq, 2);
        assert_eq!(cs.tx_count, 1);
        assert_eq!(cs.failed_tx_count, 0);
    }
}
