//! Node lifecycle: the per-node record, its boot, crash and reboot.
//!
//! A first start and a crash-restart go through the same two steps:
//! `Genesis::validator` builds a validator with the run's per-node
//! settings, and `SimNode::boot` installs it with fresh process RAM
//! (and, on the Horizon host, a fresh pipeline). A reboot only adds what
//! survived the crash in between: the write-ahead log, the data disk and
//! the node's own history archive.

use crate::events::Flooded;
use crate::simulation::{SimConfig, Simulation};
use std::collections::BTreeMap;
use stellar_buckets::BucketList;
use stellar_crypto::codec::Decode;
use stellar_crypto::sign::{KeyPair, PublicKey};
use stellar_herder::herder::{LclRecord, LCL_KEY};
use stellar_herder::validator::Validator;
use stellar_horizon::{AdmissionConfig, HorizonPipeline};
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::store::LedgerStore;
use stellar_overlay::{FloodEngine, FloodMessage};
use stellar_persist::DurableStore;
use stellar_scp::{NodeId, QuorumSet};
use stellar_telemetry::{Registry, TraceStore};

/// Deterministic seed for a validator's signing identity.
pub fn validator_keys(id: NodeId) -> KeyPair {
    KeyPair::from_seed(0x7A11DA70u64 ^ u64::from(id.0))
}

/// Everything the simulator keeps about one node of the peer graph.
pub(crate) struct SimNode {
    /// The consensus node; watchers have none and only relay.
    pub(crate) validator: Option<Validator>,
    /// The node's overlay, with its run-long traffic counters.
    pub(crate) engine: FloodEngine,
    /// The last slot `trigger_next_ledger` was called for.
    pub(crate) last_triggered_slot: u64,
    /// When that trigger happened — the pacing base, which survives a
    /// restart.
    pub(crate) last_trigger_time: Option<u64>,
    /// The last ledger seq observed closed.
    pub(crate) last_closed: u64,
    /// Modeled CPU busy-until, microseconds of simulated time.
    pub(crate) busy_until_us: u64,
    /// Crashed: no receive, no send, no timers.
    pub(crate) crashed: bool,
    /// `Some` for a puppet: the node holds real keys and appears in
    /// quorum sets but runs no validator logic — an external driver (a
    /// chaos adversary) drains this inbox and injects envelopes by hand.
    pub(crate) puppet_inbox: Option<Vec<(NodeId, Flooded)>>,
    /// The Horizon pipeline this node hosts (the observer, when the run
    /// configures one). It is RAM: a reboot attaches a fresh one.
    pub(crate) horizon: Option<HorizonPipeline>,
    /// Horizon load accounting (`horizon.*`: submissions admitted and
    /// shed, query latency, lag at query time). Like the engine's
    /// traffic counters it is the run's measurement and survives reboots.
    pub(crate) horizon_load: Registry,
}

impl SimNode {
    pub(crate) fn new(engine: FloodEngine) -> SimNode {
        SimNode {
            validator: None,
            engine,
            last_triggered_slot: 0,
            last_trigger_time: None,
            last_closed: 1,
            busy_until_us: 0,
            crashed: false,
            puppet_inbox: None,
            horizon: None,
            horizon_load: Registry::new(),
        }
    }

    pub(crate) fn is_puppet(&self) -> bool {
        self.puppet_inbox.is_some()
    }

    /// Whether the node takes part in consensus right now.
    pub(crate) fn is_live(&self) -> bool {
        !self.crashed && !self.is_puppet()
    }

    /// Starts `v` as this node's process — the one boot path of a first
    /// start and of every reboot. A booted process has no flood caches,
    /// demand state, CPU backlog or trigger in flight; the run's
    /// measurements (traffic counters, `horizon.*`) and the pacing base
    /// stay. With `horizon` set the node hosts a fresh pipeline, seeded
    /// from `v`'s state and backfilled from its archive (restart-mid-
    /// ingestion recovery); live closes then arrive through the feed.
    pub(crate) fn boot(&mut self, mut v: Validator, horizon: Option<AdmissionConfig>) {
        self.last_triggered_slot = 0;
        self.last_closed = v.ledger_seq();
        self.engine.reset();
        self.busy_until_us = 0;
        if let Some(hcfg) = horizon {
            let mut p = HorizonPipeline::attach(&mut v.herder, hcfg);
            p.indexer.backfill_history(&v.herder.archive);
            if self.horizon.replace(p).is_some() {
                self.horizon_load.inc("horizon.reattached");
            }
        }
        self.validator = Some(v);
    }

    /// Applies `fault` to each device the node writes: the write-ahead
    /// log and, on the disk backend, the ledger data disk.
    pub(crate) fn on_disks(&mut self, fault: impl Fn(&mut DurableStore)) {
        let Some(v) = self.validator.as_mut() else {
            return; // a watcher has no disks
        };
        fault(&mut v.herder.persist);
        if let Some(dd) = v.herder.store.disk() {
            fault(&mut dd.borrow_mut());
        }
    }
}

/// The genesis ledger every validator starts from, built once per
/// simulation: the entry store template, the bucket list seeded from it
/// (level hashes already computed) and the header committing to both.
pub(crate) struct Genesis {
    store: LedgerStore,
    buckets: BucketList,
    header: LedgerHeader,
    /// The shared signing-key registry.
    pub(crate) registry: BTreeMap<NodeId, PublicKey>,
}

impl Genesis {
    pub(crate) fn new(store: LedgerStore, validators: &[NodeId]) -> Genesis {
        let mut buckets = BucketList::seed(store.all_entries());
        let header = LedgerHeader::genesis(buckets.hash());
        let registry = validators
            .iter()
            .map(|id| (*id, validator_keys(*id).public()))
            .collect();
        Genesis {
            store,
            buckets,
            header,
            registry,
        }
    }

    /// A validator process with the run's per-node settings and `wal` as
    /// its write-ahead log. Its ledger is `recovered` (store, buckets and
    /// header read back off a data disk) or else genesis: a store of its
    /// own on the configured backend (`Mem` clones the template, `Disk`
    /// streams it onto a fresh simulated data disk) and a clone of the
    /// seeded bucket list, whose slots are `Rc`-shared, spilling to that
    /// node's own disk.
    pub(crate) fn validator(
        &self,
        id: NodeId,
        qset: QuorumSet,
        cfg: &SimConfig,
        wal: DurableStore,
        recovered: Option<(LedgerStore, BucketList, LedgerHeader)>,
    ) -> Validator {
        let (store, buckets, header) = recovered.unwrap_or_else(|| {
            let disk_cfg = stellar_store::DiskConfig::default();
            let store = stellar_store::open(&self.store, cfg.store_backend, &disk_cfg);
            let mut buckets = self.buckets.clone();
            if let Some(disk) = store.disk() {
                buckets.attach_disk(disk, 0);
            }
            (store, buckets, self.header.clone())
        });
        let keys = validator_keys(id);
        let registry = self.registry.clone();
        let mut v = Validator::from_recovered(id, keys, qset, store, buckets, header, registry);
        v.herder.header.params.max_tx_set_ops = cfg.max_tx_set_ops;
        // A booted process traces at the configured sampling rate; a
        // crashed one's span buffer was RAM and is gone.
        v.herder
            .telemetry
            .spans
            .configure(cfg.trace_sample_every, TraceStore::DEFAULT_CAP);
        v.herder.persist = wal;
        v
    }

    /// Reboots `old` from what survived its crash: the write-ahead log,
    /// the data disk (disk backend) and its own history archive. Returns
    /// the new process, not yet booted, and the ledgers it replayed.
    ///
    /// 1. The fast path (disk backend) rebuilds the ledger store and
    ///    bucket list straight off the data disk, cross-checked against
    ///    the write-ahead LCL record; any discrepancy — torn manifest,
    ///    sequence split across the two disks, wrong snapshot hash —
    ///    re-images the disk and starts from genesis instead.
    /// 2. The node replays its own archive (archives model external
    ///    durable storage and survive in both persistence modes) and
    ///    checks the tip against the durable LCL record.
    /// 3. SCP voting state is replayed from the node's own latest
    ///    envelopes on disk, so it can never contradict a vote it already
    ///    published (with persistence off it forgets those votes — the
    ///    amnesia-equivocation hazard the chaos layer demonstrates); a
    ///    decided slot re-fires into the close path. The caller routes
    ///    what that produced.
    fn reboot(&self, old: Validator, cfg: &SimConfig, now: u64) -> (Validator, u64) {
        let id = old.herder.node_id;
        let qset = old.scp.quorum_set().clone();
        let herder = old.herder;
        let lcl = herder
            .persist
            .read(LCL_KEY)
            .and_then(|b| LclRecord::from_bytes(&b).ok());
        let recovered = match (herder.store.disk(), &lcl) {
            (Some(dd), Some(lcl)) => stellar_store::recover_node(
                dd,
                &lcl.header,
                &lcl.bucket_hashes,
                &stellar_store::DiskConfig::default(),
            )
            .map(|(store, buckets)| (store, buckets, lcl.header.clone())),
            _ => None,
        };
        let durable_recovery = recovered.is_some();
        let mut v = self.validator(id, qset, cfg, herder.persist, recovered);
        if durable_recovery {
            v.herder.telemetry.registry.inc("recovery.durable_store");
        }
        v.set_time_ms(now);
        let replayed = v.herder.catch_up_from(&herder.archive);
        // The durable LCL record is the node-local integrity anchor: if
        // it is intact and covers the replayed tip, the hashes must line
        // up — a mismatch means local corruption, which we surface as a
        // counter rather than trusting either side blindly.
        if let Some(lcl) = v.herder.recover_lcl() {
            if lcl.header.ledger_seq == v.ledger_seq()
                && lcl.header.hash() != v.herder.header.hash()
            {
                v.herder.telemetry.registry.inc("recovery.lcl_mismatch");
            }
        }
        let restored = v.recover_scp_state();
        v.herder
            .telemetry
            .registry
            .add("recovery.slots_restored", restored as u64);
        (v, replayed)
    }
}

impl Simulation {
    /// The Horizon configuration `id` boots with: the run's, on the
    /// observer only.
    fn horizon_cfg(&self, id: NodeId) -> Option<AdmissionConfig> {
        self.cfg.horizon.filter(|_| id == self.observer)
    }

    /// Builds and boots every validator of `qsets` at genesis.
    pub(crate) fn boot_all(&mut self, qsets: &[(NodeId, QuorumSet)]) {
        for (id, qset) in qsets {
            let wal = if self.cfg.persistence {
                DurableStore::new()
            } else {
                DurableStore::disabled()
            };
            let v = self
                .genesis
                .validator(*id, qset.clone(), &self.cfg, wal, None);
            let horizon = self.horizon_cfg(*id);
            self.node_mut(*id).boot(v, horizon);
        }
    }

    /// Crashes a node at the current point in the run: it stops sending,
    /// receiving, and firing timers (fail-stop, §6-style outage drills).
    /// Pending deliveries to it are purged, and new ones are dropped at
    /// enqueue time, so a long run never bloats the heap with traffic for
    /// a dead node.
    pub fn crash(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return; // not a node of this network
        };
        node.crashed = true;
        self.queue.purge_deliveries_to(id);
    }

    /// Revives a crashed node. The node does **not** keep its pre-crash
    /// RAM: revival is a full crash-restart ([`Simulation::restart`]) that
    /// rebuilds the validator from its durable store and history archive
    /// alone, exactly what a rebooted stellar-core does (§3, §5.4).
    pub fn revive(&mut self, id: NodeId) {
        if self.is_crashed(id) {
            self.restart(id);
        }
    }

    /// Crash-restarts a node in place: every byte of in-memory state is
    /// discarded, both its devices take the power loss (unsynced writes
    /// are lost, a pending record may be torn), and the validator is
    /// rebuilt solely from what survived (see `Genesis::reboot`). The
    /// remaining ledger gap is then closed from a reachable live peer's
    /// archive and the reconnect state exchange runs — which is also how
    /// the node relearns its peers' latest statements.
    ///
    /// Works on live nodes too (an atomic reboot) and clears the crashed
    /// flag for nodes that were down.
    pub fn restart(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        if node.is_puppet() || node.validator.is_none() {
            return; // a watcher has nothing durable to reboot from
        }
        let started = std::time::Instant::now();
        node.crashed = false;
        node.on_disks(DurableStore::crash);
        let old = node.validator.take().expect("checked above");
        let (mut v, mut replayed) = self.genesis.reboot(old, &self.cfg, self.now);
        let out = v.drain_outputs();
        let horizon = self.horizon_cfg(id);
        self.node_mut(id).boot(v, horizon);
        self.queue.purge_deliveries_to(id);
        self.handle_outputs(id, out);
        // Close the remaining gap from the network's archives, then
        // rejoin consensus: re-trigger and exchange SCP state. The node
        // re-triggers its current slot on the normal 5-second pacing,
        // not the instant it boots: the pacing base survives the reboot
        // (production derives it from the recovered last-close time),
        // and an off-schedule close time would perturb the values the
        // network agrees on.
        replayed += self.catch_up(id);
        let trigger_at = self
            .node(id)
            .last_trigger_time
            .map_or(self.now + 1, |base| {
                (base + self.cfg.ledger_interval_ms).max(self.now + 1)
            });
        self.queue
            .push(trigger_at, crate::events::Event::TriggerLedger { node: id });
        self.resync();
        let dur_us = started.elapsed().as_micros() as u64;
        self.restarts += 1;
        self.recovery_replayed += replayed;
        self.recovery_us += dur_us;
        let reg = &mut self.validator_mut(id).herder.telemetry.registry;
        reg.inc("recovery.restarts");
        reg.add("recovery.ledgers_replayed", replayed);
        reg.observe("recovery.duration_us", dur_us);
    }

    /// Replays ledgers the node missed from the most-advanced live
    /// peer's history archive (paper §5.4 — flooding never retransmits,
    /// so closed history must come from the archive). Only peers the
    /// node can actually reach under the active partition are consulted.
    /// Returns the number of ledgers applied; 0 when nobody reachable is
    /// ahead.
    pub(crate) fn catch_up(&mut self, id: NodeId) -> u64 {
        let own_seq = self.ledger_seq_of(id);
        let best = self
            .nodes
            .iter()
            .filter(|(peer, n)| **peer != id && n.is_live() && self.link_open(**peer, id))
            .filter_map(|(peer, n)| Some((*peer, n.validator.as_ref()?.ledger_seq())))
            .max_by_key(|(_, seq)| *seq);
        let Some((peer, peer_seq)) = best else {
            return 0;
        };
        if peer_seq <= own_seq {
            return 0;
        }
        let mut applied = 0;
        self.drive(id, |v, sim| {
            applied = v.herder.catch_up_from(&sim.validator(peer).herder.archive);
            Default::default()
        });
        applied
    }

    /// Re-floods every live validator's own latest SCP envelopes — the
    /// peer-(re)connect state exchange. Naïve flooding never retransmits,
    /// so after a partition heals (or a node revives) this is what lets
    /// the two sides learn the votes they missed; nodes that already saw
    /// an envelope drop it in the flood cache.
    pub(crate) fn resync(&mut self) {
        for id in self.validator_ids() {
            if !self.node(id).is_live() {
                continue;
            }
            // Tx sets first: a peer that sees a vote before the set it
            // names cannot validate the value for nomination. In pull
            // mode the sets are (re-)advertised rather than re-flooded —
            // peers that already hold them never see the payload again.
            for set in self.validator(id).scp_state_tx_sets() {
                self.originate(id, FloodMessage::TxSet(set));
            }
            for env in self.validator(id).scp_state_envelopes() {
                self.originate(id, FloodMessage::Scp(env));
            }
        }
    }

    /// Whether `id` is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.crashed)
    }

    /// Arms `n` failing fsyncs on `id`'s devices (chaos hook). The
    /// write-ahead gate reacts by withholding outbound envelopes until a
    /// later sync succeeds; a failed close flush of the data disk keeps
    /// the delta dirty in the write-back cache and retries at the next
    /// close.
    pub fn fail_next_fsyncs(&mut self, id: NodeId, n: u32) {
        if let Some(node) = self.nodes.get_mut(&id) {
            node.on_disks(|d| d.fail_next_fsyncs(n));
        }
    }

    /// Arms a torn write on `id`'s devices: its next crash commits only a
    /// strict prefix of the oldest unsynced record (chaos hook; recovery
    /// must treat the torn record as absent, and a torn data-disk record
    /// is caught by the segment/manifest checksums, which refuses the
    /// fast path).
    pub fn tear_next_crash(&mut self, id: NodeId) {
        if let Some(node) = self.nodes.get_mut(&id) {
            node.on_disks(DurableStore::tear_next_crash);
        }
    }

    /// Demotes a validator to a puppet: it keeps its keys and its place
    /// in other nodes' quorum sets, but runs no validator logic. Its
    /// inbound traffic lands in an inbox for an external driver (a
    /// Byzantine adversary) to read, and anything it "says" is injected
    /// via [`Simulation::inject_direct`] / [`Simulation::inject_broadcast`].
    pub fn make_puppet(&mut self, id: NodeId) {
        if let Some(node) = self.nodes.get_mut(&id) {
            node.puppet_inbox.get_or_insert_with(Vec::new);
        }
    }

    /// Whether `id` is a puppet.
    pub fn is_puppet(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(SimNode::is_puppet)
    }

    /// Takes the messages delivered to puppet `id` since the last drain.
    pub fn drain_puppet_inbox(&mut self, id: NodeId) -> Vec<(NodeId, Flooded)> {
        let inbox = self
            .nodes
            .get_mut(&id)
            .and_then(|n| n.puppet_inbox.as_mut());
        inbox.map(std::mem::take).unwrap_or_default()
    }

    /// Injects a message from `from` to a single peer `to` (adversary
    /// equivocation path: different payloads to different peers). Honest
    /// receivers process and relay it through their normal paths.
    pub fn inject_direct(&mut self, from: NodeId, to: NodeId, msg: FloodMessage) {
        let flooded = Flooded::new(msg);
        let now = self.now;
        self.node_mut(from).engine.note_sent(&flooded, now); // don't bounce back
        self.enqueue_delivery(from, to, flooded);
    }

    /// Injects a message `from` floods the way its own overlay would.
    pub fn inject_broadcast(&mut self, from: NodeId, msg: FloodMessage) {
        self.originate(from, msg);
    }
}
