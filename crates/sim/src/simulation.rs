//! The simulation engine: validators + overlay + virtual clock.
//!
//! Every simulated validator is a real [`Validator`] (SCP + herder +
//! ledger + buckets) beside a real [`FloodEngine`] in one per-node
//! record; the simulator owns the event queue, the links (peer graph,
//! latency, faults, partitions) and the reports, turns each engine's
//! sends into delivery events, and routes everything deterministically
//! from a single seed. Ledger pacing follows production:
//! a node triggers consensus on the next ledger once it has closed the
//! previous one *and* the 5-second ledger interval has elapsed since the
//! last trigger (§7: "the system runs SCP at 5-second intervals").

use crate::events::{Event, EventQueue, Flooded};
use crate::latency::LatencyModel;
use crate::loadgen::{genesis_store, LoadGen};
use crate::metrics::{build_ledger_metrics, SimReport};
use crate::scenario::Scenario;
use crate::tracing::{build_tx_traces, render_causal_trace, trace_summary_json};
use crate::watchdog::{HealthWatchdog, WatchdogConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use stellar_buckets::BucketList;
use stellar_crypto::codec::Decode;
use stellar_crypto::sign::{KeyPair, PublicKey};
use stellar_crypto::Hash256;
use stellar_herder::validator::{Outputs, Validator};
use stellar_horizon::{AdmissionConfig, Horizon, HorizonError, HorizonPipeline};
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::store::LedgerStore;
use stellar_overlay::{
    Actions, FloodEngine, FloodMessage, FloodMode, LinkFaultTable, PeerGraph, TrafficStats,
};
use stellar_scp::driver::ScpEvent;
use stellar_scp::{NodeId, QuorumSet, SlotIndex, Value};
use stellar_telemetry::{Json, NodeTelemetry, Registry, SpanEvent, SpanPhase, TraceStore};

/// Parameters of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Network shape.
    pub scenario: Scenario,
    /// Synthetic accounts in the genesis ledger.
    pub n_accounts: u64,
    /// Payment load (transactions per second); 0 disables.
    pub tx_rate: f64,
    /// Stop after the observer closes this many ledgers.
    pub target_ledgers: u64,
    /// Ledger trigger interval (production: 5000 ms).
    pub ledger_interval_ms: u64,
    /// Master seed (latency, load, topology).
    pub seed: u64,
    /// Per-ledger operation budget.
    pub max_tx_set_ops: u32,
    /// Hard cap on simulated time, as a safety net (ms).
    pub max_sim_time_ms: u64,
    /// Modeled per-message processing cost at each node, in microseconds
    /// (signature checks, statement processing). Deliveries queue behind a
    /// busy node, so message volume translates into latency — the effect
    /// behind Fig. 11's balloting growth.
    pub proc_cost_us_per_msg: u64,
    /// How `Tx`/`TxSet` payloads cross the overlay: naïve push flooding
    /// (the §7.5 default) or advert/demand pull gossip. Either way an SCP
    /// envelope is pushed by its originator and advertised by relays.
    pub flood_mode: FloodMode,
    /// Whether nodes write each SCP envelope they send, and the latest
    /// closed ledger, to a (simulated) durable store before releasing it
    /// (§3, §5.4). On by default, as in production stellar-core; turning
    /// it off makes a crash-restarted node amnesiac — the configuration
    /// the chaos layer uses to demonstrate restart equivocation.
    pub persistence: bool,
    /// Which ledger storage backend every validator runs on: the
    /// original in-RAM maps or the log-structured disk store. Defaults
    /// from `STELLAR_STORE_BACKEND` so an entire test run can be flipped
    /// onto the disk backend without touching code.
    pub store_backend: stellar_store::BackendKind,
    /// Transaction-lifecycle tracing sampling knob: `0` disables span
    /// collection, `1` traces every transaction, `n` keeps traces whose
    /// content-derived id satisfies `id % n == 0`. The rule is shared by
    /// every node, so a sampled trace is causally complete network-wide.
    pub trace_sample_every: u64,
    /// Attach the full horizon pipeline (ingestion indexer, subscription
    /// hub, admission control) to the observer node with this tuning.
    /// `None` (the default) runs no pipeline — the pipeline is
    /// off-consensus, so externalized headers are identical either way.
    pub horizon: Option<AdmissionConfig>,
    /// Horizon query load against the observer's pipeline, in queries
    /// per second; `0` disables. Query batches are timed in wall-clock
    /// nanoseconds (`horizon.query_ns`), the E20 latency measurement.
    pub horizon_query_rate: f64,
    /// Ingestion cadence: `0` drains the close-event feed at every close
    /// (no lag); otherwise the indexer only drains every this-many
    /// simulated milliseconds, so the `ingest.lag` gauge and the E20
    /// latency-vs-lag curve have something to show.
    pub horizon_ingest_interval_ms: u64,
}

/// Health-watchdog observation cadence (simulated ms). One round per
/// simulated second keeps detection latency far under the stuck-slot
/// bound at negligible cost.
const WATCHDOG_INTERVAL_MS: u64 = 1000;

/// Optional custom genesis state for scenario-driven examples/tests.
#[derive(Default)]
pub struct SimSetup {
    /// Replaces the synthetic-account genesis store when set.
    pub genesis: Option<stellar_ledger::store::LedgerStore>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 1000,
            tx_rate: 0.0,
            target_ledgers: 10,
            ledger_interval_ms: 5000,
            seed: 42,
            max_tx_set_ops: 1000,
            max_sim_time_ms: 3_600_000,
            proc_cost_us_per_msg: 200,
            flood_mode: FloodMode::Push,
            persistence: true,
            store_backend: stellar_store::BackendKind::from_env(),
            trace_sample_every: 1,
            horizon: None,
            horizon_query_rate: 0.0,
            horizon_ingest_interval_ms: 0,
        }
    }
}

/// Deterministic seed for a validator's signing identity.
pub fn validator_keys(id: NodeId) -> KeyPair {
    KeyPair::from_seed(0x7A11DA70u64 ^ u64::from(id.0))
}

/// An active network partition: nodes can only exchange messages within
/// their own group. Nodes not listed in any group form one implicit extra
/// group of their own.
#[derive(Clone, Debug)]
struct Partition {
    group_of: BTreeMap<NodeId, usize>,
    heal_at_ms: Option<u64>,
}

/// One entry of the deterministic event trace (see
/// [`Simulation::enable_trace`]). Two runs from the same seed and fault
/// schedule produce identical traces, which is what makes chaos findings
/// replayable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEntry {
    /// A flooded message arrived at a node.
    Deliver {
        /// Simulated time (ms).
        time: u64,
        /// Sending peer.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Content id of the message.
        msg_id: Hash256,
    },
    /// An SCP timer fired.
    Timer {
        /// Simulated time (ms).
        time: u64,
        /// The node whose timer fired.
        node: NodeId,
        /// Slot the timer belonged to.
        slot: SlotIndex,
    },
    /// A node started consensus on its next ledger.
    Trigger {
        /// Simulated time (ms).
        time: u64,
        /// The triggered node.
        node: NodeId,
    },
    /// A client transaction was submitted.
    Submit {
        /// Simulated time (ms).
        time: u64,
        /// Receiving node.
        to: NodeId,
        /// Transaction hash.
        tx_hash: Hash256,
    },
    /// A node closed a ledger.
    Close {
        /// Simulated time (ms).
        time: u64,
        /// The closing node.
        node: NodeId,
        /// Sequence of the closed ledger.
        seq: u64,
        /// Resulting header hash.
        header_hash: Hash256,
    },
}

/// Everything the simulator keeps about one node of the peer graph.
struct SimNode {
    /// The consensus node; watchers have none and only relay.
    validator: Option<Validator>,
    /// The node's overlay, with its run-long traffic counters.
    engine: FloodEngine,
    /// The last slot `trigger_next_ledger` was called for.
    last_triggered_slot: u64,
    /// When that trigger happened — the pacing base, which survives a
    /// restart.
    last_trigger_time: Option<u64>,
    /// The last ledger seq observed closed.
    last_closed: u64,
    /// Modeled CPU busy-until, microseconds of simulated time.
    busy_until_us: u64,
    /// Crashed: no receive, no send, no timers.
    crashed: bool,
    /// `Some` for a puppet: the node holds real keys and appears in
    /// quorum sets but runs no validator logic — an external driver (a
    /// chaos adversary) drains this inbox and injects envelopes by hand.
    puppet_inbox: Option<Vec<(NodeId, Flooded)>>,
}

impl SimNode {
    fn new(engine: FloodEngine) -> SimNode {
        SimNode {
            validator: None,
            engine,
            last_triggered_slot: 0,
            last_trigger_time: None,
            last_closed: 1,
            busy_until_us: 0,
            crashed: false,
            puppet_inbox: None,
        }
    }

    fn is_puppet(&self) -> bool {
        self.puppet_inbox.is_some()
    }

    /// Whether the node takes part in consensus right now.
    fn is_live(&self) -> bool {
        !self.crashed && !self.is_puppet()
    }
}

/// The engine.
pub struct Simulation {
    cfg: SimConfig,
    now: u64,
    queue: EventQueue,
    /// One record per node of the peer graph, validators and watchers.
    nodes: BTreeMap<NodeId, SimNode>,
    graph: PeerGraph,
    latency: LatencyModel,
    rng: StdRng,
    loadgen: Option<LoadGen>,
    observer: NodeId,
    scp_originated: u64,
    /// Dedicated RNG stream for fault decisions, so configuring faults on
    /// some links never perturbs the base latency/load streams.
    fault_rng: StdRng,
    /// Per-link fault models (chaos testing).
    link_faults: LinkFaultTable,
    /// Active network partition, if any.
    partition: Option<Partition>,
    /// Event trace, recorded when enabled (see [`Simulation::enable_trace`]).
    trace: Option<Vec<TraceEntry>>,
    /// The genesis ledger, retained so a crash-restart can rebuild a
    /// validator from scratch (disk + archives only, no magic RAM).
    genesis: Genesis,
    /// The shared signing-key registry, retained for restart rebuilds.
    registry: BTreeMap<NodeId, stellar_crypto::sign::PublicKey>,
    /// Recovery bookkeeping: restarts performed this run.
    restarts: u64,
    /// Ledgers replayed from history archives during recoveries.
    recovery_replayed: u64,
    /// Wall-clock time spent rebuilding restarted nodes (µs).
    recovery_us: u64,
    /// Liveness health monitor (stuck slots, slow closes, ledger lag).
    watchdog: HealthWatchdog,
    /// Next simulated time the watchdog takes an observation round.
    watchdog_next_ms: u64,
    /// The observer's horizon pipeline, when enabled.
    horizon: Option<HorizonPipeline>,
    /// Sim-side horizon load accounting (`horizon.*`: submissions
    /// admitted/shed, query latency histogram, lag at query time).
    horizon_metrics: Registry,
}

/// The genesis ledger every validator starts from, built once per
/// simulation: the entry store template, the bucket list seeded from it
/// (level hashes already computed) and the header committing to both.
struct Genesis {
    store: LedgerStore,
    buckets: BucketList,
    header: LedgerHeader,
}

impl Genesis {
    fn new(store: LedgerStore) -> Genesis {
        let mut buckets = BucketList::seed(store.all_entries());
        let header = LedgerHeader::genesis(buckets.hash());
        Genesis {
            store,
            buckets,
            header,
        }
    }

    /// A validator at genesis with its own store on the configured
    /// backend (`Mem` clones the template, `Disk` streams it onto a fresh
    /// simulated data disk) and a clone of the seeded bucket list, whose
    /// slots are `Rc`-shared, spilling to that node's own disk.
    fn validator(
        &self,
        id: NodeId,
        qset: QuorumSet,
        backend: stellar_store::BackendKind,
        registry: &BTreeMap<NodeId, PublicKey>,
    ) -> Validator {
        let store =
            stellar_store::open(&self.store, backend, &stellar_store::DiskConfig::default());
        let mut buckets = self.buckets.clone();
        if let Some(disk) = store.disk() {
            buckets.attach_disk(disk, 0);
        }
        Validator::from_recovered(
            id,
            validator_keys(id),
            qset,
            store,
            buckets,
            self.header.clone(),
            registry.clone(),
        )
    }
}

impl Simulation {
    /// Builds the network described by `cfg`.
    pub fn new(cfg: SimConfig) -> Simulation {
        Simulation::with_setup(cfg, SimSetup::default())
    }

    /// Builds the network with a custom genesis ledger.
    pub fn with_setup(cfg: SimConfig, setup: SimSetup) -> Simulation {
        let built = cfg.scenario.build(cfg.seed);
        let genesis = Genesis::new(
            setup
                .genesis
                .unwrap_or_else(|| genesis_store(cfg.n_accounts, 1000)),
        );
        let registry: BTreeMap<NodeId, stellar_crypto::sign::PublicKey> = built
            .validators
            .iter()
            .map(|id| (*id, validator_keys(*id).public()))
            .collect();
        // The one place the flood mode is read: every engine is built
        // here and only ever reset afterwards.
        let mut nodes: BTreeMap<NodeId, SimNode> = built
            .graph
            .nodes()
            .map(|n| {
                let peers = built.graph.peers(n).collect();
                (n, SimNode::new(FloodEngine::new(cfg.flood_mode, peers)))
            })
            .collect();
        for (id, qset) in &built.qsets {
            let mut v = genesis.validator(*id, qset.clone(), cfg.store_backend, &registry);
            v.herder.header.params.max_tx_set_ops = cfg.max_tx_set_ops;
            v.herder
                .telemetry
                .spans
                .configure(cfg.trace_sample_every, TraceStore::DEFAULT_CAP);
            if !cfg.persistence {
                v.herder.persist = stellar_persist::DurableStore::disabled();
            }
            nodes
                .get_mut(id)
                .expect("validators are graph nodes")
                .validator = Some(v);
        }
        let observer = built.validators[0];
        let loadgen = if cfg.tx_rate > 0.0 {
            Some(LoadGen::new(cfg.n_accounts, cfg.tx_rate, cfg.seed))
        } else {
            None
        };
        let mut sim = Simulation {
            now: 0,
            queue: EventQueue::new(),
            nodes,
            graph: built.graph,
            latency: built.latency,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x51),
            loadgen,
            observer,
            scp_originated: 0,
            fault_rng: StdRng::seed_from_u64(cfg.seed ^ 0xFA17),
            link_faults: LinkFaultTable::new(),
            partition: None,
            trace: None,
            genesis,
            registry,
            restarts: 0,
            recovery_replayed: 0,
            recovery_us: 0,
            watchdog: HealthWatchdog::new(WatchdogConfig::default()),
            watchdog_next_ms: 0,
            horizon: None,
            horizon_metrics: Registry::new(),
            cfg,
        };
        if let Some(hcfg) = sim.cfg.horizon {
            let v = sim.validator_mut(sim.observer);
            let pipeline = HorizonPipeline::attach(&mut v.herder, hcfg);
            sim.horizon = Some(pipeline);
            if sim.cfg.horizon_ingest_interval_ms > 0 {
                sim.queue.push(
                    1000 + sim.cfg.horizon_ingest_interval_ms,
                    Event::HorizonIngest,
                );
            }
            if sim.cfg.horizon_query_rate > 0.0 {
                sim.queue.push(1000, Event::HorizonQuery);
            }
        }
        // Initial ledger triggers, slightly staggered like real restarts.
        for (i, id) in sim.validator_ids().into_iter().enumerate() {
            sim.queue
                .push(1000 + (i as u64 % 50), Event::TriggerLedger { node: id });
        }
        // First load arrival.
        if let Some(lg) = sim.loadgen.as_mut() {
            let dt = lg.next_arrival_ms();
            sim.schedule_load(1000 + dt);
        }
        sim
    }

    /// A graph node's record. Every id the simulator routes by — event
    /// targets, peers, validators — names a node of the peer graph.
    fn node(&self, id: NodeId) -> &SimNode {
        self.nodes.get(&id).expect("node of the peer graph")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SimNode {
        self.nodes.get_mut(&id).expect("node of the peer graph")
    }

    /// The validators among the nodes, in id order.
    fn validators(&self) -> impl Iterator<Item = (NodeId, &Validator)> {
        self.nodes
            .iter()
            .filter_map(|(id, n)| n.validator.as_ref().map(|v| (*id, v)))
    }

    fn validator_mut(&mut self, id: NodeId) -> &mut Validator {
        self.node_mut(id).validator.as_mut().expect("a validator")
    }

    /// The validator a client hands `tx` to: a deterministic pick by
    /// transaction hash.
    fn submission_target(&self, tx: &stellar_ledger::tx::TransactionEnvelope) -> NodeId {
        let n = self.validators().count() as u64;
        let pick = (tx.hash().prefix_u64() % n) as usize;
        let (id, _) = self.validators().nth(pick).expect("pick < count");
        id
    }

    fn schedule_load(&mut self, at: u64) {
        let Some(lg) = self.loadgen.as_mut() else {
            return;
        };
        let tx = lg.make_payment();
        // Submit to a pseudo-random validator (client choice).
        let to = self.submission_target(&tx);
        self.queue.push(at, Event::SubmitTx { to, tx });
    }

    /// Schedules a client transaction submission at `at_ms` (routed to a
    /// deterministic validator, then flooded).
    pub fn submit_transaction_at(
        &mut self,
        at_ms: u64,
        tx: stellar_ledger::tx::TransactionEnvelope,
    ) {
        let to = self.submission_target(&tx);
        self.queue.push(at_ms, Event::SubmitTx { to, tx });
    }

    /// A validator, for post-run inspection.
    pub fn validator(&self, id: NodeId) -> &Validator {
        self.node(id).validator.as_ref().expect("a validator")
    }

    /// A node's telemetry (metrics registry + flight recorder).
    pub fn telemetry(&self, id: NodeId) -> &NodeTelemetry {
        &self.validator(id).herder.telemetry
    }

    /// All validator ids.
    pub fn validator_ids(&self) -> Vec<NodeId> {
        self.validators().map(|(id, _)| id).collect()
    }

    /// The observer node (metrics source).
    pub fn observer_id(&self) -> NodeId {
        self.observer
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
    /// discarded and the validator is rebuilt solely from what survived
    /// the reboot —
    ///
    /// 1. its durable store takes the crash (unsynced writes are lost, a
    ///    pending record may be torn);
    /// 2. a fresh validator replays its own history archive from genesis
    ///    and cross-checks the tip against the durable LCL record;
    /// 3. SCP voting state is replayed from the node's own latest
    ///    envelopes on disk, so it can never contradict a vote it already
    ///    published (with persistence off it forgets those votes — the
    ///    amnesia-equivocation hazard the chaos layer demonstrates);
    /// 4. the remaining ledger gap is closed from a reachable live peer's
    ///    archive and the reconnect state exchange runs — which is also
    ///    how the node relearns its peers' latest statements.
    ///
    /// Works on live nodes too (an atomic reboot) and clears the crashed
    /// flag for nodes that were down.
    pub fn restart(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        if node.is_puppet() {
            return;
        }
        let Some(old) = node.validator.take() else {
            return; // a watcher has nothing durable to reboot from
        };
        let started = std::time::Instant::now();
        node.crashed = false;
        let qset = old.scp.quorum_set().clone();
        let herder = old.herder;
        let own_archive = herder.archive;
        let mut disk = herder.persist;
        let data_disk = herder.store.disk();
        // Power loss: whatever was written but not fsynced is gone, and
        // an injected torn-write fault may corrupt a pending record.
        // Both devices take the crash — the write-ahead log and (on the
        // disk backend) the ledger data disk.
        disk.crash();
        if let Some(dd) = &data_disk {
            dd.borrow_mut().crash();
        }
        // Fast recovery path (disk backend only): rebuild the ledger
        // store and bucket list straight off the durable data disk,
        // cross-checked against the write-ahead LCL record. Any
        // discrepancy — torn manifest, sequence split across the two
        // disks, wrong snapshot hash — falls back to genesis replay.
        let lcl = disk
            .read(stellar_herder::herder::LCL_KEY)
            .and_then(|b| stellar_herder::herder::LclRecord::from_bytes(&b).ok());
        let recovered = match (&data_disk, &lcl) {
            (Some(dd), Some(lcl)) => stellar_store::recover_node(
                dd.clone(),
                &lcl.header,
                &lcl.bucket_hashes,
                &stellar_store::DiskConfig::default(),
            )
            .map(|(store, buckets)| (store, buckets, lcl.header.clone())),
            _ => None,
        };
        let durable_recovery = recovered.is_some();
        let mut v = match recovered {
            Some((store, buckets, header)) => Validator::from_recovered(
                id,
                validator_keys(id),
                qset,
                store,
                buckets,
                header,
                self.registry.clone(),
            ),
            // The data disk was unusable (or the node runs in RAM):
            // re-image it and replay from genesis.
            None => self
                .genesis
                .validator(id, qset, self.cfg.store_backend, &self.registry),
        };
        v.herder.header.params.max_tx_set_ops = self.cfg.max_tx_set_ops;
        // A rebooted process keeps tracing at the configured sampling
        // rate; its pre-crash span buffer is RAM and thus lost.
        v.herder
            .telemetry
            .spans
            .configure(self.cfg.trace_sample_every, TraceStore::DEFAULT_CAP);
        v.herder.persist = disk;
        if durable_recovery {
            v.herder.telemetry.registry.inc("recovery.durable_store");
        }
        v.set_time_ms(self.now);
        // Replay our own archive (archives model external durable
        // storage — they survive the reboot in both persistence modes).
        let mut replayed = v.herder.catch_up_from(&own_archive);
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
        // Replay our own latest SCP envelopes from disk (a decided slot
        // re-fires into the close path).
        let restored = v.recover_scp_state();
        let out = v.drain_outputs();
        v.herder
            .telemetry
            .registry
            .add("recovery.slots_restored", restored as u64);
        // The node will re-trigger its current slot, but on the normal
        // 5-second pacing — not the instant the process boots. (The
        // pacing base survives the reboot: production derives it from
        // the recovered last-close time.) Triggering immediately would
        // propose an off-schedule close time and perturb the values the
        // network agrees on.
        let node = self.node_mut(id);
        node.last_triggered_slot = 0;
        node.last_closed = v.ledger_seq();
        node.validator = Some(v);
        // A rebooted process has no flood caches, demand state, pending
        // tick, queued deliveries, or CPU backlog; its traffic counters
        // are the run's measurement and stay.
        node.engine.reset();
        node.busy_until_us = 0;
        self.queue.purge_deliveries_to(id);
        // A horizon pipeline is RAM: if its host rebooted, re-attach a
        // fresh one and backfill history from the archive (restart-
        // mid-ingestion recovery). Live closes resume from the feed.
        if id == self.observer {
            if let Some(hcfg) = self.cfg.horizon {
                let v = self.validator_mut(id);
                let mut p = HorizonPipeline::attach(&mut v.herder, hcfg);
                p.indexer.backfill_history(&v.herder.archive);
                self.horizon = Some(p);
                self.horizon_metrics.inc("horizon.reattached");
            }
        }
        self.handle_outputs(id, out);
        // Close the remaining gap from the network's archives, then
        // rejoin consensus: re-trigger and exchange SCP state.
        replayed += self.catch_up(id);
        let trigger_at = self
            .node(id)
            .last_trigger_time
            .map_or(self.now + 1, |base| {
                (base + self.cfg.ledger_interval_ms).max(self.now + 1)
            });
        self.queue
            .push(trigger_at, Event::TriggerLedger { node: id });
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
    fn catch_up(&mut self, id: NodeId) -> u64 {
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
        // Two validators out of one table: take the lagging one out for
        // the call so it can read the peer's archive in place.
        let mut v = self.node_mut(id).validator.take().expect("a validator");
        v.set_time_ms(self.now);
        let applied = v.herder.catch_up_from(&self.validator(peer).herder.archive);
        self.node_mut(id).validator = Some(v);
        self.check_closed(id);
        applied
    }

    /// Re-floods every live validator's own latest SCP envelopes — the
    /// peer-(re)connect state exchange. Naïve flooding never retransmits,
    /// so after a partition heals (or a node revives) this is what lets
    /// the two sides learn the votes they missed; nodes that already saw
    /// an envelope drop it in the flood cache.
    fn resync(&mut self) {
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

    /// Arms `n` failing fsyncs on `id`'s durable store (chaos hook). The
    /// write-ahead gate reacts by withholding outbound envelopes until a
    /// later sync succeeds.
    pub fn fail_next_fsyncs(&mut self, id: NodeId, n: u32) {
        if let Some(v) = self.find_validator_mut(id) {
            v.herder.persist.fail_next_fsyncs(n);
            // On the disk backend the fault hits the data disk too: a
            // failed close flush keeps the delta dirty in the write-back
            // cache and retries at the next close.
            if let Some(dd) = v.herder.store.disk() {
                dd.borrow_mut().fail_next_fsyncs(n);
            }
        }
    }

    /// Arms a torn write on `id`'s durable store: its next crash commits
    /// only a strict prefix of the oldest unsynced record (chaos hook;
    /// recovery must treat the torn record as absent).
    pub fn tear_next_crash(&mut self, id: NodeId) {
        if let Some(v) = self.find_validator_mut(id) {
            v.herder.persist.tear_next_crash();
            // A torn data-disk record is caught by the segment/manifest
            // checksums; recovery then refuses the fast path.
            if let Some(dd) = v.herder.store.disk() {
                dd.borrow_mut().tear_next_crash();
            }
        }
    }

    /// Imposes a network partition: messages flow only within a group.
    /// Nodes not listed in any group form one implicit group of their
    /// own. `heal_at_ms` removes the partition automatically once
    /// simulated time reaches it.
    pub fn set_partition(&mut self, groups: &[Vec<NodeId>], heal_at_ms: Option<u64>) {
        let mut group_of = BTreeMap::new();
        for (gi, group) in groups.iter().enumerate() {
            for id in group {
                group_of.insert(*id, gi);
            }
        }
        self.partition = Some(Partition {
            group_of,
            heal_at_ms,
        });
    }

    /// Heals any active partition immediately and runs the reconnect
    /// state exchange.
    pub fn clear_partition(&mut self) {
        if self.partition.take().is_some() {
            self.resync();
        }
    }

    /// Whether a partition is currently in force.
    pub fn partition_active(&self) -> bool {
        self.partition.is_some()
    }

    /// Whether the directed link `from -> to` is currently open under the
    /// active partition (probabilistic link faults are not consulted).
    pub fn link_open(&self, from: NodeId, to: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(p) => {
                let unlisted = usize::MAX;
                let ga = p.group_of.get(&from).copied().unwrap_or(unlisted);
                let gb = p.group_of.get(&to).copied().unwrap_or(unlisted);
                ga == gb
            }
        }
    }

    /// The per-link fault table (drop/duplicate/delay/reorder models).
    pub fn link_faults_mut(&mut self) -> &mut LinkFaultTable {
        &mut self.link_faults
    }

    /// Demotes a validator to a puppet: it keeps its keys and its place
    /// in other nodes' quorum sets, but runs no validator logic. Its
    /// inbound traffic lands in an inbox for an external driver (a
    /// Byzantine adversary) to read, and anything it "says" is injected
    /// via [`Simulation::inject_direct`] / [`Simulation::inject_broadcast`].
    pub fn make_puppet(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return; // not a node of this network
        };
        node.puppet_inbox.get_or_insert_with(Vec::new);
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

    /// Starts recording the event trace (see [`TraceEntry`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn record_trace(&mut self, entry: TraceEntry) {
        if let Some(t) = self.trace.as_mut() {
            t.push(entry);
        }
    }

    /// The validator at `id`, for callers that may be handed a watcher
    /// or an id from outside the graph.
    fn find_validator(&self, id: NodeId) -> Option<&Validator> {
        self.nodes.get(&id)?.validator.as_ref()
    }

    fn find_validator_mut(&mut self, id: NodeId) -> Option<&mut Validator> {
        self.nodes.get_mut(&id)?.validator.as_mut()
    }

    /// Current simulated time (ms).
    pub fn now_ms(&self) -> u64 {
        self.now
    }

    /// Time of the next scheduled event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// Number of pending delivery events addressed to `id` (regression
    /// hook: must stay 0 for crashed nodes).
    pub fn pending_deliveries_to(&self, id: NodeId) -> usize {
        self.queue.count_deliveries_to(id)
    }

    /// Total pending events in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The overlay peer graph.
    pub fn graph(&self) -> &PeerGraph {
        &self.graph
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Every node's quorum set (input to intactness computation).
    pub fn quorum_sets(&self) -> BTreeMap<NodeId, QuorumSet> {
        self.validators()
            .map(|(id, v)| (id, v.scp.quorum_set().clone()))
            .collect()
    }

    /// Everything `id` has externalized so far, as `(slot, value)` pairs.
    pub fn externalizations(&self, id: NodeId) -> Vec<(SlotIndex, Value)> {
        self.find_validator(id)
            .map(|v| {
                v.herder
                    .events
                    .iter()
                    .filter_map(|(_, e)| match e {
                        ScpEvent::Externalized { slot, value } => Some((*slot, value.clone())),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Ledger header hashes `id` has committed, as `(seq, hash)` pairs.
    pub fn header_hashes(&self, id: NodeId) -> Vec<(u64, Hash256)> {
        self.find_validator(id)
            .map(|v| {
                v.herder
                    .close_stats
                    .iter()
                    .map(|cs| (cs.ledger_seq, cs.header_hash))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Current ledger sequence of `id`.
    pub fn ledger_seq_of(&self, id: NodeId) -> u64 {
        self.find_validator(id).map_or(0, Validator::ledger_seq)
    }

    /// Marks validators as governing with a desired upgrade set (§5.3).
    pub fn configure_governance(
        &mut self,
        ids: &[NodeId],
        desired: std::collections::BTreeSet<stellar_herder::Upgrade>,
    ) {
        for id in ids {
            if let Some(v) = self.find_validator_mut(*id) {
                v.herder.upgrade_policy = stellar_herder::UpgradePolicy {
                    governing: true,
                    desired: desired.clone(),
                };
            }
        }
    }

    /// Consuming convenience wrapper around [`Simulation::run`].
    pub fn run_to_completion(mut self) -> SimReport {
        self.run()
    }

    /// Runs to completion and produces the report.
    pub fn run(&mut self) -> SimReport {
        let target_seq = 1 + self.cfg.target_ledgers;
        while self.step() {
            let done = |n: &SimNode| {
                let seq = n.validator.as_ref().map(Validator::ledger_seq);
                seq.is_none_or(|seq| seq >= target_seq)
            };
            if done(self.node(self.observer))
                && self.nodes.values().all(|n| !n.is_live() || done(n))
            {
                break;
            }
        }
        self.report()
    }

    /// Advances the simulation by exactly one event. Returns `false` when
    /// the queue is exhausted or the simulated-time cap is reached.
    /// External drivers (the chaos runner) interleave fault-schedule
    /// actions, adversary turns, and invariant checks between steps.
    pub fn step(&mut self) -> bool {
        // A due partition heal applies before the next event fires.
        if let Some(p) = &self.partition {
            if let (Some(heal), Some(next)) = (p.heal_at_ms, self.queue.peek_time()) {
                if heal <= next.max(self.now) {
                    self.now = self.now.max(heal);
                    self.partition = None;
                    self.resync();
                }
            }
        }
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(time);
        if self.now > self.cfg.max_sim_time_ms {
            return false;
        }
        self.dispatch(event);
        self.poll_watchdog();
        true
    }

    /// One health-watchdog observation round, throttled to the watchdog
    /// cadence. Crashed nodes stay in the observation set — a crashed
    /// node genuinely is stuck, which is exactly what the stuck-slot
    /// detector should surface during chaos drills.
    fn poll_watchdog(&mut self) {
        if self.now < self.watchdog_next_ms {
            return;
        }
        self.watchdog_next_ms = self.now + WATCHDOG_INTERVAL_MS;
        let seqs: Vec<(NodeId, u64)> = self
            .nodes
            .iter()
            .filter(|(_, n)| !n.is_puppet())
            .filter_map(|(id, n)| Some((*id, n.validator.as_ref()?.ledger_seq())))
            .collect();
        self.watchdog.observe(self.now, &seqs);
        for (id, lag) in self.watchdog.ledger_lag() {
            let registry = &mut self.validator_mut(id).herder.telemetry.registry;
            registry.set_gauge("health.ledger_lag", lag as i64);
        }
    }

    /// The health watchdog (alerts + lag gauges).
    pub fn watchdog(&self) -> &HealthWatchdog {
        &self.watchdog
    }

    /// Registers a scheduled-downtime window with the health watchdog:
    /// stalls of `id` overlapping `[from_ms, until_ms)` are deliberate
    /// fault injection and are annotated as expected in the health report
    /// rather than raised as alerts.
    pub fn expect_downtime(&mut self, id: NodeId, from_ms: u64, until_ms: u64) {
        self.watchdog.expect_downtime(id, from_ms, until_ms);
    }

    /// Replaces `id`'s quorum set at runtime — the halt-and-reconfigure
    /// self-healing action: after a staged org failure, operators
    /// re-synthesize the federation's configuration without the failed
    /// orgs and push it to the surviving validators, restoring a
    /// satisfiable quorum so consensus can resume.
    pub fn reconfigure_quorum(&mut self, id: NodeId, qset: QuorumSet) {
        let now = self.now;
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        let live = node.is_live();
        let Some(v) = node.validator.as_mut() else {
            return;
        };
        if !live {
            // A crashed node cannot act on new configuration; a puppet
            // never runs consensus. Either way there is nothing to
            // re-evaluate.
            v.scp.set_quorum_set(qset);
            return;
        }
        v.set_time_ms(now);
        // Re-steps the in-flight slot: statements already received may
        // form a quorum under the new slices, and a stalled node would
        // otherwise never look again.
        let out = v.reconfigure_quorum_set(qset);
        self.handle_outputs(id, out);
    }

    /// The observer's horizon pipeline, when one is attached.
    pub fn horizon(&self) -> Option<&HorizonPipeline> {
        self.horizon.as_ref()
    }

    /// The sim-side horizon load metrics (`horizon.*`).
    pub fn horizon_metrics(&self) -> &Registry {
        &self.horizon_metrics
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { to, from, msg } => self.handle_deliver(to, from, msg),
            Event::Timer {
                node,
                slot,
                kind,
                version,
            } => {
                if !self.node(node).is_live() {
                    return;
                }
                if !self.queue.timer_current(node, slot, kind, version) {
                    return;
                }
                self.record_trace(TraceEntry::Timer {
                    time: self.now,
                    node,
                    slot,
                });
                let now = self.now;
                let v = self.validator_mut(node);
                v.set_time_ms(now);
                let out = v.on_timer(slot, kind);
                self.handle_outputs(node, out);
            }
            Event::TriggerLedger { node } => self.handle_trigger(node),
            Event::SubmitTx { to, tx } => self.handle_submit(to, tx),
            Event::PullTick { node } => self.handle_pull_tick(node),
            Event::HorizonQuery => self.handle_horizon_query(),
            Event::HorizonIngest => self.handle_horizon_ingest(),
        }
    }

    /// A client hands `tx` to validator `to`.
    fn handle_submit(&mut self, to: NodeId, tx: stellar_ledger::tx::TransactionEnvelope) {
        self.record_trace(TraceEntry::Submit {
            time: self.now,
            to,
            tx_hash: tx.hash(),
        });
        let now = self.now;
        let v = self
            .nodes
            .get_mut(&to)
            .and_then(|n| n.validator.as_mut())
            .expect("submissions go to validators");
        // The trace root: the client handed the transaction to this
        // node. (Relayed flood copies re-enter admission on other nodes
        // but are not new submissions.)
        v.herder
            .telemetry
            .span(tx.hash().prefix_u64(), now, SpanPhase::Submit);
        v.set_time_ms(now);
        // The observer's submissions pass through the horizon front
        // door: admission control sheds before the transaction costs
        // signature checks or flooding.
        let admitted = match (to == self.observer, self.horizon.as_mut()) {
            (true, Some(p)) => match p.admission.admit(tx.tx.source, now, v.herder.queue.len()) {
                Ok(()) => {
                    self.horizon_metrics.inc("horizon.submitted");
                    true
                }
                Err(HorizonError::RateLimited { .. }) => {
                    self.horizon_metrics.inc("horizon.shed");
                    false
                }
                Err(_) => {
                    self.horizon_metrics.inc("horizon.rejected");
                    false
                }
            },
            _ => true,
        };
        // The receiving node floods the transaction onward (in pull
        // mode: adverts it; peers demand the payload). A shed submission
        // never floods — that is the point.
        if admitted {
            let _ = v.submit_transaction(tx.clone());
            self.originate(to, FloodMessage::Tx(tx));
        }
        let dt = self
            .loadgen
            .as_mut()
            .map(LoadGen::next_arrival_ms)
            .unwrap_or(u64::MAX / 4);
        if self.now + dt < self.load_horizon_ms() {
            self.schedule_load(self.now + dt);
        }
    }

    /// How long load-producing events keep rescheduling themselves: a
    /// few intervals past the target, matching the submit-load horizon.
    fn load_horizon_ms(&self) -> u64 {
        (1 + self.cfg.target_ledgers + 4) * self.cfg.ledger_interval_ms
    }

    /// One horizon client query batch against the observer: an account
    /// summary, an indexed history walk, and fee stats — the three staple
    /// reads — timed together in wall-clock nanoseconds.
    fn handle_horizon_query(&mut self) {
        let Some(p) = self.horizon.as_mut() else {
            return;
        };
        let observer = self.nodes.get(&self.observer);
        let v = observer
            .and_then(|n| n.validator.as_ref())
            .expect("observer");
        let n = self.cfg.n_accounts.max(1);
        // Deterministic client choice without touching the sim RNG
        // streams: walk the account space with a large odd stride.
        let q = self.horizon_metrics.counter("horizon.queries");
        let id = crate::loadgen::user_account(q.wrapping_mul(2654435761) % n);
        let head = v.herder.header.ledger_seq;
        let started = std::time::Instant::now();
        let _ = Horizon::account(&v.herder, id);
        let _ = p.indexer.account_history(id, None, 32);
        let _ = p.indexer.account_effects(id, None, 32);
        let _ = Horizon::fee_stats(&v.herder);
        let ns = started.elapsed().as_nanos() as u64;
        self.horizon_metrics.observe("horizon.query_ns", ns);
        self.horizon_metrics
            .observe("horizon.lag_at_query", p.indexer.lag(head));
        self.horizon_metrics.inc("horizon.queries");
        let dt = ((1000.0 / self.cfg.horizon_query_rate).max(1.0)) as u64;
        if self.now + dt < self.load_horizon_ms() {
            self.queue.push(self.now + dt, Event::HorizonQuery);
        }
    }

    /// One cadence-driven ingestion drain (only scheduled when
    /// `horizon_ingest_interval_ms > 0`).
    fn handle_horizon_ingest(&mut self) {
        if let Some(p) = self.horizon.as_mut() {
            let observer = self.nodes.get_mut(&self.observer);
            let v = observer
                .and_then(|n| n.validator.as_mut())
                .expect("observer");
            p.on_close(&mut v.herder);
        }
        let dt = self.cfg.horizon_ingest_interval_ms;
        if dt > 0 && self.now + dt < self.load_horizon_ms() + dt {
            self.queue.push(self.now + dt, Event::HorizonIngest);
        }
    }

    fn handle_trigger(&mut self, id: NodeId) {
        let now = self.now;
        let node = self.nodes.get_mut(&id).expect("node of the peer graph");
        if node.is_puppet() {
            return; // puppets never run consensus
        }
        if node.crashed {
            // Re-check after an interval; the node may be revived.
            self.queue.push(
                now + self.cfg.ledger_interval_ms,
                Event::TriggerLedger { node: id },
            );
            return;
        }
        let v = node.validator.as_mut().expect("a validator");
        let slot = v.herder.current_slot();
        if slot <= node.last_triggered_slot {
            return; // still working on the slot we already triggered
        }
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry::Trigger {
                time: now,
                node: id,
            });
        }
        node.last_triggered_slot = slot;
        node.last_trigger_time = Some(now);
        v.set_time_ms(now);
        let out = v.trigger_next_ledger();
        self.handle_outputs(id, out);
    }

    fn handle_deliver(&mut self, to: NodeId, from: NodeId, msg: Flooded) {
        let now = self.now;
        let node = self.nodes.get_mut(&to).expect("node of the peer graph");
        if node.crashed {
            return;
        }
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry::Deliver {
                time: now,
                from,
                to,
                msg_id: msg.id,
            });
        }
        // Pull-mode control messages are point-to-point: no seen-cache,
        // no relay, and (being tiny) no processing-capacity charge.
        if msg.msg.is_pull_control() {
            if let Some(inbox) = node.puppet_inbox.as_mut() {
                node.engine.traffic.recv_kind(msg.msg.kind(), msg.size);
                inbox.push((from, msg));
                return;
            }
            let actions = node.engine.on_control(from, &msg, now);
            self.perform(to, actions);
            return;
        }
        // Duplicate deliveries cost only a cache lookup: the engine
        // accounts and drops them before the processing-capacity model.
        if node.engine.suppress_duplicate(&msg) {
            return;
        }
        // Processing-capacity model: a busy node queues fresh deliveries
        // (re-checked for freshness when they finally run).
        let now_us = now * 1000;
        if node.busy_until_us > now_us + 999 {
            let at = node.busy_until_us.div_ceil(1000);
            self.queue.push(at, Event::Deliver { to, from, msg });
            return;
        }
        node.busy_until_us = node.busy_until_us.max(now_us) + self.cfg.proc_cost_us_per_msg;
        node.engine.accept(&msg, now);
        // One hop of payload propagation: the first fresh arrival of a
        // Tx/TxSet stamps a flood-receive span for every transaction the
        // payload carries (trace ids are content-derived — no header).
        if let Some(v) = node.validator.as_mut() {
            if v.herder.telemetry.spans.enabled() {
                for trace in msg.msg.trace_ids() {
                    let phase = SpanPhase::FloodRecv { from: from.0 };
                    v.herder.telemetry.span(trace, now, phase);
                }
            }
        }
        if let Some(inbox) = node.puppet_inbox.as_mut() {
            // Puppets receive but run no validator logic; their driver
            // (the chaos adversary) reads the inbox between steps.
            inbox.push((from, msg.clone()));
        } else if let Some(v) = node.validator.as_mut() {
            // Watchers (non-validators) only relay.
            v.set_time_ms(now);
            let out = match &msg.msg {
                FloodMessage::Scp(env) => v.receive_envelope(env),
                FloodMessage::TxSet(set) => v.receive_tx_set(set.clone()),
                FloodMessage::Tx(tx) => {
                    let _ = v.submit_transaction(tx.clone());
                    Outputs::default()
                }
                FloodMessage::Advert(_) | FloodMessage::Demand(_) => {
                    unreachable!("pull control intercepted above")
                }
            };
            self.handle_outputs(to, out);
            // Out-of-sync recovery: an envelope for a slot ≥ 2 ahead of
            // ours means the network externalized ledgers we missed (lost
            // to drops — naïve flooding never retransmits). Production
            // stellar-core reacts by entering catchup (§6); here we replay
            // straight from the best peer's archive.
            if let FloodMessage::Scp(env) = &msg.msg {
                if env.statement.slot >= self.validator(to).herder.current_slot() + 2 {
                    self.catch_up(to);
                }
            }
        }
        // Onward propagation, after the node's own reaction went out.
        let actions = self.node_mut(to).engine.relay(from, msg, now);
        self.perform(to, actions);
    }

    /// One pull-mode flood tick of `id`'s engine.
    fn handle_pull_tick(&mut self, id: NodeId) {
        let now = self.now;
        let node = self.node_mut(id);
        if node.crashed {
            // A down process runs no tick; whatever traffic follows a
            // revival arms the next one.
            node.engine.tick_missed();
            return;
        }
        let actions = node.engine.tick(now);
        self.perform(id, actions);
    }

    /// Floods a message `id` originates: its own envelope, a submitted
    /// transaction, a proposed transaction set.
    fn originate(&mut self, id: NodeId, msg: FloodMessage) {
        let now = self.now;
        let actions = self.node_mut(id).engine.originate(Flooded::new(msg), now);
        self.perform(id, actions);
    }

    /// Carries out what `id`'s engine asked for: trace the pull steps,
    /// put each send on its link in order, schedule the requested tick.
    fn perform(&mut self, id: NodeId, actions: Actions) {
        let now = self.now;
        // Watchers carry no telemetry.
        if let Some(v) = self.find_validator_mut(id) {
            for (hash, phase) in actions.spans {
                v.herder.telemetry.span(hash.prefix_u64(), now, phase);
            }
        }
        for (to, msg) in actions.sends {
            self.enqueue_delivery(id, to, msg);
        }
        if let Some(at) = actions.tick_at {
            self.queue.push(at, Event::PullTick { node: id });
        }
    }

    /// The delivery chokepoint every sent message funnels through: crashed
    /// targets are dropped here (not at pop time), partitions gate the
    /// link, and per-link fault models decide drop/duplicate/delay fates.
    /// Fault decisions draw from a dedicated RNG stream, so a run with no
    /// faults configured is bit-identical to one without the chaos layer.
    fn enqueue_delivery(&mut self, from: NodeId, to: NodeId, msg: Flooded) {
        if self.nodes.get(&to).is_none_or(|n| n.crashed) {
            return; // nobody there to receive it
        }
        if !self.link_open(from, to) {
            return;
        }
        self.node_mut(from)
            .engine
            .traffic
            .send_kind(msg.msg.kind(), msg.size);
        let base_delay = self.latency.sample(&mut self.rng).max(1);
        match self.link_faults.get(from, to).cloned() {
            None => self
                .queue
                .push(self.now + base_delay, Event::Deliver { to, from, msg }),
            Some(fault) => {
                for extra in fault.sample_deliveries(&mut self.fault_rng) {
                    self.queue.push(
                        self.now + base_delay + extra,
                        Event::Deliver {
                            to,
                            from,
                            msg: msg.clone(),
                        },
                    );
                }
            }
        }
    }

    fn handle_outputs(&mut self, node: NodeId, out: Outputs) {
        self.queue.apply_outputs_timers(self.now, node, &out);
        for env in out.envelopes {
            self.scp_originated += 1;
            self.node_mut(node).engine.traffic.scp_originated += 1;
            self.originate(node, FloodMessage::Scp(env));
        }
        for set in out.tx_sets {
            self.originate(node, FloodMessage::TxSet(set));
        }
        self.check_closed(node);
    }

    /// Detects a freshly closed ledger and schedules the next trigger at
    /// `last_trigger + interval` (the 5-second pacing).
    fn check_closed(&mut self, id: NodeId) {
        let now = self.now;
        let node = self.nodes.get_mut(&id).expect("node of the peer graph");
        let v = node.validator.as_mut().expect("a validator");
        let seq = v.ledger_seq();
        if seq <= node.last_closed {
            return;
        }
        node.last_closed = seq;
        if id == self.observer && self.cfg.horizon_ingest_interval_ms == 0 {
            if let Some(p) = self.horizon.as_mut() {
                p.on_close(&mut v.herder);
            }
        }
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry::Close {
                time: now,
                node: id,
                seq,
                header_hash: v.herder.header.hash(),
            });
        }
        let base = node.last_trigger_time.unwrap_or(now);
        let at = (base + self.cfg.ledger_interval_ms).max(now + 1);
        self.queue.push(at, Event::TriggerLedger { node: id });
    }

    /// Every node's retained lifecycle spans, merged and causally
    /// ordered: `(t_ms, pipeline order, node, trace)`. Timestamps are
    /// simulated ms only, so same-seed runs merge byte-identically.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        let mut all: Vec<SpanEvent> = self
            .validators()
            .flat_map(|(_, v)| v.herder.telemetry.spans.spans().cloned())
            .collect();
        all.sort_by(|a, b| {
            (a.t_ms, a.phase.order(), a.node, a.trace).cmp(&(
                b.t_ms,
                b.phase.order(),
                b.node,
                b.trace,
            ))
        });
        all
    }

    /// Spans evicted from per-node buffers network-wide (trace-coverage
    /// health: non-zero means long runs should raise sampling).
    pub fn spans_dropped(&self) -> u64 {
        self.validators()
            .map(|(_, v)| v.herder.telemetry.spans.dropped())
            .sum()
    }

    /// Renders the complete cross-node causal trace of every sampled
    /// transaction that touched consensus `slot` (nominated into,
    /// externalized by, or applied in it) — the attachment a chaos
    /// violation carries so an invariant break comes with the full
    /// history of the transactions in the affected slot.
    pub fn causal_traces_for_slot(&self, slot: u64) -> String {
        let spans = self.span_events();
        let traces: BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.phase.slot() == Some(slot))
            .map(|s| s.trace)
            .collect();
        let mut out = String::new();
        for t in traces {
            out.push_str(&render_causal_trace(&spans, t));
        }
        out
    }

    /// Renders the causal trace of every sampled transaction still in
    /// flight — submitted but never applied anywhere. During a liveness
    /// stall these are the transactions the stalled slot was supposed to
    /// carry: their last span shows exactly how far the pipeline got
    /// before progress stopped.
    pub fn causal_traces_pending(&self) -> String {
        let spans = self.span_events();
        let applied: BTreeSet<u64> = spans
            .iter()
            .filter(|s| matches!(s.phase, SpanPhase::Applied { .. }))
            .map(|s| s.trace)
            .collect();
        let pending: BTreeSet<u64> = spans
            .iter()
            .map(|s| s.trace)
            .filter(|t| !applied.contains(t))
            .collect();
        let mut out = String::new();
        for t in pending {
            out.push_str(&render_causal_trace(&spans, t));
        }
        out
    }

    /// Every node's run-long traffic counters.
    fn traffic(&self) -> impl Iterator<Item = (NodeId, TrafficStats)> + '_ {
        self.nodes.iter().map(|(id, n)| (*id, n.engine.traffic))
    }

    fn report(&self) -> SimReport {
        let observer = self.validator(self.observer);
        let mut ledgers =
            build_ledger_metrics(&observer.herder.events, &observer.herder.close_stats);
        // Drop ledgers beyond the target (stragglers of shutdown).
        ledgers.retain(|l| l.slot <= 1 + self.cfg.target_ledgers);
        let tx_traces = build_tx_traces(&self.span_events());
        SimReport {
            telemetry: self.telemetry_snapshot(&ledgers, &tx_traces),
            ledgers,
            scp_msgs_originated: self.scp_originated,
            traffic: self.traffic().collect(),
            sim_duration_ms: self.now,
            txs_generated: self.loadgen.as_ref().map_or(0, |l| l.generated),
            n_validators: self.validators().count(),
            tx_traces,
            health: self.watchdog.alerts().to_vec(),
        }
    }

    /// The observer's registry snapshot, with the per-ledger latency
    /// decomposition folded in as histograms and the typed traffic split
    /// (observer view + network totals) attached.
    fn telemetry_snapshot(
        &self,
        ledgers: &[crate::metrics::LedgerMetrics],
        tx_traces: &[crate::tracing::TxTrace],
    ) -> Json {
        let observer = self.validator(self.observer);
        let mut registry = observer.herder.telemetry.registry.clone();
        for l in ledgers {
            registry.observe("consensus.nomination_ms", l.nomination_ms);
            registry.observe("consensus.balloting_ms", l.balloting_ms);
            registry.observe("consensus.total_ms", l.nomination_ms + l.balloting_ms);
        }
        let mut network = TrafficStats::default();
        for (_, t) in self.traffic() {
            network.merge(&t);
        }
        let observer_traffic = self.node(self.observer).engine.traffic;
        Json::obj()
            .set("node", u64::from(self.observer.0))
            .set("registry", registry.snapshot())
            .set(
                "traffic",
                crate::metrics::traffic_to_json(&observer_traffic),
            )
            .set("network_traffic", crate::metrics::traffic_to_json(&network))
            .set(
                "recovery",
                Json::obj()
                    .set("restarts", self.restarts)
                    .set("ledgers_replayed", self.recovery_replayed)
                    .set("recovery_us", self.recovery_us)
                    .set("persistence", self.cfg.persistence),
            )
            .set("store", {
                let stats = observer.herder.store.io_stats();
                Json::obj()
                    .set("backend", observer.herder.store.backend_name())
                    .set(
                        "resident_bytes",
                        observer.herder.store.resident_bytes()
                            + observer.herder.buckets.resident_bytes(),
                    )
                    .set("disk_bytes", stats.disk_bytes)
                    .set("cache_hits", stats.cache_hits)
                    .set("cache_misses", stats.cache_misses)
                    .set("cache_evicts", stats.cache_evicts)
                    .set("bytes_written", stats.bytes_written)
                    .set("fsyncs", stats.fsyncs)
                    .set("segments", stats.segments)
                    .set("compactions", stats.compactions)
            })
            .set("trace", trace_summary_json(tx_traces, self.spans_dropped()))
            .set("health", self.watchdog.to_json())
            .set("horizon", self.horizon_json())
    }

    /// The horizon pipeline section of the report: the merged pipeline
    /// registry (`ingest.*`, `stream.*`, `admission.*`) plus the
    /// sim-side load accounting (`horizon.*`), or `enabled: false`.
    fn horizon_json(&self) -> Json {
        let Some(p) = &self.horizon else {
            return Json::obj().set("enabled", false);
        };
        let head = self.validator(self.observer).herder.header.ledger_seq;
        let mut reg = p.registry();
        reg.merge(&self.horizon_metrics);
        Json::obj()
            .set("enabled", true)
            .set("ingested_seq", p.indexer.ingested_seq())
            .set("ingest_lag", p.indexer.lag(head))
            .set("subscribers", p.hub.len() as u64)
            .set("tracked_sources", p.admission.tracked_sources() as u64)
            .set("registry", reg.snapshot())
    }

    /// Crash-restarts performed this run (recovery telemetry).
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Ledgers replayed from history archives across all recoveries.
    pub fn recovery_ledgers_replayed(&self) -> u64 {
        self.recovery_replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::HealthAlert;

    #[test]
    fn four_validators_close_empty_ledgers() {
        let report = Simulation::new(SimConfig {
            target_ledgers: 5,
            n_accounts: 10,
            ..SimConfig::default()
        })
        .run_to_completion();
        assert!(
            report.ledgers.len() >= 5,
            "got {} ledgers",
            report.ledgers.len()
        );
        // ~5s pacing.
        let interval = report.mean_close_interval_s();
        assert!((4.0..7.0).contains(&interval), "interval {interval}");
    }

    #[test]
    fn load_flows_through_consensus() {
        let report = Simulation::new(SimConfig {
            target_ledgers: 6,
            n_accounts: 500,
            tx_rate: 20.0,
            ..SimConfig::default()
        })
        .run_to_completion();
        let total_tx: usize = report.ledgers.iter().map(|l| l.tx_count).sum();
        assert!(total_tx > 0, "some transactions must be confirmed");
        // Rough throughput sanity: ~20 tps × 5 s ≈ 100 per ledger.
        assert!(
            report.mean_tx_per_ledger() > 30.0,
            "{}",
            report.mean_tx_per_ledger()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig {
            target_ledgers: 4,
            n_accounts: 100,
            tx_rate: 5.0,
            ..SimConfig::default()
        };
        let a = Simulation::new(cfg.clone()).run_to_completion();
        let b = Simulation::new(cfg).run_to_completion();
        assert_eq!(a.scp_msgs_originated, b.scp_msgs_originated);
        assert_eq!(a.ledgers.len(), b.ledgers.len());
        for (x, y) in a.ledgers.iter().zip(&b.ledgers) {
            assert_eq!(x.externalized_at_ms, y.externalized_at_ms);
            assert_eq!(x.tx_count, y.tx_count);
        }
    }

    #[test]
    fn telemetry_snapshot_and_flight_recorder_populated() {
        let mut sim = Simulation::new(SimConfig {
            target_ledgers: 4,
            n_accounts: 50,
            tx_rate: 5.0,
            ..SimConfig::default()
        });
        let report = sim.run();
        // Registry: hot-path counters from the herder instrumentation.
        let registry = report
            .telemetry
            .get("registry")
            .expect("registry in snapshot");
        let counters = registry.get("counters").expect("counters");
        let externalized = counters
            .get("scp.externalized")
            .and_then(stellar_telemetry::Json::as_f64)
            .unwrap_or(0.0);
        assert!(externalized >= 4.0, "externalized counter: {externalized}");
        let hists = registry.get("histograms").expect("histograms");
        assert!(hists.get("consensus.total_ms").is_some());
        assert!(hists.get("ledger.apply_us").is_some());
        // Traffic: typed split + duplicate suppression (full mesh floods
        // every message along multiple paths, so dups are guaranteed).
        let net = report
            .telemetry
            .get("network_traffic")
            .expect("network_traffic");
        let dup = net
            .get("dup_suppressed")
            .and_then(stellar_telemetry::Json::as_f64)
            .unwrap_or(0.0);
        assert!(dup > 0.0, "flooding must hit the duplicate cache");
        let in_kinds = net.get("in_by_kind").expect("in_by_kind");
        assert!(in_kinds
            .get("scp")
            .and_then(stellar_telemetry::Json::as_f64)
            .is_some_and(|v| v > 0.0));
        // Flight recorder: the observer traced the run's slots.
        let recorder = &sim.telemetry(sim.observer_id()).recorder;
        assert!(!recorder.is_empty(), "flight recorder must have events");
        assert!(recorder.latest_slot() > 0, "recorder saw at least one slot");
        // The latest slot may still be mid-nomination at shutdown; pick
        // one the recorder saw externalize.
        let slot = recorder
            .events()
            .filter(|e| matches!(e.kind, stellar_telemetry::TraceKind::Externalized))
            .last()
            .map(|e| e.slot)
            .expect("an externalized slot within the retention window");
        let timeline = recorder.timeline(slot);
        assert!(
            timeline.contains("EXTERNALIZED"),
            "timeline must show the decision:\n{timeline}"
        );
        assert!(!recorder.dump_jsonl().is_empty());
    }

    #[test]
    fn public_network_scenario_runs() {
        let report = Simulation::new(SimConfig {
            scenario: Scenario::PublicNetwork {
                n_orgs: 4,
                validators_per_org: 3,
                n_watchers: 6,
            },
            target_ledgers: 3,
            n_accounts: 50,
            tx_rate: 2.0,
            ..SimConfig::default()
        })
        .run_to_completion();
        assert!(report.ledgers.len() >= 3);
        assert_eq!(report.n_validators, 12);
    }

    #[test]
    fn lifecycle_spans_cover_the_whole_pipeline() {
        let mut sim = Simulation::new(SimConfig {
            target_ledgers: 5,
            n_accounts: 100,
            tx_rate: 10.0,
            ..SimConfig::default()
        });
        let report = sim.run();
        assert!(!report.tx_traces.is_empty(), "load must produce traces");
        let r = report
            .tx_traces
            .iter()
            .find(|r| r.applied_ms.is_some())
            .expect("an applied transaction");
        // Every phase point present, in pipeline order.
        let admit = r.admit_ms.expect("admitted");
        let nominated = r.nominated_ms.expect("nominated");
        let externalized = r.externalized_ms.expect("externalized");
        let applied = r.applied_ms.expect("applied");
        let visible = r.visible_ms.expect("horizon-visible");
        assert!(r.submit_ms <= admit && admit <= nominated);
        assert!(nominated <= externalized && externalized <= applied);
        assert!(applied <= visible);
        assert!(r.apply_slot.is_some());
        // The flood reached other nodes and was recorded per hop.
        assert!(r.flood_hops >= 1, "full mesh floods the payload");
        assert!(r.nodes_reached >= 2);
        // Aggregated summary lives in the telemetry snapshot.
        let trace = report.telemetry.get("trace").expect("trace section");
        let phases = trace.get("phases").expect("phase decomposition");
        let total = phases.get("submit_to_apply").expect("end-to-end phase");
        assert!(total
            .get("samples")
            .and_then(Json::as_f64)
            .is_some_and(|s| s >= 1.0));
        assert!(report.telemetry.get("health").is_some());
        // The causal render for the apply slot shows the full history.
        let render = sim.causal_traces_for_slot(r.apply_slot.unwrap());
        assert!(render.contains("submit"), "{render}");
        assert!(render.contains("applied"), "{render}");
        // A healthy run raises no alerts and no node lags the tip.
        assert!(report.health.is_empty(), "{:?}", report.health);
        assert_eq!(sim.watchdog().max_ledger_lag(), 0);
    }

    #[test]
    fn trace_output_is_byte_identical_across_twin_runs() {
        let cfg = SimConfig {
            target_ledgers: 4,
            n_accounts: 100,
            tx_rate: 5.0,
            ..SimConfig::default()
        };
        let mut a = Simulation::new(cfg.clone());
        let ra = a.run();
        let mut b = Simulation::new(cfg);
        let rb = b.run();
        assert_eq!(a.span_events(), b.span_events(), "span streams differ");
        assert_eq!(
            crate::tracing::rows_to_json(&ra.tx_traces).render(),
            crate::tracing::rows_to_json(&rb.tx_traces).render(),
            "trace rows must render byte-identically"
        );
    }

    #[test]
    fn sampling_knob_gates_span_collection() {
        let base = SimConfig {
            target_ledgers: 3,
            n_accounts: 100,
            tx_rate: 10.0,
            ..SimConfig::default()
        };
        let off = Simulation::new(SimConfig {
            trace_sample_every: 0,
            ..base.clone()
        })
        .run_to_completion();
        assert!(off.tx_traces.is_empty(), "0 disables tracing");
        let full = Simulation::new(base.clone()).run_to_completion();
        let sampled = Simulation::new(SimConfig {
            trace_sample_every: 4,
            ..base
        })
        .run_to_completion();
        assert!(
            sampled.tx_traces.len() < full.tx_traces.len(),
            "sampling must keep fewer traces ({} vs {})",
            sampled.tx_traces.len(),
            full.tx_traces.len()
        );
        // Kept traces are still causally complete: the same rows appear
        // in the full run with identical phase times.
        for r in &sampled.tx_traces {
            assert_eq!(r.trace % 4, 0, "keep rule is id % n == 0");
            let twin = full
                .tx_traces
                .iter()
                .find(|f| f.trace == r.trace)
                .expect("sampled trace exists in the full run");
            assert_eq!(twin, r, "sampling must not change a kept trace");
        }
    }

    #[test]
    fn pull_mode_traces_record_advert_demand_rounds() {
        let mut sim = Simulation::new(SimConfig {
            target_ledgers: 4,
            n_accounts: 100,
            tx_rate: 10.0,
            flood_mode: FloodMode::Pull,
            ..SimConfig::default()
        });
        let report = sim.run();
        assert!(!report.tx_traces.is_empty());
        let spans = sim.span_events();
        assert!(
            spans
                .iter()
                .any(|s| matches!(s.phase, SpanPhase::AdvertSeen { .. })),
            "pull mode must stamp advert spans"
        );
        assert!(
            spans
                .iter()
                .any(|s| matches!(s.phase, SpanPhase::DemandSent { attempt: 1, .. })),
            "first demands are attempt 1"
        );
        // Transactions still complete the pipeline through pull gossip.
        assert!(report.tx_traces.iter().any(|r| r.applied_ms.is_some()));
    }

    #[test]
    fn watchdog_flags_a_crashed_node_as_stuck_and_lagging() {
        let mut sim = Simulation::new(SimConfig {
            target_ledgers: 7,
            n_accounts: 10,
            ..SimConfig::default()
        });
        let victim = sim.validator_ids()[2];
        // Let the network close a couple of ledgers, then fail-stop one
        // node; the 3/4 majority keeps closing without it.
        while sim.now_ms() < 12_000 && sim.step() {}
        sim.crash(victim);
        let report = sim.run();
        assert!(
            report.health.iter().any(|a| matches!(
                a,
                HealthAlert::StuckSlot { node, .. } if *node == victim
            )),
            "stuck-slot alert for the crashed node: {:?}",
            report.health
        );
        assert!(
            sim.watchdog().ledger_lag()[&victim] > 0,
            "crashed node must lag the tip"
        );
        // The health section carries the alert into the snapshot.
        let health = report.telemetry.get("health").expect("health section");
        let alerts = health.get("alerts").and_then(Json::as_arr).expect("alerts");
        assert!(!alerts.is_empty());
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn network_survives_minority_org_crash() {
        // 5 orgs × 3 validators at 67%: one whole org failing leaves a
        // 4-of-5 quorum — ledgers keep closing (§6's design goal).
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::PublicNetwork {
                n_orgs: 5,
                validators_per_org: 3,
                n_watchers: 0,
            },
            n_accounts: 20,
            tx_rate: 1.0,
            target_ledgers: 4,
            seed: 61,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        });
        // Crash the last org (keep the observer, node 0, alive).
        for id in [NodeId(12), NodeId(13), NodeId(14)] {
            sim.crash(id);
        }
        let report = sim.run();
        assert!(
            report.ledgers.len() >= 4,
            "4 healthy orgs must keep closing: {}",
            report.ledgers.len()
        );
    }

    #[test]
    fn network_halts_when_two_orgs_crash_but_stays_safe() {
        // Losing 2 of 5 orgs breaks the 4-of-5 threshold: liveness (not
        // safety) is lost, exactly the §3.1.1 trade-off.
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::PublicNetwork {
                n_orgs: 5,
                validators_per_org: 3,
                n_watchers: 0,
            },
            n_accounts: 20,
            tx_rate: 0.0,
            target_ledgers: 3,
            seed: 62,
            max_sim_time_ms: 60_000,
            ..SimConfig::default()
        });
        // Crash orgs 3 and 4 (nodes 9..15), keeping the observer alive.
        for id in 9..15u32 {
            sim.crash(NodeId(id));
        }
        let report = sim.run();
        assert!(report.ledgers.is_empty(), "no quorum: no ledgers may close");
        // Safety: live validators never externalized anything divergent.
        let ids = sim.validator_ids();
        let seqs: std::collections::BTreeSet<u64> = ids
            .iter()
            .filter(|id| id.0 < 9)
            .map(|id| sim.validator(*id).ledger_seq())
            .collect();
        assert_eq!(seqs, [1u64].into(), "everyone still at genesis");
    }

    /// Regression: a crashed node's inbound deliveries used to pile up in
    /// the event heap (silently dropped one-by-one at pop). They are now
    /// purged on crash and refused at enqueue, so the heap carries zero
    /// deliveries for a dead node at every point of the run.
    #[test]
    fn crashed_node_accumulates_no_queued_deliveries() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 50,
            tx_rate: 10.0,
            target_ledgers: 4,
            seed: 64,
            max_sim_time_ms: 60_000,
            ..SimConfig::default()
        });
        // Let traffic build up, then crash mid-run.
        while sim.now_ms() < 8_000 && sim.step() {}
        sim.crash(NodeId(3));
        assert_eq!(
            sim.pending_deliveries_to(NodeId(3)),
            0,
            "crash must purge queued deliveries"
        );
        let mut max_pending = 0;
        while sim.step() {
            max_pending = max_pending.max(sim.pending_deliveries_to(NodeId(3)));
        }
        assert_eq!(
            max_pending, 0,
            "no deliveries may be enqueued for a crashed node"
        );
        assert!(
            sim.validator(NodeId(0)).ledger_seq() >= 5,
            "the 3-node majority keeps closing"
        );
    }

    #[test]
    fn event_trace_is_reproducible() {
        let cfg = SimConfig {
            target_ledgers: 3,
            n_accounts: 50,
            tx_rate: 5.0,
            seed: 65,
            ..SimConfig::default()
        };
        let run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            sim.enable_trace();
            sim.run();
            sim.trace().to_vec()
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must replay the identical event trace");
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 20,
            target_ledgers: 6,
            seed: 66,
            max_sim_time_ms: 300_000,
            ..SimConfig::default()
        });
        // Split 2-2: neither side holds a 3-of-4 quorum, so no ledger can
        // close while the partition is up; after healing at t=60s the
        // network resumes.
        sim.set_partition(
            &[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
            Some(60_000),
        );
        assert!(!sim.link_open(NodeId(0), NodeId(2)));
        assert!(sim.link_open(NodeId(0), NodeId(1)));
        let report = sim.run();
        assert!(!sim.partition_active(), "partition healed by timestamp");
        assert!(
            report.ledgers.len() >= 6,
            "network must resume after heal: {} ledgers",
            report.ledgers.len()
        );
        let first_close = report.ledgers[0].externalized_at_ms;
        assert!(
            first_close >= 60_000,
            "no ledger closes under a quorum-splitting partition ({first_close}ms)"
        );
    }

    #[test]
    fn crashed_then_revived_node_catches_up() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 20,
            tx_rate: 2.0,
            target_ledgers: 6,
            seed: 63,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        });
        // Let the node do some work first, then fail-stop it mid-run.
        while sim.now_ms() < 8_000 && sim.step() {}
        sim.crash(NodeId(3));
        while sim.now_ms() < 23_000 && sim.step() {}
        let stuck_at = sim.validator(NodeId(3)).ledger_seq();
        let peer_seq = sim.validator(NodeId(0)).ledger_seq();
        assert!(
            peer_seq > stuck_at,
            "majority kept closing while 3 was down"
        );
        // Revival is a full crash-restart: RAM is wiped, recovery runs
        // from the durable store + archive, and the gap comes from a
        // live peer's archive.
        sim.revive(NodeId(3));
        assert!(
            sim.validator(NodeId(3)).ledger_seq() >= peer_seq,
            "revived node replays the missed ledgers from the archive"
        );
        let report = sim.run();
        assert!(report.ledgers.len() >= 6, "3-of-4 majority keeps going");
        assert!(
            sim.validator(NodeId(3)).ledger_seq() >= 7,
            "revived node rejoins consensus and reaches the target: {}",
            sim.validator(NodeId(3)).ledger_seq()
        );
        // Byte-identical history: every sequence both closed hashes equal.
        let h0: BTreeMap<u64, Hash256> = sim.header_hashes(NodeId(0)).into_iter().collect();
        for (seq, hash) in sim.header_hashes(NodeId(3)) {
            if let Some(expected) = h0.get(&seq) {
                assert_eq!(hash, *expected, "header divergence at seq {seq}");
            }
        }
        assert_eq!(sim.restart_count(), 1);
    }

    #[test]
    fn restarted_node_recovers_from_durable_state_alone() {
        // Atomic reboot of a live node: every byte of in-memory state is
        // discarded mid-run; the rebuilt validator has only its durable
        // store and archives, yet rejoins without stalling or diverging.
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 20,
            target_ledgers: 6,
            seed: 67,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        });
        while sim.now_ms() < 12_300 && sim.step() {}
        sim.restart(NodeId(2));
        let report = sim.run();
        assert!(report.ledgers.len() >= 6);
        assert!(
            sim.validator(NodeId(2)).ledger_seq() >= 7,
            "restarted node must keep closing ledgers: {}",
            sim.validator(NodeId(2)).ledger_seq()
        );
        let h0: BTreeMap<u64, Hash256> = sim.header_hashes(NodeId(0)).into_iter().collect();
        for (seq, hash) in sim.header_hashes(NodeId(2)) {
            if let Some(expected) = h0.get(&seq) {
                assert_eq!(hash, *expected, "header divergence at seq {seq}");
            }
        }
        // Recovery telemetry lands in the report snapshot.
        let rec = report.telemetry.get("recovery").expect("recovery section");
        assert_eq!(
            rec.get("restarts")
                .and_then(stellar_telemetry::Json::as_f64),
            Some(1.0)
        );
        assert!(rec
            .get("persistence")
            .is_some_and(|j| matches!(j, stellar_telemetry::Json::Bool(true))));
    }

    #[test]
    fn disk_backend_closes_identical_ledgers() {
        // The consensus-critical invariant of the storage subsystem: a
        // network on the disk backend externalizes byte-identical headers
        // to the same network on the RAM backend.
        let cfg = SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 200,
            tx_rate: 10.0,
            target_ledgers: 5,
            seed: 77,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        };
        let mem = Simulation::new(SimConfig {
            store_backend: stellar_store::BackendKind::Mem,
            ..cfg.clone()
        });
        let disk = Simulation::new(SimConfig {
            store_backend: stellar_store::BackendKind::Disk,
            ..cfg
        });
        let (mut mem, mut disk) = (mem, disk);
        let mem_report = mem.run();
        let disk_report = disk.run();
        assert_eq!(mem_report.ledgers.len(), disk_report.ledgers.len());
        let mem_hashes: BTreeMap<u64, Hash256> = mem.header_hashes(NodeId(0)).into_iter().collect();
        let disk_hashes: BTreeMap<u64, Hash256> =
            disk.header_hashes(NodeId(0)).into_iter().collect();
        assert_eq!(mem_hashes, disk_hashes, "backends must not diverge");
        // The disk run actually ran on disk and reported its I/O.
        let store = disk_report.telemetry.get("store").expect("store section");
        assert!(store
            .get("backend")
            .is_some_and(|j| matches!(j, stellar_telemetry::Json::Str(s) if s == "disk")));
        assert!(store
            .get("disk_bytes")
            .and_then(stellar_telemetry::Json::as_f64)
            .is_some_and(|b| b > 0.0));
    }

    #[test]
    fn disk_backend_restart_recovers_from_data_disk() {
        // On the disk backend a crash-restart takes the fast path:
        // ledger store + bucket list rebuilt from the durable data disk
        // and cross-checked against the write-ahead LCL record — no
        // genesis replay — then the node rejoins without divergence.
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 50,
            tx_rate: 5.0,
            target_ledgers: 6,
            seed: 91,
            max_sim_time_ms: 120_000,
            store_backend: stellar_store::BackendKind::Disk,
            ..SimConfig::default()
        });
        while sim.now_ms() < 12_300 && sim.step() {}
        sim.restart(NodeId(2));
        assert_eq!(
            sim.validator(NodeId(2))
                .herder
                .telemetry
                .registry
                .counter("recovery.durable_store"),
            1,
            "restart must recover from the durable data disk"
        );
        let report = sim.run();
        assert!(report.ledgers.len() >= 6);
        assert!(
            sim.validator(NodeId(2)).ledger_seq() >= 7,
            "recovered node keeps closing ledgers: {}",
            sim.validator(NodeId(2)).ledger_seq()
        );
        let h0: BTreeMap<u64, Hash256> = sim.header_hashes(NodeId(0)).into_iter().collect();
        for (seq, hash) in sim.header_hashes(NodeId(2)) {
            if let Some(expected) = h0.get(&seq) {
                assert_eq!(hash, *expected, "header divergence at seq {seq}");
            }
        }
    }

    #[test]
    fn disk_backend_restart_with_torn_data_disk_falls_back() {
        // A torn data-disk write is caught by the checksums: the fast
        // path refuses and the node re-images from genesis + archive —
        // slower, but never corrupt, and it still rejoins cleanly.
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 30,
            target_ledgers: 5,
            seed: 92,
            max_sim_time_ms: 120_000,
            store_backend: stellar_store::BackendKind::Disk,
            ..SimConfig::default()
        });
        while sim.now_ms() < 12_300 && sim.step() {}
        // Arm a device fault so unsynced bytes exist, then tear them.
        sim.fail_next_fsyncs(NodeId(1), 1);
        while sim.now_ms() < 17_300 && sim.step() {}
        sim.tear_next_crash(NodeId(1));
        sim.restart(NodeId(1));
        let report = sim.run();
        assert!(report.ledgers.len() >= 5);
        assert!(
            sim.validator(NodeId(1)).ledger_seq() >= 6,
            "fallback recovery still rejoins: {}",
            sim.validator(NodeId(1)).ledger_seq()
        );
        let h0: BTreeMap<u64, Hash256> = sim.header_hashes(NodeId(0)).into_iter().collect();
        for (seq, hash) in sim.header_hashes(NodeId(1)) {
            if let Some(expected) = h0.get(&seq) {
                assert_eq!(hash, *expected, "header divergence at seq {seq}");
            }
        }
    }

    #[test]
    fn scp_write_ahead_costs_what_changed_and_stays_bounded_across_restarts() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 20,
            target_ledgers: 40,
            seed: 69,
            max_sim_time_ms: 400_000,
            ..SimConfig::default()
        });
        let counters = |sim: &Simulation, id: NodeId| {
            let reg = &sim.validator(id).herder.telemetry.registry;
            (
                reg.counter("persist.scp.records_written"),
                reg.counter("persist.scp.bytes_written"),
                // Every sync is a ledger close's LCL record or an emission.
                reg.counter("persist.syncs") - reg.counter("ledger.closed"),
            )
        };
        // Steady state: the slot window is full, yet an emission writes
        // the envelopes it releases and nothing else.
        while sim.now_ms() < 42_300 && sim.step() {}
        let (records0, bytes0, emissions0) = counters(&sim, NodeId(1));
        while sim.now_ms() < 62_300 && sim.step() {}
        let (records1, bytes1, emissions1) = counters(&sim, NodeId(1));
        let window = stellar_herder::herder::SLOT_WINDOW as usize;
        assert!(sim.validator(NodeId(1)).scp.live_slots() >= window);
        let (records, bytes, emissions) = (
            records1 - records0,
            bytes1 - bytes0,
            emissions1 - emissions0,
        );
        assert!(
            emissions > 0 && records <= 2 * emissions,
            "{records} records over {emissions} emissions"
        );
        // The per-slot snapshots these records replaced held every peer's
        // latest statement and cost 1 815 B per emission on this run; our
        // own envelopes cost ~205 B. Peer statements back in the WAL fail
        // this bound.
        assert!(
            bytes <= 600 * emissions,
            "{bytes} B over {emissions} emissions"
        );
        // Restarts: a rebooted node never loads the slots below its
        // current one, so nothing would ever drop their records; recovery
        // must clear them or the disk grows by a window a boot.
        // Two records for each window slot, the current one and the
        // look-ahead, plus the LCL record.
        let bound = 2 * (window + 2) + 1;
        let mut lens = Vec::new();
        for boot in 1..=3 {
            sim.restart(NodeId(2));
            while sim.now_ms() < 62_300 + boot * 20_000 && sim.step() {}
            lens.push(sim.validator(NodeId(2)).herder.persist.durable_len());
        }
        assert!(lens.iter().all(|len| *len <= bound), "{lens:?} > {bound}");
        assert!(lens[2] <= lens[0], "durable key set grew: {lens:?}");
    }

    #[test]
    fn restart_without_persistence_forgets_scp_votes() {
        // With persistence disabled the durable store holds nothing: a
        // restarted node comes back with archive state only (closed
        // ledgers survive — archives model external storage) but zero
        // SCP voting state. This is the amnesia configuration whose
        // safety consequences the chaos recovery scenarios demonstrate.
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 20,
            target_ledgers: 4,
            seed: 68,
            persistence: false,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        });
        while sim.now_ms() < 12_300 && sim.step() {}
        let seq_before = sim.validator(NodeId(1)).ledger_seq();
        assert!(seq_before > 1, "some ledgers closed before the restart");
        sim.restart(NodeId(1));
        let v = sim.validator(NodeId(1));
        assert_eq!(
            v.scp.live_slots(),
            0,
            "no durable snapshot: all voting state is forgotten"
        );
        assert!(
            v.ledger_seq() >= seq_before,
            "closed ledgers still recover from the (external) archive"
        );
        assert!(!v.herder.persist.is_enabled());
    }
}
