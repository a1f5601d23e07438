//! The simulation engine: configuration, event loop, dispatch and
//! delivery.
//!
//! Every node of the peer graph is a sans-I/O [`Node`] — a real
//! [`Validator`] (SCP + herder + ledger + buckets) beside a real
//! `FloodEngine`, or a watcher with the engine alone. The simulator keeps
//! only what is not a node: the event queue and the clock, the links
//! (latency, faults, partitions), the processing-cost model, the health
//! watchdog and the god's-eye report. It hands each event to its node and
//! carries out the [`NodeActions`] that come back, in order,
//! deterministically from a single seed.

use crate::events::{record, Event, EventQueue, Flooded, TraceEntry};
use crate::latency::LatencyModel;
use crate::loadgen::{genesis_store, LoadGen};
use crate::metrics::TriggerTimes;
use crate::node::{Effect, Genesis, Node, NodeActions};
use crate::scenario::Scenario;
use crate::watchdog::{HealthWatchdog, WatchdogConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use stellar_herder::validator::Validator;
use stellar_horizon::AdmissionConfig;
use stellar_ledger::tx::TransactionEnvelope;
use stellar_overlay::{FloodEngine, FloodMode, LinkFaultTable};
use stellar_scp::NodeId;

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
    /// How `Tx`/`TxSet` payloads cross the overlay: naïve push flooding
    /// (the §7.5 default) or advert/demand pull gossip. Either way an SCP
    /// envelope is pushed by its originator and advertised by relays, and
    /// in pull mode so is every other payload.
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

/// Modeled per-message processing cost at each node, in microseconds
/// (signature checks, statement processing). Deliveries queue behind a
/// busy node, so message volume translates into latency — the effect
/// behind Fig. 11's balloting growth.
pub const PROC_COST_US_PER_MSG: u64 = 200;

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

/// An active network partition: nodes can only exchange messages within
/// their own group. Nodes not listed in any group form one implicit extra
/// group of their own.
#[derive(Clone, Debug)]
struct Partition {
    group_of: BTreeMap<NodeId, usize>,
    heal_at_ms: Option<u64>,
}

/// The engine.
pub struct Simulation {
    pub(crate) cfg: SimConfig,
    pub(crate) now: u64,
    pub(crate) queue: EventQueue,
    /// One record per node of the peer graph, validators and watchers.
    pub(crate) nodes: BTreeMap<NodeId, Node>,
    /// Each node's modeled CPU busy-until, microseconds of simulated
    /// time; a reboot clears its backlog.
    pub(crate) busy_until_us: BTreeMap<NodeId, u64>,
    latency: LatencyModel,
    rng: StdRng,
    pub(crate) loadgen: Option<LoadGen>,
    pub(crate) observer: NodeId,
    /// Dedicated RNG stream for fault decisions, so configuring faults on
    /// some links never perturbs the base latency/load streams.
    fault_rng: StdRng,
    /// Per-link fault models (chaos testing).
    link_faults: LinkFaultTable,
    /// Active network partition, if any.
    partition: Option<Partition>,
    /// Event trace, recorded when enabled (see [`Simulation::enable_trace`]).
    trace: Option<Vec<TraceEntry>>,
    /// The genesis ledger and key registry, retained so a crash-restart
    /// can rebuild a validator from scratch (disk + archives only, no
    /// magic RAM).
    pub(crate) genesis: Genesis,
    /// Recovery bookkeeping: restarts performed this run.
    pub(crate) restarts: u64,
    /// Ledgers replayed from history archives during recoveries.
    pub(crate) recovery_replayed: u64,
    /// Wall-clock time spent rebuilding restarted nodes (µs).
    pub(crate) recovery_us: u64,
    /// Liveness health monitor (stuck slots, slow closes, ledger lag).
    pub(crate) watchdog: HealthWatchdog,
    /// Next simulated time the watchdog takes an observation round.
    watchdog_next_ms: u64,
    /// Each slot's earliest and latest validator trigger.
    pub(crate) triggers: TriggerTimes,
}

impl Simulation {
    /// Builds the network described by `cfg`.
    pub fn new(cfg: SimConfig) -> Simulation {
        Simulation::with_setup(cfg, SimSetup::default())
    }

    /// Builds the network with a custom genesis ledger.
    pub fn with_setup(cfg: SimConfig, setup: SimSetup) -> Simulation {
        let built = cfg.scenario.build(cfg.seed);
        let genesis = setup
            .genesis
            .unwrap_or_else(|| genesis_store(cfg.n_accounts, 1000));
        // The one place the flood mode is read: every engine is built
        // here and only ever reset afterwards.
        let ingest_each_close = cfg.horizon_ingest_interval_ms == 0;
        let nodes = built
            .graph
            .nodes()
            .map(|n| {
                let peers = built.graph.peers(n).collect();
                let engine = FloodEngine::new(cfg.flood_mode, peers);
                (
                    n,
                    Node::new(engine, cfg.ledger_interval_ms, ingest_each_close),
                )
            })
            .collect();
        let loadgen = if cfg.tx_rate > 0.0 {
            Some(LoadGen::new(cfg.n_accounts, cfg.tx_rate, cfg.seed))
        } else {
            None
        };
        let mut sim = Simulation {
            now: 0,
            queue: EventQueue::new(),
            nodes,
            busy_until_us: BTreeMap::new(),
            latency: built.latency,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x51),
            loadgen,
            observer: built.validators[0],
            fault_rng: StdRng::seed_from_u64(cfg.seed ^ 0xFA17),
            link_faults: LinkFaultTable::new(),
            partition: None,
            trace: None,
            genesis: Genesis::new(genesis, &built.validators),
            restarts: 0,
            recovery_replayed: 0,
            recovery_us: 0,
            watchdog: HealthWatchdog::new(WatchdogConfig::default()),
            watchdog_next_ms: 0,
            triggers: TriggerTimes::default(),
            cfg,
        };
        sim.boot_all(&built.qsets);
        sim.schedule_horizon();
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

    /// A graph node's record, for inspection and per-node faults. Every
    /// id the simulator routes by — event targets, peers, validators —
    /// names a node of the peer graph; any other id panics.
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes.get(&id).expect("node of the peer graph")
    }

    /// A graph node's record, mutably: demote it to a puppet, drain its
    /// inbox, or fault its disks ([`Node::on_disks`]).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes.get_mut(&id).expect("node of the peer graph")
    }

    /// The validators among the nodes, in id order.
    pub(crate) fn validators(&self) -> impl Iterator<Item = (NodeId, &Validator)> {
        self.nodes
            .iter()
            .filter_map(|(id, n)| n.validator().map(|v| (*id, v)))
    }

    /// The validator a client hands `tx` to: a deterministic pick by
    /// transaction hash.
    fn submission_target(&self, tx: &TransactionEnvelope) -> NodeId {
        let n = self.validators().count() as u64;
        let pick = (tx.hash().prefix_u64() % n) as usize;
        let (id, _) = self.validators().nth(pick).expect("pick < count");
        id
    }

    fn schedule_load(&mut self, at: u64) {
        if let Some(lg) = self.loadgen.as_mut() {
            let tx = lg.make_payment();
            self.submit_transaction_at(at, tx);
        }
    }

    /// Schedules a client transaction submission at `at_ms` (routed to a
    /// deterministic validator, then flooded).
    pub fn submit_transaction_at(&mut self, at_ms: u64, tx: TransactionEnvelope) {
        let to = self.submission_target(&tx);
        self.queue.push(at_ms, Event::SubmitTx { to, tx });
    }

    /// All validator ids.
    pub fn validator_ids(&self) -> Vec<NodeId> {
        self.validators().map(|(id, _)| id).collect()
    }

    /// The observer node (metrics source).
    pub fn observer_id(&self) -> NodeId {
        self.observer
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

    /// Starts recording the event trace (see [`TraceEntry`]).
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// The recorded event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Current simulated time (ms).
    pub fn now_ms(&self) -> u64 {
        self.now
    }

    /// Time of the next scheduled event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs to completion and produces the report.
    pub fn run(&mut self) -> crate::SimReport {
        let target_seq = 1 + self.cfg.target_ledgers;
        while self.step() {
            // The observer is waited for even while down: it reports.
            if self.ledger_seq_of(self.observer) >= target_seq && self.reached(target_seq) {
                break;
            }
        }
        self.report()
    }

    /// Whether every live validator has closed ledger `seq`; crashed
    /// nodes and puppets are not waited for.
    pub fn reached(&self, seq: u64) -> bool {
        let mut live = self.nodes.values().filter_map(Node::live_validator);
        live.all(|v| v.ledger_seq() >= seq)
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
            .filter_map(|(id, n)| Some((*id, n.validator()?.ledger_seq())))
            .collect();
        self.watchdog.observe(self.now, &seqs);
        for (id, lag) in self.watchdog.ledger_lag() {
            let validator = self
                .nodes
                .get_mut(&id)
                .and_then(|n| n.state.validator_mut());
            if let Some(v) = validator {
                let registry = &mut v.herder.telemetry.registry;
                registry.set_gauge("health.ledger_lag", lag as i64);
            }
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

    fn dispatch(&mut self, event: Event) {
        let now = self.now;
        let (id, actions) = match event {
            Event::Deliver { to, from, msg } => return self.deliver(to, from, msg),
            Event::Timer {
                node,
                slot,
                kind,
                deadline,
            } => {
                let Some(actions) = self.node_mut(node).on_timer(slot, kind, deadline, now) else {
                    return;
                };
                record(&mut self.trace, || TraceEntry::Timer {
                    time: now,
                    node,
                    slot,
                });
                (node, actions)
            }
            Event::TriggerLedger { node } => (node, self.node_mut(node).on_trigger(now)),
            Event::SubmitTx { to, tx } => return self.submit(to, tx),
            Event::PullTick { node } => (node, self.node_mut(node).on_tick(now)),
            Event::HorizonQuery => return self.handle_horizon_query(),
            Event::HorizonIngest => return self.handle_horizon_ingest(),
        };
        self.carry_out(id, actions);
    }

    /// A client hands `tx` to node `to`; then the next load arrival is
    /// scheduled.
    fn submit(&mut self, to: NodeId, tx: TransactionEnvelope) {
        let now = self.now;
        record(&mut self.trace, || TraceEntry::Submit {
            time: now,
            to,
            tx_hash: tx.hash(),
        });
        let actions = self.node_mut(to).on_submit(tx, now);
        self.carry_out(to, actions);
        let dt = self
            .loadgen
            .as_mut()
            .map(LoadGen::next_arrival_ms)
            .unwrap_or(u64::MAX / 4);
        if now + dt < self.load_horizon_ms() {
            self.schedule_load(now + dt);
        }
    }

    /// How long load-producing events keep rescheduling themselves: a
    /// few intervals past the target, matching the submit-load horizon.
    pub(crate) fn load_horizon_ms(&self) -> u64 {
        (1 + self.cfg.target_ledgers + 4) * self.cfg.ledger_interval_ms
    }

    /// A message reaches `to` from peer `from` (a down node has none
    /// queued). Pull-mode control messages are tiny and a duplicate costs
    /// one seen-cache lookup, so only a fresh payload meets the
    /// processing-capacity model: it queues behind a busy node (offered
    /// again when it finally runs), then charges [`PROC_COST_US_PER_MSG`].
    fn deliver(&mut self, to: NodeId, from: NodeId, msg: Flooded) {
        let now = self.now;
        let Some(node) = self.nodes.get_mut(&to) else {
            return;
        };
        let msg_id = msg.id;
        record(&mut self.trace, || TraceEntry::Deliver {
            time: now,
            from,
            to,
            msg_id,
        });
        if !msg.msg.is_pull_control() {
            if node.suppress_duplicate(&msg) {
                return;
            }
            let busy = self.busy_until_us.entry(to).or_default();
            let now_us = now * 1000;
            if *busy > now_us + 999 {
                let at = busy.div_ceil(1000);
                self.queue.push(at, Event::Deliver { to, from, msg });
                return;
            }
            *busy = (*busy).max(now_us) + PROC_COST_US_PER_MSG;
        }
        let actions = node.on_deliver(from, msg, now);
        self.carry_out(to, actions);
    }

    /// Carries out what node `id` asked for, in its order: each send goes
    /// on its link, each timer, tick and trigger into the queue, and a
    /// catch-up request is answered on the spot. Returns the ledgers the
    /// catch-ups applied.
    pub(crate) fn carry_out(&mut self, id: NodeId, actions: NodeActions) -> u64 {
        let now = self.now;
        let mut applied = 0;
        for effect in actions {
            match effect {
                Effect::Send(to, msg) => self.enqueue_delivery(id, to, msg),
                Effect::Timer(slot, kind, deadline) => {
                    let timer = Event::Timer {
                        node: id,
                        slot,
                        kind,
                        deadline,
                    };
                    self.queue.push(deadline, timer)
                }
                Effect::Tick(at) => self.queue.push(at, Event::PullTick { node: id }),
                Effect::Trigger(at) => self.queue.push(at, Event::TriggerLedger { node: id }),
                Effect::Triggered(slot) => {
                    self.triggers.record(slot, now);
                    record(&mut self.trace, || TraceEntry::Trigger {
                        time: now,
                        node: id,
                    });
                }
                Effect::Closed(seq, header_hash) => {
                    let node = id;
                    record(&mut self.trace, || TraceEntry::Close {
                        time: now,
                        node,
                        seq,
                        header_hash,
                    });
                }
                Effect::CatchUp => applied += self.catch_up(id),
            }
        }
        applied
    }

    /// The delivery chokepoint every sent message funnels through: down
    /// targets are dropped here (not at pop time), partitions gate the
    /// link, and per-link fault models decide drop/duplicate/delay fates.
    /// Fault decisions draw from a dedicated RNG stream, so a run with no
    /// faults configured is bit-identical to one without the chaos layer.
    pub(crate) fn enqueue_delivery(&mut self, from: NodeId, to: NodeId, msg: Flooded) {
        if self.nodes.get(&to).is_none_or(Node::is_down) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::HealthAlert;
    use stellar_crypto::Hash256;
    use stellar_overlay::LinkFault;
    use stellar_telemetry::{Json, SpanPhase};

    #[test]
    fn four_validators_close_empty_ledgers() {
        let report = Simulation::new(SimConfig {
            target_ledgers: 5,
            n_accounts: 10,
            ..SimConfig::default()
        })
        .run();
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
        .run();
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
        let a = Simulation::new(cfg.clone()).run();
        let b = Simulation::new(cfg).run();
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
        let mut net = stellar_overlay::TrafficStats::default();
        for t in report.traffic.values() {
            net.merge(t);
        }
        assert!(
            net.dup_suppressed > 0,
            "flooding must hit the duplicate cache"
        );
        assert!(net.in_count(stellar_overlay::MsgKind::Scp) > 0);
        // Flight recorder: the observer traced the run's slots.
        let recorder = &sim.validator(sim.observer_id()).herder.telemetry.recorder;
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
        .run();
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
        assert!(r.submit_ms <= admit && admit <= nominated);
        assert!(nominated <= externalized && externalized <= applied);
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
        .run();
        assert!(off.tx_traces.is_empty(), "0 disables tracing");
        let full = Simulation::new(base.clone()).run();
        let sampled = Simulation::new(SimConfig {
            trace_sample_every: 4,
            ..base
        })
        .run();
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
        // Every originator pushes to all its peers, so on a full mesh
        // nothing is ever demanded. With the link between validators 0
        // and 1 dead, what one of them originates reaches the other only
        // through a relay's advert.
        let (a, b) = (NodeId(0), NodeId(1));
        let dead = LinkFault::none().with_drop(1.0);
        sim.link_faults_mut().set_link(a, b, dead.clone());
        sim.link_faults_mut().set_link(b, a, dead);
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

    /// The flood seen-cache forgets by age, so over a run of several of
    /// its windows no node's cache keeps growing. The two samples are a
    /// whole number of windows apart, at the same point of the rotation
    /// cycle, where a steady message rate fills the cache the same way.
    #[test]
    fn seen_caches_stop_growing_over_a_run_of_many_windows() {
        use stellar_overlay::engine::SEEN_RETENTION_MS as W;
        for mode in [FloodMode::Push, FloodMode::Pull] {
            let mut sim = Simulation::new(SimConfig {
                scenario: Scenario::ControlledMesh { n_validators: 8 },
                n_accounts: 100,
                tx_rate: 5.0,
                seed: 69,
                flood_mode: mode,
                ..SimConfig::default()
            });
            let seen = |sim: &Simulation| -> Vec<usize> {
                sim.nodes.values().map(|n| n.engine.seen_ids()).collect()
            };
            while sim.now_ms() < 3 * W + W / 2 && sim.step() {}
            let mid = seen(&sim);
            while sim.now_ms() < 6 * W + W / 2 && sim.step() {}
            let last = seen(&sim);
            for (node, (m, l)) in mid.iter().zip(&last).enumerate() {
                assert!(*m > 0, "{mode:?}: node {node} saw traffic");
                assert!(l * 10 <= m * 11, "{mode:?}: node {node} grew {m} -> {l}");
            }
            let mut headers: BTreeMap<u64, Hash256> = BTreeMap::new();
            for id in sim.validator_ids() {
                let chain = sim.header_hashes(id);
                assert!(chain.len() >= 30, "{mode:?}: {id:?} closed {}", chain.len());
                for (seq, hash) in chain {
                    assert_eq!(*headers.entry(seq).or_insert(hash), hash, "{mode:?}: {seq}");
                }
            }
        }
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
    use stellar_crypto::Hash256;
    use stellar_overlay::MsgKind;

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
            sim.queue.count_deliveries_to(NodeId(3)),
            0,
            "crash must purge queued deliveries"
        );
        let mut max_pending = 0;
        while sim.step() {
            max_pending = max_pending.max(sim.queue.count_deliveries_to(NodeId(3)));
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

    /// A client submission routed to a crashed node or a puppet is
    /// refused: the transaction enters no queue anywhere, nothing floods
    /// it, and a crashed node sends nothing at all.
    #[test]
    fn a_crashed_node_or_a_puppet_refuses_client_submissions() {
        for puppet in [false, true] {
            let mut sim = Simulation::new(SimConfig {
                scenario: Scenario::ControlledMesh { n_validators: 4 },
                n_accounts: 50,
                seed: 70,
                max_sim_time_ms: 60_000,
                ..SimConfig::default()
            });
            while sim.now_ms() < 3_000 && sim.step() {}
            let tx = crate::loadgen::LoadGen::new(50, 1.0, 70).make_payment();
            let down = sim.submission_target(&tx);
            if puppet {
                sim.node_mut(down).make_puppet();
            } else {
                sim.crash(down);
            }
            let sent = |sim: &Simulation| sim.node(down).engine.traffic.msgs_out;
            let sent_before = sent(&sim);
            sim.submit_transaction_at(sim.now_ms() + 1, tx);
            while sim.now_ms() < 20_000 && sim.step() {
                for (id, v) in sim.validators() {
                    assert!(
                        v.herder.queue.is_empty(),
                        "puppet {puppet}: queued at {id:?}"
                    );
                }
            }
            let tx_sent = sim
                .nodes
                .values()
                .map(|n| n.engine.traffic.out_count(MsgKind::Tx));
            assert_eq!(
                tx_sent.sum::<u64>(),
                0,
                "puppet {puppet}: the transaction flooded"
            );
            if !puppet {
                assert_eq!(sent(&sim), sent_before, "the crashed node sent");
            }
        }
    }

    /// A crashed puppet says nothing: what its adversary injects, by
    /// broadcast or point to point, queues no delivery and counts no send.
    #[test]
    fn a_down_puppet_injects_nothing() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 20,
            seed: 71,
            max_sim_time_ms: 60_000,
            ..SimConfig::default()
        });
        while sim.now_ms() < 3_000 && sim.step() {}
        let puppet = NodeId(3);
        sim.node_mut(puppet).make_puppet();
        sim.crash(puppet);
        let queued = |sim: &Simulation| {
            let peers = [NodeId(0), NodeId(1), NodeId(2)];
            peers
                .map(|p| sim.queue.count_deliveries_to(p))
                .iter()
                .sum::<usize>()
        };
        let (queued_before, sent_before) = (queued(&sim), sim.node(puppet).engine.traffic.msgs_out);
        let tx = crate::loadgen::LoadGen::new(20, 1.0, 71).make_payment();
        sim.inject_broadcast(puppet, stellar_overlay::FloodMessage::Tx(tx.clone()));
        sim.inject_direct(puppet, NodeId(0), stellar_overlay::FloodMessage::Tx(tx));
        assert_eq!(
            queued(&sim),
            queued_before,
            "a down puppet's injection was queued"
        );
        assert_eq!(sim.node(puppet).engine.traffic.msgs_out, sent_before);
    }

    /// Every role survives a crash followed by a revive: the watcher
    /// relays again and the puppet's inbox fills again.
    #[test]
    fn a_watcher_and_a_puppet_come_back_in_their_roles_after_a_revive() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::PublicNetwork {
                n_orgs: 4,
                validators_per_org: 3,
                n_watchers: 4,
            },
            n_accounts: 50,
            tx_rate: 5.0,
            seed: 71,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        });
        let validators = sim.validator_ids();
        let watcher = *sim
            .nodes
            .keys()
            .find(|id| !validators.contains(id))
            .unwrap();
        let puppet = validators[validators.len() - 1];
        sim.node_mut(puppet).make_puppet();
        while sim.now_ms() < 8_000 && sim.step() {}
        sim.crash(watcher);
        sim.crash(puppet);
        while sim.now_ms() < 16_000 && sim.step() {}
        let relayed = |sim: &Simulation| sim.node(watcher).engine.traffic.msgs_out;
        let relayed_while_down = relayed(&sim);
        assert!(sim.node_mut(puppet).drain_inbox().is_empty());
        for id in [watcher, puppet] {
            sim.revive(id);
            assert!(!sim.is_crashed(id), "{id:?} is still down");
        }
        assert!(sim.node(puppet).is_puppet());
        while sim.now_ms() < 26_000 && sim.step() {}
        assert!(relayed(&sim) > relayed_while_down, "the watcher relays");
        assert!(
            !sim.node_mut(puppet).drain_inbox().is_empty(),
            "the puppet's inbox fills"
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

    /// Every slice needs all four validators, so while one is cut off —
    /// longer than the 4 s a relay caches a payload — nobody closes, and
    /// the sets the other three vote for never reach it. After the heal
    /// their re-flooded envelopes name those sets: the cut-off validator
    /// demands them from the envelopes' senders, and a sender's herder
    /// answers (push mode caches no set, so no cache can), and all four
    /// close the slot alike.
    #[test]
    fn a_validator_cut_off_past_the_payload_window_fetches_the_named_set() {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 50,
            tx_rate: 5.0,
            target_ledgers: 3,
            seed: 67,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        });
        let ids = sim.validator_ids();
        for id in &ids {
            sim.reconfigure_quorum(*id, stellar_scp::QuorumSet::threshold_of(4, ids.clone()));
        }
        let cut = NodeId(3);
        let others: Vec<NodeId> = ids.iter().copied().filter(|id| *id != cut).collect();
        let retention = stellar_overlay::MAX_DEMAND_ATTEMPTS as u64
            * (stellar_overlay::engine::DEMAND_TIMEOUT_MS
                + stellar_overlay::engine::ADVERT_INTERVAL_MS);
        // Ledger 2 closes on the empty set everyone proposes; the cut
        // falls between it and slot 3's trigger at 6 s, so from then on
        // each side's queue holds transactions the other's lacks.
        while sim.now_ms() < 3_000 && sim.step() {}
        assert!(ids.iter().all(|id| sim.ledger_seq_of(*id) == 2));
        let heal = 6_000 + retention + 2_000;
        sim.set_partition(&[others, vec![cut]], Some(heal));
        while sim.now_ms() < heal && sim.step() {}
        for id in &ids {
            assert_eq!(
                sim.ledger_seq_of(*id),
                2,
                "{id:?} closed without the fourth"
            );
        }

        let report = sim.run();
        assert!(
            sim.ledger_seq_of(cut) >= 4,
            "the cut-off validator closes again"
        );
        let chain = sim.header_hashes(NodeId(0));
        for id in &ids {
            assert_eq!(sim.header_hashes(*id), chain, "{id:?} diverged");
        }
        let traffic = &report.traffic[&cut];
        assert!(traffic.set_demands > 0, "the named set was demanded");
        assert!(traffic.pull_fulfilled > 0, "and a herder answered");
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
        assert_eq!(sim.restarts, 1);
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
        sim.node_mut(NodeId(1)).on_disks(|d| d.fail_next_fsyncs(1));
        while sim.now_ms() < 17_300 && sim.step() {}
        sim.node_mut(NodeId(1)).on_disks(|d| d.tear_next_crash());
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
