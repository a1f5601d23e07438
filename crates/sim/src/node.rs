//! One node of the network behind one sans-I/O boundary.
//!
//! A [`Node`] is what one stellar-core process does with an event, with
//! the network taken away: a [`Validator`] (SCP + herder + ledger) beside
//! its overlay's [`FloodEngine`], the ledger pacing and, where hosted, a
//! Horizon pipeline; a watcher is a node without a validator. In: a
//! delivery, a trigger, a pull tick, an SCP timer or a client submission,
//! plus the caller's clock. Out: one ordered [`NodeActions`]. The
//! simulator, a test or a bounded explorer can each drive the same node;
//! the embedder owns links, latency, faults and the processing-cost
//! model. What it must do, and what it may rely on:
//!
//! * **Order.** Carrying the effects out in list order — one latency
//!   sample per [`Effect::Send`], each timer, tick and trigger queued as
//!   it comes — replays bit-identically. A delivered payload yields the
//!   validator's reply (its timers; each envelope's sends and tick; the
//!   sends of each set those envelopes ship; [`Effect::Closed`] and the
//!   next [`Effect::Trigger`] if a ledger closed), then the tick a set
//!   the envelope named and the node lacks asks for, then
//!   [`Effect::CatchUp`] if the node fell behind, then the relay's sends
//!   and tick.
//! * **Transaction sets** cross when SCP names them. *Ship:* released
//!   envelopes flood each set they name that the validator holds and the
//!   engine has not seen ([`Validator::sets_to_ship`]). *Fetch:* a set a
//!   taken envelope names ([`Outputs::taken`], [`named_tx_sets`]) that
//!   the node lacks is wanted from its sender ([`FloodEngine::want_named`]).
//! * **Catch-up.** At [`Effect::CatchUp`] the embedder hands
//!   [`Node::catch_up`] the archive of the most advanced live peer the
//!   node can reach, if that peer is ahead, and carries out what it
//!   returns before the rest of the list. Relay touches only the engine
//!   and catch-up only the validator, so the relay is decided first.
//! * **Deliveries** keep the [`FloodEngine`] contract: a payload passes
//!   [`Node::suppress_duplicate`], then the processing-cost model (a busy
//!   node re-queues it untouched), then [`Node::on_deliver`]. Adverts and
//!   demands go straight to [`Node::on_deliver`].
//! * **SCP timers.** Call [`Node::on_timer`] at each [`Effect::Timer`]'s
//!   deadline; a timer the validator replaced, cancelled or armed in an
//!   earlier process is ignored, so the embedder keeps no timer state.
//! * **Liveness.** A node is in one state: a live validator, a
//!   puppet, a watcher, or down. A down node ([`Node::crash`]) ignores
//!   deliveries, timers and submissions and misses its ticks and
//!   triggers; `Node::reboot` returns it to its role, and a rebooted
//!   validator re-arms its trigger on its pacing grid. A puppet never
//!   triggers, votes or takes a submission, but relays and ticks, and
//!   keeps what it is delivered in an inbox for its adversary.
//! * **Pacing.** A node triggers the next ledger once it has closed the
//!   previous one *and* an interval has passed since its last trigger
//!   (`next_trigger_ms`; §7: "the system runs SCP at 5-second
//!   intervals"). The pacing base survives a reboot.
//!
//! Below the node: [`Genesis`], which builds each validator process and
//! rebuilds it at reboot, and the simulator's per-node hooks — boot,
//! crash and restart, catch-up and inspection.

use crate::events::Flooded;
use crate::simulation::{ill, SimConfig, Simulation};
use std::collections::{BTreeMap, BTreeSet};
use stellar_buckets::{BucketList, HistoryArchive};
use stellar_crypto::sign::{KeyPair, PublicKey};
use stellar_crypto::Hash256;
use stellar_herder::herder::named_tx_sets;
use stellar_herder::validator::{Outputs, Validator};
use stellar_herder::SlotRecord;
use stellar_horizon::{AdmissionConfig, HorizonPipeline};
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::TransactionEnvelope;
use stellar_overlay::{Actions, FloodEngine, FloodMessage};
use stellar_persist::DurableStore;
use stellar_scp::driver::TimerKind;
use stellar_scp::{NodeId, QuorumSet, SlotIndex, Value};
use stellar_telemetry::{Registry, SpanPhase, TraceStore};

/// Deterministic seed for a validator's signing identity.
pub fn validator_keys(id: NodeId) -> KeyPair {
    KeyPair::from_seed(0x7A11DA70u64 ^ u64::from(id.0))
}

/// One thing a node asks of its embedder.
#[derive(Debug)]
pub enum Effect {
    /// Put the message on the link to this peer.
    Send(NodeId, Flooded),
    /// Call [`Node::on_timer`] with this SCP slot, timer kind and
    /// deadline at the deadline (ms).
    Timer(SlotIndex, TimerKind, u64),
    /// Call [`Node::on_tick`] at this time (ms).
    Tick(u64),
    /// Call [`Node::on_trigger`] at this time (ms).
    Trigger(u64),
    /// The node started consensus on this slot.
    Triggered(SlotIndex),
    /// The node closed the ledger of this sequence, with this header hash.
    Closed(u64, Hash256),
    /// The node is behind the network: hand it a reachable peer's
    /// archive ([`Node::catch_up`]) before the effects that follow.
    CatchUp,
}

/// What one node call asks of its embedder, in order.
pub type NodeActions = Vec<Effect>;

/// What a node is right now.
pub(crate) enum State {
    /// A validator taking part in consensus.
    Live(Validator),
    /// A validator demoted to a puppet, with what it was delivered since
    /// its inbox was last drained. It holds real keys and appears in
    /// quorum sets but runs no validator logic; an external adversary
    /// speaks for it.
    Puppet(Validator, Vec<(NodeId, Flooded)>),
    /// A node without a validator: it only relays.
    Watcher,
    /// Crashed: the process image as it went down. A reboot reads it,
    /// and so does inspection.
    Down(Box<State>),
}

impl State {
    /// The validator, live, a puppet's or a down node's image.
    pub(crate) fn validator(&self) -> Option<&Validator> {
        match self {
            State::Live(v) | State::Puppet(v, _) => Some(v),
            State::Watcher => None,
            State::Down(image) => image.validator(),
        }
    }

    pub(crate) fn validator_mut(&mut self) -> Option<&mut Validator> {
        match self {
            State::Live(v) | State::Puppet(v, _) => Some(v),
            State::Watcher => None,
            State::Down(image) => image.validator_mut(),
        }
    }
}

/// One node of the peer graph: a validator, a puppet or a watcher.
pub struct Node {
    /// What the node is; each entry point matches it once.
    pub(crate) state: State,
    /// The node's overlay, with its run-long traffic counters.
    pub(crate) engine: FloodEngine,
    /// The ledger trigger interval (production: 5 000 ms).
    interval_ms: u64,
    /// The last slot the node triggered.
    last_triggered_slot: u64,
    /// When it triggered it: the pacing base, which survives a reboot.
    last_trigger_time: Option<u64>,
    /// The last ledger seq observed closed.
    last_closed: u64,
    /// The Horizon pipeline this node hosts (the observer, when the run
    /// configures one). It is RAM: a reboot attaches a fresh one.
    pub(crate) horizon: Option<HorizonPipeline>,
    /// Whether that pipeline ingests at every close, rather than on the
    /// embedder's cadence.
    ingest_each_close: bool,
    /// Horizon load accounting (`horizon.*`: submissions admitted and
    /// shed, query latency, lag at query time). Like the engine's
    /// traffic counters it is the run's measurement and survives reboots.
    pub(crate) horizon_load: Registry,
}

impl Node {
    /// A node flooding through `engine` that triggers a ledger every
    /// `interval_ms` once `Node::boot` gives it a validator (a watcher
    /// never gets one). With `ingest_each_close` a hosted Horizon
    /// pipeline ingests every close.
    pub fn new(engine: FloodEngine, interval_ms: u64, ingest_each_close: bool) -> Node {
        Node {
            state: State::Watcher,
            engine,
            interval_ms,
            last_triggered_slot: 0,
            last_trigger_time: None,
            last_closed: 1,
            horizon: None,
            ingest_each_close,
            horizon_load: Registry::new(),
        }
    }

    /// The node's validator, as it runs or as it went down; `None` for a
    /// watcher.
    pub fn validator(&self) -> Option<&Validator> {
        self.state.validator()
    }

    /// The validator of a node that takes part in consensus right now.
    pub fn live_validator(&self) -> Option<&Validator> {
        match &self.state {
            State::Live(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the node is down.
    pub fn is_down(&self) -> bool {
        matches!(self.state, State::Down(_))
    }

    /// Whether the node is a puppet, up or down.
    pub fn is_puppet(&self) -> bool {
        match &self.state {
            State::Puppet(..) => true,
            State::Down(image) => matches!(**image, State::Puppet(..)),
            _ => false,
        }
    }

    /// Demotes a live validator to a puppet: it keeps its keys and its
    /// place in other nodes' quorum sets, but runs no validator logic.
    /// Its inbound traffic lands in an inbox for an external Byzantine
    /// adversary to read, and anything it "says" is injected via
    /// [`Simulation::inject_direct`] / [`Simulation::inject_broadcast`].
    pub fn make_puppet(&mut self) {
        self.state = match std::mem::replace(&mut self.state, State::Watcher) {
            State::Live(v) => State::Puppet(v, Vec::new()),
            other => other,
        };
    }

    /// Takes what a puppet was delivered since its last drain.
    pub fn drain_inbox(&mut self) -> Vec<(NodeId, Flooded)> {
        match &mut self.state {
            State::Puppet(_, inbox) => std::mem::take(inbox),
            _ => Vec::new(),
        }
    }

    /// Starts `v` as this node's process — the one boot path of a first
    /// start and of every reboot. A booted process has no flood caches,
    /// demand state or trigger in flight; the run's measurements (traffic
    /// counters, `horizon.*`) and the pacing base stay. With `horizon`
    /// set the node hosts a fresh pipeline, seeded from `v`'s state and
    /// backfilled from its archive (restart-mid-ingestion recovery); live
    /// closes then arrive through the feed.
    fn boot(&mut self, mut v: Validator, horizon: Option<AdmissionConfig>) {
        self.last_triggered_slot = 0;
        self.last_closed = v.ledger_seq();
        self.engine.reset();
        if let Some(hcfg) = horizon {
            let mut p = HorizonPipeline::attach(&mut v.herder, hcfg);
            p.indexer.backfill_history(&v.herder.archive);
            if self.horizon.replace(p).is_some() {
                self.horizon_load.inc("horizon.reattached");
            }
        }
        self.state = State::Live(v);
    }

    /// The process dies: it stops receiving, sending and firing timers,
    /// and misses its ticks and triggers. Its image stays for a reboot
    /// and for inspection.
    pub fn crash(&mut self) {
        if !self.is_down() {
            let image = std::mem::replace(&mut self.state, State::Watcher);
            self.state = State::Down(Box::new(image));
        }
    }

    /// Crashes the node if it is up, then brings it back in its role. A
    /// validator's devices take the power loss (unsynced writes are lost,
    /// a pending record may be torn), its process is rebuilt from what
    /// survived (`Genesis::reboot`), booted — with a fresh Horizon
    /// pipeline of the same configuration if it hosted one — and rejoins
    /// ([`Node::rejoin`]); a puppet or a watcher comes back as it went
    /// down, with a fresh engine. Returns the ledgers replayed and what
    /// the node asks of its embedder.
    fn reboot(&mut self, genesis: &Genesis, cfg: &SimConfig, now: u64) -> (u64, NodeActions) {
        self.on_disks(DurableStore::crash);
        let image = match std::mem::replace(&mut self.state, State::Watcher) {
            State::Down(image) => *image,
            up => up,
        };
        if let State::Live(old) = image {
            let (v, replayed) = genesis.reboot(old, cfg, now);
            let horizon = self.horizon.as_ref().map(|p| *p.admission.config());
            self.boot(v, horizon);
            return (replayed, self.rejoin(now));
        }
        self.engine.reset();
        self.state = image;
        (0, Vec::new())
    }

    /// A rebooted validator rejoins: it floods what its recovery
    /// produced, asks to catch up, and re-triggers at the next point of
    /// its pacing grid, not the instant it boots.
    fn rejoin(&mut self, now: u64) -> NodeActions {
        let mut out = Vec::new();
        self.step(now, &mut out, Validator::drain_outputs);
        let grid = |base| next_trigger_ms(base, self.interval_ms, now, false);
        let at = self.last_trigger_time.map_or(now + 1, grid);
        out.extend([Effect::CatchUp, Effect::Trigger(at)]);
        out
    }

    /// Applies `fault` to each device the node writes: the write-ahead
    /// log and, on the disk backend, the ledger data disk.
    pub fn on_disks(&mut self, fault: impl Fn(&mut DurableStore)) {
        let Some(v) = self.state.validator_mut() else {
            return; // a watcher has no disks
        };
        fault(&mut v.herder.persist);
        if let Some(dd) = v.herder.store.disk() {
            fault(&mut dd.borrow_mut());
        }
    }

    /// Accounts and drops a payload the node has already seen; `false`
    /// when it is fresh ([`FloodEngine::suppress_duplicate`]).
    pub fn suppress_duplicate(&mut self, msg: &Flooded) -> bool {
        self.engine.suppress_duplicate(msg)
    }

    /// An advert, a demand or a fresh payload arrives from peer `from`.
    /// The node stamps a flood-receive span per transaction carried,
    /// hands the payload to its validator, wants from `from` the sets an
    /// envelope names that the validator lacks, asks to catch up when an
    /// envelope shows the network two or more slots ahead (flooding never
    /// retransmits what was lost; production enters catchup, §6), and
    /// relays it.
    pub fn on_deliver(&mut self, from: NodeId, msg: Flooded, now: u64) -> NodeActions {
        let mut out = Vec::new();
        let control = msg.msg.is_pull_control();
        match &mut self.state {
            State::Down(_) => return out,
            State::Puppet(_, inbox) => {
                inbox.push((from, msg.clone()));
                if control {
                    self.engine.traffic.recv_kind(msg.msg.kind(), msg.size);
                    return out;
                }
            }
            State::Live(_) | State::Watcher if control => {
                let actions = self.engine.on_control(from, &msg, now, held(&self.state));
                self.flood(actions, now, &mut out);
                return out;
            }
            State::Live(_) | State::Watcher => {}
        }
        self.engine.accept(&msg, now);
        let telemetry = self.state.validator_mut().map(|v| &mut v.herder.telemetry);
        if let Some(t) = telemetry.filter(|t| t.spans.enabled()) {
            for trace in msg.msg.trace_ids() {
                t.span(trace, now, SpanPhase::FloodRecv { from: from.0 });
            }
        }
        let mut taken = false;
        self.step(now, &mut out, |v| match &msg.msg {
            FloodMessage::Scp(env) => {
                let reply = v.receive_envelope(env);
                taken = reply.taken;
                reply
            }
            FloodMessage::TxSet(set) => v.receive_tx_set(set.clone()),
            FloodMessage::Tx(tx) => {
                let _ = v.submit_transaction(tx.clone());
                Outputs::default()
            }
            FloodMessage::Advert(_) | FloodMessage::Demand(_) => Outputs::default(),
        });
        if let (FloodMessage::Scp(env), true) = (&msg.msg, taken) {
            let actions = self
                .engine
                .want_named(from, named_tx_sets(env), now, held(&self.state));
            self.flood(actions, now, &mut out);
        }
        if let (FloodMessage::Scp(env), State::Live(v)) = (&msg.msg, &self.state) {
            if env.statement.slot >= v.herder.current_slot() + 2 {
                out.push(Effect::CatchUp);
            }
        }
        let actions = self.engine.relay(from, msg, now);
        self.flood(actions, now, &mut out);
        out
    }

    /// Replays the ledgers the node missed from a peer's `archive`;
    /// returns how many it applied.
    pub fn catch_up(&mut self, archive: &HistoryArchive, now: u64) -> (u64, NodeActions) {
        let (mut out, mut applied) = (Vec::new(), 0);
        self.step(now, &mut out, |v| {
            applied = v.herder.catch_up_from(archive);
            Outputs::default()
        });
        (applied, out)
    }

    /// The ledger trigger: a live validator that has moved past the slot
    /// it last triggered starts consensus on the next one.
    pub fn on_trigger(&mut self, now: u64) -> NodeActions {
        let mut out = Vec::new();
        let State::Live(v) = &self.state else {
            return out;
        };
        let slot = v.herder.current_slot();
        if slot <= self.last_triggered_slot {
            return out; // still working on the slot it triggered
        }
        self.last_triggered_slot = slot;
        self.last_trigger_time = Some(now);
        out.push(Effect::Triggered(slot));
        self.step(now, &mut out, Validator::trigger_next_ledger);
        out
    }

    /// One pull-mode flood tick. A down process runs none; whatever
    /// traffic follows a revival arms the next one.
    pub fn on_tick(&mut self, now: u64) -> NodeActions {
        let mut out = Vec::new();
        if let State::Down(_) = self.state {
            self.engine.tick_missed();
        } else {
            let actions = self.engine.tick(now);
            self.flood(actions, now, &mut out);
        }
        out
    }

    /// The SCP timer [`Effect::Timer`] asked for reaches its `deadline`;
    /// `None` when the node ignores it: it is not a live validator, or its
    /// validator does not hold that deadline armed
    /// ([`Validator::on_timer`]).
    pub fn on_timer(
        &mut self,
        slot: SlotIndex,
        kind: TimerKind,
        deadline: u64,
        now: u64,
    ) -> Option<NodeActions> {
        let State::Live(v) = &mut self.state else {
            return None;
        };
        v.set_time_ms(now);
        let reply = v.on_timer(slot, kind, deadline)?;
        let mut out = Vec::new();
        self.reply(reply, now, &mut out);
        Some(out)
    }

    /// A client hands the node `tx`. It passes the hosted pipeline's
    /// admission control, if any, and the node floods what it admits; a
    /// shed submission never floods — that is the point. A node that is
    /// not a live validator refuses it outright: no admission, queue,
    /// span or flood.
    pub fn on_submit(&mut self, tx: TransactionEnvelope, now: u64) -> NodeActions {
        let mut out = Vec::new();
        if !matches!(self.state, State::Live(_)) {
            return out;
        }
        let admitted = self.admit(&tx, now);
        self.step(now, &mut out, |v| {
            // The trace root (relayed copies are not new submissions).
            let trace = tx.hash().prefix_u64();
            v.herder.telemetry.span(trace, now, SpanPhase::Submit);
            if admitted {
                let _ = v.submit_transaction(tx.clone());
            }
            Outputs::default()
        });
        if admitted {
            self.originate_into(FloodMessage::Tx(tx), now, &mut out);
        }
        out
    }

    /// Replaces the node's quorum set. A live validator re-steps its slot
    /// in flight — statements it already holds may form a quorum under
    /// the new slices, and a stalled node would otherwise never look
    /// again; a down node or a puppet only stores it.
    pub fn reconfigure_quorum(&mut self, qset: QuorumSet, now: u64) -> NodeActions {
        let mut out = Vec::new();
        match &mut self.state {
            State::Live(_) => self.step(now, &mut out, |v| v.reconfigure_quorum_set(qset)),
            state => {
                if let Some(v) = state.validator_mut() {
                    v.scp.set_quorum_set(qset);
                }
            }
        }
        out
    }

    /// The peer-(re)connect state exchange: a live validator re-floods its
    /// own latest SCP envelopes; a peer lacking a set they name fetches
    /// it. Peers drop what their seen-caches still hold, and SCP drops an
    /// older re-flood as not newer than the statement it already has.
    fn reconnect(&mut self, now: u64) -> NodeActions {
        let mut out = Vec::new();
        let State::Live(v) = &self.state else {
            return out;
        };
        for env in v.scp.own_latest_envelopes(v.herder.current_slot()) {
            self.originate_into(FloodMessage::Scp(env), now, &mut out);
        }
        out
    }

    /// Floods a message the node originates.
    fn originate_into(&mut self, msg: FloodMessage, now: u64, out: &mut NodeActions) {
        let actions = self.engine.originate(Flooded::new(msg), now);
        self.flood(actions, now, out);
    }

    /// Takes what the engine asked for: pull steps become spans (watchers
    /// carry no telemetry), sends and the tick become effects.
    fn flood(&mut self, actions: Actions, now: u64, out: &mut NodeActions) {
        if let Some(v) = self.state.validator_mut() {
            for (hash, phase) in actions.spans {
                v.herder.telemetry.span(hash.prefix_u64(), now, phase);
            }
        }
        let sends = actions.sends.into_iter();
        out.extend(sends.map(|(to, msg)| Effect::Send(to, msg)));
        out.extend(actions.tick_at.map(Effect::Tick));
    }

    /// Runs `f` on a live validator at `now` and takes its reply; any
    /// other node does nothing.
    fn step(&mut self, now: u64, out: &mut NodeActions, f: impl FnOnce(&mut Validator) -> Outputs) {
        if let State::Live(v) = &mut self.state {
            v.set_time_ms(now);
            let reply = f(v);
            self.reply(reply, now, out);
        }
    }

    /// A validator step's reply: its timers, then each envelope and each
    /// set they ship flooded, then the close check.
    fn reply(&mut self, reply: Outputs, now: u64, out: &mut NodeActions) {
        let timers = reply.timers.into_iter();
        out.extend(timers.map(|(slot, kind, at)| Effect::Timer(slot, kind, at)));
        let sets = self.state.validator().map_or(Vec::new(), |v| {
            v.sets_to_ship(&reply.envelopes, |id| self.engine.has_seen(*id))
        });
        for env in reply.envelopes {
            self.engine.traffic.scp_originated += 1;
            self.originate_into(FloodMessage::Scp(env), now, out);
        }
        for set in sets {
            self.originate_into(FloodMessage::TxSet(set), now, out);
        }
        self.check_closed(now, out);
    }

    /// Detects a freshly closed ledger and asks for the next trigger on
    /// the pacing grid. Without an ingestion cadence, a hosted Horizon
    /// pipeline ingests every close.
    fn check_closed(&mut self, now: u64, out: &mut NodeActions) {
        let State::Live(v) = &self.state else {
            return;
        };
        let seq = v.ledger_seq();
        if seq <= self.last_closed {
            return;
        }
        let header_hash = v.herder.header.hash();
        self.last_closed = seq;
        if self.ingest_each_close {
            self.ingest();
        }
        let base = self.last_trigger_time.unwrap_or(now);
        let at = next_trigger_ms(base, self.interval_ms, now, self.last_triggered_slot == seq);
        out.extend([Effect::Closed(seq, header_hash), Effect::Trigger(at)]);
    }
}

/// The node's holder view: a validator's sets, kept for the slot window.
fn held(state: &State) -> impl Fn(&Hash256) -> Option<FloodMessage> + '_ {
    move |id| {
        let set = state.validator()?.herder.known_tx_sets.get(id)?;
        Some(FloodMessage::TxSet(set.clone()))
    }
}

/// When a node that closed a ledger at `now` triggers the next one, given
/// its last trigger at `base`: `base + interval`, or `now + 1` when its
/// own slot (`own_slot`: it triggered the slot it just closed) ran past
/// that. A node that did not trigger the slot it closed — it rebooted or
/// caught up — waits for the first point after `now` on its grid
/// `base + k·interval`, which is where the rest of the network triggers:
/// triggering at once would have it propose a whole interval ahead of
/// its peers, and close on a stale set each slot it leads.
fn next_trigger_ms(base: u64, interval: u64, now: u64, own_slot: bool) -> u64 {
    if own_slot {
        (base + interval).max(now + 1)
    } else {
        base + (now + 1 - base).div_ceil(interval) * interval
    }
}

/// The genesis ledger every validator starts from, built once per
/// simulation: the entry store template, the bucket list seeded from it
/// (level hashes already computed) and the header committing to both.
pub struct Genesis {
    store: LedgerStore,
    buckets: BucketList,
    header: LedgerHeader,
    /// The shared signing-key registry.
    pub(crate) registry: BTreeMap<NodeId, PublicKey>,
}

impl Genesis {
    /// The genesis ledger over `store`, with the signing keys of
    /// `validators`.
    pub fn new(store: LedgerStore, validators: &[NodeId]) -> Genesis {
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

    /// Heap bytes of the genesis ledger: the store template's, and the
    /// seeded bucket list's share of the levels its clones still share.
    pub(crate) fn resident_bytes(&self) -> (u64, u64) {
        (self.store.resident_bytes(), self.buckets.resident_share())
    }

    /// A validator process with the run's per-node settings and `wal` as
    /// its write-ahead log. Its ledger is `recovered` (store, buckets and
    /// header read back off a data disk) or else genesis: a store of its
    /// own on the configured backend (`Mem` clones the template, `Disk`
    /// streams it onto a fresh simulated data disk) and a clone of the
    /// seeded bucket list, whose slots are `Rc`-shared, spilling to that
    /// node's own disk.
    pub fn validator(
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
    ///    durable storage and survive even a wiped disk) and checks the
    ///    tip against the LCL record read in step 1.
    /// 3. SCP voting state is replayed from the node's own latest
    ///    envelopes on disk, so it can never contradict a vote it already
    ///    published (a disk emptied at the crash forgets those votes —
    ///    the amnesia-equivocation hazard the chaos layer demonstrates);
    ///    a decided slot re-fires into the close path. The caller routes
    ///    what that produced.
    fn reboot(&self, old: Validator, cfg: &SimConfig, now: u64) -> (Validator, u64) {
        let id = old.herder.node_id;
        let qset = old.scp.quorum_set().clone();
        let herder = old.herder;
        let lcl = herder.recover_lcl();
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
        if let Some(lcl) = lcl {
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
    /// Builds and boots every validator of `qsets` at genesis; the
    /// observer hosts the run's Horizon pipeline, if it has one.
    pub(crate) fn boot_all(&mut self, qsets: &[(NodeId, QuorumSet)]) {
        for (id, qset) in qsets {
            let wal = DurableStore::new();
            let v = self
                .genesis
                .validator(*id, qset.clone(), &self.cfg, wal, None);
            let horizon = self.cfg.horizon.filter(|_| *id == self.observer);
            self.node_mut(*id).boot(v, horizon);
            self.watchdog.set_quorum(*id, qset.clone());
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
        node.crash();
        self.queue.purge_deliveries_to(id);
        self.watchdog.rejudge(self.now, || ill(&self.nodes));
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

    /// Crash-restarts a node in place (`Node::reboot`): every byte of
    /// in-memory state is discarded and a validator is rebuilt solely
    /// from what survived. The remaining ledger gap is then closed from a
    /// reachable live peer's archive and the reconnect state exchange
    /// runs — which is also how the node relearns its peers' latest
    /// statements.
    ///
    /// Works on live nodes too (an atomic reboot) and brings a down node
    /// back in its role.
    pub fn restart(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get_mut(&id) else {
            return;
        };
        let (replayed, actions) = node.reboot(&self.genesis, &self.cfg, self.now);
        self.watchdog.restarted(id);
        self.busy_until_us.remove(&id);
        self.queue.purge_deliveries_to(id);
        let replayed = replayed + self.carry_out(id, actions);
        self.resync();
        self.restarts += 1;
        self.recovery_replayed += replayed;
        if let Some(v) = self.node_mut(id).state.validator_mut() {
            let reg = &mut v.herder.telemetry.registry;
            reg.inc("recovery.restarts");
            reg.add("recovery.ledgers_replayed", replayed);
        }
        self.watchdog.rejudge(self.now, || ill(&self.nodes));
    }

    /// Replays ledgers the node missed from the most-advanced live
    /// peer's history archive (paper §5.4 — flooding never retransmits,
    /// so closed history must come from the archive). Only peers the
    /// node can actually reach under the active partition are consulted.
    /// Returns the number of ledgers applied; 0 when nobody reachable is
    /// ahead.
    pub(crate) fn catch_up(&mut self, id: NodeId) -> u64 {
        // The node steps out of the map while it reads a peer's archive.
        let Some(mut node) = self.nodes.remove(&id) else {
            return 0;
        };
        let own_seq = node.validator().map_or(0, Validator::ledger_seq);
        let reachable = self
            .nodes
            .iter()
            .filter(|(peer, _)| self.link_open(**peer, id));
        let best = reachable.filter_map(|(_, n)| n.live_validator());
        let ahead = best
            .max_by_key(|v| v.ledger_seq())
            .filter(|v| v.ledger_seq() > own_seq);
        let catch_up = |v: &Validator| node.catch_up(&v.herder.archive, self.now);
        let (applied, actions) = ahead.map(catch_up).unwrap_or_default();
        self.nodes.insert(id, node);
        self.carry_out(id, actions);
        applied
    }

    /// Runs every live validator's state exchange ([`Node::reconnect`]).
    /// Naïve flooding never retransmits, so after a partition heals (or a
    /// node revives) this is how the two sides learn the votes they missed.
    pub(crate) fn resync(&mut self) {
        let now = self.now;
        for id in self.validator_ids() {
            let actions = self.node_mut(id).reconnect(now);
            self.carry_out(id, actions);
        }
    }

    /// Replaces `id`'s quorum set at runtime — the halt-and-reconfigure
    /// self-healing action: after a staged org failure, operators
    /// re-synthesize the federation's configuration without the failed
    /// orgs and push it to the surviving validators, restoring a
    /// satisfiable quorum so consensus can resume.
    pub fn reconfigure_quorum(&mut self, id: NodeId, qset: QuorumSet) {
        let now = self.now;
        if let Some(node) = self.nodes.get_mut(&id).filter(|n| n.validator().is_some()) {
            self.watchdog.set_quorum(id, qset.clone());
            let actions = node.reconfigure_quorum(qset, now);
            self.carry_out(id, actions);
            self.watchdog.rejudge(self.now, || ill(&self.nodes));
        }
    }

    /// Marks validators as governing with a desired upgrade set (§5.3).
    pub fn configure_governance(
        &mut self,
        ids: &[NodeId],
        desired: BTreeSet<stellar_herder::Upgrade>,
    ) {
        for id in ids {
            if let Some(v) = self.nodes.get_mut(id).and_then(|n| n.state.validator_mut()) {
                v.herder.upgrade_policy = stellar_herder::UpgradePolicy {
                    governing: true,
                    desired: desired.clone(),
                };
            }
        }
    }

    /// The validator at `id`, if `id` names one (callers may be handed a
    /// watcher or an id from outside the graph).
    fn find_validator(&self, id: NodeId) -> Option<&Validator> {
        self.nodes.get(&id)?.validator()
    }

    /// A validator, for post-run inspection.
    pub fn validator(&self, id: NodeId) -> &Validator {
        self.find_validator(id).expect("a validator")
    }

    /// Everything `id` has externalized since it booted, as `(slot,
    /// value)` pairs in slot order.
    pub fn externalizations(&self, id: NodeId) -> Vec<(SlotIndex, Value)> {
        let records = self
            .find_validator(id)
            .into_iter()
            .flat_map(|v| &v.herder.slot_records);
        let decided = |(slot, r): (&SlotIndex, &SlotRecord)| {
            r.externalized.as_ref().map(|(_, v)| (*slot, v.clone()))
        };
        records.filter_map(decided).collect()
    }

    /// Ledger header hashes `id` has committed, as `(seq, hash)` pairs.
    pub fn header_hashes(&self, id: NodeId) -> Vec<(u64, Hash256)> {
        let closes = self
            .find_validator(id)
            .into_iter()
            .flat_map(|v| &v.herder.close_stats);
        closes.map(|cs| (cs.ledger_seq, cs.header_hash)).collect()
    }

    /// Current ledger sequence of `id`.
    pub fn ledger_seq_of(&self, id: NodeId) -> u64 {
        self.find_validator(id).map_or(0, Validator::ledger_seq)
    }

    /// Whether `id` is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(Node::is_down)
    }

    /// Injects a message from `from` to a single peer `to` (adversary
    /// equivocation path: different payloads to different peers). Honest
    /// receivers process and relay it through their normal paths. A down
    /// node says nothing.
    pub fn inject_direct(&mut self, from: NodeId, to: NodeId, msg: FloodMessage) {
        if self.is_crashed(from) {
            return;
        }
        let flooded = Flooded::new(msg);
        let now = self.now;
        self.node_mut(from).engine.note_sent(&flooded, now); // don't bounce back
        self.enqueue_delivery(from, to, flooded);
    }

    /// Injects a message `from` floods the way its own overlay would; a
    /// down node floods nothing.
    pub fn inject_broadcast(&mut self, from: NodeId, msg: FloodMessage) {
        if self.is_crashed(from) {
            return;
        }
        let (now, mut actions) = (self.now, Vec::new());
        self.node_mut(from).originate_into(msg, now, &mut actions);
        self.carry_out(from, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{genesis_store, LoadGen};
    use std::collections::VecDeque;
    use stellar_overlay::FloodMode;

    #[test]
    fn pacing_keeps_the_grid_unless_an_own_slot_ran_long() {
        let (base, interval) = (1_000, 5_000);
        // On time: one interval after the last trigger.
        assert_eq!(next_trigger_ms(base, interval, 1_700, true), 6_000);
        assert_eq!(next_trigger_ms(base, interval, 1_700, false), 6_000);
        // The node's own slot ran past that: trigger at once.
        assert_eq!(next_trigger_ms(base, interval, 7_300, true), 7_301);
        // A rejoin (reboot or catch-up): the first grid point after now.
        assert_eq!(next_trigger_ms(base, interval, 23_500, false), 26_000);
        assert_eq!(next_trigger_ms(base, interval, 25_999, false), 26_000);
        assert_eq!(next_trigger_ms(base, interval, 26_000, false), 31_000);
    }

    /// Node `id` of a two-validator network in which each needs the
    /// other, peered with the other alone.
    fn validator_node(id: u32, genesis: &Genesis) -> Node {
        let qset = QuorumSet::majority(vec![NodeId(0), NodeId(1)]);
        let cfg = SimConfig::default();
        let v = genesis.validator(NodeId(id), qset, &cfg, DurableStore::new(), None);
        let mut node = Node::new(
            FloodEngine::new(FloodMode::Push, vec![NodeId(1 - id)]),
            5_000,
            true,
        );
        node.boot(v, None);
        node
    }

    fn genesis() -> Genesis {
        Genesis::new(genesis_store(10, 1000), &[NodeId(0), NodeId(1)])
    }

    /// An SCP timer `(slot, kind)`, or the ledger trigger (`None`).
    type Due = Option<(SlotIndex, TimerKind)>;

    /// The hand-written embedder: sends go on a zero-latency wire, timers
    /// and triggers into one deadline table; nobody falls behind.
    #[derive(Default)]
    struct Embedder {
        wire: VecDeque<(usize, NodeId, Flooded)>,
        due: BTreeSet<(u64, usize, Due)>,
        now: u64,
    }

    impl Embedder {
        fn carry_out(&mut self, from: usize, actions: NodeActions) {
            for effect in actions {
                match effect {
                    Effect::Send(to, msg) => {
                        self.wire
                            .push_back((to.0 as usize, NodeId(from as u32), msg))
                    }
                    Effect::Timer(slot, kind, at) => {
                        self.due.insert((at, from, Some((slot, kind))));
                    }
                    Effect::Trigger(at) => {
                        self.due.insert((at, from, None));
                    }
                    Effect::CatchUp => panic!("node {from} fell behind"),
                    Effect::Tick(_) | Effect::Triggered(_) | Effect::Closed(..) => {}
                }
            }
        }

        /// Delivers what is on the wire, else fires the earliest timer or
        /// trigger, until both nodes have closed ledger `seq`.
        fn run_until_closed(&mut self, nodes: &mut [Node; 2], seq: u64) {
            let closed = |nodes: &[Node; 2]| {
                nodes
                    .iter()
                    .all(|n| n.validator().is_some_and(|v| v.ledger_seq() >= seq))
            };
            for _ in 0..10_000 {
                if closed(nodes) {
                    return;
                }
                if let Some((to, from, msg)) = self.wire.pop_front() {
                    let node = &mut nodes[to];
                    if msg.msg.is_pull_control() || !node.suppress_duplicate(&msg) {
                        let actions = node.on_deliver(from, msg, self.now);
                        self.carry_out(to, actions);
                    }
                    continue;
                }
                let (at, i, due) = self.due.pop_first().expect("a timer or trigger is due");
                self.now = self.now.max(at);
                let actions = match due {
                    Some((slot, kind)) => nodes[i].on_timer(slot, kind, at, self.now),
                    None => Some(nodes[i].on_trigger(self.now)),
                };
                self.carry_out(i, actions.unwrap_or_default());
            }
            panic!("both nodes close ledger {seq}");
        }
    }

    fn header_hash(node: &Node) -> Option<Hash256> {
        node.validator().map(|v| v.herder.header.hash())
    }

    #[test]
    fn two_nodes_driven_by_hand_close_ledger_2_alike() {
        let genesis = genesis();
        let mut nodes = [validator_node(0, &genesis), validator_node(1, &genesis)];
        let mut net = Embedder::default();
        net.due.extend([(5_000, 0, None), (5_000, 1, None)]);
        net.run_until_closed(&mut nodes, 2);
        assert_eq!(header_hash(&nodes[0]), header_hash(&nodes[1]));
    }

    #[test]
    fn a_node_crashed_and_rebooted_by_hand_retriggers_on_its_grid_and_closes_ledger_3() {
        let genesis = genesis();
        let mut nodes = [validator_node(0, &genesis), validator_node(1, &genesis)];
        let mut net = Embedder::default();
        net.due.extend([(5_000, 0, None), (5_000, 1, None)]);
        net.run_until_closed(&mut nodes, 2);

        // Down, node 1 takes nothing and asks for nothing, not even its
        // next trigger. What was on its way to it is lost.
        nodes[1].crash();
        assert!(nodes[1].is_down());
        assert!(nodes[1].on_trigger(6_000).is_empty());
        let tx = LoadGen::new(10, 1.0, 7).make_payment();
        assert!(nodes[1].on_submit(tx, 6_000).is_empty());
        net.wire.retain(|(to, ..)| *to == 0);

        // It comes back at ledger 2 and asks to trigger at the next point
        // of its grid (5 000 + k·5 000 ms), not at once.
        let cfg = SimConfig::default();
        net.now = 7_000;
        let (_, actions) = nodes[1].reboot(&genesis, &cfg, net.now);
        assert!(!nodes[1].is_down());
        assert_eq!(nodes[1].validator().map(Validator::ledger_seq), Some(2));
        let [.., Effect::CatchUp, Effect::Trigger(at)] = actions.as_slice() else {
            panic!("{actions:?}");
        };
        assert_eq!(*at, 10_000);
        let rest = actions
            .into_iter()
            .filter(|e| !matches!(e, Effect::CatchUp));
        net.carry_out(1, rest.collect());

        net.run_until_closed(&mut nodes, 3);
        assert_eq!(header_hash(&nodes[0]), header_hash(&nodes[1]));
    }

    /// A hostile peer cannot make a node fetch without end. Its slot-2
    /// round-1 leader names unknown sets: an envelope with a bad
    /// signature or beyond the slot window creates no want, a signed one
    /// does, and a thousand signed NOMINATEs naming a thousand distinct
    /// unknown sets leave no want behind once the demand loop has run out.
    #[test]
    fn a_peer_naming_sets_nobody_holds_leaves_no_wants_behind() {
        use stellar_herder::herder::LEDGER_VALIDITY_BRACKET;
        use stellar_herder::StellarValue;
        use stellar_overlay::engine::{ADVERT_INTERVAL_MS, DEMAND_TIMEOUT_MS};
        use stellar_overlay::MAX_DEMAND_ATTEMPTS;
        use stellar_scp::statement::{Statement, StatementKind};
        use stellar_scp::{leader, Envelope};

        let genesis = genesis();
        let qset = QuorumSet::majority(vec![NodeId(0), NodeId(1)]);
        // Both nodes see the same round-1 leader: it is the hostile peer.
        let hostile = leader::round_leader(NodeId(0), &qset, 2, 1);
        let victim_id = NodeId(1 - hostile.0);
        let mut victim = validator_node(victim_id.0, &genesis);
        victim.on_trigger(5_000);
        let close_time = victim.validator().map_or(0, |v| v.herder.header.close_time) + 1;
        let unknown = |n: u64| {
            let mut h = [0xEE; 32];
            h[..8].copy_from_slice(&n.to_le_bytes());
            StellarValue::new(Hash256(h), close_time).to_scp()
        };
        let nominate = |slot, voted: BTreeSet<Value>, keys: &KeyPair| {
            let kind = StatementKind::Nominate {
                voted,
                accepted: BTreeSet::new(),
            };
            let quorum_set = qset.clone();
            let statement = Statement {
                node: hostile,
                slot,
                quorum_set,
                kind,
            };
            Flooded::new(FloodMessage::Scp(Envelope::sign(statement, keys)))
        };
        let keys = validator_keys(hostile);
        // Delivers from the hostile peer, keeping the ticks asked for.
        let mut ticks = BTreeSet::new();
        let mut deliver = |victim: &mut Node, msg: Flooded, now| {
            assert!(!victim.suppress_duplicate(&msg));
            for effect in victim.on_deliver(hostile, msg, now) {
                if let Effect::Tick(at) = effect {
                    ticks.insert(at);
                }
            }
        };

        let forged = nominate(2, [unknown(0)].into(), &KeyPair::from_seed(99));
        deliver(&mut victim, forged, 5_010);
        let far = nominate(2 + LEDGER_VALIDITY_BRACKET + 1, [unknown(0)].into(), &keys);
        deliver(&mut victim, far, 5_020);
        assert_eq!(
            victim.engine.wants(),
            0,
            "a rejected envelope created a want"
        );
        deliver(&mut victim, nominate(2, [unknown(0)].into(), &keys), 5_030);
        assert_eq!(
            victim.engine.wants(),
            1,
            "a leader's signed vote is fetched"
        );

        // Each NOMINATE adds one unknown set to the votes before it, so
        // SCP takes every one as newer and validates all it names.
        let start = 5_100;
        let mut voted = BTreeSet::from([unknown(0)]);
        for n in 1..=1_000 {
            voted.insert(unknown(n));
            deliver(&mut victim, nominate(2, voted.clone(), &keys), start);
        }
        assert!(victim.engine.wants() > 1_000, "{}", victim.engine.wants());
        let bound = u64::from(MAX_DEMAND_ATTEMPTS) * (DEMAND_TIMEOUT_MS + ADVERT_INTERVAL_MS);
        while let Some(at) = ticks.pop_first().filter(|at| *at <= start + bound) {
            for effect in victim.on_tick(at) {
                if let Effect::Tick(next) = effect {
                    ticks.insert(next);
                }
            }
        }
        assert_eq!(victim.engine.wants(), 0, "wants outlived the demand loop");
        assert!(ticks.is_empty(), "the engine still asks for ticks");
    }

    /// The round-1 leader of slot 2 in the two-node network and the other
    /// node; both nodes agree on it.
    fn slot_2_leader() -> (NodeId, NodeId) {
        let qset = QuorumSet::majority(vec![NodeId(0), NodeId(1)]);
        let leader = stellar_scp::leader::round_leader(NodeId(0), &qset, 2, 1);
        (leader, NodeId(1 - leader.0))
    }

    /// A NOMINATE from `node` for `slot` voting for `voted`, signed with
    /// `keys`.
    fn nominate(node: NodeId, slot: SlotIndex, voted: BTreeSet<Value>, keys: &KeyPair) -> Flooded {
        use stellar_scp::statement::{Statement, StatementKind};
        let statement = Statement {
            node,
            slot,
            quorum_set: QuorumSet::majority(vec![NodeId(0), NodeId(1)]),
            kind: StatementKind::Nominate {
                voted,
                accepted: BTreeSet::new(),
            },
        };
        Flooded::new(FloodMessage::Scp(stellar_scp::Envelope::sign(
            statement, keys,
        )))
    }

    /// The hash of set `n`, which nobody holds.
    fn unknown_hash(n: u64) -> Hash256 {
        let mut h = [0xEE; 32];
        h[..8].copy_from_slice(&n.to_le_bytes());
        Hash256(h)
    }

    /// A value naming set `n`, which nobody holds.
    fn unknown_set(n: u64) -> Value {
        stellar_herder::StellarValue::new(unknown_hash(n), 2).to_scp()
    }

    /// The payloads a node call puts on its links.
    fn sends(actions: &NodeActions) -> Vec<&Flooded> {
        let sent = actions.iter().filter_map(|effect| match effect {
            Effect::Send(_, msg) => Some(msg),
            _ => None,
        });
        sent.collect()
    }

    fn kinds(actions: &NodeActions) -> Vec<stellar_overlay::MsgKind> {
        sends(actions).iter().map(|m| m.msg.kind()).collect()
    }

    /// Delivers `msg` from `from` the way an embedder must: a payload
    /// passes the duplicate check first.
    fn deliver(node: &mut Node, from: NodeId, msg: Flooded, now: u64) -> NodeActions {
        assert!(!node.suppress_duplicate(&msg), "a duplicate");
        node.on_deliver(from, msg, now)
    }

    /// Ship: a step that releases envelopes floods, right after them, each
    /// set they name that the validator holds and its engine has not
    /// seen. The leader's trigger ships its proposal with its vote, and
    /// its later envelopes name the set again but ship nothing.
    #[test]
    fn a_released_envelope_floods_a_held_unseen_set_once() {
        use stellar_overlay::MsgKind;
        let (leader, peer) = slot_2_leader();
        let mut node = validator_node(leader.0, &genesis());
        let trigger = node.on_trigger(5_000);
        assert_eq!(kinds(&trigger), [MsgKind::Scp, MsgKind::TxSet]);
        let FloodMessage::Scp(vote) = &sends(&trigger)[0].msg else {
            unreachable!("an SCP envelope")
        };
        let voted = vote.statement.kind.values().cloned().collect();
        // The peer echoes the vote: the leader accepts it and says so.
        let echo = nominate(peer, 2, voted, &validator_keys(peer));
        let reply = deliver(&mut node, peer, echo, 5_010);
        assert!(kinds(&reply).contains(&MsgKind::Scp), "{:?}", kinds(&reply));
        assert!(!kinds(&reply).contains(&MsgKind::TxSet), "shipped twice");
    }

    /// Ship, the other half: a set a peer flooded first is the peer's. The
    /// follower proposes the same empty set as the leader, receives the
    /// leader's copy, and then echoes the leader's vote, which names that
    /// set, without flooding it.
    #[test]
    fn a_set_a_peer_flooded_first_is_not_flooded_again() {
        use stellar_overlay::MsgKind;
        let genesis = genesis();
        let (leader, follower) = slot_2_leader();
        let mut lead = validator_node(leader.0, &genesis);
        let mut node = validator_node(follower.0, &genesis);
        let trigger = lead.on_trigger(5_000);
        let (vote, set) = (sends(&trigger)[0].clone(), sends(&trigger)[1].clone());
        assert!(!kinds(&node.on_trigger(5_000)).contains(&MsgKind::TxSet));
        let holds = |node: &Node| {
            let v = node.validator().expect("a validator");
            v.herder.known_tx_sets.contains_key(&set.id)
        };
        assert!(holds(&node), "the follower proposed the leader's set");

        assert!(sends(&deliver(&mut node, leader, set.clone(), 5_010)).is_empty());
        let echo = kinds(&deliver(&mut node, leader, vote, 5_020));
        assert!(
            echo.contains(&MsgKind::Scp),
            "the follower echoed: {echo:?}"
        );
        assert!(!echo.contains(&MsgKind::TxSet), "flooded the leader's set");
        assert_eq!(node.engine.wants(), 0);
    }

    /// Fetch: each set an envelope the validator took names is wanted
    /// from its sender if the node lacks it — a non-leader's vote too,
    /// which SCP never validates — and demanded once the deferral ends.
    /// A forged envelope, or one beyond the slot bracket, is not taken and
    /// creates no want.
    #[test]
    fn a_taken_envelope_wants_the_unknown_sets_it_names_from_its_sender() {
        use stellar_herder::herder::LEDGER_VALIDITY_BRACKET;
        use stellar_overlay::engine::DEMAND_TIMEOUT_MS;
        let (leader, peer) = slot_2_leader();
        let mut node = validator_node(leader.0, &genesis());
        node.on_trigger(5_000);
        let keys = validator_keys(peer);
        let named = BTreeSet::from([unknown_set(1)]);
        let forged = nominate(peer, 2, named.clone(), &KeyPair::from_seed(99));
        deliver(&mut node, peer, forged, 5_010);
        let far = 2 + LEDGER_VALIDITY_BRACKET + 1;
        deliver(
            &mut node,
            peer,
            nominate(peer, far, named.clone(), &keys),
            5_020,
        );
        assert_eq!(node.engine.wants(), 0, "a rejected envelope created a want");

        let taken = deliver(&mut node, peer, nominate(peer, 2, named, &keys), 5_030);
        assert_eq!(node.engine.wants(), 1, "a non-leader's vote is fetched");
        assert!(sends(&taken).is_empty(), "no demand inside the wait");
        let due = node.on_tick(5_030 + DEMAND_TIMEOUT_MS);
        let demand = FloodMessage::Demand(vec![unknown_hash(1)]);
        let to_peer =
            |e: &Effect| matches!(e, Effect::Send(to, m) if *to == peer && m.msg == demand);
        assert!(due.iter().any(to_peer), "the sender was asked");
    }

    /// A peer cannot grow the want table without bound: one signed
    /// non-leader NOMINATE naming more unknown sets than
    /// [`stellar_overlay::MAX_WANTS`] fills the table to the cap, and each
    /// set past it is dropped and counted.
    #[test]
    fn a_peer_naming_more_sets_than_the_cap_fills_the_want_table_to_it() {
        use stellar_overlay::MAX_WANTS;
        let (leader, peer) = slot_2_leader();
        let mut node = validator_node(leader.0, &genesis());
        node.on_trigger(5_000);
        let excess = 3;
        let voted = (0..(MAX_WANTS + excess) as u64).map(unknown_set).collect();
        let flood = nominate(peer, 2, voted, &validator_keys(peer));
        deliver(&mut node, peer, flood, 5_010);
        assert_eq!(node.engine.wants(), MAX_WANTS);
        assert_eq!(node.engine.traffic.wants_dropped, excess as u64);
    }

    #[test]
    fn a_watcher_relays_and_ignores_triggers_timers_and_clients() {
        let mut watcher = Node::new(
            FloodEngine::new(FloodMode::Push, vec![NodeId(0), NodeId(1)]),
            5_000,
            true,
        );
        assert!(watcher.on_trigger(5_000).is_empty());
        assert!(watcher
            .on_timer(2, TimerKind::Nomination, 5_000, 5_000)
            .is_none());
        let tx = LoadGen::new(10, 1.0, 7).make_payment();
        assert!(watcher.on_submit(tx.clone(), 5_000).is_empty());
        let msg = Flooded::new(FloodMessage::Tx(tx));
        assert!(!watcher.suppress_duplicate(&msg));
        let out = watcher.on_deliver(NodeId(0), msg.clone(), 5_000);
        assert!(
            matches!(out.as_slice(), [Effect::Send(to, relayed)] if *to == NodeId(1) && relayed.id == msg.id),
            "{out:?}"
        );
        assert!(
            watcher.suppress_duplicate(&msg),
            "a second copy is a duplicate"
        );
    }
}
