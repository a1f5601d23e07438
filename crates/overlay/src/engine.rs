//! The sans-I/O flood engine: one node's whole relay decision.
//!
//! A [`FloodEngine`] is what a node's overlay does with a message, with
//! the network taken away: the seen-cache test, push versus advert,
//! advert → demand → payload, advert batching per tick and demand
//! retries. It is shaped like `scp`'s driver boundary — in: a message or
//! a tick plus the caller's clock; out: an [`Actions`] value the embedder
//! carries out — so the simulator, a test or a bounded explorer can each
//! drive the same node. The embedder owns links, latency, faults and the
//! processing-cost model. What it must do, and what it may rely on:
//!
//! * **Send order.** [`Actions::sends`] is ordered: a push goes to the
//!   peers in peer-list order, and a tick sends its advert batch to every
//!   peer before any retry demand, each split into messages of at most
//!   [`MAX_IDS_PER_CONTROL`] hashes. An embedder that draws one latency
//!   sample per send in that order replays bit-identically.
//! * **Ticks.** When [`Actions::tick_at`] is set the embedder calls
//!   [`FloodEngine::tick`] at that time (at most one is pending), or
//!   [`FloodEngine::tick_missed`] if the process is down by then.
//! * **Control messages** (advert, demand) go straight to
//!   [`FloodEngine::on_control`]: no seen-cache, no relay, and too small
//!   to charge processing cost for; one over [`MAX_IDS_PER_CONTROL`]
//!   hashes is dropped whole. A puppet's embedder keeps them for its
//!   driver and only counts them in [`FloodEngine::traffic`].
//! * **Payloads** are first offered to
//!   [`FloodEngine::suppress_duplicate`], which accounts a duplicate
//!   (`recv` + `dup_suppressed`) and drops it *before* the embedder's
//!   busy check, without allocating — every push-relayed `Tx`/`TxSet`
//!   copy after the first ends there. A fresh payload that finds the
//!   node busy is re-queued untouched and offered again when it runs.
//!   Once the node is free, [`FloodEngine::accept`] counts and stamps
//!   it, the embedder hands it to the application and sends what that
//!   produces, and only then does [`FloodEngine::relay`] decide the
//!   onward step.
//! * **Push or advert.** An originator pushes what it originates to
//!   every peer, whatever the kind; a node relaying someone else's
//!   payload caches it and advertises its hash on the next tick instead,
//!   so a peer that missed the push demands it. Push mode is the one
//!   exception: it push-relays `Tx`/`TxSet` payloads to all peers but
//!   the sender. Cached payloads answer demands for the longest demand
//!   loop one advert can start; past that, a demand is answered from
//!   what the embedder holds (a validator's transaction sets).
//!   [`FloodEngine::originate`] stamps the originator's own seen-cache at
//!   the caller's `now_ms`, so a copy coming back is a duplicate.
//! * **Named sets.** [`FloodEngine::want_named`] is the fetch for a
//!   transaction set an SCP envelope named and the node lacks: a deferred
//!   want on the envelope's sender, demanded only if the set is still
//!   missing one [`DEMAND_TIMEOUT_MS`] later.
//! * **Restart.** [`FloodEngine::reset`] is a process reboot: seen-cache,
//!   demand state, payload cache and the armed-tick flag are gone (as is
//!   the embedder's CPU backlog); [`FloodEngine::traffic`] is the run's
//!   measurement and survives.

use crate::flood::FloodState;
use crate::message::{FloodMessage, Flooded};
use crate::pull::{DemandScheduler, FloodMode, PayloadCache, MAX_DEMAND_ATTEMPTS};
use crate::stats::TrafficStats;
use stellar_crypto::Hash256;
use stellar_scp::NodeId;
use stellar_telemetry::SpanPhase;

/// Pull-mode flood tick cadence: adverts batch for up to this long, and
/// demand timeouts are checked at this granularity (production
/// stellar-core floods adverts every 100 ms).
pub const ADVERT_INTERVAL_MS: u64 = 100;

/// How long a demand waits before the next advertiser is tried. Covers
/// one round trip on the WAN latency model with slack.
pub const DEMAND_TIMEOUT_MS: u64 = 400;

/// Bound on payloads kept for answering demands.
const PAYLOAD_CACHE_CAPACITY: usize = 4096;

/// How long a cached payload answers demands: the longest demand loop
/// one advert can start, each attempt waiting out its timeout and a tick.
const PAYLOAD_RETENTION_MS: u64 =
    MAX_DEMAND_ATTEMPTS as u64 * (DEMAND_TIMEOUT_MS + ADVERT_INTERVAL_MS);

/// The seen-cache's window: an id is remembered for at least this long
/// after it is first recorded and for less than twice this long, however
/// many ids arrive meanwhile. It spans several ledgers, as production
/// stellar-core purges its flood map every ledger a few slots back, and
/// is far longer than any relay cycle's round trip.
pub const SEEN_RETENTION_MS: u64 = 30_000;

/// Most hashes one advert or demand carries (production's
/// `TX_ADVERT_VECTOR_MAX_SIZE`): a tick splits larger batches, and an
/// incoming advert or demand over it is dropped whole.
pub const MAX_IDS_PER_CONTROL: usize = 1000;

/// What one engine call asks of the embedder.
#[derive(Debug, Default)]
pub struct Actions {
    /// Messages to put on the links to these peers, in this order.
    pub sends: Vec<(NodeId, Flooded)>,
    /// Call [`FloodEngine::tick`] at this time (ms).
    pub tick_at: Option<u64>,
    /// Advert/demand steps taken, in order, for lifecycle tracing: the
    /// payload hash (its prefix is the trace id) and the span to record.
    pub spans: Vec<(Hash256, SpanPhase)>,
}

/// One node's overlay: flood de-duplication, relay and pull gossip.
#[derive(Debug)]
pub struct FloodEngine {
    mode: FloodMode,
    peers: Vec<NodeId>,
    /// Run-long message and byte counters. The engine counts what the
    /// node receives; the embedder counts each send a link accepted.
    pub traffic: TrafficStats,
    seen: FloodState,
    demands: DemandScheduler,
    payloads: PayloadCache<Flooded>,
    tick_armed: bool,
}

impl FloodEngine {
    /// An engine flooding to `peers` (kept in the given order).
    pub fn new(mode: FloodMode, peers: Vec<NodeId>) -> FloodEngine {
        FloodEngine {
            mode,
            peers,
            traffic: TrafficStats::default(),
            seen: FloodState::new(SEEN_RETENTION_MS),
            demands: DemandScheduler::new(DEMAND_TIMEOUT_MS),
            payloads: PayloadCache::new(PAYLOAD_CACHE_CAPACITY, PAYLOAD_RETENTION_MS),
            tick_armed: false,
        }
    }

    /// A process reboot: every cache and the pending tick are forgotten,
    /// the traffic counters are kept.
    pub fn reset(&mut self) {
        *self = FloodEngine {
            traffic: self.traffic,
            ..FloodEngine::new(self.mode, std::mem::take(&mut self.peers))
        };
    }

    /// Requests the next tick unless one is already pending.
    fn arm_tick(&mut self, now_ms: u64, out: &mut Actions) {
        if !self.tick_armed {
            self.tick_armed = true;
            out.tick_at = Some(now_ms + ADVERT_INTERVAL_MS);
        }
    }

    fn push(&self, except: Option<NodeId>, msg: &Flooded, out: &mut Actions) {
        let targets = self.peers.iter().filter(|p| Some(**p) != except);
        out.sends.extend(targets.map(|p| (*p, msg.clone())));
    }

    /// Ids the seen-cache currently remembers.
    pub fn seen_ids(&self) -> usize {
        self.seen.remembered()
    }

    /// Marks a message this node sent outside the flood (a point-to-point
    /// injection) as seen, so a copy coming back is not processed.
    pub fn note_sent(&mut self, msg: &Flooded, now_ms: u64) {
        self.seen.record_at(msg.id, now_ms);
    }

    /// Floods a message this node originates: its own SCP envelope, a
    /// transaction a client handed it, the transaction set it proposed
    /// once its own vote names it. It is pushed to every peer, so each
    /// holds it one hop after it exists, and is no longer wanted here.
    pub fn originate(&mut self, msg: Flooded, now_ms: u64) -> Actions {
        self.seen.record_at(msg.id, now_ms);
        self.demands.on_fulfilled(msg.id);
        let mut out = Actions::default();
        self.push(None, &msg, &mut out);
        out
    }

    /// An SCP envelope from `holder` named the set `id`, which the node
    /// lacks: unless it has arrived, want it from `holder`, deferred one
    /// demand timeout so a push in flight is not fetched too.
    pub fn want_named(&mut self, holder: NodeId, id: Hash256, now_ms: u64) -> Actions {
        let mut out = Actions::default();
        if !self.seen.contains(id) {
            self.demands.defer(holder, id, now_ms);
            self.arm_tick(now_ms, &mut out);
        }
        out
    }

    /// Accounts and drops a payload this node has already seen. Returns
    /// `false`, touching nothing, when the payload is fresh.
    pub fn suppress_duplicate(&mut self, msg: &Flooded) -> bool {
        let dup = self.seen.contains(msg.id);
        if dup {
            self.traffic.recv_kind(msg.msg.kind(), msg.size);
            self.traffic.dup_hit();
        }
        dup
    }

    /// Counts a fresh payload as received and stamps the seen-cache.
    /// Call once [`FloodEngine::suppress_duplicate`] returned `false`
    /// and the node is free to process the payload.
    pub fn accept(&mut self, msg: &Flooded, now_ms: u64) {
        self.traffic.recv_kind(msg.msg.kind(), msg.size);
        self.seen.record_at(msg.id, now_ms);
    }

    /// The onward step for an accepted payload that arrived from `from`;
    /// it also settles the demand the payload answers, if any. A relay
    /// advertises — the originator's push already reached its peers on a
    /// mesh — except that push mode push-relays `Tx`/`TxSet`.
    pub fn relay(&mut self, from: NodeId, msg: Flooded, now_ms: u64) -> Actions {
        if self.demands.on_fulfilled(msg.id) {
            self.traffic.record_pull_fulfilled();
        }
        let mut out = Actions::default();
        if self.mode == FloodMode::Push && !msg.msg.is_scp() {
            self.push(Some(from), &msg, &mut out);
        } else {
            // Keep it to answer demands, and advertise it next tick.
            self.demands.queue_advert(msg.id);
            self.payloads.insert(msg.id, msg, now_ms);
            self.arm_tick(now_ms, &mut out);
        }
        out
    }

    /// Handles an advert or a demand from peer `from`. A demand is
    /// answered from the payload cache, or else by `held`, the payloads
    /// the embedder keeps itself. One carrying more than
    /// [`MAX_IDS_PER_CONTROL`] hashes is counted and dropped whole.
    pub fn on_control(
        &mut self,
        from: NodeId,
        msg: &Flooded,
        now_ms: u64,
        held: impl Fn(&Hash256) -> Option<FloodMessage>,
    ) -> Actions {
        self.traffic.recv_kind(msg.msg.kind(), msg.size);
        let mut out = Actions::default();
        match &msg.msg {
            FloodMessage::Advert(ids) | FloodMessage::Demand(ids)
                if ids.len() > MAX_IDS_PER_CONTROL =>
            {
                self.traffic.control_oversized += 1;
            }
            FloodMessage::Advert(ids) => self.on_advert(from, ids, now_ms, &mut out),
            // Answer every hash still held. The rest go unanswered; the
            // demander's timeout retries another advertiser.
            FloodMessage::Demand(ids) => {
                let answers = ids.iter().filter_map(|id| {
                    let cached = self.payloads.get(*id, now_ms).cloned();
                    cached.or_else(|| held(id).map(Flooded::new))
                });
                out.sends.extend(answers.map(|payload| (from, payload)));
            }
            _ => debug_assert!(false, "on_control takes adverts and demands"),
        }
        out
    }

    /// Registers `from` as an advertiser of every hash this node lacks
    /// and demands the newly wanted ones straight back from it (always
    /// the first attempt; retries go through the tick).
    fn on_advert(&mut self, from: NodeId, ids: &[Hash256], now_ms: u64, out: &mut Actions) {
        let lacks = |id: &&Hash256| !self.seen.contains(**id);
        let missing: Vec<Hash256> = ids.iter().filter(lacks).copied().collect();
        if missing.is_empty() {
            return;
        }
        let seen = SpanPhase::AdvertSeen { from: from.0 };
        out.spans
            .extend(missing.iter().map(|id| (*id, seen.clone())));
        let demand_now = self.demands.on_advert(from, &missing, now_ms);
        self.count_set_demands(&demand_now);
        if !demand_now.is_empty() {
            let sent = SpanPhase::DemandSent {
                to: from.0,
                attempt: 1,
            };
            out.spans
                .extend(demand_now.iter().map(|id| (*id, sent.clone())));
            let demand = Flooded::new(FloodMessage::Demand(demand_now));
            out.sends.push((from, demand));
        }
        // The tick checks the demand's timeout even if no further
        // traffic arrives.
        self.arm_tick(now_ms, out);
    }

    /// One flood tick: send the batched adverts to every peer, re-demand
    /// expired wants from their next advertiser, and ask for another
    /// tick while there is still something to send or to wait for.
    pub fn tick(&mut self, now_ms: u64) -> Actions {
        self.tick_armed = false;
        let mut out = Actions::default();
        let due = self.demands.tick(now_ms);
        self.traffic.record_pull_timeouts(due.expired.len() as u64);
        let timed_out = due.expired.into_iter();
        out.spans
            .extend(timed_out.map(|(id, attempt)| (id, SpanPhase::DemandTimeout { attempt })));
        for (peer, ids) in &due.demands {
            out.spans.extend(ids.iter().filter_map(|id| {
                let attempt = self.demands.attempt_of(*id)?;
                Some((
                    *id,
                    SpanPhase::DemandSent {
                        to: peer.0,
                        attempt,
                    },
                ))
            }));
        }
        for (_, ids) in &due.demands {
            self.count_set_demands(ids);
        }
        for batch in due.adverts.chunks(MAX_IDS_PER_CONTROL) {
            let advert = Flooded::new(FloodMessage::Advert(batch.to_vec()));
            self.push(None, &advert, &mut out);
        }
        for (peer, ids) in &due.demands {
            let batches = ids.chunks(MAX_IDS_PER_CONTROL);
            out.sends.extend(
                batches.map(|batch| (*peer, Flooded::new(FloodMessage::Demand(batch.to_vec())))),
            );
        }
        if self.demands.has_work() {
            self.arm_tick(now_ms, &mut out);
        }
        out
    }

    /// Counts the demands in `ids` for a set an SCP value named.
    fn count_set_demands(&mut self, ids: &[Hash256]) {
        let named = ids.iter().filter(|id| self.demands.is_named(**id));
        self.traffic.set_demands += named.count() as u64;
    }

    /// Hashes the node still wants, by advert or by name.
    pub fn wants(&self) -> usize {
        self.demands.wanted()
    }

    /// The embedder could not run a requested tick. Queued adverts and
    /// wants stay; the next piece of work asks for a tick again.
    pub fn tick_missed(&mut self) {
        self.tick_armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MsgKind;
    use crate::topology::PeerGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};
    use stellar_crypto::sign::KeyPair;
    use stellar_ledger::entry::AccountId;
    use stellar_ledger::tx::{Memo, Transaction, TransactionEnvelope};
    use stellar_ledger::txset::TransactionSet;
    use stellar_scp::statement::{Statement, StatementKind};
    use stellar_scp::{Envelope, QuorumSet, Value};

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const C: NodeId = NodeId(3);

    /// A distinct transaction payload per `n`.
    fn tx(n: u64) -> Flooded {
        let keys = KeyPair::from_seed(7);
        Flooded::new(FloodMessage::Tx(TransactionEnvelope::sign(
            Transaction {
                source: AccountId(keys.public()),
                seq_num: n,
                fee: 100,
                time_bounds: None,
                memo: Memo::None,
                operations: Vec::new(),
            },
            &[&keys],
        )))
    }

    fn scp(slot: u64) -> Flooded {
        let keys = KeyPair::from_seed(1);
        Flooded::new(FloodMessage::Scp(Envelope::sign(
            Statement {
                node: NodeId(9),
                slot,
                quorum_set: QuorumSet::threshold_of(1, vec![NodeId(9)]),
                kind: StatementKind::Nominate {
                    voted: [Value::new(b"x".to_vec())].into(),
                    accepted: BTreeSet::new(),
                },
            },
            &keys,
        )))
    }

    /// A distinct hash per `n`.
    fn hash(n: u64) -> Hash256 {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&n.to_le_bytes());
        Hash256(b)
    }

    /// A distinct payload per `n` that is cheap to build (no signature).
    fn set(n: u64) -> Flooded {
        Flooded::new(FloodMessage::TxSet(TransactionSet::empty(hash(n))))
    }

    /// Control messages carrying hashes `from..to`.
    fn advert(from: u64, to: u64) -> Flooded {
        Flooded::new(FloodMessage::Advert((from..to).map(hash).collect()))
    }

    fn demand(from: u64, to: u64) -> Flooded {
        Flooded::new(FloodMessage::Demand((from..to).map(hash).collect()))
    }

    /// Hash counts of the control messages in `actions`, in send order.
    fn batch_sizes(actions: &Actions) -> Vec<(NodeId, usize)> {
        let size = |m: &Flooded| match &m.msg {
            FloodMessage::Advert(ids) | FloodMessage::Demand(ids) => ids.len(),
            _ => 0,
        };
        actions.sends.iter().map(|(to, m)| (*to, size(m))).collect()
    }

    fn engine(mode: FloodMode) -> FloodEngine {
        FloodEngine::new(mode, vec![A, B, C])
    }

    fn targets(actions: &Actions) -> Vec<NodeId> {
        actions.sends.iter().map(|(to, _)| *to).collect()
    }

    fn kinds(actions: &Actions) -> Vec<MsgKind> {
        actions.sends.iter().map(|(_, m)| m.msg.kind()).collect()
    }

    /// The full receive path for a payload the node is free to process.
    fn deliver(e: &mut FloodEngine, from: NodeId, msg: &Flooded, now_ms: u64) -> Option<Actions> {
        if e.suppress_duplicate(msg) {
            return None;
        }
        e.accept(msg, now_ms);
        Some(e.relay(from, msg.clone(), now_ms))
    }

    #[test]
    fn push_relays_to_every_peer_but_the_sender_and_never_back_out_of_the_originator() {
        // The originator sends to all its peers, in peer order...
        let mut origin = engine(FloodMode::Push);
        let sent = origin.originate(tx(1), 10);
        assert_eq!(targets(&sent), vec![A, B, C]);
        assert_eq!(sent.tick_at, None);
        // ...and a copy relayed back to it is a duplicate: nothing leaves
        // the originator a second time.
        assert!(deliver(&mut origin, B, &tx(1), 20).is_none());

        let mut relay = engine(FloodMode::Push);
        let onward = deliver(&mut relay, B, &tx(1), 20).expect("fresh");
        assert_eq!(targets(&onward), vec![A, C], "everyone but the sender");
        assert!(onward.spans.is_empty());
    }

    #[test]
    fn a_duplicate_is_counted_and_produces_no_send() {
        let mut e = engine(FloodMode::Push);
        let msg = tx(1);
        deliver(&mut e, A, &msg, 5).expect("fresh");
        assert!(e.suppress_duplicate(&msg), "second copy");
        assert!(e.suppress_duplicate(&msg), "third copy");
        assert_eq!(e.traffic.msgs_in, 3);
        assert_eq!(e.traffic.in_count(MsgKind::Tx), 3);
        assert_eq!(e.traffic.bytes_in, 3 * msg.size as u64);
        assert_eq!(e.traffic.dup_suppressed, 2);
        // A fresh payload is not touched by the duplicate test: a busy
        // embedder re-queues it and offers it again later.
        let other = tx(2);
        assert!(!e.suppress_duplicate(&other));
        assert!(!e.suppress_duplicate(&other));
        assert_eq!(e.traffic.msgs_in, 3);
    }

    #[test]
    fn pull_runs_advert_demand_payload_readvert_and_retries_the_next_advertiser() {
        let mut e = engine(FloodMode::Pull);
        let payload = tx(1);
        let advert = Flooded::new(FloodMessage::Advert(vec![payload.id]));

        // A's advert: one demand straight back to A, and a tick to watch
        // the timeout.
        let first = e.on_control(A, &advert, 1000, |_| None);
        assert_eq!(targets(&first), vec![A]);
        assert_eq!(first.sends[0].1.msg, FloodMessage::Demand(vec![payload.id]));
        assert_eq!(first.tick_at, Some(1000 + ADVERT_INTERVAL_MS));
        assert_eq!(
            first.spans,
            vec![
                (payload.id, SpanPhase::AdvertSeen { from: A.0 }),
                (
                    payload.id,
                    SpanPhase::DemandSent {
                        to: A.0,
                        attempt: 1
                    }
                ),
            ]
        );
        // B's advert of the same hash only registers a fallback.
        let second = e.on_control(B, &advert, 1010, |_| None);
        assert!(second.sends.is_empty());
        assert_eq!(second.tick_at, None, "one tick pending at a time");

        // Ticks before the deadline send nothing and keep watching.
        let idle = e.tick(1100);
        assert!(idle.sends.is_empty() && idle.spans.is_empty());
        assert_eq!(idle.tick_at, Some(1200));
        // Past the deadline the demand goes to the next advertiser.
        let retry = e.tick(1000 + DEMAND_TIMEOUT_MS);
        assert_eq!(targets(&retry), vec![B]);
        assert_eq!(
            retry.spans,
            vec![
                (payload.id, SpanPhase::DemandTimeout { attempt: 1 }),
                (
                    payload.id,
                    SpanPhase::DemandSent {
                        to: B.0,
                        attempt: 2
                    }
                ),
            ]
        );
        assert_eq!(e.traffic.pull_timeouts, 1);

        // The payload arrives: settled, cached, and re-advertised to
        // every peer on the next tick — never pushed.
        let arrived = deliver(&mut e, B, &payload, 1450).expect("fresh");
        assert!(arrived.sends.is_empty());
        assert_eq!(e.traffic.pull_fulfilled, 1);
        let readvert = e.tick(1500);
        assert_eq!(targets(&readvert), vec![A, B, C]);
        assert_eq!(
            readvert.sends[0].1.msg,
            FloodMessage::Advert(vec![payload.id])
        );
        assert_eq!(readvert.tick_at, None, "nothing left to wait for");
        // A demand for it is now answered from the cache, as often as
        // asked: control messages are never de-duplicated.
        let demand = Flooded::new(FloodMessage::Demand(vec![payload.id, tx(99).id]));
        for _ in 0..2 {
            let answer = e.on_control(C, &demand, 1600, |_| None);
            assert_eq!(targets(&answer), vec![C]);
            assert_eq!(answer.sends[0].1.id, payload.id);
        }
        // An advert for a payload already held asks for nothing.
        assert!(e.on_control(C, &advert, 1700, |_| None).sends.is_empty());
    }

    #[test]
    fn pull_gives_up_after_max_demand_attempts() {
        let mut e = FloodEngine::new(FloodMode::Pull, vec![A]);
        let wanted = tx(1).id;
        let mut now = 0;
        let mut next = e.on_control(
            A,
            &Flooded::new(FloodMessage::Advert(vec![wanted])),
            now,
            |_| None,
        );
        let mut demands = next.sends.len() as u32;
        let mut last_timeout = None;
        while let Some(at) = next.tick_at {
            now = at;
            next = e.tick(now);
            demands += next.sends.len() as u32;
            if let Some((_, SpanPhase::DemandTimeout { attempt })) = next.spans.first() {
                last_timeout = Some(*attempt);
            }
        }
        assert_eq!(
            demands, MAX_DEMAND_ATTEMPTS,
            "first ask plus bounded retries"
        );
        assert_eq!(last_timeout, Some(MAX_DEMAND_ATTEMPTS));
        assert_eq!(e.traffic.pull_timeouts, u64::from(MAX_DEMAND_ATTEMPTS));
        assert!(now >= u64::from(MAX_DEMAND_ATTEMPTS) * DEMAND_TIMEOUT_MS);
        // The engine went quiet: no tick pending, and a fresh advert
        // starts over.
        let again = e.on_control(
            A,
            &Flooded::new(FloodMessage::Advert(vec![wanted])),
            now,
            |_| None,
        );
        assert_eq!(again.sends.len(), 1);
    }

    #[test]
    fn a_tick_sends_adverts_before_retry_demands() {
        let mut e = engine(FloodMode::Pull);
        let wanted = tx(1).id;
        e.on_control(
            C,
            &Flooded::new(FloodMessage::Advert(vec![wanted])),
            0,
            |_| None,
        );
        deliver(&mut e, B, &tx(2), DEMAND_TIMEOUT_MS - 10).expect("fresh");
        let out = e.tick(DEMAND_TIMEOUT_MS);
        assert_eq!(targets(&out), vec![A, B, C, C]);
        assert_eq!(
            kinds(&out),
            vec![
                MsgKind::Advert,
                MsgKind::Advert,
                MsgKind::Advert,
                MsgKind::Demand
            ]
        );
    }

    #[test]
    fn an_originator_pushes_every_kind_to_every_peer_in_both_modes() {
        for mode in [FloodMode::Push, FloodMode::Pull] {
            for (mine, kind) in [
                (scp(3), MsgKind::Scp),
                (tx(1), MsgKind::Tx),
                (set(1), MsgKind::TxSet),
            ] {
                let mut e = engine(mode);
                let sent = e.originate(mine.clone(), 20);
                assert_eq!(targets(&sent), vec![A, B, C], "{mode:?}");
                assert_eq!(kinds(&sent), vec![kind; 3]);
                assert_eq!(sent.tick_at, None, "{mode:?}: nothing to advertise");
                assert!(e.suppress_duplicate(&mine), "its own copy coming back");
                assert!(e.tick(120).sends.is_empty(), "{mode:?}: no advert follows");
            }
        }
        // A point-to-point injection is stamped the same way.
        let mut e = engine(FloodMode::Pull);
        let direct = tx(2);
        e.note_sent(&direct, 40);
        assert!(e.suppress_duplicate(&direct));
    }

    #[test]
    fn a_named_set_is_demanded_from_its_holder_only_after_the_timeout() {
        let mut e = engine(FloodMode::Pull);
        let named = set(1);
        // A's envelope names the set: a tick to watch the wait, no send.
        let armed = e.want_named(A, named.id, 1000);
        assert!(armed.sends.is_empty() && armed.spans.is_empty());
        assert_eq!(armed.tick_at, Some(1000 + ADVERT_INTERVAL_MS));
        // B names it too: a fallback holder.
        assert!(e.want_named(B, named.id, 1050).tick_at.is_none());
        for now in [1100, 1200, 1300] {
            assert!(e.tick(now).sends.is_empty(), "no demand before the timeout");
        }
        // The wait ends: the first demand goes to the first holder, and
        // the wait itself counts as no timeout.
        let first = e.tick(1000 + DEMAND_TIMEOUT_MS);
        assert_eq!(targets(&first), vec![A]);
        assert_eq!(first.sends[0].1.msg, FloodMessage::Demand(vec![named.id]));
        let sent = |to: NodeId, attempt| SpanPhase::DemandSent { to: to.0, attempt };
        assert_eq!(first.spans, vec![(named.id, sent(A, 1))]);
        assert_eq!((e.traffic.pull_timeouts, e.traffic.set_demands), (0, 1));
        // Unanswered: the retry goes to the next holder.
        let retry = e.tick(1400 + DEMAND_TIMEOUT_MS);
        assert_eq!(targets(&retry), vec![B]);
        assert_eq!((e.traffic.pull_timeouts, e.traffic.set_demands), (1, 2));
        assert_eq!(e.wants(), 1);
        // The set arrives: the want is settled and nothing is demanded again.
        deliver(&mut e, B, &named, 1900).expect("fresh");
        assert_eq!(e.traffic.pull_fulfilled, 1);
        assert_eq!(kinds(&e.tick(2400)), vec![MsgKind::Advert; 3]);
        assert!(e.tick(4000).sends.is_empty());
        assert_eq!((e.wants(), e.traffic.set_demands), (0, 2));
        // A set the node holds is never wanted.
        let held = e.want_named(C, named.id, 4100);
        assert!(held.sends.is_empty() && held.tick_at.is_none());
    }

    #[test]
    fn a_push_inside_the_wait_cancels_a_named_want_and_an_advert_ends_the_wait() {
        for mode in [FloodMode::Push, FloodMode::Pull] {
            let mut e = engine(mode);
            let named = set(2);
            e.want_named(A, named.id, 0);
            deliver(&mut e, A, &named, 100).expect("fresh");
            assert_eq!(e.traffic.pull_fulfilled, 0, "{mode:?}: no demand was out");
            assert_eq!((e.wants(), e.traffic.set_demands), (0, 0), "{mode:?}");
            let later = e.tick(DEMAND_TIMEOUT_MS + ADVERT_INTERVAL_MS);
            assert!(!kinds(&later).contains(&MsgKind::Demand), "{mode:?}");
        }
        // An advert is proof the advertiser holds it: demand it now.
        let mut e = engine(FloodMode::Pull);
        let named = set(3);
        e.want_named(A, named.id, 0);
        let advert = Flooded::new(FloodMessage::Advert(vec![named.id]));
        let now = e.on_control(B, &advert, 50, |_| None);
        assert_eq!(targets(&now), vec![B]);
        assert_eq!(kinds(&now), vec![MsgKind::Demand]);
        assert_eq!(e.traffic.set_demands, 1);
        // Its retry goes back to the named holder.
        assert_eq!(targets(&e.tick(50 + DEMAND_TIMEOUT_MS)), vec![A]);
    }

    #[test]
    fn originating_a_wanted_payload_settles_the_want() {
        // A peer's identical set was advertised, and demanded, before this
        // node's own vote named the set it proposed.
        let mut e = engine(FloodMode::Pull);
        let mine = set(4);
        let advert = Flooded::new(FloodMessage::Advert(vec![mine.id]));
        assert_eq!(targets(&e.on_control(B, &advert, 0, |_| None)), vec![B]);
        assert_eq!(e.wants(), 1);
        e.originate(mine.clone(), 10);
        assert_eq!(e.wants(), 0);
        // The demanded copy lands as a duplicate, and nothing is retried.
        assert!(e.suppress_duplicate(&mine));
        assert!(e
            .tick(DEMAND_TIMEOUT_MS + ADVERT_INTERVAL_MS)
            .sends
            .is_empty());
        assert_eq!(e.traffic.pull_timeouts, 0);
    }

    #[test]
    fn an_scp_relay_sends_no_payload_advertises_next_tick_and_answers_demands() {
        for mode in [FloodMode::Push, FloodMode::Pull] {
            let mut e = engine(mode);
            let envelope = scp(2);
            let relayed = deliver(&mut e, B, &envelope, 10).expect("fresh");
            assert!(relayed.sends.is_empty(), "{mode:?}: a relay pushes nothing");
            assert_eq!(relayed.tick_at, Some(10 + ADVERT_INTERVAL_MS));

            let advert = e.tick(10 + ADVERT_INTERVAL_MS);
            assert_eq!(targets(&advert), vec![A, B, C], "{mode:?}");
            assert_eq!(
                advert.sends[0].1.msg,
                FloodMessage::Advert(vec![envelope.id])
            );
            assert_eq!(advert.tick_at, None);

            let demand = Flooded::new(FloodMessage::Demand(vec![envelope.id]));
            let answer = e.on_control(C, &demand, 200, |_| None);
            assert_eq!(targets(&answer), vec![C], "{mode:?}");
            assert_eq!(answer.sends[0].1.id, envelope.id);
        }
    }

    #[test]
    fn a_demand_for_an_expired_payload_goes_unanswered() {
        let mut e = engine(FloodMode::Push);
        let envelope = scp(4);
        deliver(&mut e, A, &envelope, 0).expect("fresh");
        let demand = Flooded::new(FloodMessage::Demand(vec![envelope.id]));
        let last = e.on_control(C, &demand, PAYLOAD_RETENTION_MS - 1, |_| None);
        assert_eq!(targets(&last), vec![C]);
        // Past the window the demander hears nothing, and its timeout
        // moves the demand to the next advertiser (see the retry test).
        assert!(e
            .on_control(C, &demand, PAYLOAD_RETENTION_MS, |_| None)
            .sends
            .is_empty());
        // Unless the embedder still holds the payload itself.
        let held = |id: &Hash256| (*id == envelope.id).then(|| envelope.msg.clone());
        let answer = e.on_control(C, &demand, 10 * PAYLOAD_RETENTION_MS, held);
        assert_eq!(targets(&answer), vec![C]);
        assert_eq!(answer.sends[0].1.id, envelope.id);
    }

    #[test]
    fn reset_keeps_traffic_and_drops_caches() {
        let mut e = engine(FloodMode::Pull);
        let held = tx(1);
        let wanted = tx(2).id;
        deliver(&mut e, A, &held, 10).expect("fresh");
        e.on_control(
            B,
            &Flooded::new(FloodMessage::Advert(vec![wanted])),
            20,
            |_| None,
        );
        let before = e.traffic;
        assert!(before.msgs_in == 2 && e.tick_armed);

        e.reset();
        assert_eq!(e.traffic.msgs_in, before.msgs_in);
        assert_eq!(e.traffic.bytes_in, before.bytes_in);
        assert_eq!(e.traffic.in_by_kind, before.in_by_kind);
        // Seen-cache: the old payload is fresh again.
        assert!(!e.suppress_duplicate(&held));
        // Payload cache: a demand for it goes unanswered.
        let demand = Flooded::new(FloodMessage::Demand(vec![held.id]));
        assert!(e.on_control(C, &demand, 30, |_| None).sends.is_empty());
        // Demand state and armed tick: nothing queued, nothing retried,
        // and new work asks for a tick of its own.
        let quiet = e.tick(10_000);
        assert!(quiet.sends.is_empty() && quiet.spans.is_empty() && quiet.tick_at.is_none());
        assert_eq!(e.traffic.pull_timeouts, 0);
        let relayed = deliver(&mut e, A, &tx(3), 10_000).expect("fresh");
        assert_eq!(relayed.tick_at, Some(10_000 + ADVERT_INTERVAL_MS));
        // Peers and mode are configuration, not state: an originated
        // transaction is pushed to every peer, a relayed one advertised.
        assert_eq!(targets(&e.originate(tx(4), 10_001)), vec![A, B, C]);
        assert_eq!(targets(&e.tick(10_100)), vec![A, B, C]);
        assert_eq!(targets(&e.originate(scp(1), 10_101)), vec![A, B, C]);
    }

    #[test]
    fn a_missed_tick_is_asked_for_again() {
        let mut e = engine(FloodMode::Pull);
        let relay = |e: &mut FloodEngine, n, now| deliver(e, A, &tx(n), now).expect("fresh");
        assert!(relay(&mut e, 1, 0).tick_at.is_some());
        assert_eq!(relay(&mut e, 2, 10).tick_at, None);
        e.tick_missed();
        assert_eq!(relay(&mut e, 3, 200).tick_at, Some(300));
        // Nothing queued was lost.
        assert_eq!(e.tick(300).sends.len(), 3);
    }

    #[test]
    fn the_seen_cache_holds_at_most_the_last_two_windows_of_ids() {
        const EVERY_MS: u64 = 10;
        let mut e = FloodEngine::new(FloodMode::Push, vec![A]);
        let mut most = 0;
        for i in 0..10 * SEEN_RETENTION_MS / EVERY_MS {
            let now = i * EVERY_MS;
            e.originate(set(i), now);
            // Ids recorded in (now - w, now], counting this one.
            let recorded_within = |w: u64| (i + 1).min(w / EVERY_MS) as usize;
            let held = e.seen_ids();
            let floor = recorded_within(SEEN_RETENTION_MS);
            let ceiling = recorded_within(2 * SEEN_RETENTION_MS);
            assert!((floor..=ceiling).contains(&held), "at {now}: {held}");
            most = most.max(held);
        }
        assert_eq!(most, (2 * SEEN_RETENTION_MS / EVERY_MS) as usize);
    }

    #[test]
    fn an_advert_or_demand_over_the_cap_is_dropped_whole_and_counted() {
        let cap = MAX_IDS_PER_CONTROL as u64;
        // At the cap: every hash is wanted and demanded straight back.
        let mut e = engine(FloodMode::Pull);
        let full = e.on_control(A, &advert(0, cap), 0, |_| None);
        assert_eq!(batch_sizes(&full), vec![(A, MAX_IDS_PER_CONTROL)]);
        assert_eq!(full.spans.len(), 2 * MAX_IDS_PER_CONTROL);
        assert_eq!(e.traffic.control_oversized, 0);

        // One over: received and counted, but no want, span or tick.
        let mut e = engine(FloodMode::Pull);
        for over in [advert(0, cap + 1), demand(0, cap + 1)] {
            let out = e.on_control(A, &over, 0, |_| None);
            assert!(out.sends.is_empty() && out.spans.is_empty() && out.tick_at.is_none());
        }
        assert_eq!(e.traffic.control_oversized, 2);
        assert_eq!(e.traffic.msgs_in, 2);
        let later = e.tick(10 * DEMAND_TIMEOUT_MS);
        assert!(later.sends.is_empty() && later.spans.is_empty());
        assert_eq!(e.traffic.pull_timeouts, 0);
    }

    #[test]
    fn a_tick_splits_advert_and_retry_demand_batches_at_the_cap() {
        let (cap, full) = (MAX_IDS_PER_CONTROL as u64, MAX_IDS_PER_CONTROL);
        // 2 500 pending adverts go to each peer as 1 000 + 1 000 + 500,
        // batch by batch in peer order.
        let mut e = engine(FloodMode::Pull);
        for n in 0..2500 {
            deliver(&mut e, A, &set(n), 0).expect("fresh");
        }
        let to_all = |n| vec![(A, n), (B, n), (C, n)];
        let expected = [to_all(full), to_all(full), to_all(500)].concat();
        assert_eq!(batch_sizes(&e.tick(ADVERT_INTERVAL_MS)), expected);

        // 2 000 expired wants whose next advertiser is C go to C as two
        // demands of 1 000.
        let mut e = engine(FloodMode::Pull);
        e.on_control(A, &advert(0, cap), 0, |_| None);
        e.on_control(B, &advert(cap, 2 * cap), 0, |_| None);
        e.on_control(C, &advert(0, cap), 0, |_| None);
        e.on_control(C, &advert(cap, 2 * cap), 0, |_| None);
        let retry = e.tick(DEMAND_TIMEOUT_MS);
        assert_eq!(batch_sizes(&retry), vec![(C, full), (C, full)]);
        assert_eq!(kinds(&retry), vec![MsgKind::Demand; 2]);
    }

    /// Floods `msg` from `origin` over `graph` with an engine per node,
    /// every link taking 1 ms and every requested tick run on time, until
    /// the network is quiet; returns (nodes reached, payload sends).
    fn flood(graph: &PeerGraph, mode: FloodMode, origin: NodeId, msg: &Flooded) -> (usize, usize) {
        let mut engines: BTreeMap<NodeId, FloodEngine> = graph
            .nodes()
            .map(|n| (n, FloodEngine::new(mode, graph.peers(n).collect())))
            .collect();
        // Pending events in (time, sequence) order: a message to a node
        // from a peer, or the node's tick (`None`).
        type Event = (NodeId, Option<(NodeId, Flooded)>);
        let mut events: BTreeMap<(u64, usize), Event> = BTreeMap::new();
        let mut seq = 0;
        let mut reached = BTreeSet::from([origin]);
        let mut payload_sends = 0;
        let (mut now, mut node) = (0, origin);
        let mut actions = engines
            .get_mut(&origin)
            .unwrap()
            .originate(msg.clone(), now);
        loop {
            for (to, sent) in actions.sends {
                payload_sends += usize::from(!sent.msg.is_pull_control());
                seq += 1;
                events.insert((now + 1, seq), (to, Some((node, sent))));
            }
            if let Some(at) = actions.tick_at {
                seq += 1;
                events.insert((at, seq), (node, None));
            }
            let Some(((at, _), (to, event))) = events.pop_first() else {
                return (reached.len(), payload_sends);
            };
            (now, node) = (at, to);
            let e = engines.get_mut(&to).unwrap();
            actions = match event {
                None => e.tick(now),
                Some((from, m)) if m.msg.is_pull_control() => e.on_control(from, &m, now, |_| None),
                Some((from, m)) => match deliver(e, from, &m, now) {
                    Some(onward) => {
                        reached.insert(to);
                        onward
                    }
                    None => Actions::default(),
                },
            };
        }
    }

    #[test]
    fn flood_reaches_every_node_on_connected_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let nodes: Vec<NodeId> = (0..30).map(NodeId).collect();
        for g in [
            PeerGraph::full_mesh(&nodes),
            PeerGraph::random_regular(&nodes, 6, &mut rng),
        ] {
            for mode in [FloodMode::Push, FloodMode::Pull] {
                let (reached, _) = flood(&g, mode, NodeId(0), &tx(7));
                assert_eq!(reached, 30, "{mode:?}: flood must reach the whole overlay");
            }
        }
    }

    #[test]
    fn scp_envelopes_reach_a_sparse_overlay_by_advert_demand_payload() {
        let mut rng = StdRng::seed_from_u64(5);
        let nodes: Vec<NodeId> = (0..30).map(NodeId).collect();
        let graph = PeerGraph::random_regular(&nodes, 6, &mut rng);
        for mode in [FloodMode::Push, FloodMode::Pull] {
            let (reached, payload_sends) = flood(&graph, mode, NodeId(0), &scp(1));
            assert_eq!(reached, 30, "{mode:?}");
            // The origin pushes to its six peers; every other node fetches
            // the envelope by one demand: it crosses n − 1 links in all.
            assert_eq!(payload_sends, 29, "{mode:?}");
        }
    }

    #[test]
    fn sparse_graphs_flood_with_fewer_sends() {
        // The §7.5 point: naïve flooding costs O(edges); sparser overlays
        // transmit less. (Structured multicast would cut this to O(n).)
        let mut rng = StdRng::seed_from_u64(6);
        let nodes: Vec<NodeId> = (0..40).map(NodeId).collect();
        let mesh = PeerGraph::full_mesh(&nodes);
        let (_, mesh_sends) = flood(&mesh, FloodMode::Push, NodeId(0), &tx(7));
        let sparse = PeerGraph::random_regular(&nodes, 6, &mut rng);
        let (reached, sparse_sends) = flood(&sparse, FloodMode::Push, NodeId(0), &tx(7));
        assert_eq!(reached, 40);
        assert!(
            sparse_sends < mesh_sends / 3,
            "{sparse_sends} vs {mesh_sends}"
        );
    }
}
