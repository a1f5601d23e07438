//! Pull-mode flooding: advert/demand scheduling and the payload cache.
//!
//! Naïve push flooding sends every payload across every link; §7.2 shows
//! the resulting bandwidth is dominated by redundant copies (the
//! duplicate-suppression ratio the traffic stats measure). Pull mode
//! replaces payload pushes with content-addressed gossip: a node that
//! learns a transaction or transaction set **adverts** its hash to its
//! peers, and each peer **demands** the payload from exactly one
//! advertiser, retrying from the next advertiser after a deterministic
//! timeout. SCP envelopes take the same path in both modes. Whatever the
//! kind, the originator pushes to every peer, since transaction → leader
//! and a voted set → voters are both on the consensus critical path. On
//! a mesh every peer then already holds the payload a relay has, so the
//! relay's copy costs one hash in a batched advert, and the advert →
//! demand round trip is paid only by a peer the push did not reach.
//!
//! A transaction set also has a second way in, in both modes: an SCP
//! envelope that names a set the node lacks makes its sender a *holder*,
//! and the set is demanded from it only if it has not arrived one demand
//! timeout later — by then the proposer's push has landed if it is coming.
//!
//! This module holds the per-node bookkeeping [`crate::FloodEngine`]
//! composes; the engine's embedder supplies the clock and the links:
//!
//! * [`DemandScheduler`] — batches outgoing adverts per flood tick and
//!   tracks wanted hashes, at most [`MAX_WANTS`] of them: who advertised
//!   or named them, whom we demanded from, and when to give up and try
//!   the next one;
//! * [`PayloadCache`] — a bounded FIFO map of recently learned payloads,
//!   from which incoming demands are answered while they are recent.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use stellar_crypto::{heap, Hash256, IdMap, IdSet};
use stellar_scp::NodeId;

/// How a simulation floods large payloads (transactions and tx sets).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FloodMode {
    /// Naïve push flooding: every payload crosses every link (§7.5).
    #[default]
    Push,
    /// Advert/demand gossip: an originator pushes, and a payload crosses
    /// any further link only when demanded.
    Pull,
}

/// Total demand attempts per hash before the scheduler gives up (each
/// attempt waits one demand timeout). Advertisers are tried round-robin,
/// so transient drops retry a healthy peer before exhaustion.
pub const MAX_DEMAND_ATTEMPTS: u32 = 8;

/// Most hashes a node wants at once (as many as its payload cache
/// holds): any signed peer's NOMINATE can name any number of sets.
pub const MAX_WANTS: usize = 4096;

/// One hash the node still lacks: its advertisers and the outstanding
/// demand, if any.
#[derive(Debug)]
struct Want {
    /// Peers that advertised or named the hash, in arrival order.
    advertisers: Vec<NodeId>,
    /// Index into `advertisers` of the next peer to try.
    next: usize,
    /// Demand attempts made so far; 0 while a deferred want waits.
    attempts: u32,
    /// Deadline of the outstanding demand, or of the deferral (ms).
    deadline_ms: u64,
    /// An SCP value named it ([`DemandScheduler::defer`]).
    named: bool,
}

/// What a scheduler tick asks the embedder to transmit.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct TickActions {
    /// Hash batch to advertise to every peer (empty: no advert).
    pub adverts: Vec<Hash256>,
    /// Retry demands, grouped per target peer.
    pub demands: Vec<(NodeId, Vec<Hash256>)>,
    /// Every demand that expired this tick — retried or given up — with
    /// the attempt that timed out, so the timeout can be counted and
    /// attributed to each trace.
    pub expired: Vec<(Hash256, u32)>,
}

/// Per-node pull-mode bookkeeping. All state transitions are driven by
/// explicit timestamps, so embedding it in a deterministic simulation
/// keeps runs bit-identical.
#[derive(Debug)]
pub(crate) struct DemandScheduler {
    /// Hashes learned since the last tick, to advertise in one batch,
    /// and the same hashes as a set for the O(1) duplicate test.
    pending_adverts: Vec<Hash256>,
    queued: IdSet<Hash256>,
    /// Hashes we lack, keyed for deterministic iteration.
    wanted: BTreeMap<Hash256, Want>,
    demand_timeout_ms: u64,
    /// Wants refused at [`MAX_WANTS`], for the engine's traffic counters.
    pub(crate) dropped: u64,
}

impl DemandScheduler {
    /// Heap bytes the advert batch and the wants hold.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let advertisers: u64 = self
            .wanted
            .values()
            .map(|w| heap::array::<NodeId>(w.advertisers.capacity()))
            .sum();
        heap::array::<Hash256>(self.pending_adverts.capacity())
            + heap::table(self.queued.len(), std::mem::size_of::<Hash256>())
            + heap::btree(self.wanted.len(), std::mem::size_of::<(Hash256, Want)>())
            + advertisers
    }

    /// A scheduler that retries an unanswered demand after
    /// `demand_timeout_ms` of simulated time.
    pub(crate) fn new(demand_timeout_ms: u64) -> DemandScheduler {
        DemandScheduler {
            pending_adverts: Vec::new(),
            queued: IdSet::default(),
            wanted: BTreeMap::new(),
            demand_timeout_ms: demand_timeout_ms.max(1),
            dropped: 0,
        }
    }

    /// Queues a freshly learned payload hash for the next advert batch.
    pub(crate) fn queue_advert(&mut self, id: Hash256) {
        if self.queued.insert(id) {
            self.pending_adverts.push(id);
        }
    }

    /// Registers an advert from `from` for hashes the node lacks
    /// (`missing` is pre-filtered by the caller's have-check). Returns
    /// the hashes to demand from `from` right now — those with no other
    /// outstanding demand. Hashes already being demanded elsewhere just
    /// gain `from` as a fallback advertiser for the retry path.
    /// A deferred want counts as no demand: the advert ends its wait.
    pub(crate) fn on_advert(
        &mut self,
        from: NodeId,
        missing: &[Hash256],
        now_ms: u64,
    ) -> Vec<Hash256> {
        let mut demand_now = Vec::new();
        let deadline_ms = now_ms + self.demand_timeout_ms;
        for id in missing {
            if let Some(w) = self.want(*id, from, now_ms).filter(|w| w.attempts == 0) {
                w.next = w.advertisers.iter().position(|p| *p == from).unwrap_or(0) + 1;
                w.attempts = 1;
                w.deadline_ms = deadline_ms;
                demand_now.push(*id);
            }
        }
        demand_now
    }

    /// Registers `holder` for a hash an SCP value named. A new want is
    /// *deferred*: its first demand goes out only once the demand timeout
    /// passes with the payload still missing, and that expiry counts as
    /// no timeout.
    pub(crate) fn defer(&mut self, holder: NodeId, id: Hash256, now_ms: u64) {
        if let Some(w) = self.want(id, holder, now_ms) {
            w.named = true;
        }
    }

    /// Whether an SCP value named the wanted hash `id`.
    pub(crate) fn is_named(&self, id: Hash256) -> bool {
        self.wanted.get(&id).is_some_and(|w| w.named)
    }

    /// Hashes the node still wants.
    pub(crate) fn wanted(&self) -> usize {
        self.wanted.len()
    }

    /// The want for `id`, with `from` among its advertisers; a new one
    /// waits one demand timeout from `now_ms`. `None`, and counted, when
    /// `id` is new and [`MAX_WANTS`] are wanted already.
    fn want(&mut self, id: Hash256, from: NodeId, now_ms: u64) -> Option<&mut Want> {
        if self.wanted.len() >= MAX_WANTS && !self.wanted.contains_key(&id) {
            self.dropped += 1;
            return None;
        }
        let deadline_ms = now_ms + self.demand_timeout_ms;
        let w = self.wanted.entry(id).or_insert_with(|| Want {
            advertisers: Vec::new(),
            next: 0,
            attempts: 0,
            deadline_ms,
            named: false,
        });
        if !w.advertisers.contains(&from) {
            w.advertisers.push(from);
        }
        Some(w)
    }

    /// Marks a wanted payload as arrived; returns `true` if a demand was
    /// outstanding for it (the fulfilled counter).
    pub(crate) fn on_fulfilled(&mut self, id: Hash256) -> bool {
        self.wanted.remove(&id).is_some_and(|w| w.attempts > 0)
    }

    /// Demand attempts made so far for a wanted hash (1 = the immediate
    /// first ask). Lets the embedder stamp demand-round span events with
    /// the attempt number.
    pub(crate) fn attempt_of(&self, id: Hash256) -> Option<u32> {
        self.wanted.get(&id).map(|w| w.attempts)
    }

    /// One flood tick: drains the advert batch and re-demands every
    /// expired want from its next advertiser (round-robin); a deferred
    /// want sends its first demand. Wants that exhausted
    /// [`MAX_DEMAND_ATTEMPTS`] are dropped — a later advert recreates
    /// them.
    pub(crate) fn tick(&mut self, now_ms: u64) -> TickActions {
        let adverts = std::mem::take(&mut self.pending_adverts);
        self.queued = IdSet::default();
        let mut demands: BTreeMap<NodeId, Vec<Hash256>> = BTreeMap::new();
        let mut expired = Vec::new();
        let mut give_up = Vec::new();
        for (id, w) in self.wanted.iter_mut() {
            if w.deadline_ms > now_ms {
                continue;
            }
            if w.attempts > 0 {
                expired.push((*id, w.attempts));
            }
            if w.attempts >= MAX_DEMAND_ATTEMPTS {
                give_up.push(*id);
                continue;
            }
            let peer = w.advertisers[w.next % w.advertisers.len()];
            w.next += 1;
            w.attempts += 1;
            w.deadline_ms = now_ms + self.demand_timeout_ms;
            demands.entry(peer).or_default().push(*id);
        }
        for id in give_up {
            self.wanted.remove(&id);
        }
        TickActions {
            adverts,
            demands: demands.into_iter().collect(),
            expired,
        }
    }

    /// True when a future tick still has work to do (advert batch to
    /// send or demands to watch for expiry).
    pub(crate) fn has_work(&self) -> bool {
        !self.pending_adverts.is_empty() || !self.wanted.is_empty()
    }
}

/// A bounded FIFO map of recently learned payloads, keyed by content
/// hash — the store incoming demands are answered from. A payload is
/// evicted once it is `retention_ms` old, or oldest-first on overflow: a
/// demand for an evicted payload goes unanswered and the demander
/// retries another advertiser (mirroring production, where a peer may
/// have pruned an old tx set). Callers' clocks never go backwards.
#[derive(Debug)]
pub(crate) struct PayloadCache<V> {
    /// Each payload with the time it was inserted (ms).
    map: IdMap<Hash256, (u64, V)>,
    /// The same ids and times, oldest first: eviction reads the time here.
    order: VecDeque<(u64, Hash256)>,
    capacity: usize,
    retention_ms: u64,
}

impl<V> PayloadCache<V> {
    /// Heap bytes the cache holds, with `payload` the bytes one payload
    /// holds beyond its own size.
    pub(crate) fn resident_bytes(&self, payload: impl Fn(&V) -> u64) -> u64 {
        let payloads: u64 = self.map.values().map(|(_, v)| payload(v)).sum();
        heap::table(self.map.len(), std::mem::size_of::<(Hash256, (u64, V))>())
            + heap::array::<(u64, Hash256)>(self.order.capacity())
            + payloads
    }

    /// A cache holding at most `capacity` payloads, each for less than
    /// `retention_ms`.
    pub(crate) fn new(capacity: usize, retention_ms: u64) -> PayloadCache<V> {
        PayloadCache {
            map: IdMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            retention_ms,
        }
    }

    /// Evicts what has expired by `now_ms`, then inserts a payload
    /// (no-op if the hash is still cached).
    pub(crate) fn insert(&mut self, id: Hash256, payload: V, now_ms: u64) {
        while let Some(&(at, old)) = self.order.front() {
            if at + self.retention_ms > now_ms {
                break;
            }
            self.map.remove(&old);
            self.order.pop_front();
        }
        let Entry::Vacant(slot) = self.map.entry(id) else {
            return;
        };
        slot.insert((now_ms, payload));
        self.order.push_back((now_ms, id));
        if self.order.len() > self.capacity {
            let (_, old) = self.order.pop_front().expect("non-empty");
            self.map.remove(&old);
        }
    }

    /// The payload behind `id`, if cached and not yet expired at `now_ms`.
    pub(crate) fn get(&self, id: Hash256, now_ms: u64) -> Option<&V> {
        let (at, payload) = self.map.get(&id)?;
        (now_ms < at + self.retention_ms).then_some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> Hash256 {
        let mut b = [0u8; 32];
        b[0] = n;
        Hash256(b)
    }

    #[test]
    fn advert_batches_drain_per_tick() {
        let mut s = DemandScheduler::new(400);
        for n in [3, 1, 3, 2, 1] {
            s.queue_advert(id(n)); // dedup within a batch, first arrival order
        }
        let t = s.tick(100);
        assert_eq!(t.adverts, vec![id(3), id(1), id(2)]);
        assert_eq!(s.tick(200).adverts, Vec::<Hash256>::new());
        // A drained id may be queued again for the next batch.
        s.queue_advert(id(1));
        assert_eq!(s.tick(300).adverts, vec![id(1)]);
    }

    #[test]
    fn first_advertiser_is_demanded_immediately() {
        let mut s = DemandScheduler::new(400);
        let d = s.on_advert(NodeId(7), &[id(1), id(2)], 1000);
        assert_eq!(d, vec![id(1), id(2)]);
        // A second advertiser of an outstanding hash is only a fallback.
        let d2 = s.on_advert(NodeId(8), &[id(1), id(3)], 1050);
        assert_eq!(d2, vec![id(3)]);
        assert!(s.attempt_of(id(1)).is_some() && s.attempt_of(id(3)).is_some());
    }

    #[test]
    fn timeout_retries_next_advertiser_round_robin() {
        let mut s = DemandScheduler::new(400);
        s.on_advert(NodeId(7), &[id(1)], 1000);
        s.on_advert(NodeId(8), &[id(1)], 1010);
        // Before the deadline: nothing expires.
        assert!(s.tick(1300).expired.is_empty());
        // After: retry goes to the *second* advertiser.
        let t = s.tick(1400);
        assert_eq!(t.expired, vec![(id(1), 1)]);
        assert_eq!(t.demands, vec![(NodeId(8), vec![id(1)])]);
        assert_eq!(s.attempt_of(id(1)), Some(2), "retry bumped the attempt");
        // Next expiry wraps back to the first.
        let t2 = s.tick(1800);
        assert_eq!(t2.demands, vec![(NodeId(7), vec![id(1)])]);
    }

    #[test]
    fn fulfilled_cancels_the_retry() {
        let mut s = DemandScheduler::new(400);
        s.on_advert(NodeId(7), &[id(1)], 1000);
        assert!(s.on_fulfilled(id(1)));
        assert!(!s.on_fulfilled(id(1)), "second arrival was not wanted");
        assert_eq!(s.tick(2000), TickActions::default());
        assert!(!s.has_work());
    }

    #[test]
    fn exhausted_attempts_drop_the_want() {
        let mut s = DemandScheduler::new(100);
        s.on_advert(NodeId(7), &[id(1)], 0);
        let mut now = 0;
        let mut retries = 0;
        for _ in 0..MAX_DEMAND_ATTEMPTS + 2 {
            now += 100;
            retries += s.tick(now).demands.len();
        }
        assert_eq!(retries as u32, MAX_DEMAND_ATTEMPTS - 1, "bounded retries");
        assert_eq!(s.attempt_of(id(1)), None, "given up");
        // A fresh advert recreates the want.
        assert_eq!(s.on_advert(NodeId(9), &[id(1)], now), vec![id(1)]);
    }

    #[test]
    fn the_want_table_holds_at_most_max_wants() {
        let mut s = DemandScheduler::new(400);
        let hash = |n: usize| {
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&n.to_le_bytes());
            Hash256(b)
        };
        for n in 0..MAX_WANTS {
            s.defer(NodeId(7), hash(n), 0);
        }
        assert_eq!((s.wanted(), s.dropped), (MAX_WANTS, 0));
        // Full: two new hashes are dropped, a wanted one ends its wait.
        let known_and_new = [hash(MAX_WANTS - 1), hash(MAX_WANTS), hash(MAX_WANTS + 1)];
        let now = s.on_advert(NodeId(8), &known_and_new, 10);
        assert_eq!(now, vec![known_and_new[0]]);
        s.defer(NodeId(9), known_and_new[2], 20);
        assert_eq!((s.wanted(), s.dropped), (MAX_WANTS, 3));
        // An arrival makes room again.
        s.on_fulfilled(known_and_new[0]);
        s.defer(NodeId(9), known_and_new[2], 30);
        assert_eq!((s.wanted(), s.dropped), (MAX_WANTS, 3));
        assert!(s.is_named(known_and_new[2]));
    }

    #[test]
    fn payload_cache_bounded_fifo() {
        let mut c: PayloadCache<u32> = PayloadCache::new(2, 1_000);
        c.insert(id(1), 10, 0);
        c.insert(id(2), 20, 0);
        c.insert(id(2), 99, 0); // duplicate insert ignored
        assert_eq!(c.get(id(2), 0), Some(&20));
        c.insert(id(3), 30, 0); // evicts id(1)
        assert_eq!(c.get(id(1), 0), None);
        assert_eq!(c.get(id(3), 0), Some(&30));
    }

    #[test]
    fn payload_cache_evicts_past_the_retention_window_and_holds_the_cap() {
        let mut c: PayloadCache<u32> = PayloadCache::new(3, 1_000);
        c.insert(id(1), 10, 0);
        c.insert(id(2), 20, 500);
        // Still inside the window: answered. At its edge: refused, even
        // before any insert purges it.
        assert_eq!(c.get(id(1), 999), Some(&10));
        assert_eq!(c.get(id(1), 1_000), None);
        // An insert at 1 200 drops id(1) and keeps id(2).
        c.insert(id(3), 30, 1_200);
        assert_eq!(c.map.len(), 2);
        assert_eq!(c.get(id(2), 1_200), Some(&20));
        // A fresh copy of an expired hash is cached anew.
        c.insert(id(1), 11, 1_300);
        assert_eq!(c.get(id(1), 1_300), Some(&11));
        // The cap still binds inside the window: oldest first.
        c.insert(id(4), 40, 1_400);
        assert_eq!(c.map.len(), 3);
        assert_eq!(c.get(id(2), 1_400), None);
        assert_eq!(c.get(id(3), 1_400), Some(&30));
        // Once all are past the window, one insert leaves only itself.
        c.insert(id(5), 50, 10_000);
        assert_eq!((c.map.len(), c.order.len()), (1, 1));
    }
}
