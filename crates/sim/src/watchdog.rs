//! The run watchdog: health, safety and liveness over a running network.
//!
//! Every [`Simulation`](crate::Simulation) owns one. From each node's
//! ledger sequence, sampled once per observation round, it raises typed
//! [`HealthAlert`]s — **stuck slots** (no advance for longer than the
//! bound) and **slow closes** (an interval far past the 5-second pacing,
//! §7.3) — and keeps a **ledger-lag** gauge.
//!
//! It also checks SCP's promises, which hold only for **intact** nodes
//! (`intact_nodes`; the ill-behaved set is puppets plus down nodes).
//! The intact set is computed only when a verdict needs it and cached
//! until the ill set or a quorum set changes. A broken promise is a
//! typed [`Violation`]:
//!
//! - **Safety**, at the close that breaks it: per seq and per slot the
//!   watchdog keeps each distinct header hash or externalized value with
//!   its holders, judges a second value when it arrives and again when
//!   the intact set changes, and reports each seq or slot once. A restart
//!   drops the node's entries, as its rebuilt herder forgets them.
//! - **Liveness**, when a bound is set: while some node is intact and no
//!   partition is in force, the highest intact ledger must advance within
//!   the bound, judged in the observation round. Link faults do not
//!   suspend it: a schedule that drops all traffic should expect a stall.
//!
//! Everything depends only on simulated time and observed state, so a
//! replay reproduces it byte for byte.

use std::collections::{BTreeMap, BTreeSet};
use stellar_crypto::Hash256;
use stellar_herder::herder::CloseStats;
use stellar_herder::SlotRecord;
use stellar_quorum::criticality::delete_nodes;
use stellar_quorum::{enjoys_quorum_intersection, FbaSystem};
use stellar_scp::{NodeId, QuorumSet, SlotIndex, Value};
use stellar_telemetry::Json;

/// A node whose ledger has not advanced for this long (ms) is stuck:
/// three 5-second ledger intervals.
const STUCK_SLOT_MS: u64 = 15_000;

/// A close interval longer than this (ms) raises a slow-close alert: the
/// 5-second pacing plus generous slack.
const SLOW_CLOSE_MS: u64 = 8_000;

/// A broken invariant, with enough context to find it in the event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two intact nodes externalized different values for one slot — the
    /// core SCP safety property is gone.
    ValueDivergence {
        /// The slot both nodes decided.
        slot: SlotIndex,
        /// First witness.
        node_a: NodeId,
        /// What `node_a` externalized.
        value_a: Value,
        /// Second witness.
        node_b: NodeId,
        /// What `node_b` externalized.
        value_b: Value,
    },
    /// Two intact nodes closed the same ledger sequence with different
    /// header hashes (state divergence despite agreeing on values).
    HeaderDivergence {
        /// The diverging ledger sequence.
        seq: u64,
        /// First witness.
        node_a: NodeId,
        /// `node_a`'s header hash.
        hash_a: Hash256,
        /// Second witness.
        node_b: NodeId,
        /// `node_b`'s header hash.
        hash_b: Hash256,
    },
    /// A connected intact quorum failed to close a ledger within the
    /// configured bound.
    LivenessStall {
        /// The intact set that should have been making progress.
        intact: BTreeSet<NodeId>,
        /// When progress was last observed (ms).
        stalled_since_ms: u64,
        /// When the stall crossed the bound (ms).
        detected_at_ms: u64,
    },
}

/// The intact set, via the FBA *dispensable set* conditions: the honest
/// nodes are intact iff the ill-behaved set is dispensable, i.e.
///
/// 1. **quorum availability despite `ill`** — the honest nodes still
///    contain a quorum of the *original* system, and
/// 2. **quorum intersection despite `ill`** — after deleting `ill` from
///    every quorum set ([`delete_nodes`] — their votes become free for
///    either side of a split), the remaining quorums all intersect.
///
/// When both hold, the intact set is the maximal original-system quorum
/// among honest nodes; when either fails, nobody is intact and SCP
/// promises nothing. (This is the standard one-DSet approximation: it
/// treats all ill-behaved nodes as one failure event rather than
/// minimizing over every DSet containing them.)
pub(crate) fn intact_nodes(
    qsets: &BTreeMap<NodeId, QuorumSet>,
    ill: &BTreeSet<NodeId>,
) -> BTreeSet<NodeId> {
    let honest: BTreeSet<NodeId> = qsets
        .keys()
        .copied()
        .filter(|id| !ill.contains(id))
        .collect();
    if honest.is_empty() {
        return BTreeSet::new();
    }
    // Quorum availability despite ill.
    let original = FbaSystem::new(qsets.iter().map(|(id, q)| (*id, q.clone())));
    let available = original.max_quorum_in(&honest);
    if available.is_empty() {
        return BTreeSet::new();
    }
    // Quorum intersection despite ill: delete ill (their votes go to
    // either side of a split) and re-check.
    let reduced = FbaSystem::new(
        qsets
            .iter()
            .filter(|(id, _)| !ill.contains(id))
            .map(|(id, q)| (*id, delete_nodes(q, ill))),
    );
    if !enjoys_quorum_intersection(&reduced) {
        return BTreeSet::new();
    }
    available
}

/// A health finding, timestamped in simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthAlert {
    /// A node's ledger sequence stopped advancing.
    StuckSlot {
        /// The stuck node.
        node: NodeId,
        /// The sequence it is stuck at (next close would be `seq + 1`).
        seq: u64,
        /// How long it had been stuck when detected (ms).
        stuck_for_ms: u64,
        /// Simulated detection time (ms).
        detected_at_ms: u64,
    },
    /// A ledger close took longer than the pacing bound.
    SlowClose {
        /// The slow node.
        node: NodeId,
        /// The sequence that closed slowly.
        seq: u64,
        /// Observed close interval (ms).
        interval_ms: u64,
        /// Simulated detection time (ms).
        detected_at_ms: u64,
    },
}

impl HealthAlert {
    /// The alert as a JSON object (report attachment).
    pub fn to_json(&self) -> Json {
        match self {
            HealthAlert::StuckSlot {
                node,
                seq,
                stuck_for_ms,
                detected_at_ms,
            } => Json::obj()
                .set("kind", "stuck_slot")
                .set("node", u64::from(node.0))
                .set("seq", *seq)
                .set("stuck_for_ms", *stuck_for_ms)
                .set("detected_at_ms", *detected_at_ms),
            HealthAlert::SlowClose {
                node,
                seq,
                interval_ms,
                detected_at_ms,
            } => Json::obj()
                .set("kind", "slow_close")
                .set("node", u64::from(node.0))
                .set("seq", *seq)
                .set("interval_ms", *interval_ms)
                .set("detected_at_ms", *detected_at_ms),
        }
    }
}

/// Per-node progress snapshot the watchdog keeps between observations.
#[derive(Clone, Copy, Debug)]
struct Progress {
    seq: u64,
    since_ms: u64,
}

/// Who holds which value at each seq (or slot): each distinct value once,
/// beside the nodes that hold it. A reported index keeps nothing.
#[derive(Clone, Debug, Default)]
struct Holders<V> {
    at: BTreeMap<u64, Vec<(V, BTreeSet<NodeId>)>>,
    reported: BTreeSet<u64>,
}

impl<V: Clone + PartialEq> Holders<V> {
    /// `node` holds `value` at `index`; true when `index` holds two values.
    fn add(&mut self, index: u64, node: NodeId, value: &V) -> bool {
        if self.reported.contains(&index) {
            return false;
        }
        let values = self.at.entry(index).or_default();
        match values.iter_mut().find(|(v, _)| v == value) {
            Some((_, nodes)) => _ = nodes.insert(node),
            None => values.push((value.clone(), BTreeSet::from([node]))),
        }
        values.len() > 1
    }

    /// Whether some index holds two values.
    fn contested(&self) -> bool {
        self.at.values().any(|values| values.len() > 1)
    }

    /// Drops every entry `node` holds.
    fn forget(&mut self, node: NodeId) {
        for values in self.at.values_mut() {
            values.retain_mut(|(_, nodes)| {
                nodes.remove(&node);
                !nodes.is_empty()
            });
        }
    }

    /// Reports each index where two intact nodes hold different values:
    /// the first intact holder in id order, and the first intact holder
    /// of another value.
    fn splits(&mut self, intact: &BTreeSet<NodeId>) -> Vec<(u64, [(NodeId, V); 2])> {
        let split = |(index, values): (&u64, &Vec<(V, BTreeSet<NodeId>)>)| {
            let holders = values.iter().filter_map(|(v, nodes)| {
                let first = nodes.intersection(intact).next()?;
                Some((*first, v))
            });
            let (a, va) = holders.clone().min_by_key(|(n, _)| *n)?;
            let (b, vb) = holders.filter(|(_, v)| *v != va).min_by_key(|(n, _)| *n)?;
            Some((*index, [(a, va.clone()), (b, vb.clone())]))
        };
        let found: Vec<_> = self.at.iter().filter_map(split).collect();
        for (index, ..) in &found {
            self.at.remove(index);
            self.reported.insert(*index);
        }
        found
    }
}

/// The run watchdog (see the module docs): fed each observation round
/// ([`HealthWatchdog::observe`]), close, crash, restart and reconfiguration.
#[derive(Clone, Debug, Default)]
pub struct HealthWatchdog {
    progress: BTreeMap<NodeId, Progress>,
    /// Stuck alerts already raised, keyed `(node, seq)` so a node stuck
    /// on one slot alerts once, not once per observation.
    stuck_raised: BTreeSet<(NodeId, u64)>,
    alerts: Vec<HealthAlert>,
    /// Scheduled chaos downtime per node: `(from_ms, until_ms)` windows.
    /// Alerts whose stall interval overlaps a window are deliberate fault
    /// injection, not operator-facing health findings.
    expected_windows: BTreeMap<NodeId, Vec<(u64, u64)>>,
    expected_alerts: Vec<HealthAlert>,
    /// Header hashes per ledger seq, externalized values per slot.
    headers: Holders<Hash256>,
    values: Holders<Value>,
    /// The seq up to which each node's commitments were taken.
    closed_to: BTreeMap<NodeId, u64>,
    violations: Vec<Violation>,
    first_violation_ms: Option<u64>,
    /// Every validator's quorum set, the input to intactness.
    qsets: BTreeMap<NodeId, QuorumSet>,
    /// The ill set and the intact set last computed for it; cleared when
    /// a quorum set changes.
    intact: Option<(BTreeSet<NodeId>, BTreeSet<NodeId>)>,
    /// Whether the intact set is kept current at every change, so the
    /// first empty one is timed to the event.
    pub(crate) watch_intact: bool,
    first_empty_intact_ms: Option<u64>,
    /// Longest a connected intact quorum may go without closing a ledger
    /// (ms); 0 disables the rule.
    pub(crate) liveness_bound_ms: u64,
    last_max_seq: u64,
    last_progress_ms: u64,
    eligible_since: Option<u64>,
    stall_reported: bool,
}

impl HealthWatchdog {
    /// A watchdog that has observed nothing yet.
    pub fn new() -> HealthWatchdog {
        HealthWatchdog::default()
    }

    /// Registers a scheduled-downtime window for `node`: deliberate chaos
    /// injection (staged org failure, crash schedule). Stuck-slot and
    /// slow-close alerts whose stall interval overlaps the window are
    /// annotated as *expected* — kept for the report, but excluded from
    /// [`HealthWatchdog::alerts`]. Use `u64::MAX` for an open-ended
    /// window (a crash with no scheduled revival).
    pub fn expect_downtime(&mut self, node: NodeId, from_ms: u64, until_ms: u64) {
        self.expected_windows
            .entry(node)
            .or_default()
            .push((from_ms, until_ms));
    }

    /// Whether a stall of `node` spanning `[from_ms, to_ms]` overlaps a
    /// registered downtime window.
    fn stall_is_expected(&self, node: NodeId, from_ms: u64, to_ms: u64) -> bool {
        self.expected_windows
            .get(&node)
            .is_some_and(|windows| windows.iter().any(|(s, e)| from_ms < *e && to_ms > *s))
    }

    /// One observation round: every node's current ledger sequence at
    /// simulated time `now_ms`. Raises stuck-slot and slow-close alerts
    /// as thresholds are crossed.
    pub fn observe(&mut self, now_ms: u64, seqs: &[(NodeId, u64)]) {
        for &(node, seq) in seqs {
            let Some(p) = self.progress.get_mut(&node) else {
                let since_ms = now_ms;
                self.progress.insert(node, Progress { seq, since_ms });
                continue;
            };
            let (since, stalled_for) = (p.since_ms, now_ms.saturating_sub(p.since_ms));
            let alert = if seq > p.seq {
                // Sequence jumps (catch-up replay) close several ledgers
                // at once; the interval belongs to the whole jump and
                // still flags a node that fell behind.
                *p = Progress {
                    seq,
                    since_ms: now_ms,
                };
                (stalled_for > SLOW_CLOSE_MS).then_some(HealthAlert::SlowClose {
                    node,
                    seq,
                    interval_ms: stalled_for,
                    detected_at_ms: now_ms,
                })
            } else {
                let seq = p.seq;
                let stuck = stalled_for >= STUCK_SLOT_MS;
                (stuck && self.stuck_raised.insert((node, seq))).then_some(HealthAlert::StuckSlot {
                    node,
                    seq,
                    stuck_for_ms: stalled_for,
                    detected_at_ms: now_ms,
                })
            };
            match alert {
                Some(a) if self.stall_is_expected(node, since, now_ms) => {
                    self.expected_alerts.push(a)
                }
                Some(a) => self.alerts.push(a),
                None => {}
            }
        }
    }

    /// Each node's distance behind the most advanced node, from the last
    /// observation (the ledger-lag gauge).
    pub fn ledger_lag(&self) -> BTreeMap<NodeId, u64> {
        let max_seq = self.progress.values().map(|p| p.seq).max().unwrap_or(0);
        self.progress
            .iter()
            .map(|(node, p)| (*node, max_seq - p.seq))
            .collect()
    }

    /// All *unexpected* alerts raised so far, in detection order.
    /// Stalls during scheduled chaos downtime live in
    /// [`HealthWatchdog::expected_alerts`] instead.
    pub fn alerts(&self) -> &[HealthAlert] {
        &self.alerts
    }

    /// Alerts that overlapped a registered downtime window: deliberate
    /// fault injection, annotated for the report rather than surfaced as
    /// health violations.
    pub fn expected_alerts(&self) -> &[HealthAlert] {
        &self.expected_alerts
    }

    /// The health section of a report: alert list plus the lag gauge.
    pub fn to_json(&self) -> Json {
        let lag = self.ledger_lag().into_iter();
        let lag = lag.fold(Json::obj(), |j, (node, lag)| {
            j.set(&format!("n{}", node.0), lag)
        });
        let list =
            |alerts: &[HealthAlert]| Json::Arr(alerts.iter().map(HealthAlert::to_json).collect());
        Json::obj()
            .set("alerts", list(&self.alerts))
            .set("expected_alerts", list(&self.expected_alerts))
            .set("ledger_lag", lag)
            .set("max_ledger_lag", self.max_ledger_lag())
    }

    /// The worst current lag (0 when every node is at the tip).
    pub(crate) fn max_ledger_lag(&self) -> u64 {
        self.ledger_lag().into_values().max().unwrap_or(0)
    }

    /// Records `node`'s quorum set; a change voids the cached intact set.
    pub(crate) fn set_quorum(&mut self, node: NodeId, qset: QuorumSet) {
        self.qsets.insert(node, qset);
        self.intact = None;
    }

    /// The intact set while `ill` are ill-behaved, cached until `ill` or a
    /// quorum set changes; an empty one is timed at `now_ms`.
    pub(crate) fn intact(&mut self, now_ms: u64, ill: &BTreeSet<NodeId>) -> &BTreeSet<NodeId> {
        self.intact.take_if(|(cached, _)| cached != ill);
        let qsets = &self.qsets;
        let (_, intact) = self
            .intact
            .get_or_insert_with(|| (ill.clone(), intact_nodes(qsets, ill)));
        if intact.is_empty() {
            self.first_empty_intact_ms.get_or_insert(now_ms);
        }
        intact
    }

    /// `node` closed ledger `seq`: takes the header hashes (`closes`) and
    /// externalized values (`slots`) it committed since its last close. A
    /// seq or slot this leaves contested is judged at once, against the
    /// intact set while `ill()` are ill-behaved.
    pub(crate) fn closed(
        &mut self,
        now_ms: u64,
        node: NodeId,
        seq: u64,
        closes: &[CloseStats],
        slots: &BTreeMap<SlotIndex, SlotRecord>,
        ill: impl FnOnce() -> BTreeSet<NodeId>,
    ) {
        let from = self.closed_to.insert(node, seq).unwrap_or(0);
        let mut contested = false;
        let new = closes.iter().rev().take_while(|c| c.ledger_seq > from);
        for c in new.filter(|c| c.ledger_seq <= seq) {
            contested |= self.headers.add(c.ledger_seq, node, &c.header_hash);
        }
        let new = slots
            .range(from + 1..)
            .take_while(|(slot, _)| **slot <= seq);
        for (slot, r) in new {
            if let Some((_, value)) = &r.externalized {
                contested |= self.values.add(*slot, node, value);
            }
        }
        if contested {
            self.judge(now_ms, &ill());
        }
    }

    /// `node` restarted: its rebuilt herder forgets what it committed, and
    /// so does the watchdog.
    pub(crate) fn restarted(&mut self, node: NodeId) {
        self.closed_to.remove(&node);
        self.headers.forget(node);
        self.values.forget(node);
    }

    /// The ill set or a quorum set may have changed: judges contested seqs
    /// and slots again and keeps a watched intact set current.
    pub(crate) fn rejudge(&mut self, now_ms: u64, ill: impl FnOnce() -> BTreeSet<NodeId>) {
        if self.watch_intact || self.headers.contested() || self.values.contested() {
            self.judge(now_ms, &ill());
        }
    }

    /// Reports each contested slot, then each contested seq, that two
    /// intact nodes hold different values for.
    fn judge(&mut self, now_ms: u64, ill: &BTreeSet<NodeId>) {
        let intact = self.intact(now_ms, ill).clone();
        for (slot, [(node_a, value_a), (node_b, value_b)]) in self.values.splits(&intact) {
            let v = Violation::ValueDivergence {
                slot,
                node_a,
                value_a,
                node_b,
                value_b,
            };
            self.report(now_ms, v);
        }
        for (seq, [(node_a, hash_a), (node_b, hash_b)]) in self.headers.splits(&intact) {
            let v = Violation::HeaderDivergence {
                seq,
                node_a,
                hash_a,
                node_b,
                hash_b,
            };
            self.report(now_ms, v);
        }
    }

    fn report(&mut self, now_ms: u64, violation: Violation) {
        self.first_violation_ms.get_or_insert(now_ms);
        self.violations.push(violation);
    }

    /// The intact-quorum liveness rule, after [`HealthWatchdog::observe`]:
    /// while some node is intact and nothing is `partitioned`, the highest
    /// intact ledger must advance within the bound.
    pub(crate) fn judge_liveness(
        &mut self,
        now_ms: u64,
        partitioned: bool,
        ill: impl FnOnce() -> BTreeSet<NodeId>,
    ) {
        if self.liveness_bound_ms == 0 {
            return;
        }
        let intact = self.intact(now_ms, &ill()).clone();
        let seqs = intact.iter().filter_map(|id| self.progress.get(id));
        let max_seq = seqs.map(|p| p.seq).max().unwrap_or(0);
        if max_seq > self.last_max_seq {
            self.last_max_seq = max_seq;
            self.last_progress_ms = now_ms;
            self.stall_reported = false;
        }
        if intact.is_empty() || partitioned {
            // The guarantee is conditional; the clock restarts when the
            // condition next holds.
            self.eligible_since = None;
            return;
        }
        let since = *self.eligible_since.get_or_insert(now_ms);
        let quiet_since = self.last_progress_ms.max(since);
        if now_ms.saturating_sub(quiet_since) > self.liveness_bound_ms && !self.stall_reported {
            self.stall_reported = true;
            let v = Violation::LivenessStall {
                intact,
                stalled_since_ms: quiet_since,
                detected_at_ms: now_ms,
            };
            self.report(now_ms, v);
        }
    }

    /// Every violation found so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// When the first violation was found and when the intact set was
    /// first seen empty (ms).
    pub fn first_breaks(&self) -> (Option<u64>, Option<u64>) {
        (self.first_violation_ms, self.first_empty_intact_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(pairs: &[(u32, u64)]) -> Vec<(NodeId, u64)> {
        pairs.iter().map(|(n, s)| (NodeId(*n), *s)).collect()
    }

    #[test]
    fn healthy_progress_raises_nothing() {
        let mut w = HealthWatchdog::new();
        for step in 0..5u64 {
            let now = 1000 + step * 5000;
            w.observe(now, &seqs(&[(0, 2 + step), (1, 2 + step)]));
        }
        assert!(w.alerts().is_empty());
        assert_eq!(w.max_ledger_lag(), 0);
    }

    #[test]
    fn stuck_slot_alerts_once_per_slot() {
        let mut w = HealthWatchdog::new();
        w.observe(0, &seqs(&[(0, 5)]));
        w.observe(14_000, &seqs(&[(0, 5)]));
        assert!(w.alerts().is_empty(), "inside the bound");
        w.observe(16_000, &seqs(&[(0, 5)]));
        w.observe(30_000, &seqs(&[(0, 5)])); // still stuck: no duplicate
        assert_eq!(w.alerts().len(), 1);
        let HealthAlert::StuckSlot {
            node,
            seq,
            stuck_for_ms,
            ..
        } = &w.alerts()[0]
        else {
            panic!("expected StuckSlot");
        };
        assert_eq!((*node, *seq, *stuck_for_ms), (NodeId(0), 5, 16_000));
        // Advancing and sticking on the *next* slot alerts again.
        w.observe(31_000, &seqs(&[(0, 6)]));
        w.observe(50_000, &seqs(&[(0, 6)]));
        assert_eq!(w.alerts().len(), 3, "slow close + new stuck slot");
    }

    #[test]
    fn slow_close_measures_the_interval() {
        let mut w = HealthWatchdog::new();
        w.observe(1000, &seqs(&[(0, 2)]));
        w.observe(6000, &seqs(&[(0, 3)])); // 5 s: fine
        w.observe(16_000, &seqs(&[(0, 4)])); // 10 s: slow
        assert_eq!(w.alerts().len(), 1);
        let HealthAlert::SlowClose {
            seq, interval_ms, ..
        } = &w.alerts()[0]
        else {
            panic!("expected SlowClose");
        };
        assert_eq!((*seq, *interval_ms), (4, 10_000));
    }

    #[test]
    fn ledger_lag_tracks_the_tip() {
        let mut w = HealthWatchdog::new();
        w.observe(0, &seqs(&[(0, 10), (1, 7), (2, 10)]));
        let lag = w.ledger_lag();
        assert_eq!(lag[&NodeId(0)], 0);
        assert_eq!(lag[&NodeId(1)], 3);
        assert_eq!(w.max_ledger_lag(), 3);
        let j = w.to_json();
        assert_eq!(
            j.get("max_ledger_lag").and_then(Json::as_f64),
            Some(3.0),
            "{}",
            j.render()
        );
    }

    #[test]
    fn scheduled_downtime_annotates_alerts_as_expected() {
        let mut w = HealthWatchdog::new();
        // Node 0 is deliberately failed from 10 s to 40 s; node 1 keeps
        // closing on the 5-second cadence throughout.
        w.expect_downtime(NodeId(0), 10_000, 40_000);
        for step in 0..7u64 {
            let now = 10_000 + step * 5_000;
            w.observe(now, &seqs(&[(0, 3), (1, 3 + step)]));
        }
        assert!(w.alerts().is_empty(), "{:?}", w.alerts());
        assert_eq!(w.expected_alerts().len(), 1, "node 0's stall is staged");
        // Node 0 revives: the catch-up close spans the window, so the
        // slow-close alert is expected too.
        w.observe(45_000, &seqs(&[(0, 4), (1, 10)]));
        assert!(w.alerts().is_empty(), "{:?}", w.alerts());
        assert_eq!(w.expected_alerts().len(), 2, "{:?}", w.expected_alerts());
        // Node 1 now stalls *outside* any window while node 0 closes
        // normally: a real health finding.
        for step in 1..=4u64 {
            let now = 45_000 + step * 5_000;
            w.observe(now, &seqs(&[(0, 4 + step), (1, 10)]));
        }
        assert_eq!(w.alerts().len(), 1, "{:?}", w.alerts());
        let HealthAlert::StuckSlot { node, .. } = &w.alerts()[0] else {
            panic!("expected StuckSlot");
        };
        assert_eq!(*node, NodeId(1));
        // Both lists render in the report JSON.
        let j = w.to_json();
        assert_eq!(
            j.get("expected_alerts")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
        let parsed = Json::parse(&j.render()).expect("valid JSON");
        assert_eq!(parsed, j);
    }

    #[test]
    fn alerts_render_as_json() {
        let mut w = HealthWatchdog::new();
        w.observe(0, &seqs(&[(3, 1)]));
        w.observe(20_000, &seqs(&[(3, 1)]));
        let j = w.to_json();
        let alerts = j.get("alerts").and_then(Json::as_arr).expect("array");
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].get("kind").and_then(Json::as_str),
            Some("stuck_slot")
        );
        let parsed = Json::parse(&j.render()).expect("valid JSON");
        assert_eq!(parsed, j);
    }

    fn majority_system(n: u32) -> BTreeMap<NodeId, QuorumSet> {
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let q = QuorumSet::majority(ids.clone());
        ids.into_iter().map(|id| (id, q.clone())).collect()
    }

    #[test]
    fn all_honest_nodes_are_intact() {
        let qsets = majority_system(4);
        let intact = intact_nodes(&qsets, &BTreeSet::new());
        assert_eq!(intact.len(), 4);
    }

    #[test]
    fn one_byzantine_of_four_leaves_the_rest_intact() {
        let qsets = majority_system(4);
        let ill: BTreeSet<NodeId> = [NodeId(3)].into();
        let intact = intact_nodes(&qsets, &ill);
        assert_eq!(
            intact,
            (0..3).map(NodeId).collect::<BTreeSet<_>>(),
            "deleting one of four from majority(4) leaves an intact quorum"
        );
    }

    #[test]
    fn byzantine_majority_leaves_nobody_intact() {
        let qsets = majority_system(4);
        let ill: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(3)].into();
        let intact = intact_nodes(&qsets, &ill);
        assert!(
            intact.is_empty(),
            "one honest node of four cannot contain a majority quorum, \
             so quorum availability fails and nobody is intact"
        );
    }

    /// A watchdog over majority(4), every node intact.
    fn watching_four() -> HealthWatchdog {
        let mut w = HealthWatchdog::new();
        for (id, qset) in majority_system(4) {
            w.set_quorum(id, qset);
        }
        w
    }

    /// `node` closes ledger `seq` with header hash `hash` at `now_ms`
    /// while `ill` are ill-behaved.
    fn close(w: &mut HealthWatchdog, now_ms: u64, node: u32, seq: u64, hash: u8, ill: &[u32]) {
        let ill: BTreeSet<NodeId> = ill.iter().copied().map(NodeId).collect();
        let stats = CloseStats {
            ledger_seq: seq,
            tx_count: 0,
            op_count: 0,
            apply_time: std::time::Duration::ZERO,
            close_time: 0,
            failed_tx_count: 0,
            header_hash: Hash256([hash; 32]),
        };
        w.closed(
            now_ms,
            NodeId(node),
            seq,
            &[stats],
            &BTreeMap::new(),
            || ill,
        );
    }

    #[test]
    fn diverging_headers_are_reported_at_the_close() {
        let mut w = watching_four();
        close(&mut w, 5_000, 0, 2, 0xA, &[]);
        close(&mut w, 5_010, 2, 2, 0xA, &[]);
        assert!(w.violations().is_empty());
        close(&mut w, 5_020, 1, 2, 0xB, &[]);
        assert_eq!(
            w.violations(),
            [Violation::HeaderDivergence {
                seq: 2,
                node_a: NodeId(0),
                hash_a: Hash256([0xA; 32]),
                node_b: NodeId(1),
                hash_b: Hash256([0xB; 32]),
            }]
        );
        assert_eq!(w.first_breaks().0, Some(5_020), "raised at that close");
        // A third holder of either hash reports the seq no second time.
        close(&mut w, 5_030, 3, 2, 0xB, &[]);
        assert_eq!(w.violations().len(), 1);
    }

    #[test]
    fn a_split_waits_until_its_second_holder_is_intact() {
        let mut w = watching_four();
        close(&mut w, 5_000, 0, 2, 0xA, &[]);
        // Node 1 holds another hash, but it is down: not intact.
        close(&mut w, 5_010, 1, 2, 0xB, &[1]);
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        w.rejudge(7_000, || [NodeId(1)].into());
        assert!(w.violations().is_empty(), "node 1 is still not intact");
        // Node 1 is intact again: the split is reported now.
        w.rejudge(9_000, BTreeSet::new);
        assert_eq!(w.violations().len(), 1, "{:?}", w.violations());
        let Violation::HeaderDivergence { node_a, node_b, .. } = &w.violations()[0] else {
            panic!("expected HeaderDivergence");
        };
        assert_eq!((*node_a, *node_b), (NodeId(0), NodeId(1)));
        assert_eq!(w.first_breaks().0, Some(9_000));
    }

    #[test]
    fn a_restart_forgets_what_the_node_committed() {
        let mut w = watching_four();
        close(&mut w, 5_000, 0, 2, 0xA, &[]);
        close(&mut w, 5_010, 1, 2, 0xB, &[1]);
        w.restarted(NodeId(1));
        assert!(!w.closed_to.contains_key(&NodeId(1)));
        w.rejudge(9_000, BTreeSet::new);
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        // After its restart node 1 closes seq 2 as everyone else did.
        close(&mut w, 9_500, 1, 2, 0xA, &[]);
        assert!(w.violations().is_empty(), "{:?}", w.violations());
    }
}
