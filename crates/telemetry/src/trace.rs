//! Distributed transaction-lifecycle tracing: causally-ordered spans.
//!
//! The flight recorder ([`crate::recorder`]) answers "what did this
//! *slot* do on this *node*"; this module answers the paper's §7.3
//! question — "where did this *transaction's* latency go" — across the
//! whole network. Every submitted transaction gets a [`TraceId`] derived
//! from its content hash, so the id needs no wire format of its own:
//! every node that sees the payload derives the same id, and the
//! simulator can merge per-node span streams into one cross-node causal
//! DAG after the fact.
//!
//! A [`SpanEvent`] is a *point* in that DAG: `(trace, node, t_ms,
//! phase)`. Phases are points rather than start/end pairs because the
//! interesting durations (queue→flood→nominate→externalize→apply) span
//! *different* nodes — an aggregation pass derives latencies between
//! consecutive phase points instead of each node guessing at intervals.
//!
//! Determinism rules match the rest of the crate: timestamps are the
//! embedder's (simulated) clock, never a wall clock, so two same-seed
//! runs record identical span streams. The [`TraceStore`] is bounded
//! (oldest spans evicted, eviction counted) and has a deterministic
//! sampling knob: `trace % sample_every == 0` keeps a trace on *every*
//! node or none, so sampled traces are still causally complete.

use std::collections::VecDeque;

/// A transaction's trace identity: the big-endian u64 prefix of its
/// content hash. Content-derived, so every node computes the same id
/// without any context header on the wire.
pub type TraceId = u64;

/// A lifecycle milestone a transaction passed on some node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanPhase {
    /// A client handed the transaction to this node (the trace root).
    Submit,
    /// The pending queue accepted it.
    QueueAdmit,
    /// The pending queue rejected it.
    QueueReject {
        /// The queue's reject label (`fee_too_low`, `duplicate`, ...).
        reason: &'static str,
    },
    /// The full payload arrived by flood (one hop of propagation).
    FloodRecv {
        /// The peer that delivered it.
        from: u32,
    },
    /// Pull mode: a peer advertised the payload's hash to this node.
    AdvertSeen {
        /// The advertising peer.
        from: u32,
    },
    /// Pull mode: this node demanded the payload from a peer.
    DemandSent {
        /// The peer demanded from.
        to: u32,
        /// Demand attempt number (1 = first ask).
        attempt: u32,
    },
    /// Pull mode: a demand went unanswered and will be retried.
    DemandTimeout {
        /// The attempt that timed out.
        attempt: u32,
    },
    /// The transaction was included in this node's nominated tx set.
    Nominated {
        /// The consensus slot it was proposed for.
        slot: u64,
    },
    /// A slot carrying this transaction externalized on this node.
    Externalized {
        /// The decided slot.
        slot: u64,
    },
    /// The ledger close applied the transaction.
    Applied {
        /// The ledger sequence it landed in.
        slot: u64,
    },
}

impl SpanPhase {
    /// Short label the causal-trace renderer prints.
    pub fn tag(&self) -> &'static str {
        match self {
            SpanPhase::Submit => "submit",
            SpanPhase::QueueAdmit => "queue_admit",
            SpanPhase::QueueReject { .. } => "queue_reject",
            SpanPhase::FloodRecv { .. } => "flood_recv",
            SpanPhase::AdvertSeen { .. } => "advert_seen",
            SpanPhase::DemandSent { .. } => "demand_sent",
            SpanPhase::DemandTimeout { .. } => "demand_timeout",
            SpanPhase::Nominated { .. } => "nominated",
            SpanPhase::Externalized { .. } => "externalized",
            SpanPhase::Applied { .. } => "applied",
        }
    }

    /// Pipeline position, for ordering simultaneous spans (a close stamps
    /// externalize and apply at one simulated-ms timestamp; causal order
    /// within that millisecond is the pipeline order).
    pub fn order(&self) -> u32 {
        match self {
            SpanPhase::Submit => 0,
            SpanPhase::QueueAdmit | SpanPhase::QueueReject { .. } => 1,
            SpanPhase::AdvertSeen { .. } => 2,
            SpanPhase::DemandSent { .. } => 3,
            SpanPhase::DemandTimeout { .. } => 4,
            SpanPhase::FloodRecv { .. } => 5,
            SpanPhase::Nominated { .. } => 6,
            SpanPhase::Externalized { .. } => 7,
            SpanPhase::Applied { .. } => 8,
        }
    }

    /// The consensus slot this phase is tied to, when it has one.
    pub fn slot(&self) -> Option<u64> {
        match self {
            SpanPhase::Nominated { slot }
            | SpanPhase::Externalized { slot }
            | SpanPhase::Applied { slot } => Some(*slot),
            _ => None,
        }
    }
}

/// One causally-ordered point of a transaction's lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The transaction's trace id.
    pub trace: TraceId,
    /// The node the event happened on.
    pub node: u32,
    /// Timestamp (embedder clock; simulated ms in the simulator).
    pub t_ms: u64,
    /// What happened.
    pub phase: SpanPhase,
}

/// A node's bounded span buffer with deterministic sampling.
///
/// `sample_every == 0` disables tracing entirely; `1` traces every
/// transaction; `n` keeps traces with `trace % n == 0`. The keep rule
/// depends only on the content-derived id, so every node samples the
/// same traces and a kept trace is complete across the network.
#[derive(Clone, Debug)]
pub struct TraceStore {
    node: u32,
    sample_every: u64,
    cap: usize,
    spans: VecDeque<SpanEvent>,
    dropped: u64,
}

impl TraceStore {
    /// Default span-buffer capacity per node.
    pub const DEFAULT_CAP: usize = 1 << 16;

    /// A store for node `node`, tracing everything, default capacity.
    pub fn new(node: u32) -> TraceStore {
        TraceStore {
            node,
            sample_every: 1,
            cap: Self::DEFAULT_CAP,
            spans: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Heap bytes the span buffer holds.
    pub fn resident_bytes(&self) -> u64 {
        (self.spans.capacity() * std::mem::size_of::<SpanEvent>()) as u64
    }

    /// Sets the sampling knob and buffer capacity.
    pub fn configure(&mut self, sample_every: u64, cap: usize) {
        self.sample_every = sample_every;
        self.cap = cap.max(1);
    }

    /// True when any tracing is enabled.
    pub fn enabled(&self) -> bool {
        self.sample_every != 0
    }

    /// The deterministic keep rule — identical on every node.
    pub fn wants(&self, trace: TraceId) -> bool {
        self.sample_every != 0 && trace.is_multiple_of(self.sample_every)
    }

    /// Records a span point, if the trace is sampled. Oldest spans are
    /// evicted (and counted) when the buffer is full.
    pub fn record(&mut self, trace: TraceId, t_ms: u64, phase: SpanPhase) {
        if !self.wants(trace) {
            return;
        }
        if self.spans.len() >= self.cap {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(SpanEvent {
            trace,
            node: self.node,
            t_ms,
            phase,
        });
    }

    /// All retained spans, in record order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter()
    }

    /// Retained spans of one trace, in record order.
    pub fn for_trace(&self, trace: TraceId) -> Vec<&SpanEvent> {
        self.spans.iter().filter(|s| s.trace == trace).collect()
    }

    /// Spans evicted to honor the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained span count.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_rule_is_deterministic_and_shared() {
        let mut a = TraceStore::new(0);
        let mut b = TraceStore::new(1);
        a.configure(4, 100);
        b.configure(4, 100);
        for id in 0..16u64 {
            assert_eq!(a.wants(id), b.wants(id), "id {id}");
            assert_eq!(a.wants(id), id % 4 == 0);
        }
        a.record(4, 10, SpanPhase::Submit);
        a.record(5, 10, SpanPhase::Submit); // not sampled
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn zero_disables_tracing() {
        let mut s = TraceStore::new(0);
        s.configure(0, 100);
        assert!(!s.enabled());
        s.record(0, 1, SpanPhase::Submit);
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_and_counts() {
        let mut s = TraceStore::new(7);
        s.configure(1, 3);
        for t in 0..5u64 {
            s.record(t, t, SpanPhase::Submit);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.spans().next().unwrap().trace, 2);
        assert!(s.spans().all(|e| e.node == 7));
    }

    #[test]
    fn phase_order_follows_the_pipeline() {
        let seq = [
            SpanPhase::Submit,
            SpanPhase::QueueAdmit,
            SpanPhase::AdvertSeen { from: 0 },
            SpanPhase::DemandSent { to: 0, attempt: 1 },
            SpanPhase::DemandTimeout { attempt: 1 },
            SpanPhase::FloodRecv { from: 0 },
            SpanPhase::Nominated { slot: 2 },
            SpanPhase::Externalized { slot: 2 },
            SpanPhase::Applied { slot: 2 },
        ];
        for w in seq.windows(2) {
            assert!(w[0].order() < w[1].order(), "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn for_trace_filters() {
        let mut s = TraceStore::new(0);
        s.record(1, 1, SpanPhase::Submit);
        s.record(2, 2, SpanPhase::Submit);
        s.record(1, 3, SpanPhase::QueueAdmit);
        assert_eq!(s.for_trace(1).len(), 2);
        assert_eq!(s.for_trace(2).len(), 1);
        assert!(s.for_trace(3).is_empty());
    }
}
