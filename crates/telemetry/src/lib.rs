//! Per-node observability for the Stellar reproduction.
//!
//! The paper's whole evaluation (§7.2–§7.3) is an observability
//! exercise — per-slot latency decomposition, timeout percentiles,
//! message and traffic accounting. This crate is the measurement
//! substrate the rest of the workspace reports through:
//!
//! * [`registry`] — a zero-dependency metrics registry: counters,
//!   gauges, and log₂-bucketed histograms with p50/p75/p99/max, updated
//!   on the hot path by scp/herder/overlay/ledger instrumentation;
//! * [`recorder`] — the slot-scoped **flight recorder**: a bounded ring
//!   of structured [`TraceEvent`]s capturing the full consensus timeline
//!   of the last N slots, rendered per slot by [`FlightRecorder::timeline`]
//!   (what chaos runs attach to invariant violations);
//! * [`trace`] — distributed **transaction tracing**: content-derived
//!   trace ids, causally-ordered lifecycle spans (submit → queue →
//!   flood hops → nominate → externalize → apply), bounded per-node span
//!   buffers with a deterministic sampling knob;
//! * [`json`] — a hand-rolled JSON value (render + parse) backing
//!   [`Registry::snapshot`] and the committed `PAPER_REPRO.json` (the
//!   workspace has no registry access, so no serde).
//!
//! The crate depends on nothing — not even the other workspace crates.
//! Nodes and slots are plain `u32`/`u64` here; embedders translate their
//! own id types at the instrumentation site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use json::Json;
pub use recorder::{FlightRecorder, TraceEvent, TraceKind};
pub use registry::{Histogram, Registry};
pub use trace::{SpanEvent, SpanPhase, TraceId, TraceStore};

use std::collections::BTreeMap;

/// The observability bundle one node owns: its metrics registry plus its
/// flight recorder, with the little bit of cross-event bookkeeping
/// (nomination round durations) that needs state between hook calls.
#[derive(Clone, Debug)]
pub struct NodeTelemetry {
    /// This node's id (tags flight-recorder events).
    pub node: u32,
    /// The metrics registry.
    pub registry: Registry,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    /// The transaction-lifecycle span buffer (distributed tracing).
    pub spans: TraceStore,
    /// Per-slot start time of the nomination round in progress.
    round_started_ms: BTreeMap<u64, u64>,
}

impl NodeTelemetry {
    /// Telemetry for node `node`.
    pub fn new(node: u32) -> NodeTelemetry {
        NodeTelemetry {
            node,
            registry: Registry::new(),
            recorder: FlightRecorder::default(),
            spans: TraceStore::new(node),
            round_started_ms: BTreeMap::new(),
        }
    }

    /// Records a flight-recorder event stamped with this node's id.
    pub fn trace(&mut self, t_ms: u64, slot: u64, kind: TraceKind) {
        self.recorder.record(t_ms, self.node, slot, kind);
    }

    /// Records a transaction-lifecycle span point (subject to the span
    /// store's sampling rule).
    pub fn span(&mut self, trace: TraceId, t_ms: u64, phase: SpanPhase) {
        self.spans.record(trace, t_ms, phase);
    }

    /// Notes a nomination round starting: traces it, counts it, and — for
    /// rounds past the first — observes the previous round's duration in
    /// the `scp.nomination_round_ms` histogram (the Fig. 8 denominator).
    pub fn nomination_round(&mut self, t_ms: u64, slot: u64, round: u32) {
        if let Some(prev) = self.round_started_ms.insert(slot, t_ms) {
            self.registry
                .observe("scp.nomination_round_ms", t_ms.saturating_sub(prev));
        }
        self.registry.inc("scp.nomination_rounds");
        self.trace(t_ms, slot, TraceKind::NominationRound { round });
        // Same retention discipline as the recorder: bookkeeping for
        // slots far behind the newest one is dead weight.
        if self.round_started_ms.len() > 32 {
            let cutoff = slot.saturating_sub(32);
            self.round_started_ms.retain(|s, _| *s >= cutoff);
        }
    }

    /// Closes out nomination-round bookkeeping for an externalized slot,
    /// folding the final round's duration into the histogram.
    pub fn slot_externalized(&mut self, t_ms: u64, slot: u64) {
        if let Some(start) = self.round_started_ms.remove(&slot) {
            self.registry
                .observe("scp.nomination_round_ms", t_ms.saturating_sub(start));
        }
        self.registry.inc("scp.externalized");
        self.trace(t_ms, slot, TraceKind::Externalized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nomination_round_durations_accumulate() {
        let mut t = NodeTelemetry::new(3);
        t.nomination_round(1000, 2, 1);
        t.nomination_round(2000, 2, 2); // round 1 lasted 1000ms
        t.slot_externalized(2400, 2); // round 2 lasted 400ms
        let h = t.registry.histogram("scp.nomination_round_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 400);
        assert_eq!(t.registry.counter("scp.nomination_rounds"), 2);
        assert_eq!(t.registry.counter("scp.externalized"), 1);
        // Events carry the node tag.
        assert!(t.recorder.events().all(|e| e.node == 3));
    }

    #[test]
    fn span_helper_stamps_node_id() {
        let mut t = NodeTelemetry::new(5);
        t.span(42, 100, SpanPhase::Submit);
        t.span(42, 110, SpanPhase::QueueAdmit);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans.spans().all(|s| s.node == 5));
    }

    #[test]
    fn round_bookkeeping_stays_bounded() {
        let mut t = NodeTelemetry::new(0);
        for slot in 0..100u64 {
            t.nomination_round(slot * 10, slot, 1);
        }
        assert!(t.round_started_ms.len() <= 33);
    }
}
