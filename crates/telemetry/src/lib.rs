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
//!   of [`TraceEvent`]s capturing the full consensus timeline of the last
//!   N slots, rendered per slot by [`FlightRecorder::timeline`] (what
//!   chaos runs attach to invariant violations). Its payload is the
//!   embedder's event type; a validator records SCP's own events;
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
//! own id types at the instrumentation site. What a slot's consensus
//! *measured* (nomination start, round lengths, timeouts) is kept by the
//! herder, which reads it off the same events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use json::Json;
pub use recorder::{FlightRecorder, TraceEvent};
pub use registry::{Histogram, Registry};
pub use trace::{SpanEvent, SpanPhase, TraceId, TraceStore};

/// The observability bundle one node owns: its metrics registry, its
/// flight recorder of `K` events and its transaction span buffer.
#[derive(Clone, Debug)]
pub struct NodeTelemetry<K> {
    /// This node's id (tags flight-recorder events).
    pub node: u32,
    /// The metrics registry.
    pub registry: Registry,
    /// The flight recorder.
    pub recorder: FlightRecorder<K>,
    /// The transaction-lifecycle span buffer (distributed tracing).
    pub spans: TraceStore,
}

impl<K> NodeTelemetry<K> {
    /// Telemetry for node `node`.
    pub fn new(node: u32) -> NodeTelemetry<K> {
        NodeTelemetry {
            node,
            registry: Registry::new(),
            recorder: FlightRecorder::default(),
            spans: TraceStore::new(node),
        }
    }

    /// Heap bytes the registry, the flight recorder and the span buffer
    /// hold, with `payload` the bytes one recorded event's payload holds
    /// beyond its own size.
    pub fn resident_bytes(&self, payload: impl Fn(&K) -> u64) -> u64 {
        self.registry.resident_bytes()
            + self.recorder.resident_bytes(payload)
            + self.spans.resident_bytes()
    }

    /// Records a flight-recorder event stamped with this node's id.
    pub fn trace(&mut self, t_ms: u64, slot: u64, kind: K) {
        self.recorder.record(t_ms, self.node, slot, kind);
    }

    /// Records a transaction-lifecycle span point (subject to the span
    /// store's sampling rule).
    pub fn span(&mut self, trace: TraceId, t_ms: u64, phase: SpanPhase) {
        self.spans.record(trace, t_ms, phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_helper_stamps_node_id() {
        let mut t = NodeTelemetry::<()>::new(5);
        t.span(42, 100, SpanPhase::Submit);
        t.span(42, 110, SpanPhase::QueueAdmit);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans.spans().all(|s| s.node == 5));
    }
}
