//! Cross-node trace aggregation: folding per-node span streams into a
//! per-transaction latency decomposition (the §7.3 measurement points,
//! taken per *transaction* instead of per ledger).
//!
//! Every validator records [`SpanEvent`]s into its own bounded buffer;
//! after a run the simulator merges them, groups by trace id, and takes
//! the network-wide *first* time each phase was reached. Consecutive
//! phase points then yield the submit→apply latency decomposition:
//!
//! ```text
//! submit → queue admit → nominated → externalized → applied
//! ```
//!
//! All timestamps are simulated milliseconds, so the JSON these
//! functions render is byte-identical across same-seed runs — the
//! determinism `repro`'s E18 row asserts.

use crate::metrics::percentile;
use crate::simulation::Simulation;
use std::collections::BTreeSet;
use stellar_telemetry::{Json, SpanEvent, SpanPhase, TraceId};

/// One transaction's lifecycle, folded across every node that saw it.
/// Each timestamp is the *earliest* simulated time any node reached the
/// phase (`None`: no node did — e.g. a transaction still pending when
/// the run stopped).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxTrace {
    /// The content-derived trace id.
    pub trace: TraceId,
    /// Client submission (the trace root).
    pub submit_ms: u64,
    /// First pending-queue admission anywhere.
    pub admit_ms: Option<u64>,
    /// First inclusion in a nominated tx set.
    pub nominated_ms: Option<u64>,
    /// First externalize of a slot carrying it.
    pub externalized_ms: Option<u64>,
    /// First ledger apply.
    pub applied_ms: Option<u64>,
    /// The ledger sequence it landed in, if applied.
    pub apply_slot: Option<u64>,
    /// Flood hops observed (full-payload arrivals network-wide).
    pub flood_hops: u64,
    /// Pull-mode demand timeouts suffered network-wide.
    pub demand_timeouts: u64,
    /// Distinct nodes that recorded any span for this trace.
    pub nodes_reached: u64,
    /// Last full-payload arrival anywhere minus submit time: how long
    /// the flood took to finish propagating (the flood-lag gauge).
    pub flood_lag_ms: Option<u64>,
}

/// Groups a merged span stream by trace and folds each group into a
/// [`TxTrace`] row. Only traces with a [`SpanPhase::Submit`] root are
/// kept (a span buffer that evicted its root cannot anchor latencies).
/// Rows come back sorted by `(submit_ms, trace)`.
pub fn build_tx_traces(spans: &[SpanEvent]) -> Vec<TxTrace> {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Acc {
        submit: Option<u64>,
        admit: Option<u64>,
        nominated: Option<u64>,
        externalized: Option<u64>,
        applied: Option<u64>,
        apply_slot: Option<u64>,
        flood_hops: u64,
        last_flood_ms: Option<u64>,
        demand_timeouts: u64,
        nodes: BTreeSet<u32>,
    }
    fn first(slot: &mut Option<u64>, t: u64) {
        *slot = Some(slot.map_or(t, |cur| cur.min(t)));
    }
    let mut by_trace: BTreeMap<TraceId, Acc> = BTreeMap::new();
    for s in spans {
        let a = by_trace.entry(s.trace).or_default();
        a.nodes.insert(s.node);
        match &s.phase {
            SpanPhase::Submit => first(&mut a.submit, s.t_ms),
            SpanPhase::QueueAdmit => first(&mut a.admit, s.t_ms),
            SpanPhase::Nominated { .. } => first(&mut a.nominated, s.t_ms),
            SpanPhase::Externalized { .. } => first(&mut a.externalized, s.t_ms),
            SpanPhase::Applied { slot } => {
                if a.applied.is_none_or(|t| s.t_ms < t) {
                    a.apply_slot = Some(*slot);
                }
                first(&mut a.applied, s.t_ms);
            }
            SpanPhase::FloodRecv { .. } => {
                a.flood_hops += 1;
                let last = a.last_flood_ms.map_or(s.t_ms, |cur| cur.max(s.t_ms));
                a.last_flood_ms = Some(last);
            }
            SpanPhase::DemandTimeout { .. } => a.demand_timeouts += 1,
            _ => {}
        }
    }
    let mut rows: Vec<TxTrace> = by_trace
        .into_iter()
        .filter_map(|(trace, a)| {
            let submit_ms = a.submit?;
            Some(TxTrace {
                trace,
                submit_ms,
                admit_ms: a.admit,
                nominated_ms: a.nominated,
                externalized_ms: a.externalized,
                applied_ms: a.applied,
                apply_slot: a.apply_slot,
                flood_hops: a.flood_hops,
                demand_timeouts: a.demand_timeouts,
                nodes_reached: a.nodes.len() as u64,
                flood_lag_ms: a.last_flood_ms.map(|t| t.saturating_sub(submit_ms)),
            })
        })
        .collect();
    rows.sort_by_key(|r| (r.submit_ms, r.trace));
    rows
}

/// Latency statistics of one pipeline phase across all traced
/// transactions that completed it.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStats {
    /// Phase label (`submit_to_admit`, …).
    pub phase: &'static str,
    /// Transactions that completed the phase.
    pub samples: u64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
}

/// The phase boundaries of the latency decomposition, as `(label,
/// start-time, end-time)` extractors over a [`TxTrace`] row.
type PhaseEdge = (
    &'static str,
    fn(&TxTrace) -> Option<u64>,
    fn(&TxTrace) -> Option<u64>,
);

const PHASES: &[PhaseEdge] = &[
    ("submit_to_admit", |r| Some(r.submit_ms), |r| r.admit_ms),
    ("admit_to_nominate", |r| r.admit_ms, |r| r.nominated_ms),
    (
        "nominate_to_externalize",
        |r| r.nominated_ms,
        |r| r.externalized_ms,
    ),
    (
        "externalize_to_apply",
        |r| r.externalized_ms,
        |r| r.applied_ms,
    ),
    ("submit_to_apply", |r| Some(r.submit_ms), |r| r.applied_ms),
];

/// Per-phase p50/p99/mean over every row that completed the phase. The
/// last entry, `submit_to_apply`, is the end-to-end confirmation
/// latency (the Fig. 7 quantity).
pub fn phase_stats(rows: &[TxTrace]) -> Vec<PhaseStats> {
    PHASES
        .iter()
        .map(|(label, start, end)| {
            let mut xs: Vec<f64> = rows
                .iter()
                .filter_map(|r| Some(end(r)?.saturating_sub(start(r)?) as f64))
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mean = if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            PhaseStats {
                phase: label,
                samples: xs.len() as u64,
                p50_ms: percentile(&xs, 50.0),
                p99_ms: percentile(&xs, 99.0),
                mean_ms: mean,
            }
        })
        .collect()
}

/// The submit→apply latency CDF on a fixed percentile grid (Fig. 7's
/// axes: confirmation latency vs fraction of transactions).
pub fn submit_to_apply_cdf(rows: &[TxTrace]) -> Json {
    let mut xs: Vec<f64> = rows
        .iter()
        .filter_map(|r| Some(r.applied_ms?.saturating_sub(r.submit_ms) as f64))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let grid = [5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
    Json::Arr(
        grid.iter()
            .map(|p| Json::obj().set("p", *p).set("ms", percentile(&xs, *p)))
            .collect(),
    )
}

/// The whole trace section of a report: row counts, the per-phase
/// decomposition, the confirmation CDF, and flood health. Deterministic
/// for same-seed runs (simulated time only).
pub fn trace_summary_json(rows: &[TxTrace], spans_dropped: u64) -> Json {
    let applied = rows.iter().filter(|r| r.applied_ms.is_some()).count() as u64;
    let mut phases = Json::obj();
    for s in phase_stats(rows) {
        phases = phases.set(
            s.phase,
            Json::obj()
                .set("samples", s.samples)
                .set("p50_ms", s.p50_ms)
                .set("p99_ms", s.p99_ms)
                .set("mean_ms", s.mean_ms),
        );
    }
    let mut lags: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.flood_lag_ms.map(|v| v as f64))
        .collect();
    lags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let timeouts: u64 = rows.iter().map(|r| r.demand_timeouts).sum();
    Json::obj()
        .set("traced", rows.len() as u64)
        .set("applied", applied)
        .set("spans_dropped", spans_dropped)
        .set("phases", phases)
        .set("submit_to_apply_cdf", submit_to_apply_cdf(rows))
        .set(
            "flood",
            Json::obj()
                .set("lag_p50_ms", percentile(&lags, 50.0))
                .set("lag_p99_ms", percentile(&lags, 99.0))
                .set("demand_timeouts", timeouts),
        )
}

/// Every row as one JSON array — the byte-identical artifact twin-run
/// determinism checks compare.
pub fn rows_to_json(rows: &[TxTrace]) -> Json {
    fn opt(obj: Json, key: &str, v: Option<u64>) -> Json {
        match v {
            Some(v) => obj.set(key, v),
            None => obj,
        }
    }
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut o = Json::obj()
                    .set("trace", r.trace)
                    .set("submit_ms", r.submit_ms);
                o = opt(o, "admit_ms", r.admit_ms);
                o = opt(o, "nominated_ms", r.nominated_ms);
                o = opt(o, "externalized_ms", r.externalized_ms);
                o = opt(o, "applied_ms", r.applied_ms);
                o = opt(o, "apply_slot", r.apply_slot);
                o = opt(o, "flood_lag_ms", r.flood_lag_ms);
                o.set("flood_hops", r.flood_hops)
                    .set("demand_timeouts", r.demand_timeouts)
                    .set("nodes_reached", r.nodes_reached)
            })
            .collect(),
    )
}

/// Renders one transaction's complete cross-node causal trace, one line
/// per span, ordered by `(t_ms, pipeline order, node)` — a close stamps
/// externalize and apply in one simulated millisecond, so causal order
/// within it is the pipeline order. This is the artifact a chaos violation
/// attaches for every transaction in an affected slot.
pub fn render_causal_trace(spans: &[SpanEvent], trace: TraceId) -> String {
    let mut picked: Vec<&SpanEvent> = spans.iter().filter(|s| s.trace == trace).collect();
    picked.sort_by_key(|s| (s.t_ms, s.phase.order(), s.node));
    let mut out = format!("trace {trace:016x}\n");
    for s in picked {
        let detail = match &s.phase {
            SpanPhase::QueueReject { reason } => format!(" reason={reason}"),
            SpanPhase::FloodRecv { from } | SpanPhase::AdvertSeen { from } => {
                format!(" from=n{from}")
            }
            SpanPhase::DemandSent { to, attempt } => format!(" to=n{to} attempt={attempt}"),
            SpanPhase::DemandTimeout { attempt } => format!(" attempt={attempt}"),
            other => match other.slot() {
                Some(slot) => format!(" slot={slot}"),
                None => String::new(),
            },
        };
        out.push_str(&format!(
            "  t={:>8}ms n{:<3} {:<15}{}\n",
            s.t_ms,
            s.node,
            s.phase.tag(),
            detail
        ));
    }
    out
}

impl Simulation {
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
        let traces: BTreeSet<TraceId> = spans
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
        let applied: BTreeSet<TraceId> = spans
            .iter()
            .filter(|s| matches!(s.phase, SpanPhase::Applied { .. }))
            .map(|s| s.trace)
            .collect();
        let pending: BTreeSet<TraceId> = spans
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, node: u32, t_ms: u64, phase: SpanPhase) -> SpanEvent {
        SpanEvent {
            trace,
            node,
            t_ms,
            phase,
        }
    }

    fn lifecycle(trace: u64) -> Vec<SpanEvent> {
        vec![
            ev(trace, 0, 100, SpanPhase::Submit),
            ev(trace, 0, 100, SpanPhase::QueueAdmit),
            ev(trace, 1, 180, SpanPhase::FloodRecv { from: 0 }),
            ev(trace, 1, 180, SpanPhase::QueueAdmit),
            ev(trace, 2, 240, SpanPhase::FloodRecv { from: 1 }),
            ev(trace, 0, 1000, SpanPhase::Nominated { slot: 2 }),
            ev(trace, 1, 1400, SpanPhase::Externalized { slot: 2 }),
            ev(trace, 1, 1400, SpanPhase::Applied { slot: 2 }),
            ev(trace, 0, 1450, SpanPhase::Externalized { slot: 2 }),
            ev(trace, 0, 1450, SpanPhase::Applied { slot: 2 }),
        ]
    }

    #[test]
    fn rows_take_network_first_per_phase() {
        let rows = build_tx_traces(&lifecycle(7));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.submit_ms, 100);
        assert_eq!(r.admit_ms, Some(100), "origin admit, not the relay's");
        assert_eq!(r.nominated_ms, Some(1000));
        assert_eq!(r.externalized_ms, Some(1400), "first externalize wins");
        assert_eq!(r.applied_ms, Some(1400));
        assert_eq!(r.apply_slot, Some(2));
        assert_eq!(r.flood_hops, 2);
        assert_eq!(r.nodes_reached, 3);
        assert_eq!(r.flood_lag_ms, Some(140), "last arrival at 240");
    }

    #[test]
    fn rootless_traces_are_dropped() {
        // Ring eviction can lose a Submit; the remaining spans cannot
        // anchor a latency decomposition and must not produce a row.
        let spans = vec![
            ev(1, 0, 50, SpanPhase::QueueAdmit),
            ev(1, 1, 90, SpanPhase::Applied { slot: 3 }),
            ev(2, 0, 10, SpanPhase::Submit),
        ];
        let rows = build_tx_traces(&spans);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].trace, 2);
    }

    #[test]
    fn rows_sorted_by_submit_time_then_trace() {
        let spans = vec![
            ev(9, 0, 300, SpanPhase::Submit),
            ev(4, 0, 100, SpanPhase::Submit),
            ev(5, 0, 300, SpanPhase::Submit),
        ];
        let rows = build_tx_traces(&spans);
        let order: Vec<u64> = rows.iter().map(|r| r.trace).collect();
        assert_eq!(order, vec![4, 5, 9]);
    }

    #[test]
    fn phase_stats_decompose_the_pipeline() {
        let mut spans = lifecycle(7);
        spans.extend(lifecycle(8).into_iter().map(|mut e| {
            e.t_ms += 100; // a second, uniformly slower transaction
            e
        }));
        let rows = build_tx_traces(&spans);
        let stats = phase_stats(&rows);
        let find = |name: &str| stats.iter().find(|s| s.phase == name).unwrap().clone();
        assert_eq!(find("submit_to_admit").samples, 2);
        assert_eq!(find("submit_to_admit").p50_ms, 0.0);
        assert_eq!(find("admit_to_nominate").p50_ms, 900.0);
        assert_eq!(find("nominate_to_externalize").p50_ms, 400.0);
        assert_eq!(find("externalize_to_apply").p50_ms, 0.0);
        let total = find("submit_to_apply");
        assert_eq!(total.p50_ms, 1300.0);
        assert_eq!(total.mean_ms, 1300.0);
    }

    #[test]
    fn incomplete_rows_skip_their_missing_phases() {
        let spans = vec![
            ev(1, 0, 100, SpanPhase::Submit),
            ev(1, 0, 100, SpanPhase::QueueAdmit),
            // never nominated (still pending at shutdown)
        ];
        let rows = build_tx_traces(&spans);
        let stats = phase_stats(&rows);
        let nominate = stats.iter().find(|s| s.phase == "admit_to_nominate");
        assert_eq!(nominate.unwrap().samples, 0);
        let cdf = submit_to_apply_cdf(&rows);
        let rendered = cdf.render();
        assert!(rendered.contains("\"ms\":0"), "empty CDF renders zeros");
    }

    #[test]
    fn summary_and_rows_render_deterministically() {
        let spans = lifecycle(7);
        let rows = build_tx_traces(&spans);
        let a = trace_summary_json(&rows, 0).render();
        let b = trace_summary_json(&build_tx_traces(&spans), 0).render();
        assert_eq!(a, b);
        assert_eq!(rows_to_json(&rows).render(), rows_to_json(&rows).render());
        let parsed = Json::parse(&a).expect("valid JSON");
        assert!(parsed.get("phases").is_some());
        assert!(parsed.get("submit_to_apply_cdf").is_some());
    }

    #[test]
    fn causal_render_orders_simultaneous_spans_by_pipeline() {
        let trace = 7;
        // Recorded out of order: the render must restore it.
        let mut spans = lifecycle(trace);
        spans.reverse();
        let render = render_causal_trace(&spans, trace);
        let lines: Vec<&str> = render.lines().collect();
        assert!(lines[0].starts_with("trace"));
        // The externalize/apply pair at t=1400 keeps pipeline order
        // despite the shared timestamp.
        let ext = lines.iter().position(|l| l.contains("externalized"));
        let app = lines.iter().position(|l| l.contains(" applied"));
        assert!(ext.is_some() && ext < app, "{render}");
        assert!(render.contains("from=n0"));
        // A trace nobody recorded renders just its header.
        let empty = render_causal_trace(&lifecycle(trace), 999);
        assert_eq!(empty.lines().count(), 1);
    }
}
