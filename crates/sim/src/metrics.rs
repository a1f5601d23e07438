//! Per-ledger metrics and report assembly (§7.3's measurement points).
//!
//! "Confirming transactions consists of multiple steps, so we recorded the
//! measurements for each of the following: **Nomination**: time from
//! nomination to first prepare; **Balloting**: time from first prepare to
//! confirming a ballot; **Ledger update**: time to apply consensus value;
//! **Transaction count**: confirmed transactions per ledger."

use crate::census::MemoryCensus;
use crate::simulation::Simulation;
use crate::tracing::{build_tx_traces, trace_summary_json, TxTrace};
use crate::watchdog::{HealthAlert, Violation};
use std::collections::BTreeMap;
use stellar_herder::herder::CloseStats;
use stellar_herder::SlotRecord;
use stellar_overlay::TrafficStats;
use stellar_scp::{NodeId, SlotIndex};
use stellar_telemetry::Json;

/// One ledger's latency decomposition, measured at the observer node.
#[derive(Clone, Debug)]
pub struct LedgerMetrics {
    /// The slot (ledger sequence).
    pub slot: SlotIndex,
    /// Nomination → first prepare (ms, simulated network time).
    pub nomination_ms: u64,
    /// First prepare → externalize (ms, simulated network time).
    pub balloting_ms: u64,
    /// Real wall-clock time to apply the transaction set + rehash buckets.
    pub ledger_update_ms: f64,
    /// Transactions confirmed.
    pub tx_count: usize,
    /// Operations confirmed.
    pub op_count: usize,
    /// Nomination-round timeouts experienced.
    pub nomination_timeouts: u64,
    /// Ballot timeouts experienced.
    pub ballot_timeouts: u64,
    /// Simulated time the observer externalized this slot (ms).
    pub externalized_at_ms: u64,
}

/// A whole run's results.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Per-ledger metrics at the observer, in slot order.
    pub ledgers: Vec<LedgerMetrics>,
    /// Logical SCP envelopes originated network-wide.
    pub scp_msgs_originated: u64,
    /// Per-node traffic counters.
    pub traffic: BTreeMap<NodeId, TrafficStats>,
    /// Total simulated duration (ms).
    pub sim_duration_ms: u64,
    /// Transactions generated by the load generator.
    pub txs_generated: u64,
    /// Validators in the run.
    pub n_validators: usize,
    /// Observer-node telemetry snapshot: metrics registry, recovery,
    /// store, trace, health and Horizon sections (traffic is the typed
    /// `traffic` above).
    pub telemetry: Json,
    /// Per-transaction lifecycle rows (cross-node span aggregation), in
    /// `(submit_ms, trace)` order. Empty when tracing is disabled.
    pub tx_traces: Vec<TxTrace>,
    /// Health-watchdog findings, in detection order.
    pub health: Vec<HealthAlert>,
    /// Safety and liveness violations, in detection order (whole run,
    /// like the telemetry snapshot).
    pub violations: Vec<Violation>,
    /// How far apart the validators trigger each slot, over the whole
    /// run (`herder.trigger_skew_ms`).
    pub trigger_skew: TriggerSkew,
    /// Heap bytes per holder over every node when the report was taken.
    pub memory: MemoryCensus,
}

/// The spread between a slot's earliest and latest validator trigger,
/// over the slots of a run: its largest value and its median (ms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TriggerSkew {
    /// The widest spread of any slot.
    pub max_ms: u64,
    /// The median slot's spread.
    pub p50_ms: u64,
}

/// Each slot's earliest and latest validator trigger (ms): two numbers
/// per slot, however many validators trigger it.
#[derive(Clone, Debug, Default)]
pub(crate) struct TriggerTimes(BTreeMap<SlotIndex, (u64, u64)>);

impl TriggerTimes {
    /// A validator triggered `slot` at `now_ms` (non-decreasing).
    pub(crate) fn record(&mut self, slot: SlotIndex, now_ms: u64) {
        self.0.entry(slot).or_insert((now_ms, now_ms)).1 = now_ms;
    }

    /// The spread of every slot triggered so far.
    pub(crate) fn skew(&self) -> TriggerSkew {
        let mut spreads: Vec<f64> = self.0.values().map(|(a, b)| (b - a) as f64).collect();
        spreads.sort_by(f64::total_cmp);
        TriggerSkew {
            max_ms: spreads.last().copied().unwrap_or(0.0) as u64,
            p50_ms: percentile(&spreads, 50.0) as u64,
        }
    }
}

impl SimReport {
    /// Returns a copy with the first `n` (warm-up) ledgers removed —
    /// the first ledger closes before load ramps up and skews variance.
    ///
    /// Whole-run counters that have no per-ledger breakdown
    /// (`scp_msgs_originated`, `txs_generated`) are scaled by the
    /// kept-ledger fraction so per-ledger ratios such as
    /// [`SimReport::scp_msgs_per_ledger`] stay consistent instead of
    /// dividing a full-run numerator by a trimmed denominator. The
    /// telemetry snapshot is left untrimmed (it is a whole-run view).
    pub fn without_warmup(&self, n: usize) -> SimReport {
        let mut out = self.clone();
        if out.ledgers.len() > n && n > 0 {
            let kept = (out.ledgers.len() - n) as f64 / out.ledgers.len() as f64;
            let boundary_ms = out.ledgers[n - 1].externalized_at_ms;
            let first_kept_slot = out.ledgers[n].slot;
            out.ledgers.drain(..n);
            out.scp_msgs_originated = (out.scp_msgs_originated as f64 * kept).round() as u64;
            out.txs_generated = (out.txs_generated as f64 * kept).round() as u64;
            // Trace rows follow the same cut: drop transactions applied
            // in a warm-up ledger, and pending (never-applied) rows
            // submitted before the warm-up boundary. The phase latencies
            // derived from `tx_traces` then describe exactly the kept
            // ledgers, matching the trimmed per-ledger metrics.
            out.tx_traces.retain(|r| match r.apply_slot {
                Some(slot) => slot >= first_kept_slot,
                None => r.submit_ms > boundary_ms,
            });
            // Health alerts raised during warm-up describe dropped
            // ledgers; trim them by detection time.
            out.health.retain(|a| match a {
                HealthAlert::StuckSlot { detected_at_ms, .. }
                | HealthAlert::SlowClose { detected_at_ms, .. } => *detected_at_ms > boundary_ms,
            });
        }
        out
    }

    /// Mean of a per-ledger field.
    fn mean(&self, f: impl Fn(&LedgerMetrics) -> f64) -> f64 {
        if self.ledgers.is_empty() {
            return 0.0;
        }
        self.ledgers.iter().map(&f).sum::<f64>() / self.ledgers.len() as f64
    }

    /// Mean nomination latency (ms).
    pub fn mean_nomination_ms(&self) -> f64 {
        self.mean(|l| l.nomination_ms as f64)
    }

    /// Mean balloting latency (ms).
    pub fn mean_balloting_ms(&self) -> f64 {
        self.mean(|l| l.balloting_ms as f64)
    }

    /// Mean consensus latency (nomination + balloting, the §7.2 figure).
    pub fn mean_consensus_ms(&self) -> f64 {
        self.mean(|l| (l.nomination_ms + l.balloting_ms) as f64)
    }

    /// Mean ledger-update (apply) time, real milliseconds.
    pub fn mean_ledger_update_ms(&self) -> f64 {
        self.mean(|l| l.ledger_update_ms)
    }

    /// Mean transactions per ledger.
    pub fn mean_tx_per_ledger(&self) -> f64 {
        self.mean(|l| l.tx_count as f64)
    }

    /// Standard deviation of transactions per ledger (§7.3 baseline
    /// reports 507 ± 49).
    pub fn stddev_tx_per_ledger(&self) -> f64 {
        let mean = self.mean_tx_per_ledger();
        if self.ledgers.len() < 2 {
            return 0.0;
        }
        let var = self
            .ledgers
            .iter()
            .map(|l| (l.tx_count as f64 - mean).powi(2))
            .sum::<f64>()
            / self.ledgers.len() as f64;
        var.sqrt()
    }

    /// Mean ledger close interval (s), the §7.3 "close rate".
    pub fn mean_close_interval_s(&self) -> f64 {
        match (self.ledgers.first(), self.ledgers.last()) {
            (Some(first), Some(last)) if self.ledgers.len() >= 2 => {
                let span = last.externalized_at_ms - first.externalized_at_ms;
                span as f64 / 1000.0 / (self.ledgers.len() - 1) as f64
            }
            _ => 0.0,
        }
    }

    /// Percentile of a per-ledger metric (`p` in 0–100).
    pub fn percentile_of(&self, p: f64, f: impl Fn(&LedgerMetrics) -> f64) -> f64 {
        let mut xs: Vec<f64> = self.ledgers.iter().map(f).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        percentile(&xs, p)
    }

    /// SCP envelopes originated per ledger (§7.2 reports 6–7).
    pub fn scp_msgs_per_ledger(&self) -> f64 {
        if self.ledgers.is_empty() {
            return 0.0;
        }
        // Normalized per validator: the paper counts one validator's
        // emissions.
        self.scp_msgs_originated as f64
            / self.ledgers.len() as f64
            / self.n_validators.max(1) as f64
    }

    /// Timeout-percentile row of Fig. 8.
    pub fn timeout_percentiles(&self) -> TimeoutTable {
        let mut nom: Vec<f64> = self
            .ledgers
            .iter()
            .map(|l| l.nomination_timeouts as f64)
            .collect();
        let mut bal: Vec<f64> = self
            .ledgers
            .iter()
            .map(|l| l.ballot_timeouts as f64)
            .collect();
        nom.sort_by(f64::total_cmp);
        bal.sort_by(f64::total_cmp);
        TimeoutTable {
            nomination_p75: percentile(&nom, 75.0),
            nomination_p99: percentile(&nom, 99.0),
            nomination_max: nom.last().copied().unwrap_or(0.0),
            ballot_p75: percentile(&bal, 75.0),
            ballot_p99: percentile(&bal, 99.0),
            ballot_max: bal.last().copied().unwrap_or(0.0),
        }
    }
}

/// The Fig. 8 table: timeout counts per ledger at percentiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeoutTable {
    /// 75th-percentile nomination timeouts per ledger.
    pub nomination_p75: f64,
    /// 99th-percentile nomination timeouts per ledger.
    pub nomination_p99: f64,
    /// Maximum nomination timeouts in any ledger.
    pub nomination_max: f64,
    /// 75th-percentile ballot timeouts per ledger.
    pub ballot_p75: f64,
    /// 99th-percentile ballot timeouts per ledger.
    pub ballot_p99: f64,
    /// Maximum ballot timeouts in any ledger.
    pub ballot_max: f64,
}

/// Nearest-rank percentile of pre-sorted data; `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Builds per-ledger metrics from an observer's slot records and close
/// statistics: one row per slot that nominated, balloted and decided.
fn build_ledger_metrics(
    records: &BTreeMap<SlotIndex, SlotRecord>,
    close_stats: &[CloseStats],
) -> Vec<LedgerMetrics> {
    let closes: BTreeMap<u64, &CloseStats> =
        close_stats.iter().map(|c| (c.ledger_seq, c)).collect();
    let mut out = Vec::new();
    for (&slot, r) in records {
        let (Some(n0), Some(p0), Some((e0, _))) =
            (r.nomination_started_ms, r.first_ballot_ms, &r.externalized)
        else {
            continue;
        };
        let close = closes.get(&slot);
        out.push(LedgerMetrics {
            slot,
            nomination_ms: p0.saturating_sub(n0),
            balloting_ms: e0.saturating_sub(p0),
            ledger_update_ms: close.map_or(0.0, |c| c.apply_time.as_secs_f64() * 1000.0),
            tx_count: close.map_or(0, |c| c.tx_count),
            op_count: close.map_or(0, |c| c.op_count),
            nomination_timeouts: r.nomination_timeouts,
            ballot_timeouts: r.ballot_timeouts,
            externalized_at_ms: *e0,
        });
    }
    out
}

impl Simulation {
    /// The run's report, as of now.
    pub(crate) fn report(&self) -> SimReport {
        let observer = self.validator(self.observer);
        let mut ledgers =
            build_ledger_metrics(&observer.herder.slot_records, &observer.herder.close_stats);
        // Drop ledgers beyond the target (stragglers of shutdown).
        ledgers.retain(|l| l.slot <= 1 + self.cfg.target_ledgers);
        let tx_traces = build_tx_traces(&self.span_events());
        let traffic: BTreeMap<NodeId, TrafficStats> = self
            .nodes
            .iter()
            .map(|(id, n)| (*id, n.engine.traffic))
            .collect();
        SimReport {
            telemetry: self.telemetry_snapshot(&ledgers, &tx_traces),
            ledgers,
            scp_msgs_originated: traffic.values().map(|t| t.scp_originated).sum(),
            traffic,
            sim_duration_ms: self.now,
            txs_generated: self.loadgen.as_ref().map_or(0, |l| l.generated),
            n_validators: self.validators().count(),
            tx_traces,
            health: self.watchdog.alerts().to_vec(),
            violations: self.watchdog.violations().to_vec(),
            trigger_skew: self.triggers.skew(),
            memory: self.census(),
        }
    }

    /// The observer's registry snapshot, with the per-ledger latency
    /// decomposition folded in as histograms.
    fn telemetry_snapshot(&self, ledgers: &[LedgerMetrics], tx_traces: &[TxTrace]) -> Json {
        let observer = self.validator(self.observer);
        let mut registry = observer.herder.telemetry.registry.clone();
        for l in ledgers {
            registry.observe("consensus.nomination_ms", l.nomination_ms);
            registry.observe("consensus.balloting_ms", l.balloting_ms);
            registry.observe("consensus.total_ms", l.nomination_ms + l.balloting_ms);
        }
        let store = &observer.herder.store;
        let stats = store.io_stats();
        Json::obj()
            .set("node", u64::from(self.observer.0))
            .set("registry", registry.snapshot())
            .set(
                "recovery",
                Json::obj()
                    .set("restarts", self.restarts)
                    .set("ledgers_replayed", self.recovery_replayed),
            )
            .set(
                "store",
                Json::obj()
                    .set("backend", store.backend_name())
                    .set(
                        "resident_bytes",
                        store.resident_bytes() + observer.herder.buckets.resident_bytes(),
                    )
                    .set("disk_bytes", stats.disk_bytes)
                    .set("cache_hits", stats.cache_hits)
                    .set("cache_misses", stats.cache_misses)
                    .set("cache_evicts", stats.cache_evicts)
                    .set("bytes_written", stats.bytes_written)
                    .set("fsyncs", stats.fsyncs)
                    .set("segments", stats.segments)
                    .set("compactions", stats.compactions),
            )
            .set("trace", trace_summary_json(tx_traces, self.spans_dropped()))
            .set("health", self.watchdog.to_json())
            .set("horizon", self.node(self.observer).horizon_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use stellar_scp::driver::{ScpEvent, TimerKind};
    use stellar_scp::Value;

    /// The slot records a herder keeps of `events`.
    fn records(events: &[(u64, ScpEvent)]) -> BTreeMap<SlotIndex, SlotRecord> {
        let mut records = BTreeMap::<SlotIndex, SlotRecord>::new();
        for (t, event) in events {
            let slot = event.slot().expect("a slot event");
            records.entry(slot).or_default().note(*t, event);
        }
        records
    }

    #[test]
    fn percentile_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 99.0), 99.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ledger_metrics_from_events() {
        let v = Value::new(b"x".to_vec());
        let events = vec![
            (1000, ScpEvent::NominationStarted { slot: 2 }),
            (
                1080,
                ScpEvent::BallotBumped {
                    slot: 2,
                    counter: 1,
                },
            ),
            (
                1090,
                ScpEvent::TimeoutFired {
                    slot: 2,
                    kind: TimerKind::Nomination,
                },
            ),
            (1200, ScpEvent::Externalized { slot: 2, value: v }),
        ];
        let close = vec![CloseStats {
            ledger_seq: 2,
            tx_count: 5,
            op_count: 7,
            apply_time: Duration::from_millis(3),
            close_time: 10,
            failed_tx_count: 0,
            header_hash: stellar_crypto::Hash256::ZERO,
        }];
        let m = build_ledger_metrics(&records(&events), &close);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].nomination_ms, 80);
        assert_eq!(m[0].balloting_ms, 120);
        assert_eq!(m[0].tx_count, 5);
        assert_eq!(m[0].nomination_timeouts, 1);
        assert!((m[0].ledger_update_ms - 3.0).abs() < 0.5);
    }

    #[test]
    fn incomplete_slots_skipped() {
        let events = vec![(1000, ScpEvent::NominationStarted { slot: 2 })];
        assert!(build_ledger_metrics(&records(&events), &[]).is_empty());
    }

    #[test]
    fn report_summaries() {
        let mk = |slot, nom, bal, t_ext, txs| LedgerMetrics {
            slot,
            nomination_ms: nom,
            balloting_ms: bal,
            ledger_update_ms: 1.0,
            tx_count: txs,
            op_count: txs,
            nomination_timeouts: 0,
            ballot_timeouts: 0,
            externalized_at_ms: t_ext,
        };
        let report = SimReport {
            ledgers: vec![mk(2, 80, 100, 6000, 500), mk(3, 90, 110, 11000, 520)],
            scp_msgs_originated: 56,
            traffic: BTreeMap::new(),
            sim_duration_ms: 11000,
            txs_generated: 1020,
            n_validators: 4,
            telemetry: Json::Null,
            tx_traces: Vec::new(),
            health: Vec::new(),
            violations: Vec::new(),
            trigger_skew: TriggerSkew::default(),
            memory: MemoryCensus::default(),
        };
        assert!((report.mean_nomination_ms() - 85.0).abs() < 1e-9);
        assert!((report.mean_balloting_ms() - 105.0).abs() < 1e-9);
        assert!((report.mean_close_interval_s() - 5.0).abs() < 1e-9);
        assert!((report.mean_tx_per_ledger() - 510.0).abs() < 1e-9);
        assert!((report.scp_msgs_per_ledger() - 7.0).abs() < 1e-9);
    }

    fn mk_ledger(slot: SlotIndex, t_ext: u64) -> LedgerMetrics {
        LedgerMetrics {
            slot,
            nomination_ms: 50,
            balloting_ms: 100,
            ledger_update_ms: 1.0,
            tx_count: 10,
            op_count: 10,
            nomination_timeouts: 0,
            ballot_timeouts: 0,
            externalized_at_ms: t_ext,
        }
    }

    /// Regression: `without_warmup` used to trim the ledger list but keep
    /// the whole-run message/tx counters, inflating every per-ledger
    /// ratio by `total / kept`.
    #[test]
    fn without_warmup_scales_whole_run_counters() {
        let report = SimReport {
            ledgers: (2..=11).map(|s| mk_ledger(s, s * 5000)).collect(),
            scp_msgs_originated: 280, // 7 per ledger per validator
            traffic: BTreeMap::new(),
            sim_duration_ms: 55_000,
            txs_generated: 100,
            n_validators: 4,
            telemetry: Json::Null,
            tx_traces: Vec::new(),
            health: Vec::new(),
            violations: Vec::new(),
            trigger_skew: TriggerSkew::default(),
            memory: MemoryCensus::default(),
        };
        let before = report.scp_msgs_per_ledger();
        let trimmed = report.without_warmup(2);
        assert_eq!(trimmed.ledgers.len(), 8);
        assert_eq!(trimmed.scp_msgs_originated, 224);
        assert_eq!(trimmed.txs_generated, 80);
        assert!(
            (trimmed.scp_msgs_per_ledger() - before).abs() < 1e-9,
            "per-ledger ratio must survive trimming: {} vs {}",
            trimmed.scp_msgs_per_ledger(),
            before
        );
        // n = 0 and n >= len are no-ops.
        assert_eq!(report.without_warmup(0).scp_msgs_originated, 280);
        assert_eq!(report.without_warmup(10).ledgers.len(), 10);
        assert_eq!(report.without_warmup(10).scp_msgs_originated, 280);
    }

    fn mk_row(trace: u64, submit_ms: u64, apply_slot: Option<u64>) -> TxTrace {
        TxTrace {
            trace,
            submit_ms,
            admit_ms: Some(submit_ms),
            nominated_ms: apply_slot.map(|s| s * 5000 - 1000),
            externalized_ms: apply_slot.map(|s| s * 5000),
            applied_ms: apply_slot.map(|s| s * 5000),
            apply_slot,
            flood_hops: 3,
            demand_timeouts: 0,
            nodes_reached: 4,
            flood_lag_ms: Some(200),
        }
    }

    /// Regression for the trace/health counters: the warm-up cut must
    /// trim per-transaction rows and alerts along with the ledgers they
    /// describe, so per-ledger ratios derived from them stay consistent.
    /// Run-level snapshots (telemetry's recovery/store sections) are
    /// whole-run views and must pass through untouched.
    #[test]
    fn without_warmup_trims_trace_rows_and_health_with_the_cut() {
        let ledgers: Vec<LedgerMetrics> = (2..=11).map(|s| mk_ledger(s, s * 5000)).collect();
        // One applied transaction per ledger, plus two still-pending
        // rows straddling the warm-up boundary.
        let mut tx_traces: Vec<TxTrace> = (2..=11u64)
            .map(|s| mk_row(s, s * 5000 - 2000, Some(s)))
            .collect();
        tx_traces.push(mk_row(100, 10_000, None)); // pending, pre-boundary
        tx_traces.push(mk_row(101, 20_000, None)); // pending, post-boundary
        let health = vec![
            HealthAlert::StuckSlot {
                node: NodeId(1),
                seq: 2,
                stuck_for_ms: 15_000,
                detected_at_ms: 10_000, // warm-up: trimmed
            },
            HealthAlert::SlowClose {
                node: NodeId(2),
                seq: 7,
                interval_ms: 9_000,
                detected_at_ms: 35_000, // kept
            },
        ];
        let telemetry = Json::obj().set("recovery", Json::obj().set("restarts", 3u64));
        let report = SimReport {
            ledgers,
            scp_msgs_originated: 280,
            traffic: BTreeMap::new(),
            sim_duration_ms: 55_000,
            txs_generated: 100,
            n_validators: 4,
            telemetry,
            tx_traces,
            health,
            violations: Vec::new(),
            trigger_skew: TriggerSkew::default(),
            memory: MemoryCensus::default(),
        };
        let rows_per_ledger = report.tx_traces.len() as f64 / report.ledgers.len() as f64;
        // Cut the first two ledgers (slots 2 and 3; boundary at 15 s).
        let trimmed = report.without_warmup(2);
        assert_eq!(trimmed.ledgers.len(), 8);
        let applied: Vec<u64> = trimmed
            .tx_traces
            .iter()
            .filter_map(|r| r.apply_slot)
            .collect();
        assert_eq!(applied, (4..=11).collect::<Vec<u64>>());
        // Pending rows follow the time boundary.
        let pending: Vec<u64> = trimmed
            .tx_traces
            .iter()
            .filter(|r| r.apply_slot.is_none())
            .map(|r| r.trace)
            .collect();
        assert_eq!(pending, vec![101]);
        // Per-ledger row density survives the cut (applied rows only —
        // the two pending rows are shutdown stragglers either way).
        let trimmed_density = applied.len() as f64 / trimmed.ledgers.len() as f64;
        assert!(
            (trimmed_density - 1.0).abs() < 1e-9 && (rows_per_ledger - 1.2).abs() < 1e-9,
            "applied-rows-per-ledger must stay 1.0: {trimmed_density}"
        );
        // Warm-up alerts go; later alerts stay.
        assert_eq!(trimmed.health.len(), 1);
        assert!(matches!(trimmed.health[0], HealthAlert::SlowClose { .. }));
        // Run-level snapshots are untouched by the cut.
        assert_eq!(trimmed.telemetry, report.telemetry);
    }

    #[test]
    fn out_of_order_timestamps_saturate_to_zero() {
        // A resync replay can surface a BallotBumped logged *before* the
        // local NominationStarted; phase durations must clamp, not wrap.
        let v = Value::new(b"x".to_vec());
        let events = vec![
            (
                900,
                ScpEvent::BallotBumped {
                    slot: 2,
                    counter: 1,
                },
            ),
            (1000, ScpEvent::NominationStarted { slot: 2 }),
            (1200, ScpEvent::Externalized { slot: 2, value: v }),
        ];
        let m = build_ledger_metrics(&records(&events), &[]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].nomination_ms, 0, "negative span saturates");
        assert_eq!(m[0].balloting_ms, 300);
    }

    #[test]
    fn duplicate_externalized_keeps_first() {
        let v = Value::new(b"x".to_vec());
        let events = vec![
            (1000, ScpEvent::NominationStarted { slot: 2 }),
            (
                1050,
                ScpEvent::BallotBumped {
                    slot: 2,
                    counter: 1,
                },
            ),
            (
                1200,
                ScpEvent::Externalized {
                    slot: 2,
                    value: v.clone(),
                },
            ),
            // A replayed copy (e.g. from a reconnect state exchange).
            (4000, ScpEvent::Externalized { slot: 2, value: v }),
        ];
        let m = build_ledger_metrics(&records(&events), &[]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].externalized_at_ms, 1200, "first externalize wins");
        assert_eq!(m[0].balloting_ms, 150);
    }

    #[test]
    fn missing_close_stats_defaults_to_zero_apply() {
        let v = Value::new(b"x".to_vec());
        let events = vec![
            (1000, ScpEvent::NominationStarted { slot: 2 }),
            (
                1050,
                ScpEvent::BallotBumped {
                    slot: 2,
                    counter: 1,
                },
            ),
            (1200, ScpEvent::Externalized { slot: 2, value: v }),
        ];
        let m = build_ledger_metrics(&records(&events), &[]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].tx_count, 0);
        assert_eq!(m[0].op_count, 0);
        assert_eq!(m[0].ledger_update_ms, 0.0);
    }

    #[test]
    fn timeout_after_externalize_still_counted() {
        // A straggler timer that fires after the decision (production SCP
        // cancels these, but delivery races make it possible) must not
        // panic or corrupt the slot's row.
        let v = Value::new(b"x".to_vec());
        let events = vec![
            (1000, ScpEvent::NominationStarted { slot: 2 }),
            (
                1050,
                ScpEvent::BallotBumped {
                    slot: 2,
                    counter: 1,
                },
            ),
            (1200, ScpEvent::Externalized { slot: 2, value: v }),
            (
                1300,
                ScpEvent::TimeoutFired {
                    slot: 2,
                    kind: TimerKind::Ballot,
                },
            ),
        ];
        let m = build_ledger_metrics(&records(&events), &[]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].ballot_timeouts, 1);
        assert_eq!(m[0].externalized_at_ms, 1200);
    }
}
