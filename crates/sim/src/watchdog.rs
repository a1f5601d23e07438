//! Health watchdog: liveness gauges over the running network.
//!
//! The invariant monitor (crates/chaos) proves *safety* after the fact;
//! the watchdog watches *health* while the run is in flight, from the
//! same per-node observations a production operator dashboard would
//! poll: each node's current ledger sequence against the simulated
//! clock. It raises typed [`HealthAlert`]s for
//!
//! * **stuck slots** — a node whose ledger sequence has not advanced
//!   for longer than the bound (crash, partition, or lost liveness);
//! * **slow closes** — a close that took far longer than the 5-second
//!   pacing target (the §7.3 close-rate regression signal);
//!
//! and keeps a **ledger-lag** gauge (how far each node trails the most
//! advanced node). Alerts are deterministic: they depend only on
//! simulated time and observed sequences, so a chaos replay reproduces
//! them byte-for-byte alongside the violations they contextualize.

use std::collections::{BTreeMap, BTreeSet};
use stellar_scp::NodeId;
use stellar_telemetry::Json;

/// Watchdog thresholds.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// A node whose ledger has not advanced for this long is stuck.
    /// Default: three 5-second ledger intervals.
    pub stuck_slot_ms: u64,
    /// A close interval longer than this raises a slow-close alert.
    /// Default: 8000 ms (the 5-second pacing plus generous slack).
    pub slow_close_ms: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stuck_slot_ms: 15_000,
            slow_close_ms: 8_000,
        }
    }
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

/// The watchdog. Feed it `(node, ledger_seq)` snapshots at a regular
/// simulated cadence via [`HealthWatchdog::observe`].
#[derive(Clone, Debug, Default)]
pub struct HealthWatchdog {
    cfg: WatchdogConfig,
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
}

impl HealthWatchdog {
    /// A watchdog with the given thresholds.
    pub fn new(cfg: WatchdogConfig) -> HealthWatchdog {
        HealthWatchdog {
            cfg,
            ..HealthWatchdog::default()
        }
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
                (stalled_for > self.cfg.slow_close_ms).then_some(HealthAlert::SlowClose {
                    node,
                    seq,
                    interval_ms: stalled_for,
                    detected_at_ms: now_ms,
                })
            } else {
                let seq = p.seq;
                let stuck = stalled_for >= self.cfg.stuck_slot_ms;
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
        let lag = self
            .ledger_lag()
            .into_iter()
            .fold(Json::obj(), |j, (node, lag)| {
                j.set(&format!("n{}", node.0), lag)
            });
        Json::obj()
            .set(
                "alerts",
                Json::Arr(self.alerts.iter().map(HealthAlert::to_json).collect()),
            )
            .set(
                "expected_alerts",
                Json::Arr(
                    self.expected_alerts
                        .iter()
                        .map(HealthAlert::to_json)
                        .collect(),
                ),
            )
            .set("ledger_lag", lag)
            .set("max_ledger_lag", self.max_ledger_lag())
    }

    /// The worst current lag (0 when every node is at the tip).
    pub fn max_ledger_lag(&self) -> u64 {
        self.ledger_lag().into_values().max().unwrap_or(0)
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
        let mut w = HealthWatchdog::new(WatchdogConfig::default());
        for step in 0..5u64 {
            let now = 1000 + step * 5000;
            w.observe(now, &seqs(&[(0, 2 + step), (1, 2 + step)]));
        }
        assert!(w.alerts().is_empty());
        assert_eq!(w.max_ledger_lag(), 0);
    }

    #[test]
    fn stuck_slot_alerts_once_per_slot() {
        let mut w = HealthWatchdog::new(WatchdogConfig::default());
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
        let mut w = HealthWatchdog::new(WatchdogConfig::default());
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
        let mut w = HealthWatchdog::new(WatchdogConfig::default());
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
        let mut w = HealthWatchdog::new(WatchdogConfig::default());
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
        let mut w = HealthWatchdog::new(WatchdogConfig {
            stuck_slot_ms: 10,
            slow_close_ms: 5,
        });
        w.observe(0, &seqs(&[(3, 1)]));
        w.observe(20, &seqs(&[(3, 1)]));
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
}
