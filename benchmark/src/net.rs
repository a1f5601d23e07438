//! The consensus-network workloads (`net_scp`, `net_load`): a simulated
//! network under an open loop in *simulated* time. Clients submit
//! Poisson arrivals on a schedule fixed before the run
//! (`Simulation::submit_transaction_at`, the simulator's own load
//! generator off), and each transaction is timed from the moment it was
//! due to the moment the observer closed the ledger holding it. Arrivals
//! are scheduled events, so the generator is never late (lateness 0 by
//! construction). Simulated latencies move only with protocol behaviour;
//! wall-clock cost is what all nodes' CPU work adds up to per ledger.

use crate::gen::{self, PayGen};
use crate::stats;
use crate::{Outcome, RunArgs};
use std::collections::BTreeMap;
use std::time::Instant;
use stellar_crypto::Hash256;
use stellar_overlay::{FloodMode, TrafficStats};
use stellar_scp::NodeId;
use stellar_sim::scenario::Scenario;
use stellar_sim::tracing::phase_stats;
use stellar_sim::{SimConfig, SimReport, Simulation};
use stellar_telemetry::Json;

/// The shape of one network workload. Everything not listed is
/// `SimConfig::default()`.
#[derive(Clone, Debug)]
pub struct NetShape {
    /// Topology, quorum sets and link latencies.
    pub scenario: Scenario,
    /// How transactions and tx sets cross the overlay.
    pub flood_mode: FloodMode,
    /// Client transactions per simulated second.
    pub tx_rate: f64,
    /// Genesis accounts; `None` keeps the simulator's default.
    pub accounts: Option<u64>,
    /// Crash one non-observer validator a third of the way in and restart
    /// it half way in.
    pub fault: bool,
    /// Simulated ledgers per second of `--seconds`, chosen once so the
    /// untraced run takes about `--seconds` on the 2-core reference box.
    pub ledgers_per_second: f64,
}

impl NetShape {
    /// The shape of the named workload, if it is a network workload.
    pub fn named(name: &str) -> Option<NetShape> {
        match name {
            "net_scp" => Some(NetShape {
                scenario: Scenario::ControlledMesh { n_validators: 32 },
                flood_mode: FloodMode::Push,
                tx_rate: 2.0,
                accounts: None,
                fault: false,
                ledgers_per_second: 2.7,
            }),
            "net_load" => Some(NetShape {
                scenario: Scenario::PublicNetwork {
                    n_orgs: 4,
                    validators_per_org: 3,
                    n_watchers: 24,
                },
                flood_mode: FloodMode::Pull,
                tx_rate: 100.0,
                accounts: Some(10_000),
                fault: true,
                ledgers_per_second: 1.5,
            }),
            _ => None,
        }
    }

    fn ledgers(&self, args: &RunArgs) -> u64 {
        ((args.seconds * self.ledgers_per_second).round() as u64 / args.shrink).max(4)
    }

    fn config(&self, seed: u64, ledgers: u64, traced: bool, shrink: u64) -> SimConfig {
        let defaults = SimConfig::default();
        SimConfig {
            scenario: self.scenario.clone(),
            n_accounts: self.accounts.unwrap_or(defaults.n_accounts) / shrink,
            // The benchmark schedules every arrival itself.
            tx_rate: 0.0,
            target_ledgers: ledgers,
            seed,
            flood_mode: self.flood_mode,
            trace_sample_every: u64::from(traced),
            ..defaults
        }
    }
}

/// The scheduled crash and restart of one validator, in simulated ms.
#[derive(Clone, Copy, Debug)]
struct Fault {
    victim: NodeId,
    crash_ms: u64,
    restart_ms: u64,
}

/// How far around the downtime clients steer clear of the victim: an
/// advert interval plus a demand round trip, so nothing it alone holds is
/// still in flight when it dies.
const FAILOVER_MARGIN_MS: u64 = 1000;

/// What one simulated run measured.
struct NetResult {
    report: SimReport,
    /// Header hash per ledger sequence, per validator.
    headers: BTreeMap<NodeId, Vec<(u64, Hash256)>>,
    /// Wall ms between consecutive observer closes.
    ledger_wall_ms: Vec<f64>,
    /// Simulated ms, due → observer closed the ledger holding it.
    submit_to_apply_ms: Vec<f64>,
    /// Wall seconds of the whole event loop.
    wall_s: f64,
    /// Wall seconds spent inside `Simulation::step` (traced runs only).
    step_s: f64,
    /// Events dispatched.
    steps: u64,
    /// Transactions applied at the observer within the target ledgers.
    applied: u64,
    /// Transactions scheduled.
    attempted: u64,
    /// Scheduled transactions never applied, or applied and failed.
    failed: u64,
    /// Simulated ms from restart to the victim closing the tip ledger.
    rejoin_ms: Option<u64>,
    /// Unexpected watchdog alerts.
    alerts: usize,
    /// Observer ledgers closed.
    ledgers_closed: u64,
    /// Observer apply wall time per ledger, µs.
    apply_us: Vec<f64>,
}

/// Builds the network (timing its construction), schedules the arrivals
/// and runs to the target ledger.
fn simulate(shape: &NetShape, cfg: &SimConfig, setup_repeats: usize) -> (f64, NetResult) {
    let (seed, ledgers, interval) = (cfg.seed, cfg.target_ledgers, cfg.ledger_interval_ms);
    let traced = cfg.trace_sample_every != 0;
    let (setup_s, mut sim) = crate::timed_setup(setup_repeats, || Simulation::new(cfg.clone()));

    let ids = sim.validator_ids();
    let observer = sim.observer_id();
    let fault = shape.fault.then(|| Fault {
        victim: *ids
            .iter()
            .filter(|id| **id != observer)
            .nth(4)
            .expect("a sixth validator"),
        crash_ms: 1000 + (ledgers / 3) * interval + interval / 2,
        restart_ms: 1000 + (ledgers / 2) * interval + interval / 2,
    });

    // Every arrival leaves two ledger intervals before the target, so one
    // that is not applied by then has failed.
    let last_due = 1000 + ledgers.saturating_sub(2) * interval;
    let arrivals = gen::poisson_arrivals(seed, shape.tx_rate, 1000, last_due);
    let mut payer = PayGen::uniform(seed, cfg.n_accounts);
    let mut due_of: BTreeMap<Hash256, u64> = BTreeMap::new();
    for due in arrivals {
        // The simulator routes a submission by transaction hash. While
        // the victim is down (or about to be) its clients go elsewhere.
        let avoid = fault.filter(|f| {
            due + FAILOVER_MARGIN_MS >= f.crash_ms && due <= f.restart_ms + FAILOVER_MARGIN_MS
        });
        let env = payer.payment_where(|env| match avoid {
            Some(f) => ids[(env.hash().prefix_u64() % ids.len() as u64) as usize] != f.victim,
            None => true,
        });
        due_of.insert(env.hash(), due);
        sim.submit_transaction_at(due, env);
    }
    if let Some(f) = fault {
        sim.expect_downtime(f.victim, f.crash_ms, f.restart_ms + 2 * interval);
    }

    let target_seq = 1 + ledgers;
    let mut ledger_wall_ms = Vec::new();
    let mut observer_seq = sim.ledger_seq_of(observer);
    let mut steps = 0u64;
    let mut step_s = 0.0;
    let mut crashed = false;
    let mut restarted_at: Option<(u64, u64)> = None;
    let mut rejoin_ms = None;
    let started = Instant::now();
    let mut last_close = started;
    loop {
        if let Some(f) = fault {
            let next = sim.peek_time().unwrap_or(u64::MAX);
            if !crashed && next >= f.crash_ms {
                sim.crash(f.victim);
                crashed = true;
            } else if crashed && restarted_at.is_none() && next >= f.restart_ms {
                sim.restart(f.victim);
                restarted_at = Some((sim.now_ms(), sim.ledger_seq_of(f.victim)));
            }
        }
        let alive = if traced {
            let t = Instant::now();
            let alive = sim.step();
            step_s += t.elapsed().as_secs_f64();
            alive
        } else {
            sim.step()
        };
        if !alive {
            break;
        }
        steps += 1;
        let seq = sim.ledger_seq_of(observer);
        if seq > observer_seq {
            observer_seq = seq;
            let now = Instant::now();
            ledger_wall_ms.push((now - last_close).as_secs_f64() * 1e3);
            last_close = now;
        }
        if let (Some(f), Some((at_ms, at_seq)), None) = (fault, restarted_at, rejoin_ms) {
            let tip = ids.iter().map(|id| sim.ledger_seq_of(*id)).max();
            let seq = sim.ledger_seq_of(f.victim);
            if seq > at_seq && Some(seq) == tip {
                rejoin_ms = Some(sim.now_ms() - at_ms);
            }
        }
        let done = ids
            .iter()
            .all(|id| sim.is_crashed(*id) || sim.ledger_seq_of(*id) >= target_seq);
        if done {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // Already at the target: this takes one more event and reports.
    let report = sim.run();

    let headers: BTreeMap<NodeId, Vec<(u64, Hash256)>> =
        ids.iter().map(|id| (*id, sim.header_hashes(*id))).collect();
    let closed_at: BTreeMap<u64, u64> = report
        .ledgers
        .iter()
        .map(|l| (l.slot, l.externalized_at_ms))
        .collect();
    let herder = &sim.validator(observer).herder;
    let mut submit_to_apply_ms = Vec::new();
    let mut applied = 0u64;
    let mut failed_in_ledger = 0u64;
    for stats in &herder.close_stats {
        let (Some(set), Some(at)) = (
            herder.archive.tx_set(stats.ledger_seq),
            closed_at.get(&stats.ledger_seq),
        ) else {
            continue;
        };
        failed_in_ledger += stats.failed_tx_count as u64;
        for tx in &set.txs {
            if let Some(due) = due_of.get(&tx.hash()) {
                applied += 1;
                submit_to_apply_ms.push(at.saturating_sub(*due) as f64);
            }
        }
    }
    let attempted = due_of.len() as u64;
    let result = NetResult {
        headers,
        ledger_wall_ms,
        submit_to_apply_ms,
        wall_s,
        step_s,
        steps,
        applied,
        attempted,
        failed: attempted - applied.min(attempted) + failed_in_ledger,
        rejoin_ms,
        alerts: sim.watchdog().alerts().len(),
        ledgers_closed: observer_seq.saturating_sub(1),
        apply_us: herder
            .close_stats
            .iter()
            .map(|c| c.apply_time.as_secs_f64() * 1e6)
            .collect(),
        report,
    };
    (setup_s, result)
}

/// Every validator must have the same header at every sequence it closed.
fn headers_agree(headers: &BTreeMap<NodeId, Vec<(u64, Hash256)>>) -> bool {
    let mut by_seq: BTreeMap<u64, Hash256> = BTreeMap::new();
    headers
        .values()
        .flatten()
        .all(|(seq, hash)| *by_seq.entry(*seq).or_insert(*hash) == *hash)
}

fn network_traffic(report: &SimReport) -> TrafficStats {
    let mut total = TrafficStats::default();
    for t in report.traffic.values() {
        total.merge(t);
    }
    total
}

/// Runs one network workload and fills in its metrics.
pub fn run(shape: &NetShape, args: &RunArgs, out: &mut Outcome) {
    let ledgers = shape.ledgers(args);
    let config = |traced| shape.config(args.seed, ledgers, traced, args.shrink);
    out.note("ledgers", ledgers);
    out.note("tx_rate", shape.tx_rate);
    out.note("generator_lateness_ms", 0u64);
    out.note("backend", config(false).store_backend.name());

    let (setup_s, plain) = simulate(shape, &config(false), args.setup_repeats);
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    if !headers_agree(&plain.headers) {
        out.fail("validators disagree on a ledger header");
    }
    if plain.ledgers_closed < ledgers {
        out.fail("the observer did not reach the target ledger");
    }
    if plain.alerts > 0 {
        out.fail("the health watchdog raised an alert outside the scheduled downtime");
    }
    if shape.fault && plain.rejoin_ms.is_none() {
        out.fail("the restarted validator never closed the tip ledger");
    }
    let closed = plain.ledgers_closed as f64;
    out.set("tx_per_s", stats::ratio(plain.applied as f64, plain.wall_s));
    out.set("ledgers_per_s", stats::ratio(closed, plain.wall_s));
    out.set(
        "close_ms_p50",
        stats::percentile(&plain.ledger_wall_ms, 50.0),
    );
    out.set(
        "close_ms_p95",
        stats::percentile(&plain.ledger_wall_ms, 95.0),
    );
    out.set(
        "submit_to_apply_ms_p50",
        stats::percentile(&plain.submit_to_apply_ms, 50.0),
    );
    out.set(
        "submit_to_apply_ms_p99",
        stats::percentile(&plain.submit_to_apply_ms, 99.0),
    );
    out.set("setup_s", setup_s);
    out.keep_samples("close_ms", &plain.ledger_wall_ms);
    out.note_samples("submit_to_apply_ms", plain.submit_to_apply_ms.len());

    if !args.traced {
        return;
    }
    let (_, traced) = simulate(shape, &config(true), 1);
    if traced.headers != plain.headers || traced.submit_to_apply_ms != plain.submit_to_apply_ms {
        out.fail("lifecycle tracing changed what the network externalized, or when");
    }
    let r = &traced.report;
    out.set(
        "scp.nomination_ms_p50",
        r.percentile_of(50.0, |l| l.nomination_ms as f64),
    );
    out.set(
        "scp.balloting_ms_p50",
        r.percentile_of(50.0, |l| l.balloting_ms as f64),
    );
    out.set(
        "scp.nomination_timeouts",
        r.ledgers.iter().map(|l| l.nomination_timeouts).sum::<u64>() as f64,
    );
    out.set(
        "scp.ballot_timeouts",
        r.ledgers.iter().map(|l| l.ballot_timeouts).sum::<u64>() as f64,
    );
    let closed = traced.ledgers_closed as f64;
    out.set(
        "scp.envelopes_per_ledger",
        stats::ratio(r.scp_msgs_originated as f64, closed),
    );
    let net = network_traffic(r);
    out.set(
        "overlay.msgs_per_ledger",
        stats::ratio(net.msgs_out as f64, closed),
    );
    out.set(
        "overlay.bytes_per_ledger",
        stats::ratio(net.bytes_out as f64, closed),
    );
    out.set(
        "overlay.bytes_per_tx",
        stats::ratio(net.bytes_out as f64, traced.applied as f64),
    );
    out.set("overlay.dup_suppressed_ratio", net.dup_ratio());
    out.set("overlay.pull.fulfilled", net.pull_fulfilled as f64);
    out.set("overlay.pull.timeouts", net.pull_timeouts as f64);
    let flood_lag: Vec<f64> = r
        .tx_traces
        .iter()
        .filter_map(|t| t.flood_lag_ms.map(|ms| ms as f64))
        .collect();
    out.set(
        "overlay.flood_lag_ms_p50",
        stats::percentile(&flood_lag, 50.0),
    );
    out.set(
        "overlay.flood_lag_ms_p99",
        stats::percentile(&flood_lag, 99.0),
    );
    out.note_samples("overlay.flood_lag_ms", flood_lag.len());
    for phase in phase_stats(&r.tx_traces) {
        match phase.phase {
            "admit_to_nominate" => out.set("herder.admit_to_nominate_ms_p50", phase.p50_ms),
            "nominate_to_externalize" => {
                out.set("herder.nominate_to_externalize_ms_p50", phase.p50_ms)
            }
            _ => {}
        }
    }
    out.set(
        "herder.apply_us_p50",
        stats::percentile(&traced.apply_us, 50.0),
    );
    out.set(
        "sim.ledger_wall_ms_p50",
        stats::percentile(&traced.ledger_wall_ms, 50.0),
    );
    out.set(
        "sim.ledger_wall_ms_p85",
        stats::percentile(&traced.ledger_wall_ms, 85.0),
    );
    out.set(
        "sim.events_per_ledger",
        stats::ratio(traced.steps as f64, closed),
    );
    out.set(
        "sim.step_us_mean",
        stats::ratio(traced.step_s * 1e6, traced.steps as f64),
    );
    out.set("sim.rejoin_ms", traced.rejoin_ms.unwrap_or(0) as f64);
    // The span file of a network run: the observer's per-ledger rows plus
    // the simulator's own per-phase summary of the transaction spans.
    out.trace = Some(
        Json::obj()
            .set(
                "ledgers",
                Json::Arr(
                    r.ledgers
                        .iter()
                        .zip(&traced.ledger_wall_ms)
                        .map(|(l, wall_ms)| {
                            Json::obj()
                                .set("slot", l.slot)
                                .set("nomination_ms", l.nomination_ms)
                                .set("balloting_ms", l.balloting_ms)
                                .set("externalized_at_ms", l.externalized_at_ms)
                                .set("tx_count", l.tx_count)
                                .set("wall_ms", *wall_ms)
                        })
                        .collect(),
                ),
            )
            .set(
                "tx_phases",
                r.telemetry.get("trace").cloned().unwrap_or(Json::Null),
            ),
    );
    out.set(
        "bench.stage_sum_ratio",
        stats::ratio(traced.step_s, traced.wall_s),
    );
    out.set(
        "bench.trace_overhead_pct",
        100.0
            * (1.0
                - stats::ratio(
                    stats::ratio(closed, traced.wall_s),
                    stats::ratio(plain.ledgers_closed as f64, plain.wall_s),
                )),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_agreement_spots_a_fork() {
        let h = |b: u8| Hash256([b; 32]);
        let mut headers = BTreeMap::new();
        headers.insert(NodeId(0), vec![(2, h(1)), (3, h(2))]);
        headers.insert(NodeId(1), vec![(3, h(2))]);
        assert!(headers_agree(&headers));
        headers.insert(NodeId(2), vec![(3, h(9))]);
        assert!(!headers_agree(&headers));
    }

    #[test]
    fn small_mesh_applies_every_scheduled_payment() {
        let shape = NetShape {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            ..NetShape::named("net_scp").expect("net workload")
        };
        let (_, a) = simulate(&shape, &shape.config(3, 8, false, 1), 1);
        let (_, b) = simulate(&shape, &shape.config(3, 8, true, 1), 1);
        assert!(a.attempted > 0);
        assert_eq!(a.failed, 0);
        assert_eq!(a.applied, a.attempted);
        assert!(a.ledgers_closed >= 8);
        assert!(headers_agree(&a.headers));
        // Same seed, tracing on: same ledgers, same simulated latencies.
        assert_eq!(a.headers, b.headers);
        assert_eq!(a.submit_to_apply_ms, b.submit_to_apply_ms);
        assert!(!b.report.tx_traces.is_empty());
    }

    #[test]
    fn crashed_validator_rejoins_and_nothing_is_lost() {
        let shape = NetShape {
            tx_rate: 10.0,
            accounts: Some(500),
            ..NetShape::named("net_load").expect("net workload")
        };
        let (_, r) = simulate(&shape, &shape.config(5, 12, false, 1), 1);
        assert_eq!(r.failed, 0, "{} of {} applied", r.applied, r.attempted);
        assert!(r.rejoin_ms.is_some());
        assert_eq!(r.alerts, 0);
        assert!(headers_agree(&r.headers));
    }
}
