//! Same-program golden digests.
//!
//! A refactor of the simulator or the overlay must leave the program it
//! runs untouched: the same events in the same order, the same ledgers,
//! the same bytes on the same links. Each configuration below is reduced
//! to one SHA-256 over the event trace, every validator's header-hash
//! chain and the network's summed traffic counters, and pinned. A change
//! that reorders one RNG draw, one queue push or one relayed message
//! moves a digest; one that is meant to says so and re-records it.
//!
//! Re-recorded when SCP relays stopped pushing: only an envelope's
//! originator pushes it, and a relay advertises its hash instead, which
//! changes every trace and traffic counter by design. The push mesh's
//! header chains did not change; in the two pull runs some transactions
//! land in another ledger, so their chains changed too.
//!
//! Re-recorded again when every originator started pushing and a rebooted
//! validator started re-triggering on its pacing grid, and once more when
//! a crashed node or a puppet started refusing client submissions, and
//! once more when a down node stopped re-arming its ledger trigger; each
//! moved pin names its latest reason. The push mesh has no crash and no
//! puppet, so it did not move.
//!
//! All four re-recorded when a transaction set started crossing the
//! network only when SCP names it: a proposer floods its set once its own
//! vote names it, a node fetches a named set it lacks, and the reconnect
//! exchange re-floods envelopes only.

use stellar::crypto::hex;
use stellar::crypto::sha256::Sha256;
use stellar::horizon::AdmissionConfig;
use stellar::overlay::{FloodMode, LinkFault, TrafficStats};
use stellar::scp::NodeId;
use stellar::sim::events::TraceEntry;
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, SimReport, Simulation};
use stellar::store::BackendKind;
use stellar::telemetry::Json;

fn put(h: &mut Sha256, n: u64) {
    h.update(&n.to_be_bytes());
}

fn digest(sim: &Simulation, report: &SimReport) -> String {
    let mut h = Sha256::new();
    for entry in sim.trace() {
        match entry {
            TraceEntry::Deliver {
                time,
                from,
                to,
                msg_id,
            } => {
                h.update(b"D");
                put(&mut h, *time);
                put(&mut h, u64::from(from.0));
                put(&mut h, u64::from(to.0));
                h.update(&msg_id.0);
            }
            TraceEntry::Timer { time, node, slot } => {
                h.update(b"T");
                put(&mut h, *time);
                put(&mut h, u64::from(node.0));
                put(&mut h, *slot);
            }
            TraceEntry::Trigger { time, node } => {
                h.update(b"G");
                put(&mut h, *time);
                put(&mut h, u64::from(node.0));
            }
            TraceEntry::Submit { time, to, tx_hash } => {
                h.update(b"S");
                put(&mut h, *time);
                put(&mut h, u64::from(to.0));
                h.update(&tx_hash.0);
            }
            TraceEntry::Close {
                time,
                node,
                seq,
                header_hash,
            } => {
                h.update(b"C");
                put(&mut h, *time);
                put(&mut h, u64::from(node.0));
                put(&mut h, *seq);
                h.update(&header_hash.0);
            }
        }
    }
    for id in sim.validator_ids() {
        h.update(b"V");
        put(&mut h, u64::from(id.0));
        for (seq, hash) in sim.header_hashes(id) {
            put(&mut h, seq);
            h.update(&hash.0);
        }
    }
    let mut net = TrafficStats::default();
    for t in report.traffic.values() {
        net.merge(t);
    }
    h.update(b"N");
    for n in [
        net.msgs_in,
        net.msgs_out,
        net.bytes_in,
        net.bytes_out,
        net.scp_originated,
        net.dup_suppressed,
        net.pull_fulfilled,
        net.pull_timeouts,
    ] {
        put(&mut h, n);
    }
    for n in net.in_by_kind.iter().chain(&net.out_by_kind) {
        put(&mut h, *n);
    }
    hex::encode(&h.finish().0)
}

/// Steps until simulated time reaches `until_ms` (or the run ends).
fn step_until(sim: &mut Simulation, until_ms: u64) {
    while sim.now_ms() < until_ms && sim.step() {}
}

#[test]
fn push_mesh_under_load_is_pinned() {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 8 },
        n_accounts: 200,
        tx_rate: 20.0,
        target_ledgers: 4,
        seed: 24,
        store_backend: BackendKind::Mem,
        ..SimConfig::default()
    });
    sim.enable_trace();
    let report = sim.run();
    assert!(report.ledgers.len() >= 4);
    // Moved by design: a set crosses the network only when SCP names it.
    assert_eq!(
        digest(&sim, &report),
        "5551122a4bea08744f8074eddaa489b6a935372b6ca7a28c9fe17493271572de"
    );
}

#[test]
fn pull_public_network_with_crash_and_restart_is_pinned() {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::PublicNetwork {
            n_orgs: 4,
            validators_per_org: 3,
            n_watchers: 6,
        },
        n_accounts: 200,
        tx_rate: 10.0,
        target_ledgers: 6,
        seed: 24,
        flood_mode: FloodMode::Pull,
        // The restarted node's header chain is rebuilt by archive replay
        // in RAM and resumed from the data disk on the disk backend.
        store_backend: BackendKind::Mem,
        ..SimConfig::default()
    });
    sim.enable_trace();
    let victim = NodeId(5);
    step_until(&mut sim, 9_000);
    sim.crash(victim);
    step_until(&mut sim, 21_000);
    sim.restart(victim);
    let report = sim.run();
    assert!(report.ledgers.len() >= 6);
    assert!(
        sim.ledger_seq_of(victim) >= 6,
        "the restarted node rejoined"
    );
    let pulled: u64 = report.traffic.values().map(|t| t.pull_fulfilled).sum();
    assert!(pulled > 0, "payloads crossed by advert and demand");
    // Moved by design: a set crosses the network only when SCP names it.
    assert_eq!(
        digest(&sim, &report),
        "b8464a0d80fbf0c0d1230e69de04ce70f6d19f3985d94931181e67b6bd3cc2d4"
    );
}

#[test]
fn faulty_links_with_a_puppet_are_pinned() {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::ByzantineMesh { n_validators: 7 },
        n_accounts: 100,
        tx_rate: 5.0,
        target_ledgers: 4,
        seed: 24,
        flood_mode: FloodMode::Pull,
        store_backend: BackendKind::Mem,
        ..SimConfig::default()
    });
    sim.enable_trace();
    let puppet = NodeId(6);
    sim.node_mut(puppet).make_puppet();
    sim.link_faults_mut().set_default(
        LinkFault::none()
            .with_drop(0.05)
            .with_duplicate(0.10)
            .with_delay(0.10, 20, 120)
            .with_reorder(0.20, 300),
    );
    let report = sim.run();
    assert!(report.ledgers.len() >= 4);
    assert!(!sim.node_mut(puppet).drain_inbox().is_empty());
    let timeouts: u64 = report.traffic.values().map(|t| t.pull_timeouts).sum();
    assert!(timeouts > 0, "lost demands were retried");
    // Moved by design: a set crosses the network only when SCP names it.
    assert_eq!(
        digest(&sim, &report),
        "b127cc98207cbe88e113e1ba0cf798913014179d46cf8e8ed54caec4aa3e8821"
    );
}

/// The observer hosts the Horizon pipeline (query load, ingestion every
/// 2 s) on the disk backend, and crashes and restarts mid-run: the reboot
/// takes the durable recovery path and re-attaches the pipeline.
#[test]
fn observer_horizon_on_disk_with_crash_and_restart_is_pinned() {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 5 },
        n_accounts: 12,
        tx_rate: 30.0,
        target_ledgers: 7,
        seed: 24,
        store_backend: BackendKind::Disk,
        horizon: Some(AdmissionConfig {
            bucket_capacity: 2,
            refill_per_sec: 1,
            ..AdmissionConfig::default()
        }),
        horizon_query_rate: 20.0,
        horizon_ingest_interval_ms: 2_000,
        ..SimConfig::default()
    });
    sim.enable_trace();
    let observer = sim.observer_id();
    step_until(&mut sim, 13_000);
    sim.crash(observer);
    step_until(&mut sim, 19_000);
    sim.restart(observer);
    let report = sim.run();
    assert!(sim.ledger_seq_of(observer) >= 8, "the observer rejoined");
    let registry = report.telemetry.get("registry").expect("observer registry");
    let count = |reg: &Json, name: &str| {
        reg.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    assert_eq!(count(registry, "recovery.durable_store"), 1);

    // The pipeline's deterministic state joins the digest; the wall-clock
    // `horizon.query_ns` histogram stays out.
    let horizon = report.telemetry.get("horizon").expect("horizon section");
    let pipeline = horizon.get("registry").expect("pipeline registry");
    assert!(count(pipeline, "horizon.reattached") >= 1);
    assert!(count(pipeline, "horizon.shed") > 0);
    let mut h = Sha256::new();
    h.update(digest(&sim, &report).as_bytes());
    let ingested = horizon.get("ingested_seq").and_then(Json::as_f64);
    put(&mut h, ingested.expect("ingested seq") as u64);
    for name in [
        "horizon.queries",
        "horizon.submitted",
        "horizon.shed",
        "horizon.rejected",
        "horizon.reattached",
    ] {
        put(&mut h, count(pipeline, name));
    }
    for section in ["counters", "gauges"] {
        let Some(Json::Obj(values)) = pipeline.get(section) else {
            panic!("registry {section}");
        };
        for (name, v) in values.iter().filter(|(n, _)| n.starts_with("ingest.")) {
            h.update(name.as_bytes());
            put(&mut h, v.as_f64().expect("a number") as i64 as u64);
        }
    }
    // Moved by design: a set crosses the network only when SCP names it.
    assert_eq!(
        hex::encode(&h.finish().0),
        "ae0c15c2344ddd612e383b28db5d58f8d398fd6bc11af10fd1a78a477e5ab072"
    );
}
