//! Regenerates the paper's evaluation and asserts its shapes.
//!
//! One function per artefact (E1–E11, the §3.2.5 ablation A1, E13,
//! E15–E18, E20, E21) runs its seeded simulations and returns a
//! [`Row`]; `main` prints every row, writes `PAPER_REPRO.json` at the
//! workspace root and exits non-zero naming each row whose shape fails.
//! It takes no arguments and reads no environment of its own; the
//! document is byte-identical on every run and on either store backend.
//!
//! ```sh
//! cargo run --release -p stellar-bench --bin repro
//! ```

use std::collections::BTreeMap;
use std::time::Instant;
use stellar_bench::{print_table, render, round, Row};
use stellar_buckets::{BucketList, HistoryArchive};
use stellar_chaos::adversary::Strategy;
use stellar_chaos::cascade::{analyze_cascade, CascadeOrder, CascadePlan};
use stellar_chaos::runner::{ChaosConfig, ChaosRun};
use stellar_chaos::schedule::FaultSchedule;
use stellar_chaos::Violation;
use stellar_crypto::{sign::PublicKey, Hash256};
use stellar_herder::Herder;
use stellar_horizon::{AdmissionConfig, AdmissionControl};
use stellar_ledger::amount::{xlm, BASE_FEE};
use stellar_ledger::entry::{AccountEntry, AccountId, LedgerEntry};
use stellar_ledger::header::{LedgerHeader, LedgerParams};
use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar_ledger::{apply::close_ledger, sigcache::SigVerifyCache, store::LedgerStore};
use stellar_ledger::{asset::Asset, txset::TransactionSet};
use stellar_overlay::{FloodMode, LinkFault, MsgKind, TrafficStats};
use stellar_quorum::criticality::check_criticality;
use stellar_quorum::intersection::{FbaSystem, IntersectionResult::Intersecting};
use stellar_quorum::tiers::{synthesize_all, synthesize_quorum_set, OrgConfig, Quality};
use stellar_quorum::{find_disjoint_quorums_with, generate, TopologyFamily, TopologySpec};
use stellar_scp::leader::{priority, round_leader};
use stellar_scp::{NodeId, QuorumSet};
use stellar_sim::loadgen::{genesis_store, user_account, user_keys};
use stellar_sim::tracing::rows_to_json;
use stellar_sim::{phase_stats, scenario::Scenario, PhaseStats, SimConfig, Simulation};
use stellar_store::{open_streaming, DiskConfig};
use stellar_telemetry::Json;

/// Where the document lands: the workspace root.
const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_REPRO.json");

fn arr<T: Into<Json>>(xs: impl IntoIterator<Item = T>) -> Json {
    Json::Arr(xs.into_iter().map(Into::into).collect())
}

/// Column-wise `ours`: each key gathers one value per sweep point.
#[derive(Default)]
struct Cols(BTreeMap<String, Vec<Json>>);

impl Cols {
    fn add(&mut self, key: &str, v: impl Into<Json>) {
        self.0.entry(key.to_string()).or_default().push(v.into());
    }

    fn json(self) -> Json {
        let set = |o: Json, (k, v): (String, Vec<Json>)| o.set(&k, Json::Arr(v));
        self.0.into_iter().fold(Json::obj(), set)
    }
}

fn config(scenario: Scenario, n_accounts: u64, tx_rate: f64, ledgers: u64, seed: u64) -> SimConfig {
    let target_ledgers = ledgers;
    SimConfig {
        scenario,
        n_accounts,
        tx_rate,
        target_ledgers,
        seed,
        ..SimConfig::default()
    }
}

/// `orgs` tier-one orgs of `per` validators plus `watchers` watcher
/// nodes on WAN links (Fig. 7's shape).
fn public(orgs: u32, per: u32, watchers: u32) -> Scenario {
    let (n_orgs, validators_per_org, n_watchers) = (orgs, per, watchers);
    Scenario::PublicNetwork {
        n_orgs,
        validators_per_org,
        n_watchers,
    }
}

/// §7.3's controlled setup: `n` validators in a full mesh with
/// simple-majority slices on LAN links.
fn mesh(n: u64, n_accounts: u64, tx_rate: f64, ledgers: u64, seed: u64) -> SimConfig {
    let n_validators = n as u32;
    let scenario = Scenario::ControlledMesh { n_validators };
    config(scenario, n_accounts, tx_rate, ledgers, seed)
}

/// One controlled run after two warm-up ledgers: its exact means, and its
/// mean ledger update (wall-clock).
fn point(cfg: SimConfig) -> (Json, f64) {
    let mut sim = Simulation::new(cfg);
    let r = sim.run().without_warmup(2);
    let merge_work = sim.validator(sim.observer_id()).herder.buckets.merge_work;
    let scp = round(r.scp_msgs_per_ledger(), 2);
    let p = Json::obj()
        .set("nomination_ms", round(r.mean_nomination_ms(), 2))
        .set("balloting_ms", round(r.mean_balloting_ms(), 2))
        .set("close_s", round(r.mean_close_interval_s(), 3))
        .set("tx_per_ledger", round(r.mean_tx_per_ledger(), 1))
        .set("tx_per_ledger_stddev", round(r.stddev_tx_per_ledger(), 1))
        .set("scp_msgs_per_ledger_per_validator", scp)
        .set("bucket_merge_work", merge_work);
    (p, r.mean_ledger_update_ms())
}

/// Field `key` of one point.
fn field(p: &(Json, f64), key: &str) -> Json {
    p.0.get(key).cloned().unwrap_or_default()
}

/// Row `id` over points: the `axis` values plus the space-separated
/// `keys` of every point, with their ledger update printed beside it.
fn sweep(id: &str, axis: (&str, &[f64]), ps: &[(Json, f64)], keys: &str) -> Row {
    let col = |k| arr(ps.iter().map(|p| field(p, k)));
    let ours = keys.split(' ').fold(Json::obj(), |o, k| o.set(k, col(k)));
    let ms: Vec<String> = ps.iter().map(|p| format!("{:.2}", p.1)).collect();
    let wall = format!("ledger update ms {}", ms.join(" / "));
    Row::new(id, ours.set(axis.0, arr(axis.1.to_vec()))).wall(wall)
}

fn e1_e2() -> [Row; 2] {
    let cfg = config(public(5, 3, 24), 20_000, 4.5, 40, 72);
    let r = Simulation::new(cfg).run().without_warmup(2);
    let p99 = r.percentile_of(99.0, |l| (l.nomination_ms + l.balloting_ms) as f64);
    let (per_ledger, close) = (r.scp_msgs_per_ledger(), r.mean_close_interval_s());
    let e1 = Json::obj()
        .set("ledgers", r.ledgers.len())
        .set("consensus_ms_mean", round(r.mean_consensus_ms(), 1))
        .set("consensus_ms_p99", p99)
        .set("close_s", round(close, 3));
    let e2 = Json::obj()
        .set("scp_msgs_per_ledger_per_validator", round(per_ledger, 2))
        .set("scp_msgs_per_s_per_validator", round(per_ledger / close, 2));
    let apply_p99 = r.percentile_of(99.0, |l| l.ledger_update_ms);
    let apply = r.mean_ledger_update_ms();
    let wall = format!("ledger update {apply:.2} ms mean, {apply_p99:.2} ms p99");
    [Row::new("E1", e1).wall(wall), Row::new("E2", e2)]
}

fn e3() -> Row {
    let cfg = config(public(5, 3, 12), 5_000, 4.5, 150, 68);
    let r = Simulation::new(cfg).run().without_warmup(2);
    let t = r.timeout_percentiles();
    let ours = Json::obj()
        .set("ledgers", r.ledgers.len())
        .set("nomination_p75", t.nomination_p75)
        .set("nomination_p99", t.nomination_p99)
        .set("nomination_max", t.nomination_max)
        .set("ballot_p75", t.ballot_p75)
        .set("ballot_p99", t.ballot_p99)
        .set("ballot_max", t.ballot_max);
    Row::new("E3", ours)
}

fn e4(accounts: &[f64], ps: &[(Json, f64)]) -> Row {
    let keys = "nomination_ms balloting_ms tx_per_ledger bucket_merge_work";
    sweep("E4", ("accounts", accounts), ps, keys)
}

fn e5(rates: &[f64], ps: &[(Json, f64)]) -> Row {
    let keys = "nomination_ms balloting_ms tx_per_ledger";
    sweep("E5", ("tx_rate", rates), ps, keys)
}

fn e6(validators: &[f64], ps: &[(Json, f64)]) -> Row {
    let keys = "nomination_ms balloting_ms scp_msgs_per_ledger_per_validator";
    sweep("E6", ("validators", validators), ps, keys)
}

fn e7(baseline: &(Json, f64)) -> Row {
    let keys = "nomination_ms balloting_ms tx_per_ledger tx_per_ledger_stddev".split(' ');
    let ours = keys.fold(Json::obj(), |o, k| o.set(k, field(baseline, k)));
    Row::new("E7", ours).wall(format!("ledger update {:.2} ms mean", baseline.1))
}

fn e8(sweeps: [&[(Json, f64)]; 3], baseline: &(Json, f64)) -> Row {
    let close = |ps: &[(Json, f64)]| arr(ps.iter().map(|p| field(p, "close_s")));
    let ours = Json::obj()
        .set("fig9_close_s", close(sweeps[0]))
        .set("fig10_close_s", close(sweeps[1]))
        .set("fig11_close_s", close(sweeps[2]))
        .set("baseline_close_s", field(baseline, "close_s"));
    Row::new("E8", ours)
}

fn e9() -> Row {
    let mut sim = Simulation::new(config(public(5, 3, 24), 20_000, 15.7, 30, 74));
    let r = sim.run();
    let observer = sim.observer_id();
    let (t, secs) = (r.traffic[&observer], r.sim_duration_ms as f64 / 1000.0);
    let ours = Json::obj()
        .set("peers", public(5, 3, 24).build(74).graph.degree(observer))
        .set("mbit_per_s_in", round(t.mbps_in(secs), 3))
        .set("mbit_per_s_out", round(t.mbps_out(secs), 3));
    Row::new("E9", ours)
}

fn e10() -> Row {
    let mut c = Cols::default();
    for (n_orgs, per) in [(4u32, 3u32), (5, 3), (6, 4), (7, 4), (8, 4)] {
        // `n_orgs` High-quality orgs of `per` validators each.
        let org = |o: u32| {
            let members = (o * per..(o + 1) * per).map(NodeId).collect();
            OrgConfig::new(&format!("org{o}"), members, Quality::High)
        };
        let orgs: Vec<OrgConfig> = (0..n_orgs).map(org).collect();
        let map = orgs.iter().map(|o| (o.name.clone(), o.validators.clone()));
        let sys = FbaSystem::new(synthesize_all(&orgs));
        let critical = check_criticality(&sys, &map.collect()).critical_orgs;
        let (verdict, stats) = find_disjoint_quorums_with(&sys);
        c.add("nodes", u64::from(n_orgs * per));
        c.add("intersects", matches!(verdict, Intersecting));
        c.add("branches", stats.branches);
        c.add("critical_orgs", critical.len());
    }
    Row::new("E10", c.json())
}

fn e11() -> Row {
    use Quality::{Critical, High, Low, Medium};
    let names = "crit-a crit-b high-a high-b high-c med-a low-a".split(' ');
    let tiers = names.zip([Critical, Critical, High, High, High, Medium, Low]);
    let org = |(i, (name, q))| OrgConfig::new(name, (3 * i..3 * i + 3).map(NodeId).collect(), q);
    let orgs: Vec<OrgConfig> = (0u32..).zip(tiers).map(org).collect();
    let (qset, warnings) = synthesize_quorum_set(&orgs);
    // Walk the tiers top-down: each level's org sets, then the group one
    // quality below.
    let mut c = Cols::default();
    let mut level = Some(&qset);
    while let Some(q) = level {
        c.add("level_thresholds", u64::from(q.threshold));
        c.add("level_entries", q.num_entries());
        for o in q.inner.iter().filter(|i| i.inner.is_empty()) {
            c.add("org_thresholds", u64::from(o.threshold));
            c.add("org_sizes", o.validators.len());
        }
        level = q.inner.iter().find(|i| !i.inner.is_empty());
    }
    let sys = FbaSystem::new(synthesize_all(&orgs));
    let ok = matches!(find_disjoint_quorums_with(&sys).0, Intersecting);
    let ours = c.json().set("warnings", warnings.len());
    Row::new("E11", ours.set("intersects", ok))
}

fn a1() -> Row {
    // Europe: nodes 0..4. China: nodes 1000..2000. Every slice needs 3
    // of each; the observer is European.
    let europe: Vec<NodeId> = (0..4).map(NodeId).collect();
    let china: Vec<NodeId> = (1000..2000).map(NodeId).collect();
    let all: Vec<NodeId> = europe.iter().chain(&china).copied().collect();
    let qset = QuorumSet {
        threshold: 2,
        validators: vec![],
        inner: vec![
            QuorumSet::threshold_of(3, europe),
            QuorumSet::threshold_of(3, china),
        ],
    };
    let slots = 5_000u64;
    let (mut strawman, mut weighted, mut self_led) = (0u64, 0u64, 0u64);
    for slot in 0..slots {
        let best = all.iter().max_by_key(|v| (priority(slot, 1, **v), **v));
        strawman += u64::from(best.is_some_and(|v| v.0 >= 1000));
        let leader = round_leader(NodeId(0), &qset, slot, 1);
        weighted += u64::from(leader.0 >= 1000);
        self_led += u64::from(leader == NodeId(0));
    }
    let ours = Json::obj()
        .set("slots", slots)
        .set("strawman_china_led", strawman)
        .set("weighted_china_led", weighted)
        .set("weighted_self_led", self_led);
    Row::new("A1", ours)
}

fn e13() -> Row {
    // 7 validators with n - f slices, every run watched by the watchdog.
    let chaos = |seed, cfg: ChaosConfig| {
        let mesh = Scenario::ByzantineMesh { n_validators: 7 };
        let mut sim = config(mesh, 100, 5.0, 4, seed);
        sim.max_sim_time_ms = 240_000;
        ChaosRun::new(ChaosConfig { sim, ..cfg }).run()
    };
    use Strategy::{EquivocateNomination, ReplayStale, SplitConfirm};
    let strategies = [EquivocateNomination, SplitConfirm, ReplayStale];
    let mut c = Cols::default();
    for k in 0..=3u32 {
        let adversary = |i: u32| (NodeId(6 - i), strategies[i as usize]);
        let adversaries = (0..k).map(adversary).collect();
        let cfg = ChaosConfig {
            adversaries,
            ..Default::default()
        };
        let r = chaos(0xE12 + u64::from(k), cfg);
        let stall = |v: &&Violation| matches!(v, Violation::LivenessStall { .. });
        let stalls = r.violations.iter().filter(stall).count();
        c.add("adversaries", u64::from(k));
        c.add("intact", r.intact.len());
        c.add("safety_violations", r.violations.len() - stalls);
        c.add("liveness_stalls", stalls);
        c.add("injections", r.injections);
    }
    let ids: Vec<NodeId> = (0..7).map(NodeId).collect();
    let halves = || vec![ids[..4].to_vec(), ids[4..].to_vec()];
    let lossy = LinkFault::none().with_drop(0.10).with_duplicate(0.05);
    let cocktails = [
        // Crash two, revive them (archive catch-up).
        FaultSchedule::builder()
            .crash_at(6_000, ids[5])
            .crash_at(8_000, ids[6])
            .revive_at(22_000, ids[5])
            .revive_at(26_000, ids[6]),
        // Partition 4|3, healed at 35 s.
        FaultSchedule::builder().partition_at(10_000, halves(), Some(35_000)),
        // 10% drop, 5% duplication, 20-80 ms delay everywhere.
        FaultSchedule::builder().default_link_fault_at(2_000, lossy.with_delay(0.3, 20, 80)),
        // All at once.
        FaultSchedule::builder()
            .default_link_fault_at(2_000, LinkFault::none().with_drop(0.05))
            .crash_at(7_000, ids[6])
            .partition_at(12_000, halves(), Some(30_000))
            .revive_at(34_000, ids[6]),
    ];
    for (i, schedule) in (0..).zip(cocktails) {
        // A generous liveness bound: cocktails legitimately slow closes.
        let (schedule, liveness_bound_ms) = (schedule.build(), 60_000);
        let cfg = ChaosConfig {
            schedule,
            liveness_bound_ms,
            ..Default::default()
        };
        let r = chaos(0xB0B + i, cfg);
        c.add("cocktail_intact", r.intact.len());
        c.add("cocktail_violations", r.violations.len());
    }
    Row::new("E13", c.json())
}

fn e15() -> Row {
    let mut c = Cols::default();
    // (orgs, watchers, tx/s, target ledgers); 3 validators per org.
    for (orgs, watchers, rate, target) in [
        (3, 6, 2.0, 6),
        (4, 12, 2.0, 6),
        (4, 24, 4.5, 8),
        (4, 24, 20.0, 8),
    ] {
        let run = |mode| {
            let mut cfg = config(public(orgs, 3, watchers), 2_000, rate, target, 0xE15);
            cfg.flood_mode = mode;
            let r = Simulation::new(cfg).run();
            let mut net = TrafficStats::default();
            r.traffic.values().for_each(|t| net.merge(t));
            let ledgers = r.ledgers.len() as u64;
            let per_ledger = (net.bytes_out as f64 / ledgers.max(1) as f64).round();
            (ledgers, per_ledger, net)
        };
        let ((push_ledgers, push, _), (pull_ledgers, pull, net)) =
            (run(FloodMode::Push), run(FloodMode::Pull));
        c.add("nodes", u64::from(orgs * 3 + watchers));
        c.add("tx_rate", rate);
        c.add("target_ledgers", target);
        c.add("ledgers", push_ledgers.min(pull_ledgers));
        c.add("push_bytes_per_ledger", push);
        c.add("pull_bytes_per_ledger", pull);
        c.add("saving", round(1.0 - pull / push, 3));
        c.add("adverts", net.out_count(MsgKind::Advert));
        c.add("demands", net.out_count(MsgKind::Demand));
        c.add("pull_timeouts", net.pull_timeouts);
    }
    Row::new("E15", c.json())
}

/// Closes ledger `l` of a payment chain on `store`: `per_ledger` signed
/// payments, payment `n` sent by account `n % senders` to the next
/// account. Returns the next header (snapshot hash set), the applied set
/// and how many payments succeeded.
fn close_payments(
    store: &mut LedgerStore,
    buckets: &mut BucketList,
    header: &LedgerHeader,
    (l, per_ledger, senders): (u64, u64, u64),
) -> (LedgerHeader, TransactionSet, u64) {
    let payment = |n: u64| {
        let src = n % senders;
        let (destination, amount) = (user_account((src + 1) % senders), 1 + (n % 100) as i64);
        let op = Operation::Payment {
            destination,
            asset: Asset::Native,
            amount,
        };
        let tx = Transaction {
            source: user_account(src),
            seq_num: n / senders + 1,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::Id(n),
            operations: vec![SourcedOperation { source: None, op }],
        };
        TransactionEnvelope::sign(tx, &[&user_keys(src)])
    };
    let txs = (l * per_ledger..(l + 1) * per_ledger).map(payment);
    let set = TransactionSet::assemble(header.hash(), txs.collect(), u32::MAX);
    let (time, params) = (header.close_time + 5, LedgerParams::default());
    let mut cache = SigVerifyCache::disabled();
    let res = close_ledger(store, header, &set, time, params, &mut cache);
    let applied = res.results.iter().filter(|r| r.is_success()).count() as u64;
    buckets.add_batch(res.header.ledger_seq, &res.changes);
    let mut next = res.header;
    next.snapshot_hash = buckets.hash();
    (next, set, applied)
}

fn e16() -> Row {
    let (mut c, mut wall) = (Cols::default(), vec![]);
    for gap in [4u64, 16, 64, 128, 256] {
        // A lone chain of `gap` ledgers of 20 payments over 500 accounts,
        // each published to an archive, from the genesis a fresh herder
        // starts at.
        let genesis = genesis_store(500, 1000);
        let mut live = genesis.clone();
        let mut buckets = BucketList::seed(live.all_entries());
        let mut header = LedgerHeader::genesis(Hash256::ZERO);
        header.snapshot_hash = buckets.hash();
        let (mut archive, mut applied) = (HistoryArchive::new(), 0);
        for l in 0..gap {
            let (next, set, ok) = close_payments(&mut live, &mut buckets, &header, (l, 20, 500));
            header = next;
            archive.publish(&header, &set, &mut buckets);
            applied += ok;
        }
        let mut herder = Herder::new(NodeId(0), genesis, BTreeMap::new());
        let t0 = Instant::now();
        c.add("replayed", herder.catch_up_from(&archive));
        wall.push(format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3));
        c.add("gap", gap);
        c.add("payments_applied", applied);
        c.add("tip_matches", herder.header.hash() == header.hash());
        c.add("checkpoints", archive.checkpoint_count());
        c.add("archive_bytes", archive.bytes_written);
        c.add("lcl_bytes", herder.persist.stats().bytes_written);
    }
    Row::new("E16", c.json()).wall(format!("recovery ms {}", wall.join(" / ")))
}

/// One E17 run: 20 ledgers of 50 payments over 500 hot accounts out of
/// `accounts`, mirroring the herder's close path (bucket blobs staged
/// before the one data-disk sync per close). Returns whether every close
/// applied all its payments and flushed, the bucket-level and header
/// hashes and the resident bytes; a disk run adds its I/O to `c`.
fn store_run(c: &mut Cols, accounts: u64, disk: bool) -> (bool, Vec<Hash256>, u64) {
    let account = |i| LedgerEntry::Account(AccountEntry::new(user_account(i), xlm(1000)));
    let entries = || (0..accounts).map(account);
    let mut store = match disk {
        true => open_streaming(entries(), 1, &DiskConfig::default()),
        false => genesis_store(accounts, 1000),
    };
    // Seeding from the stream, not `store.all_entries()`, gives the same
    // buckets without a full read pass over the disk store.
    let mut buckets = BucketList::seed(entries());
    if let Some(d) = store.disk() {
        buckets.attach_disk(d, 0);
    }
    let mut header = LedgerHeader::genesis(Hash256::ZERO);
    header.snapshot_hash = buckets.hash();
    let (before, mut clean) = (store.io_stats(), true);
    for l in 0..20 {
        let (next, _, ok) = close_payments(&mut store, &mut buckets, &header, (l, 50, 500));
        header = next;
        buckets.persist_levels(header.ledger_seq);
        clean &= ok == 50 && store.flush(header.ledger_seq);
        buckets.note_synced();
    }
    let io = store.io_stats();
    if disk {
        let hits = (io.cache_hits - before.cache_hits) as f64;
        let misses = (io.cache_misses - before.cache_misses) as f64;
        let read = (io.bytes_read - before.bytes_read) as f64;
        c.add("disk_bytes", io.disk_bytes);
        c.add("disk_segments", io.segments);
        let hit_ratio = round(hits / (hits + misses).max(1.0), 3);
        c.add("disk_cache_hit_ratio", hit_ratio);
        c.add("disk_read_bytes_per_miss", round(read / misses.max(1.0), 2));
    }
    let mut hashes = buckets.level_hashes();
    hashes.push(header.hash());
    let resident = store.resident_bytes() + buckets.resident_bytes();
    (clean, hashes, resident)
}

fn e17() -> Row {
    let mut c = Cols::default();
    for accounts in [100_000u64, 1_000_000] {
        let (mem_clean, mem_hashes, mem_resident) = store_run(&mut c, accounts, false);
        let (disk_clean, disk_hashes, disk_resident) = store_run(&mut c, accounts, true);
        c.add("accounts", accounts);
        c.add("closes_clean", mem_clean && disk_clean);
        c.add("twins_identical", mem_hashes == disk_hashes);
        c.add("mem_resident_bytes", mem_resident);
        c.add("disk_resident_bytes", disk_resident);
    }
    Row::new("E17", c.json())
}

fn e18() -> Row {
    let mut c = Cols::default();
    for (scenario, rate, target) in [(public(3, 3, 6), 2.0, 6), (public(4, 3, 24), 20.0, 8)] {
        let mut cfg = config(scenario, 2_000, rate, target, 0xE18);
        cfg.trace_sample_every = 1;
        let r = Simulation::new(cfg.clone()).run();
        let twin = Simulation::new(cfg).run();
        let stats = phase_stats(&r.tx_traces);
        let s2a = stats.iter().find(|p| p.phase == "submit_to_apply");
        let applied = r.tx_traces.iter().filter(|t| t.applied_ms.is_some());
        let complete = s2a.is_some_and(|s| s.samples > 0 && s.samples == applied.count() as u64);
        let (rows, twin_rows) = (rows_to_json(&r.tx_traces), rows_to_json(&twin.tx_traces));
        c.add("tx_rate", rate);
        c.add("target_ledgers", target);
        c.add("ledgers", r.ledgers.len());
        c.add("complete", complete);
        c.add("twin_identical", rows.render() == twin_rows.render());
        c.add("alerts", r.health.len());
        let ms = |f: fn(&PhaseStats) -> f64| s2a.map_or(Json::Null, |s| f(s).into());
        c.add("submit_to_apply_ms_p50", ms(|s| s.p50_ms));
        c.add("submit_to_apply_ms_p99", ms(|s| s.p99_ms));
    }
    Row::new("E18", c.json())
}

fn e20() -> Row {
    // A door that never sheds (admission runs on every submission and
    // consensus input matches the pipeline-free twin), and a strict one
    // whose small pending limit sheds a burst cheaply.
    let permissive = AdmissionConfig {
        bucket_capacity: 1 << 20,
        refill_per_sec: 1 << 20,
        queue_capacity: 1 << 20,
        max_pending: 1 << 20,
        ..AdmissionConfig::default()
    };
    let strict = AdmissionConfig {
        bucket_capacity: 4,
        refill_per_sec: 1,
        queue_capacity: 100,
        max_pending: 60,
        ..AdmissionConfig::default()
    };
    let mut c = Cols::default();
    for (scenario, rate, queries, target) in [
        (public(3, 3, 6), 2.0, 20.0, 6),
        (public(4, 3, 24), 20.0, 50.0, 8),
    ] {
        let run = |horizon, tx_rate, query_rate, cadence_ms| {
            let mut cfg = config(scenario.clone(), 2_000, tx_rate, target, 0xE20);
            cfg.horizon = horizon;
            cfg.horizon_query_rate = query_rate;
            cfg.horizon_ingest_interval_ms = cadence_ms;
            let mut sim = Simulation::new(cfg);
            let report = sim.run();
            (sim, report)
        };
        let mut per_close = None;
        for cadence in [0u64, 2_000, 8_000] {
            let (sim, r) = run(Some(permissive), rate, queries, cadence);
            let m = sim.horizon_metrics();
            let lag = m.histogram("horizon.lag_at_query").expect("lag histogram");
            let p = sim.horizon().expect("pipeline attached");
            c.add("target_ledgers", target);
            c.add("cadence_ms", cadence);
            c.add("ledgers", r.ledgers.len());
            c.add("queries", m.counter("horizon.queries"));
            c.add("ingested", p.registry().counter("ingest.ledgers"));
            c.add("lag_mean", round(lag.mean(), 3));
            c.add("lag_max", lag.max());
            if cadence == 0 {
                let head = sim.validator(sim.observer_id()).herder.header.ledger_seq;
                c.add("indexer_at_head", p.indexer.ingested_seq() == head);
                c.add("base_close_ms", round(r.mean_close_interval_s() * 1e3, 1));
                per_close = Some(sim);
            }
        }
        // Pipeline on vs off, same seed: identical headers all the way.
        let (with, (without, _)) = (per_close.expect("per-close run"), run(None, rate, 0.0, 0));
        let obs = with.observer_id();
        let (a, b) = (&with.validator(obs).herder, &without.validator(obs).herder);
        let hash = |h: &Herder, s| h.archive.header(s).map(|h| h.hash());
        let same = a.header.hash() == b.header.hash()
            && a.header.snapshot_hash == b.header.snapshot_hash
            && (2..=a.archive.latest_seq().unwrap_or(0)).all(|s| hash(a, s) == hash(b, s));
        c.add("twin_identical", same);
        // A 10x submission burst against the strict door.
        let (burst, r) = run(Some(strict), rate * 10.0, queries, 0);
        let (m, close) = (burst.horizon_metrics(), r.mean_close_interval_s());
        let (submitted, shed) = (m.counter("horizon.submitted"), m.counter("horizon.shed"));
        c.add("burst_attempts", submitted + shed);
        c.add("burst_shed", shed);
        c.add("burst_close_ms", round(close * 1e3, 1));
    }
    // The admission door alone under 10^6 distinct clients arriving at
    // ~100 per simulated ms: idle-bucket recycling must bound the table.
    let cfg = AdmissionConfig::default();
    let mut front = AdmissionControl::new(cfg);
    for i in 0..1_000_000u64 {
        let _ = front.admit(AccountId(PublicKey(0x5EED_0000 + i)), i / 100, 0);
    }
    let recycles = front.registry.counter("admission.table_recycles");
    let ours = c
        .json()
        .set("front_door_tracked", front.tracked_sources())
        .set("front_door_max_sources", cfg.max_sources)
        .set("front_door_recycles", recycles);
    Row::new("E20", ours)
}

const FAMILIES: [TopologyFamily; 3] = [
    TopologyFamily::Uniform,
    TopologyFamily::TierWeighted,
    TopologyFamily::ScaleFree,
];

/// Adds every family's staged org-failure campaign at 30 orgs, random
/// and top-tier-first, to `c` (frontier and fatal stage, in family
/// order). Returns every failure order and analysis rendered
/// canonically: the twin-regeneration artefact.
fn frontier_curves(c: &mut Cols) -> String {
    let mut canonical = vec![];
    for family in FAMILIES {
        let topo = generate(&TopologySpec::new(family, 30, 3, 0xE21));
        for (order, label) in [
            (CascadeOrder::Random, "random"),
            (CascadeOrder::TopTierFirst, "top_tier_first"),
        ] {
            let plan = CascadePlan {
                order,
                n_stages: 30,
                start_ms: 10_000,
                stage_interval_ms: 5_000,
                heal_at_ms: None,
                seed: 0xE21,
            };
            let stages = plan.stages(&topo);
            let a = analyze_cascade(&topo, &stages);
            let orgs = arr(stages.iter().map(|s| s.org.as_str()));
            canonical.push(Json::obj().set("orgs", orgs).set("analysis", a.to_json()));
            let fatal = a
                .first_fatal
                .map_or(String::new(), |(s, o)| format!("#{s} {o}"));
            c.add(&format!("frontier_{label}"), a.frontier);
            c.add(&format!("first_fatal_{label}"), fatal);
        }
    }
    Json::Arr(canonical).render()
}

fn e21() -> Row {
    let mut c = Cols::default();
    let twin_identical = frontier_curves(&mut c) == frontier_curves(&mut Cols::default());
    for family in FAMILIES {
        for orgs in [20usize, 60, 120, 250, 500] {
            let topo = generate(&TopologySpec::new(family, orgs, 3, 0xE21));
            let (verdict, stats) = find_disjoint_quorums_with(&topo.system);
            c.add("checker_intersects", matches!(verdict, Intersecting));
            c.add("checker_branches", stats.branches);
            c.add("checker_domain_nodes", stats.domain_nodes);
        }
    }
    let ours = c
        .json()
        .set("checker_orgs", arr([20u64, 60, 120, 250, 500]));
    Row::new("E21", ours.set("twin_identical", twin_identical))
}

/// The §7.3 controlled runs (full mesh, simple-majority slices): the
/// Fig. 9, 10 and 11 sweeps and the baseline, as rows E4–E8.
fn controlled() -> [Row; 5] {
    let accounts = [10_000.0, 50_000.0, 100_000.0, 200_000.0, 500_000.0];
    let rates = [100.0, 150.0, 200.0, 250.0, 300.0, 350.0];
    let validators = [4.0, 10.0, 19.0, 28.0, 37.0, 43.0];
    let fig9 = accounts.map(|n| point(mesh(4, n as u64, 100.0, 10, 9)));
    let big_sets = |r| SimConfig {
        max_tx_set_ops: 10_000,
        ..mesh(4, 100_000, r, 10, 10)
    };
    let fig10 = rates.map(|r| point(big_sets(r)));
    let fig11 = validators.map(|n| point(mesh(n as u64, 20_000, 100.0, 8, 11)));
    let baseline = point(mesh(4, 100_000, 100.0, 15, 7));
    [
        e4(&accounts, &fig9),
        e5(&rates, &fig10),
        e6(&validators, &fig11),
        e7(&baseline),
        e8([&fig9, &fig10, &fig11], &baseline),
    ]
}

fn main() {
    let t0 = Instant::now();
    let mut rows: Vec<Row> = e1_e2().into();
    rows.push(e3());
    rows.extend(controlled());
    let rest: [fn() -> Row; 11] = [e9, e10, e11, a1, e13, e15, e16, e17, e18, e20, e21];
    rows.extend(rest.map(|f| f()));
    print_table(&rows);
    std::fs::write(DOC, render(&rows)).expect("write PAPER_REPRO.json");
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| !r.holds)
        .map(|r| r.shape.id)
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    println!("wrote PAPER_REPRO.json: {} rows in {secs:.0} s", rows.len());
    if !failed.is_empty() {
        eprintln!("shapes that do not hold: {}", failed.join(", "));
        std::process::exit(1);
    }
}
