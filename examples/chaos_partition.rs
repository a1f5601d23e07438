//! Chaos demo: a 3-org network under partition — halt, heal, catch up.
//!
//! Three organizations of three validators each synthesize the tiered
//! quorum sets of Fig. 6: every node requires 2-of-3 orgs, each org
//! counting via a 2-of-3 inner set. The fault schedule then cuts org2
//! off from the rest of the network for 25 simulated seconds:
//!
//! * the majority side (org0 + org1) still contains a quorum and keeps
//!   closing ledgers;
//! * the isolated org2 has no quorum, so it **halts** — SCP trades
//!   liveness, never safety, when a quorum is unreachable (§3.1);
//! * at heal time the reconnect state exchange re-floods SCP votes and
//!   the tx sets they name, and org2 replays the ledgers it missed from
//!   a peer's history archive (§6 catchup) — then rejoins consensus.
//!
//! The chaos invariant monitor watches the whole run: no two intact
//! nodes may externalize different values for a slot or diverge in
//! ledger hashes, and the declared partition suspends (not excuses)
//! liveness judgment.
//!
//! ```sh
//! cargo run --release --example chaos_partition
//! ```

use stellar::chaos::{ChaosConfig, ChaosRun, FaultSchedule};
use stellar::scp::NodeId;
use stellar::sim::scenario::Scenario;
use stellar::sim::SimConfig;

const PARTITION_AT_MS: u64 = 10_000;
const HEAL_AT_MS: u64 = 35_000;
const TARGET_LEDGERS: u64 = 12;

fn main() {
    let orgs: Vec<Vec<NodeId>> = (0..3u32)
        .map(|o| (o * 3..o * 3 + 3).map(NodeId).collect())
        .collect();
    let majority: Vec<NodeId> = orgs[0].iter().chain(&orgs[1]).copied().collect();
    let isolated = orgs[2].clone();

    println!("=== 3-org tiered network vs. a partition ===\n");
    println!("orgs: {orgs:?}");
    println!(
        "t={}s  partition: {majority:?} | {isolated:?}",
        PARTITION_AT_MS / 1000
    );
    println!("t={}s  heal\n", HEAL_AT_MS / 1000);

    let schedule = FaultSchedule::builder()
        .partition_at(
            PARTITION_AT_MS,
            vec![majority.clone(), isolated.clone()],
            Some(HEAL_AT_MS),
        )
        .build();
    let mut run = ChaosRun::new(ChaosConfig {
        sim: SimConfig {
            scenario: Scenario::PublicNetwork {
                n_orgs: 3,
                validators_per_org: 3,
                n_watchers: 0,
            },
            n_accounts: 50,
            tx_rate: 3.0,
            target_ledgers: TARGET_LEDGERS,
            seed: 42,
            max_sim_time_ms: 180_000,
            ..SimConfig::default()
        },
        schedule,
        ..ChaosConfig::default()
    });

    let seq_of = |run: &ChaosRun, ids: &[NodeId]| -> Vec<u64> {
        ids.iter().map(|id| run.sim().ledger_seq_of(*id)).collect()
    };
    let mut next_print = 0;
    let mut halted_seq = None;
    let mut resumed_at = None;
    while run.step() {
        let now = run.sim().now_ms();
        if now >= next_print {
            println!(
                "t={:>3}s  org0+org1 seqs {:?}  org2 seqs {:?}",
                now / 1000,
                seq_of(&run, &majority),
                seq_of(&run, &isolated),
            );
            next_print += 5_000;
        }
        if now >= HEAL_AT_MS && halted_seq.is_none() {
            halted_seq = Some(seq_of(&run, &isolated));
        }
        if halted_seq.is_some()
            && resumed_at.is_none()
            && isolated
                .iter()
                .all(|id| run.sim().ledger_seq_of(*id) >= run.sim().ledger_seq_of(majority[0]))
        {
            resumed_at = Some(now);
            println!(
                "t={:>3}s  org2 caught up via archive replay — back in consensus",
                now / 1000
            );
        }
        let done = now > HEAL_AT_MS
            && run
                .sim()
                .validator_ids()
                .into_iter()
                .all(|id| run.sim().ledger_seq_of(id) > TARGET_LEDGERS);
        if done {
            break;
        }
    }

    println!("\n=== verdict ===\n");
    let final_majority = seq_of(&run, &majority);
    let final_isolated = seq_of(&run, &isolated);
    println!("final seqs: org0+org1 {final_majority:?}  org2 {final_isolated:?}");
    let halted = halted_seq.expect("run reached the heal");
    println!("org2 at heal time: {halted:?} (halted while cut off; majority kept closing)");
    assert!(
        halted.iter().all(|s| *s < final_majority[0]),
        "org2 should have fallen behind during the partition"
    );
    assert!(
        resumed_at.is_some(),
        "org2 should have caught back up after the heal"
    );
    assert!(
        run.violations().is_empty(),
        "invariant monitor flagged: {:?}",
        run.violations()
    );
    println!(
        "invariant monitor: clean — the partition cost org2 liveness for {}s, never safety",
        (HEAL_AT_MS - PARTITION_AT_MS) / 1000
    );

    // The flight recorder kept a per-slot trace on every node; render the
    // observer's latest decided slot — the same artifact a violating
    // chaos run attaches to its report (`ChaosReport::flight_recording`).
    let observer = run.sim().observer_id();
    let recorder = &run.sim().validator(observer).herder.telemetry.recorder;
    let decided = recorder
        .events()
        .filter(|e| matches!(e.kind, stellar::telemetry::TraceKind::Externalized))
        .last()
        .map(|e| e.slot)
        .expect("observer externalized within the retention window");
    println!("\n=== flight recorder: node {observer}, slot {decided} ===\n");
    println!("{}", recorder.timeline(decided));
}
