//! What a validator records of its own consensus, pinned.
//!
//! A 4-validator mesh runs five ledgers with validator 1 down from the
//! start, so a slot it would have led in nomination round 1 times out
//! into round 2. The observer's flight-recorder timeline for one such
//! slot, its per-ledger rows and its nomination-round histogram are
//! compared against literals: a change to how a node records consensus
//! events must render, time and count them exactly as before.

use stellar::scp::NodeId;
use stellar::sim::{SimConfig, Simulation};

/// The observer's timeline of slot 4, whose round-1 leader is down.
const SLOT_4_TIMELINE: [&str; 38] = [
    "slot 4 timeline (37 events, 1135ms span)",
    "     +0ms  [node 0] phase → nomination",
    "     +0ms  [node 0] nomination round 1",
    "     +0ms  [node 0] nomination timer armed (+1000ms)",
    "  +1000ms  [node 0] nomination timer FIRED",
    "  +1000ms  [node 0] nomination round 2",
    "  +1000ms  [node 0] nomination timer armed (+2000ms)",
    "  +1019ms  [node 0] recv nominate from node 2",
    "  +1019ms  [node 0] sent nominate",
    "  +1030ms  [node 0] recv nominate from node 3",
    "  +1030ms  [node 0] sent nominate",
    "  +1032ms  [node 0] recv nominate from node 3",
    "  +1047ms  [node 0] recv nominate from node 2",
    "  +1047ms  [node 0] phase → candidate",
    "  +1047ms  [node 0] ballot bumped to counter 1",
    "  +1047ms  [node 0] sent prepare",
    "  +1049ms  [node 0] recv prepare from node 2",
    "  +1063ms  [node 0] recv prepare from node 3",
    "  +1063ms  [node 0] quorum threshold: accept-prepare at counter 1",
    "  +1063ms  [node 0] ballot timer armed (+2000ms)",
    "  +1063ms  [node 0] sent prepare",
    "  +1064ms  [node 0] recv prepare from node 3",
    "  +1084ms  [node 0] recv prepare from node 2",
    "  +1084ms  [node 0] quorum threshold: confirm-prepare at counter 1",
    "  +1084ms  [node 0] sent prepare",
    "  +1090ms  [node 0] recv prepare from node 2",
    "  +1096ms  [node 0] recv prepare from node 3",
    "  +1096ms  [node 0] quorum threshold: accept-commit at counter 1",
    "  +1096ms  [node 0] sent confirm",
    "  +1098ms  [node 0] recv confirm from node 2",
    "  +1104ms  [node 0] recv confirm from node 3",
    "  +1104ms  [node 0] ballot timer canceled",
    "  +1104ms  [node 0] EXTERNALIZED",
    "  +1104ms  [node 0] sent externalize",
    "  +1104ms  [node 0] nomination timer canceled",
    "  +1104ms  [node 0] ledger closed: 0 txs applied",
    "  +1113ms  [node 0] recv externalize from node 2",
    "  +1135ms  [node 0] recv externalize from node 3",
];

#[test]
fn the_observer_records_a_leader_timeout_as_before() {
    let mut sim = Simulation::new(SimConfig {
        n_accounts: 10,
        target_ledgers: 5,
        seed: 7,
        ..SimConfig::default()
    });
    sim.crash(NodeId(1));
    let report = sim.run();
    let telemetry = &sim.validator(sim.observer_id()).herder.telemetry;

    let expected: String = SLOT_4_TIMELINE.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(telemetry.recorder.timeline(4), expected);

    let rows: Vec<_> = report
        .ledgers
        .iter()
        .map(|l| {
            let (n, b) = (l.nomination_timeouts, l.ballot_timeouts);
            (
                l.slot,
                l.nomination_ms,
                l.balloting_ms,
                n,
                b,
                l.externalized_at_ms,
            )
        })
        .collect();
    // (slot, nomination ms, balloting ms, nomination timeouts, ballot
    // timeouts, externalized at ms)
    let expected_rows = [
        (2, 33, 69, 0, 0, 1102),
        (3, 43, 55, 0, 0, 6098),
        (4, 1047, 57, 1, 0, 12104),
        (5, 51, 61, 0, 0, 16112),
        (6, 1043, 62, 1, 0, 22105),
    ];
    assert_eq!(rows, expected_rows);

    let rounds = telemetry
        .registry
        .histogram("scp.nomination_round_ms")
        .expect("nomination rounds observed");
    assert_eq!((rounds.count(), rounds.min(), rounds.max()), (7, 98, 1000));
}
