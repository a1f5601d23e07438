//! SCP timers belong to the validator process that armed them. The
//! simulator only records "fire this deadline at this time"; the
//! validator keeps the table of deadlines still armed, so a reboot, which
//! builds a new process with empty RAM, takes every pending timer with
//! it, and a deadline that has passed never lingers in a live process.

use stellar::scp::{NodeId, SlotIndex};
use stellar::sim::events::TraceEntry;
use stellar::sim::{SimConfig, Simulation};

fn config() -> SimConfig {
    SimConfig {
        n_accounts: 10,
        target_ledgers: 5,
        ..SimConfig::default()
    }
}

/// The `(slot, deadline)` of each timer `id`'s validator holds armed.
fn armed(sim: &Simulation, id: NodeId) -> Vec<(SlotIndex, u64)> {
    let armed = &sim.validator(id).herder.armed;
    armed.iter().map(|(&(slot, _), &at)| (slot, at)).collect()
}

#[test]
fn a_rebooted_validator_fires_no_timer_its_predecessor_armed() {
    let mut sim = Simulation::new(config());
    sim.enable_trace();
    let id = NodeId(1);
    // Into the slot of ledger 3, until the node has a timer armed.
    while sim.ledger_seq_of(id) < 2 || armed(&sim, id).is_empty() {
        assert!(sim.step(), "the node arms a timer");
    }
    let before = armed(&sim, id);
    let boot = sim.now_ms();
    // Cut off for two seconds, the new process hears nothing that would
    // replace or cancel a timer of the slot in flight.
    sim.set_partition(&[vec![id]], Some(boot + 2_000));
    sim.restart(id);
    let last = before.iter().map(|(_, at)| *at).max().unwrap_or(boot);
    while sim.now_ms() <= last && sim.step() {}
    let fired: Vec<(SlotIndex, u64)> = sim
        .trace()
        .iter()
        .filter_map(|e| match *e {
            TraceEntry::Timer { time, node, slot } if node == id && time >= boot => {
                Some((slot, time))
            }
            _ => None,
        })
        .collect();
    for timer in &before {
        assert!(
            !fired.contains(timer),
            "timer {timer:?}, armed before the reboot at {boot} ms, fired into the new process"
        );
    }
    let report = sim.run();
    assert!(report.ledgers.len() >= 5, "the network keeps closing");
}

#[test]
fn no_live_validator_holds_a_deadline_that_has_passed() {
    let mut sim = Simulation::new(SimConfig {
        tx_rate: 20.0,
        ..config()
    });
    let ids = sim.validator_ids();
    // One node is down from 7 s to 13 s: what it held armed when it
    // crashed must not survive into its next process.
    let victim = ids[2];
    let (mut crashed, mut restarted) = (false, false);
    while sim.step() {
        let now = sim.now_ms();
        if now >= 7_000 && !crashed {
            sim.crash(victim);
            crashed = true;
        }
        if now >= 13_000 && !restarted {
            sim.restart(victim);
            restarted = true;
        }
        if sim.peek_time().is_some_and(|next| next <= now) {
            continue; // something still due at `now`
        }
        for &id in ids.iter().filter(|id| !sim.is_crashed(**id)) {
            let passed = armed(&sim, id).into_iter().find(|(_, at)| *at <= now);
            assert_eq!(passed, None, "node {id} at {now} ms");
        }
        if sim.ledger_seq_of(ids[0]) > 6 {
            return;
        }
    }
    panic!("the run stopped before ledger 7");
}
