//! Acceptance: durable persistence is what stands between a reboot and
//! an SCP safety violation (§3, §5.4).
//!
//! The same amnesia scenario runs with the crashed quorum's disks emptied
//! at the crash (the rebooted quorum forgets its confirm-commit votes and
//! contradicts them — the watchdog must catch the divergence) and with
//! them kept (the restored ballot state pins the quorum to its pre-reboot
//! value — the run must stay clean).
//! Randomized restart storms and a differential twin run then check the
//! property statistically and byte-for-byte.

use std::collections::BTreeMap;
use stellar_chaos::recovery::{
    amnesia_restart_scenario, disk_fault_storm, persistence_twin_run, restart_storm, TwinOutcome,
};
use stellar_chaos::Violation;
use stellar_scp::NodeId;
use stellar_store::BackendKind;

/// True when both runs externalized byte-identical headers for every
/// sequence up to the target: durable recovery left no trace in the
/// chain the network agreed on.
fn headers_identical(twin: &TwinOutcome) -> bool {
    let up_to = |chain: &[(u64, stellar_crypto::Hash256)]| -> BTreeMap<_, _> {
        chain
            .iter()
            .copied()
            .filter(|(seq, _)| *seq <= twin.target_seq)
            .collect()
    };
    let a = up_to(&twin.undisturbed);
    !a.is_empty() && a == up_to(&twin.disturbed)
}

#[test]
fn amnesiac_restart_equivocates_without_persistence() {
    let out = amnesia_restart_scenario(false, 901);
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, Violation::ValueDivergence { slot, .. } if *slot == out.slot)),
        "an amnesiac quorum must contradict its pre-reboot votes on \
         slot {} (first externalized by {}): {:?}",
        out.slot,
        out.first_externalizer,
        out.violations
    );
}

#[test]
fn durable_restart_never_equivocates() {
    let out = amnesia_restart_scenario(true, 901);
    assert!(
        out.trio_decided,
        "the restored quorum must re-decide slot {} (no stall)",
        out.slot
    );
    assert!(
        out.violations.is_empty(),
        "restored ballot state must pin the quorum to its pre-reboot \
         value: {:?}",
        out.violations
    );
}

#[test]
fn restart_storms_stay_safe_with_persistence() {
    // 25 randomized reboot storms, each hammering a 4-validator mesh
    // with 6 restarts: with write-ahead persistence nobody may
    // equivocate (safety) and everybody must still reach the ledger
    // target (no stall).
    for trial in 0..25u64 {
        let report = restart_storm(9_000 + trial, 6, 6, BackendKind::from_env());
        assert!(
            report.violations.is_empty(),
            "trial {trial}: {:?}",
            report.violations
        );
        for (id, seq) in &report.final_seqs {
            assert!(*seq >= 7, "trial {trial}: node {id} stalled at seq {seq}");
        }
    }
}

#[test]
fn restart_storms_stay_safe_on_the_disk_backend() {
    // Same property with the ledger on the disk backend: every reboot
    // also crashes the data disk, so the storm exercises durable-store
    // recovery (manifest + segment checksum verification, bucket-blob
    // cross-checks) under concurrent consensus.
    for trial in 0..8u64 {
        let report = restart_storm(9_100 + trial, 6, 6, BackendKind::Disk);
        assert!(
            report.violations.is_empty(),
            "trial {trial}: {:?}",
            report.violations
        );
        for (id, seq) in &report.final_seqs {
            assert!(*seq >= 7, "trial {trial}: node {id} stalled at seq {seq}");
        }
    }
}

#[test]
fn disk_fault_storms_stay_safe() {
    // Device faults layered under the reboots: failed fsyncs leave the
    // write-back cache dirty, torn writes corrupt the oldest staged
    // record. Recovery must refuse corrupt state (falling back to
    // genesis replay + archive catch-up) and the network must neither
    // equivocate nor stall.
    for trial in 0..6u64 {
        let report = disk_fault_storm(9_300 + trial, 5, 6);
        assert!(
            report.violations.is_empty(),
            "trial {trial}: {:?}",
            report.violations
        );
        for (id, seq) in &report.final_seqs {
            assert!(*seq >= 7, "trial {trial}: node {id} stalled at seq {seq}");
        }
    }
}

#[test]
fn rebooted_run_externalizes_identical_ledgers() {
    // Differential check: rebooting three different nodes mid-run must
    // leave the externalized chain byte-identical to an undisturbed twin
    // from the same seed — recovery is invisible to the network.
    let twin = persistence_twin_run(
        77,
        &[
            (12_300, NodeId(1)),
            (22_400, NodeId(2)),
            (31_700, NodeId(3)),
        ],
    );
    assert!(
        headers_identical(&twin),
        "disturbed run diverged from its twin:\n  undisturbed: {:?}\n  disturbed: {:?}",
        twin.undisturbed,
        twin.disturbed
    );
}
