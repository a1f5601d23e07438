//! The memory census against the heap it describes. This test binary
//! counts every byte the process allocates and frees, runs a small WAN
//! pull network with one crash and restart twice, and checks that the
//! census in each run's report is the same both times and accounts for
//! the heap the finished simulation holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use stellar::overlay::FloodMode;
use stellar::sim::scenario::Scenario;
use stellar::sim::{MemoryCensus, SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

/// The system allocator, keeping a count of the bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const INTERVAL_MS: u64 = 5_000;

/// One run: its report's census and the heap bytes the finished
/// simulation holds.
fn run() -> (MemoryCensus, usize) {
    let before = live();
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::PublicNetwork {
            n_orgs: 3,
            validators_per_org: 2,
            n_watchers: 4,
        },
        n_accounts: 1_000,
        tx_rate: 20.0,
        target_ledgers: 10,
        seed: 0xCE75,
        flood_mode: FloodMode::Pull,
        ..SimConfig::default()
    });
    let victim = sim.validator_ids()[3];
    let (crash_ms, restart_ms) = (1_000 + 3 * INTERVAL_MS, 1_000 + 5 * INTERVAL_MS);
    sim.expect_downtime(victim, crash_ms, restart_ms + 2 * INTERVAL_MS);
    while sim.now_ms() < crash_ms && sim.step() {}
    sim.crash(victim);
    while sim.now_ms() < restart_ms && sim.step() {}
    sim.restart(victim);
    let report = sim.run();
    assert_no_violations(&report.violations);
    assert_eq!(
        sim.census(),
        report.memory,
        "the census moved after the report"
    );
    drop(report);
    (sim.census(), live() - before)
}

#[test]
fn the_census_repeats_and_accounts_for_the_simulation_heap() {
    let (first, held) = run();
    let (second, _) = run();
    assert_eq!(first, second, "twin runs took different censuses");
    let total = first.total() as f64;
    let coverage = total / held as f64;
    eprintln!("{first:#?}\ncensus {total} of {held} live bytes: {coverage:.3}");
    assert!(
        (0.9..=1.1).contains(&coverage),
        "census {total} B covers {coverage:.3} of the {held} B the simulation holds"
    );
}
