//! What a whole-state load holds while it runs. This test binary counts
//! every byte the process allocates and frees, and the highest count
//! reached, and checks that opening a 50k-account genesis on the disk
//! backend and seeding a bucket list from it each peak at most one
//! genesis chunk of entries above the heap they end with: they stream
//! the state, they never gather a copy of it. `ci.sh` runs it under both
//! store backends with the rest of the workspace; it names its backend
//! itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use stellar::buckets::BucketList;
use stellar::ledger::entry::{LedgerEntry, LedgerKey};
use stellar::sim::loadgen::genesis_store;
use stellar::store::{open, BackendKind, DiskConfig};

/// The system allocator, keeping a count of the bytes live and of the
/// most ever live since the last reset.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if p == ptr {
            // Resized in place: one block throughout.
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        } else if !p.is_null() {
            // Moved: both blocks were held while it copied.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Entries a genesis load may hold at once beyond what it builds: the
/// batch the disk genesis used to apply and flush at a time.
const GENESIS_CHUNK: usize = 8192;

/// Runs `load`, keeping what it returns alive, and reports the bytes it
/// peaked at above the heap it ended with.
fn peak_above_end<T>(load: impl FnOnce() -> T) -> (T, usize) {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let built = load();
    let end = LIVE.load(Ordering::Relaxed);
    (built, PEAK.load(Ordering::Relaxed) - end)
}

/// One test, so nothing else allocates while a load is measured.
#[test]
fn genesis_loads_peak_within_one_chunk_above_what_they_build() {
    let template = genesis_store(50_000, 1000);
    let chunk = GENESIS_CHUNK * size_of::<(LedgerKey, Option<LedgerEntry>)>();

    let (store, disk_peak) =
        peak_above_end(|| open(&template, BackendKind::Disk, &DiskConfig::default()));
    assert_eq!(store.account_count(), 50_000);
    let (buckets, seed_peak) = peak_above_end(|| BucketList::seed(template.all_entries()));
    eprintln!("chunk {chunk} B; disk open peaked {disk_peak} B, bucket seeding {seed_peak} B above their end");

    assert!(
        disk_peak <= chunk,
        "a disk open peaked {disk_peak} B above the store it built (one chunk: {chunk} B)"
    );
    assert!(
        seed_peak <= chunk,
        "bucket seeding peaked {seed_peak} B above the list it built (one chunk: {chunk} B)"
    );
    drop((store, buckets));
}
