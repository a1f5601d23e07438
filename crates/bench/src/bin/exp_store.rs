//! E17 — storage-engine sweep: closes/s and resident bytes vs. ledger
//! size, RAM backend vs. the log-structured disk backend.
//!
//! The paper's nodes keep the whole ledger in RAM; the disk backend
//! bounds resident memory to the write-back cache + sparse key index +
//! spilled bucket list and pays for it with segment I/O at every close.
//! This bench quantifies that trade: for each account count it drives
//! the same payment-load close loop on both backends (RAM twin skipped
//! at the largest size) and records throughput, residency, and disk
//! traffic. Twin points gate on byte-identical ledger header and bucket
//! hashes — the disk backend must be invisible to consensus.
//!
//! ```sh
//! cargo run --release -p stellar-bench --bin exp_store [-- --quick|--full]
//! ```

use std::collections::BTreeMap;
use std::time::Instant;
use stellar_bench::{print_table, write_bench_json};
use stellar_buckets::BucketList;
use stellar_crypto::Hash256;
use stellar_ledger::amount::{xlm, BASE_FEE};
use stellar_ledger::apply::close_ledger;
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::{AccountEntry, LedgerEntry};
use stellar_ledger::header::{LedgerHeader, LedgerParams};
use stellar_ledger::sigcache::SigVerifyCache;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar_ledger::txset::TransactionSet;
use stellar_sim::loadgen::{user_account, user_keys};
use stellar_store::{open_streaming, BackendKind, DiskConfig};
use stellar_telemetry::Json;

/// Ledger closes driven per sweep point.
const CLOSES: u64 = 20;
/// Payments per close. Senders cycle over a small prefix of the account
/// space so signing cost stays flat across sweep sizes.
const TXS_PER_CLOSE: u64 = 50;
/// How many distinct accounts the payment load touches.
const HOT_ACCOUNTS: u64 = 500;
/// Most bytes a disk-backend cache miss may read. A miss reads one
/// record's `entry ‖ crc` (~50 B for an account); a return to
/// whole-segment reads (~1 MiB per miss) fails this at once.
const MAX_READ_BYTES_PER_MISS: f64 = 256.0;

/// Measured outcome of one (accounts, backend) point.
struct Outcome {
    closes_per_sec: f64,
    close_ms_mean: f64,
    resident_bytes: u64,
    disk_bytes: u64,
    bytes_written: u64,
    /// Bytes read from segments per cache miss during the close loop.
    read_bytes_per_miss: f64,
    cache_hit_rate: f64,
    segments: u64,
    compactions: u64,
    header_hash: Hash256,
    bucket_hashes: Vec<Hash256>,
}

/// The synthetic genesis entry stream: `n` accounts with a flat balance
/// (the same shape `genesis_store` materializes, without materializing).
fn genesis_entries(n: u64) -> impl Iterator<Item = LedgerEntry> {
    (0..n).map(|i| LedgerEntry::Account(AccountEntry::new(user_account(i), xlm(1000))))
}

/// Builds the sweep-point store on the chosen backend without ever
/// holding a full RAM copy for disk points.
fn build_store(n: u64, backend: BackendKind) -> LedgerStore {
    match backend {
        BackendKind::Mem => {
            let mut s = LedgerStore::new();
            for e in genesis_entries(n) {
                if let LedgerEntry::Account(a) = e {
                    s.put_account(a);
                }
            }
            s
        }
        BackendKind::Disk => open_streaming(genesis_entries(n), 1, &DiskConfig::default()),
    }
}

/// Drives `CLOSES` payment ledgers on one backend, mirroring the herder
/// close path (bucket blobs staged before the one data-disk sync per
/// close) and returns the measured outcome.
fn run_point(n_accounts: u64, backend: BackendKind) -> Outcome {
    let mut store = build_store(n_accounts, backend);
    // Seed buckets from the synthetic stream, not `store.all_entries()`:
    // the result is identical (bucket construction canonicalizes by
    // key), and it keeps a full read pass over the disk store — one
    // record read per entry — out of the set-up.
    let mut buckets = BucketList::seed(genesis_entries(n_accounts));
    if let Some(disk) = store.disk() {
        buckets.attach_disk(disk, 0);
    }
    let mut header = LedgerHeader::genesis(Hash256::ZERO);
    header.snapshot_hash = buckets.hash();
    let senders = HOT_ACCOUNTS.min(n_accounts);
    let mut next_seq: BTreeMap<u64, u64> = BTreeMap::new();
    let io_before = store.io_stats();

    let t0 = Instant::now();
    for l in 0..CLOSES {
        let mut batch = Vec::with_capacity(TXS_PER_CLOSE as usize);
        for t in 0..TXS_PER_CLOSE {
            let n = l * TXS_PER_CLOSE + t;
            let src = n % senders;
            let seq = {
                let s = next_seq.entry(src).or_insert(1);
                let v = *s;
                *s += 1;
                v
            };
            let tx = Transaction {
                source: user_account(src),
                seq_num: seq,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::Id(n),
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: user_account((src + 1) % senders),
                        asset: Asset::Native,
                        amount: 1 + (n % 100) as i64,
                    },
                }],
            };
            batch.push(TransactionEnvelope::sign(tx, &[&user_keys(src)]));
        }
        let set = TransactionSet::assemble(header.hash(), batch, u32::MAX);
        let res = close_ledger(
            &mut store,
            &header,
            &set,
            header.close_time + 5,
            LedgerParams::default(),
            &mut SigVerifyCache::disabled(),
        );
        for r in &res.results {
            assert!(r.is_success(), "bench tx failed: {r:?}");
        }
        let seq = res.header.ledger_seq;
        buckets.add_batch(seq, &res.changes);
        header = res.header;
        header.snapshot_hash = buckets.hash();
        buckets.persist_levels(seq);
        assert!(store.flush(seq), "no fault injection in this bench");
        buckets.note_synced();
    }
    let elapsed = t0.elapsed();

    let io = store.io_stats();
    let lookups = (io.cache_hits + io.cache_misses)
        .saturating_sub(io_before.cache_hits + io_before.cache_misses);
    let hits = io.cache_hits - io_before.cache_hits;
    let misses = io.cache_misses - io_before.cache_misses;
    Outcome {
        closes_per_sec: CLOSES as f64 / elapsed.as_secs_f64(),
        close_ms_mean: elapsed.as_secs_f64() * 1e3 / CLOSES as f64,
        resident_bytes: store.resident_bytes() + buckets.resident_bytes(),
        disk_bytes: io.disk_bytes,
        bytes_written: io.bytes_written - io_before.bytes_written,
        read_bytes_per_miss: if misses == 0 {
            0.0
        } else {
            (io.bytes_read - io_before.bytes_read) as f64 / misses as f64
        },
        cache_hit_rate: if lookups == 0 {
            1.0
        } else {
            hits as f64 / lookups as f64
        },
        segments: io.segments,
        compactions: io.compactions,
        header_hash: header.hash(),
        bucket_hashes: buckets.level_hashes(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let full = std::env::args().any(|a| a == "--full");
    // (accounts, run the RAM twin too?)
    let points: Vec<(u64, bool)> = if quick {
        // Beyond the default cache (65,536 entries), so the close loop
        // misses and the bytes-per-miss gate has something to judge.
        vec![(100_000, true)]
    } else if full {
        vec![(100_000, true), (1_000_000, true), (10_000_000, false)]
    } else {
        vec![(100_000, true), (1_000_000, true)]
    };

    println!("=== E17: storage-engine closes/s and residency, RAM vs disk ===\n");
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &(accounts, twin) in &points {
        let mut per_backend: Vec<(BackendKind, Outcome)> = Vec::new();
        if twin {
            eprintln!("running {accounts} accounts on mem …");
            per_backend.push((BackendKind::Mem, run_point(accounts, BackendKind::Mem)));
        }
        eprintln!("running {accounts} accounts on disk …");
        per_backend.push((BackendKind::Disk, run_point(accounts, BackendKind::Disk)));

        // Twin gate: consensus-visible state must be byte-identical.
        if let [(_, mem), (_, disk)] = &per_backend[..] {
            assert_eq!(
                mem.header_hash, disk.header_hash,
                "{accounts} accounts: header hash diverged between backends"
            );
            assert_eq!(
                mem.bucket_hashes, disk.bucket_hashes,
                "{accounts} accounts: bucket hashes diverged between backends"
            );
        }

        for (kind, out) in &per_backend {
            rows.push(vec![
                format!("{accounts}"),
                kind.name().to_string(),
                format!("{:.1}", out.closes_per_sec),
                format!("{:.1}", out.close_ms_mean),
                format!("{:.1}", out.resident_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", out.disk_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", out.cache_hit_rate),
                format!("{:.0}", out.read_bytes_per_miss),
                format!("{}", out.segments),
                format!("{}", out.compactions),
            ]);
            results.push(
                Json::obj()
                    .set("accounts", accounts)
                    .set("backend", kind.name())
                    .set("closes", CLOSES)
                    .set("txs_per_close", TXS_PER_CLOSE)
                    .set("closes_per_sec", out.closes_per_sec)
                    .set("close_ms_mean", out.close_ms_mean)
                    .set("resident_bytes", out.resident_bytes)
                    .set("disk_bytes", out.disk_bytes)
                    .set("bytes_written", out.bytes_written)
                    .set("cache_hit_rate", out.cache_hit_rate)
                    .set("read_bytes_per_miss", out.read_bytes_per_miss)
                    .set("segments", out.segments)
                    .set("compactions", out.compactions)
                    .set("header_hash", out.header_hash.to_hex()),
            );
        }

        // The point of the disk backend: residency is the bounded
        // write-back cache plus the sparse key index (~72 B/key) plus
        // spilled-bucket bookkeeping — never the entry data itself.
        let (_, disk_out) = per_backend.last().expect("disk run present");
        // A miss costs one record, not one segment.
        assert!(
            disk_out.cache_hit_rate < 1.0,
            "{accounts} accounts: the close loop never missed the cache"
        );
        assert!(
            disk_out.read_bytes_per_miss <= MAX_READ_BYTES_PER_MISS,
            "{accounts} accounts: a cache miss read {:.0} bytes (allowed {MAX_READ_BYTES_PER_MISS})",
            disk_out.read_bytes_per_miss
        );
        if accounts >= 1_000_000 {
            let bound = 96 * 1024 * 1024 + accounts * 96;
            assert!(
                disk_out.resident_bytes < bound,
                "{accounts} accounts: disk-backend residency not bounded: \
                 {} bytes (allowed {bound})",
                disk_out.resident_bytes
            );
        }
    }
    print_table(
        &[
            "accounts",
            "backend",
            "closes/s",
            "close(ms)",
            "resident(MiB)",
            "disk(MiB)",
            "hit rate",
            "B/miss",
            "segs",
            "compactions",
        ],
        &rows,
    );

    let doc = Json::obj()
        .set("schema", "stellar-bench/v2")
        .set("name", "store")
        .set("quick", quick)
        .set("results", Json::Arr(results));
    write_bench_json("store", &doc).expect("write BENCH_store.json");
}
