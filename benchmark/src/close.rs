//! The close-pipeline workloads (`pay_mem`, `dex_mem`, `pay_disk`): one
//! [`Herder`] closing ledgers in a closed loop — the single client hands
//! over the next ledger's transactions only once the previous ledger is
//! durable and indexed.
//!
//! Two drivers run the same envelopes. The untraced one calls the herder
//! as the simulator does (`queue.submit`, `make_proposal`,
//! `apply_externalized`, `Indexer::ingest`) and yields the end-to-end
//! numbers. The staged one calls each layer's public function in the
//! herder's order with a span around each call, and must externalize
//! byte-identical headers.

use crate::gen::{self, DexGen, PayGen};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::{Outcome, RunArgs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use stellar_buckets::BucketList;
use stellar_crypto::codec::Decode;
use stellar_crypto::Hash256;
use stellar_herder::herder::{CloseEvent, LclRecord, LCL_KEY};
use stellar_herder::{Herder, StellarValue};
use stellar_horizon::{Horizon, Indexer};
use stellar_ledger::apply::close_ledger;
use stellar_ledger::asset::Asset;
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::TransactionEnvelope;
use stellar_ledger::txset::TransactionSet;
use stellar_ledger::StoreIoStats;
use stellar_scp::NodeId;
use stellar_sim::loadgen::{genesis_store, user_account};
use stellar_store::{BackendKind, DiskConfig};
use stellar_telemetry::TraceStore;

/// Which transactions a close workload submits.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Single payments; `hot` is `(hot set size, share of endpoints)`.
    Payments {
        /// Skew of the endpoints, if any.
        hot: Option<(u64, f64)>,
    },
    /// The market mix over one hot order book.
    Dex,
}

/// The shape of one close workload. Everything not listed here is the
/// program's default (`LedgerParams::default()`, `DiskConfig::default()`).
#[derive(Clone, Copy, Debug)]
pub struct CloseShape {
    /// Genesis accounts.
    pub accounts: u64,
    /// Transactions submitted per ledger.
    pub tx_per_ledger: u64,
    /// Ledger storage backend.
    pub backend: BackendKind,
    /// Transaction mix.
    pub traffic: Traffic,
    /// Whether a Horizon indexer ingests every close.
    pub horizon: bool,
    /// A batch of 32 Horizon reads after every this-many ledgers (0: none).
    pub query_every: u64,
    /// Ledgers closed per second of `--seconds`, chosen once so that the
    /// untraced loop takes about `--seconds` on the 2-core reference box.
    pub ledgers_per_second: f64,
}

impl CloseShape {
    /// The shape of the named workload, if it is a close workload.
    pub fn named(name: &str) -> Option<CloseShape> {
        match name {
            "pay_mem" => Some(CloseShape {
                accounts: 100_000,
                tx_per_ledger: 1000,
                backend: BackendKind::Mem,
                traffic: Traffic::Payments { hot: None },
                horizon: true,
                query_every: 0,
                ledgers_per_second: 12.0,
            }),
            "dex_mem" => Some(CloseShape {
                accounts: 20_000,
                tx_per_ledger: 400,
                backend: BackendKind::Mem,
                traffic: Traffic::Dex,
                horizon: true,
                query_every: 4,
                ledgers_per_second: 27.0,
            }),
            // No indexer here: `Indexer::attach` scans the whole state,
            // which on the disk backend is one checksummed segment read
            // per entry — minutes at this size.
            "pay_disk" => Some(CloseShape {
                accounts: 300_000,
                tx_per_ledger: 200,
                backend: BackendKind::Disk,
                traffic: Traffic::Payments {
                    hot: Some((20_000, 0.9)),
                },
                horizon: false,
                query_every: 0,
                ledgers_per_second: 16.0,
            }),
            _ => None,
        }
    }

    fn ledgers(&self, args: &RunArgs) -> u64 {
        ((args.seconds * self.ledgers_per_second).round() as u64 / args.shrink).max(2)
    }

    /// The shape at `1/shrink` of its accounts.
    fn shrunk(&self, shrink: u64) -> CloseShape {
        CloseShape {
            accounts: self.accounts / shrink,
            ..*self
        }
    }

    fn genesis(&self) -> LedgerStore {
        match self.traffic {
            Traffic::Payments { .. } => genesis_store(self.accounts, 1000),
            Traffic::Dex => LedgerStore::from_entries(gen::dex_genesis(self.accounts)),
        }
    }
}

/// The envelope source of a close workload.
enum Generator {
    Pay(PayGen),
    Dex(DexGen),
}

impl Generator {
    fn new(shape: &CloseShape, seed: u64) -> Generator {
        match shape.traffic {
            Traffic::Payments { hot: None } => {
                Generator::Pay(PayGen::uniform(seed, shape.accounts))
            }
            Traffic::Payments {
                hot: Some((hot, share)),
            } => Generator::Pay(PayGen::skewed(seed, shape.accounts, hot, share)),
            Traffic::Dex => Generator::Dex(DexGen::new(seed, shape.accounts)),
        }
    }

    fn ledger(&mut self, n: u64) -> Vec<TransactionEnvelope> {
        match self {
            Generator::Pay(g) => g.ledger(n),
            Generator::Dex(g) => g.ledger(n),
        }
    }
}

/// One validator plus its Horizon indexer.
struct Node {
    herder: Herder,
    indexer: Option<Indexer>,
}

/// Genesis + store open + bucket seed + herder + cache warm-up (+ indexer
/// attach).
fn setup(shape: &CloseShape) -> Node {
    let template = shape.genesis();
    let store = stellar_store::open(&template, shape.backend, &DiskConfig::default());
    let mut herder = match store.disk() {
        None => Herder::new(NodeId(0), store, BTreeMap::new()),
        // `Herder::new` seeds the bucket list by scanning the store it is
        // given; on the disk backend that is a random segment read per
        // entry. Seed from the genesis template instead — the bucket list
        // is canonical in its input, so the hashes are the same.
        Some(disk) => {
            let mut buckets = BucketList::seed(template.all_entries());
            buckets.attach_disk(disk, 0);
            let mut header = LedgerHeader::genesis(Hash256::ZERO);
            header.snapshot_hash = buckets.hash();
            Herder::from_recovered(NodeId(0), store, buckets, header, BTreeMap::new())
        }
    };
    // End-to-end numbers are taken with the program's own lifecycle
    // tracing off; the staged driver records its own spans instead.
    herder.telemetry.spans.configure(0, TraceStore::DEFAULT_CAP);
    // A run is too short to fill the store's cache with the hot set, so
    // read it in once here: the timed ledgers then see the steady state
    // (hot accounts cached, the uniform tail missing) from the first one.
    // Key order is segment order, so each segment is read once.
    if let Traffic::Payments {
        hot: Some((hot, _)),
    } = shape.traffic
    {
        let mut ids: Vec<_> = (0..hot.min(shape.accounts)).map(user_account).collect();
        ids.sort_unstable();
        for id in ids {
            black_box(herder.store.account(id));
        }
    }
    let indexer = shape.horizon.then(|| Indexer::attach(&mut herder));
    Node { herder, indexer }
}

/// What a driver measured over its ledgers.
#[derive(Default)]
struct LoopResult {
    /// Header hash after every ledger.
    headers: Vec<Hash256>,
    /// Wall ms per ledger, proposal → durable + ingested.
    close_ms: Vec<f64>,
    /// Wall ms per transaction, its submit call → its ledger durable.
    submit_to_apply_ms: Vec<f64>,
    /// Wall ms per Horizon read batch.
    query_ms: Vec<f64>,
    /// Σ wall seconds over submit + propose + close + ingest.
    busy_s: f64,
    /// Transactions submitted.
    attempted: u64,
    /// Transactions applied successfully.
    applied: u64,
    /// Transactions refused at submit, left out of the set, or failed.
    failed: u64,
    /// Parallel-apply counters, summed (staged driver only).
    waves: u64,
    conflict_reruns: u64,
    footprint_fallbacks: u64,
}

impl LoopResult {
    fn tx_per_s(&self) -> f64 {
        stats::ratio(self.applied as f64, self.busy_s)
    }
}

/// Books one closed ledger: every submitted transaction must be in the
/// set and succeed; one refused at submit, left out or failed counts as
/// failed.
fn account_close(out: &mut LoopResult, submitted: u64, in_set: u64, failed_in_set: u64) {
    let ok = in_set - failed_in_set;
    out.attempted += submitted;
    out.applied += ok;
    out.failed += submitted - ok.min(submitted);
}

/// 8 × (account, account-history page, order book, trades) against the
/// live node, as a wallet front end polls them.
fn query_batch(node: &Node, rng: &mut StdRng, accounts: u64, rec: &mut Recorder) {
    let indexer = node.indexer.as_ref().expect("queries need the indexer");
    let books = [(gen::usd(), Asset::Native), (gen::eur(), gen::usd())];
    for round in 0..8 {
        let id = user_account(rng.gen_range(0..gen::trader_count(accounts)));
        let (selling, buying) = &books[round % 2];
        rec.span("horizon.api.account", || {
            black_box(Horizon::account(&node.herder, id).expect("trader exists"));
        });
        rec.span("horizon.api.account_history", || {
            black_box(indexer.account_history(id, None, 32).expect("valid page"));
        });
        rec.span("horizon.api.order_book", || {
            black_box(
                Horizon::order_book(&node.herder, selling, buying, None, 20).expect("valid page"),
            );
        });
        rec.span("horizon.api.trades", || {
            black_box(
                indexer
                    .trades(selling, buying, None, 32)
                    .expect("valid page"),
            );
        });
    }
}

/// Runs a query batch when one is due after ledger number `done`.
fn maybe_query(
    shape: &CloseShape,
    node: &Node,
    done: u64,
    rng: &mut StdRng,
    rec: &mut Recorder,
    out: &mut LoopResult,
) {
    if shape.query_every == 0 || !done.is_multiple_of(shape.query_every) {
        return;
    }
    rec.set_group(done);
    let t = Instant::now();
    let id = rec.enter("horizon.query_batch");
    query_batch(node, rng, shape.accounts, rec);
    rec.exit(id);
    out.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
}

/// The untraced driver: the herder's own entry points, nothing between.
fn run_herder(
    shape: &CloseShape,
    node: &mut Node,
    gen: &mut Generator,
    seed: u64,
    ledgers: u64,
) -> LoopResult {
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x0E27);
    let mut no_spans = Recorder::disabled();
    let mut out = LoopResult::default();
    for done in 1..=ledgers {
        let batch = gen.ledger(shape.tx_per_ledger);
        let submitted = batch.len() as u64;
        let mut submit_at = Vec::with_capacity(batch.len());
        let herder = &mut node.herder;
        let t0 = Instant::now();
        for env in batch {
            submit_at.push(Instant::now());
            // A refusal shows as a transaction missing from the set.
            let _ = herder
                .queue
                .submit(&herder.store, env, &mut herder.sig_cache);
        }
        // The paper's cadence: consensus picks a close time 5 s on.
        herder.now += 5;
        let t_propose = Instant::now();
        let (value, _flooded_set) = herder.make_proposal();
        let slot = herder.current_slot();
        assert!(
            herder.apply_externalized(slot, &value),
            "own proposal applies"
        );
        if let Some(indexer) = node.indexer.as_mut() {
            indexer.ingest(herder);
        }
        let t_end = Instant::now();
        out.busy_s += (t_end - t0).as_secs_f64();
        out.close_ms.push((t_end - t_propose).as_secs_f64() * 1e3);
        out.submit_to_apply_ms
            .extend(submit_at.iter().map(|s| (t_end - *s).as_secs_f64() * 1e3));
        let closed = node
            .herder
            .close_stats
            .last()
            .expect("a ledger just closed");
        out.headers.push(closed.header_hash);
        account_close(
            &mut out,
            submitted,
            closed.tx_count as u64,
            closed.failed_tx_count as u64,
        );
        maybe_query(shape, node, done, &mut query_rng, &mut no_spans, &mut out);
    }
    out
}

/// The staged driver: `Herder::make_proposal` and
/// `Herder::apply_externalized` unrolled into the public functions they
/// call, in their order, one span per call under a per-ledger span.
fn run_staged(
    shape: &CloseShape,
    node: &mut Node,
    seed: u64,
    ledgers: u64,
    rec: &mut Recorder,
) -> LoopResult {
    let mut gen = Generator::new(shape, seed);
    let mut query_rng = StdRng::seed_from_u64(seed ^ 0x0E27);
    let mut out = LoopResult::default();
    for done in 1..=ledgers {
        let batch = gen.ledger(shape.tx_per_ledger);
        let submitted = batch.len() as u64;
        let h = &mut node.herder;
        rec.set_group(done);
        let t0 = Instant::now();
        let ledger_span = rec.enter("ledger");

        rec.span("herder.queue.submit", || {
            for env in batch {
                let _ = h.queue.submit(&h.store, env, &mut h.sig_cache);
            }
        });
        h.now += 5;
        let t_propose = Instant::now();

        // Herder::make_proposal.
        let candidates = rec.span("herder.queue.candidates", || h.queue.candidates(&h.store));
        let set = rec.span("ledger.txset.assemble", || {
            TransactionSet::assemble(h.header.hash(), candidates, h.header.params.max_tx_set_ops)
        });
        let close_time = h.now.max(h.header.close_time + 1);
        // The herder keeps a copy for peers to fetch, and floods another.
        let (value, set) = rec.span("herder.proposal.register", || {
            let value = StellarValue::new(set.hash(), close_time);
            h.known_tx_sets.insert(set.hash(), set.clone());
            let _flooded_set = black_box(set);
            let set = h
                .known_tx_sets
                .remove(&value.tx_set_hash)
                .expect("just registered");
            (value, set)
        });

        // Herder::apply_externalized.
        let mut result = rec.span("ledger.apply.close_ledger", || {
            close_ledger(
                &mut h.store,
                &h.header,
                &set,
                value.close_time,
                h.header.params,
                &mut h.sig_cache,
            )
        });
        out.waves += result.stats.waves;
        out.conflict_reruns += result.stats.conflict_reruns;
        out.footprint_fallbacks += result.stats.footprint_fallbacks;
        let seq = result.header.ledger_seq;
        rec.span("buckets.bucket_list.add_batch", || {
            h.buckets.add_batch(seq, &result.changes)
        });
        let event = rec.span("herder.feed.push", || {
            node.indexer.is_some().then(|| CloseEvent {
                ledger_seq: seq,
                close_time: value.close_time,
                txs: set.txs.clone(),
                results: result.results.clone(),
                changes: std::mem::take(&mut result.changes),
            })
        });
        let mut header = result.header;
        header.snapshot_hash = rec.span("buckets.bucket_list.hash", || h.buckets.hash());
        rec.span("buckets.archive.publish", || {
            h.archive.publish(&header, &set, &mut h.buckets)
        });
        h.header = header;
        rec.span("herder.queue.prune", || h.queue.prune(&h.store));
        let in_set = set.txs.len() as u64;
        let bad = result.results.iter().filter(|r| !r.is_success()).count() as u64;
        h.known_tx_sets.insert(value.tx_set_hash, set);
        // Data disk first, then the write-ahead record.
        rec.span("buckets.bucket_list.persist_levels", || {
            h.buckets.persist_levels(seq)
        });
        let synced = rec.span("store.disk.flush", || h.store.flush(seq));
        if synced {
            h.buckets.note_synced();
        }
        rec.span("persist.lcl_write", || h.persist_lcl());
        if let (Some(indexer), Some(event)) = (node.indexer.as_mut(), event.as_ref()) {
            rec.span("horizon.ingest.apply_close", || {
                indexer.apply_close(event, &h.archive);
                indexer.note_head(seq);
            });
        }

        rec.exit(ledger_span);
        let t_end = Instant::now();
        out.busy_s += (t_end - t0).as_secs_f64();
        out.close_ms.push((t_end - t_propose).as_secs_f64() * 1e3);
        account_close(&mut out, submitted, in_set, bad);
        out.headers.push(node.herder.header.hash());
        maybe_query(shape, node, done, &mut query_rng, rec, &mut out);
    }
    out
}

/// Crashes the node's disks with one ledger applied but never flushed,
/// recovers with `recover_node`, and checks that the recovered state is
/// exactly the last durable ledger. Returns the wall time of crash →
/// recovered → verified, or an error describing the failed check.
fn crash_and_recover(
    shape: &CloseShape,
    mut node: Node,
    gen: &mut Generator,
) -> Result<Duration, String> {
    let h = &mut node.herder;
    let durable_header = h.header.clone();
    let durable_levels = h.buckets.level_hashes();
    let probes: Vec<_> = (0..64)
        .map(|i| user_account(i * (shape.accounts / 64).max(1)))
        .map(|id| (id, h.store.account(id)))
        .collect();

    // One more ledger reaches the store and the bucket list but is never
    // flushed: the writes a power cut has to discard.
    for env in gen.ledger(shape.tx_per_ledger) {
        let _ = h.queue.submit(&h.store, env, &mut h.sig_cache);
    }
    h.now += 5;
    let (value, set) = h.make_proposal();
    let lost = close_ledger(
        &mut h.store,
        &h.header,
        &set,
        value.close_time,
        h.header.params,
        &mut h.sig_cache,
    );
    h.buckets.add_batch(lost.header.ledger_seq, &lost.changes);
    h.buckets.persist_levels(lost.header.ledger_seq);
    let disk = h.store.disk().ok_or("pay_disk runs on the disk backend")?;
    if disk.borrow().pending_len() == 0 {
        return Err("no unsynced write was pending at the crash".into());
    }
    let mut wal = node.herder.persist;
    drop(node.indexer);

    let t = Instant::now();
    wal.crash();
    disk.borrow_mut().crash();
    let lcl = wal
        .read(LCL_KEY)
        .and_then(|b| LclRecord::from_bytes(&b).ok())
        .ok_or("no durable latest-closed-ledger record")?;
    let (store, mut buckets) = stellar_store::recover_node(
        disk,
        &lcl.header,
        &lcl.bucket_hashes,
        &DiskConfig::default(),
    )
    .ok_or("recover_node refused the data disk")?;
    if lcl.header != durable_header || lcl.header.hash() != durable_header.hash() {
        return Err("recovered header is not the last durable one".into());
    }
    if buckets.level_hashes() != durable_levels || buckets.hash() != durable_header.snapshot_hash {
        return Err("recovered bucket hashes differ from the last durable ones".into());
    }
    let elapsed = t.elapsed();
    if store.account_count() as u64 != shape.accounts {
        return Err("recovered store lost accounts".into());
    }
    for (id, before) in probes {
        if store.account(id) != before {
            return Err(format!("account {id} differs after recovery"));
        }
    }
    Ok(elapsed)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Runs one close workload and fills in its metrics.
pub fn run(shape: &CloseShape, args: &RunArgs, out: &mut Outcome) {
    let shape = &shape.shrunk(args.shrink);
    let ledgers = shape.ledgers(args);
    out.note("ledgers", ledgers);
    out.note("tx_per_ledger", shape.tx_per_ledger);
    out.note("accounts", shape.accounts);
    out.note("backend", shape.backend.name());

    let (setup_s, mut node) = crate::timed_setup(args.setup_repeats, || setup(shape));
    let io_before = node.herder.store.io_stats();
    let wal_before = node.herder.persist.stats().bytes_written;
    let mut gen = Generator::new(shape, args.seed);
    let plain = run_herder(shape, &mut node, &mut gen, args.seed, ledgers);
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    out.note(
        "final_header",
        plain.headers.last().map_or(String::new(), Hash256::to_hex),
    );

    out.set("tx_per_s", plain.tx_per_s());
    out.set("ledgers_per_s", stats::ratio(ledgers as f64, plain.busy_s));
    out.set("close_ms_p50", stats::percentile(&plain.close_ms, 50.0));
    out.set("close_ms_p95", stats::percentile(&plain.close_ms, 95.0));
    out.set(
        "submit_to_apply_ms_p50",
        stats::percentile(&plain.submit_to_apply_ms, 50.0),
    );
    out.set(
        "submit_to_apply_ms_p99",
        stats::percentile(&plain.submit_to_apply_ms, 99.0),
    );
    out.set("setup_s", setup_s);
    out.keep_samples("close_ms", &plain.close_ms);
    out.note_samples("submit_to_apply_ms", plain.submit_to_apply_ms.len());

    // Counters of the untraced run (they do not depend on the driver).
    let io = node.herder.store.io_stats();
    let d = |f: fn(&StoreIoStats) -> u64| (f(&io) - f(&io_before)) as f64;
    let lookups = d(|s| s.cache_hits) + d(|s| s.cache_misses);
    let txs = plain.applied as f64;
    out.set(
        "store.disk.cache_hit_ratio",
        stats::ratio(d(|s| s.cache_hits), lookups),
    );
    out.set(
        "store.disk.read_bytes_per_tx",
        stats::ratio(d(|s| s.bytes_read), txs),
    );
    out.set(
        "store.disk.written_bytes_per_tx",
        stats::ratio(d(|s| s.bytes_written), txs),
    );
    out.set(
        "store.disk.fsyncs_per_ledger",
        stats::ratio(d(|s| s.fsyncs), ledgers as f64),
    );
    out.set("store.disk.segments", io.segments as f64);
    out.set("store.disk.compactions", d(|s| s.compactions));
    let on_disk = node.herder.store.disk().is_some();
    out.set(
        "store.disk.resident_mb",
        if on_disk {
            mb(node.herder.store.resident_bytes())
        } else {
            0.0
        },
    );
    out.set(
        "buckets.bucket_list.resident_mb",
        mb(node.herder.buckets.resident_bytes()),
    );
    out.set(
        "buckets.bucket_list.spilled_mb",
        mb(node.herder.buckets.spilled_bytes()),
    );
    out.set(
        "persist.bytes_written_per_ledger",
        stats::ratio(
            (node.herder.persist.stats().bytes_written - wal_before) as f64,
            ledgers as f64,
        ),
    );
    let cache = &node.herder.sig_cache;
    out.set(
        "ledger.sigcache.hit_ratio",
        stats::ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
    );

    if on_disk {
        match crash_and_recover(shape, node, &mut gen) {
            Ok(took) => out.set("store.disk.recover_us", took.as_secs_f64() * 1e6),
            Err(why) => out.fail(&format!("crash recovery: {why}")),
        }
    } else {
        drop(node);
    }

    if !args.traced {
        return;
    }
    let mut node = setup(shape);
    let mut rec = Recorder::new();
    let staged = run_staged(shape, &mut node, args.seed, ledgers, &mut rec);
    if staged.headers != plain.headers {
        out.fail("staged driver externalized different headers than the herder");
    }
    if staged.failed != plain.failed {
        out.fail("staged driver failed a different number of transactions");
    }
    let by_name = spans::self_us_by_name(rec.spans());
    // Every stage metric is its span's name plus the unit.
    for span in [
        "herder.queue.submit",
        "herder.queue.candidates",
        "herder.queue.prune",
        "herder.proposal.register",
        "herder.feed.push",
        "ledger.txset.assemble",
        "ledger.apply.close_ledger",
        "buckets.bucket_list.add_batch",
        "buckets.bucket_list.hash",
        "buckets.bucket_list.persist_levels",
        "buckets.archive.publish",
        "store.disk.flush",
        "persist.lcl_write",
        "horizon.ingest.apply_close",
        "horizon.api.account",
        "horizon.api.account_history",
        "horizon.api.order_book",
        "horizon.api.trades",
    ] {
        out.set(&format!("{span}_us"), spans::median_self_us(&by_name, span));
    }
    out.set(
        "horizon.query_ms_p50",
        stats::percentile(&staged.query_ms, 50.0),
    );
    out.set(
        "horizon.query_ms_p95",
        stats::percentile(&staged.query_ms, 95.0),
    );
    out.note_samples("horizon.query_ms", staged.query_ms.len());
    out.set("ledger.parallel.waves", staged.waves as f64);
    out.set(
        "ledger.parallel.conflict_reruns",
        staged.conflict_reruns as f64,
    );
    out.set(
        "ledger.parallel.footprint_fallbacks",
        staged.footprint_fallbacks as f64,
    );
    out.set(
        "bench.stage_sum_ratio",
        spans::stage_sum_ratio(rec.spans(), "ledger"),
    );
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (1.0 - stats::ratio(staged.tx_per_s(), plain.tx_per_s())),
    );
    out.trace = Some(rec.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten ledgers of the named workload over 1/50 of its accounts.
    fn run_small(name: &str, seed: u64, traced: bool) -> Outcome {
        let shape = CloseShape {
            ledgers_per_second: 10.0,
            ..CloseShape::named(name).expect("close workload")
        };
        let args = RunArgs {
            workload: name.to_string(),
            seed,
            seconds: 50.0,
            traced,
            setup_repeats: 1,
            shrink: 50,
        };
        let mut out = Outcome::new(&args);
        run(&shape, &args, &mut out);
        out
    }

    #[test]
    fn stages_account_for_the_ledger_and_match_the_herder() {
        // 10 ledgers of pay_mem: the stage spans must sum to the ledger
        // span within 5%, and the staged headers must equal the herder's
        // (a mismatch marks the outcome incorrect).
        let out = run_small("pay_mem", 11, true);
        assert!(out.correct, "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, 10 * 1000);
        let ratio = out.value("bench.stage_sum_ratio");
        assert!((0.95..=1.05).contains(&ratio), "stage_sum_ratio {ratio}");
        assert!(out.trace.is_some());
    }

    #[test]
    fn same_seed_same_final_header_other_seed_another() {
        let a = run_small("pay_mem", 3, false);
        let b = run_small("pay_mem", 3, false);
        let c = run_small("pay_mem", 4, false);
        assert!(a.correct && b.correct && c.correct);
        assert_eq!(a.fingerprint["final_header"], b.fingerprint["final_header"]);
        assert_ne!(a.fingerprint["final_header"], c.fingerprint["final_header"]);
    }

    #[test]
    fn dex_fails_exactly_the_intended_number_of_transactions() {
        // The market generator intends no failure: every cross fills,
        // every path finds liquidity, every cancel finds its offer (so
        // the predicted offer ids are the ledger's), on two seeds.
        for seed in [5, 6] {
            let out = run_small("dex_mem", seed, true);
            assert!(out.correct, "{:?}", out.problems);
            assert_eq!(out.failed, 0);
            assert_eq!(out.attempted, 10 * 400);
            assert!(out.value("horizon.query_ms_p50") > 0.0);
        }
    }

    #[test]
    fn disk_run_recovers_its_last_durable_ledger() {
        let out = run_small("pay_disk", 9, false);
        assert!(out.correct, "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.value("store.disk.recover_us") > 0.0);
        assert!(out.value("store.disk.fsyncs_per_ledger") >= 1.0);
    }
}
