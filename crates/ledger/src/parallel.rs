//! Footprint-scheduled parallel ledger apply.
//!
//! The sequential close applies every transaction in canonical order
//! against one delta. This module reproduces *exactly the same bytes* —
//! headers, result hashes, change feed — using a worker pool:
//!
//! 1. **Schedule.** Each transaction's declared footprint
//!    ([`crate::footprint`]) partitions the set into waves of mutually
//!    non-conflicting transactions (canonical order preserved for every
//!    conflicting pair).
//! 2. **Snapshot.** Per wave, the union of declared keys is prefetched
//!    from the master — one [`LedgerDelta`] over the backend holding
//!    every transaction committed so far this close — into an owned,
//!    `Sync` snapshot (the master itself sits on `Rc`-backed backends and
//!    cannot cross threads).
//! 3. **Execute.** Workers run each transaction against the snapshot
//!    through a recording view that logs every read and flags any access
//!    outside the transaction's own declared footprint (an **escape**) —
//!    including order-book pages that bottom out in a truncated prefetch.
//!    Writes land in a per-transaction delta (Sui-writeback-style); new
//!    offers get ids from a per-transaction *provisional* range.
//! 4. **Commit.** Transactions commit in canonical order. A transaction
//!    that escaped — or whose recorded reads overlap keys written by an
//!    earlier re-run in the same wave — is discarded and **re-run
//!    sequentially** in a delta over the master (Block-STM-style
//!    fallback: never wrong, only slower). Either way the master absorbs
//!    the transaction's change set, exactly as the sequential close's
//!    delta absorbs a transaction fork.
//! 5. **Renumber.** After all waves, provisional offer ids in the
//!    master's changes are renumbered to the exact ids sequential apply
//!    would have allocated (the mapping is order-preserving, so
//!    price-time priority never observes the difference), and the result
//!    becomes the commit feed.
//!
//! Determinism therefore never rests on footprint accuracy: a wrong or
//! incomplete footprint can only cause re-runs, and the twin-run gate
//! (`tests/parallel_determinism.rs`) holds by construction.

use crate::apply::apply_transaction_with_keys;
use crate::asset::Asset;
use crate::backend::{BookCursor, LedgerRead};
use crate::entry::{
    AccountEntry, AccountId, DataEntry, LedgerEntry, LedgerKey, OfferEntry, TrustLineEntry,
};
use crate::footprint::{book_pair, schedule_waves, tx_footprint, Footprint, FpKey};
use crate::header::LedgerParams;
use crate::ops::ExecEnv;
use crate::sigcache::SigVerifyCache;
use crate::store::{DeltaChanges, LedgerDelta, LedgerStore};
use crate::tx::{TransactionEnvelope, TxResult};
use crate::txset::TransactionSet;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use stellar_crypto::sign::PublicKey;

/// Offer-id distance between consecutive transactions' provisional
/// ranges; no transaction allocates remotely close to this many offers.
const PROVISIONAL_STRIDE: u64 = 1 << 32;

/// Book depth prefetched into a wave snapshot per declared pair
/// direction — four `orderbook::BOOK_PAGE`-sized pages. Crossings that
/// sweep deeper escape and re-run.
const BOOK_PREFETCH: usize = 64;

/// Counters describing one parallel close (telemetry).
#[derive(Clone, Debug, Default)]
pub struct ApplyStats {
    /// Number of scheduled waves (0 for a sequential close).
    pub waves: u64,
    /// Transactions per wave, in wave order.
    pub wave_sizes: Vec<usize>,
    /// Transactions whose worker execution was committed as-is.
    pub parallel_txs: u64,
    /// Transactions re-run sequentially after an escape or a read
    /// overlapping an earlier re-run's writes.
    pub conflict_reruns: u64,
    /// Transactions that skipped worker execution because their declared
    /// footprint is imprecise (path payments).
    pub footprint_fallbacks: u64,
    /// Worker threads used.
    pub threads: u64,
}

/// A prefetched, owned, thread-shareable snapshot of every key a wave's
/// transactions declared. A key *present* in a map (even as `None`) was
/// prefetched; an *absent* key was not, and reading it is an escape.
#[derive(Default)]
struct WaveSnapshot {
    accounts: HashMap<AccountId, Option<AccountEntry>>,
    trustlines: HashMap<(AccountId, Asset), Option<TrustLineEntry>>,
    offers: HashMap<u64, Option<OfferEntry>>,
    data: HashMap<(AccountId, String), Option<DataEntry>>,
    /// Directional `(selling, buying)` → prefetched book prefix.
    books: HashMap<(Asset, Asset), BookSnap>,
}

struct BookSnap {
    cursors: Vec<BookCursor>,
    /// Whether `cursors` is the *whole* book for this direction. If not,
    /// a page read that exhausts the prefix must escape — silently
    /// serving a truncated book would corrupt deep crossings.
    complete: bool,
}

fn build_snapshot(view: &dyn LedgerRead, wave_footprints: &[&Footprint]) -> WaveSnapshot {
    let mut snap = WaveSnapshot::default();
    let fetch_book = |snap: &mut WaveSnapshot, selling: &Asset, buying: &Asset| {
        let dir = (selling.clone(), buying.clone());
        if snap.books.contains_key(&dir) {
            return;
        }
        let cursors = view.book_page(selling, buying, None, BOOK_PREFETCH);
        let complete = cursors.len() < BOOK_PREFETCH;
        for &(_, id) in &cursors {
            snap.offers.entry(id).or_insert_with(|| view.offer(id));
        }
        snap.books.insert(dir, BookSnap { cursors, complete });
    };
    for fp in wave_footprints {
        for key in fp.reads.iter().chain(fp.writes.iter()) {
            match key {
                FpKey::Account(id) => {
                    snap.accounts
                        .entry(*id)
                        .or_insert_with(|| view.account(*id));
                }
                FpKey::TrustLine(id, asset) => {
                    snap.trustlines
                        .entry((*id, asset.clone()))
                        .or_insert_with(|| view.trustline(*id, asset));
                }
                FpKey::Offer(id) => {
                    snap.offers.entry(*id).or_insert_with(|| view.offer(*id));
                }
                FpKey::Data(id, name) => {
                    snap.data
                        .entry((*id, name.clone()))
                        .or_insert_with(|| view.data(*id, name));
                }
                FpKey::Book(a, b) => {
                    fetch_book(&mut snap, a, b);
                    fetch_book(&mut snap, b, a);
                }
            }
        }
    }
    snap
}

/// Everything a worker observed executing one transaction: the concrete
/// keys it read and whether any access left its declared footprint.
#[derive(Default)]
struct ReadLog {
    accounts: HashSet<AccountId>,
    trustlines: HashSet<(AccountId, Asset)>,
    offers: HashSet<u64>,
    data: HashSet<(AccountId, String)>,
    /// Directional book pages read.
    books: HashSet<(Asset, Asset)>,
    escaped: bool,
}

/// Read surface a worker executes against: serves from the wave snapshot,
/// records every read, and flags escapes — reads outside the
/// transaction's own declared footprint, un-prefetched keys, or book
/// pages that bottom out in a truncated prefix.
struct RecordingView<'a> {
    snap: &'a WaveSnapshot,
    allowed: &'a Footprint,
    log: RefCell<ReadLog>,
}

impl RecordingView<'_> {
    fn escape(&self) {
        self.log.borrow_mut().escaped = true;
    }
}

impl LedgerRead for RecordingView<'_> {
    fn account(&self, id: AccountId) -> Option<AccountEntry> {
        self.log.borrow_mut().accounts.insert(id);
        if !self.allowed.covers(&FpKey::Account(id)) {
            self.escape();
        }
        match self.snap.accounts.get(&id) {
            Some(slot) => slot.clone(),
            None => {
                self.escape();
                None
            }
        }
    }

    fn trustline(&self, id: AccountId, asset: &Asset) -> Option<TrustLineEntry> {
        self.log.borrow_mut().trustlines.insert((id, asset.clone()));
        if !self.allowed.covers(&FpKey::TrustLine(id, asset.clone())) {
            self.escape();
        }
        match self.snap.trustlines.get(&(id, asset.clone())) {
            Some(slot) => slot.clone(),
            None => {
                self.escape();
                None
            }
        }
    }

    fn offer(&self, id: u64) -> Option<OfferEntry> {
        self.log.borrow_mut().offers.insert(id);
        match self.snap.offers.get(&id) {
            Some(slot) => {
                // An offer is fair game if declared directly or reached
                // through a declared book pair.
                let by_pair = slot
                    .as_ref()
                    .is_some_and(|o| self.allowed.covers(&book_pair(&o.selling, &o.buying)));
                if !by_pair && !self.allowed.covers(&FpKey::Offer(id)) {
                    self.escape();
                }
                slot.clone()
            }
            None => {
                self.escape();
                None
            }
        }
    }

    fn data(&self, id: AccountId, name: &str) -> Option<DataEntry> {
        self.log.borrow_mut().data.insert((id, name.to_string()));
        if !self.allowed.covers(&FpKey::Data(id, name.to_string())) {
            self.escape();
        }
        match self.snap.data.get(&(id, name.to_string())) {
            Some(slot) => slot.clone(),
            None => {
                self.escape();
                None
            }
        }
    }

    fn book_page(
        &self,
        selling: &Asset,
        buying: &Asset,
        after: Option<BookCursor>,
        limit: usize,
    ) -> Vec<BookCursor> {
        self.log
            .borrow_mut()
            .books
            .insert((selling.clone(), buying.clone()));
        if !self.allowed.covers(&book_pair(selling, buying)) {
            self.escape();
        }
        let Some(book) = self.snap.books.get(&(selling.clone(), buying.clone())) else {
            self.escape();
            return Vec::new();
        };
        let start = match after {
            Some(cursor) => book.cursors.partition_point(|&k| k <= cursor),
            None => 0,
        };
        let available = book.cursors.len() - start;
        if available < limit && !book.complete {
            // The caller may be about to sweep past the prefetched
            // prefix; a truncated book must not masquerade as the end.
            self.escape();
        }
        book.cursors[start..start + available.min(limit)].to_vec()
    }
}

/// One worker-executed transaction, pending commit-time validation.
struct TxExec {
    result: TxResult,
    changes: DeltaChanges,
    log: ReadLog,
}

/// Concrete keys written to the master by commit-time re-runs of the
/// current wave; later worker results whose reads overlap must re-run
/// too (their snapshot predates these writes).
#[derive(Default)]
struct DirtySet {
    accounts: HashSet<AccountId>,
    trustlines: HashSet<(AccountId, Asset)>,
    offers: HashSet<u64>,
    data: HashSet<(AccountId, String)>,
    /// Normalized pairs whose books changed.
    books: HashSet<FpKey>,
    active: bool,
}

impl DirtySet {
    /// Records everything `changes` writes. `prior` (the master before
    /// absorbing them) resolves the asset pair of offers deleted by id,
    /// for book invalidation; tombstones of never-committed provisional
    /// ids resolve to nothing.
    fn add(&mut self, changes: &DeltaChanges, prior: &dyn LedgerRead) {
        self.active = true;
        self.accounts.extend(changes.accounts.keys().copied());
        for (id, by_asset) in &changes.trustlines {
            for asset in by_asset.keys() {
                self.trustlines.insert((*id, asset.clone()));
            }
        }
        for (id, by_name) in &changes.data {
            for name in by_name.keys() {
                self.data.insert((*id, name.clone()));
            }
        }
        for (id, slot) in &changes.offers {
            self.offers.insert(*id);
            let pair_of = match slot {
                Some(o) => Some(book_pair(&o.selling, &o.buying)),
                None => prior.offer(*id).map(|o| book_pair(&o.selling, &o.buying)),
            };
            if let Some(p) = pair_of {
                self.books.insert(p);
            }
        }
    }

    fn overlaps(&self, log: &ReadLog) -> bool {
        if !self.active {
            return false;
        }
        log.accounts.iter().any(|k| self.accounts.contains(k))
            || log.trustlines.iter().any(|k| self.trustlines.contains(k))
            || log.offers.iter().any(|k| self.offers.contains(k))
            || log.data.iter().any(|k| self.data.contains(k))
            || log
                .books
                .iter()
                .any(|(s, b)| self.books.contains(&book_pair(s, b)))
    }
}

/// Provisional offer-id base for transaction `t`.
fn provisional_base(initial_next: u64, t: usize) -> u64 {
    initial_next + (t as u64 + 1) * PROVISIONAL_STRIDE
}

type Job = Box<dyn FnOnce() + Send>;

/// Persistent, process-wide apply workers. Spawning OS threads per wave
/// costs more than executing a small wave, so workers are detached and
/// live for the whole process; each close borrows send-handles for as
/// many as it needs and always runs its first chunk on the calling
/// thread.
struct Pool {
    senders: Vec<Sender<Job>>,
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

/// Clones send-handles for `want` workers, growing the pool on demand.
/// May return fewer than `want` if thread spawning fails; callers run
/// the overflow inline.
fn pool_senders(want: usize) -> Vec<Sender<Job>> {
    let pool = POOL.get_or_init(|| {
        Mutex::new(Pool {
            senders: Vec::new(),
        })
    });
    let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
    while pool.senders.len() < want {
        let (send, recv) = mpsc::channel::<Job>();
        let spawned = std::thread::Builder::new()
            .name(format!("ledger-apply-{}", pool.senders.len()))
            .spawn(move || {
                while let Ok(job) = recv.recv() {
                    job();
                }
            })
            .is_ok();
        if !spawned {
            break;
        }
        pool.senders.push(send);
    }
    pool.senders[..want.min(pool.senders.len())].to_vec()
}

/// Per-close state shared with pool workers. Owned (not borrowed from
/// the caller) because jobs outlive the dispatching stack frame; the
/// envelope clone is the only copy the parallel path pays.
struct CloseCtx {
    txs: Vec<TransactionEnvelope>,
    footprints: Vec<Footprint>,
    signer_keys: Vec<Vec<PublicKey>>,
    exec: ExecEnv,
    close_time: u64,
    base_fee_rate: i64,
    initial_next: u64,
}

/// Executes one transaction against a wave snapshot, recording reads.
fn run_worker_tx(ctx: &CloseCtx, snap: &WaveSnapshot, t: usize) -> TxExec {
    let rv = RecordingView {
        snap,
        allowed: &ctx.footprints[t],
        log: RefCell::new(ReadLog::default()),
    };
    let mut delta = LedgerDelta::over(&rv, provisional_base(ctx.initial_next, t));
    let clearing = ctx.base_fee_rate * ctx.txs[t].tx.op_count().max(1) as i64;
    let result = apply_transaction_with_keys(
        &mut delta,
        &ctx.txs[t],
        ctx.close_time,
        clearing,
        &ctx.exec,
        &ctx.signer_keys[t],
    );
    let changes = delta.into_changes();
    TxExec {
        result,
        changes,
        log: rv.log.into_inner(),
    }
}

/// What one close produces before header assembly: per-transaction
/// results, the commit feed, total fees charged, and scheduling
/// counters.
pub(crate) type CloseOutput = (
    Vec<TxResult>,
    Vec<(LedgerKey, Option<LedgerEntry>)>,
    i64,
    ApplyStats,
);

/// Closes the transaction set in parallel, returning per-transaction
/// results, the commit feed, total fees, and scheduling counters. The
/// results and feed are byte-identical to sequential apply.
pub(crate) fn close_parallel(
    store: &mut LedgerStore,
    tx_set: &TransactionSet,
    close_time: u64,
    params: &LedgerParams,
    sig_cache: &mut SigVerifyCache,
) -> CloseOutput {
    let n = tx_set.txs.len();
    let threads = (params.apply_threads.max(1) as usize).min(n.max(1));
    let exec = ExecEnv {
        base_reserve: params.base_reserve,
        close_time,
    };
    let initial_next = store.next_offer_id();

    // Signature verification needs the node's (thread-local) cache, so
    // every envelope's valid signer keys are resolved up front.
    let signer_keys: Vec<Vec<PublicKey>> = tx_set
        .txs
        .iter()
        .map(|env| env.valid_signer_keys_cached(sig_cache))
        .collect();

    let footprints: Vec<Footprint> = tx_set
        .txs
        .iter()
        .map(|env| tx_footprint(store.backend(), env))
        .collect();
    let waves = schedule_waves(&footprints);

    let mut stats = ApplyStats {
        waves: waves.len() as u64,
        wave_sizes: waves.iter().map(Vec::len).collect(),
        threads: threads as u64,
        ..ApplyStats::default()
    };

    let ctx = Arc::new(CloseCtx {
        txs: tx_set.txs.clone(),
        footprints,
        signer_keys,
        exec,
        close_time,
        base_fee_rate: tx_set.base_fee_rate,
        initial_next,
    });
    let footprints = &ctx.footprints;
    let signer_keys = &ctx.signer_keys;

    let mut master = LedgerDelta::over(store.backend(), initial_next);
    let mut results: Vec<Option<TxResult>> = (0..n).map(|_| None).collect();
    // Offer allocations per committed transaction, for final renumbering.
    let mut alloc_counts: Vec<u64> = vec![0; n];
    let mut fees = 0i64;

    let clearing = |t: usize| tx_set.base_fee_rate * tx_set.txs[t].tx.op_count().max(1) as i64;

    for wave in &waves {
        // Imprecise footprints (path payments) skip worker execution:
        // they take the sequential fallback at their commit slot.
        let mut runnable: Vec<usize> = wave
            .iter()
            .copied()
            .filter(|&t| footprints[t].precise)
            .collect();
        // A lone runnable transaction gains nothing from snapshot
        // isolation: run it at its commit slot against the master
        // instead, skipping the prefetch (order books are the expensive
        // part — conflicting offers serialize into such waves).
        if runnable.len() < 2 {
            runnable.clear();
        }

        let mut executed: HashMap<usize, TxExec> = HashMap::new();
        if !runnable.is_empty() {
            let wave_fps: Vec<&Footprint> = runnable.iter().map(|&t| &footprints[t]).collect();
            let snapshot = Arc::new(build_snapshot(&master, &wave_fps));

            if threads > 1 && runnable.len() > 1 {
                let chunk = runnable.len().div_ceil(threads);
                let mut parts = runnable.chunks(chunk);
                let mine = parts.next().expect("runnable is non-empty");
                let rest: Vec<Vec<usize>> = parts.map(<[usize]>::to_vec).collect();
                let senders = pool_senders(rest.len());
                let (done, collected) = mpsc::channel::<(usize, TxExec)>();
                for (i, part) in rest.into_iter().enumerate() {
                    let ctx = Arc::clone(&ctx);
                    let snap = Arc::clone(&snapshot);
                    let done = done.clone();
                    let job: Job = Box::new(move || {
                        for t in part {
                            let out = run_worker_tx(&ctx, &snap, t);
                            let _ = done.send((t, out));
                        }
                    });
                    match senders.get(i) {
                        Some(s) => {
                            // A send fails only if the worker died; the
                            // job owns everything it needs, so run it
                            // here instead.
                            if let Err(mpsc::SendError(job)) = s.send(job) {
                                job();
                            }
                        }
                        None => job(),
                    }
                }
                drop(done);
                for &t in mine {
                    executed.insert(t, run_worker_tx(&ctx, &snapshot, t));
                }
                // The channel closes once every job has dropped its
                // handle. A worker that died mid-job yields fewer
                // results; its transactions re-run sequentially at
                // commit, so the close stays correct.
                while let Ok((t, out)) = collected.recv() {
                    executed.insert(t, out);
                }
            } else {
                for &t in &runnable {
                    executed.insert(t, run_worker_tx(&ctx, &snapshot, t));
                }
            }
        }

        // Commit in canonical order; escapes and dirty-read overlaps
        // re-run sequentially against the master.
        let mut dirty = DirtySet::default();
        for &t in wave {
            let exec_out = executed.remove(&t);
            let commit_worker = exec_out
                .as_ref()
                .is_some_and(|e| !e.log.escaped && !dirty.overlaps(&e.log));
            let (result, changes) = if commit_worker {
                stats.parallel_txs += 1;
                let e = exec_out.expect("checked above");
                (e.result, e.changes)
            } else {
                if exec_out.is_some() {
                    // A worker ran it but the output was discarded:
                    // escaped its footprint or read a re-run's writes.
                    stats.conflict_reruns += 1;
                } else if !footprints[t].precise {
                    stats.footprint_fallbacks += 1;
                }
                // Remaining case: a solo-wave transaction, sequential
                // by design — neither counter.
                let mut delta = LedgerDelta::over(&master, provisional_base(initial_next, t));
                let result = apply_transaction_with_keys(
                    &mut delta,
                    &tx_set.txs[t],
                    close_time,
                    clearing(t),
                    &exec,
                    &signer_keys[t],
                );
                let changes = delta.into_changes();
                dirty.add(&changes, &master);
                (result, changes)
            };
            alloc_counts[t] = changes
                .next_offer_id
                .saturating_sub(provisional_base(initial_next, t));
            match &result {
                TxResult::Success { fee_charged } | TxResult::Failed { fee_charged, .. } => {
                    fees += fee_charged;
                }
                TxResult::Invalid(_) => {}
            }
            results[t] = Some(result);
            master.absorb(changes);
        }
    }

    // Renumber provisional offer ids into the exact sequence sequential
    // apply would have allocated. The mapping is monotone (provisional
    // bases ascend in canonical order, real ids are handed out in the
    // same order), so book-order ties by id are preserved.
    let provisional_floor = initial_next + PROVISIONAL_STRIDE;
    let mut id_map: HashMap<u64, u64> = HashMap::new();
    let mut next_real = initial_next;
    for (t, &count) in alloc_counts.iter().enumerate() {
        let base = provisional_base(initial_next, t);
        for off in 0..count {
            id_map.insert(base + off, next_real);
            next_real += 1;
        }
    }
    let mut changes = master.into_changes();
    changes.next_offer_id = next_real;
    changes.offers = std::mem::take(&mut changes.offers)
        .into_iter()
        .map(|(id, slot)| {
            let real = if id >= provisional_floor {
                *id_map.get(&id).expect("every provisional id was allocated")
            } else {
                id
            };
            let slot = slot.map(|mut o| {
                o.id = real;
                o
            });
            (real, slot)
        })
        .collect();
    let feed = store.commit(changes);
    let results = results
        .into_iter()
        .map(|r| r.expect("every tx committed"))
        .collect();
    (results, feed, fees, stats)
}
