//! Horizon proper: queries and submission against a validator's state.
//!
//! Horizon "has read-only access to stellar-core's SQL database,
//! minimizing the risk of destabilizing stellar-core" — mirrored here by
//! taking `&Herder` for every query and mutating only through the
//! explicit submission path.
//!
//! Every endpoint shares one failure surface, [`HorizonError`]; list
//! endpoints return `Result<Page<T>, HorizonError>` with cursor-based
//! continuation. (The pre-redesign ad-hoc shapes lived on as
//! `legacy_*` wrappers for one release of grace and are now gone.)

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::ingest::Indexer;
use crate::stream::SubscriptionHub;
use stellar_crypto::Hash256;
use stellar_herder::queue::QueueError;
use stellar_herder::Herder;
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::AccountId;
use stellar_ledger::pathfind::quote_path;
use stellar_ledger::store::book_key;
use stellar_ledger::tx::TransactionEnvelope;
use stellar_telemetry::{Registry, SpanEvent};

/// Typed failure surface shared by every Horizon endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HorizonError {
    /// The requested resource does not exist.
    NotFound,
    /// The request itself is invalid: bad paging parameters, or a
    /// submission the queue refused outright.
    Malformed {
        /// Static reason label (no allocation on the reject path).
        reason: &'static str,
    },
    /// Load was shed before reaching the validator; retry later.
    RateLimited {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The data behind the requested cursor window is gone (evicted
    /// stream buffer, indexer still catching up); resume from `resume`.
    Staleness {
        /// Cursor to resume from.
        resume: u64,
    },
}

impl std::fmt::Display for HorizonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HorizonError::NotFound => write!(f, "not found"),
            HorizonError::Malformed { reason } => write!(f, "malformed request: {reason}"),
            HorizonError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited; retry after {retry_after_ms}ms")
            }
            HorizonError::Staleness { resume } => {
                write!(f, "cursor window gone; resume from {resume}")
            }
        }
    }
}

/// Backoff suggested when the validator's pending queue is full: one
/// ledger interval, after which a close will have drained it.
pub(crate) const QUEUE_FULL_RETRY_MS: u64 = 5000;

/// Rejects the degenerate page size before any endpoint does work: a
/// zero-limit page can make no progress, so handing back a cursor would
/// loop a paging client forever.
pub(crate) fn check_limit(limit: usize) -> Result<(), HorizonError> {
    if limit == 0 {
        return Err(HorizonError::Malformed {
            reason: "limit must be positive",
        });
    }
    Ok(())
}

/// A client-facing account summary (balances across all assets).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccountInfo {
    /// The account id.
    pub id: AccountId,
    /// Native XLM balance (stroops).
    pub xlm_balance: i64,
    /// Current sequence number.
    pub seq_num: u64,
    /// Issued-asset balances: (asset, balance, limit, authorized).
    pub trustlines: Vec<(Asset, i64, i64, bool)>,
    /// Subentry count (drives the reserve).
    pub num_subentries: u32,
}

/// The uniform paged-response envelope every list-returning horizon
/// endpoint yields. Continuation is cursor-based: pass `cursor` back
/// unchanged to fetch the next page; `None` means the listing (or, for
/// archive scans, the scan) is complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Page<T> {
    /// The records in this page — at most `limit` of them.
    pub records: Vec<T>,
    /// Continuation cursor for the next request, or `None` when done.
    pub cursor: Option<u64>,
    /// The page size this response was produced with.
    pub limit: usize,
}

impl<T> Page<T> {
    /// Pages a fully-materialized listing: skips `cursor` records, takes
    /// `limit`, and sets the continuation cursor iff records remain.
    ///
    /// Edge cases are absorbed here so every endpoint inherits them: a
    /// cursor at or past the end yields an empty terminal page (no wrap,
    /// no panic), and a zero limit — which can never make progress — is
    /// terminal rather than echoing the same cursor back forever.
    pub(crate) fn slice(all: Vec<T>, cursor: Option<u64>, limit: usize) -> Page<T> {
        let total = all.len();
        let skip = usize::try_from(cursor.unwrap_or(0))
            .unwrap_or(usize::MAX)
            .min(total);
        let records: Vec<T> = all.into_iter().skip(skip).take(limit).collect();
        let consumed = skip + records.len();
        Page {
            records,
            cursor: (limit > 0 && consumed < total).then_some(consumed as u64),
            limit,
        }
    }
}

/// An archive hit from [`Horizon::find_transaction_exhaustive`]: where the
/// transaction landed, plus — when this node's span store still holds
/// them — its per-phase lifecycle timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// The ledger sequence that confirmed the transaction.
    pub ledger_seq: u64,
    /// The confirmed envelope.
    pub envelope: TransactionEnvelope,
    /// Node-local lifecycle spans (submit, queue admit, flood hops,
    /// nomination, externalize, apply), in causal order. `None` when the transaction was sampled out of
    /// tracing or its spans have been evicted from the bounded buffer —
    /// the archive answer is unaffected either way.
    pub timeline: Option<Vec<SpanEvent>>,
}

/// Current fee statistics, named instead of a bare tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeeStats {
    /// The protocol minimum fee per operation (stroops).
    pub base_fee: i64,
    /// The per-operation rate the last closed ledger actually cleared at
    /// (equals `base_fee` when there was no fee auction).
    pub last_clearing_fee: i64,
    /// Transactions pending in this validator's queue — the congestion
    /// signal a fee-bidding client reads.
    pub queued_txs: usize,
}

/// A successful submission receipt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitResult {
    /// The accepted transaction's content hash — the key for
    /// [`Horizon::find_transaction_exhaustive`] once it lands.
    pub tx_hash: Hash256,
    /// The lifecycle trace id (E18): the hash's u64 prefix, matching the
    /// span timeline a [`TxRecord`] carries.
    pub trace: u64,
}

/// The horizon query/submission facade over one validator.
pub struct Horizon;

impl Horizon {
    /// Fetches an account summary.
    pub fn account(herder: &Herder, id: AccountId) -> Result<AccountInfo, HorizonError> {
        let a = herder.store.account(id).ok_or(HorizonError::NotFound)?;
        // Indexed range scan over this account's trustlines — on the
        // disk backend a full entry dump would page in the whole store.
        let trustlines: Vec<(Asset, i64, i64, bool)> = herder
            .store
            .trustlines_of(id)
            .into_iter()
            .map(|t| (t.asset, t.balance, t.limit, t.authorized))
            .collect();
        Ok(AccountInfo {
            id,
            xlm_balance: a.balance,
            seq_num: a.seq_num,
            trustlines,
            num_subentries: a.num_subentries,
        })
    }

    /// Submits a transaction to the validator's pending queue, returning
    /// a receipt carrying the lifecycle trace id. A full queue surfaces
    /// as [`HorizonError::RateLimited`] (backpressure); every other
    /// refusal is [`HorizonError::Malformed`] with a static reason.
    pub fn submit(
        herder: &mut Herder,
        env: TransactionEnvelope,
    ) -> Result<SubmitResult, HorizonError> {
        let tx_hash = env.hash();
        let store = &herder.store;
        // Split borrow: queue.submit needs &store, &mut queue, &mut cache.
        let q = &mut herder.queue;
        match q.submit(store, env, &mut herder.sig_cache) {
            Ok(()) => Ok(SubmitResult {
                tx_hash,
                trace: tx_hash.prefix_u64(),
            }),
            Err(QueueError::QueueFull) => Err(HorizonError::RateLimited {
                retry_after_ms: QUEUE_FULL_RETRY_MS,
            }),
            Err(e) => Err(HorizonError::Malformed { reason: e.label() }),
        }
    }

    /// The aggregated order book for a pair: `(price, total amount)`
    /// levels, best price first; adjacent offers share a level when their
    /// prices are the same fraction. The cursor is the level index to
    /// resume from.
    ///
    /// The book is read in pages through the index, and reading stops
    /// once the level after the requested window has started: that level
    /// only shows a continuation exists, so its partial total is never
    /// returned.
    pub fn order_book(
        herder: &Herder,
        selling: &Asset,
        buying: &Asset,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<(stellar_ledger::amount::Price, i64)>, HorizonError> {
        check_limit(limit)?;
        let end = usize::try_from(cursor.unwrap_or(0))
            .unwrap_or(usize::MAX)
            .saturating_add(limit);
        let mut levels: Vec<(stellar_ledger::amount::Price, i64)> = Vec::new();
        let mut after = None;
        // Starting `end + 1` levels takes at least that many offers.
        let mut want = end.saturating_add(1);
        'book: loop {
            let page = herder.store.offers_page(selling, buying, after, want);
            let exhausted = page.len() < want;
            after = page.last().map(book_key);
            for offer in page {
                match levels.last_mut() {
                    Some((p, total)) if *p == offer.price => *total += offer.amount,
                    _ => levels.push((offer.price, offer.amount)),
                }
                if levels.len() > end {
                    break 'book;
                }
            }
            if exhausted {
                break;
            }
            want = want.saturating_mul(2);
        }
        Ok(Page::slice(levels, cursor, limit))
    }

    /// Quotes the cost of a specific path without executing it.
    pub fn quote(
        herder: &Herder,
        send_asset: &Asset,
        dest_asset: &Asset,
        dest_amount: i64,
        path: &[Asset],
    ) -> Option<i64> {
        let delta = herder.store.begin();
        quote_path(&delta, send_asset, dest_asset, dest_amount, path)
    }

    /// Lists a historical ledger's transactions ("there needs to be some
    /// place one can look up a transaction from two years ago"). The
    /// cursor is the transaction index within the set. A ledger this
    /// node has not closed yet is [`HorizonError::NotFound`]; a closed
    /// but locally unarchived one yields an empty, exhausted page.
    pub fn transactions_in_ledger(
        herder: &Herder,
        ledger_seq: u64,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<TransactionEnvelope>, HorizonError> {
        check_limit(limit)?;
        if ledger_seq > herder.header.ledger_seq {
            return Err(HorizonError::NotFound);
        }
        let txs: Vec<TransactionEnvelope> = herder
            .archive
            .tx_set(ledger_seq)
            .map(|set| set.txs.clone())
            .unwrap_or_default();
        Ok(Page::slice(txs, cursor, limit))
    }

    /// Finds the ledger a transaction hash was confirmed in (linear scan
    /// of the archive; production horizon indexes this in its DB). Each
    /// call scans at most `limit` ledgers starting at `cursor` (default:
    /// the first post-genesis ledger). A hit yields one [`TxRecord`] —
    /// including the node-local lifecycle timeline when the trace store
    /// still holds it — and ends the scan; an empty page with a cursor
    /// means "not found yet, resume here".
    fn find_transaction(
        herder: &Herder,
        tx_hash: stellar_crypto::Hash256,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<TxRecord>, HorizonError> {
        check_limit(limit)?;
        let start = cursor.unwrap_or(2);
        let last = herder.header.ledger_seq;
        let mut seq = start;
        while seq <= last && seq - start < limit as u64 {
            if let Some(set) = herder.archive.tx_set(seq) {
                if let Some(env) = set.txs.iter().find(|env| env.hash() == tx_hash) {
                    let timeline =
                        Horizon::transaction_timeline(herder, tx_hash, None, usize::MAX)?;
                    return Ok(Page {
                        records: vec![TxRecord {
                            ledger_seq: seq,
                            envelope: env.clone(),
                            timeline: (!timeline.records.is_empty()).then_some(timeline.records),
                        }],
                        cursor: None,
                        limit,
                    });
                }
            }
            // A u64::MAX cursor must terminate the scan, not wrap.
            match seq.checked_add(1) {
                Some(next) => seq = next,
                None => {
                    return Ok(Page {
                        records: Vec::new(),
                        cursor: None,
                        limit,
                    })
                }
            }
        }
        Ok(Page {
            records: Vec::new(),
            cursor: (seq <= last).then_some(seq),
            limit,
        })
    }

    /// The per-phase lifecycle timeline of one transaction, from this
    /// node's span store: every span whose trace id matches the
    /// transaction's content hash, in causal order. Cursor-paged like
    /// every other listing; a transaction that was sampled out, evicted,
    /// or never seen here yields an empty, exhausted page.
    fn transaction_timeline(
        herder: &Herder,
        tx_hash: stellar_crypto::Hash256,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<SpanEvent>, HorizonError> {
        check_limit(limit)?;
        let mut spans: Vec<SpanEvent> = herder
            .telemetry
            .spans
            .for_trace(tx_hash.prefix_u64())
            .into_iter()
            .cloned()
            .collect();
        spans.sort_by_key(|s| (s.t_ms, s.phase.order()));
        Ok(Page::slice(spans, cursor, limit))
    }

    /// Drives `find_transaction` to completion — the convenience most
    /// tests and examples want when the archive is small.
    pub fn find_transaction_exhaustive(
        herder: &Herder,
        tx_hash: stellar_crypto::Hash256,
    ) -> Option<TxRecord> {
        let mut cursor = None;
        loop {
            let mut page = Horizon::find_transaction(herder, tx_hash, cursor, 64).ok()?;
            if let Some(hit) = page.records.pop() {
                return Some(hit);
            }
            cursor = Some(page.cursor?);
        }
    }

    /// Current fee statistics: the protocol base fee, the last ledger's
    /// clearing rate, and this validator's queue depth.
    pub fn fee_stats(herder: &Herder) -> FeeStats {
        let base = herder.header.params.base_fee;
        let last_clearing = herder
            .archive
            .tx_set(herder.header.ledger_seq)
            .map_or(base, |s| s.base_fee_rate);
        FeeStats {
            base_fee: base,
            last_clearing_fee: last_clearing,
            queued_txs: herder.queue.len(),
        }
    }
}

/// The assembled Horizon production pipeline over one validator: the
/// ingestion [`Indexer`], the [`SubscriptionHub`], and front-door
/// [`AdmissionControl`] — the three layers of Fig. 5's client-facing
/// tier. Everything here is off-consensus: the pipeline consumes the
/// close-event feed *after* each close is final and gates what enters
/// the queue, so running it (or not) cannot change externalized headers
/// or bucket hashes.
pub struct HorizonPipeline {
    /// Materializes history/trades/effects at every close.
    pub indexer: Indexer,
    /// Fans out per-close deltas to cursor-anchored subscribers.
    pub hub: SubscriptionHub,
    /// Token-bucket + global-limit front door for `submit`.
    pub admission: AdmissionControl,
}

impl HorizonPipeline {
    /// Attaches the full pipeline to a validator: enables the herder's
    /// close-event feed, seeds the indexer from current state, bounds
    /// the tx queue (backpressure), and installs admission control.
    pub fn attach(herder: &mut Herder, cfg: AdmissionConfig) -> HorizonPipeline {
        herder.queue.set_capacity(Some(cfg.queue_capacity));
        HorizonPipeline {
            indexer: Indexer::attach(herder),
            hub: SubscriptionHub::new(crate::stream::DEFAULT_BUFFER),
            admission: AdmissionControl::new(cfg),
        }
    }

    /// Drains and materializes any close events the validator produced
    /// since the last call. Call after every ledger close (or batch of
    /// closes — the feed is buffered).
    pub fn on_close(&mut self, herder: &mut Herder) {
        let events = herder.take_close_events();
        for ev in &events {
            self.indexer.apply_close(ev, &herder.archive);
            self.hub.publish(ev);
        }
        self.indexer.note_head(herder.header.ledger_seq);
    }

    /// Admission-controlled submission: the per-source token bucket and
    /// global queue limit run first; only admitted transactions reach
    /// signature verification and the queue.
    pub fn submit(
        &mut self,
        herder: &mut Herder,
        env: TransactionEnvelope,
        now_ms: u64,
    ) -> Result<SubmitResult, HorizonError> {
        self.admission
            .admit(env.tx.source, now_ms, herder.queue.len())?;
        Horizon::submit(herder, env)
    }

    /// One merged metrics registry over all three layers (`ingest.*`,
    /// `stream.*`, `admission.*`).
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.merge(&self.indexer.registry);
        reg.merge(&self.hub.registry);
        reg.merge(&self.admission.registry);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use stellar_crypto::sign::KeyPair;
    use stellar_ledger::amount::{xlm, Price, BASE_FEE};
    use stellar_ledger::entry::AccountEntry;
    use stellar_ledger::ops::{apply_operation, ExecEnv};
    use stellar_ledger::store::LedgerStore;
    use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction};
    use stellar_scp::NodeId;

    fn keys(n: u64) -> KeyPair {
        KeyPair::from_seed(800 + n)
    }

    fn acct(n: u64) -> AccountId {
        AccountId(keys(n).public())
    }

    fn herder() -> Herder {
        let mut store = LedgerStore::new();
        for i in 0..3 {
            store.put_account(AccountEntry::new(acct(i), xlm(100)));
        }
        let usd = Asset::issued(acct(2), "USD");
        {
            let env = ExecEnv::default();
            let mut d = store.begin();
            apply_operation(
                &mut d,
                acct(0),
                &Operation::ChangeTrust {
                    asset: usd.clone(),
                    limit: 500,
                },
                &env,
            )
            .unwrap();
            apply_operation(
                &mut d,
                acct(2),
                &Operation::Payment {
                    destination: acct(0),
                    asset: usd.clone(),
                    amount: 200,
                },
                &env,
            )
            .unwrap();
            apply_operation(
                &mut d,
                acct(0),
                &Operation::ManageOffer {
                    offer_id: 0,
                    selling: usd,
                    buying: Asset::Native,
                    amount: 100,
                    price: Price::new(2, 1),
                    passive: false,
                },
                &env,
            )
            .unwrap();
            let ch = d.into_changes();
            store.commit(ch);
        }
        Herder::new(NodeId(0), store, BTreeMap::new())
    }

    #[test]
    fn account_summary_includes_trustlines() {
        let h = herder();
        let info = Horizon::account(&h, acct(0)).unwrap();
        assert_eq!(info.xlm_balance, xlm(100));
        assert_eq!(info.trustlines.len(), 1);
        assert_eq!(info.trustlines[0].1, 200);
        assert_eq!(info.num_subentries, 2); // trustline + offer
        assert_eq!(Horizon::account(&h, acct(9)), Err(HorizonError::NotFound));
    }

    #[test]
    fn queries_are_identical_on_the_disk_backend() {
        // Horizon reads go through the backend trait: the same queries
        // over the same state must answer identically on the disk store.
        let ram = herder();
        let disk_store = stellar_store::open(
            &ram.store,
            stellar_store::BackendKind::Disk,
            &stellar_store::DiskConfig::default(),
        );
        let disk = Herder::new(NodeId(0), disk_store, BTreeMap::new());
        let usd = Asset::issued(acct(2), "USD");
        for a in 0..3 {
            assert_eq!(
                Horizon::account(&ram, acct(a)),
                Horizon::account(&disk, acct(a))
            );
        }
        let ram_book = Horizon::order_book(&ram, &usd, &Asset::Native, None, 10).unwrap();
        let disk_book = Horizon::order_book(&disk, &usd, &Asset::Native, None, 10).unwrap();
        assert_eq!(ram_book.records, disk_book.records);
        assert_eq!(
            Horizon::quote(&ram, &Asset::Native, &usd, 50, &[]),
            Horizon::quote(&disk, &Asset::Native, &usd, 50, &[]),
        );
    }

    #[test]
    fn order_book_aggregates_levels() {
        let h = herder();
        let usd = Asset::issued(acct(2), "USD");
        let book = Horizon::order_book(&h, &usd, &Asset::Native, None, 10).unwrap();
        assert_eq!(book.records.len(), 1);
        assert_eq!(book.records[0], (Price::new(2, 1), 100));
        assert_eq!(book.cursor, None);
        let empty = Horizon::order_book(&h, &Asset::Native, &usd, None, 10).unwrap();
        assert!(empty.records.is_empty());
        assert_eq!(empty.cursor, None);
    }

    #[test]
    fn order_book_pages_with_cursor() {
        // Three distinct price levels, page size 2: the first page carries
        // a continuation cursor, the second is final.
        let mut h = herder();
        let usd = Asset::issued(acct(2), "USD");
        {
            let env = ExecEnv::default();
            let mut d = h.store.begin();
            for (n, d_) in [(3u32, 1u32), (4, 1)] {
                apply_operation(
                    &mut d,
                    acct(0),
                    &Operation::ManageOffer {
                        offer_id: 0,
                        selling: usd.clone(),
                        buying: Asset::Native,
                        amount: 10,
                        price: Price::new(n, d_),
                        passive: false,
                    },
                    &env,
                )
                .unwrap();
            }
            let ch = d.into_changes();
            h.store.commit(ch);
        }
        let first = Horizon::order_book(&h, &usd, &Asset::Native, None, 2).unwrap();
        assert_eq!(first.records.len(), 2);
        assert_eq!(first.cursor, Some(2));
        assert_eq!(first.limit, 2);
        let rest = Horizon::order_book(&h, &usd, &Asset::Native, first.cursor, 2).unwrap();
        assert_eq!(rest.records.len(), 1);
        assert_eq!(rest.cursor, None);
        // The two pages together are the whole book, best price first.
        let all = Horizon::order_book(&h, &usd, &Asset::Native, None, 10).unwrap();
        let stitched: Vec<_> = first.records.iter().chain(&rest.records).cloned().collect();
        assert_eq!(stitched, all.records);
    }

    /// Every page of the level view read through the index equals the
    /// same page sliced from the whole book's levels, on a book whose
    /// levels repeat a price and sit Ord-equal prices (1/2, 2/4) side by
    /// side, which stay separate levels.
    #[test]
    fn order_book_pages_equal_the_whole_book_levels() {
        let usd = Asset::issued(acct(2), "USD");
        let mut store = LedgerStore::new();
        let mut d = store.begin();
        let prices = [
            (1, 2),
            (2, 4),
            (1, 2),
            (1, 1),
            (1, 1),
            (3, 2),
            (6, 4),
            (2, 1),
        ];
        for (k, &(n, den)) in prices.iter().cycle().take(40).enumerate() {
            d.put_offer(stellar_ledger::entry::OfferEntry {
                id: k as u64 + 1,
                account: acct(0),
                selling: usd.clone(),
                buying: Asset::Native,
                amount: k as i64 + 1,
                price: Price::new(n, den + k as u32 / 8),
                passive: false,
            });
        }
        store.commit(d.into_changes());
        let h = Herder::new(NodeId(0), store, BTreeMap::new());
        let mut whole: Vec<(Price, i64)> = Vec::new();
        for offer in h.store.offers_page(&usd, &Asset::Native, None, usize::MAX) {
            match whole.last_mut() {
                Some((p, total)) if *p == offer.price => *total += offer.amount,
                _ => whole.push((offer.price, offer.amount)),
            }
        }
        assert!(
            whole.len() > 20 && whole.len() < 40,
            "{} levels",
            whole.len()
        );
        let n = whole.len() as u64;
        for cursor in std::iter::once(None).chain((0..=n + 1).map(Some)) {
            for limit in 1..=whole.len() + 1 {
                let page = Horizon::order_book(&h, &usd, &Asset::Native, cursor, limit).unwrap();
                assert_eq!(
                    page,
                    Page::slice(whole.clone(), cursor, limit),
                    "cursor {cursor:?} limit {limit}"
                );
            }
        }
        assert_eq!(
            Horizon::order_book(&h, &usd, &Asset::Native, Some(u64::MAX), 3).unwrap(),
            Page::slice(whole, Some(u64::MAX), 3)
        );
    }

    #[test]
    fn path_finding_quotes_through_the_book() {
        // The book sells USD for XLM at 2 XLM/USD, so a sender holding
        // XLM can deliver USD: 50 USD costs 100 XLM.
        let h = herder();
        let usd = Asset::issued(acct(2), "USD");
        assert_eq!(Horizon::quote(&h, &Asset::Native, &usd, 50, &[]), Some(100));
        // The reverse direction has no offers.
        assert_eq!(Horizon::quote(&h, &usd, &Asset::Native, 50, &[]), None);
    }

    #[test]
    fn submit_goes_to_queue() {
        let mut h = herder();
        let env = stellar_ledger::tx::TransactionEnvelope::sign(
            Transaction {
                source: acct(1),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(0),
                        asset: Asset::Native,
                        amount: 1,
                    },
                }],
            },
            &[&keys(1)],
        );
        let receipt = Horizon::submit(&mut h, env.clone()).unwrap();
        assert_eq!(receipt.tx_hash, env.hash());
        assert_eq!(receipt.trace, env.hash().prefix_u64());
        assert_eq!(h.queue.len(), 1);
        assert_eq!(
            Horizon::submit(&mut h, env),
            Err(HorizonError::Malformed {
                reason: "duplicate"
            })
        );
    }

    #[test]
    fn fee_stats_report_base_fee() {
        let h = herder();
        assert_eq!(
            Horizon::fee_stats(&h),
            FeeStats {
                base_fee: BASE_FEE,
                last_clearing_fee: BASE_FEE,
                queued_txs: 0,
            }
        );
    }

    #[test]
    fn find_transaction_scans_archive() {
        // Drive a tiny consensus-free close through the herder directly.
        let mut h = herder();
        let env = stellar_ledger::tx::TransactionEnvelope::sign(
            Transaction {
                source: acct(1),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(0),
                        asset: Asset::Native,
                        amount: 1,
                    },
                }],
            },
            &[&keys(1)],
        );
        let tx_hash = env.hash();
        let set = stellar_ledger::txset::TransactionSet::assemble(h.header.hash(), vec![env], 100);
        h.learn_tx_set(set.clone());
        let value = stellar_herder::StellarValue::new(set.hash(), 100);
        assert!(h.apply_externalized(2, &value));
        let hit = Horizon::find_transaction(&h, tx_hash, None, 64).unwrap();
        assert_eq!(hit.records.len(), 1);
        let rec = &hit.records[0];
        assert_eq!(rec.ledger_seq, 2);
        assert_eq!(rec.envelope.hash(), tx_hash);
        assert_eq!(hit.cursor, None);
        let miss = Horizon::find_transaction(&h, stellar_crypto::Hash256::ZERO, None, 64).unwrap();
        assert!(miss.records.is_empty());
        assert_eq!(miss.cursor, None);
        assert_eq!(
            Horizon::find_transaction_exhaustive(&h, stellar_crypto::Hash256::ZERO),
            None
        );

        // Scan continuation: limit 1 per call walks the archive one
        // ledger at a time until the hash turns up.
        let step = Horizon::find_transaction(&h, tx_hash, None, 1).unwrap();
        assert!(step.records.len() == 1 || step.cursor.is_some());
        assert_eq!(
            Horizon::find_transaction_exhaustive(&h, tx_hash)
                .unwrap()
                .ledger_seq,
            2
        );

        // The archived ledger's transactions page out too.
        let txs = Horizon::transactions_in_ledger(&h, 2, None, 10).unwrap();
        assert_eq!(txs.records.len(), 1);
        assert_eq!(txs.records[0].hash(), tx_hash);
        // A ledger this node has never closed is NotFound now.
        assert_eq!(
            Horizon::transactions_in_ledger(&h, 99, None, 10),
            Err(HorizonError::NotFound)
        );
    }

    #[test]
    fn find_transaction_attaches_the_lifecycle_timeline() {
        // Same consensus-free close as above; the herder records the
        // close-milestone spans (externalize → apply) for every applied
        // transaction, and horizon surfaces them on the archive hit.
        let mut h = herder();
        let env = stellar_ledger::tx::TransactionEnvelope::sign(
            Transaction {
                source: acct(1),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(0),
                        asset: Asset::Native,
                        amount: 1,
                    },
                }],
            },
            &[&keys(1)],
        );
        let tx_hash = env.hash();
        let set = stellar_ledger::txset::TransactionSet::assemble(h.header.hash(), vec![env], 100);
        h.learn_tx_set(set.clone());
        let value = stellar_herder::StellarValue::new(set.hash(), 100);
        assert!(h.apply_externalized(2, &value));

        let rec = Horizon::find_transaction_exhaustive(&h, tx_hash).unwrap();
        let timeline = rec.timeline.expect("applied tx must carry a timeline");
        let tags: Vec<&str> = timeline.iter().map(|s| s.phase.tag()).collect();
        assert_eq!(
            tags,
            ["externalized", "applied"],
            "close milestones in pipeline order"
        );
        assert!(timeline.iter().all(|s| s.trace == tx_hash.prefix_u64()));

        // The standalone endpoint pages the same spans.
        let first = Horizon::transaction_timeline(&h, tx_hash, None, 1).unwrap();
        assert_eq!(first.records.len(), 1);
        assert_eq!(first.cursor, Some(1));
        let rest = Horizon::transaction_timeline(&h, tx_hash, first.cursor, 8).unwrap();
        assert_eq!(rest.records.len(), 1);
        assert_eq!(rest.cursor, None);
        let stitched: Vec<SpanEvent> = first.records.into_iter().chain(rest.records).collect();
        assert_eq!(stitched, timeline);

        // Sampled-out tracing: no timeline, unchanged archive answer.
        let mut h2 = herder();
        h2.telemetry.spans.configure(0, 64);
        let env2 = Horizon::transactions_in_ledger(&h, 2, None, 1)
            .unwrap()
            .records[0]
            .clone();
        let set2 =
            stellar_ledger::txset::TransactionSet::assemble(h2.header.hash(), vec![env2], 100);
        h2.learn_tx_set(set2.clone());
        assert!(h2.apply_externalized(2, &stellar_herder::StellarValue::new(set2.hash(), 100)));
        let rec2 = Horizon::find_transaction_exhaustive(&h2, tx_hash).unwrap();
        assert_eq!(rec2.ledger_seq, 2);
        assert!(rec2.timeline.is_none(), "sampled out ⇒ no timeline");
        let empty = Horizon::transaction_timeline(&h2, tx_hash, None, 8).unwrap();
        assert!(empty.records.is_empty() && empty.cursor.is_none());
    }

    fn payment_env(from: u64, to: u64, seq: u64, amount: i64) -> TransactionEnvelope {
        TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: seq,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(to),
                        asset: Asset::Native,
                        amount,
                    },
                }],
            },
            &[&keys(from)],
        )
    }

    #[test]
    fn paging_edge_cases_are_safe() {
        let h = herder();
        let usd = Asset::issued(acct(2), "USD");
        // A zero limit can never make progress: reject it up front
        // rather than hand back a cursor that loops forever.
        assert_eq!(
            Horizon::order_book(&h, &usd, &Asset::Native, None, 0),
            Err(HorizonError::Malformed {
                reason: "limit must be positive"
            })
        );
        // A cursor at or past the end is an empty terminal page — no
        // panic, no wraparound.
        let past = Horizon::order_book(&h, &usd, &Asset::Native, Some(999), 10).unwrap();
        assert!(past.records.is_empty() && past.cursor.is_none());
        let huge = Horizon::order_book(&h, &usd, &Asset::Native, Some(u64::MAX), 10).unwrap();
        assert!(huge.records.is_empty() && huge.cursor.is_none());
        assert_eq!(
            Horizon::transaction_timeline(&h, stellar_crypto::Hash256::ZERO, None, 0),
            Err(HorizonError::Malformed {
                reason: "limit must be positive"
            })
        );
    }

    #[test]
    fn pipeline_wires_the_three_layers_together() {
        let mut h = herder();
        let mut p = HorizonPipeline::attach(
            &mut h,
            crate::admission::AdmissionConfig {
                max_pending: 2,
                retry_after_ms: 321,
                ..Default::default()
            },
        );
        let sub = p.hub.subscribe(crate::stream::Topic::Account(acct(1)));

        // Admitted submissions flow through to the queue.
        let env = payment_env(1, 0, 1, 5);
        p.submit(&mut h, env.clone(), 0).unwrap();
        p.submit(&mut h, payment_env(0, 1, 1, 7), 0).unwrap();
        assert_eq!(h.queue.len(), 2);
        // The global pending limit sheds the third before any queue work.
        assert_eq!(
            p.submit(&mut h, payment_env(2, 0, 1, 1), 0),
            Err(HorizonError::RateLimited {
                retry_after_ms: 321
            })
        );

        // A close flows through the feed into indexer and hub.
        let set = stellar_ledger::txset::TransactionSet::assemble(h.header.hash(), vec![env], 100);
        h.learn_tx_set(set.clone());
        assert!(h.apply_externalized(2, &stellar_herder::StellarValue::new(set.hash(), 100)));
        p.on_close(&mut h);
        assert_eq!(p.indexer.ingested_seq(), 2);
        assert_eq!(
            p.indexer
                .account_history(acct(1), None, 10)
                .unwrap()
                .records
                .len(),
            1
        );
        assert!(!p.hub.poll(sub, None, 10).unwrap().records.is_empty());

        // The merged registry sees all three layers.
        let reg = p.registry();
        assert_eq!(reg.counter("ingest.ledgers"), 1);
        assert_eq!(reg.counter("admission.shed_global"), 1);
        assert!(reg.counter("stream.events") > 0);
    }

    #[test]
    fn queue_full_backpressure_maps_to_rate_limited() {
        let mut h = herder();
        let mut p = HorizonPipeline::attach(
            &mut h,
            crate::admission::AdmissionConfig {
                queue_capacity: 1,
                ..Default::default()
            },
        );
        assert_eq!(h.queue.capacity(), Some(1));
        p.submit(&mut h, payment_env(1, 0, 1, 5), 0).unwrap();
        // Admission passes (max_pending is high) but the bounded queue
        // itself refuses: last-resort backpressure, typed for clients.
        assert_eq!(
            p.submit(&mut h, payment_env(0, 1, 1, 7), 0),
            Err(HorizonError::RateLimited {
                retry_after_ms: QUEUE_FULL_RETRY_MS
            })
        );
    }
}
