//! The ingestion indexer: materialized history, trades, and effects.
//!
//! Production horizon does not answer queries by scanning stellar-core's
//! state — an ingestion pipeline consumes each closed ledger once and
//! materializes indexed tables, so a query is an index walk no matter
//! how large the ledger grows. This module is that pipeline for the
//! reproduction: at every close the herder's [`CloseEvent`] feed
//! (transaction set, per-tx results, and the `LedgerDelta` change feed)
//! is folded into per-account history, per-pair trades, and per-account
//! effects.
//!
//! Layout: one `AccountRow` per account (tracked XLM balance, history
//! positions, effect cells) in a hash map, so an account change is one
//! probe; trust-line balances sit beside it in a second map. Both use
//! std's keyed hasher (account ids are peer-chosen) and are never
//! iterated: pages come from each row's append-ordered vectors, and the
//! `ingest.history_rows` / `ingest.effects` counters are added once per
//! close.
//!
//! Everything here is **off-consensus**: the indexer consumes closes
//! after they are final and never feeds anything back, so running it —
//! or crashing it — cannot change externalized headers or bucket hashes
//! (CI's twin-run gate asserts byte-identity with the indexer on/off).
//!
//! Recovery: the feed is bounded; if the consumer falls behind, history
//! for the gap is re-derived from the archive (transaction sets are
//! archived), while change-feed enrichments (outcomes, effects, offer
//! transitions) for the gap are counted as lost. A restarted indexer
//! likewise backfills history from the archive via
//! [`Indexer::backfill_history`].

use crate::api::{HorizonError, Page};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use stellar_buckets::HistoryArchive;
use stellar_crypto::Hash256;
use stellar_herder::{CloseEvent, Herder};
use stellar_ledger::amount::Price;
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::{AccountId, LedgerEntry, LedgerKey, OfferEntry};
use stellar_ledger::tx::{Operation, TransactionEnvelope, TxResult};
use stellar_telemetry::Registry;

/// Close events the herder buffers for the indexer before the oldest is
/// dropped (a dropped event becomes an archive-backfilled gap).
pub const INGEST_FEED_CAP: usize = 1024;

/// The apply outcome of one transaction, when the live change feed
/// carried it. Archive backfill cannot recover it: archived sets only
/// prove a transaction was applied (fee charged, sequence consumed),
/// not whether its operations succeeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxOutcome {
    /// All operations applied.
    pub success: bool,
    /// Fee actually charged (stroops).
    pub fee_charged: i64,
}

/// One per-account history row: an appearance of the account in a
/// confirmed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryRow {
    /// Ledger the transaction was confirmed in.
    pub ledger_seq: u64,
    /// Consensus close time of that ledger.
    pub close_time: u64,
    /// Index of the transaction within the applied set.
    pub tx_index: u32,
    /// The transaction's content hash.
    pub tx_hash: Hash256,
    /// The transaction's source account.
    pub source: AccountId,
    /// Apply outcome; `None` for archive-backfilled rows.
    pub outcome: Option<TxOutcome>,
}

/// A balance-affecting side effect of one ledger close.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// The account came into existence with this starting balance.
    AccountCreated {
        /// Initial XLM balance (stroops).
        balance: i64,
    },
    /// The account was merged away.
    AccountRemoved,
    /// Balance in `asset` increased by `amount`.
    Credited {
        /// The credited asset.
        asset: Asset,
        /// The increase (positive).
        amount: i64,
    },
    /// Balance in `asset` decreased by `amount` (payments, fees, fills).
    Debited {
        /// The debited asset.
        asset: Asset,
        /// The decrease (positive).
        amount: i64,
    },
}

/// One effect row in the per-account effects index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EffectRow {
    /// Ledger the effect happened in.
    pub ledger_seq: u64,
    /// The affected account.
    pub account: AccountId,
    /// What happened.
    pub effect: Effect,
}

/// One trade: a resting offer (partially) consumed by the matching
/// engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TradeRow {
    /// Ledger the fill happened in.
    pub ledger_seq: u64,
    /// The resting offer that was hit.
    pub offer_id: u64,
    /// Owner of the resting offer (the maker).
    pub seller: AccountId,
    /// Asset the maker sold.
    pub selling: Asset,
    /// Asset the maker received.
    pub buying: Asset,
    /// Amount of `selling` filled.
    pub amount: i64,
    /// The resting offer's price.
    pub price: Price,
}

/// Accounts a transaction touches — the key set the per-account history
/// index files the transaction under: the transaction source, every
/// operation source, and every operation counterparty. Sorted, deduped.
pub fn participants(env: &TransactionEnvelope) -> Vec<AccountId> {
    let mut out = vec![env.tx.source];
    for so in &env.tx.operations {
        if let Some(s) = so.source {
            out.push(s);
        }
        match &so.op {
            Operation::CreateAccount { destination, .. }
            | Operation::AccountMerge { destination }
            | Operation::Payment { destination, .. }
            | Operation::PathPayment { destination, .. } => out.push(*destination),
            Operation::AllowTrust { trustor, .. } => out.push(*trustor),
            Operation::SetOptions { .. }
            | Operation::ManageOffer { .. }
            | Operation::ManageData { .. }
            | Operation::ChangeTrust { .. }
            | Operation::BumpSequence { .. } => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds only the requested window out of an index — the whole point
/// of materialized tables is that a page never touches the rest.
fn page_of<C, T>(cells: &[C], cursor: Option<u64>, limit: usize, row: impl Fn(&C) -> T) -> Page<T> {
    let total = cells.len();
    let skip = usize::try_from(cursor.unwrap_or(0))
        .unwrap_or(usize::MAX)
        .min(total);
    let records: Vec<T> = cells[skip..(skip + limit).min(total)]
        .iter()
        .map(row)
        .collect();
    let consumed = skip + records.len();
    Page {
        records,
        cursor: (limit > 0 && consumed < total).then_some(consumed as u64),
        limit,
    }
}

/// What an [`EffectCell`] records; the credited or debited asset is an
/// id into [`Indexer::assets`].
#[derive(Clone, Copy, Debug)]
enum EffectKind {
    AccountCreated,
    AccountRemoved,
    Credited(u32),
    Debited(u32),
}

/// One effect in an account's effects index: an [`EffectRow`] without
/// the account (the index key) and with its asset interned.
#[derive(Clone, Copy, Debug)]
struct EffectCell {
    ledger_seq: u64,
    /// The starting balance, or the credit or debit; 0 for a removal.
    amount: i64,
    kind: EffectKind,
}

/// Everything the indexer keeps about one account, found by one probe.
#[derive(Default)]
struct AccountRow {
    /// Tracked XLM balance; `None` while the account does not exist.
    native: Option<i64>,
    /// Confirmed-transaction history: positions into [`Indexer::rows`],
    /// append-ordered.
    history: Vec<u32>,
    /// Balance effects, append-ordered.
    effects: Vec<EffectCell>,
}

/// The effect of a balance in asset `id` moving from `old` to `new`.
fn moved(id: u32, old: i64, new: i64) -> Option<(EffectKind, i64)> {
    match new.cmp(&old) {
        Ordering::Greater => Some((EffectKind::Credited(id), new - old)),
        Ordering::Less => Some((EffectKind::Debited(id), old - new)),
        Ordering::Equal => None,
    }
}

/// The ingestion indexer over one validator's close-event feed.
pub struct Indexer {
    /// Last ledger folded into the tables.
    ingested_seq: u64,
    /// Where this indexer attached; effects/outcomes/trades are only
    /// complete from here on (earlier ledgers can be history-backfilled
    /// from the archive, without change-feed enrichments).
    attached_seq: u64,
    /// One row per indexed transaction, in ingest order, however many
    /// accounts it touches.
    rows: Vec<HistoryRow>,
    /// One row per account: its tracked XLM balance, history and effects.
    /// Keyed by std's `RandomState`, because account ids are peer-chosen;
    /// nothing iterates it, so hash order reaches no page or counter.
    accounts: HashMap<AccountId, AccountRow>,
    /// Tracked trust-line balances. Deltas against these and against
    /// [`AccountRow::native`] become effect cells.
    trustlines: HashMap<(AccountId, Asset), i64>,
    /// Every asset an effect names, once; an id is an index here.
    assets: Vec<Asset>,
    /// The id of each asset in `assets`.
    asset_ids: BTreeMap<Asset, u32>,
    /// Per-pair trades, append-ordered.
    trades: BTreeMap<(Asset, Asset), Vec<TradeRow>>,
    /// Resting offers as of the last ingested ledger — offer-transition
    /// detection (fills vs cancels) diffs against this.
    offers: BTreeMap<u64, OfferEntry>,
    /// `ingest.*` counters and the ingestion-lag gauge.
    pub registry: Registry,
    /// The same history and effects, one full row per participant.
    #[cfg(test)]
    reference: tests::Reference,
}

impl Indexer {
    /// Attaches an indexer to a validator: turns on the herder's
    /// close-event feed and seeds the balance/offer tables with one
    /// state scan (the only full scan the indexer ever does).
    pub fn attach(herder: &mut Herder) -> Indexer {
        herder.enable_ingest(INGEST_FEED_CAP);
        let head = herder.header.ledger_seq;
        let mut ix = Indexer {
            ingested_seq: head,
            attached_seq: head,
            rows: Vec::new(),
            accounts: HashMap::with_capacity(herder.store.account_count()),
            trustlines: HashMap::new(),
            assets: Vec::new(),
            asset_ids: BTreeMap::new(),
            trades: BTreeMap::new(),
            offers: BTreeMap::new(),
            registry: Registry::new(),
            #[cfg(test)]
            reference: Default::default(),
        };
        for entry in herder.store.all_entries() {
            match entry {
                LedgerEntry::Account(a) => {
                    ix.accounts.entry(a.id).or_default().native = Some(a.balance);
                }
                LedgerEntry::TrustLine(t) => {
                    ix.trustlines.insert((t.account, t.asset), t.balance);
                }
                LedgerEntry::Offer(o) => {
                    ix.offers.insert(o.id, o);
                }
                LedgerEntry::Data(_) => {}
            }
        }
        ix.registry.set_gauge("ingest.lag", 0);
        ix.registry.set_gauge("ingest.seq", head as i64);
        ix
    }

    /// Last ledger materialized into the tables.
    pub fn ingested_seq(&self) -> u64 {
        self.ingested_seq
    }

    /// Ledgers the tables lag behind the given chain head.
    pub fn lag(&self, head_seq: u64) -> u64 {
        head_seq.saturating_sub(self.ingested_seq)
    }

    /// Drains and materializes everything the validator closed since the
    /// last call, then refreshes the lag gauge.
    pub fn ingest(&mut self, herder: &mut Herder) {
        let events = herder.take_close_events();
        for ev in &events {
            self.apply_close(ev, &herder.archive);
        }
        self.note_head(herder.header.ledger_seq);
    }

    /// Updates the ingestion-lag gauge against the current chain head.
    pub fn note_head(&mut self, head_seq: u64) {
        self.registry
            .set_gauge("ingest.lag", self.lag(head_seq) as i64);
        self.registry
            .set_gauge("ingest.seq", self.ingested_seq as i64);
    }

    /// Folds one close event into the tables. Replayed events (at or
    /// below the ingested sequence — e.g. a recovering herder re-emitting
    /// archived closes) are skipped idempotently; a gap (feed overflow)
    /// is history-backfilled from the archive first.
    pub fn apply_close(&mut self, ev: &CloseEvent, archive: &HistoryArchive) {
        if ev.ledger_seq <= self.ingested_seq {
            self.registry.inc("ingest.replay_skipped");
            return;
        }
        while self.ingested_seq + 1 < ev.ledger_seq {
            let seq = self.ingested_seq + 1;
            match (archive.tx_set(seq), archive.header(seq)) {
                (Some(set), Some(hdr)) => {
                    self.index_history(seq, hdr.close_time, &set.txs, None);
                    self.registry.inc("ingest.gap_backfilled");
                }
                _ => self.registry.inc("ingest.gap_lost"),
            }
            self.ingested_seq = seq;
        }
        // Trades diff offers against pre-close state, so they run before
        // the change pass updates the tracked tables.
        self.index_trades(ev);
        self.index_changes(ev);
        self.index_history(ev.ledger_seq, ev.close_time, &ev.txs, Some(&ev.results));
        self.ingested_seq = ev.ledger_seq;
        self.registry.inc("ingest.ledgers");
        self.registry.add("ingest.txs", ev.txs.len() as u64);
        self.registry.add("ingest.changes", ev.changes.len() as u64);
    }

    /// Rebuilds per-account history for every archived ledger this
    /// indexer has not ingested live — the restart / mid-stream-attach
    /// path. Backfilled rows carry no outcome (archives prove a
    /// transaction applied, not how), and no effects or trades (those
    /// need the live change feed).
    pub fn backfill_history(&mut self, archive: &HistoryArchive) {
        let Some(latest) = archive.latest_seq() else {
            return;
        };
        for seq in 2..=latest.min(self.attached_seq) {
            if let (Some(set), Some(hdr)) = (archive.tx_set(seq), archive.header(seq)) {
                self.index_history(seq, hdr.close_time, &set.txs, None);
                self.registry.inc("ingest.backfilled");
            }
        }
    }

    fn index_history(
        &mut self,
        ledger_seq: u64,
        close_time: u64,
        txs: &[TransactionEnvelope],
        results: Option<&[TxResult]>,
    ) {
        let mut filed = 0;
        for (i, env) in txs.iter().enumerate() {
            let outcome = results.and_then(|rs| rs.get(i)).map(|r| match r {
                TxResult::Success { fee_charged } => TxOutcome {
                    success: true,
                    fee_charged: *fee_charged,
                },
                TxResult::Failed { fee_charged, .. } => TxOutcome {
                    success: false,
                    fee_charged: *fee_charged,
                },
                TxResult::Invalid(_) => TxOutcome {
                    success: false,
                    fee_charged: 0,
                },
            });
            let at = u32::try_from(self.rows.len()).expect("history fits u32 positions");
            self.rows.push(HistoryRow {
                ledger_seq,
                close_time,
                tx_index: i as u32,
                tx_hash: env.hash(),
                source: env.tx.source,
                outcome,
            });
            for account in participants(env) {
                self.accounts.entry(account).or_default().history.push(at);
                filed += 1;
                #[cfg(test)]
                self.reference
                    .file_history(account, &self.rows[at as usize]);
            }
        }
        if filed > 0 {
            self.registry.add("ingest.history_rows", filed);
        }
    }

    fn index_changes(&mut self, ev: &CloseEvent) {
        let seq = ev.ledger_seq;
        let native = self.intern(&Asset::Native);
        let mut filed = 0;
        for (key, entry) in &ev.changes {
            let (row, (kind, amount)) = match (key, entry) {
                (LedgerKey::Account(id), Some(LedgerEntry::Account(a))) => {
                    let row = self.accounts.entry(*id).or_default();
                    let effect = match row.native.replace(a.balance) {
                        None => (EffectKind::AccountCreated, a.balance),
                        Some(old) => match moved(native, old, a.balance) {
                            Some(effect) => effect,
                            None => continue, // seq bump / options change only
                        },
                    };
                    (row, effect)
                }
                (LedgerKey::Account(id), None) => {
                    let row = self.accounts.entry(*id).or_default();
                    row.native = None;
                    (row, (EffectKind::AccountRemoved, 0))
                }
                (LedgerKey::TrustLine(id, asset), Some(LedgerEntry::TrustLine(t))) => {
                    let old = self.trustlines.insert((*id, asset.clone()), t.balance);
                    let Some(effect) = moved(self.intern(asset), old.unwrap_or(0), t.balance)
                    else {
                        continue;
                    };
                    (self.accounts.entry(*id).or_default(), effect)
                }
                (LedgerKey::TrustLine(id, asset), None) => {
                    match self.trustlines.remove(&(*id, asset.clone())) {
                        Some(old) if old > 0 => {
                            let effect = (EffectKind::Debited(self.intern(asset)), old);
                            (self.accounts.entry(*id).or_default(), effect)
                        }
                        _ => continue,
                    }
                }
                // Offer transitions feed the trades pass; data entries
                // are not indexed.
                _ => continue,
            };
            let cell = EffectCell {
                ledger_seq: seq,
                amount,
                kind,
            };
            row.effects.push(cell);
            filed += 1;
            #[cfg(test)]
            self.reference.file_effect(key, &cell);
        }
        if filed > 0 {
            self.registry.add("ingest.effects", filed);
        }
    }

    /// Derives trades from offer transitions in the change feed. An
    /// amount decrease on a resting offer is a partial fill; a deletion
    /// is a full fill — unless a `ManageOffer` op in this ledger's set
    /// explicitly targeted that offer id, in which case the change is a
    /// maker update/cancel, not a fill. (Same-ledger cross-then-update
    /// sequences collapse into one transition; production horizon reads
    /// exact fills from operation meta, which this feed does not carry.)
    fn index_trades(&mut self, ev: &CloseEvent) {
        let mut managed: BTreeSet<u64> = BTreeSet::new();
        for env in &ev.txs {
            for so in &env.tx.operations {
                if let Operation::ManageOffer { offer_id, .. } = &so.op {
                    if *offer_id != 0 {
                        managed.insert(*offer_id);
                    }
                }
            }
        }
        for (key, entry) in &ev.changes {
            let LedgerKey::Offer(id) = key else { continue };
            match entry {
                Some(LedgerEntry::Offer(new)) => {
                    if let Some(old) = self.offers.get(id) {
                        if new.amount < old.amount && !managed.contains(id) {
                            let fill = old.amount - new.amount;
                            let old = old.clone();
                            self.push_trade(ev.ledger_seq, &old, fill);
                        }
                    }
                    self.offers.insert(*id, new.clone());
                }
                Some(_) => {}
                None => {
                    if let Some(old) = self.offers.remove(id) {
                        if !managed.contains(id) && old.amount > 0 {
                            self.push_trade(ev.ledger_seq, &old, old.amount);
                        }
                    }
                }
            }
        }
    }

    /// The id of `asset` in `assets`, adding it on first sight.
    fn intern(&mut self, asset: &Asset) -> u32 {
        if let Some(id) = self.asset_ids.get(asset) {
            return *id;
        }
        let id = u32::try_from(self.assets.len()).expect("asset ids fit u32");
        self.assets.push(asset.clone());
        self.asset_ids.insert(asset.clone(), id);
        id
    }

    /// The public row an effect cell of `account` stands for.
    fn effect_row(&self, account: AccountId, cell: &EffectCell) -> EffectRow {
        let asset = |id: u32| self.assets[id as usize].clone();
        let amount = cell.amount;
        let effect = match cell.kind {
            EffectKind::AccountCreated => Effect::AccountCreated { balance: amount },
            EffectKind::AccountRemoved => Effect::AccountRemoved,
            EffectKind::Credited(id) => Effect::Credited {
                asset: asset(id),
                amount,
            },
            EffectKind::Debited(id) => Effect::Debited {
                asset: asset(id),
                amount,
            },
        };
        EffectRow {
            ledger_seq: cell.ledger_seq,
            account,
            effect,
        }
    }

    fn push_trade(&mut self, ledger_seq: u64, offer: &OfferEntry, amount: i64) {
        self.registry.inc("ingest.trades");
        self.trades
            .entry((offer.selling.clone(), offer.buying.clone()))
            .or_default()
            .push(TradeRow {
                ledger_seq,
                offer_id: offer.id,
                seller: offer.account,
                selling: offer.selling.clone(),
                buying: offer.buying.clone(),
                amount,
                price: offer.price,
            });
    }

    // ---- indexed queries: pure index walks, no state scans ----

    /// The account's confirmed-transaction history, oldest first.
    pub fn account_history(
        &self,
        id: AccountId,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<HistoryRow>, HorizonError> {
        crate::api::check_limit(limit)?;
        let at = self.accounts.get(&id).map_or(&[][..], |r| &r.history);
        Ok(page_of(at, cursor, limit, |i| {
            self.rows[*i as usize].clone()
        }))
    }

    /// The account's balance effects, oldest first.
    pub fn account_effects(
        &self,
        id: AccountId,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<EffectRow>, HorizonError> {
        crate::api::check_limit(limit)?;
        let cells = self.accounts.get(&id).map_or(&[][..], |r| &r.effects);
        Ok(page_of(cells, cursor, limit, |c| self.effect_row(id, c)))
    }

    /// Trades on a pair (maker sold `selling` for `buying`), oldest
    /// first.
    pub fn trades(
        &self,
        selling: &Asset,
        buying: &Asset,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<TradeRow>, HorizonError> {
        crate::api::check_limit(limit)?;
        let rows = self
            .trades
            .get(&(selling.clone(), buying.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        Ok(page_of(rows, cursor, limit, TradeRow::clone))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stellar_crypto::sign::KeyPair;
    use stellar_herder::StellarValue;
    use stellar_ledger::amount::{xlm, BASE_FEE};
    use stellar_ledger::entry::{AccountEntry, TrustLineEntry};
    use stellar_ledger::store::LedgerStore;
    use stellar_ledger::tx::{Memo, SourcedOperation, Transaction};
    use stellar_ledger::txset::TransactionSet;
    use stellar_scp::NodeId;

    fn keys(n: u64) -> KeyPair {
        KeyPair::from_seed(500 + n)
    }

    fn acct(n: u64) -> AccountId {
        AccountId(keys(n).public())
    }

    fn herder() -> Herder {
        let mut store = LedgerStore::new();
        for i in 0..3 {
            store.put_account(AccountEntry::new(acct(i), xlm(100)));
        }
        Herder::new(NodeId(0), store, BTreeMap::new())
    }

    fn close_payment(h: &mut Herder, from: u64, to: u64, seq: u64, amount: i64) {
        let env = TransactionEnvelope::sign(
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
        );
        let set = TransactionSet::assemble(h.header.hash(), vec![env], 100);
        h.learn_tx_set(set.clone());
        let v = StellarValue::new(set.hash(), h.header.close_time + 5);
        assert!(h.apply_externalized(h.current_slot(), &v));
    }

    fn ev(seq: u64, changes: Vec<(LedgerKey, Option<LedgerEntry>)>) -> CloseEvent {
        CloseEvent {
            ledger_seq: seq,
            close_time: seq * 5,
            txs: Vec::new(),
            results: Vec::new(),
            changes,
        }
    }

    fn offer(id: u64, amount: i64) -> OfferEntry {
        OfferEntry {
            id,
            account: acct(0),
            selling: Asset::issued(acct(2), "USD"),
            buying: Asset::Native,
            amount,
            price: stellar_ledger::amount::Price::new(2, 1),
            passive: false,
        }
    }

    #[test]
    fn live_close_materializes_history_and_effects() {
        let mut h = herder();
        let mut ix = Indexer::attach(&mut h);
        close_payment(&mut h, 0, 1, 1, 500);
        ix.ingest(&mut h);
        assert_eq!(ix.ingested_seq(), h.header.ledger_seq);
        assert_eq!(ix.lag(h.header.ledger_seq), 0);

        // Both participants carry the same history row, with the live
        // outcome attached.
        let h0 = ix.account_history(acct(0), None, 10).unwrap();
        let h1 = ix.account_history(acct(1), None, 10).unwrap();
        assert_eq!(h0.records, h1.records);
        assert_eq!(h0.records.len(), 1);
        let row = &h0.records[0];
        assert_eq!(row.ledger_seq, 2);
        assert_eq!(row.source, acct(0));
        let outcome = row.outcome.expect("live rows carry outcomes");
        assert!(outcome.success);
        // A bystander indexes nothing.
        assert!(ix
            .account_history(acct(2), None, 10)
            .unwrap()
            .records
            .is_empty());

        // Effects: sender debited amount + fee, receiver credited amount.
        let e0 = ix.account_effects(acct(0), None, 10).unwrap();
        assert_eq!(
            e0.records,
            vec![EffectRow {
                ledger_seq: 2,
                account: acct(0),
                effect: Effect::Debited {
                    asset: Asset::Native,
                    amount: 500 + outcome.fee_charged,
                },
            }]
        );
        let e1 = ix.account_effects(acct(1), None, 10).unwrap();
        assert_eq!(
            e1.records,
            vec![EffectRow {
                ledger_seq: 2,
                account: acct(1),
                effect: Effect::Credited {
                    asset: Asset::Native,
                    amount: 500,
                },
            }]
        );

        // Paging edge cases are inherited: zero limit is malformed, a
        // past-end cursor is an empty terminal page.
        assert_eq!(
            ix.account_history(acct(0), None, 0),
            Err(HorizonError::Malformed {
                reason: "limit must be positive"
            })
        );
        let past = ix.account_history(acct(0), Some(99), 10).unwrap();
        assert!(past.records.is_empty() && past.cursor.is_none());
    }

    #[test]
    fn replayed_events_are_skipped_idempotently() {
        let mut h = herder();
        let mut ix = Indexer::attach(&mut h);
        close_payment(&mut h, 0, 1, 1, 500);
        ix.ingest(&mut h);
        let before = ix.account_history(acct(0), None, 10).unwrap();
        // A recovering herder may re-emit archived closes.
        ix.apply_close(&ev(2, Vec::new()), &h.archive);
        assert_eq!(ix.registry.counter("ingest.replay_skipped"), 1);
        assert_eq!(ix.account_history(acct(0), None, 10).unwrap(), before);
        assert_eq!(ix.ingested_seq(), 2);
    }

    #[test]
    fn feed_overflow_gap_is_backfilled_from_archive() {
        let mut h = herder();
        let mut ix = Indexer::attach(&mut h);
        // Shrink the feed to one event: two of the three closes drop.
        h.enable_ingest(1);
        close_payment(&mut h, 0, 1, 1, 10);
        close_payment(&mut h, 0, 1, 2, 20);
        close_payment(&mut h, 0, 1, 3, 30);
        assert_eq!(h.telemetry.registry.counter("ingest.feed_dropped"), 2);
        ix.ingest(&mut h);
        assert_eq!(ix.ingested_seq(), h.header.ledger_seq);
        assert_eq!(ix.registry.counter("ingest.gap_backfilled"), 2);
        // History is complete — the gap came back from the archive,
        // without outcomes (archives prove application, not results).
        let rows = ix.account_history(acct(1), None, 10).unwrap().records;
        assert_eq!(
            rows.iter().map(|r| r.ledger_seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(rows[0].outcome.is_none() && rows[1].outcome.is_none());
        assert!(rows[2].outcome.is_some());
    }

    #[test]
    fn restarted_indexer_backfills_history() {
        let mut h = herder();
        // Two ledgers close before any indexer exists.
        close_payment(&mut h, 0, 1, 1, 10);
        close_payment(&mut h, 1, 2, 1, 20);
        // Attach mid-stream (models a horizon restart) and backfill.
        let mut ix = Indexer::attach(&mut h);
        ix.backfill_history(&h.archive);
        let rows = ix.account_history(acct(1), None, 10).unwrap().records;
        assert_eq!(
            rows.iter().map(|r| r.ledger_seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(rows.iter().all(|r| r.outcome.is_none()));
        // Live ingestion continues seamlessly after the backfill.
        close_payment(&mut h, 0, 1, 2, 30);
        ix.ingest(&mut h);
        let rows = ix.account_history(acct(1), None, 10).unwrap().records;
        assert_eq!(rows.len(), 3);
        assert!(rows[2].outcome.is_some());
    }

    #[test]
    fn trades_derive_from_offer_transitions() {
        let mut h = herder();
        let mut ix = Indexer::attach(&mut h);
        let usd = Asset::issued(acct(2), "USD");
        // Ledger 2: an offer appears — not a trade.
        ix.apply_close(
            &ev(
                2,
                vec![(LedgerKey::Offer(7), Some(LedgerEntry::Offer(offer(7, 100))))],
            ),
            &h.archive,
        );
        // Ledger 3: its amount drops with no ManageOffer targeting it —
        // a partial fill of 60.
        ix.apply_close(
            &ev(
                3,
                vec![(LedgerKey::Offer(7), Some(LedgerEntry::Offer(offer(7, 40))))],
            ),
            &h.archive,
        );
        // Ledger 4: it disappears — the remaining 40 filled.
        ix.apply_close(&ev(4, vec![(LedgerKey::Offer(7), None)]), &h.archive);
        let trades = ix.trades(&usd, &Asset::Native, None, 10).unwrap().records;
        assert_eq!(
            trades
                .iter()
                .map(|t| (t.ledger_seq, t.amount))
                .collect::<Vec<_>>(),
            vec![(3, 60), (4, 40)]
        );
        assert!(trades
            .iter()
            .all(|t| t.offer_id == 7 && t.seller == acct(0)));

        // A deletion explicitly targeted by a ManageOffer op is a maker
        // cancel, not a fill.
        ix.apply_close(
            &ev(
                5,
                vec![(LedgerKey::Offer(8), Some(LedgerEntry::Offer(offer(8, 50))))],
            ),
            &h.archive,
        );
        let cancel = TransactionEnvelope::sign(
            Transaction {
                source: acct(0),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::ManageOffer {
                        offer_id: 8,
                        selling: usd.clone(),
                        buying: Asset::Native,
                        amount: 0,
                        price: stellar_ledger::amount::Price::new(2, 1),
                        passive: false,
                    },
                }],
            },
            &[&keys(0)],
        );
        let mut cancel_ev = ev(6, vec![(LedgerKey::Offer(8), None)]);
        cancel_ev.txs = vec![cancel];
        cancel_ev.results = vec![TxResult::Success {
            fee_charged: BASE_FEE,
        }];
        ix.apply_close(&cancel_ev, &h.archive);
        let trades = ix.trades(&usd, &Asset::Native, None, 10).unwrap().records;
        assert_eq!(trades.len(), 2, "a cancel is not a fill");
    }

    #[test]
    fn participants_cover_sources_and_counterparties() {
        let env = TransactionEnvelope::sign(
            Transaction {
                source: acct(0),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![
                    SourcedOperation {
                        source: Some(acct(1)),
                        op: Operation::Payment {
                            destination: acct(2),
                            asset: Asset::Native,
                            amount: 1,
                        },
                    },
                    SourcedOperation {
                        source: None,
                        op: Operation::BumpSequence { bump_to: 5 },
                    },
                ],
            },
            &[&keys(0), &keys(1)],
        );
        let mut want = vec![acct(0), acct(1), acct(2)];
        want.sort_unstable();
        assert_eq!(participants(&env), want);
    }

    /// The layout the compact tables replace: a full [`HistoryRow`] and
    /// [`EffectRow`] per participant, filed as the indexer files them.
    #[derive(Default)]
    pub(super) struct Reference {
        history: BTreeMap<AccountId, Vec<HistoryRow>>,
        effects: BTreeMap<AccountId, Vec<EffectRow>>,
    }

    impl Reference {
        pub(super) fn file_history(&mut self, account: AccountId, row: &HistoryRow) {
            self.history.entry(account).or_default().push(row.clone());
        }

        /// Files the effect `cell` records for the account (and asset)
        /// of `key`, reading the asset from the key, not the interner.
        pub(super) fn file_effect(&mut self, key: &LedgerKey, cell: &EffectCell) {
            let (account, asset) = match key {
                LedgerKey::TrustLine(id, asset) => (*id, asset.clone()),
                LedgerKey::Account(id) => (*id, Asset::Native),
                _ => unreachable!("only accounts and trust lines have effects"),
            };
            let amount = cell.amount;
            let effect = match cell.kind {
                EffectKind::AccountCreated => Effect::AccountCreated { balance: amount },
                EffectKind::AccountRemoved => Effect::AccountRemoved,
                EffectKind::Credited(_) => Effect::Credited { asset, amount },
                EffectKind::Debited(_) => Effect::Debited { asset, amount },
            };
            self.effects.entry(account).or_default().push(EffectRow {
                ledger_seq: cell.ledger_seq,
                account,
                effect,
            });
        }
    }

    /// Every page of every account, for every cursor (none, and 0 to one
    /// past the end) and every limit up to the table's length, equals the
    /// page cut from the reference.
    fn assert_pages_match_reference(ix: &Indexer, accounts: &[AccountId]) {
        for id in accounts {
            let history = ix.reference.history.get(id).map_or(&[][..], Vec::as_slice);
            let effects = ix.reference.effects.get(id).map_or(&[][..], Vec::as_slice);
            let n = history.len().max(effects.len());
            for cursor in std::iter::once(None).chain((0..=n as u64 + 1).map(Some)) {
                for limit in 1..=n.max(1) {
                    assert_eq!(
                        ix.account_history(*id, cursor, limit).unwrap(),
                        page_of(history, cursor, limit, HistoryRow::clone),
                        "history of {id:?} at {cursor:?}+{limit}"
                    );
                    assert_eq!(
                        ix.account_effects(*id, cursor, limit).unwrap(),
                        page_of(effects, cursor, limit, EffectRow::clone),
                        "effects of {id:?} at {cursor:?}+{limit}"
                    );
                }
            }
        }
    }

    /// One random transaction from account `from`: a native or USD
    /// payment, an offer either way across the USD/XLM book, a cancel, a
    /// path payment, a payment that fails for want of funds, a new
    /// account, or a merge. `None` when `from` no longer exists.
    fn random_tx(
        h: &Herder,
        rng: &mut StdRng,
        from: u64,
        accounts: &[u64],
        created: &mut u64,
    ) -> Option<TransactionEnvelope> {
        let source = h.store.account(acct(from))?;
        let usd = Asset::issued(acct(9), "USD");
        let to = acct(accounts[rng.gen_range(0..accounts.len())]);
        let amount = rng.gen_range(1..50i64) * xlm(1);
        let price = Price::new(rng.gen_range(1..4), 2);
        let offer =
            |selling: &Asset, buying: &Asset, offer_id: u64, amount: i64| Operation::ManageOffer {
                offer_id,
                selling: selling.clone(),
                buying: buying.clone(),
                amount,
                price,
                passive: false,
            };
        let op = match rng.gen_range(0..9) {
            0 => Operation::Payment {
                destination: to,
                asset: Asset::Native,
                amount,
            },
            1 => Operation::Payment {
                destination: to,
                asset: usd.clone(),
                amount,
            },
            2 => offer(&usd, &Asset::Native, 0, amount),
            3 => offer(&Asset::Native, &usd, 0, amount),
            4 => {
                let own = h
                    .store
                    .offers()
                    .into_iter()
                    .find(|o| o.account == acct(from))?;
                offer(&own.selling, &own.buying, own.id, 0)
            }
            5 => Operation::PathPayment {
                send_asset: Asset::Native,
                send_max: xlm(200),
                destination: to,
                dest_asset: usd.clone(),
                dest_amount: amount / 4,
                path: Vec::new(),
            },
            6 => Operation::Payment {
                destination: to,
                asset: Asset::Native,
                amount: xlm(1_000_000),
            },
            7 => {
                *created += 1;
                Operation::CreateAccount {
                    destination: acct(*created),
                    starting_balance: xlm(20),
                }
            }
            _ => Operation::AccountMerge { destination: to },
        };
        Some(TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: source.seq_num + 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation { source: None, op }],
            },
            &[&keys(from)],
        ))
    }

    /// The indexers [`random_closes`] feeds and the accounts worth
    /// paging: `live` attached at genesis, `late` mid-stream.
    struct Fed {
        live: [Indexer; 2],
        late: [Indexer; 2],
        accounts: Vec<AccountId>,
    }

    /// 24 closes of random transactions ([`random_tx`]) fed to two
    /// indexers attached at genesis and, from close 14, to two more
    /// attached mid-stream and backfilled from the archive. Closes 8..=10
    /// share a one-event feed: two of them drop and come back from the
    /// archive, without enrichments.
    fn random_closes() -> Fed {
        let usd = Asset::issued(acct(9), "USD");
        let mut store = LedgerStore::new();
        store.put_account(AccountEntry::new(acct(9), xlm(100)));
        for i in 0..6 {
            store.put_account(AccountEntry::new(acct(i), xlm(1_000)));
            store.put_trustline(TrustLineEntry {
                account: acct(i),
                asset: usd.clone(),
                balance: xlm(500),
                limit: i64::MAX,
                authorized: true,
            });
        }
        let mut h = Herder::new(NodeId(0), store, BTreeMap::new());
        let mut live = [Indexer::attach(&mut h), Indexer::attach(&mut h)];
        let mut late: Option<[Indexer; 2]> = None;
        let mut rng = StdRng::seed_from_u64(37);
        let mut accounts: Vec<u64> = (0..6).collect();
        let mut created = 100;
        for close in 0..24 {
            match close {
                8 => h.enable_ingest(1),
                11 => h.enable_ingest(INGEST_FEED_CAP),
                14 => {
                    let mut pair = [Indexer::attach(&mut h), Indexer::attach(&mut h)];
                    for ix in &mut pair {
                        ix.backfill_history(&h.archive);
                    }
                    late = Some(pair);
                }
                _ => {}
            }
            let mut txs = Vec::new();
            for from in &accounts {
                if rng.gen_bool(0.8) {
                    txs.extend(random_tx(&h, &mut rng, *from, &accounts, &mut created));
                }
            }
            accounts.extend(101..=created);
            accounts.sort_unstable();
            accounts.dedup();
            let set = TransactionSet::assemble(h.header.hash(), txs, 100);
            h.learn_tx_set(set.clone());
            let v = StellarValue::new(set.hash(), h.header.close_time + 5);
            assert!(h.apply_externalized(h.current_slot(), &v));
            if !(8..10).contains(&close) {
                for ev in h.take_close_events() {
                    for ix in live.iter_mut().chain(late.iter_mut().flatten()) {
                        ix.apply_close(&ev, &h.archive);
                    }
                }
            }
        }
        Fed {
            live,
            late: late.expect("attached"),
            accounts: accounts.iter().chain(&[9, 999]).map(|n| acct(*n)).collect(),
        }
    }

    #[test]
    fn compact_tables_page_like_one_row_per_participant() {
        let Fed {
            live: [live, _],
            late: [late, _],
            accounts,
        } = random_closes();
        assert_eq!(live.registry.counter("ingest.gap_backfilled"), 2);
        assert_eq!(late.ingested_seq(), live.ingested_seq());
        assert!(late.registry.counter("ingest.backfilled") > 10);
        let effects = || live.reference.effects.values().flatten();
        assert!(effects().any(|r| matches!(r.effect, Effect::AccountCreated { .. })));
        assert!(effects().any(|r| r.effect == Effect::AccountRemoved));
        assert!(live
            .rows
            .iter()
            .any(|r| r.outcome.is_some_and(|o| !o.success)));
        assert!(!live.trades.is_empty(), "the book never crossed");
        assert_pages_match_reference(&live, &accounts);
        assert_pages_match_reference(&late, &accounts);
    }

    /// Two indexers in one process hash with different `RandomState`
    /// keys. Fed the same closes, they serve the same pages and counters,
    /// so no hash order leaks out; and the per-close counters equal the
    /// reference's one-row-per-participant totals.
    #[test]
    fn twin_indexers_agree_whatever_their_hash_keys() {
        let Fed {
            live,
            late,
            accounts,
        } = random_closes();
        let usd = Asset::issued(acct(9), "USD");
        for [a, b] in [&live, &late] {
            assert_eq!(a.registry.snapshot(), b.registry.snapshot());
            let counter = |name| a.registry.counter(name) as usize;
            assert_eq!(
                counter("ingest.history_rows"),
                a.reference.history.values().flatten().count()
            );
            assert_eq!(
                counter("ingest.effects"),
                a.reference.effects.values().flatten().count()
            );
            for id in &accounts {
                let history = a.reference.history.get(id).map_or(0, Vec::len);
                let n = history.max(a.reference.effects.get(id).map_or(0, Vec::len));
                for cursor in std::iter::once(None).chain((0..=n as u64 + 1).map(Some)) {
                    for limit in 1..=n.max(1) {
                        assert_eq!(
                            a.account_history(*id, cursor, limit),
                            b.account_history(*id, cursor, limit)
                        );
                        assert_eq!(
                            a.account_effects(*id, cursor, limit),
                            b.account_effects(*id, cursor, limit)
                        );
                    }
                }
            }
            for (selling, buying) in [(&usd, &Asset::Native), (&Asset::Native, &usd)] {
                let all = a.trades(selling, buying, None, usize::MAX).unwrap();
                assert_eq!(all, b.trades(selling, buying, None, usize::MAX).unwrap());
                for cursor in 0..=all.records.len() as u64 {
                    assert_eq!(
                        a.trades(selling, buying, Some(cursor), 2),
                        b.trades(selling, buying, Some(cursor), 2)
                    );
                }
            }
        }
        assert!(live[0].registry.counter("ingest.trades") > 0);
    }
}
