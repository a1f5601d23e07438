//! The bridge server: payment notifications (§5.4).
//!
//! "A bridge server facilitates integration of Stellar with existing
//! systems, e.g., posting notifications of all payments received by a
//! specific account." This implementation is a Horizon client: it pages
//! each watched account's indexed history ([`Indexer::account_history`]),
//! keeps the transactions whose apply outcome is success, fetches each
//! through [`Horizon::transactions_in_ledger`], and queues a structured
//! notification per payment (or path payment) to the watched account —
//! the same cursor-paged surfaces external integrators consume.

use crate::api::Horizon;
use crate::ingest::Indexer;
use std::collections::BTreeMap;
use stellar_herder::Herder;
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::AccountId;
use stellar_ledger::tx::{Memo, Operation};

/// One "you got paid" event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaymentNotification {
    /// Ledger the payment was confirmed in.
    pub ledger_seq: u64,
    /// The paying account (operation source).
    pub from: AccountId,
    /// The watched receiving account.
    pub to: AccountId,
    /// Asset delivered.
    pub asset: Asset,
    /// Amount delivered.
    pub amount: i64,
    /// The transaction memo (deposit routing, invoices…).
    pub memo: Memo,
}

/// Watches accounts and drains their notifications.
#[derive(Debug, Default)]
pub struct BridgeServer {
    /// Watched account → history rows already scanned (its cursor).
    watched: BTreeMap<AccountId, u64>,
}

impl BridgeServer {
    /// A bridge with no watched accounts.
    pub fn new() -> BridgeServer {
        BridgeServer::default()
    }

    /// Watches an account for incoming payments.
    pub fn watch(&mut self, account: AccountId) {
        self.watched.entry(account).or_insert(0);
    }

    /// Scans the history `indexer` filed under each watched account since
    /// the last poll and returns fresh notifications. Only transactions
    /// whose outcome is success notify: a failed payment delivered
    /// nothing, and an archive-backfilled row carries no outcome.
    pub fn poll(&mut self, herder: &Herder, indexer: &Indexer) -> Vec<PaymentNotification> {
        let mut notes = Vec::new();
        for (&account, seen) in &mut self.watched {
            while let Ok(page) = indexer.account_history(account, Some(*seen), 64) {
                *seen += page.records.len() as u64;
                for row in page.records {
                    if !row.outcome.is_some_and(|o| o.success) {
                        continue;
                    }
                    let cursor = Some(u64::from(row.tx_index));
                    let Ok(Some(env)) =
                        Horizon::transactions_in_ledger(herder, row.ledger_seq, cursor, 1)
                            .map(|mut p| p.records.pop())
                    else {
                        continue;
                    };
                    for so in &env.tx.operations {
                        let (to, asset, amount) = match &so.op {
                            Operation::Payment {
                                destination,
                                asset,
                                amount,
                            } => (destination, asset, amount),
                            Operation::PathPayment {
                                destination,
                                dest_asset,
                                dest_amount,
                                ..
                            } => (destination, dest_asset, dest_amount),
                            _ => continue,
                        };
                        if *to == account {
                            notes.push(PaymentNotification {
                                ledger_seq: row.ledger_seq,
                                from: so.source.unwrap_or(env.tx.source),
                                to: account,
                                asset: asset.clone(),
                                amount: *amount,
                                memo: env.tx.memo.clone(),
                            });
                        }
                    }
                }
                if page.cursor.is_none() {
                    break;
                }
            }
        }
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use stellar_crypto::sign::KeyPair;
    use stellar_ledger::amount::{xlm, BASE_FEE};
    use stellar_ledger::entry::AccountEntry;
    use stellar_ledger::store::LedgerStore;
    use stellar_ledger::tx::{SourcedOperation, Transaction, TransactionEnvelope};
    use stellar_ledger::txset::TransactionSet;
    use stellar_scp::NodeId;

    fn keys(n: u64) -> KeyPair {
        KeyPair::from_seed(900 + n)
    }

    fn acct(n: u64) -> AccountId {
        AccountId(keys(n).public())
    }

    fn close_payment(h: &mut Herder, from: u64, to: u64, seq: u64, amount: i64, memo: Memo) {
        let env = TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: seq,
                fee: BASE_FEE,
                time_bounds: None,
                memo,
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
        let v = stellar_herder::StellarValue::new(set.hash(), h.header.close_time + 5);
        assert!(h.apply_externalized(h.current_slot(), &v));
    }

    fn herder_and_indexer() -> (Herder, Indexer) {
        let mut store = LedgerStore::new();
        for i in 0..3 {
            store.put_account(AccountEntry::new(acct(i), xlm(100)));
        }
        let mut h = Herder::new(NodeId(0), store, BTreeMap::new());
        let ix = Indexer::attach(&mut h);
        (h, ix)
    }

    #[test]
    fn notifications_for_watched_accounts_only() {
        let (mut h, mut ix) = herder_and_indexer();
        let mut bridge = BridgeServer::new();
        bridge.watch(acct(1));

        close_payment(&mut h, 0, 1, 1, 500, Memo::Text("invoice 7".into()));
        close_payment(&mut h, 0, 2, 2, 300, Memo::None); // unwatched
        ix.ingest(&mut h);

        let notes = bridge.poll(&h, &ix);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].to, acct(1));
        assert_eq!(notes[0].amount, 500);
        assert_eq!(notes[0].memo, Memo::Text("invoice 7".into()));
        // Polling again yields nothing new.
        assert!(bridge.poll(&h, &ix).is_empty());
        // A later payment shows up on the next poll.
        close_payment(&mut h, 2, 1, 1, 40, Memo::Id(9));
        ix.ingest(&mut h);
        let notes = bridge.poll(&h, &ix);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].amount, 40);
        assert_eq!(notes[0].ledger_seq, h.header.ledger_seq);
    }

    #[test]
    fn failed_payments_notify_nothing() {
        let (mut h, mut ix) = herder_and_indexer();
        let mut bridge = BridgeServer::new();
        bridge.watch(acct(1));
        // 1 000 000 XLM from an account holding 100: the transaction is
        // applied (fee charged, sequence consumed) but its payment fails.
        close_payment(&mut h, 0, 1, 1, xlm(1_000_000), Memo::Id(5));
        ix.ingest(&mut h);
        let closed = h.close_stats.last().unwrap();
        assert_eq!((closed.tx_count, closed.failed_tx_count), (1, 1));
        assert!(bridge.poll(&h, &ix).is_empty());
        // The next, funded payment still notifies.
        close_payment(&mut h, 0, 1, 2, 500, Memo::None);
        ix.ingest(&mut h);
        let notes = bridge.poll(&h, &ix);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].amount, 500);
    }
}
