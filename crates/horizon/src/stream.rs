//! Streaming subscriptions: per-ledger deltas to cursor-anchored
//! subscribers.
//!
//! Production horizon serves `.../stream` endpoints via server-sent
//! events; this reproduction models the same contract in-process. A
//! subscriber registers a [`Topic`] (an account's balances, one order
//! book's deltas, or transaction statuses) and polls with the standard
//! [`Page`] cursor. Events are buffered per subscriber with a hard
//! bound; a consumer that falls behind is **evicted** — its next poll
//! gets [`HorizonError::Staleness`] with the cursor to resume from, and
//! it re-reads what it missed from the indexer's materialized tables.
//! That keeps one slow client from holding memory hostage (the same
//! congestion-collapse defense as admission control, applied to reads).

use crate::api::{HorizonError, Page};
use std::collections::{BTreeMap, VecDeque};
use stellar_crypto::Hash256;
use stellar_herder::CloseEvent;
use stellar_ledger::amount::Price;
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::{AccountId, LedgerEntry, LedgerKey};
use stellar_ledger::tx::TxResult;
use stellar_telemetry::Registry;

/// Default per-subscriber buffer bound (events).
pub const DEFAULT_BUFFER: usize = 256;

/// What a subscriber wants to hear about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topic {
    /// Balance changes (native + trustlines) of one account.
    Account(AccountId),
    /// Resting-offer deltas on one order-book side.
    OrderBook {
        /// Asset the makers sell.
        selling: Asset,
        /// Asset the makers buy.
        buying: Asset,
    },
    /// Status of every transaction applied, per ledger.
    TxStatus,
}

/// One streamed delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// An account's balance in `asset` changed (or appeared).
    Balance {
        /// Ledger the change landed in.
        ledger_seq: u64,
        /// The account.
        account: AccountId,
        /// The asset (`Asset::Native` for XLM).
        asset: Asset,
        /// The post-close balance.
        balance: i64,
    },
    /// The account was merged away.
    AccountRemoved {
        /// Ledger of the merge.
        ledger_seq: u64,
        /// The removed account.
        account: AccountId,
    },
    /// A resting offer was created or updated on the subscribed book.
    OfferPut {
        /// Ledger of the change.
        ledger_seq: u64,
        /// The offer id.
        offer_id: u64,
        /// The maker.
        seller: AccountId,
        /// Price of the resting offer.
        price: Price,
        /// Remaining amount of the selling asset.
        amount: i64,
    },
    /// A resting offer left the subscribed book (filled or canceled).
    OfferRemoved {
        /// Ledger of the change.
        ledger_seq: u64,
        /// The offer id.
        offer_id: u64,
    },
    /// One applied transaction's status.
    TxStatus {
        /// Ledger the transaction was applied in.
        ledger_seq: u64,
        /// The transaction's content hash.
        tx_hash: Hash256,
        /// Whether all its operations succeeded.
        success: bool,
        /// Fee charged (stroops).
        fee_charged: i64,
    },
}

struct Subscriber {
    topic: Topic,
    /// Undelivered events, tagged with this subscription's own strictly
    /// increasing cursor.
    buf: VecDeque<(u64, StreamEvent)>,
    /// Cursor the next published event will get.
    next_cursor: u64,
    /// Set when the subscriber was evicted for falling behind: the
    /// cursor to resume from, surfaced once as `Staleness`.
    evicted_resume: Option<u64>,
}

/// The fan-out hub: subscriptions, bounded buffers, eviction.
pub struct SubscriptionHub {
    subs: BTreeMap<u64, Subscriber>,
    next_id: u64,
    buffer: usize,
    /// Offer id → book side, learned from puts — deletions carry only
    /// the id, so routing them to the right book needs this map. Offers
    /// resting before the hub attached are unknown and their removal is
    /// counted, not routed.
    offer_books: BTreeMap<u64, (Asset, Asset)>,
    /// `stream.*` counters.
    pub registry: Registry,
}

impl SubscriptionHub {
    /// A hub bounding each subscriber at `buffer` pending events.
    pub fn new(buffer: usize) -> SubscriptionHub {
        SubscriptionHub {
            subs: BTreeMap::new(),
            next_id: 1,
            buffer: buffer.max(1),
            offer_books: BTreeMap::new(),
            registry: Registry::new(),
        }
    }

    /// Registers a subscription; the returned id is the poll handle.
    pub fn subscribe(&mut self, topic: Topic) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.subs.insert(
            id,
            Subscriber {
                topic,
                buf: VecDeque::new(),
                next_cursor: 0,
                evicted_resume: None,
            },
        );
        self.registry.inc("stream.subscribed");
        self.registry
            .set_gauge("stream.subscribers", self.subs.len() as i64);
        id
    }

    /// Live subscription count.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Fans one close event out to every matching subscriber. A
    /// subscriber whose buffer would overflow is evicted instead of
    /// growing without bound.
    pub fn publish(&mut self, ev: &CloseEvent) {
        let seq = ev.ledger_seq;
        // Derive the per-topic event streams once, then route.
        let mut account_events: Vec<(AccountId, StreamEvent)> = Vec::new();
        let mut book_events: Vec<((Asset, Asset), StreamEvent)> = Vec::new();
        for (key, entry) in &ev.changes {
            match (key, entry) {
                (LedgerKey::Account(id), Some(LedgerEntry::Account(a))) => {
                    account_events.push((
                        *id,
                        StreamEvent::Balance {
                            ledger_seq: seq,
                            account: *id,
                            asset: Asset::Native,
                            balance: a.balance,
                        },
                    ));
                }
                (LedgerKey::Account(id), None) => {
                    account_events.push((
                        *id,
                        StreamEvent::AccountRemoved {
                            ledger_seq: seq,
                            account: *id,
                        },
                    ));
                }
                (LedgerKey::TrustLine(id, asset), Some(LedgerEntry::TrustLine(t))) => {
                    account_events.push((
                        *id,
                        StreamEvent::Balance {
                            ledger_seq: seq,
                            account: *id,
                            asset: asset.clone(),
                            balance: t.balance,
                        },
                    ));
                }
                (LedgerKey::Offer(id), Some(LedgerEntry::Offer(o))) => {
                    let book = (o.selling.clone(), o.buying.clone());
                    self.offer_books.insert(*id, book.clone());
                    book_events.push((
                        book,
                        StreamEvent::OfferPut {
                            ledger_seq: seq,
                            offer_id: *id,
                            seller: o.account,
                            price: o.price,
                            amount: o.amount,
                        },
                    ));
                }
                (LedgerKey::Offer(id), None) => match self.offer_books.remove(id) {
                    Some(book) => book_events.push((
                        book,
                        StreamEvent::OfferRemoved {
                            ledger_seq: seq,
                            offer_id: *id,
                        },
                    )),
                    None => self.registry.inc("stream.unknown_offer_removal"),
                },
                _ => {}
            }
        }
        let tx_events: Vec<StreamEvent> = ev
            .txs
            .iter()
            .zip(&ev.results)
            .map(|(env, r)| {
                let (success, fee_charged) = match r {
                    TxResult::Success { fee_charged } => (true, *fee_charged),
                    TxResult::Failed { fee_charged, .. } => (false, *fee_charged),
                    TxResult::Invalid(_) => (false, 0),
                };
                StreamEvent::TxStatus {
                    ledger_seq: seq,
                    tx_hash: env.hash(),
                    success,
                    fee_charged,
                }
            })
            .collect();

        let buffer = self.buffer;
        let mut published = 0u64;
        let mut evictions = 0u64;
        for sub in self.subs.values_mut() {
            if sub.evicted_resume.is_some() {
                continue; // already evicted; waiting for the client to re-anchor
            }
            let events: Vec<&StreamEvent> = match &sub.topic {
                Topic::Account(id) => account_events
                    .iter()
                    .filter(|(a, _)| a == id)
                    .map(|(_, e)| e)
                    .collect(),
                Topic::OrderBook { selling, buying } => book_events
                    .iter()
                    .filter(|((s, b), _)| s == selling && b == buying)
                    .map(|(_, e)| e)
                    .collect(),
                Topic::TxStatus => tx_events.iter().collect(),
            };
            for e in events {
                if sub.buf.len() >= buffer {
                    // Slow consumer: evict rather than buffer without
                    // bound. The resume cursor is where its window ends.
                    sub.evicted_resume = Some(sub.next_cursor);
                    sub.buf.clear();
                    evictions += 1;
                    break;
                }
                sub.buf.push_back((sub.next_cursor, e.clone()));
                sub.next_cursor += 1;
                published += 1;
            }
        }
        self.registry.add("stream.events", published);
        self.registry.add("stream.evictions", evictions);
        self.registry.inc("stream.ledgers");
    }

    /// Polls a subscription. `cursor = None` reads from the oldest
    /// buffered event; otherwise events before `cursor` are acknowledged
    /// and dropped. The returned page's cursor is always `Some` (streams
    /// never terminate): an empty page returns the caller's own anchor,
    /// stable across repeated polls until new events arrive.
    ///
    /// Errors: an unknown id is `NotFound`; an evicted subscriber (or a
    /// cursor pointing before the buffered window) gets `Staleness` with
    /// the resume cursor — re-poll from there after catching up via the
    /// indexer.
    pub fn poll(
        &mut self,
        id: u64,
        cursor: Option<u64>,
        limit: usize,
    ) -> Result<Page<StreamEvent>, HorizonError> {
        crate::api::check_limit(limit)?;
        let sub = self.subs.get_mut(&id).ok_or(HorizonError::NotFound)?;
        if let Some(resume) = sub.evicted_resume.take() {
            self.registry.inc("stream.stale_polls");
            return Err(HorizonError::Staleness { resume });
        }
        let oldest = sub.buf.front().map(|(c, _)| *c).unwrap_or(sub.next_cursor);
        let anchor = cursor.unwrap_or(oldest).min(sub.next_cursor);
        if anchor < oldest {
            self.registry.inc("stream.stale_polls");
            return Err(HorizonError::Staleness { resume: oldest });
        }
        // Acknowledge everything before the anchor.
        while sub.buf.front().is_some_and(|(c, _)| *c < anchor) {
            sub.buf.pop_front();
        }
        let records: Vec<StreamEvent> =
            sub.buf.iter().take(limit).map(|(_, e)| e.clone()).collect();
        let next = anchor + records.len() as u64;
        self.registry.add("stream.delivered", records.len() as u64);
        Ok(Page {
            records,
            cursor: Some(next),
            limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::KeyPair;
    use stellar_ledger::entry::{AccountEntry, OfferEntry};

    fn acct(n: u64) -> AccountId {
        AccountId(KeyPair::from_seed(600 + n).public())
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

    fn balance_change(n: u64, balance: i64) -> (LedgerKey, Option<LedgerEntry>) {
        (
            LedgerKey::Account(acct(n)),
            Some(LedgerEntry::Account(AccountEntry::new(acct(n), balance))),
        )
    }

    fn offer(id: u64, amount: i64) -> OfferEntry {
        OfferEntry {
            id,
            account: acct(0),
            selling: Asset::issued(acct(9), "USD"),
            buying: Asset::Native,
            amount,
            price: Price::new(2, 1),
            passive: false,
        }
    }

    #[test]
    fn account_topic_delivers_only_matching_balances() {
        let mut hub = SubscriptionHub::new(DEFAULT_BUFFER);
        let sub = hub.subscribe(Topic::Account(acct(1)));
        hub.publish(&ev(2, vec![balance_change(1, 500), balance_change(2, 900)]));
        let page = hub.poll(sub, None, 10).unwrap();
        assert_eq!(
            page.records,
            vec![StreamEvent::Balance {
                ledger_seq: 2,
                account: acct(1),
                asset: Asset::Native,
                balance: 500,
            }]
        );
        // Streams never terminate: the cursor is the stable next anchor.
        assert_eq!(page.cursor, Some(1));
        // An empty poll repeats the same anchor until new events arrive.
        let empty = hub.poll(sub, page.cursor, 10).unwrap();
        assert!(empty.records.is_empty());
        assert_eq!(empty.cursor, Some(1));
        hub.publish(&ev(3, vec![(LedgerKey::Account(acct(1)), None)]));
        let next = hub.poll(sub, empty.cursor, 10).unwrap();
        assert_eq!(
            next.records,
            vec![StreamEvent::AccountRemoved {
                ledger_seq: 3,
                account: acct(1),
            }]
        );
        assert_eq!(next.cursor, Some(2));
    }

    #[test]
    fn order_book_topic_routes_puts_and_deletions() {
        let mut hub = SubscriptionHub::new(DEFAULT_BUFFER);
        let usd = Asset::issued(acct(9), "USD");
        let sub = hub.subscribe(Topic::OrderBook {
            selling: usd.clone(),
            buying: Asset::Native,
        });
        hub.publish(&ev(
            2,
            vec![(LedgerKey::Offer(7), Some(LedgerEntry::Offer(offer(7, 100))))],
        ));
        // The deletion carries only the id; the hub routes it from the
        // book learned at put time.
        hub.publish(&ev(3, vec![(LedgerKey::Offer(7), None)]));
        // Deleting an offer the hub never saw is counted, not routed.
        hub.publish(&ev(4, vec![(LedgerKey::Offer(8), None)]));
        let page = hub.poll(sub, None, 10).unwrap();
        assert_eq!(page.records.len(), 2);
        assert!(matches!(
            page.records[0],
            StreamEvent::OfferPut {
                offer_id: 7,
                amount: 100,
                ..
            }
        ));
        assert_eq!(
            page.records[1],
            StreamEvent::OfferRemoved {
                ledger_seq: 3,
                offer_id: 7,
            }
        );
        assert_eq!(hub.registry.counter("stream.unknown_offer_removal"), 1);
    }

    #[test]
    fn slow_consumer_is_evicted_and_told_where_to_resume() {
        let mut hub = SubscriptionHub::new(2);
        let sub = hub.subscribe(Topic::Account(acct(1)));
        hub.publish(&ev(2, vec![balance_change(1, 10)]));
        hub.publish(&ev(3, vec![balance_change(1, 20)]));
        // Third undrained event overflows the bound: evict.
        hub.publish(&ev(4, vec![balance_change(1, 30)]));
        let err = hub.poll(sub, None, 10).unwrap_err();
        assert_eq!(err, HorizonError::Staleness { resume: 2 });
        // Staleness is surfaced once; after re-anchoring, the stream is
        // live again from the resume cursor.
        let page = hub.poll(sub, Some(2), 10).unwrap();
        assert!(page.records.is_empty());
        assert_eq!(page.cursor, Some(2));
        hub.publish(&ev(5, vec![balance_change(1, 40)]));
        let page = hub.poll(sub, Some(2), 10).unwrap();
        assert_eq!(page.records.len(), 1);
        assert_eq!(hub.registry.counter("stream.evictions"), 1);
    }

    #[test]
    fn cursor_before_the_window_is_stale() {
        let mut hub = SubscriptionHub::new(DEFAULT_BUFFER);
        let sub = hub.subscribe(Topic::Account(acct(1)));
        hub.publish(&ev(2, vec![balance_change(1, 10)]));
        hub.publish(&ev(3, vec![balance_change(1, 20)]));
        // Acknowledge the first event...
        let page = hub.poll(sub, Some(1), 10).unwrap();
        assert_eq!(page.records.len(), 1);
        // ...then ask for it again: the window has moved on.
        assert_eq!(
            hub.poll(sub, Some(0), 10),
            Err(HorizonError::Staleness { resume: 1 })
        );
    }

    #[test]
    fn poll_rejects_bad_requests() {
        let mut hub = SubscriptionHub::new(DEFAULT_BUFFER);
        assert_eq!(hub.poll(99, None, 10), Err(HorizonError::NotFound));
        let sub = hub.subscribe(Topic::TxStatus);
        assert_eq!(
            hub.poll(sub, None, 0),
            Err(HorizonError::Malformed {
                reason: "limit must be positive"
            })
        );
    }
}
