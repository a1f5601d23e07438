//! The built-in order book and matching engine (§5.1, §5.2).
//!
//! Offers are "an account's willingness to trade up to a certain amount of
//! a particular asset for another at a given price; they are automatically
//! matched and filled when buy/sell prices cross." Matching executes at the
//! resting (maker) offer's price, best price first with time priority.
//! *Passive* offers decline to cross offers at exactly the reciprocal
//! price, enabling zero-spread market making.
//!
//! The engine operates on a [`LedgerDelta`], so partially matched books
//! roll back together with the failing transaction.

use crate::amount::Price;
use crate::asset::Asset;
use crate::entry::{AccountId, OfferEntry};
use crate::store::{book_key, BookCursor, LedgerDelta};

/// The largest page of resting offers one matching round fetches.
/// Pages start at one offer and double up to this, so a taker filled by
/// the best maker reads one offer, and a deep sweep reads at most one
/// page past the offer that stops it.
const BOOK_PAGE: usize = 16;

/// Outcome of crossing an incoming order against the book.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrossResult {
    /// Amount of the incoming order's *selling* asset actually sold.
    pub sold: i64,
    /// Amount of the *buying* asset acquired in exchange.
    pub bought: i64,
    /// Trades executed: (maker offer id, maker account, sold, bought)
    /// where `sold`/`bought` are from the *taker's* perspective.
    pub fills: Vec<Fill>,
}

/// One fill against a resting offer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fill {
    /// The resting offer's id.
    pub offer_id: u64,
    /// The resting offer's owner.
    pub maker: AccountId,
    /// Taker's selling asset transferred to the maker.
    pub taker_sold: i64,
    /// Taker's buying asset received from the maker.
    pub taker_bought: i64,
}

/// Limits on how much an order may trade, from trustline balances/limits.
#[derive(Clone, Copy, Debug)]
pub struct TradeCaps {
    /// Maximum of the selling asset the taker can deliver.
    pub max_sell: i64,
    /// Maximum of the buying asset the taker can receive.
    pub max_buy: i64,
}

/// Crosses an incoming order (sell `selling`, buy `buying`, limit price
/// `price` = minimum buying units per selling unit) against the book.
///
/// Consumes resting offers selling `buying` for `selling` whose price
/// crosses. Stops when caps are exhausted, the price stops crossing, or the
/// book empties. Mutates consumed offers in `delta` but does **not** move
/// balances — the caller (operation execution) settles balances using the
/// returned fills, because balance rules (trustlines, auth, reserves)
/// live at that layer.
///
/// `taker` never self-crosses: the taker's own offers are skipped
/// (production Stellar fails the op instead; we skip for simplicity and
/// document the difference in DESIGN.md).
pub fn cross(
    delta: &mut LedgerDelta<'_>,
    taker: AccountId,
    selling: &Asset,
    buying: &Asset,
    price: &Price,
    caps: TradeCaps,
    passive: bool,
) -> CrossResult {
    let mut result = CrossResult {
        sold: 0,
        bought: 0,
        fills: Vec::new(),
    };
    let mut remaining_sell = caps.max_sell;
    let mut remaining_buy = caps.max_buy;

    // Resting offers sell `buying` and buy `selling`. Page through the
    // book index lazily, in pages of 1, 2, 4, … offers — a typical order
    // fills against the first maker or two, so a 10k-offer book costs the
    // same as a 2-offer one. The cursor advances past each examined
    // maker; consumed offers mutate only at or before the cursor, so
    // pages never replay them.
    let mut cursor: Option<BookCursor> = None;
    let mut page_size = 1;
    'sweep: while remaining_sell > 0 && remaining_buy > 0 {
        let page = delta.offers_page(buying, selling, cursor, page_size);
        if page.is_empty() {
            break;
        }
        page_size = (page_size * 2).min(BOOK_PAGE);
        for maker in page {
            cursor = Some(book_key(&maker));
            if remaining_sell <= 0 || remaining_buy <= 0 {
                break 'sweep;
            }
            if maker.account == taker {
                continue; // no self-cross
            }
            // Crossing test: taker price (buy per sell) and maker price
            // (sell per buy, in taker terms) must multiply to ≤ 1.
            if !price.crosses(&maker.price) {
                break 'sweep; // book is sorted; nothing further crosses
            }
            // Passive orders do not take exactly-reciprocal prices.
            let exactly_reciprocal = u64::from(price.n) * u64::from(maker.price.n)
                == u64::from(price.d) * u64::from(maker.price.d);
            if passive && exactly_reciprocal {
                continue;
            }

            // Trade at the maker's price: maker sells `buying` at
            // maker.price (units of `selling` per unit of `buying`).
            // Max the taker can buy from this maker:
            let maker_available = maker.amount.min(remaining_buy);
            if maker_available <= 0 {
                continue;
            }
            // What the taker must pay for that, rounded up in maker's favor.
            let full_cost = match maker.price.convert_ceil(maker_available) {
                Some(c) => c,
                None => break 'sweep,
            };
            let (bought, sold) = if full_cost <= remaining_sell {
                (maker_available, full_cost)
            } else {
                // Partial: how much can we buy with remaining_sell?
                let b = match maker.price.invert().convert_floor(remaining_sell) {
                    Some(b) => b.min(maker_available),
                    None => break 'sweep,
                };
                if b <= 0 {
                    break 'sweep;
                }
                let c = maker.price.convert_ceil(b).unwrap_or(i64::MAX);
                if c > remaining_sell {
                    break 'sweep;
                }
                (b, c)
            };
            if bought <= 0 || sold <= 0 {
                break 'sweep;
            }

            // Consume the maker's offer.
            let mut updated = maker.clone();
            updated.amount -= bought;
            if updated.amount <= 0 {
                delta.delete_offer(updated.id);
                release_offer_subentry(delta, updated.account);
            } else {
                delta.put_offer(updated);
            }

            remaining_sell -= sold;
            remaining_buy -= bought;
            result.sold += sold;
            result.bought += bought;
            result.fills.push(Fill {
                offer_id: maker.id,
                maker: maker.account,
                taker_sold: sold,
                taker_bought: bought,
            });
        }
    }
    result
}

/// Decrements the maker's subentry count when their offer is fully
/// consumed (the reserve "decreases when the ledger entry disappears,
/// e.g. when an order is filled", §5.1).
fn release_offer_subentry(delta: &mut LedgerDelta<'_>, account: AccountId) {
    if let Some(mut a) = delta.account(account) {
        a.num_subentries = a.num_subentries.saturating_sub(1);
        delta.put_account(a);
    }
}

/// Creates a resting offer entry for whatever remains of an order.
pub fn make_offer(
    delta: &mut LedgerDelta<'_>,
    account: AccountId,
    selling: Asset,
    buying: Asset,
    amount: i64,
    price: Price,
    passive: bool,
) -> OfferEntry {
    let offer = OfferEntry {
        id: delta.allocate_offer_id(),
        account,
        selling,
        buying,
        amount,
        price,
        passive,
    };
    delta.put_offer(offer.clone());
    if let Some(mut a) = delta.account(account) {
        a.num_subentries += 1;
        delta.put_account(a);
    }
    offer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::AccountEntry;
    use crate::store::LedgerStore;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    fn usd() -> Asset {
        Asset::issued(acct(99), "USD")
    }

    fn store_with_accounts(ids: &[u64]) -> LedgerStore {
        let mut s = LedgerStore::new();
        for &i in ids {
            s.put_account(AccountEntry::new(acct(i), 1_000_000_000));
        }
        s
    }

    /// Places a maker offer selling USD for XLM at `price` (XLM per USD).
    fn place_maker(delta: &mut LedgerDelta<'_>, owner: u64, amount: i64, price: Price) -> u64 {
        make_offer(
            delta,
            acct(owner),
            usd(),
            Asset::Native,
            amount,
            price,
            false,
        )
        .id
    }

    #[test]
    fn full_fill_at_maker_price() {
        let store = store_with_accounts(&[1, 2]);
        let mut delta = store.begin();
        // Maker sells 100 USD at 2 XLM per USD.
        let oid = place_maker(&mut delta, 2, 100, Price::new(2, 1));
        // Taker sells up to 200 XLM for USD at limit 1 USD per 2 XLM.
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 2),
            TradeCaps {
                max_sell: 200,
                max_buy: i64::MAX,
            },
            false,
        );
        assert_eq!(res.bought, 100);
        assert_eq!(res.sold, 200);
        assert_eq!(res.fills.len(), 1);
        assert_eq!(res.fills[0].offer_id, oid);
        assert!(delta.offer(oid).is_none(), "maker offer fully consumed");
    }

    #[test]
    fn partial_fill_leaves_remainder() {
        let store = store_with_accounts(&[1, 2]);
        let mut delta = store.begin();
        let oid = place_maker(&mut delta, 2, 100, Price::new(2, 1));
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 2),
            TradeCaps {
                max_sell: 50,
                max_buy: i64::MAX,
            },
            false,
        );
        assert_eq!(res.bought, 25);
        assert_eq!(res.sold, 50);
        assert_eq!(delta.offer(oid).unwrap().amount, 75);
    }

    #[test]
    fn non_crossing_price_does_not_trade() {
        let store = store_with_accounts(&[1, 2]);
        let mut delta = store.begin();
        place_maker(&mut delta, 2, 100, Price::new(2, 1)); // asks 2 XLM/USD
                                                           // Taker will pay at most 1 XLM per USD (limit 1 USD per XLM):
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 1),
            TradeCaps {
                max_sell: 100,
                max_buy: i64::MAX,
            },
            false,
        );
        assert_eq!(res.sold, 0);
        assert_eq!(res.bought, 0);
    }

    #[test]
    fn best_price_first_with_time_priority() {
        let store = store_with_accounts(&[1, 2, 3]);
        let mut delta = store.begin();
        let cheap = place_maker(&mut delta, 2, 10, Price::new(1, 1));
        let pricey = place_maker(&mut delta, 3, 10, Price::new(3, 1));
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 3),
            TradeCaps {
                max_sell: 100,
                max_buy: i64::MAX,
            },
            false,
        );
        assert_eq!(res.fills.len(), 2);
        assert_eq!(res.fills[0].offer_id, cheap);
        assert_eq!(res.fills[1].offer_id, pricey);
        // 10 USD at 1 + 10 USD at 3 = 40 XLM.
        assert_eq!(res.sold, 40);
        assert_eq!(res.bought, 20);
    }

    #[test]
    fn passive_skips_exact_reciprocal() {
        let store = store_with_accounts(&[1, 2]);
        let mut delta = store.begin();
        place_maker(&mut delta, 2, 100, Price::new(1, 1));
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 1),
            TradeCaps {
                max_sell: 100,
                max_buy: i64::MAX,
            },
            true, // passive
        );
        assert_eq!(res.sold, 0, "passive order must not cross equal price");
        // Non-passive at the same price does cross.
        let res2 = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 1),
            TradeCaps {
                max_sell: 100,
                max_buy: i64::MAX,
            },
            false,
        );
        assert_eq!(res2.sold, 100);
    }

    #[test]
    fn self_cross_skipped() {
        let store = store_with_accounts(&[1]);
        let mut delta = store.begin();
        place_maker(&mut delta, 1, 100, Price::new(1, 1));
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 1),
            TradeCaps {
                max_sell: 100,
                max_buy: i64::MAX,
            },
            false,
        );
        assert_eq!(res.sold, 0);
    }

    #[test]
    fn max_buy_cap_respected() {
        let store = store_with_accounts(&[1, 2]);
        let mut delta = store.begin();
        place_maker(&mut delta, 2, 100, Price::new(2, 1));
        let res = cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 2),
            TradeCaps {
                max_sell: i64::MAX / 4,
                max_buy: 30,
            },
            false,
        );
        assert_eq!(res.bought, 30);
        assert_eq!(res.sold, 60);
    }

    #[test]
    fn fully_consumed_offer_releases_subentry() {
        let mut store = store_with_accounts(&[1, 2]);
        {
            let mut delta = store.begin();
            place_maker(&mut delta, 2, 10, Price::new(1, 1));
            let ch = delta.into_changes();
            store.commit(ch);
        }
        assert_eq!(store.account(acct(2)).unwrap().num_subentries, 1);
        let mut delta = store.begin();
        cross(
            &mut delta,
            acct(1),
            &Asset::Native,
            &usd(),
            &Price::new(1, 1),
            TradeCaps {
                max_sell: 10,
                max_buy: i64::MAX,
            },
            false,
        );
        let ch = delta.into_changes();
        store.commit(ch);
        assert_eq!(store.account(acct(2)).unwrap().num_subentries, 0);
    }
}
