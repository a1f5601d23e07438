//! Seeded input generators: genesis states and signed transaction
//! envelopes. Everything here is a pure function of the seed; the program
//! under test receives only the envelopes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use stellar_ledger::amount::{xlm, Price, BASE_FEE};
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::{AccountEntry, AccountId, LedgerEntry, OfferEntry, TrustLineEntry};
use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar_sim::loadgen::{user_account, user_keys};

/// Signs a one-operation transaction from synthetic account `src`.
fn sign_one(src: u64, seq: u64, op: Operation) -> TransactionEnvelope {
    let tx = Transaction {
        source: user_account(src),
        seq_num: seq,
        fee: BASE_FEE,
        time_bounds: None,
        memo: Memo::None,
        operations: vec![SourcedOperation { source: None, op }],
    };
    TransactionEnvelope::sign(tx, &[&user_keys(src)])
}

/// Per-account sequence numbers, as a client wallet would track them.
#[derive(Default)]
struct SeqTracker(BTreeMap<u64, u64>);

impl SeqTracker {
    fn next(&mut self, account: u64) -> u64 {
        let s = self.0.entry(account).or_insert(0);
        *s += 1;
        *s
    }
}

/// Single-payment transactions between synthetic accounts.
pub struct PayGen {
    rng: StdRng,
    accounts: u64,
    /// `(hot set size, share of endpoints drawn from it)`.
    hot: Option<(u64, f64)>,
    seqs: SeqTracker,
}

impl PayGen {
    /// Endpoints uniform over `accounts`.
    pub fn uniform(seed: u64, accounts: u64) -> PayGen {
        PayGen {
            rng: StdRng::seed_from_u64(seed ^ 0x9A7_0001),
            accounts,
            hot: None,
            seqs: SeqTracker::default(),
        }
    }

    /// `hot_share` of endpoints drawn from the first `hot` accounts, the
    /// rest uniform over all of them.
    pub fn skewed(seed: u64, accounts: u64, hot: u64, hot_share: f64) -> PayGen {
        PayGen {
            hot: Some((hot.min(accounts), hot_share)),
            ..PayGen::uniform(seed, accounts)
        }
    }

    fn endpoint(&mut self) -> u64 {
        match self.hot {
            Some((hot, share)) if self.rng.gen_bool(share) => self.rng.gen_range(0..hot),
            _ => self.rng.gen_range(0..self.accounts),
        }
    }

    /// One signed payment that `accept` agrees to. A refused envelope is
    /// re-signed with another amount (a client retrying elsewhere), which
    /// changes its hash and nothing else.
    pub fn payment_where(
        &mut self,
        accept: impl Fn(&TransactionEnvelope) -> bool,
    ) -> TransactionEnvelope {
        let src = self.endpoint();
        let mut dst = self.endpoint();
        if dst == src {
            dst = (dst + 1) % self.accounts;
        }
        let seq = self.seqs.next(src);
        let mut amount = 1 + self.rng.gen_range(0i64..1000);
        loop {
            let env = sign_one(
                src,
                seq,
                Operation::Payment {
                    destination: user_account(dst),
                    asset: Asset::Native,
                    amount,
                },
            );
            if accept(&env) {
                return env;
            }
            amount += 1;
        }
    }

    /// One signed payment.
    pub fn payment(&mut self) -> TransactionEnvelope {
        self.payment_where(|_| true)
    }

    /// One ledger's batch of `n` payments.
    pub fn ledger(&mut self, n: u64) -> Vec<TransactionEnvelope> {
        (0..n).map(|_| self.payment()).collect()
    }
}

/// Arrival times (ms) of a Poisson process at `rate_tps` over
/// `[from_ms, until_ms)`, conditioned on its count being the expected
/// one: `rate × duration` independent uniform instants, sorted. Every
/// seed therefore schedules the same number of transactions, so
/// throughput in transactions and in ledgers move together.
pub fn poisson_arrivals(seed: u64, rate_tps: f64, from_ms: u64, until_ms: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA771_0002);
    let span_ms = until_ms.saturating_sub(from_ms);
    let n = (rate_tps * span_ms as f64 / 1000.0).round() as usize;
    let mut out: Vec<u64> = (0..n)
        .map(|_| from_ms + rng.gen_range(0..span_ms.max(1)))
        .collect();
    out.sort_unstable();
    out
}

// ---- dex_mem: one hot order book ------------------------------------------

/// Market makers holding the resting books.
pub const MAKERS: u64 = 32;
/// Resting offers at genesis, split evenly over the two books.
pub const BOOK_OFFERS: u64 = 2000;
/// Distinct price levels per book at genesis (1.00 … 5.99).
const PRICE_LEVELS: u64 = 500;
/// Synthetic-account index of the USD/EUR issuer, far past any user.
const ISSUER_IDX: u64 = u64::MAX / 2;
/// The share of users that trade (hold USD and EUR trustlines).
const TRADER_SHARE: u64 = 4;
/// Amount on every genesis offer: large enough that the best level is
/// never consumed, so every crossing order hits the same few offers.
const RESTING_AMOUNT: i64 = 1_000_000_000;

fn issuer() -> AccountId {
    user_account(ISSUER_IDX)
}

fn maker_idx(m: u64) -> u64 {
    ISSUER_IDX + 1 + m
}

/// The issued dollar.
pub fn usd() -> Asset {
    Asset::issued(issuer(), "USD")
}

/// The issued euro.
pub fn eur() -> Asset {
    Asset::issued(issuer(), "EUR")
}

/// `(selling, buying)` of resting offers on book 0 (USD for XLM) and
/// book 1 (EUR for USD).
fn book_pair(book: u64) -> (Asset, Asset) {
    if book == 0 {
        (usd(), Asset::Native)
    } else {
        (eur(), usd())
    }
}

fn trustline(account: u64, asset: Asset, balance: i64) -> LedgerEntry {
    LedgerEntry::TrustLine(TrustLineEntry {
        account: user_account(account),
        asset,
        balance,
        limit: i64::MAX / 2,
        authorized: true,
    })
}

/// How many of `accounts` users trade.
pub fn trader_count(accounts: u64) -> u64 {
    (accounts / TRADER_SHARE).max(8)
}

/// The market genesis: `accounts` users (the first quarter traders with
/// funded USD and empty EUR trustlines), the issuer, and [`MAKERS`]
/// makers whose inventory backs [`BOOK_OFFERS`] resting offers, two per
/// price level per book.
pub fn dex_genesis(accounts: u64) -> Vec<LedgerEntry> {
    let traders = trader_count(accounts);
    let mut entries = Vec::new();
    for i in 0..accounts {
        let mut a = AccountEntry::new(user_account(i), xlm(1000));
        if i < traders {
            a.num_subentries = 2;
        }
        entries.push(LedgerEntry::Account(a));
        if i < traders {
            entries.push(trustline(i, usd(), 1_000_000_000));
            entries.push(trustline(i, eur(), 0));
        }
    }
    entries.push(LedgerEntry::Account(AccountEntry::new(issuer(), xlm(1000))));
    for m in 0..MAKERS {
        let mut a = AccountEntry::new(user_account(maker_idx(m)), xlm(1_000_000));
        let offers = BOOK_OFFERS / MAKERS + u64::from(m < BOOK_OFFERS % MAKERS);
        a.num_subentries = 2 + offers as u32;
        entries.push(LedgerEntry::Account(a));
        entries.push(trustline(maker_idx(m), usd(), i64::MAX / 4));
        entries.push(trustline(maker_idx(m), eur(), i64::MAX / 4));
    }
    for o in 0..BOOK_OFFERS {
        let (selling, buying) = book_pair(o % 2);
        entries.push(LedgerEntry::Offer(OfferEntry {
            id: o + 1,
            account: user_account(maker_idx(o % MAKERS)),
            selling,
            buying,
            amount: RESTING_AMOUNT,
            price: Price::new(100 + ((o / 2) % PRICE_LEVELS) as u32, 100),
            passive: false,
        }));
    }
    entries
}

/// What one generated dex transaction does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DexKind {
    /// A taker order that fills completely against the best level.
    Cross,
    /// XLM → USD → EUR through both books.
    PathPayment,
    /// A maker's new offer, priced above every other so it rests.
    Rest,
    /// A maker cancelling one of its resting offers.
    Cancel,
    /// A plain XLM payment between non-traders.
    Payment,
}

/// The fixed composition of every 20 consecutive transactions:
/// 50% crossing, 20% path payments, 15% new offers, 10% cancels, 5%
/// payments. Fixed rather than drawn, so every seed has the same mix.
const DEX_PATTERN: [DexKind; 20] = {
    use DexKind::*;
    [
        Cross,
        PathPayment,
        Cross,
        Rest,
        Cross,
        Cancel,
        Cross,
        PathPayment,
        Cross,
        Rest,
        Cross,
        Payment,
        Cross,
        PathPayment,
        Cross,
        Rest,
        Cross,
        Cancel,
        Cross,
        PathPayment,
    ]
};

/// An offer the generator knows to be resting and safe to cancel.
struct Resting {
    maker: u64,
    id: u64,
    book: u64,
    price: Price,
}

/// The market client population: takers, path payers, makers adding and
/// cancelling offers, and bystanders paying each other.
pub struct DexGen {
    rng: StdRng,
    accounts: u64,
    seqs: SeqTracker,
    /// Offers never touched by takers, oldest first (cancel targets).
    resting: VecDeque<Resting>,
    /// The id the ledger will give the next offer that rests.
    next_offer_id: u64,
    /// Transactions generated so far.
    count: u64,
    /// Generated transactions by kind.
    pub mix: BTreeMap<DexKind, u64>,
}

impl DexGen {
    /// A generator over the [`dex_genesis`] of `accounts` users.
    pub fn new(seed: u64, accounts: u64) -> DexGen {
        // Everything above the best price level is out of the takers'
        // reach for the whole run.
        let resting = (0..BOOK_OFFERS)
            .filter(|o| (o / 2) % PRICE_LEVELS != 0)
            .map(|o| Resting {
                maker: o % MAKERS,
                id: o + 1,
                book: o % 2,
                price: Price::new(100 + ((o / 2) % PRICE_LEVELS) as u32, 100),
            })
            .collect();
        DexGen {
            rng: StdRng::seed_from_u64(seed ^ 0xDE8_0003),
            accounts,
            seqs: SeqTracker::default(),
            resting,
            next_offer_id: BOOK_OFFERS + 1,
            count: 0,
            mix: BTreeMap::new(),
        }
    }

    fn trader(&mut self) -> u64 {
        self.rng.gen_range(0..trader_count(self.accounts))
    }

    fn bystander(&mut self) -> u64 {
        self.rng
            .gen_range(trader_count(self.accounts)..self.accounts)
    }

    /// One ledger's batch of `n` transactions. Offers that will rest get
    /// the ids the ledger is going to allocate (in canonical apply order)
    /// and join the cancel queue for later ledgers.
    pub fn ledger(&mut self, n: u64) -> Vec<TransactionEnvelope> {
        let mut batch = Vec::with_capacity(n as usize);
        // (source, seq) → offer, for this ledger's new resting offers.
        let mut rested: BTreeMap<(AccountId, u64), Resting> = BTreeMap::new();
        for _ in 0..n {
            let kind = DEX_PATTERN[(self.count % DEX_PATTERN.len() as u64) as usize];
            self.count += 1;
            *self.mix.entry(kind).or_default() += 1;
            let env = match kind {
                DexKind::Cross => {
                    let src = self.trader();
                    // Sell into the resting side of one of the two books.
                    let (buying, selling) = book_pair(self.rng.gen_range(0..2));
                    sign_one(
                        src,
                        self.seqs.next(src),
                        Operation::ManageOffer {
                            offer_id: 0,
                            selling,
                            buying,
                            amount: 100,
                            price: Price::new(1, 1),
                            passive: false,
                        },
                    )
                }
                DexKind::PathPayment => {
                    let src = self.trader();
                    let mut dst = self.trader();
                    if dst == src {
                        dst = (dst + 1) % trader_count(self.accounts);
                    }
                    sign_one(
                        src,
                        self.seqs.next(src),
                        Operation::PathPayment {
                            send_asset: Asset::Native,
                            send_max: 10_000,
                            destination: user_account(dst),
                            dest_asset: eur(),
                            dest_amount: 100,
                            path: vec![usd()],
                        },
                    )
                }
                DexKind::Rest => {
                    let maker = self.rng.gen_range(0..MAKERS);
                    let book = self.rng.gen_range(0..2);
                    let price = Price::new(600 + self.rng.gen_range(0..300u32), 100);
                    let (selling, buying) = book_pair(book);
                    let seq = self.seqs.next(maker_idx(maker));
                    rested.insert(
                        (user_account(maker_idx(maker)), seq),
                        Resting {
                            maker,
                            id: 0,
                            book,
                            price,
                        },
                    );
                    sign_one(
                        maker_idx(maker),
                        seq,
                        Operation::ManageOffer {
                            offer_id: 0,
                            selling,
                            buying,
                            amount: 1_000_000,
                            price,
                            passive: false,
                        },
                    )
                }
                DexKind::Cancel => {
                    let target = self
                        .resting
                        .pop_front()
                        .expect("offers rest faster than they are cancelled");
                    let (selling, buying) = book_pair(target.book);
                    sign_one(
                        maker_idx(target.maker),
                        self.seqs.next(maker_idx(target.maker)),
                        Operation::ManageOffer {
                            offer_id: target.id,
                            selling,
                            buying,
                            amount: 0,
                            price: target.price,
                            passive: false,
                        },
                    )
                }
                DexKind::Payment => {
                    let src = self.bystander();
                    let mut dst = self.bystander();
                    if dst == src {
                        // The range has at least two accounts.
                        dst = if src + 1 < self.accounts {
                            src + 1
                        } else {
                            src - 1
                        };
                    }
                    sign_one(
                        src,
                        self.seqs.next(src),
                        Operation::Payment {
                            destination: user_account(dst),
                            asset: Asset::Native,
                            amount: 1 + self.rng.gen_range(0i64..1000),
                        },
                    )
                }
            };
            batch.push(env);
        }
        // The ledger applies a set in (source, sequence) order and hands
        // out offer ids in that order.
        for (_, mut offer) in rested {
            offer.id = self.next_offer_id;
            self.next_offer_id += 1;
            self.resting.push_back(offer);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::Hash256;

    fn hashes(batch: &[TransactionEnvelope]) -> Vec<Hash256> {
        batch.iter().map(TransactionEnvelope::hash).collect()
    }

    #[test]
    fn same_seed_same_envelopes_other_seed_other_envelopes() {
        let a = hashes(&PayGen::uniform(7, 1000).ledger(200));
        let b = hashes(&PayGen::uniform(7, 1000).ledger(200));
        let c = hashes(&PayGen::uniform(8, 1000).ledger(200));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let a = hashes(&DexGen::new(7, 400).ledger(200));
        let b = hashes(&DexGen::new(7, 400).ledger(200));
        let c = hashes(&DexGen::new(8, 400).ledger(200));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            poisson_arrivals(7, 50.0, 1000, 60_000),
            poisson_arrivals(7, 50.0, 1000, 60_000)
        );
    }

    #[test]
    fn dex_mix_is_the_same_for_every_seed() {
        let mut a = DexGen::new(1, 400);
        let mut b = DexGen::new(2, 400);
        for _ in 0..5 {
            a.ledger(400);
            b.ledger(400);
        }
        assert_eq!(a.mix, b.mix);
        let total: u64 = a.mix.values().sum();
        let share = |k| a.mix[&k] as f64 / total as f64;
        assert!((share(DexKind::Cross) - 0.50).abs() < 0.01);
        assert!((share(DexKind::PathPayment) - 0.20).abs() < 0.01);
        assert!((share(DexKind::Rest) - 0.15).abs() < 0.01);
        assert!((share(DexKind::Cancel) - 0.10).abs() < 0.01);
        assert!((share(DexKind::Payment) - 0.05).abs() < 0.01);
    }

    #[test]
    fn skewed_endpoints_favour_the_hot_set() {
        let mut g = PayGen::skewed(3, 100_000, 1000, 0.9);
        let hot: Vec<AccountId> = (0..1000).map(user_account).collect();
        let batch = g.ledger(2000);
        let from_hot = batch.iter().filter(|e| hot.contains(&e.tx.source)).count();
        // 90% + 10% × 1% of sources.
        assert!((1700..1900).contains(&from_hot), "{from_hot}");
    }

    #[test]
    fn arrivals_have_the_expected_count_and_exponential_gaps() {
        let a = poisson_arrivals(5, 100.0, 1000, 101_000);
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 1000 && *a.last().unwrap() < 101_000);
        // Gaps of a Poisson process: about 1/e of them exceed the mean.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 10).count();
        assert!((3300..4100).contains(&long), "{long}");
    }

    #[test]
    fn refused_payment_is_resigned_with_another_hash() {
        let first = PayGen::uniform(9, 100).payment();
        let other = PayGen::uniform(9, 100).payment_where(|e| e.hash() != first.hash());
        assert_ne!(first.hash(), other.hash());
        assert_eq!(first.tx.source, other.tx.source);
        assert_eq!(first.tx.seq_num, other.tx.seq_num);
    }
}
