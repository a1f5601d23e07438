//! Static read/write footprints for transactions, and wave scheduling.
//!
//! The parallel apply path ([`crate::parallel`]) executes mutually
//! non-conflicting transactions concurrently. To decide which
//! transactions *might* conflict, each transaction's operations are
//! inspected and compiled into a **footprint**: the set of ledger keys it
//! may read and the set it may write. Footprints are a *scheduling
//! heuristic*, not a correctness contract — a transaction whose actual
//! reads escape its declared footprint is detected at runtime and re-run
//! sequentially (Block-STM-style: never wrong, only slower). Declaring
//! too much only costs parallelism; declaring too little only costs a
//! re-run.
//!
//! Footprint rules per operation type are documented in `DESIGN.md`
//! ("Parallel ledger apply"). The two data-dependent cases:
//!
//! * `ManageOffer` crossings touch the *makers* of resting offers. The
//!   extractor peeks at the current top of the book and declares resting
//!   offers' makers (accounts, trustlines, offer ids) until their depth
//!   covers the taker's amount — at most [`CROSS_PEEK`]. Deeper
//!   crossings escape and re-run.
//! * `PathPayment` hops cross arbitrary books with amounts that depend on
//!   earlier hops; its footprint (declared pairs + endpoints) is marked
//!   imprecise, and the transaction always takes the sequential fallback.

use crate::asset::Asset;
use crate::backend::LedgerRead;
use crate::entry::AccountId;
use crate::tx::{Operation, TransactionEnvelope};
use std::collections::{BTreeSet, HashMap};

/// How many resting offers per book direction a `ManageOffer` footprint
/// pre-declares as potential fill counterparties.
pub const CROSS_PEEK: usize = 48;

/// One schedulable ledger key. `Book` is a *normalized* (unordered) asset
/// pair covering both directions of an order book: any crossing or
/// resting on either side of the pair conflicts through it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FpKey {
    /// An account entry.
    Account(AccountId),
    /// A trustline entry.
    TrustLine(AccountId, Asset),
    /// An offer entry by id.
    Offer(u64),
    /// An account-data entry.
    Data(AccountId, String),
    /// A whole order-book pair, normalized so that the first asset is
    /// `<=` the second.
    Book(Asset, Asset),
}

/// Builds the normalized book key for a (selling, buying) pair.
pub fn book_pair(a: &Asset, b: &Asset) -> FpKey {
    if a <= b {
        FpKey::Book(a.clone(), b.clone())
    } else {
        FpKey::Book(b.clone(), a.clone())
    }
}

/// A transaction's declared footprint.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    /// Keys the transaction may read.
    pub reads: BTreeSet<FpKey>,
    /// Keys the transaction may write. Every write is also treated as a
    /// read for scheduling (read-modify-write is the common case).
    pub writes: BTreeSet<FpKey>,
    /// `false` when the true access set is data-dependent beyond what
    /// static inspection can bound (path payments): such transactions
    /// always take the sequential fallback at commit time.
    pub precise: bool,
}

impl Footprint {
    fn read(&mut self, k: FpKey) {
        self.reads.insert(k);
    }

    /// Declares a read-modify-write key.
    fn rw(&mut self, k: FpKey) {
        self.reads.insert(k.clone());
        self.writes.insert(k);
    }

    /// Whether `key` is covered by this footprint (reads or writes).
    pub fn covers(&self, key: &FpKey) -> bool {
        self.reads.contains(key) || self.writes.contains(key)
    }

    /// Whether two footprints conflict: a write in one overlapping a read
    /// or write in the other.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        overlap(&self.writes, &other.reads)
            || overlap(&self.writes, &other.writes)
            || overlap(&self.reads, &other.writes)
    }
}

fn overlap(a: &BTreeSet<FpKey>, b: &BTreeSet<FpKey>) -> bool {
    // Iterate the smaller set, probe the larger.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|k| large.contains(k))
}

/// Declares both endpoints of a value transfer of `asset` touching
/// `account`: the account itself plus, for issued assets, the trustline.
fn asset_access(fp: &mut Footprint, account: AccountId, asset: &Asset) {
    fp.rw(FpKey::Account(account));
    if let Asset::Issued { .. } = asset {
        fp.rw(FpKey::TrustLine(account, asset.clone()));
    }
}

/// Extra offers declared past the depth that already covers the taker's
/// amount, absorbing rounding and partial-fill boundary reads.
const CROSS_SLACK: usize = 4;

/// Declares the makers currently resting on the `(selling, buying)` book
/// a crossing may fill against: their offers, accounts, and trustlines.
/// The peek runs against the *pre-close* state; offers placed earlier in
/// the same close are caught by escape detection instead.
fn declare_makers(
    fp: &mut Footprint,
    base: &dyn LedgerRead,
    selling: &Asset,
    buying: &Asset,
    amount: i64,
) {
    // A taker selling `selling` crosses offers that sell `buying`. The
    // peek is amount-bounded: makers are declared until the resting
    // depth covers the taker's amount, plus [`CROSS_SLACK`] more, capped
    // at [`CROSS_PEEK`]. Under-declaration is always safe — a sweep past
    // the declared depth escapes and re-runs sequentially.
    let mut absorbed: i128 = 0;
    let mut slack = 0usize;
    for (_, id) in base.book_page(buying, selling, None, CROSS_PEEK) {
        let Some(offer) = base.offer(id) else {
            continue;
        };
        if absorbed >= amount as i128 {
            slack += 1;
            if slack > CROSS_SLACK {
                break;
            }
        }
        // The resting offer sells `buying` at `price` units of the
        // taker's `selling` per unit sold: it absorbs roughly
        // amount × n / d of the taker's amount (rounded down, so the
        // estimate errs toward declaring one offer more).
        absorbed += offer.amount as i128 * offer.price.n as i128 / offer.price.d.max(1) as i128;
        fp.rw(FpKey::Offer(id));
        asset_access(fp, offer.account, selling);
        asset_access(fp, offer.account, buying);
    }
}

/// Compiles one transaction's footprint. `base` is the pre-close store
/// state, used only for the book peek (`ManageOffer` maker declaration).
pub fn tx_footprint(base: &dyn LedgerRead, env: &TransactionEnvelope) -> Footprint {
    let mut fp = Footprint {
        precise: true,
        ..Footprint::default()
    };
    let tx = &env.tx;
    // Fee + sequence consumption writes the source; signature checking
    // reads every signing account.
    fp.rw(FpKey::Account(tx.source));
    for id in tx.signing_accounts() {
        fp.read(FpKey::Account(id));
    }
    for so in &tx.operations {
        let source = so.source.unwrap_or(tx.source);
        fp.read(FpKey::Account(source)); // op-source existence check
        match &so.op {
            Operation::CreateAccount { destination, .. }
            | Operation::AccountMerge { destination } => {
                fp.rw(FpKey::Account(source));
                fp.rw(FpKey::Account(*destination));
            }
            Operation::SetOptions { .. } | Operation::BumpSequence { .. } => {
                fp.rw(FpKey::Account(source));
            }
            Operation::Payment {
                destination, asset, ..
            } => {
                asset_access(&mut fp, source, asset);
                asset_access(&mut fp, *destination, asset);
            }
            Operation::PathPayment {
                send_asset,
                destination,
                dest_asset,
                path,
                ..
            } => {
                asset_access(&mut fp, source, send_asset);
                asset_access(&mut fp, *destination, dest_asset);
                // Conservative: every hop's book, both directions. The
                // makers filled along the way are unknowable statically.
                let mut chain: Vec<&Asset> = Vec::with_capacity(path.len() + 2);
                chain.push(send_asset);
                chain.extend(path.iter());
                chain.push(dest_asset);
                chain.dedup();
                for pair in chain.windows(2) {
                    fp.rw(book_pair(pair[0], pair[1]));
                }
                fp.precise = false;
            }
            Operation::ManageOffer {
                offer_id,
                selling,
                buying,
                amount,
                ..
            } => {
                asset_access(&mut fp, source, selling);
                asset_access(&mut fp, source, buying);
                fp.rw(book_pair(selling, buying));
                if *offer_id != 0 {
                    fp.rw(FpKey::Offer(*offer_id));
                }
                if *amount > 0 {
                    declare_makers(&mut fp, base, selling, buying, *amount);
                }
            }
            Operation::ManageData { name, .. } => {
                fp.rw(FpKey::Account(source));
                fp.rw(FpKey::Data(source, name.clone()));
            }
            Operation::ChangeTrust { asset, .. } => {
                fp.rw(FpKey::Account(source));
                fp.rw(FpKey::TrustLine(source, asset.clone()));
                if let Asset::Issued { issuer, .. } = asset {
                    fp.read(FpKey::Account(*issuer));
                }
            }
            Operation::AllowTrust {
                trustor,
                asset_code,
                ..
            } => {
                fp.read(FpKey::Account(source));
                let asset = Asset::issued(source, asset_code.as_str());
                fp.rw(FpKey::TrustLine(*trustor, asset));
            }
        }
    }
    fp
}

/// Greedy list scheduling of the transaction set into **waves** of
/// mutually non-conflicting transactions, preserving canonical order for
/// every conflicting pair: a transaction lands in the first wave after
/// the last wave that wrote any key it reads (or read/wrote any key it
/// writes). Returns wave → ascending transaction indices; every index
/// appears exactly once.
pub fn schedule_waves(footprints: &[Footprint]) -> Vec<Vec<usize>> {
    let mut last_read: HashMap<&FpKey, usize> = HashMap::new();
    let mut last_write: HashMap<&FpKey, usize> = HashMap::new();
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for (i, fp) in footprints.iter().enumerate() {
        let mut wave = 0usize;
        for k in &fp.reads {
            if let Some(&w) = last_write.get(k) {
                wave = wave.max(w + 1);
            }
        }
        for k in &fp.writes {
            if let Some(&w) = last_write.get(k) {
                wave = wave.max(w + 1);
            }
            if let Some(&w) = last_read.get(k) {
                wave = wave.max(w + 1);
            }
        }
        if wave == waves.len() {
            waves.push(Vec::new());
        }
        waves[wave].push(i);
        for k in &fp.reads {
            let e = last_read.entry(k).or_insert(wave);
            *e = (*e).max(wave);
        }
        for k in &fp.writes {
            let e = last_write.entry(k).or_insert(wave);
            *e = (*e).max(wave);
        }
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::{xlm, BASE_FEE};
    use crate::backend::MemBackend;
    use crate::tx::{Memo, SourcedOperation, Transaction};
    use stellar_crypto::sign::KeyPair;

    fn acct(n: u64) -> AccountId {
        AccountId(KeyPair::from_seed(n).public())
    }

    fn pay_env(from: u64, to: u64) -> TransactionEnvelope {
        let k = KeyPair::from_seed(from);
        TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(to),
                        asset: Asset::Native,
                        amount: xlm(1),
                    },
                }],
            },
            &[&k],
        )
    }

    #[test]
    fn disjoint_payments_share_a_wave() {
        let base = MemBackend::new();
        let fps: Vec<Footprint> = [pay_env(1, 2), pay_env(3, 4), pay_env(5, 6)]
            .iter()
            .map(|e| tx_footprint(&base, e))
            .collect();
        assert!(!fps[0].conflicts(&fps[1]));
        let waves = schedule_waves(&fps);
        assert_eq!(waves, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn chained_payments_serialize() {
        let base = MemBackend::new();
        // 1→2, 2→3 conflict on account 2; 4→5 is independent.
        let fps: Vec<Footprint> = [pay_env(1, 2), pay_env(2, 3), pay_env(4, 5)]
            .iter()
            .map(|e| tx_footprint(&base, e))
            .collect();
        assert!(fps[0].conflicts(&fps[1]));
        let waves = schedule_waves(&fps);
        assert_eq!(waves, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn same_book_offers_serialize() {
        let base = MemBackend::new();
        let usd = Asset::issued(acct(9), "USD");
        let offer = |n: u64, selling: Asset, buying: Asset| {
            let k = KeyPair::from_seed(n);
            TransactionEnvelope::sign(
                Transaction {
                    source: acct(n),
                    seq_num: 1,
                    fee: BASE_FEE,
                    time_bounds: None,
                    memo: Memo::None,
                    operations: vec![SourcedOperation {
                        source: None,
                        op: Operation::ManageOffer {
                            offer_id: 0,
                            selling,
                            buying,
                            amount: 10,
                            price: crate::amount::Price::new(1, 1),
                            passive: false,
                        },
                    }],
                },
                &[&k],
            )
        };
        // Opposite directions of the same pair still conflict (normalized
        // book key); a different pair does not.
        let eur = Asset::issued(acct(9), "EUR");
        let envs = [
            offer(1, Asset::Native, usd.clone()),
            offer(2, usd.clone(), Asset::Native),
            offer(3, Asset::Native, eur.clone()),
        ];
        let fps: Vec<Footprint> = envs.iter().map(|e| tx_footprint(&base, e)).collect();
        assert!(fps[0].conflicts(&fps[1]));
        assert!(!fps[0].conflicts(&fps[2]));
        let waves = schedule_waves(&fps);
        assert_eq!(waves, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn path_payment_is_imprecise() {
        let base = MemBackend::new();
        let k = KeyPair::from_seed(1);
        let usd = Asset::issued(acct(9), "USD");
        let env = TransactionEnvelope::sign(
            Transaction {
                source: acct(1),
                seq_num: 1,
                fee: BASE_FEE,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::PathPayment {
                        send_asset: Asset::Native,
                        send_max: xlm(10),
                        destination: acct(2),
                        dest_asset: usd.clone(),
                        dest_amount: 5,
                        path: vec![],
                    },
                }],
            },
            &[&k],
        );
        let fp = tx_footprint(&base, &env);
        assert!(!fp.precise);
        assert!(fp.covers(&book_pair(&Asset::Native, &usd)));
    }
}
