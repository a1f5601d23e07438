//! Synthetic load generation (the `generateload` runtime query of §7.3).
//!
//! Builds a genesis ledger with N funded accounts and emits XLM payments
//! between random accounts at a target rate with Poisson arrivals —
//! "although Stellar supports various trading features … we focused on
//! simple payments."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stellar_crypto::sign::KeyPair;
use stellar_crypto::IdMap;
use stellar_ledger::amount::{xlm, BASE_FEE};
use stellar_ledger::asset::Asset;
use stellar_ledger::entry::{AccountEntry, AccountId, LedgerEntry};
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};

/// Seed namespace for synthetic user keys (distinct from validator keys).
const USER_KEY_NAMESPACE: u64 = 0x5EED_CAFE;

/// Deterministic keypair for synthetic account `i`.
pub fn user_keys(i: u64) -> KeyPair {
    KeyPair::from_seed(USER_KEY_NAMESPACE.wrapping_add(i.wrapping_mul(2654435761)))
}

/// Account id of synthetic account `i`.
pub fn user_account(i: u64) -> AccountId {
    AccountId(user_keys(i).public())
}

/// Builds the genesis store with `n_accounts` accounts, each funded with
/// `funding` XLM.
pub fn genesis_store(n_accounts: u64, funding_xlm: i64) -> LedgerStore {
    let account = |i| LedgerEntry::Account(AccountEntry::new(user_account(i), xlm(funding_xlm)));
    LedgerStore::from_entries((0..n_accounts).map(account))
}

/// Poisson payment generator over the synthetic accounts.
pub struct LoadGen {
    n_accounts: u64,
    rate_tps: f64,
    rng: StdRng,
    /// Next sequence number per account index (sparse).
    next_seq: IdMap<u64, u64>,
    /// Total transactions generated.
    pub generated: u64,
}

impl LoadGen {
    /// Creates a generator at `rate_tps` transactions per second.
    pub fn new(n_accounts: u64, rate_tps: f64, seed: u64) -> LoadGen {
        LoadGen {
            n_accounts,
            rate_tps,
            rng: StdRng::seed_from_u64(seed ^ 0x10AD),
            next_seq: IdMap::default(),
            generated: 0,
        }
    }

    /// Milliseconds until the next arrival (exponential inter-arrival).
    pub fn next_arrival_ms(&mut self) -> u64 {
        if self.rate_tps <= 0.0 {
            return u64::MAX / 4;
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let dt_s = -u.ln() / self.rate_tps;
        (dt_s * 1000.0).ceil() as u64
    }

    /// Generates one signed random payment.
    pub fn make_payment(&mut self) -> TransactionEnvelope {
        let src = self.rng.gen_range(0..self.n_accounts);
        let mut dst = self.rng.gen_range(0..self.n_accounts);
        if dst == src {
            dst = (dst + 1) % self.n_accounts;
        }
        let seq = {
            let e = self.next_seq.entry(src).or_insert(0);
            *e += 1;
            *e
        };
        let keys = user_keys(src);
        let tx = Transaction {
            source: user_account(src),
            seq_num: seq,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::Payment {
                    destination: user_account(dst),
                    asset: Asset::Native,
                    amount: 1 + self.rng.gen_range(0i64..1000),
                },
            }],
        };
        self.generated += 1;
        TransactionEnvelope::sign(tx, &[&keys])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_has_funded_accounts() {
        let s = genesis_store(100, 50);
        assert_eq!(s.account_count(), 100);
        assert_eq!(s.account(user_account(7)).unwrap().balance, xlm(50));
    }

    #[test]
    fn payments_are_valid_against_genesis() {
        let s = genesis_store(100, 50);
        let mut lg = LoadGen::new(100, 10.0, 1);
        let mut q = stellar_herder::TxQueue::new();
        for _ in 0..20 {
            q.submit(
                &s,
                lg.make_payment(),
                &mut stellar_ledger::sigcache::SigVerifyCache::disabled(),
            )
            .expect("generated tx must be admissible");
        }
        assert_eq!(q.len(), 20);
    }

    #[test]
    fn arrival_rate_is_roughly_right() {
        let mut lg = LoadGen::new(10, 100.0, 2);
        let total: u64 = (0..1000).map(|_| lg.next_arrival_ms()).sum();
        let mean = total as f64 / 1000.0;
        // 100 tps ⇒ ~10 ms inter-arrival (ceil bias tolerated).
        assert!((8.0..14.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn sequences_increase_per_account() {
        let mut lg = LoadGen::new(1, 1.0, 3);
        // Single account: strictly increasing sequence numbers.
        let e1 = lg.make_payment();
        let e2 = lg.make_payment();
        assert_eq!(e1.tx.seq_num, 1);
        assert_eq!(e2.tx.seq_num, 2);
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut lg = LoadGen::new(10, 0.0, 4);
        assert!(lg.next_arrival_ms() > 1_000_000_000);
    }
}
