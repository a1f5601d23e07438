//! Stellar's ledger: the replicated state machine above SCP (paper §5).
//!
//! The ledger is account-based (not UTXO): its contents are four kinds of
//! entries — **accounts**, **trustlines**, **offers**, and **account
//! data** — plus a header chaining each ledger to its predecessor and to
//! content hashes of the transaction set, results, and state snapshot
//! (Fig. 3).
//!
//! Key design points reproduced from §5:
//!
//! * anyone can issue assets; holding one requires an explicit trustline
//!   (spam protection), optionally gated by the issuer's `auth_required`
//!   flag (KYC);
//! * a built-in order book trades any asset pair, and **path payments**
//!   atomically cross up to five pairs with an end-to-end limit price —
//!   the mechanism behind "send $0.50 to Mexico in 5 seconds";
//! * transactions are atomic lists of operations (Fig. 4), replay-proofed
//!   by per-account sequence numbers and bounded by optional time windows;
//! * fees are trivial (10⁻⁵ XLM) until congestion, when a Dutch auction
//!   orders transactions by fee-per-operation;
//! * every ledger entry raises the account's minimum XLM **reserve**.
//!
//! Module tour: [`asset`] and [`amount`] define the value types; [`entry`]
//! the four entry kinds; [`store`] the entry store with copy-on-write
//! deltas (so failed transactions roll back cleanly); [`orderbook`] the
//! matching engine; [`tx`] transactions/operations; [`ops`] operation
//! execution; [`pathfind`] path-payment routing; [`txset`] transaction-set
//! assembly with surge pricing; [`header`] ledger headers; [`apply`] the
//! ledger-close function tying it all together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amount;
pub mod apply;
pub mod asset;
pub mod backend;
pub mod entry;
pub mod header;
pub mod ops;
pub mod orderbook;
pub mod pathfind;
pub mod sigcache;
pub mod store;
pub mod tx;
pub mod txset;

pub use amount::{Price, STROOPS_PER_XLM};
pub use apply::ApplyStats;
pub use asset::{Asset, AssetCode};
pub use backend::{LedgerBackend, LedgerRead, MemBackend, StoreIoStats};
pub use entry::{AccountEntry, AccountId, DataEntry, OfferEntry, TrustLineEntry};
pub use header::LedgerHeader;
pub use store::{LedgerDelta, LedgerStore};
pub use tx::{Memo, OpResult, Operation, Transaction, TransactionEnvelope, TxResult};
pub use txset::TransactionSet;
