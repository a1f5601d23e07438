//! Transactions and operations (paper §5.2, Fig. 4).
//!
//! A transaction is a source account, validity criteria (sequence number,
//! optional time bounds), a memo, a fee, and one or more operations — each
//! with its own optional source account, enabling multi-party atomic deals
//! like the paper's land-deed-plus-dollars swap. A transaction must be
//! signed by keys meeting the threshold of **every** source account it
//! touches.

use crate::amount::{Price, BASE_FEE};
use crate::asset::Asset;
use crate::entry::{AccountId, Signer, ThresholdLevel};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use stellar_crypto::codec::{Decode, DecodeError, Encode};
use stellar_crypto::sign::{KeyPair, PublicKey, Signature};
use stellar_crypto::{heap, Hash256};

/// Transaction memo: a small tag for off-ledger reconciliation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum Memo {
    /// No memo.
    #[default]
    None,
    /// Free-text memo (≤ 28 bytes in production; unenforced here).
    Text(String),
    /// Numeric id memo (e.g. exchange deposit routing).
    Id(u64),
    /// Hash memo (e.g. preimage commitment).
    Hash(Hash256),
}

stellar_crypto::impl_codec_enum!(Memo: u8 {
    0 => None,
    1 => Text(text),
    2 => Id(id),
    3 => Hash(hash),
});

/// Inclusive validity window on ledger close time (§5.2: "an optional
/// limit on when a transaction can execute").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimeBounds {
    /// Earliest close time (0 = unbounded).
    pub min_time: u64,
    /// Latest close time (0 = unbounded).
    pub max_time: u64,
}

stellar_crypto::impl_codec_struct!(TimeBounds { min_time, max_time });

impl TimeBounds {
    /// Whether `close_time` falls inside the window.
    pub fn contains(&self, close_time: u64) -> bool {
        (self.min_time == 0 || close_time >= self.min_time)
            && (self.max_time == 0 || close_time <= self.max_time)
    }
}

/// The principal ledger operations (Fig. 4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Operation {
    /// Create and fund a new account.
    CreateAccount {
        /// The account to create.
        destination: AccountId,
        /// Initial XLM funding (stroops); must cover the base reserve.
        starting_balance: i64,
    },
    /// Delete the source account, sending its XLM to `destination`.
    AccountMerge {
        /// Receiver of the remaining balance.
        destination: AccountId,
    },
    /// Change account flags, thresholds, and signers.
    SetOptions {
        /// New `auth_required` flag, if changing.
        auth_required: Option<bool>,
        /// New `auth_revocable` flag, if changing.
        auth_revocable: Option<bool>,
        /// New master-key weight, if changing.
        master_weight: Option<u8>,
        /// New low threshold, if changing.
        low_threshold: Option<u8>,
        /// New medium threshold, if changing.
        medium_threshold: Option<u8>,
        /// New high threshold, if changing.
        high_threshold: Option<u8>,
        /// Signer to add/update (weight 0 removes).
        signer: Option<Signer>,
    },
    /// Pay `amount` of `asset` to `destination`.
    Payment {
        /// Receiver.
        destination: AccountId,
        /// Asset to deliver.
        asset: Asset,
        /// Amount in stroop-scale units.
        amount: i64,
    },
    /// Pay in a different asset via the order book ("up to 5 intermediary
    /// assets", Fig. 4), guaranteeing `dest_amount` delivered and at most
    /// `send_max` spent.
    PathPayment {
        /// Asset debited from the sender.
        send_asset: Asset,
        /// End-to-end limit: maximum of `send_asset` to spend.
        send_max: i64,
        /// Receiver.
        destination: AccountId,
        /// Asset credited to the receiver.
        dest_asset: Asset,
        /// Exact amount of `dest_asset` to deliver.
        dest_amount: i64,
        /// Intermediate hop assets (≤ 5).
        path: Vec<Asset>,
    },
    /// Create, update (by id), or delete (amount 0) an order-book offer.
    ManageOffer {
        /// 0 to create; an existing id to update/delete.
        offer_id: u64,
        /// Asset sold.
        selling: Asset,
        /// Asset bought.
        buying: Asset,
        /// Amount of `selling` offered; 0 deletes.
        amount: i64,
        /// Price in `buying` per `selling`.
        price: Price,
        /// Passive variant: never crosses at exactly reciprocal price.
        passive: bool,
    },
    /// Create/update/delete an account-data entry (empty value deletes).
    ManageData {
        /// Entry name.
        name: String,
        /// New value; `None` deletes.
        value: Option<Vec<u8>>,
    },
    /// Create/update/delete a trustline (limit 0 deletes).
    ChangeTrust {
        /// The asset to trust.
        asset: Asset,
        /// New limit; 0 deletes the trustline.
        limit: i64,
    },
    /// Issuer sets or clears the `authorized` flag on a holder's
    /// trustline (KYC flow, §5.1).
    AllowTrust {
        /// The holder whose trustline is updated.
        trustor: AccountId,
        /// The issued asset's code (issuer is the op source).
        asset_code: String,
        /// Grant or revoke.
        authorize: bool,
    },
    /// Bump the source account's sequence number.
    BumpSequence {
        /// Target sequence number (no-op if not greater).
        bump_to: u64,
    },
}

impl Operation {
    /// The multisig threshold category this operation requires (§5.2).
    pub fn threshold_level(&self) -> ThresholdLevel {
        match self {
            Operation::SetOptions { .. } | Operation::AccountMerge { .. } => ThresholdLevel::High,
            Operation::AllowTrust { .. } | Operation::BumpSequence { .. } => ThresholdLevel::Low,
            _ => ThresholdLevel::Medium,
        }
    }

    /// Heap bytes the operation holds beyond its own size.
    fn heap_bytes(&self) -> u64 {
        match self {
            Operation::PathPayment { path, .. } => heap::array::<Asset>(path.capacity()),
            Operation::ManageData { name, value } => {
                (name.capacity() + value.as_ref().map_or(0, Vec::capacity)) as u64
            }
            Operation::AllowTrust { asset_code, .. } => asset_code.capacity() as u64,
            _ => 0,
        }
    }
}

stellar_crypto::impl_codec_enum!(Operation: u8 {
    0 => CreateAccount { destination, starting_balance },
    1 => AccountMerge { destination },
    2 => SetOptions {
        auth_required,
        auth_revocable,
        master_weight,
        low_threshold,
        medium_threshold,
        high_threshold,
        signer,
    },
    3 => Payment { destination, asset, amount },
    4 => PathPayment { send_asset, send_max, destination, dest_asset, dest_amount, path },
    5 => ManageOffer { offer_id, selling, buying, amount, price, passive },
    6 => ManageData { name, value },
    7 => ChangeTrust { asset, limit },
    8 => AllowTrust { trustor, asset_code, authorize },
    9 => BumpSequence { bump_to },
});

/// An operation bundled with its (optional) per-op source account.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourcedOperation {
    /// Source of this operation; defaults to the transaction source.
    pub source: Option<AccountId>,
    /// The operation.
    pub op: Operation,
}

stellar_crypto::impl_codec_struct!(SourcedOperation { source, op });

/// A transaction: atomic list of operations from a source account (§5.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// The fee-paying, sequence-consuming account.
    pub source: AccountId,
    /// Must equal source account's seq_num + 1 at execution.
    pub seq_num: u64,
    /// Fee offered, in stroops (≥ `BASE_FEE` × operations).
    pub fee: i64,
    /// Optional validity window.
    pub time_bounds: Option<TimeBounds>,
    /// Memo.
    pub memo: Memo,
    /// The operations (1 to 100 in production).
    pub operations: Vec<SourcedOperation>,
}

stellar_crypto::impl_codec_struct!(Transaction {
    source,
    seq_num,
    fee,
    time_bounds,
    memo,
    operations,
});

impl Transaction {
    /// Content hash (what gets signed).
    pub fn hash(&self) -> Hash256 {
        stellar_crypto::hash_xdr(self)
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.operations.len()
    }

    /// Fee per operation, for surge-pricing comparisons.
    pub fn fee_rate(&self) -> i64 {
        self.fee / (self.op_count().max(1) as i64)
    }

    /// Minimum acceptable fee.
    pub fn min_fee(&self) -> i64 {
        BASE_FEE * self.op_count().max(1) as i64
    }

    /// Every account that must satisfy signature thresholds: the
    /// transaction source plus each distinct per-op source.
    pub fn signing_accounts(&self) -> Vec<AccountId> {
        let mut out = vec![self.source];
        for so in &self.operations {
            if let Some(s) = so.source {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// A transaction plus its signatures: an immutable, shared handle.
///
/// A transaction is hashed at submission, nomination, and apply, canonical
/// tx-set ordering hashes every envelope O(log n) times during sorting, and
/// the same envelope sits in the queue, every proposal that includes it
/// and the close feed. The handle makes all of that one
/// allocation and one SHA-256 per hash: `clone()` bumps a reference count
/// and keeps the memoized hashes. That is safe because nothing can change
/// an envelope once built — the fields are readable through `Deref` but
/// there is no `&mut` path to them, so a content-derived memo has nothing
/// to go stale against. A changed envelope is a new one from
/// [`TransactionEnvelope::new`].
#[derive(Clone, Debug)]
pub struct TransactionEnvelope(Arc<EnvelopeData>);

/// The contents of a [`TransactionEnvelope`], read through `Deref`.
pub struct EnvelopeData {
    /// The transaction.
    pub tx: Transaction,
    /// Signatures: the signing public key and its signature over the
    /// transaction hash. (Production uses 4-byte hints; we carry the full
    /// key for simplicity.)
    pub signatures: Vec<(PublicKey, Signature)>,
    /// Revealed hash preimages, matched against `HashX` signers (§5.2's
    /// atomic cross-chain trading building block).
    pub preimages: Vec<Vec<u8>>,
    /// Memoized `tx.hash()` (the signed message).
    cached_tx_hash: OnceLock<Hash256>,
    /// Memoized envelope hash.
    cached_env_hash: OnceLock<Hash256>,
}

/// Prints the value only: whether a memo is filled yet is not part of it.
impl std::fmt::Debug for EnvelopeData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnvelopeData")
            .field("tx", &self.tx)
            .field("signatures", &self.signatures)
            .field("preimages", &self.preimages)
            .finish()
    }
}

impl Deref for TransactionEnvelope {
    type Target = EnvelopeData;

    fn deref(&self) -> &EnvelopeData {
        &self.0
    }
}

impl PartialEq for TransactionEnvelope {
    fn eq(&self, other: &TransactionEnvelope) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.tx == other.tx
                && self.signatures == other.signatures
                && self.preimages == other.preimages)
    }
}

impl Eq for TransactionEnvelope {}

impl Encode for TransactionEnvelope {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tx.encode(out);
        self.signatures.encode(out);
        self.preimages.encode(out);
    }
}

impl Decode for TransactionEnvelope {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(TransactionEnvelope::new(
            Decode::decode(input)?,
            Decode::decode(input)?,
            Decode::decode(input)?,
        ))
    }
}

impl TransactionEnvelope {
    /// Wraps `tx` with the given signatures and preimages.
    pub fn new(
        tx: Transaction,
        signatures: Vec<(PublicKey, Signature)>,
        preimages: Vec<Vec<u8>>,
    ) -> TransactionEnvelope {
        TransactionEnvelope(Arc::new(EnvelopeData {
            tx,
            signatures,
            preimages,
            cached_tx_hash: OnceLock::new(),
            cached_env_hash: OnceLock::new(),
        }))
    }

    /// Wraps and signs `tx` with each of `keys`.
    pub fn sign(tx: Transaction, keys: &[&KeyPair]) -> TransactionEnvelope {
        let h = tx.hash();
        let signatures = keys
            .iter()
            .map(|k| (k.public(), k.sign(h.as_bytes())))
            .collect();
        let env = TransactionEnvelope::new(tx, signatures, Vec::new());
        let _ = env.cached_tx_hash.set(h); // signing already paid for it
        env
    }

    /// Attaches a revealed hash preimage (builder style). Preimages are
    /// covered by the envelope hash, so this is a new envelope.
    pub fn with_preimage(self, preimage: Vec<u8>) -> TransactionEnvelope {
        let mut preimages = self.preimages.clone();
        preimages.push(preimage);
        TransactionEnvelope::new(self.tx.clone(), self.signatures.clone(), preimages)
    }

    /// The transaction (signing) hash, computed at most once per envelope.
    pub fn tx_hash(&self) -> Hash256 {
        *self.cached_tx_hash.get_or_init(|| self.tx.hash())
    }

    #[cfg(test)]
    /// The keys whose signatures verify against the transaction hash.
    pub fn valid_signer_keys(&self) -> Vec<PublicKey> {
        self.valid_signer_keys_cached(&mut crate::sigcache::SigVerifyCache::disabled())
    }

    /// The keys whose signatures verify against the transaction hash,
    /// consulting `cache` so a signature already verified at admission is not
    /// re-verified at apply.
    pub fn valid_signer_keys_cached(
        &self,
        cache: &mut crate::sigcache::SigVerifyCache,
    ) -> Vec<PublicKey> {
        let h = self.tx_hash();
        self.signatures
            .iter()
            .filter(|(pk, sig)| cache.check(&h, *pk, sig))
            .map(|(pk, _)| *pk)
            .collect()
    }

    /// Envelope hash (identifies the signed transaction), computed at most
    /// once per envelope.
    pub fn hash(&self) -> Hash256 {
        *self
            .cached_env_hash
            .get_or_init(|| stellar_crypto::hash_xdr(self))
    }

    /// This handle's share of the heap bytes the envelope holds: every
    /// handle to one envelope together count it once.
    pub fn resident_bytes(&self) -> u64 {
        let tx = &self.tx;
        let ops: u64 = tx.operations.iter().map(|o| o.op.heap_bytes()).sum();
        let memo = match &tx.memo {
            Memo::Text(text) => text.capacity() as u64,
            _ => 0,
        };
        let preimages: u64 = self.preimages.iter().map(|p| p.capacity() as u64).sum();
        let own = heap::RC_HEADER
            + std::mem::size_of::<EnvelopeData>() as u64
            + heap::array::<SourcedOperation>(tx.operations.capacity())
            + ops
            + memo
            + heap::array::<(PublicKey, Signature)>(self.signatures.capacity())
            + heap::array::<Vec<u8>>(self.preimages.capacity())
            + preimages;
        heap::shared(own, Arc::strong_count(&self.0))
    }
}

/// Why a transaction or operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxError {
    /// Fee below the network minimum (or unpayable).
    InsufficientFee,
    /// Source account missing.
    NoSourceAccount,
    /// Wrong sequence number.
    BadSequence,
    /// Outside the time bounds.
    TooEarly,
    /// Outside the time bounds.
    TooLate,
    /// Signature weight below the required threshold.
    BadAuth,
    /// No operations.
    MissingOperations,
    /// Insufficient XLM for fee.
    InsufficientBalance,
}

/// Why an individual operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpError {
    /// Referenced account does not exist.
    NoDestination,
    /// Account already exists (CreateAccount).
    AccountExists,
    /// Payment below reserve, balance, or limit constraints.
    Underfunded,
    /// Destination trustline missing.
    NoTrustLine,
    /// Destination trustline not authorized by the issuer.
    NotAuthorized,
    /// Trustline limit would be exceeded.
    LineFull,
    /// Balance would fall below the reserve.
    BelowReserve,
    /// Order book could not satisfy the path within `send_max`.
    TooFewOffers,
    /// PathPayment exceeded its end-to-end limit.
    OverSendMax,
    /// Referenced offer does not exist or is not owned by the source.
    NoOffer,
    /// Malformed operation (bad amount, bad asset, self-reference…).
    Malformed,
    /// Cannot merge: account still has subentries.
    HasSubEntries,
    /// Issuer-only operation attempted by a non-issuer.
    NotIssuer,
    /// Trustline balance non-zero at deletion.
    TrustLineInUse,
}

/// Result of applying one operation.
pub type OpResult = Result<(), OpError>;

/// Result of applying a whole transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxResult {
    /// All operations applied.
    Success {
        /// Fee charged (stroops).
        fee_charged: i64,
    },
    /// The transaction was valid (fee charged, sequence consumed) but an
    /// operation failed, rolling back all operation effects (§5.2).
    Failed {
        /// Fee charged anyway.
        fee_charged: i64,
        /// Index of the first failing operation.
        failed_op: usize,
        /// Its error.
        error: OpError,
    },
    /// The transaction was invalid and had no effect.
    Invalid(TxError),
}

impl TxResult {
    /// True when all operations applied.
    pub fn is_success(&self) -> bool {
        matches!(self, TxResult::Success { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    fn payment_tx(ops: usize) -> Transaction {
        Transaction {
            source: acct(1),
            seq_num: 1,
            fee: BASE_FEE * ops as i64,
            time_bounds: None,
            memo: Memo::None,
            operations: (0..ops)
                .map(|_| SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(2),
                        asset: Asset::Native,
                        amount: 5,
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn hash_changes_with_contents() {
        let a = payment_tx(1);
        let mut b = a.clone();
        b.seq_num = 2;
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn fee_rate_and_min_fee() {
        let tx = payment_tx(4);
        assert_eq!(tx.min_fee(), BASE_FEE * 4);
        assert_eq!(tx.fee_rate(), BASE_FEE);
    }

    #[test]
    fn signing_accounts_deduplicated() {
        let mut tx = payment_tx(1);
        tx.operations.push(SourcedOperation {
            source: Some(acct(3)),
            op: Operation::Payment {
                destination: acct(1),
                asset: Asset::Native,
                amount: 1,
            },
        });
        tx.operations.push(SourcedOperation {
            source: Some(acct(3)),
            op: Operation::BumpSequence { bump_to: 0 },
        });
        assert_eq!(tx.signing_accounts(), vec![acct(1), acct(3)]);
    }

    #[test]
    fn envelope_signature_verification() {
        let k1 = KeyPair::from_seed(1);
        let k2 = KeyPair::from_seed(2);
        let env = TransactionEnvelope::sign(payment_tx(1), &[&k1, &k2]);
        let keys = env.valid_signer_keys();
        assert!(keys.contains(&k1.public()) && keys.contains(&k2.public()));

        // An envelope cannot be edited in place; one rebuilt with a field
        // changed is a different transaction that nobody signed, even
        // though the original's hashes were already memoized.
        let mut tx = env.tx.clone();
        tx.fee += 1;
        let tampered = TransactionEnvelope::new(tx, env.signatures.clone(), Vec::new());
        assert_ne!(tampered.tx_hash(), env.tx_hash());
        assert_ne!(tampered.hash(), env.hash());
        assert!(tampered.valid_signer_keys().is_empty());
    }

    #[test]
    fn clone_shares_storage_and_memoized_hashes() {
        let k = KeyPair::from_seed(1);
        let env = TransactionEnvelope::sign(payment_tx(2), &[&k]);
        let h = env.hash();
        let copy = env.clone();
        assert!(std::ptr::eq::<EnvelopeData>(&*env, &*copy));
        assert_eq!(
            copy.tx.operations.as_ptr(),
            env.tx.operations.as_ptr(),
            "a clone is the same allocation, not a deep copy"
        );
        // The memo survives the clone and agrees with a from-scratch hash
        // of separately decoded bytes.
        let decoded = TransactionEnvelope::from_bytes(&env.to_bytes()).unwrap();
        assert!(!std::ptr::eq::<EnvelopeData>(&*env, &*decoded));
        assert_eq!(decoded, env);
        assert_eq!(copy.hash(), h);
        assert_eq!(decoded.hash(), h);
        assert_eq!(decoded.tx_hash(), copy.tx_hash());
        assert_eq!(h, stellar_crypto::hash_xdr(&env));
    }

    #[test]
    fn time_bounds() {
        let tb = TimeBounds {
            min_time: 10,
            max_time: 20,
        };
        assert!(!tb.contains(9));
        assert!(tb.contains(10));
        assert!(tb.contains(20));
        assert!(!tb.contains(21));
        assert!(TimeBounds {
            min_time: 0,
            max_time: 0
        }
        .contains(12345));
    }

    #[test]
    fn threshold_levels_follow_the_paper() {
        let high = Operation::SetOptions {
            auth_required: None,
            auth_revocable: None,
            master_weight: None,
            low_threshold: None,
            medium_threshold: None,
            high_threshold: None,
            signer: None,
        };
        assert_eq!(high.threshold_level(), ThresholdLevel::High);
        let low = Operation::AllowTrust {
            trustor: acct(1),
            asset_code: "USD".into(),
            authorize: true,
        };
        assert_eq!(low.threshold_level(), ThresholdLevel::Low);
        let med = Operation::Payment {
            destination: acct(1),
            asset: Asset::Native,
            amount: 1,
        };
        assert_eq!(med.threshold_level(), ThresholdLevel::Medium);
    }

    #[test]
    fn codec_roundtrip_all_operations() {
        use stellar_crypto::codec::Decode;
        let ops = vec![
            Operation::CreateAccount {
                destination: acct(2),
                starting_balance: 5,
            },
            Operation::AccountMerge {
                destination: acct(2),
            },
            Operation::SetOptions {
                auth_required: Some(true),
                auth_revocable: None,
                master_weight: Some(2),
                low_threshold: None,
                medium_threshold: Some(1),
                high_threshold: None,
                signer: Some(Signer::key(PublicKey(9), 1)),
            },
            Operation::Payment {
                destination: acct(2),
                asset: Asset::Native,
                amount: 10,
            },
            Operation::PathPayment {
                send_asset: Asset::Native,
                send_max: 100,
                destination: acct(2),
                dest_asset: Asset::issued(acct(3), "MXN"),
                dest_amount: 50,
                path: vec![Asset::issued(acct(4), "USD")],
            },
            Operation::ManageOffer {
                offer_id: 0,
                selling: Asset::Native,
                buying: Asset::issued(acct(3), "USD"),
                amount: 7,
                price: Price::new(3, 2),
                passive: true,
            },
            Operation::ManageData {
                name: "k".into(),
                value: Some(vec![1]),
            },
            Operation::ChangeTrust {
                asset: Asset::issued(acct(3), "USD"),
                limit: 10,
            },
            Operation::AllowTrust {
                trustor: acct(2),
                asset_code: "USD".into(),
                authorize: false,
            },
            Operation::BumpSequence { bump_to: 77 },
        ];
        for op in ops {
            let e = op.to_bytes();
            assert_eq!(Operation::from_bytes(&e).unwrap(), op);
        }
    }

    #[test]
    fn envelope_codec_roundtrip() {
        use stellar_crypto::codec::Decode;
        let k = KeyPair::from_seed(1);
        let env = TransactionEnvelope::sign(payment_tx(2), &[&k]);
        let back = TransactionEnvelope::from_bytes(&env.to_bytes()).unwrap();
        assert_eq!(back, env);
    }
}
