//! The four ledger entry kinds (§5.1): accounts, trustlines, offers, and
//! account data.

use crate::asset::Asset;
use stellar_crypto::codec::{Decode, DecodeError, Encode};
use stellar_crypto::sign::PublicKey;

/// An account identifier: the public key that names the account.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AccountId(pub PublicKey);

impl std::fmt::Display for AccountId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Stellar renders account ids as base32 starting with 'G'; we show
        // a G-prefixed hex form for familiarity.
        write!(f, "G{:012X}", self.0 .0)
    }
}

impl Encode for AccountId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for AccountId {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(AccountId(PublicKey::decode(input)?))
    }
}

/// Account flags (§5.1): issuer policy bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AccountFlags {
    /// Holders of assets issued by this account need explicit
    /// authorization on their trustline (KYC support).
    pub auth_required: bool,
    /// The issuer may revoke authorization after granting it.
    pub auth_revocable: bool,
    /// The flags above can never be changed again.
    pub auth_immutable: bool,
}

impl Encode for AccountFlags {
    fn encode(&self, out: &mut Vec<u8>) {
        let bits: u8 = (self.auth_required as u8)
            | ((self.auth_revocable as u8) << 1)
            | ((self.auth_immutable as u8) << 2);
        bits.encode(out);
    }
}

impl Decode for AccountFlags {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bits = u8::decode(input)?;
        if bits > 0b111 {
            return Err(DecodeError::Invalid("account flags"));
        }
        Ok(AccountFlags {
            auth_required: bits & 1 != 0,
            auth_revocable: bits & 2 != 0,
            auth_immutable: bits & 4 != 0,
        })
    }
}

/// What can act as an account signer (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignerKey {
    /// An ordinary public key.
    Key(PublicKey),
    /// A hash whose *preimage revelation* counts as a signature —
    /// "combined with time bounds, permits atomic cross-chain trading."
    HashX(stellar_crypto::Hash256),
}

stellar_crypto::impl_codec_enum!(SignerKey: u8 {
    0 => Key(key),
    1 => HashX(hash),
});

/// An additional signer with a weight, for multisig (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signer {
    /// The signing key (a public key or a hash-preimage lock).
    pub key: SignerKey,
    /// Weight contributed toward the operation threshold (0 removes).
    pub weight: u8,
}

impl Signer {
    /// Convenience constructor for ordinary public-key signers.
    pub fn key(key: PublicKey, weight: u8) -> Signer {
        Signer {
            key: SignerKey::Key(key),
            weight,
        }
    }
}

stellar_crypto::impl_codec_struct!(Signer { key, weight });

/// Signing thresholds per operation category (§5.2: "higher signing weight
/// for some operations … and lower for others").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Thresholds {
    /// Weight of the master key (the key naming the account).
    pub master_weight: u8,
    /// Threshold for low-impact ops (e.g. `AllowTrust`, `BumpSequence`).
    pub low: u8,
    /// Threshold for medium-impact ops (payments, offers, trustlines).
    pub medium: u8,
    /// Threshold for high-impact ops (`SetOptions`, `AccountMerge`).
    pub high: u8,
}

impl Default for Thresholds {
    fn default() -> Self {
        // Master key alone suffices for everything by default.
        Thresholds {
            master_weight: 1,
            low: 0,
            medium: 0,
            high: 0,
        }
    }
}

stellar_crypto::impl_codec_struct!(Thresholds {
    master_weight,
    low,
    medium,
    high
});

/// An account: the principal that owns and issues assets (§5.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccountEntry {
    /// The public key naming the account.
    pub id: AccountId,
    /// Native XLM balance in stroops.
    pub balance: i64,
    /// Sequence number of the last executed transaction.
    pub seq_num: u64,
    /// Number of subentries (trustlines, offers, data, extra signers);
    /// each raises the reserve.
    pub num_subentries: u32,
    /// Issuer policy flags.
    pub flags: AccountFlags,
    /// Additional signers for multisig.
    pub signers: Vec<Signer>,
    /// Signing thresholds.
    pub thresholds: Thresholds,
}

stellar_crypto::impl_codec_struct!(AccountEntry {
    id,
    balance,
    seq_num,
    num_subentries,
    flags,
    signers,
    thresholds,
});

impl AccountEntry {
    /// Creates a fresh account with default thresholds.
    pub fn new(id: AccountId, balance: i64) -> AccountEntry {
        AccountEntry {
            id,
            balance,
            seq_num: 0,
            num_subentries: 0,
            flags: AccountFlags::default(),
            signers: Vec::new(),
            thresholds: Thresholds::default(),
        }
    }

    /// Minimum XLM balance: `(2 + subentries) · base_reserve` (§5.1).
    pub fn reserve(&self, base_reserve: i64) -> i64 {
        (2 + i64::from(self.num_subentries)) * base_reserve
    }

    /// XLM available above the reserve.
    pub fn available(&self, base_reserve: i64) -> i64 {
        self.balance - self.reserve(base_reserve)
    }

    /// Total signing weight of the given keys for this account:
    /// master weight if the master key signed, plus matching signer
    /// weights. See [`AccountEntry::signing_weight_with_preimages`] for
    /// hash-preimage signers.
    pub fn signing_weight(&self, signed_by: &[PublicKey]) -> u32 {
        self.signing_weight_with_preimages(signed_by, &[])
    }

    /// Signing weight including revealed hash preimages (§5.2): a
    /// `HashX(h)` signer contributes its weight when some preimage in
    /// `preimages` hashes to `h`.
    pub fn signing_weight_with_preimages(
        &self,
        signed_by: &[PublicKey],
        preimages: &[Vec<u8>],
    ) -> u32 {
        let mut weight = 0u32;
        if signed_by.contains(&self.id.0) {
            weight += u32::from(self.thresholds.master_weight);
        }
        let revealed: Vec<stellar_crypto::Hash256> = preimages
            .iter()
            .map(|p| stellar_crypto::sha256::sha256(p))
            .collect();
        for s in &self.signers {
            let matched = match &s.key {
                SignerKey::Key(k) => signed_by.contains(k),
                SignerKey::HashX(h) => revealed.contains(h),
            };
            if matched {
                weight += u32::from(s.weight);
            }
        }
        weight
    }

    /// Threshold for an operation category. A threshold of 0 means "master
    /// weight ≥ 1 suffices" in production; we normalize to max(1, t).
    pub fn threshold(&self, level: ThresholdLevel) -> u32 {
        let t = match level {
            ThresholdLevel::Low => self.thresholds.low,
            ThresholdLevel::Medium => self.thresholds.medium,
            ThresholdLevel::High => self.thresholds.high,
        };
        u32::from(t).max(1)
    }
}

/// Operation impact categories for multisig thresholds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThresholdLevel {
    /// Low-impact operations.
    Low,
    /// Medium-impact operations (most).
    Medium,
    /// High-impact operations.
    High,
}

/// A trustline: consent to hold (up to `limit` of) an issued asset (§5.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TrustLineEntry {
    /// The holding account.
    pub account: AccountId,
    /// The asset held (never `Native`).
    pub asset: Asset,
    /// Current balance.
    pub balance: i64,
    /// Limit above which the balance cannot rise.
    pub limit: i64,
    /// Whether the issuer authorized this holder (meaningful when the
    /// issuer sets `auth_required`).
    pub authorized: bool,
}

stellar_crypto::impl_codec_struct!(TrustLineEntry {
    account,
    asset,
    balance,
    limit,
    authorized
});

impl TrustLineEntry {
    /// Room left under the limit.
    pub fn headroom(&self) -> i64 {
        self.limit - self.balance
    }
}

/// An offer on the built-in order book (§5.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OfferEntry {
    /// Ledger-unique offer id.
    pub id: u64,
    /// The account making the offer.
    pub account: AccountId,
    /// Asset being sold.
    pub selling: Asset,
    /// Asset being bought.
    pub buying: Asset,
    /// Remaining amount of `selling` on offer.
    pub amount: i64,
    /// Price: units of `buying` per unit of `selling`.
    pub price: crate::amount::Price,
    /// Passive offers do not cross offers at exactly the reciprocal price
    /// (zero-spread market making, §5.2).
    pub passive: bool,
}

stellar_crypto::impl_codec_struct!(OfferEntry {
    id,
    account,
    selling,
    buying,
    amount,
    price,
    passive
});

/// A key/value datum attached to an account (§5.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataEntry {
    /// Owning account.
    pub account: AccountId,
    /// Name (≤ 64 bytes by convention).
    pub name: String,
    /// Value (small metadata blob).
    pub value: Vec<u8>,
}

stellar_crypto::impl_codec_struct!(DataEntry {
    account,
    name,
    value
});

/// Any ledger entry, as stored in buckets and hashed into the snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LedgerEntry {
    /// An account entry.
    Account(AccountEntry),
    /// A trustline entry.
    TrustLine(TrustLineEntry),
    /// An offer entry.
    Offer(OfferEntry),
    /// An account-data entry.
    Data(DataEntry),
}

impl LedgerEntry {
    /// Heap bytes the entry holds beyond its own size.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            LedgerEntry::Account(a) => {
                (a.signers.capacity() * std::mem::size_of::<Signer>()) as u64
            }
            LedgerEntry::TrustLine(t) => t.asset.heap_bytes(),
            LedgerEntry::Offer(o) => o.selling.heap_bytes() + o.buying.heap_bytes(),
            LedgerEntry::Data(d) => (d.name.capacity() + d.value.capacity()) as u64,
        }
    }

    /// A stable key identifying the entry across versions.
    pub fn key(&self) -> LedgerKey {
        match self {
            LedgerEntry::Account(a) => LedgerKey::Account(a.id),
            LedgerEntry::TrustLine(t) => LedgerKey::TrustLine(t.account, t.asset.clone()),
            LedgerEntry::Offer(o) => LedgerKey::Offer(o.id),
            LedgerEntry::Data(d) => LedgerKey::Data(d.account, d.name.clone()),
        }
    }
}

stellar_crypto::impl_codec_enum!(LedgerEntry: u8 {
    0 => Account(account),
    1 => TrustLine(trust_line),
    2 => Offer(offer),
    3 => Data(data),
});

/// Identifies a ledger entry independent of its contents.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LedgerKey {
    /// Account by id.
    Account(AccountId),
    /// Trustline by (account, asset).
    TrustLine(AccountId, Asset),
    /// Offer by id.
    Offer(u64),
    /// Data by (account, name).
    Data(AccountId, String),
}

stellar_crypto::impl_codec_enum!(LedgerKey: u8 {
    0 => Account(account),
    1 => TrustLine(account, asset),
    2 => Offer(id),
    3 => Data(account, name),
});

impl LedgerKey {
    /// Heap bytes the key holds beyond its own size.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            LedgerKey::Account(_) | LedgerKey::Offer(_) => 0,
            LedgerKey::TrustLine(_, asset) => asset.heap_bytes(),
            LedgerKey::Data(_, name) => name.capacity() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::{xlm, BASE_RESERVE};

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    #[test]
    fn reserve_grows_with_subentries() {
        let mut a = AccountEntry::new(acct(1), xlm(10));
        assert_eq!(a.reserve(BASE_RESERVE), xlm(1)); // 2 × 0.5 XLM
        a.num_subentries = 3;
        assert_eq!(a.reserve(BASE_RESERVE), BASE_RESERVE * 5);
        assert_eq!(a.available(BASE_RESERVE), xlm(10) - BASE_RESERVE * 5);
    }

    #[test]
    fn signing_weight_master_and_signers() {
        let mut a = AccountEntry::new(acct(1), 0);
        a.signers.push(Signer::key(PublicKey(50), 2));
        a.thresholds.master_weight = 3;
        assert_eq!(a.signing_weight(&[PublicKey(1)]), 3);
        assert_eq!(a.signing_weight(&[PublicKey(50)]), 2);
        assert_eq!(a.signing_weight(&[PublicKey(1), PublicKey(50)]), 5);
        assert_eq!(a.signing_weight(&[PublicKey(99)]), 0);
    }

    #[test]
    fn deauthorized_master_key() {
        // "accounts can … deauthorize the key that names the account."
        let mut a = AccountEntry::new(acct(1), 0);
        a.thresholds.master_weight = 0;
        a.signers.push(Signer::key(PublicKey(50), 1));
        assert_eq!(a.signing_weight(&[PublicKey(1)]), 0);
        assert_eq!(a.signing_weight(&[PublicKey(50)]), 1);
    }

    #[test]
    fn thresholds_default_to_one() {
        let a = AccountEntry::new(acct(1), 0);
        assert_eq!(a.threshold(ThresholdLevel::Low), 1);
        assert_eq!(a.threshold(ThresholdLevel::Medium), 1);
        assert_eq!(a.threshold(ThresholdLevel::High), 1);
    }

    #[test]
    fn entry_keys() {
        let a = LedgerEntry::Account(AccountEntry::new(acct(1), 0));
        assert_eq!(a.key(), LedgerKey::Account(acct(1)));
        let t = LedgerEntry::TrustLine(TrustLineEntry {
            account: acct(1),
            asset: Asset::issued(acct(2), "USD"),
            balance: 0,
            limit: 100,
            authorized: true,
        });
        assert_eq!(
            t.key(),
            LedgerKey::TrustLine(acct(1), Asset::issued(acct(2), "USD"))
        );
    }

    #[test]
    fn entry_codec_roundtrip() {
        use stellar_crypto::codec::{Decode, Encode};
        let entries = vec![
            LedgerEntry::Account(AccountEntry::new(acct(1), 55)),
            LedgerEntry::TrustLine(TrustLineEntry {
                account: acct(1),
                asset: Asset::issued(acct(2), "USD"),
                balance: 10,
                limit: 100,
                authorized: false,
            }),
            LedgerEntry::Offer(OfferEntry {
                id: 9,
                account: acct(1),
                selling: Asset::Native,
                buying: Asset::issued(acct(2), "USD"),
                amount: 1000,
                price: crate::amount::Price::new(3, 7),
                passive: true,
            }),
            LedgerEntry::Data(DataEntry {
                account: acct(1),
                name: "k".into(),
                value: vec![1, 2],
            }),
        ];
        for e in entries {
            assert_eq!(LedgerEntry::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }
}
