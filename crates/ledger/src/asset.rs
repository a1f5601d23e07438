//! Assets: the native token and issuer-named tokens.
//!
//! Issued assets are named by `(issuing account, short code)` (§5.1), e.g.
//! `USD` issued by AnchorUSD. The same code from two issuers is two
//! distinct assets — exactly the property that makes cross-issuer atomicity
//! (goal 3 of the paper) non-trivial and the built-in order book valuable.

use crate::entry::AccountId;
use stellar_crypto::codec::{Decode, DecodeError, Encode};

/// A 1–12 character asset code (e.g. "USD", "EUR", "REPO").
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AssetCode(String);

impl AssetCode {
    /// Creates a code after validating length and charset.
    ///
    /// # Panics
    ///
    /// Panics if the code is empty, longer than 12 bytes, or contains
    /// non-alphanumeric characters — such codes can never appear on the
    /// ledger.
    pub fn new(code: &str) -> AssetCode {
        assert!(
            !code.is_empty() && code.len() <= 12 && code.bytes().all(|b| b.is_ascii_alphanumeric()),
            "invalid asset code {code:?}"
        );
        AssetCode(code.to_string())
    }

    /// The code text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Encode for AssetCode {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for AssetCode {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let s = String::decode(input)?;
        if s.is_empty() || s.len() > 12 || !s.bytes().all(|b| b.is_ascii_alphanumeric()) {
            return Err(DecodeError::Invalid("asset code"));
        }
        Ok(AssetCode(s))
    }
}

/// An asset: the native XLM token or an issued token.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Asset {
    /// The pre-mined native currency (fee and reserve denomination).
    Native,
    /// A token named by issuer and code.
    Issued {
        /// The issuing account.
        issuer: AccountId,
        /// The short asset code.
        code: AssetCode,
    },
}

impl Asset {
    /// Heap bytes the asset holds beyond its own size: an issued asset's
    /// code.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Asset::Native => 0,
            Asset::Issued { code, .. } => code.0.capacity() as u64,
        }
    }

    /// Convenience constructor for issued assets.
    pub fn issued(issuer: AccountId, code: &str) -> Asset {
        Asset::Issued {
            issuer,
            code: AssetCode::new(code),
        }
    }

    /// The issuer, if this is an issued asset.
    pub fn issuer(&self) -> Option<AccountId> {
        match self {
            Asset::Native => None,
            Asset::Issued { issuer, .. } => Some(*issuer),
        }
    }
}

impl std::fmt::Display for Asset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Asset::Native => write!(f, "XLM"),
            Asset::Issued { issuer, code } => write!(f, "{}:{}", code.as_str(), issuer),
        }
    }
}

stellar_crypto::impl_codec_enum!(Asset: u8 {
    0 => Native,
    1 => Issued { issuer, code },
});

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    #[test]
    fn same_code_different_issuer_differ() {
        let a = Asset::issued(acct(1), "USD");
        let b = Asset::issued(acct(2), "USD");
        assert_ne!(a, b);
        assert_eq!(a, Asset::issued(acct(1), "USD"));
    }

    #[test]
    fn native_properties() {
        assert_eq!(Asset::Native.issuer(), None);
        assert_eq!(Asset::issued(acct(1), "EUR").issuer(), Some(acct(1)));
    }

    #[test]
    fn codec_roundtrip() {
        use stellar_crypto::codec::{Decode, Encode};
        for asset in [Asset::Native, Asset::issued(acct(7), "CARBON")] {
            assert_eq!(Asset::from_bytes(&asset.to_bytes()).unwrap(), asset);
        }
    }

    #[test]
    fn bad_codes_rejected_on_decode() {
        use stellar_crypto::codec::{Decode, Encode};
        let mut bytes = Vec::new();
        1u8.encode(&mut bytes);
        acct(1).encode(&mut bytes);
        "has space!".to_string().encode(&mut bytes);
        assert!(Asset::from_bytes(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid asset code")]
    fn oversized_code_panics() {
        let _ = AssetCode::new("THIRTEENCHARS");
    }
}
