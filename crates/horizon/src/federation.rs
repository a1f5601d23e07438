//! The federation server (§5.4): human-readable account names.
//!
//! "A federation server implements a human-readable naming system for
//! accounts." Stellar federation addresses look like `alice*example.org`;
//! a domain's federation server resolves the local part to an account id
//! and, optionally, a required memo (exchanges route deposits to one
//! pooled account distinguished by memo).

use std::collections::BTreeMap;
use stellar_ledger::entry::AccountId;
use stellar_ledger::tx::Memo;

/// A resolved federation record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederationRecord {
    /// The on-ledger account.
    pub account: AccountId,
    /// Memo the sender must attach (pooled-account routing), if any.
    pub required_memo: Option<Memo>,
}

/// One domain's name registry.
#[derive(Debug)]
pub struct FederationServer {
    domain: String,
    records: BTreeMap<String, FederationRecord>,
}

impl FederationServer {
    /// A federation server for `domain`.
    pub fn new(domain: &str) -> FederationServer {
        FederationServer {
            domain: domain.to_lowercase(),
            records: BTreeMap::new(),
        }
    }

    /// The served domain.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Registers (or replaces) `name*domain` → account.
    pub fn register(&mut self, name: &str, account: AccountId, required_memo: Option<Memo>) {
        self.records.insert(
            name.to_lowercase(),
            FederationRecord {
                account,
                required_memo,
            },
        );
    }

    /// Resolves a full federation address (`name*domain`).
    ///
    /// Returns `None` for malformed addresses, foreign domains, or
    /// unknown names.
    pub fn resolve(&self, address: &str) -> Option<&FederationRecord> {
        let (name, domain) = address.split_once('*')?;
        if domain.to_lowercase() != self.domain || name.is_empty() {
            return None;
        }
        self.records.get(&name.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    #[test]
    fn resolves_registered_names() {
        let mut f = FederationServer::new("Example.Org");
        f.register("Alice", acct(1), None);
        let r = f.resolve("alice*example.org").unwrap();
        assert_eq!(r.account, acct(1));
        assert_eq!(r.required_memo, None);
        // Case-insensitive on both halves.
        assert!(f.resolve("ALICE*EXAMPLE.ORG").is_some());
    }

    #[test]
    fn pooled_account_requires_memo() {
        let mut f = FederationServer::new("exchange.com");
        f.register("deposits", acct(7), Some(Memo::Id(424242)));
        let r = f.resolve("deposits*exchange.com").unwrap();
        assert_eq!(r.required_memo, Some(Memo::Id(424242)));
    }

    #[test]
    fn rejects_foreign_and_malformed_addresses() {
        let mut f = FederationServer::new("example.org");
        f.register("alice", acct(1), None);
        assert!(f.resolve("alice*other.org").is_none());
        assert!(f.resolve("alice").is_none());
        assert!(f.resolve("*example.org").is_none());
        assert!(f.resolve("bob*example.org").is_none());
    }

    #[test]
    fn reregistration_replaces() {
        let mut f = FederationServer::new("example.org");
        f.register("alice", acct(1), None);
        f.register("alice", acct(2), None);
        assert_eq!(f.resolve("alice*example.org").unwrap().account, acct(2));
    }
}
