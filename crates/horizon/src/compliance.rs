//! The compliance server (§5.4): sanctioned-party screening hooks.
//!
//! "A compliance server provides hooks for financial institutions to
//! exchange and approve of sender and beneficiary information on payments,
//! for compliance with sanctions lists." The protocol here is the
//! pre-submission handshake: the sending institution shares sender info,
//! the receiving institution screens both parties and answers
//! allow/deny, and only an allowed payment proceeds to submission.

use std::collections::BTreeSet;
use stellar_ledger::entry::AccountId;

/// KYC information exchanged about a party.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartyInfo {
    /// Legal name.
    pub name: String,
    /// Country code.
    pub country: String,
    /// On-ledger account.
    pub account: AccountId,
}

/// Screening outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComplianceDecision {
    /// The payment may proceed.
    Allowed,
    /// The payment must not proceed (sanctions hit).
    Denied,
}

/// A receiving institution's compliance endpoint.
#[derive(Debug, Default)]
pub struct ComplianceServer {
    /// Sanctioned legal names (uppercased).
    sanctioned_names: BTreeSet<String>,
    /// Audit log of decisions: (sender name, decision).
    pub audit_log: Vec<(String, ComplianceDecision)>,
}

impl ComplianceServer {
    /// A permissive server with empty lists.
    pub fn new() -> ComplianceServer {
        ComplianceServer::default()
    }

    /// Adds a name to the sanctions list.
    pub fn sanction_name(&mut self, name: &str) {
        self.sanctioned_names.insert(name.to_uppercase());
    }

    /// The §5.4 handshake: the sending institution shares sender and
    /// beneficiary info; the receiver screens and decides.
    pub fn screen(&mut self, sender: &PartyInfo, beneficiary: &PartyInfo) -> ComplianceDecision {
        let decision = if self.sanctioned_names.contains(&sender.name.to_uppercase())
            || self
                .sanctioned_names
                .contains(&beneficiary.name.to_uppercase())
        {
            ComplianceDecision::Denied
        } else {
            ComplianceDecision::Allowed
        };
        self.audit_log.push((sender.name.clone(), decision));
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::PublicKey;

    fn party(name: &str, country: &str, n: u64) -> PartyInfo {
        PartyInfo {
            name: name.into(),
            country: country.into(),
            account: AccountId(PublicKey(n)),
        }
    }

    #[test]
    fn clean_parties_allowed() {
        let mut c = ComplianceServer::new();
        let d = c.screen(&party("Alice Doe", "US", 1), &party("Benito R", "MX", 2));
        assert_eq!(d, ComplianceDecision::Allowed);
        assert_eq!(c.audit_log.len(), 1);
    }

    #[test]
    fn sanctioned_name_denied_case_insensitive() {
        let mut c = ComplianceServer::new();
        c.sanction_name("Evil Corp");
        assert_eq!(
            c.screen(&party("evil corp", "US", 1), &party("B", "MX", 2)),
            ComplianceDecision::Denied
        );
        assert_eq!(
            c.screen(&party("A", "US", 1), &party("EVIL CORP", "MX", 2)),
            ComplianceDecision::Denied
        );
    }
}
