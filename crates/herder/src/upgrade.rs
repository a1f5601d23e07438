//! Network upgrades and federated governance (§5.3).
//!
//! "Upgrades adjust global parameters such as the reserve balance, minimum
//! operation fee, and protocol version. When combined during nomination,
//! higher fees and protocol version numbers supersede lower ones. Upgrades
//! effect governance through a federated-voting tussle space, neither
//! egalitarian nor centralized."
//!
//! Each validator classifies any upgrade as *desired* (actively
//! nominated), *valid* (accepted if others push it), or *invalid* (never
//! accepted). Non-governing validators treat every well-formed upgrade as
//! merely valid, delegating the decision to those who opted into a
//! governance role.

use std::collections::BTreeSet;
use stellar_ledger::header::LedgerParams;

/// A proposed change to a global chain parameter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Upgrade {
    /// Raise the protocol version.
    ProtocolVersion(u32),
    /// Change the per-operation base fee (stroops).
    BaseFee(i64),
    /// Change the per-entry base reserve (stroops).
    BaseReserve(i64),
    /// Change the per-ledger operation budget.
    MaxTxSetOps(u32),
}

impl Upgrade {
    /// The magnitude used when "higher supersedes lower" within a kind.
    fn magnitude(&self) -> i128 {
        match self {
            Upgrade::ProtocolVersion(v) => i128::from(*v),
            Upgrade::BaseFee(v) | Upgrade::BaseReserve(v) => i128::from(*v),
            Upgrade::MaxTxSetOps(v) => i128::from(*v),
        }
    }

    /// Keeps only the highest upgrade per parameter kind (§5.3 combine
    /// rule). The declared wire tag names the parameter an upgrade
    /// targets.
    pub fn dedup_highest(upgrades: BTreeSet<Upgrade>) -> BTreeSet<Upgrade> {
        let mut best: std::collections::BTreeMap<u8, Upgrade> = Default::default();
        for u in upgrades {
            match best.get(&u.tag()) {
                Some(prev) if prev.magnitude() >= u.magnitude() => {}
                _ => {
                    best.insert(u.tag(), u);
                }
            }
        }
        best.into_values().collect()
    }

    /// Structural sanity: rejects nonsense any implementation must refuse.
    pub fn is_well_formed(&self) -> bool {
        match self {
            Upgrade::ProtocolVersion(v) => *v >= 1,
            Upgrade::BaseFee(v) => *v > 0,
            Upgrade::BaseReserve(v) => *v > 0,
            Upgrade::MaxTxSetOps(v) => *v >= 1,
        }
    }

    /// Whether the parameters already reflect this upgrade (so governing
    /// validators stop re-proposing it).
    pub fn is_satisfied(&self, params: &LedgerParams) -> bool {
        match self {
            Upgrade::ProtocolVersion(v) => params.protocol_version >= *v,
            Upgrade::BaseFee(v) => params.base_fee == *v,
            Upgrade::BaseReserve(v) => params.base_reserve == *v,
            Upgrade::MaxTxSetOps(v) => params.max_tx_set_ops == *v,
        }
    }

    /// Applies this upgrade to the chain parameters.
    pub fn apply(&self, params: &mut LedgerParams) {
        match self {
            Upgrade::ProtocolVersion(v) => {
                params.protocol_version = (*v).max(params.protocol_version)
            }
            Upgrade::BaseFee(v) => params.base_fee = *v,
            Upgrade::BaseReserve(v) => params.base_reserve = *v,
            Upgrade::MaxTxSetOps(v) => params.max_tx_set_ops = *v,
        }
    }
}

stellar_crypto::impl_codec_enum!(Upgrade: u8 {
    0 => ProtocolVersion(version),
    1 => BaseFee(fee),
    2 => BaseReserve(reserve),
    3 => MaxTxSetOps(ops),
});

/// A validator's stance on upgrades (§5.3).
#[derive(Clone, Debug, Default)]
pub struct UpgradePolicy {
    /// Whether this validator participates in governance.
    pub governing: bool,
    /// Upgrades this (governing) validator actively nominates.
    pub desired: BTreeSet<Upgrade>,
}

/// How a validator classifies an upgrade it sees in a nominated value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpgradeVerdict {
    /// Actively nominated (governing validators, desired set).
    Desired,
    /// Accepted if a blocking set pushes it.
    Valid,
    /// Never accepted (malformed / unknown).
    Invalid,
}

impl UpgradePolicy {
    /// Classifies `upgrade` per §5.3.
    ///
    /// Governing validators: desired / valid / invalid by configuration.
    /// Non-governing validators echo anything well-formed ("essentially
    /// delegating the decision").
    pub fn classify(&self, upgrade: &Upgrade) -> UpgradeVerdict {
        if !upgrade.is_well_formed() {
            return UpgradeVerdict::Invalid;
        }
        if self.governing {
            if self.desired.contains(upgrade) {
                UpgradeVerdict::Desired
            } else {
                UpgradeVerdict::Valid
            }
        } else {
            UpgradeVerdict::Valid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_highest_per_kind() {
        let set: BTreeSet<Upgrade> = [
            Upgrade::BaseFee(100),
            Upgrade::BaseFee(300),
            Upgrade::ProtocolVersion(2),
            Upgrade::ProtocolVersion(1),
            Upgrade::MaxTxSetOps(500),
        ]
        .into();
        let d = Upgrade::dedup_highest(set);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&Upgrade::BaseFee(300)));
        assert!(d.contains(&Upgrade::ProtocolVersion(2)));
        assert!(d.contains(&Upgrade::MaxTxSetOps(500)));
    }

    #[test]
    fn apply_updates_params() {
        let mut p = LedgerParams::default();
        Upgrade::BaseFee(250).apply(&mut p);
        Upgrade::ProtocolVersion(3).apply(&mut p);
        Upgrade::BaseReserve(123).apply(&mut p);
        Upgrade::MaxTxSetOps(42).apply(&mut p);
        assert_eq!(p.base_fee, 250);
        assert_eq!(p.protocol_version, 3);
        assert_eq!(p.base_reserve, 123);
        assert_eq!(p.max_tx_set_ops, 42);
        // Protocol version never regresses.
        Upgrade::ProtocolVersion(1).apply(&mut p);
        assert_eq!(p.protocol_version, 3);
    }

    #[test]
    fn malformed_upgrades_rejected() {
        assert!(!Upgrade::BaseFee(0).is_well_formed());
        assert!(!Upgrade::BaseFee(-5).is_well_formed());
        assert!(!Upgrade::ProtocolVersion(0).is_well_formed());
        assert!(!Upgrade::MaxTxSetOps(0).is_well_formed());
        assert!(Upgrade::BaseReserve(1).is_well_formed());
    }

    #[test]
    fn governance_classification() {
        let governing = UpgradePolicy {
            governing: true,
            desired: [Upgrade::BaseFee(200)].into(),
        };
        assert_eq!(
            governing.classify(&Upgrade::BaseFee(200)),
            UpgradeVerdict::Desired
        );
        assert_eq!(
            governing.classify(&Upgrade::BaseFee(300)),
            UpgradeVerdict::Valid
        );
        assert_eq!(
            governing.classify(&Upgrade::BaseFee(0)),
            UpgradeVerdict::Invalid
        );

        let echo = UpgradePolicy::default();
        assert_eq!(echo.classify(&Upgrade::BaseFee(200)), UpgradeVerdict::Valid);
        assert_eq!(echo.classify(&Upgrade::BaseFee(0)), UpgradeVerdict::Invalid);
    }

    #[test]
    fn codec_roundtrip() {
        use stellar_crypto::codec::{Decode, Encode};
        for u in [
            Upgrade::ProtocolVersion(7),
            Upgrade::BaseFee(1000),
            Upgrade::BaseReserve(99),
            Upgrade::MaxTxSetOps(1),
        ] {
            assert_eq!(Upgrade::from_bytes(&u.to_bytes()).unwrap(), u);
        }
    }
}
