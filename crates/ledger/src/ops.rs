//! Operation execution (Fig. 4 semantics).
//!
//! Each function mutates a per-transaction [`LedgerDelta`]; the caller
//! (transaction apply in [`crate::apply`]) discards the delta wholesale if
//! any operation fails, which is what makes multi-operation transactions
//! atomic (§5.2).

use crate::amount::Price;
use crate::asset::{Asset, AssetCode};
use crate::entry::{AccountEntry, AccountId, DataEntry, TrustLineEntry};
use crate::orderbook::{self, Fill, TradeCaps};
use crate::store::LedgerDelta;
use crate::tx::{OpError, OpResult, Operation};

/// Ledger-wide parameters needed during execution.
#[derive(Clone, Copy, Debug)]
pub struct ExecEnv {
    /// Per-entry base reserve in stroops (§5.1).
    pub base_reserve: i64,
    /// The close time of the ledger being built.
    pub close_time: u64,
}

impl Default for ExecEnv {
    fn default() -> Self {
        ExecEnv {
            base_reserve: crate::amount::BASE_RESERVE,
            close_time: 0,
        }
    }
}

/// Credits `amount` of `asset` to `account`.
///
/// Issued assets credited to their issuer are burned (the issuer's own
/// balance is not tracked); anyone else needs an authorized trustline with
/// headroom.
pub fn credit(
    delta: &mut LedgerDelta<'_>,
    account: AccountId,
    asset: &Asset,
    amount: i64,
) -> OpResult {
    if amount < 0 {
        return Err(OpError::Malformed);
    }
    match asset {
        Asset::Native => {
            let mut a = delta.account(account).ok_or(OpError::NoDestination)?;
            a.balance = a.balance.checked_add(amount).ok_or(OpError::LineFull)?;
            delta.put_account(a);
            Ok(())
        }
        Asset::Issued { issuer, .. } => {
            if *issuer == account {
                // Redeeming with the issuer burns the tokens.
                return if delta.account(account).is_some() {
                    Ok(())
                } else {
                    Err(OpError::NoDestination)
                };
            }
            let mut tl = delta
                .trustline(account, asset)
                .ok_or(OpError::NoTrustLine)?;
            if !tl.authorized {
                return Err(OpError::NotAuthorized);
            }
            if tl.headroom() < amount {
                return Err(OpError::LineFull);
            }
            tl.balance += amount;
            delta.put_trustline(tl);
            Ok(())
        }
    }
}

/// Debits `amount` of `asset` from `account`.
///
/// Native debits respect the reserve; issued-asset debits from the issuer
/// mint new tokens.
pub fn debit(
    delta: &mut LedgerDelta<'_>,
    account: AccountId,
    asset: &Asset,
    amount: i64,
    base_reserve: i64,
) -> OpResult {
    if amount < 0 {
        return Err(OpError::Malformed);
    }
    match asset {
        Asset::Native => {
            let mut a = delta.account(account).ok_or(OpError::NoDestination)?;
            if a.available(base_reserve) < amount {
                return Err(OpError::Underfunded);
            }
            a.balance -= amount;
            delta.put_account(a);
            Ok(())
        }
        Asset::Issued { issuer, .. } => {
            if *issuer == account {
                // The issuer mints on demand.
                return if delta.account(account).is_some() {
                    Ok(())
                } else {
                    Err(OpError::NoDestination)
                };
            }
            let mut tl = delta
                .trustline(account, asset)
                .ok_or(OpError::NoTrustLine)?;
            if !tl.authorized {
                return Err(OpError::NotAuthorized);
            }
            if tl.balance < amount {
                return Err(OpError::Underfunded);
            }
            tl.balance -= amount;
            delta.put_trustline(tl);
            Ok(())
        }
    }
}

/// Moves balances for a batch of order-book fills: the taker sold
/// `selling` and bought `buying` from each maker.
fn settle_fills(
    delta: &mut LedgerDelta<'_>,
    taker: AccountId,
    selling: &Asset,
    buying: &Asset,
    fills: &[Fill],
    base_reserve: i64,
) -> OpResult {
    for f in fills {
        debit(delta, taker, selling, f.taker_sold, base_reserve)?;
        credit(delta, f.maker, selling, f.taker_sold)?;
        debit(delta, f.maker, buying, f.taker_bought, base_reserve)?;
        credit(delta, taker, buying, f.taker_bought)?;
    }
    Ok(())
}

/// How much of `asset` `account` could deliver right now.
fn deliverable(
    delta: &LedgerDelta<'_>,
    account: AccountId,
    asset: &Asset,
    base_reserve: i64,
) -> i64 {
    match asset {
        Asset::Native => delta
            .account(account)
            .map_or(0, |a| a.available(base_reserve).max(0)),
        Asset::Issued { issuer, .. } if *issuer == account => i64::MAX / 4,
        Asset::Issued { .. } => delta
            .trustline(account, asset)
            .filter(|t| t.authorized)
            .map_or(0, |t| t.balance),
    }
}

/// How much of `asset` `account` could receive right now.
fn receivable(delta: &LedgerDelta<'_>, account: AccountId, asset: &Asset) -> i64 {
    match asset {
        Asset::Native => i64::MAX / 4,
        Asset::Issued { issuer, .. } if *issuer == account => i64::MAX / 4,
        Asset::Issued { .. } => delta
            .trustline(account, asset)
            .filter(|t| t.authorized)
            .map_or(0, |t| t.headroom().max(0)),
    }
}

/// Applies one operation for `source`.
pub fn apply_operation(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    op: &Operation,
    env: &ExecEnv,
) -> OpResult {
    match op {
        Operation::CreateAccount {
            destination,
            starting_balance,
        } => apply_create_account(delta, source, *destination, *starting_balance, env),
        Operation::AccountMerge { destination } => apply_account_merge(delta, source, *destination),
        Operation::SetOptions {
            auth_required,
            auth_revocable,
            master_weight,
            low_threshold,
            medium_threshold,
            high_threshold,
            signer,
        } => apply_set_options(
            delta,
            source,
            *auth_required,
            *auth_revocable,
            *master_weight,
            *low_threshold,
            *medium_threshold,
            *high_threshold,
            *signer,
            env,
        ),
        Operation::Payment {
            destination,
            asset,
            amount,
        } => {
            if *amount <= 0 {
                return Err(OpError::Malformed);
            }
            if delta.account(*destination).is_none() {
                return Err(OpError::NoDestination);
            }
            debit(delta, source, asset, *amount, env.base_reserve)?;
            credit(delta, *destination, asset, *amount)
        }
        Operation::PathPayment {
            send_asset,
            send_max,
            destination,
            dest_asset,
            dest_amount,
            path,
        } => crate::pathfind::apply_path_payment(
            delta,
            source,
            send_asset,
            *send_max,
            *destination,
            dest_asset,
            *dest_amount,
            path,
            env,
        ),
        Operation::ManageOffer {
            offer_id,
            selling,
            buying,
            amount,
            price,
            passive,
        } => apply_manage_offer(
            delta, source, *offer_id, selling, buying, *amount, *price, *passive, env,
        ),
        Operation::ManageData { name, value } => apply_manage_data(delta, source, name, value, env),
        Operation::ChangeTrust { asset, limit } => {
            apply_change_trust(delta, source, asset, *limit, env)
        }
        Operation::AllowTrust {
            trustor,
            asset_code,
            authorize,
        } => apply_allow_trust(delta, source, *trustor, asset_code, *authorize),
        Operation::BumpSequence { bump_to } => {
            let mut a = delta.account(source).ok_or(OpError::NoDestination)?;
            if *bump_to > a.seq_num {
                a.seq_num = *bump_to;
                delta.put_account(a);
            }
            Ok(())
        }
    }
}

fn apply_create_account(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    destination: AccountId,
    starting_balance: i64,
    env: &ExecEnv,
) -> OpResult {
    if delta.account(destination).is_some() {
        return Err(OpError::AccountExists);
    }
    if starting_balance < 2 * env.base_reserve {
        return Err(OpError::BelowReserve);
    }
    debit(
        delta,
        source,
        &Asset::Native,
        starting_balance,
        env.base_reserve,
    )?;
    delta.put_account(AccountEntry::new(destination, starting_balance));
    Ok(())
}

fn apply_account_merge(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    destination: AccountId,
) -> OpResult {
    if source == destination {
        return Err(OpError::Malformed);
    }
    let src = delta.account(source).ok_or(OpError::NoDestination)?;
    if src.num_subentries > 0 {
        return Err(OpError::HasSubEntries);
    }
    let mut dst = delta.account(destination).ok_or(OpError::NoDestination)?;
    dst.balance = dst
        .balance
        .checked_add(src.balance)
        .ok_or(OpError::LineFull)?;
    delta.put_account(dst);
    delta.delete_account(source);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_set_options(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    auth_required: Option<bool>,
    auth_revocable: Option<bool>,
    master_weight: Option<u8>,
    low: Option<u8>,
    medium: Option<u8>,
    high: Option<u8>,
    signer: Option<crate::entry::Signer>,
    env: &ExecEnv,
) -> OpResult {
    let mut a = delta.account(source).ok_or(OpError::NoDestination)?;
    if (auth_required.is_some() || auth_revocable.is_some()) && a.flags.auth_immutable {
        return Err(OpError::Malformed);
    }
    if let Some(v) = auth_required {
        a.flags.auth_required = v;
    }
    if let Some(v) = auth_revocable {
        a.flags.auth_revocable = v;
    }
    if let Some(v) = master_weight {
        a.thresholds.master_weight = v;
    }
    if let Some(v) = low {
        a.thresholds.low = v;
    }
    if let Some(v) = medium {
        a.thresholds.medium = v;
    }
    if let Some(v) = high {
        a.thresholds.high = v;
    }
    if let Some(s) = signer {
        if s.key == crate::entry::SignerKey::Key(a.id.0) {
            return Err(OpError::Malformed); // master key is not a signer
        }
        let existing = a.signers.iter().position(|x| x.key == s.key);
        match (existing, s.weight) {
            (Some(i), 0) => {
                a.signers.remove(i);
                a.num_subentries = a.num_subentries.saturating_sub(1);
            }
            (Some(i), _) => a.signers[i].weight = s.weight,
            (None, 0) => {}
            (None, _) => {
                // New subentry must be covered by the reserve.
                if a.available(env.base_reserve) < env.base_reserve {
                    return Err(OpError::BelowReserve);
                }
                a.signers.push(s);
                a.num_subentries += 1;
            }
        }
    }
    delta.put_account(a);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_manage_offer(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    offer_id: u64,
    selling: &Asset,
    buying: &Asset,
    amount: i64,
    price: Price,
    passive: bool,
    env: &ExecEnv,
) -> OpResult {
    if selling == buying || amount < 0 {
        return Err(OpError::Malformed);
    }
    // Updating or deleting an existing offer: remove it first.
    if offer_id != 0 {
        let existing = delta.offer(offer_id).ok_or(OpError::NoOffer)?;
        if existing.account != source {
            return Err(OpError::NoOffer);
        }
        delta.delete_offer(offer_id);
        let mut a = delta.account(source).ok_or(OpError::NoDestination)?;
        a.num_subentries = a.num_subentries.saturating_sub(1);
        delta.put_account(a);
        if amount == 0 {
            return Ok(()); // pure deletion
        }
    } else if amount == 0 {
        return Err(OpError::Malformed);
    }

    // The taker can spend at most its deliverable balance and receive at
    // most its trustline headroom.
    let max_sell = deliverable(delta, source, selling, env.base_reserve).min(amount);
    if max_sell < amount {
        return Err(OpError::Underfunded);
    }
    let max_buy = receivable(delta, source, buying);
    if max_buy <= 0 && !matches!(buying, Asset::Native) {
        // Need an authorized trustline (or be the issuer) for proceeds.
        return Err(OpError::NoTrustLine);
    }

    // Cross the book first (marketable portion trades immediately).
    let res = orderbook::cross(
        delta,
        source,
        selling,
        buying,
        &price,
        TradeCaps { max_sell, max_buy },
        passive,
    );
    settle_fills(delta, source, selling, buying, &res.fills, env.base_reserve)?;

    // Rest the remainder on the book (reserve must cover the new entry;
    // `make_offer` accounts the subentry).
    let remainder = amount - res.sold;
    if remainder > 0 {
        let a = delta.account(source).ok_or(OpError::NoDestination)?;
        if a.available(env.base_reserve) < env.base_reserve {
            return Err(OpError::BelowReserve);
        }
        let mut offer = orderbook::make_offer(
            delta,
            source,
            selling.clone(),
            buying.clone(),
            remainder,
            price,
            passive,
        );
        // Preserve the original id on update.
        if offer_id != 0 {
            delta.delete_offer(offer.id);
            offer.id = offer_id;
            delta.put_offer(offer);
        }
    }
    Ok(())
}

fn apply_manage_data(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    name: &str,
    value: &Option<Vec<u8>>,
    env: &ExecEnv,
) -> OpResult {
    if name.is_empty() || name.len() > 64 {
        return Err(OpError::Malformed);
    }
    let mut a = delta.account(source).ok_or(OpError::NoDestination)?;
    let existing = delta.data(source, name);
    match (existing, value) {
        (None, None) => Err(OpError::Malformed),
        (Some(_), None) => {
            delta.delete_data(source, name);
            a.num_subentries = a.num_subentries.saturating_sub(1);
            delta.put_account(a);
            Ok(())
        }
        (None, Some(v)) => {
            if v.len() > 64 {
                return Err(OpError::Malformed);
            }
            if a.available(env.base_reserve) < env.base_reserve {
                return Err(OpError::BelowReserve);
            }
            a.num_subentries += 1;
            delta.put_account(a);
            delta.put_data(DataEntry {
                account: source,
                name: name.to_string(),
                value: v.clone(),
            });
            Ok(())
        }
        (Some(_), Some(v)) => {
            if v.len() > 64 {
                return Err(OpError::Malformed);
            }
            delta.put_data(DataEntry {
                account: source,
                name: name.to_string(),
                value: v.clone(),
            });
            Ok(())
        }
    }
}

fn apply_change_trust(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    asset: &Asset,
    limit: i64,
    env: &ExecEnv,
) -> OpResult {
    let issuer = match asset {
        Asset::Native => return Err(OpError::Malformed),
        Asset::Issued { issuer, .. } => *issuer,
    };
    if issuer == source || limit < 0 {
        return Err(OpError::Malformed);
    }
    let issuer_acct = delta.account(issuer).ok_or(OpError::NoDestination)?;
    match delta.trustline(source, asset) {
        Some(mut tl) => {
            if limit == 0 {
                if tl.balance != 0 {
                    return Err(OpError::TrustLineInUse);
                }
                delta.delete_trustline(source, asset);
                let mut a = delta.account(source).ok_or(OpError::NoDestination)?;
                a.num_subentries = a.num_subentries.saturating_sub(1);
                delta.put_account(a);
            } else {
                if limit < tl.balance {
                    return Err(OpError::TrustLineInUse);
                }
                tl.limit = limit;
                delta.put_trustline(tl);
            }
            Ok(())
        }
        None => {
            if limit == 0 {
                return Err(OpError::Malformed);
            }
            let mut a = delta.account(source).ok_or(OpError::NoDestination)?;
            if a.available(env.base_reserve) < env.base_reserve {
                return Err(OpError::BelowReserve);
            }
            a.num_subentries += 1;
            delta.put_account(a);
            delta.put_trustline(TrustLineEntry {
                account: source,
                asset: asset.clone(),
                balance: 0,
                limit,
                // KYC: issuers with auth_required start lines unauthorized.
                authorized: !issuer_acct.flags.auth_required,
            });
            Ok(())
        }
    }
}

fn apply_allow_trust(
    delta: &mut LedgerDelta<'_>,
    source: AccountId,
    trustor: AccountId,
    asset_code: &str,
    authorize: bool,
) -> OpResult {
    let issuer_acct = delta.account(source).ok_or(OpError::NoDestination)?;
    let asset = Asset::Issued {
        issuer: source,
        code: AssetCode::new(asset_code),
    };
    let mut tl = delta
        .trustline(trustor, &asset)
        .ok_or(OpError::NoTrustLine)?;
    if !authorize && !issuer_acct.flags.auth_revocable {
        return Err(OpError::NotIssuer);
    }
    tl.authorized = authorize;
    delta.put_trustline(tl);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::{xlm, BASE_RESERVE};
    use crate::store::LedgerStore;
    use stellar_crypto::sign::PublicKey;

    fn acct(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    fn env() -> ExecEnv {
        ExecEnv::default()
    }

    fn funded_store(ids: &[u64]) -> LedgerStore {
        let mut s = LedgerStore::new();
        for &i in ids {
            s.put_account(AccountEntry::new(acct(i), xlm(1000)));
        }
        s
    }

    #[test]
    fn native_payment_moves_balance() {
        let store = funded_store(&[1, 2]);
        let mut d = store.begin();
        let op = Operation::Payment {
            destination: acct(2),
            asset: Asset::Native,
            amount: xlm(10),
        };
        apply_operation(&mut d, acct(1), &op, &env()).unwrap();
        assert_eq!(d.account(acct(1)).unwrap().balance, xlm(990));
        assert_eq!(d.account(acct(2)).unwrap().balance, xlm(1010));
    }

    #[test]
    fn payment_respects_reserve() {
        let store = funded_store(&[1, 2]);
        let mut d = store.begin();
        let op = Operation::Payment {
            destination: acct(2),
            asset: Asset::Native,
            amount: xlm(1000),
        };
        assert_eq!(
            apply_operation(&mut d, acct(1), &op, &env()),
            Err(OpError::Underfunded)
        );
        // Leaving exactly the reserve is fine.
        let ok = Operation::Payment {
            destination: acct(2),
            asset: Asset::Native,
            amount: xlm(1000) - 2 * BASE_RESERVE,
        };
        apply_operation(&mut d, acct(1), &ok, &env()).unwrap();
    }

    #[test]
    fn issued_payment_needs_trustline_and_auth() {
        let store = funded_store(&[1, 2, 9]);
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        // Receiver has no trustline.
        let pay = Operation::Payment {
            destination: acct(2),
            asset: usd.clone(),
            amount: 10,
        };
        assert_eq!(
            apply_operation(&mut d, acct(9), &pay, &env()),
            Err(OpError::NoTrustLine)
        );
        // Open a trustline, then the issuer can mint to it.
        let trust = Operation::ChangeTrust {
            asset: usd.clone(),
            limit: 100,
        };
        apply_operation(&mut d, acct(2), &trust, &env()).unwrap();
        apply_operation(&mut d, acct(9), &pay, &env()).unwrap();
        assert_eq!(d.trustline(acct(2), &usd).unwrap().balance, 10);
        // Over the limit fails.
        let big = Operation::Payment {
            destination: acct(2),
            asset: usd.clone(),
            amount: 95,
        };
        assert_eq!(
            apply_operation(&mut d, acct(9), &big, &env()),
            Err(OpError::LineFull)
        );
    }

    #[test]
    fn kyc_auth_required_flow() {
        let store = funded_store(&[1, 2, 9]);
        let mut d = store.begin();
        // Issuer requires authorization (KYC).
        let setopt = Operation::SetOptions {
            auth_required: Some(true),
            auth_revocable: Some(true),
            master_weight: None,
            low_threshold: None,
            medium_threshold: None,
            high_threshold: None,
            signer: None,
        };
        apply_operation(&mut d, acct(9), &setopt, &env()).unwrap();
        let usd = Asset::issued(acct(9), "USD");
        apply_operation(
            &mut d,
            acct(2),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: 100,
            },
            &env(),
        )
        .unwrap();
        // Unauthorized line cannot receive.
        let pay = Operation::Payment {
            destination: acct(2),
            asset: usd.clone(),
            amount: 10,
        };
        assert_eq!(
            apply_operation(&mut d, acct(9), &pay, &env()),
            Err(OpError::NotAuthorized)
        );
        // Issuer authorizes (photo ID checked!), then payment flows.
        let allow = Operation::AllowTrust {
            trustor: acct(2),
            asset_code: "USD".into(),
            authorize: true,
        };
        apply_operation(&mut d, acct(9), &allow, &env()).unwrap();
        apply_operation(&mut d, acct(9), &pay, &env()).unwrap();
        // And can revoke (auth_revocable set).
        let revoke = Operation::AllowTrust {
            trustor: acct(2),
            asset_code: "USD".into(),
            authorize: false,
        };
        apply_operation(&mut d, acct(9), &revoke, &env()).unwrap();
        assert!(!d.trustline(acct(2), &usd).unwrap().authorized);
    }

    #[test]
    fn create_account_and_merge_roundtrip() {
        let store = funded_store(&[1, 2]);
        let mut d = store.begin();
        let create = Operation::CreateAccount {
            destination: acct(3),
            starting_balance: xlm(5),
        };
        apply_operation(&mut d, acct(1), &create, &env()).unwrap();
        assert_eq!(d.account(acct(3)).unwrap().balance, xlm(5));
        assert_eq!(d.account(acct(1)).unwrap().balance, xlm(995));
        // "it is possible to reclaim the entire value of an account by
        // deleting it with an AccountMerge operation." (§5.1)
        let merge = Operation::AccountMerge {
            destination: acct(2),
        };
        apply_operation(&mut d, acct(3), &merge, &env()).unwrap();
        assert!(d.account(acct(3)).is_none());
        assert_eq!(d.account(acct(2)).unwrap().balance, xlm(1005));
    }

    #[test]
    fn create_account_rejects_duplicates_and_dust() {
        let store = funded_store(&[1, 2]);
        let mut d = store.begin();
        let dup = Operation::CreateAccount {
            destination: acct(2),
            starting_balance: xlm(5),
        };
        assert_eq!(
            apply_operation(&mut d, acct(1), &dup, &env()),
            Err(OpError::AccountExists)
        );
        let dust = Operation::CreateAccount {
            destination: acct(3),
            starting_balance: BASE_RESERVE,
        };
        assert_eq!(
            apply_operation(&mut d, acct(1), &dust, &env()),
            Err(OpError::BelowReserve)
        );
    }

    #[test]
    fn merge_with_subentries_fails() {
        let store = funded_store(&[1, 9]);
        let mut d = store.begin();
        let usd = Asset::issued(acct(9), "USD");
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ChangeTrust {
                asset: usd,
                limit: 10,
            },
            &env(),
        )
        .unwrap();
        let merge = Operation::AccountMerge {
            destination: acct(9),
        };
        assert_eq!(
            apply_operation(&mut d, acct(1), &merge, &env()),
            Err(OpError::HasSubEntries)
        );
    }

    #[test]
    fn manage_data_lifecycle() {
        let store = funded_store(&[1]);
        let mut d = store.begin();
        let put = Operation::ManageData {
            name: "k".into(),
            value: Some(vec![1, 2]),
        };
        apply_operation(&mut d, acct(1), &put, &env()).unwrap();
        assert_eq!(d.data(acct(1), "k").unwrap().value, vec![1, 2]);
        assert_eq!(d.account(acct(1)).unwrap().num_subentries, 1);
        let update = Operation::ManageData {
            name: "k".into(),
            value: Some(vec![3]),
        };
        apply_operation(&mut d, acct(1), &update, &env()).unwrap();
        assert_eq!(d.account(acct(1)).unwrap().num_subentries, 1);
        let del = Operation::ManageData {
            name: "k".into(),
            value: None,
        };
        apply_operation(&mut d, acct(1), &del, &env()).unwrap();
        assert!(d.data(acct(1), "k").is_none());
        assert_eq!(d.account(acct(1)).unwrap().num_subentries, 0);
        // Deleting a missing entry is malformed.
        assert_eq!(
            apply_operation(&mut d, acct(1), &del, &env()),
            Err(OpError::Malformed)
        );
    }

    #[test]
    fn change_trust_lifecycle() {
        let store = funded_store(&[1, 9]);
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: 50,
            },
            &env(),
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(9),
            &Operation::Payment {
                destination: acct(1),
                asset: usd.clone(),
                amount: 20,
            },
            &env(),
        )
        .unwrap();
        // Cannot drop the limit below the balance or delete while in use.
        assert_eq!(
            apply_operation(
                &mut d,
                acct(1),
                &Operation::ChangeTrust {
                    asset: usd.clone(),
                    limit: 10
                },
                &env()
            ),
            Err(OpError::TrustLineInUse)
        );
        assert_eq!(
            apply_operation(
                &mut d,
                acct(1),
                &Operation::ChangeTrust {
                    asset: usd.clone(),
                    limit: 0
                },
                &env()
            ),
            Err(OpError::TrustLineInUse)
        );
        // Send it back, then delete.
        apply_operation(
            &mut d,
            acct(1),
            &Operation::Payment {
                destination: acct(9),
                asset: usd.clone(),
                amount: 20,
            },
            &env(),
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: 0,
            },
            &env(),
        )
        .unwrap();
        assert!(d.trustline(acct(1), &usd).is_none());
    }

    #[test]
    fn manage_offer_rests_and_fills() {
        let store = funded_store(&[1, 2, 9]);
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        // Account 1 holds USD and offers it for XLM.
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: xlm(100),
            },
            &env(),
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(9),
            &Operation::Payment {
                destination: acct(1),
                asset: usd.clone(),
                amount: 100,
            },
            &env(),
        )
        .unwrap();
        let sell = Operation::ManageOffer {
            offer_id: 0,
            selling: usd.clone(),
            buying: Asset::Native,
            amount: 100,
            price: Price::new(2, 1),
            passive: false,
        };
        apply_operation(&mut d, acct(1), &sell, &env()).unwrap();
        assert_eq!(
            d.offers_page(&usd, &Asset::Native, None, usize::MAX).len(),
            1
        );

        // Account 2 buys USD by selling XLM; needs a trustline first.
        apply_operation(
            &mut d,
            acct(2),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: xlm(100),
            },
            &env(),
        )
        .unwrap();
        let buy = Operation::ManageOffer {
            offer_id: 0,
            selling: Asset::Native,
            buying: usd.clone(),
            amount: 100,
            price: Price::new(1, 2),
            passive: false,
        };
        apply_operation(&mut d, acct(2), &buy, &env()).unwrap();
        // 100 XLM bought 50 USD at 2 XLM/USD.
        assert_eq!(d.trustline(acct(2), &usd).unwrap().balance, 50);
        assert_eq!(d.trustline(acct(1), &usd).unwrap().balance, 50);
        assert_eq!(d.account(acct(2)).unwrap().balance, xlm(1000) - 100);
        assert_eq!(d.account(acct(1)).unwrap().balance, xlm(1000) + 100);
    }

    #[test]
    fn manage_offer_update_and_delete() {
        let store = funded_store(&[1, 9]);
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: 1000,
            },
            &env(),
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(9),
            &Operation::Payment {
                destination: acct(1),
                asset: usd.clone(),
                amount: 500,
            },
            &env(),
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ManageOffer {
                offer_id: 0,
                selling: usd.clone(),
                buying: Asset::Native,
                amount: 100,
                price: Price::new(2, 1),
                passive: false,
            },
            &env(),
        )
        .unwrap();
        let book = d.offers_page(&usd, &Asset::Native, None, usize::MAX);
        let id = book[0].id;
        // Update amount.
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ManageOffer {
                offer_id: id,
                selling: usd.clone(),
                buying: Asset::Native,
                amount: 40,
                price: Price::new(3, 1),
                passive: false,
            },
            &env(),
        )
        .unwrap();
        let offer = d.offer(id).unwrap();
        assert_eq!(offer.amount, 40);
        assert_eq!(offer.price, Price::new(3, 1));
        // Delete.
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ManageOffer {
                offer_id: id,
                selling: usd.clone(),
                buying: Asset::Native,
                amount: 0,
                price: Price::new(1, 1),
                passive: false,
            },
            &env(),
        )
        .unwrap();
        assert!(d.offer(id).is_none());
        assert_eq!(d.account(acct(1)).unwrap().num_subentries, 1); // just the trustline
                                                                   // Deleting again: NoOffer.
        assert_eq!(
            apply_operation(
                &mut d,
                acct(1),
                &Operation::ManageOffer {
                    offer_id: id,
                    selling: usd,
                    buying: Asset::Native,
                    amount: 0,
                    price: Price::new(1, 1),
                    passive: false,
                },
                &env()
            ),
            Err(OpError::NoOffer)
        );
    }

    #[test]
    fn offer_without_funds_fails() {
        let store = funded_store(&[1, 9]);
        let usd = Asset::issued(acct(9), "USD");
        let mut d = store.begin();
        apply_operation(
            &mut d,
            acct(1),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: 1000,
            },
            &env(),
        )
        .unwrap();
        let sell = Operation::ManageOffer {
            offer_id: 0,
            selling: usd,
            buying: Asset::Native,
            amount: 10,
            price: Price::new(1, 1),
            passive: false,
        };
        assert_eq!(
            apply_operation(&mut d, acct(1), &sell, &env()),
            Err(OpError::Underfunded)
        );
    }

    #[test]
    fn set_options_multisig() {
        let store = funded_store(&[1]);
        let mut d = store.begin();
        let add = Operation::SetOptions {
            auth_required: None,
            auth_revocable: None,
            master_weight: Some(2),
            low_threshold: Some(1),
            medium_threshold: Some(3),
            high_threshold: Some(4),
            signer: Some(crate::entry::Signer::key(PublicKey(42), 2)),
        };
        apply_operation(&mut d, acct(1), &add, &env()).unwrap();
        let a = d.account(acct(1)).unwrap();
        assert_eq!(a.thresholds.master_weight, 2);
        assert_eq!(a.thresholds.medium, 3);
        assert_eq!(a.signers.len(), 1);
        assert_eq!(a.num_subentries, 1);
        // Remove the signer with weight 0.
        let rm = Operation::SetOptions {
            auth_required: None,
            auth_revocable: None,
            master_weight: None,
            low_threshold: None,
            medium_threshold: None,
            high_threshold: None,
            signer: Some(crate::entry::Signer::key(PublicKey(42), 0)),
        };
        apply_operation(&mut d, acct(1), &rm, &env()).unwrap();
        assert!(d.account(acct(1)).unwrap().signers.is_empty());
        assert_eq!(d.account(acct(1)).unwrap().num_subentries, 0);
    }

    #[test]
    fn bump_sequence() {
        let store = funded_store(&[1]);
        let mut d = store.begin();
        apply_operation(
            &mut d,
            acct(1),
            &Operation::BumpSequence { bump_to: 77 },
            &env(),
        )
        .unwrap();
        assert_eq!(d.account(acct(1)).unwrap().seq_num, 77);
        // Bumping backwards is a no-op.
        apply_operation(
            &mut d,
            acct(1),
            &Operation::BumpSequence { bump_to: 5 },
            &env(),
        )
        .unwrap();
        assert_eq!(d.account(acct(1)).unwrap().seq_num, 77);
    }
}
