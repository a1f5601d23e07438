//! Property-based tests over core data structures and invariants.
//!
//! These cover the machine-checkable analogues of the paper's claims:
//! codec determinism (hashes well-defined across nodes), quorum-set
//! algebra (v-blocking vs. slices duality), conservation of assets in the
//! matching engine, and bucket-list/store equivalence.

use proptest::prelude::*;
use std::collections::BTreeSet;
use stellar::crypto::codec::{Decode, Encode};
use stellar::crypto::sha256::{sha256, Sha256};
use stellar::crypto::sign::PublicKey;
use stellar::ledger::amount::Price;
use stellar::ledger::entry::{AccountEntry, AccountId, LedgerEntry, LedgerKey, TrustLineEntry};
use stellar::ledger::ops::{apply_operation, ExecEnv};
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::Operation;
use stellar::ledger::Asset;
use stellar::scp::statement::{Ballot, StatementKind};
use stellar::scp::{NodeId, QuorumSet, Value};

// ---------- crypto ----------

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096), split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finish(), sha256(&data));
    }

    #[test]
    fn signatures_verify_and_bind_message(seed in 1u64..u64::MAX, msg in proptest::collection::vec(any::<u8>(), 0..256), flip in 0usize..256) {
        let kp = stellar::crypto::sign::KeyPair::from_seed(seed);
        let sig = kp.sign(&msg);
        prop_assert!(stellar::crypto::sign::verify(kp.public(), &msg, &sig));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let i = flip % tampered.len();
            tampered[i] ^= 1;
            prop_assert!(!stellar::crypto::sign::verify(kp.public(), &tampered, &sig));
        }
    }
}

// ---------- codec ----------

fn arb_asset() -> impl Strategy<Value = Asset> {
    prop_oneof![
        Just(Asset::Native),
        (any::<u64>(), "[A-Z]{1,12}")
            .prop_map(|(i, code)| { Asset::issued(AccountId(PublicKey(i)), &code) }),
    ]
}

fn arb_ledger_entry() -> impl Strategy<Value = LedgerEntry> {
    prop_oneof![
        (any::<u64>(), 0..i64::MAX / 2, any::<u64>()).prop_map(|(id, bal, seq)| {
            let mut a = AccountEntry::new(AccountId(PublicKey(id)), bal);
            a.seq_num = seq;
            LedgerEntry::Account(a)
        }),
        (
            any::<u64>(),
            arb_asset(),
            0..i64::MAX / 2,
            0..i64::MAX / 2,
            any::<bool>()
        )
            .prop_map(|(id, asset, bal, extra, auth)| {
                LedgerEntry::TrustLine(TrustLineEntry {
                    account: AccountId(PublicKey(id)),
                    asset,
                    balance: bal,
                    limit: bal.saturating_add(extra),
                    authorized: auth,
                })
            }),
    ]
}

proptest! {
    #[test]
    fn ledger_entry_codec_roundtrip(entry in arb_ledger_entry()) {
        let bytes = entry.to_bytes();
        prop_assert_eq!(LedgerEntry::from_bytes(&bytes).unwrap(), entry);
    }

    #[test]
    fn ledger_entry_decoding_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Hostile input: decode may fail, must not panic or overallocate.
        let _ = LedgerEntry::from_bytes(&bytes);
        let _ = LedgerKey::from_bytes(&bytes);
        let _ = StatementKind::from_bytes(&bytes);
        let _ = QuorumSet::from_bytes(&bytes);
    }

    #[test]
    fn statement_codec_roundtrip(n in 1u32..1000, c in 1u32..500, h in 1u32..500, bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        let v = Value::new(bytes);
        let st = StatementKind::Confirm {
            ballot: Ballot::new(n, v),
            p_n: n,
            c_n: c.min(h),
            h_n: h,
        };
        prop_assert_eq!(StatementKind::from_bytes(&st.to_bytes()).unwrap(), st);
    }
}

// ---------- quorum sets ----------

fn arb_flat_qset(max_nodes: u32) -> impl Strategy<Value = QuorumSet> {
    (2u32..=max_nodes).prop_flat_map(|n| {
        (1u32..=n).prop_map(move |t| QuorumSet::threshold_of(t, (0..n).map(NodeId).collect()))
    })
}

proptest! {
    #[test]
    fn vblocking_and_slice_duality(qset in arb_flat_qset(8), mask in any::<u8>()) {
        // For flat sets: S contains a slice ⟺ complement of S is NOT
        // v-blocking (duality of threshold and n−threshold+1).
        let members: Vec<NodeId> = qset.validators.clone();
        let s: BTreeSet<NodeId> = members.iter().enumerate()
            .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
            .map(|(_, n)| *n)
            .collect();
        let complement: BTreeSet<NodeId> = members.iter().filter(|n| !s.contains(n)).copied().collect();
        prop_assert_eq!(qset.is_quorum_slice(&s), !qset.is_v_blocking(&complement));
    }

    #[test]
    fn weights_sum_sanity(qset in arb_flat_qset(8)) {
        // Every member's weight is threshold/n; in [0,1].
        for v in &qset.validators {
            let w = qset.weight(*v);
            prop_assert!((0.0..=1.0).contains(&w));
            let expect = qset.threshold as f64 / qset.num_entries() as f64;
            prop_assert!((w - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn qset_codec_roundtrip(qset in arb_flat_qset(10)) {
        prop_assert_eq!(QuorumSet::from_bytes(&qset.to_bytes()).unwrap(), qset);
    }
}

// ---------- the quorum kernel vs. the definitions ----------

#[path = "support/fbas.rs"]
mod fbas;

mod quorum_kernel {
    use super::fbas::{random_fbas, Fbas};
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use stellar::scp::quorum::{federated_accept, federated_confirm, QuorumKernel};

    fn subset(mask: u16, universe: u32) -> BTreeSet<NodeId> {
        (0..universe)
            .filter(|i| mask >> i & 1 == 1)
            .map(NodeId)
            .collect()
    }

    /// §3.1: a non-empty set holding one slice of each of its members.
    fn is_quorum(fbas: &Fbas, set: &BTreeSet<NodeId>) -> bool {
        !set.is_empty()
            && set
                .iter()
                .all(|n| fbas.get(n).is_some_and(|q| q.is_quorum_slice(set)))
    }

    /// Some quorum inside `within` contains `node` (every subset tried).
    fn quorum_containing(fbas: &Fbas, within: &BTreeSet<NodeId>, node: NodeId) -> bool {
        let members: Vec<NodeId> = within.iter().copied().collect();
        (0u32..1 << members.len()).any(|mask| {
            let set: BTreeSet<NodeId> = (0..members.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| members[i])
                .collect();
            set.contains(&node) && is_quorum(fbas, &set)
        })
    }

    /// The maximal quorum as a naive fixpoint: drop members without a
    /// slice inside the set until nothing changes.
    fn naive_max_quorum(fbas: &Fbas, candidates: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut cur = candidates.clone();
        loop {
            let next: BTreeSet<NodeId> = cur
                .iter()
                .filter(|n| fbas.get(n).is_some_and(|q| q.is_quorum_slice(&cur)))
                .copied()
                .collect();
            if next == cur {
                return cur;
            }
            cur = next;
        }
    }

    proptest! {
        /// Random nested systems of up to 12 nodes, some referenced but
        /// never declaring, declared in random order: the kernel's maximal
        /// quorum, slice and v-blocking checks agree with the plain
        /// definitions on `QuorumSet`, and its accept/confirm agree with
        /// Fig. 1 written out over every subset.
        #[test]
        fn kernel_matches_the_definitions(
            seed in any::<u64>(),
            masks in (any::<u16>(), any::<u16>(), any::<u16>()),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (fbas, universe) = random_fbas(&mut rng);
            let mut order: Vec<(&NodeId, &QuorumSet)> = fbas.iter().collect();
            order.shuffle(&mut rng);
            let mut kernel = QuorumKernel::default();
            for (id, q) in order {
                kernel.declare(*id, q);
            }
            let (candidates, voted, accepted) =
                (subset(masks.0, universe), subset(masks.1, universe), subset(masks.2, universe));
            let bits = kernel.bits_of(&candidates);
            prop_assert_eq!(
                kernel.ids_of(&kernel.max_quorum(&bits)),
                naive_max_quorum(&fbas, &candidates)
            );
            for (id, q) in &fbas {
                let slices = kernel.slices(kernel.bit(*id).unwrap()).unwrap();
                prop_assert_eq!(slices.satisfied_by(&bits), q.is_quorum_slice(&candidates));
                prop_assert_eq!(slices.blocked_by(&bits), q.is_v_blocking(&candidates));
            }

            let node = NodeId(rng.gen_range(0..fbas.len() as u32));
            let local = kernel.compile(&fbas[&node]);
            let bit = kernel.bit(node).unwrap();
            let either: BTreeSet<NodeId> = voted.union(&accepted).copied().collect();
            // Accept: the accepters block every slice of the node, or a
            // quorum around it votes for or accepts.
            let accept_by_definition = fbas[&node].is_v_blocking(&accepted)
                || quorum_containing(&fbas, &either, node);
            let (voted, accepted_bits) = (kernel.bits_of(&voted), kernel.bits_of(&accepted));
            prop_assert_eq!(
                federated_accept(&kernel, bit, &local, &voted, &accepted_bits),
                accept_by_definition
            );
            // Confirm: a quorum around the node accepts.
            prop_assert_eq!(
                federated_confirm(&kernel, bit, &accepted_bits),
                quorum_containing(&fbas, &accepted, node)
            );
        }
    }
}

// ---------- prices & order book ----------

proptest! {
    #[test]
    fn price_conversion_bounds(n in 1u32..10_000, d in 1u32..10_000, amount in 0i64..1_000_000_000) {
        let p = Price::new(n, d);
        if let (Some(floor), Some(ceil)) = (p.convert_floor(amount), p.convert_ceil(amount)) {
            prop_assert!(floor <= ceil);
            prop_assert!(ceil - floor <= 1, "floor/ceil differ by at most 1");
            // Exactness: floor ≤ amount·n/d < floor+1.
            let exact_num = amount as i128 * n as i128;
            prop_assert!(floor as i128 * d as i128 <= exact_num);
            prop_assert!((floor as i128 + 1) * d as i128 > exact_num);
        }
    }

    #[test]
    fn price_ordering_total_and_exact(a in 1u32..1000, b in 1u32..1000, c in 1u32..1000, d in 1u32..1000) {
        let p = Price::new(a, b);
        let q = Price::new(c, d);
        let exact = (a as u64 * d as u64).cmp(&(c as u64 * b as u64));
        prop_assert_eq!(p.cmp(&q), exact);
    }
}

// Conservation: XLM payments move value but never create or destroy it.
proptest! {
    #[test]
    fn xlm_conservation_under_random_payments(
        transfers in proptest::collection::vec((0u64..5, 0u64..5, 1i64..1000), 1..40)
    ) {
        let mut store = LedgerStore::new();
        for i in 0..5u64 {
            store.put_account(AccountEntry::new(AccountId(PublicKey(i)), 1_000_000));
        }
        let total_before: i64 = (0..5u64)
            .map(|i| store.account(AccountId(PublicKey(i))).unwrap().balance)
            .sum();
        let mut delta = store.begin();
        for (from, to, amount) in transfers {
            if from == to {
                continue;
            }
            // May fail (reserve); failures must not move money either.
            let _ = apply_operation(
                &mut delta,
                AccountId(PublicKey(from)),
                &Operation::Payment {
                    destination: AccountId(PublicKey(to)),
                    asset: Asset::Native,
                    amount,
                },
                &ExecEnv::default(),
            );
        }
        let ch = delta.into_changes();
        store.commit(ch);
        let total_after: i64 = (0..5u64)
            .map(|i| store.account(AccountId(PublicKey(i))).unwrap().balance)
            .sum();
        prop_assert_eq!(total_before, total_after);
    }
}

// ---------- bucket list ----------

proptest! {
    #[test]
    fn bucket_list_agrees_with_reference_map(
        ops in proptest::collection::vec((0u64..30, any::<bool>(), 1i64..1000), 1..120)
    ) {
        use std::collections::BTreeMap;
        let mut bl = stellar::buckets::BucketList::new();
        let mut reference: BTreeMap<u64, i64> = BTreeMap::new();
        for (seq0, (key, delete, balance)) in ops.into_iter().enumerate() {
            let seq = seq0 as u64 + 1;
            let id = AccountId(PublicKey(key));
            let change = if delete {
                reference.remove(&key);
                (LedgerKey::Account(id), None)
            } else {
                reference.insert(key, balance);
                (LedgerKey::Account(id), Some(LedgerEntry::Account(AccountEntry::new(id, balance))))
            };
            bl.add_batch(seq, &[change]);
        }
        let state = bl.reconstruct_state();
        prop_assert_eq!(state.len(), reference.len());
        for e in state {
            match e {
                LedgerEntry::Account(a) => {
                    prop_assert_eq!(reference.get(&a.id.0 .0).copied(), Some(a.balance));
                }
                other => prop_assert!(false, "unexpected entry {:?}", other),
            }
        }
    }
}

// ---------- statement semantics (the ballot-protocol vote algebra) ----------

proptest! {
    // prepare implication is downward-closed: a statement that accepts
    // prepare⟨n,x⟩ accepts every prepare⟨n′,x⟩ with n′ ≤ n.
    #[test]
    fn accepts_prepare_downward_closed(
        bn in 1u32..100, pn in 1u32..100, probe in 1u32..100,
    ) {
        let x = Value::new(b"x".to_vec());
        let st = StatementKind::Prepare {
            ballot: Ballot::new(bn.max(pn), x.clone()),
            prepared: Some(Ballot::new(pn, x.clone())),
            prepared_prime: None,
            c_n: 0,
            h_n: 0,
        };
        let b = Ballot::new(probe, x.clone());
        if st.accepts_prepare(&b) {
            for lower in 1..probe {
                prop_assert!(st.accepts_prepare(&Ballot::new(lower, x.clone())));
            }
        }
    }

    // Commit votes from a Prepare statement lie exactly in [c_n, h_n].
    #[test]
    fn prepare_commit_votes_are_interval(
        c in 1u32..50, span in 0u32..50, probe in 1u32..120,
    ) {
        let x = Value::new(b"x".to_vec());
        let h = c + span;
        let st = StatementKind::Prepare {
            ballot: Ballot::new(h, x.clone()),
            prepared: Some(Ballot::new(h, x.clone())),
            prepared_prime: None,
            c_n: c,
            h_n: h,
        };
        let b = Ballot::new(probe, x.clone());
        prop_assert_eq!(st.votes_commit(&b), (c..=h).contains(&probe));
        // Never votes commit for a different value.
        let y = Ballot::new(probe, Value::new(b"y".to_vec()));
        prop_assert!(!st.votes_commit(&y));
    }

    // Confirm statements accept commits exactly in [c_n, h_n] and vote
    // for everything at or above c_n.
    #[test]
    fn confirm_commit_semantics_consistent(
        c in 1u32..50, span in 0u32..50, probe in 1u32..120,
    ) {
        let x = Value::new(b"x".to_vec());
        let h = c + span;
        let st = StatementKind::Confirm {
            ballot: Ballot::new(h, x.clone()),
            p_n: h,
            c_n: c,
            h_n: h,
        };
        let b = Ballot::new(probe, x.clone());
        prop_assert_eq!(st.accepts_commit(&b), (c..=h).contains(&probe));
        prop_assert_eq!(st.votes_commit(&b), probe >= c);
        // accept ⊆ vote.
        if st.accepts_commit(&b) {
            prop_assert!(st.votes_commit(&b));
        }
    }

    // is_newer_than is a strict partial order on Prepare statements:
    // irreflexive and antisymmetric.
    #[test]
    fn statement_newness_is_strict(
        b1 in 1u32..20, b2 in 1u32..20, h1 in 0u32..20, h2 in 0u32..20,
    ) {
        let x = Value::new(b"x".to_vec());
        let mk = |b: u32, h: u32| StatementKind::Prepare {
            ballot: Ballot::new(b, x.clone()),
            prepared: None,
            prepared_prime: None,
            c_n: 0,
            h_n: h,
        };
        let s1 = mk(b1, h1);
        let s2 = mk(b2, h2);
        prop_assert!(!s1.is_newer_than(&s1));
        prop_assert!(!(s1.is_newer_than(&s2) && s2.is_newer_than(&s1)));
    }
}

// ---------- bucket list: deep spills ----------

#[test]
fn deep_spills_keep_state_and_hash_stable() {
    use stellar::buckets::BucketList;
    // 600 ledgers pushes entries through levels 0..4 (spills at 4, 16,
    // 64, 256); the reconstruction must stay exact throughout.
    let mut bl = BucketList::new();
    let mut reference = std::collections::BTreeMap::new();
    for seq in 1..=600u64 {
        let key = seq % 37;
        let id = AccountId(PublicKey(key));
        let entry = LedgerEntry::Account(AccountEntry::new(id, seq as i64));
        reference.insert(key, seq as i64);
        bl.add_batch(seq, &[(LedgerKey::Account(id), Some(entry))]);
    }
    let state = bl.reconstruct_state();
    assert_eq!(state.len(), reference.len());
    for e in state {
        match e {
            LedgerEntry::Account(a) => {
                assert_eq!(reference.get(&(a.id.0 .0)).copied(), Some(a.balance));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Hash is reproducible from an identical rebuild.
    let mut rebuilt = BucketList::new();
    for seq in 1..=600u64 {
        let key = seq % 37;
        let id = AccountId(PublicKey(key));
        let entry = LedgerEntry::Account(AccountEntry::new(id, seq as i64));
        rebuilt.add_batch(seq, &[(LedgerKey::Account(id), Some(entry))]);
    }
    assert_eq!(bl.hash(), rebuilt.hash());
}

// ---------- order-book index vs. naive scan ----------

/// Reference implementation: filter every live offer for the pair, sort
/// by (price, id). The store's index must agree with this bit for bit.
fn naive_book(
    offers: &std::collections::BTreeMap<u64, stellar::ledger::entry::OfferEntry>,
    selling: &Asset,
    buying: &Asset,
) -> Vec<u64> {
    let mut v: Vec<&stellar::ledger::entry::OfferEntry> = offers
        .values()
        .filter(|o| &o.selling == selling && &o.buying == buying)
        .collect();
    v.sort_by(|a, b| a.price.cmp(&b.price).then(a.id.cmp(&b.id)));
    v.into_iter().map(|o| o.id).collect()
}

proptest! {
    /// The indexed order book returns exactly what a naive
    /// scan-and-sort returns, for every asset pair, under random
    /// sequences of inserts, reprices, and deletes — both from the
    /// committed store and through an uncommitted delta overlay, and
    /// page by page.
    #[test]
    fn indexed_book_matches_naive_scan(
        ops in proptest::collection::vec(
            (0u8..4, any::<u64>(), 1u32..12, 1u32..12), 1..80),
    ) {
        use stellar::ledger::entry::OfferEntry;
        let owner = AccountId(PublicKey(1));
        let issuer = AccountId(PublicKey(99));
        let assets = [
            Asset::Native,
            Asset::issued(issuer, "USD"),
            Asset::issued(issuer, "EUR"),
        ];
        let pair_of = |sel: u64| -> (Asset, Asset) {
            let s = (sel % 3) as usize;
            let b = (s + 1 + (sel / 3 % 2) as usize) % 3;
            (assets[s].clone(), assets[b].clone())
        };
        let mut store = LedgerStore::new();
        // Mirror of the committed offers, keyed by id.
        let mut mirror: std::collections::BTreeMap<u64, OfferEntry> =
            std::collections::BTreeMap::new();
        for chunk in ops.chunks(5) {
            let mut pending = mirror.clone();
            let mut delta = store.begin();
            for &(kind, pick, n, d) in chunk {
                match kind {
                    // Insert a fresh offer.
                    0 | 3 => {
                        let (selling, buying) = pair_of(pick);
                        let o = OfferEntry {
                            id: delta.allocate_offer_id(),
                            account: owner,
                            selling,
                            buying,
                            amount: 10,
                            price: Price::new(n, d),
                            passive: false,
                        };
                        pending.insert(o.id, o.clone());
                        delta.put_offer(o);
                    }
                    // Reprice an existing offer.
                    1 if !pending.is_empty() => {
                        let id = *pending
                            .keys()
                            .nth(pick as usize % pending.len())
                            .unwrap();
                        let mut o = pending[&id].clone();
                        o.price = Price::new(n, d);
                        pending.insert(id, o.clone());
                        delta.put_offer(o);
                    }
                    // Delete an existing offer.
                    2 if !pending.is_empty() => {
                        let id = *pending
                            .keys()
                            .nth(pick as usize % pending.len())
                            .unwrap();
                        pending.remove(&id);
                        delta.delete_offer(id);
                    }
                    _ => {}
                }
            }
            // Mid-delta: overlay merged with base must equal the naive
            // view of the pending state.
            for s in &assets {
                for b in &assets {
                    if s == b {
                        continue;
                    }
                    let got: Vec<u64> = delta
                        .offers_page(s, b, None, usize::MAX)
                        .iter()
                        .map(|o| o.id)
                        .collect();
                    prop_assert_eq!(got, naive_book(&pending, s, b));
                    // Paging must concatenate to the same sequence.
                    let mut paged = Vec::new();
                    let mut cursor = None;
                    loop {
                        let page = delta.offers_page(s, b, cursor, 3);
                        if page.is_empty() {
                            break;
                        }
                        cursor = Some(stellar::ledger::store::book_key(
                            page.last().unwrap(),
                        ));
                        paged.extend(page.iter().map(|o| o.id));
                    }
                    prop_assert_eq!(paged, naive_book(&pending, s, b));
                }
            }
            store.commit(delta.into_changes());
            mirror = pending;
            // Committed: the base index must equal the naive view.
            for s in &assets {
                for b in &assets {
                    if s == b {
                        continue;
                    }
                    let got: Vec<u64> = store
                        .offers_page(s, b, None, usize::MAX)
                        .iter()
                        .map(|o| o.id)
                        .collect();
                    prop_assert_eq!(got, naive_book(&mirror, s, b));
                }
            }
        }
        // The id-ordered iterator sees exactly the mirrored offers.
        prop_assert_eq!(store.offers().len(), mirror.len());
    }
}

// ---------- bucket merge: merged bytes equal rebuilt bytes ----------

proptest! {
    /// A bucket produced by any chain of merges hashes identically to a
    /// bucket built from scratch with the same final contents — the slot
    /// bytes a merge copies are never stale.
    #[test]
    fn merged_bucket_hash_equals_rebuilt(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..20, any::<bool>(), 1i64..1000), 1..10),
            1..8),
    ) {
        use stellar::buckets::bucket::Bucket;
        let mut merged = Bucket::empty();
        let mut reference: std::collections::BTreeMap<u64, Option<i64>> =
            std::collections::BTreeMap::new();
        for batch in &batches {
            let changes: Vec<(LedgerKey, Option<LedgerEntry>)> = batch
                .iter()
                .map(|&(key, delete, balance)| {
                    let id = AccountId(PublicKey(key));
                    reference.insert(key, (!delete).then_some(balance));
                    (
                        LedgerKey::Account(id),
                        (!delete).then(|| {
                            LedgerEntry::Account(AccountEntry::new(id, balance))
                        }),
                    )
                })
                .collect();
            merged = merged.merge(&Bucket::from_changes(&changes), false);
        }
        let rebuilt_changes: Vec<(LedgerKey, Option<LedgerEntry>)> = reference
            .iter()
            .map(|(&key, slot)| {
                let id = AccountId(PublicKey(key));
                (
                    LedgerKey::Account(id),
                    slot.map(|b| LedgerEntry::Account(AccountEntry::new(id, b))),
                )
            })
            .collect();
        let rebuilt = Bucket::from_changes(&rebuilt_changes);
        prop_assert_eq!(merged.hash(), rebuilt.hash());
        prop_assert_eq!(merged.len(), rebuilt.len());
    }
}

// ---------- durable persistence: codec round-trips & torn writes ----------

fn arb_ledger_header() -> impl Strategy<Value = stellar::ledger::header::LedgerHeader> {
    use stellar::ledger::header::{LedgerHeader, LedgerParams};
    (
        1u64..u64::MAX / 2,
        (any::<u64>(), any::<u64>()),
        any::<u64>(),
        any::<i64>(),
        (1u32..10, 1i64..1000, 1i64..1000, 1u32..10_000),
    )
        .prop_map(|(seq, (prev, snap), close_time, fee_pool, params)| {
            let (protocol_version, base_fee, base_reserve, max_tx_set_ops) = params;
            LedgerHeader {
                ledger_seq: seq,
                prev_header_hash: sha256(&prev.to_be_bytes()),
                tx_set_hash: sha256(&snap.to_be_bytes()),
                close_time,
                results_hash: sha256(&prev.to_le_bytes()),
                snapshot_hash: sha256(&snap.to_le_bytes()),
                params: LedgerParams {
                    protocol_version,
                    base_fee,
                    base_reserve,
                    max_tx_set_ops,
                },
                fee_pool,
            }
        })
}

/// A random signed (or unsigned, or over-signed) envelope: 1–3 payments in
/// any asset, every memo kind, optional time bounds and preimages.
fn arb_envelope() -> impl Strategy<Value = stellar::ledger::TransactionEnvelope> {
    use stellar::crypto::sign::KeyPair;
    use stellar::ledger::tx::{Memo, SourcedOperation, TimeBounds, Transaction};
    let memo = prop_oneof![
        Just(Memo::None),
        "[a-z ]{0,28}".prop_map(Memo::Text),
        any::<u64>().prop_map(Memo::Id),
        any::<u64>().prop_map(|i| Memo::Hash(sha256(&i.to_be_bytes()))),
    ];
    let payments = proptest::collection::vec(
        (any::<u64>(), any::<u64>(), arb_asset(), 1i64..1_000_000),
        1..4,
    );
    let preimages = proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..3);
    (
        (1u64..1000, any::<u64>(), 1i64..100_000, 0u64..3),
        memo,
        payments,
        (0u64..3, preimages),
    )
        .prop_map(
            |((source, seq_num, fee, max_time), memo, payments, (signers, preimages))| {
                let tx = Transaction {
                    source: AccountId(PublicKey(source)),
                    seq_num,
                    fee,
                    time_bounds: (max_time > 0).then_some(TimeBounds {
                        min_time: 0,
                        max_time,
                    }),
                    memo,
                    operations: payments
                        .into_iter()
                        .map(|(op_source, dest, asset, amount)| SourcedOperation {
                            source: (op_source % 2 == 0).then_some(AccountId(PublicKey(op_source))),
                            op: Operation::Payment {
                                destination: AccountId(PublicKey(dest)),
                                asset,
                                amount,
                            },
                        })
                        .collect(),
                };
                let keys: Vec<KeyPair> = (0..signers)
                    .map(|i| KeyPair::from_seed(source + i))
                    .collect();
                let signed = stellar::ledger::TransactionEnvelope::sign(
                    tx,
                    &keys.iter().collect::<Vec<_>>(),
                );
                preimages
                    .into_iter()
                    .fold(signed, |env, p| env.with_preimage(p))
            },
        )
}

proptest! {
    /// The durable LCL record's header half survives encode → decode.
    #[test]
    fn ledger_header_codec_roundtrip(header in arb_ledger_header()) {
        use stellar::ledger::header::LedgerHeader;
        let bytes = header.to_bytes();
        let back = LedgerHeader::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.hash(), header.hash());
        prop_assert_eq!(back, header);
    }

    /// Envelope and set handles: the codec yields a *distinct* allocation
    /// that compares equal and hashes equal to the original handle, whose
    /// own clones stay the same allocation with the same memoized hash.
    #[test]
    fn tx_handles_roundtrip_into_equal_distinct_allocations(
        envs in proptest::collection::vec(arb_envelope(), 0..6),
        prev in any::<u64>(),
        base_fee_rate in 100i64..10_000,
    ) {
        use stellar::ledger::tx::{EnvelopeData, TransactionEnvelope};
        use stellar::ledger::TransactionSet;
        for env in &envs {
            let h = env.hash();
            let copy = env.clone();
            prop_assert!(std::ptr::eq::<EnvelopeData>(&**env, &*copy));
            let back = TransactionEnvelope::from_bytes(&env.to_bytes()).unwrap();
            prop_assert!(!std::ptr::eq::<EnvelopeData>(&**env, &*back));
            prop_assert_eq!(&back, env);
            prop_assert_eq!(back.hash(), h);
            prop_assert_eq!(back.tx_hash(), env.tx_hash());
            prop_assert_eq!(copy.hash(), stellar::crypto::hash_xdr(env));
        }
        let set = TransactionSet::new(sha256(&prev.to_be_bytes()), envs, base_fee_rate);
        let h = set.hash();
        let copy = set.clone();
        prop_assert_eq!(copy.txs.as_ptr(), set.txs.as_ptr());
        let back = TransactionSet::from_bytes(&set.to_bytes()).unwrap();
        prop_assert!(set.txs.is_empty() || back.txs.as_ptr() != set.txs.as_ptr());
        prop_assert_eq!(&back, &set);
        prop_assert_eq!(back.hash(), h);
        prop_assert_eq!(copy.hash(), stellar::crypto::hash_xdr(&set));
        prop_assert_eq!(back.wire_size(), set.to_bytes().len());
    }

    /// Torn-write safety: no strict prefix of a valid framed record
    /// unframes (a crash mid-write can only yield "whole record" or
    /// "detectably torn", never a silently shortened one), and a full
    /// frame always recovers its payload exactly.
    #[test]
    fn torn_frame_prefix_never_unframes(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cut in 0usize..600,
    ) {
        use stellar::persist::{frame, unframe};
        let record = frame(&payload);
        prop_assert_eq!(unframe(&record), Some(payload));
        let cut = cut % record.len(); // strict prefix: 0..len
        prop_assert_eq!(unframe(&record[..cut]), None);
    }

    /// Bit-flip safety: corrupting any single byte of a framed record
    /// makes it unreadable (the checksum pins the payload, the length
    /// prefix pins the size).
    #[test]
    fn corrupted_frame_never_unframes(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        pos in 0usize..300,
        flip in 1u8..=255,
    ) {
        use stellar::persist::{frame, unframe};
        let mut record = frame(&payload);
        let pos = pos % record.len();
        record[pos] ^= flip;
        prop_assert_eq!(unframe(&record), None);
    }
}

// ---------- layered delta vs. flat clone-per-fork model ----------

mod layered_delta {
    use super::*;
    use std::collections::BTreeMap;
    use stellar::ledger::entry::{DataEntry, OfferEntry};
    use stellar::ledger::store::{book_key, BookCursor, LedgerDelta};
    use stellar::store::{open, BackendKind, DiskConfig};

    type Base = BTreeMap<LedgerKey, LedgerEntry>;

    /// The reference model: one flat overlay whose fork clones every map
    /// and whose absorb copies the child's maps back over the parent's —
    /// what `LedgerDelta` did before it layered. Kept here, and only
    /// here, as the semantics the layered overlay must reproduce.
    #[derive(Clone)]
    struct Flat {
        overlay: BTreeMap<LedgerKey, Option<LedgerEntry>>,
        next_offer_id: u64,
    }

    impl Flat {
        fn get(&self, base: &Base, key: &LedgerKey) -> Option<LedgerEntry> {
            match self.overlay.get(key) {
                Some(slot) => slot.clone(),
                None => base.get(key).cloned(),
            }
        }

        /// Every visible offer, naive scan: base overlaid by this layer.
        fn offers(&self, base: &Base) -> Vec<OfferEntry> {
            let keys: BTreeSet<&LedgerKey> = base.keys().chain(self.overlay.keys()).collect();
            keys.into_iter()
                .filter_map(|k| match self.get(base, k) {
                    Some(LedgerEntry::Offer(o)) => Some(o),
                    _ => None,
                })
                .collect()
        }

        fn book(&self, base: &Base, selling: &Asset, buying: &Asset) -> Vec<OfferEntry> {
            let mut v = self.offers(base);
            v.retain(|o| &o.selling == selling && &o.buying == buying);
            v.sort_by_key(book_key);
            v
        }

        fn absorb(&mut self, child: Flat) {
            self.overlay.extend(child.overlay);
            self.next_offer_id = self.next_offer_id.max(child.next_offer_id);
        }
    }

    fn id(n: u64) -> AccountId {
        AccountId(PublicKey(n))
    }

    fn assets() -> [Asset; 3] {
        [
            Asset::Native,
            Asset::issued(id(99), "USD"),
            Asset::issued(id(99), "EUR"),
        ]
    }

    /// Directional pairs the generated offers rest on.
    fn pairs() -> [(Asset, Asset); 3] {
        let [xlm, usd, eur] = assets();
        [(xlm.clone(), usd.clone()), (usd.clone(), xlm), (usd, eur)]
    }

    fn get(delta: &LedgerDelta<'_>, key: &LedgerKey) -> Option<LedgerEntry> {
        match key {
            LedgerKey::Account(a) => delta.account(*a).map(LedgerEntry::Account),
            LedgerKey::TrustLine(a, asset) => {
                delta.trustline(*a, asset).map(LedgerEntry::TrustLine)
            }
            LedgerKey::Offer(o) => delta.offer(*o).map(LedgerEntry::Offer),
            LedgerKey::Data(a, name) => delta.data(*a, name).map(LedgerEntry::Data),
        }
    }

    fn put(delta: &mut LedgerDelta<'_>, flat: &mut Flat, entry: LedgerEntry) {
        flat.overlay.insert(entry.key(), Some(entry.clone()));
        match entry {
            LedgerEntry::Account(a) => delta.put_account(a),
            LedgerEntry::TrustLine(t) => delta.put_trustline(t),
            LedgerEntry::Offer(o) => delta.put_offer(o),
            LedgerEntry::Data(d) => delta.put_data(d),
        }
    }

    fn delete(delta: &mut LedgerDelta<'_>, flat: &mut Flat, key: LedgerKey) {
        match &key {
            LedgerKey::Account(a) => delta.delete_account(*a),
            LedgerKey::TrustLine(a, asset) => delta.delete_trustline(*a, asset),
            LedgerKey::Offer(o) => delta.delete_offer(*o),
            LedgerKey::Data(a, name) => delta.delete_data(*a, name),
        }
        flat.overlay.insert(key, None);
    }

    /// Every non-offer key an op can touch (offers are `1..next id`).
    fn universe() -> Vec<LedgerKey> {
        let [_, usd, eur] = assets();
        let mut keys = Vec::new();
        for a in 0..4 {
            keys.push(LedgerKey::Account(id(a)));
            keys.push(LedgerKey::TrustLine(id(a), usd.clone()));
            keys.push(LedgerKey::TrustLine(id(a), eur.clone()));
            keys.push(LedgerKey::Data(id(a), "a".into()));
            keys.push(LedgerKey::Data(id(a), "b".into()));
        }
        keys
    }

    /// One layer against its flat twin: all point reads, the full book of
    /// every pair, and every page of sizes 1..=5 from every cursor.
    fn check(delta: &LedgerDelta<'_>, flat: &Flat, base: &Base, cursors: &BTreeSet<BookCursor>) {
        for key in universe()
            .into_iter()
            .chain((1..flat.next_offer_id + 2).map(LedgerKey::Offer))
        {
            assert_eq!(get(delta, &key), flat.get(base, &key), "point read {key:?}");
        }
        for (s, b) in pairs() {
            let book = flat.book(base, &s, &b);
            assert_eq!(
                delta.offers_page(&s, &b, None, usize::MAX),
                book,
                "book {s:?}/{b:?}"
            );
            for cursor in std::iter::once(None).chain(cursors.iter().copied().map(Some)) {
                let rest: Vec<&OfferEntry> = book
                    .iter()
                    .filter(|o| cursor.is_none_or(|c| book_key(o) > c))
                    .collect();
                for size in 1..=5 {
                    let page = delta.offers_page(&s, &b, cursor, size);
                    let want: Vec<&OfferEntry> = rest.iter().copied().take(size).collect();
                    assert_eq!(
                        page.iter().collect::<Vec<_>>(),
                        want,
                        "page {cursor:?}+{size}"
                    );
                }
            }
        }
    }

    type RawOp = (u8, u64, u32, u32);

    /// Applies ops to `delta` and its flat twin until they run out or
    /// this layer is closed. Returns whether the layer's writes are kept.
    /// `ancestors` re-checks every frozen layer below this one.
    fn drive(
        delta: &mut LedgerDelta<'_>,
        flat: &mut Flat,
        base: &Base,
        ops: &mut std::slice::Iter<'_, RawOp>,
        cursors: &mut BTreeSet<BookCursor>,
        depth: usize,
        ancestors: &dyn Fn(&BTreeSet<BookCursor>),
    ) -> bool {
        let [_, usd, eur] = assets();
        while let Some(&(kind, pick, n, d)) = ops.next() {
            let who = id(pick % 4);
            let pick_offer = |flat: &Flat| {
                let visible = flat.offers(base);
                (!visible.is_empty()).then(|| visible[pick as usize % visible.len()].clone())
            };
            match kind {
                0 | 1 => put(
                    delta,
                    flat,
                    LedgerEntry::Account(AccountEntry::new(who, n as i64)),
                ),
                2 => delete(delta, flat, LedgerKey::Account(who)),
                3 => {
                    let tl = TrustLineEntry {
                        account: who,
                        asset: if d % 2 == 0 { usd.clone() } else { eur.clone() },
                        balance: n as i64,
                        limit: 1_000,
                        authorized: true,
                    };
                    put(delta, flat, LedgerEntry::TrustLine(tl));
                }
                4 => {
                    let asset = if d % 2 == 0 { usd.clone() } else { eur.clone() };
                    delete(delta, flat, LedgerKey::TrustLine(who, asset));
                }
                5 => {
                    let entry = DataEntry {
                        account: who,
                        name: if d % 2 == 0 { "a" } else { "b" }.into(),
                        value: vec![n as u8],
                    };
                    put(delta, flat, LedgerEntry::Data(entry));
                }
                6 => {
                    let name = if d % 2 == 0 { "a" } else { "b" };
                    delete(delta, flat, LedgerKey::Data(who, name.into()));
                }
                7..=9 => {
                    let (selling, buying) = pairs()[pick as usize % 3].clone();
                    let offer_id = delta.allocate_offer_id();
                    assert_eq!(offer_id, flat.next_offer_id);
                    flat.next_offer_id += 1;
                    let o = OfferEntry {
                        id: offer_id,
                        account: who,
                        selling,
                        buying,
                        amount: 10,
                        price: Price::new(n, d),
                        passive: false,
                    };
                    cursors.insert(book_key(&o));
                    put(delta, flat, LedgerEntry::Offer(o));
                }
                // Reprice a visible offer (possibly to an Ord-equal,
                // field-different price such as 2/4 for 1/2).
                10 | 11 => {
                    if let Some(mut o) = pick_offer(flat) {
                        o.price = Price::new(n, d);
                        cursors.insert(book_key(&o));
                        put(delta, flat, LedgerEntry::Offer(o));
                    }
                }
                12 => {
                    if let Some(o) = pick_offer(flat) {
                        delete(delta, flat, LedgerKey::Offer(o.id));
                    }
                }
                // Delete, or reprice to n/d, a run of up to 16·n
                // consecutive positions of the deep pair's book: runs
                // longer than the lower layer's largest chunk.
                17 | 18 => {
                    let (s, b) = pairs()[0].clone();
                    let book = flat.book(base, &s, &b);
                    let start = pick as usize % book.len().max(1);
                    for mut o in book.into_iter().skip(start).take(16 * n as usize) {
                        if kind == 17 {
                            delete(delta, flat, LedgerKey::Offer(o.id));
                        } else {
                            o.price = Price::new(n, d);
                            cursors.insert(book_key(&o));
                            put(delta, flat, LedgerEntry::Offer(o));
                        }
                    }
                }
                13 | 14 if depth < 3 => {
                    let mut child_flat = flat.clone();
                    let mut child = delta.fork();
                    let here = |cursors: &BTreeSet<BookCursor>| {
                        check(delta, flat, base, cursors);
                        ancestors(cursors);
                    };
                    let keep = drive(
                        &mut child,
                        &mut child_flat,
                        base,
                        ops,
                        cursors,
                        depth + 1,
                        &here,
                    );
                    if keep {
                        let changes = child.into_changes();
                        delta.absorb(changes);
                        flat.absorb(child_flat);
                    }
                }
                15 if depth > 1 => return true,
                16 if depth > 1 => return false,
                _ => {}
            }
            check(delta, flat, base, cursors);
            ancestors(cursors);
        }
        true
    }

    /// The seeded store, with `deep` more offers on the first pair at
    /// prices that repeat and sit Ord-equal (1/1 and 2/2, 3/2 and 6/4).
    fn genesis(deep: u64) -> Vec<LedgerEntry> {
        let [_, usd, _] = assets();
        let mut entries = vec![
            LedgerEntry::Account(AccountEntry::new(id(0), 100)),
            LedgerEntry::Account(AccountEntry::new(id(1), 200)),
            LedgerEntry::TrustLine(TrustLineEntry {
                account: id(1),
                asset: usd,
                balance: 5,
                limit: 1_000,
                authorized: true,
            }),
            LedgerEntry::Data(DataEntry {
                account: id(0),
                name: "a".into(),
                value: vec![7],
            }),
        ];
        for (i, (selling, buying)) in pairs().into_iter().enumerate() {
            for k in 0..3u64 {
                entries.push(LedgerEntry::Offer(OfferEntry {
                    id: 1 + 3 * i as u64 + k,
                    account: id(1),
                    selling: selling.clone(),
                    buying: buying.clone(),
                    amount: 10,
                    price: Price::new(2 + k as u32, 2),
                    passive: false,
                }));
            }
        }
        let (selling, buying) = pairs()[0].clone();
        let prices = [(1, 1), (2, 2), (3, 2), (6, 4), (2, 1)];
        for k in 0..deep {
            let (n, d) = prices[k as usize % prices.len()];
            entries.push(LedgerEntry::Offer(OfferEntry {
                id: 10 + k,
                account: id(1),
                selling: selling.clone(),
                buying: buying.clone(),
                amount: 10,
                price: Price::new(n, d),
                passive: false,
            }));
        }
        entries
    }

    proptest! {
        /// Random put/delete/fork/absorb/discard sequences, forks nested
        /// to depth 3, over a seeded store (one pair's book deeper than a
        /// delta's largest lower-layer chunk) on the backend CI selects:
        /// after every step every live layer reads exactly what the flat
        /// clone-per-fork model reads, and each committed round leaves
        /// the store holding exactly the model's entries.
        #[test]
        fn layered_delta_matches_flat_clone_model(
            deep in 65u64..100,
            ops in proptest::collection::vec((0u8..19, any::<u64>(), 1u32..6, 1u32..6), 1..48),
        ) {
            let cfg = DiskConfig { cache_capacity: 8, ..DiskConfig::default() };
            let mut store = open(&LedgerStore::from_entries(genesis(deep)), BackendKind::from_env(), &cfg);
            let mut base: Base = genesis(deep).into_iter().map(|e| (e.key(), e)).collect();
            let mut cursors: BTreeSet<BookCursor> = base
                .values()
                .filter_map(|e| match e {
                    LedgerEntry::Offer(o) => Some(book_key(o)),
                    _ => None,
                })
                .collect();
            for (round, chunk) in ops.chunks(16).enumerate() {
                let mut flat = Flat { overlay: BTreeMap::new(), next_offer_id: store.next_offer_id() };
                let mut root = store.begin();
                drive(&mut root, &mut flat, &base, &mut chunk.iter(), &mut cursors, 1, &|_| {});
                store.commit(root.into_changes());
                prop_assert!(store.flush(round as u64 + 1));
                for (key, slot) in flat.overlay {
                    match slot {
                        Some(entry) => base.insert(key, entry),
                        None => base.remove(&key),
                    };
                }
                let committed: Base = store.all_entries().map(|e| (e.key(), e)).collect();
                prop_assert_eq!(&committed, &base);
                prop_assert_eq!(store.next_offer_id(), flat.next_offer_id);
            }
        }
    }
}

// ---------- SCP write-ahead records vs. the node's own latest statements ----------

mod scp_write_ahead {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use stellar::crypto::sign::KeyPair;
    use stellar::crypto::Hash256;
    use stellar::herder::herder::{scp_record_key, Herder, SCP_SLOT_PREFIX, SLOT_WINDOW};
    use stellar::herder::validator::{Outputs, Validator};
    use stellar::herder::SlotRecord;
    use stellar::scp::driver::TimerKind;
    use stellar::scp::{Envelope, ScpNode, SlotIndex, Statement};
    use stellar::telemetry::Json;

    /// The node whose disk is under test; the other three only keep
    /// consensus moving.
    const SUBJECT: usize = 0;

    /// Statements by write-ahead record: `(slot, is_nomination)`.
    type Records = BTreeMap<(SlotIndex, bool), Statement>;

    /// What the subject's disk must hold: `staged` is its own latest
    /// statements as of the last write-ahead attempt, `synced` as of the
    /// last attempt a successful sync has covered since.
    #[derive(Default)]
    struct Model {
        staged: Records,
        synced: Records,
    }

    struct Net {
        validators: Vec<Validator>,
        /// Envelopes in flight, `(to, envelope)`, delivered in random order.
        wire: Vec<(usize, Envelope)>,
        /// Every timer any node was handed, `(node, slot, kind,
        /// deadline)`, stale ones included: a node ignores a deadline it
        /// no longer holds armed.
        timers: Vec<(usize, SlotIndex, TimerKind, u64)>,
        triggered: BTreeMap<usize, SlotIndex>,
        now_secs: u64,
        model: Model,
        /// Every envelope any node released.
        said: Vec<Envelope>,
        /// Sets shipped so far; a shipped set reaches every node at once.
        shipped: BTreeSet<Hash256>,
    }

    fn keys(id: NodeId) -> KeyPair {
        KeyPair::from_seed(u64::from(id.0) + 1)
    }

    fn qset() -> QuorumSet {
        QuorumSet::majority((0..4).map(NodeId).collect())
    }

    impl Net {
        fn new() -> Net {
            let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
            let registry: BTreeMap<NodeId, PublicKey> =
                ids.iter().map(|id| (*id, keys(*id).public())).collect();
            let validators = ids
                .iter()
                .map(|id| {
                    Validator::new(*id, keys(*id), qset(), LedgerStore::new(), registry.clone())
                })
                .collect();
            Net {
                validators,
                wire: Vec::new(),
                timers: Vec::new(),
                triggered: BTreeMap::new(),
                now_secs: 5,
                model: Model::default(),
                said: Vec::new(),
                shipped: BTreeSet::new(),
            }
        }

        /// Runs one validator step. On the subject it also advances the
        /// model and checks the disk against it, with and without a torn
        /// write, on a clone that takes the crash.
        fn step(&mut self, i: usize, f: &dyn Fn(&mut Validator) -> Outputs) {
            let v = &mut self.validators[i];
            v.set_time_ms(self.now_secs * 1000);
            let syncs_before = v.herder.persist.stats().syncs;
            let out = f(v);
            let top = self
                .validators
                .iter()
                .map(|v| v.herder.current_slot())
                .max();
            let v = &self.validators[i];
            if i == SUBJECT {
                let released = !out.envelopes.is_empty();
                let attempted = released || !v.herder.outbox.is_empty();
                // Ledger closes inside the step sync the LCL record, and
                // with it whatever an earlier failed attempt left staged.
                let lcl_syncs = v.herder.persist.stats().syncs - syncs_before - u64::from(released);
                if lcl_syncs > 0 {
                    self.model.synced = self.model.staged.clone();
                }
                if attempted {
                    // Records of slots that left the window go; a slot
                    // dropped from RAM inside it keeps its records.
                    let keep_from = v.herder.current_slot().saturating_sub(SLOT_WINDOW);
                    self.model.staged.retain(|(slot, _), _| *slot >= keep_from);
                    let own = (keep_from..=top.unwrap_or(0))
                        .filter_map(|slot| v.scp.slot(slot))
                        .flat_map(|slot| slot.own_statements(v.id()))
                        .map(|st| ((st.slot, st.kind.is_nomination()), st));
                    self.model.staged.extend(own);
                }
                if released {
                    self.model.synced = self.model.staged.clone();
                }
                for tear in [false, true] {
                    let mut disk = v.herder.persist.clone();
                    if tear {
                        disk.tear_next_crash();
                    }
                    disk.crash();
                    check(&read_back(&disk), &self.model.synced, usize::from(tear));
                }
            }
            let timers = out.timers.into_iter();
            self.timers
                .extend(timers.map(|(slot, kind, at)| (i, slot, kind, at)));
            let sets =
                self.validators[i].sets_to_ship(&out.envelopes, |h| self.shipped.contains(h));
            self.shipped.extend(sets.iter().map(|set| set.hash()));
            for env in out.envelopes {
                self.wire
                    .extend((0..4).filter(|to| *to != i).map(|to| (to, env.clone())));
                self.said.push(env);
            }
            // Sets travel instantly: votes that wait on a set stall
            // nomination, which is not what is under test.
            for set in sets {
                for to in (0..4).filter(|to| *to != i) {
                    self.step(to, &|v| v.receive_tx_set(set.clone()));
                }
            }
        }
    }

    /// Drives a random interleaving of trigger / receive / timeout /
    /// failing fsyncs / prune / drain.
    fn run(ops: Vec<(u8, u8)>) -> Net {
        let mut net = Net::new();
        for (op, arg) in ops {
            let arg = usize::from(arg);
            match op {
                0 => {
                    net.now_secs += 5;
                    for i in 0..4 {
                        let slot = net.validators[i].herder.current_slot();
                        if net.triggered.insert(i, slot) != Some(slot) {
                            net.step(i, &|v| v.trigger_next_ledger());
                        }
                    }
                }
                1..=5 => {
                    for _ in 0..=arg % 8 {
                        if net.wire.is_empty() {
                            break;
                        }
                        let (to, env) = net.wire.swap_remove(arg % net.wire.len());
                        net.step(to, &|v| v.receive_envelope(&env));
                    }
                }
                6 if !net.timers.is_empty() => {
                    let (i, slot, kind, at) = net.timers.swap_remove(arg % net.timers.len());
                    net.now_secs += 1;
                    let v = &mut net.validators[i];
                    if v.herder.armed.get(&(slot, kind)) == Some(&at) {
                        net.step(i, &|v| {
                            v.on_timer(slot, kind, at).expect("an armed deadline fires")
                        });
                    } else {
                        let before = fingerprint(v);
                        assert!(
                            v.on_timer(slot, kind, at).is_none(),
                            "a stale deadline is ignored"
                        );
                        assert_eq!(fingerprint(v), before, "a stale deadline changes nothing");
                    }
                }
                6 => {}
                7 => net.validators[SUBJECT]
                    .herder
                    .persist
                    .fail_next_fsyncs(1 + arg as u32 % 3),
                8 => net.step(SUBJECT, &|v| {
                    let current = v.herder.current_slot();
                    v.scp
                        .prune_slots_below(current.saturating_sub(arg as u64 % 3));
                    v.drain_outputs()
                }),
                _ => net.step(SUBJECT, &|v| v.drain_outputs()),
            }
        }
        net
    }

    /// What firing a timer could change on a validator: its armed
    /// timers, outbox, slot records, registry (every protocol event
    /// bumps a counter), disk and own statements.
    type Fingerprint = (
        BTreeMap<(SlotIndex, TimerKind), u64>,
        usize,
        BTreeMap<SlotIndex, SlotRecord>,
        Json,
        u64,
        Vec<Statement>,
    );

    fn fingerprint(v: &Validator) -> Fingerprint {
        let own = (0..=v.herder.current_slot() + 1)
            .filter_map(|slot| v.scp.slot(slot))
            .flat_map(|slot| slot.own_statements(v.id()))
            .collect();
        let disk = v.herder.persist.stats().bytes_written;
        (
            v.herder.armed.clone(),
            v.herder.outbox.len(),
            v.herder.slot_records.clone(),
            v.herder.telemetry.registry.snapshot(),
            disk,
            own,
        )
    }

    /// Every readable `scp/` record on `disk`, by record.
    fn read_back(disk: &stellar::persist::DurableStore) -> Records {
        disk.keys_with_prefix(SCP_SLOT_PREFIX)
            .into_iter()
            .filter_map(|key| {
                let st = Envelope::from_bytes(&disk.read(&key)?)
                    .expect("decodes")
                    .statement;
                assert_eq!(key, scp_record_key(st.slot, st.kind.is_nomination()));
                Some(((st.slot, st.kind.is_nomination()), st))
            })
            .collect()
    }

    /// `back` is `expected` less at most `may_lose` records.
    fn check(back: &Records, expected: &Records, may_lose: usize) {
        for (record, st) in back {
            assert_eq!(expected.get(record), Some(st), "record {record:?} on disk");
        }
        let lost = expected.len() - back.len();
        assert!(lost <= may_lose, "{lost} records lost, {may_lose} allowed");
    }

    proptest! {
        /// The disk holds what we said: after any interleaving of
        /// propose / receive / timeout / prune / drain with failing
        /// fsyncs, a crash leaves exactly the node's own latest
        /// statements on the slots in its window as of the last
        /// successful sync — less the one torn record when the crash
        /// tears a write.
        #[test]
        fn durable_records_equal_own_statements_at_last_successful_sync(
            ops in proptest::collection::vec((0u8..10, any::<u8>()), 60..220),
            tear in any::<bool>(),
        ) {
            let mut net = run(ops);
            // The real thing: the subject's own disk takes the crash and
            // its recovery path reads the records back.
            let subject = &mut net.validators[SUBJECT];
            if tear {
                subject.herder.persist.tear_next_crash();
            }
            subject.herder.persist.crash();
            let recovered: Records = subject
                .herder
                .recover_scp_envelopes(0)
                .into_iter()
                .map(|env| ((env.statement.slot, env.statement.kind.is_nomination()), env.statement))
                .collect();
            check(&recovered, &net.model.synced, usize::from(tear));
            prop_assert!(subject.herder.persist.stats().syncs > 0);
        }

        /// Restore is exact: for every statement any node emits, a fresh
        /// slot restored from it builds the identical statement, so the
        /// node's next emission after a restart can only be newer.
        #[test]
        fn a_slot_restored_from_an_own_statement_rebuilds_it(
            ops in proptest::collection::vec((0u8..10, any::<u8>()), 60..220),
        ) {
            let net = run(ops);
            prop_assert!(!net.said.is_empty());
            let mut driver = Herder::new(NodeId(0), LedgerStore::new(), BTreeMap::new());
            for env in &net.said {
                let st = &env.statement;
                let mut node = ScpNode::new(st.node, keys(st.node), qset());
                prop_assert_eq!(node.restore(&mut driver, std::slice::from_ref(st)), 1);
                let rebuilt = node.slot(st.slot).map(|slot| slot.own_statements(st.node));
                prop_assert_eq!(rebuilt, Some(vec![st.clone()]));
            }
            prop_assert!(driver.outbox.is_empty(), "restoring emits nothing");
        }
    }
}
