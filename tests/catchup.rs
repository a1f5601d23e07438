//! Catch-up integration: bootstrapping a new node from the history
//! archive (paper §5.4: "The archive lets new nodes bootstrap themselves
//! when joining the network").
//!
//! The flow mirrors production: fetch the latest checkpoint ≤ target,
//! rebuild state from the checkpointed buckets, then replay archived
//! transaction sets up to the target ledger, verifying header hashes.

use stellar::buckets::{BucketList, HistoryArchive};
use stellar::crypto::sign::KeyPair;
use stellar::crypto::Hash256;
use stellar::ledger::amount::{xlm, BASE_FEE};
use stellar::ledger::apply::close_ledger;
use stellar::ledger::entry::{AccountEntry, AccountId};
use stellar::ledger::header::{LedgerHeader, LedgerParams};
use stellar::ledger::sigcache::SigVerifyCache;
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::txset::TransactionSet;
use stellar::ledger::Asset;

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0xCA7C + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn payment(from: u64, to: u64, seq_num: u64, amount: i64, memo: Memo) -> TransactionEnvelope {
    TransactionEnvelope::sign(
        Transaction {
            source: acct(from),
            seq_num,
            fee: BASE_FEE,
            time_bounds: None,
            memo,
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::Payment {
                    destination: acct(to),
                    asset: Asset::Native,
                    amount,
                },
            }],
        },
        &[&keys(from)],
    )
}

/// Runs a single-node chain for `n_ledgers`, publishing to an archive.
fn run_chain(n_ledgers: u64) -> (LedgerStore, LedgerHeader, BucketList, HistoryArchive) {
    let mut store = LedgerStore::new();
    for i in 0..4 {
        store.put_account(AccountEntry::new(acct(i), xlm(10_000)));
    }
    let mut buckets = BucketList::seed(store.all_entries());
    let mut header = LedgerHeader::genesis(buckets.hash());
    let mut archive = HistoryArchive::new();
    let mut seqs = std::collections::HashMap::new();

    for l in 0..n_ledgers {
        // One payment per ledger, round-robin.
        let from = l % 4;
        let to = (l + 1) % 4;
        let seq = seqs.entry(from).and_modify(|s| *s += 1).or_insert(1);
        let env = payment(from, to, *seq, 100 + l as i64, Memo::Id(l));
        let set = TransactionSet::assemble(header.hash(), vec![env], 100);
        let res = close_ledger(
            &mut store,
            &header,
            &set,
            100 + l,
            LedgerParams::default(),
            &mut SigVerifyCache::disabled(),
        );
        assert!(
            res.results[0].is_success(),
            "ledger {l}: {:?}",
            res.results[0]
        );
        buckets.add_batch(res.header.ledger_seq, &res.changes);
        header = res.header;
        header.snapshot_hash = buckets.hash();
        archive.publish(&header, &set, &mut buckets);
    }
    (store, header, buckets, archive)
}

#[test]
fn new_node_bootstraps_from_checkpoint_and_replays() {
    let target = 130u64; // past two checkpoints (64, 128)
    let (live_store, live_header, mut live_buckets, archive) = run_chain(target);

    // --- the new node ---
    let cp = archive
        .latest_checkpoint_at(live_header.ledger_seq)
        .expect("checkpoint");
    assert_eq!(cp.header.ledger_seq, 128);

    // 1. Rebuild buckets from archived blobs… the checkpoint stores level
    //    hashes; verify all blobs exist (content-addressed storage).
    for h in &cp.bucket_hashes {
        assert!(
            archive.bucket_blob(h).is_some(),
            "bucket blob {h} must be archived"
        );
    }

    // 2. For state, reconstruct from the live bucket list (same data the
    //    blobs encode) and check it matches the checkpoint-time chain by
    //    replaying the remaining ledgers.
    //    Replay from the checkpoint: we need checkpoint-time state, which
    //    we reconstruct by replaying the whole archive from genesis — the
    //    archive contains every tx set, so a full replay is also a valid
    //    (slower) catch-up mode, and exercises determinism end to end.
    let mut store = LedgerStore::new();
    for i in 0..4 {
        store.put_account(AccountEntry::new(acct(i), xlm(10_000)));
    }
    let mut buckets = BucketList::seed(store.all_entries());
    let mut header = LedgerHeader::genesis(buckets.hash());
    for seq in 2..=live_header.ledger_seq {
        let set = archive.tx_set(seq).expect("archived tx set");
        let expected = archive.header(seq).expect("archived header").clone();
        let res = close_ledger(
            &mut store,
            &header,
            &set,
            expected.close_time,
            expected.params,
            &mut SigVerifyCache::disabled(),
        );
        buckets.add_batch(res.header.ledger_seq, &res.changes);
        header = res.header;
        header.snapshot_hash = buckets.hash();
        assert_eq!(
            header.hash(),
            expected.hash(),
            "replayed header {seq} must match archive"
        );
    }

    // 3. Final state must equal the live node's, bit for bit.
    assert_eq!(header.hash(), live_header.hash());
    assert_eq!(buckets.hash(), live_buckets.hash());
    for i in 0..4 {
        assert_eq!(
            store.account(acct(i)).unwrap(),
            live_store.account(acct(i)).unwrap(),
            "account {i} state must match"
        );
    }
}

#[test]
fn bucket_state_reconstruction_matches_store() {
    let (live_store, _, live_buckets, _) = run_chain(40);
    // A node that only downloaded buckets can rebuild the full entry set.
    let rebuilt = LedgerStore::from_entries(live_buckets.reconstruct_state());
    assert_eq!(rebuilt.account_count(), live_store.account_count());
    for i in 0..4 {
        assert_eq!(rebuilt.account(acct(i)), live_store.account(acct(i)));
    }
}

/// The levels whose hashes differ between two lists: what reconciliation
/// after a disconnect downloads.
fn diff_levels(a: &mut BucketList, b: &mut BucketList) -> Vec<usize> {
    let (a, b) = (a.level_hashes(), b.level_hashes());
    (0..a.len()).filter(|&i| a[i] != b[i]).collect()
}

#[test]
fn reconciliation_downloads_only_differing_levels() {
    let (_, _, mut a, _) = run_chain(70);
    let (_, _, mut b, _) = run_chain(70);
    assert!(
        diff_levels(&mut a, &mut b).is_empty(),
        "identical histories, identical buckets"
    );

    let (_, _, mut c, _) = run_chain(75);
    let diff = diff_levels(&mut a, &mut c);
    assert!(!diff.is_empty());
    assert!(
        diff.len() < stellar::buckets::bucket_list::NUM_LEVELS,
        "only hot levels differ: {diff:?}"
    );
}

/// The genesis store `run_chain` starts from (a rebooted node's durable
/// starting point).
fn chain_genesis_store() -> LedgerStore {
    let mut store = LedgerStore::new();
    for i in 0..4 {
        store.put_account(AccountEntry::new(acct(i), xlm(10_000)));
    }
    store
}

/// A rebooted node: a herder over nothing but that genesis store.
fn genesis_herder() -> stellar::herder::Herder {
    stellar::herder::Herder::new(
        stellar::scp::NodeId(0),
        chain_genesis_store(),
        std::collections::BTreeMap::new(),
    )
}

#[test]
fn restart_on_checkpoint_boundary_replays_cleanly() {
    // 63 closes on top of genesis (seq 1) put the tip at seq 64 — exactly
    // a checkpoint boundary, the trickiest restart point: the checkpoint
    // and the latest ledger are the same record, and an off-by-one in
    // either direction re-applies or skips the boundary ledger.
    let (_, live_header, _, archive) = run_chain(63);
    assert_eq!(live_header.ledger_seq, 64);
    let cp = archive
        .latest_checkpoint_at(64)
        .expect("boundary checkpoint");
    assert_eq!(cp.header.ledger_seq, 64, "checkpoint lands on the tip");
    assert_eq!(cp.header.hash(), live_header.hash());

    let mut herder = genesis_herder();
    let replayed = herder.catch_up_from(&archive);
    assert_eq!(replayed, 63, "every post-genesis ledger replays once");
    assert_eq!(herder.header.ledger_seq, 64);
    assert_eq!(
        herder.header.hash(),
        live_header.hash(),
        "recovered tip must be bit-identical to the boundary header"
    );
    // Recovery is write-ahead too: the replayed tip is already durable.
    let lcl = herder.recover_lcl().expect("durable LCL after catch-up");
    assert_eq!(lcl.header.hash(), live_header.hash());
    // A second catch-up from the same archive is a no-op, not a re-apply.
    assert_eq!(herder.catch_up_from(&archive), 0);
    assert_eq!(herder.header.hash(), live_header.hash());
}

#[test]
fn restart_before_first_checkpoint_replays_from_genesis() {
    // A node rebooting before ledger 64 has no checkpoint to anchor on:
    // recovery must fall back to a full replay from genesis instead of
    // panicking on the missing checkpoint.
    let (_, live_header, _, archive) = run_chain(10);
    assert_eq!(live_header.ledger_seq, 11);
    assert!(
        archive
            .latest_checkpoint_at(live_header.ledger_seq)
            .is_none(),
        "no checkpoint exists yet"
    );
    assert_eq!(archive.checkpoint_count(), 0);

    let mut herder = genesis_herder();
    let replayed = herder.catch_up_from(&archive);
    assert_eq!(replayed, 10);
    assert_eq!(
        herder.header.hash(),
        live_header.hash(),
        "genesis replay must reproduce the live chain"
    );
}

/// Republishes ledgers `2..=through` of `archive`, passing each
/// transaction set through `swap` first.
fn republish(
    archive: &HistoryArchive,
    through: u64,
    swap: impl Fn(u64, &TransactionSet) -> TransactionSet,
) -> HistoryArchive {
    let mut out = HistoryArchive::new();
    let mut unused = BucketList::new(); // no checkpoint falls due below 64
    for seq in 2..=through {
        let set = swap(seq, &archive.tx_set(seq).expect("archived set"));
        out.publish(
            archive.header(seq).expect("archived header"),
            &set,
            &mut unused,
        );
    }
    out
}

#[test]
fn tampered_archive_is_refused_before_it_touches_state() {
    let (_, _, _, archive) = run_chain(10);
    // Ledger 6's set swapped for one that chains from the same parent and
    // would apply cleanly (account 2 has used sequence 1 by then) — only
    // the archived header says it is not the set consensus chose.
    let forged = TransactionSet::assemble(
        archive.header(5).unwrap().hash(),
        vec![payment(2, 3, 2, xlm(999), Memo::None)],
        100,
    );
    let tampered = republish(&archive, 11, |seq, set| {
        if seq == 6 {
            forged.clone()
        } else {
            set.clone()
        }
    });
    let verified_prefix = republish(&archive, 5, |_, set| set.clone());

    let mut victim = genesis_herder();
    assert_eq!(victim.catch_up_from(&tampered), 4, "ledgers 2..=5 verify");
    let mut reference = genesis_herder();
    assert_eq!(reference.catch_up_from(&verified_prefix), 4);

    assert_eq!(victim.header.ledger_seq, 5);
    assert_eq!(victim.header, reference.header);
    assert_eq!(
        victim.store.all_entries().collect::<Vec<_>>(),
        reference.store.all_entries().collect::<Vec<_>>(),
        "the forged set must not have reached the store"
    );
    assert_eq!(victim.buckets.hash(), reference.buckets.hash());
    assert_eq!(
        victim.telemetry.registry.counter("ledger.catchup_refused"),
        1
    );
    // The honest archive still takes the node the rest of the way.
    assert_eq!(victim.catch_up_from(&archive), 6);
    assert_eq!(victim.header.hash(), archive.header(11).unwrap().hash());
}

#[test]
fn snapshot_hash_commits_to_every_entry() {
    let (_, header_a, _, _) = run_chain(20);
    let (_, header_b, _, _) = run_chain(20);
    assert_eq!(header_a.hash(), header_b.hash(), "deterministic chain");
    // A different history ⇒ different snapshot hash.
    let (_, header_c, _, _) = run_chain(21);
    assert_ne!(header_a.snapshot_hash, header_c.snapshot_hash);
    assert_ne!(header_a.snapshot_hash, Hash256::ZERO);
}
