//! MemBackend ≡ DiskBackend: from the same genesis, the same operation
//! sequence must yield identical reads, identical iteration, and — the
//! bar that matters for consensus — identical bucket hashes. The mem twin
//! is bulk-built from the genesis entries, the disk twin opened from it
//! the way a node is: sealed onto a fresh disk and booted through
//! recovery. The disk store runs with a tiny cache and tiny segments so
//! every sequence exercises eviction, segment rollover, and compaction.

use proptest::prelude::*;
use stellar_buckets::BucketList;
use stellar_crypto::sign::PublicKey;
use stellar_ledger::amount::Price;
use stellar_ledger::entry::{
    AccountEntry, AccountId, DataEntry, LedgerEntry, OfferEntry, TrustLineEntry,
};
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::{Asset, LedgerStore};
use stellar_store::{open, recover_node, BackendKind, DiskConfig};

fn acct(n: u64) -> AccountId {
    AccountId(PublicKey(n))
}

fn asset(n: u64) -> Asset {
    match n % 3 {
        0 => Asset::issued(acct(1000), "USD"),
        1 => Asset::issued(acct(1001), "EUR"),
        _ => Asset::issued(acct(1002), "MXN"),
    }
}

/// One abstract store operation over a small key space.
#[derive(Clone, Debug)]
enum Op {
    PutAccount(u64, i64),
    DeleteAccount(u64),
    PutTrustline(u64, u64, i64),
    DeleteTrustline(u64, u64),
    PutOffer(u64, u64, u64, i64, u32, u32),
    DeleteNthOffer(u64),
    PutData(u64, u64, u8),
    DeleteData(u64, u64),
    Commit,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12, 1i64..1_000_000).prop_map(|(a, b)| Op::PutAccount(a, b)),
        (0u64..12).prop_map(Op::DeleteAccount),
        (0u64..12, 0u64..3, 0i64..1000).prop_map(|(a, s, b)| Op::PutTrustline(a, s, b)),
        (0u64..12, 0u64..3).prop_map(|(a, s)| Op::DeleteTrustline(a, s)),
        (0u64..12, 0u64..3, 0u64..3, 1i64..500, 1u32..8, 1u32..8)
            .prop_map(|(a, s, b, amt, n, d)| Op::PutOffer(a, s, b, amt, n, d)),
        (0u64..64).prop_map(Op::DeleteNthOffer),
        (0u64..12, 0u64..4, any::<u8>()).prop_map(|(a, n, v)| Op::PutData(a, n, v)),
        (0u64..12, 0u64..4).prop_map(|(a, n)| Op::DeleteData(a, n)),
        Just(Op::Commit),
    ]
}

/// A random genesis over the same key space as the operations: accounts,
/// trust lines, offers (ids below 24, some repeated) and data entries, in
/// no particular order, a repeated key's later version winning.
fn arb_genesis() -> impl Strategy<Value = Vec<LedgerEntry>> {
    let entry = prop_oneof![
        (0u64..12, 1i64..1_000_000)
            .prop_map(|(a, b)| LedgerEntry::Account(AccountEntry::new(acct(a), b))),
        (0u64..12, 0u64..3, 0i64..1000).prop_map(|(a, s, b)| {
            LedgerEntry::TrustLine(TrustLineEntry {
                account: acct(a),
                asset: asset(s),
                balance: b,
                limit: i64::MAX / 2,
                authorized: true,
            })
        }),
        (1u64..24, 0u64..12, 0u64..3, 1u64..3, 1i64..500, 1u32..8).prop_map(
            |(id, a, s, b, amt, n)| LedgerEntry::Offer(OfferEntry {
                id,
                account: acct(a),
                selling: asset(s),
                buying: asset(s + b),
                amount: amt,
                price: Price { n, d: 3 },
                passive: false,
            })
        ),
        (0u64..12, 0u64..4, any::<u8>()).prop_map(|(a, n, v)| LedgerEntry::Data(DataEntry {
            account: acct(a),
            name: format!("k{n}"),
            value: vec![v; 4],
        })),
    ];
    proptest::collection::vec(entry, 0..40)
}

/// The mem twin and the disk twin agree on every read over the key
/// space, the offers `ids`, every book page, the counts, the offer-id
/// allocator, the order and contents of `all_entries` and the bucket
/// hash seeded from it.
fn assert_twins(mem: &LedgerStore, disk: &LedgerStore, ids: &[u64]) {
    for a in 0..12u64 {
        assert_eq!(mem.account(acct(a)), disk.account(acct(a)));
        assert_eq!(mem.trustlines_of(acct(a)), disk.trustlines_of(acct(a)));
        for s in 0..3u64 {
            assert_eq!(
                mem.trustline(acct(a), &asset(s)),
                disk.trustline(acct(a), &asset(s))
            );
        }
        for n in 0..4u64 {
            assert_eq!(
                mem.data(acct(a), &format!("k{n}")),
                disk.data(acct(a), &format!("k{n}"))
            );
        }
    }
    for id in ids {
        assert_eq!(mem.offer(*id), disk.offer(*id));
    }
    for s in 0..3u64 {
        for b in 0..3u64 {
            assert_eq!(
                mem.offers_page(&asset(s), &asset(b), None, usize::MAX),
                disk.offers_page(&asset(s), &asset(b), None, usize::MAX)
            );
        }
    }
    assert_eq!(mem.account_count(), disk.account_count());
    assert_eq!(mem.offer_count(), disk.offer_count());
    assert_eq!(mem.next_offer_id(), disk.next_offer_id());

    // Iteration order and contents must match exactly: bucket seeding
    // hashes whatever this yields.
    let mem_entries: Vec<_> = mem.all_entries().collect();
    let disk_entries: Vec<_> = disk.all_entries().collect();
    assert_eq!(&mem_entries, &disk_entries);

    // And therefore the snapshot hash — what consensus signs.
    assert_eq!(
        BucketList::seed(mem_entries).hash(),
        BucketList::seed(disk_entries).hash()
    );
}

/// Replays `ops` against a store through the delta/commit path, flushing
/// after every commit. Returns the ids of offers created, in order.
fn replay(store: &mut LedgerStore, ops: &[Op]) -> Vec<u64> {
    let mut offer_ids = Vec::new();
    let mut delta = store.begin();
    let mut seq = 0u64;
    for op in ops {
        match op {
            Op::PutAccount(a, bal) => delta.put_account(AccountEntry::new(acct(*a), *bal)),
            Op::DeleteAccount(a) => delta.delete_account(acct(*a)),
            Op::PutTrustline(a, s, bal) => delta.put_trustline(TrustLineEntry {
                account: acct(*a),
                asset: asset(*s),
                balance: *bal,
                limit: i64::MAX / 2,
                authorized: true,
            }),
            Op::DeleteTrustline(a, s) => delta.delete_trustline(acct(*a), &asset(*s)),
            Op::PutOffer(a, s, b, amt, n, d) => {
                if s % 3 == b % 3 {
                    continue; // no self-pairs
                }
                let id = delta.allocate_offer_id();
                offer_ids.push(id);
                delta.put_offer(OfferEntry {
                    id,
                    account: acct(*a),
                    selling: asset(*s),
                    buying: asset(*b),
                    amount: *amt,
                    price: Price { n: *n, d: *d },
                    passive: false,
                });
            }
            Op::DeleteNthOffer(n) => {
                if let Some(id) = offer_ids.get(*n as usize % offer_ids.len().max(1)) {
                    delta.delete_offer(*id);
                }
            }
            Op::PutData(a, n, v) => delta.put_data(DataEntry {
                account: acct(*a),
                name: format!("k{n}"),
                value: vec![*v; 4],
            }),
            Op::DeleteData(a, n) => delta.delete_data(acct(*a), &format!("k{n}")),
            Op::Commit => {
                let changes = delta.into_changes();
                store.commit(changes);
                seq += 1;
                assert!(store.flush(seq), "no fault injection in this test");
                delta = store.begin();
            }
        }
    }
    let changes = delta.into_changes();
    store.commit(changes);
    assert!(store.flush(seq + 1));
    offer_ids
}

fn tiny_disk_cfg() -> DiskConfig {
    DiskConfig {
        cache_capacity: 8,
        segment_target_bytes: 256,
        compact_dead_ratio_pct: 50,
    }
}

proptest! {
    #[test]
    fn mem_and_disk_backends_are_equivalent(
        genesis in arb_genesis(),
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let mut mem = LedgerStore::from_entries(genesis);
        let mut disk = open(&mem, BackendKind::Disk, &tiny_disk_cfg());
        prop_assert_eq!(mem.backend_name(), "mem");
        prop_assert_eq!(disk.backend_name(), "disk");
        let genesis_ids: Vec<u64> = (1..24).collect();
        assert_twins(&mem, &disk, &genesis_ids);

        let ids_mem = replay(&mut mem, &ops);
        let ids_disk = replay(&mut disk, &ops);
        prop_assert_eq!(&ids_mem, &ids_disk);
        assert_twins(&mem, &disk, &[genesis_ids, ids_mem].concat());
    }

    #[test]
    fn a_disk_crashed_right_after_open_recovers_the_same_store(genesis in arb_genesis()) {
        let template = LedgerStore::from_entries(genesis);
        let store = open(&template, BackendKind::Disk, &tiny_disk_cfg());
        let disk = store.disk().expect("a disk store has a data disk");
        let mut buckets = BucketList::seed(store.all_entries());
        buckets.attach_disk(disk.clone(), 0);
        // The data disk's genesis image is ledger 0, the sequence its
        // store and bucket manifests carry.
        let mut header = LedgerHeader::genesis(buckets.hash());
        header.ledger_seq = 0;

        disk.borrow_mut().crash();
        let (back, mut back_buckets) =
            recover_node(disk, &header, &buckets.level_hashes(), &tiny_disk_cfg())
                .expect("a synced genesis survives a crash");
        prop_assert_eq!(back_buckets.hash(), buckets.hash());
        assert_twins(&store, &back, &(1..24).collect::<Vec<u64>>());
        assert_twins(&template, &back, &(1..24).collect::<Vec<u64>>());
    }
}

#[test]
fn disk_backend_compacts_and_survives_reads() {
    // Overwrite a small key set many times: dead bytes accumulate and
    // compaction must fire without disturbing reads.
    let mut disk = open(&LedgerStore::new(), BackendKind::Disk, &tiny_disk_cfg());
    for round in 0..50u64 {
        let mut delta = disk.begin();
        for a in 0..6u64 {
            delta.put_account(AccountEntry::new(acct(a), (round * 10 + a) as i64));
        }
        let changes = delta.into_changes();
        disk.commit(changes);
        assert!(disk.flush(round + 1));
    }
    let stats = disk.io_stats();
    assert!(
        stats.compactions > 0,
        "dead-byte churn must trigger compaction"
    );
    for a in 0..6u64 {
        assert_eq!(disk.account(acct(a)).unwrap().balance, (490 + a) as i64);
    }
    assert_eq!(disk.account_count(), 6);
    // Compaction keeps disk usage proportional to live data, not churn.
    assert!(stats.segments < 8, "stale segments not retired: {stats:?}");
}
