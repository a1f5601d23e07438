//! Wire-format golden vectors.
//!
//! Every node must serialize — and therefore hash — structures
//! identically (§5.1's snapshot hashes, §5.3's tx-set hashes, envelope
//! signatures). These pinned encodings catch accidental codec changes
//! that would silently fork a network of mixed binaries.

use stellar::crypto::codec::Encode;
use stellar::crypto::hex;
use stellar::crypto::sign::PublicKey;
use stellar::crypto::Hash256;
use stellar::ledger::amount::Price;
use stellar::ledger::entry::{AccountEntry, AccountId, LedgerEntry};
use stellar::ledger::header::{LedgerHeader, LedgerParams};
use stellar::ledger::Asset;
use stellar::scp::statement::{Ballot, StatementKind};
use stellar::scp::{NodeId, QuorumSet, Value};

#[test]
fn primitive_encodings_are_pinned() {
    assert_eq!(hex::encode(&0x0102u16.to_bytes()), "0102");
    assert_eq!(hex::encode(&1u64.to_bytes()), "0000000000000001");
    assert_eq!(hex::encode(&true.to_bytes()), "01");
    assert_eq!(hex::encode(&Some(7u8).to_bytes()), "0107");
    assert_eq!(hex::encode(&Option::<u8>::None.to_bytes()), "00");
    // Vec<u8>: u64 length prefix + raw bytes.
    assert_eq!(
        hex::encode(&vec![0xaau8, 0xbb].to_bytes()),
        "0000000000000002aabb"
    );
    assert_eq!(
        hex::encode(&"hi".to_string().to_bytes()),
        "00000000000000026869"
    );
}

#[test]
fn quorum_set_encoding_is_pinned() {
    let q = QuorumSet::threshold_of(2, vec![NodeId(1), NodeId(2), NodeId(3)]);
    assert_eq!(
        hex::encode(&q.to_bytes()),
        // threshold=2 (u32), 3 validators (u64 len + 3×u32), 0 inner sets.
        "0000000200000000000000030000000100000002000000030000000000000000"
    );
}

#[test]
fn ballot_statement_encoding_is_pinned() {
    let st = StatementKind::Externalize {
        commit: Ballot::new(4, Value::new(b"x".to_vec())),
        h_n: 6,
    };
    assert_eq!(
        hex::encode(&st.to_bytes()),
        // tag 3 (u32), counter 4 (u32), value (len 1 + 'x'), h_n 6 (u32).
        "000000030000000400000000000000017800000006"
    );
}

#[test]
fn ledger_entry_encoding_is_pinned() {
    let entry = LedgerEntry::Account(AccountEntry::new(AccountId(PublicKey(5)), 77));
    let encoded = hex::encode(&entry.to_bytes());
    assert_eq!(
        encoded,
        // tag 0, account id u64, balance i64, seq u64, subentries u32,
        // flags u8, signers (empty vec), thresholds (1,0,0,0).
        concat!(
            "00",
            "0000000000000005",
            "000000000000004d",
            "0000000000000000",
            "00000000",
            "00",
            "0000000000000000",
            "01000000",
        )
    );
}

#[test]
fn asset_and_price_encodings_are_pinned() {
    assert_eq!(hex::encode(&Asset::Native.to_bytes()), "00");
    let usd = Asset::issued(AccountId(PublicKey(9)), "USD");
    assert_eq!(
        hex::encode(&usd.to_bytes()),
        "0100000000000000090000000000000003555344"
    );
    assert_eq!(
        hex::encode(&Price::new(3, 7).to_bytes()),
        "0000000300000007"
    );
}

#[test]
fn hash_of_known_structure_is_stable() {
    // The canonical hash-of-encoding convention: changing either the
    // structure or the codec flips this value, which is exactly what it
    // guards.
    let q = QuorumSet::threshold_of(1, vec![NodeId(0)]);
    let h = stellar::crypto::hash_xdr(&q);
    assert_eq!(
        h,
        stellar::crypto::sha256::sha256(&q.to_bytes()),
        "hash_xdr must be sha256 of the deterministic encoding"
    );
    assert_ne!(h, Hash256::ZERO);
}

#[test]
fn ledger_header_encoding_is_pinned() {
    // protocol_version 1 (u32), base_fee 100 (i64), base_reserve 5_000_000
    // (i64), max_tx_set_ops 1000 (u32): 24 bytes, nothing else on the wire.
    let params = "00000001000000000000006400000000004c4b40000003e8";
    assert_eq!(hex::encode(&LedgerParams::default().to_bytes()), params);
    // seq 1 (u64), prev + tx-set hashes, close_time 0 (u64), results +
    // snapshot hashes, params, fee_pool 0 (i64).
    let g = LedgerHeader::genesis(Hash256::ZERO);
    let zero_hash = "00".repeat(32);
    assert_eq!(
        hex::encode(&g.to_bytes()),
        format!(
            "0000000000000001{zero_hash}{zero_hash}0000000000000000{zero_hash}{zero_hash}{params}0000000000000000"
        )
    );
    assert_eq!(
        hex::encode(&g.hash().0),
        "d11a41e6e016027dd46a8b55aa2ccc74233d1feafc29cdaef9547a07b7720aec"
    );
}

#[test]
fn scp_slot_record_is_pinned() {
    // What the write-ahead gate puts on the node disk for one released
    // envelope: key `scp/<slot>/<nominate|ballot>`, value =
    // frame(Envelope) — a restarted binary must read what the crashed one
    // wrote.
    use stellar::crypto::sign::KeyPair;
    use stellar::herder::herder::{scp_record_key, Herder};
    use stellar::ledger::store::LedgerStore;
    use stellar::scp::{Envelope, Statement};
    let prepare = Statement {
        node: NodeId(0),
        slot: 7,
        quorum_set: QuorumSet::threshold_of(1, vec![NodeId(0)]),
        kind: StatementKind::Prepare {
            ballot: Ballot::new(1, Value::new(b"x".to_vec())),
            prepared: None,
            prepared_prime: None,
            c_n: 0,
            h_n: 0,
        },
    };
    let envelope = Envelope::sign(prepare, &KeyPair::from_seed(0));
    let mut herder = Herder::new(NodeId(0), LedgerStore::new(), Default::default());
    assert!(herder.persist_scp(&[envelope]));
    assert_eq!(scp_record_key(7, false), "scp/7/ballot");
    assert_eq!(herder.persist.durable_len(), 1);
    let record = herder
        .persist
        .raw("scp/7/ballot")
        .expect("one record per slot and protocol");
    assert_eq!(
        hex::encode(record),
        concat!(
            // frame: payload length 79 (u64)
            "000000000000004f",
            // statement: node 0 (u32), slot 7 (u64)
            "00000000",
            "0000000000000007",
            // quorum set: threshold 1 (u32), validators [0], no inner sets
            "00000001",
            "000000000000000100000000",
            "0000000000000000",
            // PREPARE (tag 1): ballot <1, "x">, p / p' None, c_n 0, h_n 0
            "00000001",
            "000000010000000000000001",
            "78",
            "00",
            "00",
            "00000000",
            "00000000",
            // signature by node 0's key (two u64)
            "0a55ae380ef53b901e1086649654232b",
            // frame: sha256(payload)
            "9d1015ac2613e03ea0a9ea6078e1631ede5cfebc2d65e80f05ac750e93f802d4",
        )
    );
}
