//! Wire-format golden vectors.
//!
//! Every node must serialize — and therefore hash — structures
//! identically (§5.1's snapshot hashes, §5.3's tx-set hashes, envelope
//! signatures). These pinned encodings catch accidental codec changes
//! that would silently fork a network of mixed binaries.

use std::fmt::Debug;
use stellar::buckets::Bucket;
use stellar::crypto::codec::{Decode, DecodeError, Encode};
use stellar::crypto::hex;
use stellar::crypto::sign::PublicKey;
use stellar::crypto::Hash256;
use stellar::herder::Upgrade;
use stellar::ledger::amount::Price;
use stellar::ledger::entry::{
    AccountEntry, AccountId, DataEntry, LedgerEntry, LedgerKey, OfferEntry, Signer, SignerKey,
    TrustLineEntry,
};
use stellar::ledger::header::{LedgerHeader, LedgerParams};
use stellar::ledger::{Asset, Memo, Operation};
use stellar::scp::statement::{Ballot, StatementKind};
use stellar::scp::{NodeId, QuorumSet, Value};

/// A pinned encoding and a decoder for its type, kept for the totality
/// sweep in [`decoders_are_total`].
struct Pin {
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> Result<(), DecodeError>,
}

fn decode_as<T: Decode>(bytes: &[u8]) -> Result<(), DecodeError> {
    T::from_bytes(bytes).map(drop)
}

/// Asserts `value` encodes to `hex` and `hex` decodes back to `value`.
fn pin<T: Encode + Decode + PartialEq + Debug>(value: T, hex: &str) -> Pin {
    let bytes = hex::decode(hex).expect("pin is hex");
    assert_eq!(hex::encode(&value.to_bytes()), hex, "{value:?}");
    assert_eq!(T::from_bytes(&bytes), Ok(value));
    Pin {
        bytes,
        decode: decode_as::<T>,
    }
}

/// Asserts a blob whose tag names no variant of `T` is `BadTag(tag)`.
fn pin_bad_tag<T: Decode>(hex: &str, tag: u32) {
    let bytes = hex::decode(hex).expect("pin is hex");
    assert_eq!(T::from_bytes(&bytes).err(), Some(DecodeError::BadTag(tag)));
}

fn acct(n: u64) -> AccountId {
    AccountId(PublicKey(n))
}

fn usd() -> Asset {
    Asset::issued(acct(9), "USD")
}

fn x() -> Value {
    Value::new(b"x".to_vec())
}

fn statement_kind_pins() -> Vec<Pin> {
    pin_bad_tag::<StatementKind>("00000004", 4);
    vec![
        pin(
            StatementKind::Nominate {
                voted: [x()].into(),
                accepted: Default::default(),
            },
            "0000000000000000000000010000000000000001780000000000000000",
        ),
        pin(
            StatementKind::Prepare {
                ballot: Ballot::new(3, x()),
                prepared: Some(Ballot::new(2, x())),
                prepared_prime: None,
                c_n: 1,
                h_n: 2,
            },
            "00000001000000030000000000000001780100000002000000000000000178000000000100000002",
        ),
        pin(
            StatementKind::Confirm {
                ballot: Ballot::new(3, x()),
                p_n: 3,
                c_n: 1,
                h_n: 2,
            },
            "0000000200000003000000000000000178000000030000000100000002",
        ),
        pin(
            StatementKind::Externalize {
                commit: Ballot::new(4, x()),
                h_n: 6,
            },
            // tag 3 (u32), counter 4 (u32), value (len 1 + 'x'), h_n 6 (u32).
            "000000030000000400000000000000017800000006",
        ),
    ]
}

fn asset_pins() -> Vec<Pin> {
    pin_bad_tag::<Asset>("02", 2);
    vec![
        pin(Asset::Native, "00"),
        pin(usd(), "0100000000000000090000000000000003555344"),
    ]
}

fn account_entry() -> LedgerEntry {
    LedgerEntry::Account(AccountEntry::new(acct(5), 77))
}

fn ledger_entry_pins() -> Vec<Pin> {
    pin_bad_tag::<LedgerEntry>("04", 4);
    vec![
        pin(
            account_entry(),
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
            ),
        ),
        pin(
            LedgerEntry::TrustLine(TrustLineEntry {
                account: acct(5),
                asset: usd(),
                balance: 10,
                limit: 100,
                authorized: true,
            }),
            "0100000000000000050100000000000000090000000000000003555344000000000000000a000000000000006401",
        ),
        pin(
            LedgerEntry::Offer(OfferEntry {
                id: 6,
                account: acct(5),
                selling: usd(),
                buying: Asset::Native,
                amount: 8,
                price: Price::new(3, 2),
                passive: false,
            }),
            "02000000000000000600000000000000050100000000000000090000000000000003555344000000000000000008000000030000000200",
        ),
        pin(
            LedgerEntry::Data(DataEntry {
                account: acct(5),
                name: "k".to_string(),
                value: vec![1, 2],
            }),
            "03000000000000000500000000000000016b00000000000000020102",
        ),
    ]
}

fn ledger_key_pins() -> Vec<Pin> {
    pin_bad_tag::<LedgerKey>("04", 4);
    vec![
        pin(LedgerKey::Account(acct(5)), "000000000000000005"),
        pin(
            LedgerKey::TrustLine(acct(5), usd()),
            "0100000000000000050100000000000000090000000000000003555344",
        ),
        pin(LedgerKey::Offer(6), "020000000000000006"),
        pin(
            LedgerKey::Data(acct(5), "k".to_string()),
            "03000000000000000500000000000000016b",
        ),
    ]
}

fn signer_key_pins() -> Vec<Pin> {
    pin_bad_tag::<SignerKey>("02", 2);
    vec![
        pin(SignerKey::Key(PublicKey(3)), "000000000000000003"),
        pin(
            SignerKey::HashX(Hash256([0x11; 32])),
            "011111111111111111111111111111111111111111111111111111111111111111",
        ),
    ]
}

fn memo_pins() -> Vec<Pin> {
    pin_bad_tag::<Memo>("04", 4);
    vec![
        pin(Memo::None, "00"),
        pin(Memo::Text("hi".to_string()), "0100000000000000026869"),
        pin(Memo::Id(42), "02000000000000002a"),
        pin(
            Memo::Hash(Hash256([0xab; 32])),
            "03abababababababababababababababababababababababababababababababab",
        ),
    ]
}

fn operation_pins() -> Vec<Pin> {
    pin_bad_tag::<Operation>("0a", 10);
    vec![
        pin(
            Operation::CreateAccount {
                destination: acct(1),
                starting_balance: 100,
            },
            "0000000000000000010000000000000064",
        ),
        pin(
            Operation::AccountMerge {
                destination: acct(2),
            },
            "010000000000000002",
        ),
        pin(
            Operation::SetOptions {
                auth_required: Some(true),
                auth_revocable: None,
                master_weight: Some(2),
                low_threshold: None,
                medium_threshold: Some(1),
                high_threshold: None,
                signer: Some(Signer::key(PublicKey(3), 1)),
            },
            "020101000102000101000100000000000000000301",
        ),
        pin(
            Operation::Payment {
                destination: acct(4),
                asset: Asset::Native,
                amount: 5,
            },
            "030000000000000004000000000000000005",
        ),
        pin(
            Operation::PathPayment {
                send_asset: Asset::Native,
                send_max: 10,
                destination: acct(5),
                dest_asset: usd(),
                dest_amount: 7,
                path: vec![Asset::issued(acct(8), "EUR")],
            },
            "0400000000000000000a00000000000000050100000000000000090000000000000003555344000000000000000700000000000000010100000000000000080000000000000003455552",
        ),
        pin(
            Operation::ManageOffer {
                offer_id: 6,
                selling: usd(),
                buying: Asset::Native,
                amount: 8,
                price: Price::new(3, 2),
                passive: true,
            },
            "0500000000000000060100000000000000090000000000000003555344000000000000000008000000030000000201",
        ),
        pin(
            Operation::ManageData {
                name: "k".to_string(),
                value: Some(vec![1, 2]),
            },
            "0600000000000000016b0100000000000000020102",
        ),
        pin(
            Operation::ChangeTrust {
                asset: usd(),
                limit: 1000,
            },
            "07010000000000000009000000000000000355534400000000000003e8",
        ),
        pin(
            Operation::AllowTrust {
                trustor: acct(7),
                asset_code: "USD".to_string(),
                authorize: true,
            },
            "080000000000000007000000000000000355534401",
        ),
        pin(Operation::BumpSequence { bump_to: 9 }, "090000000000000009"),
    ]
}

fn upgrade_pins() -> Vec<Pin> {
    pin_bad_tag::<Upgrade>("04", 4);
    vec![
        pin(Upgrade::ProtocolVersion(2), "0000000002"),
        pin(Upgrade::BaseFee(200), "0100000000000000c8"),
        pin(Upgrade::BaseReserve(1_000_000), "0200000000000f4240"),
        pin(Upgrade::MaxTxSetOps(500), "03000001f4"),
    ]
}

/// A bucket blob is a run of `(LedgerKey, BucketEntry)` slots; the empty
/// blob is the valid empty bucket, so a slot pin demands one slot.
fn decode_slot(bytes: &[u8]) -> Result<(), DecodeError> {
    match Bucket::decode(bytes)?.len() {
        1 => Ok(()),
        _ => Err(DecodeError::Truncated),
    }
}

/// `BucketEntry` has no codec of its own outside a bucket: pin both
/// variants through one-slot bucket blobs.
fn bucket_entry_pins() -> Vec<Pin> {
    let slot = |change: Option<LedgerEntry>, hex: &str| {
        let bucket = Bucket::from_changes(&[(LedgerKey::Account(acct(5)), change)]);
        let bytes = hex::decode(hex).expect("pin is hex");
        assert_eq!(hex::encode(bucket.encoded_bytes()), hex);
        assert_eq!(Bucket::decode(&bytes), Ok(bucket));
        Pin {
            bytes,
            decode: decode_slot,
        }
    };
    // Key `Account(5)` then entry tag 2, which names no `BucketEntry`.
    assert_eq!(
        Bucket::decode(&hex::decode("00000000000000000502").unwrap()),
        Err(DecodeError::BadTag(2))
    );
    vec![slot(Some(account_entry()), "00000000000000000500000000000000000005000000000000004d00000000000000000000000000000000000000000001000000"), slot(None, "00000000000000000501")]
}

fn all_pins() -> Vec<Pin> {
    [
        statement_kind_pins(),
        asset_pins(),
        ledger_entry_pins(),
        ledger_key_pins(),
        signer_key_pins(),
        memo_pins(),
        operation_pins(),
        upgrade_pins(),
        bucket_entry_pins(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

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
    statement_kind_pins();
}

#[test]
fn ledger_entry_encoding_is_pinned() {
    ledger_entry_pins();
    ledger_key_pins();
    signer_key_pins();
    bucket_entry_pins();
}

#[test]
fn transaction_parts_are_pinned() {
    memo_pins();
    operation_pins();
}

#[test]
fn upgrade_encoding_is_pinned() {
    upgrade_pins();
}

#[test]
fn decoders_are_total() {
    for pin in all_pins() {
        let bytes = &pin.bytes;
        for cut in 0..bytes.len() {
            assert!(
                (pin.decode)(&bytes[..cut]).is_err(),
                "{}",
                hex::encode(&bytes[..cut])
            );
        }
        // A bounded single-byte-flip sweep: any answer but a panic.
        for i in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                let _ = (pin.decode)(&flipped);
            }
        }
    }
}

#[test]
fn asset_and_price_encodings_are_pinned() {
    asset_pins();
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
    assert_eq!(herder.persist.keys_with_prefix("").len(), 1);
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
