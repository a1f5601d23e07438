//! Direct probes of layers the workloads only reach through others:
//! hashing and signature checks (under bucket hashing and admission), one
//! SCP round and one quorum-intersection check at `net_scp`'s size. Each
//! is the median of a few repeats of a public function on fixed input.

use crate::stats;
use crate::Outcome;
use std::hint::black_box;
use std::time::Instant;
use stellar_crypto::sha256::sha256;
use stellar_crypto::sign::{verify, KeyPair};
use stellar_quorum::intersection::{enjoys_quorum_intersection, FbaSystem};
use stellar_scp::test_harness::InMemoryNetwork;
use stellar_scp::{NodeId, QuorumSet, Value};

/// Validators in the SCP and quorum probes (`net_scp`'s mesh).
const PROBE_NODES: u32 = 32;

/// Median seconds of `repeats` runs of `f`.
fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Runs every probe and records its metric.
pub fn run(out: &mut Outcome) {
    let block = vec![0xA5u8; 1 << 20];
    let s = median_secs(9, || {
        black_box(sha256(black_box(&block)));
    });
    out.set("crypto.sha256.mb_per_s", stats::ratio(1.0, s));

    let keys = KeyPair::from_seed(7);
    let msgs: Vec<[u8; 32]> = (0..2000u32)
        .map(|i| *sha256(&i.to_be_bytes()).as_bytes())
        .collect();
    let sigs: Vec<_> = msgs.iter().map(|m| keys.sign(m)).collect();
    let s = median_secs(5, || {
        for (m, sig) in msgs.iter().zip(&sigs) {
            assert!(verify(keys.public(), black_box(m), sig));
        }
    });
    out.set("crypto.sign.verify_us", s * 1e6 / msgs.len() as f64);

    let nodes: Vec<NodeId> = (0..PROBE_NODES).map(NodeId).collect();
    let qset = QuorumSet::majority(nodes.clone());
    let mut slot = 0u64;
    let s = median_secs(3, || {
        slot += 1;
        let mut net = InMemoryNetwork::new(&nodes, &qset, slot);
        for node in &nodes {
            net.propose(*node, slot, Value::new(format!("v{slot}").into_bytes()));
        }
        assert_eq!(net.run_to_quiescence(slot).len(), nodes.len());
    });
    out.set("scp.round_us", s * 1e6);

    let system = FbaSystem::new(nodes.iter().map(|n| (*n, qset.clone())));
    let s = median_secs(5, || {
        assert!(enjoys_quorum_intersection(black_box(&system)));
    });
    out.set("quorum.intersection.check_ms", s * 1e3);
}
