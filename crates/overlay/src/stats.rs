//! Traffic accounting (§7.4).
//!
//! The paper reports a production validator with 28 peer connections and
//! a quorum of 34 moving 2.78 Mbit/s in and 2.56 Mbit/s out. These
//! counters let the simulator produce the same row, and the per-type
//! split (SCP envelopes vs. transaction sets vs. transactions, plus
//! flood duplicate-suppression hits) feeds the §7.2 traffic table and
//! `SimReport::traffic`.

/// The flooded message families, as a traffic-accounting tag: three
/// payload kinds plus the two pull-mode control kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// An SCP envelope.
    Scp,
    /// A transaction set.
    TxSet,
    /// A single transaction.
    Tx,
    /// A pull-mode advert (hash batch announcement).
    Advert,
    /// A pull-mode demand (hash batch request).
    Demand,
}

/// Message/byte counters for one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficStats {
    /// Messages received.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// SCP envelopes *originated* by this node (logical broadcasts,
    /// the §7.2 per-ledger message count).
    pub scp_originated: u64,
    /// Received messages by type: `[scp, tx_set, tx, advert, demand]`,
    /// indexable with [`MsgKind`] via [`TrafficStats::in_count`].
    pub in_by_kind: [u64; 5],
    /// Sent messages by type.
    pub out_by_kind: [u64; 5],
    /// Received bytes by type, indexed like `in_by_kind`.
    pub in_bytes_by_kind: [u64; 5],
    /// Sent bytes by type.
    pub out_bytes_by_kind: [u64; 5],
    /// Deliveries dropped by the flood seen-cache (duplicate
    /// suppression hits) — the §7.5 cost of naïve flooding.
    pub dup_suppressed: u64,
    /// Pull mode: demanded payloads that arrived.
    pub pull_fulfilled: u64,
    /// Pull mode: demands that expired and were retried (or given up).
    pub pull_timeouts: u64,
    /// Demands sent, in either mode, for a transaction set an SCP value
    /// named and the node lacked ([`crate::FloodEngine::want_named`]);
    /// a fault-free run needs none.
    pub set_demands: u64,
    /// Adverts and demands dropped whole for carrying more than
    /// [`crate::engine::MAX_IDS_PER_CONTROL`] hashes.
    pub control_oversized: u64,
}

impl TrafficStats {
    fn idx(kind: MsgKind) -> usize {
        match kind {
            MsgKind::Scp => 0,
            MsgKind::TxSet => 1,
            MsgKind::Tx => 2,
            MsgKind::Advert => 3,
            MsgKind::Demand => 4,
        }
    }

    /// Records a received message of `bytes` bytes (type unknown —
    /// prefer [`TrafficStats::recv_kind`] where the payload is typed).
    pub fn recv(&mut self, bytes: usize) {
        self.msgs_in += 1;
        self.bytes_in += bytes as u64;
    }

    /// Records a received message of a known type.
    pub fn recv_kind(&mut self, kind: MsgKind, bytes: usize) {
        self.recv(bytes);
        self.in_by_kind[Self::idx(kind)] += 1;
        self.in_bytes_by_kind[Self::idx(kind)] += bytes as u64;
    }

    /// Records a sent message of `bytes` bytes.
    pub fn send(&mut self, bytes: usize) {
        self.msgs_out += 1;
        self.bytes_out += bytes as u64;
    }

    /// Records a sent message of a known type.
    pub fn send_kind(&mut self, kind: MsgKind, bytes: usize) {
        self.send(bytes);
        self.out_by_kind[Self::idx(kind)] += 1;
        self.out_bytes_by_kind[Self::idx(kind)] += bytes as u64;
    }

    /// Records a delivery suppressed as a duplicate by the flood cache.
    pub fn dup_hit(&mut self) {
        self.dup_suppressed += 1;
    }

    /// Records a demanded payload arriving (pull mode).
    pub fn record_pull_fulfilled(&mut self) {
        self.pull_fulfilled += 1;
    }

    /// Records `n` demand timeouts expiring on one flood tick.
    pub fn record_pull_timeouts(&mut self, n: u64) {
        self.pull_timeouts += n;
    }

    /// Received-message count for one type.
    pub fn in_count(&self, kind: MsgKind) -> u64 {
        self.in_by_kind[Self::idx(kind)]
    }

    /// Sent-message count for one type.
    pub fn out_count(&self, kind: MsgKind) -> u64 {
        self.out_by_kind[Self::idx(kind)]
    }

    /// Received bytes of one type.
    pub fn in_bytes(&self, kind: MsgKind) -> u64 {
        self.in_bytes_by_kind[Self::idx(kind)]
    }

    /// Sent bytes of one type.
    pub fn out_bytes(&self, kind: MsgKind) -> u64 {
        self.out_bytes_by_kind[Self::idx(kind)]
    }

    /// Fraction of received messages that were duplicate-suppressed.
    pub fn dup_ratio(&self) -> f64 {
        if self.msgs_in == 0 {
            0.0
        } else {
            self.dup_suppressed as f64 / self.msgs_in as f64
        }
    }

    /// Incoming bandwidth over a wall-clock window, in Mbit/s.
    pub fn mbps_in(&self, seconds: f64) -> f64 {
        self.bytes_in as f64 * 8.0 / 1_000_000.0 / seconds.max(1e-9)
    }

    /// Outgoing bandwidth over a wall-clock window, in Mbit/s.
    pub fn mbps_out(&self, seconds: f64) -> f64 {
        self.bytes_out as f64 * 8.0 / 1_000_000.0 / seconds.max(1e-9)
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.msgs_in += other.msgs_in;
        self.msgs_out += other.msgs_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.scp_originated += other.scp_originated;
        for i in 0..5 {
            self.in_by_kind[i] += other.in_by_kind[i];
            self.out_by_kind[i] += other.out_by_kind[i];
            self.in_bytes_by_kind[i] += other.in_bytes_by_kind[i];
            self.out_bytes_by_kind[i] += other.out_bytes_by_kind[i];
        }
        self.dup_suppressed += other.dup_suppressed;
        self.pull_fulfilled += other.pull_fulfilled;
        self.pull_timeouts += other.pull_timeouts;
        self.set_demands += other.set_demands;
        self.control_oversized += other.control_oversized;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TrafficStats::default();
        s.recv(100);
        s.recv(50);
        s.send(200);
        assert_eq!(s.msgs_in, 2);
        assert_eq!(s.bytes_in, 150);
        assert_eq!(s.msgs_out, 1);
        assert_eq!(s.bytes_out, 200);
    }

    #[test]
    fn typed_counters_split_by_kind() {
        let mut s = TrafficStats::default();
        s.recv_kind(MsgKind::Scp, 100);
        s.recv_kind(MsgKind::Scp, 100);
        s.recv_kind(MsgKind::Tx, 40);
        s.send_kind(MsgKind::TxSet, 500);
        assert_eq!(s.in_count(MsgKind::Scp), 2);
        assert_eq!(s.in_count(MsgKind::Tx), 1);
        assert_eq!(s.in_count(MsgKind::TxSet), 0);
        assert_eq!(s.out_count(MsgKind::TxSet), 1);
        assert_eq!(s.in_bytes(MsgKind::Scp), 200);
        assert_eq!(s.out_bytes(MsgKind::TxSet), 500);
        // Typed records also feed the untyped totals.
        assert_eq!(s.msgs_in, 3);
        assert_eq!(s.bytes_in, 240);
        assert_eq!(s.msgs_out, 1);
    }

    #[test]
    fn dup_suppression_ratio() {
        let mut s = TrafficStats::default();
        assert_eq!(s.dup_ratio(), 0.0);
        for _ in 0..3 {
            s.recv_kind(MsgKind::Scp, 10);
        }
        s.dup_hit();
        assert_eq!(s.dup_suppressed, 1);
        assert!((s.dup_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_math() {
        let mut s = TrafficStats::default();
        s.recv(1_000_000); // 8 Mbit
        assert!((s.mbps_in(2.0) - 4.0).abs() < 1e-9);
        assert!((s.mbps_out(2.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums() {
        let mut a = TrafficStats::default();
        a.recv_kind(MsgKind::Scp, 10);
        a.dup_hit();
        let mut b = TrafficStats::default();
        b.send_kind(MsgKind::Tx, 20);
        b.scp_originated = 3;
        b.dup_hit();
        b.record_pull_fulfilled();
        b.record_pull_timeouts(2);
        b.set_demands = 4;
        b.control_oversized = 1;
        a.merge(&b);
        assert_eq!(a.bytes_in, 10);
        assert_eq!(a.bytes_out, 20);
        assert_eq!(a.scp_originated, 3);
        assert_eq!(a.in_count(MsgKind::Scp), 1);
        assert_eq!(a.out_count(MsgKind::Tx), 1);
        assert_eq!((a.in_bytes(MsgKind::Scp), a.in_bytes(MsgKind::Tx)), (10, 0));
        assert_eq!(
            (a.out_bytes(MsgKind::Tx), a.out_bytes(MsgKind::Scp)),
            (20, 0)
        );
        assert_eq!(a.dup_suppressed, 2);
        assert_eq!(a.pull_fulfilled, 1);
        assert_eq!(a.pull_timeouts, 2);
        assert_eq!(a.set_demands, 4);
        assert_eq!(a.control_oversized, 1);
    }

    #[test]
    fn pull_control_kinds_tracked() {
        let mut s = TrafficStats::default();
        s.send_kind(MsgKind::Advert, 36);
        s.recv_kind(MsgKind::Demand, 36);
        assert_eq!(s.out_count(MsgKind::Advert), 1);
        assert_eq!(s.in_count(MsgKind::Demand), 1);
    }
}
