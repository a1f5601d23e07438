//! The simulation event queue.
//!
//! A binary heap ordered by `(time, sequence)` — the sequence number makes
//! simultaneous events deterministic. The queue holds no timer state: an
//! SCP timer event carries the deadline it was armed for, and the node's
//! validator ignores one it no longer holds armed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stellar_crypto::Hash256;
use stellar_ledger::tx::TransactionEnvelope;
pub use stellar_overlay::{Flooded, FloodedData};
use stellar_scp::driver::TimerKind;
use stellar_scp::{NodeId, SlotIndex};

/// A scheduled occurrence.
#[derive(Clone, Debug)]
pub enum Event {
    /// A flooded message arrives at `to` from peer `from`.
    Deliver {
        /// Receiving node.
        to: NodeId,
        /// Sending peer (for relay suppression).
        from: NodeId,
        /// The payload.
        msg: Flooded,
    },
    /// An SCP timer reaches its deadline (a no-op unless the node's
    /// validator still holds it armed).
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Slot the timer belongs to.
        slot: SlotIndex,
        /// Nomination or ballot timer.
        kind: TimerKind,
        /// The deadline (ms) it was armed for.
        deadline: u64,
    },
    /// A node should start consensus on its next ledger.
    TriggerLedger {
        /// The node to trigger.
        node: NodeId,
    },
    /// A client submits a transaction to a node.
    SubmitTx {
        /// Receiving node.
        to: NodeId,
        /// The transaction.
        tx: TransactionEnvelope,
    },
    /// A pull-mode flood tick: the node drains its advert batch and
    /// retries expired demands. Armed lazily — only while the node's
    /// demand scheduler has work — so idle networks schedule no ticks.
    PullTick {
        /// The ticking node.
        node: NodeId,
    },
    /// A horizon client runs a query batch against the observer's
    /// pipeline (wall-clock timed; read-only, never perturbs consensus).
    HorizonQuery,
    /// The observer's horizon pipeline drains its close-event feed (only
    /// scheduled when ingestion runs on a cadence instead of per close).
    HorizonIngest,
}

// Millions of duplicate deliveries pass through the heap per run; its
// sift cost is per byte of entry, so the entry must not grow back.
const _: () = assert!(std::mem::size_of::<Event>() <= 32);

#[derive(Debug)]
struct Queued {
    time: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Queued>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `time` (ms).
    pub fn push(&mut self, time: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Queued { time, seq, event }));
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|Reverse(q)| (q.time, q.event))
    }

    /// Time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(q)| q.time)
    }

    /// Removes every pending `Deliver` addressed to `node`. Called on
    /// crash so a dead node's inbound traffic doesn't sit in the heap for
    /// the rest of the run.
    pub fn purge_deliveries_to(&mut self, node: NodeId) {
        let to_node = |q: &Queued| matches!(q.event, Event::Deliver { to, .. } if to == node);
        self.heap.retain(|Reverse(q)| !to_node(q));
    }

    /// Number of pending `Deliver` events addressed to `node`.
    pub fn count_deliveries_to(&self, node: NodeId) -> usize {
        self.heap
            .iter()
            .filter(|Reverse(q)| matches!(q.event, Event::Deliver { to, .. } if to == node))
            .count()
    }
}

/// One entry of the deterministic event trace (see
/// [`Simulation::enable_trace`](crate::Simulation::enable_trace)). Two
/// runs from the same seed and fault schedule produce identical traces,
/// which is what makes chaos findings replayable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEntry {
    /// A flooded message arrived at a node.
    Deliver {
        /// Simulated time (ms).
        time: u64,
        /// Sending peer.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Content id of the message.
        msg_id: Hash256,
    },
    /// An SCP timer fired.
    Timer {
        /// Simulated time (ms).
        time: u64,
        /// The node whose timer fired.
        node: NodeId,
        /// Slot the timer belonged to.
        slot: SlotIndex,
    },
    /// A node started consensus on its next ledger.
    Trigger {
        /// Simulated time (ms).
        time: u64,
        /// The triggered node.
        node: NodeId,
    },
    /// A client transaction was submitted.
    Submit {
        /// Simulated time (ms).
        time: u64,
        /// Receiving node.
        to: NodeId,
        /// Transaction hash.
        tx_hash: Hash256,
    },
    /// A node closed a ledger.
    Close {
        /// Simulated time (ms).
        time: u64,
        /// The closing node.
        node: NodeId,
        /// Sequence of the closed ledger.
        seq: u64,
        /// Resulting header hash.
        header_hash: Hash256,
    },
}

/// Records the entry `entry` builds, if the trace is enabled (`Some`).
pub(crate) fn record(trace: &mut Option<Vec<TraceEntry>>, entry: impl FnOnce() -> TraceEntry) {
    if let Some(t) = trace {
        t.push(entry());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(10, Event::TriggerLedger { node: NodeId(1) });
        q.push(5, Event::TriggerLedger { node: NodeId(2) });
        q.push(5, Event::TriggerLedger { node: NodeId(3) });
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::TriggerLedger { node } => (t, node.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(5, 2), (5, 3), (10, 1)]);
    }
}
