//! Per-node flood state: naïve gossip with de-duplication.
//!
//! "Transactions and SCP messages are broadcast by validators using a
//! naïve flooding protocol" (§7.5). Each node remembers what it has seen
//! and relays new messages to every peer except the one it came from.
//!
//! The seen-cache forgets by age: it holds two generations of ids, each
//! one window of the caller's clock, and drops the older one when a new
//! window starts. An id is remembered for at least one window and for
//! less than two, so memory follows the message rate, not the run length
//! — as production stellar-core purges its flood map every ledger
//! (`Floodgate::clearBelow`, a few slots back). The window also breaks
//! relay ping-pong: a duplicated message revisits a node of a relay cycle
//! within round-trip time, far inside one window, so the revisit hits the
//! de-duplication check and the loop dies.

use stellar_crypto::{heap, Hash256, IdSet};

/// Flood bookkeeping for one node.
#[derive(Debug)]
pub(crate) struct FloodState {
    /// Ids first recorded in the current window.
    current: IdSet<Hash256>,
    /// Ids first recorded in the window before it.
    previous: IdSet<Hash256>,
    window_ms: u64,
    /// Start of the next window; the first record at or after it rotates.
    rotate_at: u64,
}

impl FloodState {
    /// A flood cache whose windows are `window_ms` long: an id is
    /// remembered for at least `window_ms` and for less than twice that.
    pub(crate) fn new(window_ms: u64) -> FloodState {
        let window_ms = window_ms.max(1);
        FloodState {
            current: IdSet::default(),
            previous: IdSet::default(),
            window_ms,
            rotate_at: window_ms,
        }
    }

    /// Whether `id` has been seen (read-only check).
    pub(crate) fn contains(&self, id: Hash256) -> bool {
        self.current.contains(&id) || self.previous.contains(&id)
    }

    /// Ids currently remembered, both generations.
    pub(crate) fn remembered(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Heap bytes the two generations hold. Each grows by insertion only
    /// and is replaced, never cleared, so its length sizes its table.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<Hash256>();
        heap::table(self.current.len(), entry) + heap::table(self.previous.len(), entry)
    }

    /// Records `id` as seen at `now_ms`; returns `true` if it is new
    /// (and should be processed and relayed) or `false` on a duplicate.
    pub(crate) fn record_at(&mut self, id: Hash256, now_ms: u64) -> bool {
        if now_ms >= self.rotate_at {
            let aged = std::mem::take(&mut self.current);
            // Two or more windows passed: the last generation is stale too.
            let stale = now_ms >= self.rotate_at + self.window_ms;
            self.previous = if stale { IdSet::default() } else { aged };
            self.rotate_at = (now_ms / self.window_ms + 1) * self.window_ms;
        }
        !self.previous.contains(&id) && self.current.insert(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> Hash256 {
        let mut b = [0u8; 32];
        b[0] = n;
        Hash256(b)
    }

    #[test]
    fn duplicates_suppressed() {
        let mut f = FloodState::new(10);
        assert!(f.record_at(id(1), 0));
        assert!(!f.record_at(id(1), 0));
        assert!(f.record_at(id(2), 0));
    }

    #[test]
    fn ids_are_remembered_at_least_one_window_and_under_two() {
        const W: u64 = 100;
        // Recorded at the start, middle and end of a window.
        for t in [0, 37, W - 1] {
            let mut f = FloodState::new(W);
            assert!(f.record_at(id(1), t));
            // One window later the id has moved to the older generation
            // and is still a duplicate, to a read and to a record alike.
            assert!(f.contains(id(1)), "recorded at {t}, read at {}", t + W);
            assert!(!f.record_at(id(1), t + W), "recorded at {t}");
            // Two windows later it is gone, and new again.
            assert!(f.record_at(id(1), t + 2 * W), "recorded at {t}");
        }
    }

    #[test]
    fn a_gap_of_two_windows_forgets_everything() {
        let mut f = FloodState::new(100);
        f.record_at(id(1), 50);
        f.record_at(id(2), 150); // 1 is in the older generation now
        assert!(f.contains(id(1)) && f.contains(id(2)));
        assert_eq!(f.remembered(), 2);
        // The next record lands two windows after 2's: both generations
        // are stale, not only the older one.
        f.record_at(id(3), 350);
        assert!(!f.contains(id(1)) && !f.contains(id(2)) && f.contains(id(3)));
        assert_eq!(f.remembered(), 1);
    }

    /// Regression: a message forgotten by the seen-cache and re-delivered
    /// (duplicate-delivery fault) must not orbit a relay cycle forever.
    /// If each node on the cycle forgets the id before it comes back
    /// around, every revisit looks fresh and the message relays
    /// indefinitely. A window longer than the lap keeps the id long
    /// enough that the revisit hits de-duplication.
    #[test]
    fn evicted_and_redelivered_message_does_not_loop() {
        let loop_deliveries = |mut states: Vec<FloodState>| -> usize {
            // 3 nodes in a relay ring; each hop takes 10 ms, so a lap
            // takes 30 ms.
            let looping = id(255);
            let mut deliveries = 0usize;
            let mut carrier = Some(0usize); // node about to receive `looping`
            let mut now = 0u64;
            while let Some(node) = carrier.take() {
                deliveries += 1;
                if deliveries > 100 {
                    break; // unbounded loop: bail for the assertion below
                }
                let fresh = states[node].record_at(looping, now);
                now += 10;
                if fresh {
                    carrier = Some((node + 1) % 3); // relay onward
                }
            }
            deliveries
        };
        // A 14 ms window keeps an id under 28 ms, less than one lap.
        let without = loop_deliveries((0..3).map(|_| FloodState::new(14)).collect());
        assert!(without > 100, "a window under half a lap loops: {without}");
        let with = loop_deliveries((0..3).map(|_| FloodState::new(5_000)).collect());
        assert!(
            with <= 4,
            "the window must break the relay loop, got {with} deliveries"
        );
    }
}
