//! The slot-scoped flight recorder: a bounded ring of timestamped events
//! covering the last N consensus slots.
//!
//! Metrics say *that* a slot was slow; the flight recorder says *why*. It
//! retains the full consensus timeline — phase transitions, quorum
//! threshold crossings, timer arms/fires, envelope send/receive with
//! causal slot+node tags — for the most recent slots only, so a week-long
//! run costs the same memory as a short one. Chaos runs attach its
//! [`FlightRecorder::timeline`] when an invariant breaks: a stalled slot
//! rendered as a story a human can read top to bottom.
//!
//! The payload `K` is the embedder's own event type; the recorder asks of
//! it only a one-line [`fmt::Display`] rendering. A validator records the
//! events SCP reports to its driver plus the driver calls it makes
//! (`stellar_herder::Traced`), so this crate depends on nothing.

use std::collections::VecDeque;
use std::fmt;

/// One entry of the consensus timeline: when, who, which slot, what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent<K> {
    /// Timestamp (ms; simulated time in the simulator).
    pub t_ms: u64,
    /// The node this event happened on.
    pub node: u32,
    /// The consensus slot it belongs to.
    pub slot: u64,
    /// The structured payload.
    pub kind: K,
}

/// Bounded, slot-scoped event ring.
///
/// Retention is two-dimensional: events for slots older than
/// `keep_slots` behind the newest recorded slot are dropped, and the
/// total event count is hard-capped (oldest evicted first) so a
/// pathological slot cannot grow memory without bound either.
#[derive(Clone, Debug)]
pub struct FlightRecorder<K> {
    events: VecDeque<TraceEvent<K>>,
    keep_slots: u64,
    max_events: usize,
    max_slot: u64,
}

impl<K> Default for FlightRecorder<K> {
    fn default() -> Self {
        FlightRecorder::new(8, 16_384)
    }
}

impl<K> FlightRecorder<K> {
    /// A recorder keeping the last `keep_slots` slots, at most
    /// `max_events` events total.
    pub fn new(keep_slots: u64, max_events: usize) -> FlightRecorder<K> {
        FlightRecorder {
            events: VecDeque::new(),
            keep_slots: keep_slots.max(1),
            max_events: max_events.max(1),
            max_slot: 0,
        }
    }

    /// Heap bytes the buffered events hold, with `payload` the bytes one
    /// event's payload holds beyond its own size.
    pub fn resident_bytes(&self, payload: impl Fn(&K) -> u64) -> u64 {
        let payloads: u64 = self.events.iter().map(|e| payload(&e.kind)).sum();
        (self.events.capacity() * std::mem::size_of::<TraceEvent<K>>()) as u64 + payloads
    }

    /// Records one event.
    pub fn record(&mut self, t_ms: u64, node: u32, slot: u64, kind: K) {
        if slot > self.max_slot {
            self.max_slot = slot;
            let cutoff = self.max_slot.saturating_sub(self.keep_slots - 1);
            self.events.retain(|e| e.slot >= cutoff);
        }
        if slot + self.keep_slots <= self.max_slot {
            return; // older than the retention window: drop on arrival
        }
        if self.events.len() >= self.max_events {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent {
            t_ms,
            node,
            slot,
            kind,
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent<K>> {
        self.events.iter()
    }

    /// Retained events for one slot, oldest first.
    fn slot_events(&self, slot: u64) -> Vec<&TraceEvent<K>> {
        self.events.iter().filter(|e| e.slot == slot).collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything aged out).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<K: fmt::Display> FlightRecorder<K> {
    /// Human-readable timeline of one slot: one line per event with a
    /// relative-time column, e.g.
    ///
    /// ```text
    /// slot 7 timeline (12 events, 1840ms span)
    ///     +0ms  [node 0] nomination round 1
    ///     +0ms  [node 0] sent nominate
    ///  +1002ms  [node 0] nomination timer FIRED
    /// ```
    pub fn timeline(&self, slot: u64) -> String {
        let events = self.slot_events(slot);
        let Some(first) = events.first() else {
            return format!("slot {slot}: no recorded events\n");
        };
        let t0 = first.t_ms;
        let span = events.last().map_or(0, |e| e.t_ms - t0);
        let mut out = format!(
            "slot {slot} timeline ({} events, {span}ms span)\n",
            events.len()
        );
        for e in events {
            out.push_str(&format!(
                "{:>9}  [node {}] {}\n",
                format!("+{}ms", e.t_ms - t0),
                e.node,
                e.kind
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in payload: the recorder only stores and renders it.
    #[derive(Clone, Debug, PartialEq)]
    enum Ev {
        Round(u32),
        Recv(u32),
        Bump(u32),
        Decided,
    }

    impl fmt::Display for Ev {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Ev::Round(round) => write!(f, "nomination round {round}"),
                Ev::Recv(from) => write!(f, "recv prepare from node {from}"),
                Ev::Bump(counter) => write!(f, "ballot bumped to counter {counter}"),
                Ev::Decided => write!(f, "EXTERNALIZED"),
            }
        }
    }

    fn rec(fr: &mut FlightRecorder<Ev>, t: u64, slot: u64, kind: Ev) {
        fr.record(t, 0, slot, kind);
    }

    #[test]
    fn slot_window_evicts_old_slots() {
        let mut fr = FlightRecorder::new(2, 1000);
        rec(&mut fr, 10, 1, Ev::Decided);
        rec(&mut fr, 20, 2, Ev::Decided);
        assert_eq!(fr.len(), 2);
        rec(&mut fr, 30, 3, Ev::Decided);
        // Slot 1 aged out; slots 2 and 3 retained.
        assert!(fr.slot_events(1).is_empty());
        assert_eq!(fr.slot_events(2).len(), 1);
        assert_eq!(fr.slot_events(3).len(), 1);
        // Late arrival for an evicted slot is dropped, not resurrected.
        rec(&mut fr, 40, 1, Ev::Decided);
        assert!(fr.slot_events(1).is_empty());
    }

    #[test]
    fn event_cap_evicts_oldest() {
        let mut fr = FlightRecorder::new(10, 3);
        for t in 0..5u64 {
            rec(&mut fr, t, 1, Ev::Bump(t as u32));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.events().next().unwrap().t_ms, 2);
    }

    #[test]
    fn timeline_renders_relative_times() {
        let mut fr = FlightRecorder::default();
        rec(&mut fr, 1000, 7, Ev::Round(1));
        fr.record(1080, 2, 7, Ev::Recv(2));
        rec(&mut fr, 2010, 7, Ev::Decided);
        let text = fr.timeline(7);
        assert!(text.contains("slot 7 timeline (3 events, 1010ms span)"));
        assert!(text.contains("+0ms"));
        assert!(text.contains("+80ms"));
        assert!(text.contains("recv prepare from node 2"));
        assert!(text.contains("EXTERNALIZED"));
        assert!(fr.timeline(99).contains("no recorded events"));
    }

    #[test]
    fn ring_wrap_evicts_strictly_oldest_first_across_slots() {
        // Interleave two live slots past the event cap: eviction must
        // follow arrival order, not slot order, and the survivors must
        // keep their relative order.
        let mut fr = FlightRecorder::new(10, 4);
        for t in 0..8u64 {
            let slot = 1 + (t % 2); // events alternate slots 1 and 2
            rec(&mut fr, t, slot, Ev::Bump(t as u32));
        }
        assert_eq!(fr.len(), 4);
        let times: Vec<u64> = fr.events().map(|e| e.t_ms).collect();
        assert_eq!(times, vec![4, 5, 6, 7], "oldest four evicted, in order");
        // Both slots still represented: the cap is global, not per slot.
        assert!(!fr.slot_events(1).is_empty());
        assert!(!fr.slot_events(2).is_empty());
    }

    #[test]
    fn render_is_stable_under_slot_reuse() {
        // A slot number that ages out and "returns" (late arrival or a
        // wrapped counter) must neither resurrect old events nor change
        // an existing render.
        let mut fr = FlightRecorder::new(2, 100);
        rec(&mut fr, 10, 5, Ev::Round(1));
        rec(&mut fr, 20, 5, Ev::Decided);
        let first_render = fr.timeline(5);
        assert!(first_render.contains("slot 5 timeline (2 events, 10ms span)"));
        // Rendering is a pure read: byte-identical on repeat.
        assert_eq!(fr.timeline(5), first_render);
        // Advance far enough that slot 5 ages out of the keep window.
        rec(&mut fr, 30, 6, Ev::Decided);
        rec(&mut fr, 40, 7, Ev::Decided);
        assert!(fr.timeline(5).contains("no recorded events"));
        // Late arrivals for the evicted slot stay dropped; the render
        // reflects only what the ring actually retains.
        rec(&mut fr, 50, 5, Ev::Bump(9));
        assert!(fr.timeline(5).contains("no recorded events"));
        // The live slots are unaffected by the reuse attempt.
        assert_eq!(fr.slot_events(6).len(), 1);
        assert_eq!(fr.slot_events(7).len(), 1);
    }
}
