//! The [`Driver`] trait: how SCP talks to the application and the outside
//! world.
//!
//! SCP is a pure state machine; everything with a side effect — sending
//! envelopes, arming timers, validating and combining application values,
//! learning public keys, delivering decisions — is delegated to a `Driver`
//! supplied by the embedder (in this workspace, `stellar-herder` for the
//! payment network and in-process harnesses for tests and simulations).

use crate::{Envelope, NodeId, SlotIndex, Value};
use std::time::Duration;

/// Application verdict on a candidate value (paper §3.2: only *valid*
/// values may be voted for).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Validity {
    /// The value is fully valid and may be voted for in nomination.
    FullyValidated,
    /// The value cannot be fully checked locally (e.g. unknown tx set) but
    /// is not known-bad; it may be accepted but not voted for.
    MaybeValid,
    /// The value is malformed or violates application rules.
    Invalid,
}

/// Kinds of timers SCP asks the embedder to run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TimerKind {
    /// Nomination leader-selection round timeout (§3.2.5).
    Nomination,
    /// Ballot timeout (§3.2.4); fires only if armed and not re-armed.
    Ballot,
}

/// Observable protocol milestones, surfaced for metrics and tests.
///
/// These power the paper's evaluation: nomination/balloting latency splits
/// (Fig. 9–11), timeout counts (Fig. 8), and message accounting (§7.2).
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // Variant fields (`slot`, `counter`, `value`, `kind`) are uniform and documented on the variants.
pub enum ScpEvent {
    /// Nomination began for a slot.
    NominationStarted { slot: SlotIndex },
    /// A nomination round began (round 1 fires with
    /// [`ScpEvent::NominationStarted`]; later rounds follow timeouts).
    /// Telemetry derives per-round durations from consecutive events.
    NominationRoundStarted { slot: SlotIndex, round: u32 },
    /// A verified peer envelope was routed to its slot. `kind` is the
    /// statement family ([`crate::StatementKind::class_name`]) — the
    /// per-statement-type message accounting of §7.2.
    EnvelopeProcessed {
        slot: SlotIndex,
        from: NodeId,
        kind: &'static str,
    },
    /// A peer envelope was dropped before reaching any slot.
    EnvelopeRejected { from: NodeId, reason: Rejection },
    /// A new composite candidate value emerged from nomination.
    NewCandidate { slot: SlotIndex, value: Value },
    /// The node moved to a new ballot (counter reported).
    BallotBumped { slot: SlotIndex, counter: u32 },
    /// The node accepted `prepare(b)` for the first time at this ballot.
    AcceptedPrepared { slot: SlotIndex, counter: u32 },
    /// The node confirmed `prepare(b)` — the first `prepare` confirmation
    /// marks the nomination→balloting latency boundary used in §7.3.
    ConfirmedPrepared { slot: SlotIndex, counter: u32 },
    /// The node accepted `commit` for a range of ballots.
    AcceptedCommit { slot: SlotIndex, counter: u32 },
    /// A nomination-round or ballot timeout fired (Fig. 8 counters).
    TimeoutFired { slot: SlotIndex, kind: TimerKind },
    /// The node externalized (decided) a value.
    Externalized { slot: SlotIndex, value: Value },
}

impl ScpEvent {
    /// The slot the event belongs to; a rejected envelope reached none.
    pub fn slot(&self) -> Option<SlotIndex> {
        match self {
            ScpEvent::EnvelopeRejected { .. } => None,
            ScpEvent::NominationStarted { slot }
            | ScpEvent::NominationRoundStarted { slot, .. }
            | ScpEvent::EnvelopeProcessed { slot, .. }
            | ScpEvent::NewCandidate { slot, .. }
            | ScpEvent::BallotBumped { slot, .. }
            | ScpEvent::AcceptedPrepared { slot, .. }
            | ScpEvent::ConfirmedPrepared { slot, .. }
            | ScpEvent::AcceptedCommit { slot, .. }
            | ScpEvent::TimeoutFired { slot, .. }
            | ScpEvent::Externalized { slot, .. } => Some(*slot),
        }
    }
}

/// Why a peer envelope was dropped before reaching any slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rejection {
    /// It does not verify under the sender's key.
    BadSignature,
    /// Its quorum set is not well-formed ([`crate::QuorumSet::is_well_formed`]).
    MalformedQset,
    /// Its fields contradict each other ([`crate::StatementKind::is_sane`]).
    Insane,
}

/// Connects the SCP state machine to the embedding application.
pub trait Driver {
    /// Checks whether `value` is acceptable at `slot`.
    ///
    /// `nomination` is true when the check guards a nomination vote (strict)
    /// rather than ballot-protocol participation (lenient).
    fn validate_value(&mut self, slot: SlotIndex, value: &Value, nomination: bool) -> Validity;

    /// Combines confirmed-nominated candidates into the composite value
    /// balloting should propose (paper §5.3; e.g. "take the transaction set
    /// with the most operations, the union of upgrades, the highest close
    /// time"). Returning `None` leaves balloting waiting for candidates.
    fn combine_candidates(
        &mut self,
        slot: SlotIndex,
        candidates: &std::collections::BTreeSet<Value>,
    ) -> Option<Value>;

    /// Broadcasts an envelope to the network (the embedder floods it).
    fn emit_envelope(&mut self, envelope: &Envelope);

    /// Arms (or re-arms) a timer; a later call with the same `(slot, kind)`
    /// replaces the earlier deadline. `None` cancels.
    fn set_timer(&mut self, slot: SlotIndex, kind: TimerKind, delay: Option<Duration>);

    /// Delivers the decision for `slot`. Called exactly once per slot.
    fn externalized(&mut self, slot: SlotIndex, value: &Value);

    /// Resolves a node's signature-verification key.
    ///
    /// Returning `None` causes envelopes from that node to be dropped.
    fn public_key(&self, node: NodeId) -> Option<stellar_crypto::sign::PublicKey>;

    /// Observability hook; default ignores events.
    fn on_event(&mut self, _event: ScpEvent) {}

    /// Ballot timeout schedule (§3.2.4): "timeouts of increasing duration".
    ///
    /// Default mirrors production `stellar-core`: `counter + 1` seconds.
    fn ballot_timeout(&self, counter: u32) -> Duration {
        Duration::from_secs(u64::from(counter) + 1)
    }

    /// Nomination round timeout; production uses 1 s, growing per round.
    fn nomination_timeout(&self, round: u32) -> Duration {
        Duration::from_secs(u64::from(round))
    }
}
