//! What a validator keeps of its own consensus, read off the events SCP
//! reports to its driver ([`ScpEvent`]): the registry counter each event
//! bumps, the flight-recorder payload ([`Traced`]) and one [`SlotRecord`]
//! per slot, from which the per-ledger metrics are built.

use std::fmt;
use stellar_scp::driver::{Rejection, ScpEvent, TimerKind};
use stellar_scp::Value;

/// One flight-recorder entry of a validator: an event SCP reported, or
/// one of the driver calls that shape a slot's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Traced {
    /// An event SCP reported.
    Scp(ScpEvent),
    /// This node broadcast a statement of this class (`"nominate"`,
    /// `"prepare"`, `"confirm"`, `"externalize"`).
    EnvelopeSent(&'static str),
    /// A timer was armed, or re-armed, to fire after this many ms.
    TimerArmed(TimerKind, u64),
    /// A timer was cancelled.
    TimerCanceled(TimerKind),
    /// The slot's ledger closed with this many transactions.
    LedgerClosed(u32),
}

fn timer_name(kind: &TimerKind) -> &'static str {
    match kind {
        TimerKind::Nomination => "nomination",
        TimerKind::Ballot => "ballot",
    }
}

impl Traced {
    /// Heap bytes the payload holds beyond its own size: the share of the
    /// value a candidate or a decision carries.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            Traced::Scp(ScpEvent::NewCandidate { value, .. })
            | Traced::Scp(ScpEvent::Externalized { value, .. }) => value.resident_bytes(),
            _ => 0,
        }
    }
}

impl fmt::Display for Traced {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let threshold = |f: &mut fmt::Formatter<'_>, milestone: &str, counter: &u32| {
            write!(f, "quorum threshold: {milestone} at counter {counter}")
        };
        match self {
            Traced::Scp(event) => match event {
                ScpEvent::NominationStarted { .. } => f.write_str("phase → nomination"),
                ScpEvent::NominationRoundStarted { round, .. } => {
                    write!(f, "nomination round {round}")
                }
                ScpEvent::NewCandidate { .. } => f.write_str("phase → candidate"),
                ScpEvent::BallotBumped { counter, .. } => {
                    write!(f, "ballot bumped to counter {counter}")
                }
                ScpEvent::AcceptedPrepared { counter, .. } => {
                    threshold(f, "accept-prepare", counter)
                }
                ScpEvent::ConfirmedPrepared { counter, .. } => {
                    threshold(f, "confirm-prepare", counter)
                }
                ScpEvent::AcceptedCommit { counter, .. } => threshold(f, "accept-commit", counter),
                ScpEvent::TimeoutFired { kind, .. } => {
                    write!(f, "{} timer FIRED", timer_name(kind))
                }
                ScpEvent::EnvelopeProcessed { from, kind, .. } => {
                    write!(f, "recv {kind} from node {}", from.0)
                }
                ScpEvent::EnvelopeRejected { from, reason } => {
                    write!(f, "dropped envelope from node {}: {reason:?}", from.0)
                }
                ScpEvent::Externalized { .. } => f.write_str("EXTERNALIZED"),
            },
            Traced::EnvelopeSent(class) => write!(f, "sent {class}"),
            Traced::TimerArmed(kind, delay_ms) => {
                write!(f, "{} timer armed (+{delay_ms}ms)", timer_name(kind))
            }
            Traced::TimerCanceled(kind) => write!(f, "{} timer canceled", timer_name(kind)),
            Traced::LedgerClosed(txs) => write!(f, "ledger closed: {txs} txs applied"),
        }
    }
}

/// The registry counter `event` bumps.
pub(crate) fn counter_name(event: &ScpEvent) -> &'static str {
    match event {
        ScpEvent::NominationStarted { .. } => "scp.nomination_started",
        ScpEvent::NominationRoundStarted { .. } => "scp.nomination_rounds",
        ScpEvent::NewCandidate { .. } => "scp.candidates",
        ScpEvent::BallotBumped { .. } => "scp.ballot_bumps",
        ScpEvent::AcceptedPrepared { .. } => "scp.accepted_prepared",
        ScpEvent::ConfirmedPrepared { .. } => "scp.confirmed_prepared",
        ScpEvent::AcceptedCommit { .. } => "scp.accepted_commit",
        ScpEvent::TimeoutFired { kind, .. } => match kind {
            TimerKind::Nomination => "scp.timeout.nomination",
            TimerKind::Ballot => "scp.timeout.ballot",
        },
        ScpEvent::Externalized { .. } => "scp.externalized",
        ScpEvent::EnvelopeRejected { reason, .. } => match reason {
            Rejection::BadSignature => "scp.bad_signatures",
            Rejection::MalformedQset => "scp.malformed_qsets",
            Rejection::Insane => "scp.insane_statements",
        },
        ScpEvent::EnvelopeProcessed { kind, .. } => match *kind {
            "nominate" => "scp.envelope_in.nominate",
            "prepare" => "scp.envelope_in.prepare",
            "confirm" => "scp.envelope_in.confirm",
            "externalize" => "scp.envelope_in.externalize",
            _ => "scp.envelope_in.other",
        },
    }
}

/// What one slot's consensus did at this node: the §7.3 measurement
/// points, each taken the first time SCP reported it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotRecord {
    /// When nomination started (ms).
    pub nomination_started_ms: Option<u64>,
    /// When the nomination round in progress started (ms); the decision
    /// ends it.
    pub round_started_ms: Option<u64>,
    /// When the first ballot started (ms).
    pub first_ballot_ms: Option<u64>,
    /// When the slot externalized (ms), and the value it decided.
    pub externalized: Option<(u64, Value)>,
    /// Nomination-round timeouts.
    pub nomination_timeouts: u64,
    /// Ballot timeouts.
    pub ballot_timeouts: u64,
}

impl SlotRecord {
    /// Heap bytes the record holds beyond its own size.
    pub fn resident_bytes(&self) -> u64 {
        self.externalized
            .as_ref()
            .map_or(0, |(_, v)| v.resident_bytes())
    }

    /// Folds `event`, reported at `t_ms`, into the record. Returns the
    /// length of the nomination round it ended, if it ended one: a new
    /// round ends the previous one, and the decision ends the last.
    pub fn note(&mut self, t_ms: u64, event: &ScpEvent) -> Option<u64> {
        let ended = |started: Option<u64>| started.map(|s| t_ms.saturating_sub(s));
        match event {
            ScpEvent::NominationStarted { .. } => {
                self.nomination_started_ms.get_or_insert(t_ms);
            }
            ScpEvent::NominationRoundStarted { .. } => {
                return ended(self.round_started_ms.replace(t_ms));
            }
            ScpEvent::BallotBumped { .. } => {
                self.first_ballot_ms.get_or_insert(t_ms);
            }
            ScpEvent::TimeoutFired { kind, .. } => match kind {
                TimerKind::Nomination => self.nomination_timeouts += 1,
                TimerKind::Ballot => self.ballot_timeouts += 1,
            },
            ScpEvent::Externalized { value, .. } => {
                self.externalized
                    .get_or_insert_with(|| (t_ms, value.clone()));
                return ended(self.round_started_ms.take());
            }
            _ => {}
        }
        None
    }
}
