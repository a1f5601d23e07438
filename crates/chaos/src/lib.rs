//! # stellar-chaos — fault injection, Byzantine adversaries, invariants
//!
//! The paper's claims are conditional ("safety for intact nodes",
//! "liveness when a quorum survives"); this crate is the apparatus that
//! attacks those conditions on purpose and checks that the guarantees
//! hold exactly when promised. The simulator's run watchdog
//! ([`stellar_sim::watchdog`]) keeps the score: it computes the *intact*
//! set the FBA way and checks, at every close, that no two intact nodes
//! diverge and, in each observation round, that connected intact quorums
//! keep closing ledgers. Four pillars, layered on the discrete-event
//! simulator, attack those conditions:
//!
//! - [`schedule`] — a timed fault-script DSL: crashes and revivals,
//!   network partitions with scheduled heals, and per-link
//!   drop/duplicate/delay/reorder models, all applied at deterministic
//!   points in simulated time.
//! - [`adversary`] — Byzantine drivers for puppet validators, forging
//!   real signed envelopes (equivocating nomination votes, split ballot
//!   confirmations, stale replays, strategic silence) so honest nodes
//!   exercise their full validation paths.
//! - [`cascade`] — staged org-failure campaigns over generated FBAS
//!   topologies: compiles cascade plans into fault schedules (stage
//!   marks, crashes, halt-and-reconfigure healing) and computes the
//!   *survival frontier* analytically from the quorum structure.
//! - [`recovery`] — crash-restart recovery scenarios: the amnesia
//!   equivocation demonstration (reboot a mid-ballot quorum with its
//!   disks intact and with them wiped), randomized restart storms, and
//!   persistence twin runs comparing a rebooted run's ledger headers
//!   against an undisturbed twin.
//!
//! [`runner::ChaosRun`] glues them together; every run from one seed is
//! bit-reproducible, and the resulting [`runner::ChaosReport`] carries
//! the watchdog's violations and the full event trace for replaying any
//! of them.
//!
//! ```
//! use stellar_chaos::adversary::Strategy;
//! use stellar_chaos::runner::{ChaosConfig, ChaosRun};
//! use stellar_chaos::schedule::FaultSchedule;
//! use stellar_sim::scenario::Scenario;
//! use stellar_sim::SimConfig;
//! use stellar_scp::NodeId;
//!
//! let report = ChaosRun::new(ChaosConfig {
//!     sim: SimConfig {
//!         scenario: Scenario::ControlledMesh { n_validators: 5 },
//!         target_ledgers: 2,
//!         seed: 1,
//!         ..SimConfig::default()
//!     },
//!     adversaries: vec![(NodeId(4), Strategy::EquivocateNomination)],
//!     schedule: FaultSchedule::builder()
//!         .crash_at(8_000, NodeId(3))
//!         .revive_at(16_000, NodeId(3))
//!         .build(),
//!     ..ChaosConfig::default()
//! })
//! .run();
//! assert!(report.violations.is_empty(), "{:?}", report.violations);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod cascade;
pub mod recovery;
pub mod runner;
pub mod schedule;

pub use adversary::{Adversary, Injection, Strategy};
pub use cascade::{analyze_cascade, CascadeAnalysis, CascadeOrder, CascadePlan, CascadeStage};
pub use recovery::{
    amnesia_restart_scenario, persistence_twin_run, restart_storm, AmnesiaOutcome, TwinOutcome,
};
pub use runner::{ChaosConfig, ChaosReport, ChaosRun, CollapseKind, FrontierReport, StageMark};
pub use schedule::{FaultAction, FaultSchedule};
pub use stellar_sim::Violation;
