//! Deterministic discrete-event simulation of Stellar networks.
//!
//! The paper's evaluation (§7) ran on EC2 instances; this crate replaces
//! the testbed with a seeded discrete-event simulator (see `DESIGN.md`,
//! substitutions). Network propagation is *simulated* (configurable
//! per-link latency distributions); transaction application and bucket
//! merging are *real* — every simulated validator runs the actual ledger
//! and bucket-list code, and ledger-update latency is measured with a
//! wall clock, exactly the split the paper's latency components have.
//!
//! * [`latency`] — seeded link-latency models (LAN, same-region EC2, WAN);
//! * [`events`] — the event queue (deliveries, SCP timer deadlines,
//!   ledger triggers, load arrivals), which holds no timer state, and the
//!   deterministic event trace;
//! * [`loadgen`] — the `generateload` equivalent: synthetic accounts and
//!   Poisson payment load (§7.3);
//! * [`simulation`] — the engine: configuration, event loop, dispatch
//!   and delivery; it hands each event to its node and carries out the
//!   effects that come back;
//! * [`node`] — one node behind one sans-I/O boundary (validator, flood
//!   engine, pacing, Horizon pipeline; one liveness state: live, puppet,
//!   watcher or down), its crash and its reboot from durable state, and
//!   the simulator's per-node hooks: boot, catch-up, inspection;
//! * `horizon` — Horizon workload driving on the observer: admission,
//!   query batches, ingestion cadence;
//! * [`metrics`] — per-ledger latency decomposition (nomination,
//!   balloting, ledger update), timeout counters, message and byte
//!   accounting, percentile helpers, and the run report;
//! * [`scenario`] — canned topologies: the §7.3 controlled setups
//!   (full-mesh majority quorums) and the Fig. 7-like tiered public
//!   network;
//! * [`tracing`] — cross-node trace aggregation: merges per-node span
//!   streams into per-transaction rows and the submit→apply phase-level
//!   latency decomposition (p50/p99 per phase, Fig. 7-style CDF), and
//!   renders causal traces for chaos reports;
//! * [`watchdog`] — the health watchdog: stuck-slot and slow-close
//!   detection plus the ledger-lag gauge, feeding sim and chaos reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
mod horizon;
pub mod latency;
pub mod loadgen;
pub mod metrics;
pub mod node;
pub mod scenario;
pub mod simulation;
pub mod tracing;
pub mod watchdog;

pub use latency::LatencyModel;
pub use metrics::{percentile, SimReport};
pub use scenario::Scenario;
pub use simulation::{SimConfig, Simulation};
pub use tracing::{build_tx_traces, phase_stats, render_causal_trace, PhaseStats, TxTrace};
pub use watchdog::{HealthAlert, HealthWatchdog, WatchdogConfig};
