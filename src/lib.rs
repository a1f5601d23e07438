//! # stellar — a reproduction of "Fast and secure global payments with Stellar" (SOSP 2019)
//!
//! This facade crate re-exports the whole workspace under one name. The
//! pieces, bottom-up:
//!
//! | Layer | Crate | Paper section |
//! |-------|-------|---------------|
//! | Hashing, signatures, deterministic codec | [`crypto`] | — |
//! | SCP: federated Byzantine agreement | [`scp`] | §3 |
//! | Quorum-health analysis & tier synthesis | [`quorum`] | §6 |
//! | Ledger, transactions, order book, path payments | [`ledger`] | §5.1–§5.2 |
//! | Bucket list & history archive | [`buckets`] | §5.1, §5.4 |
//! | Durable node state (simulated disk, write-ahead persistence) | [`persist`] | §3, §5.4 |
//! | Herder: consensus values, upgrades, validators | [`herder`] | §5.3 |
//! | Horizon, bridge, compliance, federation | [`horizon`] | §5.4, Fig. 5 |
//! | Overlay: flooding, topology, traffic stats | [`overlay`] | §5.4 |
//! | Discrete-event simulation & experiments | [`sim`] | §7 |
//! | Fault injection, Byzantine adversaries, invariant monitoring | [`chaos`] | §3, §6 |
//! | Metrics registry, flight recorder, JSON export | [`telemetry`] | §7 |
//!
//! ## Quickstart
//!
//! Run a 4-validator network for five ledgers with payment load:
//!
//! ```
//! use stellar::sim::scenario::Scenario;
//! use stellar::sim::{SimConfig, Simulation};
//!
//! let report = Simulation::new(SimConfig {
//!     scenario: Scenario::ControlledMesh { n_validators: 4 },
//!     n_accounts: 100,
//!     tx_rate: 10.0,
//!     target_ledgers: 5,
//!     ..SimConfig::default()
//! })
//! .run();
//! assert!(report.ledgers.len() >= 5);
//! println!("mean consensus latency: {:.1} ms", report.mean_consensus_ms());
//! ```
//!
//! See `examples/` for richer scenarios: cross-border path payments,
//! token issuance with KYC, network-resilience drills, and governance
//! upgrades.

#![forbid(unsafe_code)]

pub use stellar_buckets as buckets;
pub use stellar_chaos as chaos;
pub use stellar_crypto as crypto;
pub use stellar_herder as herder;
pub use stellar_horizon as horizon;
pub use stellar_ledger as ledger;
pub use stellar_overlay as overlay;
pub use stellar_persist as persist;
pub use stellar_quorum as quorum;
pub use stellar_scp as scp;
pub use stellar_sim as sim;
pub use stellar_store as store;
pub use stellar_telemetry as telemetry;
