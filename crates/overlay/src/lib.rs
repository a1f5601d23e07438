//! The overlay network substrate (§5.4, §7.5).
//!
//! Production Stellar floods transactions and SCP messages over a partial
//! mesh of peer connections using "a naïve flooding protocol" (the paper
//! explicitly defers structured multicast to future work). This crate
//! provides the pieces the simulator composes into that behaviour:
//!
//! * [`message`] — the flooded payload kinds (SCP envelopes,
//!   transaction sets, transactions) plus the pull-mode advert/demand
//!   control messages, each content-addressed for de-duplication;
//! * [`topology`] — peer-graph builders: full mesh, random k-regular
//!   gossip graphs, and the tiered production-like shape of Fig. 7;
//! * [`engine`] — the sans-I/O [`FloodEngine`]: one node's whole relay
//!   decision (seen-cache test, push versus advert, advert → demand →
//!   payload, tick batching, retries), built from the private
//!   seen-cache, demand-scheduler and payload-cache modules. In: a
//!   message or a tick plus the clock. Out: an ordered list of sends;
//! * [`stats`] — per-node traffic counters (messages and bytes in/out)
//!   backing the §7.4 validator-cost numbers;
//! * [`fault`] — per-link drop/duplicate/delay/reorder fault models for
//!   chaos testing (`stellar-chaos` drives these through the simulator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
mod flood;
pub mod message;
mod pull;
pub mod stats;
pub mod topology;

pub use engine::{Actions, FloodEngine};
pub use fault::{LinkFault, LinkFaultTable};
pub use message::{FloodMessage, Flooded, FloodedData};
pub use pull::{FloodMode, MAX_DEMAND_ATTEMPTS};
pub use stats::{MsgKind, TrafficStats};
pub use topology::PeerGraph;
