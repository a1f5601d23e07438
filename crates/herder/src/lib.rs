//! The herder: Stellar's replicated state machine on top of SCP (§5).
//!
//! SCP agrees on opaque byte strings; the herder gives them meaning. For
//! each ledger, the consensus value is a [`StellarValue`]: a transaction
//! set hash, a close time, and a set of upgrades (§5.3). The herder:
//!
//! * assembles candidate transaction sets from its [`queue`] of pending
//!   transactions;
//! * validates and *combines* nominated values — most operations win, ties
//!   break by fees then hash; close times take the max; upgrades union;
//! * votes on [`upgrade`]s according to its governance role (§5.3:
//!   governing validators nominate *desired* upgrades, accept *valid*
//!   ones, and never accept invalid ones; non-governing validators echo);
//! * on externalization, applies the transaction set to the ledger,
//!   updates the bucket list, patches the snapshot hash into the header,
//!   and publishes to the history archive.
//!
//! [`validator::Validator`] packages an
//! [`stellar_scp::ScpNode`] with a [`herder::Herder`]
//! into the complete node the overlay and simulator drive. [`record`]
//! holds what a validator keeps of its own consensus, read off SCP's
//! events: the counter each bumps, the flight-recorder payload and the
//! per-slot measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod herder;
pub mod queue;
pub mod record;
pub mod upgrade;
pub mod validator;
pub mod value;

pub use herder::{CloseEvent, Herder};
pub use queue::TxQueue;
pub use record::{SlotRecord, Traced};
pub use upgrade::{Upgrade, UpgradePolicy};
pub use validator::Validator;
pub use value::StellarValue;
