//! IEEE 802.11 DCF MAC layer for the MANET simulator.
//!
//! Per-node [`Dcf`] state machines implement CSMA/CA with RTS/CTS/ACK,
//! virtual carrier sense (NAV), slotted exponential backoff, retry limits
//! with **link-layer failure feedback** (the signal DSR route maintenance
//! relies on), and a control-first bounded interface queue — mirroring the
//! ns-2 CMU Monarch MAC used by the reproduced paper.
//!
//! The machine is driven by a simulation driver through explicit inputs and
//! [`MacCommand`] outputs; see the `dcf` module docs for the contract.

#![warn(unreachable_pub)]

pub mod config;
pub mod dcf;
pub mod frame;
pub mod queue;

pub use config::MacConfig;
pub use dcf::{Dcf, MacCommand, MacTimer};
pub use frame::{FrameKind, MacFrame};
pub use queue::{IfQueue, Priority, QueuedPacket};
