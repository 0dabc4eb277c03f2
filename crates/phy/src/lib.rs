//! Radio physical layer for the MANET simulator.
//!
//! Reproduces the ns-2 WaveLAN model the paper's evaluation runs on:
//!
//! - [`propagation`] — two-ray-ground/Friis propagation with the stock
//!   ns-2 `WirelessPhy` constants (~550 m carrier-sense range, capture
//!   ratio 10); [`RadioConfig`] carries the reception threshold (250 m);
//! - [`ReceiverState`] — per-node reception state machine handling
//!   collisions, capture, and half-duplex constraints;
//! - [`for_each_link`] — who senses a transmitter, at what power and after
//!   what delay; [`plan_arrivals_indexed_into`] — the same per frame, as
//!   start and end instants.
//!
//! The crate's tests carry the receiver-level reference model
//! (`differential.rs`): one arrival stream replayed through the lazy envelope
//! and through an eager fold-at-every-boundary receiver, identical outcomes
//! demanded.
//!
//! # Example
//!
//! ```
//! use phy::propagation::{rx_power_w, CS_THRESHOLD_W};
//! use phy::RadioConfig;
//!
//! let rx = RadioConfig::wavelan().rx_threshold_w;
//! assert!(rx_power_w(240.0) >= rx);
//! assert!(rx_power_w(260.0) < rx);
//! assert!(rx_power_w(500.0) >= CS_THRESHOLD_W); // sensed, but not decodable
//! ```

#![warn(unreachable_pub)]

#[cfg(test)]
mod differential;
pub mod medium;
pub mod propagation;
pub mod receiver;

pub use medium::{for_each_link, plan_arrivals_indexed_into, Arrival, TxIdSource};
pub use propagation::{RadioConfig, SPEED_OF_LIGHT};
pub use receiver::{ArrivalVerdict, PendingArrival, ReceiverState, TxId, SEQ_MAX};
