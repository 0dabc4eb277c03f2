//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the MANET simulator used to reproduce
//! *Marina & Das, "Performance of Route Caching Strategies in Dynamic Source
//! Routing" (ICDCS 2001)*. It provides:
//!
//! - [`SimTime`] / [`SimDuration`] — integer nanosecond simulated time, so
//!   event ordering is exact and runs are bit-for-bit reproducible;
//! - [`EventQueue`] — a cancellable priority queue of timestamped events
//!   with deterministic FIFO tie-breaking;
//! - [`rng`] — seeded, labelled random-number streams so that independent
//!   model components (mobility, traffic, MAC backoff, ...) draw from
//!   decoupled sequences derived from a single scenario seed;
//! - [`testkit`] — the seeded case loop the workspace's property tests and
//!   reference-model differentials run on.
//!
//! # Example
//!
//! ```
//! use sim_core::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_secs(1.0), "beacon");
//! let id = q.schedule(SimTime::from_secs(2.0), "timeout");
//! q.cancel(id);
//! let (at, ev) = q.pop().unwrap();
//! assert_eq!(ev, "beacon");
//! assert_eq!(at, SimTime::from_secs(1.0));
//! assert!(q.pop().is_none()); // the timeout was cancelled
//! ```

#![warn(unreachable_pub)]

pub mod event;
pub mod growth;
pub mod hash;
pub mod node;
pub mod rng;
pub mod testkit;
pub mod time;

pub use event::{EventId, EventQueue};
pub use hash::{U64HashMap, U64HashSet, U64Hasher};
pub use node::NodeId;
pub use rng::{RngFactory, SimRng};
pub use time::{SimDuration, SimTime};
