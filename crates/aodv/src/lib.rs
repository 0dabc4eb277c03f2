//! Ad hoc On-demand Distance Vector (AODV) routing on the shared MANET
//! substrate.
//!
//! The reproduced paper closes with: *"We will also explore the
//! possibility of incorporating techniques proposed in this paper to other
//! on-demand routing protocols. An example is AODV that uses caching
//! indirectly when intermediate nodes generate route replies."* This crate
//! implements that comparison target: RFC 3561-style AODV (destination
//! sequence numbers, hop-by-hop forwarding from routing tables, RERRs on
//! link-layer feedback, intermediate replies) running on the exact same
//! mobility / radio / 802.11 stack as the DSR study, via the
//! [`packet::RoutingAgent`] abstraction.
//!
//! # Example
//!
//! ```
//! use aodv::{AodvConfig, AodvNode};
//! use runner::{run_scenario_with, ScenarioConfig};
//! use dsr::DsrConfig;
//!
//! let cfg = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 1);
//! let aodv = AodvConfig::default();
//! let label = aodv.label();
//! let report = run_scenario_with(cfg, label, move |node, rng| {
//!     AodvNode::new(node, aodv.clone(), rng)
//! });
//! assert!(report.delivery_fraction > 0.9);
//! ```

#![warn(unreachable_pub)]

pub mod agent;
pub mod packets;
pub mod table;

pub use agent::{AodvConfig, AodvNode, AodvTimer};
pub use packets::{AodvData, AodvPacket, Rerr, Rrep, Rreq};
pub use table::{RouteEntry, RoutingTable};
