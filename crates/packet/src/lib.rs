//! Typed packet formats for the DSR/MANET simulator.
//!
//! - [`Route`] / [`Link`] — loop-free source routes and directed links;
//!   [`InlineRoute`] — a route copied by value into an event;
//! - [`Packet`] and its variants — the four DSR network-layer packet kinds
//!   with byte-accurate wire sizes;
//! - [`RoutingAgent`] and [`AgentCommand`] — the contract every routing
//!   agent and the simulation driver share.
//!
//! MAC-layer frames (RTS/CTS/DATA/ACK) live in the `mac` crate; this crate
//! covers everything the routing layer sees.

#![warn(unreachable_pub)]

pub mod agent;
pub mod dsr;
pub mod events;
pub mod route;

pub use agent::{AgentCommand, AgentObservation, RoutingAgent};
pub use dsr::{
    DataPacket, ErrorDelivery, Packet, PacketUid, RouteErrorPkt, RouteReply, RouteRequest,
    ADDR_BYTES, IP_HEADER_BYTES,
};
pub use events::{
    CacheDecision, CacheHitKind, CacheInsertProvenance, CacheRemovalCause, DropReason, NetPacket,
    ProtocolEvent,
};
pub use route::{InlineRoute, InvalidRoute, Link, Route};
