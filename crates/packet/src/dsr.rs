//! DSR network-layer packets.
//!
//! Four packet kinds exist in DSR, mirroring the IETF draft and the ns-2
//! implementation the paper builds on:
//!
//! - [`DataPacket`] — application data carrying a complete source route;
//! - [`RouteRequest`] — the flooded discovery query, accumulating the path
//!   traversed so far;
//! - [`RouteReply`] — the discovered route, itself source-routed back to
//!   the requester;
//! - [`RouteErrorPkt`] — notification of a broken link, either unicast to
//!   the affected source (base DSR) or MAC-broadcast with conditional
//!   re-broadcast (the paper's *wider error notification*).
//!
//! Every kind reports a [`wire_size`](Packet::wire_size) in bytes, derived
//! from the draft's option formats (4-byte addresses), so MAC transmission
//! times and the *normalized overhead* metric are byte-accurate.

use std::fmt;

use sim_core::{NodeId, SimTime};

use crate::route::{InlineRoute, Link, Route};

/// Size in bytes of an IPv4 header (every DSR packet rides in one).
pub const IP_HEADER_BYTES: usize = 20;
/// Size in bytes of one address in a DSR option.
pub const ADDR_BYTES: usize = 4;
/// Fixed part of the DSR source-route option.
pub const SR_OPTION_FIXED_BYTES: usize = 4;
/// Fixed part of the DSR route-request option (option header + id + target).
pub const RREQ_OPTION_FIXED_BYTES: usize = 8;
/// Fixed part of the DSR route-reply option.
pub const RREP_OPTION_FIXED_BYTES: usize = 4;
/// Fixed part of the DSR route-error option (type, salvage, error source /
/// destination, unreachable address).
pub const RERR_OPTION_FIXED_BYTES: usize = 12;

/// Bytes of a source-route option carrying `route_len` addresses.
fn sr_option_bytes(route_len: usize) -> usize {
    SR_OPTION_FIXED_BYTES + ADDR_BYTES * route_len
}

/// Globally unique packet identifier, for tracing and metrics. Assigned by
/// the simulation driver at origination; copies made while forwarding keep
/// the uid.
pub type PacketUid = u64;

/// An application data packet carrying its full source route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Unique id, stable across hops.
    pub uid: PacketUid,
    /// Originating node (also `route.source()` unless salvaged).
    pub src: NodeId,
    /// Final destination (`route.destination()`).
    pub dst: NodeId,
    /// Application payload size in bytes (paper: 512).
    pub payload_bytes: usize,
    /// Origination instant, for the end-to-end delay metric.
    pub sent_at: SimTime,
    /// The complete source route, including `src` and `dst`.
    pub route: Route,
    /// Index into `route` of the node currently holding the packet.
    pub hop: usize,
    /// How many times intermediate nodes salvaged this packet with a route
    /// from their own cache.
    pub salvage_count: u8,
}

impl DataPacket {
    /// The next hop this packet must be transmitted to.
    ///
    /// # Panics
    ///
    /// Panics if the packet is already at its destination.
    pub fn next_hop(&self) -> NodeId {
        assert!(self.hop + 1 < self.route.len(), "packet already delivered");
        self.route.nodes()[self.hop + 1]
    }

    /// Wire size: IP header + source-route option + payload.
    pub fn wire_size(&self) -> usize {
        IP_HEADER_BYTES + sr_option_bytes(self.route.len()) + self.payload_bytes
    }
}

/// A route discovery query, flooded (or, with TTL 1, asked of neighbors
/// only — the *non-propagating route request* optimization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRequest {
    /// Unique id of this transmission.
    pub uid: PacketUid,
    /// The node performing discovery.
    pub origin: NodeId,
    /// The node being sought.
    pub target: NodeId,
    /// Discovery id, unique per origin; used for duplicate suppression.
    pub request_id: u64,
    /// Path accumulated so far, starting with `origin`. By value, so the
    /// copy every receiver of a flood gets costs no allocation.
    pub path: InlineRoute,
    /// Remaining hops the request may propagate. 1 = non-propagating.
    pub ttl: u8,
    /// A recent route error piggybacked by the origin (*gratuitous route
    /// repair*): receivers purge the broken link before answering from
    /// cache, preventing the very reply that caused the error.
    pub piggyback_error: Option<Link>,
}

impl RouteRequest {
    /// Wire size: IP header + request option with accumulated addresses
    /// (+ the piggybacked error option, if present).
    pub fn wire_size(&self) -> usize {
        let err = if self.piggyback_error.is_some() { RERR_OPTION_FIXED_BYTES } else { 0 };
        IP_HEADER_BYTES + RREQ_OPTION_FIXED_BYTES + ADDR_BYTES * self.path.nodes().len() + err
    }
}

/// A route reply, delivering a discovered route back to the requester.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteReply {
    /// Unique id.
    pub uid: PacketUid,
    /// The route being reported: `origin .. target` of the discovery.
    pub discovered: Route,
    /// Whether an intermediate node produced this reply from its cache
    /// (`false` = the target itself answered). Drives the *percentage of
    /// good replies* metric.
    pub from_cache: bool,
    /// Source route for the reply's own journey back to the requester.
    pub route: Route,
    /// Index into `route` of the current holder.
    pub hop: usize,
    /// Whether this is a *gratuitous* reply from promiscuous listening
    /// (shorter-route advertisement) rather than an answer to a request.
    pub gratuitous: bool,
}

impl RouteReply {
    /// The next hop toward the requester.
    ///
    /// # Panics
    ///
    /// Panics if the reply already arrived.
    pub fn next_hop(&self) -> NodeId {
        assert!(self.hop + 1 < self.route.len(), "reply already delivered");
        self.route.nodes()[self.hop + 1]
    }

    /// Wire size: IP header + reply option carrying the discovered route +
    /// source-route option for its own path.
    pub fn wire_size(&self) -> usize {
        IP_HEADER_BYTES
            + RREP_OPTION_FIXED_BYTES
            + ADDR_BYTES * self.discovered.len()
            + sr_option_bytes(self.route.len())
    }
}

/// A route error reporting a broken link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteErrorPkt {
    /// Unique id of this transmission (re-broadcasts get fresh uids).
    pub uid: PacketUid,
    /// The broken link.
    pub broken: Link,
    /// The node that detected the failure (via link-layer feedback).
    pub detector: NodeId,
    /// Delivery mode: unicast back to the affected source (base DSR) or
    /// MAC broadcast (wider error notification).
    pub delivery: ErrorDelivery,
}

/// How a route error travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorDelivery {
    /// Base DSR: unicast to the source of the failed packet along the
    /// reversed prefix of its route.
    Unicast {
        /// The source being notified.
        to: NodeId,
        /// Source route from the detector back to `to`.
        route: Route,
        /// Index into `route` of the current holder.
        hop: usize,
    },
    /// Wider error notification: one-hop MAC broadcast; receivers decide
    /// whether to re-broadcast (cached + previously used the link).
    Broadcast,
}

impl RouteErrorPkt {
    /// The next hop for a unicast error, or `None` for broadcasts.
    pub fn next_hop(&self) -> Option<NodeId> {
        match &self.delivery {
            ErrorDelivery::Unicast { route, hop, .. } => route.nodes().get(hop + 1).copied(),
            ErrorDelivery::Broadcast => None,
        }
    }

    /// Wire size: IP header + error option (+ source-route option when
    /// unicast).
    pub fn wire_size(&self) -> usize {
        let sr = match &self.delivery {
            ErrorDelivery::Unicast { route, .. } => sr_option_bytes(route.len()),
            ErrorDelivery::Broadcast => 0,
        };
        IP_HEADER_BYTES + RERR_OPTION_FIXED_BYTES + sr
    }
}

/// Any DSR network-layer packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Source-routed application data.
    Data(DataPacket),
    /// Route discovery query.
    Request(RouteRequest),
    /// Route discovery answer.
    Reply(RouteReply),
    /// Broken-link notification.
    Error(RouteErrorPkt),
}

impl Packet {
    /// Unique id of this packet.
    pub fn uid(&self) -> PacketUid {
        match self {
            Packet::Data(p) => p.uid,
            Packet::Request(p) => p.uid,
            Packet::Reply(p) => p.uid,
            Packet::Error(p) => p.uid,
        }
    }

    /// Total bytes this packet occupies on the wire (excluding MAC/PHY
    /// framing, which the MAC layer adds).
    pub fn wire_size(&self) -> usize {
        match self {
            Packet::Data(p) => p.wire_size(),
            Packet::Request(p) => p.wire_size(),
            Packet::Reply(p) => p.wire_size(),
            Packet::Error(p) => p.wire_size(),
        }
    }

    /// Whether this is routing-protocol overhead (anything but data).
    pub fn is_routing_overhead(&self) -> bool {
        !matches!(self, Packet::Data(_))
    }

    /// Short human-readable tag for traces.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Packet::Data(_) => "DATA",
            Packet::Request(_) => "RREQ",
            Packet::Reply(_) => "RREP",
            Packet::Error(_) => "RERR",
        }
    }
}

impl crate::events::NetPacket for Packet {
    fn uid(&self) -> u64 {
        Packet::uid(self)
    }

    fn wire_size(&self) -> usize {
        Packet::wire_size(self)
    }

    fn is_routing_overhead(&self) -> bool {
        Packet::is_routing_overhead(self)
    }

    fn kind_str(&self) -> &'static str {
        Packet::kind_str(self)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Packet::Data(p) => write!(f, "DATA#{} {}->{} via {}", p.uid, p.src, p.dst, p.route),
            Packet::Request(p) => {
                write!(
                    f,
                    "RREQ#{} {}=>{} id={} ttl={}",
                    p.uid, p.origin, p.target, p.request_id, p.ttl
                )
            }
            Packet::Reply(p) => write!(f, "RREP#{} route {}", p.uid, p.discovered),
            Packet::Error(p) => write!(f, "RERR#{} broken {}", p.uid, p.broken),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(ids: &[u16]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId::new(i)).collect()).expect("valid route")
    }

    fn data(ids: &[u16], hop: usize) -> DataPacket {
        let r = route(ids);
        DataPacket {
            uid: 1,
            src: r.source(),
            dst: r.destination(),
            payload_bytes: 512,
            sent_at: SimTime::ZERO,
            route: r,
            hop,
            salvage_count: 0,
        }
    }

    #[test]
    fn data_hop_navigation() {
        assert_eq!(data(&[0, 1, 2], 0).next_hop(), NodeId::new(1));
        assert_eq!(data(&[0, 1, 2], 1).next_hop(), NodeId::new(2));
    }

    #[test]
    #[should_panic(expected = "already delivered")]
    fn next_hop_at_destination_panics() {
        let _ = data(&[0, 1], 1).next_hop();
    }

    #[test]
    fn data_wire_size_grows_with_route() {
        let short = data(&[0, 1], 0).wire_size();
        let long = data(&[0, 1, 2, 3], 0).wire_size();
        assert_eq!(long - short, 2 * ADDR_BYTES);
        assert_eq!(short, 20 + 4 + 2 * 4 + 512);
    }

    #[test]
    fn request_wire_size_counts_path_and_piggyback() {
        let mut req = RouteRequest {
            uid: 2,
            origin: NodeId::new(0),
            target: NodeId::new(9),
            request_id: 1,
            path: InlineRoute::from_slice(&[NodeId::new(0), NodeId::new(1)]),
            ttl: 255,
            piggyback_error: None,
        };
        let plain = req.wire_size();
        assert_eq!(plain, 20 + 8 + 2 * 4);
        req.piggyback_error = Some(Link::new(NodeId::new(3), NodeId::new(4)));
        assert_eq!(req.wire_size(), plain + RERR_OPTION_FIXED_BYTES);
    }

    #[test]
    fn reply_navigation_and_size() {
        let reply = RouteReply {
            uid: 3,
            discovered: route(&[0, 1, 2, 3]),
            from_cache: true,
            route: route(&[2, 1, 0]),
            hop: 0,
            gratuitous: false,
        };
        assert_eq!(reply.next_hop(), NodeId::new(1));
        assert_eq!(reply.wire_size(), 20 + 4 + 4 * 4 + (4 + 3 * 4));
    }

    #[test]
    fn unicast_error_navigation() {
        let err = RouteErrorPkt {
            uid: 4,
            broken: Link::new(NodeId::new(2), NodeId::new(3)),
            detector: NodeId::new(2),
            delivery: ErrorDelivery::Unicast {
                to: NodeId::new(0),
                route: route(&[2, 1, 0]),
                hop: 0,
            },
        };
        assert_eq!(err.next_hop(), Some(NodeId::new(1)));
        assert!(err.wire_size() > IP_HEADER_BYTES + RERR_OPTION_FIXED_BYTES);
    }

    #[test]
    fn broadcast_error_has_no_next_hop() {
        let err = RouteErrorPkt {
            uid: 5,
            broken: Link::new(NodeId::new(2), NodeId::new(3)),
            detector: NodeId::new(2),
            delivery: ErrorDelivery::Broadcast,
        };
        assert_eq!(err.next_hop(), None);
        assert_eq!(err.wire_size(), IP_HEADER_BYTES + RERR_OPTION_FIXED_BYTES);
    }

    #[test]
    fn overhead_classification() {
        assert!(!Packet::Data(data(&[0, 1], 0)).is_routing_overhead());
        let err = RouteErrorPkt {
            uid: 6,
            broken: Link::new(NodeId::new(0), NodeId::new(1)),
            detector: NodeId::new(0),
            delivery: ErrorDelivery::Broadcast,
        };
        assert!(Packet::Error(err).is_routing_overhead());
    }

    #[test]
    fn display_is_nonempty() {
        let p = Packet::Data(data(&[0, 1], 0));
        assert!(format!("{p}").contains("DATA"));
        assert_eq!(p.kind_str(), "DATA");
    }
}
