//! AODV network-layer packets (RFC 3561 formats, sized in bytes).
//!
//! Unlike DSR, AODV packets carry no source routes: data is forwarded
//! hop-by-hop from per-node routing tables, and freshness is governed by
//! destination sequence numbers — the "indirect caching" the paper's
//! conclusion points at.

use std::fmt;
use std::sync::Arc;

use packet::NetPacket;
use sim_core::{NodeId, SimTime};

/// IPv4 header bytes (every AODV packet rides in one).
const IP_HEADER_BYTES: usize = 20;
/// RREQ message body (RFC 3561: 24 bytes).
const RREQ_BYTES: usize = 24;
/// RREP message body (RFC 3561: 20 bytes).
const RREP_BYTES: usize = 20;
/// RERR fixed part (RFC 3561: 4 bytes + 8 per unreachable destination).
const RERR_FIXED_BYTES: usize = 4;
const RERR_DEST_BYTES: usize = 8;

/// Route request, flooded with duplicate suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rreq {
    /// Unique id of this transmission.
    pub uid: u64,
    /// The requesting node.
    pub origin: NodeId,
    /// Origin's sequence number (receivers install the reverse route with
    /// it).
    pub origin_seq: u32,
    /// Discovery id, unique per origin (duplicate suppression key).
    pub request_id: u64,
    /// The node being sought.
    pub target: NodeId,
    /// Last known sequence number for the target (`None` = unknown).
    pub target_seq: Option<u32>,
    /// Hops traversed so far.
    pub hop_count: u8,
    /// Remaining propagation budget (1 = neighbors only).
    pub ttl: u8,
}

/// Route reply, forwarded hop-by-hop along reverse routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rrep {
    /// Unique id of this transmission.
    pub uid: u64,
    /// The node that asked (final recipient of this reply).
    pub origin: NodeId,
    /// The destination the route leads to.
    pub target: NodeId,
    /// The destination's sequence number (route freshness).
    pub target_seq: u32,
    /// Hops from the current holder to `target`.
    pub hop_count: u8,
    /// Whether an intermediate node answered from its table.
    pub from_cache: bool,
}

/// Route error listing unreachable destinations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rerr {
    /// Unique id of this transmission.
    pub uid: u64,
    /// `(destination, its last known sequence number + 1)` pairs. Shared:
    /// every addressee of the broadcast takes a copy of the packet, and a
    /// copy only bumps the count.
    pub unreachable: Arc<[(NodeId, u32)]>,
}

/// Application data, forwarded from routing tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AodvData {
    /// Unique id, stable across hops.
    pub uid: u64,
    /// Originating node.
    pub src: NodeId,
    /// Final destination.
    pub dst: NodeId,
    /// Application payload bytes.
    pub payload_bytes: usize,
    /// Origination instant.
    pub sent_at: SimTime,
    /// Links traversed so far (incremented per forward).
    pub hops_traveled: u8,
}

/// Any AODV network-layer packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AodvPacket {
    /// Route request.
    Rreq(Rreq),
    /// Route reply.
    Rrep(Rrep),
    /// Route error.
    Rerr(Rerr),
    /// Application data.
    Data(AodvData),
}

impl NetPacket for AodvPacket {
    fn uid(&self) -> u64 {
        match self {
            AodvPacket::Rreq(p) => p.uid,
            AodvPacket::Rrep(p) => p.uid,
            AodvPacket::Rerr(p) => p.uid,
            AodvPacket::Data(p) => p.uid,
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            AodvPacket::Rreq(_) => IP_HEADER_BYTES + RREQ_BYTES,
            AodvPacket::Rrep(_) => IP_HEADER_BYTES + RREP_BYTES,
            AodvPacket::Rerr(p) => {
                IP_HEADER_BYTES + RERR_FIXED_BYTES + RERR_DEST_BYTES * p.unreachable.len()
            }
            AodvPacket::Data(p) => IP_HEADER_BYTES + p.payload_bytes,
        }
    }

    fn is_routing_overhead(&self) -> bool {
        !matches!(self, AodvPacket::Data(_))
    }

    fn kind_str(&self) -> &'static str {
        match self {
            AodvPacket::Rreq(_) => "RREQ",
            AodvPacket::Rrep(_) => "RREP",
            AodvPacket::Rerr(_) => "RERR",
            AodvPacket::Data(_) => "DATA",
        }
    }
}

impl fmt::Display for AodvPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AodvPacket::Rreq(p) => {
                write!(
                    f,
                    "RREQ#{} {}=>{} id={} ttl={}",
                    p.uid, p.origin, p.target, p.request_id, p.ttl
                )
            }
            AodvPacket::Rrep(p) => {
                write!(
                    f,
                    "RREP#{} {}<={} seq={} hops={}",
                    p.uid, p.origin, p.target, p.target_seq, p.hop_count
                )
            }
            AodvPacket::Rerr(p) => write!(f, "RERR#{} {} unreachable", p.uid, p.unreachable.len()),
            AodvPacket::Data(p) => write!(f, "DATA#{} {}->{}", p.uid, p.src, p.dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_rfc() {
        let rreq = AodvPacket::Rreq(Rreq {
            uid: 1,
            origin: NodeId::new(0),
            origin_seq: 1,
            request_id: 0,
            target: NodeId::new(9),
            target_seq: None,
            hop_count: 0,
            ttl: 30,
        });
        assert_eq!(rreq.wire_size(), 20 + 24);
        let rerr = AodvPacket::Rerr(Rerr {
            uid: 2,
            unreachable: Arc::from([(NodeId::new(1), 5), (NodeId::new(2), 9)]),
        });
        assert_eq!(rerr.wire_size(), 20 + 4 + 16);
        let data = AodvPacket::Data(AodvData {
            uid: 3,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            payload_bytes: 512,
            sent_at: SimTime::ZERO,
            hops_traveled: 0,
        });
        assert_eq!(data.wire_size(), 532);
    }

    #[test]
    fn overhead_classification() {
        let data = AodvPacket::Data(AodvData {
            uid: 3,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            payload_bytes: 512,
            sent_at: SimTime::ZERO,
            hops_traveled: 0,
        });
        assert!(!data.is_routing_overhead());
        assert_eq!(data.kind_str(), "DATA");
        let rerr = AodvPacket::Rerr(Rerr { uid: 1, unreachable: Arc::from([]) });
        assert!(rerr.is_routing_overhead());
    }
}
