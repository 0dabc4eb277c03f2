//! MAC frames.

use std::fmt;

use sim_core::{NodeId, SimDuration};

/// The four 802.11 DCF frame types the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// A data frame (carries a network-layer payload).
    Data,
    /// Acknowledgement.
    Ack,
}

impl FrameKind {
    /// Whether this is MAC control overhead (everything except data).
    pub fn is_control(self) -> bool {
        !matches!(self, FrameKind::Data)
    }

    /// The frame type's trace spelling.
    pub const fn name(self) -> &'static str {
        match self {
            FrameKind::Rts => "RTS",
            FrameKind::Cts => "CTS",
            FrameKind::Data => "DATA",
            FrameKind::Ack => "ACK",
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A MAC frame generic over the network-layer payload `P` (only `Data`
/// frames carry one).
#[derive(Debug, Clone, PartialEq)]
pub struct MacFrame<P> {
    /// Frame type.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: NodeId,
    /// Addressed node, or [`NodeId::BROADCAST`].
    pub dst: NodeId,
    /// Total frame size in bytes (headers included).
    pub bytes: usize,
    /// 802.11 duration field: time the medium stays reserved *after* this
    /// frame ends. Overhearing nodes set their NAV from it.
    pub nav: SimDuration,
    /// Per-sender data sequence number for duplicate detection (data
    /// frames only).
    pub seq: u64,
    /// Network-layer payload (data frames only).
    pub payload: Option<P>,
}

impl<P> MacFrame<P> {
    /// Whether this frame is addressed to `node` (directly or by broadcast).
    pub fn addressed_to(&self, node: NodeId) -> bool {
        self.dst == node || self.dst.is_broadcast()
    }

    /// Whether this is a broadcast data frame.
    pub fn is_broadcast(&self) -> bool {
        self.dst.is_broadcast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dst: NodeId) -> MacFrame<()> {
        MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(1),
            dst,
            bytes: 100,
            nav: SimDuration::ZERO,
            seq: 0,
            payload: Some(()),
        }
    }

    #[test]
    fn control_classification() {
        assert!(FrameKind::Rts.is_control());
        assert!(FrameKind::Cts.is_control());
        assert!(FrameKind::Ack.is_control());
        assert!(!FrameKind::Data.is_control());
    }

    #[test]
    fn addressing() {
        let f = frame(NodeId::new(2));
        assert!(f.addressed_to(NodeId::new(2)));
        assert!(!f.addressed_to(NodeId::new(3)));
        assert!(!f.is_broadcast());
        let b = frame(NodeId::BROADCAST);
        assert!(b.addressed_to(NodeId::new(7)));
        assert!(b.is_broadcast());
    }

    #[test]
    fn kinds_display() {
        assert_eq!(format!("{}", FrameKind::Rts), "RTS");
        assert_eq!(format!("{}", FrameKind::Data), "DATA");
    }
}
