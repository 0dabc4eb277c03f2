//! TCP endpoints riding on a DSR node.
//!
//! [`TcpHost`] wraps a [`dsr::DsrNode`] and implements
//! [`runner::RoutingAgent`], intercepting application data between the
//! driver and DSR: application writes feed per-peer [`TcpSender`]s, data
//! segments delivered by DSR feed [`TcpReceiver`]s (which emit cumulative
//! ACKs back through DSR), and retransmission timers ride alongside DSR's
//! own timers. The routing layer underneath is *unmodified* DSR — exactly
//! the setup of the Holland & Vaidya TCP-over-DSR studies the paper cites.
//!
//! Wire encoding: TCP rides in ordinary DSR data packets; a segment's TCP
//! sequence number travels in the packet's `seq` field, and ACKs are
//! distinguished by their [`TCP_ACK_BYTES`] payload size (valid here
//! because the experiment's data segments are always larger).

use dsr::{DsrCommand, DsrNode, DsrTimer};
use packet::Packet;
use runner::{AgentCommand, RoutingAgent};
use sim_core::{NodeId, SimTime, U64HashMap};

use crate::conn::{SenderAction, TcpConfig, TcpReceiver, TcpSender};

/// Payload size marking a packet as a TCP ACK (TCP/IP header bytes).
pub const TCP_ACK_BYTES: usize = 40;

/// Timers of the combined host: DSR's own plus per-peer retransmission
/// timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostTimer {
    /// A timer belonging to the underlying DSR agent.
    Dsr(DsrTimer),
    /// Retransmission timeout for the connection to `peer`.
    Rto {
        /// The connection's remote endpoint.
        peer: NodeId,
    },
}

/// Bookkeeping carried through the receiver's reorder buffer so in-order
/// delivery reports the original segment's identity.
#[derive(Debug, Clone, Copy)]
struct SegMeta {
    uid: u64,
    src: NodeId,
    sent_at: SimTime,
    bytes: usize,
    hops: usize,
}

type Cmd = AgentCommand<Packet, HostTimer>;

/// A DSR node with TCP endpoints on top.
pub struct TcpHost {
    dsr: DsrNode,
    cfg: TcpConfig,
    senders: U64HashMap<NodeId, TcpSender>,
    receivers: U64HashMap<NodeId, TcpReceiver<SegMeta>>,
    segment_bytes: usize,
}

impl std::fmt::Debug for TcpHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHost")
            .field("node", &self.dsr.id())
            .field("connections", &self.senders.len())
            .finish()
    }
}

impl TcpHost {
    /// Wraps `dsr` with TCP endpoints sending `segment_bytes` data
    /// segments.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` does not exceed [`TCP_ACK_BYTES`] (the
    /// encoding could not distinguish data from ACKs).
    pub fn new(dsr: DsrNode, cfg: TcpConfig, segment_bytes: usize) -> Self {
        assert!(segment_bytes > TCP_ACK_BYTES, "segments must be larger than ACKs");
        TcpHost {
            dsr,
            cfg,
            senders: U64HashMap::default(),
            receivers: U64HashMap::default(),
            segment_bytes,
        }
    }

    /// The sender state for `peer`, if a connection exists (tests).
    pub fn sender(&self, peer: NodeId) -> Option<&TcpSender> {
        self.senders.get(&peer)
    }

    /// Translates inner DSR commands, intercepting TCP traffic deliveries.
    fn translate(&mut self, cmds: Vec<DsrCommand>, now: SimTime, out: &mut Vec<Cmd>) {
        for cmd in cmds {
            match cmd {
                DsrCommand::Send { packet, next_hop, jitter } => {
                    out.push(Cmd::Send { packet, next_hop, jitter });
                }
                DsrCommand::DeliverData { packet } => {
                    if packet.payload_bytes == TCP_ACK_BYTES {
                        // Cumulative ACK for our connection to packet.src.
                        let actions = self
                            .senders
                            .entry(packet.src)
                            .or_insert_with(|| TcpSender::new(self.cfg))
                            .on_ack(packet.seq, now);
                        self.apply_sender_actions(packet.src, actions, now, out);
                    } else {
                        self.receive_segment(packet, now, out);
                    }
                }
                DsrCommand::SetTimer { timer, at } => {
                    out.push(Cmd::SetTimer { timer: HostTimer::Dsr(timer), at });
                }
                DsrCommand::CancelTimer { timer } => {
                    out.push(Cmd::CancelTimer { timer: HostTimer::Dsr(timer) });
                }
                DsrCommand::Drop { uid, reason } => out.push(Cmd::Drop { uid, reason }),
                DsrCommand::Event { event } => out.push(Cmd::Event { event }),
            }
        }
    }

    fn receive_segment(&mut self, packet: packet::DataPacket, now: SimTime, out: &mut Vec<Cmd>) {
        let peer = packet.src;
        let meta = SegMeta {
            uid: packet.uid,
            src: packet.src,
            sent_at: packet.sent_at,
            bytes: packet.payload_bytes,
            hops: packet.route.hops(),
        };
        let delivered = self.receivers.entry(peer).or_default().on_segment(packet.seq, meta);
        for m in delivered {
            out.push(Cmd::Deliver {
                uid: m.uid,
                src: m.src,
                sent_at: m.sent_at,
                bytes: m.bytes,
                hops: m.hops,
            });
        }
        // Always acknowledge (duplicates included — that is what triggers
        // the sender's fast retransmit).
        let ack_seq = self.receivers.get(&peer).expect("just inserted").expected();
        let cmds = self.dsr.originate(peer, TCP_ACK_BYTES, ack_seq, now);
        self.translate(cmds, now, out);
    }

    fn apply_sender_actions(
        &mut self,
        peer: NodeId,
        actions: Vec<SenderAction>,
        now: SimTime,
        out: &mut Vec<Cmd>,
    ) {
        for action in actions {
            match action {
                SenderAction::Transmit { seq, .. } => {
                    let cmds = self.dsr.originate(peer, self.segment_bytes, seq, now);
                    self.translate(cmds, now, out);
                }
                SenderAction::ArmRto => {
                    let rto = self.senders.get(&peer).expect("actions came from this sender").rto();
                    out.push(Cmd::SetTimer { timer: HostTimer::Rto { peer }, at: now + rto });
                }
                SenderAction::CancelRto => {
                    out.push(Cmd::CancelTimer { timer: HostTimer::Rto { peer } });
                }
            }
        }
    }
}

impl RoutingAgent for TcpHost {
    type Packet = Packet;
    type Timer = HostTimer;

    fn start(&mut self, now: SimTime) -> Vec<Cmd> {
        let mut out = Vec::new();
        let cmds = self.dsr.start(now);
        self.translate(cmds, now, &mut out);
        out
    }

    fn originate(
        &mut self,
        dst: NodeId,
        _payload_bytes: usize,
        _seq: u64,
        now: SimTime,
    ) -> Vec<Cmd> {
        // The driver's traffic event is an application write to the socket.
        let mut out = Vec::new();
        let actions =
            self.senders.entry(dst).or_insert_with(|| TcpSender::new(self.cfg)).app_write(now);
        self.apply_sender_actions(dst, actions, now, &mut out);
        out
    }

    fn on_receive(&mut self, from: NodeId, packet: Packet, now: SimTime) -> Vec<Cmd> {
        let mut out = Vec::new();
        let cmds = self.dsr.on_receive(from, packet, now);
        self.translate(cmds, now, &mut out);
        out
    }

    fn on_snoop(&mut self, transmitter: NodeId, packet: &Packet, now: SimTime) -> Vec<Cmd> {
        let mut out = Vec::new();
        let cmds = self.dsr.on_snoop(transmitter, packet, now);
        self.translate(cmds, now, &mut out);
        out
    }

    fn on_tx_failed(&mut self, packet: Packet, next_hop: NodeId, now: SimTime) -> Vec<Cmd> {
        let mut out = Vec::new();
        let cmds = self.dsr.on_tx_failed(packet, next_hop, now);
        self.translate(cmds, now, &mut out);
        out
    }

    fn on_timer(&mut self, timer: HostTimer, now: SimTime) -> Vec<Cmd> {
        let mut out = Vec::new();
        match timer {
            HostTimer::Dsr(t) => {
                let cmds = self.dsr.on_timer(t, now);
                self.translate(cmds, now, &mut out);
            }
            HostTimer::Rto { peer } => {
                if let Some(sender) = self.senders.get_mut(&peer) {
                    let actions = sender.on_rto(now);
                    self.apply_sender_actions(peer, actions, now, &mut out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr::DsrConfig;
    use sim_core::RngFactory;

    fn host(i: u16) -> TcpHost {
        let dsr = DsrNode::new(
            NodeId::new(i),
            DsrConfig::base(),
            RngFactory::new(3).stream("dsr", u64::from(i)),
        );
        TcpHost::new(dsr, TcpConfig::default(), 512)
    }

    #[test]
    fn app_write_triggers_discovery_then_segment() {
        let mut h = host(0);
        let cmds = RoutingAgent::originate(&mut h, NodeId::new(2), 512, 0, SimTime::ZERO);
        // No route yet: the segment lands in DSR's send buffer and a
        // discovery starts; the RTO is armed regardless.
        assert!(cmds.iter().any(|c| matches!(c, Cmd::Send { packet: Packet::Request(_), .. })));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::SetTimer { timer: HostTimer::Rto { .. }, .. })));
        assert_eq!(h.sender(NodeId::new(2)).unwrap().inflight(), 1);
    }

    #[test]
    fn receiver_acks_and_delivers_in_order() {
        let mut h = host(2);
        let route = packet::Route::new(vec![NodeId::new(0), NodeId::new(2)]).unwrap();
        let seg = |seq: u64, uid: u64| {
            Packet::Data(packet::DataPacket {
                uid,
                src: NodeId::new(0),
                dst: NodeId::new(2),
                seq,
                payload_bytes: 512,
                sent_at: SimTime::ZERO,
                route: route.clone(),
                hop: 1,
                salvage_count: 0,
            })
        };
        // Out-of-order segment 1 first: ACK says "still expecting 0",
        // nothing delivered.
        let cmds = h.on_receive(NodeId::new(0), seg(1, 11), SimTime::from_secs(1.0));
        assert!(!cmds.iter().any(|c| matches!(c, Cmd::Deliver { .. })));
        let acks: Vec<u64> = cmds
            .iter()
            .filter_map(|c| match c {
                Cmd::Send { packet: Packet::Data(d), .. } if d.payload_bytes == TCP_ACK_BYTES => {
                    Some(d.seq)
                }
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![0]);
        // Segment 0 arrives: both deliver, cumulative ACK jumps to 2.
        let cmds = h.on_receive(NodeId::new(0), seg(0, 10), SimTime::from_secs(1.1));
        let delivered: Vec<u64> = cmds
            .iter()
            .filter_map(|c| match c {
                Cmd::Deliver { uid, .. } => Some(*uid),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![10, 11]);
        let acks: Vec<u64> = cmds
            .iter()
            .filter_map(|c| match c {
                Cmd::Send { packet: Packet::Data(d), .. } if d.payload_bytes == TCP_ACK_BYTES => {
                    Some(d.seq)
                }
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![2]);
    }

    #[test]
    #[should_panic(expected = "larger than ACKs")]
    fn tiny_segments_rejected() {
        let dsr =
            DsrNode::new(NodeId::new(0), DsrConfig::base(), RngFactory::new(3).stream("dsr", 0));
        let _ = TcpHost::new(dsr, TcpConfig::default(), 40);
    }
}
