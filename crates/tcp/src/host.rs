//! TCP endpoints riding on a DSR node.
//!
//! [`TcpHost`] wraps a [`dsr::DsrNode`] and implements
//! [`packet::RoutingAgent`], intercepting application data between the
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

use dsr::{DsrNode, DsrTimer};
use packet::{AgentCommand, Packet, RoutingAgent};
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

type Cmd = AgentCommand<Packet, HostTimer>;

/// A DSR node with TCP endpoints on top.
pub struct TcpHost {
    dsr: DsrNode,
    cfg: TcpConfig,
    senders: U64HashMap<NodeId, TcpSender>,
    /// Each peer's reorder buffer holds the `Deliver` a segment becomes
    /// once everything before it has arrived.
    receivers: U64HashMap<NodeId, TcpReceiver<Cmd>>,
    segment_bytes: usize,
    /// Scratch for the DSR node's commands, before [`Self::translate`]
    /// lifts them. A DSR input made while it is draining (the ACK a
    /// delivered segment sends) finds it taken and uses a fresh one.
    dsr_cmds: Vec<AgentCommand<Packet, DsrTimer>>,
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
            dsr_cmds: Vec::new(),
        }
    }

    /// The sender state for `peer`, if a connection exists (tests).
    pub fn sender(&self, peer: NodeId) -> Option<&TcpSender> {
        self.senders.get(&peer)
    }

    /// Feeds one input to the DSR node underneath through the scratch
    /// buffer and lifts its commands into `out`.
    fn dsr_input(
        &mut self,
        now: SimTime,
        out: &mut Vec<Cmd>,
        input: impl FnOnce(&mut DsrNode, &mut Vec<AgentCommand<Packet, DsrTimer>>),
    ) {
        let mut cmds = std::mem::take(&mut self.dsr_cmds);
        input(&mut self.dsr, &mut cmds);
        self.translate(&mut cmds, now, out);
        self.dsr_cmds = cmds;
    }

    /// Drains inner DSR commands onto the host's timers, intercepting TCP
    /// traffic deliveries.
    fn translate(
        &mut self,
        cmds: &mut Vec<AgentCommand<Packet, DsrTimer>>,
        now: SimTime,
        out: &mut Vec<Cmd>,
    ) {
        for cmd in cmds.drain(..) {
            match cmd {
                AgentCommand::Send { packet, next_hop, jitter } => {
                    out.push(Cmd::Send { packet, next_hop, jitter });
                }
                AgentCommand::Deliver { src, seq, bytes: TCP_ACK_BYTES, .. } => {
                    // Cumulative ACK for our connection to src.
                    let actions = self
                        .senders
                        .entry(src)
                        .or_insert_with(|| TcpSender::new(self.cfg))
                        .on_ack(seq, now);
                    self.apply_sender_actions(src, actions, now, out);
                }
                AgentCommand::Deliver { uid, src, seq, sent_at, bytes, hops } => {
                    let segment = Cmd::Deliver { uid, src, seq, sent_at, bytes, hops };
                    self.receive_segment(src, seq, segment, now, out);
                }
                AgentCommand::SetTimer { timer, at } => {
                    out.push(Cmd::SetTimer { timer: HostTimer::Dsr(timer), at });
                }
                AgentCommand::CancelTimer { timer } => {
                    out.push(Cmd::CancelTimer { timer: HostTimer::Dsr(timer) });
                }
                AgentCommand::Drop { uid, reason } => out.push(Cmd::Drop { uid, reason }),
                AgentCommand::Event { event } => out.push(Cmd::Event { event }),
            }
        }
    }

    fn receive_segment(
        &mut self,
        peer: NodeId,
        seq: u64,
        segment: Cmd,
        now: SimTime,
        out: &mut Vec<Cmd>,
    ) {
        out.extend(self.receivers.entry(peer).or_default().on_segment(seq, segment));
        // Always acknowledge (duplicates included — that is what triggers
        // the sender's fast retransmit).
        let ack_seq = self.receivers.get(&peer).expect("just inserted").expected();
        self.dsr_input(now, out, |dsr, cmds| {
            dsr.originate(peer, TCP_ACK_BYTES, ack_seq, now, cmds)
        });
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
                    let bytes = self.segment_bytes;
                    self.dsr_input(now, out, |dsr, cmds| {
                        dsr.originate(peer, bytes, seq, now, cmds)
                    });
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

    fn start(&mut self, now: SimTime, out: &mut Vec<Cmd>) {
        self.dsr_input(now, out, |dsr, cmds| dsr.start(now, cmds));
    }

    fn originate(
        &mut self,
        dst: NodeId,
        _payload_bytes: usize,
        _seq: u64,
        now: SimTime,
        out: &mut Vec<Cmd>,
    ) {
        // The driver's traffic event is an application write to the socket.
        let actions =
            self.senders.entry(dst).or_insert_with(|| TcpSender::new(self.cfg)).app_write(now);
        self.apply_sender_actions(dst, actions, now, out);
    }

    fn on_receive(&mut self, from: NodeId, packet: Packet, now: SimTime, out: &mut Vec<Cmd>) {
        self.dsr_input(now, out, |dsr, cmds| dsr.on_receive(from, packet, now, cmds));
    }

    fn on_snoop(&mut self, transmitter: NodeId, packet: &Packet, now: SimTime, out: &mut Vec<Cmd>) {
        self.dsr_input(now, out, |dsr, cmds| dsr.on_snoop(transmitter, packet, now, cmds));
    }

    fn on_tx_failed(&mut self, packet: Packet, next_hop: NodeId, now: SimTime, out: &mut Vec<Cmd>) {
        self.dsr_input(now, out, |dsr, cmds| dsr.on_tx_failed(packet, next_hop, now, cmds));
    }

    /// Churn revival: the DSR node underneath reboots, and every
    /// connection with segments in flight gets back the retransmission
    /// timer the driver cancelled, so the transport retries over the
    /// rebooted router. Connection state survives.
    fn on_revival(&mut self, now: SimTime, out: &mut Vec<Cmd>) {
        self.dsr_input(now, out, |dsr, cmds| dsr.on_revival(now, cmds));
        let mut peers: Vec<NodeId> =
            self.senders.iter().filter(|(_, s)| s.inflight() > 0).map(|(&p, _)| p).collect();
        peers.sort_unstable();
        for peer in peers {
            let rto = self.senders[&peer].rto();
            out.push(Cmd::SetTimer { timer: HostTimer::Rto { peer }, at: now + rto });
        }
    }

    fn on_timer(&mut self, timer: HostTimer, now: SimTime, out: &mut Vec<Cmd>) {
        match timer {
            HostTimer::Dsr(t) => self.dsr_input(now, out, |dsr, cmds| dsr.on_timer(t, now, cmds)),
            HostTimer::Rto { peer } => {
                if let Some(sender) = self.senders.get_mut(&peer) {
                    let actions = sender.on_rto(now);
                    self.apply_sender_actions(peer, actions, now, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr::DsrConfig;
    use sim_core::RngFactory;

    /// The commands one agent input appends to an empty buffer.
    fn cmds_of(input: impl FnOnce(&mut Vec<Cmd>)) -> Vec<Cmd> {
        let mut cmds = Vec::new();
        input(&mut cmds);
        cmds
    }

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
        let cmds = cmds_of(|sink| {
            RoutingAgent::originate(&mut h, NodeId::new(2), 512, 0, SimTime::ZERO, sink)
        });
        // No route yet: the segment lands in DSR's send buffer and a
        // discovery starts; the RTO is armed regardless.
        assert!(cmds.iter().any(|c| matches!(c, Cmd::Send { packet: Packet::Request(_), .. })));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::SetTimer { timer: HostTimer::Rto { .. }, .. })));
        assert_eq!(h.sender(NodeId::new(2)).unwrap().inflight(), 1);
    }

    #[test]
    fn revival_reboots_dsr_and_rearms_the_rto_of_each_busy_sender() {
        let mut h = host(0);
        let cmds = cmds_of(|sink| h.originate(NodeId::new(2), 512, 0, SimTime::ZERO, sink));
        let Some(&Cmd::Event { event: packet::ProtocolEvent::DataOriginated { uid } }) =
            cmds.first()
        else {
            panic!("the segment is announced first: {cmds:?}")
        };
        let cmds = cmds_of(|sink| h.on_revival(SimTime::from_secs(2.0), sink));
        // The segment DSR was holding dies with the reboot; DSR's tick and
        // the connection's RTO come back.
        assert!(cmds.contains(&Cmd::Drop { uid, reason: packet::DropReason::NodeReset }));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::SetTimer { timer: HostTimer::Dsr(DsrTimer::Tick), .. })));
        let rto = h.sender(NodeId::new(2)).unwrap().rto();
        assert!(cmds.contains(&Cmd::SetTimer {
            timer: HostTimer::Rto { peer: NodeId::new(2) },
            at: SimTime::from_secs(2.0) + rto,
        }));
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
        let cmds =
            cmds_of(|sink| h.on_receive(NodeId::new(0), seg(1, 11), SimTime::from_secs(1.0), sink));
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
        let cmds =
            cmds_of(|sink| h.on_receive(NodeId::new(0), seg(0, 10), SimTime::from_secs(1.1), sink));
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
