//! The AODV protocol agent.
//!
//! Implements RFC 3561's core machinery on the same substrate as DSR:
//! route discovery by flooded RREQs with destination sequence numbers,
//! hop-by-hop RREP forwarding along reverse routes, table-driven data
//! forwarding, and RERRs on link-layer failure. Hello messages are off —
//! link breakage comes from 802.11 feedback, exactly as in the CMU ns-2
//! studies this codebase reproduces.
//!
//! Caching shows up *indirectly* (the paper's phrase): the routing table
//! is a per-destination cache whose freshness is governed by sequence
//! numbers and whose staleness is bounded by the active-route timeout —
//! the protocol-native analogues of the paper's negative caches and
//! timer-based expiry.

use std::sync::Arc;

use packet::{AgentCommand, DropReason, ProtocolEvent, RoutingAgent};
use sim_core::rng::uniform;
use sim_core::{NodeId, SimDuration, SimRng, SimTime};

use dsr::request_table::{BROADCAST_JITTER, NONPROP_TIMEOUT};
use dsr::{PendingData, RequestTable, SendBuffer};

use crate::packets::{AodvData, AodvPacket, Rerr, Rrep, Rreq};
use crate::table::RoutingTable;

/// TTL for network-wide request floods.
const FLOOD_TTL: u8 = 32;
/// Hop budget for data packets (guards against forwarding loops during
/// convergence).
const DATA_TTL: u8 = 32;
/// How long an unused route stays valid (RFC 3561's default is 3 s; the
/// ns-2 comparative studies used longer values).
const ACTIVE_ROUTE_TIMEOUT: SimDuration = SimDuration::from_micros_u64(10_000_000);
/// Lifetime of the forward route a reply installs.
const MY_ROUTE_TIMEOUT: SimDuration = SimDuration::from_micros_u64(20_000_000);

/// AODV configuration. Discovery runs DSR's schedule
/// ([`dsr::request_table`]): a TTL-1 probe, then an expanding-ring search
/// (RFC 3561 6.4: TTL 3, 5, 7) before network-wide floods; sources buffer
/// in DSR's [`SendBuffer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AodvConfig {
    /// Whether intermediate nodes with fresh-enough routes answer requests
    /// (the protocol's "indirect caching"; disable for the ablation).
    pub intermediate_replies: bool,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig { intermediate_replies: true }
    }
}

impl AodvConfig {
    /// Label for result tables.
    pub fn label(&self) -> String {
        if self.intermediate_replies {
            "AODV".to_string()
        } else {
            "AODV-noIR".to_string()
        }
    }
}

/// Timers the agent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AodvTimer {
    /// Periodic housekeeping (route expiry sweep, buffer purge).
    Tick,
    /// The outstanding discovery for this target timed out.
    RequestTimeout(NodeId),
}

type Cmd = AgentCommand<AodvPacket, AodvTimer>;

/// Per-node AODV protocol entity.
pub struct AodvNode {
    id: NodeId,
    cfg: AodvConfig,
    table: RoutingTable,
    own_seq: u32,
    send_buffer: SendBuffer,
    requests: RequestTable,
    uid_counter: u64,
    rng: SimRng,
    /// Scratch: the destinations waiting in the send buffer, while a flush
    /// screens them.
    flush_dsts: Vec<NodeId>,
    /// Scratch: the routable `(destination, next hop)` pairs a flush sends
    /// to.
    flush_routes: Vec<(NodeId, NodeId)>,
    /// Scratch: the `(destination, sequence number)` pairs of the route
    /// error being built.
    rerr_buf: Vec<(NodeId, u32)>,
}

impl std::fmt::Debug for AodvNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AodvNode")
            .field("id", &self.id)
            .field("routes", &self.table.len())
            .field("buffered", &self.send_buffer.len())
            .finish()
    }
}

impl AodvNode {
    /// Creates the agent for `node`.
    pub fn new(node: NodeId, cfg: AodvConfig, rng: SimRng) -> Self {
        AodvNode {
            id: node,
            table: RoutingTable::new(),
            own_seq: 0,
            send_buffer: SendBuffer::default(),
            requests: RequestTable::default(),
            uid_counter: 0,
            rng,
            flush_dsts: Vec::new(),
            flush_routes: Vec::new(),
            rerr_buf: Vec::new(),
            cfg,
        }
    }

    /// This agent's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the routing table (tests, examples).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Packets currently waiting for a route.
    pub fn buffered(&self) -> usize {
        self.send_buffer.len()
    }

    fn fresh_uid(&mut self) -> u64 {
        let uid = (self.id.index() as u64) << 40 | self.uid_counter;
        self.uid_counter += 1;
        uid
    }

    fn jitter(&mut self) -> SimDuration {
        let max = BROADCAST_JITTER.as_secs();
        SimDuration::from_secs(uniform(&mut self.rng, 0.0, max))
    }

    // ------------------------------------------------------------------
    // Discovery
    // ------------------------------------------------------------------

    fn ensure_discovery(&mut self, target: NodeId, now: SimTime, cmds: &mut Vec<Cmd>) {
        if self.requests.discovering(target) {
            return;
        }
        let request_id = self.requests.start(target);
        self.send_request(target, request_id, 1, cmds);
        cmds.push(Cmd::SetTimer {
            timer: AodvTimer::RequestTimeout(target),
            at: now + NONPROP_TIMEOUT,
        });
    }

    fn send_request(&mut self, target: NodeId, request_id: u64, ttl: u8, cmds: &mut Vec<Cmd>) {
        // RFC 3561: increment own sequence number before originating a RREQ.
        self.own_seq += 1;
        let rreq = Rreq {
            uid: self.fresh_uid(),
            origin: self.id,
            origin_seq: self.own_seq,
            request_id,
            target,
            target_seq: self.table.known_seq(target),
            hop_count: 0,
            ttl,
        };
        cmds.push(Cmd::Event { event: ProtocolEvent::DiscoveryStarted { target, flood: ttl > 1 } });
        cmds.push(Cmd::Send {
            packet: AodvPacket::Rreq(rreq),
            next_hop: NodeId::BROADCAST,
            jitter: SimDuration::ZERO,
        });
    }

    fn handle_rreq(&mut self, mut rreq: Rreq, from: NodeId, now: SimTime, cmds: &mut Vec<Cmd>) {
        if rreq.origin == self.id {
            return;
        }
        // Install/refresh the reverse route to the origin via the
        // transmitter.
        self.table.update(
            rreq.origin,
            from,
            rreq.hop_count + 1,
            rreq.origin_seq,
            ACTIVE_ROUTE_TIMEOUT,
            now,
        );
        if from != rreq.origin {
            self.table.update(from, from, 1, 0, ACTIVE_ROUTE_TIMEOUT, now);
        }
        self.flush_send_buffer(now, cmds);
        if !self.requests.note_seen(rreq.origin, rreq.request_id) {
            return; // duplicate copy
        }
        if rreq.target == self.id {
            // RFC: destination sets its sequence to max(own, requested).
            if let Some(ts) = rreq.target_seq {
                self.own_seq = self.own_seq.max(ts);
            }
            self.own_seq += 1;
            self.reply(rreq.origin, self.id, self.own_seq, 0, false, from, cmds);
            return;
        }
        if self.cfg.intermediate_replies {
            if let Some(entry) = self.table.valid_entry(rreq.target, now) {
                let fresh_enough = rreq.target_seq.is_none_or(|ts| entry.dst_seq >= ts);
                if fresh_enough {
                    let (seq, hops) = (entry.dst_seq, entry.hop_count);
                    self.table.add_precursor(rreq.target, from);
                    self.reply(rreq.origin, rreq.target, seq, hops, true, from, cmds);
                    return; // quench the flood here
                }
            }
        }
        if rreq.ttl > 1 {
            rreq.ttl -= 1;
            rreq.hop_count += 1;
            rreq.uid = self.fresh_uid();
            let jitter = self.jitter();
            cmds.push(Cmd::Send {
                packet: AodvPacket::Rreq(rreq),
                next_hop: NodeId::BROADCAST,
                jitter,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn reply(
        &mut self,
        origin: NodeId,
        target: NodeId,
        target_seq: u32,
        hop_count: u8,
        from_cache: bool,
        reverse_hop: NodeId,
        cmds: &mut Vec<Cmd>,
    ) {
        cmds.push(Cmd::Event { event: ProtocolEvent::ReplyOriginated { from_cache } });
        let rrep =
            Rrep { uid: self.fresh_uid(), origin, target, target_seq, hop_count, from_cache };
        cmds.push(Cmd::Send {
            packet: AodvPacket::Rrep(rrep),
            next_hop: reverse_hop,
            jitter: SimDuration::ZERO,
        });
    }

    fn handle_rrep(&mut self, mut rrep: Rrep, from: NodeId, now: SimTime, cmds: &mut Vec<Cmd>) {
        // Install/refresh the forward route to the reply's target.
        self.table.update(
            rrep.target,
            from,
            rrep.hop_count + 1,
            rrep.target_seq,
            MY_ROUTE_TIMEOUT,
            now,
        );
        if from != rrep.target {
            self.table.update(from, from, 1, 0, ACTIVE_ROUTE_TIMEOUT, now);
        }
        if rrep.origin == self.id {
            cmds.push(Cmd::Event { event: ProtocolEvent::ReplyAccepted { discovered: None } });
            if self.requests.finish(rrep.target) {
                cmds.push(Cmd::CancelTimer { timer: AodvTimer::RequestTimeout(rrep.target) });
            }
            self.flush_send_buffer(now, cmds);
            return;
        }
        // Forward along the reverse route toward the requester.
        let Some(back) = self.table.valid_entry(rrep.origin, now).map(|e| e.next_hop) else {
            cmds.push(Cmd::Drop { uid: rrep.uid, reason: DropReason::ControlUndeliverable });
            return;
        };
        // Precursor bookkeeping for later route errors.
        self.table.add_precursor(rrep.target, back);
        rrep.hop_count += 1;
        cmds.push(Cmd::Send {
            packet: AodvPacket::Rrep(rrep),
            next_hop: back,
            jitter: SimDuration::ZERO,
        });
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn send_data(&mut self, pending: PendingData, next_hop: NodeId, cmds: &mut Vec<Cmd>) {
        let data = AodvData {
            uid: pending.uid,
            src: self.id,
            dst: pending.dst,
            payload_bytes: pending.payload_bytes,
            sent_at: pending.sent_at,
            hops_traveled: 0,
        };
        cmds.push(Cmd::Send {
            packet: AodvPacket::Data(data),
            next_hop,
            jitter: SimDuration::ZERO,
        });
    }

    fn handle_data(&mut self, mut data: AodvData, from: NodeId, now: SimTime, cmds: &mut Vec<Cmd>) {
        if data.dst == self.id {
            cmds.push(Cmd::Deliver {
                uid: data.uid,
                src: data.src,
                sent_at: data.sent_at,
                bytes: data.payload_bytes,
                hops: usize::from(data.hops_traveled) + 1,
            });
            // Active traffic keeps the reverse route alive.
            self.table.refresh(data.src, ACTIVE_ROUTE_TIMEOUT, now);
            return;
        }
        if data.hops_traveled >= DATA_TTL {
            cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::TtlExpired });
            return;
        }
        match self.table.valid_entry(data.dst, now).map(|e| e.next_hop) {
            Some(next_hop) => {
                // Forwarding refreshes the routes involved (RFC 6.2).
                self.table.refresh(data.dst, ACTIVE_ROUTE_TIMEOUT, now);
                self.table.refresh(data.src, ACTIVE_ROUTE_TIMEOUT, now);
                self.table.refresh(next_hop, ACTIVE_ROUTE_TIMEOUT, now);
                self.table.add_precursor(data.dst, from);
                data.hops_traveled += 1;
                cmds.push(Cmd::Send {
                    packet: AodvPacket::Data(data),
                    next_hop,
                    jitter: SimDuration::ZERO,
                });
            }
            None => {
                // No route: drop and report the destination unreachable.
                cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::NoForwardingEntry });
                let seq = self.table.known_seq(data.dst).map_or(1, |s| s.saturating_add(1));
                self.send_rerr(&[(data.dst, seq)], cmds);
            }
        }
    }

    /// Broadcasts a route error listing `unreachable` (nothing if it is
    /// empty). The list is copied once, into the packet's shared list.
    fn send_rerr(&mut self, unreachable: &[(NodeId, u32)], cmds: &mut Vec<Cmd>) {
        if unreachable.is_empty() {
            return;
        }
        cmds.push(Cmd::Event { event: ProtocolEvent::RouteErrorSent { wider: false } });
        let rerr = Rerr { uid: self.fresh_uid(), unreachable: Arc::from(unreachable) };
        // RFC 3561 6.11: broadcast when multiple precursors are affected.
        let jitter = self.jitter();
        cmds.push(Cmd::Send {
            packet: AodvPacket::Rerr(rerr),
            next_hop: NodeId::BROADCAST,
            jitter,
        });
    }

    fn handle_rerr(&mut self, rerr: Rerr, from: NodeId, cmds: &mut Vec<Cmd>) {
        // Invalidate affected routes that go through the sender; propagate
        // only what actually changed here.
        let mut propagate = std::mem::take(&mut self.rerr_buf);
        for &(dst, seq) in rerr.unreachable.iter() {
            if self.table.invalidate_from_error(dst, seq, from) {
                propagate.push((dst, seq));
            }
        }
        self.send_rerr(&propagate, cmds);
        propagate.clear();
        self.rerr_buf = propagate;
    }

    // ------------------------------------------------------------------
    // Buffer / discovery plumbing
    // ------------------------------------------------------------------

    fn flush_send_buffer(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        if self.send_buffer.is_empty() {
            return;
        }
        // Every destination is screened before anything is sent.
        let mut dsts = std::mem::take(&mut self.flush_dsts);
        let mut routable = std::mem::take(&mut self.flush_routes);
        self.send_buffer.destinations_into(&mut dsts);
        routable.extend(
            dsts.drain(..)
                .filter_map(|dst| self.table.valid_entry(dst, now).map(|e| (dst, e.next_hop))),
        );
        for &(dst, next_hop) in &routable {
            for pending in self.send_buffer.take_for(dst) {
                self.send_data(pending, next_hop, cmds);
            }
            if self.requests.finish(dst) {
                cmds.push(Cmd::CancelTimer { timer: AodvTimer::RequestTimeout(dst) });
            }
        }
        routable.clear();
        (self.flush_dsts, self.flush_routes) = (dsts, routable);
    }
}

impl RoutingAgent for AodvNode {
    type Packet = AodvPacket;
    type Timer = AodvTimer;

    fn start(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        cmds.push(Cmd::SetTimer {
            timer: AodvTimer::Tick,
            at: now + SimDuration::from_millis(500.0),
        });
    }

    /// Churn revival: buffered packets are surrendered as `NodeReset`
    /// drops, the routing table, send buffer and request table start empty,
    /// and the tick is re-armed as [`start`](Self::start) arms it. The uid
    /// counter, the node's own sequence number and the RNG survive, so uids
    /// stay unique and a destination never sees this node's sequence number
    /// go backwards.
    fn on_revival(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        cmds.extend(
            self.send_buffer
                .uids()
                .into_iter()
                .map(|uid| Cmd::Drop { uid, reason: DropReason::NodeReset }),
        );
        self.table = RoutingTable::new();
        self.send_buffer = SendBuffer::default();
        self.requests = RequestTable::default();
        self.start(now, cmds);
    }

    fn originate(&mut self, dst: NodeId, payload_bytes: usize, now: SimTime, cmds: &mut Vec<Cmd>) {
        assert!(dst != self.id && !dst.is_broadcast(), "invalid destination {dst}");
        let pending = PendingData { uid: self.fresh_uid(), dst, payload_bytes, sent_at: now };
        cmds.push(Cmd::Event { event: ProtocolEvent::DataOriginated { uid: pending.uid } });
        match self.table.valid_entry(dst, now).map(|e| e.next_hop) {
            Some(next_hop) => {
                self.table.refresh(dst, ACTIVE_ROUTE_TIMEOUT, now);
                self.send_data(pending, next_hop, cmds);
            }
            None => {
                if let Some(evicted) = self.send_buffer.push(pending, now) {
                    cmds.push(Cmd::Drop { uid: evicted.uid, reason: DropReason::SendBufferFull });
                }
                self.ensure_discovery(dst, now, cmds);
            }
        }
    }

    fn on_receive(&mut self, from: NodeId, packet: AodvPacket, now: SimTime, cmds: &mut Vec<Cmd>) {
        match packet {
            AodvPacket::Rreq(rreq) => self.handle_rreq(rreq, from, now, cmds),
            AodvPacket::Rrep(rrep) => self.handle_rrep(rrep, from, now, cmds),
            AodvPacket::Rerr(rerr) => self.handle_rerr(rerr, from, cmds),
            AodvPacket::Data(data) => self.handle_data(data, from, now, cmds),
        }
    }

    fn on_snoop(
        &mut self,
        _transmitter: NodeId,
        _packet: &AodvPacket,
        _now: SimTime,
        _cmds: &mut Vec<Cmd>,
    ) {
        // AODV does not use promiscuous listening.
    }

    fn buffered_uids(&self) -> Vec<u64> {
        self.send_buffer.uids()
    }

    fn on_tx_failed(
        &mut self,
        packet: AodvPacket,
        next_hop: NodeId,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        cmds.push(Cmd::Event {
            event: ProtocolEvent::LinkBreakDetected { link: packet::Link::new(self.id, next_hop) },
        });
        let mut unreachable = std::mem::take(&mut self.rerr_buf);
        self.table.invalidate_via_into(next_hop, &mut unreachable);
        self.send_rerr(&unreachable, cmds);
        unreachable.clear();
        self.rerr_buf = unreachable;
        // Re-buffer data we originated; everything else dies here.
        match packet {
            AodvPacket::Data(data) if data.src == self.id => {
                let pending = PendingData {
                    uid: data.uid,
                    dst: data.dst,
                    payload_bytes: data.payload_bytes,
                    sent_at: data.sent_at,
                };
                if let Some(evicted) = self.send_buffer.push(pending, now) {
                    cmds.push(Cmd::Drop { uid: evicted.uid, reason: DropReason::SendBufferFull });
                }
                self.ensure_discovery(data.dst, now, cmds);
            }
            AodvPacket::Data(data) => {
                cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::NoForwardingEntry });
            }
            other => {
                cmds.push(Cmd::Drop {
                    uid: packet::NetPacket::uid(&other),
                    reason: DropReason::ControlUndeliverable,
                });
            }
        }
    }

    fn on_timer(&mut self, timer: AodvTimer, now: SimTime, cmds: &mut Vec<Cmd>) {
        match timer {
            AodvTimer::Tick => {
                cmds.push(Cmd::SetTimer {
                    timer: AodvTimer::Tick,
                    at: now + SimDuration::from_millis(500.0),
                });
                self.table.expire(now);
                self.send_buffer.purge_expired(now, |expired| {
                    cmds.push(Cmd::Drop {
                        uid: expired.uid,
                        reason: DropReason::SendBufferTimeout,
                    });
                });
            }
            AodvTimer::RequestTimeout(target) => {
                if !self.requests.discovering(target) {
                    return;
                }
                if !self.send_buffer.has_packets_for(target) {
                    self.requests.finish(target);
                    return;
                }
                let (request_id, backoff) = self.requests.escalate(target);
                let attempts = self
                    .requests
                    .discovery(target)
                    .expect("escalated discovery exists")
                    .flood_attempts;
                // RFC 3561 6.4: TTL_START=1 (the probe), then +2 per ring
                // up to TTL_THRESHOLD=7, then network-wide.
                let ttl = match attempts {
                    0 | 1 => 3,
                    2 => 5,
                    3 => 7,
                    _ => FLOOD_TTL,
                };
                self.send_request(target, request_id, ttl, cmds);
                cmds.push(Cmd::SetTimer {
                    timer: AodvTimer::RequestTimeout(target),
                    at: now + backoff,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::RngFactory;

    /// The commands one agent input appends to an empty buffer.
    fn cmds_of(input: impl FnOnce(&mut Vec<Cmd>)) -> Vec<Cmd> {
        let mut cmds = Vec::new();
        input(&mut cmds);
        cmds
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn agent(i: u16) -> AodvNode {
        AodvNode::new(n(i), AodvConfig::default(), RngFactory::new(5).stream("aodv", u64::from(i)))
    }

    fn sends(cmds: &[Cmd]) -> Vec<(AodvPacket, NodeId)> {
        cmds.iter()
            .filter_map(|c| match c {
                Cmd::Send { packet, next_hop, .. } => Some((packet.clone(), *next_hop)),
                _ => None,
            })
            .collect()
    }

    /// Every input appends these to a pooled buffer that keeps the room of
    /// its largest burst: a packet that outgrew the data packet would
    /// widen all of them.
    #[test]
    fn a_command_stays_as_wide_as_it_was() {
        assert_eq!(std::mem::size_of::<Cmd>(), 64);
    }

    #[test]
    fn full_discovery_and_delivery_cycle() {
        let mut a = agent(0);
        let mut b = agent(1);
        let mut c = agent(2);
        let now = t(1.0);

        // A wants C: buffers and probes.
        let cmds = cmds_of(|sink| a.originate(n(2), 512, now, sink));
        let out = sends(&cmds);
        let AodvPacket::Rreq(probe) = &out[0].0 else { panic!("expected RREQ") };
        assert_eq!(probe.ttl, 1);
        assert_eq!(a.buffered(), 1);

        // Probe times out; flood follows.
        let cmds = cmds_of(|sink| a.on_timer(AodvTimer::RequestTimeout(n(2)), t(1.03), sink));
        let out = sends(&cmds);
        let AodvPacket::Rreq(flood) = &out[0].0 else { panic!("expected flood") };
        assert!(flood.ttl > 1);

        // B forwards the flood and learns the reverse route to A.
        let cmds = cmds_of(|sink| b.on_receive(n(0), out[0].0.clone(), t(1.04), sink));
        let out_b = sends(&cmds);
        assert_eq!(out_b.len(), 1);
        assert!(b.table().valid_entry(n(0), t(1.04)).is_some(), "reverse route to origin");

        // C (the target) replies via B.
        let cmds = cmds_of(|sink| c.on_receive(n(1), out_b[0].0.clone(), t(1.05), sink));
        let out_c = sends(&cmds);
        let (AodvPacket::Rrep(rrep), hop) = (&out_c[0].0, out_c[0].1) else {
            panic!("expected RREP")
        };
        assert!(!rrep.from_cache);
        assert_eq!(hop, n(1));

        // B forwards the reply toward A and installs the forward route.
        let cmds = cmds_of(|sink| b.on_receive(n(2), out_c[0].0.clone(), t(1.06), sink));
        let out_b = sends(&cmds);
        assert_eq!(out_b[0].1, n(0));
        assert_eq!(b.table().valid_entry(n(2), t(1.06)).unwrap().next_hop, n(2));

        // A accepts the reply and flushes its buffered packet via B.
        let cmds = cmds_of(|sink| a.on_receive(n(1), out_b[0].0.clone(), t(1.07), sink));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::Event { event: ProtocolEvent::ReplyAccepted { .. } })));
        let out_a = sends(&cmds);
        let (AodvPacket::Data(_), hop) = (&out_a[0].0, out_a[0].1) else { panic!("expected DATA") };
        assert_eq!(hop, n(1));
        assert_eq!(a.buffered(), 0);

        // B forwards, C delivers with the hop count intact.
        let cmds = cmds_of(|sink| b.on_receive(n(0), out_a[0].0.clone(), t(1.08), sink));
        let out_b = sends(&cmds);
        assert_eq!(out_b[0].1, n(2));
        let cmds = cmds_of(|sink| c.on_receive(n(1), out_b[0].0.clone(), t(1.09), sink));
        assert!(cmds.iter().any(|c| matches!(c, Cmd::Deliver { hops: 2, .. })));
    }

    #[test]
    fn intermediate_reply_quenches_flood() {
        let mut b = agent(1);
        // Teach B a fresh route to 5 via a reply.
        let rrep = Rrep {
            uid: 1,
            origin: n(9),
            target: n(5),
            target_seq: 4,
            hop_count: 0,
            from_cache: false,
        };
        cmds_of(|sink| b.on_receive(n(5), AodvPacket::Rrep(rrep), t(0.5), sink));
        let rreq = Rreq {
            uid: 2,
            origin: n(0),
            origin_seq: 1,
            request_id: 0,
            target: n(5),
            target_seq: Some(3),
            hop_count: 0,
            ttl: 30,
        };
        let cmds = cmds_of(|sink| b.on_receive(n(0), AodvPacket::Rreq(rreq), t(1.0), sink));
        let out = sends(&cmds);
        assert_eq!(out.len(), 1, "reply only, no rebroadcast");
        let AodvPacket::Rrep(rep) = &out[0].0 else { panic!("expected cached RREP") };
        assert!(rep.from_cache);
        assert_eq!(rep.target_seq, 4);
    }

    #[test]
    fn stale_route_does_not_answer_fresher_request() {
        let mut b = agent(1);
        let rrep = Rrep {
            uid: 1,
            origin: n(9),
            target: n(5),
            target_seq: 4,
            hop_count: 0,
            from_cache: false,
        };
        cmds_of(|sink| b.on_receive(n(5), AodvPacket::Rrep(rrep), t(0.5), sink));
        // Requester already knows seq 7 — B's seq-4 route is too stale.
        let rreq = Rreq {
            uid: 2,
            origin: n(0),
            origin_seq: 1,
            request_id: 0,
            target: n(5),
            target_seq: Some(7),
            hop_count: 0,
            ttl: 30,
        };
        let cmds = cmds_of(|sink| b.on_receive(n(0), AodvPacket::Rreq(rreq), t(1.0), sink));
        let out = sends(&cmds);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].0, AodvPacket::Rreq(_)), "must rebroadcast, not reply stale");
    }

    #[test]
    fn link_failure_invalidates_and_reports() {
        let mut b = agent(1);
        let rrep = Rrep {
            uid: 1,
            origin: n(9),
            target: n(5),
            target_seq: 4,
            hop_count: 1,
            from_cache: false,
        };
        cmds_of(|sink| b.on_receive(n(3), AodvPacket::Rrep(rrep), t(0.5), sink));
        assert!(b.table().valid_entry(n(5), t(0.6)).is_some());
        let data = AodvData {
            uid: 7,
            src: n(0),
            dst: n(5),
            payload_bytes: 512,
            sent_at: t(0.9),
            hops_traveled: 1,
        };
        let cmds = cmds_of(|sink| b.on_tx_failed(AodvPacket::Data(data), n(3), t(1.0), sink));
        assert!(b.table().valid_entry(n(5), t(1.0)).is_none(), "route via n3 invalidated");
        let out = sends(&cmds);
        assert!(out.iter().any(|(p, h)| matches!(p, AodvPacket::Rerr(_)) && h.is_broadcast()));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::Drop { reason: DropReason::NoForwardingEntry, .. })));
    }

    #[test]
    fn rerr_propagates_only_when_it_invalidates() {
        let mut b = agent(1);
        let rrep = Rrep {
            uid: 1,
            origin: n(9),
            target: n(5),
            target_seq: 4,
            hop_count: 1,
            from_cache: false,
        };
        cmds_of(|sink| b.on_receive(n(3), AodvPacket::Rrep(rrep), t(0.5), sink));
        // An error from an unrelated neighbor changes nothing.
        let unrelated = Rerr { uid: 2, unreachable: Arc::from([(n(5), 9)]) };
        let cmds = cmds_of(|sink| b.on_receive(n(7), AodvPacket::Rerr(unrelated), t(1.0), sink));
        assert!(sends(&cmds).is_empty());
        assert!(b.table().valid_entry(n(5), t(1.0)).is_some());
        // The same error from our actual next hop invalidates + propagates.
        let relevant = Rerr { uid: 3, unreachable: Arc::from([(n(5), 9)]) };
        let cmds = cmds_of(|sink| b.on_receive(n(3), AodvPacket::Rerr(relevant), t(1.1), sink));
        assert!(b.table().valid_entry(n(5), t(1.1)).is_none());
        assert_eq!(sends(&cmds).len(), 1);
    }

    #[test]
    fn routes_expire_on_tick() {
        let mut b = agent(1);
        let rrep = Rrep {
            uid: 1,
            origin: n(9),
            target: n(5),
            target_seq: 4,
            hop_count: 1,
            from_cache: false,
        };
        cmds_of(|sink| b.on_receive(n(3), AodvPacket::Rrep(rrep), t(0.0), sink));
        cmds_of(|sink| b.on_timer(AodvTimer::Tick, t(25.0), sink)); // past my_route_timeout (20 s)
        assert!(b.table().valid_entry(n(5), t(25.0)).is_none());
    }

    #[test]
    fn expanding_ring_grows_ttl_per_retry() {
        let mut a = agent(0);
        let wait = |cmds: &[Cmd], now: SimTime| {
            cmds.iter().find_map(|c| match c {
                Cmd::SetTimer { timer: AodvTimer::RequestTimeout(_), at } => {
                    Some(at.saturating_since(now))
                }
                _ => None,
            })
        };
        let probe = cmds_of(|sink| a.originate(n(4), 512, t(0.0), sink)); // TTL-1 probe
        assert_eq!(wait(&probe, t(0.0)), Some(SimDuration::from_millis(30.0)));
        let (ttls, waits): (Vec<u8>, Vec<_>) = (0..5)
            .map(|i| {
                let now = t(0.1 * (i + 1) as f64);
                let cmds = cmds_of(|sink| a.on_timer(AodvTimer::RequestTimeout(n(4)), now, sink));
                let ttl = sends(&cmds)
                    .into_iter()
                    .find_map(|(p, _)| match p {
                        AodvPacket::Rreq(r) => Some(r.ttl),
                        _ => None,
                    })
                    .expect("retry sends a request");
                (ttl, wait(&cmds, now).expect("retry re-arms its timeout"))
            })
            .unzip();
        assert_eq!(ttls, vec![3, 5, 7, FLOOD_TTL, FLOOD_TTL]);
        let backoff = [500.0, 1000.0, 2000.0, 4000.0, 8000.0].map(SimDuration::from_millis);
        assert_eq!(waits, backoff, "DSR's discovery schedule");
    }

    #[test]
    fn revival_drops_buffered_data_resets_state_and_rearms_the_tick() {
        let mut a = agent(0);
        let rrep = Rrep {
            uid: 1,
            origin: n(0),
            target: n(5),
            target_seq: 4,
            hop_count: 1,
            from_cache: false,
        };
        cmds_of(|sink| a.on_receive(n(3), AodvPacket::Rrep(rrep), t(0.5), sink));
        let cmds = cmds_of(|sink| a.originate(n(4), 512, t(1.0), sink));
        let Some(&Cmd::Event { event: ProtocolEvent::DataOriginated { uid } }) = cmds.first()
        else {
            panic!("origination announces its uid: {cmds:?}")
        };
        assert_eq!((a.buffered(), a.table().len()), (1, 2));

        let own_seq = a.own_seq;
        let cmds = cmds_of(|sink| a.on_revival(t(2.0), sink));
        assert_eq!(
            cmds,
            vec![
                Cmd::Drop { uid, reason: DropReason::NodeReset },
                Cmd::SetTimer { timer: AodvTimer::Tick, at: t(2.5) },
            ]
        );
        assert_eq!((a.buffered(), a.table().len(), a.own_seq), (0, 0, own_seq));
        // The next packet starts a fresh discovery under a fresh uid.
        let cmds = cmds_of(|sink| a.originate(n(4), 512, t(2.1), sink));
        assert!(matches!(
            cmds.first(),
            Some(Cmd::Event { event: ProtocolEvent::DataOriginated { uid: next } }) if *next > uid
        ));
        assert!(sends(&cmds).iter().any(|(p, _)| matches!(p, AodvPacket::Rreq(r) if r.ttl == 1)));
    }

    #[test]
    fn data_without_route_at_source_buffers_and_discovers() {
        let mut a = agent(0);
        let cmds = cmds_of(|sink| a.originate(n(4), 512, t(0.0), sink));
        assert_eq!(a.buffered(), 1);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Cmd::Event { event: ProtocolEvent::DiscoveryStarted { .. } })));
    }
}
