//! The routing-protocol abstraction the simulation driver runs on.
//!
//! The driver ([`Simulator`](crate::Simulator)) is generic over a
//! [`RoutingAgent`]: any per-node state machine with the
//! originate/receive/snoop/failure/timer inputs and [`AgentCommand`]
//! outputs can ride on the same mobility + radio + 802.11 substrate. DSR
//! ([`dsr::DsrNode`]) is the primary implementation; the `aodv` crate
//! provides a second one — the paper's stated future-work direction of
//! carrying its caching techniques to other on-demand protocols.

use packet::{DropReason, NetPacket, ProtocolEvent};
use sim_core::{NodeId, SimDuration, SimTime};

/// Effects a routing agent asks the driver to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentCommand<P, T> {
    /// Hand `packet` to the MAC for `next_hop` (or broadcast) after
    /// `jitter`. Routing-overhead packets ride at control priority in the
    /// interface queue.
    Send {
        /// The network-layer packet.
        packet: P,
        /// MAC-level next hop.
        next_hop: NodeId,
        /// Random de-synchronization delay (zero for unicast forwards).
        jitter: SimDuration,
    },
    /// A data packet reached its final destination.
    Deliver {
        /// Packet uid (delivery is deduplicated by it).
        uid: u64,
        /// Originating node.
        src: NodeId,
        /// Origination instant (end-to-end delay clock).
        sent_at: SimTime,
        /// Application payload bytes.
        bytes: usize,
        /// Links traversed (best known).
        hops: usize,
    },
    /// Arm (or re-arm) a timer; replaces any pending timer of equal value.
    SetTimer {
        /// Which timer.
        timer: T,
        /// Absolute expiry.
        at: SimTime,
    },
    /// Disarm a timer if pending.
    CancelTimer {
        /// Which timer.
        timer: T,
    },
    /// A packet was dropped.
    Drop {
        /// Unique id of the dropped packet.
        uid: u64,
        /// Why.
        reason: DropReason,
    },
    /// A metrics event occurred.
    Event {
        /// The event.
        event: ProtocolEvent,
    },
}

/// A per-node routing protocol entity the driver can run.
pub trait RoutingAgent: Send {
    /// The protocol's network-layer packet type.
    type Packet: NetPacket;
    /// The protocol's timer vocabulary.
    type Timer: Copy + Eq + std::hash::Hash + Send + std::fmt::Debug;

    /// Called once at simulation start (arm periodic timers here).
    fn start(&mut self, now: SimTime) -> Vec<AgentCommand<Self::Packet, Self::Timer>>;

    /// The application asks to send `payload_bytes` to `dst`.
    fn originate(
        &mut self,
        dst: NodeId,
        payload_bytes: usize,
        seq: u64,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>>;

    /// The MAC delivered a packet addressed to this node (or broadcast).
    fn on_receive(
        &mut self,
        from: NodeId,
        packet: Self::Packet,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>>;

    /// The MAC promiscuously overheard a data frame addressed elsewhere.
    fn on_snoop(
        &mut self,
        transmitter: NodeId,
        packet: &Self::Packet,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>>;

    /// The PHY decoded a frame from `from` intact at receive power
    /// `power_w` watts. Fired just before the corresponding `on_receive`
    /// (same ordering on the eager and fused arrival paths). Protocols
    /// that do not watch signal strength keep the default no-op;
    /// Preemptive-DSR uses it to repair routes before a fading link
    /// breaks.
    fn on_signal(
        &mut self,
        _from: NodeId,
        _power_w: f64,
        _now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        Vec::new()
    }

    /// Link-layer feedback: `packet` could not be delivered to `next_hop`.
    fn on_tx_failed(
        &mut self,
        packet: Self::Packet,
        next_hop: NodeId,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>>;

    /// A previously armed timer fired.
    fn on_timer(
        &mut self,
        timer: Self::Timer,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>>;

    /// The node rebooted after a fault-injected crash (`NodeChurn`). All
    /// pending timers were cancelled by the driver before this call; the
    /// agent must reset its volatile protocol state (caches, buffers,
    /// request tables), emit `Drop` commands for any buffered uids so the
    /// conservation ledger stays balanced, and re-arm its periodic timers.
    /// The default keeps pre-crash state — acceptable only for protocols
    /// that are never run under churn faults.
    fn on_revival(&mut self, _now: SimTime) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Conservation-audit hooks (see `crate::audit`). Optional: protocols
    // that consume or re-sequence deliveries internally (e.g. TCP over
    // DSR) keep the defaults and opt out of per-uid accounting.
    // ------------------------------------------------------------------

    /// Whether `Deliver`/`Drop` commands account for every uid announced
    /// via [`ProtocolEvent::DataOriginated`]. When `false`, a requested
    /// [`AuditLevel::Full`](crate::AuditLevel) audit degrades to counters.
    fn supports_conservation_audit(&self) -> bool {
        false
    }

    /// The uids of data packets this agent still buffers (awaiting routes).
    /// Consulted at run end so buffered packets are not reported lost.
    fn buffered_uids(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Protocol-invariant self-check (e.g. DSR's negative-cache ↔ route-
    /// cache mutual exclusion). Returns a description of the first
    /// violation, or `None` when the invariant holds.
    fn invariant_violation(&self, _now: SimTime) -> Option<String> {
        None
    }

    // ------------------------------------------------------------------
    // Observability hook (see `obs`). Optional: protocols that do not
    // expose cache/buffer gauges keep the default and contribute zeros to
    // the sampled time series.
    // ------------------------------------------------------------------

    /// The agent's gauge snapshot for the time-series sampler: cached
    /// routes (oracle-checked for validity by the driver), negative-cache
    /// occupancy, send-buffer depth, and in-flight discoveries. Pure
    /// observation — must not mutate the agent.
    fn observe(&self, _now: SimTime) -> Option<obs::AgentObservation> {
        None
    }

    /// Enables (or disables) cache-decision tracing: the agent emits a
    /// [`ProtocolEvent::CacheDecision`] for every route-cache insert,
    /// lookup, purge, eviction, expiry, and refresh. Pure observation —
    /// enabling it must not change protocol behaviour, timers, or RNG use.
    /// Protocols without a traced cache keep the default no-op.
    fn set_decision_trace(&mut self, _on: bool) {}
}

fn translate(cmd: dsr::DsrCommand) -> AgentCommand<packet::Packet, dsr::DsrTimer> {
    match cmd {
        dsr::DsrCommand::Send { packet, next_hop, jitter } => {
            AgentCommand::Send { packet, next_hop, jitter }
        }
        dsr::DsrCommand::DeliverData { packet } => AgentCommand::Deliver {
            uid: packet.uid,
            src: packet.src,
            sent_at: packet.sent_at,
            bytes: packet.payload_bytes,
            hops: packet.route.hops(),
        },
        dsr::DsrCommand::SetTimer { timer, at } => AgentCommand::SetTimer { timer, at },
        dsr::DsrCommand::CancelTimer { timer } => AgentCommand::CancelTimer { timer },
        dsr::DsrCommand::Drop { uid, reason } => AgentCommand::Drop { uid, reason },
        dsr::DsrCommand::Event { event } => AgentCommand::Event { event },
    }
}

fn translate_all(cmds: Vec<dsr::DsrCommand>) -> Vec<AgentCommand<packet::Packet, dsr::DsrTimer>> {
    cmds.into_iter().map(translate).collect()
}

impl RoutingAgent for dsr::DsrNode {
    type Packet = packet::Packet;
    type Timer = dsr::DsrTimer;

    fn start(&mut self, now: SimTime) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::start(self, now))
    }

    fn originate(
        &mut self,
        dst: NodeId,
        payload_bytes: usize,
        seq: u64,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::originate(self, dst, payload_bytes, seq, now))
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        packet: Self::Packet,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::on_receive(self, from, packet, now))
    }

    fn on_snoop(
        &mut self,
        transmitter: NodeId,
        packet: &Self::Packet,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::on_snoop(self, transmitter, packet, now))
    }

    fn on_signal(
        &mut self,
        from: NodeId,
        power_w: f64,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::on_signal(self, from, power_w, now))
    }

    fn on_tx_failed(
        &mut self,
        packet: Self::Packet,
        next_hop: NodeId,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::on_tx_failed(self, packet, next_hop, now))
    }

    fn on_timer(
        &mut self,
        timer: Self::Timer,
        now: SimTime,
    ) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::on_timer(self, timer, now))
    }

    fn on_revival(&mut self, now: SimTime) -> Vec<AgentCommand<Self::Packet, Self::Timer>> {
        translate_all(dsr::DsrNode::reboot(self, now))
    }

    fn supports_conservation_audit(&self) -> bool {
        true
    }

    fn buffered_uids(&self) -> Vec<u64> {
        dsr::DsrNode::buffered_uids(self)
    }

    fn invariant_violation(&self, now: SimTime) -> Option<String> {
        self.cache_exclusion_violation(now)
    }

    fn observe(&self, now: SimTime) -> Option<obs::AgentObservation> {
        Some(obs::AgentObservation {
            routes: self.cache().snapshot_routes(),
            negative_entries: self.negative_cache().map_or(0, |nc| nc.len(now)),
            send_buffer: self.buffered(),
            discoveries: self.discoveries_in_flight(),
        })
    }

    fn set_decision_trace(&mut self, on: bool) {
        dsr::DsrNode::set_decision_trace(self, on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::RngFactory;

    #[test]
    fn dsr_node_drives_through_the_trait() {
        let mut agent = dsr::DsrNode::new(
            NodeId::new(0),
            dsr::DsrConfig::base(),
            RngFactory::new(1).stream("dsr", 0),
        );
        let cmds = RoutingAgent::start(&mut agent, SimTime::ZERO);
        assert!(cmds.iter().any(|c| matches!(c, AgentCommand::SetTimer { .. })));
        let cmds = RoutingAgent::originate(&mut agent, NodeId::new(5), 512, 0, SimTime::ZERO);
        assert!(cmds.iter().any(|c| matches!(c, AgentCommand::Send { .. })));
        assert!(cmds.iter().any(|c| matches!(
            c,
            AgentCommand::Event { event: ProtocolEvent::DiscoveryStarted { .. } }
        )));
    }

    /// Every agent call returns a vector of these, traced or not: a protocol
    /// event that outgrew the largest packet would widen all of them.
    #[test]
    fn a_dsr_command_stays_as_wide_as_it_was() {
        assert_eq!(std::mem::size_of::<AgentCommand<packet::Packet, dsr::DsrTimer>>(), 96);
    }
}
