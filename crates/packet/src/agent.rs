//! The contract between a routing agent and the simulation driver.
//!
//! The driver (`runner::Simulator`) is generic over a [`RoutingAgent`]: any
//! per-node state machine with the originate/receive/snoop/failure/timer
//! inputs and [`AgentCommand`] outputs can ride on the same mobility +
//! radio + 802.11 substrate. DSR (`dsr::DsrNode`) is the primary
//! implementation; the `aodv` crate provides a second one — the paper's
//! stated future-work direction of carrying its caching techniques to other
//! on-demand protocols.

use sim_core::{NodeId, SimDuration, SimTime};

use crate::events::{DropReason, NetPacket, ProtocolEvent};
use crate::route::Route;

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

/// A routing agent's self-reported gauges, polled by the time-series
/// sampler.
///
/// Returned by [`RoutingAgent::observe`]; agents that do not participate
/// (AODV) return `None` and simply contribute zeros.
#[derive(Debug, Clone, Default)]
pub struct AgentObservation {
    /// Snapshot of the node's cached routes for oracle validity checking.
    pub routes: Vec<Route>,
    /// Live negative-cache entries.
    pub negative_entries: usize,
    /// Packets parked awaiting a route.
    pub send_buffer: usize,
    /// Route discoveries currently in flight.
    pub discoveries: usize,
}

/// A per-node routing protocol entity the driver can run.
///
/// Every input (`start`, `originate`, `on_*`) appends the commands it
/// produces to `out`, in the order the driver must apply them, and leaves
/// what `out` already held alone. The driver hands each input an empty
/// buffer drawn from a pool and drains it after the call, so a warm input
/// allocates nothing for its commands (the shape of the MAC's `*_into`
/// inputs).
pub trait RoutingAgent: Send {
    /// The protocol's network-layer packet type.
    type Packet: NetPacket;
    /// The protocol's timer vocabulary.
    type Timer: Copy + Eq + std::hash::Hash + Send + std::fmt::Debug;

    /// Called once at simulation start (arm periodic timers here).
    fn start(&mut self, now: SimTime, out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>);

    /// The application asks to send `payload_bytes` to `dst`.
    fn originate(
        &mut self,
        dst: NodeId,
        payload_bytes: usize,
        now: SimTime,
        out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>,
    );

    /// The MAC delivered a packet addressed to this node (or broadcast).
    fn on_receive(
        &mut self,
        from: NodeId,
        packet: Self::Packet,
        now: SimTime,
        out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>,
    );

    /// The MAC promiscuously overheard a data frame addressed elsewhere.
    fn on_snoop(
        &mut self,
        transmitter: NodeId,
        packet: &Self::Packet,
        now: SimTime,
        out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>,
    );

    /// Link-layer feedback: `packet` could not be delivered to `next_hop`.
    fn on_tx_failed(
        &mut self,
        packet: Self::Packet,
        next_hop: NodeId,
        now: SimTime,
        out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>,
    );

    /// A previously armed timer fired.
    fn on_timer(
        &mut self,
        timer: Self::Timer,
        now: SimTime,
        out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>,
    );

    /// The node rebooted after a fault-injected crash (`NodeChurn`). All
    /// pending timers were cancelled by the driver before this call; the
    /// agent must reset its volatile protocol state (caches, buffers,
    /// request tables), emit `Drop` commands for any buffered uids so the
    /// conservation ledger stays balanced, and re-arm its periodic timers.
    fn on_revival(&mut self, now: SimTime, out: &mut Vec<AgentCommand<Self::Packet, Self::Timer>>);

    // ------------------------------------------------------------------
    // Conservation-audit hooks (the driver's auditor): every uid announced
    // via `ProtocolEvent::DataOriginated` ends in a `Deliver` or a `Drop`
    // command, or is still buffered at run end.
    // ------------------------------------------------------------------

    /// The uids of data packets this agent still buffers (awaiting routes).
    /// Consulted at run end so buffered packets are not reported lost.
    fn buffered_uids(&self) -> Vec<u64>;

    /// Protocol-invariant self-check (e.g. DSR's negative-cache ↔ route-
    /// cache mutual exclusion). Returns a description of the first
    /// violation, or `None` when the invariant holds.
    fn invariant_violation(&self, _now: SimTime) -> Option<String> {
        None
    }

    // ------------------------------------------------------------------
    // Observability hook (the `obs` sampler). Optional: protocols that do
    // not expose cache/buffer gauges keep the default and contribute zeros
    // to the sampled time series.
    // ------------------------------------------------------------------

    /// The agent's gauge snapshot for the time-series sampler: cached
    /// routes (oracle-checked for validity by the driver), negative-cache
    /// occupancy, send-buffer depth, and in-flight discoveries. Pure
    /// observation — must not mutate the agent.
    fn observe(&self, _now: SimTime) -> Option<AgentObservation> {
        None
    }

    /// Enables (or disables) cache-decision tracing: the agent emits a
    /// [`ProtocolEvent::CacheDecision`] for every route-cache insert,
    /// lookup, purge, eviction, expiry, and refresh. Pure observation —
    /// enabling it must not change protocol behaviour, timers, or RNG use.
    /// Protocols without a traced cache keep the default no-op.
    fn set_decision_trace(&mut self, _on: bool) {}
}
