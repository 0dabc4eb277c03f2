//! Protocol-neutral vocabulary shared by routing agents, the simulation
//! driver, and the metrics layer: drop reasons, cache-hit kinds, semantic
//! metric events, and the [`NetPacket`] trait every network-layer packet
//! type implements.

use std::fmt;

use sim_core::NodeId;

use crate::route::{InlineRoute, Link};

/// Why a packet was dropped (metrics taxonomy). Shared across routing
/// protocols; not every protocol uses every reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Send buffer overflow at the source.
    SendBufferFull,
    /// Waited more than the send-buffer timeout for a route.
    SendBufferTimeout,
    /// Broken link en route and no cached alternative to salvage with.
    NoRouteToSalvage,
    /// Salvaged too many times already.
    SalvageLimit,
    /// The source route contains a negatively cached (recently broken)
    /// link.
    NegativeCacheHit,
    /// A control packet could not be delivered (failed unicast forward).
    ControlUndeliverable,
    /// A data packet arrived at a node that is not on its source route
    /// (stale forwarding state).
    NotOnRoute,
    /// No forwarding-table entry for the destination (table-driven
    /// protocols such as AODV).
    NoForwardingEntry,
    /// The packet's TTL expired.
    TtlExpired,
    /// The holding node's protocol state was reset while the packet was
    /// buffered (fault-injected crash-and-rejoin churn).
    NodeReset,
}

impl DropReason {
    /// Every reason, for exhaustive iteration (ledgers, tests).
    pub const ALL: [DropReason; 10] = [
        DropReason::SendBufferFull,
        DropReason::SendBufferTimeout,
        DropReason::NoRouteToSalvage,
        DropReason::SalvageLimit,
        DropReason::NegativeCacheHit,
        DropReason::ControlUndeliverable,
        DropReason::NotOnRoute,
        DropReason::NoForwardingEntry,
        DropReason::TtlExpired,
        DropReason::NodeReset,
    ];

    /// The reason's stable string spelling (trace lines, profiler tallies).
    pub const fn name(self) -> &'static str {
        match self {
            DropReason::SendBufferFull => "SendBufferFull",
            DropReason::SendBufferTimeout => "SendBufferTimeout",
            DropReason::NoRouteToSalvage => "NoRouteToSalvage",
            DropReason::SalvageLimit => "SalvageLimit",
            DropReason::NegativeCacheHit => "NegativeCacheHit",
            DropReason::ControlUndeliverable => "ControlUndeliverable",
            DropReason::NotOnRoute => "NotOnRoute",
            DropReason::NoForwardingEntry => "NoForwardingEntry",
            DropReason::TtlExpired => "TtlExpired",
            DropReason::NodeReset => "NodeReset",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which cache use produced a cache hit (drives the *invalid cached
/// routes* metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheHitKind {
    /// Source found a route for its own data without discovery.
    Origination,
    /// Intermediate node re-routed a packet around a broken link.
    Salvage,
    /// Intermediate node answered a route request from its cache.
    Reply,
}

impl CacheHitKind {
    /// Stable string spelling for trace rows.
    pub const fn name(self) -> &'static str {
        match self {
            CacheHitKind::Origination => "origination",
            CacheHitKind::Salvage => "salvage",
            CacheHitKind::Reply => "reply",
        }
    }
}

/// How a route entered a cache (cache-decision trace vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheInsertProvenance {
    /// Carried by a route reply addressed to this node.
    Reply,
    /// Learned in passing: forwarded data, snooped frames, request
    /// reverse routes, reply transit segments.
    Overheard,
    /// Advertised by a gratuitous (shortcut) route reply.
    Gratuitous,
}

impl CacheInsertProvenance {
    /// Stable string spelling for trace rows.
    pub const fn name(self) -> &'static str {
        match self {
            CacheInsertProvenance::Reply => "reply",
            CacheInsertProvenance::Overheard => "overheard",
            CacheInsertProvenance::Gratuitous => "gratuitous",
        }
    }
}

/// Why a link was purged from (or vetoed out of) a route cache
/// (cache-decision trace vocabulary). Timer expiry and capacity eviction
/// are per-route decisions, reported as [`CacheDecision::Expire`] and
/// [`CacheDecision::Evict`] instead of a removal cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheRemovalCause {
    /// A route error reached this node (unicast RERR, snooped error, or a
    /// gratuitous-repair piggyback on a route request).
    ErrorReceived,
    /// A wider-error broadcast was processed (first copy).
    WiderError,
    /// The node's own MAC exhausted retransmissions on the link.
    MacFeedback,
    /// The negative cache vetoed use of the link (an insert was truncated
    /// or refused, or a forward was refused).
    NegativeVeto,
}

impl CacheRemovalCause {
    /// Stable string spelling for trace rows.
    pub const fn name(self) -> &'static str {
        match self {
            CacheRemovalCause::ErrorReceived => "rerr",
            CacheRemovalCause::WiderError => "wider",
            CacheRemovalCause::MacFeedback => "mac",
            CacheRemovalCause::NegativeVeto => "neg-veto",
        }
    }
}

/// One route-cache decision, for the cache forensics trace. Emitted by
/// agents only when decision tracing is enabled; like every protocol
/// event, validity and staleness are judged by the driver's ground-truth
/// oracle, never here. Routes ride by value ([`InlineRoute`]): most
/// decisions are rendered once or dropped unread at the trace's row cap,
/// so building one allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheDecision {
    /// A route entered (or refreshed) the cache.
    Insert {
        /// The route as inserted (after any negative-cache truncation).
        route: InlineRoute,
        /// How the agent came to know it.
        provenance: CacheInsertProvenance,
        /// Whether the cache reported a state change.
        changed: bool,
    },
    /// The cache was consulted for a route to `dst`.
    Lookup {
        /// The destination looked up.
        dst: NodeId,
        /// What the route was wanted for.
        purpose: CacheHitKind,
        /// The route found (`None` on a miss).
        route: Option<InlineRoute>,
    },
    /// A link believed broken was purged (or vetoed, see
    /// [`CacheRemovalCause::NegativeVeto`]).
    RemoveLink {
        /// The link in question.
        link: Link,
        /// What the purge was triggered by.
        cause: CacheRemovalCause,
        /// Whether the cache actually held the link.
        contained: bool,
    },
    /// Timer-based expiry pruned this stored route (pre-prune path).
    Expire {
        /// The route as stored before the prune.
        route: InlineRoute,
    },
    /// Capacity pressure evicted this stored route.
    Evict {
        /// The evicted route.
        route: InlineRoute,
    },
    /// `mark_used` refreshed last-used timestamps along `route`.
    Refresh {
        /// The route observed in use.
        route: InlineRoute,
    },
    /// A broken-link purge left a surviving multipath alternative in
    /// service for `dst` (no fresh discovery needed).
    Failover {
        /// The destination that kept connectivity.
        dst: NodeId,
        /// The surviving route now carrying the traffic.
        route: InlineRoute,
    },
}

/// Semantic protocol events for the metrics layer. Route validity is
/// *not* judged here — the driver checks the attached routes against the
/// ground-truth oracle at the instant the event is emitted.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEvent {
    /// The agent accepted a fresh data packet from the application and
    /// assigned it a uid. Feeds the packet-conservation ledger.
    DataOriginated {
        /// The uid assigned to the new packet.
        uid: u64,
    },
    /// A discovery round was launched.
    DiscoveryStarted {
        /// Node being sought.
        target: NodeId,
        /// `false` for an initial restricted probe (TTL-limited).
        flood: bool,
    },
    /// This node generated a route reply.
    ReplyOriginated {
        /// `true` when answered from cached state rather than by the
        /// target itself.
        from_cache: bool,
    },
    /// A route reply reached the node that requested it. The driver
    /// validates `discovered` for the *percentage of good replies* metric.
    /// Protocols that do not expose full routes (e.g. AODV) omit it.
    ReplyAccepted {
        /// The route the reply carried, when the protocol knows it.
        discovered: Option<InlineRoute>,
    },
    /// A route was pulled from a cache and put into use. The driver
    /// validates it for the *percentage of invalid cached routes* metric.
    CacheHit {
        /// The cached route placed into service.
        route: InlineRoute,
        /// What it was used for.
        kind: CacheHitKind,
    },
    /// A route error was originated at this node.
    RouteErrorSent {
        /// `true` under wider error notification (MAC broadcast).
        wider: bool,
    },
    /// A wider error was re-broadcast by this node.
    RouteErrorRebroadcast,
    /// Link-layer feedback reported a broken link.
    LinkBreakDetected {
        /// The failed link.
        link: Link,
    },
    /// A route-cache decision was made (cache forensics; emitted only when
    /// decision tracing is enabled, so the off path carries no cost).
    CacheDecision {
        /// The decision.
        decision: CacheDecision,
    },
    /// A multipath cache failed over to a surviving link-disjoint route
    /// after a purge, avoiding a fresh discovery. Always emitted (drives
    /// the `failovers` counter).
    Failover {
        /// The destination that kept a working route.
        dst: NodeId,
    },
}

/// What the simulation driver needs to know about any network-layer packet
/// type, independent of the routing protocol that defines it.
pub trait NetPacket: Clone + Send + 'static {
    /// Globally unique packet id (stable across hops).
    fn uid(&self) -> u64;

    /// Total bytes on the wire (excluding MAC/PHY framing).
    fn wire_size(&self) -> usize;

    /// Whether this is routing-protocol overhead (anything but data).
    fn is_routing_overhead(&self) -> bool;

    /// Short human-readable tag for traces ("DATA", "RREQ", ...).
    fn kind_str(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reasons_are_hashable_and_distinct() {
        use std::collections::HashSet;
        let all = [
            DropReason::SendBufferFull,
            DropReason::SendBufferTimeout,
            DropReason::NoRouteToSalvage,
            DropReason::SalvageLimit,
            DropReason::NegativeCacheHit,
            DropReason::ControlUndeliverable,
            DropReason::NotOnRoute,
            DropReason::NoForwardingEntry,
            DropReason::TtlExpired,
            DropReason::NodeReset,
        ];
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        assert_eq!(all, DropReason::ALL);
    }

    #[test]
    fn drop_reason_display_matches_debug() {
        // The trace format promises the historical string spellings, which
        // happen to coincide with the variant names.
        for reason in DropReason::ALL {
            assert_eq!(format!("{reason}"), format!("{reason:?}"));
        }
    }

    #[test]
    fn reply_accepted_allows_unknown_route() {
        let ev = ProtocolEvent::ReplyAccepted { discovered: None };
        assert_eq!(ev, ProtocolEvent::ReplyAccepted { discovered: None });
    }
}
