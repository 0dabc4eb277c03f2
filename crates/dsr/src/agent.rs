//! The DSR protocol agent.
//!
//! One [`DsrNode`] per simulated node, driven — like the MAC — as a pure
//! state machine: traffic origination, packet receptions, link-layer
//! failure feedback, and timers go in; [`AgentCommand`]s come out (send a
//! packet via the MAC, deliver data to the application, arm timers, report
//! drops and metric events).
//!
//! Implements the full protocol of the paper's study:
//!
//! - route discovery (non-propagating request first, then network-wide
//!   floods with exponential backoff), replies from the target *and* from
//!   intermediate caches, send-buffering at sources;
//! - route maintenance from link-layer feedback, with packet salvaging and
//!   gratuitous route repair (error piggybacked on the next request);
//! - promiscuous listening: snooping overheard source routes and errors,
//!   and gratuitous replies advertising shorter routes;
//! - the paper's three cache-correctness techniques, selected by
//!   [`DsrConfig`]: wider error notification, timer-based route expiry
//!   (static or adaptive), and negative caches.

use std::collections::VecDeque;

use packet::{
    AgentCommand, AgentObservation, CacheDecision, CacheHitKind, CacheInsertProvenance,
    CacheRemovalCause, DataPacket, DropReason, ErrorDelivery, InlineRoute, InvalidRoute, Link,
    Packet, ProtocolEvent, Route, RouteErrorPkt, RouteReply, RouteRequest, RoutingAgent,
};

use sim_core::rng::uniform;
use sim_core::{NodeId, SimDuration, SimRng, SimTime, U64HashSet};

use crate::adaptive::AdaptiveTimeout;
use crate::cache::negative::NegativeCache;
use crate::cache::path_cache::PathCache;
use crate::cache::{CacheEvent, RemovedLink};
use crate::config::{
    DsrConfig, ExpiryPolicy, ADAPTIVE_MIN_TIMEOUT, MAX_SALVAGE_COUNT, RECOMPUTE_PERIOD,
};
use crate::request_table::{RequestTable, BROADCAST_JITTER, NONPROP_TIMEOUT};
use crate::send_buffer::{PendingData, SendBuffer};

/// TTL used for network-wide floods.
const FLOOD_TTL: u8 = 255;
/// How many recently processed wider-error uids to remember.
const SEEN_ERROR_CACHE: usize = 4096;
/// How many recent gratuitous replies to remember (storm suppression).
const GRAT_REPLY_CACHE: usize = 32;
/// Minimum spacing between gratuitous replies for the same flow.
const GRAT_REPLY_HOLDOFF: SimDuration = SimDuration::from_micros_u64(1_000_000);

/// Timers the agent asks the driver to run. `SetTimer` replaces any pending
/// timer with the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsrTimer {
    /// Periodic housekeeping: cache expiry sweep, send-buffer purge,
    /// negative-cache purge.
    Tick,
    /// The outstanding route discovery for this target timed out.
    RequestTimeout(NodeId),
}

/// Protocol events emitted for the metrics layer (shared vocabulary from
/// the `packet` crate).
pub type DsrEvent = ProtocolEvent;

type Cmd = AgentCommand<Packet, DsrTimer>;

/// Per-node DSR protocol entity.
pub struct DsrNode {
    id: NodeId,
    cfg: DsrConfig,
    cache: PathCache,
    negative: Option<NegativeCache>,
    adaptive: AdaptiveTimeout,
    send_buffer: SendBuffer,
    requests: RequestTable,
    /// Last broken link learned, awaiting piggybacking on the next request
    /// (gratuitous route repair).
    pending_error: Option<Link>,
    /// Wider-error uids already processed (re-broadcast suppression):
    /// FIFO order for bounded eviction plus a set for O(1) membership.
    seen_errors: VecDeque<u64>,
    seen_errors_set: U64HashSet<u64>,
    /// Recently sent gratuitous replies: `((source, destination), when)`.
    grat_replies: VecDeque<((NodeId, NodeId), SimTime)>,
    uid_counter: u64,
    rng: SimRng,
    /// Cache-decision tracing (cache forensics). Off by default: no
    /// decision events are built and the cache's internal log stays
    /// unallocated, so the untraced hot path is untouched.
    trace_decisions: bool,
    /// Scratch for the candidate routes [`Self::learn_from_route`],
    /// [`Self::handle_request`] and [`Self::maybe_gratuitous_reply`] have to
    /// assemble (reversals, routes through an overheard transmitter).
    route_buf: Vec<NodeId>,
    /// Scratch for the destinations a send-buffer flush screens.
    flush_dsts: Vec<NodeId>,
}

impl std::fmt::Debug for DsrNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsrNode")
            .field("id", &self.id)
            .field("cached_paths", &self.cache.len())
            .field("buffered", &self.send_buffer.len())
            .finish()
    }
}

impl DsrNode {
    /// Creates the agent for `node`. `rng` should be a per-node stream
    /// (it only drives jitter draws).
    pub fn new(node: NodeId, cfg: DsrConfig, rng: SimRng) -> Self {
        DsrNode {
            id: node,
            cache: Self::build_cache(node, &cfg),
            negative: Self::build_negative(&cfg),
            adaptive: Self::build_adaptive(&cfg),
            send_buffer: SendBuffer::default(),
            requests: RequestTable::default(),
            pending_error: None,
            seen_errors: VecDeque::new(),
            seen_errors_set: U64HashSet::default(),
            grat_replies: VecDeque::new(),
            uid_counter: 0,
            rng,
            trace_decisions: false,
            route_buf: Vec::new(),
            flush_dsts: Vec::new(),
            cfg,
        }
    }

    fn build_cache(node: NodeId, cfg: &DsrConfig) -> PathCache {
        let mut cache = PathCache::new(node, cfg.cache_capacity);
        if let Some(mp) = cfg.multipath {
            cache.set_multipath(mp.k);
        }
        // Read-time expiry mirrors the sweep policy so lookups between
        // sweeps never serve just-expired state. The adaptive policy
        // starts at its floor; every tick re-installs the recomputed
        // timeout alongside the sweep.
        match cfg.expiry {
            ExpiryPolicy::None => {}
            ExpiryPolicy::Static { timeout } => cache.set_read_expiry(Some(timeout)),
            ExpiryPolicy::Adaptive { .. } => cache.set_read_expiry(Some(ADAPTIVE_MIN_TIMEOUT)),
        }
        cache
    }

    fn build_negative(cfg: &DsrConfig) -> Option<NegativeCache> {
        cfg.negative_cache.then(NegativeCache::default)
    }

    fn build_adaptive(cfg: &DsrConfig) -> AdaptiveTimeout {
        match cfg.expiry {
            ExpiryPolicy::Adaptive { alpha, .. } => {
                AdaptiveTimeout::new(alpha, ADAPTIVE_MIN_TIMEOUT)
            }
            // Unused estimator, still fed so ablations can inspect it.
            _ => AdaptiveTimeout::new(1.0, ADAPTIVE_MIN_TIMEOUT),
        }
    }

    /// This agent's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the route cache (tests, metrics, examples).
    pub fn cache(&self) -> &PathCache {
        &self.cache
    }

    /// Read access to the negative cache, when enabled.
    pub fn negative_cache(&self) -> Option<&NegativeCache> {
        self.negative.as_ref()
    }

    /// Read access to the adaptive-timeout estimator.
    pub fn adaptive(&self) -> &AdaptiveTimeout {
        &self.adaptive
    }

    /// Packets currently waiting for a route.
    pub fn buffered(&self) -> usize {
        self.send_buffer.len()
    }

    /// Route discoveries currently in flight (observability gauge).
    pub fn discoveries_in_flight(&self) -> usize {
        self.requests.in_flight_count()
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

    fn trace_lookup(
        &self,
        dst: NodeId,
        purpose: CacheHitKind,
        route: &Option<Route>,
        cmds: &mut Vec<Cmd>,
    ) {
        if self.trace_decisions {
            cmds.push(Cmd::Event {
                event: DsrEvent::CacheDecision {
                    decision: CacheDecision::Lookup {
                        dst,
                        purpose,
                        route: route.as_ref().map(|r| InlineRoute::from_slice(r.nodes())),
                    },
                },
            });
        }
    }

    fn trace_refresh(&self, route: &Route, cmds: &mut Vec<Cmd>) {
        if self.trace_decisions {
            cmds.push(Cmd::Event {
                event: DsrEvent::CacheDecision {
                    decision: CacheDecision::Refresh {
                        route: InlineRoute::from_slice(route.nodes()),
                    },
                },
            });
        }
    }

    fn trace_remove(
        &self,
        link: Link,
        cause: CacheRemovalCause,
        contained: bool,
        cmds: &mut Vec<Cmd>,
    ) {
        if self.trace_decisions {
            cmds.push(Cmd::Event {
                event: DsrEvent::CacheDecision {
                    decision: CacheDecision::RemoveLink { link, cause, contained },
                },
            });
        }
    }

    /// Drains the cache's internal event log (evictions, expiry prunes)
    /// into decision-trace commands. No-op while tracing is off.
    fn drain_cache_events(&mut self, cmds: &mut Vec<Cmd>) {
        if !self.trace_decisions {
            return;
        }
        self.cache.drain_events_with(&mut |event| {
            let decision = match event {
                CacheEvent::Evicted { route } => CacheDecision::Evict { route },
                CacheEvent::Expired { route } => CacheDecision::Expire { route },
            };
            cmds.push(Cmd::Event { event: DsrEvent::CacheDecision { decision } });
        });
    }
}

impl RoutingAgent for DsrNode {
    type Packet = Packet;
    type Timer = DsrTimer;

    /// Boots the agent's periodic housekeeping; call once at simulation
    /// start.
    fn start(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        cmds.push(Cmd::SetTimer { timer: DsrTimer::Tick, at: now + RECOMPUTE_PERIOD });
    }

    /// The node rebooted after a fault-injected crash (churn): every piece
    /// of volatile protocol state — route cache, negative cache, adaptive
    /// estimator, send buffer, request table, error/gratuitous-reply
    /// suppression windows — is rebuilt from the config, exactly as
    /// [`DsrNode::new`] built it. Buffered packets are surrendered as
    /// `Drop(NodeReset)` commands so the conservation ledger stays
    /// balanced, and the periodic tick is re-armed (the driver cancelled
    /// all timers at crash time).
    ///
    /// The uid counter and the jitter RNG survive the reboot: uids must
    /// stay globally unique across a node's lifetimes (a restarted counter
    /// would re-issue old uids and trip the "originated twice" audit), and
    /// the RNG keeps its named-stream determinism.
    fn on_revival(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        cmds.extend(
            self.send_buffer
                .uids()
                .into_iter()
                .map(|uid| Cmd::Drop { uid, reason: DropReason::NodeReset }),
        );
        self.cache = Self::build_cache(self.id, &self.cfg);
        // Decision tracing is driver-installed state, not protocol state:
        // it survives the reboot (the rebuilt cache needs its log back on).
        self.cache.set_event_log(self.trace_decisions);
        self.negative = Self::build_negative(&self.cfg);
        self.adaptive = Self::build_adaptive(&self.cfg);
        self.send_buffer = SendBuffer::default();
        self.requests = RequestTable::default();
        self.pending_error = None;
        self.seen_errors.clear();
        self.seen_errors_set.clear();
        self.grat_replies.clear();
        cmds.push(Cmd::SetTimer { timer: DsrTimer::Tick, at: now + RECOMPUTE_PERIOD });
    }

    /// The application asks to send `payload_bytes` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this node or the broadcast address.
    fn originate(&mut self, dst: NodeId, payload_bytes: usize, now: SimTime, cmds: &mut Vec<Cmd>) {
        assert!(dst != self.id && !dst.is_broadcast(), "invalid destination {dst}");
        let pending = PendingData { uid: self.fresh_uid(), dst, payload_bytes, sent_at: now };
        cmds.push(Cmd::Event { event: DsrEvent::DataOriginated { uid: pending.uid } });
        let found = self.cache.find(dst, now);
        self.trace_lookup(dst, CacheHitKind::Origination, &found, cmds);
        if let Some(route) = found {
            cmds.push(Cmd::Event {
                event: DsrEvent::CacheHit {
                    route: InlineRoute::from_slice(route.nodes()),
                    kind: CacheHitKind::Origination,
                },
            });
            self.send_data_on_route(pending, route, 0, now, cmds);
        } else {
            if let Some(evicted) = self.send_buffer.push(pending, now) {
                cmds.push(Cmd::Drop { uid: evicted.uid, reason: DropReason::SendBufferFull });
            }
            self.ensure_discovery(dst, now, cmds);
        }
    }

    /// The MAC delivered a packet addressed to us (or broadcast).
    fn on_receive(&mut self, _from: NodeId, packet: Packet, now: SimTime, cmds: &mut Vec<Cmd>) {
        match packet {
            Packet::Request(req) => self.handle_request(req, now, cmds),
            Packet::Reply(rep) => self.handle_reply(rep, now, cmds),
            Packet::Error(err) => self.handle_error(err, now, cmds),
            Packet::Data(data) => self.handle_data(data, now, cmds),
        }
    }

    /// The MAC promiscuously overheard a data-bearing frame addressed to
    /// someone else (`transmitter` is the MAC-level sender).
    fn on_snoop(
        &mut self,
        transmitter: NodeId,
        packet: &Packet,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        match packet {
            Packet::Data(data) => {
                self.learn_from_route(&data.route, Some(transmitter), now, cmds);
                self.cache.mark_used(&data.route, now);
                self.trace_refresh(&data.route, cmds);
                self.maybe_gratuitous_reply(data, transmitter, now, cmds);
            }
            Packet::Reply(rep) => {
                self.learn_from_route(&rep.discovered, None, now, cmds);
            }
            Packet::Error(err) => {
                self.apply_link_break(err.broken, CacheRemovalCause::ErrorReceived, now, cmds);
            }
            Packet::Request(_) => {} // requests are broadcast, never snooped
        }
    }

    /// Link-layer feedback: the MAC exhausted its retries sending `packet`
    /// to `next_hop`.
    fn on_tx_failed(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        let link = Link::new(self.id, next_hop);
        cmds.push(Cmd::Event { event: DsrEvent::LinkBreakDetected { link } });
        self.apply_link_break(link, CacheRemovalCause::MacFeedback, now, cmds);
        match packet {
            Packet::Data(data) => {
                self.originate_route_error(link, Some(&data), now, cmds);
                self.try_salvage(data, now, cmds);
            }
            Packet::Reply(rep) => {
                // Report the break toward the reply's own source route
                // origin, then give the reply up.
                self.originate_route_error_for_route(link, &rep.route, now, cmds);
                cmds.push(Cmd::Drop { uid: rep.uid, reason: DropReason::ControlUndeliverable });
            }
            Packet::Error(err) => {
                cmds.push(Cmd::Drop { uid: err.uid, reason: DropReason::ControlUndeliverable });
            }
            Packet::Request(req) => {
                // Requests are broadcast; a unicast failure here is
                // impossible, but drop defensively.
                cmds.push(Cmd::Drop { uid: req.uid, reason: DropReason::ControlUndeliverable });
            }
        }
    }

    /// A timer armed earlier fired.
    fn on_timer(&mut self, timer: DsrTimer, now: SimTime, cmds: &mut Vec<Cmd>) {
        match timer {
            DsrTimer::Tick => self.tick(now, cmds),
            DsrTimer::RequestTimeout(target) => self.request_timed_out(target, now, cmds),
        }
    }

    /// The uids of every packet waiting in the send buffer (conservation
    /// audits).
    fn buffered_uids(&self) -> Vec<u64> {
        self.send_buffer.uids()
    }

    /// Checks the paper's invariant that the route cache and the negative
    /// cache are mutually exclusive with respect to the links they hold.
    /// Returns a description of the first violation, or `None` when the
    /// invariant holds (trivially so without a negative cache).
    fn invariant_violation(&self, now: SimTime) -> Option<String> {
        let neg = self.negative.as_ref()?;
        for link in neg.live_links(now) {
            if self.cache.contains_link(link) {
                return Some(format!(
                    "node {}: link {}->{} is both negatively cached and route-cached",
                    self.id, link.from, link.to
                ));
            }
        }
        None
    }

    fn observe(&self, now: SimTime) -> Option<AgentObservation> {
        Some(AgentObservation {
            routes: self.cache.snapshot_routes(),
            negative_entries: self.negative.as_ref().map_or(0, |nc| nc.len(now)),
            send_buffer: self.send_buffer.len(),
            discoveries: self.requests.in_flight_count(),
        })
    }

    /// Enables (or disables) cache-decision tracing: every insert, lookup,
    /// link purge, eviction, expiry, and `mark_used` refresh is emitted as
    /// a [`DsrEvent::CacheDecision`] command for the driver's cache
    /// forensics recorder, in the order the agent made them. Pure
    /// observation — no timers, sends, or RNG draws are added, so protocol
    /// behaviour is identical either way. A decision copies its route by
    /// value, so tracing allocates only where it grows the caller's command
    /// buffer or the cache's event log past their largest size so far.
    fn set_decision_trace(&mut self, on: bool) {
        self.trace_decisions = on;
        self.cache.set_event_log(on);
    }
}

impl DsrNode {
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
            timer: DsrTimer::RequestTimeout(target),
            at: now + NONPROP_TIMEOUT,
        });
    }

    fn send_request(&mut self, target: NodeId, request_id: u64, ttl: u8, cmds: &mut Vec<Cmd>) {
        let piggyback = self.pending_error.take();
        let req = RouteRequest {
            uid: self.fresh_uid(),
            origin: self.id,
            target,
            request_id,
            path: InlineRoute::from_slice(&[self.id]),
            ttl,
            piggyback_error: piggyback,
        };
        cmds.push(Cmd::Event { event: DsrEvent::DiscoveryStarted { target, flood: ttl > 1 } });
        cmds.push(Cmd::Send {
            packet: Packet::Request(req),
            next_hop: NodeId::BROADCAST,
            jitter: SimDuration::ZERO,
        });
    }

    fn request_timed_out(&mut self, target: NodeId, now: SimTime, cmds: &mut Vec<Cmd>) {
        if !self.requests.discovering(target) {
            return;
        }
        if !self.send_buffer.has_packets_for(target) {
            // Nothing waiting anymore: stop discovering.
            self.requests.finish(target);
            return;
        }
        let (request_id, backoff) = self.requests.escalate(target);
        self.send_request(target, request_id, FLOOD_TTL, cmds);
        cmds.push(Cmd::SetTimer { timer: DsrTimer::RequestTimeout(target), at: now + backoff });
    }

    fn handle_request(&mut self, mut req: RouteRequest, now: SimTime, cmds: &mut Vec<Cmd>) {
        if req.origin == self.id {
            return; // our own flood reflected back
        }
        if let Some(link) = req.piggyback_error {
            // Gratuitous route repair: clean the broken link out before we
            // consider answering from cache.
            self.apply_link_break(link, CacheRemovalCause::ErrorReceived, now, cmds);
        }
        // From here on the path runs on to us: the route discovered so far.
        if req.path.push(self.id).is_err() {
            return; // already forwarded this copy
        }
        if !req.path.is_loop_free() {
            return; // a malformed path names no route: drop the copy
        }
        // Learn the reverse route back to the origin (802.11 links are
        // bidirectional — RTS/CTS requires it). It is assembled in the
        // scratch buffer, so a copy dropped below allocates nothing.
        let mut back = std::mem::take(&mut self.route_buf);
        back.clear();
        back.extend(req.path.nodes().iter().rev());
        self.insert_route(&back, CacheInsertProvenance::Overheard, now, cmds);
        self.route_buf = back;

        if req.target == self.id {
            // The destination answers every copy of the request, giving the
            // source a supply of alternate routes.
            let discovered = Route::from_slice(req.path.nodes()).expect("checked loop-free above");
            self.send_reply(discovered, false, cmds);
            return;
        }
        if !self.requests.note_seen(req.origin, req.request_id) {
            return; // duplicate
        }
        let found = self.cache.find(req.target, now);
        self.trace_lookup(req.target, CacheHitKind::Reply, &found, cmds);
        if let Some(cached) = found {
            if let Ok(full) = Route::join(req.path.nodes(), &cached) {
                cmds.push(Cmd::Event {
                    event: DsrEvent::CacheHit {
                        route: InlineRoute::from_slice(cached.nodes()),
                        kind: CacheHitKind::Reply,
                    },
                });
                self.send_reply(full, true, cmds);
                return; // cached reply quenches the flood here
            }
        }
        if req.ttl > 1 {
            req.ttl -= 1;
            req.uid = self.fresh_uid();
            let jitter = self.jitter();
            cmds.push(Cmd::Send {
                packet: Packet::Request(req),
                next_hop: NodeId::BROADCAST,
                jitter,
            });
        }
        // TTL exhausted (non-propagating probe): quietly die here.
    }

    fn send_reply(&mut self, discovered: Route, from_cache: bool, cmds: &mut Vec<Cmd>) {
        let reply_route =
            discovered.back_from(self.id).expect("replier is on the discovered route");
        cmds.push(Cmd::Event { event: DsrEvent::ReplyOriginated { from_cache } });
        let next_hop = match reply_route.next_hop_after(self.id) {
            Some(h) => h,
            None => {
                // One-node reply route: requester is ourselves (cannot
                // happen — the origin never answers its own request).
                return;
            }
        };
        let rep = RouteReply {
            uid: self.fresh_uid(),
            discovered,
            from_cache,
            route: reply_route,
            hop: 0,
            gratuitous: false,
        };
        let jitter = self.jitter();
        cmds.push(Cmd::Send { packet: Packet::Reply(rep), next_hop, jitter });
    }

    fn handle_reply(&mut self, mut rep: RouteReply, now: SimTime, cmds: &mut Vec<Cmd>) {
        // Every node the reply passes through may learn the discovered
        // route segments that involve it.
        self.learn_from_route(&rep.discovered, None, now, cmds);
        let final_recipient = rep.route.destination() == self.id;
        if final_recipient {
            let target = rep.discovered.destination();
            cmds.push(Cmd::Event {
                event: DsrEvent::ReplyAccepted {
                    discovered: Some(InlineRoute::from_slice(rep.discovered.nodes())),
                },
            });
            // Well-formed replies discover a route rooted at the requester;
            // anything else (corrupt or misdirected) is still mined for
            // usable segments by the learn_from_route call above.
            if rep.discovered.source() == self.id {
                let provenance = if rep.gratuitous {
                    CacheInsertProvenance::Gratuitous
                } else {
                    CacheInsertProvenance::Reply
                };
                self.insert_route(rep.discovered.nodes(), provenance, now, cmds);
            }
            if self.requests.finish(target) {
                cmds.push(Cmd::CancelTimer { timer: DsrTimer::RequestTimeout(target) });
            }
            self.flush_send_buffer(now, cmds);
        } else {
            // Forward toward the requester.
            match rep.route.position(self.id) {
                Some(idx) if idx + 1 < rep.route.len() => {
                    rep.hop = idx;
                    let next_hop = rep.route.nodes()[idx + 1];
                    cmds.push(Cmd::Send {
                        packet: Packet::Reply(rep),
                        next_hop,
                        jitter: SimDuration::ZERO,
                    });
                }
                _ => {
                    cmds.push(Cmd::Drop { uid: rep.uid, reason: DropReason::NotOnRoute });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn send_data_on_route(
        &mut self,
        pending: PendingData,
        route: Route,
        salvage_count: u8,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        debug_assert_eq!(route.source(), self.id);
        self.cache.mark_used(&route, now);
        self.trace_refresh(&route, cmds);
        let next_hop = route.nodes()[1];
        let data = DataPacket {
            uid: pending.uid,
            src: self.id,
            dst: pending.dst,
            payload_bytes: pending.payload_bytes,
            sent_at: pending.sent_at,
            route,
            hop: 0,
            salvage_count,
        };
        cmds.push(Cmd::Send { packet: Packet::Data(data), next_hop, jitter: SimDuration::ZERO });
    }

    fn handle_data(&mut self, mut data: DataPacket, now: SimTime, cmds: &mut Vec<Cmd>) {
        // Forwarding nodes cache the routes they carry and refresh expiry
        // timestamps ("seen in a unicast packet being forwarded").
        self.learn_from_route(&data.route, None, now, cmds);
        self.cache.mark_used(&data.route, now);
        self.trace_refresh(&data.route, cmds);
        if data.dst == self.id {
            cmds.push(Cmd::Deliver {
                uid: data.uid,
                src: data.src,
                sent_at: data.sent_at,
                bytes: data.payload_bytes,
                hops: data.route.hops(),
            });
            return;
        }
        let Some(idx) = data.route.position(self.id) else {
            cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::NotOnRoute });
            return;
        };
        data.hop = idx;
        // Negative cache: refuse to forward along a recently broken link.
        if let Some(neg) = &self.negative {
            let remaining = data.route.links().skip(idx);
            if let Some(bad) = neg.first_blacklisted(remaining, now) {
                cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::NegativeCacheHit });
                self.trace_remove(bad, CacheRemovalCause::NegativeVeto, false, cmds);
                self.originate_route_error(bad, Some(&data), now, cmds);
                return;
            }
        }
        self.cache.mark_forwarded(&data.route);
        let next_hop = data.route.nodes()[idx + 1];
        cmds.push(Cmd::Send { packet: Packet::Data(data), next_hop, jitter: SimDuration::ZERO });
    }

    fn try_salvage(&mut self, mut data: DataPacket, now: SimTime, cmds: &mut Vec<Cmd>) {
        if data.salvage_count >= MAX_SALVAGE_COUNT {
            cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::SalvageLimit });
            return;
        }
        let found = self.cache.find(data.dst, now);
        self.trace_lookup(data.dst, CacheHitKind::Salvage, &found, cmds);
        if let Some(alt) = found {
            cmds.push(Cmd::Event {
                event: DsrEvent::CacheHit {
                    route: InlineRoute::from_slice(alt.nodes()),
                    kind: CacheHitKind::Salvage,
                },
            });
            self.cache.mark_used(&alt, now);
            self.trace_refresh(&alt, cmds);
            let next_hop = alt.nodes()[1];
            data.route = alt;
            data.hop = 0;
            data.salvage_count += 1;
            cmds.push(Cmd::Send {
                packet: Packet::Data(data),
                next_hop,
                jitter: SimDuration::ZERO,
            });
            return;
        }
        if data.src == self.id {
            // Sources re-buffer and rediscover; intermediates must drop
            // (the paper: "a packet is dropped at the intermediate node if
            // [...] there is no alternate route in the local cache").
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
        } else {
            cmds.push(Cmd::Drop { uid: data.uid, reason: DropReason::NoRouteToSalvage });
        }
    }

    // ------------------------------------------------------------------
    // Route errors
    // ------------------------------------------------------------------

    /// Originates the route error for `link`, for a failed data packet
    /// (`data`) or a negative-cache refusal.
    fn originate_route_error(
        &mut self,
        link: Link,
        data: Option<&DataPacket>,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        if self.cfg.wider_error_notification {
            let uid = self.fresh_uid();
            self.note_error_seen(uid);
            let err = RouteErrorPkt {
                uid,
                broken: link,
                detector: self.id,
                delivery: ErrorDelivery::Broadcast,
            };
            cmds.push(Cmd::Event { event: DsrEvent::RouteErrorSent { wider: true } });
            let jitter = self.jitter();
            cmds.push(Cmd::Send {
                packet: Packet::Error(err),
                next_hop: NodeId::BROADCAST,
                jitter,
            });
        } else if let Some(data) = data {
            self.originate_route_error_for_route(link, &data.route, now, cmds);
        }
    }

    /// Base-DSR unicast error: notify the node that placed this source
    /// route, along the reversed traversed prefix.
    fn originate_route_error_for_route(
        &mut self,
        link: Link,
        route: &Route,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        if self.cfg.wider_error_notification {
            self.originate_route_error(link, None, now, cmds);
            return;
        }
        let source = route.source();
        if source == self.id {
            // We *are* the source: route maintenance is local; remember the
            // break for gratuitous repair.
            self.pending_error = Some(link);
            return;
        }
        let Some(back) = route.back_from(self.id) else {
            return;
        };
        let Some(next_hop) = back.next_hop_after(self.id) else {
            return;
        };
        let err = RouteErrorPkt {
            uid: self.fresh_uid(),
            broken: link,
            detector: self.id,
            delivery: ErrorDelivery::Unicast { to: source, route: back, hop: 0 },
        };
        cmds.push(Cmd::Event { event: DsrEvent::RouteErrorSent { wider: false } });
        cmds.push(Cmd::Send { packet: Packet::Error(err), next_hop, jitter: SimDuration::ZERO });
    }

    fn handle_error(&mut self, err: RouteErrorPkt, now: SimTime, cmds: &mut Vec<Cmd>) {
        match err.delivery {
            ErrorDelivery::Unicast { to, ref route, .. } => {
                self.apply_link_break(err.broken, CacheRemovalCause::ErrorReceived, now, cmds);
                if to == self.id {
                    // We are the notified source: remember the break for
                    // gratuitous route repair.
                    self.pending_error = Some(err.broken);
                } else if let Some(idx) = route.position(self.id) {
                    if idx + 1 < route.len() {
                        let next_hop = route.nodes()[idx + 1];
                        let mut fwd = err.clone();
                        if let ErrorDelivery::Unicast { hop, .. } = &mut fwd.delivery {
                            *hop = idx;
                        }
                        cmds.push(Cmd::Send {
                            packet: Packet::Error(fwd),
                            next_hop,
                            jitter: SimDuration::ZERO,
                        });
                    }
                }
            }
            ErrorDelivery::Broadcast => {
                if self.have_seen_error(err.uid) {
                    return;
                }
                self.note_error_seen(err.uid);
                let adaptive = &mut self.adaptive;
                let removed = self
                    .cache
                    .remove_link_with(err.broken, now, &mut |l| adaptive.observe_break(l, now));
                self.trace_remove(
                    err.broken,
                    CacheRemovalCause::WiderError,
                    removed.contained,
                    cmds,
                );
                self.emit_failovers(&removed, cmds);
                if let Some(neg) = &mut self.negative {
                    neg.insert(err.broken, now);
                }
                if removed.contained {
                    self.pending_error = Some(err.broken);
                }
                // The paper's gate: re-broadcast only if we cached the link
                // AND used such a route in packets we forwarded.
                if removed.contained && removed.was_used_for_forwarding {
                    cmds.push(Cmd::Event { event: DsrEvent::RouteErrorRebroadcast });
                    let jitter = self.jitter();
                    cmds.push(Cmd::Send {
                        packet: Packet::Error(err),
                        next_hop: NodeId::BROADCAST,
                        jitter,
                    });
                }
            }
        }
    }

    fn have_seen_error(&self, uid: u64) -> bool {
        self.seen_errors_set.contains(&uid)
    }

    fn note_error_seen(&mut self, uid: u64) {
        if !self.seen_errors_set.insert(uid) {
            return;
        }
        if self.seen_errors.len() >= SEEN_ERROR_CACHE {
            if let Some(evicted) = self.seen_errors.pop_front() {
                self.seen_errors_set.remove(&evicted);
            }
        }
        self.seen_errors.push_back(uid);
    }

    /// Common bookkeeping when a link is learned broken (feedback, error
    /// packet, or piggyback): purge it from the route cache, blacklist it,
    /// and feed the adaptive-timeout estimator.
    fn apply_link_break(
        &mut self,
        link: Link,
        cause: CacheRemovalCause,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        let adaptive = &mut self.adaptive;
        let removed =
            self.cache.remove_link_with(link, now, &mut |l| adaptive.observe_break(l, now));
        self.trace_remove(link, cause, removed.contained, cmds);
        self.emit_failovers(&removed, cmds);
        if let Some(neg) = &mut self.negative {
            neg.insert(link, now);
        }
    }

    /// Reports every destination that lost a route to the purged link but
    /// still has a cached alternate (multipath caching): an always-on
    /// protocol event per destination, plus a traced decision carrying the
    /// surviving route when decision tracing is enabled.
    fn emit_failovers(&self, removed: &RemovedLink, cmds: &mut Vec<Cmd>) {
        for (dst, route) in &removed.failovers {
            cmds.push(Cmd::Event { event: DsrEvent::Failover { dst: *dst } });
            if self.trace_decisions {
                cmds.push(Cmd::Event {
                    event: DsrEvent::CacheDecision {
                        decision: CacheDecision::Failover {
                            dst: *dst,
                            route: InlineRoute::from_slice(route.nodes()),
                        },
                    },
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Cache learning
    // ------------------------------------------------------------------

    /// Caches whatever of `route` is usable from this node: the suffix
    /// from us onward, the reversed prefix back to the route's source, or —
    /// when we are not on the route but overheard `transmitter` — routes
    /// through the transmitter.
    ///
    /// Runs on every data frame a node forwards or overhears, nearly always
    /// to re-learn what it knows: candidates are slices of `route` or are
    /// assembled in one reused buffer, so nothing is allocated unless the
    /// cache really adds an entry.
    fn learn_from_route(
        &mut self,
        route: &Route,
        transmitter: Option<NodeId>,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        let nodes = route.nodes();
        let provenance = CacheInsertProvenance::Overheard;
        let mut buf = std::mem::take(&mut self.route_buf);
        if let Some(at) = route.position(self.id) {
            self.insert_route(&nodes[at..], provenance, now, cmds);
            buf.clear();
            buf.extend(nodes[..=at].iter().rev());
            self.insert_route(&buf, provenance, now, cmds);
        } else if let Some(pos) = transmitter.and_then(|tx| route.position(tx)) {
            // We overheard `tx` transmitting: the link self->tx exists.
            buf.clear();
            buf.push(self.id);
            buf.extend_from_slice(&nodes[pos..]);
            self.insert_route(&buf, provenance, now, cmds);
            buf.truncate(1);
            buf.extend(nodes[..=pos].iter().rev());
            self.insert_route(&buf, provenance, now, cmds);
        }
        self.route_buf = buf;
    }

    /// Inserts the loop-free node sequence `route` into the route cache,
    /// honoring negative-cache mutual exclusion (the route is truncated
    /// before any blacklisted link), and flushes any send-buffered packets
    /// the new route can serve.
    fn insert_route(
        &mut self,
        route: &[NodeId],
        provenance: CacheInsertProvenance,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        let mut filtered = route;
        if let Some(neg) = &self.negative {
            let vetoed = Link::along(route).enumerate().find(|&(_, l)| neg.contains(l, now));
            if let Some((i, vetoed)) = vetoed {
                self.trace_remove(vetoed, CacheRemovalCause::NegativeVeto, false, cmds);
                filtered = &route[..=i];
            }
        }
        if filtered.len() < 2 {
            return;
        }
        let changed = self.cache.insert_slice(filtered, now);
        if self.trace_decisions {
            cmds.push(Cmd::Event {
                event: DsrEvent::CacheDecision {
                    decision: CacheDecision::Insert {
                        route: InlineRoute::from_slice(filtered),
                        provenance,
                        changed,
                    },
                },
            });
        }
        // Inserting may have evicted under capacity pressure.
        self.drain_cache_events(cmds);
        if !self.send_buffer.is_empty() {
            self.flush_send_buffer(now, cmds);
        }
    }

    /// Sends every buffered packet whose destination is now routable.
    fn flush_send_buffer(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        // Every destination is screened before anything is sent.
        let mut routable = std::mem::take(&mut self.flush_dsts);
        self.send_buffer.destinations_into(&mut routable);
        routable.retain(|&dst| self.cache.find(dst, now).is_some());
        for &dst in &routable {
            let packets = self.send_buffer.take_for(dst);
            for pending in packets {
                // The routable pre-screen above is untraced by design: only
                // the per-packet find that actually commits a route to use
                // is a decision worth a trace row.
                let found = self.cache.find(dst, now);
                self.trace_lookup(dst, CacheHitKind::Origination, &found, cmds);
                if let Some(route) = found {
                    self.send_data_on_route(pending, route, 0, now, cmds);
                } else {
                    // Route vanished mid-flush (cannot happen today; be
                    // safe and re-buffer).
                    let _ = self.send_buffer.push(pending, now);
                }
            }
            if self.requests.finish(dst) {
                cmds.push(Cmd::CancelTimer { timer: DsrTimer::RequestTimeout(dst) });
            }
        }
        routable.clear();
        self.flush_dsts = routable;
    }

    // ------------------------------------------------------------------
    // Gratuitous replies
    // ------------------------------------------------------------------

    fn maybe_gratuitous_reply(
        &mut self,
        data: &DataPacket,
        transmitter: NodeId,
        now: SimTime,
        cmds: &mut Vec<Cmd>,
    ) {
        let route = &data.route;
        let (Some(i), Some(j)) = (route.position(transmitter), route.position(self.id)) else {
            return;
        };
        if j <= i + 1 {
            return; // no shortcut available
        }
        let flow = (route.source(), route.destination());
        self.grat_replies.retain(|&(_, at)| at + GRAT_REPLY_HOLDOFF > now);
        if self.grat_replies.iter().any(|&(f, _)| f == flow) {
            return; // recently advertised for this flow
        }
        if self.grat_replies.len() >= GRAT_REPLY_CACHE {
            self.grat_replies.pop_front();
        }
        self.grat_replies.push_back((flow, now));

        // Shortened route: source .. transmitter, then directly us, then
        // the rest from our position.
        let nodes = route.nodes();
        let Ok(shortened) = self.scratch_route(|buf| {
            buf.extend_from_slice(&nodes[..=i]);
            buf.extend_from_slice(&nodes[j..]);
        }) else {
            return;
        };
        // Reply route from us back to the source via the transmitter.
        let me = self.id;
        let Ok(reply_route) = self.scratch_route(|buf| {
            buf.push(me);
            buf.extend(nodes[..=i].iter().rev());
        }) else {
            return;
        };
        let Some(next_hop) = reply_route.next_hop_after(self.id) else {
            return;
        };
        cmds.push(Cmd::Event { event: DsrEvent::ReplyOriginated { from_cache: true } });
        let rep = RouteReply {
            uid: self.fresh_uid(),
            discovered: shortened,
            from_cache: true,
            route: reply_route,
            hop: 0,
            gratuitous: true,
        };
        let jitter = self.jitter();
        cmds.push(Cmd::Send { packet: Packet::Reply(rep), next_hop, jitter });
    }

    /// The route `fill` writes into the emptied scratch buffer, copied once
    /// into its `Route`.
    fn scratch_route(
        &mut self,
        fill: impl FnOnce(&mut Vec<NodeId>),
    ) -> Result<Route, InvalidRoute> {
        let mut buf = std::mem::take(&mut self.route_buf);
        buf.clear();
        fill(&mut buf);
        let route = Route::from_slice(&buf);
        self.route_buf = buf;
        route
    }

    // ------------------------------------------------------------------
    // Housekeeping
    // ------------------------------------------------------------------

    fn tick(&mut self, now: SimTime, cmds: &mut Vec<Cmd>) {
        cmds.push(Cmd::SetTimer { timer: DsrTimer::Tick, at: now + RECOMPUTE_PERIOD });
        self.send_buffer.purge_expired(now, |expired| {
            cmds.push(Cmd::Drop { uid: expired.uid, reason: DropReason::SendBufferTimeout });
        });
        if let Some(neg) = &mut self.negative {
            neg.purge(now);
        }
        match self.cfg.expiry {
            ExpiryPolicy::None => {}
            ExpiryPolicy::Static { timeout } => {
                self.cache.expire(now, timeout);
                self.drain_cache_events(cmds);
            }
            ExpiryPolicy::Adaptive { quiet_term, .. } => {
                let timeout = self.adaptive.timeout_with(now, quiet_term);
                self.cache.expire(now, timeout);
                // Keep read-time expiry in lock-step with the sweep's
                // freshly recomputed timeout.
                self.cache.set_read_expiry(Some(timeout));
                self.drain_cache_events(cmds);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use sim_core::RngFactory;

    use super::*;
    use crate::config::DsrConfig;

    /// The commands one agent input appends to an empty buffer.
    fn cmds_of(input: impl FnOnce(&mut Vec<Cmd>)) -> Vec<Cmd> {
        let mut cmds = Vec::new();
        input(&mut cmds);
        cmds
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn route(ids: &[u16]) -> Route {
        Route::new(ids.iter().map(|&i| n(i)).collect()).expect("valid route")
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn agent(id: u16, cfg: DsrConfig) -> DsrNode {
        DsrNode::new(n(id), cfg, RngFactory::new(1).stream("agent-test", u64::from(id)))
    }

    fn data_on(route_ids: &[u16], uid: u64) -> DataPacket {
        let r = route(route_ids);
        DataPacket {
            uid,
            src: r.source(),
            dst: r.destination(),
            payload_bytes: 512,
            sent_at: SimTime::ZERO,
            route: r,
            hop: 0,
            salvage_count: 0,
        }
    }

    fn count_event(cmds: &[Cmd], pred: impl Fn(&DsrEvent) -> bool) -> usize {
        cmds.iter().filter(|c| matches!(c, Cmd::Event { event } if pred(event))).count()
    }

    /// Every input appends these to a pooled buffer that keeps the room of
    /// its largest burst, traced or not: a protocol event that outgrew the
    /// largest packet would widen all of them.
    #[test]
    fn a_command_stays_as_wide_as_it_was() {
        assert_eq!(std::mem::size_of::<Cmd>(), 88);
    }

    /// A node lives as long as the run, one per simulated node: a field
    /// added to it shows in every scenario's peak heap.
    #[test]
    fn node_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<DsrNode>(), 632);
    }

    /// A request path that visits a node twice names no route. It must be
    /// dropped both where the target would answer it and where a cached
    /// route would, not unwrapped into a `Route` it cannot be.
    #[test]
    fn a_looped_request_path_is_dropped_not_answered() {
        let looped = |target: u16| RouteRequest {
            uid: 1,
            origin: n(0),
            target: n(target),
            request_id: 1,
            path: InlineRoute::from_slice(&[n(0), n(2), n(0)]),
            ttl: 8,
            piggyback_error: None,
        };
        let mut target = agent(5, DsrConfig::base());
        let cmds =
            cmds_of(|sink| target.on_receive(n(0), Packet::Request(looped(5)), t(0.0), sink));
        assert!(cmds.is_empty(), "the target answers nothing: {cmds:?}");
        assert!(target.cache().is_empty(), "and learns no reverse route");

        let mut cached = agent(5, DsrConfig::base());
        cmds_of(|sink| {
            cached.on_receive(n(6), Packet::Data(data_on(&[4, 5, 6, 9], 1)), t(0.0), sink)
        });
        assert!(cached.cache().find(n(9), t(0.0)).is_some(), "a route to answer from");
        let cmds =
            cmds_of(|sink| cached.on_receive(n(0), Packet::Request(looped(9)), t(0.1), sink));
        assert!(cmds.is_empty(), "nor does a node with a cached route: {cmds:?}");
    }

    #[test]
    fn multipath_failover_fires_without_new_discovery() {
        let mut a = agent(0, DsrConfig::multipath());
        let reply = |discovered: Route, uid| RouteReply {
            uid,
            route: discovered.prefix_through(n(0)).map(|p| p.reversed()).unwrap_or_else(|| {
                Route::new(vec![discovered.nodes()[1], n(0)]).expect("reply route")
            }),
            discovered,
            from_cache: false,
            hop: 0,
            gratuitous: false,
        };
        // Two link-disjoint routes to 3 arrive via replies.
        cmds_of(|sink| {
            a.on_receive(n(1), Packet::Reply(reply(route(&[0, 1, 3]), 1)), t(0.0), sink)
        });
        cmds_of(|sink| {
            a.on_receive(n(2), Packet::Reply(reply(route(&[0, 2, 3]), 2)), t(0.1), sink)
        });
        assert!(a.cache().contains_link(Link::new(n(1), n(3))));
        assert!(a.cache().contains_link(Link::new(n(2), n(3))));

        // Primary breaks: the agent fails over to the cached alternate.
        let cmds = cmds_of(|sink| {
            a.on_tx_failed(Packet::Data(data_on(&[0, 1, 3], 9)), n(1), t(1.0), sink)
        });
        assert_eq!(
            count_event(&cmds, |e| matches!(e, DsrEvent::Failover { dst } if *dst == n(3))),
            1
        );
        let survivor = a.cache().find(n(3), t(1.0)).expect("alternate survives");
        assert_eq!(survivor, route(&[0, 2, 3]));
    }

    #[test]
    fn single_path_config_never_emits_failover() {
        let mut a = agent(0, DsrConfig::base());
        let reply = |discovered: Route, uid| RouteReply {
            uid,
            route: discovered.prefix_through(n(0)).map(|p| p.reversed()).expect("on route"),
            discovered,
            from_cache: false,
            hop: 0,
            gratuitous: false,
        };
        cmds_of(|sink| {
            a.on_receive(n(1), Packet::Reply(reply(route(&[0, 1, 3]), 1)), t(0.0), sink)
        });
        cmds_of(|sink| {
            a.on_receive(n(2), Packet::Reply(reply(route(&[0, 2, 3]), 2)), t(0.1), sink)
        });
        let cmds = cmds_of(|sink| {
            a.on_tx_failed(Packet::Data(data_on(&[0, 1, 3], 9)), n(1), t(1.0), sink)
        });
        assert_eq!(count_event(&cmds, |e| matches!(e, DsrEvent::Failover { .. })), 0);
    }
}
