//! Pins what a DSR agent does with route discovery, byte for byte: a seeded
//! stream of requests, replies, data and route errors is fed to one node of
//! every paper variant, and every command it returns plus its whole route
//! cache after each step is folded into one FNV-1a digest.
//!
//! Request paths run from 1 to 24 nodes, across the 19 nodes a request
//! carries by value, and requests repeat ids the node has already seen
//! under other paths. The commands go through a small canonical writer of
//! kinds, uids, next hops and node ids rather than `{:?}`, so a change to
//! how a packet stores its nodes cannot move the digest through formatting
//! alone; only a change in what the agent decides can.

use std::fmt::Write;

use dsr::{DsrConfig, DsrEvent, DsrNode, DsrTimer};
use packet::{
    AgentCommand, CacheDecision, DataPacket, ErrorDelivery, InlineRoute, Link, Packet, Route,
    RouteErrorPkt, RouteReply, RouteRequest, RoutingAgent,
};
use sim_core::testkit::{cases, Step};
use sim_core::{NodeId, RngFactory, SimDuration, SimRng, SimTime};

type Cmd = AgentCommand<Packet, DsrTimer>;

/// The node under test.
const ME: u16 = 7;
/// Node ids are drawn from `0..NODES`.
const NODES: u16 = 32;

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The commands one agent input appends to an empty buffer.
fn cmds_of(input: impl FnOnce(&mut Vec<Cmd>)) -> Vec<Cmd> {
    let mut cmds = Vec::new();
    input(&mut cmds);
    cmds
}

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// A node other than `ME`.
fn other(rng: &mut SimRng) -> u16 {
    loop {
        let node = rng.random_range(0..NODES);
        if node != ME {
            return node;
        }
    }
}

/// `len` distinct nodes, the first of them `first`, none of them in
/// `avoid`.
fn distinct(rng: &mut SimRng, first: u16, len: usize, avoid: &[u16]) -> Vec<NodeId> {
    let mut pool: Vec<u16> = (0..NODES).filter(|i| *i != first && !avoid.contains(i)).collect();
    let mut nodes = vec![n(first)];
    while nodes.len() < len {
        nodes.push(n(pool.swap_remove(rng.random_range(0..pool.len()))));
    }
    nodes
}

/// A loop-free route of `2..=max_len` nodes holding `ME` at a position
/// drawn from `at..`.
fn route_through_me(rng: &mut SimRng, max_len: usize, at: usize) -> Route {
    let len = rng.random_range(2..=max_len);
    let first = other(rng);
    let mut nodes = distinct(rng, first, len, &[ME]);
    nodes[rng.random_range(at..len)] = n(ME);
    Route::new(nodes).expect("drawn without replacement")
}

#[derive(Debug)]
enum Input {
    Request { origin: u16, target: u16, id: u64, path: Vec<NodeId>, ttl: u8, piggyback: bool },
    Reply { discovered: Route, from_cache: bool },
    Data { route: Route },
    Error { broken: (u16, u16), broadcast: bool },
    Originate { dst: u16 },
    Tick,
}

/// The next input. A request is now and then another copy of one already
/// in `heard`, arriving by another path.
fn input(rng: &mut SimRng, heard: &[(u16, u16, u64)]) -> Input {
    match rng.random_range(0..16u32) {
        0..=8 => {
            let (origin, target, id) = if !heard.is_empty() && rng.random_bool(0.3) {
                heard[rng.random_range(0..heard.len())]
            } else {
                let target = if rng.random_bool(0.25) { ME } else { rng.random_range(0..NODES) };
                (other(rng), target, rng.random_range(0..4u64))
            };
            // Now and then the path already holds this node: a copy it
            // forwarded itself.
            let avoid: &[u16] = if rng.random_bool(0.1) { &[] } else { &[ME] };
            let len = rng.random_range(1..=24usize);
            Input::Request {
                origin,
                target,
                id,
                path: distinct(rng, origin, len, avoid),
                ttl: [1, 2, 255][rng.random_range(0..3usize)],
                piggyback: rng.random_bool(0.1),
            }
        }
        9 | 10 => Input::Reply {
            discovered: route_through_me(rng, 24, 0),
            from_cache: rng.random_bool(0.5),
        },
        11 | 12 => Input::Data { route: route_through_me(rng, 8, 1) },
        13 => Input::Error {
            broken: (rng.random_range(0..NODES), rng.random_range(0..NODES)),
            broadcast: rng.random_bool(0.5),
        },
        14 => Input::Originate { dst: rng.random_range(0..NODES) },
        _ => Input::Tick,
    }
}

fn request(uid: u64, origin: u16, target: u16, id: u64, path: &[NodeId], ttl: u8) -> RouteRequest {
    RouteRequest {
        uid,
        origin: n(origin),
        target: n(target),
        request_id: id,
        path: InlineRoute::from_slice(path),
        ttl,
        piggyback_error: None,
    }
}

fn write_nodes(out: &mut String, nodes: &[NodeId]) {
    out.push('[');
    for node in nodes {
        let _ = write!(out, "{} ", node.index());
    }
    out.push(']');
}

fn write_packet(out: &mut String, packet: &Packet) {
    match packet {
        Packet::Data(d) => {
            let _ = write!(out, "data {} {} {} {} ", d.uid, d.src.index(), d.dst.index(), d.hop);
            write_nodes(out, d.route.nodes());
            let _ = write!(out, " s{} w{}", d.salvage_count, packet.wire_size());
        }
        Packet::Request(r) => {
            let _ = write!(
                out,
                "rreq {} {} {} {} t{} ",
                r.uid,
                r.origin.index(),
                r.target.index(),
                r.request_id,
                r.ttl
            );
            write_nodes(out, r.path.nodes());
            write_link(out, r.piggyback_error);
            let _ = write!(out, " w{}", packet.wire_size());
        }
        Packet::Reply(r) => {
            let _ = write!(out, "rrep {} c{} g{} h{} ", r.uid, r.from_cache, r.gratuitous, r.hop);
            write_nodes(out, r.discovered.nodes());
            write_nodes(out, r.route.nodes());
            let _ = write!(out, " w{}", packet.wire_size());
        }
        Packet::Error(e) => {
            let _ = write!(out, "rerr {} d{} ", e.uid, e.detector.index());
            write_link(out, Some(e.broken));
            match &e.delivery {
                ErrorDelivery::Unicast { to, route, hop } => {
                    let _ = write!(out, " to{} h{} ", to.index(), hop);
                    write_nodes(out, route.nodes());
                }
                ErrorDelivery::Broadcast => out.push_str(" bcast"),
            }
        }
    }
}

fn write_link(out: &mut String, link: Option<Link>) {
    match link {
        Some(l) => {
            let _ = write!(out, " {}>{}", l.from.index(), l.to.index());
        }
        None => out.push_str(" -"),
    }
}

fn write_timer(out: &mut String, timer: DsrTimer) {
    match timer {
        DsrTimer::Tick => out.push_str("tick"),
        DsrTimer::RequestTimeout(t) => {
            let _ = write!(out, "rto{}", t.index());
        }
    }
}

fn write_decision(out: &mut String, decision: &CacheDecision) {
    match decision {
        CacheDecision::Insert { route, provenance, changed } => {
            let _ = write!(out, "insert {} {changed} ", provenance.name());
            write_nodes(out, route.nodes());
        }
        CacheDecision::Lookup { dst, purpose, route } => {
            let _ = write!(out, "lookup {} {} ", dst.index(), purpose.name());
            match route {
                Some(r) => write_nodes(out, r.nodes()),
                None => out.push('-'),
            }
        }
        CacheDecision::RemoveLink { link, cause, contained } => {
            let _ = write!(out, "remove {} {contained}", cause.name());
            write_link(out, Some(*link));
        }
        CacheDecision::Expire { route } => {
            out.push_str("expire ");
            write_nodes(out, route.nodes());
        }
        CacheDecision::Evict { route } => {
            out.push_str("evict ");
            write_nodes(out, route.nodes());
        }
        CacheDecision::Refresh { route } => {
            out.push_str("refresh ");
            write_nodes(out, route.nodes());
        }
        CacheDecision::Failover { dst, route } => {
            let _ = write!(out, "failover {} ", dst.index());
            write_nodes(out, route.nodes());
        }
    }
}

fn write_event(out: &mut String, event: &DsrEvent) {
    match event {
        DsrEvent::DataOriginated { uid } => {
            let _ = write!(out, "originated {uid}");
        }
        DsrEvent::DiscoveryStarted { target, flood } => {
            let _ = write!(out, "discovery {} {flood}", target.index());
        }
        DsrEvent::ReplyOriginated { from_cache } => {
            let _ = write!(out, "replied {from_cache}");
        }
        DsrEvent::ReplyAccepted { discovered } => {
            out.push_str("accepted ");
            match discovered {
                Some(r) => write_nodes(out, r.nodes()),
                None => out.push('-'),
            }
        }
        DsrEvent::CacheHit { route, kind } => {
            let _ = write!(out, "hit {} ", kind.name());
            write_nodes(out, route.nodes());
        }
        DsrEvent::RouteErrorSent { wider } => {
            let _ = write!(out, "rerr-sent {wider}");
        }
        DsrEvent::RouteErrorRebroadcast => out.push_str("rerr-rebroadcast"),
        DsrEvent::LinkBreakDetected { link } => {
            out.push_str("break");
            write_link(out, Some(*link));
        }
        DsrEvent::CacheDecision { decision } => write_decision(out, decision),
        DsrEvent::Failover { dst } => {
            let _ = write!(out, "failover {}", dst.index());
        }
    }
}

/// One line per command, in the order the agent returned them. A delivery
/// writes every field a driver or a host above DSR reads of it.
fn write_command(out: &mut String, cmd: &Cmd) {
    match cmd {
        Cmd::Send { packet, next_hop, jitter } => {
            let _ = write!(out, "send {} {} ", next_hop.index(), jitter.as_nanos());
            write_packet(out, packet);
        }
        Cmd::Deliver { uid, src, sent_at, bytes, hops } => {
            // The uid stands again where the retired application sequence
            // number stood: every delivered packet was drawn with the two
            // equal, so the pinned digests still hold.
            let _ = write!(
                out,
                "deliver {uid} {} {uid} {} {bytes} {hops}",
                src.index(),
                sent_at.as_nanos()
            );
        }
        Cmd::SetTimer { timer, at } => {
            out.push_str("set ");
            write_timer(out, *timer);
            let _ = write!(out, " {}", at.as_nanos());
        }
        Cmd::CancelTimer { timer } => {
            out.push_str("cancel ");
            write_timer(out, *timer);
        }
        Cmd::Drop { uid, reason } => {
            let _ = write!(out, "drop {uid} {}", reason.name());
        }
        Cmd::Event { event } => write_event(out, event),
    }
    out.push('\n');
}

/// Every route the node caches, in a canonical order.
fn write_cache(out: &mut String, agent: &DsrNode) {
    let mut routes = agent.cache().snapshot_routes();
    routes.sort_unstable_by(|a, b| a.nodes().cmp(b.nodes()));
    out.push_str("cache");
    for route in &routes {
        out.push(' ');
        write_nodes(out, route.nodes());
    }
    out.push('\n');
}

fn data(uid: u64, route: Route) -> DataPacket {
    let me = route.position(n(ME)).expect("drawn through ME");
    DataPacket {
        uid,
        src: route.source(),
        dst: route.destination(),
        payload_bytes: 512,
        sent_at: SimTime::ZERO,
        route,
        hop: me - 1,
        salvage_count: 0,
    }
}

/// Drives one agent through `steps` inputs and returns the digest of
/// everything it said and cached.
fn run(cfg: DsrConfig, traced: bool, rng: &mut SimRng, steps: usize) -> u64 {
    let mut agent = DsrNode::new(n(ME), cfg, RngFactory::new(3).stream("discovery-digest", 0));
    agent.set_decision_trace(traced);
    let mut digest = FNV_OFFSET;
    let mut out = String::new();
    for cmd in cmds_of(|sink| agent.start(SimTime::ZERO, sink)) {
        write_command(&mut out, &cmd);
    }
    let mut now = SimTime::from_secs(1.0);
    // Requests that reached the node, for later copies of them.
    let mut heard: Vec<(u16, u16, u64)> = Vec::new();
    for i in 0..steps {
        let _at = Step(i);
        now += SimDuration::from_millis(rng.random_range(1..400u32).into());
        let uid = 1000 + i as u64;
        let cmds = match input(rng, &heard) {
            Input::Request { origin, target, id, path, ttl, piggyback } => {
                heard.push((origin, target, id));
                let mut req = request(uid, origin, target, id, &path, ttl);
                if piggyback {
                    req.piggyback_error = Some(Link::new(path[0], n(rng.random_range(0..NODES))));
                }
                let from = *path.last().expect("non-empty");
                cmds_of(|sink| agent.on_receive(from, Packet::Request(req), now, sink))
            }
            Input::Reply { discovered, from_cache } => {
                let at = discovered.position(n(ME)).expect("through ME");
                let back = match discovered.prefix_through(n(ME)) {
                    Some(prefix) if at > 0 => prefix.reversed(),
                    _ => Route::new(vec![discovered.nodes()[1], n(ME)]).expect("two nodes"),
                };
                let from = discovered.nodes().get(at + 1).copied().unwrap_or(n(0));
                let rep = RouteReply {
                    uid,
                    discovered,
                    from_cache,
                    route: back,
                    hop: 0,
                    gratuitous: false,
                };
                cmds_of(|sink| agent.on_receive(from, Packet::Reply(rep), now, sink))
            }
            Input::Data { route } => {
                let from = route.nodes()[route.position(n(ME)).expect("through ME") - 1];
                cmds_of(|sink| agent.on_receive(from, Packet::Data(data(uid, route)), now, sink))
            }
            Input::Error { broken: (a, b), broadcast } => {
                if a == b || a == ME {
                    continue;
                }
                let delivery = if broadcast {
                    ErrorDelivery::Broadcast
                } else {
                    let back = Route::new(vec![n(a), n(ME)]).expect("two nodes");
                    ErrorDelivery::Unicast { to: n(ME), route: back, hop: 0 }
                };
                let err =
                    RouteErrorPkt { uid, broken: Link::new(n(a), n(b)), detector: n(a), delivery };
                cmds_of(|sink| agent.on_receive(n(a), Packet::Error(err), now, sink))
            }
            Input::Originate { dst } => {
                if dst == ME {
                    continue;
                }
                cmds_of(|sink| agent.originate(n(dst), 512, now, sink))
            }
            Input::Tick => cmds_of(|sink| agent.on_timer(DsrTimer::Tick, now, sink)),
        };
        out.clear();
        let _ = writeln!(out, "step {i}");
        for cmd in &cmds {
            write_command(&mut out, cmd);
        }
        write_cache(&mut out, &agent);
        digest = fnv1a(digest, out.as_bytes());
    }
    digest
}

/// The paper's five variants.
fn variants() -> [DsrConfig; 5] {
    [
        DsrConfig::base(),
        DsrConfig::wider_error(),
        DsrConfig::adaptive_expiry(),
        DsrConfig::negative_cache(),
        DsrConfig::combined(),
    ]
}

#[test]
fn request_handling_matches_its_pinned_digest() {
    let mut digest = FNV_OFFSET;
    cases("request-handling-digest", 0..24, |case, rng| {
        for (v, cfg) in variants().into_iter().enumerate() {
            let traced = (case + v as u64).is_multiple_of(2);
            let run_digest = run(cfg, traced, rng, 80);
            digest = fnv1a(digest, &run_digest.to_le_bytes());
        }
    });
    assert_eq!(digest, 0xbe08_1e0d_d490_ca37, "request-handling digest moved: {digest:#018x}");
}
