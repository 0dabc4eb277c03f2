//! Adversarial fuzzing of the DSR agent: arbitrary (even nonsensical)
//! packet sequences must never panic it, never make it emit malformed
//! routes, and never violate the negative-cache exclusion invariant.

use dsr_caching::dsr::{DsrConfig, DsrNode, DsrTimer, MultipathConfig};
use dsr_caching::packet::{
    AgentCommand, DataPacket, ErrorDelivery, InlineRoute, Link, Packet, Route, RouteErrorPkt,
    RouteReply, RouteRequest, RoutingAgent,
};
use dsr_caching::sim_core::testkit::{cases, Step};
use dsr_caching::sim_core::{NodeId, RngFactory, SimDuration, SimRng, SimTime};

const ME: u16 = 0;

/// `len` distinct nodes out of `0..pool`.
fn nodes(rng: &mut SimRng, len: usize, pool: u16) -> Vec<NodeId> {
    let mut pool: Vec<u16> = (0..pool).collect();
    (0..len).map(|_| NodeId::new(pool.swap_remove(rng.random_range(0..pool.len())))).collect()
}

fn route(rng: &mut SimRng) -> Route {
    let len = rng.random_range(2..6);
    Route::new(nodes(rng, len, 10)).expect("drawn without replacement")
}

/// A request path as a peer might send it: short or on either side of the
/// 19 nodes a request carries inline, loop-free or drawn with replacement
/// (repeats, and this node itself).
fn request_path(rng: &mut SimRng) -> Vec<NodeId> {
    let len = if rng.random_bool(0.3) { rng.random_range(18..25) } else { rng.random_range(1..4) };
    let pool = if len > 10 { 30 } else { 10 };
    if rng.random_bool(0.5) {
        nodes(rng, len, pool)
    } else {
        (0..len).map(|_| NodeId::new(rng.random_range(0..pool))).collect()
    }
}

#[derive(Debug, Clone)]
enum Input {
    Originate { dst: u16 },
    Data { route: Route, hop_guess: usize },
    Request { origin: u16, target: u16, path: Vec<NodeId>, ttl: u8, id: u64 },
    Reply { discovered: Route, back: Route },
    ErrorUnicast { broken: (u16, u16), back: Route },
    ErrorBroadcast { broken: (u16, u16), uid: u64 },
    TxFailed { route: Route, next_hop: u16 },
    Snoop { route: Route, transmitter: u16 },
    Tick,
    RequestTimeout { target: u16 },
}

/// A node id in `from..10`.
fn id(rng: &mut SimRng, from: u16) -> u16 {
    rng.random_range(from..10u16)
}

fn input(rng: &mut SimRng) -> Input {
    match rng.random_range(0..10u32) {
        0 => Input::Originate { dst: id(rng, 1) },
        1 => Input::Data { route: route(rng), hop_guess: rng.random_range(0..6usize) },
        2 => Input::Request {
            origin: id(rng, 1),
            target: id(rng, 0),
            path: request_path(rng),
            ttl: rng.random_range(1..40u16) as u8,
            id: rng.random_range(0..6u64),
        },
        3 => Input::Reply { discovered: route(rng), back: route(rng) },
        4 => Input::ErrorUnicast { broken: (id(rng, 0), id(rng, 0)), back: route(rng) },
        5 => Input::ErrorBroadcast {
            broken: (id(rng, 0), id(rng, 0)),
            uid: rng.random_range(0..50u64),
        },
        6 => Input::TxFailed { route: route(rng), next_hop: id(rng, 1) },
        7 => Input::Snoop { route: route(rng), transmitter: id(rng, 0) },
        8 => Input::Tick,
        _ => Input::RequestTimeout { target: id(rng, 1) },
    }
}

fn mk_data(route: Route, hop_guess: usize) -> DataPacket {
    let hop = hop_guess.min(route.len() - 1);
    DataPacket {
        uid: 999,
        src: route.source(),
        dst: route.destination(),
        payload_bytes: 512,
        sent_at: SimTime::ZERO,
        route,
        hop,
        salvage_count: 0,
    }
}

/// Feeds `inputs` to a fresh agent of the given variant, checking every
/// emitted command and the negative-cache exclusion after every step.
fn drive(variant: usize, inputs: Vec<Input>) {
    let cfg = match variant {
        0 => DsrConfig::base(),
        1 => DsrConfig::combined(),
        _ => DsrConfig { multipath: Some(MultipathConfig::default()), ..DsrConfig::combined() },
    };
    let me = NodeId::new(ME);
    let mut agent = DsrNode::new(me, cfg, RngFactory::new(7).stream("fuzz", 0));
    let mut now = SimTime::from_secs(1.0);
    let mut cmds = Vec::new();
    for (i, input) in inputs.into_iter().enumerate() {
        let _at = Step(i);
        now += SimDuration::from_millis(37.0);
        cmds.clear();
        match input {
            Input::Originate { dst } => {
                if NodeId::new(dst) == me {
                    continue;
                }
                agent.originate(NodeId::new(dst), 512, now, &mut cmds)
            }
            Input::Data { route, hop_guess } => agent.on_receive(
                NodeId::new(1),
                Packet::Data(mk_data(route, hop_guess)),
                now,
                &mut cmds,
            ),
            Input::Request { origin, target, path, ttl, id } => {
                let req = RouteRequest {
                    uid: i as u64,
                    origin: NodeId::new(origin),
                    target: NodeId::new(target),
                    request_id: id,
                    path: InlineRoute::from_slice(&path),
                    ttl,
                    piggyback_error: None,
                };
                agent.on_receive(NodeId::new(origin), Packet::Request(req), now, &mut cmds)
            }
            Input::Reply { discovered, back } => {
                let rep = RouteReply {
                    uid: i as u64,
                    discovered,
                    from_cache: false,
                    hop: 0,
                    route: back,
                    gratuitous: false,
                };
                agent.on_receive(NodeId::new(1), Packet::Reply(rep), now, &mut cmds)
            }
            Input::ErrorUnicast { broken: (a, b), back } => {
                if a == b {
                    continue;
                }
                let err = RouteErrorPkt {
                    uid: i as u64,
                    broken: Link::new(NodeId::new(a), NodeId::new(b)),
                    detector: NodeId::new(a),
                    delivery: ErrorDelivery::Unicast {
                        to: back.destination(),
                        route: back,
                        hop: 0,
                    },
                };
                agent.on_receive(NodeId::new(1), Packet::Error(err), now, &mut cmds)
            }
            Input::ErrorBroadcast { broken: (a, b), uid } => {
                if a == b {
                    continue;
                }
                let err = RouteErrorPkt {
                    uid,
                    broken: Link::new(NodeId::new(a), NodeId::new(b)),
                    detector: NodeId::new(a),
                    delivery: ErrorDelivery::Broadcast,
                };
                agent.on_receive(NodeId::new(1), Packet::Error(err), now, &mut cmds)
            }
            Input::TxFailed { route, next_hop } => {
                if NodeId::new(next_hop) == me {
                    continue;
                }
                agent.on_tx_failed(
                    Packet::Data(mk_data(route, 0)),
                    NodeId::new(next_hop),
                    now,
                    &mut cmds,
                )
            }
            Input::Snoop { route, transmitter } => {
                let pkt = Packet::Data(mk_data(route, 0));
                agent.on_snoop(NodeId::new(transmitter), &pkt, now, &mut cmds)
            }
            Input::Tick => agent.on_timer(DsrTimer::Tick, now, &mut cmds),
            Input::RequestTimeout { target } => {
                agent.on_timer(DsrTimer::RequestTimeout(NodeId::new(target)), now, &mut cmds)
            }
        }
        // Invariants on everything the agent emits.
        for cmd in &cmds {
            if let AgentCommand::Send { packet, next_hop, .. } = cmd {
                assert!(*next_hop != me, "agent sent to itself: {packet:?}");
                if let Packet::Data(d) = packet {
                    assert!(d.route.len() >= 2);
                    assert!(d.route.position(me).is_some(), "we forward only on-route");
                }
            }
        }
        // Negative-cache mutual exclusion, continuously.
        if let Some(neg) = agent.negative_cache() {
            for a in 0..10u16 {
                for b in 0..10u16 {
                    if a == b {
                        continue;
                    }
                    let link = Link::new(NodeId::new(a), NodeId::new(b));
                    if neg.contains(link, now) {
                        assert!(
                            !agent.cache().contains_link(link),
                            "blacklisted {link} present in route cache"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn dsr_agent_never_panics_and_keeps_invariants() {
    cases("dsr_agent_never_panics_and_keeps_invariants", 0..48, |_, rng| {
        let variant = rng.random_range(0..3usize);
        let inputs = (0..rng.random_range(1..80usize)).map(|_| input(rng)).collect();
        drive(variant, inputs);
    });
}

/// The one case proptest ever stored for the property above (shrunk): a
/// base-DSR agent handed a reply whose discovered route and return route
/// both start at a neighbour rather than at itself.
#[test]
fn reply_discovered_and_routed_from_a_neighbour_is_survived() {
    let route = |ids: [u16; 2]| Route::new(ids.map(NodeId::new).to_vec()).expect("loop-free");
    drive(0, vec![Input::Reply { discovered: route([1, 2]), back: route([1, 0]) }]);
}
