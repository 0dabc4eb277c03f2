//! Test-only reference model of [`CacheStamper`]: the `stamp` body the
//! recorder had before it learned to spend its row budget first — a
//! `HashMap` link memo, every row built in full and *then* dropped at the
//! cap, route text grown hop by hop through `to_string()` — fed decisions
//! whose routes are owned [`Route`]s, as agents emitted them before
//! decisions carried their routes by value. Slow and allocation-happy on
//! purpose: obviously right, and the oracle the seeded differential below
//! drives in lock-step with the shipped recorder (the same pattern as
//! `dsr::cache::path_cache::reference`). Only the backward staleness scan is
//! shared; it did not change.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mobility::{Field, LinkOracle, RandomWaypoint, WaypointConfig};
use obs::CacheRow;
use packet::{
    CacheDecision, CacheHitKind, CacheInsertProvenance, CacheRemovalCause, InlineRoute, Link, Route,
};
use sim_core::{NodeId, RngFactory, SimDuration, SimRng, SimTime};

use super::{staleness_ns, CacheStamper, CacheTraceBuf};

/// A [`CacheDecision`] with every route an owned, validated [`Route`]. The
/// generator draws these and the reference stamps them; the shipped stamper
/// gets [`Decision::inline`]'s copy, so the differential checks the copy too.
#[derive(Debug, Clone)]
enum Decision {
    Insert { route: Route, provenance: CacheInsertProvenance, changed: bool },
    Lookup { dst: NodeId, purpose: CacheHitKind, route: Option<Route> },
    RemoveLink { link: Link, cause: CacheRemovalCause, contained: bool },
    Expire { route: Route },
    Evict { route: Route },
    Refresh { route: Route },
    Failover { dst: NodeId, route: Route },
}

impl Decision {
    /// The decision as an agent emits it.
    fn inline(&self) -> CacheDecision {
        let copy = |route: &Route| InlineRoute::from_slice(route.nodes());
        match self {
            Decision::Insert { route, provenance, changed } => CacheDecision::Insert {
                route: copy(route),
                provenance: *provenance,
                changed: *changed,
            },
            Decision::Lookup { dst, purpose, route } => CacheDecision::Lookup {
                dst: *dst,
                purpose: *purpose,
                route: route.as_ref().map(copy),
            },
            Decision::RemoveLink { link, cause, contained } => {
                CacheDecision::RemoveLink { link: *link, cause: *cause, contained: *contained }
            }
            Decision::Expire { route } => CacheDecision::Expire { route: copy(route) },
            Decision::Evict { route } => CacheDecision::Evict { route: copy(route) },
            Decision::Refresh { route } => CacheDecision::Refresh { route: copy(route) },
            Decision::Failover { dst, route } => {
                CacheDecision::Failover { dst: *dst, route: copy(route) }
            }
        }
    }
}

struct ReferenceStamper {
    buf: Arc<Mutex<CacheTraceBuf>>,
    cap: usize,
    last_up: HashMap<(u16, u16), SimTime>,
}

/// Normalized (undirected) memo key for a link's endpoints.
fn link_key(a: NodeId, b: NodeId) -> (u16, u16) {
    let (a, b) = (a.index() as u16, b.index() as u16);
    (a.min(b), a.max(b))
}

/// Renders a route as `0-1-2` for a trace row.
fn route_str(route: &Route) -> String {
    let mut out = String::new();
    for (i, n) in route.nodes().iter().enumerate() {
        if i > 0 {
            out.push('-');
        }
        out.push_str(&n.index().to_string());
    }
    out
}

impl ReferenceStamper {
    fn new(buf: Arc<Mutex<CacheTraceBuf>>, cap: usize) -> Self {
        ReferenceStamper { buf, cap, last_up: HashMap::new() }
    }

    fn stamp(&mut self, oracle: &LinkOracle, now: SimTime, node: u16, decision: Decision) {
        let dash = || "-".to_string();
        let (op, kind, dst, route, valid, stale_ns) = match decision {
            Decision::Insert { route, provenance, changed: _ } => (
                "insert",
                provenance.name().to_string(),
                dash(),
                route_str(&route),
                Some(self.route_up(oracle, &route, now)),
                None,
            ),
            Decision::Lookup { dst, purpose, route } => (
                "lookup",
                purpose.name().to_string(),
                dst.index().to_string(),
                route.as_ref().map_or_else(dash, route_str),
                route.as_ref().map(|r| self.route_up(oracle, r, now)),
                None,
            ),
            Decision::RemoveLink { link, cause, contained: _ } => {
                let up = oracle.link_up(link.from, link.to, now);
                let stale_ns = if up {
                    self.last_up.insert(link_key(link.from, link.to), now);
                    0
                } else {
                    let key = link_key(link.from, link.to);
                    let floor = self.last_up.get(&key).copied().unwrap_or(SimTime::ZERO);
                    staleness_ns(oracle, link.from, link.to, now, floor)
                };
                let link = format!("{}>{}", link.from.index(), link.to.index());
                ("remove", cause.name().to_string(), dash(), link, Some(up), Some(stale_ns))
            }
            Decision::Expire { route } => {
                let valid = oracle.route_valid(route.nodes(), now);
                ("expire", dash(), dash(), route_str(&route), Some(valid), None)
            }
            Decision::Evict { route } => {
                let valid = oracle.route_valid(route.nodes(), now);
                ("evict", dash(), dash(), route_str(&route), Some(valid), None)
            }
            Decision::Refresh { route } => {
                let valid = self.route_up(oracle, &route, now);
                ("refresh", dash(), dash(), route_str(&route), Some(valid), None)
            }
            Decision::Failover { dst, route } => {
                let valid = self.route_up(oracle, &route, now);
                ("failover", dash(), dst.index().to_string(), route_str(&route), Some(valid), None)
            }
        };
        let row = CacheRow {
            t_ns: now.as_nanos(),
            node: node as u64,
            op: op.to_string(),
            kind,
            dst,
            route,
            valid,
            stale_ns,
        };
        let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
        if buf.rows.len() < self.cap {
            buf.rows.push(row);
        } else {
            buf.dropped += 1;
        }
    }

    fn route_up(&mut self, oracle: &LinkOracle, route: &Route, t: SimTime) -> bool {
        let valid = oracle.route_valid(route.nodes(), t);
        if valid {
            for w in route.nodes().windows(2) {
                self.last_up.insert(link_key(w[0], w[1]), t);
            }
        }
        valid
    }
}

/// Uniform draw from `0..n`.
fn below(rng: &mut SimRng, n: usize) -> usize {
    (sim_core::rng::uniform(rng, 0.0, n as f64) as usize).min(n - 1)
}

fn pick<T: Copy>(rng: &mut SimRng, from: &[T]) -> T {
    from[below(rng, from.len())]
}

/// Seeded decision stream over one mobility scenario: every variant, routes
/// that are valid now (a walk over current neighbours) mixed with arbitrary
/// ones, and purges biased towards links a recent decision touched — in
/// either direction — so the memo's floor decides their `stale_ns`.
struct Generator {
    rng: SimRng,
    oracle: LinkOracle,
    nodes: usize,
    now: SimTime,
    recent: Vec<Link>,
}

impl Generator {
    fn new(seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let mut rng = factory.stream("stamper-differential", 0);
        let nodes = 4 + below(&mut rng, 37);
        // Fast nodes in a field a few radio ranges across: links flip
        // several times within the ~30 simulated seconds a case spans.
        let model = RandomWaypoint::generate(
            &WaypointConfig {
                num_nodes: nodes,
                field: Field::new(700.0, 400.0),
                min_speed: 5.0,
                max_speed: 60.0,
                pause_time: SimDuration::ZERO,
                duration: SimDuration::from_secs(40.0),
            },
            factory,
        );
        Generator {
            rng,
            oracle: LinkOracle::new(Arc::new(model), 250.0),
            nodes,
            now: SimTime::ZERO,
            recent: Vec::new(),
        }
    }

    fn node(&mut self) -> NodeId {
        NodeId::new(below(&mut self.rng, self.nodes) as u16)
    }

    /// A loop-free route of 2–24 nodes (fewer where the walk dead-ends, or
    /// the scenario has fewer nodes): long enough that some exceed what a
    /// decision holds inline.
    fn route(&mut self) -> Route {
        let want = (2 + below(&mut self.rng, 23)).min(self.nodes);
        let walk = below(&mut self.rng, 2) == 0;
        let mut nodes = vec![self.node()];
        while nodes.len() < want {
            let next = if walk {
                let last = *nodes.last().expect("seeded with one node");
                let fresh: Vec<NodeId> = self
                    .oracle
                    .neighbors(last, self.now)
                    .into_iter()
                    .filter(|n| !nodes.contains(n))
                    .collect();
                if fresh.is_empty() {
                    break;
                }
                pick(&mut self.rng, &fresh)
            } else {
                self.node()
            };
            if !nodes.contains(&next) {
                nodes.push(next);
            }
        }
        let route = Route::new(nodes).expect("built loop-free");
        self.recent.extend(route.links());
        let excess = self.recent.len().saturating_sub(12);
        self.recent.drain(..excess);
        route
    }

    fn link(&mut self) -> Link {
        let link = if !self.recent.is_empty() && below(&mut self.rng, 4) > 0 {
            pick(&mut self.rng, &self.recent)
        } else {
            Link::new(self.node(), self.node())
        };
        if below(&mut self.rng, 2) == 0 {
            Link::new(link.to, link.from)
        } else {
            link
        }
    }

    fn next(&mut self) -> (SimTime, u16, Decision) {
        self.now += SimDuration::from_nanos(below(&mut self.rng, 150_000_000) as u64);
        let decision = match below(&mut self.rng, 11) {
            0..=2 => Decision::RemoveLink {
                link: self.link(),
                cause: pick(
                    &mut self.rng,
                    &[
                        CacheRemovalCause::ErrorReceived,
                        CacheRemovalCause::WiderError,
                        CacheRemovalCause::MacFeedback,
                        CacheRemovalCause::NegativeVeto,
                    ],
                ),
                contained: below(&mut self.rng, 2) == 0,
            },
            3 | 4 => Decision::Insert {
                route: self.route(),
                provenance: pick(
                    &mut self.rng,
                    &[
                        CacheInsertProvenance::Reply,
                        CacheInsertProvenance::Overheard,
                        CacheInsertProvenance::Gratuitous,
                    ],
                ),
                changed: below(&mut self.rng, 2) == 0,
            },
            5 | 6 => Decision::Lookup {
                dst: self.node(),
                purpose: pick(
                    &mut self.rng,
                    &[CacheHitKind::Origination, CacheHitKind::Salvage, CacheHitKind::Reply],
                ),
                route: (below(&mut self.rng, 3) > 0).then(|| self.route()),
            },
            7 => Decision::Expire { route: self.route() },
            8 => Decision::Evict { route: self.route() },
            9 => Decision::Refresh { route: self.route() },
            _ => Decision::Failover { dst: self.node(), route: self.route() },
        };
        (self.now, self.node().index() as u16, decision)
    }
}

#[test]
fn stamper_matches_the_reference_under_every_cap() {
    const SEEDS: u64 = 300;
    const STEPS: usize = 400;
    // Nothing kept, one row kept, a cap hit mid-stream, a cap never hit.
    const CAPS: [usize; 4] = [0, 1, 50, usize::MAX];
    let (mut purges_down, mut purges_up, mut misses, mut long) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..SEEDS {
        let mut gen = Generator::new(seed);
        let mut sides: Vec<_> = CAPS
            .iter()
            .map(|&cap| {
                let (ours, theirs): (Arc<Mutex<CacheTraceBuf>>, Arc<Mutex<CacheTraceBuf>>) =
                    Default::default();
                (
                    CacheStamper::with_cap(Arc::clone(&ours), gen.nodes, cap),
                    ReferenceStamper::new(Arc::clone(&theirs), cap),
                    ours,
                    theirs,
                )
            })
            .collect();
        for step in 0..STEPS {
            let (now, node, decision) = gen.next();
            for (cap, (stamper, reference, ours, theirs)) in CAPS.iter().zip(&mut sides) {
                stamper.stamp(&gen.oracle, now, node, decision.inline());
                reference.stamp(&gen.oracle, now, node, decision.clone());
                let (ours, theirs) = (ours.lock().unwrap(), theirs.lock().unwrap());
                // Rows are append-only, so equal lengths and equal last
                // rows after every call mean equal `rows` after every call.
                assert!(
                    ours.rows.len() == theirs.rows.len()
                        && ours.rows.last() == theirs.rows.last()
                        && ours.dropped == theirs.dropped,
                    "seed {seed} step {step} cap {cap}: {decision:?}\n \
                     ours   {} rows, {} dropped, last {:?}\n \
                     theirs {} rows, {} dropped, last {:?}",
                    ours.rows.len(),
                    ours.dropped,
                    ours.rows.last(),
                    theirs.rows.len(),
                    theirs.dropped,
                    theirs.rows.last(),
                );
            }
        }
        let (.., ours, theirs) = sides.last().expect("four caps");
        let (ours, theirs) = (ours.lock().unwrap(), theirs.lock().unwrap());
        assert_eq!(ours.rows, theirs.rows, "seed {seed}: uncapped traces differ");
        for row in &ours.rows {
            assert!(
                [&row.op, &row.kind, &row.dst, &row.route].iter().all(|s| s.capacity() == s.len()),
                "seed {seed}: over-reserved text in {row:?}"
            );
            purges_down += u64::from(row.op == "remove" && row.stale_ns > Some(0));
            purges_up += u64::from(row.op == "remove" && row.valid == Some(true));
            misses += u64::from(row.op == "lookup" && row.valid.is_none());
            long += u64::from(row.route.matches('-').count() >= InlineRoute::CAP);
        }
    }
    // The stream must keep reaching the cases the memo exists for.
    assert!(purges_down > 1_000, "only {purges_down} purges of broken links");
    assert!(purges_up > 1_000, "only {purges_up} premature purges");
    assert!(misses > 1_000, "only {misses} lookup misses");
    // And routes a decision cannot hold inline.
    assert!(long > 1_000, "only {long} routes of more than {} nodes", InlineRoute::CAP);
}

/// The row buffer grows by doubling but never past its cap, whichever cap:
/// a full buffer holds no room for rows it will never keep.
#[test]
fn row_room_never_exceeds_the_cap() {
    for (seed, cap) in [(0, 0), (1, 1), (2, 5), (3, 50), (4, 257)] {
        let mut gen = Generator::new(seed);
        let buf: Arc<Mutex<CacheTraceBuf>> = Default::default();
        let mut stamper = CacheStamper::with_cap(Arc::clone(&buf), gen.nodes, cap);
        for step in 0..2 * cap + 10 {
            let (now, node, decision) = gen.next();
            stamper.stamp(&gen.oracle, now, node, decision.inline());
            let rows = &buf.lock().unwrap().rows;
            assert!(rows.capacity() <= cap, "cap {cap} step {step}: room for {}", rows.capacity());
        }
        assert_eq!(buf.lock().unwrap().rows.len(), cap, "cap {cap} filled");
    }
}
