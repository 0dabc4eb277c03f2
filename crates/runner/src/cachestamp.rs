//! The cache-decision stamper: turns each agent [`CacheDecision`] into an
//! [`obs::CacheRow`] carrying the mobility oracle's verdict (was the route
//! physically valid? how long had the purged link been dead?).
//!
//! Pure observation: it reads the oracle at the current and past instants,
//! touches no metrics, schedules nothing and draws no RNG, so a traced
//! run's `Report` is byte-identical to an untraced one.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mobility::LinkOracle;
use obs::CacheRow;
use packet::{CacheDecision, Route};
use sim_core::{NodeId, SimDuration, SimTime};

/// Rows a cache-decision recorder appends into, shared with the campaign
/// layer across the panic-isolation boundary (the supervisor recovers the
/// buffer even when the run dies, so failed campaigns keep their traces).
#[derive(Debug, Default)]
pub struct CacheTraceBuf {
    /// Decisions in event-dispatch order.
    pub rows: Vec<CacheRow>,
    /// Rows discarded after [`CACHETRACE_MAX_ROWS`] filled.
    pub dropped: u64,
}

/// Deterministic per-run row cap for cache-decision traces. Overflow is
/// counted (never silently hidden) in [`CacheTraceBuf::dropped`]; the cap
/// itself is a constant so identical runs truncate identically.
pub const CACHETRACE_MAX_ROWS: usize = 1_000_000;

/// Backward step the staleness scan takes when hunting for the last
/// instant a purged link was still up.
const STALE_SCAN_STEP_MS: f64 = 250.0;

/// Maximum backward steps before the scan gives up and attributes the
/// staleness to the whole probed window (a deterministic lower bound).
const STALE_SCAN_MAX_STEPS: u32 = 256;

pub(crate) struct CacheStamper {
    /// Destination buffer (shared with the campaign supervisor).
    buf: Arc<Mutex<CacheTraceBuf>>,
    /// Most recent instant each link was *observed* up by a traced
    /// decision (valid insert, lookup hit, or refresh), keyed by the
    /// normalized endpoint pair. Floors the staleness scan so it never
    /// walks past ground the oracle already vouched for.
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

impl CacheStamper {
    pub fn new(buf: Arc<Mutex<CacheTraceBuf>>) -> Self {
        CacheStamper { buf, last_up: HashMap::new() }
    }

    /// Stamps one decision made by `node` at `now` and appends the row.
    pub fn stamp(&mut self, oracle: &LinkOracle, now: SimTime, node: u16, decision: CacheDecision) {
        let dash = || "-".to_string();
        let (op, kind, dst, route, valid, stale_ns) = match decision {
            CacheDecision::Insert { route, provenance, changed: _ } => (
                "insert",
                provenance.name().to_string(),
                dash(),
                route_str(&route),
                Some(self.route_up(oracle, &route, now)),
                None,
            ),
            CacheDecision::Lookup { dst, purpose, route } => (
                "lookup",
                purpose.name().to_string(),
                dst.index().to_string(),
                route.as_ref().map_or_else(dash, route_str),
                route.as_ref().map(|r| self.route_up(oracle, r, now)),
                None,
            ),
            CacheDecision::RemoveLink { link, cause, contained: _ } => {
                let up = oracle.link_up(link.from, link.to, now);
                let stale_ns = if up {
                    // Premature purge: the link is physically fine — the
                    // cache threw away working state. Zero latency by
                    // definition, and the memo learns the link is up.
                    self.last_up.insert(link_key(link.from, link.to), now);
                    0
                } else {
                    self.staleness_ns(oracle, link.from, link.to, now)
                };
                let link = format!("{}>{}", link.from.index(), link.to.index());
                ("remove", cause.name().to_string(), dash(), link, Some(up), Some(stale_ns))
            }
            // A route on its way out teaches the memo nothing.
            CacheDecision::Expire { route } => {
                let valid = oracle.route_valid(route.nodes(), now);
                ("expire", dash(), dash(), route_str(&route), Some(valid), None)
            }
            CacheDecision::Evict { route } => {
                let valid = oracle.route_valid(route.nodes(), now);
                ("evict", dash(), dash(), route_str(&route), Some(valid), None)
            }
            CacheDecision::Refresh { route } => {
                let valid = self.route_up(oracle, &route, now);
                ("refresh", dash(), dash(), route_str(&route), Some(valid), None)
            }
            // The verdict answers the strategy's key question: how often
            // does suppression discard a route that was in fact usable?
            CacheDecision::Suppress { route, action } => (
                "suppress",
                action.name().to_string(),
                route.destination().index().to_string(),
                route_str(&route),
                Some(self.route_up(oracle, &route, now)),
                None,
            ),
            // `route` is the surviving alternate the cache failed over to;
            // the verdict says whether the failover saved a rediscovery.
            CacheDecision::Failover { dst, route } => {
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
        if buf.rows.len() < CACHETRACE_MAX_ROWS {
            buf.rows.push(row);
        } else {
            buf.dropped += 1;
        }
    }

    /// The oracle's verdict on `route` at `t`; a valid route memoizes
    /// "every link was up at `t`" for the staleness scan's floor.
    fn route_up(&mut self, oracle: &LinkOracle, route: &Route, t: SimTime) -> bool {
        let valid = oracle.route_valid(route.nodes(), t);
        if valid {
            for w in route.nodes().windows(2) {
                self.last_up.insert(link_key(w[0], w[1]), t);
            }
        }
        valid
    }

    /// How long the cache kept a genuinely broken link past its physical
    /// break, in nanoseconds: walks backward from `now` (known down) in
    /// [`STALE_SCAN_STEP_MS`] steps until the oracle says the link was up
    /// — flooring at the last instant a traced decision already observed
    /// it up — then bisects the bracket to ~1 ms. If the scan exhausts its
    /// step budget without finding an up instant, the probed window is
    /// returned as a deterministic lower bound.
    fn staleness_ns(&self, oracle: &LinkOracle, a: NodeId, b: NodeId, now: SimTime) -> u64 {
        let floor = self.last_up.get(&link_key(a, b)).copied().unwrap_or(SimTime::ZERO);
        let step = SimDuration::from_millis(STALE_SCAN_STEP_MS);
        let mut down = now;
        let mut up = None;
        for _ in 0..STALE_SCAN_MAX_STEPS {
            let probe = if down.saturating_since(floor) > step { down - step } else { floor };
            if oracle.link_up(a, b, probe) {
                up = Some(probe);
                break;
            }
            down = probe;
            if probe == floor {
                break;
            }
        }
        let Some(up) = up else {
            return now.saturating_since(down).as_nanos();
        };
        let tol = SimDuration::from_millis(1.0);
        let (mut lo, mut hi) = (up, down);
        while hi.saturating_since(lo) > tol {
            let mid = lo + hi.saturating_since(lo) / 2;
            if oracle.link_up(a, b, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // `hi` is the earliest known-down instant of the bracket: the
        // break time to ~1 ms.
        now.saturating_since(hi).as_nanos()
    }
}
