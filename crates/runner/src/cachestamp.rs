//! The cache-decision stamper: turns each agent [`CacheDecision`] into an
//! [`obs::CacheRow`] carrying the mobility oracle's verdict (was the route
//! physically valid? how long had the purged link been dead?).
//!
//! Pure observation: it reads the oracle at the current and past instants,
//! touches no metrics, schedules nothing and draws no RNG, so a traced
//! run's `Report` is byte-identical to an untraced one.

use std::sync::{Arc, Mutex};

use mobility::LinkOracle;
use obs::CacheRow;
use packet::{CacheDecision, InlineRoute};
use sim_core::{growth, NodeId, SimDuration, SimTime};

#[cfg(test)]
mod reference;

/// Rows a cache-decision recorder appends into, shared with the campaign
/// layer across the panic-isolation boundary (the supervisor recovers the
/// buffer even when the run dies, so failed campaigns keep their traces).
///
/// INVARIANT: a buffer that has filled to [`CACHETRACE_MAX_ROWS`] stays
/// full for the life of the run — take the rows only after `try_run`
/// returns (or dies). The recorder relies on it: once full it counts a
/// decision in `dropped` without consulting the oracle or updating its link
/// memo, so rows recorded into a buffer emptied mid-run would carry
/// `stale_ns` computed from a memo with a gap in it.
#[derive(Debug, Default)]
pub struct CacheTraceBuf {
    /// Decisions in event-dispatch order. The recorder doubles the room
    /// as it fills but stops at its cap, so a full buffer holds exactly
    /// [`CACHETRACE_MAX_ROWS`] rows' worth of room.
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
    /// Rows the buffer may hold: [`CACHETRACE_MAX_ROWS`] outside tests.
    cap: usize,
    last_up: LinkMemo,
}

/// Most recent instant each link was *observed* up by a traced decision
/// (valid insert, lookup hit, or refresh). Floors the staleness scan so it
/// never walks past ground the oracle already vouched for.
///
/// Dense and lower-triangular: the undirected link `{lo, hi}` lives at
/// `hi * (hi + 1) / 2 + lo`, and a link never observed up reads
/// [`SimTime::ZERO`], the start of the run.
struct LinkMemo {
    at: Vec<SimTime>,
}

impl LinkMemo {
    fn new(nodes: usize) -> Self {
        LinkMemo { at: vec![SimTime::ZERO; nodes * (nodes + 1) / 2] }
    }

    fn slot(a: NodeId, b: NodeId) -> usize {
        let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
        hi * (hi + 1) / 2 + lo
    }

    fn note_up(&mut self, a: NodeId, b: NodeId, t: SimTime) {
        self.at[Self::slot(a, b)] = t;
    }

    fn last_up(&self, a: NodeId, b: NodeId) -> SimTime {
        self.at[Self::slot(a, b)]
    }

    /// The oracle's verdict on the route `nodes` at `t`; a valid route
    /// memoizes "every link was up at `t`".
    fn route_up(&mut self, oracle: &LinkOracle, nodes: &[NodeId], t: SimTime) -> bool {
        let valid = oracle.route_valid(nodes, t);
        if valid {
            for w in nodes.windows(2) {
                self.note_up(w[0], w[1], t);
            }
        }
        valid
    }
}

/// Node indices in decimal joined by `sep` — a route as `0-1-2`, a link as
/// `5>3`, a lone destination as `7` — in one allocation of exactly the
/// rendered length.
fn joined(nodes: &[NodeId], sep: char) -> String {
    let digits = |n: &NodeId| n.index().checked_ilog10().map_or(1, |d| d as usize + 1);
    let len = nodes.iter().map(digits).sum::<usize>() + nodes.len().saturating_sub(1);
    let mut out = String::with_capacity(len);
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut v = n.index();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend(buf[at..].iter().copied().map(char::from));
    }
    debug_assert_eq!(out.len(), len);
    out
}

impl CacheStamper {
    /// A recorder for a run of `nodes` nodes.
    pub(crate) fn new(buf: Arc<Mutex<CacheTraceBuf>>, nodes: usize) -> Self {
        CacheStamper::with_cap(buf, nodes, CACHETRACE_MAX_ROWS)
    }

    /// Test seam: the differential drives small caps.
    pub(crate) fn with_cap(buf: Arc<Mutex<CacheTraceBuf>>, nodes: usize, cap: usize) -> Self {
        CacheStamper { buf, cap, last_up: LinkMemo::new(nodes) }
    }

    /// Stamps one decision made by `node` at `now` and appends the row.
    ///
    /// The row budget is spent first: against a full buffer the decision
    /// is counted and nothing else happens. Skipping the memo update is
    /// unobservable because the memo only feeds the `stale_ns` of later
    /// rows, and a full buffer drops those too (see [`CacheTraceBuf`]). A
    /// kept row costs its four `String`s, each allocated once at its final
    /// size, and nothing else.
    pub(crate) fn stamp(
        &mut self,
        oracle: &LinkOracle,
        now: SimTime,
        node: u16,
        decision: CacheDecision,
    ) {
        let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
        if buf.rows.len() >= self.cap {
            buf.dropped += 1;
            return;
        }
        let memo = &mut self.last_up;
        let dash = || "-".to_string();
        let path = |route: &InlineRoute| joined(route.nodes(), '-');
        let (op, kind, dst, route, valid, stale_ns) = match decision {
            CacheDecision::Insert { route, provenance, changed: _ } => (
                "insert",
                provenance.name().to_string(),
                dash(),
                path(&route),
                Some(memo.route_up(oracle, route.nodes(), now)),
                None,
            ),
            CacheDecision::Lookup { dst, purpose, route } => (
                "lookup",
                purpose.name().to_string(),
                joined(&[dst], '-'),
                route.as_ref().map_or_else(dash, path),
                route.as_ref().map(|r| memo.route_up(oracle, r.nodes(), now)),
                None,
            ),
            CacheDecision::RemoveLink { link, cause, contained: _ } => {
                let up = oracle.link_up(link.from, link.to, now);
                let stale_ns = if up {
                    // Premature purge: the link is physically fine — the
                    // cache threw away working state. Zero latency by
                    // definition, and the memo learns the link is up.
                    memo.note_up(link.from, link.to, now);
                    0
                } else {
                    let floor = memo.last_up(link.from, link.to);
                    staleness_ns(oracle, link.from, link.to, now, floor)
                };
                let link = joined(&[link.from, link.to], '>');
                ("remove", cause.name().to_string(), dash(), link, Some(up), Some(stale_ns))
            }
            // A route on its way out teaches the memo nothing.
            CacheDecision::Expire { route } => {
                let valid = oracle.route_valid(route.nodes(), now);
                ("expire", dash(), dash(), path(&route), Some(valid), None)
            }
            CacheDecision::Evict { route } => {
                let valid = oracle.route_valid(route.nodes(), now);
                ("evict", dash(), dash(), path(&route), Some(valid), None)
            }
            CacheDecision::Refresh { route } => {
                let valid = memo.route_up(oracle, route.nodes(), now);
                ("refresh", dash(), dash(), path(&route), Some(valid), None)
            }
            // `route` is the surviving alternate the cache failed over to;
            // the verdict says whether the failover saved a rediscovery.
            CacheDecision::Failover { dst, route } => {
                let valid = memo.route_up(oracle, route.nodes(), now);
                ("failover", dash(), joined(&[dst], '-'), path(&route), Some(valid), None)
            }
        };
        if buf.rows.len() == buf.rows.capacity() {
            let len = buf.rows.len();
            buf.rows.reserve_exact(growth::toward_cap(len, self.cap));
        }
        buf.rows.push(CacheRow {
            t_ns: now.as_nanos(),
            node: node as u64,
            op: op.to_string(),
            kind,
            dst,
            route,
            valid,
            stale_ns,
        });
    }
}

/// How long the cache kept a genuinely broken link past its physical
/// break, in nanoseconds: walks backward from `now` (known down) in
/// [`STALE_SCAN_STEP_MS`] steps until the oracle says the link was up —
/// flooring at `floor`, the last instant a traced decision already observed
/// it up — then bisects the bracket to ~1 ms. If the scan exhausts its step
/// budget without finding an up instant, the probed window is returned as a
/// deterministic lower bound.
fn staleness_ns(oracle: &LinkOracle, a: NodeId, b: NodeId, now: SimTime, floor: SimTime) -> u64 {
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
