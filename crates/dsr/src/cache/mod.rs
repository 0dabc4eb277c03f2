//! The route cache and the negative cache.
//!
//! [`path_cache::PathCache`] — whole paths rooted at the owner, the
//! organization of the CMU ns-2 DSR and of the paper's study — is the one
//! implementation of [`RouteCache`].

pub mod negative;
pub mod path_cache;

pub use path_cache::{PathCache, RemovedLink};

use packet::{InlineRoute, Link, Route};
use sim_core::{NodeId, SimDuration, SimTime};

/// A decision the cache made internally — state the agent cannot see from
/// the outside (capacity evictions, expiry prunes). Collected only while
/// the event log is enabled ([`RouteCache::set_event_log`]); the agent
/// drains them into cache-decision trace events. The route is copied by
/// value, so logging one allocates nothing once the log has grown.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheEvent {
    /// Capacity pressure evicted this stored route.
    Evicted {
        /// The evicted route.
        route: InlineRoute,
    },
    /// Timer-based expiry pruned this stored route (pre-prune path).
    Expired {
        /// The route as stored before the prune.
        route: InlineRoute,
    },
}

/// Operations the DSR agent needs from a route cache.
pub trait RouteCache: Send {
    /// Inserts a route starting at the owner; returns whether the cache
    /// changed.
    fn insert(&mut self, route: Route, now: SimTime) -> bool {
        self.insert_slice(route.nodes(), now)
    }

    /// [`RouteCache::insert`] for a borrowed, loop-free node sequence — the
    /// form the agent uses on every overheard packet, where the candidate
    /// is a piece of the packet's own source route and is usually cached
    /// already: nothing is allocated unless an entry is really added.
    fn insert_slice(&mut self, nodes: &[NodeId], now: SimTime) -> bool;

    /// Shortest known route from the owner to `dst`, if any.
    fn find(&self, dst: NodeId, now: SimTime) -> Option<Route>;

    /// Purges a broken link and reports what was affected (for the
    /// wider-error re-broadcast predicate and multipath failover).
    fn remove_link(&mut self, link: Link, now: SimTime) -> RemovedLink {
        self.remove_link_with(link, now, &mut |_| {})
    }

    /// [`RouteCache::remove_link`], handing `lifetime` the observed
    /// lifetime of every cached route the purge cuts, in cache order — what
    /// the adaptive-timeout estimator learns from a break — without
    /// collecting them anywhere.
    fn remove_link_with(
        &mut self,
        link: Link,
        now: SimTime,
        lifetime: &mut dyn FnMut(SimDuration),
    ) -> RemovedLink;

    /// Refreshes last-used timestamps for cached state matching the links
    /// of `seen` (timer-based expiry bookkeeping).
    fn mark_used(&mut self, seen: &Route, now: SimTime);

    /// Flags cached state matching `seen` as used in forwarded traffic
    /// (wider-error re-broadcast predicate).
    fn mark_forwarded(&mut self, seen: &Route);

    /// Prunes state unused for longer than `timeout`; returns how many
    /// entries were affected.
    fn expire(&mut self, now: SimTime, timeout: SimDuration) -> usize;

    /// Whether the cache holds `link` anywhere.
    fn contains_link(&self, link: Link) -> bool;

    /// Number of cached paths.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cached paths as routes, for observability sampling.
    /// The sampler checks each against the mobility oracle to compute the
    /// cache's currently-valid fraction; only aggregate counts are
    /// reported, so iteration order does not matter.
    fn snapshot_routes(&self) -> Vec<Route>;

    /// Enables (or disables) the internal decision-event log feeding the
    /// cache forensics trace. Off by default.
    fn set_event_log(&mut self, on: bool);

    /// Hands every logged [`CacheEvent`] since the last drain to `each`, in
    /// the order they happened (no-op while the log is disabled). The agent
    /// turns them into trace commands this way, so the log is the only
    /// buffer they pass through.
    fn drain_events_with(&mut self, each: &mut dyn FnMut(CacheEvent));

    /// Moves every logged [`CacheEvent`] since the last drain into `into`
    /// (no-op while the log is disabled).
    fn drain_events(&mut self, into: &mut Vec<CacheEvent>) {
        self.drain_events_with(&mut |event| into.push(event));
    }

    /// Installs the timeout [`RouteCache::find`] applies at read time, so
    /// lookups between expiry sweeps never return just-expired state. The
    /// agent keeps it in sync with the sweep timeout (static policy: at
    /// construction; adaptive: on every recompute). `None` keeps the
    /// sweep-only behaviour.
    fn set_read_expiry(&mut self, timeout: Option<SimDuration>);
}
