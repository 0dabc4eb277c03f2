//! The DSR path cache.
//!
//! Stores complete paths, each starting at the owning node (the *path
//! cache* organization of the CMU ns-2 implementation, as opposed to the
//! link-cache organization of Hu & Johnson — see
//! [`LinkCache`](crate::cache::link_cache::LinkCache) for that ablation).
//!
//! Beyond plain storage the cache carries the metadata the paper's
//! techniques need:
//!
//! - a per-node **last-used timestamp** inside every path, updated whenever
//!   (part of) the path is observed in a unicast packet — timer-based
//!   expiry prunes the unused suffix portions;
//! - an **entered-at timestamp** per path — the adaptive timeout derives
//!   route lifetimes from it when a cached route breaks;
//! - a **used-for-forwarding flag** — wider error notification re-broadcasts
//!   an error only at nodes that both cache the broken link *and* used such
//!   a route in traffic they forwarded.
//!
//! # Ordering invariants
//!
//! The order of `entries` is behaviour, not an implementation detail:
//! [`PathCache::find`] breaks full ties by position, an insert refreshes
//! the *first* entry it is a prefix of, and LRU eviction is a
//! `swap_remove`. Every operation therefore edits the `Vec` in place and
//! keeps survivors in order; `path_cache/reference.rs` holds the naive
//! drain-and-rebuild bodies the cache started with, as a test-only oracle
//! that a seeded differential test drives in lock-step with this code.
//!
//! # Summary fields
//!
//! Every scan below visits all entries but wants a handful. Each entry
//! therefore carries two values derived from the rest of it — a node
//! signature (`Sig`) and its LRU stamp — and a scan decides from those
//! alone whether the entry can matter before following its `path` and
//! `last_used` pointers to the heap. They filter, they do not index: a
//! scan that passes the filter runs the very test it always ran, so entry
//! order, tie-breaks and first-match refresh are untouched.

use packet::{Link, Route};
use sim_core::{NodeId, SimDuration, SimTime};

use crate::cache::CacheEvent;

#[cfg(test)]
mod reference;

/// A node signature: bit `index % Sig::BITS` is set for every node of a
/// node sequence. Two different nodes can *fold* onto one bit, so a
/// signature can only rule things out: a node whose bit is clear is not on
/// the path; a node whose bit is set may be.
type Sig = u32;

fn sig_bit(node: NodeId) -> Sig {
    1 << (node.index() % Sig::BITS as usize)
}

fn sig_of(nodes: &[NodeId]) -> Sig {
    nodes.iter().fold(0, |sig, &n| sig | sig_bit(n))
}

/// The signature of a link's two endpoints (one bit when they fold).
fn sig_of_link(link: Link) -> Sig {
    sig_bit(link.from) | sig_bit(link.to)
}

/// Whether every bit of `sub` is set in `sup`: necessary for `sub`'s nodes
/// to all be among `sup`'s.
fn sig_within(sub: Sig, sup: Sig) -> bool {
    sub & !sup == 0
}

/// One cached path with its bookkeeping.
#[derive(Debug, Clone)]
pub struct PathEntry {
    path: Route,
    entered_at: SimTime,
    /// When each node was last seen in use. Allocated once, at the length
    /// the path was entered with; truncation shortens `path` only, so the
    /// live part is `last_used[..path.len()]` ([`PathEntry::live_used`]).
    last_used: Box<[SimTime]>,
    /// The LRU stamp: the latest of the live `last_used`. Written by
    /// whoever writes those — simulated time never runs backwards, so a
    /// refresh at `now` makes it `now`; [`PathEntry::truncate`] recomputes
    /// it.
    mru: SimTime,
    /// [`sig_of`] the path; recomputed by [`PathEntry::truncate`], the only
    /// edit a stored path sees.
    sig: Sig,
    used_for_forwarding: bool,
}

/// The summary fields follow from the others and stay out of it, as does
/// whatever `last_used` holds beyond the live part.
impl PartialEq for PathEntry {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
            && self.entered_at == other.entered_at
            && self.live_used() == other.live_used()
            && self.used_for_forwarding == other.used_for_forwarding
    }
}

impl PathEntry {
    fn new(path: Route, now: SimTime) -> Self {
        PathEntry {
            entered_at: now,
            last_used: vec![now; path.len()].into_boxed_slice(),
            mru: now,
            sig: sig_of(path.nodes()),
            used_for_forwarding: false,
            path,
        }
    }

    fn live_used(&self) -> &[SimTime] {
        &self.last_used[..self.path.len()]
    }

    /// Cuts the path down to its first `len` nodes (at least one, at most
    /// all of them) and brings the summary fields in line.
    fn truncate(&mut self, len: usize) {
        self.path.truncate(len);
        self.sig = sig_of(self.path.nodes());
        self.mru = self.live_used().iter().copied().max().expect("paths keep their owner");
    }

    /// The stored path (starts at the cache owner).
    pub fn path(&self) -> &Route {
        &self.path
    }

    /// When this path was last (re-)entered into the cache.
    pub fn entered_at(&self) -> SimTime {
        self.entered_at
    }

    /// Whether this path was observed in packets the owner forwarded.
    pub fn used_for_forwarding(&self) -> bool {
        self.used_for_forwarding
    }
}

/// Result of [`PathCache::remove_link`], feeding the adaptive-timeout
/// estimator and the wider-error re-broadcast predicate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemovedLink {
    /// Whether any cached path contained the link.
    pub contained: bool,
    /// Whether any affected path had been used in forwarded packets.
    pub was_used_for_forwarding: bool,
    /// `now - entered_at` of every affected path (its observed lifetime).
    pub route_lifetimes: Vec<SimDuration>,
    /// Multipath mode only: destinations cut off by the purge that remain
    /// reachable through a surviving cached path, paired with that path —
    /// the failovers that spare a fresh discovery. Always empty for
    /// single-path caches.
    pub failovers: Vec<(NodeId, Route)>,
}

/// A bounded cache of loop-free paths rooted at one node.
///
/// # Example
///
/// ```
/// use dsr::PathCache;
/// use packet::{Route, Link};
/// use sim_core::{NodeId, SimTime};
///
/// let n = |i| NodeId::new(i);
/// let mut cache = PathCache::new(n(0), 16);
/// let now = SimTime::ZERO;
/// cache.insert(Route::new(vec![n(0), n(1), n(2), n(3)]).unwrap(), now);
/// // A route to an intermediate node falls out of the same entry:
/// let r = cache.find(n(2), now).unwrap();
/// assert_eq!(r.hops(), 2);
/// // Breaking 1->2 truncates the path:
/// cache.remove_link(Link::new(n(1), n(2)), now);
/// assert!(cache.find(n(2), now).is_none());
/// assert!(cache.find(n(1), now).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct PathCache {
    owner: NodeId,
    capacity: usize,
    entries: Vec<PathEntry>,
    /// Timeout applied by [`PathCache::find`] at read time (the same
    /// criterion the [`PathCache::expire`] sweep uses), so a just-expired
    /// route is never returned between sweeps. `None` = no expiry policy.
    read_expiry: Option<SimDuration>,
    /// Internal decision-event log for the cache forensics trace;
    /// allocated only while enabled.
    log: Option<Vec<CacheEvent>>,
    /// Multipath mode: retain up to `k` link-disjoint paths per final
    /// destination and report failovers from [`PathCache::remove_link`].
    /// `None` = classic single-best-path behaviour.
    multipath_k: Option<usize>,
    /// Set when [`PathCache::expire`] truncated an entry: truncation can
    /// turn two entries into exact repeats, and only the dedup pass of
    /// [`PathCache::remove_link`] merges them — so while this is set, even
    /// a purge for a link the cache does not hold must run that pass.
    may_hold_repeats: bool,
    /// Scratch for [`PathCache::mark_used`] / [`PathCache::mark_forwarded`]:
    /// `succ[a] == b` while the observed route traverses `a -> b`, and the
    /// broadcast address (never a node on a route) otherwise. Grown on
    /// first use to the largest node index seen, reset after every call.
    succ: Vec<NodeId>,
}

impl PathCache {
    /// Creates an empty cache owned by `owner` holding at most `capacity`
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PathCache {
            owner,
            capacity,
            entries: Vec::new(),
            read_expiry: None,
            log: None,
            multipath_k: None,
            may_hold_repeats: false,
            succ: Vec::new(),
        }
    }

    /// Enables multipath mode: keep up to `k` link-disjoint paths per
    /// final destination, and report failovers from
    /// [`PathCache::remove_link`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn set_multipath(&mut self, k: usize) {
        assert!(k > 0, "multipath k must be positive");
        self.multipath_k = Some(k);
    }

    /// Installs the read-time expiry timeout (see
    /// [`RouteCache::set_read_expiry`](crate::cache::RouteCache::set_read_expiry)).
    pub fn set_read_expiry(&mut self, timeout: Option<SimDuration>) {
        self.read_expiry = timeout;
    }

    /// Enables or disables the internal decision-event log.
    pub fn set_event_log(&mut self, on: bool) {
        self.log = if on { Some(self.log.take().unwrap_or_default()) } else { None };
    }

    /// Drains logged decision events into `into`.
    pub fn drain_events(&mut self, into: &mut Vec<CacheEvent>) {
        if let Some(log) = &mut self.log {
            into.append(log);
        }
    }

    /// Index of the first node of `entry` whose last-used timestamp has
    /// outlived `timeout` at `now` — the shared criterion of the expiry
    /// sweep and the read-time filter (node 0 is the owner itself, so
    /// staleness starts at index 1). Equal to the path length when nothing
    /// is stale.
    fn stale_cut(entry: &PathEntry, now: SimTime, timeout: SimDuration) -> usize {
        (1..entry.path.len())
            .find(|&j| entry.last_used[j] + timeout < now)
            .unwrap_or(entry.path.len())
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no paths.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over cached entries (inspection/testing).
    pub fn iter(&self) -> impl Iterator<Item = &PathEntry> {
        self.entries.iter()
    }

    /// Inserts `path` (which must start at the owner and have at least one
    /// hop). Returns `true` if the cache changed.
    ///
    /// An exact duplicate — or a prefix of an existing path — refreshes the
    /// matching portion's timestamps instead of adding a new entry (this is
    /// also how stale entries get *re-polluted* by in-flight packets, the
    /// paper's "quick pollution" problem). A path extending an existing
    /// prefix replaces it. On overflow the least-recently-used entry is
    /// evicted.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not start at the owner.
    pub fn insert(&mut self, path: Route, now: SimTime) -> bool {
        self.insert_slice(path.nodes(), now)
    }

    /// [`PathCache::insert`] for a borrowed node sequence: the agent learns
    /// routes from sub-slices of the packets it sees, and the common case —
    /// a refresh of a path already cached — allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty or does not start at the owner, or if an
    /// entry has to be added and `path` visits a node twice.
    pub fn insert_slice(&mut self, path: &[NodeId], now: SimTime) -> bool {
        assert_eq!(path.first(), Some(&self.owner), "cached paths start at the owner");
        if path.len() < 2 {
            return false;
        }
        let sig = sig_of(path);
        // Refresh if `path` is a prefix of (or equal to) an existing entry.
        for entry in &mut self.entries {
            if sig_within(sig, entry.sig) && entry.path.nodes().starts_with(path) {
                entry.last_used[..path.len()].fill(now);
                entry.mru = entry.mru.max(now);
                entry.entered_at = now;
                return true;
            }
        }
        // Not a refresh: from here on the cache changes shape.
        let path = Route::new(path.to_vec()).expect("cached paths are loop-free");
        // Replace any existing entries that are prefixes of the new path.
        self.entries
            .retain(|e| !(sig_within(e.sig, sig) && path.nodes().starts_with(e.path.nodes())));
        if let Some(k) = self.multipath_k {
            if !self.admit_multipath(&path, k) {
                return false;
            }
        }
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        // One slot at a time, not doubling: see `release_dropped`.
        self.entries.reserve_exact(1);
        self.entries.push(PathEntry::new(path, now));
        true
    }

    /// Multipath admission for `path` against the entries sharing its
    /// final destination. Link-disjointness rule:
    ///
    /// - a candidate sharing a link with an existing same-destination
    ///   entry replaces it (them) only when strictly shorter than each,
    ///   and is refused otherwise — overlapping alternates add no
    ///   failover value;
    /// - a fully disjoint candidate is admitted while fewer than `k`
    ///   same-destination paths are cached; at `k` it displaces the
    ///   longest one only when strictly shorter than it.
    ///
    /// Returns whether `path` may be inserted (displaced entries are
    /// already removed and logged as evictions).
    fn admit_multipath(&mut self, path: &Route, k: usize) -> bool {
        let (dst, hops) = (path.destination(), path.hops());
        let same_dst = |e: &PathEntry| e.path.destination() == dst;
        let overlaps = |e: &PathEntry| same_dst(e) && e.path.links().any(|l| path.contains_link(l));
        if self.entries.iter().any(overlaps) {
            if self.entries.iter().any(|e| overlaps(e) && e.path.hops() <= hops) {
                return false;
            }
            for i in (0..self.entries.len()).rev() {
                if overlaps(&self.entries[i]) {
                    self.displace(i);
                }
            }
            return true;
        }
        if self.entries.iter().filter(|e| same_dst(e)).count() < k {
            return true;
        }
        // Longest, then greatest node sequence; the last of equals (exact
        // repeats left by an expiry sweep).
        let (longest, _) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| same_dst(e))
            .max_by_key(|(_, e)| (e.path.hops(), e.path.nodes()))
            .expect("k > 0 entries");
        if self.entries[longest].path.hops() <= hops {
            return false;
        }
        self.displace(longest);
        true
    }

    /// Removes entry `i`, keeping the others in order, to make room for a
    /// better alternate.
    fn displace(&mut self, i: usize) {
        let entry = self.entries.remove(i);
        self.log_evicted(entry);
    }

    fn evict_lru(&mut self) {
        if let Some((idx, _)) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.mru) {
            let entry = self.entries.swap_remove(idx);
            self.log_evicted(entry);
        }
    }

    fn log_evicted(&mut self, entry: PathEntry) {
        if let Some(log) = &mut self.log {
            log.push(CacheEvent::Evicted { route: entry.path });
        }
    }

    /// Shortest cached route from the owner to `dst` (paths may be used up
    /// to any intermediate node). Ties favor the most recently entered,
    /// then the earliest entry in cache order.
    ///
    /// When a read-time expiry timeout is installed
    /// ([`PathCache::set_read_expiry`]), the stale suffix of every path —
    /// by the exact criterion the [`PathCache::expire`] sweep applies — is
    /// invisible to the lookup, so a just-expired route is never returned
    /// between sweeps.
    ///
    /// A miss allocates nothing; a hit allocates the one returned route.
    pub fn find(&self, dst: NodeId, now: SimTime) -> Option<Route> {
        // (hops, entered_at, entry index) of the best candidate so far.
        let mut best: Option<(usize, SimTime, usize)> = None;
        let dst_bit = sig_bit(dst);
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.sig & dst_bit == 0 {
                continue;
            }
            let Some(hops) = entry.path.position(dst) else {
                continue;
            };
            if hops == 0 {
                continue;
            }
            if let Some(timeout) = self.read_expiry {
                // `dst` lies beyond the stale cut: invisible to the lookup.
                if entry.last_used[1..=hops].iter().any(|&used| used + timeout < now) {
                    continue;
                }
            }
            let better = match best {
                None => true,
                Some((b_hops, b_entered, _)) => {
                    hops < b_hops || (hops == b_hops && entry.entered_at > b_entered)
                }
            };
            if better {
                best = Some((hops, entry.entered_at, i));
            }
        }
        best.and_then(|(_, _, i)| self.entries[i].path.prefix_through(dst))
    }

    /// Whether any cached path uses `link`.
    pub fn contains_link(&self, link: Link) -> bool {
        let ends = sig_of_link(link);
        self.entries.iter().any(|e| sig_within(ends, e.sig) && e.path.contains_link(link))
    }

    /// Truncates every path containing `link` at the point of failure
    /// (paths reduced below one hop are dropped) and reports what was
    /// affected. Truncation can create exact repeats; only the first of
    /// each is kept.
    ///
    /// A purge for a link the cache does not hold — what most overheard
    /// route errors are — returns before touching (or allocating) anything,
    /// unless an expiry sweep may have left repeats to merge.
    pub fn remove_link(&mut self, link: Link, now: SimTime) -> RemovedLink {
        let mut outcome = RemovedLink::default();
        if !self.may_hold_repeats && !self.contains_link(link) {
            return outcome;
        }
        let multipath = self.multipath_k.is_some();
        let mut lost_dsts: Vec<NodeId> = Vec::new();
        let ends = sig_of_link(link);
        for entry in &mut self.entries {
            if !sig_within(ends, entry.sig) {
                continue;
            }
            let Some(cut) = entry.path.links().position(|l| l == link) else {
                continue;
            };
            outcome.contained = true;
            outcome.was_used_for_forwarding |= entry.used_for_forwarding;
            outcome.route_lifetimes.push(now.saturating_since(entry.entered_at));
            let dst = entry.path.destination();
            if multipath && !lost_dsts.contains(&dst) {
                lost_dsts.push(dst);
            }
            // Keep the nodes up to and including `link.from`. A path cut
            // down to the owner alone is dropped by the pass below.
            entry.truncate(cut + 1);
        }
        // Stable in-place compaction: drop hop-less paths and exact repeats
        // of an earlier survivor.
        let (before, mut kept) = (self.entries.len(), 0);
        for i in 0..before {
            let PathEntry { path, sig, .. } = &self.entries[i];
            let repeats = |e: &PathEntry| e.sig == *sig && e.path == *path;
            if path.hops() >= 1 && !self.entries[..kept].iter().any(repeats) {
                self.entries.swap(kept, i);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.release_dropped(before);
        self.may_hold_repeats = false;
        // A destination whose path was cut but that a surviving entry
        // still reaches fails over without a fresh discovery.
        for dst in lost_dsts {
            if let Some(route) = self.find(dst, now) {
                outcome.failovers.push((dst, route));
            }
        }
        outcome
    }

    /// After a sweep that left fewer than `before` entries, gives the freed
    /// slots back: a cache that fills up and thins out again (every expiry
    /// policy does this to it) would otherwise sit on its high-water mark
    /// for the rest of the run, and 100 nodes' worth of that shows in the
    /// peak heap.
    fn release_dropped(&mut self, before: usize) {
        if self.entries.len() < before {
            self.entries.shrink_to_fit();
        }
    }

    /// Runs `visit` over the entries that may share a link with `seen`,
    /// with the successor table describing `seen` (see the `succ` field),
    /// then resets the table.
    ///
    /// An entry holding a link of `seen` holds both of its ends, so the two
    /// signatures have two bits in common — or one, when the link's ends
    /// fold onto one bit. Only if `seen` has such a link does one common bit
    /// let an entry through.
    fn with_links_of(&mut self, seen: &Route, mut visit: impl FnMut(&mut PathEntry, &[NodeId])) {
        let nodes = seen.nodes();
        let max = nodes.iter().map(|n| n.index()).max().expect("routes are non-empty");
        let mut succ = std::mem::take(&mut self.succ);
        if succ.len() <= max {
            // Exactly as long as the ids seen so far need, not doubled.
            succ.reserve_exact(max + 1 - succ.len());
            succ.resize(max + 1, NodeId::BROADCAST);
        }
        let mut folded_link = false;
        for w in nodes.windows(2) {
            succ[w[0].index()] = w[1];
            folded_link |= sig_bit(w[0]) == sig_bit(w[1]);
        }
        let seen_sig = sig_of(nodes);
        for entry in &mut self.entries {
            let common = entry.sig & seen_sig;
            // `x & (x - 1)` clears the lowest set bit: non-zero iff two are set.
            if common != 0 && (folded_link || common & (common - 1) != 0) {
                visit(entry, &succ);
            }
        }
        for n in nodes {
            succ[n.index()] = NodeId::BROADCAST;
        }
        self.succ = succ;
    }

    /// Records that the links of `seen` were observed in a unicast packet
    /// at `now`: every cached node adjacent to one of those links gets its
    /// last-used timestamp refreshed. This is the paper's expiry-timestamp
    /// update rule.
    pub fn mark_used(&mut self, seen: &Route, now: SimTime) {
        self.with_links_of(seen, |entry, succ| {
            let nodes = entry.path.nodes();
            for j in 1..nodes.len() {
                if succ.get(nodes[j - 1].index()) == Some(&nodes[j]) {
                    entry.last_used[j - 1] = now;
                    entry.last_used[j] = now;
                    entry.mru = entry.mru.max(now);
                }
            }
        });
    }

    /// Records that the owner *forwarded* a packet along `seen`: cached
    /// paths sharing a link with it are flagged, enabling the wider-error
    /// re-broadcast predicate.
    pub fn mark_forwarded(&mut self, seen: &Route) {
        self.with_links_of(seen, |entry, succ| {
            if entry.path.links().any(|l| succ.get(l.from.index()) == Some(&l.to)) {
                entry.used_for_forwarding = true;
            }
        });
    }

    /// Timer-based expiry: prunes the portion of every path unused for
    /// longer than `timeout` (truncating at the first stale node); paths
    /// reduced below one hop are dropped. Returns how many entries were
    /// affected.
    ///
    /// Unlike [`PathCache::remove_link`] the sweep does not merge entries
    /// its truncation makes identical; they stay until the next purge.
    pub fn expire(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        let mut affected = 0;
        let before = self.entries.len();
        let (log, may_hold_repeats) = (&mut self.log, &mut self.may_hold_repeats);
        self.entries.retain_mut(|entry| {
            let cut = Self::stale_cut(entry, now, timeout);
            if cut == entry.path.len() {
                return true;
            }
            affected += 1;
            if let Some(log) = log {
                log.push(CacheEvent::Expired { route: entry.path.clone() });
            }
            if cut < 2 {
                return false;
            }
            entry.truncate(cut);
            *may_hold_repeats = true;
            true
        });
        self.release_dropped(before);
        affected
    }

    /// Removes every cached path (testing / reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl crate::cache::RouteCache for PathCache {
    fn insert_slice(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        PathCache::insert_slice(self, nodes, now)
    }

    fn find(&self, dst: NodeId, now: SimTime) -> Option<Route> {
        PathCache::find(self, dst, now)
    }

    fn remove_link(&mut self, link: Link, now: SimTime) -> RemovedLink {
        PathCache::remove_link(self, link, now)
    }

    fn mark_used(&mut self, seen: &Route, now: SimTime) {
        PathCache::mark_used(self, seen, now)
    }

    fn mark_forwarded(&mut self, seen: &Route) {
        PathCache::mark_forwarded(self, seen)
    }

    fn expire(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        PathCache::expire(self, now, timeout)
    }

    fn contains_link(&self, link: Link) -> bool {
        PathCache::contains_link(self, link)
    }

    fn len(&self) -> usize {
        PathCache::len(self)
    }

    fn snapshot_routes(&self) -> Vec<Route> {
        self.entries.iter().map(|e| e.path.clone()).collect()
    }

    fn set_event_log(&mut self, on: bool) {
        PathCache::set_event_log(self, on)
    }

    fn drain_events(&mut self, into: &mut Vec<CacheEvent>) {
        PathCache::drain_events(self, into)
    }

    fn set_read_expiry(&mut self, timeout: Option<SimDuration>) {
        PathCache::set_read_expiry(self, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn route(ids: &[u16]) -> Route {
        Route::new(ids.iter().map(|&i| n(i)).collect()).expect("valid route")
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cache_with(paths: &[&[u16]]) -> PathCache {
        let mut c = PathCache::new(n(0), 16);
        for p in paths {
            c.insert(route(p), SimTime::ZERO);
        }
        c
    }

    #[test]
    fn find_prefers_shortest() {
        let c = cache_with(&[&[0, 1, 2, 3], &[0, 4, 3]]);
        assert_eq!(c.find(n(3), t(0.0)).unwrap(), route(&[0, 4, 3]));
    }

    #[test]
    fn find_uses_intermediate_nodes() {
        let c = cache_with(&[&[0, 1, 2, 3]]);
        assert_eq!(c.find(n(1), t(0.0)).unwrap(), route(&[0, 1]));
        assert_eq!(c.find(n(2), t(0.0)).unwrap(), route(&[0, 1, 2]));
        assert!(c.find(n(9), t(0.0)).is_none());
    }

    #[test]
    fn find_never_returns_zero_hop_route() {
        let c = cache_with(&[&[0, 1]]);
        assert!(c.find(n(0), t(0.0)).is_none());
    }

    #[test]
    #[should_panic(expected = "start at the owner")]
    fn insert_rejects_foreign_path() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[1, 2]), t(0.0));
    }

    #[test]
    fn duplicate_insert_refreshes_not_duplicates() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.insert(route(&[0, 1, 2]), t(5.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter().next().unwrap().entered_at(), t(5.0));
    }

    #[test]
    fn prefix_insert_refreshes_existing_entry() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        c.insert(route(&[0, 1]), t(2.0));
        assert_eq!(c.len(), 1, "prefix must not create a second entry");
    }

    #[test]
    fn extension_replaces_prefix_entry() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1]), t(0.0));
        c.insert(route(&[0, 1, 2]), t(1.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.find(n(2), t(1.0)).unwrap(), route(&[0, 1, 2]));
    }

    #[test]
    fn remove_link_truncates_and_reports() {
        let mut c = cache_with(&[&[0, 1, 2, 3], &[0, 4, 3]]);
        let out = c.remove_link(Link::new(n(2), n(3)), t(7.0));
        assert!(out.contained);
        assert_eq!(out.route_lifetimes, vec![SimDuration::from_secs(7.0)]);
        assert!(c.find(n(3), t(7.0)).is_some(), "alternate route survives");
        assert_eq!(c.find(n(2), t(7.0)).unwrap(), route(&[0, 1, 2]), "truncated prefix kept");
    }

    #[test]
    fn remove_first_hop_drops_entry() {
        let mut c = cache_with(&[&[0, 1, 2]]);
        let out = c.remove_link(Link::new(n(0), n(1)), t(1.0));
        assert!(out.contained);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_unknown_link_reports_not_contained() {
        let mut c = cache_with(&[&[0, 1, 2]]);
        let out = c.remove_link(Link::new(n(5), n(6)), t(1.0));
        assert!(!out.contained);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn forwarding_flag_feeds_removal_outcome() {
        let mut c = cache_with(&[&[0, 1, 2, 3]]);
        assert!(!c.remove_link(Link::new(n(9), n(8)), t(0.0)).was_used_for_forwarding);
        c.mark_forwarded(&route(&[5, 1, 2, 6]));
        let out = c.remove_link(Link::new(n(1), n(2)), t(1.0));
        assert!(out.was_used_for_forwarding);
    }

    #[test]
    fn expiry_prunes_stale_suffix() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        // Links 0-1 and 1-2 observed at t=9; 2-3 never again.
        c.mark_used(&route(&[0, 1, 2]), t(9.0));
        let affected = c.expire(t(10.0), SimDuration::from_secs(5.0));
        assert_eq!(affected, 1);
        assert_eq!(c.find(n(2), t(10.0)).unwrap(), route(&[0, 1, 2]));
        assert!(c.find(n(3), t(10.0)).is_none(), "stale tail must be pruned");
    }

    #[test]
    fn expiry_drops_fully_stale_entries() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2]), t(0.0));
        assert_eq!(c.expire(t(20.0), SimDuration::from_secs(5.0)), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn fresh_entries_survive_expiry() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2]), t(0.0));
        assert_eq!(c.expire(t(3.0), SimDuration::from_secs(5.0)), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn mark_used_is_link_directed() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2]), t(0.0));
        // Reverse direction does not refresh.
        c.mark_used(&route(&[2, 1, 0]), t(9.0));
        assert_eq!(c.expire(t(10.0), SimDuration::from_secs(5.0)), 1);
        assert!(c.is_empty());
    }

    /// Owner 0 caching `0-32-64-5`: nodes 0, 32 and 64 fold onto one bit of
    /// any signature up to 32 bits wide, so a packet seen on `7-32-64-9`
    /// shares a single signature bit with the entry although it shares the
    /// link 32→64. A filter asking for two common bits regardless skips it.
    fn folded_cache() -> PathCache {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 32, 64, 5]), t(0.0));
        c
    }

    #[test]
    fn mark_used_sees_a_link_whose_ends_fold_onto_one_bit() {
        let mut c = folded_cache();
        c.mark_used(&route(&[7, 32, 64, 9]), t(9.0));
        // Hops 32 and 64 refreshed at t=9 survive the sweep; 5 does not.
        assert_eq!(c.expire(t(10.0), SimDuration::from_secs(5.0)), 1);
        assert_eq!(c.find(n(64), t(10.0)).unwrap(), route(&[0, 32, 64]));
        assert!(c.find(n(5), t(10.0)).is_none());
        // Nodes that fold with the entry's without sharing a link change nothing.
        let mut c = folded_cache();
        c.mark_used(&route(&[96, 128]), t(9.0));
        c.expire(t(10.0), SimDuration::from_secs(5.0));
        assert!(c.is_empty());
    }

    #[test]
    fn mark_forwarded_sees_a_link_whose_ends_fold_onto_one_bit() {
        let mut c = folded_cache();
        c.mark_forwarded(&route(&[7, 32, 64, 9]));
        assert!(c.iter().next().unwrap().used_for_forwarding());
    }

    #[test]
    fn remove_link_truncates_at_a_link_whose_ends_fold_onto_one_bit() {
        let mut c = folded_cache();
        assert!(!c.contains_link(Link::new(n(64), n(32))));
        assert!(!c.remove_link(Link::new(n(32), n(96)), t(1.0)).contained);
        assert!(c.contains_link(Link::new(n(32), n(64))));
        assert!(c.remove_link(Link::new(n(32), n(64)), t(1.0)).contained);
        assert_eq!(c.iter().next().unwrap().path(), &route(&[0, 32]));
        // The cut path's summary is its own again: 64 is gone from it, and
        // its extension replaces it instead of sitting beside it.
        assert!(c.find(n(64), t(1.0)).is_none());
        assert!(c.insert(route(&[0, 32, 7]), t(2.0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_stamp_follows_refreshes_and_truncation() {
        let mut c = PathCache::new(n(0), 2);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        c.insert(route(&[0, 4]), t(1.0));
        // Only the tail of the first entry is used late; cutting that tail
        // off makes the entry the least recently used again.
        c.mark_used(&route(&[2, 3]), t(5.0));
        c.remove_link(Link::new(n(1), n(2)), t(6.0));
        c.insert(route(&[0, 5]), t(7.0));
        assert!(c.find(n(1), t(7.0)).is_none(), "entry last used at t=0 evicted");
        assert!(c.find(n(4), t(7.0)).is_some());
    }

    #[test]
    fn entry_stays_one_cache_line() {
        // At the benchmark's peak the 100 caches are full: 100 x 64 entries
        // x 8 bytes = 50 KiB, +1 % of the ~5 MiB `peak_heap_mib` — the whole
        // of that metric's bound — for every 8 bytes an entry grows by.
        assert!(std::mem::size_of::<PathEntry>() <= 64);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut c = PathCache::new(n(0), 2);
        c.insert(route(&[0, 1]), t(0.0));
        c.insert(route(&[0, 2]), t(1.0));
        // Touch the older entry so the other becomes LRU.
        c.mark_used(&route(&[0, 1]), t(5.0));
        c.insert(route(&[0, 3]), t(6.0));
        assert_eq!(c.len(), 2);
        assert!(c.find(n(1), t(6.0)).is_some(), "recently used entry kept");
        assert!(c.find(n(2), t(6.0)).is_none(), "LRU entry evicted");
    }

    #[test]
    fn read_expiry_hides_just_expired_route() {
        let mut c = PathCache::new(n(0), 4);
        c.set_read_expiry(Some(SimDuration::from_secs(5.0)));
        c.insert(route(&[0, 1, 2]), t(0.0));
        // Within the timeout the route is served...
        assert!(c.find(n(2), t(4.0)).is_some());
        // ...but once expired it is never returned stale, even though no
        // sweep has run yet (the bug this test pins: `find` used to ignore
        // `now` entirely).
        assert!(c.find(n(2), t(6.0)).is_none(), "just-expired route must not be served");
        assert_eq!(c.len(), 1, "the sweep, not the read, prunes the entry");
    }

    #[test]
    fn read_expiry_serves_fresh_prefix_of_stale_path() {
        let mut c = PathCache::new(n(0), 4);
        c.set_read_expiry(Some(SimDuration::from_secs(5.0)));
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        // Links 0-1 and 1-2 refreshed at t=9; the 2-3 tail goes stale.
        c.mark_used(&route(&[0, 1, 2]), t(9.0));
        assert!(c.find(n(3), t(10.0)).is_none(), "stale tail invisible to reads");
        assert_eq!(c.find(n(2), t(10.0)).unwrap(), route(&[0, 1, 2]), "fresh prefix served");
    }

    #[test]
    fn read_expiry_matches_sweep_criterion() {
        // The read-time filter and the sweep must agree on the instant a
        // route goes stale: anything `find` refuses, the next sweep prunes.
        let mut c = PathCache::new(n(0), 4);
        c.set_read_expiry(Some(SimDuration::from_secs(5.0)));
        c.insert(route(&[0, 1, 2]), t(0.0));
        // Boundary: last_used + timeout == now is NOT yet expired.
        assert!(c.find(n(2), t(5.0)).is_some());
        assert_eq!(c.expire(t(5.0), SimDuration::from_secs(5.0)), 0);
        // Just past the boundary: both refuse.
        assert!(c.find(n(2), t(5.001)).is_none());
        assert_eq!(c.expire(t(5.001), SimDuration::from_secs(5.0)), 1);
    }

    #[test]
    fn without_read_expiry_find_ignores_time() {
        let mut c = PathCache::new(n(0), 4);
        c.insert(route(&[0, 1, 2]), t(0.0));
        assert!(c.find(n(2), t(1e6)).is_some(), "no expiry policy: routes never age out");
    }

    #[test]
    fn event_log_records_evictions_and_expiries() {
        let mut c = PathCache::new(n(0), 1);
        c.set_event_log(true);
        c.insert(route(&[0, 1]), t(0.0));
        c.insert(route(&[0, 2]), t(1.0));
        c.expire(t(20.0), SimDuration::from_secs(5.0));
        let mut events = Vec::new();
        c.drain_events(&mut events);
        assert_eq!(
            events,
            vec![
                CacheEvent::Evicted { route: route(&[0, 1]) },
                CacheEvent::Expired { route: route(&[0, 2]) },
            ]
        );
        // Drained: a second drain yields nothing.
        events.clear();
        c.drain_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn event_log_off_records_nothing() {
        let mut c = PathCache::new(n(0), 1);
        c.insert(route(&[0, 1]), t(0.0));
        c.insert(route(&[0, 2]), t(1.0));
        let mut events = Vec::new();
        c.drain_events(&mut events);
        assert!(events.is_empty());
    }

    fn multipath_cache() -> PathCache {
        let mut c = PathCache::new(n(0), 16);
        c.set_multipath(2);
        c
    }

    #[test]
    fn multipath_keeps_disjoint_alternates() {
        let mut c = multipath_cache();
        assert!(c.insert(route(&[0, 1, 2, 3]), t(0.0)));
        assert!(c.insert(route(&[0, 4, 5, 3]), t(0.0)), "disjoint alternate admitted");
        assert_eq!(c.len(), 2);
        // A third disjoint path of equal length is refused at k = 2.
        assert!(!c.insert(route(&[0, 6, 7, 3]), t(0.0)));
        assert_eq!(c.len(), 2);
        // A shorter disjoint path displaces the longest alternate.
        assert!(c.insert(route(&[0, 8, 3]), t(1.0)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.find(n(3), t(1.0)).unwrap(), route(&[0, 8, 3]));
    }

    #[test]
    fn multipath_overlapping_path_replaced_only_when_shorter() {
        let mut c = multipath_cache();
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        // Shares link 1->2 and is no shorter: refused.
        assert!(!c.insert(route(&[0, 1, 2, 4, 3]), t(0.0)));
        assert_eq!(c.len(), 1);
        // Shares link 2->3 but is shorter: replaces the overlapping entry.
        assert!(c.insert(route(&[0, 2, 3]), t(1.0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.find(n(3), t(1.0)).unwrap(), route(&[0, 2, 3]));
    }

    #[test]
    fn multipath_remove_link_reports_failover() {
        let mut c = multipath_cache();
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.insert(route(&[0, 3, 2]), t(0.0));
        let out = c.remove_link(Link::new(n(1), n(2)), t(1.0));
        assert!(out.contained);
        assert_eq!(out.failovers, vec![(n(2), route(&[0, 3, 2]))]);
        // The second break leaves no survivor: no failover reported.
        let out = c.remove_link(Link::new(n(3), n(2)), t(2.0));
        assert!(out.contained);
        assert!(out.failovers.is_empty());
    }

    #[test]
    fn single_path_mode_never_reports_failovers() {
        let mut c = PathCache::new(n(0), 16);
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.insert(route(&[0, 3, 2]), t(0.0));
        let out = c.remove_link(Link::new(n(1), n(2)), t(1.0));
        assert!(out.contained);
        assert!(out.failovers.is_empty(), "failover reporting is multipath-only");
    }

    #[test]
    fn multipath_eviction_of_displaced_alternate_is_logged() {
        let mut c = multipath_cache();
        c.set_event_log(true);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        c.insert(route(&[0, 4, 3]), t(0.0));
        let mut events = Vec::new();
        c.drain_events(&mut events);
        events.clear();
        assert!(c.insert(route(&[0, 5, 3]), t(1.0)), "shorter disjoint path displaces longest");
        c.drain_events(&mut events);
        assert_eq!(events, vec![CacheEvent::Evicted { route: route(&[0, 1, 2, 3]) }]);
    }

    #[test]
    fn truncation_dedupes_identical_prefixes() {
        let mut c = PathCache::new(n(0), 8);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        c.insert(route(&[0, 1, 2, 4]), t(0.0));
        c.remove_link(Link::new(n(2), n(3)), t(1.0));
        c.remove_link(Link::new(n(2), n(4)), t(1.0));
        assert_eq!(c.len(), 1, "identical truncated prefixes must merge");
    }

    #[test]
    fn expiry_repeats_survive_until_the_next_purge_of_any_link() {
        let mut c = PathCache::new(n(0), 8);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        c.insert(route(&[0, 1, 2, 4]), t(0.0));
        // Only 0-1-2 stays in use: the sweep cuts both tails and, unlike
        // `remove_link`, leaves the two now identical entries side by side.
        c.mark_used(&route(&[0, 1, 2]), t(9.0));
        assert_eq!(c.expire(t(10.0), SimDuration::from_secs(5.0)), 2);
        let paths = |c: &PathCache| c.iter().map(|e| e.path().clone()).collect::<Vec<_>>();
        assert_eq!(paths(&c), vec![route(&[0, 1, 2]), route(&[0, 1, 2])]);
        // A lookup or a refresh does not merge them...
        assert!(c.find(n(2), t(10.0)).is_some());
        assert!(c.insert(route(&[0, 1, 2]), t(10.0)));
        assert_eq!(c.len(), 2);
        // ...the next purge does, even for a link the cache does not hold
        // (the one case its miss fast path must not skip).
        assert!(!c.remove_link(Link::new(n(7), n(8)), t(10.0)).contained);
        assert_eq!(paths(&c), vec![route(&[0, 1, 2])]);
        // The refreshed first entry is the survivor.
        assert_eq!(c.iter().next().unwrap().entered_at(), t(10.0));
    }
}
