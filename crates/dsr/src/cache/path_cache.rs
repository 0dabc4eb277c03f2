//! The DSR path cache.
//!
//! Stores complete paths, each starting at the owning node (the *path
//! cache* organization of the CMU ns-2 implementation).
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
//! # Layout
//!
//! Every path's nodes and last-used stamps live in two flat arenas per
//! cache, `nodes` and `used`; an entry is a `Slot` header naming its piece
//! of both. A slot is as long as its path was when it was entered, and
//! truncation shortens only the live length. Removing an entry closes its
//! slot: the later bytes of both arenas shift down over it and every offset
//! above it drops by its length, so the slots always tile the arenas. Arena
//! order is not entry order (eviction moves a header, not its slot); only
//! entry order is behaviour. A new path is appended, so it allocates only
//! when an arena has to grow.
//!
//! # Summary fields
//!
//! Every scan below visits all entries but wants a handful. Each slot
//! therefore carries two values derived from its path — a node signature
//! (`Sig`) and its LRU stamp — and a scan decides from those alone whether
//! the entry can matter before it reads the path's nodes and stamps. They
//! filter, they do not index: a scan that passes the filter runs the very
//! test it always ran, so entry order, tie-breaks and first-match refresh
//! are untouched.

use packet::{InlineRoute, InvalidRoute, Link, Route};
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

/// Index of the first node whose last-used stamp in `used` (a path's live
/// stamps) has outlived `timeout` at `now` — the shared criterion of the
/// expiry sweep and the read-time filter (node 0 is the owner itself, so
/// staleness starts at index 1). Equal to the path length when nothing is
/// stale.
fn stale_cut(used: &[SimTime], now: SimTime, timeout: SimDuration) -> usize {
    (1..used.len()).find(|&j| used[j] + timeout < now).unwrap_or(used.len())
}

/// A stored path as an owned [`Route`]: what a lookup hit returns and a
/// snapshot lists. A logged event copies the path by value instead.
fn route_of(nodes: &[NodeId]) -> Route {
    Route::from_slice(nodes).expect("cached paths are loop-free")
}

/// One cached path's header. The path is `nodes[at..at + len]` of the
/// cache's node arena, its last-used stamps the same range of the stamp
/// arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Where the slot starts in both arenas.
    at: u32,
    /// The live length: how many nodes the stored path has.
    len: u16,
    /// The slot's length: the path's length when it was entered.
    /// Truncation leaves it alone; closing the slot frees this much.
    cap: u16,
    entered_at: SimTime,
    /// The LRU stamp: the latest of the live stamps. Written by whoever
    /// writes those — simulated time never runs backwards, so a refresh at
    /// `now` makes it `now`; [`Slot::truncate`] recomputes it.
    mru: SimTime,
    /// [`sig_of`] the live path; recomputed by [`Slot::truncate`], the only
    /// edit a stored path sees.
    sig: Sig,
    used_for_forwarding: bool,
}

impl Slot {
    /// The live part of this slot in `arena` (the node or the stamp arena).
    fn live<'a, T>(&self, arena: &'a [T]) -> &'a [T] {
        &arena[self.at as usize..][..usize::from(self.len)]
    }

    fn live_mut<'a, T>(&self, arena: &'a mut [T]) -> &'a mut [T] {
        &mut arena[self.at as usize..][..usize::from(self.len)]
    }

    /// Cuts the path down to its first `len` nodes (at least one, at most
    /// all of them) and brings the summary fields in line.
    fn truncate(&mut self, len: usize, nodes: &[NodeId], used: &[SimTime]) {
        self.len = u16::try_from(len).expect("a cut never lengthens a path");
        self.sig = sig_of(self.live(nodes));
        self.mru = self.live(used).iter().copied().max().expect("paths keep their owner");
    }
}

/// One cached path with its bookkeeping, borrowed from the cache
/// ([`PathCache::iter`]).
#[derive(Debug, Clone, Copy)]
pub struct PathEntry<'a> {
    nodes: &'a [NodeId],
    last_used: &'a [SimTime],
    entered_at: SimTime,
    used_for_forwarding: bool,
}

impl<'a> PathEntry<'a> {
    /// The stored path's nodes (the first is the cache owner).
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// When each node of the path was last seen in use, one stamp a node.
    pub fn last_used(&self) -> &'a [SimTime] {
        self.last_used
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

/// Result of [`PathCache::remove_link`], feeding the wider-error
/// re-broadcast predicate and multipath failover. (The lifetimes of the
/// routes it cut go to [`PathCache::remove_link_with`]'s callback.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemovedLink {
    /// Whether any cached path contained the link.
    pub contained: bool,
    /// Whether any affected path had been used in forwarded packets.
    pub was_used_for_forwarding: bool,
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
    /// One header per cached path, in entry order.
    entries: Vec<Slot>,
    /// The node arena: every entry's slot of path nodes.
    nodes: Vec<NodeId>,
    /// The stamp arena, parallel to `nodes`: when each node was last seen
    /// in use.
    used: Vec<SimTime>,
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
            nodes: Vec::new(),
            used: Vec::new(),
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

    /// Hands every logged decision event since the last drain to `each`,
    /// in order.
    pub fn drain_events_with(&mut self, each: &mut dyn FnMut(CacheEvent)) {
        if let Some(log) = &mut self.log {
            log.drain(..).for_each(each);
        }
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no paths.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over cached entries in cache order (inspection/testing).
    pub fn iter(&self) -> impl Iterator<Item = PathEntry<'_>> {
        self.entries.iter().map(|slot| PathEntry {
            nodes: slot.live(&self.nodes),
            last_used: slot.live(&self.used),
            entered_at: slot.entered_at,
            used_for_forwarding: slot.used_for_forwarding,
        })
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
    /// routes from sub-slices of the packets it sees. A refresh of a path
    /// already cached — the common case — allocates nothing, and neither
    /// does a new entry while the arenas have room for it.
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
        for slot in &mut self.entries {
            if sig_within(sig, slot.sig) && slot.live(&self.nodes).starts_with(path) {
                slot.live_mut(&mut self.used)[..path.len()].fill(now);
                slot.mru = slot.mru.max(now);
                slot.entered_at = now;
                return true;
            }
        }
        // Not a refresh: from here on the cache changes shape.
        if let Some(i) = (1..path.len()).find(|&i| path[..i].contains(&path[i])) {
            panic!("cached paths are loop-free: {:?}", InvalidRoute::Loop(path[i]));
        }
        // Replace any existing entries that are prefixes of the new path.
        self.retain_slots(|_, slot, nodes, _| {
            !(sig_within(slot.sig, sig) && path.starts_with(slot.live(nodes)))
        });
        if let Some(k) = self.multipath_k {
            if !self.admit_multipath(path, k) {
                return false;
            }
        }
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.push(path, sig, now);
        true
    }

    /// Appends an entry for the loop-free `path` (signature `sig`) at
    /// `now`. Each of the three vectors grows by exactly what it lacks, not
    /// by doubling, and room a purge left behind is reused first: see
    /// `release_dropped`.
    fn push(&mut self, path: &[NodeId], sig: Sig, now: SimTime) {
        let at = u32::try_from(self.nodes.len()).expect("an arena index fits a u32");
        let len = u16::try_from(path.len()).expect("a path fits a slot");
        self.nodes.reserve_exact(path.len());
        self.nodes.extend_from_slice(path);
        self.used.reserve_exact(path.len());
        self.used.resize(self.used.len() + path.len(), now);
        self.entries.reserve_exact(1);
        self.entries.push(Slot {
            at,
            len,
            cap: len,
            entered_at: now,
            mru: now,
            sig,
            used_for_forwarding: false,
        });
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
    fn admit_multipath(&mut self, path: &[NodeId], k: usize) -> bool {
        let dst = path[path.len() - 1];
        let same_dst = |slot: &Slot, nodes: &[NodeId]| slot.live(nodes).last() == Some(&dst);
        let overlaps = |slot: &Slot, nodes: &[NodeId]| {
            same_dst(slot, nodes)
                && Link::along(slot.live(nodes)).any(|l| Link::along(path).any(|m| m == l))
        };
        let no_shorter = |slot: &Slot| usize::from(slot.len) <= path.len();
        if self.entries.iter().any(|s| overlaps(s, &self.nodes)) {
            if self.entries.iter().any(|s| overlaps(s, &self.nodes) && no_shorter(s)) {
                return false;
            }
            for i in (0..self.entries.len()).rev() {
                if overlaps(&self.entries[i], &self.nodes) {
                    self.displace(i);
                }
            }
            return true;
        }
        if self.entries.iter().filter(|s| same_dst(s, &self.nodes)).count() < k {
            return true;
        }
        // Longest, then greatest node sequence; the last of equals (exact
        // repeats left by an expiry sweep).
        let (longest, _) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, s)| same_dst(s, &self.nodes))
            .max_by_key(|(_, s)| (s.len, s.live(&self.nodes)))
            .expect("k > 0 entries");
        if no_shorter(&self.entries[longest]) {
            return false;
        }
        self.displace(longest);
        true
    }

    /// Removes entry `i`, keeping the others in order, to make room for a
    /// better alternate.
    fn displace(&mut self, i: usize) {
        let slot = self.entries.remove(i);
        self.log_evicted(&slot);
        self.close(slot);
    }

    fn evict_lru(&mut self) {
        if let Some((idx, _)) = self.entries.iter().enumerate().min_by_key(|(_, s)| s.mru) {
            let slot = self.entries.swap_remove(idx);
            self.log_evicted(&slot);
            self.close(slot);
        }
    }

    /// Logs an eviction of `slot`, which must not be closed yet.
    fn log_evicted(&mut self, slot: &Slot) {
        if let Some(log) = &mut self.log {
            log.push(CacheEvent::Evicted {
                route: InlineRoute::from_slice(slot.live(&self.nodes)),
            });
        }
    }

    /// Closes the slot of an entry just taken out of `entries`: the later
    /// bytes of both arenas shift down over it, and every remaining offset
    /// above it drops by its length.
    fn close(&mut self, slot: Slot) {
        let (at, cap) = (slot.at as usize, usize::from(slot.cap));
        self.nodes.drain(at..at + cap);
        self.used.drain(at..at + cap);
        for s in self.entries.iter_mut().filter(|s| s.at > slot.at) {
            s.at -= u32::from(slot.cap);
        }
    }

    /// Keeps the entries `keep` accepts, in order, and removes the others.
    /// `keep` sees the survivors so far, the entry — which it may truncate —
    /// and the two arenas; entries are offered in cache order.
    fn retain_slots(
        &mut self,
        mut keep: impl FnMut(&[Slot], &mut Slot, &[NodeId], &[SimTime]) -> bool,
    ) {
        let mut kept = 0;
        for i in 0..self.entries.len() {
            let (survivors, rest) = self.entries.split_at_mut(i);
            if keep(&survivors[..kept], &mut rest[0], &self.nodes, &self.used) {
                self.entries.swap(kept, i);
                kept += 1;
            }
        }
        // Highest slot first: closing one moves nothing below it, so the
        // offsets of those still to close stay right.
        self.entries[kept..].sort_unstable_by_key(|s| s.at);
        while self.entries.len() > kept {
            let slot = self.entries.pop().expect("more entries than kept");
            self.close(slot);
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
        for (i, slot) in self.entries.iter().enumerate() {
            if slot.sig & dst_bit == 0 {
                continue;
            }
            let Some(hops) = slot.live(&self.nodes).iter().position(|&n| n == dst) else {
                continue;
            };
            if hops == 0 {
                continue;
            }
            if let Some(timeout) = self.read_expiry {
                // `dst` lies beyond the stale cut: invisible to the lookup.
                if slot.live(&self.used)[1..=hops].iter().any(|&used| used + timeout < now) {
                    continue;
                }
            }
            let better = match best {
                None => true,
                Some((b_hops, b_entered, _)) => {
                    hops < b_hops || (hops == b_hops && slot.entered_at > b_entered)
                }
            };
            if better {
                best = Some((hops, slot.entered_at, i));
            }
        }
        best.map(|(hops, _, i)| route_of(&self.entries[i].live(&self.nodes)[..=hops]))
    }

    /// Whether any cached path uses `link`.
    pub fn contains_link(&self, link: Link) -> bool {
        let ends = sig_of_link(link);
        self.entries
            .iter()
            .any(|s| sig_within(ends, s.sig) && Link::along(s.live(&self.nodes)).any(|l| l == link))
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
        self.remove_link_with(link, now, |_| {})
    }

    /// [`PathCache::remove_link`], handing `lifetime` the observed lifetime
    /// (`now - entered_at`) of every path the purge cuts, in entry order.
    pub fn remove_link_with(
        &mut self,
        link: Link,
        now: SimTime,
        mut lifetime: impl FnMut(SimDuration),
    ) -> RemovedLink {
        let mut outcome = RemovedLink::default();
        if !self.may_hold_repeats && !self.contains_link(link) {
            return outcome;
        }
        let multipath = self.multipath_k.is_some();
        let mut lost_dsts: Vec<NodeId> = Vec::new();
        let ends = sig_of_link(link);
        for slot in &mut self.entries {
            if !sig_within(ends, slot.sig) {
                continue;
            }
            let nodes = slot.live(&self.nodes);
            let Some(cut) = Link::along(nodes).position(|l| l == link) else {
                continue;
            };
            outcome.contained = true;
            outcome.was_used_for_forwarding |= slot.used_for_forwarding;
            lifetime(now.saturating_since(slot.entered_at));
            let dst = nodes[nodes.len() - 1];
            if multipath && !lost_dsts.contains(&dst) {
                lost_dsts.push(dst);
            }
            // Keep the nodes up to and including `link.from`. A path cut
            // down to the owner alone is dropped by the pass below.
            slot.truncate(cut + 1, &self.nodes, &self.used);
        }
        // Stable in-place compaction: drop hop-less paths and exact repeats
        // of an earlier survivor.
        let before = self.entries.len();
        self.retain_slots(|survivors, slot, nodes, _| {
            let path = slot.live(nodes);
            slot.len >= 2 && !survivors.iter().any(|s| s.sig == slot.sig && s.live(nodes) == path)
        });
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
    /// headers and slots back once the live part is at most half of what
    /// is held: `entries` on its own, `nodes` and `used` (which grow
    /// together) together. A cache that fills up and thins out for good
    /// (every expiry policy does this to it) would otherwise sit on its
    /// high-water mark for the rest of the run, and 100 nodes' worth of
    /// that shows in the peak heap; a cache whose size moves up and down
    /// around a level keeps its room and refills it without reallocating.
    fn release_dropped(&mut self, before: usize) {
        if self.entries.len() < before {
            if self.entries.len() * 2 <= self.entries.capacity() {
                self.entries.shrink_to_fit();
            }
            if self.nodes.len() * 2 <= self.nodes.capacity() {
                self.nodes.shrink_to_fit();
                self.used.shrink_to_fit();
            }
        }
    }

    /// Runs `visit` over the entries that may share a link with `seen` —
    /// each with its live nodes and stamps, and the successor table
    /// describing `seen` (see the `succ` field) — then resets the table.
    ///
    /// An entry holding a link of `seen` holds both of its ends, so the two
    /// signatures have two bits in common — or one, when the link's ends
    /// fold onto one bit. Only if `seen` has such a link does one common bit
    /// let an entry through.
    fn with_links_of(
        &mut self,
        seen: &Route,
        mut visit: impl FnMut(&mut Slot, &[NodeId], &mut [SimTime], &[NodeId]),
    ) {
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
        for slot in &mut self.entries {
            let common = slot.sig & seen_sig;
            // `x & (x - 1)` clears the lowest set bit: non-zero iff two are set.
            if common != 0 && (folded_link || common & (common - 1) != 0) {
                let (path, used) = (slot.live(&self.nodes), slot.live_mut(&mut self.used));
                visit(slot, path, used, &succ);
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
        self.with_links_of(seen, |slot, path, used, succ| {
            for j in 1..path.len() {
                if succ.get(path[j - 1].index()) == Some(&path[j]) {
                    used[j - 1] = now;
                    used[j] = now;
                    slot.mru = slot.mru.max(now);
                }
            }
        });
    }

    /// Records that the owner *forwarded* a packet along `seen`: cached
    /// paths sharing a link with it are flagged, enabling the wider-error
    /// re-broadcast predicate.
    pub fn mark_forwarded(&mut self, seen: &Route) {
        self.with_links_of(seen, |slot, path, _, succ| {
            if Link::along(path).any(|l| succ.get(l.from.index()) == Some(&l.to)) {
                slot.used_for_forwarding = true;
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
        let (mut log, mut truncated) = (self.log.take(), false);
        self.retain_slots(|_, slot, nodes, used| {
            let cut = stale_cut(slot.live(used), now, timeout);
            if cut == usize::from(slot.len) {
                return true;
            }
            affected += 1;
            if let Some(log) = &mut log {
                log.push(CacheEvent::Expired { route: InlineRoute::from_slice(slot.live(nodes)) });
            }
            if cut < 2 {
                return false;
            }
            slot.truncate(cut, nodes, used);
            truncated = true;
            true
        });
        self.log = log;
        self.may_hold_repeats |= truncated;
        self.release_dropped(before);
        affected
    }

    /// Every cached path as a route, in entry order (see
    /// [`RouteCache::snapshot_routes`](crate::cache::RouteCache::snapshot_routes)).
    pub fn snapshot_routes(&self) -> Vec<Route> {
        self.iter().map(|e| route_of(e.nodes())).collect()
    }

    /// Removes every cached path (testing / reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.nodes.clear();
        self.used.clear();
    }
}

impl crate::cache::RouteCache for PathCache {
    fn insert_slice(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        PathCache::insert_slice(self, nodes, now)
    }

    fn find(&self, dst: NodeId, now: SimTime) -> Option<Route> {
        PathCache::find(self, dst, now)
    }

    fn remove_link_with(
        &mut self,
        link: Link,
        now: SimTime,
        lifetime: &mut dyn FnMut(SimDuration),
    ) -> RemovedLink {
        PathCache::remove_link_with(self, link, now, lifetime)
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
        PathCache::snapshot_routes(self)
    }

    fn set_event_log(&mut self, on: bool) {
        PathCache::set_event_log(self, on)
    }

    fn drain_events_with(&mut self, each: &mut dyn FnMut(CacheEvent)) {
        PathCache::drain_events_with(self, each)
    }

    fn set_read_expiry(&mut self, timeout: Option<SimDuration>) {
        PathCache::set_read_expiry(self, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RouteCache;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn route(ids: &[u16]) -> Route {
        Route::new(ids.iter().map(|&i| n(i)).collect()).expect("valid route")
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn inline(ids: &[u16]) -> InlineRoute {
        InlineRoute::from_slice(route(ids).nodes())
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
        let mut lifetimes = Vec::new();
        let out = c.remove_link_with(Link::new(n(2), n(3)), t(7.0), |l| lifetimes.push(l));
        assert!(out.contained);
        assert_eq!(lifetimes, vec![SimDuration::from_secs(7.0)]);
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
        assert_eq!(c.iter().next().unwrap().nodes(), route(&[0, 32]).nodes());
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
    fn slot_stays_half_a_cache_line() {
        // At the benchmark's peak the 100 caches are full: 100 x 64 slots
        // x 8 bytes = 50 KiB, +1 % of the ~5 MiB `peak_heap_mib` — the whole
        // of that metric's bound — for every 8 bytes a slot grows by.
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    /// A purge gives room back only once the live part is at most half of
    /// it, so a cache that thins out and refills keeps its arenas; the
    /// headers and the node arena are judged apart.
    #[test]
    fn arenas_shrink_only_at_half_capacity() {
        let caps = |c: &PathCache| {
            assert_eq!(c.nodes.capacity(), c.used.capacity(), "the arenas grow together");
            (c.entries.capacity(), c.nodes.capacity())
        };
        let mut c = PathCache::new(n(0), 8);
        for hop in [1, 3, 5, 7] {
            c.insert(route(&[0, hop, hop + 1]), t(0.0));
        }
        assert_eq!(caps(&c), (4, 12), "growth is exact");
        c.remove_link(Link::new(n(0), n(1)), t(1.0));
        assert_eq!((c.len(), caps(&c)), (3, (4, 12)), "3 of 4 live: the room is kept");
        c.insert(route(&[0, 9, 10]), t(2.0));
        assert_eq!((c.len(), caps(&c)), (4, (4, 12)), "and refilled");
        c.remove_link(Link::new(n(0), n(3)), t(3.0));
        c.remove_link(Link::new(n(0), n(5)), t(3.0));
        assert_eq!((c.len(), caps(&c)), (2, (2, 6)), "2 of 4 live: given back");

        // One long path among short ones: dropping it halves the node
        // arena but not the headers.
        let mut c = PathCache::new(n(0), 8);
        for path in [&[0, 1, 2, 3, 4, 5, 6][..], &[0, 7], &[0, 8], &[0, 9]] {
            c.insert(route(path), t(0.0));
        }
        assert_eq!(caps(&c), (4, 13));
        c.remove_link(Link::new(n(0), n(1)), t(1.0));
        assert_eq!((c.len(), caps(&c)), (3, (4, 6)));
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
                CacheEvent::Evicted { route: inline(&[0, 1]) },
                CacheEvent::Expired { route: inline(&[0, 2]) },
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
        assert_eq!(events, vec![CacheEvent::Evicted { route: inline(&[0, 1, 2, 3]) }]);
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
        let paths = |c: &PathCache| c.iter().map(|e| route_of(e.nodes())).collect::<Vec<_>>();
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
