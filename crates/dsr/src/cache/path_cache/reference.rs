//! Test-only reference model of [`PathCache`]: the method bodies the cache
//! had before its hot half was rebuilt to work in place — the
//! drain-and-rebuild `remove_link` that dedupes on every call, the `find`
//! that materializes a prefix per matching entry, the triple-loop
//! `mark_used`, the collecting `admit_multipath`. Slow and allocation-happy
//! on purpose: obviously right, and the oracle the seeded differential
//! test below drives in lock-step with the shipped cache (the same pattern
//! as `phy::differential`).
//!
//! The model keeps each path as an owned [`Route`] with a `Vec` of stamps
//! cut together with it, and has no summary fields: it picks its LRU
//! victim from the stamps themselves. The test compares the two caches
//! through [`PathCache::iter`], and checks the shipped slots' summaries
//! against their definitions and the slots against the arenas after every
//! op.

use packet::{InlineRoute, Link, Route};
use sim_core::{NodeId, SimDuration, SimRng, SimTime};

use super::{sig_of, stale_cut, PathCache, PathEntry, RemovedLink};
use crate::cache::{CacheEvent, RouteCache};

/// A model path as a logged event carries it.
fn inline(path: &Route) -> InlineRoute {
    InlineRoute::from_slice(path.nodes())
}

/// One cached path of the model.
#[derive(Debug, Clone)]
struct Entry {
    path: Route,
    /// One stamp per node of `path`, always as long as it.
    last_used: Vec<SimTime>,
    entered_at: SimTime,
    used_for_forwarding: bool,
}

impl Entry {
    fn new(path: Route, now: SimTime) -> Self {
        Entry {
            last_used: vec![now; path.len()],
            path,
            entered_at: now,
            used_for_forwarding: false,
        }
    }

    fn observed(&self) -> Observed {
        (
            self.path.nodes().to_vec(),
            self.last_used.clone(),
            self.entered_at,
            self.used_for_forwarding,
        )
    }

    /// Replaces the path with its prefix `path`, stamps cut to match.
    fn cut_to(&mut self, path: Route) {
        self.last_used.truncate(path.len());
        self.path = path;
    }
}

#[derive(Debug)]
struct ReferenceCache {
    owner: NodeId,
    capacity: usize,
    entries: Vec<Entry>,
    read_expiry: Option<SimDuration>,
    log: Vec<CacheEvent>,
    multipath_k: Option<usize>,
}

impl ReferenceCache {
    fn new(owner: NodeId, capacity: usize, multipath_k: Option<usize>) -> Self {
        ReferenceCache {
            owner,
            capacity,
            entries: Vec::new(),
            read_expiry: None,
            log: Vec::new(),
            multipath_k,
        }
    }

    fn insert(&mut self, path: Route, now: SimTime) -> bool {
        assert_eq!(path.source(), self.owner, "cached paths start at the owner");
        if path.hops() == 0 {
            return false;
        }
        for entry in &mut self.entries {
            if entry.path.len() >= path.len() && entry.path.nodes()[..path.len()] == *path.nodes() {
                for ts in entry.last_used[..path.len()].iter_mut() {
                    *ts = now;
                }
                entry.entered_at = now;
                return true;
            }
        }
        self.entries.retain(|e| e.path.nodes() != &path.nodes()[..e.path.len().min(path.len())]);
        if let Some(k) = self.multipath_k {
            if !self.admit_multipath(&path, k) {
                return false;
            }
        }
        if self.entries.len() >= self.capacity {
            if let Some((idx, _)) =
                self.entries.iter().enumerate().min_by_key(|(_, e)| e.last_used.iter().max())
            {
                let entry = self.entries.swap_remove(idx);
                self.log.push(CacheEvent::Evicted { route: inline(&entry.path) });
            }
        }
        self.entries.push(Entry::new(path, now));
        true
    }

    fn admit_multipath(&mut self, path: &Route, k: usize) -> bool {
        let dst = path.destination();
        let same_dst: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].path.destination() == dst)
            .collect();
        let overlapping: Vec<usize> = same_dst
            .iter()
            .copied()
            .filter(|&i| self.entries[i].path.links().any(|l| path.contains_link(l)))
            .collect();
        if !overlapping.is_empty() {
            if overlapping.iter().any(|&i| self.entries[i].path.hops() <= path.hops()) {
                return false;
            }
            for &i in overlapping.iter().rev() {
                let entry = self.entries.remove(i);
                self.log.push(CacheEvent::Evicted { route: inline(&entry.path) });
            }
            return true;
        }
        if same_dst.len() < k {
            return true;
        }
        let longest = same_dst
            .into_iter()
            .max_by_key(|&i| (self.entries[i].path.hops(), self.entries[i].path.nodes().to_vec()))
            .expect("k > 0 entries");
        if self.entries[longest].path.hops() <= path.hops() {
            return false;
        }
        let entry = self.entries.remove(longest);
        self.log.push(CacheEvent::Evicted { route: inline(&entry.path) });
        true
    }

    fn find(&self, dst: NodeId, now: SimTime) -> Option<Route> {
        let mut best: Option<(usize, SimTime, Route)> = None;
        for entry in &self.entries {
            let usable = match self.read_expiry {
                Some(timeout) => stale_cut(&entry.last_used, now, timeout),
                None => entry.path.len(),
            };
            if let Some(prefix) = entry.path.prefix_through(dst) {
                if prefix.hops() == 0 || prefix.len() > usable {
                    continue;
                }
                let candidate = (prefix.hops(), entry.entered_at, prefix);
                best = match best {
                    None => Some(candidate),
                    Some(b) => {
                        if candidate.0 < b.0 || (candidate.0 == b.0 && candidate.1 > b.1) {
                            Some(candidate)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
        }
        best.map(|(_, _, route)| route)
    }

    /// The outcome, and the lifetimes of the paths cut, in entry order.
    fn remove_link(&mut self, link: Link, now: SimTime) -> (RemovedLink, Vec<SimDuration>) {
        let mut outcome = RemovedLink::default();
        let mut lifetimes = Vec::new();
        let mut lost_dsts: Vec<NodeId> = Vec::new();
        let mut kept = Vec::with_capacity(self.entries.len());
        for mut entry in self.entries.drain(..) {
            if let Some(truncated) = entry.path.truncate_before_link(link) {
                outcome.contained = true;
                outcome.was_used_for_forwarding |= entry.used_for_forwarding;
                lifetimes.push(now.saturating_since(entry.entered_at));
                let dst = entry.path.destination();
                if !lost_dsts.contains(&dst) {
                    lost_dsts.push(dst);
                }
                if truncated.hops() >= 1 {
                    entry.cut_to(truncated);
                    kept.push(entry);
                }
            } else {
                kept.push(entry);
            }
        }
        let mut deduped: Vec<Entry> = Vec::with_capacity(kept.len());
        for entry in kept {
            if !deduped.iter().any(|e| e.path == entry.path) {
                deduped.push(entry);
            }
        }
        self.entries = deduped;
        if self.multipath_k.is_some() {
            for dst in lost_dsts {
                if let Some(route) = self.find(dst, now) {
                    outcome.failovers.push((dst, route));
                }
            }
        }
        (outcome, lifetimes)
    }

    fn mark_used(&mut self, seen: &Route, now: SimTime) {
        for entry in &mut self.entries {
            for j in 1..entry.path.len() {
                let l = entry.path.link(j - 1);
                if seen.contains_link(l) {
                    entry.last_used[j - 1] = now;
                    entry.last_used[j] = now;
                }
            }
        }
    }

    fn mark_forwarded(&mut self, seen: &Route) {
        for entry in &mut self.entries {
            if entry.path.links().any(|l| seen.contains_link(l)) {
                entry.used_for_forwarding = true;
            }
        }
    }

    fn expire(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        let mut affected = 0;
        let mut kept = Vec::with_capacity(self.entries.len());
        for mut entry in self.entries.drain(..) {
            let cut = stale_cut(&entry.last_used, now, timeout);
            if cut == entry.path.len() {
                kept.push(entry);
                continue;
            }
            affected += 1;
            self.log.push(CacheEvent::Expired { route: inline(&entry.path) });
            if cut >= 2 {
                let nodes = entry.path.nodes()[..cut].to_vec();
                entry.cut_to(Route::new(nodes).expect("prefix of a loop-free route"));
                kept.push(entry);
            }
        }
        self.entries = kept;
        affected
    }
}

/// Logical nodes the generated routes draw from: few enough that routes
/// share links, prefixes and destinations all the time.
const NODES: u16 = 10;

/// The id logical node `i` carries in a case of fold width `width`: the
/// upper five sit exactly `width` above the lower five, so `i` and `i + 5`
/// land on one bit of any node signature up to `width` bits wide while
/// staying different nodes (the owner, logical 0, folds with logical 5).
/// Ids `0..10` never collide in a signature, and a filter that is only
/// right without collisions would pass.
fn node(i: u16, width: u16) -> NodeId {
    NodeId::new(i % 5 + width * (i / 5))
}

/// A loop-free node sequence of 2–9 nodes; `rooted` ones start at logical
/// node 0 (the cache owner), the others anywhere (observed packets).
fn random_route(rng: &mut SimRng, rooted: bool, width: u16) -> Route {
    let mut pool: Vec<u16> = (u16::from(rooted)..NODES).collect();
    let mut nodes = if rooted { vec![node(0, width)] } else { Vec::new() };
    let len = rng.random_range(2..=9usize);
    while nodes.len() < len {
        let pick = rng.random_range(0..pool.len());
        nodes.push(node(pool.swap_remove(pick), width));
    }
    Route::new(nodes).expect("drawn without replacement")
}

fn random_link(rng: &mut SimRng, width: u16) -> Link {
    let from = rng.random_range(0..NODES);
    let to = (from + rng.random_range(1..NODES)) % NODES;
    Link::new(node(from, width), node(to, width))
}

/// An entry as the test compares it: path, live stamps, `entered_at` and
/// the forwarding flag.
type Observed = (Vec<NodeId>, Vec<SimTime>, SimTime, bool);

fn observed(e: PathEntry<'_>) -> Observed {
    (e.nodes().to_vec(), e.last_used().to_vec(), e.entered_at(), e.used_for_forwarding())
}

/// What the shipped cache keeps beyond the entries: every slot's summary
/// fields follow from its live path and stamps, its live length is within
/// its slot, and the slots tile both arenas exactly.
fn assert_layout(cache: &PathCache, at: &str) {
    for s in &cache.entries {
        let path = s.live(&cache.nodes);
        assert!(s.len <= s.cap, "{at}: {path:?} outgrew its slot of {}", s.cap);
        assert_eq!(s.sig, sig_of(path), "{at}: signature of {path:?}");
        assert_eq!(Some(&s.mru), s.live(&cache.used).iter().max(), "{at}: LRU stamp of {path:?}");
    }
    let mut spans: Vec<(usize, usize)> =
        cache.entries.iter().map(|s| (s.at as usize, usize::from(s.cap))).collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].0 + w[0].1 <= w[1].0, "{at}: slots {:?} and {:?} overlap", w[0], w[1]);
    }
    let total: usize = spans.iter().map(|&(_, cap)| cap).sum();
    let end = spans.last().map_or(0, |&(start, cap)| start + cap);
    assert_eq!((total, end), (cache.nodes.len(), cache.nodes.len()), "{at}: slots against nodes");
    assert_eq!(cache.used.len(), cache.nodes.len(), "{at}: stamp arena against node arena");
}

/// One seeded op sequence against both caches, every observable compared
/// after every op.
fn run_case(seed: u64, rng: &mut SimRng) {
    let capacity = rng.random_range(1..=8usize);
    let multipath_k = (rng.random_range(0..3u32) == 0).then_some(2);
    let width = [32, 64, 128][rng.random_range(0..3usize)];
    let owner = node(0, width);
    let mut cache = PathCache::new(owner, capacity);
    cache.set_event_log(true);
    if let Some(k) = multipath_k {
        cache.set_multipath(k);
    }
    let mut model = ReferenceCache::new(owner, capacity, multipath_k);
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    for step in 0..400 {
        now += SimDuration::from_millis(rng.random_range(0..1500u32).into());
        let at = format!("seed {seed} step {step}");
        // Percent of ops: 31 inserts, 12 lookups, 18 refreshes, 6 forward
        // flags, 19 purges, 6 sweeps, 6 read-expiry changes, 2 clears.
        match rng.random_range(0..100u32) {
            0..=30 => {
                let route = random_route(rng, true, width);
                let expected = model.insert(route.clone(), now);
                // Owned and slice form are one path; alternate the entry.
                let got = if step % 2 == 0 {
                    cache.insert_slice(route.nodes(), now)
                } else {
                    cache.insert(route, now)
                };
                assert_eq!(got, expected, "{at}: insert");
            }
            31..=42 => {
                let dst = node(rng.random_range(0..NODES), width);
                assert_eq!(cache.find(dst, now), model.find(dst, now), "{at}: find {dst}");
            }
            43..=60 => {
                let rooted = rng.random_range(0..2u32) == 0;
                let seen = random_route(rng, rooted, width);
                cache.mark_used(&seen, now);
                model.mark_used(&seen, now);
            }
            61..=66 => {
                let seen = random_route(rng, false, width);
                cache.mark_forwarded(&seen);
                model.mark_forwarded(&seen);
            }
            67..=85 => {
                let link = random_link(rng, width);
                let mut lifetimes = Vec::new();
                let got = cache.remove_link_with(link, now, |l| lifetimes.push(l));
                let want = model.remove_link(link, now);
                assert_eq!((got, lifetimes), want, "{at}: remove_link {link}");
            }
            86..=91 => {
                let timeout = SimDuration::from_secs(rng.random_range(1..8u32).into());
                assert_eq!(cache.expire(now, timeout), model.expire(now, timeout), "{at}: expire");
            }
            92..=97 => {
                let timeout = (rng.random_range(0..3u32) > 0)
                    .then(|| SimDuration::from_secs(rng.random_range(1..8u32).into()));
                cache.set_read_expiry(timeout);
                model.read_expiry = timeout;
            }
            _ => {
                cache.clear();
                model.entries.clear();
            }
        }
        // Order, paths, `entered_at`, live `last_used` and forwarding flags.
        let got: Vec<Observed> = cache.iter().map(observed).collect();
        let want: Vec<Observed> = model.entries.iter().map(Entry::observed).collect();
        assert_eq!(got, want, "{at}: entries");
        assert_layout(&cache, &at);
        cache.drain_events(&mut events);
        assert_eq!(events, model.log, "{at}: logged events");
        events.clear();
        model.log.clear();
    }
}

#[test]
fn shipped_cache_matches_reference_model_op_for_op() {
    sim_core::testkit::cases("path-cache-differential", 0..300, run_case);
}
