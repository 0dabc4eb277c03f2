//! The link-cache organization (ablation).
//!
//! Hu & Johnson's alternative to the path cache (discussed in the paper's
//! related work): instead of whole paths, the cache stores individual
//! directed links as a graph, and answers route queries by shortest-path
//! search. A link cache can synthesize routes no single packet ever
//! carried — more answers per cached byte, but each stale link poisons
//! *every* route through it, which is exactly the trade-off the paper's
//! related-work section contrasts with the path cache. The
//! `ablation_cache_org` experiment measures this.

use std::collections::{HashMap, VecDeque};

use packet::{Link, Route};
use sim_core::{NodeId, SimDuration, SimTime};

use crate::cache::path_cache::RemovedLink;
use crate::cache::RouteCache;

#[derive(Debug, Clone, Copy)]
struct LinkData {
    added_at: SimTime,
    last_used: SimTime,
    used_for_forwarding: bool,
}

/// A bounded graph of directed links rooted at one node.
///
/// # Example
///
/// ```
/// use dsr::cache::{LinkCache, RouteCache};
/// use packet::Route;
/// use sim_core::{NodeId, SimTime};
///
/// let n = |i| NodeId::new(i);
/// let mut cache = LinkCache::new(n(0), 64);
/// let now = SimTime::ZERO;
/// cache.insert(Route::new(vec![n(0), n(1), n(2)]).unwrap(), now);
/// cache.insert(Route::new(vec![n(1), n(3)]).unwrap(), now);
/// // The link cache synthesizes 0-1-3 even though no packet carried it:
/// assert_eq!(cache.find(n(3), now).unwrap().hops(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LinkCache {
    owner: NodeId,
    capacity: usize,
    links: HashMap<Link, LinkData>,
}

impl LinkCache {
    /// Creates an empty link cache holding at most `capacity` links.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LinkCache { owner, capacity, links: HashMap::new() }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of cached links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    fn evict_lru(&mut self) {
        if let Some((&link, _)) = self.links.iter().min_by_key(|(_, d)| d.last_used) {
            self.links.remove(&link);
        }
    }

    /// Breadth-first shortest path (in hops) from the owner to `dst` over
    /// the cached link graph. Neighbor exploration is ordered by node id
    /// for determinism.
    fn shortest_path(&self, dst: NodeId) -> Option<Vec<NodeId>> {
        if dst == self.owner {
            return None;
        }
        let mut adjacency: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for link in self.links.keys() {
            adjacency.entry(link.from).or_default().push(link.to);
        }
        for nexts in adjacency.values_mut() {
            nexts.sort_unstable();
        }
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue = VecDeque::from([self.owner]);
        while let Some(node) = queue.pop_front() {
            if node == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while let Some(&p) = prev.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            if let Some(nexts) = adjacency.get(&node) {
                for &next in nexts {
                    if next != self.owner && !prev.contains_key(&next) {
                        prev.insert(next, node);
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }
}

impl RouteCache for LinkCache {
    fn insert_slice(&mut self, nodes: &[NodeId], now: SimTime) -> bool {
        let mut changed = false;
        for link in Link::along(nodes) {
            match self.links.get_mut(&link) {
                Some(data) => {
                    data.added_at = now;
                    data.last_used = now;
                }
                None => {
                    if self.links.len() >= self.capacity {
                        self.evict_lru();
                    }
                    self.links.insert(
                        link,
                        LinkData { added_at: now, last_used: now, used_for_forwarding: false },
                    );
                    changed = true;
                }
            }
        }
        changed
    }

    fn find(&self, dst: NodeId, _now: SimTime) -> Option<Route> {
        let path = self.shortest_path(dst)?;
        Route::new(path).ok()
    }

    fn remove_link_with(
        &mut self,
        link: Link,
        now: SimTime,
        lifetime: &mut dyn FnMut(SimDuration),
    ) -> RemovedLink {
        match self.links.remove(&link) {
            Some(data) => {
                // A link cache has no per-route lifetime; the link's own age
                // is the natural analogue for the adaptive estimator.
                lifetime(now.saturating_since(data.added_at));
                RemovedLink {
                    contained: true,
                    was_used_for_forwarding: data.used_for_forwarding,
                    // Multipath failover is a path-cache feature.
                    failovers: Vec::new(),
                }
            }
            None => RemovedLink::default(),
        }
    }

    fn mark_used(&mut self, seen: &Route, now: SimTime) {
        for link in seen.links() {
            if let Some(data) = self.links.get_mut(&link) {
                data.last_used = now;
            }
        }
    }

    fn mark_forwarded(&mut self, seen: &Route) {
        for link in seen.links() {
            if let Some(data) = self.links.get_mut(&link) {
                data.used_for_forwarding = true;
            }
        }
    }

    fn expire(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        let before = self.links.len();
        self.links.retain(|_, data| data.last_used + timeout >= now);
        before - self.links.len()
    }

    fn contains_link(&self, link: Link) -> bool {
        self.links.contains_key(&link)
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    fn snapshot_routes(&self) -> Vec<Route> {
        // One two-node route per cached link; a link is "valid" exactly
        // when its endpoints are in range, which is what the oracle checks.
        self.links.keys().filter_map(|link| Route::new(vec![link.from, link.to]).ok()).collect()
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

    #[test]
    fn synthesizes_routes_across_packets() {
        let mut c = LinkCache::new(n(0), 64);
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.insert(route(&[2, 3]), t(0.0));
        let r = c.find(n(3), t(0.0)).expect("synthesized route");
        assert_eq!(r, route(&[0, 1, 2, 3]));
    }

    #[test]
    fn finds_shortest_in_hops() {
        let mut c = LinkCache::new(n(0), 64);
        c.insert(route(&[0, 1, 2, 3]), t(0.0));
        c.insert(route(&[0, 4, 3]), t(0.0));
        assert_eq!(c.find(n(3), t(0.0)).expect("route").hops(), 2);
    }

    #[test]
    fn removing_one_link_poisons_all_routes_through_it() {
        let mut c = LinkCache::new(n(0), 64);
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.insert(route(&[5, 1, 2]), t(0.0)); // another route over 1->2
        let mut lifetimes = Vec::new();
        let out = c.remove_link_with(Link::new(n(1), n(2)), t(4.0), &mut |l| lifetimes.push(l));
        assert!(out.contained);
        assert_eq!(lifetimes, vec![SimDuration::from_secs(4.0)]);
        assert!(c.find(n(2), t(4.0)).is_none(), "no path to 2 without 1->2");
        assert!(c.find(n(1), t(4.0)).is_some());
    }

    #[test]
    fn expiry_drops_stale_links_only() {
        let mut c = LinkCache::new(n(0), 64);
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.mark_used(&route(&[0, 1]), t(9.0));
        assert_eq!(c.expire(t(10.0), SimDuration::from_secs(5.0)), 1);
        assert!(c.contains_link(Link::new(n(0), n(1))));
        assert!(!c.contains_link(Link::new(n(1), n(2))));
    }

    #[test]
    fn forwarding_flag_round_trips() {
        let mut c = LinkCache::new(n(0), 64);
        c.insert(route(&[0, 1, 2]), t(0.0));
        c.mark_forwarded(&route(&[9, 1, 2]));
        let out = c.remove_link(Link::new(n(1), n(2)), t(1.0));
        assert!(out.was_used_for_forwarding);
    }

    #[test]
    fn capacity_evicts_lru_link() {
        let mut c = LinkCache::new(n(0), 2);
        c.insert(route(&[0, 1]), t(0.0));
        c.insert(route(&[0, 2]), t(1.0));
        c.mark_used(&route(&[0, 1]), t(2.0));
        c.insert(route(&[0, 3]), t(3.0));
        assert_eq!(c.num_links(), 2);
        assert!(c.contains_link(Link::new(n(0), n(1))), "recently used link kept");
        assert!(!c.contains_link(Link::new(n(0), n(2))), "LRU link evicted");
    }

    #[test]
    fn no_route_to_owner_or_unknown() {
        let mut c = LinkCache::new(n(0), 64);
        c.insert(route(&[0, 1]), t(0.0));
        assert!(c.find(n(0), t(0.0)).is_none());
        assert!(c.find(n(9), t(0.0)).is_none());
    }

    #[test]
    fn bfs_is_deterministic() {
        let mut a = LinkCache::new(n(0), 64);
        let mut b = LinkCache::new(n(0), 64);
        for r in [&[0u16, 1, 3], &[0, 2, 3], &[0, 4, 3]] {
            a.insert(route(r), t(0.0));
            b.insert(route(r), t(0.0));
        }
        assert_eq!(a.find(n(3), t(0.0)), b.find(n(3), t(0.0)));
    }
}
