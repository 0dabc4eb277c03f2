//! The negative cache: a short-term blacklist of recently broken links.
//!
//! From the paper: *"Every node caches the broken links seen recently via
//! the link layer feedback or route error packets. Within a `Nt` interval
//! of creating this entry, if a node is to forward a packet with a source
//! route containing the broken link, (i) the packet is dropped and (ii) a
//! route error packet is generated. In addition, the negative cache is
//! always checked for broken links before adding a new entry in the route
//! cache. Essentially, route cache and negative cache are mutually
//! exclusive with respect to the links present in them."*
//!
//! FIFO replacement; entries expire after a fixed timeout. DSR's
//! negative caches use the paper's [`NEGATIVE_CACHE_TIMEOUT`] (`Nt` =
//! 10 s) and [`NEGATIVE_CACHE_CAPACITY`]: [`NegativeCache::default`].

use std::collections::VecDeque;

use packet::Link;
use sim_core::{SimDuration, SimTime};

use crate::config::{NEGATIVE_CACHE_CAPACITY, NEGATIVE_CACHE_TIMEOUT};

/// FIFO blacklist of recently broken links.
///
/// # Example
///
/// ```
/// use dsr::NegativeCache;
/// use packet::Link;
/// use sim_core::{NodeId, SimTime};
///
/// let mut neg = NegativeCache::default();
/// let link = Link::new(NodeId::new(1), NodeId::new(2));
/// neg.insert(link, SimTime::ZERO);
/// assert!(neg.contains(link, SimTime::from_secs(5.0)));
/// assert!(!neg.contains(link, SimTime::from_secs(11.0))); // Nt = 10 s
/// ```
#[derive(Debug, Clone)]
pub struct NegativeCache {
    capacity: usize,
    timeout: SimDuration,
    entries: VecDeque<(Link, SimTime)>, // (link, expiry instant)
}

impl NegativeCache {
    /// Creates an empty negative cache of `capacity` links, each
    /// blacklisted for `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, timeout: SimDuration) -> Self {
        assert!(capacity > 0, "negative cache capacity must be positive");
        NegativeCache { capacity, timeout, entries: VecDeque::new() }
    }

    /// Blacklists `link` until `now + timeout`. Re-inserting an existing
    /// link refreshes its expiry. On overflow the oldest entry is evicted
    /// (FIFO).
    pub fn insert(&mut self, link: Link, now: SimTime) {
        self.purge(now);
        self.entries.retain(|&(l, _)| l != link);
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((link, now + self.timeout));
    }

    /// Whether `link` is currently blacklisted.
    pub fn contains(&self, link: Link, now: SimTime) -> bool {
        self.entries.iter().any(|&(l, exp)| l == link && exp > now)
    }

    /// The first blacklisted link among `links`, if any.
    pub fn first_blacklisted<'a, I>(&self, links: I, now: SimTime) -> Option<Link>
    where
        I: IntoIterator<Item = Link>,
        Link: 'a,
    {
        links.into_iter().find(|&l| self.contains(l, now))
    }

    /// Number of live entries at `now`.
    pub fn len(&self, now: SimTime) -> usize {
        self.entries.iter().filter(|&&(_, exp)| exp > now).count()
    }

    /// Whether no live entries remain at `now`.
    pub fn is_empty(&self, now: SimTime) -> bool {
        self.len(now) == 0
    }

    /// Drops expired entries (called opportunistically from `insert`; also
    /// safe to call from a periodic tick).
    pub fn purge(&mut self, now: SimTime) {
        self.entries.retain(|&(_, exp)| exp > now);
    }

    /// Every link still blacklisted at `now` (mutual-exclusion audits).
    pub fn live_links(&self, now: SimTime) -> Vec<Link> {
        self.entries.iter().filter(|&&(_, exp)| exp > now).map(|&(l, _)| l).collect()
    }
}

/// The paper's negative cache.
impl Default for NegativeCache {
    fn default() -> Self {
        NegativeCache::new(NEGATIVE_CACHE_CAPACITY, NEGATIVE_CACHE_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::NodeId;

    fn link(a: u16, b: u16) -> Link {
        Link::new(NodeId::new(a), NodeId::new(b))
    }

    fn cache(capacity: usize, timeout_s: f64) -> NegativeCache {
        NegativeCache::new(capacity, SimDuration::from_secs(timeout_s))
    }

    #[test]
    fn entries_expire_after_nt() {
        let mut neg = cache(8, 10.0);
        neg.insert(link(0, 1), SimTime::ZERO);
        assert!(neg.contains(link(0, 1), SimTime::from_secs(9.9)));
        assert!(!neg.contains(link(0, 1), SimTime::from_secs(10.1)));
    }

    #[test]
    fn links_are_directed() {
        let mut neg = cache(8, 10.0);
        neg.insert(link(0, 1), SimTime::ZERO);
        assert!(!neg.contains(link(1, 0), SimTime::from_secs(1.0)));
    }

    #[test]
    fn fifo_eviction_on_overflow() {
        let mut neg = cache(2, 10.0);
        neg.insert(link(0, 1), SimTime::ZERO);
        neg.insert(link(1, 2), SimTime::ZERO);
        neg.insert(link(2, 3), SimTime::ZERO);
        let t = SimTime::from_secs(1.0);
        assert!(!neg.contains(link(0, 1), t), "oldest entry must be evicted");
        assert!(neg.contains(link(1, 2), t));
        assert!(neg.contains(link(2, 3), t));
    }

    #[test]
    fn reinsert_refreshes_expiry() {
        let mut neg = cache(8, 10.0);
        neg.insert(link(0, 1), SimTime::ZERO);
        neg.insert(link(0, 1), SimTime::from_secs(8.0));
        assert!(neg.contains(link(0, 1), SimTime::from_secs(15.0)));
        assert_eq!(neg.len(SimTime::from_secs(15.0)), 1, "no duplicate entries");
    }

    #[test]
    fn first_blacklisted_scans_in_order() {
        let mut neg = cache(8, 10.0);
        neg.insert(link(2, 3), SimTime::ZERO);
        let links = vec![link(0, 1), link(1, 2), link(2, 3), link(3, 4)];
        assert_eq!(neg.first_blacklisted(links, SimTime::from_secs(1.0)), Some(link(2, 3)));
        assert_eq!(neg.first_blacklisted(vec![link(7, 8)], SimTime::from_secs(1.0)), None);
    }

    #[test]
    fn purge_removes_expired() {
        let mut neg = cache(8, 1.0);
        neg.insert(link(0, 1), SimTime::ZERO);
        neg.purge(SimTime::from_secs(2.0));
        assert!(neg.is_empty(SimTime::from_secs(2.0)));
    }

    #[test]
    fn live_links_excludes_expired() {
        let mut neg = cache(8, 10.0);
        neg.insert(link(0, 1), SimTime::ZERO);
        neg.insert(link(1, 2), SimTime::from_secs(5.0));
        assert_eq!(neg.live_links(SimTime::from_secs(12.0)), vec![link(1, 2)]);
    }
}
