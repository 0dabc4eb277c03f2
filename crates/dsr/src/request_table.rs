//! Route-request state: discovery retry backoff and duplicate suppression.

use std::collections::VecDeque;

use sim_core::{NodeId, SimDuration, U64HashMap};

/// Phase of an in-flight route discovery for one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryPhase {
    /// A TTL-1 (non-propagating) request is out; if it times out, flood.
    NonPropagating,
    /// A network-wide flood is out; retries back off exponentially.
    Flooding,
}

/// Per-target state of an in-flight discovery.
#[derive(Debug, Clone, Copy)]
pub struct Discovery {
    /// Request id carried by the outstanding request.
    pub request_id: u64,
    /// Current phase.
    pub phase: DiscoveryPhase,
    /// How many floods have been sent (drives the backoff).
    pub flood_attempts: u32,
}

/// Tracks the discoveries a node is running plus the `(origin, id)` pairs
/// of requests recently seen (for duplicate suppression when forwarding).
#[derive(Debug)]
pub struct RequestTable {
    next_request_id: u64,
    in_flight: U64HashMap<NodeId, Discovery>,
    seen: VecDeque<(NodeId, u64)>,
    seen_capacity: usize,
}

impl RequestTable {
    /// Creates an empty table remembering up to `seen_capacity` foreign
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if `seen_capacity` is zero.
    pub fn new(seen_capacity: usize) -> Self {
        assert!(seen_capacity > 0, "seen capacity must be positive");
        RequestTable {
            next_request_id: 0,
            in_flight: U64HashMap::default(),
            seen: VecDeque::new(),
            seen_capacity,
        }
    }

    /// Whether a discovery for `target` is outstanding.
    pub fn discovering(&self, target: NodeId) -> bool {
        self.in_flight.contains_key(&target)
    }

    /// Number of discoveries currently outstanding (observability gauge).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// The outstanding discovery for `target`, if any.
    pub fn discovery(&self, target: NodeId) -> Option<&Discovery> {
        self.in_flight.get(&target)
    }

    /// Starts a discovery for `target` and returns its fresh request id.
    /// `nonprop` selects the initial phase.
    ///
    /// # Panics
    ///
    /// Panics if a discovery for `target` is already outstanding.
    pub fn start(&mut self, target: NodeId, nonprop: bool) -> u64 {
        assert!(!self.discovering(target), "discovery for {target} already in flight");
        let id = self.next_request_id;
        self.next_request_id += 1;
        let phase = if nonprop { DiscoveryPhase::NonPropagating } else { DiscoveryPhase::Flooding };
        self.in_flight.insert(
            target,
            Discovery { request_id: id, phase, flood_attempts: u32::from(!nonprop) },
        );
        id
    }

    /// Escalates the discovery for `target` to the next attempt (non-prop
    /// timeout -> first flood, or flood -> flood retry) and returns the new
    /// request id plus the backoff to wait before declaring it timed out.
    ///
    /// # Panics
    ///
    /// Panics if no discovery for `target` is outstanding.
    pub fn escalate(
        &mut self,
        target: NodeId,
        base_period: SimDuration,
        max_period: SimDuration,
    ) -> (u64, SimDuration) {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let disc =
            self.in_flight.get_mut(&target).expect("escalating a discovery that is not in flight");
        disc.request_id = id;
        disc.phase = DiscoveryPhase::Flooding;
        let exponent = disc.flood_attempts.min(16);
        disc.flood_attempts += 1;
        let backoff = base_period.mul_f64(f64::from(1u32 << exponent)).min(max_period);
        (id, backoff)
    }

    /// Ends the discovery for `target` (a route was found or the send
    /// buffer drained). Returns whether one was outstanding.
    pub fn finish(&mut self, target: NodeId) -> bool {
        self.in_flight.remove(&target).is_some()
    }

    /// Duplicate suppression for forwarded requests: returns `true` the
    /// first time `(origin, id)` is seen, `false` on repeats.
    pub fn note_seen(&mut self, origin: NodeId, request_id: u64) -> bool {
        let key = (origin, request_id);
        if self.seen.contains(&key) {
            return false;
        }
        if self.seen.len() >= self.seen_capacity {
            self.seen.pop_front();
        }
        self.seen.push_back(key);
        true
    }
}

impl Default for RequestTable {
    fn default() -> Self {
        RequestTable::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn start_assigns_unique_ids() {
        let mut t = RequestTable::default();
        let a = t.start(n(1), true);
        let b = t.start(n(2), true);
        assert_ne!(a, b);
        assert!(t.discovering(n(1)));
        assert_eq!(t.discovery(n(1)).unwrap().phase, DiscoveryPhase::NonPropagating);
    }

    #[test]
    fn escalation_doubles_backoff_up_to_cap() {
        let mut t = RequestTable::default();
        t.start(n(1), true);
        let base = SimDuration::from_millis(500.0);
        let max = SimDuration::from_secs(10.0);
        let (_, b0) = t.escalate(n(1), base, max);
        let (_, b1) = t.escalate(n(1), base, max);
        let (_, b2) = t.escalate(n(1), base, max);
        assert_eq!(b0, base);
        assert_eq!(b1, base * 2);
        assert_eq!(b2, base * 4);
        for _ in 0..10 {
            let (_, b) = t.escalate(n(1), base, max);
            assert!(b <= max);
        }
        let (_, capped) = t.escalate(n(1), base, max);
        assert_eq!(capped, max);
    }

    #[test]
    fn escalation_moves_to_flooding() {
        let mut t = RequestTable::default();
        t.start(n(1), true);
        t.escalate(n(1), SimDuration::from_millis(500.0), SimDuration::from_secs(10.0));
        assert_eq!(t.discovery(n(1)).unwrap().phase, DiscoveryPhase::Flooding);
    }

    #[test]
    fn finish_clears_state() {
        let mut t = RequestTable::default();
        t.start(n(1), false);
        assert!(t.finish(n(1)));
        assert!(!t.discovering(n(1)));
        assert!(!t.finish(n(1)));
    }

    #[test]
    fn duplicate_suppression() {
        let mut t = RequestTable::default();
        assert!(t.note_seen(n(3), 7));
        assert!(!t.note_seen(n(3), 7));
        assert!(t.note_seen(n(3), 8));
        assert!(t.note_seen(n(4), 7));
    }

    #[test]
    fn seen_cache_is_bounded_fifo() {
        let mut t = RequestTable::new(2);
        t.note_seen(n(1), 1);
        t.note_seen(n(2), 2);
        t.note_seen(n(3), 3); // evicts (1, 1)
        assert!(t.note_seen(n(1), 1), "evicted entry forgotten");
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_start_rejected() {
        let mut t = RequestTable::default();
        t.start(n(1), true);
        t.start(n(1), true);
    }
}
