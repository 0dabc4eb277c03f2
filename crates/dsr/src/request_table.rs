//! Route-request state: discovery retry backoff and duplicate suppression.
//!
//! DSR and AODV discover routes on the same schedule: a non-propagating
//! (TTL 1) request, then floods whose timeout starts at
//! [`REQUEST_PERIOD`] and doubles per retry up to [`MAX_REQUEST_PERIOD`].

use std::collections::VecDeque;

use sim_core::{NodeId, SimDuration, U64HashMap};

/// How long to wait for a reply to a non-propagating request before
/// flooding (ns-2: 30 ms).
pub const NONPROP_TIMEOUT: SimDuration = SimDuration::from_micros_u64(30_000);

/// Timeout of the first flooded request; doubles per retry (ns-2: 500 ms).
pub const REQUEST_PERIOD: SimDuration = SimDuration::from_micros_u64(500_000);

/// Ceiling on the request retransmission period (ns-2: 10 s).
pub const MAX_REQUEST_PERIOD: SimDuration = SimDuration::from_micros_u64(10_000_000);

/// Uniform jitter applied to broadcasts and cache replies to
/// de-synchronize neighbors (ns-2: 10 ms).
pub const BROADCAST_JITTER: SimDuration = SimDuration::from_micros_u64(10_000);

/// Per-target state of an in-flight discovery.
#[derive(Debug, Clone, Copy)]
pub struct Discovery {
    /// Request id carried by the outstanding request.
    pub request_id: u64,
    /// How many floods have been sent (drives the backoff); zero while
    /// only the non-propagating request is out.
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

    /// Starts a discovery for `target` with a non-propagating request and
    /// returns its fresh request id.
    ///
    /// # Panics
    ///
    /// Panics if a discovery for `target` is already outstanding.
    pub fn start(&mut self, target: NodeId) -> u64 {
        assert!(!self.discovering(target), "discovery for {target} already in flight");
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.in_flight.insert(target, Discovery { request_id: id, flood_attempts: 0 });
        id
    }

    /// Escalates the discovery for `target` to the next attempt (non-prop
    /// timeout -> first flood, or flood -> flood retry) and returns the new
    /// request id plus the backoff to wait before declaring it timed out.
    ///
    /// # Panics
    ///
    /// Panics if no discovery for `target` is outstanding.
    pub fn escalate(&mut self, target: NodeId) -> (u64, SimDuration) {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let disc =
            self.in_flight.get_mut(&target).expect("escalating a discovery that is not in flight");
        disc.request_id = id;
        let exponent = disc.flood_attempts.min(16);
        disc.flood_attempts += 1;
        let backoff = REQUEST_PERIOD.mul_f64(f64::from(1u32 << exponent)).min(MAX_REQUEST_PERIOD);
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
        let a = t.start(n(1));
        let b = t.start(n(2));
        assert_ne!(a, b);
        assert!(t.discovering(n(1)));
        assert_eq!(t.discovery(n(1)).unwrap().flood_attempts, 0, "non-propagating first");
    }

    #[test]
    fn escalation_doubles_backoff_up_to_cap() {
        let mut t = RequestTable::default();
        t.start(n(1));
        let base = SimDuration::from_millis(500.0);
        let max = SimDuration::from_secs(10.0);
        let (_, b0) = t.escalate(n(1));
        let (_, b1) = t.escalate(n(1));
        let (_, b2) = t.escalate(n(1));
        assert_eq!(b0, base);
        assert_eq!(b1, base * 2);
        assert_eq!(b2, base * 4);
        for _ in 0..10 {
            let (_, b) = t.escalate(n(1));
            assert!(b <= max);
        }
        let (_, capped) = t.escalate(n(1));
        assert_eq!(capped, max);
    }

    #[test]
    fn escalation_moves_to_flooding() {
        let mut t = RequestTable::default();
        t.start(n(1));
        t.escalate(n(1));
        assert_eq!(t.discovery(n(1)).unwrap().flood_attempts, 1);
    }

    #[test]
    fn finish_clears_state() {
        let mut t = RequestTable::default();
        t.start(n(1));
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
        t.start(n(1));
        t.start(n(1));
    }
}
