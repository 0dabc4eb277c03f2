//! The AODV routing table: per-destination next hops guarded by
//! destination sequence numbers and active-route lifetimes.
//!
//! This *is* AODV's route cache — stale-route control is built in through
//! sequence numbers (freshness) and route timeouts (expiry), which is why
//! the paper expects protocols "that use caching moderately" to benefit
//! less dramatically from its techniques than DSR does.

use sim_core::{NodeId, SimDuration, SimTime, U64HashMap};

/// One forwarding entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteEntry {
    /// Neighbor to forward through.
    pub next_hop: NodeId,
    /// Hops to the destination.
    pub hop_count: u8,
    /// Destination sequence number (route freshness).
    pub dst_seq: u32,
    /// Entry is usable until this instant (refreshed by use).
    pub expires_at: SimTime,
    /// Usable for forwarding (invalidated entries keep their sequence
    /// number so later errors/replies can be freshness-compared).
    pub valid: bool,
    /// Upstream neighbors that route through us to this destination
    /// (notified by route errors).
    pub precursors: Vec<NodeId>,
}

/// Per-node AODV routing table.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: U64HashMap<NodeId, RouteEntry>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// The entry for `dst`, valid or not.
    pub fn entry(&self, dst: NodeId) -> Option<&RouteEntry> {
        self.entries.get(&dst)
    }

    /// The valid, unexpired entry for `dst`.
    pub fn valid_entry(&self, dst: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.entries.get(&dst).filter(|e| e.valid && e.expires_at > now)
    }

    /// Number of entries (any state).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs or updates the route to `dst` per the RFC's rules: accept
    /// when the new information is fresher (higher sequence number), equal
    /// freshness but fewer hops, or the existing entry is invalid/expired.
    /// Returns whether the table changed.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        dst_seq: u32,
        lifetime: SimDuration,
        now: SimTime,
    ) -> bool {
        let expires_at = now + lifetime;
        match self.entries.get_mut(&dst) {
            Some(e) => {
                let stale = !e.valid || e.expires_at <= now;
                let fresher = dst_seq > e.dst_seq;
                let better = dst_seq == e.dst_seq && hop_count < e.hop_count;
                if fresher || better || stale {
                    e.next_hop = next_hop;
                    e.hop_count = hop_count;
                    e.dst_seq = e.dst_seq.max(dst_seq);
                    e.expires_at = expires_at;
                    e.valid = true;
                    true
                } else {
                    // Same-or-older info: at most refresh the lifetime when
                    // it confirms the current route.
                    if e.next_hop == next_hop && dst_seq == e.dst_seq {
                        e.expires_at = e.expires_at.max(expires_at);
                    }
                    false
                }
            }
            None => {
                self.entries.insert(
                    dst,
                    RouteEntry {
                        next_hop,
                        hop_count,
                        dst_seq,
                        expires_at,
                        valid: true,
                        precursors: Vec::new(),
                    },
                );
                true
            }
        }
    }

    /// Extends the lifetime of `dst`'s entry (route use keeps it alive).
    pub fn refresh(&mut self, dst: NodeId, lifetime: SimDuration, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&dst) {
            if e.valid {
                e.expires_at = e.expires_at.max(now + lifetime);
            }
        }
    }

    /// Adds `precursor` to `dst`'s entry.
    pub fn add_precursor(&mut self, dst: NodeId, precursor: NodeId) {
        if let Some(e) = self.entries.get_mut(&dst) {
            if !e.precursors.contains(&precursor) {
                e.precursors.push(precursor);
            }
        }
    }

    /// Invalidates every valid route whose next hop is `neighbor` (the
    /// link to it broke) and appends the affected `(destination, bumped
    /// sequence number)` pairs for the route error to `unreachable`, in
    /// destination order.
    pub fn invalidate_via_into(&mut self, neighbor: NodeId, unreachable: &mut Vec<(NodeId, u32)>) {
        let from = unreachable.len();
        for (&dst, e) in self.entries.iter_mut() {
            if e.valid && e.next_hop == neighbor {
                e.valid = false;
                e.dst_seq = e.dst_seq.saturating_add(1);
                unreachable.push((dst, e.dst_seq));
            }
        }
        unreachable[from..].sort_unstable_by_key(|&(d, _)| d);
    }

    /// Invalidates the route to `dst` if the error's sequence number is at
    /// least as fresh as ours and our next hop is `via`. Returns whether
    /// the entry was invalidated.
    pub fn invalidate_from_error(&mut self, dst: NodeId, err_seq: u32, via: NodeId) -> bool {
        if let Some(e) = self.entries.get_mut(&dst) {
            if e.valid && e.next_hop == via && err_seq >= e.dst_seq {
                e.valid = false;
                e.dst_seq = err_seq;
                return true;
            }
        }
        false
    }

    /// Marks expired entries invalid (periodic sweep). Returns how many
    /// were expired.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        for e in self.entries.values_mut() {
            if e.valid && e.expires_at <= now {
                e.valid = false;
                n += 1;
            }
        }
        n
    }

    /// Last known sequence number for `dst`, if any entry exists.
    pub fn known_seq(&self, dst: NodeId) -> Option<u32> {
        self.entries.get(&dst).map(|e| e.dst_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn install_and_lookup() {
        let mut tb = RoutingTable::new();
        assert!(tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0)));
        let e = tb.valid_entry(n(5), t(5.0)).expect("valid entry");
        assert_eq!(e.next_hop, n(1));
        assert_eq!(e.hop_count, 3);
        assert!(tb.valid_entry(n(5), t(11.0)).is_none(), "expired by lifetime");
    }

    #[test]
    fn fresher_sequence_wins() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        assert!(tb.update(n(5), n(2), 5, 8, d(10.0), t(1.0)), "fresher seq replaces");
        assert_eq!(tb.valid_entry(n(5), t(2.0)).unwrap().next_hop, n(2));
        assert!(!tb.update(n(5), n(3), 1, 7, d(10.0), t(1.5)), "older seq rejected");
    }

    #[test]
    fn equal_seq_prefers_fewer_hops() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        assert!(tb.update(n(5), n(2), 2, 7, d(10.0), t(1.0)));
        assert!(!tb.update(n(5), n(3), 4, 7, d(10.0), t(1.5)));
        assert_eq!(tb.valid_entry(n(5), t(2.0)).unwrap().next_hop, n(2));
    }

    #[test]
    fn invalidate_via_bumps_sequence() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        tb.update(n(6), n(1), 2, 4, d(10.0), t(0.0));
        tb.update(n(7), n(2), 2, 9, d(10.0), t(0.0));
        // Appended after what the buffer already holds, in destination
        // order.
        let mut unreachable = vec![(n(9), 1)];
        tb.invalidate_via_into(n(1), &mut unreachable);
        assert_eq!(unreachable, vec![(n(9), 1), (n(5), 8), (n(6), 5)]);
        assert!(tb.valid_entry(n(5), t(1.0)).is_none());
        assert!(tb.valid_entry(n(7), t(1.0)).is_some());
        // Sequence survives invalidation for future freshness checks.
        assert_eq!(tb.known_seq(n(5)), Some(8));
    }

    #[test]
    fn error_invalidation_respects_freshness_and_next_hop() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        assert!(!tb.invalidate_from_error(n(5), 6, n(1)), "older error ignored");
        assert!(!tb.invalidate_from_error(n(5), 9, n(2)), "different next hop ignored");
        assert!(tb.invalidate_from_error(n(5), 8, n(1)));
        assert!(tb.valid_entry(n(5), t(1.0)).is_none());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        tb.refresh(n(5), d(10.0), t(8.0));
        assert!(tb.valid_entry(n(5), t(15.0)).is_some());
    }

    #[test]
    fn expire_sweep_invalidates() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(5.0), t(0.0));
        tb.update(n(6), n(2), 3, 7, d(50.0), t(0.0));
        assert_eq!(tb.expire(t(10.0)), 1);
        assert!(tb.valid_entry(n(5), t(10.0)).is_none());
        assert!(tb.valid_entry(n(6), t(10.0)).is_some());
    }

    #[test]
    fn reinstall_after_invalidation() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        tb.invalidate_via_into(n(1), &mut Vec::new());
        // Stale entry accepts replacement even at an older seq (it is
        // invalid), matching the RFC's "route repair" behaviour.
        assert!(tb.update(n(5), n(2), 4, 8, d(10.0), t(1.0)));
        assert!(tb.valid_entry(n(5), t(2.0)).is_some());
    }

    #[test]
    fn precursors_accumulate_uniquely() {
        let mut tb = RoutingTable::new();
        tb.update(n(5), n(1), 3, 7, d(10.0), t(0.0));
        tb.add_precursor(n(5), n(9));
        tb.add_precursor(n(5), n(9));
        tb.add_precursor(n(5), n(8));
        assert_eq!(tb.entry(n(5)).unwrap().precursors, vec![n(9), n(8)]);
    }
}
