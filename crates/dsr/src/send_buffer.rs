//! The send buffer: data packets waiting for a route at their source.
//!
//! The paper's model buffers *only at the traffic source* ("Buffering is
//! done only at the source of the traffic session"): 64 packets, dropped
//! after 30 seconds of waiting. DSR and AODV both buffer this way:
//! [`SendBuffer::default`].

use std::collections::VecDeque;

use sim_core::{NodeId, SimDuration, SimTime};

/// Send-buffer capacity at traffic sources (paper: 64 packets).
pub const SEND_BUFFER_CAPACITY: usize = 64;

/// Packets are dropped after waiting this long for a route (paper: 30 s).
pub const SEND_BUFFER_TIMEOUT: SimDuration = SimDuration::from_micros_u64(30_000_000);

/// A data packet awaiting route discovery (no source route yet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingData {
    /// Globally unique packet id.
    pub uid: u64,
    /// Final destination.
    pub dst: NodeId,
    /// Application payload size in bytes.
    pub payload_bytes: usize,
    /// Origination instant (start of the end-to-end delay clock).
    pub sent_at: SimTime,
}

/// Bounded FIFO of packets awaiting routes, with per-packet timeout.
///
/// # Example
///
/// ```
/// use dsr::{SendBuffer, PendingData};
/// use sim_core::{NodeId, SimTime, SimDuration};
///
/// let mut buf = SendBuffer::new(64, SimDuration::from_secs(30.0));
/// let pkt = PendingData {
///     uid: 1, dst: NodeId::new(5), payload_bytes: 512,
///     sent_at: SimTime::ZERO,
/// };
/// assert!(buf.push(pkt, SimTime::ZERO).is_none());
/// assert_eq!(buf.take_for(NodeId::new(5)).len(), 1);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SendBuffer {
    entries: VecDeque<(PendingData, SimTime)>, // (packet, enqueued_at)
    capacity: usize,
    timeout: SimDuration,
}

impl SendBuffer {
    /// Creates a buffer of `capacity` packets with the given wait timeout.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, timeout: SimDuration) -> Self {
        assert!(capacity > 0, "send buffer capacity must be positive");
        SendBuffer { entries: VecDeque::new(), capacity, timeout }
    }

    /// Buffers `pkt`. On overflow the *oldest* packet is evicted and
    /// returned so the caller can account for the drop (matching the ns-2
    /// send buffer, which keeps the freshest traffic).
    pub fn push(&mut self, pkt: PendingData, now: SimTime) -> Option<PendingData> {
        let evicted = if self.entries.len() >= self.capacity {
            self.entries.pop_front().map(|(p, _)| p)
        } else {
            None
        };
        self.entries.push_back((pkt, now));
        evicted
    }

    /// Removes and returns every buffered packet destined for `dst`
    /// (in arrival order) — called when a route to `dst` appears.
    pub fn take_for(&mut self, dst: NodeId) -> Vec<PendingData> {
        let mut taken = Vec::new();
        self.entries.retain(|(p, _)| {
            if p.dst == dst {
                taken.push(p.clone());
                false
            } else {
                true
            }
        });
        taken
    }

    /// Drops packets that waited longer than the timeout, handing each to
    /// `expired` (in arrival order) for accounting.
    pub fn purge_expired(&mut self, now: SimTime, mut expired: impl FnMut(&PendingData)) {
        let timeout = self.timeout;
        self.entries.retain(|(p, at)| {
            let keep = *at + timeout > now;
            if !keep {
                expired(p);
            }
            keep
        });
    }

    /// Whether any buffered packet targets `dst` (drives discovery
    /// retries).
    pub fn has_packets_for(&self, dst: NodeId) -> bool {
        self.entries.iter().any(|(p, _)| p.dst == dst)
    }

    /// Appends the distinct destinations currently waiting for routes to
    /// `dsts`, in the order of their first buffered packets.
    pub fn destinations_into(&self, dsts: &mut Vec<NodeId>) {
        let from = dsts.len();
        for (p, _) in &self.entries {
            if !dsts[from..].contains(&p.dst) {
                dsts.push(p.dst);
            }
        }
    }

    /// The uids of every buffered packet, in arrival order (conservation
    /// audits).
    pub fn uids(&self) -> Vec<u64> {
        self.entries.iter().map(|(p, _)| p.uid).collect()
    }

    /// Buffered packet count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The paper's send buffer.
impl Default for SendBuffer {
    fn default() -> Self {
        SendBuffer::new(SEND_BUFFER_CAPACITY, SEND_BUFFER_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(uid: u64, dst: u16) -> PendingData {
        PendingData { uid, dst: NodeId::new(dst), payload_bytes: 512, sent_at: SimTime::ZERO }
    }

    fn buf(cap: usize, timeout_s: f64) -> SendBuffer {
        SendBuffer::new(cap, SimDuration::from_secs(timeout_s))
    }

    #[test]
    fn take_for_preserves_order_and_filters() {
        let mut b = buf(8, 30.0);
        b.push(pkt(1, 5), SimTime::ZERO);
        b.push(pkt(2, 6), SimTime::ZERO);
        b.push(pkt(3, 5), SimTime::ZERO);
        let taken = b.take_for(NodeId::new(5));
        assert_eq!(taken.iter().map(|p| p.uid).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.len(), 1);
        assert!(b.has_packets_for(NodeId::new(6)));
        assert!(!b.has_packets_for(NodeId::new(5)));
    }

    #[test]
    fn destinations_are_appended_once_each_in_first_packet_order() {
        let mut b = buf(8, 30.0);
        for (uid, dst) in [(1, 6), (2, 5), (3, 6), (4, 7), (5, 5)] {
            b.push(pkt(uid, dst), SimTime::ZERO);
        }
        let mut dsts = vec![NodeId::new(5)];
        b.destinations_into(&mut dsts);
        let ids: Vec<u16> = dsts.iter().map(|d| d.index() as u16).collect();
        assert_eq!(ids, [5, 6, 5, 7], "after what the buffer held");
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut b = buf(2, 30.0);
        assert!(b.push(pkt(1, 5), SimTime::ZERO).is_none());
        assert!(b.push(pkt(2, 5), SimTime::ZERO).is_none());
        let evicted = b.push(pkt(3, 5), SimTime::ZERO).expect("overflow");
        assert_eq!(evicted.uid, 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn purge_drops_only_expired() {
        let mut b = buf(8, 30.0);
        b.push(pkt(1, 5), SimTime::ZERO);
        b.push(pkt(2, 5), SimTime::from_secs(20.0));
        let mut expired = Vec::new();
        b.purge_expired(SimTime::from_secs(31.0), |p| expired.push(p.uid));
        assert_eq!(expired, vec![1]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn empty_buffer_behaves() {
        let mut b = buf(2, 30.0);
        assert!(b.is_empty());
        assert!(b.take_for(NodeId::new(1)).is_empty());
        b.purge_expired(SimTime::from_secs(100.0), |p| panic!("nothing to expire: {p:?}"));
    }
}
