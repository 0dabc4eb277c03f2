//! The interface queue between the routing layer and the MAC.
//!
//! Models the ns-2 CMU `PriQueue`: a bounded drop-tail queue in which
//! routing-protocol packets take priority over data packets, so route
//! replies and errors are not stuck behind a burst of CBR traffic.

use std::collections::VecDeque;

use sim_core::{growth, NodeId};

/// Priority class of an outgoing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Routing-protocol packets: served first.
    Control,
    /// Application data.
    Data,
}

/// An entry waiting for the medium.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedPacket<P> {
    /// Network-layer payload.
    pub payload: P,
    /// Next-hop MAC destination (or broadcast).
    pub dst: NodeId,
    /// Network-layer size in bytes (MAC framing is added on top).
    pub bytes: usize,
}

/// Bounded two-class priority queue with drop-tail admission.
///
/// # Example
///
/// ```
/// use mac::{IfQueue, Priority, QueuedPacket};
/// use sim_core::NodeId;
///
/// let mut q = IfQueue::new(2);
/// let pkt = |tag: u8| QueuedPacket { payload: tag, dst: NodeId::new(1), bytes: 64 };
/// assert!(q.push(pkt(1), Priority::Data).is_none());
/// assert!(q.push(pkt(2), Priority::Control).is_none());
/// assert!(q.push(pkt(3), Priority::Data).is_some()); // full: dropped back
/// assert_eq!(q.pop().unwrap().payload, 2); // control jumps the line
/// ```
#[derive(Debug)]
pub struct IfQueue<P> {
    control: VecDeque<QueuedPacket<P>>,
    data: VecDeque<QueuedPacket<P>>,
    capacity: usize,
}

impl<P> IfQueue<P> {
    /// Creates a queue holding at most `capacity` packets across both
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        IfQueue { control: VecDeque::new(), data: VecDeque::new(), capacity }
    }

    /// Enqueues a packet. On overflow the *incoming* packet is rejected and
    /// handed back (drop-tail), letting the caller account for the drop.
    ///
    /// A class's ring doubles as it fills, as `push_back` would, but never
    /// past the queue's capacity, which is all it can ever hold.
    pub fn push(&mut self, pkt: QueuedPacket<P>, prio: Priority) -> Option<QueuedPacket<P>> {
        if self.len() >= self.capacity {
            return Some(pkt);
        }
        let class = match prio {
            Priority::Control => &mut self.control,
            Priority::Data => &mut self.data,
        };
        if class.len() == class.capacity() {
            class.reserve_exact(growth::toward_cap(class.len(), self.capacity));
        }
        class.push_back(pkt);
        None
    }

    /// Dequeues the next packet: control before data, FIFO within a class.
    pub fn pop(&mut self) -> Option<QueuedPacket<P>> {
        self.control.pop_front().or_else(|| self.data.pop_front())
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.control.len() + self.data.len()
    }

    /// Packets currently queued, split by class: `(control, data)`.
    /// Observability gauges report the classes separately because control
    /// backlog and data backlog indicate different pathologies.
    pub fn len_by_class(&self) -> (usize, usize) {
        (self.control.len(), self.data.len())
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.control.is_empty() && self.data.is_empty()
    }

    /// Drains every queued packet (both classes, control first), e.g. when
    /// tearing a node down.
    pub fn drain(&mut self) -> impl Iterator<Item = QueuedPacket<P>> + '_ {
        self.control.drain(..).chain(self.data.drain(..))
    }

    /// Visits every queued packet (both classes, control first) without
    /// removing anything — conservation audits.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedPacket<P>> + '_ {
        self.control.iter().chain(self.data.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(tag: u32) -> QueuedPacket<u32> {
        QueuedPacket { payload: tag, dst: NodeId::new(0), bytes: 10 }
    }

    #[test]
    fn fifo_within_class() {
        let mut q = IfQueue::new(10);
        q.push(pkt(1), Priority::Data);
        q.push(pkt(2), Priority::Data);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn control_preempts_data() {
        let mut q = IfQueue::new(10);
        q.push(pkt(1), Priority::Data);
        q.push(pkt(2), Priority::Control);
        q.push(pkt(3), Priority::Control);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|p| p.payload)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn overflow_rejects_incoming() {
        let mut q = IfQueue::new(2);
        assert!(q.push(pkt(1), Priority::Data).is_none());
        assert!(q.push(pkt(2), Priority::Data).is_none());
        let rejected = q.push(pkt(3), Priority::Control).expect("queue full");
        assert_eq!(rejected.payload, 3);
        assert_eq!(q.len(), 2);
    }

    /// Neither class ever holds room for more packets than the queue
    /// admits, however the load splits between them.
    #[test]
    fn room_stays_within_capacity() {
        for (capacity, control) in [(50, 0), (50, 50), (50, 17), (3, 1), (1, 0)] {
            let mut q = IfQueue::new(capacity);
            for tag in 0..2 * capacity as u32 {
                let prio =
                    if (tag as usize) < control { Priority::Control } else { Priority::Data };
                q.push(pkt(tag), prio);
                assert!(
                    q.control.capacity() <= capacity && q.data.capacity() <= capacity,
                    "capacity {capacity}: room for {} + {}",
                    q.control.capacity(),
                    q.data.capacity()
                );
            }
            assert_eq!(q.len(), capacity);
        }
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = IfQueue::new(5);
        q.push(pkt(1), Priority::Data);
        q.push(pkt(2), Priority::Control);
        let drained: Vec<u32> = q.drain().map(|p| p.payload).collect();
        assert_eq!(drained, vec![2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn iter_visits_without_removing() {
        let mut q = IfQueue::new(5);
        q.push(pkt(1), Priority::Data);
        q.push(pkt(2), Priority::Control);
        let seen: Vec<u32> = q.iter().map(|p| p.payload).collect();
        assert_eq!(seen, vec![2, 1]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn len_by_class_splits_counts() {
        let mut q = IfQueue::new(5);
        q.push(pkt(1), Priority::Data);
        q.push(pkt(2), Priority::Data);
        q.push(pkt(3), Priority::Control);
        assert_eq!(q.len_by_class(), (1, 2));
        q.pop(); // control first
        assert_eq!(q.len_by_class(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = IfQueue::<u32>::new(0);
    }
}
