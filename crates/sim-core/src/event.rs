//! A cancellable, deterministic event queue.
//!
//! Events scheduled at the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking by a monotone sequence number), which keeps
//! simulations deterministic regardless of heap internals.
//!
//! Payloads live in a slab of reusable slots; what gets ordered is a small
//! `(time, seq, slot)` key, held in a binary heap or — for the caller's
//! near-future bursts, see [`EventQueue::schedule_near`] — in a sorted run
//! beside it. Every occupied slot has exactly one key in flight and is
//! recycled only when that key surfaces, so cancelling and postponing are
//! one indexed write each and never search:
//!
//! - [`EventQueue::cancel`] drops the payload and leaves the key behind as
//!   a tombstone, discarded when it surfaces. This is the standard
//!   technique for simulators where most timers are cancelled before
//!   firing (MAC retransmission timers, route-request timeouts, ...).
//! - [`EventQueue::postpone`] writes the later `(time, seq)` into the slot
//!   and leaves the now *stale* key where it is. A stale key is never later
//!   than its slot's, so it surfaces first and is re-keyed on the spot:
//!   deliveries come in exactly the order cancel + schedule would give.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

#[cfg(test)]
mod model;

/// A handle identifying a scheduled event, usable to cancel or postpone it.
///
/// Ids are unique within one [`EventQueue`] for the lifetime of the queue:
/// the seq half is never reused, so an id that outlives its event cannot
/// hit whatever occupies the recycled slot.
///
/// Packed to 12 bytes: drivers keep one per armed timer, and this way an
/// `Option<EventId>` or a `(timer, EventId)` map entry is 16 bytes, not 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C, packed(4))]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// What the heap and the lane order: when a slot is due, not what it holds.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Delivery order. Seqs are unique, so the slot never breaks a tie.
    fn due(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.due() == other.due()
    }
}
impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other.due().cmp(&self.due())
    }
}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
enum Slot<E> {
    /// Pending; fires at `(at, seq)`. Its key in flight is equal, or
    /// earlier if the event was postponed since the key was filed.
    Live { at: SimTime, seq: u64, payload: E },
    /// Cancelled; held until its key surfaces.
    Dead,
    /// On the free list, which is threaded through the slots themselves.
    Free { next: u32 },
}

/// End of the free list.
const NO_SLOT: u32 = u32::MAX;

/// Priority queue of timestamped events with O(1) cancellation.
///
/// # Example
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "b");
/// q.schedule(SimTime::from_secs(1.0), "a");
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Keys filed by [`EventQueue::schedule_near`], earliest first.
    lane: VecDeque<Key>,
    slots: Vec<Slot<E>>,
    /// Head of the free list.
    free: u32,
    next_seq: u64,
    live: usize,
    scheduled: u64,
    popped: u64,
    postponed: u64,
    rekeyed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            slots: Vec::new(),
            free: NO_SLOT,
            next_seq: 0,
            live: 0,
            scheduled: 0,
            popped: 0,
            postponed: 0,
            rekeyed: 0,
        }
    }

    /// Schedules `payload` to fire at `at` and returns a cancellation handle.
    ///
    /// Events with equal timestamps fire in scheduling order.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.reserve_seq();
        self.schedule_at_seq(at, seq, payload)
    }

    /// Consumes and returns the next sequence number *without* scheduling
    /// anything.
    ///
    /// Same-instant events fire in seq order, so a reserved seq is a
    /// placeholder in the tie-break order: a consumer that models a
    /// boundary lazily (outside the queue) can reserve its seq at the
    /// moment the eager design would have scheduled it, then either compare
    /// the reserved seq against dispatched events' seqs, or hand the
    /// boundary back to the queue later via [`EventQueue::schedule_at_seq`]
    /// — in both cases the tie-break order is exactly what eager
    /// scheduling would have produced.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `at` under a seq previously obtained from
    /// [`EventQueue::reserve_seq`], pinning its position in the
    /// same-instant FIFO order.
    ///
    /// The caller must ensure `(at, seq)` is still in the future of the
    /// dispatch frontier (i.e. no event with a larger `(time, seq)` key has
    /// been popped) and that each reserved seq is scheduled at most once;
    /// both hold naturally when the seq was reserved for a boundary at
    /// `at` that has not yet been reached.
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: E) -> EventId {
        let key = self.occupy(at, seq, payload);
        self.heap.push(key);
        EventId { seq, slot: key.slot }
    }

    /// [`EventQueue::schedule_at_seq`] for an event the caller expects to
    /// be due before almost everything already queued — one of a burst of
    /// boundaries a propagation delay ahead, say. In the heap such an event
    /// sifts to the root on the way in and off it again on the way out;
    /// here it joins a short sorted run instead, searched from the back,
    /// and [`EventQueue::pop`] takes whichever of the run's front and the
    /// heap's top is due first.
    ///
    /// Purely a cost hint: delivery order is by `(time, seq)` whatever is
    /// filed here. An event that is *not* near costs a shift of every key
    /// in the run that is due after it.
    pub fn schedule_near(&mut self, at: SimTime, seq: u64, payload: E) -> EventId {
        let key = self.occupy(at, seq, payload);
        let mut i = self.lane.len();
        while i > 0 && self.lane[i - 1].due() > key.due() {
            i -= 1;
        }
        self.lane.insert(i, key);
        EventId { seq, slot: key.slot }
    }

    /// Stores a pending event in a free slot and returns the key to file.
    fn occupy(&mut self, at: SimTime, seq: u64, payload: E) -> Key {
        debug_assert!(seq < self.next_seq, "seq must come from reserve_seq");
        let event = Slot::Live { at, seq, payload };
        let slot = if self.free == NO_SLOT {
            let end = u32::try_from(self.slots.len()).ok().filter(|&end| end != NO_SLOT);
            self.slots.push(event);
            end.expect("fewer than 2^32 - 1 events in flight")
        } else {
            let slot = self.free;
            let Slot::Free { next } = std::mem::replace(&mut self.slots[slot as usize], event)
            else {
                unreachable!("the free list only threads free slots");
            };
            self.free = next;
            slot
        };
        self.live += 1;
        self.scheduled += 1;
        Key { at, seq, slot }
    }

    /// Puts a slot whose key has surfaced back on the free list.
    fn vacate(&mut self, slot: u32) -> Slot<E> {
        let next = std::mem::replace(&mut self.free, slot);
        std::mem::replace(&mut self.slots[slot as usize], Slot::Free { next })
    }

    /// The slot `id` names, if its event is still pending.
    fn pending(&mut self, id: EventId) -> Option<&mut Slot<E>> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|slot| matches!(slot, Slot::Live { seq, .. } if *seq == id.seq))
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. Cancelling an id twice is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.pending(id) else { return false };
        *slot = Slot::Dead;
        self.live -= 1;
        true
    }

    /// Moves a pending event to the instant `at`, no earlier than the one
    /// it is due at now, *as if* it had been cancelled and its payload
    /// scheduled afresh: the event takes the next sequence number, so among
    /// same-instant events it now fires last, and the returned handle
    /// replaces `id`, which is spent.
    ///
    /// Returns `None`, consuming no sequence number and changing nothing,
    /// when `id` is no longer pending or `at` is earlier than the event's
    /// current instant; the caller then cancels and schedules.
    ///
    /// Cheaper than cancel + schedule because nothing is filed: the key in
    /// flight goes stale, and [`EventQueue::pop`] re-keys it when it
    /// surfaces — once, however many times the event was postponed
    /// meanwhile.
    pub fn postpone(&mut self, id: EventId, at: SimTime) -> Option<EventId> {
        let next_seq = self.next_seq;
        let Slot::Live { at: due, seq, .. } = self.pending(id)? else { return None };
        if at < *due {
            return None;
        }
        *due = at;
        *seq = next_seq;
        self.next_seq += 1;
        self.postponed += 1;
        Some(EventId { seq: next_seq, slot: id.slot })
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(at, _, e)| (at, e))
    }

    /// Like [`EventQueue::pop`] but also returns the event's sequence
    /// number, so callers running lazy boundaries (see
    /// [`EventQueue::reserve_seq`]) can bound their catch-up work by the
    /// dispatch frontier `(time, seq)`.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let (key, from_lane) = self.surface(None)?;
        self.discard(from_lane);
        let Slot::Live { at, seq, payload } = self.vacate(key.slot) else {
            unreachable!("surface stops at a live slot");
        };
        self.live -= 1;
        self.popped += 1;
        Some((at, seq, payload))
    }

    /// Whether any pending event is due before `(at, seq)` — what a caller
    /// that delivers a sorted run of its own events from *one* queued key
    /// (the driver's transmission fronts) asks before each next member: if
    /// nothing is, [`EventQueue::pop`] would have handed that member over
    /// next had it been queued by itself, and the caller may deliver it
    /// and say so with [`EventQueue::book_delivery`].
    ///
    /// Usually two compares, against the lane's front and the heap's top.
    /// Only when one of those keys sorts earlier is it examined, and then
    /// exactly as `pop` would: a tombstone is discarded, a stale key is
    /// re-filed under its slot's real key, and the answer is taken from
    /// what surfaces next — so the question costs a later `pop` nothing it
    /// would not have done itself, and never reorders anything. `(at,
    /// seq)` must not be a queued key; seqs are unique, so a reserved seq
    /// the caller holds never is.
    pub fn due_before(&mut self, at: SimTime, seq: u64) -> bool {
        self.surface(Some((at, seq))).is_some()
    }

    /// Counts one delivery the caller made itself on the strength of
    /// [`EventQueue::due_before`] answering `false`, so that
    /// [`EventQueue::popped`] stays the number of events delivered,
    /// whichever way they travelled.
    pub fn book_delivery(&mut self) {
        self.popped += 1;
    }

    /// The earliest key in flight and whether it sits in the lane.
    fn earliest(&self) -> Option<(Key, bool)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(&near), Some(top)) if near.due() < top.due() => Some((near, true)),
            (Some(&near), None) => Some((near, true)),
            (_, Some(&top)) => Some((top, false)),
            (None, None) => None,
        }
    }

    /// Removes the earliest key in flight, found by [`EventQueue::earliest`].
    fn discard(&mut self, from_lane: bool) {
        if from_lane {
            self.lane.pop_front();
        } else {
            self.heap.pop();
        }
    }

    /// Clears tombstones and stale keys off the front of the queue until
    /// the earliest key in flight is the key of a pending event, and
    /// returns it, still filed — or `None` once nothing is left, or, given
    /// a `bound`, once the earliest key is not due before it (keys at or
    /// past the bound are left unexamined).
    fn surface(&mut self, bound: Option<(SimTime, u64)>) -> Option<(Key, bool)> {
        loop {
            let (key, from_lane) = self.earliest()?;
            if bound.is_some_and(|bound| key.due() > bound) {
                return None;
            }
            match self.slots[key.slot as usize] {
                Slot::Live { at, seq, .. } if seq != key.seq => {
                    // Stale: the event was postponed after this key was
                    // filed. The slot's key is later and this one is the
                    // queue's minimum, so re-filing reorders nothing.
                    let fresh = Key { at, seq, slot: key.slot };
                    debug_assert!(fresh.due() > key.due(), "a postponed key only moves later");
                    if from_lane {
                        self.lane.pop_front();
                        self.heap.push(fresh);
                    } else if let Some(mut top) = self.heap.peek_mut() {
                        // In place: one sift down, not a pop and a push.
                        *top = fresh;
                    }
                    self.rekeyed += 1;
                }
                Slot::Live { .. } => return Some((key, from_lane)),
                Slot::Dead => {
                    self.discard(from_lane);
                    self.vacate(key.slot);
                }
                Slot::Free { .. } => unreachable!("a key in flight names a held slot"),
            }
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of events delivered over the queue's lifetime: by
    /// [`EventQueue::pop`], or by the caller itself and booked with
    /// [`EventQueue::book_delivery`] (cancelled entries and re-keyed stale
    /// keys are not counted).
    ///
    /// Watchdogs use this to detect event storms: if the count grows
    /// without simulated time advancing, the run is livelocked.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Total number of keys ever filed by a `schedule*` call, including
    /// ones later cancelled but excluding bare [`EventQueue::reserve_seq`]
    /// reservations, postpones and re-keys. A key is not always an event:
    /// a caller that carries a run of its own events under one key (see
    /// [`EventQueue::due_before`]) files once per run and once more each
    /// time the run is interrupted, and owes its ledger the difference —
    /// the driver's `Simulator::events_scheduled` is that sum. The
    /// profiler reports `scheduled - popped` pressure (timers armed but
    /// never fired) alongside dispatch counts.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of successful [`EventQueue::postpone`] calls: each is a
    /// schedule and a tombstone that never happened.
    pub fn postponed(&self) -> u64 {
        self.postponed
    }

    /// Total number of stale keys [`EventQueue::pop`] re-filed — what the
    /// postpones did cost. At most one per postponed event, however often
    /// it moved.
    pub fn rekeyed(&self) -> u64 {
        self.rekeyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { seq: 42, slot: 7 }));
        q.schedule(SimTime::from_secs(1.0), ());
        assert!(!q.cancel(EventId { seq: 42, slot: 0 }));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn stale_id_cannot_hit_a_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        let b = q.schedule(SimTime::from_secs(2.0), "b");
        assert_eq!(a.slot, b.slot, "the slot is reused");
        assert!(!q.cancel(a));
        assert!(q.postpone(a, SimTime::from_secs(3.0)).is_none());
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancelled_slot_is_held_until_its_key_surfaces() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(5.0), "a");
        q.cancel(a);
        // Were the slot reused now, a's tombstone would take b with it.
        let b = q.schedule(SimTime::from_secs(1.0), "b");
        assert_ne!(a.slot, b.slot);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
        let c = q.schedule(SimTime::from_secs(6.0), "c");
        assert!([a.slot, b.slot].contains(&c.slot), "both slots are free again");
    }

    #[test]
    fn len_tracks_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn popped_counts_deliveries_not_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        q.schedule(SimTime::from_secs(3.0), ());
        q.cancel(a);
        assert_eq!(q.popped(), 0);
        q.pop();
        q.pop();
        assert_eq!(q.popped(), 2, "cancelled entry is skipped, not counted");
        assert!(q.pop().is_none());
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn scheduled_counts_every_schedule_call() {
        let mut q = EventQueue::new();
        assert_eq!(q.scheduled(), 0);
        let a = q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        q.cancel(a);
        assert_eq!(q.scheduled(), 2, "cancellation does not rewind the count");
        q.pop();
        assert_eq!(q.scheduled(), 2);
    }

    #[test]
    fn reserved_seq_pins_tie_break_position() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.schedule(t, "a"); // seq 0
        let held = q.reserve_seq(); // seq 1 — boundary modelled lazily
        q.schedule(t, "c"); // seq 2

        // The lazy boundary is handed back to the queue later but fires in
        // its reserved position, exactly as if it had been scheduled
        // eagerly between `a` and `c`.
        q.schedule_at_seq(t, held, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn pop_with_seq_exposes_scheduling_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), "late");
        q.schedule(SimTime::from_secs(1.0), "early");
        let (_, seq, e) = q.pop_with_seq().unwrap();
        assert_eq!((seq, e), (1, "early"));
        let (_, seq, e) = q.pop_with_seq().unwrap();
        assert_eq!((seq, e), (0, "late"));
    }

    #[test]
    fn reservations_do_not_count_as_scheduled() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        let held = q.reserve_seq();
        assert_eq!(q.scheduled(), 1, "a bare reservation is not a schedule");
        q.schedule_at_seq(SimTime::from_secs(1.0), held, ());
        assert_eq!(q.scheduled(), 2);
    }

    #[test]
    fn interleaved_schedule_pop_cancel() {
        let mut q = EventQueue::new();
        let mut fired = Vec::new();
        let a = q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        fired.push(q.pop().unwrap().1);
        assert!(!q.cancel(a)); // already fired
        let c = q.schedule(SimTime::from_secs(3.0), 3);
        q.cancel(c);
        fired.push(q.pop().unwrap().1);
        assert_eq!(fired, vec![1, 2]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn postponed_event_fires_once_at_its_new_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs;
        let a = q.schedule(t(1.0), "a"); // seq 0
        q.schedule(t(2.0), "b"); // seq 1
        q.schedule(t(3.0), "c"); // seq 2
        let a = q.postpone(a, t(3.0)).expect("pending and not earlier"); // seq 3
        assert_eq!(q.len(), 3);
        let fired: Vec<_> = std::iter::from_fn(|| q.pop_with_seq()).collect();
        assert_eq!(fired, vec![(t(2.0), 1, "b"), (t(3.0), 2, "c"), (t(3.0), 3, "a")]);
        assert!(!q.cancel(a), "fired");
        assert_eq!((q.scheduled(), q.popped(), q.postponed(), q.rekeyed()), (3, 3, 1, 1));
    }

    #[test]
    fn equal_instant_postpone_moves_behind_same_instant_peers() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        let a = q.schedule(t, "a");
        q.schedule(t, "b");
        assert!(q.postpone(a, t).is_some());
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["b", "a"], "as cancel + schedule would order them");
    }

    #[test]
    fn earlier_postpone_is_refused_and_reserves_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(2.0), "a");
        assert!(q.postpone(a, SimTime::from_secs(1.0)).is_none());
        assert_eq!(q.reserve_seq(), 1, "the refusal consumed no seq");
        assert!(q.cancel(a), "and left the event as it was");
        assert_eq!(q.postponed(), 0);
    }

    #[test]
    fn postpone_spends_the_old_id() {
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::from_secs(1.0), ());
        let new = q.postpone(old, SimTime::from_secs(2.0)).unwrap();
        assert!(!q.cancel(old));
        assert!(q.postpone(old, SimTime::from_secs(3.0)).is_none());
        assert!(q.cancel(new));
        assert!(q.pop().is_none(), "the stale key died as a tombstone");
        assert_eq!(q.rekeyed(), 0);
    }

    #[test]
    fn many_postpones_cost_one_rekey() {
        let mut q = EventQueue::new();
        let mut id = q.schedule(SimTime::from_secs(1.0), ());
        for s in 2..10 {
            id = q.postpone(id, SimTime::from_secs(s as f64)).unwrap();
        }
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(9.0));
        assert_eq!((q.postponed(), q.rekeyed(), q.popped(), q.scheduled()), (8, 1, 1, 1));
    }

    #[test]
    fn near_lane_is_only_a_hint() {
        // Shuffled instants, and far events in the lane beside near ones in
        // the heap: order is by (time, seq) all the same.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos;
        for (i, at) in [50u64, 10, 30, 900, 10, 70].into_iter().enumerate() {
            let seq = q.reserve_seq();
            if i % 3 == 2 {
                q.schedule_at_seq(t(at), seq, (at, seq));
            } else {
                q.schedule_near(t(at), seq, (at, seq));
            }
        }
        q.schedule(t(5), (5, 6));
        assert_eq!(q.len(), 7);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![(5, 6), (10, 1), (10, 4), (30, 2), (50, 0), (70, 5), (900, 3)]);
        assert_eq!(q.scheduled(), 7);
    }

    #[test]
    fn lane_events_cancel_and_postpone_like_any_other() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos;
        let (s0, s1, s2) = (q.reserve_seq(), q.reserve_seq(), q.reserve_seq());
        let a = q.schedule_near(t(10), s0, "a");
        let b = q.schedule_near(t(20), s1, "b");
        q.schedule_near(t(30), s2, "c");
        assert!(q.cancel(a));
        assert!(q.postpone(b, t(40)).is_some());
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["c", "b"]);
        assert_eq!(q.rekeyed(), 1);
    }
}
