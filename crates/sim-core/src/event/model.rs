//! Test-only reference model of [`EventQueue`]: a `Vec` kept sorted by
//! `(time, seq)`, where cancel removes, postpone is remove + reinsert under
//! a fresh seq, and pop takes the front. Obviously right, and the oracle a
//! seeded stream of every queue operation drives in lock-step with the
//! shipped slab, heap and lane.
//!
//! The shipped queue runs twice. In one copy a *carrier* — a sorted run of
//! the caller's own events — is a single queued key, delivered member by
//! member on the strength of [`EventQueue::due_before`] and booked with
//! [`EventQueue::book_delivery`], as the driver's transmission fronts do;
//! in the other every member is an event of its own, which is also how the
//! model holds them. All three must deliver the same events in the same
//! order, and the two shipped copies must end with the same counters: the
//! question may not cost, or save, a single re-key.

use super::{EventId, EventQueue};
use crate::rng::{RngFactory, SimRng};
use crate::time::{SimDuration, SimTime};

/// Pending events as `(at, seq, payload)`, earliest first. An event's
/// handle is its current seq.
#[derive(Debug, Default)]
struct Reference {
    pending: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    popped: u64,
}

impl Reference {
    fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: u32) -> u64 {
        let i = self.pending.partition_point(|&(t, s, _)| (t, s) < (at, seq));
        self.pending.insert(i, (at, seq, payload));
        seq
    }

    fn cancel(&mut self, handle: u64) -> bool {
        let found = self.pending.iter().position(|&(_, s, _)| s == handle);
        found.map(|i| self.pending.remove(i)).is_some()
    }

    fn postpone(&mut self, handle: u64, at: SimTime) -> Option<u64> {
        let i = self.pending.iter().position(|&(t, s, _)| s == handle && at >= t)?;
        let (_, _, payload) = self.pending.remove(i);
        let seq = self.reserve_seq();
        Some(self.schedule_at_seq(at, seq, payload))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        self.popped += 1;
        Some(self.pending.remove(0))
    }

    /// Whether a pending event is due before `(at, seq)`: live events are
    /// all the model has.
    fn due_before(&self, at: SimTime, seq: u64) -> bool {
        self.pending.first().is_some_and(|&(t, s, _)| (t, s) < (at, seq))
    }
}

/// Payloads at and above this name a carrier (by index) in the fronted
/// queue; plain payloads count up from 1.
const CARRIER: u32 = 1 << 31;

/// A sorted run of events that travels under one key in the fronted queue.
struct Carrier {
    members: Vec<(SimTime, u64, u32)>,
    /// The next member to deliver; its key is the one the carrier is filed
    /// under whenever it is queued.
    next: usize,
}

/// The queues, every handle any of them ever issued (so stale ones get
/// picked too: fired, cancelled, spent by a postpone, slot since reused),
/// and the dispatch frontier.
struct Pair {
    seed: u64,
    step: usize,
    rng: SimRng,
    /// Carriers travel as one key each.
    fronted: EventQueue<u32>,
    /// Every carrier member is an event of its own.
    plain: EventQueue<u32>,
    model: Reference,
    /// `(fronted handle, plain handle, model handle, instant last asked for)`.
    handles: Vec<(EventId, EventId, u64, SimTime)>,
    /// Seqs reserved for a later `schedule_at_seq`, with their instants.
    held: Vec<(SimTime, u64)>,
    carriers: Vec<Carrier>,
    /// Members not yet delivered, and carriers with any: what the fronted
    /// queue's `len` is short by, and what it holds instead.
    members_pending: usize,
    carriers_pending: usize,
    now: SimTime,
    payloads: u32,
    queries: [u64; 2],
}

impl Pair {
    fn after(&mut self, max_ns: u64) -> SimTime {
        self.now + SimDuration::from_nanos(self.rng.random_range(1..=max_ns))
    }

    fn payload(&mut self) -> u32 {
        self.payloads += 1;
        self.payloads
    }

    fn reserve(&mut self) -> u64 {
        let seq = self.fronted.reserve_seq();
        assert_eq!(seq, self.plain.reserve_seq(), "{}: reserved seq", self.at());
        assert_eq!(seq, self.model.reserve_seq(), "{}: reserved seq", self.at());
        seq
    }

    fn at(&self) -> String {
        format!("seed {} step {}", self.seed, self.step)
    }

    fn schedule_at_seq(&mut self, at: SimTime, seq: u64, near: bool) {
        let payload = self.payload();
        let file = |queue: &mut EventQueue<u32>| {
            if near {
                queue.schedule_near(at, seq, payload)
            } else {
                queue.schedule_at_seq(at, seq, payload)
            }
        };
        let ids = (file(&mut self.fronted), file(&mut self.plain));
        self.handles.push((ids.0, ids.1, self.model.schedule_at_seq(at, seq, payload), at));
    }

    fn pick(&mut self) -> Option<usize> {
        (!self.handles.is_empty()).then(|| self.rng.random_range(0..self.handles.len()))
    }

    /// Files carrier `c` in the fronted queue under its next member's key.
    fn file_carrier(&mut self, c: usize) {
        let carrier = &self.carriers[c];
        let (at, seq, _) = carrier.members[carrier.next];
        if self.rng.random_bool(0.7) {
            self.fronted.schedule_near(at, seq, CARRIER | c as u32);
        } else {
            self.fronted.schedule_at_seq(at, seq, CARRIER | c as u32);
        }
    }

    /// A burst of boundaries: one key in the fronted queue, one event each
    /// in the plain queue (filed in reservation order, as the driver filed
    /// them before it had fronts) and in the model. Narrow ones are over
    /// before most timers can interleave; wide ones sit among tombstones,
    /// stale keys and each other.
    fn launch_carrier(&mut self) {
        let wide = self.rng.random_bool(0.4);
        let n = self.rng.random_range(1..if wide { 12 } else { 8usize });
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let at = self.after(if wide { 600_000 } else { 2_000 });
            let (seq, payload) = (self.reserve(), self.payload());
            self.plain.schedule_near(at, seq, payload);
            self.model.schedule_at_seq(at, seq, payload);
            members.push((at, seq, payload));
        }
        members.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        self.carriers.push(Carrier { members, next: 0 });
        self.members_pending += n;
        self.carriers_pending += 1;
        self.file_carrier(self.carriers.len() - 1);
    }

    /// One delivery from all three, compared; `None` once they are empty.
    /// A carrier surfacing in the fronted queue stands for its next member
    /// and is returned for the caller to carry on with.
    fn pop_all(&mut self) -> Option<Option<usize>> {
        let expected = self.model.pop();
        assert_eq!(self.plain.pop_with_seq(), expected, "{}: plain pop", self.at());
        let mut fired = self.fronted.pop_with_seq();
        let mut carrier = None;
        if let Some((at, seq, payload)) = fired.filter(|&(.., payload)| payload >= CARRIER) {
            let c = (payload - CARRIER) as usize;
            let member = self.carriers[c].members[self.carriers[c].next];
            assert_eq!((at, seq), (member.0, member.1), "{}: carrier {c}'s key", self.at());
            fired = Some(member);
            carrier = Some(c);
            self.delivered_from(c);
        }
        assert_eq!(fired, expected, "{}: pop", self.at());
        let (at, ..) = fired?;
        assert!(at >= self.now, "{}: time went backwards", self.at());
        self.now = at;
        Some(carrier)
    }

    fn delivered_from(&mut self, c: usize) {
        self.carriers[c].next += 1;
        self.members_pending -= 1;
        if self.carriers[c].next == self.carriers[c].members.len() {
            self.carriers_pending -= 1;
        }
    }

    /// What the run loop does between two looks at anything else: up to
    /// `budget` deliveries. A carrier that surfaces keeps delivering for
    /// as long as the queue says nothing is due before its next member;
    /// when something is, it goes back under that member's key *and the
    /// loop pops at once* — the keys the question examined are the keys
    /// that pop examines in the plain queue. Running out of budget inside
    /// a carrier is the horizon falling inside a front: re-filed unasked.
    fn deliver(&mut self, mut budget: usize) -> bool {
        let mut current: Option<usize> = None;
        while budget > 0 {
            let Some(c) = current else {
                match self.pop_all() {
                    Some(carrier) => current = carrier,
                    None => return false,
                }
                budget -= 1;
                continue;
            };
            let Some(&(at, seq, payload)) = self.carriers[c].members.get(self.carriers[c].next)
            else {
                current = None;
                continue;
            };
            let due = self.fronted.due_before(at, seq);
            assert_eq!(due, self.model.due_before(at, seq), "{}: due before {at}/{seq}", self.at());
            self.queries[usize::from(due)] += 1;
            if due {
                self.file_carrier(c);
                current = None;
                continue;
            }
            self.fronted.book_delivery();
            let expected = Some((at, seq, payload));
            assert_eq!(self.model.pop(), expected, "{}: inline delivery", self.at());
            assert_eq!(self.plain.pop_with_seq(), expected, "{}: plain pop", self.at());
            self.delivered_from(c);
            self.now = at;
            budget -= 1;
        }
        if let Some(c) = current.filter(|&c| self.carriers[c].next < self.carriers[c].members.len())
        {
            self.file_carrier(c);
        }
        true
    }

    fn one_op(&mut self) {
        match self.rng.random_range(0..100u32) {
            0..=19 => {
                let (at, seq) = (self.after(2_000_000), self.reserve());
                self.schedule_at_seq(at, seq, false);
            }
            20..=24 => {
                let (at, seq) = (self.after(50_000), self.reserve());
                self.held.push((at, seq));
            }
            25..=29 => {
                // Reservations whose instant the frontier has reached may
                // no longer be scheduled.
                let now = self.now;
                self.held.retain(|&(at, _)| at > now);
                if !self.held.is_empty() {
                    let i = self.rng.random_range(0..self.held.len());
                    let (at, seq) = self.held.swap_remove(i);
                    let near = self.rng.random_bool(0.5);
                    self.schedule_at_seq(at, seq, near);
                }
            }
            30..=33 => {
                // A burst for the lane: seqs in reservation order, instants
                // and call order shuffled; one far event among the near.
                let n = self.rng.random_range(1..8usize);
                let mut burst: Vec<(SimTime, u64)> = (0..n)
                    .map(|i| (self.after(if i == 5 { 3_000_000 } else { 2_000 }), self.reserve()))
                    .collect();
                for i in (1..burst.len()).rev() {
                    burst.swap(i, self.rng.random_range(0..=i));
                }
                for (at, seq) in burst {
                    self.schedule_at_seq(at, seq, true);
                }
            }
            34..=39 => self.launch_carrier(),
            40..=59 => {
                let Some(i) = self.pick() else { return };
                let (id, plain_id, handle, due) = self.handles[i];
                let at = match self.rng.random_range(0..4u32) {
                    0 => due.max(self.now),
                    1 => self.now,
                    _ => {
                        due.max(self.now)
                            + SimDuration::from_nanos(self.rng.random_range(1..900_000))
                    }
                };
                let moved = self.fronted.postpone(id, at);
                let plain_moved = self.plain.postpone(plain_id, at);
                let expected = self.model.postpone(handle, at);
                assert_eq!(moved.is_some(), expected.is_some(), "{}: postpone to {at}", self.at());
                assert_eq!(
                    plain_moved.is_some(),
                    expected.is_some(),
                    "{}: plain postpone",
                    self.at()
                );
                match (moved, plain_moved, expected) {
                    (Some(id), Some(plain_id), Some(handle)) => {
                        self.handles[i] = (id, plain_id, handle, at)
                    }
                    _ => {
                        // The driver's fallback: cancel, then schedule.
                        let cancelled = self.fronted.cancel(id);
                        assert_eq!(cancelled, self.model.cancel(handle), "{}: fallback", self.at());
                        assert_eq!(
                            cancelled,
                            self.plain.cancel(plain_id),
                            "{}: fallback",
                            self.at()
                        );
                        if cancelled {
                            let seq = self.reserve();
                            self.schedule_at_seq(at, seq, false);
                        }
                    }
                }
            }
            60..=74 => {
                let Some(i) = self.pick() else { return };
                let (id, plain_id, handle, _) = self.handles[i];
                let cancelled = self.model.cancel(handle);
                assert_eq!(self.fronted.cancel(id), cancelled, "{}: cancel", self.at());
                assert_eq!(self.plain.cancel(plain_id), cancelled, "{}: plain cancel", self.at());
            }
            _ => {
                let budget = self.rng.random_range(1..3usize);
                self.deliver(budget);
            }
        }
    }

    fn check(&self) {
        let pending = self.model.pending.len();
        assert_eq!(self.plain.len(), pending, "{}: plain len", self.at());
        assert_eq!(
            self.fronted.len(),
            pending - self.members_pending + self.carriers_pending,
            "{}: len, carriers counted once each",
            self.at()
        );
        assert_eq!(self.fronted.is_empty(), pending == 0, "{}: is_empty", self.at());
        assert_eq!(self.fronted.popped(), self.model.popped, "{}: popped", self.at());
        assert_eq!(self.plain.popped(), self.model.popped, "{}: plain popped", self.at());
    }
}

#[test]
fn queue_matches_the_sorted_vec_model() {
    let (mut postponed, mut rekeyed, mut queries) = (0, 0, [0, 0]);
    for seed in 0..300 {
        let mut pair = Pair {
            seed,
            step: 0,
            rng: RngFactory::new(seed).stream("queue-model", 0),
            fronted: EventQueue::new(),
            plain: EventQueue::new(),
            model: Reference::default(),
            handles: Vec::new(),
            held: Vec::new(),
            carriers: Vec::new(),
            members_pending: 0,
            carriers_pending: 0,
            now: SimTime::ZERO,
            payloads: 0,
            queries: [0, 0],
        };
        for step in 0..800 {
            pair.step = step;
            pair.one_op();
            pair.check();
        }
        // Drain: everything still pending comes out in the model's order.
        pair.step = usize::MAX;
        while pair.deliver(7) {
            pair.check();
        }
        assert!(pair.model.pending.is_empty() && pair.members_pending == 0, "{}", pair.at());
        // Asking cost the fronted queue no re-key the plain one did not pay.
        let counters = |q: &EventQueue<u32>| (q.postponed(), q.rekeyed());
        assert_eq!(counters(&pair.fronted), counters(&pair.plain), "{}: counters", pair.at());
        postponed += pair.fronted.postponed();
        rekeyed += pair.fronted.rekeyed();
        queries = [queries[0] + pair.queries[0], queries[1] + pair.queries[1]];
    }
    // The stream must actually reach the paths it is there for.
    assert!(postponed > 10_000 && rekeyed > 5_000, "{postponed} postpones, {rekeyed} re-keys");
    assert!(queries[0] > 4_000 && queries[1] > 4_000, "due-before answers [no, yes]: {queries:?}");
}
