//! Test-only reference model of [`EventQueue`]: a `Vec` kept sorted by
//! `(time, seq)`, where cancel removes, postpone is remove + reinsert under
//! a fresh seq, and pop takes the front. Obviously right, and the oracle a
//! seeded stream of every queue operation drives in lock-step with the
//! shipped slab, heap and lane.

use rand::Rng;

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
}

/// Both queues, every handle either ever issued (so stale ones get picked
/// too: fired, cancelled, spent by a postpone, slot since reused), and the
/// dispatch frontier.
struct Pair {
    seed: u64,
    step: usize,
    rng: SimRng,
    queue: EventQueue<u32>,
    model: Reference,
    /// `(queue handle, model handle, instant last asked for)`.
    handles: Vec<(EventId, u64, SimTime)>,
    /// Seqs reserved for a later `schedule_at_seq`, with their instants.
    held: Vec<(SimTime, u64)>,
    now: SimTime,
    payloads: u32,
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
        let seq = self.queue.reserve_seq();
        assert_eq!(seq, self.model.reserve_seq(), "{}: reserved seq", self.at());
        seq
    }

    fn at(&self) -> String {
        format!("seed {} step {}", self.seed, self.step)
    }

    fn schedule_at_seq(&mut self, at: SimTime, seq: u64, near: bool) {
        let payload = self.payload();
        let id = if near {
            self.queue.schedule_near(at, seq, payload)
        } else {
            self.queue.schedule_at_seq(at, seq, payload)
        };
        self.handles.push((id, self.model.schedule_at_seq(at, seq, payload), at));
    }

    fn pick(&mut self) -> Option<usize> {
        (!self.handles.is_empty()).then(|| self.rng.random_range(0..self.handles.len()))
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
            30..=39 => {
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
            40..=59 => {
                let Some(i) = self.pick() else { return };
                let (id, handle, due) = self.handles[i];
                let at = match self.rng.random_range(0..4u32) {
                    0 => due.max(self.now),
                    1 => self.now,
                    _ => {
                        due.max(self.now)
                            + SimDuration::from_nanos(self.rng.random_range(1..900_000))
                    }
                };
                let moved = self.queue.postpone(id, at);
                let expected = self.model.postpone(handle, at);
                assert_eq!(moved.is_some(), expected.is_some(), "{}: postpone to {at}", self.at());
                match (moved, expected) {
                    (Some(id), Some(handle)) => self.handles[i] = (id, handle, at),
                    _ => {
                        // The driver's fallback: cancel, then schedule.
                        let cancelled = self.queue.cancel(id);
                        assert_eq!(cancelled, self.model.cancel(handle), "{}: fallback", self.at());
                        if cancelled {
                            let seq = self.reserve();
                            self.schedule_at_seq(at, seq, false);
                        }
                    }
                }
            }
            60..=74 => {
                let Some(i) = self.pick() else { return };
                let (id, handle, _) = self.handles[i];
                assert_eq!(
                    self.queue.cancel(id),
                    self.model.cancel(handle),
                    "{}: cancel",
                    self.at()
                );
            }
            _ => {
                let fired = self.queue.pop_with_seq();
                assert_eq!(fired, self.model.pop(), "{}: pop", self.at());
                if let Some((at, ..)) = fired {
                    assert!(at >= self.now, "{}: time went backwards", self.at());
                    self.now = at;
                }
            }
        }
    }

    fn check(&self) {
        assert_eq!(self.queue.len(), self.model.pending.len(), "{}: len", self.at());
        assert_eq!(self.queue.is_empty(), self.model.pending.is_empty(), "{}: is_empty", self.at());
        assert_eq!(self.queue.popped(), self.model.popped, "{}: popped", self.at());
    }
}

#[test]
fn queue_matches_the_sorted_vec_model() {
    let (mut postponed, mut rekeyed) = (0, 0);
    for seed in 0..300 {
        let mut pair = Pair {
            seed,
            step: 0,
            rng: RngFactory::new(seed).stream("queue-model", 0),
            queue: EventQueue::new(),
            model: Reference::default(),
            handles: Vec::new(),
            held: Vec::new(),
            now: SimTime::ZERO,
            payloads: 0,
        };
        for step in 0..800 {
            pair.step = step;
            pair.one_op();
            pair.check();
        }
        // Drain: everything still pending comes out in the model's order.
        pair.step = usize::MAX;
        loop {
            let fired = pair.queue.pop_with_seq();
            assert_eq!(fired, pair.model.pop(), "{}: drain", pair.at());
            pair.check();
            if fired.is_none() {
                break;
            }
        }
        postponed += pair.queue.postponed();
        rekeyed += pair.queue.rekeyed();
    }
    // The stream must actually reach the paths it is there for.
    assert!(postponed > 10_000 && rekeyed > 5_000, "{postponed} postpones, {rekeyed} re-keys");
}
