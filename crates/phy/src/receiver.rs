//! Per-node radio receiver state machine.
//!
//! Tracks overlapping frame arrivals at one node and decides, ns-2 style,
//! which (if any) frame is successfully received:
//!
//! - a frame *locks* the receiver if it is above the RX threshold and the
//!   receiver is neither transmitting nor already locked on a stronger
//!   frame;
//! - a later arrival within the capture ratio of the locked frame corrupts
//!   it (collision); a much stronger one captures the receiver; a much
//!   weaker one is absorbed as noise;
//! - any energy above the carrier-sense threshold keeps the channel busy,
//!   which the MAC polls via [`ReceiverState::busy_until`].
//!
//! # The interference envelope
//!
//! Interference is kept as a lazily-evaluated piecewise-constant envelope
//! instead of a list of discrete arrivals:
//!
//! - noise (everything that never locks) collapses into a single
//!   `noise_until` watermark — the verdict machine never reads noise
//!   *power*, only whether energy is still on the air, so the max end time
//!   is a lossless summary and stays O(1) no matter how many arrivals
//!   overlap;
//! - arrivals the driver chose not to back with queue events sit in a
//!   start-ordered `pending` queue ([`ReceiverState::add_pending`]) and
//!   are folded through the verdict machine by [`ReceiverState::commit`]
//!   the first time the state is consulted at or past their start
//!   boundary (the driver also commits a receiver before queueing each
//!   new arrival, so the queue holds only starts still ahead);
//! - virtual-carrier reservations (MAC NAV) of frames that decode intact
//!   *without* a driver-side decode event accumulate into `nav_until`,
//!   which the driver merges into the MAC before every MAC input.
//!
//! # Boundary keys: why every lazy boundary carries a sequence number
//!
//! Simulated times are integer nanoseconds and the MAC's timing chains all
//! anchor to the same frame boundaries plus round constants, so *exact*
//! time ties between an arrival boundary and an unrelated event are
//! systematic, not measure-zero. An event-queue driver resolves those ties
//! by FIFO scheduling order (a monotone seq per scheduled event). To
//! reproduce its outcomes bit for bit, every lazily-modelled boundary here
//! is keyed by `(time, seq)` where the seq was reserved from the *same*
//! counter at the instant an eager driver would have scheduled the
//! boundary's event:
//!
//! - a pending arrival's start boundary carries `start_seq` (reserved at
//!   transmission-planning time, where the eager design scheduled its
//!   start event);
//! - a held lock's end boundary carries `end_seq` (reserved at the start
//!   boundary, where the eager design scheduled its end event).
//!
//! [`ReceiverState::commit`] takes the dispatch frontier `(now, seq)` of
//! the event currently being delivered and folds exactly the boundaries
//! whose key precedes it — the same set an eager queue would already have
//! dispatched.
//!
//! A test-only eager pair (`arrival_start` / `arrival_end`: fold every
//! boundary at the instant it happens) shares the same verdict machine and
//! serves as the reference that `differential.rs` and the unit tests below
//! replay the lazy protocol against.
//!
//! The state machine is pure: it never schedules events itself. The driver
//! feeds it arrivals and reacts to the returned verdicts, keeping this
//! layer trivially unit-testable.

use std::collections::VecDeque;

use sim_core::{SimDuration, SimTime};

use crate::propagation::{RadioConfig, CAPTURE_RATIO};

/// Identifier of one over-the-air transmission (assigned by the driver).
pub type TxId = u64;

/// Boundary key used by test/driver call sites that are not tied to a
/// specific event-queue position: orders after every real seq at the same
/// instant.
pub const SEQ_MAX: u64 = u64::MAX;

/// What happened when a new arrival hit the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalVerdict {
    /// The receiver locked onto the frame; if nothing corrupts it, the
    /// frame will be delivered at `arrival_end`.
    Locked,
    /// The frame is sensed but cannot be decoded (too weak, receiver busy
    /// transmitting, or lost a capture contest). It still occupies the
    /// carrier.
    Noise,
    /// The frame collided with the currently locked frame: *both* are lost.
    /// The new frame becomes noise; the locked frame stays locked-corrupted
    /// until its scheduled end (its energy still occupies the medium).
    Collision,
}

/// One planned arrival queued for lazy evaluation by
/// [`ReceiverState::commit`].
///
/// The driver constructs these at transmission-planning time, reserving
/// `start_seq` from its event queue so the start boundary keeps the exact
/// tie-break position an eagerly scheduled start event would have had.
#[derive(Debug)]
pub struct PendingArrival<P> {
    pub tx_id: TxId,
    pub power_w: f64,
    pub start: SimTime,
    /// Queue seq reserved for the start boundary at planning time.
    pub start_seq: u64,
    pub end: SimTime,
    /// Virtual-carrier reservation beyond `end` (the MAC frame's NAV),
    /// credited to [`ReceiverState::nav_horizon`] if the frame decodes
    /// intact without a decode event.
    pub nav: SimDuration,
    /// The frame must be handed to the MAC if it decodes intact (data
    /// frames everywhere for promiscuous snooping; control frames at their
    /// addressee).
    pub needs_decode: bool,
    /// The driver backed the start boundary with a real queue event at
    /// `(start, start_seq)` — either a fused arrival-start event
    /// (decodable frames) or a materialized carrier-sense event.
    pub start_evented: bool,
    /// Fault injection destroyed this copy of the frame at planning time:
    /// it still locks and occupies the medium like any arrival, but it can
    /// never decode intact (and a lazily-expired lock credits no NAV).
    pub corrupted: bool,
    /// Deliverable frame, retained only for decodable arrivals
    /// (power ≥ RX threshold).
    pub payload: Option<P>,
}

#[derive(Debug)]
struct LockedFrame<P> {
    tx_id: TxId,
    power_w: f64,
    end: SimTime,
    /// Queue seq reserved for the end boundary at the start boundary
    /// (`SEQ_MAX` until [`ReceiverState::finalize_lock`] patches it).
    end_seq: u64,
    /// Lost a collision or was cut by our own transmitter (half-duplex).
    corrupted: bool,
    nav: SimDuration,
    needs_decode: bool,
    /// A real decode event exists at `(end, end_seq)`; the envelope must
    /// not expire this lock itself.
    evented: bool,
    payload: Option<P>,
}

/// Receiver-side radio state for a single node.
///
/// Generic over the payload type `P` retained for decodable arrivals (the
/// driver's frame handle; `()` for payload-free tests and benchmarks).
#[derive(Debug)]
pub struct ReceiverState<P = ()> {
    cfg: RadioConfig,
    /// While `Some`, the node's own transmitter is active until the given
    /// instant; reception is impossible (half-duplex radio).
    tx_until: Option<SimTime>,
    locked: Option<LockedFrame<P>>,
    /// Watermark: the latest end time of any arrival absorbed as noise.
    noise_until: SimTime,
    /// Accumulated virtual-carrier horizon from lazily-decoded frames.
    nav_until: SimTime,
    /// Future arrivals ordered by (start, start_seq); folded by `commit`.
    pending: VecDeque<PendingArrival<P>>,
    /// Count of `pending` entries with `start_evented == false` — lets
    /// the per-MAC-input materialize pass skip its scan in O(1).
    unsensed: usize,
}

/// `(time, seq)` strictly before `(time, seq)`, lexicographic.
fn key_lt(a: (SimTime, u64), b: (SimTime, u64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl<P> ReceiverState<P> {
    /// Creates an idle receiver for the given radio.
    pub fn new(cfg: RadioConfig) -> Self {
        ReceiverState {
            cfg,
            tx_until: None,
            locked: None,
            noise_until: SimTime::ZERO,
            nav_until: SimTime::ZERO,
            pending: VecDeque::new(),
            unsensed: 0,
        }
    }

    /// The node's own transmitter switches on until `until`. Any frame
    /// being received is corrupted (half-duplex). `seq` is the dispatch
    /// frontier of the event driving the transmission.
    pub fn begin_tx(&mut self, now: SimTime, until: SimTime, seq: u64) {
        debug_assert!(until >= now);
        // Settle boundaries that precede the transmission: they must see
        // the pre-tx state, exactly as an eager driver's event order would
        // have delivered them.
        self.commit(now, seq);
        self.tx_until = Some(until);
        if let Some(locked) = &mut self.locked {
            locked.corrupted = true;
        }
    }

    /// Whether the node's own transmitter is active at `now`.
    pub fn transmitting(&self, now: SimTime) -> bool {
        self.tx_until.is_some_and(|until| until > now)
    }

    /// Reference model, start boundary: a frame begins arriving with the
    /// given received power, ending at `end`, and is folded immediately.
    /// Returns what the receiver did with it. The caller owns both
    /// boundaries, so the envelope takes no responsibility for the frame's
    /// side effects.
    ///
    /// Arrivals below the carrier-sense threshold must be filtered out by
    /// the caller (they are invisible to this node).
    #[cfg(test)]
    pub(crate) fn arrival_start(
        &mut self,
        tx_id: TxId,
        power_w: f64,
        now: SimTime,
        end: SimTime,
    ) -> ArrivalVerdict {
        self.commit(now, SEQ_MAX);
        self.fold(
            PendingArrival {
                tx_id,
                power_w,
                start: now,
                start_seq: SEQ_MAX,
                end,
                nav: SimDuration::ZERO,
                needs_decode: true,
                start_evented: true,
                corrupted: false,
                payload: None,
            },
            true,
        )
    }

    /// Reference model, end boundary: the arrival `tx_id` finished.
    /// Returns `true` if the frame was received intact.
    #[cfg(test)]
    pub(crate) fn arrival_end(&mut self, tx_id: TxId, now: SimTime) -> bool {
        self.finish(tx_id, now, SEQ_MAX).is_some()
    }

    /// Queues a planned arrival for lazy evaluation. Entries fold in
    /// (start, start_seq) order; the driver reserves seqs monotonically, so
    /// a stable insert by start time preserves the full key order.
    pub fn add_pending(&mut self, arrival: PendingArrival<P>) {
        debug_assert!(arrival.end >= arrival.start);
        // Almost always appended at the back (plans arrive in time order up
        // to propagation-delay skew), so scan from the rear for the stable
        // insertion point.
        let mut idx = self.pending.len();
        while idx > 0 && self.pending[idx - 1].start > arrival.start {
            idx -= 1;
        }
        self.unsensed += usize::from(!arrival.start_evented);
        self.pending.insert(idx, arrival);
    }

    /// Folds every boundary whose `(time, seq)` key precedes the dispatch
    /// frontier `(now, seq)` through the verdict machine, in key order:
    /// pending starts fold, and a lazily-held lock expires at its end.
    ///
    /// This is exactly the set of boundaries an eager event-queue driver
    /// would already have dispatched when delivering the event at
    /// `(now, seq)` — including same-instant FIFO order, which integer-ns
    /// MAC timing makes load-bearing, not a corner case.
    pub fn commit(&mut self, now: SimTime, seq: u64) {
        while self.pending.front().is_some_and(|p| !key_lt((now, seq), (p.start, p.start_seq))) {
            let p = self.pending.pop_front().expect("front checked");
            self.unsensed -= usize::from(!p.start_evented);
            self.expire_lock_before(p.start, p.start_seq);
            self.fold(p, false);
        }
        self.expire_lock_before(now, seq);
    }

    /// Settles the start boundary of the pending arrival `tx_id` at its
    /// fused start event (dispatched at `(now, seq)` — the entry's own
    /// reserved key, so the commit folds it last). Returns whether the
    /// frame holds the receiver's lock afterwards.
    ///
    /// Until the driver follows up with [`ReceiverState::finalize_lock`],
    /// the lock's end boundary is unsettled (`end_seq == SEQ_MAX`), which
    /// keeps [`ReceiverState::take_unevented_lock`] from handing it out
    /// mid-boundary — the driver notifies the MAC of the carrier *between*
    /// the two calls, so the end boundary's seq is reserved after any
    /// timers that notification arms.
    pub fn settle_start(&mut self, tx_id: TxId, now: SimTime, seq: u64) -> bool {
        self.commit(now, seq);
        self.locked.as_ref().is_some_and(|l| l.tx_id == tx_id)
    }

    /// Settles the end boundary of the lock `tx_id` took at its start
    /// boundary: `end_seq` (freshly reserved by the driver, at the program
    /// point where the eager design scheduled the end event) pins the end
    /// boundary's tie-break position. Returns `Some(end)` when the driver
    /// must back the decode with a real queue event at `(end, end_seq)` —
    /// because the frame delivers to the MAC (`needs_decode`) or the MAC
    /// is carrier-reactive (`reactive`) and its freeze/recheck transitions
    /// must fire at the boundary instant. Otherwise the envelope expires
    /// the lock lazily at its end key, crediting its NAV.
    pub fn finalize_lock(&mut self, tx_id: TxId, end_seq: u64, reactive: bool) -> Option<SimTime> {
        match &mut self.locked {
            Some(l) if l.tx_id == tx_id => {
                l.end_seq = end_seq;
                if l.needs_decode || reactive {
                    l.evented = true;
                    Some(l.end)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Completes the decode of `tx_id` at its end time: returns the frame
    /// payload if the receiver still holds its lock, uncorrupted, with the
    /// transmitter off.
    pub fn decode(&mut self, tx_id: TxId, now: SimTime, seq: u64) -> Option<P> {
        self.finish(tx_id, now, seq).flatten()
    }

    /// `Some(payload)` if the frame delivered intact (the payload itself is
    /// absent for reference-model arrivals, which never store one), `None`
    /// otherwise.
    fn finish(&mut self, tx_id: TxId, now: SimTime, seq: u64) -> Option<Option<P>> {
        self.commit(now, seq);
        if self.locked.as_ref().is_some_and(|l| l.tx_id == tx_id) {
            let l = self.locked.take().expect("lock checked");
            if !l.corrupted && !self.transmitting(now) {
                return Some(l.payload);
            }
        }
        None
    }

    /// Until when the medium is sensed busy at this node, or `None` if it
    /// is idle at `now`. Accounts for our own transmission, the locked
    /// frame, and all noise energy.
    pub fn busy_until(&mut self, now: SimTime, seq: u64) -> Option<SimTime> {
        self.commit(now, seq);
        let horizon = self.phys_horizon();
        (horizon > now).then_some(horizon)
    }

    /// Whether the medium is sensed busy at `now`.
    pub fn busy(&mut self, now: SimTime) -> bool {
        self.busy_until(now, SEQ_MAX).is_some()
    }

    /// Raw physical-carrier horizon (valid after a `commit`): the latest
    /// end of any energy that has reached this receiver. Monotone, so the
    /// driver can feed it to the MAC's running `max` without filtering.
    pub fn phys_horizon(&self) -> SimTime {
        let mut horizon = self.noise_until;
        if let Some(t) = self.tx_until {
            horizon = horizon.max(t);
        }
        if let Some(l) = &self.locked {
            horizon = horizon.max(l.end);
        }
        horizon
    }

    /// Accumulated virtual-carrier horizon from frames that decoded intact
    /// without a driver decode event (valid after a `commit`).
    pub fn nav_horizon(&self) -> SimTime {
        self.nav_until
    }

    /// Hands responsibility for the current lock's decode back to the
    /// driver: if a lazily-held (non-evented) frame is locked, marks it
    /// evented and returns `(tx_id, end, end_seq)` so the driver can
    /// schedule a real decode event at the lock's reserved end key. Used
    /// when the MAC turns carrier-reactive mid-reception.
    pub fn take_unevented_lock(&mut self) -> Option<(TxId, SimTime, u64)> {
        match &mut self.locked {
            // `end_seq == SEQ_MAX` marks a boundary still being settled by
            // the driver's in-flight start event (see
            // [`ReceiverState::settle_start`]); that arm owns its eventing.
            Some(l) if !l.evented && l.end_seq != SEQ_MAX => {
                l.evented = true;
                Some((l.tx_id, l.end, l.end_seq))
            }
            _ => None,
        }
    }

    /// Collects the `(start, start_seq)` keys of pending arrivals whose
    /// start boundary has no queue event yet, marking them evented. Used
    /// when the MAC turns carrier-reactive with arrivals already in flight
    /// toward it: the driver schedules a carrier-sense event at each
    /// reserved key, restoring the exact eager tie-break position.
    pub fn unsensed_pending_starts_into(&mut self, out: &mut Vec<(SimTime, u64)>) {
        if self.unsensed == 0 {
            return;
        }
        for p in self.pending.iter_mut() {
            if !p.start_evented {
                p.start_evented = true;
                out.push((p.start, p.start_seq));
            }
        }
        self.unsensed = 0;
    }

    /// Removes the pending arrival whose start boundary was reserved at
    /// `start_seq`, returning whether an entry was removed. Called by the
    /// driver at the dispatch instant of that boundary's queue event when a
    /// fault (node down, blackout) suppresses the arrival: the entry must
    /// vanish *before* any commit folds it, so its energy never lands.
    ///
    /// Safe at dispatch time of the event keyed `(start, start_seq)`: no
    /// earlier-keyed commit can have folded the entry (queue order), and
    /// the commit at the entry's own key has not run yet within the arm.
    pub fn suppress_pending(&mut self, start_seq: u64) -> bool {
        if let Some(idx) = self.pending.iter().position(|p| p.start_seq == start_seq) {
            let p = self.pending.remove(idx).expect("index checked");
            self.unsensed -= usize::from(!p.start_evented);
            true
        } else {
            false
        }
    }

    /// Node crash: wipes live radio state (own transmission, held lock,
    /// noise and NAV watermarks) after settling every boundary due at the
    /// crash instant `(now, seq)`. Pending *future* arrivals are kept —
    /// their energy is already in flight toward this node; the driver
    /// gates their delivery on the node being up at decode time.
    pub fn crash_reset(&mut self, now: SimTime, seq: u64) {
        // Settle first so due-but-unfolded entries cannot resurrect
        // pre-crash noise or locks after the wipe.
        self.commit(now, seq);
        self.tx_until = None;
        self.locked = None;
        self.noise_until = SimTime::ZERO;
        self.nav_until = SimTime::ZERO;
    }

    /// Frame payloads still held by the envelope (the in-flight lock plus
    /// queued future arrivals), each with its transmission — conservation
    /// audits treat these as in flight.
    pub fn payloads(&self) -> impl Iterator<Item = (TxId, &P)> {
        let lock = self.locked.iter().filter_map(|l| Some((l.tx_id, l.payload.as_ref()?)));
        lock.chain(self.pending.iter().filter_map(|p| Some((p.tx_id, p.payload.as_ref()?))))
    }

    /// Whether the lock is `tx_id` and no decode event owns its end: the
    /// envelope expires it itself, at the first commit past its end.
    pub fn lazily_held(&self, tx_id: TxId) -> bool {
        self.locked.as_ref().is_some_and(|l| l.tx_id == tx_id && !l.evented)
    }

    /// Number of queued future arrivals (tests and benchmarks).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Expires a lazily-held lock whose end boundary key precedes
    /// `(t, seq)`, crediting its NAV if it decoded intact. Evented locks
    /// are left for their decode event, which owns the end boundary.
    fn expire_lock_before(&mut self, t: SimTime, seq: u64) {
        let expire = self
            .locked
            .as_ref()
            .is_some_and(|l| !l.evented && key_lt((l.end, l.end_seq), (t, seq)));
        if expire {
            let l = self.locked.take().expect("lock checked");
            let intact = !l.corrupted && !self.transmitting(l.end);
            if intact {
                // The side effect an eager driver's `on_receive` would have
                // applied at `l.end` for a non-addressed control frame:
                // extend the virtual carrier. Max-merged, so applying it
                // lazily (before the MAC's next input) is equivalent.
                self.nav_until = self.nav_until.max(l.end + l.nav);
            }
        }
    }

    /// The verdict machine. Noise is a watermark, not a list: its power is
    /// never read, only its latest end.
    ///
    /// `evented` marks locks whose end boundary the caller already owns
    /// (the reference model; lazy folds start un-evented until
    /// [`ReceiverState::finalize_lock`] settles them).
    fn fold(&mut self, p: PendingArrival<P>, evented: bool) -> ArrivalVerdict {
        if self.transmitting(p.start) {
            // Half-duplex: we cannot decode while our transmitter is on.
            self.noise_until = self.noise_until.max(p.end);
            return ArrivalVerdict::Noise;
        }
        match &mut self.locked {
            None => {
                if p.power_w >= self.cfg.rx_threshold_w {
                    self.locked = Some(LockedFrame {
                        tx_id: p.tx_id,
                        power_w: p.power_w,
                        end: p.end,
                        end_seq: SEQ_MAX,
                        corrupted: p.corrupted,
                        nav: p.nav,
                        needs_decode: p.needs_decode,
                        evented,
                        payload: p.payload,
                    });
                    ArrivalVerdict::Locked
                } else {
                    self.noise_until = self.noise_until.max(p.end);
                    ArrivalVerdict::Noise
                }
            }
            Some(locked) => {
                if locked.power_w >= p.power_w * CAPTURE_RATIO {
                    // Locked frame powers through the newcomer.
                    self.noise_until = self.noise_until.max(p.end);
                    ArrivalVerdict::Noise
                } else if p.power_w >= locked.power_w * CAPTURE_RATIO
                    && p.power_w >= self.cfg.rx_threshold_w
                {
                    // Newcomer captures the receiver; old frame lost but its
                    // energy remains on the air until its end.
                    self.noise_until = self.noise_until.max(locked.end);
                    *locked = LockedFrame {
                        tx_id: p.tx_id,
                        power_w: p.power_w,
                        end: p.end,
                        end_seq: SEQ_MAX,
                        corrupted: p.corrupted,
                        nav: p.nav,
                        needs_decode: p.needs_decode,
                        evented,
                        payload: p.payload,
                    };
                    ArrivalVerdict::Locked
                } else {
                    // Comparable powers: both frames are lost.
                    locked.corrupted = true;
                    self.noise_until = self.noise_until.max(p.end);
                    ArrivalVerdict::Collision
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RadioConfig {
        RadioConfig::wavelan()
    }

    fn rx() -> ReceiverState {
        ReceiverState::new(cfg())
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    const STRONG: f64 = 1e-6; // well above RX threshold
    const MEDIUM: f64 = 1e-9; // above RX threshold (3.652e-10)
    const WEAK: f64 = 1e-10; // below RX, above CS threshold

    fn lazy(tx_id: TxId, power_w: f64, start: SimTime, end: SimTime) -> PendingArrival<()> {
        PendingArrival {
            tx_id,
            power_w,
            start,
            start_seq: tx_id, // tests reserve seqs in tx order
            end,
            nav: SimDuration::ZERO,
            needs_decode: false,
            start_evented: false,
            corrupted: false,
            payload: Some(()),
        }
    }

    /// A pending arrival the runner would back with a fused start event
    /// (decodable, delivers on intact decode).
    fn decodable(tx_id: TxId, power_w: f64, start: SimTime, end: SimTime) -> PendingArrival<()> {
        PendingArrival {
            needs_decode: true,
            start_evented: true,
            ..lazy(tx_id, power_w, start, end)
        }
    }

    /// Replays a fused start event: settle the start boundary at its own
    /// key, then settle the lock's end boundary with the given reserved
    /// seq. Returns `Some(end)` if a decode event is owed.
    fn boundary(
        rx: &mut ReceiverState,
        tx_id: TxId,
        start: SimTime,
        seq: u64,
        reactive: bool,
        end_seq: u64,
    ) -> Option<SimTime> {
        if rx.settle_start(tx_id, start, seq) {
            rx.finalize_lock(tx_id, end_seq, reactive)
        } else {
            None
        }
    }

    #[test]
    fn clean_reception_delivers() {
        let mut rx = rx();
        assert_eq!(rx.arrival_start(1, MEDIUM, t(0.0), t(0.001)), ArrivalVerdict::Locked);
        assert!(rx.busy(t(0.0005)));
        assert!(rx.arrival_end(1, t(0.001)));
        assert!(!rx.busy(t(0.001)));
    }

    #[test]
    fn weak_frame_is_noise_not_delivered() {
        let mut rx = rx();
        assert_eq!(rx.arrival_start(1, WEAK, t(0.0), t(0.001)), ArrivalVerdict::Noise);
        assert!(rx.busy(t(0.0005)), "noise still occupies the carrier");
        assert!(!rx.arrival_end(1, t(0.001)));
    }

    #[test]
    fn comparable_overlap_collides_both() {
        let mut rx = rx();
        assert_eq!(rx.arrival_start(1, MEDIUM, t(0.0), t(0.002)), ArrivalVerdict::Locked);
        assert_eq!(
            rx.arrival_start(2, MEDIUM * 2.0, t(0.001), t(0.003)),
            ArrivalVerdict::Collision
        );
        assert!(!rx.arrival_end(1, t(0.002)));
        assert!(!rx.arrival_end(2, t(0.003)));
    }

    #[test]
    fn strong_first_frame_survives_weak_interferer() {
        let mut rx = rx();
        assert_eq!(rx.arrival_start(1, STRONG, t(0.0), t(0.002)), ArrivalVerdict::Locked);
        assert_eq!(rx.arrival_start(2, MEDIUM, t(0.001), t(0.003)), ArrivalVerdict::Noise);
        assert!(rx.arrival_end(1, t(0.002)), "capture should protect the locked frame");
    }

    #[test]
    fn much_stronger_newcomer_captures() {
        let mut rx = rx();
        assert_eq!(rx.arrival_start(1, MEDIUM, t(0.0), t(0.002)), ArrivalVerdict::Locked);
        assert_eq!(rx.arrival_start(2, STRONG, t(0.001), t(0.003)), ArrivalVerdict::Locked);
        assert!(!rx.arrival_end(1, t(0.002)), "captured-away frame must not deliver");
        assert!(rx.arrival_end(2, t(0.003)));
    }

    #[test]
    fn transmitting_blocks_reception() {
        let mut rx = rx();
        rx.begin_tx(t(0.0), t(0.002), SEQ_MAX);
        assert_eq!(rx.arrival_start(1, STRONG, t(0.001), t(0.003)), ArrivalVerdict::Noise);
        assert!(!rx.arrival_end(1, t(0.003)));
    }

    #[test]
    fn starting_tx_corrupts_reception_in_progress() {
        let mut rx = rx();
        assert_eq!(rx.arrival_start(1, MEDIUM, t(0.0), t(0.002)), ArrivalVerdict::Locked);
        rx.begin_tx(t(0.001), t(0.0015), SEQ_MAX);
        assert!(!rx.arrival_end(1, t(0.002)));
    }

    #[test]
    fn busy_until_spans_own_tx_and_noise() {
        let mut rx = rx();
        rx.begin_tx(t(0.0), t(0.001), SEQ_MAX);
        rx.arrival_start(1, WEAK, t(0.0005), t(0.003));
        assert_eq!(rx.busy_until(t(0.0006), SEQ_MAX), Some(t(0.003)));
        assert_eq!(rx.busy_until(t(0.0031), SEQ_MAX), None);
    }

    #[test]
    fn idle_receiver_reports_idle() {
        let mut rx = rx();
        assert!(!rx.busy(t(1.0)));
        assert_eq!(rx.busy_until(t(1.0), SEQ_MAX), None);
    }

    #[test]
    fn capture_keeps_old_energy_on_air() {
        let mut rx = rx();
        rx.arrival_start(1, MEDIUM, t(0.0), t(0.005));
        rx.arrival_start(2, STRONG, t(0.001), t(0.002));
        assert!(rx.arrival_end(2, t(0.002)));
        // Frame 1's energy still occupies the medium until t=5ms.
        assert!(rx.busy(t(0.003)));
        assert!(!rx.busy(t(0.0051)));
    }

    #[test]
    fn unknown_arrival_end_is_ignored() {
        let mut rx = rx();
        assert!(!rx.arrival_end(99, t(0.0)));
    }

    // ------------------------------------------------------------------
    // Envelope (lazy) path
    // ------------------------------------------------------------------

    #[test]
    fn noise_storm_stays_constant_size() {
        // 10k overlapping sub-RX arrivals: the old per-arrival noise Vec
        // grew (and re-scanned) linearly; the watermark stays O(1).
        let mut rx = rx();
        let mut latest = SimTime::ZERO;
        for i in 0..10_000u64 {
            let start = t(i as f64 * 1e-7);
            let end = start + SimDuration::from_secs(1e-3 + (i % 97) as f64 * 1e-6);
            latest = latest.max(end);
            assert_eq!(rx.arrival_start(i, WEAK, start, end), ArrivalVerdict::Noise);
        }
        assert_eq!(rx.pending_len(), 0, "eager arrivals never queue");
        let probe = t(5e-4);
        assert_eq!(rx.busy_until(probe, SEQ_MAX), Some(latest));
        assert!(!rx.busy(latest), "idle once the last interferer ends");
    }

    #[test]
    fn pending_storm_folds_to_same_watermark() {
        let mut rx = rx();
        let mut latest = SimTime::ZERO;
        for i in 0..10_000u64 {
            let start = t(i as f64 * 1e-7);
            let end = start + SimDuration::from_secs(2e-3);
            latest = latest.max(end);
            rx.add_pending(lazy(i, WEAK, start, end));
        }
        assert_eq!(rx.busy_until(t(0.0015), SEQ_MAX), Some(latest));
        assert_eq!(rx.pending_len(), 0, "every due arrival folded");
    }

    #[test]
    fn lazy_and_eager_agree_on_capture_contest() {
        let mut eager = rx();
        let va = eager.arrival_start(1, MEDIUM, t(0.0), t(0.005));
        let vb = eager.arrival_start(2, STRONG, t(0.001), t(0.002));
        let delivered_b = eager.arrival_end(2, t(0.002));
        let delivered_a = eager.arrival_end(1, t(0.005));

        let mut fused = rx();
        fused.add_pending(decodable(1, MEDIUM, t(0.0), t(0.005)));
        fused.add_pending(decodable(2, STRONG, t(0.001), t(0.002)));
        // Each start settles at its own boundary key, exactly like the
        // fused start events; each lock owes a decode event, which then
        // fires at the frame's end.
        assert_eq!(boundary(&mut fused, 1, t(0.0), 1, false, 100), Some(t(0.005)));
        assert_eq!(boundary(&mut fused, 2, t(0.001), 2, false, 101), Some(t(0.002)));
        let d_b = fused.decode(2, t(0.002), 101).is_some();
        let d_a = fused.decode(1, t(0.005), 100).is_some();
        assert_eq!((va, vb), (ArrivalVerdict::Locked, ArrivalVerdict::Locked));
        assert_eq!((d_b, d_a), (delivered_b, delivered_a));
    }

    #[test]
    fn sub_rx_pending_can_still_collide_with_lock() {
        // A sub-RX arrival cannot lock, but its power can sit inside the
        // capture ratio of a weak locked frame and corrupt it — culling it
        // from the event queue must not cull it from the verdict machine.
        let mut rx = rx();
        let weak_lock = 4e-10; // just above RX threshold
        let interferer = 1e-10; // sub-RX but within capture ratio (x10)
        rx.add_pending(decodable(1, weak_lock, t(0.0), t(0.002)));
        rx.add_pending(lazy(2, interferer, t(0.001), t(0.003)));
        boundary(&mut rx, 1, t(0.0), 1, false, SEQ_MAX - 1);
        assert!(rx.decode(1, t(0.002), SEQ_MAX).is_none(), "collided lock must not decode");
    }

    #[test]
    fn intact_lazy_expiry_credits_nav() {
        let mut rx = rx();
        let mut p = lazy(1, MEDIUM, t(0.0), t(0.001));
        p.nav = SimDuration::from_secs(0.004);
        rx.add_pending(p);
        rx.commit(t(0.002), 0);
        assert_eq!(rx.nav_horizon(), t(0.005));
        // The physical carrier itself cleared at the frame end.
        assert_eq!(rx.busy_until(t(0.002), SEQ_MAX), None);
    }

    #[test]
    fn corrupted_lazy_expiry_credits_no_nav() {
        let mut rx = rx();
        let mut p = lazy(1, MEDIUM, t(0.0), t(0.002));
        p.nav = SimDuration::from_secs(0.004);
        rx.add_pending(p);
        rx.add_pending(lazy(2, MEDIUM * 2.0, t(0.001), t(0.003)));
        rx.commit(t(0.004), 0);
        assert_eq!(rx.nav_horizon(), SimTime::ZERO, "collided frame reserves nothing");
    }

    #[test]
    fn begin_tx_settles_due_pending_first() {
        let mut rx = rx();
        rx.add_pending(decodable(1, MEDIUM, t(0.0), t(0.002)));
        // The transmission starts after the arrival: the arrival locks
        // first (pre-tx state), then the tx corrupts it — same order an
        // eager driver's events would have produced.
        rx.begin_tx(t(0.001), t(0.0015), SEQ_MAX);
        assert!(rx.decode(1, t(0.002), SEQ_MAX).is_none());
    }

    #[test]
    fn take_unevented_lock_hands_over_once() {
        let mut rx = rx();
        rx.add_pending(decodable(7, MEDIUM, t(0.0), t(0.002)));
        // Quiet addressee-less lock: no decode owed at the boundary.
        let owed = boundary(&mut rx, 7, t(0.0), 7, false, 42);
        assert!(owed.is_some(), "needs_decode locks always owe a decode event");
        // Re-create the quiet case with a control-bystander entry.
        let mut rx2 = ReceiverState::<()>::new(cfg());
        let mut p = lazy(7, MEDIUM, t(0.0), t(0.002));
        p.start_evented = true;
        rx2.add_pending(p);
        assert_eq!(boundary(&mut rx2, 7, t(0.0), 7, false, 42), None);
        assert!(rx2.lazily_held(7) && !rx2.lazily_held(8));
        assert_eq!(rx2.take_unevented_lock(), Some((7, t(0.002), 42)));
        assert!(!rx2.lazily_held(7), "handed over");
        assert_eq!(rx2.take_unevented_lock(), None, "second call must not re-event");
        // Now evented: the envelope no longer expires it lazily, so the
        // handed-over decode event still finds the lock at its end time.
        assert!(rx2.decode(7, t(0.002), SEQ_MAX).is_some());
    }

    #[test]
    fn unsensed_pending_starts_marked_once() {
        let mut rx = rx();
        let mut a = lazy(1, WEAK, t(0.001), t(0.002));
        a.start_seq = 10;
        let mut b = lazy(2, WEAK, t(0.0015), t(0.003));
        b.start_seq = 11;
        rx.add_pending(a);
        rx.add_pending(b);
        let mut starts = Vec::new();
        rx.unsensed_pending_starts_into(&mut starts);
        assert_eq!(starts, vec![(t(0.001), 10), (t(0.0015), 11)]);
        starts.clear();
        rx.unsensed_pending_starts_into(&mut starts);
        assert!(starts.is_empty());
    }

    #[test]
    fn pending_inserts_keep_start_order() {
        let mut rx = rx();
        rx.add_pending(lazy(1, WEAK, t(0.003), t(0.004)));
        rx.add_pending(lazy(2, WEAK, t(0.001), t(0.005)));
        rx.add_pending(decodable(3, MEDIUM, t(0.002), t(0.006)));
        // Frame 3 must fold after frame 2 (noise) and lock.
        assert!(boundary(&mut rx, 3, t(0.002), 3, false, SEQ_MAX - 1).is_some());
        assert!(rx.decode(3, t(0.006), SEQ_MAX).is_some());
    }

    #[test]
    fn payloads_exposes_lock_and_pending() {
        let mut rx = ReceiverState::<u32>::new(cfg());
        rx.add_pending(PendingArrival {
            tx_id: 1,
            power_w: MEDIUM,
            start: t(0.0),
            start_seq: 1,
            end: t(0.002),
            nav: SimDuration::ZERO,
            needs_decode: true,
            start_evented: true,
            corrupted: false,
            payload: Some(11),
        });
        rx.add_pending(PendingArrival {
            tx_id: 2,
            power_w: WEAK,
            start: t(0.001),
            start_seq: 2,
            end: t(0.003),
            nav: SimDuration::ZERO,
            needs_decode: false,
            start_evented: false,
            corrupted: false,
            payload: None,
        });
        rx.commit(t(0.0005), SEQ_MAX);
        let held: Vec<(TxId, u32)> = rx.payloads().map(|(tx_id, &p)| (tx_id, p)).collect();
        assert_eq!(held, vec![(1, 11)], "locked payload visible, noise holds none");
    }

    /// The runner queues a payload-free entry at every receiver of every
    /// transmission (the frame itself it keeps once): this is the
    /// per-receiver memory of a frame in flight.
    #[test]
    fn pending_entry_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<PendingArrival<()>>(), 56);
    }

    // ------------------------------------------------------------------
    // Fault-injection primitives
    // ------------------------------------------------------------------

    #[test]
    fn corrupted_pending_locks_but_never_decodes() {
        // Plan-time corruption: the frame still locks and occupies the
        // medium, but decode fails.
        let mut rx = rx();
        let mut p = decodable(1, MEDIUM, t(0.0), t(0.002));
        p.corrupted = true;
        rx.add_pending(p);
        assert_eq!(boundary(&mut rx, 1, t(0.0), 1, false, 90), Some(t(0.002)));
        assert!(rx.busy(t(0.001)), "corrupted frame still occupies the carrier");
        assert!(rx.decode(1, t(0.002), 90).is_none());
    }

    #[test]
    fn corrupted_lazy_lock_credits_no_nav() {
        let mut rx = rx();
        let mut p = lazy(1, MEDIUM, t(0.0), t(0.001));
        p.nav = SimDuration::from_secs(0.004);
        p.corrupted = true;
        rx.add_pending(p);
        rx.commit(t(0.002), 0);
        assert_eq!(rx.nav_horizon(), SimTime::ZERO, "corrupted frame reserves nothing");
    }

    #[test]
    fn corrupted_pending_still_wins_capture_contests() {
        // Corruption must not change verdict-machine outcomes: a corrupted
        // strong frame still captures the receiver away from a clean weak
        // one, so *neither* delivers (corruption is invisible to the
        // verdict machine).
        let mut rx = rx();
        rx.add_pending(decodable(1, MEDIUM, t(0.0), t(0.005)));
        let mut p = decodable(2, STRONG, t(0.001), t(0.002));
        p.corrupted = true;
        rx.add_pending(p);
        assert_eq!(boundary(&mut rx, 1, t(0.0), 1, false, 100), Some(t(0.005)));
        assert_eq!(boundary(&mut rx, 2, t(0.001), 2, false, 101), Some(t(0.002)));
        assert!(rx.decode(2, t(0.002), 101).is_none(), "corrupted capture winner");
        assert!(rx.decode(1, t(0.005), 100).is_none(), "captured-away frame");
    }

    #[test]
    fn suppress_pending_removes_entry_before_fold() {
        let mut rx = rx();
        let mut p = lazy(1, MEDIUM, t(0.001), t(0.002));
        p.start_seq = 5;
        rx.add_pending(p);
        assert!(rx.suppress_pending(5));
        assert!(!rx.suppress_pending(5), "already removed");
        assert_eq!(rx.pending_len(), 0);
        assert_eq!(rx.busy_until(t(0.0015), SEQ_MAX), None, "suppressed energy never lands");
        // The unsensed counter stays coherent for later materialize passes.
        let mut starts = Vec::new();
        rx.unsensed_pending_starts_into(&mut starts);
        assert!(starts.is_empty());
    }

    #[test]
    fn crash_reset_wipes_live_state_but_keeps_future_pendings() {
        let mut rx = rx();
        // A lock in progress and noise on the air at crash time...
        rx.arrival_start(1, MEDIUM, t(0.0), t(0.002));
        rx.arrival_start(2, WEAK, t(0.0005), t(0.004));
        // ...plus an arrival still in flight (starts after the crash).
        rx.add_pending(decodable(3, MEDIUM, t(0.003), t(0.005)));
        rx.crash_reset(t(0.001), 10);
        assert_eq!(rx.busy_until(t(0.001), 11), None, "crash clears lock and noise");
        assert_eq!(rx.nav_horizon(), SimTime::ZERO);
        assert_eq!(rx.pending_len(), 1, "in-flight future arrival survives");
        // The surviving arrival proceeds normally on the fresh state.
        assert!(boundary(&mut rx, 3, t(0.003), 20, false, 21).is_some());
        assert!(rx.decode(3, t(0.005), 21).is_some());
    }

    #[test]
    fn crash_reset_settles_due_pendings_before_wiping() {
        // A lazy entry due *before* the crash must fold (and then be wiped)
        // rather than resurrecting pre-crash noise afterwards.
        let mut rx = rx();
        rx.add_pending(lazy(1, WEAK, t(0.0), t(0.010)));
        rx.crash_reset(t(0.001), 10);
        assert_eq!(rx.pending_len(), 0, "due entry folded by the crash commit");
        assert_eq!(rx.busy_until(t(0.002), SEQ_MAX), None, "then wiped with the noise");
    }

    // ------------------------------------------------------------------
    // Same-instant boundary ordering (the load-bearing tie-breaks)
    // ------------------------------------------------------------------

    #[test]
    fn commit_respects_same_instant_seq_order() {
        // An arrival starting at exactly `now` but with a seq *after* the
        // current event must stay invisible: the eager queue would dispatch
        // the current event first.
        let mut rx = rx();
        let mut p = lazy(1, WEAK, t(0.001), t(0.002));
        p.start_seq = 50;
        rx.add_pending(p);
        assert_eq!(rx.busy_until(t(0.001), 49), None, "seq 49 runs before the boundary");
        assert_eq!(rx.busy_until(t(0.001), 51), Some(t(0.002)), "seq 51 runs after");
    }

    #[test]
    fn lock_expiry_respects_same_instant_seq_order() {
        // A lazily-held lock ending at exactly `now`: its NAV credit lands
        // only for frontier seqs after the reserved end boundary.
        let make = |end_seq: u64| {
            let mut rx = ReceiverState::<()>::new(cfg());
            let mut p = lazy(1, MEDIUM, t(0.0), t(0.001));
            p.nav = SimDuration::from_secs(0.004);
            p.start_evented = true;
            rx.add_pending(p);
            assert_eq!(boundary(&mut rx, 1, t(0.0), 1, false, end_seq), None);
            rx
        };
        let mut rx_before = make(70);
        rx_before.commit(t(0.001), 69);
        assert_eq!(rx_before.nav_horizon(), SimTime::ZERO, "boundary not yet dispatched");
        let mut rx_after = make(70);
        rx_after.commit(t(0.001), 71);
        assert_eq!(rx_after.nav_horizon(), t(0.005));
    }

    #[test]
    fn boundary_owes_decode_event_when_mac_reactive() {
        // A control-frame bystander lock (no decode needed) still owes a
        // real decode event when the MAC is carrier-reactive: its
        // freeze/recheck must fire at the boundary instant.
        let mut rx = rx();
        let mut p = lazy(9, MEDIUM, t(0.0), t(0.002));
        p.start_evented = true;
        rx.add_pending(p);
        assert_eq!(boundary(&mut rx, 9, t(0.0), 9, true, 33), Some(t(0.002)));
        // Evented: no lazy expiry — the decode event owns the boundary and
        // still finds the lock intact at the frame's end.
        assert!(rx.decode(9, t(0.002), 33).is_some());
    }
}
