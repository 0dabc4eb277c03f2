//! The IEEE 802.11 DCF state machine.
//!
//! One [`Dcf`] instance per node. The machine is *pure*: every input
//! (enqueue, frame reception, timer expiry, carrier update) returns a list
//! of [`MacCommand`]s for the simulation driver to execute — transmit a
//! frame, (re)arm or cancel a timer, deliver a payload upward, or report a
//! transmission failure. This keeps the protocol fully unit-testable
//! without a scheduler and makes all MAC state explicit.
//!
//! Modelled behaviour (matching the ns-2 CMU MAC the paper used):
//!
//! - physical carrier sense (driver reports channel-busy horizons) plus
//!   virtual carrier sense (NAV from overheard duration fields);
//! - DIFS + slotted exponential backoff, frozen while the medium is busy;
//! - RTS/CTS/DATA/ACK for every unicast, plain DATA for broadcast;
//! - retry limits with **link-layer failure feedback** ([`MacCommand::TxFailed`]),
//!   the signal DSR route maintenance is built on;
//! - SIFS-spaced responses (CTS, ACK) that preempt ongoing contention;
//! - duplicate suppression by `(src, seq)` so MAC-level retries do not
//!   deliver twice;
//! - a bounded control-first interface queue ([`IfQueue`]).
//!
//! Simplifications (documented deviations from the full standard): no EIFS
//! after corrupted receptions, no fragmentation, and a fresh packet facing
//! an idle medium transmits after DIFS without a random backoff draw (the
//! standard's "immediate access" case — collisions between synchronized
//! fresh packets are resolved by the retry backoff).

use std::collections::VecDeque;

use sim_core::{NodeId, SimDuration, SimRng, SimTime};

use crate::config::{
    ack_duration, ack_timeout, cts_duration, cts_timeout, frame_duration, MacConfig, ACK_BYTES,
    CTS_BYTES, CW_MAX, CW_MIN, DATA_HEADER_BYTES, DIFS, LONG_RETRY_LIMIT, QUEUE_CAPACITY,
    RTS_BYTES, SHORT_RETRY_LIMIT, SIFS, SLOT,
};
use crate::frame::{FrameKind, MacFrame};
use crate::queue::{IfQueue, Priority, QueuedPacket};

/// Timers the MAC asks the driver to run. At most one timer per kind is
/// armed at a time; `SetTimer` replaces any pending timer of the same kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimer {
    /// Re-poll the channel when the known busy horizon passes.
    Recheck,
    /// DIFS + backoff countdown complete.
    Defer,
    /// Send the head of the response queue (CTS/ACK) after SIFS.
    SifsResponse,
    /// Send DATA a SIFS after receiving CTS.
    SifsData,
    /// CTS did not arrive in time.
    CtsTimeout,
    /// ACK did not arrive in time.
    AckTimeout,
    /// Our own transmission's last bit has left the antenna.
    TxEnd,
}

impl MacTimer {
    /// Number of timer kinds — the driver keeps a fixed per-node array of
    /// pending-timer slots indexed by [`MacTimer::index`] instead of a
    /// hash map (timers are armed/cancelled tens of millions of times per
    /// campaign).
    pub const KINDS: usize = 7;

    /// Dense index of this timer kind, in `0..KINDS`.
    pub fn index(self) -> usize {
        match self {
            MacTimer::Recheck => 0,
            MacTimer::Defer => 1,
            MacTimer::SifsResponse => 2,
            MacTimer::SifsData => 3,
            MacTimer::CtsTimeout => 4,
            MacTimer::AckTimeout => 5,
            MacTimer::TxEnd => 6,
        }
    }
}

/// Effects the driver must apply after feeding the MAC an input.
#[derive(Debug, Clone, PartialEq)]
pub enum MacCommand<P> {
    /// Put `frame` on the air for `duration`.
    StartTx {
        /// The frame to transmit.
        frame: MacFrame<P>,
        /// Airtime of the frame.
        duration: SimDuration,
    },
    /// Arm (or re-arm) `timer` to fire at `at`.
    SetTimer {
        /// Which timer.
        timer: MacTimer,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Disarm `timer` if pending.
    CancelTimer {
        /// Which timer.
        timer: MacTimer,
    },
    /// Hand a received payload to the routing layer.
    Deliver {
        /// MAC-level transmitter (the previous hop).
        from: NodeId,
        /// The network-layer packet.
        payload: P,
    },
    /// Promiscuous tap: a data frame addressed to someone else was decoded.
    /// Always the last command of its input. The frame is the one that
    /// input was fed, so the driver hands the routing layer its payload
    /// from where it keeps the frame: a bystander copies nothing.
    Snoop {
        /// MAC-level transmitter of the overheard frame.
        from: NodeId,
    },
    /// Link-layer failure feedback: `payload` could not be delivered to
    /// `dst` within the retry limits. DSR treats this as a broken link.
    TxFailed {
        /// The undeliverable packet, returned to the routing layer.
        payload: P,
        /// The unreachable next hop.
        dst: NodeId,
    },
    /// A unicast exchange completed (ACK received).
    TxOk {
        /// The next hop that acknowledged.
        dst: NodeId,
    },
    /// The interface queue was full; the packet was dropped on admission.
    QueueDrop {
        /// The rejected packet.
        payload: P,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MainState {
    /// Nothing to send.
    Idle,
    /// Have a packet; waiting for the medium to go idle.
    WaitIdle,
    /// DIFS + backoff countdown running (`Defer` timer armed).
    Deferring,
    /// Transmitting RTS / DATA / broadcast DATA (TxEnd armed).
    TxRts,
    TxData,
    TxBroadcast,
    /// Awaiting CTS / ACK (timeout armed).
    WaitCts,
    WaitAck,
    /// CTS received; SIFS gap before DATA (`SifsData` armed).
    SifsGap,
}

/// How many recently received `(src, seq)` pairs to remember for duplicate
/// suppression. `recent_rx` evicts its oldest pair before it appends a new
/// one, so its ring never grows past this many slots.
const DEDUP_CACHE: usize = 64;

/// Per-node IEEE 802.11 DCF MAC entity.
pub struct Dcf<P> {
    node: NodeId,
    queue: IfQueue<P>,
    state: MainState,
    /// Packet currently in service (popped from the queue).
    current: Option<QueuedPacket<P>>,
    remaining_slots: u32,
    cw: u32,
    short_retries: u32,
    long_retries: u32,
    defer_started: SimTime,
    /// Physical-carrier busy horizon last reported by the driver.
    phys_busy_until: SimTime,
    /// Virtual-carrier (NAV) horizon from overheard duration fields.
    nav_until: SimTime,
    /// Our own transmitter is on until this instant.
    radio_busy_until: SimTime,
    /// Pending SIFS-spaced responses: `(send_at, frame)`.
    responses: VecDeque<(SimTime, MacFrame<P>)>,
    response_timer_armed: bool,
    /// Whether the transmission in flight is a response (CTS/ACK) rather
    /// than part of the main exchange.
    responding: bool,
    seq_counter: u64,
    recent_rx: VecDeque<(NodeId, u64)>,
    rng: SimRng,
}

impl<P> std::fmt::Debug for Dcf<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dcf")
            .field("node", &self.node)
            .field("state", &self.state)
            .field("queued", &self.queue.len())
            .field("cw", &self.cw)
            .finish()
    }
}

impl<P: Clone> Dcf<P> {
    /// Creates the MAC entity for `node`. `rng` drives backoff draws and
    /// should come from a per-node stream (see `sim_core::RngFactory`).
    /// [`MacConfig`] holds no setting: the 802.11 timing is the constants
    /// of [`crate::config`].
    pub fn new(node: NodeId, _: MacConfig, rng: SimRng) -> Self {
        Dcf {
            cw: CW_MIN,
            node,
            queue: IfQueue::new(QUEUE_CAPACITY),
            state: MainState::Idle,
            current: None,
            remaining_slots: 0,
            short_retries: 0,
            long_retries: 0,
            defer_started: SimTime::ZERO,
            phys_busy_until: SimTime::ZERO,
            nav_until: SimTime::ZERO,
            radio_busy_until: SimTime::ZERO,
            responses: VecDeque::new(),
            response_timer_armed: false,
            responding: false,
            seq_counter: 0,
            recent_rx: VecDeque::new(),
            rng,
        }
    }

    /// This MAC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Packets waiting in the interface queue (excluding the one in
    /// service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Interface-queue depth split by priority class, `(control, data)`,
    /// excluding the packet in service — the sampler's per-layer gauge.
    pub fn queue_depths(&self) -> (usize, usize) {
        self.queue.len_by_class()
    }

    /// Whether the MAC has nothing in service and nothing queued.
    pub fn is_idle(&self) -> bool {
        self.state == MainState::Idle && self.current.is_none() && self.queue.is_empty()
    }

    /// Every network-layer payload this MAC still holds: the packet in
    /// service, the interface queue, and any payload-bearing pending
    /// response frames. Conservation audits count these as "in flight",
    /// not lost.
    pub fn pending_payloads(&self) -> impl Iterator<Item = &P> + '_ {
        self.current
            .iter()
            .map(|q| &q.payload)
            .chain(self.queue.iter().map(|q| &q.payload))
            .chain(self.responses.iter().filter_map(|(_, f)| f.payload.as_ref()))
    }

    /// Hard-reset the MAC after a fault-injected crash: every held payload
    /// (packet in service, interface queue, payload-bearing pending
    /// responses) is drained into `dropped` so the driver can account for
    /// it, and the protocol state machine returns to power-on defaults.
    ///
    /// The transmit sequence counter and the backoff RNG are deliberately
    /// *kept*: sequence numbers must stay unique across the reboot so
    /// post-revival frames are not mistaken for duplicates of pre-crash
    /// ones, and the RNG keeps its named-stream determinism. `recent_rx`
    /// is cleared — a rebooted radio forgets its dedup window, and the
    /// worst case is a benign duplicate delivery.
    pub fn reset_into(&mut self, dropped: &mut Vec<P>) {
        if let Some(q) = self.current.take() {
            dropped.push(q.payload);
        }
        while let Some(q) = self.queue.pop() {
            dropped.push(q.payload);
        }
        dropped.extend(self.responses.drain(..).filter_map(|(_, f)| f.payload));
        self.state = MainState::Idle;
        self.remaining_slots = 0;
        self.cw = CW_MIN;
        self.short_retries = 0;
        self.long_retries = 0;
        self.defer_started = SimTime::ZERO;
        self.phys_busy_until = SimTime::ZERO;
        self.nav_until = SimTime::ZERO;
        self.radio_busy_until = SimTime::ZERO;
        self.response_timer_armed = false;
        self.responding = false;
        self.recent_rx.clear();
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// The routing layer hands down a packet of `bytes` network-layer
    /// bytes for next hop `dst` (or broadcast).
    ///
    /// Every input appends its commands to a caller-owned buffer: the
    /// driver feeds the MAC on the hottest event paths, and pooling the
    /// buffers saves one heap allocation per MAC input (hundreds of
    /// millions per campaign).
    pub fn enqueue_into(
        &mut self,
        payload: P,
        dst: NodeId,
        bytes: usize,
        prio: Priority,
        now: SimTime,
        cmds: &mut Vec<MacCommand<P>>,
    ) {
        debug_assert!(dst != self.node, "MAC asked to transmit to itself");
        if let Some(rejected) = self.queue.push(QueuedPacket { payload, dst, bytes }, prio) {
            cmds.push(MacCommand::QueueDrop { payload: rejected.payload });
            return;
        }
        if self.state == MainState::Idle {
            self.start_service(now, cmds);
        }
    }

    /// The driver reports the physical carrier is busy until `busy_until`
    /// (from the PHY receiver state after an arrival started).
    pub fn on_channel_busy_into(
        &mut self,
        now: SimTime,
        busy_until: SimTime,
        cmds: &mut Vec<MacCommand<P>>,
    ) {
        self.phys_busy_until = self.phys_busy_until.max(busy_until);
        if self.state == MainState::Deferring {
            self.freeze_backoff(now, cmds);
            self.wait_for_idle(now, cmds);
        } else if self.state == MainState::WaitIdle {
            // Extend the recheck horizon.
            self.wait_for_idle(now, cmds);
        }
    }

    /// Quietly folds externally-tracked carrier state into the MAC's
    /// horizons without triggering any state transition or command.
    ///
    /// Both horizons are max-merged, exactly like the updates
    /// [`Dcf::on_channel_busy_into`] and [`Dcf::on_receive_into`] apply, so
    /// the driver may deliver them late (batched) as long as it does so
    /// before any input that *reads* them. While the MAC is in a
    /// carrier-reactive state (see [`Dcf::carrier_reactive`]) quiet merging
    /// is not enough — the driver must deliver real busy notifications so
    /// the freeze/recheck transitions fire.
    pub fn observe_carrier(&mut self, phys_until: SimTime, nav_until: SimTime) {
        self.phys_busy_until = self.phys_busy_until.max(phys_until);
        self.nav_until = self.nav_until.max(nav_until);
    }

    /// Whether the MAC currently *reacts* to carrier transitions (backoff
    /// countdown that must freeze, or an idle-wait whose recheck horizon
    /// must extend), as opposed to merely reading the horizons the next
    /// time it consults its private `busy_until`.
    pub fn carrier_reactive(&self) -> bool {
        matches!(self.state, MainState::Deferring | MainState::WaitIdle)
    }

    /// An intact frame arrived at our radio.
    pub fn on_receive_into(
        &mut self,
        frame: MacFrame<P>,
        now: SimTime,
        cmds: &mut Vec<MacCommand<P>>,
    ) {
        if frame.addressed_to(self.node) {
            self.receive_addressed(frame, now, cmds);
        } else {
            self.overhear(&frame, now, cmds);
        }
    }

    /// [`Dcf::on_receive_into`] for a frame the driver keeps for all the
    /// receivers of its transmission. Only the addressee needs the frame
    /// (and its payload) by value, and copies it; a bystander reads the
    /// kind and the duration field.
    pub fn on_receive_ref_into(
        &mut self,
        frame: &MacFrame<P>,
        now: SimTime,
        cmds: &mut Vec<MacCommand<P>>,
    ) {
        if frame.addressed_to(self.node) {
            self.receive_addressed(frame.clone(), now, cmds);
        } else {
            self.overhear(frame, now, cmds);
        }
    }

    fn receive_addressed(
        &mut self,
        frame: MacFrame<P>,
        now: SimTime,
        cmds: &mut Vec<MacCommand<P>>,
    ) {
        match frame.kind {
            FrameKind::Data => self.receive_data(frame, now, cmds),
            FrameKind::Rts => self.receive_rts(frame, now, cmds),
            FrameKind::Cts => self.receive_cts(frame, now, cmds),
            FrameKind::Ack => self.receive_ack(frame, now, cmds),
        }
    }

    /// A frame addressed to someone else was decoded.
    fn overhear(&mut self, frame: &MacFrame<P>, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        // Virtual carrier sense; `frame.nav` reserves the medium beyond
        // the frame's own end (which is `now`).
        self.nav_until = self.nav_until.max(now + frame.nav);
        if self.state == MainState::Deferring {
            self.freeze_backoff(now, cmds);
            self.wait_for_idle(now, cmds);
        } else if self.state == MainState::WaitIdle {
            self.wait_for_idle(now, cmds);
        }
        if frame.kind == FrameKind::Data {
            cmds.push(MacCommand::Snoop { from: frame.src });
        }
    }

    /// A previously armed timer fired.
    pub fn on_timer_into(&mut self, timer: MacTimer, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        match timer {
            MacTimer::Recheck => {
                if self.state == MainState::WaitIdle {
                    self.wait_for_idle(now, cmds);
                }
            }
            MacTimer::Defer => self.defer_expired(now, cmds),
            MacTimer::SifsResponse => self.send_response(now, cmds),
            MacTimer::SifsData => self.sifs_gap_expired(now, cmds),
            MacTimer::CtsTimeout => self.cts_timed_out(now, cmds),
            MacTimer::AckTimeout => self.ack_timed_out(now, cmds),
            MacTimer::TxEnd => self.tx_ended(now, cmds),
        }
    }

    // ------------------------------------------------------------------
    // Contention
    // ------------------------------------------------------------------

    /// Begin serving the next queued packet, if any.
    fn start_service(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.current.is_none() {
            match self.queue.pop() {
                Some(pkt) => {
                    self.current = Some(pkt);
                    self.short_retries = 0;
                    self.long_retries = 0;
                    self.cw = CW_MIN;
                    // Immediate access: a fresh packet facing an idle medium
                    // waits only DIFS. If the medium is busy it will draw a
                    // full backoff when contention resumes.
                    self.remaining_slots =
                        if self.busy_until(now).is_none() { 0 } else { self.draw_slots() };
                }
                None => {
                    self.state = MainState::Idle;
                    return;
                }
            }
        }
        self.contend(now, cmds);
    }

    /// Move toward transmission: defer if idle, otherwise wait for idle.
    fn contend(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.busy_until(now).is_none() {
            self.state = MainState::Deferring;
            self.defer_started = now;
            let fire = now + DIFS + SLOT * u64::from(self.remaining_slots);
            cmds.push(MacCommand::SetTimer { timer: MacTimer::Defer, at: fire });
        } else {
            self.wait_for_idle(now, cmds);
        }
    }

    fn wait_for_idle(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        match self.busy_until(now) {
            Some(horizon) => {
                self.state = MainState::WaitIdle;
                cmds.push(MacCommand::SetTimer { timer: MacTimer::Recheck, at: horizon });
            }
            None => {
                // Already idle again — contend immediately.
                self.contend(now, cmds);
            }
        }
    }

    /// The earliest instant the medium *might* be idle, or `None` if idle
    /// now. Combines physical carrier, NAV, and our own transmitter.
    fn busy_until(&self, now: SimTime) -> Option<SimTime> {
        let horizon = self.phys_busy_until.max(self.nav_until).max(self.radio_busy_until);
        (horizon > now).then_some(horizon)
    }

    fn freeze_backoff(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        debug_assert_eq!(self.state, MainState::Deferring);
        cmds.push(MacCommand::CancelTimer { timer: MacTimer::Defer });
        let elapsed = now.saturating_since(self.defer_started);
        if elapsed > DIFS {
            let slots_done = ((elapsed - DIFS).as_nanos() / SLOT.as_nanos()) as u32;
            self.remaining_slots = self.remaining_slots.saturating_sub(slots_done);
        }
        self.state = MainState::WaitIdle;
    }

    fn draw_slots(&mut self) -> u32 {
        self.rng.random_range(0..=self.cw)
    }

    fn bump_cw(&mut self) {
        self.cw = (self.cw * 2 + 1).min(CW_MAX);
        self.remaining_slots = self.draw_slots();
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    fn defer_expired(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.state != MainState::Deferring {
            return;
        }
        if self.busy_until(now).is_some() {
            // NAV (or a late-reported arrival) still covers the medium.
            self.remaining_slots = 0;
            self.wait_for_idle(now, cmds);
            return;
        }
        let Some(pkt) = &self.current else {
            self.state = MainState::Idle;
            return;
        };
        if pkt.dst.is_broadcast() {
            let frame = self.data_frame(pkt.clone(), NodeId::BROADCAST, SimDuration::ZERO);
            self.state = MainState::TxBroadcast;
            self.transmit(frame, now, cmds);
        } else {
            let data_dur = frame_duration(DATA_HEADER_BYTES + pkt.bytes);
            let nav = SIFS * 3 + cts_duration() + data_dur + ack_duration();
            let frame = MacFrame {
                kind: FrameKind::Rts,
                src: self.node,
                dst: pkt.dst,
                bytes: RTS_BYTES,
                nav,
                seq: 0,
                payload: None,
            };
            self.state = MainState::TxRts;
            self.transmit(frame, now, cmds);
        }
    }

    fn data_frame(&mut self, pkt: QueuedPacket<P>, dst: NodeId, nav: SimDuration) -> MacFrame<P> {
        MacFrame {
            kind: FrameKind::Data,
            src: self.node,
            dst,
            bytes: DATA_HEADER_BYTES + pkt.bytes,
            nav,
            seq: self.seq_counter,
            payload: Some(pkt.payload),
        }
    }

    fn transmit(&mut self, frame: MacFrame<P>, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        let duration = frame_duration(frame.bytes);
        self.radio_busy_until = now + duration;
        cmds.push(MacCommand::SetTimer { timer: MacTimer::TxEnd, at: now + duration });
        cmds.push(MacCommand::StartTx { frame, duration });
    }

    fn tx_ended(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.responding {
            self.responding = false;
            self.arm_next_response(now, cmds);
            match self.state {
                MainState::WaitIdle => self.wait_for_idle(now, cmds),
                MainState::Idle => self.start_service(now, cmds),
                _ => {}
            }
            return;
        }
        match self.state {
            MainState::TxRts => {
                self.state = MainState::WaitCts;
                cmds.push(MacCommand::SetTimer {
                    timer: MacTimer::CtsTimeout,
                    at: now + cts_timeout(),
                });
            }
            MainState::TxData => {
                self.state = MainState::WaitAck;
                cmds.push(MacCommand::SetTimer {
                    timer: MacTimer::AckTimeout,
                    at: now + ack_timeout(),
                });
            }
            MainState::TxBroadcast => {
                // Broadcasts are unacknowledged: fire and forget.
                self.seq_counter += 1;
                self.current = None;
                self.start_service(now, cmds);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Unicast exchange progress
    // ------------------------------------------------------------------

    fn receive_cts(&mut self, frame: MacFrame<P>, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        let expected = self.current.as_ref().map(|p| p.dst);
        if self.state == MainState::WaitCts && expected == Some(frame.src) {
            cmds.push(MacCommand::CancelTimer { timer: MacTimer::CtsTimeout });
            self.short_retries = 0;
            self.state = MainState::SifsGap;
            cmds.push(MacCommand::SetTimer { timer: MacTimer::SifsData, at: now + SIFS });
        }
    }

    fn sifs_gap_expired(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.state != MainState::SifsGap {
            return;
        }
        if self.radio_busy_until > now {
            // A response transmission is still draining; retry just after.
            cmds.push(MacCommand::SetTimer {
                timer: MacTimer::SifsData,
                at: self.radio_busy_until + SimDuration::from_nanos(1),
            });
            return;
        }
        let pkt = self.current.clone().expect("SIFS gap without a packet in service");
        let dst = pkt.dst;
        let nav = SIFS + ack_duration();
        let frame = self.data_frame(pkt, dst, nav);
        self.state = MainState::TxData;
        self.transmit(frame, now, cmds);
    }

    fn receive_ack(&mut self, frame: MacFrame<P>, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        let expected = self.current.as_ref().map(|p| p.dst);
        if self.state == MainState::WaitAck && expected == Some(frame.src) {
            cmds.push(MacCommand::CancelTimer { timer: MacTimer::AckTimeout });
            cmds.push(MacCommand::TxOk { dst: frame.src });
            self.seq_counter += 1;
            self.current = None;
            self.cw = CW_MIN;
            self.short_retries = 0;
            self.long_retries = 0;
            self.start_service(now, cmds);
        }
    }

    fn cts_timed_out(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.state != MainState::WaitCts {
            return;
        }
        self.short_retries += 1;
        if self.short_retries >= SHORT_RETRY_LIMIT {
            self.fail_current(now, cmds);
        } else {
            self.bump_cw();
            self.contend(now, cmds);
        }
    }

    fn ack_timed_out(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if self.state != MainState::WaitAck {
            return;
        }
        self.long_retries += 1;
        if self.long_retries >= LONG_RETRY_LIMIT {
            self.fail_current(now, cmds);
        } else {
            self.bump_cw();
            self.contend(now, cmds);
        }
    }

    /// Retry limit exhausted: drop the packet and emit the link-layer
    /// failure feedback DSR route maintenance listens for.
    fn fail_current(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        let pkt = self.current.take().expect("failing without a packet in service");
        self.seq_counter += 1;
        cmds.push(MacCommand::TxFailed { payload: pkt.payload, dst: pkt.dst });
        self.cw = CW_MIN;
        self.short_retries = 0;
        self.long_retries = 0;
        self.state = MainState::Idle;
        self.start_service(now, cmds);
    }

    // ------------------------------------------------------------------
    // Receiver side
    // ------------------------------------------------------------------

    fn receive_data(&mut self, frame: MacFrame<P>, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if frame.is_broadcast() {
            let payload = frame.payload.expect("data frame without payload");
            cmds.push(MacCommand::Deliver { from: frame.src, payload });
            return;
        }
        // Unicast to us: always acknowledge, deliver only if new.
        let key = (frame.src, frame.seq);
        let duplicate = self.recent_rx.contains(&key);
        if !duplicate {
            // Evict before appending, so the ring never holds a 65th pair
            // and never doubles its room to hold one.
            if self.recent_rx.len() >= DEDUP_CACHE {
                self.recent_rx.pop_front();
            }
            self.recent_rx.push_back(key);
        }
        let ack = MacFrame {
            kind: FrameKind::Ack,
            src: self.node,
            dst: frame.src,
            bytes: ACK_BYTES,
            nav: SimDuration::ZERO,
            seq: 0,
            payload: None,
        };
        self.push_response(now + SIFS, ack, cmds);
        if !duplicate {
            let payload = frame.payload.expect("data frame without payload");
            cmds.push(MacCommand::Deliver { from: frame.src, payload });
        }
    }

    fn receive_rts(&mut self, frame: MacFrame<P>, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        // Only respond when our NAV is clear and we are not mid-exchange;
        // otherwise stay silent and let the sender retry.
        let mid_exchange = matches!(
            self.state,
            MainState::TxRts
                | MainState::TxData
                | MainState::TxBroadcast
                | MainState::WaitCts
                | MainState::WaitAck
                | MainState::SifsGap
        );
        if self.nav_until > now || mid_exchange {
            return;
        }
        // Remaining reservation after our CTS ends.
        let nav = frame.nav.saturating_sub(SIFS + cts_duration());
        let cts = MacFrame {
            kind: FrameKind::Cts,
            src: self.node,
            dst: frame.src,
            bytes: CTS_BYTES,
            nav,
            seq: 0,
            payload: None,
        };
        self.push_response(now + SIFS, cts, cmds);
    }

    // ------------------------------------------------------------------
    // SIFS response machinery
    // ------------------------------------------------------------------

    fn push_response(&mut self, at: SimTime, frame: MacFrame<P>, cmds: &mut Vec<MacCommand<P>>) {
        self.responses.push_back((at, frame));
        if !self.response_timer_armed && !self.responding {
            self.response_timer_armed = true;
            cmds.push(MacCommand::SetTimer { timer: MacTimer::SifsResponse, at });
        }
    }

    fn send_response(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        self.response_timer_armed = false;
        let Some((_, frame)) = self.responses.pop_front() else {
            return;
        };
        if self.radio_busy_until > now {
            // Our transmitter is mid-frame; the response is lost (the peer
            // will retry its exchange).
            self.arm_next_response(now, cmds);
            return;
        }
        // Responses preempt contention: pause any backoff in progress.
        if self.state == MainState::Deferring {
            self.freeze_backoff(now, cmds);
        }
        self.responding = true;
        self.transmit(frame, now, cmds);
    }

    fn arm_next_response(&mut self, now: SimTime, cmds: &mut Vec<MacCommand<P>>) {
        if let Some(&(at, _)) = self.responses.front() {
            self.response_timer_armed = true;
            cmds.push(MacCommand::SetTimer { timer: MacTimer::SifsResponse, at: at.max(now) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::RngFactory;

    type TestDcf = Dcf<u32>;

    fn mk(node: u16) -> TestDcf {
        Dcf::new(NodeId::new(node), MacConfig, RngFactory::new(7).stream("mac", u64::from(node)))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The commands one MAC input appends to an empty buffer.
    fn cmds_of(input: impl FnOnce(&mut Vec<MacCommand<u32>>)) -> Vec<MacCommand<u32>> {
        let mut cmds = Vec::new();
        input(&mut cmds);
        cmds
    }

    /// A control frame (RTS, CTS or ACK) of its standard size.
    fn control(kind: FrameKind, src: u16, dst: u16, nav: SimDuration) -> MacFrame<u32> {
        let bytes = match kind {
            FrameKind::Rts => RTS_BYTES,
            FrameKind::Cts => CTS_BYTES,
            _ => ACK_BYTES,
        };
        let (src, dst) = (NodeId::new(src), NodeId::new(dst));
        MacFrame { kind, src, dst, bytes, nav, seq: 0, payload: None }
    }

    fn find_tx<P: Clone>(cmds: &[MacCommand<P>]) -> Option<&MacFrame<P>> {
        cmds.iter().find_map(|c| match c {
            MacCommand::StartTx { frame, .. } => Some(frame),
            _ => None,
        })
    }

    fn timer_at<P>(cmds: &[MacCommand<P>], kind: MacTimer) -> Option<SimTime> {
        cmds.iter().find_map(|c| match c {
            MacCommand::SetTimer { timer, at } if *timer == kind => Some(*at),
            _ => None,
        })
    }

    /// Drives a full successful unicast exchange and returns true.
    #[test]
    fn unicast_exchange_with_rts_cts() {
        let mut mac = mk(0);
        let now = t(1.0);

        // Enqueue on idle medium: immediate access => Defer at now + DIFS.
        let cmds = cmds_of(|c| mac.enqueue_into(42, NodeId::new(1), 512, Priority::Data, now, c));
        let defer_at = timer_at(&cmds, MacTimer::Defer).expect("defer armed");
        assert_eq!(defer_at, now + DIFS);

        // Defer fires: RTS goes out.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
        let rts = find_tx(&cmds).expect("RTS transmitted");
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.dst, NodeId::new(1));
        let tx_end = timer_at(&cmds, MacTimer::TxEnd).expect("tx end armed");

        // RTS ends: CTS timeout armed.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
        let cts_to = timer_at(&cmds, MacTimer::CtsTimeout).expect("cts timeout armed");
        assert!(cts_to > tx_end);

        // CTS arrives: SIFS gap before data.
        let cts = control(FrameKind::Cts, 1, 0, SimDuration::ZERO);
        let rx_at = tx_end + SIFS + cts_duration();
        let cmds = cmds_of(|c| mac.on_receive_into(cts, rx_at, c));
        let sifs_at = timer_at(&cmds, MacTimer::SifsData).expect("sifs gap armed");
        assert_eq!(sifs_at, rx_at + SIFS);

        // SIFS gap ends: DATA goes out carrying the payload.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::SifsData, sifs_at, c));
        let data = find_tx(&cmds).expect("DATA transmitted");
        assert_eq!(data.kind, FrameKind::Data);
        assert_eq!(data.payload, Some(42));
        let data_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();

        // DATA ends: ACK timeout armed.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, data_end, c));
        assert!(timer_at(&cmds, MacTimer::AckTimeout).is_some());

        // ACK arrives: exchange complete.
        let ack = control(FrameKind::Ack, 1, 0, SimDuration::ZERO);
        let cmds = cmds_of(|c| mac.on_receive_into(ack, data_end + SIFS + ack_duration(), c));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, MacCommand::TxOk { dst } if *dst == NodeId::new(1))));
        assert!(mac.is_idle());
    }

    #[test]
    fn cts_timeouts_exhaust_into_link_failure() {
        let mut mac = mk(0);
        let now = t(0.0);
        let cmds = cmds_of(|c| mac.enqueue_into(7, NodeId::new(1), 512, Priority::Data, now, c));
        let mut defer_at = timer_at(&cmds, MacTimer::Defer).unwrap();
        let mut failed = false;
        for _ in 0..10 {
            let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
            let tx_end = timer_at(&cmds, MacTimer::TxEnd).expect("RTS sent");
            let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
            let cts_to = timer_at(&cmds, MacTimer::CtsTimeout).unwrap();
            let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::CtsTimeout, cts_to, c));
            if cmds.iter().any(
                |c| matches!(c, MacCommand::TxFailed { payload: 7, dst } if *dst == NodeId::new(1)),
            ) {
                failed = true;
                break;
            }
            defer_at = timer_at(&cmds, MacTimer::Defer).expect("retry contends again");
        }
        assert!(failed, "link-layer failure feedback never emitted");
        assert!(mac.is_idle());
    }

    #[test]
    fn broadcast_skips_rts_and_ack() {
        let mut mac = mk(0);
        let now = t(0.0);
        let cmds =
            cmds_of(|c| mac.enqueue_into(9, NodeId::BROADCAST, 64, Priority::Control, now, c));
        let defer_at = timer_at(&cmds, MacTimer::Defer).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
        let frame = find_tx(&cmds).expect("broadcast data sent");
        assert_eq!(frame.kind, FrameKind::Data);
        assert!(frame.is_broadcast());
        let tx_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
        assert!(timer_at(&cmds, MacTimer::AckTimeout).is_none());
        assert!(mac.is_idle());
    }

    #[test]
    fn busy_channel_defers_until_recheck() {
        let mut mac = mk(0);
        let now = t(0.0);
        let busy_till = t(0.010);
        cmds_of(|c| mac.on_channel_busy_into(now, busy_till, c));
        let cmds = cmds_of(|c| mac.enqueue_into(5, NodeId::new(1), 512, Priority::Data, now, c));
        // No Defer yet — a Recheck at the busy horizon instead.
        assert!(timer_at(&cmds, MacTimer::Defer).is_none());
        assert_eq!(timer_at(&cmds, MacTimer::Recheck), Some(busy_till));
        // At the horizon the channel is idle: contention begins.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Recheck, busy_till, c));
        assert!(timer_at(&cmds, MacTimer::Defer).is_some());
    }

    #[test]
    fn backoff_freezes_when_channel_goes_busy() {
        let mut mac = mk(0);
        let now = t(0.0);
        // Make the channel busy first so the packet draws a real backoff.
        cmds_of(|c| mac.on_channel_busy_into(now, t(0.001), c));
        let cmds = cmds_of(|c| mac.enqueue_into(5, NodeId::new(1), 512, Priority::Data, now, c));
        assert_eq!(timer_at(&cmds, MacTimer::Recheck), Some(t(0.001)));
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Recheck, t(0.001), c));
        let defer_at = timer_at(&cmds, MacTimer::Defer).expect("defer with backoff");
        assert!(defer_at >= t(0.001) + DIFS);
        // Channel turns busy mid-countdown: Defer cancelled, Recheck armed.
        let mid = t(0.001) + DIFS + SLOT;
        let cmds = cmds_of(|c| mac.on_channel_busy_into(mid, t(0.020), c));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, MacCommand::CancelTimer { timer: MacTimer::Defer })));
        assert_eq!(timer_at(&cmds, MacTimer::Recheck), Some(t(0.020)));
    }

    #[test]
    fn rts_for_us_earns_cts_after_sifs() {
        let mut mac = mk(1);
        let rts = control(FrameKind::Rts, 0, 1, SimDuration::from_micros_u64(3000));
        let now = t(0.5);
        let cmds = cmds_of(|c| mac.on_receive_into(rts, now, c));
        assert_eq!(timer_at(&cmds, MacTimer::SifsResponse), Some(now + SIFS));
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::SifsResponse, now + SIFS, c));
        let cts = find_tx(&cmds).expect("CTS sent");
        assert_eq!(cts.kind, FrameKind::Cts);
        assert_eq!(cts.dst, NodeId::new(0));
        assert!(cts.nav < SimDuration::from_micros_u64(3000));
    }

    #[test]
    fn rts_ignored_when_nav_busy() {
        let mut mac = mk(1);
        // Overhear a frame reserving the medium.
        let other = control(FrameKind::Rts, 5, 6, SimDuration::from_millis(5.0));
        cmds_of(|c| mac.on_receive_into(other, t(0.0), c));
        let rts = control(FrameKind::Rts, 0, 1, SimDuration::from_millis(3.0));
        let cmds = cmds_of(|c| mac.on_receive_into(rts, t(0.001), c));
        assert!(
            timer_at(&cmds, MacTimer::SifsResponse).is_none(),
            "CTS must be withheld under NAV"
        );
    }

    #[test]
    fn unicast_data_delivers_once_and_acks_twice() {
        let mut mac = mk(1);
        let data = MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes: DATA_HEADER_BYTES + 512,
            nav: SimDuration::ZERO,
            seq: 3,
            payload: Some(77),
        };
        let cmds = cmds_of(|c| mac.on_receive_into(data.clone(), t(0.0), c));
        assert!(cmds.iter().any(|c| matches!(c, MacCommand::Deliver { payload: 77, .. })));
        assert!(timer_at(&cmds, MacTimer::SifsResponse).is_some());
        // Drain the first ACK so the response queue is empty again.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::SifsResponse, t(0.0) + SIFS, c));
        assert_eq!(find_tx(&cmds).map(|f| f.kind), Some(FrameKind::Ack));
        let end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
        cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, end, c));
        // Retransmission of the same (src, seq): ACK again, deliver nothing.
        let cmds = cmds_of(|c| mac.on_receive_into(data, t(0.01), c));
        assert!(!cmds.iter().any(|c| matches!(c, MacCommand::Deliver { .. })));
        assert!(timer_at(&cmds, MacTimer::SifsResponse).is_some());
    }

    /// The dedup window holds the last `DEDUP_CACHE` distinct `(src, seq)`
    /// pairs: a retry inside it is acked but not delivered, and the
    /// 65th distinct pair forgets the first, which then delivers again.
    #[test]
    fn dedup_window_forgets_its_oldest_pair() {
        let mut mac = mk(1);
        let data = |seq: u64| MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes: DATA_HEADER_BYTES + 512,
            nav: SimDuration::ZERO,
            seq,
            payload: Some(seq as u32),
        };
        let mut at = 0.0;
        let mut receive = |mac: &mut TestDcf, seq: u64| {
            at += 0.01;
            let cmds = cmds_of(|c| mac.on_receive_into(data(seq), t(at), c));
            let ack_at = timer_at(&cmds, MacTimer::SifsResponse).expect("every unicast is acked");
            // Send the ACK so the response queue is empty again.
            let sent = cmds_of(|c| mac.on_timer_into(MacTimer::SifsResponse, ack_at, c));
            assert_eq!(find_tx(&sent).map(|f| f.kind), Some(FrameKind::Ack));
            cmds_of(|c| {
                mac.on_timer_into(MacTimer::TxEnd, timer_at(&sent, MacTimer::TxEnd).unwrap(), c)
            });
            cmds.iter().any(|c| matches!(c, MacCommand::Deliver { .. }))
        };
        for seq in 0..DEDUP_CACHE as u64 {
            assert!(receive(&mut mac, seq), "seq {seq} is new");
        }
        assert!(!receive(&mut mac, 0), "the oldest pair is still in the window");
        assert!(!receive(&mut mac, DEDUP_CACHE as u64 - 1), "and so is the newest");
        assert!(receive(&mut mac, DEDUP_CACHE as u64), "the 65th distinct pair is new");
        assert!(receive(&mut mac, 0), "and it pushed the first out");
        assert!(!receive(&mut mac, 2), "a retry inside the window");
        assert!(receive(&mut mac, 1), "the second went out with the first's return");
        assert!(mac.recent_rx.capacity() <= DEDUP_CACHE, "{} slots", mac.recent_rx.capacity());
    }

    #[test]
    fn broadcast_data_delivered_without_ack() {
        let mut mac = mk(2);
        let data = MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(0),
            dst: NodeId::BROADCAST,
            bytes: 100,
            nav: SimDuration::ZERO,
            seq: 0,
            payload: Some(11),
        };
        let cmds = cmds_of(|c| mac.on_receive_into(data, t(0.0), c));
        assert!(cmds.iter().any(|c| matches!(c, MacCommand::Deliver { payload: 11, .. })));
        assert!(timer_at(&cmds, MacTimer::SifsResponse).is_none());
    }

    #[test]
    fn overheard_unicast_data_is_snooped() {
        let mut mac = mk(9);
        let data = MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes: 100,
            nav: SimDuration::from_micros_u64(500),
            seq: 0,
            payload: Some(13),
        };
        let cmds = cmds_of(|c| mac.on_receive_into(data, t(0.0), c));
        assert!(cmds.iter().any(|c| matches!(c, MacCommand::Snoop { .. })));
        assert!(!cmds.iter().any(|c| matches!(c, MacCommand::Deliver { .. })));
    }

    #[test]
    fn borrowed_receive_matches_owned_receive() {
        let data = MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes: 100,
            nav: SimDuration::from_micros_u64(500),
            seq: 0,
            payload: Some(13),
        };
        let rts = control(FrameKind::Rts, 0, 1, SimDuration::from_micros_u64(900));
        // Bystander and addressee, each fed both ways: same commands.
        for frame in [data, rts] {
            for node in [9, 1] {
                let cmds = cmds_of(|c| mk(node).on_receive_ref_into(&frame, t(0.0), c));
                let owned = cmds_of(|c| mk(node).on_receive_into(frame.clone(), t(0.0), c));
                assert_eq!(cmds, owned, "node {node}");
                let snooped = cmds.last() == Some(&MacCommand::Snoop { from: NodeId::new(0) });
                assert_eq!(snooped, node == 9 && frame.kind == FrameKind::Data, "node {node}");
            }
        }
    }

    #[test]
    fn queue_overflow_reports_drop() {
        let mut mac = mk(0);
        // Keep the channel busy so nothing dequeues.
        cmds_of(|c| mac.on_channel_busy_into(t(0.0), t(100.0), c));
        let cap = QUEUE_CAPACITY;
        // The first admitted packet moves straight into service, so the
        // queue itself absorbs `cap` more before overflowing.
        for i in 0..=cap as u32 {
            let cmds =
                cmds_of(|c| mac.enqueue_into(i, NodeId::new(1), 64, Priority::Data, t(0.0), c));
            assert!(!cmds.iter().any(|c| matches!(c, MacCommand::QueueDrop { .. })));
        }
        let cmds =
            cmds_of(|c| mac.enqueue_into(999, NodeId::new(1), 64, Priority::Data, t(0.0), c));
        assert!(cmds.iter().any(|c| matches!(c, MacCommand::QueueDrop { payload: 999 })));
        assert_eq!(mac.queue_len(), cap);
    }

    /// Every attempt gets its CTS but never its ACK: RTS, CTS, DATA, ACK
    /// timeout, until the DATA retry limit fails the frame.
    #[test]
    fn ack_timeouts_exhaust_into_link_failure() {
        let mut mac = mk(0);
        let cmds = cmds_of(|c| mac.enqueue_into(3, NodeId::new(1), 512, Priority::Data, t(0.0), c));
        let mut defer_at = timer_at(&cmds, MacTimer::Defer).unwrap();
        for attempt in 1..=LONG_RETRY_LIMIT {
            let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
            assert_eq!(find_tx(&cmds).map(|f| f.kind), Some(FrameKind::Rts));
            let tx_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
            cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
            let cts = control(FrameKind::Cts, 1, 0, SimDuration::ZERO);
            let cmds = cmds_of(|c| mac.on_receive_into(cts, tx_end + SIFS + cts_duration(), c));
            let cmds = cmds_of(|c| {
                mac.on_timer_into(
                    MacTimer::SifsData,
                    timer_at(&cmds, MacTimer::SifsData).unwrap(),
                    c,
                )
            });
            assert_eq!(find_tx(&cmds).map(|f| f.kind), Some(FrameKind::Data));
            let cmds = cmds_of(|c| {
                mac.on_timer_into(MacTimer::TxEnd, timer_at(&cmds, MacTimer::TxEnd).unwrap(), c)
            });
            let ack_to = timer_at(&cmds, MacTimer::AckTimeout).unwrap();
            let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::AckTimeout, ack_to, c));
            let failed = cmds.iter().any(|c| matches!(c, MacCommand::TxFailed { payload: 3, .. }));
            assert_eq!(failed, attempt == LONG_RETRY_LIMIT, "attempt {attempt}");
            if !failed {
                defer_at = timer_at(&cmds, MacTimer::Defer).expect("retry");
            }
        }
        assert!(mac.is_idle());
    }

    #[test]
    fn nav_expiry_reopens_cts_responses() {
        let mut mac = mk(1);
        // Overheard reservation holds the NAV for 2 ms.
        let other = control(FrameKind::Rts, 5, 6, SimDuration::from_millis(2.0));
        cmds_of(|c| mac.on_receive_into(other, t(0.0), c));
        let make_rts = || control(FrameKind::Rts, 0, 1, SimDuration::from_millis(3.0));
        // During the NAV: silence.
        let cmds = cmds_of(|c| mac.on_receive_into(make_rts(), t(0.001), c));
        assert!(timer_at(&cmds, MacTimer::SifsResponse).is_none());
        // After the NAV expires: CTS flows again.
        let cmds = cmds_of(|c| mac.on_receive_into(make_rts(), t(0.0025), c));
        assert!(timer_at(&cmds, MacTimer::SifsResponse).is_some());
    }

    #[test]
    fn contention_window_resets_after_success() {
        let mut mac = mk(0);
        // Fail once to inflate the contention window...
        let cmds = cmds_of(|c| mac.enqueue_into(1, NodeId::new(1), 512, Priority::Data, t(0.0), c));
        let defer_at = timer_at(&cmds, MacTimer::Defer).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
        let tx_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
        let cts_to = timer_at(&cmds, MacTimer::CtsTimeout).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::CtsTimeout, cts_to, c));
        // ...then complete the exchange on the retry.
        let defer_at = timer_at(&cmds, MacTimer::Defer).expect("retry contends");
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
        let tx_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
        let _ = timer_at(&cmds, MacTimer::CtsTimeout).unwrap();
        let cts = control(FrameKind::Cts, 1, 0, SimDuration::ZERO);
        let cmds = cmds_of(|c| mac.on_receive_into(cts, tx_end + SIFS + cts_duration(), c));
        let sifs_at = timer_at(&cmds, MacTimer::SifsData).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::SifsData, sifs_at, c));
        let data_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
        cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, data_end, c));
        let ack = control(FrameKind::Ack, 1, 0, SimDuration::ZERO);
        let cmds = cmds_of(|c| mac.on_receive_into(ack, data_end + SIFS + ack_duration(), c));
        assert!(cmds.iter().any(|c| matches!(c, MacCommand::TxOk { .. })));
        // A fresh packet on an idle medium must defer only DIFS (cw reset,
        // immediate access): the Defer must land exactly DIFS later.
        let now = t(5.0);
        let cmds = cmds_of(|c| mac.enqueue_into(2, NodeId::new(1), 512, Priority::Data, now, c));
        assert_eq!(timer_at(&cmds, MacTimer::Defer), Some(now + DIFS));
    }

    #[test]
    fn ack_not_sent_for_frames_to_others() {
        let mut mac = mk(3);
        let data = MacFrame {
            kind: FrameKind::Data,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes: 100,
            nav: SimDuration::ZERO,
            seq: 0,
            payload: Some(1),
        };
        let cmds = cmds_of(|c| mac.on_receive_into(data, t(0.0), c));
        assert!(timer_at(&cmds, MacTimer::SifsResponse).is_none(), "no ACK for others' frames");
    }

    #[test]
    fn control_packets_jump_data_queue() {
        let mut mac = mk(0);
        cmds_of(|c| mac.on_channel_busy_into(t(0.0), t(0.010), c));
        cmds_of(|c| mac.enqueue_into(1, NodeId::new(1), 512, Priority::Data, t(0.0), c));
        cmds_of(|c| mac.enqueue_into(2, NodeId::new(2), 512, Priority::Data, t(0.0), c));
        cmds_of(|c| mac.enqueue_into(3, NodeId::BROADCAST, 32, Priority::Control, t(0.0), c));
        // First packet (payload 1) is already in service; when it completes
        // the control packet must come out before data packet 2.
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Recheck, t(0.010), c));
        let defer_at = timer_at(&cmds, MacTimer::Defer).unwrap();
        let cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, defer_at, c));
        assert_eq!(find_tx(&cmds).map(|f| f.dst), Some(NodeId::new(1)));
        // Fail packet 1 quickly via CTS timeouts.
        let tx_end = timer_at(&cmds, MacTimer::TxEnd).unwrap();
        let mut cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, tx_end, c));
        loop {
            if let Some(cts_to) = timer_at(&cmds, MacTimer::CtsTimeout) {
                cmds = cmds_of(|c| mac.on_timer_into(MacTimer::CtsTimeout, cts_to, c));
            } else if let Some(d) = timer_at(&cmds, MacTimer::Defer) {
                cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, d, c));
            } else if let Some(e) = timer_at(&cmds, MacTimer::TxEnd) {
                cmds = cmds_of(|c| mac.on_timer_into(MacTimer::TxEnd, e, c));
            } else {
                break;
            }
            if cmds.iter().any(|c| matches!(c, MacCommand::TxFailed { .. })) {
                break;
            }
        }
        // Next service round must pick the broadcast control packet.
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 50, "control packet never served");
            let Some(d) = timer_at(&cmds, MacTimer::Defer) else {
                cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Recheck, t(1.0), c));
                continue;
            };
            cmds = cmds_of(|c| mac.on_timer_into(MacTimer::Defer, d, c));
            if let Some(f) = find_tx(&cmds) {
                assert!(f.is_broadcast(), "expected control broadcast, got {:?}", f.kind);
                break;
            }
        }
    }

    #[test]
    fn mac_timer_indices_are_dense_and_distinct() {
        let all = [
            MacTimer::Recheck,
            MacTimer::Defer,
            MacTimer::SifsResponse,
            MacTimer::SifsData,
            MacTimer::CtsTimeout,
            MacTimer::AckTimeout,
            MacTimer::TxEnd,
        ];
        assert_eq!(all.len(), MacTimer::KINDS);
        let mut seen = [false; MacTimer::KINDS];
        for timer in all {
            let idx = timer.index();
            assert!(idx < MacTimer::KINDS);
            assert!(!seen[idx], "duplicate index {idx}");
            seen[idx] = true;
        }
    }

    #[test]
    fn into_variants_append_to_existing_buffer() {
        let mut mac = mk(0);
        // Seed the buffer to prove `_into` appends rather than clears: the
        // driver drains between inputs, but the contract is append-only.
        let mut cmds =
            cmds_of(|c| mac.enqueue_into(77u32, NodeId::new(1), 512, Priority::Data, t(0.0), c));
        let seeded = cmds.clone();
        assert!(!seeded.is_empty(), "enqueue on idle MAC must emit commands");
        mac.on_channel_busy_into(t(0.001), t(0.002), &mut cmds);
        assert_eq!(cmds[..seeded.len()], seeded, "earlier commands must survive");
    }

    #[test]
    fn reset_into_drains_all_payloads_and_restores_power_on_state() {
        let mut mac = mk(0);
        let now = t(0.0);
        // One packet in service, two queued behind it, and a pending CTS
        // response (payload-free) from an RTS addressed to us.
        cmds_of(|c| mac.enqueue_into(1u32, NodeId::new(1), 512, Priority::Data, now, c));
        cmds_of(|c| mac.enqueue_into(2u32, NodeId::new(2), 512, Priority::Data, now, c));
        cmds_of(|c| mac.enqueue_into(3u32, NodeId::new(3), 512, Priority::Control, now, c));
        let rts = control(FrameKind::Rts, 4, 0, SimDuration::from_micros_u64(500));
        cmds_of(|c| mac.on_receive_into(rts, t(0.0001), c));
        assert!(!mac.is_idle());

        let mut dropped = Vec::new();
        mac.reset_into(&mut dropped);
        dropped.sort_unstable();
        assert_eq!(dropped, vec![1, 2, 3], "every held payload surrendered");
        assert!(mac.is_idle(), "state machine back to power-on idle");
        assert_eq!(mac.pending_payloads().count(), 0);
        // Horizons wiped: an enqueue at a fresh instant contends immediately
        // (DIFS only), proving no stale NAV/carrier state survived.
        let cmds =
            cmds_of(|c| mac.enqueue_into(9u32, NodeId::new(1), 512, Priority::Data, t(5.0), c));
        let defer_at = timer_at(&cmds, MacTimer::Defer).expect("fresh contention");
        assert_eq!(defer_at, t(5.0) + DIFS);
    }
}
