//! Everything that watches a run without steering it, behind one seam.
//!
//! Five mechanisms observe the driver: the packet-trace sink, the obs
//! sampler with its event-loop profile tallies, the conservation auditor,
//! the cache-decision stamper, and the campaign heartbeat. Each is off by
//! default; the `Simulator::set_*` methods install them by assigning the
//! fields. The driver reports every protocol point here with one call;
//! which mechanisms care about that point is decided in this file alone.
//!
//! Observation is pure: nothing here schedules an event, draws RNG, or
//! feeds a value back into the driver (wall time flows only *out* of the
//! simulation), so a `Report` is byte-identical whatever is installed.

use std::time::Instant;

use mac::{Dcf, MacFrame};
use metrics::Metrics;
use mobility::LinkOracle;
use obs::{HeartbeatTick, Profile, RunObservation, SampleRow, Sampler, Tally, TallyMap};
use packet::{CacheDecision, DropReason, NetPacket, RoutingAgent};
use sim_core::{NodeId, SimTime};

use crate::audit::Auditor;
use crate::cachestamp::CacheStamper;
use crate::sim::EV_KIND_NAMES;
use crate::trace::{TraceEvent, TraceKind, TraceSink};

/// Receives the completed [`RunObservation`] of a successful instrumented
/// run (campaigns use this to write the time-series file and merge the
/// profile across the panic-isolation boundary).
pub type ObsSink = Box<dyn FnMut(RunObservation) + Send>;

/// Receives throttled progress pulses from inside the event loop (the
/// campaign heartbeat).
pub type HeartbeatSink = Box<dyn FnMut(HeartbeatTick) + Send>;

/// How many dispatched events between heartbeat pulses. Coarse on purpose:
/// the per-event cost when a heartbeat is installed is one counter mask.
const HEARTBEAT_EVERY: u64 = 8192;

/// The profiler times one dispatch in this many of each kind — the first
/// of the kind and every `TIMING_STRIDE`-th after it — and the wall-clock
/// watchdog looks at the clock on the same cadence of all dispatches.
pub(crate) const TIMING_STRIDE: u64 = 64;

/// Whether the dispatch that follows `before` others is one the profiler
/// times (of its kind) or the watchdog checks (of all).
#[inline]
pub(crate) fn on_stride(before: u64) -> bool {
    before.is_multiple_of(TIMING_STRIDE)
}

/// The wall time of all `count` dispatches of a kind, from the
/// `sampled_ns` its `⌈count / TIMING_STRIDE⌉` timed ones took (in `u128`:
/// the product outgrows a `u64` long before the estimate does).
fn estimate_wall_ns(sampled_ns: u64, count: u64) -> u64 {
    let timed = count.div_ceil(TIMING_STRIDE);
    if timed == 0 {
        return 0;
    }
    let scaled = u128::from(sampled_ns) * u128::from(count) / u128::from(timed);
    u64::try_from(scaled).unwrap_or(u64::MAX)
}

/// What an empty timed interval costs: the least of 64 back-to-back
/// `Instant::now()`/`elapsed()` pairs.
fn clock_overhead_ns() -> u64 {
    (0..64)
        .map(|_| {
            let started = Instant::now();
            started.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// Sampler plus profile tallies; present only when obs is enabled.
pub(crate) struct ObsState {
    sampler: Sampler,
    sink: ObsSink,
    /// Every dispatch, per kind.
    kind_count: [u64; EV_KIND_NAMES.len()],
    /// The timed dispatches' corrected wall time, per kind.
    kind_wall_ns: [u64; EV_KIND_NAMES.len()],
    /// Calibrated once, here: [`clock_overhead_ns`].
    overhead_ns: u64,
    drops: TallyMap,
    traces: TallyMap,
}

impl ObsState {
    pub(crate) fn new(sampler: Sampler, sink: ObsSink) -> Box<Self> {
        Box::new(ObsState {
            sampler,
            sink,
            kind_count: [0; EV_KIND_NAMES.len()],
            kind_wall_ns: [0; EV_KIND_NAMES.len()],
            overhead_ns: clock_overhead_ns(),
            drops: TallyMap::new(),
            traces: TallyMap::new(),
        })
    }

    /// Pushes a row for every boundary due at or before `at` — several can
    /// elapse in one idle gap, and each gets the then-current gauges and
    /// cumulative counts (`events`, and the originated and delivered
    /// packets `metrics` has counted). Agents report through
    /// `RoutingAgent::observe`, route validity is judged by the mobility
    /// oracle at the boundary instant, and only node-order-independent
    /// aggregate counts are kept. Out of line: the per-event check in
    /// [`Observers::sample_due`] must stay a couple of inlined
    /// instructions (as one call with these arguments it cost 6 % of
    /// `static_saturated`).
    #[inline(never)]
    fn sample<A: RoutingAgent>(
        &mut self,
        at: SimTime,
        events: u64,
        metrics: &Metrics,
        agents: &[A],
        macs: &[Dcf<A::Packet>],
        oracle: &LinkOracle,
    ) {
        while self.sampler.due(at) {
            let t = self.sampler.boundary();
            let mut row = SampleRow {
                events,
                originated: metrics.originated(),
                delivered: metrics.delivered(),
                ..SampleRow::default()
            };
            for agent in agents {
                if let Some(ob) = agent.observe(t) {
                    row.cache_entries += ob.routes.len() as u32;
                    row.cache_valid +=
                        ob.routes.iter().filter(|r| oracle.route_valid(r.nodes(), t)).count()
                            as u32;
                    row.negative_entries += ob.negative_entries as u32;
                    row.send_buffer += ob.send_buffer as u32;
                    row.discoveries += ob.discoveries as u32;
                }
            }
            for mac in macs {
                let (control, data) = mac.queue_depths();
                row.ifq_control += control as u32;
                row.ifq_data += data as u32;
            }
            self.sampler.push(row);
        }
    }
}

#[derive(Default)]
pub(crate) struct Observers {
    pub trace: Option<TraceSink>,
    /// Off ([`crate::AuditLevel::Off`]) by default.
    pub audit: Auditor,
    pub obs: Option<Box<ObsState>>,
    pub cachetrace: Option<CacheStamper>,
    pub heartbeat: Option<HeartbeatSink>,
}

impl Observers {
    #[inline]
    fn tally_trace(&mut self, name: &'static str) {
        if let Some(o) = self.obs.as_mut() {
            o.traces.record(name, 0);
        }
    }

    #[inline]
    fn emit(&mut self, at: SimTime, node: u16, kind: impl FnOnce() -> TraceKind) {
        if let Some(sink) = &mut self.trace {
            sink(&TraceEvent { at, node: NodeId::new(node), kind: kind() });
        }
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// The event at `at`, of kind `kind` (an index into
    /// [`EV_KIND_NAMES`]), is about to be dispatched, `popped` events into
    /// the run. Returns the profiler's start instant when this dispatch is
    /// one it times.
    #[inline]
    pub(crate) fn begin_event(
        &mut self,
        at: SimTime,
        end: SimTime,
        popped: u64,
        kind: usize,
    ) -> Option<Instant> {
        if self.audit.enabled() {
            self.audit.observe_event_time(at);
        }
        if let Some(hb) = &mut self.heartbeat {
            if popped.is_multiple_of(HEARTBEAT_EVERY) {
                hb(HeartbeatTick { now: at, end, events: popped });
            }
        }
        match &self.obs {
            Some(o) if on_stride(o.kind_count[kind]) => {
                #[cfg(test)]
                crate::sim::dispatch_order::note_clock_read(kind);
                Some(Instant::now())
            }
            _ => None,
        }
    }

    /// The dispatch `begin_event` announced has returned.
    #[inline]
    pub(crate) fn end_event(&mut self, started: Option<Instant>, kind: usize) {
        if let Some(o) = self.obs.as_mut() {
            o.kind_count[kind] += 1;
            if let Some(started) = started {
                #[cfg(test)]
                crate::sim::dispatch_order::note_clock_read(kind);
                // What the clock measured less what measuring costs.
                let elapsed_ns = started.elapsed().as_nanos() as u64;
                o.kind_wall_ns[kind] += elapsed_ns.saturating_sub(o.overhead_ns);
            }
        }
    }

    /// Samples every boundary due at or before `at`. The driver calls this
    /// *before* dispatching the event at `at`: rows carry the boundary
    /// time, never the event time, so identical (config, seed) pairs
    /// produce byte-identical files.
    #[inline]
    pub(crate) fn sample_due<A: RoutingAgent>(
        &mut self,
        at: SimTime,
        events: u64,
        metrics: &Metrics,
        agents: &[A],
        macs: &[Dcf<A::Packet>],
        oracle: &LinkOracle,
    ) {
        if let Some(o) = self.obs.as_mut() {
            if o.sampler.due(at) {
                o.sample(at, events, metrics, agents, macs, oracle);
            }
        }
    }

    /// The run completed: fills `profile` (whose totals the driver has
    /// set) with the tallies, each kind's wall time scaled up from its
    /// timed dispatches, and hands the finished observation to the obs
    /// sink.
    pub(crate) fn finish(&mut self, mut profile: Profile) {
        let Some(obs_state) = self.obs.take() else { return };
        let ObsState { sampler, mut sink, kind_count, kind_wall_ns, drops, traces, .. } =
            *obs_state;
        for (i, name) in EV_KIND_NAMES.iter().enumerate() {
            if kind_count[i] > 0 {
                profile.kinds.push(Tally {
                    name: (*name).to_string(),
                    count: kind_count[i],
                    wall_ns: estimate_wall_ns(kind_wall_ns[i], kind_count[i]),
                });
            }
        }
        profile.timing_stride = TIMING_STRIDE;
        profile.drops = drops.into_tallies();
        profile.traces = traces.into_tallies();
        sink(RunObservation { timeseries: sampler.finish(), profile });
    }

    // ------------------------------------------------------------------
    // Protocol points
    // ------------------------------------------------------------------

    /// A MAC frame left `node`'s antenna.
    pub(crate) fn on_mac_send<P: NetPacket>(
        &mut self,
        at: SimTime,
        node: u16,
        frame: &MacFrame<P>,
    ) {
        self.tally_trace("mac_send");
        self.emit(at, node, || TraceKind::MacSend {
            frame: frame.kind.name(),
            payload: frame.payload.as_ref().map(|p| p.kind_str()),
            bytes: frame.bytes,
            dst: frame.dst,
            uid: frame.payload.as_ref().map(|p| p.uid()),
        });
    }

    /// A routing agent announced a freshly originated data uid.
    #[inline]
    pub(crate) fn on_originated(&mut self, uid: u64) {
        if self.audit.enabled() {
            self.audit.on_originated(uid);
        }
    }

    /// A data packet reached its destination application at `node`;
    /// `fresh` is the metrics layer's duplicate-suppression verdict.
    #[inline]
    pub(crate) fn on_deliver(
        &mut self,
        at: SimTime,
        node: u16,
        uid: u64,
        src: NodeId,
        bytes: usize,
        fresh: bool,
    ) {
        if self.audit.enabled() {
            self.audit.on_delivered(uid, fresh);
        }
        self.tally_trace("deliver");
        self.emit(at, node, || TraceKind::Deliver { uid, bytes, src });
    }

    /// The routing layer at `node` dropped `uid`.
    #[inline]
    pub(crate) fn on_drop(&mut self, at: SimTime, node: u16, uid: u64, reason: DropReason) {
        if self.audit.enabled() {
            self.audit.on_dropped(uid, reason);
        }
        if let Some(o) = self.obs.as_mut() {
            o.drops.record(reason.name(), 0);
            o.traces.record("drop", 0);
        }
        self.emit(at, node, || TraceKind::Drop { uid, reason });
    }

    /// A full interface queue rejected a packet.
    #[inline]
    pub(crate) fn on_ifq_drop(&mut self, uid: u64, is_control: bool) {
        if let Some(o) = self.obs.as_mut() {
            o.drops.record("IfqOverflow", 0);
        }
        if self.audit.enabled() {
            self.audit.on_ifq_dropped(uid, is_control);
        }
    }

    /// `node` started a route discovery round for `target`.
    #[inline]
    pub(crate) fn on_discovery(&mut self, at: SimTime, node: u16, target: NodeId, flood: bool) {
        self.tally_trace("discovery");
        self.emit(at, node, || TraceKind::Discovery { target, flood });
    }

    /// Link-layer feedback at `node` declared the link to `to` broken.
    #[inline]
    pub(crate) fn on_link_break(&mut self, at: SimTime, node: u16, to: NodeId) {
        self.tally_trace("link_break");
        self.emit(at, node, || TraceKind::LinkBreak { to });
    }

    #[inline]
    pub(crate) fn on_failover(&mut self) {
        self.tally_trace("failover");
    }

    /// An agent made a cache decision. Agents only emit these while a
    /// stamper is installed, but an event can outlive the recorder in
    /// principle; dropping it is always safe.
    #[inline]
    pub(crate) fn on_cache_decision(
        &mut self,
        oracle: &LinkOracle,
        at: SimTime,
        node: u16,
        decision: CacheDecision,
    ) {
        if let Some(stamper) = self.cachetrace.as_mut() {
            stamper.stamp(oracle, at, node, decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use sim_core::SimDuration;

    use super::*;

    type Seen = Arc<Mutex<Option<RunObservation>>>;

    /// Observers with only the profiler installed, and where its
    /// observation lands.
    fn profiling() -> (Observers, Seen) {
        let seen: Seen = Arc::default();
        let slot = Arc::clone(&seen);
        let sampler = Sampler::new("profiled", 1, 0, SimDuration::from_secs(1.0));
        let sink: ObsSink = Box::new(move |o| *slot.lock().expect("obs slot") = Some(o));
        (Observers { obs: Some(ObsState::new(sampler, sink)), ..Observers::default() }, seen)
    }

    /// Three kinds at three rates through the real hooks: the common one,
    /// one every 97th dispatch (so never where the global count is on the
    /// stride until the 64th of them) and one that comes once, off it.
    #[test]
    fn each_kind_is_timed_on_its_own_stride_from_its_first_dispatch() {
        let (mut observers, _) = profiling();
        let mut count = [0u64; EV_KIND_NAMES.len()];
        let mut timed = [0u64; EV_KIND_NAMES.len()];
        for popped in 1..=10_000u64 {
            let kind = match popped {
                1000 => 4,
                p if p % 97 == 0 => 1,
                _ => 0,
            };
            let started = observers.begin_event(SimTime::ZERO, SimTime::ZERO, popped, kind);
            if count[kind] == 0 {
                assert!(started.is_some(), "the first {} is timed", EV_KIND_NAMES[kind]);
            }
            count[kind] += 1;
            timed[kind] += u64::from(started.is_some());
            observers.end_event(started, kind);
        }
        assert_eq!((count[0], count[1], count[4]), (9896, 103, 1));
        for (kind, &c) in count.iter().enumerate() {
            assert_eq!(timed[kind], c.div_ceil(TIMING_STRIDE), "{}", EV_KIND_NAMES[kind]);
        }
        let o = observers.obs.as_ref().expect("installed");
        assert_eq!(o.kind_count, count, "every dispatch counts, timed or not");
    }

    /// With a clock that costs more than any interval, every timed
    /// dispatch corrects to nothing, not below it.
    #[test]
    fn every_sample_pays_for_its_clock_reads() {
        let (mut observers, _) = profiling();
        observers.obs.as_mut().expect("installed").overhead_ns = u64::MAX;
        for popped in 1..=1000 {
            let started = observers.begin_event(SimTime::ZERO, SimTime::ZERO, popped, 6);
            std::hint::black_box(&started);
            observers.end_event(started, 6);
        }
        let o = observers.obs.as_ref().expect("installed");
        assert_eq!((o.kind_count[6], o.kind_wall_ns[6]), (1000, 0));
    }

    #[test]
    fn finish_scales_each_kind_from_its_timed_dispatches() {
        let (mut observers, seen) = profiling();
        let o = observers.obs.as_mut().expect("installed");
        // 640 mac timers, 10 of them timed at 1 µs each; one arrival.
        (o.kind_count[0], o.kind_wall_ns[0]) = (640, 10_000);
        (o.kind_count[6], o.kind_wall_ns[6]) = (1, 300);
        observers.finish(Profile { runs: 1, ..Profile::default() });
        let seen = seen.lock().expect("obs slot").take().expect("handed over");
        let kinds: Vec<(&str, u64, u64)> =
            seen.profile.kinds.iter().map(|t| (t.name.as_str(), t.count, t.wall_ns)).collect();
        assert_eq!(kinds, [("mac_timer", 640, 640_000), ("arrival", 1, 300)]);
        assert_eq!(seen.profile.timing_stride, TIMING_STRIDE);
    }

    #[test]
    fn the_estimate_scales_in_u128_and_saturates() {
        assert_eq!(estimate_wall_ns(0, 0), 0);
        assert_eq!(estimate_wall_ns(500, 1), 500);
        assert_eq!(estimate_wall_ns(500, 64), 500 * 64, "one timed of 64");
        assert_eq!(estimate_wall_ns(1000, 65), 1000 * 65 / 2, "two timed of 65");
        // The product outgrows a u64; the estimate does not.
        let sampled = u64::MAX / 100;
        assert_eq!(estimate_wall_ns(sampled, 6400), sampled * 64);
        assert_eq!(estimate_wall_ns(u64::MAX - 1, 1), u64::MAX - 1);
        assert_eq!(estimate_wall_ns(u64::MAX / 2, 128), u64::MAX);
    }
}
