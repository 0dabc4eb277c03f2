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
use mobility::LinkOracle;
use obs::{HeartbeatTick, Profile, RunObservation, SampleRow, Sampler, Tally, TallyMap};
use packet::{CacheDecision, DropReason, NetPacket};
use sim_core::{NodeId, SimTime};

use crate::audit::Auditor;
use crate::cachestamp::CacheStamper;
use crate::proto::RoutingAgent;
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

/// Sampler plus profile tallies; present only when obs is enabled.
pub(crate) struct ObsState {
    sampler: Sampler,
    sink: ObsSink,
    kind_count: [u64; EV_KIND_NAMES.len()],
    kind_wall_ns: [u64; EV_KIND_NAMES.len()],
    drops: TallyMap,
    traces: TallyMap,
}

impl ObsState {
    pub fn new(sampler: Sampler, sink: ObsSink) -> Box<Self> {
        Box::new(ObsState {
            sampler,
            sink,
            kind_count: [0; EV_KIND_NAMES.len()],
            kind_wall_ns: [0; EV_KIND_NAMES.len()],
            drops: TallyMap::new(),
            traces: TallyMap::new(),
        })
    }

    /// Pushes a row for every boundary due at or before `at` — several can
    /// elapse in one idle gap, and each gets the then-current gauges.
    /// Agents report through `RoutingAgent::observe`, route validity is
    /// judged by the mobility oracle at the boundary instant, and only
    /// node-order-independent aggregate counts are kept. Out of line: the
    /// per-event check in [`Observers::sample_due`] must stay a couple of
    /// inlined instructions (as one call with these arguments it cost 6 %
    /// of `static_saturated`).
    #[inline(never)]
    fn sample<A: RoutingAgent>(
        &mut self,
        at: SimTime,
        events: u64,
        agents: &[A],
        macs: &[Dcf<A::Packet>],
        oracle: &LinkOracle,
    ) {
        while self.sampler.due(at) {
            let t = self.sampler.boundary();
            let mut row = SampleRow { events, ..SampleRow::default() };
            for agent in agents {
                if let Some(ob) = agent.observe(t) {
                    row.cache_entries += ob.routes.len() as u64;
                    row.cache_valid +=
                        ob.routes.iter().filter(|r| oracle.route_valid(r.nodes(), t)).count()
                            as u64;
                    row.negative_entries += ob.negative_entries as u64;
                    row.send_buffer += ob.send_buffer as u64;
                    row.discoveries += ob.discoveries as u64;
                }
            }
            for mac in macs {
                let (control, data) = mac.queue_depths();
                row.ifq_control += control as u64;
                row.ifq_data += data as u64;
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

    /// The event at `at` is about to be dispatched, `popped` events into
    /// the run. Returns the profiler's start instant when profiling.
    #[inline]
    pub fn begin_event(&mut self, at: SimTime, end: SimTime, popped: u64) -> Option<Instant> {
        if self.audit.enabled() {
            self.audit.observe_event_time(at);
        }
        if let Some(hb) = &mut self.heartbeat {
            if popped.is_multiple_of(HEARTBEAT_EVERY) {
                hb(HeartbeatTick { now: at, end, events: popped });
            }
        }
        self.obs.as_ref().map(|_| Instant::now())
    }

    /// The dispatch `begin_event` announced has returned; `kind` indexes
    /// [`EV_KIND_NAMES`].
    #[inline]
    pub fn end_event(&mut self, started: Option<Instant>, kind: usize) {
        if let (Some(started), Some(o)) = (started, self.obs.as_mut()) {
            o.kind_count[kind] += 1;
            o.kind_wall_ns[kind] += started.elapsed().as_nanos() as u64;
        }
    }

    /// Samples every boundary due at or before `at`. The driver calls this
    /// *before* dispatching the event at `at`: rows carry the boundary
    /// time, never the event time, so identical (config, seed) pairs
    /// produce byte-identical files.
    #[inline]
    pub fn sample_due<A: RoutingAgent>(
        &mut self,
        at: SimTime,
        events: u64,
        agents: &[A],
        macs: &[Dcf<A::Packet>],
        oracle: &LinkOracle,
    ) {
        if let Some(o) = self.obs.as_mut() {
            if o.sampler.due(at) {
                o.sample(at, events, agents, macs, oracle);
            }
        }
    }

    /// The run completed: fills `profile` (whose totals the driver has
    /// set) with the tallies and hands the finished observation to the obs
    /// sink.
    pub fn finish(&mut self, mut profile: Profile) {
        let Some(obs_state) = self.obs.take() else { return };
        let ObsState { sampler, mut sink, kind_count, kind_wall_ns, drops, traces } = *obs_state;
        for (i, name) in EV_KIND_NAMES.iter().enumerate() {
            if kind_count[i] > 0 {
                profile.kinds.push(Tally {
                    name: (*name).to_string(),
                    count: kind_count[i],
                    wall_ns: kind_wall_ns[i],
                });
            }
        }
        profile.drops = drops.into_tallies();
        profile.traces = traces.into_tallies();
        sink(RunObservation { timeseries: sampler.finish(), profile });
    }

    // ------------------------------------------------------------------
    // Protocol points
    // ------------------------------------------------------------------

    /// A MAC frame left `node`'s antenna.
    pub fn on_mac_send<P: NetPacket>(&mut self, at: SimTime, node: u16, frame: &MacFrame<P>) {
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
    pub fn on_originated(&mut self, uid: u64) {
        if self.audit.enabled() {
            self.audit.on_originated(uid);
        }
    }

    /// A data packet reached its destination application at `node`;
    /// `fresh` is the metrics layer's duplicate-suppression verdict.
    #[inline]
    pub fn on_deliver(
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
    pub fn on_drop(&mut self, at: SimTime, node: u16, uid: u64, reason: DropReason) {
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
    pub fn on_ifq_drop(&mut self, uid: u64, is_control: bool) {
        if let Some(o) = self.obs.as_mut() {
            o.drops.record("IfqOverflow", 0);
        }
        if self.audit.enabled() {
            self.audit.on_ifq_dropped(uid, is_control);
        }
    }

    /// `node` started a route discovery round for `target`.
    #[inline]
    pub fn on_discovery(&mut self, at: SimTime, node: u16, target: NodeId, flood: bool) {
        self.tally_trace("discovery");
        self.emit(at, node, || TraceKind::Discovery { target, flood });
    }

    /// Link-layer feedback at `node` declared the link to `to` broken.
    #[inline]
    pub fn on_link_break(&mut self, at: SimTime, node: u16, to: NodeId) {
        self.tally_trace("link_break");
        self.emit(at, node, || TraceKind::LinkBreak { to });
    }

    #[inline]
    pub fn on_preemptive_repair(&mut self) {
        self.tally_trace("preemptive_repair");
    }

    #[inline]
    pub fn on_failover(&mut self) {
        self.tally_trace("failover");
    }

    /// An agent made a cache decision. Agents only emit these while a
    /// stamper is installed, but an event can outlive the recorder in
    /// principle; dropping it is always safe.
    #[inline]
    pub fn on_cache_decision(
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
