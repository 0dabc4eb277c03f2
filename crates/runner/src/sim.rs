//! The discrete-event simulation driver.
//!
//! Owns every layer instance (mobility model, per-node radio receiver
//! states, MACs, routing agents), the global event queue, and the metrics
//! collector, and shuttles commands between them:
//!
//! ```text
//! traffic event ──> agent ──Send──> Dcf ──StartTx──> channel (the sender's link plan)
//!                     ▲                ▲                     │
//!                     │ Deliver/Snoop/ │ timers, carrier     │ ArrivalBoundary ─> Arrival
//!                     │ TxFailed       │ updates             │ CarrierSense
//!                     └──────────────  Dcf <── ReceiverState ┘
//! ```
//!
//! Who senses a sender, how loudly and how late depends on the positions
//! alone, so `StartTx` reads it from the sender's *link plan*
//! (`sim/plans.rs`, DESIGN.md §9), built once per position snapshot, and
//! adds only what differs per frame.
//!
//! Arrival scheduling is lazy (DESIGN.md §11): `StartTx` plans every
//! sensed arrival into the receivers' pending sets, but only decodable
//! frames get an `ArrivalBoundary` event (whose dispatch settles the lock
//! and schedules the `Arrival` decode at frame end) and only
//! reactive-receiver sub-RX frames get a `CarrierSense` nudge. Everything
//! else folds into the interference envelope inside later receiver
//! probes, never entering the queue. What one transmission does ask of
//! the queue travels under one key, as a *front* (`sim/fronts.rs`,
//! DESIGN.md §9): the run loop delivers its boundaries one by one, each
//! exactly when the queue would have. Fault plans run on the same path:
//! corruption is drawn at plan time into the pending entries, and
//! suppression windows (node down, blackouts, radio sleep) force every
//! affected boundary to be backed by a real event so it can be gated at
//! dispatch time.
//!
//! The driver is split along the seams that need no access to it:
//! `faults.rs` keeps the fault-window bookkeeping, and `observers.rs` is
//! the single seam through which the trace sink, obs sampler, auditor,
//! cache-decision stamper (`cachestamp.rs`) and heartbeat watch a run.
//!
//! The driver is generic over the routing protocol via [`RoutingAgent`]
//! (DSR by default; AODV in the `aodv` crate). Everything is deterministic
//! for a given [`ScenarioConfig`] (seeded RNG streams, FIFO tie-breaking in
//! the event queue, fixed iteration order).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsr::DsrNode;
use mac::{Dcf, MacCommand, MacTimer, Priority};
use metrics::{Metrics, Report};
use mobility::{LinkOracle, MobilityModel, Point, RandomWaypoint, StaticPositions};
use obs::{Profile, RunObservation, Sampler};
use packet::{AgentCommand, NetPacket, ProtocolEvent, RoutingAgent};
use phy::{PendingArrival, ReceiverState, TxId, TxIdSource};
use sim_core::{
    EventId, EventQueue, NodeId, RngFactory, SimDuration, SimRng, SimTime, U64HashMap, U64HashSet,
};
use traffic::{generate_flows, CbrFlow};

use crate::audit::{AuditLevel, Auditor};
use crate::cachestamp::CacheStamper;
pub use crate::cachestamp::{CacheTraceBuf, CACHETRACE_MAX_ROWS};
use crate::campaign::{RunError, RunLimits};
use crate::config::{FaultEvent, MobilitySpec, ScenarioConfig};
use crate::faults::FaultState;
use crate::observers::{on_stride, ObsState, Observers};
pub use crate::observers::{HeartbeatSink, ObsSink};
use crate::trace::TraceSink;

use frames::Frames;
use fronts::{Fronts, MemberKind};
use plans::LinkPlans;

#[cfg(test)]
mod agent_pool;
#[cfg(test)]
pub(crate) mod dispatch_order;
mod frames;
mod fronts;
mod plans;
#[cfg(test)]
mod timer_faults;

/// Profiler names for [`Ev`] variants, indexed by [`ev_kind_index`].
pub(crate) const EV_KIND_NAMES: [&str; 9] = [
    "mac_timer",
    "agent_timer",
    "agent_send",
    "traffic",
    "fault_start",
    "fault_end",
    "arrival",
    "carrier_sense",
    "arrival_boundary",
];

fn ev_kind_index<P, T>(ev: &Ev<P, T>) -> usize {
    match ev {
        Ev::MacTimer { .. } => 0,
        Ev::AgentTimer { .. } => 1,
        Ev::AgentSend { .. } => 2,
        Ev::Traffic { .. } => 3,
        Ev::FaultStart { .. } => 4,
        Ev::FaultEnd { .. } => 5,
        Ev::Arrival { .. } => 6,
        Ev::CarrierSense { .. } => 7,
        Ev::ArrivalBoundary { .. } => 8,
        Ev::Front { .. } => unreachable!("a front is dispatched as its members, under their kinds"),
    }
}

/// Global simulation events.
enum Ev<P, T> {
    MacTimer {
        node: u16,
        timer: MacTimer,
    },
    AgentTimer {
        node: u16,
        timer: T,
    },
    /// A jittered agent send whose delay elapsed: hand to the MAC now.
    AgentSend {
        node: u16,
        packet: P,
        next_hop: NodeId,
    },
    /// The start boundary of a *decodable* arrival (power ≥ RX threshold):
    /// folds the boundary, notifies the MAC of the carrier, and schedules
    /// the decode ([`Ev::Arrival`]) only if the frame actually locked and
    /// someone cares about its end. The arrival's data lives in the
    /// envelope's pending entry. Only ever a member of front `front`,
    /// which is also where the decode goes.
    ArrivalBoundary {
        rx: u16,
        tx_id: TxId,
        front: u32,
    },
    /// The decode boundary of a locked frame, scheduled at the seq its
    /// start boundary reserved for it.
    Arrival {
        rx: u16,
        tx_id: TxId,
    },
    /// A sub-RX carrier boundary materialized because the receiver's MAC
    /// was in a carrier-reactive state (freeze/recheck transitions need a
    /// real notification, not a lazy merge) or a suppression window was
    /// open. Scheduled at the start boundary's reserved seq.
    CarrierSense {
        rx: u16,
    },
    Traffic {
        flow: usize,
        k: u64,
    },
    /// Scheduled fault `idx` of the scenario's fault plan activates.
    FaultStart {
        idx: usize,
    },
    /// Scheduled fault `idx` deactivates (node back up, window over).
    FaultEnd {
        idx: usize,
    },
    /// The evented boundaries of one transmission, in block `idx` of the
    /// front slab, queued under the key of the next of them. Never
    /// dispatched as such: [`Simulator::run_front`] dispatches the members.
    Front {
        idx: u32,
    },
}

/// What [`Simulator::try_run`] carries from one dispatch to the next to
/// enforce its [`RunLimits`].
struct Watch {
    wall_started: Instant,
    /// Event-budget window: when the current simulated second began, and
    /// `popped()` at that instant.
    window_start: SimTime,
    window_base: u64,
}

/// Arms a timer for `at`, replacing the pending arm `old` of the same
/// timer if there is one. A re-arm to a later (or the same) instant — what
/// the DCF does to `Recheck` on every extension of the busy horizon —
/// moves the queued event in place; anything else is cancel + schedule.
/// Both consume exactly one seq, here, so the choice never shows in the
/// dispatch order. `ev` is the payload a fresh event gets; a moved one
/// keeps its own, which names the same node and timer.
fn rearm<P, T>(
    queue: &mut EventQueue<Ev<P, T>>,
    old: Option<EventId>,
    at: SimTime,
    ev: Ev<P, T>,
) -> EventId {
    if let Some(old) = old {
        if let Some(moved) = queue.postpone(old, at) {
            return moved;
        }
        queue.cancel(old);
    }
    queue.schedule(at, ev)
}

/// One fully assembled simulation run over routing protocol `A`
/// (DSR unless specified otherwise).
pub struct Simulator<A: RoutingAgent = DsrNode> {
    cfg: ScenarioConfig,
    label: String,
    queue: EventQueue<Ev<A::Packet, A::Timer>>,
    now: SimTime,
    end: SimTime,
    macs: Vec<Dcf<A::Packet>>,
    agents: Vec<A>,
    /// Per-node receivers. An entry that may decode holds `Some(())`: the
    /// frame itself is in `frames`, under the entry's tx id.
    rx_states: Vec<ReceiverState<()>>,
    /// Every transmission's frame, until its last decode is past.
    frames: Frames<A::Packet>,
    mobility: Arc<dyn MobilityModel>,
    oracle: LinkOracle,
    metrics: Metrics,
    /// Pending MAC timer per (node, timer kind) — a dense array because
    /// `MacTimer` has few kinds and timers are re-armed tens of millions
    /// of times per run (a per-node `HashMap` was measurable).
    mac_timers: Vec<[Option<EventId>; MacTimer::KINDS]>,
    agent_timers: Vec<U64HashMap<A::Timer, EventId>>,
    tx_ids: TxIdSource,
    flows: Vec<CbrFlow>,
    /// Snapshot of the node positions, re-taken every `position_refresh`
    /// and replaced when the new one differs.
    positions: Vec<Point>,
    positions_at: SimTime,
    /// Scratch: the snapshot just taken, until it is compared.
    fresh_positions: Vec<Point>,
    /// The neighbor grid and the link plans over `positions`.
    plans: LinkPlans,
    /// Scratch: materialized carrier-sense boundary keys (reused per
    /// input).
    cs_buf: Vec<(SimTime, u64)>,
    /// Seq of the event currently being dispatched — with `now`, the
    /// dispatch frontier bounding every lazy envelope fold.
    cur_seq: u64,
    /// Arrivals planned (each has two boundaries, a start and an end).
    arrivals_planned: u64,
    /// Boundary events actually scheduled (`ArrivalBoundary`,
    /// `CarrierSense`, `Arrival`), as front members or by themselves; the
    /// shortfall against `2 * arrivals_planned` is the envelope's inline
    /// work.
    boundary_scheduled: u64,
    /// One block per transmission with evented boundaries in flight.
    fronts: Fronts,
    /// Boundaries booked into a front — starts at plan time, decodes when
    /// their frame locks — and queue keys filed for fronts: see
    /// [`Simulator::events_scheduled`].
    front_members: u64,
    front_keys: u64,
    /// Pool of MAC command buffers. MAC inputs fire on every arrival and
    /// timer event; pooling removes one heap allocation per input. A pool
    /// (not a single buffer) because command application re-enters the MAC
    /// (deliver → route → enqueue) while outer buffers are still draining.
    mac_cmd_pool: Vec<Vec<MacCommand<A::Packet>>>,
    /// Pool of agent command buffers: every agent input (a decoded frame, a
    /// timer, an origination) appends to a buffer drawn from here. A pool,
    /// like `mac_cmd_pool`, so that an input made while another input's
    /// commands are still being applied draws a buffer of its own.
    agent_cmd_pool: Vec<Vec<AgentCommand<A::Packet, A::Timer>>>,
    /// Watchdog limits enforced by [`Simulator::try_run`].
    limits: RunLimits,
    /// Which nodes are down and which fault windows are open.
    faults: FaultState,
    /// Trace sink, obs sampler, auditor, cache-decision stamper and
    /// heartbeat: all off by default, and inert when off.
    observers: Observers,
}

impl<A: RoutingAgent> std::fmt::Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("label", &self.label)
            .field("nodes", &self.macs.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulator<DsrNode> {
    /// Builds a DSR run from its configuration (generating the mobility
    /// scenario and workload from the seed).
    pub fn new(cfg: ScenarioConfig) -> Self {
        let label = cfg.dsr.label();
        let dsr = cfg.dsr.clone();
        Simulator::with_agents(cfg, label, move |node, rng| DsrNode::new(node, dsr.clone(), rng))
    }
}

impl<A: RoutingAgent> Simulator<A> {
    /// Builds a run over an arbitrary routing protocol: `make_agent` is
    /// called once per node with the node id and its per-node RNG stream.
    /// The DSR settings inside `cfg` are ignored on this path.
    pub fn with_agents(
        cfg: ScenarioConfig,
        label: impl Into<String>,
        mut make_agent: impl FnMut(NodeId, SimRng) -> A,
    ) -> Self {
        let factory = RngFactory::new(cfg.seed);
        let mobility: Arc<dyn MobilityModel> = match &cfg.mobility {
            MobilitySpec::Waypoint(w) => Arc::new(RandomWaypoint::generate(w, factory)),
            MobilitySpec::Static(points) => Arc::new(StaticPositions::new(points.clone())),
        };
        let n = mobility.num_nodes();
        let oracle = LinkOracle::new(Arc::clone(&mobility), cfg.radio.nominal_range_m());
        let macs = (0..n)
            .map(|i| {
                Dcf::new(NodeId::new(i as u16), cfg.mac.clone(), factory.stream("mac", i as u64))
            })
            .collect();
        let agents = (0..n)
            .map(|i| make_agent(NodeId::new(i as u16), factory.stream("dsr", i as u64)))
            .collect();
        let flows = generate_flows(n, &cfg.traffic, factory);
        let positions = mobility.snapshot(SimTime::ZERO);
        let plans = LinkPlans::new(&cfg.radio, &positions);
        let end = SimTime::ZERO + cfg.duration;
        Simulator {
            label: label.into(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            end,
            macs,
            agents,
            rx_states: (0..n).map(|_| ReceiverState::new(cfg.radio)).collect(),
            frames: Frames::new(),
            mobility,
            oracle,
            metrics: Metrics::new(),
            mac_timers: vec![[None; MacTimer::KINDS]; n],
            agent_timers: (0..n).map(|_| U64HashMap::default()).collect(),
            tx_ids: TxIdSource::new(),
            flows,
            positions,
            positions_at: SimTime::ZERO,
            fresh_positions: Vec::with_capacity(n),
            plans,
            cs_buf: Vec::new(),
            cur_seq: 0,
            arrivals_planned: 0,
            boundary_scheduled: 0,
            fronts: Fronts::new(n),
            front_members: 0,
            front_keys: 0,
            mac_cmd_pool: Vec::new(),
            agent_cmd_pool: Vec::new(),
            limits: RunLimits::default(),
            faults: FaultState::new(n, cfg.faults.events.len(), factory.stream("fault", 0)),
            observers: Observers::default(),
            cfg,
        }
    }

    /// Overrides the watchdog limits enforced by [`Simulator::try_run`].
    pub fn set_limits(&mut self, limits: RunLimits) {
        self.limits = limits;
    }

    /// Enables conservation auditing at `level`.
    pub fn set_audit(&mut self, level: AuditLevel) {
        self.observers.audit = Auditor::new(level);
    }

    /// The ground-truth oracle (for external validation and tests).
    pub fn oracle(&self) -> &LinkOracle {
        &self.oracle
    }

    /// The generated workload.
    pub fn flows(&self) -> &[CbrFlow] {
        &self.flows
    }

    /// Read access to a node's routing agent (tests and examples).
    pub fn agent(&self, node: NodeId) -> &A {
        &self.agents[node.index()]
    }

    /// Registers a packet-trace sink receiving a [`crate::TraceEvent`] per MAC
    /// transmission, delivery, drop, link break, and discovery round.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.observers.trace = Some(sink);
    }

    /// Enables the time-series sampler and event-loop profiler. Gauges are
    /// sampled inline at every `interval` boundary of simulated time — no
    /// events are scheduled and no RNG is drawn, so the `Report` of an
    /// instrumented run is byte-identical to an uninstrumented one. The
    /// profiler counts every dispatch and times one in 64 of each kind; it
    /// calibrates its clock's cost here, before the run. `sink` receives
    /// the completed [`obs::RunObservation`] when the run succeeds.
    pub fn set_obs(&mut self, interval: SimDuration, sink: ObsSink) {
        let fingerprint = crate::forensics::config_fingerprint(&self.cfg);
        let sampler = Sampler::new(self.label.clone(), self.cfg.seed, fingerprint, interval);
        self.observers.obs = Some(ObsState::new(sampler, sink));
    }

    /// Registers a heartbeat sink pulsed every 8192 dispatched events
    /// (live campaign progress).
    pub fn set_heartbeat(&mut self, sink: HeartbeatSink) {
        self.observers.heartbeat = Some(sink);
    }

    /// Enables cache-decision tracing: every agent starts emitting
    /// [`packet::CacheDecision`] events, and the driver stamps each one with the
    /// mobility oracle's verdict before appending it to `buf`. Pure
    /// observation — no events are scheduled and no RNG is drawn, so the
    /// `Report` of a traced run is byte-identical to an untraced one, and
    /// the rows arrive in event-dispatch order, which the supervised
    /// executor makes independent of the worker count.
    pub fn set_cachetrace(&mut self, buf: Arc<Mutex<CacheTraceBuf>>) {
        for agent in &mut self.agents {
            agent.set_decision_trace(true);
        }
        self.observers.cachetrace = Some(CacheStamper::new(buf, self.agents.len()));
    }

    /// Runs the simulation to completion and returns the metrics report,
    /// labelled with the protocol variant.
    ///
    /// # Panics
    ///
    /// Panics if the run trips a watchdog ([`RunError`]); campaign code
    /// should prefer [`Simulator::try_run`], which surfaces the error.
    pub fn run(self) -> Report {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run`] with the sampler and profiler on at `interval`
    /// ([`Simulator::set_obs`]): the report and the run's observation.
    pub fn run_sampled(mut self, interval: SimDuration) -> (Report, RunObservation) {
        let slot: Arc<Mutex<Option<RunObservation>>> = Arc::default();
        let sink = Arc::clone(&slot);
        self.set_obs(interval, Box::new(move |o| *sink.lock().expect("obs slot") = Some(o)));
        let report = self.run();
        let observation = slot.lock().expect("obs slot").take().expect("a completed run");
        (report, observation)
    }

    /// Runs the simulation to completion, enforcing the configured
    /// [`RunLimits`]: simulated time must never regress, each simulated
    /// second may cost at most `max_events_per_sim_second` events (a
    /// zero-progress event storm becomes [`RunError::EventBudgetExhausted`]
    /// instead of a hang), and the whole run must finish within
    /// `wall_clock` if one is set.
    pub fn try_run(mut self) -> Result<Report, RunError> {
        let seed = self.cfg.seed;
        // Boot the agents' periodic timers.
        for i in 0..self.agents.len() {
            self.agent_input(i as u16, |agent, cmds| agent.start(SimTime::ZERO, cmds));
        }
        // Schedule the first packet of every flow.
        for (idx, flow) in self.flows.iter().enumerate() {
            if flow.send_time(0) <= self.end {
                self.queue.schedule(flow.send_time(0), Ev::Traffic { flow: idx, k: 0 });
            }
        }
        // Schedule the scenario's fault plan.
        for (idx, fault) in self.cfg.faults.events.iter().enumerate() {
            let at = fault.starts_at();
            if at <= self.end {
                self.queue.schedule(at, Ev::FaultStart { idx });
            }
        }
        let mut watch = Watch {
            wall_started: Instant::now(),
            window_start: SimTime::ZERO,
            window_base: self.queue.popped(),
        };
        // The event that overruns the horizon is not dispatched, but any
        // packet it carries is still in flight for conservation purposes.
        let mut cutoff: Option<Ev<A::Packet, A::Timer>> = None;
        while let Some((at, seq, ev)) = self.queue.pop_with_seq() {
            if at > self.end {
                cutoff = Some(ev);
                break;
            }
            match ev {
                Ev::Front { idx } => self.run_front(idx, &mut watch)?,
                ev => self.step(at, seq, ev, &mut watch)?,
            }
        }
        // Flush the sampler to the horizon and freeze the dispatch count
        // before the audit drains the queue (draining bumps `popped`). The
        // queue counted the cutoff when it popped it, but it never ran.
        let popped = self.queue.popped();
        let dispatched = popped - u64::from(cutoff.is_some());
        self.observers.sample_due(
            self.end,
            dispatched,
            &self.metrics,
            &self.agents,
            &self.macs,
            &self.oracle,
        );
        if self.observers.audit.enabled() {
            if let Some(v) = self.close_audit(cutoff) {
                return Err(RunError::ConservationViolation { seed, uid: v.uid, detail: v.detail });
            }
        }
        let scheduled = self.events_scheduled();
        #[cfg(test)]
        dispatch_order::note_totals(popped, scheduled, self.queue.postponed());
        let sim_seconds = self.cfg.duration.as_secs();
        let report = self.metrics.report(self.label.clone(), sim_seconds);
        // Arrival boundaries the envelopes settled without a queue event
        // (past the horizon included: planned work is the denominator).
        // They count on both sides of the ledger — scheduled work that was
        // dispatched as part of another input — so
        // `scheduled >= events >= dispatched` holds and `cancelled` stays
        // a pure queue figure.
        let inline = (2 * self.arrivals_planned).saturating_sub(self.boundary_scheduled);
        self.observers.finish(Profile {
            runs: 1,
            sim_seconds,
            wall_seconds: watch.wall_started.elapsed().as_secs_f64(),
            events: dispatched + inline,
            dispatched,
            scheduled: scheduled + inline,
            cancelled: scheduled.saturating_sub(dispatched),
            postponed: self.queue.postponed(),
            rekeyed: self.queue.rekeyed(),
            ..Profile::default()
        });
        Ok(report)
    }

    /// Events handed to the queue so far, a front counted as its members:
    /// every start boundary booked when it was planned and every decode
    /// when its frame locked, so a front the horizon cuts short still
    /// counts in full and "scheduled − dispatched" stays "armed, never
    /// fired". The queue itself counts keys, and a front is one key plus
    /// one per interruption.
    fn events_scheduled(&self) -> u64 {
        self.queue.scheduled() + self.front_members - self.front_keys
    }

    /// Dispatches the event keyed `(at, seq)` — popped from the queue or
    /// taken from a front, which must make no difference — after the
    /// watchdog checks: simulated time never regresses, the event budget
    /// of the current simulated second, the wall clock.
    #[inline]
    fn step(
        &mut self,
        at: SimTime,
        seq: u64,
        ev: Ev<A::Packet, A::Timer>,
        watch: &mut Watch,
    ) -> Result<(), RunError> {
        let seed = self.cfg.seed;
        if at < self.now {
            return Err(RunError::TimeRegression { seed, now: self.now, event_at: at });
        }
        // This dispatch included: the queue counts a delivery before it.
        let popped = self.queue.popped();
        if let Some(budget) = self.limits.max_events_per_sim_second {
            if at.saturating_since(watch.window_start) >= SimDuration::from_secs(1.0) {
                watch.window_start = at;
                watch.window_base = popped;
            }
            let in_window = popped - watch.window_base;
            if in_window > budget {
                return Err(RunError::EventBudgetExhausted { seed, at, events: in_window });
            }
        }
        if let Some(limit) = self.limits.wall_clock {
            if on_stride(popped - 1) && watch.wall_started.elapsed() >= limit {
                return Err(RunError::WatchdogTimeout { seed, at });
            }
        }
        // A row counts the events dispatched before its boundary: this one
        // is not yet.
        self.observers.sample_due(
            at,
            popped - 1,
            &self.metrics,
            &self.agents,
            &self.macs,
            &self.oracle,
        );
        let kind = ev_kind_index(&ev);
        let started = self.observers.begin_event(at, self.end, popped, kind);
        self.now = at;
        // The dispatch frontier `(now, cur_seq)`: lazy envelope
        // boundaries fold up to exactly this key, so same-instant
        // boundaries settle in the queue's FIFO order.
        self.cur_seq = seq;
        #[cfg(test)]
        dispatch_order::note(at, seq, kind, dispatch_order::ev_node(&ev));
        self.dispatch(ev);
        self.observers.end_event(started, kind);
        Ok(())
    }

    /// Front `idx` surfaced, under the key of its next member: delivers
    /// that member, and then each further one for as long as the queue has
    /// nothing due before it — the pops the queue would have made, had
    /// every member been queued by itself, in the same order, each booked
    /// so that `popped()` reads the same at every dispatch. The moment
    /// something else is due first (or the horizon comes first) the front
    /// goes back into the queue under the key of the member it stopped at.
    fn run_front(&mut self, idx: u32, watch: &mut Watch) -> Result<(), RunError> {
        loop {
            let due = self.fronts.take(idx);
            let (rx, tx_id) = (due.rx, due.tx_id);
            let ev = match due.kind {
                MemberKind::Boundary => Ev::ArrivalBoundary { rx, tx_id, front: idx },
                MemberKind::CarrierSense => Ev::CarrierSense { rx },
                MemberKind::Decode => Ev::Arrival { rx, tx_id },
            };
            self.step(due.at, due.seq, ev, watch)?;
            let Some((at, seq, near)) = self.fronts.next_key(idx) else { return Ok(()) };
            if at > self.end || self.queue.due_before(at, seq) {
                self.file_front(idx, at, seq, near);
                return Ok(());
            }
            self.queue.book_delivery();
        }
    }

    /// Queues front `idx` under `(at, seq)`, its next member's key: in the
    /// lane when that is `near`, in the heap when it is an airtime away.
    fn file_front(&mut self, idx: u32, at: SimTime, seq: u64, near: bool) {
        if near {
            self.queue.schedule_near(at, seq, Ev::Front { idx });
        } else {
            self.queue.schedule_at_seq(at, seq, Ev::Front { idx });
        }
        self.front_keys += 1;
    }

    /// Closes the conservation ledger: collects every uid still buffered
    /// (agents, MACs, undispatched events — including the event that broke
    /// the main loop), runs the protocol-invariant sweep, and returns the
    /// first violation, if any.
    fn close_audit(
        &mut self,
        cutoff: Option<Ev<A::Packet, A::Timer>>,
    ) -> Option<crate::audit::Violation> {
        // Only a jittered send still carries its packet inside the event.
        let uid = |ev: &Ev<A::Packet, A::Timer>| match ev {
            Ev::AgentSend { packet, .. } => Some(packet.uid()),
            _ => None,
        };
        let mut in_flight: U64HashSet<u64> = cutoff.as_ref().and_then(uid).into_iter().collect();
        while let Some((_, ev)) = self.queue.pop() {
            in_flight.extend(uid(&ev));
        }
        for agent in &self.agents {
            in_flight.extend(agent.buffered_uids());
        }
        for mac in &self.macs {
            in_flight.extend(mac.pending_payloads().map(|p| p.uid()));
        }
        in_flight.extend(self.held_uids());
        let audit = &mut self.observers.audit;
        if audit.level() == AuditLevel::Full {
            let broken = self.agents.iter().find_map(|a| a.invariant_violation(self.now));
            if let Some(detail) = broken {
                audit.on_invariant_violation(detail);
            }
        }
        let violation = audit.finish(&in_flight);
        #[cfg(test)]
        dispatch_order::note_audit(audit.summary(), &in_flight, self.held_uids().collect());
        violation
    }

    /// Uids of the frames the receivers still hold (locked or queued
    /// pending): in flight. A held frame the store has released is a
    /// control frame's lock the envelope expires itself, past its end
    /// (a data frame's decode is always evented): it has no payload.
    fn held_uids(&self) -> impl Iterator<Item = u64> + '_ {
        self.rx_states.iter().flat_map(move |state| {
            state.payloads().filter_map(move |(tx_id, ())| {
                let Some(frame) = self.frames.get(tx_id) else {
                    debug_assert!(state.lazily_held(tx_id), "tx {tx_id} released while held");
                    return None;
                };
                frame.payload.as_ref().map(|p| p.uid())
            })
        })
    }

    fn dispatch(&mut self, ev: Ev<A::Packet, A::Timer>) {
        match ev {
            Ev::MacTimer { node, timer } => {
                if self.faults.is_down(node as usize) {
                    // Suspended while the node is down: fires on wake-up.
                    let at = self.faults.up_at(node as usize);
                    let id = self.queue.schedule(at, Ev::MacTimer { node, timer });
                    self.mac_timers[node as usize][timer.index()] = Some(id);
                    return;
                }
                self.mac_timers[node as usize][timer.index()] = None;
                let now = self.now;
                self.mac_input(node, |mac, cmds| mac.on_timer_into(timer, now, cmds));
            }
            Ev::AgentTimer { node, timer } => {
                if self.faults.is_down(node as usize) {
                    let at = self.faults.up_at(node as usize);
                    let id = self.queue.schedule(at, Ev::AgentTimer { node, timer });
                    self.agent_timers[node as usize].insert(timer, id);
                    return;
                }
                self.agent_timers[node as usize].remove(&timer);
                let now = self.now;
                self.agent_input(node, |agent, cmds| agent.on_timer(timer, now, cmds));
            }
            Ev::AgentSend { node, packet, next_hop } => {
                if self.faults.is_down(node as usize) {
                    let at = self.faults.up_at(node as usize);
                    self.queue.schedule(at, Ev::AgentSend { node, packet, next_hop });
                    return;
                }
                self.hand_to_mac(node, packet, next_hop);
            }
            Ev::ArrivalBoundary { rx, tx_id, front } => {
                // Start boundary of a decodable arrival: fold, then carrier
                // notification, then the end boundary's seq reservation —
                // in that order, so the decode's seq comes after any timer
                // the notification arms at this instant.
                if self.rx_suppressed(rx) {
                    // Suppressed at the start boundary: the entry must
                    // vanish before any commit folds it, so this copy's
                    // energy never lands.
                    let removed = self.rx_states[rx as usize].suppress_pending(self.cur_seq);
                    debug_assert!(removed, "boundary event with no pending entry");
                    if removed {
                        self.metrics.record_arrivals_suppressed(1);
                    }
                    return;
                }
                let reactive = self.macs[rx as usize].carrier_reactive();
                let locked =
                    self.rx_states[rx as usize].settle_start(tx_id, self.now, self.cur_seq);
                self.notify_busy(rx);
                if locked {
                    let end_seq = self.queue.reserve_seq();
                    // While any suppression window is open the lock must
                    // be force-evented: a lazily expired lock credits its
                    // NAV unconditionally, but the end boundary may need
                    // gating (the node can crash, fall asleep, or drift
                    // into a blackout region before the frame ends).
                    let evented = reactive || self.faults.suppression_active();
                    if let Some(end) =
                        self.rx_states[rx as usize].finalize_lock(tx_id, end_seq, evented)
                    {
                        self.boundary_scheduled += 1;
                        // The shortest frame (248 µs) outlasts the longest
                        // propagation delay (1.84 µs at 550 m), and the
                        // longest fits a member's offset (DESIGN §9).
                        let filed = self.fronts.push_decode(front, end, end_seq, rx);
                        assert!(
                            filed,
                            "front refused a decode: a frame's airtime must exceed the \
                             propagation spread and stay under u32::MAX ns"
                        );
                        self.front_members += 1;
                    }
                }
            }
            Ev::Arrival { rx, tx_id } => {
                // Decode boundary: settle the envelope at the frame's end
                // (its energy leaves the air either way) and deliver if it
                // survived (still locked, never corrupted, transmitter
                // off) — unless a fault suppresses the receiver right now.
                if self.rx_states[rx as usize].decode(tx_id, self.now, self.cur_seq).is_some() {
                    if self.rx_suppressed(rx) {
                        return;
                    }
                    self.mac_receive(rx, tx_id);
                }
            }
            Ev::CarrierSense { rx } => {
                // Materialized carrier boundary: fold everything due
                // (including this event's own sub-RX start, keyed exactly
                // at the frontier) and notify the MAC so its
                // freeze/recheck transitions fire at the boundary instant.
                if self.rx_suppressed(rx) {
                    // Suppressed sub-RX start: remove the entry before any
                    // fold, so its energy never lands. (Every entry inside
                    // a suppression window is evented, so the removal
                    // always finds it.)
                    if self.rx_states[rx as usize].suppress_pending(self.cur_seq) {
                        self.metrics.record_arrivals_suppressed(1);
                    }
                    return;
                }
                self.notify_busy(rx);
            }
            Ev::Traffic { flow, k } => {
                let f = self.flows[flow];
                // A crashed source's application is down with it: the
                // packet is never originated (but the flow resumes later).
                if !self.faults.is_down(f.src.index()) {
                    self.metrics.record_origination();
                    let now = self.now;
                    self.agent_input(f.src.index() as u16, |agent, cmds| {
                        agent.originate(f.dst, f.packet_bytes, now, cmds)
                    });
                }
                let next = f.send_time(k + 1);
                if next <= self.end {
                    self.queue.schedule(next, Ev::Traffic { flow, k: k + 1 });
                }
            }
            Ev::FaultStart { idx } => self.fault_start(idx),
            Ev::FaultEnd { idx } => self.fault_end(idx),
            Ev::Front { .. } => unreachable!("the run loop hands fronts to run_front"),
        }
    }

    /// Tells `rx`'s MAC the medium is busy, if the receiver senses it so
    /// at the dispatch frontier.
    #[inline]
    fn notify_busy(&mut self, rx: u16) {
        if let Some(horizon) = self.rx_states[rx as usize].busy_until(self.now, self.cur_seq) {
            let now = self.now;
            self.mac_input(rx, |mac, cmds| mac.on_channel_busy_into(now, horizon, cmds));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Whether a fault keeps `rx` from sensing anything right now: the
    /// node is down, or sits inside an open blackout region.
    #[inline]
    fn rx_suppressed(&self, rx: u16) -> bool {
        self.faults.is_down(rx as usize)
            || self.faults.in_blackout(&self.cfg.faults.events, self.positions[rx as usize])
    }

    /// Counts fault `idx` in the metrics the first time it fires.
    fn count_fault_once(&mut self, idx: usize) {
        if self.faults.count_once(idx) {
            self.metrics.record_fault_injected();
        }
    }

    /// Crash-style bring-down shared by [`FaultEvent::NodeDown`] and
    /// [`FaultEvent::NodeChurn`]: flags the node, extends its wake-up, and
    /// wipes the radio — in-flight receptions die and carrier state
    /// resets, but arrivals still propagating toward the node stay pending
    /// (their delivery is gated on the node being up when they land).
    fn crash_node(&mut self, i: usize, down_for: SimDuration) {
        self.faults.take_down(i, self.now + down_for);
        let (now, seq) = (self.now, self.cur_seq);
        self.rx_states[i].crash_reset(now, seq);
        self.event_pending_boundaries(i as u16);
    }

    /// When a suppression window opens over `node`, every pending arrival
    /// boundary there must be backed by a real queue event — a lazy fold
    /// has no hook to consult the fault state. Commits to the current
    /// frontier first so the reserved keys being materialized are never in
    /// the past.
    fn materialize_suppressed(&mut self, node: u16) {
        let (now, seq) = (self.now, self.cur_seq);
        self.rx_states[node as usize].commit(now, seq);
        self.event_pending_boundaries(node);
    }

    fn fault_start(&mut self, idx: usize) {
        let nodes = self.macs.len();
        let fault = self.cfg.faults.events[idx].clone();
        match fault {
            FaultEvent::NodeDown { node, down_for, .. }
            | FaultEvent::NodeChurn { node, down_for, .. } => {
                let i = node.index();
                if i >= nodes {
                    return; // fault targets a node outside the scenario
                }
                self.count_fault_once(idx);
                self.crash_node(i, down_for);
                if matches!(fault, FaultEvent::NodeChurn { .. }) {
                    // The reset runs at whichever wake-up actually revives
                    // the node — an overlapping crash can extend the outage
                    // past this churn's own end event.
                    self.faults.owe_churn_reset(i);
                }
                self.queue.schedule(self.faults.up_at(i), Ev::FaultEnd { idx });
            }
            FaultEvent::RadioDutyCycle { node, off_for, until, .. } => {
                let i = node.index();
                if i >= nodes || self.now >= until {
                    return;
                }
                self.count_fault_once(idx);
                self.faults.take_down(i, self.now + off_for);
                // Sleep, not a crash: radio and protocol state survive —
                // but in-window boundaries must still be gated, so they
                // get evented.
                self.materialize_suppressed(i as u16);
                self.queue.schedule(self.faults.up_at(i), Ev::FaultEnd { idx });
            }
            FaultEvent::RegionBlackout { down_for, .. } => {
                self.count_fault_once(idx);
                self.faults.open_window(idx, true);
                // Any node can sit in (or drift into) the region, so every
                // receiver's boundaries get evented.
                for node in 0..nodes {
                    self.materialize_suppressed(node as u16);
                }
                self.queue.schedule(self.now + down_for, Ev::FaultEnd { idx });
            }
            FaultEvent::FrameCorruption { from, until, .. } => {
                if until <= from {
                    return; // empty window
                }
                self.count_fault_once(idx);
                self.faults.open_window(idx, false);
                self.queue.schedule(until, Ev::FaultEnd { idx });
            }
            FaultEvent::Panic { only_seed, .. } => {
                if only_seed.is_none_or(|s| s == self.cfg.seed) {
                    panic!(
                        "fault injection: scheduled panic at {} (seed {})",
                        self.now, self.cfg.seed
                    );
                }
            }
            FaultEvent::EventStorm { only_seed, .. } => {
                if only_seed.is_none_or(|s| s == self.cfg.seed) {
                    self.count_fault_once(idx);
                    // Perpetual zero-progress self-rescheduling: simulated
                    // time never advances, so only the event budget (or the
                    // wall-clock watchdog) stops it.
                    self.queue.schedule(self.now, Ev::FaultStart { idx });
                }
            }
        }
    }

    fn fault_end(&mut self, idx: usize) {
        match self.cfg.faults.events[idx] {
            FaultEvent::NodeDown { node, .. } | FaultEvent::NodeChurn { node, .. } => {
                self.wake_node(node);
            }
            FaultEvent::RadioDutyCycle { node, on_for, until, .. } => {
                self.wake_node(node);
                // Re-arm the next sleep window; the cycle self-schedules
                // with no RNG draws, so the plan stays deterministic.
                let next = self.now + on_for;
                if next < until && next <= self.end {
                    self.queue.schedule(next, Ev::FaultStart { idx });
                }
            }
            FaultEvent::RegionBlackout { .. } => self.faults.close_window(idx, true),
            FaultEvent::FrameCorruption { .. } => self.faults.close_window(idx, false),
            FaultEvent::Panic { .. } | FaultEvent::EventStorm { .. } => {}
        }
    }

    /// A wake-up event for `node` fired. Overlapping outages extend the
    /// wake-up, so only the last one scheduled actually revives the node
    /// (running any owed churn reset at that instant).
    fn wake_node(&mut self, node: NodeId) {
        let i = node.index();
        if i < self.macs.len() && self.faults.wake(i, self.now) {
            self.revive_node(i as u16);
        }
    }

    /// [`FaultEvent::NodeChurn`] revival: the node rejoins as a freshly
    /// booted station, not a thawed one. Suspended MAC/agent timers are
    /// cancelled, the MAC resets (packets it still held are dropped and
    /// accounted as `NodeReset`), and the routing agent reboots — its
    /// `on_revival` commands re-arm the periodic timers a fresh `start`
    /// would have armed.
    fn revive_node(&mut self, node: u16) {
        let i = node as usize;
        for slot in &mut self.mac_timers[i] {
            if let Some(id) = slot.take() {
                self.queue.cancel(id);
            }
        }
        // Cancel *before* applying the reboot commands, so the fresh
        // timers those commands arm survive.
        let stale: Vec<EventId> = self.agent_timers[i].drain().map(|(_, id)| id).collect();
        for id in stale {
            self.queue.cancel(id);
        }
        let mut dropped = Vec::new();
        self.macs[i].reset_into(&mut dropped);
        for payload in dropped {
            let uid = payload.uid();
            let reason = packet::DropReason::NodeReset;
            self.metrics.record_drop(reason);
            self.observers.on_drop(self.now, node, uid, reason);
        }
        let now = self.now;
        self.agent_input(node, |agent, cmds| agent.on_revival(now, cmds));
    }

    // ------------------------------------------------------------------
    // Command application
    // ------------------------------------------------------------------

    /// Feeds one MAC input through a pooled command buffer: `fill` pushes
    /// the MAC's commands into a buffer drawn from the pool, the commands
    /// are applied, and the (now empty) buffer returns to the pool. The
    /// pool's depth tracks the deepest deliver→route→enqueue re-entrance
    /// seen, so steady state allocates nothing.
    fn mac_input(
        &mut self,
        node: u16,
        fill: impl FnOnce(&mut Dcf<A::Packet>, &mut Vec<MacCommand<A::Packet>>),
    ) {
        self.sync_carrier(node);
        let mut cmds = self.mac_cmd_pool.pop().unwrap_or_default();
        fill(&mut self.macs[node as usize], &mut cmds);
        self.drain_mac(node, cmds, None);
    }

    /// [`Simulator::mac_input`] for the intact decode of transmission
    /// `tx_id` at `node`: the MAC borrows the frame from the store, and a
    /// [`MacCommand::Snoop`] among the commands is about that frame.
    fn mac_receive(&mut self, node: u16, tx_id: TxId) {
        self.sync_carrier(node);
        let mut cmds = self.mac_cmd_pool.pop().unwrap_or_default();
        let frame = self.frames.get(tx_id).expect("a frame is kept through its last decode");
        self.macs[node as usize].on_receive_ref_into(frame, self.now, &mut cmds);
        self.drain_mac(node, cmds, Some(tx_id));
    }

    /// Applies the commands one MAC input left in `cmds` (`decoded`: the
    /// transmission it decoded, if any) and returns the buffer to the pool.
    fn drain_mac(
        &mut self,
        node: u16,
        mut cmds: Vec<MacCommand<A::Packet>>,
        decoded: Option<TxId>,
    ) {
        self.apply_mac(node, &mut cmds, decoded);
        debug_assert!(cmds.is_empty(), "apply_mac drains the buffer");
        self.mac_cmd_pool.push(cmds);
        // If the input left the MAC carrier-reactive (Deferring/WaitIdle),
        // lazy boundaries are no longer equivalent to notified ones: its
        // freeze/recheck transitions must fire at the boundary instant.
        // Entries that *lock* at their materialized carrier-sense event are
        // caught by that `on_channel_busy` input's own pass here, closing
        // the loop.
        if self.macs[node as usize].carrier_reactive() {
            self.event_pending_boundaries(node);
        }
    }

    /// Settles the node's receiver at the dispatch frontier and quietly
    /// merges its carrier horizons into the MAC, so every MAC input
    /// observes exactly the busy state that notifying it at every boundary
    /// would have accumulated by this instant.
    fn sync_carrier(&mut self, node: u16) {
        let state = &mut self.rx_states[node as usize];
        state.commit(self.now, self.cur_seq);
        let phys = state.phys_horizon();
        let nav = state.nav_horizon();
        self.macs[node as usize].observe_carrier(phys, nav);
    }

    /// Backs the node's lazily-held lock decode and every unsensed pending
    /// start with real queue events at their reserved keys (shared by the
    /// carrier-reactive and fault-window materialize passes).
    fn event_pending_boundaries(&mut self, node: u16) {
        let state = &mut self.rx_states[node as usize];
        if let Some((tx_id, end, end_seq)) = state.take_unevented_lock() {
            self.queue.schedule_at_seq(end, end_seq, Ev::Arrival { rx: node, tx_id });
            self.boundary_scheduled += 1;
        }
        let mut starts = std::mem::take(&mut self.cs_buf);
        self.rx_states[node as usize].unsensed_pending_starts_into(&mut starts);
        for (at, seq) in starts.drain(..) {
            // Re-use the seq reserved when the arrival was planned: the
            // materialized boundary lands at the queue position an
            // up-front event would have occupied, so same-instant ties
            // against timers resolve the same however late it is evented.
            self.queue.schedule_at_seq(at, seq, Ev::CarrierSense { rx: node });
            self.boundary_scheduled += 1;
        }
        self.cs_buf = starts;
    }

    fn apply_mac(
        &mut self,
        node: u16,
        cmds: &mut Vec<MacCommand<A::Packet>>,
        decoded: Option<TxId>,
    ) {
        for cmd in cmds.drain(..) {
            match cmd {
                MacCommand::StartTx { frame, duration } => {
                    if self.faults.is_down(node as usize) {
                        // Defensive: a crashed node's radio never powers up.
                        continue;
                    }
                    let routing = frame.payload.as_ref().map(|p| p.is_routing_overhead());
                    self.metrics.record_mac_tx(frame.kind, routing);
                    self.observers.on_mac_send(self.now, node, &frame);
                    let until = self.now + duration;
                    self.rx_states[node as usize].begin_tx(self.now, until, self.cur_seq);
                    self.refresh_positions();
                    let tx_id = self.tx_ids.next_id();
                    let fault_plan = &self.cfg.faults.events;
                    let p_corrupt = self.faults.corruption_prob(fault_plan);
                    let rx_threshold_w = self.cfg.radio.rx_threshold_w;
                    // While a suppression window is open anywhere, every
                    // boundary must be backed by a real event so the window
                    // can gate it at dispatch time.
                    let windows_active = self.faults.suppression_active();
                    let now = self.now;
                    let mut suppressed = 0u64;
                    let mut longest_delay = SimDuration::ZERO;
                    // The plan holds what the positions decide; the rest of
                    // the loop is what this frame, at this instant, adds.
                    let links = self.plans.links_of(NodeId::new(node), &self.positions);
                    for &link in links {
                        let rx = link.rx();
                        longest_delay = longest_delay.max(link.delay());
                        // Never part of a plan: a fault window can open or
                        // close between two frames of one epoch.
                        if self.faults.is_down(usize::from(rx))
                            || self.faults.in_blackout(fault_plan, self.positions[usize::from(rx)])
                        {
                            suppressed += 1;
                            continue;
                        }
                        let power_w = link.power_w();
                        let start = now + link.delay();
                        let end = start + duration;
                        self.arrivals_planned += 1;
                        let corrupted = self.faults.draw_corrupted(p_corrupt);
                        if corrupted {
                            self.metrics.record_frame_corrupted();
                        }
                        let decodable = power_w >= rx_threshold_w;
                        // Every arrival reserves exactly one seq here, at
                        // plan time and in arrival order, whether or not
                        // its start boundary is evented now: a boundary
                        // materialized later lands at this queue position.
                        let start_seq = self.queue.reserve_seq();
                        let (start_evented, needs_decode, payload) = if decodable {
                            self.fronts.stage(link.delay(), start_seq, rx, MemberKind::Boundary);
                            // Data frames must decode at every receiver
                            // that can lock them (bystanders snoop in
                            // promiscuous mode); control frames only at
                            // their addressee — a bystander's NAV update
                            // is a quiet merge the envelope credits on
                            // lazy expiry.
                            let needs =
                                frame.payload.is_some() || frame.addressed_to(NodeId::new(rx));
                            (true, needs, Some(()))
                        } else if self.macs[usize::from(rx)].carrier_reactive() || windows_active {
                            // Sub-RX energy matters now: the MAC's
                            // freeze/recheck must fire at the start — or an
                            // open suppression window may need to gate this
                            // boundary at dispatch time.
                            self.fronts.stage(
                                link.delay(),
                                start_seq,
                                rx,
                                MemberKind::CarrierSense,
                            );
                            (true, false, None)
                        } else {
                            // Quiet sub-RX interference: no event at all —
                            // the envelope folds it the next time this
                            // receiver is consulted or an arrival is
                            // planned at it.
                            (false, false, None)
                        };
                        // Settled at the frontier first, a receiver holds
                        // only arrivals still ahead of it, however long it
                        // goes without a MAC input. Every mutation or read
                        // of the state commits at least this far, so each
                        // entry still folds once, in key order.
                        let state = &mut self.rx_states[usize::from(rx)];
                        state.commit(now, self.cur_seq);
                        state.add_pending(PendingArrival {
                            tx_id,
                            power_w,
                            start,
                            start_seq,
                            end,
                            nav: frame.nav,
                            needs_decode,
                            start_evented,
                            corrupted,
                            payload,
                        });
                        self.boundary_scheduled += u64::from(start_evented);
                        self.front_members += u64::from(start_evented);
                    }
                    if suppressed > 0 {
                        self.metrics.record_arrivals_suppressed(suppressed);
                    }
                    // Every decode of the frame falls at its receiver's
                    // start plus the airtime: by `until + longest_delay`.
                    self.frames.release_before(now);
                    self.frames.insert(tx_id, until + longest_delay, frame);
                    // Every boundary evented above is a member of one front,
                    // queued once, under its earliest member's key: at most
                    // a propagation delay ahead, due before nearly
                    // everything queued.
                    if let Some((front, at, seq)) = self.fronts.seal(now, tx_id) {
                        self.file_front(front, at, seq, true);
                    }
                }
                MacCommand::SetTimer { timer, at } => {
                    let slot = &mut self.mac_timers[node as usize][timer.index()];
                    *slot = Some(rearm(&mut self.queue, *slot, at, Ev::MacTimer { node, timer }));
                }
                MacCommand::CancelTimer { timer } => {
                    if let Some(old) = self.mac_timers[node as usize][timer.index()].take() {
                        self.queue.cancel(old);
                    }
                }
                MacCommand::Deliver { from, payload } => {
                    let now = self.now;
                    self.agent_input(node, |agent, cmds| {
                        agent.on_receive(from, payload, now, cmds)
                    });
                }
                MacCommand::Snoop { from } => {
                    let tx_id = decoded.expect("only a decode snoops");
                    let frame = self.frames.get(tx_id).expect("a decoded frame is kept");
                    if let Some(payload) = &frame.payload {
                        // `agent_input` by hand: the payload borrows the
                        // frame store until the agent is done with it.
                        let mut cmds = self.agent_cmd_pool.pop().unwrap_or_default();
                        self.agents[node as usize].on_snoop(from, payload, self.now, &mut cmds);
                        self.drain_agent(node, cmds);
                    }
                }
                MacCommand::TxFailed { payload, dst } => {
                    let now = self.now;
                    self.agent_input(node, |agent, cmds| {
                        agent.on_tx_failed(payload, dst, now, cmds)
                    });
                }
                MacCommand::TxOk { .. } => {}
                MacCommand::QueueDrop { payload } => {
                    self.metrics.record_ifq_drop();
                    self.observers.on_ifq_drop(payload.uid(), payload.is_routing_overhead());
                }
            }
        }
    }

    /// Feeds one agent input through a pooled command buffer, as
    /// [`Simulator::mac_input`] does for the MAC: `fill` appends the
    /// agent's commands to an empty buffer drawn from the pool, and
    /// [`Simulator::drain_agent`] applies them and returns the buffer.
    fn agent_input(
        &mut self,
        node: u16,
        fill: impl FnOnce(&mut A, &mut Vec<AgentCommand<A::Packet, A::Timer>>),
    ) {
        let mut cmds = self.agent_cmd_pool.pop().unwrap_or_default();
        fill(&mut self.agents[node as usize], &mut cmds);
        self.drain_agent(node, cmds);
    }

    /// Applies the commands one agent input left in `cmds` and returns the
    /// (now empty) buffer to the pool.
    fn drain_agent(&mut self, node: u16, mut cmds: Vec<AgentCommand<A::Packet, A::Timer>>) {
        self.apply_agent(node, &mut cmds);
        debug_assert!(cmds.is_empty(), "apply_agent drains the buffer");
        self.agent_cmd_pool.push(cmds);
    }

    fn apply_agent(&mut self, node: u16, cmds: &mut Vec<AgentCommand<A::Packet, A::Timer>>) {
        for cmd in cmds.drain(..) {
            match cmd {
                AgentCommand::Send { packet, next_hop, jitter } => {
                    if jitter == sim_core::SimDuration::ZERO {
                        self.hand_to_mac(node, packet, next_hop);
                    } else {
                        self.queue
                            .schedule(self.now + jitter, Ev::AgentSend { node, packet, next_hop });
                    }
                }
                AgentCommand::Deliver { uid, src, sent_at, bytes, hops, .. } => {
                    let fresh = self.metrics.record_delivery(uid, sent_at, bytes, hops, self.now);
                    self.observers.on_deliver(self.now, node, uid, src, bytes, fresh);
                }
                AgentCommand::SetTimer { timer, at } => {
                    let timers = &mut self.agent_timers[node as usize];
                    let old = timers.get(&timer).copied();
                    let id = rearm(&mut self.queue, old, at, Ev::AgentTimer { node, timer });
                    timers.insert(timer, id);
                }
                AgentCommand::CancelTimer { timer } => {
                    if let Some(old) = self.agent_timers[node as usize].remove(&timer) {
                        self.queue.cancel(old);
                    }
                }
                AgentCommand::Drop { uid, reason } => {
                    self.metrics.record_drop(reason);
                    self.observers.on_drop(self.now, node, uid, reason);
                }
                AgentCommand::Event { event } => self.apply_event(node, event),
            }
        }
    }

    fn apply_event(&mut self, node: u16, event: ProtocolEvent) {
        match event {
            ProtocolEvent::DataOriginated { uid } => self.observers.on_originated(uid),
            ProtocolEvent::DiscoveryStarted { flood, target } => {
                self.metrics.record_discovery(flood);
                self.observers.on_discovery(self.now, node, target, flood);
            }
            ProtocolEvent::ReplyOriginated { from_cache } => {
                self.metrics.record_reply_originated(from_cache)
            }
            ProtocolEvent::ReplyAccepted { discovered } => {
                // Protocols that expose the full route get oracle-judged
                // reply quality; others (AODV) are simply counted as good.
                let good = discovered
                    .map(|r| self.oracle.route_valid(r.nodes(), self.now))
                    .unwrap_or(true);
                self.metrics.record_reply_received(good);
            }
            ProtocolEvent::CacheHit { route, kind } => {
                let valid = self.oracle.route_valid(route.nodes(), self.now);
                self.metrics.record_cache_hit(kind, valid);
            }
            ProtocolEvent::RouteErrorSent { .. } => self.metrics.record_error(false),
            ProtocolEvent::RouteErrorRebroadcast => self.metrics.record_error(true),
            ProtocolEvent::LinkBreakDetected { link } => {
                self.metrics.record_link_break();
                self.observers.on_link_break(self.now, node, link.to);
            }
            ProtocolEvent::Failover { .. } => {
                self.metrics.record_failover();
                self.observers.on_failover();
            }
            ProtocolEvent::CacheDecision { decision } => {
                self.observers.on_cache_decision(&self.oracle, self.now, node, decision);
            }
        }
    }

    fn hand_to_mac(&mut self, node: u16, packet: A::Packet, next_hop: NodeId) {
        let prio = if packet.is_routing_overhead() { Priority::Control } else { Priority::Data };
        let bytes = packet.wire_size();
        let now = self.now;
        self.mac_input(node, |mac, cmds| {
            mac.enqueue_into(packet, next_hop, bytes, prio, now, cmds)
        });
    }

    /// Re-takes the position snapshot if the one held is `position_refresh`
    /// old (or is still the one taken at construction).
    fn refresh_positions(&mut self) {
        if self.now.saturating_since(self.positions_at) >= self.cfg.position_refresh
            || self.positions_at == SimTime::ZERO && self.now > SimTime::ZERO
        {
            self.mobility.snapshot_into(self.now, &mut self.fresh_positions);
            self.positions_at = self.now;
            // A new epoch only if a node moved: a paused network keeps its
            // grid and its link plans.
            if !plans::same_bits(&self.positions, &self.fresh_positions) {
                std::mem::swap(&mut self.positions, &mut self.fresh_positions);
                self.plans.rebuild(&self.positions);
            }
        }
    }
}

/// Convenience: build and run one DSR scenario.
pub fn run_scenario(cfg: ScenarioConfig) -> Report {
    Simulator::new(cfg).run()
}

/// Builds and runs one scenario over an arbitrary routing protocol.
pub fn run_scenario_with<A: RoutingAgent>(
    cfg: ScenarioConfig,
    label: impl Into<String>,
    make_agent: impl FnMut(NodeId, SimRng) -> A,
) -> Report {
    Simulator::with_agents(cfg, label, make_agent).run()
}
