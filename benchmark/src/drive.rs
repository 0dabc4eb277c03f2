//! Constructing and running one scenario, plain or with every observer on.
//!
//! The simulator is called exactly as a user would: build a
//! `ScenarioConfig`, hand it to `Simulator::with_agents`, call `try_run`.
//! Everything runs on the calling thread.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aodv::{AodvConfig, AodvNode};
use dsr::DsrNode;
use metrics::Report;
use obs::{CacheRow, ObsMode, Profile, RunObservation};
use runner::{AuditLevel, CacheTraceBuf, RoutingAgent, RunError, ScenarioConfig, Simulator};

use crate::alloc;
use crate::calib::SharedProbe;
use crate::workloads::{Agent, Scenario};

/// What the observers collected during an observed run, kept in memory.
#[derive(Debug, Default)]
pub struct Observed {
    /// The event-loop profile (`set_obs`).
    pub profile: Option<Profile>,
    /// Time-series rows the sampler produced.
    pub samples: u64,
    /// Cache-decision rows (`set_cachetrace`); DSR scenarios only.
    pub cache_rows: Vec<CacheRow>,
    /// Rows past the tracer's cap.
    pub cache_rows_dropped: u64,
    /// Packet-trace events the counting `set_trace` sink saw.
    pub trace_events: u64,
}

/// One finished `try_run`.
#[derive(Debug)]
pub struct Outcome {
    pub result: Result<Report, RunError>,
    /// Wall time inside `try_run`, less the reference kernel's samples.
    pub wall: Duration,
    /// What those samples took; the event-loop `Profile` of an observed run
    /// still contains it.
    pub reference_spent: Duration,
    /// How much slower than nominal the host ran meanwhile (`calib`).
    pub slowness: f64,
    /// Allocator calls inside `try_run`.
    pub alloc_calls: u64,
    /// Present when the run was observed.
    pub observed: Option<Observed>,
}

impl Outcome {
    /// Wall seconds the run would have taken on the defining box in its
    /// uncontended state.
    pub fn nominal_wall_s(&self) -> f64 {
        self.wall.as_secs_f64() / self.slowness
    }
}

/// Whether a run carries the observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    Off,
    /// `set_obs` at the default interval, `set_cachetrace` (DSR), a
    /// counting `set_trace` sink and `AuditLevel::Full`.
    On,
}

/// Times one set-up: `ScenarioConfig` build plus `Simulator::with_agents`.
pub fn time_setup(sc: &Scenario) -> Duration {
    let started = Instant::now();
    match sc.agent {
        Agent::Dsr(_) => drop(std::hint::black_box(build_dsr(sc.config()))),
        Agent::Aodv => drop(std::hint::black_box(build_aodv(sc.config()))),
    }
    started.elapsed()
}

/// Builds and runs `sc` to completion.
pub fn run(sc: &Scenario, observers: Observers, probe: &SharedProbe) -> Outcome {
    match sc.agent {
        Agent::Dsr(_) => run_dsr(sc.config(), observers, probe),
        Agent::Aodv => finish(build_aodv(sc.config()), observers, false, probe),
    }
}

/// Builds and runs a DSR simulation of `cfg` to completion.
pub fn run_dsr(cfg: ScenarioConfig, observers: Observers, probe: &SharedProbe) -> Outcome {
    finish(build_dsr(cfg), observers, true, probe)
}

fn build_dsr(cfg: ScenarioConfig) -> Simulator<DsrNode> {
    let dsr = cfg.dsr.clone();
    Simulator::with_agents(cfg, dsr.label(), move |node, rng| DsrNode::new(node, dsr.clone(), rng))
}

fn build_aodv(cfg: ScenarioConfig) -> Simulator<AodvNode> {
    let aodv = AodvConfig::default();
    Simulator::with_agents(cfg, aodv.label(), move |node, rng| {
        AodvNode::new(node, aodv.clone(), rng)
    })
}

fn finish<A: RoutingAgent>(
    mut sim: Simulator<A>,
    observers: Observers,
    has_route_cache: bool,
    probe: &SharedProbe,
) -> Outcome {
    let observation: Arc<Mutex<Option<RunObservation>>> = Arc::default();
    let cache_buf: Arc<Mutex<CacheTraceBuf>> = Arc::default();
    let trace_events: Arc<Mutex<u64>> = Arc::default();
    if observers == Observers::On {
        let slot = Arc::clone(&observation);
        sim.set_obs(
            ObsMode::default_interval(),
            Box::new(move |o| *slot.lock().expect("obs slot") = Some(o)),
        );
        if has_route_cache {
            sim.set_cachetrace(Arc::clone(&cache_buf));
        }
        let count = Arc::clone(&trace_events);
        sim.set_trace(Box::new(move |_| *count.lock().expect("trace count") += 1));
        sim.set_audit(AuditLevel::Full);
    }
    // Every run carries the heartbeat, as campaign runs do: one counter
    // mask per event, and the reference kernel on every sixteenth pulse.
    let pulsed = Arc::clone(probe);
    sim.set_heartbeat(Box::new(move |_| pulsed.lock().expect("probe").tick()));
    let reference_before = probe.lock().expect("probe").reading();
    let allocs_before = alloc::snapshot().calls;
    let started = Instant::now();
    let result = sim.try_run();
    let elapsed = started.elapsed();
    let alloc_calls = alloc::snapshot().calls - allocs_before;
    let reference = probe.lock().expect("probe").reading().since(reference_before);
    let wall = elapsed - reference.spent;
    // A run too short to reach a sample is judged by one taken right after.
    let slowness = reference
        .slowness()
        .unwrap_or_else(|| probe.lock().expect("probe").sample().slowness().expect("one sample"));
    let observed = (observers == Observers::On).then(|| {
        let observation = observation.lock().expect("obs slot").take();
        let mut buf = cache_buf.lock().expect("cache buf");
        let trace_events = *trace_events.lock().expect("trace count");
        Observed {
            samples: observation.as_ref().map_or(0, |o| o.timeseries.rows.len() as u64),
            profile: observation.map(|o| o.profile),
            cache_rows: std::mem::take(&mut buf.rows),
            cache_rows_dropped: buf.dropped,
            trace_events,
        }
    });
    Outcome { result, wall, reference_spent: reference.spent, slowness, alloc_calls, observed }
}
