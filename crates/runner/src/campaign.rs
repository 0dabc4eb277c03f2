//! Crash-isolated, watchdogged multi-seed campaigns.
//!
//! The experiment binaries run every data point across several seeds. One
//! misbehaving seed used to take the whole campaign down: a panic anywhere
//! in the stack aborted every other seed's work, and a zero-progress event
//! cycle would spin forever. This module isolates each run behind
//! [`std::panic::catch_unwind`], enforces per-run watchdogs
//! ([`RunLimits`]), classifies what went wrong ([`RunError`]), and returns
//! everything that *did* work in a [`CampaignResult`] so callers degrade
//! gracefully. A failed run is final: every run is a pure function of its
//! config and seed, so a retry could only differ through the wall clock.
//! The failure is reported, written as a forensic artifact, and re-run
//! with the journal (`--resume`).
//!
//! Execution itself — fanning seeds across [`CampaignConfig::jobs`] worker
//! threads, worker-death accounting, and the deterministic seed-order
//! merge that keeps every output byte identical to a serial run — lives in
//! [`crate::executor`].
//!
//! ```
//! use runner::{run_campaign, CampaignConfig, ScenarioConfig};
//! use dsr::DsrConfig;
//!
//! let base = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 0);
//! let result = run_campaign(&base, &[1, 2], &CampaignConfig::default());
//! assert!(result.all_ok());
//! assert_eq!(result.reports.len(), 2);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dsr::DsrNode;
use metrics::Report;
use obs::{CacheTrace, ObsConfig, Profile, RunObservation};
use packet::RoutingAgent;
use sim_core::{NodeId, SimRng, SimTime};

use crate::audit::AuditLevel;
use crate::config::ScenarioConfig;
use crate::executor;
use crate::forensics::TRACE_TAIL_CAPACITY;
use crate::sim::{CacheTraceBuf, HeartbeatSink, Simulator};
use crate::trace::TraceEvent;

/// Per-run watchdog limits enforced by
/// [`Simulator::try_run`](crate::Simulator::try_run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Abort the run once it has consumed this much wall-clock time
    /// (checked before the first dispatch and every 64th after it, so a run
    /// overshoots by at most 63 events; a single stuck event cannot be
    /// preempted). The experiment binaries set it with `--seed-timeout`.
    /// `None` disables the timeout.
    pub wall_clock: Option<Duration>,
    /// Abort once one simulated second costs more than this many events —
    /// the signature of a zero-progress event storm. `None` disables the
    /// budget.
    pub max_events_per_sim_second: Option<u64>,
}

impl Default for RunLimits {
    /// No wall-clock limit; an event budget of 100 million per simulated
    /// second, two to three orders of magnitude above what the heaviest
    /// legitimate scenario needs.
    fn default() -> Self {
        RunLimits { wall_clock: None, max_events_per_sim_second: Some(100_000_000) }
    }
}

/// Why one simulation run produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run panicked; `payload` is the panic message when it was a
    /// string (the common case), or a placeholder otherwise.
    Panicked {
        /// The failing run's seed.
        seed: u64,
        /// Stringified panic payload.
        payload: String,
    },
    /// The run exceeded [`RunLimits::wall_clock`].
    WatchdogTimeout {
        /// The failing run's seed.
        seed: u64,
        /// Simulated instant reached when the watchdog fired.
        at: SimTime,
    },
    /// One simulated second cost more than
    /// [`RunLimits::max_events_per_sim_second`] events (livelock).
    EventBudgetExhausted {
        /// The failing run's seed.
        seed: u64,
        /// The simulated instant the storm was detected at.
        at: SimTime,
        /// Events consumed within that simulated second.
        events: u64,
    },
    /// The event queue yielded an event before the current instant —
    /// simulated time went backwards, which would silently corrupt every
    /// metric downstream.
    TimeRegression {
        /// The failing run's seed.
        seed: u64,
        /// The run's clock when the stale event surfaced.
        now: SimTime,
        /// The stale event's timestamp.
        event_at: SimTime,
    },
    /// The packet-conservation audit ([`crate::audit`]) found an
    /// originated packet that was neither delivered, dropped with a
    /// reason, nor still buffered at run end — or another accounting
    /// invariant broke.
    ConservationViolation {
        /// The failing run's seed.
        seed: u64,
        /// The offending packet uid (0 for run-wide violations such as a
        /// cache-exclusion breach).
        uid: u64,
        /// The auditor's ledger line for the violation.
        detail: String,
    },
    /// The worker thread executing the run died outside the run's own
    /// panic isolation (executor machinery failure), or every worker died
    /// before the seed was claimed.
    WorkerLost {
        /// The failing run's seed.
        seed: u64,
        /// What killed the worker (panic payload or queue state).
        detail: String,
    },
}

impl RunError {
    /// The seed of the failed run.
    pub fn seed(&self) -> u64 {
        match *self {
            RunError::Panicked { seed, .. }
            | RunError::WatchdogTimeout { seed, .. }
            | RunError::EventBudgetExhausted { seed, .. }
            | RunError::TimeRegression { seed, .. }
            | RunError::ConservationViolation { seed, .. }
            | RunError::WorkerLost { seed, .. } => seed,
        }
    }

    /// Whether the failure depends on the wall clock, so a clean replay is
    /// expected: only [`RunError::WatchdogTimeout`] (a loaded machine).
    /// Panics, event storms, time regressions, conservation violations and
    /// lost workers are deterministic or executor faults.
    pub fn is_transient(&self) -> bool {
        matches!(self, RunError::WatchdogTimeout { .. })
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panicked { seed, payload } => {
                write!(f, "seed {seed}: run panicked: {payload}")
            }
            RunError::WatchdogTimeout { seed, at } => {
                write!(f, "seed {seed}: wall-clock watchdog fired at simulated {at}")
            }
            RunError::EventBudgetExhausted { seed, at, events } => {
                write!(f, "seed {seed}: event budget exhausted at simulated {at} ({events} events in one simulated second)")
            }
            RunError::TimeRegression { seed, now, event_at } => {
                write!(f, "seed {seed}: time went backwards ({event_at} after reaching {now})")
            }
            RunError::ConservationViolation { seed, uid, detail } => {
                write!(f, "seed {seed}: packet conservation violated for uid {uid}: {detail}")
            }
            RunError::WorkerLost { seed, detail } => {
                write!(f, "seed {seed}: worker died: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// How a campaign executes its runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads fanning the seeds out (1 = one worker). Every
    /// output — reports, journal, forensics, CSV downstream — is
    /// byte-identical for every value: results are buffered and merged in
    /// seed order by the executor's supervisor.
    pub jobs: usize,
    /// Watchdogs applied to every run.
    pub limits: RunLimits,
    /// Packet-conservation audit level applied to every run (see
    /// [`crate::audit`]). Defaults to [`AuditLevel::Off`].
    pub audit: AuditLevel,
    /// Append-only journal of completed runs. When set, seeds already
    /// journaled for this scenario are skipped on restart and their
    /// reports returned as-is (see [`crate::journal`]).
    pub journal: Option<PathBuf>,
    /// Directory for repro artifacts of failed runs (see
    /// [`crate::forensics`]). `None` disables artifact capture.
    pub forensics_dir: Option<PathBuf>,
    /// Observability settings (see [`obs`]): gauge sampling, per-run time
    /// series files, and the live stderr heartbeat. Defaults to fully off,
    /// in which case the event loop carries zero instrumentation.
    pub obs: ObsConfig,
    /// Executor fault hook for tests; inert by default.
    #[cfg(test)]
    pub(crate) chaos: executor::ExecutorChaos,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            jobs: 1,
            limits: RunLimits::default(),
            audit: AuditLevel::Off,
            journal: None,
            forensics_dir: None,
            obs: ObsConfig::off(),
            #[cfg(test)]
            chaos: executor::ExecutorChaos::default(),
        }
    }
}

/// One run that produced no report, with its error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// The failing run's seed.
    pub seed: u64,
    /// What went wrong.
    pub error: RunError,
}

/// The outcome of a multi-seed campaign: every report that completed plus
/// a structured record of every run that did not.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Reports of the successful runs, in seed order.
    pub reports: Vec<Report>,
    /// The failed runs, in seed order.
    pub failures: Vec<RunFailure>,
    /// The merged event-loop profile across all runs, when
    /// [`CampaignConfig::obs`] enabled instrumentation. Journal-resumed
    /// seeds contribute nothing (they did not re-execute).
    pub profile: Option<Profile>,
}

impl CampaignResult {
    /// Whether every run completed.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The mean report across the successful runs, or `None` if every run
    /// failed.
    pub fn mean(&self) -> Option<Report> {
        if self.reports.is_empty() {
            None
        } else {
            Some(Report::mean(&self.reports))
        }
    }

    /// One line per failure, for logs and CSV footers.
    pub fn failure_summary(&self) -> String {
        self.failures.iter().map(|f| f.error.to_string()).collect::<Vec<_>>().join("; ")
    }
}

/// Runs a DSR scenario across `seeds` under the campaign's watchdogs,
/// isolating every run so one bad seed cannot take down the rest.
pub fn run_campaign(
    base: &ScenarioConfig,
    seeds: &[u64],
    campaign: &CampaignConfig,
) -> CampaignResult {
    let dsr = base.dsr.clone();
    let label = dsr.label();
    run_campaign_inner(base, seeds, campaign, label, true, move |node, rng| {
        DsrNode::new(node, dsr.clone(), rng)
    })
}

/// [`run_campaign`] over an arbitrary routing protocol. `make_agent` must
/// be `Fn` (not `FnMut`) because runs may execute concurrently.
///
/// Forensic artifacts written for these runs are marked non-replayable:
/// the artifact captures the scenario but cannot capture `make_agent`, so
/// the `repro` binary (which rebuilds DSR agents from the scenario alone)
/// refuses to replay them.
pub fn run_campaign_with<A, F>(
    base: &ScenarioConfig,
    seeds: &[u64],
    campaign: &CampaignConfig,
    label: impl Into<String>,
    make_agent: F,
) -> CampaignResult
where
    A: RoutingAgent,
    F: Fn(NodeId, SimRng) -> A + Send + Sync,
{
    run_campaign_inner(base, seeds, campaign, label.into(), false, make_agent)
}

fn run_campaign_inner<A, F>(
    base: &ScenarioConfig,
    seeds: &[u64],
    campaign: &CampaignConfig,
    label: String,
    replayable: bool,
    make_agent: F,
) -> CampaignResult
where
    A: RoutingAgent,
    F: Fn(NodeId, SimRng) -> A + Send + Sync,
{
    assert!(campaign.jobs > 0, "need at least one worker thread");
    executor::execute(base, seeds, campaign, &label, replayable, &make_agent)
}

/// Re-runs one DSR scenario exactly as a campaign would (crash-isolated,
/// default watchdogs) at the given audit level. This is the `repro`
/// binary's entry point for replaying forensic artifacts; the scenario's
/// own seed is used, and no journaling or artifact capture applies.
pub fn replay_run(cfg: &ScenarioConfig, audit: AuditLevel) -> Result<Report, RunError> {
    let dsr = cfg.dsr.clone();
    let label = dsr.label();
    let campaign = CampaignConfig { audit, ..CampaignConfig::default() };
    let make_agent = move |node, rng| DsrNode::new(node, dsr.clone(), rng);
    attempt_one(cfg.clone(), &label, &make_agent, &campaign, AttemptHooks::default()).0
}

/// Per-attempt hooks the executor threads into a run: trace capture for
/// forensic artifacts and the campaign heartbeat. The default (no hooks)
/// is what [`replay_run`] uses.
#[derive(Default)]
pub(crate) struct AttemptHooks {
    /// Retain the last [`TRACE_TAIL_CAPACITY`] trace events (even across a
    /// panic) for forensic artifacts.
    pub capture_trace: bool,
    /// Heartbeat sink installed on the simulator.
    pub heartbeat: Option<HeartbeatSink>,
}

/// One isolated run: builds the simulator, applies the watchdog limits
/// and audit level, and converts a panic anywhere in the stack into
/// [`RunError::Panicked`]. When `hooks.capture_trace` is set, the last
/// [`TRACE_TAIL_CAPACITY`] trace events are retained (even across a
/// panic) and returned rendered, for forensic artifacts; otherwise no
/// trace ring exists and no sink is registered on the simulator at all.
///
/// Likewise when [`CampaignConfig::obs`] enables sampling, the run's
/// [`RunObservation`] crosses the unwind boundary through a shared slot
/// (the same pattern as the trace ring) — a run that panics or trips a
/// watchdog leaves the slot empty.
///
/// When [`ObsConfig::cachetrace_dir`] is set, the run's cache decisions
/// cross the same boundary through a shared [`CacheTraceBuf`]; the buffer
/// is recovered on success *and* failure (a failed campaign's partial
/// trace is forensic material), assembled into a [`CacheTrace`], and
/// returned as the fourth element.
pub(crate) fn attempt_one<A, F>(
    cfg: ScenarioConfig,
    label: &str,
    make_agent: &F,
    campaign: &CampaignConfig,
    hooks: AttemptHooks,
) -> (Result<Report, RunError>, Vec<String>, Option<RunObservation>, Option<CacheTrace>)
where
    A: RoutingAgent,
    F: Fn(NodeId, SimRng) -> A + Send + Sync,
{
    let seed = cfg.seed;
    let fingerprint = crate::forensics::config_fingerprint(&cfg);
    let AttemptHooks { capture_trace, heartbeat } = hooks;
    let ring: Option<Arc<Mutex<VecDeque<TraceEvent>>>> =
        capture_trace.then(|| Arc::new(Mutex::new(VecDeque::new())));
    let sink_ring = ring.as_ref().map(Arc::clone);
    let observation: Arc<Mutex<Option<RunObservation>>> = Arc::new(Mutex::new(None));
    let obs_slot = Arc::clone(&observation);
    let obs_interval = campaign.obs.mode.interval();
    let cache_buf: Option<Arc<Mutex<CacheTraceBuf>>> = campaign
        .obs
        .cachetrace_dir
        .is_some()
        .then(|| Arc::new(Mutex::new(CacheTraceBuf::default())));
    let sim_cache_buf = cache_buf.as_ref().map(Arc::clone);
    let audit = campaign.audit;
    let limits = campaign.limits;
    // The simulator is consumed by the run and nothing borrowed crosses
    // the unwind boundary, so suppressing the UnwindSafe bound is sound:
    // a poisoned half-built simulator is dropped with the panic.
    let caught = catch_unwind(AssertUnwindSafe(move || {
        let mut sim = Simulator::with_agents(cfg, label, make_agent);
        sim.set_limits(limits);
        sim.set_audit(audit);
        if let Some(sink_ring) = sink_ring {
            sim.set_trace(Box::new(move |ev| {
                let mut ring = sink_ring.lock().expect("trace ring poisoned");
                if ring.len() == TRACE_TAIL_CAPACITY {
                    ring.pop_front();
                }
                ring.push_back(*ev);
            }));
        }
        if let Some(interval) = obs_interval {
            sim.set_obs(
                interval,
                Box::new(move |run_obs| {
                    *obs_slot.lock().expect("obs slot poisoned") = Some(run_obs);
                }),
            );
        }
        if let Some(buf) = sim_cache_buf {
            sim.set_cachetrace(buf);
        }
        if let Some(sink) = heartbeat {
            sim.set_heartbeat(sink);
        }
        sim.try_run()
    }));
    // A panic inside the sink would poison the ring; recover the data
    // anyway — the tail is exactly what the artifact is for.
    let trace: Vec<String> = match &ring {
        Some(ring) => {
            let ring = ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            ring.iter().map(|ev| ev.to_string()).collect()
        }
        None => Vec::new(),
    };
    let observation = observation.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    // Recovered poison-tolerantly for the same reason as the trace ring:
    // a failed run's partial cache trace is exactly what forensics wants.
    let cachetrace = cache_buf.map(|buf| {
        let mut buf = buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let buf = std::mem::take(&mut *buf);
        CacheTrace {
            label: label.to_string(),
            seed,
            fingerprint,
            rows: buf.rows,
            dropped: buf.dropped,
        }
    });
    let result = caught.unwrap_or_else(|payload| {
        Err(RunError::Panicked { seed, payload: panic_message(payload) })
    });
    (result, trace, observation, cachetrace)
}

/// A panic payload as text: the message when it was a string (the common
/// case), or a placeholder otherwise.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr::DsrConfig;
    use sim_core::SimDuration;

    fn tiny_line(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), seed);
        cfg.duration = SimDuration::from_secs(5.0);
        cfg
    }

    #[test]
    fn run_error_taxonomy_renders_and_classifies() {
        let p = RunError::Panicked { seed: 3, payload: "boom".into() };
        let w = RunError::WatchdogTimeout { seed: 4, at: SimTime::from_secs(1.0) };
        let b = RunError::EventBudgetExhausted { seed: 5, at: SimTime::from_secs(2.0), events: 10 };
        let t = RunError::TimeRegression {
            seed: 6,
            now: SimTime::from_secs(3.0),
            event_at: SimTime::from_secs(1.0),
        };
        let c =
            RunError::ConservationViolation { seed: 7, uid: 42, detail: "uid 42 vanished".into() };
        let l = RunError::WorkerLost { seed: 9, detail: "worker 2 panicked".into() };
        assert_eq!(p.seed(), 3);
        assert_eq!(t.seed(), 6);
        assert_eq!(c.seed(), 7);
        assert_eq!(l.seed(), 9);
        assert!(!p.is_transient());
        assert!(w.is_transient());
        assert!(!b.is_transient());
        assert!(!c.is_transient(), "conservation violations are deterministic");
        assert!(!l.is_transient(), "a lost worker is an executor fault");
        assert!(format!("{p}").contains("boom"));
        assert!(format!("{b}").contains("budget"));
        assert!(format!("{t}").contains("backwards"));
        assert!(format!("{c}").contains("uid 42"));
        assert!(format!("{l}").contains("worker died"));
    }

    #[test]
    fn campaign_runs_all_seeds_serially_and_in_parallel() {
        let base = tiny_line(0);
        let serial = run_campaign(&base, &[1, 2, 3], &CampaignConfig::default());
        assert!(serial.all_ok());
        assert_eq!(serial.reports.len(), 3);
        let parallel = run_campaign(
            &base,
            &[1, 2, 3],
            &CampaignConfig { jobs: 3, ..CampaignConfig::default() },
        );
        assert_eq!(parallel.reports, serial.reports, "thread count must not change results");
        assert!(serial.mean().is_some());
    }

    #[test]
    fn wall_clock_watchdog_fires_and_the_failure_is_final() {
        let base = tiny_line(0);
        let campaign = CampaignConfig {
            limits: RunLimits { wall_clock: Some(Duration::from_nanos(1)), ..RunLimits::default() },
            ..CampaignConfig::default()
        };
        let result = run_campaign(&base, &[1], &campaign);
        assert_eq!(result.reports.len(), 0);
        assert_eq!(result.failures.len(), 1);
        let failure = &result.failures[0];
        assert!(matches!(failure.error, RunError::WatchdogTimeout { seed: 1, .. }));
        assert!(result.mean().is_none());
        assert_eq!(result.failure_summary(), failure.error.to_string(), "one attempt, one line");
    }

    #[test]
    fn no_forensics_capture_means_no_trace_ring() {
        // Regression guard for the trace-ring gating: when a campaign has
        // no forensics_dir, `attempt_one` must not allocate a ring or
        // register a trace sink — the returned tail is empty even though
        // the run emits plenty of traceable events.
        let cfg = tiny_line(1);
        let dsr = cfg.dsr.clone();
        let make_agent = move |node, rng| DsrNode::new(node, dsr.clone(), rng);
        let campaign = CampaignConfig::default();
        let (result, trace, observation, cachetrace) =
            attempt_one(cfg.clone(), "test", &make_agent, &campaign, AttemptHooks::default());
        assert!(result.is_ok());
        assert!(trace.is_empty(), "no capture => no ring, no sink");
        assert!(observation.is_none(), "obs off => no observation");
        assert!(cachetrace.is_none(), "cachetrace off => no trace");
        let hooks = AttemptHooks { capture_trace: true, ..AttemptHooks::default() };
        let (result, trace, _, _) = attempt_one(cfg, "test", &make_agent, &campaign, hooks);
        assert!(result.is_ok());
        assert!(!trace.is_empty(), "capturing keeps the trace tail");
    }

    #[test]
    fn obs_campaign_merges_profiles_and_writes_timeseries() {
        let base = tiny_line(0);
        let dir = std::env::temp_dir().join(format!("dsr_obs_campaign_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = CampaignConfig {
            obs: ObsConfig {
                mode: obs::ObsMode::Sample { interval: SimDuration::from_secs(1.0) },
                timeseries_dir: Some(dir.clone()),
                cachetrace_dir: None,
            },
            ..CampaignConfig::default()
        };
        let result = run_campaign(&base, &[1, 2], &campaign);
        assert!(result.all_ok(), "{}", result.failure_summary());
        let profile = result.profile.as_ref().expect("obs on yields a campaign profile");
        assert_eq!(profile.runs, 2);
        assert_eq!(profile.runs_failed, 0);
        assert!(profile.events > 0, "profile counts dispatched events");
        assert!(!profile.kinds.is_empty(), "profile tallies event kinds");
        assert!((profile.sim_seconds - 10.0).abs() < 1e-9, "two 5 s runs");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("timeseries dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 2, "one series file per seed: {files:?}");
        for path in &files {
            let series = obs::TimeSeries::load(path).expect("series parses");
            assert!(!series.rows.is_empty(), "5 s run at 1 s cadence has rows");
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Same campaign with obs off: no profile, byte-identical reports.
        let off = run_campaign(&base, &[1, 2], &CampaignConfig::default());
        assert!(off.profile.is_none(), "obs off yields no profile");
        assert_eq!(off.reports, result.reports, "instrumentation must not change results");
    }
}
