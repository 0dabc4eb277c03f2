//! Zero-cost-when-off instrumentation for the DSR simulator.
//!
//! Three pillars, all gated by [`ObsConfig`] and provably inert when off
//! (obs-on and obs-off runs produce byte-identical `Report`s — the same
//! discipline as the conservation audit):
//!
//! 1. **Time-series sampler** ([`timeseries`]): at a configurable sim-time
//!    interval, snapshot per-layer gauges (route-cache size and oracle-valid
//!    fraction, negative-cache occupancy, send-buffer and MAC queue depths,
//!    in-flight discoveries) and cumulative counts (events dispatched,
//!    packets originated and delivered) into one `dsr-timeseries v2` file
//!    per run — the run's one time series: per-interval delivery is the
//!    difference of two rows.
//! 2. **Event-loop profiler** ([`profile`]): events and wall time per event
//!    kind plus drop-reason/trace-kind tallies, merged per campaign into a
//!    `dsr-profile v1` summary.
//! 3. **Query engine** ([`query`]): filtering and uid-following over raw
//!    traces, forensic artifacts, time series, profiles and cache traces,
//!    all on one codec ([`text`]), surfaced by the `trace_query` binary
//!    (which also folds cache traces into [`CacheRollup`]s).
//!
//! Sampling happens inline in the runner's event loop at interval
//! boundaries — no scheduled events, no RNG draws — so enabling it cannot
//! perturb the simulation. Wall-clock measurement never feeds back into
//! simulated time.

#![warn(unreachable_pub)]

pub mod cachetrace;
pub mod profile;
pub mod query;
pub mod text;
pub mod timeseries;

pub use cachetrace::{CacheRollup, CacheRow, CacheTrace, COLUMNS, OPS};
pub use profile::{Profile, Tally, TallyMap};
pub use query::{
    follow_uid, parse_trace_line, read_file, Filter, FollowReport, ObsFile, TraceLine,
};
pub use text::ObsError;
pub use timeseries::{SampleRow, Sampler, TimeSeries};

use sim_core::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Whether and how densely to sample per-layer gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No instrumentation; the hot path is untouched.
    #[default]
    Off,
    /// Sample gauges every `interval` of simulated time.
    Sample {
        /// Simulated time between samples.
        interval: SimDuration,
    },
}

impl ObsMode {
    /// Default sampling cadence: every 5 simulated seconds.
    pub fn default_interval() -> SimDuration {
        SimDuration::from_secs(5.0)
    }

    /// Parses a CLI value: `off`, `sample`, or `sample:<seconds>`.
    pub fn parse(raw: &str) -> Result<ObsMode, String> {
        match raw {
            "off" => Ok(ObsMode::Off),
            "sample" => Ok(ObsMode::Sample { interval: Self::default_interval() }),
            other => {
                let secs = other
                    .strip_prefix("sample:")
                    .ok_or_else(|| format!("bad obs mode `{other}`"))?
                    .parse::<f64>()
                    .map_err(|_| format!("bad obs interval in `{other}`"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("obs interval must be positive, got `{other}`"));
                }
                Ok(ObsMode::Sample { interval: SimDuration::from_secs(secs) })
            }
        }
    }

    /// True when any instrumentation is enabled.
    pub fn is_on(&self) -> bool {
        !matches!(self, ObsMode::Off)
    }

    /// The sampling interval, when sampling.
    pub fn interval(&self) -> Option<SimDuration> {
        match self {
            ObsMode::Off => None,
            ObsMode::Sample { interval } => Some(*interval),
        }
    }
}

/// Observability settings carried on `CampaignConfig`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Sampling mode; `Off` disables the sampler and profiler entirely.
    pub mode: ObsMode,
    /// Directory for per-run `dsr-timeseries v2` files; `None` keeps the
    /// series in memory only (still merged into the campaign profile).
    pub timeseries_dir: Option<PathBuf>,
    /// Directory for per-run `dsr-cachetrace v1` cache-decision traces;
    /// `None` disables decision tracing. Independent of `mode` — and
    /// deliberately *not* consulted by [`ObsConfig::is_on`], which gates
    /// the sampler/profiler pillar only.
    pub cachetrace_dir: Option<PathBuf>,
}

impl ObsConfig {
    /// Shorthand for a fully disabled config.
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// True when the runner must instrument the event loop; a sampled
    /// campaign also prints live heartbeat lines to stderr.
    pub fn is_on(&self) -> bool {
        self.mode.is_on()
    }
}

/// Everything one instrumented run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunObservation {
    /// The run's sampled gauge series.
    pub timeseries: TimeSeries,
    /// The run's event-loop profile (`runs == 1`).
    pub profile: Profile,
}

/// A progress pulse from inside a run's event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatTick {
    /// Current simulated time.
    pub now: SimTime,
    /// The run's simulated end time.
    pub end: SimTime,
    /// Events dispatched so far in this run.
    pub events: u64,
}

/// One campaign worker's live state, as aggregated into the heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerState {
    /// Waiting for work (or done).
    #[default]
    Idle,
    /// Executing this seed.
    Running {
        /// The in-flight run's seed.
        seed: u64,
    },
    /// The worker thread died and will not come back.
    Dead,
}

/// One worker's slice of the pool-wide aggregation.
#[derive(Debug, Default)]
struct WorkerCell {
    state: Mutex<WorkerState>,
    /// Events dispatched so far by the worker's *current* run (folded into
    /// the pool-wide events/s alongside the completed-run total).
    inflight_events: AtomicU64,
    /// The current run's progress through simulated time, in thousandths.
    progress_milli: AtomicU64,
}

/// Campaign-wide progress aggregation behind the stderr heartbeat.
///
/// Worker threads report finished runs via [`run_finished`] and publish
/// their live state via [`set_worker`]; each run's in-loop heartbeat calls
/// [`heartbeat_line_for`], which folds every worker's in-flight events and
/// run progress into one pool-wide status line, printed at most once per
/// throttle period (so concurrent runs don't flood stderr).
///
/// [`run_finished`]: CampaignProgress::run_finished
/// [`set_worker`]: CampaignProgress::set_worker
/// [`heartbeat_line_for`]: CampaignProgress::heartbeat_line_for
#[derive(Debug)]
pub struct CampaignProgress {
    total_runs: u64,
    done: AtomicU64,
    failed: AtomicU64,
    events_done: AtomicU64,
    started: Instant,
    last_print_ms: AtomicU64,
    throttle_ms: u64,
    workers: Vec<WorkerCell>,
}

impl CampaignProgress {
    /// Creates a tracker aggregating `workers` concurrent workers with a
    /// 1 s print throttle.
    pub fn with_workers(total_runs: u64, workers: usize) -> Arc<Self> {
        Self::with_workers_and_throttle(total_runs, workers, 1000)
    }

    /// Creates a tracker aggregating `workers` concurrent workers with a
    /// custom throttle (milliseconds); `0` prints on every tick.
    pub fn with_workers_and_throttle(
        total_runs: u64,
        workers: usize,
        throttle_ms: u64,
    ) -> Arc<Self> {
        Arc::new(CampaignProgress {
            total_runs,
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            events_done: AtomicU64::new(0),
            started: Instant::now(),
            last_print_ms: AtomicU64::new(0),
            throttle_ms,
            workers: (0..workers.max(1)).map(|_| WorkerCell::default()).collect(),
        })
    }

    /// Publishes worker `worker`'s state. Leaving a run (`Idle`, `Dead`)
    /// clears the worker's in-flight contribution.
    pub fn set_worker(&self, worker: usize, state: WorkerState) {
        let Some(cell) = self.workers.get(worker) else { return };
        *cell.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = state;
        if !matches!(state, WorkerState::Running { .. }) {
            cell.inflight_events.store(0, Ordering::Relaxed);
            cell.progress_milli.store(0, Ordering::Relaxed);
        }
    }

    /// Records a finished run and the events it dispatched.
    pub fn run_finished(&self, ok: bool, events: u64) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.events_done.fetch_add(events, Ordering::Relaxed);
    }

    /// Publishes worker `worker`'s tick and formats a pool-wide status
    /// line, or `None` while throttled.
    ///
    /// The line reads like
    /// `[obs] 3/10 seeds done (1 failed), 1.2M events/s, ETA 42s`, with a
    /// `X running / Y idle / Z dead` segment when the pool has more than
    /// one worker.
    pub fn heartbeat_line_for(&self, worker: usize, tick: HeartbeatTick) -> Option<String> {
        if let Some(cell) = self.workers.get(worker) {
            cell.inflight_events.store(tick.events, Ordering::Relaxed);
            let milli = if tick.end > SimTime::ZERO {
                ((tick.now.as_secs() / tick.end.as_secs()).clamp(0.0, 1.0) * 1000.0) as u64
            } else {
                0
            };
            cell.progress_milli.store(milli, Ordering::Relaxed);
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        // Claim the print slot atomically so concurrent workers stay quiet.
        let claimed = self
            .last_print_ms
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
                // First tick prints immediately; afterwards honor the
                // throttle window.
                if last == 0 || now_ms.saturating_sub(last) >= self.throttle_ms {
                    Some(now_ms.max(1))
                } else {
                    None
                }
            })
            .is_ok();
        if !claimed {
            return None;
        }
        Some(self.format_line(now_ms))
    }

    fn format_line(&self, now_ms: u64) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let mut events = self.events_done.load(Ordering::Relaxed);
        let mut inflight_progress = 0.0;
        let mut running = 0usize;
        let mut idle = 0usize;
        let mut dead = 0usize;
        for cell in &self.workers {
            events += cell.inflight_events.load(Ordering::Relaxed);
            inflight_progress += cell.progress_milli.load(Ordering::Relaxed) as f64 / 1000.0;
            match *cell.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner) {
                WorkerState::Idle => idle += 1,
                WorkerState::Running { .. } => running += 1,
                WorkerState::Dead => dead += 1,
            }
        }
        let elapsed_s = (now_ms as f64 / 1000.0).max(1e-3);
        let rate = events as f64 / elapsed_s;
        let frac =
            ((done as f64 + inflight_progress) / self.total_runs.max(1) as f64).clamp(0.0, 1.0);
        let eta = if frac > 1e-6 && frac < 1.0 {
            let remaining = elapsed_s * (1.0 - frac) / frac;
            format!("ETA {}s", remaining.round() as u64)
        } else {
            "ETA --".to_string()
        };
        let workers = if self.workers.len() > 1 {
            format!(" {running} running / {idle} idle / {dead} dead,")
        } else {
            String::new()
        };
        format!(
            "[obs] {done}/{total} seeds done ({failed} failed),{workers} {rate} events/s, {eta}",
            total = self.total_runs,
            rate = human_rate(rate),
        )
    }
}

fn human_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_mode_parses_cli_values() {
        assert_eq!(ObsMode::parse("off").unwrap(), ObsMode::Off);
        assert_eq!(
            ObsMode::parse("sample").unwrap(),
            ObsMode::Sample { interval: SimDuration::from_secs(5.0) }
        );
        assert_eq!(
            ObsMode::parse("sample:0.5").unwrap(),
            ObsMode::Sample { interval: SimDuration::from_secs(0.5) }
        );
        assert!(ObsMode::parse("on").is_err());
        assert!(ObsMode::parse("sample:").is_err());
        assert!(ObsMode::parse("sample:-1").is_err());
        assert!(ObsMode::parse("sample:0").is_err());
        assert!(ObsMode::parse("sample:nan").is_err());
    }

    #[test]
    fn obs_config_defaults_off() {
        let config = ObsConfig::default();
        assert!(!config.is_on());
        assert_eq!(config, ObsConfig::off());
        assert!(ObsConfig { mode: ObsMode::parse("sample").unwrap(), ..ObsConfig::off() }.is_on());
    }

    #[test]
    fn heartbeat_reports_progress_and_throttles() {
        let progress = CampaignProgress::with_workers_and_throttle(4, 1, 0);
        progress.run_finished(true, 1000);
        progress.run_finished(false, 500);
        let tick = HeartbeatTick {
            now: SimTime::from_secs(60.0),
            end: SimTime::from_secs(120.0),
            events: 250,
        };
        let line = progress.heartbeat_line_for(0, tick).expect("zero throttle always prints");
        assert!(line.contains("2/4 seeds done (1 failed)"), "line: {line}");
        assert!(line.contains("events/s"), "line: {line}");
        assert!(line.contains("ETA"), "line: {line}");

        // A long throttle suppresses the second print.
        let throttled = CampaignProgress::with_workers_and_throttle(4, 1, 3_600_000);
        assert!(throttled.heartbeat_line_for(0, tick).is_some(), "first tick prints");
        assert!(throttled.heartbeat_line_for(0, tick).is_none(), "second tick throttled");
    }

    #[test]
    fn pool_heartbeat_aggregates_worker_states_and_inflight_events() {
        let progress = CampaignProgress::with_workers_and_throttle(8, 4, 0);
        progress.run_finished(true, 10_000);
        progress.set_worker(0, WorkerState::Running { seed: 3 });
        progress.set_worker(2, WorkerState::Dead);
        // Out-of-range workers are ignored, not a panic (one dead below).
        progress.set_worker(99, WorkerState::Dead);

        let tick = HeartbeatTick {
            now: SimTime::from_secs(30.0),
            end: SimTime::from_secs(120.0),
            events: 2_000,
        };
        let line = progress.heartbeat_line_for(0, tick).expect("zero throttle always prints");
        assert!(line.contains("1/8 seeds done (0 failed)"), "line: {line}");
        assert!(line.contains("1 running / 2 idle / 1 dead"), "line: {line}");
        assert!(line.contains("events/s"), "line: {line}");

        // Leaving the run clears the worker's in-flight contribution.
        progress.set_worker(0, WorkerState::Idle);
        let cleared = progress.heartbeat_line_for(
            1,
            HeartbeatTick { now: SimTime::ZERO, end: SimTime::from_secs(120.0), events: 0 },
        );
        assert!(cleared.expect("prints").contains("3 idle"), "worker 0 went idle");
    }

    #[test]
    fn single_worker_heartbeat_keeps_the_compact_format() {
        let progress = CampaignProgress::with_workers_and_throttle(4, 1, 0);
        let tick = HeartbeatTick { now: SimTime::ZERO, end: SimTime::from_secs(1.0), events: 0 };
        let line = progress.heartbeat_line_for(0, tick).expect("prints");
        assert!(!line.contains("running /"), "no worker segment for a pool of one: {line}");
    }

    #[test]
    fn human_rate_scales_units() {
        assert_eq!(human_rate(950.0), "950");
        assert_eq!(human_rate(1500.0), "1.5k");
        assert_eq!(human_rate(2_500_000.0), "2.5M");
    }
}
