//! The supervised parallel campaign executor.
//!
//! Fans a campaign's seeds across [`CampaignConfig::jobs`] worker threads
//! over a shared seed queue while keeping every output — reports,
//! journal, forensic artifacts, and the CSVs derived from them —
//! **byte-identical to a serial run**. The pieces:
//!
//! - **Workers** claim tasks from a shared queue and run them through
//!   the campaign module's `attempt_one` (per-run `catch_unwind` +
//!   watchdogs, unchanged from the serial engine). Each worker publishes
//!   its in-flight run in a slot the supervisor can inspect.
//! - **A dedicated retry lane** (one extra thread with its own delay
//!   queue) re-runs transient failures after their [`RetryBackoff`]
//!   delay, so a flaky seed sleeping through backoff never occupies a
//!   pool worker.
//! - **The supervisor** (the calling thread) owns every side effect:
//!   journal appends, forensic artifacts, and time-series files are
//!   written by this single thread only, so concurrent workers can never
//!   interleave or tear records. Results are buffered per seed index and
//!   the journal is flushed in seed order, which is what makes the output
//!   bytes independent of scheduling. The supervisor also arms each run's
//!   cancellation token when it outlives
//!   [`CampaignConfig::seed_deadline`] ([`RunError::DeadlineExceeded`]).
//! - **Worker death** (a panic in the executor machinery itself, outside
//!   the per-run isolation) degrades gracefully: the dead worker's
//!   in-flight seed is redispatched once to a surviving worker; a seed
//!   that kills two workers — or is stranded when every worker is gone —
//!   fails as [`RunError::WorkerLost`] and the campaign completes with
//!   partial results. All executor locks recover from poisoning.
//!
//! [`RetryBackoff`]: crate::campaign::RetryBackoff

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use metrics::Report;
use obs::{CacheTrace, CampaignProgress, Profile, RunObservation, WorkerState};
use sim_core::{NodeId, SimRng};

use crate::campaign::{
    attempt_one, AttemptHooks, CampaignConfig, CampaignResult, RunError, RunFailure,
};
use crate::config::ScenarioConfig;
use crate::forensics::{config_fingerprint, ForensicArtifact};
use crate::journal::{Journal, JournalWriter};
use crate::proto::RoutingAgent;
use crate::sim::HeartbeatSink;

/// How often the supervisor wakes to scan for blown seed deadlines when no
/// messages arrive.
const SUPERVISOR_TICK: Duration = Duration::from_millis(20);

/// Test-only fault hooks for the executor itself. The scenario-level chaos
/// hooks ([`crate::FaultEvent::Panic`]) kill a *run* inside its isolation
/// boundary; these kill the *worker machinery around it*, exercising the
/// redistribute-and-degrade path. Inert by default.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorChaos {
    /// Panic the claiming pool worker (outside the per-run
    /// `catch_unwind`) the moment it picks this seed up, simulating a
    /// permanently dying worker. The retry lane is exempt.
    pub worker_panic_on_seed: Option<u64>,
}

/// Locks a mutex, recovering the data from a poisoned lock: the executor
/// must keep supervising even after a worker died mid-critical-section.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One unit of work: run seed index `index` (attempt number `retry`, 0 for
/// the first try).
#[derive(Debug, Clone, Copy)]
struct Task {
    index: usize,
    retry: u32,
}

/// The shared seed queue pool workers claim from.
#[derive(Default)]
struct TaskQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    closed: bool,
}

impl TaskQueue {
    /// Enqueues a task; `false` once the queue is closed (the caller must
    /// dispose of the task itself — nothing may be silently stranded).
    fn push(&self, task: Task) -> bool {
        let mut st = lock(&self.state);
        if st.closed {
            return false;
        }
        st.tasks.push_back(task);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next task; `None` once the queue is closed.
    fn pop(&self) -> Option<Task> {
        let mut st = lock(&self.state);
        loop {
            if st.closed {
                return None;
            }
            if let Some(task) = st.tasks.pop_front() {
                return Some(task);
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue (waking every waiter) and returns whatever was
    /// still pending, atomically — no push can slip in after the drain.
    fn close_and_drain(&self) -> Vec<Task> {
        let mut st = lock(&self.state);
        st.closed = true;
        self.ready.notify_all();
        st.tasks.drain(..).collect()
    }
}

/// A retry waiting out its backoff delay.
#[derive(Debug, Clone, Copy)]
struct RetryTask {
    task: Task,
    not_before: Instant,
}

/// The retry lane's delay queue: tasks become claimable at `not_before`,
/// earliest first.
#[derive(Default)]
struct RetryLane {
    state: Mutex<LaneState>,
    ready: Condvar,
}

#[derive(Default)]
struct LaneState {
    tasks: Vec<RetryTask>,
    closed: bool,
}

impl RetryLane {
    /// Schedules a retry; `false` once the lane is closed or dead (the
    /// caller then declares the failure final instead).
    fn push(&self, task: RetryTask) -> bool {
        let mut st = lock(&self.state);
        if st.closed {
            return false;
        }
        st.tasks.push(task);
        self.ready.notify_one();
        true
    }

    /// Blocks until the earliest pending task's delay elapses; `None` once
    /// the lane is closed.
    fn pop(&self) -> Option<Task> {
        let mut st = lock(&self.state);
        loop {
            if st.closed {
                return None;
            }
            let now = Instant::now();
            if let Some(pos) = st
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.not_before <= now)
                .min_by_key(|(_, t)| t.not_before)
                .map(|(pos, _)| pos)
            {
                return Some(st.tasks.swap_remove(pos).task);
            }
            match st.tasks.iter().map(|t| t.not_before.saturating_duration_since(now)).min() {
                Some(wait) => {
                    st = self
                        .ready
                        .wait_timeout(st, wait.max(Duration::from_millis(1)))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                None => st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Closes the lane and returns the retries still waiting, atomically.
    fn close_and_drain(&self) -> Vec<Task> {
        let mut st = lock(&self.state);
        st.closed = true;
        self.ready.notify_all();
        st.tasks.drain(..).map(|t| t.task).collect()
    }
}

/// What a worker publishes while a run executes, so the supervisor can
/// enforce the seed deadline and recover the task if the worker dies.
struct InFlight {
    task: Task,
    started: Instant,
    cancel: Arc<AtomicBool>,
    cancelled: bool,
}

#[derive(Default)]
struct WorkerSlot {
    inflight: Mutex<Option<InFlight>>,
}

/// A finished attempt's result, shipped to the supervisor. The cache
/// trace rides along on both arms: failures keep their partial trace as
/// forensic material.
enum Outcome {
    Success {
        report: Box<Report>,
        observation: Option<RunObservation>,
        cachetrace: Option<CacheTrace>,
    },
    Failure {
        failure: RunFailure,
        trace: Vec<String>,
        cachetrace: Option<CacheTrace>,
    },
}

enum Msg {
    /// Seed `index` reached a final outcome (retries exhausted or not
    /// applicable).
    Done { index: usize, outcome: Box<Outcome> },
    /// Worker `worker` panicked outside the per-run isolation; `task` is
    /// what it was running (if anything).
    WorkerDead { worker: usize, task: Option<Task>, payload: String },
}

/// Runs the campaign. Single entry point for every job count — a serial
/// campaign is simply a pool of one.
pub(crate) fn execute<A, F>(
    base: &ScenarioConfig,
    seeds: &[u64],
    campaign: &CampaignConfig,
    label: &str,
    replayable: bool,
    make_agent: &F,
) -> CampaignResult
where
    A: RoutingAgent,
    F: Fn(NodeId, SimRng) -> A + Send + Sync,
{
    let jobs: Vec<ScenarioConfig> =
        seeds.iter().map(|&seed| ScenarioConfig { seed, ..base.clone() }).collect();
    let mut outcomes: Vec<Option<Result<Report, RunFailure>>> = vec![None; jobs.len()];

    // Resume support: pre-fill outcomes for seeds already journaled for
    // this exact scenario (fingerprint excludes the seed), then append
    // every fresh success so the *next* restart can skip it too. Journal
    // I/O problems degrade to a plain, un-resumable campaign rather than
    // failing runs that would otherwise succeed.
    let fingerprint = config_fingerprint(base);
    let mut journal_writer = None;
    if let Some(path) = &campaign.journal {
        match Journal::load(path) {
            Ok(journal) => {
                for (slot, job) in outcomes.iter_mut().zip(&jobs) {
                    if let Some(report) = journal.get(fingerprint, job.seed) {
                        *slot = Some(Ok(report.clone()));
                    }
                }
            }
            Err(e) => {
                eprintln!("warning: could not load campaign journal {}: {e}", path.display())
            }
        }
        match JournalWriter::open(path) {
            Ok(writer) => journal_writer = Some(writer),
            Err(e) => {
                eprintln!("warning: could not open campaign journal {}: {e}", path.display())
            }
        }
    }
    let journal_writer = journal_writer.as_ref();

    let fresh: Vec<bool> = outcomes.iter().map(Option::is_none).collect();
    let fresh_total = fresh.iter().filter(|f| **f).count();
    let mut observations: Vec<Option<RunObservation>> = vec![None; jobs.len()];

    if fresh_total > 0 {
        let nworkers = campaign.jobs.min(fresh_total);
        // Worker `nworkers` (one past the pool) is the retry lane.
        let progress = campaign
            .obs
            .heartbeat
            .then(|| CampaignProgress::with_workers(fresh_total as u64, nworkers + 1));
        run_pool(
            &jobs,
            &fresh,
            &mut outcomes,
            &mut observations,
            campaign,
            label,
            replayable,
            make_agent,
            nworkers,
            progress,
            journal_writer,
            fingerprint,
        );
    }

    let obs_on = campaign.obs.is_on();
    let mut profile = obs_on.then(Profile::default);
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let outcome = outcome.expect("every seed resolved");
        if let Some(profile) = profile.as_mut() {
            // Merge per-run profiles in seed order (journal-resumed seeds
            // did not re-execute and contribute nothing; failed runs have
            // no observation but still count).
            if fresh[i] {
                match (&outcome, &observations[i]) {
                    (Ok(_), Some(obs)) => profile.merge(&obs.profile),
                    (Ok(_), None) => {}
                    (Err(_), _) => {
                        profile.runs += 1;
                        profile.runs_failed += 1;
                    }
                }
            }
        }
        match outcome {
            Ok(report) => reports.push(report),
            Err(failure) => failures.push(failure),
        }
    }
    CampaignResult { reports, failures, profile }
}

/// Spawns the worker pool + retry lane and supervises them to completion.
/// On return every fresh seed has an outcome.
#[allow(clippy::too_many_arguments)]
fn run_pool<A, F>(
    jobs: &[ScenarioConfig],
    fresh: &[bool],
    outcomes: &mut [Option<Result<Report, RunFailure>>],
    observations: &mut [Option<RunObservation>],
    campaign: &CampaignConfig,
    label: &str,
    replayable: bool,
    make_agent: &F,
    nworkers: usize,
    progress: Option<Arc<CampaignProgress>>,
    journal_writer: Option<&JournalWriter>,
    fingerprint: u64,
) where
    A: RoutingAgent,
    F: Fn(NodeId, SimRng) -> A + Send + Sync,
{
    let queue = TaskQueue::default();
    let lane = RetryLane::default();
    let slots: Vec<WorkerSlot> = (0..=nworkers).map(|_| WorkerSlot::default()).collect();
    for (index, is_fresh) in fresh.iter().enumerate() {
        if *is_fresh {
            queue.push(Task { index, retry: 0 });
        }
    }
    let (tx, rx) = std::sync::mpsc::channel::<Msg>();
    let max_retries = if campaign.retry_transient { campaign.retry_backoff.max_retries } else { 0 };

    // One attempt, start to finish, shared by pool workers and the retry
    // lane. Sends `Done` for final outcomes; transient failures with
    // retries left go to the retry lane instead.
    let process = |worker: usize, task: Task, tx: &Sender<Msg>| {
        let job = &jobs[task.index];
        let seed = job.seed;
        let cancel = Arc::new(AtomicBool::new(false));
        *lock(&slots[worker].inflight) = Some(InFlight {
            task,
            started: Instant::now(),
            cancel: Arc::clone(&cancel),
            cancelled: false,
        });
        if let Some(p) = &progress {
            p.set_worker(worker, WorkerState::Running { seed });
        }
        if worker < nworkers && campaign.chaos.worker_panic_on_seed == Some(seed) {
            panic!("executor chaos: worker {worker} killed claiming seed {seed}");
        }
        let heartbeat: Option<HeartbeatSink> = progress.as_ref().map(|p| {
            let p = Arc::clone(p);
            Box::new(move |tick| {
                if let Some(line) = p.heartbeat_line_for(worker, tick) {
                    eprintln!("{line}");
                }
            }) as HeartbeatSink
        });
        let hooks = AttemptHooks {
            capture_trace: campaign.forensics_dir.is_some(),
            heartbeat,
            cancel: Some(cancel),
        };
        let (result, trace, observation, cachetrace) =
            attempt_one(job.clone(), label, make_agent, campaign, hooks);
        *lock(&slots[worker].inflight) = None;
        if let Some(p) = &progress {
            p.set_worker(worker, WorkerState::Idle);
        }
        match result {
            Ok(report) => {
                let _ = tx.send(Msg::Done {
                    index: task.index,
                    outcome: Box::new(Outcome::Success {
                        report: Box::new(report),
                        observation,
                        cachetrace,
                    }),
                });
            }
            Err(error) => {
                if error.is_transient() && task.retry < max_retries {
                    let retry = task.retry + 1;
                    let not_before = Instant::now() + campaign.retry_backoff.delay(retry);
                    let queued = lane
                        .push(RetryTask { task: Task { index: task.index, retry }, not_before });
                    if queued {
                        if let Some(p) = &progress {
                            p.set_worker(nworkers, WorkerState::Backoff { seed });
                        }
                        return;
                    }
                    // The retry lane is gone; the failure is final.
                }
                let failure = RunFailure { seed, error, retried: task.retry > 0 };
                let _ = tx.send(Msg::Done {
                    index: task.index,
                    outcome: Box::new(Outcome::Failure { failure, trace, cachetrace }),
                });
            }
        }
    };

    std::thread::scope(|scope| {
        for worker in 0..nworkers {
            let tx = tx.clone();
            let (queue, slots, process, progress) = (&queue, &slots, &process, &progress);
            scope.spawn(move || {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    while let Some(task) = queue.pop() {
                        process(worker, task, &tx);
                    }
                }));
                if let Err(payload) = caught {
                    if let Some(p) = progress {
                        p.set_worker(worker, WorkerState::Dead);
                    }
                    let task = lock(&slots[worker].inflight).take().map(|f| f.task);
                    let _ =
                        tx.send(Msg::WorkerDead { worker, task, payload: panic_message(payload) });
                }
            });
        }
        {
            let tx = tx.clone();
            let (lane, slots, process, progress) = (&lane, &slots, &process, &progress);
            scope.spawn(move || {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    while let Some(task) = lane.pop() {
                        process(nworkers, task, &tx);
                    }
                }));
                if let Err(payload) = caught {
                    if let Some(p) = progress {
                        p.set_worker(nworkers, WorkerState::Dead);
                    }
                    let task = lock(&slots[nworkers].inflight).take().map(|f| f.task);
                    let _ = tx.send(Msg::WorkerDead {
                        worker: nworkers,
                        task,
                        payload: panic_message(payload),
                    });
                }
            });
        }
        drop(tx); // the supervisor detects full worker loss via disconnect

        supervise(SuperviseCtx {
            jobs,
            fresh,
            outcomes,
            observations,
            campaign,
            label,
            replayable,
            nworkers,
            progress: progress.as_ref(),
            journal_writer,
            fingerprint,
            queue: &queue,
            lane: &lane,
            slots: &slots,
            rx,
        });

        // Wake and retire every worker so the scope can join.
        queue.close_and_drain();
        lane.close_and_drain();
    });
}

struct SuperviseCtx<'a> {
    jobs: &'a [ScenarioConfig],
    fresh: &'a [bool],
    outcomes: &'a mut [Option<Result<Report, RunFailure>>],
    observations: &'a mut [Option<RunObservation>],
    campaign: &'a CampaignConfig,
    label: &'a str,
    replayable: bool,
    nworkers: usize,
    progress: Option<&'a Arc<CampaignProgress>>,
    journal_writer: Option<&'a JournalWriter>,
    fingerprint: u64,
    queue: &'a TaskQueue,
    lane: &'a RetryLane,
    slots: &'a [WorkerSlot],
    rx: Receiver<Msg>,
}

/// The supervisor loop: the single writer for journal, forensics, and
/// time-series output, the seed-deadline enforcer, and the worker-death
/// recovery path.
fn supervise(ctx: SuperviseCtx<'_>) {
    let SuperviseCtx {
        jobs,
        fresh,
        outcomes,
        observations,
        campaign,
        label,
        replayable,
        nworkers,
        progress,
        journal_writer,
        fingerprint,
        queue,
        lane,
        slots,
        rx,
    } = ctx;
    let mut remaining = fresh.iter().filter(|f| **f).count();
    let mut redispatched = vec![false; jobs.len()];
    let mut live_workers = nworkers;
    let mut cursor = 0usize;
    // Advance past any journal-resumed prefix immediately.
    flush_journal(&mut cursor, outcomes, fresh, journal_writer, fingerprint, jobs);

    let fail_worker_lost = |outcomes: &mut [Option<Result<Report, RunFailure>>],
                            remaining: &mut usize,
                            task: Task,
                            detail: &str| {
        let seed = jobs[task.index].seed;
        outcomes[task.index] = Some(Err(RunFailure {
            seed,
            error: RunError::WorkerLost { seed, detail: detail.to_string() },
            retried: task.retry > 0,
        }));
        *remaining -= 1;
        if let Some(p) = progress {
            p.run_finished(false, 0);
        }
    };

    while remaining > 0 {
        if let Some(deadline) = campaign.seed_deadline {
            for slot in slots {
                let mut guard = lock(&slot.inflight);
                if let Some(inflight) = guard.as_mut() {
                    if !inflight.cancelled && inflight.started.elapsed() >= deadline {
                        inflight.cancel.store(true, Ordering::Relaxed);
                        inflight.cancelled = true;
                    }
                }
            }
        }
        let msg = match rx.recv_timeout(SUPERVISOR_TICK) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue,
            // Every worker (and the retry lane) is gone; nothing more can
            // arrive. Leftovers are failed below.
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            Msg::Done { index, outcome } => {
                remaining -= 1;
                match *outcome {
                    Outcome::Success { report, observation, cachetrace } => {
                        let events = observation.as_ref().map_or(0, |o| o.profile.events);
                        if let (Some(obs), Some(dir)) = (&observation, &campaign.obs.timeseries_dir)
                        {
                            if let Err(e) = obs.timeseries.write_to(dir) {
                                eprintln!(
                                    "warning: could not write time series for seed {}: {e}",
                                    jobs[index].seed
                                );
                            }
                        }
                        // Supervisor-only write, like every other side
                        // effect: rows were buffered in event-dispatch
                        // order inside the run, so the file bytes are
                        // independent of the worker count.
                        if let (Some(ct), Some(dir)) = (&cachetrace, &campaign.obs.cachetrace_dir) {
                            if let Err(e) = ct.write_to(dir) {
                                eprintln!(
                                    "warning: could not write cache trace for seed {}: {e}",
                                    jobs[index].seed
                                );
                            }
                        }
                        observations[index] = observation;
                        outcomes[index] = Some(Ok(*report));
                        if let Some(p) = progress {
                            p.run_finished(true, events);
                        }
                    }
                    Outcome::Failure { failure, trace, cachetrace } => {
                        // A failed run's partial cache trace lands next to
                        // the forensic artifact (same file stem) when a
                        // forensics dir exists, else in the trace dir.
                        if let Some(ct) = &cachetrace {
                            let dir = campaign
                                .forensics_dir
                                .as_ref()
                                .or(campaign.obs.cachetrace_dir.as_ref());
                            if let Some(dir) = dir {
                                if let Err(e) = ct.write_to(dir) {
                                    eprintln!(
                                        "warning: could not write cache trace for seed {}: {e}",
                                        jobs[index].seed
                                    );
                                }
                            }
                        }
                        if let Some(dir) = &campaign.forensics_dir {
                            let artifact = ForensicArtifact {
                                label: label.to_string(),
                                replayable,
                                config: jobs[index].clone(),
                                error: failure.error.clone(),
                                trace,
                            };
                            match artifact.write_to(dir) {
                                Ok(path) => {
                                    eprintln!("forensic artifact written: {}", path.display())
                                }
                                Err(e) => {
                                    eprintln!("warning: could not write forensic artifact: {e}")
                                }
                            }
                        }
                        outcomes[index] = Some(Err(failure));
                        if let Some(p) = progress {
                            p.run_finished(false, 0);
                        }
                    }
                }
                flush_journal(&mut cursor, outcomes, fresh, journal_writer, fingerprint, jobs);
            }
            Msg::WorkerDead { worker, task, payload } => {
                let lane_died = worker == nworkers;
                if !lane_died {
                    live_workers -= 1;
                }
                eprintln!(
                    "warning: campaign {} died: {payload}",
                    if lane_died { "retry lane".to_string() } else { format!("worker {worker}") }
                );
                // The dead thread's in-flight task — plus, if the retry
                // lane died, everything waiting in it — must be
                // redispatched or failed; nothing may be stranded.
                let mut orphans: Vec<Task> = task.into_iter().collect();
                if lane_died {
                    orphans.extend(lane.close_and_drain());
                }
                for task in orphans {
                    let redispatchable = !redispatched[task.index] && live_workers > 0;
                    if redispatchable && queue.push(task) {
                        redispatched[task.index] = true;
                    } else {
                        let detail = format!("killed its executor thread ({payload})");
                        fail_worker_lost(outcomes, &mut remaining, task, &detail);
                    }
                }
                if live_workers == 0 {
                    // No pool worker left to serve the main queue; fail
                    // whatever is parked there. The retry lane (if alive)
                    // still finishes its own pending work.
                    for task in queue.close_and_drain() {
                        fail_worker_lost(outcomes, &mut remaining, task, "all workers died");
                    }
                }
                flush_journal(&mut cursor, outcomes, fresh, journal_writer, fingerprint, jobs);
            }
        }
    }

    // Belt and braces: on an abort (channel disconnect) some seeds may
    // still be unresolved — fail them so the campaign always accounts for
    // every seed.
    for index in 0..jobs.len() {
        if fresh[index] && outcomes[index].is_none() {
            fail_worker_lost(
                outcomes,
                &mut remaining,
                Task { index, retry: 0 },
                "executor aborted: all workers died",
            );
        }
    }
    flush_journal(&mut cursor, outcomes, fresh, journal_writer, fingerprint, jobs);
}

/// Appends freshly completed reports to the journal in seed order: the
/// cursor only advances over resolved seeds, so the journal's bytes are
/// identical no matter how the pool interleaved the runs.
fn flush_journal(
    cursor: &mut usize,
    outcomes: &[Option<Result<Report, RunFailure>>],
    fresh: &[bool],
    writer: Option<&JournalWriter>,
    fingerprint: u64,
    jobs: &[ScenarioConfig],
) {
    while *cursor < outcomes.len() {
        let Some(outcome) = &outcomes[*cursor] else { break };
        if fresh[*cursor] {
            if let (Ok(report), Some(writer)) = (outcome, writer) {
                if let Err(e) = writer.record(fingerprint, jobs[*cursor].seed, report) {
                    eprintln!("warning: could not journal seed {}: {e}", jobs[*cursor].seed);
                }
            }
        }
        *cursor += 1;
    }
}
