//! The parallel campaign executor.
//!
//! Fans a campaign's seeds across [`CampaignConfig::jobs`] worker threads
//! while keeping every output — reports, journal, forensic artifacts, and
//! the CSVs derived from them — **byte-identical to a serial run**. Every
//! run is a pure function of its config and seed, so the executor is a
//! batch, not a service:
//!
//! - **Workers** claim the fresh seeds in campaign order from one atomic
//!   cursor and run each through the campaign module's `attempt_one`
//!   (per-run `catch_unwind` plus the in-loop watchdogs of
//!   [`RunLimits`](crate::RunLimits)). Nothing is queued after start-up:
//!   a failed run is final, and `--resume` re-runs it.
//! - **The supervisor** (the calling thread) blocks on the workers'
//!   channel and owns every side effect: journal appends, forensic
//!   artifacts, time-series and cache-trace files are written by this
//!   single thread only, so concurrent workers can never interleave or
//!   tear records. Results are buffered per seed index and the journal is
//!   flushed in seed order, which is what makes the output bytes
//!   independent of scheduling.
//! - **Worker death** (a panic in the executor machinery itself, outside
//!   the per-run isolation) fails the dead worker's in-flight seed as
//!   [`RunError::WorkerLost`] at once; the surviving workers keep
//!   claiming. Seeds nobody could claim because every worker died fail
//!   the same way, so the campaign always ends with exactly one report or
//!   one failure per seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use metrics::Report;
use obs::{CacheTrace, CampaignProgress, Profile, RunObservation, WorkerState};
use packet::RoutingAgent;
use sim_core::{NodeId, SimRng};

use crate::campaign::{
    attempt_one, panic_message, AttemptHooks, CampaignConfig, CampaignResult, RunError, RunFailure,
};
use crate::config::ScenarioConfig;
use crate::forensics::{config_fingerprint, ForensicArtifact};
use crate::journal::{Journal, JournalWriter};
use crate::sim::HeartbeatSink;

/// A fault hook for the executor itself. The scenario-level chaos hooks
/// ([`crate::FaultEvent::Panic`]) kill a *run* inside its isolation
/// boundary; this kills the *worker machinery around it*, exercising the
/// `WorkerLost` path. Inert by default.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ExecutorChaos {
    /// Panic the claiming worker (outside the per-run `catch_unwind`) the
    /// moment it picks this seed up, simulating a permanently dying worker.
    pub(crate) worker_panic_on_seed: Option<u64>,
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
    /// Seed `index` ran to an outcome.
    Done { index: usize, outcome: Box<Outcome> },
    /// Worker `worker` panicked outside the per-run isolation; `index` is
    /// the seed it was running (if any).
    WorkerDead { worker: usize, index: Option<usize>, payload: String },
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

    let fresh: Vec<bool> = outcomes.iter().map(Option::is_none).collect();
    let mut observations: Vec<Option<RunObservation>> = vec![None; jobs.len()];
    let mut supervisor = Supervisor {
        jobs: &jobs,
        fresh: &fresh,
        outcomes: &mut outcomes,
        observations: &mut observations,
        campaign,
        label,
        replayable,
        progress: None,
        journal: journal_writer.as_ref(),
        fingerprint,
        cursor: 0,
    };
    // Advance past any journal-resumed prefix immediately.
    supervisor.flush_journal();
    supervisor.run_pool(make_agent);

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

/// The supervisor: the single writer for journal, forensics, time-series
/// and cache-trace output, and the only thread that resolves a seed.
struct Supervisor<'a> {
    jobs: &'a [ScenarioConfig],
    fresh: &'a [bool],
    outcomes: &'a mut [Option<Result<Report, RunFailure>>],
    observations: &'a mut [Option<RunObservation>],
    campaign: &'a CampaignConfig,
    label: &'a str,
    replayable: bool,
    progress: Option<Arc<CampaignProgress>>,
    journal: Option<&'a JournalWriter>,
    fingerprint: u64,
    /// Seeds before this index are resolved and journaled.
    cursor: usize,
}

impl Supervisor<'_> {
    /// Spawns `jobs` workers over the fresh seeds and supervises them to
    /// completion. On return every seed has an outcome.
    fn run_pool<A, F>(&mut self, make_agent: &F)
    where
        A: RoutingAgent,
        F: Fn(NodeId, SimRng) -> A + Send + Sync,
    {
        let todo: Vec<usize> = (0..self.jobs.len()).filter(|&i| self.fresh[i]).collect();
        if todo.is_empty() {
            return;
        }
        let nworkers = self.campaign.jobs.min(todo.len());
        self.progress = self
            .campaign
            .obs
            .is_on()
            .then(|| CampaignProgress::with_workers(todo.len() as u64, nworkers));
        // The claim cursor over `todo`. A claim publishes no data (`todo`
        // is immutable), and the read-modify-write alone hands each index
        // to one worker, so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<Msg>();
        let (jobs, campaign, label, progress) =
            (self.jobs, self.campaign, self.label, self.progress.clone());

        // One attempt, start to finish: runs seed `index` on `worker` and
        // sends its outcome.
        let process = |worker: usize, index: usize, tx: &Sender<Msg>| {
            let job = &jobs[index];
            let seed = job.seed;
            if let Some(p) = &progress {
                p.set_worker(worker, WorkerState::Running { seed });
            }
            #[cfg(test)]
            if campaign.chaos.worker_panic_on_seed == Some(seed) {
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
            let hooks = AttemptHooks { capture_trace: campaign.forensics_dir.is_some(), heartbeat };
            let (result, trace, observation, cachetrace) =
                attempt_one(job.clone(), label, make_agent, campaign, hooks);
            if let Some(p) = &progress {
                p.set_worker(worker, WorkerState::Idle);
            }
            let outcome = match result {
                Ok(report) => {
                    Outcome::Success { report: Box::new(report), observation, cachetrace }
                }
                Err(error) => {
                    Outcome::Failure { failure: RunFailure { seed, error }, trace, cachetrace }
                }
            };
            let _ = tx.send(Msg::Done { index, outcome: Box::new(outcome) });
        };

        std::thread::scope(|scope| {
            for worker in 0..nworkers {
                let tx = tx.clone();
                let (todo, next, process, progress) = (&todo, &next, &process, &progress);
                scope.spawn(move || {
                    let mut running = None;
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        while let Some(&index) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                            running = Some(index);
                            process(worker, index, &tx);
                            running = None;
                        }
                    }));
                    if let Err(payload) = caught {
                        if let Some(p) = progress {
                            p.set_worker(worker, WorkerState::Dead);
                        }
                        let payload = panic_message(payload);
                        let _ = tx.send(Msg::WorkerDead { worker, index: running, payload });
                    }
                });
            }
            // The channel disconnects once every worker has run out of
            // seeds or died; each worker's messages precede its hang-up.
            drop(tx);
            for msg in rx {
                match msg {
                    Msg::Done { index, outcome } => self.settle(index, *outcome),
                    Msg::WorkerDead { worker, index, payload } => {
                        eprintln!("warning: campaign worker {worker} died: {payload}");
                        if let Some(index) = index {
                            self.lose(index, &format!("killed its executor thread ({payload})"));
                        }
                    }
                }
                self.flush_journal();
            }
        });

        // Every worker died before the cursor ran out: fail what is left
        // so the campaign accounts for every seed.
        for index in todo {
            if self.outcomes[index].is_none() {
                self.lose(index, "all workers died");
            }
        }
        self.flush_journal();
    }

    /// Records seed `index`'s outcome and writes its files.
    fn settle(&mut self, index: usize, outcome: Outcome) {
        let (campaign, seed) = (self.campaign, self.jobs[index].seed);
        match outcome {
            Outcome::Success { report, observation, cachetrace } => {
                let events = observation.as_ref().map_or(0, |o| o.profile.events);
                if let (Some(obs), Some(dir)) = (&observation, &campaign.obs.timeseries_dir) {
                    if let Err(e) = obs.timeseries.write_to(dir) {
                        eprintln!("warning: could not write time series for seed {seed}: {e}");
                    }
                }
                // Rows were buffered in event-dispatch order inside the
                // run, so the file bytes are independent of the worker
                // count.
                if let (Some(ct), Some(dir)) = (&cachetrace, &campaign.obs.cachetrace_dir) {
                    if let Err(e) = ct.write_to(dir) {
                        eprintln!("warning: could not write cache trace for seed {seed}: {e}");
                    }
                }
                self.observations[index] = observation;
                self.outcomes[index] = Some(Ok(*report));
                if let Some(p) = &self.progress {
                    p.run_finished(true, events);
                }
            }
            Outcome::Failure { failure, trace, cachetrace } => {
                // A failed run's partial cache trace lands next to the
                // forensic artifact (same file stem) when a forensics dir
                // exists, else in the trace dir.
                if let Some(ct) = &cachetrace {
                    let dir =
                        campaign.forensics_dir.as_ref().or(campaign.obs.cachetrace_dir.as_ref());
                    if let Some(dir) = dir {
                        if let Err(e) = ct.write_to(dir) {
                            eprintln!("warning: could not write cache trace for seed {seed}: {e}");
                        }
                    }
                }
                if let Some(dir) = &campaign.forensics_dir {
                    let artifact = ForensicArtifact {
                        label: self.label.to_string(),
                        replayable: self.replayable,
                        config: self.jobs[index].clone(),
                        error: failure.error.clone(),
                        trace,
                    };
                    match artifact.write_to(dir) {
                        Ok(path) => eprintln!("forensic artifact written: {}", path.display()),
                        Err(e) => eprintln!("warning: could not write forensic artifact: {e}"),
                    }
                }
                self.outcomes[index] = Some(Err(failure));
                if let Some(p) = &self.progress {
                    p.run_finished(false, 0);
                }
            }
        }
    }

    /// Fails seed `index` as [`RunError::WorkerLost`]. There was no
    /// finished run, so no forensic artifact is written.
    fn lose(&mut self, index: usize, detail: &str) {
        let seed = self.jobs[index].seed;
        let error = RunError::WorkerLost { seed, detail: detail.to_string() };
        self.outcomes[index] = Some(Err(RunFailure { seed, error }));
        if let Some(p) = &self.progress {
            p.run_finished(false, 0);
        }
    }

    /// Appends freshly completed reports to the journal in seed order: the
    /// cursor only advances over resolved seeds, so the journal's bytes are
    /// identical no matter how the pool interleaved the runs.
    fn flush_journal(&mut self) {
        while let Some(Some(outcome)) = self.outcomes.get(self.cursor) {
            if self.fresh[self.cursor] {
                if let (Ok(report), Some(writer)) = (outcome, self.journal) {
                    let seed = self.jobs[self.cursor].seed;
                    if let Err(e) = writer.record(self.fingerprint, seed, report) {
                        eprintln!("warning: could not journal seed {seed}: {e}");
                    }
                }
            }
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use dsr::DsrConfig;
    use sim_core::SimDuration;

    use super::*;
    use crate::run_campaign;

    /// A 5-node static chain, 10 simulated seconds.
    fn chain(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), seed);
        cfg.duration = SimDuration::from_secs(10.0);
        cfg
    }

    #[test]
    fn dead_worker_is_survived_and_its_seed_fails_as_worker_lost() {
        // Chaos kills the claiming worker (outside the per-run isolation)
        // the moment it picks up seed 3. The seed fails as WorkerLost at
        // once and the surviving workers finish everything else.
        let campaign = CampaignConfig {
            jobs: 4,
            chaos: ExecutorChaos { worker_panic_on_seed: Some(3) },
            ..CampaignConfig::default()
        };
        let seeds = [1, 2, 3, 4, 5, 6, 7, 8];
        let result = run_campaign(&chain(0), &seeds, &campaign);
        assert_eq!(result.reports.len(), 7, "{}", result.failure_summary());
        assert_eq!(result.failures.len(), 1);
        let failure = &result.failures[0];
        assert_eq!(failure.seed, 3);
        match &failure.error {
            RunError::WorkerLost { seed: 3, detail } => {
                assert!(detail.contains("executor chaos"), "detail: {detail}");
            }
            other => panic!("expected WorkerLost, got {other}"),
        }

        // The seven survivors match an undisturbed campaign.
        let clean = run_campaign(&chain(0), &[1, 2, 4, 5, 6, 7, 8], &CampaignConfig::default());
        assert_eq!(result.reports, clean.reports);
    }

    #[test]
    fn losing_every_worker_still_terminates_with_partial_results() {
        // One worker, killed on seed 2: seed 1 completes first, seed 2
        // fails with its worker and seed 3 is never claimed. Both must
        // fail as WorkerLost — the campaign must neither hang nor lose
        // accounting.
        let campaign = CampaignConfig {
            jobs: 1,
            chaos: ExecutorChaos { worker_panic_on_seed: Some(2) },
            ..CampaignConfig::default()
        };
        let result = run_campaign(&chain(0), &[1, 2, 3], &campaign);
        assert_eq!(result.reports.len(), 1);
        assert_eq!(
            result.reports[0],
            run_campaign(&chain(0), &[1], &CampaignConfig::default()).reports[0]
        );
        assert_eq!(result.failures.len(), 2);
        assert_eq!(result.failures[0].seed, 2);
        assert_eq!(result.failures[1].seed, 3);
        for failure in &result.failures {
            assert!(
                matches!(failure.error, RunError::WorkerLost { .. }),
                "unexpected error: {}",
                failure.error
            );
        }
    }
}
