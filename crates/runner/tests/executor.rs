//! Acceptance tests for the parallel campaign executor: byte-identical
//! output at every job count, the wall-clock watchdog's reach, and one
//! artifact per failed seed. The worker-death tests need the executor's
//! test-only fault hook and live in `executor.rs`.

use std::path::PathBuf;
use std::time::Duration;

use dsr::DsrConfig;
use runner::{
    run_campaign, CampaignConfig, FaultEvent, FaultPlan, RunError, RunLimits, ScenarioConfig,
};
use sim_core::{SimDuration, SimTime};

/// A unique scratch path, cleaned up by each test.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("executor-it-{tag}-{}", std::process::id()))
}

/// A 5-node static chain, 10 simulated seconds.
fn chain(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), seed);
    cfg.duration = SimDuration::from_secs(10.0);
    cfg
}

#[test]
fn parallel_campaigns_are_byte_identical_to_sequential() {
    // Two deterministic failures in the mix: seed 2 panics, seed 5 trips
    // the event budget. Everything — reports, failures, journal bytes,
    // forensic artifacts — must match the sequential run exactly.
    let mut base = chain(0);
    base.faults = FaultPlan {
        events: vec![
            FaultEvent::Panic { at: SimTime::from_secs(5.0), only_seed: Some(2) },
            FaultEvent::EventStorm { at: SimTime::from_secs(2.0), only_seed: Some(5) },
        ],
    };
    let seeds = [1, 2, 3, 4, 5, 6];
    let config_for = |jobs: usize, tag: &str| CampaignConfig {
        jobs,
        limits: RunLimits { wall_clock: None, max_events_per_sim_second: Some(50_000) },
        journal: Some(scratch(&format!("journal-{tag}"))),
        forensics_dir: Some(scratch(&format!("forensics-{tag}"))),
        ..CampaignConfig::default()
    };
    let artifacts = |dir: &PathBuf| -> Vec<(String, String)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("forensics dir")
            .map(|e| e.expect("entry").path())
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read_to_string(&p).expect("read artifact"),
                )
            })
            .collect();
        files.sort();
        files
    };

    let seq_cfg = config_for(1, "seq");
    let _ = std::fs::remove_file(seq_cfg.journal.as_ref().unwrap());
    let _ = std::fs::remove_dir_all(seq_cfg.forensics_dir.as_ref().unwrap());
    let sequential = run_campaign(&base, &seeds, &seq_cfg);
    assert_eq!(sequential.reports.len(), 4, "{}", sequential.failure_summary());
    assert_eq!(sequential.failures.len(), 2);
    let seq_journal = std::fs::read(seq_cfg.journal.as_ref().unwrap()).expect("journal");
    let seq_artifacts = artifacts(seq_cfg.forensics_dir.as_ref().unwrap());
    assert_eq!(seq_artifacts.len(), 2, "one artifact per deterministic failure");

    for jobs in [2, 4, 8] {
        let par_cfg = config_for(jobs, &format!("par{jobs}"));
        let _ = std::fs::remove_file(par_cfg.journal.as_ref().unwrap());
        let _ = std::fs::remove_dir_all(par_cfg.forensics_dir.as_ref().unwrap());
        let parallel = run_campaign(&base, &seeds, &par_cfg);
        assert_eq!(parallel, sequential, "jobs={jobs} must not change the CampaignResult");
        let par_journal = std::fs::read(par_cfg.journal.as_ref().unwrap()).expect("journal");
        assert_eq!(par_journal, seq_journal, "jobs={jobs} must not change the journal bytes");
        assert_eq!(
            artifacts(par_cfg.forensics_dir.as_ref().unwrap()),
            seq_artifacts,
            "jobs={jobs} must not change the forensic artifacts"
        );
        let _ = std::fs::remove_file(par_cfg.journal.as_ref().unwrap());
        let _ = std::fs::remove_dir_all(par_cfg.forensics_dir.as_ref().unwrap());
    }
    let _ = std::fs::remove_file(seq_cfg.journal.as_ref().unwrap());
    let _ = std::fs::remove_dir_all(seq_cfg.forensics_dir.as_ref().unwrap());
}

#[test]
fn hung_seed_hits_the_wall_clock_watchdog_and_fails_cleanly() {
    // Seed 2's event storm spins at one simulated instant with the event
    // budget off — without a watchdog it would hang forever. The in-loop
    // wall-clock watchdog must stop it, the failure is final, and the
    // campaign must complete with partial results.
    let mut base = chain(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::EventStorm { at: SimTime::from_secs(1.0), only_seed: Some(2) }],
    };
    let campaign = CampaignConfig {
        jobs: 2,
        limits: RunLimits {
            wall_clock: Some(Duration::from_millis(250)),
            max_events_per_sim_second: None,
        },
        ..CampaignConfig::default()
    };
    let result = run_campaign(&base, &[1, 2, 3], &campaign);
    assert_eq!(result.reports.len(), 2, "seeds 1 and 3 must still report");
    assert_eq!(result.failures.len(), 1);
    let failure = &result.failures[0];
    assert_eq!(failure.seed, 2);
    assert!(
        matches!(failure.error, RunError::WatchdogTimeout { seed: 2, .. }),
        "unexpected error: {}",
        failure.error
    );

    // The surviving seeds' reports are unperturbed by the watchdog.
    let clean = run_campaign(&chain(0), &[1, 3], &CampaignConfig::default());
    assert_eq!(result.reports, clean.reports);
}

#[test]
fn concurrent_failures_write_one_artifact_each() {
    // Every seed panics at the same simulated instant across 4 workers:
    // the temp-file + rename discipline must leave exactly one complete
    // artifact per seed and no temp debris.
    let dir = scratch("concurrent-artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    let mut base = chain(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(1.0), only_seed: None }],
    };
    let campaign =
        CampaignConfig { jobs: 4, forensics_dir: Some(dir.clone()), ..CampaignConfig::default() };
    let seeds = [1, 2, 3, 4, 5, 6];
    let result = run_campaign(&base, &seeds, &campaign);
    assert_eq!(result.failures.len(), seeds.len());
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("forensics dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), seeds.len(), "one artifact per failed seed: {names:?}");
    assert!(names.iter().all(|n| !n.contains(".tmp.")), "no temp debris: {names:?}");
    for seed in seeds {
        assert!(
            names.iter().any(|n| n.ends_with(&format!("_seed{seed}.txt"))),
            "missing artifact for seed {seed}: {names:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
