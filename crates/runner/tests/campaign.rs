//! Acceptance tests for the fault-injection subsystem and the
//! crash-isolated campaign engine (ISSUE 1), plus the failure-forensics
//! stack — conservation audits, repro artifacts, resumable campaigns
//! (ISSUE 3).

use std::path::PathBuf;
use std::time::Duration;

use dsr::DsrConfig;
use mobility::Point;
use runner::{
    replay_run, run_campaign, run_scenario, AuditLevel, CampaignConfig, FaultEvent, FaultPlan,
    ForensicArtifact, RunError, RunLimits, ScenarioConfig, Zone,
};
use sim_core::{NodeId, SimDuration, SimTime};

/// A unique scratch path for journals/artifacts, cleaned up by each test.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("forensics-it-{tag}-{}", std::process::id()))
}

/// A 5-node static chain, 20 simulated seconds: every packet crosses four
/// hops, so a mid-chain fault is guaranteed to be on the data path.
fn chain(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), seed);
    cfg.duration = SimDuration::from_secs(20.0);
    cfg
}

#[test]
fn one_panicking_seed_does_not_take_down_the_campaign() {
    let mut base = chain(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(5.0), only_seed: Some(2) }],
    };
    let result = run_campaign(&base, &[1, 2, 3], &CampaignConfig::default());
    assert_eq!(result.reports.len(), 2, "seeds 1 and 3 must still report");
    assert_eq!(result.failures.len(), 1);
    let failure = &result.failures[0];
    assert_eq!(failure.seed, 2);
    assert!(
        matches!(&failure.error, RunError::Panicked { seed: 2, payload } if payload.contains("fault injection")),
        "unexpected failure: {}",
        failure.error
    );
    assert!(result.mean().is_some());
}

#[test]
fn event_storm_trips_the_budget_watchdog_instead_of_hanging() {
    let mut base = chain(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::EventStorm { at: SimTime::from_secs(2.0), only_seed: None }],
    };
    let campaign = CampaignConfig {
        limits: RunLimits { wall_clock: None, max_events_per_sim_second: Some(50_000) },
        ..CampaignConfig::default()
    };
    let result = run_campaign(&base, &[1], &campaign);
    assert!(result.reports.is_empty());
    assert_eq!(result.failures.len(), 1);
    match &result.failures[0].error {
        RunError::EventBudgetExhausted { seed: 1, at, events } => {
            assert_eq!(at.as_secs(), 2.0, "storm pins simulated time at its start");
            assert!(*events >= 50_000);
        }
        other => panic!("expected EventBudgetExhausted, got {other}"),
    }
}

#[test]
fn relay_crash_breaks_routes_and_is_visible_in_the_report() {
    // Seed 1's flow crosses all four hops, so the middle relay is on the
    // data path by construction.
    let baseline = run_scenario(chain(1));
    assert!(baseline.avg_hops > 3.0, "test premise: the flow must traverse the chain");
    // Crash the middle relay for a quarter of the run.
    let mut faulted_cfg = chain(1);
    faulted_cfg.faults = FaultPlan::none().node_down(
        NodeId::new(2),
        SimTime::from_secs(5.0),
        SimDuration::from_secs(5.0),
    );
    let faulted = run_scenario(faulted_cfg);
    assert_eq!(faulted.faults_injected, 1);
    assert!(faulted.arrivals_suppressed > 0, "a crashed relay must miss receptions");
    assert!(
        faulted.link_breaks > baseline.link_breaks,
        "crashing the only relay must surface as link breaks \
         (baseline {}, faulted {})",
        baseline.link_breaks,
        faulted.link_breaks
    );
    assert!(
        faulted.errors_sent > baseline.errors_sent,
        "the upstream node must originate a route error \
         (baseline {}, faulted {})",
        baseline.errors_sent,
        faulted.errors_sent
    );
    assert!(faulted.delivered < baseline.delivered, "outage must cost deliveries");
}

#[test]
fn blackout_and_corruption_register_in_the_metrics() {
    let mut cfg = chain(3);
    cfg.faults = FaultPlan::none()
        // Black out the two middle relays' neighborhood.
        .region_blackout(
            Zone::rect(Point::new(150.0, -50.0), Point::new(650.0, 50.0)),
            SimTime::from_secs(4.0),
            SimDuration::from_secs(3.0),
        )
        .frame_corruption(0.5, SimTime::from_secs(10.0), SimTime::from_secs(14.0));
    let r = run_scenario(cfg);
    assert_eq!(r.faults_injected, 2);
    assert!(r.arrivals_suppressed > 0, "blackout must suppress in-range receptions");
    assert!(r.frames_corrupted > 0, "a 50% window over busy seconds must corrupt frames");
    assert!(r.delivered <= r.originated);
}

#[test]
fn fault_plans_are_deterministic_for_a_given_seed() {
    let make = || {
        let mut cfg = chain(11);
        cfg.faults = FaultPlan::none()
            .node_down(NodeId::new(1), SimTime::from_secs(3.0), SimDuration::from_secs(2.0))
            .frame_corruption(0.2, SimTime::from_secs(6.0), SimTime::from_secs(9.0))
            .region_blackout(
                Zone::rect(Point::new(300.0, -10.0), Point::new(900.0, 10.0)),
                SimTime::from_secs(12.0),
                SimDuration::from_secs(2.0),
            );
        cfg
    };
    let a = run_scenario(make());
    let b = run_scenario(make());
    assert_eq!(a, b, "identical (config, seed) must reproduce byte-for-byte");
    assert_eq!(a.faults_injected, 3);
}

#[test]
fn fault_free_runs_are_unchanged_by_the_fault_machinery() {
    // An empty plan and a plan whose faults never activate (out-of-range
    // node, post-run start) must all match the no-fault baseline exactly.
    let baseline = run_scenario(chain(5));
    let mut inert = chain(5);
    inert.faults = FaultPlan::none()
        .node_down(NodeId::new(99), SimTime::from_secs(1.0), SimDuration::from_secs(1.0))
        .frame_corruption(0.9, SimTime::from_secs(100.0), SimTime::from_secs(200.0));
    let r = run_scenario(inert);
    assert_eq!(r.delivered, baseline.delivered);
    assert_eq!(r.routing_tx, baseline.routing_tx);
    assert_eq!(r.frames_corrupted, 0);
    assert_eq!(r.arrivals_suppressed, 0);
}

#[test]
fn wall_clock_watchdog_is_classified_transient_and_final() {
    let campaign = CampaignConfig {
        limits: RunLimits {
            wall_clock: Some(Duration::from_nanos(1)),
            max_events_per_sim_second: None,
        },
        ..CampaignConfig::default()
    };
    let result = run_campaign(&chain(0), &[4], &campaign);
    assert_eq!(result.failures.len(), 1);
    let error = &result.failures[0].error;
    assert!(matches!(error, RunError::WatchdogTimeout { seed: 4, .. }));
    assert!(error.is_transient(), "a wall-clock failure depends on the machine");
    assert_eq!(result.failure_summary(), error.to_string(), "one attempt, one line");
}

// ---------------------------------------------------------------------
// ISSUE 3: conservation audits, repro artifacts, resumable campaigns.
// ---------------------------------------------------------------------

#[test]
fn full_audit_passes_on_clean_and_faulted_runs() {
    let campaign = CampaignConfig { audit: AuditLevel::Full, ..CampaignConfig::default() };

    // Clean static chain.
    let clean = run_campaign(&chain(0), &[1, 2], &campaign);
    assert!(clean.all_ok(), "clean runs must balance the ledger: {}", clean.failure_summary());

    // Heavily faulted chain: a crashed relay, a blackout, and corruption
    // all force drops, salvage attempts, and in-flight losses — the exact
    // traffic the ledger must still account for.
    let mut faulted = chain(0);
    faulted.faults = FaultPlan::none()
        .node_down(NodeId::new(2), SimTime::from_secs(5.0), SimDuration::from_secs(5.0))
        .region_blackout(
            Zone::rect(Point::new(150.0, -50.0), Point::new(650.0, 50.0)),
            SimTime::from_secs(12.0),
            SimDuration::from_secs(3.0),
        )
        .frame_corruption(0.4, SimTime::from_secs(15.0), SimTime::from_secs(18.0));
    let result = run_campaign(&faulted, &[1, 2, 3], &campaign);
    assert!(
        result.all_ok(),
        "faulted runs must still balance the ledger: {}",
        result.failure_summary()
    );

    // A mobile (waypoint) scenario with the combined variant: caches,
    // salvaging, and negative caching all active.
    let mut mobile = ScenarioConfig::tiny(0.0, 3.0, DsrConfig::combined(), 0);
    mobile.duration = SimDuration::from_secs(15.0);
    let mobile_result = run_campaign(&mobile, &[1, 2], &campaign);
    assert!(
        mobile_result.all_ok(),
        "mobile runs must balance the ledger: {}",
        mobile_result.failure_summary()
    );
}

#[test]
fn audited_runs_report_the_same_metrics_as_unaudited_ones() {
    let plain = run_campaign(&chain(9), &[1], &CampaignConfig::default());
    let audited = run_campaign(
        &chain(9),
        &[1],
        &CampaignConfig { audit: AuditLevel::Full, ..CampaignConfig::default() },
    );
    assert_eq!(plain.reports, audited.reports, "the auditor must be a pure observer");
}

#[test]
fn panic_artifact_replays_to_the_identical_error() {
    let dir = scratch("panic-artifact");
    let _ = std::fs::remove_dir_all(&dir);
    let mut base = chain(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(5.0), only_seed: Some(2) }],
    };
    let campaign = CampaignConfig { forensics_dir: Some(dir.clone()), ..CampaignConfig::default() };
    let result = run_campaign(&base, &[1, 2, 3], &campaign);
    assert_eq!(result.failures.len(), 1);
    let recorded_error = result.failures[0].error.clone();

    // Exactly one artifact, for the failing seed.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("forensics dir must exist")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "one failure ⇒ one artifact: {entries:?}");
    assert!(entries[0].to_string_lossy().ends_with("_seed2.txt"));

    // The artifact is self-contained: load → replay → identical RunError,
    // even with the conservation audit turned all the way up.
    let artifact = ForensicArtifact::load(&entries[0]).expect("load artifact");
    assert!(artifact.replayable);
    assert_eq!(artifact.error, recorded_error);
    assert_eq!(artifact.config.seed, 2);
    let replayed = replay_run(&artifact.config, AuditLevel::Full);
    assert_eq!(replayed, Err(recorded_error), "the artifact must reproduce the failure");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forensic_config_round_trip_reruns_to_the_identical_report() {
    // Serialize a scenario through the artifact format, then run both
    // copies: the text format must be exact enough that the replayed
    // config produces a byte-identical report.
    let mut cfg = ScenarioConfig::tiny(10.0, 2.0, DsrConfig::combined(), 13);
    cfg.duration = SimDuration::from_secs(10.0);
    cfg.faults =
        FaultPlan::none().frame_corruption(0.25, SimTime::from_secs(2.0), SimTime::from_secs(6.0));
    let artifact = ForensicArtifact {
        label: cfg.dsr.label(),
        replayable: true,
        config: cfg.clone(),
        error: RunError::Panicked { seed: 13, payload: "synthetic".into() },
        trace: Vec::new(),
    };
    let parsed = ForensicArtifact::parse(&artifact.render()).expect("round trip");
    assert_eq!(parsed.config, cfg);
    assert_eq!(run_scenario(parsed.config), run_scenario(cfg));
}

#[test]
fn journal_resume_skips_completed_seeds_and_matches_an_uninterrupted_run() {
    let journal = scratch("resume-journal.txt");
    let _ = std::fs::remove_file(&journal);
    let base = chain(0);

    // Reference: one uninterrupted, journal-free campaign.
    let uninterrupted = run_campaign(&base, &[1, 2, 3], &CampaignConfig::default());
    assert!(uninterrupted.all_ok());

    // "Killed" campaign: only seeds 1 and 2 completed before the kill.
    let journaled = CampaignConfig { journal: Some(journal.clone()), ..CampaignConfig::default() };
    let partial = run_campaign(&base, &[1, 2], &journaled);
    assert!(partial.all_ok());

    // Restart with a 1 ns wall clock: any seed that actually re-runs
    // fails, so journaled seeds surviving proves they were skipped.
    let strangled = CampaignConfig {
        journal: Some(journal.clone()),
        limits: RunLimits { wall_clock: Some(Duration::from_nanos(1)), ..RunLimits::default() },
        ..CampaignConfig::default()
    };
    let resumed = run_campaign(&base, &[1, 2, 3], &strangled);
    assert_eq!(
        resumed.reports,
        uninterrupted.reports[..2],
        "seeds 1, 2 must come from the journal"
    );
    assert_eq!(resumed.failures.len(), 1, "seed 3 must actually run (and hit the watchdog)");
    assert_eq!(resumed.failures[0].seed, 3);

    // Proper resume: seed 3 completes, and the final CampaignResult is
    // byte-identical to the uninterrupted campaign's.
    let completed = run_campaign(&base, &[1, 2, 3], &journaled);
    assert_eq!(completed, uninterrupted);

    // The mean report — what the experiment binaries print — matches too.
    assert_eq!(completed.mean(), uninterrupted.mean());
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn journal_entries_are_scoped_to_their_scenario() {
    let journal = scratch("fingerprint-journal.txt");
    let _ = std::fs::remove_file(&journal);
    let journaled = CampaignConfig { journal: Some(journal.clone()), ..CampaignConfig::default() };

    // Journal seed 1 of the base-DSR chain.
    assert!(run_campaign(&chain(0), &[1], &journaled).all_ok());

    // A *different* scenario (other DSR variant), same seed, same journal,
    // strangled watchdog: it must NOT be served from the journal.
    let mut other = chain(0);
    other.dsr = DsrConfig::combined();
    let strangled = CampaignConfig {
        journal: Some(journal.clone()),
        limits: RunLimits { wall_clock: Some(Duration::from_nanos(1)), ..RunLimits::default() },
        ..CampaignConfig::default()
    };
    let result = run_campaign(&other, &[1], &strangled);
    assert_eq!(
        result.failures.len(),
        1,
        "a different scenario must not reuse the journaled report"
    );

    // The original scenario IS served from the journal under the same
    // impossible watchdog.
    let original = run_campaign(&chain(0), &[1], &strangled);
    assert!(original.all_ok(), "journaled seed must be skipped: {}", original.failure_summary());
    let _ = std::fs::remove_file(&journal);
}
