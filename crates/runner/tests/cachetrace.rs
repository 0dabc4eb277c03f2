//! Acceptance tests for cache-decision tracing (ISSUE 9): tracing is pure
//! observation (reports identical on/off), trace files are byte-identical
//! at every job count, failed runs leave their partial trace next to the
//! forensic artifact, and the recorded rows obey the `dsr-cachetrace v1`
//! vocabulary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dsr::DsrConfig;
use mobility::Point;
use obs::{CacheTrace, OPS};
use runner::{
    config_fingerprint, run_campaign, CacheTraceBuf, CampaignConfig, FaultEvent, FaultPlan,
    ScenarioConfig, Simulator, Zone,
};
use sim_core::{SimDuration, SimTime};

/// A unique scratch path, cleaned up by each test.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cachetrace-it-{tag}-{}", std::process::id()))
}

/// A small mobile scenario (20 waypoint nodes) shortened to keep the test
/// fast; movement guarantees genuine link breaks, so removals carry real
/// staleness verdicts rather than degenerate static-topology ones.
fn mobile(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), seed);
    cfg.duration = SimDuration::from_secs(12.0);
    cfg
}

/// Reads a trace directory into `file name -> bytes`, sorted.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("trace dir")
        .map(|e| {
            let p = e.expect("entry").path();
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).expect("read trace"),
            )
        })
        .collect()
}

#[test]
fn tracing_on_does_not_perturb_campaign_results() {
    let base = mobile(0);
    let seeds = [1, 2, 3];
    let off = run_campaign(&base, &seeds, &CampaignConfig::default());
    assert_eq!(off.reports.len(), 3, "{}", off.failure_summary());

    let dir = scratch("purity");
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = CampaignConfig::default();
    campaign.obs.cachetrace_dir = Some(dir.clone());
    let on = run_campaign(&base, &seeds, &campaign);

    assert_eq!(on, off, "cache-decision tracing must be pure observation");
    let files = dir_bytes(&dir);
    assert_eq!(
        files.len(),
        seeds.len(),
        "one trace per successful seed: {files:?}",
        files = files.keys().collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_files_are_byte_identical_at_any_job_count() {
    // One seed panics mid-run so the parallel paths also cover the
    // failure lane; its partial trace must match the sequential one too.
    let mut base = mobile(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(6.0), only_seed: Some(2) }],
    };
    let seeds = [1, 2, 3, 4];

    let run = |jobs: usize, tag: &str| -> BTreeMap<String, Vec<u8>> {
        let dir = scratch(&format!("jobs-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut campaign = CampaignConfig { jobs, ..CampaignConfig::default() };
        campaign.obs.cachetrace_dir = Some(dir.clone());
        let result = run_campaign(&base, &seeds, &campaign);
        assert_eq!(result.reports.len(), 3, "{}", result.failure_summary());
        let files = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        files
    };

    let sequential = run(1, "seq");
    assert_eq!(sequential.len(), seeds.len(), "failed seed 2 still leaves its partial trace");
    for jobs in [2, 4] {
        assert_eq!(
            run(jobs, &format!("par{jobs}")),
            sequential,
            "jobs={jobs} must not change a single trace byte"
        );
    }
}

#[test]
fn failed_runs_leave_their_trace_next_to_the_forensic_artifact() {
    let mut base = mobile(0);
    base.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(5.0), only_seed: Some(2) }],
    };
    let forensics = scratch("forensics");
    let traces = scratch("traces");
    let _ = std::fs::remove_dir_all(&forensics);
    let _ = std::fs::remove_dir_all(&traces);
    let mut campaign =
        CampaignConfig { forensics_dir: Some(forensics.clone()), ..CampaignConfig::default() };
    campaign.obs.cachetrace_dir = Some(traces.clone());
    let result = run_campaign(&base, &[1, 2], &campaign);
    assert_eq!(result.failures.len(), 1);

    let forensic_files = dir_bytes(&forensics);
    let artifact = forensic_files.keys().find(|n| n.ends_with("_seed2.txt"));
    let trace = forensic_files.keys().find(|n| n.ends_with("_seed2.cachetrace"));
    assert!(
        artifact.is_some() && trace.is_some(),
        "failed seed must leave artifact + trace side by side: {:?}",
        forensic_files.keys().collect::<Vec<_>>()
    );
    // They share the stem, so `<stem>.cachetrace` explains `<stem>.txt`.
    assert_eq!(
        artifact.unwrap().trim_end_matches(".txt"),
        trace.unwrap().trim_end_matches(".cachetrace")
    );

    // The healthy seed's trace goes to the ordinary trace directory.
    let ok_files = dir_bytes(&traces);
    assert_eq!(ok_files.len(), 1);
    assert!(ok_files.keys().all(|n| n.ends_with("_seed1.cachetrace")));

    let _ = std::fs::remove_dir_all(&forensics);
    let _ = std::fs::remove_dir_all(&traces);
}

#[test]
fn recorded_rows_obey_the_format_vocabulary() {
    let dir = scratch("vocab");
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = CampaignConfig::default();
    campaign.obs.cachetrace_dir = Some(dir.clone());
    let result = run_campaign(&mobile(0), &[1], &campaign);
    assert_eq!(result.reports.len(), 1, "{}", result.failure_summary());

    let entry = std::fs::read_dir(&dir).expect("dir").next().expect("one trace").expect("entry");
    let trace = CacheTrace::load(&entry.path()).expect("well-formed trace");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(trace.seed, 1);
    assert_eq!(trace.dropped, 0);
    assert!(!trace.rows.is_empty(), "a mobile run must make cache decisions");
    let mut last_t = 0;
    for row in &trace.rows {
        assert!(OPS.contains(&row.op.as_str()), "unknown op {:?}", row.op);
        assert!(row.t_ns >= last_t, "rows must be in dispatch order");
        last_t = row.t_ns;
        match row.op.as_str() {
            "insert" => assert!(row.valid.is_some() && row.stale_ns.is_none()),
            "lookup" => {
                assert_ne!(row.dst, "-", "lookups name their destination");
                assert!(row.valid.is_some() || row.route == "-", "a hit carries a verdict");
            }
            "remove" => {
                assert!(row.route.contains('>'), "removals name the link: {:?}", row.route);
                match row.valid {
                    Some(true) => assert_eq!(row.stale_ns, Some(0), "premature purge"),
                    Some(false) => assert!(row.stale_ns.is_some(), "broken link needs latency"),
                    None => panic!("removals always get a verdict"),
                }
            }
            _ => {}
        }
    }
    assert!(trace.rows.iter().any(|r| r.op == "lookup"), "traffic must trigger lookups");
    assert!(trace.rows.iter().any(|r| r.op == "insert"), "discovery must trigger inserts");
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs `cfg` with a cache-decision recorder installed and assembles the
/// trace the way the campaign supervisor does.
fn traced(cfg: ScenarioConfig) -> CacheTrace {
    let label = cfg.dsr.label();
    let (seed, fingerprint) = (cfg.seed, config_fingerprint(&cfg));
    let buf: Arc<Mutex<CacheTraceBuf>> = Arc::default();
    let mut sim = Simulator::new(cfg);
    sim.set_cachetrace(Arc::clone(&buf));
    sim.try_run().expect("tiny scenario runs clean");
    let buf = std::mem::take(&mut *buf.lock().expect("recorder lock"));
    CacheTrace { label, seed, fingerprint, rows: buf.rows, dropped: buf.dropped }
}

/// Trace *content* pinned across commits: digests of the rendered file for
/// three tiny scenarios, recorded at the last commit whose stamper built
/// every row with `to_string()` per hop and a `HashMap` link memo. A change
/// to the stamper, the row text or the file renderer that moves a single
/// byte moves a digest. Re-pin only in a change that means to alter the
/// trace format or the oracle's verdicts, and say so in that change. The
/// header's `fingerprint =` line moves with the forensic scenario keys.
#[test]
fn rendered_traces_match_the_pinned_digests() {
    let secs = SimTime::from_secs;
    let dur = SimDuration::from_secs;
    let n = sim_core::NodeId::new;
    let blackout = Zone::Disc { center: Point::new(150.0, 150.0), radius_m: 120.0 };
    // Churn wipes two caches mid-run and the blackout breaks links the
    // oracle still calls up, so removals carry both premature and non-zero
    // staleness verdicts and the rebooted caches refill, expire and evict.
    let faults = FaultPlan::none()
        .node_churn(n(2), secs(6.0), dur(4.0))
        .node_churn(n(9), secs(14.0), dur(5.0))
        .region_blackout(blackout, secs(10.0), dur(6.0));
    let combined = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::combined(), 3);
    // A six-route cache overflows, so the faulted file carries `evict` rows.
    let mut faulted = ScenarioConfig { faults, ..combined.clone() };
    faulted.dsr.cache_capacity = 6;
    let cases: [(&str, ScenarioConfig, u64, &[&str]); 3] = [
        (
            "combined_clean",
            combined,
            0x3c58_81dd_05ad_a275,
            &["insert", "lookup", "remove", "expire", "refresh"],
        ),
        (
            "base_clean",
            ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), 1),
            0x3919_803c_4a80_9b1c,
            &["insert", "lookup", "remove", "refresh"],
        ),
        (
            "combined_churn_blackout",
            faulted,
            0x7f94_2d5e_2235_93e1,
            &["insert", "lookup", "remove", "expire", "evict", "refresh"],
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, cfg, pinned, ops) in cases {
        let trace = traced(cfg);
        assert_eq!(trace.dropped, 0, "{name}: a tiny run stays under the cap");
        for op in ops {
            let rows = trace.rows.iter().filter(|r| r.op == *op).count();
            assert!(rows > 0, "{name}: no `{op}` rows");
        }
        if name == "combined_churn_blackout" {
            let late = |r: &&obs::CacheRow| r.node == 2 && r.t_ns > secs(10.0).as_nanos();
            for op in ["expire", "evict"] {
                let rows = trace.rows.iter().filter(late).filter(|r| r.op == op).count();
                assert!(rows > 0, "{name}: no `{op}` at node 2 after its reboot");
            }
            let removes = || trace.rows.iter().filter(|r| r.op == "remove");
            assert!(removes().any(|r| r.stale_ns > Some(0)), "{name}: no stale purge");
            assert!(removes().any(|r| r.valid == Some(true)), "{name}: no premature purge");
        }
        let got = fnv1a(trace.render().as_bytes());
        if got != pinned {
            let mut hist = BTreeMap::new();
            for r in &trace.rows {
                *hist.entry(r.op.as_str()).or_insert(0u64) += 1;
            }
            mismatches.push(format!("{name}: digest {got:#018x}, pinned {pinned:#018x} {hist:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
