//! Acceptance tests for the strategy matrix: multipath caching keeps
//! cache-decision tracing pure (campaign results identical traced vs
//! untraced), and its failovers land in the trace under the `failover` op
//! while the always-on report counter stays in lockstep.

use std::path::PathBuf;

use dsr::DsrConfig;
use obs::CacheTrace;
use runner::{run_campaign, CampaignConfig, ScenarioConfig};
use sim_core::SimDuration;

/// A unique scratch path, cleaned up by each test.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("strategy-trace-it-{tag}-{}", std::process::id()))
}

/// A short mobile scenario: waypoint movement guarantees link breaks, so
/// alternates break.
fn mobile(dsr: DsrConfig, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(0.0, 2.0, dsr, seed);
    cfg.duration = SimDuration::from_secs(12.0);
    cfg
}

/// Runs `cfg` untraced and traced, asserts tracing is pure observation,
/// and returns the traced campaign's reports plus the per-seed traces.
fn traced_campaign(cfg: &ScenarioConfig, tag: &str) -> (runner::CampaignResult, Vec<CacheTrace>) {
    let seeds = [1, 2];
    let off = run_campaign(cfg, &seeds, &CampaignConfig::default());
    assert_eq!(off.reports.len(), seeds.len(), "{}", off.failure_summary());

    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = CampaignConfig::default();
    campaign.obs.cachetrace_dir = Some(dir.clone());
    let on = run_campaign(cfg, &seeds, &campaign);
    assert_eq!(on, off, "[{}] tracing must be pure observation", cfg.dsr.label());

    let mut paths: Vec<PathBuf> =
        std::fs::read_dir(&dir).expect("trace dir").map(|e| e.expect("entry").path()).collect();
    paths.sort();
    let traces: Vec<CacheTrace> =
        paths.iter().map(|p| CacheTrace::load(p).expect("well-formed trace")).collect();
    let _ = std::fs::remove_dir_all(&dir);
    (on, traces)
}

#[test]
fn multipath_failovers_are_traced_and_counted() {
    let (result, traces) = traced_campaign(&mobile(DsrConfig::multipath(), 0), "mp");
    let counted: u64 = result.reports.iter().map(|r| r.failovers).sum();
    assert!(counted > 0, "a mobile multipath run must fail over");

    let failover_rows: Vec<_> =
        traces.iter().flat_map(|t| t.rows.iter()).filter(|r| r.op == "failover").collect();
    assert!(!failover_rows.is_empty(), "failovers must appear in the trace");
    for row in &failover_rows {
        assert_ne!(row.dst, "-", "failover rows name the destination");
        assert!(row.route.contains('-'), "the surviving route is recorded: {:?}", row.route);
        assert!(row.valid.is_some(), "the oracle stamps the surviving route");
    }
    assert!(traces.iter().all(|t| t.dropped == 0));
    assert_eq!(failover_rows.len() as u64, counted, "trace and counter must agree");
}

#[test]
fn baseline_configs_never_emit_strategy_decisions() {
    let (result, traces) = traced_campaign(&mobile(DsrConfig::combined(), 0), "base");
    for r in &result.reports {
        assert_eq!(r.failovers, 0);
    }
    for trace in &traces {
        assert!(
            trace.rows.iter().all(|r| r.op != "failover"),
            "strategy ops must not leak into non-strategy configs"
        );
    }
}
