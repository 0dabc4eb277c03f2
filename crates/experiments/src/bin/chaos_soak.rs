//! **Chaos soak** — long randomized fault campaigns at full audit.
//!
//! Each campaign draws a fresh fault plan (crashes, churn, rectangle, disc
//! and half-plane region blackouts, duty-cycled radios, corruption
//! windows) from a dedicated deterministic RNG stream, then runs it
//! across the mode's seeds on the parallel executor with the
//! packet-conservation audit at `full`. Any violation fails the run,
//! leaves a repro artifact under `results/forensics/` — with the run's
//! cache-decision trace (`.cachetrace`) beside it, since the soak forces
//! `--cachetrace` on — and fails the soak.
//!
//! ```sh
//! cargo run --release -p experiments --bin chaos_soak [--quick|--full] [--jobs <n>] [--seed-timeout <secs>] [--resume <journal>] [--audit <level>] [--obs <mode>]
//! ```
//!
//! The audit is the point of the soak, so the harness-wide `--audit off`
//! default is promoted to `full`; pass `--audit counters` to explicitly
//! cheapen it. The wall-clock watchdog (`--seed-timeout`) defaults on,
//! scaled to the mode, so a livelocked seed cannot hang a CI job.
//!
//! Exit codes:
//!
//! - `0` — every campaign completed with zero conservation violations;
//! - `1` — at least one run failed (audit violation, panic, watchdog);
//!   forensics are under `results/forensics/`;
//! - `2` — bad command line.

#![warn(unreachable_pub)]

use std::time::Duration;

use dsr::DsrConfig;
use experiments::spec::cell;
use experiments::{run_point, variants, Agent, ExpArgs, ExpMode, Table};
use mobility::Point;
use runner::{AuditLevel, FaultPlan, MobilitySpec, ScenarioConfig, Zone};
use sim_core::{rng::uniform, NodeId, RngFactory, SimDuration, SimRng, SimTime};

/// The CSV header. The cells after `rate_pps` are measured: each is the
/// [`cell`] of that name, as in every `dsr-exp` table.
const HEADER: &[&str] = &[
    "campaign",
    "variant",
    "faults_planned",
    "rate_pps",
    "faults_injected",
    "arrivals_suppressed",
    "frames_corrupted",
    "delivery_pct",
    "runs_failed",
];

/// Campaigns per soak: enough distinct fault plans to cover every kind
/// several times over without turning the quick mode into a long job.
fn campaign_count(mode: ExpMode) -> usize {
    match mode {
        ExpMode::Quick => 6,
        ExpMode::Full => 12,
    }
}

/// The base scenario one campaign perturbs. Quick mode soaks the small
/// 20-node scenario so CI finishes in minutes; full mode soaks the
/// paper's 100-node topology at its time-compressed length.
fn base_scenario(mode: ExpMode, rate_pps: f64, dsr: DsrConfig) -> ScenarioConfig {
    match mode {
        ExpMode::Quick => ScenarioConfig::tiny(0.0, rate_pps, dsr, 0),
        ExpMode::Full => ScenarioConfig::quick(0.0, rate_pps, dsr, 0),
    }
}

/// The rectangular extent faults are placed in: the waypoint field, or
/// the static positions' bounding box.
fn field_extent(cfg: &ScenarioConfig) -> (f64, f64) {
    match &cfg.mobility {
        MobilitySpec::Waypoint(w) => (w.field.width, w.field.height),
        MobilitySpec::Static(points) => {
            let w = points.iter().map(|p| p.x).fold(1.0f64, f64::max);
            let h = points.iter().map(|p| p.y).fold(1.0f64, f64::max);
            (w, h)
        }
    }
}

/// Draws one randomized fault plan. Deterministic in (`rng` state only):
/// the same soak invocation always builds the same plans, so a failing
/// campaign index is reproducible from the CSV alone — and the forensic
/// artifact carries the exact plan anyway.
fn chaos_plan(rng: &mut SimRng, cfg: &ScenarioConfig) -> FaultPlan {
    let nodes = cfg.num_nodes() as f64;
    let d = cfg.duration.as_secs();
    let (w, h) = field_extent(cfg);
    let node = |rng: &mut SimRng| NodeId::new(uniform(rng, 0.0, nodes) as u16);
    let count = 3 + uniform(rng, 0.0, 4.0) as usize;
    let mut plan = FaultPlan::none();
    for _ in 0..count {
        plan = match uniform(rng, 0.0, 6.0) as u32 {
            0 => {
                let at = SimTime::from_secs(uniform(rng, 0.1 * d, 0.6 * d));
                plan.node_down(
                    node(rng),
                    at,
                    SimDuration::from_secs(uniform(rng, 0.05 * d, 0.3 * d)),
                )
            }
            1 => {
                let from = uniform(rng, 0.0, 0.5 * d);
                let until = from + uniform(rng, 0.1 * d, 0.5 * d);
                plan.frame_corruption(
                    uniform(rng, 0.05, 0.4),
                    SimTime::from_secs(from),
                    SimTime::from_secs(until),
                )
            }
            2 => {
                let (x0, y0) = (uniform(rng, 0.0, 0.7 * w), uniform(rng, 0.0, 0.7 * h));
                let rect = Zone::rect(
                    Point::new(x0, y0),
                    Point::new(
                        x0 + uniform(rng, 0.1 * w, 0.3 * w),
                        y0 + uniform(rng, 0.1 * h, 0.3 * h),
                    ),
                );
                let at = SimTime::from_secs(uniform(rng, 0.1 * d, 0.7 * d));
                plan.region_blackout(
                    rect,
                    at,
                    SimDuration::from_secs(uniform(rng, 0.05 * d, 0.25 * d)),
                )
            }
            3 => {
                let at = SimTime::from_secs(uniform(rng, 0.1 * d, 0.5 * d));
                plan.node_churn(
                    node(rng),
                    at,
                    SimDuration::from_secs(uniform(rng, 0.05 * d, 0.25 * d)),
                )
            }
            4 => {
                let zone = if uniform(rng, 0.0, 1.0) < 0.5 {
                    Zone::Disc {
                        center: Point::new(uniform(rng, 0.0, w), uniform(rng, 0.0, h)),
                        radius_m: uniform(rng, 0.1 * w.min(h), 0.5 * w.min(h)),
                    }
                } else {
                    Zone::HalfPlane {
                        origin: Point::new(uniform(rng, 0.0, w), uniform(rng, 0.0, h)),
                        normal: Point::new(uniform(rng, -1.0, 1.0), uniform(rng, -1.0, 1.0)),
                    }
                };
                let at = SimTime::from_secs(uniform(rng, 0.1 * d, 0.7 * d));
                plan.region_blackout(
                    zone,
                    at,
                    SimDuration::from_secs(uniform(rng, 0.05 * d, 0.2 * d)),
                )
            }
            _ => {
                let at = SimTime::from_secs(uniform(rng, 0.05 * d, 0.3 * d));
                plan.radio_duty_cycle(
                    node(rng),
                    at,
                    SimDuration::from_secs(uniform(rng, 0.02 * d, 0.1 * d)),
                    SimDuration::from_secs(uniform(rng, 0.01 * d, 0.05 * d)),
                    SimTime::from_secs(uniform(rng, 0.6 * d, 0.95 * d)),
                )
            }
        };
    }
    plan
}

fn main() {
    let mut args = ExpArgs::from_env_or_exit("chaos_soak");
    if args.audit == AuditLevel::Off {
        args.audit = AuditLevel::Full;
    }
    // Always record cache-decision traces: a failed campaign then leaves a
    // `.cachetrace` next to its forensic artifact, so the cache's view of
    // the world at the moment of violation is part of the repro bundle.
    args.cachetrace = true;
    args.seed_timeout.get_or_insert(match args.mode {
        ExpMode::Quick => Duration::from_secs(240),
        ExpMode::Full => Duration::from_secs(3000),
    });

    let mode = args.mode;
    let campaigns = campaign_count(mode);
    eprintln!(
        "chaos soak ({mode:?}): {campaigns} randomized fault campaigns, audit {}, {} jobs",
        args.audit, args.jobs
    );

    let mut table = Table::new(format!("chaos_soak_{}", mode.tag()), HEADER);

    // One dedicated plan stream per campaign index: plans never depend on
    // execution order, job count, or what earlier campaigns consumed.
    let plans = RngFactory::new(0xC4A05);
    let pool = variants();
    let mut failed_runs = 0usize;
    for idx in 0..campaigns {
        let mut rng = plans.stream("chaos-plan", idx as u64);
        let dsr = pool[idx % pool.len()].clone();
        let rate_pps = uniform(&mut rng, 1.0, 4.0);
        let mut cfg = base_scenario(mode, rate_pps, dsr);
        cfg.faults = chaos_plan(&mut rng, &cfg);
        let planned = cfg.faults.events.len();
        eprintln!("campaign {idx}: {} [{planned} faults, {rate_pps:.2} pkt/s]", cfg.dsr.label());
        let r = run_point(&cfg, &Agent::Dsr, &args);
        failed_runs += r.runs_failed;
        let mut cells =
            vec![idx.to_string(), r.label.clone(), planned.to_string(), format!("{rate_pps:.2}")];
        cells.extend(HEADER[cells.len()..].iter().map(|name| cell(name, &r)));
        table.row(cells);
    }

    println!("\nChaos soak: randomized fault campaigns on the fused path\n");
    table.finish_or_exit();

    if failed_runs > 0 {
        eprintln!(
            "chaos soak: {failed_runs} run(s) failed — repro artifacts under results/forensics/"
        );
        std::process::exit(1);
    }
    println!("chaos soak clean: zero conservation violations across {campaigns} campaigns.");
}
