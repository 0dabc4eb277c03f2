//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! dsr-benchmark <workload> [--seed N] [--seconds S] [--trace 0|1]
//! dsr-benchmark <workload> --record-golden
//! dsr-benchmark <workload> --aa
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` runs the traced pass and the layer drivers for the per-layer
//! metrics; without `--trace` both run. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod aa;
mod alloc;
mod calib;
mod digest;
mod drive;
mod emit;
mod golden;
mod json;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};

use calib::SharedProbe;
use drive::{Observers, Outcome};
use emit::Emitter;
use metrics::Report;
use workloads::{Scenario, Scenarios, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's own directory (`benchmark/` of the checkout the binary
/// was built in): goldens are read from it and span files written under it.
pub fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Set-ups timed before and again after each scenario's run; the median
/// of both rounds together is that scenario's set-up time.
const SETUP_SAMPLES: usize = 50;

/// Simulated seconds of the untimed warm-up run.
const WARMUP_SIM_S: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Measure,
    RecordGolden,
    Aa,
}

#[derive(Debug, Clone)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    /// `None` = both phases.
    trace: Option<bool>,
    mode: Mode,
}

const USAGE: &str = "usage: run.sh <workload> [--seed N] [--seconds S] [--trace 0|1] \
                     [--record-golden | --aa]\n       (or --workload <workload>)";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload: Option<&str> = None;
    let mut seed = 1u64;
    let mut seconds = workloads::REFERENCE_SECONDS;
    let mut trace = None;
    let mut mode = Mode::Measure;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v.parse().map_err(|_| format!("--seconds: not a number: {v}"))?;
                if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
                    return Err(format!("--seconds: {v} is outside 1..=600"));
                }
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                });
            }
            "--record-golden" => mode = Mode::RecordGolden,
            "--aa" => mode = Mode::Aa,
            name if !name.starts_with('-') && workload.is_none() => workload = Some(name),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let name = workload.ok_or("no workload named")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    Ok(Args { workload, seed, seconds, trace, mode })
}

/// Operations attempted and failed: one per scenario run, one per check.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one operation; prints why if it failed.
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            println!("FAILED {what}: {why}");
        }
    }
}

/// Which observers a scenario's *measured* run carries.
fn normal_observers(sc: &Scenario) -> Observers {
    if sc.observed_faulted {
        Observers::On
    } else {
        Observers::Off
    }
}

fn flipped(observers: Observers) -> Observers {
    match observers {
        Observers::On => Observers::Off,
        Observers::Off => Observers::On,
    }
}

/// Runs `sc`, counts the run as an operation, and returns its report if it
/// produced one. Any `RunError` — a conservation-audit violation included
/// — fails the operation.
fn run_counted(
    sc: &Scenario,
    observers: Observers,
    probe: &SharedProbe,
    ops: &mut Ops,
) -> (Outcome, Option<Report>) {
    let outcome = drive::run(sc, observers, probe);
    let what = format!("run {} ({observers:?})", sc.label);
    ops.record(&what, outcome.result.as_ref().map(|_| ()).map_err(|e| e.to_string()));
    let report = outcome.result.as_ref().ok().cloned();
    (outcome, report)
}

fn check_golden(
    golden: &golden::Golden,
    scenarios: &[Scenario],
    digests: &[Option<u64>],
    ops: &mut Ops,
) {
    let expected: Option<Vec<u64>> = scenarios.iter().map(|sc| golden.lookup(sc)).collect();
    let Some(expected) = expected else {
        println!(
            "info golden skipped: no golden for these scenario lengths (non-default --seconds)"
        );
        return;
    };
    let mismatches: Vec<String> = scenarios
        .iter()
        .zip(digests)
        .zip(&expected)
        .filter(|((_, got), want)| **got != Some(**want))
        .map(|((sc, got), want)| {
            let got = got.map_or("no report".to_string(), |d| format!("{d:016x}"));
            format!("{} is {got}, golden {want:016x}", sc.label)
        })
        .collect();
    let outcome = if mismatches.is_empty() { Ok(()) } else { Err(mismatches.join("; ")) };
    ops.record("golden digests", outcome);
}

/// `num / den`, or 0 when there is nothing to divide by.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sums behind the three outcome metrics.
#[derive(Debug, Default)]
struct Traffic {
    originated: u64,
    delivered: u64,
    overhead_tx: u64,
    delay_sum_s: f64,
}

impl Traffic {
    /// Adds one finished run and prints its `info scenario` line.
    fn add(&mut self, sc: &Scenario, outcome: &Outcome, r: &Report) {
        self.originated += r.originated;
        self.delivered += r.delivered;
        self.overhead_tx += r.routing_tx + r.mac_control_tx;
        self.delay_sum_s += r.avg_delay_s * r.delivered as f64;
        println!(
            "info scenario {} seed={} sim_s={} wall_s={:.3} slowness={:.3} delivery={:.4} digest={:016x}",
            sc.label,
            sc.seed,
            sc.sim_s,
            outcome.wall.as_secs_f64(),
            outcome.slowness,
            r.delivery_fraction,
            digest::of_report(r)
        );
    }
}

/// The timed section and the end-to-end metrics (tracing off).
fn end_to_end(args: &Args, scenarios: &Scenarios, probe: &SharedProbe, ops: &mut Ops) -> Emitter {
    let mut e = Emitter::new(&emit::END_TO_END);
    let Scenarios { panel, canary } = scenarios;

    // Untimed warm-up: lets lazy set-up (allocator arenas, page faults on
    // the binary) finish before the clock starts.
    let warmup = panel[0].with_sim_s(WARMUP_SIM_S);
    drive::run(&warmup, normal_observers(&warmup), probe);

    // The cost metrics cover the fixed panel only, so that two commits are
    // compared on identical work; the outcome metrics cover the canary too
    // (README, "What --seed and --seconds do").
    let (mut wall_s, mut nominal_wall_s, mut sim_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut alloc_calls, mut setup_s) = (0u64, 0.0f64);
    let mut traffic = Traffic::default();
    let mut digests = Vec::with_capacity(panel.len());
    for sc in panel {
        let mut setups = Vec::with_capacity(2 * SETUP_SAMPLES);
        let mut time_setups =
            || setups.extend((0..SETUP_SAMPLES).map(|_| drive::time_setup(sc).as_secs_f64()));
        time_setups();
        let (outcome, report) = run_counted(sc, normal_observers(sc), probe, ops);
        time_setups();
        // Scaled like the run the set-ups surround.
        setup_s += stats::median(&setups).expect("set-ups were timed") / outcome.slowness;
        wall_s += outcome.wall.as_secs_f64();
        nominal_wall_s += outcome.nominal_wall_s();
        sim_s += sc.sim_s;
        alloc_calls += outcome.alloc_calls;
        digests.push(report.as_ref().map(digest::of_report));
        if let Some(r) = &report {
            traffic.add(sc, &outcome, r);
        }
    }
    let peak_bytes = alloc::snapshot().peak;
    match golden::Golden::load(args.workload.name) {
        Ok(golden) => check_golden(&golden, panel, &digests, ops),
        Err(why) => ops.record("golden digests", Err(why)),
    }

    // The canary has no golden (its seed is arbitrary): its outputs are
    // checked against a second run with the observers flipped, which must
    // not change a single digested field, under a full audit either way.
    let (outcome, first) = run_counted(canary, normal_observers(canary), probe, ops);
    if let Some(r) = &first {
        traffic.add(canary, &outcome, r);
    }
    let (_, second) = run_counted(canary, flipped(normal_observers(canary)), probe, ops);
    let same = match (first.as_ref().map(digest::of_report), second.as_ref().map(digest::of_report))
    {
        (Some(a), Some(b)) if a == b => Ok(()),
        (a, b) => Err(format!("plain and observed canary runs differ: {a:x?} vs {b:x?}")),
    };
    ops.record("canary observed == plain", same);

    let values = [
        ("sim_s_per_wall_s", per(sim_s, nominal_wall_s)),
        ("allocs_per_sim_s", per(alloc_calls as f64, sim_s)),
        ("peak_heap_mib", peak_bytes as f64 / (1u64 << 20) as f64),
        ("setup_s", setup_s),
        ("delivery_fraction", per(traffic.delivered as f64, traffic.originated as f64)),
        ("avg_delay_s", per(traffic.delay_sum_s, traffic.delivered as f64)),
        ("normalized_overhead", per(traffic.overhead_tx as f64, traffic.delivered as f64)),
    ];
    for (name, value) in values {
        e.set(name, value).expect("end-to-end table covers every value");
    }
    println!(
        "info timed_section sim_s={sim_s} wall_s={wall_s:.3} nominal_wall_s={nominal_wall_s:.3} \
         raw_sim_s_per_wall_s={:.4} slowness={:.4}",
        per(sim_s, wall_s),
        per(wall_s, nominal_wall_s)
    );
    e
}

/// The traced pass, the layer drivers and the per-layer metrics.
fn per_layer(args: &Args, scenarios: &Scenarios, probe: &SharedProbe, ops: &mut Ops) -> Emitter {
    let mut e = Emitter::new(&emit::PER_LAYER);
    // The workload's last panel scenario: long enough to be past start-up,
    // and golden-checked, so the ledger describes a run known to be right.
    let sc = scenarios.panel.last().expect("a panel scenario");
    let is_dsr = matches!(sc.agent, workloads::Agent::Dsr(_));
    let cfg = sc.config();
    let sim_s = sc.sim_s;

    let (plain, plain_report) = run_counted(sc, Observers::Off, probe, ops);
    let (observed, observed_report) = run_counted(sc, Observers::On, probe, ops);
    let same = match (&plain_report, &observed_report) {
        (Some(a), Some(b)) if digest::of_report(a) == digest::of_report(b) => Ok(()),
        _ => Err("observed and plain runs of the traced scenario differ".to_string()),
    };
    ops.record("traced digest == untraced digest", same);
    if let Ok(golden) = golden::Golden::load(args.workload.name) {
        check_golden(
            &golden,
            std::slice::from_ref(sc),
            &[plain_report.as_ref().map(digest::of_report)],
            ops,
        );
    }

    let report = plain_report.or(observed_report);
    let (observed_nominal_wall_s, observed_slowness) =
        (observed.nominal_wall_s(), observed.slowness);
    let mut seen = observed.observed.unwrap_or_default();
    let profile = seen.profile.take().unwrap_or_default();
    let plain_wall_ns = plain.nominal_wall_s() * 1e9;
    let mut set =
        |name: &str, value: f64| e.set(name, value).expect("per-layer table covers every value");

    // sim-core, runner, obs: from the profile of the observed pass.
    set("sim-core.events_dispatched_per_sim_s", per(profile.dispatched as f64, sim_s));
    set("sim-core.events_scheduled_per_sim_s", per(profile.scheduled as f64, sim_s));
    set("sim-core.cancel_ratio", profile.cancel_ratio());
    // The profile's wall spans the whole event loop, reference samples
    // included; its per-kind tallies do not.
    let profile_wall_ns = profile.wall_seconds * 1e9 - observed.reference_spent.as_nanos() as f64;
    let kind = |names: &[&str]| -> (f64, f64) {
        profile
            .kinds
            .iter()
            .filter(|t| names.contains(&t.name.as_str()))
            .fold((0.0, 0.0), |(ns, n), t| (ns + t.wall_ns as f64, n + t.count as f64))
    };
    let share = |ns: f64| 100.0 * per(ns, profile_wall_ns);
    let arrival = kind(&["arrival"]);
    let mac_timer = kind(&["mac_timer"]);
    let boundary = kind(&["arrival_boundary"]);
    let carrier = kind(&["carrier_sense"]);
    let agent = kind(&["agent_send", "agent_timer", "traffic"]);
    set("runner.arrival_share_pct", share(arrival.0));
    set("runner.arrival_ns_per_event", per(arrival.0, arrival.1) / observed_slowness);
    set("runner.mac_timer_share_pct", share(mac_timer.0));
    set("runner.mac_timer_ns_per_event", per(mac_timer.0, mac_timer.1) / observed_slowness);
    set("runner.arrival_boundary_share_pct", share(boundary.0));
    set("runner.carrier_sense_share_pct", share(carrier.0));
    set("runner.agent_share_pct", share(agent.0));
    // Reported, not hidden: queue pops, position refreshes, watchdog
    // checks, fault events and the profiler's own clock reads land here.
    let attributed = arrival.0 + mac_timer.0 + boundary.0 + carrier.0 + agent.0;
    set(
        "runner.unattributed_share_pct",
        if profile_wall_ns > 0.0 { 100.0 - share(attributed) } else { 0.0 },
    );
    set(
        "obs.trace_overhead_pct",
        100.0 * (per(observed_nominal_wall_s, plain.nominal_wall_s()) - 1.0),
    );
    // A capped trace covers only the run's beginning: rate over that part.
    let traced_sim_s = match seen.cache_rows.last() {
        Some(last) if seen.cache_rows_dropped > 0 => last.t_ns as f64 / 1e9,
        _ => sim_s,
    };
    set("obs.cachetrace_rows_per_sim_s", per(seen.cache_rows.len() as f64, traced_sim_s));
    set("obs.cachetrace_rows_dropped", seen.cache_rows_dropped as f64);
    let audit_violated =
        matches!(observed.result, Err(runner::RunError::ConservationViolation { .. }));
    set("runner.audit_violations", f64::from(u8::from(audit_violated)));

    // mac, dsr, aodv, traffic, runner: from the report.
    let r = report.unwrap_or_else(|| metrics::Metrics::new().report("failed", sim_s));
    let frames = (r.routing_tx + r.mac_control_tx + r.data_tx) as f64;
    set("mac.frames_tx_per_sim_s", per(frames, sim_s));
    set(
        "mac.control_frames_per_payload_frame",
        per(r.mac_control_tx as f64, (r.routing_tx + r.data_tx) as f64),
    );
    set("mac.ifq_drops_per_sim_s", per(r.ifq_drops as f64, sim_s));
    set("mac.link_breaks_per_sim_s", per(r.link_breaks as f64, sim_s));
    set("dsr.cache_invalid_hit_pct", r.invalid_cache_pct);
    // The other protocol's layer did no work here: it reads 0.
    set("dsr.good_reply_pct", if is_dsr { r.good_reply_pct } else { 0.0 });
    set("dsr.discoveries_per_sim_s", if is_dsr { per(r.discoveries as f64, sim_s) } else { 0.0 });
    set(
        "aodv.routing_tx_per_delivered",
        if is_dsr { 0.0 } else { per(r.routing_tx as f64, r.delivered as f64) },
    );
    set("traffic.originated_per_sim_s", per(r.originated as f64, sim_s));
    set("runner.host_ns_per_frame", per(plain_wall_ns, frames));
    set("runner.host_ns_per_delivered_pkt", per(plain_wall_ns, r.delivered as f64));
    set("runner.faults_injected", r.faults_injected as f64);
    set("runner.arrivals_suppressed_per_sim_s", per(r.arrivals_suppressed as f64, sim_s));

    // The layer drivers, each scaled by the host's slowness around it.
    let mut rec = spans::Recorder::new();
    let mut rng = layers::Lcg::new(args.seed);
    let (queue_ns, slow) =
        calib::around(probe, || layers::queue(&mut rec, &profile, &cfg, &mut rng));
    set("sim-core.queue_ns_per_event", queue_ns / slow);
    let (mob, slow) = calib::around(probe, || layers::mobility(&mut rec, &cfg));
    set("mobility.snapshot_ns", mob.snapshot_ns / slow);
    set("mobility.grid_rebuild_ns", mob.grid_rebuild_ns / slow);
    set("mobility.candidates_ns_per_query", mob.candidates_ns_per_query / slow);
    set("mobility.candidates_per_query", mob.candidates_per_query);
    let (plan, slow) = calib::around(probe, || layers::plan(&mut rec, &cfg, &mob.snapshots));
    set("phy.plan_ns_per_tx", plan.plan_ns_per_tx / slow);
    set("phy.arrivals_per_tx", plan.arrivals_per_tx);
    set("phy.arrival_yield", plan.arrival_yield);
    let (envelope_ns, slow) =
        calib::around(probe, || layers::envelope(&mut rec, &cfg, &mob.snapshots));
    set("phy.envelope_ns_per_arrival", envelope_ns / slow);
    let ((exchange_ns, inputs_per_exchange), slow) =
        calib::around(probe, || layers::dcf_exchange(&mut rec, &cfg));
    set("mac.dcf_ns_per_exchange", exchange_ns / slow);
    println!("info mac.dcf_exchange inputs_per_exchange={inputs_per_exchange}");
    let (record_ns, slow) = calib::around(probe, || layers::metrics_record(&mut rec, &r));
    set("metrics.record_ns_per_call", record_ns / slow);
    let (replay, slow) =
        calib::around(probe, || layers::cache_replay(&mut rec, &cfg, &seen.cache_rows));
    let replay = match replay {
        Ok(replay) => {
            ops.record("cache replay", Ok(()));
            replay
        }
        Err(why) => {
            ops.record("cache replay", Err(why));
            layers::ReplayResult::default()
        }
    };
    set("dsr.cache_ops_per_sim_s", per(replay.ops as f64, traced_sim_s));
    set("dsr.cache_replay_ns_per_op", replay.replay_ns_per_op / slow);
    set("dsr.cache_insert_ns", replay.insert_ns / slow);
    set("dsr.cache_find_ns", replay.find_ns / slow);
    set("dsr.cache_remove_link_ns", replay.remove_link_ns / slow);
    set("dsr.cache_mark_used_ns", replay.mark_used_ns / slow);
    set("dsr.cache_insert_changed_ratio", replay.insert_changed_ratio);
    set("dsr.cache_find_hit_ratio", replay.find_hit_ratio);

    let spans_path: PathBuf = home().join("out").join(format!("{}.spans.tsv", args.workload.name));
    match rec.write_tsv(&spans_path) {
        Ok(()) => println!(
            "info spans {} batches of >= {} calls written to {}",
            rec.len(),
            layers::BATCH,
            spans_path.display()
        ),
        // The metrics above are already computed; losing the file is
        // reported, not fatal.
        Err(err) => println!("info spans not written to {}: {err}", spans_path.display()),
    }
    println!(
        "info traced_pass scenario={} plain_wall_s={:.3} observed_wall_s={:.3} samples={} trace_events={} cache_rows={}",
        sc.label,
        plain.wall.as_secs_f64(),
        observed.wall.as_secs_f64(),
        seen.samples,
        seen.trace_events,
        seen.cache_rows.len()
    );
    e
}

fn measure(args: &Args) {
    let scenarios = args.workload.scenarios(args.seed, args.seconds);
    println!(
        "workload {} seed={} seconds={} scenarios={}+canary threads=1 (available_parallelism={})",
        args.workload.name,
        args.seed,
        args.seconds,
        scenarios.panel.len(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("info why {}", args.workload.why);
    let mut ops = Ops::default();
    let probe = calib::Probe::shared();
    let mut emitters = Vec::new();
    if args.trace != Some(true) {
        emitters.push(end_to_end(args, &scenarios, &probe, &mut ops));
    }
    if args.trace != Some(false) {
        emitters.push(per_layer(args, &scenarios, &probe, &mut ops));
    }
    for e in &emitters {
        assert!(e.missing().is_empty(), "metrics never set: {:?}", e.missing());
        print!("{}", e.lines());
    }
    println!("ops_attempted {}", ops.attempted);
    println!("ops_failed {}", ops.failed);
    let refs: Vec<&Emitter> = emitters.iter().collect();
    println!("{}", emit::result_line(ops.attempted, ops.failed, &refs));
}

fn record_golden(args: &Args) -> Result<(), String> {
    if args.seconds != workloads::REFERENCE_SECONDS {
        return Err("goldens are recorded at the default --seconds only".to_string());
    }
    let scenarios = args.workload.scenarios(args.seed, args.seconds);
    let probe = calib::Probe::shared();
    let mut entries = Vec::new();
    for sc in &scenarios.panel {
        let report =
            drive::run(sc, normal_observers(sc), &probe).result.map_err(|e| e.to_string())?;
        println!("recorded {} {:016x}", sc.label, digest::of_report(&report));
        entries.push(golden::Entry::of(sc, digest::of_report(&report)));
    }
    golden::Golden { entries }.store(args.workload.name)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.mode {
        Mode::Measure => {
            measure(&args);
            Ok(())
        }
        Mode::RecordGolden => record_golden(&args),
        Mode::Aa => aa::run(args.workload.name, args.seed, args.seconds),
    };
    if let Err(why) = outcome {
        eprintln!("{why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_drivers_and_the_issues_command_lines() {
        let a =
            args(&["--workload", "mobile_aodv", "--seed", "7", "--seconds", "20", "--trace", "0"])
                .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("mobile_aodv", 7, 20.0, Some(false))
        );
        let b = args(&["static_saturated", "--seed", "3"]).unwrap();
        assert_eq!(
            (b.workload.name, b.seed, b.trace, b.mode),
            ("static_saturated", 3, None, Mode::Measure)
        );
        assert_eq!(b.seconds, workloads::REFERENCE_SECONDS);
        assert_eq!(args(&["mobile_dsr"]).unwrap().seed, 1, "default seed");
        assert_eq!(args(&["mobile_dsr", "--aa"]).unwrap().mode, Mode::Aa);
        assert_eq!(args(&["mobile_dsr", "--record-golden"]).unwrap().mode, Mode::RecordGolden);
        assert_eq!(args(&["mobile_dsr", "--trace", "1"]).unwrap().trace, Some(true));
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            &[][..],
            &["nope"],
            &["mobile_dsr", "--seed"],
            &["mobile_dsr", "--seed", "x"],
            &["mobile_dsr", "--seconds", "0"],
            &["mobile_dsr", "--seconds", "nan"],
            &["mobile_dsr", "--trace", "2"],
            &["mobile_dsr", "extra"],
            &["mobile_dsr", "--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ops_count_attempts_and_failures() {
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("broken".into()));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }
}
