//! Robustness fuzzing: random input sequences must never panic the MAC
//! state machine, random small scenarios must keep the simulator's
//! accounting invariants intact, and malformed artifacts must never panic
//! their parsers. Seeded cases on `sim_core::testkit::cases`;
//! a failure names the case (and, for the MAC fuzzer, the step) to replay.

use dsr_caching::mac::{Dcf, FrameKind, MacCommand, MacConfig, MacFrame, MacTimer, Priority};
use dsr_caching::mobility::Point;
use dsr_caching::obs::{read_file, CacheRow, CacheTrace, Profile, SampleRow, Tally, TimeSeries};
use dsr_caching::prelude::*;
use dsr_caching::sim_core::rng::uniform;
use dsr_caching::sim_core::testkit::{cases, Step};
use dsr_caching::sim_core::{RngFactory, SimRng};

/// The timer kinds a fuzzer may fire (TxEnd excluded: the driver only
/// fires it after a StartTx armed it, which the fuzzer emulates).
const TIMERS: [MacTimer; 6] = [
    MacTimer::Recheck,
    MacTimer::Defer,
    MacTimer::SifsResponse,
    MacTimer::SifsData,
    MacTimer::CtsTimeout,
    MacTimer::AckTimeout,
];

/// An arbitrary *non-chaos* fault event (`Panic`/`EventStorm` are excluded:
/// those exist to kill runs on purpose and are exercised by the campaign
/// acceptance tests). Node ids may exceed the scenario size and windows
/// may be empty or start after the run ends — all must be harmless.
fn fault(rng: &mut SimRng) -> FaultEvent {
    let node = NodeId::new(rng.random_range(0..10u16));
    let at = SimTime::from_secs(uniform(rng, 0.0, 10.0));
    let down_for = SimDuration::from_secs(uniform(rng, 0.1, 5.0));
    let origin = Point::new(uniform(rng, 0.0, 1500.0), uniform(rng, 0.0, 500.0));
    match rng.random_range(0..7u32) {
        0 => FaultEvent::NodeDown { node, at, down_for },
        1 => {
            let (w, h) = (uniform(rng, 1.0, 800.0), uniform(rng, 1.0, 300.0));
            let zone = Zone::rect(origin, Point::new(origin.x + w, origin.y + h));
            FaultEvent::RegionBlackout { zone, at, down_for }
        }
        2 => {
            let (a, b) = (uniform(rng, 0.0, 10.0), uniform(rng, 0.0, 10.0));
            FaultEvent::FrameCorruption {
                prob: uniform(rng, 0.0, 1.0),
                from: SimTime::from_secs(a.min(b)),
                until: SimTime::from_secs(a.max(b)),
            }
        }
        3 => FaultEvent::NodeChurn { node, at, down_for },
        4 => {
            let zone = Zone::Disc { center: origin, radius_m: uniform(rng, 1.0, 400.0) };
            FaultEvent::RegionBlackout { zone, at, down_for }
        }
        5 => {
            // A degenerate zero normal blacks out everything (p·0 >= 0
            // always holds) — a legal, harmless plan.
            let normal = Point::new(uniform(rng, -1.0, 1.0), uniform(rng, -1.0, 1.0));
            FaultEvent::RegionBlackout { zone: Zone::HalfPlane { origin, normal }, at, down_for }
        }
        _ => FaultEvent::RadioDutyCycle {
            node,
            at,
            on_for: SimDuration::from_secs(uniform(rng, 0.05, 3.0)),
            off_for: SimDuration::from_secs(uniform(rng, 0.05, 3.0)),
            until: SimTime::from_secs(uniform(rng, 0.0, 12.0)),
        },
    }
}

/// `len` faults (drawn from the given range).
fn faults(rng: &mut SimRng, len: std::ops::Range<usize>) -> Vec<FaultEvent> {
    (0..rng.random_range(len)).map(|_| fault(rng)).collect()
}

/// A static chain of 2..=6 nodes, 180 m apart, 2 pkt/s, 8 s long.
fn chain(rng: &mut SimRng) -> ScenarioConfig {
    let seed = rng.random_range(0..100u64);
    let n_nodes = rng.random_range(2..7usize);
    let mut cfg = ScenarioConfig::static_line(n_nodes, 180.0, 2.0, DsrConfig::combined(), seed);
    cfg.duration = SimDuration::from_secs(8.0);
    cfg
}

/// Arbitrary interleavings of MAC inputs never panic, and every armed
/// TxEnd timer is fired promptly (emulating the driver) so state can
/// progress.
#[test]
fn mac_never_panics_under_fuzz() {
    cases("mac_never_panics_under_fuzz", 0..64, |_, rng| {
        let me = NodeId::new(0);
        let mut mac: Dcf<u32> = Dcf::new(me, MacConfig, RngFactory::new(1).stream("fuzz", 0));
        let mut now = SimTime::from_secs(1.0);
        let mut payload = 0u32;
        let mut cmds = Vec::new();
        for step in 0..rng.random_range(1..120usize) {
            let _at = Step(step);
            now += SimDuration::from_micros_u64(137);
            cmds.clear();
            match rng.random_range(0..4u32) {
                0 => {
                    payload += 1;
                    let dst = NodeId::new(rng.random_range(1..8u16));
                    let bytes = rng.random_range(64..1500usize);
                    let prio =
                        if rng.random_bool(0.5) { Priority::Control } else { Priority::Data };
                    mac.enqueue_into(payload, dst, bytes, prio, now, &mut cmds)
                }
                1 => {
                    let for_us = rng.random_range(1..5_000u64);
                    let until = now + SimDuration::from_micros_u64(for_us);
                    mac.on_channel_busy_into(now, until, &mut cmds)
                }
                2 => {
                    let kind = [FrameKind::Rts, FrameKind::Cts, FrameKind::Ack, FrameKind::Data]
                        [rng.random_range(0..4usize)];
                    let src = rng.random_range(1..8u16);
                    let frame = MacFrame {
                        kind,
                        src: NodeId::new(src),
                        dst: if rng.random_bool(0.5) { me } else { NodeId::new(9) },
                        bytes: 64,
                        nav: SimDuration::from_micros_u64(rng.random_range(0..3_000u64)),
                        seq: u64::from(src),
                        payload: matches!(kind, FrameKind::Data).then_some(7),
                    };
                    mac.on_receive_into(frame, now, &mut cmds)
                }
                _ => mac.on_timer_into(TIMERS[rng.random_range(0..TIMERS.len())], now, &mut cmds),
            }
            // Emulate the driver's TxEnd bookkeeping: whenever a StartTx
            // happens, its TxEnd timer must eventually fire.
            for cmd in &cmds {
                if let MacCommand::SetTimer { timer: MacTimer::TxEnd, at } = cmd {
                    let at = *at;
                    now = now.max(at);
                    mac.on_timer_into(MacTimer::TxEnd, at, &mut Vec::new());
                    break;
                }
            }
        }
    });
}

/// Random tiny static topologies: the simulator never delivers more
/// than it originates, never double-counts, and stays deterministic.
#[test]
fn simulator_accounting_invariants() {
    cases("simulator_accounting_invariants", 0..64, |_, rng| {
        let seed = rng.random_range(0..200u64);
        let n_nodes = rng.random_range(2..7usize);
        let spacing = uniform(rng, 120.0, 320.0);
        let rate = uniform(rng, 1.0, 4.0);
        let mut cfg =
            ScenarioConfig::static_line(n_nodes, spacing, rate, DsrConfig::combined(), seed);
        cfg.duration = SimDuration::from_secs(8.0);
        let r = run_scenario(cfg.clone());
        assert!(r.delivered <= r.originated, "over-delivery: {r}");
        assert!(r.delivery_fraction >= 0.0 && r.delivery_fraction <= 1.0);
        assert!(r.avg_delay_s >= 0.0);
        // Replay determinism.
        assert_eq!(r, run_scenario(cfg));
    });
}

/// Random fault plans over random small chains: the simulator never
/// panics, accounting invariants hold, a fault can activate at most
/// once, and the run replays byte-for-byte.
#[test]
fn random_fault_plans_never_panic_and_replay_deterministically() {
    cases("random_fault_plans_never_panic_and_replay_deterministically", 0..64, |_, rng| {
        let mut cfg = chain(rng);
        cfg.faults = FaultPlan { events: faults(rng, 0..6) };
        let r = run_scenario(cfg.clone());
        assert!(r.delivered <= r.originated, "over-delivery under faults: {r}");
        assert!(r.delivery_fraction >= 0.0 && r.delivery_fraction <= 1.0);
        assert!((r.faults_injected as usize) <= cfg.faults.events.len());
        assert_eq!(r, run_scenario(cfg), "fault-injected runs must replay identically");
    });
}

/// Campaigns under random fault plans degrade gracefully: every seed
/// either reports or yields a classified error, and fault-free seeds
/// are never casualties of a faulty plan.
#[test]
fn campaigns_account_for_every_seed_under_faults() {
    cases("campaigns_account_for_every_seed_under_faults", 0..64, |_, rng| {
        let mut cfg = ScenarioConfig::static_line(4, 180.0, 2.0, DsrConfig::base(), 0);
        cfg.duration = SimDuration::from_secs(5.0);
        cfg.faults = FaultPlan { events: faults(rng, 0..4) };
        let result = run_campaign(&cfg, &[1, 2, 3], &CampaignConfig::default());
        assert_eq!(result.reports.len() + result.failures.len(), 3);
        assert!(result.all_ok(), "benign faults must not fail runs: {}", result.failure_summary());
    });
}

/// The packet-conservation ledger balances on arbitrary fault plans:
/// with the audit at `full`, every originated packet must be
/// delivered, dropped with a reason, or still buffered at run end —
/// no matter which crashes, blackouts, and corruption windows the
/// plan throws at the chain. An imbalance surfaces as
/// `RunError::ConservationViolation` and fails the assertion.
#[test]
fn conservation_ledger_balances_on_arbitrary_fault_plans() {
    cases("conservation_ledger_balances_on_arbitrary_fault_plans", 0..64, |_, rng| {
        let mut cfg = chain(rng);
        cfg.faults = FaultPlan { events: faults(rng, 0..6) };
        let campaign = CampaignConfig { audit: AuditLevel::Full, ..CampaignConfig::default() };
        let result = run_campaign(&cfg, &[cfg.seed], &campaign);
        assert!(
            result.all_ok(),
            "ledger must balance under arbitrary faults: {}",
            result.failure_summary()
        );
    });
}

/// One fault of *every* kind at once — crash, blackout rectangle,
/// corruption window, crash-and-rejoin churn, geometric blackout
/// zone, and a duty-cycled radio — with the conservation audit at
/// `full`, on the fused arrival path (the default), under both a
/// serial and a parallel executor. The ledger must balance: every
/// originated packet delivered, dropped with a reason (including the
/// churn revival's `NodeReset` drops), or still buffered at run end.
#[test]
fn full_audit_conservation_holds_for_every_fault_kind_on_the_fused_path() {
    cases("full_audit_conservation_holds_for_every_fault_kind", 0..64, |_, rng| {
        let seed = rng.random_range(0..50u64);
        let jobs = if rng.random_bool(0.5) { 1 } else { 4 };
        let n_nodes = rng.random_range(3..7usize);
        let churn_at = uniform(rng, 1.0, 5.0);
        let radius = uniform(rng, 100.0, 400.0);
        let mut cfg = ScenarioConfig::static_line(n_nodes, 180.0, 2.0, DsrConfig::combined(), seed);
        cfg.duration = SimDuration::from_secs(8.0);
        cfg.faults = FaultPlan::none()
            .node_down(NodeId::new(1), SimTime::from_secs(1.5), SimDuration::from_secs(1.0))
            .region_blackout(
                Zone::rect(Point::new(0.0, -50.0), Point::new(400.0, 50.0)),
                SimTime::from_secs(2.0),
                SimDuration::from_secs(1.0),
            )
            .frame_corruption(0.2, SimTime::from_secs(1.0), SimTime::from_secs(6.0))
            .node_churn(NodeId::new(2), SimTime::from_secs(churn_at), SimDuration::from_secs(1.5))
            .region_blackout(
                Zone::Disc { center: Point::new(200.0, 0.0), radius_m: radius },
                SimTime::from_secs(4.0),
                SimDuration::from_secs(1.0),
            )
            .radio_duty_cycle(
                NodeId::new(0),
                SimTime::from_secs(3.0),
                SimDuration::from_secs(1.0),
                SimDuration::from_secs(0.5),
                SimTime::from_secs(7.0),
            );
        let campaign =
            CampaignConfig { audit: AuditLevel::Full, jobs, ..CampaignConfig::default() };
        let result = run_campaign(&cfg, &[seed, seed + 1], &campaign);
        assert!(
            result.all_ok(),
            "full-audit ledger must balance under every fault kind (jobs={jobs}): {}",
            result.failure_summary()
        );
    });
}

/// Forensic artifacts round-trip any scenario the fuzzer can build:
/// parse(render(artifact)) reconstructs the identical configuration.
#[test]
fn forensic_artifacts_round_trip_arbitrary_scenarios() {
    cases("forensic_artifacts_round_trip_arbitrary_scenarios", 0..64, |_, rng| {
        let seed = rng.random_range(0..1000u64);
        let n_nodes = rng.random_range(2..7usize);
        let spacing = uniform(rng, 120.0, 320.0);
        let rate = uniform(rng, 0.5, 6.0);
        let mut cfg =
            ScenarioConfig::static_line(n_nodes, spacing, rate, DsrConfig::combined(), seed);
        cfg.faults = FaultPlan { events: faults(rng, 0..6) };
        let artifact = ForensicArtifact {
            label: cfg.dsr.label(),
            replayable: true,
            config: cfg,
            error: RunError::Panicked {
                seed,
                payload: "fuzz payload with spaces\nand lines".into(),
            },
            trace: vec!["s 1.000000 _n0_ MAC RTS 20B".into()],
        };
        let parsed = ForensicArtifact::parse(&artifact.render());
        assert_eq!(parsed.expect("artifact must parse back"), artifact);
    });
}

/// Random clustered placements (possibly partitioned): no panic, sane
/// accounting, regardless of connectivity.
#[test]
fn simulator_handles_arbitrary_topologies() {
    cases("simulator_handles_arbitrary_topologies", 0..64, |_, rng| {
        let seed = rng.random_range(0..100u64);
        let positions: Vec<Point> = (0..rng.random_range(2..10usize))
            .map(|_| Point::new(uniform(rng, 0.0, 1500.0), uniform(rng, 0.0, 500.0)))
            .collect();
        let n = positions.len();
        let mut cfg = ScenarioConfig::static_line(2, 100.0, 2.0, DsrConfig::combined(), seed);
        cfg.mobility = MobilitySpec::Static(positions);
        cfg.traffic = TrafficConfig {
            num_flows: (n / 2).max(1),
            rate_pps: 2.0,
            packet_bytes: 256,
            start_window: SimDuration::from_millis(500.0),
        };
        cfg.duration = SimDuration::from_secs(5.0);
        let r = run_scenario(cfg);
        assert!(r.delivered <= r.originated);
    });
}

/// Parallel campaign execution is invisible in the output: for random
/// fault plans — including randomly injected chaos (a panicking seed
/// and an event-storm seed, exercising both failure paths of the
/// executor) — running with 2, 4, or 8 workers yields a
/// `CampaignResult` and journal byte-identical to the sequential run
/// over the same seeds. Each case runs two full campaigns (one of them
/// multi-threaded), so it runs far fewer cases than the fuzzers above.
#[test]
fn parallel_campaigns_match_sequential_under_random_faults() {
    cases("parallel_campaigns_match_sequential_under_random_faults", 0..8, |case, rng| {
        let jobs = [2usize, 4, 8][rng.random_range(0..3usize)];
        let mut events = faults(rng, 0..3);
        if rng.random_bool(0.5) {
            let only_seed = Some(rng.random_range(1..4u64));
            events.push(FaultEvent::Panic { at: SimTime::from_secs(2.0), only_seed });
        }
        if rng.random_bool(0.5) {
            let only_seed = Some(rng.random_range(1..4u64));
            events.push(FaultEvent::EventStorm { at: SimTime::from_secs(1.0), only_seed });
        }
        let mut cfg = ScenarioConfig::static_line(4, 180.0, 2.0, DsrConfig::base(), 0);
        cfg.duration = SimDuration::from_secs(5.0);
        cfg.faults = FaultPlan { events };
        let run = |jobs: usize, tag: &str| {
            let journal = std::env::temp_dir()
                .join(format!("fuzz-exec-{tag}-{}-{case}.txt", std::process::id()));
            let _ = std::fs::remove_file(&journal);
            let campaign = CampaignConfig {
                jobs,
                // A finite event budget turns the storm into a deterministic
                // EventBudgetExhausted instead of a wall-clock-dependent hang.
                limits: RunLimits { wall_clock: None, max_events_per_sim_second: Some(30_000) },
                journal: Some(journal.clone()),
                ..CampaignConfig::default()
            };
            let result = run_campaign(&cfg, &[1, 2, 3], &campaign);
            let bytes = std::fs::read(&journal).unwrap_or_default();
            let _ = std::fs::remove_file(&journal);
            (result, bytes)
        };

        let (sequential, seq_journal) = run(1, "seq");
        assert_eq!(sequential.reports.len() + sequential.failures.len(), 3);
        let (parallel, par_journal) = run(jobs, "par");
        assert_eq!(parallel, sequential, "jobs must not change the CampaignResult");
        assert_eq!(par_journal, seq_journal, "jobs must not change the journal bytes");
    });
}

/// Tokens a corrupted value may turn into: junk, signs, floats the
/// parsers must refuse or survive, and integers far past any count a file
/// could back.
const TOKENS: [&str; 14] = [
    "",
    "x",
    "-1",
    "0",
    "65535",
    "NaN",
    "-inf",
    "1e309",
    "1000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "\\",
    "true",
    "a = b",
];

/// A valid rendering of each artifact format, drawn from one case.
fn renderings(rng: &mut SimRng, journal: &str) -> Vec<(&'static str, String)> {
    let mut cfg = chain(rng);
    if rng.random_bool(0.5) {
        cfg = ScenarioConfig::tiny(0.0, 2.0, cfg.dsr, cfg.seed);
    }
    cfg.faults = FaultPlan { events: faults(rng, 1..6) };
    let seed = cfg.seed;
    let artifact = ForensicArtifact {
        label: cfg.dsr.label(),
        replayable: true,
        config: cfg,
        error: RunError::ConservationViolation { seed, uid: 7, detail: "uid 7 vanished".into() },
        trace: vec!["s 1.000000 _n0_ MAC RTS 20B -> n1".into(), "D 2.0 _n1_ RTR X uid 7".into()],
    };
    let draw = |rng: &mut SimRng| rng.random_range(0..1_000u64);
    let series = TimeSeries {
        label: "DSR-C".into(),
        seed,
        fingerprint: rng.random_range(0..u64::MAX),
        interval_ns: 5_000_000_000,
        rows: (0..rng.random_range(1..5u64))
            .map(|i| {
                let mut row = SampleRow { t_s: 5.0 * i as f64, ..SampleRow::default() };
                for column in SampleRow::COUNTS {
                    assert!((column.set)(&mut row, draw(rng)));
                }
                row
            })
            .collect(),
    };
    let tally = |rng: &mut SimRng, name: &str| Tally {
        name: name.into(),
        count: draw(rng),
        wall_ns: draw(rng),
    };
    let profile = Profile {
        runs: 2,
        events: draw(rng),
        kinds: vec![tally(rng, "arrival"), tally(rng, "mac_timer")],
        drops: vec![Tally { wall_ns: 0, ..tally(rng, "NoRoute") }],
        traces: vec![Tally { wall_ns: 0, ..tally(rng, "mac_send") }],
        ..Profile::default()
    };
    let row = |rng: &mut SimRng, op: &str, kind: &str| CacheRow {
        t_ns: draw(rng),
        node: draw(rng) % 10,
        op: op.into(),
        kind: kind.into(),
        dst: "-".into(),
        route: "0-1-2".into(),
        valid: Some(rng.random_bool(0.5)),
        stale_ns: None,
    };
    let trace = CacheTrace {
        label: "DSR-NC".into(),
        seed,
        fingerprint: rng.random_range(0..u64::MAX),
        rows: vec![row(rng, "insert", "reply"), row(rng, "lookup", "origination")],
        dropped: draw(rng),
    };
    vec![
        ("forensic artifact", artifact.render()),
        ("time series", series.render()),
        ("profile", profile.render()),
        ("cache trace", trace.render()),
        ("journal", journal.to_string()),
    ]
}

/// Malformed variants of `text`: one value swapped for a random token on
/// every line in turn, then a truncation, a dropped line, a doubled line
/// and a flipped byte at random.
fn mutants(rng: &mut SimRng, text: &str) -> Vec<Vec<u8>> {
    let lines: Vec<&str> = text.lines().collect();
    let join = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let token = match rng.random_range(0..TOKENS.len() + 1) {
            k if k < TOKENS.len() => TOKENS[k].to_string(),
            _ => rng.random_range(0..u64::MAX).to_string(),
        };
        let swapped = match line.split_once(" = ") {
            Some((key, _)) => format!("{key} = {token}"),
            None => {
                let mut words: Vec<&str> = line.split(' ').collect();
                let at = rng.random_range(0..words.len());
                words[at] = &token;
                words.join(" ")
            }
        };
        let mut edited = lines.clone();
        edited[i] = &swapped;
        out.push(join(&edited).into_bytes());
    }
    out.push(text.as_bytes()[..rng.random_range(0..text.len())].to_vec());
    let at = rng.random_range(0..lines.len());
    let mut dropped = lines.clone();
    dropped.remove(at);
    out.push(join(&dropped).into_bytes());
    let mut doubled = lines.clone();
    doubled.insert(at, lines[at]);
    out.push(join(&doubled).into_bytes());
    let mut flipped = text.as_bytes().to_vec();
    let at = rng.random_range(0..flipped.len());
    flipped[at] ^= 1 << rng.random_range(0..8u32);
    out.push(flipped);
    out
}

/// Every artifact parser meets malformed input with an error, never a
/// panic or an abort: each format's valid rendering is truncated, loses or
/// doubles a line, has a byte flipped, or has a value swapped for a random
/// token — huge integers included, so a count read from the file must not
/// size an allocation.
#[test]
fn artifact_parsers_reject_malformed_input_without_panicking() {
    let report = run_scenario({
        let mut cfg = ScenarioConfig::static_line(3, 180.0, 2.0, DsrConfig::base(), 1);
        cfg.duration = SimDuration::from_secs(2.0);
        cfg
    });
    let dir = std::env::temp_dir().join(format!("fuzz-codec-{}", std::process::id()));
    let path = dir.join("journal.txt");
    let _ = std::fs::remove_dir_all(&dir);
    let writer = JournalWriter::open(&path).expect("open journal");
    writer.record(0xfeed, 1, &report).expect("record");
    writer.record(0xfeed, 2, &report).expect("record");
    drop(writer);
    let journal = std::fs::read_to_string(&path).expect("read journal");
    assert_eq!(Journal::parse(&journal).len(), 2, "the pristine journal reads back");

    cases("artifact_parsers_reject_malformed_input_without_panicking", 0..64, |_, rng| {
        for (format, text) in renderings(rng, &journal) {
            for (step, bytes) in mutants(rng, &text).into_iter().enumerate() {
                let _at = Step(step);
                let text = String::from_utf8_lossy(&bytes);
                let _ = read_file(&text);
                match format {
                    "forensic artifact" => drop(ForensicArtifact::parse(&text)),
                    "time series" => drop(TimeSeries::parse(&text)),
                    "profile" => drop(Profile::parse(&text)),
                    "cache trace" => drop(CacheTrace::parse(&text)),
                    _ => {
                        assert!(Journal::parse(&text).len() <= 2);
                        std::fs::write(&path, &bytes).expect("write journal");
                        drop(JournalWriter::open(&path).expect("a torn journal reopens"));
                        assert!(Journal::load(&path).expect("load").len() <= 2);
                    }
                }
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
