//! Robustness fuzzing: random input sequences must never panic the MAC
//! state machine, and random small scenarios must keep the simulator's
//! accounting invariants intact.

use proptest::prelude::*;

use dsr_caching::mac::{Dcf, MacCommand, MacConfig, MacFrame, MacTimer, Priority};
use dsr_caching::mobility::Point;
use dsr_caching::prelude::*;
use dsr_caching::sim_core::RngFactory;

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

/// Arbitrary *non-chaos* fault events (`Panic`/`EventStorm` are excluded:
/// those exist to kill runs on purpose and are exercised by the campaign
/// acceptance tests). Node ids may exceed the scenario size and windows
/// may be empty or start after the run ends — all must be harmless.
fn arb_fault() -> impl Strategy<Value = FaultEvent> {
    use dsr_caching::sim_core::{SimDuration, SimTime};
    prop_oneof![
        (0u16..10, 0.0f64..10.0, 0.1f64..5.0).prop_map(|(node, at, dur)| FaultEvent::NodeDown {
            node: NodeId::new(node),
            at: SimTime::from_secs(at),
            down_for: SimDuration::from_secs(dur),
        }),
        (0.0f64..1500.0, 0.0f64..500.0, 1.0f64..800.0, 1.0f64..300.0, 0.0f64..10.0, 0.1f64..5.0)
            .prop_map(|(x, y, w, h, at, dur)| FaultEvent::LinkBlackout {
                region: Region::new(Point::new(x, y), Point::new(x + w, y + h)),
                at: SimTime::from_secs(at),
                down_for: SimDuration::from_secs(dur),
            }),
        (0.0f64..1.0, 0.0f64..10.0, 0.0f64..10.0).prop_map(|(prob, a, b)| {
            FaultEvent::FrameCorruption {
                prob,
                from: SimTime::from_secs(a.min(b)),
                until: SimTime::from_secs(a.max(b)),
            }
        }),
        (0u16..10, 0.0f64..10.0, 0.1f64..5.0).prop_map(|(node, at, dur)| FaultEvent::NodeChurn {
            node: NodeId::new(node),
            at: SimTime::from_secs(at),
            down_for: SimDuration::from_secs(dur),
        }),
        (0.0f64..1500.0, 0.0f64..500.0, 1.0f64..400.0, 0.0f64..10.0, 0.1f64..5.0).prop_map(
            |(x, y, r, at, dur)| FaultEvent::RegionBlackout {
                zone: Zone::Disc { center: Point::new(x, y), radius_m: r },
                at: SimTime::from_secs(at),
                down_for: SimDuration::from_secs(dur),
            }
        ),
        (0.0f64..1500.0, 0.0f64..500.0, -1.0f64..1.0, -1.0f64..1.0, 0.0f64..10.0, 0.1f64..5.0)
            .prop_map(|(x, y, nx, ny, at, dur)| FaultEvent::RegionBlackout {
                zone: Zone::HalfPlane {
                    origin: Point::new(x, y),
                    // A degenerate zero normal blacks out everything
                    // (p·0 >= 0 always holds) — a legal, harmless plan.
                    normal: Point::new(nx, ny),
                },
                at: SimTime::from_secs(at),
                down_for: SimDuration::from_secs(dur),
            }),
        (0u16..10, 0.0f64..10.0, 0.05f64..3.0, 0.05f64..3.0, 0.0f64..12.0).prop_map(
            |(node, at, on, off, until)| FaultEvent::RadioDutyCycle {
                node: NodeId::new(node),
                at: SimTime::from_secs(at),
                on_for: SimDuration::from_secs(on),
                off_for: SimDuration::from_secs(off),
                until: SimTime::from_secs(until),
            }
        ),
    ]
}

#[derive(Debug, Clone)]
enum FuzzInput {
    Enqueue { dst: u16, bytes: usize, control: bool },
    ChannelBusy { for_us: u64 },
    Receive { kind: u8, src: u16, to_us: bool, nav_us: u64 },
    Timer { idx: usize },
}

fn arb_input() -> impl Strategy<Value = FuzzInput> {
    prop_oneof![
        (1u16..8, 64usize..1500, any::<bool>())
            .prop_map(|(dst, bytes, control)| FuzzInput::Enqueue { dst, bytes, control }),
        (1u64..5_000).prop_map(|for_us| FuzzInput::ChannelBusy { for_us }),
        (0u8..4, 1u16..8, any::<bool>(), 0u64..3_000).prop_map(|(kind, src, to_us, nav_us)| {
            FuzzInput::Receive { kind, src, to_us, nav_us }
        }),
        (0usize..TIMERS.len()).prop_map(|idx| FuzzInput::Timer { idx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of MAC inputs never panic, and every armed
    /// TxEnd timer is fired promptly (emulating the driver) so state can
    /// progress.
    #[test]
    fn mac_never_panics_under_fuzz(inputs in proptest::collection::vec(arb_input(), 1..120)) {
        use dsr_caching::sim_core::{NodeId, SimDuration, SimTime};
        let me = NodeId::new(0);
        let mut mac: Dcf<u32> =
            Dcf::new(me, MacConfig::ieee80211_dsss(), RngFactory::new(1).stream("fuzz", 0));
        let mut now = SimTime::from_secs(1.0);
        let mut payload = 0u32;
        for input in inputs {
            now = now + SimDuration::from_micros_u64(137);
            let cmds = match input {
                FuzzInput::Enqueue { dst, bytes, control } => {
                    payload += 1;
                    let prio = if control { Priority::Control } else { Priority::Data };
                    mac.enqueue(payload, NodeId::new(dst), bytes, prio, now)
                }
                FuzzInput::ChannelBusy { for_us } => {
                    mac.on_channel_busy(now, now + SimDuration::from_micros_u64(for_us))
                }
                FuzzInput::Receive { kind, src, to_us, nav_us } => {
                    let kind = match kind {
                        0 => dsr_caching::mac::FrameKind::Rts,
                        1 => dsr_caching::mac::FrameKind::Cts,
                        2 => dsr_caching::mac::FrameKind::Ack,
                        _ => dsr_caching::mac::FrameKind::Data,
                    };
                    let dst = if to_us { me } else { NodeId::new(9) };
                    let frame = MacFrame {
                        kind,
                        src: NodeId::new(src),
                        dst,
                        bytes: 64,
                        nav: SimDuration::from_micros_u64(nav_us),
                        seq: u64::from(src),
                        payload: matches!(kind, dsr_caching::mac::FrameKind::Data).then_some(7),
                    };
                    mac.on_receive(frame, now)
                }
                FuzzInput::Timer { idx } => mac.on_timer(TIMERS[idx], now),
            };
            // Emulate the driver's TxEnd bookkeeping: whenever a StartTx
            // happens, its TxEnd timer must eventually fire.
            for cmd in &cmds {
                if let MacCommand::SetTimer { timer: MacTimer::TxEnd, at } = cmd {
                    let at = *at;
                    now = now.max(at);
                    mac.on_timer(MacTimer::TxEnd, at);
                    break;
                }
            }
        }
    }

    /// Random tiny static topologies: the simulator never delivers more
    /// than it originates, never double-counts, and stays deterministic.
    #[test]
    fn simulator_accounting_invariants(
        seed in 0u64..200,
        n_nodes in 2usize..7,
        spacing in 120.0f64..320.0,
        rate in 1.0f64..4.0,
    ) {
        let mut cfg = ScenarioConfig::static_line(n_nodes, spacing, rate, DsrConfig::combined(), seed);
        cfg.duration = SimDuration::from_secs(8.0);
        let r = run_scenario(cfg.clone());
        prop_assert!(r.delivered <= r.originated, "over-delivery: {r}");
        prop_assert!(r.delivery_fraction >= 0.0 && r.delivery_fraction <= 1.0);
        prop_assert!(r.avg_delay_s >= 0.0);
        // Replay determinism.
        let r2 = run_scenario(cfg);
        prop_assert_eq!(r, r2);
    }

    /// Random fault plans over random small chains: the simulator never
    /// panics, accounting invariants hold, a fault can activate at most
    /// once, and the run replays byte-for-byte.
    #[test]
    fn random_fault_plans_never_panic_and_replay_deterministically(
        seed in 0u64..100,
        n_nodes in 2usize..7,
        faults in proptest::collection::vec(arb_fault(), 0..6),
    ) {
        let mut cfg = ScenarioConfig::static_line(n_nodes, 180.0, 2.0, DsrConfig::combined(), seed);
        cfg.duration = SimDuration::from_secs(8.0);
        cfg.faults = FaultPlan { events: faults };
        let r = run_scenario(cfg.clone());
        prop_assert!(r.delivered <= r.originated, "over-delivery under faults: {r}");
        prop_assert!(r.delivery_fraction >= 0.0 && r.delivery_fraction <= 1.0);
        prop_assert!((r.faults_injected as usize) <= cfg.faults.events.len());
        let r2 = run_scenario(cfg);
        prop_assert_eq!(r, r2, "fault-injected runs must replay identically");
    }

    /// Campaigns under random fault plans degrade gracefully: every seed
    /// either reports or yields a classified error, and fault-free seeds
    /// are never casualties of a faulty plan.
    #[test]
    fn campaigns_account_for_every_seed_under_faults(
        faults in proptest::collection::vec(arb_fault(), 0..4),
    ) {
        let mut cfg = ScenarioConfig::static_line(4, 180.0, 2.0, DsrConfig::base(), 0);
        cfg.duration = SimDuration::from_secs(5.0);
        cfg.faults = FaultPlan { events: faults };
        let result = run_campaign(&cfg, &[1, 2, 3], &CampaignConfig::default());
        prop_assert_eq!(result.reports.len() + result.failures.len(), 3);
        prop_assert!(result.all_ok(), "benign faults must not fail runs: {}", result.failure_summary());
    }

    /// The packet-conservation ledger balances on arbitrary fault plans:
    /// with the audit at `full`, every originated packet must be
    /// delivered, dropped with a reason, or still buffered at run end —
    /// no matter which crashes, blackouts, and corruption windows the
    /// plan throws at the chain. An imbalance surfaces as
    /// `RunError::ConservationViolation` and fails the assertion.
    #[test]
    fn conservation_ledger_balances_on_arbitrary_fault_plans(
        seed in 0u64..100,
        n_nodes in 2usize..7,
        faults in proptest::collection::vec(arb_fault(), 0..6),
    ) {
        let mut cfg = ScenarioConfig::static_line(n_nodes, 180.0, 2.0, DsrConfig::combined(), seed);
        cfg.duration = SimDuration::from_secs(8.0);
        cfg.faults = FaultPlan { events: faults };
        let campaign = CampaignConfig { audit: AuditLevel::Full, ..CampaignConfig::default() };
        let result = run_campaign(&cfg, &[seed], &campaign);
        prop_assert!(
            result.all_ok(),
            "ledger must balance under arbitrary faults: {}",
            result.failure_summary()
        );
    }

    /// One fault of *every* kind at once — crash, blackout rectangle,
    /// corruption window, crash-and-rejoin churn, geometric blackout
    /// zone, and a duty-cycled radio — with the conservation audit at
    /// `full`, on the fused arrival path (the default), under both a
    /// serial and a parallel executor. The ledger must balance: every
    /// originated packet delivered, dropped with a reason (including the
    /// churn revival's `NodeReset` drops), or still buffered at run end.
    #[test]
    fn full_audit_conservation_holds_for_every_fault_kind_on_the_fused_path(
        seed in 0u64..50,
        jobs in prop::sample::select(vec![1usize, 4]),
        n_nodes in 3usize..7,
        churn_at in 1.0f64..5.0,
        radius in 100.0f64..400.0,
    ) {
        let mut cfg = ScenarioConfig::static_line(n_nodes, 180.0, 2.0, DsrConfig::combined(), seed);
        cfg.duration = SimDuration::from_secs(8.0);
        cfg.faults = FaultPlan::none()
            .node_down(NodeId::new(1), SimTime::from_secs(1.5), SimDuration::from_secs(1.0))
            .link_blackout(
                Region::new(Point::new(0.0, -50.0), Point::new(400.0, 50.0)),
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
        prop_assert!(
            result.all_ok(),
            "full-audit ledger must balance under every fault kind (jobs={}): {}",
            jobs,
            result.failure_summary()
        );
    }

    /// Forensic artifacts round-trip any scenario the fuzzer can build:
    /// parse(render(artifact)) reconstructs the identical configuration.
    #[test]
    fn forensic_artifacts_round_trip_arbitrary_scenarios(
        seed in 0u64..1000,
        n_nodes in 2usize..7,
        spacing in 120.0f64..320.0,
        rate in 0.5f64..6.0,
        faults in proptest::collection::vec(arb_fault(), 0..6),
    ) {
        let mut cfg = ScenarioConfig::static_line(n_nodes, spacing, rate, DsrConfig::combined(), seed);
        cfg.faults = FaultPlan { events: faults };
        let artifact = ForensicArtifact {
            label: cfg.dsr.label(),
            replayable: true,
            config: cfg,
            error: RunError::Panicked { seed, payload: "fuzz payload with spaces\nand lines".into() },
            trace: vec!["s 1.000000 _n0_ MAC RTS 20B".into()],
        };
        let parsed = ForensicArtifact::parse(&artifact.render());
        prop_assert_eq!(parsed.expect("artifact must parse back"), artifact);
    }

    /// Random clustered placements (possibly partitioned): no panic, sane
    /// accounting, regardless of connectivity.
    #[test]
    fn simulator_handles_arbitrary_topologies(
        seed in 0u64..100,
        xs in proptest::collection::vec((0.0f64..1500.0, 0.0f64..500.0), 2..10),
    ) {
        let positions: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
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
        prop_assert!(r.delivered <= r.originated);
    }
}

proptest! {
    // Each case runs two full campaigns (one of them multi-threaded), so
    // this block runs far fewer cases than the cheap fuzzers above.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel campaign execution is invisible in the output: for random
    /// fault plans — including randomly injected chaos (a panicking seed
    /// and an event-storm seed, exercising both failure paths of the
    /// executor) — running with 2, 4, or 8 workers yields a
    /// `CampaignResult` and journal byte-identical to the sequential run
    /// over the same seeds.
    #[test]
    fn parallel_campaigns_match_sequential_under_random_faults(
        jobs in prop::sample::select(vec![2usize, 4, 8]),
        faults in proptest::collection::vec(arb_fault(), 0..3),
        panic_seed in prop::option::of(1u64..4),
        storm_seed in prop::option::of(1u64..4),
    ) {
        let mut cfg = ScenarioConfig::static_line(4, 180.0, 2.0, DsrConfig::base(), 0);
        cfg.duration = SimDuration::from_secs(5.0);
        let mut events = faults;
        if let Some(seed) = panic_seed {
            events.push(FaultEvent::Panic {
                at: SimTime::from_secs(2.0),
                only_seed: Some(seed),
            });
        }
        if let Some(seed) = storm_seed {
            events.push(FaultEvent::EventStorm {
                at: SimTime::from_secs(1.0),
                only_seed: Some(seed),
            });
        }
        cfg.faults = FaultPlan { events };
        let journal_for = |tag: &str| {
            std::env::temp_dir()
                .join(format!("fuzz-exec-{tag}-{}.txt", std::process::id()))
        };
        let campaign_for = |jobs: usize, tag: &str| CampaignConfig {
            jobs,
            // A finite event budget turns the storm into a deterministic
            // EventBudgetExhausted instead of a wall-clock-dependent hang.
            limits: RunLimits { wall_clock: None, max_events_per_sim_second: Some(30_000) },
            journal: Some(journal_for(tag)),
            ..CampaignConfig::default()
        };

        let seq_cfg = campaign_for(1, "seq");
        let _ = std::fs::remove_file(seq_cfg.journal.as_ref().unwrap());
        let sequential = run_campaign(&cfg, &[1, 2, 3], &seq_cfg);
        prop_assert_eq!(sequential.reports.len() + sequential.failures.len(), 3);

        let par_cfg = campaign_for(jobs, "par");
        let _ = std::fs::remove_file(par_cfg.journal.as_ref().unwrap());
        let parallel = run_campaign(&cfg, &[1, 2, 3], &par_cfg);

        let seq_journal = std::fs::read(seq_cfg.journal.as_ref().unwrap()).unwrap_or_default();
        let par_journal = std::fs::read(par_cfg.journal.as_ref().unwrap()).unwrap_or_default();
        let _ = std::fs::remove_file(seq_cfg.journal.as_ref().unwrap());
        let _ = std::fs::remove_file(par_cfg.journal.as_ref().unwrap());
        prop_assert_eq!(parallel, sequential, "jobs must not change the CampaignResult");
        prop_assert_eq!(par_journal, seq_journal, "jobs must not change the journal bytes");
    }
}
