//! Property-based tests on the core data structures and invariants,
//! spanning the workspace crates.

use proptest::prelude::*;

use dsr_caching::dsr::{DsrConfig, NegativeCache, NegativeCacheConfig, PathCache};
use dsr_caching::mobility::{
    Field, MobilityModel, NeighborGrid, Point, RandomWaypoint, WaypointConfig,
};
use dsr_caching::packet::{Link, Route};
use dsr_caching::phy::{
    assert_fused_matches_eager, plan_arrivals_indexed_into, DiffArrival, RadioConfig,
};
use dsr_caching::runner::{run_campaign, AuditLevel, CampaignConfig, FaultPlan, ScenarioConfig};
use dsr_caching::sim_core::{EventQueue, NodeId, RngFactory, SimDuration, SimTime};

/// Strategy: a loop-free node sequence of 2..=8 nodes drawn from 0..16.
fn arb_route() -> impl Strategy<Value = Route> {
    proptest::collection::vec(0u16..16, 2..=8).prop_filter_map("must be loop-free", |ids| {
        let nodes: Vec<NodeId> = ids.into_iter().map(NodeId::new).collect();
        Route::new(nodes).ok()
    })
}

fn arb_link() -> impl Strategy<Value = Link> {
    (0u16..16, 0u16..16)
        .prop_filter("distinct endpoints", |(a, b)| a != b)
        .prop_map(|(a, b)| Link::new(NodeId::new(a), NodeId::new(b)))
}

proptest! {
    // ------------------------------------------------------------------
    // Route invariants
    // ------------------------------------------------------------------

    #[test]
    fn route_never_contains_duplicates(route in arb_route()) {
        let nodes = route.nodes();
        for (i, n) in nodes.iter().enumerate() {
            prop_assert!(!nodes[..i].contains(n), "route {route} repeats {n}");
        }
    }

    #[test]
    fn route_reversal_is_involutive(route in arb_route()) {
        prop_assert_eq!(route.reversed().reversed(), route);
    }

    #[test]
    fn route_prefix_suffix_partition(route in arb_route(), idx in 0usize..8) {
        let nodes = route.nodes();
        let node = nodes[idx % nodes.len()];
        let prefix = route.prefix_through(node).expect("node is on route");
        let suffix = route.suffix_from(node).expect("node is on route");
        prop_assert_eq!(prefix.destination(), node);
        prop_assert_eq!(suffix.source(), node);
        prop_assert_eq!(prefix.len() + suffix.len(), route.len() + 1);
        // Rejoining reproduces the original route.
        prop_assert_eq!(prefix.join(&suffix).expect("partition is loop-free"), route.clone());
    }

    #[test]
    fn route_truncation_removes_the_link(route in arb_route()) {
        for link in route.links().collect::<Vec<_>>() {
            let truncated = route.truncate_before_link(link).expect("link is on route");
            prop_assert!(!truncated.contains_link(link));
            prop_assert_eq!(truncated.destination(), link.from);
            prop_assert_eq!(truncated.source(), route.source());
        }
    }

    #[test]
    fn forwarding_follows_route_order(route in arb_route()) {
        // Walking next_hop_after from the source visits nodes in order and
        // terminates — the "source routing never loops" guarantee.
        let mut current = route.source();
        let mut visited = vec![current];
        while let Some(next) = route.next_hop_after(current) {
            prop_assert!(!visited.contains(&next), "forwarding revisited {next}");
            visited.push(next);
            current = next;
        }
        prop_assert_eq!(current, route.destination());
        prop_assert_eq!(visited.len(), route.len());
    }

    // ------------------------------------------------------------------
    // Path cache invariants
    // ------------------------------------------------------------------

    #[test]
    fn cache_find_returns_valid_routes(routes in proptest::collection::vec(arb_route(), 1..12)) {
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 8);
        let now = SimTime::ZERO;
        for r in routes {
            // Only routes rooted at the owner are insertable; reroot by
            // prefixing the owner when absent.
            if r.source() == owner {
                cache.insert(r, now);
            } else if !r.contains(owner) {
                let mut nodes = vec![owner];
                nodes.extend_from_slice(r.nodes());
                if let Ok(rr) = Route::new(nodes) {
                    cache.insert(rr, now);
                }
            }
        }
        for dst in (1..16).map(NodeId::new) {
            if let Some(found) = cache.find(dst, now) {
                prop_assert_eq!(found.source(), owner);
                prop_assert_eq!(found.destination(), dst);
                prop_assert!(found.hops() >= 1);
            }
        }
    }

    #[test]
    fn cache_remove_link_leaves_no_trace(
        routes in proptest::collection::vec(arb_route(), 1..10),
        link in arb_link(),
    ) {
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 16);
        let now = SimTime::ZERO;
        for r in routes {
            if r.source() == owner {
                cache.insert(r, now);
            }
        }
        cache.remove_link(link, now);
        prop_assert!(!cache.contains_link(link));
        for entry in cache.iter() {
            prop_assert!(entry.path().hops() >= 1);
        }
    }

    #[test]
    fn cache_expiry_is_monotone(
        routes in proptest::collection::vec(arb_route(), 1..8),
        timeout_s in 1.0f64..20.0,
    ) {
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 16);
        for r in routes {
            if r.source() == owner {
                cache.insert(r, SimTime::ZERO);
            }
        }
        let before = cache.len();
        // Expiring well past the timeout clears everything; expiring at
        // time zero clears nothing.
        let mut young = cache.clone();
        young.expire(SimTime::ZERO, SimDuration::from_secs(timeout_s));
        prop_assert_eq!(young.len(), before, "nothing is stale at t=0");
        cache.expire(SimTime::from_secs(timeout_s + 100.0), SimDuration::from_secs(timeout_s));
        prop_assert_eq!(cache.len(), 0, "everything is stale far in the future");
    }

    // ------------------------------------------------------------------
    // Negative cache / route cache mutual exclusion
    // ------------------------------------------------------------------

    #[test]
    fn negative_cache_mutual_exclusion(
        links in proptest::collection::vec(arb_link(), 1..20),
    ) {
        let mut neg = NegativeCache::new(NegativeCacheConfig::default());
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 16);
        let now = SimTime::from_secs(1.0);
        // Blacklist every other link, removing it from the path cache as
        // the agent does.
        for (i, link) in links.iter().enumerate() {
            if i % 2 == 0 {
                neg.insert(*link, now);
                cache.remove_link(*link, now);
            }
        }
        // Insert some routes, truncating at blacklisted links (the agent's
        // insert_route rule).
        for window in links.windows(3) {
            let mut nodes = vec![owner];
            for l in window {
                if !nodes.contains(&l.from) {
                    nodes.push(l.from);
                }
            }
            if let Ok(route) = Route::new(nodes) {
                let mut cut = route.len();
                for (i, l) in route.links().enumerate() {
                    if neg.contains(l, now) {
                        cut = i + 1;
                        break;
                    }
                }
                if cut >= 2 {
                    let truncated = Route::new(route.nodes()[..cut].to_vec()).expect("prefix");
                    if truncated.hops() >= 1 {
                        cache.insert(truncated, now);
                    }
                }
            }
        }
        // Invariant: no blacklisted link is present in the route cache.
        for link in &links {
            if neg.contains(*link, now) {
                prop_assert!(!cache.contains_link(*link),
                    "link {link} is in both caches");
            }
        }
    }

    // ------------------------------------------------------------------
    // Event queue is a total order
    // ------------------------------------------------------------------

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "events out of order");
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..60),
        cancel_mask in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()] {
                q.cancel(*id);
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    // ------------------------------------------------------------------
    // Mobility invariants
    // ------------------------------------------------------------------

    #[test]
    fn waypoint_positions_always_in_field(
        seed in 0u64..1_000,
        pause_s in 0.0f64..30.0,
        query_s in 0.0f64..100.0,
    ) {
        let cfg = WaypointConfig {
            num_nodes: 8,
            field: Field::new(800.0, 300.0),
            min_speed: 0.1,
            max_speed: 20.0,
            pause_time: SimDuration::from_secs(pause_s),
            duration: SimDuration::from_secs(60.0),
        };
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(seed));
        for node in 0..8u16 {
            let p = m.position(NodeId::new(node), SimTime::from_secs(query_s));
            prop_assert!(cfg.field.contains(p), "node {node} at {p} left {}", cfg.field);
        }
    }

    // ------------------------------------------------------------------
    // Medium invariants: grid-indexed planning == linear scan
    // ------------------------------------------------------------------

    /// The spatial neighbor grid must be a pure index: planning arrivals
    /// from its 3x3-cell candidate set yields exactly the same arrivals
    /// (same order, same values) and the same suppressed count as planning
    /// with every node as a candidate, for any positions and any suppress
    /// mask. This is what keeps a run independent of the grid's cell
    /// geometry.
    #[test]
    fn grid_indexed_planning_matches_all_candidates(
        coords in proptest::collection::vec((0.0f64..2200.0, 0.0f64..600.0), 2..48),
        tx_pick in 0usize..1024,
        mask in proptest::collection::vec(any::<bool>(), 2..48),
    ) {
        let positions: Vec<Point> =
            coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let tx = NodeId::new((tx_pick % positions.len()) as u16);
        let radio = RadioConfig::wavelan();
        let now = SimTime::from_secs(10.0);
        let airtime = SimDuration::from_millis(1.5);
        let suppress =
            |rx: NodeId| mask[rx.index() % mask.len()];

        let all: Vec<u16> = (0..positions.len() as u16).collect();
        let mut scanned = Vec::new();
        let suppressed_scanned = plan_arrivals_indexed_into(
            tx, &all, &positions, now, airtime, &radio, suppress, &mut scanned,
        );

        let mut grid = NeighborGrid::new(radio.carrier_sense_range_m() * 1.001);
        grid.rebuild(&positions);
        let mut cands = Vec::new();
        grid.candidates_into(positions[tx.index()], &mut cands);
        let mut indexed = Vec::new();
        let suppressed = plan_arrivals_indexed_into(
            tx, &cands, &positions, now, airtime, &radio, suppress, &mut indexed,
        );

        prop_assert_eq!(indexed, scanned);
        prop_assert_eq!(suppressed, suppressed_scanned);
    }

    // ------------------------------------------------------------------
    // Receiver invariants: lazy envelope == eager reference receiver
    // ------------------------------------------------------------------

    /// The lazy interference envelope is a pure acceleration structure:
    /// random overlapping arrival storms — powers straddling the
    /// carrier-sense and reception thresholds, capture contests,
    /// same-instant start ties, an optional half-duplex own transmission —
    /// must produce exactly the deliveries and busy horizons of the eager
    /// reference receiver, which folds every boundary as it happens.
    /// Divergence panics inside the harness (see `phy::differential`).
    #[test]
    fn fused_envelope_matches_eager_reference(
        raw in proptest::collection::vec(
            // (start, duration, power class). Starts cluster in a window
            // comparable to the durations so frames genuinely overlap;
            // the 0-mod-4 class is sub-RX (envelope-folded), the rest
            // decodable, with class 3 strong enough to win capture.
            (0u64..2_000_000, 1u64..1_500_000, 0u8..4),
            1..24,
        ),
        own_tx in proptest::option::of((0u64..2_000_000, 1u64..500_000)),
    ) {
        let arrivals: Vec<DiffArrival> = raw
            .iter()
            .map(|&(start_ns, dur_ns, class)| DiffArrival::clean(
                start_ns,
                dur_ns,
                match class {
                    0 => 1e-10, // sub-RX, above carrier sense
                    1 => 5e-10, // barely decodable
                    2 => 1e-9,
                    _ => 1e-7,  // > 10x: capture winner
                },
            ))
            .collect();
        assert_fused_matches_eager(&RadioConfig::wavelan(), &arrivals, own_tx);
    }

    /// Fault injection rides the same equivalence contract: random
    /// corruption and suppression flags (plan-time corruption, start
    /// suppression = the arrival never enters either receiver, end
    /// suppression = delivery gated after decode) must leave the envelope
    /// and the reference in lockstep on every delivery and busy horizon.
    #[test]
    fn fused_envelope_matches_eager_under_random_fault_plans(
        raw in proptest::collection::vec(
            // (start, duration, power class, corrupted, s_start, s_end)
            (0u64..2_000_000, 1u64..1_500_000, 0u8..4,
             proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            1..24,
        ),
        own_tx in proptest::option::of((0u64..2_000_000, 1u64..500_000)),
    ) {
        let arrivals: Vec<DiffArrival> = raw
            .iter()
            .map(|&(start_ns, dur_ns, class, corrupted, suppress_start, suppress_end)| {
                DiffArrival {
                    corrupted,
                    suppress_start,
                    suppress_end,
                    ..DiffArrival::clean(
                        start_ns,
                        dur_ns,
                        match class {
                            0 => 1e-10,
                            1 => 5e-10,
                            2 => 1e-9,
                            _ => 1e-7,
                        },
                    )
                }
            })
            .collect();
        assert_fused_matches_eager(&RadioConfig::wavelan(), &arrivals, own_tx);
    }
}

// ----------------------------------------------------------------------
// Cache-decision tracing invariants (ISSUE 9)
// ----------------------------------------------------------------------
//
// Each case runs full campaigns, so this block caps its case count to keep
// CI within budget; the seed/fault space is still sampled fresh every run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tracing is pure observation and supervisor-serialized: for a random
    /// fault plan, (a) a cachetrace-on campaign produces byte-for-byte the
    /// same reports and failures as a cachetrace-off one, and (b) the
    /// trace files themselves are byte-identical at `--jobs 1` and
    /// `--jobs 4`.
    #[test]
    fn cachetrace_is_pure_and_job_count_invariant(
        scenario_seed in 0u64..1_000,
        fault_kind in 0u8..3,
        victim in 0u16..20,
        at_s in 1.0f64..8.0,
        dur_s in 0.5f64..4.0,
        corruption in 0.01f64..0.4,
    ) {
        let mut cfg = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::combined(), scenario_seed);
        cfg.duration = SimDuration::from_secs(10.0);
        let at = SimTime::from_secs(at_s);
        let dur = SimDuration::from_secs(dur_s);
        cfg.faults = match fault_kind {
            0 => FaultPlan::none().node_down(NodeId::new(victim), at, dur),
            1 => FaultPlan::none().frame_corruption(
                corruption, at, SimTime::from_secs(at_s + dur_s)),
            _ => FaultPlan::none().node_churn(NodeId::new(victim), at, dur),
        };
        let seeds = [1, 2];

        let off = run_campaign(&cfg, &seeds, &CampaignConfig::default());

        let traced = |jobs: usize, tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "ct-prop-{tag}-{}-{scenario_seed}-{fault_kind}-{victim}",
                std::process::id(),
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut campaign = CampaignConfig { jobs, ..CampaignConfig::default() };
            campaign.obs.cachetrace_dir = Some(dir.clone());
            let result = run_campaign(&cfg, &seeds, &campaign);
            let files: std::collections::BTreeMap<String, Vec<u8>> = std::fs::read_dir(&dir)
                .expect("trace dir")
                .map(|e| {
                    let p = e.expect("entry").path();
                    (
                        p.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read(&p).expect("read trace"),
                    )
                })
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (result, files)
        };
        let (on_seq, traces_seq) = traced(1, "j1");
        let (on_par, traces_par) = traced(4, "j4");

        prop_assert_eq!(&on_seq, &off, "tracing must not perturb the campaign");
        prop_assert_eq!(&on_par, &off, "jobs must not perturb the campaign");
        prop_assert_eq!(traces_seq.len(), seeds.len(), "one trace per seed");
        prop_assert_eq!(traces_seq, traces_par, "trace bytes must not depend on job count");
    }
}

// ----------------------------------------------------------------------
// Strategy-matrix invariants (ISSUE 10)
// ----------------------------------------------------------------------
//
// Full campaigns again, so the case count stays small; the strategy ×
// fault-plan space is sampled fresh every run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The three new strategies (preemptive repair, route suppression,
    /// multipath caching) — alone and stacked — stay conservation-clean
    /// at `--audit full` under random fault plans, and their campaigns
    /// are byte-identical at `--jobs 1` and `--jobs 4`.
    #[test]
    fn strategy_campaigns_are_conservation_clean_and_job_invariant(
        strategy in 0u8..4,
        scenario_seed in 0u64..1_000,
        fault_kind in 0u8..3,
        victim in 0u16..20,
        at_s in 1.0f64..8.0,
        dur_s in 0.5f64..4.0,
        corruption in 0.01f64..0.4,
    ) {
        use dsr_caching::dsr::{MultipathConfig, PreemptiveConfig, SuppressionConfig};
        let dsr = match strategy {
            0 => DsrConfig::preemptive(),
            1 => DsrConfig::suppression(),
            2 => DsrConfig::multipath(),
            _ => DsrConfig {
                preemptive: Some(PreemptiveConfig::default()),
                suppression: Some(SuppressionConfig::default()),
                multipath: Some(MultipathConfig::default()),
                ..DsrConfig::base()
            },
        };
        let mut cfg = ScenarioConfig::tiny(0.0, 2.0, dsr, scenario_seed);
        cfg.duration = SimDuration::from_secs(10.0);
        let at = SimTime::from_secs(at_s);
        let dur = SimDuration::from_secs(dur_s);
        cfg.faults = match fault_kind {
            0 => FaultPlan::none().node_down(NodeId::new(victim), at, dur),
            1 => FaultPlan::none().frame_corruption(
                corruption, at, SimTime::from_secs(at_s + dur_s)),
            _ => FaultPlan::none().node_churn(NodeId::new(victim), at, dur),
        };
        let seeds = [1, 2];
        let campaign = CampaignConfig { audit: AuditLevel::Full, ..CampaignConfig::default() };

        let seq = run_campaign(&cfg, &seeds, &campaign);
        prop_assert!(
            seq.all_ok(),
            "strategy {} campaign failed under faults: {}",
            cfg.dsr.label(),
            seq.failure_summary()
        );

        let par = run_campaign(
            &cfg,
            &seeds,
            &CampaignConfig { jobs: 4, ..campaign },
        );
        prop_assert_eq!(&seq, &par, "reports must not depend on job count");
    }
}
