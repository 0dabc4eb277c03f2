//! Seeded properties on the core data structures and invariants, spanning
//! the workspace crates. Each runs on `sim_core::testkit::cases`: generators
//! are plain functions drawing from the case's stream, and a failure names
//! the case to replay.
//!
//! Two former properties are not here. `event_queue_pops_sorted` and
//! `event_queue_cancellation_is_exact` are subsumed by
//! `sim_core::event::model::queue_matches_the_sorted_vec_model`, which checks
//! every pop (order included) and every cancel against a sorted-`Vec` oracle
//! over 300 seeds x 800 mixed ops. The two lazy-envelope properties live
//! beside the reference receiver they drive, in `crates/phy/src/differential.rs`.

use dsr_caching::dsr::{DsrConfig, NegativeCache, PathCache};
use dsr_caching::mobility::{
    Field, MobilityModel, NeighborGrid, Point, RandomWaypoint, WaypointConfig,
};
use dsr_caching::packet::{Link, Route};
use dsr_caching::phy::{plan_arrivals_indexed_into, RadioConfig};
use dsr_caching::runner::{run_campaign, AuditLevel, CampaignConfig, FaultPlan, ScenarioConfig};
use dsr_caching::sim_core::rng::uniform;
use dsr_caching::sim_core::testkit::cases;
use dsr_caching::sim_core::{NodeId, RngFactory, SimDuration, SimRng, SimTime};

/// A loop-free node sequence of 2..=8 nodes drawn from 0..16.
fn route(rng: &mut SimRng) -> Route {
    let mut pool: Vec<u16> = (0..16).collect();
    let nodes = (0..rng.random_range(2..=8usize))
        .map(|_| NodeId::new(pool.swap_remove(rng.random_range(0..pool.len()))))
        .collect();
    Route::new(nodes).expect("drawn without replacement")
}

/// `len` routes (drawn from the given range).
fn routes(rng: &mut SimRng, len: std::ops::Range<usize>) -> Vec<Route> {
    (0..rng.random_range(len)).map(|_| route(rng)).collect()
}

/// A link between two distinct nodes of 0..16.
fn link(rng: &mut SimRng) -> Link {
    let from = rng.random_range(0..16u16);
    let to = (from + rng.random_range(1..16u16)) % 16;
    Link::new(NodeId::new(from), NodeId::new(to))
}

/// One random fault — a crash, a corruption window or a crash-and-rejoin —
/// on the 20-node tiny scenario.
fn single_fault(rng: &mut SimRng) -> FaultPlan {
    let kind = rng.random_range(0..3u32);
    let victim = NodeId::new(rng.random_range(0..20u16));
    let at_s = uniform(rng, 1.0, 8.0);
    let dur_s = uniform(rng, 0.5, 4.0);
    let corruption = uniform(rng, 0.01, 0.4);
    let (at, dur) = (SimTime::from_secs(at_s), SimDuration::from_secs(dur_s));
    match kind {
        0 => FaultPlan::none().node_down(victim, at, dur),
        1 => FaultPlan::none().frame_corruption(corruption, at, SimTime::from_secs(at_s + dur_s)),
        _ => FaultPlan::none().node_churn(victim, at, dur),
    }
}

// ----------------------------------------------------------------------
// Route invariants
// ----------------------------------------------------------------------

#[test]
fn route_never_contains_duplicates() {
    cases("route_never_contains_duplicates", 0..256, |_, rng| {
        let route = route(rng);
        let nodes = route.nodes();
        for (i, n) in nodes.iter().enumerate() {
            assert!(!nodes[..i].contains(n), "route {route} repeats {n}");
        }
    });
}

#[test]
fn route_reversal_is_involutive() {
    cases("route_reversal_is_involutive", 0..256, |_, rng| {
        let route = route(rng);
        assert_eq!(route.reversed().reversed(), route);
    });
}

#[test]
fn route_prefix_suffix_partition() {
    cases("route_prefix_suffix_partition", 0..256, |_, rng| {
        let route = route(rng);
        let node = route.nodes()[rng.random_range(0..route.len())];
        let prefix = route.prefix_through(node).expect("node is on route");
        let suffix = route.suffix_from(node).expect("node is on route");
        assert_eq!(prefix.destination(), node);
        assert_eq!(suffix.source(), node);
        assert_eq!(prefix.len() + suffix.len(), route.len() + 1);
        // Rejoining reproduces the original route.
        assert_eq!(Route::join(prefix.nodes(), &suffix).expect("partition is loop-free"), route);
    });
}

#[test]
fn route_truncation_removes_the_link() {
    cases("route_truncation_removes_the_link", 0..256, |_, rng| {
        let route = route(rng);
        for link in route.links() {
            let truncated = route.truncate_before_link(link).expect("link is on route");
            assert!(!truncated.contains_link(link));
            assert_eq!(truncated.destination(), link.from);
            assert_eq!(truncated.source(), route.source());
        }
    });
}

#[test]
fn forwarding_follows_route_order() {
    cases("forwarding_follows_route_order", 0..256, |_, rng| {
        // Walking next_hop_after from the source visits nodes in order and
        // terminates — the "source routing never loops" guarantee.
        let route = route(rng);
        let mut current = route.source();
        let mut visited = vec![current];
        while let Some(next) = route.next_hop_after(current) {
            assert!(!visited.contains(&next), "forwarding revisited {next}");
            visited.push(next);
            current = next;
        }
        assert_eq!(current, route.destination());
        assert_eq!(visited.len(), route.len());
    });
}

// ----------------------------------------------------------------------
// Path cache invariants
// ----------------------------------------------------------------------

#[test]
fn cache_find_returns_valid_routes() {
    cases("cache_find_returns_valid_routes", 0..256, |_, rng| {
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 8);
        let now = SimTime::ZERO;
        for r in routes(rng, 1..12) {
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
                assert_eq!(found.source(), owner);
                assert_eq!(found.destination(), dst);
                assert!(found.hops() >= 1);
            }
        }
    });
}

#[test]
fn cache_remove_link_leaves_no_trace() {
    cases("cache_remove_link_leaves_no_trace", 0..256, |_, rng| {
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 16);
        let now = SimTime::ZERO;
        for r in routes(rng, 1..10) {
            if r.source() == owner {
                cache.insert(r, now);
            }
        }
        let link = link(rng);
        cache.remove_link(link, now);
        assert!(!cache.contains_link(link));
        for entry in cache.iter() {
            assert!(entry.nodes().len() >= 2);
        }
    });
}

#[test]
fn cache_expiry_is_monotone() {
    cases("cache_expiry_is_monotone", 0..256, |_, rng| {
        let owner = NodeId::new(0);
        let mut cache = PathCache::new(owner, 16);
        for r in routes(rng, 1..8) {
            if r.source() == owner {
                cache.insert(r, SimTime::ZERO);
            }
        }
        let timeout_s = uniform(rng, 1.0, 20.0);
        let before = cache.len();
        // Expiring well past the timeout clears everything; expiring at
        // time zero clears nothing.
        let mut young = cache.clone();
        young.expire(SimTime::ZERO, SimDuration::from_secs(timeout_s));
        assert_eq!(young.len(), before, "nothing is stale at t=0");
        cache.expire(SimTime::from_secs(timeout_s + 100.0), SimDuration::from_secs(timeout_s));
        assert_eq!(cache.len(), 0, "everything is stale far in the future");
    });
}

// ----------------------------------------------------------------------
// Negative cache / route cache mutual exclusion
// ----------------------------------------------------------------------

#[test]
fn negative_cache_mutual_exclusion() {
    cases("negative_cache_mutual_exclusion", 0..256, |_, rng| {
        let links: Vec<Link> = (0..rng.random_range(1..20usize)).map(|_| link(rng)).collect();
        let mut neg = NegativeCache::default();
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
                assert!(!cache.contains_link(*link), "link {link} is in both caches");
            }
        }
    });
}

// ----------------------------------------------------------------------
// Mobility invariants
// ----------------------------------------------------------------------

#[test]
fn waypoint_positions_always_in_field() {
    cases("waypoint_positions_always_in_field", 0..256, |_, rng| {
        let cfg = WaypointConfig {
            num_nodes: 8,
            field: Field::new(800.0, 300.0),
            min_speed: 0.1,
            max_speed: 20.0,
            pause_time: SimDuration::from_secs(uniform(rng, 0.0, 30.0)),
            duration: SimDuration::from_secs(60.0),
        };
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(rng.random_range(0..1_000u64)));
        let query = SimTime::from_secs(uniform(rng, 0.0, 100.0));
        for node in 0..8u16 {
            let p = m.position(NodeId::new(node), query);
            assert!(cfg.field.contains(p), "node {node} at {p} left {}", cfg.field);
        }
    });
}

// ----------------------------------------------------------------------
// Medium invariants: grid-indexed planning == linear scan
// ----------------------------------------------------------------------

/// The spatial neighbor grid must be a pure index: planning arrivals
/// from its 3x3-cell candidate set yields exactly the same arrivals
/// (same order, same values) and the same suppressed count as planning
/// with every node as a candidate, for any positions and any suppress
/// mask. This is what keeps a run independent of the grid's cell
/// geometry.
#[test]
fn grid_indexed_planning_matches_all_candidates() {
    cases("grid_indexed_planning_matches_all_candidates", 0..256, |_, rng| {
        let positions: Vec<Point> = (0..rng.random_range(2..48usize))
            .map(|_| Point::new(uniform(rng, 0.0, 2200.0), uniform(rng, 0.0, 600.0)))
            .collect();
        let mask: Vec<bool> = positions.iter().map(|_| rng.random_bool(0.5)).collect();
        let tx = NodeId::new(rng.random_range(0..positions.len()) as u16);
        let radio = RadioConfig::wavelan();
        let now = SimTime::from_secs(10.0);
        let airtime = SimDuration::from_millis(1.5);
        let suppress = |rx: NodeId| mask[rx.index()];

        let all: Vec<u16> = (0..positions.len() as u16).collect();
        let mut scanned = Vec::new();
        let suppressed_scanned = plan_arrivals_indexed_into(
            tx,
            &all,
            &positions,
            now,
            airtime,
            &radio,
            suppress,
            &mut scanned,
        );

        let mut grid = NeighborGrid::new(radio.carrier_sense_range_m() * 1.001);
        grid.rebuild(&positions);
        let mut cands = Vec::new();
        grid.candidates_into(positions[tx.index()], &mut cands);
        let mut indexed = Vec::new();
        let suppressed = plan_arrivals_indexed_into(
            tx,
            &cands,
            &positions,
            now,
            airtime,
            &radio,
            suppress,
            &mut indexed,
        );

        assert_eq!(indexed, scanned);
        assert_eq!(suppressed, suppressed_scanned);
    });
}

// ----------------------------------------------------------------------
// Cache-decision tracing invariants (ISSUE 9)
// ----------------------------------------------------------------------

/// Tracing is pure observation and supervisor-serialized: for a random
/// fault plan, (a) a cachetrace-on campaign produces byte-for-byte the
/// same reports and failures as a cachetrace-off one, and (b) the
/// trace files themselves are byte-identical at `--jobs 1` and
/// `--jobs 4`. Each case runs three full campaigns, hence ten of them.
#[test]
fn cachetrace_is_pure_and_job_count_invariant() {
    cases("cachetrace_is_pure_and_job_count_invariant", 0..10, |case, rng| {
        let scenario_seed = rng.random_range(0..1_000u64);
        let mut cfg = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::combined(), scenario_seed);
        cfg.duration = SimDuration::from_secs(10.0);
        cfg.faults = single_fault(rng);
        let seeds = [1, 2];

        let off = run_campaign(&cfg, &seeds, &CampaignConfig::default());

        let traced = |jobs: usize| {
            let dir =
                std::env::temp_dir().join(format!("ct-prop-j{jobs}-{}-{case}", std::process::id()));
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
        let (on_seq, traces_seq) = traced(1);
        let (on_par, traces_par) = traced(4);

        assert_eq!(on_seq, off, "tracing must not perturb the campaign");
        assert_eq!(on_par, off, "jobs must not perturb the campaign");
        assert_eq!(traces_seq.len(), seeds.len(), "one trace per seed");
        assert!(traces_seq == traces_par, "trace bytes must not depend on job count");
    });
}

// ----------------------------------------------------------------------
// Strategy-matrix invariants (ISSUE 10)
// ----------------------------------------------------------------------

/// Multipath caching — alone and stacked on the paper's combined variant —
/// stays conservation-clean at `--audit full` under random fault plans, and
/// its campaigns are byte-identical at `--jobs 1` and `--jobs 4`. Full
/// campaigns again, so eight cases.
#[test]
fn strategy_campaigns_are_conservation_clean_and_job_invariant() {
    use dsr_caching::dsr::MultipathConfig;
    cases("strategy_campaigns_are_conservation_clean_and_job_invariant", 0..8, |_, rng| {
        let dsr = match rng.random_range(0..2u32) {
            0 => DsrConfig::multipath(),
            _ => DsrConfig { multipath: Some(MultipathConfig::default()), ..DsrConfig::combined() },
        };
        let scenario_seed = rng.random_range(0..1_000u64);
        let mut cfg = ScenarioConfig::tiny(0.0, 2.0, dsr, scenario_seed);
        cfg.duration = SimDuration::from_secs(10.0);
        cfg.faults = single_fault(rng);
        let seeds = [1, 2];
        let campaign = CampaignConfig { audit: AuditLevel::Full, ..CampaignConfig::default() };

        let seq = run_campaign(&cfg, &seeds, &campaign);
        assert!(
            seq.all_ok(),
            "strategy {} campaign failed under faults: {}",
            cfg.dsr.label(),
            seq.failure_summary()
        );

        let par = run_campaign(&cfg, &seeds, &CampaignConfig { jobs: 4, ..campaign });
        assert_eq!(seq, par, "reports must not depend on job count");
    });
}
