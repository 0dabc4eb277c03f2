//! Scenario configuration: everything that defines one simulation run.

use mobility::{Field, Point, WaypointConfig};
use phy::RadioConfig;
use sim_core::{NodeId, SimDuration, SimTime};
use traffic::TrafficConfig;

use dsr::DsrConfig;
use mac::MacConfig;

/// How nodes are placed and moved.
#[derive(Debug, Clone, PartialEq)]
pub enum MobilitySpec {
    /// Random waypoint scenario generated from the run's seed.
    Waypoint(WaypointConfig),
    /// Fixed positions (controlled tests).
    Static(Vec<Point>),
}

impl MobilitySpec {
    /// Number of nodes this spec produces.
    pub fn num_nodes(&self) -> usize {
        match self {
            MobilitySpec::Waypoint(cfg) => cfg.num_nodes,
            MobilitySpec::Static(points) => points.len(),
        }
    }
}

/// Geometric scope of a [`FaultEvent::RegionBlackout`]: a disc (local
/// jammer, failed cell), a half-plane (terrain cut, network partition along
/// a line) or an axis-aligned rectangle (a blacked-out stretch of the
/// field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Zone {
    /// All points within `radius_m` of `center` (boundary inclusive).
    Disc {
        /// Disc center.
        center: Point,
        /// Disc radius in meters.
        radius_m: f64,
    },
    /// The closed half-plane on the `normal` side of the line through
    /// `origin`: all points `p` with `(p - origin) · normal >= 0`.
    HalfPlane {
        /// A point on the dividing line.
        origin: Point,
        /// Direction pointing into the affected half (need not be
        /// normalized).
        normal: Point,
    },
    /// The axis-aligned rectangle from `min` to `max` (boundary
    /// inclusive); [`Zone::rect`] orders the corners.
    Rect {
        /// Lower-left corner.
        min: Point,
        /// Upper-right corner.
        max: Point,
    },
}

impl Zone {
    /// The rectangle spanning the two corners (in any order).
    pub fn rect(a: Point, b: Point) -> Self {
        Zone::Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Whether `p` lies inside the zone (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        match *self {
            Zone::Disc { center, radius_m } => p.distance_sq(center) <= radius_m * radius_m,
            Zone::HalfPlane { origin, normal } => {
                (p.x - origin.x) * normal.x + (p.y - origin.y) * normal.y >= 0.0
            }
            Zone::Rect { min, max } => {
                (min.x..=max.x).contains(&p.x) && (min.y..=max.y).contains(&p.y)
            }
        }
    }
}

/// One scheduled, deterministic fault. Faults are part of the scenario:
/// the same plan under the same seed reproduces the same run bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// `node` crashes at `at` for `down_for`: it neither transmits nor
    /// receives, and its queued MAC/agent timers are suspended until it
    /// comes back up. A node id outside the scenario is a no-op.
    NodeDown {
        /// The crashing node.
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Outage length.
        down_for: SimDuration,
    },
    /// During `[from, until)` every planned frame arrival is independently
    /// destroyed with probability `prob` (clamped to `[0, 1]`), drawn from
    /// the dedicated `"fault"` RNG stream so replay stays deterministic.
    FrameCorruption {
        /// Per-arrival corruption probability.
        prob: f64,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// `node` crashes at `at` and deterministically *rejoins* after
    /// `down_for` with protocol state wiped: the MAC's queue and retry
    /// chains reset (held packets dropped as `NodeReset`), the routing
    /// agent reboots (caches, buffers, and request state cleared, periodic
    /// timers re-armed), and suspended timers are cancelled — the node
    /// comes back as a freshly booted station, not a thawed one.
    NodeChurn {
        /// The churning node.
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Outage length before the rejoin.
        down_for: SimDuration,
    },
    /// All receptions by nodes inside `zone` are suppressed during the
    /// window — a localized jammer, a terrain blackout or a geometric
    /// partition.
    RegionBlackout {
        /// Affected area.
        zone: Zone,
        /// Window start.
        at: SimTime,
        /// Window length.
        down_for: SimDuration,
    },
    /// Periodic transceiver sleep: starting at `at`, `node` sleeps for
    /// `off_for`, wakes for `on_for`, and repeats until `until`. While
    /// asleep the node behaves like a crashed one (nothing sent, arrivals
    /// suppressed, timers suspended) but its radio and protocol state
    /// survive — a frame spanning a whole sleep window still decodes at
    /// its end if the node is awake by then.
    RadioDutyCycle {
        /// The duty-cycled node.
        node: NodeId,
        /// First sleep instant.
        at: SimTime,
        /// Awake span between sleeps.
        on_for: SimDuration,
        /// Sleep span.
        off_for: SimDuration,
        /// No new sleep window starts at or after this instant.
        until: SimTime,
    },
    /// Chaos hook: panic inside the event loop at `at`. Exercises the
    /// campaign engine's crash isolation; `only_seed` restricts the panic
    /// to one seed of a multi-seed campaign.
    Panic {
        /// Panic instant.
        at: SimTime,
        /// Panic only when the run's seed matches (always when `None`).
        only_seed: Option<u64>,
    },
    /// Chaos hook: from `at` on, perpetually reschedule a zero-progress
    /// event at the current instant. Exercises the event-budget watchdog
    /// (and, with the budget disabled, the wall-clock watchdog);
    /// `only_seed` restricts the storm to one seed of a campaign.
    EventStorm {
        /// Storm start.
        at: SimTime,
        /// Storm only when the run's seed matches (always when `None`).
        only_seed: Option<u64>,
    },
}

impl FaultEvent {
    /// The instant the fault first activates.
    pub fn starts_at(&self) -> SimTime {
        match *self {
            FaultEvent::NodeDown { at, .. }
            | FaultEvent::NodeChurn { at, .. }
            | FaultEvent::RegionBlackout { at, .. }
            | FaultEvent::RadioDutyCycle { at, .. }
            | FaultEvent::Panic { at, .. }
            | FaultEvent::EventStorm { at, .. } => at,
            FaultEvent::FrameCorruption { from, .. } => from,
        }
    }
}

/// The scenario's scheduled faults (empty by default).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled fault events, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a node crash. Chainable.
    pub fn node_down(mut self, node: NodeId, at: SimTime, down_for: SimDuration) -> Self {
        self.events.push(FaultEvent::NodeDown { node, at, down_for });
        self
    }

    /// Adds a frame-corruption window. Chainable.
    pub fn frame_corruption(mut self, prob: f64, from: SimTime, until: SimTime) -> Self {
        self.events.push(FaultEvent::FrameCorruption { prob, from, until });
        self
    }

    /// Adds a crash-and-rejoin churn event. Chainable.
    pub fn node_churn(mut self, node: NodeId, at: SimTime, down_for: SimDuration) -> Self {
        self.events.push(FaultEvent::NodeChurn { node, at, down_for });
        self
    }

    /// Adds a regional blackout. Chainable.
    pub fn region_blackout(mut self, zone: Zone, at: SimTime, down_for: SimDuration) -> Self {
        self.events.push(FaultEvent::RegionBlackout { zone, at, down_for });
        self
    }

    /// Adds a periodic transceiver-sleep schedule. Chainable.
    pub fn radio_duty_cycle(
        mut self,
        node: NodeId,
        at: SimTime,
        on_for: SimDuration,
        off_for: SimDuration,
        until: SimTime,
    ) -> Self {
        self.events.push(FaultEvent::RadioDutyCycle { node, at, on_for, off_for, until });
        self
    }
}

/// Complete description of one simulation run. A `(ScenarioConfig, seed)`
/// pair fully determines the run — mobility, traffic, and every protocol
/// coin flip.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Root RNG seed; vary this across repetitions of the same point.
    pub seed: u64,
    /// The DSR variant under test.
    pub dsr: DsrConfig,
    /// The 802.11 DSSS MAC, whose timing is the constants of `mac::config`.
    pub mac: MacConfig,
    /// The radio's reception threshold (WaveLAN).
    pub radio: RadioConfig,
    /// Node placement and movement.
    pub mobility: MobilitySpec,
    /// CBR workload.
    pub traffic: TrafficConfig,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Node-position snapshot granularity for the radio channel. 50 ms at
    /// 20 m/s is at most one meter of error against a 250 m radio range,
    /// and caps position interpolation cost. It also bounds how long a
    /// link plan lives: who senses a sender, how loudly and how late is
    /// computed once per sender and snapshot, and kept until a snapshot
    /// differs (for the whole run, if nobody moves).
    pub position_refresh: SimDuration,
    /// Scheduled deterministic faults (none by default).
    pub faults: FaultPlan,
}

impl ScenarioConfig {
    /// The paper's scenario: 100 nodes, 2200 m x 600 m, U(0, 20) m/s with
    /// the given pause time, 25 CBR flows at `rate_pps`, 500 s.
    pub fn paper(pause_s: f64, rate_pps: f64, dsr: DsrConfig, seed: u64) -> Self {
        ScenarioConfig {
            seed,
            dsr,
            mac: MacConfig,
            radio: RadioConfig::wavelan(),
            mobility: MobilitySpec::Waypoint(WaypointConfig::paper(SimDuration::from_secs(
                pause_s,
            ))),
            traffic: TrafficConfig::paper(rate_pps),
            duration: SimDuration::from_secs(500.0),
            position_refresh: SimDuration::from_millis(50.0),
            faults: FaultPlan::none(),
        }
    }

    /// A time-compressed variant of the paper's scenario for quick
    /// experiments and CI: the *same* 100-node topology, field, and
    /// workload (so network stress, route lengths, and the relative
    /// behaviour of caching strategies are preserved) but 120 simulated
    /// seconds instead of 500. A smaller network would hit a delivery
    /// ceiling and hide the techniques' effect.
    pub fn quick(pause_s: f64, rate_pps: f64, dsr: DsrConfig, seed: u64) -> Self {
        let mut cfg = ScenarioConfig::paper(pause_s, rate_pps, dsr, seed);
        cfg.mobility = MobilitySpec::Waypoint(WaypointConfig {
            duration: SimDuration::from_secs(120.0),
            ..WaypointConfig::paper(SimDuration::from_secs(pause_s))
        });
        cfg.duration = SimDuration::from_secs(120.0);
        cfg
    }

    /// A genuinely small scenario (20 nodes, short run) for unit tests and
    /// doc examples where wall-clock time matters more than fidelity.
    pub fn tiny(pause_s: f64, rate_pps: f64, dsr: DsrConfig, seed: u64) -> Self {
        let mut cfg = ScenarioConfig::paper(pause_s, rate_pps, dsr, seed);
        cfg.mobility = MobilitySpec::Waypoint(WaypointConfig {
            num_nodes: 20,
            field: Field::new(1000.0, 300.0),
            min_speed: 0.01,
            max_speed: 20.0,
            pause_time: SimDuration::from_secs(pause_s),
            duration: SimDuration::from_secs(30.0),
        });
        cfg.traffic = TrafficConfig {
            num_flows: 5,
            rate_pps,
            packet_bytes: 512,
            start_window: SimDuration::from_secs(3.0),
        };
        cfg.duration = SimDuration::from_secs(30.0);
        cfg
    }

    /// A static chain of `n` nodes `spacing` meters apart with one flow
    /// from the first to the last node — the standard controlled topology
    /// for integration tests.
    pub fn static_line(n: usize, spacing: f64, rate_pps: f64, dsr: DsrConfig, seed: u64) -> Self {
        let positions = (0..n).map(|i| Point::new(i as f64 * spacing, 0.0)).collect();
        ScenarioConfig {
            seed,
            dsr,
            mac: MacConfig,
            radio: RadioConfig::wavelan(),
            mobility: MobilitySpec::Static(positions),
            traffic: TrafficConfig {
                num_flows: 1,
                rate_pps,
                packet_bytes: 512,
                start_window: SimDuration::from_millis(1.0),
            },
            duration: SimDuration::from_secs(30.0),
            position_refresh: SimDuration::from_secs(1.0),
            faults: FaultPlan::none(),
        }
    }

    /// Number of nodes in the scenario.
    pub fn num_nodes(&self) -> usize {
        self.mobility.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_matches_the_paper() {
        let cfg = ScenarioConfig::paper(0.0, 3.0, DsrConfig::base(), 1);
        assert_eq!(cfg.num_nodes(), 100);
        assert_eq!(cfg.duration, SimDuration::from_secs(500.0));
        assert_eq!(cfg.traffic.num_flows, 25);
        assert_eq!(cfg.traffic.packet_bytes, 512);
        let MobilitySpec::Waypoint(w) = &cfg.mobility else { panic!("expected waypoint") };
        assert_eq!(w.field, Field::paper());
        assert_eq!(w.max_speed, 20.0);
    }

    #[test]
    fn quick_scenario_is_smaller() {
        let cfg = ScenarioConfig::quick(0.0, 3.0, DsrConfig::base(), 1);
        assert_eq!(cfg.num_nodes(), 100, "quick keeps the full topology");
        assert!(cfg.duration < SimDuration::from_secs(500.0));
        let tiny = ScenarioConfig::tiny(0.0, 3.0, DsrConfig::base(), 1);
        assert!(tiny.num_nodes() < 100);
    }

    #[test]
    fn region_normalizes_and_contains() {
        let r = Zone::rect(Point::new(500.0, 300.0), Point::new(100.0, 50.0));
        assert_eq!(r, Zone::Rect { min: Point::new(100.0, 50.0), max: Point::new(500.0, 300.0) });
        assert!(r.contains(Point::new(100.0, 50.0)), "boundary inclusive");
        assert!(r.contains(Point::new(300.0, 200.0)));
        assert!(!r.contains(Point::new(99.9, 200.0)));
        assert!(!r.contains(Point::new(300.0, 300.1)));
    }

    #[test]
    fn fault_plan_builders_chain() {
        let rect = Zone::rect(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let zone = Zone::Disc { center: Point::new(50.0, 50.0), radius_m: 30.0 };
        let plan = FaultPlan::none()
            .node_down(NodeId::new(3), SimTime::from_secs(5.0), SimDuration::from_secs(2.0))
            .region_blackout(rect, SimTime::from_secs(1.0), SimDuration::from_secs(4.0))
            .frame_corruption(0.25, SimTime::from_secs(2.0), SimTime::from_secs(8.0))
            .node_churn(NodeId::new(4), SimTime::from_secs(6.0), SimDuration::from_secs(3.0))
            .region_blackout(zone, SimTime::from_secs(7.0), SimDuration::from_secs(1.0))
            .radio_duty_cycle(
                NodeId::new(5),
                SimTime::from_secs(2.0),
                SimDuration::from_secs(1.0),
                SimDuration::from_secs(0.5),
                SimTime::from_secs(20.0),
            );
        assert_eq!(plan.events.len(), 6);
        assert!(!plan.is_empty());
        assert_eq!(plan.events[0].starts_at(), SimTime::from_secs(5.0));
        assert_eq!(plan.events[2].starts_at(), SimTime::from_secs(2.0));
        assert_eq!(plan.events[3].starts_at(), SimTime::from_secs(6.0));
        assert_eq!(plan.events[4].starts_at(), SimTime::from_secs(7.0));
        assert_eq!(plan.events[5].starts_at(), SimTime::from_secs(2.0));
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn zone_contains_disc_and_half_plane() {
        let disc = Zone::Disc { center: Point::new(100.0, 100.0), radius_m: 50.0 };
        assert!(disc.contains(Point::new(100.0, 100.0)));
        assert!(disc.contains(Point::new(150.0, 100.0)), "boundary inclusive");
        assert!(!disc.contains(Point::new(150.1, 100.0)));
        assert!(disc.contains(Point::new(130.0, 130.0)));
        // Everything right of x = 200 (normal points in +x).
        let half = Zone::HalfPlane { origin: Point::new(200.0, 0.0), normal: Point::new(1.0, 0.0) };
        assert!(half.contains(Point::new(200.0, 55.0)), "boundary inclusive");
        assert!(half.contains(Point::new(300.0, -10.0)));
        assert!(!half.contains(Point::new(199.9, 0.0)));
    }

    #[test]
    fn scenarios_default_to_no_faults() {
        assert!(ScenarioConfig::paper(0.0, 3.0, DsrConfig::base(), 1).faults.is_empty());
        assert!(ScenarioConfig::static_line(4, 200.0, 2.0, DsrConfig::base(), 1).faults.is_empty());
    }

    #[test]
    fn static_line_places_nodes() {
        let cfg = ScenarioConfig::static_line(4, 200.0, 2.0, DsrConfig::base(), 1);
        assert_eq!(cfg.num_nodes(), 4);
        let MobilitySpec::Static(p) = &cfg.mobility else { panic!("expected static") };
        assert_eq!(p[3], Point::new(600.0, 0.0));
    }
}
