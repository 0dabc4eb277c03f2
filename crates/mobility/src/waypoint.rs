//! The random waypoint mobility model.
//!
//! Each node begins at a uniformly random position, pauses for the
//! configured *pause time*, then travels in a straight line to a uniformly
//! random destination at a speed drawn uniformly from the configured range;
//! on arrival it pauses again, and so on. This is the CMU Monarch model used
//! by the paper: pause time 0 s means constant motion, a pause time equal to
//! the run length means a static network.
//!
//! The whole itinerary is generated at construction from a seeded RNG
//! stream, and positions are interpolated on demand in O(log legs) with no
//! per-tick events. This keeps the model *pure* (see
//! [`crate::model::MobilityModel`]) and identical across protocol
//! variants, as the evaluation methodology requires.

use sim_core::rng::uniform;
use sim_core::{NodeId, RngFactory, SimDuration, SimRng, SimTime};

use crate::geom::{Field, Point};
use crate::model::MobilityModel;

/// Parameters of a random waypoint scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WaypointConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// The rectangular field nodes roam in.
    pub field: Field,
    /// Minimum travel speed in m/s. Must be positive: a literal 0 m/s leg
    /// would never terminate. The paper samples U(0, 20); we default to
    /// 0.01 m/s which is indistinguishable from 0 over a 500 s run.
    pub min_speed: f64,
    /// Maximum travel speed in m/s (paper: 20 m/s).
    pub max_speed: f64,
    /// Pause at each waypoint (paper: swept 0..500 s).
    pub pause_time: SimDuration,
    /// Itinerary horizon: positions are defined for `t` in `[0, duration]`.
    /// Queries beyond the horizon freeze nodes at their last position.
    pub duration: SimDuration,
}

impl WaypointConfig {
    /// The paper's scenario: 100 nodes, 2200 m x 600 m, U(0, 20) m/s,
    /// 500 simulated seconds, with the given pause time.
    pub fn paper(pause_time: SimDuration) -> Self {
        WaypointConfig {
            num_nodes: 100,
            field: Field::paper(),
            min_speed: 0.01,
            max_speed: 20.0,
            pause_time,
            duration: SimDuration::from_secs(500.0),
        }
    }

    fn validate(&self) {
        assert!(self.num_nodes > 0, "a scenario needs at least one node");
        assert!(
            self.min_speed > 0.0 && self.min_speed <= self.max_speed,
            "invalid speed range [{}, {}]",
            self.min_speed,
            self.max_speed
        );
        assert!(self.duration > SimDuration::ZERO, "empty scenario duration");
    }
}

/// One straight-line trip: pause at `from` during `[start, depart)`, then
/// move to `to`, arriving at `arrive`.
#[derive(Debug, Clone, Copy)]
struct Leg {
    start: SimTime,
    depart: SimTime,
    arrive: SimTime,
    from: Point,
    to: Point,
}

impl Leg {
    fn position(&self, t: SimTime) -> Point {
        if t <= self.depart {
            return self.from;
        }
        if t >= self.arrive {
            return self.to;
        }
        let travelled = (t - self.depart).as_secs();
        let total = (self.arrive - self.depart).as_secs();
        self.from.lerp(self.to, travelled / total)
    }
}

/// A fully materialized random waypoint scenario.
///
/// # Example
///
/// ```
/// use mobility::{RandomWaypoint, WaypointConfig, MobilityModel, Field};
/// use sim_core::{RngFactory, NodeId, SimTime, SimDuration};
///
/// let cfg = WaypointConfig {
///     num_nodes: 10,
///     field: Field::new(1000.0, 300.0),
///     min_speed: 0.5,
///     max_speed: 20.0,
///     pause_time: SimDuration::from_secs(30.0),
///     duration: SimDuration::from_secs(100.0),
/// };
/// let m = RandomWaypoint::generate(&cfg, RngFactory::new(1));
/// let p = m.position(NodeId::new(0), SimTime::from_secs(42.0));
/// assert!(m.field().contains(p));
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    legs: Vec<Vec<Leg>>,
    field: Field,
}

impl RandomWaypoint {
    /// Generates a scenario from the `"mobility"` RNG streams of `factory`.
    ///
    /// The same `(config, factory)` pair always yields the same scenario,
    /// independent of any other randomness consumed elsewhere in a
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero nodes, empty duration,
    /// or a non-positive speed range).
    pub fn generate(config: &WaypointConfig, factory: RngFactory) -> Self {
        config.validate();
        let horizon = SimTime::ZERO + config.duration;
        let legs = (0..config.num_nodes)
            .map(|i| {
                let mut rng = factory.stream("mobility", i as u64);
                Self::itinerary(config, horizon, &mut rng)
            })
            .collect();
        RandomWaypoint { legs, field: config.field }
    }

    fn itinerary(config: &WaypointConfig, horizon: SimTime, rng: &mut SimRng) -> Vec<Leg> {
        let mut legs = Vec::new();
        let mut now = SimTime::ZERO;
        let mut here = random_point(config.field, rng);
        while now < horizon {
            let depart = now + config.pause_time;
            let to = random_point(config.field, rng);
            let speed = uniform(rng, config.min_speed, config.max_speed);
            let travel = SimDuration::from_secs(here.distance(to) / speed);
            let arrive = depart + travel;
            legs.push(Leg { start: now, depart, arrive, from: here, to });
            here = to;
            now = arrive;
        }
        legs
    }
}

fn random_point(field: Field, rng: &mut SimRng) -> Point {
    Point::new(uniform(rng, 0.0, field.width), uniform(rng, 0.0, field.height))
}

impl MobilityModel for RandomWaypoint {
    fn num_nodes(&self) -> usize {
        self.legs.len()
    }

    fn position(&self, node: NodeId, t: SimTime) -> Point {
        let legs = &self.legs[node.index()];
        // Find the last leg starting at or before `t`.
        let idx = legs.partition_point(|leg| leg.start <= t);
        let leg = &legs[idx.saturating_sub(1)];
        leg.position(t)
    }

    fn field(&self) -> Field {
        self.field
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WaypointConfig {
        WaypointConfig {
            num_nodes: 20,
            field: Field::new(1000.0, 400.0),
            min_speed: 0.5,
            max_speed: 20.0,
            pause_time: SimDuration::from_secs(5.0),
            duration: SimDuration::from_secs(200.0),
        }
    }

    #[test]
    fn positions_stay_in_field() {
        let cfg = small_config();
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(11));
        for node in 0..cfg.num_nodes as u16 {
            for step in 0..400 {
                let t = SimTime::from_secs(step as f64 * 0.5);
                let p = m.position(NodeId::new(node), t);
                assert!(cfg.field.contains(p), "node {node} left the field at {t}: {p}");
            }
        }
    }

    #[test]
    fn same_seed_reproduces_scenario() {
        let cfg = small_config();
        let a = RandomWaypoint::generate(&cfg, RngFactory::new(5));
        let b = RandomWaypoint::generate(&cfg, RngFactory::new(5));
        for node in 0..cfg.num_nodes as u16 {
            for step in 0..50 {
                let t = SimTime::from_secs(step as f64 * 3.7);
                assert_eq!(a.position(NodeId::new(node), t), b.position(NodeId::new(node), t));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_config();
        let a = RandomWaypoint::generate(&cfg, RngFactory::new(5));
        let b = RandomWaypoint::generate(&cfg, RngFactory::new(6));
        let t = SimTime::from_secs(10.0);
        let moved = (0..cfg.num_nodes as u16)
            .any(|n| a.position(NodeId::new(n), t) != b.position(NodeId::new(n), t));
        assert!(moved);
    }

    #[test]
    fn long_pause_means_static_network() {
        let mut cfg = small_config();
        cfg.pause_time = cfg.duration; // paper's "pause 500 in a 500 s run"
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(9));
        for node in 0..cfg.num_nodes as u16 {
            let p0 = m.position(NodeId::new(node), SimTime::ZERO);
            let p1 = m.position(NodeId::new(node), SimTime::ZERO + cfg.duration);
            assert_eq!(p0, p1, "node {node} moved despite full-run pause");
        }
    }

    /// What the driver's link plans rest on at the static end of the
    /// paper's pause-time axis: with the pause as long as the run, every
    /// snapshot the driver takes (one per 50 ms `position_refresh`) is the
    /// first one to the last bit — not merely within a rounding error of it.
    #[test]
    fn a_full_run_pause_gives_bit_identical_snapshots_at_every_refresh() {
        let cfg = WaypointConfig::paper(SimDuration::from_secs(500.0));
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(1));
        let bits = |snap: &[Point]| -> Vec<(u64, u64)> {
            snap.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        let first = bits(&m.snapshot(SimTime::ZERO));
        let mut snap = Vec::new();
        for refresh in 1..=10_000u64 {
            m.snapshot_into(SimTime::from_nanos(refresh * 50_000_000), &mut snap);
            assert_eq!(bits(&snap), first, "refresh {refresh}");
        }
    }

    #[test]
    fn zero_pause_moves_immediately() {
        let mut cfg = small_config();
        cfg.pause_time = SimDuration::ZERO;
        cfg.min_speed = 5.0; // guarantee measurable displacement
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(2));
        let mut any_moved = false;
        for node in 0..cfg.num_nodes as u16 {
            let p0 = m.position(NodeId::new(node), SimTime::ZERO);
            let p1 = m.position(NodeId::new(node), SimTime::from_secs(5.0));
            if p0.distance(p1) > 1.0 {
                any_moved = true;
            }
        }
        assert!(any_moved, "no node moved in 5s at >=5 m/s with zero pause");
    }

    #[test]
    fn movement_speed_within_bounds() {
        let cfg = small_config();
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(13));
        let dt = 0.1;
        for node in 0..cfg.num_nodes as u16 {
            for step in 0..500 {
                let t0 = SimTime::from_secs(step as f64 * dt);
                let t1 = SimTime::from_secs((step + 1) as f64 * dt);
                let d =
                    m.position(NodeId::new(node), t0).distance(m.position(NodeId::new(node), t1));
                // Allow tiny numeric slack; a waypoint turn within the window
                // can only *reduce* apparent displacement.
                assert!(d <= cfg.max_speed * dt + 1e-6, "node {node} moved {d} m in {dt} s");
            }
        }
    }

    #[test]
    fn queries_beyond_horizon_freeze() {
        let cfg = small_config();
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(3));
        let end = SimTime::ZERO + cfg.duration;
        let far = end + SimDuration::from_secs(1_000.0);
        for node in 0..cfg.num_nodes as u16 {
            let p_end = m.position(NodeId::new(node), far);
            assert!(cfg.field.contains(p_end));
        }
    }

    #[test]
    fn initial_pause_holds_start_position() {
        let cfg = small_config(); // 5 s pause
        let m = RandomWaypoint::generate(&cfg, RngFactory::new(7));
        for node in 0..cfg.num_nodes as u16 {
            let p0 = m.position(NodeId::new(node), SimTime::ZERO);
            let p1 = m.position(NodeId::new(node), SimTime::from_secs(4.9));
            assert_eq!(p0, p1);
        }
    }
}
