//! Ground-truth connectivity oracle.
//!
//! The paper's cache-quality metrics (*percentage of good replies*,
//! *percentage of invalid cached routes*) require knowing whether a route is
//! *actually* valid at the instant it is used — something only the
//! simulator, not the protocol, can know. The oracle answers that from the
//! mobility model and the nominal radio range, exactly as ns-2
//! post-processing scripts do.

use std::sync::Arc;

use sim_core::{NodeId, SimTime};

use crate::model::MobilityModel;

/// Answers "is this link / route physically up right now?" from ground
/// truth.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobility::{LinkOracle, StaticPositions};
/// use sim_core::{NodeId, SimTime};
///
/// let m = Arc::new(StaticPositions::line(3, 200.0));
/// let oracle = LinkOracle::new(m, 250.0);
/// let t = SimTime::ZERO;
/// assert!(oracle.link_up(NodeId::new(0), NodeId::new(1), t));   // 200 m
/// assert!(!oracle.link_up(NodeId::new(0), NodeId::new(2), t));  // 400 m
/// ```
#[derive(Clone)]
pub struct LinkOracle {
    model: Arc<dyn MobilityModel>,
    range_sq: f64,
}

impl std::fmt::Debug for LinkOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkOracle")
            .field("range", &self.range_sq.sqrt())
            .field("nodes", &self.model.num_nodes())
            .finish()
    }
}

impl LinkOracle {
    /// Creates an oracle over `model` with the given nominal radio `range`
    /// in meters (paper: 250 m).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not positive and finite.
    pub fn new(model: Arc<dyn MobilityModel>, range: f64) -> Self {
        assert!(range.is_finite() && range > 0.0, "invalid radio range {range}");
        LinkOracle { model, range_sq: range * range }
    }

    /// Whether `a` and `b` are within radio range of each other at `t`.
    pub fn link_up(&self, a: NodeId, b: NodeId, t: SimTime) -> bool {
        if a == b {
            return true;
        }
        let pa = self.model.position(a, t);
        let pb = self.model.position(b, t);
        pa.distance_sq(pb) <= self.range_sq
    }

    /// Whether every consecutive hop of `route` is up at `t`.
    ///
    /// An empty or single-node route is trivially valid.
    pub fn route_valid(&self, route: &[NodeId], t: SimTime) -> bool {
        route.windows(2).all(|w| self.link_up(w[0], w[1], t))
    }

    /// All neighbors of `node` at `t` (ground truth, index order).
    pub fn neighbors(&self, node: NodeId, t: SimTime) -> Vec<NodeId> {
        (0..self.model.num_nodes() as u16)
            .map(NodeId::new)
            .filter(|&other| other != node && self.link_up(node, other, t))
            .collect()
    }

    /// The underlying mobility model.
    pub fn model(&self) -> &Arc<dyn MobilityModel> {
        &self.model
    }
}

/// Aggregate link-dynamics statistics for a scenario, obtained by sampling
/// connectivity at a fixed period. Used to sanity-check scenarios ("pause 0
/// really does break links frequently") and by the examples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkStats {
    /// Total number of link-down transitions observed across all pairs.
    pub breaks: usize,
    /// Total number of link-up transitions observed across all pairs.
    pub formations: usize,
    /// Mean lifetime, in seconds, of links that both formed and broke
    /// within the observation window.
    pub mean_lifetime_secs: f64,
    /// Mean number of neighbors per node per sample.
    pub mean_degree: f64,
}

/// Samples connectivity every `step` seconds over `[0, duration]` and
/// reports link-dynamics statistics.
///
/// # Panics
///
/// Panics if `step` is not positive and finite.
pub fn sample_link_stats(oracle: &LinkOracle, duration: SimTime, step: f64) -> LinkStats {
    assert!(step.is_finite() && step > 0.0, "invalid sampling step {step}");
    let n = oracle.model.num_nodes();
    let mut up_since: Vec<Option<f64>> = vec![None; n * n];
    let mut stats = LinkStats::default();
    let mut lifetimes: Vec<f64> = Vec::new();
    let mut degree_sum = 0usize;
    let mut samples = 0usize;

    let mut t = 0.0;
    while t <= duration.as_secs() {
        let at = SimTime::from_secs(t);
        let snapshot = oracle.model.snapshot(at);
        for i in 0..n {
            for j in (i + 1)..n {
                let up = snapshot[i].distance_sq(snapshot[j]) <= oracle.range_sq;
                let slot = &mut up_since[i * n + j];
                match (up, slot.is_some()) {
                    (true, false) => {
                        *slot = Some(t);
                        if t > 0.0 {
                            stats.formations += 1;
                        }
                        degree_sum += 2;
                    }
                    (false, true) => {
                        let since = slot.take().expect("slot checked to be Some");
                        if since > 0.0 {
                            lifetimes.push(t - since);
                        }
                        stats.breaks += 1;
                    }
                    (true, true) => degree_sum += 2,
                    (false, false) => {}
                }
            }
        }
        samples += 1;
        t += step;
    }

    if !lifetimes.is_empty() {
        stats.mean_lifetime_secs = lifetimes.iter().sum::<f64>() / lifetimes.len() as f64;
    }
    if samples > 0 && n > 0 {
        stats.mean_degree = degree_sum as f64 / (samples * n) as f64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StaticPositions;
    use crate::waypoint::{RandomWaypoint, WaypointConfig};
    use crate::Field;
    use sim_core::{RngFactory, SimDuration};

    fn line_oracle() -> LinkOracle {
        LinkOracle::new(Arc::new(StaticPositions::line(5, 200.0)), 250.0)
    }

    #[test]
    fn adjacent_hops_up_distant_down() {
        let o = line_oracle();
        let t = SimTime::ZERO;
        assert!(o.link_up(NodeId::new(1), NodeId::new(2), t));
        assert!(!o.link_up(NodeId::new(0), NodeId::new(3), t));
    }

    #[test]
    fn self_link_is_up() {
        let o = line_oracle();
        assert!(o.link_up(NodeId::new(2), NodeId::new(2), SimTime::ZERO));
    }

    #[test]
    fn route_validity_along_chain() {
        let o = line_oracle();
        let t = SimTime::ZERO;
        let good: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        assert!(o.route_valid(&good, t));
        let bad = [NodeId::new(0), NodeId::new(2), NodeId::new(3)];
        assert!(!o.route_valid(&bad, t));
    }

    #[test]
    fn trivial_routes_are_valid() {
        let o = line_oracle();
        assert!(o.route_valid(&[], SimTime::ZERO));
        assert!(o.route_valid(&[NodeId::new(3)], SimTime::ZERO));
    }

    #[test]
    fn neighbors_of_interior_node() {
        let o = line_oracle();
        let nb = o.neighbors(NodeId::new(2), SimTime::ZERO);
        assert_eq!(nb, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn static_scenario_has_no_breaks() {
        let o = line_oracle();
        let stats = sample_link_stats(&o, SimTime::from_secs(20.0), 1.0);
        assert_eq!(stats.breaks, 0);
        assert_eq!(stats.formations, 0);
        assert!(stats.mean_degree > 0.0);
    }

    #[test]
    fn mobile_scenario_breaks_links() {
        let cfg = WaypointConfig {
            num_nodes: 25,
            field: Field::new(1200.0, 400.0),
            min_speed: 5.0,
            max_speed: 20.0,
            pause_time: SimDuration::ZERO,
            duration: SimDuration::from_secs(120.0),
        };
        let model = Arc::new(RandomWaypoint::generate(&cfg, RngFactory::new(21)));
        let o = LinkOracle::new(model, 250.0);
        let stats = sample_link_stats(&o, SimTime::from_secs(120.0), 1.0);
        assert!(stats.breaks > 10, "expected frequent breaks, saw {}", stats.breaks);
        assert!(stats.mean_lifetime_secs > 0.0);
    }
}
