//! The four workloads: which scenarios each runs and why.
//!
//! Every scenario is the paper's network — 100 nodes on 2200 m × 600 m,
//! 25 CBR flows of 512-byte packets, `ScenarioConfig::paper` radio and MAC
//! — and is a pure function of `(--seed, --seconds)`: the program under
//! test only ever sees the generated `ScenarioConfig`.
//!
//! A workload is a fixed *panel* of scenarios plus one *canary* reseeded
//! from `--seed`. Reseeding a whole workload moves every simulated metric
//! by tens of percent (another topology and flow set is another experiment),
//! which would bury the exact cost counters this benchmark exists to
//! carry. So the panel's seeds are part of the workload's definition, its
//! outputs are checked against committed goldens on every run, and the
//! cost metrics are measured on it alone. The canary — about a twelfth of
//! the simulated time — is the seed-dependent input: it enters the outcome
//! metrics, and its outputs are checked for self-consistency (observed run
//! equals plain run, audit clean) since no golden can exist for an
//! arbitrary seed.

use dsr::DsrConfig;
use mobility::{Point, WaypointConfig};
use runner::{FaultPlan, MobilitySpec, ScenarioConfig, Zone};
use sim_core::{NodeId, SimDuration, SimTime};

/// `--seconds` at which the per-scenario lengths below apply unscaled.
/// Other values scale every scenario by `seconds / REFERENCE_SECONDS`, so
/// the amount of work — and with it every exact metric — is a function of
/// the command line alone, never of how fast the host happens to be.
pub const REFERENCE_SECONDS: f64 = 20.0;

/// Which routing agent a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agent {
    /// `dsr::DsrNode` with the named cache-strategy variant.
    Dsr(Variant),
    /// `aodv::AodvNode` with its default configuration.
    Aodv,
}

/// The paper's five DSR variants, in Table 3 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Base,
    WiderError,
    AdaptiveExpiry,
    NegativeCache,
    Combined,
}

impl Variant {
    pub fn config(self) -> DsrConfig {
        match self {
            Variant::Base => DsrConfig::base(),
            Variant::WiderError => DsrConfig::wider_error(),
            Variant::AdaptiveExpiry => DsrConfig::adaptive_expiry(),
            Variant::NegativeCache => DsrConfig::negative_cache(),
            Variant::Combined => DsrConfig::combined(),
        }
    }
}

/// One simulation run of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable name used in goldens and span files.
    pub label: String,
    pub agent: Agent,
    /// `None` = nobody moves (pause time equals the run length).
    pub pause_s: Option<f64>,
    pub rate_pps: f64,
    pub sim_s: f64,
    pub seed: u64,
    /// Run with every observer on and the fixed fault plan (the
    /// `observed_faulted` workload); `false` is the plain simulator.
    pub observed_faulted: bool,
}

/// One workload's runs for one command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenarios {
    /// The fixed scenarios, in run order; golden-checked.
    pub panel: Vec<Scenario>,
    /// The panel's last agent reseeded with `--seed` (no golden; checked
    /// for self-consistency).
    pub canary: Scenario,
}

impl Scenario {
    /// The scenario with another run length (the warm-up and the tests).
    pub fn with_sim_s(&self, sim_s: f64) -> Scenario {
        Scenario { sim_s, ..self.clone() }
    }

    /// Builds the `ScenarioConfig` the simulator is constructed from.
    pub fn config(&self) -> ScenarioConfig {
        let dsr = match self.agent {
            Agent::Dsr(v) => v.config(),
            // Ignored by `Simulator::with_agents` on the AODV path.
            Agent::Aodv => DsrConfig::base(),
        };
        let duration = SimDuration::from_secs(self.sim_s);
        let pause_s = self.pause_s.unwrap_or(self.sim_s);
        let mut cfg = ScenarioConfig::paper(pause_s, self.rate_pps, dsr, self.seed);
        cfg.mobility = MobilitySpec::Waypoint(WaypointConfig {
            duration,
            ..WaypointConfig::paper(SimDuration::from_secs(pause_s))
        });
        cfg.duration = duration;
        if self.observed_faulted {
            cfg.faults = fault_plan(self.sim_s);
        }
        cfg
    }
}

/// The `observed_faulted` fault plan: every fault kind the public builders
/// offer, at instants fixed as fractions of the run so the plan keeps its
/// shape when `--seconds` rescales the run.
fn fault_plan(sim_s: f64) -> FaultPlan {
    let at = |frac: f64| SimTime::from_secs(sim_s * frac);
    let span = |frac: f64| SimDuration::from_secs(sim_s * frac);
    let node = NodeId::new;
    let mut plan = FaultPlan::none();
    for (n, frac) in [(7, 0.10), (23, 0.30), (41, 0.50), (68, 0.70)] {
        plan = plan.node_churn(node(n), at(frac), span(0.04));
    }
    for (n, frac) in [(12, 0.20), (55, 0.60)] {
        plan = plan.node_down(node(n), at(frac), span(0.06));
    }
    plan = plan.region_blackout(
        Zone::Disc { center: Point::new(1100.0, 300.0), radius_m: 250.0 },
        at(0.40),
        span(0.05),
    );
    plan = plan.frame_corruption(0.05, at(0.75), at(0.90));
    for n in [3, 30, 60, 90] {
        plan = plan.radio_duty_cycle(
            node(n),
            at(0.05),
            SimDuration::from_secs(4.0),
            SimDuration::from_secs(1.0),
            at(0.95),
        );
    }
    plan
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and how. Mirrored in
    /// `BENCHMARK.json`.
    pub why: &'static str,
    /// Simulated seconds per panel scenario at `REFERENCE_SECONDS`, sized
    /// so the timed section takes about that long on the 2-core box the
    /// benchmark was defined on (README, "Time budget").
    panel_sim_s: f64,
    /// The panel: `(label, agent, seed)`, in run order.
    panel: &'static [(&'static str, Agent, u64)],
    /// `None` = nobody moves.
    pause_s: Option<f64>,
    rate_pps: f64,
    observed_faulted: bool,
}

/// The canary's share of the panel's simulated time.
const CANARY_SHARE: f64 = 0.08;

/// Shortest scenario worth running: flows start within the first 10 s.
const MIN_SIM_S: f64 = 20.0;

impl Workload {
    /// The scenarios for `--seed seed --seconds seconds`.
    pub fn scenarios(&self, seed: u64, seconds: f64) -> Scenarios {
        let scale = seconds / REFERENCE_SECONDS;
        // Whole simulated seconds, so lengths print and compare exactly.
        let panel_sim_s = (self.panel_sim_s * scale).round().max(MIN_SIM_S);
        let canary_sim_s =
            (panel_sim_s * self.panel.len() as f64 * CANARY_SHARE).round().max(MIN_SIM_S);
        let scenario = |label: &str, agent, seed, sim_s| Scenario {
            label: label.to_string(),
            agent,
            pause_s: self.pause_s,
            rate_pps: self.rate_pps,
            sim_s,
            seed,
            observed_faulted: self.observed_faulted,
        };
        let (_, canary_agent, _) = self.panel[self.panel.len() - 1];
        Scenarios {
            panel: self
                .panel
                .iter()
                .map(|&(label, agent, seed)| scenario(label, agent, seed, panel_sim_s))
                .collect(),
            canary: scenario("canary", canary_agent, seed, canary_sim_s),
        }
    }
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "mobile_dsr",
        why: "Constant motion, 3 pkt/s, the five paper variants: the route cache is write/invalidate-heavy and the neighbor grid is rebuilt every refresh, so dsr and mobility do most of their work here.",
        panel_sim_s: 60.0,
        panel: &[
            ("base", Agent::Dsr(Variant::Base), 1),
            ("wider_error", Agent::Dsr(Variant::WiderError), 2),
            ("adaptive_expiry", Agent::Dsr(Variant::AdaptiveExpiry), 3),
            ("negative_cache", Agent::Dsr(Variant::NegativeCache), 4),
            ("combined", Agent::Dsr(Variant::Combined), 5),
        ],
        pause_s: Some(0.0),
        rate_pps: 3.0,
        observed_faulted: false,
    },
    Workload {
        name: "static_saturated",
        why: "Nobody moves, 8 pkt/s: mac backoff, phy overlap and queue cancel churn dominate, mobility idles, and the cache is read/dedup-heavy with breaks only from congestion.",
        panel_sim_s: 150.0,
        panel: &[
            ("base", Agent::Dsr(Variant::Base), 1),
            ("combined", Agent::Dsr(Variant::Combined), 2),
        ],
        pause_s: None,
        rate_pps: 8.0,
        observed_faulted: false,
    },
    Workload {
        name: "mobile_aodv",
        why: "mobile_dsr's motion and traffic under AODV agents: bypasses dsr and its caches, so a dsr-only change must read no change while a sim-core/phy/mac/runner change moves it most.",
        panel_sim_s: 240.0,
        panel: &[("aodv1", Agent::Aodv, 1), ("aodv2", Agent::Aodv, 2), ("aodv3", Agent::Aodv, 3)],
        pause_s: Some(0.0),
        rate_pps: 3.0,
        observed_faulted: false,
    },
    Workload {
        name: "observed_faulted",
        why: "The combined variant with every observer on and a fixed fault plan: observer glue, auditor, fault engine and cache rebuilds after state wipes, which the plain workloads never touch.",
        panel_sim_s: 150.0,
        panel: &[("combined", Agent::Dsr(Variant::Combined), 1)],
        pause_s: Some(0.0),
        rate_pps: 3.0,
        observed_faulted: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_seed_and_seconds() {
        for w in &ALL {
            assert_eq!(w.scenarios(3, 20.0), w.scenarios(3, 20.0));
            let (a, b) = (w.scenarios(3, 20.0), w.scenarios(4, 20.0));
            assert_eq!(a.panel, b.panel, "{}: the panel ignores --seed", w.name);
            assert_eq!((a.canary.seed, b.canary.seed), (3, 4));
            assert_ne!(a.canary.config(), b.canary.config());
            assert_eq!(a.canary.config(), a.canary.config());
        }
    }

    #[test]
    fn seconds_scale_every_workload_by_one_factor() {
        for w in &ALL {
            let full = w.scenarios(1, REFERENCE_SECONDS).panel[0].sim_s;
            let half = w.scenarios(1, REFERENCE_SECONDS / 2.0).panel[0].sim_s;
            assert_eq!(full, w.panel_sim_s);
            assert!((half - full / 2.0).abs() <= 0.5, "{}: {half} vs {full}", w.name);
            assert_eq!(w.scenarios(1, 0.001).panel[0].sim_s, MIN_SIM_S, "floor");
        }
    }

    #[test]
    fn the_canary_is_a_small_share_of_the_simulated_time() {
        for w in &ALL {
            let all = w.scenarios(1, REFERENCE_SECONDS);
            let panel: f64 = all.panel.iter().map(|s| s.sim_s).sum();
            let share = all.canary.sim_s / (panel + all.canary.sim_s);
            assert!(all.canary.sim_s >= MIN_SIM_S);
            assert!((0.05..=0.13).contains(&share), "{}: canary share {share}", w.name);
            assert_eq!(all.canary.agent, all.panel.last().unwrap().agent);
        }
    }

    #[test]
    fn workloads_match_their_descriptions() {
        let dsr = by_name("mobile_dsr").unwrap().scenarios(9, REFERENCE_SECONDS).panel;
        assert_eq!(dsr.len(), 5);
        assert_eq!((dsr[4].label.as_str(), dsr[4].seed), ("combined", 5));
        let cfg = dsr[0].config();
        assert_eq!(cfg.num_nodes(), 100);
        assert_eq!(cfg.traffic.num_flows, 25);
        assert_eq!(cfg.traffic.packet_bytes, 512);
        assert!(cfg.faults.is_empty());

        let st = by_name("static_saturated").unwrap().scenarios(9, REFERENCE_SECONDS).panel;
        let cfg = st[0].config();
        let MobilitySpec::Waypoint(w) = &cfg.mobility else { panic!("waypoint") };
        assert_eq!(w.pause_time, cfg.duration, "pause = run length: nobody moves");
        assert_eq!(cfg.traffic.rate_pps, 8.0);

        let aodv = by_name("mobile_aodv").unwrap().scenarios(9, REFERENCE_SECONDS);
        assert!(aodv.panel.iter().all(|s| s.agent == Agent::Aodv));
        assert_eq!(aodv.canary.agent, Agent::Aodv);

        let of = by_name("observed_faulted").unwrap().scenarios(9, REFERENCE_SECONDS);
        assert_eq!(of.panel.len(), 1);
        assert!(of.panel[0].observed_faulted && of.canary.observed_faulted);
        assert_eq!(of.panel[0].config().faults.events.len(), 4 + 2 + 1 + 1 + 4);
        assert!(by_name("nope").is_none());
    }
}
