//! CBR (constant bit-rate) traffic generation.
//!
//! The paper's workload: 25 source-destination pairs spread randomly over
//! the network, 512-byte packets, a configurable per-flow sending rate, all
//! sessions starting at random times near the beginning of the run and
//! staying active until the end.

#![warn(unreachable_pub)]

use sim_core::rng::uniform;
use sim_core::{NodeId, RngFactory, SimDuration, SimTime};

/// One constant-rate unicast flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbrFlow {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// First packet departs at this instant.
    pub start: SimTime,
    /// Gap between consecutive packets (`1 / rate`).
    pub interval: SimDuration,
    /// Application payload per packet in bytes.
    pub packet_bytes: usize,
}

impl CbrFlow {
    /// Departure time of the `k`-th packet (0-based).
    pub fn send_time(&self, k: u64) -> SimTime {
        self.start + self.interval * k
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of concurrent flows (paper: 25).
    pub num_flows: usize,
    /// Packets per second per flow (paper sweeps this; 3 pkt/s baseline).
    pub rate_pps: f64,
    /// Payload bytes per packet (paper: 512).
    pub packet_bytes: usize,
    /// Sessions start uniformly at random within `[0, start_window]`.
    pub start_window: SimDuration,
}

impl TrafficConfig {
    /// The paper's workload at the given per-flow rate.
    pub fn paper(rate_pps: f64) -> Self {
        TrafficConfig {
            num_flows: 25,
            rate_pps,
            packet_bytes: 512,
            start_window: SimDuration::from_secs(10.0),
        }
    }

    /// Aggregate offered load in kilobits per second.
    pub fn offered_load_kbps(&self) -> f64 {
        self.num_flows as f64 * self.rate_pps * self.packet_bytes as f64 * 8.0 / 1_000.0
    }
}

/// Draws `cfg.num_flows` random source-destination pairs (distinct nodes,
/// no duplicate pairs) with jittered session starts, from the `"traffic"`
/// RNG stream of `factory`.
///
/// # Panics
///
/// Panics if fewer than two nodes exist, the rate is not positive, or more
/// flows are requested than distinct ordered pairs exist.
pub fn generate_flows(num_nodes: usize, cfg: &TrafficConfig, factory: RngFactory) -> Vec<CbrFlow> {
    assert!(num_nodes >= 2, "traffic needs at least two nodes");
    assert!(cfg.rate_pps > 0.0 && cfg.rate_pps.is_finite(), "invalid rate {}", cfg.rate_pps);
    let max_pairs = num_nodes * (num_nodes - 1);
    assert!(
        cfg.num_flows <= max_pairs,
        "cannot draw {} distinct pairs from {num_nodes} nodes",
        cfg.num_flows
    );

    let mut rng = factory.stream("traffic", 0);
    let interval = SimDuration::from_secs(1.0 / cfg.rate_pps);
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(cfg.num_flows);
    while pairs.len() < cfg.num_flows {
        let src = NodeId::new(rng.random_range(0..num_nodes as u16));
        let dst = NodeId::new(rng.random_range(0..num_nodes as u16));
        if src != dst && !pairs.contains(&(src, dst)) {
            pairs.push((src, dst));
        }
    }
    pairs
        .into_iter()
        .map(|(src, dst)| CbrFlow {
            src,
            dst,
            start: SimTime::from_secs(uniform(&mut rng, 0.0, cfg.start_window.as_secs().max(1e-9))),
            interval,
            packet_bytes: cfg.packet_bytes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_have_distinct_valid_pairs() {
        let cfg = TrafficConfig::paper(3.0);
        let flows = generate_flows(100, &cfg, RngFactory::new(1));
        assert_eq!(flows.len(), 25);
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.src.index() < 100 && f.dst.index() < 100);
        }
        let mut pairs: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 25, "pairs must be distinct");
    }

    #[test]
    fn same_seed_same_workload() {
        let cfg = TrafficConfig::paper(3.0);
        let a = generate_flows(50, &cfg, RngFactory::new(7));
        let b = generate_flows(50, &cfg, RngFactory::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn starts_fall_in_window() {
        let cfg = TrafficConfig::paper(3.0);
        for f in generate_flows(100, &cfg, RngFactory::new(3)) {
            assert!(f.start <= SimTime::from_secs(10.0));
        }
    }

    #[test]
    fn send_times_are_periodic() {
        let f = CbrFlow {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            start: SimTime::from_secs(2.0),
            interval: SimDuration::from_millis(250.0),
            packet_bytes: 512,
        };
        assert_eq!(f.send_time(0), SimTime::from_secs(2.0));
        assert_eq!(f.send_time(4), SimTime::from_secs(3.0));
    }

    #[test]
    fn offered_load_matches_arithmetic() {
        let cfg = TrafficConfig::paper(3.0);
        // 25 flows * 3 pkt/s * 512 B * 8 = 307.2 kb/s.
        assert!((cfg.offered_load_kbps() - 307.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        let _ = generate_flows(1, &TrafficConfig::paper(1.0), RngFactory::new(0));
    }
}
