//! Scenario-level reference: a pinned digest of the full `Report` for a
//! dozen tiny scenarios — clean runs, every fault kind on its own, and all
//! of them overlapping. The digests were recorded at the last commit that
//! still carried the paired start/end arrival-event engine, where each of
//! these scenarios was asserted byte-identical on both engines, so they
//! stand in for the second engine: any change to event order, tie-breaks,
//! RNG draws or fault gating moves at least one of them. A `Report` field
//! removed since was cut from the recorded `{:?}` form, and nothing else:
//! each digest was re-pinned from its previous commit's form with exactly
//! that field deleted, so every value still digests as first recorded.
//!
//! A mismatch prints the whole `Report`. Re-pin a digest only in a change
//! that means to alter simulated behaviour, and say so in that change.

use dsr::DsrConfig;
use mobility::Point;
use runner::{FaultPlan, ScenarioConfig, Simulator, Zone};
use sim_core::hash::{fnv1a, FNV_OFFSET};
use sim_core::{NodeId, SimDuration, SimTime};

fn mobile(seed: u64, rate_pps: f64) -> ScenarioConfig {
    ScenarioConfig::tiny(0.0, rate_pps, DsrConfig::base(), seed)
}

fn faulted(seed: u64, faults: FaultPlan) -> ScenarioConfig {
    ScenarioConfig { faults, ..mobile(seed, 2.0) }
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: f64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Zone {
    Zone::rect(Point::new(x0, y0), Point::new(x1, y1))
}

fn disc(x: f64, y: f64, radius_m: f64) -> Zone {
    Zone::Disc { center: Point::new(x, y), radius_m }
}

fn scenarios() -> Vec<(&'static str, ScenarioConfig, u64)> {
    let plan = FaultPlan::none;
    let n = NodeId::new;
    let east_of_150 =
        Zone::HalfPlane { origin: Point::new(150.0, 0.0), normal: Point::new(1.0, 0.0) };
    let chain = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), 11);
    let combined = ScenarioConfig::tiny(30.0, 4.0, DsrConfig::combined(), 3);
    let node_down = plan().node_down(n(3), secs(10.0), dur(5.0));
    let corruption = plan().frame_corruption(0.3, secs(5.0), secs(40.0));
    let rect_blackout = plan().region_blackout(rect(0.0, 0.0, 300.0, 300.0), secs(8.0), dur(10.0));
    let churn = plan().node_churn(n(2), secs(6.0), dur(4.0)).node_churn(n(9), secs(20.0), dur(8.0));
    let region_blackout = plan()
        .region_blackout(disc(150.0, 150.0, 120.0), secs(10.0), dur(6.0))
        .region_blackout(east_of_150, secs(25.0), dur(5.0));
    let duty_cycle = plan().radio_duty_cycle(n(4), secs(5.0), dur(2.0), dur(1.0), secs(45.0));
    let storm = plan()
        .frame_corruption(0.15, secs(2.0), secs(50.0))
        .node_down(n(1), secs(12.0), dur(3.0))
        .node_churn(n(6), secs(15.0), dur(5.0))
        .region_blackout(disc(100.0, 200.0, 90.0), secs(18.0), dur(7.0))
        .radio_duty_cycle(n(12), secs(4.0), dur(3.0), dur(2.0), secs(40.0))
        .region_blackout(rect(200.0, 0.0, 300.0, 300.0), secs(30.0), dur(4.0));
    vec![
        // 20 mobile nodes under constant motion: capture contests,
        // collisions and carrier-reactive backoff freezes throughout.
        ("mobile_seed1", mobile(1, 2.0), 0xcbbd_352c_876e_713c),
        ("mobile_seed7", mobile(7, 2.0), 0x5ae6_b3e8_b710_71d5),
        ("mobile_seed42", mobile(42, 2.0), 0x13b0_6869_1eaf_0ec2),
        // A 5-node line: hidden terminals produce sub-RX interference that
        // only the envelope folds, and the end nodes sit in different grid
        // cells.
        ("static_chain", chain, 0xc258_bb75_0997_de86),
        // Another cache policy and control-traffic mix.
        ("combined_pause30", combined, 0x81cb_d77b_2b62_6aa1),
        // Saturated medium: MACs stay carrier-reactive, so lazy boundaries
        // are handed back to the event queue constantly.
        ("saturated_seed2", mobile(2, 6.0), 0x53a4_7ade_bb2f_67d7),
        ("saturated_seed9", mobile(9, 6.0), 0xdf4f_b93e_c626_7dc5),
        // One fault kind each, then every kind at once, overlapping.
        ("node_down", faulted(5, node_down), 0xef4a_d322_4dcd_2f08),
        ("frame_corruption", faulted(6, corruption), 0xc472_1ba0_93bf_90cd),
        ("rect_blackout", faulted(7, rect_blackout), 0xa613_9516_8e1a_708d),
        ("node_churn", faulted(8, churn), 0x7a7a_74d9_429f_e186),
        ("region_blackout", faulted(9, region_blackout), 0x3974_9052_0755_8140),
        ("radio_duty_cycle", faulted(10, duty_cycle), 0xd4cd_6cd8_154c_8130),
        ("mixed_fault_storm", faulted(11, storm), 0x70af_89dd_cebc_ca98),
    ]
}

#[test]
fn reports_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, cfg, expected) in scenarios() {
        let report = Simulator::new(cfg).run();
        let got = fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes());
        if got != expected {
            mismatches
                .push(format!("{name}: digest {got:#018x}, pinned {expected:#018x}\n{report:#?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n\n"));
}
