//! AODV over the full stack: the extension protocol must deliver on the
//! same substrate and scenarios DSR runs on.

use dsr_caching::prelude::*;

fn run_aodv(cfg: ScenarioConfig, aodv: AodvConfig) -> Report {
    let label = aodv.label();
    run_scenario_with(cfg, label, move |node, rng| AodvNode::new(node, aodv.clone(), rng))
}

#[test]
fn aodv_delivers_on_a_static_chain() {
    let cfg = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), 1);
    let r = run_aodv(cfg, AodvConfig::default());
    assert!(r.delivery_fraction > 0.95, "4-hop AODV chain should deliver: {r}");
    assert!(r.discoveries >= 1);
    assert!(r.avg_hops > 3.5, "packets must actually traverse the chain: {r}");
}

#[test]
fn aodv_survives_a_mobile_network() {
    let cfg = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), 4);
    let r = run_aodv(cfg, AodvConfig::default());
    assert!(r.originated > 100);
    assert!(r.delivery_fraction > 0.6, "mobile AODV collapsed: {r}");
}

#[test]
fn aodv_runs_are_deterministic() {
    let mk = || ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), 9);
    let a = run_aodv(mk(), AodvConfig::default());
    let b = run_aodv(mk(), AodvConfig::default());
    assert_eq!(a, b);
}

#[test]
fn disabling_intermediate_replies_still_works() {
    let cfg = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), 4);
    let aodv = AodvConfig { intermediate_replies: false };
    let r = run_aodv(cfg, aodv);
    assert!(r.delivery_fraction > 0.6, "AODV-noIR collapsed: {r}");
    assert_eq!(r.label, "AODV-noIR");
}

#[test]
fn aodv_and_dsr_share_identical_scenarios() {
    // Same seed => same mobility and workload: originated counts match
    // exactly across protocols (the paper's controlled-comparison rule).
    let mk = || ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), 12);
    let dsr = run_scenario(mk());
    let aodv = run_aodv(mk(), AodvConfig::default());
    assert_eq!(dsr.originated, aodv.originated);
}

/// Dispatch order under AODV, pinned from outside the driver (the runner's
/// own `sim/dispatch_order.rs` tape cannot reach a protocol that lives
/// above it): the instant and count of every heartbeat pulse, every trace
/// event in emission order, and the profile's dispatch ledger by kind.
/// Recorded at the last commit whose queue held one key per arrival
/// boundary, and re-pinned (from `0x957d_0f13_092f_7c47`) once the
/// profile stopped counting the event that overran the horizon as
/// dispatched; a front that delivers out of turn, or books a delivery it
/// did not make, moves it.
#[test]
fn aodv_dispatch_order_matches_the_pinned_digest() {
    use std::sync::{Arc, Mutex};

    fn fold(h: &Mutex<u64>, words: &[u64]) {
        let mut h = h.lock().expect("digest");
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    let cfg = ScenarioConfig::tiny(0.0, 8.0, DsrConfig::base(), 3);
    let aodv = AodvConfig::default();
    let mut sim = Simulator::with_agents(cfg, aodv.label(), move |n, rng| {
        AodvNode::new(n, aodv.clone(), rng)
    });
    let digest = Arc::new(Mutex::new(0xcbf2_9ce4_8422_2325u64));
    let pulses = Arc::new(Mutex::new(0u64));
    let (d, p) = (Arc::clone(&digest), Arc::clone(&pulses));
    sim.set_heartbeat(Box::new(move |tick| {
        fold(&d, &[tick.now.as_nanos(), tick.events]);
        *p.lock().expect("pulses") += 1;
    }));
    let d = Arc::clone(&digest);
    sim.set_trace(Box::new(move |ev| {
        fold(&d, &[ev.at.as_nanos(), u64::from(ev.node.index() as u16)]);
    }));
    let d = Arc::clone(&digest);
    sim.set_obs(
        SimDuration::from_secs(1.0),
        Box::new(move |seen| {
            let p = &seen.profile;
            fold(&d, &[p.dispatched, p.scheduled, p.cancelled, p.postponed, p.rekeyed]);
            for kind in &p.kinds {
                fold(&d, &[kind.name.len() as u64, kind.count]);
            }
        }),
    );
    let report = sim.try_run().expect("clean run");
    let pulses = *pulses.lock().expect("pulses");
    assert!(report.delivered > 0 && pulses >= 20, "{pulses} pulses\n{report}");
    let digest = *digest.lock().expect("digest");
    assert_eq!(digest, 0xb650_4d9c_75cc_bec5, "re-pin only with a behaviour change");
}
