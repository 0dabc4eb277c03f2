//! Fault injection and crash-isolated campaigns: crash a relay mid-run,
//! black out a region, corrupt frames in a window — then run a multi-seed
//! campaign in which one seed is rigged to panic and watch the engine
//! return every other seed's report anyway.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use dsr_caching::mobility::Point;
use dsr_caching::prelude::*;

fn main() {
    // A 5-node static chain: 0 -- 1 -- 2 -- 3 -- 4, one CBR flow. Seed 1's
    // flow crosses the whole chain, so node 2 is a load-bearing relay.
    let chain = |seed| {
        let mut cfg = ScenarioConfig::static_line(5, 200.0, 2.0, DsrConfig::base(), seed);
        cfg.duration = SimDuration::from_secs(20.0);
        cfg
    };

    println!("baseline (no faults):");
    let baseline = run_scenario(chain(1));
    println!("{baseline}\n");

    // Crash the middle relay at t=5 s for 5 s, black out the first hop's
    // neighborhood at t=12 s, and corrupt 30% of frames between 15-18 s.
    let mut faulted = chain(1);
    faulted.faults = FaultPlan::none()
        .node_down(NodeId::new(2), SimTime::from_secs(5.0), SimDuration::from_secs(5.0))
        .region_blackout(
            Zone::rect(Point::new(-50.0, -50.0), Point::new(250.0, 50.0)),
            SimTime::from_secs(12.0),
            SimDuration::from_secs(2.0),
        )
        .frame_corruption(0.3, SimTime::from_secs(15.0), SimTime::from_secs(18.0));

    println!("with the fault plan (relay crash + blackout + corruption):");
    let report = run_scenario(faulted);
    println!("{report}\n");
    println!(
        "the outage shows up as link breaks ({}), route errors ({}), and lost deliveries\n",
        report.link_breaks, report.errors_sent
    );

    // Campaigns isolate per-seed disasters: seed 2 is rigged to panic, but
    // seeds 1 and 3 still report, and the failure arrives as data.
    let mut rigged = chain(0);
    rigged.faults = FaultPlan {
        events: vec![FaultEvent::Panic { at: SimTime::from_secs(5.0), only_seed: Some(2) }],
    };
    println!("(the panic message below is deliberate — the campaign absorbs it)\n");
    let result = run_campaign(&rigged, &[1, 2, 3], &CampaignConfig::default());
    println!(
        "campaign over seeds [1, 2, 3] with seed 2 rigged to panic: {} reports, {} failure(s)",
        result.reports.len(),
        result.failures.len()
    );
    println!("failure record: {}", result.failure_summary());
    let mean = result.mean().expect("surviving seeds still average");
    println!("\nmean over the surviving seeds:\n{mean}");
}
