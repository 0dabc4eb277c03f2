//! Delivery-over-time view: how base DSR and DSR-C track the offered load
//! through a mobile run, 10 seconds at a time, from the cumulative
//! `originated` and `delivered` columns of the obs time series.
//! Stale-cache episodes show up as delivery dips that DSR-C smooths out.
//!
//! ```sh
//! cargo run --release --example delivery_timeline
//! ```

use dsr_caching::prelude::*;

fn main() {
    println!("delivery per 10 s interval, 20-node mobile scenario (pause 0, 2 pkt/s)\n");

    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    for dsr in [DsrConfig::base(), DsrConfig::combined()] {
        let label = dsr.label();
        let mut cfg = ScenarioConfig::tiny(0.0, 2.0, dsr, 5);
        cfg.duration = SimDuration::from_secs(60.0);
        if let MobilitySpec::Waypoint(w) = &mut cfg.mobility {
            w.duration = SimDuration::from_secs(60.0);
        }
        let (report, observation) = Simulator::new(cfg).run_sampled(SimDuration::from_secs(10.0));
        let pct = |(_, originated, delivered): (f64, u64, u64)| {
            if originated == 0 {
                0.0
            } else {
                100.0 * delivered as f64 / originated as f64
            }
        };
        columns.push((
            label,
            observation.timeseries.delivery_by_interval().into_iter().map(pct).collect(),
        ));
        println!("{report}\n");
    }

    println!("{:>8}  {:>8}  {:>8}", "interval", &columns[0].0, &columns[1].0);
    let rows = columns[0].1.len().max(columns[1].1.len());
    for i in 0..rows {
        let a = columns[0].1.get(i).copied().unwrap_or(0.0);
        let b = columns[1].1.get(i).copied().unwrap_or(0.0);
        println!("{:>6}s   {:>7.1}%  {:>7.1}%", i * 10, a, b);
    }
}
