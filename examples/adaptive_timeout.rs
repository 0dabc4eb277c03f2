//! Watch the adaptive timeout heuristic in action, outside any network:
//! feed the estimator a synthetic pattern of route breaks (uniform, then a
//! burst, then silence) and print how `T` evolves.
//!
//! This demonstrates the design rationale from the paper: the average
//! route lifetime tracks `T` while breaks arrive uniformly, and the
//! *time-since-last-break* term rescues `T` during quiet periods after a
//! burst.
//!
//! ```sh
//! cargo run --example adaptive_timeout
//! ```

use dsr_caching::dsr::config::{ADAPTIVE_ALPHA, ADAPTIVE_MIN_TIMEOUT};
use dsr_caching::dsr::AdaptiveTimeout;
use dsr_caching::prelude::*;

fn main() {
    let mut est = AdaptiveTimeout::new();

    println!(
        "adaptive timeout: T = max({ADAPTIVE_ALPHA} * avg_route_lifetime, \
         time_since_last_break), floor {} s\n",
        ADAPTIVE_MIN_TIMEOUT.as_secs()
    );
    println!("{:>7}  {:>22}  {:>12}  {:>8}", "time(s)", "event", "avg_life(s)", "T(s)");

    let log = |t: f64, event: &str, est: &AdaptiveTimeout| {
        let avg = est.average_lifetime().map_or("-".to_string(), |d| format!("{:.2}", d.as_secs()));
        println!(
            "{:>7.1}  {:>22}  {:>12}  {:>8.2}",
            t,
            event,
            avg,
            est.timeout(SimTime::from_secs(t)).as_secs()
        );
    };

    log(0.0, "start", &est);

    // Phase 1: uniform breaks every 5 s, each breaking a ~4 s old route.
    for i in 1..=4 {
        let t = 5.0 * i as f64;
        est.observe_break(SimDuration::from_secs(4.0), SimTime::from_secs(t));
        log(t, "uniform break (4s life)", &est);
    }

    // Phase 2: a burst of short-lived breaks at t=25 s.
    for k in 0..5 {
        let t = 25.0 + 0.1 * k as f64;
        est.observe_break(SimDuration::from_secs(0.5), SimTime::from_secs(t));
    }
    log(25.5, "burst of 5 breaks", &est);

    // Phase 3: silence — the second term takes over and T grows again.
    for t in [30.0, 40.0, 60.0, 90.0] {
        log(t, "silence", &est);
    }

    println!(
        "\nAfter the burst the average lifetime alone would keep T at ~{:.1} s and\n\
         expire perfectly good routes forever; the time-since-last-break term\n\
         lets T recover during stable periods.",
        est.average_lifetime().expect("breaks were observed").as_secs() * ADAPTIVE_ALPHA
    );
}
