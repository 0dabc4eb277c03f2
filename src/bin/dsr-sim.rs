//! `dsr-sim`: run one MANET simulation from the command line.
//!
//! ```text
//! dsr-sim [options]
//!   --protocol <dsr|dsr-we|dsr-ae|dsr-nc|dsr-c|aodv|aodv-noir>   (default dsr)
//!   --pause <secs>        pause time (default 0)
//!   --rate <pkt/s>        per-flow CBR rate (default 3)
//!   --nodes <n>           node count (default 100)
//!   --duration <secs>     simulated seconds (default 120)
//!   --seed <n>            scenario seed (default 1)
//!   --static-timeout <s>  DSR static route expiry instead of a variant
//!   --trace               print the packet-level event trace
//!   --series              print delivery per 10 s interval (from the obs time series)
//! ```

#![warn(unreachable_pub)]

use dsr_caching::mobility::WaypointConfig;
use dsr_caching::obs::TimeSeries;
use dsr_caching::packet::RoutingAgent;
use dsr_caching::prelude::*;

struct Options {
    protocol: String,
    pause_s: f64,
    rate_pps: f64,
    nodes: usize,
    duration_s: f64,
    seed: u64,
    static_timeout_s: Option<f64>,
    trace: bool,
    per_interval: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        protocol: "dsr".to_string(),
        pause_s: 0.0,
        rate_pps: 3.0,
        nodes: 100,
        duration_s: 120.0,
        seed: 1,
        static_timeout_s: None,
        trace: false,
        per_interval: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--protocol" => opts.protocol = value("--protocol"),
            "--pause" => opts.pause_s = value("--pause").parse().expect("pause seconds"),
            "--rate" => opts.rate_pps = value("--rate").parse().expect("rate pkt/s"),
            "--nodes" => opts.nodes = value("--nodes").parse().expect("node count"),
            "--duration" => {
                opts.duration_s = value("--duration").parse().expect("duration seconds")
            }
            "--seed" => opts.seed = value("--seed").parse().expect("seed"),
            "--static-timeout" => {
                opts.static_timeout_s =
                    Some(value("--static-timeout").parse().expect("timeout seconds"))
            }
            "--trace" => opts.trace = true,
            "--series" => opts.per_interval = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of src/bin/dsr-sim.rs for options");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn dsr_variant(opts: &Options) -> Option<DsrConfig> {
    if let Some(t) = opts.static_timeout_s {
        return Some(DsrConfig::static_expiry(SimDuration::from_secs(t)));
    }
    match opts.protocol.as_str() {
        "dsr" => Some(DsrConfig::base()),
        "dsr-we" => Some(DsrConfig::wider_error()),
        "dsr-ae" => Some(DsrConfig::adaptive_expiry()),
        "dsr-nc" => Some(DsrConfig::negative_cache()),
        "dsr-c" => Some(DsrConfig::combined()),
        _ => None,
    }
}

fn scenario(opts: &Options, dsr: DsrConfig) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(opts.pause_s, opts.rate_pps, dsr, opts.seed);
    cfg.mobility = MobilitySpec::Waypoint(WaypointConfig {
        num_nodes: opts.nodes,
        duration: SimDuration::from_secs(opts.duration_s),
        ..WaypointConfig::paper(SimDuration::from_secs(opts.pause_s))
    });
    cfg.duration = SimDuration::from_secs(opts.duration_s);
    cfg
}

/// Runs `sim`, printing its packet trace and sampling its time series
/// every 10 s when asked.
fn run<A: RoutingAgent>(mut sim: Simulator<A>, opts: &Options) -> (Report, Option<TimeSeries>) {
    if opts.trace {
        sim.set_trace(Box::new(|ev| println!("{ev}")));
    }
    if !opts.per_interval {
        return (sim.run(), None);
    }
    let (report, observation) = sim.run_sampled(SimDuration::from_secs(10.0));
    (report, Some(observation.timeseries))
}

fn main() {
    let opts = parse_args();
    let started = std::time::Instant::now();

    let (report, series) = match dsr_variant(&opts) {
        Some(dsr) => run(Simulator::new(scenario(&opts, dsr)), &opts),
        None => {
            let aodv = match opts.protocol.as_str() {
                "aodv" => AodvConfig::default(),
                "aodv-noir" => AodvConfig { intermediate_replies: false },
                other => {
                    eprintln!(
                        "unknown protocol {other} (dsr|dsr-we|dsr-ae|dsr-nc|dsr-c|aodv|aodv-noir)"
                    );
                    std::process::exit(2);
                }
            };
            let label = aodv.label();
            let sim = Simulator::with_agents(
                scenario(&opts, DsrConfig::base()),
                label,
                move |node, rng| AodvNode::new(node, aodv.clone(), rng),
            );
            run(sim, &opts)
        }
    };

    println!("{report}");
    if let Some(series) = series {
        println!("\ndelivery over time (10 s buckets):");
        for (start_s, originated, delivered) in series.delivery_by_interval() {
            // Delivered may exceed originated when queued packets drain.
            let pct =
                if originated == 0 { 0.0 } else { 100.0 * delivered as f64 / originated as f64 };
            println!(
                "  {start_s:>5.0}s  originated {originated:>5}  delivered {delivered:>5}  ({pct:.1}%)"
            );
        }
    }
    println!("(wall clock: {:.1}s)", started.elapsed().as_secs_f64());
}
