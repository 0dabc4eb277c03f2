//! **dsr-exp** — runs one experiment of the [`experiments::spec`] table and
//! writes `results/<name>_<mode>.csv`.
//!
//! ```sh
//! cargo run --release -p experiments --bin dsr-exp -- <name> [--quick|--full] [--jobs <n>] [--seed-timeout <secs>] [--resume <journal>] [--audit <level>] [--obs <mode>] [--timeseries-dir <dir>] [--cachetrace]
//! ```
//!
//! `<name>` is a spec's name, the stem of its committed CSV (`table3_cache`,
//! `fig2_mobility`, ...). A missing or unknown name exits with status 2 and
//! lists the names; a bad flag exits 2 with the usage line.

#![warn(unreachable_pub)]

use experiments::{spec, ExpArgs};

fn main() {
    let mut argv = std::env::args().skip(1);
    let usage = ExpArgs::usage("dsr-exp <name>");
    let spec = spec::find(argv.next().as_deref()).unwrap_or_else(|e| {
        eprintln!("dsr-exp: {e}\n{usage}");
        std::process::exit(2);
    });
    let args = ExpArgs::parse(argv).unwrap_or_else(|e| {
        eprintln!("dsr-exp: {e}\n{usage}");
        std::process::exit(2);
    });
    spec.run(&args);
}
