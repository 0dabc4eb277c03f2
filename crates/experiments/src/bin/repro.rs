//! **Repro harness** — replays a forensic artifact written by a failed
//! campaign run (see `results/forensics/`).
//!
//! Loads the artifact, prints the captured scenario, error, and trace
//! tail, then re-runs the exact scenario deterministically with the
//! packet-conservation audit at `full` and compares the outcome against
//! the recorded one.
//!
//! Exit status: 0 when the failure reproduces identically (or the
//! original error depends on the wall clock and the replay succeeds), 1
//! when the replay diverges, 2 on usage or artifact errors. An artifact
//! from an earlier schema is an artifact error: replay it with the build
//! that wrote it.
//!
//! ```sh
//! cargo run --release -p experiments --bin repro -- results/forensics/<artifact>.txt
//! ```

#![warn(unreachable_pub)]

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{replay_run, AuditLevel, ForensicArtifact};

fn usage() -> ExitCode {
    eprintln!("usage: repro <artifact.txt>");
    eprintln!("  <artifact.txt>: a forensic artifact from results/forensics/");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        return usage();
    };
    let path = PathBuf::from(path);
    let artifact = match ForensicArtifact::load(&path) {
        Ok(artifact) => artifact,
        Err(e) => {
            eprintln!("repro: cannot load {}: {e}", path.display());
            eprintln!(
                "repro: only the current dsr-forensics schema loads; DESIGN.md, \"Auditing & \
                 forensics\", lists each schema and the commits that wrote it"
            );
            return ExitCode::from(2);
        }
    };

    println!("artifact:  {}", path.display());
    println!("label:     {}", artifact.label);
    println!("seed:      {}", artifact.config.seed);
    println!("faults:    {}", artifact.config.faults.events.len());
    println!("error:     {}", artifact.error);
    if !artifact.trace.is_empty() {
        println!("trace tail ({} events):", artifact.trace.len());
        for line in artifact.trace.iter().rev().take(10).rev() {
            println!("  {line}");
        }
    }

    if !artifact.replayable {
        eprintln!(
            "repro: artifact is not replayable — it came from a campaign with a \
             custom agent factory the artifact format cannot capture"
        );
        return ExitCode::from(2);
    }

    println!("\nreplaying with the conservation audit at full...");
    match replay_run(&artifact.config, AuditLevel::Full) {
        Err(error) if error == artifact.error => {
            println!("reproduced: {error}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            println!("replay failed DIFFERENTLY:");
            println!("  recorded: {}", artifact.error);
            println!("  replayed: {error}");
            ExitCode::FAILURE
        }
        Ok(report) => {
            println!(
                "replay completed cleanly: delivery {:.1}%, {} originated",
                100.0 * report.delivery_fraction,
                report.originated
            );
            if artifact.error.is_transient() {
                println!(
                    "recorded error depends on the wall clock, so a clean replay is expected ({})",
                    artifact.error
                );
                ExitCode::SUCCESS
            } else {
                println!("but the recorded error was deterministic: {}", artifact.error);
                ExitCode::FAILURE
            }
        }
    }
}
