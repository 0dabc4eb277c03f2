//! `run.sh <workload> --aa`: the same code against itself.
//!
//! Runs the workload's timed section the way the benchmark's driver judges
//! it: two sets of ten fresh processes, seeds `--seed`, `--seed + 1`, … in
//! each set. Prints both sets' medians and quartiles per end-to-end metric,
//! each set's spread (interquartile distance over median), and whether the
//! spreads stay within the metric's bound and the
//! second median is no worse than the first by more than the bound.

use std::process::Command;

use crate::emit::{Better, END_TO_END};
use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};

/// Processes per set, one seed each.
const RUNS_PER_SET: u64 = 10;

/// `v` to seven significant digits.
fn show(v: f64) -> String {
    let magnitude = if v == 0.0 { 0 } else { v.abs().log10().floor() as i32 };
    format!("{v:.*}", (6 - magnitude).clamp(0, 15) as usize)
}

/// One fresh process; returns its result line, parsed.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().ok_or("child printed nothing")?)
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<(), String> {
    let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for (s, set) in sets.iter_mut().enumerate() {
        for r in 0..RUNS_PER_SET {
            let result = one_run(workload, seed + r, seconds)?;
            if result.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!(
                    "set {} seed {}: the run reports failed operations",
                    s + 1,
                    seed + r
                ));
            }
            eprintln!("set {} seed {} done", s + 1, seed + r);
            set.push(result);
        }
    }
    println!(
        "A/A {workload} --seconds {seconds}: two sets of {RUNS_PER_SET} fresh processes, seeds {seed}..={}",
        seed + RUNS_PER_SET - 1
    );
    println!("| metric | unit | set 1 median [q1, q3] | set 2 median [q1, q3] | spreads | medians differ by | bound | agree |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_agree = true;
    for m in &END_TO_END {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        let values = |set: &[Value]| -> Result<Vec<f64>, String> {
            set.iter()
                .map(|r| {
                    r.get("metrics")
                        .and_then(|all| all.get(m.name))
                        .and_then(|one| one.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or(format!("a run did not report {}", m.name))
                })
                .collect()
        };
        let (a, c) = (values(&sets[0])?, values(&sets[1])?);
        let (ma, mc) = (median(&a).expect("ten values"), median(&c).expect("ten values"));
        let (qa, qc) = (quartiles(&a).expect("ten values"), quartiles(&c).expect("ten values"));
        let (sa, sc) = (spread(&a).unwrap_or(0.0), spread(&c).unwrap_or(0.0));
        // How much worse the second set's median is than the first's, as
        // the driver computes it; negative = better.
        let worse = if m.better == Better::Higher { (ma - mc) / ma } else { (mc - ma) / ma };
        // The driver exempts set-up time from the spread test only.
        let steady = m.name == "setup_s" || sa.max(sc) <= bound;
        let agree = steady && worse.abs() <= bound;
        all_agree &= agree;
        println!(
            "| `{}` | {} | {} [{}, {}] | {} [{}, {}] | {:.2} %, {:.2} % | {:+.3} % | {} % | {} |",
            m.name,
            m.unit,
            show(ma),
            show(qa.0),
            show(qa.1),
            show(mc),
            show(qc.0),
            show(qc.1),
            100.0 * sa,
            100.0 * sc,
            100.0 * worse,
            100.0 * bound,
            if agree { "yes" } else { "NO" }
        );
    }
    if all_agree {
        Ok(())
    } else {
        Err("two sets of runs of the same code spread or disagree beyond a bound".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::show;

    #[test]
    fn shows_seven_significant_digits() {
        assert_eq!(show(43622.873456), "43622.87");
        assert_eq!(show(0.000146504423), "0.0001465044");
        assert_eq!(show(24.8446), "24.84460");
        assert_eq!(show(0.0), "0.000000");
    }
}
