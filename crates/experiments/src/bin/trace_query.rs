//! **trace_query** — filter and summarize observability artifacts.
//!
//! Reads any file the obs layer produces (raw ns-2-flavored trace lines,
//! `dsr-forensics v1` repro artifacts, per-run `dsr-timeseries v1` files,
//! `dsr-profile v1` summaries, `dsr-cachetrace v1` cache-decision
//! traces) and answers questions about it: which
//! events a node saw, what happened to one packet uid end to end, which
//! samples fall in a time window.
//!
//! ```sh
//! cargo run --release -p experiments --bin trace_query -- <file|-> \
//!     [--node N] [--uid N] [--kind K] [--from S] [--to S] \
//!     [--follow UID] [--summary]
//! ```
//!
//! `--kind` matches an op name (`send`, `recv`, `drop`, `break`,
//! `discovery`), an op letter, a layer (`MAC`, `RTR`, `AGT`, `LL`), or a
//! subject (`RREQ`, `NoRouteToSalvage`, ...). `--follow UID` prints one
//! packet's lifecycle across MAC/RTR/AGT plus a one-line verdict. Pass
//! `-` to read stdin.
//!
//! Exit status: 0 when at least one line/row matched, 1 when nothing
//! matched, 2 on malformed input or arguments.

use std::io::Read as _;
use std::process::ExitCode;

use obs::{follow_uid, read_file, Filter, ObsFile, Profile, TimeSeries};

const USAGE: &str = "usage: trace_query <file|-> [--node N] [--uid N] [--kind K] \
                     [--from S] [--to S] [--follow UID] [--summary]";

struct Query {
    path: String,
    filter: Filter,
    follow: Option<u64>,
    summary: bool,
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Query, String> {
    let mut path: Option<String> = None;
    let mut query =
        Query { path: String::new(), filter: Filter::default(), follow: None, summary: false };
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--node" => {
                let v = value_of("--node")?;
                query.filter.node = Some(v.parse().map_err(|_| format!("invalid node '{v}'"))?);
            }
            "--uid" => {
                let v = value_of("--uid")?;
                query.filter.uid = Some(v.parse().map_err(|_| format!("invalid uid '{v}'"))?);
            }
            "--kind" => query.filter.kind = Some(value_of("--kind")?),
            "--from" => {
                let v = value_of("--from")?;
                query.filter.from = Some(v.parse().map_err(|_| format!("invalid time '{v}'"))?);
            }
            "--to" => {
                let v = value_of("--to")?;
                query.filter.to = Some(v.parse().map_err(|_| format!("invalid time '{v}'"))?);
            }
            "--follow" => {
                let v = value_of("--follow")?;
                query.follow = Some(v.parse().map_err(|_| format!("invalid uid '{v}'"))?);
            }
            "--summary" => query.summary = true,
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    query.path = path.ok_or("missing input file")?;
    Ok(query)
}

fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        std::fs::read_to_string(path)
    }
}

/// Runs the query; `Ok(matches)` is the number of lines/rows that matched.
fn run(query: &Query, text: &str) -> Result<usize, obs::ObsError> {
    match read_file(text)? {
        ObsFile::Trace(lines) => {
            if let Some(uid) = query.follow {
                let Some(report) = follow_uid(&lines, uid) else {
                    return Ok(0);
                };
                if !query.summary {
                    for line in &report.lines {
                        println!("{line}");
                    }
                }
                println!("{}", report.summary);
                return Ok(report.lines.len());
            }
            let hits: Vec<_> = lines.iter().filter(|l| query.filter.matches(l)).collect();
            if query.summary {
                println!("{} of {} trace lines match", hits.len(), lines.len());
            } else {
                for line in &hits {
                    println!("{}", line.raw);
                }
            }
            Ok(hits.len())
        }
        ObsFile::TimeSeries(series) => Ok(query_timeseries(query, &series)),
        ObsFile::Profile(profile) => Ok(query_profile(query, &profile)),
        ObsFile::CacheTrace(trace) => Ok(query_cachetrace(query, &trace)),
    }
}

fn query_cachetrace(query: &Query, trace: &obs::CacheTrace) -> usize {
    let rows: Vec<_> =
        trace
            .rows
            .iter()
            .filter(|r| {
                let t_s = r.t_ns as f64 / 1e9;
                query.filter.node.is_none_or(|n| r.node == n)
                    && query.filter.kind.as_deref().is_none_or(|k| {
                        r.op.eq_ignore_ascii_case(k) || r.kind.eq_ignore_ascii_case(k)
                    })
                    && query.filter.from.is_none_or(|from| t_s >= from)
                    && query.filter.to.is_none_or(|to| t_s <= to)
            })
            .collect();
    if query.summary || rows.is_empty() {
        println!(
            "{} seed {} ({} of {} cache decisions match; {} dropped)",
            trace.label,
            trace.seed,
            rows.len(),
            trace.rows.len(),
            trace.dropped,
        );
        return rows.len();
    }
    println!("t_s node op kind dst route valid stale_ms");
    for r in &rows {
        let valid = match r.valid {
            Some(true) => "1",
            Some(false) => "0",
            None => "-",
        };
        let stale = match r.stale_ns {
            Some(ns) => format!("{:.3}", ns as f64 / 1e6),
            None => "-".to_string(),
        };
        println!(
            "{:.6} {} {} {} {} {} {valid} {stale}",
            r.t_ns as f64 / 1e9,
            r.node,
            r.op,
            r.kind,
            r.dst,
            r.route,
        );
    }
    rows.len()
}

fn query_timeseries(query: &Query, series: &TimeSeries) -> usize {
    let rows = series.rows_in_window(query.filter.from, query.filter.to);
    if query.summary || rows.is_empty() {
        println!(
            "{} seed {} ({} of {} samples in window, every {:.3}s)",
            series.label,
            series.seed,
            rows.len(),
            series.rows.len(),
            series.interval_ns as f64 / 1e9,
        );
        return rows.len();
    }
    println!("t_s cache_entries cache_valid negative send_buffer ifq_control ifq_data discoveries events");
    for row in &rows {
        println!(
            "{:.3} {} {} {} {} {} {} {} {}",
            row.t_s,
            row.cache_entries,
            row.cache_valid,
            row.negative_entries,
            row.send_buffer,
            row.ifq_control,
            row.ifq_data,
            row.discoveries,
            row.events,
        );
    }
    rows.len()
}

/// The `--summary` line of a profile.
fn profile_summary(profile: &Profile) -> String {
    format!(
        "{} run(s), {} events in {:.3}s wall ({:.0} events/s), 1 dispatch in {} timed per kind",
        profile.runs,
        profile.events,
        profile.wall_seconds,
        profile.events_per_wall_second(),
        profile.timing_stride,
    )
}

fn query_profile(query: &Query, profile: &Profile) -> usize {
    if query.summary {
        println!("{}", profile_summary(profile));
    } else {
        print!("{}", profile.render());
    }
    // A profile always "matches" if it recorded at least one run.
    usize::try_from(profile.runs).unwrap_or(usize::MAX)
}

fn main() -> ExitCode {
    let query = match parse_args(std::env::args().skip(1)) {
        Ok(query) => query,
        Err(e) => {
            eprintln!("trace_query: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match read_input(&query.path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("trace_query: cannot read {}: {e}", query.path);
            return ExitCode::from(2);
        }
    };
    match run(&query, &text) {
        Ok(0) => ExitCode::from(1),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_query: malformed input {}: {e}", query.path);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
s 1.100000 _n0_ MAC DATA 584B -> n1 uid 42
r 1.100500 _n1_ AGT DATA 512B uid 42 src n0
D 2.000000 _n3_ RTR NoRouteToSalvage uid 7
";

    fn q(raw: &[&str]) -> Result<Query, String> {
        parse_args(raw.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_filters_and_follow() {
        let query =
            q(&["trace.txt", "--node", "3", "--kind", "drop", "--from", "1.5", "--to", "9"])
                .expect("parses");
        assert_eq!(query.path, "trace.txt");
        assert_eq!(query.filter.node, Some(3));
        assert_eq!(query.filter.kind.as_deref(), Some("drop"));
        assert_eq!(query.filter.from, Some(1.5));
        let follow = q(&["-", "--follow", "42", "--summary"]).expect("parses");
        assert_eq!(follow.path, "-");
        assert_eq!(follow.follow, Some(42));
        assert!(follow.summary);
    }

    #[test]
    fn args_reject_garbage() {
        assert!(q(&[]).is_err(), "missing file");
        assert!(q(&["trace.txt", "--node"]).is_err(), "missing value");
        assert!(q(&["trace.txt", "--node", "x"]).is_err(), "bad number");
        assert!(q(&["trace.txt", "--verbose"]).is_err(), "unknown flag");
        assert!(q(&["a.txt", "b.txt"]).is_err(), "two files");
    }

    #[test]
    fn run_counts_matches_by_input_kind() {
        let base = q(&["-"]).unwrap();
        assert_eq!(run(&base, SAMPLE).unwrap(), 3);
        let node =
            Query { filter: Filter { node: Some(3), ..Filter::default() }, ..q(&["-"]).unwrap() };
        assert_eq!(run(&node, SAMPLE).unwrap(), 1);
        let follow = Query { follow: Some(42), ..q(&["-"]).unwrap() };
        assert_eq!(run(&follow, SAMPLE).unwrap(), 2);
        let missing = Query { follow: Some(999), ..q(&["-"]).unwrap() };
        assert_eq!(run(&missing, SAMPLE).unwrap(), 0, "no match exits 1");
        assert!(run(&base, "garbage that is not a trace\n").is_err(), "malformed exits 2");
    }

    #[test]
    fn profile_summary_states_the_timing_stride() {
        let profile = Profile { runs: 2, events: 10, timing_stride: 64, ..Profile::default() };
        assert!(profile_summary(&profile).ends_with(", 1 dispatch in 64 timed per kind"));
        let older = profile.render().replace("timing_stride = 64\n", "");
        let older = Profile::parse(&older).expect("parses");
        assert!(profile_summary(&older).ends_with(", 1 dispatch in 1 timed per kind"));
    }
}
