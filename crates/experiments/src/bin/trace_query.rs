//! **trace_query** — filter and summarize observability artifacts, and
//! explain Table 3 from its cache traces.
//!
//! Given one file, it reads anything the obs layer produces (raw
//! ns-2-flavored trace lines, `dsr-forensics` repro artifacts, per-run
//! `dsr-timeseries v2` files, `dsr-profile v1` summaries,
//! `dsr-cachetrace v1` cache-decision traces) and answers questions about
//! it: which events a node saw, what happened to one packet uid end to
//! end, which samples or cache decisions fall in a time window.
//!
//! Given a directory — or no path, which means `results/cachetrace/` — it
//! folds every `*.cachetrace` file there (written by any experiment run
//! with `--cachetrace`) into one [`CacheRollup`] per strategy label and
//! prints the "why" table: where each cache's routes come from (insert
//! provenance), how often lookups hand out already-broken routes
//! (stale-hit fraction), how long broken links linger before a purge
//! (staleness latency p50/p99), what finally removes them (route errors,
//! wider error propagation, MAC-layer feedback, negative-cache vetoes),
//! and the one strategy decision traced: multipath failovers.
//!
//! ```sh
//! cargo run --release -p experiments --bin trace_query -- <file|-> \
//!     [--node N] [--uid N] [--kind K] [--from S] [--to S] \
//!     [--follow UID] [--summary]
//! cargo run --release -p experiments --bin trace_query -- [dir] \
//!     [--label L] [--summary]
//! ```
//!
//! `--kind` matches an op name (`send`, `recv`, `drop`, `break`,
//! `discovery`), an op letter, a layer (`MAC`, `RTR`, `AGT`, `LL`), or a
//! subject (`RREQ`, `NoRouteToSalvage`, ...). `--follow UID` prints one
//! packet's lifecycle across MAC/RTR/AGT plus a one-line verdict. Pass
//! `-` to read stdin. Over a directory, `--label L` keeps only the
//! strategy labelled `L`, and `--summary` prints one line per strategy
//! instead of the table.
//!
//! Exit status: 0 when at least one line/row/trace matched, 1 when
//! nothing matched, 2 on malformed input or arguments.

#![warn(unreachable_pub)]

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::{pct, Table};
use obs::{
    follow_uid, read_file, CacheRollup, CacheTrace, Filter, ObsFile, Profile, SampleRow, TimeSeries,
};

const USAGE: &str = "usage: trace_query <file|-> [--node N] [--uid N] [--kind K] \
                     [--from S] [--to S] [--follow UID] [--summary]\n       \
                     trace_query [dir] [--label L] [--summary]";

struct Query {
    path: String,
    filter: Filter,
    follow: Option<u64>,
    label: Option<String>,
    summary: bool,
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Query, String> {
    let mut path: Option<String> = None;
    let mut query = Query {
        path: String::new(),
        filter: Filter::default(),
        follow: None,
        label: None,
        summary: false,
    };
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
            "--label" => query.label = Some(value_of("--label")?),
            "--summary" => query.summary = true,
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    query.path = path.unwrap_or_else(|| "results/cachetrace".to_string());
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
    println!("{}", SampleRow::header());
    for row in &rows {
        println!("{}", row.render());
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

fn fmt_ms(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.1}", ns as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// Folds the directory's `*.cachetrace` files, in file-name order, into
/// per-label rollups (label order = first appearance).
fn load_rollups(dir: &Path, label: Option<&str>) -> Result<Vec<CacheRollup>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read input: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cachetrace"))
        .collect();
    files.sort();
    let mut out: Vec<CacheRollup> = Vec::new();
    for file in &files {
        let trace = CacheTrace::load(file)
            .map_err(|e| format!("malformed trace {}: {e}", file.display()))?;
        if label.is_some_and(|l| l != trace.label) {
            continue;
        }
        match out.iter_mut().find(|r| r.label == trace.label) {
            Some(rollup) => rollup.add(&trace),
            None => {
                let mut rollup = CacheRollup::new(&trace.label);
                rollup.add(&trace);
                out.push(rollup);
            }
        }
    }
    Ok(out)
}

/// The "why" table's columns: header, and the cell one rollup gives it.
type WhyColumn = (&'static str, fn(&CacheRollup) -> String);
const WHY_COLUMNS: &[WhyColumn] = &[
    ("variant", |r| r.label.clone()),
    ("traces", |r| r.traces.to_string()),
    ("ins_reply", |r| r.inserts_of("reply").to_string()),
    ("ins_overheard", |r| r.inserts_of("overheard").to_string()),
    ("ins_gratuitous", |r| r.inserts_of("gratuitous").to_string()),
    ("hits", |r| r.hits().to_string()),
    ("stale_hit_pct", |r| pct(r.stale_hit_fraction() * 100.0)),
    ("stale_p50_ms", |r| fmt_ms(r.stale_latency_ns(0.5))),
    ("stale_p99_ms", |r| fmt_ms(r.stale_latency_ns(0.99))),
    ("misses", |r| r.misses.to_string()),
    ("rm_rerr", |r| r.removals_of("rerr").to_string()),
    ("rm_wider", |r| r.removals_of("wider").to_string()),
    ("rm_mac", |r| r.removals_of("mac").to_string()),
    ("rm_neg_veto", |r| r.removals_of("neg-veto").to_string()),
    ("premature", |r| r.premature_purges.to_string()),
    ("expires", |r| r.expires.to_string()),
    ("evicts", |r| r.evicts.to_string()),
    ("refreshes", |r| r.refreshes.to_string()),
    ("failovers", |r| r.failovers.to_string()),
    ("dropped", |r| r.dropped.to_string()),
];

fn render_rollups(rollups: &[CacheRollup], summary: bool) {
    if summary {
        for r in rollups {
            println!(
                "{}: {} trace(s), {} hits ({:.1}% stale), {} misses, stale p99 {} ms",
                r.label,
                r.traces,
                r.hits(),
                r.stale_hit_fraction() * 100.0,
                r.misses,
                fmt_ms(r.stale_latency_ns(0.99)),
            );
        }
        return;
    }
    let headers: Vec<&str> = WHY_COLUMNS.iter().map(|(header, _)| *header).collect();
    let mut table = Table::new("cache_why", &headers);
    for r in rollups {
        table.row(WHY_COLUMNS.iter().map(|(_, cell)| cell(r)).collect());
    }
    println!("{}", table.render());
    if rollups.iter().any(|r| r.dropped > 0) {
        println!(
            "warning: some recorders hit their row cap; dropped counts above are undercounts."
        );
    }
}

/// The "why" table over a directory of cache traces.
fn why(query: &Query) -> ExitCode {
    if !query.filter.is_empty() || query.follow.is_some() {
        eprintln!("trace_query: a directory takes only --label and --summary");
        return ExitCode::from(2);
    }
    match load_rollups(Path::new(&query.path), query.label.as_deref()) {
        Ok(rollups) if rollups.is_empty() => {
            eprintln!("trace_query: no matching cache traces");
            ExitCode::from(1)
        }
        Ok(rollups) => {
            render_rollups(&rollups, query.summary);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_query: {e}");
            ExitCode::from(2)
        }
    }
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
    if Path::new(&query.path).is_dir() {
        return why(&query);
    }
    if query.label.is_some() {
        eprintln!("trace_query: --label needs a directory of cache traces");
        return ExitCode::from(2);
    }
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
        assert!(q(&["trace.txt", "--node"]).is_err(), "missing value");
        assert!(q(&["--label"]).is_err(), "missing label");
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
    }

    fn trace(label: &str, seed: u64) -> CacheTrace {
        let row = |t_ns, op: &str, kind: &str, dst: &str, route: &str, stale_ns| obs::CacheRow {
            t_ns,
            node: 0,
            op: op.into(),
            kind: kind.into(),
            dst: dst.into(),
            route: route.into(),
            valid: Some(op == "insert"),
            stale_ns,
        };
        CacheTrace {
            label: label.to_string(),
            seed,
            fingerprint: 0xABCD,
            rows: vec![
                row(1_000_000, "insert", "reply", "-", "0-1-2", None),
                row(2_000_000, "lookup", "origination", "2", "0-1-2", None),
                row(3_000_000, "remove", "mac", "-", "1>2", Some(2_500_000)),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn args_default_to_the_results_dir() {
        let d = q(&[]).expect("empty is fine");
        assert_eq!(d.path, "results/cachetrace");
        assert_eq!(d.label, None);
        assert!(!d.summary);

        let a = q(&["/tmp/ct", "--label", "DSR-C", "--summary"]).expect("flags");
        assert_eq!(a.path, "/tmp/ct");
        assert_eq!(a.label.as_deref(), Some("DSR-C"));
        assert!(a.summary);
    }

    #[test]
    fn rollups_group_by_label_and_filter() {
        let dir = std::env::temp_dir().join(format!("trace_query_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        trace("DSR", 1).write_to(&dir).unwrap();
        trace("DSR", 2).write_to(&dir).unwrap();
        trace("DSR-C", 1).write_to(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a trace, and not read\n").unwrap();

        let all = load_rollups(&dir, None).unwrap();
        assert_eq!(all.len(), 2);
        let dsr = all.iter().find(|r| r.label == "DSR").unwrap();
        assert_eq!(dsr.traces, 2);
        assert_eq!(dsr.hits_stale, 2);
        assert_eq!(dsr.stale_latency_ns(0.99), Some(2_500_000));

        let only = load_rollups(&dir, Some("DSR-C")).unwrap();
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].traces, 1);

        let none = load_rollups(&dir, Some("AODV")).unwrap();
        assert!(none.is_empty(), "no match exits 1");

        std::fs::write(dir.join("bad.cachetrace"), "not a trace\n").unwrap();
        assert!(load_rollups(&dir, None).is_err(), "malformed exits 2");
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_rollups(&dir, None).is_err(), "a missing directory exits 2");
    }

    #[test]
    fn fmt_ms_renders_dash_for_missing() {
        assert_eq!(fmt_ms(None), "-");
        assert_eq!(fmt_ms(Some(2_500_000)), "2.5");
    }
}
