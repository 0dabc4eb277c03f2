//! **cache_query** — the per-strategy "why" table behind Table 3.
//!
//! Reads `dsr-cachetrace v1` files (written by any experiment binary run
//! with `--cachetrace`), folds them into one [`CacheRollup`] per strategy
//! label, and renders a table explaining *why* the caching strategies
//! differ: where each cache's routes come from (insert provenance), how
//! often lookups hand out already-broken routes (stale-hit fraction), how
//! long broken links linger before a purge (staleness latency p50/p99),
//! and what finally removes them (route errors, wider error propagation,
//! MAC-layer feedback, negative-cache vetoes, preemptive repair), plus
//! the strategy decisions themselves: non-optimal routes suppressed at
//! insert/reply time and multipath failovers to a surviving alternate.
//!
//! ```sh
//! cargo run --release -p experiments --bin cache_query -- \
//!     [dir|file.cachetrace ...] [--label L] [--summary]
//! ```
//!
//! With no paths it reads `results/cachetrace/`. A directory argument is
//! scanned (non-recursively) for `*.cachetrace` files; anything else is
//! loaded as a single trace file. `--label L` keeps only strategies whose
//! label equals `L`. `--summary` prints one line per strategy instead of
//! the full table.
//!
//! Exit status: 0 when at least one trace matched, 1 when nothing
//! matched, 2 on malformed input or arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::{pct, Table};
use obs::{CacheRollup, CacheTrace};

const USAGE: &str = "usage: cache_query [dir|file.cachetrace ...] [--label L] [--summary]";

struct Query {
    paths: Vec<PathBuf>,
    label: Option<String>,
    summary: bool,
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Query, String> {
    let mut query = Query { paths: Vec::new(), label: None, summary: false };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => {
                query.label = Some(args.next().ok_or("--label requires a value")?);
            }
            "--summary" => query.summary = true,
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => query.paths.push(PathBuf::from(other)),
        }
    }
    if query.paths.is_empty() {
        query.paths.push(PathBuf::from("results").join("cachetrace"));
    }
    Ok(query)
}

/// Expands directories into their `*.cachetrace` files, sorted for a
/// deterministic fold order; passes plain files through untouched.
fn trace_files(paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut found: Vec<PathBuf> = std::fs::read_dir(path)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "cachetrace"))
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(path.clone());
        }
    }
    Ok(files)
}

fn fmt_ms(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.1}", ns as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// Folds the given trace files into per-label rollups (label order =
/// first appearance in the sorted file list).
fn load_rollups(files: &[PathBuf], label: Option<&str>) -> Result<Vec<CacheRollup>, String> {
    let mut out: Vec<CacheRollup> = Vec::new();
    for file in files {
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

fn render(rollups: &[CacheRollup], summary: bool) {
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
    let mut table = Table::new(
        "cache_why",
        &[
            "variant",
            "traces",
            "ins_reply",
            "ins_overheard",
            "ins_gratuitous",
            "ins_salvage",
            "hits",
            "stale_hit_pct",
            "stale_p50_ms",
            "stale_p99_ms",
            "misses",
            "rm_rerr",
            "rm_wider",
            "rm_mac",
            "rm_neg_veto",
            "premature",
            "expires",
            "evicts",
            "refreshes",
            "sup_insert",
            "sup_reply",
            "failovers",
            "dropped",
        ],
    );
    for r in rollups {
        table.row(vec![
            r.label.clone(),
            r.traces.to_string(),
            r.inserts_of("reply").to_string(),
            r.inserts_of("overheard").to_string(),
            r.inserts_of("gratuitous").to_string(),
            r.inserts_of("salvage").to_string(),
            r.hits().to_string(),
            pct(r.stale_hit_fraction() * 100.0),
            fmt_ms(r.stale_latency_ns(0.5)),
            fmt_ms(r.stale_latency_ns(0.99)),
            r.misses.to_string(),
            r.removals_of("rerr").to_string(),
            r.removals_of("wider").to_string(),
            r.removals_of("mac").to_string(),
            r.removals_of("neg-veto").to_string(),
            r.premature_purges.to_string(),
            r.expires.to_string(),
            r.evicts.to_string(),
            r.refreshes.to_string(),
            r.suppressions_of("insert").to_string(),
            r.suppressions_of("reply").to_string(),
            r.failovers.to_string(),
            r.dropped.to_string(),
        ]);
    }
    println!("{}", table.render());
    if rollups.iter().any(|r| r.dropped > 0) {
        println!(
            "warning: some recorders hit their row cap; dropped counts above are undercounts."
        );
    }
}

fn main() -> ExitCode {
    let query = match parse_args(std::env::args().skip(1)) {
        Ok(query) => query,
        Err(e) => {
            eprintln!("cache_query: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let files = match trace_files(&query.paths) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("cache_query: cannot read input: {e}");
            return ExitCode::from(2);
        }
    };
    match load_rollups(&files, query.label.as_deref()) {
        Ok(rollups) if rollups.is_empty() => {
            eprintln!("cache_query: no matching cache traces");
            ExitCode::from(1)
        }
        Ok(rollups) => {
            render(&rollups, query.summary);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cache_query: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::CacheRow;

    fn q(raw: &[&str]) -> Result<Query, String> {
        parse_args(raw.iter().map(|s| s.to_string()))
    }

    fn trace(label: &str, seed: u64) -> CacheTrace {
        CacheTrace {
            label: label.to_string(),
            seed,
            fingerprint: 0xABCD,
            rows: vec![
                CacheRow {
                    t_ns: 1_000_000,
                    node: 0,
                    op: "insert".into(),
                    kind: "reply".into(),
                    dst: "-".into(),
                    route: "0-1-2".into(),
                    valid: Some(true),
                    stale_ns: None,
                },
                CacheRow {
                    t_ns: 2_000_000,
                    node: 0,
                    op: "lookup".into(),
                    kind: "origination".into(),
                    dst: "2".into(),
                    route: "0-1-2".into(),
                    valid: Some(false),
                    stale_ns: None,
                },
                CacheRow {
                    t_ns: 3_000_000,
                    node: 0,
                    op: "remove".into(),
                    kind: "mac".into(),
                    dst: "-".into(),
                    route: "1>2".into(),
                    valid: Some(false),
                    stale_ns: Some(2_500_000),
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn args_default_to_the_results_dir() {
        let d = q(&[]).expect("empty is fine");
        assert_eq!(d.paths, vec![PathBuf::from("results").join("cachetrace")]);
        assert_eq!(d.label, None);
        assert!(!d.summary);

        let a = q(&["/tmp/ct", "--label", "DSR-C", "--summary"]).expect("flags");
        assert_eq!(a.paths, vec![PathBuf::from("/tmp/ct")]);
        assert_eq!(a.label.as_deref(), Some("DSR-C"));
        assert!(a.summary);

        assert!(q(&["--label"]).is_err(), "missing value");
        assert!(q(&["--verbose"]).is_err(), "unknown flag");
    }

    #[test]
    fn rollups_group_by_label_and_filter() {
        let dir = std::env::temp_dir().join(format!("cache_query_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        trace("DSR", 1).write_to(&dir).unwrap();
        trace("DSR", 2).write_to(&dir).unwrap();
        trace("DSR-C", 1).write_to(&dir).unwrap();

        let files = trace_files(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(files.len(), 3);

        let all = load_rollups(&files, None).unwrap();
        assert_eq!(all.len(), 2);
        let dsr = all.iter().find(|r| r.label == "DSR").unwrap();
        assert_eq!(dsr.traces, 2);
        assert_eq!(dsr.hits_stale, 2);
        assert_eq!(dsr.stale_latency_ns(0.99), Some(2_500_000));

        let only = load_rollups(&files, Some("DSR-C")).unwrap();
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].traces, 1);

        let none = load_rollups(&files, Some("AODV")).unwrap();
        assert!(none.is_empty(), "no match exits 1");

        std::fs::write(dir.join("bad.cachetrace"), "not a trace\n").unwrap();
        let files = trace_files(std::slice::from_ref(&dir)).unwrap();
        assert!(load_rollups(&files, None).is_err(), "malformed exits 2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_ms_renders_dash_for_missing() {
        assert_eq!(fmt_ms(None), "-");
        assert_eq!(fmt_ms(Some(2_500_000)), "2.5");
    }
}
