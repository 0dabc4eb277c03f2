//! `trace_query <file>.timeseries` prints the series through the shared
//! column registry: its header is the file's `columns` line and each row
//! is the file's own data line, so no column is dropped or reordered.

use std::path::{Path, PathBuf};
use std::process::Command;

fn trace_query(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_query")).args(args).output().expect("runs");
    assert!(out.status.success(), "trace_query {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8")
}

/// The first committed time series, in file-name order.
fn committed_series() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/timeseries");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("results/timeseries")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "timeseries"))
        .collect();
    paths.sort();
    paths.into_iter().next().expect("a committed series")
}

#[test]
fn a_time_series_prints_its_own_columns_and_rows() {
    let path = committed_series();
    let text = std::fs::read_to_string(&path).expect("readable");
    let columns = text.lines().find_map(|l| l.strip_prefix("columns = ")).expect("columns");
    let rows: Vec<&str> = text.lines().skip_while(|l| !l.starts_with("rows = ")).skip(1).collect();
    assert!(rows.len() > 2, "{}", path.display());

    let printed = trace_query(&[path.to_str().expect("utf-8 path")]);
    let mut lines = printed.lines();
    assert_eq!(lines.next(), Some(columns), "the header is the file's column list");
    assert_eq!(lines.collect::<Vec<_>>(), rows, "every row prints as the file has it");

    // A window prints the header and the rows whose boundary falls in it.
    let windowed = trace_query(&[path.to_str().expect("utf-8 path"), "--from", "5", "--to", "10"]);
    let want: Vec<&str> = std::iter::once(columns)
        .chain(
            rows.iter()
                .copied()
                .filter(|r| r.starts_with("5.000000 ") || r.starts_with("10.000000 ")),
        )
        .collect();
    assert_eq!(windowed.lines().collect::<Vec<_>>(), want);
}
