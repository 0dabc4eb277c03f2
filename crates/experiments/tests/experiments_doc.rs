//! EXPERIMENTS.md's tables cite committed CSVs; this gate keeps them true.
//!
//! A table directly under a `(results/<stem>_quick.csv ...)` source line,
//! with only blank lines between, is checked against that CSV. Each header
//! must be a header of the CSV. A row is found by its key cells (the spec's
//! axes and `variant`), which must match exactly one CSV line, and every
//! cell must equal that line's cell rounded to the precision the doc
//! prints (`**` emphasis is ignored). Every `dsr-exp` spec must have such a
//! table. A failure names the table, the row and the column.

use std::path::Path;

use experiments::spec::SPECS;

/// A markdown table row's cells, emphasis stripped.
fn cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(|cell| cell.trim().replace("**", "")).collect()
}

/// `doc` equals `csv` rounded to the decimals `doc` prints (either
/// rounding of an exact tie), or, for text, equals it outright.
fn same(doc: &str, csv: &str) -> bool {
    match (doc.parse::<f64>(), csv.parse::<f64>()) {
        (Ok(d), Ok(c)) => {
            let decimals = doc.split_once('.').map_or(0, |(_, frac)| frac.len());
            (d - c).abs() <= 0.5 * 10f64.powi(-(decimals as i32)) * (1.0 + 1e-9)
        }
        _ => doc == csv,
    }
}

#[test]
fn every_cited_table_matches_its_committed_csv() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let lines: Vec<&str> = doc.lines().collect();
    let (mut gated, mut failures) = (Vec::new(), Vec::new());
    for (i, line) in lines.iter().enumerate() {
        let Some((stem, _)) =
            line.strip_prefix("(`results/").and_then(|r| r.split_once("_quick.csv`"))
        else {
            continue;
        };
        let spec = SPECS.iter().find(|s| s.name == stem).expect("a dsr-exp spec");
        let start = (i + 1..lines.len())
            .find(|&j| !lines[j].trim().is_empty())
            .filter(|&j| lines[j].starts_with('|'))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md:{}: no table directly under", i + 1));
        let table = format!("EXPERIMENTS.md:{} ({stem}_quick.csv)", start + 1);
        gated.push(stem);
        let csv = std::fs::read_to_string(root.join(format!("results/{stem}_quick.csv")))
            .expect("committed CSV");
        let mut csv_lines = csv.lines();
        let headers: Vec<&str> = csv_lines.next().expect("CSV header").split(',').collect();
        let csv_rows: Vec<Vec<&str>> = csv_lines.map(|l| l.split(',').collect()).collect();
        // Per doc column: its CSV column and whether it keys the row.
        let mut columns = Vec::new();
        for header in cells(lines[start]) {
            let at = headers.iter().position(|h| *h == header);
            if at.is_none() {
                failures.push(format!("{table}: header `{header}` is not a CSV header"));
            }
            let key = header == "variant" || spec.axes.contains(&header.as_str());
            columns.push(at.map(|at| (at, key)));
        }
        assert!(columns.iter().flatten().any(|&(_, key)| key), "{table}: no axis or `variant`");
        for j in (start + 2..lines.len()).take_while(|&j| lines[j].starts_with('|')) {
            let row = cells(lines[j]);
            let known =
                || columns.iter().zip(&row).filter_map(|(c, cell)| Some((*c.as_ref()?, cell)));
            let key: Vec<&String> = known().filter(|((_, key), _)| *key).map(|(_, c)| c).collect();
            let found: Vec<&Vec<&str>> = csv_rows
                .iter()
                .filter(|line| known().all(|((at, key), cell)| !key || line[at] == cell))
                .collect();
            match found.as_slice() {
                _ if row.len() != columns.len() => {
                    failures.push(format!("{table}, line {}: {} cells", j + 1, row.len()))
                }
                [line] => {
                    for ((at, _), cell) in known().filter(|((at, _), cell)| !same(cell, line[*at]))
                    {
                        let (header, csv) = (headers[at], line[at]);
                        failures.push(format!(
                            "{table}, row {key:?}, column `{header}`: doc {cell}, CSV {csv}"
                        ));
                    }
                }
                found => failures.push(format!("{table}, row {key:?}: {} CSV lines", found.len())),
            }
        }
    }
    for spec in SPECS.iter().filter(|s| !gated.contains(&s.name)) {
        failures.push(format!("no table under (`results/{}_quick.csv`)", spec.name));
    }
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn rounding_follows_the_printed_precision() {
    assert!(same("0.65", "0.653") && !same("0.66", "0.653"));
    assert!(same("1.98", "1.985") && same("1.99", "1.985"), "either side of a tie");
    assert!(same("40", "40.176") && !same("41", "40.176"));
    assert!(same("DSR-C", "DSR-C") && !same("DSR", "DSR-C"));
}
