//! The `dsr-cachetrace v1` per-run cache-decision trace and its
//! per-strategy rollup.
//!
//! One file is written per (scenario, seed) run when cache-decision
//! tracing is enabled. Each row is one route-cache decision — insert,
//! lookup, link removal, timer expiry, capacity eviction, or `mark_used`
//! refresh — already stamped by the *driver* with the mobility oracle's
//! verdict (was the route/link physically valid at that instant?) and,
//! for removals of genuinely broken links, with the staleness latency:
//! how long the cache kept serving the link after the oracle says it
//! physically broke.
//!
//! ```text
//! format = dsr-cachetrace v1
//! label = DSR-NC
//! seed = 1
//! fingerprint = 00805db0365eff10
//! columns = t_ns node op kind dst route valid stale_ns
//! dropped = 0
//! rows = 3
//! 1000000 5 insert overheard - 5-3-2 1 -
//! 2000000 5 lookup origination 2 5-3-2 0 -
//! 3000000 5 remove mac - 5>3 0 1500000
//! ```
//!
//! Column conventions (`-` marks a column the op does not use):
//!
//! * `op` — `insert`, `lookup`, `remove`, `expire`, `evict`, `refresh`,
//!   `failover` (a multipath cache promoted a surviving alternate after a
//!   link purge);
//! * `kind` — the insert provenance (`reply`/`overheard`/`gratuitous`),
//!   lookup purpose (`origination`/`salvage`/`reply`) or removal cause
//!   (`rerr`/`wider`/`mac`/`neg-veto`);
//! * `dst` — the looked-up destination (lookup rows only);
//! * `route` — the route as `0-1-2`, or the removed link as `a>b`;
//! * `valid` — the oracle's verdict (`1` valid, `0` stale/broken, `-` on
//!   lookup misses). On `remove` rows `1` means a *premature purge*: the
//!   link was physically up when the cache discarded it;
//! * `stale_ns` — removal rows of genuinely broken links only: nanoseconds
//!   between the oracle's break time and the purge (`0` for premature
//!   purges; `-` elsewhere).
//!
//! Rows are appended in event-dispatch order, which the supervised
//! executor makes independent of `--jobs`, so files are byte-identical at
//! any worker count.

use crate::text::{escape, sanitize, KvBlock, ObsError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// First line of every cache-decision trace file.
pub const FORMAT_HEADER: &str = "dsr-cachetrace v1";

/// Space-separated column names, in row order.
pub const COLUMNS: &[&str] = &["t_ns", "node", "op", "kind", "dst", "route", "valid", "stale_ns"];

/// The `op` column's vocabulary.
pub const OPS: &[&str] = &["insert", "lookup", "remove", "expire", "evict", "refresh", "failover"];

/// What [`CacheTrace::render`] reserves per row: a 100-node paper-scale row
/// (`t_ns` of 10–12 digits, a 3–5 hop route of two-digit ids) renders to
/// 40–55 bytes with its newline.
const TYPICAL_ROW_BYTES: usize = 56;

/// One recorded cache decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRow {
    /// Decision time in simulated nanoseconds.
    pub t_ns: u64,
    /// Node whose cache decided.
    pub node: u64,
    /// Operation, one of [`OPS`].
    pub op: String,
    /// Provenance / purpose / cause, or `-`.
    pub kind: String,
    /// Looked-up destination, or `-`.
    pub dst: String,
    /// Route (`0-1-2`) or link (`a>b`), or `-`.
    pub route: String,
    /// Oracle verdict; `None` renders `-` (lookup misses).
    pub valid: Option<bool>,
    /// Staleness latency in nanoseconds; `None` renders `-`.
    pub stale_ns: Option<u64>,
}

impl CacheRow {
    /// Appends the row's text (no newline) to `out`, allocating nothing
    /// beyond what `out` needs to grow.
    fn render_into(&self, out: &mut String) {
        const INFALLIBLE: &str = "writing to a String cannot fail";
        let CacheRow { t_ns, node, op, kind, dst, route, valid, stale_ns } = self;
        write!(out, "{t_ns} {node} {op} {kind} {dst} {route} ").expect(INFALLIBLE);
        out.push_str(match valid {
            Some(true) => "1 ",
            Some(false) => "0 ",
            None => "- ",
        });
        match stale_ns {
            Some(ns) => write!(out, "{ns}").expect(INFALLIBLE),
            None => out.push('-'),
        }
    }

    fn parse(line_no: usize, line: &str) -> Result<CacheRow, ObsError> {
        let bad = || ObsError::BadRow { line_no, line: line.to_string() };
        let mut fields = line.split_whitespace();
        let mut field = || fields.next().ok_or_else(bad);
        let t_ns = field()?.parse().map_err(|_| bad())?;
        let node = field()?.parse().map_err(|_| bad())?;
        let op = field()?;
        if !OPS.contains(&op) {
            return Err(bad());
        }
        let (kind, dst, route) = (field()?, field()?, field()?);
        let valid = match field()? {
            "1" => Some(true),
            "0" => Some(false),
            "-" => None,
            _ => return Err(bad()),
        };
        let stale_ns = match field()? {
            "-" => None,
            raw => Some(raw.parse().map_err(|_| bad())?),
        };
        if fields.next().is_some() {
            return Err(bad());
        }
        Ok(CacheRow {
            t_ns,
            node,
            op: op.to_string(),
            kind: kind.to_string(),
            dst: dst.to_string(),
            route: route.to_string(),
            valid,
            stale_ns,
        })
    }
}

/// A complete per-run cache-decision trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheTrace {
    /// Scenario label (e.g. `DSR-NC`).
    pub label: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// `config_fingerprint` of the scenario (seed excluded).
    pub fingerprint: u64,
    /// Decisions in event-dispatch order.
    pub rows: Vec<CacheRow>,
    /// Rows discarded after the recorder's deterministic cap filled. A
    /// non-zero value is surfaced (never silently hidden) so a truncated
    /// trace cannot masquerade as full coverage.
    pub dropped: u64,
}

impl CacheTrace {
    /// The header.
    fn block(&self) -> KvBlock {
        let mut block = KvBlock::new();
        block.push("format", FORMAT_HEADER);
        block.push("label", escape(&self.label));
        block.push("seed", self.seed.to_string());
        block.push("fingerprint", format!("{:016x}", self.fingerprint));
        block.push("columns", COLUMNS.join(" "));
        block.push("dropped", self.dropped.to_string());
        block.push("rows", self.rows.len().to_string());
        block
    }

    /// Renders the full file, header and rows.
    pub fn render(&self) -> String {
        let mut out = self.block().render();
        out.reserve(self.rows.len() * TYPICAL_ROW_BYTES);
        for row in &self.rows {
            row.render_into(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a rendered trace, validating header and row shape; a key
    /// [`CacheTrace::render`] would not write is [`ObsError::BadValue`].
    pub fn parse(text: &str) -> Result<CacheTrace, ObsError> {
        let mut rows = Vec::new();
        let block = KvBlock::parse_with_rows(text, |line_no, line| {
            rows.push(CacheRow::parse(line_no, line)?);
            Ok(())
        })?;
        block.require_format(FORMAT_HEADER)?;
        let declared: usize = block.require_parsed("rows")?;
        if declared != rows.len() {
            return Err(ObsError::BadValue {
                key: "rows".to_string(),
                value: format!("declared {declared}, found {}", rows.len()),
            });
        }
        let trace = CacheTrace {
            label: block.get_string("label")?,
            seed: block.require_parsed("seed")?,
            fingerprint: block.require_hex("fingerprint")?,
            rows,
            dropped: block.require_parsed("dropped")?,
        };
        block.refuse_keys_not_in(&trace.block())?;
        Ok(trace)
    }

    /// Canonical file name: `<label>_<fingerprint>_seed<seed>.cachetrace`,
    /// the same stem as the run's forensic artifact and time series.
    pub fn file_name(&self) -> String {
        format!("{}_{:016x}_seed{}.cachetrace", sanitize(&self.label), self.fingerprint, self.seed)
    }

    /// Writes the trace into `dir` (created if needed) under
    /// [`CacheTrace::file_name`]; returns the full path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Loads and parses a trace from disk.
    pub fn load(path: &Path) -> Result<CacheTrace, ObsError> {
        CacheTrace::parse(&std::fs::read_to_string(path)?)
    }
}

/// Per-strategy aggregation over one or more cache traces: the numbers
/// behind the "why the strategies differ" table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheRollup {
    /// Strategy label the rollup covers.
    pub label: String,
    /// Traces folded in.
    pub traces: u64,
    /// Rows the recorders dropped past their cap, summed (non-zero means
    /// the rollup undercounts and must be reported as partial).
    pub dropped: u64,
    /// Inserts per provenance, `(provenance, count)` in first-seen order.
    pub inserts: Vec<(String, u64)>,
    /// Lookup hits whose route the oracle deemed fully up.
    pub hits_fresh: u64,
    /// Lookup hits handing out an already-broken route (stale-at-use).
    pub hits_stale: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Link purges per cause, `(cause, count)` in first-seen order.
    pub removals: Vec<(String, u64)>,
    /// Purges of links the oracle says were still up (premature purges —
    /// the cache threw away a working route).
    pub premature_purges: u64,
    /// Timer-expiry prunes.
    pub expires: u64,
    /// Capacity evictions.
    pub evicts: u64,
    /// `mark_used` refreshes.
    pub refreshes: u64,
    /// Multipath failovers: alternates promoted after a link purge.
    pub failovers: u64,
    /// Staleness latencies (ns) of genuinely broken purged links, unsorted.
    pub stale_latencies_ns: Vec<u64>,
}

fn bump(slots: &mut Vec<(String, u64)>, key: &str) {
    match slots.iter_mut().find(|(k, _)| k == key) {
        Some((_, n)) => *n += 1,
        None => slots.push((key.to_string(), 1)),
    }
}

impl CacheRollup {
    /// An empty rollup for `label`.
    pub fn new(label: impl Into<String>) -> Self {
        CacheRollup { label: label.into(), ..CacheRollup::default() }
    }

    /// Folds one trace's rows in.
    pub fn add(&mut self, trace: &CacheTrace) {
        self.traces += 1;
        self.dropped += trace.dropped;
        for row in &trace.rows {
            match row.op.as_str() {
                "insert" => bump(&mut self.inserts, &row.kind),
                "lookup" => match row.valid {
                    Some(true) => self.hits_fresh += 1,
                    Some(false) => self.hits_stale += 1,
                    None => self.misses += 1,
                },
                "remove" => {
                    bump(&mut self.removals, &row.kind);
                    match row.valid {
                        Some(true) => self.premature_purges += 1,
                        Some(false) => {
                            if let Some(ns) = row.stale_ns {
                                self.stale_latencies_ns.push(ns);
                            }
                        }
                        None => {}
                    }
                }
                "expire" => self.expires += 1,
                "evict" => self.evicts += 1,
                "refresh" => self.refreshes += 1,
                "failover" => self.failovers += 1,
                _ => {}
            }
        }
    }

    /// Total lookup hits, fresh and stale.
    pub fn hits(&self) -> u64 {
        self.hits_fresh + self.hits_stale
    }

    /// Fraction of hits that handed out a broken route, in `[0, 1]`
    /// (`0` when there were no hits).
    pub fn stale_hit_fraction(&self) -> f64 {
        if self.hits() == 0 {
            0.0
        } else {
            self.hits_stale as f64 / self.hits() as f64
        }
    }

    /// Nearest-rank quantile of the staleness latency in nanoseconds
    /// (`None` with no broken-link purges recorded).
    pub fn stale_latency_ns(&self, q: f64) -> Option<u64> {
        if self.stale_latencies_ns.is_empty() {
            return None;
        }
        let mut sorted = self.stale_latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        Some(sorted[rank.min(sorted.len()) - 1])
    }

    /// Insert count for one provenance.
    pub fn inserts_of(&self, provenance: &str) -> u64 {
        self.inserts.iter().find(|(k, _)| k == provenance).map_or(0, |(_, n)| *n)
    }

    /// Removal count for one cause.
    pub fn removals_of(&self, cause: &str) -> u64 {
        self.removals.iter().find(|(k, _)| k == cause).map_or(0, |(_, n)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        t_ns: u64,
        op: &str,
        kind: &str,
        valid: Option<bool>,
        stale_ns: Option<u64>,
    ) -> CacheRow {
        CacheRow {
            t_ns,
            node: 5,
            op: op.to_string(),
            kind: kind.to_string(),
            dst: if op == "lookup" { "2".to_string() } else { "-".to_string() },
            route: if op == "remove" { "5>3".to_string() } else { "5-3-2".to_string() },
            valid,
            stale_ns,
        }
    }

    fn sample_trace() -> CacheTrace {
        CacheTrace {
            label: "DSR-NC quick".to_string(),
            seed: 3,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            rows: vec![
                row(1_000_000, "insert", "overheard", Some(true), None),
                row(1_500_000, "insert", "reply", Some(true), None),
                row(2_000_000, "lookup", "origination", Some(false), None),
                row(2_100_000, "lookup", "origination", Some(true), None),
                row(2_200_000, "lookup", "salvage", None, None),
                row(3_000_000, "remove", "mac", Some(false), Some(1_500_000)),
                row(3_100_000, "remove", "wider", Some(true), Some(0)),
                row(4_000_000, "expire", "-", Some(false), None),
                row(4_100_000, "evict", "-", Some(true), None),
                row(4_200_000, "refresh", "-", Some(true), None),
                row(4_500_000, "failover", "-", Some(true), None),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        let trace = sample_trace();
        let text = trace.render();
        let parsed = CacheTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn file_name_shares_the_forensic_stem() {
        assert_eq!(sample_trace().file_name(), "DSR-NC_quick_deadbeef01234567_seed3.cachetrace");
    }

    #[test]
    fn a_key_the_writer_does_not_write_is_refused() {
        let text = sample_trace().render();
        let extra = text.replacen("seed = 3\n", "seed = 3\ncap = 100\n", 1);
        let twice = text.replacen("seed = 3\n", "seed = 3\nseed = 4\n", 1);
        for (text, key) in [(extra, "cap"), (twice, "seed")] {
            match CacheTrace::parse(&text) {
                Err(ObsError::BadValue { key: found, .. }) => assert_eq!(found, key),
                other => panic!("{key}: {other:?}"),
            }
        }
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("obs_ct_{}", std::process::id()));
        let trace = sample_trace();
        let path = trace.write_to(&dir).unwrap();
        let loaded = CacheTrace::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(CacheTrace::parse("format = wrong v9\nrows = 0\ndropped = 0\n").is_err());
        let trace = sample_trace();
        let mut text = trace.render();
        text.push_str("1 2 3\n"); // short row
        assert!(CacheTrace::parse(&text).is_err());
        let text = trace.render().replace("rows = 11", "rows = 12");
        assert!(CacheTrace::parse(&text).is_err());
        // Unknown op and bad valid flag are rejected, not silently kept.
        let text = trace.render().replace(" insert ", " implode ");
        assert!(CacheTrace::parse(&text).is_err());
        let text = trace.render().replacen(" 1 -\n", " 2 -\n", 1);
        assert!(CacheTrace::parse(&text).is_err());
        // Each malformed shape of the first row (line 8, after the seven
        // header lines) is refused as that row, quoted whole.
        let good = "1000000 5 insert overheard - 5-3-2 1 -";
        for bad in [
            "1000000 5 insert overheard - 5-3-2 1",     // 7 fields
            "1000000 5 insert overheard - 5-3-2 1 - -", // 9 fields
            "1000000 5 implode overheard - 5-3-2 1 -",  // unknown op
            "1000000 5 suppress insert 2 5-3-2 1 -",    // retired with route suppression
            "1000000 5 insert overheard - 5-3-2 yes -", // bad valid cell
            "1000000 5 insert overheard - 5-3-2 1 1.5", // bad stale_ns cell
            "1e6 5 insert overheard - 5-3-2 1 -",       // bad t_ns cell
        ] {
            let text = trace.render().replacen(good, bad, 1);
            match CacheTrace::parse(&text) {
                Err(ObsError::BadRow { line_no: 8, line }) => assert_eq!(line, bad),
                other => panic!("`{bad}` parsed to {other:?}"),
            }
        }
    }

    /// The expression `CacheRow::render` was before it wrote straight into
    /// the file buffer: three temporaries and a `format!` per row.
    fn render_with_format(row: &CacheRow) -> String {
        let valid = match row.valid {
            Some(true) => "1".to_string(),
            Some(false) => "0".to_string(),
            None => "-".to_string(),
        };
        let stale = match row.stale_ns {
            Some(ns) => ns.to_string(),
            None => "-".to_string(),
        };
        format!(
            "{} {} {} {} {} {} {valid} {stale}",
            row.t_ns, row.node, row.op, row.kind, row.dst, row.route
        )
    }

    #[test]
    fn rows_render_byte_identically_to_the_format_expression() {
        let mut rng = sim_core::RngFactory::new(17).stream("cachetrace-render", 0);
        let mut below = |n: u64| sim_core::rng::uniform(&mut rng, 0.0, n as f64) as u64;
        let kinds = ["-", "overheard", "origination", "neg-veto", "reply"];
        let mut rows = Vec::new();
        for _ in 0..2_000 {
            let hops: Vec<String> = (0..1 + below(9)).map(|_| below(1_000).to_string()).collect();
            // Timestamps and latencies of every width from 1 digit to 20.
            let (t_shift, stale_shift) = (below(64), below(64));
            let (t_ns, stale_ns) = (below(u64::MAX >> t_shift), below(u64::MAX >> stale_shift));
            rows.push(CacheRow {
                t_ns,
                node: below(100),
                op: OPS[below(OPS.len() as u64) as usize].to_string(),
                kind: kinds[below(kinds.len() as u64) as usize].to_string(),
                dst: if below(2) == 0 { "-".to_string() } else { below(100).to_string() },
                route: hops.join(if below(4) == 0 { ">" } else { "-" }),
                valid: [None, Some(false), Some(true)][below(3) as usize],
                stale_ns: (below(2) == 0).then_some(stale_ns),
            });
        }
        let mut expected = String::new();
        for row in &rows {
            let mut line = String::new();
            row.render_into(&mut line);
            assert_eq!(line, render_with_format(row));
            expected.push_str(&line);
            expected.push('\n');
        }
        // The file body is those lines and nothing else, and it parses back.
        let trace = CacheTrace { rows, ..sample_trace() };
        let text = trace.render();
        assert!(text.ends_with(&format!("rows = 2000\n{expected}")));
        assert_eq!(CacheTrace::parse(&text).unwrap(), trace);
    }

    #[test]
    fn rollup_classifies_every_op() {
        let mut rollup = CacheRollup::new("DSR-NC quick");
        rollup.add(&sample_trace());
        assert_eq!(rollup.traces, 1);
        assert_eq!(rollup.inserts_of("overheard"), 1);
        assert_eq!(rollup.inserts_of("reply"), 1);
        assert_eq!(rollup.inserts_of("gratuitous"), 0);
        assert_eq!(rollup.hits_fresh, 1);
        assert_eq!(rollup.hits_stale, 1);
        assert_eq!(rollup.misses, 1);
        assert!((rollup.stale_hit_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(rollup.removals_of("mac"), 1);
        assert_eq!(rollup.removals_of("wider"), 1);
        assert_eq!(rollup.premature_purges, 1);
        assert_eq!(rollup.expires, 1);
        assert_eq!(rollup.evicts, 1);
        assert_eq!(rollup.refreshes, 1);
        assert_eq!(rollup.failovers, 1);
        assert_eq!(rollup.stale_latency_ns(0.5), Some(1_500_000));
        assert_eq!(rollup.stale_latency_ns(0.99), Some(1_500_000));
    }

    #[test]
    fn rollup_latency_quantiles_use_nearest_rank() {
        let mut rollup = CacheRollup::new("x");
        rollup.stale_latencies_ns = vec![40, 10, 30, 20];
        assert_eq!(rollup.stale_latency_ns(0.5), Some(20));
        assert_eq!(rollup.stale_latency_ns(0.99), Some(40));
        assert_eq!(rollup.stale_latency_ns(0.0), Some(10));
        assert_eq!(CacheRollup::new("y").stale_latency_ns(0.5), None);
    }

    #[test]
    fn dropped_rows_are_carried_not_hidden() {
        let mut trace = sample_trace();
        trace.dropped = 7;
        let text = trace.render();
        assert!(text.contains("dropped = 7"));
        let mut rollup = CacheRollup::new(&trace.label);
        rollup.add(&trace);
        rollup.add(&trace);
        assert_eq!(rollup.dropped, 14);
    }

    #[test]
    fn empty_hit_fraction_is_zero() {
        assert_eq!(CacheRollup::new("x").stale_hit_fraction(), 0.0);
    }
}
