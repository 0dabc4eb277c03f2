//! The `dsr-timeseries v2` per-run gauge file and the sampler that fills it.
//!
//! One file is written per (scenario, seed) run when sampling is enabled.
//! The header is `key = value` lines (the [`crate::text`] grammar),
//! followed by one space-separated data row per sample boundary:
//!
//! ```text
//! format = dsr-timeseries v2
//! label = DSR
//! seed = 1
//! fingerprint = 00805db0365eff10
//! interval_ns = 5000000000
//! columns = t_s cache_entries cache_valid negative_entries send_buffer ifq_control ifq_data discoveries events originated delivered
//! rows = 2
//! 0.000000 0 0 0 0 0 0 0 0 0 0
//! 5.000000 12 9 1 0 0 2 1 4821 14 11
//! ```
//!
//! The first seven counts are gauges: what the nodes held at the boundary.
//! The last three are cumulative: what the run had done before it, so the
//! difference of two rows is the work of the interval between them. Every
//! count is summed over all nodes, so row content is independent of
//! per-node iteration order. Rows are stamped with the sample-boundary
//! time, not the event time that triggered the sample, so files from
//! identical (config, seed) pairs are byte-identical.
//!
//! The columns are [`SampleRow::TIME`] and [`SampleRow::COUNTS`], declared
//! with the struct: rendering, parsing and `trace_query`'s printer all
//! iterate them, so a column is added in one place. A `dsr-timeseries v1`
//! file (the nine columns before `originated`) is refused.

use crate::text::{escape, sanitize, KvBlock, ObsError};
use sim_core::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// First line of every time-series file.
pub const FORMAT_HEADER: &str = "dsr-timeseries v2";

/// One count column of a [`SampleRow`]: its name and accessors.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The struct field's name, as the `columns` header spells it.
    pub name: &'static str,
    /// Reads the column.
    pub get: fn(&SampleRow) -> u64,
    /// Writes the column; `false`, writing nothing, when the value does
    /// not fit the field.
    pub set: fn(&mut SampleRow, u64) -> bool,
}

/// Declares [`SampleRow`], [`SampleRow::TIME`] and [`SampleRow::COUNTS`]
/// from one list of the columns, in row order.
macro_rules! sample_row {
    (
        $(#[$time_doc:meta])* $time:ident;
        $($(#[$doc:meta])* $field:ident: $ty:ty,)+
    ) => {
        /// One sampled snapshot of the simulation, summed over all nodes.
        ///
        /// A gauge is a `u32`: what the nodes hold at once is bounded by
        /// their memory. A cumulative count grows with the run and is a
        /// `u64`. That keeps a row at 64 bytes, within the 72 of the nine
        /// `u64`-and-time row before `originated` and `delivered`.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct SampleRow {
            $(#[$time_doc])* pub $time: f64,
            $($(#[$doc])* pub $field: $ty,)+
        }

        impl SampleRow {
            /// The first column's name.
            pub const TIME: &'static str = stringify!($time);

            /// Every column after the first, in row order.
            pub const COUNTS: &'static [Column] = &[$(Column {
                name: stringify!($field),
                get: |r| u64::from(r.$field),
                set: |r, v| <$ty>::try_from(v).map(|v| r.$field = v).is_ok(),
            },)+];
        }
    };
}

sample_row! {
    /// Sample-boundary time in seconds (a multiple of the interval).
    t_s;
    /// Route-cache paths across all nodes.
    cache_entries: u32,
    /// The subset of `cache_entries` the mobility oracle deems currently
    /// usable end-to-end.
    cache_valid: u32,
    /// Live negative-cache entries across all nodes.
    negative_entries: u32,
    /// Packets parked in DSR send buffers awaiting a route.
    send_buffer: u32,
    /// Frames queued in MAC interface queues at control priority.
    ifq_control: u32,
    /// Frames queued in MAC interface queues at data priority.
    ifq_data: u32,
    /// Route discoveries currently in flight across all nodes.
    discoveries: u32,
    /// Events the simulator dispatched before the boundary (0 at `t_s = 0`).
    events: u64,
    /// CBR packets originated so far (the counter behind
    /// `Report::originated`).
    originated: u64,
    /// CBR packets delivered so far, duplicates excluded (the counter
    /// behind `Report::delivered`).
    delivered: u64,
}

impl SampleRow {
    /// Every column name, space-separated, in row order: the `columns`
    /// header value.
    pub fn header() -> String {
        let mut out = SampleRow::TIME.to_string();
        for column in SampleRow::COUNTS {
            out.push(' ');
            out.push_str(column.name);
        }
        out
    }

    /// The row's data line, without its newline.
    pub fn render(&self) -> String {
        let mut out = format!("{:.6}", self.t_s);
        for column in SampleRow::COUNTS {
            let _ = write!(out, " {}", (column.get)(self));
        }
        out
    }

    fn parse(line_no: usize, line: &str) -> Result<SampleRow, ObsError> {
        let bad = || ObsError::BadRow { line_no, line: line.to_string() };
        let mut fields = line.split_whitespace();
        let t_s = fields.next().ok_or_else(bad)?;
        let mut row = SampleRow { t_s: t_s.parse().map_err(|_| bad())?, ..SampleRow::default() };
        for column in SampleRow::COUNTS {
            let raw = fields.next().ok_or_else(bad)?;
            if !(column.set)(&mut row, raw.parse().map_err(|_| bad())?) {
                return Err(bad());
            }
        }
        match fields.next() {
            Some(_) => Err(bad()),
            None => Ok(row),
        }
    }
}

/// A complete per-run time series: identification header plus sampled rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Scenario label (e.g. `DSR-AE`).
    pub label: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// `config_fingerprint` of the scenario (seed excluded), for matching
    /// series to journals and forensic artifacts.
    pub fingerprint: u64,
    /// Sampling interval in simulated nanoseconds.
    pub interval_ns: u64,
    /// Sampled rows in time order.
    pub rows: Vec<SampleRow>,
}

impl TimeSeries {
    /// The header.
    fn block(&self) -> KvBlock {
        let mut block = KvBlock::new();
        block.push("format", FORMAT_HEADER);
        block.push("label", escape(&self.label));
        block.push("seed", self.seed.to_string());
        block.push("fingerprint", format!("{:016x}", self.fingerprint));
        block.push("interval_ns", self.interval_ns.to_string());
        block.push("columns", SampleRow::header());
        block.push("rows", self.rows.len().to_string());
        block
    }

    /// Renders the full file, header and rows.
    pub fn render(&self) -> String {
        let mut out = self.block().render();
        for row in &self.rows {
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }

    /// Parses a rendered time series, validating header and row shape; a
    /// key [`TimeSeries::render`] would not write, or a `columns` list
    /// other than [`SampleRow::header`], is [`ObsError::BadValue`].
    pub fn parse(text: &str) -> Result<TimeSeries, ObsError> {
        let mut rows = Vec::new();
        let block = KvBlock::parse_with_rows(text, |line_no, line| {
            rows.push(SampleRow::parse(line_no, line)?);
            Ok(())
        })?;
        block.require_format(FORMAT_HEADER)?;
        let columns = block.require("columns")?;
        if columns != SampleRow::header() {
            return Err(ObsError::BadValue {
                key: "columns".to_string(),
                value: columns.to_string(),
            });
        }
        let declared: usize = block.require_parsed("rows")?;
        if declared != rows.len() {
            return Err(ObsError::BadValue {
                key: "rows".to_string(),
                value: format!("declared {declared}, found {}", rows.len()),
            });
        }
        let series = TimeSeries {
            label: block.get_string("label")?,
            seed: block.require_parsed("seed")?,
            fingerprint: block.require_hex("fingerprint")?,
            interval_ns: block.require_parsed("interval_ns")?,
            rows,
        };
        block.refuse_keys_not_in(&series.block())?;
        Ok(series)
    }

    /// Canonical file name: `<label>_<fingerprint>_seed<seed>.timeseries`,
    /// label sanitized the same way as forensic artifacts.
    pub fn file_name(&self) -> String {
        format!("{}_{:016x}_seed{}.timeseries", sanitize(&self.label), self.fingerprint, self.seed)
    }

    /// Writes the series into `dir` (created if needed) under
    /// [`TimeSeries::file_name`]; returns the full path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Loads and parses a series from disk.
    pub fn load(path: &Path) -> Result<TimeSeries, ObsError> {
        TimeSeries::parse(&std::fs::read_to_string(path)?)
    }

    /// `(start_s, originated, delivered)` for each interval between
    /// consecutive rows: the differences of their cumulative counts.
    pub fn delivery_by_interval(&self) -> Vec<(f64, u64, u64)> {
        self.rows
            .windows(2)
            .map(|w| (w[0].t_s, w[1].originated - w[0].originated, w[1].delivered - w[0].delivered))
            .collect()
    }

    /// Rows whose boundary time falls in `[from, to]` (either bound may be
    /// `None` for open-ended).
    pub fn rows_in_window(&self, from: Option<f64>, to: Option<f64>) -> Vec<&SampleRow> {
        self.rows
            .iter()
            .filter(|r| from.is_none_or(|f| r.t_s >= f) && to.is_none_or(|t| r.t_s <= t))
            .collect()
    }
}

/// Incremental builder driven by the runner's event loop.
///
/// The runner calls [`Sampler::due`] before dispatching each event and, for
/// every elapsed boundary, collects gauges and calls [`Sampler::push`]. The
/// boundary clock advances in exact integer-nanosecond steps so float error
/// can never skew row timestamps.
#[derive(Debug)]
pub struct Sampler {
    interval: SimDuration,
    next: SimTime,
    filled: TimeSeries,
}

impl Sampler {
    /// Creates a sampler whose first boundary is `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        fingerprint: u64,
        interval: SimDuration,
    ) -> Self {
        assert!(interval > SimDuration::ZERO, "sampling interval must be positive");
        Sampler {
            interval,
            next: SimTime::ZERO,
            filled: TimeSeries {
                label: label.into(),
                seed,
                fingerprint,
                interval_ns: interval.as_nanos(),
                rows: Vec::new(),
            },
        }
    }

    /// True when at least one boundary is due at or before `at`.
    pub fn due(&self, at: SimTime) -> bool {
        self.next <= at
    }

    /// The next boundary's timestamp; rows pushed now are stamped with it.
    pub fn boundary(&self) -> SimTime {
        self.next
    }

    /// Records the gauges for the current boundary and advances to the next.
    /// The row's `t_s` is overwritten with the boundary time.
    pub fn push(&mut self, mut row: SampleRow) {
        row.t_s = self.next.as_secs();
        self.filled.rows.push(row);
        self.next += self.interval;
    }

    /// Finalizes the series. Row timestamps render at fixed `{:.6}`
    /// precision (microseconds), which is exact for any boundary of a
    /// microsecond-aligned interval.
    pub fn finish(self) -> TimeSeries {
        self.filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> TimeSeries {
        let mut sampler =
            Sampler::new("DSR-AE", 7, 0xDEAD_BEEF_0123_4567, SimDuration::from_secs(5.0));
        assert!(sampler.due(SimTime::ZERO));
        sampler.push(SampleRow { events: 0, ..SampleRow::default() });
        assert!(!sampler.due(SimTime::from_secs(4.9)));
        assert!(sampler.due(SimTime::from_secs(5.0)));
        sampler.push(SampleRow {
            cache_entries: 12,
            cache_valid: 9,
            negative_entries: 1,
            ifq_control: 2,
            ifq_data: 1,
            discoveries: 1,
            events: 4821,
            originated: 14,
            delivered: 11,
            ..SampleRow::default()
        });
        sampler.finish()
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        let series = sample_series();
        let text = series.render();
        let parsed = TimeSeries::parse(&text).unwrap();
        assert_eq!(parsed, series);
        assert_eq!(parsed.render(), text);
    }

    /// Every column gets its own value, so a column that renders or parses
    /// into another's place, or not at all, changes the row.
    #[test]
    fn each_column_round_trips_into_its_own_field() {
        let mut row = SampleRow { t_s: 35.0, ..SampleRow::default() };
        for (i, column) in SampleRow::COUNTS.iter().enumerate() {
            assert!((column.set)(&mut row, 1000 + i as u64), "{}", column.name);
        }
        let values: Vec<u64> = SampleRow::COUNTS.iter().map(|c| (c.get)(&row)).collect();
        let distinct: std::collections::BTreeSet<u64> = values.iter().copied().collect();
        assert_eq!(distinct.len(), SampleRow::COUNTS.len(), "a setter wrote another's field");
        let line = row.render();
        assert_eq!(line.split(' ').count(), 1 + SampleRow::COUNTS.len());
        assert_eq!(SampleRow::parse(1, &line).unwrap(), row);
        let series = TimeSeries {
            label: "DSR".into(),
            seed: 1,
            fingerprint: 2,
            interval_ns: 5_000_000_000,
            rows: vec![row],
        };
        assert_eq!(TimeSeries::parse(&series.render()).unwrap().rows, [row]);
    }

    /// The sampler keeps every row of a run: a wider row shows in the
    /// heap ceiling of a sampled run.
    #[test]
    fn row_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<SampleRow>(), 64);
    }

    #[test]
    fn the_header_names_every_column_once_in_row_order() {
        let header = SampleRow::header();
        let names: Vec<&str> = header.split(' ').collect();
        assert_eq!(names.len(), 1 + SampleRow::COUNTS.len());
        assert_eq!(names[0], SampleRow::TIME);
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        assert_eq!(&names[names.len() - 3..], ["events", "originated", "delivered"]);
    }

    /// A v1 file, a row of the nine v1 fields, a gauge too wide for its
    /// field and a `columns` list other than this version's are all
    /// refused, not read into the wrong fields.
    #[test]
    fn other_schemas_are_refused() {
        let text = sample_series().render();
        let v1 = text.replacen(FORMAT_HEADER, "dsr-timeseries v1", 1);
        assert!(matches!(TimeSeries::parse(&v1), Err(ObsError::BadHeader { .. })), "v1 header");
        let nine = text.replacen(" 4821 14 11\n", " 4821\n", 1);
        assert_ne!(nine, text);
        assert!(matches!(TimeSeries::parse(&nine), Err(ObsError::BadRow { .. })), "9 fields");
        let twelve = text.replacen(" 4821 14 11\n", " 4821 14 11 3\n", 1);
        assert_ne!(twelve, text);
        assert!(matches!(TimeSeries::parse(&twelve), Err(ObsError::BadRow { .. })), "12 fields");
        let wide = text.replacen("\n5.000000 12 ", "\n5.000000 4294967296 ", 1);
        assert_ne!(wide, text);
        assert!(matches!(TimeSeries::parse(&wide), Err(ObsError::BadRow { .. })), "gauge > u32");
        let swapped = text.replacen("originated delivered", "delivered originated", 1);
        assert_ne!(swapped, text);
        match TimeSeries::parse(&swapped) {
            Err(ObsError::BadValue { key, .. }) => assert_eq!(key, "columns"),
            other => panic!("swapped columns: {other:?}"),
        }
    }

    #[test]
    fn rows_are_stamped_with_boundary_times() {
        let series = sample_series();
        assert_eq!(series.rows[0].t_s, 0.0);
        assert_eq!(series.rows[1].t_s, 5.0);
        assert_eq!(series.interval_ns, 5_000_000_000);
    }

    #[test]
    fn intervals_are_the_differences_of_the_cumulative_counts() {
        let mut series = sample_series();
        let last = series.rows[1];
        series.rows.push(SampleRow { t_s: 10.0, originated: 20, delivered: 19, ..last });
        assert_eq!(series.delivery_by_interval(), [(0.0, 14, 11), (5.0, 6, 8)]);
    }

    #[test]
    fn file_name_is_sanitized_and_unique_per_seed() {
        let series = sample_series();
        assert_eq!(series.file_name(), "DSR-AE_deadbeef01234567_seed7.timeseries");
    }

    #[test]
    fn window_filter_is_inclusive() {
        let series = sample_series();
        assert_eq!(series.rows_in_window(None, None).len(), 2);
        assert_eq!(series.rows_in_window(Some(0.1), None).len(), 1);
        assert_eq!(series.rows_in_window(None, Some(4.9)).len(), 1);
        assert_eq!(series.rows_in_window(Some(5.0), Some(5.0)).len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(TimeSeries::parse("format = wrong v9\nrows = 0\n").is_err());
        let series = sample_series();
        let mut text = series.render();
        text.push_str("1.0 2 3\n"); // short row
        assert!(TimeSeries::parse(&text).is_err());
        // Row-count mismatch.
        let text = series.render().replace("rows = 2", "rows = 3");
        assert!(TimeSeries::parse(&text).is_err());
    }

    #[test]
    fn a_key_the_writer_does_not_write_is_refused() {
        let text = sample_series().render();
        let extra = text.replacen("seed = 7\n", "seed = 7\nmode = sampled\n", 1);
        let twice = text.replacen("seed = 7\n", "seed = 7\nseed = 8\n", 1);
        for (text, key) in [(extra, "mode"), (twice, "seed")] {
            match TimeSeries::parse(&text) {
                Err(ObsError::BadValue { key: found, .. }) => assert_eq!(found, key),
                other => panic!("{key}: {other:?}"),
            }
        }
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("obs_ts_{}", std::process::id()));
        let series = sample_series();
        let path = series.write_to(&dir).unwrap();
        let loaded = TimeSeries::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, series);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        let _ = Sampler::new("x", 0, 0, SimDuration::ZERO);
    }
}
