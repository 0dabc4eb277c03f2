//! The `dsr-timeseries v1` per-run gauge file and the sampler that fills it.
//!
//! One file is written per (scenario, seed) run when sampling is enabled.
//! The header is `key = value` lines (the [`crate::text`] grammar),
//! followed by one space-separated data row per sample boundary:
//!
//! ```text
//! format = dsr-timeseries v1
//! label = DSR
//! seed = 1
//! fingerprint = 00805db0365eff10
//! interval_ns = 5000000000
//! columns = t_s cache_entries cache_valid negative_entries send_buffer ifq_control ifq_data discoveries events
//! rows = 2
//! 0.000000 0 0 0 0 0 0 0 0
//! 5.000000 12 9 1 0 0 2 1 4821
//! ```
//!
//! Every gauge is an aggregate count summed over all nodes, so row content
//! is independent of per-node iteration order (the link cache's internal
//! `HashMap` iterates nondeterministically, but a *count* of its entries is
//! stable). Rows are stamped with the sample-boundary time, not the event
//! time that triggered the sample, so files from identical (config, seed)
//! pairs are byte-identical.

use crate::text::{escape, sanitize, KvBlock, ObsError};
use sim_core::{SimDuration, SimTime};
use std::path::{Path, PathBuf};

/// First line of every time-series file.
pub const FORMAT_HEADER: &str = "dsr-timeseries v1";

/// Space-separated column names, in row order.
pub const COLUMNS: &[&str] = &[
    "t_s",
    "cache_entries",
    "cache_valid",
    "negative_entries",
    "send_buffer",
    "ifq_control",
    "ifq_data",
    "discoveries",
    "events",
];

/// One sampled snapshot of the simulation's per-layer gauges, summed over
/// all nodes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleRow {
    /// Sample-boundary time in seconds (a multiple of the interval).
    pub t_s: f64,
    /// Route-cache entries across all nodes (path entries, or links for a
    /// link cache).
    pub cache_entries: u64,
    /// The subset of `cache_entries` the mobility oracle deems currently
    /// usable end-to-end.
    pub cache_valid: u64,
    /// Live negative-cache entries across all nodes.
    pub negative_entries: u64,
    /// Packets parked in DSR send buffers awaiting a route.
    pub send_buffer: u64,
    /// Frames queued in MAC interface queues at control priority.
    pub ifq_control: u64,
    /// Frames queued in MAC interface queues at data priority.
    pub ifq_data: u64,
    /// Route discoveries currently in flight across all nodes.
    pub discoveries: u64,
    /// Events dispatched by the simulator so far.
    pub events: u64,
}

impl SampleRow {
    fn render(&self) -> String {
        format!(
            "{:.6} {} {} {} {} {} {} {} {}",
            self.t_s,
            self.cache_entries,
            self.cache_valid,
            self.negative_entries,
            self.send_buffer,
            self.ifq_control,
            self.ifq_data,
            self.discoveries,
            self.events
        )
    }

    fn parse(line_no: usize, line: &str) -> Result<SampleRow, ObsError> {
        let bad = || ObsError::BadRow { line_no, line: line.to_string() };
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != COLUMNS.len() {
            return Err(bad());
        }
        let t_s: f64 = fields[0].parse().map_err(|_| bad())?;
        let mut ints = [0u64; 8];
        for (slot, raw) in ints.iter_mut().zip(&fields[1..]) {
            *slot = raw.parse().map_err(|_| bad())?;
        }
        Ok(SampleRow {
            t_s,
            cache_entries: ints[0],
            cache_valid: ints[1],
            negative_entries: ints[2],
            send_buffer: ints[3],
            ifq_control: ints[4],
            ifq_data: ints[5],
            discoveries: ints[6],
            events: ints[7],
        })
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
        block.push("columns", COLUMNS.join(" "));
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
    /// key [`TimeSeries::render`] would not write is [`ObsError::BadValue`].
    pub fn parse(text: &str) -> Result<TimeSeries, ObsError> {
        let mut rows = Vec::new();
        let block = KvBlock::parse_with_rows(text, |line_no, line| {
            rows.push(SampleRow::parse(line_no, line)?);
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
    series: TimeSeries,
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
            series: TimeSeries {
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
        self.series.rows.push(row);
        self.next += self.interval;
    }

    /// Finalizes the series. Row timestamps render at fixed `{:.6}`
    /// precision (microseconds), which is exact for any boundary of a
    /// microsecond-aligned interval.
    pub fn finish(self) -> TimeSeries {
        self.series
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

    #[test]
    fn rows_are_stamped_with_boundary_times() {
        let series = sample_series();
        assert_eq!(series.rows[0].t_s, 0.0);
        assert_eq!(series.rows[1].t_s, 5.0);
        assert_eq!(series.interval_ns, 5_000_000_000);
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
