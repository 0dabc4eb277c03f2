//! Bench-regression gating over committed `BENCH_*.json` baselines.
//!
//! Campaign binaries emit a `BENCH_<table>.json` summary (see
//! `obs::Profile::to_bench_json`) whose headline number is
//! `events_per_wall_second`. The committed file under `results/` is the
//! performance baseline; the `bench_gate` binary compares a freshly
//! produced file against it and fails CI when throughput regresses beyond
//! a threshold, so hot-path regressions cannot land silently.
//!
//! The workspace deliberately carries no serde; BENCH files are written by
//! our own renderer with one `"key": value` pair per line, so a small
//! field extractor is all the parsing this needs (and it tolerates
//! reordered or extra fields).

/// The headline fields of a `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Campaign name (e.g. `table3_cache_quick`).
    pub name: String,
    /// Events dispatched across the campaign.
    pub events: u64,
    /// Wall-clock seconds spent in event loops.
    pub wall_seconds: f64,
    /// The gated metric.
    pub events_per_wall_second: f64,
    /// Scheduled-but-never-dispatched events (tombstoned cancellations
    /// plus the queue remainder at the horizon). `None` for baselines
    /// written before `dsr-profile v1` carried the field.
    pub cancelled: Option<u64>,
    /// `cancelled` as a fraction of scheduled queue events.
    pub cancel_ratio: Option<f64>,
    /// Timer re-arms the queue absorbed in place. `None` for baselines
    /// written before the queue counted them.
    pub postponed: Option<u64>,
    /// Stale keys the queue re-filed for those re-arms; `None` likewise.
    pub rekeyed: Option<u64>,
}

/// Extracts the first top-level `"key": <number>` field.
fn number_field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first top-level `"key": "<string>"` field.
fn string_field(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

impl BenchSummary {
    /// Parses a BENCH json document. Returns a description of the first
    /// missing or malformed field on failure.
    pub fn parse(json: &str) -> Result<Self, String> {
        let schema =
            string_field(json, "schema").ok_or_else(|| "missing \"schema\" field".to_string())?;
        if !schema.starts_with("dsr-profile") {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let number = |key: &str| {
            number_field(json, key).ok_or_else(|| format!("missing or malformed \"{key}\" field"))
        };
        Ok(BenchSummary {
            name: string_field(json, "name").ok_or_else(|| "missing \"name\" field".to_string())?,
            events: number("events")? as u64,
            wall_seconds: number("wall_seconds")?,
            events_per_wall_second: number("events_per_wall_second")?,
            cancelled: number_field(json, "cancelled").map(|v| v as u64),
            cancel_ratio: number_field(json, "cancel_ratio"),
            postponed: number_field(json, "postponed").map(|v| v as u64),
            rekeyed: number_field(json, "rekeyed").map(|v| v as u64),
        })
    }

    /// Human-readable cancellation figure for gate output, e.g.
    /// `"40371469 cancelled (12.1%), 6070000 postponed, 2070000 re-keyed"`,
    /// with a placeholder for whatever a baseline predates.
    pub fn cancel_summary(&self) -> String {
        let cancelled = match (self.cancelled, self.cancel_ratio) {
            (Some(n), Some(r)) => format!("{n} cancelled ({:.1}%)", r * 100.0),
            _ => "cancelled: n/a".to_string(),
        };
        match (self.postponed, self.rekeyed) {
            (Some(p), Some(k)) => format!("{cancelled}, {p} postponed, {k} re-keyed"),
            _ => format!("{cancelled}, postponed: n/a"),
        }
    }
}

/// The verdict of comparing a fresh BENCH file against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Throughput is within the threshold (or improved).
    Pass {
        /// Fractional change in events/s, positive = faster.
        change: f64,
    },
    /// Throughput regressed beyond the threshold.
    Regressed {
        /// Fractional change in events/s (negative).
        change: f64,
        /// The configured limit as a positive fraction.
        threshold: f64,
    },
}

impl GateOutcome {
    /// Whether the gate lets the change through.
    pub fn passed(&self) -> bool {
        matches!(self, GateOutcome::Pass { .. })
    }
}

/// Gates `fresh` against `baseline`: fails when events/s dropped by more
/// than `threshold` (a positive fraction, e.g. `0.15` for −15%).
///
/// # Panics
///
/// Panics if `threshold` is not a finite non-negative fraction or the
/// baseline throughput is not positive (a corrupt baseline must fail
/// loudly, not pass vacuously).
pub fn gate(baseline: &BenchSummary, fresh: &BenchSummary, threshold: f64) -> GateOutcome {
    assert!(threshold.is_finite() && threshold >= 0.0, "invalid threshold {threshold}");
    assert!(
        baseline.events_per_wall_second > 0.0,
        "baseline throughput must be positive, got {}",
        baseline.events_per_wall_second
    );
    let change = (fresh.events_per_wall_second - baseline.events_per_wall_second)
        / baseline.events_per_wall_second;
    if change < -threshold {
        GateOutcome::Regressed { change, threshold }
    } else {
        GateOutcome::Pass { change }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(rate: f64) -> String {
        // Shape mirrors obs::Profile::to_bench_json.
        format!(
            "{{\n  \"schema\": \"dsr-profile v1\",\n  \"name\": \"table3_cache_quick\",\n  \
             \"runs\": 10,\n  \"runs_failed\": 0,\n  \"sim_seconds\": 1200.0,\n  \
             \"wall_seconds\": 100.5,\n  \"events\": 1000000,\n  \"scheduled\": 1100000,\n  \
             \"events_per_wall_second\": {rate},\n  \"kinds\": [],\n  \"drops\": [],\n  \
             \"traces\": []\n}}\n"
        )
    }

    #[test]
    fn parses_rendered_bench_json() {
        let s = BenchSummary::parse(&bench_json(1485503.77)).unwrap();
        assert_eq!(s.name, "table3_cache_quick");
        assert_eq!(s.events, 1_000_000);
        assert_eq!(s.wall_seconds, 100.5);
        assert_eq!(s.events_per_wall_second, 1485503.77);
        // Pre-cancellation baselines stay parseable, with the new fields
        // absent rather than fabricated.
        assert_eq!(s.cancelled, None);
        assert_eq!(s.cancel_ratio, None);
        assert_eq!((s.postponed, s.rekeyed), (None, None));
        assert_eq!(s.cancel_summary(), "cancelled: n/a, postponed: n/a");
    }

    #[test]
    fn parses_cancellation_fields_when_present() {
        // `paired_runs` is a retired field the committed baselines still
        // carry: extra fields must not disturb the ones read.
        let json = bench_json(2.0).replace(
            "\"scheduled\": 1100000,",
            "\"scheduled\": 1100000,\n  \"cancelled\": 100000,\n  \"paired_runs\": 0,\n  \
             \"cancel_ratio\": 0.0909,",
        );
        // A baseline from before the queue could postpone says so.
        let older = BenchSummary::parse(&json).unwrap();
        assert_eq!(older.cancel_summary(), "100000 cancelled (9.1%), postponed: n/a");
        let json = json.replace(
            "\"cancel_ratio\": 0.0909,",
            "\"cancel_ratio\": 0.0909,\n  \"postponed\": 60000,\n  \"rekeyed\": 20000,",
        );
        let s = BenchSummary::parse(&json).unwrap();
        assert_eq!(s.cancelled, Some(100_000));
        assert_eq!(s.cancel_ratio, Some(0.0909));
        assert_eq!((s.postponed, s.rekeyed), (Some(60_000), Some(20_000)));
        assert_eq!(s.cancel_summary(), "100000 cancelled (9.1%), 60000 postponed, 20000 re-keyed");
    }

    #[test]
    fn parse_round_trips_real_profile_output() {
        let p = obs::Profile {
            runs: 2,
            sim_seconds: 240.0,
            wall_seconds: 10.0,
            events: 5_000_000,
            scheduled: 6_000_000,
            timing_stride: 64,
            ..obs::Profile::default()
        };
        let s = BenchSummary::parse(&p.to_bench_json("smoke")).unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.events, 5_000_000);
        assert_eq!(s.events_per_wall_second, p.events_per_wall_second());
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        assert!(BenchSummary::parse("{}").is_err());
        assert!(BenchSummary::parse("{\"schema\": \"dsr-timeseries v1\"}").is_err());
        let truncated = bench_json(1.0).replace("\"events_per_wall_second\": 1,\n", "");
        assert!(BenchSummary::parse(&truncated).unwrap_err().contains("events_per_wall_second"));
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        let baseline = BenchSummary::parse(&bench_json(1_500_000.0)).unwrap();
        // 30% slower than baseline: well past the default 15% threshold.
        let regressed = BenchSummary::parse(&bench_json(1_050_000.0)).unwrap();
        let outcome = gate(&baseline, &regressed, 0.15);
        assert!(!outcome.passed());
        match outcome {
            GateOutcome::Regressed { change, threshold } => {
                assert!((change + 0.30).abs() < 1e-9);
                assert_eq!(threshold, 0.15);
            }
            GateOutcome::Pass { .. } => unreachable!(),
        }
    }

    #[test]
    fn small_noise_and_improvements_pass() {
        let baseline = BenchSummary::parse(&bench_json(1_500_000.0)).unwrap();
        let slightly_slower = BenchSummary::parse(&bench_json(1_400_000.0)).unwrap();
        assert!(gate(&baseline, &slightly_slower, 0.15).passed());
        let faster = BenchSummary::parse(&bench_json(2_000_000.0)).unwrap();
        match gate(&baseline, &faster, 0.15) {
            GateOutcome::Pass { change } => assert!(change > 0.3),
            GateOutcome::Regressed { .. } => unreachable!(),
        }
    }

    #[test]
    fn exact_threshold_is_not_a_regression() {
        let baseline = BenchSummary::parse(&bench_json(1_000_000.0)).unwrap();
        let at_limit = BenchSummary::parse(&bench_json(850_000.0)).unwrap();
        assert!(gate(&baseline, &at_limit, 0.15).passed());
    }

    #[test]
    #[should_panic(expected = "baseline throughput")]
    fn zero_baseline_is_rejected() {
        let baseline = BenchSummary::parse(&bench_json(0.0)).unwrap();
        let fresh = BenchSummary::parse(&bench_json(1.0)).unwrap();
        let _ = gate(&baseline, &fresh, 0.15);
    }
}
