//! Shared plumbing for the experiment harnesses.
//!
//! `dsr-exp <name>` regenerates one table or figure of the paper, or one
//! ablation, from the [`spec`] table; `chaos_soak` drives the same
//! plumbing by hand. They share:
//!
//! - [`ExpArgs`] — typed command-line parsing (`--quick`/`--full`,
//!   `--resume <journal>`, `--audit <level>`) with a usage message and a
//!   nonzero exit on bad input instead of a panic;
//! - [`ExpMode`] — `--quick` (time-compressed scenario, 2 seeds; the
//!   default) vs `--full` (the paper's exact 500 s / 5 seed setup);
//! - [`run_point`] — run one `(scenario, agent)` point across seeds as a
//!   crash-isolated campaign and average the survivors, echoing progress
//!   (and any per-seed failures) to stderr; failed runs leave repro
//!   artifacts under `results/forensics/`;
//! - [`Point`] — the mean report plus how many runs failed, so experiments
//!   emit partial CSVs instead of dying with the first bad seed;
//! - [`Table`] — aligned stdout tables plus CSV files under `results/`.

#![warn(unreachable_pub)]

pub mod spec;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use std::time::Duration;

use aodv::{AodvConfig, AodvNode};
use dsr::DsrConfig;
use metrics::{Metrics, Report};
use obs::{ObsConfig, ObsMode, Profile};
use runner::{
    run_campaign, run_campaign_with, AuditLevel, CampaignConfig, RunLimits, ScenarioConfig,
};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpMode {
    /// 120 simulated seconds, 2 seeds (same topology/workload as the
    /// paper). Minutes of wall clock; shapes preserved.
    Quick,
    /// The paper's full scale: 500 simulated seconds, 5 seeds. About
    /// 21–23 CPU-seconds a run on a 2-core x86-64 box: `table3_cache` (25
    /// runs) took 5 m 48 s – 6 m 08 s of wall at `--jobs 2`, and Fig. 2
    /// alone (150 runs) is about an hour of CPU.
    Full,
}

impl ExpMode {
    /// The seeds averaged per data point.
    pub fn seeds(self) -> Vec<u64> {
        match self {
            ExpMode::Quick => vec![1, 2],
            ExpMode::Full => vec![1, 2, 3, 4, 5],
        }
    }

    /// The base scenario for this mode.
    pub fn scenario(self, pause_s: f64, rate_pps: f64, dsr: DsrConfig) -> ScenarioConfig {
        match self {
            ExpMode::Quick => ScenarioConfig::quick(pause_s, rate_pps, dsr, 0),
            ExpMode::Full => ScenarioConfig::paper(pause_s, rate_pps, dsr, 0),
        }
    }

    /// Pause-time sweep (x-axis of Fig. 2), scaled to the mode's run
    /// length: a pause equal to the run length is a static network.
    pub fn pause_sweep(self) -> Vec<f64> {
        match self {
            ExpMode::Quick => vec![0.0, 10.0, 30.0, 60.0, 120.0],
            ExpMode::Full => vec![0.0, 30.0, 60.0, 120.0, 300.0, 500.0],
        }
    }

    /// Static-timeout sweep (x-axis of Fig. 1).
    pub fn timeout_sweep(self) -> Vec<f64> {
        match self {
            ExpMode::Quick => vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0],
            ExpMode::Full => vec![1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0],
        }
    }

    /// Per-flow rate sweep (x-axis of Fig. 4, as offered load).
    pub fn rate_sweep(self) -> Vec<f64> {
        match self {
            ExpMode::Quick => vec![1.0, 2.0, 3.0, 4.5, 6.0],
            ExpMode::Full => vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    }

    /// Mode name for filenames.
    pub fn tag(self) -> &'static str {
        match self {
            ExpMode::Quick => "quick",
            ExpMode::Full => "full",
        }
    }
}

/// A malformed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An argument no experiment understands.
    Unknown(String),
    /// A flag that takes a value appeared last.
    MissingValue(&'static str),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// The raw value.
        value: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Unknown(arg) => write!(f, "unknown argument '{arg}'"),
            ArgError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ArgError::BadValue { flag, value } => {
                write!(f, "invalid value '{value}' for {flag}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// Experiment scale (`--quick` default, `--full` for the paper's).
    pub mode: ExpMode,
    /// Campaign journal to resume from / record into (`--resume <path>`).
    pub resume: Option<PathBuf>,
    /// Packet-conservation audit level (`--audit off|counters|full`).
    pub audit: AuditLevel,
    /// Observability mode (`--obs off|sample[:secs]`, default off). When
    /// sampling, runs also emit per-run time-series files and the campaign
    /// prints live heartbeat lines to stderr.
    pub obs: ObsMode,
    /// Where per-run `dsr-timeseries v2` files land
    /// (`--timeseries-dir <dir>`, default `results/timeseries` while obs
    /// is on).
    pub timeseries_dir: Option<PathBuf>,
    /// Record per-run `dsr-cachetrace v1` cache-decision traces under
    /// `results/cachetrace/` (`--cachetrace`, default off). Independent of
    /// `--obs`; pure observation, so reports and CSVs are byte-identical
    /// either way.
    pub cachetrace: bool,
    /// Campaign worker threads (`--jobs N`, default 1 = sequential).
    /// Output is byte-identical at every job count.
    pub jobs: usize,
    /// Per-seed wall-clock watchdog (`--seed-timeout <secs>`, default
    /// off): a run past it stops inside its event loop and fails as
    /// [`runner::RunError::WatchdogTimeout`]. The failure is final; a
    /// `--resume` re-runs it.
    pub seed_timeout: Option<Duration>,
}

impl ExpArgs {
    /// Parses an argument list (without the program name).
    pub fn parse<I>(args: I) -> Result<ExpArgs, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = ExpArgs {
            mode: ExpMode::Quick,
            resume: None,
            audit: AuditLevel::Off,
            obs: ObsMode::Off,
            timeseries_dir: None,
            cachetrace: false,
            jobs: 1,
            seed_timeout: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.mode = ExpMode::Quick,
                "--full" => parsed.mode = ExpMode::Full,
                "--resume" => {
                    let path = args.next().ok_or(ArgError::MissingValue("--resume"))?;
                    parsed.resume = Some(PathBuf::from(path));
                }
                "--audit" => {
                    let value = args.next().ok_or(ArgError::MissingValue("--audit"))?;
                    parsed.audit = AuditLevel::parse(&value)
                        .ok_or(ArgError::BadValue { flag: "--audit", value })?;
                }
                "--obs" => {
                    let value = args.next().ok_or(ArgError::MissingValue("--obs"))?;
                    parsed.obs = ObsMode::parse(&value)
                        .map_err(|_| ArgError::BadValue { flag: "--obs", value })?;
                }
                "--timeseries-dir" => {
                    let path = args.next().ok_or(ArgError::MissingValue("--timeseries-dir"))?;
                    parsed.timeseries_dir = Some(PathBuf::from(path));
                }
                "--cachetrace" => parsed.cachetrace = true,
                "--jobs" => {
                    let value = args.next().ok_or(ArgError::MissingValue("--jobs"))?;
                    parsed.jobs = match value.parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(ArgError::BadValue { flag: "--jobs", value }),
                    };
                }
                "--seed-timeout" => {
                    let value = args.next().ok_or(ArgError::MissingValue("--seed-timeout"))?;
                    parsed.seed_timeout = match value.parse::<f64>() {
                        Ok(secs) if secs.is_finite() && secs > 0.0 => {
                            Some(Duration::from_secs_f64(secs))
                        }
                        _ => return Err(ArgError::BadValue { flag: "--seed-timeout", value }),
                    };
                }
                _ => return Err(ArgError::Unknown(arg)),
            }
        }
        Ok(parsed)
    }

    /// The usage line printed on parse errors.
    pub fn usage(bin: &str) -> String {
        format!(
            "usage: {bin} [--quick|--full] [--jobs <n>] [--seed-timeout <secs>] \
             [--resume <journal>] [--audit off|counters|full] [--obs off|sample[:secs]] \
             [--timeseries-dir <dir>] [--cachetrace]"
        )
    }

    /// Parses the process arguments; on error prints the problem plus a
    /// usage message to stderr and exits with status 2.
    pub fn from_env_or_exit(bin: &str) -> ExpArgs {
        match ExpArgs::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{bin}: {e}");
                eprintln!("{}", ExpArgs::usage(bin));
                std::process::exit(2);
            }
        }
    }

    /// The campaign configuration these arguments describe: requested
    /// audit level, the `--resume` journal (if any), repro artifacts under
    /// `results/forensics/`, and — when `--obs` enables sampling — per-run
    /// time-series files plus the live stderr heartbeat.
    pub fn campaign(&self) -> CampaignConfig {
        let mut obs = if self.obs.is_on() {
            ObsConfig {
                mode: self.obs,
                timeseries_dir: Some(
                    self.timeseries_dir
                        .clone()
                        .unwrap_or_else(|| PathBuf::from("results").join("timeseries")),
                ),
                cachetrace_dir: None,
            }
        } else {
            ObsConfig::off()
        };
        if self.cachetrace {
            // Deliberately independent of `--obs`: cache-decision tracing
            // never touches the sampler/profiler pillar.
            obs.cachetrace_dir = Some(PathBuf::from("results").join("cachetrace"));
        }
        CampaignConfig {
            audit: self.audit,
            journal: self.resume.clone(),
            forensics_dir: Some(PathBuf::from("results").join("forensics")),
            obs,
            jobs: self.jobs,
            limits: RunLimits { wall_clock: self.seed_timeout, ..RunLimits::default() },
        }
    }
}

/// Process-wide rollup of campaign profiles: every `run_point` campaign
/// that ran a seed with obs enabled merges its profile here, and
/// `Table::finish` emits the total as `results/<name>.profile`. `None`
/// until the first instrumented campaign that ran a seed completes.
static PROFILE_ROLLUP: Mutex<Option<Profile>> = Mutex::new(None);

fn record_profile(profile: &Profile) {
    merge_profile(&mut PROFILE_ROLLUP.lock().expect("profile rollup poisoned"), profile);
}

/// Merges `profile` into `rollup`, unless it covers no run: a campaign
/// whose seeds all came from the journal profiled nothing, and written
/// out it would replace the profile of the runs that did execute.
fn merge_profile(rollup: &mut Option<Profile>, profile: &Profile) {
    if profile.runs == 0 {
        return;
    }
    match rollup.as_mut() {
        Some(acc) => acc.merge(profile),
        None => *rollup = Some(profile.clone()),
    }
}

/// The merged event-loop profile across every instrumented campaign this
/// process has run, or `None` when obs never ran a seed.
pub fn profile_rollup() -> Option<Profile> {
    PROFILE_ROLLUP.lock().expect("profile rollup poisoned").clone()
}

/// The five protocol variants every comparison figure plots.
pub fn variants() -> Vec<DsrConfig> {
    vec![
        DsrConfig::base(),
        DsrConfig::wider_error(),
        DsrConfig::adaptive_expiry(),
        DsrConfig::negative_cache(),
        DsrConfig::combined(),
    ]
}

/// The five-strategy cross-product the `ablation_matrix` spec sweeps: the
/// paper's four cache-maintenance variants plus k-link-disjoint multipath
/// caching, each layered on base DSR so every row isolates one technique.
pub fn matrix_variants() -> Vec<DsrConfig> {
    vec![
        DsrConfig::base(),
        DsrConfig::wider_error(),
        DsrConfig::adaptive_expiry(),
        DsrConfig::negative_cache(),
        DsrConfig::multipath(),
    ]
}

/// One averaged data point: the mean report across the seeds that
/// completed, plus how many runs produced no report. Derefs to [`Report`]
/// so table code reads the metrics directly.
#[derive(Debug, Clone)]
pub struct Point {
    /// Mean report across the surviving seeds; an all-zero report with the
    /// right label when every seed failed.
    pub report: Report,
    /// Seeds that produced no report.
    pub runs_failed: usize,
}

impl std::ops::Deref for Point {
    type Target = Report;
    fn deref(&self) -> &Report {
        &self.report
    }
}

impl Point {
    fn from_campaign(result: runner::CampaignResult, label: &str, duration_s: f64) -> Point {
        Point {
            report: result
                .mean()
                .unwrap_or_else(|| Metrics::new().report(label, duration_s.max(1e-9))),
            runs_failed: result.failures.len(),
        }
    }
}

/// Who routes at every node of a point's runs.
#[derive(Debug)]
pub enum Agent {
    /// [`dsr::DsrNode`] with the scenario's `dsr` configuration.
    Dsr,
    /// [`AodvNode`] with this configuration.
    Aodv(AodvConfig),
}

impl Agent {
    /// The label a run of this agent over `base` reports under.
    pub fn label(&self, base: &ScenarioConfig) -> String {
        match self {
            Agent::Dsr => base.dsr.label(),
            Agent::Aodv(aodv) => aodv.label(),
        }
    }
}

/// Removes from `dir` every cache trace ([`obs::CacheTrace::file_name`])
/// written under one of `labels`, whatever its fingerprint or seed, so the
/// traces a run is about to write are the only ones of those labels that
/// `trace_query` folds into its table: an earlier build's traces carry
/// other fingerprints and are never overwritten. Returns how many went; a
/// missing `dir` holds none.
pub fn clear_cache_traces(dir: &Path, labels: &[String]) -> std::io::Result<usize> {
    let labels: Vec<String> = labels.iter().map(|l| obs::text::sanitize(l)).collect();
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        entries => entries?,
    };
    let mut removed = 0;
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if trace_label(name).is_some_and(|label| labels.iter().any(|l| l == label)) {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// The label part of `<label>_<16 hex digits>_seed<n>.cachetrace`.
fn trace_label(name: &str) -> Option<&str> {
    let (stem, seed) = name.strip_suffix(".cachetrace")?.rsplit_once("_seed")?;
    let (label, fingerprint) = stem.rsplit_once('_')?;
    let hex = fingerprint.len() == 16 && fingerprint.bytes().all(|b| b.is_ascii_hexdigit());
    let digits = !seed.is_empty() && seed.bytes().all(|b| b.is_ascii_digit());
    (hex && digits).then_some(label)
}

/// Runs one scenario across the mode's seeds as a crash-isolated campaign
/// and returns the mean over the seeds that survived, logging progress —
/// and any failures — to stderr. Completed seeds are journaled when
/// `--resume` is set; failed seeds leave repro artifacts under
/// `results/forensics/`, replayable by `repro` for [`Agent::Dsr`] only.
pub fn run_point(base: &ScenarioConfig, agent: &Agent, args: &ExpArgs) -> Point {
    let seeds = args.mode.seeds();
    let campaign = args.campaign();
    let started = std::time::Instant::now();
    let label = agent.label(base);
    let result = match agent {
        Agent::Dsr => run_campaign(base, &seeds, &campaign),
        Agent::Aodv(aodv) => run_campaign_with(base, &seeds, &campaign, &label, |node, rng| {
            AodvNode::new(node, aodv.clone(), rng)
        }),
    };
    if let Some(profile) = &result.profile {
        record_profile(profile);
    }
    if !result.all_ok() {
        eprintln!(
            "  [{label}] WARNING: {}/{} runs failed: {}",
            result.failures.len(),
            seeds.len(),
            result.failure_summary()
        );
    }
    let point = Point::from_campaign(result, &label, base.duration.as_secs());
    log_point(&point, seeds.len(), started);
    point
}

fn log_point(point: &Point, seeds: usize, started: std::time::Instant) {
    eprintln!(
        "  [{}] {}/{} seeds -> delivery {:.1}%, delay {:.3}s, overhead {:.2} ({:.0}s wall)",
        point.label,
        seeds - point.runs_failed,
        seeds,
        100.0 * point.delivery_fraction,
        point.avg_delay_s,
        point.normalized_overhead,
        started.elapsed().as_secs_f64()
    );
}

/// An aligned results table that also lands in `results/<name>.csv`.
#[derive(Debug)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given CSV base-name and column headers.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count). The CSV joins cells
    /// with `,` and quotes none, so no cell may hold `,`, `"` or a newline.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        if let Some(bad) = cells.iter().find(|c| c.contains([',', '"', '\n', '\r'])) {
            panic!("CSV cell {bad:?} holds a comma, a quote or a newline");
        }
        self.rows.push(cells);
    }

    /// Renders the aligned table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", c, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Prints the table to stdout and writes `results/<name>.csv`,
    /// returning the CSV path. I/O failures surface as errors instead of
    /// being swallowed.
    pub fn finish(&self) -> std::io::Result<PathBuf> {
        println!("{}", self.render());
        let path = self.csv_path();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        eprintln!("wrote {}", path.display());
        if let Some(profile) = profile_rollup() {
            let profile_path = PathBuf::from("results").join(format!("{}.profile", self.name));
            std::fs::write(&profile_path, profile.render())?;
            eprintln!("wrote {}", profile_path.display());
        }
        Ok(path)
    }

    /// [`Table::finish`], exiting with status 1 on I/O failure — results
    /// that silently never land on disk are worse than a failed run.
    pub fn finish_or_exit(&self) {
        if let Err(e) = self.finish() {
            eprintln!("could not write {}: {e}", self.csv_path().display());
            std::process::exit(1);
        }
    }

    fn csv_path(&self) -> PathBuf {
        PathBuf::from("results").join(format!("{}.csv", self.name))
    }
}

/// Formats a float with three significant decimals for tables.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_campaign_that_ran_no_seed_leaves_no_profile() {
        let mut rollup = None;
        merge_profile(&mut rollup, &Profile::default());
        assert_eq!(rollup, None, "a zero-run profile is not written");
        let ran = Profile { runs: 2, sim_seconds: 60.0, events: 10, ..Profile::default() };
        merge_profile(&mut rollup, &ran);
        merge_profile(&mut rollup, &Profile::default());
        assert_eq!(rollup, Some(ran), "a resumed point adds nothing");
    }

    #[test]
    fn clearing_cache_traces_removes_only_the_labels_own() {
        let dir = std::env::temp_dir().join(format!("clear-traces-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(clear_cache_traces(&dir, &["DSR".into()]).expect("no dir, no traces"), 0);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let planted = [
            // An earlier build's fingerprint, and this build's.
            ("DSR-C_0123456789abcdef_seed1.cachetrace", true),
            ("DSR-C_fedcba9876543210_seed2.cachetrace", true),
            ("DSR_0123456789abcdef_seed1.cachetrace", true),
            ("alpha_1_25_no-quiet-term_0123456789abcdef_seed3.cachetrace", true),
            // Another label, another kind of file, not a trace's name.
            ("DSR-WE_0123456789abcdef_seed1.cachetrace", false),
            ("DSR-C_0123456789abcdef_seed1.timeseries", false),
            ("DSR-C_notafingerprint_seed1.cachetrace", false),
            ("DSR-C_0123456789abcdef_seedx.cachetrace", false),
        ];
        for (name, _) in planted {
            std::fs::write(dir.join(name), "stale").expect("planted");
        }
        let labels = ["DSR-C", "DSR", "alpha=1.25 no-quiet-term"].map(String::from);
        let removed = clear_cache_traces(&dir, &labels).expect("cleared");
        for (name, goes) in planted {
            assert_eq!(!dir.join(name).exists(), goes, "{name}");
        }
        assert_eq!(removed, planted.iter().filter(|(_, goes)| *goes).count());
        std::fs::remove_dir_all(&dir).expect("cleaned up");
    }

    #[test]
    fn variants_cover_the_paper() {
        let labels: Vec<String> = variants().iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["DSR", "DSR-WE", "DSR-AE", "DSR-NC", "DSR-C"]);
    }

    #[test]
    fn matrix_variants_isolate_each_strategy() {
        let labels: Vec<String> = matrix_variants().iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["DSR", "DSR-WE", "DSR-AE", "DSR-NC", "DSR-MP"]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("test", &["a", "metric"]);
        t.row(vec!["1".into(), "0.5".into()]);
        t.row(vec!["200".into(), "0.75".into()]);
        let s = t.render();
        assert!(s.contains("a  "));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn table_rejects_a_cell_a_plain_csv_would_split() {
        for bad in ["alpha=1.25, no quiet term", "say \"hi\"", "two\nlines"] {
            let caught = std::panic::catch_unwind(|| {
                Table::new("test", &["a", "b"]).row(vec!["1".into(), bad.into()])
            });
            assert!(caught.is_err(), "{bad:?}");
        }
    }

    #[test]
    fn point_degrades_to_a_zero_report_when_every_seed_fails() {
        let result = runner::CampaignResult {
            reports: vec![],
            failures: vec![runner::RunFailure {
                seed: 7,
                error: runner::RunError::Panicked { seed: 7, payload: "boom".into() },
            }],
            profile: None,
        };
        let p = Point::from_campaign(result, "DSR", 120.0);
        assert_eq!(p.runs_failed, 1);
        assert_eq!(p.report.label, "DSR");
        assert_eq!(p.originated, 0, "Deref reaches the zeroed report");
    }

    fn to_args(raw: &[&str]) -> Result<ExpArgs, ArgError> {
        ExpArgs::parse(raw.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_defaults_and_flags() {
        let d = to_args(&[]).expect("empty is fine");
        assert_eq!(d.mode, ExpMode::Quick);
        assert_eq!(d.audit, AuditLevel::Off);
        assert_eq!(d.resume, None);

        let a = to_args(&["--full", "--resume", "results/j.txt", "--audit", "full"])
            .expect("all flags");
        assert_eq!(a.mode, ExpMode::Full);
        assert_eq!(a.resume, Some(PathBuf::from("results/j.txt")));
        assert_eq!(a.audit, AuditLevel::Full);
        assert_eq!(a.obs, ObsMode::Off);

        let campaign = a.campaign();
        assert_eq!(campaign.audit, AuditLevel::Full);
        assert_eq!(campaign.journal, Some(PathBuf::from("results/j.txt")));
        assert!(campaign.forensics_dir.is_some());
        assert_eq!(campaign.obs, ObsConfig::off(), "no --obs leaves instrumentation off");
    }

    #[test]
    fn obs_flags_map_onto_the_campaign_config() {
        let a = to_args(&["--obs", "sample:2.5"]).expect("obs flag");
        assert!(a.obs.is_on());
        let campaign = a.campaign();
        assert!(campaign.obs.is_on(), "obs on, and with it the stderr heartbeat");
        assert_eq!(
            campaign.obs.timeseries_dir,
            Some(PathBuf::from("results").join("timeseries")),
            "default time-series directory"
        );

        let b = to_args(&["--obs", "sample", "--timeseries-dir", "/tmp/ts"]).expect("custom dir");
        assert_eq!(b.campaign().obs.timeseries_dir, Some(PathBuf::from("/tmp/ts")));

        // A dir without sampling is accepted but inert.
        let c = to_args(&["--timeseries-dir", "/tmp/ts"]).expect("dir alone");
        assert_eq!(c.campaign().obs, ObsConfig::off());

        assert_eq!(
            to_args(&["--obs", "loudly"]),
            Err(ArgError::BadValue { flag: "--obs", value: "loudly".into() })
        );
        assert_eq!(to_args(&["--obs"]), Err(ArgError::MissingValue("--obs")));
        assert_eq!(to_args(&["--timeseries-dir"]), Err(ArgError::MissingValue("--timeseries-dir")));
        assert!(ExpArgs::usage("dsr-exp").contains("--obs"));
    }

    #[test]
    fn cachetrace_flag_maps_onto_the_campaign_config() {
        let off = to_args(&[]).expect("defaults");
        assert!(!off.cachetrace);
        assert_eq!(off.campaign().obs.cachetrace_dir, None);

        let on = to_args(&["--cachetrace"]).expect("flag alone");
        assert!(on.cachetrace);
        let campaign = on.campaign();
        assert_eq!(
            campaign.obs.cachetrace_dir,
            Some(PathBuf::from("results").join("cachetrace")),
            "default cache-trace directory"
        );
        assert!(!campaign.obs.is_on(), "cachetrace does not switch sampling on");

        let both = to_args(&["--cachetrace", "--obs", "sample"]).expect("with obs");
        let campaign = both.campaign();
        assert!(campaign.obs.is_on());
        assert!(campaign.obs.cachetrace_dir.is_some());

        assert!(ExpArgs::usage("dsr-exp").contains("--cachetrace"));
    }

    #[test]
    fn executor_flags_map_onto_the_campaign_config() {
        let d = to_args(&[]).expect("defaults");
        assert_eq!(d.jobs, 1, "sequential by default");
        assert_eq!(d.seed_timeout, None);
        let campaign = d.campaign();
        assert_eq!(campaign.jobs, 1);
        assert_eq!(campaign.limits, RunLimits::default());

        let a = to_args(&["--jobs", "4", "--seed-timeout", "2.5"]).expect("all executor flags");
        let campaign = a.campaign();
        assert_eq!(campaign.jobs, 4);
        assert_eq!(campaign.limits.wall_clock, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(
            campaign.limits.max_events_per_sim_second,
            Some(100_000_000),
            "the event budget is the runner's default"
        );

        for usage_flag in ["--jobs", "--seed-timeout"] {
            assert!(ExpArgs::usage("dsr-exp").contains(usage_flag), "{usage_flag}");
        }
        assert!(!ExpArgs::usage("dsr-exp").contains("--event-budget"));
        // `--seed-timeout` is the only wall-clock flag, and no flag sets
        // the event budget.
        assert_eq!(to_args(&["--max-wall", "30"]), Err(ArgError::Unknown("--max-wall".into())));
        assert_eq!(
            to_args(&["--event-budget", "5000"]),
            Err(ArgError::Unknown("--event-budget".into()))
        );
    }

    #[test]
    fn executor_flags_reject_nonsense_values() {
        for bad in [
            vec!["--jobs", "0"],
            vec!["--jobs", "-2"],
            vec!["--jobs", "four"],
            vec!["--seed-timeout", "0"],
            vec!["--seed-timeout", "-1"],
            vec!["--seed-timeout", "inf"],
            vec!["--seed-timeout", "nan"],
        ] {
            assert!(matches!(to_args(&bad), Err(ArgError::BadValue { .. })), "must reject {bad:?}");
        }
        for flag in ["--jobs", "--seed-timeout"] {
            assert_eq!(to_args(&[flag]), Err(ArgError::MissingValue(flag)));
        }
    }

    #[test]
    fn args_reject_bad_input_with_typed_errors() {
        assert_eq!(to_args(&["--fast"]), Err(ArgError::Unknown("--fast".into())));
        assert_eq!(to_args(&["--resume"]), Err(ArgError::MissingValue("--resume")));
        assert_eq!(
            to_args(&["--audit", "loud"]),
            Err(ArgError::BadValue { flag: "--audit", value: "loud".into() })
        );
        assert!(format!("{}", to_args(&["--fast"]).unwrap_err()).contains("--fast"));
        assert!(ExpArgs::usage("dsr-exp").contains("--resume"));
    }

    #[test]
    fn modes_have_sane_sweeps() {
        assert!(ExpMode::Quick.seeds().len() < ExpMode::Full.seeds().len());
        assert!(ExpMode::Quick.pause_sweep().contains(&0.0));
        assert!(ExpMode::Full.pause_sweep().contains(&500.0));
        assert!(ExpMode::Full.timeout_sweep().contains(&10.0));
    }
}
