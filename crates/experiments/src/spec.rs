//! The experiment table behind `dsr-exp <name>`.
//!
//! Every committed `results/<name>_<mode>.csv` except the chaos soak is one
//! [`Spec`]: its rows (each an axis-cell prefix, a scenario and an agent)
//! and the names of the [`COLUMNS`] that follow the axes. The paper's
//! scenario — 100 nodes on 2200 × 600 m, 25 CBR flows — is swept along one
//! axis at a time: timeout (Fig. 1), pause (Fig. 2), load (Fig. 4), and
//! pause 0 (Table 3), plus ablations and extensions that fix the paper's
//! pause 0 / 3 pkt/s point and vary one design choice.

use aodv::AodvConfig;
use dsr::{DsrConfig, ExpiryPolicy};
use metrics::{Kind, Report};
use runner::ScenarioConfig;
use sim_core::SimDuration;
use traffic::TrafficConfig;

use crate::{
    clear_cache_traces, f3, matrix_variants, pct, run_point, variants, Agent, ExpArgs, ExpMode,
    Point, Table,
};

/// One committed experiment.
#[derive(Debug)]
pub struct Spec {
    /// CSV stem and the `dsr-exp` argument.
    pub name: &'static str,
    /// The line printed above the table.
    pub title: &'static str,
    /// The paper's (or the ablation's) expected shape, printed below it.
    pub shape: &'static str,
    /// Headers of the per-row axis cells, which lead each CSV line.
    pub axes: &'static [&'static str],
    /// Names of the measured cells after the axes, each a [`COLUMNS`] or a
    /// [`Report::FIELDS`] name (see [`cell`]).
    pub columns: &'static [&'static str],
    /// The rows at one scale, in CSV order.
    pub rows: fn(ExpMode) -> Vec<Row>,
}

/// One CSV line before it is run.
#[derive(Debug)]
pub struct Row {
    /// One cell per [`Spec::axes`] header.
    pub axes: Vec<String>,
    /// The scenario every seed runs.
    pub scenario: ScenarioConfig,
    /// Who routes.
    pub agent: Agent,
}

impl Row {
    fn dsr(axes: Vec<String>, scenario: ScenarioConfig) -> Row {
        Row { axes, scenario, agent: Agent::Dsr }
    }
}

/// A measured column: its committed header and how a [`Point`] renders it.
#[derive(Debug)]
pub struct Column {
    /// The CSV header.
    pub name: &'static str,
    /// The cell.
    pub cell: fn(&Point) -> String,
}

/// The measured columns that are not a [`Report::FIELDS`] entry under its
/// own name: the variant label, the failed-run count, and aliases of one
/// metric under the name a committed CSV already carries: `delivery_pct`
/// (`delivery_fraction`), `good_replies_pct` (`good_reply_pct`) and
/// `invalid_cached_routes_pct` (`invalid_cache_pct`).
pub static COLUMNS: &[Column] = &[
    Column { name: "variant", cell: |p| p.label.clone() },
    Column { name: "runs_failed", cell: |p| p.runs_failed.to_string() },
    Column { name: "delivery_pct", cell: |p| pct(100.0 * p.delivery_fraction) },
    Column { name: "good_replies_pct", cell: |p| pct(p.good_reply_pct) },
    Column { name: "invalid_cached_routes_pct", cell: |p| pct(p.invalid_cache_pct) },
];

/// The cell of column `name` for `point`: its [`COLUMNS`] entry, or else the
/// [`Report::FIELDS`] entry of that name printed by its kind — a count in
/// full, a real to three decimals, a percentage to one.
///
/// # Panics
///
/// Panics if `name` is neither; every spec names one of the two
/// (`every_named_column_is_registered`).
pub fn cell(name: &str, point: &Point) -> String {
    if let Some(column) = COLUMNS.iter().find(|c| c.name == name) {
        return (column.cell)(point);
    }
    match Report::FIELDS.iter().find(|f| f.name == name).map(|f| f.kind) {
        Some(Kind::Count(get, _)) => get(point).to_string(),
        Some(Kind::Real(get, _)) => f3(get(point)),
        Some(Kind::Percent(get, _)) => pct(get(point)),
        None => panic!("no column '{name}'"),
    }
}

/// The columns every figure-style spec ends with.
const CURVES: &[&str] = &[
    "variant",
    "delivery_fraction",
    "avg_delay_s",
    "normalized_overhead",
    "runs_failed",
    "faults_injected",
    "delay_p99_s",
    "delay_jitter_s",
    "stale_route_sends",
    "cache_stale_hits",
];

/// The paper's fixed point for everything but the swept axis: constant
/// motion (pause 0) at 3 pkt/s per flow.
fn paper_point(mode: ExpMode, dsr: DsrConfig) -> ScenarioConfig {
    mode.scenario(0.0, 3.0, dsr)
}

/// Every experiment, in the order `dsr-exp` lists them.
pub static SPECS: &[Spec] = &[
    Spec {
        name: "table3_cache",
        title: "Table 3: cache-related metrics (pause 0 s)",
        shape: "good replies (route replies whose route was fully up on arrival) and invalid \
                cached routes (cache hits handing out a broken route) for each variant: base \
                DSR worst on both columns; DSR-C best, with ~70% better reply quality than \
                base DSR; ordering AE > WE > NC in between.",
        axes: &[],
        columns: &[
            "variant",
            "good_replies_pct",
            "invalid_cached_routes_pct",
            "replies_received",
            "cache_hits",
            "runs_failed",
            "faults_injected",
            "delay_p99_s",
            "delay_jitter_s",
            "stale_route_sends",
            "cache_stale_hits",
        ],
        rows: |mode| {
            variants().into_iter().map(|d| Row::dsr(vec![], paper_point(mode, d))).collect()
        },
    },
    Spec {
        name: "fig1_timeout",
        title: "Fig 1: performance vs static timeout (pause 0 s, 3 pkt/s)",
        shape: "a 1 s timeout is worse than no timeout at all; performance peaks near 10 s and \
                degrades beyond; adaptive expiry tracks the best static value.",
        axes: &["timeout_s"],
        columns: CURVES,
        rows: |mode| {
            let mut rows = vec![
                Row::dsr(vec!["none".into()], paper_point(mode, DsrConfig::base())),
                Row::dsr(vec!["adaptive".into()], paper_point(mode, DsrConfig::adaptive_expiry())),
            ];
            for timeout_s in mode.timeout_sweep() {
                let dsr = DsrConfig::static_expiry(SimDuration::from_secs(timeout_s));
                rows.push(Row::dsr(vec![pct(timeout_s)], paper_point(mode, dsr)));
            }
            rows
        },
    },
    Spec {
        name: "fig2_mobility",
        title: "Fig 2: performance vs pause time (3 pkt/s)",
        shape: "base DSR worst on every metric except at high pause; DSR-C best overall (at \
                pause 0 about +16% delivery, ~40% lower delay, ~22% lower overhead); single \
                techniques in between, ordered adaptive expiry > wider error > negative \
                caches; all variants converge as the network becomes static.",
        axes: &["pause_s"],
        columns: CURVES,
        rows: |mode| {
            let mut rows = Vec::new();
            for pause_s in mode.pause_sweep() {
                for dsr in variants() {
                    rows.push(Row::dsr(
                        vec![format!("{pause_s:.0}")],
                        mode.scenario(pause_s, 3.0, dsr),
                    ));
                }
            }
            rows
        },
    },
    Spec {
        name: "fig4_load",
        title: "Fig 4: performance vs offered load (pause 0 s)",
        shape: "DSR-C dominates base DSR across the whole load range, the single techniques \
                in between; negative caches matter more at high load, where in-flight packets \
                re-insert stale routes; all variants saturate at high load.",
        axes: &["rate_pps", "offered_load_kbps"],
        columns: &[
            "variant",
            "throughput_kbps",
            "avg_delay_s",
            "normalized_overhead",
            "runs_failed",
            "faults_injected",
            "delay_p99_s",
            "delay_jitter_s",
            "stale_route_sends",
            "cache_stale_hits",
        ],
        rows: |mode| {
            let mut rows = Vec::new();
            for rate_pps in mode.rate_sweep() {
                let load = TrafficConfig::paper(rate_pps).offered_load_kbps();
                for dsr in variants() {
                    rows.push(Row::dsr(
                        vec![format!("{rate_pps}"), format!("{load:.0}")],
                        mode.scenario(0.0, rate_pps, dsr),
                    ));
                }
            }
            rows
        },
    },
    Spec {
        name: "ablation_adaptive",
        title: "Ablation: adaptive timeout (alpha sweep, quiet-term on/off)",
        shape: "flat across alpha in [0.5, 2], which justifies the 1.25 default for the \
                constant the paper's text garbles; dropping the time-since-last-break term of \
                T = max(alpha * avg_lifetime, time_since_last_break) over-expires routes under \
                bursty link failures.",
        axes: &["config"],
        columns: &[
            "delivery_fraction",
            "avg_delay_s",
            "normalized_overhead",
            "good_replies_pct",
            "runs_failed",
            "faults_injected",
            "delay_p99_s",
            "delay_jitter_s",
            "stale_route_sends",
            "cache_stale_hits",
        ],
        rows: |mode| {
            let mut rows: Vec<Row> = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
                .into_iter()
                .map(|alpha| {
                    let expiry = ExpiryPolicy::adaptive_with_alpha(alpha);
                    let dsr = DsrConfig { expiry, ..DsrConfig::base() };
                    Row::dsr(vec![format!("alpha={alpha}")], paper_point(mode, dsr))
                })
                .collect();
            let expiry = ExpiryPolicy::Adaptive { alpha: 1.25, quiet_term: false };
            let dsr = DsrConfig { expiry, ..DsrConfig::base() };
            rows.push(Row::dsr(vec!["alpha=1.25 no-quiet-term".into()], paper_point(mode, dsr)));
            rows
        },
    },
    Spec {
        name: "ablation_matrix",
        title: "Ablation matrix: strategy cross-product (pause 0 s)",
        shape: "the paper's three techniques and k-link-disjoint multipath caching, each \
                layered alone on base DSR. Measured delivery order: DSR-NC and DSR-WE well \
                ahead, then DSR-AE and DSR level, and DSR-MP last, below base DSR at more \
                overhead; failovers > 0 only on DSR-MP. Per-strategy cache decisions: \
                trace_query --summary after a --cachetrace run.",
        axes: &[],
        columns: &[
            "variant",
            "delivery_pct",
            "avg_delay_s",
            "normalized_overhead",
            "replies_received",
            "cache_hits",
            "cache_stale_hits",
            "stale_route_sends",
            "failovers",
            "runs_failed",
        ],
        rows: |mode| {
            matrix_variants().into_iter().map(|d| Row::dsr(vec![], paper_point(mode, d))).collect()
        },
    },
    Spec {
        name: "ext_aodv",
        title: "Extension: DSR vs AODV across mobility",
        shape: "the paper's future work carried to AODV (after Abu Salem et al.): AODV is \
                competitive with DSR-C in delivery under constant motion, since sequence \
                numbers and the active-route timeout are protocol-native freshness and \
                expiry, at the price of more routing packets; disabling intermediate replies \
                (AODV-noIR) costs latency and overhead.",
        axes: &["pause_s"],
        columns: CURVES,
        rows: |mode| {
            let mut rows = Vec::new();
            for pause_s in mode.pause_sweep() {
                let pause = vec![format!("{pause_s:.0}")];
                for dsr in [DsrConfig::base(), DsrConfig::combined()] {
                    rows.push(Row::dsr(pause.clone(), mode.scenario(pause_s, 3.0, dsr)));
                }
                for aodv in [AodvConfig::default(), AodvConfig { intermediate_replies: false }] {
                    rows.push(Row {
                        axes: pause.clone(),
                        scenario: mode.scenario(pause_s, 3.0, DsrConfig::base()),
                        agent: Agent::Aodv(aodv),
                    });
                }
            }
            rows
        },
    },
];

/// The spec `name` picks, or a message naming what is missing and every
/// name there is.
pub fn find(name: Option<&str>) -> Result<&'static Spec, String> {
    let names = SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
    match name {
        None => Err(format!("missing experiment name; one of: {names}")),
        Some(name) => SPECS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown experiment '{name}'; one of: {names}")),
    }
}

impl Spec {
    /// The CSV header: the axes, then the columns.
    pub fn header(&self) -> Vec<&'static str> {
        self.axes.iter().chain(self.columns).copied().collect()
    }

    /// Runs every row at `args`' scale, prints the table and its expected
    /// shape, and writes `results/<name>_<mode>.csv`.
    pub fn run(&self, args: &ExpArgs) {
        let mode = args.mode;
        eprintln!("{} ({mode:?})", self.title);
        let mut table = Table::new(format!("{}_{}", self.name, mode.tag()), &self.header());
        let rows = (self.rows)(mode);
        if let Some(dir) = args.campaign().obs.cachetrace_dir {
            let labels: Vec<String> = rows.iter().map(|r| r.agent.label(&r.scenario)).collect();
            match clear_cache_traces(&dir, &labels) {
                Ok(0) => {}
                Ok(n) => eprintln!("removed {n} earlier cache traces from {}", dir.display()),
                Err(e) => {
                    eprintln!("could not clear earlier cache traces from {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        for row in rows {
            let point = run_point(&row.scenario, &row.agent, args);
            table.row(
                row.axes.into_iter().chain(self.columns.iter().map(|c| cell(c, &point))).collect(),
            );
        }
        println!("\n{}\n", self.title);
        table.finish_or_exit();
        println!("expected shape: {}", self.shape);
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    /// `(stem, first line)` of every committed quick CSV but the chaos soak's.
    fn committed_headers() -> Vec<(String, String)> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut found: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("results/")
            .filter_map(|e| {
                let path = e.expect("entry").path();
                let stem = path.file_name()?.to_str()?.strip_suffix("_quick.csv")?.to_string();
                let text = std::fs::read_to_string(&path).expect("readable CSV");
                Some((stem, text.lines().next().unwrap_or_default().to_string()))
            })
            .filter(|(stem, _)| stem != "chaos_soak")
            .collect();
        found.sort();
        found
    }

    #[test]
    fn specs_are_the_committed_csvs() {
        let committed = committed_headers();
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        assert_eq!(names, committed.iter().map(|(stem, _)| stem.as_str()).collect::<Vec<_>>());
        for (stem, header) in &committed {
            let spec = find(Some(stem)).expect("named above");
            assert_eq!(&spec.header().join(","), header, "{stem}");
        }
    }

    #[test]
    fn every_named_column_is_registered() {
        let known = |name: &str| {
            COLUMNS.iter().any(|c| c.name == name) || Report::FIELDS.iter().any(|f| f.name == name)
        };
        for spec in SPECS {
            for name in spec.columns {
                assert!(known(name), "{}: {name}", spec.name);
            }
        }
        for (i, c) in COLUMNS.iter().enumerate() {
            assert!(COLUMNS[..i].iter().all(|d| d.name != c.name), "{} twice", c.name);
            assert!(Report::FIELDS.iter().all(|f| f.name != c.name), "{} shadows a field", c.name);
            let named = SPECS.iter().any(|s| s.columns.contains(&c.name));
            assert!(named, "{} is named by no spec", c.name);
        }
    }

    /// Every registry field is a column under its own name, printed by its
    /// kind, with no entry in `COLUMNS`.
    #[test]
    fn every_report_field_renders_as_a_column() {
        let mut report = Report::default();
        for (i, field) in Report::FIELDS.iter().enumerate() {
            match field.kind {
                Kind::Count(_, set) => set(&mut report, 1000 + i as u64),
                Kind::Real(_, set) | Kind::Percent(_, set) => set(&mut report, 1000.25 + i as f64),
            }
        }
        let point = Point { report, runs_failed: 0 };
        for (i, field) in Report::FIELDS.iter().enumerate() {
            let want = match field.kind {
                Kind::Count(..) => format!("{}", 1000 + i),
                Kind::Real(..) => format!("{}.250", 1000 + i),
                Kind::Percent(..) => format!("{}.2", 1000 + i),
            };
            assert_eq!(cell(field.name, &point), want, "{}", field.name);
        }
    }

    #[test]
    fn rows_carry_one_cell_per_axis() {
        for spec in SPECS {
            for mode in [ExpMode::Quick, ExpMode::Full] {
                let rows = (spec.rows)(mode);
                assert!(!rows.is_empty(), "{}", spec.name);
                assert!(rows.iter().all(|r| r.axes.len() == spec.axes.len()), "{}", spec.name);
            }
        }
    }

    #[test]
    fn a_missing_or_unknown_name_lists_the_names() {
        assert_eq!(find(Some("fig2_mobility")).map(|s| s.name), Ok("fig2_mobility"));
        for bad in [None, Some("fig3"), Some("")] {
            let msg = find(bad).expect_err("rejected");
            assert!(msg.contains("table3_cache") && msg.contains("ext_aodv"), "{msg}");
        }
        assert!(find(None).unwrap_err().starts_with("missing"));
        assert!(find(Some("fig3")).unwrap_err().contains("'fig3'"));
    }
}
