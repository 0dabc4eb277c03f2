//! The observation surfaces (packet trace, obs sampler and its time series)
//! must reflect what actually happened in a run — and must not change it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dsr_caching::obs::{self, ObsFile, RunObservation, TimeSeries};
use dsr_caching::prelude::*;
use dsr_caching::runner::TraceKind;

/// Runs `cfg` with the obs sampler on at `interval_s` and returns the
/// run's report plus its observation.
fn run_observed(cfg: ScenarioConfig, interval_s: f64) -> (Report, RunObservation) {
    Simulator::new(cfg).run_sampled(SimDuration::from_secs(interval_s))
}

#[test]
fn trace_sees_every_delivery_the_metrics_count() {
    let cfg = ScenarioConfig::static_line(3, 200.0, 4.0, DsrConfig::base(), 2);
    let mut sim = Simulator::new(cfg);
    let deliveries = Arc::new(AtomicUsize::new(0));
    let sends = Arc::new(AtomicUsize::new(0));
    let (d, s) = (Arc::clone(&deliveries), Arc::clone(&sends));
    sim.set_trace(Box::new(move |ev| match ev.kind {
        TraceKind::Deliver { .. } => {
            d.fetch_add(1, Ordering::Relaxed);
        }
        TraceKind::MacSend { .. } => {
            s.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }));
    let report = sim.run();
    assert_eq!(
        deliveries.load(Ordering::Relaxed) as u64,
        report.delivered,
        "trace and metrics disagree on deliveries"
    );
    let mac_tx = report.mac_control_tx + report.routing_tx + report.data_tx;
    assert_eq!(sends.load(Ordering::Relaxed) as u64, mac_tx, "trace and metrics disagree on sends");
}

#[test]
fn series_totals_match_the_report() {
    let cfg = ScenarioConfig::static_line(3, 200.0, 4.0, DsrConfig::base(), 2);
    let (report, observation) = run_observed(cfg, 5.0);
    let rows = &observation.timeseries.rows;
    let last = rows.last().expect("rows");
    assert!(report.delivered > 0, "a run with deliveries to count");
    assert_eq!((last.originated, last.delivered), (report.originated, report.delivered));
    for pair in rows.windows(2) {
        assert!(pair[0].originated <= pair[1].originated, "cumulative: {pair:?}");
        assert!(pair[0].delivered <= pair[1].delivered, "cumulative: {pair:?}");
    }
    let intervals = observation.timeseries.delivery_by_interval();
    assert_eq!(intervals.iter().map(|i| i.1).sum::<u64>(), report.originated);
    assert_eq!(intervals.iter().map(|i| i.2).sum::<u64>(), report.delivered);
}

/// A row counts the events dispatched before its boundary: none at
/// `t_s = 0`, and fewer than the run dispatched in all at every boundary
/// inside it.
#[test]
fn a_row_counts_only_the_events_before_its_boundary() {
    let cfg = ScenarioConfig::static_line(3, 200.0, 4.0, DsrConfig::base(), 2);
    let (_, observation) = run_observed(cfg, 5.0);
    let rows = &observation.timeseries.rows;
    assert_eq!((rows[0].t_s, rows[0].events), (0.0, 0), "no event runs before t = 0");
    let dispatched = observation.profile.dispatched;
    let inside = &rows[..rows.len() - 1];
    assert!(inside.iter().all(|r| r.events < dispatched), "{inside:?} vs {dispatched}");
}

/// Every `results/timeseries/*.timeseries` file (the committed ones are
/// `dsr-exp table3_cache --quick --obs sample`'s) loads under the current
/// schema and canonical name, re-renders to its own bytes, never lets a
/// cumulative column fall, and holds no more valid routes than routes.
#[test]
fn committed_time_series_load() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join("timeseries");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("results/timeseries")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "timeseries"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "the ten committed series: {paths:?}");
    for path in &paths {
        let name = path.display();
        let text = std::fs::read_to_string(path).expect("readable");
        let series = TimeSeries::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(series.render(), text, "{name} re-renders to its bytes");
        assert_eq!(path.file_name().and_then(|f| f.to_str()), Some(series.file_name().as_str()));
        let last = series.rows.last().unwrap_or_else(|| panic!("{name}: no rows"));
        assert!(last.events > 0 && last.originated > 0, "{name}: a run with traffic");
        assert!(last.delivered <= last.originated, "{name}: {last:?}");
        for row in &series.rows {
            assert!(row.cache_valid <= row.cache_entries, "{name}: {row:?}");
        }
        for pair in series.rows.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.events <= b.events && a.originated <= b.originated && a.delivered <= b.delivered,
                "{name}: a cumulative column fell: {pair:?}"
            );
        }
    }
}

#[test]
fn obs_sampling_is_inert_and_deterministic() {
    let cfg = ScenarioConfig::tiny(0.0, 2.0, DsrConfig::combined(), 11);

    // Purity: enabling the sampler must not change the report at all.
    let baseline = run_scenario(cfg.clone());
    let (observed_report, observation) = run_observed(cfg.clone(), 2.0);
    assert_eq!(baseline, observed_report, "obs on vs off must be byte-identical");

    // Determinism: same config + seed => byte-identical time-series file.
    let (_, again) = run_observed(cfg.clone(), 2.0);
    assert_eq!(
        observation.timeseries.render(),
        again.timeseries.render(),
        "same seed must reproduce the exact series"
    );
    assert_eq!(observation.timeseries.file_name(), again.timeseries.file_name());

    // The series covers the whole run at the requested cadence and the
    // samples carry real data (the event counter is monotone non-zero by
    // the end of a run with traffic).
    let rows = &observation.timeseries.rows;
    assert!(!rows.is_empty());
    assert_eq!(rows[0].t_s, 0.0, "first boundary is t=0");
    assert!(rows.last().expect("rows").events > 0);

    // The run profile accounts the same run.
    assert_eq!(observation.profile.runs, 1);
    assert!(observation.profile.events > 0);
    assert!(observation.profile.scheduled >= observation.profile.events);
    assert!(!observation.profile.kinds.is_empty());

    // Round trip through the on-disk format and the query engine.
    let rendered = observation.timeseries.render();
    match obs::read_file(&rendered).expect("series parses") {
        ObsFile::TimeSeries(series) => assert_eq!(series.render(), rendered),
        other => panic!("expected a time series, got {other:?}"),
    }
    // Rendering canonicalizes tally order (name-sorted), so compare the
    // canonical forms: parse(render(p)).render() == render(p).
    let profile_text = observation.profile.render();
    match obs::read_file(&profile_text).expect("profile parses") {
        ObsFile::Profile(profile) => assert_eq!(profile.render(), profile_text),
        other => panic!("expected a profile, got {other:?}"),
    }
}

#[test]
fn trace_query_follows_a_real_packet_lifecycle() {
    let cfg = ScenarioConfig::static_line(3, 200.0, 4.0, DsrConfig::base(), 2);
    let mut sim = Simulator::new(cfg);
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    sim.set_trace(Box::new(move |ev| {
        sink_lines.lock().expect("trace lines").push(ev.to_string());
    }));
    let report = sim.run();
    assert!(report.delivered > 0, "need at least one delivery to follow");

    let text = lines.lock().expect("trace lines").join("\n");
    let parsed = match obs::read_file(&text).expect("trace parses") {
        ObsFile::Trace(parsed) => parsed,
        other => panic!("expected trace lines, got {other:?}"),
    };
    // Every rendered line must have parsed back.
    assert_eq!(parsed.len(), text.lines().count(), "the query grammar covers every trace line");

    // Follow the first delivered uid end to end: it must show MAC
    // transmissions and end delivered.
    let delivered_uid = parsed
        .iter()
        .find(|l| l.op == 'r')
        .and_then(|l| l.uid)
        .expect("a delivery line carries its uid");
    let follow = obs::follow_uid(&parsed, delivered_uid).expect("uid present");
    assert!(follow.lines.len() >= 2, "at least one MAC send plus the delivery");
    assert!(follow.summary.contains("delivered at"), "summary: {}", follow.summary);
    assert!(
        follow.lines.iter().any(|l| l.contains("MAC")),
        "lifecycle crosses the MAC layer: {follow:?}"
    );

    // Filters agree with a hand count.
    let drops = parsed.iter().filter(|l| l.op == 'D').count();
    let filter = obs::Filter { kind: Some("drop".into()), ..obs::Filter::default() };
    assert_eq!(parsed.iter().filter(|l| filter.matches(l)).count(), drops);
}

#[test]
fn trace_events_render_nonempty() {
    let cfg = ScenarioConfig::static_line(2, 200.0, 2.0, DsrConfig::base(), 3);
    let mut sim = Simulator::new(cfg);
    let all_nonempty = Arc::new(AtomicUsize::new(1));
    let flag = Arc::clone(&all_nonempty);
    sim.set_trace(Box::new(move |ev| {
        if format!("{ev}").is_empty() {
            flag.store(0, Ordering::Relaxed);
        }
    }));
    sim.run();
    assert_eq!(all_nonempty.load(Ordering::Relaxed), 1);
}
