//! The metric tables and the emitter that prints them.
//!
//! The tables here are the program's copy of `BENCHMARK.json`'s
//! `end_to_end` and `per_layer` lists; a unit test keeps the two equal, so
//! a name can be neither printed without being declared nor declared
//! without being printed.

use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// a later change may make the metric worse.
    pub bound: Option<f64>,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 7] = [
    bounded("sim_s_per_wall_s", "1/s", Higher, 0.15),
    bounded("allocs_per_sim_s", "1/s", Lower, 0.005),
    bounded("peak_heap_mib", "MiB", Lower, 0.01),
    bounded("setup_s", "s", Lower, 0.25),
    bounded("delivery_fraction", "ratio", Higher, 0.05),
    bounded("avg_delay_s", "s", Lower, 0.15),
    bounded("normalized_overhead", "ratio", Lower, 0.1),
];

/// Single layers (layer = crate name); measured by the traced pass and the
/// layer drivers.
pub const PER_LAYER: [MetricDef; 47] = [
    def("sim-core.events_dispatched_per_sim_s", "1/s", Lower),
    def("sim-core.events_scheduled_per_sim_s", "1/s", Lower),
    def("sim-core.cancel_ratio", "ratio", Lower),
    def("sim-core.queue_ns_per_event", "ns", Lower),
    def("mobility.snapshot_ns", "ns", Lower),
    def("mobility.grid_rebuild_ns", "ns", Lower),
    def("mobility.candidates_ns_per_query", "ns", Lower),
    def("mobility.candidates_per_query", "count", Lower),
    def("phy.plan_ns_per_tx", "ns", Lower),
    def("phy.arrivals_per_tx", "count", Lower),
    def("phy.arrival_yield", "ratio", Higher),
    def("phy.envelope_ns_per_arrival", "ns", Lower),
    def("mac.frames_tx_per_sim_s", "1/s", Lower),
    def("mac.control_frames_per_payload_frame", "ratio", Lower),
    def("mac.ifq_drops_per_sim_s", "1/s", Lower),
    def("mac.link_breaks_per_sim_s", "1/s", Lower),
    def("mac.dcf_ns_per_exchange", "ns", Lower),
    def("dsr.cache_ops_per_sim_s", "1/s", Lower),
    def("dsr.cache_invalid_hit_pct", "%", Lower),
    def("dsr.good_reply_pct", "%", Higher),
    def("dsr.discoveries_per_sim_s", "1/s", Lower),
    def("dsr.cache_replay_ns_per_op", "ns", Lower),
    def("dsr.cache_insert_ns", "ns", Lower),
    def("dsr.cache_find_ns", "ns", Lower),
    def("dsr.cache_remove_link_ns", "ns", Lower),
    def("dsr.cache_mark_used_ns", "ns", Lower),
    def("dsr.cache_insert_changed_ratio", "ratio", Higher),
    def("dsr.cache_find_hit_ratio", "ratio", Higher),
    def("aodv.routing_tx_per_delivered", "ratio", Lower),
    def("traffic.originated_per_sim_s", "1/s", Higher),
    def("metrics.record_ns_per_call", "ns", Lower),
    def("runner.arrival_share_pct", "%", Lower),
    def("runner.arrival_ns_per_event", "ns", Lower),
    def("runner.mac_timer_share_pct", "%", Lower),
    def("runner.mac_timer_ns_per_event", "ns", Lower),
    def("runner.arrival_boundary_share_pct", "%", Lower),
    def("runner.carrier_sense_share_pct", "%", Lower),
    def("runner.agent_share_pct", "%", Lower),
    def("runner.unattributed_share_pct", "%", Lower),
    def("runner.host_ns_per_frame", "ns", Lower),
    def("runner.host_ns_per_delivered_pkt", "ns", Lower),
    def("runner.faults_injected", "count", Lower),
    def("runner.arrivals_suppressed_per_sim_s", "1/s", Lower),
    def("runner.audit_violations", "count", Lower),
    def("obs.trace_overhead_pct", "%", Lower),
    def("obs.cachetrace_rows_per_sim_s", "1/s", Lower),
    def("obs.cachetrace_rows_dropped", "count", Lower),
];

/// Why a value was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum EmitError {
    /// Not `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    BadName(String),
    /// Well-formed but not in the table this emitter was built over.
    Undeclared(String),
    /// Set twice.
    Duplicate(String),
    /// NaN or infinite.
    NotFinite(String),
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::BadName(n) => write!(f, "metric name {n:?} is outside [A-Za-z0-9_.-]"),
            EmitError::Undeclared(n) => write!(f, "metric {n} is not declared"),
            EmitError::Duplicate(n) => write!(f, "metric {n} set twice"),
            EmitError::NotFinite(n) => write!(f, "metric {n} is not a finite number"),
        }
    }
}

/// A name the driver's contract accepts: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Collects one value per declared metric and renders them.
#[derive(Debug)]
pub struct Emitter {
    defs: Vec<MetricDef>,
    values: Vec<Option<f64>>,
}

impl Emitter {
    pub fn new(defs: &[MetricDef]) -> Self {
        Emitter { defs: defs.to_vec(), values: vec![None; defs.len()] }
    }

    /// Records `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), EmitError> {
        if !valid_name(name) {
            return Err(EmitError::BadName(name.to_string()));
        }
        let idx = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| EmitError::Undeclared(name.to_string()))?;
        if !value.is_finite() {
            return Err(EmitError::NotFinite(name.to_string()));
        }
        if self.values[idx].replace(value).is_some() {
            return Err(EmitError::Duplicate(name.to_string()));
        }
        Ok(())
    }

    /// Declared metrics that never received a value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// `(definition, value)` for every metric that has one, in table order.
    pub fn entries(&self) -> impl Iterator<Item = (&MetricDef, f64)> {
        self.defs.iter().zip(&self.values).filter_map(|(d, v)| v.map(|v| (d, v)))
    }

    /// One `metric <name> <value> <unit>` line per value.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.entries() {
            writeln!(out, "metric {} {} {}", d.name, v, d.unit).expect("write to string");
        }
        out
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values print with every digit
/// `f64` carries (Rust's shortest round-trip form, never an exponent).
pub fn result_line(attempted: u64, failed: u64, emitters: &[&Emitter]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    let mut first = true;
    for (d, v) in emitters.iter().flat_map(|e| e.entries()) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        write!(out, "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
            .expect("write to string");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &json::Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .expect("key present")
            .as_array()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                let bound = m.get("bound").and_then(json::Value::as_f64);
                (field("name"), field("unit"), field("better"), bound)
            })
            .collect()
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let ours: Vec<_> = table
                .iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Higher => "higher",
                        Better::Lower => "lower",
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string(), d.bound)
                })
                .collect();
            assert_eq!(declared(&doc, key), ours, "{key}");
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| {
                (w.get("name").unwrap().as_str().unwrap(), w.get("why").unwrap().as_str().unwrap())
            })
            .collect();
        let ours: Vec<_> = crate::workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(crate::workloads::REFERENCE_SECONDS)
        );
    }

    #[test]
    fn every_declared_name_round_trips_through_the_result_line() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let mut e = Emitter::new(table);
            for (i, (name, ..)) in declared(&doc, key).iter().enumerate() {
                e.set(name, 0.1 + i as f64).expect("declared name accepted");
            }
            assert!(e.missing().is_empty());
            let parsed = json::parse(&result_line(7, 0, &[&e])).expect("result line is JSON");
            assert_eq!(parsed.get("correct"), Some(&json::Value::Bool(true)));
            assert_eq!(parsed.get("attempted").and_then(json::Value::as_f64), Some(7.0));
            assert_eq!(parsed.get("failed").and_then(json::Value::as_f64), Some(0.0));
            let json::Value::Object(top) = &parsed else { panic!("object") };
            assert_eq!(top.len(), 4, "exactly correct/attempted/failed/metrics");
            let metrics = parsed.get("metrics").unwrap();
            for (i, (name, unit, ..)) in declared(&doc, key).iter().enumerate() {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(0.1 + i as f64));
                assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(unit.as_str()));
            }
            for line in e.lines().lines() {
                let parts: Vec<&str> = line.split(' ').collect();
                assert_eq!(parts.len(), 4, "{line}");
                assert_eq!(parts[0], "metric");
                assert!(valid_name(parts[1]));
            }
        }
    }

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        let mut e = Emitter::new(&END_TO_END);
        for bad in ["", "lat ms", "a/b", "é", "_x", ".x", "a\"b", &"x".repeat(65)] {
            assert_eq!(e.set(bad, 1.0), Err(EmitError::BadName(bad.to_string())), "{bad:?}");
        }
        assert_eq!(e.set("not_declared", 1.0), Err(EmitError::Undeclared("not_declared".into())));
        assert_eq!(e.set("setup_s", f64::NAN), Err(EmitError::NotFinite("setup_s".into())));
        assert_eq!(e.set("setup_s", 1.0), Ok(()));
        assert_eq!(e.set("setup_s", 2.0), Err(EmitError::Duplicate("setup_s".into())));
        assert_eq!(e.missing().len(), END_TO_END.len() - 1);
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let e = Emitter::new(&END_TO_END);
        let parsed = json::parse(&result_line(3, 1, &[&e])).unwrap();
        assert_eq!(parsed.get("correct"), Some(&json::Value::Bool(false)));
    }

    #[test]
    fn values_print_without_exponents() {
        let mut e = Emitter::new(&END_TO_END);
        e.set("setup_s", 0.000_031_25).unwrap();
        e.set("allocs_per_sim_s", 1.0e21).unwrap();
        let line = result_line(1, 0, &[&e]);
        assert!(line.contains("\"value\": 0.00003125,"), "{line}");
        assert!(line.contains("\"value\": 1000000000000000000000,"), "{line}");
        assert!(json::parse(&line).is_ok());
    }
}
