//! Parsing, filtering, and summarizing of trace lines and observability
//! files — the engine behind the `trace_query` binary, which also folds a
//! directory of cache traces into the per-strategy "why" table.
//!
//! Understands five inputs, detected from the first line:
//!
//! * raw ns-2-flavored trace lines (one [`TraceLine`] per line),
//! * `dsr-forensics v2` artifacts (the escaped `trace.N` tail is
//!   extracted),
//! * `dsr-timeseries v2` files,
//! * `dsr-profile v1` files,
//! * `dsr-cachetrace v1` cache-decision traces.
//!
//! The trace grammar matches `runner::trace`'s `Display` impl:
//!
//! ```text
//! s 12.500000 _n5_ MAC RREQ 52B -> *
//! r 12.700000 _n7_ AGT DATA 512B uid 9 src n5
//! D 13.100042 _n9_ RTR NoRouteToSalvage uid 42
//! B 14.000000 _n5_ LL link n5->n2 broken
//! q 14.100000 _n5_ RTR discovery(flood) for n9
//! ```

use crate::cachetrace::CacheTrace;
use crate::profile::Profile;
use crate::text::{unescape, KvBlock, ObsError};
use crate::timeseries::TimeSeries;

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    /// The original line, verbatim.
    pub raw: String,
    /// Operation letter: `s`end, `r`eceive, `D`rop, `B`reak, `q`uery.
    pub op: char,
    /// Event time in seconds.
    pub t: f64,
    /// Node index (the `5` in `_n5_`).
    pub node: u64,
    /// Stack layer: `MAC`, `AGT`, `RTR`, or `LL`.
    pub layer: String,
    /// The line's subject: frame/packet kind, drop reason, `link`, or
    /// `discovery(...)`.
    pub what: String,
    /// Packet uid, when the line carries one (`uid N`).
    pub uid: Option<u64>,
}

impl TraceLine {
    fn op_name(op: char) -> &'static str {
        match op {
            's' => "send",
            'r' => "recv",
            'D' => "drop",
            'B' => "break",
            'q' => "discovery",
            _ => "?",
        }
    }
}

/// Parses one trace line; `None` when the line is not in trace format.
pub fn parse_trace_line(line: &str) -> Option<TraceLine> {
    let mut tokens = line.split_whitespace();
    let op_tok = tokens.next()?;
    let mut chars = op_tok.chars();
    let op = chars.next()?;
    if chars.next().is_some() || !matches!(op, 's' | 'r' | 'D' | 'B' | 'q') {
        return None;
    }
    let t: f64 = tokens.next()?.parse().ok()?;
    let node_tok = tokens.next()?;
    let node: u64 = node_tok.strip_prefix("_n")?.strip_suffix('_')?.parse().ok()?;
    let layer = tokens.next()?.to_string();
    let what = tokens.next()?.to_string();
    let rest: Vec<&str> = tokens.collect();
    let uid = rest.windows(2).find(|w| w[0] == "uid").and_then(|w| w[1].parse().ok());
    Some(TraceLine { raw: line.to_string(), op, t, node, layer, what, uid })
}

/// Predicate over trace lines; unset fields match everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    /// Node index the event must have happened at.
    pub node: Option<u64>,
    /// Required packet uid.
    pub uid: Option<u64>,
    /// Kind, matched case-insensitively against the op name (`send`,
    /// `recv`, `drop`, `break`, `discovery`), the op letter, the layer, or
    /// the line's subject (`RREQ`, `NoRouteToSalvage`, ...).
    pub kind: Option<String>,
    /// Inclusive window start, seconds.
    pub from: Option<f64>,
    /// Inclusive window end, seconds.
    pub to: Option<f64>,
}

impl Filter {
    /// True when no field is set (so every line matches).
    pub fn is_empty(&self) -> bool {
        *self == Filter::default()
    }

    /// Does `line` satisfy every set field?
    pub fn matches(&self, line: &TraceLine) -> bool {
        if self.node.is_some_and(|n| n != line.node) {
            return false;
        }
        if self.uid.is_some() && self.uid != line.uid {
            return false;
        }
        if self.from.is_some_and(|f| line.t < f) || self.to.is_some_and(|t| line.t > t) {
            return false;
        }
        if let Some(kind) = &self.kind {
            let op_letter = line.op.to_string();
            let hit = kind.eq_ignore_ascii_case(TraceLine::op_name(line.op))
                || *kind == op_letter
                || kind.eq_ignore_ascii_case(&line.layer)
                || kind.eq_ignore_ascii_case(&line.what);
            if !hit {
                return false;
            }
        }
        true
    }
}

/// The lifecycle of one packet uid across MAC/RTR/AGT.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowReport {
    /// The followed uid.
    pub uid: u64,
    /// Every matching line, in file order.
    pub lines: Vec<String>,
    /// One-line human summary of the lifecycle.
    pub summary: String,
}

/// Follows `uid` through `lines`; `None` when the uid never appears.
pub fn follow_uid(lines: &[TraceLine], uid: u64) -> Option<FollowReport> {
    let hits: Vec<&TraceLine> = lines.iter().filter(|l| l.uid == Some(uid)).collect();
    let first = hits.first()?;
    let mac_sends = hits.iter().filter(|l| l.op == 's').count();
    let terminal = hits.iter().rev().find(|l| l.op == 'r' || l.op == 'D');
    let outcome = match terminal {
        Some(l) if l.op == 'r' => format!("delivered at {:.6}s by n{}", l.t, l.node),
        Some(l) => format!("dropped ({}) at {:.6}s by n{}", l.what, l.t, l.node),
        None => "no terminal event (still in flight at trace end)".to_string(),
    };
    let summary = format!(
        "uid {uid}: first seen {:.6}s at n{}; {mac_sends} MAC transmission{}; {outcome}",
        first.t,
        first.node,
        if mac_sends == 1 { "" } else { "s" },
    );
    Some(FollowReport { uid, lines: hits.iter().map(|l| l.raw.clone()).collect(), summary })
}

/// A parsed observability input file.
#[derive(Debug)]
pub enum ObsFile {
    /// Raw trace lines, or the trace tail of a forensic artifact.
    Trace(Vec<TraceLine>),
    /// A `dsr-timeseries v2` file.
    TimeSeries(TimeSeries),
    /// A `dsr-profile v1` file.
    Profile(Profile),
    /// A `dsr-cachetrace v1` cache-decision trace.
    CacheTrace(CacheTrace),
}

/// Detects and parses any supported input text.
pub fn read_file(text: &str) -> Result<ObsFile, ObsError> {
    let first = text.lines().find(|l| !l.trim().is_empty() && !l.starts_with('#'));
    let Some(first) = first else {
        return Ok(ObsFile::Trace(Vec::new()));
    };
    if let Some(format) = first.strip_prefix("format = ") {
        if format == crate::timeseries::FORMAT_HEADER {
            return Ok(ObsFile::TimeSeries(TimeSeries::parse(text)?));
        }
        if format == crate::profile::FORMAT_HEADER {
            return Ok(ObsFile::Profile(Profile::parse(text)?));
        }
        if format == crate::cachetrace::FORMAT_HEADER {
            return Ok(ObsFile::CacheTrace(CacheTrace::parse(text)?));
        }
        if format == crate::text::FORENSICS_HEADER {
            return Ok(ObsFile::Trace(forensic_trace_tail(text)?));
        }
        return Err(ObsError::BadHeader {
            expected: "a dsr-timeseries/dsr-profile/dsr-cachetrace/dsr-forensics header or raw \
                       trace lines",
            found: format.to_string(),
        });
    }
    let mut lines = Vec::new();
    let mut saw_content = false;
    for line in text.lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        saw_content = true;
        if let Some(parsed) = parse_trace_line(line) {
            lines.push(parsed);
        }
    }
    if saw_content && lines.is_empty() {
        return Err(ObsError::BadRow { line_no: 1, line: first.to_string() });
    }
    Ok(ObsFile::Trace(lines))
}

/// Extracts and parses the escaped `trace.N` tail of a `dsr-forensics`
/// artifact (the forensics format is a [`KvBlock`] like the others).
fn forensic_trace_tail(text: &str) -> Result<Vec<TraceLine>, ObsError> {
    let block = KvBlock::parse(text)?;
    let tail = block.indexed("trace.count", "trace")?;
    Ok(tail.into_iter().filter_map(|raw| parse_trace_line(&unescape(raw))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
s 1.000000 _n0_ MAC RREQ 52B -> *
s 1.100000 _n0_ MAC DATA 584B -> n1 uid 42
r 1.100500 _n1_ AGT DATA 512B uid 42 src n0
D 2.000000 _n3_ RTR NoRouteToSalvage uid 7
B 2.500000 _n0_ LL link n0->n1 broken
q 2.600000 _n0_ RTR discovery(flood) for n1
";

    fn parsed() -> Vec<TraceLine> {
        SAMPLE.lines().map(|l| parse_trace_line(l).expect("parses")).collect()
    }

    #[test]
    fn parses_all_five_line_shapes() {
        let lines = parsed();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0].op, 's');
        assert_eq!(lines[0].node, 0);
        assert_eq!(lines[0].layer, "MAC");
        assert_eq!(lines[0].what, "RREQ");
        assert_eq!(lines[0].uid, None);
        assert_eq!(lines[1].uid, Some(42));
        assert_eq!(lines[2].op, 'r');
        assert_eq!(lines[3].what, "NoRouteToSalvage");
        assert_eq!(lines[4].what, "link");
        assert_eq!(lines[5].what, "discovery(flood)");
        assert!((lines[5].t - 2.6).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_trace_lines() {
        assert!(parse_trace_line("hello world").is_none());
        assert!(parse_trace_line("format = dsr-profile v1").is_none());
        assert!(parse_trace_line("s notatime _n0_ MAC RTS").is_none());
        assert!(parse_trace_line("x 1.0 _n0_ MAC RTS 20B -> n1").is_none());
    }

    #[test]
    fn filter_fields_compose() {
        let lines = parsed();
        let by_node = Filter { node: Some(0), ..Filter::default() };
        assert_eq!(lines.iter().filter(|l| by_node.matches(l)).count(), 4);
        let by_uid = Filter { uid: Some(42), ..Filter::default() };
        assert_eq!(lines.iter().filter(|l| by_uid.matches(l)).count(), 2);
        let by_kind = Filter { kind: Some("drop".into()), ..Filter::default() };
        assert_eq!(lines.iter().filter(|l| by_kind.matches(l)).count(), 1);
        let by_what = Filter { kind: Some("rreq".into()), ..Filter::default() };
        assert_eq!(lines.iter().filter(|l| by_what.matches(l)).count(), 1);
        let window = Filter { from: Some(1.05), to: Some(2.0), ..Filter::default() };
        assert_eq!(lines.iter().filter(|l| window.matches(l)).count(), 3);
        let both = Filter { node: Some(0), uid: Some(42), ..Filter::default() };
        assert_eq!(lines.iter().filter(|l| both.matches(l)).count(), 1);
    }

    #[test]
    fn follow_summarizes_delivery_and_drop() {
        let lines = parsed();
        let delivered = follow_uid(&lines, 42).expect("uid 42 present");
        assert_eq!(delivered.lines.len(), 2);
        assert!(delivered.summary.contains("1 MAC transmission;"));
        assert!(delivered.summary.contains("delivered at 1.100500s by n1"));
        let dropped = follow_uid(&lines, 7).expect("uid 7 present");
        assert!(dropped.summary.contains("dropped (NoRouteToSalvage)"));
        assert!(follow_uid(&lines, 999).is_none());
    }

    #[test]
    fn read_file_detects_each_format() {
        assert!(matches!(read_file(SAMPLE), Ok(ObsFile::Trace(v)) if v.len() == 6));
        let ts = crate::timeseries::TimeSeries {
            label: "DSR".into(),
            seed: 1,
            fingerprint: 2,
            interval_ns: 1_000_000_000,
            rows: vec![],
        };
        assert!(matches!(read_file(&ts.render()), Ok(ObsFile::TimeSeries(_))));
        let profile = Profile { runs: 1, ..Profile::default() };
        assert!(matches!(read_file(&profile.render()), Ok(ObsFile::Profile(p)) if p.runs == 1));
        let ct = crate::cachetrace::CacheTrace {
            label: "DSR".into(),
            seed: 1,
            fingerprint: 2,
            rows: vec![],
            dropped: 0,
        };
        assert!(matches!(read_file(&ct.render()), Ok(ObsFile::CacheTrace(c)) if c.seed == 1));
        assert!(matches!(read_file(""), Ok(ObsFile::Trace(v)) if v.is_empty()));
    }

    #[test]
    fn read_file_rejects_garbage() {
        assert!(read_file("definitely not a trace\nor anything else\n").is_err());
        assert!(read_file("format = dsr-mystery v1\n").is_err());
        // A count no file could back is an error, not an allocation.
        let huge = "format = dsr-forensics v2\ntrace.count = 1000000000000\n";
        assert!(matches!(read_file(huge), Err(ObsError::BadValue { .. })));
        // Only the current forensics header is an artifact.
        let v1 = "format = dsr-forensics v1\ntrace.count = 0\n";
        assert!(
            matches!(read_file(v1), Err(ObsError::BadHeader { found, .. }) if found == "dsr-forensics v1")
        );
    }

    #[test]
    fn forensic_tail_is_extracted_and_unescaped() {
        let artifact = "format = dsr-forensics v2\nlabel = DSR\ntrace.count = 2\n\
                        trace.0 = s\\s1.000000\\s_n0_\\sMAC\\sRTS\\s20B\\s->\\sn1\n\
                        trace.1 = D\\s2.000000\\s_n3_\\sRTR\\sNoRoute\\suid\\s7\n";
        let parsed = read_file(artifact).unwrap();
        match parsed {
            ObsFile::Trace(lines) => {
                assert_eq!(lines.len(), 2);
                assert_eq!(lines[0].what, "RTS");
                assert_eq!(lines[1].uid, Some(7));
            }
            other => panic!("expected trace tail, got {other:?}"),
        }
    }
}
