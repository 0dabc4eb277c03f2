//! Append-only campaign journal for resumable runs.
//!
//! [`run_campaign`](crate::run_campaign) records each completed seed's
//! [`Report`] as one line of an on-disk journal; a campaign restarted with
//! the same journal skips every seed already recorded and re-runs only the
//! missing ones, returning a [`CampaignResult`](crate::CampaignResult)
//! identical to an uninterrupted run.
//!
//! Records are keyed by `(config fingerprint, seed)` — the fingerprint
//! ([`crate::forensics::config_fingerprint`]) covers the whole scenario
//! except the seed, so one journal file can serve an entire sweep of
//! distinct experiment points without collisions. Failed runs are *not*
//! journaled: a resume retries them.
//!
//! The format is line-oriented and hand-rolled (no serde): each record is
//! `run <payload-len> <fnv1a-hex> <payload>` where the payload is
//! `<schema-hex> <fingerprint-hex> <seed> <label>` followed by one value per
//! [`Report::FIELDS`] entry, in registry order, with floats in Rust's exact
//! shortest round-trip form. The length and FNV-1a checksum cover the
//! payload bytes, so a record is accepted only if it is exactly as long as
//! the writer said *and* hashes to the same value — a torn or bit-flipped
//! line cannot masquerade as a (subtly wrong) completed run.
//!
//! The schema id hashes the registry's names and kinds in order, since the
//! fingerprint does not cover `Report`'s layout. A record of another schema
//! (one written before a field was added, say) is never loaded: its seed
//! runs again. It stays on disk like a foreign line.
//!
//! Crash safety: the writer flushes after every record, so a kill
//! mid-write corrupts at most the final line. [`JournalWriter::open`]
//! scans the tail on startup and atomically truncates the file back to
//! the last valid record boundary, so a resumed campaign appends from a
//! clean edge instead of growing garbage (the loader additionally skips
//! any invalid line, belt and braces). Foreign lines (comments, other
//! tools' output) are preserved.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use metrics::{Kind, Report};
use obs::text::{escape, unescape};

use crate::forensics::fnv1a;

/// The journal's per-record leading token.
const RECORD_TAG: &str = "run";

/// Completed runs loaded from a journal file, keyed by
/// `(config fingerprint, seed)`.
#[derive(Debug, Default)]
pub struct Journal {
    runs: HashMap<(u64, u64), Report>,
}

impl Journal {
    /// Loads a journal. A missing file is an empty journal (first launch);
    /// malformed or truncated lines (e.g. from a kill mid-write) are
    /// skipped rather than failing the resume.
    pub fn load(path: &Path) -> std::io::Result<Journal> {
        // A flipped byte may leave a line that is not UTF-8; it fails its
        // checksum like any other damage instead of failing the load.
        match std::fs::read(path) {
            Ok(bytes) => Ok(Journal::parse(&String::from_utf8_lossy(&bytes))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Journal::default()),
            Err(e) => Err(e),
        }
    }

    /// Reads journal text: every valid record of the current schema,
    /// skipping any other line.
    pub fn parse(text: &str) -> Journal {
        Journal { runs: text.lines().filter_map(parse_record).collect() }
    }

    /// The journaled report for `(fingerprint, seed)`, if that run
    /// already completed.
    pub fn get(&self, fingerprint: u64, seed: u64) -> Option<&Report> {
        self.runs.get(&(fingerprint, seed))
    }

    /// Number of journaled runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the journal holds no completed runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// Appends completed runs to a journal file. Shared across campaign
/// worker threads behind an internal mutex; every record is flushed so a
/// crash loses at most the run in flight.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
}

impl JournalWriter {
    /// Opens (or creates) `path` for appending, first truncating any torn
    /// or corrupt tail left by a crash mid-write so new records append
    /// from the last valid record boundary.
    pub fn open(path: &Path) -> std::io::Result<JournalWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        let bytes = std::fs::read(path)?;
        let keep = valid_prefix_len(&bytes);
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
        }
        Ok(JournalWriter { file: Mutex::new(file) })
    }

    /// Appends one completed run and flushes.
    pub fn record(&self, fingerprint: u64, seed: u64, report: &Report) -> std::io::Result<()> {
        let line = render_record(fingerprint, seed, report);
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// Length of the journal's valid prefix: everything up to (and including)
/// the last trailing line that is either a record with a valid frame,
/// whatever its schema, or a foreign (non-`run`) line. Damage from a kill
/// mid-write is contiguous at the tail, so scanning stops at the first
/// healthy line from the end.
fn valid_prefix_len(bytes: &[u8]) -> usize {
    let mut end = bytes.len();
    loop {
        if end == 0 {
            return 0;
        }
        if bytes[end - 1] != b'\n' {
            // Unterminated tail: the write was cut off mid-line.
            end = bytes[..end].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            continue;
        }
        let line_start = bytes[..end - 1].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let healthy = match std::str::from_utf8(&bytes[line_start..end - 1]) {
            Ok(line) => {
                line.split_whitespace().next() != Some(RECORD_TAG) || payload(line).is_some()
            }
            Err(_) => false,
        };
        if healthy {
            return end;
        }
        end = line_start;
    }
}

/// The id of the record layout: FNV-1a of [`Report::FIELDS`]' names and
/// kinds in order, so a record written under another field list is never
/// read into the wrong fields.
fn schema_id() -> u64 {
    let mut layout = String::new();
    for field in Report::FIELDS {
        write!(layout, "{}:{} ", field.name, field.kind.name()).expect("write to String");
    }
    fnv1a(layout.as_bytes())
}

fn render_record(fingerprint: u64, seed: u64, report: &Report) -> String {
    let mut payload =
        format!("{:016x} {fingerprint:016x} {seed} {}", schema_id(), escape(&report.label));
    for field in Report::FIELDS {
        match field.kind {
            Kind::Count(get, _) => write!(payload, " {}", get(report)),
            Kind::Real(get, _) | Kind::Percent(get, _) => write!(payload, " {:?}", get(report)),
        }
        .expect("write to String");
    }
    format!("{RECORD_TAG} {} {:016x} {payload}\n", payload.len(), fnv1a(payload.as_bytes()))
}

/// The payload of a record whose frame, `run <payload-len> <fnv1a>
/// <payload>`, is intact: exactly as long as written and hashing to the
/// written checksum.
fn payload(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(RECORD_TAG)?.strip_prefix(' ')?;
    let (len_tok, rest) = rest.split_once(' ')?;
    let (sum_tok, payload) = rest.split_once(' ')?;
    let len: usize = len_tok.parse().ok()?;
    let sum = u64::from_str_radix(sum_tok, 16).ok()?;
    (payload.len() == len && fnv1a(payload.as_bytes()) == sum).then_some(payload)
}

/// A record of the current schema; a record of another schema, like a
/// damaged one, is `None`.
fn parse_record(line: &str) -> Option<((u64, u64), Report)> {
    let mut tokens = payload(line)?.split(' ');
    if u64::from_str_radix(tokens.next()?, 16).ok()? != schema_id() {
        return None;
    }
    let fingerprint = u64::from_str_radix(tokens.next()?, 16).ok()?;
    let seed: u64 = tokens.next()?.parse().ok()?;
    let mut report = Report { label: unescape(tokens.next()?), ..Report::default() };
    for field in Report::FIELDS {
        let token = tokens.next()?;
        match field.kind {
            Kind::Count(_, set) => set(&mut report, token.parse().ok()?),
            Kind::Real(_, set) | Kind::Percent(_, set) => set(&mut report, token.parse().ok()?),
        }
    }
    if tokens.next().is_some() {
        return None; // trailing garbage: treat the record as corrupt
    }
    Some(((fingerprint, seed), report))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose every field holds a value no other field holds.
    fn sample_report(seed: u64) -> Report {
        let mut report = Report { label: "DSR-C neg cache".into(), ..Report::default() };
        for (i, field) in Report::FIELDS.iter().enumerate() {
            let value = 1000 * seed + i as u64;
            match field.kind {
                Kind::Count(_, set) => set(&mut report, value),
                Kind::Real(_, set) | Kind::Percent(_, set) => set(&mut report, value as f64 + 0.25),
            }
        }
        report.normalized_overhead = f64::INFINITY;
        report
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("journal-test-{tag}-{}.txt", std::process::id()))
    }

    /// A report whose every value is drawn: counts up to `u64::MAX`, reals
    /// over many magnitudes with zeros and infinities among them.
    fn random_report(rng: &mut sim_core::SimRng) -> Report {
        let label = ["DSR", "DSR-C neg cache", "x\\y", "", "a\tb"][rng.random_range(0..5usize)];
        let mut report = Report { label: label.into(), ..Report::default() };
        for field in Report::FIELDS {
            let pick = rng.random_range(0..3usize);
            match field.kind {
                Kind::Count(_, set) => set(&mut report, [0, 999, rng.next_u64()][pick]),
                Kind::Real(_, set) | Kind::Percent(_, set) => {
                    let real = rng.random::<f64>() * 10f64.powi(rng.random_range(-9..10i32));
                    set(&mut report, [0.0, f64::INFINITY, real][pick])
                }
            }
        }
        report
    }

    #[test]
    fn records_round_trip_exactly() {
        let report = sample_report(1);
        let line = render_record(0xdead_beef, 7, &report);
        let ((fp, seed), back) = parse_record(line.trim_end()).expect("parse back");
        assert_eq!((fp, seed), (0xdead_beef, 7));
        // Every field holds its own value, so one read into another field's
        // place would show.
        assert_eq!(back, report);
        sim_core::testkit::cases("journal-round-trip", 0..300, |seed, rng| {
            let (fingerprint, report) = (rng.next_u64(), random_report(rng));
            let line = render_record(fingerprint, seed, &report);
            assert_eq!(parse_record(line.trim_end()), Some(((fingerprint, seed), report)));
        });
    }

    #[test]
    fn writer_appends_and_loader_reads_back() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        let writer = JournalWriter::open(&path).expect("open");
        writer.record(1, 10, &sample_report(10)).expect("record");
        writer.record(1, 11, &sample_report(11)).expect("record");
        writer.record(2, 10, &sample_report(12)).expect("record");
        drop(writer);

        let journal = Journal::load(&path).expect("load");
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.get(1, 10), Some(&sample_report(10)));
        assert_eq!(journal.get(1, 11), Some(&sample_report(11)));
        assert_eq!(journal.get(2, 10), Some(&sample_report(12)));
        assert_eq!(journal.get(2, 11), None, "fingerprints keep sweep points apart");

        // Re-opening appends rather than truncating.
        let writer = JournalWriter::open(&path).expect("reopen");
        writer.record(2, 11, &sample_report(13)).expect("record");
        drop(writer);
        assert_eq!(Journal::load(&path).expect("reload").len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let journal = Journal::load(Path::new("/nonexistent/journal.txt")).expect("load");
        assert!(journal.is_empty());
    }

    #[test]
    fn partial_trailing_line_is_skipped() {
        let path = temp_path("partial");
        let good = render_record(1, 10, &sample_report(10));
        let partial = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}{partial}")).expect("write");
        let journal = Journal::load(&path).expect("load");
        assert_eq!(journal.len(), 1, "the torn record must not load");
        assert_eq!(journal.get(1, 10), Some(&sample_report(10)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_skipped() {
        let path = temp_path("utf8");
        let good = render_record(1, 10, &sample_report(10));
        let mut bytes = good.clone().into_bytes();
        bytes[good.len() / 2] = 0xff;
        bytes.extend_from_slice(good.as_bytes());
        std::fs::write(&path, bytes).expect("write");
        let journal = Journal::load(&path).expect("a damaged line does not fail the load");
        assert_eq!(journal.get(1, 10), Some(&sample_report(10)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_lines_are_ignored() {
        let path = temp_path("foreign");
        std::fs::write(&path, "# comment\nnot-a-record at all\n").expect("write");
        assert!(Journal::load(&path).expect("load").is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksummed_records_reject_corruption() {
        let line = render_record(3, 9, &sample_report(9));
        assert!(parse_record(line.trim_end()).is_some());
        // Same length, one field changed: the checksum catches it.
        let flipped = line.replacen("cache", "cachf", 1);
        assert_ne!(flipped, line, "test premise: the field must exist");
        assert!(parse_record(flipped.trim_end()).is_none());
        // Truncated payload: the length frame catches it.
        let short = &line[..line.len() - 4];
        assert!(parse_record(short).is_none());
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_appends_resume_cleanly() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let good = render_record(1, 10, &sample_report(10));
        let torn = &good[..good.len() - 7]; // kill mid-write: no newline
        std::fs::write(&path, format!("{good}{torn}")).expect("write");

        let writer = JournalWriter::open(&path).expect("open");
        writer.record(1, 11, &sample_report(11)).expect("record");
        drop(writer);

        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(
            text,
            format!("{good}{}", render_record(1, 11, &sample_report(11))),
            "the torn tail must be gone and the new record appended at the clean edge"
        );
        let journal = Journal::load(&path).expect("load");
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.get(1, 10), Some(&sample_report(10)));
        assert_eq!(journal.get(1, 11), Some(&sample_report(11)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_trailing_record_is_truncated_but_foreign_lines_survive() {
        let path = temp_path("corrupt-tail");
        let good = render_record(1, 10, &sample_report(10));
        let corrupt = good.replacen("cache", "cachf", 1);
        std::fs::write(&path, format!("# sweep notes\n{good}{corrupt}")).expect("write");
        drop(JournalWriter::open(&path).expect("open"));
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, format!("# sweep notes\n{good}"));
        let _ = std::fs::remove_file(&path);
    }

    /// A record exactly as the writer rendered it before records carried a
    /// schema id (metric values in that writer's own order): its frame and
    /// checksum are valid.
    const EARLIER_SCHEMA: &str = "run 138 ec04b559e6765102 00805db0365eff10 3 DSR-C 30.0 1234 \
        1000 0.81 0.0 0.0 0.0 0.0 0.0 2.5 0 0 0 0 87.5 42 0.0 0 0 0 0 0.0 0 0 0 0 0 0 0 0 0 0 0.0 \
        0.0 0 0 0 0 0\n";

    #[test]
    fn an_earlier_schema_is_kept_on_disk_and_its_seed_runs_again() {
        assert!(payload(EARLIER_SCHEMA.trim_end()).is_some(), "test premise: an intact frame");
        assert!(Journal::parse(EARLIER_SCHEMA).is_empty(), "never loaded into today's fields");
        // Today's layout under another schema id is refused as well.
        let line = render_record(1, 4, &sample_report(4));
        let other = payload(line.trim_end()).expect("intact").replacen(
            &format!("{:016x}", schema_id()),
            "0123456789abcdef",
            1,
        );
        let line =
            format!("{RECORD_TAG} {} {:016x} {other}\n", other.len(), fnv1a(other.as_bytes()));
        assert!(Journal::parse(&line).is_empty());

        let path = temp_path("earlier-schema");
        let torn = render_record(1, 4, &sample_report(4));
        std::fs::write(&path, format!("{EARLIER_SCHEMA}{}", &torn[..20])).expect("write");
        drop(JournalWriter::open(&path).expect("open"));
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, EARLIER_SCHEMA, "the torn tail goes, the earlier record stays");

        // A resume finds no run for that seed, runs it and records it anew.
        let (fingerprint, seed) = (0x0080_5db0_365e_ff10, 3);
        assert_eq!(Journal::load(&path).expect("load").get(fingerprint, seed), None);
        let writer = JournalWriter::open(&path).expect("reopen");
        writer.record(fingerprint, seed, &sample_report(3)).expect("record");
        drop(writer);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(EARLIER_SCHEMA), "kept byte for byte");
        let journal = Journal::load(&path).expect("reload");
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.get(fingerprint, seed), Some(&sample_report(3)));
        let _ = std::fs::remove_file(&path);
    }
}
