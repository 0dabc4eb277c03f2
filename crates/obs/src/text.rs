//! The one codec behind every artifact the workspace writes.
//!
//! Five formats share it:
//!
//! * `dsr-forensics v2` repro artifacts (`runner::forensics`),
//! * `dsr-timeseries v1` gauge files ([`crate::timeseries`]),
//! * `dsr-profile v1` event-loop profiles ([`crate::profile`]),
//! * `dsr-cachetrace v1` cache-decision traces ([`crate::cachetrace`]),
//! * the campaign journal's `run` records (`runner::journal`), which carry
//!   one [`escape`]d label and [`fmt_f64`]-style floats on a single line.
//!
//! The four file formats are a [`KvBlock`]: a `format = <name> v<version>`
//! line, then `key = value` lines; the time series and the cache trace
//! append bare data rows after the header. Blank lines and `#` comments are
//! skipped. Each loader accepts exactly its current header
//! ([`KvBlock::require_format`]) and refuses every other, an earlier
//! version of its own format included: nothing translates what an earlier
//! writer wrote. Free-form strings are [`escape`]d into one whitespace-free
//! token, floats render through [`fmt_f64`] so they read back to the same
//! bits, and file names derive from a run label through [`sanitize`]. One
//! query tool ([`crate::query`]) therefore reads any of them.
//!
//! A count read from a file (`trace.count = N`, `faults = N`) never sizes
//! an allocation: [`KvBlock::count`] rejects a count larger than the block
//! has lines.

use std::collections::BTreeSet;
use std::fmt;

/// First line of a `runner::forensics` repro artifact. Defined here, beside
/// the codec, so that [`crate::query`] recognises exactly the header the
/// runner writes.
///
/// v2 added the three churn-era fault kinds (`node_churn`,
/// `region_blackout`, `radio_duty_cycle`); a v1 artifact is refused.
pub const FORENSICS_HEADER: &str = "dsr-forensics v2";

/// Escapes a value so it survives a line-oriented `key = value` format.
///
/// Backslash, newline, carriage return, and space are replaced with `\\`,
/// `\n`, `\r`, and `\s` respectively; everything else passes through.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ' ' => out.push_str("\\s"),
            other => out.push(other),
        }
    }
    out
}

/// Reverses [`escape`]. An unknown escape and a trailing backslash, which
/// [`escape`] never writes, are kept literally, so a hand-edited value
/// loses no byte.
pub fn unescape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('s') => out.push(' '),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Renders an `f64` so that parsing it back yields the identical bits
/// (`{:?}` guarantees round-tripping; `{}` does not print a decimal point
/// for whole numbers, which would re-parse as an integer-looking token).
pub fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Reduces a run label to a filesystem-safe file-name stem: anything
/// outside `[A-Za-z0-9_-]` becomes `_`.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// A malformed artifact.
#[derive(Debug)]
pub enum ObsError {
    /// The `format` line is absent or names another format/version.
    BadHeader { expected: &'static str, found: String },
    /// A required key was absent.
    MissingKey(String),
    /// A key held an unparsable value.
    BadValue { key: String, value: String },
    /// A line was neither `key = value` nor a well-formed data row.
    BadRow { line_no: usize, line: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::BadHeader { expected, found } => {
                write!(f, "bad header: expected `{expected}`, found `{found}`")
            }
            ObsError::MissingKey(key) => write!(f, "missing key `{key}`"),
            ObsError::BadValue { key, value } => {
                write!(f, "bad value for `{key}`: `{value}`")
            }
            ObsError::BadRow { line_no, line } => {
                write!(f, "bad data row at line {line_no}: `{line}`")
            }
            ObsError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObsError {
    fn from(err: std::io::Error) -> Self {
        ObsError::Io(err)
    }
}

/// An ordered `key = value` block with typed lookups. Lookups scan the
/// block, and the first of two equal keys wins.
#[derive(Debug, Default)]
pub struct KvBlock {
    pairs: Vec<(String, String)>,
}

impl KvBlock {
    pub fn new() -> Self {
        KvBlock::default()
    }

    pub fn push(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        self.pairs.push((key.into(), value.to_string()));
    }

    /// The pairs in insertion (or file) order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.pairs {
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// Parses a block with no data rows: any line that is not `key =
    /// value`, blank, or a `#` comment is an [`ObsError::BadRow`].
    pub fn parse(text: &str) -> Result<Self, ObsError> {
        KvBlock::parse_with_rows(text, |line_no, line| {
            Err(ObsError::BadRow { line_no, line: line.to_string() })
        })
    }

    /// Parses `key = value` lines (`key =` is an empty value); trailing
    /// whitespace is dropped, blank lines and `#` comments are skipped,
    /// anything else is handed to `row` (for formats with trailing data
    /// rows). `row` receives the 1-based line number.
    pub fn parse_with_rows(
        text: &str,
        mut row: impl FnMut(usize, &str) -> Result<(), ObsError>,
    ) -> Result<Self, ObsError> {
        let mut block = KvBlock::new();
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim_end();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match trimmed.split_once(" = ").or_else(|| Some((trimmed.strip_suffix(" =")?, ""))) {
                Some((key, value)) => block.push(key.trim(), value),
                None => row(idx + 1, trimmed)?,
            }
        }
        Ok(block)
    }

    /// Checks that the `format` line is `header`, the one the current
    /// writer produces.
    pub fn require_format(&self, header: &'static str) -> Result<(), ObsError> {
        let found = self.get("format").unwrap_or_default();
        if found == header {
            Ok(())
        } else {
            Err(ObsError::BadHeader { expected: header, found: found.to_string() })
        }
    }

    /// Refuses a key that `written`, the current writer's render of what
    /// was parsed, does not hold, and a key given twice (lookups read only
    /// the first): [`ObsError::BadValue`] naming the first such key, so no
    /// value in a file goes unread.
    pub fn refuse_keys_not_in(&self, written: &KvBlock) -> Result<(), ObsError> {
        let known: BTreeSet<&str> = written.pairs.iter().map(|(key, _)| key.as_str()).collect();
        let mut seen = BTreeSet::new();
        match self.pairs.iter().find(|(key, _)| !known.contains(key.as_str()) || !seen.insert(key))
        {
            Some((key, value)) => {
                Err(ObsError::BadValue { key: key.clone(), value: value.clone() })
            }
            None => Ok(()),
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether `key` was written at all (optional blocks are written only
    /// when enabled).
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub fn require(&self, key: &str) -> Result<&str, ObsError> {
        self.get(key).ok_or_else(|| ObsError::MissingKey(key.to_string()))
    }

    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ObsError> {
        let raw = self.require(key)?;
        raw.parse().map_err(|_| ObsError::BadValue { key: key.to_string(), value: raw.to_string() })
    }

    /// Fingerprint-style hex `u64` (rendered `{:016x}`).
    pub fn require_hex(&self, key: &str) -> Result<u64, ObsError> {
        let raw = self.require(key)?;
        u64::from_str_radix(raw, 16)
            .map_err(|_| ObsError::BadValue { key: key.to_string(), value: raw.to_string() })
    }

    /// An [`escape`]d free-form string.
    pub fn get_string(&self, key: &str) -> Result<String, ObsError> {
        Ok(unescape(self.require(key)?))
    }

    /// How many entries the file says follow. A count larger than the
    /// block has lines cannot be met, so it is an error rather than an
    /// allocation.
    pub fn count(&self, key: &str) -> Result<usize, ObsError> {
        let count: usize = self.require_parsed(key)?;
        if count > self.pairs.len() {
            return Err(ObsError::BadValue { key: key.to_string(), value: count.to_string() });
        }
        Ok(count)
    }

    /// The series `prefix.0`, `prefix.1`, ... whose length `count_key`
    /// declares.
    pub fn indexed(&self, count_key: &str, prefix: &str) -> Result<Vec<&str>, ObsError> {
        (0..self.count(count_key)?).map(|i| self.require(&format!("{prefix}.{i}"))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let cases =
            ["", "plain", "with space", "line\nbreak", "back\\slash", "\r\n \\s", "\\", "a\\n b"];
        for case in cases {
            assert_eq!(unescape(&escape(case)), case, "case {case:?}");
        }
    }

    #[test]
    fn escaped_values_are_single_token() {
        assert!(!escape("a b\nc").contains(' '));
        assert!(!escape("a b\nc").contains('\n'));
    }

    #[test]
    fn unknown_escapes_are_kept_literally() {
        assert_eq!(unescape("C:\\dir\\x"), "C:\\dir\\x");
        assert_eq!(unescape("trailing\\"), "trailing\\");
    }

    #[test]
    fn fmt_f64_round_trips_bits() {
        for v in [0.0, 1.0, 0.1, 123.456, 1e-9, f64::MAX] {
            assert_eq!(fmt_f64(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn kv_block_renders_and_parses() {
        let mut block = KvBlock::new();
        block.push("alpha", 1);
        block.push("beta", "two words");
        block.push("empty", escape(""));
        let text = block.render();
        let parsed = KvBlock::parse(&text).unwrap();
        assert_eq!(parsed.get("alpha"), Some("1"));
        assert_eq!(parsed.get("beta"), Some("two words"));
        assert_eq!(parsed.get_string("empty").unwrap(), "");
        assert_eq!(parsed.require_parsed::<u64>("alpha").unwrap(), 1);
        assert_eq!(parsed.pairs(), block.pairs());
    }

    #[test]
    fn kv_block_hands_rows_to_callback() {
        let text = "format = x v1\n1 2 3\n4 5 6\n";
        let mut rows = Vec::new();
        let block = KvBlock::parse_with_rows(text, |no, line| {
            rows.push((no, line.to_string()));
            Ok(())
        })
        .unwrap();
        assert_eq!(block.get("format"), Some("x v1"));
        assert_eq!(rows, vec![(2, "1 2 3".to_string()), (3, "4 5 6".to_string())]);
        assert!(matches!(KvBlock::parse(text), Err(ObsError::BadRow { line_no: 2, .. })));
    }

    #[test]
    fn missing_key_is_an_error() {
        let block = KvBlock::new();
        assert!(matches!(block.require("absent"), Err(ObsError::MissingKey(k)) if k == "absent"));
        assert!(matches!(
            block.require_format("x v2"),
            Err(ObsError::BadHeader { expected: "x v2", .. })
        ));
        let v1 = KvBlock::parse("format = x v1\n").unwrap();
        assert!(
            matches!(v1.require_format("x v2"), Err(ObsError::BadHeader { found, .. }) if found == "x v1")
        );
    }

    #[test]
    fn indexed_names_the_missing_key() {
        let block = KvBlock::parse("n = 3\nitem.0 = a\nitem.2 = c\n").unwrap();
        assert!(
            matches!(block.indexed("n", "item"), Err(ObsError::MissingKey(k)) if k == "item.1")
        );
    }

    #[test]
    fn counts_beyond_the_block_are_errors_not_allocations() {
        for count in ["1000000000000", "18446744073709551615"] {
            let block = KvBlock::parse(&format!("n = {count}\nitem.0 = a\n")).unwrap();
            assert!(matches!(block.count("n"), Err(ObsError::BadValue { .. })));
            assert!(matches!(block.indexed("n", "item"), Err(ObsError::BadValue { .. })));
        }
        let block = KvBlock::parse("n = 1\nitem.0 = a\n").unwrap();
        assert_eq!(block.indexed("n", "item").unwrap(), ["a"]);
    }

    #[test]
    fn sanitize_keeps_only_safe_chars() {
        assert_eq!(sanitize("DSR-WE quick/5"), "DSR-WE_quick_5");
    }
}
