//! Shared helpers for the hand-rolled `dsr-timeseries v1` / `dsr-profile v1`
//! text formats.
//!
//! The grammar mirrors `dsr-forensics v1` (see `runner::forensics`): a
//! `format = <name> v<version>` first line, then `key = value` lines; the
//! time-series format additionally carries bare data rows after the header.
//! Keeping the escaping rules identical across all three formats means one
//! query tool ([`crate::query`]) can read any of them.

use std::fmt;

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

/// Reverses [`escape`]. Unknown escapes decode to the escaped character
/// itself so truncated or hand-edited files degrade gracefully.
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
            Some(other) => out.push(other),
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

/// Reduces a run label to a filesystem-safe stem (matching the forensics
/// artifact naming rule): anything outside `[A-Za-z0-9_-]` becomes `_`.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// A malformed observability file.
#[derive(Debug)]
pub enum ObsError {
    /// The first line did not announce the expected format/version.
    BadHeader { expected: &'static str, found: String },
    /// A required header key was absent.
    MissingKey(&'static str),
    /// A header key held an unparsable value.
    BadValue { key: String, value: String },
    /// A data row did not match the declared columns.
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

impl std::error::Error for ObsError {}

impl From<std::io::Error> for ObsError {
    fn from(err: std::io::Error) -> Self {
        ObsError::Io(err)
    }
}

/// An ordered `key = value` header block with indexed lookup.
#[derive(Debug, Default)]
pub struct KvBlock {
    pairs: Vec<(String, String)>,
}

impl KvBlock {
    pub fn new() -> Self {
        KvBlock::default()
    }

    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.pairs.push((key.into(), value.into()));
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

    /// Parses `key = value` lines; blank lines and `#` comments are skipped,
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
            match trimmed.split_once(" = ") {
                Some((key, value)) => block.push(key.trim(), value),
                None => row(idx + 1, trimmed)?,
            }
        }
        Ok(block)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    pub fn require(&self, key: &'static str) -> Result<&str, ObsError> {
        self.get(key).ok_or(ObsError::MissingKey(key))
    }

    pub fn require_parsed<T: std::str::FromStr>(&self, key: &'static str) -> Result<T, ObsError> {
        let raw = self.require(key)?;
        raw.parse().map_err(|_| ObsError::BadValue { key: key.to_string(), value: raw.to_string() })
    }

    /// Fingerprint-style hex `u64` (rendered `{:016x}`).
    pub fn require_hex(&self, key: &'static str) -> Result<u64, ObsError> {
        let raw = self.require(key)?;
        u64::from_str_radix(raw, 16)
            .map_err(|_| ObsError::BadValue { key: key.to_string(), value: raw.to_string() })
    }

    /// Indexed series `prefix.0`, `prefix.1`, ... up to `count`.
    pub fn indexed(&self, prefix: &str, count: usize) -> Result<Vec<&str>, ObsError> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let key = format!("{prefix}.{i}");
            let value = self.get(&key).ok_or(ObsError::MissingKey("indexed entry"))?;
            out.push(value);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let cases = ["", "plain", "with space", "line\nbreak", "back\\slash", "\r\n \\s"];
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
    fn fmt_f64_round_trips_bits() {
        for v in [0.0, 1.0, 0.1, 123.456, 1e-9, f64::MAX] {
            assert_eq!(fmt_f64(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn kv_block_renders_and_parses() {
        let mut block = KvBlock::new();
        block.push("alpha", "1");
        block.push("beta", "two words");
        let text = block.render();
        let parsed = KvBlock::parse_with_rows(&text, |_, _| unreachable!("no rows")).unwrap();
        assert_eq!(parsed.get("alpha"), Some("1"));
        assert_eq!(parsed.get("beta"), Some("two words"));
        assert_eq!(parsed.require_parsed::<u64>("alpha").unwrap(), 1);
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
    }

    #[test]
    fn missing_key_is_an_error() {
        let block = KvBlock::new();
        assert!(matches!(block.require("absent"), Err(ObsError::MissingKey("absent"))));
    }

    #[test]
    fn sanitize_keeps_only_safe_chars() {
        assert_eq!(sanitize("DSR-WE quick/5"), "DSR-WE_quick_5");
    }
}
