//! Determinism gate: the simulation crates build no hash map or set on the
//! standard library's per-process random hasher (`RandomState`), whose
//! iteration order differs from one process to the next. Key by
//! `sim_core::U64HashMap` / `U64HashSet`, or index a dense `Vec` by
//! `NodeId`.
//!
//! The gate walks `crates/*/src` and fails, naming `file:line`, on
//! `collections::HashMap` or `collections::HashSet` — spelled out or inside
//! a `use std::collections::{..}` group — and on `RandomState`, in code
//! rather than comments, in every file not on [`ALLOWED`]. The list only
//! ever shrinks: an entry whose file no longer offends fails the gate too.

use std::path::{Path, PathBuf};

/// The files that may still name the standard hash containers, with why.
const ALLOWED: &[(&str, &str)] = &[
    ("sim-core/src/hash.rs", "defines the fixed-hasher aliases U64HashMap / U64HashSet"),
    ("runner/src/journal.rs", "the supervisor's run journal, which no run reads"),
    ("runner/src/cachestamp/reference.rs", "test oracle"),
    ("packet/src/events.rs", "test module"),
];

/// Replaces every comment byte except newlines with a space, so that what
/// is left is code (and string literals) on the original line numbers.
fn strip_comments(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in out[from..to].iter_mut().filter(|c| **c != b'\n') {
            *c = b' ';
        }
    };
    let mut i = 0;
    while i < b.len() {
        match (b[i], b.get(i + 1).copied()) {
            (b'/', Some(b'/')) => {
                let end = b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |k| i + k);
                blank(&mut out, i, end);
                i = end;
            }
            (b'/', Some(b'*')) => {
                let (mut depth, mut j) = (1, i + 2);
                while j < b.len() && depth > 0 {
                    match (b[j], b.get(j + 1).copied()) {
                        (b'/', Some(b'*')) => (depth, j) = (depth + 1, j + 2),
                        (b'*', Some(b'/')) => (depth, j) = (depth - 1, j + 2),
                        _ => j += 1,
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            (b'"', _) => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            // A char literal (`'"'`, `'\n'`), not a lifetime.
            (b'\'', Some(c)) if c == b'\\' || b.get(i + 2) == Some(&b'\'') => {
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `(line, what)` for every use of the random-hasher containers in `src`.
fn offences(src: &str) -> Vec<(usize, &'static str)> {
    let code = strip_comments(src);
    let b = code.as_bytes();
    let line_of = |at: usize| 1 + b[..at].iter().filter(|&&c| c == b'\n').count();
    let mut found = Vec::new();
    let word_at = |at: usize, len: usize| {
        (at == 0 || !is_ident(b[at - 1])) && b.get(at + len).is_none_or(|&c| !is_ident(c))
    };
    for (at, _) in code.match_indices("RandomState") {
        if word_at(at, "RandomState".len()) {
            found.push((line_of(at), "RandomState"));
        }
    }
    // Every path through `collections::`: its segments, and at brace depth
    // one or more anything but a brace, so a `use` group spanning lines is
    // read whole.
    const PREFIX: &str = "collections::";
    for (start, _) in code.match_indices(PREFIX) {
        let start = start + PREFIX.len();
        let (mut depth, mut end) = (0usize, start);
        while end < b.len() {
            match b[end] {
                b'{' => depth += 1,
                b'}' if depth == 0 => break,
                b'}' => depth -= 1,
                c if depth == 0 && !(is_ident(c) || c == b':') => break,
                _ => {}
            }
            end += 1;
        }
        for name in ["HashMap", "HashSet"] {
            for (k, _) in code[start..end].match_indices(name) {
                if word_at(start + k, name.len()) {
                    found.push((line_of(start + k), name));
                }
            }
        }
    }
    found.sort_unstable();
    found
}

fn rust_files(dir: &Path, into: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, into);
        } else if path.extension().is_some_and(|x| x == "rs") {
            into.push(path);
        }
    }
}

#[test]
fn no_simulation_crate_hashes_with_a_random_state() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates/").map(|e| e.expect("entry").path()) {
        if krate.join("src").is_dir() {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    assert!(
        files.len() > 50,
        "the walk found only {} files under {}",
        files.len(),
        crates.display()
    );
    let mut failures = Vec::new();
    let mut offending = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&crates).expect("under crates/");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(file).expect("readable source");
        let hits = offences(&src);
        if hits.is_empty() {
            continue;
        }
        offending.push(rel.clone());
        if ALLOWED.iter().all(|&(allowed, _)| allowed != rel) {
            for (line, what) in hits {
                failures.push(format!("crates/{rel}:{line}: {what}"));
            }
        }
    }
    for &(allowed, why) in ALLOWED {
        if !offending.iter().any(|f| f == allowed) {
            failures.push(format!("crates/{allowed} is clean now: drop it from ALLOWED ({why})"));
        }
    }
    assert!(
        failures.is_empty(),
        "random-hasher containers outside the allow-list (use sim_core::U64HashMap / \
         U64HashSet or a Vec indexed by NodeId):\n{}",
        failures.join("\n")
    );
}

#[test]
fn the_scanner_reads_code_not_comments() {
    let src = "\
// use std::collections::HashMap;
/* std::collections::HashSet and /* nested */ RandomState */
use std::collections::{
    BTreeMap,
    HashSet as Set,
};
let s = \"// not a comment\"; let m: std::collections::HashMap<u8, u8> = todo!();
use sim_core::{U64HashMap, U64HashSet};
use std::collections::{hash_map::Entry, VecDeque};
let q = '\"'; let h = std::hash::RandomState::new();
";
    assert_eq!(offences(src), vec![(5, "HashSet"), (7, "HashMap"), (10, "RandomState")]);
}
