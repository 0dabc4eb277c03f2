//! Crate-graph gate: the routing-agent contract (`packet::RoutingAgent`,
//! `packet::AgentCommand`) lives beside the packets, so no protocol or
//! substrate crate needs the simulation driver to build. Only the crates on
//! [`ALLOWED`] list `runner` under `[dependencies]`; a doctest or test that
//! runs a scenario takes it as a dev-dependency instead.
//!
//! The gate reads every `crates/*/Cargo.toml` and fails, naming the crate,
//! on a `runner` entry in its `[dependencies]` table (inline, or as a
//! `[dependencies.runner]` table). The list only ever shrinks: an entry
//! that no longer depends on `runner` fails the gate too.

use std::path::Path;

/// The crates that may depend on the driver, with why.
const ALLOWED: &[(&str, &str)] =
    &[("experiments", "the spec table and binaries run campaigns through the driver")];

/// The crate names a `Cargo.toml` lists under `[dependencies]`, in order.
fn dependencies(manifest: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
            let header = header.trim();
            in_table = header == "dependencies";
            if let Some(name) = header.strip_prefix("dependencies.") {
                names.push(name.trim());
            }
        } else if let Some((key, _)) = line.split_once('=').filter(|_| in_table) {
            // `name = ...` or `name.workspace = true`.
            names.push(key.split('.').next().unwrap_or_default().trim());
        }
    }
    names
}

#[test]
fn only_the_allowed_crates_depend_on_the_driver() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> =
        std::fs::read_dir(&crates).expect("crates/").map(|e| e.expect("entry").path()).collect();
    dirs.sort();
    let mut failures = Vec::new();
    let mut dependents = Vec::new();
    let mut read = 0;
    for dir in dirs {
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        read += 1;
        let name = dir.file_name().expect("a crate directory").to_string_lossy().into_owned();
        if !dependencies(&manifest).contains(&"runner") {
            continue;
        }
        if ALLOWED.iter().all(|&(allowed, _)| allowed != name) {
            failures.push(format!(
                "crates/{name}/Cargo.toml lists runner under [dependencies]: \
                 import the agent contract from packet, or make runner a dev-dependency"
            ));
        }
        dependents.push(name);
    }
    assert!(read > 10, "the walk found only {read} manifests under {}", crates.display());
    for &(allowed, why) in ALLOWED {
        if !dependents.iter().any(|d| d == allowed) {
            failures.push(format!("{allowed} no longer depends on runner: drop it ({why})"));
        }
    }
    assert!(failures.is_empty(), "crate-graph gate:\n{}", failures.join("\n"));
}

#[test]
fn the_parser_reads_only_the_dependencies_table() {
    let manifest = "\
[package]
name = \"runner\"

[dependencies]
sim-core.workspace = true
packet = { path = \"../packet\" }
# runner = { path = \"../runner\" }

[dev-dependencies]
runner.workspace = true

[dependencies.obs]
path = \"../obs\"
";
    assert_eq!(dependencies(manifest), ["sim-core", "packet", "obs"]);
}
