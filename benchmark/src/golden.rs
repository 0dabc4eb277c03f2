//! Golden digests: `golden/<workload>.digest`, one line per panel scenario.
//!
//! ```text
//! # label seed sim_s digest
//! base 1 60 c2b8e95d5d0808be
//! ```
//!
//! A scenario is looked up by `(label, seed, sim_s)`, so a run at another
//! `--seconds` (other scenario lengths) finds no golden and skips the check
//! instead of failing it. Goldens are re-recorded (`run.sh <workload>
//! --record-golden`) only by an issue that means to change what the
//! simulator computes.

use std::path::PathBuf;

use crate::workloads::Scenario;

/// One recorded scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub label: String,
    pub seed: u64,
    pub sim_s: f64,
    pub digest: u64,
}

impl Entry {
    pub fn of(sc: &Scenario, digest: u64) -> Self {
        Entry { label: sc.label.clone(), seed: sc.seed, sim_s: sc.sim_s, digest }
    }
}

/// A workload's recorded digests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Golden {
    pub entries: Vec<Entry>,
}

fn path(workload: &str) -> PathBuf {
    crate::home().join("golden").join(format!("{workload}.digest"))
}

impl Golden {
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad =
                || format!("golden line {}: expected `label seed sim_s digest`: {line}", i + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [label, seed, sim_s, digest] = fields[..] else { return Err(bad()) };
            entries.push(Entry {
                label: label.to_string(),
                seed: seed.parse().map_err(|_| bad())?,
                sim_s: sim_s.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            });
        }
        Ok(Golden { entries })
    }

    pub fn render(&self) -> String {
        let mut out = String::from("# label seed sim_s digest\n");
        for e in &self.entries {
            out.push_str(&format!("{} {} {} {:016x}\n", e.label, e.seed, e.sim_s, e.digest));
        }
        out
    }

    pub fn load(workload: &str) -> Result<Golden, String> {
        let path = path(workload);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Golden::parse(&text)
    }

    pub fn store(&self, workload: &str) -> Result<(), String> {
        let path = path(workload);
        std::fs::write(&path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The recorded digest for `sc`, if this exact scenario was recorded.
    pub fn lookup(&self, sc: &Scenario) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.label == sc.label && e.seed == sc.seed && e.sim_s == sc.sim_s)
            .map(|e| e.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn round_trips_and_looks_up_by_label_seed_and_length() {
        let scenarios = workloads::by_name("mobile_dsr").unwrap().scenarios(1, 20.0).panel;
        let golden = Golden {
            entries: scenarios
                .iter()
                .enumerate()
                .map(|(i, sc)| Entry::of(sc, 0xabc0 + i as u64))
                .collect(),
        };
        let reread = Golden::parse(&golden.render()).expect("own rendering parses");
        assert_eq!(reread, golden);
        assert_eq!(reread.lookup(&scenarios[2]), Some(0xabc2));
        assert_eq!(reread.lookup(&scenarios[2].with_sim_s(61.0)), None, "another length");
        let other_seed = workloads::by_name("mobile_dsr").unwrap().scenarios(2, 20.0);
        assert_eq!(reread.lookup(&other_seed.canary), None, "a canary has no golden");
    }

    #[test]
    fn refuses_malformed_lines() {
        assert!(Golden::parse("base 1 60").is_err());
        assert!(Golden::parse("base x 60 00ff").is_err());
        assert!(Golden::parse("base 1 60 zz").is_err());
        assert_eq!(Golden::parse("# only a comment\n\n").unwrap(), Golden::default());
    }

    #[test]
    fn committed_goldens_cover_every_panel_scenario() {
        for w in &workloads::ALL {
            let golden = Golden::load(w.name).unwrap_or_else(|e| panic!("{e}"));
            for sc in &w.scenarios(1, workloads::REFERENCE_SECONDS).panel {
                assert!(golden.lookup(sc).is_some(), "{}: no golden for {}", w.name, sc.label);
            }
        }
    }
}
