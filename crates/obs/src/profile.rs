//! The `dsr-profile v1` event-loop profile: events and wall-time per event
//! kind, plus drop-reason and trace-kind tallies, merged across a campaign.
//!
//! Per-run profiles are collected by the runner's event loop (wall-clock
//! timing never feeds back into simulated time, so profiling cannot perturb
//! results) and merged into one campaign-level summary:
//!
//! ```text
//! format = dsr-profile v1
//! runs = 10
//! runs_failed = 0
//! sim_seconds = 1200.0
//! wall_seconds = 45.183
//! events = 18433204
//! dispatched = 18433204
//! scheduled = 19001771
//! cancelled = 568567
//! postponed = 1204113
//! rekeyed = 433020
//! timing_stride = 64
//! kinds = 2
//! kind.0 = agent_timer 9120411 21930114312
//! kind.1 = mac_timer 8101233 1801238971
//! drops = 1
//! drop.0 = NoRoute 1203
//! traces = 1
//! trace.0 = mac_send 9121
//! ```
//!
//! `kind.N` lines are `name count wall_ns`; `drop.N`/`trace.N` are
//! `name count`. A kind's `wall_ns` is an estimate: the runner times one
//! dispatch in `timing_stride` of each kind (the first always among them)
//! and scales the sum up to all of them. All three lists are sorted by
//! name at render time so the summary is independent of merge order across
//! campaign threads.

use crate::text::{fmt_f64, KvBlock, ObsError};
use std::collections::BTreeMap;
use std::path::Path;

/// First line of every profile file.
pub const FORMAT_HEADER: &str = "dsr-profile v1";

/// A named counter with optional accumulated wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub name: String,
    pub count: u64,
    /// Wall nanoseconds attributed to this name (zero for drop/trace
    /// tallies, which count occurrences only).
    pub wall_ns: u64,
}

/// An event-loop profile for one run, or the merge of many.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Runs merged into this profile (successful ones).
    pub runs: u64,
    /// Runs that failed and contributed no timing data.
    pub runs_failed: u64,
    /// Total simulated seconds across merged runs.
    pub sim_seconds: f64,
    /// Total wall-clock seconds spent inside `try_run` across merged runs.
    pub wall_seconds: f64,
    /// Logical events processed: queue dispatches plus arrival boundaries
    /// the PHY envelope absorbed inline without a queue event — the
    /// workload-comparable figure across planner generations.
    pub events: u64,
    /// Events actually popped from the queue (sum of `EventQueue::popped`).
    pub dispatched: u64,
    /// Events scheduled, including ones later cancelled: the sum of
    /// `EventQueue::scheduled`, with each transmission front — one queue
    /// key for a run of arrival boundaries — counted as its members.
    pub scheduled: u64,
    /// Scheduled events that never dispatched (cancelled timers plus the
    /// queue remainder at the horizon) — the re-arm churn future PRs can
    /// attack.
    pub cancelled: u64,
    /// Timer re-arms the queue absorbed in place (sum of
    /// `EventQueue::postponed`): each would have been one more `scheduled`
    /// and one more `cancelled`.
    pub postponed: u64,
    /// Stale keys the queue re-filed on the way (sum of
    /// `EventQueue::rekeyed`) — what the postpones cost; not dispatches.
    pub rekeyed: u64,
    /// One dispatch in this many of each kind was timed to estimate the
    /// kinds' `wall_ns` (1: every one). Merging keeps the larger; the
    /// default profile, which merged nothing yet, carries 0.
    pub timing_stride: u64,
    /// Per-event-kind dispatch counts and wall time.
    pub kinds: Vec<Tally>,
    /// Per-drop-reason occurrence counts.
    pub drops: Vec<Tally>,
    /// Per-trace-kind emission counts (counted whether or not a trace sink
    /// is attached).
    pub traces: Vec<Tally>,
}

fn merge_tallies(into: &mut Vec<Tally>, from: &[Tally]) {
    for tally in from {
        match into.iter_mut().find(|t| t.name == tally.name) {
            Some(existing) => {
                existing.count += tally.count;
                existing.wall_ns += tally.wall_ns;
            }
            None => into.push(tally.clone()),
        }
    }
}

fn sorted(mut tallies: Vec<Tally>) -> Vec<Tally> {
    tallies.sort_by(|a, b| a.name.cmp(&b.name));
    tallies
}

impl Profile {
    /// Folds another profile (typically one run's) into this one.
    pub fn merge(&mut self, other: &Profile) {
        self.runs += other.runs;
        self.runs_failed += other.runs_failed;
        self.sim_seconds += other.sim_seconds;
        self.wall_seconds += other.wall_seconds;
        self.events += other.events;
        self.dispatched += other.dispatched;
        self.scheduled += other.scheduled;
        self.cancelled += other.cancelled;
        self.postponed += other.postponed;
        self.rekeyed += other.rekeyed;
        self.timing_stride = self.timing_stride.max(other.timing_stride);
        merge_tallies(&mut self.kinds, &other.kinds);
        merge_tallies(&mut self.drops, &other.drops);
        merge_tallies(&mut self.traces, &other.traces);
    }

    /// Events dispatched per wall second; `0.0` when no wall time was
    /// recorded.
    pub fn events_per_wall_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of scheduled events that never dispatched; `0.0` when
    /// nothing was scheduled.
    pub fn cancel_ratio(&self) -> f64 {
        if self.scheduled > 0 {
            self.cancelled as f64 / self.scheduled as f64
        } else {
            0.0
        }
    }

    /// Renders the `dsr-profile v1` text form; tally lists are name-sorted.
    pub fn render(&self) -> String {
        self.block().render()
    }

    fn block(&self) -> KvBlock {
        let mut block = KvBlock::new();
        block.push("format", FORMAT_HEADER);
        block.push("runs", self.runs.to_string());
        block.push("runs_failed", self.runs_failed.to_string());
        block.push("sim_seconds", fmt_f64(self.sim_seconds));
        block.push("wall_seconds", fmt_f64(self.wall_seconds));
        block.push("events", self.events.to_string());
        block.push("dispatched", self.dispatched.to_string());
        block.push("scheduled", self.scheduled.to_string());
        block.push("cancelled", self.cancelled.to_string());
        block.push("postponed", self.postponed.to_string());
        block.push("rekeyed", self.rekeyed.to_string());
        block.push("timing_stride", self.timing_stride.to_string());
        for (prefix, tallies) in
            [("kind", &self.kinds), ("drop", &self.drops), ("trace", &self.traces)]
        {
            let tallies = sorted(tallies.clone());
            block.push(format!("{prefix}s"), tallies.len().to_string());
            for (i, t) in tallies.iter().enumerate() {
                let line = if prefix == "kind" {
                    format!("{} {} {}", t.name, t.count, t.wall_ns)
                } else {
                    format!("{} {}", t.name, t.count)
                };
                block.push(format!("{prefix}.{i}"), line);
            }
        }
        block
    }

    /// Parses a rendered profile; a key [`Profile::render`] would not
    /// write for it is [`ObsError::BadValue`].
    pub fn parse(text: &str) -> Result<Profile, ObsError> {
        let block = KvBlock::parse(text)?;
        block.require_format(FORMAT_HEADER)?;
        let parse_tallies = |prefix: &str, with_wall: bool| -> Result<Vec<Tally>, ObsError> {
            let tally = |raw: &str| -> Option<Tally> {
                let mut parts = raw.split_whitespace();
                let name = parts.next()?.to_string();
                let count = parts.next()?.parse().ok()?;
                let wall_ns = if with_wall { parts.next()?.parse().ok()? } else { 0 };
                parts.next().is_none().then_some(Tally { name, count, wall_ns })
            };
            let bad = |raw: &str| ObsError::BadValue { key: prefix.to_string(), value: raw.into() };
            let raws = block.indexed(&format!("{prefix}s"), prefix)?;
            raws.into_iter().map(|raw| tally(raw).ok_or_else(|| bad(raw))).collect()
        };
        let profile = Profile {
            runs: block.require_parsed("runs")?,
            runs_failed: block.require_parsed("runs_failed")?,
            sim_seconds: block.require_parsed("sim_seconds")?,
            wall_seconds: block.require_parsed("wall_seconds")?,
            events: block.require_parsed("events")?,
            dispatched: block.require_parsed("dispatched")?,
            scheduled: block.require_parsed("scheduled")?,
            cancelled: block.require_parsed("cancelled")?,
            postponed: block.require_parsed("postponed")?,
            rekeyed: block.require_parsed("rekeyed")?,
            timing_stride: block.require_parsed("timing_stride")?,
            kinds: parse_tallies("kind", true)?,
            drops: parse_tallies("drop", false)?,
            traces: parse_tallies("trace", false)?,
        };
        block.refuse_keys_not_in(&profile.block())?;
        Ok(profile)
    }

    /// Loads and parses a profile from disk.
    pub fn load(path: &Path) -> Result<Profile, ObsError> {
        Profile::parse(&std::fs::read_to_string(path)?)
    }
}

/// Builds name-keyed tallies incrementally (used by the runner while the
/// event loop executes, then converted into [`Profile`] lists).
#[derive(Debug, Default)]
pub struct TallyMap {
    counts: BTreeMap<&'static str, (u64, u64)>,
}

impl TallyMap {
    pub fn new() -> Self {
        TallyMap::default()
    }

    /// Adds one occurrence with optional wall time.
    pub fn record(&mut self, name: &'static str, wall_ns: u64) {
        let slot = self.counts.entry(name).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += wall_ns;
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Converts into sorted `Tally` entries (BTreeMap iteration is already
    /// name-ordered).
    pub fn into_tallies(self) -> Vec<Tally> {
        self.counts
            .into_iter()
            .map(|(name, (count, wall_ns))| Tally { name: name.to_string(), count, wall_ns })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_run() -> Profile {
        Profile {
            runs: 1,
            runs_failed: 0,
            sim_seconds: 120.0,
            wall_seconds: 1.5,
            events: 1000,
            dispatched: 990,
            scheduled: 1100,
            cancelled: 104,
            postponed: 40,
            rekeyed: 12,
            timing_stride: 64,
            kinds: vec![
                Tally { name: "mac_timer".into(), count: 600, wall_ns: 900_000 },
                Tally { name: "agent_timer".into(), count: 400, wall_ns: 600_000 },
            ],
            drops: vec![Tally { name: "NoRoute".into(), count: 3, wall_ns: 0 }],
            traces: vec![Tally { name: "mac_send".into(), count: 600, wall_ns: 0 }],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let profile = one_run();
        let text = profile.render();
        let parsed = Profile::parse(&text).unwrap();
        // Lists are name-sorted by render, so compare re-rendered forms.
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed.events, 1000);
        assert!(text.contains("\ntiming_stride = 64\n"));
        assert_eq!(parsed.timing_stride, 64);
        assert_eq!(parsed.kinds.len(), 2);
        assert_eq!(parsed.kinds[0].name, "agent_timer");
        assert_eq!(parsed.kinds[0].wall_ns, 600_000);
    }

    #[test]
    fn merge_sums_counts_and_unions_names() {
        let mut total = Profile::default();
        total.merge(&one_run());
        let mut second = one_run();
        second.drops = vec![Tally { name: "IfqFull".into(), count: 1, wall_ns: 0 }];
        total.merge(&second);
        assert_eq!(total.runs, 2);
        assert_eq!(total.events, 2000);
        assert_eq!((total.postponed, total.rekeyed), (80, 24));
        assert_eq!(total.kinds.iter().find(|t| t.name == "mac_timer").unwrap().count, 1200);
        assert_eq!(total.drops.len(), 2);
        assert_eq!(total.timing_stride, 64, "a stride is not a sum");
        total.merge(&Profile { timing_stride: 1, ..one_run() });
        assert_eq!(total.timing_stride, 64, "the larger stride");
    }

    #[test]
    fn events_per_wall_second_handles_zero_wall() {
        assert_eq!(Profile::default().events_per_wall_second(), 0.0);
        assert!((one_run().events_per_wall_second() - 1000.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn cancel_ratio_handles_zero_scheduled() {
        assert_eq!(Profile::default().cancel_ratio(), 0.0);
        assert!((one_run().cancel_ratio() - 104.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn parse_requires_every_counter() {
        // Every writer since the profiler strided writes all five; a profile
        // without one is an earlier writer's, and is refused.
        let text = one_run().render();
        for key in ["dispatched", "cancelled", "postponed", "rekeyed", "timing_stride"] {
            let without: String = text
                .lines()
                .filter(|l| !l.starts_with(&format!("{key} =")))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(
                matches!(Profile::parse(&without), Err(ObsError::MissingKey(k)) if k == key),
                "{key}"
            );
        }
    }

    #[test]
    fn the_committed_profile_still_parses() {
        // The quick Table 3 campaign's profile, written by the current
        // writer (`dsr-exp table3_cache --obs sample`).
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/table3_cache_quick.profile");
        let text = std::fs::read_to_string(&path).expect("committed");
        let profile = Profile::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(profile.timing_stride, 64);
        assert!(!profile.kinds.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_profiles() {
        assert!(Profile::parse("format = dsr-timeseries v1\n").is_err());
        let good = one_run().render();
        assert!(Profile::parse(
            &good.replace("kind.0 = agent_timer 400 600000", "kind.0 = broken")
        )
        .is_err());
        assert!(Profile::parse(&good.replace("kinds = 2", "kinds = 3")).is_err());
        assert!(Profile::parse("format = dsr-profile v1\nstray row\n").is_err());
        // The second arrival engine's counter is an earlier writer's key.
        let paired = good.replace("cancelled = 104\n", "cancelled = 104\npaired_runs = 0\n");
        assert!(matches!(
            Profile::parse(&paired),
            Err(ObsError::BadValue { key, .. }) if key == "paired_runs"
        ));
    }

    #[test]
    fn tally_map_accumulates_and_sorts() {
        let mut map = TallyMap::new();
        map.record("b", 10);
        map.record("a", 5);
        map.record("b", 2);
        let tallies = map.into_tallies();
        assert_eq!(tallies.len(), 2);
        assert_eq!(tallies[0].name, "a");
        assert_eq!(tallies[1], Tally { name: "b".into(), count: 2, wall_ns: 12 });
    }
}
