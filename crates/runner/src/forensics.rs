//! Self-contained repro artifacts for failed runs.
//!
//! When a campaign run fails, one line of [`RunError`] is not enough to
//! debug it: you need the exact scenario, the seed, the fault plan, and
//! the last packet-level events before the failure. A
//! [`ForensicArtifact`] bundles all of that in a small text format — an
//! [`obs::text`] `key = value` block, like every other artifact the
//! workspace writes — that the `repro` experiment binary can load and
//! re-run deterministically.
//!
//! The format is versioned by its first line (`format = dsr-forensics v2`)
//! and exact: simulated times serialize as integer nanoseconds and floats
//! as Rust's shortest round-trip representation, so a parsed artifact
//! rebuilds the *identical* [`ScenarioConfig`] and therefore the identical
//! run. Trace lines are informational (the tail of the run's
//! [`TraceEvent`](crate::TraceEvent) ring buffer) and are carried through
//! verbatim.
//!
//! Every key is named once, in the `Stored` tables below, which both
//! render and parse. [`config_fingerprint`] hashes the serialized scenario
//! *excluding the seed*, in table order; the campaign journal
//! ([`crate::journal`]) keys on it so one journal file can serve a whole
//! sweep of distinct configurations, and per-run file names carry it.
//!
//! One schema is accepted: the one [`ForensicArtifact::render`] writes.
//! The header must be [`FORENSICS_HEADER`], and a key the current render of
//! the parsed artifact does not write is [`ObsError::BadValue`] naming the
//! key, so an earlier writer's artifact (a `dsr-forensics v1` header, a
//! setting the stack now fixes as a constant, the second arrival engine's
//! `paired_arrivals`, a `link_blackout` fault) is refused rather than
//! translated: an artifact is replayed by the build that wrote it. DESIGN's
//! "Auditing & forensics" section lists each schema and the commits that
//! wrote it. Values the scenario's constructors would assert on (a zero
//! cache capacity or multipath `k`, a packet rate or reception threshold
//! that is not finite and positive, a packet over 65 535 bytes, a node
//! count outside 2..=65 535, more flows than the nodes form ordered pairs,
//! a waypoint speed range or duration its generator refuses) are rejected
//! the same way, so a crafted artifact fails to load instead of panicking
//! its replay.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use dsr::{DsrConfig, ExpiryPolicy, MultipathConfig};
use mac::MacConfig;
use mobility::{Field, Point, WaypointConfig};
use obs::text::{escape, fmt_f64, sanitize, unescape, KvBlock, ObsError, FORENSICS_HEADER};
use phy::RadioConfig;
use sim_core::hash::{fnv1a, FNV_OFFSET};
use sim_core::{NodeId, SimDuration, SimTime};
use traffic::TrafficConfig;

use crate::campaign::RunError;
use crate::config::{FaultEvent, FaultPlan, MobilitySpec, ScenarioConfig, Zone};

/// How many trailing trace events a campaign run retains for artifacts.
pub const TRACE_TAIL_CAPACITY: usize = 256;

/// The largest `traffic.packet_bytes` an artifact may carry: its data
/// frames last 262 ms, far inside the 4.29 s a transmission front's
/// members reach (DESIGN §9).
pub(crate) const MAX_PACKET_BYTES: usize = 65_535;

// ----------------------------------------------------------------------
// Scenario serialization
// ----------------------------------------------------------------------

/// A value written under one key — or, for a compound value, under keys
/// that extend it (`traffic` → `traffic.num_flows`, `fault.0` →
/// `fault.0.at_ns`). Rendering and parsing go through the same impl, so
/// the tables below name every key once, in the order the artifact lists
/// them.
trait Stored: Sized {
    fn put(&self, kv: &mut KvBlock, key: &str);
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError>;
}

/// Scalars written with `Display` and read with `FromStr`.
macro_rules! stored_as_text {
    ($($t:ty),*) => {$(
        impl Stored for $t {
            fn put(&self, kv: &mut KvBlock, key: &str) {
                kv.push(key, self);
            }
            fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
                kv.require_parsed(key)
            }
        }
    )*};
}
stored_as_text!(bool, u8, u32, u64, usize);

impl Stored for f64 {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        kv.push(key, fmt_f64(*self));
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        kv.require_parsed(key)
    }
}

impl Stored for SimDuration {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        kv.push(key, self.as_nanos());
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        Ok(SimDuration::from_nanos(kv.require_parsed(key)?))
    }
}

impl Stored for SimTime {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        kv.push(key, self.as_nanos());
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        Ok(SimTime::from_nanos(kv.require_parsed(key)?))
    }
}

impl Stored for NodeId {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        kv.push(key, self.index());
    }
    /// Rejects the broadcast address, which `NodeId::new` would panic on.
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        match kv.require_parsed(key)? {
            u16::MAX => {
                Err(ObsError::BadValue { key: key.to_string(), value: u16::MAX.to_string() })
            }
            index => Ok(NodeId::new(index)),
        }
    }
}

/// Free-form text, [`escape`]d into one token.
impl Stored for String {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        kv.push(key, escape(self));
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        kv.get_string(key)
    }
}

/// An optional seed filter: absent when unset.
impl Stored for Option<u64> {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        if let Some(value) = self {
            value.put(kv, key);
        }
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        kv.has(key).then(|| u64::take(kv, key)).transpose()
    }
}

/// `T { ".suffix" => field, ... }`: the struct's fields in artifact order,
/// each under `key` + its suffix. `field as W` stores the field through
/// the newtype `W`.
macro_rules! stored_struct {
    (@put $value:expr, $kv:ident, $key:expr) => { $value.put($kv, $key) };
    (@put $value:expr, $kv:ident, $key:expr, $W:ident) => { $W($value).put($kv, $key) };
    (@take $kv:ident, $key:expr) => { Stored::take($kv, $key)? };
    (@take $kv:ident, $key:expr, $W:ident) => { $W::take($kv, $key)?.0 };
    ($($T:ident { $($suffix:expr => $field:ident $(as $W:ident)?),* $(,)? })*) => {$(
        impl Stored for $T {
            fn put(&self, kv: &mut KvBlock, key: &str) {
                $(stored_struct!(@put self.$field, kv, &format!("{key}{}", $suffix) $(, $W)?);)*
            }
            fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
                Ok($T { $($field: stored_struct!(@take kv, &format!("{key}{}", $suffix) $(, $W)?),)* })
            }
        }
    )*};
}

/// `E at ".tag" { "name" => Variant { ".suffix" => field, ... }, ... }`:
/// the variant's name under `key` + the tag, then its fields as in
/// [`stored_struct!`].
macro_rules! stored_enum {
    ($($E:ident at $tag:literal {
        $($name:literal => $V:ident { $($suffix:literal => $field:ident),* }),* $(,)?
    })*) => {$(
        impl Stored for $E {
            fn put(&self, kv: &mut KvBlock, key: &str) {
                match self {
                    $($E::$V { $($field),* } => {
                        kv.push(format!("{key}{}", $tag), $name);
                        $($field.put(kv, &format!("{key}{}", $suffix));)*
                    })*
                }
            }
            fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
                let tag = format!("{key}{}", $tag);
                Ok(match kv.require(&tag)? {
                    $($name => $E::$V {
                        $($field: Stored::take(kv, &format!("{key}{}", $suffix))?),*
                    },)*
                    other => return Err(ObsError::BadValue { key: tag, value: other.to_string() }),
                })
            }
        }
    )*};
}

/// Shared by the waypoint table and the static layout's count.
const NUM_NODES: &str = ".num_nodes";

stored_struct! {
    ScenarioConfig {
        "seed" => seed,
        "duration_ns" => duration,
        "position_refresh_ns" => position_refresh,
        "dsr" => dsr,
        "mac" => mac,
        "radio" => radio,
        "traffic" => traffic,
        "mobility" => mobility,
        "faults" => faults,
    }
    DsrConfig {
        ".cache_capacity" => cache_capacity,
        ".wider_error_notification" => wider_error_notification,
        ".expiry" => expiry,
        ".negative_cache" => negative_cache,
        ".multipath" => multipath,
    }
    MultipathConfig { ".k" => k }
    RadioConfig { ".rx_threshold_w" => rx_threshold_w }
    TrafficConfig {
        ".num_flows" => num_flows,
        ".rate_pps" => rate_pps,
        ".packet_bytes" => packet_bytes,
        ".start_window_ns" => start_window,
    }
    WaypointConfig {
        NUM_NODES => num_nodes,
        ".field" => field,
        ".min_speed" => min_speed,
        ".max_speed" => max_speed,
        ".pause_time_ns" => pause_time,
        ".duration_ns" => duration,
    }
    Field { ".width" => width, ".height" => height }
    Point { ".x" => x, ".y" => y }
}

stored_enum! {
    ExpiryPolicy at "" {
        "none" => None {},
        "static" => Static { ".timeout_ns" => timeout },
        "adaptive" => Adaptive {},
    }
    FaultEvent at "" {
        "node_down" => NodeDown { ".node" => node, ".at_ns" => at, ".down_for_ns" => down_for },
        "frame_corruption" => FrameCorruption {
            ".prob" => prob,
            ".from_ns" => from,
            ".until_ns" => until
        },
        "panic" => Panic { ".at_ns" => at, ".only_seed" => only_seed },
        "event_storm" => EventStorm { ".at_ns" => at, ".only_seed" => only_seed },
        "node_churn" => NodeChurn { ".node" => node, ".at_ns" => at, ".down_for_ns" => down_for },
        "region_blackout" => RegionBlackout {
            "" => zone,
            ".at_ns" => at,
            ".down_for_ns" => down_for
        },
        "radio_duty_cycle" => RadioDutyCycle {
            ".node" => node,
            ".at_ns" => at,
            ".on_for_ns" => on_for,
            ".off_for_ns" => off_for,
            ".until_ns" => until
        },
    }
    Zone at ".zone" {
        "disc" => Disc { ".center" => center, ".radius_m" => radius_m },
        "half_plane" => HalfPlane { ".origin" => origin, ".normal" => normal },
        "rect" => Rect { ".min" => min, ".max" => max },
    }
    RunError at "" {
        "panicked" => Panicked { ".seed" => seed, ".payload" => payload },
        "watchdog_timeout" => WatchdogTimeout { ".seed" => seed, ".at_ns" => at },
        "event_budget_exhausted" => EventBudgetExhausted {
            ".seed" => seed,
            ".at_ns" => at,
            ".events" => events
        },
        "time_regression" => TimeRegression {
            ".seed" => seed,
            ".now_ns" => now,
            ".event_at_ns" => event_at
        },
        "conservation_violation" => ConservationViolation {
            ".seed" => seed,
            ".uid" => uid,
            ".detail" => detail
        },
        "worker_lost" => WorkerLost { ".seed" => seed, ".detail" => detail },
    }
}

/// The MAC holds no setting, and writes no key.
impl Stored for MacConfig {
    fn put(&self, _: &mut KvBlock, _: &str) {}
    fn take(_: &KvBlock, _: &str) -> Result<Self, ObsError> {
        Ok(MacConfig)
    }
}

/// A strategy switch, written only when on (`key = true`): absent keys
/// keep the config fingerprint of every scenario serialized before the
/// strategy existed.
struct Switch(bool);

impl Stored for Switch {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        if self.0 {
            kv.push(key, true);
        }
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        match kv.get(key) {
            None => Ok(Switch(false)),
            Some("true") => Ok(Switch(true)),
            Some(other) => {
                Err(ObsError::BadValue { key: key.to_string(), value: other.to_string() })
            }
        }
    }
}

/// A strategy block: its [`Switch`], then, when on, the block's keys.
impl Stored for Option<MultipathConfig> {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        Switch(self.is_some()).put(kv, key);
        if let Some(block) = self {
            block.put(kv, key);
        }
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        Switch::take(kv, key)?.0.then(|| MultipathConfig::take(kv, key)).transpose()
    }
}

/// Checks what the scenario cannot carry as a type: no value trips an
/// assertion when the run is built or a frame's airtime computed.
fn check_scenario(cfg: &ScenarioConfig) -> Result<(), ObsError> {
    let bad = |key: &str, value: String| Err(ObsError::BadValue { key: key.to_string(), value });
    // Node ids are `u16`s below the broadcast address.
    let nodes = cfg.num_nodes();
    if !(2..=usize::from(u16::MAX)).contains(&nodes) {
        return bad("mobility.num_nodes", nodes.to_string());
    }
    let traffic = &cfg.traffic;
    if traffic.num_flows > nodes * (nodes - 1) {
        return bad("traffic.num_flows", traffic.num_flows.to_string());
    }
    if !(traffic.rate_pps.is_finite() && traffic.rate_pps > 0.0) {
        return bad("traffic.rate_pps", fmt_f64(traffic.rate_pps));
    }
    if traffic.packet_bytes > MAX_PACKET_BYTES {
        return bad("traffic.packet_bytes", traffic.packet_bytes.to_string());
    }
    let threshold = cfg.radio.rx_threshold_w;
    if !(threshold.is_finite() && threshold > 0.0) {
        return bad("radio.rx_threshold_w", fmt_f64(threshold));
    }
    let dsr = &cfg.dsr;
    if dsr.cache_capacity == 0 {
        return bad("dsr.cache_capacity", "0".to_string());
    }
    if dsr.multipath.is_some_and(|m| m.k == 0) {
        return bad("dsr.multipath.k", "0".to_string());
    }
    Ok(())
}

impl Stored for MobilitySpec {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        match self {
            MobilitySpec::Waypoint(w) => {
                kv.push(key, "waypoint");
                w.put(kv, key);
            }
            MobilitySpec::Static(points) => {
                kv.push(key, "static");
                points.len().put(kv, &format!("{key}{NUM_NODES}"));
                for (i, p) in points.iter().enumerate() {
                    p.put(kv, &format!("{key}.pos.{i}"));
                }
            }
        }
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        match kv.require(key)? {
            "waypoint" => {
                let w = WaypointConfig::take(kv, key)?;
                // The checks `Field::new` and `RandomWaypoint::generate`
                // assert, as errors instead.
                let Field { width, height } = w.field;
                if !(width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0) {
                    let value = format!("{width}x{height}");
                    return Err(ObsError::BadValue { key: format!("{key}.field"), value });
                }
                if !(w.min_speed > 0.0 && w.min_speed <= w.max_speed) {
                    let value = format!("{} (max_speed {})", w.min_speed, w.max_speed);
                    return Err(ObsError::BadValue { key: format!("{key}.min_speed"), value });
                }
                if w.duration == SimDuration::ZERO {
                    let (key, value) = (format!("{key}.duration_ns"), "0".to_string());
                    return Err(ObsError::BadValue { key, value });
                }
                Ok(MobilitySpec::Waypoint(w))
            }
            "static" => (0..kv.count(&format!("{key}{NUM_NODES}"))?)
                .map(|i| Point::take(kv, &format!("{key}.pos.{i}")))
                .collect::<Result<_, _>>()
                .map(MobilitySpec::Static),
            other => Err(ObsError::BadValue { key: key.to_string(), value: other.to_string() }),
        }
    }
}

/// The number of faults under `key`, then fault `i` under `fault.i`.
impl Stored for FaultPlan {
    fn put(&self, kv: &mut KvBlock, key: &str) {
        self.events.len().put(kv, key);
        for (i, event) in self.events.iter().enumerate() {
            event.put(kv, &format!("fault.{i}"));
        }
    }
    fn take(kv: &KvBlock, key: &str) -> Result<Self, ObsError> {
        let events = (0..kv.count(key)?)
            .map(|i| FaultEvent::take(kv, &format!("fault.{i}")))
            .collect::<Result<_, _>>()?;
        Ok(FaultPlan { events })
    }
}

// ----------------------------------------------------------------------
// Fingerprints
// ----------------------------------------------------------------------

/// FNV-1a over the serialized scenario *excluding the seed*: two configs
/// share a fingerprint iff they describe the same experiment point.
/// Campaign journals key on `(fingerprint, seed)`.
pub fn config_fingerprint(cfg: &ScenarioConfig) -> u64 {
    let mut kv = KvBlock::new();
    cfg.put(&mut kv, "");
    let mut buf = Vec::new();
    for (key, value) in kv.pairs().iter().filter(|(key, _)| key != "seed") {
        buf.extend_from_slice(key.as_bytes());
        buf.push(b'=');
        buf.extend_from_slice(value.as_bytes());
        buf.push(b'\n');
    }
    fnv1a(FNV_OFFSET, &buf)
}

// ----------------------------------------------------------------------
// The artifact
// ----------------------------------------------------------------------

/// Everything needed to reproduce one failed run.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicArtifact {
    /// The campaign's run label (protocol variant).
    pub label: String,
    /// Whether the `repro` binary can rebuild the run from `config` alone
    /// (true for DSR campaigns; false when the campaign supplied a custom
    /// agent factory the artifact cannot capture).
    pub replayable: bool,
    /// The failing run's complete configuration (seed and faults
    /// included).
    pub config: ScenarioConfig,
    /// What went wrong.
    pub error: RunError,
    /// The last rendered trace events before the failure (informational;
    /// carried through verbatim).
    pub trace: Vec<String>,
}

impl ForensicArtifact {
    /// Renders the artifact in the versioned text format.
    pub fn render(&self) -> String {
        self.block().render()
    }

    fn block(&self) -> KvBlock {
        let mut kv = KvBlock::new();
        kv.push("format", FORENSICS_HEADER);
        self.label.put(&mut kv, "label");
        self.replayable.put(&mut kv, "replayable");
        self.config.put(&mut kv, "");
        self.error.put(&mut kv, "error");
        kv.push("trace.count", self.trace.len());
        for (i, line) in self.trace.iter().enumerate() {
            line.put(&mut kv, &format!("trace.{i}"));
        }
        kv
    }

    /// Parses an artifact rendered by [`ForensicArtifact::render`]. A key
    /// that render would not write for the parsed artifact is
    /// [`ObsError::BadValue`]: nothing in the text goes unread.
    pub fn parse(text: &str) -> Result<ForensicArtifact, ObsError> {
        let kv = KvBlock::parse(text)?;
        kv.require_format(FORENSICS_HEADER)?;
        let config = ScenarioConfig::take(&kv, "")?;
        check_scenario(&config)?;
        let artifact = ForensicArtifact {
            label: String::take(&kv, "label")?,
            replayable: bool::take(&kv, "replayable")?,
            config,
            error: RunError::take(&kv, "error")?,
            trace: kv.indexed("trace.count", "trace")?.into_iter().map(unescape).collect(),
        };
        kv.refuse_keys_not_in(&artifact.block())?;
        Ok(artifact)
    }

    /// The artifact's canonical file name:
    /// `<sanitized-label>_<fingerprint>_seed<seed>.txt`, the stem of the
    /// run's time series and cache trace. The config fingerprint keeps two
    /// scenario points sharing a label and seed (e.g. two cells of a
    /// parameter sweep) from clobbering each other.
    pub fn file_name(&self) -> String {
        format!(
            "{}_{:016x}_seed{}.txt",
            sanitize(&self.label),
            config_fingerprint(&self.config),
            self.config.seed
        )
    }

    /// Writes the artifact under `dir` (created if absent) and returns the
    /// full path. The content lands in a uniquely named temp file first
    /// and is renamed into place, so a concurrent writer (another campaign
    /// worker, another process) can never interleave with or tear this
    /// artifact — the rename atomically replaces whole files only. An
    /// existing artifact for the same (label, fingerprint, seed) is
    /// superseded (a resumed campaign's artifact replaces the earlier one).
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, ObsError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{}",
            self.file_name(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(self.render().as_bytes())?;
        file.sync_all()?;
        drop(file);
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(path)
    }

    /// Loads an artifact written by [`ForensicArtifact::write_to`].
    pub fn load(path: &Path) -> Result<ForensicArtifact, ObsError> {
        ForensicArtifact::parse(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr::DsrConfig;

    fn artifact(cfg: ScenarioConfig) -> ForensicArtifact {
        ForensicArtifact {
            label: cfg.dsr.label(),
            replayable: true,
            error: RunError::Panicked { seed: cfg.seed, payload: "boom at t=1".to_string() },
            config: cfg,
            trace: vec![
                "s 1.000000 _n0_ MAC RTS 20B -> n1".to_string(),
                "D 1.200000 _n1_ RTR NoRouteToSalvage uid 3".to_string(),
            ],
        }
    }

    /// One scenario of every serialized flavor: static and waypoint
    /// mobility, all seven fault kinds, every zone shape, each expiry
    /// policy and each strategy block.
    fn flavors() -> Vec<ScenarioConfig> {
        let mut configs = vec![
            ScenarioConfig::static_line(4, 200.0, 2.0, DsrConfig::combined(), 9),
            ScenarioConfig::tiny(30.0, 4.0, DsrConfig::adaptive_expiry(), 3),
            ScenarioConfig::quick(0.0, 3.0, DsrConfig::negative_cache(), 5),
            ScenarioConfig::quick(0.0, 3.0, DsrConfig::multipath(), 17),
            ScenarioConfig::quick(
                0.0,
                3.0,
                DsrConfig { multipath: Some(MultipathConfig::default()), ..DsrConfig::combined() },
                19,
            ),
            ScenarioConfig::quick(
                0.0,
                3.0,
                DsrConfig::static_expiry(SimDuration::from_secs(5.0)),
                23,
            ),
            ScenarioConfig::static_line(3, 150.0, 1.0, DsrConfig::wider_error(), 29),
        ];
        configs[0].faults = FaultPlan::none()
            .node_down(NodeId::new(2), SimTime::from_secs(5.0), SimDuration::from_secs(2.0))
            .region_blackout(
                Zone::rect(Point::new(0.0, -5.0), Point::new(100.0, 5.0)),
                SimTime::from_secs(1.0),
                SimDuration::from_secs(3.0),
            )
            .frame_corruption(0.25, SimTime::from_secs(2.0), SimTime::from_secs(4.0));
        configs[1].faults = FaultPlan {
            events: vec![
                FaultEvent::Panic { at: SimTime::from_secs(1.0), only_seed: Some(3) },
                FaultEvent::Panic { at: SimTime::from_secs(2.0), only_seed: None },
                FaultEvent::EventStorm { at: SimTime::from_secs(4.0), only_seed: None },
                FaultEvent::EventStorm { at: SimTime::from_secs(5.0), only_seed: Some(3) },
            ],
        };
        configs[2].faults = FaultPlan::none()
            .node_churn(NodeId::new(1), SimTime::from_secs(0.5), SimDuration::from_secs(1.0))
            .region_blackout(
                Zone::Disc { center: Point::new(40.0, 60.0), radius_m: 25.0 },
                SimTime::from_secs(1.0),
                SimDuration::from_secs(0.5),
            )
            .region_blackout(
                Zone::HalfPlane { origin: Point::new(50.0, 0.0), normal: Point::new(-1.0, 0.5) },
                SimTime::from_secs(2.0),
                SimDuration::from_secs(0.25),
            )
            .radio_duty_cycle(
                NodeId::new(0),
                SimTime::from_secs(0.1),
                SimDuration::from_millis(200.0),
                SimDuration::from_millis(50.0),
                SimTime::from_secs(3.0),
            );
        configs
    }

    /// Free-form text (label, panic payload, trace lines) is escaped into
    /// one token per line and comes back verbatim.
    #[test]
    fn escape_round_trips() {
        let base = artifact(ScenarioConfig::quick(0.0, 3.0, DsrConfig::combined(), 7));
        for s in ["", "plain", "a b\nc\\d\re", "\\", "trailing \\n literal"] {
            let a = ForensicArtifact {
                label: s.to_string(),
                error: RunError::Panicked { seed: 7, payload: s.to_string() },
                trace: vec![s.to_string(), format!("{s} {s}")],
                ..base.clone()
            };
            let rendered = a.render();
            let kv = KvBlock::parse(&rendered).expect("well-formed block");
            assert_eq!(rendered.lines().count(), kv.pairs().len(), "one line per key");
            for key in ["label", "error.payload", "trace.0", "trace.1"] {
                let stored = kv.get(key).expect("text field written");
                assert!(!stored.contains(char::is_whitespace), "{key} not one token: {stored:?}");
            }
            assert_eq!(ForensicArtifact::parse(&rendered).expect("parse back"), a, "case {s:?}");
        }
    }

    #[test]
    fn artifact_round_trips_every_config_flavor() {
        for cfg in flavors() {
            let a = artifact(cfg);
            let round = ForensicArtifact::parse(&a.render()).expect("parse back");
            assert_eq!(round, a);
        }
    }

    /// The rendered scenario bytes, pinned: `config_fingerprint` hashes the
    /// keys in order, and committed time-series file names carry it.
    #[test]
    fn fingerprints_and_a_full_render_are_pinned() {
        const PINNED: [u64; 7] = [
            0x283d_e964_00b6_0c86,
            0x075e_bec3_1d7e_bd54,
            0x1288_48bd_9d12_8eeb,
            0xe66d_c7d0_945a_2957,
            0x16da_26ea_1fa4_8a13,
            0x4019_93f1_442c_8a07,
            0x539b_79e6_beb0_0383,
        ];
        let got: Vec<u64> = flavors().iter().map(config_fingerprint).collect();
        let hex: Vec<String> = got.iter().map(|fp| format!("{fp:#018x}")).collect();
        assert_eq!(got, PINNED, "fingerprints moved: {hex:?}");
        let rendered = artifact(flavors().swap_remove(2)).render();
        let digest = fnv1a(FNV_OFFSET, rendered.as_bytes());
        assert_eq!(digest, 0xfb19_2a1c_3b2c_6c80, "render digest moved: {digest:#018x}");
    }

    /// Each earlier writer's schema is refused, not translated: an artifact
    /// is replayed by the build that wrote it (DESIGN, "Auditing &
    /// forensics").
    #[test]
    fn earlier_schemas_are_refused() {
        let current = faulted();
        assert!(ForensicArtifact::parse(&current).is_ok());
        let v1 = current.replace(FORENSICS_HEADER, "dsr-forensics v1");
        match ForensicArtifact::parse(&v1) {
            Err(ObsError::BadHeader { found, .. }) => assert_eq!(found, "dsr-forensics v1"),
            other => panic!("a v1 header must be a BadHeader, got {other:?}"),
        }
        // The rectangle blackout as its own fault kind, corners unzoned.
        let rect = artifact(flavors().swap_remove(0)).render();
        let link_blackout = rect
            .replace(
                "fault.1 = region_blackout\nfault.1.zone = rect\n",
                "fault.1 = link_blackout\n",
            )
            .replace("fault.1.zone.", "fault.1.");
        assert_ne!(link_blackout, rect);
        let cw_max = format!("{}", mac::config::CW_MAX);
        // The airtime settings, where the writer before they became
        // constants put them: between two lines that are adjacent only in
        // a render without them.
        let last_dsr = "dsr.negative_cache = false\n";
        let airtime = |lines: &str| {
            current.replacen(&format!("{last_dsr}radio."), &format!("{last_dsr}{lines}radio."), 1)
        };
        // Where the writer before the rule's removal put it, between two
        // lines that are adjacent only in a render without it.
        // The adaptive policy's settings, where the writer before they
        // became constants put them, at the values they always held.
        let adaptive = artifact(flavors().swap_remove(1)).render();
        let expiry = |lines: &str| {
            adaptive.replacen(
                "dsr.expiry = adaptive\n",
                &format!("dsr.expiry = adaptive\n{lines}"),
                1,
            )
        };
        let rebroadcast = current.replacen(
            "dsr.wider_error_notification = false\ndsr.expiry = ",
            "dsr.wider_error_notification = false\n\
             dsr.wider_error_rebroadcast = cached_and_used\ndsr.expiry = ",
            1,
        );
        for (text, key, value) in [
            // A setting now fixed as a constant, at the value it still has.
            (with_line(&current, &format!("mac.cw_max = {cw_max}")), "mac.cw_max", cw_max.as_str()),
            (with_line(&current, "paired_arrivals = true"), "paired_arrivals", "true"),
            (
                airtime("mac.plcp_overhead_ns = 192000\nmac.data_rate_bps = 2000000.0\n"),
                "mac.plcp_overhead_ns",
                "192000",
            ),
            (airtime("mac.data_rate_bps = 2000000.0\n"), "mac.data_rate_bps", "2000000.0"),
            // Settings removed with the extensions that were their only users.
            (
                with_line(&current, "dsr.replies_from_cache = true"),
                "dsr.replies_from_cache",
                "true",
            ),
            (with_line(&current, "dsr.preemptive = true"), "dsr.preemptive", "true"),
            (
                with_line(&current, "dsr.cache_organization = path"),
                "dsr.cache_organization",
                "path",
            ),
            (with_line(&current, "dsr.suppression = true"), "dsr.suppression", "true"),
            (rebroadcast, "dsr.wider_error_rebroadcast", "cached_and_used"),
            (
                expiry("dsr.expiry.alpha = 1.25\ndsr.expiry.quiet_term = true\n"),
                "dsr.expiry.alpha",
                "1.25",
            ),
            (expiry("dsr.expiry.quiet_term = true\n"), "dsr.expiry.quiet_term", "true"),
            (
                with_line(&current, "dsr.suppression.stretch = 1.5"),
                "dsr.suppression.stretch",
                "1.5",
            ),
            // A switch is written only when on.
            (with_line(&current, "dsr.multipath = false"), "dsr.multipath", "false"),
            (link_blackout, "fault.1", "link_blackout"),
            // Lookups read the first of two equal keys; the second is refused.
            (with_line(&current, "label = other"), "label", "other"),
        ] {
            match ForensicArtifact::parse(&text) {
                Err(ObsError::BadValue { key: bad, value: got }) => {
                    assert_eq!((bad.as_str(), got.as_str()), (key, value));
                }
                other => panic!("{key} = {value} must be a BadValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn artifact_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("forensics-test-{}", std::process::id()));
        let a = artifact(ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 7));
        let path = a.write_to(&dir).expect("write");
        assert!(path.file_name().unwrap().to_string_lossy().ends_with("_seed7.txt"));
        let loaded = ForensicArtifact::load(&path).expect("load");
        assert_eq!(loaded, a);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive a write: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_unique_per_scenario_point() {
        let a = artifact(ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 7));
        let mut other_cfg = a.config.clone();
        other_cfg.traffic.rate_pps += 1.0;
        let b = ForensicArtifact { config: other_cfg, ..a.clone() };
        assert_eq!(a.label, b.label);
        assert_eq!(a.config.seed, b.config.seed);
        assert_ne!(a.file_name(), b.file_name(), "same label+seed, different scenario point");
        let odd = ForensicArtifact { label: "DSR-SE(5s) quick/x".into(), ..a };
        assert!(odd.file_name().starts_with("DSR-SE_5s__quick_x_"), "{}", odd.file_name());
    }

    #[test]
    fn every_error_kind_round_trips() {
        let errors = [
            RunError::Panicked { seed: 1, payload: "multi\nline \\ payload".into() },
            RunError::Panicked { seed: 1, payload: String::new() },
            RunError::WatchdogTimeout { seed: 2, at: SimTime::from_secs(1.5) },
            RunError::EventBudgetExhausted { seed: 3, at: SimTime::from_secs(2.0), events: 999 },
            RunError::TimeRegression {
                seed: 4,
                now: SimTime::from_secs(3.0),
                event_at: SimTime::from_secs(1.0),
            },
            RunError::ConservationViolation { seed: 5, uid: 77, detail: "uid 77 vanished".into() },
            RunError::WorkerLost { seed: 6, detail: "worker 2 died: boom \\ bang".into() },
        ];
        let base = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 1);
        for error in errors {
            let mut a = artifact(base.clone());
            a.error = error.clone();
            let round = ForensicArtifact::parse(&a.render()).expect("parse back");
            assert_eq!(round.error, error);
        }
    }

    #[test]
    fn fingerprint_ignores_seed_but_not_config() {
        let a = ScenarioConfig::static_line(4, 200.0, 2.0, DsrConfig::base(), 1);
        let b = ScenarioConfig { seed: 999, ..a.clone() };
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        let c = ScenarioConfig::static_line(4, 200.0, 2.0, DsrConfig::wider_error(), 1);
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        let mut d = a.clone();
        d.traffic.rate_pps = 3.0;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&d));
    }

    #[test]
    fn malformed_artifacts_fail_loudly() {
        assert!(matches!(
            ForensicArtifact::parse("not an artifact"),
            Err(ObsError::BadRow { line_no: 1, .. })
        ));
        assert!(matches!(
            ForensicArtifact::parse("format = something-else v9\n"),
            Err(ObsError::BadHeader { .. })
        ));
        let good = artifact(ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 1));
        let truncated: String = good.render().lines().take(10).map(|l| format!("{l}\n")).collect();
        assert!(matches!(ForensicArtifact::parse(&truncated), Err(ObsError::MissingKey(_))));
        let corrupt = good.render().replace("dsr.cache_capacity = ", "dsr.cache_capacity = x");
        assert!(matches!(
            ForensicArtifact::parse(&corrupt),
            Err(ObsError::BadValue { key, .. }) if key == "dsr.cache_capacity"
        ));
        // An error kind the parser does not know.
        let retired = good.render().replace("error = panicked", "error = deadline_exceeded");
        assert!(matches!(ForensicArtifact::parse(&retired), Err(ObsError::BadValue { .. })));
        // Values whose constructors assert are errors, not panics.
        let waypoint = artifact(ScenarioConfig::tiny(0.0, 1.0, DsrConfig::base(), 1)).render();
        let text = with_value(&waypoint, "mobility.field.width", "-1.0");
        assert!(matches!(ForensicArtifact::parse(&text), Err(ObsError::BadValue { .. })));
        let text = with_value(&faulted(), "fault.0.node", "65535");
        assert!(matches!(ForensicArtifact::parse(&text), Err(ObsError::BadValue { .. })));
        let multipath =
            artifact(ScenarioConfig::quick(0.0, 1.0, DsrConfig::multipath(), 1)).render();
        for (text, key, value) in [
            (&faulted(), "dsr.cache_capacity", "0"),
            (&faulted(), "traffic.packet_bytes", "65536"),
            (&faulted(), "traffic.packet_bytes", "1048576"),
            (&faulted(), "traffic.packet_bytes", "4294967296"),
            (&faulted(), "traffic.packet_bytes", "18446744073709551615"),
            (&faulted(), "radio.rx_threshold_w", "NaN"),
            (&faulted(), "radio.rx_threshold_w", "0"),
            (&faulted(), "traffic.rate_pps", "0"),
            (&faulted(), "traffic.rate_pps", "-3"),
            (&faulted(), "traffic.rate_pps", "NaN"),
            (&faulted(), "traffic.rate_pps", "inf"),
            // 3 nodes form 6 ordered pairs.
            (&faulted(), "traffic.num_flows", "7"),
            (&faulted(), "traffic.num_flows", "18446744073709551615"),
            (&faulted(), "mobility.num_nodes", "1"),
            (&waypoint, "mobility.num_nodes", "0"),
            (&waypoint, "mobility.num_nodes", "65536"),
            (&waypoint, "mobility.min_speed", "0.0"),
            (&waypoint, "mobility.min_speed", "NaN"),
            (&waypoint, "mobility.min_speed", "25.0"),
            (&waypoint, "mobility.duration_ns", "0"),
            (&with_line(&faulted(), "mac.queue_capacity = 0"), "mac.queue_capacity", "0"),
            (&with_line(&faulted(), "radio.tx_power_w = NaN"), "radio.tx_power_w", "NaN"),
            (&multipath, "dsr.multipath.k", "0"),
        ] {
            match ForensicArtifact::parse(&with_value(text, key, value)) {
                Err(ObsError::BadValue { key: bad, .. }) => assert_eq!(bad, key),
                other => panic!("{key} = {value} must be a BadValue, got {other:?}"),
            }
        }
    }

    /// A static chain with one fault, rendered.
    fn faulted() -> String {
        let mut cfg = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 1);
        cfg.faults = FaultPlan::none().node_down(
            NodeId::new(1),
            SimTime::from_secs(1.0),
            SimDuration::from_secs(1.0),
        );
        artifact(cfg).render()
    }

    /// `text` with `line` added after its `replayable` line.
    fn with_line(text: &str, line: &str) -> String {
        text.replacen("replayable = true\n", &format!("replayable = true\n{line}\n"), 1)
    }

    /// `text` with `key`'s value replaced.
    fn with_value(text: &str, key: &str, value: &str) -> String {
        let line = text.lines().find(|l| l.starts_with(&format!("{key} = "))).expect("key");
        text.replace(line, &format!("{key} = {value}"))
    }

    #[test]
    fn counts_beyond_the_artifact_are_errors_not_allocations() {
        for (key, count) in [
            ("trace.count", "1000000000000"),
            ("faults", "18446744073709551615"),
            ("mobility.num_nodes", "1000000000000"),
        ] {
            match ForensicArtifact::parse(&with_value(&faulted(), key, count)) {
                Err(ObsError::BadValue { key: bad, .. }) => assert_eq!(bad, key),
                other => panic!("{key} = {count} must be a BadValue, got {other:?}"),
            }
        }
    }
}
