//! Self-contained repro artifacts for failed runs.
//!
//! When a campaign run fails, one line of [`RunError`] is not enough to
//! debug it: you need the exact scenario, the seed, the fault plan, and
//! the last packet-level events before the failure. A
//! [`ForensicArtifact`] bundles all of that in a small hand-rolled text
//! format (flat `key = value` lines — the workspace takes no serde
//! dependency) that the `repro` experiment binary can load and re-run
//! deterministically.
//!
//! The format is versioned by its first line (`format = dsr-forensics v1`)
//! and exact: simulated times serialize as integer nanoseconds and floats
//! as Rust's shortest round-trip representation, so a parsed artifact
//! rebuilds the *identical* [`ScenarioConfig`] and therefore the identical
//! run. Trace lines are informational (the tail of the run's
//! [`TraceEvent`](crate::TraceEvent) ring buffer) and are carried through
//! verbatim.
//!
//! [`config_fingerprint`] hashes the serialized scenario *excluding the
//! seed*; the campaign journal ([`crate::journal`]) keys on it so one
//! journal file can serve a whole sweep of distinct configurations.

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dsr::{
    CacheOrganization, DsrConfig, ExpiryPolicy, MultipathConfig, NegativeCacheConfig,
    PreemptiveConfig, SuppressionConfig, WiderErrorRebroadcast,
};
use mac::MacConfig;
use mobility::{Field, Point, WaypointConfig};
use phy::RadioConfig;
use sim_core::{NodeId, SimDuration, SimTime};
use traffic::TrafficConfig;

use crate::campaign::RunError;
use crate::config::{FaultEvent, FaultPlan, MobilitySpec, Region, ScenarioConfig, Zone};

/// First line of every artifact; bump the version on format changes.
///
/// v2 added the three churn-era fault kinds (`node_churn`,
/// `region_blackout`, `radio_duty_cycle`). v1 artifacts are a subset and
/// parse through the same code. Artifacts written while the simulator
/// still had a second arrival engine carry one more key, naming the engine
/// the failing run used; there is one engine now, and like any unknown key
/// it is ignored.
pub const FORMAT_HEADER: &str = "dsr-forensics v2";

/// The previous format version, still accepted by [`ForensicArtifact::parse`].
pub const FORMAT_HEADER_V1: &str = "dsr-forensics v1";

/// How many trailing trace events a campaign run retains for artifacts.
pub const TRACE_TAIL_CAPACITY: usize = 256;

/// Why an artifact could not be written or read back.
#[derive(Debug)]
pub enum ForensicError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`FORMAT_HEADER`].
    BadHeader(String),
    /// A required key is absent.
    MissingKey(String),
    /// A key's value failed to parse.
    BadValue {
        /// The offending key.
        key: String,
        /// The raw value.
        value: String,
    },
    /// A line is not `key = value`, a comment, or blank.
    BadLine {
        /// 1-based line number.
        line_no: usize,
        /// The raw line.
        line: String,
    },
}

impl fmt::Display for ForensicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForensicError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ForensicError::BadHeader(got) => {
                write!(f, "not a forensic artifact (expected '{FORMAT_HEADER}', got '{got}')")
            }
            ForensicError::MissingKey(key) => write!(f, "artifact is missing key '{key}'"),
            ForensicError::BadValue { key, value } => {
                write!(f, "artifact key '{key}' has unparseable value '{value}'")
            }
            ForensicError::BadLine { line_no, line } => {
                write!(f, "artifact line {line_no} is not 'key = value': '{line}'")
            }
        }
    }
}

impl std::error::Error for ForensicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ForensicError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ForensicError {
    fn from(e: std::io::Error) -> Self {
        ForensicError::Io(e)
    }
}

// ----------------------------------------------------------------------
// String escaping
// ----------------------------------------------------------------------

/// Escapes a free-form string into a single whitespace-free token
/// (backslash, newline, carriage return, and space are encoded), so
/// values survive both the line-oriented artifact format and the
/// journal's space-separated records.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ' ' => out.push_str("\\s"),
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`escape`]. Unknown escapes and a trailing backslash are kept
/// literally (best effort — the writer never produces them).
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('s') => out.push(' '),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

// ----------------------------------------------------------------------
// The key-value block
// ----------------------------------------------------------------------

/// An ordered `key = value` block with typed accessors.
#[derive(Debug, Default)]
struct KvBlock {
    pairs: Vec<(String, String)>,
    map: HashMap<String, String>,
}

impl KvBlock {
    fn push(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        let key = key.into();
        let value = value.to_string();
        self.map.insert(key.clone(), value.clone());
        self.pairs.push((key, value));
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.pairs {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    fn parse(text: &str) -> Result<KvBlock, ForensicError> {
        let mut block = KvBlock::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once(" = ") else {
                return Err(ForensicError::BadLine { line_no: i + 1, line: line.to_string() });
            };
            block.push(key.trim().to_string(), value.trim().to_string());
        }
        Ok(block)
    }

    fn get(&self, key: &str) -> Result<&str, ForensicError> {
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ForensicError::MissingKey(key.to_string()))
    }

    /// Whether `key` was written at all. Optional blocks (the strategy
    /// configs) are serialized only when enabled so that every scenario
    /// written before they existed keeps its config fingerprint.
    fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ForensicError> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| ForensicError::BadValue { key: key.to_string(), value: raw.to_string() })
    }

    fn get_time(&self, key: &str) -> Result<SimTime, ForensicError> {
        Ok(SimTime::from_nanos(self.get_parsed::<u64>(key)?))
    }

    fn get_duration(&self, key: &str) -> Result<SimDuration, ForensicError> {
        Ok(SimDuration::from_nanos(self.get_parsed::<u64>(key)?))
    }

    fn get_string(&self, key: &str) -> Result<String, ForensicError> {
        Ok(unescape(self.get(key)?))
    }
}

/// `{:?}` is Rust's shortest representation that round-trips through
/// `str::parse::<f64>()` exactly (including `inf`).
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

// ----------------------------------------------------------------------
// Scenario serialization
// ----------------------------------------------------------------------

fn push_scenario(kv: &mut KvBlock, cfg: &ScenarioConfig) {
    kv.push("seed", cfg.seed);
    kv.push("duration_ns", cfg.duration.as_nanos());
    kv.push("position_refresh_ns", cfg.position_refresh.as_nanos());

    let d = &cfg.dsr;
    kv.push("dsr.replies_from_cache", d.replies_from_cache);
    kv.push("dsr.salvaging", d.salvaging);
    kv.push("dsr.max_salvage_count", d.max_salvage_count);
    kv.push("dsr.gratuitous_repair", d.gratuitous_repair);
    kv.push("dsr.promiscuous", d.promiscuous);
    kv.push("dsr.gratuitous_replies", d.gratuitous_replies);
    kv.push("dsr.nonpropagating_requests", d.nonpropagating_requests);
    kv.push("dsr.send_buffer_capacity", d.send_buffer_capacity);
    kv.push("dsr.send_buffer_timeout_ns", d.send_buffer_timeout.as_nanos());
    kv.push("dsr.cache_capacity", d.cache_capacity);
    let org = match d.cache_organization {
        CacheOrganization::Path => "path",
        CacheOrganization::Link => "link",
    };
    kv.push("dsr.cache_organization", org);
    kv.push("dsr.nonprop_timeout_ns", d.nonprop_timeout.as_nanos());
    kv.push("dsr.request_period_ns", d.request_period.as_nanos());
    kv.push("dsr.max_request_period_ns", d.max_request_period.as_nanos());
    kv.push("dsr.broadcast_jitter_ns", d.broadcast_jitter.as_nanos());
    kv.push("dsr.wider_error_notification", d.wider_error_notification);
    let rb = match d.wider_error_rebroadcast {
        WiderErrorRebroadcast::CachedAndUsed => "cached_and_used",
        WiderErrorRebroadcast::CachedOnly => "cached_only",
        WiderErrorRebroadcast::Flood => "flood",
    };
    kv.push("dsr.wider_error_rebroadcast", rb);
    match d.expiry {
        ExpiryPolicy::None => kv.push("dsr.expiry", "none"),
        ExpiryPolicy::Static { timeout } => {
            kv.push("dsr.expiry", "static");
            kv.push("dsr.expiry.timeout_ns", timeout.as_nanos());
        }
        ExpiryPolicy::Adaptive { alpha, min_timeout, recompute_period, quiet_term } => {
            kv.push("dsr.expiry", "adaptive");
            kv.push("dsr.expiry.alpha", fmt_f64(alpha));
            kv.push("dsr.expiry.min_timeout_ns", min_timeout.as_nanos());
            kv.push("dsr.expiry.recompute_period_ns", recompute_period.as_nanos());
            kv.push("dsr.expiry.quiet_term", quiet_term);
        }
    }
    match d.negative_cache {
        None => kv.push("dsr.negative_cache", false),
        Some(n) => {
            kv.push("dsr.negative_cache", true);
            kv.push("dsr.negative_cache.capacity", n.capacity);
            kv.push("dsr.negative_cache.timeout_ns", n.timeout.as_nanos());
        }
    }
    // Strategy blocks are written only when enabled: absent keys keep the
    // config fingerprint of every scenario serialized before these
    // strategies existed.
    if let Some(p) = d.preemptive {
        kv.push("dsr.preemptive", true);
        kv.push("dsr.preemptive.threshold_w", fmt_f64(p.threshold_w));
        kv.push("dsr.preemptive.holdoff_ns", p.holdoff.as_nanos());
    }
    if let Some(s) = d.suppression {
        kv.push("dsr.suppression", true);
        kv.push("dsr.suppression.stretch", fmt_f64(s.stretch));
    }
    if let Some(mp) = d.multipath {
        kv.push("dsr.multipath", true);
        kv.push("dsr.multipath.k", mp.k);
    }

    let m = &cfg.mac;
    kv.push("mac.slot_ns", m.slot.as_nanos());
    kv.push("mac.sifs_ns", m.sifs.as_nanos());
    kv.push("mac.difs_ns", m.difs.as_nanos());
    kv.push("mac.plcp_overhead_ns", m.plcp_overhead.as_nanos());
    kv.push("mac.data_rate_bps", fmt_f64(m.data_rate_bps));
    kv.push("mac.cw_min", m.cw_min);
    kv.push("mac.cw_max", m.cw_max);
    kv.push("mac.short_retry_limit", m.short_retry_limit);
    kv.push("mac.long_retry_limit", m.long_retry_limit);
    kv.push("mac.rts_bytes", m.rts_bytes);
    kv.push("mac.cts_bytes", m.cts_bytes);
    kv.push("mac.ack_bytes", m.ack_bytes);
    kv.push("mac.data_header_bytes", m.data_header_bytes);
    kv.push("mac.rts_threshold_bytes", m.rts_threshold_bytes);
    kv.push("mac.queue_capacity", m.queue_capacity);

    let r = &cfg.radio;
    kv.push("radio.tx_power_w", fmt_f64(r.tx_power_w));
    kv.push("radio.antenna_gain", fmt_f64(r.antenna_gain));
    kv.push("radio.antenna_height_m", fmt_f64(r.antenna_height_m));
    kv.push("radio.wavelength_m", fmt_f64(r.wavelength_m));
    kv.push("radio.rx_threshold_w", fmt_f64(r.rx_threshold_w));
    kv.push("radio.cs_threshold_w", fmt_f64(r.cs_threshold_w));
    kv.push("radio.capture_ratio", fmt_f64(r.capture_ratio));

    let t = &cfg.traffic;
    kv.push("traffic.num_flows", t.num_flows);
    kv.push("traffic.rate_pps", fmt_f64(t.rate_pps));
    kv.push("traffic.packet_bytes", t.packet_bytes);
    kv.push("traffic.start_window_ns", t.start_window.as_nanos());

    match &cfg.mobility {
        MobilitySpec::Waypoint(w) => {
            kv.push("mobility", "waypoint");
            kv.push("mobility.num_nodes", w.num_nodes);
            kv.push("mobility.field.width", fmt_f64(w.field.width));
            kv.push("mobility.field.height", fmt_f64(w.field.height));
            kv.push("mobility.min_speed", fmt_f64(w.min_speed));
            kv.push("mobility.max_speed", fmt_f64(w.max_speed));
            kv.push("mobility.pause_time_ns", w.pause_time.as_nanos());
            kv.push("mobility.duration_ns", w.duration.as_nanos());
        }
        MobilitySpec::Static(points) => {
            kv.push("mobility", "static");
            kv.push("mobility.num_nodes", points.len());
            for (i, p) in points.iter().enumerate() {
                kv.push(format!("mobility.pos.{i}.x"), fmt_f64(p.x));
                kv.push(format!("mobility.pos.{i}.y"), fmt_f64(p.y));
            }
        }
    }

    kv.push("faults", cfg.faults.events.len());
    for (i, fault) in cfg.faults.events.iter().enumerate() {
        let k = |suffix: &str| format!("fault.{i}.{suffix}");
        match *fault {
            FaultEvent::NodeDown { node, at, down_for } => {
                kv.push(format!("fault.{i}"), "node_down");
                kv.push(k("node"), node.index());
                kv.push(k("at_ns"), at.as_nanos());
                kv.push(k("down_for_ns"), down_for.as_nanos());
            }
            FaultEvent::LinkBlackout { region, at, down_for } => {
                kv.push(format!("fault.{i}"), "link_blackout");
                kv.push(k("min.x"), fmt_f64(region.min.x));
                kv.push(k("min.y"), fmt_f64(region.min.y));
                kv.push(k("max.x"), fmt_f64(region.max.x));
                kv.push(k("max.y"), fmt_f64(region.max.y));
                kv.push(k("at_ns"), at.as_nanos());
                kv.push(k("down_for_ns"), down_for.as_nanos());
            }
            FaultEvent::FrameCorruption { prob, from, until } => {
                kv.push(format!("fault.{i}"), "frame_corruption");
                kv.push(k("prob"), fmt_f64(prob));
                kv.push(k("from_ns"), from.as_nanos());
                kv.push(k("until_ns"), until.as_nanos());
            }
            FaultEvent::Panic { at, only_seed } => {
                kv.push(format!("fault.{i}"), "panic");
                kv.push(k("at_ns"), at.as_nanos());
                if let Some(seed) = only_seed {
                    kv.push(k("only_seed"), seed);
                }
            }
            FaultEvent::EventStorm { at, only_seed } => {
                kv.push(format!("fault.{i}"), "event_storm");
                kv.push(k("at_ns"), at.as_nanos());
                if let Some(seed) = only_seed {
                    kv.push(k("only_seed"), seed);
                }
            }
            FaultEvent::NodeChurn { node, at, down_for } => {
                kv.push(format!("fault.{i}"), "node_churn");
                kv.push(k("node"), node.index());
                kv.push(k("at_ns"), at.as_nanos());
                kv.push(k("down_for_ns"), down_for.as_nanos());
            }
            FaultEvent::RegionBlackout { ref zone, at, down_for } => {
                kv.push(format!("fault.{i}"), "region_blackout");
                match *zone {
                    Zone::Disc { center, radius_m } => {
                        kv.push(k("zone"), "disc");
                        kv.push(k("center.x"), fmt_f64(center.x));
                        kv.push(k("center.y"), fmt_f64(center.y));
                        kv.push(k("radius_m"), fmt_f64(radius_m));
                    }
                    Zone::HalfPlane { origin, normal } => {
                        kv.push(k("zone"), "half_plane");
                        kv.push(k("origin.x"), fmt_f64(origin.x));
                        kv.push(k("origin.y"), fmt_f64(origin.y));
                        kv.push(k("normal.x"), fmt_f64(normal.x));
                        kv.push(k("normal.y"), fmt_f64(normal.y));
                    }
                }
                kv.push(k("at_ns"), at.as_nanos());
                kv.push(k("down_for_ns"), down_for.as_nanos());
            }
            FaultEvent::RadioDutyCycle { node, at, on_for, off_for, until } => {
                kv.push(format!("fault.{i}"), "radio_duty_cycle");
                kv.push(k("node"), node.index());
                kv.push(k("at_ns"), at.as_nanos());
                kv.push(k("on_for_ns"), on_for.as_nanos());
                kv.push(k("off_for_ns"), off_for.as_nanos());
                kv.push(k("until_ns"), until.as_nanos());
            }
        }
    }
}

fn parse_scenario(kv: &KvBlock) -> Result<ScenarioConfig, ForensicError> {
    let bad = |key: &str, value: &str| ForensicError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
    };

    let expiry = match kv.get("dsr.expiry")? {
        "none" => ExpiryPolicy::None,
        "static" => ExpiryPolicy::Static { timeout: kv.get_duration("dsr.expiry.timeout_ns")? },
        "adaptive" => ExpiryPolicy::Adaptive {
            alpha: kv.get_parsed("dsr.expiry.alpha")?,
            min_timeout: kv.get_duration("dsr.expiry.min_timeout_ns")?,
            recompute_period: kv.get_duration("dsr.expiry.recompute_period_ns")?,
            quiet_term: kv.get_parsed("dsr.expiry.quiet_term")?,
        },
        other => return Err(bad("dsr.expiry", other)),
    };
    let negative_cache = if kv.get_parsed::<bool>("dsr.negative_cache")? {
        Some(NegativeCacheConfig {
            capacity: kv.get_parsed("dsr.negative_cache.capacity")?,
            timeout: kv.get_duration("dsr.negative_cache.timeout_ns")?,
        })
    } else {
        None
    };
    let preemptive = if kv.has("dsr.preemptive") {
        Some(PreemptiveConfig {
            threshold_w: kv.get_parsed("dsr.preemptive.threshold_w")?,
            holdoff: kv.get_duration("dsr.preemptive.holdoff_ns")?,
        })
    } else {
        None
    };
    let suppression = if kv.has("dsr.suppression") {
        Some(SuppressionConfig { stretch: kv.get_parsed("dsr.suppression.stretch")? })
    } else {
        None
    };
    let multipath = if kv.has("dsr.multipath") {
        Some(MultipathConfig { k: kv.get_parsed("dsr.multipath.k")? })
    } else {
        None
    };
    let dsr = DsrConfig {
        replies_from_cache: kv.get_parsed("dsr.replies_from_cache")?,
        salvaging: kv.get_parsed("dsr.salvaging")?,
        max_salvage_count: kv.get_parsed("dsr.max_salvage_count")?,
        gratuitous_repair: kv.get_parsed("dsr.gratuitous_repair")?,
        promiscuous: kv.get_parsed("dsr.promiscuous")?,
        gratuitous_replies: kv.get_parsed("dsr.gratuitous_replies")?,
        nonpropagating_requests: kv.get_parsed("dsr.nonpropagating_requests")?,
        send_buffer_capacity: kv.get_parsed("dsr.send_buffer_capacity")?,
        send_buffer_timeout: kv.get_duration("dsr.send_buffer_timeout_ns")?,
        cache_capacity: kv.get_parsed("dsr.cache_capacity")?,
        cache_organization: match kv.get("dsr.cache_organization")? {
            "path" => CacheOrganization::Path,
            "link" => CacheOrganization::Link,
            other => return Err(bad("dsr.cache_organization", other)),
        },
        nonprop_timeout: kv.get_duration("dsr.nonprop_timeout_ns")?,
        request_period: kv.get_duration("dsr.request_period_ns")?,
        max_request_period: kv.get_duration("dsr.max_request_period_ns")?,
        broadcast_jitter: kv.get_duration("dsr.broadcast_jitter_ns")?,
        wider_error_notification: kv.get_parsed("dsr.wider_error_notification")?,
        wider_error_rebroadcast: match kv.get("dsr.wider_error_rebroadcast")? {
            "cached_and_used" => WiderErrorRebroadcast::CachedAndUsed,
            "cached_only" => WiderErrorRebroadcast::CachedOnly,
            "flood" => WiderErrorRebroadcast::Flood,
            other => return Err(bad("dsr.wider_error_rebroadcast", other)),
        },
        expiry,
        negative_cache,
        preemptive,
        suppression,
        multipath,
    };

    let mac = MacConfig {
        slot: kv.get_duration("mac.slot_ns")?,
        sifs: kv.get_duration("mac.sifs_ns")?,
        difs: kv.get_duration("mac.difs_ns")?,
        plcp_overhead: kv.get_duration("mac.plcp_overhead_ns")?,
        data_rate_bps: kv.get_parsed("mac.data_rate_bps")?,
        cw_min: kv.get_parsed("mac.cw_min")?,
        cw_max: kv.get_parsed("mac.cw_max")?,
        short_retry_limit: kv.get_parsed("mac.short_retry_limit")?,
        long_retry_limit: kv.get_parsed("mac.long_retry_limit")?,
        rts_bytes: kv.get_parsed("mac.rts_bytes")?,
        cts_bytes: kv.get_parsed("mac.cts_bytes")?,
        ack_bytes: kv.get_parsed("mac.ack_bytes")?,
        data_header_bytes: kv.get_parsed("mac.data_header_bytes")?,
        rts_threshold_bytes: kv.get_parsed("mac.rts_threshold_bytes")?,
        queue_capacity: kv.get_parsed("mac.queue_capacity")?,
    };

    let radio = RadioConfig {
        tx_power_w: kv.get_parsed("radio.tx_power_w")?,
        antenna_gain: kv.get_parsed("radio.antenna_gain")?,
        antenna_height_m: kv.get_parsed("radio.antenna_height_m")?,
        wavelength_m: kv.get_parsed("radio.wavelength_m")?,
        rx_threshold_w: kv.get_parsed("radio.rx_threshold_w")?,
        cs_threshold_w: kv.get_parsed("radio.cs_threshold_w")?,
        capture_ratio: kv.get_parsed("radio.capture_ratio")?,
    };

    let traffic = TrafficConfig {
        num_flows: kv.get_parsed("traffic.num_flows")?,
        rate_pps: kv.get_parsed("traffic.rate_pps")?,
        packet_bytes: kv.get_parsed("traffic.packet_bytes")?,
        start_window: kv.get_duration("traffic.start_window_ns")?,
    };

    let mobility = match kv.get("mobility")? {
        "waypoint" => MobilitySpec::Waypoint(WaypointConfig {
            num_nodes: kv.get_parsed("mobility.num_nodes")?,
            field: Field::new(
                kv.get_parsed("mobility.field.width")?,
                kv.get_parsed("mobility.field.height")?,
            ),
            min_speed: kv.get_parsed("mobility.min_speed")?,
            max_speed: kv.get_parsed("mobility.max_speed")?,
            pause_time: kv.get_duration("mobility.pause_time_ns")?,
            duration: kv.get_duration("mobility.duration_ns")?,
        }),
        "static" => {
            let n: usize = kv.get_parsed("mobility.num_nodes")?;
            let mut points = Vec::with_capacity(n);
            for i in 0..n {
                points.push(Point::new(
                    kv.get_parsed(&format!("mobility.pos.{i}.x"))?,
                    kv.get_parsed(&format!("mobility.pos.{i}.y"))?,
                ));
            }
            MobilitySpec::Static(points)
        }
        other => return Err(bad("mobility", other)),
    };

    let num_faults: usize = kv.get_parsed("faults")?;
    let mut events = Vec::with_capacity(num_faults);
    for i in 0..num_faults {
        let kind_key = format!("fault.{i}");
        let k = |suffix: &str| format!("fault.{i}.{suffix}");
        let event = match kv.get(&kind_key)? {
            "node_down" => FaultEvent::NodeDown {
                node: NodeId::new(kv.get_parsed(&k("node"))?),
                at: kv.get_time(&k("at_ns"))?,
                down_for: kv.get_duration(&k("down_for_ns"))?,
            },
            "link_blackout" => FaultEvent::LinkBlackout {
                region: Region::new(
                    Point::new(kv.get_parsed(&k("min.x"))?, kv.get_parsed(&k("min.y"))?),
                    Point::new(kv.get_parsed(&k("max.x"))?, kv.get_parsed(&k("max.y"))?),
                ),
                at: kv.get_time(&k("at_ns"))?,
                down_for: kv.get_duration(&k("down_for_ns"))?,
            },
            "frame_corruption" => FaultEvent::FrameCorruption {
                prob: kv.get_parsed(&k("prob"))?,
                from: kv.get_time(&k("from_ns"))?,
                until: kv.get_time(&k("until_ns"))?,
            },
            "panic" => FaultEvent::Panic {
                at: kv.get_time(&k("at_ns"))?,
                only_seed: match kv.map.get(&k("only_seed")) {
                    Some(_) => Some(kv.get_parsed(&k("only_seed"))?),
                    None => None,
                },
            },
            "event_storm" => FaultEvent::EventStorm {
                at: kv.get_time(&k("at_ns"))?,
                only_seed: match kv.map.get(&k("only_seed")) {
                    Some(_) => Some(kv.get_parsed(&k("only_seed"))?),
                    None => None,
                },
            },
            "node_churn" => FaultEvent::NodeChurn {
                node: NodeId::new(kv.get_parsed(&k("node"))?),
                at: kv.get_time(&k("at_ns"))?,
                down_for: kv.get_duration(&k("down_for_ns"))?,
            },
            "region_blackout" => FaultEvent::RegionBlackout {
                zone: match kv.get(&k("zone"))? {
                    "disc" => Zone::Disc {
                        center: Point::new(
                            kv.get_parsed(&k("center.x"))?,
                            kv.get_parsed(&k("center.y"))?,
                        ),
                        radius_m: kv.get_parsed(&k("radius_m"))?,
                    },
                    "half_plane" => Zone::HalfPlane {
                        origin: Point::new(
                            kv.get_parsed(&k("origin.x"))?,
                            kv.get_parsed(&k("origin.y"))?,
                        ),
                        normal: Point::new(
                            kv.get_parsed(&k("normal.x"))?,
                            kv.get_parsed(&k("normal.y"))?,
                        ),
                    },
                    other => return Err(bad(&k("zone"), other)),
                },
                at: kv.get_time(&k("at_ns"))?,
                down_for: kv.get_duration(&k("down_for_ns"))?,
            },
            "radio_duty_cycle" => FaultEvent::RadioDutyCycle {
                node: NodeId::new(kv.get_parsed(&k("node"))?),
                at: kv.get_time(&k("at_ns"))?,
                on_for: kv.get_duration(&k("on_for_ns"))?,
                off_for: kv.get_duration(&k("off_for_ns"))?,
                until: kv.get_time(&k("until_ns"))?,
            },
            other => return Err(bad(&kind_key, other)),
        };
        events.push(event);
    }

    Ok(ScenarioConfig {
        seed: kv.get_parsed("seed")?,
        dsr,
        mac,
        radio,
        mobility,
        traffic,
        duration: kv.get_duration("duration_ns")?,
        position_refresh: kv.get_duration("position_refresh_ns")?,
        faults: FaultPlan { events },
    })
}

// ----------------------------------------------------------------------
// Error serialization
// ----------------------------------------------------------------------

fn push_error(kv: &mut KvBlock, error: &RunError) {
    match error {
        RunError::Panicked { seed, payload } => {
            kv.push("error", "panicked");
            kv.push("error.seed", seed);
            kv.push("error.payload", escape(payload));
        }
        RunError::WatchdogTimeout { seed, at } => {
            kv.push("error", "watchdog_timeout");
            kv.push("error.seed", seed);
            kv.push("error.at_ns", at.as_nanos());
        }
        RunError::EventBudgetExhausted { seed, at, events } => {
            kv.push("error", "event_budget_exhausted");
            kv.push("error.seed", seed);
            kv.push("error.at_ns", at.as_nanos());
            kv.push("error.events", events);
        }
        RunError::TimeRegression { seed, now, event_at } => {
            kv.push("error", "time_regression");
            kv.push("error.seed", seed);
            kv.push("error.now_ns", now.as_nanos());
            kv.push("error.event_at_ns", event_at.as_nanos());
        }
        RunError::ConservationViolation { seed, uid, detail } => {
            kv.push("error", "conservation_violation");
            kv.push("error.seed", seed);
            kv.push("error.uid", uid);
            kv.push("error.detail", escape(detail));
        }
        RunError::WorkerLost { seed, detail } => {
            kv.push("error", "worker_lost");
            kv.push("error.seed", seed);
            kv.push("error.detail", escape(detail));
        }
    }
}

fn parse_error(kv: &KvBlock) -> Result<RunError, ForensicError> {
    let seed = kv.get_parsed("error.seed")?;
    Ok(match kv.get("error")? {
        "panicked" => RunError::Panicked { seed, payload: kv.get_string("error.payload")? },
        "watchdog_timeout" => RunError::WatchdogTimeout { seed, at: kv.get_time("error.at_ns")? },
        "event_budget_exhausted" => RunError::EventBudgetExhausted {
            seed,
            at: kv.get_time("error.at_ns")?,
            events: kv.get_parsed("error.events")?,
        },
        "time_regression" => RunError::TimeRegression {
            seed,
            now: kv.get_time("error.now_ns")?,
            event_at: kv.get_time("error.event_at_ns")?,
        },
        "conservation_violation" => RunError::ConservationViolation {
            seed,
            uid: kv.get_parsed("error.uid")?,
            detail: kv.get_string("error.detail")?,
        },
        "worker_lost" => RunError::WorkerLost { seed, detail: kv.get_string("error.detail")? },
        other => {
            return Err(ForensicError::BadValue {
                key: "error".to_string(),
                value: other.to_string(),
            })
        }
    })
}

// ----------------------------------------------------------------------
// Fingerprints
// ----------------------------------------------------------------------

/// FNV-1a over a byte slice. Shared by [`config_fingerprint`] and the
/// journal's per-record checksums ([`crate::journal`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over the serialized scenario *excluding the seed*: two configs
/// share a fingerprint iff they describe the same experiment point.
/// Campaign journals key on `(fingerprint, seed)`.
pub fn config_fingerprint(cfg: &ScenarioConfig) -> u64 {
    let mut kv = KvBlock::default();
    push_scenario(&mut kv, cfg);
    let mut buf = Vec::new();
    for (key, value) in &kv.pairs {
        if key == "seed" {
            continue;
        }
        buf.extend_from_slice(key.as_bytes());
        buf.push(b'=');
        buf.extend_from_slice(value.as_bytes());
        buf.push(b'\n');
    }
    fnv1a(&buf)
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
        let mut kv = KvBlock::default();
        kv.push("format", FORMAT_HEADER);
        kv.push("label", escape(&self.label));
        kv.push("replayable", self.replayable);
        push_scenario(&mut kv, &self.config);
        push_error(&mut kv, &self.error);
        kv.push("trace.count", self.trace.len());
        for (i, line) in self.trace.iter().enumerate() {
            kv.push(format!("trace.{i}"), escape(line));
        }
        kv.render()
    }

    /// Parses an artifact rendered by [`ForensicArtifact::render`].
    pub fn parse(text: &str) -> Result<ForensicArtifact, ForensicError> {
        let kv = KvBlock::parse(text)?;
        let header = kv.get("format").map_err(|_| {
            ForensicError::BadHeader(text.lines().next().unwrap_or_default().to_string())
        })?;
        if header != FORMAT_HEADER && header != FORMAT_HEADER_V1 {
            return Err(ForensicError::BadHeader(header.to_string()));
        }
        let trace_count: usize = kv.get_parsed("trace.count")?;
        let mut trace = Vec::with_capacity(trace_count);
        for i in 0..trace_count {
            trace.push(kv.get_string(&format!("trace.{i}"))?);
        }
        Ok(ForensicArtifact {
            label: kv.get_string("label")?,
            replayable: kv.get_parsed("replayable")?,
            config: parse_scenario(&kv)?,
            error: parse_error(&kv)?,
            trace,
        })
    }

    /// The artifact's canonical file name:
    /// `<sanitized-label>_<fingerprint>_seed<seed>.txt`. The config
    /// fingerprint keeps two scenario points sharing a label and seed
    /// (e.g. two cells of a parameter sweep) from clobbering each other.
    pub fn file_name(&self) -> String {
        let sanitized: String = self
            .label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        format!(
            "{}_{:016x}_seed{}.txt",
            sanitized,
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
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, ForensicError> {
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
    pub fn load(path: &Path) -> Result<ForensicArtifact, ForensicError> {
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

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a b\nc\\d\re", "\\", "trailing \\n literal"] {
            assert_eq!(unescape(&escape(s)), s);
            assert!(!escape(s).contains(' '), "escaped form must be whitespace-free");
            assert!(!escape(s).contains('\n'));
        }
    }

    #[test]
    fn artifact_round_trips_every_config_flavor() {
        let mut configs = vec![
            ScenarioConfig::static_line(4, 200.0, 2.0, DsrConfig::combined(), 9),
            ScenarioConfig::tiny(30.0, 4.0, DsrConfig::adaptive_expiry(), 3),
            ScenarioConfig::quick(0.0, 3.0, DsrConfig::negative_cache(), 5),
            ScenarioConfig::quick(0.0, 3.0, DsrConfig::preemptive(), 11),
            ScenarioConfig::quick(0.0, 3.0, DsrConfig::suppression(), 13),
            ScenarioConfig::quick(0.0, 3.0, DsrConfig::multipath(), 17),
            ScenarioConfig::quick(
                0.0,
                3.0,
                DsrConfig {
                    preemptive: Some(PreemptiveConfig::default()),
                    suppression: Some(SuppressionConfig::default()),
                    multipath: Some(MultipathConfig::default()),
                    ..DsrConfig::combined()
                },
                19,
            ),
        ];
        configs[0].faults = FaultPlan::none()
            .node_down(NodeId::new(2), SimTime::from_secs(5.0), SimDuration::from_secs(2.0))
            .link_blackout(
                Region::new(Point::new(0.0, -5.0), Point::new(100.0, 5.0)),
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
        for cfg in configs {
            let a = artifact(cfg);
            let round = ForensicArtifact::parse(&a.render()).expect("parse back");
            assert_eq!(round, a);
        }
    }

    #[test]
    fn artifacts_from_the_two_engine_era_still_load_and_replay() {
        // Artifacts on disk outlive the code that wrote them: a v1 header,
        // and a v2 text still carrying the `paired_arrivals` key, must
        // both parse to the artifact a current render describes, replay,
        // and re-render without the key.
        let mut cfg = ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 7);
        cfg.duration = SimDuration::from_secs(5.0);
        cfg.faults = FaultPlan::none().node_down(
            NodeId::new(1),
            SimTime::from_secs(1.0),
            SimDuration::from_secs(1.0),
        );
        let current = artifact(cfg);
        let rendered = current.render();
        assert!(!rendered.contains("paired_arrivals"));
        let legacy_v2 =
            rendered.replace("replayable = true\n", "replayable = true\npaired_arrivals = true\n");
        assert!(legacy_v2.contains("paired_arrivals = true"));
        let legacy_v1 = rendered.replace(FORMAT_HEADER, FORMAT_HEADER_V1);
        let expected = crate::replay_run(&current.config, crate::AuditLevel::Full);
        assert!(expected.is_ok(), "a clean scenario replays cleanly: {expected:?}");
        for text in [legacy_v2, legacy_v1] {
            let parsed = ForensicArtifact::parse(&text).expect("legacy artifact parses");
            assert_eq!(parsed, current);
            assert_eq!(parsed.render(), rendered);
            assert_eq!(crate::replay_run(&parsed.config, crate::AuditLevel::Full), expected);
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
    }

    #[test]
    fn every_error_kind_round_trips() {
        let errors = [
            RunError::Panicked { seed: 1, payload: "multi\nline \\ payload".into() },
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
            Err(ForensicError::BadLine { .. })
        ));
        assert!(matches!(
            ForensicArtifact::parse("format = something-else v9\n"),
            Err(ForensicError::BadHeader(_))
        ));
        let good = artifact(ScenarioConfig::static_line(3, 200.0, 2.0, DsrConfig::base(), 1));
        let truncated: String = good.render().lines().take(10).map(|l| format!("{l}\n")).collect();
        assert!(matches!(ForensicArtifact::parse(&truncated), Err(ForensicError::MissingKey(_))));
        let corrupt = good.render().replace("dsr.cache_capacity = ", "dsr.cache_capacity = x");
        assert!(matches!(ForensicArtifact::parse(&corrupt), Err(ForensicError::BadValue { .. })));
        // An error kind the parser does not know.
        let retired = good.render().replace("error = panicked", "error = deadline_exceeded");
        assert!(matches!(ForensicArtifact::parse(&retired), Err(ForensicError::BadValue { .. })));
    }
}
