//! Online metrics for the DSR route-caching study.
//!
//! Collects exactly the quantities the paper evaluates:
//!
//! **Routing performance** (Figs. 1, 2, 4)
//! - *packet delivery fraction* — delivered / originated CBR packets (and
//!   the related *received throughput* in kb/s);
//! - *average end-to-end delay* — including send-buffer, interface-queue,
//!   MAC retransmission, and propagation delays;
//! - *normalized overhead* — every hop-wise transmission of routing
//!   packets **and** MAC control frames (RTS/CTS/ACK) per delivered data
//!   packet.
//!
//! **Cache correctness** (Table 3)
//! - *percentage of good replies* — route replies received at sources whose
//!   route contains no broken link (checked against the ground-truth
//!   oracle at reception time);
//! - *percentage of invalid cached routes* — cache hits whose route was
//!   already physically broken when pulled from the cache.

#![warn(unreachable_pub)]

use mac::FrameKind;
use packet::{CacheHitKind, DropReason};
use sim_core::{SimTime, U64HashMap};

pub mod stats;
mod uids;

pub use stats::Distribution;

/// Accumulates raw counters during one simulation run.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    originated: u64,
    /// Every uid delivered so far (duplicates are not counted twice): a
    /// bitmap per origin node, see [`uids`].
    delivered_uids: uids::UidSet,
    delivered: u64,
    bytes_delivered: u64,
    delays: Distribution,
    /// Links traversed, summed over `delivered`: only the mean is reported.
    hops: u64,

    rts_tx: u64,
    cts_tx: u64,
    ack_tx: u64,
    routing_tx: u64,
    data_tx: u64,

    replies_received: u64,
    good_replies: u64,
    cache_hits: u64,
    invalid_cache_hits: u64,
    stale_route_sends: u64,
    // U64-hashed maps here: these are touched once per drop / cache hit
    // (millions of times per campaign), where SipHash showed up in the
    // event-loop profile. Lookups are by key only, so iteration order
    // never reaches a Report.
    hits_by_kind: U64HashMap<CacheHitKind, (u64, u64)>, // (hits, invalid)
    replies_originated: u64,
    cached_replies: u64,

    discoveries: u64,
    floods: u64,
    link_breaks: u64,
    errors_sent: u64,
    error_rebroadcasts: u64,

    drops: U64HashMap<DropReason, u64>,
    ifq_drops: u64,

    faults_injected: u64,
    frames_corrupted: u64,
    arrivals_suppressed: u64,

    failovers: u64,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A CBR source handed a packet to its routing agent.
    pub fn record_origination(&mut self) {
        self.originated += 1;
    }

    /// CBR packets originated so far ([`Report::originated`] at the end).
    pub fn originated(&self) -> u64 {
        self.originated
    }

    /// Unique CBR packets delivered so far ([`Report::delivered`] at the
    /// end).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// A data packet reached its destination after traversing `hops`
    /// links. Returns `false` (and records nothing) for duplicate
    /// deliveries of the same uid.
    pub fn record_delivery(
        &mut self,
        uid: u64,
        sent_at: SimTime,
        bytes: usize,
        hops: usize,
        now: SimTime,
    ) -> bool {
        if !self.delivered_uids.insert(uid) {
            return false;
        }
        self.delivered += 1;
        self.bytes_delivered += bytes as u64;
        self.delays.record(now.saturating_since(sent_at).as_secs());
        self.hops += hops as u64;
        true
    }

    /// One hop-wise MAC transmission. `payload_is_routing` describes data
    /// frames: `Some(true)` for frames carrying DSR control packets,
    /// `Some(false)` for application data, `None` for control frames.
    pub fn record_mac_tx(&mut self, kind: FrameKind, payload_is_routing: Option<bool>) {
        match kind {
            FrameKind::Rts => self.rts_tx += 1,
            FrameKind::Cts => self.cts_tx += 1,
            FrameKind::Ack => self.ack_tx += 1,
            FrameKind::Data => match payload_is_routing {
                Some(true) => self.routing_tx += 1,
                _ => self.data_tx += 1,
            },
        }
    }

    /// A route reply arrived at the node that requested it; `good` is the
    /// oracle's verdict on the carried route.
    pub fn record_reply_received(&mut self, good: bool) {
        self.replies_received += 1;
        if good {
            self.good_replies += 1;
        }
    }

    /// A route was pulled from a cache; `valid` is the oracle's verdict.
    pub fn record_cache_hit(&mut self, kind: CacheHitKind, valid: bool) {
        self.cache_hits += 1;
        let slot = self.hits_by_kind.entry(kind).or_insert((0, 0));
        slot.0 += 1;
        if !valid {
            self.invalid_cache_hits += 1;
            slot.1 += 1;
            // Origination and salvage hits put the stale route under a data
            // packet that will be transmitted and (partly) wasted; cached
            // replies only hand the staleness to someone else.
            if kind != CacheHitKind::Reply {
                self.stale_route_sends += 1;
            }
        }
    }

    /// A node generated a route reply.
    pub fn record_reply_originated(&mut self, from_cache: bool) {
        self.replies_originated += 1;
        if from_cache {
            self.cached_replies += 1;
        }
    }

    /// A discovery round started.
    pub fn record_discovery(&mut self, flood: bool) {
        self.discoveries += 1;
        if flood {
            self.floods += 1;
        }
    }

    /// Link-layer feedback reported a break.
    pub fn record_link_break(&mut self) {
        self.link_breaks += 1;
    }

    /// A route error was originated (`rebroadcast = false`) or re-broadcast.
    pub fn record_error(&mut self, rebroadcast: bool) {
        if rebroadcast {
            self.error_rebroadcasts += 1;
        } else {
            self.errors_sent += 1;
        }
    }

    /// A DSR-level drop.
    pub fn record_drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// An interface-queue (MAC) drop.
    pub fn record_ifq_drop(&mut self) {
        self.ifq_drops += 1;
    }

    /// A scheduled fault event activated (node crash, blackout window,
    /// corruption window, ...).
    pub fn record_fault_injected(&mut self) {
        self.faults_injected += 1;
    }

    /// A frame copy was corrupted in flight by a fault-injection window.
    pub fn record_frame_corrupted(&mut self) {
        self.frames_corrupted += 1;
    }

    /// An in-range receiver never sensed a frame because a fault (node
    /// down, region blackout) silenced it.
    pub fn record_arrivals_suppressed(&mut self, n: u64) {
        self.arrivals_suppressed += n;
    }

    /// A multipath cache lost a route to a link break but failed over to a
    /// cached link-disjoint alternate instead of forcing a rediscovery.
    pub fn record_failover(&mut self) {
        self.failovers += 1;
    }

    /// Drop count for one reason.
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drops.get(&reason).copied().unwrap_or(0)
    }

    /// `(hits, invalid)` for one kind of cache use.
    pub fn cache_hits_of(&self, kind: CacheHitKind) -> (u64, u64) {
        self.hits_by_kind.get(&kind).copied().unwrap_or((0, 0))
    }

    /// Finalizes the run into a [`Report`].
    pub fn report(&self, label: impl Into<String>, duration_s: f64) -> Report {
        assert!(duration_s > 0.0, "report needs a positive duration");
        let pct = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                100.0 * num as f64 / den as f64
            }
        };
        Report {
            label: label.into(),
            duration_s,
            originated: self.originated,
            delivered: self.delivered,
            delivery_fraction: if self.originated == 0 {
                0.0
            } else {
                self.delivered as f64 / self.originated as f64
            },
            throughput_kbps: self.bytes_delivered as f64 * 8.0 / 1_000.0 / duration_s,
            avg_delay_s: self.delays.mean().unwrap_or(0.0),
            delay_p50_s: self.delays.quantile(0.5).unwrap_or(0.0),
            delay_p95_s: self.delays.quantile(0.95).unwrap_or(0.0),
            delay_p99_s: self.delays.quantile(0.99).unwrap_or(0.0),
            delay_jitter_s: self.delays.mean_abs_delta().unwrap_or(0.0),
            avg_hops: if self.delivered == 0 {
                0.0
            } else {
                self.hops as f64 / self.delivered as f64
            },
            normalized_overhead: if self.delivered == 0 {
                f64::INFINITY
            } else {
                (self.routing_tx + self.rts_tx + self.cts_tx + self.ack_tx) as f64
                    / self.delivered as f64
            },
            routing_tx: self.routing_tx,
            mac_control_tx: self.rts_tx + self.cts_tx + self.ack_tx,
            data_tx: self.data_tx,
            replies_received: self.replies_received,
            good_reply_pct: pct(self.good_replies, self.replies_received),
            cache_hits: self.cache_hits,
            invalid_cache_pct: pct(self.invalid_cache_hits, self.cache_hits),
            origination_hits: self.cache_hits_of(CacheHitKind::Origination).0,
            salvage_hits: self.cache_hits_of(CacheHitKind::Salvage).0,
            reply_hits: self.cache_hits_of(CacheHitKind::Reply).0,
            replies_originated: self.replies_originated,
            reply_from_cache_pct: pct(self.cached_replies, self.replies_originated),
            discoveries: self.discoveries,
            floods: self.floods,
            link_breaks: self.link_breaks,
            errors_sent: self.errors_sent,
            error_rebroadcasts: self.error_rebroadcasts,
            ifq_drops: self.ifq_drops,
            dsr_drops: self.drops.values().sum(),
            faults_injected: self.faults_injected,
            frames_corrupted: self.frames_corrupted,
            arrivals_suppressed: self.arrivals_suppressed,
            cache_stale_hits: self.invalid_cache_hits,
            stale_route_sends: self.stale_route_sends,
            failovers: self.failovers,
        }
    }
}

/// How a [`Report`] field is stored, averaged and printed, with its getter
/// and setter.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A `u64` tally; a mean of several rounds to a whole count.
    Count(fn(&Report) -> u64, fn(&mut Report, u64)),
    /// An `f64` quantity.
    Real(fn(&Report) -> f64, fn(&mut Report, f64)),
    /// An `f64` percentage.
    Percent(fn(&Report) -> f64, fn(&mut Report, f64)),
}

impl Kind {
    /// The kind's name, without its accessors.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Count(..) => "count",
            Kind::Real(..) => "real",
            Kind::Percent(..) => "percent",
        }
    }
}

/// One numeric [`Report`] field. [`Report::mean`], the campaign journal and
/// the experiment CSV columns all iterate [`Report::FIELDS`], so a field is
/// named in one place.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The struct field's name.
    pub name: &'static str,
    /// Its kind, getter and setter.
    pub kind: Kind,
}

/// Declares [`Report`] and [`Report::FIELDS`] from one list of the
/// numeric fields, in declaration order.
macro_rules! report {
    ($($(#[$doc:meta])* $field:ident: $ty:ty = $kind:ident,)+) => {
        /// Summary of one run (or the mean of several), mirroring the paper's
        /// reported metrics.
        #[derive(Debug, Default, Clone, PartialEq)]
        pub struct Report {
            /// Protocol variant label (e.g. "DSR-C").
            pub label: String,
            $($(#[$doc])* pub $field: $ty,)+
        }

        impl Report {
            /// Every numeric field, in declaration order.
            pub const FIELDS: &'static [Field] = &[$(Field {
                name: stringify!($field),
                kind: Kind::$kind(|r| r.$field, |r, v| r.$field = v),
            },)+];
        }
    };
}

report! {
    /// Simulated seconds the metrics cover.
    duration_s: f64 = Real,
    /// CBR packets originated.
    originated: u64 = Count,
    /// CBR packets delivered (unique).
    delivered: u64 = Count,
    /// Packet delivery fraction in `[0, 1]`.
    delivery_fraction: f64 = Real,
    /// Received throughput in kb/s.
    throughput_kbps: f64 = Real,
    /// Mean end-to-end delay in seconds.
    avg_delay_s: f64 = Real,
    /// Median end-to-end delay in seconds.
    delay_p50_s: f64 = Real,
    /// 95th-percentile end-to-end delay in seconds.
    delay_p95_s: f64 = Real,
    /// 99th-percentile end-to-end delay in seconds.
    delay_p99_s: f64 = Real,
    /// Delivery jitter: mean absolute difference between the end-to-end
    /// delays of successively delivered packets, in seconds.
    delay_jitter_s: f64 = Real,
    /// Mean links traversed per delivered packet (final route).
    avg_hops: f64 = Real,
    /// (routing + MAC control transmissions) / delivered packet.
    normalized_overhead: f64 = Real,
    /// Hop-wise routing packet transmissions.
    routing_tx: u64 = Count,
    /// Hop-wise RTS+CTS+ACK transmissions.
    mac_control_tx: u64 = Count,
    /// Hop-wise data-frame transmissions carrying application data.
    data_tx: u64 = Count,
    /// Route replies received at requesting sources.
    replies_received: u64 = Count,
    /// Percentage of those whose route was fully up on arrival.
    good_reply_pct: f64 = Percent,
    /// Cache hits (origination + salvage + cached replies).
    cache_hits: u64 = Count,
    /// Percentage of cache hits handing out a broken route.
    invalid_cache_pct: f64 = Percent,
    /// Cache hits serving the node's own originations.
    origination_hits: u64 = Count,
    /// Cache hits used to salvage packets around broken links.
    salvage_hits: u64 = Count,
    /// Cache hits answering other nodes' route requests.
    reply_hits: u64 = Count,
    /// Route replies generated anywhere.
    replies_originated: u64 = Count,
    /// Percentage of generated replies that came from caches.
    reply_from_cache_pct: f64 = Percent,
    /// Discovery rounds started.
    discoveries: u64 = Count,
    /// Of which network-wide floods.
    floods: u64 = Count,
    /// Link breaks detected by link-layer feedback.
    link_breaks: u64 = Count,
    /// Route errors originated.
    errors_sent: u64 = Count,
    /// Wider-error re-broadcasts.
    error_rebroadcasts: u64 = Count,
    /// Interface-queue drops.
    ifq_drops: u64 = Count,
    /// All DSR-level drops.
    dsr_drops: u64 = Count,
    /// Scheduled fault events that activated during the run.
    faults_injected: u64 = Count,
    /// Frame copies destroyed by corruption windows.
    frames_corrupted: u64 = Count,
    /// In-range receptions silenced by node-down / blackout faults.
    arrivals_suppressed: u64 = Count,
    /// Cache hits that handed out an already-broken route (the absolute
    /// count behind `invalid_cache_pct`).
    cache_stale_hits: u64 = Count,
    /// Stale hits that actually put a data packet on the air (origination
    /// and salvage uses; cached replies excluded).
    stale_route_sends: u64 = Count,
    /// Link breaks absorbed by failing over to a cached link-disjoint
    /// alternate (multipath caching) instead of rediscovering.
    failovers: u64 = Count,
}

impl Report {
    /// Averages several reports of the same variant (the paper averages
    /// five runs per point). Counters are averaged too (as f64 then
    /// rounded), which keeps ratios consistent across heterogeneous runs.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn mean(reports: &[Report]) -> Report {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as f64;
        let mut mean = Report { label: reports[0].label.clone(), ..Report::default() };
        for field in Report::FIELDS {
            match field.kind {
                Kind::Count(get, set) => {
                    set(&mut mean, (reports.iter().map(get).sum::<u64>() as f64 / n).round() as u64)
                }
                Kind::Real(get, set) | Kind::Percent(get, set) => {
                    set(&mut mean, reports.iter().map(get).sum::<f64>() / n)
                }
            }
        }
        mean.normalized_overhead = finite_mean(reports.iter().map(|r| r.normalized_overhead));
        mean
    }
}

/// The mean of the finite values, or infinity when there is none.
/// Overhead is infinite in a run that delivered nothing; such a run does
/// not make the mean infinite.
fn finite_mean(values: impl Iterator<Item = f64>) -> f64 {
    let finite: Vec<f64> = values.filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} ({}s simulated)", self.label, self.duration_s)?;
        writeln!(
            f,
            "  delivery {:.1}% ({}/{}), throughput {:.1} kb/s, delay {:.3} s (p50 {:.3}, p95 {:.3}, p99 {:.3}, jitter {:.3}), {:.1} hops",
            100.0 * self.delivery_fraction,
            self.delivered,
            self.originated,
            self.throughput_kbps,
            self.avg_delay_s,
            self.delay_p50_s,
            self.delay_p95_s,
            self.delay_p99_s,
            self.delay_jitter_s,
            self.avg_hops
        )?;
        writeln!(
            f,
            "  overhead {:.2}/pkt (routing {} + mac {}), discoveries {} ({} floods)",
            self.normalized_overhead,
            self.routing_tx,
            self.mac_control_tx,
            self.discoveries,
            self.floods
        )?;
        write!(
            f,
            "  good replies {:.1}% of {}, invalid cache hits {:.1}% of {}, link breaks {}",
            self.good_reply_pct,
            self.replies_received,
            self.invalid_cache_pct,
            self.cache_hits,
            self.link_breaks
        )?;
        if self.faults_injected > 0 {
            write!(
                f,
                "\n  faults {} (corrupted {} frames, suppressed {} arrivals)",
                self.faults_injected, self.frames_corrupted, self.arrivals_suppressed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn delivery_fraction_and_delay() {
        let mut m = Metrics::new();
        for _ in 0..4 {
            m.record_origination();
        }
        assert!(m.record_delivery(1, t(1.0), 512, 3, t(1.5)));
        assert!(m.record_delivery(2, t(1.0), 512, 5, t(2.5)));
        let r = m.report("DSR", 100.0);
        assert_eq!(r.delivered, 2);
        assert!((r.delivery_fraction - 0.5).abs() < 1e-12);
        assert!((r.avg_delay_s - 1.0).abs() < 1e-12);
        assert!((r.avg_hops - 4.0).abs() < 1e-12);
        assert!((r.delay_p95_s - 1.5).abs() < 1e-12);
        assert!((r.throughput_kbps - 2.0 * 512.0 * 8.0 / 1_000.0 / 100.0).abs() < 1e-12);
    }

    /// `avg_hops` comes from an integer sum; it must be the mean a
    /// `Distribution` of the same samples reports, to the last bit (a sum of
    /// integer-valued doubles is exact below 2^53).
    #[test]
    fn avg_hops_is_the_mean_of_the_samples_bit_for_bit() {
        assert_eq!(Metrics::new().report("DSR", 1.0).avg_hops.to_bits(), 0.0f64.to_bits());
        let mut rng = sim_core::RngFactory::new(0x686f_7073).stream("hops", 0);
        let (mut m, mut samples) = (Metrics::new(), Distribution::new());
        for uid in 0..10_007u64 {
            let hops = rng.random_range(0..12usize);
            assert!(m.record_delivery(uid, t(0.0), 512, hops, t(1.0)));
            samples.record(hops as f64);
            // A duplicate delivery counts for nothing.
            assert!(!m.record_delivery(uid, t(0.0), 512, 40, t(2.0)));
        }
        let mean = samples.mean().expect("not empty");
        assert_eq!(m.report("DSR", 1.0).avg_hops.to_bits(), mean.to_bits(), "{mean}");
    }

    #[test]
    fn delay_tail_and_jitter_flow_into_report() {
        let mut m = Metrics::new();
        for uid in 0..4 {
            m.record_origination();
            // Delays in delivery order: 1.0, 3.0, 2.0, 2.0 s.
            let delay = [1.0, 3.0, 2.0, 2.0][uid as usize];
            assert!(m.record_delivery(uid, t(0.0), 512, 2, t(delay)));
        }
        let r = m.report("x", 10.0);
        assert!((r.delay_p99_s - 3.0).abs() < 1e-12, "nearest-rank p99 of 4 samples is the max");
        // Consecutive deltas: |3-1|, |2-3|, |2-2| => mean 1.0.
        assert!((r.delay_jitter_s - 1.0).abs() < 1e-12);
        // Empty runs report zeros, like the other delay stats.
        let empty = Metrics::new().report("x", 10.0);
        assert_eq!(empty.delay_p99_s, 0.0);
        assert_eq!(empty.delay_jitter_s, 0.0);
    }

    #[test]
    fn duplicate_deliveries_ignored() {
        let mut m = Metrics::new();
        m.record_origination();
        assert!(m.record_delivery(1, t(0.0), 512, 2, t(1.0)));
        assert!(!m.record_delivery(1, t(0.0), 512, 2, t(2.0)));
        assert_eq!(m.report("x", 10.0).delivered, 1);
    }

    #[test]
    fn normalized_overhead_counts_routing_and_mac_control() {
        let mut m = Metrics::new();
        m.record_origination();
        m.record_delivery(1, t(0.0), 512, 2, t(1.0));
        m.record_mac_tx(FrameKind::Rts, None);
        m.record_mac_tx(FrameKind::Cts, None);
        m.record_mac_tx(FrameKind::Ack, None);
        m.record_mac_tx(FrameKind::Data, Some(false)); // app data: not overhead
        m.record_mac_tx(FrameKind::Data, Some(true)); // RREQ: overhead
        let r = m.report("x", 10.0);
        assert_eq!(r.normalized_overhead, 4.0);
        assert_eq!(r.data_tx, 1);
        assert_eq!(r.routing_tx, 1);
        assert_eq!(r.mac_control_tx, 3);
    }

    #[test]
    fn overhead_is_infinite_with_zero_deliveries() {
        let mut m = Metrics::new();
        m.record_mac_tx(FrameKind::Rts, None);
        assert!(m.report("x", 10.0).normalized_overhead.is_infinite());
    }

    #[test]
    fn cache_quality_percentages() {
        let mut m = Metrics::new();
        m.record_reply_received(true);
        m.record_reply_received(true);
        m.record_reply_received(false);
        m.record_cache_hit(CacheHitKind::Origination, true);
        m.record_cache_hit(CacheHitKind::Reply, false);
        let r = m.report("x", 10.0);
        assert!((r.good_reply_pct - 66.666).abs() < 0.01);
        assert!((r.invalid_cache_pct - 50.0).abs() < 1e-9);
        assert_eq!(r.origination_hits, 1);
        assert_eq!(r.reply_hits, 1);
        assert_eq!(r.salvage_hits, 0);
        assert_eq!(m.cache_hits_of(CacheHitKind::Reply), (1, 1));
    }

    #[test]
    fn stale_hit_counters_split_reply_from_data_uses() {
        let mut m = Metrics::new();
        m.record_cache_hit(CacheHitKind::Origination, false);
        m.record_cache_hit(CacheHitKind::Salvage, false);
        m.record_cache_hit(CacheHitKind::Reply, false);
        m.record_cache_hit(CacheHitKind::Origination, true);
        let r = m.report("x", 10.0);
        assert_eq!(r.cache_stale_hits, 3);
        // Stale cached replies do not carry data themselves.
        assert_eq!(r.stale_route_sends, 2);
        let mean = Report::mean(&[r.clone(), r]);
        assert_eq!(mean.cache_stale_hits, 3);
        assert_eq!(mean.stale_route_sends, 2);
    }

    #[test]
    fn strategy_counters_flow_into_the_report() {
        let mut m = Metrics::new();
        m.record_failover();
        m.record_failover();
        m.record_failover();
        let r = m.report("x", 10.0);
        assert_eq!(r.failovers, 3);
        let mean = Report::mean(&[r.clone(), r]);
        assert_eq!(mean.failovers, 3);
    }

    #[test]
    fn zero_denominators_report_zero_percent() {
        let r = Metrics::new().report("x", 10.0);
        assert_eq!(r.good_reply_pct, 0.0);
        assert_eq!(r.invalid_cache_pct, 0.0);
        assert_eq!(r.delivery_fraction, 0.0);
    }

    #[test]
    fn drops_tallied_by_reason() {
        let mut m = Metrics::new();
        m.record_drop(DropReason::SendBufferTimeout);
        m.record_drop(DropReason::SendBufferTimeout);
        m.record_drop(DropReason::NoRouteToSalvage);
        m.record_ifq_drop();
        assert_eq!(m.drops(DropReason::SendBufferTimeout), 2);
        assert_eq!(m.drops(DropReason::NoRouteToSalvage), 1);
        assert_eq!(m.drops(DropReason::NegativeCacheHit), 0);
        let r = m.report("x", 10.0);
        assert_eq!(r.dsr_drops, 3);
        assert_eq!(r.ifq_drops, 1);
    }

    #[test]
    fn mean_averages_fields() {
        let mut a = Metrics::new();
        a.record_origination();
        a.record_delivery(1, t(0.0), 500, 2, t(1.0));
        let mut b = Metrics::new();
        b.record_origination();
        b.record_origination();
        let ra = a.report("DSR", 10.0);
        let rb = b.report("DSR", 10.0);
        let mean = Report::mean(&[ra, rb]);
        assert!((mean.delivery_fraction - 0.5).abs() < 1e-12);
        assert_eq!(mean.originated, 2); // (1 + 2) / 2 rounded
        assert_eq!(mean.label, "DSR");
    }

    #[test]
    fn fault_counters_flow_into_report() {
        let mut m = Metrics::new();
        m.record_fault_injected();
        m.record_fault_injected();
        m.record_frame_corrupted();
        m.record_arrivals_suppressed(3);
        let r = m.report("x", 10.0);
        assert_eq!(r.faults_injected, 2);
        assert_eq!(r.frames_corrupted, 1);
        assert_eq!(r.arrivals_suppressed, 3);
        let text = format!("{r}");
        assert!(text.contains("faults 2"), "display surfaces faults: {text}");
        // A fault-free run stays visually identical to the legacy format.
        let clean = format!("{}", Metrics::new().report("x", 10.0));
        assert!(!clean.contains("faults"));
    }

    #[test]
    fn display_is_informative() {
        let mut m = Metrics::new();
        m.record_origination();
        m.record_delivery(1, t(0.0), 512, 2, t(0.2));
        let text = format!("{}", m.report("DSR-C", 100.0));
        assert!(text.contains("DSR-C"));
        assert!(text.contains("delivery"));
        assert!(text.contains("overhead"));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_report_rejected() {
        let _ = Metrics::new().report("x", 0.0);
    }

    /// `Report::mean` as it was written field by field: the reference the
    /// differential below holds the current `mean` to.
    fn reference_mean(reports: &[Report]) -> Report {
        let n = reports.len() as f64;
        let favg = |f: &dyn Fn(&Report) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let uavg = |f: &dyn Fn(&Report) -> u64| {
            (reports.iter().map(f).sum::<u64>() as f64 / n).round() as u64
        };
        let overhead = {
            let vals: Vec<f64> =
                reports.iter().map(|r| r.normalized_overhead).filter(|v| v.is_finite()).collect();
            if vals.is_empty() {
                f64::INFINITY
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        Report {
            label: reports[0].label.clone(),
            duration_s: favg(&|r| r.duration_s),
            originated: uavg(&|r| r.originated),
            delivered: uavg(&|r| r.delivered),
            delivery_fraction: favg(&|r| r.delivery_fraction),
            throughput_kbps: favg(&|r| r.throughput_kbps),
            avg_delay_s: favg(&|r| r.avg_delay_s),
            delay_p50_s: favg(&|r| r.delay_p50_s),
            delay_p95_s: favg(&|r| r.delay_p95_s),
            delay_p99_s: favg(&|r| r.delay_p99_s),
            delay_jitter_s: favg(&|r| r.delay_jitter_s),
            avg_hops: favg(&|r| r.avg_hops),
            normalized_overhead: overhead,
            routing_tx: uavg(&|r| r.routing_tx),
            mac_control_tx: uavg(&|r| r.mac_control_tx),
            data_tx: uavg(&|r| r.data_tx),
            replies_received: uavg(&|r| r.replies_received),
            good_reply_pct: favg(&|r| r.good_reply_pct),
            cache_hits: uavg(&|r| r.cache_hits),
            invalid_cache_pct: favg(&|r| r.invalid_cache_pct),
            origination_hits: uavg(&|r| r.origination_hits),
            salvage_hits: uavg(&|r| r.salvage_hits),
            reply_hits: uavg(&|r| r.reply_hits),
            replies_originated: uavg(&|r| r.replies_originated),
            reply_from_cache_pct: favg(&|r| r.reply_from_cache_pct),
            discoveries: uavg(&|r| r.discoveries),
            floods: uavg(&|r| r.floods),
            link_breaks: uavg(&|r| r.link_breaks),
            errors_sent: uavg(&|r| r.errors_sent),
            error_rebroadcasts: uavg(&|r| r.error_rebroadcasts),
            ifq_drops: uavg(&|r| r.ifq_drops),
            dsr_drops: uavg(&|r| r.dsr_drops),
            faults_injected: uavg(&|r| r.faults_injected),
            frames_corrupted: uavg(&|r| r.frames_corrupted),
            arrivals_suppressed: uavg(&|r| r.arrivals_suppressed),
            cache_stale_hits: uavg(&|r| r.cache_stale_hits),
            stale_route_sends: uavg(&|r| r.stale_route_sends),
            failovers: uavg(&|r| r.failovers),
        }
    }

    /// A count that is zero, small or large; five of the large ones still
    /// sum without overflow.
    fn random_count(rng: &mut sim_core::SimRng) -> u64 {
        match rng.random_range(0..4u32) {
            0 => 0,
            1 => rng.random_range(0..1_000u64),
            2 => rng.random_range(0..1u64 << 40),
            _ => rng.random_range(0..u64::MAX / 5),
        }
    }

    /// A real that is zero or spans many magnitudes.
    fn random_real(rng: &mut sim_core::SimRng) -> f64 {
        if rng.random_bool(0.2) {
            return 0.0;
        }
        rng.random::<f64>() * 10f64.powi(rng.random_range(-6..7i32))
    }

    fn random_report(rng: &mut sim_core::SimRng) -> Report {
        let mut report = Report { label: "DSR-C".into(), ..Report::default() };
        for field in Report::FIELDS {
            match field.kind {
                Kind::Count(_, set) => set(&mut report, random_count(rng)),
                Kind::Real(_, set) | Kind::Percent(_, set) => set(&mut report, random_real(rng)),
            }
        }
        report
    }

    /// The first line where two pretty-printed reports differ: it names the
    /// field. A shortest round-trip float differs wherever its bits do.
    fn first_difference(a: &Report, b: &Report) -> Option<String> {
        let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
        a.lines().zip(b.lines()).find(|(x, y)| x != y).map(|(x, y)| format!("{x} vs {y}"))
    }

    /// `mean` agrees with the field-by-field reference bit for bit over 1 to
    /// 5 seeds, with an infinite overhead on none, some or all of them.
    #[test]
    fn mean_matches_the_reference_bit_for_bit() {
        sim_core::testkit::cases("report-mean", 0..400, |_, rng| {
            let seeds = rng.random_range(1..6usize);
            let infinite = rng.random_range(0..3u32); // none, some, all
            let reports: Vec<Report> = (0..seeds)
                .map(|_| {
                    let mut r = random_report(rng);
                    if infinite == 2 || (infinite == 1 && rng.random_bool(0.5)) {
                        r.normalized_overhead = f64::INFINITY;
                    }
                    r
                })
                .collect();
            let (got, want) = (Report::mean(&reports), reference_mean(&reports));
            if let Some(field) = first_difference(&got, &want) {
                panic!("{seeds} seeds: {field}");
            }
        });
    }

    /// Every field is eight bytes beside the label.
    #[test]
    fn report_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Report>(), 320);
    }
}
