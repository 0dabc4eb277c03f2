//! Packet-conservation auditing.
//!
//! The paper's delivery-fraction and overhead results are ratios of
//! counters; a single miscounted packet silently skews every figure. The
//! [`Auditor`] keeps an online ledger proving that every data packet a
//! routing agent announced via
//! [`ProtocolEvent::DataOriginated`](packet::ProtocolEvent) ends the run
//! in exactly one accounted state: delivered, dropped with a reason, or
//! still sitting in a send buffer / interface queue / in-flight event.
//! Anything else — a uid delivered that was never originated, a uid
//! originated twice, or a uid that simply vanishes — surfaces as
//! [`RunError::ConservationViolation`](crate::RunError) with the offending
//! uid and its ledger line.
//!
//! # Ghost events are not violations
//!
//! 802.11 feedback is itself lossy: when a data frame's ACK dies, the
//! receiver has the packet while the sender declares the transmission
//! failed and salvages a *copy*. Physically legitimate consequences —
//! duplicate deliveries, a drop after a delivery, a delivery after a
//! drop, double drops — are therefore tallied as benign *ghost events*
//! rather than flagged. Drops of uids never announced as data (route
//! requests, replies, errors) are likewise ignored: control packets are
//! not conserved quantities.
//!
//! # Levels
//!
//! [`AuditLevel::Off`] costs nothing. [`AuditLevel::Counters`] keeps
//! aggregate tallies and checks the cheap end-of-run inequality
//! (distinct deliveries ≤ originations). [`AuditLevel::Full`] keeps the
//! per-uid ledger plus the protocol-invariant sweep (DSR's negative-cache
//! ↔ route-cache mutual exclusion, via
//! [`RoutingAgent::invariant_violation`](crate::RoutingAgent)). Paper-scale
//! sweeps run `Off`; CI runs `Full`. Event-time monotonicity is enforced
//! unconditionally by the driver ([`RunError::TimeRegression`](crate::RunError));
//! the auditor re-checks it from its own observation stream so a driver
//! regression cannot mask one.

use packet::DropReason;
use sim_core::{SimTime, U64HashMap, U64HashSet};

/// How much conservation checking a run pays for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AuditLevel {
    /// No auditing (paper-scale sweeps). The default.
    #[default]
    Off,
    /// Aggregate counters and the end-of-run delivery inequality.
    Counters,
    /// Per-uid ledger plus protocol-invariant sweeps (CI).
    Full,
}

impl AuditLevel {
    /// Parses the spelling used by experiment flags (`off`, `counters`,
    /// `full`; case-insensitive).
    pub fn parse(s: &str) -> Option<AuditLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(AuditLevel::Off),
            "counters" => Some(AuditLevel::Counters),
            "full" => Some(AuditLevel::Full),
            _ => None,
        }
    }
}

impl std::fmt::Display for AuditLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AuditLevel::Off => "off",
            AuditLevel::Counters => "counters",
            AuditLevel::Full => "full",
        })
    }
}

/// Last accounted state of one originated uid (the ledger line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UidState {
    /// Announced by the agent; no terminal event yet.
    Originated,
    /// Reached its destination application.
    Delivered,
    /// Dropped by the routing layer.
    Dropped(DropReason),
    /// Rejected by a full interface queue.
    DroppedIfq,
}

impl std::fmt::Display for UidState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UidState::Originated => f.write_str("originated"),
            UidState::Delivered => f.write_str("delivered"),
            UidState::Dropped(r) => write!(f, "dropped({r})"),
            UidState::DroppedIfq => f.write_str("dropped(IfqOverflow)"),
        }
    }
}

/// A conservation violation: the offending uid and its ledger line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The uid that broke conservation (0 for run-wide violations such as
    /// a failed invariant sweep or counter inequality).
    pub uid: u64,
    /// Human-readable ledger line describing the break.
    pub detail: String,
}

/// Aggregate audit tallies (kept at `Counters` and `Full`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Data packets announced via `DataOriginated`.
    pub originated: u64,
    /// First-time deliveries (per uid).
    pub delivered: u64,
    /// Routing-layer drops of originated data uids.
    pub dropped: u64,
    /// Interface-queue rejections of originated data uids.
    pub ifq_dropped: u64,
    /// Drops of uids never announced as data (control packets) — ignored
    /// by the ledger.
    pub control_drops: u64,
    /// Physically legitimate double-accounting events (ACK-loss ghosts):
    /// duplicate deliveries, drop-after-delivery, delivery-after-drop,
    /// double drops.
    pub ghost_events: u64,
    /// Originated uids still buffered (agent, MAC, or in-flight) at run
    /// end — accounted, not lost.
    pub in_flight_at_end: u64,
}

/// Online packet-conservation ledger. Fed by the driver's command loop;
/// interrogated once at run end.
#[derive(Debug, Default)]
pub struct Auditor {
    level: AuditLevel,
    summary: AuditSummary,
    ledger: U64HashMap<u64, UidState>,
    last_event_at: SimTime,
    violation: Option<Violation>,
}

impl Auditor {
    /// An auditor running at `level`.
    pub fn new(level: AuditLevel) -> Self {
        Auditor { level, ..Auditor::default() }
    }

    /// The level this auditor runs at.
    pub fn level(&self) -> AuditLevel {
        self.level
    }

    /// Whether any hook does work (false ⇒ the driver skips all calls).
    pub fn enabled(&self) -> bool {
        self.level != AuditLevel::Off
    }

    /// The aggregate tallies so far.
    pub fn summary(&self) -> AuditSummary {
        self.summary
    }

    fn flag(&mut self, uid: u64, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation { uid, detail });
        }
    }

    /// Observes the timestamp of every dispatched event (monotonicity
    /// re-check, independent of the driver's own guard).
    pub fn observe_event_time(&mut self, at: SimTime) {
        if at < self.last_event_at {
            self.flag(
                0,
                format!(
                    "event time regressed from {} to {} inside the audit stream",
                    self.last_event_at, at
                ),
            );
        }
        self.last_event_at = at;
    }

    /// A routing agent announced a freshly originated data uid.
    pub fn on_originated(&mut self, uid: u64) {
        self.summary.originated += 1;
        if self.level != AuditLevel::Full {
            return;
        }
        if let Some(state) = self.ledger.insert(uid, UidState::Originated) {
            self.flag(uid, format!("uid {uid} originated twice (ledger: {state})"));
        }
    }

    /// A data packet reached its destination application. `fresh` is the
    /// metrics layer's duplicate-suppression verdict (false ⇒ this uid was
    /// already delivered once).
    pub fn on_delivered(&mut self, uid: u64, fresh: bool) {
        if fresh {
            self.summary.delivered += 1;
        }
        if self.level != AuditLevel::Full {
            if !fresh {
                self.summary.ghost_events += 1;
            }
            return;
        }
        match self.ledger.get(&uid).copied() {
            None => {
                self.flag(uid, format!("uid {uid} delivered but never originated"));
            }
            Some(UidState::Originated) => {
                self.ledger.insert(uid, UidState::Delivered);
            }
            // ACK-loss ghosts: a salvaged copy arriving again, or arriving
            // after the sender already declared the packet dropped.
            Some(UidState::Delivered) | Some(UidState::Dropped(_)) | Some(UidState::DroppedIfq) => {
                self.summary.ghost_events += 1;
            }
        }
    }

    /// The routing layer dropped `uid` for `reason`.
    pub fn on_dropped(&mut self, uid: u64, reason: DropReason) {
        if self.level != AuditLevel::Full {
            self.summary.dropped += 1;
            return;
        }
        match self.ledger.get(&uid).copied() {
            // Control packets are not conserved quantities.
            None => self.summary.control_drops += 1,
            Some(UidState::Originated) => {
                self.summary.dropped += 1;
                self.ledger.insert(uid, UidState::Dropped(reason));
            }
            // Ghosts: the packet (or a salvaged copy) already terminated.
            Some(_) => self.summary.ghost_events += 1,
        }
    }

    /// The interface queue rejected a packet. `is_control` is the
    /// payload's `is_routing_overhead()`.
    pub fn on_ifq_dropped(&mut self, uid: u64, is_control: bool) {
        if self.level != AuditLevel::Full {
            self.summary.ifq_dropped += 1;
            return;
        }
        if is_control {
            self.summary.control_drops += 1;
            return;
        }
        match self.ledger.get(&uid).copied() {
            None => self.summary.control_drops += 1,
            Some(UidState::Originated) => {
                self.summary.ifq_dropped += 1;
                self.ledger.insert(uid, UidState::DroppedIfq);
            }
            Some(_) => self.summary.ghost_events += 1,
        }
    }

    /// A protocol-invariant sweep found a violation (Full only).
    pub fn on_invariant_violation(&mut self, detail: String) {
        if self.level == AuditLevel::Full {
            self.flag(0, detail);
        }
    }

    /// Closes the ledger. `in_flight` holds every uid still buffered
    /// somewhere at run end (agent send buffers, MAC queues, undispatched
    /// events). Returns the first violation found, if any.
    pub fn finish(&mut self, in_flight: &U64HashSet<u64>) -> Option<Violation> {
        if self.level == AuditLevel::Full {
            let mut vanished: Option<u64> = None;
            let mut still_buffered = 0u64;
            for (&uid, &state) in &self.ledger {
                if state == UidState::Originated {
                    if in_flight.contains(&uid) {
                        still_buffered += 1;
                    } else {
                        // Report the smallest vanished uid so the failure
                        // is deterministic across hash orders.
                        vanished = Some(vanished.map_or(uid, |v| v.min(uid)));
                    }
                }
            }
            self.summary.in_flight_at_end = still_buffered;
            if let Some(uid) = vanished {
                self.flag(
                    uid,
                    format!(
                        "uid {uid} vanished: originated, never delivered or dropped, \
                         and not buffered at run end (ledger: originated)"
                    ),
                );
            }
        } else if self.summary.delivered > self.summary.originated {
            self.flag(
                0,
                format!(
                    "{} distinct uids delivered but only {} originated",
                    self.summary.delivered, self.summary.originated
                ),
            );
        }
        self.violation.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_buffers() -> U64HashSet<u64> {
        U64HashSet::default()
    }

    #[test]
    fn balanced_ledger_passes() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_originated(1);
        a.on_originated(2);
        a.on_originated(3);
        a.on_delivered(1, true);
        a.on_dropped(2, DropReason::SendBufferTimeout);
        let buffered: U64HashSet<u64> = [3].into_iter().collect();
        assert_eq!(a.finish(&buffered), None);
        let s = a.summary();
        assert_eq!((s.originated, s.delivered, s.dropped), (3, 1, 1));
        assert_eq!(s.in_flight_at_end, 1);
    }

    #[test]
    fn vanished_uid_is_a_violation() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_originated(7);
        let v = a.finish(&no_buffers()).expect("must flag uid 7");
        assert_eq!(v.uid, 7);
        assert!(v.detail.contains("vanished"), "{}", v.detail);
    }

    #[test]
    fn smallest_vanished_uid_wins() {
        let mut a = Auditor::new(AuditLevel::Full);
        for uid in [9, 4, 6] {
            a.on_originated(uid);
        }
        assert_eq!(a.finish(&no_buffers()).unwrap().uid, 4);
    }

    #[test]
    fn delivery_of_unknown_uid_is_a_violation() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_delivered(42, true);
        let v = a.finish(&no_buffers()).expect("must flag uid 42");
        assert_eq!(v.uid, 42);
        assert!(v.detail.contains("never originated"));
    }

    #[test]
    fn double_origination_is_a_violation() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_originated(5);
        a.on_originated(5);
        let v = a.finish(&no_buffers()).expect("must flag uid 5");
        assert_eq!(v.uid, 5);
        assert!(v.detail.contains("originated twice"));
    }

    #[test]
    fn ack_loss_ghosts_are_benign() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_originated(1);
        a.on_delivered(1, true);
        a.on_dropped(1, DropReason::NoRouteToSalvage); // sender missed the ACK
        a.on_delivered(1, false); // salvaged copy arrives again
        a.on_originated(2);
        a.on_dropped(2, DropReason::SalvageLimit);
        a.on_dropped(2, DropReason::SendBufferTimeout); // double drop
        assert_eq!(a.finish(&no_buffers()), None);
        assert_eq!(a.summary().ghost_events, 3);
    }

    #[test]
    fn control_drops_are_ignored_by_the_ledger() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_dropped(999, DropReason::ControlUndeliverable);
        a.on_ifq_dropped(998, true);
        assert_eq!(a.finish(&no_buffers()), None);
        assert_eq!(a.summary().control_drops, 2);
    }

    #[test]
    fn ifq_rejection_terminates_a_data_uid() {
        let mut a = Auditor::new(AuditLevel::Full);
        a.on_originated(3);
        a.on_ifq_dropped(3, false);
        assert_eq!(a.finish(&no_buffers()), None);
        assert_eq!(a.summary().ifq_dropped, 1);
    }

    #[test]
    fn counters_level_checks_the_delivery_inequality() {
        let mut a = Auditor::new(AuditLevel::Counters);
        a.on_originated(1);
        a.on_delivered(1, true);
        a.on_delivered(2, true); // never originated: trips the inequality
        let v = a.finish(&no_buffers()).expect("inequality must trip");
        assert_eq!(v.uid, 0);
        assert!(v.detail.contains("2 distinct uids delivered"));
    }

    #[test]
    fn off_level_does_nothing() {
        let a = Auditor::new(AuditLevel::Off);
        assert!(!a.enabled());
    }

    #[test]
    fn monotonicity_regression_is_flagged() {
        let mut a = Auditor::new(AuditLevel::Counters);
        a.observe_event_time(SimTime::from_secs(2.0));
        a.observe_event_time(SimTime::from_secs(1.0));
        let v = a.finish(&no_buffers()).expect("regression must be flagged");
        assert!(v.detail.contains("regressed"));
    }

    #[test]
    fn audit_level_parses_and_renders() {
        for level in [AuditLevel::Off, AuditLevel::Counters, AuditLevel::Full] {
            assert_eq!(AuditLevel::parse(&level.to_string()), Some(level));
        }
        assert_eq!(AuditLevel::parse("FULL"), Some(AuditLevel::Full));
        assert_eq!(AuditLevel::parse("nope"), None);
    }
}
