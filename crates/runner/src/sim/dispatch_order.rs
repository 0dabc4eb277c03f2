//! Dispatch order, pinned. The `Report` digests in
//! `tests/scenario_reference.rs` cannot see a reordering that happens to
//! leave every counter alone; this can: the run loop notes each dispatch
//! on a test-only, thread-local tape, which folds `(at, seq, kind index,
//! node)` into a rolling FNV-1a and closes with the run's final
//! `popped`/`scheduled`/`postponed`.
//!
//! The digests below were recorded at the last commit whose queue still
//! held one key per arrival boundary, before transmission fronts (DESIGN
//! §9) existed. The AODV scenario of the set lives in
//! `tests/aodv_stack.rs`, on the heartbeat, trace and profile hooks: the
//! `aodv` crate sits above this one.
//!
//! Re-pin a digest only in a change that means to alter simulated
//! behaviour, and say so in that change.

use std::cell::RefCell;

use dsr::DsrConfig;
use mobility::Point;

use super::*;
use crate::config::{FaultPlan, Zone};

/// One dispatch as the run loop saw it.
pub(super) type Dispatch = (SimTime, u64, usize, u16);

/// What one taped run left behind.
#[derive(Debug, Default)]
pub(super) struct Tape {
    /// Rolling FNV-1a of every dispatch, then of the totals.
    pub digest: u64,
    pub dispatches: u64,
    /// Decodes that could not ride in their transmission's front.
    pub loose_decodes: u64,
    /// The dispatches themselves, when asked for.
    pub log: Option<Vec<Dispatch>>,
}

thread_local! {
    /// The tape of the run in progress on this test thread, if any.
    static TAPE: RefCell<Option<Tape>> = const { RefCell::new(None) };
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn with_tape(f: impl FnOnce(&mut Tape)) {
    TAPE.with(|tape| {
        if let Some(tape) = tape.borrow_mut().as_mut() {
            f(tape);
        }
    });
}

/// The node an event is about: the timer's owner, the receiver, the
/// flow or the fault index.
pub(super) fn ev_node<P, T>(ev: &Ev<P, T>) -> u16 {
    match ev {
        Ev::MacTimer { node, .. } | Ev::AgentTimer { node, .. } | Ev::AgentSend { node, .. } => {
            *node
        }
        Ev::ArrivalBoundary { rx, .. } | Ev::Arrival { rx, .. } | Ev::CarrierSense { rx } => *rx,
        Ev::Traffic { flow, .. } => *flow as u16,
        Ev::FaultStart { idx } | Ev::FaultEnd { idx } => *idx as u16,
        Ev::Front { idx } => *idx as u16,
    }
}

/// The run loop is about to dispatch the event keyed `(at, seq)`.
pub(super) fn note(at: SimTime, seq: u64, kind: usize, node: u16) {
    with_tape(|tape| {
        for word in [at.as_nanos(), seq, kind as u64, u64::from(node)] {
            tape.digest = fold(tape.digest, &word.to_le_bytes());
        }
        tape.dispatches += 1;
        if let Some(log) = &mut tape.log {
            log.push((at, seq, kind, node));
        }
    });
}

/// The run loop is done: what the profile will call dispatched, scheduled
/// and postponed.
pub(super) fn note_totals(popped: u64, scheduled: u64, postponed: u64) {
    with_tape(|tape| {
        for word in [popped, scheduled, postponed] {
            tape.digest = fold(tape.digest, &word.to_le_bytes());
        }
    });
}

/// A decode was filed as a plain event because its front could not hold it.
pub(super) fn note_loose_decode() {
    with_tape(|tape| tape.loose_decodes += 1);
}

/// Runs `run` with a tape in place and returns both.
pub(super) fn taped<R>(keep_log: bool, run: impl FnOnce() -> R) -> (R, Tape) {
    let fresh = Tape { digest: FNV_OFFSET, log: keep_log.then(Vec::new), ..Tape::default() };
    TAPE.with(|tape| *tape.borrow_mut() = Some(fresh));
    let out = run();
    let tape = TAPE.with(|tape| tape.borrow_mut().take()).expect("installed above");
    (out, tape)
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: f64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Every frame shorter on the air (an ACK: 5.6 ns) than the spread of its
/// propagation delays (up to 833 ns inside decode range), so a near
/// receiver's decode is due before a far receiver's start.
pub(super) fn short_airtime(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(0.0, 6.0, DsrConfig::base(), seed);
    cfg.mac.plcp_overhead = SimDuration::ZERO;
    cfg.mac.data_rate_bps = 2.0e10;
    cfg
}

fn scenarios() -> Vec<(&'static str, ScenarioConfig, u64)> {
    let n = NodeId::new;
    let storm = FaultPlan::none()
        .node_churn(n(6), secs(6.0), dur(4.0))
        .region_blackout(
            Zone::Disc { center: Point::new(400.0, 150.0), radius_m: 150.0 },
            secs(9.0),
            dur(6.0),
        )
        .radio_duty_cycle(n(12), secs(4.0), dur(2.0), dur(1.0), secs(25.0))
        .frame_corruption(0.2, secs(2.0), secs(28.0));
    vec![
        (
            "mobile_dsr_c",
            ScenarioConfig::tiny(0.0, 2.0, DsrConfig::combined(), 1),
            0x864c_174f_9822_7dd7,
        ),
        // Pause time = run length: nobody moves; MACs stay carrier-reactive.
        (
            "static_base_8pps",
            ScenarioConfig::tiny(30.0, 8.0, DsrConfig::base(), 2),
            0x9f9e_07a5_e0fc_9945,
        ),
        (
            "fault_mix",
            ScenarioConfig {
                faults: storm,
                ..ScenarioConfig::tiny(0.0, 2.0, DsrConfig::base(), 11)
            },
            0x79a3_0b8e_a05a_6fb5,
        ),
        ("short_airtime", short_airtime(5), 0x3ac5_9316_694e_7eb5),
    ]
}

#[test]
fn dispatch_order_matches_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, cfg, expected) in scenarios() {
        let (report, tape) = taped(false, || Simulator::new(cfg).run());
        assert!(
            report.originated > 0 && tape.dispatches > 10_000,
            "{name}: an idle run pins nothing"
        );
        // Only the scenario built for it leaves decodes outside their fronts.
        assert_eq!(tape.loose_decodes > 0, name == "short_airtime", "{name}: {tape:?}");
        if tape.digest != expected {
            mismatches.push(format!(
                "{name}: digest {:#018x} over {} dispatches, pinned {expected:#018x}",
                tape.digest, tape.dispatches
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
