//! The receiver-level reference model: lazy envelope vs eager receiver.
//!
//! Replays one receiver's arrival history through both [`ReceiverState`]
//! APIs — the crate-private eager `arrival_start`/`arrival_end` pair,
//! which folds every boundary at the instant it happens (one call per
//! boundary, the textbook ns-2 receiver), and the lazy
//! `add_pending`/`settle_start`/`decode` protocol the runner drives — and
//! asserts byte-identical outcomes: the same frames deliver, and the
//! sensed-busy horizon agrees at every boundary instant. The eager side is
//! the oracle; nothing outside this crate's tests calls it.
//!
//! The harness mirrors the runner's seq discipline: every boundary gets a
//! key `(time, seq)` with seqs assigned in global event order, so
//! same-instant boundaries fold in the same order on both sides. Like the
//! runner, it plans each arrival at its transmitter's instant, a lead
//! ahead of its start, and commits the envelope to that plan frontier
//! before queueing the entry. The two
//! seeded properties at the bottom drive it with random arrival storms; the
//! unit tests above them pin a few known-treacherous shapes so the harness
//! itself stays verified.

use sim_core::{SimDuration, SimTime};

use crate::propagation::RadioConfig;
use crate::receiver::{PendingArrival, ReceiverState, TxId};

/// One planned arrival at the receiver under test: start/duration in
/// nanoseconds plus received power in watts. Powers below the
/// carrier-sense threshold are the driver's job to filter and must not be
/// passed here (they are invisible to the node on both sides).
#[derive(Debug, Clone, Copy)]
struct DiffArrival {
    /// Arrival start, nanoseconds.
    start_ns: u64,
    /// Airtime, nanoseconds (must be > 0).
    dur_ns: u64,
    /// Received power, watts.
    power_w: f64,
    /// Fault injection corrupted this copy at planning time (the
    /// reference gates delivery externally; the runner bakes the flag into
    /// the pending entry).
    corrupted: bool,
    /// The receiver is down/blacked-out at the start boundary: the
    /// reference never sees the arrival, and the runner removes the
    /// pending entry via [`ReceiverState::suppress_pending`] at that same
    /// dispatch instant.
    suppress_start: bool,
    /// The receiver is down/blacked-out at the end boundary: both sides
    /// settle the decode but discard the delivered frame.
    suppress_end: bool,
    /// How long before its start the arrival is planned (the
    /// transmitter's instant; the propagation delay in the runner).
    lead_ns: u64,
}

impl DiffArrival {
    /// A fault-free arrival.
    fn clean(start_ns: u64, dur_ns: u64, power_w: f64) -> Self {
        DiffArrival {
            start_ns,
            dur_ns,
            power_w,
            corrupted: false,
            suppress_start: false,
            suppress_end: false,
            lead_ns: 0,
        }
    }

    /// The instant the arrival is planned.
    fn plan_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.lead_ns)
    }
}

/// What happens at one instant of the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// Arrival `i` is planned (fused: commit to the frontier, then queue
    /// the entry; eager: nothing).
    Plan(usize),
    /// Arrival `i` begins (eager: `arrival_start`; fused: start boundary).
    Start(usize),
    /// Arrival `i` ends (eager: `arrival_end`; fused: decode event).
    End(usize),
    /// The node's own transmitter switches on (half-duplex corruption).
    BeginTx,
}

impl Op {
    /// The order of same-instant ops of different kinds.
    fn rank(self) -> u8 {
        match self {
            Op::Plan(_) => 0,
            Op::Start(_) => 1,
            Op::End(_) => 2,
            Op::BeginTx => 3,
        }
    }
}

/// Replays `arrivals` (plus an optional own transmission) through both
/// receivers and panics with a description on the first divergence. Returns
/// the per-arrival delivery outcomes for further assertions.
///
/// # Panics
///
/// Panics when the lazy envelope and the eager reference disagree on
/// any delivery or on the busy horizon at any boundary instant — that is
/// the point.
fn assert_fused_matches_eager(
    cfg: &RadioConfig,
    arrivals: &[DiffArrival],
    own_tx: Option<(u64, u64)>,
) -> Vec<bool> {
    let rx_threshold = cfg.rx_threshold_w;
    let t = |ns: u64| SimTime::from_nanos(ns);

    // Global event order: time-sorted, ties broken by a fixed op rank.
    // Both sides replay this exact order, and fused seqs are assigned
    // from it, so the tie-break is identical by construction. Same-instant
    // starts go in plan order, as the runner's seqs (reserved when an
    // arrival is planned) put them.
    let mut ops: Vec<(SimTime, Op)> = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        assert!(a.dur_ns > 0, "arrival {i} has zero airtime");
        ops.push((t(a.plan_ns()), Op::Plan(i)));
        ops.push((t(a.start_ns), Op::Start(i)));
        ops.push((t(a.start_ns + a.dur_ns), Op::End(i)));
    }
    if let Some((start_ns, _)) = own_tx {
        ops.push((t(start_ns), Op::BeginTx));
    }
    ops.sort_by_key(|&(at, op)| {
        let planned = match op {
            Op::Start(i) => arrivals[i].plan_ns(),
            _ => 0,
        };
        (at, op.rank(), planned, op)
    });

    // Seq = position in the sorted replay. `start_seq[i]` is the key the
    // runner would have reserved at plan time; `end_seq[i]` the one the
    // start boundary reserves for the decode event.
    let seq_of = |needle: Op, ops: &[(SimTime, Op)]| -> u64 {
        ops.iter().position(|(_, op)| *op == needle).expect("op present") as u64
    };

    let mut eager: ReceiverState = ReceiverState::new(*cfg);
    let mut fused: ReceiverState = ReceiverState::new(*cfg);

    let mut delivered_eager = vec![false; arrivals.len()];
    let mut delivered_fused = vec![false; arrivals.len()];
    for (pos, &(at, op)) in ops.iter().enumerate() {
        let seq = pos as u64;
        match op {
            Op::Plan(i) => {
                // The runner's `StartTx` walk: settle the receiver at the
                // frontier, then queue the arrival under the key of its
                // start boundary.
                let a = &arrivals[i];
                let decodable = a.power_w >= rx_threshold;
                fused.commit(at, seq);
                fused.add_pending(PendingArrival {
                    tx_id: i as TxId,
                    power_w: a.power_w,
                    start: t(a.start_ns),
                    start_seq: seq_of(Op::Start(i), &ops),
                    end: t(a.start_ns + a.dur_ns),
                    nav: SimDuration::ZERO,
                    needs_decode: decodable,
                    start_evented: decodable,
                    corrupted: a.corrupted,
                    payload: decodable.then_some(()),
                });
            }
            Op::Start(i) => {
                let a = &arrivals[i];
                if a.suppress_start {
                    // Reference: the arrival never reaches the receiver.
                    // Envelope: the entry is removed at the same dispatch
                    // instant, before any commit could fold it.
                    assert!(
                        fused.suppress_pending(seq),
                        "pending entry for arrival {i} missing at suppression"
                    );
                } else {
                    let end = t(a.start_ns + a.dur_ns);
                    eager.arrival_start(i as TxId, a.power_w, at, end);
                    if a.power_w >= rx_threshold {
                        // The fused start boundary: settle, then reserve the
                        // decode event's key exactly like the runner's
                        // ArrivalBoundary arm.
                        if fused.settle_start(i as TxId, at, seq) {
                            let end_seq = seq_of(Op::End(i), &ops);
                            fused.finalize_lock(i as TxId, end_seq, false);
                        }
                    }
                    // Sub-RX arrivals have no fused boundary: the envelope
                    // folds them inside a later commit.
                }
            }
            Op::End(i) => {
                let a = &arrivals[i];
                if a.suppress_start {
                    // Neither side has an end boundary.
                } else {
                    // Corruption is external to the reference: settle the
                    // decode, then gate delivery.
                    let intact = eager.arrival_end(i as TxId, at);
                    delivered_eager[i] = intact && !a.corrupted && !a.suppress_end;
                    if a.power_w >= rx_threshold {
                        let decoded = fused.decode(i as TxId, at, seq).is_some();
                        delivered_fused[i] = decoded && !a.suppress_end;
                    }
                }
            }
            Op::BeginTx => {
                let (start_ns, dur_ns) = own_tx.expect("op implies tx");
                let until = t(start_ns + dur_ns);
                eager.begin_tx(at, until, crate::receiver::SEQ_MAX);
                fused.begin_tx(at, until, seq);
            }
        }
        // The MAC's view must agree at every boundary instant.
        let busy_eager = eager.busy_until(at, crate::receiver::SEQ_MAX);
        let busy_fused = fused.busy_until(at, seq);
        assert_eq!(
            busy_eager, busy_fused,
            "busy horizon diverged at {at:?} after {op:?} (event {pos})"
        );
    }
    assert_eq!(
        delivered_eager, delivered_fused,
        "delivery outcomes diverged for {arrivals:?} tx={own_tx:?}"
    );
    delivered_eager
}

#[cfg(test)]
mod tests {
    use sim_core::testkit::cases;
    use sim_core::SimRng;

    use super::*;

    fn cfg() -> RadioConfig {
        RadioConfig::wavelan()
    }

    const SUB_RX: f64 = 1e-10; // above CS (1.559e-11), below RX (3.652e-10)
    const RX: f64 = 1e-9;
    const STRONG: f64 = 1e-7; // > 10x RX: wins capture contests

    fn a(start_ns: u64, dur_ns: u64, power_w: f64) -> DiffArrival {
        DiffArrival::clean(start_ns, dur_ns, power_w)
    }

    fn corrupt(start_ns: u64, dur_ns: u64, power_w: f64) -> DiffArrival {
        DiffArrival { corrupted: true, ..DiffArrival::clean(start_ns, dur_ns, power_w) }
    }

    #[test]
    fn clean_decode_and_sub_rx_noise() {
        let delivered =
            assert_fused_matches_eager(&cfg(), &[a(0, 1000, RX), a(5000, 1000, SUB_RX)], None);
        assert_eq!(delivered, vec![true, false]);
    }

    #[test]
    fn capture_contest_and_collision() {
        // Strong frame captures the medium from the weak lock; two
        // comparable frames collide.
        let delivered = assert_fused_matches_eager(
            &cfg(),
            &[a(0, 4000, RX), a(1000, 1000, STRONG), a(10_000, 3000, RX), a(11_000, 3000, RX)],
            None,
        );
        assert_eq!(delivered, vec![false, true, false, false]);
    }

    #[test]
    fn half_duplex_own_tx_corrupts_reception() {
        let delivered = assert_fused_matches_eager(
            &cfg(),
            &[a(0, 5000, RX), a(6000, 1000, RX)],
            Some((2000, 1000)),
        );
        assert_eq!(delivered, vec![false, true]);
    }

    #[test]
    fn same_instant_start_ties_fold_identically() {
        // Two decodable frames and a sub-RX interferer all starting at the
        // same nanosecond — the systematic-tie case integer-ns MAC timing
        // produces in real runs.
        assert_fused_matches_eager(
            &cfg(),
            &[a(1000, 2000, RX), a(1000, 3000, RX), a(1000, 4000, SUB_RX), a(3000, 500, STRONG)],
            None,
        );
    }

    #[test]
    fn sub_rx_storm_stays_noise_but_extends_busy() {
        let arrivals: Vec<DiffArrival> =
            (0..32).map(|i| a(i * 137, 1000 + i * 61, SUB_RX)).collect();
        let delivered = assert_fused_matches_eager(&cfg(), &arrivals, None);
        assert!(delivered.iter().all(|d| !d));
    }

    #[test]
    fn arrivals_planned_ahead_fold_at_their_own_starts() {
        // Each sub-RX interferer is planned while the earlier ones are
        // still ahead or on the air: the plan-time commit may fold only
        // what has already started, and the lock in the middle must see
        // every interferer in key order.
        let arrivals: Vec<DiffArrival> = (0..12)
            .map(|i| DiffArrival {
                lead_ns: 2500,
                ..a(i * 700, 1500, if i == 5 { STRONG } else { SUB_RX })
            })
            .collect();
        let delivered = assert_fused_matches_eager(&cfg(), &arrivals, Some((4000, 500)));
        assert_eq!(delivered.iter().filter(|&&d| d).count(), 0, "own tx corrupts the lock");
        let quiet: Vec<DiffArrival> =
            arrivals.iter().map(|&x| DiffArrival { lead_ns: 900, ..x }).collect();
        assert!(assert_fused_matches_eager(&cfg(), &quiet, None)[5]);
    }

    // ------------------------------------------------------------------
    // Fault mixes
    // ------------------------------------------------------------------

    #[test]
    fn corrupted_frame_occupies_medium_but_never_delivers() {
        let delivered =
            assert_fused_matches_eager(&cfg(), &[corrupt(0, 1000, RX), a(5000, 1000, RX)], None);
        assert_eq!(delivered, vec![false, true]);
    }

    #[test]
    fn corrupted_capture_winner_kills_both_frames() {
        // A corrupted strong frame must still capture the medium away from
        // the clean weak lock (corruption is invisible to the verdict
        // machine), so neither delivers.
        let delivered = assert_fused_matches_eager(
            &cfg(),
            &[a(0, 4000, RX), corrupt(1000, 1000, STRONG)],
            None,
        );
        assert_eq!(delivered, vec![false, false]);
    }

    #[test]
    fn suppressed_start_removes_frame_and_its_energy() {
        // Node down at the start boundary: the frame never lands, so the
        // later clean frame decodes free of interference.
        let suppressed =
            DiffArrival { suppress_start: true, ..DiffArrival::clean(0, 4000, STRONG) };
        let delivered = assert_fused_matches_eager(&cfg(), &[suppressed, a(1000, 1000, RX)], None);
        assert_eq!(delivered, vec![false, true]);
    }

    #[test]
    fn suppressed_sub_rx_interferer_cannot_collide() {
        // The interferer would collide with the weak lock if it landed;
        // suppressing its start boundary must spare the lock.
        let weak_lock = 4e-10;
        let interferer =
            DiffArrival { suppress_start: true, ..DiffArrival::clean(1000, 2000, 1e-10) };
        let delivered =
            assert_fused_matches_eager(&cfg(), &[a(0, 2000, weak_lock), interferer], None);
        assert_eq!(delivered, vec![true, false]);
    }

    #[test]
    fn suppressed_end_settles_but_discards_delivery() {
        // Node down at the end boundary: the decode settles (clearing the
        // lock) but nothing is delivered — and the medium stays accounted.
        let dropped = DiffArrival { suppress_end: true, ..DiffArrival::clean(0, 1000, RX) };
        let delivered = assert_fused_matches_eager(&cfg(), &[dropped, a(2000, 1000, RX)], None);
        assert_eq!(delivered, vec![false, true]);
    }

    #[test]
    fn mixed_fault_storm_stays_equivalent() {
        let mut arrivals = Vec::new();
        for i in 0..24u64 {
            let mut a = DiffArrival::clean(
                i * 433,
                900 + (i % 7) * 211,
                match i % 4 {
                    0 => SUB_RX,
                    1 => RX,
                    2 => 4e-10,
                    _ => STRONG,
                },
            );
            a.corrupted = i % 5 == 0;
            a.suppress_start = i % 6 == 2;
            a.suppress_end = i % 7 == 3;
            arrivals.push(a);
        }
        assert_fused_matches_eager(&cfg(), &arrivals, Some((3000, 1500)));
    }

    // ------------------------------------------------------------------
    // Seeded properties: lazy envelope == eager reference receiver
    // ------------------------------------------------------------------

    /// 1–23 arrivals whose starts cluster in a window comparable to their
    /// durations, so frames genuinely overlap, in four power classes — sub-RX
    /// (envelope-folded), barely decodable, decodable, and strong enough to
    /// win capture — plus, half the time, a half-duplex own transmission.
    /// Each arrival is planned up to a millisecond ahead of its start, so
    /// plans interleave with other arrivals' boundaries (the leads are drawn
    /// last, which keeps every case's arrivals as they were drawn before).
    fn storm(rng: &mut SimRng, faults: bool) -> (Vec<DiffArrival>, Option<(u64, u64)>) {
        let mut arrivals: Vec<DiffArrival> = (0..rng.random_range(1..24usize))
            .map(|_| {
                let start_ns = rng.random_range(0..2_000_000u64);
                let dur_ns = rng.random_range(1..1_500_000u64);
                let power_w = [SUB_RX, 5e-10, RX, STRONG][rng.random_range(0..4usize)];
                DiffArrival {
                    corrupted: faults && rng.random_bool(0.5),
                    suppress_start: faults && rng.random_bool(0.5),
                    suppress_end: faults && rng.random_bool(0.5),
                    ..DiffArrival::clean(start_ns, dur_ns, power_w)
                }
            })
            .collect();
        let own_tx = rng
            .random_bool(0.5)
            .then(|| (rng.random_range(0..2_000_000u64), rng.random_range(1..500_000u64)));
        for a in &mut arrivals {
            a.lead_ns = rng.random_range(0..1_000_000u64);
        }
        (arrivals, own_tx)
    }

    /// The lazy interference envelope is a pure acceleration structure:
    /// random overlapping arrival storms — powers straddling the
    /// carrier-sense and reception thresholds, capture contests, an optional
    /// half-duplex own transmission — must produce exactly the deliveries
    /// and busy horizons of the eager reference receiver.
    #[test]
    fn fused_envelope_matches_eager_reference() {
        cases("fused_envelope_matches_eager_reference", 0..256, |_, rng| {
            let (arrivals, own_tx) = storm(rng, false);
            assert_fused_matches_eager(&cfg(), &arrivals, own_tx);
        });
    }

    /// Fault injection rides the same equivalence contract: random
    /// plan-time corruption, start suppression (the arrival never enters
    /// either receiver) and end suppression (delivery gated after decode)
    /// must leave the envelope and the reference in lockstep.
    #[test]
    fn fused_envelope_matches_eager_under_random_fault_plans() {
        cases("fused_envelope_matches_eager_under_random_fault_plans", 0..256, |_, rng| {
            let (arrivals, own_tx) = storm(rng, true);
            assert_fused_matches_eager(&cfg(), &arrivals, own_tx);
        });
    }
}
