//! Transmission planning over the shared medium.
//!
//! Given a transmitter and the node positions, compute which nodes sense
//! its frames, at what power, and how long after the transmission begins
//! the first bit arrives ([`for_each_link`]) — all a function of the
//! positions alone — and from that, for one frame, when its first and last
//! bits arrive at each receiver ([`plan_arrivals_indexed_into`]). The
//! driver queues each arrival as a
//! [`PendingArrival`](crate::PendingArrival) on the receiver's
//! [`ReceiverState`](crate::ReceiverState).
//!
//! The positions are the driver's snapshot, at most `position_refresh`
//! (50 ms) old, not a sample taken at transmission start: a 20 m/s node
//! moves at most 1 m between snapshots — negligible against a 250 m radio
//! range — and a frame lasts well under 10 ms.

use mobility::Point;
use sim_core::{NodeId, SimDuration, SimTime};

use crate::propagation::{propagation_delay_s, rx_power_w, RadioConfig, CS_THRESHOLD_W};
use crate::receiver::TxId;

/// One frame copy en route to one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// The sensing node.
    pub receiver: NodeId,
    /// Received power in watts.
    pub power_w: f64,
    /// When the first bit arrives.
    pub start: SimTime,
    /// When the last bit arrives (frame can be delivered here).
    pub end: SimTime,
}

/// Visits the links of a transmission from node `tx` located per
/// `positions`, considering only the node indices in `candidates`: for each
/// node that senses `tx` above the carrier-sense threshold, in candidate
/// order, `visit(receiver, power_w, delay)` with the received power in
/// watts and the propagation delay. Everyone else is physically unaware of
/// the transmission, and the transmitter itself is skipped (its radio is
/// busy transmitting).
///
/// `candidates` must be sorted ascending and must cover every node within
/// carrier-sense range of the transmitter. A 3×3 neighborhood query on a
/// `mobility::NeighborGrid` with cell size ≥ the carrier-sense range
/// guarantees both (see that type's docs), and so does `0..n` — the full
/// scan, which is what the tests use as the reference. Any two covering
/// candidate lists give the same links in the same order: candidates out of
/// range are harmless.
#[inline]
pub fn for_each_link(
    tx: NodeId,
    candidates: &[u16],
    positions: &[Point],
    mut visit: impl FnMut(NodeId, f64, SimDuration),
) {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "candidates must be ascending");
    let tx_pos = positions[tx.index()];
    for &i in candidates {
        if usize::from(i) == tx.index() {
            continue;
        }
        let dist = tx_pos.distance(positions[usize::from(i)]);
        let power = rx_power_w(dist);
        if power < CS_THRESHOLD_W {
            continue;
        }
        visit(NodeId::new(i), power, SimDuration::from_secs(propagation_delay_s(dist)));
    }
}

/// Plans the arrivals of one frame: a transmission starting at `now` and
/// lasting `duration` over the links [`for_each_link`] visits (see there
/// for what `candidates` must be). Arrivals are pushed into `out` (cleared
/// first); the return value counts the in-range receivers `suppress`
/// silenced.
///
/// Receivers for which `suppress` returns `true` never sense the frame at
/// all — no signal energy, no carrier, no capture: crashed nodes and
/// regional blackouts, for which the medium simply does not exist.
///
/// `_radio` is the scenario's radio; planning reads only the fixed link
/// budget of [`propagation`](crate::propagation), not its reception threshold.
#[allow(clippy::too_many_arguments)]
pub fn plan_arrivals_indexed_into(
    tx: NodeId,
    candidates: &[u16],
    positions: &[Point],
    now: SimTime,
    duration: SimDuration,
    _radio: &RadioConfig,
    mut suppress: impl FnMut(NodeId) -> bool,
    out: &mut Vec<Arrival>,
) -> u64 {
    out.clear();
    let mut suppressed = 0u64;
    for_each_link(tx, candidates, positions, |receiver, power_w, delay| {
        if suppress(receiver) {
            suppressed += 1;
            return;
        }
        let start = now + delay;
        out.push(Arrival { receiver, power_w, start, end: start + duration });
    });
    suppressed
}

/// Monotonically increasing transmission-id source.
#[derive(Debug, Default)]
pub struct TxIdSource(u64);

impl TxIdSource {
    /// Creates a source starting at id 0.
    pub fn new() -> Self {
        TxIdSource(0)
    }

    /// Returns a fresh transmission id.
    pub fn next_id(&mut self) -> TxId {
        let id = self.0;
        self.0 += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::NeighborGrid;
    use sim_core::rng::uniform;
    use sim_core::RngFactory;

    fn line_positions(n: usize, spacing: f64) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64 * spacing, 0.0)).collect()
    }

    /// Plans a 1 ms frame from `tx` at time zero over `candidates`.
    fn plan(
        tx: u16,
        candidates: &[u16],
        positions: &[Point],
        suppress: impl FnMut(NodeId) -> bool,
    ) -> (Vec<Arrival>, u64) {
        let mut out = Vec::new();
        let suppressed = plan_arrivals_indexed_into(
            NodeId::new(tx),
            candidates,
            positions,
            SimTime::ZERO,
            SimDuration::from_millis(1.0),
            &RadioConfig::wavelan(),
            suppress,
            &mut out,
        );
        (out, suppressed)
    }

    /// The full scan: every node is a candidate, nothing is masked.
    fn plan_unmasked(tx: u16, positions: &[Point]) -> Vec<Arrival> {
        let all: Vec<u16> = (0..positions.len() as u16).collect();
        plan(tx, &all, positions, |_| false).0
    }

    #[test]
    fn neighbors_in_rx_range_hear_loudly() {
        let cfg = RadioConfig::wavelan();
        let arrivals = plan_unmasked(0, &line_positions(4, 200.0));
        // 200 m: decodable; 400 m: carrier only; 600 m: silent.
        assert_eq!(arrivals.len(), 2);
        assert_eq!(arrivals[0].receiver, NodeId::new(1));
        assert!(arrivals[0].power_w >= cfg.rx_threshold_w);
        assert_eq!(arrivals[1].receiver, NodeId::new(2));
        assert!(arrivals[1].power_w < cfg.rx_threshold_w);
        assert!(arrivals[1].power_w >= CS_THRESHOLD_W);
    }

    #[test]
    fn transmitter_not_among_arrivals() {
        let arrivals = plan_unmasked(1, &line_positions(3, 100.0));
        assert!(arrivals.iter().all(|a| a.receiver != NodeId::new(1)));
        assert_eq!(arrivals.len(), 2);
    }

    #[test]
    fn propagation_delay_orders_arrivals() {
        let arrivals = plan_unmasked(0, &line_positions(3, 150.0));
        assert!(arrivals[0].start < arrivals[1].start, "nearer node hears first");
        for a in &arrivals {
            assert_eq!(a.end - a.start, SimDuration::from_millis(1.0));
            assert!(a.start > SimTime::ZERO, "light is fast but not instantaneous");
        }
    }

    #[test]
    fn isolated_node_produces_no_arrivals() {
        let pos = vec![Point::new(0.0, 0.0), Point::new(10_000.0, 0.0)];
        assert!(plan_unmasked(0, &pos).is_empty());
    }

    #[test]
    fn mask_silences_receivers_and_counts_them() {
        let dead = NodeId::new(1);
        let (arrivals, suppressed) =
            plan(0, &[0, 1, 2, 3], &line_positions(4, 200.0), |rx| rx == dead);
        assert_eq!(suppressed, 1);
        // Node 2 (carrier-only range) still senses the frame.
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].receiver, NodeId::new(2));
    }

    #[test]
    fn tx_ids_are_unique_and_increasing() {
        let mut src = TxIdSource::new();
        let a = src.next_id();
        let b = src.next_id();
        assert!(b > a);
    }

    #[test]
    fn only_candidates_are_considered() {
        // Only node 2 offered: node 1 (also in range) must not appear.
        let (arrivals, _) = plan(0, &[2], &line_positions(3, 100.0), |_| false);
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].receiver, NodeId::new(2));
    }

    /// The grid is a pure index: planning from its 3×3-cell candidates
    /// gives the full scan's arrivals — same values, same order, same
    /// suppressed count — for any placement and any mask. The driver draws
    /// corruption RNG and reserves queue seqs in arrival order, so this is
    /// what keeps a run independent of the grid's cell geometry.
    #[test]
    fn grid_candidates_plan_exactly_what_the_full_scan_plans() {
        let radio = RadioConfig::wavelan();
        let airtime = SimDuration::from_millis(1.5);
        let mut grid = NeighborGrid::new(radio.carrier_sense_range_m() * 1.001);
        let (mut cands, mut all) = (Vec::new(), Vec::new());
        // Both output buffers live across cases: a planner that appended
        // instead of clearing would fail on the second one.
        let (mut indexed, mut scanned) = (Vec::new(), Vec::new());
        let mut pruned_cases = 0;
        for case in 0..240u64 {
            let mut rng = RngFactory::new(0x6d65_6469).stream("placement", case);
            let n = 2 + (uniform(&mut rng, 0.0, 62.0) as usize);
            let positions: Vec<Point> = if case % 3 == 0 {
                // A line with uneven spacing, several cells long.
                let mut x = 0.0;
                (0..n)
                    .map(|_| {
                        x += uniform(&mut rng, 20.0, 400.0);
                        Point::new(x, 0.0)
                    })
                    .collect()
            } else {
                // The paper's mobile field.
                (0..n)
                    .map(|_| {
                        Point::new(uniform(&mut rng, 0.0, 2200.0), uniform(&mut rng, 0.0, 600.0))
                    })
                    .collect()
            };
            let tx = NodeId::new(uniform(&mut rng, 0.0, n as f64) as u16);
            let mask: Vec<bool> = (0..n).map(|_| uniform(&mut rng, 0.0, 1.0) < 0.3).collect();
            let now = SimTime::from_secs(uniform(&mut rng, 0.0, 100.0));

            grid.rebuild(&positions);
            grid.candidates_into(positions[tx.index()], &mut cands);
            all.clear();
            all.extend(0..n as u16);
            pruned_cases += usize::from(cands.len() < n);
            let plan = |candidates: &[u16], out: &mut Vec<Arrival>| {
                let suppress = |rx: NodeId| mask[rx.index()];
                plan_arrivals_indexed_into(
                    tx, candidates, &positions, now, airtime, &radio, suppress, out,
                )
            };
            let suppressed_indexed = plan(&cands, &mut indexed);
            let suppressed_scanned = plan(&all, &mut scanned);
            assert_eq!(indexed, scanned, "case {case}: arrivals differ");
            assert_eq!(suppressed_indexed, suppressed_scanned, "case {case}: suppressed count");
        }
        assert!(pruned_cases > 100, "the grid must actually prune: {pruned_cases} of 240");
    }
}
