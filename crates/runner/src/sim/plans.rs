//! Link plans: who senses a transmitter, at what power and after what
//! delay, computed once per transmitter and *position epoch* instead of
//! once per frame (DESIGN.md §9, "Link plans").
//!
//! The driver plans over a snapshot of the node positions that it re-takes
//! at most every `position_refresh`, and everything the planner computes
//! from a snapshot — grid candidates, distances, two-ray powers, delays
//! rounded to nanoseconds — is the same for every frame a node sends until
//! a node moves. This module owns what is a function of the snapshot: the
//! neighbor grid over it and one flat arena of [`Link`]s, a slice per
//! transmitter, filled the first time that node transmits in the epoch and
//! emptied when the next snapshot differs. What differs from frame to frame
//! — the instant, the airtime, which receivers a fault silences right now,
//! the corruption draw — is not in a plan: the driver applies it as it
//! walks the slice.

use mobility::{NeighborGrid, Point};
use phy::{for_each_link, RadioConfig};
use sim_core::{NodeId, SimDuration};

/// One receiver of a plan: everything about the link from the plan's
/// transmitter to `rx` that holds for as long as neither moves.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
pub(super) struct Link {
    power_w: f64,
    delay_ns: u16,
    rx: u16,
}

impl Link {
    fn new(rx: NodeId, power_w: f64, delay: SimDuration) -> Self {
        // A delay, never an instant, and checked: a link too long for the
        // field must stop the run, not wrap into a short one.
        let delay_ns = u16::try_from(delay.as_nanos())
            .expect("a frame that is sensed at all arrives within 65 µs (19 km)");
        Link { power_w, delay_ns, rx: rx.index() as u16 }
    }

    /// The sensing node.
    #[inline]
    pub(super) fn rx(self) -> u16 {
        self.rx
    }

    /// Received power in watts.
    #[inline]
    pub(super) fn power_w(self) -> f64 {
        self.power_w
    }

    /// How long after a transmission begins its first bit arrives.
    #[inline]
    pub(super) fn delay(self) -> SimDuration {
        SimDuration::from_nanos(u64::from(self.delay_ns))
    }
}

/// Where one transmitter's plan lies in the arena, and the epoch it was
/// planned in: void in any other.
#[derive(Debug, Clone, Copy)]
struct Span {
    epoch: u64,
    offset: u32,
    len: u32,
}

/// Links the arena grows by when a plan does not fit: exact, never
/// doubling, so the arena ends less than 6 KB above the densest epoch's need
/// (≈ 4 700 links at the paper's density, see `tests::a_link_is_twelve_bytes`)
/// after about ten allocations a run. Measured on the benchmark's
/// `mobile_dsr`: at 1024, five allocations a run and `peak_heap_mib` +0.51 %
/// on the commit before link plans; at 512, +0.38 %, with `allocs_per_sim_s`
/// still below that commit's on all four workloads.
const CHUNK: usize = 512;

/// Whether two snapshots are the same to the last bit — the only sameness
/// under which every plan computed from one holds for the other. (`==`
/// would call `0.0` and `-0.0` the same and a NaN different from itself.)
pub(super) fn same_bits(a: &[Point], b: &[Point]) -> bool {
    let bits = |p: &Point| (p.x.to_bits(), p.y.to_bits());
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| bits(p) == bits(q))
}

/// The neighbor grid over the driver's current position snapshot and the
/// link plans computed from it so far.
#[derive(Debug)]
pub(super) struct LinkPlans {
    /// Spatial index over the snapshot; restricts planning to the
    /// transmitter's 3×3 cell neighborhood.
    grid: NeighborGrid,
    /// Counts the snapshots planned over; never 0, which marks a [`Span`]
    /// that was never planned.
    epoch: u64,
    /// The plans of this epoch, back to back in the order they were built.
    links: Vec<Link>,
    /// Per node: its plan, if `epoch` matches.
    spans: Vec<Span>,
    /// Scratch: candidate node ids from the grid.
    candidates: Vec<u16>,
}

impl LinkPlans {
    /// No plans yet over `positions`. Cell size must be at least the
    /// carrier-sense range for the 3×3 neighborhood to cover every possible
    /// receiver (see `NeighborGrid`); the 0.1% margin absorbs the range
    /// solver's bisection tolerance at zero practical cost.
    pub(super) fn new(radio: &RadioConfig, positions: &[Point]) -> Self {
        let mut plans = LinkPlans {
            grid: NeighborGrid::new(radio.carrier_sense_range_m() * 1.001),
            epoch: 0,
            links: Vec::new(),
            spans: vec![Span { epoch: 0, offset: 0, len: 0 }; positions.len()],
            candidates: Vec::new(),
        };
        plans.rebuild(positions);
        plans
    }

    /// The snapshot changed to `positions`: a new epoch. Every plan is
    /// void (the arena keeps its allocation) and the grid is rebuilt.
    pub(super) fn rebuild(&mut self, positions: &[Point]) {
        self.epoch += 1;
        self.links.clear();
        self.grid.rebuild(positions);
        #[cfg(test)]
        super::dispatch_order::note_grid_rebuilt();
    }

    /// The links of a transmission from `tx`, in ascending receiver order:
    /// planned now over `positions` — the snapshot of the last
    /// [`LinkPlans::rebuild`] — if `tx` has not transmitted in this epoch.
    #[inline]
    pub(super) fn links_of(&mut self, tx: NodeId, positions: &[Point]) -> &[Link] {
        if self.spans[tx.index()].epoch != self.epoch {
            self.plan(tx, positions);
        }
        let Span { offset, len, .. } = self.spans[tx.index()];
        &self.links[offset as usize..][..len as usize]
    }

    /// Plans `tx`'s links into the arena's tail.
    fn plan(&mut self, tx: NodeId, positions: &[Point]) {
        self.grid.candidates_into(positions[tx.index()], &mut self.candidates);
        let offset = self.links.len();
        if self.links.capacity() - offset < self.candidates.len() {
            self.links.reserve_exact(self.candidates.len().max(CHUNK));
        }
        let links = &mut self.links;
        for_each_link(tx, &self.candidates, positions, |rx, power_w, delay| {
            links.push(Link::new(rx, power_w, delay));
        });
        self.spans[tx.index()] = Span {
            epoch: self.epoch,
            offset: u32::try_from(offset).expect("fewer than 2^32 links in one epoch"),
            len: (self.links.len() - offset) as u32,
        };
        #[cfg(test)]
        super::dispatch_order::note_plan_built();
    }
}

#[cfg(test)]
mod tests {
    use phy::{plan_arrivals_indexed_into, Arrival};
    use sim_core::rng::uniform;
    use sim_core::testkit::cases;
    use sim_core::{SimRng, SimTime};

    use super::*;

    /// 100 nodes × ≈ 47 sensed neighbours (the paper's 2200 m × 600 m field,
    /// 550 m carrier-sense range) × 12 bytes ≈ 57 KB when every node has
    /// transmitted in one epoch. The same plans kept as the planner's
    /// 32-byte `Arrival`s would be 150 KB, and at 16 bytes (the `f64`'s
    /// natural alignment) 75 KB — `peak_heap_mib` is ≈ 5 MiB and its bound
    /// 1 %.
    #[test]
    fn a_link_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Link>(), 12);
    }

    #[test]
    #[should_panic(expected = "arrives within 65 µs")]
    fn a_delay_that_does_not_fit_is_refused_not_wrapped() {
        Link::new(NodeId::new(1), 1e-9, SimDuration::from_nanos(65_536 + 40));
    }

    #[test]
    fn snapshots_are_compared_by_bits() {
        let a = [Point::new(1.0, 0.0), Point::new(2.5, 3.0)];
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &[a[0], Point::new(2.5, 3.0 + 1e-12)]));
        assert!(!same_bits(&a, &a[..1]));
        // Equal under `==`, yet not the same input to every computation.
        assert_eq!(Point::new(1.0, 0.0), Point::new(1.0, -0.0));
        assert!(!same_bits(&a, &[Point::new(1.0, -0.0), a[1]]));
        // Unequal under `==`, yet nothing moved.
        let nan = [Point::new(f64::NAN, 0.0)];
        assert!(same_bits(&nan, &nan.clone()));
    }

    /// Placements the planner has edge cases for, and a transmitter to
    /// favour: the paper's mobile field, an uneven line several grid cells
    /// long, co-located pairs (under 1 mm apart the power is capped and the
    /// delay rounds to zero) and a ring within ±1 mm of the carrier-sense
    /// range of node 0.
    fn placement(case: u64, rng: &mut SimRng, radio: &RadioConfig) -> (Vec<Point>, u16) {
        let n = 2 + uniform(rng, 0.0, 62.0) as usize;
        let in_field =
            |rng: &mut SimRng| Point::new(uniform(rng, 0.0, 2200.0), uniform(rng, 0.0, 600.0));
        let positions: Vec<Point> = match case % 4 {
            0 => (0..n).map(|_| in_field(rng)).collect(),
            1 => {
                let mut x = 0.0;
                (0..n)
                    .map(|_| {
                        x += uniform(rng, 20.0, 400.0);
                        Point::new(x, 0.0)
                    })
                    .collect()
            }
            2 => {
                let mut out: Vec<Point> = Vec::new();
                for i in 0..n {
                    out.push(match out.last() {
                        Some(&twin) if i % 2 == 1 => {
                            let (dx, dy) = (uniform(rng, 0.0, 7e-4), uniform(rng, 0.0, 7e-4));
                            Point::new(twin.x + dx, twin.y + dy)
                        }
                        _ => in_field(rng),
                    });
                }
                out
            }
            _ => {
                let centre = Point::new(1100.0, 300.0);
                let range = radio.carrier_sense_range_m();
                let mut out = vec![centre];
                out.extend((1..n).map(|_| {
                    let (r, angle) = (
                        range + uniform(rng, -1e-3, 1e-3),
                        uniform(rng, 0.0, std::f64::consts::TAU),
                    );
                    Point::new(centre.x + r * angle.cos(), centre.y + r * angle.sin())
                }));
                out
            }
        };
        let tx = if uniform(rng, 0.0, 1.0) < 0.5 { 0 } else { uniform(rng, 0.0, n as f64) as u16 };
        (positions, tx)
    }

    /// Plan once, walk under `(now, duration, mask)` ≡ a fresh full-scan
    /// `plan_arrivals_indexed_into(now, duration, mask)`: same arrivals,
    /// same order, same suppressed count — for every frame of an epoch,
    /// whichever node sends it, with the mask changing from frame to frame,
    /// and again after a node has moved by less than a nanometre.
    ///
    /// Re-run one case alone by passing `case..case + 1` as the range.
    #[test]
    fn a_walked_plan_is_a_fresh_plan() {
        let radio = RadioConfig::wavelan();
        let (mut fresh, mut walked) = (Vec::new(), Vec::new());
        let (mut reused, mut straddled) = (0, 0);
        cases("link-plans", 0..192, |case, rng| {
            let (mut positions, favoured) = placement(case, rng, &radio);
            let n = positions.len();
            let all: Vec<u16> = (0..n as u16).collect();
            let mut plans = LinkPlans::new(&radio, &positions);
            let mut planned = vec![false; n];
            for frame in 0..12 {
                if frame == 6 {
                    // The least a node can move: one bit of one coordinate.
                    let moved = uniform(rng, 0.0, n as f64) as usize;
                    positions[moved].x = f64::from_bits(positions[moved].x.to_bits() + 1);
                    plans.rebuild(&positions);
                    planned.fill(false);
                }
                let tx = if frame % 2 == 0 { favoured } else { uniform(rng, 0.0, n as f64) as u16 };
                let now = SimTime::from_secs(uniform(rng, 0.0, 500.0));
                let airtime = SimDuration::from_micros(uniform(rng, 1.0, 10_000.0));
                let mask: Vec<bool> = (0..n).map(|_| uniform(rng, 0.0, 1.0) < 0.3).collect();

                let suppressed_fresh = plan_arrivals_indexed_into(
                    NodeId::new(tx),
                    &all,
                    &positions,
                    now,
                    airtime,
                    &radio,
                    |rx| mask[rx.index()],
                    &mut fresh,
                );

                reused += usize::from(std::mem::replace(&mut planned[usize::from(tx)], true));
                walked.clear();
                let mut suppressed_walked = 0u64;
                for &link in plans.links_of(NodeId::new(tx), &positions) {
                    if mask[usize::from(link.rx())] {
                        suppressed_walked += 1;
                        continue;
                    }
                    let start = now + link.delay();
                    walked.push(Arrival {
                        receiver: NodeId::new(link.rx()),
                        power_w: link.power_w(),
                        start,
                        end: start + airtime,
                    });
                }
                assert_eq!(walked, fresh, "frame {frame} from node {tx}");
                assert_eq!(suppressed_walked, suppressed_fresh, "frame {frame} from node {tx}");
                straddled +=
                    usize::from(case % 4 == 3 && tx == 0 && (1..n - 1).contains(&fresh.len()));
            }
        });
        assert!(reused > 192 * 4, "plans must be walked more than once: {reused}");
        assert!(straddled > 50, "the ring must straddle the carrier-sense range: {straddled}");
    }

    #[test]
    fn a_new_epoch_voids_every_plan_and_keeps_the_arena() {
        let radio = RadioConfig::wavelan();
        let mut positions: Vec<Point> =
            (0..4).map(|i| Point::new(f64::from(i) * 200.0, 0.0)).collect();
        let mut plans = LinkPlans::new(&radio, &positions);
        let rxs = |links: &[Link]| links.iter().map(|l| l.rx()).collect::<Vec<_>>();
        // 200 m: decodable; 400 m: carrier only; 600 m: silent.
        assert_eq!(rxs(plans.links_of(NodeId::new(0), &positions)), [1, 2]);
        assert_eq!(rxs(plans.links_of(NodeId::new(3), &positions)), [1, 2]);
        assert_eq!(rxs(plans.links_of(NodeId::new(0), &positions)), [1, 2]);
        assert_eq!(plans.links.len(), 4, "planned once per transmitter, back to back");
        let capacity = plans.links.capacity();
        assert_eq!(capacity, CHUNK);

        positions[3] = Point::new(450.0, 0.0);
        plans.rebuild(&positions);
        assert!(plans.links.is_empty() && plans.links.capacity() == capacity);
        // Node 3's plan now starts where node 0's old one did.
        assert_eq!(rxs(plans.links_of(NodeId::new(3), &positions)), [0, 1, 2]);
        assert_eq!(rxs(plans.links_of(NodeId::new(0), &positions)), [1, 2, 3]);
        let near = plans.links_of(NodeId::new(2), &positions)[2];
        assert_eq!((near.rx(), near.delay()), (3, SimDuration::from_nanos(167)));
    }
}
