//! Transmission fronts: what one `StartTx` asks of the event queue, kept
//! as one block of small members under one queued key (DESIGN.md §9,
//! "Transmission fronts").
//!
//! A block first holds the transmission's evented start boundaries, sorted
//! by `(time, seq)` (staged in plan order, then written out sorted when the
//! plan is complete) and delivered through a cursor. Each start that locks
//! with an evented end writes its decode into the part of the same block
//! the cursor has already passed, so when the starts are through the block
//! *is* the decode list and is run the same way. The driver owns the
//! queue side — which key the front is filed under, and whether anything
//! else is due first; this module owns the blocks and their one
//! invariant: **the members a block still holds are due in the order it
//! hands them out**, so the key of the next one is the earliest of them
//! all. A decode that would break that is refused, and the driver panics:
//! at the 802.11 timing every frame outlasts the propagation spread.

use phy::TxId;
use sim_core::{SimDuration, SimTime};

/// Which boundary a member is; the driver maps it to the event it
/// dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum MemberKind {
    /// Start boundary of a decodable arrival.
    Boundary,
    /// Start boundary of a sub-RX arrival the MAC or a fault window must see.
    CarrierSense,
    /// Decode boundary of a frame that locked at its start.
    Decode,
}

/// One boundary of a front: its reserved seq, its instant as nanoseconds
/// after the transmission began, and the receiver.
#[derive(Debug, Clone, Copy)]
struct Member {
    seq: u64,
    after_ns: u32,
    rx: u16,
    kind: MemberKind,
}

impl Member {
    /// Delivery order within one block: all members share a base instant.
    #[inline]
    fn due(&self) -> (u32, u64) {
        (self.after_ns, self.seq)
    }
}

/// A member as the driver dispatches it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Due {
    pub at: SimTime,
    pub seq: u64,
    pub rx: u16,
    pub kind: MemberKind,
    pub tx_id: TxId,
}

/// One block's bookkeeping. While the block is free only `link` means
/// anything: the free list is threaded through the headers.
#[derive(Debug, Clone, Copy)]
struct Head {
    tx_start: SimTime,
    tx_id: TxId,
    /// The run being delivered is `members[next..len]` of the block.
    next: u16,
    len: u16,
    /// Decodes written so far, into `members[..decodes]`, while the run
    /// being delivered is still the starts.
    decodes: u16,
    link: u32,
}

impl Head {
    /// The instant `member`, of this block, is due at.
    #[inline]
    fn at(&self, member: Member) -> SimTime {
        self.tx_start + SimDuration::from_nanos(u64::from(member.after_ns))
    }
}

/// End of the free list.
const NO_BLOCK: u32 = u32::MAX;

/// Blocks allocated up front, and again whenever none is free. Counted on
/// the benchmark's workloads, six fronts at most are in flight at once
/// under DSR and eighteen under AODV's floods.
const BLOCKS: usize = 8;

/// The driver's slab of front blocks, `stride` members each.
#[derive(Debug)]
pub(super) struct Fronts {
    heads: Vec<Head>,
    members: Vec<Member>,
    /// Members per block: the node count, since a transmission has fewer
    /// receivers than there are nodes and no more decodes than starts.
    stride: usize,
    free: u32,
    /// The starts of the transmission being planned, in plan order — which
    /// is seq order: the driver reserves a seq per arrival as it plans.
    staged: Vec<Member>,
    /// One word per staged start, `after_ns << 32 | plan index`: sorting
    /// these is sorting the starts by `(time, seq)`, at about half the
    /// cost of sorting the members themselves.
    keys: Vec<u64>,
}

impl Fronts {
    pub(super) fn new(nodes: usize) -> Self {
        let mut fronts = Fronts {
            heads: Vec::new(),
            members: Vec::new(),
            stride: nodes,
            free: NO_BLOCK,
            staged: Vec::with_capacity(nodes),
            keys: Vec::with_capacity(nodes),
        };
        fronts.grow();
        fronts
    }

    /// Adds [`BLOCKS`] free blocks, in two exactly sized allocations.
    fn grow(&mut self) {
        let blank = Member { seq: 0, after_ns: 0, rx: 0, kind: MemberKind::Boundary };
        self.members.reserve_exact(BLOCKS * self.stride);
        self.members.resize(self.members.len() + BLOCKS * self.stride, blank);
        self.heads.reserve_exact(BLOCKS);
        for _ in 0..BLOCKS {
            let idx = u32::try_from(self.heads.len()).ok().filter(|&idx| idx != NO_BLOCK);
            self.heads.push(Head {
                tx_start: SimTime::ZERO,
                tx_id: 0,
                next: 0,
                len: 0,
                decodes: 0,
                link: self.free,
            });
            self.free = idx.expect("fewer than 2^32 - 1 fronts in flight");
        }
    }

    #[inline]
    fn block(&mut self, idx: u32) -> (&mut Head, &mut [Member]) {
        let base = idx as usize * self.stride;
        (&mut self.heads[idx as usize], &mut self.members[base..base + self.stride])
    }

    /// Takes a block for the transmission `tx_id` that begins at `tx_start`.
    fn open(&mut self, tx_start: SimTime, tx_id: TxId) -> u32 {
        if self.free == NO_BLOCK {
            self.grow();
        }
        let idx = self.free;
        let head = &mut self.heads[idx as usize];
        self.free = head.link;
        *head = Head { tx_start, tx_id, next: 0, len: 0, decodes: 0, link: NO_BLOCK };
        idx
    }

    #[inline]
    fn release(&mut self, idx: u32) {
        self.heads[idx as usize].link = self.free;
        self.free = idx;
    }

    /// Adds a start boundary, `after` the transmission began, to the front
    /// being planned.
    #[inline]
    pub(super) fn stage(&mut self, after: SimDuration, seq: u64, rx: u16, kind: MemberKind) {
        let after_ns =
            u32::try_from(after.as_nanos()).expect("a frame reaches every receiver within 4.29 s");
        self.keys.push(u64::from(after_ns) << 32 | self.staged.len() as u64);
        self.staged.push(Member { seq, after_ns, rx, kind });
    }

    /// Planning of the transmission `tx_id`, begun at `tx_start`, is over:
    /// moves the staged starts into a block, in delivery order, and
    /// returns the block and the key to file the front under — or `None`
    /// if the transmission has no evented boundary at all.
    #[inline]
    pub(super) fn seal(&mut self, tx_start: SimTime, tx_id: TxId) -> Option<(u32, SimTime, u64)> {
        if self.staged.is_empty() {
            return None;
        }
        self.keys.sort_unstable();
        let idx = self.open(tx_start, tx_id);
        let base = idx as usize * self.stride;
        let block = &mut self.members[base..base + self.staged.len()];
        for (slot, key) in block.iter_mut().zip(self.keys.drain(..)) {
            *slot = self.staged[key as u32 as usize];
        }
        self.heads[idx as usize].len = self.staged.len() as u16;
        self.staged.clear();
        let (at, seq, _) = self.next_key(idx)?;
        Some((idx, at, seq))
    }

    /// The key of the member [`Fronts::take`] would hand out next, and
    /// whether it is *near*: the same run as the member before it, hence
    /// at most a propagation spread away. `None` — the block is given
    /// back — once nothing is left; the first decode after the last start
    /// is an airtime away and not near.
    #[inline]
    pub(super) fn next_key(&mut self, idx: u32) -> Option<(SimTime, u64, bool)> {
        let (head, members) = self.block(idx);
        let mut near = true;
        if head.next == head.len {
            if head.decodes == 0 {
                self.release(idx);
                return None;
            }
            // The starts are through: the block is the decode list.
            (head.next, head.len, head.decodes) = (0, head.decodes, 0);
            near = false;
        }
        let member = members[usize::from(head.next)];
        Some((head.at(member), member.seq, near))
    }

    /// Hands out the next member and moves the cursor past it — before the
    /// dispatch, whose decode may take the vacated place.
    #[inline]
    pub(super) fn take(&mut self, idx: u32) -> Due {
        let (head, members) = self.block(idx);
        let member = members[usize::from(head.next)];
        head.next += 1;
        Due {
            at: head.at(member),
            seq: member.seq,
            rx: member.rx,
            kind: member.kind,
            tx_id: head.tx_id,
        }
    }

    /// The start boundary just taken from block `idx` locked with an
    /// evented end at `(end, end_seq)`: writes the decode behind the
    /// cursor and returns `true`, or returns `false` if the block cannot
    /// carry it in order — it would be due before a start still to come
    /// (airtime shorter than the propagation spread) or not after the
    /// decode before it, or lies beyond a member's reach.
    #[inline]
    pub(super) fn push_decode(&mut self, idx: u32, end: SimTime, end_seq: u64, rx: u16) -> bool {
        let (head, members) = self.block(idx);
        let Some(after_ns) =
            end.checked_since(head.tx_start).and_then(|d| u32::try_from(d.as_nanos()).ok())
        else {
            return false;
        };
        let decode = Member { seq: end_seq, after_ns, rx, kind: MemberKind::Decode };
        let last_start = members[usize::from(head.len) - 1];
        let in_order = match head.decodes {
            0 => true,
            written => members[usize::from(written) - 1].due() < decode.due(),
        };
        // One decode per start taken, so the place is always vacant;
        // checked all the same, since a start overwritten is a frame lost.
        if head.decodes >= head.next || last_start.due() >= decode.due() || !in_order {
            return false;
        }
        members[usize::from(head.decodes)] = decode;
        head.decodes += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use dsr::DsrConfig;
    use mobility::Point;
    use sim_core::NodeId;

    use super::super::dispatch_order::{taped, Dispatch};
    use super::super::{Simulator, EV_KIND_NAMES};
    use super::*;
    use crate::audit::AuditLevel;
    use crate::campaign::{RunError, RunLimits};
    use crate::config::{FaultPlan, MobilitySpec, ScenarioConfig};

    /// 100 nodes × 16 bytes = 1600 bytes a block, 12.5 KiB for the eight
    /// blocks a DSR run needs — about what the queue slots the members no
    /// longer occupy gave back. At 24 bytes (a `SimTime` instead of an
    /// offset) the slab is 6.25 KiB larger, and `mobile_aodv`, which grows
    /// to 24 blocks, read +0.51 % `peak_heap_mib`, five times its budget.
    #[test]
    fn a_member_is_sixteen_bytes() {
        assert!(std::mem::size_of::<Member>() <= 16, "{}", std::mem::size_of::<Member>());
    }

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    /// Seals a front of `(ns after start, seq, rx)` starts at `t0`.
    fn sealed(fronts: &mut Fronts, t0: SimTime, starts: &[(u64, u64, u16)]) -> u32 {
        for &(after, seq, rx) in starts {
            fronts.stage(ns(after), seq, rx, MemberKind::Boundary);
        }
        let (idx, at, seq) = fronts.seal(t0, 7).expect("has members");
        let first = starts.iter().map(|&(after, seq, _)| (t0 + ns(after), seq)).min();
        assert_eq!(Some((at, seq)), first, "filed under its earliest member");
        idx
    }

    /// Takes every member the block still holds, in the order it hands
    /// them out, as `(ns after t0, seq, rx, kind)`.
    fn drain(fronts: &mut Fronts, idx: u32, t0: SimTime) -> Vec<(u64, u64, u16, MemberKind)> {
        let mut out = Vec::new();
        loop {
            let due = fronts.take(idx);
            assert_eq!(due.tx_id, 7);
            out.push(((due.at - t0).as_nanos(), due.seq, due.rx, due.kind));
            match fronts.next_key(idx) {
                Some((at, seq, _)) => assert!((at, seq) > (due.at, due.seq), "in delivery order"),
                None => return out,
            }
        }
    }

    #[test]
    fn starts_come_out_by_time_then_seq() {
        let mut fronts = Fronts::new(10);
        let t0 = SimTime::from_nanos(1_000);
        // Planned in seq order, as the driver plans them; two ties.
        let idx =
            sealed(&mut fronts, t0, &[(700, 20, 1), (300, 21, 2), (700, 22, 3), (300, 23, 4)]);
        let b = MemberKind::Boundary;
        assert_eq!(
            drain(&mut fronts, idx, t0),
            [(300, 21, 2, b), (300, 23, 4, b), (700, 20, 1, b), (700, 22, 3, b)]
        );
        assert!(fronts.seal(t0, 8).is_none(), "nothing staged, no block taken");
    }

    #[test]
    fn decodes_ride_behind_the_cursor_and_the_block_turns_into_their_list() {
        let mut fronts = Fronts::new(10);
        let t0 = SimTime::from_nanos(5_000);
        let idx = sealed(&mut fronts, t0, &[(100, 1, 1), (200, 2, 2), (300, 3, 3)]);
        let mut seen = Vec::new();
        for (end_seq, locks) in [(10, true), (11, false), (12, true)] {
            let due = fronts.take(idx);
            seen.push(due.rx);
            if locks {
                assert!(fronts.push_decode(idx, due.at + ns(50_000), end_seq, due.rx));
            }
            let (at, seq, near) = fronts.next_key(idx).expect("more to come");
            // Near within a run; the first decode is an airtime away.
            assert_eq!(near, due.rx != 3, "after rx {}", due.rx);
            assert!((at, seq) > (due.at, due.seq));
        }
        assert_eq!(seen, [1, 2, 3]);
        let d = MemberKind::Decode;
        assert_eq!(drain(&mut fronts, idx, t0), [(50_100, 10, 1, d), (50_300, 12, 3, d)]);
    }

    #[test]
    fn a_decode_the_block_cannot_order_is_refused() {
        let mut fronts = Fronts::new(10);
        let t0 = SimTime::from_nanos(5_000);
        let idx = sealed(&mut fronts, t0, &[(100, 1, 1), (400, 2, 2), (900, 3, 3)]);
        let first = fronts.take(idx);
        // Airtime 500 ns: due at 600, before the start at 900 still to come.
        assert!(!fronts.push_decode(idx, first.at + ns(500), 10, 1));
        // Exactly the last start's instant: the seq decides, either way.
        assert!(!fronts.push_decode(idx, t0 + ns(900), 2, 1));
        assert!(fronts.push_decode(idx, t0 + ns(900), 10, 1));
        fronts.take(idx);
        // Not after the decode before it.
        assert!(!fronts.push_decode(idx, t0 + ns(900), 9, 2));
        // Out of a member's reach.
        assert!(!fronts.push_decode(idx, t0 + SimDuration::from_secs(5.0), 11, 2));
        assert!(!fronts.push_decode(idx, SimTime::from_nanos(4_000), 11, 2));
        assert!(fronts.push_decode(idx, t0 + ns(1_000), 11, 2));
        // One decode per start taken: a third would overwrite the start
        // still in the block.
        assert!(!fronts.push_decode(idx, t0 + ns(1_100), 12, 2));
        let (b, d) = (MemberKind::Boundary, MemberKind::Decode);
        assert_eq!(
            drain(&mut fronts, idx, t0),
            [(900, 3, 3, b), (900, 10, 1, d), (1_000, 11, 2, d)]
        );
    }

    /// What the driver's panic on a refused decode rests on, from the
    /// constants: the shortest frame on the air outlasts the propagation
    /// delay to the farthest receiver that senses it, so no decode is due
    /// before a start still to come; and a data frame of the largest
    /// payload a scenario artifact may carry ends inside a member's offset.
    #[test]
    fn every_decode_fits_its_front_at_the_802_11_timing() {
        use mac::config::{frame_duration, ACK_BYTES, CTS_BYTES, RTS_BYTES};
        use mac::MacConfig;
        use phy::propagation::propagation_delay_s;
        use phy::RadioConfig;
        let cs_range_m = RadioConfig::wavelan().carrier_sense_range_m();
        let spread = SimDuration::from_secs(propagation_delay_s(cs_range_m));
        let frames = [RTS_BYTES, CTS_BYTES, ACK_BYTES].map(frame_duration);
        let shortest = frames.into_iter().min().expect("three frames");
        assert_eq!(shortest, SimDuration::from_micros_u64(248));
        assert!(spread < shortest, "{spread:?} at {cs_range_m} m");
        assert!(spread < SimDuration::from_micros_u64(2), "{spread:?} at {cs_range_m} m");
        let longest = MacConfig.data_duration(crate::forensics::MAX_PACKET_BYTES) + spread;
        assert!(longest.as_nanos() < u64::from(u32::MAX), "{longest:?}");
    }

    #[test]
    fn blocks_are_recycled_and_the_slab_grows_when_all_are_out() {
        let mut fronts = Fronts::new(4);
        let t0 = SimTime::ZERO;
        let out: Vec<u32> = (0..BLOCKS as u64 + 3)
            .map(|i| sealed(&mut fronts, t0, &[(10 + i, 2 * i, 1), (5, 2 * i + 1, 2)]))
            .collect();
        let mut distinct = out.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), BLOCKS + 3, "every front in flight has a block of its own");
        assert_eq!(fronts.heads.len(), 2 * BLOCKS);
        assert_eq!(fronts.members.len(), 2 * BLOCKS * 4);
        for (i, &idx) in out.iter().enumerate() {
            let i = i as u64;
            let b = MemberKind::Boundary;
            assert_eq!(drain(&mut fronts, idx, t0), [(5, 2 * i + 1, 2, b), (10 + i, 2 * i, 1, b)]);
        }
        // Everything is free again: as many more fit without growing.
        for i in 0..2 * BLOCKS as u64 {
            sealed(&mut fronts, t0, &[(1, 100 + i, 0)]);
        }
        assert_eq!(fronts.heads.len(), 2 * BLOCKS);
    }

    // ------------------------------------------------------------------
    // Fronts in the run loop. Each scenario below is built from a clean
    // run's own tape — two or three members of one front and the instants
    // between them — so the fault, the horizon or the budget lands inside
    // a front by construction. Their dispatch-order digests were recorded,
    // by these same tests, at the last commit without fronts.
    // ------------------------------------------------------------------

    const ARRIVAL_BOUNDARY: usize = 8;
    const FAULT_START: usize = 4;
    const FAULT_END: usize = 5;

    /// Five nodes within decode range of one another at uneven spacing,
    /// one 8 pkt/s flow from the first to the last: every data frame has
    /// four start boundaries at four distinct instants.
    fn cluster() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::static_line(5, 50.0, 8.0, DsrConfig::base(), 3);
        let xs = [0.0, 50.0, 110.0, 180.0, 240.0];
        cfg.mobility = MobilitySpec::Static(xs.iter().map(|&x| Point::new(x, 0.0)).collect());
        cfg.duration = SimDuration::from_secs(4.0);
        cfg
    }

    /// The first three start boundaries of one front, at three instants,
    /// dispatched back to back no earlier than `from` into the log.
    fn three_members(log: &[Dispatch], from: usize) -> [Dispatch; 3] {
        let spread = SimDuration::from_nanos(2_000);
        log[from..]
            .windows(3)
            .find(|w| {
                w.iter().all(|d| d.2 == ARRIVAL_BOUNDARY)
                    && w[0].0 < w[1].0
                    && w[1].0 < w[2].0
                    && w[2].0 - w[0].0 < spread
            })
            .map(|w| [w[0], w[1], w[2]])
            .expect("a front with three members in a row")
    }

    fn between(a: SimTime, b: SimTime) -> SimTime {
        a + SimDuration::from_nanos((b - a).as_nanos() / 2)
    }

    /// `(at, kind, node)` of each dispatch: seqs shift with every event a
    /// variant of the scenario books at boot, the order does not.
    fn shape(log: &[Dispatch]) -> Vec<(SimTime, usize, u16)> {
        log.iter().map(|&(at, _, kind, node)| (at, kind, node)).collect()
    }

    fn clean_log() -> Vec<Dispatch> {
        let (report, tape) = taped(true, || Simulator::new(cluster()).run());
        assert!(report.delivered > 0);
        tape.log.expect("kept")
    }

    #[test]
    fn a_node_taken_down_between_two_members_misses_the_later_one() {
        let clean = clean_log();
        let [a, b, _] = three_members(&clean, clean.len() / 2);
        // Down from between the two members until just past the second.
        let down_at = between(a.0, b.0);
        let down_for = (b.0 - down_at) + SimDuration::from_nanos(1);
        let mut cfg = cluster();
        cfg.faults = FaultPlan::none().node_down(NodeId::new(b.3), down_at, down_for);
        let (report, tape) = taped(true, || Simulator::new(cfg).run());
        let log = shape(&tape.log.expect("kept"));
        let i = log.iter().position(|&d| d == (down_at, FAULT_START, 0)).expect("the fault fired");
        assert_eq!(log[i - 1], (a.0, ARRIVAL_BOUNDARY, a.3), "after the first member");
        assert_eq!(log[i + 1], (b.0, ARRIVAL_BOUNDARY, b.3), "the second is still dispatched");
        assert_eq!(log[..i], shape(&clean)[..i], "and nothing before it moved");
        assert_eq!(report.arrivals_suppressed, 1, "suppressed there, and counted");
        assert_eq!(report.faults_injected, 1);
        assert_eq!(tape.digest, 0xd6be_bb11_11cd_4dac, "{} dispatches", tape.dispatches);
    }

    #[test]
    fn a_horizon_inside_a_front_cuts_it_there_and_the_audit_still_balances() {
        let clean = clean_log();
        let [_, b, c] = three_members(&clean, clean.len() / 2);
        let end = between(b.0, c.0);
        let mut cfg = cluster();
        cfg.duration = end - SimTime::ZERO;
        let (result, tape) = taped(true, || {
            let mut sim = Simulator::new(cfg);
            sim.set_audit(AuditLevel::Full);
            sim.try_run()
        });
        result.expect("conservation holds with half a front undelivered");
        let log = shape(&tape.log.expect("kept"));
        let kept = clean.iter().take_while(|d| d.0 <= end).count();
        assert_eq!(log.last(), Some(&(b.0, ARRIVAL_BOUNDARY, b.3)), "the last member in time");
        assert_eq!(log, shape(&clean)[..kept], "everything up to the horizon, nothing past it");
        assert_eq!(tape.digest, 0x2706_7c7a_d7f7_e02f, "{} dispatches", tape.dispatches);
    }

    #[test]
    fn an_event_budget_runs_out_inside_a_front_at_the_same_count() {
        let clean = clean_log();
        // The first simulated second is one budget window, opened at boot
        // with nothing popped: dispatch number `n` (from 1) is the `n`-th
        // event in it. A budget of `n - 1` must trip exactly there.
        let [_, b, _] = three_members(&clean, 0);
        assert!(b.0 < SimTime::from_secs(1.0), "inside the first window");
        let n = clean.iter().position(|&d| d == b).expect("from this log") as u64 + 1;
        let (result, tape) = taped(true, || {
            let mut sim = Simulator::new(cluster());
            sim.set_limits(RunLimits { wall_clock: None, max_events_per_sim_second: Some(n - 1) });
            sim.try_run()
        });
        match result {
            Err(RunError::EventBudgetExhausted { seed: 3, at, events }) => {
                assert_eq!((at, events), (b.0, n), "tripped at the member, counting it");
            }
            other => panic!("expected the budget to run out, got {other:?}"),
        }
        // The member that tripped it was not dispatched; all before it were.
        assert_eq!(tape.log.expect("kept"), clean[..n as usize - 1]);
    }

    #[test]
    fn a_node_revived_while_a_front_is_refiled_sees_the_rest_of_it() {
        let clean = clean_log();
        let [a, b, c] = three_members(&clean, clean.len() / 2);
        // Churn: down between the first two members, rebooted — timers
        // cancelled, MAC reset, agent restarted — between the last two,
        // with the front waiting in the queue both times.
        let (down_at, up_at) = (between(a.0, b.0), between(b.0, c.0));
        let mut cfg = cluster();
        cfg.faults = FaultPlan::none().node_churn(NodeId::new(c.3), down_at, up_at - down_at);
        let (result, tape) = taped(true, || {
            let mut sim = Simulator::new(cfg);
            sim.set_audit(AuditLevel::Full);
            sim.try_run()
        });
        let report = result.expect("clean under audit");
        let log = shape(&tape.log.expect("kept"));
        let i = log.iter().position(|&d| d == (down_at, FAULT_START, 0)).expect("the fault fired");
        assert_eq!(
            log[i - 1..i + 4],
            [
                (a.0, ARRIVAL_BOUNDARY, a.3),
                (down_at, FAULT_START, 0),
                (b.0, ARRIVAL_BOUNDARY, b.3),
                (up_at, FAULT_END, 0),
                (c.0, ARRIVAL_BOUNDARY, c.3),
            ],
            "kinds by index: {EV_KIND_NAMES:?}"
        );
        assert_eq!(report.arrivals_suppressed, 0, "up again when its own member came");
        assert!(report.delivered > 0);
        assert_eq!(tape.digest, 0x431b_2c79_c35f_82bf, "{} dispatches", tape.dispatches);
    }
}
