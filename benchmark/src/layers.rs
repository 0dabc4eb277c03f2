//! Layer drivers: the benchmark's own timed calls into each crate's public
//! functions, with inputs taken from the traced scenario.
//!
//! Every driver times *batches* of at least [`BATCH`] calls — one span per
//! batch — and reports the median batch, so a scheduler hiccup inside one
//! batch cannot move the figure. Nothing here calls `RoutingAgent::on_*`
//! or any function ROADMAP item 4 schedules for deletion.

use std::hint::black_box;
use std::time::Instant;

use dsr::{PathCache, RouteCache};
use mac::{Dcf, FrameKind, MacCommand, MacConfig, MacFrame, MacTimer, Priority};
use metrics::{Metrics, Report};
use mobility::{MobilityModel, NeighborGrid, Point, RandomWaypoint};
use obs::{CacheRow, Profile};
use packet::{CacheHitKind, Link, Route};
use phy::{plan_arrivals_indexed_into, Arrival, PendingArrival, RadioConfig, ReceiverState};
use runner::{MobilitySpec, ScenarioConfig};
use sim_core::{EventQueue, NodeId, RngFactory, SimDuration, SimTime};

use crate::spans::Recorder;
use crate::stats::median;

/// Calls per timed batch.
pub const BATCH: usize = 1000;

/// Batches per driver: enough for a stable median, few enough that all
/// drivers together stay within a few seconds.
const BATCHES: usize = 24;

/// Node-position snapshots kept for the medium and receiver drivers,
/// spread evenly over the scenario's duration.
const SNAPSHOTS: usize = 48;

/// A tiny deterministic generator for the drivers' synthetic choices
/// (event delays, which timer is re-armed; seeded from `--seed`) and for the
/// reference kernel's.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// sim-core: the event queue
// ---------------------------------------------------------------------

/// `EventQueue::{schedule, cancel, pop}` at the traced pass's
/// scheduled : cancelled : dispatched mix. Returns ns per dispatched event
/// (each dispatched event carries its share of schedules and cancels).
///
/// The simulator does not expose its queue depth, so the driver holds the
/// queue at a modelled steady state: one agent tick and one MAC timer per
/// node plus one traffic event per flow.
pub fn queue(rec: &mut Recorder, profile: &Profile, cfg: &ScenarioConfig, rng: &mut Lcg) -> f64 {
    let depth = 2 * cfg.num_nodes() + cfg.traffic.num_flows;
    // Cancels per dispatched event, as a fixed-point accumulator.
    let cancels_per_pop = if profile.dispatched == 0 {
        0.0
    } else {
        profile.cancelled as f64 / profile.dispatched as f64
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = SimTime::ZERO;
    // Delays of up to 2 ms: the scale of DCF backoff and frame airtime,
    // which is what most of the queue's population is.
    let delay = |rng: &mut Lcg| SimDuration::from_nanos(1 + rng.below(2_000_000));
    let mut timers = Vec::with_capacity(depth);
    for i in 0..depth {
        timers.push(q.schedule(now + delay(rng), i as u64));
    }
    let mut owed = 0.0f64;
    for _ in 0..BATCHES {
        let span = rec.enter("sim-core", "queue");
        for _ in 0..BATCH {
            let (at, payload) = q.pop().expect("queue held at depth");
            now = at;
            let slot = payload as usize % depth;
            timers[slot] = q.schedule(now + delay(rng), payload);
            owed += cancels_per_pop;
            while owed >= 1.0 {
                owed -= 1.0;
                // A re-arm: cancel a pending timer and schedule its
                // replacement, as the MAC does on every busy/idle flip.
                let victim = rng.below(depth as u64) as usize;
                q.cancel(timers[victim]);
                timers[victim] = q.schedule(now + delay(rng), victim as u64);
            }
        }
        rec.exit(span, BATCH as u64);
    }
    black_box(q.len());
    median_or_zero(&rec.per_call_ns("sim-core", "queue"))
}

// ---------------------------------------------------------------------
// mobility: snapshots and the neighbor grid
// ---------------------------------------------------------------------

/// What the mobility driver measured, plus the snapshots it sampled for
/// the medium and receiver drivers.
#[derive(Debug)]
pub struct MobilityResult {
    pub snapshot_ns: f64,
    pub grid_rebuild_ns: f64,
    pub candidates_ns_per_query: f64,
    pub candidates_per_query: f64,
    pub snapshots: Vec<Vec<Point>>,
}

/// The scenario's own itinerary — `RandomWaypoint::generate` with the
/// scenario's config and seed, exactly what `Simulator::with_agents`
/// builds — snapshotted every `position_refresh`, then
/// `NeighborGrid::{rebuild, candidates_into}` over those snapshots.
pub fn mobility(rec: &mut Recorder, cfg: &ScenarioConfig) -> MobilityResult {
    let MobilitySpec::Waypoint(waypoint) = &cfg.mobility else {
        unreachable!("every benchmark scenario is a waypoint scenario");
    };
    let model = RandomWaypoint::generate(waypoint, RngFactory::new(cfg.seed));
    let horizon_ns = cfg.duration.as_nanos();
    let step_ns = cfg.position_refresh.as_nanos().max(1);

    let mut buf = Vec::new();
    let mut t_ns = 0u64;
    for _ in 0..BATCHES {
        let span = rec.enter("mobility", "snapshot");
        for _ in 0..BATCH {
            model.snapshot_into(SimTime::from_nanos(t_ns), &mut buf);
            t_ns = (t_ns + step_ns) % horizon_ns;
        }
        rec.exit(span, BATCH as u64);
        black_box(&buf);
    }

    let snapshots: Vec<Vec<Point>> = (0..SNAPSHOTS)
        .map(|k| model.snapshot(SimTime::from_nanos(horizon_ns / SNAPSHOTS as u64 * k as u64)))
        .collect();

    let mut grid = NeighborGrid::new(cfg.radio.carrier_sense_range_m() * 1.001);
    for b in 0..BATCHES {
        let span = rec.enter("mobility", "grid_rebuild");
        for i in 0..BATCH {
            grid.rebuild(black_box(&snapshots[(b + i) % SNAPSHOTS]));
        }
        rec.exit(span, BATCH as u64);
    }

    let mut cands = Vec::new();
    let mut candidates = 0u64;
    let n = cfg.num_nodes();
    for b in 0..BATCHES {
        let positions = &snapshots[b % SNAPSHOTS];
        grid.rebuild(positions);
        let span = rec.enter("mobility", "candidates");
        for i in 0..BATCH {
            grid.candidates_into(positions[i % n], &mut cands);
            candidates += cands.len() as u64;
        }
        rec.exit(span, BATCH as u64);
    }

    MobilityResult {
        snapshot_ns: median_or_zero(&rec.per_call_ns("mobility", "snapshot")),
        grid_rebuild_ns: median_or_zero(&rec.per_call_ns("mobility", "grid_rebuild")),
        candidates_ns_per_query: median_or_zero(&rec.per_call_ns("mobility", "candidates")),
        candidates_per_query: candidates as f64 / (BATCHES * BATCH) as f64,
        snapshots,
    }
}

// ---------------------------------------------------------------------
// phy: arrival planning and the receiver envelope
// ---------------------------------------------------------------------

/// What the medium driver measured.
#[derive(Debug)]
pub struct PlanResult {
    pub plan_ns_per_tx: f64,
    pub arrivals_per_tx: f64,
    /// Arrivals per grid candidate examined.
    pub arrival_yield: f64,
}

/// `plan_arrivals_indexed_into` over the sampled snapshots. The planner's
/// caller has to fetch grid candidates first; those calls run inside the
/// `phy.plan` span as a `mobility.candidates` child, so the reported
/// figure is the span's *self* time.
pub fn plan(rec: &mut Recorder, cfg: &ScenarioConfig, snapshots: &[Vec<Point>]) -> PlanResult {
    let n = cfg.num_nodes();
    let airtime = cfg.mac.data_duration(cfg.traffic.packet_bytes);
    let mut grid = NeighborGrid::new(cfg.radio.carrier_sense_range_m() * 1.001);
    let mut candidate_lists: Vec<Vec<u16>> = vec![Vec::new(); BATCH];
    let mut arrivals: Vec<Arrival> = Vec::new();
    let (mut planned, mut examined) = (0u64, 0u64);
    for b in 0..BATCHES {
        let positions = &snapshots[b % snapshots.len()];
        grid.rebuild(positions);
        let now = SimTime::from_secs(b as f64);
        let span = rec.enter("phy", "plan");
        let child = rec.enter("mobility", "candidates");
        for (i, list) in candidate_lists.iter_mut().enumerate() {
            grid.candidates_into(positions[i % n], list);
        }
        rec.exit(child, BATCH as u64);
        for (i, list) in candidate_lists.iter().enumerate() {
            let tx = NodeId::new((i % n) as u16);
            let suppressed = plan_arrivals_indexed_into(
                tx,
                list,
                positions,
                now,
                airtime,
                &cfg.radio,
                |_| false,
                &mut arrivals,
            );
            planned += arrivals.len() as u64;
            examined += list.len() as u64;
            black_box(suppressed);
        }
        rec.exit(span, BATCH as u64);
    }
    let txs = (BATCHES * BATCH) as f64;
    PlanResult {
        plan_ns_per_tx: median_or_zero(&rec.per_call_ns("phy", "plan")),
        arrivals_per_tx: planned as f64 / txs,
        arrival_yield: if examined == 0 { 0.0 } else { planned as f64 / examined as f64 },
    }
}

/// One planned arrival at one receiver, with the queue seq the runner
/// would have reserved for its start boundary at plan time.
#[derive(Debug, Clone, Copy)]
struct Planned {
    tx_id: u64,
    power_w: f64,
    start: SimTime,
    start_seq: u64,
    end: SimTime,
}

/// Transmissions per receiver-envelope burst: at ~40 arrivals each, well
/// past [`BATCH`] arrivals per span.
const BURST: usize = 64;

/// Per-receiver arrival streams for a burst of staggered transmissions
/// over one snapshot, planned by the production planner.
fn burst_streams(
    cfg: &ScenarioConfig,
    positions: &[Point],
    grid: &mut NeighborGrid,
    first_tx: usize,
) -> Vec<Vec<Planned>> {
    let n = cfg.num_nodes();
    let airtime = cfg.mac.data_duration(cfg.traffic.packet_bytes);
    grid.rebuild(positions);
    let mut streams: Vec<Vec<Planned>> = vec![Vec::new(); n];
    let (mut cands, mut arrivals) = (Vec::new(), Vec::new());
    let mut seq = 0u64;
    for k in 0..BURST {
        let tx = (first_tx + k * 7) % n;
        // A quarter-airtime stagger: frames overlap without the start
        // order across transmissions ever inverting.
        let now = SimTime::from_nanos(airtime.as_nanos() / 4 * k as u64);
        grid.candidates_into(positions[tx], &mut cands);
        plan_arrivals_indexed_into(
            NodeId::new(tx as u16),
            &cands,
            positions,
            now,
            airtime,
            &cfg.radio,
            |_| false,
            &mut arrivals,
        );
        for a in &arrivals {
            streams[a.receiver.index()].push(Planned {
                tx_id: k as u64,
                power_w: a.power_w,
                start: a.start,
                start_seq: seq,
                end: a.end,
            });
            seq += 1;
        }
    }
    streams
}

/// Replays one receiver's stream through the fused envelope, as
/// `crates/bench/benches/receiver.rs::drive_fused` does: every arrival is
/// queued, only decodable ones get boundary and decode operations with
/// busy probes, and sub-RX interference folds inside those probes.
fn drive_fused(radio: RadioConfig, stream: &[Planned], ops: &[(SimTime, bool, usize)]) -> u64 {
    let mut state: ReceiverState = ReceiverState::new(radio);
    for p in stream {
        let decodable = p.power_w >= radio.rx_threshold_w;
        state.add_pending(PendingArrival {
            tx_id: p.tx_id,
            power_w: p.power_w,
            start: p.start,
            start_seq: p.start_seq,
            end: p.end,
            nav: SimDuration::ZERO,
            needs_decode: decodable,
            start_evented: decodable,
            payload: decodable.then_some(()),
            corrupted: false,
        });
    }
    let mut delivered = 0u64;
    let mut seq = stream.last().map_or(0, |p| p.start_seq + 1);
    for &(at, is_end, i) in ops {
        let p = &stream[i];
        if is_end {
            delivered += u64::from(state.decode(p.tx_id, at, seq).is_some());
        } else if state.settle_start(p.tx_id, at, p.start_seq) {
            state.finalize_lock(p.tx_id, seq, false);
        }
        seq += 1;
        black_box(state.busy_until(at, seq));
    }
    // Fold the sub-RX tail, as the runner's next MAC input would.
    black_box(state.busy_until(SimTime::from_secs(1e6), seq));
    delivered
}

/// `ReceiverState::{add_pending, settle_start, finalize_lock, decode,
/// busy_until}` over bursts planned on the sampled snapshots. Returns ns
/// per planned arrival.
pub fn envelope(rec: &mut Recorder, cfg: &ScenarioConfig, snapshots: &[Vec<Point>]) -> f64 {
    let mut grid = NeighborGrid::new(cfg.radio.carrier_sense_range_m() * 1.001);
    for b in 0..BATCHES {
        let streams = burst_streams(cfg, &snapshots[b % snapshots.len()], &mut grid, b);
        // The boundary order the event queue would pop, per receiver.
        let orders: Vec<Vec<(SimTime, bool, usize)>> = streams
            .iter()
            .map(|stream| {
                let mut ops = Vec::new();
                for (i, p) in stream.iter().enumerate() {
                    if p.power_w >= cfg.radio.rx_threshold_w {
                        ops.push((p.start, false, i));
                        ops.push((p.end, true, i));
                    }
                }
                ops.sort_unstable();
                ops
            })
            .collect();
        let arrivals: usize = streams.iter().map(Vec::len).sum();
        let span = rec.enter("phy", "envelope");
        let mut delivered = 0u64;
        for (stream, ops) in streams.iter().zip(&orders) {
            delivered += drive_fused(cfg.radio, stream, ops);
        }
        rec.exit(span, arrivals as u64);
        black_box(delivered);
    }
    median_or_zero(&rec.per_call_ns("phy", "envelope"))
}

// ---------------------------------------------------------------------
// mac: one RTS/CTS/DATA/ACK exchange
// ---------------------------------------------------------------------

/// Two stations on a clean channel: every frame a station starts reaches
/// the other intact at its end. Drives both state machines through their
/// timers until the sender reports `TxOk`.
struct Exchange {
    macs: [Dcf<u32>; 2],
    /// Armed timers per station, at most one per kind.
    timers: [[Option<SimTime>; MacTimer::KINDS]; 2],
    /// The frame in flight, its arrival time and the receiving station.
    in_flight: Option<(SimTime, usize, MacFrame<u32>)>,
    cmds: Vec<MacCommand<u32>>,
    now: SimTime,
}

const TIMER_KINDS: [MacTimer; MacTimer::KINDS] = [
    MacTimer::Recheck,
    MacTimer::Defer,
    MacTimer::SifsResponse,
    MacTimer::SifsData,
    MacTimer::CtsTimeout,
    MacTimer::AckTimeout,
    MacTimer::TxEnd,
];

impl Exchange {
    fn new(cfg: &MacConfig, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let mac =
            |i: u16| Dcf::new(NodeId::new(i), cfg.clone(), factory.stream("mac", u64::from(i)));
        Exchange {
            macs: [mac(0), mac(1)],
            timers: [[None; MacTimer::KINDS]; 2],
            in_flight: None,
            cmds: Vec::new(),
            now: SimTime::from_secs(1.0),
        }
    }

    /// Applies the commands station `who` just produced; returns whether
    /// it reported a completed transmission.
    fn apply(&mut self, who: usize) -> bool {
        let mut done = false;
        for cmd in self.cmds.drain(..) {
            match cmd {
                MacCommand::SetTimer { timer, at } => self.timers[who][timer.index()] = Some(at),
                MacCommand::CancelTimer { timer } => self.timers[who][timer.index()] = None,
                MacCommand::StartTx { frame, duration } => {
                    self.in_flight = Some((self.now + duration, 1 - who, frame));
                }
                MacCommand::TxOk { .. } => done = true,
                MacCommand::TxFailed { .. } | MacCommand::QueueDrop { .. } => {
                    unreachable!("a clean two-station channel never fails a frame")
                }
                MacCommand::Deliver { .. } | MacCommand::Snoop { .. } => {}
            }
        }
        done
    }

    /// Sends one 512-byte unicast packet from station 0 to station 1 and
    /// runs both stations until station 0 sees `TxOk`. Returns the number
    /// of MAC inputs it took.
    fn run_one(&mut self, payload: u32) -> u32 {
        self.macs[0].enqueue_into(
            payload,
            NodeId::new(1),
            512,
            Priority::Data,
            self.now,
            &mut self.cmds,
        );
        let mut done = self.apply(0);
        let mut inputs = 1;
        while !done {
            // Earliest pending input: a timer or the frame in flight. The
            // frame wins ties, as its arrival was scheduled first.
            let mut next: Option<(SimTime, usize, Option<MacTimer>)> =
                self.in_flight.as_ref().map(|(at, to, _)| (*at, *to, None));
            for who in 0..2 {
                for kind in TIMER_KINDS {
                    if let Some(at) = self.timers[who][kind.index()] {
                        if next.is_none_or(|(best, _, _)| at < best) {
                            next = Some((at, who, Some(kind)));
                        }
                    }
                }
            }
            let (at, who, timer) = next.expect("an exchange in progress always has a next input");
            self.now = at;
            match timer {
                Some(kind) => {
                    self.timers[who][kind.index()] = None;
                    self.macs[who].on_timer_into(kind, at, &mut self.cmds);
                }
                None => {
                    let (_, _, frame) = self.in_flight.take().expect("chosen above");
                    self.macs[who].on_receive_into(frame, at, &mut self.cmds);
                }
            }
            inputs += 1;
            done = self.apply(who) && who == 0;
        }
        // Let the post-transmission backoff and the receiver's timers run
        // out, so the next exchange starts from two idle stations.
        while let Some((at, who, kind)) = (0..2)
            .flat_map(|who| TIMER_KINDS.map(|k| (who, k)))
            .filter_map(|(who, k)| self.timers[who][k.index()].map(|at| (at, who, k)))
            .min_by_key(|(at, _, _)| *at)
        {
            self.now = at;
            self.timers[who][kind.index()] = None;
            self.macs[who].on_timer_into(kind, at, &mut self.cmds);
            inputs += 1;
            self.apply(who);
        }
        self.now += SimDuration::from_millis(1.0);
        inputs
    }
}

/// `Dcf::{enqueue_into, on_timer_into, on_receive_into}`: complete
/// RTS/CTS/DATA/ACK exchanges between two stations. Returns ns per
/// exchange (both stations' work) and the MAC inputs one exchange takes.
pub fn dcf_exchange(rec: &mut Recorder, cfg: &ScenarioConfig) -> (f64, f64) {
    let mut exchange = Exchange::new(&cfg.mac, cfg.seed);
    let mut inputs = 0u64;
    for b in 0..BATCHES {
        let span = rec.enter("mac", "dcf_exchange");
        for i in 0..BATCH {
            inputs += u64::from(exchange.run_one((b * BATCH + i) as u32));
        }
        rec.exit(span, BATCH as u64);
    }
    (
        median_or_zero(&rec.per_call_ns("mac", "dcf_exchange")),
        inputs as f64 / (BATCHES * BATCH) as f64,
    )
}

// ---------------------------------------------------------------------
// metrics: the recorder calls
// ---------------------------------------------------------------------

/// `Metrics::{record_mac_tx, record_delivery, record_cache_hit}` at the
/// scenario's own call mix (from its `Report`). Returns ns per call.
pub fn metrics_record(rec: &mut Recorder, report: &Report) -> f64 {
    let control = report.mac_control_tx.max(1);
    let payload = report.routing_tx + report.data_tx;
    let total = (control + payload + report.delivered + report.cache_hits) as f64;
    // Thresholds of a call's position in a 0..1 cycle.
    let t_control = control as f64 / total;
    let t_payload = t_control + payload as f64 / total;
    let t_delivery = t_payload + report.delivered as f64 / total;
    let routing_share = if payload == 0 { 0.0 } else { report.routing_tx as f64 / payload as f64 };
    let stale_share = report.invalid_cache_pct / 100.0;

    let mut m = Metrics::new();
    let mut uid = 0u64;
    // The golden-ratio sequence visits 0..1 evenly, so every batch sees the
    // mix in proportion without a random generator in the timed loop.
    let mut phase = 0.0f64;
    let mut sub = 0.0f64;
    const PHI: f64 = 0.618_033_988_749_894_9;
    for _ in 0..BATCHES {
        let span = rec.enter("metrics", "record");
        for _ in 0..BATCH {
            phase = (phase + PHI).fract();
            sub = (sub + PHI * PHI).fract();
            if phase < t_control {
                m.record_mac_tx(FrameKind::Rts, None);
            } else if phase < t_payload {
                m.record_mac_tx(FrameKind::Data, Some(sub < routing_share));
            } else if phase < t_delivery {
                uid += 1;
                let now = SimTime::from_nanos(uid * 1_000_000);
                m.record_delivery(uid, SimTime::from_nanos(uid * 999_000), 512, 3, now);
            } else {
                m.record_cache_hit(CacheHitKind::Origination, sub >= stale_share);
            }
        }
        rec.exit(span, BATCH as u64);
    }
    black_box(m.report("driver", 1.0));
    median_or_zero(&rec.per_call_ns("metrics", "record"))
}

// ---------------------------------------------------------------------
// dsr: replaying the traced cache-decision stream
// ---------------------------------------------------------------------

/// One `RouteCache` call recovered from a cache-decision row.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOp {
    Insert(Route),
    Find(NodeId),
    RemoveLink(Link),
    MarkUsed(Route),
}

/// A replayable row: which node's cache, when, and the call.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOp {
    /// Index of the row in the trace this came from.
    pub row: usize,
    pub node: usize,
    pub at: SimTime,
    pub op: CacheOp,
}

fn parse_node(s: &str) -> Option<NodeId> {
    s.parse::<u16>().ok().map(NodeId::new)
}

fn parse_route(s: &str) -> Option<Route> {
    Route::new(s.split('-').map(parse_node).collect::<Option<Vec<_>>>()?).ok()
}

fn parse_link(s: &str) -> Option<Link> {
    let (from, to) = s.split_once('>')?;
    Some(Link::new(parse_node(from)?, parse_node(to)?))
}

/// Maps trace rows onto the `RouteCache` calls the agent made. `insert`,
/// `lookup`, `refresh` and `remove` rows are calls; `expire`, `evict`,
/// `suppress` and `failover` rows are consequences the cache or agent
/// derived, and a `neg-veto` removal never reached the cache. A row that
/// does not parse is an error: the trace format changed under the driver.
pub fn replay_ops(rows: &[CacheRow]) -> Result<Vec<ReplayOp>, String> {
    let mut ops = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let bad = || format!("cache-decision row {i} does not parse: {row:?}");
        let op = match (row.op.as_str(), row.kind.as_str()) {
            ("insert", _) => CacheOp::Insert(parse_route(&row.route).ok_or_else(bad)?),
            ("lookup", _) => CacheOp::Find(parse_node(&row.dst).ok_or_else(bad)?),
            ("refresh", _) => CacheOp::MarkUsed(parse_route(&row.route).ok_or_else(bad)?),
            ("remove", "neg-veto") => continue,
            ("remove", _) => CacheOp::RemoveLink(parse_link(&row.route).ok_or_else(bad)?),
            ("expire" | "evict" | "suppress" | "failover", _) => continue,
            _ => return Err(bad()),
        };
        ops.push(ReplayOp {
            row: i,
            node: row.node as usize,
            at: SimTime::from_nanos(row.t_ns),
            op,
        });
    }
    Ok(ops)
}

/// Fresh per-node caches, built as `DsrNode` builds its own (a path cache
/// of the configured capacity). Timer expiry is the agent's doing, not a
/// row in the stream, so the replayed caches are never swept: exact for
/// the variants without an expiry policy, fuller than the real caches for
/// the others (README, "The cache replay").
pub fn fresh_caches(cfg: &ScenarioConfig) -> Vec<Box<dyn RouteCache>> {
    (0..cfg.num_nodes())
        .map(|i| {
            let mut cache = PathCache::new(NodeId::new(i as u16), cfg.dsr.cache_capacity);
            if let Some(mp) = cfg.dsr.multipath {
                cache.set_multipath(mp.k);
            }
            Box::new(cache) as Box<dyn RouteCache>
        })
        .collect()
}

/// What one replayed call returned.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheOutcome {
    Changed(bool),
    Found(Option<Route>),
    Contained(bool),
    Refreshed,
}

/// Makes the call on `cache`, through the trait.
pub fn apply_op(cache: &mut dyn RouteCache, op: &CacheOp, at: SimTime) -> CacheOutcome {
    match op {
        CacheOp::Insert(route) => CacheOutcome::Changed(cache.insert(route.clone(), at)),
        CacheOp::Find(dst) => CacheOutcome::Found(cache.find(*dst, at)),
        CacheOp::RemoveLink(link) => {
            CacheOutcome::Contained(cache.remove_link(*link, at).contained)
        }
        CacheOp::MarkUsed(route) => {
            cache.mark_used(route, at);
            CacheOutcome::Refreshed
        }
    }
}

/// What the cache replay measured.
#[derive(Debug, Default, PartialEq)]
pub struct ReplayResult {
    pub ops: u64,
    pub replay_ns_per_op: f64,
    pub insert_ns: f64,
    pub find_ns: f64,
    pub remove_link_ns: f64,
    pub mark_used_ns: f64,
    pub insert_changed_ratio: f64,
    pub find_hit_ratio: f64,
}

/// Cost of reading the clock twice, in ns: subtracted from per-call
/// timings, which bracket every call with two reads.
fn clock_pair_ns() -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..BATCH {
                black_box(Instant::now().elapsed());
            }
            started.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median_or_zero(&batches)
}

/// Replays the traced pass's cache-decision stream into fresh per-node
/// caches, twice: once in stream order with one span per [`BATCH`]
/// consecutive calls (the cost of the real mix), and once timing each call
/// on its own to split the cost by call kind (a kind's batch is its next
/// [`BATCH`] calls, wherever they fall in the stream).
pub fn cache_replay(
    rec: &mut Recorder,
    cfg: &ScenarioConfig,
    rows: &[CacheRow],
) -> Result<ReplayResult, String> {
    let ops = replay_ops(rows)?;
    if ops.is_empty() {
        return Ok(ReplayResult::default());
    }

    let mut caches = fresh_caches(cfg);
    for chunk in ops.chunks(BATCH) {
        let span = rec.enter("dsr", "cache_replay");
        for op in chunk {
            black_box(apply_op(caches[op.node].as_mut(), &op.op, op.at));
        }
        rec.exit(span, chunk.len() as u64);
    }
    let replay_ns_per_op = median_or_zero(&rec.per_call_ns("dsr", "cache_replay"));

    let clock_ns = clock_pair_ns();
    let mut caches = fresh_caches(cfg);
    // Per kind: ns and calls in the open batch, then closed batches.
    let mut open = [(0u64, 0usize); 4];
    let mut closed: [Vec<f64>; 4] = Default::default();
    let (mut inserts, mut changed, mut finds, mut hits) = (0u64, 0u64, 0u64, 0u64);
    for op in &ops {
        let started = Instant::now();
        let outcome = apply_op(caches[op.node].as_mut(), &op.op, op.at);
        let ns = started.elapsed().as_nanos() as u64;
        let kind = match outcome {
            CacheOutcome::Changed(c) => {
                inserts += 1;
                changed += u64::from(c);
                0
            }
            CacheOutcome::Found(ref route) => {
                finds += 1;
                hits += u64::from(route.is_some());
                1
            }
            CacheOutcome::Contained(_) => 2,
            CacheOutcome::Refreshed => 3,
        };
        open[kind].0 += ns;
        open[kind].1 += 1;
        if open[kind].1 == BATCH {
            closed[kind].push((open[kind].0 as f64 / BATCH as f64 - clock_ns).max(0.0));
            open[kind] = (0, 0);
        }
    }
    // A kind rarer than one batch in the whole stream still gets a figure.
    for kind in 0..4 {
        if closed[kind].is_empty() && open[kind].1 > 0 {
            closed[kind].push((open[kind].0 as f64 / open[kind].1 as f64 - clock_ns).max(0.0));
        }
    }
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    Ok(ReplayResult {
        ops: ops.len() as u64,
        replay_ns_per_op,
        insert_ns: median_or_zero(&closed[0]),
        find_ns: median_or_zero(&closed[1]),
        remove_link_ns: median_or_zero(&closed[2]),
        mark_used_ns: median_or_zero(&closed[3]),
        insert_changed_ratio: ratio(changed, inserts),
        find_hit_ratio: ratio(hits, finds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{self, Observers};
    use crate::workloads::{Agent, Scenario, Variant};
    use dsr::CacheEvent;

    fn tiny_traced() -> (ScenarioConfig, Vec<CacheRow>) {
        // `ScenarioConfig::tiny`'s network under the benchmark's own
        // construction path: 20 nodes, 5 flows, 30 s, base DSR (no expiry
        // policy, so the stream determines the cache state completely) —
        // with caches small enough that capacity evictions happen too.
        let mut cfg = ScenarioConfig::tiny(0.0, 3.0, dsr::DsrConfig::base(), 7);
        cfg.dsr.cache_capacity = 6;
        let rows = drive::run_dsr(cfg.clone(), Observers::On, &crate::calib::Probe::shared())
            .observed
            .expect("observed run")
            .cache_rows;
        (cfg, rows)
    }

    #[test]
    fn replay_reproduces_the_traced_run_row_for_row() {
        let (cfg, rows) = tiny_traced();
        let ops = replay_ops(&rows).expect("rows parse");
        assert!(ops.len() > 500, "the tiny run exercises its caches ({} ops)", ops.len());
        let mut caches = fresh_caches(&cfg);
        for cache in &mut caches {
            cache.set_event_log(true);
        }
        let (mut lookups, mut hits, mut evictions) = (0, 0, 0);
        let mut events = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            let outcome = apply_op(caches[op.node].as_mut(), &op.op, op.at);
            let row = &rows[op.row];
            if let CacheOutcome::Found(found) = &outcome {
                let rendered = found.as_ref().map_or("-".to_string(), |r| {
                    r.nodes().iter().map(|n| n.index().to_string()).collect::<Vec<_>>().join("-")
                });
                assert_eq!(rendered, row.route, "lookup row {} ({row:?})", op.row);
                assert_eq!(found.is_some(), row.valid.is_some(), "hit/miss of row {}", op.row);
                lookups += 1;
                hits += usize::from(found.is_some());
            }
            // Rows between this call and the next are its consequences:
            // the evictions the real cache logged must be the replay's.
            let next_row = ops.get(k + 1).map_or(rows.len(), |n| n.row);
            let traced: Vec<&str> = rows[op.row + 1..next_row]
                .iter()
                .filter(|r| r.op == "evict" && r.node as usize == op.node)
                .map(|r| r.route.as_str())
                .collect();
            events.clear();
            caches[op.node].drain_events(&mut events);
            let replayed: Vec<String> = events
                .iter()
                .map(|e| match e {
                    CacheEvent::Evicted { route } | CacheEvent::Expired { route } => route
                        .nodes()
                        .iter()
                        .map(|n| n.index().to_string())
                        .collect::<Vec<_>>()
                        .join("-"),
                })
                .collect();
            assert_eq!(replayed, traced, "evictions after row {}", op.row);
            evictions += traced.len();
        }
        assert!(lookups > 50 && hits > 0 && hits < lookups, "{hits}/{lookups} lookups hit");
        assert!(evictions > 0, "the small caches evicted");
        eprintln!("{} ops, {hits}/{lookups} lookups hit, {evictions} evictions", ops.len());
    }

    #[test]
    fn rows_that_are_not_calls_are_skipped_and_garbage_is_refused() {
        let row = |op: &str, kind: &str, dst: &str, route: &str| CacheRow {
            t_ns: 5,
            node: 2,
            op: op.to_string(),
            kind: kind.to_string(),
            dst: dst.to_string(),
            route: route.to_string(),
            valid: None,
            stale_ns: None,
        };
        let rows = vec![
            row("insert", "reply", "-", "2-3-4"),
            row("evict", "-", "-", "2-9"),
            row("lookup", "origination", "4", "2-3-4"),
            row("remove", "neg-veto", "-", "3>4"),
            row("remove", "mac", "-", "3>4"),
            row("refresh", "-", "-", "2-3"),
            row("expire", "-", "-", "2-3"),
        ];
        let ops = replay_ops(&rows).unwrap();
        let kinds: Vec<usize> = ops.iter().map(|o| o.row).collect();
        assert_eq!(kinds, vec![0, 2, 4, 5]);
        assert_eq!(ops[2].op, CacheOp::RemoveLink(Link::new(NodeId::new(3), NodeId::new(4))));
        assert_eq!(ops[1].op, CacheOp::Find(NodeId::new(4)));
        assert!(replay_ops(&[row("insert", "reply", "-", "2-x-4")]).is_err());
        assert!(replay_ops(&[row("defragment", "-", "-", "-")]).is_err());
    }

    #[test]
    fn drivers_report_positive_costs_on_a_small_scenario() {
        let sc = Scenario {
            label: "t".into(),
            agent: Agent::Dsr(Variant::Base),
            pause_s: Some(0.0),
            rate_pps: 3.0,
            sim_s: 20.0,
            seed: 3,
            observed_faulted: false,
        };
        let cfg = sc.config();
        let mut rec = Recorder::new();
        let m = mobility(&mut rec, &cfg);
        assert_eq!(m.snapshots.len(), SNAPSHOTS);
        assert!(m.snapshot_ns > 0.0 && m.grid_rebuild_ns > 0.0 && m.candidates_ns_per_query > 0.0);
        assert!(m.candidates_per_query >= 1.0 && m.candidates_per_query <= 100.0);
        let p = plan(&mut rec, &cfg, &m.snapshots);
        assert!(p.plan_ns_per_tx > 0.0 && p.arrivals_per_tx > 1.0);
        assert!(p.arrival_yield > 0.0 && p.arrival_yield <= 1.0);
        assert!(envelope(&mut rec, &cfg, &m.snapshots) > 0.0);
        let (ns, inputs) = dcf_exchange(&mut rec, &cfg);
        // enqueue, Defer, TxEnd, RTS in, SifsResponse, TxEnd, CTS in, ...
        assert!(ns > 0.0 && inputs >= 10.0, "{inputs} inputs per exchange");
        let before = rec.len();
        let profile =
            Profile { dispatched: 1000, cancelled: 150, scheduled: 1150, ..Profile::default() };
        assert!(queue(&mut rec, &profile, &cfg, &mut Lcg::new(1)) > 0.0);
        assert_eq!(rec.len(), before + BATCHES);
    }
}
