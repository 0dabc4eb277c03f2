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
//! `paused_then_moving` and the fault-window scenario were recorded later,
//! at the last commit that planned every frame's arrivals afresh, before
//! link plans (DESIGN §9) existed. The tape also counts the link plans
//! built and the grid rebuilds of a run; those are not part of a digest.
//! Nor are the profiler's clock reads it counts; the time series of the
//! profiled scenario was pinned at the last commit that timed every
//! dispatch.
//!
//! Re-pin a digest only in a change that means to alter simulated
//! behaviour, and say so in that change.

use std::cell::RefCell;

use dsr::DsrConfig;
use mobility::Point;
use sim_core::hash::{fnv1a, FNV_OFFSET};

use super::plans::same_bits;
use super::*;
use crate::audit::AuditSummary;
use crate::config::{FaultPlan, Zone};
use crate::observers::TIMING_STRIDE;
use crate::trace::TraceKind;

/// One dispatch as the run loop saw it.
pub(super) type Dispatch = (SimTime, u64, usize, u16);

/// What one taped run left behind.
#[derive(Debug, Default)]
pub(super) struct Tape {
    /// Rolling FNV-1a of every dispatch, then of the totals.
    pub digest: u64,
    pub dispatches: u64,
    /// Link plans built, and neighbor-grid rebuilds (the one at
    /// construction included).
    pub plans_built: u64,
    pub grid_rebuilds: u64,
    /// The profiler's clock reads, by the kind of the dispatch timed.
    pub clock_reads: [u64; EV_KIND_NAMES.len()],
    /// The audit's tallies at close, and FNV-1a digests of the uids it was
    /// told are still in flight and of those the receivers held.
    pub audit: Option<(AuditSummary, u64, u64)>,
    /// The dispatches themselves, when asked for.
    pub log: Option<Vec<Dispatch>>,
}

thread_local! {
    /// The tape of the run in progress on this test thread, if any.
    static TAPE: RefCell<Option<Tape>> = const { RefCell::new(None) };
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
            tape.digest = fnv1a(tape.digest, &word.to_le_bytes());
        }
        tape.dispatches += 1;
        if let Some(log) = &mut tape.log {
            log.push((at, seq, kind, node));
        }
    });
}

/// The run loop is done: the queue's pops (the dispatches plus the cutoff
/// event, if one overran the horizon, as the tapes were pinned), and what
/// the profile will call scheduled and postponed.
pub(super) fn note_totals(popped: u64, scheduled: u64, postponed: u64) {
    with_tape(|tape| {
        for word in [popped, scheduled, postponed] {
            tape.digest = fnv1a(tape.digest, &word.to_le_bytes());
        }
    });
}

/// The audit closed its ledger over `in_flight`, of which the receivers
/// held `held`.
pub(super) fn note_audit(
    summary: AuditSummary,
    in_flight: &U64HashSet<u64>,
    held: U64HashSet<u64>,
) {
    with_tape(|tape| tape.audit = Some((summary, uid_digest(in_flight), uid_digest(&held))));
}

/// FNV-1a of a uid set, in ascending order.
fn uid_digest(uids: &U64HashSet<u64>) -> u64 {
    let mut uids: Vec<u64> = uids.iter().copied().collect();
    uids.sort_unstable();
    uids.iter().fold(FNV_OFFSET, |h, uid| fnv1a(h, &uid.to_le_bytes()))
}

/// The profiler read the clock around a dispatch of kind `kind`.
pub(crate) fn note_clock_read(kind: usize) {
    with_tape(|tape| tape.clock_reads[kind] += 1);
}

/// A transmitter had no link plan in the current epoch and built one.
pub(super) fn note_plan_built() {
    with_tape(|tape| tape.plans_built += 1);
}

/// The driver's snapshot changed (or was first taken): grid rebuilt.
pub(super) fn note_grid_rebuilt() {
    with_tape(|tape| tape.grid_rebuilds += 1);
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

fn n(node: u16) -> NodeId {
    NodeId::new(node)
}

fn scenarios() -> Vec<(&'static str, ScenarioConfig, u64)> {
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
        ("paused_then_moving", paused_then_moving(), 0x72e4_f963_bdff_5cc3),
    ]
}

/// Everybody pauses for the first 10 s, then leaves at a speed of its own:
/// the snapshot does not change, then changes at every refresh, with the
/// odd node pausing again at its first waypoint. (`static_base_8pps` is the
/// paper's "pause = run length"; tiny runs last 30 s.)
fn paused_then_moving() -> ScenarioConfig {
    ScenarioConfig::tiny(10.0, 4.0, DsrConfig::combined(), 4)
}

/// Runs `cfg` taped and traced: the report, the tape and `(at, node)` of
/// every frame put on the air, in order.
fn transmissions(cfg: ScenarioConfig) -> (Report, Tape, Vec<(SimTime, u16)>) {
    let txs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&txs);
    let (report, tape) = taped(false, || {
        let mut sim = Simulator::new(cfg);
        sim.set_trace(Box::new(move |ev| {
            if let TraceKind::MacSend { .. } = ev.kind {
                sink.lock().expect("no panic under the lock").push((ev.at, ev.node.index() as u16));
            }
        }));
        sim.run()
    });
    let txs = std::mem::take(&mut *txs.lock().expect("the run is over"));
    (report, tape, txs)
}

/// What the snapshot rule makes of a run's transmissions, modelled apart
/// from the driver: the snapshot is re-taken by the first transmission
/// after time zero and then by each first one `position_refresh` or more
/// after the last; an epoch ends when the new snapshot differs by a bit;
/// a node plans once per epoch it transmits in.
struct Epochs {
    /// The instants the snapshot was re-taken at.
    refreshes: Vec<SimTime>,
    /// Of those, how many changed it.
    changed: u64,
    plans: u64,
}

/// The itinerary `Simulator::with_agents` generates for `cfg`.
fn itinerary(cfg: &ScenarioConfig) -> RandomWaypoint {
    let MobilitySpec::Waypoint(waypoint) = &cfg.mobility else { panic!("a waypoint scenario") };
    RandomWaypoint::generate(waypoint, RngFactory::new(cfg.seed))
}

fn epochs(cfg: &ScenarioConfig, txs: &[(SimTime, u16)]) -> Epochs {
    let model = itinerary(cfg);
    let mut out = Epochs { refreshes: Vec::new(), changed: 0, plans: 0 };
    let (mut held, mut held_at) = (model.snapshot(SimTime::ZERO), SimTime::ZERO);
    let mut planned = vec![false; cfg.num_nodes()];
    for &(at, node) in txs {
        if at - held_at >= cfg.position_refresh || held_at == SimTime::ZERO && at > held_at {
            held_at = at;
            out.refreshes.push(at);
            let next = model.snapshot(at);
            if !same_bits(&held, &next) {
                held = next;
                out.changed += 1;
                planned.fill(false);
            }
        }
        out.plans += u64::from(!std::mem::replace(&mut planned[usize::from(node)], true));
    }
    out
}

/// The premise of link plans, and their effect: a network that does not
/// move keeps one epoch for the whole run and plans once per node that
/// ever transmits; one that moves part of the time rebuilds the grid only
/// for the snapshots that changed.
#[test]
fn plans_and_the_grid_are_rebuilt_only_when_a_node_moved() {
    let cfg = ScenarioConfig::tiny(30.0, 8.0, DsrConfig::base(), 2);
    let (_, tape, txs) = transmissions(cfg.clone());
    let model = epochs(&cfg, &txs);
    assert!(model.refreshes.len() > 400 && model.changed == 0, "{}", model.refreshes.len());
    let mut transmitters: Vec<u16> = txs.iter().map(|&(_, node)| node).collect();
    transmitters.sort_unstable();
    transmitters.dedup();
    assert!(transmitters.len() > 10 && txs.len() > 10_000);
    assert_eq!(tape.plans_built, transmitters.len() as u64, "one plan per transmitter");
    assert_eq!(tape.grid_rebuilds, 1, "the one at construction");

    let cfg = paused_then_moving();
    let (_, tape, txs) = transmissions(cfg.clone());
    let model = epochs(&cfg, &txs);
    let refreshes = model.refreshes.len() as u64;
    assert!(
        model.changed > 100 && refreshes > model.changed + 50,
        "{} of {refreshes}",
        model.changed
    );
    assert_eq!(tape.grid_rebuilds, 1 + model.changed);
    assert_eq!(tape.plans_built, model.plans);
    assert!(model.plans < txs.len() as u64 / 2, "{} plans, {} frames", model.plans, txs.len());
}

/// A `node_down`, a `region_blackout` and a `frame_corruption` window that
/// each open and close inside one refresh interval, around a transmission
/// of a node that also transmits earlier and later in that interval: what
/// a fault silences is decided per frame, whatever the age of the
/// positions the frame is planned over.
#[test]
fn fault_windows_shorter_than_a_refresh_interval_gate_the_frames_inside_them() {
    let clean = ScenarioConfig::tiny(0.0, 8.0, DsrConfig::base(), 7);
    let (_, _, txs) = transmissions(clean.clone());
    let refreshes = epochs(&clean, &txs).refreshes;
    let model = itinerary(&clean);

    // A node with a burst of frames strictly inside one interval in the
    // middle of the run, and the two bystanders nearest to it — nodes that
    // sense it and send nothing in that interval, so that silencing them
    // leaves the burst going: one to take down, one to black out alone.
    let (x, t, victim, zone) = refreshes
        .windows(2)
        .filter(|w| w[0] > secs(12.0))
        .find_map(|w| {
            let sent: Vec<(SimTime, u16)> =
                txs.iter().copied().filter(|&(at, _)| w[0] < at && at < w[1]).collect();
            let frames_of = |node: u16| sent.iter().filter(move |d| d.1 == node).map(|d| d.0);
            let x = (0..clean.num_nodes() as u16).max_by_key(|&node| frames_of(node).count())?;
            let mine: Vec<SimTime> = frames_of(x).collect();
            if mine.len() < 9 {
                return None;
            }
            let t = [mine[0], mine[mine.len() / 3], mine[2 * mine.len() / 3]];
            let at = model.snapshot(w[0]);
            let by_distance = |from: usize, silent: bool| {
                let mut nodes: Vec<usize> = (0..at.len())
                    .filter(|&i| i != from && (frames_of(i as u16).count() == 0) == silent)
                    .collect();
                nodes.sort_by(|&a, &b| {
                    at[from].distance(at[a]).total_cmp(&at[from].distance(at[b]))
                });
                nodes
            };
            let bystanders = by_distance(usize::from(x), true);
            let (&victim, &dark) = (bystanders.first()?, bystanders.get(1)?);
            let nearest_sender = *by_distance(dark, false).first()?;
            let radius_m =
                at[dark].distance(at[nearest_sender]).min(at[dark].distance(at[victim])) / 2.0;
            let senses_x = |i: usize| at[usize::from(x)].distance(at[i]) < 500.0;
            (senses_x(victim) && senses_x(dark)).then_some((
                x,
                t,
                victim,
                Zone::Disc { center: at[dark], radius_m },
            ))
        })
        .expect("a burst to aim at");
    let part =
        |a: SimTime, b: SimTime, k: u64| a + SimDuration::from_nanos((b - a).as_nanos() * k / 4);
    let windows = [1, 2, 3].map(|k| (part(t[0], t[1], k), part(t[1], t[2], k)));
    let [down, dark, noisy] = windows;
    let mut cfg = clean;
    cfg.faults = FaultPlan::none()
        .node_down(n(victim as u16), down.0, down.1 - down.0)
        .region_blackout(zone, dark.0, dark.1 - dark.0)
        .frame_corruption(0.5, noisy.0, noisy.1);

    let (report, tape, txs) = transmissions(cfg.clone());
    assert_eq!(report.faults_injected, 3);
    assert!(report.arrivals_suppressed > 0 && report.frames_corrupted > 0, "{report:?}");
    // In the run as it went with the faults in: the node planned before
    // the first window opened, sent inside every window, and sent again
    // after the last one closed — all in one refresh interval.
    let refreshes = epochs(&cfg, &txs).refreshes;
    let k = refreshes.partition_point(|&r| r <= down.0);
    let (from, to) = (refreshes[k - 1], refreshes[k]);
    let sends_in =
        |a: SimTime, b: SimTime| txs.iter().any(|&(at, node)| node == x && a < at && at < b);
    assert!(noisy.1 < to, "the interval outlasts the windows");
    assert!(txs.iter().any(|&(at, node)| node == x && from <= at && at < down.0));
    for (open, close) in windows {
        assert!(sends_in(open, close), "{open}..{close}");
    }
    assert!(sends_in(noisy.1, to), "and again with every window closed");
    assert_eq!(tape.digest, 0x44c6_ee6a_a0c1_7ad6, "{} dispatches", tape.dispatches);
}

/// The event-loop profiler watches without touching: a profiled run makes
/// the obs-off run's dispatches in its order, reports what it reports, and
/// counts every dispatch of every kind — the rare kinds of a fault plan
/// among them — while it reads the clock around only the first dispatch
/// of each kind and every `TIMING_STRIDE`-th after it.
#[test]
fn the_profiler_counts_every_dispatch_times_one_in_a_stride_and_moves_none() {
    let mut cfg = ScenarioConfig::tiny(0.0, 4.0, DsrConfig::combined(), 9);
    let churn = FaultPlan::none().node_churn(n(3), secs(5.0), dur(2.0));
    cfg.faults = churn.frame_corruption(0.1, secs(8.0), secs(12.0));
    let (plain, off) = taped(true, || Simulator::new(cfg.clone()).run());
    let ((report, seen), on) = taped(false, || Simulator::new(cfg).run_sampled(dur(1.0)));
    assert_eq!(report, plain, "obs on vs off");
    assert_eq!(on.digest, off.digest, "the same dispatches in the same order");

    let mut counts = [0u64; EV_KIND_NAMES.len()];
    for &(_, _, kind, _) in off.log.as_deref().expect("logged") {
        counts[kind] += 1;
    }
    assert!((1..64).contains(&counts[4]), "a rare kind: {} fault starts", counts[4]);
    let expected: Vec<(&str, u64)> =
        EV_KIND_NAMES.iter().copied().zip(counts).filter(|&(_, c)| c > 0).collect();
    let profiled: Vec<(&str, u64)> =
        seen.profile.kinds.iter().map(|t| (t.name.as_str(), t.count)).collect();
    assert_eq!(profiled, expected);
    assert_eq!(off.clock_reads, [0; EV_KIND_NAMES.len()], "obs off reads no clock");
    for (kind, count) in counts.into_iter().enumerate() {
        let reads = on.clock_reads[kind];
        assert_eq!(reads, 2 * count.div_ceil(TIMING_STRIDE), "{}", EV_KIND_NAMES[kind]);
        assert_eq!(count > 0, reads > 0, "{} dispatched {count} times", EV_KIND_NAMES[kind]);
    }
    let reads: u64 = on.clock_reads.iter().sum();
    assert!(reads * 16 < on.dispatches, "{reads} reads for {} dispatches", on.dispatches);
    let rendered = seen.timeseries.render();
    let rows = seen.timeseries.rows.len();
    // The pins below were recorded when a row sampled inside the loop
    // counted the event about to run as well: `events` one higher on every
    // row but those the close flushes (which read the final count).
    let dispatched = seen.profile.dispatched;
    let as_pinned: String = rendered
        .lines()
        .map(|line| {
            if !line.starts_with(|c: char| c.is_ascii_digit()) {
                return line.to_string() + "\n";
            }
            let mut cells: Vec<String> = line.split(' ').map(str::to_string).collect();
            let events: u64 = cells[8].parse().expect("events");
            if events < dispatched {
                cells[8] = (events + 1).to_string();
            }
            cells.join(" ") + "\n"
        })
        .collect();
    // The columns through `events`, written as `dsr-timeseries v1` wrote
    // them: pinned before `originated` and `delivered` were added, and
    // re-pinned since only where the `fingerprint =` line moved.
    let v1: String = as_pinned
        .lines()
        .map(|line| match line {
            "format = dsr-timeseries v2" => "format = dsr-timeseries v1".to_string(),
            l if l.starts_with("columns = ") => l.replace(" originated delivered", ""),
            l if l.starts_with(|c: char| c.is_ascii_digit()) => {
                l.split(' ').take(9).collect::<Vec<_>>().join(" ")
            }
            l => l.to_string(),
        })
        .map(|line| line + "\n")
        .collect();
    assert_eq!(fnv1a(FNV_OFFSET, v1.as_bytes()), 0x29e3_77f0_9dd2_0c65, "v1 columns, {rows} rows");
    let series = fnv1a(FNV_OFFSET, as_pinned.as_bytes());
    assert_eq!(series, 0x3887_0102_aa0e_c2ef, "time series of {rows} rows");
    let series = fnv1a(FNV_OFFSET, rendered.as_bytes());
    assert_eq!(series, 0xb294_4613_4e89_1e0b, "time series of {rows} rows, as written");
}

/// The profile counts what ran: the queue also pops the event that
/// overruns the horizon, but `dispatched` is the tape's dispatches and the
/// sum of the kinds' counts, and that event joins the scheduled events
/// that never ran.
#[test]
fn the_profile_counts_only_the_dispatches_that_ran() {
    let cfg = ScenarioConfig::tiny(0.0, 4.0, DsrConfig::combined(), 9);
    let ((_, seen), tape) = taped(false, || Simulator::new(cfg).run_sampled(dur(1.0)));
    let p = &seen.profile;
    let by_kind: u64 = p.kinds.iter().map(|t| t.count).sum();
    assert_eq!((p.dispatched, by_kind), (tape.dispatches, tape.dispatches));
    assert_eq!(p.events + p.cancelled, p.scheduled);
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
        if tape.digest != expected {
            mismatches.push(format!(
                "{name}: digest {:#018x} over {} dispatches, pinned {expected:#018x}",
                tape.digest, tape.dispatches
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The audit's ledger at close, pinned: its tallies, the digest of the uid
/// set it was told is still in flight (agent and MAC buffers, undispatched
/// events, the frames the receivers still hold) and the digest of the
/// receivers' share of it. One scenario per fault kind, DSR and AODV.
/// Recorded while each receiver held a shared handle to the frame.
#[test]
fn audit_ledgers_at_close_match_the_pinned_digests() {
    use aodv::{AodvConfig, AodvNode};
    let tiny = |faults: FaultPlan, seed: u64| ScenarioConfig {
        faults,
        ..ScenarioConfig::tiny(0.0, 4.0, DsrConfig::combined(), seed)
    };
    let zone = Zone::Disc { center: Point::new(500.0, 150.0), radius_m: 200.0 };
    let none = FaultPlan::none;
    let churn = none().node_churn(n(6), secs(6.0), dur(4.0));
    let down = none().node_down(n(3), secs(5.0), dur(8.0));
    let blackout = none().region_blackout(zone, secs(9.0), dur(6.0));
    let duty = none().radio_duty_cycle(n(12), secs(4.0), dur(2.0), dur(1.0), secs(25.0));
    let corruption = none().frame_corruption(0.2, secs(2.0), secs(28.0));
    // Tallies (originated, delivered, dropped, in flight at end), then the
    // two digests; `EMPTY` is the digest of no uid at all.
    type Pin = ([u64; 4], u64, u64);
    const EMPTY: u64 = FNV_OFFSET;
    let scenarios: Vec<(&str, ScenarioConfig, Pin)> = vec![
        (
            "dsr_combined",
            tiny(none(), 1),
            ([572, 569, 2, 1], 0xe086_7df3_d4de_80c3, 0xe086_7df3_d4de_80c3),
        ),
        ("aodv", tiny(none(), 4), ([589, 587, 2, 0], EMPTY, EMPTY)),
        ("node_churn", tiny(churn, 6), ([573, 569, 3, 1], 0xb5e8_0f45_a337_fe9e, EMPTY)),
        ("node_down", tiny(down, 7), ([573, 562, 11, 0], EMPTY, EMPTY)),
        ("region_blackout", tiny(blackout, 8), ([565, 528, 37, 0], EMPTY, EMPTY)),
        ("radio_duty_cycle", tiny(duty, 9), ([569, 524, 40, 0], EMPTY, EMPTY)),
        (
            "frame_corruption",
            tiny(corruption, 10),
            ([576, 410, 89, 46], 0x0389_4843_9e75_1711, EMPTY),
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, cfg, pinned) in scenarios {
        let (report, tape) = taped(false, || {
            if name == "aodv" {
                let aodv = AodvConfig::default();
                let mut sim = Simulator::with_agents(cfg, aodv.label(), |node, rng| {
                    AodvNode::new(node, aodv.clone(), rng)
                });
                sim.set_audit(AuditLevel::Full);
                sim.run()
            } else {
                let mut sim = Simulator::new(cfg);
                sim.set_audit(AuditLevel::Full);
                sim.run()
            }
        });
        assert!(report.originated > 0, "{name}: an idle run pins nothing");
        let (s, in_flight, held) = tape.audit.expect("an audited run closes its ledger");
        let found = ([s.originated, s.delivered, s.dropped, s.in_flight_at_end], in_flight, held);
        if found != pinned {
            mismatches.push(format!("{name}: {found:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A frame on the air that no buffer holds any more (here its sender's MAC
/// never had it) is in flight only at its receivers: the ledger's close
/// finds its uid through the tx id they hold. The runs above cannot show
/// this: at their horizon every frame a receiver holds is still in its
/// sender's MAC.
#[test]
fn a_frame_only_its_receivers_hold_is_in_flight_at_close() {
    use mac::{FrameKind, MacFrame};
    use packet::dsr::{DataPacket, Packet};
    use packet::Route;
    let mut sim = Simulator::new(ScenarioConfig::tiny(30.0, 4.0, DsrConfig::base(), 3));
    sim.set_audit(AuditLevel::Full);
    let route = Route::new(vec![n(0), n(1)]).expect("two distinct nodes");
    let data = DataPacket {
        uid: 7,
        src: n(0),
        dst: n(1),
        payload_bytes: 512,
        sent_at: SimTime::ZERO,
        route,
        hop: 0,
        salvage_count: 0,
    };
    let frame = MacFrame {
        kind: FrameKind::Data,
        src: n(0),
        dst: n(1),
        bytes: 600,
        nav: SimDuration::ZERO,
        seq: 0,
        payload: Some(Packet::Data(data)),
    };
    sim.apply_mac(0, &mut vec![MacCommand::StartTx { frame, duration: dur(0.002) }], None);
    let held = sim.rx_states.iter().filter(|s| s.payloads().next().is_some()).count();
    assert!(held > 1, "node 0 reaches {held} receivers");
    let (violation, tape) = taped(false, || sim.close_audit(None));
    assert_eq!(violation, None);
    let (_, in_flight, held) = tape.audit.expect("the ledger closed");
    let only_seven = uid_digest(&[7].into_iter().collect());
    assert_eq!((in_flight, held), (only_seven, only_seven));
}

/// A receiver about 400 m from a steady transmitter senses every frame
/// (inside carrier-sense range) and decodes none (outside reception
/// range), and its MAC, never reactive, gets no input. The walk that plans
/// each frame settles it at the frontier first, so it holds only what is
/// still ahead of it; a receiver folded only at its next MAC input would
/// hold every frame it ever sensed.
#[test]
fn a_receiver_that_only_senses_holds_only_what_is_still_ahead() {
    use mac::{FrameKind, MacFrame};
    let mut cfg = ScenarioConfig::tiny(0.0, 4.0, DsrConfig::base(), 5);
    cfg.mobility = MobilitySpec::Static(vec![Point::new(0.0, 0.0), Point::new(400.0, 0.0)]);
    cfg.traffic.num_flows = 0;
    let mut sim = Simulator::new(cfg);
    let frame = MacFrame {
        kind: FrameKind::Data,
        src: n(0),
        dst: NodeId::BROADCAST,
        bytes: 600,
        nav: SimDuration::ZERO,
        seq: 0,
        payload: None,
    };
    let mut most = 0;
    for k in 0..400 {
        sim.now = secs(0.005 * f64::from(k));
        sim.cur_seq = sim.queue.reserve_seq();
        let cmd = MacCommand::StartTx { frame: frame.clone(), duration: dur(0.002) };
        sim.apply_mac(0, &mut vec![cmd], None);
        most = most.max(sim.rx_states[1].pending_len());
    }
    assert!(sim.arrivals_planned >= 400, "node 1 senses every frame");
    assert_eq!(sim.boundary_scheduled, 0, "and decodes none");
    assert!(most <= 2, "node 1 held {most} sensed arrivals at once");
}
