//! Re-armed MAC timers across fault windows. A re-arm to a later instant
//! moves the queued event in place (`rearm`), so the key that surfaces
//! first may be a stale one: suspension on `node_down` and cancellation on
//! churn revival have to act on the moved event, exactly as they did when
//! every re-arm was a cancel and a fresh schedule.

use dsr::DsrConfig;

use super::*;
use crate::config::FaultPlan;

/// The node under fault, in the middle of a three-node line.
const NODE: u16 = 1;

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

/// `NODE`'s MAC timer events as they reached `dispatch`: when, which, and
/// whether the node was up (down: the event was suspended, not fired).
type Seen = Vec<(SimTime, MacTimer, bool)>;

/// An idle static line whose fault plan is queued as `try_run` queues it.
/// Nothing else is: no traffic, no agent boot, so the queue holds only
/// what the test arms.
fn idle_line(faults: FaultPlan) -> Simulator {
    let mut cfg = ScenarioConfig::static_line(3, 200.0, 1.0, DsrConfig::base(), 1);
    cfg.faults = faults;
    let mut sim = Simulator::new(cfg);
    for (idx, fault) in sim.cfg.faults.events.iter().enumerate() {
        sim.queue.schedule(fault.starts_at(), Ev::FaultStart { idx });
    }
    sim
}

/// What the MAC's `SetTimer` command does. (`Recheck` is inert when it
/// fires on an idle MAC, so firing it needs no MAC state set up.)
fn arm(sim: &mut Simulator, timer: MacTimer, at: SimTime) {
    sim.apply_mac(NODE, &mut vec![MacCommand::SetTimer { timer, at }], None);
}

/// Dispatches the next event as the run loop does; `false` once none is
/// due within the first millisecond.
fn dispatch_next(sim: &mut Simulator, seen: &mut Seen) -> bool {
    let Some((at, seq, ev)) = sim.queue.pop_with_seq().filter(|&(at, ..)| at <= us(1_000)) else {
        return false;
    };
    if let Ev::MacTimer { node: NODE, timer } = ev {
        seen.push((at, timer, !sim.faults.is_down(NODE as usize)));
    }
    (sim.now, sim.cur_seq) = (at, seq);
    sim.dispatch(ev);
    true
}

fn run_out(sim: &mut Simulator, seen: &mut Seen) {
    while dispatch_next(sim, seen) {}
}

/// Every outage here: from 20 µs to 120 µs.
const DOWN_FOR: SimDuration = SimDuration::from_nanos(100_000);

#[test]
fn postponed_recheck_suspended_by_node_down_fires_once_on_wake_up() {
    let faults = FaultPlan::none().node_down(NodeId::new(NODE), us(20), DOWN_FOR);
    let mut sim = idle_line(faults);
    arm(&mut sim, MacTimer::Recheck, us(10));
    arm(&mut sim, MacTimer::Recheck, us(30));
    assert_eq!(sim.queue.postponed(), 1, "the later re-arm moved the queued event");
    assert_eq!(sim.queue.scheduled(), 2, "the fault and one timer key, not two");

    let mut seen = Seen::new();
    run_out(&mut sim, &mut seen);
    // The stale 10 µs key was re-filed without a dispatch. At the moved
    // key the node was down, so the timer was suspended to the wake-up
    // instant, and fired there, after the wake-up itself.
    assert_eq!(seen, [(us(30), MacTimer::Recheck, false), (us(120), MacTimer::Recheck, true)]);
    assert_eq!(sim.queue.rekeyed(), 1);
    assert_eq!(sim.mac_timers[NODE as usize], [None; MacTimer::KINDS]);
    assert!(sim.queue.is_empty());
}

#[test]
fn revival_after_churn_cancels_postponed_timers() {
    let faults = FaultPlan::none().node_churn(NodeId::new(NODE), us(20), DOWN_FOR);
    let mut sim = idle_line(faults);
    // Moved to an instant inside the outage: suspended to the wake-up,
    // where the revival must find and cancel it.
    arm(&mut sim, MacTimer::Recheck, us(50));
    arm(&mut sim, MacTimer::Recheck, us(60));
    // Moved to an instant past the outage: at the revival its key in
    // flight is still the stale one.
    arm(&mut sim, MacTimer::Defer, us(300));
    arm(&mut sim, MacTimer::Defer, us(400));
    assert_eq!(sim.queue.postponed(), 2);

    let mut seen = Seen::new();
    run_out(&mut sim, &mut seen);
    assert_eq!(seen, [(us(60), MacTimer::Recheck, false)], "no timer fired on the rebooted node");
    assert_eq!(sim.mac_timers[NODE as usize], [None; MacTimer::KINDS]);
    assert!(!sim.faults.is_down(NODE as usize));
}

#[test]
fn earlier_rearm_of_a_suspended_timer_is_a_cancel_and_a_schedule() {
    let faults = FaultPlan::none().node_down(NodeId::new(NODE), us(20), DOWN_FOR);
    let mut sim = idle_line(faults);
    arm(&mut sim, MacTimer::Recheck, us(30));
    let mut seen = Seen::new();
    // The crash, then the timer: suspended to the wake-up at 120 µs.
    assert!(dispatch_next(&mut sim, &mut seen) && dispatch_next(&mut sim, &mut seen));
    assert_eq!(seen, [(us(30), MacTimer::Recheck, false)]);

    let (scheduled, pending) = (sim.queue.scheduled(), sim.queue.len());
    arm(&mut sim, MacTimer::Recheck, us(100));
    assert_eq!(sim.queue.postponed(), 0, "an earlier instant cannot reuse the queued key");
    assert_eq!(sim.queue.scheduled(), scheduled + 1);
    assert_eq!(sim.queue.len(), pending, "and the suspended arm is gone");

    run_out(&mut sim, &mut seen);
    assert_eq!(
        seen[1..],
        [(us(100), MacTimer::Recheck, false), (us(120), MacTimer::Recheck, true)]
    );
    assert_eq!(sim.mac_timers[NODE as usize], [None; MacTimer::KINDS]);
    assert!(sim.queue.is_empty());
}
