//! Criterion benchmarks for the simulation engine substrate: event queue,
//! mobility interpolation, propagation planning, and one MAC exchange.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mac::{Dcf, MacCommand, MacConfig, MacTimer, Priority};
use mobility::{MobilityModel, Point, RandomWaypoint, WaypointConfig};
use phy::{plan_arrivals_indexed_into, RadioConfig};
use sim_core::{EventQueue, NodeId, RngFactory, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                // Pseudo-random but deterministic times.
                q.schedule(SimTime::from_nanos(i.wrapping_mul(2654435761) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    group.bench_function("schedule_cancel_half_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> =
                (0..10_000u64).map(|i| q.schedule(SimTime::from_nanos(i % 1_000), i)).collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut count = 0;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
    // The run loop's own traffic, as counted on `static_saturated` (DESIGN
    // §9 "Event queue"), once through the calls the driver made before the
    // queue could postpone or file near events, once through the ones it
    // makes now. Both shapes do the same logical work and pop the same
    // events in the same order.
    for (id, shape) in
        [("mac_mix_88b/cancel_and_heap", Shape::Old), ("mac_mix_88b/postpone_and_lane", Shape::New)]
    {
        group.bench_function(id, |b| {
            b.iter_batched(
                || MacMix::warmed_up(shape),
                |mut mix| black_box(mix.run(200_000)),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The size of the driver's event enum.
type Payload = [u64; 11];

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// Re-arm = schedule + cancel; every boundary through the heap.
    Old,
    /// Re-arm = `postpone` (cancel + schedule if refused); boundaries
    /// through `schedule_near`.
    New,
}

/// A queue held at the run's depth and fed the run's mix: per 100
/// dispatches, 63 are boundaries scheduled in bursts at most one
/// propagation delay (1.84 µs) ahead, 40 pending timers are re-armed to a
/// later instant, and 14 are cancelled outright.
struct MacMix {
    q: EventQueue<Payload>,
    shape: Shape,
    /// One pending timer each, as `(handle, due)`; a timer that fires is
    /// armed again, so the depth holds.
    timers: Vec<(sim_core::EventId, SimTime)>,
    now: SimTime,
    lcg: u64,
    /// Fixed-point debts of the three side streams.
    owed: [u32; 3],
}

impl MacMix {
    const DEPTH: usize = 270;
    /// Marks a payload as a boundary rather than timer number `payload[0]`.
    const BOUNDARY: u64 = u64::MAX;

    fn warmed_up(shape: Shape) -> Self {
        let mut mix = MacMix {
            q: EventQueue::new(),
            shape,
            timers: Vec::with_capacity(Self::DEPTH),
            now: SimTime::ZERO,
            lcg: 1,
            owed: [0; 3],
        };
        for i in 0..Self::DEPTH {
            let due = mix.timer_delay();
            mix.timers.push((mix.q.schedule(due, [i as u64; 11]), due));
        }
        mix.run(20_000);
        mix
    }

    fn below(&mut self, n: u64) -> u64 {
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.lcg >> 33) % n
    }

    /// DIFS + backoff, a frame's airtime, a timeout: up to 2 ms ahead.
    fn timer_delay(&mut self) -> SimTime {
        self.now + SimDuration::from_nanos(1 + self.below(2_000_000))
    }

    fn arm(&mut self, i: usize) {
        let due = self.timer_delay();
        self.timers[i] = (self.q.schedule(due, [i as u64; 11]), due);
    }

    /// Settles one unit of a side stream's debt, if it owes that much.
    fn take(&mut self, stream: usize, unit: u32) -> bool {
        let due = self.owed[stream] >= unit;
        if due {
            self.owed[stream] -= unit;
        }
        due
    }

    fn run(&mut self, dispatches: u32) -> u64 {
        let mut sum = 0u64;
        for _ in 0..dispatches {
            let (at, payload) = self.q.pop().expect("queue held at depth");
            self.now = at;
            sum = sum.wrapping_add(payload[0]);
            if payload[0] != Self::BOUNDARY {
                // A timer fired: the MAC arms its next one, and 63
                // boundaries are planned per 37 such dispatches.
                self.arm(payload[0] as usize);
                self.owed[0] += 63;
                while self.take(0, 37) {
                    let at = self.now + SimDuration::from_nanos(1 + self.below(1_840));
                    let seq = self.q.reserve_seq();
                    match self.shape {
                        Shape::Old => self.q.schedule_at_seq(at, seq, [Self::BOUNDARY; 11]),
                        Shape::New => self.q.schedule_near(at, seq, [Self::BOUNDARY; 11]),
                    };
                }
            }
            self.owed[1] += 40;
            if self.take(1, 100) {
                // The busy horizon moved out: `Recheck` follows it.
                let i = self.below(Self::DEPTH as u64) as usize;
                let (old, due) = self.timers[i];
                let due = due + SimDuration::from_nanos(1 + self.below(400_000));
                let moved = match self.shape {
                    Shape::Old => None,
                    Shape::New => self.q.postpone(old, due),
                };
                let id = moved.unwrap_or_else(|| {
                    let id = self.q.schedule(due, [i as u64; 11]);
                    self.q.cancel(old);
                    id
                });
                self.timers[i] = (id, due);
            }
            self.owed[2] += 14;
            if self.take(2, 100) {
                // A frozen backoff: `Defer` is cancelled and armed afresh.
                let i = self.below(Self::DEPTH as u64) as usize;
                self.q.cancel(self.timers[i].0);
                self.arm(i);
            }
        }
        sum
    }
}

fn bench_mobility(c: &mut Criterion) {
    let cfg = WaypointConfig::paper(SimDuration::ZERO);
    let model = RandomWaypoint::generate(&cfg, RngFactory::new(1));
    let mut group = c.benchmark_group("mobility");
    group.bench_function("position_query", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 7) % 500;
            black_box(model.position(NodeId::new((t % 100) as u16), SimTime::from_secs(t as f64)))
        })
    });
    group.bench_function("snapshot_100_nodes", |b| {
        b.iter(|| black_box(model.snapshot(SimTime::from_secs(123.0))))
    });
    group.finish();
}

fn bench_phy(c: &mut Criterion) {
    let radio = RadioConfig::wavelan();
    let cfg = WaypointConfig::paper(SimDuration::ZERO);
    let model = RandomWaypoint::generate(&cfg, RngFactory::new(1));
    let positions: Vec<Point> = model.snapshot(SimTime::from_secs(100.0));
    let all: Vec<u16> = (0..positions.len() as u16).collect();
    let mut arrivals = Vec::new();
    let mut group = c.benchmark_group("phy");
    group.bench_function("plan_arrivals_100_nodes", |b| {
        b.iter(|| {
            plan_arrivals_indexed_into(
                NodeId::new(0),
                &all,
                &positions,
                SimTime::from_secs(100.0),
                SimDuration::from_millis(2.0),
                &radio,
                |_| false,
                &mut arrivals,
            );
            black_box(arrivals.len())
        })
    });
    group.finish();
}

fn bench_mac_exchange(c: &mut Criterion) {
    let cfg = MacConfig::ieee80211_dsss();
    let mut group = c.benchmark_group("mac");
    group.bench_function("full_unicast_exchange", |b| {
        b.iter_batched(
            || Dcf::<u32>::new(NodeId::new(0), cfg.clone(), RngFactory::new(3).stream("mac", 0)),
            |mut mac| {
                // Drive a complete RTS/CTS/DATA/ACK exchange through the
                // state machine (timer chasing as the driver would).
                let now = SimTime::from_secs(1.0);
                let mut cmds = mac.enqueue(9, NodeId::new(1), 512, Priority::Data, now);
                for _ in 0..16 {
                    let timer = cmds.iter().find_map(|c| match c {
                        MacCommand::SetTimer { timer, at } => Some((*timer, *at)),
                        _ => None,
                    });
                    let Some((timer, at)) = timer else { break };
                    cmds = mac.on_timer(timer, at);
                    if matches!(timer, MacTimer::CtsTimeout) {
                        break;
                    }
                }
                black_box(mac)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_mobility, bench_phy, bench_mac_exchange);
criterion_main!(benches);
