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
    group.finish();
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
