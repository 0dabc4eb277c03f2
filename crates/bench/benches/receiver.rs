//! Criterion benchmarks isolating per-receiver arrival handling through
//! the lazy-envelope protocol (decodable frames cost a boundary + decode,
//! sub-RX interference folds inside later probes), at the paper's
//! 100-node density and at 400 nodes where most sensed frames are sub-RX.
//!
//! The workload is realistic: arrivals are planned by the production
//! medium planner over scattered positions, so the decodable/sub-RX mix
//! and power distribution match what the simulator sees.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mobility::Point;
use phy::{plan_arrivals_indexed_into, PendingArrival, RadioConfig, ReceiverState};
use sim_core::{NodeId, SimDuration, SimTime};

/// Deterministic pseudo-random positions (no RNG dependency, stable run
/// to run) at the paper's node density: 100 nodes per 2200 m x 600 m.
fn scattered_positions(n: usize) -> Vec<Point> {
    let scale = (n as f64 / 100.0).sqrt();
    let (w, h) = (2200.0 * scale, 600.0 * scale);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| Point::new(next() * w, next() * h)).collect()
}

/// One planned arrival at a specific receiver, with the queue seq the
/// runner would have reserved for its start boundary at plan time.
#[derive(Clone, Copy)]
struct Planned {
    tx_id: u64,
    power_w: f64,
    start: SimTime,
    start_seq: u64,
    end: SimTime,
}

/// Per-receiver arrival streams for a burst of staggered transmissions,
/// planned by the production medium planner.
fn workload(n: usize, transmissions: usize) -> Vec<Vec<Planned>> {
    let radio = RadioConfig::wavelan();
    let positions = scattered_positions(n);
    let airtime = SimDuration::from_millis(2.0);
    let mut streams: Vec<Vec<Planned>> = vec![Vec::new(); n];
    let all: Vec<u16> = (0..n as u16).collect();
    let mut arrivals = Vec::new();
    let mut seq = 0u64;
    for k in 0..transmissions {
        let tx = NodeId::new((k % n) as u16);
        // 500 us stagger: frames overlap (2 ms airtime) without the
        // start order across transmissions ever inverting.
        let now = SimTime::from_nanos(500_000 * k as u64);
        plan_arrivals_indexed_into(
            tx,
            &all,
            &positions,
            now,
            airtime,
            &radio,
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

/// Replays one receiver's stream through the envelope: all arrivals are
/// planned up front, but only decodable frames get boundary + decode
/// operations (with busy probes); sub-RX interference folds lazily inside
/// those probes, never costing an operation of its own.
fn drive_fused(cfg: &RadioConfig, stream: &[Planned]) -> u64 {
    let rx_threshold = cfg.rx_threshold_w;
    let mut state: ReceiverState = ReceiverState::new(cfg.clone());
    for p in stream {
        let decodable = p.power_w >= rx_threshold;
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
    let mut ops: Vec<(SimTime, bool, usize)> = Vec::new();
    for (i, p) in stream.iter().enumerate() {
        if p.power_w >= rx_threshold {
            ops.push((p.start, false, i));
            ops.push((p.end, true, i));
        }
    }
    ops.sort_unstable();
    let mut delivered = 0u64;
    let mut seq = stream.last().map_or(0, |p| p.start_seq + 1);
    for &(at, is_end, i) in &ops {
        let p = &stream[i];
        if is_end {
            delivered += u64::from(state.decode(p.tx_id, at, seq).is_some());
        } else if state.settle_start(p.tx_id, at, p.start_seq) {
            state.finalize_lock(p.tx_id, seq, false);
        }
        seq += 1;
        black_box(state.busy_until(at, seq));
    }
    // Fold whatever sub-RX tail is still pending (the runner's next MAC
    // input would).
    black_box(state.busy_until(SimTime::from_secs(1e6), seq));
    delivered
}

fn bench_receiver_paths(c: &mut Criterion) {
    let radio = RadioConfig::wavelan();
    for n in [100usize, 400] {
        let streams = workload(n, 64);
        let arrivals: usize = streams.iter().map(Vec::len).sum();
        let mut group = c.benchmark_group(format!("receiver_arrivals_{n}_nodes"));
        group.throughput(criterion::Throughput::Elements(arrivals as u64));

        group.bench_function("fused_envelope", |b| {
            b.iter(|| {
                let mut delivered = 0u64;
                for s in &streams {
                    delivered += drive_fused(&radio, s);
                }
                black_box(delivered)
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench_receiver_paths);
criterion_main!(benches);
