//! Criterion benchmarks isolating the medium's arrival-planning hot path:
//! the planner fed every node as a candidate vs fed the spatial neighbor
//! grid's candidates, at the paper's 100-node density and at a 400-node
//! scale where the full scan's O(n) per transmission starts to dominate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mobility::{NeighborGrid, Point};
use phy::{plan_arrivals_indexed_into, RadioConfig};
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

fn bench_planner(c: &mut Criterion) {
    let radio = RadioConfig::wavelan();
    let now = SimTime::from_secs(100.0);
    let airtime = SimDuration::from_millis(2.0);
    for n in [100usize, 400] {
        let positions = scattered_positions(n);
        let mut grid = NeighborGrid::new(radio.carrier_sense_range_m() * 1.001);
        grid.rebuild(&positions);
        let mut group = c.benchmark_group(format!("plan_arrivals_{n}_nodes"));

        // Every node a candidate (the full scan) vs the grid's 3×3-cell
        // candidates (the driver's production path, lookup included).
        let all: Vec<u16> = (0..n as u16).collect();
        for (name, use_grid) in [("all_candidates", false), ("grid_candidates", true)] {
            group.bench_function(name, |b| {
                let mut tx = 0u16;
                let mut buf = Vec::new();
                let mut cands = all.clone();
                b.iter(|| {
                    tx = (tx + 1) % n as u16;
                    if use_grid {
                        grid.candidates_into(positions[usize::from(tx)], &mut cands);
                    }
                    let suppressed = plan_arrivals_indexed_into(
                        NodeId::new(tx),
                        &cands,
                        &positions,
                        now,
                        airtime,
                        &radio,
                        |_| false,
                        &mut buf,
                    );
                    black_box((buf.len(), suppressed))
                })
            });
        }

        // Grid rebuild cost, amortized over every position refresh.
        group.bench_function("grid_rebuild", |b| {
            b.iter(|| {
                grid.rebuild(black_box(&positions));
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
