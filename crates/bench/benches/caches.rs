//! Criterion benchmarks for the route-cache data structures — the hot
//! path of every packet event in the simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dsr::cache::RouteCache;
use dsr::{LinkCache, NegativeCache, NegativeCacheConfig, PathCache};
use packet::{Link, Route};
use sim_core::{NodeId, SimDuration, SimTime};

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// A deterministic set of loop-free routes rooted at node 0, of 3 to
/// `2 + hop_spread` hops — with 64 routes and a spread of 6, the full
/// cache of 3–8 hop paths a busy node of the paper's scenarios holds.
fn synthetic_routes(count: usize, hop_spread: usize) -> Vec<Route> {
    let mut routes = Vec::with_capacity(count);
    for i in 0..count {
        let hops = 3 + (i % hop_spread.max(1));
        let mut nodes = vec![n(0)];
        for h in 0..hops {
            // Spread across a 200-node id space, avoiding duplicates.
            nodes.push(n((1 + ((i * 31 + h * 7) % 199)) as u16));
        }
        nodes.dedup();
        if let Ok(r) = Route::new(nodes) {
            routes.push(r);
        }
    }
    routes
}

fn filled_path_cache(routes: &[Route]) -> PathCache {
    let mut c = PathCache::new(n(0), 64);
    for r in routes {
        c.insert(r.clone(), SimTime::ZERO);
    }
    c
}

fn bench_path_cache(c: &mut Criterion) {
    let routes = synthetic_routes(64, 6);
    let mut group = c.benchmark_group("path_cache");

    group.bench_function("insert_64_routes", |b| {
        b.iter_batched(
            || PathCache::new(n(0), 64),
            |mut cache| {
                for r in &routes {
                    cache.insert(r.clone(), SimTime::ZERO);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });

    // What a bystander's cache is asked per packet: every overheard data
    // frame re-inserts routes it already holds and refreshes timestamps,
    // and most overheard route errors name a link it never cached.
    let now = SimTime::from_secs(1.0);
    let mut cache = filled_path_cache(&routes);
    group.bench_function("find_hit", |b| {
        let dst = routes[0].destination();
        b.iter(|| black_box(&cache).find(black_box(dst), SimTime::ZERO))
    });
    group.bench_function("find_miss", |b| {
        b.iter(|| black_box(&cache).find(black_box(n(250)), SimTime::ZERO))
    });
    group.bench_function("insert_refresh", |b| {
        let known = &routes[5].nodes()[..3];
        b.iter(|| cache.insert_slice(black_box(known), now))
    });
    group.bench_function("mark_used", |b| {
        // Shares two links with a cached path, as a snooped route does.
        let mut nodes = vec![n(251), n(252)];
        nodes.extend_from_slice(&routes[1].nodes()[1..4]);
        let seen = Route::new(nodes).expect("loop-free");
        b.iter(|| cache.mark_used(black_box(&seen), now))
    });
    group.bench_function("remove_link_miss", |b| {
        let link = Link::new(n(250), n(251));
        b.iter(|| cache.remove_link(black_box(link), now))
    });
    group.bench_function("remove_link_hit", |b| {
        let link = routes[0].link(1);
        b.iter_batched(
            || cache.clone(),
            |mut cache| cache.remove_link(link, now),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("expire_sweep", |b| {
        b.iter_batched(
            || filled_path_cache(&routes),
            |mut cache| cache.expire(SimTime::from_secs(100.0), SimDuration::from_secs(10.0)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_link_cache(c: &mut Criterion) {
    let routes = synthetic_routes(64, 6);
    let mut group = c.benchmark_group("link_cache");

    group.bench_function("insert_64_routes", |b| {
        b.iter_batched(
            || LinkCache::new(n(0), 256),
            |mut cache| {
                for r in &routes {
                    cache.insert(r.clone(), SimTime::ZERO);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });

    let mut cache = LinkCache::new(n(0), 256);
    for r in &routes {
        cache.insert(r.clone(), SimTime::ZERO);
    }
    group.bench_function("find_bfs", |b| {
        let dst = routes[7].destination();
        b.iter(|| black_box(&cache).find(black_box(dst), SimTime::ZERO))
    });
    group.finish();
}

fn bench_negative_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("negative_cache");
    group.bench_function("insert_and_lookup", |b| {
        b.iter_batched(
            || NegativeCache::new(NegativeCacheConfig::default()),
            |mut neg| {
                let now = SimTime::from_secs(1.0);
                for i in 0..64u16 {
                    neg.insert(Link::new(n(i), n(i + 1)), now);
                }
                for i in 0..64u16 {
                    black_box(neg.contains(Link::new(n(i), n(i + 1)), now));
                }
                neg
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_path_cache, bench_link_cache, bench_negative_cache);
criterion_main!(benches);
