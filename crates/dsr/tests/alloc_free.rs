//! Pins the allocation behaviour of the route cache's steady state: once a
//! node knows the routes flowing past it, overhearing one more data packet,
//! refreshing timestamps, purging a link it does not hold and missing a
//! lookup must not touch the heap at all, and a lookup hit must allocate
//! exactly the route it returns. A full cache adds a path in the room its
//! evicted victim leaves. These are the operations every decoded
//! data frame and every overheard route error runs at every bystander, so
//! an allocation creeping back in here is the whole simulator slowing down.
//! Decision tracing adds commands, never heap copies of the routes they
//! name.
//!
//! Route discovery is pinned the same way. A flooded request reaches every
//! node, often many times over: each copy, and the copy each broadcast
//! addressee makes of the frame, must cost no heap allocation unless the
//! node answers it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsr::{CacheEvent, DsrConfig, DsrNode, PathCache, RouteCache};
use packet::{
    AgentCommand, DataPacket, InlineRoute, Link, Packet, Route, RouteRequest, RoutingAgent,
};
use sim_core::{NodeId, RngFactory, SimTime};

/// Forwards to the system allocator, counting calls per thread (libtest
/// runs sibling tests on other threads).
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with`: the allocator still runs while a thread's locals are torn
/// down, and a count missed there is outside every measurement.
fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn route(ids: &[u16]) -> Route {
    Route::new(ids.iter().map(|&i| n(i)).collect()).expect("valid route")
}

fn inline(ids: &[u16]) -> InlineRoute {
    InlineRoute::from_slice(route(ids).nodes())
}

fn data_on(ids: &[u16], uid: u64) -> Packet {
    let r = route(ids);
    Packet::Data(DataPacket {
        uid,
        src: r.source(),
        dst: r.destination(),
        payload_bytes: 512,
        sent_at: SimTime::ZERO,
        route: r,
        hop: 0,
        salvage_count: 0,
    })
}

#[test]
fn snooping_a_known_route_allocates_nothing() {
    for cfg in [DsrConfig::base(), DsrConfig::combined()] {
        let label = cfg.label();
        let mut node = DsrNode::new(n(5), cfg, RngFactory::new(1).stream("alloc-free", 5));
        // Off the route (learning through the overheard transmitter) and on
        // it (learning the suffix and the reversed prefix).
        let overheard = data_on(&[0, 1, 2, 3], 1);
        let through_us = data_on(&[0, 1, 5, 3], 2);
        let mut cmds = Vec::new();
        // Warm-up: the first sight adds cache entries and sizes the scratch.
        node.on_snoop(n(1), &overheard, t(0.0), &mut cmds);
        node.on_snoop(n(1), &through_us, t(0.0), &mut cmds);
        for (packet, what) in [(&overheard, "off-route"), (&through_us, "on-route")] {
            cmds.clear();
            let (allocs, ()) = allocations(|| node.on_snoop(n(1), packet, t(0.1), &mut cmds));
            assert!(cmds.is_empty(), "{label}, {what}: a refresh commands nothing: {cmds:?}");
            assert_eq!(allocs, 0, "{label}, {what}: on_snoop of an already cached route");
        }
    }
}

#[test]
fn a_traced_snoop_of_a_known_route_allocates_nothing() {
    for cfg in [DsrConfig::base(), DsrConfig::combined()] {
        let label = cfg.label();
        let mut node = DsrNode::new(n(5), cfg, RngFactory::new(1).stream("alloc-free", 5));
        node.set_decision_trace(true);
        let overheard = data_on(&[0, 1, 2, 3], 1);
        let through_us = data_on(&[0, 1, 5, 3], 2);
        // Warm-up: the first sights fill the cache and size the buffer the
        // driver would hand back to the next input.
        let mut cmds = Vec::new();
        node.on_snoop(n(1), &overheard, t(0.0), &mut cmds);
        node.on_snoop(n(1), &through_us, t(0.0), &mut cmds);
        for (packet, what) in [(&overheard, "off-route"), (&through_us, "on-route")] {
            cmds.clear();
            let (allocs, ()) = allocations(|| node.on_snoop(n(1), packet, t(0.1), &mut cmds));
            // Two inserts (refreshes of cached paths) and one `mark_used`.
            assert_eq!(cmds.len(), 3, "{label}, {what}: one decision a cache call: {cmds:?}");
            // The decisions carry their routes by value, into a warm buffer.
            assert_eq!(allocs, 0, "{label}, {what}: traced on_snoop of a cached route");
        }
    }
}

#[test]
fn originating_on_a_cache_hit_allocates_only_the_found_route() {
    let mut node =
        DsrNode::new(n(0), DsrConfig::base(), RngFactory::new(1).stream("alloc-free", 0));
    let mut cmds = Vec::new();
    // Forwarding-path learning caches 0-1-2-3 at its source.
    node.on_snoop(n(1), &data_on(&[0, 1, 2, 3], 1), t(0.0), &mut cmds);
    // Warm-up: sizes `mark_used`'s table and the command buffer.
    node.originate(n(3), 512, t(0.1), &mut cmds);
    cmds.clear();
    let (allocs, ()) = allocations(|| node.originate(n(3), 512, t(0.2), &mut cmds));
    assert_eq!(cmds.len(), 3, "originated, cache hit, send: {cmds:?}");
    // The cache hit copies the route by value; the packet takes `find`'s.
    assert_eq!(allocs, 1, "the route `find` returns");
}

#[test]
fn cache_steady_state_allocates_only_the_route_a_hit_returns() {
    let mut cache = PathCache::new(n(0), 16);
    for path in [&[0u16, 1, 2, 3][..], &[0, 4, 3], &[0, 5, 6, 7, 8]] {
        cache.insert(route(path), t(0.0));
    }
    let seen = route(&[9, 1, 2, 10]);
    cache.mark_used(&seen, t(0.5)); // warm-up: sizes the successor table

    let (allocs, ()) = allocations(|| cache.mark_used(&seen, t(1.0)));
    assert_eq!(allocs, 0, "mark_used");
    let (allocs, ()) = allocations(|| cache.mark_forwarded(&seen));
    assert_eq!(allocs, 0, "mark_forwarded");
    let prefix = [n(0), n(1), n(2)];
    let (allocs, changed) = allocations(|| cache.insert_slice(&prefix, t(1.0)));
    assert!(changed);
    assert_eq!(allocs, 0, "insert_slice refreshing a cached prefix");
    let (allocs, removed) = allocations(|| cache.remove_link(Link::new(n(3), n(0)), t(1.0)));
    assert!(!removed.contained);
    assert_eq!(allocs, 0, "remove_link for a link not in the cache");
    let (allocs, found) = allocations(|| cache.find(n(42), t(1.0)));
    assert!(found.is_none());
    assert_eq!(allocs, 0, "find miss");
    let (allocs, found) = allocations(|| cache.find(n(3), t(1.0)));
    assert_eq!(found, Some(route(&[0, 4, 3])));
    assert_eq!(allocs, 1, "find hit: the returned route and nothing else");
}

#[test]
fn a_full_cache_adds_a_path_no_longer_than_its_lru_victim_in_place() {
    let mut cache = PathCache::new(n(0), 2);
    cache.insert(route(&[0, 1, 2, 3]), t(0.0)); // the least recently used
    cache.insert(route(&[0, 4, 5]), t(1.0));
    let path = [n(0), n(6), n(7), n(8)];
    let (allocs, changed) = allocations(|| cache.insert_slice(&path, t(2.0)));
    assert!(changed);
    assert_eq!(allocs, 0, "a new entry taking the room its evicted victim left");
    assert!(cache.find(n(3), t(2.0)).is_none(), "the victim is gone");
    assert_eq!(cache.find(n(8), t(2.0)), Some(route(&[0, 6, 7, 8])));
}

#[test]
fn a_traced_full_cache_logs_its_eviction_in_place() {
    let mut cache = PathCache::new(n(0), 2);
    cache.set_event_log(true);
    let mut events = Vec::new();
    // Warm-up: one logged eviction grows the log and the drain target.
    cache.insert(route(&[0, 1, 2, 3]), t(0.0));
    cache.insert(route(&[0, 4, 5]), t(1.0));
    cache.insert(route(&[0, 9, 10]), t(2.0));
    cache.drain_events(&mut events);
    events.clear();
    let path = [n(0), n(6), n(7)];
    let (allocs, changed) = allocations(|| {
        let changed = cache.insert_slice(&path, t(3.0));
        cache.drain_events(&mut events);
        changed
    });
    assert!(changed);
    assert_eq!(allocs, 0, "a new entry, its victim's eviction logged and drained");
    assert_eq!(events, vec![CacheEvent::Evicted { route: inline(&[0, 4, 5]) }]);
}

fn request(id: u64, target: u16, path: &[u16]) -> Packet {
    let path: Vec<NodeId> = path.iter().map(|&i| n(i)).collect();
    Packet::Request(RouteRequest {
        uid: 100 + id,
        origin: path[0],
        target: n(target),
        request_id: id,
        path: InlineRoute::from_slice(&path),
        ttl: 255,
        piggyback_error: None,
    })
}

#[test]
fn a_request_copies_its_path_by_value_up_to_the_inline_cap() {
    let ids: Vec<u16> = (0..InlineRoute::CAP as u16 + 1).collect();
    let inline = request(1, 99, &ids[..InlineRoute::CAP]);
    let (allocs, _copy) = allocations(|| inline.clone());
    assert_eq!(allocs, 0, "a {}-node request", InlineRoute::CAP);
    let spilled = request(1, 99, &ids);
    let (allocs, _copy) = allocations(|| spilled.clone());
    assert_eq!(allocs, 1, "a {}-node request: its spilled path", ids.len());
}

#[test]
fn a_request_copy_already_seen_allocates_nothing() {
    for cfg in [DsrConfig::base(), DsrConfig::combined()] {
        let label = cfg.label();
        let mut node = DsrNode::new(n(5), cfg, RngFactory::new(1).stream("alloc-free", 5));
        // The first copy: the reverse route 5-2-1-0 is learned, the request
        // forwarded.
        let mut cmds = Vec::new();
        node.on_receive(n(2), request(1, 9, &[0, 1, 2]), t(0.0), &mut cmds);
        cmds.clear();
        let copy = request(1, 9, &[0, 1, 2]);
        let (allocs, ()) = allocations(|| node.on_receive(n(2), copy, t(0.1), &mut cmds));
        assert!(cmds.is_empty(), "{label}: a duplicate is dropped: {cmds:?}");
        assert_eq!(allocs, 0, "{label}: a duplicate copy of a request");
    }
}

#[test]
fn forwarding_a_request_allocates_nothing() {
    for cfg in [DsrConfig::base(), DsrConfig::combined()] {
        let label = cfg.label();
        let mut node = DsrNode::new(n(5), cfg, RngFactory::new(1).stream("alloc-free", 5));
        // Warm-up: learns the reverse route and sizes the seen-request table
        // and the command buffer.
        let mut cmds = Vec::new();
        node.on_receive(n(2), request(1, 9, &[0, 1, 2]), t(0.0), &mut cmds);
        cmds.clear();
        let fresh = request(2, 9, &[0, 1, 2]);
        let (allocs, ()) = allocations(|| node.on_receive(n(2), fresh, t(0.1), &mut cmds));
        let [AgentCommand::Send { packet: Packet::Request(fwd), .. }] = &cmds[..] else {
            panic!("{label}: one rebroadcast: {cmds:?}");
        };
        assert_eq!(fwd.path.nodes(), &[n(0), n(1), n(2), n(5)]);
        assert_eq!(allocs, 0, "{label}: a forwarded copy into a warm buffer");
    }
}

#[test]
fn the_target_answer_allocates_the_discovered_route_and_the_reply_route() {
    for cfg in [DsrConfig::base(), DsrConfig::combined()] {
        let label = cfg.label();
        let mut node = DsrNode::new(n(9), cfg, RngFactory::new(1).stream("alloc-free", 9));
        // Warm-up: learns the reverse route 9-2-1-0 and sizes the command
        // buffer.
        let mut cmds = Vec::new();
        node.on_receive(n(2), request(1, 9, &[0, 1, 2]), t(0.0), &mut cmds);
        cmds.clear();
        let fresh = request(2, 9, &[0, 1, 2]);
        let (allocs, ()) = allocations(|| node.on_receive(n(2), fresh, t(0.1), &mut cmds));
        let Some(AgentCommand::Send { packet: Packet::Reply(rep), .. }) = cmds.last() else {
            panic!("{label}: a reply: {cmds:?}");
        };
        assert_eq!(rep.discovered, route(&[0, 1, 2, 9]));
        assert_eq!(rep.route, route(&[9, 2, 1, 0]));
        assert_eq!(allocs, 2, "{label}: discovered route and reply route");
    }
}

#[test]
fn a_gratuitous_reply_allocates_the_shortened_route_and_the_reply_route() {
    for cfg in [DsrConfig::base(), DsrConfig::combined()] {
        let label = cfg.label();
        let mut node = DsrNode::new(n(5), cfg, RngFactory::new(1).stream("alloc-free", 5));
        // Node 5 overhears 1 sending to 2 a packet whose route reaches 5 two
        // hops later: 5 advertises the shortcut 0-1-5-3 back to the source.
        let shortcut = data_on(&[0, 1, 2, 5, 3], 1);
        // Warm-up: caches the route's pieces, sizes the scratch, the
        // advertised-flow table and the command buffer.
        let mut cmds = Vec::new();
        node.on_snoop(n(1), &shortcut, t(0.0), &mut cmds);
        cmds.clear();
        // Past the hold-off, the same flow is advertised again.
        let (allocs, ()) = allocations(|| node.on_snoop(n(1), &shortcut, t(2.0), &mut cmds));
        let Some(AgentCommand::Send { packet: Packet::Reply(rep), .. }) = cmds.last() else {
            panic!("{label}: a gratuitous reply: {cmds:?}");
        };
        assert!(rep.gratuitous, "{label}");
        assert_eq!(rep.discovered, route(&[0, 1, 5, 3]));
        assert_eq!(rep.route, route(&[5, 1, 0]));
        assert_eq!(allocs, 2, "{label}: shortened route and reply route");
    }
}
