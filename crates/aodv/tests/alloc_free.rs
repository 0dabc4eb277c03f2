//! Pins what an AODV route error costs the heap. A route error is
//! broadcast, and every neighbour that decodes it as an addressee takes a
//! copy of the packet: the copy must only share the list of unreachable
//! destinations, never duplicate it. Building the error, into a command
//! buffer the driver has already grown, allocates that list once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aodv::{AodvConfig, AodvData, AodvNode, AodvPacket, AodvTimer, Rreq};
use packet::{AgentCommand, RoutingAgent};
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

type Cmd = AgentCommand<AodvPacket, AodvTimer>;

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A request from `origin`, heard from neighbour 1: the node learns routes
/// to both through 1.
fn request(origin: u16, id: u64) -> AodvPacket {
    AodvPacket::Rreq(Rreq {
        uid: 100 + id,
        origin: n(origin),
        origin_seq: 1,
        request_id: id,
        target: n(9),
        target_seq: None,
        hop_count: 2,
        ttl: 1,
    })
}

/// A data packet from 5 that this node was forwarding through 1.
fn forwarded(uid: u64) -> AodvPacket {
    AodvPacket::Data(AodvData {
        uid,
        src: n(5),
        dst: n(6),
        payload_bytes: 512,
        sent_at: SimTime::ZERO,
        hops_traveled: 1,
    })
}

/// Node 0 loses its link to neighbour 1, through which it reaches 1 and
/// `origin`: the route error it broadcasts lists both.
fn lose_link(node: &mut AodvNode, origin: u16, at: f64, cmds: &mut Vec<Cmd>) -> (u64, AodvPacket) {
    node.on_receive(n(1), request(origin, u64::from(origin)), t(at), cmds);
    cmds.clear();
    let (allocs, ()) = allocations(|| node.on_tx_failed(forwarded(7), n(1), t(at + 0.1), cmds));
    let rerr = cmds.iter().find_map(|c| match c {
        Cmd::Send { packet: p @ AodvPacket::Rerr(_), next_hop, .. } if next_hop.is_broadcast() => {
            Some(p.clone())
        }
        _ => None,
    });
    (allocs, rerr.unwrap_or_else(|| panic!("a broadcast route error: {cmds:?}")))
}

#[test]
fn a_route_error_allocates_its_list_once_and_a_copy_nothing() {
    let mut node = AodvNode::new(n(0), AodvConfig::default(), RngFactory::new(1).stream("aodv", 0));
    let mut cmds = Vec::new();
    // Warm-up: sizes the request table, the error scratch and the buffer.
    lose_link(&mut node, 5, 1.0, &mut cmds);
    let (allocs, rerr) = lose_link(&mut node, 4, 2.0, &mut cmds);
    let AodvPacket::Rerr(sent) = &rerr else { unreachable!() };
    assert_eq!(sent.unreachable.len(), 2, "{sent:?}");
    assert_eq!(allocs, 1, "the shared list of unreachable destinations");
    // What each addressee of the broadcast does with the frame.
    let (allocs, copy) = allocations(|| rerr.clone());
    assert_eq!(copy, rerr);
    assert_eq!(allocs, 0, "a broadcast route error's copy");
}
