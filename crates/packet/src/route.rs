//! Loop-free source routes.
//!
//! DSR's central data structure: an explicit node sequence from a source to
//! a destination, carried in every data packet header. Because the full
//! route is visible, loop freedom is a *representation invariant* — a route
//! never contains the same node twice — which this module enforces at
//! construction ([`Route::new`]) so the rest of the protocol can rely on it.

use std::fmt;
use std::sync::Arc;

use sim_core::NodeId;

/// A directed link between two neighboring nodes, as named by route error
/// packets and negative cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Upstream endpoint (the node that detected or uses the link).
    pub from: NodeId,
    /// Downstream endpoint.
    pub to: NodeId,
}

impl Link {
    /// Creates a directed link.
    pub const fn new(from: NodeId, to: NodeId) -> Self {
        Link { from, to }
    }

    /// The directed links a node sequence traverses, in order — for callers
    /// holding a borrowed piece of a route rather than a [`Route`].
    pub fn along(nodes: &[NodeId]) -> impl Iterator<Item = Link> + '_ {
        nodes.windows(2).map(|w| Link::new(w[0], w[1]))
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// Error returned when a node sequence cannot form a valid source route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidRoute {
    /// The sequence was empty.
    Empty,
    /// A node appeared more than once (would create a loop).
    Loop(NodeId),
}

impl fmt::Display for InvalidRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidRoute::Empty => write!(f, "route must contain at least one node"),
            InvalidRoute::Loop(n) => write!(f, "route visits {n} twice"),
        }
    }
}

impl std::error::Error for InvalidRoute {}

/// An ordered, loop-free sequence of nodes from a source to a destination
/// (both inclusive).
///
/// A route never changes once built, so its nodes are shared: a clone (the
/// MAC's transmit copy of a packet, the addressee's copy of a frame) only
/// bumps a reference count. `Arc` rather than `Rc`, because a packet is
/// `Send` ([`NetPacket`](crate::NetPacket)).
///
/// # Example
///
/// ```
/// use packet::{Route, Link};
/// use sim_core::NodeId;
///
/// let route = Route::new(vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)])?;
/// assert_eq!(route.len(), 3);
/// assert_eq!(route.hops(), 2);
/// assert!(route.contains_link(Link::new(NodeId::new(1), NodeId::new(2))));
/// # Ok::<(), packet::InvalidRoute>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    nodes: Arc<[NodeId]>,
}

impl Route {
    /// Creates a route, validating the loop-freedom invariant.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRoute::Empty`] for an empty sequence and
    /// [`InvalidRoute::Loop`] if any node repeats.
    pub fn new(nodes: Vec<NodeId>) -> Result<Self, InvalidRoute> {
        Route::checked(nodes.into())
    }

    /// [`Route::new`] over a borrowed node sequence, copied once.
    ///
    /// # Errors
    ///
    /// As [`Route::new`].
    pub fn from_slice(nodes: &[NodeId]) -> Result<Self, InvalidRoute> {
        Route::checked(nodes.into())
    }

    fn checked(nodes: Arc<[NodeId]>) -> Result<Self, InvalidRoute> {
        if nodes.is_empty() {
            return Err(InvalidRoute::Empty);
        }
        match first_repeat(&nodes) {
            Some(n) => Err(InvalidRoute::Loop(n)),
            None => Ok(Route { nodes }),
        }
    }

    /// A single-node route (source == destination); useful as a neighbor
    /// route seed.
    pub fn single(node: NodeId) -> Self {
        Route { nodes: Arc::new([node]) }
    }

    /// The source (first node).
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination (last node).
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("routes are non-empty")
    }

    /// Number of nodes on the route.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Routes are never empty; this always returns `false` and exists only
    /// to satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of links (`len() - 1`).
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Position of `node` on the route.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// Whether the route traverses `node`.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Whether the route uses the directed link `link`.
    pub fn contains_link(&self, link: Link) -> bool {
        self.nodes.windows(2).any(|w| w[0] == link.from && w[1] == link.to)
    }

    /// The `i`-th link of the route (`route[i] -> route[i + 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= hops()`.
    pub fn link(&self, i: usize) -> Link {
        Link::new(self.nodes[i], self.nodes[i + 1])
    }

    /// Iterates over the directed links of the route in order.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        Link::along(&self.nodes)
    }

    /// The next hop after `node`, if `node` is on the route and not the
    /// destination.
    pub fn next_hop_after(&self, node: NodeId) -> Option<NodeId> {
        let i = self.position(node)?;
        self.nodes.get(i + 1).copied()
    }

    /// The route reversed (destination becomes source). Loop freedom is
    /// preserved by construction.
    pub fn reversed(&self) -> Route {
        Route { nodes: self.nodes.iter().rev().copied().collect() }
    }

    /// The prefix of this route up to and including `node`, or `None` if
    /// `node` is not on the route.
    pub fn prefix_through(&self, node: NodeId) -> Option<Route> {
        let i = self.position(node)?;
        Some(Route { nodes: self.nodes[..=i].into() })
    }

    /// The way back from `node` to the source: [`Route::prefix_through`]
    /// reversed, built in one allocation — a replier's return route.
    pub fn back_from(&self, node: NodeId) -> Option<Route> {
        let i = self.position(node)?;
        Some(Route { nodes: self.nodes[..=i].iter().rev().copied().collect() })
    }

    /// The suffix of this route from `node` (inclusive) to the destination,
    /// or `None` if `node` is not on the route.
    pub fn suffix_from(&self, node: NodeId) -> Option<Route> {
        let i = self.position(node)?;
        Some(Route { nodes: self.nodes[i..].into() })
    }

    /// Truncates the route just *before* the broken link, i.e. keeps nodes
    /// up to and including `link.from`. Returns `None` if the route does
    /// not use `link`.
    ///
    /// This is the cache-update primitive of the paper's wider error
    /// notification: *"all source routes containing the broken link are
    /// truncated at the point of failure."*
    pub fn truncate_before_link(&self, link: Link) -> Option<Route> {
        let i = self.nodes.windows(2).position(|w| w[0] == link.from && w[1] == link.to)?;
        Some(Route { nodes: self.nodes[..=i].into() })
    }

    /// Concatenates the node sequence `prefix` (ending at some node) with
    /// `rest` (starting at that same node) in one allocation, e.g. a request
    /// path joined to a cached route when an intermediate node answers from
    /// its cache.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRoute::Loop`] if the concatenation would visit a node
    /// twice — DSR forbids such replies precisely because the resulting
    /// source route would loop.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` does not end at `rest.source()`; callers join
    /// routes only at a shared node.
    pub fn join(prefix: &[NodeId], rest: &Route) -> Result<Route, InvalidRoute> {
        assert_eq!(
            prefix.last(),
            Some(&rest.source()),
            "joined routes must share the junction node"
        );
        Route::checked(prefix.iter().chain(&rest.nodes[1..]).copied().collect())
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for n in self.nodes.iter() {
            if !first {
                write!(f, "-")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

impl AsRef<[NodeId]> for Route {
    fn as_ref(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// The first node `nodes` visits a second time, if any.
fn first_repeat(nodes: &[NodeId]) -> Option<NodeId> {
    nodes.iter().enumerate().find(|&(i, n)| nodes[..i].contains(n)).map(|(_, &n)| n)
}

/// A node sequence copied by value: up to [`InlineRoute::CAP`] nodes live
/// inside the value, and only a longer sequence spills to the heap.
///
/// It has two roles. Events that carry a route only to have it read once
/// (cache decisions, cache hits, accepted replies) copy it here. And a
/// route request accumulates its path here: every receiver of a flooded
/// request gets its own copy, and every forwarder [`push`](Self::push)es
/// itself, neither of which touches the heap until the path outgrows the
/// inline room. A request path comes from a peer, so unlike a [`Route`]
/// the sequence is not known to be loop-free; [`InlineRoute::is_loop_free`]
/// says whether it is.
///
/// # Example
///
/// ```
/// use packet::InlineRoute;
/// use sim_core::NodeId;
///
/// let mut path = InlineRoute::from_slice(&[NodeId::new(4), NodeId::new(7)]);
/// path.push(NodeId::new(2))?;
/// assert_eq!(path.nodes(), &[NodeId::new(4), NodeId::new(7), NodeId::new(2)]);
/// assert_eq!(path.destination(), NodeId::new(2));
/// assert!(path.push(NodeId::new(7)).is_err(), "a node already on the path");
/// # Ok::<(), packet::InvalidRoute>(())
/// ```
#[derive(Clone)]
pub struct InlineRoute(Repr);

#[derive(Clone)]
enum Repr {
    /// `nodes[..len]`; the rest is padding.
    Inline {
        len: u8,
        nodes: [NodeId; InlineRoute::CAP],
    },
    Spilled(Vec<NodeId>),
}

impl InlineRoute {
    /// The most nodes held without a heap allocation: as many as fit in 40
    /// bytes beside a one-byte length.
    pub const CAP: usize = 19;

    /// Copies a node sequence: a route, a piece of one, or a request path.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty: routes are never empty.
    pub fn from_slice(nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "routes are never empty");
        if nodes.len() > Self::CAP {
            return InlineRoute(Repr::Spilled(nodes.to_vec()));
        }
        let mut inline = [NodeId::BROADCAST; Self::CAP];
        inline[..nodes.len()].copy_from_slice(nodes);
        InlineRoute(Repr::Inline { len: nodes.len() as u8, nodes: inline })
    }

    /// Appends `node`, unless it is on the sequence already. Inline room
    /// runs out at the `CAP + 1`-th node, which moves the whole sequence to
    /// the heap.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRoute::Loop`], leaving the sequence as it was, if
    /// `node` is already on it.
    pub fn push(&mut self, node: NodeId) -> Result<(), InvalidRoute> {
        if self.nodes().contains(&node) {
            return Err(InvalidRoute::Loop(node));
        }
        match &mut self.0 {
            Repr::Inline { len, nodes } if usize::from(*len) < Self::CAP => {
                nodes[usize::from(*len)] = node;
                *len += 1;
            }
            Repr::Inline { nodes, .. } => {
                let mut spilled = Vec::with_capacity(Self::CAP + 1);
                spilled.extend_from_slice(nodes);
                spilled.push(node);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(nodes) => nodes.push(node),
        }
        Ok(())
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, nodes } => &nodes[..usize::from(*len)],
            Repr::Spilled(nodes) => nodes,
        }
    }

    /// The destination (last node).
    pub fn destination(&self) -> NodeId {
        *self.nodes().last().expect("routes are non-empty")
    }

    /// Whether no node appears twice, i.e. whether a [`Route`] could run
    /// along the sequence.
    pub fn is_loop_free(&self) -> bool {
        first_repeat(self.nodes()).is_none()
    }
}

impl PartialEq for InlineRoute {
    fn eq(&self, other: &Self) -> bool {
        self.nodes() == other.nodes()
    }
}

impl Eq for InlineRoute {}

impl fmt::Debug for InlineRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("InlineRoute").field(&self.nodes()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ids: &[u16]) -> Route {
        Route::new(ids.iter().map(|&i| NodeId::new(i)).collect()).expect("valid route")
    }

    #[test]
    fn rejects_empty_and_loops() {
        assert_eq!(Route::new(vec![]), Err(InvalidRoute::Empty));
        let looped = vec![NodeId::new(0), NodeId::new(1), NodeId::new(0)];
        assert_eq!(Route::new(looped), Err(InvalidRoute::Loop(NodeId::new(0))));
    }

    #[test]
    fn endpoints_and_hops() {
        let route = r(&[3, 1, 4]);
        assert_eq!(route.source(), NodeId::new(3));
        assert_eq!(route.destination(), NodeId::new(4));
        assert_eq!(route.hops(), 2);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn link_queries() {
        let route = r(&[0, 1, 2, 3]);
        assert!(route.contains_link(Link::new(NodeId::new(1), NodeId::new(2))));
        // Links are directed.
        assert!(!route.contains_link(Link::new(NodeId::new(2), NodeId::new(1))));
        assert_eq!(route.link(0), Link::new(NodeId::new(0), NodeId::new(1)));
        assert_eq!(route.links().count(), 3);
    }

    #[test]
    fn next_hop() {
        let route = r(&[0, 1, 2]);
        assert_eq!(route.next_hop_after(NodeId::new(0)), Some(NodeId::new(1)));
        assert_eq!(route.next_hop_after(NodeId::new(2)), None);
        assert_eq!(route.next_hop_after(NodeId::new(9)), None);
    }

    #[test]
    fn reversal_swaps_endpoints() {
        let route = r(&[0, 1, 2]);
        let rev = route.reversed();
        assert_eq!(rev.source(), NodeId::new(2));
        assert_eq!(rev.destination(), NodeId::new(0));
        assert_eq!(rev.reversed(), route);
    }

    #[test]
    fn prefix_and_suffix() {
        let route = r(&[0, 1, 2, 3]);
        assert_eq!(route.prefix_through(NodeId::new(2)), Some(r(&[0, 1, 2])));
        assert_eq!(route.suffix_from(NodeId::new(2)), Some(r(&[2, 3])));
        assert_eq!(route.prefix_through(NodeId::new(7)), None);
    }

    #[test]
    fn truncation_at_broken_link() {
        let route = r(&[0, 1, 2, 3]);
        let broken = Link::new(NodeId::new(2), NodeId::new(3));
        assert_eq!(route.truncate_before_link(broken), Some(r(&[0, 1, 2])));
        let elsewhere = Link::new(NodeId::new(3), NodeId::new(2));
        assert_eq!(route.truncate_before_link(elsewhere), None);
    }

    #[test]
    fn join_at_junction() {
        let a = r(&[0, 1, 2]);
        let b = r(&[2, 3, 4]);
        assert_eq!(Route::join(a.nodes(), &b).expect("loop-free"), r(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn join_detects_loop() {
        let a = r(&[0, 1, 2]);
        let b = r(&[2, 1, 5]); // node 1 repeats
        assert_eq!(Route::join(a.nodes(), &b), Err(InvalidRoute::Loop(NodeId::new(1))));
    }

    #[test]
    #[should_panic(expected = "junction")]
    fn join_requires_shared_node() {
        let _ = Route::join(r(&[0, 1]).nodes(), &r(&[2, 3]));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", r(&[0, 1, 2])), "n0-n1-n2");
        assert_eq!(format!("{}", Link::new(NodeId::new(1), NodeId::new(2))), "n1->n2");
    }

    #[test]
    fn single_node_route() {
        let route = Route::single(NodeId::new(5));
        assert_eq!(route.hops(), 0);
        assert_eq!(route.source(), route.destination());
    }

    #[test]
    fn an_inline_route_is_no_wider_than_forty_bytes() {
        assert!(std::mem::size_of::<InlineRoute>() <= 40, "{}", std::mem::size_of::<InlineRoute>());
    }

    /// A route is a pointer and a length: every data packet, reply and
    /// cache answer carries one.
    #[test]
    fn a_route_is_a_shared_slice() {
        assert_eq!(std::mem::size_of::<Route>(), 16);
        let route = r(&[0, 1, 2]);
        let copy = route.clone();
        assert!(std::ptr::eq(route.nodes(), copy.nodes()), "a clone shares the nodes");
    }

    #[test]
    fn from_slice_validates_like_new() {
        let ids = |ids: &[u16]| ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        assert_eq!(Route::from_slice(&ids(&[4, 2, 7])), Route::new(ids(&[4, 2, 7])));
        assert_eq!(Route::from_slice(&[]), Err(InvalidRoute::Empty));
        assert_eq!(Route::from_slice(&ids(&[4, 2, 4])), Err(InvalidRoute::Loop(NodeId::new(4))));
    }

    /// Every frame in flight carries a `Packet`, and a request carries its
    /// path by value: the request is the widest packet, so a path that
    /// widened it would widen all of them.
    #[test]
    fn a_request_path_keeps_the_packet_at_seventy_two_bytes() {
        use crate::dsr::{Packet, RouteRequest};
        assert_eq!(std::mem::size_of::<Packet>(), 72);
        assert!(
            std::mem::size_of::<RouteRequest>() <= 72,
            "{}",
            std::mem::size_of::<RouteRequest>()
        );
    }

    #[test]
    fn inline_routes_copy_every_node_on_both_sides_of_the_spill() {
        let ids: Vec<NodeId> = (0..24).map(|i| NodeId::new(3 * i + 1)).collect();
        for len in 1..=ids.len() {
            let route = InlineRoute::from_slice(&ids[..len]);
            assert_eq!(route.nodes(), &ids[..len], "{len} nodes");
            assert_eq!(route.destination(), ids[len - 1], "{len} nodes");
            assert_eq!(route.clone(), route, "{len} nodes");
            assert_eq!(matches!(route.0, Repr::Spilled(_)), len > InlineRoute::CAP, "{len} nodes");
        }
        // Equality is by the live nodes, not the padding after them.
        assert_ne!(InlineRoute::from_slice(&ids[..3]), InlineRoute::from_slice(&ids[..4]));
    }

    #[test]
    fn pushing_keeps_every_node_across_the_spill() {
        let ids: Vec<NodeId> = (0..24).map(|i| NodeId::new(3 * i + 1)).collect();
        let mut path = InlineRoute::from_slice(&ids[..1]);
        for len in 2..=ids.len() {
            path.push(ids[len - 1]).expect("a new node");
            assert_eq!(path.nodes(), &ids[..len], "{len} nodes");
            assert_eq!(path, InlineRoute::from_slice(&ids[..len]), "{len} nodes");
            assert_eq!(matches!(path.0, Repr::Spilled(_)), len > InlineRoute::CAP, "{len} nodes");
        }
    }

    #[test]
    fn pushing_a_node_already_on_the_path_is_refused() {
        for len in [3, InlineRoute::CAP, InlineRoute::CAP + 2] {
            let ids: Vec<NodeId> = (0..len as u16).map(NodeId::new).collect();
            let mut path = InlineRoute::from_slice(&ids);
            assert_eq!(path.push(NodeId::new(1)), Err(InvalidRoute::Loop(NodeId::new(1))));
            assert_eq!(path.nodes(), &ids[..], "{len} nodes: left as it was");
        }
    }

    #[test]
    fn a_path_from_a_peer_may_loop() {
        let ids = |ids: &[u16]| ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        assert!(InlineRoute::from_slice(&ids(&[0, 2, 5])).is_loop_free());
        assert!(!InlineRoute::from_slice(&ids(&[0, 2, 0])).is_loop_free());
        let long: Vec<u16> = (0..22).chain([4]).collect();
        assert!(!InlineRoute::from_slice(&ids(&long)).is_loop_free(), "spilled");
    }

    #[test]
    fn back_from_reverses_the_prefix() {
        let route = r(&[0, 1, 2, 3]);
        assert_eq!(route.back_from(NodeId::new(2)), Some(r(&[2, 1, 0])));
        assert_eq!(route.back_from(NodeId::new(3)), Some(route.reversed()));
        assert_eq!(route.back_from(NodeId::new(7)), None);
    }

    #[test]
    #[should_panic(expected = "never empty")]
    fn an_inline_route_refuses_to_be_empty() {
        InlineRoute::from_slice(&[]);
    }
}
