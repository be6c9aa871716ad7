//! Packaging hierarchy and Dragonfly topology of the scale-out TSP system.
//!
//! The system is packaged as (paper §2.2, Fig 5):
//!
//! * **TSP** — one chip with 11 chip-to-chip (C2C) ports: 7 *local* and 4
//!   *global*,
//! * **node** — a 4U chassis of 8 TSPs, fully connected by the 7 local
//!   links (28 intra-node cables), exposing 8 × 4 = 32 global ports as one
//!   *virtual 32-port high-radix router*,
//! * **rack** — 9 nodes (72 TSPs, 288 global ports), of which one node per
//!   rack may be reserved as an N+1 hot spare,
//! * **system** — up to 33 fully-connected nodes (264 TSPs) in the
//!   node-as-group regime, or up to 145 racks (10,440 TSPs) in the
//!   rack-as-group Dragonfly regime.
//!
//! [`Topology`] holds the explicit wiring (every cable is a [`Link`] with a
//! cable class and endpoints) plus constant-time id arithmetic for the
//! packaging hierarchy. Route computation lives in [`route`], the Fig 2
//! bandwidth profile in [`bandwidth`].

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod build;
pub mod route;

use std::fmt;

/// TSPs per node (paper §2.2: "a 4U chassis enclosure which houses eight
/// TSPs").
pub const TSPS_PER_NODE: usize = 8;

/// Local C2C links per TSP, fully connecting it to its 7 node peers.
pub const LOCAL_LINKS_PER_TSP: usize = 7;

/// Global C2C links per TSP.
pub const GLOBAL_LINKS_PER_TSP: usize = 4;

/// Total C2C ports per TSP (7 local + 4 global = 11).
pub const PORTS_PER_TSP: usize = LOCAL_LINKS_PER_TSP + GLOBAL_LINKS_PER_TSP;

/// Global ports exposed by one node acting as a virtual router (8 × 4).
pub const GLOBAL_PORTS_PER_NODE: usize = TSPS_PER_NODE * GLOBAL_LINKS_PER_TSP;

/// Nodes per rack (paper §2.2: "the rack, consisting of nine (9) nodes").
pub const NODES_PER_RACK: usize = 9;

/// TSPs per rack.
pub const TSPS_PER_RACK: usize = TSPS_PER_NODE * NODES_PER_RACK;

/// Maximum nodes in the fully-connected node-as-group regime (paper §2.2:
/// "scale out up to 33 nodes for total of 33 × 8 = 264 TSPs").
pub const MAX_FULL_CONNECT_NODES: usize = 33;

/// Maximum racks in the rack-as-group Dragonfly regime (paper §2.2:
/// "delivers up to 145 racks").
pub const MAX_RACKS: usize = 145;

/// Maximum TSPs in the largest configuration (145 × 72 = 10,440).
pub const MAX_TSPS: usize = MAX_RACKS * TSPS_PER_RACK;

/// Intra-node cables required to fully connect 8 TSPs (8 choose 2).
pub const INTRA_NODE_CABLES: usize = TSPS_PER_NODE * (TSPS_PER_NODE - 1) / 2;

/// Identifier of one TSP in the system (dense, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TspId(pub u32);

impl TspId {
    /// Index into dense per-TSP arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The node this TSP is packaged in.
    pub fn node(self) -> NodeId {
        NodeId(self.0 / TSPS_PER_NODE as u32)
    }

    /// Position of this TSP within its node (0..8).
    pub fn slot(self) -> usize {
        (self.0 as usize) % TSPS_PER_NODE
    }

    /// The rack this TSP is packaged in.
    pub fn rack(self) -> RackId {
        RackId(self.0 / TSPS_PER_RACK as u32)
    }
}

impl fmt::Display for TspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tsp{}", self.0)
    }
}

/// Identifier of one 8-TSP node (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The rack containing this node.
    pub fn rack(self) -> RackId {
        RackId(self.0 / NODES_PER_RACK as u32)
    }

    /// Position of this node within its rack (0..9).
    pub fn slot(self) -> usize {
        (self.0 as usize) % NODES_PER_RACK
    }

    /// The TSPs packaged in this node.
    pub fn tsps(self) -> impl Iterator<Item = TspId> {
        let base = self.0 * TSPS_PER_NODE as u32;
        (0..TSPS_PER_NODE as u32).map(move |i| TspId(base + i))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of one 9-node rack (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

impl RackId {
    /// Index into dense per-rack arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The nodes packaged in this rack.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        let base = self.0 * NODES_PER_RACK as u32;
        (0..NODES_PER_RACK as u32).map(move |i| NodeId(base + i))
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// Index of a link in a [`Topology`]'s link table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into dense per-link arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Physical cable class, which determines length, medium and cost
/// (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CableClass {
    /// Low-profile electrical cable inside the 4U chassis (≤ 0.75 m).
    IntraNode,
    /// QSFP electrical cable within a rack (< 2 m).
    IntraRack,
    /// Active optical cable between racks.
    InterRack,
}

impl CableClass {
    /// Representative one-way propagation plus serdes latency of this cable
    /// class in core clock cycles, before per-link jitter.
    ///
    /// Calibrated so intra-node links characterize at a mean of ≈217 cycles
    /// (paper Table 2) and a network hop including switching costs ≈722 ns
    /// (paper §5.6).
    pub fn base_latency_cycles(self) -> u64 {
        match self {
            CableClass::IntraNode => 216,
            CableClass::IntraRack => 270,
            CableClass::InterRack => 430,
        }
    }
}

/// One C2C cable between two TSP ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: TspId,
    /// Port number on `a` (0..7 local, 7..11 global).
    pub a_port: u8,
    /// The other endpoint.
    pub b: TspId,
    /// Port number on `b`.
    pub b_port: u8,
    /// Cable class.
    pub class: CableClass,
}

impl Link {
    /// Given one endpoint, returns the TSP at the other end.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of this link.
    pub fn other_end(&self, from: TspId) -> TspId {
        if from == self.a {
            self.b
        } else {
            assert_eq!(from, self.b, "TSP {from} is not an endpoint of this link");
            self.a
        }
    }

    /// True if `t` is one of the two endpoints.
    pub fn touches(&self, t: TspId) -> bool {
        self.a == t || self.b == t
    }

    /// True if this is a global (inter-node) cable.
    pub fn is_global(&self) -> bool {
        !matches!(self.class, CableClass::IntraNode)
    }
}

/// The scale regime a topology was built in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleRegime {
    /// A single fully-connected 8-TSP node.
    SingleNode,
    /// A single 8-TSP node wired as a radix-8 torus (ring) with
    /// triple-connected neighbor links (paper §4.4).
    TorusNode,
    /// 2–33 nodes, every node pair directly connected by global links.
    FullyConnectedNodes,
    /// Rack-as-group Dragonfly: nodes doubly connected within a rack,
    /// racks connected all-to-all.
    RackDragonfly,
}

/// Errors from topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Requested more nodes than the regime supports.
    TooManyNodes {
        /// Requested node count.
        requested: usize,
        /// Maximum supported by the regime.
        max: usize,
    },
    /// Requested more racks than the maximum configuration.
    TooManyRacks {
        /// Requested rack count.
        requested: usize,
    },
    /// A configuration needs at least this many units.
    TooFew {
        /// What was being counted.
        what: &'static str,
        /// Minimum required.
        min: usize,
    },
    /// No route exists between the requested endpoints.
    NoRoute {
        /// Source TSP.
        from: TspId,
        /// Destination TSP.
        to: TspId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooManyNodes { requested, max } => {
                write!(
                    f,
                    "{requested} nodes requested, regime supports at most {max}"
                )
            }
            TopologyError::TooManyRacks { requested } => {
                write!(
                    f,
                    "{requested} racks requested, maximum configuration is {MAX_RACKS}"
                )
            }
            TopologyError::TooFew { what, min } => write!(f, "need at least {min} {what}"),
            TopologyError::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An explicit wiring of a multi-TSP system.
///
/// Construction goes through the builders in [`build`]:
/// [`Topology::single_node`], [`Topology::fully_connected_nodes`] and
/// [`Topology::rack_dragonfly`].
#[derive(Debug, Clone)]
pub struct Topology {
    regime: ScaleRegime,
    num_tsps: usize,
    links: Vec<Link>,
    /// adjacency: for each TSP, the (link, peer) pairs, sorted by peer then
    /// link id for determinism.
    adj: Vec<Vec<(LinkId, TspId)>>,
    /// O(1) port index: for each TSP, port number → the cable on that port
    /// as `(link, peer, peer_port)`. Every (TSP, port) pair hosts at most
    /// one cable, so the entry is unique.
    ports: Vec<[Option<(LinkId, TspId, u8)>; PORTS_PER_TSP]>,
    /// Nodes currently marked failed (excluded from routing).
    failed_nodes: Vec<NodeId>,
}

impl Topology {
    pub(crate) fn from_links(regime: ScaleRegime, num_tsps: usize, links: Vec<Link>) -> Self {
        let mut adj: Vec<Vec<(LinkId, TspId)>> = vec![Vec::new(); num_tsps];
        let mut ports: Vec<[Option<(LinkId, TspId, u8)>; PORTS_PER_TSP]> =
            vec![[None; PORTS_PER_TSP]; num_tsps];
        let mut plug = |t: TspId, port: u8, entry: (LinkId, TspId, u8)| {
            let slot = &mut ports[t.index()][port as usize];
            assert!(slot.is_none(), "{t} port {port} double-wired");
            *slot = Some(entry);
        };
        for (i, l) in links.iter().enumerate() {
            adj[l.a.index()].push((LinkId(i as u32), l.b));
            adj[l.b.index()].push((LinkId(i as u32), l.a));
            plug(l.a, l.a_port, (LinkId(i as u32), l.b, l.b_port));
            plug(l.b, l.b_port, (LinkId(i as u32), l.a, l.a_port));
        }
        for v in &mut adj {
            v.sort_by_key(|&(lid, peer)| (peer, lid));
        }
        Topology {
            regime,
            num_tsps,
            links,
            adj,
            ports,
            failed_nodes: Vec::new(),
        }
    }

    /// The scale regime this topology was built in.
    pub fn regime(&self) -> ScaleRegime {
        self.regime
    }

    /// Number of TSPs (network endpoints).
    pub fn num_tsps(&self) -> usize {
        self.num_tsps
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_tsps / TSPS_PER_NODE
    }

    /// All TSP ids.
    pub fn tsps(&self) -> impl Iterator<Item = TspId> + '_ {
        (0..self.num_tsps as u32).map(TspId)
    }

    /// All links (cables) in the system.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The (link, peer) adjacency of one TSP, in deterministic order.
    pub fn neighbors(&self, t: TspId) -> &[(LinkId, TspId)] {
        &self.adj[t.index()]
    }

    /// The cable plugged into `port` of `t`, as `(link, peer, peer_port)`,
    /// or `None` for an unwired port. Constant time: this is the index the
    /// co-simulation driver uses to map an emission on a port to its
    /// delivery endpoint without scanning the link table.
    pub fn port_peer(&self, t: TspId, port: u8) -> Option<(LinkId, TspId, u8)> {
        self.ports
            .get(t.index())
            .and_then(|p| p.get(port as usize))
            .copied()
            .flatten()
    }

    /// The link on `t`'s `port`, or `None` for an unwired port. O(1).
    pub fn link_on_port(&self, t: TspId, port: u8) -> Option<LinkId> {
        self.port_peer(t, port).map(|(lid, _, _)| lid)
    }

    /// All links directly connecting `a` to `b` (the torus local group
    /// triple-connects some pairs, so there may be several).
    pub fn links_between(&self, a: TspId, b: TspId) -> Vec<LinkId> {
        self.adj[a.index()]
            .iter()
            .filter(|&&(_, peer)| peer == b)
            .map(|&(lid, _)| lid)
            .collect()
    }

    /// Total global SRAM capacity contributed by all TSPs, in bytes
    /// (220 MiB per TSP, paper abstract).
    pub fn global_memory_bytes(&self) -> u64 {
        self.num_tsps as u64 * 220 * 1024 * 1024
    }

    /// Marks a node as failed; routing will avoid its TSPs. See `tsm-fault`
    /// for the hot-spare remap built on top of this.
    pub fn fail_node(&mut self, n: NodeId) {
        if !self.failed_nodes.contains(&n) {
            self.failed_nodes.push(n);
        }
    }

    /// Clears a node failure.
    pub fn restore_node(&mut self, n: NodeId) {
        self.failed_nodes.retain(|&f| f != n);
    }

    /// Nodes currently marked failed.
    pub fn failed_nodes(&self) -> &[NodeId] {
        &self.failed_nodes
    }

    /// True if the TSP belongs to a failed node.
    pub fn is_failed(&self, t: TspId) -> bool {
        self.failed_nodes.contains(&t.node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packaging_constants_match_paper() {
        assert_eq!(PORTS_PER_TSP, 11);
        assert_eq!(GLOBAL_PORTS_PER_NODE, 32);
        assert_eq!(TSPS_PER_RACK, 72);
        assert_eq!(MAX_TSPS, 10_440);
        assert_eq!(INTRA_NODE_CABLES, 28);
        assert_eq!(MAX_FULL_CONNECT_NODES * TSPS_PER_NODE, 264);
    }

    #[test]
    fn id_arithmetic_is_consistent() {
        let t = TspId(8 * 9 + 3); // node 9, which is rack 1's first node
        assert_eq!(t.node(), NodeId(9));
        assert_eq!(t.slot(), 3);
        assert_eq!(t.rack(), RackId(1));
        assert_eq!(NodeId(9).rack(), RackId(1));
        assert_eq!(NodeId(9).slot(), 0);
    }

    #[test]
    fn node_tsps_enumerates_eight() {
        let ts: Vec<_> = NodeId(2).tsps().collect();
        assert_eq!(ts.len(), 8);
        assert_eq!(ts[0], TspId(16));
        assert_eq!(ts[7], TspId(23));
        assert!(ts.iter().all(|t| t.node() == NodeId(2)));
    }

    #[test]
    fn rack_nodes_enumerates_nine() {
        let ns: Vec<_> = RackId(1).nodes().collect();
        assert_eq!(ns.len(), 9);
        assert_eq!(ns[0], NodeId(9));
        assert_eq!(ns[8], NodeId(17));
    }

    #[test]
    fn link_other_end_and_touches() {
        let l = Link {
            a: TspId(0),
            a_port: 0,
            b: TspId(1),
            b_port: 0,
            class: CableClass::IntraNode,
        };
        assert_eq!(l.other_end(TspId(0)), TspId(1));
        assert_eq!(l.other_end(TspId(1)), TspId(0));
        assert!(l.touches(TspId(0)) && l.touches(TspId(1)) && !l.touches(TspId(2)));
        assert!(!l.is_global());
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_panics_for_stranger() {
        let l = Link {
            a: TspId(0),
            a_port: 0,
            b: TspId(1),
            b_port: 0,
            class: CableClass::IntraNode,
        };
        l.other_end(TspId(5));
    }

    #[test]
    fn port_index_matches_link_table() {
        let topo = Topology::single_node();
        for l in topo.links() {
            let lid = topo.links().iter().position(|x| x == l).unwrap();
            assert_eq!(
                topo.port_peer(l.a, l.a_port),
                Some((LinkId(lid as u32), l.b, l.b_port))
            );
            assert_eq!(
                topo.port_peer(l.b, l.b_port),
                Some((LinkId(lid as u32), l.a, l.a_port))
            );
            assert_eq!(topo.link_on_port(l.a, l.a_port), Some(LinkId(lid as u32)));
        }
        // single node: global ports 7..11 are unwired
        for t in topo.tsps() {
            for p in 7..11 {
                assert_eq!(topo.port_peer(t, p), None);
            }
        }
        // out-of-range port numbers are None, not a panic
        assert_eq!(topo.port_peer(TspId(0), 200), None);
    }

    #[test]
    #[should_panic(expected = "double-wired")]
    fn double_wired_port_is_rejected() {
        let l = |a_port: u8| Link {
            a: TspId(0),
            a_port,
            b: TspId(1),
            b_port: a_port,
            class: CableClass::IntraNode,
        };
        // two cables on TSP 0 port 3
        Topology::from_links(ScaleRegime::SingleNode, 8, vec![l(3), l(3)]);
    }

    #[test]
    fn failed_node_tracking() {
        let mut topo = Topology::from_links(ScaleRegime::SingleNode, 8, Vec::new());
        assert!(!topo.is_failed(TspId(0)));
        topo.fail_node(NodeId(0));
        topo.fail_node(NodeId(0)); // idempotent
        assert_eq!(topo.failed_nodes().len(), 1);
        assert!(topo.is_failed(TspId(3)));
        topo.restore_node(NodeId(0));
        assert!(!topo.is_failed(TspId(3)));
    }

    #[test]
    fn global_memory_capacity_claims() {
        let topo = Topology::from_links(ScaleRegime::SingleNode, 264, Vec::new());
        // 264 TSPs -> 56 GiB (paper §2.2 "combined 56 GiBytes of global SRAM")
        assert_eq!(topo.global_memory_bytes() / (1024 * 1024 * 1024), 56);
        let max = Topology::from_links(ScaleRegime::RackDragonfly, MAX_TSPS, Vec::new());
        // 10,440 TSPs -> more than 2 TB (paper abstract)
        assert!(max.global_memory_bytes() > 2_000_000_000_000);
    }
}
