//! Hop-by-hop flow path resolution.
//!
//! When a flow starts (or forwarding state changes), Horse walks the flow
//! from its source host through each node's forwarding state to find the
//! link path the fluid engine will charge. The walk mirrors what a packet
//! would experience:
//!
//! * a **host** delivers locally if it is the destination, otherwise sends
//!   out its single uplink;
//! * a **router** LPM-looks-up the destination IP and hashes over the ECMP
//!   next-hop set;
//! * a **switch** consults its OpenFlow table — a miss surfaces as
//!   [`ResolveError::TableMiss`], which the Connection Manager turns into a
//!   `PACKET_IN` to the controller.

use crate::fib::Fib;
use crate::flowtable::{Action, FlowKey, FlowTable};
use crate::hash::{EcmpHasher, HashMode};
use horse_net::flow::FiveTuple;
use horse_net::topology::{LinkId, NodeId, PortId, Topology};
use std::fmt;

/// Per-node forwarding state.
#[derive(Debug, Clone)]
pub enum NodeForwarding {
    /// An end host: one uplink, no forwarding.
    Host,
    /// An IP router with a FIB and an ECMP hasher.
    Router {
        /// The forwarding table (fed by the emulated routing daemon).
        fib: Fib,
        /// ECMP next-hop selection.
        hasher: EcmpHasher,
    },
    /// An OpenFlow switch with a flow table and a hasher for
    /// [`Action::EcmpHash`] entries.
    Switch {
        /// The flow table (fed by the SDN controller).
        table: FlowTable,
        /// Hash used by `EcmpHash` actions.
        hasher: EcmpHasher,
    },
}

/// Why a path could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A switch had no matching entry (or an explicit send-to-controller
    /// action): the flow's first packet becomes a `PACKET_IN`.
    TableMiss {
        /// The switch that missed.
        node: NodeId,
        /// The port the flow arrived on there.
        in_port: PortId,
    },
    /// A router had no route for the destination.
    NoRoute {
        /// The router lacking a route.
        node: NodeId,
    },
    /// A node tried to forward out a port with no (up) link.
    LinkDown {
        /// The node.
        node: NodeId,
        /// The dead port.
        port: PortId,
    },
    /// A non-destination host was asked to forward.
    NotForwarding {
        /// The host.
        node: NodeId,
    },
    /// A matching entry dropped the flow.
    Dropped {
        /// The switch with the drop rule.
        node: NodeId,
    },
    /// The walk exceeded the hop budget (forwarding loop).
    Loop,
    /// The walk reached a node with no forwarding state registered.
    Unknown {
        /// The unregistered node.
        node: NodeId,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::TableMiss { node, in_port } => {
                write!(f, "table miss at {node} (in port {in_port})")
            }
            ResolveError::NoRoute { node } => write!(f, "no route at {node}"),
            ResolveError::LinkDown { node, port } => write!(f, "link down at {node} port {port}"),
            ResolveError::NotForwarding { node } => write!(f, "host {node} does not forward"),
            ResolveError::Dropped { node } => write!(f, "dropped by rule at {node}"),
            ResolveError::Loop => write!(f, "forwarding loop"),
            ResolveError::Unknown { node } => write!(f, "no forwarding state for {node}"),
        }
    }
}

impl std::error::Error for ResolveError {}

const MAX_HOPS: usize = 64;

/// All per-node forwarding state plus the resolution walk.
#[derive(Debug, Default)]
pub struct DataPlane {
    /// Indexed by `NodeId` value (node ids are dense); `None` = the node
    /// has no forwarding state registered.
    nodes: Vec<Option<NodeForwarding>>,
}

impl DataPlane {
    /// An empty data plane.
    pub fn new() -> DataPlane {
        DataPlane::default()
    }

    fn register(&mut self, node: NodeId, state: NodeForwarding) {
        let i = node.0 as usize;
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, None);
        }
        self.nodes[i] = Some(state);
    }

    /// Registers a host.
    pub fn add_host(&mut self, node: NodeId) {
        self.register(node, NodeForwarding::Host);
    }

    /// Registers a router with the given hash mode (seeded by node id).
    pub fn add_router(&mut self, node: NodeId, mode: HashMode) {
        self.register(
            node,
            NodeForwarding::Router {
                fib: Fib::new(),
                hasher: EcmpHasher::new(mode, u64::from(node.0)),
            },
        );
    }

    /// Registers a switch with the given hash mode for `EcmpHash` actions.
    pub fn add_switch(&mut self, node: NodeId, mode: HashMode) {
        self.register(
            node,
            NodeForwarding::Switch {
                table: FlowTable::new(),
                hasher: EcmpHasher::new(mode, u64::from(node.0)),
            },
        );
    }

    /// Registers every node of `topo` by its declared kind.
    pub fn from_topology(
        topo: &Topology,
        router_mode: HashMode,
        switch_mode: HashMode,
    ) -> DataPlane {
        let mut dp = DataPlane::new();
        for id in topo.node_ids() {
            match topo.node(id).kind {
                horse_net::topology::NodeKind::Host => dp.add_host(id),
                horse_net::topology::NodeKind::Router => dp.add_router(id, router_mode),
                horse_net::topology::NodeKind::Switch => dp.add_switch(id, switch_mode),
            }
        }
        dp
    }

    /// The FIB of a router.
    pub fn fib(&self, node: NodeId) -> Option<&Fib> {
        match self.forwarding(node)? {
            NodeForwarding::Router { fib, .. } => Some(fib),
            _ => None,
        }
    }

    /// Mutable FIB of a router (routes installed by the CM).
    pub fn fib_mut(&mut self, node: NodeId) -> Option<&mut Fib> {
        match self.forwarding_mut(node)? {
            NodeForwarding::Router { fib, .. } => Some(fib),
            _ => None,
        }
    }

    /// The flow table of a switch.
    pub fn table(&self, node: NodeId) -> Option<&FlowTable> {
        match self.forwarding(node)? {
            NodeForwarding::Switch { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Mutable flow table of a switch (rules installed by the controller).
    pub fn table_mut(&mut self, node: NodeId) -> Option<&mut FlowTable> {
        match self.forwarding_mut(node)? {
            NodeForwarding::Switch { table, .. } => Some(table),
            _ => None,
        }
    }

    /// The forwarding state of a node.
    pub fn forwarding(&self, node: NodeId) -> Option<&NodeForwarding> {
        self.nodes.get(node.0 as usize)?.as_ref()
    }

    fn forwarding_mut(&mut self, node: NodeId) -> Option<&mut NodeForwarding> {
        self.nodes.get_mut(node.0 as usize)?.as_mut()
    }

    /// Walks `tuple` from `src` to `dst`, returning the link path.
    pub fn resolve(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        tuple: &FiveTuple,
    ) -> Result<Vec<LinkId>, ResolveError> {
        let mut path = Vec::new();
        let mut cur = src;
        let mut in_port: Option<PortId> = None;
        for _ in 0..MAX_HOPS {
            if cur == dst {
                return Ok(path);
            }
            let out_port = self.decide(topo, cur, in_port, dst, tuple)?;
            let link_id = topo
                .link_at(cur, out_port)
                .filter(|l| topo.link(*l).up)
                .ok_or(ResolveError::LinkDown {
                    node: cur,
                    port: out_port,
                })?;
            let link = topo.link(link_id);
            let next = link.other(cur);
            in_port = link.endpoint_on(next).map(|e| e.port);
            path.push(link_id);
            cur = next;
        }
        Err(ResolveError::Loop)
    }

    /// One node's forwarding decision for a flow.
    fn decide(
        &self,
        topo: &Topology,
        node: NodeId,
        in_port: Option<PortId>,
        _dst: NodeId,
        tuple: &FiveTuple,
    ) -> Result<PortId, ResolveError> {
        match self.forwarding(node) {
            None => Err(ResolveError::Unknown { node }),
            Some(NodeForwarding::Host) => {
                if in_port.is_some() {
                    // A host received a flow that isn't for it.
                    return Err(ResolveError::NotForwarding { node });
                }
                // Source host: single uplink, port 0.
                if topo.node(node).port_count() == 0 {
                    return Err(ResolveError::LinkDown {
                        node,
                        port: PortId(0),
                    });
                }
                Ok(PortId(0))
            }
            Some(NodeForwarding::Router { fib, hasher }) => {
                let (_, entry) = fib
                    .lookup(tuple.dst_ip)
                    .ok_or(ResolveError::NoRoute { node })?;
                if entry.next_hops.is_empty() {
                    return Err(ResolveError::NoRoute { node });
                }
                let idx = hasher.select(tuple, entry.next_hops.len());
                Ok(entry.next_hops[idx].port)
            }
            Some(NodeForwarding::Switch { table, hasher }) => {
                let key = FlowKey::ipv4(in_port, *tuple);
                let entry = table.lookup(&key).ok_or(ResolveError::TableMiss {
                    node,
                    in_port: in_port.unwrap_or(PortId(0)),
                })?;
                match entry.decide(tuple, hasher) {
                    Action::Output(p) => Ok(p),
                    Action::Controller => Err(ResolveError::TableMiss {
                        node,
                        in_port: in_port.unwrap_or(PortId(0)),
                    }),
                    Action::Drop | Action::EcmpHash => Err(ResolveError::Dropped { node }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::{NextHop, RouteEntry, RouteOrigin};
    use crate::flowtable::{FlowEntry, Match};
    use horse_net::addr::Ipv4Prefix;
    use horse_net::topology::NodeKind;
    use horse_sim::SimTime;
    use std::net::Ipv4Addr;

    const G: f64 = 1e9;

    /// h0 - r0 - r1 - h1 line of routers.
    fn router_line() -> (Topology, DataPlane, [NodeId; 4]) {
        let mut t = Topology::new();
        let sn0: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let sn1: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let h0 = t.add_host("h0", Ipv4Addr::new(10, 0, 0, 10), sn0);
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 1, 10), sn1);
        let r0 = t.add_router("r0", Ipv4Addr::new(10, 255, 0, 0));
        let r1 = t.add_router("r1", Ipv4Addr::new(10, 255, 0, 1));
        t.add_link(h0, r0, G, 0);
        t.add_link(r0, r1, G, 0);
        t.add_link(r1, h1, G, 0);
        let mut dp = DataPlane::from_topology(&t, HashMode::SrcDst, HashMode::FiveTuple);
        // r0: 10.0.1.0/24 via r1 (port 1 = second link added on r0).
        let (_, r0_to_r1) = t.link_between(r0, r1).unwrap();
        dp.fib_mut(r0).unwrap().insert(
            sn1,
            RouteEntry::new(
                vec![NextHop {
                    port: r0_to_r1,
                    gateway: Ipv4Addr::new(10, 255, 0, 1),
                }],
                RouteOrigin::Bgp,
            ),
        );
        // r1: 10.0.1.0/24 connected via h1.
        let (_, r1_to_h1) = t.link_between(r1, h1).unwrap();
        dp.fib_mut(r1).unwrap().insert(
            sn1,
            RouteEntry::new(
                vec![NextHop {
                    port: r1_to_h1,
                    gateway: Ipv4Addr::new(10, 0, 1, 10),
                }],
                RouteOrigin::Connected,
            ),
        );
        (t, dp, [h0, h1, r0, r1])
    }

    fn tuple() -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 10),
            1234,
            Ipv4Addr::new(10, 0, 1, 10),
            80,
        )
    }

    #[test]
    fn resolves_through_routers() {
        let (t, dp, [h0, h1, ..]) = router_line();
        let path = dp.resolve(&t, h0, h1, &tuple()).unwrap();
        assert_eq!(path.len(), 3);
        let nodes = t.path_nodes(h0, &path).unwrap();
        assert_eq!(nodes.last(), Some(&h1));
    }

    #[test]
    fn missing_route_is_noroute() {
        let (t, mut dp, [h0, h1, r0, _]) = router_line();
        dp.fib_mut(r0).unwrap().flush_origin(RouteOrigin::Bgp);
        match dp.resolve(&t, h0, h1, &tuple()) {
            Err(ResolveError::NoRoute { node }) => assert_eq!(node, r0),
            other => panic!("expected NoRoute, got {other:?}"),
        }
    }

    #[test]
    fn down_link_detected() {
        let (mut t, dp, [h0, h1, r0, r1]) = router_line();
        let (lid, _) = t.link_between(r0, r1).unwrap();
        t.link_mut(lid).up = false;
        match dp.resolve(&t, h0, h1, &tuple()) {
            Err(ResolveError::LinkDown { node, .. }) => assert_eq!(node, r0),
            other => panic!("expected LinkDown, got {other:?}"),
        }
    }

    #[test]
    fn same_node_is_empty_path() {
        let (t, dp, [h0, ..]) = router_line();
        assert_eq!(dp.resolve(&t, h0, h0, &tuple()).unwrap(), vec![]);
    }

    /// h0 - s0 - h1 switch triangle for SDN cases.
    fn switch_pair() -> (Topology, DataPlane, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let h0 = t.add_host("h0", Ipv4Addr::new(10, 0, 0, 1), sn);
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 2), sn);
        let s0 = t.add_switch("s0", Ipv4Addr::new(10, 255, 0, 1));
        t.add_link(h0, s0, G, 0);
        t.add_link(s0, h1, G, 0);
        let dp = DataPlane::from_topology(&t, HashMode::SrcDst, HashMode::FiveTuple);
        (t, dp, h0, h1, s0)
    }

    #[test]
    fn empty_switch_table_is_table_miss() {
        let (t, dp, h0, h1, s0) = switch_pair();
        match dp.resolve(&t, h0, h1, &tuple()) {
            Err(ResolveError::TableMiss { node, in_port }) => {
                assert_eq!(node, s0);
                assert_eq!(in_port, PortId(0));
            }
            other => panic!("expected TableMiss, got {other:?}"),
        }
    }

    #[test]
    fn installed_rule_resolves_switch_path() {
        let (t, mut dp, h0, h1, s0) = switch_pair();
        let (_, out) = t.link_between(s0, h1).unwrap();
        dp.table_mut(s0).unwrap().add(
            FlowEntry::new(Match::exact(tuple()), 10, vec![Action::Output(out)]),
            SimTime::ZERO,
        );
        let path = dp.resolve(&t, h0, h1, &tuple()).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn drop_rule_reports_dropped() {
        let (t, mut dp, h0, h1, s0) = switch_pair();
        dp.table_mut(s0).unwrap().add(
            FlowEntry::new(Match::any(), 1, vec![Action::Drop]),
            SimTime::ZERO,
        );
        assert_eq!(
            dp.resolve(&t, h0, h1, &tuple()),
            Err(ResolveError::Dropped { node: s0 })
        );
    }

    #[test]
    fn controller_action_reports_miss() {
        let (t, mut dp, h0, h1, s0) = switch_pair();
        dp.table_mut(s0).unwrap().add(
            FlowEntry::new(Match::any(), 1, vec![Action::Controller]),
            SimTime::ZERO,
        );
        assert!(matches!(
            dp.resolve(&t, h0, h1, &tuple()),
            Err(ResolveError::TableMiss { .. })
        ));
    }

    #[test]
    fn forwarding_loop_detected() {
        // Two switches pointing at each other.
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let h0 = t.add_host("h0", Ipv4Addr::new(10, 0, 0, 1), sn);
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 2), sn);
        let s0 = t.add_switch("s0", Ipv4Addr::new(10, 255, 0, 1));
        let s1 = t.add_switch("s1", Ipv4Addr::new(10, 255, 0, 2));
        t.add_link(h0, s0, G, 0);
        t.add_link(s0, s1, G, 0);
        t.add_link(s1, h1, G, 0);
        let mut dp = DataPlane::from_topology(&t, HashMode::SrcDst, HashMode::FiveTuple);
        let (_, s0_to_s1) = t.link_between(s0, s1).unwrap();
        let (_, s1_to_s0) = t.link_between(s1, s0).unwrap();
        dp.table_mut(s0).unwrap().add(
            FlowEntry::new(Match::any(), 1, vec![Action::Output(s0_to_s1)]),
            SimTime::ZERO,
        );
        dp.table_mut(s1).unwrap().add(
            FlowEntry::new(Match::any(), 1, vec![Action::Output(s1_to_s0)]),
            SimTime::ZERO,
        );
        assert_eq!(dp.resolve(&t, h0, h1, &tuple()), Err(ResolveError::Loop));
    }

    #[test]
    fn host_does_not_forward_transit() {
        // h0 - h1 - h2 line: h1 must refuse transit.
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let h0 = t.add_host("h0", Ipv4Addr::new(10, 0, 0, 1), sn);
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 2), sn);
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 3), sn);
        t.add_link(h0, h1, G, 0);
        t.add_link(h1, h2, G, 0);
        let dp = DataPlane::from_topology(&t, HashMode::SrcDst, HashMode::FiveTuple);
        assert_eq!(
            dp.resolve(&t, h0, h2, &tuple()),
            Err(ResolveError::NotForwarding { node: h1 })
        );
    }

    #[test]
    fn ecmp_router_splits_by_hash() {
        // src host, two parallel routers merged at a far router, dst host.
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let dn: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let h0 = t.add_host("h0", Ipv4Addr::new(10, 0, 0, 1), sn);
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 1, 1), dn);
        let r = t.add_router("r", Ipv4Addr::new(10, 255, 0, 0));
        let a = t.add_router("a", Ipv4Addr::new(10, 255, 0, 1));
        let b = t.add_router("b", Ipv4Addr::new(10, 255, 0, 2));
        let m = t.add_router("m", Ipv4Addr::new(10, 255, 0, 3));
        t.add_link(h0, r, G, 0);
        t.add_link(r, a, G, 0);
        t.add_link(r, b, G, 0);
        t.add_link(a, m, G, 0);
        t.add_link(b, m, G, 0);
        t.add_link(m, h1, G, 0);
        let mut dp = DataPlane::from_topology(&t, HashMode::FiveTuple, HashMode::FiveTuple);
        let gw = Ipv4Addr::UNSPECIFIED;
        let (_, r_a) = t.link_between(r, a).unwrap();
        let (_, r_b) = t.link_between(r, b).unwrap();
        dp.fib_mut(r).unwrap().insert(
            dn,
            RouteEntry::new(
                vec![
                    NextHop {
                        port: r_a,
                        gateway: gw,
                    },
                    NextHop {
                        port: r_b,
                        gateway: gw,
                    },
                ],
                RouteOrigin::Bgp,
            ),
        );
        for via in [a, b] {
            let (_, out) = t.link_between(via, m).unwrap();
            dp.fib_mut(via).unwrap().insert(
                dn,
                RouteEntry::new(
                    vec![NextHop {
                        port: out,
                        gateway: gw,
                    }],
                    RouteOrigin::Bgp,
                ),
            );
        }
        let (_, m_h1) = t.link_between(m, h1).unwrap();
        dp.fib_mut(m).unwrap().insert(
            dn,
            RouteEntry::new(
                vec![NextHop {
                    port: m_h1,
                    gateway: gw,
                }],
                RouteOrigin::Connected,
            ),
        );
        // Many flows with different ports must use both middle routers.
        let mut used = std::collections::HashSet::new();
        for sp in 0..32u16 {
            let tup = FiveTuple::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                1000 + sp,
                Ipv4Addr::new(10, 0, 1, 1),
                80,
            );
            let path = dp.resolve(&t, h0, h1, &tup).unwrap();
            let nodes = t.path_nodes(h0, &path).unwrap();
            used.insert(nodes[2]); // the middle router
            assert_eq!(nodes.last(), Some(&h1));
        }
        assert_eq!(used.len(), 2, "5-tuple hashing must spread over both paths");
        // Verify every node is registered; sanity on kinds.
        assert_eq!(t.nodes_of_kind(NodeKind::Router).len(), 4);
    }
}
