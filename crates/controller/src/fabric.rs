//! The controller's view of the fabric: topology, datapath ids, and path
//! computation with rule synthesis.

use horse_dataplane::flowtable::Match;
use horse_net::flow::FiveTuple;
use horse_net::topology::{LinkId, NodeId, NodeKind, PortId, Topology};
use horse_openflow::wire::{FlowMod, FlowModCommand, OfAction, OFPP_NONE};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Cached equal-cost shortest path sets, keyed by the pair of switches the
/// two hosts attach to: every host pair behind the same two switches shares
/// one set (at most edge² entries, against one per host pair seen).
type PathCache = std::cell::RefCell<BTreeMap<(NodeId, NodeId), Arc<[Vec<LinkId>]>>>;

/// The equal-cost shortest paths between two hosts, in
/// [`Topology::all_shortest_paths`] order: a shared switch-to-switch set
/// with the source's uplink and the destination's downlink around each
/// member, put together only for the path asked for.
#[derive(Debug, Clone)]
pub struct PathSet {
    /// `(uplink, downlink)` around every path of `core`; `None` when `core`
    /// already runs host to host.
    wrap: Option<(LinkId, LinkId)>,
    core: Arc<[Vec<LinkId>]>,
}

impl PathSet {
    /// Number of equal-cost paths.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True when the hosts are partitioned.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// The `i`-th path as a link sequence from the source host.
    pub fn path(&self, i: usize) -> Vec<LinkId> {
        let core = &self.core[i];
        match self.wrap {
            Some((up, down)) => {
                let mut path = Vec::with_capacity(core.len() + 2);
                path.push(up);
                path.extend_from_slice(core);
                path.push(down);
                path
            }
            None => core.clone(),
        }
    }

    /// Every path, in order.
    pub fn to_vec(&self) -> Vec<Vec<LinkId>> {
        (0..self.len()).map(|i| self.path(i)).collect()
    }
}

/// The fabric as the controller sees it. The topology is shared via
/// [`Arc`] (one fat-tree serves every run of a sweep); link-state updates
/// copy-on-write via [`Arc::make_mut`], so the controller's divergent view
/// after a failure never leaks into other holders of the same topology.
#[derive(Debug, Clone)]
pub struct FabricView {
    topo: Arc<Topology>,
    node_of_dpid: BTreeMap<u64, NodeId>,
    dpid_of_node: BTreeMap<NodeId, u64>,
    host_of_ip: BTreeMap<Ipv4Addr, NodeId>,
    /// Cache of shortest path sets between attachment switches.
    path_cache: PathCache,
}

impl FabricView {
    /// Builds a view where every switch's datapath id is its node id (the
    /// convention `horse-topo` uses). Accepts an owned [`Topology`] or a
    /// shared `Arc<Topology>`.
    pub fn new(topo: impl Into<Arc<Topology>>) -> FabricView {
        let topo = topo.into();
        let mut node_of_dpid = BTreeMap::new();
        let mut dpid_of_node = BTreeMap::new();
        let mut host_of_ip = BTreeMap::new();
        for id in topo.node_ids() {
            match topo.node(id).kind {
                NodeKind::Switch => {
                    node_of_dpid.insert(u64::from(id.0), id);
                    dpid_of_node.insert(id, u64::from(id.0));
                }
                NodeKind::Host => {
                    host_of_ip.insert(topo.node(id).ip, id);
                }
                NodeKind::Router => {}
            }
        }
        FabricView {
            topo,
            node_of_dpid,
            dpid_of_node,
            host_of_ip,
            path_cache: std::cell::RefCell::new(BTreeMap::new()),
        }
    }

    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Switch node for a datapath id.
    pub fn node_of(&self, dpid: u64) -> Option<NodeId> {
        self.node_of_dpid.get(&dpid).copied()
    }

    /// Datapath id of a switch node.
    pub fn dpid_of(&self, node: NodeId) -> Option<u64> {
        self.dpid_of_node.get(&node).copied()
    }

    /// Host owning an IP.
    pub fn host_of(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.host_of_ip.get(&ip).copied()
    }

    /// All switch dpids.
    pub fn switch_dpids(&self) -> Vec<u64> {
        self.node_of_dpid.keys().copied().collect()
    }

    /// Edge switches: switches with at least one host neighbor.
    pub fn edge_dpids(&self) -> Vec<u64> {
        self.node_of_dpid
            .iter()
            .filter(|(_, n)| {
                self.topo
                    .neighbors(**n)
                    .iter()
                    .any(|(_, _, nb)| self.topo.node(*nb).kind == NodeKind::Host)
            })
            .map(|(d, _)| *d)
            .collect()
    }

    /// Marks the link attached to `(switch, port)` up or down in the
    /// controller's copy of the topology (what a PORT_STATUS teaches a real
    /// controller via its link-discovery layer), invalidating cached paths.
    /// Returns the affected link, if the port is wired.
    pub fn set_link_state(&mut self, node: NodeId, port: PortId, up: bool) -> Option<LinkId> {
        let lid = self.topo.link_at(node, port)?;
        if self.topo.link(lid).up != up {
            Arc::make_mut(&mut self.topo).link_mut(lid).up = up;
            self.path_cache.borrow_mut().clear();
        }
        Some(lid)
    }

    /// The one up link of a single-homed node and the node behind it.
    fn attachment(&self, host: NodeId) -> Option<(LinkId, NodeId)> {
        if self.topo.node(host).port_count() != 1 {
            return None;
        }
        let lid = self.topo.link_at(host, PortId(0))?;
        let link = self.topo.link(lid);
        link.up.then(|| (lid, link.other(host)))
    }

    /// All equal-cost shortest paths between two hosts, in the order
    /// [`Topology::all_shortest_paths`] lists them (every hash choice over
    /// the set depends on it).
    ///
    /// A single-homed host reaches everything through its one link, so the
    /// set is the switch-to-switch set with that link on either end — and
    /// the backward walk that orders the paths visits the same nodes in the
    /// same port order whether it starts at the destination host or at its
    /// switch. Those sets are cached (until the next link-state change).
    /// Multi-homed hosts, hosts whose link is down, and host-to-host links
    /// take the direct search.
    pub fn paths(&self, src: NodeId, dst: NodeId) -> PathSet {
        let (up, src_sw, down, dst_sw) = match (self.attachment(src), self.attachment(dst)) {
            // One link at both ends: a host with itself, or two hosts
            // wired to each other.
            (Some((up, src_sw)), Some((down, dst_sw))) if up != down => (up, src_sw, down, dst_sw),
            _ => return self.searched(src, dst),
        };
        let cached = self.path_cache.borrow().get(&(src_sw, dst_sw)).cloned();
        let core = cached.unwrap_or_else(|| {
            let core: Arc<[Vec<LinkId>]> = self.topo.all_shortest_paths(src_sw, dst_sw).into();
            self.path_cache
                .borrow_mut()
                .insert((src_sw, dst_sw), Arc::clone(&core));
            core
        });
        PathSet {
            wrap: Some((up, down)),
            core,
        }
    }

    fn searched(&self, src: NodeId, dst: NodeId) -> PathSet {
        PathSet {
            wrap: None,
            core: self.topo.all_shortest_paths(src, dst).into(),
        }
    }

    /// Synthesizes the exact-match FLOW_MODs pinning `tuple` along `path`
    /// (one per switch on the path). Returns `(dpid, flow_mod)` pairs.
    pub fn rules_along(
        &self,
        src: NodeId,
        path: &[LinkId],
        tuple: &FiveTuple,
        priority: u16,
        idle_timeout: u16,
    ) -> Vec<(u64, FlowMod)> {
        let mut out = Vec::new();
        let mut cur = src;
        for lid in path {
            let link = self.topo.link(*lid);
            let Some(ep) = link.endpoint_on(cur) else {
                return Vec::new(); // disconnected path: caller bug
            };
            if let Some(dpid) = self.dpid_of(cur) {
                out.push((
                    dpid,
                    exact_flow_mod(*tuple, ep.port, priority, idle_timeout),
                ));
            }
            cur = link.other(cur);
        }
        out
    }
}

/// An exact-match ADD rule sending `tuple` out `port`.
pub fn exact_flow_mod(tuple: FiveTuple, port: PortId, priority: u16, idle_timeout: u16) -> FlowMod {
    FlowMod {
        matcher: Match::exact(tuple),
        cookie: 0,
        command: FlowModCommand::Add,
        idle_timeout,
        hard_timeout: 0,
        priority,
        buffer_id: 0xffff_ffff,
        out_port: OFPP_NONE,
        flags: 0,
        actions: vec![OfAction::Output {
            port: port.0,
            max_len: 0,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_net::addr::Ipv4Prefix;

    fn square() -> (FabricView, NodeId, NodeId) {
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let a = t.add_host("a", Ipv4Addr::new(10, 0, 0, 1), sn);
        let b = t.add_host("b", Ipv4Addr::new(10, 0, 0, 2), sn);
        let x = t.add_switch("x", Ipv4Addr::new(10, 255, 0, 1));
        let y = t.add_switch("y", Ipv4Addr::new(10, 255, 0, 2));
        t.add_link(a, x, 1e9, 0);
        t.add_link(a, y, 1e9, 0);
        t.add_link(x, b, 1e9, 0);
        t.add_link(y, b, 1e9, 0);
        (FabricView::new(t), a, b)
    }

    #[test]
    fn lookups() {
        let (f, a, _) = square();
        assert_eq!(f.host_of(Ipv4Addr::new(10, 0, 0, 1)), Some(a));
        assert_eq!(f.switch_dpids().len(), 2);
        let x = f.topo().find("x").unwrap();
        assert_eq!(f.node_of(f.dpid_of(x).unwrap()), Some(x));
        // Both switches touch hosts → both are edge.
        assert_eq!(f.edge_dpids().len(), 2);
    }

    /// `paths` must list exactly what the direct search lists, in its
    /// order, for every ordered pair of `hosts` (a host with itself
    /// included).
    fn assert_paths_match_search(f: &FabricView, hosts: &[NodeId], when: &str) {
        for a in hosts {
            for b in hosts {
                assert_eq!(
                    f.paths(*a, *b).to_vec(),
                    f.topo().all_shortest_paths(*a, *b),
                    "{when}: {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn paths_equal_the_direct_search_on_a_fat_tree_through_a_flap() {
        let ft = horse_topo::fattree::FatTree::build(
            4,
            horse_topo::fattree::SwitchRole::OpenFlow,
            1e9,
            1_000,
        );
        let mut f = FabricView::new(Arc::clone(&ft.topo));
        assert_paths_match_search(&f, &ft.hosts, "intact");
        assert_eq!(f.paths(ft.hosts[0], ft.hosts[15]).len(), 4);
        assert!(
            f.path_cache.borrow().len() <= ft.edges.len() * ft.edges.len(),
            "one set per edge-switch pair, not per host pair"
        );
        // An agg–core link (fewer equal-cost paths), then a host's only
        // link (the direct search finds nothing), each down and back up.
        let (core_link, _) = ft.topo.link_between(ft.aggs[0], ft.cores[0]).unwrap();
        let host_link = ft.topo.link_at(ft.hosts[3], PortId(0)).unwrap();
        for lid in [core_link, host_link] {
            let ep = f.topo().link(lid).a;
            assert_eq!(f.set_link_state(ep.node, ep.port, false), Some(lid));
            assert_paths_match_search(&f, &ft.hosts, "link down");
            assert_eq!(f.set_link_state(ep.node, ep.port, true), Some(lid));
            assert_paths_match_search(&f, &ft.hosts, "link back up");
        }
        assert_eq!(f.paths(ft.hosts[0], ft.hosts[15]).len(), 4);
    }

    #[test]
    fn paths_equal_the_direct_search_between_multi_homed_hosts() {
        let (mut f, a, b) = square();
        assert_eq!(f.paths(a, b).len(), 2);
        assert_paths_match_search(&f, &[a, b], "intact");
        let x = f.topo().find("x").unwrap();
        let (_, port) = f.topo().link_between(x, b).unwrap();
        f.set_link_state(x, port, false);
        assert_eq!(f.paths(a, b).len(), 1);
        assert_paths_match_search(&f, &[a, b], "x-b down");
        f.set_link_state(x, port, true);
        assert_paths_match_search(&f, &[a, b], "x-b back up");
    }

    #[test]
    fn directly_linked_hosts_take_the_direct_search() {
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let a = t.add_host("a", Ipv4Addr::new(10, 0, 0, 1), sn);
        let b = t.add_host("b", Ipv4Addr::new(10, 0, 0, 2), sn);
        let (lid, _, _) = t.add_link(a, b, 1e9, 0);
        let f = FabricView::new(t);
        assert_eq!(f.paths(a, b).to_vec(), vec![vec![lid]]);
        assert_paths_match_search(&f, &[a, b], "two hosts, one link");
    }

    #[test]
    fn rules_cover_switches_on_path() {
        let (f, a, b) = square();
        let path = &f.paths(a, b).path(0);
        let tuple = FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2);
        let rules = f.rules_along(a, path, &tuple, 100, 0);
        // Path: a → switch → b. Only the switch gets a rule (hosts have no
        // dpid).
        assert_eq!(rules.len(), 1);
        let (_, fm) = &rules[0];
        assert_eq!(fm.matcher, Match::exact(tuple));
        assert_eq!(fm.priority, 100);
    }

    #[test]
    fn broken_path_yields_no_rules() {
        let (f, a, b) = square();
        let path = f.paths(a, b).path(0);
        // Start the walk at the wrong node.
        let rules = f.rules_along(
            b,
            &path,
            &FiveTuple::udp(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 0, 2), 2),
            1,
            0,
        );
        assert!(rules.is_empty());
    }
}
