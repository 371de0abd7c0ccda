//! Reactive 5-tuple ECMP — the demo's "SDN 5-tuple ECMP" TE approach.
//!
//! On a flow's first packet the edge switch has no matching rule and punts
//! it (PACKET_IN). The app parses the genuine packet bytes, hashes the full
//! 5-tuple over the equal-cost shortest paths between the flow's hosts, and
//! installs exact-match rules along the chosen path. All packets of the
//! flow then follow one path (no reordering), while distinct flows spread
//! across the fabric — finer-grained than the BGP scenario's
//! (src IP, dst IP) hashing, which pins *all* traffic between a host pair
//! to one path.

use crate::fabric::FabricView;
use horse_dataplane::hash::{EcmpHasher, HashMode};
use horse_net::flow::FiveTuple;
use horse_net::packet::Packet;
use horse_openflow::controller::{ControllerApp, Ctx};
use horse_openflow::wire::{PacketIn, PortDesc};
use std::collections::BTreeMap;

/// The reactive ECMP controller application.
pub struct EcmpApp {
    fabric: FabricView,
    hasher: EcmpHasher,
    priority: u16,
    idle_timeout: u16,
    /// Flows placed so far: tuple → chosen path index (for tests/inspection).
    pub placed: BTreeMap<FiveTuple, usize>,
    /// PACKET_INs that could not be handled (unknown hosts, no path).
    pub unroutable: u64,
}

impl EcmpApp {
    /// Creates the app over a fabric view. `seed` decorrelates runs.
    pub fn new(fabric: FabricView, seed: u64) -> EcmpApp {
        EcmpApp {
            fabric,
            hasher: EcmpHasher::new(HashMode::FiveTuple, seed),
            priority: 100,
            idle_timeout: 0,
            placed: BTreeMap::new(),
            unroutable: 0,
        }
    }

    /// Sets the idle timeout (seconds) of installed rules.
    pub fn with_idle_timeout(mut self, secs: u16) -> EcmpApp {
        self.idle_timeout = secs;
        self
    }

    /// The fabric view (shared logic with Hedera).
    pub fn fabric(&self) -> &FabricView {
        &self.fabric
    }

    /// Mutable fabric view (port-status handling).
    pub fn fabric_mut(&mut self) -> &mut FabricView {
        &mut self.fabric
    }

    /// Re-places every known flow against the current fabric (after a
    /// port-status change the shortest-path sets may have shrunk or
    /// grown). Idempotent for flows whose choice is unchanged: the rules
    /// re-install over themselves.
    pub fn replace_all(&mut self, ctx: &mut Ctx) {
        let tuples: Vec<FiveTuple> = self.placed.keys().copied().collect();
        for t in tuples {
            if self.place_flow(&t, ctx).is_none() {
                // No path right now (partitioned): forget the placement so
                // a later PACKET_IN can retry.
                self.placed.remove(&t);
            }
        }
    }

    /// Handles one flow: picks a path by hash and emits the pinning rules.
    /// Returns the chosen path index. Exposed for reuse by [`crate::hedera`].
    pub fn place_flow(&mut self, tuple: &FiveTuple, ctx: &mut Ctx) -> Option<usize> {
        let src = self.fabric.host_of(tuple.src_ip)?;
        let dst = self.fabric.host_of(tuple.dst_ip)?;
        let paths = self.fabric.paths(src, dst);
        if paths.is_empty() {
            return None;
        }
        let choice = self.hasher.select(tuple, paths.len());
        for (dpid, fm) in self.fabric.rules_along(
            src,
            &paths.path(choice),
            tuple,
            self.priority,
            self.idle_timeout,
        ) {
            ctx.flow_mod(dpid, fm);
        }
        self.placed.insert(*tuple, choice);
        Some(choice)
    }
}

impl ControllerApp for EcmpApp {
    fn on_switch_ready(&mut self, _dpid: u64, _ports: &[PortDesc], _ctx: &mut Ctx) {}

    fn on_packet_in(&mut self, _dpid: u64, pkt: &PacketIn, ctx: &mut Ctx) {
        let Some(tuple) = Packet::decode(&pkt.data).ok().and_then(|p| p.five_tuple()) else {
            self.unroutable += 1;
            return;
        };
        if self.place_flow(&tuple, ctx).is_none() {
            self.unroutable += 1;
        }
    }

    fn on_port_status(&mut self, dpid: u64, port_no: u16, link_down: bool, ctx: &mut Ctx) {
        let Some(node) = self.fabric.node_of(dpid) else {
            return;
        };
        if self
            .fabric
            .set_link_state(node, horse_net::topology::PortId(port_no), !link_down)
            .is_some()
        {
            self.replace_all(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_net::addr::{Ipv4Prefix, MacAddr};
    use horse_net::topology::Topology;
    use horse_openflow::controller::Controller;
    use horse_openflow::wire::{OfMessage, OfPacket, OFPR_NO_MATCH};
    use horse_sim::SimTime;
    use std::net::Ipv4Addr;

    /// a - {x, y} - b square fabric.
    fn fabric() -> FabricView {
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
        FabricView::new(t)
    }

    fn tuple(sp: u16) -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            sp,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    fn packet_in_for(tuple: FiveTuple) -> PacketIn {
        let pkt = Packet::udp(
            MacAddr::for_port(0, 0),
            MacAddr::for_port(1, 0),
            tuple,
            bytes::Bytes::new(),
        );
        PacketIn {
            buffer_id: 0xffffffff,
            total_len: 0,
            in_port: 0,
            reason: OFPR_NO_MATCH,
            data: pkt.encode(),
        }
    }

    #[test]
    fn hashing_spreads_flows_across_paths() {
        let mut ctl = Controller::new();
        let mut app = EcmpApp::new(fabric(), 1);
        // Drive through the controller so Ctx is real: connect both
        // switches.
        for (conn, name) in [(0u32, "x"), (1u32, "y")] {
            ctl.on_switch_connected(conn);
            let dpid = app
                .fabric
                .dpid_of(app.fabric.topo().find(name).unwrap())
                .unwrap();
            let feats = OfPacket::new(
                1,
                OfMessage::FeaturesReply(horse_openflow::wire::FeaturesReply {
                    datapath_id: dpid,
                    n_buffers: 0,
                    n_tables: 1,
                    capabilities: 0,
                    actions: 0,
                    ports: vec![],
                }),
            )
            .encode();
            ctl.on_bytes(conn, SimTime::ZERO, &feats, &mut app);
        }
        let mut seen = std::collections::HashSet::new();
        for sp in 0..32 {
            let pi = OfPacket::new(
                100 + sp as u32,
                OfMessage::PacketIn(packet_in_for(tuple(sp))),
            )
            .encode();
            ctl.on_bytes(0, SimTime::ZERO, &pi, &mut app);
            seen.insert(app.placed[&tuple(sp)]);
        }
        assert_eq!(seen.len(), 2, "flows must use both equal-cost paths");
        assert_eq!(app.unroutable, 0);
        // FLOW_MODs were emitted (2 switch hops × 32 flows... only switches
        // on the path get rules: path a-x-b has 1 switch; plus messages from
        // handshake).
        assert!(ctl.msgs_sent >= 32);
    }

    #[test]
    fn unknown_destination_counts_unroutable() {
        let mut ctl = Controller::new();
        let mut app = EcmpApp::new(fabric(), 1);
        ctl.on_switch_connected(0);
        let feats = OfPacket::new(
            1,
            OfMessage::FeaturesReply(horse_openflow::wire::FeaturesReply {
                datapath_id: 2,
                n_buffers: 0,
                n_tables: 1,
                capabilities: 0,
                actions: 0,
                ports: vec![],
            }),
        )
        .encode();
        ctl.on_bytes(0, SimTime::ZERO, &feats, &mut app);
        let alien = FiveTuple::udp(
            Ipv4Addr::new(192, 168, 0, 1),
            1,
            Ipv4Addr::new(192, 168, 0, 2),
            2,
        );
        let pi = OfPacket::new(9, OfMessage::PacketIn(packet_in_for(alien))).encode();
        ctl.on_bytes(0, SimTime::ZERO, &pi, &mut app);
        assert_eq!(app.unroutable, 1);
        assert!(app.placed.is_empty());
    }

    #[test]
    fn same_tuple_same_path() {
        let mut ctl = Controller::new();
        let mut app = EcmpApp::new(fabric(), 7);
        ctl.on_switch_connected(0);
        let feats = OfPacket::new(
            1,
            OfMessage::FeaturesReply(horse_openflow::wire::FeaturesReply {
                datapath_id: 2,
                n_buffers: 0,
                n_tables: 1,
                capabilities: 0,
                actions: 0,
                ports: vec![],
            }),
        )
        .encode();
        ctl.on_bytes(0, SimTime::ZERO, &feats, &mut app);
        for _ in 0..3 {
            let pi = OfPacket::new(9, OfMessage::PacketIn(packet_in_for(tuple(5)))).encode();
            ctl.on_bytes(0, SimTime::ZERO, &pi, &mut app);
        }
        assert_eq!(app.placed.len(), 1);
    }
}
