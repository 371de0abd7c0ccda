//! The Hedera controller application (NSDI'10).
//!
//! Hedera layers a global flow scheduler on top of reactive ECMP:
//!
//! 1. New flows are placed by 5-tuple hashing, exactly like [`EcmpApp`].
//! 2. Every `poll_interval` (the demo uses 5 s — each poll is control-plane
//!    activity that keeps Horse in FTI mode), the controller requests flow
//!    statistics from the edge switches.
//! 3. From the measured flows it estimates natural demands
//!    ([`crate::demand`]), classifies flows with demand ≥ 10 % of NIC rate
//!    as elephants, and re-places them (Global First Fit by default;
//!    Simulated Annealing optional) to relieve hash collisions.
//! 4. Moves are pushed as exact-match FLOW_MODs along the new path.

use crate::demand::estimate_demands;
use crate::ecmp::EcmpApp;
use crate::fabric::FabricView;
use crate::placement::{place_flows, PlacementAlgo, PlacementInput};
use horse_dataplane::flowtable::Match;
use horse_net::flow::{FiveTuple, IpProto};
use horse_openflow::controller::{ControllerApp, Ctx};
use horse_openflow::wire::{FlowStatsEntry, PacketIn, PortDesc};
use horse_sim::SimDuration;
use std::collections::{BTreeMap, BTreeSet};

/// Hedera scheduling parameters.
#[derive(Debug, Clone, Copy)]
pub struct HederaConfig {
    /// How often to poll edge switches for flow stats (demo: 5 s).
    pub poll_interval: SimDuration,
    /// Elephant threshold as a fraction of NIC rate (paper: 0.1).
    pub elephant_threshold: f64,
    /// Host NIC rate in bits/s (demo: 1 Gbps).
    pub nic_bps: f64,
    /// Placement algorithm.
    pub algo: PlacementAlgo,
}

impl Default for HederaConfig {
    fn default() -> Self {
        HederaConfig {
            poll_interval: SimDuration::from_secs(5),
            elephant_threshold: 0.1,
            nic_bps: 1e9,
            algo: PlacementAlgo::GlobalFirstFit,
        }
    }
}

/// The Hedera app.
pub struct HederaApp {
    ecmp: EcmpApp,
    cfg: HederaConfig,
    pending_replies: BTreeSet<u64>,
    round_bytes: BTreeMap<FiveTuple, u64>,
    last_bytes: BTreeMap<FiveTuple, u64>,
    timer_armed: bool,
    /// Completed scheduling rounds.
    pub rounds: u64,
    /// Elephants moved to a new path so far.
    pub moves: u64,
}

impl HederaApp {
    /// Creates the app. `seed` feeds the default-ECMP hash.
    pub fn new(fabric: FabricView, cfg: HederaConfig, seed: u64) -> HederaApp {
        HederaApp {
            ecmp: EcmpApp::new(fabric, seed),
            cfg,
            pending_replies: BTreeSet::new(),
            round_bytes: BTreeMap::new(),
            last_bytes: BTreeMap::new(),
            timer_armed: false,
            rounds: 0,
            moves: 0,
        }
    }

    /// Current placement (tuple → path index).
    pub fn placement(&self) -> &BTreeMap<FiveTuple, usize> {
        &self.ecmp.placed
    }

    /// The fabric view.
    pub fn fabric(&self) -> &FabricView {
        self.ecmp.fabric()
    }

    fn run_round(&mut self, ctx: &mut Ctx) {
        self.rounds += 1;
        let interval = self.cfg.poll_interval.as_secs_f64().max(1e-9);
        // Measured rates since the previous round.
        let mut active: Vec<FiveTuple> = Vec::new();
        for (tuple, bytes) in &self.round_bytes {
            let last = self.last_bytes.get(tuple).copied().unwrap_or(0);
            let rate_bps = (bytes.saturating_sub(last)) as f64 * 8.0 / interval;
            if rate_bps > 1.0 {
                active.push(*tuple);
            }
        }
        self.last_bytes = std::mem::take(&mut self.round_bytes);
        if active.is_empty() {
            return;
        }
        // Demand estimation over host pairs.
        let fabric = self.ecmp.fabric();
        let host_pairs: Vec<_> = active
            .iter()
            .filter_map(|t| Some((fabric.host_of(t.src_ip)?, fabric.host_of(t.dst_ip)?)))
            .collect();
        if host_pairs.len() != active.len() {
            // Unknown hosts (shouldn't happen); keep only resolvable flows.
            active.retain(|t| {
                fabric.host_of(t.src_ip).is_some() && fabric.host_of(t.dst_ip).is_some()
            });
        }
        let demands = estimate_demands(&host_pairs);
        // Elephants with their path candidates.
        let mut inputs = Vec::new();
        for (tuple, d) in active.iter().zip(&demands) {
            if d.demand < self.cfg.elephant_threshold {
                continue;
            }
            let paths = fabric.paths(d.src, d.dst);
            if paths.len() < 2 {
                continue;
            }
            let current = self.ecmp.placed.get(tuple).copied().unwrap_or(0);
            inputs.push(PlacementInput {
                tuple: *tuple,
                demand_bps: d.demand * self.cfg.nic_bps,
                paths: paths.to_vec(),
                current,
            });
        }
        if inputs.is_empty() {
            return;
        }
        let placement = place_flows(fabric.topo(), &inputs, self.cfg.algo, &BTreeMap::new());
        // Apply moves.
        for input in &inputs {
            let chosen = placement[&input.tuple];
            if chosen == input.current {
                continue;
            }
            let src = self
                .ecmp
                .fabric()
                .host_of(input.tuple.src_ip)
                .expect("resolved above");
            let rules = self.ecmp.fabric().rules_along(
                src,
                &input.paths[chosen],
                &input.tuple,
                200, // above the default ECMP rules
                0,
            );
            for (dpid, fm) in rules {
                ctx.flow_mod(dpid, fm);
            }
            self.ecmp.placed.insert(input.tuple, chosen);
            self.moves += 1;
        }
    }
}

/// Reconstructs the 5-tuple from an exact-match rule (as installed by
/// [`EcmpApp`] / [`HederaApp`]). Returns `None` for non-exact matches.
pub fn tuple_of_match(m: &Match) -> Option<FiveTuple> {
    let src = m.nw_src.filter(|p| p.len() == 32)?.network();
    let dst = m.nw_dst.filter(|p| p.len() == 32)?.network();
    Some(FiveTuple {
        src_ip: src,
        dst_ip: dst,
        proto: IpProto::from_number(m.nw_proto?),
        src_port: m.tp_src?,
        dst_port: m.tp_dst?,
    })
}

impl ControllerApp for HederaApp {
    fn on_switch_ready(&mut self, dpid: u64, ports: &[PortDesc], ctx: &mut Ctx) {
        self.ecmp.on_switch_ready(dpid, ports, ctx);
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.wake_at(ctx.now() + self.cfg.poll_interval);
        }
    }

    fn on_packet_in(&mut self, dpid: u64, pkt: &PacketIn, ctx: &mut Ctx) {
        self.ecmp.on_packet_in(dpid, pkt, ctx);
    }

    fn on_port_status(&mut self, dpid: u64, port_no: u16, link_down: bool, ctx: &mut Ctx) {
        self.ecmp.on_port_status(dpid, port_no, link_down, ctx);
    }

    fn on_flow_stats(&mut self, dpid: u64, stats: &[FlowStatsEntry], ctx: &mut Ctx) {
        if !self.pending_replies.remove(&dpid) {
            return; // unsolicited
        }
        for e in stats {
            if let Some(tuple) = tuple_of_match(&e.matcher) {
                // A flow's counters appear at every switch on its path; the
                // max across switches is its true count (they should agree).
                let slot = self.round_bytes.entry(tuple).or_insert(0);
                *slot = (*slot).max(e.byte_count);
            }
        }
        if self.pending_replies.is_empty() {
            self.run_round(ctx);
        }
    }

    fn on_timer(&mut self, now: horse_sim::SimTime, ctx: &mut Ctx) {
        // Abandon any straggling round and start a new poll.
        self.pending_replies.clear();
        self.round_bytes.clear();
        let edges = self.ecmp.fabric().edge_dpids();
        for dpid in edges {
            self.pending_replies.insert(dpid);
            ctx.request_flow_stats(dpid);
        }
        ctx.wake_at(now + self.cfg.poll_interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_net::addr::{Ipv4Prefix, MacAddr};
    use horse_net::packet::Packet;
    use horse_net::topology::Topology;
    use horse_openflow::controller::{Controller, ControllerEvent};
    use horse_openflow::wire::{FeaturesReply, OfMessage, OfPacket, StatsBody, OFPR_NO_MATCH};
    use horse_sim::SimTime;
    use std::net::Ipv4Addr;

    const G: f64 = 1e9;

    /// Leaf–spine: hosts a,c under leaf l1; hosts b,d under leaf l2; two
    /// spines x,y. Flows a→b and c→d each have two equal-cost paths (via x
    /// or via y) and *share* the leaf-spine links when they pick the same
    /// spine — the classic Hedera collision.
    fn fabric() -> FabricView {
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let a = t.add_host("a", Ipv4Addr::new(10, 0, 0, 1), sn);
        let c = t.add_host("c", Ipv4Addr::new(10, 0, 0, 3), sn);
        let b = t.add_host("b", Ipv4Addr::new(10, 0, 1, 2), sn);
        let d = t.add_host("d", Ipv4Addr::new(10, 0, 1, 4), sn);
        let l1 = t.add_switch("l1", Ipv4Addr::new(10, 255, 0, 1));
        let l2 = t.add_switch("l2", Ipv4Addr::new(10, 255, 0, 2));
        let x = t.add_switch("x", Ipv4Addr::new(10, 255, 0, 3));
        let y = t.add_switch("y", Ipv4Addr::new(10, 255, 0, 4));
        t.add_link(a, l1, G, 0);
        t.add_link(c, l1, G, 0);
        t.add_link(b, l2, G, 0);
        t.add_link(d, l2, G, 0);
        t.add_link(l1, x, G, 0);
        t.add_link(l1, y, G, 0);
        t.add_link(x, l2, G, 0);
        t.add_link(y, l2, G, 0);
        FabricView::new(t)
    }

    /// a→b with varying source port.
    fn tup(sp: u16) -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            sp,
            Ipv4Addr::new(10, 0, 1, 2),
            80,
        )
    }

    /// c→d with varying source port.
    fn tup_cd(sp: u16) -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 3),
            sp,
            Ipv4Addr::new(10, 0, 1, 4),
            80,
        )
    }

    /// Which spine a placed flow crosses.
    fn spine_of(app: &HederaApp, tuple: &FiveTuple) -> horse_net::topology::NodeId {
        let fabric = app.fabric();
        let src = fabric.host_of(tuple.src_ip).unwrap();
        let dst = fabric.host_of(tuple.dst_ip).unwrap();
        let idx = app.placement()[tuple];
        let path = &fabric.paths(src, dst).path(idx);
        fabric.topo().path_nodes(src, path).unwrap()[2]
    }

    fn connect_switch(ctl: &mut Controller, app: &mut HederaApp, conn: u32, dpid: u64) {
        ctl.on_switch_connected(conn);
        let feats = OfPacket::new(
            1,
            OfMessage::FeaturesReply(FeaturesReply {
                datapath_id: dpid,
                n_buffers: 0,
                n_tables: 1,
                capabilities: 0,
                actions: 0,
                ports: vec![],
            }),
        )
        .encode();
        ctl.on_bytes(conn, SimTime::ZERO, &feats, app);
    }

    fn packet_in(ctl: &mut Controller, app: &mut HederaApp, conn: u32, tuple: FiveTuple) {
        let pkt = Packet::udp(MacAddr::ZERO, MacAddr::ZERO, tuple, bytes::Bytes::new());
        let pi = OfPacket::new(
            7,
            OfMessage::PacketIn(horse_openflow::wire::PacketIn {
                buffer_id: 0xffffffff,
                total_len: 0,
                in_port: 0,
                reason: OFPR_NO_MATCH,
                data: pkt.encode(),
            }),
        )
        .encode();
        ctl.on_bytes(conn, SimTime::ZERO, &pi, app);
    }

    fn stats_reply(
        ctl: &mut Controller,
        app: &mut HederaApp,
        conn: u32,
        now: SimTime,
        entries: Vec<FlowStatsEntry>,
    ) {
        let reply = OfPacket::new(9, OfMessage::StatsReply(StatsBody::FlowReply(entries))).encode();
        ctl.on_bytes(conn, now, &reply, app);
    }

    fn entry(tuple: FiveTuple, byte_count: u64) -> FlowStatsEntry {
        FlowStatsEntry {
            matcher: Match::exact(tuple),
            duration_sec: 5,
            priority: 100,
            idle_timeout: 0,
            hard_timeout: 0,
            cookie: 0,
            packet_count: 1,
            byte_count,
            actions: vec![],
        }
    }

    /// Finds an a→b and a c→d tuple whose default ECMP hash picks the same
    /// spine (the collision Hedera exists to fix).
    fn colliding_tuples(
        app: &mut HederaApp,
        ctl: &mut Controller,
        conn: u32,
    ) -> (FiveTuple, FiveTuple) {
        packet_in(ctl, app, conn, tup(0));
        let spine_ab = spine_of(app, &tup(0));
        for sp in 1..100 {
            packet_in(ctl, app, conn, tup_cd(sp));
            if spine_of(app, &tup_cd(sp)) == spine_ab {
                return (tup(0), tup_cd(sp));
            }
        }
        panic!("no collision found in 100 tuples");
    }

    #[test]
    fn tuple_of_match_roundtrip() {
        let t = tup(5);
        assert_eq!(tuple_of_match(&Match::exact(t)), Some(t));
        assert_eq!(tuple_of_match(&Match::any()), None);
        assert_eq!(
            tuple_of_match(&Match::dst_prefix("10.0.0.0/24".parse().unwrap())),
            None
        );
    }

    #[test]
    fn first_switch_ready_arms_timer() {
        let mut ctl = Controller::new();
        let mut app = HederaApp::new(fabric(), HederaConfig::default(), 1);
        connect_switch(&mut ctl, &mut app, 0, 2);
        let evs = ctl.take_events();
        assert!(
            evs.iter()
                .any(|e| matches!(e, ControllerEvent::WakeAt(t) if *t == SimTime::from_secs(5))),
            "5s poll timer armed: {evs:?}"
        );
        // Second switch must not arm another timer.
        connect_switch(&mut ctl, &mut app, 1, 3);
        assert!(!ctl
            .take_events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::WakeAt(_))));
    }

    fn connect_leaves(ctl: &mut Controller, app: &mut HederaApp) {
        let l1 = app.fabric().topo().find("l1").unwrap();
        let l2 = app.fabric().topo().find("l2").unwrap();
        let d1 = app.fabric().dpid_of(l1).unwrap();
        let d2 = app.fabric().dpid_of(l2).unwrap();
        connect_switch(ctl, app, 0, d1);
        connect_switch(ctl, app, 1, d2);
    }

    #[test]
    fn scheduling_round_separates_colliding_elephants() {
        let mut ctl = Controller::new();
        let mut app = HederaApp::new(fabric(), HederaConfig::default(), 1);
        connect_leaves(&mut ctl, &mut app);
        let (t1, t2) = colliding_tuples(&mut app, &mut ctl, 0);
        assert_eq!(spine_of(&app, &t1), spine_of(&app, &t2));
        ctl.take_events();
        // Poll round: timer fires, stats come back showing both flows
        // active. Demand estimation: two distinct sender/receiver pairs →
        // each wants the full NIC (1 Gbps) → elephants.
        ctl.on_timer(SimTime::from_secs(5), &mut app);
        let bytes_5s = (0.5 * G / 8.0 * 5.0) as u64; // measured (congested)
        let entries = vec![entry(t1, bytes_5s), entry(t2, bytes_5s)];
        stats_reply(
            &mut ctl,
            &mut app,
            0,
            SimTime::from_secs(5),
            entries.clone(),
        );
        stats_reply(&mut ctl, &mut app, 1, SimTime::from_secs(5), vec![]);
        assert_eq!(app.rounds, 1);
        assert_eq!(app.moves, 1, "one elephant moved off the shared spine");
        assert_ne!(spine_of(&app, &t1), spine_of(&app, &t2));
        // The move was pushed as FLOW_MODs.
        let evs = ctl.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, ControllerEvent::SendBytes { .. })));
    }

    #[test]
    fn mice_are_left_alone() {
        let mut ctl = Controller::new();
        let mut app = HederaApp::new(fabric(), HederaConfig::default(), 1);
        connect_leaves(&mut ctl, &mut app);
        let (t1, t2) = colliding_tuples(&mut app, &mut ctl, 0);
        ctl.on_timer(SimTime::from_secs(5), &mut app);
        // Tiny byte counts → mice → no moves. (Demand estimation would say
        // 0.5 each based on the matrix, but mice are filtered by measured
        // inactivity: zero delta.)
        stats_reply(
            &mut ctl,
            &mut app,
            0,
            SimTime::from_secs(5),
            vec![entry(t1, 0), entry(t2, 0)],
        );
        stats_reply(&mut ctl, &mut app, 1, SimTime::from_secs(5), vec![]);
        assert_eq!(app.rounds, 1);
        assert_eq!(app.moves, 0);
    }

    #[test]
    fn unsolicited_stats_ignored() {
        let mut ctl = Controller::new();
        let mut app = HederaApp::new(fabric(), HederaConfig::default(), 1);
        let x = app.fabric().topo().find("x").unwrap();
        let xd = app.fabric().dpid_of(x).unwrap();
        connect_switch(&mut ctl, &mut app, 0, xd);
        stats_reply(
            &mut ctl,
            &mut app,
            0,
            SimTime::ZERO,
            vec![entry(tup(1), 999)],
        );
        assert_eq!(app.rounds, 0);
    }

    #[test]
    fn second_round_uses_byte_deltas() {
        let mut ctl = Controller::new();
        let mut app = HederaApp::new(fabric(), HederaConfig::default(), 1);
        connect_leaves(&mut ctl, &mut app);
        let (t1, t2) = colliding_tuples(&mut app, &mut ctl, 0);
        let bytes_5s = (0.5 * G / 8.0 * 5.0) as u64;
        // Round 1: counters at N.
        ctl.on_timer(SimTime::from_secs(5), &mut app);
        stats_reply(
            &mut ctl,
            &mut app,
            0,
            SimTime::from_secs(5),
            vec![entry(t1, bytes_5s), entry(t2, bytes_5s)],
        );
        stats_reply(&mut ctl, &mut app, 1, SimTime::from_secs(5), vec![]);
        let moves_after_1 = app.moves;
        // Round 2: counters unchanged → flows idle → no further moves.
        ctl.on_timer(SimTime::from_secs(10), &mut app);
        stats_reply(
            &mut ctl,
            &mut app,
            0,
            SimTime::from_secs(10),
            vec![entry(t1, bytes_5s), entry(t2, bytes_5s)],
        );
        stats_reply(&mut ctl, &mut app, 1, SimTime::from_secs(10), vec![]);
        assert_eq!(app.rounds, 2);
        assert_eq!(app.moves, moves_after_1, "idle flows are not rescheduled");
    }
}
