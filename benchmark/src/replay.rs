//! Layer replays: the harness feeds one layer the workload's own input
//! stream through public calls and times only those calls.
//!
//! A replay bounds a layer's in-run time from outside; it does not
//! partition the run (the real pump interleaves layers, warms different
//! caches, and batches differently). Each replay also checks its own end
//! state, so a layer that gets faster by doing the wrong thing is caught.

use crate::metrics::{ratio, LayerValues};
use crate::spans::Spans;
use horse::bgp::msg::{Message, UpdateMsg};
use horse::bgp::rib::{AttrPool, LocRib};
use horse::bgp::speaker::{BgpSpeaker, SpeakerOutput};
use horse::controller::{EcmpApp, FabricView};
use horse::dataplane::fib::{Fib, NextHop, RouteEntry, RouteOrigin};
use horse::dataplane::hash::HashMode;
use horse::dataplane::path::{DataPlane, ResolveError};
use horse::net::addr::{Ipv4Prefix, MacAddr};
use horse::net::fluid::{Dirty, FluidNetwork};
use horse::net::intern::PrefixPool;
use horse::net::packet::Packet;
use horse::net::topology::{LinkId, NodeId, Topology};
use horse::sim::{SimDuration, SimTime};
use horse::topo::fattree::BgpNodeSetup;
use horse::{ControlPlane, SdnApp};
use horse_core::control::SdnControl;
use horse_core::experiment::{LinkEvent, TrafficEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// One hop of virtual time, the runner's FTI increment: a message sent in
/// one round is delivered in the next, one millisecond later.
const HOP: SimDuration = SimDuration::from_millis(1);

/// Adds the seconds `f` takes to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *acc += start.elapsed().as_secs_f64();
    value
}

/// A RIB input tapped off the mesh, at the node that received it.
enum RibEvent {
    Up,
    Down(Ipv4Addr),
    Update(Ipv4Addr, UpdateMsg),
}

/// What a mesh replay failed to reach, if anything.
pub type ReplayCheck = Result<(), String>;

/// BGP mesh replay: live speakers built from the workload's own setups and
/// sharing one attribute pool and one prefix table, bytes shuttled over an
/// in-memory FIFO (delivered in ascending `NodeId` order, one [`HOP`] after
/// they were sent), virtual time stepped to each next deadline or link
/// event. The tapped bytes then replay through the codec, the tapped
/// UPDATEs and session events through one `LocRib` per node, and the
/// `RouteChanged` outputs through one `Fib` per node.
pub fn bgp_mesh(
    topo: &Topology,
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    link_events: &[LinkEvent],
    horizon: SimTime,
    spans: &mut Spans,
    layer: &mut LayerValues,
) -> ReplayCheck {
    let (tap, _) = spans.time("bgp.mesh_replay", |_| {
        run_mesh(topo, setups, link_events, horizon)
    });
    let busy = tap.on_bytes_s + tap.poll_timers_s + tap.take_outputs_s;
    layer.set("bgp.speaker.on_bytes_s", tap.on_bytes_s);
    layer.set("bgp.speaker.poll_timers_s", tap.poll_timers_s);
    layer.set("bgp.speaker.take_outputs_s", tap.take_outputs_s);
    spans.count("bgp.speaker.rounds", tap.rounds as f64);

    let (codec, _) = spans.time("bgp.msg_replay", |_| codec_replay(&tap.wire));
    let (msgs, decode_s, encode_s, codec_check) = codec;
    layer.set("bgp.speaker.msgs", msgs as f64);
    layer.set("bgp.speaker.ns_per_msg", ratio(busy * 1e9, msgs as f64));
    layer.set(
        "bgp.msg.decode_ns_per_msg",
        ratio(decode_s * 1e9, msgs as f64),
    );
    layer.set(
        "bgp.msg.encode_ns_per_msg",
        ratio(encode_s * 1e9, msgs as f64),
    );

    let ((update_s, decide_s, prefixes), _) =
        spans.time("bgp.rib_replay", |_| rib_replay(setups, &tap.rib_events));
    layer.set("bgp.rib.update_s", update_s);
    layer.set("bgp.rib.decide_s", decide_s);
    layer.set(
        "bgp.rib.ns_per_prefix",
        ratio((update_s + decide_s) * 1e9, prefixes as f64),
    );
    spans.count("bgp.rib.prefixes_touched", prefixes as f64);

    let ((insert_s, lookup_s, lookups), _) =
        spans.time("dataplane.fib_replay", |_| fib_replay(setups, &tap.routes));
    layer.set(
        "dataplane.fib.insert_ns_per_route",
        ratio(insert_s * 1e9, tap.routes.len() as f64),
    );
    layer.set(
        "dataplane.fib.lookup_ns",
        ratio(lookup_s * 1e9, lookups as f64),
    );
    spans.count("dataplane.fib.route_changes", tap.routes.len() as f64);

    tap.converged.and(codec_check)
}

/// Everything tapped off one mesh run.
struct MeshTap {
    on_bytes_s: f64,
    poll_timers_s: f64,
    take_outputs_s: f64,
    rounds: u64,
    /// Every delivered byte buffer, in delivery order.
    wire: Vec<Vec<u8>>,
    /// RIB inputs in global delivery order.
    rib_events: Vec<(NodeId, RibEvent)>,
    /// `RouteChanged` outputs in emission order.
    routes: Vec<(NodeId, Ipv4Prefix, Vec<Ipv4Addr>)>,
    converged: ReplayCheck,
}

fn run_mesh(
    topo: &Topology,
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    link_events: &[LinkEvent],
    horizon: SimTime,
) -> MeshTap {
    let attr_pool = AttrPool::new();
    let prefix_pool = PrefixPool::new();
    let mut all_prefixes = BTreeSet::new();
    for setup in setups.values() {
        for pfx in &setup.config.networks {
            prefix_pool.intern(*pfx);
            all_prefixes.insert(*pfx);
        }
    }
    let mut speakers: BTreeMap<NodeId, BgpSpeaker> = BTreeMap::new();
    // A session-local address names the node that owns it; the pair
    // (node, peer address) names the node's own address on that session
    // and the link the session rides.
    let mut owner: BTreeMap<Ipv4Addr, NodeId> = BTreeMap::new();
    let mut local_of: BTreeMap<(NodeId, Ipv4Addr), Ipv4Addr> = BTreeMap::new();
    let mut sessions_on: BTreeMap<LinkId, Vec<(NodeId, Ipv4Addr)>> = BTreeMap::new();
    for (node, setup) in setups {
        for p in &setup.config.peers {
            owner.insert(p.local_addr, *node);
            local_of.insert((*node, p.peer_addr), p.local_addr);
            let port = setup.addr_to_port[&p.peer_addr];
            let lid = topo.link_at(*node, port).expect("peer port is wired");
            sessions_on
                .entry(lid)
                .or_default()
                .push((*node, p.peer_addr));
        }
        speakers.insert(
            *node,
            BgpSpeaker::new_with_pools(
                setup.config.clone(),
                attr_pool.clone(),
                prefix_pool.clone(),
            ),
        );
    }

    let mut tap = MeshTap {
        on_bytes_s: 0.0,
        poll_timers_s: 0.0,
        take_outputs_s: 0.0,
        rounds: 0,
        wire: Vec::new(),
        rib_events: Vec::new(),
        routes: Vec::new(),
        converged: Ok(()),
    };
    let mut now = SimTime::ZERO;
    // Nodes woken outside a delivery (start, transport changes).
    let mut woken: BTreeSet<NodeId> = BTreeSet::new();
    for (node, s) in &mut speakers {
        s.start(now);
        let peers: Vec<Ipv4Addr> = s.config.peers.iter().map(|p| p.peer_addr).collect();
        for p in peers {
            s.on_transport_up(p, now);
        }
        woken.insert(*node);
    }
    let mut deadline: BTreeMap<NodeId, SimTime> = BTreeMap::new();
    // Wire bytes are copied out of the speaker's buffer once; the copy ends
    // up in the tap after delivery.
    let mut in_flight: Vec<(NodeId, Ipv4Addr, Vec<u8>)> = Vec::new();
    let mut next_link_event = 0usize;
    loop {
        // One round: everything sent last round arrives, due timers fire.
        let mut ready = std::mem::take(&mut woken);
        let mut inbox: BTreeMap<NodeId, Vec<(Ipv4Addr, Vec<u8>)>> = BTreeMap::new();
        for (dst, from, bytes) in std::mem::take(&mut in_flight) {
            ready.insert(dst);
            inbox.entry(dst).or_default().push((from, bytes));
        }
        ready.extend(deadline.iter().filter(|(_, d)| **d <= now).map(|(n, _)| *n));
        tap.rounds += 1;
        for node in ready {
            let s = speakers.get_mut(&node).expect("ready node is a speaker");
            for (from, bytes) in inbox.remove(&node).unwrap_or_default() {
                timed(&mut tap.on_bytes_s, || s.on_bytes(from, now, &bytes));
                tap_delivery(&mut tap, node, from, bytes);
            }
            timed(&mut tap.poll_timers_s, || s.poll_timers(now));
            let outputs = timed(&mut tap.take_outputs_s, || s.take_outputs());
            match s.next_deadline() {
                Some(d) => deadline.insert(node, d),
                None => deadline.remove(&node),
            };
            for o in outputs {
                match o {
                    SpeakerOutput::SendBytes { peer, bytes } => {
                        in_flight.push((owner[&peer], local_of[&(node, peer)], bytes.to_vec()));
                    }
                    SpeakerOutput::RouteChanged { prefix, next_hops } => {
                        tap.routes.push((node, prefix, next_hops));
                    }
                    SpeakerOutput::SessionUp { .. } => {
                        tap.rib_events.push((node, RibEvent::Up));
                    }
                    SpeakerOutput::SessionDown { peer } => {
                        tap.rib_events.push((node, RibEvent::Down(peer)));
                    }
                }
            }
        }
        // Advance: one hop while bytes are in flight, else straight to the
        // next timer or link event.
        let next_timer = deadline.values().min().copied();
        let next_link = link_events.get(next_link_event).map(|e| e.at);
        now = if in_flight.is_empty() {
            match (next_timer, next_link) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            }
            .max(now + HOP)
        } else {
            now + HOP
        };
        if now > horizon {
            break;
        }
        while let Some(e) = link_events.get(next_link_event).filter(|e| e.at <= now) {
            next_link_event += 1;
            if !e.up {
                // Bytes on a dead link are lost with it.
                let dead: BTreeSet<(NodeId, Ipv4Addr)> = sessions_on
                    .get(&e.link)
                    .map(|v| v.iter().copied().collect())
                    .unwrap_or_default();
                in_flight.retain(|(dst, from, _)| !dead.contains(&(*dst, *from)));
            }
            for (node, peer) in sessions_on.get(&e.link).cloned().unwrap_or_default() {
                let s = speakers.get_mut(&node).expect("session owner is a speaker");
                if e.up {
                    s.on_transport_up(peer, now);
                } else {
                    s.on_transport_down(peer, now);
                }
                woken.insert(node);
            }
        }
    }

    // End state: every speaker holds a route to every originated prefix.
    for (node, s) in &speakers {
        let missing = all_prefixes
            .iter()
            .filter(|p| s.rib().decide(**p).is_none())
            .count();
        if missing > 0 {
            tap.converged = Err(format!(
                "mesh replay: speaker {} lacks {missing} of {} prefixes",
                node.0,
                all_prefixes.len()
            ));
            break;
        }
    }
    tap
}

/// Decodes every complete message at the front of `buf`; returns them with
/// the number of bytes they took.
fn decode_all(buf: &[u8]) -> (Vec<Message>, usize) {
    let mut out = Vec::new();
    let mut off = 0;
    while let Ok(Some((m, used))) = Message::decode(&buf[off..]) {
        off += used;
        out.push(m);
    }
    (out, off)
}

/// Records one delivery for the codec and RIB replays (untimed).
fn tap_delivery(tap: &mut MeshTap, node: NodeId, from: Ipv4Addr, bytes: Vec<u8>) {
    for m in decode_all(&bytes).0 {
        if let Message::Update(u) = m {
            tap.rib_events.push((node, RibEvent::Update(from, u)));
        }
    }
    tap.wire.push(bytes);
}

/// Decodes every tapped buffer, re-encodes every message, and checks the
/// bytes survive the round trip. Returns `(messages, decode seconds,
/// encode seconds, check)`.
fn codec_replay(wire: &[Vec<u8>]) -> (u64, f64, f64, ReplayCheck) {
    let (mut decode_s, mut encode_s) = (0.0, 0.0);
    let mut msgs = 0u64;
    let mut check = Ok(());
    for buf in wire {
        let (messages, consumed) = timed(&mut decode_s, || decode_all(buf));
        msgs += messages.len() as u64;
        let encoded = timed(&mut encode_s, || {
            let mut out = Vec::with_capacity(buf.len());
            for m in &messages {
                out.extend_from_slice(&m.encode());
            }
            out
        });
        if check.is_ok() && (consumed != buf.len() || encoded != *buf) {
            check = Err(format!(
                "codec replay: {} wire bytes decoded to {consumed} and re-encoded to {}",
                buf.len(),
                encoded.len()
            ));
        }
    }
    (msgs, decode_s, encode_s, check)
}

/// Feeds the tapped RIB inputs through one `LocRib` per node (fresh shared
/// pools), reading every affected prefix's decision back the way the
/// speaker does. Returns `(update seconds, decide seconds, prefixes)`.
fn rib_replay(
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    events: &[(NodeId, RibEvent)],
) -> (f64, f64, u64) {
    let attr_pool = AttrPool::new();
    let prefix_pool = PrefixPool::new();
    for setup in setups.values() {
        for pfx in &setup.config.networks {
            prefix_pool.intern(*pfx);
        }
    }
    let mut ribs: BTreeMap<NodeId, LocRib> = setups
        .iter()
        .map(|(n, s)| {
            let mut rib = LocRib::new_shared_pools(
                s.config.asn,
                s.config.multipath,
                attr_pool.clone(),
                prefix_pool.clone(),
            );
            for net in &s.config.networks {
                rib.originate(*net, s.config.router_id);
            }
            (*n, rib)
        })
        .collect();
    let (mut update_s, mut decide_s) = (0.0, 0.0);
    let mut prefixes = 0u64;
    for (node, ev) in events {
        let rib = ribs.get_mut(node).expect("event at a known node");
        let affected = match ev {
            // A new session syncs the whole table to the peer.
            RibEvent::Up => rib.live_prefix_ids(),
            RibEvent::Down(peer) => timed(&mut update_s, || rib.drop_peer(*peer)),
            // Every fabric here is eBGP between distinct private ASes.
            RibEvent::Update(from, u) => {
                timed(&mut update_s, || rib.update_from_peer(*from, true, u))
            }
        };
        prefixes += affected.len() as u64;
        timed(&mut decide_s, || {
            for id in &affected {
                black_box(rib.decide_id(*id));
            }
        });
    }
    (update_s, decide_s, prefixes)
}

/// Applies the tapped route changes to one `Fib` per node, then looks every
/// changed prefix up again. Returns `(insert seconds, lookup seconds,
/// lookups)`.
fn fib_replay(
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    routes: &[(NodeId, Ipv4Prefix, Vec<Ipv4Addr>)],
) -> (f64, f64, u64) {
    let mut fibs: BTreeMap<NodeId, Fib> = setups.keys().map(|n| (*n, Fib::new())).collect();
    let mut insert_s = 0.0;
    for (node, prefix, next_hops) in routes {
        let ports = &setups[node].addr_to_port;
        let hops: Vec<NextHop> = next_hops
            .iter()
            .filter_map(|gw| {
                ports.get(gw).map(|port| NextHop {
                    port: *port,
                    gateway: *gw,
                })
            })
            .collect();
        let fib = fibs.get_mut(node).expect("route at a known node");
        timed(&mut insert_s, || {
            if hops.is_empty() {
                black_box(fib.remove(*prefix));
            } else {
                black_box(fib.insert(*prefix, RouteEntry::new(hops, RouteOrigin::Bgp)));
            }
        });
    }
    let mut lookup_s = 0.0;
    timed(&mut lookup_s, || {
        for (node, prefix, _) in routes {
            black_box(fibs[node].lookup(prefix.network()));
        }
    });
    (insert_s, lookup_s, routes.len() as u64)
}

/// Fluid replay: the workload's traffic trace, on the paths the finished
/// run resolved, through `FluidNetwork` — deferred starts flushed once per
/// instant, completions retired as predicted, scheduled link changes
/// re-solved incrementally on a private copy of the topology.
pub fn fluid(
    topo: &Topology,
    paths: &[(TrafficEvent, Vec<LinkId>)],
    link_events: &[LinkEvent],
    horizon: SimTime,
    spans: &mut Spans,
    layer: &mut LayerValues,
) {
    let ((flush_s, completion_s, solves, completed), _) = spans.time("net.fluid_replay", |_| {
        let mut topo = topo.clone();
        let mut net = FluidNetwork::new();
        let mut starts: Vec<&(TrafficEvent, Vec<LinkId>)> = paths.iter().collect();
        starts.sort_by_key(|(t, _)| t.start);
        let (mut flush_s, mut completion_s) = (0.0, 0.0);
        let (mut next_start, mut next_link, mut completed) = (0usize, 0usize, 0u64);
        let mut pending = None;
        loop {
            let t_start = starts.get(next_start).map(|(t, _)| t.start);
            let t_link = link_events.get(next_link).map(|e| e.at);
            let t_done = pending.map(|(t, _)| t);
            let Some(now) = [t_start, t_link, t_done].into_iter().flatten().min() else {
                break;
            };
            if now > horizon {
                break;
            }
            net.advance(now);
            if t_start == Some(now) {
                while let Some((t, path)) = starts.get(next_start).filter(|(t, _)| t.start == now) {
                    // A path that no longer fits the topology is skipped,
                    // as the runner parks the flow.
                    let _ = net.start_deferred(now, t.spec, path.clone(), &topo);
                    next_start += 1;
                }
                timed(&mut flush_s, || black_box(net.flush(&topo)));
            } else if t_link == Some(now) {
                let e = link_events[next_link];
                next_link += 1;
                topo.link_mut(e.link).up = e.up;
                timed(&mut flush_s, || {
                    black_box(net.recompute_incremental(&topo, &[Dirty::Link(e.link)]))
                });
            } else if let Some((_, fid)) = pending {
                if net.is_complete(fid) {
                    completed += 1;
                    timed(&mut flush_s, || {
                        black_box(net.stop(now, fid, &topo).is_ok())
                    });
                }
            }
            pending = timed(&mut completion_s, || net.next_completion());
        }
        (flush_s, completion_s, net.solver_stats().solves, completed)
    });
    layer.set("net.fluid.flush_s", flush_s);
    layer.set("net.fluid.next_completion_s", completion_s);
    layer.set(
        "net.fluid.us_per_solve",
        ratio(flush_s * 1e6, solves as f64),
    );
    spans.count("net.fluid.replay_solves", solves as f64);
    spans.count("net.fluid.replay_completions", completed as f64);
}

/// Pumps `control` one [`HOP`] at a time until nothing is pending, adding
/// the seconds spent inside `pump` to `pump_s`.
fn settle(
    control: &mut ControlPlane,
    dp: &mut DataPlane,
    idle: &FluidNetwork,
    now: &mut SimTime,
    pump_s: &mut f64,
) {
    loop {
        timed(pump_s, || control.pump(*now, dp, idle));
        *now += HOP;
        if !control.has_pending() {
            break;
        }
    }
}

/// SDN control replay: a control plane and data plane of the harness's
/// own; each flow's first packet is punted where its path first misses,
/// then the pump runs until nothing is pending — one OpenFlow round trip
/// (PACKET_IN → app → FLOW_MODs → tables) per flow, with no fluid model and
/// no clock in between.
pub fn sdn_control(
    topo: &Arc<Topology>,
    traffic: &[TrafficEvent],
    seed: u64,
    spans: &mut Spans,
    layer: &mut LayerValues,
) -> ReplayCheck {
    let ((roundtrip_s, pump_s, unresolved), _) = spans.time("openflow.roundtrip_replay", |_| {
        let mut dp = DataPlane::from_topology(topo, HashMode::SrcDst, HashMode::FiveTuple);
        let app = EcmpApp::new(FabricView::new(Arc::clone(topo)), seed);
        let mut control = ControlPlane::Sdn(Box::new(SdnControl::new(topo, SdnApp::Ecmp(app))));
        let idle = FluidNetwork::new();
        let mut now = SimTime::ZERO;
        let mut pump_s = 0.0;
        // The handshake (HELLO / FEATURES) is not part of any round trip.
        control.start(now, &mut dp);
        settle(&mut control, &mut dp, &idle, &mut now, &mut pump_s);
        let handshake_pump_s = pump_s;

        let mut roundtrip_s = 0.0;
        let mut unresolved = 0usize;
        for t in traffic {
            let s = &t.spec;
            timed(&mut roundtrip_s, || {
                if let Err(ResolveError::TableMiss { node, in_port }) =
                    dp.resolve(topo, s.src, s.dst, &s.tuple)
                {
                    let pkt = Packet::first_of(
                        s.tuple,
                        MacAddr::for_port(s.src.0, 0),
                        MacAddr::for_port(s.dst.0, 0),
                    );
                    if let ControlPlane::Sdn(sdn) = &mut control {
                        sdn.packet_in(node, in_port.0, pkt.encode(), now);
                    }
                    settle(&mut control, &mut dp, &idle, &mut now, &mut pump_s);
                }
            });
            if dp.resolve(topo, s.src, s.dst, &s.tuple).is_err() {
                unresolved += 1;
            }
        }
        (roundtrip_s, pump_s - handshake_pump_s, unresolved)
    });
    layer.set(
        "openflow.roundtrip_us_per_flow",
        ratio(roundtrip_s * 1e6, traffic.len() as f64),
    );
    layer.set("core.pump.sdn_pump_s", pump_s);
    if unresolved > 0 {
        return Err(format!(
            "sdn replay: {unresolved} of {} flows have no path after their round trip",
            traffic.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse::topo::fattree::{FatTree, SwitchRole};
    use horse::{Experiment, TeApproach};

    fn demo_timers() -> horse::bgp::session::TimerConfig {
        horse::bgp::session::TimerConfig {
            hold_time: SimDuration::from_secs(30),
            connect_retry: SimDuration::from_secs(1),
            mrai: SimDuration::ZERO,
        }
    }

    #[test]
    fn mesh_replay_converges_and_survives_a_flap() {
        let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 0);
        let setups = ft.bgp_setups(demo_timers());
        let link = crate::workloads::uplinks(&ft)[0];
        let flap = [
            LinkEvent {
                at: SimTime::from_secs(3),
                link,
                up: false,
            },
            LinkEvent {
                at: SimTime::from_millis(3_500),
                link,
                up: true,
            },
        ];
        for events in [&flap[..0], &flap[..]] {
            let mut spans = Spans::new("test");
            let mut layer = LayerValues::default();
            let check = bgp_mesh(
                &ft.topo,
                &setups,
                events,
                SimTime::from_secs(8),
                &mut spans,
                &mut layer,
            );
            assert_eq!(check, Ok(()));
            assert!(layer.get("bgp.speaker.msgs").unwrap() > 0.0);
            assert!(layer.get("bgp.rib.ns_per_prefix").unwrap() > 0.0);
            assert!(layer.get("dataplane.fib.lookup_ns").unwrap() > 0.0);
        }
    }

    #[test]
    fn mesh_replay_reports_a_network_that_cannot_converge() {
        // With the only uplink of an edge router down for good, its prefix
        // cannot reach everyone: the end-state check must say so.
        let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 0);
        let setups = ft.bgp_setups(demo_timers());
        let edge = ft.edges[0];
        let cuts: Vec<LinkEvent> = ft
            .topo
            .neighbors(edge)
            .into_iter()
            .filter(|(_, _, nb)| ft.aggs.contains(nb))
            .map(|(link, _, _)| LinkEvent {
                at: SimTime::from_secs(2),
                link,
                up: false,
            })
            .collect();
        let mut spans = Spans::new("test");
        let mut layer = LayerValues::default();
        let check = bgp_mesh(
            &ft.topo,
            &setups,
            &cuts,
            SimTime::from_secs(8),
            &mut spans,
            &mut layer,
        );
        assert!(check.is_err(), "{check:?}");
    }

    #[test]
    fn sdn_and_fluid_replays_cover_every_flow() {
        let ft = FatTree::build(4, SwitchRole::OpenFlow, 1e9, 1_000);
        let e = Experiment::demo_on(&ft, TeApproach::SdnEcmp, 5).horizon_secs(5.0);
        let traffic = e.traffic.clone();
        let mut spans = Spans::new("test");
        let mut layer = LayerValues::default();
        let staged = crate::staged::run_staged(e, &mut spans, &mut layer);
        assert_eq!(staged.paths.len(), traffic.len());
        assert_eq!(
            sdn_control(&ft.topo, &traffic, 5, &mut spans, &mut layer),
            Ok(())
        );
        assert!(layer.get("openflow.roundtrip_us_per_flow").unwrap() > 0.0);
        fluid(
            &ft.topo,
            &staged.paths,
            &[],
            SimTime::from_secs(5),
            &mut spans,
            &mut layer,
        );
        assert!(layer.get("net.fluid.us_per_solve").unwrap() > 0.0);
    }
}
