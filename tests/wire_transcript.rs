//! Wire transcripts pinned across commits.
//!
//! The determinism suites compare a run against itself (other thread
//! counts, other pump modes), and the benchmark compares report digests
//! whose JSON layout may legitimately move. Neither can say that a
//! refactor of the UPDATE path left the *protocol* alone. This test can:
//! it drives live [`BgpSpeaker`]s over an in-memory mesh and digests, per
//! speaker and in emission order, every `SendBytes` payload and every
//! `RouteChanged` together with the virtual instant it was emitted at. The
//! digests below were recorded at commit 8542af7 (the parent of the UPDATE
//! fast path) and must never move unless a change means to alter what the
//! speakers say — in which case re-pin them in that change, on purpose.
//!
//! Three meshes: a k=4 fat-tree with one agg–core flap (zero MRAI, the
//! data-center timers), and the Abilene zoo graph under the 100 ms WAN
//! MRAI with the Gao–Rexford and the local-pref scenario (whose preferred
//! transit makes best paths flip back and forth while announcements sit in
//! the hold-down — the MRAI early-flush quirk described in DESIGN.md shows
//! up as moved timestamps here).

use horse::bgp::session::TimerConfig;
use horse::bgp::speaker::{BgpSpeaker, SpeakerOutput};
use horse::bgp::AttrPool;
use horse::net::intern::PrefixPool;
use horse::net::topology::{LinkId, NodeId, Topology};
use horse::sim::{SimDuration, SimTime};
use horse::topo::fattree::{BgpNodeSetup, FatTree, SwitchRole};
use horse::topo::{bgp_setups_with_networks, wan_timers};
use horse::{PolicyScenario, TopologySpec};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One hop of virtual time: bytes sent in one round arrive in the next.
const HOP: SimDuration = SimDuration::from_millis(1);

/// Incremental FNV-1a 64.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A link going down or coming back at an instant.
struct Flap {
    at: SimTime,
    link: LinkId,
    up: bool,
}

/// Runs the mesh to `horizon` and returns one digest per speaker, in
/// ascending `NodeId` order, plus the number of byte buffers the speakers
/// sent (zero would mean the harness, not the protocol, is broken).
fn transcript(
    topo: &Topology,
    setups: &BTreeMap<NodeId, BgpNodeSetup>,
    flaps: &[Flap],
    horizon: SimTime,
) -> (Vec<u64>, usize) {
    let attr_pool = AttrPool::new();
    let prefix_pool = PrefixPool::new();
    for setup in setups.values() {
        for pfx in &setup.config.networks {
            prefix_pool.intern(*pfx);
        }
    }
    let mut speakers: BTreeMap<NodeId, BgpSpeaker> = BTreeMap::new();
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
    let mut digests: BTreeMap<NodeId, Fnv> = setups.keys().map(|n| (*n, Fnv::new())).collect();
    let mut buffers = 0usize;

    let mut now = SimTime::ZERO;
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
    let mut in_flight: Vec<(NodeId, Ipv4Addr, Vec<u8>)> = Vec::new();
    let mut next_flap = 0usize;
    loop {
        let mut ready = std::mem::take(&mut woken);
        let mut inbox: BTreeMap<NodeId, Vec<(Ipv4Addr, Vec<u8>)>> = BTreeMap::new();
        for (dst, from, bytes) in std::mem::take(&mut in_flight) {
            ready.insert(dst);
            inbox.entry(dst).or_default().push((from, bytes));
        }
        ready.extend(deadline.iter().filter(|(_, d)| **d <= now).map(|(n, _)| *n));
        for node in ready {
            let s = speakers.get_mut(&node).expect("ready node is a speaker");
            for (from, bytes) in inbox.remove(&node).unwrap_or_default() {
                s.on_bytes(from, now, &bytes);
            }
            s.poll_timers(now);
            let outputs = s.take_outputs();
            match s.next_deadline() {
                Some(d) => deadline.insert(node, d),
                None => deadline.remove(&node),
            };
            let digest = digests.get_mut(&node).expect("digest per speaker");
            for o in outputs {
                match o {
                    SpeakerOutput::SendBytes { peer, bytes } => {
                        digest.bytes(b"S");
                        digest.u64(now.as_nanos());
                        digest.bytes(&peer.octets());
                        digest.u64(bytes.len() as u64);
                        digest.bytes(&bytes);
                        buffers += 1;
                        in_flight.push((owner[&peer], local_of[&(node, peer)], bytes.to_vec()));
                    }
                    SpeakerOutput::RouteChanged { prefix, next_hops } => {
                        digest.bytes(b"R");
                        digest.u64(now.as_nanos());
                        digest.bytes(&prefix.network().octets());
                        digest.bytes(&[prefix.len()]);
                        digest.u64(next_hops.len() as u64);
                        for h in &next_hops {
                            digest.bytes(&h.octets());
                        }
                    }
                    SpeakerOutput::SessionUp { peer } => {
                        digest.bytes(b"U");
                        digest.u64(now.as_nanos());
                        digest.bytes(&peer.octets());
                    }
                    SpeakerOutput::SessionDown { peer } => {
                        digest.bytes(b"D");
                        digest.u64(now.as_nanos());
                        digest.bytes(&peer.octets());
                    }
                }
            }
        }
        let next_timer = deadline.values().min().copied();
        let next_link = flaps.get(next_flap).map(|e| e.at);
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
        while let Some(e) = flaps.get(next_flap).filter(|e| e.at <= now) {
            next_flap += 1;
            let riders = sessions_on.get(&e.link).cloned().unwrap_or_default();
            if !e.up {
                // Bytes on a dead link are lost with it.
                in_flight.retain(|(dst, from, _)| !riders.contains(&(*dst, *from)));
            }
            for (node, peer) in riders {
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
    (digests.values().map(|d| d.0).collect(), buffers)
}

fn assert_pinned(name: &str, got: &[u64], buffers: usize, pinned: &[u64]) {
    let render = |d: &[u64]| {
        d.iter()
            .map(|v| format!("    {v:#018x},"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        buffers > 0,
        "{name}: the mesh exchanged nothing — harness broken"
    );
    assert!(
        got == pinned,
        "{name}: per-speaker wire transcripts moved ({buffers} buffers sent).\n\
         recorded now:\n{}\npinned at 8542af7:\n{}",
        render(got),
        render(pinned)
    );
}

/// k=4 fat-tree, data-center timers (zero MRAI), one agg–core link down
/// at 3 s and back at 3.5 s.
#[test]
fn fat_tree_k4_flap_transcript_is_pinned() {
    let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 1_000);
    let timers = TimerConfig {
        hold_time: SimDuration::from_secs(9),
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::ZERO,
    };
    let setups = ft.bgp_setups(timers);
    let (victim, _) = ft
        .topo
        .link_between(ft.aggs[0], ft.cores[0])
        .expect("agg-core link");
    let flaps = [
        Flap {
            at: SimTime::from_secs(3),
            link: victim,
            up: false,
        },
        Flap {
            at: SimTime::from_secs_f64(3.5),
            link: victim,
            up: true,
        },
    ];
    let (got, buffers) = transcript(&ft.topo, &setups, &flaps, SimTime::from_secs(8));
    assert_pinned("fat-tree k=4 flap", &got, buffers, &FAT_TREE_K4_FLAP);
}

/// One zoo graph under the 100 ms WAN MRAI with `scenario` compiled on.
fn zoo_transcript(name: &str, scenario: PolicyScenario) -> (Vec<u64>, usize) {
    let built = TopologySpec::Zoo { name: name.into() }.build(SwitchRole::BgpRouter);
    let mut setups = bgp_setups_with_networks(&built.topo, wan_timers(), &built.originations);
    scenario.apply(&built.topo, &mut setups);
    transcript(&built.topo, &setups, &[], SimTime::from_secs(10))
}

#[test]
fn zoo_gao_rexford_mrai_transcript_is_pinned() {
    let (got, buffers) = zoo_transcript(ZOO_GRAPH, PolicyScenario::GaoRexford);
    assert_pinned("zoo gao-rexford", &got, buffers, &ZOO_GAO_REXFORD);
}

#[test]
fn zoo_local_pref_mrai_transcript_is_pinned() {
    let (got, buffers) = zoo_transcript(ZOO_GRAPH, PolicyScenario::LocalPrefTe);
    assert_pinned("zoo local-pref", &got, buffers, &ZOO_LOCAL_PREF);
}

const ZOO_GRAPH: &str = "Abilene";

const FAT_TREE_K4_FLAP: [u64; 20] = [
    0x8d1045aeeb53bc2a,
    0xdeec3079d73e5a55,
    0xc73b48fe38e0153d,
    0xed1372fde6f0e73d,
    0x0b555d9e67375b94,
    0x0fa76e70f81b8f8b,
    0x4a8c4500d53794e2,
    0x6ba78b0605fff2f8,
    0xe13907436b4a3139,
    0x4e4ffee1a6734a9e,
    0xdacdd43c47211f9a,
    0x4f914985d9efd440,
    0xcc4439d913a7420a,
    0xc456852c41b4d259,
    0xca957f15016f30ce,
    0xbb1e1f91ffaacba0,
    0x4c614d26d2dd2f43,
    0x57ee6c15face1e3c,
    0xdf7cac72f66b0262,
    0x7fec871435359398,
];
const ZOO_GAO_REXFORD: [u64; 11] = [
    0x15542dcac7ecdf9c,
    0x72d35e514e55a254,
    0x9093fad866304e34,
    0x9d084a5f3612c680,
    0x4df823697e44341e,
    0x2a3147bee6e62345,
    0x4a37d0fb07298f35,
    0x608aef3af29c82fc,
    0x2a9de53cd36f414c,
    0x04065de787278474,
    0x69dfae4c39f6dfd1,
];
const ZOO_LOCAL_PREF: [u64; 11] = [
    0x8af75b9c60020598,
    0x941b6496b6bc23f8,
    0xb9603b20706c60de,
    0xde4f1450975cf152,
    0x6e5b7d2b2195a4f8,
    0x2c5073c2bc32bb85,
    0xc1ca783939ae6b86,
    0x3b806c1e899ba88a,
    0xda1c1dc015f8121b,
    0xa8a1b104f5ba4f6f,
    0x31fe7f04241eeb89,
];
