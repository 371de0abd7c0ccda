//! Route-install transcripts pinned across commits.
//!
//! `wire_transcript.rs` pins what BGP speakers say and `sdn_transcript.rs`
//! what switches are told; this pins the leg in between for the BGP case:
//! what ends up in every router's FIB, and what the flows riding those FIBs
//! deliver while routes move. A whole run (speakers → RIB → FIB installs →
//! flows re-resolved → fluid solve → samples) is digested per router — the
//! final [`Fib::iter`](horse::dataplane::fib::Fib::iter) listing, prefix by
//! prefix with origin and every next hop — plus one digest over every
//! goodput sample (instant and value bits) and the report's control counts.
//! The digests below were recorded at commit 0d7d6d9 (the parent of the
//! route-install fast path: hashed LPM FIB with interned entries, one
//! hop-set translation per drain, reactions scoped to the routers that
//! changed) and must never move unless a change means to alter which routes
//! are installed or when flows move — in which case re-pin them in that
//! change, on purpose.
//!
//! Two runs: a k=4 fat-tree under permutation traffic with an agg–core and
//! an edge–agg link taken down and restored (withdrawals, reroutes onto
//! surviving ECMP members, stale flows revived when routes come back), and
//! the Abilene zoo graph under the Gao–Rexford scenario with the 100 ms WAN
//! MRAI (no hosts: the samples pin the sampling instants, the FIBs the
//! policy outcome).

use horse::bgp::session::TimerConfig;
use horse::dataplane::fib::RouteOrigin;
use horse::dataplane::hash::HashMode;
use horse::dataplane::path::DataPlane;
use horse::net::flow::FlowSpec;
use horse::net::topology::{LinkId, NodeId, Topology};
use horse::sim::{FtiConfig, Pacing, SimDuration, SimTime};
use horse::topo::fattree::{BgpNodeSetup, FatTree, SwitchRole};
use horse::topo::pattern::{demo_tuple, TrafficPattern};
use horse::topo::{bgp_setups_with_networks, wan_timers};
use horse::{ControlPlane, PolicyScenario, Runner, TopologySpec, TrafficEvent};
use horse_core::control::BgpControl;
use horse_core::experiment::LinkEvent;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// What one run left behind.
struct Transcript {
    /// One digest per router, ascending `NodeId`.
    routers: Vec<u64>,
    /// Goodput samples and control counts.
    samples: u64,
    routes: usize,
    table_writes: u64,
    /// Lowest and highest aggregate goodput sampled after t = 1 s.
    goodput_range: (f64, f64),
}

const SEED: u64 = 42;

fn bgp_runner(
    topo: Arc<Topology>,
    setups: BTreeMap<NodeId, BgpNodeSetup>,
    traffic: Vec<TrafficEvent>,
    link_events: Vec<LinkEvent>,
    horizon_s: u64,
) -> Runner {
    let control = ControlPlane::Bgp(Box::new(BgpControl::new(&topo, setups)));
    let dp = DataPlane::from_topology(&topo, HashMode::SrcDst, HashMode::FiveTuple);
    Runner::new(
        topo,
        dp,
        control,
        traffic,
        link_events,
        FtiConfig {
            increment: SimDuration::from_millis(1),
            quiescence: SimDuration::from_millis(100),
        },
        Pacing::Virtual,
        SimTime::from_secs(horizon_s),
        SimDuration::from_millis(100),
        String::from("route-install-transcript"),
    )
}

fn transcript(
    topo: Arc<Topology>,
    setups: BTreeMap<NodeId, BgpNodeSetup>,
    traffic: Vec<TrafficEvent>,
    link_events: Vec<LinkEvent>,
    horizon_s: u64,
) -> Transcript {
    let routers: Vec<NodeId> = setups.keys().copied().collect();
    let mut runner = bgp_runner(topo, setups, traffic, link_events, horizon_s);
    let report = runner.run(0.0);

    let mut routes = 0usize;
    let mut digests = Vec::with_capacity(routers.len());
    for node in &routers {
        let fib = runner.dataplane().fib(*node).expect("router has a FIB");
        let listing = fib.iter();
        assert_eq!(listing.len(), fib.len(), "iter lists every route");
        routes += listing.len();
        let mut d = Fnv::new();
        d.u64(listing.len() as u64);
        for (prefix, entry) in listing {
            d.bytes(&prefix.network().octets());
            d.bytes(&[prefix.len()]);
            d.bytes(match entry.origin {
                RouteOrigin::Connected => b"c",
                RouteOrigin::Static => b"s",
                RouteOrigin::Bgp => b"b",
            });
            d.u64(entry.next_hops.len() as u64);
            for hop in &entry.next_hops {
                d.u64(u64::from(hop.port.0));
                d.bytes(&hop.gateway.octets());
            }
        }
        digests.push(d.0);
    }

    let mut samples = Fnv::new();
    for name in report.goodput.names() {
        let series = report.goodput.get(name).expect("listed series");
        samples.bytes(name.as_bytes());
        samples.u64(series.len() as u64);
        for (t, v) in series.points() {
            samples.u64(t.as_nanos());
            samples.u64(v.to_bits());
        }
    }
    samples.u64(report.flows_routed as u64);
    samples.u64(report.control_msgs);
    samples.u64(report.table_writes);
    samples.u64(report.events_processed);
    samples.u64(report.fluid_solves);
    samples.u64(report.fluid_flows_touched);

    let settled = report
        .goodput
        .get("aggregate")
        .expect("aggregate series")
        .points()
        .iter()
        .filter(|(t, _)| *t >= SimTime::from_secs(1))
        .map(|(_, v)| *v);
    let goodput_range = settled.fold((f64::INFINITY, 0.0), |(lo, hi): (f64, f64), v| {
        (lo.min(v), hi.max(v))
    });

    Transcript {
        routers: digests,
        samples: samples.0,
        routes,
        table_writes: report.table_writes,
        goodput_range,
    }
}

fn assert_pinned(name: &str, got: &Transcript, routers: &[u64], samples: u64) {
    let render = |d: &[u64]| {
        d.iter()
            .map(|v| format!("    {v:#018x},"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        got.routes > 0 && got.table_writes > 0,
        "{name}: no route installed — harness broken"
    );
    assert!(
        got.routers == routers && got.samples == samples,
        "{name}: route-install transcript moved ({} routes, {} table writes).\n\
         recorded now:\n{}\nsamples {:#018x}\npinned at 0d7d6d9:\n{}\nsamples {samples:#018x}",
        got.routes,
        got.table_writes,
        render(&got.routers),
        got.samples,
        render(routers),
    );
}

/// k=4 fat-tree, data-center timers (zero MRAI), permutation CBR traffic;
/// the agg–core link carrying the most flows down at 3 s and back at 5 s,
/// the busiest edge–agg link down at 4 s and back at 6 s.
#[test]
fn fat_tree_k4_flap_fibs_and_goodput_are_pinned() {
    let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 1_000);
    let topo = Arc::clone(&ft.topo);
    let setups = ft.bgp_setups(TimerConfig {
        hold_time: SimDuration::from_secs(30),
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::ZERO,
    });
    let traffic: Vec<TrafficEvent> = TrafficPattern::RandomPermutation
        .pairs(&ft.hosts, SEED)
        .iter()
        .enumerate()
        .map(|(i, p)| TrafficEvent {
            start: SimTime::ZERO,
            spec: FlowSpec::cbr(p.src, p.dst, demo_tuple(&topo, p.src, p.dst, i as u16), 1e9),
            stop: None,
        })
        .collect();
    // A flap only moves flows if some cross the link: a run without
    // failures says which links the converged routes load.
    let mut dry = bgp_runner(
        Arc::clone(&topo),
        setups.clone(),
        traffic.clone(),
        Vec::new(),
        2,
    );
    dry.run(0.0);
    let busiest = |lower: &[NodeId], upper: &[NodeId]| -> LinkId {
        let mut best = None;
        for a in lower {
            for b in upper {
                if let Some((link, _)) = topo.link_between(*a, *b) {
                    let flows = dry.fluid().flows_on_link(link).len();
                    if best.is_none_or(|(most, _)| flows > most) {
                        best = Some((flows, link));
                    }
                }
            }
        }
        let (flows, link) = best.expect("adjacent layers are wired");
        assert!(flows > 0, "no flow crosses the layer");
        link
    };
    let agg_core = busiest(&ft.aggs, &ft.cores);
    let edge_agg = busiest(&ft.edges, &ft.aggs);
    let flap = |at: u64, link, up| LinkEvent {
        at: SimTime::from_secs(at),
        link,
        up,
    };
    let link_events = vec![
        flap(3, agg_core, false),
        flap(4, edge_agg, false),
        flap(5, agg_core, true),
        flap(6, edge_agg, true),
    ];
    let got = transcript(topo, setups, traffic, link_events, 10);
    let (lo, hi) = got.goodput_range;
    assert!(
        lo < hi,
        "the flaps must move goodput, sampled {lo}..{hi} bps"
    );
    assert_pinned(
        "fat-tree k=4 flap",
        &got,
        &FAT_TREE_K4_FLAP,
        FAT_TREE_K4_FLAP_SAMPLES,
    );
}

/// Abilene under the Gao–Rexford scenario and the 100 ms WAN MRAI.
#[test]
fn abilene_gao_rexford_fibs_are_pinned() {
    let built = TopologySpec::Zoo {
        name: "Abilene".into(),
    }
    .build(SwitchRole::BgpRouter);
    let mut setups = bgp_setups_with_networks(&built.topo, wan_timers(), &built.originations);
    PolicyScenario::GaoRexford.apply(&built.topo, &mut setups);
    let got = transcript(Arc::clone(&built.topo), setups, Vec::new(), Vec::new(), 10);
    assert_pinned(
        "abilene gao-rexford",
        &got,
        &ABILENE_GAO_REXFORD,
        ABILENE_GAO_REXFORD_SAMPLES,
    );
}

const FAT_TREE_K4_FLAP: [u64; 20] = [
    0xc66eefe669fd8b05,
    0xa15f5c60bf371a45,
    0xfeae8b563dc7b325,
    0x8a1fd1196430b125,
    0xa61af531d7dc2a79,
    0xffb0d09d7b677810,
    0xd724a77c076192bc,
    0xdaec53f4d49c042c,
    0x76e4dc5f2cc697b6,
    0x9deb838fe7e1a167,
    0xb9bf6f364170be50,
    0x30a1992bc5606250,
    0x373b793f39c6f577,
    0xe62f092521676a0e,
    0x43036a1db6381eec,
    0xc656fc063d906c3c,
    0x03bee7e377ff4bb8,
    0xf520e71188338151,
    0xa1cbd19da9d966a8,
    0x7f10db1f2ca067e8,
];
const FAT_TREE_K4_FLAP_SAMPLES: u64 = 0xd92e059fefb9ea58;
const ABILENE_GAO_REXFORD: [u64; 11] = [
    0x6b0c80c5f9caf295,
    0x80ec921d64c5cca0,
    0xec8862b68bd5fd8b,
    0x4f619b36ac6e3d1f,
    0x0b267047a88604a7,
    0xf74475360eaba165,
    0x313d3294e07fb242,
    0xe590d9bfa17378c3,
    0x20be3c4a7a498aae,
    0x5996514c423f78ef,
    0xd53a38d4a880e44d,
];
const ABILENE_GAO_REXFORD_SAMPLES: u64 = 0x5138a6ded4a4cb92;
