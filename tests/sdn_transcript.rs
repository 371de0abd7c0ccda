//! SDN transcripts pinned across commits.
//!
//! What `wire_transcript.rs` does for BGP, for the reactive OpenFlow path:
//! a whole run (PACKET_IN → controller app → FLOW_MODs → re-resolve → fluid
//! solve → completions → idle expiry) is digested per switch — every
//! PACKET_IN punted, FLOW_MOD applied, stats reply and FLOW_REMOVED sweep
//! with its virtual instant, followed by the switch's final table contents
//! — plus one digest over the flow completions and the report's control
//! counts. The digests below were recorded at commit b586683 (the parent of
//! the per-flow fast path: tuple-space flow-table index, per-switch-pair
//! path sets, live-flow-only runner reactions) and must never move unless a
//! change means to alter what the switches are told or when — in which
//! case re-pin them in that change, on purpose.
//!
//! Three k=4 runs over one traffic mix (permutation CBR flows stopped at
//! 7 s, Poisson arrivals of heavy-tailed transfers, one agg–core link down
//! at 3 s and back at 6 s): reactive ECMP with permanent rules, the same
//! with a 2 s idle timeout (rules expire and re-arriving flows are placed
//! again), and Hedera (two stats polls, elephants moved onto
//! priority-200 rules above their ECMP ones).

use horse::controller::{EcmpApp, FabricView, HederaApp, HederaConfig};
use horse::dataplane::flowtable::{Action, FlowEntry, Match};
use horse::dataplane::hash::HashMode;
use horse::dataplane::path::DataPlane;
use horse::net::addr::{Ipv4Prefix, MacAddr};
use horse::net::flow::FlowSpec;
use horse::net::topology::NodeId;
use horse::sim::{FtiConfig, Pacing, SimDuration, SimTime};
use horse::topo::fattree::{FatTree, SwitchRole};
use horse::topo::pattern::{demo_tuple, TrafficPattern};
use horse::trace::TraceData;
use horse::{ControlPlane, Runner, SdnApp, TraceOptions, TrafficEvent};
use horse_core::control::SdnControl;
use horse_core::experiment::LinkEvent;
use horse_core::{PoissonWorkload, SizeDist};
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

    /// An optional field: presence byte, then the value.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bytes(&[1]);
                self.u64(v);
            }
            None => self.bytes(&[0]),
        }
    }

    fn prefix(&mut self, p: Option<Ipv4Prefix>) {
        self.opt(p.map(|p| (u64::from(u32::from(p.network())) << 8) | u64::from(p.len())));
    }

    fn mac(&mut self, m: Option<MacAddr>) {
        match m {
            Some(m) => {
                self.bytes(&[1]);
                self.bytes(format!("{m:?}").as_bytes());
            }
            None => self.bytes(&[0]),
        }
    }

    fn matcher(&mut self, m: &Match) {
        self.opt(m.in_port.map(|p| u64::from(p.0)));
        self.mac(m.dl_src);
        self.mac(m.dl_dst);
        self.opt(m.dl_type.map(u64::from));
        self.opt(m.nw_proto.map(u64::from));
        self.prefix(m.nw_src);
        self.prefix(m.nw_dst);
        self.opt(m.tp_src.map(u64::from));
        self.opt(m.tp_dst.map(u64::from));
    }

    /// One table entry as the controller and the expiry logic see it.
    /// `last_hit` only means something on entries that can idle out.
    fn entry(&mut self, e: &FlowEntry) {
        self.matcher(&e.matcher);
        self.u64(u64::from(e.priority));
        self.u64(e.actions.len() as u64);
        for a in &e.actions {
            match a {
                Action::Output(p) => {
                    self.bytes(b"o");
                    self.u64(u64::from(p.0));
                }
                Action::Controller => self.bytes(b"c"),
                Action::EcmpHash => self.bytes(b"h"),
                Action::Drop => self.bytes(b"d"),
            }
        }
        self.u64(e.cookie);
        self.u64(e.idle_timeout.as_nanos());
        self.u64(e.hard_timeout.as_nanos());
        self.u64(e.installed.as_nanos());
        if !e.idle_timeout.is_zero() {
            self.u64(e.last_hit.as_nanos());
        }
    }
}

/// Which controller application runs the fabric.
enum App {
    Ecmp { idle_timeout_s: u16 },
    Hedera,
}

/// What one run left behind.
struct Transcript {
    /// One digest per switch, ascending `NodeId`.
    switches: Vec<u64>,
    /// Completions (flow, instant), completion times and control counts.
    flows: u64,
    flow_mods: u64,
    flow_removed_sweeps: u64,
    completions: usize,
    scheduler_moves: u64,
}

const SEED: u64 = 42;
const HORIZON_S: u64 = 12;

fn transcript(app: App) -> Transcript {
    let ft = FatTree::build(4, SwitchRole::OpenFlow, 1e9, 1_000);
    let topo = Arc::clone(&ft.topo);

    // Permutation CBR flows that stop mid-run (FLOW stop → idle credit),
    // under Poisson arrivals of bounded transfers (completions).
    let mut traffic: Vec<TrafficEvent> = TrafficPattern::RandomPermutation
        .pairs(&ft.hosts, SEED)
        .iter()
        .enumerate()
        .map(|(i, p)| TrafficEvent {
            start: SimTime::ZERO,
            spec: FlowSpec::cbr(p.src, p.dst, demo_tuple(&topo, p.src, p.dst, i as u16), 1e9),
            stop: Some(SimTime::from_secs(7)),
        })
        .collect();
    traffic.extend(
        PoissonWorkload {
            lambda_per_host: 3.0,
            sizes: SizeDist::BoundedPareto {
                min_bytes: 1e5,
                max_bytes: 1e9,
                alpha: 1.05,
            },
            until: SimTime::from_secs(8),
            seed: SEED,
        }
        .generate(&topo, &ft.hosts),
    );
    let (victim, _) = topo
        .link_between(ft.aggs[0], ft.cores[0])
        .expect("agg-core link");
    let link_events = vec![
        LinkEvent {
            at: SimTime::from_secs(3),
            link: victim,
            up: false,
        },
        LinkEvent {
            at: SimTime::from_secs(6),
            link: victim,
            up: true,
        },
    ];

    let fabric = FabricView::new(Arc::clone(&topo));
    let sdn_app = match app {
        App::Ecmp { idle_timeout_s } => {
            SdnApp::Ecmp(EcmpApp::new(fabric, SEED).with_idle_timeout(idle_timeout_s))
        }
        App::Hedera => SdnApp::Hedera(HederaApp::new(fabric, HederaConfig::default(), SEED)),
    };
    let control = ControlPlane::Sdn(Box::new(SdnControl::new(&topo, sdn_app)));
    let dp = DataPlane::from_topology(&topo, HashMode::SrcDst, HashMode::FiveTuple);
    let mut runner = Runner::new(
        Arc::clone(&topo),
        dp,
        control,
        traffic,
        link_events,
        FtiConfig {
            increment: SimDuration::from_millis(1),
            quiescence: SimDuration::from_millis(100),
        },
        Pacing::Virtual,
        SimTime::from_secs(HORIZON_S),
        SimDuration::from_millis(100),
        String::from("sdn-transcript"),
    );
    runner.set_trace(&TraceOptions {
        enabled: true,
        capacity: 1 << 18,
    });
    let report = runner.run(0.0);
    let log = runner.take_trace().expect("tracing was on");
    assert!(
        log.components.iter().all(|(_, dropped)| *dropped == 0),
        "trace ring overflowed: {:?}",
        log.components
    );

    let switches: Vec<NodeId> = ft.switches();
    let mut digests: BTreeMap<u32, Fnv> = switches.iter().map(|n| (n.0, Fnv::new())).collect();
    let mut flow_mods = 0u64;
    let mut flow_removed_sweeps = 0u64;
    for (_, ev) in &log.events {
        let (node, tag, payload) = match ev.data {
            TraceData::OfPacketIn { node, port } => (node, b"P", u64::from(port)),
            TraceData::OfFlowMod { node } => {
                flow_mods += 1;
                (node, b"M", 0)
            }
            TraceData::OfStatsReply { node, entries } => (node, b"S", u64::from(entries)),
            TraceData::FlowRemoved { node, entries } => {
                flow_removed_sweeps += 1;
                (node, b"R", u64::from(entries))
            }
            _ => continue,
        };
        let d = digests.get_mut(&node).expect("event names a switch");
        d.bytes(tag);
        d.u64(ev.t.as_nanos());
        d.u64(payload);
    }
    for node in &switches {
        let table = runner.dataplane().table(*node).expect("switch has a table");
        let d = digests.get_mut(&node.0).expect("digest per switch");
        d.bytes(b"T");
        d.u64(table.len() as u64);
        for e in table.entries() {
            d.entry(e);
        }
    }

    let mut flows = Fnv::new();
    flows.u64(report.completions.len() as u64);
    for (fid, at) in &report.completions {
        flows.u64(fid.0);
        flows.u64(at.as_nanos());
    }
    for fct in &report.flow_completion_secs {
        flows.u64(fct.to_bits());
    }
    flows.u64(report.flows_routed as u64);
    flows.u64(report.control_msgs);
    flows.u64(report.table_writes);
    flows.u64(report.events_processed);

    Transcript {
        switches: digests.values().map(|d| d.0).collect(),
        flows: flows.0,
        flow_mods,
        flow_removed_sweeps,
        completions: report.completions.len(),
        scheduler_moves: report.scheduler_moves,
    }
}

fn assert_pinned(name: &str, got: &Transcript, switches: &[u64], flows: u64) {
    let render = |d: &[u64]| {
        d.iter()
            .map(|v| format!("    {v:#018x},"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        got.flow_mods > 0 && got.completions > 0,
        "{name}: no FLOW_MOD applied or no flow completed — harness broken"
    );
    assert!(
        got.switches == switches && got.flows == flows,
        "{name}: SDN transcript moved ({} FLOW_MODs, {} completions).\n\
         recorded now:\n{}\nflows {:#018x}\npinned at b586683:\n{}\nflows {flows:#018x}",
        got.flow_mods,
        got.completions,
        render(&got.switches),
        got.flows,
        render(switches),
    );
}

#[test]
fn ecmp_permanent_rules_transcript_is_pinned() {
    let got = transcript(App::Ecmp { idle_timeout_s: 0 });
    assert_eq!(got.flow_removed_sweeps, 0, "permanent rules never expire");
    assert_pinned("ecmp idle 0", &got, &ECMP_IDLE_0, ECMP_IDLE_0_FLOWS);
}

#[test]
fn ecmp_idle_timeout_transcript_is_pinned() {
    let got = transcript(App::Ecmp { idle_timeout_s: 2 });
    assert!(got.flow_removed_sweeps > 0, "idle rules must expire");
    assert_pinned("ecmp idle 2 s", &got, &ECMP_IDLE_2, ECMP_IDLE_2_FLOWS);
}

#[test]
fn hedera_transcript_is_pinned() {
    let got = transcript(App::Hedera);
    assert!(got.scheduler_moves > 0, "Hedera must move an elephant");
    assert_pinned("hedera", &got, &HEDERA, HEDERA_FLOWS);
}

const ECMP_IDLE_0: [u64; 20] = [
    0x7bbf5fa10ecb6c2f,
    0x11006c2837810cdd,
    0x875480adc470b4be,
    0x807fe1dd5fe44dd1,
    0x8e51e64c3ec951ba,
    0xf5a747f2134776e4,
    0xb329869158e346b0,
    0xc10b1aa52bc214e5,
    0x31665c51d407c44f,
    0xc916f4e896505347,
    0x42898783f2220d75,
    0x4eb3fb61cad1c2c5,
    0x3987692e428cdc94,
    0x436fa700d3d03cb1,
    0xe777bb3924ec39da,
    0x4b8ab0c0588295ea,
    0xce0a4c01537a63d8,
    0x88e4bd57c62971c3,
    0x47fb5d967c511227,
    0xc0d2a8c2a8674280,
];
const ECMP_IDLE_0_FLOWS: u64 = 0xdfde498d91b4632a;
const ECMP_IDLE_2: [u64; 20] = [
    0x5b9b2f85202dd970,
    0x233b48ddb11a4a0e,
    0xba0e5ac5bb918e55,
    0x6980fa32c61a5f7f,
    0x8aaedf8a0516f73f,
    0xcfcf1b8e12167ab5,
    0x03a8037813d4e7ca,
    0x98edb32a01d03738,
    0xce63b52cb8f07656,
    0x965313ed5cc4e547,
    0xf4ed9caa5281e531,
    0xb77f85e437a4c6ff,
    0x33331e9a599a9a54,
    0x40be4d1846b5977d,
    0xd3cb04edd28997df,
    0xa4e869fec83482e7,
    0x9c18350900cb2ae2,
    0xbe3e8cdb9e51aa80,
    0x4d53b85a7aebc40a,
    0x22b8b1bc35656026,
];
const ECMP_IDLE_2_FLOWS: u64 = 0x0af2e39d822a12de;
const HEDERA: [u64; 20] = [
    0x2c05581bdb8e22a9,
    0x11006c2837810cdd,
    0x76ad0b410551321a,
    0x807fe1dd5fe44dd1,
    0xae1999e5db446c43,
    0x15d324bf1f63f97f,
    0x45444b02eb7072c3,
    0x6920d38c24431ba5,
    0x7821ee385f31bb13,
    0xb9010b82d9504098,
    0x02478d96d6e67fe3,
    0xb23ef2d137957b6b,
    0x42dbfadfe82ef6cb,
    0x827850da5a01874f,
    0xce0aad3b38353339,
    0x594b54bfeb5d381a,
    0x8c4d95a4a4ab4ed0,
    0x548affe08a6c4b73,
    0x47fb5d967c511227,
    0xc0d2a8c2a8674280,
];
const HEDERA_FLOWS: u64 = 0xcf032aedd129ef6a;
