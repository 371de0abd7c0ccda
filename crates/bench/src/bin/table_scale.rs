//! **Table scale**: compact-id arenas vs address-keyed maps as routing
//! tables grow, plus a node/prefix scaling curve for the memory shape.
//!
//! Two phases:
//!
//! 1. **Decide-path speedup** (the `HORSE_TABLE_MIN_SPEEDUP` gate). A
//!    k-pod BGP fat-tree whose edge routers originate a synthetic prefix
//!    table runs to convergence plus two agg–core session flaps on the
//!    live speakers, with every decoded UPDATE and session transition
//!    tapped. The identical trace is then replayed through two RIBs with
//!    the same logical read pattern (memoized decide per affected prefix,
//!    per-peer export cache):
//!
//!    * **new** — the compact-id [`LocRib`]: interned `PrefixId`s, dense
//!      `Vec` candidate arenas, `Vec` decision cache, exports keyed by raw
//!      attr-id integers;
//!    * **old** — [`BtreeRib`], the pre-refactor shape preserved verbatim:
//!      `BTreeMap<Ipv4Prefix, …>` candidate index and decision cache,
//!      `BTreeMap<(peer, AttrId), …>` export cache.
//!
//!    Only the keying differs, so the wall ratio isolates the memory
//!    shape: id-indexed loads vs tree walks over struct keys.
//!
//! 2. **Scaling curve**. Deterministic PoP WANs
//!    ([`horse_topo::pop_wan`]) of ~100, ~250 and 1000 routers, whose
//!    leaf routers originate shares of a synthetic /24 table (up to
//!    ~100k prefixes at the top point), converge through the real
//!    [`horse_core::Experiment`] readiness pump — the same code path a
//!    user's run takes, including `HORSE_RUN_THREADS` drain sharding and
//!    the per-run shared attribute/prefix pools. Each row records wall
//!    seconds, messages, RIB work counters, pool sizes, parallel-pump
//!    counters and a *per-row* peak RSS (the kernel's high-water mark is
//!    reset before each row via `/proc/self/clear_refs`; a `rss_reset`
//!    flag in the JSON says whether that worked). The curve executes
//!    *before* phase 1: the reset can only drop the high-water mark to
//!    the current RSS, so an earlier phase's retained allocations would
//!    floor every row's reported peak.
//!
//! The JSON carries honest `cores` and `run_threads` fields so
//! multi-core CI gates and laptop runs read comparably: a 1-core host
//! can record `run_threads: 4` wall numbers, but only a multi-core one
//! may gate on them.
//!
//! Run: `cargo run --release -p horse-bench --bin table_scale -- [k]
//! [prefix_count]` (defaults: 16, 100000). Writes
//! `bench_results/table_scale.json`. Set `HORSE_TABLE_MIN_SPEEDUP` to
//! gate on the phase-1 wall ratio, and `HORSE_RUN_MIN_SPEEDUP` (with
//! `HORSE_RUN_THREADS` > 1 on a multi-core host) to gate on the phase-2
//! parallel-pump speedup over a serial rerun of the middle row.

use horse_bgp::msg::{Message, UpdateMsg};
use horse_bgp::rib::{AttrId, BestPath, Decision, LocRib, RibStats};
use horse_bgp::session::TimerConfig;
use horse_bgp::speaker::{BgpSpeaker, SpeakerOutput};
use horse_bgp::BtreeRib;
use horse_core::{ControlBuild, Experiment, RunConfig};
use horse_net::addr::Ipv4Prefix;
use horse_net::intern::PrefixId;
use horse_net::topology::{NodeId, Topology};
use horse_sim::{SimDuration, SimTime};
use horse_topo::fattree::{BgpNodeSetup, FatTree, SwitchRole};
use horse_topo::{bgp_setups_with_networks, pop_wan};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// The `g`-th synthetic /24 (32.0.0.0/3 space — room for 2M groups
/// without colliding with the 10/8 and 172.16/12 pools the topologies
/// use).
fn synth_prefix(g: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(0x2000_0000 | (g << 8)), 24)
}

fn timers() -> TimerConfig {
    TimerConfig {
        // Zero disables keepalives; the phase-1 FIFO harness never polls
        // timers, so sessions live for the whole run.
        hold_time: SimDuration::ZERO,
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::ZERO,
    }
}

/// Phase-2 timers: a nonzero MRAI batches announcements into synchronous
/// rounds, so WAN path exploration is bounded by the topology diameter
/// instead of hunting through every transient path (RFC 4271 §9.2.1.1 —
/// exactly why the knob exists). Without it the 1000-node row explodes
/// into millions of transient UPDATEs.
fn timers_wan() -> TimerConfig {
    TimerConfig {
        hold_time: SimDuration::ZERO,
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::from_millis(100),
    }
}

/// One tapped event at a node, in global delivery order.
enum Ev {
    Up(Ipv4Addr),
    Down(Ipv4Addr),
    Update(Ipv4Addr, UpdateMsg),
}

/// The live network: one real speaker per router, bytes shuttled over an
/// in-memory FIFO.
struct Net {
    speakers: BTreeMap<NodeId, BgpSpeaker>,
    owner: BTreeMap<Ipv4Addr, NodeId>,
}

impl Net {
    fn build(setups: &BTreeMap<NodeId, BgpNodeSetup>) -> Net {
        let mut speakers = BTreeMap::new();
        let mut owner = BTreeMap::new();
        for (node, setup) in setups {
            for p in &setup.config.peers {
                owner.insert(p.local_addr, *node);
            }
            speakers.insert(*node, BgpSpeaker::new(setup.config.clone()));
        }
        Net { speakers, owner }
    }

    /// Starts every speaker and brings every transport up.
    fn start_all(&mut self, now: SimTime) {
        for s in self.speakers.values_mut() {
            s.start(now);
        }
        let ups: Vec<(NodeId, Vec<Ipv4Addr>)> = self
            .speakers
            .iter()
            .map(|(n, s)| (*n, s.config.peers.iter().map(|p| p.peer_addr).collect()))
            .collect();
        for (n, peers) in ups {
            for p in peers {
                self.speakers
                    .get_mut(&n)
                    .expect("node")
                    .on_transport_up(p, now);
            }
        }
    }

    /// Shuttles bytes until quiescent. With a tap, every decoded inbound
    /// UPDATE and session transition is appended (the phase-1 replay
    /// trace); without, the wire bytes move undecoded.
    fn drain(&mut self, now: SimTime, mut tap: Option<&mut Vec<(NodeId, Ev)>>) -> bool {
        let nodes: Vec<NodeId> = self.speakers.keys().copied().collect();
        let mut moved_any = false;
        loop {
            let mut moved = false;
            for n in &nodes {
                let outs = self.speakers.get_mut(n).expect("node").take_outputs();
                for out in outs {
                    match out {
                        SpeakerOutput::SendBytes { peer, bytes } => {
                            let to = self.owner[&peer];
                            let from = self.speakers[n]
                                .config
                                .peers
                                .iter()
                                .find(|p| p.peer_addr == peer)
                                .expect("configured peer")
                                .local_addr;
                            if let Some(trace) = tap.as_deref_mut() {
                                let mut off = 0;
                                while off < bytes.len() {
                                    let (m, used) = Message::decode(&bytes[off..])
                                        .expect("valid wire bytes")
                                        .expect("complete message");
                                    off += used;
                                    if let Message::Update(u) = m {
                                        trace.push((to, Ev::Update(from, u)));
                                    }
                                }
                            }
                            self.speakers
                                .get_mut(&to)
                                .expect("node")
                                .on_bytes(from, now, &bytes);
                            moved = true;
                        }
                        SpeakerOutput::SessionUp { peer } => {
                            if let Some(trace) = tap.as_deref_mut() {
                                trace.push((*n, Ev::Up(peer)));
                            }
                        }
                        SpeakerOutput::SessionDown { peer } => {
                            if let Some(trace) = tap.as_deref_mut() {
                                trace.push((*n, Ev::Down(peer)));
                            }
                        }
                        SpeakerOutput::RouteChanged { .. } => {}
                    }
                }
            }
            if !moved {
                return moved_any;
            }
            moved_any = true;
        }
    }
}

/// Replay state over the compact-id RIB, mirroring the speaker's read
/// path: memoized decide per affected id, per-peer export cache keyed by
/// the raw attr-id integer.
struct NewNode {
    rib: LocRib,
    asn: u16,
    established: BTreeSet<Ipv4Addr>,
    remote_as: BTreeMap<Ipv4Addr, u16>,
    local_addr: BTreeMap<Ipv4Addr, Ipv4Addr>,
    export: HashMap<(Ipv4Addr, u32), Option<AttrId>>,
}

impl NewNode {
    fn export(&mut self, peer: Ipv4Addr, d: &BestPath) {
        if d.peer == peer {
            return; // split horizon, outside the cache
        }
        let key = (peer, d.attr_id.index());
        if self.export.contains_key(&key) {
            return;
        }
        let attrs = self.rib.attrs_of(d.attr_id);
        let val = if attrs.contains_asn(self.remote_as[&peer]) {
            None
        } else {
            let mut out = attrs.prepended(self.asn);
            out.next_hop = self.local_addr[&peer];
            out.local_pref = None;
            out.med = None;
            Some(self.rib.intern_attrs(out))
        };
        self.export.insert(key, val);
    }

    fn sync(&mut self, ids: &[PrefixId]) {
        let peers: Vec<Ipv4Addr> = self.established.iter().copied().collect();
        for &id in ids {
            let _ = self.rib.decide_id(id);
            for q in &peers {
                if let Some(d) = self.rib.decide_id(id) {
                    self.export(*q, &d);
                }
            }
        }
    }
}

/// Replay state over the address-keyed baseline — the identical logical
/// read pattern, keyed by the structs themselves.
struct OldNode {
    rib: BtreeRib,
    asn: u16,
    established: BTreeSet<Ipv4Addr>,
    remote_as: BTreeMap<Ipv4Addr, u16>,
    local_addr: BTreeMap<Ipv4Addr, Ipv4Addr>,
    export: BTreeMap<(Ipv4Addr, AttrId), Option<AttrId>>,
}

impl OldNode {
    fn export(&mut self, peer: Ipv4Addr, d: &Decision) {
        if d.best.peer == peer {
            return;
        }
        let key = (peer, d.best.attr_id);
        if self.export.contains_key(&key) {
            return;
        }
        let val = if d.best.attrs.contains_asn(self.remote_as[&peer]) {
            None
        } else {
            let mut out = d.best.attrs.prepended(self.asn);
            out.next_hop = self.local_addr[&peer];
            out.local_pref = None;
            out.med = None;
            Some(self.rib.intern_attrs(out))
        };
        self.export.insert(key, val);
    }

    fn sync(&mut self, prefixes: &BTreeSet<Ipv4Prefix>) {
        let peers: Vec<Ipv4Addr> = self.established.iter().copied().collect();
        for p in prefixes {
            let _ = self.rib.decide(*p);
            for q in &peers {
                if let Some(d) = self.rib.decide(*p) {
                    self.export(*q, &d);
                }
            }
        }
    }
}

fn replay_new(setups: &BTreeMap<NodeId, BgpNodeSetup>, trace: &[(NodeId, Ev)]) -> (RibStats, f64) {
    let mut nodes: BTreeMap<NodeId, NewNode> = setups
        .iter()
        .map(|(n, s)| {
            let mut rib = LocRib::new(s.config.asn, s.config.multipath);
            for net in &s.config.networks {
                rib.originate(*net, s.config.router_id);
            }
            (
                *n,
                NewNode {
                    rib,
                    asn: s.config.asn,
                    established: BTreeSet::new(),
                    remote_as: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.remote_as))
                        .collect(),
                    local_addr: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.local_addr))
                        .collect(),
                    export: HashMap::new(),
                },
            )
        })
        .collect();
    let start = std::time::Instant::now();
    for (at, ev) in trace {
        let node = nodes.get_mut(at).expect("node");
        match ev {
            Ev::Up(peer) => {
                node.established.insert(*peer);
                let all = node.rib.live_prefix_ids();
                for &id in &all {
                    if let Some(d) = node.rib.decide_id(id) {
                        node.export(*peer, &d);
                    }
                }
            }
            Ev::Down(peer) => {
                node.established.remove(peer);
                let affected = node.rib.drop_peer(*peer);
                node.sync(&affected);
            }
            Ev::Update(from, u) => {
                let affected = node.rib.update_from_peer(*from, true, u);
                node.sync(&affected);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let mut total = RibStats::default();
    for n in nodes.values() {
        total.merge(&n.rib.stats());
    }
    (total, wall)
}

fn replay_old(setups: &BTreeMap<NodeId, BgpNodeSetup>, trace: &[(NodeId, Ev)]) -> (RibStats, f64) {
    let mut nodes: BTreeMap<NodeId, OldNode> = setups
        .iter()
        .map(|(n, s)| {
            let mut rib = BtreeRib::new(s.config.asn, s.config.multipath);
            for net in &s.config.networks {
                rib.originate(*net, s.config.router_id);
            }
            (
                *n,
                OldNode {
                    rib,
                    asn: s.config.asn,
                    established: BTreeSet::new(),
                    remote_as: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.remote_as))
                        .collect(),
                    local_addr: s
                        .config
                        .peers
                        .iter()
                        .map(|p| (p.peer_addr, p.local_addr))
                        .collect(),
                    export: BTreeMap::new(),
                },
            )
        })
        .collect();
    let start = std::time::Instant::now();
    for (at, ev) in trace {
        let node = nodes.get_mut(at).expect("node");
        match ev {
            Ev::Up(peer) => {
                node.established.insert(*peer);
                let all = node.rib.prefixes();
                for p in &all {
                    if let Some(d) = node.rib.decide(*p) {
                        node.export(*peer, &d);
                    }
                }
            }
            Ev::Down(peer) => {
                node.established.remove(peer);
                let affected = node.rib.drop_peer(*peer);
                node.sync(&affected);
            }
            Ev::Update(from, u) => {
                let affected = node.rib.update_from_peer(*from, true, u);
                node.sync(&affected);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let mut total = RibStats::default();
    for n in nodes.values() {
        total.merge(&n.rib.stats());
    }
    (total, wall)
}

/// One scaling-curve row: a PoP WAN converging a synthetic table through
/// the real experiment pump, over shared per-run attribute/prefix pools.
struct RowResult {
    pops: usize,
    leaves: usize,
    nodes: usize,
    prefixes: usize,
    wall_secs: f64,
    msgs: u64,
    decide_calls: u64,
    candidate_touches: u64,
    attr_interns: u64,
    attr_reuses: u64,
    pool_entries: u64,
    pool_bytes_est: u64,
    prefix_ids: u64,
    peer_ids: u64,
    peak_rss_bytes: u64,
    rss_reset: bool,
    parallel_rounds: u64,
    parallel_nodes: u64,
}

fn run_row(pops: usize, leaves_per_pop: usize, prefixes: usize, run_threads: usize) -> RowResult {
    let (topo, _cores, leaves): (Topology, Vec<NodeId>, Vec<NodeId>) =
        pop_wan(pops, leaves_per_pop, 1e9);
    let mut networks_of: BTreeMap<NodeId, Vec<Ipv4Prefix>> = BTreeMap::new();
    for (j, leaf) in leaves.iter().enumerate() {
        let lo = j * prefixes / leaves.len();
        let hi = (j + 1) * prefixes / leaves.len();
        networks_of.insert(*leaf, (lo..hi).map(|g| synth_prefix(g as u32)).collect());
    }
    let setups = bgp_setups_with_networks(&topo, timers_wan(), &networks_of);
    let nodes = topo.node_count();
    // Per-row peak: drop the previous row's high-water mark first.
    let rss_reset = horse_core::report::reset_peak_rss();
    let mut e = Experiment::new(topo)
        // Convergence under a 100 ms MRAI takes a few virtual seconds;
        // after quiescence the DES clock jumps straight to the horizon,
        // so the slack costs nothing.
        .horizon_secs(30.0)
        .sample_every(SimDuration::from_secs(10))
        .run_threads(run_threads)
        .label(format!("table-scale-{pops}x{leaves_per_pop}"));
    e.control = ControlBuild::Bgp(setups);
    let report = e.run();
    // Full propagation: every router installed every *remote* prefix at
    // least once (locally originated routes resolve to the router's own
    // id, which maps to no port, so they never count as FIB writes).
    assert!(
        report.table_writes >= ((nodes - 1) * prefixes) as u64,
        "row {pops}x{leaves_per_pop}: incomplete convergence \
         ({} FIB writes < {} expected)",
        report.table_writes,
        (nodes - 1) * prefixes
    );
    RowResult {
        pops,
        leaves: leaves_per_pop,
        nodes,
        prefixes,
        wall_secs: report.wall_run_secs,
        msgs: report.control_msgs,
        decide_calls: report.rib_decide_calls,
        candidate_touches: report.rib_candidate_touches,
        attr_interns: report.rib_attr_interns,
        attr_reuses: report.rib_attr_reuses,
        pool_entries: report.mem_attr_entries,
        pool_bytes_est: report.mem_attr_bytes_est,
        prefix_ids: report.mem_prefix_ids,
        peer_ids: report.mem_peer_ids,
        peak_rss_bytes: horse_core::report::peak_rss_bytes(),
        rss_reset,
        parallel_rounds: report.pump_parallel_rounds,
        parallel_nodes: report.pump_parallel_nodes,
    }
}

fn main() {
    let cfg = RunConfig::from_env();
    let (k, prefix_count) =
        horse_bench::k_then_prefixes("table_scale [k] [prefix_count]", 16, 100_000);
    let cores_avail = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("== Table scale: compact-id arenas vs address-keyed maps ==");

    // ---- Phase 2: scaling curve through the real pump, shared pools ----
    //
    // Runs *first*: each row's peak RSS is read after a
    // `reset_peak_rss()`, but the kernel can only reset the high-water
    // mark down to the process's *current* RSS, and the allocator
    // retains freed memory — so any phase that ran earlier sets a floor
    // under every row's reported peak. With phase 2 first, the ~1 GiB
    // 100-node row reports its own footprint instead of phase 1's ~5 GiB
    // replay state.
    let run_threads = cfg.run_threads();
    let specs: [(usize, usize, usize); 3] = [
        (10, 9, prefix_count / 10),
        (10, 24, prefix_count / 4),
        (40, 24, prefix_count),
    ];
    println!("phase 2: run_threads={run_threads} (HORSE_RUN_THREADS), cores={cores_avail}");
    println!(
        "{:>6} {:>6} {:>9} {:>10} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "nodes", "pops", "prefixes", "wall (s)", "msgs", "pool", "pool MiB", "rss MiB", "par"
    );
    let mut rows = Vec::new();
    for (pops, leaves, prefixes) in specs {
        let row = run_row(pops, leaves, prefixes.max(1), run_threads);
        println!(
            "{:>6} {:>6} {:>9} {:>10.2} {:>12} {:>10} {:>12.1} {:>10.1} {:>8}",
            row.nodes,
            row.pops,
            row.prefixes,
            row.wall_secs,
            row.msgs,
            row.pool_entries,
            row.pool_bytes_est as f64 / (1024.0 * 1024.0),
            row.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            row.parallel_rounds,
        );
        rows.push(row);
    }
    if !rows[0].rss_reset {
        println!("  note: /proc/self/clear_refs reset unavailable; rss is lifetime peak");
    }

    // Parallel-pump speedup: rerun the middle row serially and compare.
    // Only meaningful when the drain actually sharded across real cores,
    // so the gate (and the measurement) needs both knobs > 1.
    let run_speedup = if run_threads > 1 && cores_avail > 1 {
        let (pops, leaves, prefixes) = specs[1];
        let serial = run_row(pops, leaves, prefixes.max(1), 1);
        let par = &rows[1];
        let speedup = serial.wall_secs / par.wall_secs.max(1e-9);
        println!(
            "  parallel pump: {:.2}s serial vs {:.2}s at {run_threads} threads = {speedup:.2}x",
            serial.wall_secs, par.wall_secs
        );
        Some((serial.wall_secs, par.wall_secs, speedup))
    } else {
        None
    };

    // ---- Phase 1: decide-path replay, compact ids vs address keys ----
    let ft = FatTree::build(k, SwitchRole::BgpRouter, 1e9, 1_000);
    let mut setups = ft.bgp_setups(timers());
    // Edge routers share a synthetic table (capped: the live tap decodes
    // and stores every UPDATE, so this phase sizes the table for replay
    // fidelity, not for the scaling curve).
    let p1 = prefix_count.min(8_192);
    for (e, edge) in ft.edges.iter().enumerate() {
        let lo = e * p1 / ft.edges.len();
        let hi = (e + 1) * p1 / ft.edges.len();
        let nets = &mut setups.get_mut(edge).expect("edge setup").config.networks;
        nets.extend((lo..hi).map(|g| synth_prefix(g as u32)));
    }

    let mut net = Net::build(&setups);
    let mut trace: Vec<(NodeId, Ev)> = Vec::new();
    let mut t = 0u64;
    let now = SimTime::from_millis;
    net.start_all(now(t));
    net.drain(now(t), Some(&mut trace));
    assert!(
        net.speakers[&ft.edges[0]].rib().prefix_count() >= p1,
        "phase-1 convergence incomplete"
    );

    // Two agg–core flaps: invalidation + re-decide churn over the table.
    let core_set: BTreeSet<NodeId> = ft.cores.iter().copied().collect();
    let flaps = 2usize;
    for i in 0..flaps {
        let agg = ft.aggs[(i * ft.aggs.len()) / flaps % ft.aggs.len()];
        let (peer_addr, local_addr) = setups[&agg]
            .config
            .peers
            .iter()
            .find(|p| core_set.contains(&net.owner[&p.peer_addr]))
            .map(|p| (p.peer_addr, p.local_addr))
            .expect("agg has a core-facing peer");
        let core = net.owner[&peer_addr];
        t += 1;
        net.speakers
            .get_mut(&agg)
            .expect("agg")
            .on_transport_down(peer_addr, now(t));
        net.speakers
            .get_mut(&core)
            .expect("core")
            .on_transport_down(local_addr, now(t));
        net.drain(now(t), Some(&mut trace));
        t += 1;
        net.speakers
            .get_mut(&agg)
            .expect("agg")
            .on_transport_up(peer_addr, now(t));
        net.speakers
            .get_mut(&core)
            .expect("core")
            .on_transport_up(local_addr, now(t));
        net.drain(now(t), Some(&mut trace));
    }
    let updates = trace
        .iter()
        .filter(|(_, e)| matches!(e, Ev::Update(..)))
        .count();

    // Interleaved replay pairs; min wall per side rejects scheduler
    // bursts without needing many iterations on a big trace.
    let mut new_wall = f64::INFINITY;
    let mut old_wall = f64::INFINITY;
    let mut new_stats = RibStats::default();
    let mut old_stats = RibStats::default();
    for _ in 0..2 {
        let (ns, nw) = replay_new(&setups, &trace);
        let (os, ow) = replay_old(&setups, &trace);
        new_wall = new_wall.min(nw);
        old_wall = old_wall.min(ow);
        new_stats = ns;
        old_stats = os;
    }
    let wall_ratio = old_wall / new_wall.max(1e-9);
    let work_ratio = old_stats.decision_work() as f64 / new_stats.decision_work().max(1) as f64;

    println!();
    println!(
        "phase 1: fat-tree k={k}, {} speakers, {} synthetic prefixes, {} trace events ({updates} updates), {flaps} flaps",
        setups.len(),
        p1,
        trace.len(),
    );
    println!(
        "  new (compact-id): {:>8.2} ms   work {}",
        new_wall * 1e3,
        new_stats.decision_work()
    );
    println!(
        "  old (btree-key):  {:>8.2} ms   work {}",
        old_wall * 1e3,
        old_stats.decision_work()
    );
    println!("  wall ratio (old/new): {wall_ratio:.2}x   work ratio: {work_ratio:.2}x");
    if cores_avail == 1 {
        println!("  note: single-core host; wall numbers carry scheduler noise");
    }

    let mut rows_json = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            rows_json.push_str(", ");
        }
        let _ = write!(
            rows_json,
            "{{\"nodes\": {}, \"pops\": {}, \"leaves_per_pop\": {}, \"prefixes\": {}, \
             \"wall_secs\": {}, \"msgs\": {}, \"decide_calls\": {}, \
             \"candidate_touches\": {}, \"attr_interns\": {}, \"attr_reuses\": {}, \
             \"attr_pool_entries\": {}, \"attr_pool_bytes_est\": {}, \
             \"prefix_ids\": {}, \"peer_ids\": {}, \"mem_peak_rss_bytes\": {}, \
             \"rss_reset\": {}, \"pump_parallel_rounds\": {}, \
             \"pump_parallel_nodes\": {}}}",
            r.nodes,
            r.pops,
            r.leaves,
            r.prefixes,
            r.wall_secs,
            r.msgs,
            r.decide_calls,
            r.candidate_touches,
            r.attr_interns,
            r.attr_reuses,
            r.pool_entries,
            r.pool_bytes_est,
            r.prefix_ids,
            r.peer_ids,
            r.peak_rss_bytes,
            r.rss_reset,
            r.parallel_rounds,
            r.parallel_nodes,
        );
    }
    rows_json.push(']');

    let speedup_json = match run_speedup {
        Some((serial, par, ratio)) => format!(
            "{{\"serial_wall_secs\": {serial}, \"parallel_wall_secs\": {par}, \
             \"speedup\": {ratio}}}"
        ),
        None => "null".into(),
    };
    let json = format!(
        "{{\n  \"cores\": {cores_avail},\n  \"run_threads\": {run_threads},\n  \
         \"phase1\": {{\"k\": {k}, \"speakers\": {}, \
         \"prefixes\": {p1}, \"trace_events\": {}, \"updates\": {updates}, \
         \"flaps\": {flaps}, \"new_wall_secs\": {new_wall}, \"old_wall_secs\": {old_wall}, \
         \"wall_ratio\": {wall_ratio}, \"new_work\": {}, \"old_work\": {}, \
         \"work_ratio\": {work_ratio}}},\n  \"run_speedup\": {speedup_json},\n  \
         \"rows\": {rows_json}\n}}\n",
        setups.len(),
        trace.len(),
        new_stats.decision_work(),
        old_stats.decision_work(),
    );
    horse_bench::write_result("table_scale.json", &json);

    if let Some(min) = cfg.table_min_speedup {
        assert!(
            wall_ratio >= min,
            "decide-path speedup {wall_ratio:.2}x below HORSE_TABLE_MIN_SPEEDUP={min}"
        );
    }
    if let Some(min) = cfg.run_min_speedup {
        match run_speedup {
            Some((_, _, speedup)) => assert!(
                speedup >= min,
                "parallel-pump speedup {speedup:.2}x below HORSE_RUN_MIN_SPEEDUP={min} \
                 (run_threads={run_threads}, cores={cores_avail})"
            ),
            // A 1-core host (or a serial run) can't demonstrate parallel
            // speedup; skipping keeps the gate honest instead of failing
            // on hardware that can't pass it.
            None => println!(
                "  HORSE_RUN_MIN_SPEEDUP={min} skipped: run_threads={run_threads}, \
                 cores={cores_avail} (both must be > 1)"
            ),
        }
    }
}
