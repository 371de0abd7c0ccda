//! **Table scale**: a node/prefix scaling curve for the compact-id RIB's
//! memory shape.
//!
//! Deterministic PoP WANs ([`horse_topo::pop_wan`]) of ~100, ~250 and
//! 1000 routers, whose leaf routers originate shares of a synthetic /24
//! table (up to ~100k prefixes at the top point), converge through the
//! real [`horse_core::Experiment`] readiness pump — the same code path a
//! user's run takes, including the per-run shared attribute/prefix pools.
//! Each row records wall seconds, messages, RIB work counters, pool sizes
//! and a *per-row* peak RSS (the kernel's high-water mark is reset before
//! each row via `/proc/self/clear_refs`; a `rss_reset` flag in the JSON
//! says whether that worked).
//!
//! It is a record, not a gate: wall time is asserted only by
//! `benchmark/` (DESIGN.md "Where performance is asserted"). The JSON
//! carries an honest `cores` field so the record says what it was
//! measured on.
//!
//! Run: `cargo run --release -p horse-bench --bin table_scale -- [k]
//! [prefix_count]` (default prefix count: 100000). Writes
//! `bench_results/table_scale.json`. The leading `k` sized the retired
//! compact-id-vs-`BTreeMap` replay phase (EXPERIMENTS.md X4); it is still
//! parsed so recorded command lines keep working, and is otherwise unused.

use horse_bgp::session::TimerConfig;
use horse_core::{ControlBuild, Experiment};
use horse_net::addr::Ipv4Prefix;
use horse_net::topology::{NodeId, Topology};
use horse_sim::SimDuration;
use horse_topo::{bgp_setups_with_networks, pop_wan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// The `g`-th synthetic /24 (32.0.0.0/3 space — room for 2M groups
/// without colliding with the 10/8 and 172.16/12 pools the topologies
/// use).
fn synth_prefix(g: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(0x2000_0000 | (g << 8)), 24)
}

/// A nonzero MRAI batches announcements into synchronous rounds, so WAN
/// path exploration is bounded by the topology diameter instead of
/// hunting through every transient path (RFC 4271 §9.2.1.1 — exactly why
/// the knob exists). Without it the 1000-node row explodes into millions
/// of transient UPDATEs.
fn timers_wan() -> TimerConfig {
    TimerConfig {
        hold_time: SimDuration::ZERO,
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::from_millis(100),
    }
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
}

fn run_row(pops: usize, leaves_per_pop: usize, prefixes: usize) -> RowResult {
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
    }
}

fn main() {
    let (_k, prefix_count) =
        horse_bench::k_then_prefixes("table_scale [k] [prefix_count]", 16, 100_000);
    let cores_avail = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("== Table scale: PoP-WAN convergence through the real pump ==");

    let specs: [(usize, usize, usize); 3] = [
        (10, 9, prefix_count / 10),
        (10, 24, prefix_count / 4),
        (40, 24, prefix_count),
    ];
    println!("cores={cores_avail}");
    println!(
        "{:>6} {:>6} {:>9} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "nodes", "pops", "prefixes", "wall (s)", "msgs", "pool", "pool MiB", "rss MiB"
    );
    let mut rows = Vec::new();
    for (pops, leaves, prefixes) in specs {
        let row = run_row(pops, leaves, prefixes.max(1));
        println!(
            "{:>6} {:>6} {:>9} {:>10.2} {:>12} {:>10} {:>12.1} {:>10.1}",
            row.nodes,
            row.pops,
            row.prefixes,
            row.wall_secs,
            row.msgs,
            row.pool_entries,
            row.pool_bytes_est as f64 / (1024.0 * 1024.0),
            row.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        rows.push(row);
    }
    if !rows[0].rss_reset {
        println!("  note: /proc/self/clear_refs reset unavailable; rss is lifetime peak");
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
             \"rss_reset\": {}}}",
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
        );
    }
    rows_json.push(']');

    let json = format!("{{\n  \"cores\": {cores_avail},\n  \"rows\": {rows_json}\n}}\n");
    horse_bench::write_result("table_scale.json", &json);
}
