//! **Flow scale**: a concurrent-flow scaling curve for the arena flow
//! plane.
//!
//! Disjoint-rail topologies carry 10k→100k concurrent flows through the
//! arena [`FluidNetwork`]: one deferred mega-burst solves every rail
//! component, then a stop/start churn loop with lazy completion draining
//! measures the steady-state per-event cost. Each row records walls, the
//! solver's cost counters (heap pushes/stale pops, accrual settles,
//! scratch reuses) and a per-row peak RSS.
//!
//! Equivalence with the map-keyed [`horse_net::fluid_naive`] oracle over
//! whole churn scripts is asserted by `crates/net/tests/prop_fluid.rs`;
//! wall time is asserted only by `benchmark/` (DESIGN.md "Where
//! performance is asserted"). The JSON carries an honest `cores` field so
//! the record says what it was measured on.
//!
//! Run: `cargo run --release -p horse-bench --bin flow_scale --
//! [churn_ops] [max_flows]` (default max flows: 100000). Writes
//! `bench_results/flow_scale.json`. The leading `churn_ops` sized the
//! retired arena-vs-oracle replay phase (EXPERIMENTS.md X5); it is still
//! parsed so recorded command lines keep working, and is otherwise unused.

use horse_net::flow::{FiveTuple, FlowId, FlowSpec};
use horse_net::fluid::{FluidNetwork, SolverStats};
use horse_net::topology::{LinkId, NodeId, Topology};
use horse_sim::SimTime;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

const GBPS: f64 = 1e9;

/// Deterministic xorshift64* — a row's flow mix must be identical across
/// reps and hosts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Rail {
    a: NodeId,
    b: NodeId,
    link: LinkId,
}

/// `n` disjoint host pairs, each joined by one 1 Gbps link — every rail
/// is an independent max–min component, so one burst solves many
/// components.
fn rails_topo(n: usize) -> (Topology, Vec<Rail>) {
    let mut t = Topology::new();
    let sn: horse_net::addr::Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    let mut rails = Vec::with_capacity(n);
    for i in 0..n {
        let hi = (i >> 8) as u8;
        let lo = (i & 0xff) as u8;
        let a = t.add_host(format!("a{i}"), Ipv4Addr::new(10, hi, lo, 1), sn);
        let b = t.add_host(format!("b{i}"), Ipv4Addr::new(10, hi, lo, 2), sn);
        let (link, ..) = t.add_link(a, b, GBPS, 0);
        rails.push(Rail { a, b, link });
    }
    (t, rails)
}

fn tuple_for(rail: usize, key: u16) -> FiveTuple {
    FiveTuple::udp(
        Ipv4Addr::new(10, (rail >> 8) as u8, (rail & 0xff) as u8, 1),
        key,
        Ipv4Addr::new(10, (rail >> 8) as u8, (rail & 0xff) as u8, 2),
        9,
    )
}

struct CurveRow {
    flows: usize,
    rails: usize,
    setup_wall_secs: f64,
    churn_wall_secs: f64,
    churn_events: usize,
    completions: usize,
    stats: SolverStats,
    peak_rss_bytes: u64,
    rss_reset: bool,
}

fn run_curve_row(n_flows: usize) -> CurveRow {
    let n_rails = 256.min(n_flows / 4).max(1);
    let (topo, rails) = rails_topo(n_rails);
    let rss_reset = horse_core::report::reset_peak_rss();
    let mut net = FluidNetwork::new();
    let mut rng = Rng(0xcafe_0000 | n_flows as u64 | 1);

    // One deferred mega-burst: every rail is an independent component,
    // solved in one flush.
    let t0 = SimTime::from_millis(1);
    let setup_start = std::time::Instant::now();
    let mut active: Vec<FlowId> = Vec::with_capacity(n_flows);
    for i in 0..n_flows {
        let rail = i % n_rails;
        let r = &rails[rail];
        let tuple = tuple_for(rail, (i / n_rails + 1) as u16);
        let demand = (1 + rng.below(10)) as f64 * 1e8;
        // 1 in 5 bounded: enough completion traffic to exercise the heap
        // at scale without draining the experiment.
        let spec = if i % 5 == 0 {
            FlowSpec::transfer(
                r.a,
                r.b,
                tuple,
                demand,
                20_000_000 + rng.below(80) * 1_000_000,
            )
        } else {
            FlowSpec::cbr(r.a, r.b, tuple, demand)
        };
        active.push(
            net.start_deferred(t0, spec, vec![r.link], &topo)
                .expect("valid flow"),
        );
    }
    net.flush(&topo);
    let setup_wall_secs = setup_start.elapsed().as_secs_f64();

    // Steady-state churn: retire + replace one flow per event, draining
    // completions as they come due.
    let churn_events = 2_000.min(n_flows / 2);
    let mut completions = 0usize;
    let mut retired = vec![false; active.len() + churn_events];
    let churn_start = std::time::Instant::now();
    let mut key = 60_000u16;
    for e in 0..churn_events {
        let now = SimTime::from_millis(2 + e as u64);
        while let Some((tc, fid)) = net.next_completion() {
            if tc > now {
                break;
            }
            net.advance(tc);
            if !net.is_complete(fid) {
                continue;
            }
            let _ = net.stop(tc, fid, &topo);
            retired[fid.0 as usize] = true;
            completions += 1;
        }
        // Round-robin victim; skip ids already gone.
        let victim = active[(e * 7919) % active.len()];
        if !retired[victim.0 as usize] {
            let _ = net.stop(now, victim, &topo);
            retired[victim.0 as usize] = true;
        }
        let rail = e % n_rails;
        let r = &rails[rail];
        key = key.wrapping_add(1).max(1);
        let spec = FlowSpec::cbr(
            r.a,
            r.b,
            tuple_for(rail, key),
            (1 + rng.below(10)) as f64 * 1e8,
        );
        let fid = net
            .start_deferred(now, spec, vec![r.link], &topo)
            .expect("valid flow");
        net.flush(&topo);
        if fid.0 as usize >= retired.len() {
            retired.resize(fid.0 as usize + 1, false);
        }
    }
    let churn_wall_secs = churn_start.elapsed().as_secs_f64();
    CurveRow {
        flows: n_flows,
        rails: n_rails,
        setup_wall_secs,
        churn_wall_secs,
        churn_events,
        completions,
        stats: net.solver_stats(),
        peak_rss_bytes: horse_core::report::peak_rss_bytes(),
        rss_reset,
    }
}

fn stats_json(s: &SolverStats) -> String {
    format!(
        "{{\"solves\": {}, \"full_solves\": {}, \"flows_touched\": {}, \
         \"links_touched\": {}, \"iterations\": {}, \"work\": {}, \
         \"seed_dlinks\": {}, \"advance_touches\": {}, \"completion_visits\": {}, \
         \"heap_pushes\": {}, \"heap_stale_pops\": {}, \"scratch_reuses\": {}}}",
        s.solves,
        s.full_solves,
        s.flows_touched,
        s.links_touched,
        s.iterations,
        s.work,
        s.seed_dlinks,
        s.advance_touches,
        s.completion_visits,
        s.heap_pushes,
        s.heap_stale_pops,
        s.scratch_reuses,
    )
}

fn parse_args() -> (usize, usize) {
    let usage = "flow_scale [churn_ops] [max_flows]";
    let mut args = std::env::args().skip(1);
    let mut next = |default: usize, what: &str| match args.next() {
        None => default,
        Some(a) => match a.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: invalid {what} {a:?} (want a positive integer)");
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        },
    };
    let ops = next(600, "churn_ops");
    let max_flows = next(100_000, "max_flows");
    if let Some(extra) = args.next() {
        eprintln!("error: unexpected extra argument {extra:?}");
        eprintln!("usage: {usage}");
        std::process::exit(2);
    }
    (ops, max_flows)
}

fn main() {
    let (_churn_ops, max_flows) = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("== Flow scale: arena flow plane, concurrent-flow curve ==");
    println!("cores={cores}");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "flows", "rails", "setup (s)", "churn (s)", "ev/s", "stale", "settles", "rss MiB"
    );
    let points: Vec<usize> = [10_000, 25_000, 50_000, 100_000]
        .into_iter()
        .filter(|n| *n <= max_flows)
        .collect();
    let points = if points.is_empty() {
        vec![max_flows]
    } else {
        points
    };
    let mut rows = Vec::new();
    for n in points {
        let row = run_curve_row(n);
        println!(
            "{:>8} {:>6} {:>10.3} {:>10.3} {:>10.0} {:>10} {:>10} {:>9.1}",
            row.flows,
            row.rails,
            row.setup_wall_secs,
            row.churn_wall_secs,
            row.churn_events as f64 / row.churn_wall_secs.max(1e-9),
            row.stats.heap_stale_pops,
            row.stats.advance_touches,
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
            "{{\"flows\": {}, \"rails\": {}, \"setup_wall_secs\": {}, \
             \"churn_wall_secs\": {}, \"churn_events\": {}, \"completions\": {}, \
             \"mem_peak_rss_bytes\": {}, \"rss_reset\": {}, \"stats\": {}}}",
            r.flows,
            r.rails,
            r.setup_wall_secs,
            r.churn_wall_secs,
            r.churn_events,
            r.completions,
            r.peak_rss_bytes,
            r.rss_reset,
            stats_json(&r.stats),
        );
    }
    rows_json.push(']');
    let json = format!("{{\n  \"cores\": {cores},\n  \"rows\": {rows_json}\n}}\n");
    horse_bench::write_result("flow_scale.json", &json);
}
