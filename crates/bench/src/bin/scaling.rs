//! **Extension**: Horse scaling beyond the paper's largest topology.
//!
//! The demo stops at 8 pods (128 hosts) because Mininet on a 4-core VM
//! could not go further in reasonable time. Horse has no such wall: this
//! harness runs the demo workload on fat-trees up to 14 pods (686 hosts,
//! 245 switches) and reports wall time, events and control-message counts
//! per TE approach — the scalability argument of the paper, extended.
//!
//! Runs execute on the `horse-sweep` pool (`HORSE_THREADS` workers;
//! `HORSE_THREADS=1` for the serial path); per-approach wall times are
//! measured inside each run and unaffected by the pool.
//!
//! Run: `cargo run --release -p horse-bench --bin scaling -- [pods...]`
//! (defaults: 4 6 8 10 12)

use horse_core::{Experiment, TeApproach};
use horse_sweep::{run_indexed, threads_from_env, TopoCache, TopologySpec};
use std::fmt::Write as _;

const APPROACHES: [TeApproach; 3] = [TeApproach::BgpEcmp, TeApproach::Hedera, TeApproach::SdnEcmp];

fn main() {
    let pods = horse_bench::pod_counts("scaling [pods…]", &[4, 6, 8, 10, 12]);
    let duration = 20.0;
    let seed = 42;
    let threads = threads_from_env();

    let tasks: Vec<(usize, TeApproach)> = pods
        .iter()
        .flat_map(|&k| APPROACHES.into_iter().map(move |te| (k, te)))
        .collect();

    println!(
        "== Scaling: Horse wall time vs fat-tree size (demo workload, {duration} s, \
         {threads} worker(s)) =="
    );
    println!();

    let cache = TopoCache::new();
    let (results, stats) = run_indexed(tasks.len(), threads, |i| {
        let (k, te) = tasks[i];
        let bt = cache.built(&TopologySpec::FatTree { k }, te.switch_role());
        let hosts = bt.fat_tree.as_ref().expect("fat-tree spec").hosts.len();
        let report = Experiment::on_built(&bt, te, seed)
            .horizon_secs(duration)
            .run();
        assert_eq!(report.flows_routed, hosts, "k={k} {te:?}");
        report
    });

    println!(
        "{:<5} {:>6} {:>8} | {:>11} {:>11} {:>11} | {:>10} {:>10}",
        "pods", "hosts", "links", "bgp [s]", "hedera [s]", "sdn [s]", "ctl msgs", "goodput%"
    );
    let mut rows = String::from("[\n");
    for &k in &pods {
        // The three approaches of this size, in APPROACHES order.
        let of_k: Vec<_> = tasks
            .iter()
            .zip(&results)
            .filter(|((tk, _), _)| *tk == k)
            .map(|(_, r)| &r.value)
            .collect();
        let ft = cache.fattree(k, horse_topo::fattree::SwitchRole::OpenFlow);
        let hosts = ft.hosts.len();
        let links = ft.topo.link_count();
        let ideal = hosts as f64 * 1e9;
        let walls: Vec<f64> = of_k
            .iter()
            .map(|r| r.wall_setup_secs + r.wall_run_secs)
            .collect();
        let msgs: u64 = of_k.iter().map(|r| r.control_msgs).sum();
        let goodput_frac = of_k[2].goodput_final_bps() / ideal; // SdnEcmp
        println!(
            "{:<5} {:>6} {:>8} | {:>11.3} {:>11.3} {:>11.3} | {:>10} {:>9.0}%",
            k,
            hosts,
            links,
            walls[0],
            walls[1],
            walls[2],
            msgs,
            goodput_frac * 100.0
        );
        let _ = writeln!(
            rows,
            "    {{\"pods\": {k}, \"hosts\": {hosts}, \"bgp_s\": {}, \"hedera_s\": {}, \
             \"sdn_s\": {}, \"ctl_msgs\": {msgs}}},",
            walls[0], walls[1], walls[2]
        );
    }
    if rows.ends_with(",\n") {
        rows.truncate(rows.len() - 2);
        rows.push('\n');
    }
    rows.push_str("  ]");

    println!();
    println!(
        "reading: wall time grows polynomially with fabric size (fluid\n\
         re-solves dominate), but even 12 pods — 432 hosts, 180 emulated\n\
         BGP daemons — finish a 20 s experiment in seconds, far past where\n\
         a single-machine emulator stops being usable."
    );
    let runs: Vec<(String, usize, f64)> = tasks
        .iter()
        .zip(&results)
        .map(|((k, te), r)| (format!("{}-k{k}", te.label()), r.worker, r.wall_ms))
        .collect();
    horse_bench::write_result(
        "scaling.json",
        &horse_bench::pool_envelope(&stats, &runs, &rows),
    );
}
