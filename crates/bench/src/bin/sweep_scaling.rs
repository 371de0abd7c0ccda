//! **Sweep-engine scaling**: the fig3 suite at 1/2/4/8 workers.
//!
//! Runs the same sweep plan (fat-tree sizes × the three TE approaches,
//! virtual pacing) at increasing worker counts and reports wall time,
//! utilization, steals, and speedup. Also re-checks the determinism
//! contract on every rung: the semantic reports must be byte-identical
//! to the serial run's.
//!
//! Speedup is machine-dependent — on a single-core container every rung
//! collapses to ~1×, which the recorded `cores` field makes explicit.
//! The rungs are a record, not a gate: wall time is asserted only by
//! `benchmark/` (its `zoo_sweep` workload records `sweep.pool.speedup_2w`).
//!
//! Run: `cargo run --release -p horse-bench --bin sweep_scaling -- \
//!       [duration_s] [pods...]`   (defaults: 10 s, pods 4 6 8)

use horse_stats::json_f64;
use horse_sweep::SweepPlan;
use std::fmt::Write as _;

const WORKER_RUNGS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let (duration, pods) =
        horse_bench::duration_then_pods("sweep_scaling [duration_s] [pods…]", 10.0, &[4, 6, 8]);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let plan = SweepPlan::new(42)
        .topologies(pods.clone())
        .horizon_secs(duration);
    let n_runs = plan.expand().len();

    println!("== Sweep-engine scaling: fig3 suite across worker counts ==");
    println!(
        "({n_runs} runs: pods {pods:?} x 3 TE approaches, {duration} s horizon, \
         virtual pacing; machine has {cores} core(s))"
    );
    println!();
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>12} {:>13}",
        "threads", "wall [ms]", "util", "steals", "vs serial", "vs busy-time"
    );

    let mut serial_wall_ms = f64::NAN;
    let mut serial_semantic = String::new();
    let mut rows = String::from("[\n");
    let mut best_speedup: f64 = 0.0;
    for threads in WORKER_RUNGS {
        let out = plan.execute(threads);
        let semantic = out.semantic_json();
        if threads == 1 {
            serial_wall_ms = out.stats.elapsed_ms;
            serial_semantic = semantic;
        } else {
            assert_eq!(
                serial_semantic, semantic,
                "determinism contract violated at {threads} workers"
            );
        }
        let speedup_measured = serial_wall_ms / out.stats.elapsed_ms.max(1e-9);
        best_speedup = best_speedup.max(speedup_measured);
        println!(
            "{:>8} {:>12.1} {:>10.3} {:>8} {:>11.2}x {:>12.2}x",
            out.stats.threads,
            out.stats.elapsed_ms,
            out.stats.utilization(),
            out.stats.total_steals(),
            speedup_measured,
            out.stats.speedup_vs_serial(),
        );
        let _ = writeln!(
            rows,
            "    {{\"threads\": {}, \"wall_ms\": {}, \"utilization\": {}, \
             \"steals\": {}, \"speedup_vs_measured_serial\": {}, \
             \"speedup_vs_serial\": {}, \"pool\": {}}},",
            out.stats.threads,
            json_f64(out.stats.elapsed_ms),
            json_f64(out.stats.utilization()),
            out.stats.total_steals(),
            json_f64(speedup_measured),
            json_f64(out.stats.speedup_vs_serial()),
            out.stats.to_json()
        );
    }
    if rows.ends_with(",\n") {
        rows.truncate(rows.len() - 2);
        rows.push('\n');
    }
    rows.push_str("  ]");

    println!();
    println!(
        "determinism: all worker counts produced byte-identical semantic \
         reports (checked)."
    );
    println!(
        "reading: speedup tracks min(threads, cores, independent runs); on a \
         {cores}-core machine the curve flattens there, and utilization \
         falls as workers outnumber cores."
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"cores\": {cores},\n  \"runs\": {n_runs},\n  \"duration_s\": {duration},\n  \
         \"pods\": {pods:?},\n  \"best_speedup_vs_measured_serial\": {},",
        json_f64(best_speedup)
    );
    let _ = write!(json, "  \"rows\": {rows}\n}}\n");
    horse_bench::write_result("sweep_scaling.json", &json);
}
