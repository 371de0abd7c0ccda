//! # horse-bench — figure-reproduction harnesses
//!
//! One binary per artifact (ids as in DESIGN.md §4):
//!
//! | Binary | Artifact |
//! |---|---|
//! | `fig1_modes` | F1 — Figure 1, DES↔FTI transitions, two BGP routers |
//! | `fig3_execution_time` | F3 — Figure 3, Horse vs Mininet execution time, fat-trees k = 4/6/8 |
//! | `demo_goodput` | G1 — in-demo goodput graph, aggregate arrival rate per TE approach |
//! | `ablation_fti` | A1/A2 — FTI increment & quiescence sweeps |
//! | `ablation_fluid` | A3 — fluid vs packet-level data plane |
//! | `ablation_mrai` | A4 — BGP MRAI timer, convergence latency vs message count |
//! | `scaling` | X1 — fat-trees past the paper's 8 pods |
//! | `fct_workload` | X2 — flow-level workloads, FCT distributions |
//! | `sweep_scaling` | X3 — the fig3 suite at 1/2/4/8 sweep workers |
//! | `table_scale` | X4 — PoP WANs of 100/250/1000 routers × up to 100k prefixes |
//! | `flow_scale` | X5 — 10k→100k concurrent flows on the arena flow plane |
//! | `zoo_policy` | X6 — Topology Zoo × BGP-policy corpus sweep |
//! | `sweep_resume` | checkpoint/resume smoke harness (CI `resume-smoke`) |
//!
//! These bins *record*; none asserts a wall-clock bound. Performance is
//! gated in one place, the repo benchmark under `benchmark/` (DESIGN.md
//! "Where performance is asserted").
//!
//! Every binary prints a human-readable table and writes JSON/CSV into
//! `bench_results/` at the workspace root.

use horse_stats::{json_f64, json_string, SweepStats};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Directory where harnesses drop their machine-readable outputs
/// (`HORSE_RESULTS_DIR`, via [`horse_core::RunConfig`] — the single
/// `HORSE_*` parse point).
pub fn results_dir() -> PathBuf {
    let dir = horse_core::RunConfig::from_env().results_dir;
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a string artifact into the results directory.
pub fn write_result(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result file");
    eprintln!("[wrote {}]", path.display());
}

/// Wraps a harness's result rows in the standard pool envelope. Every
/// bin that executes its runs on the `horse-sweep` pool emits
///
/// ```json
/// {"threads": N, "wall_ms": …, "speedup_vs_serial": …,
///  "pool": {…counters…},
///  "runs": [{"label": …, "worker": …, "wall_ms": …}, …],
///  "rows": <the bin's own rows, unchanged shape>}
/// ```
///
/// so plotting scripts find a bin's data under `rows` and the execution
/// metadata in one place. `runs` are `(label, worker, wall_ms)` in plan
/// order; `rows` must already be valid JSON (array or object).
pub fn pool_envelope(stats: &SweepStats, runs: &[(String, usize, f64)], rows: &str) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"threads\": {},\n  \"wall_ms\": {},\n  \"speedup_vs_serial\": {},",
        stats.threads,
        json_f64(stats.elapsed_ms),
        json_f64(stats.speedup_vs_serial())
    );
    let _ = writeln!(out, "  \"pool\": {},", stats.to_json());
    out.push_str("  \"runs\": [\n");
    for (i, (label, worker, wall_ms)) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": {}, \"worker\": {}, \"wall_ms\": {}}}",
            json_string(label),
            worker,
            json_f64(*wall_ms)
        );
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = write!(out, "  \"rows\": {rows}\n}}\n");
    out
}

// ---------------------------------------------------------------------------
// Shared argv parsing
//
// Every bin speaks one of a few tiny positional grammars; the parsers
// below replace the per-bin `parse().unwrap()` copies so a typo'd
// argument produces the same `error: …` + `usage: …` on stderr and
// exit status 2 everywhere, instead of a raw panic backtrace.
// ---------------------------------------------------------------------------

/// Parses `[duration_s] [pods…]` — a leading fractional duration in
/// seconds, then zero or more pod counts (`fig3_execution_time`,
/// `sweep_scaling`).
pub fn try_duration_then_pods(
    args: impl Iterator<Item = String>,
    default_duration: f64,
    default_pods: &[usize],
) -> Result<(f64, Vec<usize>), String> {
    let mut args = args.peekable();
    let duration = match args.next() {
        None => default_duration,
        Some(a) => a
            .parse::<f64>()
            .map_err(|_| format!("invalid duration {a:?} (want seconds, e.g. 60 or 0.5)"))?,
    };
    if !duration.is_finite() || duration <= 0.0 {
        return Err(format!("invalid duration {duration:?} (must be > 0)"));
    }
    Ok((duration, parse_pods(args, default_pods)?))
}

/// Parses `[pods…]` — zero or more pod counts (`scaling`).
pub fn try_pod_counts(
    args: impl Iterator<Item = String>,
    default_pods: &[usize],
) -> Result<Vec<usize>, String> {
    parse_pods(args, default_pods)
}

/// Parses `[k] [prefix_count]` — an optional pod count then an optional
/// synthetic-table size (`table_scale`).
pub fn try_k_then_prefixes(
    mut args: impl Iterator<Item = String>,
    default_k: usize,
    default_prefixes: usize,
) -> Result<(usize, usize), String> {
    let k = match args.next() {
        None => default_k,
        Some(a) => parse_pod_count(&a)?,
    };
    let prefixes = match args.next() {
        None => default_prefixes,
        Some(a) => parse_prefix_count(&a)?,
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected extra argument {extra:?}"));
    }
    Ok((k, prefixes))
}

fn parse_prefix_count(arg: &str) -> Result<usize, String> {
    let n: usize = arg
        .parse()
        .map_err(|_| format!("invalid prefix count {arg:?} (want a positive integer)"))?;
    if n == 0 {
        return Err("invalid prefix count 0 (must be ≥ 1)".to_string());
    }
    Ok(n)
}

fn parse_pods(
    args: impl Iterator<Item = String>,
    default_pods: &[usize],
) -> Result<Vec<usize>, String> {
    let pods: Vec<usize> = args
        .map(|a| parse_pod_count(&a))
        .collect::<Result<_, _>>()?;
    Ok(if pods.is_empty() {
        default_pods.to_vec()
    } else {
        pods
    })
}

fn parse_pod_count(arg: &str) -> Result<usize, String> {
    let k: usize = arg
        .parse()
        .map_err(|_| format!("invalid pod count {arg:?} (want an even integer ≥ 2, e.g. 4)"))?;
    if k < 2 || !k.is_multiple_of(2) {
        return Err(format!(
            "invalid pod count {k} (fat-trees need an even k ≥ 2)"
        ));
    }
    Ok(k)
}

fn usage_exit(usage: &str, err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// [`try_duration_then_pods`] over the real argv, exiting with status 2
/// and the bin's usage line on a parse failure.
pub fn duration_then_pods(
    usage: &str,
    default_duration: f64,
    default_pods: &[usize],
) -> (f64, Vec<usize>) {
    try_duration_then_pods(std::env::args().skip(1), default_duration, default_pods)
        .unwrap_or_else(|e| usage_exit(usage, &e))
}

/// [`try_pod_counts`] over the real argv; exits 2 on failure.
pub fn pod_counts(usage: &str, default_pods: &[usize]) -> Vec<usize> {
    try_pod_counts(std::env::args().skip(1), default_pods).unwrap_or_else(|e| usage_exit(usage, &e))
}

/// [`try_k_then_prefixes`] over the real argv; exits 2 on failure.
pub fn k_then_prefixes(usage: &str, default_k: usize, default_prefixes: usize) -> (usize, usize) {
    try_k_then_prefixes(std::env::args().skip(1), default_k, default_prefixes)
        .unwrap_or_else(|e| usage_exit(usage, &e))
}

/// Average shortest-path hop count for a set of host pairs — used by the
/// Mininet packet-hop estimate.
pub fn avg_hops(
    topo: &horse_net::topology::Topology,
    pairs: &[horse_topo::pattern::TrafficPair],
) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: usize = pairs
        .iter()
        .map(|p| topo.hop_distance(p.src, p.dst).unwrap_or(0))
        .sum();
    total as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_topo::fattree::{FatTree, SwitchRole};
    use horse_topo::pattern::TrafficPattern;

    fn argv(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn duration_then_pods_defaults_and_overrides() {
        assert_eq!(
            try_duration_then_pods(argv(&[]), 60.0, &[4, 6, 8]),
            Ok((60.0, vec![4, 6, 8]))
        );
        assert_eq!(
            try_duration_then_pods(argv(&["2.5", "4", "10"]), 60.0, &[4, 6, 8]),
            Ok((2.5, vec![4, 10]))
        );
        // Duration alone keeps the default grid.
        assert_eq!(
            try_duration_then_pods(argv(&["5"]), 60.0, &[4]),
            Ok((5.0, vec![4]))
        );
    }

    #[test]
    fn bad_arguments_name_the_offender() {
        let e = try_duration_then_pods(argv(&["fast"]), 60.0, &[4]).unwrap_err();
        assert!(e.contains("invalid duration \"fast\""), "{e}");
        let e = try_duration_then_pods(argv(&["-1"]), 60.0, &[4]).unwrap_err();
        assert!(e.contains("must be > 0"), "{e}");
        let e = try_pod_counts(argv(&["4", "nope"]), &[4]).unwrap_err();
        assert!(e.contains("invalid pod count \"nope\""), "{e}");
        let e = try_pod_counts(argv(&["7"]), &[4]).unwrap_err();
        assert!(e.contains("even k"), "{e}");
        let e = try_k_then_prefixes(argv(&["8", "lots"]), 8, 1000).unwrap_err();
        assert!(e.contains("invalid prefix count \"lots\""), "{e}");
        let e = try_k_then_prefixes(argv(&["8", "0"]), 8, 1000).unwrap_err();
        assert!(e.contains("must be ≥ 1"), "{e}");
        let e = try_k_then_prefixes(argv(&["8", "10", "2"]), 8, 1000).unwrap_err();
        assert!(e.contains("unexpected extra argument \"2\""), "{e}");
        let e = try_k_then_prefixes(argv(&["9"]), 8, 1000).unwrap_err();
        assert!(e.contains("even k"), "{e}");
    }

    #[test]
    fn k_then_prefixes_defaults_and_overrides() {
        assert_eq!(try_k_then_prefixes(argv(&[]), 16, 4096), Ok((16, 4096)));
        assert_eq!(try_k_then_prefixes(argv(&["8"]), 16, 4096), Ok((8, 4096)));
        assert_eq!(
            try_k_then_prefixes(argv(&["8", "100000"]), 16, 4096),
            Ok((8, 100_000))
        );
    }

    #[test]
    fn pod_counts_parse() {
        assert_eq!(try_pod_counts(argv(&[]), &[4, 8]), Ok(vec![4, 8]));
        assert_eq!(try_pod_counts(argv(&["12"]), &[4, 8]), Ok(vec![12]));
    }

    #[test]
    fn avg_hops_on_fattree() {
        let ft = FatTree::build(4, SwitchRole::OpenFlow, 1e9, 0);
        let pairs = TrafficPattern::RandomPermutation.pairs(&ft.hosts, 1);
        let h = avg_hops(&ft.topo, &pairs);
        // Fat-tree paths: 2 (same edge), 4 (same pod) or 6 (inter-pod).
        assert!((2.0..=6.0).contains(&h), "{h}");
    }
}
