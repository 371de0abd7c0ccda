//! `horse-benchmark` — the repo's one benchmark. See `README.md`.
//!
//! ```text
//! horse-benchmark run     [--seed 42] [--workload NAME]… [--out DIR] [--quick]
//! horse-benchmark bench   --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--quick]
//! horse-benchmark compare A.json B.json
//! ```
//!
//! `bench` is one pass over one workload in this process and ends with the
//! machine-readable result line; `run` starts one `bench` child per
//! workload and pass (clean allocator, per-workload `VmHWM`), one at a
//! time, and assembles their results.

mod bench;
mod metrics;
mod replay;
mod report;
mod spans;
mod staged;
mod stats;
mod traced;
mod workloads;

use horse::stats::json_string;
use metrics::PER_LAYER;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

/// Seconds one untraced pass measures for under `run` (the same figure
/// `BENCHMARK.json` gives the driver as `run_seconds`).
const RUN_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  horse-benchmark run     [--seed 42] [--workload NAME]... [--out DIR] [--quick]
  horse-benchmark bench   --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--quick]
  horse-benchmark compare A.json B.json";

/// Parsed `--flag value` options (flags may repeat; `--quick` takes none).
struct Options {
    pairs: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            pairs: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--quick" {
                o.quick = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                o.pairs.push((flag.to_string(), value.clone()));
            } else {
                o.positional.push(a.clone());
            }
        }
        Ok(o)
    }

    fn all(&self, flag: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.all(flag).last() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option --{f}")),
            None => Ok(()),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        self.all("workload")
            .into_iter()
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect()
    }
}

/// Where passes write when `--out` is not given: under this package's own
/// (git-ignored) `out/`, so nothing lands outside the checkout or in
/// `bench_results/`.
fn default_out(leaf: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(leaf)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => Options::parse(rest).and_then(|o| match cmd.as_str() {
            "bench" => cmd_bench(&o),
            "run" => cmd_run(&o),
            "compare" => cmd_compare(&o),
            other => Err(format!("unknown command {other:?}\n{USAGE}")),
        }),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("horse-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One pass over one workload, in this process.
fn cmd_bench(o: &Options) -> Result<ExitCode, String> {
    o.reject_unknown(&["workload", "seed", "seconds", "trace", "out"])?;
    let [w] = o.workloads()?[..] else {
        return Err(format!("bench takes exactly one --workload\n{USAGE}"));
    };
    let seed: u64 = o.get("seed")?.ok_or("bench needs --seed")?;
    let seconds: f64 = o.get("seconds")?.ok_or("bench needs --seconds")?;
    let traced = match o.get::<u8>("trace")?.ok_or("bench needs --trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let (out, keep) = match o.get::<PathBuf>("out")? {
        Some(dir) => (dir, true),
        None => (default_out(&format!("bench-{}", std::process::id())), false),
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let (line, detail, correct) = if traced {
        let r = traced::run(w, seed, &out);
        print_traced(&r, keep);
        let metrics: Vec<_> = r
            .layer
            .in_order()
            .map(|(d, v)| (d, v.unwrap_or(0.0)))
            .collect();
        let correct = r.problems.is_empty();
        (
            report::result_line(correct, 1, u64::from(!correct), &metrics),
            report::traced_json(&r),
            correct,
        )
    } else {
        let r = bench::run(w, seed, seconds, o.quick, &out);
        print_bench(&r);
        let correct = r.correct();
        (
            report::result_line(
                correct,
                r.attempted,
                r.failed,
                &report::end_to_end_values(&r),
            ),
            report::bench_json(&r),
            correct,
        )
    };
    if keep {
        let file = out.join(format!("pass-{}-trace{}.json", w.name(), u8::from(traced)));
        std::fs::write(&file, &detail).map_err(|e| format!("{}: {e}", file.display()))?;
    } else {
        // The default directory was only scratch space (checkpoints, the
        // span file): leave nothing behind, not even an empty `out/`.
        let _ = std::fs::remove_dir_all(&out);
        if let Some(parent) = out.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn print_bench(r: &bench::BenchResult) {
    let (wall, rt) = (r.wall(), r.rt_factor());
    println!(
        "workload {} (seed {}), tracing off",
        r.workload.name(),
        r.seed
    );
    println!(
        "  setup_s        {:>12.4} s      median of {} rounds {:?}",
        r.setup_s(),
        r.setup_rounds_s.len(),
        r.setup_rounds_s
    );
    println!(
        "  wall_s         {:>12.4} s      n={} q1={:.4} q3={:.4}",
        wall.median, wall.n, wall.q1, wall.q3
    );
    println!(
        "  rt_factor      {:>12.4} ratio  q1={:.4} q3={:.4}",
        rt.median, rt.q1, rt.q3
    );
    println!(
        "  peak_rss_mb    {:>12.1} MiB    after the first iteration",
        r.peak_rss_mb
    );
    println!(
        "  failed_share   {:>12.6} ratio  {} of {} runs",
        r.failed_share(),
        r.failed,
        r.attempted
    );
    println!("  semantic_digest {:016x}", r.semantic_digest);
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

fn print_traced(r: &traced::TracedResult, kept: bool) {
    println!(
        "workload {} (seed {}), traced pass",
        r.workload.name(),
        r.seed
    );
    for (def, value) in r.layer.in_order() {
        if let Some(v) = value {
            println!("  {:<36} {:>16.6} {}", def.name, v, def.unit);
        }
    }
    println!(
        "  staged iteration {:.4} s, stage spans leave {:+.2}% unaccounted; spans {}",
        r.staged_wall_s,
        r.stage_gap * 100.0,
        if kept {
            format!("in {}", r.trace_file.display())
        } else {
            "discarded (pass --out DIR to keep them)".to_string()
        }
    );
    for p in &r.problems {
        println!("  FAILED: {p}");
    }
}

/// The first line of a tool's `--version`-style output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one `bench` child to completion and returns its pass file's JSON.
fn child_pass(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: &Path,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("bench")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if quick {
        cmd.arg("--quick");
    }
    // The child's report is ours too, minus its machine-readable last line
    // (the pass file carries the same numbers and more).
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} pass: {e}", w.name()))?;
    let status = output.status;
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    let file = out.join(format!("pass-{}-trace{}.json", w.name(), u8::from(traced)));
    let json = std::fs::read_to_string(&file)
        .map_err(|e| format!("the {} pass left no result ({status}): {e}", w.name()))?;
    Ok((json, status.success()))
}

/// Every workload untraced, then a separate traced pass, one child each.
fn cmd_run(o: &Options) -> Result<ExitCode, String> {
    o.reject_unknown(&["workload", "seed", "out"])?;
    let seed: u64 = o.get("seed")?.unwrap_or(42);
    let seconds = if o.quick { 0.0 } else { RUN_SECONDS };
    let mut workloads = o.workloads()?;
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    let out = o
        .get::<PathBuf>("out")?
        .unwrap_or_else(|| default_out(&format!("run-seed{seed}")));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    let start = Instant::now();
    let mut all_correct = true;
    let mut untraced = Vec::new();
    for &w in &workloads {
        let (json, ok) = child_pass(w, seed, seconds, false, o.quick, &out)?;
        all_correct &= ok;
        untraced.push(json);
    }
    // `--quick` is the smoke test: output checks on, no traced pass.
    let mut traced = Vec::new();
    if !o.quick {
        for &w in &workloads {
            let (json, ok) = child_pass(w, seed, seconds, true, false, &out)?;
            all_correct &= ok;
            traced.push(json);
        }
    }
    let total = start.elapsed().as_secs_f64();

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let mut envelope = format!(
        "{{\"schema\": \"{}\", \"seed\": {seed}, \"quick\": {}, \"run_seconds\": {seconds}, \
         \"min_iters\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}, \
         \"total_wall_s\": {total}, \"workloads\": [\n",
        report::SCHEMA,
        o.quick,
        if o.quick { 1 } else { bench::MIN_ITERS },
        json_string(&tool_line("rustc", &["--version"])),
        json_string(&tool_line(
            "git",
            &["-C", manifest_dir, "rev-parse", "HEAD"]
        )),
    );
    for (i, w) in workloads.iter().enumerate() {
        envelope.push_str(&format!(
            "  {{\"name\": {}, \"why\": {}, \"untraced\": {}, \"traced\": {}}}{}\n",
            json_string(w.name()),
            json_string(w.why()),
            untraced[i],
            traced.get(i).map_or("null", String::as_str),
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    envelope.push_str("]}\n");
    let file = out.join("result.json");
    std::fs::write(&file, envelope).map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "{} workloads, {} per-layer metrics defined, {total:.1} s on {nproc} cores; results in {}",
        workloads.len(),
        PER_LAYER.len(),
        file.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one pass reported failures (see above)");
        ExitCode::from(1)
    })
}

/// `compare A.json B.json`: B judged against baseline A.
fn cmd_compare(o: &Options) -> Result<ExitCode, String> {
    o.reject_unknown(&[])?;
    let [a, b] = &o.positional[..] else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| report::parse_result(&t).map_err(|e| format!("{path}: {e}")))
    };
    let c = report::compare(&load(a)?, &load(b)?);
    print!("{}", c.text);
    Ok(if c.regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
