//! The untraced pass: set-up rounds, then measured iterations of one
//! workload, with every output check applied to every iteration.
//!
//! An *iteration* is what a user waits for — from `(spec, seed)` to the
//! finished report(s): per-iteration experiment and control-plane
//! construction, `Runner::run`, and teardown of the runner. Checks and
//! digests run outside the timed region.

use crate::stats::Quartiles;
use crate::workloads::{build_experiment, build_shared, zoo_plan, Expect, Shared, Workload};
use horse::sweep::{fnv1a64, RunOutcome};
use horse::{ExperimentReport, RunConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured iterations every pass completes, however slow the box.
pub const MIN_ITERS: usize = 10;
/// Untimed set-up rounds a process runs first. They pay its page faults
/// and the allocator's growth to the workload's footprint: on
/// `wan_table_10k` (470 MiB) the first two rounds take 1.6–2.4 s, a
/// different figure in every process, against 1.36 s for every later one.
pub const COLD_ROUNDS: usize = 2;
/// Timed set-up rounds per process; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// Failure descriptions kept per pass (the counts are always complete).
const MAX_FAILURES_KEPT: usize = 8;

/// What one iteration produced, beyond its wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationOutcome {
    /// Experiment runs attempted.
    pub ops: u64,
    /// Runs that panicked, failed in the pool, or violated an output check.
    pub failed: u64,
    /// Σ wall seconds the runs spent executing (`wall_run_secs`; per-run
    /// pool wall for the sweep, whose checkpoint records drop cost fields).
    pub wall_run_s: f64,
    /// Σ virtual seconds the runs' clocks spent in FTI mode.
    pub fti_s: f64,
    /// FNV-1a 64 of the iteration's semantic JSON.
    pub digest: u64,
    /// Readable description of every failure.
    pub failures: Vec<String>,
}

impl IterationOutcome {
    fn all_failed(ops: u64, why: String) -> IterationOutcome {
        IterationOutcome {
            ops,
            failed: ops,
            wall_run_s: 0.0,
            fti_s: 0.0,
            digest: 0,
            failures: vec![why],
        }
    }
}

/// The explicit run configuration of the sweep workload: one worker,
/// checkpoints under the benchmark's own output directory, nothing taken
/// from the environment.
pub fn sweep_config(ckpt_dir: &Path, threads: usize) -> RunConfig {
    RunConfig {
        threads: Some(threads),
        checkpoint_dir: Some(ckpt_dir.to_path_buf()),
        ..RunConfig::default()
    }
}

/// Folds one experiment report into an outcome.
pub fn outcome_of_report(expect: &Expect, report: &ExperimentReport) -> IterationOutcome {
    let failures = expect.violations(report);
    IterationOutcome {
        ops: 1,
        failed: u64::from(!failures.is_empty()),
        wall_run_s: report.wall_run_secs,
        fti_s: report.fti_time.as_secs_f64(),
        digest: fnv1a64(report.semantic_json().as_bytes()),
        failures,
    }
}

/// Runs one timed iteration of `w`; returns its wall seconds and outcome.
/// A panic anywhere inside counts every op of the iteration as failed.
pub fn iteration(w: Workload, shared: &Shared, seed: u64, out: &Path) -> (f64, IterationOutcome) {
    let ops = shared.ops_per_iteration();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match shared {
        Shared::Zoo { names } => sweep_iteration(names, ops, seed, out),
        _ => {
            let start = Instant::now();
            let e = build_experiment(w, shared, seed);
            let expect = Expect::of(w, &e);
            let report = e.run();
            let wall = start.elapsed().as_secs_f64();
            (wall, outcome_of_report(&expect, &report))
        }
    }));
    run.unwrap_or_else(|_| {
        (
            0.0,
            IterationOutcome::all_failed(ops, "iteration panicked".to_string()),
        )
    })
}

/// The checkpoint directory of the sweep workload under `out`.
pub fn ckpt_dir(out: &Path) -> PathBuf {
    out.join("ckpt")
}

fn sweep_iteration(names: &[String], ops: u64, seed: u64, out: &Path) -> (f64, IterationOutcome) {
    let dir = ckpt_dir(out);
    let cfg = sweep_config(&dir, 1);
    let start = Instant::now();
    let plan = zoo_plan(names, seed);
    let sweep = plan.execute_resumable(&cfg);
    let wall = start.elapsed().as_secs_f64();
    let sweep = match sweep {
        Ok(s) => s,
        Err(e) => return (wall, IterationOutcome::all_failed(ops, e.to_string())),
    };
    // The next iteration must execute every run again, not restore them.
    let _ = std::fs::remove_file(&sweep.path);
    if !sweep.is_complete() || sweep.runs.len() as u64 != ops {
        let why = format!("sweep incomplete: {} of {ops} runs", sweep.runs.len());
        return (wall, IterationOutcome::all_failed(ops, why));
    }
    // Traffic-less runs: only the checks every report must pass apply.
    let expect = Expect::default();
    let mut o = IterationOutcome {
        ops,
        failed: 0,
        wall_run_s: 0.0,
        fti_s: 0.0,
        digest: fnv1a64(sweep.semantic_json().as_bytes()),
        failures: Vec::new(),
    };
    for r in &sweep.runs {
        o.wall_run_s += r.wall_ms / 1e3;
        let problems = match &r.outcome {
            RunOutcome::Failed { message } => vec![format!("panicked: {message}")],
            RunOutcome::Ok(semantic) => match ExperimentReport::from_json(semantic) {
                Ok(report) => {
                    o.fti_s += report.fti_time.as_secs_f64();
                    expect.violations(&report)
                }
                Err(e) => vec![format!("unreadable record: {e}")],
            },
        };
        if !problems.is_empty() {
            o.failed += 1;
            o.failures
                .push(format!("{}: {}", r.label, problems.join("; ")));
        }
    }
    (wall, o)
}

/// The result of the untraced pass over one workload.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// The workload.
    pub workload: Workload,
    /// The seed inputs were generated from.
    pub seed: u64,
    /// Wall seconds of each timed set-up round (shared build + warm-up
    /// iteration).
    pub setup_rounds_s: Vec<f64>,
    /// Wall seconds of each measured iteration.
    pub walls_s: Vec<f64>,
    /// `rt_factor` of each measured iteration.
    pub rt_factors: Vec<f64>,
    /// Experiment runs attempted across measured iterations.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// The semantic digest shared by every iteration (0 when they differ).
    pub semantic_digest: u64,
    /// Failure descriptions (bounded).
    pub failures: Vec<String>,
    /// `VmHWM` of this process after its first set-up round, MiB: what one
    /// experiment costs in a fresh process. (Repeating the iteration only
    /// adds allocator creep — a few percent, different every process —
    /// which is why the figure is not taken at exit.)
    pub peak_rss_mb: f64,
    /// Wall seconds of the whole pass.
    pub total_wall_s: f64,
}

impl BenchResult {
    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        Quartiles::of(&self.setup_rounds_s).median
    }

    /// Iteration wall-time quartiles.
    pub fn wall(&self) -> Quartiles {
        Quartiles::of(&self.walls_s)
    }

    /// `rt_factor` quartiles.
    pub fn rt_factor(&self) -> Quartiles {
        Quartiles::of(&self.rt_factors)
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every run passed every check, the warm-ups included.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

fn peak_rss_now_mb() -> f64 {
    horse_core::report::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Runs the untraced pass: [`COLD_ROUNDS`] untimed and [`SETUP_ROUNDS`]
/// timed set-up rounds, then measured iterations until both `seconds` have
/// elapsed and [`MIN_ITERS`] are done. `quick` is the smoke test: one
/// set-up round, one iteration, every check.
pub fn run(w: Workload, seed: u64, seconds: f64, quick: bool, out: &Path) -> BenchResult {
    let (cold_rounds, setup_rounds, min_iters) = if quick {
        (0, 1, 1)
    } else {
        (COLD_ROUNDS, SETUP_ROUNDS, MIN_ITERS)
    };
    let pass_start = Instant::now();
    let mut setup_rounds_s = Vec::with_capacity(setup_rounds);
    let mut shared = None;
    let mut reference = None;
    let mut failures = Vec::new();
    let mut peak_rss_mb = 0.0;
    for round in 0..cold_rounds + setup_rounds {
        let start = Instant::now();
        let s = build_shared(w);
        let (_, warm) = iteration(w, &s, seed, out);
        if round >= cold_rounds {
            setup_rounds_s.push(start.elapsed().as_secs_f64());
        }
        if round == 0 {
            peak_rss_mb = peak_rss_now_mb();
        }
        // The warm-up is unmeasured but not unchecked: it pins the digest
        // every measured iteration must reproduce.
        if warm.failed > 0 {
            failures.extend(warm.failures.iter().map(|f| format!("warm-up: {f}")));
        }
        reference = Some(warm.digest);
        shared = Some(s);
    }
    let shared = shared.expect("at least one set-up round");
    let reference = reference.expect("at least one warm-up");

    let mut walls_s = Vec::new();
    let mut rt_factors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest_stable = failures.is_empty();
    let mut iterations = 0usize;
    let mut dead_in_a_row = 0usize;
    let measure_start = Instant::now();
    while iterations < min_iters || measure_start.elapsed().as_secs_f64() < seconds {
        let (wall, mut o) = iteration(w, &shared, seed, out);
        if o.failed == 0 && o.digest != reference {
            // Same seed must give the same bytes: the whole iteration is
            // wrong if it does not.
            o.failed = o.ops;
            o.failures.push(format!(
                "semantic digest {:016x} != warm-up's {reference:016x}",
                o.digest
            ));
            digest_stable = false;
        }
        iterations += 1;
        attempted += o.ops;
        failed += o.failed;
        let room = MAX_FAILURES_KEPT.saturating_sub(failures.len());
        failures.extend(o.failures.into_iter().take(room));
        if o.failed < o.ops {
            walls_s.push(wall);
            rt_factors.push(o.wall_run_s / o.fti_s.max(f64::MIN_POSITIVE));
            dead_in_a_row = 0;
        } else {
            // An iteration with no surviving run has no meaningful wall
            // time; three in a row means the workload is broken, and
            // spinning to the deadline would only repeat the failure.
            dead_in_a_row += 1;
            if dead_in_a_row >= 3 {
                break;
            }
        }
    }
    if walls_s.is_empty() {
        walls_s.push(0.0);
        rt_factors.push(0.0);
    }
    BenchResult {
        workload: w,
        seed,
        setup_rounds_s,
        walls_s,
        rt_factors,
        attempted: attempted.max(1),
        failed,
        semantic_digest: if digest_stable { reference } else { 0 },
        failures,
        peak_rss_mb,
        total_wall_s: pass_start.elapsed().as_secs_f64(),
    }
}
