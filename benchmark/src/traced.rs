//! The traced pass: one staged iteration per workload, counts read off the
//! report(s), the layer replays, and the parity checks that tie all of it
//! back to what `Experiment::run` produces. Nothing measured here feeds an
//! end-to-end metric.

use crate::bench::{ckpt_dir, sweep_config};
use crate::metrics::{ratio, LayerValues};
use crate::replay;
use crate::spans::Spans;
use crate::staged::{run_staged, stage_gap};
use crate::stats::{median, percentile};
use crate::workloads::{build_experiment, build_shared, zoo_names, zoo_plan, Shared, Workload};
use horse::sim::ClockMode;
use horse::sweep::{fnv1a64, TopoCache};
use horse::trace::{Component, TraceData, TraceEvent};
use horse::{ControlBuild, ExperimentReport, TraceOptions, ZooCorpus};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage spans may leave this share of the staged iteration unaccounted.
pub const MAX_STAGE_GAP: f64 = 0.02;

/// Traced/untraced pairs behind `trace.overhead_ratio`.
const TRACE_PAIRS: usize = 3;

/// The result of the traced pass over one workload.
#[derive(Debug, Clone)]
pub struct TracedResult {
    /// The workload.
    pub workload: Workload,
    /// The seed inputs were generated from.
    pub seed: u64,
    /// Every per-layer value measured.
    pub layer: LayerValues,
    /// Parity and self-check failures (empty = correct).
    pub problems: Vec<String>,
    /// Wall seconds of the staged iteration.
    pub staged_wall_s: f64,
    /// Share of it the stage spans leave unaccounted.
    pub stage_gap: f64,
    /// FNV-1a 64 of the staged iteration's semantic JSON.
    pub semantic_digest: u64,
    /// Where the Chrome trace of the harness spans was written.
    pub trace_file: PathBuf,
    /// Wall seconds of the whole pass.
    pub total_wall_s: f64,
}

/// Copies the counts one report carries into `layer`, adding (a sweep sums
/// its runs); the ratios are derived afterwards by [`derive_ratios`].
fn add_counts(layer: &mut LayerValues, r: &ExperimentReport, sums: &mut RatioSums) {
    layer.add("sim.events", r.events_processed as f64);
    layer.add("sim.transitions", r.transition_count() as f64);
    layer.add("sim.fti_virtual_s", r.fti_time.as_secs_f64());
    layer.add("core.pump.steps", r.pump_steps as f64);
    layer.add("core.pump.nodes_touched", r.pump_nodes_touched as f64);
    layer.add("core.pump.table_scans", r.pump_table_scans as f64);
    layer.add("cm.control_msgs", r.control_msgs as f64);
    layer.add("cm.table_writes", r.table_writes as f64);
    layer.add("bgp.rib.decide_calls", r.rib_decide_calls as f64);
    layer.add("bgp.rib.candidate_touches", r.rib_candidate_touches as f64);
    layer.add("bgp.mem.attr_bytes_est", r.mem_attr_bytes_est as f64);
    layer.add("bgp.mem.prefix_ids", r.mem_prefix_ids as f64);
    layer.add("net.fluid.solves", r.fluid_solves as f64);
    layer.add("net.fluid.flows_touched", r.fluid_flows_touched as f64);
    layer.add("controller.scheduler_moves", r.scheduler_moves as f64);
    sums.decide_hits += r.rib_decide_cache_hits as f64;
    sums.attr_interns += r.rib_attr_interns as f64;
    sums.attr_reuses += r.rib_attr_reuses as f64;
    sums.export_hits += r.rib_export_cache_hits as f64;
    sums.export_misses += r.rib_export_cache_misses as f64;
    sums.heap_pushes += r.fluid_heap_pushes as f64;
    sums.heap_stale += r.fluid_heap_stale_pops as f64;
}

/// Numerators and denominators of the useful-outcome ratios.
#[derive(Default)]
struct RatioSums {
    decide_hits: f64,
    attr_interns: f64,
    attr_reuses: f64,
    export_hits: f64,
    export_misses: f64,
    heap_pushes: f64,
    heap_stale: f64,
}

fn derive_ratios(layer: &mut LayerValues, s: &RatioSums) {
    let get = |l: &LayerValues, k: &str| l.get(k).unwrap_or(0.0);
    let decide_calls = get(layer, "bgp.rib.decide_calls");
    layer.set(
        "bgp.rib.decide_hit_ratio",
        ratio(s.decide_hits, decide_calls),
    );
    layer.set(
        "bgp.rib.attr_reuse_ratio",
        ratio(s.attr_reuses, s.attr_interns + s.attr_reuses),
    );
    layer.set(
        "bgp.speaker.export_hit_ratio",
        ratio(s.export_hits, s.export_hits + s.export_misses),
    );
    let solves = get(layer, "net.fluid.solves");
    let touched = get(layer, "net.fluid.flows_touched");
    layer.set("net.fluid.flows_per_solve", ratio(touched, solves));
    layer.set(
        "net.fluid.heap_stale_ratio",
        ratio(s.heap_stale, s.heap_pushes),
    );
}

/// One `(virtual ns, wall ns)` stamp of a traced run, with the clock mode
/// it entered if it is a mode transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Virtual time of the event.
    pub t_ns: u64,
    /// Wall nanoseconds since the trace epoch when it was recorded.
    pub wall_ns: u64,
    /// `Some(true)` entering FTI, `Some(false)` entering DES.
    pub enters_fti: Option<bool>,
}

/// How far a real-time-paced run fell behind the wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct PacingLag {
    /// Lateness of each event inside an FTI period, milliseconds.
    pub lags_ms: Vec<f64>,
    /// Σ over FTI periods of wall time spent beyond the period's virtual
    /// length, seconds.
    pub overrun_s: f64,
}

/// Pacing lag from a traced run's stamps, in merged trace order. Inside an
/// FTI period the paced clock should advance one virtual second per wall
/// second, anchored where the period began: an event's lag is how much
/// more wall than virtual time separates it from that anchor (never
/// negative — early is on time). A period's overrun is the same quantity
/// at its closing transition.
pub fn pacing_lag(stamps: &[Stamp]) -> PacingLag {
    let mut out = PacingLag {
        lags_ms: Vec::new(),
        overrun_s: 0.0,
    };
    let mut anchor: Option<Stamp> = None;
    let mut last_in_period: Option<Stamp> = None;
    let late_ns = |a: &Stamp, s: &Stamp| {
        let wall = s.wall_ns.saturating_sub(a.wall_ns) as f64;
        let virt = s.t_ns.saturating_sub(a.t_ns) as f64;
        (wall - virt).max(0.0)
    };
    for s in stamps {
        match (s.enters_fti, anchor) {
            (Some(true), _) => {
                anchor = Some(*s);
                last_in_period = None;
            }
            (Some(false), Some(a)) => {
                out.overrun_s += late_ns(&a, s) / 1e9;
                anchor = None;
            }
            (None, Some(a)) => {
                out.lags_ms.push(late_ns(&a, s) / 1e6);
                last_in_period = Some(*s);
            }
            _ => {}
        }
    }
    // A period still open at the horizon closes at its last event.
    if let (Some(a), Some(s)) = (anchor, last_in_period) {
        out.overrun_s += late_ns(&a, &s) / 1e9;
    }
    out
}

fn stamps_of(events: &[(Component, TraceEvent)]) -> Vec<Stamp> {
    events
        .iter()
        .map(|(_, e)| Stamp {
            t_ns: e.t.as_nanos(),
            wall_ns: e.wall_ns,
            enters_fti: match e.data {
                TraceData::ModeEnter { fti, .. } => Some(fti),
                _ => None,
            },
        })
        .collect()
}

/// Runs the traced pass over `w`, writing `trace-<workload>.json` to `out`.
pub fn run(w: Workload, seed: u64, out: &Path) -> TracedResult {
    let pass_start = Instant::now();
    let mut spans = Spans::new(w.name());
    let mut layer = LayerValues::default();
    let mut problems = Vec::new();
    let (staged_wall_s, digest) = match w {
        Workload::ZooSweep => sweep_pass(seed, out, &mut spans, &mut layer, &mut problems),
        _ => single_pass(w, seed, &mut spans, &mut layer, &mut problems),
    };
    let gap = stage_gap(&layer, staged_wall_s);
    if gap.abs() > MAX_STAGE_GAP {
        problems.push(format!(
            "stage spans leave {:.1}% of the staged iteration unaccounted (limit {:.0}%)",
            gap * 100.0,
            MAX_STAGE_GAP * 100.0
        ));
    }
    for (def, value) in layer.in_order() {
        if let Some(v) = value {
            spans.count(def.name, v);
        }
    }
    let trace_file = out.join(format!("trace-{}.json", w.name()));
    if let Err(e) = std::fs::write(&trace_file, spans.chrome_json()) {
        problems.push(format!("cannot write {}: {e}", trace_file.display()));
    }
    TracedResult {
        workload: w,
        seed,
        layer,
        problems,
        staged_wall_s,
        stage_gap: gap,
        semantic_digest: digest,
        trace_file,
        total_wall_s: pass_start.elapsed().as_secs_f64(),
    }
}

/// The traced pass of a single-experiment workload. Returns the staged
/// iteration's wall seconds and semantic digest.
fn single_pass(
    w: Workload,
    seed: u64,
    spans: &mut Spans,
    layer: &mut LayerValues,
    problems: &mut Vec<String>,
) -> (f64, u64) {
    // The plain iteration first: it is the parity reference for the staged
    // one, and it warms the process (page faults, allocator growth) so the
    // stage times are not a cold start's.
    let (plain_semantic, _) = spans.time("parity.experiment_run", |_| {
        let shared = build_shared(w);
        build_experiment(w, &shared, seed).run().semantic_json()
    });

    // The staged iteration. Its wall time is clocked independently of the
    // stage spans, so their sum can be checked against it.
    let pre_start = Instant::now();
    let (shared, s) = spans.time("topo.build", |_| build_shared(w));
    layer.add("topo.build_s", s);
    let (e, s) = spans.time("core.experiment_build", |_| {
        build_experiment(w, &shared, seed)
    });
    layer.add("core.experiment_build_s", s);
    let pre_s = pre_start.elapsed().as_secs_f64();
    let topo = std::sync::Arc::clone(&e.topo);
    let traffic = e.traffic.clone();
    let link_events = e.link_events.clone();
    let horizon = e.horizon;
    let setups = match &e.control {
        ControlBuild::Bgp(setups) => Some(setups.clone()),
        _ => None,
    };
    let staged = run_staged(e, spans, layer);
    let staged_wall_s = pre_s + staged.wall_s;

    let mut sums = RatioSums::default();
    add_counts(layer, &staged.report, &mut sums);
    derive_ratios(layer, &sums);

    // Parity: the staged steps must produce the bytes `Experiment::run` does.
    if plain_semantic != staged.semantic_json {
        problems.push("staged iteration's semantic_json differs from Experiment::run's".into());
    }

    if !traffic.is_empty() {
        if staged.paths.len() != traffic.len() {
            problems.push(format!(
                "{} of {} flows resolve over the finished run's tables",
                staged.paths.len(),
                traffic.len()
            ));
        }
        layer.set(
            "dataplane.path.resolve_us_per_flow",
            ratio(staged.resolve_s * 1e6, traffic.len() as f64),
        );
    }

    let mesh = matches!(
        w,
        Workload::BgpConvergeK12 | Workload::BgpFlapK12 | Workload::WanTable10k
    );
    if let (true, Some(setups)) = (mesh, &setups) {
        if let Err(p) = replay::bgp_mesh(&topo, setups, &link_events, horizon, spans, layer) {
            problems.push(p);
        }
    }
    if matches!(w, Workload::SdnPoissonK8 | Workload::BgpFlapK12) {
        replay::fluid(&topo, &staged.paths, &link_events, horizon, spans, layer);
    }
    if w == Workload::SdnPoissonK8 {
        if let Err(p) = replay::sdn_control(&topo, &traffic, seed, spans, layer) {
            problems.push(p);
        }
    }
    if matches!(w, Workload::BgpConvergeK12 | Workload::SdnPoissonK8) {
        trace_overhead(w, &shared, seed, spans, layer);
    }
    if w == Workload::BgpPacedK10 {
        let ((report, log), _) = spans.time("sim.pacing.traced_run", |_| {
            build_experiment(w, &shared, seed)
                .trace(TraceOptions::enabled())
                .run_traced()
        });
        let lag = pacing_lag(&stamps_of(&log.map(|l| l.events).unwrap_or_default()));
        if lag.lags_ms.is_empty() {
            problems.push("the paced run's trace holds no event inside an FTI period".into());
        } else {
            layer.set("sim.pacing.lag_p50_ms", percentile(&lag.lags_ms, 0.5));
            layer.set("sim.pacing.lag_p99_ms", percentile(&lag.lags_ms, 0.99));
            layer.set("sim.pacing.lag_max_ms", percentile(&lag.lags_ms, 1.0));
        }
        layer.set("sim.pacing.samples", lag.lags_ms.len() as f64);
        layer.set("sim.pacing.overrun_s", lag.overrun_s);
        spans.count("trace.dropped_in_paced_run", report.trace.dropped as f64);
    }
    (staged_wall_s, fnv1a64(staged.semantic_json.as_bytes()))
}

/// Interleaved traced/untraced pairs of the whole iteration: what turning
/// `horse-trace` recording on costs this workload.
fn trace_overhead(
    w: Workload,
    shared: &Shared,
    seed: u64,
    spans: &mut Spans,
    layer: &mut LayerValues,
) {
    let mut ratios = Vec::new();
    let mut ns_per_event = Vec::new();
    let (mut events, mut dropped) = (0u64, 0u64);
    for _ in 0..TRACE_PAIRS {
        let ((), off_s) = spans.time("trace.pair.untraced", |_| {
            drop(build_experiment(w, shared, seed).run());
        });
        let (report, on_s) = spans.time("trace.pair.traced", |_| {
            build_experiment(w, shared, seed)
                .trace(TraceOptions::enabled())
                .run_traced()
                .0
        });
        events = report.trace.events;
        dropped = report.trace.dropped;
        ratios.push(on_s / off_s);
        let recorded = (events + dropped).max(1) as f64;
        ns_per_event.push((on_s - off_s).max(0.0) * 1e9 / recorded);
    }
    layer.set("trace.overhead_ratio", median(&ratios));
    layer.set("trace.events", events as f64);
    layer.set("trace.dropped", dropped as f64);
    layer.set("trace.ns_per_event", median(&ns_per_event));
}

/// The traced pass of the sweep workload. Returns the staged sweep's wall
/// seconds and semantic digest.
fn sweep_pass(
    seed: u64,
    out: &Path,
    spans: &mut Spans,
    layer: &mut LayerValues,
    problems: &mut Vec<String>,
) -> (f64, u64) {
    // The library's own in-memory sweep first: parity reference, source of
    // the counts, and warm-up for the staged sweep.
    let (outcome, _) = spans.time("parity.sweep_execute", |_| {
        zoo_plan(&zoo_names(), seed).execute(1)
    });

    // The staged sweep: every run of the plan, stage by stage, through one
    // topology cache — the loop `SweepPlan::execute` runs, without the pool
    // and the checkpoint writer (which get their own replays below).
    let sweep_start = Instant::now();
    let mut resolve_s = 0.0;
    let (names, s) = spans.time("topo.build", |_| zoo_names());
    layer.add("topo.build_s", s);
    let (plan, s) = spans.time("core.experiment_build", |_| zoo_plan(&names, seed));
    layer.add("core.experiment_build_s", s);
    let (specs, s) = spans.time("core.experiment_build", |_| plan.expand());
    layer.add("core.experiment_build_s", s);
    let cache = TopoCache::new();
    let mut semantic = String::from("[\n");
    for (i, spec) in specs.iter().enumerate() {
        spans.time("sweep.run", |spans| {
            let (_, s) = spans.time("topo.build", |_| {
                cache.built(&spec.topo, spec.te.switch_role())
            });
            layer.add("topo.build_s", s);
            let (e, s) = spans.time("core.experiment_build", |_| {
                plan.build_experiment(spec, &cache)
            });
            layer.add("core.experiment_build_s", s);
            let staged = run_staged(e, spans, layer);
            resolve_s += staged.resolve_s;
            semantic.push_str(&staged.semantic_json);
            semantic.push_str(if i + 1 < specs.len() { ",\n" } else { "\n" });
            let ((), s) = spans.time("core.teardown", |_| drop(staged));
            layer.add("core.teardown_s", s);
        });
    }
    semantic.push(']');
    let staged_wall_s = sweep_start.elapsed().as_secs_f64() - resolve_s;

    // Counts and parity from the library's own in-memory sweep.
    if outcome.semantic_json() != semantic {
        problems.push("staged sweep's semantic_json differs from SweepPlan::execute's".into());
    }
    let mut sums = RatioSums::default();
    let mut unconverged = 0u64;
    for r in &outcome.runs {
        add_counts(layer, &r.report, &mut sums);
        let in_fti_at_horizon = r
            .report
            .transitions
            .last()
            .is_some_and(|t| t.mode == ClockMode::Fti);
        unconverged += u64::from(in_fti_at_horizon);
    }
    derive_ratios(layer, &sums);
    layer.set("sweep.unconverged_runs", unconverged as f64);

    let corpus = ZooCorpus::vendored();
    let (parsed, s) = spans.time("topo.zoo.parse", |_| {
        names.iter().filter(|n| corpus.load(n).is_ok()).count()
    });
    layer.set("topo.zoo.parse_s", s);
    if parsed != names.len() {
        problems.push(format!("{parsed} of {} zoo graphs parse", names.len()));
    }

    // Checkpoint resume: a second call over the complete file loads,
    // verifies and splices every record and executes nothing.
    let dir = ckpt_dir(out);
    let cfg = sweep_config(&dir, 1);
    let first = plan.execute_resumable(&cfg);
    let (second, s) = spans.time("sweep.checkpoint.resume", |_| plan.execute_resumable(&cfg));
    match (&first, &second) {
        (Ok(a), Ok(b)) => {
            layer.set("sweep.checkpoint.resume_s", s);
            let bytes = std::fs::metadata(&b.path).map(|m| m.len()).unwrap_or(0);
            layer.set("sweep.checkpoint.bytes", bytes as f64);
            if b.executed != 0 || b.restored != specs.len() {
                problems.push(format!(
                    "resume executed {} and restored {} of {} runs",
                    b.executed,
                    b.restored,
                    specs.len()
                ));
            }
            if a.semantic_json() != semantic || b.semantic_json() != semantic {
                problems
                    .push("checkpointed sweep's semantic_json differs from the staged one".into());
            }
            let _ = std::fs::remove_file(&b.path);
        }
        (Err(e), _) | (_, Err(e)) => problems.push(format!("checkpointed sweep: {e}")),
    }

    // The same plan on two workers. Informational on a shared box: the
    // second core may or may not be free.
    let (two, _) = spans.time("sweep.pool.two_workers", |_| {
        plan.execute_resumable(&sweep_config(&dir, 2))
    });
    match two {
        Ok(t) => {
            layer.set("sweep.pool.speedup_2w", t.stats.speedup_vs_serial());
            layer.set("sweep.pool.utilization_2w", t.stats.utilization());
            if t.semantic_json() != semantic {
                problems.push("two-worker sweep's semantic_json differs from one worker's".into());
            }
            let _ = std::fs::remove_file(&t.path);
        }
        Err(e) => problems.push(format!("two-worker sweep: {e}")),
    }
    (staged_wall_s, fnv1a64(semantic.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(t_ms: u64, wall_ms: u64, enters_fti: Option<bool>) -> Stamp {
        Stamp {
            t_ns: t_ms * 1_000_000,
            wall_ns: wall_ms * 1_000_000,
            enters_fti,
        }
    }

    #[test]
    fn lag_is_wall_minus_virtual_since_the_fti_anchor() {
        let stamps = [
            stamp(0, 5, Some(false)),
            // FTI period anchored at virtual 100 ms / wall 50 ms.
            stamp(100, 50, Some(true)),
            stamp(110, 60, None),         // on time
            stamp(120, 73, None),         // 3 ms late
            stamp(130, 75, None),         // early: not late
            stamp(200, 157, Some(false)), // period ran 7 ms over
            stamp(900, 158, None),        // DES: not sampled
            stamp(1000, 200, Some(true)),
            stamp(1010, 215, None), // 5 ms late, period open at the end
        ];
        let lag = pacing_lag(&stamps);
        assert_eq!(lag.lags_ms, vec![0.0, 3.0, 0.0, 5.0]);
        assert!((lag.overrun_s - 0.012).abs() < 1e-12);
    }

    #[test]
    fn no_fti_period_means_no_samples() {
        let lag = pacing_lag(&[stamp(0, 1, Some(false)), stamp(10, 2, None)]);
        assert!(lag.lags_ms.is_empty());
        assert_eq!(lag.overrun_s, 0.0);
    }

    #[test]
    fn ratios_are_derived_from_summed_counts() {
        let mut layer = LayerValues::default();
        layer.set("bgp.rib.decide_calls", 200.0);
        layer.set("net.fluid.solves", 4.0);
        layer.set("net.fluid.flows_touched", 10.0);
        let sums = RatioSums {
            decide_hits: 150.0,
            attr_interns: 1.0,
            attr_reuses: 3.0,
            export_hits: 0.0,
            export_misses: 0.0,
            heap_pushes: 8.0,
            heap_stale: 2.0,
        };
        derive_ratios(&mut layer, &sums);
        assert_eq!(layer.get("bgp.rib.decide_hit_ratio"), Some(0.75));
        assert_eq!(layer.get("bgp.rib.attr_reuse_ratio"), Some(0.75));
        assert_eq!(layer.get("bgp.speaker.export_hit_ratio"), Some(0.0));
        assert_eq!(layer.get("net.fluid.flows_per_solve"), Some(2.5));
        assert_eq!(layer.get("net.fluid.heap_stale_ratio"), Some(0.25));
    }
}
