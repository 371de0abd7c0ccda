//! The staged iteration: `Experiment::run_traced`'s steps performed by the
//! harness through public fields and functions, each one timed.
//!
//! The stages are named after the layer that does the work:
//! `dataplane.build_s` (`DataPlane::from_topology`), `core.control_build_s`
//! (`BgpControl::new` / `SdnControl::new`), `core.runner_run_s`
//! (`Runner::new` + `run`), `stats.report_json_s` (`to_json` +
//! `semantic_json`) and `core.teardown_s` (drops). `topo.build_s` and
//! `core.experiment_build_s` are timed by the caller, which owns those
//! steps. A parity check holds the staged run to the bytes
//! `Experiment::run` produces.

use crate::metrics::LayerValues;
use crate::spans::Spans;
use horse::controller::{EcmpApp, FabricView, HederaApp};
use horse::dataplane::hash::HashMode;
use horse::dataplane::path::DataPlane;
use horse::net::topology::LinkId;
use horse::{ControlBuild, ControlPlane, Experiment, ExperimentReport, Runner, SdnApp};
use horse_core::control::{BgpControl, SdnControl};
use horse_core::experiment::TrafficEvent;
use std::sync::Arc;
use std::time::Instant;

/// What the staged iteration hands back besides its stage times.
pub struct StagedRun {
    /// The run's report.
    pub report: ExperimentReport,
    /// The report's semantic JSON (for the parity check and the digest).
    pub semantic_json: String,
    /// Each workload flow with the path the finished run's tables give it
    /// (flows that no longer resolve are left out).
    pub paths: Vec<(TrafficEvent, Vec<LinkId>)>,
    /// Wall seconds spent resolving those paths (not a stage: the plain
    /// iteration does not do it).
    pub resolve_s: f64,
    /// Wall seconds of the iteration, the path resolution excluded.
    pub wall_s: f64,
}

/// Builds the control plane exactly as `Experiment::run_traced` does.
fn build_control(e: &mut Experiment) -> ControlPlane {
    let control = std::mem::replace(&mut e.control, ControlBuild::None);
    let mut control = match control {
        ControlBuild::None => ControlPlane::None,
        ControlBuild::Bgp(setups) => ControlPlane::Bgp(Box::new(BgpControl::new(&e.topo, setups))),
        ControlBuild::SdnEcmp => {
            let fabric = FabricView::new(Arc::clone(&e.topo));
            let app = EcmpApp::new(fabric, e.seed).with_idle_timeout(e.sdn_idle_timeout_s);
            ControlPlane::Sdn(Box::new(SdnControl::new(&e.topo, SdnApp::Ecmp(app))))
        }
        ControlBuild::Hedera(cfg) => {
            let fabric = FabricView::new(Arc::clone(&e.topo));
            let app = HederaApp::new(fabric, cfg, e.seed);
            ControlPlane::Sdn(Box::new(SdnControl::new(&e.topo, SdnApp::Hedera(app))))
        }
    };
    control.set_pump_mode(e.pump_mode);
    control
}

/// Runs `e` stage by stage, adding each stage's seconds to `layer` (adding,
/// so a sweep sums its runs) and recording a span per stage.
pub fn run_staged(mut e: Experiment, spans: &mut Spans, layer: &mut LayerValues) -> StagedRun {
    let iteration_start = Instant::now();
    let setup_start = Instant::now();
    let (dp, s) = spans.time("dataplane.build", |_| {
        DataPlane::from_topology(&e.topo, e.router_hash, HashMode::FiveTuple)
    });
    layer.add("dataplane.build_s", s);
    let (control, s) = spans.time("core.control_build", |_| build_control(&mut e));
    layer.add("core.control_build_s", s);
    let wall_setup_secs = setup_start.elapsed().as_secs_f64();

    let topo = Arc::clone(&e.topo);
    let traffic = e.traffic.clone();
    let ((runner, report), s) = spans.time("core.runner_run", |_| {
        let mut runner = Runner::new(
            e.topo,
            dp,
            control,
            e.traffic,
            e.link_events,
            e.fti,
            e.pacing,
            e.horizon,
            e.sample_interval,
            e.label,
        );
        runner.set_run_threads(e.run_threads);
        runner.set_trace(&e.trace);
        let report = runner.run(wall_setup_secs);
        (runner, report)
    });
    layer.add("core.runner_run_s", s);

    // Outside the iteration: ask the finished run's tables for every
    // workload flow's path (`dataplane::path`), which the fluid replay
    // reuses. Every scheduled link change has been undone by the horizon,
    // so the shared topology is the one the runner ended on.
    let (paths, resolve_s) = spans.time("dataplane.path.resolve", |_| {
        let dp = runner.dataplane();
        traffic
            .iter()
            .filter_map(|t| {
                dp.resolve(&topo, t.spec.src, t.spec.dst, &t.spec.tuple)
                    .ok()
                    .map(|p| (*t, p))
            })
            .collect::<Vec<_>>()
    });

    let (semantic_json, s) = spans.time("stats.report_json", |_| {
        std::hint::black_box(report.to_json());
        report.semantic_json()
    });
    layer.add("stats.report_json_s", s);
    let ((), s) = spans.time("core.teardown", |_| drop(runner));
    layer.add("core.teardown_s", s);
    let wall_s = iteration_start.elapsed().as_secs_f64() - resolve_s;
    StagedRun {
        report,
        semantic_json,
        paths,
        resolve_s,
        wall_s,
    }
}

/// The stage names whose seconds must add up to the staged iteration.
pub const STAGES: [&str; 7] = [
    "topo.build_s",
    "core.experiment_build_s",
    "dataplane.build_s",
    "core.control_build_s",
    "core.runner_run_s",
    "core.teardown_s",
    "stats.report_json_s",
];

/// The share of the iteration's wall time the stage spans leave
/// unaccounted for (negative when they overlap): `1 − Σ stages / wall`.
pub fn stage_gap(layer: &LayerValues, wall_s: f64) -> f64 {
    let sum: f64 = STAGES.iter().filter_map(|s| layer.get(s)).sum();
    1.0 - sum / wall_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse::TeApproach;

    #[test]
    fn stage_gap_is_relative_to_the_wall() {
        let mut l = LayerValues::default();
        l.set("core.runner_run_s", 0.9);
        l.set("core.teardown_s", 0.08);
        assert!((stage_gap(&l, 1.0) - 0.02).abs() < 1e-12);
        assert!(stage_gap(&l, 0.98).abs() < 1e-12);
    }

    #[test]
    fn staged_run_matches_experiment_run_byte_for_byte() {
        for te in [TeApproach::BgpEcmp, TeApproach::SdnEcmp, TeApproach::Hedera] {
            let plain = Experiment::for_spec(4, te, 9).horizon_secs(6.0).run();
            let mut spans = Spans::new("test");
            let mut layer = LayerValues::default();
            let staged = run_staged(
                Experiment::for_spec(4, te, 9).horizon_secs(6.0),
                &mut spans,
                &mut layer,
            );
            assert_eq!(staged.semantic_json, plain.semantic_json(), "{te:?}");
            assert_eq!(staged.paths.len(), plain.flows_requested);
            assert!(stage_gap(&layer, staged.wall_s).abs() < 0.2);
        }
    }
}
