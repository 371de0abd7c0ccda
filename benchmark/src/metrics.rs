//! The benchmark's metric registry: every end-to-end and per-layer metric
//! by name, unit and direction. `BENCHMARK.json` at the repo root lists the
//! same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across the benchmark.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics, reported for every workload with tracing off.
/// (`failed_share` is reported beside them — as the result line's
/// `attempted`/`failed` — and any increase is a regression; it is not
/// listed here because a bound relative to a median of zero has no meaning.)
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", 0.15),
    e2e("wall_s", "s", 0.10),
    e2e("rt_factor", "ratio", 0.10),
    e2e("peak_rss_mb", "MiB", 0.05),
];

/// Per-layer metrics, reported by the traced pass. Layers are crate/module
/// names. A metric whose replay does not run on a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 60] = [
    // Stage spans of the staged iteration.
    lower("topo.build_s", "s"),
    lower("core.experiment_build_s", "s"),
    lower("dataplane.build_s", "s"),
    lower("core.control_build_s", "s"),
    lower("core.runner_run_s", "s"),
    lower("core.teardown_s", "s"),
    lower("stats.report_json_s", "s"),
    // Counts at layer boundaries, read from the report(s).
    lower("sim.events", "count"),
    lower("sim.transitions", "count"),
    lower("sim.fti_virtual_s", "s"),
    lower("core.pump.steps", "count"),
    lower("core.pump.nodes_touched", "count"),
    lower("core.pump.table_scans", "count"),
    lower("cm.control_msgs", "count"),
    lower("cm.table_writes", "count"),
    lower("bgp.rib.decide_calls", "count"),
    higher("bgp.rib.decide_hit_ratio", "ratio"),
    lower("bgp.rib.candidate_touches", "count"),
    higher("bgp.rib.attr_reuse_ratio", "ratio"),
    higher("bgp.speaker.export_hit_ratio", "ratio"),
    lower("bgp.mem.attr_bytes_est", "bytes"),
    lower("bgp.mem.prefix_ids", "count"),
    lower("net.fluid.solves", "count"),
    lower("net.fluid.flows_touched", "count"),
    lower("net.fluid.flows_per_solve", "ratio"),
    lower("net.fluid.heap_stale_ratio", "ratio"),
    lower("controller.scheduler_moves", "count"),
    // BGP mesh replay.
    lower("bgp.speaker.on_bytes_s", "s"),
    lower("bgp.speaker.poll_timers_s", "s"),
    lower("bgp.speaker.take_outputs_s", "s"),
    lower("bgp.speaker.msgs", "count"),
    lower("bgp.speaker.ns_per_msg", "ns"),
    lower("bgp.msg.decode_ns_per_msg", "ns"),
    lower("bgp.msg.encode_ns_per_msg", "ns"),
    lower("bgp.rib.update_s", "s"),
    lower("bgp.rib.decide_s", "s"),
    lower("bgp.rib.ns_per_prefix", "ns"),
    lower("dataplane.fib.insert_ns_per_route", "ns"),
    lower("dataplane.fib.lookup_ns", "ns"),
    // Path resolution over the finished run's tables.
    lower("dataplane.path.resolve_us_per_flow", "us"),
    // Fluid replay.
    lower("net.fluid.flush_s", "s"),
    lower("net.fluid.next_completion_s", "s"),
    lower("net.fluid.us_per_solve", "us"),
    // SDN control replay.
    lower("openflow.roundtrip_us_per_flow", "us"),
    lower("core.pump.sdn_pump_s", "s"),
    // Sweep replays.
    lower("topo.zoo.parse_s", "s"),
    lower("sweep.checkpoint.resume_s", "s"),
    lower("sweep.checkpoint.bytes", "bytes"),
    higher("sweep.pool.speedup_2w", "ratio"),
    higher("sweep.pool.utilization_2w", "ratio"),
    lower("sweep.unconverged_runs", "count"),
    // Trace recording cost.
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.events", "count"),
    lower("trace.dropped", "count"),
    lower("trace.ns_per_event", "ns"),
    // Real-time pacing.
    lower("sim.pacing.lag_p50_ms", "ms"),
    lower("sim.pacing.lag_p99_ms", "ms"),
    lower("sim.pacing.lag_max_ms", "ms"),
    higher("sim.pacing.samples", "count"),
    lower("sim.pacing.overrun_s", "s"),
];

/// The per-layer values one traced pass measured. Only registered names can
/// be set; unset ones read 0 in the result line and are left out of the
/// human-readable report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerValues {
    values: BTreeMap<&'static str, f64>,
}

impl LayerValues {
    /// Sets `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unregistered per-layer metric {name:?}"));
        self.values.insert(def.name, value);
    }

    /// Adds to `name` (a sum over several runs).
    pub fn add(&mut self, name: &str, value: f64) {
        let cur = self.get(name).unwrap_or(0.0);
        self.set(name, cur + value);
    }

    /// The value measured for `name`, if its replay ran.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every registered metric in registry order, with its value if set.
    pub fn in_order(&self) -> impl Iterator<Item = (&'static MetricDef, Option<f64>)> + '_ {
        PER_LAYER.iter().map(|d| (d, self.get(d.name)))
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use horse::stats::Json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()), "workload name reuses {}", w.name());
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        for d in &END_TO_END {
            let b = d.bound.expect("end-to-end metrics have bounds");
            assert!(b > 0.0 && b <= 0.25);
            assert!(b <= setup.bound.unwrap(), "setup_s has the largest bound");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            v.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        m.get("better")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.word().to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(
            v.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads array")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap_or(""))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn layer_values_accept_only_registered_names() {
        let mut l = LayerValues::default();
        l.set("sim.events", 3.0);
        l.add("sim.events", 2.0);
        assert_eq!(l.get("sim.events"), Some(5.0));
        assert_eq!(l.get("sim.transitions"), None);
        assert_eq!(l.in_order().count(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(|| LayerValues::default().set("nope", 1.0)).is_err());
    }
}
