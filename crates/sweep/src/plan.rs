//! Sweep plans: parameter grids expanded into a deterministic run list.
//!
//! A [`SweepPlan`] is a grid over the experiment axes — topology
//! ([`TopologySpec`]: fat-tree, Topology Zoo graph, PoP WAN), BGP policy
//! scenario, TE approach, FTI clock settings, link-failure scenario,
//! replicate — expanded in a fixed nested order into [`RunSpec`]s. Each
//! spec carries a seed derived from `(base_seed, run_index)`, so the
//! plan, not the schedule, fixes every run's randomness. Executing the
//! plan on the pool therefore yields byte-identical reports at any
//! worker count.
//!
//! Topologies are built once per shape in a [`TopoCache`] and shared
//! (`Arc`) across every run over that shape — an 8-pod fat-tree has 208
//! nodes and 384 links, and a 3-approach × 10-replicate sweep would
//! otherwise rebuild and copy it 30 times. Zoo graphs likewise parse
//! once per sweep, not once per run.

use crate::checkpoint::{
    fnv1a64, run_checkpointed, CheckpointError, CheckpointOptions, CheckpointedSweep, RunMeta,
};
use crate::pool::{self, RunResult};
use crate::seed::derive_seed;
use horse_core::{ControlBuild, Experiment, ExperimentReport, RunConfig, TeApproach};
use horse_net::topology::LinkId;
use horse_sim::{Pacing, SimDuration, SimTime};
use horse_stats::{json_string, SweepStats};
use horse_topo::fattree::{FatTree, SwitchRole};
use horse_topo::scenario::PolicyScenario;
use horse_topo::spec::{BuiltTopology, TopologySpec};
use horse_trace::{TraceLog, TraceOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// A link-failure scenario applied to a run.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureScenario {
    /// No failure injection.
    None,
    /// Fail pod 0's first aggregation→core uplink at `at`; optionally
    /// repair it at `restore`. On a BGP fabric the session drops and the
    /// network reconverges; an SDN fabric blackholes the affected flows
    /// (this model has no port-status channel — see `horse-core`).
    /// Fat-tree topologies only.
    CoreUplinkDown {
        /// Failure time.
        at: SimTime,
        /// Optional repair time.
        restore: Option<SimTime>,
    },
    /// Topology-generic: fail the link between two named nodes (zoo
    /// router labels, `pop3`/`pop3-leaf0`, fat-tree switch names alike).
    LinkBetween {
        /// One endpoint's node name.
        a: String,
        /// The other endpoint's node name.
        b: String,
        /// Failure time.
        at: SimTime,
        /// Optional repair time.
        restore: Option<SimTime>,
    },
    /// Topology-generic: fail the link whose index sits at `pct`% of the
    /// topology's link-index space (0 = first link, 100 = last). Useful
    /// for sweeping "some mid-fabric failure" across heterogeneous
    /// topologies where no common name exists.
    LinkPercentile {
        /// Percentile in `0..=100`.
        pct: u8,
        /// Failure time.
        at: SimTime,
        /// Optional repair time.
        restore: Option<SimTime>,
    },
}

impl FailureScenario {
    /// Short tag for run labels; `None` for the no-failure case.
    pub fn tag(&self) -> Option<String> {
        match self {
            FailureScenario::None => None,
            FailureScenario::CoreUplinkDown { restore: None, .. } => Some("faildown".into()),
            FailureScenario::CoreUplinkDown {
                restore: Some(_), ..
            } => Some("failflap".into()),
            FailureScenario::LinkBetween { a, b, .. } => Some(format!("cut-{a}~{b}")),
            FailureScenario::LinkPercentile { pct, .. } => Some(format!("cutp{pct}")),
        }
    }

    /// `(at, restore)` of the scheduled event, if any.
    fn schedule(&self) -> Option<(SimTime, Option<SimTime>)> {
        match self {
            FailureScenario::None => None,
            FailureScenario::CoreUplinkDown { at, restore }
            | FailureScenario::LinkBetween { at, restore, .. }
            | FailureScenario::LinkPercentile { at, restore, .. } => Some((*at, *restore)),
        }
    }

    /// Resolves the victim link on a concrete topology.
    fn victim(&self, bt: &BuiltTopology) -> Option<LinkId> {
        match self {
            FailureScenario::None => None,
            FailureScenario::CoreUplinkDown { .. } => {
                let ft = bt
                    .fat_tree
                    .as_deref()
                    .expect("CoreUplinkDown is fat-tree-specific; use LinkBetween/LinkPercentile");
                Some(core_uplink(ft).expect("fat-tree has agg→core uplinks"))
            }
            FailureScenario::LinkBetween { a, b, .. } => {
                let na = bt
                    .topo
                    .find(a)
                    .unwrap_or_else(|| panic!("no node named {a:?} in {}", bt.spec.tag()));
                let nb = bt
                    .topo
                    .find(b)
                    .unwrap_or_else(|| panic!("no node named {b:?} in {}", bt.spec.tag()));
                let (lid, _) = bt
                    .topo
                    .link_between(na, nb)
                    .unwrap_or_else(|| panic!("no link {a:?}–{b:?} in {}", bt.spec.tag()));
                Some(lid)
            }
            FailureScenario::LinkPercentile { pct, .. } => {
                assert!(*pct <= 100, "percentile out of range");
                let n = bt.topo.link_count();
                assert!(n > 0, "topology has no links");
                Some(LinkId(((n - 1) * (*pct as usize) / 100) as u32))
            }
        }
    }
}

/// One fully-specified run of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the expanded plan (also the result ordering key).
    pub index: usize,
    /// Which network.
    pub topo: TopologySpec,
    /// BGP policy scenario compiled onto the routers.
    pub policy: PolicyScenario,
    /// TE approach.
    pub te: TeApproach,
    /// FTI `(increment, quiescence)`.
    pub fti: (SimDuration, SimDuration),
    /// Link-failure scenario.
    pub failure: FailureScenario,
    /// Replicate number within this grid point, `0..replicates`.
    pub replicate: usize,
    /// Seed derived from `(base_seed, index)`.
    pub seed: u64,
}

impl RunSpec {
    /// The fat-tree pod count, when this run is over a fat-tree (the old
    /// `spec.pods` field, kept for callers that branch on tree size).
    pub fn pods(&self) -> Option<usize> {
        match self.topo {
            TopologySpec::FatTree { k } => Some(k),
            _ => None,
        }
    }

    /// A label encoding every grid axis, unique within the plan. Baseline
    /// fat-tree runs keep their pre-policy labels (`bgp-ecmp-k4-i1q100-r0`),
    /// so existing checkpoint records still match their runs.
    pub fn label(&self) -> String {
        let mut l = format!("{}-{}", self.te.label(), self.topo.tag());
        if let Some(tag) = self.policy.tag() {
            l.push('-');
            l.push_str(tag);
        }
        let _ = write!(
            l,
            "-i{}q{}",
            self.fti.0.as_millis_f64(),
            self.fti.1.as_millis_f64()
        );
        if let Some(tag) = self.failure.tag() {
            l.push('-');
            l.push_str(&tag);
        }
        let _ = write!(l, "-r{}", self.replicate);
        l
    }
}

/// Topology templates shared across runs, keyed by `(spec, role)`.
/// Thread-safe: pool workers building their experiments hit this
/// concurrently.
#[derive(Debug, Default)]
pub struct TopoCache {
    built: Mutex<BTreeMap<(TopologySpec, bool), Arc<BuiltTopology>>>,
}

impl TopoCache {
    /// An empty cache.
    pub fn new() -> TopoCache {
        TopoCache::default()
    }

    /// The built topology for `(spec, role)`, constructed on first
    /// request and shared thereafter.
    pub fn built(&self, spec: &TopologySpec, role: SwitchRole) -> Arc<BuiltTopology> {
        let key = (spec.clone(), role == SwitchRole::BgpRouter);
        let mut built = self.built.lock().unwrap();
        Arc::clone(
            built
                .entry(key)
                .or_insert_with(|| Arc::new(spec.build(role))),
        )
    }

    /// The demo fat-tree for `(pods, role)` — 1 Gbps links, 1 µs delay —
    /// a convenience view over [`TopoCache::built`].
    pub fn fattree(&self, pods: usize, role: SwitchRole) -> Arc<FatTree> {
        self.built(&TopologySpec::FatTree { k: pods }, role)
            .fat_tree
            .clone()
            .expect("fat-tree spec builds a fat-tree")
    }

    /// Number of distinct shapes built so far.
    pub fn len(&self) -> usize {
        self.built.lock().unwrap().len()
    }

    /// True when nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A parameter grid over the demo experiment, expanded in a fixed order.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    base_seed: u64,
    topologies: Vec<TopologySpec>,
    policies: Vec<PolicyScenario>,
    approaches: Vec<TeApproach>,
    ftis: Vec<(SimDuration, SimDuration)>,
    failures: Vec<FailureScenario>,
    replicates: usize,
    horizon: SimTime,
    pacing: Pacing,
    sample_interval: SimDuration,
    run_threads: usize,
    trace: TraceOptions,
}

impl SweepPlan {
    /// A single-point plan (4-pod fat-tree, baseline policy, all three TE
    /// approaches, default FTI, no failures, one replicate) to grow from
    /// with the builder methods.
    pub fn new(base_seed: u64) -> SweepPlan {
        SweepPlan {
            base_seed,
            topologies: vec![TopologySpec::FatTree { k: 4 }],
            policies: vec![PolicyScenario::Baseline],
            approaches: vec![TeApproach::BgpEcmp, TeApproach::Hedera, TeApproach::SdnEcmp],
            ftis: vec![(SimDuration::from_millis(1), SimDuration::from_millis(100))],
            failures: vec![FailureScenario::None],
            replicates: 1,
            horizon: SimTime::from_secs(20),
            pacing: Pacing::Virtual,
            sample_interval: SimDuration::from_millis(100),
            run_threads: 1,
            trace: TraceOptions::default(),
        }
    }

    /// Topologies to sweep. Accepts anything spec-convertible, so
    /// `.topologies([4, 6])` still reads like the old pods axis while
    /// `.topologies(corpus.names().iter().map(|n| TopologySpec::Zoo { … }))`
    /// sweeps the zoo.
    pub fn topologies(
        mut self,
        specs: impl IntoIterator<Item = impl Into<TopologySpec>>,
    ) -> SweepPlan {
        self.topologies = specs.into_iter().map(Into::into).collect();
        assert!(!self.topologies.is_empty(), "empty topology axis");
        self
    }

    /// Fat-tree pod counts to sweep — compat shim over
    /// [`SweepPlan::topologies`] for the pre-spec API.
    pub fn pods(self, pods: impl IntoIterator<Item = usize>) -> SweepPlan {
        self.topologies(pods)
    }

    /// BGP policy scenarios to sweep (default: baseline only, which adds
    /// no policies and leaves output byte-identical to pre-policy Horse).
    pub fn policies(mut self, ps: impl IntoIterator<Item = PolicyScenario>) -> SweepPlan {
        self.policies = ps.into_iter().collect();
        assert!(!self.policies.is_empty(), "empty policy axis");
        self
    }

    /// TE approaches to sweep.
    pub fn approaches(mut self, te: impl IntoIterator<Item = TeApproach>) -> SweepPlan {
        self.approaches = te.into_iter().collect();
        assert!(!self.approaches.is_empty(), "empty approaches axis");
        self
    }

    /// FTI `(increment, quiescence)` settings to sweep.
    pub fn ftis(mut self, ftis: impl IntoIterator<Item = (SimDuration, SimDuration)>) -> SweepPlan {
        self.ftis = ftis.into_iter().collect();
        assert!(!self.ftis.is_empty(), "empty FTI axis");
        self
    }

    /// Link-failure scenarios to sweep.
    pub fn failures(mut self, fs: impl IntoIterator<Item = FailureScenario>) -> SweepPlan {
        self.failures = fs.into_iter().collect();
        assert!(!self.failures.is_empty(), "empty failure axis");
        self
    }

    /// Replicates per grid point (each gets its own derived seed).
    pub fn replicates(mut self, n: usize) -> SweepPlan {
        assert!(n >= 1, "need at least one replicate");
        self.replicates = n;
        self
    }

    /// Experiment horizon in virtual seconds.
    pub fn horizon_secs(mut self, secs: f64) -> SweepPlan {
        self.horizon = SimTime::from_secs_f64(secs);
        self
    }

    /// Pacing policy (benches use `Virtual`; `RealTime` runs still
    /// parallelize, each worker pacing its own run).
    pub fn pacing(mut self, pacing: Pacing) -> SweepPlan {
        self.pacing = pacing;
        self
    }

    /// Goodput sampling interval.
    pub fn sample_every(mut self, interval: SimDuration) -> SweepPlan {
        self.sample_interval = interval;
        self
    }

    /// Intra-run drain workers for every run's BGP pump (1 = serial, the
    /// default). Composes with sweep workers: each run spawns its own
    /// scoped drain pool per round, so `threads × run_threads` cores are
    /// busy at the barrier and nested pools cannot deadlock. This is
    /// execution-only — reports and traces stay byte-identical at any
    /// setting.
    pub fn run_threads(mut self, threads: usize) -> SweepPlan {
        self.run_threads = threads.max(1);
        self
    }

    /// Structured-tracing options for every run. Each [`SweepRun`] then
    /// carries its own [`TraceLog`]; since runs are re-assembled in plan
    /// order, the set of logs is deterministic at any worker count.
    pub fn trace(mut self, opts: TraceOptions) -> SweepPlan {
        self.trace = opts;
        self
    }

    /// Expands the grid into run specs. Axis order (outer→inner) is
    /// topology → policy → approach → FTI → failure → replicate; this
    /// order, with the base seed, fully determines every spec, so callers
    /// at different worker counts see the same list. (With the default
    /// baseline-only policy axis the expansion is element-for-element the
    /// old pods-axis expansion.)
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for topo in &self.topologies {
            for &policy in &self.policies {
                for &te in &self.approaches {
                    for &fti in &self.ftis {
                        for failure in &self.failures {
                            for replicate in 0..self.replicates {
                                let index = specs.len();
                                specs.push(RunSpec {
                                    index,
                                    topo: topo.clone(),
                                    policy,
                                    te,
                                    fti,
                                    failure: failure.clone(),
                                    replicate,
                                    seed: derive_seed(self.base_seed, index as u64),
                                });
                            }
                        }
                    }
                }
            }
        }
        specs
    }

    /// Builds the experiment for one spec, sharing topology via `cache`.
    pub fn build_experiment(&self, spec: &RunSpec, cache: &TopoCache) -> Experiment {
        let bt = cache.built(&spec.topo, spec.te.switch_role());
        let mut e = Experiment::on_built(&bt, spec.te, spec.seed)
            .fti(spec.fti.0, spec.fti.1)
            .pacing(self.pacing)
            .sample_every(self.sample_interval)
            .run_threads(self.run_threads)
            .trace(self.trace)
            .label(spec.label());
        e.horizon = self.horizon;
        // Policy compilation happens here — after control-plane synthesis,
        // before the runner builds speakers — so the same BuiltTopology
        // serves every scenario and the baseline stays untouched.
        if spec.policy != PolicyScenario::Baseline {
            if let ControlBuild::Bgp(setups) = &mut e.control {
                spec.policy.apply(&e.topo, setups);
            }
        }
        if let Some((at, restore)) = spec.failure.schedule() {
            let link = spec
                .failure
                .victim(&bt)
                .expect("scheduled failure has a victim");
            e = e.link_down(at, link);
            if let Some(r) = restore {
                e = e.link_up(r, link);
            }
        }
        e
    }

    /// Runs the whole plan on `threads` workers ([`pool::run_indexed`]),
    /// returning reports in plan order plus pool counters.
    pub fn execute(&self, threads: usize) -> SweepOutcome {
        let specs = self.expand();
        let cache = TopoCache::new();
        let n = specs.len();
        let (results, stats) = pool::run_indexed(n, threads, |i| {
            self.build_experiment(&specs[i], &cache).run_traced()
        });
        let runs = specs
            .into_iter()
            .zip(results)
            .map(
                |(
                    spec,
                    RunResult {
                        worker,
                        wall_ms,
                        value: (report, trace),
                        ..
                    },
                )| SweepRun {
                    spec,
                    report,
                    trace,
                    wall_ms,
                    worker,
                },
            )
            .collect();
        SweepOutcome { runs, stats }
    }

    /// Runs the plan under a [`RunConfig`]: worker count, run threads and
    /// trace options all come from the config (the one `HORSE_*` parse
    /// point) instead of per-call arguments.
    pub fn execute_with(&self, cfg: &RunConfig) -> SweepOutcome {
        self.clone()
            .run_threads(cfg.run_threads())
            .trace(cfg.trace)
            .execute(cfg.threads())
    }

    /// The pod counts, when every topology on the axis is a fat-tree.
    fn all_fat_tree_ks(&self) -> Option<Vec<usize>> {
        self.topologies
            .iter()
            .map(|t| match t {
                TopologySpec::FatTree { k } => Some(*k),
                _ => None,
            })
            .collect()
    }

    /// A stable 64-bit fingerprint of everything that determines the
    /// plan's *semantic* output: base seed, every grid axis, replicates,
    /// horizon, and sampling interval. Execution-only settings — pacing,
    /// pump mode, tracing, worker count — are deliberately excluded:
    /// they change wall time, never the semantic reports (the pump and
    /// trace determinism tests pin that), so a checkpoint written under
    /// one of them is safe to resume under another.
    ///
    /// **Canonicalization compat rule** (see DESIGN's crash-safety
    /// section): an all-fat-tree topology axis prints as the legacy
    /// `;pods=[k, …]` vector, and a baseline-only policy axis prints
    /// nothing — so plans expressible before the topology/policy axes
    /// existed hash exactly as they always did, and their checkpoint
    /// files remain resumable.
    pub fn plan_hash(&self) -> u64 {
        let mut c = String::from("horse-sweep-plan-v1");
        let _ = write!(c, ";seed={}", self.base_seed);
        match self.all_fat_tree_ks() {
            Some(ks) => {
                let _ = write!(c, ";pods={ks:?}");
            }
            None => {
                c.push_str(";topologies=");
                for t in &self.topologies {
                    c.push_str(&t.tag());
                    c.push(',');
                }
            }
        }
        c.push_str(";approaches=");
        for te in &self.approaches {
            c.push_str(te.label());
            c.push(',');
        }
        c.push_str(";ftis=");
        for (inc, quiet) in &self.ftis {
            let _ = write!(c, "{}:{},", inc.as_nanos(), quiet.as_nanos());
        }
        c.push_str(";failures=");
        for f in &self.failures {
            match f {
                FailureScenario::None => c.push_str("none,"),
                FailureScenario::CoreUplinkDown { at, restore } => {
                    let _ = write!(c, "down@{}", at.as_nanos());
                    if let Some(r) = restore {
                        let _ = write!(c, "~up@{}", r.as_nanos());
                    }
                    c.push(',');
                }
                FailureScenario::LinkBetween { a, b, at, restore } => {
                    let _ = write!(c, "cut@{a}~{b}@{}", at.as_nanos());
                    if let Some(r) = restore {
                        let _ = write!(c, "~up@{}", r.as_nanos());
                    }
                    c.push(',');
                }
                FailureScenario::LinkPercentile { pct, at, restore } => {
                    let _ = write!(c, "pct{pct}@{}", at.as_nanos());
                    if let Some(r) = restore {
                        let _ = write!(c, "~up@{}", r.as_nanos());
                    }
                    c.push(',');
                }
            }
        }
        let _ = write!(
            c,
            ";replicates={};horizon={};sample={}",
            self.replicates,
            self.horizon.as_nanos(),
            self.sample_interval.as_nanos()
        );
        if self.policies != [PolicyScenario::Baseline] {
            c.push_str(";policies=");
            for p in &self.policies {
                c.push_str(p.name());
                c.push(',');
            }
        }
        fnv1a64(c.as_bytes())
    }

    /// Runs the plan crash-safely: completed runs are restored from the
    /// checkpoint file `<opts.dir>/sweep-<plan_hash>.jsonl` and only the
    /// remainder executes, each completion streaming a flushed JSONL
    /// record so a killed process loses nothing it finished. The merged
    /// [`CheckpointedSweep::semantic_json`] is byte-identical to an
    /// uninterrupted sweep's; a run that panics becomes a structured
    /// `failed` entry instead of aborting the campaign.
    pub fn execute_checkpointed(
        &self,
        threads: usize,
        opts: &CheckpointOptions,
    ) -> Result<CheckpointedSweep, CheckpointError> {
        let specs = self.expand();
        let metas: Vec<RunMeta> = specs
            .iter()
            .map(|s| RunMeta {
                seed: s.seed,
                label: s.label(),
            })
            .collect();
        let cache = TopoCache::new();
        run_checkpointed(&metas, threads, self.plan_hash(), opts, |i| {
            let (report, _trace) = self.build_experiment(&specs[i], &cache).run_traced();
            report.semantic_json()
        })
    }

    /// [`SweepPlan::execute_checkpointed`] wired to a [`RunConfig`]:
    /// worker count, run threads, trace options, checkpoint directory
    /// (`HORSE_CHECKPOINT_DIR`, falling back to the results dir), run cap
    /// (`HORSE_SWEEP_MAX_RUNS`), and failure retry (`HORSE_RETRY_FAILED`)
    /// all come from the one `HORSE_*` parse point.
    pub fn execute_resumable(&self, cfg: &RunConfig) -> Result<CheckpointedSweep, CheckpointError> {
        self.clone()
            .run_threads(cfg.run_threads())
            .trace(cfg.trace)
            .execute_checkpointed(cfg.threads(), &CheckpointOptions::from_config(cfg))
    }
}

/// Pod 0's first aggregation→core uplink, the canonical failure victim.
fn core_uplink(ft: &FatTree) -> Option<LinkId> {
    let agg = *ft.aggs.first()?;
    ft.topo
        .neighbors(agg)
        .into_iter()
        .find(|(_, _, nb)| ft.cores.contains(nb))
        .map(|(lid, _, _)| lid)
}

/// One executed run: its spec, report, and where/how long it ran.
#[derive(Debug)]
pub struct SweepRun {
    /// The grid point.
    pub spec: RunSpec,
    /// The experiment's report.
    pub report: ExperimentReport,
    /// The run's merged trace (None unless the plan enabled tracing).
    /// Keyed by `spec.index` like everything else, so per-run traces are
    /// deterministic across worker counts.
    pub trace: Option<TraceLog>,
    /// Wall time of the run, in milliseconds.
    pub wall_ms: f64,
    /// Worker that executed it.
    pub worker: usize,
}

/// A completed sweep: runs in plan order plus pool counters.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Executed runs, ordered by `spec.index` regardless of completion
    /// order.
    pub runs: Vec<SweepRun>,
    /// Pool counters for the whole sweep.
    pub stats: SweepStats,
}

impl SweepOutcome {
    /// JSON array of per-run semantic reports (wall times and pump cost
    /// counters zeroed) — the determinism contract's comparison key:
    /// byte-identical across worker counts.
    pub fn semantic_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.runs.iter().enumerate() {
            out.push_str(&r.report.semantic_json());
            if i + 1 < self.runs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }

    /// Full JSON: pool stats plus every run with its schedule placement
    /// and complete report. (Not deterministic across executions — wall
    /// times and worker ids are real.)
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"stats\": {},\n  \"runs\": [\n",
            self.stats.to_json()
        );
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"index\": {}, \"label\": {}, \"seed\": {}, \"worker\": {}, \"wall_ms\": {}, \"report\": {}}}",
                r.spec.index,
                json_string(&r.spec.label()),
                r.spec.seed,
                r.worker,
                horse_stats::json_f64(r.wall_ms),
                r.report.to_json()
            );
            if i + 1 < self.runs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let plan = SweepPlan::new(42)
            .pods([4, 6])
            .approaches([TeApproach::BgpEcmp, TeApproach::SdnEcmp])
            .replicates(3);
        let a = plan.expand();
        let b = plan.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2 * 2 * 3);
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.seed, derive_seed(42, i as u64));
        }
        // Outer axis (topology) changes slowest.
        assert!(a[..6].iter().all(|s| s.pods() == Some(4)));
        assert!(a[6..].iter().all(|s| s.pods() == Some(6)));
    }

    #[test]
    fn labels_are_unique() {
        let plan = SweepPlan::new(1)
            .pods([4])
            .ftis([
                (SimDuration::from_millis(1), SimDuration::from_millis(100)),
                (SimDuration::from_millis(10), SimDuration::from_millis(100)),
            ])
            .failures([
                FailureScenario::None,
                FailureScenario::CoreUplinkDown {
                    at: SimTime::from_secs(2),
                    restore: None,
                },
            ])
            .replicates(2);
        let specs = plan.expand();
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "label collision");
    }

    #[test]
    fn mixed_topology_and_policy_axes_expand_and_label() {
        let plan = SweepPlan::new(9)
            .topologies([
                TopologySpec::FatTree { k: 4 },
                TopologySpec::Zoo {
                    name: "Abilene".into(),
                },
            ])
            .policies([PolicyScenario::Baseline, PolicyScenario::GaoRexford])
            .approaches([TeApproach::BgpEcmp]);
        let specs = plan.expand();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].label(), "bgp-ecmp-k4-i1q100-r0");
        assert_eq!(specs[1].label(), "bgp-ecmp-k4-gr-i1q100-r0");
        assert_eq!(specs[2].label(), "bgp-ecmp-zoo-Abilene-i1q100-r0");
        assert_eq!(specs[3].label(), "bgp-ecmp-zoo-Abilene-gr-i1q100-r0");
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "label collision");
    }

    #[test]
    fn cache_shares_topology_across_runs() {
        let cache = TopoCache::new();
        let a = cache.fattree(4, SwitchRole::OpenFlow);
        let b = cache.fattree(4, SwitchRole::OpenFlow);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.fattree(4, SwitchRole::BgpRouter);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_shares_zoo_topologies_too() {
        let cache = TopoCache::new();
        let spec = TopologySpec::Zoo {
            name: "Abilene".into(),
        };
        let a = cache.built(&spec, SwitchRole::BgpRouter);
        let b = cache.built(&spec, SwitchRole::BgpRouter);
        assert!(Arc::ptr_eq(&a, &b), "zoo graphs must parse once");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn built_experiments_share_the_cached_arc() {
        let plan = SweepPlan::new(7).approaches([TeApproach::SdnEcmp, TeApproach::Hedera]);
        let specs = plan.expand();
        let cache = TopoCache::new();
        let e0 = plan.build_experiment(&specs[0], &cache);
        let e1 = plan.build_experiment(&specs[1], &cache);
        // Both SDN approaches use OpenFlow switches → same template.
        assert!(Arc::ptr_eq(&e0.topo, &e1.topo));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_hash_tracks_semantic_axes_only() {
        let base = || SweepPlan::new(42).pods([4]).replicates(2);
        let h = base().plan_hash();
        assert_eq!(h, base().plan_hash(), "hash must be stable");
        assert_ne!(h, SweepPlan::new(43).pods([4]).replicates(2).plan_hash());
        assert_ne!(h, base().pods([4, 6]).plan_hash());
        assert_ne!(h, base().replicates(3).plan_hash());
        assert_ne!(h, base().horizon_secs(33.0).plan_hash());
        assert_ne!(
            h,
            base()
                .failures([FailureScenario::CoreUplinkDown {
                    at: SimTime::from_secs(2),
                    restore: None,
                }])
                .plan_hash()
        );
        // New axes fold in once they leave their defaults.
        assert_ne!(
            h,
            base()
                .policies([PolicyScenario::Baseline, PolicyScenario::GaoRexford])
                .plan_hash()
        );
        assert_ne!(
            h,
            base()
                .topologies([TopologySpec::Zoo {
                    name: "Abilene".into()
                }])
                .plan_hash()
        );
        // Execution-only settings leave the hash (and hence the
        // checkpoint file) alone: a resume may legally change them.
        assert_eq!(h, base().pacing(Pacing::real_time()).plan_hash());
        assert_eq!(h, base().run_threads(4).plan_hash());
        assert_eq!(h, base().trace(TraceOptions::enabled()).plan_hash());
    }

    /// Golden values captured from the pre-TopologySpec code: pure
    /// fat-tree, baseline-policy plans must hash exactly as they did
    /// before this API existed, or every old checkpoint file becomes
    /// unreachable. Do not update these constants to make the test pass —
    /// fix the canonicalization instead.
    #[test]
    fn plan_hash_is_backward_compatible_with_pods_plans() {
        let a = SweepPlan::new(42).pods([4, 6]).replicates(2);
        assert_eq!(a.plan_hash(), 0x677fa3a792e860f8);
        let b = SweepPlan::new(7)
            .pods([4])
            .approaches([TeApproach::BgpEcmp])
            .ftis([(SimDuration::from_millis(1), SimDuration::from_millis(100))])
            .failures([
                FailureScenario::None,
                FailureScenario::CoreUplinkDown {
                    at: SimTime::from_secs(2),
                    restore: Some(SimTime::from_secs(4)),
                },
            ])
            .horizon_secs(12.0);
        assert_eq!(b.plan_hash(), 0x8b025373e00fe01a);
        // An explicit baseline-only policy axis is the default: same hash.
        assert_eq!(
            a.plan_hash(),
            a.clone().policies([PolicyScenario::Baseline]).plan_hash()
        );
        // And the topologies() spelling of a pods() plan is the same plan.
        assert_eq!(
            a.plan_hash(),
            a.clone()
                .topologies([
                    TopologySpec::FatTree { k: 4 },
                    TopologySpec::FatTree { k: 6 }
                ])
                .plan_hash()
        );
    }

    #[test]
    fn failure_scenario_schedules_link_events() {
        let plan = SweepPlan::new(3)
            .approaches([TeApproach::BgpEcmp])
            .failures([FailureScenario::CoreUplinkDown {
                at: SimTime::from_secs(5),
                restore: Some(SimTime::from_secs(8)),
            }]);
        let specs = plan.expand();
        let cache = TopoCache::new();
        let e = plan.build_experiment(&specs[0], &cache);
        assert_eq!(e.link_events.len(), 2);
        assert!(!e.link_events[0].up);
        assert!(e.link_events[1].up);
        assert_eq!(e.link_events[0].link, e.link_events[1].link);
    }

    #[test]
    fn named_link_failure_resolves_on_zoo_topologies() {
        let plan = SweepPlan::new(5)
            .topologies([TopologySpec::Zoo {
                name: "Abilene".into(),
            }])
            .approaches([TeApproach::BgpEcmp])
            .failures([FailureScenario::LinkBetween {
                a: "Denver".into(),
                b: "Kansas-City".into(),
                at: SimTime::from_secs(5),
                restore: None,
            }]);
        let specs = plan.expand();
        let cache = TopoCache::new();
        let e = plan.build_experiment(&specs[0], &cache);
        assert_eq!(e.link_events.len(), 1);
        let bt = cache.built(&specs[0].topo, SwitchRole::BgpRouter);
        let denver = bt.topo.find("Denver").unwrap();
        let kc = bt.topo.find("Kansas-City").unwrap();
        assert_eq!(
            e.link_events[0].link,
            bt.topo.link_between(denver, kc).unwrap().0
        );
    }

    #[test]
    fn percentile_link_failure_is_in_range() {
        for pct in [0u8, 37, 100] {
            let plan = SweepPlan::new(5)
                .topologies([TopologySpec::Zoo {
                    name: "Abilene".into(),
                }])
                .approaches([TeApproach::BgpEcmp])
                .failures([FailureScenario::LinkPercentile {
                    pct,
                    at: SimTime::from_secs(5),
                    restore: None,
                }]);
            let specs = plan.expand();
            let cache = TopoCache::new();
            let e = plan.build_experiment(&specs[0], &cache);
            let n = e.topo.link_count() as u32;
            assert!(e.link_events[0].link.0 < n);
            if pct == 100 {
                assert_eq!(e.link_events[0].link.0, n - 1);
            }
        }
    }

    #[test]
    fn policy_scenarios_reach_the_bgp_setups() {
        let plan = SweepPlan::new(11)
            .topologies([TopologySpec::Zoo {
                name: "Abilene".into(),
            }])
            .policies([PolicyScenario::GaoRexford])
            .approaches([TeApproach::BgpEcmp]);
        let specs = plan.expand();
        let cache = TopoCache::new();
        let e = plan.build_experiment(&specs[0], &cache);
        let ControlBuild::Bgp(setups) = &e.control else {
            panic!("zoo plan must build BGP control");
        };
        assert!(
            setups.values().all(|s| !s.config.policies.is_empty()),
            "every Abilene router peers, so every router gets policies"
        );
        // And the cached template itself stays pristine for other runs.
        let bt = cache.built(&specs[0].topo, SwitchRole::BgpRouter);
        assert!(bt.originations.values().all(|v| !v.is_empty()));
    }
}
