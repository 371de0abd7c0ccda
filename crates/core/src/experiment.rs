//! The experiment builder — Horse's user-facing API (the paper's Python
//! API, in Rust).

use crate::control::{BgpControl, ControlPlane, PumpMode, SdnApp, SdnControl};
use crate::report::ExperimentReport;
use crate::runner::Runner;
use horse_controller::{EcmpApp, FabricView, HederaApp, HederaConfig};
use horse_dataplane::hash::HashMode;
use horse_dataplane::path::DataPlane;
use horse_net::flow::FlowSpec;
use horse_net::topology::Topology;
use horse_sim::{FtiConfig, Pacing, SimDuration, SimTime};
use horse_topo::fattree::{BgpNodeSetup, FatTree, SwitchRole};
use horse_topo::pattern::{demo_tuple, TrafficPattern};
use horse_topo::spec::{BuiltTopology, TopologySpec};
use horse_topo::synth::{bgp_setups_with_networks, wan_timers};
use horse_trace::{TraceLog, TraceOptions};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The demo's three traffic-engineering approaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeApproach {
    /// BGP routing with ECMP by hashing of IP source and destination.
    BgpEcmp,
    /// Hedera dynamic flow scheduling (stats poll every 5 s).
    Hedera,
    /// SDN reactive 5-tuple ECMP.
    SdnEcmp,
}

impl TeApproach {
    /// Short label used in reports and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            TeApproach::BgpEcmp => "bgp-ecmp",
            TeApproach::Hedera => "hedera",
            TeApproach::SdnEcmp => "sdn-ecmp",
        }
    }

    /// The fat-tree switch role this approach needs.
    pub fn switch_role(&self) -> SwitchRole {
        match self {
            TeApproach::BgpEcmp => SwitchRole::BgpRouter,
            _ => SwitchRole::OpenFlow,
        }
    }
}

/// One traffic demand: start a flow, optionally stop it later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficEvent {
    /// When the flow starts.
    pub start: SimTime,
    /// The flow.
    pub spec: FlowSpec,
    /// Optional hard stop (CBR flows in the demo run until the horizon).
    pub stop: Option<SimTime>,
}

/// A scheduled link state change (failure injection / repair).
///
/// On a link that carries a BGP session, the session's transport drops,
/// routes are withdrawn and the network reconverges — pulling the
/// experiment clock back into FTI mode mid-run. (SDN controllers in this
/// model have no port-status channel, so an SDN fabric blackholes the
/// affected flows until rules are reinstalled — see `horse-core::control`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// When the change happens.
    pub at: SimTime,
    /// The link.
    pub link: horse_net::topology::LinkId,
    /// New state.
    pub up: bool,
}

/// Deferred control-plane description (built at [`Experiment::run`]).
pub enum ControlBuild {
    /// Static forwarding only.
    None,
    /// BGP daemons from per-router setups.
    Bgp(BTreeMap<horse_net::topology::NodeId, BgpNodeSetup>),
    /// SDN controller with reactive 5-tuple ECMP.
    SdnEcmp,
    /// SDN controller with Hedera.
    Hedera(HederaConfig),
}

/// A complete experiment description.
pub struct Experiment {
    /// The network, shared structurally: sweeps hand the same
    /// `Arc<Topology>` to every run over a given shape, so building an
    /// experiment never deep-copies the graph. Runs that inject link
    /// failures copy-on-write their private view at mutation time.
    pub topo: Arc<Topology>,
    /// Control-plane choice.
    pub control: ControlBuild,
    /// Traffic demands.
    pub traffic: Vec<TrafficEvent>,
    /// Scheduled link failures / repairs.
    pub link_events: Vec<LinkEvent>,
    /// FTI clock configuration.
    pub fti: FtiConfig,
    /// Pacing (Virtual for benches/tests, RealTime for live emulation).
    pub pacing: Pacing,
    /// Experiment end (virtual time).
    pub horizon: SimTime,
    /// Goodput sampling interval.
    pub sample_interval: SimDuration,
    /// Router ECMP hash mode (the demo's BGP case hashes src+dst IP).
    pub router_hash: HashMode,
    /// Seed for hashing/apps.
    pub seed: u64,
    /// Idle timeout (seconds) for SDN-installed flow rules; 0 = permanent.
    pub sdn_idle_timeout_s: u16,
    /// Pump scheduling mode (readiness-driven by default; `FullPoll` is
    /// the legacy cost model for differential tests and benches).
    pub pump_mode: PumpMode,
    /// Ignored: every run drains its speakers and solves its fluid
    /// components on the calling thread. Kept only because the benchmark
    /// reads it; ROADMAP item 1c deletes it.
    pub run_threads: usize,
    /// Structured-tracing options (disabled by default; enabling records
    /// span events across runner, pump, BGP speakers and the controller).
    pub trace: TraceOptions,
    /// Report label.
    pub label: String,
}

impl Experiment {
    /// An experiment over `topo` with no control plane and no traffic.
    /// Accepts an owned [`Topology`] or a shared `Arc<Topology>`.
    pub fn new(topo: impl Into<Arc<Topology>>) -> Experiment {
        Experiment {
            topo: topo.into(),
            control: ControlBuild::None,
            traffic: Vec::new(),
            link_events: Vec::new(),
            fti: FtiConfig {
                increment: SimDuration::from_millis(1),
                quiescence: SimDuration::from_millis(100),
            },
            pacing: Pacing::Virtual,
            horizon: SimTime::from_secs(20),
            sample_interval: SimDuration::from_millis(100),
            router_hash: HashMode::SrcDst,
            seed: 1,
            sdn_idle_timeout_s: 0,
            pump_mode: PumpMode::default(),
            run_threads: 1,
            trace: TraceOptions::default(),
            label: String::from("experiment"),
        }
    }

    /// The paper's demo scenario: a `pods`-pod fat-tree with 1 Gbps links,
    /// every host sending one 1 Gbps UDP flow to another host (random
    /// permutation), scheduled by the chosen TE approach.
    pub fn demo(pods: usize, te: TeApproach, seed: u64) -> Experiment {
        let ft = FatTree::build(pods, te.switch_role(), 1e9, 1_000);
        Experiment::demo_on(&ft, te, seed)
    }

    /// Topology-generic entry point: builds the spec and delegates to
    /// [`Experiment::on_built`]. A bare pod count still works
    /// (`Experiment::for_spec(4, …)` is the old `demo(4, …)`); zoo and
    /// pop-wan specs give control-plane-only BGP convergence runs.
    pub fn for_spec(spec: impl Into<TopologySpec>, te: TeApproach, seed: u64) -> Experiment {
        let spec = spec.into();
        Experiment::on_built(&spec.build(te.switch_role()), te, seed)
    }

    /// The experiment for an already-built [`BuiltTopology`] — sweeps and
    /// benches build each shape once and hand it to many runs.
    ///
    /// Fat-tree shapes get the full demo workload ([`Experiment::demo_on`],
    /// byte-identical to the fat-tree-only path). Router-only WANs (zoo,
    /// pop-wan) get a traffic-less convergence experiment: every router
    /// runs BGP with WAN timers ([`wan_timers`]: hold disabled, 100 ms
    /// MRAI) and the shape's synthetic originations; convergence shows up
    /// in the report's mode-transition curve and table-write counters
    /// rather than flow goodput.
    pub fn on_built(bt: &BuiltTopology, te: TeApproach, seed: u64) -> Experiment {
        match &bt.fat_tree {
            Some(ft) => Experiment::demo_on(ft, te, seed),
            None => {
                assert_eq!(
                    te,
                    TeApproach::BgpEcmp,
                    "router-only WAN topologies have no OpenFlow switches; \
                     only the BGP approach applies"
                );
                let setups = bgp_setups_with_networks(&bt.topo, wan_timers(), &bt.originations);
                let mut e = Experiment::new(Arc::clone(&bt.topo));
                e.control = ControlBuild::Bgp(setups);
                e.seed = seed;
                e.label = format!("{}-{}", te.label(), bt.spec.tag());
                e
            }
        }
    }

    /// The demo scenario over an already-built fat-tree. The topology is
    /// shared structurally (`Arc`), so a sweep can build each tree shape
    /// once and hand it to many runs without per-run deep copies. The
    /// tree's switch role must match the TE approach (BGP needs routers,
    /// SDN needs OpenFlow switches).
    pub fn demo_on(ft: &FatTree, te: TeApproach, seed: u64) -> Experiment {
        assert_eq!(
            ft.role,
            te.switch_role(),
            "fat-tree switch role must match the TE approach"
        );
        let control = match te {
            TeApproach::BgpEcmp => {
                ControlBuild::Bgp(ft.bgp_setups(horse_bgp::session::TimerConfig {
                    hold_time: SimDuration::from_secs(30),
                    connect_retry: SimDuration::from_secs(1),
                    mrai: SimDuration::ZERO,
                }))
            }
            TeApproach::SdnEcmp => ControlBuild::SdnEcmp,
            TeApproach::Hedera => ControlBuild::Hedera(HederaConfig::default()),
        };
        let pairs = TrafficPattern::RandomPermutation.pairs(&ft.hosts, seed);
        let mut traffic = Vec::new();
        for (i, p) in pairs.iter().enumerate() {
            let tuple = demo_tuple(&ft.topo, p.src, p.dst, i as u16);
            traffic.push(TrafficEvent {
                start: SimTime::ZERO,
                spec: FlowSpec::cbr(p.src, p.dst, tuple, 1e9),
                stop: None,
            });
        }
        let mut e = Experiment::new(Arc::clone(&ft.topo));
        e.control = control;
        e.traffic = traffic;
        e.seed = seed;
        e.label = format!("{}-k{}", te.label(), ft.k);
        e
    }

    /// Adds a traffic event.
    pub fn flow(mut self, start: SimTime, spec: FlowSpec) -> Experiment {
        self.traffic.push(TrafficEvent {
            start,
            spec,
            stop: None,
        });
        self
    }

    /// Schedules a link failure at `at`.
    pub fn link_down(mut self, at: SimTime, link: horse_net::topology::LinkId) -> Experiment {
        self.link_events.push(LinkEvent {
            at,
            link,
            up: false,
        });
        self
    }

    /// Schedules a link repair at `at`.
    pub fn link_up(mut self, at: SimTime, link: horse_net::topology::LinkId) -> Experiment {
        self.link_events.push(LinkEvent { at, link, up: true });
        self
    }

    /// Adds a traffic event with an explicit stop time.
    pub fn flow_until(mut self, start: SimTime, spec: FlowSpec, stop: SimTime) -> Experiment {
        self.traffic.push(TrafficEvent {
            start,
            spec,
            stop: Some(stop),
        });
        self
    }

    /// Sets the experiment horizon in seconds.
    pub fn horizon_secs(mut self, secs: f64) -> Experiment {
        self.horizon = SimTime::from_secs_f64(secs);
        self
    }

    /// Sets the FTI increment and quiescence timeout.
    pub fn fti(mut self, increment: SimDuration, quiescence: SimDuration) -> Experiment {
        self.fti = FtiConfig {
            increment,
            quiescence,
        };
        self
    }

    /// Sets the pacing policy.
    pub fn pacing(mut self, pacing: Pacing) -> Experiment {
        self.pacing = pacing;
        self
    }

    /// Sets the goodput sampling interval.
    pub fn sample_every(mut self, interval: SimDuration) -> Experiment {
        self.sample_interval = interval;
        self
    }

    /// Sets the idle timeout of SDN-installed rules (0 = permanent).
    pub fn sdn_idle_timeout(mut self, secs: u16) -> Experiment {
        self.sdn_idle_timeout_s = secs;
        self
    }

    /// Sets the pump scheduling mode.
    pub fn pump_mode(mut self, mode: PumpMode) -> Experiment {
        self.pump_mode = mode;
        self
    }

    /// Sets the structured-tracing options (see [`horse_trace`]).
    pub fn trace(mut self, opts: TraceOptions) -> Experiment {
        self.trace = opts;
        self
    }

    /// Sets the report label.
    pub fn label(mut self, label: impl Into<String>) -> Experiment {
        self.label = label.into();
        self
    }

    /// Builds and runs the experiment, returning its report.
    pub fn run(self) -> ExperimentReport {
        self.run_traced().0
    }

    /// Builds and runs the experiment, returning the report and — when
    /// tracing was enabled via [`Experiment::trace`] — the merged
    /// [`TraceLog`] for export and analysis.
    pub fn run_traced(self) -> (ExperimentReport, Option<TraceLog>) {
        let setup_start = std::time::Instant::now();
        let dp = DataPlane::from_topology(&self.topo, self.router_hash, HashMode::FiveTuple);
        // The control plane is built from *shared* topology state: BGP
        // setups are moved (not cloned) out of the description, and SDN
        // fabrics clone the `Arc`, not the graph.
        let mut control = match self.control {
            ControlBuild::None => ControlPlane::None,
            ControlBuild::Bgp(setups) => {
                ControlPlane::Bgp(Box::new(BgpControl::new(&self.topo, setups)))
            }
            ControlBuild::SdnEcmp => {
                let fabric = FabricView::new(Arc::clone(&self.topo));
                ControlPlane::Sdn(Box::new(SdnControl::new(
                    &self.topo,
                    SdnApp::Ecmp(
                        EcmpApp::new(fabric, self.seed).with_idle_timeout(self.sdn_idle_timeout_s),
                    ),
                )))
            }
            ControlBuild::Hedera(cfg) => {
                let fabric = FabricView::new(Arc::clone(&self.topo));
                ControlPlane::Sdn(Box::new(SdnControl::new(
                    &self.topo,
                    SdnApp::Hedera(HederaApp::new(fabric, cfg, self.seed)),
                )))
            }
        };
        control.set_pump_mode(self.pump_mode);
        let wall_setup_secs = setup_start.elapsed().as_secs_f64();
        let mut runner = Runner::new(
            self.topo,
            dp,
            control,
            self.traffic,
            self.link_events,
            self.fti,
            self.pacing,
            self.horizon,
            self.sample_interval,
            self.label,
        );
        runner.set_trace(&self.trace);
        let report = runner.run(wall_setup_secs);
        (report, runner.take_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_spec_fat_tree_matches_demo() {
        let a = Experiment::for_spec(4, TeApproach::SdnEcmp, 42);
        let b = Experiment::demo(4, TeApproach::SdnEcmp, 42);
        assert_eq!(a.label, b.label);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.topo.node_count(), b.topo.node_count());
    }

    #[test]
    fn zoo_spec_converges_control_only() {
        let spec = TopologySpec::Zoo {
            name: "Abilene".into(),
        };
        let report = Experiment::for_spec(spec, TeApproach::BgpEcmp, 1)
            .horizon_secs(10.0)
            .run();
        assert_eq!(report.label, "bgp-ecmp-zoo-Abilene");
        assert!(report.control_msgs > 0, "BGP must have spoken");
        assert!(report.table_writes > 0, "routes must have been installed");
        // The mode-transition curve is the convergence signal for
        // traffic-less runs: the network must go quiescent before the
        // horizon and stay there.
        let last = report
            .transitions
            .last()
            .expect("at least one mode transition");
        assert!(last.at < SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "only the BGP approach applies")]
    fn zoo_spec_rejects_sdn() {
        let spec = TopologySpec::Zoo {
            name: "Abilene".into(),
        };
        let _ = Experiment::for_spec(spec, TeApproach::SdnEcmp, 1);
    }
}
