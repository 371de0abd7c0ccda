//! The six named workloads: what each builds from `(workload, seed)` and
//! which output checks its reports must pass.
//!
//! The seed only ever reaches the library through generated inputs (the
//! traffic permutation, the Poisson trace, the leaf rotation, the sweep's
//! base seed). Nothing here reads `HORSE_*` variables.

use horse::net::addr::Ipv4Prefix;
use horse::net::flow::{FiveTuple, FlowSpec};
use horse::net::topology::{LinkId, NodeId, Topology};
use horse::sim::{Pacing, SimDuration, SimTime};
use horse::sweep::SweepPlan;
use horse::topo::fattree::{BgpNodeSetup, FatTree, SwitchRole};
use horse::topo::{bgp_setups_with_networks, pop_wan, synth_prefix, wan_timers};
use horse::{
    ControlBuild, Experiment, ExperimentReport, TeApproach, TopologySpec, TrafficEvent, ZooCorpus,
    ALL_SCENARIOS,
};
use horse_core::experiment::LinkEvent;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// k=12 BGP fat-tree convergence: many peers × few prefixes.
    BgpConvergeK12,
    /// The same fabric under 60 agg→core link flaps.
    BgpFlapK12,
    /// 100-router PoP WAN carrying 10 000 prefixes, no traffic.
    WanTable10k,
    /// k=8 OpenFlow fat-tree under a Poisson heavy-tailed flow trace.
    SdnPoissonK8,
    /// 71 zoo graphs × 3 policy scenarios through the resumable sweep.
    ZooSweep,
    /// k=10 BGP convergence paced against the wall clock.
    BgpPacedK10,
}

/// Flaps injected by [`Workload::BgpFlapK12`].
pub const FLAPS: usize = 60;
/// Prefixes originated by [`Workload::WanTable10k`].
pub const WAN_PREFIXES: usize = 10_000;
/// Arrival rate per host of [`Workload::SdnPoissonK8`], flows/second.
const SDN_LAMBDA_PER_HOST: f64 = 4.0;
/// Arrivals of [`Workload::SdnPoissonK8`] stop here (flows may finish later).
const SDN_ARRIVALS_UNTIL_S: f64 = 20.0;
/// Transfer sizes of [`Workload::SdnPoissonK8`]: bounded Pareto
/// (min bytes, max bytes, tail index) — mice and multi-second elephants.
const SDN_SIZES: (f64, f64, f64) = (1e5, 2e9, 1.05);

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::BgpConvergeK12,
        Workload::BgpFlapK12,
        Workload::WanTable10k,
        Workload::SdnPoissonK8,
        Workload::ZooSweep,
        Workload::BgpPacedK10,
    ];

    /// The name used on the command line and in every result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BgpConvergeK12 => "bgp_converge_k12",
            Workload::BgpFlapK12 => "bgp_flap_k12",
            Workload::WanTable10k => "wan_table_10k",
            Workload::SdnPoissonK8 => "sdn_poisson_k8",
            Workload::ZooSweep => "zoo_sweep",
            Workload::BgpPacedK10 => "bgp_paced_k10",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why this workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BgpConvergeK12 => {
                "many peers x few prefixes: session, codec, speaker, RIB and pump do the work; fluid and OpenFlow idle"
            }
            Workload::BgpFlapK12 => {
                "the same BGP layers under withdraw/re-announce churn, deadline-driven pump rounds and reroutes through the solver"
            }
            Workload::WanTable10k => {
                "few peers x many prefixes: RIB decide/export, NLRI packing, FIB install and memory dominate; pump and solver idle"
            }
            Workload::SdnPoissonK8 => {
                "the only workload where openflow, controller, flow tables and the fluid solver do the work; bypasses all BGP code"
            }
            Workload::ZooSweep => {
                "the campaign path: GML parse, topology cache, policy compile, per-run build/teardown, JSONL checkpoint append"
            }
            Workload::BgpPacedK10 => {
                "the paper's real-time-paced mode: wall time is floored by sleeps, so control-plane speed shows in rt_factor"
            }
        }
    }
}

/// What a workload builds once and shares across its iterations (the
/// `topo.build_s` stage): the topology, or for the sweep the corpus catalog.
pub enum Shared {
    /// A built fat-tree.
    FatTree(FatTree),
    /// The PoP WAN and its leaf routers (the origination points).
    Wan {
        /// The graph.
        topo: Arc<Topology>,
        /// Leaf routers in build order.
        leaves: Vec<NodeId>,
    },
    /// The vendored zoo catalog (graphs are parsed per run by the sweep's
    /// own topology cache).
    Zoo {
        /// Catalog names, sorted.
        names: Vec<String>,
    },
}

impl Shared {
    /// Experiment runs ("ops") one iteration over this state performs.
    pub fn ops_per_iteration(&self) -> u64 {
        match self {
            Shared::Zoo { names } => (names.len() * ALL_SCENARIOS.len()) as u64,
            _ => 1,
        }
    }
}

/// Builds the state shared across a workload's iterations.
pub fn build_shared(w: Workload) -> Shared {
    match w {
        Workload::BgpConvergeK12 | Workload::BgpFlapK12 => {
            Shared::FatTree(FatTree::build(12, SwitchRole::BgpRouter, 1e9, 0))
        }
        Workload::BgpPacedK10 => Shared::FatTree(FatTree::build(10, SwitchRole::BgpRouter, 1e9, 0)),
        Workload::SdnPoissonK8 => {
            Shared::FatTree(FatTree::build(8, SwitchRole::OpenFlow, 1e9, 1_000))
        }
        Workload::WanTable10k => {
            let (topo, _cores, leaves) = pop_wan(10, 9, 1e9);
            Shared::Wan {
                topo: Arc::new(topo),
                leaves,
            }
        }
        Workload::ZooSweep => Shared::Zoo { names: zoo_names() },
    }
}

/// The vendored zoo catalog: every graph's name, sorted.
pub fn zoo_names() -> Vec<String> {
    ZooCorpus::vendored().names().to_vec()
}

/// The agg→core links of a fat-tree, in (agg, port) order.
pub fn uplinks(ft: &FatTree) -> Vec<LinkId> {
    let mut out = Vec::new();
    for agg in &ft.aggs {
        for (lid, _, nb) in ft.topo.neighbors(*agg) {
            if ft.cores.contains(&nb) {
                out.push(lid);
            }
        }
    }
    out
}

/// The flap schedule of [`Workload::BgpFlapK12`]: flap `f` takes
/// `uplinks[(7·f) mod len]` down at `3 s + f·1 s` and restores it 0.5 s
/// later, so every flap's reconvergence finishes before the next begins.
pub fn flap_events(ft: &FatTree) -> Vec<LinkEvent> {
    let ups = uplinks(ft);
    let mut out = Vec::with_capacity(2 * FLAPS);
    for f in 0..FLAPS {
        let link = ups[(7 * f) % ups.len()];
        let down = SimTime::from_secs(3 + f as u64);
        out.push(LinkEvent {
            at: down,
            link,
            up: false,
        });
        out.push(LinkEvent {
            at: down + SimDuration::from_millis(500),
            link,
            up: true,
        });
    }
    out
}

/// The WAN workload's originations: [`WAN_PREFIXES`] synthetic /24s spread
/// round-robin over the leaves, the assignment rotated by the seed.
pub fn wan_originations(leaves: &[NodeId], seed: u64) -> BTreeMap<NodeId, Vec<Ipv4Prefix>> {
    let mut out: BTreeMap<NodeId, Vec<Ipv4Prefix>> = BTreeMap::new();
    let rot = (seed % leaves.len() as u64) as usize;
    for g in 0..WAN_PREFIXES {
        out.entry(leaves[(g + rot) % leaves.len()])
            .or_default()
            .push(synth_prefix(g as u32));
    }
    out
}

/// The BGP setups of the WAN workload (needed again by the mesh replay).
pub fn wan_setups(topo: &Topology, leaves: &[NodeId], seed: u64) -> BTreeMap<NodeId, BgpNodeSetup> {
    bgp_setups_with_networks(topo, wan_timers(), &wan_originations(leaves, seed))
}

/// The sweep plan of [`Workload::ZooSweep`].
pub fn zoo_plan(names: &[String], seed: u64) -> SweepPlan {
    SweepPlan::new(seed)
        .topologies(names.iter().map(|n| TopologySpec::Zoo { name: n.clone() }))
        .policies(ALL_SCENARIOS)
        .approaches([TeApproach::BgpEcmp])
        .horizon_secs(10.0)
}

/// The `u`-quantile of the bounded Pareto [`SDN_SIZES`] (the inverse CDF
/// `horse_core::SizeDist::BoundedPareto` samples through).
fn sdn_size_quantile(u: f64) -> u64 {
    let (min, max, alpha) = SDN_SIZES;
    let (l, h) = (min.powf(alpha), max.powf(alpha));
    let x = (-(u * h - u * l - h) / (h * l)).powf(-1.0 / alpha);
    x.clamp(min, max) as u64
}

/// The flow trace of [`Workload::SdnPoissonK8`]: a Poisson arrival process
/// (λ = 4 per host until 20 s) conditioned on its expected count, with
/// bounded-Pareto sizes sampled by quantile.
///
/// Conditioned on `n` arrivals a Poisson process is `n` sorted uniform
/// times, each at a uniform host; the sizes are the distribution's `n`
/// mid-quantiles dealt to the arrivals by a seeded shuffle. So every seed
/// offers the same flow count and the same multiset of sizes (five transfers
/// of more than a second at line rate, the largest 0.8 GB for 6.4 s), and
/// decides when, between which hosts and in which order they arrive.
/// `PoissonWorkload::generate` draws the count and the sizes as well: its
/// 10 240 ± 100 arrivals and Poisson number of elephants moved `wall_s` by
/// 5.7 % (IQR) from seed to seed, which no number of iterations averages
/// out; this trace moves it by 2 %.
pub fn sdn_trace(ft: &FatTree, seed: u64) -> Vec<TrafficEvent> {
    let hosts = &ft.hosts;
    let n = (SDN_LAMBDA_PER_HOST * hosts.len() as f64 * SDN_ARRIVALS_UNTIL_S) as usize;
    // A counter-based generator over the library's public seed mixer.
    let mut draws = 0u64;
    let mut next = || {
        draws += 1;
        horse::sweep::derive_seed(seed, draws)
    };
    let mut starts: Vec<f64> = (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * SDN_ARRIVALS_UNTIL_S)
        .collect();
    starts.sort_by(|a, b| a.partial_cmp(b).expect("start times are finite"));
    let mut size_rank: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        size_rank.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    (0..n)
        .map(|i| {
            let src = (next() % hosts.len() as u64) as usize;
            let mut dst = (next() % (hosts.len() as u64 - 1)) as usize;
            if dst >= src {
                dst += 1;
            }
            let tuple = FiveTuple::tcp(
                ft.topo.node(hosts[src]).ip,
                30_000 + i as u16,
                ft.topo.node(hosts[dst]).ip,
                5_201,
            );
            let size = sdn_size_quantile((size_rank[i] as f64 + 0.5) / n as f64);
            TrafficEvent {
                start: SimTime::from_secs_f64(starts[i]),
                spec: FlowSpec::elastic(hosts[src], hosts[dst], tuple, Some(size)),
                stop: None,
            }
        })
        .collect()
}

/// Builds the experiment of a single-experiment workload from its shared
/// state and the seed (the `core.experiment_build_s` stage). Panics for
/// [`Workload::ZooSweep`], whose experiments the sweep engine builds.
pub fn build_experiment(w: Workload, shared: &Shared, seed: u64) -> Experiment {
    match (w, shared) {
        (Workload::BgpConvergeK12, Shared::FatTree(ft)) => {
            Experiment::demo_on(ft, TeApproach::BgpEcmp, seed).horizon_secs(20.0)
        }
        (Workload::BgpFlapK12, Shared::FatTree(ft)) => {
            let mut e = Experiment::demo_on(ft, TeApproach::BgpEcmp, seed).horizon_secs(65.0);
            e.link_events = flap_events(ft);
            e
        }
        (Workload::BgpPacedK10, Shared::FatTree(ft)) => {
            Experiment::demo_on(ft, TeApproach::BgpEcmp, seed)
                .horizon_secs(20.0)
                .pacing(Pacing::real_time())
        }
        (Workload::SdnPoissonK8, Shared::FatTree(ft)) => {
            let mut e = Experiment::new(Arc::clone(&ft.topo)).horizon_secs(40.0);
            e.control = ControlBuild::SdnEcmp;
            e.traffic = sdn_trace(ft, seed);
            e.seed = seed;
            e.label = format!("sdn-poisson-k{}", ft.k);
            e
        }
        (Workload::WanTable10k, Shared::Wan { topo, leaves }) => {
            let mut e = Experiment::new(Arc::clone(topo))
                .horizon_secs(30.0)
                .sample_every(SimDuration::from_secs(10));
            e.control = ControlBuild::Bgp(wan_setups(topo, leaves, seed));
            e.seed = seed;
            e.label = format!("wan-table-{WAN_PREFIXES}");
            e
        }
        _ => panic!("{} has no single experiment to build", w.name()),
    }
}

/// What a report must show for its run to count as correct, fixed from the
/// experiment description before it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// Bounded (sized) flows, all of which must complete.
    pub bounded_flows: usize,
    /// Lower bound on `table_writes`.
    pub min_table_writes: u64,
}

impl Expect {
    /// The expectations for `e` under workload `w`.
    pub fn of(w: Workload, e: &Experiment) -> Expect {
        let bounded_flows = e
            .traffic
            .iter()
            .filter(|t| t.spec.size_bytes.is_some())
            .count();
        let min_table_writes = match (w, &e.control) {
            // Every router must install every prefix it does not originate.
            (Workload::WanTable10k, ControlBuild::Bgp(setups)) => {
                (setups.len() as u64 - 1) * WAN_PREFIXES as u64
            }
            _ => 0,
        };
        Expect {
            bounded_flows,
            min_table_writes,
        }
    }

    /// Every violated output check of `report`, as readable strings (empty
    /// = the run is correct).
    pub fn violations(&self, report: &ExperimentReport) -> Vec<String> {
        let mut out = Vec::new();
        if report.flows_routed != report.flows_requested {
            out.push(format!(
                "flows_routed {} != flows_requested {}",
                report.flows_routed, report.flows_requested
            ));
        }
        if report.completions.len() != self.bounded_flows {
            out.push(format!(
                "{} of {} bounded flows completed",
                report.completions.len(),
                self.bounded_flows
            ));
        }
        if report.table_writes < self.min_table_writes {
            out.push(format!(
                "table_writes {} < {}",
                report.table_writes, self.min_table_writes
            ));
        }
        if report.control_msgs == 0 {
            out.push("control_msgs == 0".to_string());
        }
        out
    }
}

/// A digest of everything the workload generates from the seed — equal
/// seeds must give equal digests, different seeds different ones.
#[cfg(test)]
pub fn inputs_digest(w: Workload, shared: &Shared, seed: u64) -> u64 {
    let text = match (w, shared) {
        (Workload::ZooSweep, Shared::Zoo { names }) => {
            format!("{:?}", zoo_plan(names, seed).expand())
        }
        (Workload::WanTable10k, Shared::Wan { leaves, .. }) => {
            format!("{:?}", wan_originations(leaves, seed))
        }
        _ => {
            let e = build_experiment(w, shared, seed);
            format!("{:?}|{:?}|{}", e.traffic, e.link_events, e.seed)
        }
    };
    horse::sweep::fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        for w in Workload::ALL {
            let shared = build_shared(w);
            let a = inputs_digest(w, &shared, 42);
            assert_eq!(a, inputs_digest(w, &shared, 42), "{}", w.name());
            assert_ne!(a, inputs_digest(w, &shared, 7), "{}", w.name());
        }
    }

    #[test]
    fn sdn_trace_fixes_count_and_sizes_and_keeps_the_elephants() {
        let Shared::FatTree(ft) = build_shared(Workload::SdnPoissonK8) else {
            panic!("fat-tree workload");
        };
        let sorted_sizes = |seed| {
            let trace = sdn_trace(&ft, seed);
            assert!(trace.windows(2).all(|p| p[0].start <= p[1].start));
            assert!(trace.last().unwrap().start < SimTime::from_secs(20));
            assert!(trace.iter().all(|t| t.spec.src != t.spec.dst));
            let mut sizes: Vec<u64> = trace.iter().filter_map(|t| t.spec.size_bytes).collect();
            sizes.sort_unstable();
            sizes
        };
        let sizes = sorted_sizes(42);
        assert_eq!(sizes.len(), 10_240);
        assert_eq!(sizes, sorted_sizes(7));
        // Long-lived flows: a second or more at the 1 Gb/s line rate.
        assert_eq!(sizes.iter().filter(|&&s| s >= 125_000_000).count(), 5);
        assert_eq!(sizes[sizes.len() - 1] / 1_000_000, 804);
    }

    #[test]
    fn flap_schedule_fits_the_horizon_and_restores_every_link() {
        let Shared::FatTree(ft) = build_shared(Workload::BgpFlapK12) else {
            panic!("fat-tree workload");
        };
        assert_eq!(uplinks(&ft).len(), 12 * 6 * 6);
        let evs = flap_events(&ft);
        assert_eq!(evs.len(), 2 * FLAPS);
        for pair in evs.chunks(2) {
            assert_eq!(pair[0].link, pair[1].link);
            assert!(!pair[0].up && pair[1].up);
            assert!(pair[1].at < SimTime::from_secs(65));
        }
    }

    #[test]
    fn wan_rotation_keeps_the_table_and_moves_the_origins() {
        let Shared::Wan { leaves, .. } = build_shared(Workload::WanTable10k) else {
            panic!("wan workload");
        };
        let a = wan_originations(&leaves, 42);
        let b = wan_originations(&leaves, 43);
        let count = |m: &BTreeMap<NodeId, Vec<Ipv4Prefix>>| m.values().map(Vec::len).sum::<usize>();
        assert_eq!(count(&a), WAN_PREFIXES);
        assert_eq!(count(&b), WAN_PREFIXES);
        assert_ne!(a, b);
    }

    #[test]
    fn zoo_plan_is_71_graphs_times_3_scenarios() {
        let shared = build_shared(Workload::ZooSweep);
        let Shared::Zoo { names } = &shared else {
            panic!("zoo workload");
        };
        assert_eq!(zoo_plan(names, 42).expand().len(), 213);
        assert_eq!(shared.ops_per_iteration(), 213);
    }
}
