//! # Horse — faster control-plane experimentation
//!
//! A Rust reproduction of **Horse** (Fernandes et al., SIGCOMM 2019): a
//! hybrid network experimentation tool that *emulates* the control plane
//! (real BGP speakers, a real OpenFlow controller — byte-exact protocols,
//! real timers) while *simulating* the data plane (a fluid-rate traffic
//! model in a discrete-event engine). Decoupling the planes lets the
//! experiment clock sprint through data-plane time in DES mode and slow to
//! real-time-compatible Fixed Time Increments (FTI) only while control
//! traffic is in flight.
//!
//! ## Quickstart
//!
//! ```
//! use horse::{Experiment, TeApproach};
//!
//! // The paper's demo: a 4-pod fat-tree, every host sending one 1 Gbps UDP
//! // flow, scheduled by an SDN controller doing 5-tuple ECMP.
//! let report = Experiment::demo(4, TeApproach::SdnEcmp, 42)
//!     .horizon_secs(5.0)
//!     .run();
//! println!(
//!     "goodput {:.1} Gbps, {} control messages, FTI {:.0}ms / DES {:.2}s",
//!     report.goodput_final_bps() / 1e9,
//!     report.control_msgs,
//!     report.fti_time.as_millis_f64(),
//!     report.des_time.as_secs_f64(),
//! );
//! assert_eq!(report.flows_routed, 16);
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Re-exported as |
//! |---|---|---|
//! | Experiment API & hybrid runner | `horse-core` | [`Experiment`], [`Runner`] |
//! | DES engine, hybrid clock | `horse-sim` | [`sim`] |
//! | Topology & fluid data plane | `horse-net` | [`net`] |
//! | FIBs, flow tables, ECMP | `horse-dataplane` | [`dataplane`] |
//! | BGP-4 speaker (sans-IO) | `horse-bgp` | [`bgp`] |
//! | OpenFlow 1.0 (sans-IO) | `horse-openflow` | [`openflow`] |
//! | ECMP & Hedera apps | `horse-controller` | [`controller`] |
//! | Fat-tree & other builders | `horse-topo` | [`topo`] |
//! | Connection Manager pieces | `horse-cm` | [`cm`] |
//! | Mininet model & packet DES | `horse-baseline` | [`baseline`] |
//! | Metrics | `horse-stats` | [`stats`] |
//! | Parallel sweep engine | `horse-sweep` | [`sweep`] |
//! | Structured tracing & profiling | `horse-trace` | [`trace`] |

pub use horse_core::{
    ConfigError, ControlPlane, Experiment, ExperimentReport, PumpMode, PumpStats, RunConfig,
    Runner, SdnApp, TeApproach,
};
pub use horse_trace::{TraceLog, TraceOptions, TraceSummary};

/// The paper's three traffic-engineering demo scenarios, re-exported.
pub use horse_core::experiment::{ControlBuild, TrafficEvent};

/// The topology/policy grid axes, re-exported so sweep callers can name
/// them without reaching into [`topo`].
pub use horse_topo::{BuiltTopology, PolicyScenario, TopologySpec, ZooCorpus, ALL_SCENARIOS};

pub use horse_baseline as baseline;
pub use horse_bgp as bgp;
pub use horse_cm as cm;
pub use horse_controller as controller;
pub use horse_dataplane as dataplane;
pub use horse_net as net;
pub use horse_openflow as openflow;
pub use horse_sim as sim;
pub use horse_stats as stats;
pub use horse_sweep as sweep;
pub use horse_topo as topo;
pub use horse_trace as trace;
