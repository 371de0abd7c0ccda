//! # horse-core — the Horse experiment engine
//!
//! This crate is the library a user of Horse actually drives (the role the
//! paper's Python API plays): describe a topology, attach an emulated
//! control plane (BGP daemons per router, or an OpenFlow controller with an
//! ECMP/Hedera app), declare traffic, and run. The hybrid runner executes
//! the simulated fluid data plane as a discrete-event simulation while the
//! control plane exchanges real protocol bytes; the clock switches between
//! DES and FTI modes exactly as §2 of the paper describes, driven by
//! control-plane activity observed by the Connection Manager.
//!
//! ```
//! use horse_core::{Experiment, TeApproach};
//!
//! // The paper's demo, one line per scenario: a 4-pod fat-tree where every
//! // host sends one 1 Gbps UDP flow, scheduled by SDN 5-tuple ECMP.
//! let report = Experiment::demo(4, TeApproach::SdnEcmp, 42)
//!     .horizon_secs(5.0)
//!     .run();
//! assert!(report.goodput_mean_bps() > 0.0);
//! ```

pub mod config;
pub mod control;
pub mod experiment;
pub mod report;
pub mod runner;
pub mod workload;

pub use config::{ConfigError, RunConfig};
pub use control::{ControlPlane, PumpMode, PumpStats, SdnApp};
pub use experiment::{ControlBuild, Experiment, TeApproach, TrafficEvent};
pub use report::ExperimentReport;
pub use runner::Runner;
pub use workload::{PoissonWorkload, SizeDist};
