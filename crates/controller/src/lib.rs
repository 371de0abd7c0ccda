//! # horse-controller — SDN applications
//!
//! The demo's two OpenFlow traffic-engineering approaches, implemented as
//! [`horse_openflow::ControllerApp`]s:
//!
//! * [`EcmpApp`] — reactive 5-tuple ECMP: on a flow's first packet
//!   (PACKET_IN) the controller hashes the full 5-tuple over the set of
//!   shortest paths and pins the flow with exact-match rules along the
//!   chosen path.
//! * [`HederaApp`] — Hedera (NSDI'10): the same reactive ECMP default,
//!   plus a scheduling loop that polls edge-switch flow statistics every
//!   5 seconds, estimates flow demands with Hedera's iterative
//!   estimator ([`demand`]), detects elephants (≥ 10 % of NIC rate) and
//!   re-places them with Global First Fit or Simulated Annealing
//!   ([`placement`]).
//!
//! Both apps share a [`FabricView`] — the controller's copy of the
//! topology, mirroring how real SDN apps learn the fabric via LLDP or
//! configuration.

pub mod demand;
pub mod ecmp;
pub mod fabric;
pub mod hedera;
pub mod placement;

pub use demand::{estimate_demands, FlowDemand};
pub use ecmp::EcmpApp;
pub use fabric::{FabricView, PathSet};
pub use hedera::{HederaApp, HederaConfig};
pub use placement::{place_flows, PlacementAlgo, PlacementInput};
