//! The readiness-driven pump is a pure cost optimization: for any seed,
//! its report must be byte-identical (modulo wall time and the pump's own
//! cost counters) to the legacy poll-every-node pump's — on BGP and SDN
//! control planes, with rule expiry, and through link failures.

use horse::net::flow::FlowSpec;
use horse::sim::{SimDuration, SimTime};
use horse::topo::fattree::{FatTree, SwitchRole};
use horse::topo::pattern::demo_tuple;
use horse::topo::{
    bgp_setups_for, bgp_setups_with_networks, pop_wan, spread_originations, wan_timers,
};
use horse::{ControlBuild, Experiment, PumpMode, TeApproach};

const G: f64 = 1e9;

/// Runs `build()` under both pump modes and checks semantic identity;
/// returns (readiness, full-poll) reports for extra cost assertions.
fn both_modes(
    build: impl Fn() -> Experiment,
) -> (horse::ExperimentReport, horse::ExperimentReport) {
    let ready = build().pump_mode(PumpMode::Readiness).run();
    let polled = build().pump_mode(PumpMode::FullPoll).run();
    let (a, b) = (ready.semantic_json(), polled.semantic_json());
    if a != b {
        let diff: Vec<String> = a
            .lines()
            .zip(b.lines())
            .filter(|(x, y)| x != y)
            .take(4)
            .map(|(x, y)| format!("readiness: {x}\nfull poll: {y}"))
            .collect();
        panic!(
            "pump modes must be observably identical; first diffs:\n{}",
            diff.join("\n")
        );
    }
    (ready, polled)
}

#[test]
fn bgp_demo_matches_full_poll_and_does_less_work() {
    let (ready, polled) = both_modes(|| Experiment::demo(4, TeApproach::BgpEcmp, 42));
    // Same steps, strictly fewer speaker polls.
    assert_eq!(ready.pump_steps, polled.pump_steps);
    assert!(
        ready.pump_nodes_touched < polled.pump_nodes_touched,
        "readiness {} !< full poll {}",
        ready.pump_nodes_touched,
        polled.pump_nodes_touched
    );
    // The full poll touches every node every step, by definition.
    assert_eq!(polled.pump_nodes_touched, polled.pump_nodes_total);
}

#[test]
fn sdn_ecmp_demo_matches_full_poll() {
    let (ready, polled) = both_modes(|| Experiment::demo(4, TeApproach::SdnEcmp, 42));
    assert!(ready.pump_nodes_touched < polled.pump_nodes_touched);
}

#[test]
fn hedera_demo_matches_full_poll() {
    // Hedera's 5 s stats polls exercise the request/reply drain path.
    let (ready, polled) =
        both_modes(|| Experiment::demo(4, TeApproach::Hedera, 42).horizon_secs(12.0));
    assert!(ready.pump_nodes_touched < polled.pump_nodes_touched);
}

#[test]
fn rule_expiry_matches_full_poll() {
    // Flow stops at t=2 with a 2 s idle timeout: expiry sweeps and
    // FLOW_REMOVED reporting must land on the same instants in both modes.
    let (ready, polled) = both_modes(|| {
        let ft = FatTree::build(4, SwitchRole::OpenFlow, G, 1_000);
        let src = ft.hosts[0];
        let dst = ft.hosts[8];
        let tuple = demo_tuple(&ft.topo, src, dst, 0);
        let mut e = Experiment::new(ft.topo)
            .horizon_secs(10.0)
            .sdn_idle_timeout(2)
            .flow_until(
                SimTime::ZERO,
                FlowSpec::cbr(src, dst, tuple, 0.5 * G),
                SimTime::from_secs(2),
            )
            .label("pump-expiry");
        e.control = ControlBuild::SdnEcmp;
        e
    });
    assert!(ready.pump_table_scans < polled.pump_table_scans);
}

#[test]
fn bgp_link_failure_matches_full_poll() {
    // Failure + repair: transport drops, withdrawals, reconvergence — the
    // dirty-set bookkeeping must track sessions through all of it.
    let (_ready, _polled) = both_modes(|| {
        let ft = FatTree::build(4, SwitchRole::BgpRouter, G, 1_000);
        let agg = ft.aggs[0];
        let core = ft.cores[0];
        let (victim, _) = ft.topo.link_between(agg, core).expect("agg-core link");
        let mut e = Experiment::demo(4, TeApproach::BgpEcmp, 42).horizon_secs(8.0);
        e = e
            .link_down(SimTime::from_secs(2), victim)
            .link_up(SimTime::from_secs(4), victim);
        e
    });
}

#[test]
fn sdn_link_failure_matches_full_poll() {
    let (_ready, _polled) = both_modes(|| {
        let ft = FatTree::build(4, SwitchRole::OpenFlow, G, 1_000);
        let agg = ft.aggs[0];
        let core = ft.cores[0];
        let (victim, _) = ft.topo.link_between(agg, core).expect("agg-core link");
        let mut e = Experiment::demo(4, TeApproach::SdnEcmp, 42).horizon_secs(8.0);
        e = e.link_down(SimTime::from_secs(2), victim);
        e
    });
}

#[test]
fn bgp_wan_table_matches_full_poll() {
    // A PoP WAN carrying a synthetic table: each drain carries thousands
    // of route changes, and the pump merges each node as soon as it is
    // drained.
    let (ready, polled) = both_modes(|| {
        let (topo, _cores, leaves) = pop_wan(4, 3, G);
        let setups =
            bgp_setups_with_networks(&topo, wan_timers(), &spread_originations(&leaves, 2_000));
        let mut e = Experiment::new(topo).horizon_secs(5.0);
        e.control = ControlBuild::Bgp(setups);
        e
    });
    assert!(ready.pump_nodes_touched < polled.pump_nodes_touched);
}

#[test]
fn keepalive_deadlines_survive_des_jumps_in_both_modes() {
    // A long quiet run: the only control activity after convergence is
    // keepalive exchange off the timer wheel. Both modes must wake at the
    // same instants (hold timers never fire → sessions stay up).
    let (ready, _polled) = both_modes(|| {
        let mut topo = horse::net::topology::Topology::new();
        let sn1: horse::net::Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let sn2: horse::net::Ipv4Prefix = "10.0.2.0/24".parse().unwrap();
        let h1 = topo.add_host("h1", std::net::Ipv4Addr::new(10, 0, 1, 2), sn1);
        let h2 = topo.add_host("h2", std::net::Ipv4Addr::new(10, 0, 2, 2), sn2);
        let r1 = topo.add_router("r1", std::net::Ipv4Addr::new(10, 0, 1, 1));
        let r2 = topo.add_router("r2", std::net::Ipv4Addr::new(10, 0, 2, 1));
        topo.add_link(h1, r1, G, 1_000);
        topo.add_link(r1, r2, G, 5_000);
        topo.add_link(r2, h2, G, 1_000);
        let setups = bgp_setups_for(
            &topo,
            horse::bgp::session::TimerConfig {
                hold_time: SimDuration::from_secs(30),
                connect_retry: SimDuration::from_secs(1),
                mrai: SimDuration::ZERO,
            },
        );
        let tuple = horse::net::flow::FiveTuple::udp(
            std::net::Ipv4Addr::new(10, 0, 1, 2),
            5000,
            std::net::Ipv4Addr::new(10, 0, 2, 2),
            5001,
        );
        let mut e = Experiment::new(topo)
            .flow(SimTime::ZERO, FlowSpec::cbr(h1, h2, tuple, 0.5 * G))
            .horizon_secs(45.0)
            .label("keepalive-quiet");
        e.control = ControlBuild::Bgp(setups);
        e
    });
    // Keepalives every hold/3 = 10 s produced FTI windows well past start.
    assert!(
        ready
            .transitions
            .iter()
            .any(|t| t.at >= SimTime::from_secs(20)),
        "keepalive chatter must keep waking the clock: {:?}",
        ready.transitions
    );
}
