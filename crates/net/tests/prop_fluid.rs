//! Property tests on the max–min fair fluid allocator.
//!
//! For random chain topologies with random flows the solution must satisfy
//! the defining properties of max–min fairness with demand caps:
//!
//! 1. feasibility — every directed link's load ≤ its capacity;
//! 2. demand caps — 0 ≤ rate ≤ demand for every flow;
//! 3. bottleneck justification — a flow below its demand traverses at
//!    least one link that is saturated *in the flow's direction* and on
//!    which the flow's rate is maximal among same-direction flows (the
//!    textbook characterization of the max–min allocation).
//!
//! Note what is deliberately *not* asserted: removing a flow does not
//! monotonically help the others — in a parking-lot topology, freeing an
//! upstream link lets a long flow grab more of a downstream link, hurting
//! the short flow there. The removal property that does hold is that the
//! invariants above are re-established after every change.

use horse_net::addr::Ipv4Prefix;
use horse_net::flow::{FiveTuple, FlowId, FlowSpec};
use horse_net::fluid::{Dirty, FluidNetwork};
use horse_net::fluid_naive::NaiveFluidNetwork;
use horse_net::topology::{LinkId, NodeId, Topology};
use horse_sim::SimTime;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const G: f64 = 1e9;
const TOL: f64 = 1e6; // 1 Mbps tolerance on 1 Gbps links

/// Differential tolerance: the incremental and the full solver run the
/// same water-filling arithmetic, so they must agree far tighter than the
/// fairness tolerance — 1 kbps on 1 Gbps links.
const DIFF_TOL: f64 = 1e3;

fn scenario() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..6).prop_flat_map(|n| {
        let flows = prop::collection::vec(
            (0..n, 0..n, 0.05f64..1.5).prop_filter("distinct endpoints", |(a, b, _)| a != b),
            1..12,
        );
        (Just(n), flows)
    })
}

fn build_chain(n: usize) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let sn: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
    let switches: Vec<NodeId> = (0..n)
        .map(|i| t.add_switch(format!("s{i}"), Ipv4Addr::new(10, 255, 0, i as u8 + 1)))
        .collect();
    for w in switches.windows(2) {
        t.add_link(w[0], w[1], G, 0);
    }
    let hosts: Vec<NodeId> = (0..n)
        .map(|i| {
            let h = t.add_host(format!("h{i}"), Ipv4Addr::new(10, 0, i as u8, 1), sn);
            t.add_link(h, switches[i], G, 0);
            h
        })
        .collect();
    (t, hosts)
}

fn chain_path(t: &Topology, hosts: &[NodeId], a: usize, b: usize) -> Vec<LinkId> {
    t.all_shortest_paths(hosts[a], hosts[b])
        .into_iter()
        .next()
        .expect("chain is connected")
}

/// The direction (`true` = a→b) in which `flow` traverses `lid`, if at all.
fn dir_of(net: &FluidNetwork, topo: &Topology, flow: FlowId, lid: LinkId) -> Option<bool> {
    let spec = net.spec(flow)?;
    let path = net.path(flow)?;
    let mut cur = spec.src;
    for l in path {
        let link = topo.link(*l);
        let forward = link.a.node == cur;
        if *l == lid {
            return Some(forward);
        }
        cur = link.other(cur);
    }
    None
}

/// Checks the three max–min invariants for the current allocation.
fn assert_invariants(
    net: &FluidNetwork,
    topo: &Topology,
    demands: &[(FlowId, f64)],
) -> Result<(), TestCaseError> {
    // (2) demand caps.
    for (id, demand) in demands {
        if net.rate_of(*id).is_none() {
            continue; // stopped
        }
        let r = net.rate_of(*id).unwrap();
        prop_assert!(r >= -TOL, "negative rate {r}");
        prop_assert!(r <= demand + TOL, "rate {r} > demand {demand}");
    }
    // (1) feasibility.
    for lid in topo.link_ids() {
        let (fwd, rev) = net.link_load(lid);
        let cap = topo.link(lid).capacity_bps;
        prop_assert!(fwd <= cap + TOL, "link {lid} fwd {fwd} > {cap}");
        prop_assert!(rev <= cap + TOL, "link {lid} rev {rev} > {cap}");
    }
    // (3) bottleneck justification, same-direction only.
    for (id, demand) in demands {
        let Some(r) = net.rate_of(*id) else { continue };
        if r >= demand - TOL {
            continue;
        }
        let path = net.path(*id).unwrap().to_vec();
        let mut justified = false;
        for lid in path {
            let my_dir = dir_of(net, topo, *id, lid).expect("on own path");
            let (fwd, rev) = net.link_load(lid);
            let load = if my_dir { fwd } else { rev };
            let cap = topo.link(lid).capacity_bps;
            if load < cap - TOL {
                continue; // not saturated in my direction
            }
            let max_same_dir = net
                .flows_on_link(lid)
                .into_iter()
                .filter(|(f, _)| dir_of(net, topo, *f, lid) == Some(my_dir))
                .map(|(_, rate)| rate)
                .fold(0.0f64, f64::max);
            if r >= max_same_dir - TOL {
                justified = true;
                break;
            }
        }
        prop_assert!(
            justified,
            "flow {id} at {r} below demand {demand} without bottleneck"
        );
    }
    Ok(())
}

fn start_all(
    net: &mut FluidNetwork,
    topo: &Topology,
    hosts: &[NodeId],
    flows: &[(usize, usize, f64)],
) -> Vec<(FlowId, f64)> {
    flows
        .iter()
        .enumerate()
        .map(|(i, (a, b, demand))| {
            let tuple = FiveTuple::udp(
                Ipv4Addr::new(10, 0, *a as u8, 1),
                1000 + i as u16,
                Ipv4Addr::new(10, 0, *b as u8, 1),
                2000,
            );
            let spec = FlowSpec::cbr(hosts[*a], hosts[*b], tuple, demand * G);
            let path = chain_path(topo, hosts, *a, *b);
            let (id, _) = net.start(SimTime::ZERO, spec, path, topo).unwrap();
            (id, demand * G)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn max_min_invariants((n, flows) in scenario()) {
        let (topo, hosts) = build_chain(n);
        let mut net = FluidNetwork::new();
        let demands = start_all(&mut net, &topo, &hosts, &flows);
        assert_invariants(&net, &topo, &demands)?;
    }

    /// The invariants are re-established after every removal, in any order.
    #[test]
    fn invariants_survive_removals(
        (n, flows) in scenario(),
        stop_order in prop::collection::vec(0usize..12, 0..12),
    ) {
        let (topo, hosts) = build_chain(n);
        let mut net = FluidNetwork::new();
        let demands = start_all(&mut net, &topo, &hosts, &flows);
        let mut t = 1u64;
        for s in stop_order {
            if let Some((id, _)) = demands.get(s) {
                if net.rate_of(*id).is_some() {
                    net.stop(SimTime::from_millis(t), *id, &topo).unwrap();
                    t += 1;
                    assert_invariants(&net, &topo, &demands)?;
                }
            }
        }
    }

    /// Differential: after any churn sequence of flow starts (batched),
    /// stops, and link failures/repairs handled *incrementally*, a full
    /// from-scratch solve must agree on every rate. This is the oracle
    /// check for the scoped solver: its component-local water-fill must be
    /// a fixed point of the global one.
    #[test]
    fn incremental_matches_full_solver_under_churn(
        (n, flows) in scenario(),
        ops in prop::collection::vec((0usize..3, 0usize..32), 1..16),
    ) {
        let (mut topo, hosts) = build_chain(n);
        let mut net = FluidNetwork::new();
        let mut demands = start_all(&mut net, &topo, &hosts, &flows);
        let links: Vec<LinkId> = topo.link_ids().collect();
        let mut t = 1u64;
        for (op, pick) in ops {
            let now = SimTime::from_millis(t);
            t += 1;
            match op {
                // Stop one of the flows started so far.
                0 => {
                    let (id, _) = demands[pick % demands.len()];
                    if net.rate_of(id).is_some() {
                        net.stop(now, id, &topo).unwrap();
                    }
                }
                // Fail or repair a link; only the touched component is
                // re-solved.
                1 => {
                    let lid = links[pick % links.len()];
                    let up = !topo.link(lid).up;
                    topo.link_mut(lid).up = up;
                    net.advance(now);
                    net.recompute_incremental(&topo, &[Dirty::Link(lid)]);
                }
                // Start a small burst of fresh flows, deferred into one
                // scoped solve (the runner's control-burst pattern).
                _ => {
                    for i in 0..(pick % 3) + 1 {
                        let a = (pick + i) % hosts.len();
                        let b = (pick + i + 1) % hosts.len();
                        let tuple = FiveTuple::udp(
                            Ipv4Addr::new(10, 0, a as u8, 1),
                            5000 + t as u16 * 8 + i as u16,
                            Ipv4Addr::new(10, 0, b as u8, 1),
                            2000,
                        );
                        let demand = (0.1 + 0.2 * i as f64) * G;
                        let spec = FlowSpec::cbr(hosts[a], hosts[b], tuple, demand);
                        // A failed link may disconnect the pair; hosts
                        // simply can't start such flows.
                        let Some(path) = topo
                            .all_shortest_paths(hosts[a], hosts[b])
                            .into_iter()
                            .next()
                        else {
                            continue;
                        };
                        let id = net.start_deferred(now, spec, path, &topo).unwrap();
                        demands.push((id, demand));
                    }
                    net.flush(&topo);
                }
            }
            // Oracle: a full solve from the incremental solution must not
            // move any rate.
            let residual = net.recompute(&topo);
            for ch in &residual {
                prop_assert!(
                    (ch.new_bps - ch.old_bps).abs() < DIFF_TOL,
                    "flow {} diverged: incremental {} vs full {}",
                    ch.flow, ch.old_bps, ch.new_bps
                );
            }
            // And the allocation must still be max–min fair (links that
            // are down carry zero-rate flows, which invariant (3) skips
            // via the demand-cap guard only if rate 0 is justified — a
            // down link is saturated at capacity 0 in both directions).
            if topo.link_ids().all(|l| topo.link(l).up) {
                assert_invariants(&net, &topo, &demands)?;
            }
        }
    }

    /// Byte accounting: advancing time in arbitrary increments accrues
    /// exactly rate × time (for a stable single flow).
    #[test]
    fn byte_accounting_is_exact(steps in prop::collection::vec(1u64..1_000, 1..20)) {
        let (topo, hosts) = build_chain(2);
        let mut net = FluidNetwork::new();
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 1, 1), 2,
        );
        let spec = FlowSpec::cbr(hosts[0], hosts[1], tuple, 0.25 * G);
        let path = chain_path(&topo, &hosts, 0, 1);
        let (id, _) = net.start(SimTime::ZERO, spec, path, &topo).unwrap();
        let mut now_ms = 0u64;
        for s in &steps {
            now_ms += s;
            net.advance(SimTime::from_millis(now_ms));
        }
        let expect = 0.25 * G / 8.0 * (now_ms as f64 / 1e3);
        let got = net.progress(id).unwrap().bytes_sent;
        prop_assert!((got - expect).abs() < 1.0, "{got} vs {expect}");
    }
}

// ---------------------------------------------------------------------------
// Arena vs oracle differential properties
//
// `FluidNetwork` is the arena-backed fast path; `NaiveFluidNetwork` is the
// pre-refactor solver preserved verbatim as an oracle. The two must agree on
// every externally visible quantity under arbitrary churn — including the
// quantities the fast path derives lazily (bytes) or caches (completions).
// ---------------------------------------------------------------------------

/// Nanosecond slack between the oracle's eagerly-computed completion times
/// and the fast path's heap predictions (both are `rate × remaining` float
/// arithmetic folded at different instants).
const COMPLETION_TOL_NS: u64 = 2_000;

/// Two spine switches give every host pair two disjoint two-hop shortest
/// paths, so reroutes are meaningful and the flow-sharing graph genuinely
/// splits (all-via-x vs all-via-y) and merges as flows move between spines.
fn build_dual_spine(n: usize) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let sn: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
    let x = t.add_switch("x", Ipv4Addr::new(10, 255, 0, 1));
    let y = t.add_switch("y", Ipv4Addr::new(10, 255, 0, 2));
    let hosts: Vec<NodeId> = (0..n)
        .map(|i| {
            let h = t.add_host(format!("h{i}"), Ipv4Addr::new(10, 0, i as u8, 1), sn);
            t.add_link(h, x, G, 0);
            t.add_link(h, y, G, 0);
            h
        })
        .collect();
    (t, hosts)
}

/// Asserts that the fast path and the oracle agree on the full externally
/// visible state: per-flow liveness, rates, accrued bytes, and the next
/// predicted completion.
fn assert_nets_agree(
    fast: &mut FluidNetwork,
    naive: &mut NaiveFluidNetwork,
    started: &[FlowId],
) -> Result<(), TestCaseError> {
    for id in started {
        let (fr, nr) = (fast.rate_of(*id), naive.rate_of(*id));
        prop_assert_eq!(fr.is_some(), nr.is_some(), "liveness of {} diverged", id);
        let (Some(fr), Some(nr)) = (fr, nr) else {
            continue;
        };
        prop_assert!(
            (fr - nr).abs() < DIFF_TOL,
            "flow {} rate: arena {} vs oracle {}",
            id,
            fr,
            nr
        );
        let fb = fast.progress(*id).unwrap().bytes_sent;
        let nb = naive.progress(*id).unwrap().bytes_sent;
        prop_assert!(
            (fb - nb).abs() < 16.0,
            "flow {} bytes: arena {} vs oracle {}",
            id,
            fb,
            nb
        );
    }
    let (fc, nc) = (fast.next_completion(), naive.next_completion());
    match (fc, nc) {
        (None, None) => {}
        (Some((ft, _)), Some((nt, _))) => {
            // Times must agree; on a near-tie the two shapes may order the
            // tied flows differently, which the drain loop tolerates.
            prop_assert!(
                ft.as_nanos().abs_diff(nt.as_nanos()) <= COMPLETION_TOL_NS,
                "next completion: arena {:?} vs oracle {:?}",
                ft,
                nt
            );
        }
        (f, n) => prop_assert!(false, "completion presence diverged: {:?} vs {:?}", f, n),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: an identical op script of starts (bounded and
    /// unbounded), stops, reroutes between spines, and link flaps must
    /// leave the arena solver and the preserved naive oracle in agreement
    /// after every op, and the two must then drain the same completion
    /// schedule.
    #[test]
    fn oracle_and_arena_agree_under_churn(
        n in 3usize..6,
        ops in prop::collection::vec((0usize..4, 0usize..64), 1..48),
    ) {
        let (mut topo, hosts) = build_dual_spine(n);
        let links: Vec<LinkId> = topo.link_ids().collect();
        let mut fast = FluidNetwork::new();
        let mut naive = NaiveFluidNetwork::new();
        let mut started: Vec<FlowId> = Vec::new();
        let mut endpoints: Vec<(usize, usize)> = Vec::new();
        let mut t = 1u64;
        for (op, pick) in ops {
            let now = SimTime::from_millis(t);
            t += 1;
            match op {
                // Stop a flow (in both nets) if it is still active.
                0 if !started.is_empty() => {
                    let id = started[pick % started.len()];
                    if fast.rate_of(id).is_some() {
                        fast.stop(now, id, &topo).unwrap();
                        naive.stop(now, id, &topo).unwrap();
                    }
                }
                // Flap a link: both nets see the same dirty seed. This is
                // what splits a spine's component into per-host fragments.
                1 => {
                    let lid = links[pick % links.len()];
                    topo.link_mut(lid).up = !topo.link(lid).up;
                    fast.advance(now);
                    naive.advance(now);
                    fast.recompute_incremental(&topo, &[Dirty::Link(lid)]);
                    naive.recompute_incremental(&topo, &[Dirty::Link(lid)]);
                }
                // Reroute an active flow onto its other spine path.
                2 if !started.is_empty() => {
                    let i = pick % started.len();
                    let id = started[i];
                    if fast.rate_of(id).is_some() {
                        let (a, b) = endpoints[i];
                        let paths = topo.all_shortest_paths(hosts[a], hosts[b]);
                        if !paths.is_empty() {
                            let path = paths[pick % paths.len()].clone();
                            fast.reroute(now, id, path.clone(), &topo).unwrap();
                            naive.reroute(now, id, path, &topo).unwrap();
                        }
                    }
                }
                // Start a deferred burst of flows, bounded and unbounded
                // mixed, on a pick-chosen spine path; flush once.
                _ => {
                    for i in 0..(pick % 3) + 1 {
                        let a = (pick + i) % hosts.len();
                        let b = (pick + i + 1) % hosts.len();
                        let tuple = FiveTuple::udp(
                            Ipv4Addr::new(10, 0, a as u8, 1),
                            5000 + t as u16 * 8 + i as u16,
                            Ipv4Addr::new(10, 0, b as u8, 1),
                            2000,
                        );
                        let demand = (0.1 + 0.2 * i as f64) * G;
                        let spec = if pick % 2 == 0 {
                            FlowSpec::cbr(hosts[a], hosts[b], tuple, demand)
                        } else {
                            let size = 50_000 + 37_000 * (pick as u64 + i as u64);
                            FlowSpec::transfer(hosts[a], hosts[b], tuple, demand, size)
                        };
                        let paths = topo.all_shortest_paths(hosts[a], hosts[b]);
                        let Some(path) = paths.get(pick % paths.len().max(1)).cloned()
                        else {
                            continue;
                        };
                        let fid = fast
                            .start_deferred(now, spec, path.clone(), &topo)
                            .unwrap();
                        let nid = naive.start_deferred(now, spec, path, &topo).unwrap();
                        prop_assert_eq!(fid, nid, "id assignment diverged");
                        started.push(fid);
                        endpoints.push((a, b));
                    }
                    fast.flush(&topo);
                    naive.flush(&topo);
                }
            }
            // Retire completions due by `now` in lockstep, as the runner's
            // completion events would. Stopping the flow in *both* nets
            // whenever either reports it due keeps them aligned even when
            // a completion instant straddles `now` by a rounding hair.
            // (An op that turned out to be a no-op left the byte counts at
            // the previous instant; bring them to `now` first.)
            fast.advance(now);
            naive.advance(now);
            let mut guard = 0u32;
            loop {
                guard += 1;
                prop_assert!(guard < 10_000, "completion retirement did not converge");
                let due = match fast.next_completion() {
                    Some((ct, cf)) if ct <= now => Some(cf),
                    _ => match naive.next_completion() {
                        Some((ct, cf)) if ct <= now => Some(cf),
                        _ => None,
                    },
                };
                let Some(cf) = due else { break };
                for rem in [
                    fast.progress(cf).unwrap().bytes_remaining,
                    naive.progress(cf).unwrap().bytes_remaining,
                ] {
                    prop_assert!(
                        rem.expect("due flows are bounded") < 1_000.0,
                        "flow {} retired with {:?} bytes left", cf, rem
                    );
                }
                fast.stop(now, cf, &topo).unwrap();
                naive.stop(now, cf, &topo).unwrap();
            }
            assert_nets_agree(&mut fast, &mut naive, &started)?;
        }
        // Drain each net to quiescence independently (the runner's loop:
        // advance to the predicted instant, stop once actually complete —
        // a prediction may round a nanosecond early, in which case the
        // next query re-predicts just past the watermark). The two nets
        // must retire the same flows at the same times.
        macro_rules! drain {
            ($net:expr) => {{
                let mut done: Vec<(u64, u64)> = Vec::new();
                let mut wm = SimTime::from_millis(t);
                let mut guard = 0u32;
                while let Some((ct, cf)) = $net.next_completion() {
                    guard += 1;
                    prop_assert!(guard < 100_000, "drain did not converge");
                    wm = wm.max(ct);
                    $net.advance(wm);
                    if $net.is_complete(cf) {
                        $net.stop(wm, cf, &topo).unwrap();
                        done.push((cf.0, ct.as_nanos()));
                    }
                }
                done.sort_unstable();
                done
            }};
        }
        let fast_done = drain!(fast);
        let naive_done = drain!(naive);
        let fast_ids: Vec<u64> = fast_done.iter().map(|(id, _)| *id).collect();
        let naive_ids: Vec<u64> = naive_done.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(&fast_ids, &naive_ids, "completed flow sets diverged");
        for ((id, ft), (_, nt)) in fast_done.iter().zip(&naive_done) {
            prop_assert!(
                ft.abs_diff(*nt) <= COMPLETION_TOL_NS,
                "flow {} finished at {}ns (arena) vs {}ns (oracle)", id, ft, nt
            );
        }
    }

    /// Completion-heap staleness: whatever churn has pushed stale entries
    /// into the heap, every `next_completion` answer must be *current* —
    /// an active flow whose predicted finish equals the brute-force
    /// minimum over all active bounded flows (with the `(time, FlowId)`
    /// tie-break), never a stopped or unbounded flow.
    #[test]
    fn completion_heap_pops_are_current_or_stale(
        ops in prop::collection::vec((0usize..3, 0usize..64), 1..24),
    ) {
        let (topo, hosts) = build_chain(3);
        let mut net = FluidNetwork::new();
        let mut started: Vec<FlowId> = Vec::new();
        let mut t = 1u64;
        for (op, pick) in ops {
            let now = SimTime::from_millis(t);
            t += 1;
            match op {
                // Start a bounded transfer (rate changes re-predict every
                // sharing flow, pushing fresh heap entries over stale ones).
                0 => {
                    let a = pick % hosts.len();
                    let b = (pick + 1 + pick % (hosts.len() - 1)) % hosts.len();
                    let tuple = FiveTuple::udp(
                        Ipv4Addr::new(10, 0, a as u8, 1),
                        7000 + t as u16,
                        Ipv4Addr::new(10, 0, b as u8, 1),
                        2000,
                    );
                    let demand = (0.2 + 0.1 * (pick % 5) as f64) * G;
                    let size = 40_000 + 29_000 * pick as u64;
                    let spec = FlowSpec::transfer(hosts[a], hosts[b], tuple, demand, size);
                    let path = chain_path(&topo, &hosts, a, b);
                    let (id, _) = net.start(now, spec, path, &topo).unwrap();
                    started.push(id);
                }
                // Stop a flow: its heap entries go stale and must never be
                // served.
                1 if !started.is_empty() => {
                    let id = started[pick % started.len()];
                    if net.rate_of(id).is_some() {
                        net.stop(now, id, &topo).unwrap();
                    }
                }
                // Advance the watermark without touching rates.
                _ => {
                    t += pick as u64;
                    net.advance(SimTime::from_millis(t));
                }
            }
            net.advance(SimTime::from_millis(t));
            let wm = SimTime::from_millis(t);
            // Contract: an answer at or before the watermark means the flow
            // is genuinely complete (the heap re-predicts rounding tails
            // internally before answering). Retire such flows as the
            // runner's completion events would.
            let mut guard = 0u32;
            while let Some((ct, cf)) = net.next_completion() {
                if ct > wm {
                    break;
                }
                guard += 1;
                prop_assert!(guard < 10_000, "retirement did not converge");
                prop_assert!(
                    net.is_complete(cf),
                    "served {} at {:?} though incomplete", cf, ct
                );
                net.stop(wm, cf, &topo).unwrap();
            }
            // Brute-force reference from public state only: min
            // (finish time, FlowId) over active bounded in-progress flows
            // at positive rate — what the oracle's full scan computes.
            let ids: Vec<FlowId> = net.flow_ids().collect();
            let mut best: Option<(u64, u64)> = None;
            for id in ids {
                let p = net.progress(id).unwrap();
                let Some(rem) = p.bytes_remaining else { continue };
                if rem <= 0.0 || p.rate_bps <= 1e-6 {
                    continue; // retired above / stalled: never finishes
                }
                let dt_ns = (((rem * 8.0 / p.rate_bps) * 1e9).ceil() as u64).max(1);
                let cand = (wm.as_nanos() + dt_ns, id.0);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            match (net.next_completion(), best) {
                (None, None) => {}
                (Some((gt, gf)), Some((bt, _))) => {
                    // The served flow must be live and bounded…
                    prop_assert!(net.rate_of(gf).is_some(), "served stopped flow {}", gf);
                    let gp = net.progress(gf).unwrap();
                    prop_assert!(gp.bytes_remaining.is_some(), "served unbounded flow");
                    // …its time must match the brute-force minimum…
                    prop_assert!(
                        gt.as_nanos().abs_diff(bt) <= COMPLETION_TOL_NS,
                        "served {:?}, brute minimum {}ns", gt, bt
                    );
                    // …and the served flow's own finish must itself be
                    // minimal (tie-break slack aside) — a stale heap entry
                    // for a re-rated flow must never be passed through.
                    let rem = gp.bytes_remaining.unwrap();
                    let own = wm.as_nanos()
                        + (((rem * 8.0 / gp.rate_bps) * 1e9).ceil() as u64).max(1);
                    prop_assert!(
                        own.abs_diff(bt) <= COMPLETION_TOL_NS,
                        "served flow finishes at {}ns, minimum is {}ns", own, bt
                    );
                }
                (got, brute) => prop_assert!(
                    false,
                    "completion presence: heap {:?} vs brute {:?}", got, brute
                ),
            }
        }
    }

    /// Lazy accrual is a pure function of the watermark: advancing in k
    /// steps, advancing once, and re-reading at the same instant all
    /// derive bit-identical byte counts, and a settle (forced by a rate
    /// change) at the same instant preserves the derived value exactly.
    #[test]
    fn lazy_accrual_is_idempotent(steps in prop::collection::vec(1u64..500, 1..16)) {
        let (topo, hosts) = build_chain(2);
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(10, 0, 1, 1), 2,
        );
        let spec = FlowSpec::cbr(hosts[0], hosts[1], tuple, 0.25 * G);
        let path = chain_path(&topo, &hosts, 0, 1);

        // Net A advances in k steps; net B jumps straight to the end.
        let mut stepped = FluidNetwork::new();
        let mut jumped = FluidNetwork::new();
        let (id, _) = stepped.start(SimTime::ZERO, spec, path.clone(), &topo).unwrap();
        let (jid, _) = jumped.start(SimTime::ZERO, spec, path.clone(), &topo).unwrap();
        prop_assert_eq!(id, jid);
        let mut now_ms = 0u64;
        for s in &steps {
            now_ms += s;
            stepped.advance(SimTime::from_millis(now_ms));
        }
        jumped.advance(SimTime::from_millis(now_ms));
        let a = stepped.progress(id).unwrap().bytes_sent;
        let b = jumped.progress(id).unwrap().bytes_sent;
        prop_assert_eq!(a.to_bits(), b.to_bits(), "k-step {} vs one-shot {}", a, b);

        // Re-reading at the same instant changes nothing.
        stepped.advance(SimTime::from_millis(now_ms));
        let again = stepped.progress(id).unwrap().bytes_sent;
        prop_assert_eq!(a.to_bits(), again.to_bits());

        // A rate change settles the flow (folds derived bytes into the
        // base); the settle must not move the derived value.
        let rival_tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1), 3, Ipv4Addr::new(10, 0, 1, 1), 4,
        );
        let rival = FlowSpec::cbr(hosts[0], hosts[1], rival_tuple, G);
        let now = SimTime::from_millis(now_ms);
        stepped.start(now, rival, path, &topo).unwrap();
        let settled = stepped.progress(id).unwrap().bytes_sent;
        prop_assert_eq!(a.to_bits(), settled.to_bits(), "settle moved bytes: {} -> {}", a, settled);
    }
}

/// Regression: failing and repairing a link must return every flow to its
/// pre-failure rate — the incremental solver may not leave stale state
/// (memberships, frozen rates) behind from the failure interval.
#[test]
fn link_down_then_up_restores_all_rates() {
    let (mut topo, hosts) = build_chain(4);
    let mut net = FluidNetwork::new();
    // Three flows sharing the chain's spine in the same direction, one
    // counter-flow: an asymmetric allocation worth restoring exactly.
    let flows = [(0, 3, 1.5), (1, 3, 0.2), (2, 3, 1.5), (3, 0, 0.7)];
    let demands = start_all(&mut net, &topo, &hosts, &flows);
    let before: Vec<Option<f64>> = demands.iter().map(|(id, _)| net.rate_of(*id)).collect();

    // Fail the link between the last two switches — it carries every flow.
    let spine = topo
        .link_ids()
        .find(|l| {
            let link = topo.link(*l);
            link.a.node == NodeId(2) && link.b.node == NodeId(3)
        })
        .expect("chain spine link");
    topo.link_mut(spine).up = false;
    net.advance(SimTime::from_millis(1));
    net.recompute_incremental(&topo, &[Dirty::Link(spine)]);
    for (id, _) in &demands {
        assert_eq!(net.rate_of(*id), Some(0.0), "all flows cross the cut");
    }

    topo.link_mut(spine).up = true;
    net.advance(SimTime::from_millis(2));
    net.recompute_incremental(&topo, &[Dirty::Link(spine)]);
    for ((id, _), old) in demands.iter().zip(&before) {
        let now = net.rate_of(*id).expect("still active");
        let old = old.expect("was active");
        assert!(
            (now - old).abs() < DIFF_TOL,
            "flow {id}: {old} before failure, {now} after repair"
        );
    }
}
