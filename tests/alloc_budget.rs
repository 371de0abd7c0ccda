//! Allocation budgets on the BGP table path.
//!
//! Wall time is asserted only by the benchmark; heap traffic can be
//! asserted here, because an allocation count is a pure function of the
//! run. A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc`; each scenario divides what its thread
//! allocated by the work it did and holds the ratio to a committed budget.
//! Each budget has a debug and a release value, each at most 10 % above
//! that build's reading: the debug build also runs the library's debug
//! self-checks (each sent UPDATE is decoded again), which allocate, and
//! one number for both would leave the release build a third of slack. A
//! change that adds an allocation per route or per message fails here
//! before it shows up as wall time.
//!
//! Run with `cargo test --release --test alloc_budget -- --nocapture` to
//! see the readings.

use horse::bgp::session::TimerConfig;
use horse::bgp::speaker::{BgpSpeaker, Output};
use horse::bgp::AttrPool;
use horse::net::intern::PrefixPool;
use horse::net::topology::NodeId;
use horse::sim::{SimDuration, SimTime};
use horse::topo::fattree::{FatTree, SwitchRole};
use horse::topo::{bgp_setups_with_networks, pop_wan, spread_originations, wan_timers};
use horse::{ControlBuild, Experiment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Heap allocations per FIB write over a whole PoP-WAN table experiment:
/// build, convergence, report. Readings: 0.4675 debug, 0.4339 release.
const ALLOCS_PER_FIB_WRITE: f64 = if cfg!(debug_assertions) { 0.50 } else { 0.46 };

/// Heap allocations per received UPDATE inside the speakers of a k=4
/// fat-tree converging: receive, decide, export, send and the route-change
/// drain. Readings: 14.77 debug, 10.77 release.
const ALLOCS_PER_RX_UPDATE: f64 = if cfg!(debug_assertions) { 15.9 } else { 11.5 };

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that take memory on the calling
/// thread.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` with a `const` initializer, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn assert_within(name: &str, per: f64, budget: f64) {
    eprintln!("{name}: {per:.4} (budget {budget})");
    assert!(
        per <= budget,
        "{name}: {per:.4} allocations, over the budget of {budget}"
    );
}

#[test]
fn table_experiment_allocations_per_fib_write() {
    let (topo, _cores, leaves) = pop_wan(4, 3, 1e9);
    let setups =
        bgp_setups_with_networks(&topo, wan_timers(), &spread_originations(&leaves, 2_000));
    let mut e = Experiment::new(topo).horizon_secs(5.0);
    e.control = ControlBuild::Bgp(setups);
    let (report, allocs) = allocs_in(|| e.run());
    assert!(report.table_writes > 0, "no route was installed");
    let per = allocs as f64 / report.table_writes as f64;
    assert_within("allocations per FIB write", per, ALLOCS_PER_FIB_WRITE);
}

/// Walks the BGP messages of one delivered buffer and counts the UPDATEs
/// (type 2; the length sits at bytes 16–17 of each 19-byte header).
fn updates_in(mut bytes: &[u8]) -> u64 {
    let mut n = 0;
    while bytes.len() >= 19 {
        let len = usize::from(u16::from_be_bytes([bytes[16], bytes[17]]));
        n += u64::from(bytes[18] == 2);
        bytes = &bytes[len.max(19).min(bytes.len())..];
    }
    n
}

#[test]
fn fat_tree_convergence_allocations_per_received_update() {
    let ft = FatTree::build(4, SwitchRole::BgpRouter, 1e9, 1_000);
    let timers = TimerConfig {
        hold_time: SimDuration::from_secs(9),
        connect_retry: SimDuration::from_secs(1),
        mrai: SimDuration::ZERO,
    };
    let setups = ft.bgp_setups(timers);
    // The control plane's shape: both pools shared, prefixes seeded in
    // value order.
    let attr_pool = AttrPool::new();
    let prefix_pool = PrefixPool::seeded(
        setups
            .values()
            .flat_map(|s| s.config.networks.iter().copied()),
    );
    let mut owner: BTreeMap<Ipv4Addr, NodeId> = BTreeMap::new();
    let mut local_of: BTreeMap<(NodeId, Ipv4Addr), Ipv4Addr> = BTreeMap::new();
    let mut speakers: BTreeMap<NodeId, BgpSpeaker> = BTreeMap::new();
    for (node, setup) in &setups {
        for p in &setup.config.peers {
            owner.insert(p.local_addr, *node);
            local_of.insert((*node, p.peer_addr), p.local_addr);
        }
        let s = BgpSpeaker::new_with_pools(
            setup.config.clone(),
            attr_pool.clone(),
            prefix_pool.clone(),
        );
        speakers.insert(*node, s);
    }

    // One hop of virtual time per round; bytes sent in a round arrive in
    // the next. Only the speakers' own calls are counted.
    let hop = SimDuration::from_millis(1);
    let horizon = SimTime::from_secs(3);
    let mut now = SimTime::ZERO;
    let mut allocs = 0u64;
    let mut updates = 0u64;
    let mut sent = Vec::new();
    let mut in_flight: Vec<(NodeId, Ipv4Addr, Vec<u8>)> = Vec::new();
    let mut ready: BTreeSet<NodeId> = speakers.keys().copied().collect();
    for s in speakers.values_mut() {
        let peers: Vec<Ipv4Addr> = s.config.peers.iter().map(|p| p.peer_addr).collect();
        allocs += allocs_in(|| {
            s.start(now);
            for p in peers {
                s.on_transport_up(p, now);
            }
        })
        .1;
    }
    let mut deadline: BTreeMap<NodeId, SimTime> = BTreeMap::new();
    while now <= horizon {
        let mut inbox: BTreeMap<NodeId, Vec<(Ipv4Addr, Vec<u8>)>> = BTreeMap::new();
        for (dst, from, bytes) in in_flight.drain(..) {
            updates += updates_in(&bytes);
            ready.insert(dst);
            inbox.entry(dst).or_default().push((from, bytes));
        }
        ready.extend(deadline.iter().filter(|(_, d)| **d <= now).map(|(n, _)| *n));
        for node in std::mem::take(&mut ready) {
            let s = speakers.get_mut(&node).expect("ready node is a speaker");
            let msgs = inbox.remove(&node).unwrap_or_default();
            sent.clear();
            allocs += allocs_in(|| {
                for (from, bytes) in &msgs {
                    s.on_bytes(*from, now, bytes);
                }
                s.poll_timers(now);
                s.drain_outputs(|o| {
                    if let Output::SendBytes { peer, bytes } = o {
                        sent.push((peer, bytes));
                    }
                });
            })
            .1;
            for (peer, bytes) in sent.drain(..) {
                in_flight.push((owner[&peer], local_of[&(node, peer)], bytes.to_vec()));
            }
            match s.next_deadline() {
                Some(d) => deadline.insert(node, d),
                None => deadline.remove(&node),
            };
        }
        now = if in_flight.is_empty() {
            match deadline.values().min() {
                Some(d) => (*d).max(now + hop),
                None => break,
            }
        } else {
            now + hop
        };
    }
    assert!(
        speakers.values().all(BgpSpeaker::fully_converged_sessions),
        "the fat-tree did not converge"
    );
    assert!(updates > 0, "no UPDATE was received");
    let per = allocs as f64 / updates as f64;
    assert_within("allocations per received UPDATE", per, ALLOCS_PER_RX_UPDATE);
}
