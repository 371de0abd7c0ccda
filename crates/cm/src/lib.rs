//! # horse-cm — the Connection Manager
//!
//! "The Connection Manager (CM) is the bridge between the emulation and
//! simulation. The CM has visibility to control plane packets and is
//! responsible for sending events that trigger a change to the FTI mode."
//! (Horse, §2.)
//!
//! Concretely, this crate provides the three bridge mechanisms:
//!
//! * [`ActivityProbe`] — a shared, thread-safe counter bumped by every
//!   control-plane byte transfer. The hybrid runner polls it each step;
//!   any movement promotes (or keeps) the experiment clock in FTI mode.
//! * [`pipe`] / [`PipeEndpoint`] — tapped duplex byte streams connecting
//!   emulated control-plane endpoints (BGP speaker ↔ BGP speaker, switch
//!   agent ↔ controller). Every send bumps the probe, giving the CM its
//!   "visibility to control plane packets". Endpoints are cloneable and
//!   thread-safe so daemons can run on real OS threads in emulation mode,
//!   or be drained inline in deterministic virtual mode.
//! * [`FibInstaller`] — translates routing-protocol next hops (peer link
//!   addresses) into simulated output ports and installs them in the data
//!   plane ("When the routers add routes to their RIB, Horse installs
//!   those routes in the respective data planes").

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use horse_dataplane::fib::{EntryId, Fib, NextHop, RouteEntry, RouteOrigin};
use horse_dataplane::path::DataPlane;
use horse_net::addr::Ipv4Prefix;
use horse_net::topology::{NodeId, PortId};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared control-activity counter.
///
/// Clones observe the same underlying counter. The runner keeps a local
/// snapshot and asks [`ActivityProbe::changed_since`] once per engine step.
#[derive(Debug, Clone, Default)]
pub struct ActivityProbe {
    counter: Arc<AtomicU64>,
}

impl ActivityProbe {
    /// A fresh probe at zero.
    pub fn new() -> ActivityProbe {
        ActivityProbe::default()
    }

    /// Records one unit of control-plane activity.
    pub fn bump(&self) {
        self.counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn snapshot(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// True if activity occurred since `last`; updates `last`.
    pub fn changed_since(&self, last: &mut u64) -> bool {
        let now = self.snapshot();
        let changed = now != *last;
        *last = now;
        changed
    }
}

/// One end of a tapped duplex byte pipe.
#[derive(Debug, Clone)]
pub struct PipeEndpoint {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    probe: ActivityProbe,
    sent: Arc<AtomicU64>,
}

impl PipeEndpoint {
    /// Sends bytes to the other end, bumping the activity probe on
    /// successful delivery.
    pub fn send(&self, bytes: Bytes) {
        let len = bytes.len() as u64;
        // The peer endpoint may have been dropped (experiment teardown);
        // losing bytes then is correct — but lost bytes are not control
        // activity and must not hold the clock in FTI.
        if self.tx.send(bytes).is_ok() {
            self.probe.bump();
            self.sent.fetch_add(len, Ordering::Relaxed);
        }
    }

    /// Non-blocking receive of one chunk.
    pub fn try_recv(&self) -> Option<Bytes> {
        self.rx.try_recv().ok()
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Ok(b) = self.rx.try_recv() {
            out.push(b);
        }
        out
    }

    /// Blocking receive with a wall-clock timeout (emulation mode threads).
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Bytes> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Total bytes sent from this endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// Creates a tapped duplex pipe; both endpoints bump `probe` on send.
pub fn pipe(probe: &ActivityProbe) -> (PipeEndpoint, PipeEndpoint) {
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    (
        PipeEndpoint {
            tx: atx,
            rx: brx,
            probe: probe.clone(),
            sent: Arc::new(AtomicU64::new(0)),
        },
        PipeEndpoint {
            tx: btx,
            rx: arx,
            probe: probe.clone(),
            sent: Arc::new(AtomicU64::new(0)),
        },
    )
}

/// Translates control-plane next hops into data-plane FIB entries.
#[derive(Debug, Clone, Default)]
pub struct FibInstaller {
    addr_to_port: BTreeMap<NodeId, BTreeMap<Ipv4Addr, PortId>>,
    /// Buffers of the hop set a [`NodeInstaller`] is holding (reused).
    scratch_gateways: Vec<Ipv4Addr>,
    scratch_hops: Vec<NextHop>,
}

/// One router's FIB and neighbor map, resolved once by
/// [`FibInstaller::for_node`], plus the last next-hop set translated: a
/// daemon that moves a burst of prefixes onto the same next hops pays the
/// address → port look-ups, the sort and the intern once per burst.
#[derive(Debug)]
pub struct NodeInstaller<'a> {
    fib: &'a mut Fib,
    ports: Option<&'a BTreeMap<Ipv4Addr, PortId>>,
    /// The next-hop set translated last (empty when the drain begins: no
    /// hops, no entry).
    gateways: &'a mut Vec<Ipv4Addr>,
    hops: &'a mut Vec<NextHop>,
    /// What `gateways` became: an entry of the node's FIB, with one
    /// reference held until the next translation or the end of the drain —
    /// or `None` when no hop had a known port, and the prefix is removed.
    entry: Option<EntryId>,
}

impl NodeInstaller<'_> {
    /// Applies a route change: installs the (multipath) route, or removes
    /// the prefix when `next_hops` is empty. Next hops with no known port
    /// (e.g. a neighbor on a link that was never registered) are skipped;
    /// if none remain, the prefix is removed. Returns true if the FIB
    /// changed — a redundant re-announcement of the installed route is a
    /// no-op and allocates nothing.
    pub fn apply(&mut self, prefix: Ipv4Prefix, next_hops: &[Ipv4Addr]) -> bool {
        if self.gateways != next_hops {
            self.translate(next_hops);
        }
        match self.entry {
            Some(id) => self.fib.install(prefix, id),
            None => self.fib.remove(prefix).is_some(),
        }
    }

    fn translate(&mut self, next_hops: &[Ipv4Addr]) {
        self.forget();
        self.gateways.clear();
        self.gateways.extend_from_slice(next_hops);
        self.hops.clear();
        if let Some(ports) = self.ports {
            self.hops.extend(next_hops.iter().filter_map(|gw| {
                ports.get(gw).map(|port| NextHop {
                    port: *port,
                    gateway: *gw,
                })
            }));
        }
        if !self.hops.is_empty() {
            // `RouteEntry::new` sorts and dedups; the buffer comes back
            // below, so a burst allocates only for a hop set new to the FIB.
            let entry = RouteEntry::new(std::mem::take(self.hops), RouteOrigin::Bgp);
            self.entry = Some(self.fib.intern(&entry));
            *self.hops = entry.next_hops;
        }
    }

    /// Gives back the reference held on the last translated entry.
    fn forget(&mut self) {
        if let Some(id) = self.entry.take() {
            self.fib.release(id);
        }
    }
}

impl Drop for NodeInstaller<'_> {
    fn drop(&mut self) {
        self.forget();
    }
}

impl FibInstaller {
    /// An empty installer.
    pub fn new() -> FibInstaller {
        FibInstaller::default()
    }

    /// Registers a router's neighbor-address → port map.
    pub fn register(&mut self, node: NodeId, map: BTreeMap<Ipv4Addr, PortId>) {
        self.addr_to_port.insert(node, map);
    }

    /// Resolves `node`'s FIB and neighbor map once, for applying a batch of
    /// route changes from one drain of its routing daemon. `None` when the
    /// node is not a router.
    pub fn for_node<'a>(
        &'a mut self,
        dp: &'a mut DataPlane,
        node: NodeId,
    ) -> Option<NodeInstaller<'a>> {
        self.scratch_gateways.clear();
        Some(NodeInstaller {
            fib: dp.fib_mut(node)?,
            ports: self.addr_to_port.get(&node),
            gateways: &mut self.scratch_gateways,
            hops: &mut self.scratch_hops,
            entry: None,
        })
    }

    /// Applies one route change reported by `node`'s routing daemon — see
    /// [`NodeInstaller::apply`]. Callers with several changes from the same
    /// node should hold a [`FibInstaller::for_node`] instead.
    pub fn apply(
        &mut self,
        dp: &mut DataPlane,
        node: NodeId,
        prefix: Ipv4Prefix,
        next_hops: &[Ipv4Addr],
    ) -> bool {
        self.for_node(dp, node)
            .is_some_and(|mut n| n.apply(prefix, next_hops))
    }

    /// Installs a connected route (host-facing subnet) on a router.
    /// Returns true if the FIB changed.
    pub fn install_connected(
        &mut self,
        dp: &mut DataPlane,
        node: NodeId,
        prefix: Ipv4Prefix,
        port: PortId,
    ) -> bool {
        let Some(fib) = dp.fib_mut(node) else {
            return false;
        };
        let hop = NextHop {
            port,
            gateway: Ipv4Addr::UNSPECIFIED,
        };
        let id = fib.intern(&RouteEntry::new(vec![hop], RouteOrigin::Connected));
        let changed = fib.install(prefix, id);
        fib.release(id);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_dataplane::hash::HashMode;

    #[test]
    fn probe_counts_and_detects_changes() {
        let p = ActivityProbe::new();
        let mut last = 0;
        assert!(!p.changed_since(&mut last));
        p.bump();
        assert!(p.changed_since(&mut last));
        assert!(!p.changed_since(&mut last));
        assert_eq!(p.snapshot(), 1);
    }

    #[test]
    fn probe_shared_across_clones_and_threads() {
        let p = ActivityProbe::new();
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                p2.bump();
            }
        });
        h.join().unwrap();
        assert_eq!(p.snapshot(), 1000);
    }

    #[test]
    fn pipe_moves_bytes_and_bumps_probe() {
        let probe = ActivityProbe::new();
        let (a, b) = pipe(&probe);
        a.send(Bytes::from_static(b"hello"));
        assert_eq!(probe.snapshot(), 1);
        assert_eq!(b.try_recv().unwrap(), Bytes::from_static(b"hello"));
        assert!(b.try_recv().is_none());
        b.send(Bytes::from_static(b"world"));
        assert_eq!(a.drain(), vec![Bytes::from_static(b"world")]);
        assert_eq!(probe.snapshot(), 2);
        assert_eq!(a.bytes_sent(), 5);
    }

    #[test]
    fn pipe_works_across_threads() {
        let probe = ActivityProbe::new();
        let (a, b) = pipe(&probe);
        let h = std::thread::spawn(move || {
            for i in 0..100u8 {
                b.send(Bytes::from(vec![i]));
            }
        });
        h.join().unwrap();
        let got = a.drain();
        assert_eq!(got.len(), 100);
        assert_eq!(got[99][0], 99);
    }

    #[test]
    fn send_to_dropped_peer_does_not_panic_or_count_as_activity() {
        let probe = ActivityProbe::new();
        let (a, b) = pipe(&probe);
        drop(b);
        a.send(Bytes::from_static(b"into the void"));
        assert_eq!(probe.snapshot(), 0, "lost bytes are not control activity");
        assert_eq!(a.bytes_sent(), 0);
    }

    #[test]
    fn installer_translates_and_installs() {
        let mut topo = horse_net::topology::Topology::new();
        let r = topo.add_router("r", Ipv4Addr::new(1, 1, 1, 1));
        let s = topo.add_router("s", Ipv4Addr::new(2, 2, 2, 2));
        let (_, r_port, _) = topo.add_link(r, s, 1e9, 0);
        let mut dp = DataPlane::new();
        dp.add_router(r, HashMode::SrcDst);
        let mut inst = FibInstaller::new();
        let gw = Ipv4Addr::new(172, 16, 0, 2);
        inst.register(r, BTreeMap::from([(gw, r_port)]));
        let prefix: Ipv4Prefix = "10.9.0.0/16".parse().unwrap();
        assert!(inst.apply(&mut dp, r, prefix, &[gw]));
        let (_, entry) = dp
            .fib(r)
            .unwrap()
            .lookup(Ipv4Addr::new(10, 9, 1, 1))
            .unwrap();
        assert_eq!(entry.next_hops[0].port, r_port);
        // Idempotent re-install reports no change.
        assert!(!inst.apply(&mut dp, r, prefix, &[gw]));
        // Withdrawal.
        assert!(inst.apply(&mut dp, r, prefix, &[]));
        assert!(dp
            .fib(r)
            .unwrap()
            .lookup(Ipv4Addr::new(10, 9, 1, 1))
            .is_none());
        // A redundant withdrawal is no change either.
        assert!(!inst.apply(&mut dp, r, prefix, &[]));
    }

    #[test]
    fn node_installer_applies_a_batch_and_replaces_other_origins() {
        let mut dp = DataPlane::new();
        let r = NodeId(0);
        dp.add_router(r, HashMode::SrcDst);
        let mut inst = FibInstaller::new();
        let (gw1, gw2) = (Ipv4Addr::new(172, 16, 0, 2), Ipv4Addr::new(172, 16, 0, 6));
        inst.register(r, BTreeMap::from([(gw1, PortId(1)), (gw2, PortId(2))]));
        let p1: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let p2: Ipv4Prefix = "10.2.0.0/16".parse().unwrap();
        // A connected route through the very port BGP will pick: same hops,
        // other origin — BGP's install must still replace it.
        let connected = NextHop {
            port: PortId(1),
            gateway: gw1,
        };
        dp.fib_mut(r)
            .unwrap()
            .insert(p2, RouteEntry::new(vec![connected], RouteOrigin::Connected));
        {
            let mut routes = inst.for_node(&mut dp, r).expect("a router");
            // Unsorted, duplicated input lands in canonical form.
            assert!(routes.apply(p1, &[gw2, gw1, gw2]));
            assert!(!routes.apply(p1, &[gw1, gw2]), "same set, no change");
            assert!(routes.apply(p2, &[gw1]), "origin moved to BGP");
            assert!(!routes.apply(p2, &[gw1]));
        }
        let fib = dp.fib(r).unwrap();
        let ports: Vec<PortId> = fib
            .get(p1)
            .unwrap()
            .next_hops
            .iter()
            .map(|h| h.port)
            .collect();
        assert_eq!(ports, vec![PortId(1), PortId(2)]);
        assert_eq!(fib.get(p2).unwrap().origin, RouteOrigin::Bgp);
        assert!(inst.for_node(&mut dp, NodeId(9)).is_none(), "not a router");
    }

    #[test]
    fn a_drain_holds_its_last_hop_set_and_lets_go_when_it_ends() {
        let mut dp = DataPlane::new();
        let r = NodeId(0);
        dp.add_router(r, HashMode::SrcDst);
        let mut inst = FibInstaller::new();
        let (gw1, gw2) = (Ipv4Addr::new(172, 16, 0, 2), Ipv4Addr::new(172, 16, 0, 6));
        inst.register(r, BTreeMap::from([(gw1, PortId(1)), (gw2, PortId(2))]));
        let prefixes: Vec<Ipv4Prefix> = (0..50u8)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::new(10, i, 0, 0), 16))
            .collect();
        {
            let mut routes = inst.for_node(&mut dp, r).expect("a router");
            for p in &prefixes {
                assert!(routes.apply(*p, &[gw1]));
            }
            // The burst moves on: every prefix leaves the first hop set,
            // whose entry goes with the last of them.
            for p in &prefixes {
                assert!(routes.apply(*p, &[gw2]));
                assert!(!routes.apply(*p, &[gw2]));
            }
            // An unusable hop set in between withdraws and holds nothing.
            assert!(routes.apply(prefixes[0], &[Ipv4Addr::new(9, 9, 9, 9)]));
            assert!(routes.apply(prefixes[0], &[gw2]));
        }
        let fib = dp.fib(r).unwrap();
        assert_eq!(fib.len(), 50);
        assert_eq!(fib.interned_entries(), 1);
        assert_eq!(fib.get(prefixes[7]).unwrap().next_hops[0].port, PortId(2));
        // Withdrawing everything frees the entry: the drain above kept no
        // reference of its own.
        for p in &prefixes {
            assert!(inst.apply(&mut dp, r, *p, &[]));
        }
        assert_eq!(dp.fib(r).unwrap().interned_entries(), 0);
    }

    #[test]
    fn connected_routes_report_changes_only() {
        let mut dp = DataPlane::new();
        let r = NodeId(0);
        dp.add_router(r, HashMode::SrcDst);
        let mut inst = FibInstaller::new();
        let prefix: Ipv4Prefix = "10.1.0.0/24".parse().unwrap();
        assert!(inst.install_connected(&mut dp, r, prefix, PortId(3)));
        // Re-installing the identical connected route is a no-op.
        assert!(!inst.install_connected(&mut dp, r, prefix, PortId(3)));
        // Moving it to a different port is a mutation.
        assert!(inst.install_connected(&mut dp, r, prefix, PortId(4)));
        assert_eq!(dp.fib(r).unwrap().interned_entries(), 1, "old entry freed");
    }

    #[test]
    fn unknown_next_hop_removes_route() {
        let mut dp = DataPlane::new();
        let r = NodeId(0);
        dp.add_router(r, HashMode::SrcDst);
        let mut inst = FibInstaller::new();
        inst.register(r, BTreeMap::new());
        let prefix: Ipv4Prefix = "10.9.0.0/16".parse().unwrap();
        // Pre-install something, then apply with an unresolvable hop.
        inst.install_connected(&mut dp, r, prefix, PortId(0));
        assert!(dp
            .fib(r)
            .unwrap()
            .lookup(Ipv4Addr::new(10, 9, 0, 1))
            .is_some());
        inst.apply(&mut dp, r, prefix, &[Ipv4Addr::new(9, 9, 9, 9)]);
        assert!(
            dp.fib(r)
                .unwrap()
                .lookup(Ipv4Addr::new(10, 9, 0, 1))
                .is_none(),
            "unresolvable hops remove the prefix"
        );
    }

    #[test]
    fn installer_ignores_non_routers() {
        let mut dp = DataPlane::new();
        dp.add_host(NodeId(0));
        let mut inst = FibInstaller::new();
        assert!(!inst.apply(
            &mut dp,
            NodeId(0),
            "10.0.0.0/8".parse().unwrap(),
            &[Ipv4Addr::new(1, 1, 1, 1)]
        ));
    }
}
