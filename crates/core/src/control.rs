//! Control-plane adapters: the Connection Manager's runtime side.
//!
//! The runner is control-plane-agnostic; it owns a [`ControlPlane`] and
//! calls [`ControlPlane::pump`] once per engine step. A pump delivers the
//! bytes queued on the previous step (so each message hop costs one FTI
//! increment of virtual time — the same latency granularity the paper's
//! CM provides), polls protocol timers, applies control decisions to the
//! simulated data plane, and reports whether any control activity happened
//! — the signal that holds the experiment clock in FTI mode.
//!
//! ## Readiness-driven scheduling
//!
//! A pump step costs O(nodes with something to do), not O(all nodes). The
//! CM keeps, per control plane:
//!
//! * a **dirty set** of nodes that received bytes this step, emitted
//!   events since the last drain, or saw a transport/link change;
//! * a [`TimerWheel`] indexing one deadline per node — a BGP speaker's
//!   earliest protocol timer (re-registered whenever the speaker reports
//!   its deadline moved), or a switch flow table's earliest idle/hard
//!   expiry (re-registered whenever the table or its `last_hit` state
//!   changes).
//!
//! Only dirty or fired nodes get `poll_timers` / `take_outputs` /
//! `take_events`; untouched nodes cannot hold queued work, because every
//! path that gives a node work also marks it dirty. `next_deadline()` is
//! the wheel's O(1) minimum instead of a linear scan. The legacy
//! poll-everyone behavior survives as [`PumpMode::FullPoll`] — a debug
//! mode whose observable semantics are identical (same deliveries, same
//! sweep instants, same outputs) and whose only difference is cost, which
//! [`PumpStats`] makes visible.

use horse_bgp::rib::{AttrPool, RibStats};
use horse_bgp::speaker::{BgpSpeaker, SpeakerOutput};
use horse_cm::FibInstaller;
use horse_controller::{EcmpApp, HederaApp};
use horse_dataplane::flowtable::{FlowEntry as DpFlowEntry, FlowKey};
use horse_dataplane::path::DataPlane;
use horse_net::flow::FiveTuple;
use horse_net::fluid::FluidNetwork;
use horse_net::intern::PrefixPool;
use horse_net::topology::{NodeId, PortId, Topology};
use horse_openflow::agent::{AgentEvent, SwitchAgent};
use horse_openflow::controller::{Controller, ControllerApp, ControllerEvent};
use horse_openflow::wire::{FlowMod, FlowModCommand, FlowStatsEntry, OfAction, PortDesc};
use horse_sim::{SimTime, TimerWheel};
use horse_topo::fattree::BgpNodeSetup;
use horse_trace::{Component, ComponentLog, PumpReason, TraceData, TraceOptions, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::time::Instant;

/// MTU used to derive packet estimates from fluid byte counts (the fluid
/// model moves bits, not packets; OF counters want both).
const MTU_BYTES: u64 = 1_500;

/// What one pump step did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpOutcome {
    /// Any control-plane message moved or state changed (→ FTI).
    pub activity: bool,
}

/// How the Connection Manager schedules per-node pump work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PumpMode {
    /// Touch only nodes with something to do (dirty set + timer wheel).
    #[default]
    Readiness,
    /// Touch every node every step (the legacy behavior; observably
    /// identical, kept as the differential-testing and costing baseline).
    FullPoll,
}

/// Pump cost counters, wired into `ExperimentReport` so the scheduling
/// win is observable. "Work" is `nodes_touched + table_scans`: speaker
/// polls / agent drains plus full flow-table walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Pump steps executed.
    pub steps: u64,
    /// Cumulative emulated nodes across steps (`n × steps`): what a
    /// polled pump would have touched.
    pub nodes_total: u64,
    /// Nodes actually polled/drained.
    pub nodes_touched: u64,
    /// Full flow-table walks (timeout checks and expiry sweeps).
    pub table_scans: u64,
}

impl PumpStats {
    /// Total per-node pump work performed.
    pub fn work(&self) -> u64 {
        self.nodes_touched + self.table_scans
    }
}

/// The SDN application running on the controller.
pub enum SdnApp {
    /// Reactive 5-tuple ECMP.
    Ecmp(EcmpApp),
    /// Hedera flow scheduling.
    Hedera(HederaApp),
}

impl SdnApp {
    fn as_dyn(&mut self) -> &mut dyn ControllerApp {
        match self {
            SdnApp::Ecmp(a) => a,
            SdnApp::Hedera(a) => a,
        }
    }

    /// Flows placed so far (both apps track this).
    pub fn placed(&self) -> usize {
        match self {
            SdnApp::Ecmp(a) => a.placed.len(),
            SdnApp::Hedera(a) => a.placement().len(),
        }
    }

    /// Hedera scheduling moves (0 for plain ECMP).
    pub fn moves(&self) -> u64 {
        match self {
            SdnApp::Ecmp(_) => 0,
            SdnApp::Hedera(a) => a.moves,
        }
    }
}

/// The experiment's control plane.
pub enum ControlPlane {
    /// No control plane: forwarding state is static (installed by hand).
    None,
    /// One emulated BGP daemon per router.
    Bgp(Box<BgpControl>),
    /// An OpenFlow controller plus one switch agent per switch.
    Sdn(Box<SdnControl>),
}

impl ControlPlane {
    /// Selects the pump scheduling mode (before [`ControlPlane::start`]).
    pub fn set_pump_mode(&mut self, mode: PumpMode) {
        match self {
            ControlPlane::None => {}
            ControlPlane::Bgp(b) => b.mode = mode,
            ControlPlane::Sdn(s) => s.mode = mode,
        }
    }

    /// Installs ring-buffer tracers on the pump and every instrumented
    /// sub-component (speakers, the OpenFlow controller). `epoch` is the
    /// run's shared wall-clock origin.
    pub fn set_tracers(&mut self, opts: &TraceOptions, epoch: Instant) {
        if !opts.enabled {
            return;
        }
        match self {
            ControlPlane::None => {}
            ControlPlane::Bgp(b) => {
                b.tracer = Tracer::ring(Component::Pump, opts.capacity, epoch);
                for (node, s) in &mut b.speakers {
                    s.set_tracer(Tracer::ring(Component::Bgp(node.0), opts.capacity, epoch));
                }
            }
            ControlPlane::Sdn(s) => {
                s.tracer = Tracer::ring(Component::Pump, opts.capacity, epoch);
                s.controller.set_tracer(Tracer::ring(
                    Component::OfController,
                    opts.capacity,
                    epoch,
                ));
            }
        }
    }

    /// Drains every component's trace buffer (empty when tracing is off).
    pub fn take_trace_logs(&mut self) -> Vec<ComponentLog> {
        let mut logs = Vec::new();
        match self {
            ControlPlane::None => {}
            ControlPlane::Bgp(b) => {
                logs.extend(b.tracer.take_log());
                for s in b.speakers.values_mut() {
                    logs.extend(s.take_trace_log());
                }
            }
            ControlPlane::Sdn(s) => {
                logs.extend(s.tracer.take_log());
                logs.extend(s.controller.take_trace_log());
            }
        }
        logs
    }

    /// Pump cost counters accumulated so far.
    pub fn pump_stats(&self) -> PumpStats {
        match self {
            ControlPlane::None => PumpStats::default(),
            ControlPlane::Bgp(b) => b.stats,
            ControlPlane::Sdn(s) => s.stats,
        }
    }

    /// RIB work counters summed over all BGP speakers (zero for non-BGP
    /// control planes).
    pub fn rib_stats(&self) -> RibStats {
        match self {
            ControlPlane::Bgp(b) => b.rib_stats(),
            ControlPlane::None | ControlPlane::Sdn(_) => RibStats::default(),
        }
    }

    /// Memory-shape counters `(prefix_ids, peer_ids, attr_entries,
    /// attr_bytes_est)` — zero for non-BGP control planes.
    pub fn mem_stats(&self) -> (u64, u64, u64, u64) {
        match self {
            ControlPlane::Bgp(b) => b.mem_stats(),
            ControlPlane::None | ControlPlane::Sdn(_) => (0, 0, 0, 0),
        }
    }

    /// Starts daemons/handshakes at time `now`.
    pub fn start(&mut self, now: SimTime, dp: &mut DataPlane) {
        match self {
            ControlPlane::None => {}
            ControlPlane::Bgp(b) => b.start(now, dp),
            ControlPlane::Sdn(s) => s.start(now),
        }
    }

    /// One engine step of control-plane work.
    pub fn pump(&mut self, now: SimTime, dp: &mut DataPlane, fluid: &FluidNetwork) -> PumpOutcome {
        match self {
            ControlPlane::None => PumpOutcome::default(),
            ControlPlane::Bgp(b) => b.pump(now, dp),
            ControlPlane::Sdn(s) => s.pump(now, dp, fluid),
        }
    }

    /// The nodes whose forwarding state (FIB or flow table) the last
    /// [`ControlPlane::pump`] wrote — empty when it wrote none. Flows whose
    /// path crosses none of them resolve exactly as before.
    pub fn take_changed(&mut self) -> Vec<NodeId> {
        match self {
            ControlPlane::None => Vec::new(),
            ControlPlane::Bgp(b) => std::mem::take(&mut b.changed),
            ControlPlane::Sdn(s) => std::mem::take(&mut s.changed),
        }
    }

    /// Earliest pending control-plane timer (keepalives, Hedera polls,
    /// flow-rule expiries) — the DES clock must not jump past it.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self {
            ControlPlane::None => None,
            ControlPlane::Bgp(b) => b.next_deadline(),
            ControlPlane::Sdn(s) => s.next_deadline(),
        }
    }

    /// True while messages are queued for delivery or nodes hold undrained
    /// work (the step must stay "busy" even if the event queue is empty).
    pub fn has_pending(&self) -> bool {
        match self {
            ControlPlane::None => false,
            ControlPlane::Bgp(b) => !b.in_flight.is_empty() || !b.dirty.is_empty(),
            ControlPlane::Sdn(s) => {
                !s.to_agents.is_empty() || !s.to_controller.is_empty() || !s.dirty.is_empty()
            }
        }
    }

    /// Total control messages exchanged (for reports).
    pub fn msgs_total(&self) -> u64 {
        match self {
            ControlPlane::None => 0,
            ControlPlane::Bgp(b) => b.speakers.values().map(|s| s.msgs_sent()).sum(),
            ControlPlane::Sdn(s) => {
                s.controller.msgs_sent
                    + s.controller.msgs_received
                    + s.agents.values().map(|a| a.msgs_sent).sum::<u64>()
            }
        }
    }

    /// The SDN app, when present (for report details).
    pub fn sdn_app(&self) -> Option<&SdnApp> {
        match self {
            ControlPlane::Sdn(s) => Some(&s.app),
            _ => None,
        }
    }

    /// True when every BGP session is Established (always true otherwise).
    pub fn sessions_converged(&self) -> bool {
        match self {
            ControlPlane::Bgp(b) => b.speakers.values().all(|s| s.fully_converged_sessions()),
            _ => true,
        }
    }

    /// A link changed state. BGP sessions riding the link see their
    /// transport drop (down) or come back (up) and reconverge; OpenFlow
    /// switches report PORT_STATUS to the controller, whose apps re-place
    /// affected flows over the surviving paths.
    pub fn on_link_change(
        &mut self,
        link: horse_net::topology::LinkId,
        up: bool,
        topo: &Topology,
        now: SimTime,
    ) {
        match self {
            ControlPlane::Bgp(b) => b.on_link_change(link, up, topo, now),
            ControlPlane::Sdn(s) => s.on_link_change(link, up, topo, now),
            ControlPlane::None => {}
        }
    }

    /// A fluid flow stopped or completed. The CM credits the rules the
    /// flow was using with traffic up to this instant (`last_hit = now`),
    /// so idle expiry counts from when the traffic actually ceased — the
    /// event-driven replacement for re-walking every table every step.
    pub fn on_flow_retired(
        &mut self,
        tuple: &FiveTuple,
        nodes: &[NodeId],
        now: SimTime,
        dp: &mut DataPlane,
    ) {
        if let ControlPlane::Sdn(s) = self {
            s.on_flow_retired(tuple, nodes, now, dp);
        }
    }
}

/// The BGP control plane: one speaker per router, wired over the CM.
pub struct BgpControl {
    /// Speakers by router node.
    pub speakers: BTreeMap<NodeId, BgpSpeaker>,
    /// `(node, its local addr)` → node on the other end of that session.
    route_of_addr: BTreeMap<(NodeId, Ipv4Addr), NodeId>,
    /// `(node, peer addr)` → our local addr on that session — precomputed
    /// so queueing a message is a map hit, not a peer-list scan.
    local_addr_of: BTreeMap<(NodeId, Ipv4Addr), Ipv4Addr>,
    /// `(node, peer addr)` → the link that session rides (failure scoping).
    link_of_session: BTreeMap<(NodeId, Ipv4Addr), horse_net::topology::LinkId>,
    installer: FibInstaller,
    connected: Vec<(NodeId, horse_net::addr::Ipv4Prefix, PortId)>,
    /// Messages awaiting delivery next step: (dst node, from-addr, bytes).
    in_flight: Vec<(NodeId, Ipv4Addr, bytes::Bytes)>,
    /// Nodes woken outside the pump (start, transport/link events).
    dirty: BTreeSet<NodeId>,
    /// Earliest protocol deadline per speaker.
    wheel: TimerWheel<NodeId>,
    mode: PumpMode,
    /// Pump cost counters.
    pub stats: PumpStats,
    /// BGP route changes that altered a FIB (the report's `table_writes`).
    pub installs: u64,
    /// Routers whose FIB the last pump changed, ascending.
    changed: Vec<NodeId>,
    /// Structured trace sink for pump-level events (per-node pump reasons,
    /// link changes).
    tracer: Tracer,
    /// The run-wide shared attribute pool every speaker interns into —
    /// each distinct attribute set is stored once per run, not once per
    /// speaker.
    attr_pool: AttrPool,
    /// The run-wide shared prefix-id table, seeded serially from every
    /// node's configured networks before the first pump: each prefix is
    /// interned once per run (not once per speaker), and round-time
    /// lookups are read-lock hits with ids fixed at seed time.
    prefix_pool: PrefixPool,
}

/// One ready speaker's drained round result: its outputs in emission
/// order, plus `Some(new)` when its earliest deadline moved (`None` inner
/// = no deadline left).
type DrainedNode = (NodeId, Vec<SpeakerOutput>, Option<Option<SimTime>>);

/// Delivers, polls and drains one ready speaker: step 2 of
/// [`BgpControl::pump`] for one node.
fn drain_one(
    node: NodeId,
    s: &mut BgpSpeaker,
    msgs: Vec<(Ipv4Addr, bytes::Bytes)>,
    now: SimTime,
) -> DrainedNode {
    for (from_addr, bytes) in msgs {
        s.on_bytes(from_addr, now, &bytes);
    }
    s.poll_timers(now);
    let outputs = s.take_outputs();
    let deadline = s.take_deadline_dirty().then(|| s.next_deadline());
    (node, outputs, deadline)
}

impl BgpControl {
    /// Builds from per-router setups (e.g. [`horse_topo::FatTree::bgp_setups`]).
    pub fn new(topo: &Topology, setups: BTreeMap<NodeId, BgpNodeSetup>) -> BgpControl {
        let mut speakers = BTreeMap::new();
        let mut route_of_addr = BTreeMap::new();
        let mut local_addr_of = BTreeMap::new();
        let mut link_of_session = BTreeMap::new();
        let mut installer = FibInstaller::new();
        let mut connected = Vec::new();
        let attr_pool = AttrPool::new();
        let prefix_pool = PrefixPool::new();
        // Seed the shared prefix table in deterministic node order before
        // any speaker exists. Every prefix a run can announce comes from
        // some node's configured networks, so round-time interns are
        // read-lock hits on ids fixed here, and every id is a function of
        // the run's setups alone.
        for setup in setups.values() {
            for pfx in &setup.config.networks {
                prefix_pool.intern(*pfx);
            }
        }
        for (node, setup) in &setups {
            installer.register(*node, setup.addr_to_port.clone());
            for (pfx, port) in &setup.connected {
                connected.push((*node, *pfx, *port));
            }
            // peer_addr → port → link → other node; the *peer's* local addr
            // is our peer_addr, so sending to peer_addr means delivering to
            // that node.
            for peer in &setup.config.peers {
                let port = setup.addr_to_port[&peer.peer_addr];
                let lid = topo.link_at(*node, port).expect("peer port wired");
                let other = topo.link(lid).other(*node);
                route_of_addr.insert((*node, peer.peer_addr), other);
                local_addr_of.insert((*node, peer.peer_addr), peer.local_addr);
                link_of_session.insert((*node, peer.peer_addr), lid);
            }
            speakers.insert(
                *node,
                BgpSpeaker::new_with_pools(
                    setup.config.clone(),
                    attr_pool.clone(),
                    prefix_pool.clone(),
                ),
            );
        }
        BgpControl {
            speakers,
            route_of_addr,
            local_addr_of,
            link_of_session,
            installer,
            connected,
            in_flight: Vec::new(),
            dirty: BTreeSet::new(),
            wheel: TimerWheel::new(),
            mode: PumpMode::default(),
            stats: PumpStats::default(),
            installs: 0,
            changed: Vec::new(),
            tracer: Tracer::default(),
            attr_pool,
            prefix_pool,
        }
    }

    /// RIB + export-cache work counters summed over every speaker. Sharers
    /// report `attr_store_size = 0`; the pool's table is counted here once.
    pub fn rib_stats(&self) -> RibStats {
        let mut out = RibStats::default();
        for s in self.speakers.values() {
            out.merge(&s.rib_stats());
        }
        out.attr_store_size += self.attr_pool.len() as u64;
        out
    }

    /// Memory-shape figures for the report: summed interner sizes across
    /// speakers plus the shared pool's entry count and byte estimate.
    pub fn mem_stats(&self) -> (u64, u64, u64, u64) {
        // Speakers share the prefix pool and report 0 for it; count the
        // pool's table here exactly once.
        let mut prefix_ids = self.prefix_pool.len() as u64;
        let mut peer_ids = 0u64;
        for s in self.speakers.values() {
            let (p, n) = s.rib().interner_sizes();
            prefix_ids += p as u64;
            peer_ids += n as u64;
        }
        (
            prefix_ids,
            peer_ids,
            self.attr_pool.len() as u64,
            self.attr_pool.bytes_estimate(),
        )
    }

    fn start(&mut self, now: SimTime, dp: &mut DataPlane) {
        // Connected (host-facing) routes exist before BGP does.
        for (node, pfx, port) in &self.connected {
            self.installer.install_connected(dp, *node, *pfx, *port);
        }
        for s in self.speakers.values_mut() {
            s.start(now);
        }
        // The CM wires all transports immediately (the harness "dials").
        let nodes: Vec<NodeId> = self.speakers.keys().copied().collect();
        for node in nodes {
            let peers: Vec<Ipv4Addr> = self.speakers[&node]
                .config
                .peers
                .iter()
                .map(|p| p.peer_addr)
                .collect();
            for p in peers {
                self.speakers
                    .get_mut(&node)
                    .expect("known node")
                    .on_transport_up(p, now);
            }
        }
        // Every speaker has startup output queued: register its deadline
        // and put it on the ready list for the first pump.
        for (node, s) in &mut self.speakers {
            let _ = s.take_deadline_dirty();
            if let Some(d) = s.next_deadline() {
                self.wheel.schedule(*node, d);
            }
            self.dirty.insert(*node);
        }
    }

    fn pump(&mut self, now: SimTime, dp: &mut DataPlane) -> PumpOutcome {
        self.stats.steps += 1;
        self.stats.nodes_total += self.speakers.len() as u64;
        self.changed.clear();
        // Most steps of a quiet network touch no node: nothing was woken,
        // nothing is in flight and no deadline has been reached.
        if self.mode == PumpMode::Readiness
            && self.dirty.is_empty()
            && self.in_flight.is_empty()
            && self.wheel.next_deadline().is_none_or(|d| d > now)
        {
            return PumpOutcome::default();
        }
        let mut out = PumpOutcome::default();
        // 1. Ready set: last step's message destinations, fired deadlines,
        // and nodes woken by transport/link events.
        let mut ready = std::mem::take(&mut self.dirty);
        if self.tracer.enabled() {
            for node in &ready {
                self.tracer.record(
                    now,
                    TraceData::PumpNode {
                        node: node.0,
                        reason: PumpReason::LinkEvent,
                    },
                );
            }
        }
        let deliveries = std::mem::take(&mut self.in_flight);
        if !deliveries.is_empty() {
            out.activity = true;
        }
        let mut by_dst: BTreeMap<NodeId, Vec<(Ipv4Addr, bytes::Bytes)>> = BTreeMap::new();
        for (dst, from_addr, bytes) in deliveries {
            ready.insert(dst);
            by_dst.entry(dst).or_default().push((from_addr, bytes));
        }
        if self.tracer.enabled() {
            for node in by_dst.keys() {
                self.tracer.record(
                    now,
                    TraceData::PumpNode {
                        node: node.0,
                        reason: PumpReason::Delivery,
                    },
                );
            }
        }
        for (node, _) in self.wheel.advance(now) {
            self.tracer.record(
                now,
                TraceData::PumpNode {
                    node: node.0,
                    reason: PumpReason::Deadline,
                },
            );
            ready.insert(node);
        }
        if self.mode == PumpMode::FullPoll {
            ready.extend(self.speakers.keys().copied());
        }
        // 2. Deliver, poll and drain only the ready speakers, and 3. merge
        // each drained node in ascending `NodeId` order. A clean speaker
        // cannot hold queued outputs or a moved deadline: both only change
        // when the speaker is touched, and every touch marks it ready.
        //
        // Each node is merged as soon as it is drained, so one node's
        // outputs are alive at a time — not every ready node's at once. A
        // drain reads none of what a merge writes (this step's deliveries
        // were taken above), so this order gives the same bytes as
        // draining everything first.
        for node in &ready {
            let Some(s) = self.speakers.get_mut(node) else {
                continue;
            };
            let msgs = by_dst.remove(node).unwrap_or_default();
            let drained = drain_one(*node, s, msgs, now);
            self.merge_drained(dp, drained, &mut out);
        }
        out
    }

    /// Step 3 of [`BgpControl::pump`] for one drained node: re-register its
    /// deadline, queue its bytes for next step and apply its route changes
    /// now.
    fn merge_drained(&mut self, dp: &mut DataPlane, drained: DrainedNode, out: &mut PumpOutcome) {
        let (node, outputs, deadline) = drained;
        self.stats.nodes_touched += 1;
        if let Some(moved) = deadline {
            match moved {
                Some(d) => self.wheel.schedule(node, d),
                None => {
                    self.wheel.cancel(node);
                }
            }
        }
        // The node's FIB and neighbor map, resolved once for however many
        // routes this drain changed.
        let mut routes = self.installer.for_node(dp, node);
        let installs_before = self.installs;
        for o in outputs {
            match o {
                SpeakerOutput::SendBytes { peer, bytes } => {
                    out.activity = true;
                    // `peer` is the remote's address on this session; our
                    // local address on it is what the remote knows us by.
                    let from = self.local_addr_of[&(node, peer)];
                    if let Some(dst) = self.route_of_addr.get(&(node, peer)) {
                        self.in_flight.push((*dst, from, bytes));
                    }
                }
                SpeakerOutput::RouteChanged { prefix, next_hops } => {
                    out.activity = true;
                    if routes.as_mut().is_some_and(|r| r.apply(prefix, &next_hops)) {
                        self.installs += 1;
                    }
                }
                SpeakerOutput::SessionUp { .. } | SpeakerOutput::SessionDown { .. } => {
                    out.activity = true;
                }
            }
        }
        if self.installs != installs_before {
            self.changed.push(node);
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        match self.mode {
            // O(1): the wheel's per-level occupancy bitmaps.
            PumpMode::Readiness => self.wheel.next_deadline(),
            // Legacy cost on purpose: scan every speaker. Same value as
            // the wheel — the wheel re-indexes on every touch.
            PumpMode::FullPoll => self
                .speakers
                .values()
                .filter_map(|s| s.next_deadline())
                .min(),
        }
    }

    /// Drops (or restores) the transports of every session riding `link`.
    fn on_link_change(
        &mut self,
        link: horse_net::topology::LinkId,
        up: bool,
        topo: &Topology,
        now: SimTime,
    ) {
        self.tracer
            .record(now, TraceData::LinkChange { link: link.0, up });
        let l = topo.link(link);
        for node in [l.a.node, l.b.node] {
            let Some(speaker) = self.speakers.get(&node) else {
                continue;
            };
            // Only the session(s) riding exactly this link are affected —
            // parallel links between the same routers carry independent
            // sessions.
            let peers: Vec<Ipv4Addr> = speaker
                .config
                .peers
                .iter()
                .map(|p| p.peer_addr)
                .filter(|pa| self.link_of_session.get(&(node, *pa)) == Some(&link))
                .collect();
            let speaker = self.speakers.get_mut(&node).expect("checked");
            for peer in peers {
                if up {
                    speaker.on_transport_up(peer, now);
                } else {
                    speaker.on_transport_down(peer, now);
                }
            }
            let _ = speaker.take_deadline_dirty();
            match speaker.next_deadline() {
                Some(d) => self.wheel.schedule(node, d),
                None => {
                    self.wheel.cancel(node);
                }
            }
            self.dirty.insert(node);
        }
        if !up {
            // In-flight messages on the dead link are lost. The receiver of
            // a queued `(dst, from, _)` keys that session by the sender's
            // address `from`, so the session's link is
            // `link_of_session[(dst, from)]`.
            self.in_flight
                .retain(|(dst, from, _)| self.link_of_session.get(&(*dst, *from)) != Some(&link));
        }
    }
}

/// The SDN control plane: controller + per-switch agents over the CM.
pub struct SdnControl {
    /// The controller core.
    pub controller: Controller,
    /// The application.
    pub app: SdnApp,
    /// Switch agents by node.
    pub agents: BTreeMap<NodeId, SwitchAgent>,
    /// Bytes queued controller → agent (by node).
    to_agents: Vec<(NodeId, bytes::Bytes)>,
    /// Bytes queued agent → controller (by conn id).
    to_controller: Vec<(u32, bytes::Bytes)>,
    /// Pending app wake-up.
    wake_at: Option<SimTime>,
    conn_of_node: BTreeMap<NodeId, u32>,
    node_of_conn: BTreeMap<u32, NodeId>,
    /// Agents holding undrained events (deliveries, packet-ins, replies
    /// queued after the last drain, port status, expiry reports).
    dirty: BTreeSet<NodeId>,
    /// Earliest flow-entry expiry per switch table.
    expiry_wheel: TimerWheel<NodeId>,
    mode: PumpMode,
    /// Pump cost counters.
    pub stats: PumpStats,
    /// FLOW_MODs applied to simulated tables.
    pub flow_mods_applied: u64,
    /// Switches whose table the last pump wrote (expiries, then FLOW_MODs;
    /// a switch with both is listed twice).
    changed: Vec<NodeId>,
    /// Structured trace sink for pump-level and agent-side OpenFlow events
    /// (the agent API is wall-clock-free, so the CM records on its behalf).
    tracer: Tracer,
}

impl SdnControl {
    /// Builds a controller + agents for every switch in `topo`.
    pub fn new(topo: &Topology, app: SdnApp) -> SdnControl {
        let mut agents = BTreeMap::new();
        let mut conn_of_node = BTreeMap::new();
        let mut node_of_conn = BTreeMap::new();
        for node in topo.node_ids() {
            if topo.node(node).kind == horse_net::topology::NodeKind::Switch {
                let ports: Vec<PortDesc> = (0..topo.node(node).port_count() as u16)
                    .map(|p| PortDesc {
                        port_no: p,
                        hw_addr: horse_net::addr::MacAddr::for_port(node.0, p),
                        name: format!("eth{p}"),
                    })
                    .collect();
                agents.insert(node, SwitchAgent::new(u64::from(node.0), ports));
                conn_of_node.insert(node, node.0);
                node_of_conn.insert(node.0, node);
            }
        }
        SdnControl {
            controller: Controller::new(),
            app,
            agents,
            to_agents: Vec::new(),
            to_controller: Vec::new(),
            wake_at: None,
            conn_of_node,
            node_of_conn,
            dirty: BTreeSet::new(),
            expiry_wheel: TimerWheel::new(),
            mode: PumpMode::default(),
            stats: PumpStats::default(),
            flow_mods_applied: 0,
            changed: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    fn start(&mut self, _now: SimTime) {
        for (node, agent) in &mut self.agents {
            agent.on_connect();
            self.controller.on_switch_connected(self.conn_of_node[node]);
            // The handshake bytes the agent queued drain at the first pump.
            self.dirty.insert(*node);
        }
    }

    /// Lets the runner hand a table-miss packet to the right agent.
    pub fn packet_in(&mut self, node: NodeId, in_port: u16, data: bytes::Bytes, now: SimTime) {
        if let Some(agent) = self.agents.get_mut(&node) {
            self.tracer.record(
                now,
                TraceData::OfPacketIn {
                    node: node.0,
                    port: u32::from(in_port),
                },
            );
            agent.send_packet_in(in_port, horse_openflow::wire::OFPR_NO_MATCH, data);
            self.dirty.insert(node);
        }
    }

    fn pump(&mut self, now: SimTime, dp: &mut DataPlane, fluid: &FluidNetwork) -> PumpOutcome {
        self.stats.steps += 1;
        self.stats.nodes_total += self.agents.len() as u64;
        self.changed.clear();
        let mut out = PumpOutcome::default();
        // 0. App timer due?
        if let Some(t) = self.wake_at {
            if now >= t {
                self.wake_at = None;
                self.controller.on_timer(now, self.app.as_dyn());
                out.activity = true;
            }
        }
        // 1. Deliver queued bytes (one hop per step).
        let to_agents = std::mem::take(&mut self.to_agents);
        let to_controller = std::mem::take(&mut self.to_controller);
        if !to_agents.is_empty() || !to_controller.is_empty() {
            out.activity = true;
        }
        for (node, bytes) in to_agents {
            if let Some(agent) = self.agents.get_mut(&node) {
                self.tracer.record(
                    now,
                    TraceData::PumpNode {
                        node: node.0,
                        reason: PumpReason::Delivery,
                    },
                );
                agent.on_bytes(&bytes);
                self.dirty.insert(node);
            }
        }
        for (conn, bytes) in to_controller {
            if let Some(node) = self.node_of_conn.get(&conn) {
                self.tracer.record(
                    now,
                    TraceData::PumpNode {
                        node: node.0,
                        reason: PumpReason::Delivery,
                    },
                );
            }
            self.controller
                .on_bytes(conn, now, &bytes, self.app.as_dyn());
        }
        // 2. Expire timed-out flow entries — but only in tables whose
        // earliest-expiry deadline has been reached; quiet tables cost
        // nothing. Both modes sweep at the same instants (the full poll
        // re-derives due-ness from each table instead of the wheel).
        let due: Vec<NodeId> = match self.mode {
            PumpMode::Readiness => self
                .expiry_wheel
                .advance(now)
                .into_iter()
                .map(|(node, _)| node)
                .collect(),
            PumpMode::FullPoll => {
                let _ = self.expiry_wheel.advance(now);
                let mut v = Vec::new();
                for node in self.agents.keys().copied() {
                    let Some(table) = dp.table(node) else {
                        continue;
                    };
                    if table.is_empty() {
                        continue;
                    }
                    // Legacy cost on purpose: a full walk per table per
                    // step to find out nothing is due.
                    self.stats.table_scans += 1;
                    if table.next_expiry().is_some_and(|d| d <= now) {
                        v.push(node);
                    }
                }
                v
            }
        };
        for node in due {
            self.tracer.record(
                now,
                TraceData::PumpNode {
                    node: node.0,
                    reason: PumpReason::Deadline,
                },
            );
            out.activity |= self.sweep_table(node, now, dp, fluid);
        }
        // 3. Drain agent events — only agents holding work.
        let drain: Vec<NodeId> = match self.mode {
            PumpMode::Readiness => std::mem::take(&mut self.dirty).into_iter().collect(),
            PumpMode::FullPoll => {
                self.dirty.clear();
                self.agents.keys().copied().collect()
            }
        };
        for node in drain {
            if !self.agents.contains_key(&node) {
                continue;
            }
            self.stats.nodes_touched += 1;
            let events = self.agents.get_mut(&node).expect("agent").take_events();
            let mut table_touched = false;
            for ev in events {
                match ev {
                    AgentEvent::SendBytes(bytes) => {
                        out.activity = true;
                        self.to_controller.push((self.conn_of_node[&node], bytes));
                    }
                    AgentEvent::FlowMod(fm) => {
                        out.activity = true;
                        if Self::apply_flow_mod(dp, node, &fm, now) {
                            self.tracer
                                .record(now, TraceData::OfFlowMod { node: node.0 });
                            table_touched = true;
                            self.flow_mods_applied += 1;
                        }
                    }
                    AgentEvent::FlowStatsRequest { xid, .. } => {
                        out.activity = true;
                        let entries = Self::flow_stats_of(dp, node, fluid, now);
                        self.tracer.record(
                            now,
                            TraceData::OfStatsReply {
                                node: node.0,
                                entries: entries.len() as u32,
                            },
                        );
                        self.agents
                            .get_mut(&node)
                            .expect("agent")
                            .send_flow_stats(xid, entries);
                    }
                    AgentEvent::PortStatsRequest { xid, .. } => {
                        out.activity = true;
                        self.agents
                            .get_mut(&node)
                            .expect("agent")
                            .send_port_stats(xid, vec![]);
                    }
                    AgentEvent::PacketOut(_) => {
                        // The fluid model has no packets to re-inject; the
                        // first packet of each flow is synthetic.
                        out.activity = true;
                    }
                    AgentEvent::ProtocolError(_) => {
                        out.activity = true;
                    }
                }
            }
            // Replies queued while handling events (stats responses) drain
            // next step, keeping the one-hop-per-step delivery latency.
            if self.agents[&node].has_events() {
                self.dirty.insert(node);
            }
            if table_touched {
                self.changed.push(node);
                self.reindex_expiry(node, dp);
            }
        }
        // 4. Drain controller events.
        for ev in self.controller.take_events() {
            match ev {
                ControllerEvent::SendBytes { conn, bytes } => {
                    out.activity = true;
                    if let Some(node) = self.node_of_conn.get(&conn) {
                        self.to_agents.push((*node, bytes));
                    }
                }
                ControllerEvent::WakeAt(t) => {
                    self.wake_at = Some(match self.wake_at {
                        Some(cur) => cur.min(t),
                        None => t,
                    });
                }
                ControllerEvent::ProtocolError { .. } => {
                    out.activity = true;
                }
            }
        }
        out
    }

    /// One table's expiry sweep: credit entries whose flows are actually
    /// moving bits (the CM stands in for the per-packet counters a real
    /// switch would have), expire the rest, report each expiry as a
    /// FLOW_REMOVED (OFPFF_SEND_FLOW_REM is implied in this model), and
    /// re-index the table's next deadline. Returns true if any entry
    /// expired (control activity, and a changed table).
    fn sweep_table(
        &mut self,
        node: NodeId,
        now: SimTime,
        dp: &mut DataPlane,
        fluid: &FluidNetwork,
    ) -> bool {
        let Some(table) = dp.table_mut(node) else {
            return false;
        };
        self.stats.table_scans += 1;
        if table.has_timed_entries() && table.entries().iter().any(|e| !e.idle_timeout.is_zero()) {
            // The fluid model's flow index stands in for per-packet
            // counters: an entry whose 5-tuple maps to a flow that is
            // actually moving bits counts as recently hit.
            let tuples: Vec<FiveTuple> = table
                .entries()
                .iter()
                .filter_map(|e| horse_controller::hedera::tuple_of_match(&e.matcher))
                .collect();
            for tuple in tuples {
                let Some(fid) = fluid.flow_by_tuple(&tuple) else {
                    continue;
                };
                if fluid.rate_of(fid).unwrap_or(0.0) <= 0.0 {
                    continue;
                }
                table.touch(&FlowKey::ipv4(None, tuple), now);
            }
        }
        let expired = table.expire(now);
        let next = table.next_expiry();
        match next {
            Some(d) => self.expiry_wheel.schedule(node, d),
            None => {
                self.expiry_wheel.cancel(node);
            }
        }
        if expired.is_empty() {
            return false;
        }
        self.changed.push(node);
        self.tracer.record(
            now,
            TraceData::FlowRemoved {
                node: node.0,
                entries: expired.len() as u32,
            },
        );
        let agent = self.agents.get_mut(&node).expect("agent");
        for e in expired {
            let idle =
                !e.idle_timeout.is_zero() && now.duration_since(e.last_hit) >= e.idle_timeout;
            agent.send_flow_removed(horse_openflow::wire::FlowRemoved {
                matcher: e.matcher,
                cookie: e.cookie,
                priority: e.priority,
                reason: if idle { 0 } else { 1 },
                duration_sec: now.duration_since(e.installed).as_secs_f64() as u32,
                idle_timeout: e.idle_timeout.as_secs_f64() as u16,
                packet_count: e.packet_count,
                byte_count: e.byte_count,
            });
        }
        self.dirty.insert(node);
        true
    }

    /// Re-registers `node`'s earliest table expiry in the wheel.
    fn reindex_expiry(&mut self, node: NodeId, dp: &DataPlane) {
        let next = dp.table(node).and_then(|t| t.next_expiry());
        match next {
            Some(d) => self.expiry_wheel.schedule(node, d),
            None => {
                self.expiry_wheel.cancel(node);
            }
        }
    }

    /// A fluid flow stopped: refresh the idle timers of the rules it was
    /// using along its path, so expiry counts from traffic cessation.
    fn on_flow_retired(
        &mut self,
        tuple: &FiveTuple,
        nodes: &[NodeId],
        now: SimTime,
        dp: &mut DataPlane,
    ) {
        let key = FlowKey::ipv4(None, *tuple);
        for node in nodes {
            if !self.agents.contains_key(node) {
                continue;
            }
            let Some(table) = dp.table_mut(*node) else {
                continue;
            };
            // Permanent rules have no idle timer to credit.
            if table.touch(&key, now) {
                self.reindex_expiry(*node, dp);
            }
        }
    }

    /// Applies a FLOW_MOD to the node's simulated table. Returns true if
    /// the table changed.
    fn apply_flow_mod(dp: &mut DataPlane, node: NodeId, fm: &FlowMod, now: SimTime) -> bool {
        let Some(table) = dp.table_mut(node) else {
            return false;
        };
        match fm.command {
            FlowModCommand::Add | FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let actions = fm
                    .actions
                    .iter()
                    .map(|a| match a {
                        OfAction::Output { port, .. } => {
                            if *port == horse_openflow::wire::OFPP_CONTROLLER {
                                horse_dataplane::flowtable::Action::Controller
                            } else {
                                horse_dataplane::flowtable::Action::Output(PortId(*port))
                            }
                        }
                    })
                    .collect();
                let mut entry = DpFlowEntry::new(fm.matcher, fm.priority, actions);
                entry.cookie = fm.cookie;
                entry.idle_timeout = horse_sim::SimDuration::from_secs(u64::from(fm.idle_timeout));
                entry.hard_timeout = horse_sim::SimDuration::from_secs(u64::from(fm.hard_timeout));
                table.add(entry, now);
                true
            }
            FlowModCommand::DeleteStrict => table.delete_strict(&fm.matcher, fm.priority).is_some(),
            FlowModCommand::Delete => table.delete_matching(&fm.matcher) > 0,
        }
    }

    /// Builds flow-stats entries from the node's table, with byte counts
    /// taken from the fluid model's per-flow progress (the CM's job: the
    /// simulated data plane is the source of truth for counters) and a
    /// packet estimate derived at MTU granularity, so demand estimators
    /// see byte and packet counters that agree.
    fn flow_stats_of(
        dp: &DataPlane,
        node: NodeId,
        fluid: &FluidNetwork,
        now: SimTime,
    ) -> Vec<FlowStatsEntry> {
        let Some(table) = dp.table(node) else {
            return Vec::new();
        };
        table
            .entries()
            .iter()
            .filter_map(|e| {
                let tuple = horse_controller::hedera::tuple_of_match(&e.matcher)?;
                let bytes = fluid
                    .flow_by_tuple(&tuple)
                    .and_then(|fid| fluid.progress(fid))
                    .map(|p| p.bytes_sent as u64)
                    .unwrap_or(0);
                Some(FlowStatsEntry {
                    matcher: e.matcher,
                    duration_sec: now.duration_since(e.installed).as_secs_f64() as u32,
                    priority: e.priority,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    cookie: e.cookie,
                    // At least the flow's first (synthetic) packet exists.
                    packet_count: bytes.div_ceil(MTU_BYTES).max(1),
                    byte_count: bytes,
                    actions: vec![],
                })
            })
            .collect()
    }

    fn next_deadline(&self) -> Option<SimTime> {
        // The wheel holds each table's earliest expiry in both modes (the
        // full poll keeps it registered too, so the engine lands on the
        // same instants); the app timer rides alongside.
        let expiry = self.expiry_wheel.next_deadline();
        match (self.wake_at, expiry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// A link changed state: every attached switch reports PORT_STATUS.
    fn on_link_change(
        &mut self,
        link: horse_net::topology::LinkId,
        up: bool,
        topo: &Topology,
        now: SimTime,
    ) {
        self.tracer
            .record(now, TraceData::LinkChange { link: link.0, up });
        let l = topo.link(link);
        for ep in [l.a, l.b] {
            if let Some(agent) = self.agents.get_mut(&ep.node) {
                agent.send_port_status(ep.port.0, !up);
                self.dirty.insert(ep.node);
            }
        }
    }
}
