//! The hybrid runner: Horse's main loop.
//!
//! One iteration of the loop is one "step" of the experiment:
//!
//! 1. **Pump the control plane** (deliver queued protocol bytes, poll
//!    timers, apply RIB→FIB installs and FLOW_MODs). Any movement is
//!    control activity → the clock is promoted to (or held in) FTI mode.
//! 2. **React to table changes**: retry unrouted flows, re-resolve the
//!    routed flows that cross a node whose forwarding state changed — and
//!    the *stale* ones, whose last re-resolve failed somewhere — rerouting
//!    them in the fluid model (see [`Runner::on_tables_changed`]).
//! 3. **Advance the clock**: in FTI, one fixed increment (paced against
//!    wall time under [`Pacing::RealTime`]); in DES, jump straight to the
//!    next event — including pending control-plane timer deadlines
//!    (keepalives, Hedera's 5 s polls), so protocol timing survives the
//!    jumps.
//! 4. **Execute due data-plane events**: flow starts/stops, fluid-model
//!    completions, goodput samples.

use crate::control::ControlPlane;
use crate::experiment::{LinkEvent, TrafficEvent};
use crate::report::ExperimentReport;
use horse_dataplane::path::{DataPlane, ResolveError};
use horse_net::addr::MacAddr;
use horse_net::flow::FlowId;
use horse_net::fluid::{Dirty, FluidNetwork};
use horse_net::packet::Packet;
use horse_net::topology::{NodeId, PortId, Topology};
use horse_sim::clock::Advance;
use horse_sim::{
    ClockMode, EventId, EventQueue, FtiConfig, HybridClock, Pacer, Pacing, SimDuration, SimTime,
};
use horse_stats::SeriesSet;
use horse_trace::{Component, TraceData, TraceLog, TraceOptions, TraceSummary, Tracer};
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Start traffic event `idx`.
    FlowStart(usize),
    /// Stop traffic event `idx` (if its flow is active).
    FlowStop(usize),
    /// A bounded flow may have completed.
    Completion(FlowId),
    /// Periodic goodput sample.
    Sample,
    /// A control-plane timer deadline (handled by the pump; the event only
    /// exists so DES jumps land on it).
    CtrlTick,
    /// Re-attempt pending (unrouted) flows — models hosts retransmitting
    /// the first packet of a flow that was dropped while the control plane
    /// was not ready yet.
    Retry,
    /// Apply scheduled link event `idx` (failure injection / repair).
    LinkChange(usize),
}

/// How often hosts "retransmit" a flow's first packet while unrouted.
const RETRY_INTERVAL: SimDuration = SimDuration::from_millis(50);

/// Stable label for an event variant, used in `EventDispatch` trace records.
fn ev_kind(ev: Ev) -> &'static str {
    match ev {
        Ev::FlowStart(_) => "flow_start",
        Ev::FlowStop(_) => "flow_stop",
        Ev::Completion(_) => "completion",
        Ev::Sample => "sample",
        Ev::CtrlTick => "ctrl_tick",
        Ev::Retry => "retry",
        Ev::LinkChange(_) => "link_change",
    }
}

/// The hybrid DES/FTI experiment executor.
pub struct Runner {
    /// Shared topology; copy-on-write on the first injected link change,
    /// so concurrent runs over the same `Arc` never observe each other.
    topo: Arc<Topology>,
    dp: DataPlane,
    control: ControlPlane,
    fluid: FluidNetwork,
    clock: HybridClock,
    queue: EventQueue<Ev>,
    pacer: Pacer,
    traffic: Vec<TrafficEvent>,
    link_events: Vec<LinkEvent>,
    horizon: SimTime,
    sample_interval: SimDuration,
    label: String,

    /// Traffic indices waiting for a route / rules, ascending: the
    /// reactions to a table change walk the waiting flows, not the
    /// traffic list.
    pending: BTreeSet<usize>,
    /// Switches already sent a PACKET_IN for each traffic index (tiny
    /// per-flow lists — a flow's first packet misses at most a handful of
    /// hops before rules land).
    miss_sent: Vec<Vec<NodeId>>,
    /// Live flows whose path in the fluid model is not what the tables
    /// resolve them to: the last re-resolve failed (no route, a dead link,
    /// a loop — the flow keeps its old path, starved or not) or its
    /// reroute was refused. The walk that failed may have ended at a node
    /// off that path, so a change at *any* node can revive such a flow:
    /// every reaction re-resolves all of them.
    stale: BTreeSet<FlowId>,
    /// Active flow per traffic index, dense.
    active_by_idx: Vec<Option<FlowId>>,
    active_count: usize,
    /// Traffic index per flow slot (`FlowId` values are dense u32s, never
    /// reused), grown on demand. Look-up only: the live flows are walked
    /// through the fluid model's active set.
    idx_by_flow: Vec<Option<usize>>,
    completion_event: Option<(EventId, FlowId)>,
    ctrl_event: Option<(SimTime, EventId)>,
    retry_scheduled: bool,

    goodput: SeriesSet,
    completions: Vec<(FlowId, SimTime)>,
    fcts: Vec<f64>,
    all_routed_at: Option<SimTime>,
    events_processed: u64,

    /// Runner-side trace sink (mode transitions, event dispatches).
    tracer: Tracer,
    /// How many clock transitions have been mirrored into the trace.
    traced_transitions: usize,
    /// What drove the most recent control activity; becomes the `cause` of
    /// the next FTI promotion mirrored by [`Runner::trace_modes`].
    trace_cause: &'static str,
    /// The assembled trace, available via [`Runner::take_trace`] after
    /// [`Runner::run`].
    trace: Option<TraceLog>,
}

impl Runner {
    /// Builds a runner. Most users go through
    /// [`crate::Experiment::run`] instead.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        topo: Arc<Topology>,
        dp: DataPlane,
        control: ControlPlane,
        traffic: Vec<TrafficEvent>,
        link_events: Vec<LinkEvent>,
        fti: FtiConfig,
        pacing: Pacing,
        horizon: SimTime,
        sample_interval: SimDuration,
        label: String,
    ) -> Runner {
        let n = traffic.len();
        Runner {
            topo,
            dp,
            control,
            fluid: FluidNetwork::new(),
            clock: HybridClock::new(fti),
            queue: EventQueue::new(),
            pacer: Pacer::new(pacing, SimTime::ZERO),
            traffic,
            link_events,
            horizon,
            sample_interval,
            label,
            pending: BTreeSet::new(),
            miss_sent: vec![Vec::new(); n],
            stale: BTreeSet::new(),
            active_by_idx: vec![None; n],
            active_count: 0,
            idx_by_flow: Vec::new(),
            completion_event: None,
            ctrl_event: None,
            retry_scheduled: false,
            goodput: SeriesSet::new(),
            completions: Vec::new(),
            fcts: Vec::new(),
            all_routed_at: None,
            events_processed: 0,
            tracer: Tracer::default(),
            traced_transitions: 0,
            trace_cause: "start",
            trace: None,
        }
    }

    /// Enables structured tracing (call before [`Runner::run`]). Allocates
    /// one ring per component, all sharing a wall-clock epoch so exported
    /// wall timestamps line up across components.
    pub fn set_trace(&mut self, opts: &TraceOptions) {
        if !opts.enabled {
            return;
        }
        let epoch = std::time::Instant::now();
        self.tracer = Tracer::ring(Component::Runner, opts.capacity, epoch);
        self.control.set_tracers(opts, epoch);
    }

    /// The merged trace of the completed run (None when tracing was off or
    /// the run hasn't finished).
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.trace.take()
    }

    /// Mirrors clock-mode transitions not yet seen into the trace, tagging
    /// FTI promotions with the activity that caused them.
    fn trace_modes(&mut self) {
        if !self.tracer.enabled() {
            return;
        }
        let transitions = self.clock.transitions();
        while self.traced_transitions < transitions.len() {
            let tr = transitions[self.traced_transitions];
            let fti = tr.mode == ClockMode::Fti;
            let cause = if self.traced_transitions == 0 {
                "start"
            } else if fti {
                self.trace_cause
            } else {
                "quiescence"
            };
            self.tracer
                .record(tr.at, TraceData::ModeEnter { fti, cause });
            self.traced_transitions += 1;
        }
    }

    /// Selects the pump scheduling mode (call before [`Runner::run`]).
    pub fn set_pump_mode(&mut self, mode: crate::control::PumpMode) {
        self.control.set_pump_mode(mode);
    }

    /// Does nothing: every run drains its speakers and solves its fluid
    /// components on the calling thread. Kept only because the benchmark
    /// calls it; ROADMAP item 1c deletes it.
    pub fn set_run_threads(&mut self, _threads: usize) {}

    // ---- dense flow-bookkeeping slabs --------------------------------

    fn activate(&mut self, idx: usize, fid: FlowId) {
        if self.active_by_idx[idx].replace(fid).is_none() {
            self.active_count += 1;
        }
        let slot = fid.0 as usize;
        if slot >= self.idx_by_flow.len() {
            self.idx_by_flow.resize(slot + 1, None);
        }
        self.idx_by_flow[slot] = Some(idx);
    }

    fn deactivate_idx(&mut self, idx: usize) -> Option<FlowId> {
        let fid = self.active_by_idx[idx].take()?;
        self.active_count -= 1;
        self.idx_by_flow[fid.0 as usize] = None;
        self.stale.remove(&fid);
        Some(fid)
    }

    fn deactivate_flow(&mut self, fid: FlowId) -> Option<usize> {
        let idx = *self.idx_by_flow.get(fid.0 as usize)?.as_ref()?;
        self.idx_by_flow[fid.0 as usize] = None;
        self.active_by_idx[idx] = None;
        self.active_count -= 1;
        self.stale.remove(&fid);
        Some(idx)
    }

    /// Read access to the data plane (tests).
    pub fn dataplane(&self) -> &DataPlane {
        &self.dp
    }

    /// Read access to the fluid network (tests).
    pub fn fluid(&self) -> &FluidNetwork {
        &self.fluid
    }

    /// Executes the experiment to its horizon and builds the report.
    pub fn run(&mut self, wall_setup_secs: f64) -> ExperimentReport {
        let wall_start = std::time::Instant::now();
        self.control.start(SimTime::ZERO, &mut self.dp);
        for (idx, t) in self.traffic.iter().enumerate() {
            self.queue
                .push(t.start.min(self.horizon), Ev::FlowStart(idx));
            if let Some(stop) = t.stop {
                self.queue.push(stop.min(self.horizon), Ev::FlowStop(idx));
            }
        }
        for (idx, le) in self.link_events.iter().enumerate() {
            if le.at <= self.horizon {
                self.queue.push(le.at, Ev::LinkChange(idx));
            }
        }
        if !self.sample_interval.is_zero() {
            self.queue.push(SimTime::ZERO, Ev::Sample);
        }

        loop {
            let now = self.clock.now();
            let outcome = self.control.pump(now, &mut self.dp, &self.fluid);
            if outcome.activity {
                self.trace_cause = "pump";
                self.clock.on_control_activity();
            }
            let changed = self.control.take_changed();
            if !changed.is_empty() {
                self.on_tables_changed(now, &changed);
            }
            self.sync_ctrl_event();
            if self.clock.now() >= self.horizon {
                break;
            }
            let next = self.queue.peek_time();
            let advance = self.clock.plan(next, self.horizon);
            self.trace_modes();
            match advance {
                Advance::RunTo(target) => {
                    if self.clock.mode() == ClockMode::Fti {
                        self.pacer.pace_to(target);
                    } else {
                        self.pacer.rebase(target);
                    }
                    self.step_to(target);
                }
                Advance::Idle => {
                    if self.control.has_pending() {
                        // Messages still queued: stay busy.
                        self.trace_cause = "pending";
                        self.clock.on_control_activity();
                        self.trace_modes();
                        continue;
                    }
                    break;
                }
            }
        }
        self.finish(wall_setup_secs, wall_start.elapsed().as_secs_f64())
    }

    fn step_to(&mut self, target: SimTime) {
        while let Some((time, ev)) = self.queue.pop_due(target) {
            self.clock.advance_to(time);
            self.events_processed += 1;
            self.tracer
                .record(time, TraceData::EventDispatch { kind: ev_kind(ev) });
            self.handle(time, ev);
        }
        self.clock.advance_to(target);
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::FlowStart(idx) => {
                self.try_start_flow(now, idx);
                self.flush_fluid(now);
            }
            Ev::FlowStop(idx) => {
                if let Some(fid) = self.deactivate_idx(idx) {
                    self.notify_flow_retired(now, fid);
                    let _ = self.fluid.stop(now, fid, &self.topo);
                    self.resync_completion(now);
                    self.sample(now);
                }
                self.pending.remove(&idx);
            }
            Ev::Completion(fid) => {
                // May be stale (rates changed since scheduling); re-check.
                if self.completion_event.map(|(_, f)| f) == Some(fid) {
                    self.completion_event = None;
                }
                self.fluid.advance(now);
                if self.fluid.is_complete(fid) {
                    if let Some(idx) = self.deactivate_flow(fid) {
                        self.fcts
                            .push(now.duration_since(self.traffic[idx].start).as_secs_f64());
                    }
                    self.notify_flow_retired(now, fid);
                    let _ = self.fluid.stop(now, fid, &self.topo);
                    self.completions.push((fid, now));
                    self.sample(now);
                }
                self.resync_completion(now);
            }
            Ev::Sample => {
                self.sample(now);
                let next = now + self.sample_interval;
                if next <= self.horizon {
                    self.queue.push(next, Ev::Sample);
                }
            }
            Ev::CtrlTick => {
                // The pump at the top of the loop does the work; the event
                // exists so the DES clock lands on the deadline.
                self.ctrl_event = None;
            }
            Ev::LinkChange(idx) => {
                let le = self.link_events[idx];
                if self.topo.link(le.link).up != le.up {
                    Arc::make_mut(&mut self.topo).link_mut(le.link).up = le.up;
                    // A failed link starves its flows immediately. Only the
                    // component sharing links with the changed one needs a
                    // new solution.
                    self.fluid.advance(now);
                    self.fluid
                        .recompute_incremental(&self.topo, &[Dirty::Link(le.link)]);
                    self.resync_completion(now);
                    self.sample(now);
                    // The control plane notices (BGP transports ride the
                    // link) and reconverges; this is control activity.
                    self.control.on_link_change(le.link, le.up, &self.topo, now);
                    self.trace_cause = "link-change";
                    self.clock.on_control_activity();
                    self.trace_modes();
                    // Surviving routes may offer alternate paths right away.
                    // A link's state is read only by the nodes it joins.
                    let link = self.topo.link(le.link);
                    self.on_tables_changed(now, &[link.a.node, link.b.node]);
                }
            }
            Ev::Retry => {
                self.retry_scheduled = false;
                // A fresh "first packet" may be punted again.
                for idx in &self.pending {
                    self.miss_sent[*idx].clear();
                }
                self.retry_pending(now);
                self.flush_fluid(now);
                self.ensure_retry(now);
            }
        }
    }

    /// Tells the control plane a flow is about to stop, with the switches
    /// its traffic crossed, so idle-timeout accounting can credit the
    /// rules up to this instant instead of re-walking tables every step.
    fn notify_flow_retired(&mut self, now: SimTime, fid: FlowId) {
        if !matches!(self.control, ControlPlane::Sdn(_)) {
            return;
        }
        let Some(spec) = self.fluid.spec(fid).copied() else {
            return;
        };
        let Some(path) = self.fluid.path(fid) else {
            return;
        };
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        for lid in path {
            let link = self.topo.link(*lid);
            nodes.insert(link.a.node);
            nodes.insert(link.b.node);
        }
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        self.control
            .on_flow_retired(&spec.tuple, &nodes, now, &mut self.dp);
    }

    /// Solves once for every flow start/reroute deferred since the last
    /// flush — one control burst, one solve.
    fn flush_fluid(&mut self, now: SimTime) {
        if self.fluid.has_pending() {
            self.fluid.flush(&self.topo);
            self.resync_completion(now);
            self.sample(now);
        }
    }

    /// Keeps a retry event scheduled while any flow is unrouted.
    fn ensure_retry(&mut self, now: SimTime) {
        if !self.pending.is_empty() && !self.retry_scheduled {
            let at = (now + RETRY_INTERVAL).min(self.horizon);
            if at > now {
                self.queue.push(at, Ev::Retry);
                self.retry_scheduled = true;
            }
        }
    }

    fn try_start_flow(&mut self, now: SimTime, idx: usize) {
        let spec = self.traffic[idx].spec;
        match self.dp.resolve(&self.topo, spec.src, spec.dst, &spec.tuple) {
            Ok(path) => {
                // Deferred: the caller runs one fluid solve for the whole
                // burst of starts/reroutes via [`Runner::flush_fluid`].
                match self.fluid.start_deferred(now, spec, path, &self.topo) {
                    Ok(fid) => {
                        self.pending.remove(&idx);
                        self.activate(idx, fid);
                        if self.pending.is_empty()
                            && self.all_routed_at.is_none()
                            && self.active_count + self.completions.len() >= self.traffic.len()
                        {
                            self.all_routed_at = Some(now);
                        }
                    }
                    Err(_) => {
                        self.pending.insert(idx);
                    }
                }
            }
            Err(ResolveError::TableMiss { node, in_port }) => {
                self.pending.insert(idx);
                // Synthesize the flow's first packet and punt it — this is
                // the "control plane packets are actually sent to the data
                // plane" path of the paper's SDN mode.
                if !self.miss_sent[idx].contains(&node) {
                    self.miss_sent[idx].push(node);
                    if let ControlPlane::Sdn(sdn) = &mut self.control {
                        let pkt = Packet::first_of(
                            spec.tuple,
                            MacAddr::for_port(spec.src.0, 0),
                            MacAddr::for_port(spec.dst.0, 0),
                        );
                        sdn.packet_in(node, in_port.0, pkt.encode(), now);
                        self.trace_cause = "packet-in";
                        self.clock.on_control_activity();
                        self.trace_modes();
                    }
                }
            }
            Err(_) => {
                // No route yet (BGP still converging), link down, …: park.
                self.pending.insert(idx);
            }
        }
        self.ensure_retry(now);
    }

    /// Attempts every waiting flow again, in ascending traffic-index
    /// order (an attempt may take the flow off the list or leave it on).
    fn retry_pending(&mut self, now: SimTime) {
        let waiting: Vec<usize> = self.pending.iter().copied().collect();
        for idx in waiting {
            self.try_start_flow(now, idx);
        }
    }

    /// Forwarding state changed at `changed` (tables written, or the state
    /// of a link they join): retry pending flows, re-path the active ones
    /// the change can reach. All starts and reroutes triggered by one
    /// control burst are deferred into a single scoped fluid solve.
    ///
    /// A resolve reads only the nodes it walks through (their tables and
    /// the state of the links it leaves them by), and a flow that is not
    /// [stale](Runner::stale) was last resolved to the very path it has in
    /// the fluid model — so unless that path touches a changed node, a
    /// re-resolve would walk the same unchanged nodes to the same path.
    /// The flows to re-resolve are therefore the stale ones plus those on
    /// a link of a changed node, which the fluid model's link → flows
    /// index lists without looking at the rest.
    fn on_tables_changed(&mut self, now: SimTime, changed: &[NodeId]) {
        self.retry_pending(now);
        // Ascending `FlowId` order, as the fluid model lists its flows.
        let mut affected = self.stale.clone();
        for node in changed {
            for port in 0..self.topo.node(*node).port_count() {
                if let Some(link) = self.topo.link_at(*node, PortId(port as u16)) {
                    affected.extend(self.fluid.flows_on_link(link).iter().map(|(fid, _)| *fid));
                }
            }
        }
        for fid in affected {
            // Every flow the runner started and has not retired is active
            // in the fluid model, and nothing else is.
            let Some(spec) = self.fluid.spec(fid).copied() else {
                continue;
            };
            let settled = match self.dp.resolve(&self.topo, spec.src, spec.dst, &spec.tuple) {
                Ok(path) => {
                    self.fluid.path(fid) == Some(path.as_slice())
                        || self
                            .fluid
                            .reroute_deferred(now, fid, path, &self.topo)
                            .is_ok()
                }
                Err(_) => false,
            };
            if settled {
                self.stale.remove(&fid);
            } else {
                self.stale.insert(fid);
            }
        }
        #[cfg(debug_assertions)]
        self.check_reaction_was_complete();
        self.flush_fluid(now);
    }

    /// The unscoped reaction — re-resolve every live flow — must find
    /// nothing left to do: a flow whose path differs from what the tables
    /// say, or that no longer resolves, has to be in the stale set.
    #[cfg(debug_assertions)]
    fn check_reaction_was_complete(&self) {
        for fid in self.fluid.flow_ids() {
            let spec = self.fluid.spec(fid).expect("listed as active");
            let resolved = self.dp.resolve(&self.topo, spec.src, spec.dst, &spec.tuple);
            let settled = resolved
                .as_ref()
                .is_ok_and(|path| self.fluid.path(fid) == Some(path.as_slice()));
            assert_eq!(
                self.stale.contains(&fid),
                !settled,
                "{fid:?} has path {:?} and resolves to {resolved:?}",
                self.fluid.path(fid),
            );
        }
    }

    fn resync_completion(&mut self, _now: SimTime) {
        if let Some((id, _)) = self.completion_event.take() {
            self.queue.cancel(id);
        }
        if let Some((t, fid)) = self.fluid.next_completion() {
            let id = self
                .queue
                .push(t.max(self.clock.now()), Ev::Completion(fid));
            self.completion_event = Some((id, fid));
        }
    }

    fn sync_ctrl_event(&mut self) {
        let deadline = self.control.next_deadline().filter(|d| *d <= self.horizon);
        match (deadline, self.ctrl_event) {
            (Some(d), Some((t, _))) if d == t => {}
            (Some(d), prev) => {
                if let Some((_, id)) = prev {
                    self.queue.cancel(id);
                }
                let id = self.queue.push(d.max(self.clock.now()), Ev::CtrlTick);
                self.ctrl_event = Some((d, id));
            }
            (None, Some((_, id))) => {
                self.queue.cancel(id);
                self.ctrl_event = None;
            }
            (None, None) => {}
        }
    }

    fn sample(&mut self, now: SimTime) {
        self.fluid.advance(now);
        self.goodput
            .push("aggregate", now, self.fluid.total_arrival_rate());
        // Fabric utilization: the highest and mean per-direction link load
        // fraction. (The demo's goodput graph is the headline; these series
        // explain *why* — hash collisions show up as max_link_util pinned
        // at 1.0 while the mean stays low.)
        let mut max_util = 0.0f64;
        let mut total_util = 0.0f64;
        for (dlink, load) in self.fluid.link_loads() {
            let link = self.topo.link(dlink.link);
            if !link.up {
                continue;
            }
            let u = load / link.capacity_bps;
            max_util = max_util.max(u);
            total_util += u;
        }
        self.goodput.push("max_link_util", now, max_util);
        // Mean over *all* directed links (idle ones included), so the
        // number reads as fabric occupancy.
        let dirs = 2 * self.topo.link_count();
        if dirs > 0 {
            self.goodput
                .push("mean_link_util", now, total_util / dirs as f64);
        }
    }

    fn finish(&mut self, wall_setup_secs: f64, wall_run_secs: f64) -> ExperimentReport {
        let end = self.clock.now().min(self.horizon);
        self.fluid.advance(end);
        self.sample(end);
        let pump = self.control.pump_stats();
        let rib = self.control.rib_stats();
        let mem = self.control.mem_stats();
        let fluid = self.fluid.solver_stats();
        let trace = if self.tracer.enabled() {
            self.trace_modes();
            let mut logs = Vec::new();
            if let Some(log) = self.tracer.take_log() {
                logs.push(log);
            }
            logs.extend(self.control.take_trace_logs());
            let log = TraceLog::assemble(logs, end);
            let summary = log.summary();
            self.trace = Some(log);
            summary
        } else {
            TraceSummary::default()
        };
        ExperimentReport {
            label: std::mem::take(&mut self.label),
            horizon: end,
            goodput: std::mem::take(&mut self.goodput),
            transitions: self.clock.transitions().to_vec(),
            fti_time: self.clock.fti_time(),
            des_time: self.clock.des_time(),
            wall_setup_secs,
            wall_run_secs,
            events_processed: self.events_processed,
            control_msgs: self.control.msgs_total(),
            table_writes: match &self.control {
                ControlPlane::Bgp(b) => b.installs,
                ControlPlane::Sdn(s) => s.flow_mods_applied,
                ControlPlane::None => 0,
            },
            flows_requested: self.traffic.len(),
            flows_routed: self.active_count + self.completions.len(),
            completions: std::mem::take(&mut self.completions),
            flow_completion_secs: std::mem::take(&mut self.fcts),
            all_routed_at: self.all_routed_at,
            scheduler_moves: self.control.sdn_app().map_or(0, |a| a.moves()),
            pump_steps: pump.steps,
            pump_nodes_total: pump.nodes_total,
            pump_nodes_touched: pump.nodes_touched,
            pump_table_scans: pump.table_scans,
            fluid_solves: fluid.solves,
            fluid_seed_dlinks: fluid.seed_dlinks,
            fluid_flows_touched: fluid.flows_touched,
            fluid_scratch_reuses: fluid.scratch_reuses,
            fluid_heap_pushes: fluid.heap_pushes,
            fluid_heap_stale_pops: fluid.heap_stale_pops,
            rib_decide_calls: rib.decide_calls,
            rib_decide_cache_hits: rib.decide_cache_hits,
            rib_invalidations: rib.invalidations,
            rib_candidate_touches: rib.candidate_touches,
            rib_attr_interns: rib.attr_interns,
            rib_attr_reuses: rib.attr_reuses,
            rib_attr_store_peak: rib.attr_store_size,
            rib_export_cache_hits: rib.export_cache_hits,
            rib_export_cache_misses: rib.export_cache_misses,
            mem_peak_rss_bytes: crate::report::peak_rss_bytes(),
            mem_prefix_ids: mem.0,
            mem_peer_ids: mem.1,
            mem_attr_entries: mem.2,
            mem_attr_bytes_est: mem.3,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_dataplane::fib::{NextHop, RouteEntry, RouteOrigin};
    use horse_dataplane::hash::HashMode;
    use horse_net::addr::Ipv4Prefix;
    use horse_net::flow::{FiveTuple, FlowSpec};
    use std::net::Ipv4Addr;

    fn via(port: PortId) -> RouteEntry {
        let hop = NextHop {
            port,
            gateway: Ipv4Addr::UNSPECIFIED,
        };
        RouteEntry::new(vec![hop], RouteOrigin::Static)
    }

    /// The stale case: a flow's re-resolve fails at a router that is not on
    /// the path the flow keeps, so a later change at that router — which
    /// joins no link of that path — must still re-resolve and move it.
    #[test]
    fn a_flow_whose_resolve_failed_off_its_path_moves_when_that_router_changes() {
        // h0 - r - {a, b} - m - h1
        const G: f64 = 1e9;
        let mut t = Topology::new();
        let sn: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let dn: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let h0 = t.add_host("h0", Ipv4Addr::new(10, 0, 0, 1), sn);
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 1, 1), dn);
        let r = t.add_router("r", Ipv4Addr::new(10, 255, 0, 0));
        let a = t.add_router("a", Ipv4Addr::new(10, 255, 0, 1));
        let b = t.add_router("b", Ipv4Addr::new(10, 255, 0, 2));
        let m = t.add_router("m", Ipv4Addr::new(10, 255, 0, 3));
        t.add_link(h0, r, G, 0);
        let (r_a, r_to_a, _) = t.add_link(r, a, G, 0);
        let (r_b, r_to_b, _) = t.add_link(r, b, G, 0);
        let (_, a_to_m, _) = t.add_link(a, m, G, 0);
        let (_, b_to_m, _) = t.add_link(b, m, G, 0);
        let (_, m_to_h1, _) = t.add_link(m, h1, G, 0);
        let mut dp = DataPlane::from_topology(&t, HashMode::SrcDst, HashMode::FiveTuple);
        dp.fib_mut(r).unwrap().insert(dn, via(r_to_a));
        dp.fib_mut(a).unwrap().insert(dn, via(a_to_m));
        dp.fib_mut(m).unwrap().insert(dn, via(m_to_h1));
        // b has no route yet.
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            1000,
            Ipv4Addr::new(10, 0, 1, 1),
            80,
        );
        let traffic = vec![TrafficEvent {
            start: SimTime::ZERO,
            spec: FlowSpec::cbr(h0, h1, tuple, G),
            stop: None,
        }];
        let mut runner = Runner::new(
            Arc::new(t),
            dp,
            ControlPlane::None,
            traffic,
            Vec::new(),
            FtiConfig {
                increment: SimDuration::from_millis(1),
                quiescence: SimDuration::from_millis(100),
            },
            Pacing::Virtual,
            SimTime::from_secs(10),
            SimDuration::ZERO,
            String::from("stale"),
        );
        runner.try_start_flow(SimTime::ZERO, 0);
        runner.flush_fluid(SimTime::ZERO);
        let fid = runner.active_by_idx[0].expect("routed via a");
        assert!(runner.fluid.path(fid).unwrap().contains(&r_a));
        assert!(runner.stale.is_empty());

        // r moves the prefix to b, which has no route: the walk now dies at
        // b, and the flow keeps its path through a.
        runner.dp.fib_mut(r).unwrap().insert(dn, via(r_to_b));
        runner.on_tables_changed(SimTime::from_secs(1), &[r]);
        assert!(
            runner.fluid.path(fid).unwrap().contains(&r_a),
            "kept the old path"
        );
        assert!(runner.stale.contains(&fid));

        // b learns the route. No link of b is on the flow's path; only the
        // stale set makes the flow a candidate.
        runner.dp.fib_mut(b).unwrap().insert(dn, via(b_to_m));
        runner.on_tables_changed(SimTime::from_secs(2), &[b]);
        let path = runner.fluid.path(fid).unwrap();
        assert!(
            path.contains(&r_b) && !path.contains(&r_a),
            "moved onto b: {path:?}"
        );
        assert!(runner.stale.is_empty());
        assert_eq!(runner.fluid.rate_of(fid), Some(G));
    }
}
