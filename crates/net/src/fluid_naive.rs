//! The pre-arena fluid solver, preserved as a differential oracle.
//!
//! This is the flow plane as it stood before the arena/lazy-accrual
//! refactor of [`crate::fluid::FluidNetwork`]: flows keyed in a
//! `BTreeMap`, link membership in `HashMap<DirLink, BTreeSet<FlowId>>`,
//! eager per-flow byte accrual in `advance`, and a full scan of every
//! bounded flow in `next_completion`. It is kept as a separate type so
//! `tests/prop_fluid.rs` can replay identical flow-churn scripts through
//! both shapes and assert identical rate allocations, accrued bytes and
//! completion schedules — the one reference the arena solver is compared
//! against. Only the surface that test drives is kept; the arithmetic is
//! untouched.

use crate::flow::{FlowId, FlowSpec};
use crate::fluid::{DirLink, Dirty, FlowProgress, FluidError, RateChange};
use crate::topology::{LinkId, NodeId, Topology};
use horse_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

const EPS: f64 = 1e-6;

#[derive(Debug, Clone)]
struct ActiveFlow {
    spec: FlowSpec,
    path: Vec<LinkId>,
    dlinks: Vec<DirLink>,
    rate_bps: f64,
    bytes_sent: f64,
    last_update: SimTime,
    started: SimTime,
}

/// Reusable scratch buffers for the scoped solver: cleared, never
/// dropped, so the steady path allocates nothing once warmed up.
#[derive(Debug, Default)]
struct SolverArena {
    /// BFS frontier of directed links still to expand.
    link_queue: Vec<DirLink>,
    /// Directed links already pulled into the component.
    visited: HashSet<DirLink>,
    /// Flows in the component, in discovery order.
    affected: Vec<FlowId>,
    /// Membership filter for `affected`.
    affected_set: HashSet<FlowId>,
    /// Tentative rate per affected flow.
    new_rate: HashMap<FlowId, f64>,
    /// Affected flows still rising with the water level.
    unfrozen: Vec<FlowId>,
    /// Remaining capacity per constrained directed link.
    remaining: HashMap<DirLink, f64>,
    /// Unfrozen member count per constrained directed link, maintained
    /// incrementally as flows freeze (no per-round rebuilds).
    n_unfrozen: HashMap<DirLink, usize>,
}

impl SolverArena {
    fn clear(&mut self) {
        self.link_queue.clear();
        self.visited.clear();
        self.affected.clear();
        self.affected_set.clear();
        self.new_rate.clear();
        self.unfrozen.clear();
        self.remaining.clear();
        self.n_unfrozen.clear();
    }
}

/// The pre-refactor set of active fluid flows and their allocation.
#[derive(Debug, Default)]
pub struct NaiveFluidNetwork {
    flows: BTreeMap<FlowId, ActiveFlow>,
    next_id: u64,
    /// Directed link → flows traversing it. Structural (includes blocked
    /// and zero-demand flows).
    link_members: HashMap<DirLink, BTreeSet<FlowId>>,
    /// Directed links touched by deferred (batched) operations, awaiting
    /// [`NaiveFluidNetwork::flush`].
    pending_seeds: Vec<DirLink>,
    /// Rate changes synthesized by deferred operations on flows with no
    /// constrained links (granted rates), reported at the next flush.
    pending_changes: Vec<RateChange>,
    arena: SolverArena,
}

impl NaiveFluidNetwork {
    /// An empty fluid network.
    pub fn new() -> NaiveFluidNetwork {
        NaiveFluidNetwork::default()
    }

    /// Current rate of a flow, bits/s.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.rate_bps)
    }

    /// Progress snapshot for a flow.
    pub fn progress(&self, id: FlowId) -> Option<FlowProgress> {
        self.flows.get(&id).map(|f| FlowProgress {
            started: f.started,
            rate_bps: f.rate_bps,
            bytes_sent: f.bytes_sent,
            bytes_remaining: f
                .spec
                .size_bytes
                .map(|total| (total as f64 - f.bytes_sent).max(0.0)),
        })
    }

    /// The rate a flow gets without solving: demand for zero-demand or
    /// pathless flows (which consume no shared capacity), `None` when the
    /// flow actually competes.
    fn granted_rate(spec: &FlowSpec, dlinks: &[DirLink]) -> Option<f64> {
        if spec.demand_bps <= EPS || dlinks.is_empty() {
            Some(if spec.demand_bps.is_finite() {
                spec.demand_bps.max(0.0)
            } else {
                0.0
            })
        } else {
            None
        }
    }

    /// Inserts a flow and indexes its directed links; no solve.
    fn insert_flow(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<FlowId, FluidError> {
        let dlinks = Self::orient(&path, spec.src, spec.dst, topo)?;
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        for d in &dlinks {
            self.link_members.entry(*d).or_default().insert(id);
        }
        let rate_bps = Self::granted_rate(&spec, &dlinks).unwrap_or(0.0);
        if rate_bps > EPS {
            self.pending_changes.push(RateChange {
                flow: id,
                old_bps: 0.0,
                new_bps: rate_bps,
            });
        }
        self.flows.insert(
            id,
            ActiveFlow {
                spec,
                path,
                dlinks,
                rate_bps,
                bytes_sent: 0.0,
                last_update: now,
                started: now,
            },
        );
        Ok(id)
    }

    /// Removes a flow from the member index.
    fn unindex_flow(&mut self, id: FlowId, flow: &ActiveFlow) {
        for d in &flow.dlinks {
            if let Some(members) = self.link_members.get_mut(d) {
                members.remove(&id);
                if members.is_empty() {
                    self.link_members.remove(d);
                }
            }
        }
    }

    /// Starts a flow without solving; call [`NaiveFluidNetwork::flush`]
    /// after the control burst to solve once for the whole batch.
    pub fn start_deferred(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<FlowId, FluidError> {
        let id = self.insert_flow(now, spec, path, topo)?;
        let dlinks = &self.flows[&id].dlinks;
        self.pending_seeds.extend(dlinks.iter().copied());
        Ok(id)
    }

    /// Stops (removes) a flow, returning its final progress and the rate
    /// changes caused by freeing its bandwidth.
    pub fn stop(
        &mut self,
        now: SimTime,
        id: FlowId,
        topo: &Topology,
    ) -> Result<(FlowProgress, Vec<RateChange>), FluidError> {
        self.advance(now);
        let progress = self.progress(id).ok_or(FluidError::NoSuchFlow)?;
        let flow = self.flows.remove(&id).expect("progress implies presence");
        self.unindex_flow(id, &flow);
        self.pending_seeds.extend(flow.dlinks.iter().copied());
        let changes = self.flush(topo);
        Ok((progress, changes))
    }

    /// Moves a flow onto a new path, preserving progress, and re-solves.
    pub fn reroute(
        &mut self,
        now: SimTime,
        id: FlowId,
        new_path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<Vec<RateChange>, FluidError> {
        self.reroute_deferred(now, id, new_path, topo)?;
        Ok(self.flush(topo))
    }

    /// Reroutes without solving; call [`NaiveFluidNetwork::flush`] after
    /// the control burst. Returns whether the path actually changed.
    pub fn reroute_deferred(
        &mut self,
        now: SimTime,
        id: FlowId,
        new_path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<bool, FluidError> {
        self.advance(now);
        let flow = self.flows.get(&id).ok_or(FluidError::NoSuchFlow)?;
        if flow.path == new_path {
            return Ok(false);
        }
        let dlinks = Self::orient(&new_path, flow.spec.src, flow.spec.dst, topo)?;
        for d in &dlinks {
            self.link_members.entry(*d).or_default().insert(id);
            self.pending_seeds.push(*d);
        }
        let flow = self.flows.get_mut(&id).expect("checked above");
        let old_dlinks = std::mem::replace(&mut flow.dlinks, dlinks);
        flow.path = new_path;
        for d in &old_dlinks {
            // Only unindex directions the new path no longer uses.
            if self.flows[&id].dlinks.contains(d) {
                continue;
            }
            if let Some(members) = self.link_members.get_mut(d) {
                members.remove(&id);
                if members.is_empty() {
                    self.link_members.remove(d);
                }
            }
        }
        self.pending_seeds.extend(old_dlinks);
        Ok(true)
    }

    /// Solves once for everything deferred since the last flush.
    pub fn flush(&mut self, topo: &Topology) -> Vec<RateChange> {
        let seeds = std::mem::take(&mut self.pending_seeds);
        let mut changes = std::mem::take(&mut self.pending_changes);
        if !seeds.is_empty() {
            changes.extend(self.recompute_scoped(topo, &seeds));
        }
        changes
    }

    /// Incrementally re-solves only the component affected by the given
    /// dirty entities.
    pub fn recompute_incremental(&mut self, topo: &Topology, dirty: &[Dirty]) -> Vec<RateChange> {
        let mut seeds = std::mem::take(&mut self.pending_seeds);
        let mut changes = std::mem::take(&mut self.pending_changes);
        for d in dirty {
            match d {
                Dirty::Flow(id) => {
                    if let Some(f) = self.flows.get(id) {
                        seeds.extend(f.dlinks.iter().copied());
                    }
                }
                Dirty::Link(lid) => {
                    for forward in [true, false] {
                        seeds.push(DirLink {
                            link: *lid,
                            forward,
                        });
                    }
                }
            }
        }
        if !seeds.is_empty() {
            changes.extend(self.recompute_scoped(topo, &seeds));
        }
        seeds.clear();
        self.pending_seeds = seeds; // hand the buffer back, emptied
        changes
    }

    /// Accrues delivered bytes for **every** flow up to `now` — the O(active)
    /// scan the arena shape replaces with lazy accrual.
    pub fn advance(&mut self, now: SimTime) {
        for f in self.flows.values_mut() {
            if now > f.last_update {
                let dt = now.duration_since(f.last_update).as_secs_f64();
                f.bytes_sent += f.rate_bps * dt / 8.0;
                if let Some(total) = f.spec.size_bytes {
                    f.bytes_sent = f.bytes_sent.min(total as f64);
                }
                f.last_update = now;
            }
        }
    }

    /// The earliest bounded-flow completion at current rates, by scanning
    /// **every** flow — the O(active) scan the arena shape replaces with a
    /// prediction heap.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for (id, f) in &self.flows {
            let Some(total) = f.spec.size_bytes else {
                continue;
            };
            let remaining = total as f64 - f.bytes_sent;
            if remaining <= EPS {
                // Already done: complete "now" (at its last update instant).
                let t = f.last_update;
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, *id));
                }
                continue;
            }
            if f.rate_bps <= EPS {
                continue; // stalled; no completion while starved
            }
            let secs = remaining * 8.0 / f.rate_bps;
            // Never round a positive completion delay down to zero.
            let delay = SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1));
            let t = f.last_update + delay;
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, *id));
            }
        }
        best
    }

    /// True if a bounded flow has delivered all its bytes (as of its last
    /// update; call [`NaiveFluidNetwork::advance`] first).
    pub fn is_complete(&self, id: FlowId) -> bool {
        self.flows.get(&id).is_some_and(|f| {
            f.spec
                .size_bytes
                .is_some_and(|total| total as f64 - f.bytes_sent <= EPS)
        })
    }

    /// Walks `path` from `src`, checking connectivity and ending at `dst`,
    /// and returns the directed-link sequence.
    fn orient(
        path: &[LinkId],
        src: NodeId,
        dst: NodeId,
        topo: &Topology,
    ) -> Result<Vec<DirLink>, FluidError> {
        let mut cur = src;
        let mut out = Vec::with_capacity(path.len());
        for lid in path {
            let link = topo.link(*lid);
            let forward = if link.a.node == cur {
                true
            } else if link.b.node == cur {
                false
            } else {
                return Err(FluidError::BrokenPath);
            };
            out.push(DirLink {
                link: *lid,
                forward,
            });
            cur = link.other(cur);
        }
        if cur != dst {
            return Err(FluidError::BrokenPath);
        }
        Ok(out)
    }

    /// Scoped max–min re-solve: expands `seeds` to the affected component
    /// and water-fills only that subgraph, reusing the solver arena.
    fn recompute_scoped(&mut self, topo: &Topology, seeds: &[DirLink]) -> Vec<RateChange> {
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();

        // Component closure: BFS over the flow↔directed-link sharing graph.
        for d in seeds {
            if arena.visited.insert(*d) {
                arena.link_queue.push(*d);
            }
        }
        while let Some(d) = arena.link_queue.pop() {
            let Some(members) = self.link_members.get(&d) else {
                continue;
            };
            for id in members {
                if arena.affected_set.insert(*id) {
                    arena.affected.push(*id);
                    for d2 in &self.flows[id].dlinks {
                        if arena.visited.insert(*d2) {
                            arena.link_queue.push(*d2);
                        }
                    }
                }
            }
        }

        for id in &arena.affected {
            let f = &self.flows[id];
            if f.dlinks.iter().any(|d| !topo.link(d.link).up) {
                arena.new_rate.insert(*id, 0.0); // down link: starved at 0
                continue;
            }
            if let Some(granted) = Self::granted_rate(&f.spec, &f.dlinks) {
                arena.new_rate.insert(*id, granted);
                continue;
            }
            arena.new_rate.insert(*id, 0.0);
            arena.unfrozen.push(*id);
            for d in &f.dlinks {
                arena
                    .remaining
                    .entry(*d)
                    .or_insert_with(|| topo.link(d.link).capacity_bps);
                *arena.n_unfrozen.entry(*d).or_insert(0) += 1;
            }
        }

        while !arena.unfrozen.is_empty() {
            let mut delta = f64::INFINITY;
            for (d, n) in &arena.n_unfrozen {
                if *n > 0 {
                    delta = delta.min(arena.remaining[d].max(0.0) / *n as f64);
                }
            }
            for id in &arena.unfrozen {
                let headroom = self.flows[id].spec.demand_bps - arena.new_rate[id];
                delta = delta.min(headroom);
            }
            if delta.is_infinite() {
                break; // defensive: no constraints at all
            }
            if delta > EPS {
                for id in &arena.unfrozen {
                    *arena.new_rate.get_mut(id).expect("flow present") += delta;
                }
                for (d, n) in &arena.n_unfrozen {
                    if *n > 0 {
                        *arena.remaining.get_mut(d).expect("dlink present") -= delta * *n as f64;
                    }
                }
            }

            let mut progressed = false;
            let mut i = 0;
            while i < arena.unfrozen.len() {
                let id = arena.unfrozen[i];
                let f = &self.flows[&id];
                let satisfied = arena.new_rate[&id] >= f.spec.demand_bps - EPS;
                let bottlenecked = f
                    .dlinks
                    .iter()
                    .any(|d| arena.remaining.get(d).copied().unwrap_or(0.0) <= EPS);
                if satisfied || bottlenecked {
                    for d in &f.dlinks {
                        *arena.n_unfrozen.get_mut(d).expect("indexed above") -= 1;
                    }
                    arena.unfrozen.swap_remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break; // numerically stuck; everything left stays put
            }
        }

        let mut changes = Vec::with_capacity(arena.affected.len().min(16));
        arena.affected.sort_unstable();
        for id in &arena.affected {
            let f = self.flows.get_mut(id).expect("affected flows exist");
            let nr = arena.new_rate[id];
            if (nr - f.rate_bps).abs() > EPS {
                changes.push(RateChange {
                    flow: *id,
                    old_bps: f.rate_bps,
                    new_bps: nr,
                });
            }
            f.rate_bps = nr;
        }
        self.arena = arena;
        changes
    }
}
