//! The fluid-rate data plane: event-driven max–min fair bandwidth sharing.
//!
//! Horse's data plane does not move packets. Each flow is a fluid with a
//! *demand* (offered rate) and a *path* (sequence of directed links); the
//! achieved rate of every flow is the max–min fair allocation subject to
//! per-link capacities and per-flow demand caps, computed by progressive
//! filling (water-filling). Rates change only at discrete instants — a flow
//! starts, finishes, is rerouted, or a link changes — so the simulation only
//! needs to re-solve at those events and can jump the clock in between.
//!
//! Links are full duplex: each direction of a link is an independent
//! capacity. A flow's direction over each link on its path is derived from
//! walking the path from the flow's source.
//!
//! # Memory shape and the event fast path
//!
//! Flow state lives in struct-of-arrays arenas indexed by the flow id
//! value itself (ids are dense and never reused), so ascending-slot
//! iteration *is* ascending-id iteration and every ordered float
//! accumulation matches the historical `BTreeMap` shape bitwise. Directed
//! links get dense ids too (`link * 2 + direction`, preserving `DirLink`
//! order), and per-link membership is a sorted slice of flow slots.
//!
//! Three O(active) scans are gone from the event dispatch path:
//!
//! - [`FluidNetwork::advance`] is a single watermark bump; delivered bytes
//!   are **lazily accrued** — derived from `(rate, settled_at, watermark)`
//!   on demand and folded ("settled") into the byte base only when a
//!   flow's rate changes, it retires, or its stats are read.
//! - [`FluidNetwork::next_completion`] pops a min-heap of predicted finish
//!   times with lazy invalidation instead of rescanning every bounded
//!   flow; the historical `(time, FlowId-value)` tie-break is preserved
//!   exactly by heap order.
//! - [`FluidNetwork::link_loads`] / [`FluidNetwork::flows_on_link`]
//!   are served from the maintained membership index.
//!
//! [`FluidNetwork::recompute_scoped`] partitions its seeds into
//! link-disjoint components and water-fills each component independently
//! with reusable dense-id scratch (allocation-free in steady state).
//!
//! The pre-refactor solver is preserved verbatim in
//! [`crate::fluid_naive::NaiveFluidNetwork`] as the differential oracle.

use crate::flow::{FiveTuple, FlowId, FlowSpec};
use crate::intern::IdSet;
use crate::topology::{LinkId, NodeId, Topology};
use horse_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

const EPS: f64 = 1e-6;

/// A directed traversal of a link: `forward` means a→b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLink {
    /// The underlying link.
    pub link: LinkId,
    /// True when traversed from endpoint `a` to endpoint `b`.
    pub forward: bool,
}

/// Dense directed-link id. `link * 2 + forward` preserves the derived
/// `DirLink` order (`link` major, `false < true`), so ascending-dlid
/// iteration matches ascending-`DirLink` iteration.
#[inline]
fn dlid(d: DirLink) -> usize {
    ((d.link.0 as usize) << 1) | (d.forward as usize)
}

#[inline]
fn undlid(di: usize) -> DirLink {
    DirLink {
        link: LinkId((di >> 1) as u32),
        forward: di & 1 == 1,
    }
}

/// A rate change produced by a re-solve, for observers (stats, tracing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateChange {
    /// The affected flow.
    pub flow: FlowId,
    /// Rate before the re-solve, bits/s.
    pub old_bps: f64,
    /// Rate after the re-solve, bits/s.
    pub new_bps: f64,
}

/// Progress snapshot of one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowProgress {
    /// When the flow started.
    pub started: SimTime,
    /// Current allocated rate, bits/s.
    pub rate_bps: f64,
    /// Bytes delivered so far.
    pub bytes_sent: f64,
    /// Bytes remaining (`None` for unbounded flows).
    pub bytes_remaining: Option<f64>,
}

/// Errors from flow operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FluidError {
    /// The supplied path does not connect the flow's source to its sink.
    BrokenPath,
    /// Unknown flow id.
    NoSuchFlow,
}

impl std::fmt::Display for FluidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FluidError::BrokenPath => write!(f, "path does not connect src to dst"),
            FluidError::NoSuchFlow => write!(f, "no such flow"),
        }
    }
}

impl std::error::Error for FluidError {}

/// An entity whose state changed since the last solve, for
/// [`FluidNetwork::recompute_incremental`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dirty {
    /// A flow started, stopped, was rerouted, or otherwise changed.
    Flow(FlowId),
    /// A link went up or down, or its capacity changed.
    Link(LinkId),
}

/// Cumulative solver-effort counters, for benchmarking the incremental
/// solver against full re-solves and the arena shape against the oracle.
/// "Work" approximates FLOP-equivalents: each waterfill round costs one
/// unit per participating flow plus one per constrained directed link.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// Scoped (incremental) solves run.
    pub solves: u64,
    /// Full oracle re-solves run.
    pub full_solves: u64,
    /// Flows included across all solved subproblems.
    pub flows_touched: u64,
    /// Directed links included across all solved subproblems.
    pub links_touched: u64,
    /// Waterfill rounds across all solves.
    pub iterations: u64,
    /// FLOP-equivalent units of solver work.
    pub work: u64,
    /// Directed links handed to scoped solves as seeds.
    pub seed_dlinks: u64,
    /// Per-flow byte-accrual writes. The oracle shape pays one per active
    /// flow per `advance`; the arena shape pays one per settle (rate
    /// change / retire / stats read).
    pub advance_touches: u64,
    /// Flow-visits spent answering `next_completion`. The oracle shape
    /// pays one per active flow per query; the arena shape pays one per
    /// heap entry examined.
    pub completion_visits: u64,
    /// Predicted-completion entries pushed onto the heap.
    pub heap_pushes: u64,
    /// Heap entries discarded as stale (retired flow or superseded
    /// prediction).
    pub heap_stale_pops: u64,
    /// Component solves served by an already-warm scratch buffer (no
    /// allocation).
    pub scratch_reuses: u64,
}

/// Reusable component-closure scratch: cleared, never dropped, so the
/// steady solve path allocates nothing once warmed up.
#[derive(Debug, Default)]
struct ClosureScratch {
    /// Directed links (dense ids) already pulled into some component.
    visited: IdSet,
    /// Flow slots already pulled into some component.
    affected_set: IdSet,
    /// BFS frontier of directed links (dense ids) still to expand.
    queue: Vec<u32>,
    /// Component flows in discovery order, concatenated.
    flows_flat: Vec<u32>,
    /// End offset of each component in `flows_flat`, in seed order.
    comp_ends: Vec<usize>,
    /// `(slot, new_rate)` results from all components, merged then
    /// sorted by slot for the deterministic apply pass.
    apply: Vec<(u32, f64)>,
}

/// Reusable per-component waterfill scratch. Directed-link lookups go
/// through an epoch-tagged dense map (`dl_epoch`/`dl_local`), so reuse
/// across components needs no clearing of the id-indexed arrays.
#[derive(Debug, Default)]
struct WaterfillScratch {
    /// True once this buffer has served a component (reuse counter).
    warm: bool,
    epoch: u64,
    /// dlid → epoch tag; `dl_local` is valid where the tag matches.
    dl_epoch: Vec<u64>,
    /// dlid → local constrained-link index for the current component.
    dl_local: Vec<u32>,
    /// Remaining capacity per local constrained link.
    remaining: Vec<f64>,
    /// Unfrozen member count per local constrained link.
    n_unfrozen: Vec<u32>,
    /// Tentative rate per local (competing) flow.
    new_rate: Vec<f64>,
    /// Demand cap per local flow.
    demand: Vec<f64>,
    /// Local flow → arena slot.
    flow_slot: Vec<u32>,
    /// CSR offsets into `flow_dl` (one sentinel past the end).
    flow_dl_off: Vec<u32>,
    /// CSR payload: local constrained-link ids per local flow.
    flow_dl: Vec<u32>,
    /// Local flows still rising with the water level.
    unfrozen: Vec<u32>,
}

/// The set of active fluid flows and their current allocation.
#[derive(Debug, Default)]
pub struct FluidNetwork {
    next_id: u64,
    /// Global lazy-accrual watermark: the instant `advance` has reached.
    watermark: SimTime,
    // ---- Struct-of-arrays flow state, indexed by flow id value (slots
    // are dense and never reused; retired slots keep their row with the
    // heavy vectors emptied).
    specs: Vec<FlowSpec>,
    paths: Vec<Vec<LinkId>>,
    dlinks: Vec<Vec<DirLink>>,
    rate_bps: Vec<f64>,
    /// Bytes settled as of `settled_at`; derived bytes at the watermark
    /// are `bytes_base + rate × (watermark − settled_at) / 8`, clamped.
    bytes_base: Vec<f64>,
    settled_at: Vec<SimTime>,
    started: Vec<SimTime>,
    /// Live predicted completion time per slot; the heap entry matching
    /// this value is the current one, everything else is stale.
    predicted: Vec<Option<SimTime>>,
    /// Slots of live flows.
    active: IdSet,
    /// Dense dlid → member flow slots, sorted ascending (= FlowId order).
    /// Structural (includes blocked and zero-demand flows); the basis of
    /// incremental re-solves and of O(members) queries.
    link_members: Vec<Vec<u32>>,
    /// Five-tuple → flow id, for the controller stats path.
    by_tuple: HashMap<FiveTuple, FlowId>,
    /// Min-heap of `(predicted completion, flow id)` with lazy
    /// invalidation.
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Directed links touched by deferred (batched) operations, awaiting
    /// [`FluidNetwork::flush`].
    pending_seeds: Vec<DirLink>,
    /// Rate changes synthesized by deferred operations on flows with no
    /// constrained links (granted rates), reported at the next flush.
    pending_changes: Vec<RateChange>,
    closure: ClosureScratch,
    waterfill: WaterfillScratch,
    stats: SolverStats,
}

impl FluidNetwork {
    /// An empty fluid network.
    pub fn new() -> FluidNetwork {
        FluidNetwork::default()
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.active.len()
    }

    /// Active flow ids, in id order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.active.iter().map(|slot| FlowId(slot as u64))
    }

    /// The spec a flow was started with.
    pub fn spec(&self, id: FlowId) -> Option<&FlowSpec> {
        self.active
            .contains(id.0 as u32)
            .then(|| &self.specs[id.0 as usize])
    }

    /// The path a flow currently uses.
    pub fn path(&self, id: FlowId) -> Option<&[LinkId]> {
        self.active
            .contains(id.0 as u32)
            .then(|| self.paths[id.0 as usize].as_slice())
    }

    /// Current rate of a flow, bits/s.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.active
            .contains(id.0 as u32)
            .then(|| self.rate_bps[id.0 as usize])
    }

    /// Delivered bytes at the watermark, derived from the settled base
    /// without mutating (the lazy-accrual read path).
    fn derived_bytes(&self, slot: usize) -> f64 {
        let mut b = self.bytes_base[slot];
        if self.watermark > self.settled_at[slot] {
            let dt = self
                .watermark
                .duration_since(self.settled_at[slot])
                .as_secs_f64();
            b += self.rate_bps[slot] * dt / 8.0;
            if let Some(total) = self.specs[slot].size_bytes {
                b = b.min(total as f64);
            }
        }
        b
    }

    /// Folds lazily-accrued bytes into the settled base. Must run before
    /// any rate change so bytes delivered at the old rate are banked.
    fn settle(&mut self, slot: usize) {
        if self.watermark > self.settled_at[slot] {
            let dt = self
                .watermark
                .duration_since(self.settled_at[slot])
                .as_secs_f64();
            self.bytes_base[slot] += self.rate_bps[slot] * dt / 8.0;
            if let Some(total) = self.specs[slot].size_bytes {
                self.bytes_base[slot] = self.bytes_base[slot].min(total as f64);
            }
            self.settled_at[slot] = self.watermark;
            self.stats.advance_touches += 1;
        }
    }

    /// Recomputes a bounded flow's predicted completion from its settled
    /// state and queues it; the previous heap entry (if any) goes stale.
    /// Mirrors the oracle's per-query arithmetic: already-done flows
    /// complete at their settle instant, stalled flows have no prediction,
    /// and a positive delay never rounds below 1 ns (a sub-nanosecond tail
    /// must still move time forward).
    fn refresh_prediction(&mut self, slot: usize) {
        let Some(total) = self.specs[slot].size_bytes else {
            return;
        };
        let remaining = total as f64 - self.bytes_base[slot];
        let t = if remaining <= EPS {
            self.settled_at[slot]
        } else if self.rate_bps[slot] <= EPS {
            self.predicted[slot] = None; // stalled; no completion while starved
            return;
        } else {
            let secs = remaining * 8.0 / self.rate_bps[slot];
            self.settled_at[slot] + SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1))
        };
        if self.predicted[slot] == Some(t) {
            return; // the live heap entry already says this
        }
        self.predicted[slot] = Some(t);
        self.heap.push(Reverse((t, slot as u64)));
        self.stats.heap_pushes += 1;
    }

    /// Progress snapshot for a flow.
    pub fn progress(&self, id: FlowId) -> Option<FlowProgress> {
        if !self.active.contains(id.0 as u32) {
            return None;
        }
        let slot = id.0 as usize;
        let bytes_sent = self.derived_bytes(slot);
        Some(FlowProgress {
            started: self.started[slot],
            rate_bps: self.rate_bps[slot],
            bytes_sent,
            bytes_remaining: self.specs[slot]
                .size_bytes
                .map(|total| (total as f64 - bytes_sent).max(0.0)),
        })
    }

    /// The flow currently carrying this five-tuple, if any. O(1) via a
    /// persistent index — the controller stats path resolves table entries
    /// to flows through this.
    pub fn flow_by_tuple(&self, tuple: &FiveTuple) -> Option<FlowId> {
        self.by_tuple.get(tuple).copied()
    }

    /// Cumulative solver-effort counters.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Zeroes the solver-effort counters (for benchmarking windows).
    pub fn reset_solver_stats(&mut self) {
        self.stats = SolverStats::default();
    }

    /// The rate a flow gets without solving: demand for zero-demand or
    /// pathless flows (which consume no shared capacity), `None` when the
    /// flow actually competes.
    fn granted_rate(spec: &FlowSpec, dlinks: &[DirLink]) -> Option<f64> {
        if spec.demand_bps <= EPS || dlinks.is_empty() {
            // Zero demand stays at zero; empty path (src == dst or
            // loopback) is unconstrained: grant the full demand — except
            // elastic (infinite-demand) flows, which have no finite
            // number to grant and get zero.
            Some(if spec.demand_bps.is_finite() {
                spec.demand_bps.max(0.0)
            } else {
                0.0
            })
        } else {
            None
        }
    }

    /// Adds `slot` to a directed link's member list, growing the dense
    /// index as needed. New flows have the highest slot so far and may
    /// push; reroutes of older flows insert in place.
    fn add_member(&mut self, d: DirLink, slot: u32) {
        let di = dlid(d);
        if di >= self.link_members.len() {
            self.link_members.resize_with(di + 1, Vec::new);
        }
        let members = &mut self.link_members[di];
        match members.last() {
            Some(&last) if last >= slot => {
                if let Err(pos) = members.binary_search(&slot) {
                    members.insert(pos, slot);
                }
            }
            _ => members.push(slot),
        }
    }

    fn remove_member(&mut self, d: DirLink, slot: u32) {
        let di = dlid(d);
        if let Some(members) = self.link_members.get_mut(di) {
            if let Ok(pos) = members.binary_search(&slot) {
                members.remove(pos);
            }
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
        debug_assert!(
            self.next_id < u64::from(u32::MAX),
            "flow slots are dense u32"
        );
        let id = FlowId(self.next_id);
        let slot = self.next_id as usize;
        self.next_id += 1;
        for d in &dlinks {
            self.add_member(*d, slot as u32);
        }
        self.by_tuple.insert(spec.tuple, id);
        // Flows that consume no shared capacity get their rate up front;
        // no solve will visit them (they are in no link's member set).
        let rate_bps = Self::granted_rate(&spec, &dlinks).unwrap_or(0.0);
        if rate_bps > EPS {
            self.pending_changes.push(RateChange {
                flow: id,
                old_bps: 0.0,
                new_bps: rate_bps,
            });
        }
        debug_assert_eq!(slot, self.specs.len());
        self.specs.push(spec);
        self.paths.push(path);
        self.dlinks.push(dlinks);
        self.rate_bps.push(rate_bps);
        self.bytes_base.push(0.0);
        self.settled_at.push(now);
        self.started.push(now);
        self.predicted.push(None);
        self.active.insert(slot as u32);
        self.refresh_prediction(slot);
        Ok(id)
    }

    /// Starts a flow on the given path. The path must connect
    /// `spec.src` to `spec.dst` in `topo`. Re-solves the affected
    /// component incrementally.
    pub fn start(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<(FlowId, Vec<RateChange>), FluidError> {
        let id = self.start_deferred(now, spec, path, topo)?;
        let changes = self.flush(topo);
        Ok((id, changes))
    }

    /// Starts a flow without solving; call [`FluidNetwork::flush`] after
    /// the control burst to solve once for the whole batch.
    pub fn start_deferred(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<FlowId, FluidError> {
        let id = self.insert_flow(now, spec, path, topo)?;
        let slot = id.0 as usize;
        for i in 0..self.dlinks[slot].len() {
            let d = self.dlinks[slot][i];
            self.pending_seeds.push(d);
        }
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
        let slot = id.0 as usize;
        self.active.remove(id.0 as u32);
        self.predicted[slot] = None; // heap entries for this slot go stale
        let dlinks = std::mem::take(&mut self.dlinks[slot]);
        for d in &dlinks {
            self.remove_member(*d, id.0 as u32);
        }
        self.pending_seeds.extend(dlinks);
        self.paths[slot] = Vec::new(); // retired rows keep no heavy state
        if self.by_tuple.get(&self.specs[slot].tuple) == Some(&id) {
            self.by_tuple.remove(&self.specs[slot].tuple);
        }
        let changes = self.flush(topo);
        Ok((progress, changes))
    }

    /// Moves a flow onto a new path (e.g. after a Hedera re-placement or a
    /// FIB update), preserving its progress. Re-solves the affected
    /// component incrementally.
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

    /// Reroutes without solving; call [`FluidNetwork::flush`] after the
    /// control burst. Returns whether the path actually changed.
    pub fn reroute_deferred(
        &mut self,
        now: SimTime,
        id: FlowId,
        new_path: Vec<LinkId>,
        topo: &Topology,
    ) -> Result<bool, FluidError> {
        self.advance(now);
        if !self.active.contains(id.0 as u32) {
            return Err(FluidError::NoSuchFlow);
        }
        let slot = id.0 as usize;
        if self.paths[slot] == new_path {
            return Ok(false);
        }
        let spec = self.specs[slot];
        let dlinks = Self::orient(&new_path, spec.src, spec.dst, topo)?;
        for d in &dlinks {
            self.add_member(*d, id.0 as u32);
            self.pending_seeds.push(*d);
        }
        let old_dlinks = std::mem::replace(&mut self.dlinks[slot], dlinks);
        self.paths[slot] = new_path;
        for d in &old_dlinks {
            // Only unindex directions the new path no longer uses.
            if self.dlinks[slot].contains(d) {
                continue;
            }
            self.remove_member(*d, id.0 as u32);
        }
        self.pending_seeds.extend(old_dlinks);
        Ok(true)
    }

    /// True when deferred operations are waiting for a solve.
    pub fn has_pending(&self) -> bool {
        !self.pending_seeds.is_empty() || !self.pending_changes.is_empty()
    }

    /// Solves once for everything deferred since the last flush, scoped to
    /// the affected component(s). One control burst → one solve.
    pub fn flush(&mut self, topo: &Topology) -> Vec<RateChange> {
        let seeds = std::mem::take(&mut self.pending_seeds);
        let mut changes = std::mem::take(&mut self.pending_changes);
        if !seeds.is_empty() {
            changes.extend(self.recompute_scoped(topo, &seeds));
        }
        changes
    }

    /// Incrementally re-solves only the component affected by the given
    /// dirty entities: the flows transitively sharing directed links with
    /// them. Untouched bottleneck groups keep their rates. Equivalent to
    /// [`FluidNetwork::recompute`] (the full oracle) restricted to the
    /// affected flows — max–min allocations decompose across components
    /// that share no directed link.
    pub fn recompute_incremental(&mut self, topo: &Topology, dirty: &[Dirty]) -> Vec<RateChange> {
        let mut seeds = std::mem::take(&mut self.pending_seeds);
        let mut changes = std::mem::take(&mut self.pending_changes);
        for d in dirty {
            match d {
                Dirty::Flow(id) => {
                    if self.active.contains(id.0 as u32) {
                        seeds.extend(self.dlinks[id.0 as usize].iter().copied());
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

    /// Moves the accrual watermark to `now`. O(1): delivered bytes are
    /// derived lazily, so nothing per-flow happens here. Idempotent for a
    /// given `now`; time never moves backwards.
    pub fn advance(&mut self, now: SimTime) {
        if now > self.watermark {
            self.watermark = now;
        }
    }

    /// The earliest instant at which a bounded flow completes at its current
    /// rate, if any. The caller schedules a completion event there and must
    /// re-query after every re-solve (stale events are cancelled upstream).
    ///
    /// Served from the prediction heap: entries whose flow retired or
    /// whose prediction was superseded are popped and dropped (lazy
    /// invalidation); an entry at or before the watermark whose flow is
    /// not actually complete (sub-ns rounding tail) is re-predicted from
    /// the settled state, which always moves strictly past the watermark.
    /// Heap order is `(time, FlowId value)` — exactly the historical
    /// full-scan tie-break.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        loop {
            let Reverse((t, idv)) = *self.heap.peek()?;
            self.stats.completion_visits += 1;
            let slot = idv as usize;
            if !self.active.contains(idv as u32) || self.predicted[slot] != Some(t) {
                self.heap.pop();
                self.stats.heap_stale_pops += 1;
                continue;
            }
            if t <= self.watermark {
                let total = self.specs[slot]
                    .size_bytes
                    .expect("bounded: has prediction");
                if total as f64 - self.derived_bytes(slot) <= EPS {
                    return Some((t, FlowId(idv)));
                }
                self.heap.pop();
                self.stats.heap_stale_pops += 1;
                self.predicted[slot] = None;
                self.settle(slot);
                self.refresh_prediction(slot);
                continue;
            }
            return Some((t, FlowId(idv)));
        }
    }

    /// True if a bounded flow has delivered all its bytes as of the
    /// watermark (call [`FluidNetwork::advance`] first).
    pub fn is_complete(&self, id: FlowId) -> bool {
        if !self.active.contains(id.0 as u32) {
            return false;
        }
        let slot = id.0 as usize;
        self.specs[slot]
            .size_bytes
            .is_some_and(|total| total as f64 - self.derived_bytes(slot) <= EPS)
    }

    /// Aggregate arrival (goodput) rate at a destination host, bits/s.
    pub fn arrival_rate_at(&self, dst: NodeId) -> f64 {
        // Ascending slots == ascending flow ids: the summation order (and
        // thus the ulp-level float result) matches the historical
        // id-ordered map scan. `+ 0.0` normalizes the empty sum's IEEE
        // negative zero.
        self.active
            .iter()
            .filter(|&slot| self.specs[slot as usize].dst == dst)
            .map(|slot| self.rate_bps[slot as usize])
            .sum::<f64>()
            + 0.0
    }

    /// Aggregate arrival rate over all destinations, bits/s — the series the
    /// Horse demo plots per TE approach.
    pub fn total_arrival_rate(&self) -> f64 {
        self.active
            .iter()
            .map(|slot| self.rate_bps[slot as usize])
            .sum::<f64>()
            + 0.0
    }

    /// Load on each direction of `link` in bits/s: `(a→b, b→a)`. Served
    /// from the membership index; member lists are id-sorted, so the
    /// accumulation order matches the historical flow scan.
    pub fn link_load(&self, link: LinkId) -> (f64, f64) {
        let sum_dir = |forward: bool| -> f64 {
            let di = dlid(DirLink { link, forward });
            self.link_members.get(di).map_or(0.0, |members| {
                members
                    .iter()
                    .map(|&slot| self.rate_bps[slot as usize])
                    .sum()
            })
        };
        (sum_dir(true), sum_dir(false))
    }

    /// Load on every directed link with members, in ascending
    /// [`DirLink`] order, folded straight from the membership index.
    /// Member lists are id-sorted, so each link's float accumulation order
    /// is that of the historical flow-id-ordered scan. Used by samplers.
    pub fn link_loads(&self) -> impl Iterator<Item = (DirLink, f64)> + '_ {
        self.link_members
            .iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(di, members)| {
                let mut sum = 0.0;
                for &slot in members {
                    sum += self.rate_bps[slot as usize];
                }
                (undlid(di), sum)
            })
    }

    /// Flows (with current rates) traversing `link` in either direction,
    /// in id order. O(members) via the persistent link→flows index — used
    /// by switch port/flow statistics. The two per-direction member lists
    /// are id-sorted, so a linear merge yields the historical
    /// sorted-and-deduped output without sorting.
    pub fn flows_on_link(&self, link: LinkId) -> Vec<(FlowId, f64)> {
        let dir = |forward: bool| -> &[u32] {
            self.link_members
                .get(dlid(DirLink { link, forward }))
                .map_or(&[][..], |v| v.as_slice())
        };
        let (fwd, rev) = (dir(true), dir(false));
        let mut out = Vec::with_capacity(fwd.len() + rev.len());
        let (mut i, mut j) = (0, 0);
        loop {
            let slot = match (fwd.get(i), rev.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (Some(_), Some(&b)) => {
                    j += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            out.push((FlowId(slot as u64), self.rate_bps[slot as usize]));
        }
        out
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

    /// Full max–min fair re-solve by progressive filling with demand caps,
    /// over every flow. Returns the rate changes (only flows whose rate
    /// moved > EPS). Kept allocation-heavy and simple — this is the oracle
    /// the incremental solver is differentially tested against; the hot
    /// path is [`FluidNetwork::recompute_incremental`] /
    /// [`FluidNetwork::flush`].
    pub fn recompute(&mut self, topo: &Topology) -> Vec<RateChange> {
        self.stats.full_solves += 1;
        self.stats.flows_touched += self.active.len() as u64;
        let ids: Vec<u32> = self.active.iter().collect();
        // Directed-link remaining capacities and memberships.
        let mut remaining: HashMap<DirLink, f64> = HashMap::new();
        let mut members: HashMap<DirLink, Vec<FlowId>> = HashMap::new();
        let mut new_rate: BTreeMap<FlowId, f64> = BTreeMap::new();
        let mut frozen: BTreeSet<FlowId> = BTreeSet::new();

        for &slot in &ids {
            let id = FlowId(slot as u64);
            let s = slot as usize;
            let spec = &self.specs[s];
            let f_dlinks = &self.dlinks[s];
            new_rate.insert(id, 0.0);
            let blocked = f_dlinks.iter().any(|d| !topo.link(d.link).up);
            if blocked {
                frozen.insert(id); // down link: starved at 0
                continue;
            }
            if let Some(granted) = Self::granted_rate(spec, f_dlinks) {
                new_rate.insert(id, granted);
                frozen.insert(id);
                continue;
            }
            for d in f_dlinks {
                remaining
                    .entry(*d)
                    .or_insert_with(|| topo.link(d.link).capacity_bps);
                members.entry(*d).or_default().push(id);
            }
        }

        self.stats.links_touched += members.len() as u64;
        loop {
            // Count unfrozen members per directed link (rebuilt per round:
            // oracle simplicity over speed; the cost is what the counters
            // charge it for).
            let mut n_unfrozen: HashMap<DirLink, usize> = HashMap::new();
            for (d, flows) in &members {
                let n = flows.iter().filter(|f| !frozen.contains(f)).count();
                self.stats.work += flows.len() as u64;
                if n > 0 {
                    n_unfrozen.insert(*d, n);
                }
            }
            let unfrozen: Vec<FlowId> = new_rate
                .keys()
                .filter(|id| !frozen.contains(id))
                .copied()
                .collect();
            if unfrozen.is_empty() {
                break;
            }
            self.stats.iterations += 1;
            self.stats.work += unfrozen.len() as u64 + n_unfrozen.len() as u64;

            // The water level rises by the tightest constraint.
            let mut delta = f64::INFINITY;
            for (d, n) in &n_unfrozen {
                delta = delta.min(remaining[d].max(0.0) / *n as f64);
            }
            for id in &unfrozen {
                let headroom = self.specs[id.0 as usize].demand_bps - new_rate[id];
                delta = delta.min(headroom);
            }
            if delta.is_infinite() {
                break; // defensive: no constraints at all
            }
            if delta > EPS {
                for id in &unfrozen {
                    *new_rate.get_mut(id).expect("flow present") += delta;
                }
                for (d, n) in &n_unfrozen {
                    *remaining.get_mut(d).expect("dlink present") -= delta * *n as f64;
                }
            }

            // Freeze demand-satisfied flows and flows on saturated links.
            let mut progressed = false;
            for id in &unfrozen {
                let s = id.0 as usize;
                let satisfied = new_rate[id] >= self.specs[s].demand_bps - EPS;
                let bottlenecked = self.dlinks[s]
                    .iter()
                    .any(|d| remaining.get(d).copied().unwrap_or(0.0) <= EPS);
                if satisfied || bottlenecked {
                    frozen.insert(*id);
                    progressed = true;
                }
            }
            if !progressed {
                // Numerically stuck; freeze everything to guarantee progress.
                for id in unfrozen {
                    frozen.insert(id);
                }
            }
        }

        // Apply and report. A full solve supersedes anything deferred:
        // fold in pending granted-rate changes and drop pending seeds.
        self.pending_seeds.clear();
        let mut changes = std::mem::take(&mut self.pending_changes);
        for &slot in &ids {
            let id = FlowId(slot as u64);
            let s = slot as usize;
            self.settle(s);
            let nr = new_rate[&id];
            if (nr - self.rate_bps[s]).abs() > EPS {
                changes.push(RateChange {
                    flow: id,
                    old_bps: self.rate_bps[s],
                    new_bps: nr,
                });
            }
            self.rate_bps[s] = nr;
            self.refresh_prediction(s);
        }
        changes
    }

    /// Scoped max–min re-solve: expands `seeds` to the affected
    /// component(s) and water-fills each link-disjoint component
    /// independently with reusable dense-id scratch. Flows outside the
    /// components keep their rates — max–min fair allocations decompose
    /// across link-disjoint components, so the result matches a full
    /// solve restricted to the affected flows.
    fn recompute_scoped(&mut self, topo: &Topology, seeds: &[DirLink]) -> Vec<RateChange> {
        self.stats.solves += 1;
        self.stats.seed_dlinks += seeds.len() as u64;

        // Component closure: BFS over the flow↔directed-link sharing
        // graph, one component per seed-order island. Seeds belonging to
        // an already-discovered component are absorbed by `visited`.
        let mut cl = std::mem::take(&mut self.closure);
        cl.visited.clear();
        cl.affected_set.clear();
        cl.queue.clear();
        cl.flows_flat.clear();
        cl.comp_ends.clear();
        cl.apply.clear();
        for seed in seeds {
            let sdi = dlid(*seed) as u32;
            if !cl.visited.insert(sdi) {
                continue;
            }
            cl.queue.push(sdi);
            while let Some(di) = cl.queue.pop() {
                let Some(members) = self.link_members.get(di as usize) else {
                    continue;
                };
                for &slot in members {
                    if cl.affected_set.insert(slot) {
                        cl.flows_flat.push(slot);
                        for d2 in &self.dlinks[slot as usize] {
                            let di2 = dlid(*d2) as u32;
                            if cl.visited.insert(di2) {
                                cl.queue.push(di2);
                            }
                        }
                    }
                }
            }
            if cl.comp_ends.last().copied().unwrap_or(0) < cl.flows_flat.len() {
                cl.comp_ends.push(cl.flows_flat.len());
            }
        }
        self.stats.flows_touched += cl.flows_flat.len() as u64;

        if cl.comp_ends.is_empty() {
            self.closure = cl;
            return Vec::new();
        }

        let mut start = 0;
        for &end in &cl.comp_ends {
            self.solve_component(topo, &cl.flows_flat[start..end], &mut cl.apply);
            start = end;
        }

        // Apply to affected flows only, in ascending id order (matching
        // the historical sorted-affected apply): settle lazily-accrued
        // bytes at the old rate, swap in the new rate, re-predict.
        cl.apply.sort_unstable_by_key(|&(slot, _)| slot);
        let mut changes = Vec::with_capacity(cl.apply.len().min(16));
        for i in 0..cl.apply.len() {
            let (slot32, nr) = cl.apply[i];
            let s = slot32 as usize;
            self.settle(s);
            let old = self.rate_bps[s];
            if (nr - old).abs() > EPS {
                changes.push(RateChange {
                    flow: FlowId(slot32 as u64),
                    old_bps: old,
                    new_bps: nr,
                });
            }
            self.rate_bps[s] = nr;
            self.refresh_prediction(s);
        }
        self.closure = cl;
        changes
    }

    /// Water-fills one link-disjoint component into `out`, counting its
    /// effort into the solver stats. Reads specs/paths/capacities and
    /// writes only the waterfill scratch, the stats and `out`. The
    /// arithmetic — constraint minimum, rate increments, freeze rules — is
    /// exactly the oracle's scoped solver restricted to one component.
    fn solve_component(&mut self, topo: &Topology, flows: &[u32], out: &mut Vec<(u32, f64)>) {
        let ws = &mut self.waterfill;
        self.stats.scratch_reuses += ws.warm as u64;
        ws.warm = true;
        ws.epoch += 1;
        let dl_cap = self.link_members.len();
        if ws.dl_epoch.len() < dl_cap {
            ws.dl_epoch.resize(dl_cap, 0);
            ws.dl_local.resize(dl_cap, 0);
        }
        ws.remaining.clear();
        ws.n_unfrozen.clear();
        ws.new_rate.clear();
        ws.demand.clear();
        ws.flow_slot.clear();
        ws.flow_dl_off.clear();
        ws.flow_dl.clear();
        ws.unfrozen.clear();

        // Subproblem setup over the component's flows only, with full
        // capacities: every flow on a component link is in the component.
        for &slot in flows {
            let s = slot as usize;
            let f_dlinks = &self.dlinks[s];
            let spec = &self.specs[s];
            if f_dlinks.iter().any(|d| !topo.link(d.link).up) {
                out.push((slot, 0.0)); // down link: starved at 0
                continue;
            }
            if let Some(granted) = Self::granted_rate(spec, f_dlinks) {
                out.push((slot, granted));
                continue;
            }
            let li = ws.flow_slot.len() as u32;
            ws.flow_slot.push(slot);
            ws.new_rate.push(0.0);
            ws.demand.push(spec.demand_bps);
            ws.flow_dl_off.push(ws.flow_dl.len() as u32);
            for d in f_dlinks {
                let di = dlid(*d);
                if ws.dl_epoch[di] != ws.epoch {
                    ws.dl_epoch[di] = ws.epoch;
                    ws.dl_local[di] = ws.remaining.len() as u32;
                    ws.remaining.push(topo.link(d.link).capacity_bps);
                    ws.n_unfrozen.push(0);
                }
                let ld = ws.dl_local[di];
                ws.flow_dl.push(ld);
                ws.n_unfrozen[ld as usize] += 1;
            }
            ws.unfrozen.push(li);
        }
        ws.flow_dl_off.push(ws.flow_dl.len() as u32);
        self.stats.links_touched += ws.remaining.len() as u64;

        // Progressive filling. Per-dlink unfrozen counts are maintained
        // incrementally as flows freeze, so each round costs O(unfrozen
        // flows + constrained links) instead of a full membership rebuild.
        while !ws.unfrozen.is_empty() {
            self.stats.iterations += 1;
            self.stats.work += ws.unfrozen.len() as u64 + ws.remaining.len() as u64;

            // The water level rises by the tightest constraint.
            let mut delta = f64::INFINITY;
            for ld in 0..ws.remaining.len() {
                let n = ws.n_unfrozen[ld];
                if n > 0 {
                    delta = delta.min(ws.remaining[ld].max(0.0) / n as f64);
                }
            }
            for &li in &ws.unfrozen {
                let headroom = ws.demand[li as usize] - ws.new_rate[li as usize];
                delta = delta.min(headroom);
            }
            if delta.is_infinite() {
                break; // defensive: no constraints at all
            }
            if delta > EPS {
                for &li in &ws.unfrozen {
                    ws.new_rate[li as usize] += delta;
                }
                for ld in 0..ws.remaining.len() {
                    let n = ws.n_unfrozen[ld];
                    if n > 0 {
                        ws.remaining[ld] -= delta * n as f64;
                    }
                }
            }

            // Freeze demand-satisfied flows and flows on saturated links,
            // decrementing the per-dlink counts as they leave.
            let mut progressed = false;
            let mut i = 0;
            while i < ws.unfrozen.len() {
                let li = ws.unfrozen[i] as usize;
                let satisfied = ws.new_rate[li] >= ws.demand[li] - EPS;
                let (o0, o1) = (ws.flow_dl_off[li] as usize, ws.flow_dl_off[li + 1] as usize);
                let bottlenecked = ws.flow_dl[o0..o1]
                    .iter()
                    .any(|&ld| ws.remaining[ld as usize] <= EPS);
                if satisfied || bottlenecked {
                    for &ld in &ws.flow_dl[o0..o1] {
                        ws.n_unfrozen[ld as usize] -= 1;
                    }
                    ws.unfrozen.swap_remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break; // numerically stuck; everything left stays put
            }
        }

        for li in 0..ws.flow_slot.len() {
            out.push((ws.flow_slot[li], ws.new_rate[li]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;
    use std::net::Ipv4Addr;

    const GBPS: f64 = 1e9;

    /// h0 --- s --- h1 and h2 --- s (star with a shared uplink to h1).
    fn star() -> (Topology, Vec<NodeId>, NodeId) {
        let mut t = Topology::new();
        let sn: crate::addr::Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let hosts: Vec<NodeId> = (0..3)
            .map(|i| t.add_host(format!("h{i}"), Ipv4Addr::new(10, 0, 0, i + 1), sn))
            .collect();
        let s = t.add_switch("s", Ipv4Addr::new(10, 255, 0, 1));
        for h in &hosts {
            t.add_link(*h, s, GBPS, 1000);
        }
        (t, hosts, s)
    }

    fn tuple(i: u8) -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, i),
            1000 + i as u16,
            Ipv4Addr::new(10, 0, 9, i),
            2000,
        )
    }

    fn path_between(t: &Topology, a: NodeId, b: NodeId) -> Vec<LinkId> {
        t.all_shortest_paths(a, b).into_iter().next().unwrap()
    }

    #[test]
    fn single_flow_capped_by_demand() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let spec = FlowSpec::cbr(h[0], h[1], tuple(1), 0.3 * GBPS);
        let p = path_between(&t, h[0], h[1]);
        let (id, _) = net.start(SimTime::ZERO, spec, p, &t).unwrap();
        assert!((net.rate_of(id).unwrap() - 0.3 * GBPS).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        // Both flows sink at h1 → share the s→h1 direction of that link.
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[2], h[1], tuple(2), GBPS),
                path_between(&t, h[2], h[1]),
                &t,
            )
            .unwrap();
        assert!((net.rate_of(a).unwrap() - 0.5 * GBPS).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - 0.5 * GBPS).abs() < 1.0);
        assert!((net.arrival_rate_at(h[1]) - GBPS).abs() < 1.0);
    }

    #[test]
    fn max_min_respects_small_demands() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), 0.2 * GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[2], h[1], tuple(2), GBPS),
                path_between(&t, h[2], h[1]),
                &t,
            )
            .unwrap();
        // Flow a is demand-limited to 0.2; b picks up the slack (0.8).
        assert!((net.rate_of(a).unwrap() - 0.2 * GBPS).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - 0.8 * GBPS).abs() < 1.0);
    }

    #[test]
    fn opposite_directions_do_not_share() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[1], h[0], tuple(2), GBPS),
                path_between(&t, h[1], h[0]),
                &t,
            )
            .unwrap();
        // Full duplex: both directions carry a full gigabit.
        assert!((net.rate_of(a).unwrap() - GBPS).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - GBPS).abs() < 1.0);
    }

    #[test]
    fn down_link_starves_flow() {
        let (mut t, h, s) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (lid, _) = t.link_between(h[0], s).unwrap();
        t.link_mut(lid).up = false;
        let changes = net.recompute(&t);
        assert_eq!(net.rate_of(a), Some(0.0));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].new_bps, 0.0);
    }

    #[test]
    fn completion_time_of_bounded_flow() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        // 1 Gbit = 125 MB at 1 Gbps → 1 second.
        let spec = FlowSpec::transfer(h[0], h[1], tuple(1), GBPS, 125_000_000);
        let (id, _) = net
            .start(SimTime::ZERO, spec, path_between(&t, h[0], h[1]), &t)
            .unwrap();
        let (t_done, done_id) = net.next_completion().unwrap();
        assert_eq!(done_id, id);
        assert!((t_done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance(t_done);
        assert!(net.is_complete(id));
    }

    #[test]
    fn completion_reflects_rate_share() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let spec = FlowSpec::transfer(h[0], h[1], tuple(1), GBPS, 125_000_000);
        let (id, _) = net
            .start(SimTime::ZERO, spec, path_between(&t, h[0], h[1]), &t)
            .unwrap();
        // A competing flow halves the rate after 0.5 s.
        net.start(
            SimTime::from_millis(500),
            FlowSpec::cbr(h[2], h[1], tuple(2), GBPS),
            path_between(&t, h[2], h[1]),
            &t,
        )
        .unwrap();
        // Remaining 62.5 MB at 0.5 Gbps → 1 more second; total 1.5 s.
        let (t_done, done_id) = net.next_completion().unwrap();
        assert_eq!(done_id, id);
        assert!((t_done.as_secs_f64() - 1.5).abs() < 1e-6, "{t_done}");
    }

    #[test]
    fn stop_frees_bandwidth() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[2], h[1], tuple(2), GBPS),
                path_between(&t, h[2], h[1]),
                &t,
            )
            .unwrap();
        let (prog, changes) = net.stop(SimTime::from_secs(1), a, &t).unwrap();
        // a ran at 0.5 Gbps for 1 s = 62.5 MB.
        assert!((prog.bytes_sent - 62_500_000.0).abs() < 1.0);
        assert_eq!(changes.len(), 1);
        assert!((net.rate_of(b).unwrap() - GBPS).abs() < 1.0);
    }

    #[test]
    fn reroute_preserves_progress() {
        // Square a-{x,y}-b with two disjoint paths.
        let mut t = Topology::new();
        let sn: crate::addr::Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let a = t.add_host("a", Ipv4Addr::new(10, 0, 0, 1), sn);
        let b = t.add_host("b", Ipv4Addr::new(10, 0, 0, 2), sn);
        let x = t.add_switch("x", Ipv4Addr::new(10, 255, 0, 1));
        let y = t.add_switch("y", Ipv4Addr::new(10, 255, 0, 2));
        let (ax, ..) = t.add_link(a, x, GBPS, 0);
        let (xb, ..) = t.add_link(x, b, GBPS, 0);
        let (ay, ..) = t.add_link(a, y, GBPS, 0);
        let (yb, ..) = t.add_link(y, b, GBPS, 0);
        let mut net = FluidNetwork::new();
        let spec = FlowSpec::cbr(a, b, tuple(1), GBPS);
        let (id, _) = net.start(SimTime::ZERO, spec, vec![ax, xb], &t).unwrap();
        net.advance(SimTime::from_secs(1));
        let before = net.progress(id).unwrap().bytes_sent;
        net.reroute(SimTime::from_secs(1), id, vec![ay, yb], &t)
            .unwrap();
        let after = net.progress(id).unwrap();
        assert_eq!(after.bytes_sent, before);
        assert_eq!(net.path(id).unwrap(), &[ay, yb]);
        assert!((after.rate_bps - GBPS).abs() < 1.0);
        assert_eq!(net.link_load(ax), (0.0, 0.0));
        let (fwd, _) = net.link_load(ay);
        assert!((fwd - GBPS).abs() < 1.0);
    }

    #[test]
    fn broken_path_rejected() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let wrong = path_between(&t, h[1], h[2]); // doesn't start at h0
        let err = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                wrong,
                &t,
            )
            .unwrap_err();
        assert_eq!(err, FluidError::BrokenPath);
    }

    #[test]
    fn zero_demand_flow_stays_zero() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (id, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), 0.0),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        assert_eq!(net.rate_of(id), Some(0.0));
        assert_eq!(net.next_completion(), None);
    }

    #[test]
    fn three_level_waterfill() {
        // One shared 1G link with three flows of demands 0.1, 0.4, 1.0:
        // max-min gives 0.1, 0.4, 0.5.
        let mut t = Topology::new();
        let sn: crate::addr::Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let src = t.add_host("src", Ipv4Addr::new(10, 0, 0, 1), sn);
        let dst = t.add_host("dst", Ipv4Addr::new(10, 0, 0, 2), sn);
        let (l, ..) = t.add_link(src, dst, GBPS, 0);
        let mut net = FluidNetwork::new();
        let demands = [0.1, 0.4, 1.0];
        let ids: Vec<FlowId> = demands
            .iter()
            .enumerate()
            .map(|(i, d)| {
                net.start(
                    SimTime::ZERO,
                    FlowSpec::cbr(src, dst, tuple(i as u8), d * GBPS),
                    vec![l],
                    &t,
                )
                .unwrap()
                .0
            })
            .collect();
        let expected = [0.1, 0.4, 0.5];
        for (id, e) in ids.iter().zip(expected) {
            assert!(
                (net.rate_of(*id).unwrap() - e * GBPS).abs() < 1.0,
                "flow {id} expected {e} Gbps got {} bps",
                net.rate_of(*id).unwrap()
            );
        }
        let (fwd, rev) = net.link_load(l);
        assert!((fwd - GBPS).abs() < 1.0);
        assert_eq!(rev, 0.0);
    }

    #[test]
    fn sub_nanosecond_completion_tails_terminate() {
        // Regression: a residual of a fraction of a byte at gigabit rates
        // yields a completion delay below 1 ns, which must not reschedule
        // at the same instant forever.
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        // An awkward size that leaves float crumbs when shared 3 ways.
        let spec = FlowSpec::transfer(h[0], h[1], tuple(1), GBPS, 1_000_003);
        let (id, _) = net
            .start(SimTime::ZERO, spec, path_between(&t, h[0], h[1]), &t)
            .unwrap();
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let Some((t_done, did)) = net.next_completion() else {
                break;
            };
            assert_eq!(did, id);
            assert!(t_done > now, "completion must move time forward");
            now = t_done;
            net.advance(now);
            if net.is_complete(id) {
                return; // terminated — pass
            }
        }
        panic!("completion never converged");
    }

    #[test]
    fn elastic_flows_share_without_demand_cap() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        // One elastic flow alone: grabs the full link.
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::elastic(h[0], h[1], tuple(1), None),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        assert!((net.rate_of(a).unwrap() - GBPS).abs() < 1.0);
        // A CBR competitor at 0.3 G: elastic takes the remaining 0.7 G.
        let (_b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[2], h[1], tuple(2), 0.3 * GBPS),
                path_between(&t, h[2], h[1]),
                &t,
            )
            .unwrap();
        assert!((net.rate_of(a).unwrap() - 0.7 * GBPS).abs() < 1.0);
    }

    #[test]
    fn elastic_bounded_transfer_completes() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        // 125 MB elastic transfer on an idle 1 Gbps path → 1 s.
        let (id, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::elastic(h[0], h[1], tuple(1), Some(125_000_000)),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (t_done, did) = net.next_completion().unwrap();
        assert_eq!(did, id);
        assert!((t_done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flows_on_link_reports_both_directions() {
        let (t, h, s) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (lid, _) = t.link_between(h[0], s).unwrap();
        let on = net.flows_on_link(lid);
        assert_eq!(on.len(), 1);
        assert_eq!(on[0].0, a);
    }

    #[test]
    fn tuple_index_tracks_start_stop() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let spec = FlowSpec::cbr(h[0], h[1], tuple(1), GBPS);
        let (id, _) = net
            .start(SimTime::ZERO, spec, path_between(&t, h[0], h[1]), &t)
            .unwrap();
        assert_eq!(net.flow_by_tuple(&tuple(1)), Some(id));
        assert_eq!(net.flow_by_tuple(&tuple(2)), None);
        net.stop(SimTime::ZERO, id, &t).unwrap();
        assert_eq!(net.flow_by_tuple(&tuple(1)), None);
    }

    #[test]
    fn deferred_burst_solves_once() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        // Two flows into the same sink, queued as one burst.
        let ids: Vec<FlowId> = [0, 2]
            .iter()
            .map(|&i| {
                net.start_deferred(
                    SimTime::ZERO,
                    FlowSpec::cbr(h[i], h[1], tuple(i as u8 + 1), GBPS),
                    path_between(&t, h[i], h[1]),
                    &t,
                )
                .unwrap()
            })
            .collect();
        assert!(net.has_pending());
        let before = net.solver_stats().solves;
        net.flush(&t);
        assert!(!net.has_pending());
        assert_eq!(
            net.solver_stats().solves,
            before + 1,
            "one burst, one solve"
        );
        for id in ids {
            assert!((net.rate_of(id).unwrap() - 0.5 * GBPS).abs() < 1.0);
        }
        // A second flush with nothing queued is free.
        net.flush(&t);
        assert_eq!(net.solver_stats().solves, before + 1);
    }

    #[test]
    fn incremental_solution_is_a_fixed_point_of_the_full_solver() {
        let (mut t, h, s) = star();
        let mut net = FluidNetwork::new();
        for (i, pair) in [(0, 1), (2, 1), (1, 0)].iter().enumerate() {
            net.start(
                SimTime::ZERO,
                FlowSpec::cbr(h[pair.0], h[pair.1], tuple(i as u8 + 1), GBPS),
                path_between(&t, h[pair.0], h[pair.1]),
                &t,
            )
            .unwrap();
        }
        let (lid, _) = t.link_between(h[2], s).unwrap();
        t.link_mut(lid).up = false;
        net.recompute_incremental(&t, &[Dirty::Link(lid)]);
        // The full oracle must agree: re-solving from scratch changes no
        // rate beyond EPS.
        let residual = net.recompute(&t);
        assert!(
            residual.is_empty(),
            "full solve disagreed with incremental: {residual:?}"
        );
    }

    #[test]
    fn link_down_then_up_restores_rates() {
        let (mut t, h, s) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[2], h[1], tuple(2), GBPS),
                path_between(&t, h[2], h[1]),
                &t,
            )
            .unwrap();
        let rate_a = net.rate_of(a).unwrap();
        let rate_b = net.rate_of(b).unwrap();
        let (lid, _) = t.link_between(h[2], s).unwrap();
        t.link_mut(lid).up = false;
        net.recompute_incremental(&t, &[Dirty::Link(lid)]);
        assert_eq!(net.rate_of(b), Some(0.0), "starved by the failure");
        assert!(
            (net.rate_of(a).unwrap() - GBPS).abs() < 1.0,
            "survivor picks up the slack"
        );
        t.link_mut(lid).up = true;
        net.recompute_incremental(&t, &[Dirty::Link(lid)]);
        assert!((net.rate_of(a).unwrap() - rate_a).abs() < 1.0, "restored");
        assert!((net.rate_of(b).unwrap() - rate_b).abs() < 1.0, "restored");
    }

    #[test]
    fn disjoint_components_are_untouched_by_incremental_solves() {
        // Two independent bottlenecks; churn on one must not count work on
        // the other.
        let mut t = Topology::new();
        let sn: crate::addr::Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let hosts: Vec<NodeId> = (0..4)
            .map(|i| t.add_host(format!("h{i}"), Ipv4Addr::new(10, 0, 0, i + 1), sn))
            .collect();
        let (_l01, ..) = t.add_link(hosts[0], hosts[1], GBPS, 0);
        let (l23, ..) = t.add_link(hosts[2], hosts[3], GBPS, 0);
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(hosts[0], hosts[1], tuple(1), GBPS),
                path_between(&t, hosts[0], hosts[1]),
                &t,
            )
            .unwrap();
        net.reset_solver_stats();
        // Start a second flow on the *other* pair: the solve must only
        // touch that one flow.
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(hosts[2], hosts[3], tuple(2), 0.4 * GBPS),
                vec![l23],
                &t,
            )
            .unwrap();
        let stats = net.solver_stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.full_solves, 0);
        assert_eq!(stats.flows_touched, 1, "only the new flow's component");
        assert!((net.rate_of(a).unwrap() - GBPS).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - 0.4 * GBPS).abs() < 1.0);
    }

    // ---- Arena-shape-specific tests ----------------------------------

    #[test]
    fn stale_heap_entries_are_dropped() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (a, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::transfer(h[0], h[1], tuple(1), GBPS, 125_000_000),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        let (b, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::transfer(h[2], h[1], tuple(2), GBPS, 250_000_000),
                path_between(&t, h[2], h[1]),
                &t,
            )
            .unwrap();
        // Both predictions were refreshed when the shared solve halved the
        // rates; retiring `a` leaves its entries stale.
        net.stop(SimTime::ZERO, a, &t).unwrap();
        let (_, winner) = net.next_completion().unwrap();
        assert_eq!(winner, b, "retired flow's entries are skipped");
        assert!(net.solver_stats().heap_stale_pops > 0);
    }

    #[test]
    fn advance_is_constant_time_and_lazy() {
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (id, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::cbr(h[0], h[1], tuple(1), 0.4 * GBPS),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        net.reset_solver_stats();
        for ms in 1..=100 {
            net.advance(SimTime::from_millis(ms));
        }
        // 100 advances, zero per-flow accrual writes…
        assert_eq!(net.solver_stats().advance_touches, 0);
        // …yet reads see exactly the accrued bytes.
        let bytes = net.progress(id).unwrap().bytes_sent;
        assert!((bytes - 0.4 * GBPS * 0.1 / 8.0).abs() < 1.0, "{bytes}");
        // Reading twice (idempotence) and advancing to the same instant
        // changes nothing.
        net.advance(SimTime::from_millis(100));
        assert_eq!(net.progress(id).unwrap().bytes_sent, bytes);
    }

    #[test]
    fn settle_preserves_derived_bytes() {
        // A rate change mid-transfer settles accrued bytes; the derived
        // total before and after the settle is identical.
        let (t, h, _) = star();
        let mut net = FluidNetwork::new();
        let (id, _) = net
            .start(
                SimTime::ZERO,
                FlowSpec::transfer(h[0], h[1], tuple(1), GBPS, 250_000_000),
                path_between(&t, h[0], h[1]),
                &t,
            )
            .unwrap();
        net.advance(SimTime::from_millis(700));
        let before = net.progress(id).unwrap().bytes_sent;
        // A competitor forces a re-solve (and thus a settle) at 700 ms.
        net.start(
            SimTime::from_millis(700),
            FlowSpec::cbr(h[2], h[1], tuple(2), GBPS),
            path_between(&t, h[2], h[1]),
            &t,
        )
        .unwrap();
        assert_eq!(net.progress(id).unwrap().bytes_sent, before);
        assert!(net.solver_stats().advance_touches > 0, "settled on change");
    }
}
