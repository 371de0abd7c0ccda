//! The BGP speaker: sessions + RIBs + export policy.
//!
//! One speaker per emulated router. The speaker owns a [`Session`] per
//! configured peer and a [`LocRib`]; it reacts to transport events, bytes
//! and timer polls, and emits [`SpeakerOutput`]s:
//!
//! * `SendBytes` — wire bytes for a peer's transport (the Connection
//!   Manager shuttles them and counts them as control-plane activity,
//!   holding the experiment clock in FTI mode);
//! * `SessionUp` / `SessionDown` — peering state changes;
//! * `RouteChanged` — the effective (multipath) next-hop set of a prefix
//!   changed; the Connection Manager translates these into FIB updates on
//!   the simulated router ("Horse installs those routes in the respective
//!   data planes", §2 of the paper).
//!
//! Export policy is plain eBGP: advertise the best path to every peer
//! except the one it was learned from (split horizon), prepend the local
//! AS, set next-hop-self, and strip LOCAL_PREF/MED. Announcements with the
//! same attributes are batched into one UPDATE.
//!
//! ## Fan-out
//!
//! What a best-path change exports is a property of the change, not of
//! the peer: the export transform runs once per `(best attr id, export
//! route-map, prefix marker)` with NEXT_HOP left open, and its result is
//! kept as the encoded path-attribute block of the UPDATEs that will carry
//! it ([`ExportBlocks`]). Split horizon, the peer-AS loop check, MRAI and
//! the Adj-RIB-Out stay per peer. Each peer's UPDATE is a copy of one
//! encoded [`Image`] with the peer's own address patched into the four
//! NEXT_HOP bytes; the image is rebuilt only when a peer's `(export id,
//! prefix ids)` group differs from the one the image was built for. See
//! "UPDATE fast path" in DESIGN.md.
//!
//! ## Compact-id speaker state
//!
//! All per-peer and per-prefix bookkeeping is arena-shaped (see
//! [`crate::rib`] for the id layer). Peers are a dense index `0..n`
//! assigned in ascending peer-address order at construction — the
//! iteration order of the `BTreeMap` this replaces, which wire-byte
//! determinism depends on (peers are synced in that order). Per-peer
//! state (`sessions`, `adj_out`, `mrai_*`) lives in
//! parallel `Vec`s indexed by that peer index; per-prefix state
//! (`adj_out` rows, `fib_view`) is indexed by [`PrefixId`]. UPDATE
//! handling is batched decode→intern→decide→export over id slices: the
//! RIB returns affected `PrefixId` slices sorted by prefix value, and
//! reconcile/sync walk them with array loads instead of per-NLRI tree
//! probes. Reconcile-scale scratch buffers (the pump work list, affected
//! set, announce groups) are held on the speaker and reused, so a
//! post-convergence reconcile allocates nothing.

use crate::msg::{
    announce_next_hop_offset, check_announce, encode_attrs, encode_updates, PathAttributes,
};
use crate::policy::RouteMap;
use crate::rib::{AttrId, BestPath, HopSetId, LocRib, RibStats};
use crate::session::{PeerConfig, Session, SessionEvent, SessionState, TimerConfig};
use bytes::{Bytes, BytesMut};
use horse_net::addr::Ipv4Prefix;
use horse_net::intern::{FastMap, IdSet, PrefixId};
use horse_sim::SimTime;
use horse_trace::{ComponentLog, TraceData, Tracer};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One prefix handed from a decision read down to the per-peer syncs.
type Decided = (PrefixId, Option<BestPath>);

/// In an `adj_out` row: nothing advertised for this prefix. As an
/// [`Image`]'s export id: the image withdraws.
const NOT_ADVERTISED: u32 = u32::MAX;

/// The exported attribute sets of one speaker, each stored once as the
/// encoded path-attribute block of the UPDATEs that announce it, with
/// NEXT_HOP zeroed: next-hop-self is a static function of the peer, so two
/// exports toward one peer are equal exactly when their blocks are. Ids
/// are dense, in first-export order, and never reused — what `adj_out`
/// rows and announce groups compare.
#[derive(Debug, Default)]
struct ExportBlocks {
    /// Per id: the block, and the offset of its NEXT_HOP value.
    blocks: Vec<(Arc<[u8]>, usize)>,
    ids: FastMap<Arc<[u8]>, u32>,
}

impl ExportBlocks {
    fn intern(&mut self, block: &[u8], next_hop_at: usize) -> u32 {
        if let Some(&id) = self.ids.get(block) {
            return id;
        }
        let id = self.blocks.len() as u32;
        let block: Arc<[u8]> = block.into();
        self.blocks.push((block.clone(), next_hop_at));
        self.ids.insert(block, id);
        id
    }
}

/// A memoized export transform that permitted the route: the block it
/// produced, and the Loc-RIB attributes it started from — the per-peer
/// loop check reads their AS path.
#[derive(Debug)]
struct Exported {
    id: u32,
    best: Arc<PathAttributes>,
}

/// The encoded UPDATE(s) for one group of a sync — every prefix in `ids`
/// announced with export `export`, or withdrawn — kept so the next peer
/// whose group is the same gets a copy instead of an encoding.
#[derive(Debug)]
struct Image {
    export: u32,
    ids: Vec<PrefixId>,
    /// The messages back to back; `ends[i]` is where message `i` ends.
    bytes: BytesMut,
    ends: Vec<usize>,
    /// Offset of the NEXT_HOP value from the start of each message.
    next_hop_at: usize,
}

impl Default for Image {
    fn default() -> Image {
        Image {
            export: NOT_ADVERTISED,
            ids: Vec::new(),
            bytes: BytesMut::new(),
            ends: Vec::new(),
            next_hop_at: 0,
        }
    }
}

/// Speaker configuration.
#[derive(Debug, Clone)]
pub struct BgpConfig {
    /// Local AS number.
    pub asn: u16,
    /// Router id (also used as the BGP identifier in OPENs).
    pub router_id: Ipv4Addr,
    /// Session timer settings.
    pub timers: TimerConfig,
    /// Peerings.
    pub peers: Vec<PeerConfig>,
    /// Networks originated at startup.
    pub networks: Vec<Ipv4Prefix>,
    /// Enable ECMP multipath in the decision process.
    pub multipath: bool,
    /// Per-peer import/export route-maps, keyed by peer address. Absent
    /// peers (the common case) have no policy: permit everything
    /// unchanged, byte-identical to the pre-policy speaker.
    pub policies: std::collections::BTreeMap<Ipv4Addr, crate::policy::PeerPolicy>,
}

/// What a speaker emits, generic over how a route change carries its
/// next-hop set: queued inside the speaker as the RIB's interned
/// [`HopSetId`], handed out by [`BgpSpeaker::drain_outputs`] as a slice
/// borrowed from the RIB, and owned in a [`SpeakerOutput`].
#[derive(Debug, Clone, PartialEq)]
pub enum Output<H> {
    /// Bytes to deliver to a peer.
    SendBytes {
        /// Destination peer.
        peer: Ipv4Addr,
        /// Encoded message bytes.
        bytes: Bytes,
    },
    /// A session reached Established.
    SessionUp {
        /// The peer.
        peer: Ipv4Addr,
    },
    /// A session went down.
    SessionDown {
        /// The peer.
        peer: Ipv4Addr,
    },
    /// The effective next-hop set for `prefix` changed (empty = withdrawn).
    RouteChanged {
        /// The prefix.
        prefix: Ipv4Prefix,
        /// New multipath next-hop set, sorted.
        next_hops: H,
    },
}

impl<H> Output<H> {
    /// The same output with a route change's next-hop set converted.
    pub(crate) fn map_hops<T>(self, f: impl FnOnce(H) -> T) -> Output<T> {
        match self {
            Output::SendBytes { peer, bytes } => Output::SendBytes { peer, bytes },
            Output::SessionUp { peer } => Output::SessionUp { peer },
            Output::SessionDown { peer } => Output::SessionDown { peer },
            Output::RouteChanged { prefix, next_hops } => Output::RouteChanged {
                prefix,
                next_hops: f(next_hops),
            },
        }
    }
}

/// Outputs drained with [`BgpSpeaker::take_outputs`]: each route change
/// owns a copy of its next-hop set.
pub type SpeakerOutput = Output<Vec<Ipv4Addr>>;

/// A complete BGP routing daemon, sans-IO.
#[derive(Debug)]
pub struct BgpSpeaker {
    /// Static configuration.
    pub config: BgpConfig,
    /// Peer addresses in ascending order — the dense peer index. All
    /// per-peer `Vec`s below are parallel to this one.
    peer_addrs: Vec<Ipv4Addr>,
    sessions: Vec<Session>,
    rib: LocRib,
    /// Adj-RIB-Out per peer index: row indexed by prefix id holding the
    /// last advertised export id ([`NOT_ADVERTISED`] = nothing). Rows grow
    /// lazily; a session drop clears the row.
    adj_out: Vec<Vec<u32>>,
    exports: ExportBlocks,
    /// Memoized export transform, keyed by `(best-path attr id, export
    /// class, prefix marker)`: `None` means an export route-map denied the
    /// route. Everything that depends on the peer itself is checked
    /// outside the memo: split horizon (where the best path was learned)
    /// and the loop check against the peer's AS. The prefix marker is 0
    /// unless the class's export map matches on prefix, in which case it
    /// is the prefix id + 1 — attr-only keying would conflate prefixes
    /// such a map distinguishes. The transform reads only the speaker's
    /// own AS and the class's map, so entries live until
    /// [`BgpSpeaker::set_peer_policy`] clears the memo. A map, not a dense
    /// vector: attr ids are pool-global.
    export_memo: FastMap<(u32, u32, u32), Option<Exported>>,
    export_hits: u64,
    export_misses: u64,
    /// Announcements withheld because the prefix cannot follow its export
    /// block in any UPDATE (see [`BgpSpeaker::unsendable_routes`]).
    unsendable: u64,
    /// Import route-map per peer index (`None` = permit all, unchanged).
    import_policy: Vec<Option<Arc<RouteMap>>>,
    /// Export route-map per peer index, applied between split horizon and
    /// the standard eBGP transform.
    export_policy: Vec<Option<Arc<RouteMap>>>,
    /// Per peer index: the lowest peer index with an equal export map (or
    /// equally none). Peers of one class share every memoized transform.
    export_class: Vec<usize>,
    /// Precomputed per peer index: the export map matches on prefix, so
    /// the export memo must key on the prefix id too.
    export_prefix_sensitive: Vec<bool>,
    /// Last next-hop set reported per prefix id, by the RIB's interned set
    /// id ([`HopSetId::EMPTY`] = absent).
    fib_view: Vec<HopSetId>,
    /// Queued outputs, route changes by interned next-hop set.
    outputs: Vec<Output<HopSetId>>,
    started: bool,
    /// Per peer index: earliest instant the next announcement burst may go
    /// out (MRAI hold-down); `SimTime::ZERO` = unarmed.
    mrai_ready: Vec<SimTime>,
    /// Per peer index: prefixes whose announcements are waiting out the
    /// MRAI.
    mrai_pending: Vec<IdSet>,
    /// Set whenever an entry point may have moved [`BgpSpeaker::next_deadline`];
    /// cleared by [`BgpSpeaker::take_deadline_dirty`]. Lets a scheduler
    /// re-index this speaker's deadline only when it was touched, instead
    /// of polling every speaker every step.
    deadline_dirty: bool,
    /// Structured trace sink (FSM transitions, UPDATE tx/rx, MRAI flushes,
    /// RIB work). Defaults to the null tracer: one discriminant check per
    /// site, no snapshots, no allocation.
    tracer: Tracer,
    /// Peer indices whose session may hold queued events: it was fed
    /// bytes or a transport change, a timer fired on it, or a sync sent on
    /// it. [`BgpSpeaker::pump`] visits only these.
    touched: Vec<usize>,
    /// The last encoded image per sync group position: slot 0 the
    /// withdrawals, slot `1 + g` announce group `g`.
    images: Vec<Image>,
    // Reusable scratch (capacity persists across calls; contents do not).
    scratch_visit: Vec<usize>,
    scratch_events: Vec<SessionEvent>,
    scratch_block: BytesMut,
    scratch_prefixes: Vec<Ipv4Prefix>,
    scratch_affected: Vec<PrefixId>,
    scratch_newly_up: Vec<usize>,
    scratch_flush: Vec<PrefixId>,
    scratch_decided: Vec<Decided>,
    scratch_withdraws: Vec<PrefixId>,
    /// Announce groups; a sync uses a prefix of this list and reuses the
    /// inner buffers of earlier syncs.
    scratch_groups: Vec<(u32, Vec<PrefixId>)>,
    scratch_group_of: FastMap<u32, usize>,
}

/// Short FSM-state label for trace events.
fn state_name(s: SessionState) -> &'static str {
    match s {
        SessionState::Idle => "idle",
        SessionState::Connect => "connect",
        SessionState::OpenSent => "open-sent",
        SessionState::OpenConfirm => "open-confirm",
        SessionState::Established => "established",
    }
}

impl BgpSpeaker {
    /// Builds a speaker (idle until [`BgpSpeaker::start`]) with a private
    /// attribute store.
    pub fn new(config: BgpConfig) -> BgpSpeaker {
        let rib = LocRib::new(config.asn, config.multipath);
        BgpSpeaker::build(config, rib)
    }

    /// Builds a speaker whose RIB interns attributes in a shared per-run
    /// [`crate::rib::AttrPool`].
    pub fn new_with_pool(config: BgpConfig, pool: crate::rib::AttrPool) -> BgpSpeaker {
        let rib = LocRib::new_shared(config.asn, config.multipath, pool);
        BgpSpeaker::build(config, rib)
    }

    /// Builds a speaker sharing both per-run pools — attribute sets and
    /// the prefix id space — with the rest of the fleet: the shape the CM
    /// pump drains.
    pub fn new_with_pools(
        config: BgpConfig,
        pool: crate::rib::AttrPool,
        prefixes: horse_net::intern::PrefixPool,
    ) -> BgpSpeaker {
        let rib = LocRib::new_shared_pools(config.asn, config.multipath, pool, prefixes);
        BgpSpeaker::build(config, rib)
    }

    fn build(config: BgpConfig, mut rib: LocRib) -> BgpSpeaker {
        // Dense peer index in ascending address order (last config entry
        // wins on a duplicate address, matching map-insert semantics).
        let mut by_addr: Vec<PeerConfig> = Vec::with_capacity(config.peers.len());
        for p in &config.peers {
            match by_addr.binary_search_by_key(&p.peer_addr, |c| c.peer_addr) {
                Ok(i) => by_addr[i] = *p,
                Err(i) => by_addr.insert(i, *p),
            }
        }
        let peer_addrs: Vec<Ipv4Addr> = by_addr.iter().map(|p| p.peer_addr).collect();
        let sessions: Vec<Session> = by_addr
            .iter()
            .map(|p| Session::new(*p, config.asn, config.router_id, config.timers))
            .collect();
        for n in &config.networks {
            rib.originate(*n, config.router_id);
        }
        let n = sessions.len();
        // Project the per-address policy map onto the dense peer index.
        let mut import_policy = Vec::with_capacity(n);
        let mut export_policy = Vec::with_capacity(n);
        let mut export_prefix_sensitive = Vec::with_capacity(n);
        for addr in &peer_addrs {
            let policy = config.policies.get(addr);
            import_policy.push(policy.and_then(|p| p.import.clone()));
            let export = policy.and_then(|p| p.export.clone());
            export_prefix_sensitive.push(export.as_deref().is_some_and(|m| m.prefix_sensitive()));
            export_policy.push(export);
        }
        BgpSpeaker {
            config,
            peer_addrs,
            sessions,
            rib,
            adj_out: vec![Vec::new(); n],
            exports: ExportBlocks::default(),
            export_memo: FastMap::default(),
            export_hits: 0,
            export_misses: 0,
            unsendable: 0,
            import_policy,
            export_class: export_classes(&export_policy),
            export_policy,
            export_prefix_sensitive,
            fib_view: Vec::new(),
            outputs: Vec::new(),
            started: false,
            mrai_ready: vec![SimTime::ZERO; n],
            mrai_pending: vec![IdSet::new(); n],
            deadline_dirty: true,
            tracer: Tracer::default(),
            touched: Vec::new(),
            images: Vec::new(),
            scratch_visit: Vec::new(),
            scratch_events: Vec::new(),
            scratch_block: BytesMut::new(),
            scratch_prefixes: Vec::new(),
            scratch_affected: Vec::new(),
            scratch_newly_up: Vec::new(),
            scratch_flush: Vec::new(),
            scratch_decided: Vec::new(),
            scratch_withdraws: Vec::new(),
            scratch_groups: Vec::new(),
            scratch_group_of: FastMap::default(),
        }
    }

    /// The dense index of a configured peer address.
    fn peer_idx(&self, peer: Ipv4Addr) -> Option<usize> {
        self.peer_addrs.binary_search(&peer).ok()
    }

    /// Installs a trace sink (see `horse-trace`). Pass [`Tracer::Null`] to
    /// disable again.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drains this speaker's trace buffer, if tracing is enabled.
    pub fn take_trace_log(&mut self) -> Option<ComponentLog> {
        self.tracer.take_log()
    }

    /// Per-session FSM states, captured before a multi-peer entry point
    /// (`start`, `poll_timers`) mutates them. Only called when tracing is
    /// enabled; the single-peer entry points compare one session's state
    /// inline instead, so the hot receive path never allocates.
    fn fsm_snapshot(&self) -> Vec<SessionState> {
        self.sessions.iter().map(Session::state).collect()
    }

    /// Records a `BgpFsm` event for a single peer whose state moved from
    /// `from` to `to`. FSM transitions are rare (a handful per session
    /// lifetime), so the single-peer entry points compare states inline —
    /// two field reads — and only reach this slow path on an actual change.
    #[cold]
    fn trace_fsm_one(
        &mut self,
        peer: Ipv4Addr,
        from: SessionState,
        to: SessionState,
        now: SimTime,
    ) {
        self.tracer.record(
            now,
            TraceData::BgpFsm {
                peer: u32::from(peer),
                from: state_name(from),
                to: state_name(to),
            },
        );
    }

    /// Records a `BgpFsm` event for every session whose state changed since
    /// `before` (parallel to the peer index).
    fn trace_fsm_delta(&mut self, before: &[SessionState], now: SimTime) {
        for (pi, old) in before.iter().enumerate() {
            let new = self.sessions[pi].state();
            if new != *old {
                self.tracer.record(
                    now,
                    TraceData::BgpFsm {
                        peer: u32::from(self.peer_addrs[pi]),
                        from: state_name(*old),
                        to: state_name(new),
                    },
                );
            }
        }
    }

    /// Starts every session.
    pub fn start(&mut self, now: SimTime) {
        self.deadline_dirty = true;
        self.started = true;
        let before = if self.tracer.enabled() {
            self.fsm_snapshot()
        } else {
            Vec::new()
        };
        for s in &mut self.sessions {
            s.start(now);
        }
        self.trace_fsm_delta(&before, now);
        self.pump(now);
    }

    /// The transport to `peer` is connected.
    pub fn on_transport_up(&mut self, peer: Ipv4Addr, now: SimTime) {
        self.deadline_dirty = true;
        let mut moved = None;
        if let Some(pi) = self.peer_idx(peer) {
            self.touched.push(pi);
            let s = &mut self.sessions[pi];
            let before = s.state();
            s.on_transport_up(now);
            let after = s.state();
            if after != before {
                moved = Some((before, after));
            }
        }
        if let Some((from, to)) = moved {
            self.trace_fsm_one(peer, from, to, now);
        }
        self.pump(now);
    }

    /// The transport to `peer` dropped.
    pub fn on_transport_down(&mut self, peer: Ipv4Addr, now: SimTime) {
        self.deadline_dirty = true;
        let mut moved = None;
        if let Some(pi) = self.peer_idx(peer) {
            self.touched.push(pi);
            let s = &mut self.sessions[pi];
            let before = s.state();
            s.on_transport_down(now);
            let after = s.state();
            if after != before {
                moved = Some((before, after));
            }
        }
        if let Some((from, to)) = moved {
            self.trace_fsm_one(peer, from, to, now);
        }
        self.pump(now);
    }

    /// Bytes arrived from `peer`.
    pub fn on_bytes(&mut self, peer: Ipv4Addr, now: SimTime, bytes: &[u8]) {
        self.deadline_dirty = true;
        let mut moved = None;
        if let Some(pi) = self.peer_idx(peer) {
            self.touched.push(pi);
            let s = &mut self.sessions[pi];
            let before = s.state();
            s.on_bytes(now, bytes, &self.rib);
            let after = s.state();
            if after != before {
                moved = Some((before, after));
            }
        }
        if let Some((from, to)) = moved {
            self.trace_fsm_one(peer, from, to, now);
        }
        self.pump(now);
    }

    /// Fires due timers on every session, and flushes announcement batches
    /// whose MRAI hold-down has expired.
    pub fn poll_timers(&mut self, now: SimTime) {
        self.deadline_dirty = true;
        let before = if self.tracer.enabled() {
            self.fsm_snapshot()
        } else {
            Vec::new()
        };
        for (pi, s) in self.sessions.iter_mut().enumerate() {
            s.poll_timers(now);
            if s.has_events() {
                self.touched.push(pi);
            }
        }
        self.trace_fsm_delta(&before, now);
        for pi in 0..self.sessions.len() {
            if self.mrai_pending[pi].is_empty() || now < self.mrai_ready[pi] {
                continue;
            }
            let mut flush = std::mem::take(&mut self.scratch_flush);
            flush.clear();
            flush.extend(self.mrai_pending[pi].iter().map(PrefixId));
            self.mrai_pending[pi].clear();
            if self.sessions[pi].is_established() {
                self.rib.sort_ids_by_value(&mut flush);
                self.tracer.record(
                    now,
                    TraceData::MraiFlush {
                        peer: u32::from(self.peer_addrs[pi]),
                        prefixes: flush.len() as u32,
                    },
                );
                let decided = self.decide_all(&flush);
                self.sync_peer(pi, &decided, now);
                self.scratch_decided = decided;
            }
            self.scratch_flush = flush;
        }
        self.pump(now);
    }

    /// Earliest pending timer across sessions, including MRAI flushes.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let session_min = self
            .sessions
            .iter()
            .filter_map(Session::next_deadline)
            .min();
        let mrai_min = (0..self.sessions.len())
            .filter(|&pi| !self.mrai_pending[pi].is_empty())
            .map(|pi| self.mrai_ready[pi])
            .min();
        match (session_min, mrai_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Originates a new network at runtime.
    pub fn originate(&mut self, prefix: Ipv4Prefix, now: SimTime) {
        self.deadline_dirty = true;
        let id = self.rib.originate(prefix, self.config.router_id);
        self.reconcile(&[id], now);
        self.pump(now);
    }

    /// Withdraws a locally originated network at runtime.
    pub fn withdraw(&mut self, prefix: Ipv4Prefix, now: SimTime) {
        self.deadline_dirty = true;
        if let Some(id) = self.rib.withdraw_local(prefix) {
            self.reconcile(&[id], now);
            self.pump(now);
        }
    }

    /// Drains accumulated outputs in emission order, handing each to
    /// `each` with a route change's next hops borrowed from the RIB's
    /// interned set: the drain itself allocates nothing. The queue's
    /// buffer goes back to the allocator, as a moved-out `Vec` would —
    /// kept on every speaker of a run, it would cost more memory than it
    /// saves allocations.
    pub fn drain_outputs(&mut self, mut each: impl FnMut(Output<&[Ipv4Addr]>)) {
        let sets = self.rib.hop_sets();
        for o in std::mem::take(&mut self.outputs) {
            each(o.map_hops(|id| sets.get(id)));
        }
    }

    /// Drains accumulated outputs into owned values (see
    /// [`BgpSpeaker::drain_outputs`]).
    pub fn take_outputs(&mut self) -> Vec<SpeakerOutput> {
        let mut out = Vec::with_capacity(self.outputs.len());
        self.drain_outputs(|o| out.push(o.map_hops(<[Ipv4Addr]>::to_vec)));
        out
    }

    /// True when the speaker was touched since the last call and its
    /// [`BgpSpeaker::next_deadline`] may have changed (cleared on read).
    /// Timers only move through the speaker's entry points, so a scheduler
    /// that re-reads the deadline whenever this reports true always holds
    /// the current value.
    pub fn take_deadline_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.deadline_dirty, false)
    }

    /// Read access to the RIB (tests, dumps).
    pub fn rib(&self) -> &LocRib {
        &self.rib
    }

    /// Snapshot of the RIB work counters with the speaker's export-cache
    /// figures merged in (observability; see [`RibStats`]).
    pub fn rib_stats(&self) -> RibStats {
        let mut s = self.rib.stats();
        s.export_cache_hits = self.export_hits;
        s.export_cache_misses = self.export_misses;
        s
    }

    /// Announcements this speaker could not make: (peer, prefix) visits
    /// whose exported attribute block leaves no room for the prefix within
    /// the 4096-byte UPDATE maximum (`msg::check_announce`). The route
    /// stays in the Loc-RIB and the FIB; the peer is sent a withdrawal if
    /// it held the prefix, nothing otherwise.
    pub fn unsendable_routes(&self) -> u64 {
        self.unsendable
    }

    /// The session to `peer` (read access: counters, state).
    pub fn session(&self, peer: Ipv4Addr) -> Option<&Session> {
        self.peer_idx(peer).map(|pi| &self.sessions[pi])
    }

    /// State of the session to `peer`.
    pub fn session_state(&self, peer: Ipv4Addr) -> Option<SessionState> {
        self.session(peer).map(Session::state)
    }

    /// True when every configured session is Established.
    pub fn fully_converged_sessions(&self) -> bool {
        self.sessions.iter().all(Session::is_established)
    }

    /// Total messages sent across sessions (observability).
    pub fn msgs_sent(&self) -> u64 {
        self.sessions.iter().map(|s| s.msgs_sent).sum()
    }

    /// Processes queued session events until quiescent. Each pass visits
    /// the sessions touched since the last one, in ascending peer index —
    /// the order a scan of every session would find their events in.
    fn pump(&mut self, now: SimTime) {
        let mut visit = std::mem::take(&mut self.scratch_visit);
        let mut events = std::mem::take(&mut self.scratch_events);
        let mut affected = std::mem::take(&mut self.scratch_affected);
        let mut newly_up = std::mem::take(&mut self.scratch_newly_up);
        while !self.touched.is_empty() {
            std::mem::swap(&mut visit, &mut self.touched);
            visit.sort_unstable();
            visit.dedup();
            affected.clear();
            for pi in visit.drain(..) {
                let peer = self.peer_addrs[pi];
                self.sessions[pi].swap_events(&mut events);
                for ev in events.drain(..) {
                    match ev {
                        SessionEvent::SendBytes(bytes) => {
                            self.outputs.push(Output::SendBytes { peer, bytes });
                        }
                        SessionEvent::Established => {
                            newly_up.push(pi);
                            self.outputs.push(Output::SessionUp { peer });
                        }
                        SessionEvent::Down(_) => {
                            affected.extend(self.rib.drop_peer(peer));
                            self.adj_out[pi].clear();
                            self.mrai_pending[pi].clear();
                            self.mrai_ready[pi] = SimTime::ZERO;
                            self.outputs.push(Output::SessionDown { peer });
                        }
                        SessionEvent::Update(update) => {
                            self.tracer.record(
                                now,
                                TraceData::BgpRx {
                                    peer: u32::from(peer),
                                    announced: update.nlri.len() as u32,
                                    withdrawn: update.withdrawn.len() as u32,
                                },
                            );
                            // The single import-policy choke point: the
                            // peer's route-map (if any) transforms or drops
                            // routes before they enter the RIB.
                            self.rib.apply_update(
                                peer,
                                true,
                                &update.withdrawn,
                                update.attrs,
                                &update.nlri,
                                self.import_policy[pi].as_deref(),
                                &mut affected,
                            );
                        }
                    }
                }
            }
            if !newly_up.is_empty() {
                // One read of the persistent live-prefix index, and one
                // decision per live prefix, serve every newly established
                // peer.
                let decided = self.decide_all(&self.rib.live_prefix_ids());
                for pi in newly_up.drain(..) {
                    self.sync_peer(pi, &decided, now);
                }
                self.scratch_decided = decided;
            }
            if !affected.is_empty() {
                // Every event of the pass appended its prefixes unsorted;
                // one sort orders and dedups them all.
                self.rib.sort_ids_by_value(&mut affected);
                self.reconcile(&affected, now);
            }
        }
        self.scratch_visit = visit;
        self.scratch_events = events;
        self.scratch_affected = affected;
        self.scratch_newly_up = newly_up;
        // Slots 0 and 1 serve the usual sync — some withdrawals, one
        // announce group — without allocating. A full-table sync borrows a
        // slot per distinct attribute set; kept on every speaker of a run,
        // those buffers would cost more memory than they save time.
        self.images.truncate(2);
    }

    /// Reads the current decision of every prefix in `ids` into the
    /// (recycled) hand-down buffer — for syncs that owe one peer a visit of
    /// every listed prefix whatever was synced before: a newly established
    /// session, an MRAI flush.
    fn decide_all(&mut self, ids: &[PrefixId]) -> Vec<Decided> {
        let mut decided = std::mem::take(&mut self.scratch_decided);
        decided.clear();
        decided.extend(ids.iter().map(|&id| (id, self.rib.decide_id(id))));
        decided
    }

    /// Recomputes decisions for `ids` (sorted by prefix value): reports FIB
    /// changes, and refreshes every established peer's advertisements for
    /// the prefixes whose exported identity changed.
    ///
    /// A prefix whose identity did *not* change is still fanned out while
    /// any peer holds an announcement of it in `mrai_pending`. That keeps a
    /// quirk of the hold-down byte for byte: a reconcile arriving after
    /// `mrai_ready` has passed, but before `poll_timers` ran at that
    /// instant, finds the peer no longer held, so the visit announces the
    /// pending prefix early and re-arms the MRAI — the flush that follows
    /// then has nothing left for it. Skipping the visit would move wire
    /// timestamps (see "UPDATE fast path" in DESIGN.md).
    fn reconcile(&mut self, ids: &[PrefixId], now: SimTime) {
        // Diff only the two decision counters around the reconcile: a full
        // `rib.stats()` snapshot here costs ~4% wall on the convergence
        // replay, the counter pair is noise-level.
        let counters_before = if self.tracer.enabled() {
            Some(self.rib.decide_counters())
        } else {
            None
        };
        if let Some(&max) = ids.iter().max() {
            if max.index() >= self.fib_view.len() {
                self.fib_view.resize(max.index() + 1, HopSetId::EMPTY);
            }
        }
        let any_pending = self.mrai_pending.iter().any(|p| !p.is_empty());
        let mut decided = std::mem::take(&mut self.scratch_decided);
        decided.clear();
        {
            let table = self.rib.prefix_table();
            for &id in ids {
                // The one decision read per prefix: it serves the FIB diff
                // here and, handed down, every peer sync below.
                let (best, changed) = self.rib.decide_synced(id);
                if changed || (any_pending && self.mrai_pending.iter().any(|p| p.contains(id.0))) {
                    decided.push((id, best));
                }
                // FIB-facing next-hop set, compared and stored by id.
                let slot = &mut self.fib_view[id.index()];
                let hops = match best {
                    Some(b) if b.is_local() => {
                        // Locally originated prefixes are connected routes;
                        // the data plane already knows them. Report nothing.
                        *slot = HopSetId::EMPTY;
                        continue;
                    }
                    Some(b) => b.next_hops,
                    None => HopSetId::EMPTY,
                };
                if *slot != hops {
                    *slot = hops;
                    self.outputs.push(Output::RouteChanged {
                        prefix: table.value(id),
                        next_hops: hops,
                    });
                }
            }
        }
        // Peer advertisements, in ascending peer-address order.
        if !decided.is_empty() {
            for pi in 0..self.sessions.len() {
                if self.sessions[pi].is_established() {
                    self.sync_peer(pi, &decided, now);
                }
            }
        }
        self.scratch_decided = decided;
        if let Some((decides_before, hits_before)) = counters_before {
            let (decides, hits) = self.rib.decide_counters();
            self.tracer.record(
                now,
                TraceData::RibWork {
                    decides: (decides - decides_before) as u32,
                    cache_hits: (hits - hits_before) as u32,
                },
            );
        }
    }

    /// Brings a peer's Adj-RIB-Out in line with the handed-down decisions
    /// (sorted by prefix value), emitting batched UPDATEs. Withdrawals
    /// always go out immediately; announcements respect the MRAI hold-down
    /// (RFC 4271 §9.2.1.1) and are batched for the flush in
    /// [`BgpSpeaker::poll_timers`].
    fn sync_peer(&mut self, pi: usize, decided: &[Decided], now: SimTime) {
        let mrai = self.config.timers.mrai;
        let held = !mrai.is_zero() && now < self.mrai_ready[pi];
        let mut withdraws = std::mem::take(&mut self.scratch_withdraws);
        withdraws.clear();
        // Announcement batches grouped by export id, in first-occurrence
        // order so the emitted UPDATE sequence is byte-identical to the
        // address-keyed implementation.
        let mut groups = std::mem::take(&mut self.scratch_groups);
        let mut used = 0;
        let mut group_of = std::mem::take(&mut self.scratch_group_of);
        group_of.clear();
        let mut unsendable = 0;
        // Toward one peer, the export of a best path depends only on its
        // attribute id and the peer it was learned from — unless the peer's
        // export map matches on prefix. Consecutive prefixes on the same
        // route (a table learned in one UPDATE) then reuse one probe.
        let reuse = !self.export_prefix_sensitive[pi];
        let mut last: Option<((AttrId, Ipv4Addr), Option<u32>)> = None;
        for &(id, best) in decided {
            let current = self.adj_out[pi]
                .get(id.index())
                .copied()
                .unwrap_or(NOT_ADVERTISED);
            let mut desired = match best {
                None => None,
                Some(b) => match last {
                    Some((route, export)) if route == (b.attr_id, b.peer) => export,
                    _ => {
                        let export = self.export_route(pi, id, &b);
                        if reuse {
                            last = Some(((b.attr_id, b.peer), export));
                        }
                        export
                    }
                },
            };
            // Only an announcement about to go out needs the size check:
            // what the peer already holds was sent, so it fit.
            if let Some(want) = desired {
                if want != current && !self.announceable(want, id) {
                    unsendable += 1;
                    desired = None;
                }
            }
            let row = &mut self.adj_out[pi];
            match desired {
                None if current != NOT_ADVERTISED => {
                    withdraws.push(id);
                    row[id.index()] = NOT_ADVERTISED;
                    // A pending announcement for a now-withdrawn prefix is
                    // obsolete.
                    self.mrai_pending[pi].remove(id.0);
                }
                Some(want) if current != want => {
                    if held {
                        self.mrai_pending[pi].insert(id.0);
                        continue;
                    }
                    let g = *group_of.entry(want).or_insert_with(|| {
                        if used == groups.len() {
                            groups.push((want, Vec::new()));
                        } else {
                            groups[used].0 = want;
                            groups[used].1.clear();
                        }
                        used += 1;
                        used - 1
                    });
                    groups[g].1.push(id);
                    if id.index() >= row.len() {
                        row.resize(id.index() + 1, NOT_ADVERTISED);
                    }
                    row[id.index()] = want;
                }
                _ => {}
            }
        }
        if !withdraws.is_empty() || used > 0 {
            self.touched.push(pi);
            let peer = u32::from(self.peer_addrs[pi]);
            if !withdraws.is_empty() {
                self.tracer.record(
                    now,
                    TraceData::BgpTx {
                        peer,
                        announced: 0,
                        withdrawn: withdraws.len() as u32,
                    },
                );
                self.send_image(pi, 0, NOT_ADVERTISED, &withdraws);
            }
            for (g, (export, ids)) in groups[..used].iter().enumerate() {
                self.tracer.record(
                    now,
                    TraceData::BgpTx {
                        peer,
                        announced: ids.len() as u32,
                        withdrawn: 0,
                    },
                );
                self.send_image(pi, 1 + g, *export, ids);
            }
        }
        if used > 0 && !mrai.is_zero() {
            self.mrai_ready[pi] = now + mrai;
        }
        if unsendable > 0 {
            self.unsendable += u64::from(unsendable);
            self.tracer.record(
                now,
                TraceData::BgpUnsendable {
                    peer: u32::from(self.peer_addrs[pi]),
                    prefixes: unsendable,
                },
            );
        }
        self.scratch_withdraws = withdraws;
        self.scratch_groups = groups;
        self.scratch_group_of = group_of;
    }

    /// Sends the peer at index `pi` the UPDATE(s) announcing `ids` with
    /// export `export` ([`NOT_ADVERTISED`]: withdrawing them), from the
    /// image in `slot`: encoded here if the image holds another group,
    /// copied with the peer's own address as NEXT_HOP either way. An image
    /// stays valid for as long as it is kept — export ids and prefix ids
    /// never change meaning.
    fn send_image(&mut self, pi: usize, slot: usize, export: u32, ids: &[PrefixId]) {
        if self.images.len() <= slot {
            self.images.resize_with(slot + 1, Image::default);
        }
        let image = &mut self.images[slot];
        let announce = export != NOT_ADVERTISED;
        if image.export != export || image.ids != ids {
            image.export = export;
            image.ids.clear();
            image.ids.extend_from_slice(ids);
            image.bytes.clear();
            image.ends.clear();
            // One table read turns every id of the group back into its
            // prefix.
            let table = self.rib.prefix_table();
            self.scratch_prefixes.clear();
            self.scratch_prefixes
                .extend(ids.iter().map(|&id| table.value(id)));
            let block = if announce {
                let (block, next_hop_at) = &self.exports.blocks[export as usize];
                image.next_hop_at = announce_next_hop_offset(*next_hop_at);
                Some(&block[..])
            } else {
                None
            };
            encode_updates(
                block,
                &self.scratch_prefixes,
                &mut image.bytes,
                &mut image.ends,
            );
        }
        let session = &mut self.sessions[pi];
        let next_hop = session.config.local_addr.octets();
        let mut start = 0;
        for &end in &image.ends {
            if announce {
                let at = start + image.next_hop_at;
                image.bytes[at..at + 4].copy_from_slice(&next_hop);
            }
            session.send_encoded_update(Bytes::copy_from_slice(&image.bytes[start..end]));
            start = end;
        }
    }

    /// Whether an UPDATE can announce prefix `id` with export `export` at
    /// all (see [`check_announce`]).
    fn announceable(&self, export: u32, id: PrefixId) -> bool {
        let attrs_len = self.exports.blocks[export as usize].0.len();
        // A /32 is the longest prefix on the wire: when one fits, every
        // prefix does, and the shared prefix table need not be read.
        let host = Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 32);
        check_announce(attrs_len, host).is_ok()
            || check_announce(attrs_len, self.rib.prefix_value(id)).is_ok()
    }

    /// eBGP export for the peer at index `pi`, as an export id: split
    /// horizon, then the memoized class transform
    /// ([`BgpSpeaker::export_transform`]), then the loop check — sending a
    /// path containing the peer's AS would be rejected by its loop check
    /// anyway; suppress it to save messages (common policy).
    fn export_route(&mut self, pi: usize, id: PrefixId, best: &BestPath) -> Option<u32> {
        if best.peer == self.peer_addrs[pi] {
            return None; // split horizon
        }
        let class = self.export_class[pi];
        let pfx_key = if self.export_prefix_sensitive[pi] {
            id.0 + 1
        } else {
            0
        };
        let key = (best.attr_id.index(), class as u32, pfx_key);
        let exported = match self.export_memo.get(&key) {
            Some(memoized) => {
                self.export_hits += 1;
                memoized
            }
            None => {
                self.export_misses += 1;
                let exported = self.export_transform(class, id, best);
                self.export_memo.entry(key).or_insert(exported)
            }
        };
        let exported = exported.as_ref()?;
        if exported
            .best
            .contains_asn(self.sessions[pi].config.remote_as)
        {
            return None;
        }
        Some(exported.id)
    }

    /// The part of the export every peer of an export class shares: the
    /// class's export route-map (if any — the single export-policy choke
    /// point), then the standard transform: prepend own AS, strip
    /// LOCAL_PREF and MED, leave NEXT_HOP open for next-hop-self. The
    /// export set block composes with the standard transform:
    /// `add/del_communities` edit the outgoing communities, `prepend` adds
    /// extra own-AS copies, `med` survives the strip (the sender
    /// deliberately signals the neighbor), `local_pref` is ignored (never
    /// sent over eBGP). `None`: the map denies the route.
    fn export_transform(
        &mut self,
        class: usize,
        id: PrefixId,
        best: &BestPath,
    ) -> Option<Exported> {
        let attrs = self.rib.attrs_of(best.attr_id);
        // The route-map matches against the Loc-RIB attributes
        // (pre-prepend, communities and local-pref intact).
        let set = match self.export_policy[class].as_deref() {
            None => None,
            Some(map) => {
                use crate::policy::PolicyAction;
                let prefix = self.rib.prefix_value(id);
                match map.first_match(prefix, &attrs) {
                    Some(i) if map.clauses[i].action == PolicyAction::Permit => {
                        Some(&map.clauses[i].set)
                    }
                    // Deny clause or no match: implicit deny.
                    _ => return None,
                }
            }
        };
        let mut out = (*attrs).clone();
        if let Some(set) = set {
            if !set.del_communities.is_empty() {
                out.communities.retain(|c| !set.del_communities.contains(c));
            }
            if !set.add_communities.is_empty() {
                out.communities.extend_from_slice(&set.add_communities);
                out.communities.sort_unstable();
                out.communities.dedup();
            }
        }
        // Own AS once, plus the policy's extra copies.
        for _ in 0..=set.map_or(0, |s| s.prepend) {
            out.prepend(self.config.asn);
        }
        out.next_hop = Ipv4Addr::UNSPECIFIED;
        out.local_pref = None;
        out.med = set.and_then(|s| s.med);
        self.scratch_block.clear();
        let next_hop_at = encode_attrs(&out, &mut self.scratch_block);
        Some(Exported {
            id: self.exports.intern(&self.scratch_block, next_hop_at),
            best: attrs,
        })
    }

    /// Swaps the import/export route-maps for `peer` at runtime. Takes
    /// effect for routes received or exported from now on: already-interned
    /// candidates are not retroactively re-imported, and advertisements
    /// already sent stay as they are until their prefix is next reconciled
    /// or the session re-syncs (a real router requires a route refresh for
    /// both too). Everything memoized under the old policy is dropped here:
    /// the export memo (classes are renumbered), and every prefix's synced
    /// identity — the same best path may now export differently, so the
    /// next reconcile of any prefix must visit the peers again.
    pub fn set_peer_policy(&mut self, peer: Ipv4Addr, policy: crate::policy::PeerPolicy) {
        let Some(pi) = self.peer_idx(peer) else {
            return;
        };
        self.import_policy[pi] = policy.import.clone();
        self.export_prefix_sensitive[pi] = policy
            .export
            .as_deref()
            .is_some_and(|m| m.prefix_sensitive());
        self.export_policy[pi] = policy.export.clone();
        self.export_class = export_classes(&self.export_policy);
        self.config.policies.insert(peer, policy);
        self.export_memo.clear();
        self.rib.reset_synced();
        self.deadline_dirty = true;
    }
}

/// Per peer index, the lowest peer index whose export map is equal (the
/// same `Arc`, equal clauses, or equally absent).
fn export_classes(maps: &[Option<Arc<RouteMap>>]) -> Vec<usize> {
    (0..maps.len())
        .map(|pi| (0..pi).find(|&c| maps[c] == maps[pi]).unwrap_or(pi))
        .collect()
}

/// Threaded emulation moves each speaker into its own daemon thread,
/// which requires `BgpSpeaker: Send`. This fails to compile — not at
/// runtime — if a non-`Send` handle (an `Rc`, a raw pointer) ever sneaks
/// into the speaker, its RIB, or its tracer.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BgpSpeaker>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use horse_sim::SimDuration;
    use std::collections::{BTreeMap, BTreeSet};

    /// A tiny in-memory harness wiring speakers point-to-point.
    struct Harness {
        speakers: Vec<BgpSpeaker>,
        /// (speaker index, its address) pairs — addresses are unique.
        addr_of: BTreeMap<Ipv4Addr, usize>,
        /// Collected RouteChanged outputs per speaker.
        route_events: Vec<Vec<(Ipv4Prefix, Vec<Ipv4Addr>)>>,
    }

    impl Harness {
        fn new(speakers: Vec<BgpSpeaker>) -> Harness {
            let mut addr_of = BTreeMap::new();
            for (i, s) in speakers.iter().enumerate() {
                for p in &s.config.peers {
                    addr_of.insert(p.local_addr, i);
                }
            }
            let n = speakers.len();
            Harness {
                speakers,
                addr_of,
                route_events: vec![Vec::new(); n],
            }
        }

        fn start(&mut self, now: SimTime) {
            for s in &mut self.speakers {
                s.start(now);
            }
            // Bring all transports up (the CM does this in the real system).
            for i in 0..self.speakers.len() {
                let peers: Vec<Ipv4Addr> = self.speakers[i]
                    .config
                    .peers
                    .iter()
                    .map(|p| p.peer_addr)
                    .collect();
                for p in peers {
                    self.speakers[i].on_transport_up(p, now);
                }
            }
            self.run(now);
        }

        /// Shuttles bytes until every speaker is quiescent.
        fn run(&mut self, now: SimTime) {
            loop {
                let mut moved = false;
                for i in 0..self.speakers.len() {
                    for out in self.speakers[i].take_outputs() {
                        match out {
                            SpeakerOutput::SendBytes { peer, bytes } => {
                                // `peer` is the remote's address; find the
                                // speaker owning it. The remote sees the
                                // message as coming from our local address
                                // on that session.
                                let from = self.speakers[i]
                                    .config
                                    .peers
                                    .iter()
                                    .find(|p| p.peer_addr == peer)
                                    .map(|p| p.local_addr)
                                    .expect("configured peer");
                                let j = self.addr_of[&peer];
                                self.speakers[j].on_bytes(from, now, &bytes);
                                moved = true;
                            }
                            SpeakerOutput::RouteChanged { prefix, next_hops } => {
                                self.route_events[i].push((prefix, next_hops));
                            }
                            SpeakerOutput::SessionUp { .. } | SpeakerOutput::SessionDown { .. } => {
                            }
                        }
                    }
                }
                if !moved {
                    return;
                }
            }
        }

        fn fib_of(&self, i: usize) -> BTreeMap<Ipv4Prefix, Vec<Ipv4Addr>> {
            let mut fib = BTreeMap::new();
            for (p, hops) in &self.route_events[i] {
                if hops.is_empty() {
                    fib.remove(p);
                } else {
                    fib.insert(*p, hops.clone());
                }
            }
            fib
        }
    }

    fn quick_timers() -> TimerConfig {
        TimerConfig {
            hold_time: SimDuration::from_secs(9),
            connect_retry: SimDuration::from_secs(1),
            mrai: SimDuration::ZERO,
        }
    }

    fn speaker(
        asn: u16,
        id: [u8; 4],
        peers: Vec<(Ipv4Addr, Ipv4Addr, u16)>, // (peer, local, remote_as)
        networks: Vec<&str>,
    ) -> BgpSpeaker {
        BgpSpeaker::new(BgpConfig {
            asn,
            router_id: Ipv4Addr::from(id),
            timers: quick_timers(),
            peers: peers
                .into_iter()
                .map(|(peer_addr, local_addr, remote_as)| PeerConfig {
                    peer_addr,
                    local_addr,
                    remote_as,
                })
                .collect(),
            networks: networks.iter().map(|s| s.parse().unwrap()).collect(),
            policies: Default::default(),
            multipath: true,
        })
    }

    fn addr(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 255, a, b)
    }

    #[test]
    fn two_routers_exchange_networks() {
        // r1 (AS 65001, net 10.1/16) <-> r2 (AS 65002, net 10.2/16)
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(0, 2), addr(0, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker(
            65002,
            [2, 2, 2, 2],
            vec![(addr(0, 1), addr(0, 2), 65001)],
            vec!["10.2.0.0/16"],
        );
        let mut h = Harness::new(vec![r1, r2]);
        h.start(SimTime::ZERO);
        let fib1 = h.fib_of(0);
        let fib2 = h.fib_of(1);
        assert_eq!(
            fib1.get(&"10.2.0.0/16".parse().unwrap()),
            Some(&vec![addr(0, 2)])
        );
        assert_eq!(
            fib2.get(&"10.1.0.0/16".parse().unwrap()),
            Some(&vec![addr(0, 1)])
        );
        assert!(h.speakers[0].fully_converged_sessions());
    }

    #[test]
    fn line_propagates_with_as_path_growth() {
        // r1 - r2 - r3; r1's network must reach r3 via r2.
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
            ],
            vec![],
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3]);
        h.start(SimTime::ZERO);
        let fib3 = h.fib_of(2);
        assert_eq!(
            fib3.get(&"10.1.0.0/16".parse().unwrap()),
            Some(&vec![addr(23, 2)]),
            "r3 reaches 10.1/16 via r2"
        );
        // r3's Adj-RIB-In path should be [65002, 65001].
        let d = h.speakers[2]
            .rib()
            .decide("10.1.0.0/16".parse().unwrap())
            .unwrap();
        assert_eq!(d.best.attrs.as_path_len(), 2);
    }

    #[test]
    fn diamond_yields_multipath() {
        // src - {a, b} - dst: dst sees src's net over two equal paths.
        //      a (65010)
        // src <         > dst
        //      b (65020)
        let src = speaker(
            65001,
            [1, 1, 1, 1],
            vec![
                (addr(1, 2), addr(1, 1), 65010),
                (addr(2, 2), addr(2, 1), 65020),
            ],
            vec!["10.1.0.0/16"],
        );
        let a = speaker(
            65010,
            [10, 10, 10, 10],
            vec![
                (addr(1, 1), addr(1, 2), 65001),
                (addr(3, 2), addr(3, 1), 65002),
            ],
            vec![],
        );
        let b = speaker(
            65020,
            [20, 20, 20, 20],
            vec![
                (addr(2, 1), addr(2, 2), 65001),
                (addr(4, 2), addr(4, 1), 65002),
            ],
            vec![],
        );
        let dst = speaker(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(3, 1), addr(3, 2), 65010),
                (addr(4, 1), addr(4, 2), 65020),
            ],
            vec![],
        );
        let mut h = Harness::new(vec![src, a, b, dst]);
        h.start(SimTime::ZERO);
        let fib = h.fib_of(3);
        let hops = fib.get(&"10.1.0.0/16".parse().unwrap()).unwrap();
        assert_eq!(hops.len(), 2, "ECMP over both transit ASes: {hops:?}");
    }

    #[test]
    fn session_down_withdraws_routes() {
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(0, 2), addr(0, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker(
            65002,
            [2, 2, 2, 2],
            vec![(addr(0, 1), addr(0, 2), 65001)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2]);
        h.start(SimTime::ZERO);
        assert!(!h.fib_of(1).is_empty());
        // Kill the transport on r2's side.
        h.speakers[1].on_transport_down(addr(0, 1), SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        assert!(
            h.fib_of(1).is_empty(),
            "routes flushed when the session drops"
        );
    }

    #[test]
    fn runtime_originate_propagates() {
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(0, 2), addr(0, 1), 65002)],
            vec![],
        );
        let r2 = speaker(
            65002,
            [2, 2, 2, 2],
            vec![(addr(0, 1), addr(0, 2), 65001)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2]);
        h.start(SimTime::ZERO);
        assert!(h.fib_of(1).is_empty());
        h.speakers[0].originate("10.42.0.0/16".parse().unwrap(), SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        assert!(h.fib_of(1).contains_key(&"10.42.0.0/16".parse().unwrap()));
        // And runtime withdraw.
        h.speakers[0].withdraw("10.42.0.0/16".parse().unwrap(), SimTime::from_secs(2));
        h.run(SimTime::from_secs(2));
        assert!(h.fib_of(1).is_empty());
    }

    #[test]
    fn no_redundant_updates_after_convergence() {
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(0, 2), addr(0, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker(
            65002,
            [2, 2, 2, 2],
            vec![(addr(0, 1), addr(0, 2), 65001)],
            vec!["10.2.0.0/16"],
        );
        let mut h = Harness::new(vec![r1, r2]);
        h.start(SimTime::ZERO);
        let sent_before = h.speakers[0].msgs_sent();
        // Poll timers just shy of keepalive interval: nothing should move.
        h.speakers[0].poll_timers(SimTime::from_secs(2));
        h.run(SimTime::from_secs(2));
        assert_eq!(h.speakers[0].msgs_sent(), sent_before);
    }

    #[test]
    fn route_too_big_to_re_advertise_stays_local_and_is_withdrawn_downstream() {
        // r1 - r2 - r3; r3 first learns r1's /24 through r2.
        let p: Ipv4Prefix = "10.1.7.0/24".parse().unwrap();
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            vec!["10.1.7.0/24"],
        );
        let r2 = speaker(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
            ],
            vec![],
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3]);
        h.start(SimTime::ZERO);
        assert_eq!(h.fib_of(2).get(&p), Some(&vec![addr(23, 2)]));
        // r1's session then re-announces the /24 in an UPDATE of exactly
        // 4096 bytes: its 4069-byte block fits, but r2's export adds its
        // own AS (2 bytes), after which the /24 no longer does.
        let mut attrs = PathAttributes::originated(addr(12, 1));
        attrs.prepend(65001);
        let mut block = bytes::BytesMut::new();
        encode_attrs(&attrs, &mut block);
        let pad = 4069 - block.len() - 4; // extended-length header
        attrs.unknown = vec![(0xc0, 99, vec![7; pad])];
        let update = crate::msg::Message::Update(crate::msg::UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs)),
            nlri: vec![p],
        })
        .encode();
        assert_eq!(update.len(), crate::msg::MAX_MESSAGE_LEN);
        let now = SimTime::from_secs(1);
        h.speakers[1].on_bytes(addr(12, 1), now, &update);
        h.run(now);
        assert_eq!(h.speakers[1].unsendable_routes(), 1);
        assert_eq!(
            h.fib_of(1).get(&p),
            Some(&vec![addr(12, 1)]),
            "r2 still routes the prefix"
        );
        assert_eq!(
            h.speakers[1].rib().decide(p).unwrap().best.attrs.unknown[0]
                .2
                .len(),
            pad,
            "r2's Loc-RIB holds the big route"
        );
        assert_eq!(h.fib_of(2).get(&p), None, "r3 got the withdrawal");
        assert!(h.speakers[1].fully_converged_sessions());
    }

    /// Builds a speaker with an MRAI hold-down.
    fn speaker_mrai(
        asn: u16,
        id: [u8; 4],
        peers: Vec<(Ipv4Addr, Ipv4Addr, u16)>,
        networks: Vec<&str>,
        mrai_secs: u64,
    ) -> BgpSpeaker {
        let mut s = speaker(asn, id, peers, networks);
        s.config.timers.mrai = SimDuration::from_secs(mrai_secs);
        // Rebuild so sessions copy the timers (mrai lives on the speaker
        // side only, but keep it consistent).
        BgpSpeaker::new(s.config)
    }

    #[test]
    fn mrai_delays_and_batches_announcements() {
        // r1 -- r2 -- r3; r2 enforces a 5 s MRAI toward its peers.
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker_mrai(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
            ],
            vec![],
            5,
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3]);
        h.start(SimTime::ZERO);
        // Initial convergence: r3 learned 10.1/16 (first burst is not held).
        let p1: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let p2: Ipv4Prefix = "10.42.0.0/16".parse().unwrap();
        assert!(h.speakers[2].rib().decide(p1).is_some());
        // r1 originates a second network at t=1: r2 learns it but must sit
        // on the announcement until its MRAI (armed at t=0) expires at t=5.
        h.speakers[0].originate(p2, SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        assert!(
            h.speakers[1].rib().decide(p2).is_some(),
            "r2 itself learned the route"
        );
        assert!(
            h.speakers[2].rib().decide(p2).is_none(),
            "r3 must not see it during the hold-down"
        );
        // Before expiry: still nothing.
        h.speakers[1].poll_timers(SimTime::from_secs(4));
        h.run(SimTime::from_secs(4));
        assert!(h.speakers[2].rib().decide(p2).is_none());
        // After expiry the batch flushes.
        h.speakers[1].poll_timers(SimTime::from_secs(5));
        h.run(SimTime::from_secs(5));
        assert!(
            h.speakers[2].rib().decide(p2).is_some(),
            "flushed after MRAI"
        );
    }

    #[test]
    fn mrai_does_not_delay_withdrawals() {
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker_mrai(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
            ],
            vec![],
            30,
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3]);
        h.start(SimTime::ZERO);
        let p1: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(h.speakers[2].rib().decide(p1).is_some());
        // Withdraw at t=1, deep inside r2's 30 s hold-down: must propagate
        // immediately (withdrawals are exempt from MRAI).
        h.speakers[0].withdraw(p1, SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        assert!(
            h.speakers[2].rib().decide(p1).is_none(),
            "withdrawal reached r3 without waiting"
        );
    }

    #[test]
    fn mrai_deadline_visible_to_scheduler() {
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker_mrai(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
            ],
            vec![],
            5,
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3]);
        h.start(SimTime::ZERO);
        h.speakers[0].originate("10.42.0.0/16".parse().unwrap(), SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        // With a batch pending, r2's next deadline is the MRAI flush at
        // t=5 (earlier than its 3 s keepalive? keepalive is hold/3 = 3 s,
        // so the deadline must be min(3, 5) = 3; both must be included —
        // assert the MRAI flush is not *missed*: the deadline is ≤ t=5).
        let d = h.speakers[1].next_deadline().expect("deadline exists");
        assert!(
            d <= SimTime::from_secs(5),
            "scheduler would sleep past the MRAI flush: {d}"
        );
    }

    /// r1 and r4 both feed r2; r2 (with `mrai_secs` of MRAI) feeds r3. r1's
    /// address at r2 is lower than r4's, so on a tie r1's path stays best.
    fn square(mrai_secs: u64, r1_networks: Vec<&str>) -> Harness {
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            r1_networks,
        );
        let r2 = speaker_mrai(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
                (addr(24, 4), addr(24, 2), 65004),
            ],
            vec![],
            mrai_secs,
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let r4 = speaker(
            65004,
            [4, 4, 4, 4],
            vec![(addr(24, 2), addr(24, 4), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3, r4]);
        h.start(SimTime::ZERO);
        h
    }

    #[test]
    fn best_unchanged_reconcile_still_visits_a_peer_holding_the_prefix_pending() {
        let mut h = square(5, vec!["10.1.0.0/16"]);
        let p2: Ipv4Prefix = "10.42.0.0/16".parse().unwrap();
        let to_r3 = h.speakers[1].peer_idx(addr(23, 3)).unwrap();
        // t=1: r1 originates p2. r2 learns it, but its MRAI toward r3 was
        // armed by the initial burst at t=0, so the announcement is held.
        h.speakers[0].originate(p2, SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        let id = h.speakers[1].rib().prefix_id(p2).unwrap();
        assert!(h.speakers[1].mrai_pending[to_r3].contains(id.0));
        assert_eq!(h.speakers[1].mrai_ready[to_r3], SimTime::from_secs(5));
        assert!(h.speakers[2].rib().decide(p2).is_none(), "held by MRAI");
        // t=6: the hold-down toward r3 has expired, but nobody polled r2's
        // timers. r4 originates p2 as well: at r2 that ties with r1's path,
        // and r1 (lower peer address) stays best — the exported identity
        // does not change. The reconcile must visit r3 regardless: r3 is no
        // longer held, so the pending announcement goes out now and the
        // MRAI re-arms. Dropping the `mrai_pending` guard from `reconcile`
        // fails the assertions below.
        let best_before = h.speakers[1].rib().decide(p2).unwrap().best;
        h.speakers[3].originate(p2, SimTime::from_secs(6));
        h.run(SimTime::from_secs(6));
        let d = h.speakers[1].rib().decide(p2).unwrap();
        assert_eq!(d.best, best_before, "best path (attr, peer) unchanged");
        assert_eq!(d.multipath.len(), 2, "r4's path joined the ECMP set");
        assert!(
            h.speakers[2].rib().decide(p2).is_some(),
            "the pending announcement went out with the best-unchanged reconcile"
        );
        assert_eq!(
            h.speakers[1].mrai_ready[to_r3],
            SimTime::from_secs(11),
            "and re-armed the hold-down"
        );
        // The pending bit itself stays set until the flush at t=11, which
        // will find r3's Adj-RIB-Out already current.
        assert!(h.speakers[1].mrai_pending[to_r3].contains(id.0));
    }

    #[test]
    fn best_unchanged_reconcile_skips_the_peer_fan_out() {
        // Without MRAI: a second, tying path for a prefix changes r2's FIB
        // but not what it tells r3, and must cost r2 no export work at all.
        let p: Ipv4Prefix = "10.42.0.0/16".parse().unwrap();
        let mut h = square(0, vec!["10.42.0.0/16"]);
        let before = h.speakers[1].rib_stats();
        let sent = h.speakers[1].msgs_sent();
        h.speakers[3].originate(p, SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        let after = h.speakers[1].rib_stats();
        assert_eq!(
            h.fib_of(1).get(&p).map(Vec::len),
            Some(2),
            "the FIB still learns the second next hop"
        );
        assert_eq!(
            (after.export_cache_hits, after.export_cache_misses),
            (before.export_cache_hits, before.export_cache_misses),
            "no peer was visited"
        );
        assert_eq!(after.decide_calls, before.decide_calls + 1, "one decision");
        assert_eq!(h.speakers[1].msgs_sent(), sent, "nothing to say");
    }

    #[test]
    fn one_export_transform_serves_every_peer_of_a_change() {
        // r2 learns a new prefix from r1 and owes it to r3 and r4 (r1 is
        // split horizon): one transform, one more peer served from it, and
        // two UPDATEs that differ only in their NEXT_HOP.
        let mut h = square(0, vec![]);
        let before = h.speakers[1].rib_stats();
        h.speakers[0].originate("10.42.0.0/16".parse().unwrap(), SimTime::from_secs(1));
        let from_r1: Vec<Bytes> = h.speakers[0]
            .take_outputs()
            .into_iter()
            .filter_map(|o| match o {
                SpeakerOutput::SendBytes { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        for bytes in from_r1 {
            h.speakers[1].on_bytes(addr(12, 1), SimTime::from_secs(1), &bytes);
        }
        let after = h.speakers[1].rib_stats();
        assert_eq!(
            (after.export_cache_misses, after.export_cache_hits),
            (before.export_cache_misses + 1, before.export_cache_hits + 1)
        );
        let sent: Vec<(Ipv4Addr, crate::msg::UpdateMsg)> = h.speakers[1]
            .take_outputs()
            .into_iter()
            .filter_map(|o| match o {
                SpeakerOutput::SendBytes { peer, bytes } => {
                    match crate::msg::Message::decode(&bytes) {
                        Ok(Some((crate::msg::Message::Update(u), _))) => Some((peer, u)),
                        other => panic!("expected one UPDATE, got {other:?}"),
                    }
                }
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 2);
        for ((peer, update), local) in sent.iter().zip([addr(23, 2), addr(24, 2)]) {
            let attrs = update.attrs.as_deref().expect("an announcement");
            assert_eq!(attrs.next_hop, local, "next-hop-self toward {peer}");
            assert_eq!(attrs.as_path_len(), 2);
        }
        assert_eq!(
            PathAttributes {
                next_hop: Ipv4Addr::UNSPECIFIED,
                ..(**sent[0].1.attrs.as_ref().unwrap()).clone()
            },
            PathAttributes {
                next_hop: Ipv4Addr::UNSPECIFIED,
                ..(**sent[1].1.attrs.as_ref().unwrap()).clone()
            }
        );
    }

    #[test]
    fn export_cache_batches_shared_attrs_and_keeps_withdrawal_bypass() {
        // r1 -- r2 -- r3; r2 enforces a 5 s MRAI toward its peers. Two
        // prefixes that share one attribute set must flush as a SINGLE
        // UPDATE (grouping is by interned attr id now, not a deep scan),
        // withdrawals must still bypass the hold-down, and a flap +
        // re-announce must be served from r2's export cache.
        let r1 = speaker(
            65001,
            [1, 1, 1, 1],
            vec![(addr(12, 2), addr(12, 1), 65002)],
            vec!["10.1.0.0/16"],
        );
        let r2 = speaker_mrai(
            65002,
            [2, 2, 2, 2],
            vec![
                (addr(12, 1), addr(12, 2), 65001),
                (addr(23, 3), addr(23, 2), 65003),
            ],
            vec![],
            5,
        );
        let r3 = speaker(
            65003,
            [3, 3, 3, 3],
            vec![(addr(23, 2), addr(23, 3), 65002)],
            vec![],
        );
        let mut h = Harness::new(vec![r1, r2, r3]);
        h.start(SimTime::ZERO);
        let p2: Ipv4Prefix = "10.42.0.0/16".parse().unwrap();
        let p3: Ipv4Prefix = "10.43.0.0/16".parse().unwrap();
        // Two more networks at t=1; identical attributes from r1, so at r2
        // they intern to the same id.
        h.speakers[0].originate(p2, SimTime::from_secs(1));
        h.speakers[0].originate(p3, SimTime::from_secs(1));
        h.run(SimTime::from_secs(1));
        assert!(h.speakers[2].rib().decide(p2).is_none(), "held by MRAI");
        // Flush at t=5: intercept r2's wire output toward r3 before
        // delivering it, to count UPDATE messages.
        h.speakers[1].poll_timers(SimTime::from_secs(5));
        let mut updates = 0usize;
        let mut nlri: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        for out in h.speakers[1].take_outputs() {
            match out {
                SpeakerOutput::SendBytes { peer, bytes } => {
                    if peer == addr(23, 3) {
                        let mut off = 0;
                        while off < bytes.len() {
                            let (m, used) = crate::msg::Message::decode(&bytes[off..])
                                .expect("valid wire bytes")
                                .expect("complete message");
                            off += used;
                            if let crate::msg::Message::Update(u) = m {
                                updates += 1;
                                nlri.extend(u.nlri.iter().copied());
                            }
                        }
                    }
                    let from = h.speakers[1]
                        .config
                        .peers
                        .iter()
                        .find(|p| p.peer_addr == peer)
                        .map(|p| p.local_addr)
                        .expect("configured peer");
                    let j = h.addr_of[&peer];
                    h.speakers[j].on_bytes(from, SimTime::from_secs(5), &bytes);
                }
                SpeakerOutput::RouteChanged { prefix, next_hops } => {
                    h.route_events[1].push((prefix, next_hops));
                }
                _ => {}
            }
        }
        h.run(SimTime::from_secs(5));
        assert_eq!(updates, 1, "shared attrs must batch into one UPDATE");
        assert_eq!(nlri, [p2, p3].into_iter().collect::<BTreeSet<_>>());
        assert!(h.speakers[2].rib().decide(p2).is_some());
        assert!(h.speakers[2].rib().decide(p3).is_some());
        // Withdraw p2 at t=6 — deep inside the re-armed hold-down; the
        // withdrawal must reach r3 immediately.
        h.speakers[0].withdraw(p2, SimTime::from_secs(6));
        h.run(SimTime::from_secs(6));
        assert!(
            h.speakers[2].rib().decide(p2).is_none(),
            "withdrawal bypasses MRAI under the export cache"
        );
        // Re-announce p2 at t=11 (MRAI idle again): identical attributes
        // re-intern to the same id, so r2 answers its export toward r3
        // from the cache — hits grow, misses do not.
        let before = h.speakers[1].rib_stats();
        assert!(before.export_cache_hits > 0, "shared attrs already hit");
        // (No poll_timers here: the harness never exchanges keepalives, so
        // polling at t=11 would expire the 9 s hold timer. The MRAI is
        // idle again by now, so the announce goes straight out.)
        h.speakers[0].originate(p2, SimTime::from_secs(11));
        h.run(SimTime::from_secs(11));
        let after = h.speakers[1].rib_stats();
        assert!(h.speakers[2].rib().decide(p2).is_some(), "re-learned");
        assert!(
            after.export_cache_hits > before.export_cache_hits,
            "re-announce must be an export-cache hit"
        );
        assert_eq!(
            after.export_cache_misses, before.export_cache_misses,
            "no new export computation on a flap + re-announce"
        );
    }

    #[test]
    fn shared_pool_speakers_converge_identically() {
        // Same two-router topology twice: private stores vs one shared
        // pool. FIBs and message counts must be identical; the pool ends
        // up with every distinct attribute set interned once.
        let build = |pool: Option<crate::rib::AttrPool>| {
            let mk = |asn, id: [u8; 4], peers: Vec<(Ipv4Addr, Ipv4Addr, u16)>, nets: Vec<&str>| {
                let config = BgpConfig {
                    asn,
                    router_id: Ipv4Addr::from(id),
                    timers: quick_timers(),
                    peers: peers
                        .into_iter()
                        .map(|(peer_addr, local_addr, remote_as)| PeerConfig {
                            peer_addr,
                            local_addr,
                            remote_as,
                        })
                        .collect(),
                    networks: nets.iter().map(|s| s.parse().unwrap()).collect(),
                    policies: Default::default(),
                    multipath: true,
                };
                match &pool {
                    Some(p) => BgpSpeaker::new_with_pool(config, p.clone()),
                    None => BgpSpeaker::new(config),
                }
            };
            let r1 = mk(
                65001,
                [1, 1, 1, 1],
                vec![(addr(0, 2), addr(0, 1), 65002)],
                vec!["10.1.0.0/16", "10.3.0.0/16"],
            );
            let r2 = mk(
                65002,
                [2, 2, 2, 2],
                vec![(addr(0, 1), addr(0, 2), 65001)],
                vec!["10.2.0.0/16"],
            );
            let mut h = Harness::new(vec![r1, r2]);
            h.start(SimTime::ZERO);
            h
        };
        let private = build(None);
        let pool = crate::rib::AttrPool::new();
        let shared = build(Some(pool.clone()));
        for i in 0..2 {
            assert_eq!(private.fib_of(i), shared.fib_of(i), "speaker {i} FIB");
            assert_eq!(
                private.speakers[i].msgs_sent(),
                shared.speakers[i].msgs_sent()
            );
        }
        // The pool holds the union of both speakers' distinct sets, and the
        // per-speaker store-size figure is zeroed so a merged report counts
        // the pool once.
        let private_total: u64 = (0..2)
            .map(|i| private.speakers[i].rib_stats().attr_store_size)
            .sum();
        assert!(pool.len() as u64 <= private_total);
        assert!(pool.len() >= 2, "both speakers interned into one pool");
        let shared_total: u64 = (0..2)
            .map(|i| shared.speakers[i].rib_stats().attr_store_size)
            .sum();
        assert_eq!(shared_total, 0);
    }

    // ---- policy choke points ---------------------------------------------

    use crate::policy::{
        gao_rexford_policy, PeerPolicy, PeerRole, PolicyAction, PrefixMatch, RouteMap,
        RouteMapClause, RouteMapMatch, RouteMapSet,
    };
    use std::sync::Arc;

    fn speaker_policed(
        asn: u16,
        id: [u8; 4],
        peers: Vec<(Ipv4Addr, Ipv4Addr, u16)>,
        networks: Vec<&str>,
        policies: Vec<(Ipv4Addr, PeerPolicy)>,
    ) -> BgpSpeaker {
        let mut s = speaker(asn, id, peers, networks);
        let config = BgpConfig {
            policies: policies.into_iter().collect(),
            ..s.config.clone()
        };
        s = BgpSpeaker::new(config);
        s
    }

    fn addr4(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// Three routers in a line, optionally with permit-all route-maps on
    /// every peering. The policy machinery must be engaged yet produce the
    /// exact same behavior as having no policy at all.
    fn line3(permit_all: bool) -> Harness {
        let p = |on: bool| -> Vec<(Ipv4Addr, PeerPolicy)> {
            if !on {
                return vec![];
            }
            let all = PeerPolicy {
                import: Some(Arc::new(RouteMap::permit_all())),
                export: Some(Arc::new(RouteMap::permit_all())),
            };
            // Assigned to every address we might peer with below.
            vec![
                (addr4(10, 9, 1, 1), all.clone()),
                (addr4(10, 9, 1, 2), all.clone()),
                (addr4(10, 9, 2, 1), all.clone()),
                (addr4(10, 9, 2, 2), all),
            ]
        };
        let a = speaker_policed(
            64512,
            [1, 1, 1, 1],
            vec![(addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 64513)],
            vec!["21.1.0.0/16"],
            p(permit_all),
        );
        let b = speaker_policed(
            64513,
            [2, 2, 2, 2],
            vec![
                (addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 64512),
                (addr4(10, 9, 2, 2), addr4(10, 9, 2, 1), 64514),
            ],
            vec!["21.2.0.0/16"],
            p(permit_all),
        );
        let c = speaker_policed(
            64514,
            [3, 3, 3, 3],
            vec![(addr4(10, 9, 2, 1), addr4(10, 9, 2, 2), 64513)],
            vec!["21.3.0.0/16"],
            p(permit_all),
        );
        let mut h = Harness::new(vec![a, b, c]);
        h.start(SimTime::ZERO);
        h
    }

    #[test]
    fn permit_all_policy_is_behaviorally_identical() {
        let bare = line3(false);
        let policed = line3(true);
        for i in 0..3 {
            // Same FIBs, same event order, same message counts: the policed
            // import path buckets NLRI and re-interns, but a permit-all map
            // must be indistinguishable from no map.
            assert_eq!(bare.route_events[i], policed.route_events[i], "events {i}");
            assert_eq!(bare.fib_of(i), policed.fib_of(i), "fib {i}");
            assert_eq!(
                bare.speakers[i].msgs_sent(),
                policed.speakers[i].msgs_sent(),
                "msgs {i}"
            );
        }
    }

    #[test]
    fn import_policy_filters_and_implicit_denies() {
        // A imports from B with a map that denies 21.1/16 and permits only
        // 21.2/16; B also announces 21.3/16 which matches no clause
        // (implicit deny).
        let import = RouteMap::new(vec![
            RouteMapClause {
                action: PolicyAction::Deny,
                matches: RouteMapMatch {
                    prefixes: vec![PrefixMatch::within("21.1.0.0/16".parse().unwrap())],
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet::default(),
            },
            RouteMapClause {
                action: PolicyAction::Permit,
                matches: RouteMapMatch {
                    prefixes: vec![PrefixMatch::within("21.2.0.0/16".parse().unwrap())],
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet::default(),
            },
        ]);
        let a = speaker_policed(
            64512,
            [1, 1, 1, 1],
            vec![(addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 64513)],
            vec![],
            vec![(
                addr4(10, 9, 1, 2),
                PeerPolicy {
                    import: Some(Arc::new(import)),
                    export: None,
                },
            )],
        );
        let b = speaker(
            64513,
            [2, 2, 2, 2],
            vec![(addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 64512)],
            vec!["21.1.0.0/16", "21.2.0.0/16", "21.3.0.0/16"],
        );
        let mut h = Harness::new(vec![a, b]);
        h.start(SimTime::ZERO);
        let fib = h.fib_of(0);
        assert!(!fib.contains_key(&"21.1.0.0/16".parse().unwrap()), "denied");
        assert!(
            fib.contains_key(&"21.2.0.0/16".parse().unwrap()),
            "permitted"
        );
        assert!(
            !fib.contains_key(&"21.3.0.0/16".parse().unwrap()),
            "implicit deny on policy miss"
        );
    }

    #[test]
    fn prefix_sensitive_export_policy_filters_per_prefix() {
        // A originates two prefixes that share one interned attribute set;
        // its export map toward B permits only one of them. Attr-id-only
        // cache keying would conflate the two — the prefix-aware key must
        // keep them apart.
        let export = RouteMap::new(vec![RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch {
                prefixes: vec![PrefixMatch::within("21.2.0.0/16".parse().unwrap())],
                ..RouteMapMatch::default()
            },
            set: RouteMapSet::default(),
        }]);
        let a = speaker_policed(
            64512,
            [1, 1, 1, 1],
            vec![(addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 64513)],
            vec!["21.1.0.0/16", "21.2.0.0/16"],
            vec![(
                addr4(10, 9, 1, 2),
                PeerPolicy {
                    import: None,
                    export: Some(Arc::new(export)),
                },
            )],
        );
        let b = speaker(
            64513,
            [2, 2, 2, 2],
            vec![(addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 64512)],
            vec![],
        );
        let mut h = Harness::new(vec![a, b]);
        h.start(SimTime::ZERO);
        let fib = h.fib_of(1);
        assert!(!fib.contains_key(&"21.1.0.0/16".parse().unwrap()));
        assert!(fib.contains_key(&"21.2.0.0/16".parse().unwrap()));
    }

    #[test]
    fn export_set_block_reaches_the_wire() {
        // A's export map MED-stamps and prepends; B's Loc-RIB must see the
        // longer path and the MED (which survives the standard strip when
        // set by policy).
        let export = RouteMap::new(vec![RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch::default(),
            set: RouteMapSet {
                med: Some(77),
                prepend: 2,
                add_communities: vec![0xff99_0001],
                ..RouteMapSet::default()
            },
        }]);
        let a = speaker_policed(
            64512,
            [1, 1, 1, 1],
            vec![(addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 64513)],
            vec!["21.1.0.0/16"],
            vec![(
                addr4(10, 9, 1, 2),
                PeerPolicy {
                    import: None,
                    export: Some(Arc::new(export)),
                },
            )],
        );
        let b = speaker(
            64513,
            [2, 2, 2, 2],
            vec![(addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 64512)],
            vec![],
        );
        let mut h = Harness::new(vec![a, b]);
        h.start(SimTime::ZERO);
        let prefix: Ipv4Prefix = "21.1.0.0/16".parse().unwrap();
        let decision = h.speakers[1].rib().decide(prefix).expect("route installed");
        let attrs = &decision.best.attrs;
        assert_eq!(attrs.med, Some(77));
        assert_eq!(attrs.as_path_len(), 3, "own AS + 2 prepends");
        assert!(attrs.has_community(0xff99_0001));
    }

    #[test]
    fn gao_rexford_routes_are_valley_free() {
        // Star around M (65000): X is M's customer, Y and Z are M's peers.
        // X's prefix (customer route) must reach the peers; Y's prefix
        // (peer route) must reach the customer X but NOT the other peer Z.
        let m = speaker_policed(
            65000,
            [9, 9, 9, 9],
            vec![
                (addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 65001),
                (addr4(10, 9, 2, 2), addr4(10, 9, 2, 1), 65002),
                (addr4(10, 9, 3, 2), addr4(10, 9, 3, 1), 65003),
            ],
            vec![],
            vec![
                (addr4(10, 9, 1, 2), gao_rexford_policy(PeerRole::Customer)),
                (addr4(10, 9, 2, 2), gao_rexford_policy(PeerRole::Peer)),
                (addr4(10, 9, 3, 2), gao_rexford_policy(PeerRole::Peer)),
            ],
        );
        let x = speaker_policed(
            65001,
            [1, 1, 1, 1],
            vec![(addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 65000)],
            vec!["21.1.0.0/16"],
            vec![(addr4(10, 9, 1, 1), gao_rexford_policy(PeerRole::Provider))],
        );
        let y = speaker_policed(
            65002,
            [2, 2, 2, 2],
            vec![(addr4(10, 9, 2, 1), addr4(10, 9, 2, 2), 65000)],
            vec!["21.2.0.0/16"],
            vec![(addr4(10, 9, 2, 1), gao_rexford_policy(PeerRole::Peer))],
        );
        let z = speaker_policed(
            65003,
            [3, 3, 3, 3],
            vec![(addr4(10, 9, 3, 1), addr4(10, 9, 3, 2), 65000)],
            vec!["21.3.0.0/16"],
            vec![(addr4(10, 9, 3, 1), gao_rexford_policy(PeerRole::Peer))],
        );
        let mut h = Harness::new(vec![m, x, y, z]);
        h.start(SimTime::ZERO);
        let customer_pfx: Ipv4Prefix = "21.1.0.0/16".parse().unwrap();
        let peer_pfx: Ipv4Prefix = "21.2.0.0/16".parse().unwrap();
        // Peers see the customer route...
        assert!(
            h.fib_of(2).contains_key(&customer_pfx),
            "Y gets customer route"
        );
        assert!(
            h.fib_of(3).contains_key(&customer_pfx),
            "Z gets customer route"
        );
        // ...the customer sees everything...
        assert!(h.fib_of(1).contains_key(&peer_pfx), "X gets peer route");
        // ...but a peer route never transits to another peer (no valley).
        assert!(
            !h.fib_of(3).contains_key(&peer_pfx),
            "peer route must not reach peer Z through M"
        );
        assert!(h.fib_of(0).contains_key(&peer_pfx), "M itself routes to Y");
    }

    #[test]
    fn policy_swap_clears_the_export_memo_and_takes_effect_on_resync() {
        let a = speaker(
            64512,
            [1, 1, 1, 1],
            vec![(addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 64513)],
            vec!["21.1.0.0/16"],
        );
        let b = speaker(
            64513,
            [2, 2, 2, 2],
            vec![(addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 64512)],
            vec![],
        );
        let mut h = Harness::new(vec![a, b]);
        h.start(SimTime::ZERO);
        let prefix: Ipv4Prefix = "21.1.0.0/16".parse().unwrap();
        assert!(h.fib_of(1).contains_key(&prefix));
        // Install a deny-all export map on A, then flap the session so the
        // full table is re-synced under the new policy. The old permit was
        // memoized; the swap clears the peer's memo.
        h.speakers[0].set_peer_policy(
            addr4(10, 9, 1, 2),
            PeerPolicy {
                import: None,
                export: Some(Arc::new(RouteMap::new(vec![RouteMapClause::deny_any()]))),
            },
        );
        let t = SimTime::from_secs_f64(0.001);
        h.speakers[0].on_transport_down(addr4(10, 9, 1, 2), t);
        h.speakers[1].on_transport_down(addr4(10, 9, 1, 1), t);
        h.run(t);
        h.speakers[0].on_transport_up(addr4(10, 9, 1, 2), t);
        h.speakers[1].on_transport_up(addr4(10, 9, 1, 1), t);
        h.run(t);
        assert!(
            !h.fib_of(1).contains_key(&prefix),
            "deny-all export must suppress the route after resync"
        );
        // Swapping back and forth must not strand one memo generation per
        // swap: each swap clears the peer's memo, and the re-sync refills it
        // with the one entry this table needs.
        let permit = PeerPolicy {
            import: None,
            export: Some(Arc::new(RouteMap::permit_all())),
        };
        let deny = PeerPolicy {
            import: None,
            export: Some(Arc::new(RouteMap::new(vec![RouteMapClause::deny_any()]))),
        };
        for round in 0..8u64 {
            let policy = if round % 2 == 0 { &permit } else { &deny };
            h.speakers[0].set_peer_policy(addr4(10, 9, 1, 2), policy.clone());
            assert!(h.speakers[0].export_memo.is_empty(), "swap clears");
            let t = SimTime::from_secs(1 + round);
            h.speakers[0].on_transport_down(addr4(10, 9, 1, 2), t);
            h.speakers[1].on_transport_down(addr4(10, 9, 1, 1), t);
            h.run(t);
            h.speakers[0].on_transport_up(addr4(10, 9, 1, 2), t);
            h.speakers[1].on_transport_up(addr4(10, 9, 1, 1), t);
            h.run(t);
            assert_eq!(
                h.fib_of(1).contains_key(&prefix),
                round % 2 == 0,
                "round {round}: the installed policy decides"
            );
            assert_eq!(h.speakers[0].export_memo.len(), 1, "round {round}");
        }
    }

    #[test]
    fn policy_swap_revisits_peers_on_the_next_reconcile() {
        // No session flap here: after a swap, a reconcile whose best path
        // did not change must still re-export (the synced identities were
        // reset), so the new policy reaches the wire.
        let a = speaker(
            64512,
            [1, 1, 1, 1],
            vec![
                (addr4(10, 9, 1, 2), addr4(10, 9, 1, 1), 64513),
                (addr4(10, 9, 2, 2), addr4(10, 9, 2, 1), 64514),
            ],
            vec![],
        );
        let b = speaker(
            64513,
            [2, 2, 2, 2],
            vec![(addr4(10, 9, 1, 1), addr4(10, 9, 1, 2), 64512)],
            vec![],
        );
        let c = speaker(
            64514,
            [3, 3, 3, 3],
            vec![(addr4(10, 9, 2, 1), addr4(10, 9, 2, 2), 64512)],
            vec!["21.3.0.0/16"],
        );
        let mut h = Harness::new(vec![a, b, c]);
        h.start(SimTime::ZERO);
        let prefix: Ipv4Prefix = "21.3.0.0/16".parse().unwrap();
        assert!(h.fib_of(1).contains_key(&prefix), "B learned it through A");
        h.speakers[0].set_peer_policy(
            addr4(10, 9, 1, 2),
            PeerPolicy {
                import: None,
                export: Some(Arc::new(RouteMap::new(vec![RouteMapClause::deny_any()]))),
            },
        );
        // C re-originates the same network: at A an identical announcement
        // would not even reach reconcile, so withdraw and re-announce — the
        // second reconcile lands on the very identity synced before the
        // swap.
        let t = SimTime::from_secs(1);
        h.speakers[2].withdraw(prefix, t);
        h.run(t);
        h.speakers[2].originate(prefix, t);
        h.run(t);
        assert!(
            !h.fib_of(1).contains_key(&prefix),
            "the deny-all export took effect without a session reset"
        );
        assert!(h.speakers[0].rib().decide(prefix).is_some());
    }

    // ---- export reuse across a run of equal routes ------------------------

    /// A hub in AS 64512 whose four peers are driven with raw messages:
    /// A and B (lowest addresses first), C without policy and D whose
    /// export map permits only `permit`.
    fn hub(permit: Ipv4Prefix) -> BgpSpeaker {
        let peer = |i: u8| addr4(10, 9, i, 2);
        let only = RouteMap::new(vec![RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch {
                prefixes: vec![PrefixMatch::within(permit)],
                ..RouteMapMatch::default()
            },
            set: RouteMapSet::default(),
        }]);
        let mut s = speaker_policed(
            64512,
            [9, 9, 9, 9],
            (0..4)
                .map(|i| (peer(i), addr4(10, 9, i, 1), 65001 + u16::from(i)))
                .collect(),
            vec![],
            vec![(
                peer(3),
                PeerPolicy {
                    import: None,
                    export: Some(Arc::new(only)),
                },
            )],
        );
        s.start(SimTime::ZERO);
        for i in 0..4 {
            s.on_transport_up(peer(i), SimTime::ZERO);
            let open = crate::msg::Message::Open(crate::msg::OpenMsg {
                version: 4,
                my_as: 65001 + u16::from(i),
                hold_time: 0,
                bgp_id: peer(i),
                capabilities: vec![],
            });
            let bytes = [
                &open.encode()[..],
                &crate::msg::Message::Keepalive.encode()[..],
            ]
            .concat();
            s.on_bytes(peer(i), SimTime::ZERO, &bytes);
            assert_eq!(s.session_state(peer(i)), Some(SessionState::Established));
        }
        s
    }

    /// Delivers one UPDATE from peer `i` whose announcements carry the
    /// same attributes whoever sends them (NEXT_HOP aside): one interned
    /// set at the hub.
    fn send_update(s: &mut BgpSpeaker, i: u8, withdrawn: &[Ipv4Prefix], nlri: &[Ipv4Prefix]) {
        let from = addr4(10, 9, i, 2);
        let update = crate::msg::UpdateMsg {
            withdrawn: withdrawn.to_vec(),
            attrs: (!nlri.is_empty()).then(|| {
                Arc::new(PathAttributes {
                    as_path: vec![crate::msg::AsPathSegment::Sequence(vec![65009])],
                    ..PathAttributes::originated(from)
                })
            }),
            nlri: nlri.to_vec(),
        };
        s.on_bytes(
            from,
            SimTime::ZERO,
            &crate::msg::Message::Update(update).encode(),
        );
    }

    /// Per peer index: the prefixes the drained UPDATEs announced and
    /// withdrew.
    type Told = BTreeMap<u8, (BTreeSet<Ipv4Prefix>, BTreeSet<Ipv4Prefix>)>;

    fn told(s: &mut BgpSpeaker) -> Told {
        let mut out = Told::new();
        for o in s.take_outputs() {
            let SpeakerOutput::SendBytes { peer, bytes } = o else {
                continue;
            };
            let mut at = 0;
            while at < bytes.len() {
                let (m, used) = crate::msg::Message::decode(&bytes[at..])
                    .expect("valid wire bytes")
                    .expect("a whole message");
                at += used;
                if let crate::msg::Message::Update(u) = m {
                    let entry = out.entry(peer.octets()[2]).or_default();
                    entry.0.extend(u.nlri.iter().copied());
                    entry.1.extend(u.withdrawn.iter().copied());
                }
            }
        }
        out
    }

    fn set(ps: &[Ipv4Prefix]) -> BTreeSet<Ipv4Prefix> {
        ps.iter().copied().collect()
    }

    #[test]
    fn export_reuse_keeps_split_horizon_and_prefix_sensitive_maps_per_prefix() {
        let p1: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let p2: Ipv4Prefix = "10.2.0.0/16".parse().unwrap();
        let mut s = hub(p1);
        // p2 is learned from A and B alike; A's lower address wins it.
        send_update(&mut s, 0, &[], &[p2]);
        send_update(&mut s, 1, &[], &[p2]);
        assert_eq!(s.rib().decide(p2).unwrap().best.peer, addr4(10, 9, 0, 2));
        let _ = told(&mut s);
        // One UPDATE from A withdraws p2 and announces p1: one reconcile
        // hands down p1 (best from A) next to p2 (best now from B), with
        // one attribute id between them.
        send_update(&mut s, 0, &[p2], &[p1]);
        assert_eq!(
            s.rib().decide(p1).unwrap().best.attr_id,
            s.rib().decide(p2).unwrap().best.attr_id
        );
        // What a per-prefix export says each peer must be told: split
        // horizon keeps p1 from A and now p2 from B; D's map permits p1
        // only; C, which already holds p2 unchanged, learns p1.
        let mut want = Told::new();
        want.insert(0, (set(&[p2]), set(&[])));
        want.insert(1, (set(&[p1]), set(&[p2])));
        want.insert(2, (set(&[p1]), set(&[])));
        want.insert(3, (set(&[p1]), set(&[])));
        assert_eq!(told(&mut s), want);
    }

    #[test]
    fn a_run_of_equal_routes_costs_one_export_probe_per_peer() {
        let p1: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let mut s = hub(p1);
        let run: Vec<Ipv4Prefix> = (1..=3)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::new(10, i, 0, 0), 16))
            .collect();
        let probes = |s: &BgpSpeaker| {
            let st = s.rib_stats();
            st.export_cache_hits + st.export_cache_misses
        };
        let before = probes(&s);
        send_update(&mut s, 0, &[], &run);
        // A is the split-horizon peer (no probe); B and C probe once for
        // the run; D's map matches on prefix, so it probes every prefix.
        assert_eq!(probes(&s) - before, 1 + 1 + 3);
        let mut want = Told::new();
        want.insert(1, (set(&run), set(&[])));
        want.insert(2, (set(&run), set(&[])));
        want.insert(3, (set(&[p1]), set(&[])));
        assert_eq!(told(&mut s), want);
    }
}
