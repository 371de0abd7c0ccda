//! Routing Information Bases and the decision process.
//!
//! One [`LocRib`] per speaker holds the per-peer Adj-RIB-In plus locally
//! originated routes, and answers "what is the best path (and the ECMP
//! multipath set) for this prefix?" following the RFC 4271 §9.1 ranking:
//!
//! 1. highest LOCAL_PREF (default 100),
//! 2. locally originated beats learned,
//! 3. shortest AS_PATH,
//! 4. lowest ORIGIN (IGP < EGP < INCOMPLETE),
//! 5. lowest MED (compared only between routes from the same neighbor AS),
//! 6. eBGP beats iBGP,
//! 7. lowest peer address (router-id proxy) as the final tie-break.
//!
//! With multipath enabled, every candidate equal to the best through step 6
//! joins the multipath set — the relaxation real routers call
//! `maximum-paths`, which the demo's "BGP + ECMP" traffic engineering
//! requires on the fat-tree.
//!
//! ## Compact-id memory shape
//!
//! Fat-tree convergence produces thousands of routes but only a handful of
//! distinct attribute sets. The speaker reads each affected prefix's
//! decision **once** per reconcile and hands it down to the per-peer syncs
//! (see "UPDATE fast path" in DESIGN.md), so everything a reader needs must
//! be plain data in the memo. This RIB stores **nothing keyed by an address
//! struct** on the hot path — the shape production daemons use:
//!
//! * [`AttrStore`] hash-conses [`PathAttributes`] into `Arc`-backed
//!   canonical entries with stable [`AttrId`]s; ranking inputs are
//!   precomputed at intern time, and an intern hashes its attribute set
//!   once, carrying the value through probe, re-probe and insert. An
//!   [`AttrPool`] wraps the store in a shared handle so every speaker in a
//!   run interns each attribute set **once per process**, not once per
//!   speaker.
//! * Prefixes and peer addresses are interned to `u32` ids
//!   ([`PrefixId`]/[`PeerId`], first-intern order, same discipline as
//!   `AttrId`). The candidate index, decision cache and per-peer Adj-RIB-In
//!   become dense `Vec`s indexed by id: a decide is an array load, not a
//!   tree walk.
//! * Per prefix, candidates live in a small sorted `Vec` ordered by
//!   `(remote, peer address)` — byte-for-byte the iteration order of the
//!   old `BTreeMap<CandKey, _>`, which the `min_by` tie-break (step 7)
//!   depends on.
//! * The per-prefix memo is a [`BestPath`] record — best candidate plus
//!   the interned id of the multipath next-hop set ([`HopSetId`]) — not a
//!   heap object. The public [`Decision`] is a *view* that
//!   [`LocRib::decide`] builds on demand from that record and the
//!   candidate set, for tests, dumps and the differential oracles.
//!
//! Ids order by first appearance, **not** by value. Every API that feeds a
//! determinism-sensitive consumer (affected-sets, the live prefix index)
//! therefore returns id slices sorted by *value* via the interner's
//! monotone sort key, so downstream iteration order — and hence wire
//! bytes — is identical to the address-keyed implementations that came
//! before. The pre-index one survives as [`crate::naive`], the single
//! reference model `tests/prop_rib_differential.rs` drives in lockstep
//! with this one.

use crate::msg::{Origin, PathAttributes, UpdateMsg};
use horse_net::addr::Ipv4Prefix;
use horse_net::intern::{
    fast_hash, FastMap, IdSet, PeerInterner, PrefixId, PrefixInterner, PrefixPool,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Stable identifier of an interned attribute set inside one [`AttrStore`].
///
/// Ids are assigned in first-intern order, so equal event sequences produce
/// equal ids — they are deterministic and never reused or compacted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

impl AttrId {
    /// The raw index (observability/debug output).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One interned attribute set plus its precomputed ranking inputs.
#[derive(Debug, Clone)]
pub(crate) struct AttrMeta {
    pub(crate) attrs: Arc<PathAttributes>,
    pub(crate) local_pref: u32,
    pub(crate) path_len: u32,
    pub(crate) origin_rank: u8,
    pub(crate) med: u32,
    pub(crate) neighbor_as: Option<u16>,
    /// The next older entry whose attribute set has the same 64-bit hash.
    same_hash: Option<AttrId>,
}

/// An attribute set on its way into the store: borrowed from a decoded
/// UPDATE (a miss shares that allocation) or owned (a miss moves it into a
/// fresh `Arc`).
enum AttrSrc<'a> {
    Shared(&'a Arc<PathAttributes>),
    Owned(PathAttributes),
}

impl AttrSrc<'_> {
    fn get(&self) -> &PathAttributes {
        match self {
            AttrSrc::Shared(a) => a,
            AttrSrc::Owned(a) => a,
        }
    }

    fn into_shared(self) -> Arc<PathAttributes> {
        match self {
            AttrSrc::Shared(a) => Arc::clone(a),
            AttrSrc::Owned(a) => Arc::new(a),
        }
    }
}

/// Hash-consing store for [`PathAttributes`].
///
/// Interning (through [`AttrPool`]) returns the id of the canonical entry,
/// creating one only for a never-seen attribute set. The index maps the
/// attribute set's [`fast_hash`] to the newest entry with that hash (older
/// ones chain through `AttrMeta::same_hash`), so a caller that already
/// computed the hash — the pool probing under the read lock, then again
/// under the write lock — never hashes the set a second time, and lookups
/// never allocate.
#[derive(Debug, Clone, Default)]
pub struct AttrStore {
    ids: FastMap<u64, AttrId>,
    metas: Vec<AttrMeta>,
}

impl AttrStore {
    /// Probe-then-insert with a hash the caller already computed; the
    /// `bool` is true when this call created the entry.
    fn intern_hashed(&mut self, hash: u64, src: AttrSrc<'_>) -> (AttrId, bool) {
        match self.find(hash, src.get()) {
            Some(id) => (id, false),
            None => (self.insert_new(hash, src.into_shared()), true),
        }
    }

    /// The entry equal to `attrs` among those hashing to `hash`.
    fn find(&self, hash: u64, attrs: &PathAttributes) -> Option<AttrId> {
        let mut at = self.ids.get(&hash).copied();
        while let Some(id) = at {
            let meta = &self.metas[id.0 as usize];
            if *meta.attrs == *attrs {
                return Some(id);
            }
            at = meta.same_hash;
        }
        None
    }

    fn insert_new(&mut self, hash: u64, attrs: Arc<PathAttributes>) -> AttrId {
        let id = AttrId(self.metas.len() as u32);
        let meta = AttrMeta {
            local_pref: attrs.local_pref.unwrap_or(100),
            path_len: attrs.as_path_len() as u32,
            origin_rank: match attrs.origin {
                Origin::Igp => 0,
                Origin::Egp => 1,
                Origin::Incomplete => 2,
            },
            med: attrs.med.unwrap_or(0),
            neighbor_as: attrs.neighbor_as(),
            same_hash: self.ids.insert(hash, id),
            attrs,
        };
        self.metas.push(meta);
        id
    }

    /// The canonical shared attributes for an id.
    pub fn attrs(&self, id: AttrId) -> &Arc<PathAttributes> {
        &self.metas[id.0 as usize].attrs
    }

    /// Number of distinct attribute sets interned so far (monotone — this
    /// *is* the peak size).
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Rough heap footprint of the store: canonical attribute allocations
    /// plus table overhead. An estimate for observability (`mem_*` report
    /// counters), not an allocator measurement.
    pub fn bytes_estimate(&self) -> u64 {
        let mut total = 0u64;
        for m in &self.metas {
            let a = &m.attrs;
            let path: usize = a
                .as_path
                .iter()
                .map(|s| {
                    24 + 2 * match s {
                        crate::msg::AsPathSegment::Sequence(v) => v.len(),
                        crate::msg::AsPathSegment::Set(v) => v.len(),
                    }
                })
                .sum();
            let unknown: usize = a.unknown.iter().map(|(_, _, v)| 40 + v.len()).sum();
            // Arc header + PathAttributes + heap behind it, plus the id-map
            // entry and meta-table slot.
            total += (32
                + std::mem::size_of::<PathAttributes>()
                + path
                + 4 * a.communities.len()
                + unknown
                + std::mem::size_of::<AttrMeta>()
                + 48) as u64;
        }
        total
    }

    pub(crate) fn meta(&self, id: AttrId) -> &AttrMeta {
        &self.metas[id.0 as usize]
    }
}

/// A shared handle to one [`AttrStore`].
///
/// `BgpControl` creates one pool per run and hands a clone to every
/// speaker, so a 1000-node experiment interns each distinct attribute set
/// once instead of once per speaker. The handle is a plain
/// `Arc<RwLock<_>>` — **not** copy-on-write: `Arc::make_mut` would fork
/// the table on first write and silently undo the sharing. Correctness
/// does not depend on id *values* (only id equality within one store), so
/// sharing the id space across speakers cannot change any decision or
/// wire byte; pump/sweep determinism holds because the pool is per-run,
/// never process-global across sweep workers.
///
/// Interning is **lock-light**: attribute churn is read-mostly (a
/// converged fleet re-interns the same few hundred sets constantly), so
/// [`AttrPool::intern`] first probes under the read lock and only
/// escalates to the write lock on a genuine miss. Under the intra-run
/// parallel pump, concurrent double-misses are resolved by the store's
/// re-check inside the write lock — one id per value, always. Id *values*
/// may then depend on worker interleaving, which is safe precisely
/// because nothing semantic reads them: ranking uses precomputed metas,
/// wire bytes carry the attributes themselves, announce batching groups
/// by id equality in value-sorted prefix order, and intern/reuse totals
/// count the same events whichever worker wins the race.
#[derive(Debug, Clone, Default)]
pub struct AttrPool(Arc<RwLock<AttrStore>>);

impl AttrPool {
    /// A fresh, empty pool.
    pub fn new() -> AttrPool {
        AttrPool::default()
    }

    /// Read access to the underlying store (held briefly — never across a
    /// call back into a RIB).
    pub fn read(&self) -> RwLockReadGuard<'_, AttrStore> {
        self.0.read().expect("attr pool lock poisoned")
    }

    /// Interns a shared attribute set; the `bool` is true when this call
    /// created the entry (false = fleet-wide reuse). Hits resolve under
    /// the read lock; only a genuine miss takes the write lock.
    pub fn intern(&self, attrs: &Arc<PathAttributes>) -> (AttrId, bool) {
        self.intern_src(AttrSrc::Shared(attrs))
    }

    /// Interns an owned attribute set; the `bool` is true on creation.
    /// Same lock discipline as [`AttrPool::intern`].
    pub fn intern_owned(&self, attrs: PathAttributes) -> (AttrId, bool) {
        self.intern_src(AttrSrc::Owned(attrs))
    }

    /// One hash serves the read-locked probe, the re-probe under the write
    /// lock (another worker may have won the race) and the insert.
    fn intern_src(&self, src: AttrSrc<'_>) -> (AttrId, bool) {
        let hash = fast_hash(src.get());
        if let Some(id) = self.read().find(hash, src.get()) {
            return (id, false);
        }
        self.0
            .write()
            .expect("attr pool lock poisoned")
            .intern_hashed(hash, src)
    }

    /// The canonical shared attributes for an id (owned `Arc` — the lock
    /// cannot outlive the call).
    pub fn attrs(&self, id: AttrId) -> Arc<PathAttributes> {
        Arc::clone(self.read().attrs(id))
    }

    /// Number of distinct attribute sets in the pool.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// See [`AttrStore::bytes_estimate`].
    pub fn bytes_estimate(&self) -> u64 {
        self.read().bytes_estimate()
    }

    /// True when `other` is the same underlying store.
    pub fn same_as(&self, other: &AttrPool) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Work/effectiveness counters for the indexed RIB (and the speaker's
/// export cache, merged in by [`crate::speaker::BgpSpeaker::rib_stats`]).
///
/// All counters are cost observability only: they never feed back into
/// routing decisions or wire output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RibStats {
    /// Decision-process invocations (cache hits included).
    pub decide_calls: u64,
    /// Calls answered from the memoized decision cache.
    pub decide_cache_hits: u64,
    /// Calls that ran the ranking over the candidate set.
    pub decide_recomputes: u64,
    /// Cached decisions dropped by mutations.
    pub invalidations: u64,
    /// Candidates examined across all recomputes.
    pub candidate_touches: u64,
    /// Distinct attribute sets this RIB created in its (possibly shared)
    /// store.
    pub attr_interns: u64,
    /// Attribute-set intern hits (deep clones avoided — with a shared
    /// pool, sets first interned by *another* speaker count here).
    pub attr_reuses: u64,
    /// Attribute-store size. Reported only by RIBs owning a private store;
    /// with a shared pool the owner (`BgpControl`) reports the pool size
    /// once, so merged figures never double-count.
    pub attr_store_size: u64,
    /// Export-policy results served from the per-peer cache.
    pub export_cache_hits: u64,
    /// Export-policy computations (cache misses).
    pub export_cache_misses: u64,
}

impl RibStats {
    /// Accumulates `other` (store sizes add — aggregated over speakers the
    /// sum is the fleet-wide distinct-attribute footprint).
    pub fn merge(&mut self, other: &RibStats) {
        self.decide_calls += other.decide_calls;
        self.decide_cache_hits += other.decide_cache_hits;
        self.decide_recomputes += other.decide_recomputes;
        self.invalidations += other.invalidations;
        self.candidate_touches += other.candidate_touches;
        self.attr_interns += other.attr_interns;
        self.attr_reuses += other.attr_reuses;
        self.attr_store_size += other.attr_store_size;
        self.export_cache_hits += other.export_cache_hits;
        self.export_cache_misses += other.export_cache_misses;
    }
}

/// One candidate in a prefix's sorted set. `(remote, addr_key)` is the
/// sort key: local origination is `(false, 0)` and sorts first; remote
/// peers follow in ascending address order — exactly the gathering order
/// of the naive decision loop, which the `min_by` tie-break depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CandEntry {
    /// False only for the locally originated candidate.
    remote: bool,
    /// `u32::from(peer address)` (0 for local) — `u32` order equals
    /// `Ipv4Addr` order.
    addr_key: u32,
    attr: AttrId,
    ebgp: bool,
}

impl CandEntry {
    fn key(&self) -> (bool, u32) {
        (self.remote, self.addr_key)
    }
}

const LOCAL_KEY: (bool, u32) = (false, 0);

/// One route in a [`Decision`], sharing the interned attribute allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteInfo {
    /// Canonical attributes as received (or as originated).
    pub attrs: Arc<PathAttributes>,
    /// Interned id of `attrs` in the owning RIB's store.
    pub attr_id: AttrId,
    /// The peer this was learned from (`0.0.0.0` for local origination).
    pub peer: Ipv4Addr,
    /// True when learned over eBGP.
    pub ebgp: bool,
}

impl RouteInfo {
    /// True for locally originated paths.
    pub fn is_local(&self) -> bool {
        self.peer == Ipv4Addr::UNSPECIFIED
    }
}

/// Result of running the decision process for one prefix, as a
/// self-contained view: [`LocRib::decide`] builds one on demand from the
/// memoized [`BestPath`] and the candidate set. The speaker's hot path
/// never builds it — it reads the plain-data record through
/// [`LocRib::decide_id`].
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The single best path.
    pub best: RouteInfo,
    /// The ECMP set (always contains `best`; singleton when multipath is
    /// off or nothing ties).
    pub multipath: Vec<RouteInfo>,
    /// Deduplicated, sorted next hops of the multipath set.
    pub next_hops: Vec<Ipv4Addr>,
}

/// Id of a deduplicated, sorted next-hop set interned inside one RIB
/// (first-intern order, never reused). Two decisions of one RIB have equal
/// next-hop sets iff their ids are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HopSetId(u32);

impl HopSetId {
    /// The empty set: an unreachable prefix, or nothing reported yet.
    pub const EMPTY: HopSetId = HopSetId(0);
}

/// The memoized outcome of the decision process for one reachable prefix,
/// as plain data: who won, and the multipath next-hop set by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestPath {
    /// Interned attributes of the best path.
    pub attr_id: AttrId,
    /// The peer it was learned from (`0.0.0.0` for local origination).
    pub peer: Ipv4Addr,
    /// True when learned over eBGP.
    pub ebgp: bool,
    /// The multipath next-hop set ([`LocRib::hop_set`] resolves it).
    pub next_hops: HopSetId,
}

impl BestPath {
    /// True for locally originated paths.
    pub fn is_local(&self) -> bool {
        self.peer == Ipv4Addr::UNSPECIFIED
    }

    /// What an export toward any peer depends on: `(attr id, peer key)`.
    fn identity(best: Option<BestPath>) -> (u32, u32) {
        match best {
            Some(b) => (b.attr_id.0, u32::from(b.peer)),
            None => (UNREACHABLE, 0),
        }
    }
}

/// Identity of an unreachable prefix (attr ids are dense and far smaller).
const UNREACHABLE: u32 = u32::MAX;
/// Identity no decision ever has: the next [`LocRib::decide_synced`]
/// reports a change whatever the decision is.
const UNSYNCED: (u32, u32) = (u32::MAX - 1, 0);

/// Per-prefix decision memo.
#[derive(Debug, Clone, Copy)]
enum Memo {
    /// Not computed since the last invalidation.
    Stale,
    /// Computed: no candidates survive.
    Unreachable,
    /// Computed: the memoized decision.
    Reachable(BestPath),
}

/// Per-prefix slot: the memo plus the exported identity the speaker last
/// fanned out to its peers. The identity survives invalidation — that is
/// the point: a recompute that lands on the same best path is recognised
/// as "nothing to tell the peers".
#[derive(Debug, Clone, Copy)]
struct Slot {
    memo: Memo,
    synced: (u32, u32),
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            memo: Memo::Stale,
            synced: UNSYNCED,
        }
    }
}

/// The RIB's interned next-hop sets. A speaker sees few distinct sets
/// (subsets of its neighbors), so the table stays tiny while every memo and
/// the speaker's FIB view shrink to a 4-byte id per prefix. The empty set
/// is id 0 by convention and not stored, so a RIB that never decides
/// anything allocates nothing here.
#[derive(Debug, Clone, Default)]
struct HopSets {
    ids: FastMap<Box<[Ipv4Addr]>, HopSetId>,
    /// `sets[id - 1]` is the set with that (non-zero) id.
    sets: Vec<Box<[Ipv4Addr]>>,
}

impl HopSets {
    /// Interns a sorted, deduplicated set.
    fn intern(&mut self, hops: &[Ipv4Addr]) -> HopSetId {
        if hops.is_empty() {
            return HopSetId::EMPTY;
        }
        if let Some(&id) = self.ids.get(hops) {
            return id;
        }
        self.sets.push(hops.into());
        let id = HopSetId(self.sets.len() as u32);
        self.ids.insert(hops.into(), id);
        id
    }

    fn get(&self, id: HopSetId) -> &[Ipv4Addr] {
        match id.0 {
            0 => &[],
            n => &self.sets[n as usize - 1],
        }
    }
}

/// The RIB's prefix-id table: private per speaker, or a handle to the
/// per-run [`PrefixPool`] every speaker shares. A shared table gives the
/// whole fleet one id space — a 1000-node full mesh interns each prefix
/// once, not once per speaker — but means ids created by *other* speakers
/// can exceed this RIB's dense arenas, so every arena-indexing path must
/// treat an out-of-range id as "no local candidates".
#[derive(Debug, Clone)]
enum PrefixTable {
    Local(PrefixInterner),
    Shared(PrefixPool),
}

impl Default for PrefixTable {
    fn default() -> Self {
        PrefixTable::Local(PrefixInterner::default())
    }
}

impl PrefixTable {
    fn intern(&mut self, p: Ipv4Prefix) -> PrefixId {
        match self {
            PrefixTable::Local(t) => t.intern(p),
            PrefixTable::Shared(t) => t.intern(p),
        }
    }

    fn get(&self, p: Ipv4Prefix) -> Option<PrefixId> {
        self.read().get(p)
    }

    fn value(&self, id: PrefixId) -> Ipv4Prefix {
        self.read().value(id)
    }

    /// Read access for a batch of lookups: one lock acquisition on a shared
    /// table, none on a private one.
    fn read(&self) -> PrefixRead<'_> {
        match self {
            PrefixTable::Local(t) => PrefixRead::Local(t),
            PrefixTable::Shared(t) => PrefixRead::Shared(t.read()),
        }
    }

    /// Interns every prefix of `ps` in order, appending the ids to `out`.
    fn intern_all(&mut self, ps: &[Ipv4Prefix], out: &mut Vec<PrefixId>) {
        match self {
            PrefixTable::Local(t) => out.extend(ps.iter().map(|p| t.intern(*p))),
            PrefixTable::Shared(t) => t.intern_all(ps, out),
        }
    }

    fn len(&self) -> usize {
        match self {
            PrefixTable::Local(t) => t.len(),
            PrefixTable::Shared(t) => t.len(),
        }
    }

    fn sort_by_value(&self, ids: &mut Vec<PrefixId>) {
        // The common single-prefix UPDATE needs neither the sort nor, on a
        // shared table, the lock behind it.
        if ids.len() > 1 {
            self.read().sort_by_value(ids);
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, PrefixTable::Shared(_))
    }
}

/// A read view of a RIB's prefix table, good for any number of lookups
/// (see [`LocRib::prefix_table`]). On a shared table it holds the pool's
/// read lock: keep it short-lived and never intern while holding it.
pub enum PrefixRead<'a> {
    /// A speaker-private table.
    Local(&'a PrefixInterner),
    /// The per-run pool, read-locked.
    Shared(RwLockReadGuard<'a, PrefixInterner>),
}

impl std::ops::Deref for PrefixRead<'_> {
    type Target = PrefixInterner;

    fn deref(&self) -> &PrefixInterner {
        match self {
            PrefixRead::Local(t) => t,
            PrefixRead::Shared(t) => t,
        }
    }
}

/// The speaker's RIB collection (compact-id shape).
#[derive(Debug, Clone, Default)]
pub struct LocRib {
    local_as: u16,
    multipath: bool,
    pool: AttrPool,
    /// True when `pool` is shared with other RIBs (size reporting moves to
    /// the pool owner).
    pool_shared: bool,
    /// Distinct attribute sets *this RIB* created in the pool.
    interns: Cell<u64>,
    /// Intern hits (including sets first created by other sharers).
    reuses: Cell<u64>,
    prefixes: PrefixTable,
    peers: PeerInterner,
    /// Per peer id: the prefix ids it currently contributes.
    adj_in: Vec<IdSet>,
    /// Per prefix id: candidates sorted by `(remote, addr_key)`. Empty
    /// sets stay allocated (ids are never reused); `live` tracks how many
    /// are non-empty.
    candidates: Vec<Vec<CandEntry>>,
    live: usize,
    /// Per prefix id: memoized decision and last synced identity.
    /// Interior mutability keeps `decide(&self)`.
    cache: RefCell<Vec<Slot>>,
    hop_sets: RefCell<HopSets>,
    stats: RefCell<RibStats>,
    // Reusable scratch (capacity persists across calls; contents do not).
    scratch_ids: Vec<PrefixId>,
    scratch_hops: RefCell<Vec<Ipv4Addr>>,
}

impl LocRib {
    /// A RIB for a speaker in `local_as`, with a private attribute store.
    pub fn new(local_as: u16, multipath: bool) -> LocRib {
        LocRib {
            local_as,
            multipath,
            ..LocRib::default()
        }
    }

    /// A RIB sharing a per-run [`AttrPool`] with other speakers.
    pub fn new_shared(local_as: u16, multipath: bool, pool: AttrPool) -> LocRib {
        LocRib {
            local_as,
            multipath,
            pool,
            pool_shared: true,
            ..LocRib::default()
        }
    }

    /// A RIB sharing both per-run pools — attribute sets *and* the prefix
    /// id space — with other speakers. This is the shape the parallel pump
    /// runs: the pools are lock-light and the id tables fleet-global, so a
    /// prefix announced everywhere costs one intern, not one per speaker.
    pub fn new_shared_pools(
        local_as: u16,
        multipath: bool,
        pool: AttrPool,
        prefixes: PrefixPool,
    ) -> LocRib {
        LocRib {
            local_as,
            multipath,
            pool,
            pool_shared: true,
            prefixes: PrefixTable::Shared(prefixes),
            ..LocRib::default()
        }
    }

    /// Interns into the pool, tracking per-RIB created/reused counts.
    fn pool_intern(&self, attrs: &Arc<PathAttributes>) -> AttrId {
        let (id, created) = self.pool.intern(attrs);
        if created {
            self.interns.set(self.interns.get() + 1);
        } else {
            self.reuses.set(self.reuses.get() + 1);
        }
        id
    }

    /// Interns a prefix, growing the dense per-prefix arenas alongside the
    /// id table.
    fn intern_prefix(&mut self, p: Ipv4Prefix) -> PrefixId {
        let id = self.prefixes.intern(p);
        self.grow_arenas(id);
        id
    }

    /// Makes `id` a valid index into the dense per-prefix arenas.
    fn grow_arenas(&mut self, id: PrefixId) {
        if id.index() >= self.candidates.len() {
            self.candidates.resize(id.index() + 1, Vec::new());
            self.cache.get_mut().resize(id.index() + 1, Slot::default());
        }
    }

    /// Drops `peer`'s candidate for every *known* prefix of `ps` (one table
    /// read for the batch). Unknown prefixes are not interned: withdrawing
    /// something never announced must not grow the arenas.
    fn remove_peer_candidates(
        &mut self,
        peer: Ipv4Addr,
        peer_key: u32,
        ps: &[Ipv4Prefix],
        affected: &mut Vec<PrefixId>,
    ) {
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        {
            let table = self.prefixes.read();
            ids.extend(ps.iter().filter_map(|p| table.get(*p)));
        }
        for &id in &ids {
            if self.remove_peer_candidate(id, peer, peer_key) {
                affected.push(id);
            }
        }
        self.scratch_ids = ids;
    }

    /// Inserts/replaces a candidate, returning the previous entry at the
    /// same key and maintaining the live-prefix count.
    fn upsert_candidate(&mut self, id: PrefixId, entry: CandEntry) -> Option<CandEntry> {
        let set = &mut self.candidates[id.index()];
        match set.binary_search_by_key(&entry.key(), CandEntry::key) {
            Ok(i) => Some(std::mem::replace(&mut set[i], entry)),
            Err(i) => {
                if set.is_empty() {
                    self.live += 1;
                }
                set.insert(i, entry);
                None
            }
        }
    }

    /// Removes the candidate with `key`, maintaining the live count. Ids
    /// beyond the arenas (interned into a shared table by another speaker,
    /// never seen here) have no candidates by construction.
    fn remove_candidate_key(&mut self, id: PrefixId, key: (bool, u32)) -> bool {
        let Some(set) = self.candidates.get_mut(id.index()) else {
            return false;
        };
        match set.binary_search_by_key(&key, CandEntry::key) {
            Ok(i) => {
                set.remove(i);
                if set.is_empty() {
                    self.live -= 1;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Originates a local network, returning the prefix's id.
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> PrefixId {
        let attr = {
            let (id, created) = self.pool.intern_owned(PathAttributes::originated(next_hop));
            if created {
                self.interns.set(self.interns.get() + 1);
            } else {
                self.reuses.set(self.reuses.get() + 1);
            }
            id
        };
        let id = self.intern_prefix(prefix);
        self.upsert_candidate(
            id,
            CandEntry {
                remote: false,
                addr_key: 0,
                attr,
                ebgp: false,
            },
        );
        self.invalidate(id);
        id
    }

    /// Withdraws a locally originated network; `Some(id)` when a local
    /// candidate actually existed.
    pub fn withdraw_local(&mut self, prefix: Ipv4Prefix) -> Option<PrefixId> {
        let id = self.prefixes.get(prefix)?;
        if self.remove_candidate_key(id, LOCAL_KEY) {
            self.invalidate(id);
            Some(id)
        } else {
            None
        }
    }

    /// Applies an UPDATE from `peer`, returning every prefix whose
    /// candidate set changed — sorted by prefix **value** (ascending), the
    /// iteration order all downstream consumers require. Announcements
    /// whose AS_PATH contains our own AS are rejected (loop prevention) —
    /// treated as withdrawals of any previous path from that peer.
    pub fn update_from_peer(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        update: &UpdateMsg,
    ) -> Vec<PrefixId> {
        self.update_from_peer_policed(peer, ebgp, update, None)
    }

    /// [`LocRib::update_from_peer`] with an optional import route-map — the
    /// single import-policy choke point. With `import: None` the behavior
    /// (and the one-intern-per-UPDATE shape) is exactly the unpoliced path.
    /// With a map, NLRI are bucketed by the first matching clause so each
    /// clause's transform is applied and interned **once per UPDATE**, not
    /// per prefix; denied prefixes (deny clause or no clause — implicit
    /// deny) are treated as withdrawals from this peer.
    pub fn update_from_peer_policed(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        update: &UpdateMsg,
        import: Option<&crate::policy::RouteMap>,
    ) -> Vec<PrefixId> {
        let mut affected: Vec<PrefixId> = Vec::new();
        let peer_key = u32::from(peer);
        self.remove_peer_candidates(peer, peer_key, &update.withdrawn, &mut affected);
        if let Some(attrs) = &update.attrs {
            // Loop prevention sees the wire attributes, before any policy.
            if attrs.contains_asn(self.local_as) {
                self.remove_peer_candidates(peer, peer_key, &update.nlri, &mut affected);
            } else {
                match import {
                    None => {
                        // One intern per UPDATE, not per prefix: every NLRI
                        // in the message shares the id (and the allocation).
                        let attr = self.pool_intern(attrs);
                        self.insert_candidates(
                            peer,
                            peer_key,
                            ebgp,
                            attr,
                            &update.nlri,
                            &mut affected,
                        );
                    }
                    Some(map) => {
                        use crate::policy::{PolicyAction, PolicyVerdict};
                        let mut denied: Vec<Ipv4Prefix> = Vec::new();
                        let mut buckets: std::collections::BTreeMap<usize, Vec<Ipv4Prefix>> =
                            std::collections::BTreeMap::new();
                        for p in &update.nlri {
                            match map.first_match(*p, attrs) {
                                Some(i) if map.clauses[i].action == PolicyAction::Permit => {
                                    buckets.entry(i).or_default().push(*p);
                                }
                                _ => denied.push(*p),
                            }
                        }
                        // A denied announce is a withdrawal from this peer
                        // (and, like one, never grows the arenas).
                        self.remove_peer_candidates(peer, peer_key, &denied, &mut affected);
                        for (i, nlri) in buckets {
                            let attr = match map.verdict_of(i, attrs, self.local_as) {
                                PolicyVerdict::Permit(None) => self.pool_intern(attrs),
                                PolicyVerdict::Permit(Some(out)) => self.intern_attrs(out),
                                PolicyVerdict::Deny => unreachable!("bucketed permit clause"),
                            };
                            self.insert_candidates(
                                peer,
                                peer_key,
                                ebgp,
                                attr,
                                &nlri,
                                &mut affected,
                            );
                        }
                    }
                }
            }
        }
        self.prefixes.sort_by_value(&mut affected);
        affected
    }

    /// Removes every route learned from `peer` (session down), returning
    /// the affected prefix ids sorted by value.
    pub fn drop_peer(&mut self, peer: Ipv4Addr) -> Vec<PrefixId> {
        let Some(pid) = self.peers.get(peer) else {
            return Vec::new();
        };
        if pid.index() >= self.adj_in.len() {
            return Vec::new();
        }
        let peer_key = u32::from(peer);
        let mut affected: Vec<PrefixId> = self.adj_in[pid.index()].iter().map(PrefixId).collect();
        self.adj_in[pid.index()].clear();
        for &id in &affected {
            self.remove_candidate_key(id, (true, peer_key));
            self.invalidate(id);
        }
        self.prefixes.sort_by_value(&mut affected);
        affected
    }

    /// Installs one interned attribute set as `peer`'s candidate for each
    /// prefix in `nlri`, maintaining the Adj-RIB-In index and pushing
    /// changed ids onto `affected`.
    fn insert_candidates(
        &mut self,
        peer: Ipv4Addr,
        peer_key: u32,
        ebgp: bool,
        attr: AttrId,
        nlri: &[Ipv4Prefix],
        affected: &mut Vec<PrefixId>,
    ) {
        let pid = self.peers.intern(peer);
        if pid.index() >= self.adj_in.len() {
            self.adj_in.resize(pid.index() + 1, IdSet::new());
        }
        let entry = CandEntry {
            remote: true,
            addr_key: peer_key,
            attr,
            ebgp,
        };
        // One table read (or write, for never-seen prefixes) per UPDATE.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        self.prefixes.intern_all(nlri, &mut ids);
        if let Some(&max) = ids.iter().max() {
            self.grow_arenas(max);
        }
        for &id in &ids {
            let prev = self.upsert_candidate(id, entry);
            self.adj_in[pid.index()].insert(id.0);
            if prev != Some(entry) {
                affected.push(id);
                self.invalidate(id);
            }
        }
        self.scratch_ids = ids;
    }

    /// Drops `peer`'s candidate for one prefix, maintaining both indexes.
    /// Returns true when a candidate actually existed.
    fn remove_peer_candidate(&mut self, id: PrefixId, peer: Ipv4Addr, peer_key: u32) -> bool {
        if !self.remove_candidate_key(id, (true, peer_key)) {
            return false;
        }
        if let Some(pid) = self.peers.get(peer) {
            if pid.index() < self.adj_in.len() {
                self.adj_in[pid.index()].remove(id.0);
            }
        }
        self.invalidate(id);
        true
    }

    fn invalidate(&mut self, id: PrefixId) {
        let slot = &mut self.cache.get_mut()[id.index()];
        if !matches!(slot.memo, Memo::Stale) {
            slot.memo = Memo::Stale;
            self.stats.get_mut().invalidations += 1;
        }
    }

    /// Number of paths in a peer's Adj-RIB-In.
    pub fn adj_in_len(&self, peer: Ipv4Addr) -> usize {
        self.peers
            .get(peer)
            .and_then(|pid| self.adj_in.get(pid.index()))
            .map_or(0, IdSet::len)
    }

    /// Every prefix with at least one candidate path, as values (a read of
    /// the persistent candidate arena, not a union rebuild).
    pub fn prefixes(&self) -> BTreeSet<Ipv4Prefix> {
        let ids = self.live_prefix_ids();
        let table = self.prefixes.read();
        ids.into_iter().map(|id| table.value(id)).collect()
    }

    /// Every live prefix id, sorted by prefix value — the order the
    /// speaker's newly-established-peer sync iterates in.
    pub fn live_prefix_ids(&self) -> Vec<PrefixId> {
        let mut ids: Vec<PrefixId> = (0..self.candidates.len() as u32)
            .map(PrefixId)
            .filter(|id| !self.candidates[id.index()].is_empty())
            .collect();
        // One sort_by_value call instead of a per-comparison sort_key
        // probe: against a shared table that is one lock, not O(n log n).
        self.prefixes.sort_by_value(&mut ids);
        ids
    }

    /// Number of live prefixes.
    pub fn prefix_count(&self) -> usize {
        self.live
    }

    /// The id of a prefix, if it was ever announced or originated here.
    pub fn prefix_id(&self, prefix: Ipv4Prefix) -> Option<PrefixId> {
        self.prefixes.get(prefix)
    }

    /// The prefix value behind an id.
    pub fn prefix_value(&self, id: PrefixId) -> Ipv4Prefix {
        self.prefixes.value(id)
    }

    /// Read access to the prefix table for a batch of id → value lookups
    /// (one lock acquisition on a shared table instead of one per prefix).
    pub fn prefix_table(&self) -> PrefixRead<'_> {
        self.prefixes.read()
    }

    /// Sorts (and dedups) prefix ids into ascending value order.
    pub fn sort_ids_by_value(&self, ids: &mut Vec<PrefixId>) {
        self.prefixes.sort_by_value(ids);
    }

    /// `(prefix table size, peer table size)` — interner footprints for
    /// the `mem_*` report counters. Monotone, so also the peaks.
    pub fn interner_sizes(&self) -> (usize, usize) {
        // A shared prefix table is reported once by its owner (the control
        // plane), not by every sharer — mirroring `attr_store_size`.
        let prefixes = if self.prefixes.is_shared() {
            0
        } else {
            self.prefixes.len()
        };
        (prefixes, self.peers.len())
    }

    /// The (possibly shared) attribute pool.
    pub fn attr_pool(&self) -> &AttrPool {
        &self.pool
    }

    /// Interns an owned attribute set in this RIB's pool: what an import
    /// route-map rewrote a received set into. (Exports are not interned
    /// here; the speaker keeps their encoded blocks.)
    pub fn intern_attrs(&self, attrs: PathAttributes) -> AttrId {
        let (id, created) = self.pool.intern_owned(attrs);
        if created {
            self.interns.set(self.interns.get() + 1);
        } else {
            self.reuses.set(self.reuses.get() + 1);
        }
        id
    }

    /// The canonical shared attributes for an id (owned handle — the pool
    /// lock cannot be held across the call boundary).
    pub fn attrs_of(&self, id: AttrId) -> Arc<PathAttributes> {
        self.pool.attrs(id)
    }

    /// Just the decision-process counters `(decide_calls,
    /// decide_cache_hits)` — the subset trace instrumentation diffs around
    /// every `reconcile`. Much cheaper than [`LocRib::stats`], which also
    /// assembles the attribute-store figures.
    pub fn decide_counters(&self) -> (u64, u64) {
        let s = self.stats.borrow();
        (s.decide_calls, s.decide_cache_hits)
    }

    /// Snapshot of the work counters (attr-store figures filled in here).
    pub fn stats(&self) -> RibStats {
        let mut s = *self.stats.borrow();
        s.attr_interns = self.interns.get();
        s.attr_reuses = self.reuses.get();
        // A shared pool's size is reported once by its owner, not by every
        // sharer (merged stats would multiply-count it).
        s.attr_store_size = if self.pool_shared {
            0
        } else {
            self.pool.len() as u64
        };
        s
    }

    /// Runs the decision process for `prefix` and returns it as a
    /// self-contained [`Decision`] view. The best path and the next-hop set
    /// come from the memo (computed at most once until a mutation touches
    /// the prefix); the view around them is built per call.
    pub fn decide(&self, prefix: Ipv4Prefix) -> Option<Decision> {
        match self.prefixes.get(prefix) {
            Some(id) => self.decide_id(id).map(|best| self.view(id, best)),
            None => {
                // Never-interned prefixes cannot have candidates; answer
                // without touching (or growing) the arenas. Counted as a
                // cache hit: the read is O(1) and runs no ranking.
                let mut stats = self.stats.borrow_mut();
                stats.decide_calls += 1;
                stats.decide_cache_hits += 1;
                None
            }
        }
    }

    /// The memoized decision by prefix id — the speaker's hot path: an
    /// array load of a plain-data record, no hash probe, no allocation.
    pub fn decide_id(&self, id: PrefixId) -> Option<BestPath> {
        self.read_slot(id, false).0
    }

    /// [`LocRib::decide_id`] for the speaker's reconcile: also records the
    /// decision's exported identity `(best attr id, best peer)` as synced
    /// and reports whether it differs from the one recorded before. The
    /// caller owes every established peer a visit for the prefix when it
    /// does; when it does not, every export is what it was at the last
    /// visit. Only reconcile may call this — a read that marks an identity
    /// synced without fanning it out would hide the change from the peers.
    pub fn decide_synced(&self, id: PrefixId) -> (Option<BestPath>, bool) {
        self.read_slot(id, true)
    }

    /// Forgets every synced identity, so the next
    /// [`LocRib::decide_synced`] of any prefix reports a change. For a
    /// change of export policy: the same best path may now export
    /// differently.
    pub fn reset_synced(&mut self) {
        for slot in self.cache.get_mut() {
            slot.synced = UNSYNCED;
        }
    }

    fn read_slot(&self, id: PrefixId, sync: bool) -> (Option<BestPath>, bool) {
        let mut stats = self.stats.borrow_mut();
        let mut cache = self.cache.borrow_mut();
        stats.decide_calls += 1;
        let Some(slot) = cache.get_mut(id.index()) else {
            // A shared-table id this RIB never interned: no arena slot
            // means no candidates and nothing ever exported. Answered
            // without growing the arenas, counted like the never-interned
            // case in `decide`.
            stats.decide_cache_hits += 1;
            return (None, false);
        };
        let best = match slot.memo {
            Memo::Stale => {
                stats.decide_recomputes += 1;
                let best = self.compute(id, &mut stats);
                slot.memo = best.map_or(Memo::Unreachable, Memo::Reachable);
                best
            }
            Memo::Unreachable => {
                stats.decide_cache_hits += 1;
                None
            }
            Memo::Reachable(best) => {
                stats.decide_cache_hits += 1;
                Some(best)
            }
        };
        let identity = BestPath::identity(best);
        let changed = sync && slot.synced != identity;
        if sync {
            slot.synced = identity;
        }
        (best, changed)
    }

    /// The uncached decision process: rank the prefix's candidate set.
    fn compute(&self, id: PrefixId, stats: &mut RibStats) -> Option<BestPath> {
        let cands = &self.candidates[id.index()];
        if cands.is_empty() {
            return None;
        }
        stats.candidate_touches += cands.len() as u64;
        let store = self.pool.read();
        // Iteration order is (local, peer-address) — the naive gathering
        // order — and `min_by` keeps the earliest of rank-equal candidates,
        // so step 7 (lowest peer address) falls out for free.
        let best = cands
            .iter()
            .min_by(|a, b| rank(&store, a, b))
            .expect("non-empty");
        let mut hops = self.scratch_hops.borrow_mut();
        hops.clear();
        hops.extend(
            multipath_members(&store, cands, best, self.multipath)
                .map(|c| store.meta(c.attr).attrs.next_hop),
        );
        hops.sort_unstable();
        hops.dedup();
        Some(BestPath {
            attr_id: best.attr,
            peer: Ipv4Addr::from(best.addr_key),
            ebgp: best.ebgp,
            next_hops: self.hop_sets.borrow_mut().intern(&hops),
        })
    }

    /// Builds the [`Decision`] view of a reachable prefix around its
    /// memoized best path.
    fn view(&self, id: PrefixId, best: BestPath) -> Decision {
        let cands = &self.candidates[id.index()];
        let store = self.pool.read();
        let key = if best.is_local() {
            LOCAL_KEY
        } else {
            (true, u32::from(best.peer))
        };
        let at = cands
            .binary_search_by_key(&key, CandEntry::key)
            .expect("the memoized best path is a live candidate");
        let route = |cand: &CandEntry| RouteInfo {
            attrs: Arc::clone(store.attrs(cand.attr)),
            attr_id: cand.attr,
            peer: Ipv4Addr::from(cand.addr_key),
            ebgp: cand.ebgp,
        };
        Decision {
            best: route(&cands[at]),
            multipath: multipath_members(&store, cands, &cands[at], self.multipath)
                .map(route)
                .collect(),
            next_hops: self.hop_set(best.next_hops),
        }
    }

    /// The addresses of an interned next-hop set, sorted.
    pub fn hop_set(&self, id: HopSetId) -> Vec<Ipv4Addr> {
        self.hop_sets.borrow().get(id).to_vec()
    }

    /// The effective next-hop set for a prefix after the decision process:
    /// the deduplicated next hops of the multipath set. Empty when the
    /// prefix is unreachable; `None` inner addresses never appear. Locally
    /// originated prefixes return their own next hop.
    pub fn next_hops(&self, prefix: Ipv4Prefix) -> Vec<Ipv4Addr> {
        let best = self.prefixes.get(prefix).and_then(|id| self.decide_id(id));
        best.map(|b| self.hop_set(b.next_hops)).unwrap_or_default()
    }
}

/// The ECMP set around `best`: every candidate equal to it through step 6
/// when multipath is on, `best` alone otherwise — in candidate order.
fn multipath_members<'a>(
    store: &'a AttrStore,
    cands: &'a [CandEntry],
    best: &'a CandEntry,
    multipath: bool,
) -> impl Iterator<Item = &'a CandEntry> {
    cands.iter().filter(move |c| {
        if multipath {
            rank(store, c, best) == std::cmp::Ordering::Equal
        } else {
            c.key() == best.key()
        }
    })
}

/// Total ordering used by the decision process; `Less` is better. Steps
/// 1–6 define multipath equality; step 7 (peer address) only breaks the
/// final tie for the single best path and is excluded from `rank` — the
/// caller treats `Equal` as "same up to multipath" and `min_by` keeps the
/// earliest candidate (set order is local, then peer address).
fn rank(store: &AttrStore, a: &CandEntry, b: &CandEntry) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let am = store.meta(a.attr);
    let bm = store.meta(b.attr);
    // 1. Higher local-pref wins.
    let o = bm.local_pref.cmp(&am.local_pref);
    if o != Ordering::Equal {
        return o;
    }
    // 2. Local origination wins (`!remote` is "is local").
    let o = a.remote.cmp(&b.remote);
    if o != Ordering::Equal {
        return o;
    }
    // 3. Shorter AS path wins.
    let o = am.path_len.cmp(&bm.path_len);
    if o != Ordering::Equal {
        return o;
    }
    // 4. Lower origin wins.
    let o = am.origin_rank.cmp(&bm.origin_rank);
    if o != Ordering::Equal {
        return o;
    }
    // 5. Lower MED wins, only between the same neighbor AS.
    if am.neighbor_as.is_some() && am.neighbor_as == bm.neighbor_as {
        let o = am.med.cmp(&bm.med);
        if o != Ordering::Equal {
            return o;
        }
    }
    // 6. eBGP beats iBGP.
    b.ebgp.cmp(&a.ebgp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AsPathSegment;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &[u16], next_hop: [u8; 4]) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(path.to_vec())],
            next_hop: Ipv4Addr::from(next_hop),
            med: None,
            local_pref: None,
            communities: vec![],
            unknown: vec![],
        }
    }

    fn announce(rib: &mut LocRib, peer: [u8; 4], path: &[u16], prefix: &str) {
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(path, peer))),
            nlri: vec![pfx(prefix)],
        };
        rib.update_from_peer(Ipv4Addr::from(peer), true, &u);
    }

    #[test]
    fn shortest_as_path_wins() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2, 3], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[4, 5], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn equal_length_paths_form_multipath() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 3], &[5, 6, 7], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.multipath.len(), 2, "two 2-hop paths tie");
        let hops = rib.next_hops(pfx("10.9.0.0/16"));
        assert_eq!(
            hops,
            vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)]
        );
    }

    #[test]
    fn multipath_disabled_gives_singleton() {
        let mut rib = LocRib::new(65000, false);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.multipath.len(), 1);
        assert_eq!(rib.next_hops(pfx("10.9.0.0/16")).len(), 1);
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let mut rib = LocRib::new(65000, true);
        let mut long = attrs(&[1, 2, 3, 4], [10, 0, 0, 1]);
        long.local_pref = Some(200);
        rib.update_from_peer(
            Ipv4Addr::new(10, 0, 0, 1),
            true,
            &UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(long)),
                nlri: vec![pfx("10.9.0.0/16")],
            },
        );
        announce(&mut rib, [10, 0, 0, 2], &[9], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn local_origination_beats_learned() {
        let mut rib = LocRib::new(65000, true);
        rib.originate(pfx("10.9.0.0/16"), Ipv4Addr::new(10, 0, 0, 99));
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert!(d.best.is_local());
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn origin_rank_breaks_ties() {
        let mut rib = LocRib::new(65000, true);
        let mut egp = attrs(&[1], [10, 0, 0, 1]);
        egp.origin = Origin::Egp;
        rib.update_from_peer(
            Ipv4Addr::new(10, 0, 0, 1),
            true,
            &UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(egp)),
                nlri: vec![pfx("10.9.0.0/16")],
            },
        );
        announce(&mut rib, [10, 0, 0, 2], &[2], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 2), "IGP beats EGP");
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn med_compared_within_same_neighbor_as() {
        let mut rib = LocRib::new(65000, true);
        let mut m10 = attrs(&[7], [10, 0, 0, 1]);
        m10.med = Some(10);
        let mut m5 = attrs(&[7], [10, 0, 0, 2]);
        m5.med = Some(5);
        for (peer, a) in [([10, 0, 0, 1], m10), ([10, 0, 0, 2], m5)] {
            rib.update_from_peer(
                Ipv4Addr::from(peer),
                true,
                &UpdateMsg {
                    withdrawn: vec![],
                    attrs: Some(Arc::new(a)),
                    nlri: vec![pfx("10.9.0.0/16")],
                },
            );
        }
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 2), "lower MED");
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn med_ignored_across_different_neighbor_as() {
        let mut rib = LocRib::new(65000, true);
        let mut m10 = attrs(&[7], [10, 0, 0, 1]);
        m10.med = Some(10);
        let mut m5 = attrs(&[8], [10, 0, 0, 2]);
        m5.med = Some(5);
        for (peer, a) in [([10, 0, 0, 1], m10), ([10, 0, 0, 2], m5)] {
            rib.update_from_peer(
                Ipv4Addr::from(peer),
                true,
                &UpdateMsg {
                    withdrawn: vec![],
                    attrs: Some(Arc::new(a)),
                    nlri: vec![pfx("10.9.0.0/16")],
                },
            );
        }
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.multipath.len(), 2, "MED not comparable → still tie");
    }

    #[test]
    fn loop_prevention_rejects_own_as() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 65000, 2], "10.9.0.0/16");
        assert!(rib.decide(pfx("10.9.0.0/16")).is_none());
    }

    #[test]
    fn looped_announcement_withdraws_previous() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        assert!(rib.decide(pfx("10.9.0.0/16")).is_some());
        let affected = {
            let u = UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(attrs(&[1, 65000], [10, 0, 0, 1]))),
                nlri: vec![pfx("10.9.0.0/16")],
            };
            rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u)
        };
        let values: Vec<Ipv4Prefix> = affected.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(values, vec![pfx("10.9.0.0/16")]);
        assert!(rib.decide(pfx("10.9.0.0/16")).is_none());
    }

    #[test]
    fn withdraw_removes_path() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.9.0.0/16")],
            attrs: None,
            nlri: vec![],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert_eq!(affected.len(), 1);
        assert!(rib.decide(pfx("10.9.0.0/16")).is_none());
        assert!(rib.next_hops(pfx("10.9.0.0/16")).is_empty());
    }

    #[test]
    fn withdraw_of_unknown_prefix_does_not_intern() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.77.0.0/16")],
            attrs: None,
            nlri: vec![],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert!(affected.is_empty());
        assert_eq!(
            rib.interner_sizes().0,
            1,
            "only the announced prefix is in the table"
        );
        assert!(rib.prefix_id(pfx("10.77.0.0/16")).is_none());
    }

    #[test]
    fn redundant_update_reports_no_change() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(&[1], [10, 0, 0, 1]))),
            nlri: vec![pfx("10.9.0.0/16")],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert!(affected.is_empty(), "identical re-announcement is a no-op");
    }

    #[test]
    fn drop_peer_flushes_its_routes() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.1.0.0/16");
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.2.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[2], "10.1.0.0/16");
        let affected = rib.drop_peer(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(affected.len(), 2);
        // 10.1/16 still reachable via the other peer.
        assert_eq!(rib.next_hops(pfx("10.1.0.0/16")).len(), 1);
        assert!(rib.next_hops(pfx("10.2.0.0/16")).is_empty());
        assert_eq!(rib.adj_in_len(Ipv4Addr::new(10, 0, 0, 1)), 0);
        assert_eq!(rib.adj_in_len(Ipv4Addr::new(10, 0, 0, 2)), 1);
    }

    #[test]
    fn affected_sets_are_value_sorted_not_id_sorted() {
        let mut rib = LocRib::new(65000, true);
        // Intern in descending value order so id order ≠ value order.
        let shared = Arc::new(attrs(&[1], [10, 0, 0, 1]));
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::clone(&shared)),
            nlri: vec![pfx("10.3.0.0/16"), pfx("10.1.0.0/16"), pfx("10.2.0.0/16")],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        let values: Vec<Ipv4Prefix> = affected.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(
            values,
            vec![pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")],
            "affected ids sort by prefix value"
        );
        let live = rib.live_prefix_ids();
        let live_vals: Vec<Ipv4Prefix> = live.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(live_vals, values, "live index is value-ordered too");
        let dropped = rib.drop_peer(Ipv4Addr::new(10, 0, 0, 1));
        let drop_vals: Vec<Ipv4Prefix> = dropped.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(drop_vals, values);
    }

    #[test]
    fn prefixes_lists_union() {
        let mut rib = LocRib::new(65000, true);
        rib.originate(pfx("10.0.0.0/24"), Ipv4Addr::new(10, 0, 0, 1));
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.1.0.0/16");
        let ps = rib.prefixes();
        assert!(ps.contains(&pfx("10.0.0.0/24")));
        assert!(ps.contains(&pfx("10.1.0.0/16")));
        assert_eq!(ps.len(), 2);
        assert_eq!(rib.prefix_count(), 2);
    }

    #[test]
    fn identical_attr_sets_share_one_interned_entry() {
        let mut rib = LocRib::new(65000, true);
        // Same attrs announced for many prefixes by one peer, and the same
        // logical attrs (fresh allocation) by another.
        let shared = Arc::new(attrs(&[1, 2], [10, 0, 0, 1]));
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::clone(&shared)),
            nlri: vec![pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")],
        };
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        let u2 = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(&[1, 2], [10, 0, 0, 1]))),
            nlri: vec![pfx("10.4.0.0/16")],
        };
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 2), true, &u2);
        let s = rib.stats();
        assert_eq!(s.attr_store_size, 1, "one distinct attribute set");
        assert_eq!(s.attr_interns, 1);
        assert_eq!(s.attr_reuses, 1, "second UPDATE reused the entry");
        let d1 = rib.decide(pfx("10.1.0.0/16")).unwrap();
        let d4 = rib.decide(pfx("10.4.0.0/16")).unwrap();
        assert!(
            Arc::ptr_eq(&d1.best.attrs, &d4.best.attrs),
            "decisions share the canonical allocation"
        );
        assert_eq!(d1.best.attr_id, d4.best.attr_id);
    }

    #[test]
    fn shared_pool_interns_once_across_ribs() {
        let pool = AttrPool::new();
        let mut r1 = LocRib::new_shared(65001, true, pool.clone());
        let mut r2 = LocRib::new_shared(65002, true, pool.clone());
        // Same peer address (hence same next-hop and identical attrs) seen
        // by both RIBs, as a route reflected through a shared neighbor is.
        announce(&mut r1, [10, 0, 0, 1], &[7, 8], "10.1.0.0/16");
        announce(&mut r2, [10, 0, 0, 1], &[7, 8], "10.2.0.0/16");
        assert_eq!(pool.len(), 1, "one fleet-wide entry for identical attrs");
        let s1 = r1.stats();
        let s2 = r2.stats();
        assert_eq!(s1.attr_interns, 1, "r1 created it");
        assert_eq!(s2.attr_interns, 0);
        assert_eq!(s2.attr_reuses, 1, "r2's intern was a fleet-wide reuse");
        assert_eq!(
            s1.attr_store_size + s2.attr_store_size,
            0,
            "sharers report 0 size; the pool owner reports it once"
        );
        // Decisions in both RIBs share the one canonical allocation.
        let d1 = r1.decide(pfx("10.1.0.0/16")).unwrap();
        let d2 = r2.decide(pfx("10.2.0.0/16")).unwrap();
        assert!(Arc::ptr_eq(&d1.best.attrs, &d2.best.attrs));
        assert!(r1.attr_pool().same_as(r2.attr_pool()));
        assert!(pool.bytes_estimate() > 0);
    }

    #[test]
    fn decide_is_memoized_until_invalidated() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        let p = pfx("10.9.0.0/16");
        let d1 = rib.decide(p).unwrap();
        let d2 = rib.decide(p).unwrap();
        assert_eq!(d1, d2, "second read hits the cache");
        let s = rib.stats();
        assert_eq!(s.decide_calls, 2);
        assert_eq!(s.decide_recomputes, 1);
        assert_eq!(s.decide_cache_hits, 1);
        assert_eq!(s.candidate_touches, 2, "one recompute over two candidates");
        // A mutation touching the prefix invalidates the memo.
        announce(&mut rib, [10, 0, 0, 3], &[9], "10.9.0.0/16");
        let d3 = rib.decide(p).unwrap();
        assert_ne!(d1, d3);
        let s = rib.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.decide_recomputes, 2);
        // Never-interned prefixes are answered in O(1) without growing the
        // arenas; both reads count as cache hits (no ranking runs).
        let other = pfx("10.250.0.0/16");
        assert!(rib.decide(other).is_none());
        assert!(rib.decide(other).is_none());
        let s = rib.stats();
        assert_eq!(s.decide_cache_hits, 3);
        assert_eq!(s.decide_recomputes, 2, "no recompute for unknown prefixes");
        // A withdrawn (known, empty) prefix memoizes unreachability.
        let u = UpdateMsg {
            withdrawn: vec![p],
            attrs: None,
            nlri: vec![],
        };
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 2), true, &u);
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 3), true, &u);
        assert!(rib.decide(p).is_none(), "recomputes the empty set");
        assert!(rib.decide(p).is_none(), "second read hits the memo");
        let s = rib.stats();
        assert_eq!(s.decide_recomputes, 3);
        assert_eq!(s.decide_cache_hits, 4);
    }

    #[test]
    fn memo_record_and_view_agree() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 3], &[5, 6, 7], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.8.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.8.0.0/16");
        let p = pfx("10.9.0.0/16");
        let best = rib.decide_id(rib.prefix_id(p).unwrap()).unwrap();
        let view = rib.decide(p).unwrap();
        assert_eq!(best.peer, Ipv4Addr::new(10, 0, 0, 1), "lowest peer wins");
        assert_eq!(
            (view.best.peer, view.best.attr_id),
            (best.peer, best.attr_id)
        );
        assert!(best.ebgp && !best.is_local());
        assert_eq!(view.multipath.len(), 2);
        assert_eq!(view.next_hops, rib.hop_set(best.next_hops));
        assert_ne!(best.next_hops, HopSetId::EMPTY);
        // Equal next-hop sets intern to one id across prefixes.
        let other = rib
            .decide_id(rib.prefix_id(pfx("10.8.0.0/16")).unwrap())
            .unwrap();
        assert_eq!(other.next_hops, best.next_hops);
        assert!(rib.hop_set(HopSetId::EMPTY).is_empty());
    }

    #[test]
    fn synced_identity_survives_invalidation_and_resets() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let id = rib.prefix_id(pfx("10.9.0.0/16")).unwrap();
        // A plain read never marks anything synced.
        assert!(rib.decide_id(id).is_some());
        let (best, changed) = rib.decide_synced(id);
        assert!(changed, "first sync of a prefix always reports a change");
        let (again, changed) = rib.decide_synced(id);
        assert_eq!(again, best);
        assert!(!changed);
        // A worse candidate invalidates the memo but not the identity: the
        // recompute lands on the same best path.
        announce(&mut rib, [10, 0, 0, 2], &[7, 8, 9], "10.9.0.0/16");
        let (after, changed) = rib.decide_synced(id);
        assert_eq!(after.map(|b| b.peer), best.map(|b| b.peer));
        assert!(!changed, "same (attr, peer) is not a change");
        // A better one is.
        announce(&mut rib, [10, 0, 0, 0], &[2], "10.9.0.0/16");
        assert!(rib.decide_synced(id).1);
        // Unreachable is an identity too: reported once.
        let gone = UpdateMsg {
            withdrawn: vec![pfx("10.9.0.0/16")],
            attrs: None,
            nlri: vec![],
        };
        for peer in [[10, 0, 0, 0], [10, 0, 0, 1], [10, 0, 0, 2]] {
            rib.update_from_peer(Ipv4Addr::from(peer), true, &gone);
        }
        assert_eq!(rib.decide_synced(id), (None, true));
        assert_eq!(rib.decide_synced(id), (None, false));
        rib.reset_synced();
        assert_eq!(rib.decide_synced(id), (None, true), "reset forgets it");
    }

    #[test]
    fn colliding_attr_hashes_stay_distinct_entries() {
        // Force two different sets onto one hash chain: equality, not the
        // hash, decides identity.
        let mut store = AttrStore::default();
        let a = Arc::new(attrs(&[1], [10, 0, 0, 1]));
        let b = Arc::new(attrs(&[2], [10, 0, 0, 2]));
        let (ia, created) = store.intern_hashed(7, AttrSrc::Shared(&a));
        assert!(created);
        let (ib, created) = store.intern_hashed(7, AttrSrc::Shared(&b));
        assert!(created);
        assert_ne!(ia, ib);
        assert_eq!(store.find(7, &a), Some(ia));
        assert_eq!(store.find(7, &b), Some(ib));
        assert_eq!(
            store.intern_hashed(7, AttrSrc::Owned((*a).clone())),
            (ia, false)
        );
        assert_eq!(store.find(8, &a), None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn redundant_update_keeps_memo() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let p = pfx("10.9.0.0/16");
        let d1 = rib.decide(p).unwrap();
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let d2 = rib.decide(p).unwrap();
        assert_eq!(d1, d2);
        let s = rib.stats();
        assert_eq!(s.invalidations, 0, "identical re-announcement is a no-op");
        assert_eq!(s.decide_recomputes, 1);
    }
}
