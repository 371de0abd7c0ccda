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
//! Convergence produces one distinct attribute set per best-path change
//! that is exported, received by every neighbour of the sender, and many
//! routes per set. The speaker reads each affected prefix's
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
//! * Stored sets carry no NEXT_HOP (it is always `0.0.0.0` in the store):
//!   each sender rewrites it to itself, so the receivers of one fan-out
//!   share one entry, and each candidate keeps its own next hop. A received
//!   attribute block resolves to its entry through a wire index keyed by
//!   the block's bytes minus NEXT_HOP (`AttrPool::resolve_wire`), so only
//!   the first receiver of a block decodes it.
//! * Prefixes and peer addresses are interned to `u32` ids
//!   ([`PrefixId`]/[`PeerId`], first-intern order, same discipline as
//!   `AttrId`). The candidate index, decision cache and per-peer Adj-RIB-In
//!   become dense `Vec`s indexed by id: a decide is an array load, not a
//!   tree walk.
//! * Per prefix, candidates live in a 24-byte set ordered by
//!   `(remote, peer address)` — byte-for-byte the iteration order of the
//!   old `BTreeMap<CandKey, _>`, which the `min_by` tie-break (step 7)
//!   depends on. A single candidate, the common case on a leaf router, is
//!   stored inline; only two or more take a heap block.
//! * The per-prefix memo is a [`BestPath`] record — best candidate plus
//!   the interned id of the multipath next-hop set ([`HopSetId`]) —
//!   packed into 12 bytes, not a heap object. The public [`Decision`] is
//!   a *view* that [`LocRib::decide`] builds on demand from that record
//!   and the candidate set, for tests, dumps and the differential oracles.
//!
//! Ids order by first appearance, **not** by value. Every API that feeds a
//! determinism-sensitive consumer (affected-sets, the live prefix index)
//! therefore returns id slices sorted by *value* via the interner's
//! monotone sort key, so downstream iteration order — and hence wire
//! bytes — is identical to the address-keyed implementations that came
//! before. The pre-index one survives as [`crate::naive`], the single
//! reference model `tests/prop_rib_differential.rs` drives in lockstep
//! with this one.

use crate::msg::{
    decode_attrs, next_hop_offset, AsPathSegment, CodecError, Origin, PathAttributes, UpdateMsg,
};
use horse_net::addr::Ipv4Prefix;
use horse_net::intern::{
    fast_hash, FastHasher, FastMap, IdSet, PeerInterner, PrefixId, PrefixInterner, PrefixPool,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
    /// The canonical set: NEXT_HOP is `0.0.0.0`.
    pub(crate) attrs: Arc<PathAttributes>,
    pub(crate) local_pref: u32,
    pub(crate) path_len: u32,
    pub(crate) origin_rank: u8,
    pub(crate) med: u32,
    pub(crate) neighbor_as: Option<u16>,
    /// Index of the next older entry whose attribute set has the same
    /// 64-bit hash ([`NO_ENTRY`]: none).
    same_hash: u32,
}

/// End of a same-hash chain.
const NO_ENTRY: u32 = u32::MAX;

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

    /// The set as the store keeps it: NEXT_HOP `0.0.0.0`, sharing the
    /// caller's allocation when it already is.
    fn into_canonical(self) -> Arc<PathAttributes> {
        match self {
            AttrSrc::Shared(a) if a.next_hop.is_unspecified() => Arc::clone(a),
            AttrSrc::Shared(a) => Arc::new(PathAttributes {
                next_hop: Ipv4Addr::UNSPECIFIED,
                ..(**a).clone()
            }),
            AttrSrc::Owned(mut a) => {
                a.next_hop = Ipv4Addr::UNSPECIFIED;
                Arc::new(a)
            }
        }
    }
}

/// Everything in an attribute set but its NEXT_HOP: what the store hashes
/// and compares.
type CanonKey<'a> = (
    Origin,
    &'a [AsPathSegment],
    Option<u32>,
    Option<u32>,
    &'a [u32],
    &'a [(u8, u8, Vec<u8>)],
);

fn canon_key(a: &PathAttributes) -> CanonKey<'_> {
    (
        a.origin,
        &a.as_path,
        a.med,
        a.local_pref,
        &a.communities,
        &a.unknown,
    )
}

/// The top bit of an [`AttrId`], never set in an id (ids stay below
/// [`ATTR_ID_LIMIT`], asserted at insert): [`CandEntry`] and [`Memo`] keep
/// the eBGP flag there.
const EBGP_BIT: u32 = 1 << 31;

/// The wire index's key for a received path-attribute block: the offset
/// of its NEXT_HOP value and the [`FastHasher`] hash of the block with
/// those four bytes zeroed — equal to hashing the zeroed copy with one
/// `write`, computed without making it. `None` for blocks the index does
/// not take (see `msg::next_hop_offset`); they are decoded every time.
fn wire_key(block: &[u8]) -> Option<(usize, u64)> {
    let at = next_hop_offset(block)?;
    // The one or two 8-byte words the NEXT_HOP value overlaps are hashed
    // from a masked copy; the words before and after go in as they are.
    let word = at & !7;
    let end = (word + 16).min(block.len());
    let mut masked = [0u8; 16];
    masked[..end - word].copy_from_slice(&block[word..end]);
    masked[at - word..at - word + 4].fill(0);
    let mut h = FastHasher::default();
    h.write(&block[..word]);
    h.write(&masked[..end - word]);
    h.write(&block[end..]);
    Some((at, h.finish()))
}

/// One entry of the wire index: a validated block, stored with its
/// NEXT_HOP zeroed in `AttrStore::wire_bytes`, and the set it decodes to.
#[derive(Debug, Clone, Copy)]
struct WireEntry {
    start: u32,
    len: u32,
    attr: AttrId,
    /// The next older entry whose key hashes equal ([`NO_ENTRY`]: none).
    same_hash: u32,
}

/// Hash-consing store for [`PathAttributes`], NEXT_HOP excluded.
///
/// Interning (through [`AttrPool`]) returns the id of the canonical entry,
/// creating one only for a never-seen attribute set. Every entry's
/// NEXT_HOP is `0.0.0.0`: the set is keyed on everything else, and the
/// hop lives with whoever holds the id. The index maps the set's hash to
/// the newest entry with that hash (older ones chain through
/// `AttrMeta::same_hash`), so a caller that already computed the hash —
/// the pool probing under the read lock, then again under the write lock —
/// never hashes the set a second time, and lookups never allocate.
///
/// Beside it sits the wire index: every validated received block, NEXT_HOP
/// zeroed, with the id it decoded to, keyed by [`wire_key`]. A probe
/// matches only an entry whose bytes equal the block's outside the
/// NEXT_HOP value — never on the hash alone — so a hit is a block already
/// known to decode, to that set, whatever its four NEXT_HOP bytes hold.
#[derive(Debug, Clone, Default)]
pub struct AttrStore {
    ids: FastMap<u64, AttrId>,
    metas: Vec<AttrMeta>,
    wire_ids: FastMap<u64, u32>,
    wire: Vec<WireEntry>,
    wire_bytes: Vec<u8>,
}

impl AttrStore {
    /// Probe-then-insert with a hash the caller already computed; the
    /// `bool` is true when this call created the entry.
    fn intern_hashed(&mut self, hash: u64, src: AttrSrc<'_>) -> (AttrId, bool) {
        match self.find(hash, src.get()) {
            Some(id) => (id, false),
            None => (self.insert_new(hash, src.into_canonical()), true),
        }
    }

    /// The entry equal to `attrs` outside NEXT_HOP among those hashing to
    /// `hash`.
    fn find(&self, hash: u64, attrs: &PathAttributes) -> Option<AttrId> {
        let key = canon_key(attrs);
        let mut i = self.ids.get(&hash).map_or(NO_ENTRY, |id| id.0);
        while let Some(meta) = self.metas.get(i as usize) {
            if canon_key(&meta.attrs) == key {
                return Some(AttrId(i));
            }
            i = meta.same_hash;
        }
        None
    }

    fn insert_new(&mut self, hash: u64, attrs: Arc<PathAttributes>) -> AttrId {
        let id = AttrId(self.metas.len() as u32);
        assert!(
            id.0 < ATTR_ID_LIMIT,
            "attribute pool exhausted its id space"
        );
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
            same_hash: self.ids.insert(hash, id).map_or(NO_ENTRY, |older| older.0),
            attrs,
        };
        self.metas.push(meta);
        id
    }

    /// The wire-index entry whose block equals `block` outside the
    /// NEXT_HOP value at `at`, among those keyed `hash`.
    fn find_wire(&self, hash: u64, block: &[u8], at: usize) -> Option<AttrId> {
        let mut i = self.wire_ids.get(&hash).copied().unwrap_or(NO_ENTRY);
        while let Some(e) = self.wire.get(i as usize) {
            let stored = &self.wire_bytes[e.start as usize..][..e.len as usize];
            if stored.len() == block.len()
                && stored[..at] == block[..at]
                && stored[at + 4..] == block[at + 4..]
            {
                return Some(e.attr);
            }
            i = e.same_hash;
        }
        None
    }

    /// Indexes a block that decoded to `attr`, unless an equal one is
    /// already indexed (another holder of the pool may have indexed it
    /// between the read-locked probe and this write).
    fn insert_wire(&mut self, hash: u64, block: &[u8], at: usize, attr: AttrId) {
        if self.find_wire(hash, block, at).is_some() {
            return;
        }
        let start = self.wire_bytes.len();
        self.wire_bytes.extend_from_slice(block);
        self.wire_bytes[start + at..start + at + 4].fill(0);
        let i = self.wire.len() as u32;
        self.wire.push(WireEntry {
            start: start as u32,
            len: block.len() as u32,
            attr,
            same_hash: self.wire_ids.insert(hash, i).unwrap_or(NO_ENTRY),
        });
    }

    /// The canonical shared attributes for an id (NEXT_HOP `0.0.0.0`).
    pub fn attrs(&self, id: AttrId) -> &Arc<PathAttributes> {
        &self.metas[id.0 as usize].attrs
    }

    /// Number of distinct attribute sets interned so far, NEXT_HOP aside
    /// (monotone — this *is* the peak size). Sets that differ only in
    /// NEXT_HOP count once.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Number of distinct received blocks (NEXT_HOP aside) in the wire
    /// index. Monotone.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
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
        // The wire index: stored blocks, entries and their id-map slots.
        let wire_entry = std::mem::size_of::<WireEntry>() + 24;
        total + (self.wire_bytes.len() + self.wire.len() * wire_entry) as u64
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
/// Interning is **lock-light**: attribute churn is read-mostly (each
/// exported set reaches every neighbour of its sender), so
/// [`AttrPool::intern`] and `AttrPool::resolve_wire` first probe under
/// the read lock and only escalate to the write lock on a genuine miss,
/// where the store re-checks before inserting — one id per value, always.
/// The lock is what makes the handle `Sync`, so a speaker stays `Send`
/// for threaded emulation. The CM pump drains a run's speakers one at a
/// time in `NodeId` order, so id values are a function of the run; even
/// so, nothing semantic reads them: ranking uses precomputed metas, wire
/// bytes carry the attributes themselves, and announce batching groups by
/// id equality in value-sorted prefix order.
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

    fn write(&self) -> RwLockWriteGuard<'_, AttrStore> {
        self.0.write().expect("attr pool lock poisoned")
    }

    /// Interns a shared attribute set, NEXT_HOP aside; the `bool` is true
    /// when this call created the entry (false = fleet-wide reuse). Hits
    /// resolve under the read lock; only a genuine miss takes the write
    /// lock.
    pub fn intern(&self, attrs: &Arc<PathAttributes>) -> (AttrId, bool) {
        self.intern_src(AttrSrc::Shared(attrs))
    }

    /// Interns an owned attribute set, NEXT_HOP aside; the `bool` is true
    /// on creation. Same lock discipline as [`AttrPool::intern`].
    pub fn intern_owned(&self, attrs: PathAttributes) -> (AttrId, bool) {
        self.intern_src(AttrSrc::Owned(attrs))
    }

    /// One hash serves the read-locked probe, the re-probe under the write
    /// lock and the insert.
    fn intern_src(&self, src: AttrSrc<'_>) -> (AttrId, bool) {
        let hash = fast_hash(&canon_key(src.get()));
        if let Some(id) = self.read().find(hash, src.get()) {
            return (id, false);
        }
        self.write().intern_hashed(hash, src)
    }

    /// Resolves a received UPDATE's path-attribute block to its entry and
    /// the NEXT_HOP it carries, decoding it only if the wire index has not
    /// seen it: the receive path of every speaker. A hit costs one hash of
    /// the block and one byte comparison under the read lock — no decode,
    /// no allocation. A miss decodes and validates the block (a malformed
    /// one is the decode error, and indexes nothing), interns the set and
    /// indexes the block. The `bool` is true when this call created the
    /// set's entry.
    pub(crate) fn resolve_wire(&self, block: &[u8]) -> Result<(RxAttrs, bool), CodecError> {
        let key = wire_key(block);
        if let Some((at, hash)) = key {
            if let Some(id) = self.read().find_wire(hash, block, at) {
                let hop: [u8; 4] = block[at..at + 4].try_into().expect("4-byte NEXT_HOP");
                let next_hop = Ipv4Addr::from(hop);
                return Ok((RxAttrs { id, next_hop }, false));
            }
        }
        let attrs = decode_attrs(block)?;
        let next_hop = attrs.next_hop;
        let hash = fast_hash(&canon_key(&attrs));
        let mut store = self.write();
        let (id, created) = store.intern_hashed(hash, AttrSrc::Owned(attrs));
        if let Some((at, wire_hash)) = key {
            store.insert_wire(wire_hash, block, at, id);
        }
        Ok((RxAttrs { id, next_hop }, created))
    }

    /// The canonical shared attributes for an id (owned `Arc` — the lock
    /// cannot outlive the call). NEXT_HOP is `0.0.0.0`.
    pub fn attrs(&self, id: AttrId) -> Arc<PathAttributes> {
        Arc::clone(self.read().attrs(id))
    }

    /// Number of distinct attribute sets in the pool (NEXT_HOP aside).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// See [`AttrStore::wire_len`].
    pub fn wire_len(&self) -> usize {
        self.read().wire_len()
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
    /// Export-memo probes answered from the memo. A sync probes once per
    /// run of prefixes with an equal best path, not once per prefix.
    pub export_cache_hits: u64,
    /// Export-policy computations (memo misses).
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

/// A received attribute block as the RIB takes it: the pool entry of its
/// set (NEXT_HOP aside) and the NEXT_HOP the sender wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxAttrs {
    /// The canonical entry.
    pub id: AttrId,
    /// The route's next hop.
    pub next_hop: Ipv4Addr,
}

/// One candidate in a prefix's sorted [`CandSet`], 12 bytes
/// (`wan_table_10k` holds 1.42 M of them, most stored inline as a set's
/// only entry). `addr_key` is the sort key: local origination
/// is 0 and sorts first; remote peers follow in ascending address order —
/// exactly the gathering order of the naive decision loop, which the
/// `min_by` tie-break depends on. A peer at `0.0.0.0` would collide with
/// the local key; no session has that address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CandEntry {
    /// `u32::from(peer address)`, 0 for local — `u32` order equals
    /// `Ipv4Addr` order.
    addr_key: u32,
    /// The [`AttrId`], with [`EBGP_BIT`] set when learned over eBGP.
    attr_ebgp: u32,
    /// The candidate's NEXT_HOP (the pool's sets carry none).
    next_hop: u32,
}

const _: () = assert!(std::mem::size_of::<CandEntry>() == 12);

impl CandEntry {
    fn new(addr_key: u32, attr: AttrId, ebgp: bool, next_hop: Ipv4Addr) -> CandEntry {
        CandEntry {
            addr_key,
            attr_ebgp: attr.0 | if ebgp { EBGP_BIT } else { 0 },
            next_hop: u32::from(next_hop),
        }
    }

    fn key(&self) -> u32 {
        self.addr_key
    }

    fn remote(&self) -> bool {
        self.addr_key != LOCAL_KEY
    }

    fn attr(&self) -> AttrId {
        AttrId(self.attr_ebgp & !EBGP_BIT)
    }

    fn ebgp(&self) -> bool {
        self.attr_ebgp & EBGP_BIT != 0
    }

    fn next_hop(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.next_hop)
    }
}

const LOCAL_KEY: u32 = 0;

/// One prefix's candidates, sorted by [`CandEntry::key`], in 24 bytes.
/// Most prefixes of a leaf router have exactly one candidate, so that case
/// is stored inline; a set that drops back to one entry returns to `One`.
/// Readers only ever see the slice ([`CandSet::as_slice`]).
#[derive(Debug, Clone)]
enum CandSet {
    Empty,
    One(CandEntry),
    /// Two or more entries. The block starts at capacity 4 and doubles:
    /// growing it exactly would reallocate on every insert, and a
    /// fat-tree router takes up to k/2 candidates per prefix one by one.
    Many(Vec<CandEntry>),
}

const _: () = assert!(std::mem::size_of::<CandSet>() == 24);

impl CandSet {
    fn as_slice(&self) -> &[CandEntry] {
        match self {
            CandSet::Empty => &[],
            CandSet::One(e) => std::slice::from_ref(e),
            CandSet::Many(v) => v,
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, CandSet::Empty)
    }

    /// Inserts `entry`, or replaces the one with its key and returns it.
    fn upsert(&mut self, entry: CandEntry) -> Option<CandEntry> {
        let at = match self
            .as_slice()
            .binary_search_by_key(&entry.key(), CandEntry::key)
        {
            Ok(i) => {
                let slot = match self {
                    CandSet::One(e) => e,
                    CandSet::Many(v) => &mut v[i],
                    CandSet::Empty => unreachable!("found in an empty set"),
                };
                return Some(std::mem::replace(slot, entry));
            }
            Err(i) => i,
        };
        match self {
            CandSet::Empty => *self = CandSet::One(entry),
            CandSet::One(e) => {
                let mut v = Vec::with_capacity(4);
                v.push(*e);
                v.insert(at, entry);
                *self = CandSet::Many(v);
            }
            CandSet::Many(v) => v.insert(at, entry),
        }
        None
    }

    /// Removes the entry with `key`; true when there was one.
    fn remove(&mut self, key: u32) -> bool {
        let Ok(at) = self.as_slice().binary_search_by_key(&key, CandEntry::key) else {
            return false;
        };
        match self {
            CandSet::One(_) => *self = CandSet::Empty,
            CandSet::Many(v) => {
                v.remove(at);
                if let [last] = v[..] {
                    *self = CandSet::One(last);
                }
            }
            CandSet::Empty => unreachable!("found in an empty set"),
        }
        true
    }
}

/// One route in a [`Decision`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteInfo {
    /// Attributes as received (or as originated): the interned set with
    /// the candidate's NEXT_HOP put back.
    pub attrs: Arc<PathAttributes>,
    /// Interned id of `attrs` (NEXT_HOP aside) in the owning RIB's store.
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

/// Per-prefix decision memo, a [`BestPath`] packed into 12 bytes: the eBGP
/// flag rides in [`EBGP_BIT`] of the attribute word, as in [`CandEntry`],
/// and two attribute words no id can produce mark the other states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Memo {
    /// The best path's [`AttrId`] plus [`EBGP_BIT`], or [`MEMO_STALE`] /
    /// [`MEMO_UNREACHABLE`].
    attr_ebgp: u32,
    peer: u32,
    next_hops: HopSetId,
}

/// Attribute word of a memo not computed since the last invalidation.
const MEMO_STALE: u32 = u32::MAX;
/// Attribute word of a memo whose prefix has no candidates left.
const MEMO_UNREACHABLE: u32 = u32::MAX - 1;
/// Ids stay below this, so no eBGP attribute word reaches the sentinels.
const ATTR_ID_LIMIT: u32 = EBGP_BIT - 2;

impl Memo {
    const STALE: Memo = Memo::sentinel(MEMO_STALE);
    const UNREACHABLE: Memo = Memo::sentinel(MEMO_UNREACHABLE);

    const fn sentinel(attr_ebgp: u32) -> Memo {
        Memo {
            attr_ebgp,
            peer: 0,
            next_hops: HopSetId::EMPTY,
        }
    }

    fn reachable(best: BestPath) -> Memo {
        Memo {
            attr_ebgp: best.attr_id.0 | if best.ebgp { EBGP_BIT } else { 0 },
            peer: u32::from(best.peer),
            next_hops: best.next_hops,
        }
    }

    /// The decision, once computed: `Some(None)` for an unreachable prefix.
    fn get(self) -> Option<Option<BestPath>> {
        match self.attr_ebgp {
            MEMO_STALE => None,
            MEMO_UNREACHABLE => Some(None),
            word => Some(Some(BestPath {
                attr_id: AttrId(word & !EBGP_BIT),
                peer: Ipv4Addr::from(self.peer),
                ebgp: word & EBGP_BIT != 0,
                next_hops: self.next_hops,
            })),
        }
    }
}

/// Per-prefix slot, 20 bytes: the memo plus the exported identity the
/// speaker last fanned out to its peers. The identity survives
/// invalidation — that is the point: a recompute that lands on the same
/// best path is recognised as "nothing to tell the peers".
#[derive(Debug, Clone, Copy)]
struct Slot {
    memo: Memo,
    synced: (u32, u32),
}

const _: () = assert!(std::mem::size_of::<Slot>() == 20);

impl Default for Slot {
    fn default() -> Self {
        Slot {
            memo: Memo::STALE,
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
pub(crate) struct HopSets {
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

    /// The addresses of an interned set, sorted.
    pub(crate) fn get(&self, id: HopSetId) -> &[Ipv4Addr] {
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
    /// sets keep their slot (ids are never reused); `live` tracks how many
    /// are non-empty.
    candidates: Vec<CandSet>,
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
    /// id space — with other speakers. This is the shape the CM pump runs:
    /// the id tables are fleet-global, so a prefix announced everywhere
    /// costs one intern, not one per speaker.
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

    /// Counts a pool intern or resolution as this RIB's creation or reuse.
    fn counted<T>(&self, (out, created): (T, bool)) -> T {
        let count = if created { &self.interns } else { &self.reuses };
        count.set(count.get() + 1);
        out
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
            self.candidates.resize(id.index() + 1, CandSet::Empty);
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
        if set.is_empty() {
            self.live += 1;
        }
        set.upsert(entry)
    }

    /// Removes the candidate with `key`, maintaining the live count. Ids
    /// beyond the arenas (interned into a shared table by another speaker,
    /// never seen here) have no candidates by construction.
    fn remove_candidate_key(&mut self, id: PrefixId, key: u32) -> bool {
        let Some(set) = self.candidates.get_mut(id.index()) else {
            return false;
        };
        if !set.remove(key) {
            return false;
        }
        if set.is_empty() {
            self.live -= 1;
        }
        true
    }

    /// Originates a local network, returning the prefix's id.
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> PrefixId {
        let attr = self.intern_attrs(PathAttributes::originated(next_hop));
        let id = self.intern_prefix(prefix);
        self.upsert_candidate(id, CandEntry::new(LOCAL_KEY, attr, false, next_hop));
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
    /// iteration order all downstream consumers require. Interns the
    /// attributes, then takes the speaker's path (`LocRib::apply_update`).
    pub fn update_from_peer(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        update: &UpdateMsg,
    ) -> Vec<PrefixId> {
        let attrs = update.attrs.as_ref().map(|a| RxAttrs {
            id: self.counted(self.pool.intern(a)),
            next_hop: a.next_hop,
        });
        let mut affected = Vec::new();
        self.apply_update(
            peer,
            ebgp,
            &update.withdrawn,
            attrs,
            &update.nlri,
            None,
            &mut affected,
        );
        self.prefixes.sort_by_value(&mut affected);
        affected
    }

    /// Resolves a received attribute block through the pool's wire index
    /// (see [`AttrPool::resolve_wire`]), counting the creation or reuse.
    pub(crate) fn resolve_wire(&self, block: &[u8]) -> Result<RxAttrs, CodecError> {
        self.pool.resolve_wire(block).map(|r| self.counted(r))
    }

    /// Applies an UPDATE from `peer` whose attributes (if any) are already
    /// resolved — the speaker's receive path — with an optional import
    /// route-map, the single import-policy choke point. Appends every
    /// prefix whose candidate set changed to `affected`, in no particular
    /// order and possibly more than once: the speaker sorts the list of a
    /// whole pass once.
    /// Announcements whose AS_PATH contains our own AS are rejected (loop
    /// prevention) — treated as withdrawals of any previous path from that
    /// peer. With a map, NLRI are bucketed by the first matching clause so
    /// each clause's transform is applied and interned **once per UPDATE**,
    /// not per prefix; denied prefixes (deny clause or no clause — implicit
    /// deny) are treated as withdrawals from this peer. The loop check and
    /// the map read the interned set; neither looks at NEXT_HOP.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply_update(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        withdrawn: &[Ipv4Prefix],
        attrs: Option<RxAttrs>,
        nlri: &[Ipv4Prefix],
        import: Option<&crate::policy::RouteMap>,
        affected: &mut Vec<PrefixId>,
    ) {
        let peer_key = u32::from(peer);
        debug_assert_ne!(peer_key, LOCAL_KEY, "0.0.0.0 is not a peer address");
        self.remove_peer_candidates(peer, peer_key, withdrawn, affected);
        if let Some(rx) = attrs {
            let looped = self.pool.read().attrs(rx.id).contains_asn(self.local_as);
            if looped {
                self.remove_peer_candidates(peer, peer_key, nlri, affected);
            } else {
                match import {
                    // One intern per UPDATE, not per prefix: every NLRI in
                    // the message shares the id.
                    None => self.insert_candidates(peer, peer_key, ebgp, rx, nlri, affected),
                    Some(map) => {
                        use crate::policy::{PolicyAction, PolicyVerdict};
                        let attrs = self.pool.attrs(rx.id);
                        let mut denied: Vec<Ipv4Prefix> = Vec::new();
                        let mut buckets: std::collections::BTreeMap<usize, Vec<Ipv4Prefix>> =
                            std::collections::BTreeMap::new();
                        for p in nlri {
                            match map.first_match(*p, &attrs) {
                                Some(i) if map.clauses[i].action == PolicyAction::Permit => {
                                    buckets.entry(i).or_default().push(*p);
                                }
                                _ => denied.push(*p),
                            }
                        }
                        // A denied announce is a withdrawal from this peer
                        // (and, like one, never grows the arenas).
                        self.remove_peer_candidates(peer, peer_key, &denied, affected);
                        for (i, nlri) in buckets {
                            let id = match map.verdict_of(i, &attrs, self.local_as) {
                                PolicyVerdict::Permit(None) => rx.id,
                                PolicyVerdict::Permit(Some(out)) => self.intern_attrs(out),
                                PolicyVerdict::Deny => unreachable!("bucketed permit clause"),
                            };
                            let rx = RxAttrs { id, ..rx };
                            self.insert_candidates(peer, peer_key, ebgp, rx, &nlri, affected);
                        }
                    }
                }
            }
        }
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
            self.remove_candidate_key(id, peer_key);
            self.invalidate(id);
        }
        self.prefixes.sort_by_value(&mut affected);
        affected
    }

    /// Installs one interned attribute set and next hop as `peer`'s
    /// candidate for each prefix in `nlri`, maintaining the Adj-RIB-In
    /// index and pushing changed ids onto `affected`.
    fn insert_candidates(
        &mut self,
        peer: Ipv4Addr,
        peer_key: u32,
        ebgp: bool,
        rx: RxAttrs,
        nlri: &[Ipv4Prefix],
        affected: &mut Vec<PrefixId>,
    ) {
        let pid = self.peers.intern(peer);
        if pid.index() >= self.adj_in.len() {
            self.adj_in.resize(pid.index() + 1, IdSet::new());
        }
        let entry = CandEntry::new(peer_key, rx.id, ebgp, rx.next_hop);
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
        if !self.remove_candidate_key(id, peer_key) {
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
        if slot.memo != Memo::STALE {
            slot.memo = Memo::STALE;
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

    /// Interns an owned attribute set in this RIB's pool, NEXT_HOP aside:
    /// what an import route-map rewrote a received set into, and a local
    /// origination. (Exports are not interned here; the speaker keeps their
    /// encoded blocks.)
    pub fn intern_attrs(&self, attrs: PathAttributes) -> AttrId {
        self.counted(self.pool.intern_owned(attrs))
    }

    /// The canonical shared attributes for an id (owned handle — the pool
    /// lock cannot be held across the call boundary). NEXT_HOP is
    /// `0.0.0.0`; a candidate's own is in the [`Decision`] view.
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
        let best = match slot.memo.get() {
            None => {
                stats.decide_recomputes += 1;
                let best = self.compute(id, &mut stats);
                slot.memo = best.map_or(Memo::UNREACHABLE, Memo::reachable);
                best
            }
            Some(best) => {
                stats.decide_cache_hits += 1;
                best
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
        let cands = self.candidates[id.index()].as_slice();
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
            multipath_members(&store, cands, best, self.multipath).map(CandEntry::next_hop),
        );
        hops.sort_unstable();
        hops.dedup();
        Some(BestPath {
            attr_id: best.attr(),
            peer: Ipv4Addr::from(best.addr_key),
            ebgp: best.ebgp(),
            next_hops: self.hop_sets.borrow_mut().intern(&hops),
        })
    }

    /// Builds the [`Decision`] view of a reachable prefix around its
    /// memoized best path.
    fn view(&self, id: PrefixId, best: BestPath) -> Decision {
        let cands = self.candidates[id.index()].as_slice();
        let store = self.pool.read();
        let at = cands
            .binary_search_by_key(&u32::from(best.peer), CandEntry::key)
            .expect("the memoized best path is a live candidate");
        let route = |cand: &CandEntry| {
            let canonical = store.attrs(cand.attr());
            RouteInfo {
                attrs: if canonical.next_hop == cand.next_hop() {
                    Arc::clone(canonical)
                } else {
                    Arc::new(PathAttributes {
                        next_hop: cand.next_hop(),
                        ..(**canonical).clone()
                    })
                },
                attr_id: cand.attr(),
                peer: Ipv4Addr::from(cand.addr_key),
                ebgp: cand.ebgp(),
            }
        };
        Decision {
            best: route(&cands[at]),
            multipath: multipath_members(&store, cands, &cands[at], self.multipath)
                .map(route)
                .collect(),
            next_hops: self.hop_set(best.next_hops),
        }
    }

    /// Read access to every interned next-hop set, for resolving a batch
    /// of ids in place. Holds a borrow of the RIB's interior state: no
    /// decision may run while it is alive.
    pub(crate) fn hop_sets(&self) -> std::cell::Ref<'_, HopSets> {
        self.hop_sets.borrow()
    }

    /// The addresses of an interned next-hop set, sorted (a copy).
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
    let am = store.meta(a.attr());
    let bm = store.meta(b.attr());
    // 1. Higher local-pref wins.
    let o = bm.local_pref.cmp(&am.local_pref);
    if o != Ordering::Equal {
        return o;
    }
    // 2. Local origination wins (`!remote` is "is local").
    let o = a.remote().cmp(&b.remote());
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
    b.ebgp().cmp(&a.ebgp())
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
        assert_eq!(d1.best.attr_id, d4.best.attr_id, "one pool entry");
        assert_eq!(d1.best.attrs, d4.best.attrs);
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
        // Decisions in both RIBs name the one entry.
        let d1 = r1.decide(pfx("10.1.0.0/16")).unwrap();
        let d2 = r2.decide(pfx("10.2.0.0/16")).unwrap();
        assert_eq!(d1.best.attr_id, d2.best.attr_id);
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
        assert_eq!(
            rib.decide_id(rib.prefix_id(p).unwrap()),
            Some(best),
            "the packed memo gives back the record it stored"
        );
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
    fn next_hop_only_differences_share_one_entry_and_form_multipath() {
        let pool = AttrPool::new();
        let mut rib = LocRib::new_shared(65000, true, pool.clone());
        // Two UPDATEs identical but for NEXT_HOP (each peer sets itself).
        announce(&mut rib, [10, 0, 0, 1], &[7, 8], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[7, 8], "10.9.0.0/16");
        assert_eq!(pool.len(), 1, "one entry for both");
        assert!(pool.attrs(AttrId(0)).next_hop.is_unspecified());
        let s = rib.stats();
        assert_eq!((s.attr_interns, s.attr_reuses), (1, 1));
        let p = pfx("10.9.0.0/16");
        assert_eq!(
            rib.next_hops(p),
            [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)],
            "the hop set comes from the candidates"
        );
        // The view puts each candidate's own NEXT_HOP back.
        let d = rib.decide(p).unwrap();
        let hops: Vec<Ipv4Addr> = d.multipath.iter().map(|r| r.attrs.next_hop).collect();
        assert_eq!(hops, d.next_hops);
        assert_eq!(*d.best.attrs, attrs(&[7, 8], [10, 0, 0, 1]));
        // A re-announcement that moves only the NEXT_HOP is a change.
        let moved = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(&[7, 8], [10, 0, 0, 9]))),
            nlri: vec![p],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 2), true, &moved);
        assert_eq!(affected.len(), 1);
        assert_eq!(
            rib.next_hops(p),
            [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 9)]
        );
        assert_eq!(pool.len(), 1);
    }

    fn block_of(a: &PathAttributes) -> Vec<u8> {
        let mut out = bytes::BytesMut::new();
        crate::msg::encode_attrs(a, &mut out);
        out.to_vec()
    }

    #[test]
    fn wire_index_resolves_next_hop_variants_without_decoding() {
        let rib = LocRib::new(65000, true);
        let one = rib
            .resolve_wire(&block_of(&attrs(&[7, 8], [10, 0, 0, 1])))
            .unwrap();
        let two = rib
            .resolve_wire(&block_of(&attrs(&[7, 8], [10, 0, 0, 2])))
            .unwrap();
        assert_eq!(one.id, two.id);
        assert_eq!(
            (one.next_hop, two.next_hop),
            (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        );
        let pool = rib.attr_pool();
        assert_eq!((pool.len(), pool.wire_len()), (1, 1));
        let s = rib.stats();
        assert_eq!((s.attr_interns, s.attr_reuses), (1, 1), "a hit is a reuse");
        // The same set in another encoding (extended-length ORIGIN) is a
        // second wire entry for the one set.
        let mut long_origin = vec![0x50, 1, 0, 1, 0];
        long_origin.extend_from_slice(&block_of(&attrs(&[7, 8], [10, 0, 0, 3]))[4..]);
        assert_eq!(rib.resolve_wire(&long_origin).unwrap().id, one.id);
        assert_eq!((pool.len(), pool.wire_len()), (1, 2));
        // A malformed block identical but for a truncated attribute after
        // NEXT_HOP is the decode error, every time, and indexes nothing.
        let mut truncated = block_of(&attrs(&[7, 8], [10, 0, 0, 4]));
        truncated.extend_from_slice(&[0xc0, 99, 5, 1, 2]);
        for _ in 0..2 {
            assert_eq!(
                rib.resolve_wire(&truncated),
                Err(CodecError::Truncated("attribute value"))
            );
        }
        assert_eq!((pool.len(), pool.wire_len()), (1, 2));
    }

    #[test]
    fn colliding_wire_keys_compare_bytes() {
        // Force two blocks onto one key: the stored bytes, not the hash,
        // decide a hit — and only the NEXT_HOP value is ignored.
        let mut store = AttrStore::default();
        let a = block_of(&attrs(&[1], [10, 0, 0, 1]));
        let b = block_of(&attrs(&[2], [10, 0, 0, 1]));
        let at = crate::msg::next_hop_offset(&a).unwrap();
        assert_eq!(crate::msg::next_hop_offset(&b), Some(at));
        store.insert_wire(7, &a, at, AttrId(0));
        assert_eq!(store.find_wire(7, &b, at), None);
        store.insert_wire(7, &b, at, AttrId(1));
        assert_eq!(store.find_wire(7, &a, at), Some(AttrId(0)));
        assert_eq!(store.find_wire(7, &b, at), Some(AttrId(1)));
        assert_eq!(store.find_wire(8, &a, at), None);
        let a_elsewhere = block_of(&attrs(&[1], [192, 0, 2, 1]));
        assert_eq!(store.find_wire(7, &a_elsewhere, at), Some(AttrId(0)));
        assert_eq!(store.wire_len(), 2);
        // The key is the plain hash of the block with NEXT_HOP zeroed.
        let mut zeroed = a.clone();
        zeroed[at..at + 4].fill(0);
        let mut h = FastHasher::default();
        h.write(&zeroed);
        assert_eq!(wire_key(&a), Some((at, h.finish())));
        assert_eq!(wire_key(&a), wire_key(&a_elsewhere));
    }

    #[test]
    fn candidate_set_walks_empty_one_many_one_empty() {
        let mut rib = LocRib::new(65000, true);
        let p = pfx("10.9.0.0/16");
        let (p1, p2) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let withdraw = |rib: &mut LocRib, peer: Ipv4Addr| {
            let u = UpdateMsg {
                withdrawn: vec![p],
                attrs: None,
                nlri: vec![],
            };
            rib.update_from_peer(peer, true, &u);
        };
        // (set length, best peer, adj-in lengths of p1 and p2) at each step.
        let check = |rib: &LocRib, len: usize, best: Option<Ipv4Addr>, adj: (usize, usize)| {
            let set = rib.prefix_id(p).map(|id| &rib.candidates[id.index()]);
            assert_eq!(set.map_or(0, |s| s.as_slice().len()), len);
            match (len, set) {
                (0, _) => assert!(set.is_none_or(CandSet::is_empty)),
                (1, Some(CandSet::One(_))) => {}
                (_, Some(CandSet::Many(v))) => assert!(v.len() > 1),
                (_, other) => panic!("{len} candidates stored as {other:?}"),
            }
            let live = usize::from(len > 0);
            assert_eq!(rib.prefix_count(), live);
            assert_eq!(rib.live_prefix_ids().len(), live);
            assert_eq!(rib.decide(p).map(|d| d.best.peer), best);
            assert_eq!((rib.adj_in_len(p1), rib.adj_in_len(p2)), adj);
        };
        check(&rib, 0, None, (0, 0));
        announce(&mut rib, [10, 0, 0, 2], &[1, 2], "10.9.0.0/16");
        check(&rib, 1, Some(p2), (0, 1));
        // Local goes in front of p2, p1 between them.
        rib.originate(p, Ipv4Addr::new(10, 0, 0, 99));
        announce(&mut rib, [10, 0, 0, 1], &[3], "10.9.0.0/16");
        check(&rib, 3, Some(Ipv4Addr::UNSPECIFIED), (1, 1));
        let sorted: Vec<u32> = rib.candidates[rib.prefix_id(p).unwrap().index()]
            .as_slice()
            .iter()
            .map(CandEntry::key)
            .collect();
        assert_eq!(sorted, [LOCAL_KEY, u32::from(p1), u32::from(p2)]);
        // Out of the middle, then off the front: back to one inline entry.
        withdraw(&mut rib, p1);
        check(&rib, 2, Some(Ipv4Addr::UNSPECIFIED), (0, 1));
        assert_eq!(rib.withdraw_local(p), rib.prefix_id(p));
        check(&rib, 1, Some(p2), (0, 1));
        withdraw(&mut rib, p2);
        check(&rib, 0, None, (0, 0));
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
