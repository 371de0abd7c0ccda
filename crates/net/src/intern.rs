//! Compact-id interning for hot routing-table keys.
//!
//! The BGP RIB and speaker keep per-prefix and per-peer state. Keyed by the
//! address structs themselves (`Ipv4Prefix`, `Ipv4Addr`) every map probe
//! costs a tree walk and every entry carries the full key; production
//! routing daemons instead intern each key once and index dense arrays by
//! the resulting small integer. This module provides that layer:
//!
//! * [`PrefixId`] / [`PeerId`] — `u32` ids assigned in **first-intern
//!   order**, mirroring the `AttrId` discipline of the attribute store:
//!   equal event sequences produce equal ids, ids are never reused or
//!   compacted, and the id→value table is stable for the interner's
//!   lifetime.
//! * [`PrefixInterner`] / [`PeerInterner`] — the two typed interners, each
//!   a hash map (value → id) plus a dense table (id → value).
//! * [`IdSet`] — a growable bitset over ids with an exact element count,
//!   for membership state like per-peer Adj-RIB-In indexes.
//! * [`FastHasher`] / [`FastMap`] — the one fixed-seed, word-at-a-time
//!   hasher every internal id table uses (see its docs for why a fixed
//!   seed is acceptable here).
//!
//! Ids order by first appearance, not by value. Consumers that must
//! iterate in value order — every determinism-sensitive path — sort id
//! slices with the interner's [`PrefixInterner::sort_key`], which is
//! monotone in the value's `Ord`. A pool built with [`PrefixPool::seeded`]
//! hands out its seed's ids in value order, so those sorts mostly find
//! their input already in order; correctness never depends on it.

use crate::addr::Ipv4Prefix;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Fixed-seed folded-multiply hasher for the simulator's internal tables
/// (interners, the attribute store, export memos): one xor and one widening
/// multiply per 8-byte word instead of SipHash's rounds per byte block.
///
/// A fixed seed gives up `RandomState`'s protection against keys crafted
/// to collide. That is acceptable for these tables because every key is
/// produced by this process: prefixes, peer addresses and path attributes
/// are parsed from bytes this run's own speakers encoded, never from the
/// outside. It must not be used for a table keyed by external input.
/// Nothing may depend on a map's iteration order under this hasher any more
/// than under `RandomState`; every determinism-sensitive consumer sorts.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher(u64);

/// Odd multiplier with well-mixed bits (the `rustc-hash` constant).
const FAST_K: u64 = 0xf135_7aea_2e62_a9c5;

impl Default for FastHasher {
    /// The fixed seed (digits of pi): non-zero, so a zero first word does
    /// not multiply to zero.
    fn default() -> Self {
        FastHasher(0x243f_6a88_85a3_08d3)
    }
}

impl FastHasher {
    /// Folds the 128-bit product back to 64 bits, so the high half — where
    /// a multiply leaves its entropy — also reaches the low bits the std
    /// map indexes buckets with (keys with zero low bits, `10.x.0.0/16`,
    /// would otherwise pile into a few buckets).
    #[inline]
    fn add(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * u128::from(FAST_K);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` on [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The [`FastHasher`] hash of one value — for tables that hash a large key
/// once and carry the value through probe, re-probe and insert.
pub fn fast_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FastHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Stable id of an interned [`Ipv4Prefix`] (first-intern order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixId(pub u32);

impl PrefixId {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Stable id of an interned peer address (first-intern order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner for [`Ipv4Prefix`] keys.
#[derive(Debug, Clone, Default)]
pub struct PrefixInterner {
    /// Keyed by [`prefix_key`]: one word to hash instead of a struct.
    ids: FastMap<u64, PrefixId>,
    values: Vec<Ipv4Prefix>,
}

/// `(network << 8) | len` — injective, and ordered exactly like
/// `Ipv4Prefix`'s `Ord` (network first, then length).
fn prefix_key(p: Ipv4Prefix) -> u64 {
    (u64::from(u32::from(p.network())) << 8) | u64::from(p.len())
}

impl PrefixInterner {
    /// Interns `p`, returning its stable id (allocating one on first
    /// sight).
    pub fn intern(&mut self, p: Ipv4Prefix) -> PrefixId {
        let next = PrefixId(self.values.len() as u32);
        let id = *self.ids.entry(prefix_key(p)).or_insert(next);
        if id == next {
            self.values.push(p);
        }
        id
    }

    /// The id of `p`, if it has ever been interned.
    pub fn get(&self, p: Ipv4Prefix) -> Option<PrefixId> {
        self.ids.get(&prefix_key(p)).copied()
    }

    /// The value behind an id.
    pub fn value(&self, id: PrefixId) -> Ipv4Prefix {
        self.values[id.index()]
    }

    /// Number of distinct prefixes interned (monotone — also the peak).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A `u64` key that orders exactly like `Ipv4Prefix`'s `Ord`
    /// (network first, then length): `(network << 8) | len`.
    pub fn sort_key(&self, id: PrefixId) -> u64 {
        prefix_key(self.values[id.index()])
    }

    /// Sorts (and dedups) an id slice into ascending **value** order — the
    /// iteration order every determinism-sensitive consumer requires.
    pub fn sort_by_value(&self, ids: &mut Vec<PrefixId>) {
        ids.sort_unstable_by_key(|&id| self.sort_key(id));
        ids.dedup();
    }
}

/// A shared handle to one [`PrefixInterner`] — the per-run prefix table.
///
/// Mirrors the attribute pool: the run owner creates one pool and hands a
/// clone to every speaker, so a 1000-node experiment holding 100k routes
/// interns each prefix **once per run** instead of once per speaker
/// (without sharing, per-speaker tables dominate peak RSS at that scale).
///
/// Interning is read-mostly: the owner seeds every prefix the experiment
/// can ever announce (each speaker's originated networks, see
/// [`PrefixPool::seeded`]) before the first pump, so steady-state interns
/// take only the read lock and every id is a function of the run. The
/// write path exists for prefixes outside the seed (e.g. a standalone
/// harness); the double-checked probe under the write lock keeps one id
/// per value.
#[derive(Debug, Clone, Default)]
pub struct PrefixPool(Arc<RwLock<PrefixInterner>>);

impl PrefixPool {
    /// A fresh, empty pool.
    pub fn new() -> PrefixPool {
        PrefixPool::default()
    }

    /// A pool holding every prefix of `seed`, interned in ascending value
    /// order (duplicates once): ids then ascend with value for every
    /// seeded prefix, and a value sort of seeded ids is a sort of ids.
    /// Prefixes interned later take the next ids, in first-intern order.
    pub fn seeded(seed: impl IntoIterator<Item = Ipv4Prefix>) -> PrefixPool {
        let mut seed: Vec<Ipv4Prefix> = seed.into_iter().collect();
        seed.sort_unstable();
        seed.dedup();
        let mut table = PrefixInterner::default();
        for p in seed {
            table.intern(p);
        }
        PrefixPool(Arc::new(RwLock::new(table)))
    }

    /// Read access to the table — one lock acquisition for a whole batch
    /// of lookups. Hold it briefly and never across a call that may intern
    /// (a waiting writer blocks further readers on this thread too).
    pub fn read(&self) -> RwLockReadGuard<'_, PrefixInterner> {
        self.0.read().expect("prefix pool lock poisoned")
    }

    /// Interns `p`: a read-locked probe on the hot (already-seeded) path,
    /// falling back to the write lock for a genuinely new prefix.
    pub fn intern(&self, p: Ipv4Prefix) -> PrefixId {
        if let Some(id) = self.read().get(p) {
            return id;
        }
        self.0.write().expect("prefix pool lock poisoned").intern(p)
    }

    /// Interns every prefix of `ps` in order, appending the ids to `out`.
    /// One read guard serves the whole slice; the write lock is taken only
    /// from the first genuinely new prefix on.
    pub fn intern_all(&self, ps: &[Ipv4Prefix], out: &mut Vec<PrefixId>) {
        let known = {
            let table = self.read();
            let before = out.len();
            out.extend(ps.iter().map_while(|p| table.get(*p)));
            out.len() - before
        };
        if known < ps.len() {
            let mut table = self.0.write().expect("prefix pool lock poisoned");
            out.extend(ps[known..].iter().map(|p| table.intern(*p)));
        }
    }

    /// The id of `p`, if it has ever been interned.
    pub fn get(&self, p: Ipv4Prefix) -> Option<PrefixId> {
        self.read().get(p)
    }

    /// The value behind an id.
    pub fn value(&self, id: PrefixId) -> Ipv4Prefix {
        self.read().value(id)
    }

    /// Number of distinct prefixes interned (monotone — also the peak).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// See [`PrefixInterner::sort_key`].
    pub fn sort_key(&self, id: PrefixId) -> u64 {
        self.read().sort_key(id)
    }

    /// Sorts (and dedups) an id slice into ascending value order, taking
    /// the read lock once for the whole sort rather than per comparison.
    pub fn sort_by_value(&self, ids: &mut Vec<PrefixId>) {
        self.read().sort_by_value(ids);
    }

    /// True when `other` is the same underlying table.
    pub fn same_as(&self, other: &PrefixPool) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Interner for peer addresses.
#[derive(Debug, Clone, Default)]
pub struct PeerInterner {
    /// Keyed by `u32::from(address)`: one word to hash.
    ids: FastMap<u32, PeerId>,
    values: Vec<Ipv4Addr>,
}

impl PeerInterner {
    /// Interns `a`, returning its stable id.
    pub fn intern(&mut self, a: Ipv4Addr) -> PeerId {
        let next = PeerId(self.values.len() as u32);
        let id = *self.ids.entry(u32::from(a)).or_insert(next);
        if id == next {
            self.values.push(a);
        }
        id
    }

    /// The id of `a`, if it has ever been interned.
    pub fn get(&self, a: Ipv4Addr) -> Option<PeerId> {
        self.ids.get(&u32::from(a)).copied()
    }

    /// The value behind an id.
    pub fn value(&self, id: PeerId) -> Ipv4Addr {
        self.values[id.index()]
    }

    /// Number of distinct addresses interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A growable bitset over `u32` ids with an exact element count.
///
/// Insert/remove/contains are O(1); iteration yields ids in ascending
/// **id** order (first-intern order), so callers needing value order must
/// sort through the interner afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// An empty set.
    pub fn new() -> IdSet {
        IdSet::default()
    }

    /// Adds `id`; true when it was absent.
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            return false;
        }
        self.words[w] |= mask;
        self.len += 1;
        true
    }

    /// Removes `id`; true when it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            return false;
        }
        self.words[w] &= !mask;
        self.len -= 1;
        true
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Exact element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no ids are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every id (keeps the allocation).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Ids in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn ids_are_first_intern_order_and_stable() {
        let mut i = PrefixInterner::default();
        let a = i.intern(pfx("10.2.0.0/16"));
        let b = i.intern(pfx("10.1.0.0/16"));
        assert_eq!(a, PrefixId(0), "first seen gets id 0, regardless of Ord");
        assert_eq!(b, PrefixId(1));
        assert_eq!(i.intern(pfx("10.2.0.0/16")), a, "re-intern is stable");
        assert_eq!(i.value(a), pfx("10.2.0.0/16"));
        assert_eq!(i.get(pfx("10.1.0.0/16")), Some(b));
        assert_eq!(i.get(pfx("10.3.0.0/16")), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn sort_key_matches_prefix_ord() {
        let mut i = PrefixInterner::default();
        // Same network with different lengths, plus neighbors — cover the
        // (network, len) lexicographic tie-break.
        let values = [
            pfx("10.1.0.0/16"),
            pfx("10.1.0.0/24"),
            pfx("10.0.255.0/24"),
            pfx("10.2.0.0/16"),
            pfx("0.0.0.0/0"),
            pfx("255.255.255.255/32"),
        ];
        let ids: Vec<PrefixId> = values.iter().map(|&p| i.intern(p)).collect();
        for &x in &ids {
            for &y in &ids {
                assert_eq!(
                    i.sort_key(x).cmp(&i.sort_key(y)),
                    i.value(x).cmp(&i.value(y)),
                    "{:?} vs {:?}",
                    i.value(x),
                    i.value(y)
                );
            }
        }
        let mut sorted = ids.clone();
        i.sort_by_value(&mut sorted);
        let mut expect = values.to_vec();
        expect.sort();
        let got: Vec<Ipv4Prefix> = sorted.iter().map(|&id| i.value(id)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sort_by_value_dedups() {
        let mut i = PrefixInterner::default();
        let a = i.intern(pfx("10.2.0.0/16"));
        let b = i.intern(pfx("10.1.0.0/16"));
        let mut ids = vec![a, b, a, b, b];
        i.sort_by_value(&mut ids);
        assert_eq!(ids, vec![b, a]);
    }

    #[test]
    fn prefix_pool_shares_one_table_across_clones() {
        let pool = PrefixPool::new();
        let sharer = pool.clone();
        let a = pool.intern(pfx("10.2.0.0/16"));
        let b = sharer.intern(pfx("10.1.0.0/16"));
        assert_eq!(a, PrefixId(0));
        assert_eq!(b, PrefixId(1));
        assert_eq!(
            sharer.intern(pfx("10.2.0.0/16")),
            a,
            "hit via either handle"
        );
        assert_eq!(pool.len(), 2, "one table, not one per handle");
        assert_eq!(pool.get(pfx("10.1.0.0/16")), Some(b));
        assert_eq!(pool.value(a), pfx("10.2.0.0/16"));
        assert!(pool.same_as(&sharer));
        assert!(!pool.same_as(&PrefixPool::new()));
        let mut ids = vec![a, b, a];
        pool.sort_by_value(&mut ids);
        assert_eq!(ids, vec![b, a], "value order with dedup, like the interner");
    }

    #[test]
    fn seeded_pool_ids_ascend_with_value_and_later_ids_still_sort() {
        // The seed arrives in node order, with a prefix two nodes share.
        let seed = [
            pfx("10.9.0.0/16"),
            pfx("10.1.0.0/24"),
            pfx("10.1.0.0/16"),
            pfx("0.0.0.0/0"),
            pfx("10.9.0.0/16"),
            pfx("192.168.0.0/16"),
        ];
        let pool = PrefixPool::seeded(seed);
        assert_eq!(pool.len(), 5, "duplicates interned once");
        let mut values = seed.to_vec();
        values.sort();
        values.dedup();
        for (i, p) in values.iter().enumerate() {
            assert_eq!(pool.get(*p), Some(PrefixId(i as u32)), "{p:?}");
        }
        // Ids interned after the seed follow it whatever their value;
        // mixed with seeded ids, a value sort must still be one.
        let late = [pfx("10.5.0.0/16"), pfx("1.0.0.0/8"), pfx("255.0.0.0/8")];
        let late_ids: Vec<PrefixId> = late.iter().map(|p| pool.intern(*p)).collect();
        assert_eq!(late_ids, vec![PrefixId(5), PrefixId(6), PrefixId(7)]);
        let mut ids: Vec<PrefixId> = (0..8).rev().map(PrefixId).collect();
        ids.push(PrefixId(2));
        pool.sort_by_value(&mut ids);
        let got: Vec<Ipv4Prefix> = ids.iter().map(|&id| pool.value(id)).collect();
        let mut want: Vec<Ipv4Prefix> = values.iter().chain(&late).copied().collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn intern_all_matches_one_by_one_and_takes_new_prefixes() {
        let pool = PrefixPool::new();
        let seeded = pool.intern(pfx("10.2.0.0/16"));
        let mut ids = vec![PrefixId(99)];
        // Known, new, known-again, new: the write path starts at the first
        // miss and must still resolve the later known prefix to its old id.
        pool.intern_all(
            &[
                pfx("10.2.0.0/16"),
                pfx("10.1.0.0/16"),
                pfx("10.2.0.0/16"),
                pfx("10.3.0.0/16"),
            ],
            &mut ids,
        );
        assert_eq!(
            ids,
            vec![PrefixId(99), seeded, PrefixId(1), seeded, PrefixId(2)],
            "appends, in order, first-intern ids"
        );
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.read().value(PrefixId(2)), pfx("10.3.0.0/16"));
    }

    #[test]
    fn fast_hasher_is_fixed_and_spreads_aligned_keys() {
        // Same value, same hash, in any process: no per-map random state.
        assert_eq!(fast_hash(&42u32), fast_hash(&42u32));
        assert_ne!(fast_hash(&42u32), fast_hash(&43u32));
        assert_eq!(fast_hash("as-path"), fast_hash("as-path"));
        // Byte input is consumed a word at a time with a zero-padded tail;
        // the slice length prefix keeps different lengths apart.
        assert_ne!(fast_hash(&[1u8][..]), fast_hash(&[1u8, 0][..]));
        assert_ne!(fast_hash(&[0u8; 8][..]), fast_hash(&[0u8; 9][..]));
        // Keys whose low 16 bits are all zero (10.x.0.0/16 networks) must
        // still spread over the low bits the std map indexes buckets with.
        let low: std::collections::BTreeSet<u64> = (0..256u64)
            .map(|x| fast_hash(&((0x0a00_0000 | (x << 16)) << 8 | 16)) & 0xff)
            .collect();
        assert!(low.len() > 140, "only {} of 256 low bytes used", low.len());
    }

    #[test]
    fn peer_interner_round_trips() {
        let mut i = PeerInterner::default();
        let a = i.intern(Ipv4Addr::new(10, 0, 0, 9));
        let b = i.intern(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!((a, b), (PeerId(0), PeerId(1)));
        assert_eq!(i.intern(Ipv4Addr::new(10, 0, 0, 9)), a);
        assert_eq!(i.value(b), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn idset_tracks_exact_len_and_iterates_ascending() {
        let mut s = IdSet::new();
        assert!(s.insert(130));
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(130), "duplicate insert reports absent=false");
        assert_eq!(s.len(), 4);
        assert!(s.contains(63));
        assert!(!s.contains(62));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        // Remove of an id beyond the allocated words is a no-op.
        assert!(!s.remove(100_000));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
