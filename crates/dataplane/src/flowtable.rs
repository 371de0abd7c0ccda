//! An OpenFlow 1.0 style flow table: priority-ordered wildcard matching.
//!
//! Semantics follow the OF 1.0 spec closely enough for the demo's
//! controllers: highest priority wins; among equal priorities the earliest
//! installed entry wins; an absent field is a wildcard; `nw_src`/`nw_dst`
//! wildcards are prefix masks. Entries carry idle/hard timeouts and byte
//! counters (fed by the fluid model) so `FLOW_STATS` replies are meaningful
//! — Hedera's demand estimation depends on them.
//!
//! Entries live in one `Vec` in table order, so [`FlowTable::entries`] and
//! the tie-break rules need no further bookkeeping. Beside it sits a
//! tuple-space index in the style of the Open vSwitch classifier: the set
//! of match *shapes* present (which fields are constrained, under which
//! prefix lengths) and one hash map from a match's hash to its entry's
//! rank. A lookup projects the key onto each shape, hashes the projection
//! and binary-searches the rank — independent of the table's size. See
//! DESIGN.md, "Flow-table index".

use crate::hash::EcmpHasher;
use horse_net::addr::{Ipv4Prefix, MacAddr};
use horse_net::flow::FiveTuple;
use horse_net::intern::{fast_hash, FastMap};
use horse_net::topology::PortId;
use horse_sim::{SimDuration, SimTime};
use std::collections::hash_map::Entry;

/// The lookup key presented to a flow table: arrival port plus the flow's
/// header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Port the packet (flow) arrived on; `None` at the source host's first
    /// switch lookup before entering the network is never used — keys built
    /// by the resolver always carry a port.
    pub in_port: Option<PortId>,
    /// Source MAC.
    pub dl_src: MacAddr,
    /// Destination MAC.
    pub dl_dst: MacAddr,
    /// EtherType.
    pub dl_type: u16,
    /// Transport 5-tuple.
    pub tuple: FiveTuple,
}

impl FlowKey {
    /// Key for an IPv4 flow with the given tuple arriving on `in_port`.
    pub fn ipv4(in_port: Option<PortId>, tuple: FiveTuple) -> FlowKey {
        FlowKey {
            in_port,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_type: horse_net::packet::ETHERTYPE_IPV4,
            tuple,
        }
    }
}

/// An OF 1.0 match: `None`/default means wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Match {
    /// Match on the arrival port.
    pub in_port: Option<PortId>,
    /// Match on source MAC.
    pub dl_src: Option<MacAddr>,
    /// Match on destination MAC.
    pub dl_dst: Option<MacAddr>,
    /// Match on EtherType.
    pub dl_type: Option<u16>,
    /// Match on IP protocol.
    pub nw_proto: Option<u8>,
    /// Match on source IP under a prefix mask.
    pub nw_src: Option<Ipv4Prefix>,
    /// Match on destination IP under a prefix mask.
    pub nw_dst: Option<Ipv4Prefix>,
    /// Match on transport source port.
    pub tp_src: Option<u16>,
    /// Match on transport destination port.
    pub tp_dst: Option<u16>,
}

impl Match {
    /// The all-wildcard match.
    pub fn any() -> Match {
        Match::default()
    }

    /// An exact 5-tuple match (the rule the SDN ECMP and Hedera apps pin
    /// individual flows with).
    pub fn exact(tuple: FiveTuple) -> Match {
        Match {
            dl_type: Some(horse_net::packet::ETHERTYPE_IPV4),
            nw_proto: Some(tuple.proto.number()),
            nw_src: Some(Ipv4Prefix::host(tuple.src_ip)),
            nw_dst: Some(Ipv4Prefix::host(tuple.dst_ip)),
            tp_src: Some(tuple.src_port),
            tp_dst: Some(tuple.dst_port),
            ..Match::default()
        }
    }

    /// A destination-prefix match (proactive L3-style rules).
    pub fn dst_prefix(prefix: Ipv4Prefix) -> Match {
        Match {
            dl_type: Some(horse_net::packet::ETHERTYPE_IPV4),
            nw_dst: Some(prefix),
            ..Match::default()
        }
    }

    /// Does this match cover `key`?
    pub fn matches(&self, key: &FlowKey) -> bool {
        if let Some(p) = self.in_port {
            if key.in_port != Some(p) {
                return false;
            }
        }
        if let Some(m) = self.dl_src {
            if key.dl_src != m {
                return false;
            }
        }
        if let Some(m) = self.dl_dst {
            if key.dl_dst != m {
                return false;
            }
        }
        if let Some(t) = self.dl_type {
            if key.dl_type != t {
                return false;
            }
        }
        if let Some(p) = self.nw_proto {
            if key.tuple.proto.number() != p {
                return false;
            }
        }
        if let Some(pre) = self.nw_src {
            if !pre.contains(key.tuple.src_ip) {
                return false;
            }
        }
        if let Some(pre) = self.nw_dst {
            if !pre.contains(key.tuple.dst_ip) {
                return false;
            }
        }
        if let Some(p) = self.tp_src {
            if key.tuple.src_port != p {
                return false;
            }
        }
        if let Some(p) = self.tp_dst {
            if key.tuple.dst_port != p {
                return false;
            }
        }
        true
    }
}

/// What to do with a matching flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out a port.
    Output(PortId),
    /// Punt to the SDN controller (PACKET_IN).
    Controller,
    /// Hash over a set of candidate ports (OF 1.0 has no group tables; this
    /// models switch-local ECMP the way fs-sdn style simulators do). The
    /// ports live in the owning entry's `ecmp_ports`.
    EcmpHash,
    /// Drop.
    Drop,
}

/// One table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Match condition.
    pub matcher: Match,
    /// Priority; higher wins.
    pub priority: u16,
    /// Action list (first actionable item wins in this model).
    pub actions: Vec<Action>,
    /// Candidate ports for [`Action::EcmpHash`].
    pub ecmp_ports: Vec<PortId>,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Remove after this long without traffic (zero = never).
    pub idle_timeout: SimDuration,
    /// Remove this long after installation (zero = never).
    pub hard_timeout: SimDuration,
    /// Installation time.
    pub installed: SimTime,
    /// Last time traffic matched.
    pub last_hit: SimTime,
    /// Bytes accounted to this entry (fed from the fluid model).
    pub byte_count: u64,
    /// Flows (packets, in OF terms) accounted to this entry.
    pub packet_count: u64,
}

impl FlowEntry {
    /// A new entry with zeroed counters.
    pub fn new(matcher: Match, priority: u16, actions: Vec<Action>) -> FlowEntry {
        FlowEntry {
            matcher,
            priority,
            actions,
            ecmp_ports: Vec::new(),
            cookie: 0,
            idle_timeout: SimDuration::ZERO,
            hard_timeout: SimDuration::ZERO,
            installed: SimTime::ZERO,
            last_hit: SimTime::ZERO,
            byte_count: 0,
            packet_count: 0,
        }
    }

    /// Resolves this entry's forwarding decision for `tuple`. Only the
    /// first action is consulted: Horse's pipeline is single-action.
    pub fn decide(&self, tuple: &FiveTuple, hasher: &EcmpHasher) -> Action {
        match self.actions.first() {
            Some(Action::EcmpHash) if !self.ecmp_ports.is_empty() => {
                let idx = hasher.select(tuple, self.ecmp_ports.len());
                Action::Output(self.ecmp_ports[idx])
            }
            Some(Action::EcmpHash) | None => Action::Drop,
            Some(other) => *other,
        }
    }
}

/// The wildcard mask of a [`Match`]: which fields it constrains, and under
/// which prefix lengths. Entries of one shape can be found by hashing the
/// lookup key projected onto the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    in_port: bool,
    dl_src: bool,
    dl_dst: bool,
    dl_type: bool,
    nw_proto: bool,
    nw_src: Option<u8>,
    nw_dst: Option<u8>,
    tp_src: bool,
    tp_dst: bool,
}

impl Shape {
    fn of(m: &Match) -> Shape {
        Shape {
            in_port: m.in_port.is_some(),
            dl_src: m.dl_src.is_some(),
            dl_dst: m.dl_dst.is_some(),
            dl_type: m.dl_type.is_some(),
            nw_proto: m.nw_proto.is_some(),
            nw_src: m.nw_src.map(|p| p.len()),
            nw_dst: m.nw_dst.map(|p| p.len()),
            tp_src: m.tp_src.is_some(),
            tp_dst: m.tp_dst.is_some(),
        }
    }

    /// The one match of this shape that covers `key`: an entry of this
    /// shape matches `key` exactly when its match equals the projection.
    /// `None` when the shape constrains the arrival port and the key has
    /// none — such a key is covered by no entry of the shape.
    fn project(&self, key: &FlowKey) -> Option<Match> {
        Some(Match {
            in_port: if self.in_port {
                Some(key.in_port?)
            } else {
                None
            },
            dl_src: self.dl_src.then_some(key.dl_src),
            dl_dst: self.dl_dst.then_some(key.dl_dst),
            dl_type: self.dl_type.then_some(key.dl_type),
            nw_proto: self.nw_proto.then(|| key.tuple.proto.number()),
            nw_src: self
                .nw_src
                .map(|len| Ipv4Prefix::new(key.tuple.src_ip, len)),
            nw_dst: self
                .nw_dst
                .map(|len| Ipv4Prefix::new(key.tuple.dst_ip, len)),
            tp_src: self.tp_src.then_some(key.tuple.src_port),
            tp_dst: self.tp_dst.then_some(key.tuple.dst_port),
        })
    }
}

/// Bits of a rank holding the install sequence number.
const SEQ_BITS: u32 = 48;

/// An entry's place in the table as one word, ascending in table order:
/// inverted priority in the top 16 bits (highest priority first), install
/// sequence number below (earliest installed first).
fn rank_of(priority: u16, seq: u64) -> u64 {
    debug_assert!(seq < 1 << SEQ_BITS, "install sequence overflows the rank");
    (u64::from(u16::MAX - priority) << SEQ_BITS) | seq
}

fn priority_of(rank: u64) -> u16 {
    u16::MAX - (rank >> SEQ_BITS) as u16
}

/// Counts one more entry of `shape`.
fn count_shape(shapes: &mut Vec<(Shape, usize)>, shape: Shape) {
    match shapes.iter_mut().find(|(s, _)| *s == shape) {
        Some((_, count)) => *count += 1,
        None => shapes.push((shape, 1)),
    }
}

fn is_timed(e: &FlowEntry) -> bool {
    !e.idle_timeout.is_zero() || !e.hard_timeout.is_zero()
}

/// A priority-ordered flow table with a tuple-space index: per-key
/// operations cost one hash probe per distinct match *shape* in the table,
/// not one comparison per entry.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Highest priority first, then earliest installed.
    entries: Vec<FlowEntry>,
    /// `ranks[i]` is the rank of `entries[i]`; strictly ascending, so a
    /// rank's position is a binary search away.
    ranks: Vec<u64>,
    next_seq: u64,
    /// `fast_hash(match)` → the lowest rank among the entries whose match
    /// hashes there. The match itself is not stored: a probe compares
    /// against the entry the rank leads to.
    heads: FastMap<u64, u64>,
    /// The other ranks behind a hash, ascending — the same match at
    /// further priorities (Hedera's 200 over ECMP's 100), or a genuine
    /// 64-bit collision. Empty for most tables.
    chained: FastMap<u64, Vec<u64>>,
    /// The shapes present, each with its entry count.
    shapes: Vec<(Shape, usize)>,
    /// Entries carrying an idle or hard timeout.
    timed: usize,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ranks whose match hashes to `hash`, ascending.
    fn class(&self, hash: u64) -> impl Iterator<Item = u64> + '_ {
        let head = self.heads.get(&hash).copied();
        let rest = match head {
            Some(_) if !self.chained.is_empty() => self.chained.get(&hash),
            _ => None,
        };
        head.into_iter().chain(rest.into_iter().flatten().copied())
    }

    fn pos_of(&self, rank: u64) -> usize {
        self.ranks
            .binary_search(&rank)
            .expect("an indexed rank is in the table")
    }

    /// Position of the entry with exactly this match (hashing to `hash`)
    /// and priority.
    fn find_exact(&self, hash: u64, matcher: &Match, priority: u16) -> Option<usize> {
        self.class(hash)
            .filter(|rank| priority_of(*rank) == priority)
            .map(|rank| self.pos_of(rank))
            .find(|pos| &self.entries[*pos].matcher == matcher)
    }

    /// Position of the first entry in table order covering `key`.
    fn find(&self, key: &FlowKey) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (shape, _) in &self.shapes {
            let Some(m) = shape.project(key) else {
                continue;
            };
            // Ascending ranks: the first equal match is this shape's best.
            let hit = self
                .class(fast_hash(&m))
                .map(|rank| (rank, self.pos_of(rank)))
                .find(|(_, pos)| self.entries[*pos].matcher == m);
            if let Some(hit) = hit {
                if best.is_none_or(|b| hit.0 < b.0) {
                    best = Some(hit);
                }
            }
        }
        best.map(|(_, pos)| pos)
    }

    fn index(&mut self, hash: u64, e: &FlowEntry, rank: u64) {
        match self.heads.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(rank);
            }
            Entry::Occupied(mut head) => {
                let behind = rank.max(*head.get());
                *head.get_mut() = rank.min(*head.get());
                let chain = self.chained.entry(hash).or_default();
                let at = chain.partition_point(|r| *r < behind);
                chain.insert(at, behind);
            }
        }
        count_shape(&mut self.shapes, Shape::of(&e.matcher));
        self.timed += usize::from(is_timed(e));
    }

    fn unindex(&mut self, hash: u64, e: &FlowEntry, rank: u64) {
        match self.chained.get_mut(&hash) {
            None => {
                let head = self.heads.remove(&hash);
                debug_assert_eq!(head, Some(rank), "an unchained rank is the head");
            }
            Some(chain) => {
                let head = self.heads.get_mut(&hash).expect("a chain hangs off a head");
                if *head == rank {
                    *head = chain.remove(0);
                } else {
                    let at = chain.binary_search(&rank).expect("rank is in its chain");
                    chain.remove(at);
                }
                if chain.is_empty() {
                    self.chained.remove(&hash);
                }
            }
        }
        let shape = Shape::of(&e.matcher);
        let at = self
            .shapes
            .iter()
            .position(|(s, _)| *s == shape)
            .expect("an entry's shape is registered");
        self.shapes[at].1 -= 1;
        if self.shapes[at].1 == 0 {
            self.shapes.swap_remove(at);
        }
        self.timed -= usize::from(is_timed(e));
    }

    /// Removes every entry `gone` selects, in one pass, returning them in
    /// table order.
    fn remove_where(&mut self, mut gone: impl FnMut(&FlowEntry) -> bool) -> Vec<FlowEntry> {
        // Stable in-place compaction of the survivors; the removed entries
        // collect behind them in scrambled order.
        let mut kept = 0;
        for i in 0..self.entries.len() {
            if !gone(&self.entries[i]) {
                self.entries.swap(kept, i);
                self.ranks.swap(kept, i);
                kept += 1;
            }
        }
        let mut removed: Vec<(u64, FlowEntry)> = self
            .ranks
            .split_off(kept)
            .into_iter()
            .zip(self.entries.split_off(kept))
            .collect();
        removed.sort_unstable_by_key(|(rank, _)| *rank);
        for (rank, e) in &removed {
            self.unindex(fast_hash(&e.matcher), e, *rank);
        }
        removed.into_iter().map(|(_, e)| e).collect()
    }

    /// Installs an entry at `now`. OF `ADD` semantics: an existing entry
    /// with identical match and priority is replaced (counters reset, its
    /// place among equal priorities kept).
    pub fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.installed = now;
        entry.last_hit = now;
        let hash = fast_hash(&entry.matcher);
        if let Some(pos) = self.find_exact(hash, &entry.matcher, entry.priority) {
            self.timed -= usize::from(is_timed(&self.entries[pos]));
            self.timed += usize::from(is_timed(&entry));
            self.entries[pos] = entry;
            return;
        }
        let rank = rank_of(entry.priority, self.next_seq);
        self.next_seq += 1;
        // Keep sorted: priority desc, then installation order.
        let pos = self.ranks.partition_point(|r| *r < rank);
        self.index(hash, &entry, rank);
        self.ranks.insert(pos, rank);
        self.entries.insert(pos, entry);
    }

    /// Strict delete: removes the entry with this exact match and priority.
    pub fn delete_strict(&mut self, matcher: &Match, priority: u16) -> Option<FlowEntry> {
        let hash = fast_hash(matcher);
        let pos = self.find_exact(hash, matcher, priority)?;
        let entry = self.entries.remove(pos);
        let rank = self.ranks.remove(pos);
        self.unindex(hash, &entry, rank);
        Some(entry)
    }

    /// Non-strict delete: removes every entry whose match equals `matcher`
    /// regardless of priority. Returns how many were removed.
    pub fn delete_matching(&mut self, matcher: &Match) -> usize {
        self.remove_where(|e| &e.matcher == matcher).len()
    }

    /// Looks up the highest-priority entry covering `key`.
    pub fn lookup(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.find(key).map(|pos| &self.entries[pos])
    }

    /// Refreshes the idle timer of the entry `key` hits: traffic was seen
    /// at `now`. Returns true when that entry can idle out, i.e. when its
    /// expiry deadline moved; entries without an idle timeout (and misses)
    /// are left alone.
    pub fn touch(&mut self, key: &FlowKey, now: SimTime) -> bool {
        if self.timed == 0 {
            return false;
        }
        match self.find(key).map(|pos| &mut self.entries[pos]) {
            Some(e) if !e.idle_timeout.is_zero() => {
                e.last_hit = now;
                true
            }
            _ => false,
        }
    }

    /// Accounts `bytes` of traffic matching `key` at `now`.
    pub fn account(&mut self, key: &FlowKey, bytes: u64, now: SimTime) {
        if let Some(pos) = self.find(key) {
            let e = &mut self.entries[pos];
            e.byte_count += bytes;
            e.packet_count += 1;
            e.last_hit = now;
        }
    }

    /// True when some entry carries an idle or hard timeout. A table
    /// without one never expires anything and has no idle timer to
    /// refresh.
    pub fn has_timed_entries(&self) -> bool {
        self.timed > 0
    }

    /// Removes entries whose idle or hard timeout has expired at `now`,
    /// returning them (they become `FLOW_REMOVED` messages upstream).
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowEntry> {
        if self.timed == 0 {
            return Vec::new();
        }
        self.remove_where(|e| {
            let hard =
                !e.hard_timeout.is_zero() && now.duration_since(e.installed) >= e.hard_timeout;
            let idle =
                !e.idle_timeout.is_zero() && now.duration_since(e.last_hit) >= e.idle_timeout;
            hard || idle
        })
    }

    /// The earliest instant any entry can expire: the min over entries of
    /// `installed + hard_timeout` and `last_hit + idle_timeout` (zero
    /// timeouts never expire). `None` when no entry carries a timeout.
    /// An expiry *index* over tables built on this makes timeout sweeps
    /// event-driven: a sweep is only needed when this deadline is reached,
    /// not every engine step.
    pub fn next_expiry(&self) -> Option<SimTime> {
        if self.timed == 0 {
            return None;
        }
        self.entries
            .iter()
            .filter_map(|e| {
                let hard = (!e.hard_timeout.is_zero()).then(|| e.installed + e.hard_timeout);
                let idle = (!e.idle_timeout.is_zero()).then(|| e.last_hit + e.idle_timeout);
                match (hard, idle) {
                    (Some(h), Some(i)) => Some(h.min(i)),
                    (h, i) => h.or(i),
                }
            })
            .min()
    }

    /// All entries, highest priority first.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        *self = FlowTable::default();
    }

    /// Checks that the index describes the entries: ranks sorted and
    /// carrying each entry's priority, every entry reachable through its
    /// match's hash, chains ascending behind their head, shape and timeout
    /// counts exact. Debug builds only (a no-op in release); tests call it
    /// after every mutation.
    pub fn check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert_eq!(self.entries.len(), self.ranks.len());
        assert!(self.ranks.windows(2).all(|w| w[0] < w[1]), "ranks ascend");
        let mut shapes: Vec<(Shape, usize)> = Vec::new();
        for (e, rank) in self.entries.iter().zip(&self.ranks) {
            assert_eq!(priority_of(*rank), e.priority);
            assert!(
                self.class(fast_hash(&e.matcher)).any(|r| r == *rank),
                "entry missing from the index: {e:?}"
            );
            count_shape(&mut shapes, Shape::of(&e.matcher));
        }
        let indexed = self.heads.len() + self.chained.values().map(Vec::len).sum::<usize>();
        assert_eq!(indexed, self.entries.len(), "no stale rank in the index");
        for (hash, chain) in &self.chained {
            let head = self.heads.get(hash).expect("a chain hangs off a head");
            assert!(!chain.is_empty() && head < &chain[0]);
            assert!(chain.windows(2).all(|w| w[0] < w[1]), "chains ascend");
        }
        assert_eq!(self.shapes.len(), shapes.len());
        for entry in &shapes {
            assert!(self.shapes.contains(entry), "shape count off: {entry:?}");
        }
        assert_eq!(
            self.timed,
            self.entries.iter().filter(|e| is_timed(e)).count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashMode;
    use std::net::Ipv4Addr;

    fn tuple() -> FiveTuple {
        FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            Ipv4Addr::new(10, 0, 1, 1),
            80,
        )
    }

    fn key() -> FlowKey {
        FlowKey::ipv4(Some(PortId(1)), tuple())
    }

    #[test]
    fn exact_match_hits_and_misses() {
        let m = Match::exact(tuple());
        assert!(m.matches(&key()));
        let mut other = tuple();
        other.src_port = 5001;
        assert!(!m.matches(&FlowKey::ipv4(Some(PortId(1)), other)));
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(Match::any().matches(&key()));
    }

    #[test]
    fn prefix_match_on_dst() {
        let m = Match::dst_prefix("10.0.1.0/24".parse().unwrap());
        assert!(m.matches(&key()));
        let mut other = tuple();
        other.dst_ip = Ipv4Addr::new(10, 0, 2, 1);
        assert!(!m.matches(&FlowKey::ipv4(None, other)));
    }

    #[test]
    fn in_port_match() {
        let m = Match {
            in_port: Some(PortId(1)),
            ..Match::default()
        };
        assert!(m.matches(&key()));
        assert!(!m.matches(&FlowKey::ipv4(Some(PortId(2)), tuple())));
        assert!(!m.matches(&FlowKey::ipv4(None, tuple())));
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.add(
            FlowEntry::new(Match::any(), 1, vec![Action::Drop]),
            SimTime::ZERO,
        );
        t.add(
            FlowEntry::new(Match::exact(tuple()), 100, vec![Action::Output(PortId(3))]),
            SimTime::ZERO,
        );
        let e = t.lookup(&key()).unwrap();
        assert_eq!(e.actions[0], Action::Output(PortId(3)));
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new();
        let m1 = Match {
            tp_dst: Some(80),
            ..Match::default()
        };
        let m2 = Match {
            tp_src: Some(5000),
            ..Match::default()
        };
        t.add(
            FlowEntry::new(m1, 10, vec![Action::Output(PortId(1))]),
            SimTime::ZERO,
        );
        t.add(
            FlowEntry::new(m2, 10, vec![Action::Output(PortId(2))]),
            SimTime::ZERO,
        );
        let e = t.lookup(&key()).unwrap();
        assert_eq!(e.actions[0], Action::Output(PortId(1)));
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        let m = Match::exact(tuple());
        t.add(
            FlowEntry::new(m, 5, vec![Action::Output(PortId(1))]),
            SimTime::ZERO,
        );
        t.add(
            FlowEntry::new(m, 5, vec![Action::Output(PortId(2))]),
            SimTime::ZERO,
        );
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&key()).unwrap().actions[0],
            Action::Output(PortId(2))
        );
    }

    #[test]
    fn replacing_keeps_the_place_among_equal_priorities() {
        let mut t = FlowTable::new();
        let first = Match {
            tp_dst: Some(80),
            ..Match::default()
        };
        let second = Match {
            tp_src: Some(5000),
            ..Match::default()
        };
        let mut timed = FlowEntry::new(first, 10, vec![Action::Output(PortId(1))]);
        timed.idle_timeout = SimDuration::from_secs(5);
        t.add(timed, SimTime::ZERO);
        t.add(
            FlowEntry::new(second, 10, vec![Action::Output(PortId(2))]),
            SimTime::ZERO,
        );
        t.account(&key(), 1_000, SimTime::from_secs(1));
        // Re-adding the first entry resets its counters and timeout but
        // not its install order: it still beats the second one.
        t.add(
            FlowEntry::new(first, 10, vec![Action::Output(PortId(3))]),
            SimTime::from_secs(2),
        );
        t.check_invariants();
        assert_eq!(t.len(), 2);
        let e = t.lookup(&key()).unwrap();
        assert_eq!(e.actions[0], Action::Output(PortId(3)));
        assert_eq!((e.byte_count, e.packet_count), (0, 0));
        assert_eq!(e.installed, SimTime::from_secs(2));
        assert!(!t.has_timed_entries());
        assert_eq!(t.next_expiry(), None);
    }

    #[test]
    fn in_port_entries_never_cover_a_portless_key() {
        let mut t = FlowTable::new();
        let m = Match {
            in_port: Some(PortId(1)),
            ..Match::exact(tuple())
        };
        t.add(FlowEntry::new(m, 5, vec![Action::Drop]), SimTime::ZERO);
        assert!(t.lookup(&key()).is_some());
        assert!(t.lookup(&FlowKey::ipv4(Some(PortId(2)), tuple())).is_none());
        assert!(t.lookup(&FlowKey::ipv4(None, tuple())).is_none());
    }

    #[test]
    fn touch_refreshes_only_entries_that_can_idle_out() {
        let mut t = FlowTable::new();
        let mut idle = FlowEntry::new(Match::exact(tuple()), 5, vec![Action::Drop]);
        idle.idle_timeout = SimDuration::from_secs(5);
        t.add(idle, SimTime::ZERO);
        assert!(t.touch(&key(), SimTime::from_secs(3)));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(8)));
        // A permanent entry above it takes the hit and has no timer.
        t.add(
            FlowEntry::new(Match::exact(tuple()), 9, vec![Action::Drop]),
            SimTime::from_secs(3),
        );
        assert!(!t.touch(&key(), SimTime::from_secs(4)));
        assert_eq!(t.entries()[0].last_hit, SimTime::from_secs(3));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(8)));
        t.check_invariants();
    }

    #[test]
    fn strict_and_nonstrict_delete() {
        let mut t = FlowTable::new();
        let m = Match::exact(tuple());
        t.add(FlowEntry::new(m, 5, vec![Action::Drop]), SimTime::ZERO);
        t.add(FlowEntry::new(m, 9, vec![Action::Drop]), SimTime::ZERO);
        assert!(t.delete_strict(&m, 5).is_some());
        t.check_invariants();
        assert_eq!(t.len(), 1);
        assert_eq!(t.delete_matching(&m), 1);
        t.check_invariants();
        assert!(t.is_empty());
    }

    #[test]
    fn miss_returns_none() {
        let t = FlowTable::new();
        assert!(t.lookup(&key()).is_none());
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::any(), 1, vec![Action::Drop]);
        e.hard_timeout = SimDuration::from_secs(5);
        t.add(e, SimTime::ZERO);
        assert!(t.expire(SimTime::from_secs(4)).is_empty());
        let gone = t.expire(SimTime::from_secs(5));
        assert_eq!(gone.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_refreshed_by_traffic() {
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::any(), 1, vec![Action::Drop]);
        e.idle_timeout = SimDuration::from_secs(5);
        t.add(e, SimTime::ZERO);
        t.account(&key(), 1000, SimTime::from_secs(4));
        assert!(
            t.expire(SimTime::from_secs(8)).is_empty(),
            "hit at t=4 keeps it"
        );
        let gone = t.expire(SimTime::from_secs(9));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].byte_count, 1000);
    }

    #[test]
    fn next_expiry_tracks_min_over_timeouts() {
        let mut t = FlowTable::new();
        assert_eq!(t.next_expiry(), None);
        let mut permanent = FlowEntry::new(Match::any(), 1, vec![Action::Drop]);
        permanent.priority = 1;
        t.add(permanent, SimTime::ZERO);
        assert_eq!(t.next_expiry(), None, "zero timeouts never expire");
        let mut idle = FlowEntry::new(Match::exact(tuple()), 2, vec![Action::Drop]);
        idle.idle_timeout = SimDuration::from_secs(5);
        t.add(idle, SimTime::from_secs(1));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(6)));
        let hard = Match {
            tp_dst: Some(99),
            ..Match::default()
        };
        let mut hard_e = FlowEntry::new(hard, 3, vec![Action::Drop]);
        hard_e.hard_timeout = SimDuration::from_secs(3);
        t.add(hard_e, SimTime::from_secs(1));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(4)));
        // A hit pushes the idle deadline out but not the hard one.
        t.account(&key(), 10, SimTime::from_secs(3));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(4)));
        let gone = t.expire(SimTime::from_secs(4));
        assert_eq!(gone.len(), 1);
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(8)));
    }

    #[test]
    fn ecmp_action_resolves_to_port() {
        let hasher = EcmpHasher::new(HashMode::FiveTuple, 3);
        let mut e = FlowEntry::new(Match::any(), 1, vec![Action::EcmpHash]);
        e.ecmp_ports = vec![PortId(1), PortId(2), PortId(3)];
        match e.decide(&tuple(), &hasher) {
            Action::Output(p) => assert!(e.ecmp_ports.contains(&p)),
            other => panic!("expected Output, got {other:?}"),
        }
        // Same tuple, same choice.
        assert_eq!(e.decide(&tuple(), &hasher), e.decide(&tuple(), &hasher));
    }

    #[test]
    fn ecmp_with_no_ports_drops() {
        let hasher = EcmpHasher::new(HashMode::FiveTuple, 3);
        let e = FlowEntry::new(Match::any(), 1, vec![Action::EcmpHash]);
        assert_eq!(e.decide(&tuple(), &hasher), Action::Drop);
    }

    #[test]
    fn empty_actions_drop() {
        let hasher = EcmpHasher::new(HashMode::FiveTuple, 3);
        let e = FlowEntry::new(Match::any(), 1, vec![]);
        assert_eq!(e.decide(&tuple(), &hasher), Action::Drop);
    }
}
