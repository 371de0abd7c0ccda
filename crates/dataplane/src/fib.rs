//! A longest-prefix-match forwarding table with ECMP next-hop sets: one hash
//! map of routes, probed one prefix length at a time, over a table of
//! interned entries.
//!
//! * **Routes** live in one [`FastMap`] keyed by `(network, length)` as two
//!   4-byte words — a 12-byte bucket with its entry id — and hashed as one
//!   word, length above network, so installing, replacing and removing a
//!   route is one probe whatever the prefix length. A count of routes per
//!   length (and the bit mask of the lengths in use) lets [`Fib::lookup`]
//!   probe only lengths that hold a route, longest first: a lookup costs
//!   at most one probe per *distinct* length present — never more than 33,
//!   two or three in the tables these experiments build — instead of a
//!   pointer walk per address bit.
//! * **Entries** are interned per FIB: routes hold an [`EntryId`], equal
//!   `(origin, next hops)` are stored once, and "did this install change
//!   the table" is an id comparison. Entries are reference-counted by the
//!   routes (and the callers) holding them and freed at zero, so a table
//!   that flaps between hop sets forever stays as small as its live routes.
//!
//! Nothing about the map's iteration order leaks: [`Fib::iter`] sorts, and
//! [`Fib::flush_origin`] only counts.

use horse_net::addr::Ipv4Prefix;
use horse_net::intern::FastMap;
use horse_net::topology::PortId;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Where a route came from — used to prefer more specific sources when the
/// control plane rewrites state, and for debugging dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteOrigin {
    /// Directly connected subnet.
    Connected,
    /// Installed statically by the experiment script.
    Static,
    /// Learned from the emulated BGP daemon.
    Bgp,
}

/// One ECMP next hop: the local output port (and, for debugging, the
/// gateway address it corresponds to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NextHop {
    /// Output port on this node.
    pub port: PortId,
    /// The neighbor address this hop points at (informational).
    pub gateway: Ipv4Addr,
}

/// A routing entry: one or more equal-cost next hops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteEntry {
    /// Equal-cost next hops, in deterministic (sorted) order.
    pub next_hops: Vec<NextHop>,
    /// Provenance.
    pub origin: RouteOrigin,
}

impl RouteEntry {
    /// Builds an entry, sorting hops for determinism and dropping duplicates.
    pub fn new(mut next_hops: Vec<NextHop>, origin: RouteOrigin) -> RouteEntry {
        next_hops.sort();
        next_hops.dedup();
        RouteEntry { next_hops, origin }
    }
}

/// Handle of an entry interned in one [`Fib`]. Two handles from the same
/// FIB are equal exactly when their entries are; a handle means nothing to
/// another FIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryId(u32);

/// One row of the entry table. A freed row (`refs == 0`, listed in
/// `Fib::free`) keeps its last entry until the row is reused.
#[derive(Debug, Clone)]
struct Slot {
    entry: Arc<RouteEntry>,
    /// Routes pointing here plus handles held by callers.
    refs: u32,
}

/// The route-map key: a prefix as two 4-byte words, so a `(key, EntryId)`
/// bucket is 12 bytes where a `u64` key would pad it to 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteKey {
    network: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<(RouteKey, EntryId)>() == 12);

impl std::hash::Hash for RouteKey {
    /// One word, prefix length above the network address: a probe hashes
    /// one `u64`, not two `u32`s.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.len) << 32 | u64::from(self.network));
    }
}

impl RouteKey {
    fn new(len: u8, network: u32) -> RouteKey {
        RouteKey {
            network,
            len: u32::from(len),
        }
    }

    fn of(prefix: Ipv4Prefix) -> RouteKey {
        RouteKey::new(prefix.len(), u32::from(prefix.network()))
    }

    fn prefix(self) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from(self.network), self.len as u8)
    }
}

/// A longest-prefix-match FIB.
#[derive(Debug, Clone)]
pub struct Fib {
    routes: FastMap<RouteKey, EntryId>,
    /// Routes installed per prefix length.
    len_counts: [u32; 33],
    /// Bit `len` is set exactly when `len_counts[len] > 0`.
    len_mask: u64,
    slots: Vec<Slot>,
    /// Rows of `slots` free for reuse.
    free: Vec<u32>,
    /// Live entry → its row.
    ids: FastMap<Arc<RouteEntry>, EntryId>,
}

impl Default for Fib {
    fn default() -> Self {
        Self::new()
    }
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Fib {
        Fib {
            routes: FastMap::default(),
            len_counts: [0; 33],
            len_mask: 0,
            slots: Vec::new(),
            free: Vec::new(),
            ids: FastMap::default(),
        }
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Makes room for at least `additional` more routes, so installing them
    /// never grows the route table.
    pub fn reserve(&mut self, additional: usize) {
        self.routes.reserve(additional);
    }

    /// Number of distinct entries currently interned.
    pub fn interned_entries(&self) -> usize {
        self.ids.len()
    }

    /// Interns `entry`, handing the caller one reference to it — to be
    /// given back with [`Fib::release`]. Equal entries get equal handles;
    /// only a new one is copied.
    pub fn intern(&mut self, entry: &RouteEntry) -> EntryId {
        self.intern_cow(Cow::Borrowed(entry))
    }

    fn intern_cow(&mut self, entry: Cow<'_, RouteEntry>) -> EntryId {
        if let Some(&id) = self.ids.get(entry.as_ref()) {
            self.slots[id.0 as usize].refs += 1;
            return id;
        }
        let slot = Slot {
            entry: Arc::new(entry.into_owned()),
            refs: 1,
        };
        let key = Arc::clone(&slot.entry);
        let id = match self.free.pop() {
            Some(row) => {
                self.slots[row as usize] = slot;
                EntryId(row)
            }
            None => {
                self.slots.push(slot);
                EntryId((self.slots.len() - 1) as u32)
            }
        };
        self.ids.insert(key, id);
        id
    }

    /// Gives back one reference to `id`; the last one frees the entry.
    pub fn release(&mut self, id: EntryId) {
        let slot = &mut self.slots[id.0 as usize];
        debug_assert!(slot.refs > 0, "released a freed entry");
        slot.refs -= 1;
        if slot.refs == 0 {
            self.ids.remove(&*slot.entry);
            self.free.push(id.0);
        }
    }

    /// Gives back one reference to `id` in exchange for the entry itself.
    fn redeem(&mut self, id: EntryId) -> Arc<RouteEntry> {
        let entry = Arc::clone(&self.slots[id.0 as usize].entry);
        self.release(id);
        entry
    }

    /// Points `prefix` at `id` (the route takes a reference of its own) and
    /// returns the entry it pointed at before, whose reference passes to
    /// the caller.
    fn point(&mut self, prefix: Ipv4Prefix, id: EntryId) -> Option<EntryId> {
        self.slots[id.0 as usize].refs += 1;
        match self.routes.entry(RouteKey::of(prefix)) {
            Entry::Occupied(mut route) => Some(route.insert(id)),
            Entry::Vacant(route) => {
                route.insert(id);
                let len = usize::from(prefix.len());
                self.len_counts[len] += 1;
                self.len_mask |= 1 << len;
                None
            }
        }
    }

    /// Installs (or replaces) the route for `prefix` with an entry of this
    /// FIB's [`Fib::intern`]. Returns true if the FIB changed — the prefix
    /// was absent or held a different entry.
    pub fn install(&mut self, prefix: Ipv4Prefix, id: EntryId) -> bool {
        match self.point(prefix, id) {
            Some(old) => {
                self.release(old);
                old != id
            }
            None => true,
        }
    }

    /// Inserts (or replaces) the route for `prefix`. Returns the previous
    /// entry if one existed.
    pub fn insert(&mut self, prefix: Ipv4Prefix, entry: RouteEntry) -> Option<Arc<RouteEntry>> {
        let id = self.intern_cow(Cow::Owned(entry));
        let old = self.point(prefix, id);
        self.release(id);
        old.map(|old| self.redeem(old))
    }

    /// Removes the route for `prefix`, returning its entry if present.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<Arc<RouteEntry>> {
        let id = self.routes.remove(&RouteKey::of(prefix))?;
        let len = usize::from(prefix.len());
        self.len_counts[len] -= 1;
        if self.len_counts[len] == 0 {
            self.len_mask &= !(1 << len);
        }
        Some(self.redeem(id))
    }

    /// The exact-match entry for `prefix`, if installed.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&RouteEntry> {
        let id = self.routes.get(&RouteKey::of(prefix))?;
        Some(&self.slots[id.0 as usize].entry)
    }

    /// Longest-prefix-match lookup: the most specific entry covering `dst`.
    /// Probes the prefix lengths that hold a route, longest first.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<(Ipv4Prefix, &RouteEntry)> {
        let bits = u32::from(dst);
        let mut lens = self.len_mask;
        while lens != 0 {
            let len = (63 - lens.leading_zeros()) as u8;
            lens &= !(1 << len);
            let key = RouteKey::new(len, bits & Ipv4Prefix::mask(len));
            if let Some(id) = self.routes.get(&key) {
                return Some((key.prefix(), &self.slots[id.0 as usize].entry));
            }
        }
        None
    }

    /// All installed `(prefix, entry)` pairs, ordered by network address,
    /// then by length (a prefix before the more specific ones it covers).
    pub fn iter(&self) -> Vec<(Ipv4Prefix, &RouteEntry)> {
        let mut out: Vec<(Ipv4Prefix, &RouteEntry)> = self
            .routes
            .iter()
            .map(|(key, id)| (key.prefix(), &*self.slots[id.0 as usize].entry))
            .collect();
        out.sort_unstable_by_key(|(prefix, _)| *prefix);
        out
    }

    /// Drops every route of a given origin (e.g. flush BGP routes on session
    /// reset), returning how many were removed.
    pub fn flush_origin(&mut self, origin: RouteOrigin) -> usize {
        let doomed: Vec<Ipv4Prefix> = self
            .routes
            .iter()
            .filter(|(_, id)| self.slots[id.0 as usize].entry.origin == origin)
            .map(|(key, _)| key.prefix())
            .collect();
        for prefix in &doomed {
            self.remove(*prefix);
        }
        doomed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(port: u16) -> NextHop {
        NextHop {
            port: PortId(port),
            gateway: Ipv4Addr::UNSPECIFIED,
        }
    }

    fn entry(ports: &[u16]) -> RouteEntry {
        RouteEntry::new(ports.iter().map(|p| hop(*p)).collect(), RouteOrigin::Static)
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.insert(p("10.0.0.0/8"), entry(&[1]));
        fib.insert(p("10.1.0.0/16"), entry(&[2]));
        fib.insert(p("10.1.2.0/24"), entry(&[3]));
        let (pre, e) = fib.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(pre, p("10.1.2.0/24"));
        assert_eq!(e.next_hops[0].port, PortId(3));
        let (pre, e) = fib.lookup(Ipv4Addr::new(10, 1, 9, 9)).unwrap();
        assert_eq!(pre, p("10.1.0.0/16"));
        assert_eq!(e.next_hops[0].port, PortId(2));
        let (pre, _) = fib.lookup(Ipv4Addr::new(10, 200, 0, 1)).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        assert!(fib.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn default_route_catches_all() {
        let mut fib = Fib::new();
        fib.insert(Ipv4Prefix::DEFAULT, entry(&[7]));
        let (pre, e) = fib.lookup(Ipv4Addr::new(203, 0, 113, 1)).unwrap();
        assert_eq!(pre, Ipv4Prefix::DEFAULT);
        assert_eq!(e.next_hops[0].port, PortId(7));
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut fib = Fib::new();
        assert!(fib.insert(p("10.0.0.0/24"), entry(&[1])).is_none());
        let old = fib.insert(p("10.0.0.0/24"), entry(&[2])).unwrap();
        assert_eq!(old.next_hops[0].port, PortId(1));
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut fib = Fib::new();
        fib.insert(p("10.0.0.0/8"), entry(&[1]));
        fib.insert(p("10.1.0.0/16"), entry(&[2]));
        assert!(fib.remove(p("10.1.0.0/16")).is_some());
        let (pre, _) = fib.lookup(Ipv4Addr::new(10, 1, 0, 1)).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
        assert!(fib.remove(p("10.1.0.0/16")).is_none(), "double remove");
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn ecmp_hops_sorted_and_deduped() {
        let e = RouteEntry::new(vec![hop(3), hop(1), hop(3), hop(2)], RouteOrigin::Bgp);
        let ports: Vec<u16> = e.next_hops.iter().map(|h| h.port.0).collect();
        assert_eq!(ports, vec![1, 2, 3]);
    }

    #[test]
    fn host_route_matches_single_address() {
        let mut fib = Fib::new();
        fib.insert(Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 5)), entry(&[9]));
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 0, 5)).is_some());
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 0, 6)).is_none());
    }

    #[test]
    fn iter_orders_by_network_then_length() {
        let mut fib = Fib::new();
        let installed = [
            "192.168.0.0/24",
            "10.1.0.0/16",
            "10.0.0.0/8",
            "0.0.0.0/0",
            "10.0.0.0/16",
            "10.0.0.0/32",
        ];
        for (i, s) in installed.iter().enumerate() {
            fib.insert(p(s), entry(&[i as u16]));
        }
        let got: Vec<String> = fib.iter().iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            got,
            [
                "0.0.0.0/0",
                "10.0.0.0/8",
                "10.0.0.0/16",
                "10.0.0.0/32",
                "10.1.0.0/16",
                "192.168.0.0/24",
            ]
        );
    }

    #[test]
    fn equal_entries_are_stored_once_and_compare_by_handle() {
        let mut fib = Fib::new();
        for i in 0..100u8 {
            fib.insert(
                Ipv4Prefix::new(Ipv4Addr::new(10, i, 0, 0), 16),
                entry(&[1, 2]),
            );
        }
        assert_eq!(fib.len(), 100);
        assert_eq!(fib.interned_entries(), 1);
        let same = fib.intern(&entry(&[2, 1, 2]));
        let other = fib.intern(&entry(&[3]));
        assert_ne!(same, other);
        assert!(!fib.install(p("10.7.0.0/16"), same), "already that entry");
        assert!(fib.install(p("10.7.0.0/16"), other));
        assert!(fib.install(p("10.200.0.0/16"), other), "new prefix");
        assert_eq!(fib.get(p("10.7.0.0/16")), Some(&entry(&[3])));
        assert_eq!(fib.len(), 101);
        fib.release(same);
        fib.release(other);
        assert_eq!(fib.interned_entries(), 2);
        // Same hops under another origin are another entry.
        fib.insert(
            p("10.8.0.0/16"),
            RouteEntry::new(vec![hop(1), hop(2)], RouteOrigin::Bgp),
        );
        assert_eq!(fib.interned_entries(), 3);
    }

    #[test]
    fn churn_between_two_hop_sets_does_not_grow_the_entry_table() {
        let mut fib = Fib::new();
        let prefix = p("10.0.0.0/24");
        for i in 0..10_000u32 {
            fib.insert(prefix, entry(if i % 2 == 0 { &[1] } else { &[2, 3] }));
            assert_eq!(fib.len(), 1);
        }
        assert!(fib.interned_entries() <= 2, "{}", fib.interned_entries());
        assert!(fib.slots.len() <= 2, "{} rows", fib.slots.len());
        assert_eq!(fib.get(prefix), Some(&entry(&[2, 3])));
        fib.remove(prefix);
        assert_eq!(fib.interned_entries(), 0);
        assert_eq!(fib.free.len(), fib.slots.len());
    }

    #[test]
    fn lookup_skips_lengths_that_emptied() {
        let mut fib = Fib::new();
        fib.insert(Ipv4Prefix::DEFAULT, entry(&[0]));
        fib.insert(p("10.1.2.0/24"), entry(&[24]));
        fib.insert(p("10.1.2.3/32"), entry(&[32]));
        let dst = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(fib.lookup(dst).unwrap().0, p("10.1.2.3/32"));
        fib.remove(p("10.1.2.3/32"));
        assert_eq!(fib.len_mask, 1 | 1 << 24);
        assert_eq!(fib.lookup(dst).unwrap().0, p("10.1.2.0/24"));
        fib.remove(p("10.1.2.0/24"));
        assert_eq!(fib.lookup(dst).unwrap().0, Ipv4Prefix::DEFAULT);
        fib.remove(Ipv4Prefix::DEFAULT);
        assert_eq!(fib.len_mask, 0);
        assert!(fib.lookup(dst).is_none());
    }

    #[test]
    fn flush_origin_removes_only_that_origin() {
        let mut fib = Fib::new();
        fib.insert(
            p("10.0.0.0/24"),
            RouteEntry::new(vec![hop(1)], RouteOrigin::Connected),
        );
        fib.insert(
            p("10.0.1.0/24"),
            RouteEntry::new(vec![hop(2)], RouteOrigin::Bgp),
        );
        fib.insert(
            p("10.0.2.0/24"),
            RouteEntry::new(vec![hop(3)], RouteOrigin::Bgp),
        );
        assert_eq!(fib.flush_origin(RouteOrigin::Bgp), 2);
        assert_eq!(fib.len(), 1);
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 0, 1)).is_some());
        assert!(fib.lookup(Ipv4Addr::new(10, 0, 1, 1)).is_none());
    }

    #[test]
    fn get_is_exact_not_lpm() {
        let mut fib = Fib::new();
        fib.insert(p("10.0.0.0/8"), entry(&[1]));
        assert!(fib.get(p("10.0.0.0/8")).is_some());
        assert!(fib.get(p("10.0.0.0/16")).is_none());
    }
}
