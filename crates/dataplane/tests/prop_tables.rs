//! Property tests: the LPM FIB and the OpenFlow table agree with naive
//! reference implementations under arbitrary operation sequences.

use horse_dataplane::fib::{Fib, NextHop, RouteEntry, RouteOrigin};
use horse_dataplane::flowtable::{Action, FlowEntry, FlowKey, FlowTable, Match};
use horse_net::addr::Ipv4Prefix;
use horse_net::flow::FiveTuple;
use horse_net::topology::PortId;
use horse_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A handful of addresses, so prefixes of every length collide, nest and
/// get replaced in place, and /32 host routes are actually looked up. One
/// address sits outside 10/8: only short prefixes and the default cover it.
fn addrs() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..3, 0u8..2, 0u8..2, 0u8..4).prop_map(|(a, b, c, d)| {
        if a == 2 {
            Ipv4Addr::new(172, 16 + b, c, d)
        } else {
            Ipv4Addr::new(10, a, b * 128 + c, d)
        }
    })
}

fn prefixes() -> impl Strategy<Value = Ipv4Prefix> {
    // Every length — the default route, short covering prefixes, /32s —
    // with half the draws on a few common ones, so that removes, gets and
    // replacements find the prefix they name.
    (addrs(), 0u8..=32, any::<bool>()).prop_map(|(addr, len, common)| {
        let len = if common {
            [0, 8, 16, 24, 30, 32][usize::from(len) % 6]
        } else {
            len
        };
        Ipv4Prefix::new(addr, len)
    })
}

/// Clustered in 10/8 (the fuzz test below).
fn prefixes_10() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..=0xffff, 8u8..=32)
        .prop_map(|(bits, len)| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 | bits), len))
}

const ORIGINS: [RouteOrigin; 3] = [
    RouteOrigin::Connected,
    RouteOrigin::Static,
    RouteOrigin::Bgp,
];

/// Hop sets in the pool: 16 single hops, then 80 two- and three-hop sets.
const HOP_SETS: u16 = 96;

#[derive(Debug, Clone)]
enum FibOp {
    /// Prefix, hop set of the pool, origin (index into [`ORIGINS`]).
    Insert(Ipv4Prefix, u16, usize),
    Remove(Ipv4Prefix),
    Get(Ipv4Prefix),
    Lookup(Ipv4Addr),
    Flush(usize),
}

fn fib_ops() -> impl Strategy<Value = Vec<FibOp>> {
    prop::collection::vec(
        prop_oneof![
            (prefixes(), 0..HOP_SETS, 0usize..3).prop_map(|(p, h, o)| FibOp::Insert(p, h, o)),
            (prefixes(), 0..HOP_SETS, 0usize..3).prop_map(|(p, h, o)| FibOp::Insert(p, h, o)),
            prefixes().prop_map(FibOp::Remove),
            prefixes().prop_map(FibOp::Get),
            addrs().prop_map(FibOp::Lookup),
            addrs().prop_map(FibOp::Lookup),
            (0usize..3).prop_map(FibOp::Flush),
        ],
        0..160,
    )
}

fn hop(port: u16) -> NextHop {
    NextHop {
        port: PortId(port),
        gateway: Ipv4Addr::new(172, 31, (port >> 8) as u8, port as u8),
    }
}

/// Entry `i` of the pool; all [`HOP_SETS`] are distinct. Hops are given out
/// of order: `RouteEntry::new` canonicalises.
fn pool_entry(i: u16, origin: RouteOrigin) -> RouteEntry {
    let hops = match i.checked_sub(16) {
        None => vec![hop(i)],
        Some(j) if j % 3 == 0 => vec![hop(100 + j), hop(8 + j / 8), hop(j % 8)],
        Some(j) => vec![hop(8 + j / 8), hop(j % 8)],
    };
    RouteEntry::new(hops, origin)
}

fn entry(port: u16) -> RouteEntry {
    RouteEntry::new(vec![hop(port)], RouteOrigin::Static)
}

#[test]
fn the_hop_set_pool_is_distinct() {
    let pool: std::collections::BTreeSet<Vec<NextHop>> = (0..HOP_SETS)
        .map(|i| pool_entry(i, RouteOrigin::Bgp).next_hops)
        .collect();
    assert!(pool.len() >= 64, "{} distinct hop sets", pool.len());
    assert_eq!(pool.len(), usize::from(HOP_SETS));
}

proptest! {
    /// The FIB behaves exactly like a Vec of (prefix → entry) scanned for
    /// the longest covering prefix: same answers from `insert`, `remove`,
    /// `get`, `lookup` and `flush_origin`, the same `len`, the same
    /// `iter()` listing in (network, length) order, and one interned entry
    /// per distinct entry installed.
    #[test]
    fn fib_matches_naive_model(ops in fib_ops()) {
        let mut fib = Fib::new();
        let mut model: Vec<(Ipv4Prefix, RouteEntry)> = Vec::new();
        for op in ops {
            match op {
                FibOp::Insert(p, hops, origin) => {
                    let e = pool_entry(hops, ORIGINS[origin]);
                    let got = fib.insert(p, e.clone());
                    let at = model.iter().position(|(mp, _)| *mp == p);
                    let want = at.map(|at| model.remove(at).1);
                    model.push((p, e));
                    prop_assert_eq!(got.as_deref(), want.as_ref());
                }
                FibOp::Remove(p) => {
                    let got = fib.remove(p);
                    let at = model.iter().position(|(mp, _)| *mp == p);
                    let want = at.map(|at| model.remove(at).1);
                    prop_assert_eq!(got.as_deref(), want.as_ref());
                }
                FibOp::Get(p) => {
                    let want = model.iter().find(|(mp, _)| *mp == p).map(|(_, e)| e);
                    prop_assert_eq!(fib.get(p), want);
                }
                FibOp::Lookup(dst) => {
                    let want = model
                        .iter()
                        .filter(|(p, _)| p.contains(dst))
                        .max_by_key(|(p, _)| p.len())
                        .map(|(p, e)| (*p, e));
                    prop_assert_eq!(fib.lookup(dst), want);
                }
                FibOp::Flush(origin) => {
                    let before = model.len();
                    model.retain(|(_, e)| e.origin != ORIGINS[origin]);
                    prop_assert_eq!(fib.flush_origin(ORIGINS[origin]), before - model.len());
                }
            }
            prop_assert_eq!(fib.len(), model.len());
            prop_assert_eq!(fib.is_empty(), model.is_empty());
            let mut listing: Vec<(Ipv4Prefix, &RouteEntry)> =
                model.iter().map(|(p, e)| (*p, e)).collect();
            listing.sort_by_key(|(p, _)| (u32::from(p.network()), p.len()));
            prop_assert_eq!(fib.iter(), listing);
            let mut distinct: Vec<&RouteEntry> = Vec::new();
            for (_, e) in &model {
                if !distinct.contains(&e) {
                    distinct.push(e);
                }
            }
            prop_assert_eq!(fib.interned_entries(), distinct.len());
        }
    }

    /// Fuzzing decode surfaces: random destination addresses against a
    /// random FIB never panic and always return covering prefixes.
    #[test]
    fn fib_lookup_result_covers(inserts in prop::collection::vec((prefixes_10(), 0u16..4), 1..40), probe in any::<u32>()) {
        let mut fib = Fib::new();
        for (p, port) in &inserts {
            fib.insert(*p, entry(*port));
        }
        let dst = Ipv4Addr::from(probe);
        if let Some((p, _)) = fib.lookup(dst) {
            prop_assert!(p.contains(dst), "{p} must cover {dst}");
        }
    }
}

fn tuples() -> impl Strategy<Value = FiveTuple> {
    // Few addresses, spread over several octets, so prefixes of every
    // length from /8 to /32 split them differently and matches overlap.
    (
        (0u8..2, 0u8..2, 1u8..3),
        (0u8..2, 0u8..2, 1u8..3),
        1000u16..1004,
        2000u16..2003,
    )
        .prop_map(|((sa, sb, sc), (da, db, dc), sp, dp)| {
            FiveTuple::udp(
                Ipv4Addr::new(10, sa, sb, sc),
                sp,
                Ipv4Addr::new(10, 2 + da, db, dc),
                dp,
            )
        })
}

fn matches() -> impl Strategy<Value = Match> {
    (tuples(), 0u8..8, 8u8..=32, 8u8..=32, 0u16..3).prop_map(|(t, kind, slen, dlen, port)| {
        match kind {
            0 => Match::exact(t),
            1 => Match::dst_prefix(Ipv4Prefix::new(t.dst_ip, dlen)),
            2 => Match {
                tp_dst: Some(t.dst_port),
                ..Match::default()
            },
            3 => Match {
                nw_src: Some(Ipv4Prefix::new(t.src_ip, slen)),
                nw_dst: Some(Ipv4Prefix::new(t.dst_ip, dlen)),
                ..Match::default()
            },
            4 => Match {
                nw_src: Some(Ipv4Prefix::new(t.src_ip, slen)),
                nw_proto: Some(t.proto.number()),
                ..Match::default()
            },
            5 => Match {
                in_port: Some(PortId(port)),
                ..Match::exact(t)
            },
            6 => Match {
                in_port: Some(PortId(port)),
                ..Match::default()
            },
            _ => Match::any(),
        }
    })
}

/// Lookup keys: any tuple on one of three ports, or with no arrival port
/// (what the CM's idle-timer credit presents).
fn keys() -> impl Strategy<Value = FlowKey> {
    (tuples(), 0u16..4).prop_map(|(t, port)| FlowKey::ipv4((port < 3).then_some(PortId(port)), t))
}

/// One step against the table. Every step first moves time forward.
#[derive(Debug, Clone)]
enum TableOp {
    Add {
        matcher: Match,
        priority: u16,
        idle_s: u64,
        hard_s: u64,
    },
    DeleteStrict(Match, u16),
    DeleteMatching(Match),
    Expire,
    Touch(FlowKey),
    Account(FlowKey),
}

fn table_ops() -> impl Strategy<Value = Vec<(u64, TableOp)>> {
    let op = prop_oneof![
        (matches(), 0u16..4, 0u64..4, 0u64..6).prop_map(|(matcher, priority, idle_s, hard_s)| {
            TableOp::Add {
                matcher,
                priority,
                // Half of the entries are permanent.
                idle_s: idle_s.saturating_sub(1),
                hard_s: hard_s.saturating_sub(3),
            }
        }),
        (matches(), 0u16..4).prop_map(|(m, p)| TableOp::DeleteStrict(m, p)),
        matches().prop_map(TableOp::DeleteMatching),
        Just(TableOp::Expire),
        keys().prop_map(TableOp::Touch),
        keys().prop_map(TableOp::Account),
    ];
    // Steps of 0–1.5 s against timeouts of 1–2 s.
    prop::collection::vec((0u64..4, op), 0..60)
}

/// The linear model: entries in install order, every query a scan.
#[derive(Debug, Clone, PartialEq)]
struct ModelEntry {
    matcher: Match,
    priority: u16,
    cookie: u64,
    idle: SimDuration,
    hard: SimDuration,
    installed: SimTime,
    last_hit: SimTime,
    bytes: u64,
}

#[derive(Debug, Default)]
struct Model {
    entries: Vec<ModelEntry>,
}

impl Model {
    fn add(&mut self, e: ModelEntry) {
        match self
            .entries
            .iter_mut()
            .find(|m| m.matcher == e.matcher && m.priority == e.priority)
        {
            // OF ADD over an identical entry: replaced where it stands.
            Some(slot) => *slot = e,
            None => self.entries.push(e),
        }
    }

    /// Table order: priority descending, install order within (the sort
    /// is stable).
    fn ordered(&self) -> Vec<&ModelEntry> {
        let mut v: Vec<&ModelEntry> = self.entries.iter().collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.priority));
        v
    }

    fn lookup(&self, key: &FlowKey) -> Option<u64> {
        self.ordered()
            .into_iter()
            .find(|e| e.matcher.matches(key))
            .map(|e| e.cookie)
    }

    fn hit(&mut self, key: &FlowKey) -> Option<&mut ModelEntry> {
        let cookie = self.lookup(key)?;
        self.entries.iter_mut().find(|e| e.cookie == cookie)
    }

    fn is_expired(e: &ModelEntry, now: SimTime) -> bool {
        (!e.hard.is_zero() && now.duration_since(e.installed) >= e.hard)
            || (!e.idle.is_zero() && now.duration_since(e.last_hit) >= e.idle)
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .flat_map(|e| {
                [
                    (!e.hard.is_zero()).then(|| e.installed + e.hard),
                    (!e.idle.is_zero()).then(|| e.last_hit + e.idle),
                ]
            })
            .flatten()
            .min()
    }
}

proptest! {
    /// The indexed flow table is indistinguishable from a linear scan:
    /// lookup returns the highest-priority earliest-installed covering
    /// entry, `entries()` keeps table order, and `next_expiry` / `expire`
    /// agree — under interleaved adds, both deletes, expiry sweeps and
    /// idle-timer touches while time advances.
    #[test]
    fn flow_table_matches_naive_model(
        entries in prop::collection::vec((matches(), 0u16..8), 0..30),
        ops in table_ops(),
        probes in prop::collection::vec(keys(), 1..20),
    ) {
        let mut table = FlowTable::new();
        let mut model = Model::default();
        let mut now = SimTime::ZERO;
        let mut cookie = 0u64;
        let initial = entries.into_iter().map(|(matcher, priority)| {
            (0, TableOp::Add { matcher, priority, idle_s: 0, hard_s: 0 })
        });
        for (step, op) in initial.chain(ops) {
            now += SimDuration::from_millis(500 * step);
            match op {
                TableOp::Add { matcher, priority, idle_s, hard_s } => {
                    cookie += 1;
                    let mut e = FlowEntry::new(matcher, priority, vec![Action::Output(PortId(1))]);
                    e.cookie = cookie;
                    e.idle_timeout = SimDuration::from_secs(idle_s);
                    e.hard_timeout = SimDuration::from_secs(hard_s);
                    table.add(e, now);
                    model.add(ModelEntry {
                        matcher,
                        priority,
                        cookie,
                        idle: SimDuration::from_secs(idle_s),
                        hard: SimDuration::from_secs(hard_s),
                        installed: now,
                        last_hit: now,
                        bytes: 0,
                    });
                }
                TableOp::DeleteStrict(m, p) => {
                    let got = table.delete_strict(&m, p).map(|e| e.cookie);
                    let at = model.entries.iter().position(|e| e.matcher == m && e.priority == p);
                    prop_assert_eq!(got, at.map(|at| model.entries.remove(at).cookie));
                }
                TableOp::DeleteMatching(m) => {
                    let before = model.entries.len();
                    model.entries.retain(|e| e.matcher != m);
                    prop_assert_eq!(table.delete_matching(&m), before - model.entries.len());
                }
                TableOp::Expire => {
                    let got: Vec<u64> = table.expire(now).iter().map(|e| e.cookie).collect();
                    let want: Vec<u64> = model
                        .ordered()
                        .into_iter()
                        .filter(|e| Model::is_expired(e, now))
                        .map(|e| e.cookie)
                        .collect();
                    model.entries.retain(|e| !Model::is_expired(e, now));
                    prop_assert_eq!(got, want);
                }
                TableOp::Touch(key) => {
                    let want = match model.hit(&key) {
                        Some(e) if !e.idle.is_zero() => {
                            e.last_hit = now;
                            true
                        }
                        _ => false,
                    };
                    prop_assert_eq!(table.touch(&key, now), want);
                }
                TableOp::Account(key) => {
                    table.account(&key, 100, now);
                    if let Some(e) = model.hit(&key) {
                        e.bytes += 100;
                        e.last_hit = now;
                    }
                }
            }
            table.check_invariants();
            let got: Vec<ModelEntry> = table
                .entries()
                .iter()
                .map(|e| ModelEntry {
                    matcher: e.matcher,
                    priority: e.priority,
                    cookie: e.cookie,
                    idle: e.idle_timeout,
                    hard: e.hard_timeout,
                    installed: e.installed,
                    last_hit: e.last_hit,
                    bytes: e.byte_count,
                })
                .collect();
            let want: Vec<ModelEntry> = model.ordered().into_iter().cloned().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(table.next_expiry(), model.next_expiry());
            prop_assert_eq!(table.has_timed_entries(), model.next_expiry().is_some());
        }
        for key in probes {
            let got = table.lookup(&key).map(|e| e.cookie);
            prop_assert_eq!(got, model.lookup(&key), "probe {:?}", key);
        }
    }
}
