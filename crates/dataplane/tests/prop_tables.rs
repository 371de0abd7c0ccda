//! Property tests: the LPM trie and the OpenFlow table agree with naive
//! reference implementations under arbitrary operation sequences.

use horse_dataplane::fib::{Fib, NextHop, RouteEntry, RouteOrigin};
use horse_dataplane::flowtable::{Action, FlowEntry, FlowKey, FlowTable, Match};
use horse_net::addr::Ipv4Prefix;
use horse_net::flow::FiveTuple;
use horse_net::topology::PortId;
use horse_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn prefixes() -> impl Strategy<Value = Ipv4Prefix> {
    // Cluster prefixes in 10/8 so inserts overlap heavily.
    (0u32..=0xffff, 8u8..=32)
        .prop_map(|(bits, len)| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 | bits), len))
}

#[derive(Debug, Clone)]
enum FibOp {
    Insert(Ipv4Prefix, u16),
    Remove(Ipv4Prefix),
    Lookup(u32),
}

fn fib_ops() -> impl Strategy<Value = Vec<FibOp>> {
    prop::collection::vec(
        prop_oneof![
            (prefixes(), 0u16..16).prop_map(|(p, port)| FibOp::Insert(p, port)),
            prefixes().prop_map(FibOp::Remove),
            (0u32..=0x1ffff).prop_map(FibOp::Lookup),
        ],
        0..120,
    )
}

fn entry(port: u16) -> RouteEntry {
    RouteEntry::new(
        vec![NextHop {
            port: PortId(port),
            gateway: Ipv4Addr::UNSPECIFIED,
        }],
        RouteOrigin::Static,
    )
}

proptest! {
    /// The trie behaves exactly like a Vec of (prefix → entry) with
    /// longest-prefix-wins lookup.
    #[test]
    fn fib_matches_naive_model(ops in fib_ops()) {
        let mut fib = Fib::new();
        let mut model: Vec<(Ipv4Prefix, u16)> = Vec::new();
        for op in ops {
            match op {
                FibOp::Insert(p, port) => {
                    fib.insert(p, entry(port));
                    model.retain(|(mp, _)| *mp != p);
                    model.push((p, port));
                }
                FibOp::Remove(p) => {
                    let trie = fib.remove(p).is_some();
                    let had = model.iter().any(|(mp, _)| *mp == p);
                    model.retain(|(mp, _)| *mp != p);
                    prop_assert_eq!(trie, had);
                }
                FibOp::Lookup(bits) => {
                    let dst = Ipv4Addr::from(0x0a00_0000 | bits);
                    let got = fib.lookup(dst).map(|(p, e)| (p, e.next_hops[0].port.0));
                    let want = model
                        .iter()
                        .filter(|(p, _)| p.contains(dst))
                        .max_by_key(|(p, _)| p.len())
                        .map(|(p, port)| (*p, *port));
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(fib.len(), model.len());
        }
    }

    /// Fuzzing decode surfaces: random destination addresses against a
    /// random FIB never panic and always return covering prefixes.
    #[test]
    fn fib_lookup_result_covers(inserts in prop::collection::vec((prefixes(), 0u16..4), 1..40), probe in any::<u32>()) {
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
            now = now + SimDuration::from_millis(500 * step);
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
