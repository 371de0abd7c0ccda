//! Property test on the speaker's UPDATE fan-out: whatever one speaker
//! with 1..=12 peers is put through, every UPDATE it emits must be byte
//! for byte the encoding of the `UpdateMsg` a per-peer export would have
//! built — transform, next-hop-self, grouping and the 4096-byte split
//! included — and every peer must end up told exactly what that export
//! says it should hold.
//!
//! The reference is test-local and deliberately per peer: it reads the
//! best path back from the speaker's RIB, applies split horizon, the
//! peer-AS loop check, the peer's export route-map and the eBGP transform
//! to a clone of the attributes, and encodes with `Message::encode`. It
//! shares nothing with the speaker's shared export blocks and patched
//! images.

use horse_bgp::msg::{
    AsPathSegment, Message, OpenMsg, Origin, PathAttributes, UpdateMsg, MAX_MESSAGE_LEN,
};
use horse_bgp::policy::{
    PeerPolicy, PolicyAction, PrefixMatch, RouteMap, RouteMapClause, RouteMapMatch, RouteMapSet,
};
use horse_bgp::session::{PeerConfig, SessionState, TimerConfig};
use horse_bgp::speaker::{BgpConfig, BgpSpeaker, SpeakerOutput};
use horse_net::addr::Ipv4Prefix;
use horse_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

#[path = "support/split_to_fit.rs"]
mod split_ref;
use split_ref::split_to_fit;

const LOCAL_AS: u16 = 64512;
/// Peer AS numbers; 300 and 400 also sit on catalog paths, so exports of
/// those paths toward those peers must be loop-suppressed.
const PEER_AS: [u16; 5] = [65001, 65002, 300, 400, 65001];
const MRAI_SECS: u64 = 5;

fn peer_addr(p: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, p as u8, 2)
}

fn local_addr(p: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, p as u8, 1)
}

fn small_prefix(i: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, (i % 8) as u8, 0, 0), 16)
}

/// `count` /24s: 4 wire bytes each, so ~1 020 of them overflow a message.
fn bulk_prefixes(count: usize) -> Vec<Ipv4Prefix> {
    (0..count as u32)
        .map(|g| Ipv4Prefix::new(Ipv4Addr::from(0x1400_0000 | (g << 8)), 24))
        .collect()
}

/// The attribute catalog, as a peer would send it (NEXT_HOP is the peer).
fn catalog_attrs(i: usize, next_hop: Ipv4Addr) -> PathAttributes {
    let base = PathAttributes {
        origin: Origin::Igp,
        as_path: vec![],
        next_hop,
        med: None,
        local_pref: None,
        communities: vec![],
        unknown: vec![],
    };
    match i % 7 {
        0 => PathAttributes {
            as_path: vec![AsPathSegment::Sequence(vec![100, 200])],
            ..base
        },
        1 => PathAttributes {
            as_path: vec![AsPathSegment::Sequence(vec![300])],
            origin: Origin::Egp,
            ..base
        },
        2 => PathAttributes {
            as_path: vec![AsPathSegment::Sequence(vec![65002, 400])],
            ..base
        },
        // 130 ASNs: a 262-byte AS_PATH value, so the extended-length form.
        3 => PathAttributes {
            as_path: vec![AsPathSegment::Sequence((1000..1130).collect())],
            ..base
        },
        4 => PathAttributes {
            as_path: vec![AsPathSegment::Sequence(vec![500])],
            med: Some(9),
            local_pref: Some(150),
            communities: vec![7, 0xff10_0001],
            ..base
        },
        5 => PathAttributes {
            as_path: vec![AsPathSegment::Sequence(vec![600])],
            origin: Origin::Incomplete,
            unknown: vec![
                (0xc0, 99, vec![1, 2, 3, 4, 5]),
                (0xd0, 100, vec![0xab; 300]),
            ],
            ..base
        },
        _ => PathAttributes {
            as_path: vec![
                AsPathSegment::Sequence(vec![700]),
                AsPathSegment::Set(vec![701, 702]),
            ],
            ..base
        },
    }
}

/// The export-map catalog. 1 and 2 are equal maps behind different
/// `Arc`s; 3 matches on prefix; 4 denies a community.
fn export_maps() -> Vec<Option<Arc<RouteMap>>> {
    let stamp = || {
        RouteMap::new(vec![RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch::default(),
            set: RouteMapSet {
                med: Some(77),
                prepend: 2,
                add_communities: vec![0xff99_0001],
                ..RouteMapSet::default()
            },
        }])
    };
    let by_prefix = RouteMap::new(vec![
        RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch {
                prefixes: vec![PrefixMatch::within("10.0.0.0/14".parse().unwrap())],
                ..RouteMapMatch::default()
            },
            set: RouteMapSet {
                add_communities: vec![5],
                ..RouteMapSet::default()
            },
        },
        RouteMapClause::permit_any(),
    ]);
    let by_community = RouteMap::new(vec![
        RouteMapClause {
            action: PolicyAction::Deny,
            matches: RouteMapMatch {
                communities: vec![7],
                ..RouteMapMatch::default()
            },
            set: RouteMapSet::default(),
        },
        RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch::default(),
            set: RouteMapSet {
                del_communities: vec![0xff10_0001],
                ..RouteMapSet::default()
            },
        },
    ]);
    vec![
        None,
        Some(Arc::new(stamp())),
        Some(Arc::new(stamp())),
        Some(Arc::new(by_prefix)),
        Some(Arc::new(by_community)),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Announce {
        peer: usize,
        attrs: usize,
        prefixes: Vec<usize>,
    },
    Withdraw {
        peer: usize,
        prefixes: Vec<usize>,
    },
    AnnounceBulk {
        peer: usize,
        attrs: usize,
        count: usize,
    },
    WithdrawBulk {
        peer: usize,
        count: usize,
    },
    Down {
        peer: usize,
    },
    Up {
        peer: usize,
    },
    Tick {
        secs: u64,
    },
    Originate {
        prefix: usize,
    },
    LocalWithdraw {
        prefix: usize,
    },
}

fn ops() -> impl Strategy<Value = Op> {
    let some_prefixes = || prop::collection::vec(0usize..8, 1..5);
    // `Announce` is listed twice: routes have to exist for the rest to bite.
    prop_oneof![
        (0usize..12, 0usize..7, some_prefixes()).prop_map(|(peer, attrs, prefixes)| Op::Announce {
            peer,
            attrs,
            prefixes
        }),
        (0usize..12, 0usize..7, some_prefixes()).prop_map(|(peer, attrs, prefixes)| Op::Announce {
            peer,
            attrs,
            prefixes
        }),
        (0usize..12, some_prefixes()).prop_map(|(peer, prefixes)| Op::Withdraw { peer, prefixes }),
        (0usize..12, 0usize..7, 1050usize..1300)
            .prop_map(|(peer, attrs, count)| { Op::AnnounceBulk { peer, attrs, count } }),
        (0usize..12, 1050usize..1300).prop_map(|(peer, count)| Op::WithdrawBulk { peer, count }),
        (0usize..12).prop_map(|peer| Op::Down { peer }),
        (0usize..12).prop_map(|peer| Op::Up { peer }),
        (1u64..8).prop_map(|secs| Op::Tick { secs }),
        (0usize..8).prop_map(|prefix| Op::Originate { prefix }),
        (0usize..8).prop_map(|prefix| Op::LocalWithdraw { prefix }),
    ]
}

/// One speaker under test, the test standing in for all of its peers.
struct Bench {
    dut: BgpSpeaker,
    peers: Vec<PeerConfig>,
    export: Vec<Option<Arc<RouteMap>>>,
    mrai: bool,
    now: SimTime,
    /// What each peer has been told and not yet been told otherwise.
    told: Vec<BTreeMap<Ipv4Prefix, PathAttributes>>,
}

/// One UPDATE as emitted: decoded, and its own wire bytes.
type Emitted = (UpdateMsg, Vec<u8>);

impl Bench {
    fn new(peer_as: &[usize], maps: &[usize], mrai: bool) -> Bench {
        let catalog = export_maps();
        let peers: Vec<PeerConfig> = peer_as
            .iter()
            .enumerate()
            .map(|(p, a)| PeerConfig {
                peer_addr: peer_addr(p),
                local_addr: local_addr(p),
                remote_as: PEER_AS[*a],
            })
            .collect();
        let export: Vec<Option<Arc<RouteMap>>> = (0..peers.len())
            .map(|p| catalog[maps[p] % catalog.len()].clone())
            .collect();
        let policies = export
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_some())
            .map(|(p, m)| {
                (
                    peer_addr(p),
                    PeerPolicy {
                        import: None,
                        export: m.clone(),
                    },
                )
            })
            .collect();
        let dut = BgpSpeaker::new(BgpConfig {
            asn: LOCAL_AS,
            router_id: Ipv4Addr::new(9, 9, 9, 9),
            timers: TimerConfig {
                // No hold timer: ticks must not expire sessions.
                hold_time: SimDuration::ZERO,
                connect_retry: SimDuration::from_secs(1),
                mrai: SimDuration::from_secs(if mrai { MRAI_SECS } else { 0 }),
            },
            peers: peers.clone(),
            networks: vec![],
            multipath: true,
            policies,
        });
        let told = vec![BTreeMap::new(); peers.len()];
        Bench {
            dut,
            peers,
            export,
            mrai,
            now: SimTime::ZERO,
            told,
        }
    }

    fn established(&self, p: usize) -> bool {
        self.dut.session_state(peer_addr(p)) == Some(SessionState::Established)
    }

    /// Brings the session to peer `p` up: transport, then the peer's OPEN
    /// and KEEPALIVE in one delivery.
    fn bring_up(&mut self, p: usize) {
        self.dut.on_transport_up(peer_addr(p), self.now);
        let open = Message::Open(OpenMsg {
            version: 4,
            my_as: self.peers[p].remote_as,
            hold_time: 0,
            bgp_id: peer_addr(p),
            capabilities: vec![],
        });
        let bytes = [&open.encode()[..], &Message::Keepalive.encode()[..]].concat();
        self.dut.on_bytes(peer_addr(p), self.now, &bytes);
        assert!(self.established(p), "peer {p} did not establish");
    }

    fn deliver(&mut self, p: usize, updates: Vec<UpdateMsg>) {
        let mut bytes = Vec::new();
        for u in updates {
            assert!(u.wire_len() <= MAX_MESSAGE_LEN, "test sends a legal UPDATE");
            bytes.extend_from_slice(&Message::Update(u).encode());
        }
        self.dut.on_bytes(peer_addr(p), self.now, &bytes);
    }

    fn apply(&mut self, op: &Op) {
        let n = self.peers.len();
        match op {
            Op::Announce {
                peer,
                attrs,
                prefixes,
            } if self.established(peer % n) => {
                let p = peer % n;
                let nlri: BTreeSet<Ipv4Prefix> =
                    prefixes.iter().map(|i| small_prefix(*i)).collect();
                self.deliver(
                    p,
                    vec![UpdateMsg {
                        withdrawn: vec![],
                        attrs: Some(Arc::new(catalog_attrs(*attrs, peer_addr(p)))),
                        nlri: nlri.into_iter().collect(),
                    }],
                );
            }
            Op::Withdraw { peer, prefixes } if self.established(peer % n) => {
                let withdrawn: BTreeSet<Ipv4Prefix> =
                    prefixes.iter().map(|i| small_prefix(*i)).collect();
                self.deliver(
                    peer % n,
                    vec![UpdateMsg {
                        withdrawn: withdrawn.into_iter().collect(),
                        attrs: None,
                        nlri: vec![],
                    }],
                );
            }
            // Two legal UPDATEs in one delivery: the speaker reconciles
            // them together, so toward each peer they are one group that
            // no longer fits one message.
            Op::AnnounceBulk { peer, attrs, count } if self.established(peer % n) => {
                let p = peer % n;
                let attrs = Arc::new(catalog_attrs(*attrs, peer_addr(p)));
                let all = bulk_prefixes(*count);
                let halves = all.split_at(count / 2);
                self.deliver(
                    p,
                    [halves.0, halves.1]
                        .into_iter()
                        .map(|nlri| UpdateMsg {
                            withdrawn: vec![],
                            attrs: Some(attrs.clone()),
                            nlri: nlri.to_vec(),
                        })
                        .collect(),
                );
            }
            Op::WithdrawBulk { peer, count } if self.established(peer % n) => {
                let all = bulk_prefixes(*count);
                let halves = all.split_at(count / 2);
                self.deliver(
                    peer % n,
                    [halves.0, halves.1]
                        .into_iter()
                        .map(|withdrawn| UpdateMsg {
                            withdrawn: withdrawn.to_vec(),
                            attrs: None,
                            nlri: vec![],
                        })
                        .collect(),
                );
            }
            Op::Down { peer } if self.established(peer % n) => {
                self.dut.on_transport_down(peer_addr(peer % n), self.now);
                // The peer forgets what it was told with the session.
                self.told[peer % n].clear();
            }
            Op::Up { peer } if !self.established(peer % n) => self.bring_up(peer % n),
            Op::Tick { secs } => {
                self.now += SimDuration::from_secs(*secs);
                self.dut.poll_timers(self.now);
            }
            Op::Originate { prefix } => self.dut.originate(small_prefix(*prefix), self.now),
            Op::LocalWithdraw { prefix } => self.dut.withdraw(small_prefix(*prefix), self.now),
            // An op aimed at a session in the wrong state does nothing.
            _ => {}
        }
    }

    /// Today's per-peer export, from scratch: what peer `p` should hold
    /// for `prefix` given the speaker's current best path.
    fn reference_export(&self, p: usize, prefix: Ipv4Prefix) -> Option<PathAttributes> {
        let best = self.dut.rib().decide(prefix)?.best;
        if best.peer == peer_addr(p) {
            return None; // split horizon
        }
        if best.attrs.contains_asn(self.peers[p].remote_as) {
            return None; // the peer's loop check would drop it
        }
        let set = match &self.export[p] {
            None => None,
            Some(map) => match map.first_match(prefix, &best.attrs) {
                Some(i) if map.clauses[i].action == PolicyAction::Permit => {
                    Some(map.clauses[i].set.clone())
                }
                _ => return None,
            },
        };
        let mut out = (*best.attrs).clone();
        if let Some(set) = &set {
            out.communities.retain(|c| !set.del_communities.contains(c));
            out.communities.extend_from_slice(&set.add_communities);
            out.communities.sort_unstable();
            out.communities.dedup();
        }
        for _ in 0..=set.as_ref().map_or(0, |s| s.prepend) {
            out.prepend(LOCAL_AS);
        }
        out.next_hop = local_addr(p);
        out.local_pref = None;
        out.med = set.and_then(|s| s.med);
        Some(out)
    }

    /// Drains the speaker and returns the UPDATEs sent to each peer.
    fn drain(&mut self) -> BTreeMap<usize, Vec<Emitted>> {
        let mut sent: BTreeMap<usize, Vec<Emitted>> = BTreeMap::new();
        for out in self.dut.take_outputs() {
            let SpeakerOutput::SendBytes { peer, bytes } = out else {
                continue;
            };
            let p = (0..self.peers.len())
                .find(|p| peer_addr(*p) == peer)
                .expect("bytes for a configured peer");
            let (msg, used) = Message::decode(&bytes)
                .expect("the speaker emits valid messages")
                .expect("one whole message per SendBytes");
            assert_eq!(used, bytes.len(), "exactly one message per SendBytes");
            if let Message::Update(u) = msg {
                sent.entry(p).or_default().push((u, bytes.to_vec()));
            }
        }
        sent
    }

    /// Checks one step's UPDATEs toward peer `p` against the reference,
    /// and records them as told.
    fn check_burst(&mut self, p: usize, burst: &[Emitted]) -> Result<(), TestCaseError> {
        prop_assert!(self.established(p), "UPDATE to peer {} with no session", p);
        // One sync makes one UPDATE per group and splits it only for size:
        // runs of withdraw-only messages, or of messages with one attribute
        // set, are one group each.
        let mut at = 0;
        while at < burst.len() {
            let attrs = &burst[at].0.attrs;
            let run = burst[at..]
                .iter()
                .take_while(|(u, _)| u.attrs == *attrs)
                .count();
            let mut group = UpdateMsg {
                attrs: attrs.clone(),
                ..UpdateMsg::default()
            };
            for (u, _) in &burst[at..at + run] {
                prop_assert!(u.withdrawn.is_empty() || u.nlri.is_empty());
                group.withdrawn.extend_from_slice(&u.withdrawn);
                group.nlri.extend_from_slice(&u.nlri);
            }
            for prefix in &group.withdrawn {
                prop_assert!(
                    self.told[p].remove(prefix).is_some(),
                    "peer {} was sent a withdrawal of {}, which it does not hold",
                    p,
                    prefix
                );
                prop_assert_eq!(self.reference_export(p, *prefix), None);
            }
            for prefix in &group.nlri {
                let want = self.reference_export(p, *prefix);
                prop_assert_eq!(
                    want.as_ref(),
                    attrs.as_deref(),
                    "peer {} was sent the wrong attributes for {}",
                    p,
                    prefix
                );
                let before = self.told[p].insert(*prefix, want.clone().expect("announced"));
                prop_assert_ne!(before, want, "peer {} already held {}", p, prefix);
            }
            // The bytes: the per-peer message, split as `split_to_fit` does.
            let expected: Vec<Vec<u8>> = split_to_fit(group)
                .into_iter()
                .map(|u| Message::Update(u).encode().to_vec())
                .collect();
            let emitted: Vec<&Vec<u8>> = burst[at..at + run].iter().map(|(_, b)| b).collect();
            prop_assert_eq!(
                emitted.len(),
                expected.len(),
                "split count toward peer {}",
                p
            );
            for (got, want) in emitted.into_iter().zip(&expected) {
                prop_assert_eq!(got, want, "wire bytes toward peer {}", p);
            }
            at += run;
        }
        Ok(())
    }

    /// Every established peer holds what the reference export says —
    /// except, during an MRAI hold-down (`settled` false), announcements
    /// that may still be waiting; withdrawals never wait.
    fn check_told(&self, settled: bool) -> Result<(), TestCaseError> {
        let live = self.dut.rib().prefixes();
        for p in 0..self.peers.len() {
            if !self.established(p) {
                prop_assert!(self.told[p].is_empty());
                continue;
            }
            for prefix in live.iter().chain(self.told[p].keys()) {
                let want = self.reference_export(p, *prefix);
                let have = self.told[p].get(prefix);
                if settled || want.is_none() {
                    prop_assert_eq!(have, want.as_ref(), "peer {} on {}", p, prefix);
                }
            }
        }
        Ok(())
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        self.apply(op);
        for (p, burst) in self.drain() {
            self.check_burst(p, &burst)?;
        }
        self.check_told(!self.mrai)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fan_out_matches_the_per_peer_export(
        peer_as in prop::collection::vec(0usize..5, 1..=12),
        maps in prop::collection::vec(0usize..5, 12),
        mrai in any::<bool>(),
        late in prop::collection::vec(any::<bool>(), 12),
        script in prop::collection::vec(ops(), 1..40),
    ) {
        let mut bench = Bench::new(&peer_as, &maps, mrai);
        bench.dut.start(bench.now);
        // Some sessions come up before any route exists, the others only
        // when the script says so (a full-table sync mid-stream).
        for (p, late) in late.iter().enumerate().take(peer_as.len()) {
            if !late {
                bench.step(&Op::Up { peer: p })?;
            }
        }
        for op in &script {
            bench.step(op)?;
        }
        // Let every hold-down run out; then nothing may be left waiting.
        for _ in 0..2 {
            bench.step(&Op::Tick { secs: MRAI_SECS + 1 })?;
        }
        bench.check_told(true)?;
    }
}
