//! Property test on the speaker's receive path: whatever UPDATE byte
//! streams its peers send, a speaker — which resolves each attribute block
//! through the attribute pool's wire index and decodes only blocks the
//! index has not seen — must end up exactly where a reference that fully
//! decodes every message does.
//!
//! The reference is a plain `LocRib` fed with `Message::decode` and
//! `LocRib::update_from_peer` (and `drop_peer` when the stream is
//! malformed). Every step compares the two on decisions, multipath hop
//! sets, the speaker's `RouteChanged` outputs, and the session outcome:
//! whether the session went down, at which message, with a NOTIFICATION.
//! It also checks that the wire index holds exactly one entry per distinct
//! accepted block, NEXT_HOP bytes aside.
//!
//! The blocks are built here, attribute by attribute, so the test knows
//! where each NEXT_HOP value sits. Each case draws a few attribute sets
//! and a few encodings of them (attribute order, extended-length flag on
//! short values), and each message picks one of each plus a NEXT_HOP, so
//! blocks that differ only in NEXT_HOP, or only in encoding, recur. A
//! malformed block is a valid one with one defect, and is often sent right
//! after that valid block.

use horse_bgp::msg::{Message, OpenMsg};
use horse_bgp::rib::{Decision, LocRib};
use horse_bgp::session::{PeerConfig, SessionState, TimerConfig};
use horse_bgp::speaker::{BgpConfig, BgpSpeaker, SpeakerOutput};
use horse_net::addr::Ipv4Prefix;
use horse_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

const LOCAL_AS: u16 = 64512;
/// The peers' AS numbers. The speaker runs eBGP sessions only.
const PEER_AS: [u16; 4] = [65001, 65002, 65003, 65004];

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXTENDED: u8 = 0x10;

fn peer_addr(p: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 9, p as u8, 2)
}

fn prefix(i: usize) -> Ipv4Prefix {
    const ALL: [&str; 6] = [
        "10.0.0.0/16",
        "10.1.0.0/16",
        "10.2.0.0/24",
        "10.3.4.0/24",
        "10.3.4.128/25",
        "172.16.0.0/12",
    ];
    ALL[i % ALL.len()].parse().unwrap()
}

/// The NEXT_HOP a message from peer `p` carries: usually the peer itself
/// (what a sender's next-hop-self writes), sometimes a third party.
fn next_hop(p: usize, choice: usize) -> Ipv4Addr {
    match choice % 4 {
        0 | 1 => peer_addr(p),
        2 => Ipv4Addr::new(10, 9, p as u8, 7),
        _ => Ipv4Addr::new(192, 0, 2, 1),
    }
}

/// AS_PATH values, as segments of (type, ASNs). One holds the local AS
/// (the loop check rejects it); one needs the extended length.
fn as_path(i: usize) -> Vec<(u8, Vec<u16>)> {
    match i % 7 {
        0 => vec![],
        1 => vec![(2, vec![65001])],
        2 => vec![(2, vec![100, 200])],
        3 => vec![(2, vec![65002, 300])],
        4 => vec![(2, vec![7, LOCAL_AS])],
        5 => vec![(2, vec![700]), (1, vec![702, 701])],
        _ => vec![(2, (1000..1130).collect())],
    }
}

/// One attribute set as a peer would send it, NEXT_HOP aside.
#[derive(Debug, Clone)]
struct SetSpec {
    origin: u8,
    as_path: usize,
    med: Option<u32>,
    local_pref: Option<u32>,
    /// Wire order, duplicates kept: the decoder sorts and dedups.
    communities: Vec<u32>,
    /// Unknown optional transitive attributes, by catalog index.
    unknown: Vec<usize>,
}

fn set_specs() -> impl Strategy<Value = SetSpec> {
    (
        0u8..3,
        0usize..7,
        prop::option::of(0u32..3),
        prop::option::of(prop_oneof![Just(100u32), Just(150)]),
        prop::collection::vec(prop_oneof![Just(7u32), Just(0xff10_0001), Just(9)], 0..4),
        prop::collection::vec(0usize..2, 0..3),
    )
        .prop_map(
            |(origin, as_path, med, local_pref, communities, unknown)| SetSpec {
                origin,
                as_path,
                med,
                local_pref,
                communities,
                unknown,
            },
        )
}

/// How a set is laid out on the wire: a sort key per attribute slot
/// (ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF, COMMUNITIES, unknowns) and
/// whether each slot uses the extended-length form even when short.
#[derive(Debug, Clone)]
struct Encoding {
    order: Vec<u8>,
    extended: Vec<bool>,
}

fn encodings() -> impl Strategy<Value = Encoding> {
    (
        prop::collection::vec(0u8..4, 9),
        prop::collection::vec(0u8..5, 9),
    )
        .prop_map(|(order, ext)| Encoding {
            order,
            extended: ext.into_iter().map(|e| e == 0).collect(),
        })
}

/// One path attribute as the test puts it on the wire.
#[derive(Debug, Clone)]
struct Attr {
    flags: u8,
    code: u8,
    value: Vec<u8>,
}

const NEXT_HOP_CODE: u8 = 3;

fn attrs_of(set: &SetSpec, enc: &Encoding, hop: Ipv4Addr) -> Vec<Attr> {
    let well_known = |code, value| Attr {
        flags: FLAG_TRANSITIVE,
        code,
        value,
    };
    let mut path = Vec::new();
    for (seg_type, asns) in as_path(set.as_path) {
        path.push(seg_type);
        path.push(asns.len() as u8);
        path.extend(asns.iter().flat_map(|a| a.to_be_bytes()));
    }
    let mut slots: Vec<Option<Attr>> = vec![
        Some(well_known(1, vec![set.origin])),
        Some(well_known(2, path)),
        Some(well_known(NEXT_HOP_CODE, hop.octets().to_vec())),
        set.med.map(|m| Attr {
            flags: FLAG_OPTIONAL,
            code: 4,
            value: m.to_be_bytes().to_vec(),
        }),
        set.local_pref
            .map(|lp| well_known(5, lp.to_be_bytes().to_vec())),
        (!set.communities.is_empty()).then(|| Attr {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            code: 8,
            value: set
                .communities
                .iter()
                .flat_map(|c| c.to_be_bytes())
                .collect(),
        }),
    ];
    for u in &set.unknown {
        slots.push(Some(match u {
            0 => Attr {
                flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
                code: 99,
                value: vec![1, 2, 3],
            },
            _ => Attr {
                flags: FLAG_OPTIONAL | FLAG_TRANSITIVE | 0x20,
                code: 100,
                value: vec![0xab; 300],
            },
        }));
    }
    let mut ordered: Vec<(u8, usize, Attr)> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|a| (enc.order[i.min(8)], i, a)))
        .collect();
    ordered.sort_by_key(|(key, i, _)| (*key, *i));
    ordered
        .into_iter()
        .map(|(_, i, mut a)| {
            if enc.extended[i.min(8)] || a.value.len() > 255 {
                a.flags |= FLAG_EXTENDED;
            }
            a
        })
        .collect()
}

/// Encodes attributes into a block; returns it and the offset of the
/// NEXT_HOP value (if a NEXT_HOP is present).
fn encode_block(attrs: &[Attr]) -> (Vec<u8>, Option<usize>) {
    let mut out = Vec::new();
    let mut hop_at = None;
    for a in attrs {
        out.push(a.flags);
        out.push(a.code);
        if a.flags & FLAG_EXTENDED != 0 {
            out.extend_from_slice(&(a.value.len() as u16).to_be_bytes());
        } else {
            out.push(a.value.len() as u8);
        }
        if a.code == NEXT_HOP_CODE {
            hop_at = Some(out.len());
        }
        out.extend_from_slice(&a.value);
    }
    (out, hop_at)
}

/// One defect applied to a valid block.
#[derive(Debug, Clone, Copy)]
enum Defect {
    /// The last 1..=3 bytes are cut off: a truncated attribute.
    Truncate(usize),
    /// The NEXT_HOP attribute is left out.
    MissingNextHop,
    /// The extended-length flag is set on the last attribute, so its
    /// length swallows a value byte (bad flags).
    ExtendedLast,
    /// The optional flag is set on ORIGIN: wrong, but this codec does
    /// not check well-known flags, so the block decodes.
    OptionalOrigin,
    /// An ORIGIN code outside 0..=2.
    BadOrigin,
    /// MED with a 3-byte value.
    ShortMed,
    /// A zero attribute header (`00 00 00`) appended. It decodes, as an
    /// unknown attribute, and hashes like the block without it.
    ZeroAttr,
}

fn defects() -> impl Strategy<Value = Defect> {
    prop_oneof![
        (1usize..4).prop_map(Defect::Truncate),
        Just(Defect::MissingNextHop),
        Just(Defect::ExtendedLast),
        Just(Defect::OptionalOrigin),
        Just(Defect::BadOrigin),
        Just(Defect::ShortMed),
        Just(Defect::ZeroAttr),
    ]
}

fn damaged(mut attrs: Vec<Attr>, defect: Defect) -> (Vec<u8>, Option<usize>) {
    let code_at = |attrs: &[Attr], code| attrs.iter().position(|a| a.code == code);
    match defect {
        Defect::Truncate(k) => {
            let (mut block, hop_at) = encode_block(&attrs);
            block.truncate(block.len() - k);
            return (block, hop_at);
        }
        Defect::MissingNextHop => {
            attrs.retain(|a| a.code != NEXT_HOP_CODE);
        }
        Defect::ExtendedLast => {
            let last = attrs.last_mut().expect("a block has attributes");
            let already = last.flags & FLAG_EXTENDED != 0;
            last.flags |= FLAG_EXTENDED;
            let value_len = last.value.len();
            let (mut block, hop_at) = encode_block(&attrs);
            if already {
                // No flag to set: cut the block short instead.
                block.truncate(block.len() - 1);
            } else {
                // The header grew a (zero) length byte: drop it again so
                // the block keeps the valid one's bytes, flag bit aside.
                block.remove(block.len() - value_len - 2);
            }
            return (block, hop_at);
        }
        Defect::OptionalOrigin => {
            let i = code_at(&attrs, 1).expect("ORIGIN");
            attrs[i].flags |= FLAG_OPTIONAL;
        }
        Defect::BadOrigin => {
            let i = code_at(&attrs, 1).expect("ORIGIN");
            attrs[i].value = vec![3];
        }
        Defect::ShortMed => match code_at(&attrs, 4) {
            Some(i) => {
                attrs[i].value.pop();
            }
            None => attrs.push(Attr {
                flags: FLAG_OPTIONAL,
                code: 4,
                value: vec![0, 0, 1],
            }),
        },
        Defect::ZeroAttr => attrs.push(Attr {
            flags: 0,
            code: 0,
            value: vec![],
        }),
    }
    encode_block(&attrs)
}

/// One UPDATE as the test writes it. The prefixes are indexes into
/// [`prefix`]; `announce` is `(set, encoding, next hop, defect)`.
#[derive(Debug, Clone)]
struct Upd {
    withdrawn: Vec<usize>,
    announce: Option<(usize, usize, usize, Option<Defect>)>,
    nlri: Vec<usize>,
}

fn prefix_idx() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..6, 1..4)
}

fn upds() -> impl Strategy<Value = Upd> {
    // One in five is withdraw-only; one announcement in seven is damaged.
    (
        0u8..5,
        (0usize..4, 0usize..3, 0usize..4, 0u8..7, defects()),
        prefix_idx(),
    )
        .prop_map(|(kind, (s, e, h, damage, defect), prefixes)| {
            if kind == 0 {
                Upd {
                    withdrawn: prefixes,
                    announce: None,
                    nlri: vec![],
                }
            } else {
                Upd {
                    withdrawn: vec![],
                    announce: Some((s, e, h, (damage == 0).then_some(defect))),
                    nlri: prefixes,
                }
            }
        })
}

#[derive(Debug, Clone)]
enum Op {
    /// Several UPDATEs from one peer in one delivery.
    Deliver { peer: usize, upds: Vec<Upd> },
    /// A valid announcement, then the same block with a defect, adjacent
    /// in one delivery.
    ValidThenDamaged {
        peer: usize,
        upd: Upd,
        defect: Defect,
    },
}

fn ops() -> impl Strategy<Value = Op> {
    // `Deliver` is listed three times: most of a script is plain traffic.
    let deliver = || {
        (0usize..4, prop::collection::vec(upds(), 1..4))
            .prop_map(|(peer, upds)| Op::Deliver { peer, upds })
    };
    prop_oneof![
        deliver(),
        deliver(),
        deliver(),
        (
            0usize..4,
            (0usize..4, 0usize..3, 0usize..4),
            prefix_idx(),
            defects()
        )
            .prop_map(|(peer, (s, e, h), nlri, defect)| Op::ValidThenDamaged {
                peer,
                upd: Upd {
                    withdrawn: vec![],
                    announce: Some((s, e, h, None)),
                    nlri,
                },
                defect,
            }),
    ]
}

/// The comparable part of a decision: everything but pool ids, which
/// are local to each RIB's pool.
type DecisionView = (
    (horse_bgp::msg::PathAttributes, Ipv4Addr, bool),
    Vec<(horse_bgp::msg::PathAttributes, Ipv4Addr, bool)>,
    Vec<Ipv4Addr>,
);

fn view(d: Option<Decision>) -> Option<DecisionView> {
    let route = |r: &horse_bgp::rib::RouteInfo| ((*r.attrs).clone(), r.peer, r.ebgp);
    d.map(|d| {
        (
            route(&d.best),
            d.multipath.iter().map(route).collect(),
            d.next_hops,
        )
    })
}

struct Bench {
    dut: BgpSpeaker,
    reference: LocRib,
    sets: Vec<SetSpec>,
    encs: Vec<Encoding>,
    now: SimTime,
    /// Every accepted block with its NEXT_HOP value zeroed.
    accepted: BTreeSet<Vec<u8>>,
}

impl Bench {
    fn new(sets: Vec<SetSpec>, encs: Vec<Encoding>) -> Bench {
        let peers = (0..PEER_AS.len())
            .map(|p| PeerConfig {
                peer_addr: peer_addr(p),
                local_addr: Ipv4Addr::new(10, 9, p as u8, 1),
                remote_as: PEER_AS[p],
            })
            .collect();
        let mut dut = BgpSpeaker::new(BgpConfig {
            asn: LOCAL_AS,
            router_id: Ipv4Addr::new(9, 9, 9, 9),
            timers: TimerConfig {
                hold_time: SimDuration::ZERO,
                connect_retry: SimDuration::from_secs(1),
                mrai: SimDuration::ZERO,
            },
            peers,
            networks: vec![],
            multipath: true,
            policies: Default::default(),
        });
        dut.start(SimTime::ZERO);
        Bench {
            dut,
            reference: LocRib::new(LOCAL_AS, true),
            sets,
            encs,
            now: SimTime::ZERO,
            accepted: BTreeSet::new(),
        }
    }

    fn established(&self, p: usize) -> bool {
        self.dut.session_state(peer_addr(p)) == Some(SessionState::Established)
    }

    fn bring_up(&mut self, p: usize) {
        self.dut.on_transport_up(peer_addr(p), self.now);
        let open = Message::Open(OpenMsg {
            version: 4,
            my_as: PEER_AS[p],
            hold_time: 0,
            bgp_id: peer_addr(p),
            capabilities: vec![],
        });
        let bytes = [&open.encode()[..], &Message::Keepalive.encode()[..]].concat();
        self.dut.on_bytes(peer_addr(p), self.now, &bytes);
        assert!(self.established(p), "peer {p} did not establish");
        self.dut.take_outputs();
    }

    /// The message's bytes, and its block NEXT_HOP-masked when it has one
    /// at a known place.
    fn encode(&self, p: usize, upd: &Upd) -> (Vec<u8>, Option<Vec<u8>>) {
        let (block, hop_at) = match upd.announce {
            None => (Vec::new(), None),
            Some((s, e, h, defect)) => {
                let attrs = attrs_of(
                    &self.sets[s % self.sets.len()],
                    &self.encs[e % self.encs.len()],
                    next_hop(p, h),
                );
                match defect {
                    None => encode_block(&attrs),
                    Some(d) => damaged(attrs, d),
                }
            }
        };
        let withdrawn: Vec<u8> = upd
            .withdrawn
            .iter()
            .flat_map(|i| prefix_bytes(prefix(*i)))
            .collect();
        let nlri: Vec<u8> = if upd.announce.is_some() {
            upd.nlri
                .iter()
                .flat_map(|i| prefix_bytes(prefix(*i)))
                .collect()
        } else {
            Vec::new()
        };
        let mut body = Vec::new();
        body.extend_from_slice(&(withdrawn.len() as u16).to_be_bytes());
        body.extend_from_slice(&withdrawn);
        body.extend_from_slice(&(block.len() as u16).to_be_bytes());
        body.extend_from_slice(&block);
        body.extend_from_slice(&nlri);
        let mut msg = vec![0xff; 16];
        msg.extend_from_slice(&(19 + body.len() as u16).to_be_bytes());
        msg.push(2);
        msg.extend_from_slice(&body);
        let masked = hop_at.filter(|at| at + 4 <= block.len()).map(|at| {
            let mut m = block.clone();
            m[at..at + 4].fill(0);
            m
        });
        (msg, masked)
    }

    fn hops(&self) -> BTreeMap<Ipv4Prefix, Vec<Ipv4Addr>> {
        (0..6)
            .map(prefix)
            .map(|p| (p, self.reference.next_hops(p)))
            .collect()
    }

    fn deliver(&mut self, p: usize, upds: &[Upd]) -> Result<(), TestCaseError> {
        if !self.established(p) {
            self.bring_up(p);
        }
        let peer = peer_addr(p);
        let encoded: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            upds.iter().map(|u| self.encode(p, u)).collect();
        let stream: Vec<u8> = encoded.iter().flat_map(|(m, _)| m.clone()).collect();

        // The reference: decode every message in full, apply it, stop at
        // the first that fails and drop the peer.
        let before = self.hops();
        let mut good = 0u64;
        let mut failed = false;
        let mut at = 0;
        for (msg, masked) in &encoded {
            match Message::decode(&stream[at..]) {
                Ok(Some((Message::Update(u), used))) => {
                    prop_assert_eq!(used, msg.len());
                    self.reference.update_from_peer(peer, true, &u);
                    if u.attrs.is_some() {
                        let masked = masked.clone().expect("an accepted block has one NEXT_HOP");
                        self.accepted.insert(masked);
                    }
                    good += 1;
                    at += used;
                }
                Ok(other) => panic!("the test writes whole UPDATEs: {other:?}"),
                Err(_) => {
                    self.reference.drop_peer(peer);
                    failed = true;
                    break;
                }
            }
        }
        let after = self.hops();
        let expected_changes: Vec<(Ipv4Prefix, Vec<Ipv4Addr>)> = after
            .iter()
            .filter(|(p, h)| before[*p] != **h)
            .map(|(p, h)| (*p, h.clone()))
            .collect();

        // The speaker: one delivery of the whole stream.
        let received = self.dut.session(peer).expect("configured").msgs_received;
        self.dut.on_bytes(peer, self.now, &stream);
        let got_received = self.dut.session(peer).expect("configured").msgs_received;
        prop_assert_eq!(
            got_received - received,
            good,
            "messages handled before the session went down"
        );
        prop_assert_eq!(self.established(p), !failed, "session outcome");
        let mut changes = Vec::new();
        let mut down = false;
        let mut notified = false;
        for out in self.dut.take_outputs() {
            match out {
                SpeakerOutput::RouteChanged { prefix, next_hops } => {
                    changes.push((prefix, next_hops))
                }
                SpeakerOutput::SessionDown { peer: q } => {
                    prop_assert_eq!(q, peer);
                    down = true;
                }
                SpeakerOutput::SendBytes { peer: q, bytes } if q == peer => {
                    if let Ok(Some((Message::Notification(n), _))) = Message::decode(&bytes) {
                        prop_assert_eq!(n.code, 1, "an UPDATE error NOTIFICATION");
                        notified = true;
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(down, failed, "SessionDown output");
        prop_assert_eq!(notified, failed, "NOTIFICATION sent");
        prop_assert_eq!(changes, expected_changes, "RouteChanged outputs");
        self.check()
    }

    /// Decisions, hop sets and the pools agree; the wire index holds one
    /// entry per distinct accepted block.
    fn check(&self) -> Result<(), TestCaseError> {
        let rib = self.dut.rib();
        for p in (0..6).map(prefix) {
            prop_assert_eq!(view(rib.decide(p)), view(self.reference.decide(p)), "{}", p);
            prop_assert_eq!(rib.next_hops(p), self.reference.next_hops(p));
        }
        prop_assert_eq!(rib.prefixes(), self.reference.prefixes());
        let (pool, ref_pool) = (rib.attr_pool(), self.reference.attr_pool());
        prop_assert_eq!(pool.len(), ref_pool.len(), "distinct attribute sets");
        prop_assert_eq!(
            pool.wire_len(),
            self.accepted.len(),
            "wire index entries: one per accepted block, NEXT_HOP aside"
        );
        Ok(())
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        self.now += SimDuration::from_millis(1);
        match op {
            Op::Deliver { peer, upds } => self.deliver(peer % PEER_AS.len(), upds),
            Op::ValidThenDamaged { peer, upd, defect } => {
                let (s, e, h, _) = upd.announce.expect("an announcement");
                let bad = Upd {
                    announce: Some((s, e, h, Some(*defect))),
                    ..upd.clone()
                };
                self.deliver(peer % PEER_AS.len(), &[upd.clone(), bad])
            }
        }
    }
}

fn prefix_bytes(p: Ipv4Prefix) -> Vec<u8> {
    let len = p.len();
    let octets = p.network().octets();
    let mut out = vec![len];
    out.extend_from_slice(&octets[..usize::from(len).div_ceil(8)]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wire_probe_matches_full_decode(
        sets in prop::collection::vec(set_specs(), 1..4),
        encs in prop::collection::vec(encodings(), 1..3),
        script in prop::collection::vec(ops(), 1..24),
    ) {
        let mut bench = Bench::new(sets, encs);
        for op in &script {
            bench.step(op)?;
        }
    }
}
