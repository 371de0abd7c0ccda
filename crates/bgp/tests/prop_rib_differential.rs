//! Differential property test: the compact-id [`LocRib`] must be
//! observationally identical to its one reference model, the pre-index
//! [`NaiveRib`], under arbitrary operation sequences.
//!
//! Every operation's affected-set is compared (the compact-id RIB returns
//! value-sorted `PrefixId` slices, mapped back through its interner), and
//! after every operation the full observable surface is compared: the
//! prefix index, and per prefix the decision (best path, multipath set,
//! order included) and the effective next-hop set. Attribute pools are
//! deliberately tiny so interning collisions, redundant re-announcements,
//! and AS-loop filtering all occur often.

use horse_bgp::msg::{AsPathSegment, Origin, PathAttributes, UpdateMsg};
use horse_bgp::naive::{NaiveDecision, NaiveRib};
use horse_bgp::{Decision, LocRib};
use horse_net::addr::Ipv4Prefix;
use horse_net::intern::PrefixId;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

const LOCAL_AS: u16 = 64512;

/// The peer pool. Addresses are fixed (and never `0.0.0.0`, which is the
/// local-origination sentinel); eBGP-ness is a deterministic per-peer
/// session property, as it is in the speaker.
fn peer(idx: usize) -> (Ipv4Addr, bool) {
    let addr = Ipv4Addr::new(192, 0, 2, (idx as u8 % 4) + 1);
    (addr, idx.is_multiple_of(2))
}

fn prefix(idx: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, (idx % 6) as u8, 0, 0), 16)
}

fn origins() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Igp),
        Just(Origin::Egp),
        Just(Origin::Incomplete)
    ]
}

/// Attributes drawn from a tiny component space so distinct draws often
/// compare equal (exercising the intern table) and sometimes contain the
/// local AS (exercising loop filtering → implicit withdrawal).
fn attrs() -> impl Strategy<Value = PathAttributes> {
    (
        origins(),
        prop::collection::vec((0usize..4).prop_map(|i| [LOCAL_AS, 100, 200, 300][i]), 0..3),
        (0usize..2).prop_map(|i| Ipv4Addr::new(10, 0, 0, (i as u8) + 1)),
        prop::option::of((0usize..2).prop_map(|i| [0u32, 10][i])),
        prop::option::of((0usize..3).prop_map(|i| [50u32, 100, 200][i])),
    )
        .prop_map(|(origin, asns, next_hop, med, local_pref)| PathAttributes {
            origin,
            as_path: vec![AsPathSegment::Sequence(asns)],
            next_hop,
            med,
            local_pref,
            communities: vec![],
            unknown: vec![],
        })
}

#[derive(Debug, Clone)]
enum Op {
    /// One UPDATE from a peer: withdrawals plus (optionally) attributed
    /// NLRI. `attr` indexes the attribute pool.
    Update {
        peer: usize,
        withdrawn: Vec<usize>,
        attr: Option<usize>,
        nlri: Vec<usize>,
    },
    /// Session down: drop everything learned from the peer.
    DropPeer { peer: usize },
    /// Locally originate a prefix.
    Originate { prefix: usize, next_hop: usize },
    /// Withdraw a local origination.
    WithdrawLocal { prefix: usize },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // The vendored proptest has no weighted prop_oneof; bias toward
    // updates by repeating that arm.
    fn update_op() -> impl Strategy<Value = Op> {
        (
            0usize..4,
            prop::collection::vec(0usize..6, 0..3),
            prop::option::of(0usize..5),
            prop::collection::vec(0usize..6, 0..4),
        )
            .prop_map(|(peer, withdrawn, attr, nlri)| Op::Update {
                peer,
                withdrawn,
                attr,
                nlri,
            })
    }
    let op = prop_oneof![
        update_op(),
        update_op(),
        update_op(),
        (0usize..4).prop_map(|peer| Op::DropPeer { peer }),
        (0usize..6, 0usize..2).prop_map(|(prefix, next_hop)| Op::Originate { prefix, next_hop }),
        (0usize..6).prop_map(|prefix| Op::WithdrawLocal { prefix }),
    ];
    prop::collection::vec(op, 1..40)
}

/// A decision flattened to owned, directly comparable data:
/// `(peer, attrs, ebgp)` for best plus the ordered multipath list and the
/// effective next-hop set.
type FlatDecision = (
    (Ipv4Addr, PathAttributes, bool),
    Vec<(Ipv4Addr, PathAttributes, bool)>,
    Vec<Ipv4Addr>,
);

fn flatten_fast(d: &Decision) -> FlatDecision {
    (
        (d.best.peer, (*d.best.attrs).clone(), d.best.ebgp),
        d.multipath
            .iter()
            .map(|r| (r.peer, (*r.attrs).clone(), r.ebgp))
            .collect(),
        d.next_hops.clone(),
    )
}

fn flatten_naive(d: &NaiveDecision<'_>, hops: Vec<Ipv4Addr>) -> FlatDecision {
    (
        (d.best.peer, d.best.attrs.clone(), d.best.ebgp),
        d.multipath
            .iter()
            .map(|p| (p.peer, p.attrs.clone(), p.ebgp))
            .collect(),
        hops,
    )
}

/// Maps the compact-id RIB's affected slice back to prefix values. Also
/// asserts the value-sorted contract every downstream consumer relies on.
fn values_of(rib: &LocRib, ids: &[PrefixId]) -> BTreeSet<Ipv4Prefix> {
    let values: Vec<Ipv4Prefix> = ids.iter().map(|&id| rib.prefix_value(id)).collect();
    let set: BTreeSet<Ipv4Prefix> = values.iter().copied().collect();
    assert_eq!(
        values,
        set.iter().copied().collect::<Vec<_>>(),
        "affected ids must arrive sorted by prefix value, deduped"
    );
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn compact_rib_matches_reference_model(
        pool in prop::collection::vec(attrs(), 5),
        multipath in any::<bool>(),
        script in ops(),
    ) {
        let mut fast = LocRib::new(LOCAL_AS, multipath);
        let mut naive = NaiveRib::new(LOCAL_AS, multipath);

        for op in &script {
            match op {
                Op::Update { peer: pi, withdrawn, attr, nlri } => {
                    let (addr, ebgp) = peer(*pi);
                    let update = UpdateMsg {
                        withdrawn: withdrawn.iter().map(|i| prefix(*i)).collect(),
                        attrs: attr.map(|i| Arc::new(pool[i].clone())),
                        nlri: nlri.iter().map(|i| prefix(*i)).collect(),
                    };
                    let af = fast.update_from_peer(addr, ebgp, &update);
                    let an = naive.update_from_peer(addr, ebgp, &update);
                    let af = values_of(&fast, &af);
                    prop_assert_eq!(af, an, "affected sets diverge on {:?}", op);
                }
                Op::DropPeer { peer: pi } => {
                    let (addr, _) = peer(*pi);
                    let af = fast.drop_peer(addr);
                    let an = naive.drop_peer(addr);
                    let af = values_of(&fast, &af);
                    prop_assert_eq!(af, an, "drop_peer affected sets diverge");
                }
                Op::Originate { prefix: qi, next_hop } => {
                    let nh = Ipv4Addr::new(10, 99, 0, (*next_hop as u8) + 1);
                    let id = fast.originate(prefix(*qi), nh);
                    prop_assert_eq!(fast.prefix_value(id), prefix(*qi));
                    naive.originate(prefix(*qi), nh);
                }
                Op::WithdrawLocal { prefix: qi } => {
                    let wf = fast.withdraw_local(prefix(*qi));
                    let wn = naive.withdraw_local(prefix(*qi));
                    if let Some(id) = wf {
                        prop_assert_eq!(fast.prefix_value(id), prefix(*qi));
                    }
                    prop_assert_eq!(wf.is_some(), wn, "withdraw_local diverges");
                }
            }

            // Full observable surface after every operation.
            let live = naive.prefixes();
            prop_assert_eq!(fast.prefix_count(), live.len());
            prop_assert_eq!(fast.prefixes(), live);
            for qi in 0..6 {
                let p = prefix(qi);
                let df = fast.decide(p).map(|d| flatten_fast(&d));
                let dn = naive
                    .decide(p)
                    .map(|d| flatten_naive(&d, naive.next_hops(p)));
                prop_assert_eq!(df, dn, "decision diverges for {:?} after {:?}", p, op);
                prop_assert_eq!(fast.next_hops(p), naive.next_hops(p));
            }
        }
    }
}
