//! The pre-index RIB, preserved as a reference model.
//!
//! This is the [`crate::rib`] implementation as it stood before the
//! route-churn fast path (attribute interning, inverted candidate index,
//! memoized decisions): deep-cloned [`PathAttributes`] per (prefix, path),
//! a per-peer probe loop in [`NaiveRib::decide`], and no memoization. It is
//! **not** used by the speaker — it exists so that the differential
//! proptest (`tests/prop_rib_differential.rs`) can drive randomized
//! announce/withdraw/flap sequences through both models and assert
//! identical decisions and affected-sets. It is the one reference
//! [`crate::rib::LocRib`] is compared against (the same role
//! `PumpMode::FullPoll` plays for the readiness pump).

use crate::msg::{Origin, PathAttributes, UpdateMsg};
use horse_net::addr::Ipv4Prefix;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// A candidate path for a prefix (owned, deep-cloned attributes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaivePath {
    /// Path attributes as received (or as originated).
    pub attrs: PathAttributes,
    /// The peer this was learned from (`0.0.0.0` for local origination).
    pub peer: Ipv4Addr,
    /// True when learned over eBGP.
    pub ebgp: bool,
}

impl NaivePath {
    /// A locally originated path.
    pub fn local(next_hop: Ipv4Addr) -> NaivePath {
        NaivePath {
            attrs: PathAttributes::originated(next_hop),
            peer: Ipv4Addr::UNSPECIFIED,
            ebgp: false,
        }
    }

    /// True for locally originated paths.
    pub fn is_local(&self) -> bool {
        self.peer == Ipv4Addr::UNSPECIFIED
    }

    fn local_pref(&self) -> u32 {
        self.attrs.local_pref.unwrap_or(100)
    }

    fn origin_rank(&self) -> u8 {
        match self.attrs.origin {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }
}

/// Result of the naive decision process for one prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveDecision<'a> {
    /// The single best path.
    pub best: &'a NaivePath,
    /// The ECMP set (always contains `best`).
    pub multipath: Vec<&'a NaivePath>,
}

/// The old RIB: per-peer Adj-RIB-In tables probed on every decide.
#[derive(Debug, Clone, Default)]
pub struct NaiveRib {
    local_as: u16,
    multipath: bool,
    adj_in: BTreeMap<Ipv4Addr, BTreeMap<Ipv4Prefix, NaivePath>>,
    local: BTreeMap<Ipv4Prefix, NaivePath>,
}

impl NaiveRib {
    /// A RIB for a speaker in `local_as`.
    pub fn new(local_as: u16, multipath: bool) -> NaiveRib {
        NaiveRib {
            local_as,
            multipath,
            ..NaiveRib::default()
        }
    }

    /// Originates a local network.
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) {
        self.local.insert(prefix, NaivePath::local(next_hop));
    }

    /// Withdraws a locally originated network.
    pub fn withdraw_local(&mut self, prefix: Ipv4Prefix) -> bool {
        self.local.remove(&prefix).is_some()
    }

    /// Applies an UPDATE from `peer`, returning every prefix whose candidate
    /// set changed (loop-prevention semantics identical to the indexed RIB).
    pub fn update_from_peer(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        update: &UpdateMsg,
    ) -> BTreeSet<Ipv4Prefix> {
        let mut affected = BTreeSet::new();
        let table = self.adj_in.entry(peer).or_default();
        for p in &update.withdrawn {
            if table.remove(p).is_some() {
                affected.insert(*p);
            }
        }
        if let Some(attrs) = &update.attrs {
            let looped = attrs.contains_asn(self.local_as);
            for p in &update.nlri {
                if looped {
                    if table.remove(p).is_some() {
                        affected.insert(*p);
                    }
                    continue;
                }
                let path = NaivePath {
                    attrs: (**attrs).clone(),
                    peer,
                    ebgp,
                };
                let prev = table.insert(*p, path.clone());
                if prev.as_ref() != Some(&path) {
                    affected.insert(*p);
                }
            }
        }
        affected
    }

    /// Removes every route learned from `peer`, returning the affected
    /// prefixes.
    pub fn drop_peer(&mut self, peer: Ipv4Addr) -> BTreeSet<Ipv4Prefix> {
        self.adj_in
            .remove(&peer)
            .map(|t| t.into_keys().collect())
            .unwrap_or_default()
    }

    /// Every prefix with at least one candidate path — the old union
    /// rebuild over every per-peer table.
    pub fn prefixes(&self) -> BTreeSet<Ipv4Prefix> {
        let mut out: BTreeSet<Ipv4Prefix> = self.local.keys().copied().collect();
        for t in self.adj_in.values() {
            out.extend(t.keys().copied());
        }
        out
    }

    /// Runs the decision process for `prefix` — the per-peer probe loop.
    pub fn decide(&self, prefix: Ipv4Prefix) -> Option<NaiveDecision<'_>> {
        let mut candidates: Vec<&NaivePath> = Vec::new();
        if let Some(l) = self.local.get(&prefix) {
            candidates.push(l);
        }
        for t in self.adj_in.values() {
            if let Some(p) = t.get(&prefix) {
                candidates.push(p);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let best = candidates
            .iter()
            .copied()
            .min_by(|a, b| Self::rank(a, b))
            .expect("non-empty");
        let multipath = if self.multipath {
            candidates
                .into_iter()
                .filter(|c| Self::rank(c, best) == std::cmp::Ordering::Equal)
                .collect()
        } else {
            vec![best]
        };
        Some(NaiveDecision { best, multipath })
    }

    /// The original ranking (steps 1–6; step 7 falls out of gathering
    /// order + `min_by` keeping the first of equals).
    fn rank(a: &NaivePath, b: &NaivePath) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let o = b.local_pref().cmp(&a.local_pref());
        if o != Ordering::Equal {
            return o;
        }
        let o = b.is_local().cmp(&a.is_local());
        if o != Ordering::Equal {
            return o;
        }
        let o = a.attrs.as_path_len().cmp(&b.attrs.as_path_len());
        if o != Ordering::Equal {
            return o;
        }
        let o = a.origin_rank().cmp(&b.origin_rank());
        if o != Ordering::Equal {
            return o;
        }
        if a.attrs.neighbor_as().is_some() && a.attrs.neighbor_as() == b.attrs.neighbor_as() {
            let o = a.attrs.med.unwrap_or(0).cmp(&b.attrs.med.unwrap_or(0));
            if o != Ordering::Equal {
                return o;
            }
        }
        b.ebgp.cmp(&a.ebgp)
    }

    /// The effective next-hop set for a prefix (recomputes the decision, as
    /// the old `reconcile` did).
    pub fn next_hops(&self, prefix: Ipv4Prefix) -> Vec<Ipv4Addr> {
        match self.decide(prefix) {
            None => Vec::new(),
            Some(d) => {
                let mut hops: Vec<Ipv4Addr> =
                    d.multipath.iter().map(|p| p.attrs.next_hop).collect();
                hops.sort();
                hops.dedup();
                hops
            }
        }
    }
}
