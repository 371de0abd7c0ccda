//! Per-peer routing policy: route-maps and the Gao-Rexford compiler.
//!
//! A [`RouteMap`] is an ordered list of clauses evaluated first-match-wins,
//! the way IOS-style route-maps work: each clause carries match conditions
//! (prefix lists with `ge`/`le` bounds, required communities, an AS-path
//! "regex-lite" pattern) and a set block (local-pref, MED, community
//! add/delete, AS-path prepend). A route that matches a `Permit` clause is
//! accepted with the clause's transformations applied; a route that matches
//! a `Deny` clause — or falls off the end of a non-empty map — is rejected
//! (implicit deny). A peer with **no** route-map attached permits
//! everything unchanged, so policy-free configurations behave exactly as
//! before this module existed.
//!
//! Evaluation happens at exactly two choke points (see DESIGN.md):
//! import inside [`crate::rib::LocRib::update_from_peer_policed`] before
//! attributes are interned, and export inside the speaker's
//! `export_route`, behind the per-peer export memo (cleared when that
//! peer's policy is swapped).
//! Policy-modified attribute sets intern through the same
//! [`crate::rib::AttrStore`] as unmodified ones.
//!
//! [`PeerRole`] + [`gao_rexford_policy`] compile the classic valley-free
//! business relationships (Gao & Rexford 2001) down to plain route-maps:
//! import tags routes with the role community and sets local-pref
//! customer > peer > provider; export toward peers and providers permits
//! only customer-learned or locally originated routes.

use crate::msg::PathAttributes;
use horse_net::addr::Ipv4Prefix;
use std::sync::Arc;

/// Clause disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Accept the route, applying the clause's set block.
    Permit,
    /// Reject the route.
    Deny,
}

/// One prefix-list entry: matches prefixes covered by `prefix` whose mask
/// length lies in `min_len..=max_len` (the `ge`/`le` of IOS prefix lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Covering prefix.
    pub prefix: Ipv4Prefix,
    /// Minimum mask length accepted (`ge`).
    pub min_len: u8,
    /// Maximum mask length accepted (`le`).
    pub max_len: u8,
}

impl PrefixMatch {
    /// Exact-or-longer match rooted at `prefix` (the common case:
    /// `prefix le 32`).
    pub fn within(prefix: Ipv4Prefix) -> PrefixMatch {
        PrefixMatch {
            prefix,
            min_len: prefix.len(),
            max_len: 32,
        }
    }

    /// Exact match only.
    pub fn exact(prefix: Ipv4Prefix) -> PrefixMatch {
        PrefixMatch {
            prefix,
            min_len: prefix.len(),
            max_len: prefix.len(),
        }
    }

    /// Does `p` fall inside this entry?
    pub fn matches(&self, p: Ipv4Prefix) -> bool {
        if p.len() < self.min_len || p.len() > self.max_len || p.len() < self.prefix.len() {
            return false;
        }
        // `p` must sit inside the covering prefix.
        let shift = 32 - self.prefix.len() as u32;
        if shift == 32 {
            return true; // 0.0.0.0/0 covers everything
        }
        let a = u32::from(self.prefix.network()) >> shift;
        let b = u32::from(p.network()) >> shift;
        a == b
    }
}

/// One token of the AS-path regex-lite language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathTok {
    /// A literal ASN.
    Asn(u16),
    /// `?` — exactly one ASN, any value.
    AnyOne,
    /// `*` — zero or more ASNs, any values.
    AnyMany,
}

/// AS-path matcher over a tiny, total subset of path-regex syntax.
///
/// The pattern is a whitespace-separated token list, optionally anchored:
/// `^` at the front pins the match to the start of the path, `$` at the end
/// pins it to the end. Tokens are ASN literals, `?` (any single ASN) and
/// `*` (any run of ASNs). Unanchored patterns match anywhere in the path —
/// `"64512"` behaves like `_64512_` in IOS regexes. `"^$"` matches only the
/// empty path (locally originated routes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsPathRegex {
    toks: Vec<PathTok>,
    anchored_start: bool,
    anchored_end: bool,
    /// Original pattern text, kept for Debug/labels.
    pattern: String,
}

/// Error parsing an [`AsPathRegex`] pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadPattern(pub String);

impl std::fmt::Display for BadPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad as-path pattern: {}", self.0)
    }
}

impl std::error::Error for BadPattern {}

impl AsPathRegex {
    /// Parses a pattern. See the type docs for syntax.
    pub fn parse(pattern: &str) -> Result<AsPathRegex, BadPattern> {
        let mut text = pattern.trim();
        let anchored_start = text.starts_with('^');
        if anchored_start {
            text = &text[1..];
        }
        let anchored_end = text.ends_with('$');
        if anchored_end {
            text = &text[..text.len() - 1];
        }
        let mut toks = Vec::new();
        for word in text.split_whitespace() {
            toks.push(match word {
                "?" => PathTok::AnyOne,
                "*" => PathTok::AnyMany,
                w => PathTok::Asn(
                    w.parse::<u16>()
                        .map_err(|_| BadPattern(pattern.to_string()))?,
                ),
            });
        }
        Ok(AsPathRegex {
            toks,
            anchored_start,
            anchored_end,
            pattern: pattern.to_string(),
        })
    }

    /// The source pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Does the route's AS path match? The path is flattened to the ASN
    /// sequence (sets contribute their members in order).
    pub fn matches(&self, attrs: &PathAttributes) -> bool {
        let path: Vec<u16> = attrs.as_path_asns().collect();
        // An unanchored pattern is `* toks *`.
        if self.anchored_start {
            if self.anchored_end {
                Self::match_here(&self.toks, &path, true)
            } else {
                Self::match_here(&self.toks, &path, false)
            }
        } else {
            (0..=path.len())
                .any(|start| Self::match_here(&self.toks, &path[start..], self.anchored_end))
        }
    }

    /// Matches `toks` against the front of `path`; `to_end` requires the
    /// whole remainder to be consumed. Small recursive matcher — paths are
    /// short (tens of ASNs) and patterns shorter, so no memoization.
    fn match_here(toks: &[PathTok], path: &[u16], to_end: bool) -> bool {
        match toks.first() {
            None => !to_end || path.is_empty(),
            Some(PathTok::Asn(a)) => {
                path.first() == Some(a) && Self::match_here(&toks[1..], &path[1..], to_end)
            }
            Some(PathTok::AnyOne) => {
                !path.is_empty() && Self::match_here(&toks[1..], &path[1..], to_end)
            }
            Some(PathTok::AnyMany) => {
                (0..=path.len()).any(|skip| Self::match_here(&toks[1..], &path[skip..], to_end))
            }
        }
    }
}

/// Match block of one clause. All present conditions must hold (AND); an
/// empty block matches every route.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteMapMatch {
    /// Prefix-list entries; non-empty means the prefix must match at least
    /// one entry (OR within the list).
    pub prefixes: Vec<PrefixMatch>,
    /// Communities that must all be attached to the route.
    pub communities: Vec<u32>,
    /// AS-path pattern.
    pub as_path: Option<AsPathRegex>,
}

impl RouteMapMatch {
    fn matches(&self, prefix: Ipv4Prefix, attrs: &PathAttributes) -> bool {
        if !self.prefixes.is_empty() && !self.prefixes.iter().any(|m| m.matches(prefix)) {
            return false;
        }
        if !self.communities.iter().all(|c| attrs.has_community(*c)) {
            return false;
        }
        if let Some(re) = &self.as_path {
            if !re.matches(attrs) {
                return false;
            }
        }
        true
    }
}

/// Set block of one `Permit` clause, applied to matching routes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteMapSet {
    /// Overwrite LOCAL_PREF.
    pub local_pref: Option<u32>,
    /// Overwrite MED.
    pub med: Option<u32>,
    /// Communities to attach (kept sorted/deduped on the route).
    pub add_communities: Vec<u32>,
    /// Communities to strip (applied before `add_communities`).
    pub del_communities: Vec<u32>,
    /// Extra copies of `own_as` to prepend to the AS path.
    pub prepend: u8,
}

impl RouteMapSet {
    /// True when the block changes nothing — lets the evaluator skip the
    /// attribute clone entirely.
    pub fn is_noop(&self) -> bool {
        self.local_pref.is_none()
            && self.med.is_none()
            && self.add_communities.is_empty()
            && self.del_communities.is_empty()
            && self.prepend == 0
    }

    /// Applies the block to `attrs`, returning the transformed copy.
    pub fn apply(&self, attrs: &PathAttributes, own_as: u16) -> PathAttributes {
        let mut out = attrs.clone();
        if let Some(lp) = self.local_pref {
            out.local_pref = Some(lp);
        }
        if let Some(med) = self.med {
            out.med = Some(med);
        }
        if !self.del_communities.is_empty() {
            out.communities
                .retain(|c| !self.del_communities.contains(c));
        }
        if !self.add_communities.is_empty() {
            out.communities.extend_from_slice(&self.add_communities);
            out.communities.sort_unstable();
            out.communities.dedup();
        }
        for _ in 0..self.prepend {
            out = out.prepended(own_as);
        }
        out
    }
}

/// One route-map clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteMapClause {
    /// Permit or deny.
    pub action: PolicyAction,
    /// Match conditions (AND of present conditions).
    pub matches: RouteMapMatch,
    /// Transformations applied on permit.
    pub set: RouteMapSet,
}

impl RouteMapClause {
    /// A match-everything permit clause with no transformations.
    pub fn permit_any() -> RouteMapClause {
        RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch::default(),
            set: RouteMapSet::default(),
        }
    }

    /// A match-everything deny clause.
    pub fn deny_any() -> RouteMapClause {
        RouteMapClause {
            action: PolicyAction::Deny,
            matches: RouteMapMatch::default(),
            set: RouteMapSet::default(),
        }
    }
}

/// Result of evaluating a route-map against one route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Route rejected (matched a deny clause, or no clause matched).
    Deny,
    /// Route accepted; `None` means unchanged (no clone was made).
    Permit(Option<PathAttributes>),
}

/// An ordered route-map: clauses tried in order, first match wins,
/// implicit deny at the end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteMap {
    /// Clauses in evaluation order.
    pub clauses: Vec<RouteMapClause>,
}

impl RouteMap {
    /// A map from clauses.
    pub fn new(clauses: Vec<RouteMapClause>) -> RouteMap {
        RouteMap { clauses }
    }

    /// A map that permits everything unchanged. Behaviorally identical to
    /// having no policy at all — used by differential tests.
    pub fn permit_all() -> RouteMap {
        RouteMap::new(vec![RouteMapClause::permit_any()])
    }

    /// Index of the first clause matching `(prefix, attrs)`, if any.
    /// Exposed so the import path can bucket NLRI by clause and intern one
    /// transformed attribute set per bucket.
    pub fn first_match(&self, prefix: Ipv4Prefix, attrs: &PathAttributes) -> Option<usize> {
        self.clauses
            .iter()
            .position(|c| c.matches.matches(prefix, attrs))
    }

    /// Full evaluation: first matching clause decides; no match = deny.
    pub fn apply(&self, prefix: Ipv4Prefix, attrs: &PathAttributes, own_as: u16) -> PolicyVerdict {
        match self.first_match(prefix, attrs) {
            None => PolicyVerdict::Deny,
            Some(i) => self.verdict_of(i, attrs, own_as),
        }
    }

    /// Verdict for a clause index previously returned by
    /// [`RouteMap::first_match`].
    pub fn verdict_of(&self, clause: usize, attrs: &PathAttributes, own_as: u16) -> PolicyVerdict {
        let c = &self.clauses[clause];
        match c.action {
            PolicyAction::Deny => PolicyVerdict::Deny,
            PolicyAction::Permit if c.set.is_noop() => PolicyVerdict::Permit(None),
            PolicyAction::Permit => PolicyVerdict::Permit(Some(c.set.apply(attrs, own_as))),
        }
    }

    /// True when any clause matches on prefix — the export cache must key
    /// on the prefix as well as the attribute set for such maps.
    pub fn prefix_sensitive(&self) -> bool {
        self.clauses.iter().any(|c| !c.matches.prefixes.is_empty())
    }
}

/// Import + export route-maps for one peer. `None` = no policy (permit
/// everything unchanged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerPolicy {
    /// Applied to routes learned from the peer, before interning.
    pub import: Option<Arc<RouteMap>>,
    /// Applied to routes advertised to the peer, before the standard eBGP
    /// transform.
    pub export: Option<Arc<RouteMap>>,
}

impl PeerPolicy {
    /// True when neither direction has a map attached.
    pub fn is_empty(&self) -> bool {
        self.import.is_none() && self.export.is_none()
    }
}

// ---- Gao-Rexford ----------------------------------------------------------

/// Community tagging a route learned from a customer.
pub const GR_FROM_CUSTOMER: u32 = 0xff10_0001;
/// Community tagging a route learned from a peer.
pub const GR_FROM_PEER: u32 = 0xff10_0002;
/// Community tagging a route learned from a provider.
pub const GR_FROM_PROVIDER: u32 = 0xff10_0003;

/// Local-pref assigned to customer-learned routes.
pub const GR_LP_CUSTOMER: u32 = 200;
/// Local-pref assigned to peer-learned routes.
pub const GR_LP_PEER: u32 = 100;
/// Local-pref assigned to provider-learned routes.
pub const GR_LP_PROVIDER: u32 = 50;

/// The business relationship of a neighbor, from this router's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PeerRole {
    /// The neighbor pays us for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay the neighbor for transit.
    Provider,
}

impl PeerRole {
    fn tag(self) -> u32 {
        match self {
            PeerRole::Customer => GR_FROM_CUSTOMER,
            PeerRole::Peer => GR_FROM_PEER,
            PeerRole::Provider => GR_FROM_PROVIDER,
        }
    }

    fn local_pref(self) -> u32 {
        match self {
            PeerRole::Customer => GR_LP_CUSTOMER,
            PeerRole::Peer => GR_LP_PEER,
            PeerRole::Provider => GR_LP_PROVIDER,
        }
    }
}

/// Compiles the Gao-Rexford rules for a neighbor in `role` down to a
/// [`PeerPolicy`]:
///
/// * **import** — strip any stale role tags, tag with this peer's role,
///   set local-pref so customer routes beat peer routes beat provider
///   routes (prefer-customer).
/// * **export** — toward customers everything goes; toward peers and
///   providers only customer-learned routes (carrying
///   [`GR_FROM_CUSTOMER`]) and locally originated routes (empty AS path at
///   export time) are announced — the valley-free export rule.
pub fn gao_rexford_policy(role: PeerRole) -> PeerPolicy {
    let strip = vec![GR_FROM_CUSTOMER, GR_FROM_PEER, GR_FROM_PROVIDER];
    let import = RouteMap::new(vec![RouteMapClause {
        action: PolicyAction::Permit,
        matches: RouteMapMatch::default(),
        set: RouteMapSet {
            local_pref: Some(role.local_pref()),
            add_communities: vec![role.tag()],
            del_communities: strip,
            ..RouteMapSet::default()
        },
    }]);
    let export = match role {
        // Customers get the full table.
        PeerRole::Customer => RouteMap::permit_all(),
        // Peers and providers get customer routes and our own originations
        // only; everything else falls through to the implicit deny.
        PeerRole::Peer | PeerRole::Provider => RouteMap::new(vec![
            RouteMapClause {
                action: PolicyAction::Permit,
                matches: RouteMapMatch {
                    communities: vec![GR_FROM_CUSTOMER],
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet::default(),
            },
            RouteMapClause {
                action: PolicyAction::Permit,
                matches: RouteMapMatch {
                    as_path: Some(AsPathRegex::parse("^$").expect("static pattern")),
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet::default(),
            },
        ]),
    };
    PeerPolicy {
        import: Some(Arc::new(import)),
        export: Some(Arc::new(export)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AsPathSegment, Origin};
    use std::net::Ipv4Addr;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &[u16]) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(path.to_vec())],
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            med: None,
            local_pref: None,
            communities: vec![],
            unknown: vec![],
        }
    }

    #[test]
    fn prefix_match_within_and_exact() {
        let within = PrefixMatch::within(pfx("10.0.0.0/8"));
        assert!(within.matches(pfx("10.0.0.0/8")));
        assert!(within.matches(pfx("10.1.2.0/24")));
        assert!(!within.matches(pfx("11.0.0.0/8")));
        assert!(!within.matches(pfx("0.0.0.0/0")), "shorter than root");
        let exact = PrefixMatch::exact(pfx("10.1.0.0/16"));
        assert!(exact.matches(pfx("10.1.0.0/16")));
        assert!(!exact.matches(pfx("10.1.2.0/24")));
        // ge/le window
        let win = PrefixMatch {
            prefix: pfx("10.0.0.0/8"),
            min_len: 16,
            max_len: 24,
        };
        assert!(!win.matches(pfx("10.0.0.0/8")));
        assert!(win.matches(pfx("10.3.0.0/16")));
        assert!(win.matches(pfx("10.3.9.0/24")));
        assert!(!win.matches(pfx("10.3.9.128/25")));
        // default route covers everything
        assert!(PrefixMatch::within(pfx("0.0.0.0/0")).matches(pfx("192.168.0.0/16")));
    }

    #[test]
    fn as_path_regex_semantics() {
        let a = attrs(&[64512, 64513, 64514]);
        // Unanchored literal: substring semantics.
        assert!(AsPathRegex::parse("64513").unwrap().matches(&a));
        assert!(!AsPathRegex::parse("64999").unwrap().matches(&a));
        // Anchors.
        assert!(AsPathRegex::parse("^64512").unwrap().matches(&a));
        assert!(!AsPathRegex::parse("^64513").unwrap().matches(&a));
        assert!(AsPathRegex::parse("64514$").unwrap().matches(&a));
        assert!(!AsPathRegex::parse("64512$").unwrap().matches(&a));
        assert!(AsPathRegex::parse("^64512 * 64514$").unwrap().matches(&a));
        assert!(AsPathRegex::parse("^64512 ? 64514$").unwrap().matches(&a));
        assert!(!AsPathRegex::parse("^64512 ? ? 64514$").unwrap().matches(&a));
        // Empty path.
        let local = attrs(&[]);
        assert!(AsPathRegex::parse("^$").unwrap().matches(&local));
        assert!(!AsPathRegex::parse("^$").unwrap().matches(&a));
        // `*` alone matches anything.
        assert!(AsPathRegex::parse("^*$").unwrap().matches(&local));
        assert!(AsPathRegex::parse("^*$").unwrap().matches(&a));
        // Parse errors.
        assert!(AsPathRegex::parse("^not-an-asn$").is_err());
    }

    #[test]
    fn first_match_wins_and_implicit_deny() {
        let map = RouteMap::new(vec![
            RouteMapClause {
                action: PolicyAction::Deny,
                matches: RouteMapMatch {
                    prefixes: vec![PrefixMatch::within(pfx("10.0.0.0/8"))],
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet::default(),
            },
            RouteMapClause {
                action: PolicyAction::Permit,
                matches: RouteMapMatch {
                    prefixes: vec![PrefixMatch::within(pfx("10.0.0.0/8"))],
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet {
                    local_pref: Some(999),
                    ..RouteMapSet::default()
                },
            },
            RouteMapClause {
                action: PolicyAction::Permit,
                matches: RouteMapMatch {
                    prefixes: vec![PrefixMatch::within(pfx("172.16.0.0/12"))],
                    ..RouteMapMatch::default()
                },
                set: RouteMapSet::default(),
            },
        ]);
        let a = attrs(&[64512]);
        // First (deny) clause shadows the later permit for 10/8.
        assert_eq!(map.apply(pfx("10.1.0.0/16"), &a, 1), PolicyVerdict::Deny);
        // Second permit reachable only for prefixes the deny misses: none
        // here, so 172.16 hits clause 3 and passes unchanged.
        assert_eq!(
            map.apply(pfx("172.16.5.0/24"), &a, 1),
            PolicyVerdict::Permit(None)
        );
        // No clause matches 192.168/16: implicit deny.
        assert_eq!(map.apply(pfx("192.168.0.0/16"), &a, 1), PolicyVerdict::Deny);
    }

    #[test]
    fn set_block_transformations() {
        let set = RouteMapSet {
            local_pref: Some(50),
            med: Some(7),
            add_communities: vec![9, 3],
            del_communities: vec![1],
            prepend: 2,
        };
        let mut a = attrs(&[64513]);
        a.communities = vec![1, 3];
        let out = set.apply(&a, 64512);
        assert_eq!(out.local_pref, Some(50));
        assert_eq!(out.med, Some(7));
        assert_eq!(out.communities, vec![3, 9], "del then add, sorted deduped");
        assert_eq!(
            out.as_path,
            vec![AsPathSegment::Sequence(vec![64512, 64512, 64513])]
        );
        // No-op set returns Permit(None) through the map (no clone).
        let map = RouteMap::permit_all();
        assert_eq!(
            map.apply(pfx("10.0.0.0/8"), &a, 64512),
            PolicyVerdict::Permit(None)
        );
    }

    #[test]
    fn community_match_requires_all() {
        let map = RouteMap::new(vec![RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch {
                communities: vec![3, 9],
                ..RouteMapMatch::default()
            },
            set: RouteMapSet::default(),
        }]);
        let mut a = attrs(&[64512]);
        a.communities = vec![3];
        assert_eq!(map.apply(pfx("10.0.0.0/8"), &a, 1), PolicyVerdict::Deny);
        a.communities = vec![3, 9, 11];
        assert_eq!(
            map.apply(pfx("10.0.0.0/8"), &a, 1),
            PolicyVerdict::Permit(None)
        );
    }

    #[test]
    fn gao_rexford_import_tags_and_prefs() {
        for (role, lp, tag) in [
            (PeerRole::Customer, GR_LP_CUSTOMER, GR_FROM_CUSTOMER),
            (PeerRole::Peer, GR_LP_PEER, GR_FROM_PEER),
            (PeerRole::Provider, GR_LP_PROVIDER, GR_FROM_PROVIDER),
        ] {
            let p = gao_rexford_policy(role);
            let import = p.import.unwrap();
            // A route arriving with a stale tag from the previous hop gets
            // retagged with *this* peer's role.
            let mut a = attrs(&[64513]);
            a.communities = vec![GR_FROM_CUSTOMER];
            match import.apply(pfx("10.0.0.0/8"), &a, 64512) {
                PolicyVerdict::Permit(Some(out)) => {
                    assert_eq!(out.local_pref, Some(lp));
                    assert_eq!(out.communities, vec![tag]);
                }
                other => panic!("expected modified permit, got {other:?}"),
            }
        }
    }

    #[test]
    fn gao_rexford_export_is_valley_free() {
        let customer_route = {
            let mut a = attrs(&[64513]);
            a.communities = vec![GR_FROM_CUSTOMER];
            a
        };
        let provider_route = {
            let mut a = attrs(&[64514]);
            a.communities = vec![GR_FROM_PROVIDER];
            a
        };
        let local_route = attrs(&[]);
        let p = pfx("10.0.0.0/8");
        // Toward a customer: everything goes.
        let to_customer = gao_rexford_policy(PeerRole::Customer).export.unwrap();
        assert_ne!(
            to_customer.apply(p, &provider_route, 1),
            PolicyVerdict::Deny
        );
        // Toward a peer or provider: customer + local only.
        for role in [PeerRole::Peer, PeerRole::Provider] {
            let export = gao_rexford_policy(role).export.unwrap();
            assert_ne!(export.apply(p, &customer_route, 1), PolicyVerdict::Deny);
            assert_ne!(export.apply(p, &local_route, 1), PolicyVerdict::Deny);
            assert_eq!(export.apply(p, &provider_route, 1), PolicyVerdict::Deny);
        }
    }

    #[test]
    fn prefix_sensitivity_is_detected() {
        assert!(!RouteMap::permit_all().prefix_sensitive());
        assert!(!gao_rexford_policy(PeerRole::Peer)
            .export
            .unwrap()
            .prefix_sensitive());
        let map = RouteMap::new(vec![RouteMapClause {
            action: PolicyAction::Permit,
            matches: RouteMapMatch {
                prefixes: vec![PrefixMatch::within(pfx("10.0.0.0/8"))],
                ..RouteMapMatch::default()
            },
            set: RouteMapSet::default(),
        }]);
        assert!(map.prefix_sensitive());
    }
}
