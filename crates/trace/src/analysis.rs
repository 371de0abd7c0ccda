//! Post-pass analyses over a merged [`TraceLog`]: FTI residency attribution
//! and per-speaker convergence timelines.

use crate::event::{fmt_ip, Component, TraceData};
use crate::log::TraceLog;
use horse_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Conversation name for an event, if it names one.
///
/// A *conversation* is the unit FTI residency is attributed to: one BGP
/// session ("bgp:n3<->10.0.0.7"), one switch's OpenFlow exchange
/// ("of:sw12"), the controller's periodic timer ("of:controller-timer"),
/// or a link event ("link:4"). Events that don't name a conversation
/// (pump bookkeeping, RIB work, event dispatch) leave the current
/// attribution unchanged.
pub fn conversation_of(component: Component, data: &TraceData) -> Option<String> {
    match *data {
        TraceData::BgpFsm { peer, .. }
        | TraceData::BgpTx { peer, .. }
        | TraceData::BgpRx { peer, .. }
        | TraceData::BgpUnsendable { peer, .. }
        | TraceData::MraiFlush { peer, .. } => match component {
            Component::Bgp(n) => Some(format!("bgp:n{n}<->{}", fmt_ip(peer))),
            _ => Some(format!("bgp:{}", fmt_ip(peer))),
        },
        TraceData::OfPacketIn { node, .. }
        | TraceData::OfFlowMod { node }
        | TraceData::OfStatsReply { node, .. }
        | TraceData::FlowRemoved { node, .. } => Some(format!("of:sw{node}")),
        TraceData::OfPacketInRx { dpid }
        | TraceData::OfFlowModTx { dpid }
        | TraceData::OfStatsReqTx { dpid }
        | TraceData::OfStatsReplyRx { dpid, .. } => Some(format!("of:sw{dpid}")),
        TraceData::OfTimer => Some("of:controller-timer".to_string()),
        TraceData::LinkChange { link, .. } => Some(format!("link:{link}")),
        TraceData::ModeEnter { .. }
        | TraceData::EventDispatch { .. }
        | TraceData::PumpNode { .. }
        | TraceData::RibWork { .. } => None,
    }
}

/// Result of [`attribute_fti`]: how much FTI time each control-plane
/// conversation held the clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtiAttribution {
    /// Total FTI time derived from the traced mode spans.
    pub total_fti: SimDuration,
    /// FTI time credited to a named conversation (the rest predates the
    /// first conversation-naming event of its span).
    pub attributed: SimDuration,
    /// Per-conversation FTI residency, largest first (name breaks ties).
    pub by_conversation: Vec<(String, SimDuration)>,
}

impl FtiAttribution {
    /// Fraction of traced FTI time attributed to a named conversation
    /// (1.0 when there was no FTI time at all).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_fti.is_zero() {
            1.0
        } else {
            self.attributed.as_secs_f64() / self.total_fti.as_secs_f64()
        }
    }

    /// One-line human summary, e.g. for example binaries.
    pub fn summary_line(&self) -> String {
        let mut s = format!(
            "fti attribution: {:.1}% of {} across {} conversation(s)",
            100.0 * self.attributed_fraction(),
            self.total_fti,
            self.by_conversation.len()
        );
        if let Some((name, d)) = self.by_conversation.first() {
            s.push_str(&format!("; top: {name} ({d})"));
        }
        s
    }
}

/// Walks the merged stream and credits every FTI interval to the
/// conversation that was active when the interval began.
///
/// The sweep keeps a "current conversation" — the most recent event that
/// names one (see [`conversation_of`]). Each FTI span is cut at every event
/// timestamp inside it; each segment is credited to the current conversation
/// at the segment's start. The quiescence tail of a span (after the last
/// control event, before the demotion to DES) is therefore credited to the
/// conversation that drove the final exchange, which is exactly the
/// conversation that held the clock in FTI.
pub fn attribute_fti(log: &TraceLog) -> FtiAttribution {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    let mut unattributed: u64 = 0;
    let mut total: u64 = 0;
    let mut in_fti = false;
    let mut seg_start = SimTime::ZERO;
    let mut cur: Option<String> = None;

    let credit = |acc: &mut BTreeMap<String, u64>,
                  unattributed: &mut u64,
                  total: &mut u64,
                  cur: &Option<String>,
                  from: SimTime,
                  to: SimTime| {
        let ns = to.duration_since(from).as_nanos();
        if ns == 0 {
            return;
        }
        *total += ns;
        match cur {
            Some(name) => *acc.entry(name.clone()).or_insert(0) += ns,
            None => *unattributed += ns,
        }
    };

    for (component, ev) in &log.events {
        if in_fti && ev.t > seg_start {
            credit(
                &mut acc,
                &mut unattributed,
                &mut total,
                &cur,
                seg_start,
                ev.t,
            );
            seg_start = ev.t;
        }
        match &ev.data {
            TraceData::ModeEnter { fti, .. } => {
                if *fti && !in_fti {
                    in_fti = true;
                    seg_start = ev.t;
                } else if !*fti {
                    in_fti = false;
                }
            }
            data => {
                if let Some(name) = conversation_of(*component, data) {
                    cur = Some(name);
                }
            }
        }
    }
    if in_fti {
        credit(
            &mut acc,
            &mut unattributed,
            &mut total,
            &cur,
            seg_start,
            log.end,
        );
    }

    let mut by_conversation: Vec<(String, SimDuration)> = acc
        .into_iter()
        .map(|(name, ns)| (name, SimDuration::from_nanos(ns)))
        .collect();
    by_conversation.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    FtiAttribution {
        total_fti: SimDuration::from_nanos(total),
        attributed: SimDuration::from_nanos(total - unattributed),
        by_conversation,
    }
}

/// Convergence timeline for one BGP speaker, derived from its trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeakerTimeline {
    /// Speaker node id.
    pub node: u32,
    /// `(time, peer)` for every transition into `Established`.
    pub established: Vec<(SimTime, String)>,
    /// UPDATE messages sent.
    pub updates_tx: u64,
    /// UPDATE messages received.
    pub updates_rx: u64,
    /// Time of the last route-bearing activity (tx, rx, or MRAI flush) —
    /// the speaker's local convergence point.
    pub last_activity: Option<SimTime>,
}

/// Derives per-speaker convergence timelines from the merged log, sorted by
/// node id.
pub fn convergence_timeline(log: &TraceLog) -> Vec<SpeakerTimeline> {
    let mut by_node: BTreeMap<u32, SpeakerTimeline> = BTreeMap::new();
    for (component, ev) in &log.events {
        let Component::Bgp(node) = component else {
            continue;
        };
        let tl = by_node.entry(*node).or_insert_with(|| SpeakerTimeline {
            node: *node,
            established: Vec::new(),
            updates_tx: 0,
            updates_rx: 0,
            last_activity: None,
        });
        match &ev.data {
            TraceData::BgpFsm { peer, to, .. } if *to == "established" => {
                tl.established.push((ev.t, fmt_ip(*peer)));
            }
            TraceData::BgpTx { .. } => {
                tl.updates_tx += 1;
                tl.last_activity = Some(ev.t);
            }
            TraceData::BgpRx { .. } => {
                tl.updates_rx += 1;
                tl.last_activity = Some(ev.t);
            }
            TraceData::MraiFlush { .. } => {
                tl.last_activity = Some(ev.t);
            }
            _ => {}
        }
    }
    by_node.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::log::ComponentLog;

    fn ev(t_ns: u64, seq: u64, data: TraceData) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_nanos(t_ns),
            wall_ns: 0,
            seq,
            data,
        }
    }

    fn peer(last: u8) -> u32 {
        u32::from_be_bytes([10, 0, 0, last])
    }

    #[test]
    fn fti_time_credits_active_conversation() {
        let runner = ComponentLog {
            component: Component::Runner,
            dropped: 0,
            events: vec![
                ev(
                    0,
                    0,
                    TraceData::ModeEnter {
                        fti: false,
                        cause: "start",
                    },
                ),
                ev(
                    100,
                    1,
                    TraceData::ModeEnter {
                        fti: true,
                        cause: "pump",
                    },
                ),
                ev(
                    500,
                    2,
                    TraceData::ModeEnter {
                        fti: false,
                        cause: "quiescence",
                    },
                ),
            ],
        };
        let bgp = ComponentLog {
            component: Component::Bgp(3),
            dropped: 0,
            events: vec![ev(
                100,
                0,
                TraceData::BgpRx {
                    peer: peer(7),
                    announced: 2,
                    withdrawn: 0,
                },
            )],
        };
        let log = TraceLog::assemble(vec![runner, bgp], SimTime::from_nanos(600));
        let attr = attribute_fti(&log);
        assert_eq!(attr.total_fti, SimDuration::from_nanos(400));
        assert_eq!(attr.attributed, SimDuration::from_nanos(400));
        assert_eq!(attr.by_conversation.len(), 1);
        assert_eq!(attr.by_conversation[0].0, "bgp:n3<->10.0.0.7");
        assert!((attr.attributed_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fti_before_any_conversation_is_unattributed() {
        let runner = ComponentLog {
            component: Component::Runner,
            dropped: 0,
            events: vec![
                ev(
                    0,
                    0,
                    TraceData::ModeEnter {
                        fti: true,
                        cause: "pump",
                    },
                ),
                ev(
                    200,
                    1,
                    TraceData::ModeEnter {
                        fti: false,
                        cause: "quiescence",
                    },
                ),
            ],
        };
        let log = TraceLog::assemble(vec![runner], SimTime::from_nanos(300));
        let attr = attribute_fti(&log);
        assert_eq!(attr.total_fti, SimDuration::from_nanos(200));
        assert_eq!(attr.attributed, SimDuration::ZERO);
        assert!(attr.by_conversation.is_empty());
    }

    #[test]
    fn open_fti_span_closes_at_log_end() {
        let runner = ComponentLog {
            component: Component::Runner,
            dropped: 0,
            events: vec![ev(
                100,
                0,
                TraceData::ModeEnter {
                    fti: true,
                    cause: "pump",
                },
            )],
        };
        let link = ComponentLog {
            component: Component::Pump,
            dropped: 0,
            events: vec![ev(100, 0, TraceData::LinkChange { link: 4, up: false })],
        };
        let log = TraceLog::assemble(vec![runner, link], SimTime::from_nanos(400));
        let attr = attribute_fti(&log);
        assert_eq!(attr.total_fti, SimDuration::from_nanos(300));
        assert_eq!(attr.by_conversation[0].0, "link:4");
    }

    #[test]
    fn timeline_collects_establishments_and_updates() {
        let bgp = ComponentLog {
            component: Component::Bgp(1),
            dropped: 0,
            events: vec![
                ev(
                    10,
                    0,
                    TraceData::BgpFsm {
                        peer: peer(2),
                        from: "open-confirm",
                        to: "established",
                    },
                ),
                ev(
                    20,
                    1,
                    TraceData::BgpTx {
                        peer: peer(2),
                        announced: 4,
                        withdrawn: 0,
                    },
                ),
                ev(
                    30,
                    2,
                    TraceData::BgpRx {
                        peer: peer(2),
                        announced: 1,
                        withdrawn: 1,
                    },
                ),
            ],
        };
        let log = TraceLog::assemble(vec![bgp], SimTime::from_nanos(50));
        let tls = convergence_timeline(&log);
        assert_eq!(tls.len(), 1);
        assert_eq!(tls[0].node, 1);
        assert_eq!(
            tls[0].established,
            vec![(SimTime::from_nanos(10), "10.0.0.2".to_string())]
        );
        assert_eq!(tls[0].updates_tx, 1);
        assert_eq!(tls[0].updates_rx, 1);
        assert_eq!(tls[0].last_activity, Some(SimTime::from_nanos(30)));
    }
}
