//! Trace event model: components, payloads, and the recorded event struct.
//!
//! Payloads are plain `Copy` data — recording an event never allocates.
//! Strings that appear in payloads are `&'static str` labels chosen at the
//! instrumentation site; numeric identifiers (node ids, datapath ids, peer
//! addresses as `u32` IPv4 bits) are formatted only at export time.

use horse_sim::SimTime;
use std::fmt;

/// Identifies the subsystem that recorded an event. Doubles as the trace
/// "thread": each component gets its own track in the Chrome export.
///
/// The derived `Ord` (variant order, then payload) is the tie-break used by
/// the deterministic merge in [`TraceLog::assemble`](crate::TraceLog::assemble).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// The hybrid run loop in `horse-core`: event dispatch and clock-mode
    /// transitions (with cause).
    Runner,
    /// The control-message pump (CM layer): per-node pump reasons and
    /// agent-side OpenFlow activity.
    Pump,
    /// The OpenFlow controller application.
    OfController,
    /// One emulated BGP speaker, keyed by node id.
    Bgp(u32),
}

impl Component {
    /// Human-readable track name ("runner", "pump", "of-controller",
    /// "bgp-n7").
    pub fn name(&self) -> String {
        match self {
            Component::Runner => "runner".to_string(),
            Component::Pump => "pump".to_string(),
            Component::OfController => "of-controller".to_string(),
            Component::Bgp(n) => format!("bgp-n{n}"),
        }
    }

    /// Stable thread id for the Chrome `trace_event` export. Runner is tid 0
    /// so the mode spans sit on the top track; BGP speakers start at 16.
    pub fn tid(&self) -> u64 {
        match self {
            Component::Runner => 0,
            Component::Pump => 1,
            Component::OfController => 2,
            Component::Bgp(n) => 16 + u64::from(*n),
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why the CM pump touched a node in a pump round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PumpReason {
    /// An in-flight control message reached the node this round.
    Delivery,
    /// A timer wheel deadline (MRAI, hold, retry, rule expiry) fired.
    Deadline,
    /// The node was marked dirty by a link event or other external change.
    LinkEvent,
}

impl PumpReason {
    /// Short label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            PumpReason::Delivery => "delivery",
            PumpReason::Deadline => "deadline",
            PumpReason::LinkEvent => "link-event",
        }
    }
}

/// Event payload. All variants are `Copy`; identifiers are raw numerics
/// (IPv4 peer addresses travel as their `u32` big-endian bit pattern).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceData {
    /// The hybrid clock entered a mode (`fti == false` means DES), with the
    /// runner-observed cause ("start", "pump", "packet-in", "link-change",
    /// "pending", "quiescence").
    ModeEnter {
        /// True when entering fluid-time-integration mode.
        fti: bool,
        /// What triggered the transition.
        cause: &'static str,
    },
    /// The runner dispatched one simulator event (flow start/stop,
    /// completion, sample, control tick, retry, link change).
    EventDispatch {
        /// Event kind label.
        kind: &'static str,
    },
    /// The CM pump touched `node` for `reason` this round.
    PumpNode {
        /// Node id.
        node: u32,
        /// Why the node was on the ready set.
        reason: PumpReason,
    },
    /// A link changed state (recorded by the control plane when told).
    LinkChange {
        /// Link index in the topology.
        link: u32,
        /// New state.
        up: bool,
    },
    /// A BGP session changed FSM state.
    BgpFsm {
        /// Peer address (IPv4 bits).
        peer: u32,
        /// State before.
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// The speaker sent one UPDATE message.
    BgpTx {
        /// Peer address (IPv4 bits).
        peer: u32,
        /// Prefixes announced in this UPDATE.
        announced: u32,
        /// Prefixes withdrawn in this UPDATE.
        withdrawn: u32,
    },
    /// The speaker received one UPDATE message.
    BgpRx {
        /// Peer address (IPv4 bits).
        peer: u32,
        /// Prefixes announced.
        announced: u32,
        /// Prefixes withdrawn.
        withdrawn: u32,
    },
    /// Announcements to a peer withheld because no UPDATE can carry them:
    /// the prefix does not fit behind its attribute block.
    BgpUnsendable {
        /// Peer address (IPv4 bits).
        peer: u32,
        /// Prefixes withheld in this sync.
        prefixes: u32,
    },
    /// An MRAI hold-down expired and the pending batch flushed to the peer.
    MraiFlush {
        /// Peer address (IPv4 bits).
        peer: u32,
        /// Prefixes in the flushed batch.
        prefixes: u32,
    },
    /// Decision work done while reconciling the RIB after an UPDATE.
    RibWork {
        /// Best-path decisions computed.
        decides: u32,
        /// Decisions served from the memoized cache.
        cache_hits: u32,
    },
    /// A table-miss packet entered the switch agent (PACKET_IN, CM side).
    OfPacketIn {
        /// Switch node id.
        node: u32,
        /// Ingress port.
        port: u32,
    },
    /// The controller received a PACKET_IN.
    OfPacketInRx {
        /// Datapath id.
        dpid: u64,
    },
    /// The controller sent a FLOW_MOD.
    OfFlowModTx {
        /// Datapath id.
        dpid: u64,
    },
    /// A FLOW_MOD was applied to a switch table (CM side).
    OfFlowMod {
        /// Switch node id.
        node: u32,
    },
    /// The controller sent a flow-stats request.
    OfStatsReqTx {
        /// Datapath id.
        dpid: u64,
    },
    /// A switch agent answered a stats request (CM side).
    OfStatsReply {
        /// Switch node id.
        node: u32,
        /// Table entries reported.
        entries: u32,
    },
    /// The controller received a flow-stats reply.
    OfStatsReplyRx {
        /// Datapath id.
        dpid: u64,
        /// Entries in the reply.
        entries: u32,
    },
    /// The controller application's periodic timer fired.
    OfTimer,
    /// Idle-timeout sweep removed expired rules from a switch table.
    FlowRemoved {
        /// Switch node id.
        node: u32,
        /// Rules removed.
        entries: u32,
    },
}

impl TraceData {
    /// Stable snake_case kind label (the `name` field in exports).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceData::ModeEnter { fti: true, .. } => "fti_enter",
            TraceData::ModeEnter { fti: false, .. } => "des_enter",
            TraceData::EventDispatch { .. } => "event_dispatch",
            TraceData::PumpNode { .. } => "pump_node",
            TraceData::LinkChange { .. } => "link_change",
            TraceData::BgpFsm { .. } => "bgp_fsm",
            TraceData::BgpTx { .. } => "bgp_tx",
            TraceData::BgpRx { .. } => "bgp_rx",
            TraceData::BgpUnsendable { .. } => "bgp_unsendable",
            TraceData::MraiFlush { .. } => "mrai_flush",
            TraceData::RibWork { .. } => "rib_work",
            TraceData::OfPacketIn { .. } => "of_packet_in",
            TraceData::OfPacketInRx { .. } => "of_packet_in_rx",
            TraceData::OfFlowModTx { .. } => "of_flow_mod_tx",
            TraceData::OfFlowMod { .. } => "of_flow_mod",
            TraceData::OfStatsReqTx { .. } => "of_stats_req_tx",
            TraceData::OfStatsReply { .. } => "of_stats_reply",
            TraceData::OfStatsReplyRx { .. } => "of_stats_reply_rx",
            TraceData::OfTimer => "of_timer",
            TraceData::FlowRemoved { .. } => "flow_removed",
        }
    }

    /// JSON object with the payload fields (no surrounding event metadata).
    pub fn args_json(&self) -> String {
        match *self {
            TraceData::ModeEnter { fti, cause } => {
                format!("{{\"fti\":{fti},\"cause\":\"{cause}\"}}")
            }
            TraceData::EventDispatch { kind } => format!("{{\"kind\":\"{kind}\"}}"),
            TraceData::PumpNode { node, reason } => {
                format!("{{\"node\":{node},\"reason\":\"{}\"}}", reason.label())
            }
            TraceData::LinkChange { link, up } => format!("{{\"link\":{link},\"up\":{up}}}"),
            TraceData::BgpFsm { peer, from, to } => {
                format!(
                    "{{\"peer\":\"{}\",\"from\":\"{from}\",\"to\":\"{to}\"}}",
                    fmt_ip(peer)
                )
            }
            TraceData::BgpTx {
                peer,
                announced,
                withdrawn,
            } => format!(
                "{{\"peer\":\"{}\",\"announced\":{announced},\"withdrawn\":{withdrawn}}}",
                fmt_ip(peer)
            ),
            TraceData::BgpRx {
                peer,
                announced,
                withdrawn,
            } => format!(
                "{{\"peer\":\"{}\",\"announced\":{announced},\"withdrawn\":{withdrawn}}}",
                fmt_ip(peer)
            ),
            TraceData::BgpUnsendable { peer, prefixes }
            | TraceData::MraiFlush { peer, prefixes } => {
                format!("{{\"peer\":\"{}\",\"prefixes\":{prefixes}}}", fmt_ip(peer))
            }
            TraceData::RibWork {
                decides,
                cache_hits,
            } => {
                format!("{{\"decides\":{decides},\"cache_hits\":{cache_hits}}}")
            }
            TraceData::OfPacketIn { node, port } => {
                format!("{{\"node\":{node},\"port\":{port}}}")
            }
            TraceData::OfPacketInRx { dpid } => format!("{{\"dpid\":{dpid}}}"),
            TraceData::OfFlowModTx { dpid } => format!("{{\"dpid\":{dpid}}}"),
            TraceData::OfFlowMod { node } => format!("{{\"node\":{node}}}"),
            TraceData::OfStatsReqTx { dpid } => format!("{{\"dpid\":{dpid}}}"),
            TraceData::OfStatsReply { node, entries } => {
                format!("{{\"node\":{node},\"entries\":{entries}}}")
            }
            TraceData::OfStatsReplyRx { dpid, entries } => {
                format!("{{\"dpid\":{dpid},\"entries\":{entries}}}")
            }
            TraceData::OfTimer => "{}".to_string(),
            TraceData::FlowRemoved { node, entries } => {
                format!("{{\"node\":{node},\"entries\":{entries}}}")
            }
        }
    }
}

/// Formats IPv4 bits as dotted-quad.
pub fn fmt_ip(bits: u32) -> String {
    let [a, b, c, d] = bits.to_be_bytes();
    format!("{a}.{b}.{c}.{d}")
}

/// One recorded event: virtual time, wall nanoseconds since the run epoch,
/// per-component sequence number, and the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the event describes.
    pub t: SimTime,
    /// Wall-clock nanoseconds since the run's trace epoch when recorded.
    pub wall_ns: u64,
    /// Monotone per-component sequence number (merge tie-break).
    pub seq: u64,
    /// The payload.
    pub data: TraceData,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_ordering_is_stable() {
        let mut v = vec![
            Component::Bgp(2),
            Component::Pump,
            Component::Bgp(0),
            Component::Runner,
            Component::OfController,
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Component::Runner,
                Component::Pump,
                Component::OfController,
                Component::Bgp(0),
                Component::Bgp(2),
            ]
        );
    }

    #[test]
    fn ip_formatting() {
        assert_eq!(fmt_ip(u32::from_be_bytes([10, 0, 0, 7])), "10.0.0.7");
    }

    #[test]
    fn args_are_json_objects() {
        let d = TraceData::BgpTx {
            peer: u32::from_be_bytes([10, 0, 1, 2]),
            announced: 3,
            withdrawn: 1,
        };
        assert_eq!(
            d.args_json(),
            "{\"peer\":\"10.0.1.2\",\"announced\":3,\"withdrawn\":1}"
        );
        assert_eq!(d.kind(), "bgp_tx");
    }
}
