//! The per-peer BGP finite state machine.
//!
//! A trimmed but faithful RFC 4271 FSM: `Idle → Connect → OpenSent →
//! OpenConfirm → Established`, with connect-retry, hold and keepalive
//! timers. (The `Active` state collapses into `Connect`: transport dialing
//! is the harness's job — the Connection Manager wires duplex byte pipes —
//! so the distinction between initiating and listening never arises.)
//!
//! The session is sans-IO: bytes in via [`Session::on_bytes`], wall/virtual
//! clock in via the `now` arguments, and everything outgoing is queued as
//! [`SessionEvent`]s the caller drains with [`Session::swap_events`].
//!
//! An UPDATE received in Established has its attribute block resolved
//! against the RIB's attribute pool inside the decode loop
//! (`LocRib::resolve_wire`): a block the pool has seen is not decoded
//! again, and a malformed one fails the same check at the same message as
//! a full decode would.

use crate::msg::{
    decode_attrs, Capability, CodecError, Frame, Message, Notification, OpenMsg, StreamDecoder,
    Update, BGP_VERSION,
};
use crate::rib::{LocRib, RxAttrs};
use bytes::Bytes;
use horse_sim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Static configuration of one peering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerConfig {
    /// The neighbor's address (session key; also the expected next hop).
    pub peer_addr: Ipv4Addr,
    /// Our address on the shared subnet (sent as NEXT_HOP on eBGP export).
    pub local_addr: Ipv4Addr,
    /// The neighbor's AS number (validated against its OPEN).
    pub remote_as: u16,
}

/// FSM states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// Not trying.
    Idle,
    /// Waiting for the transport to come up.
    Connect,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged, waiting for KEEPALIVE.
    OpenConfirm,
    /// Up; routes flow.
    Established,
}

/// Why a session went down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownReason {
    /// Our hold timer expired.
    HoldTimerExpired,
    /// The peer sent a NOTIFICATION.
    PeerNotification(Notification),
    /// The byte stream was unparseable.
    CodecError(CodecError),
    /// The peer's OPEN failed validation.
    OpenRejected(&'static str),
    /// The transport dropped underneath us.
    TransportClosed,
    /// A message arrived that the current state forbids.
    FsmError,
}

/// A received UPDATE, its attributes resolved to the RIB's pool.
pub type RxUpdate = Update<RxAttrs>;

/// Outputs of the FSM, drained by the speaker.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// Bytes to write to the peer's transport.
    SendBytes(Bytes),
    /// The session reached Established.
    Established,
    /// The session fell back to Idle.
    Down(DownReason),
    /// An UPDATE arrived (only in Established).
    Update(RxUpdate),
}

/// Timer configuration. The defaults are deliberately snappier than RFC
/// suggestions (hold 90 s) so laptop-scale experiments converge quickly;
/// the fat-tree scenarios override them further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerConfig {
    /// Proposed hold time (0 disables keepalives entirely).
    pub hold_time: SimDuration,
    /// Delay between transport retry attempts while in Connect.
    pub connect_retry: SimDuration,
    /// MinRouteAdvertisementInterval (RFC 4271 §9.2.1.1): minimum spacing
    /// between successive UPDATE bursts to the same peer. Zero (the
    /// default here, and what modern data-center BGP uses) advertises
    /// immediately; classic eBGP defaults to 30 s. Enforced by the
    /// speaker, which batches changes accrued during the hold-down.
    pub mrai: SimDuration,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            hold_time: SimDuration::from_secs(90),
            connect_retry: SimDuration::from_secs(5),
            mrai: SimDuration::ZERO,
        }
    }
}

/// One BGP session (peering) state machine.
#[derive(Debug)]
pub struct Session {
    /// Peering configuration.
    pub config: PeerConfig,
    local_as: u16,
    router_id: Ipv4Addr,
    timers: TimerConfig,
    state: SessionState,
    decoder: StreamDecoder,
    events: Vec<SessionEvent>,
    hold_deadline: Option<SimTime>,
    keepalive_deadline: Option<SimTime>,
    connect_deadline: Option<SimTime>,
    negotiated_hold: SimDuration,
    /// Counters for observability/tests.
    pub msgs_sent: u64,
    /// Messages received (all types).
    pub msgs_received: u64,
}

impl Session {
    /// Creates an idle session.
    pub fn new(
        config: PeerConfig,
        local_as: u16,
        router_id: Ipv4Addr,
        timers: TimerConfig,
    ) -> Session {
        Session {
            config,
            local_as,
            router_id,
            timers,
            state: SessionState::Idle,
            decoder: StreamDecoder::new(),
            events: Vec::new(),
            hold_deadline: None,
            keepalive_deadline: None,
            connect_deadline: None,
            negotiated_hold: timers.hold_time,
            msgs_sent: 0,
            msgs_received: 0,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// True once Established.
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }

    /// True when outputs are queued.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Drains queued outputs into `out`, which must be empty: the two
    /// buffers trade places, so a caller that keeps `out` around drains
    /// without allocating on either side.
    pub fn swap_events(&mut self, out: &mut Vec<SessionEvent>) {
        debug_assert!(out.is_empty(), "swap_events into a non-empty buffer");
        std::mem::swap(&mut self.events, out);
    }

    /// Administratively starts the session (Idle → Connect).
    pub fn start(&mut self, now: SimTime) {
        if self.state == SessionState::Idle {
            self.state = SessionState::Connect;
            self.connect_deadline = Some(now + self.timers.connect_retry);
        }
    }

    /// The transport (TCP in the paper; a byte pipe here) came up:
    /// send our OPEN.
    pub fn on_transport_up(&mut self, _now: SimTime) {
        if self.state != SessionState::Connect {
            return;
        }
        let open = OpenMsg {
            version: BGP_VERSION,
            my_as: self.local_as,
            hold_time: self.timers.hold_time.as_secs_f64() as u16,
            bgp_id: self.router_id,
            capabilities: vec![Capability::Multiprotocol { afi: 1, safi: 1 }],
        };
        self.send(Message::Open(open));
        self.connect_deadline = None;
        self.state = SessionState::OpenSent;
    }

    /// The transport dropped.
    pub fn on_transport_down(&mut self, now: SimTime) {
        if self.state != SessionState::Idle {
            self.go_down(now, DownReason::TransportClosed);
        }
    }

    /// Feeds received bytes through the decoder and the FSM. UPDATE
    /// attribute blocks received in Established are resolved through
    /// `rib`'s pool; in any other state an UPDATE is only validated, since
    /// the FSM rejects it.
    pub fn on_bytes(&mut self, now: SimTime, bytes: &[u8], rib: &LocRib) {
        self.decoder.push(bytes);
        loop {
            let established = self.is_established();
            let frame = self.decoder.next_frame(|block| {
                if established {
                    rib.resolve_wire(block).map(Some)
                } else {
                    decode_attrs(block).map(|_| None)
                }
            });
            match frame {
                Ok(Some(frame)) => {
                    self.msgs_received += 1;
                    self.on_message(now, frame);
                    if self.state == SessionState::Idle {
                        return; // went down mid-stream
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    self.send(Message::Notification(Notification {
                        code: 1, // message header / update error family
                        subcode: 0,
                        data: Vec::new(),
                    }));
                    self.go_down(now, DownReason::CodecError(e));
                    return;
                }
            }
        }
    }

    /// Sends one already encoded UPDATE (only meaningful in Established).
    /// The caller has encoded it within the RFC 4271 4096-byte maximum —
    /// the speaker builds the bytes once per best-path change and
    /// re-addresses them per peer (see [`crate::msg::encode_updates`]).
    pub fn send_encoded_update(&mut self, bytes: Bytes) {
        debug_assert!(self.is_established(), "update outside Established");
        debug_assert!(
            matches!(Message::decode(&bytes), Ok(Some((Message::Update(_), n))) if n == bytes.len()),
            "not exactly one encoded UPDATE"
        );
        self.msgs_sent += 1;
        self.events.push(SessionEvent::SendBytes(bytes));
    }

    /// Fires due timers. Call whenever the clock advances; cheap when
    /// nothing is due.
    pub fn poll_timers(&mut self, now: SimTime) {
        if let Some(d) = self.connect_deadline {
            if now >= d && self.state == SessionState::Connect {
                // Still waiting for transport; re-arm (the harness retries).
                self.connect_deadline = Some(now + self.timers.connect_retry);
            }
        }
        if let Some(d) = self.hold_deadline {
            if now >= d {
                self.send(Message::Notification(Notification::hold_timer_expired()));
                self.go_down(now, DownReason::HoldTimerExpired);
                return;
            }
        }
        if let Some(d) = self.keepalive_deadline {
            if now >= d && matches!(self.state, SessionState::Established) {
                self.send(Message::Keepalive);
                self.arm_keepalive(now);
            }
        }
    }

    /// The earliest pending timer deadline, if any (lets a DES harness
    /// schedule the next poll precisely).
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.connect_deadline,
            self.hold_deadline,
            self.keepalive_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn on_message(&mut self, now: SimTime, frame: Frame<Option<RxAttrs>>) {
        let msg = match frame {
            Frame::Update(update) if self.is_established() => {
                self.arm_hold(now);
                self.events.push(SessionEvent::Update(Update {
                    withdrawn: update.withdrawn,
                    attrs: update.attrs.flatten(),
                    nlri: update.nlri,
                }));
                return;
            }
            Frame::Update(_) => return self.fsm_error(now),
            Frame::Other(msg) => msg,
        };
        match (self.state, msg) {
            (SessionState::OpenSent, Message::Open(open)) => {
                if open.version != BGP_VERSION {
                    self.send(Message::Notification(Notification::open_error(1)));
                    self.go_down(now, DownReason::OpenRejected("version"));
                    return;
                }
                if open.my_as != self.config.remote_as {
                    self.send(Message::Notification(Notification::open_error(2)));
                    self.go_down(now, DownReason::OpenRejected("peer AS"));
                    return;
                }
                let their_hold = SimDuration::from_secs(u64::from(open.hold_time));
                self.negotiated_hold = if open.hold_time == 0 || self.timers.hold_time.is_zero() {
                    SimDuration::ZERO
                } else {
                    self.timers.hold_time.min(their_hold)
                };
                self.send(Message::Keepalive);
                self.arm_hold(now);
                self.state = SessionState::OpenConfirm;
            }
            (SessionState::OpenConfirm, Message::Keepalive) => {
                self.state = SessionState::Established;
                self.arm_hold(now);
                self.arm_keepalive(now);
                self.events.push(SessionEvent::Established);
            }
            (SessionState::Established, Message::Keepalive) => {
                self.arm_hold(now);
            }
            (_, Message::Notification(n)) => {
                self.go_down(now, DownReason::PeerNotification(n));
            }
            // Everything else is an FSM violation.
            (_, _) => self.fsm_error(now),
        }
    }

    fn fsm_error(&mut self, now: SimTime) {
        self.send(Message::Notification(Notification {
            code: 5, // FSM error
            subcode: 0,
            data: Vec::new(),
        }));
        self.go_down(now, DownReason::FsmError);
    }

    fn arm_hold(&mut self, now: SimTime) {
        self.hold_deadline = if self.negotiated_hold.is_zero() {
            None
        } else {
            Some(now + self.negotiated_hold)
        };
    }

    fn arm_keepalive(&mut self, now: SimTime) {
        self.keepalive_deadline = if self.negotiated_hold.is_zero() {
            None
        } else {
            Some(now + self.negotiated_hold / 3)
        };
    }

    fn send(&mut self, msg: Message) {
        self.msgs_sent += 1;
        self.events.push(SessionEvent::SendBytes(msg.encode()));
    }

    fn go_down(&mut self, now: SimTime, reason: DownReason) {
        let was_trying = self.state != SessionState::Idle;
        self.state = SessionState::Idle;
        self.hold_deadline = None;
        self.keepalive_deadline = None;
        self.connect_deadline = None;
        self.decoder = StreamDecoder::new();
        if was_trying {
            self.events.push(SessionEvent::Down(reason));
        }
        // Auto-restart: BGP daemons retry; return to Connect after the
        // retry interval (harness will re-dial the transport).
        self.state = SessionState::Connect;
        self.connect_deadline = Some(now + self.timers.connect_retry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait TakeEvents {
        fn take_events(&mut self) -> Vec<SessionEvent>;
    }

    impl TakeEvents for Session {
        fn take_events(&mut self) -> Vec<SessionEvent> {
            let mut out = Vec::new();
            self.swap_events(&mut out);
            out
        }
    }

    fn pair() -> (Session, Session) {
        let a_addr = Ipv4Addr::new(10, 0, 0, 1);
        let b_addr = Ipv4Addr::new(10, 0, 0, 2);
        let timers = TimerConfig {
            hold_time: SimDuration::from_secs(9),
            connect_retry: SimDuration::from_secs(1),
            mrai: SimDuration::ZERO,
        };
        let a = Session::new(
            PeerConfig {
                peer_addr: b_addr,
                local_addr: a_addr,
                remote_as: 65002,
            },
            65001,
            a_addr,
            timers,
        );
        let b = Session::new(
            PeerConfig {
                peer_addr: a_addr,
                local_addr: b_addr,
                remote_as: 65001,
            },
            65002,
            b_addr,
            timers,
        );
        (a, b)
    }

    /// The RIB whose pool a test session resolves UPDATEs against.
    fn rib() -> LocRib {
        LocRib::new(65000, true)
    }

    /// Shuttles queued bytes between two sessions until quiescent.
    fn shuttle(a: &mut Session, b: &mut Session, now: SimTime) -> Vec<(char, SessionEvent)> {
        let rib = rib();
        let mut log = Vec::new();
        loop {
            let mut moved = false;
            for ev in a.take_events() {
                if let SessionEvent::SendBytes(bytes) = &ev {
                    b.on_bytes(now, bytes, &rib);
                    moved = true;
                }
                log.push(('a', ev));
            }
            for ev in b.take_events() {
                if let SessionEvent::SendBytes(bytes) = &ev {
                    a.on_bytes(now, bytes, &rib);
                    moved = true;
                }
                log.push(('b', ev));
            }
            if !moved {
                return log;
            }
        }
    }

    fn establish(a: &mut Session, b: &mut Session, now: SimTime) {
        a.start(now);
        b.start(now);
        a.on_transport_up(now);
        b.on_transport_up(now);
        shuttle(a, b, now);
        assert!(a.is_established(), "a: {:?}", a.state());
        assert!(b.is_established(), "b: {:?}", b.state());
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
    }

    #[test]
    fn wrong_as_rejected() {
        let (mut a, mut b) = pair();
        // Corrupt b's expectation.
        b.config.remote_as = 64999;
        a.start(SimTime::ZERO);
        b.start(SimTime::ZERO);
        a.on_transport_up(SimTime::ZERO);
        b.on_transport_up(SimTime::ZERO);
        let log = shuttle(&mut a, &mut b, SimTime::ZERO);
        assert!(
            log.iter().any(|(who, ev)| *who == 'b'
                && matches!(ev, SessionEvent::Down(DownReason::OpenRejected("peer AS")))),
            "b must reject a's AS: {log:?}"
        );
        assert!(!a.is_established());
        assert!(!b.is_established());
    }

    #[test]
    fn update_delivered_in_established() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let next_hop = Ipv4Addr::new(10, 0, 0, 1);
        let upd = crate::msg::UpdateMsg {
            withdrawn: vec![],
            attrs: Some(std::sync::Arc::new(crate::msg::PathAttributes::originated(
                next_hop,
            ))),
            nlri: vec!["10.9.0.0/16".parse().unwrap()],
        };
        a.send_encoded_update(Message::Update(upd.clone()).encode());
        let rib = rib();
        for ev in a.take_events() {
            if let SessionEvent::SendBytes(bytes) = ev {
                b.on_bytes(SimTime::ZERO, &bytes, &rib);
            }
        }
        let evs = b.take_events();
        let [SessionEvent::Update(got)] = &evs[..] else {
            panic!("one UPDATE event: {evs:?}");
        };
        let rx = got.attrs.expect("an announcement");
        assert_eq!(rx.next_hop, next_hop);
        assert_eq!(
            *rib.attrs_of(rx.id),
            crate::msg::PathAttributes::originated(Ipv4Addr::UNSPECIFIED),
            "the pool keeps the set without its NEXT_HOP"
        );
        assert_eq!((&got.withdrawn, &got.nlri), (&upd.withdrawn, &upd.nlri));
    }

    #[test]
    fn hold_timer_expiry_takes_session_down() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        // Starve a of keepalives for > hold (9s).
        a.poll_timers(SimTime::from_secs(10));
        let evs = a.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::Down(DownReason::HoldTimerExpired))));
        assert_eq!(a.state(), SessionState::Connect, "auto-restarts");
        // The queued NOTIFICATION reaches b, which also goes down.
        for e in evs {
            if let SessionEvent::SendBytes(bytes) = e {
                b.on_bytes(SimTime::from_secs(10), &bytes, &rib());
            }
        }
        assert!(b
            .take_events()
            .iter()
            .any(|e| matches!(e, SessionEvent::Down(DownReason::PeerNotification(_)))));
    }

    #[test]
    fn keepalives_maintain_session() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        // Step both clocks for 60 virtual seconds, exchanging keepalives.
        for s in 1..=60u64 {
            let now = SimTime::from_secs(s);
            a.poll_timers(now);
            b.poll_timers(now);
            shuttle(&mut a, &mut b, now);
            assert!(a.is_established() && b.is_established(), "t={s}s");
        }
        assert!(a.msgs_sent >= 60 / 3, "a sent keepalives: {}", a.msgs_sent);
    }

    #[test]
    fn garbage_bytes_cause_codec_down() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        a.on_bytes(SimTime::ZERO, &[0u8; 32], &rib());
        let evs = a.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::Down(DownReason::CodecError(_)))));
    }

    #[test]
    fn bad_marker_behind_good_messages_still_takes_the_session_down() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let keepalive = Message::Keepalive.encode();
        let mut bytes = [&keepalive[..], &keepalive[..], &keepalive[..]].concat();
        bytes[2 * keepalive.len()] = 0;
        let received = a.msgs_received;
        a.on_bytes(SimTime::ZERO, &bytes, &rib());
        assert_eq!(a.msgs_received, received + 2, "the good ones were handled");
        let evs = a.take_events();
        assert!(
            matches!(
                &evs[..],
                [
                    SessionEvent::SendBytes(n),
                    SessionEvent::Down(DownReason::CodecError(CodecError::BadMarker)),
                ] if matches!(Message::decode(n), Ok(Some((Message::Notification(_), _))))
            ),
            "{evs:?}"
        );
    }

    #[test]
    fn unexpected_message_is_fsm_error() {
        let (mut a, mut b) = pair();
        a.start(SimTime::ZERO);
        b.start(SimTime::ZERO);
        a.on_transport_up(SimTime::ZERO);
        // b (in Connect, hasn't sent OPEN) receives a's OPEN without having
        // the transport up → Connect × Open → FSM error.
        for e in a.take_events() {
            if let SessionEvent::SendBytes(bytes) = e {
                b.on_bytes(SimTime::ZERO, &bytes, &rib());
            }
        }
        assert!(b
            .take_events()
            .iter()
            .any(|e| matches!(e, SessionEvent::Down(DownReason::FsmError))));
    }

    #[test]
    fn transport_down_resets() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        a.on_transport_down(SimTime::from_secs(1));
        assert!(!a.is_established());
        assert!(a
            .take_events()
            .iter()
            .any(|e| matches!(e, SessionEvent::Down(DownReason::TransportClosed))));
        assert_eq!(a.state(), SessionState::Connect);
        assert!(a.next_deadline().is_some(), "connect retry armed");
    }

    #[test]
    fn next_deadline_tracks_keepalive() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let d = a.next_deadline().unwrap();
        // hold/3 = 3s.
        assert_eq!(d, SimTime::from_secs(3));
    }
}
