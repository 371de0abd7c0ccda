//! RFC 4271 message codec.
//!
//! Encodes and decodes the four BGP-4 message types with the path
//! attributes the experiments exercise (ORIGIN, AS_PATH, NEXT_HOP, MED,
//! LOCAL_PREF) and OPEN capabilities. Unknown optional attributes are
//! carried opaquely; malformed input yields typed errors, never panics —
//! the decode path is fuzzed by property tests.
//!
//! AS numbers are 16-bit on the wire (the classic RFC 4271 encoding); the
//! experiments use private 16-bit ASNs per RFC 7938-style data-center
//! designs, so 4-octet AS support is advertised as a capability but not
//! required.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use horse_net::addr::Ipv4Prefix;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// BGP version implemented.
pub const BGP_VERSION: u8 = 4;
/// Fixed header size: 16-byte marker + 2-byte length + 1-byte type.
pub const HEADER_LEN: usize = 19;
/// Maximum message size permitted by RFC 4271.
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Message shorter than its declared or minimum length.
    Truncated(&'static str),
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Declared length out of the legal range.
    BadLength(u16),
    /// Unknown message type code.
    BadType(u8),
    /// A field violated the spec.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(w) => write!(f, "truncated {w}"),
            CodecError::BadMarker => write!(f, "bad marker"),
            CodecError::BadLength(l) => write!(f, "bad message length {l}"),
            CodecError::BadType(t) => write!(f, "bad message type {t}"),
            CodecError::Malformed(w) => write!(f, "malformed {w}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Route origin attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Interior (IGP).
    Igp,
    /// Exterior (EGP).
    Egp,
    /// Incomplete.
    Incomplete,
}

impl Origin {
    fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    fn from_code(c: u8) -> Result<Origin, CodecError> {
        match c {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(CodecError::Malformed("origin code")),
        }
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// Ordered sequence of ASNs.
    Sequence(Vec<u16>),
    /// Unordered set (from aggregation).
    Set(Vec<u16>),
}

impl AsPathSegment {
    /// How many ASNs this segment contributes to path length (a set counts
    /// as one, per RFC 4271 §9.1.2.2).
    pub fn path_len(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(_) => 1,
        }
    }
}

/// The path attributes the model understands, plus opaque unknown ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH segments (well-known mandatory).
    pub as_path: Vec<AsPathSegment>,
    /// NEXT_HOP (well-known mandatory).
    pub next_hop: Ipv4Addr,
    /// MULTI_EXIT_DISC (optional).
    pub med: Option<u32>,
    /// LOCAL_PREF (well-known for iBGP).
    pub local_pref: Option<u32>,
    /// COMMUNITIES (RFC 1997, optional transitive). Kept sorted and
    /// deduplicated so equal community sets intern to one attr entry; an
    /// empty list is not encoded, keeping policy-free wire bytes identical
    /// to the pre-communities codec.
    pub communities: Vec<u32>,
    /// Unrecognized transitive attributes, carried verbatim as
    /// `(flags, type, value)`.
    pub unknown: Vec<(u8, u8, Vec<u8>)>,
}

impl PathAttributes {
    /// Attributes for a locally originated route.
    pub fn originated(next_hop: Ipv4Addr) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(vec![])],
            next_hop,
            med: None,
            local_pref: None,
            communities: Vec::new(),
            unknown: Vec::new(),
        }
    }

    /// True if the RFC 1997 community `c` is attached.
    pub fn has_community(&self, c: u32) -> bool {
        // `communities` is kept sorted by every construction path.
        self.communities.binary_search(&c).is_ok()
    }

    /// Total AS-path length (sets count 1).
    pub fn as_path_len(&self) -> usize {
        self.as_path.iter().map(|s| s.path_len()).sum()
    }

    /// All ASNs appearing anywhere in the path.
    pub fn as_path_asns(&self) -> impl Iterator<Item = u16> + '_ {
        self.as_path.iter().flat_map(|s| match s {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.iter().copied(),
        })
    }

    /// True if `asn` appears in the AS path (loop detection).
    pub fn contains_asn(&self, asn: u16) -> bool {
        self.as_path_asns().any(|a| a == asn)
    }

    /// Returns a copy with `asn` prepended to the leading sequence (eBGP
    /// export).
    pub fn prepended(&self, asn: u16) -> PathAttributes {
        let mut out = self.clone();
        out.prepend(asn);
        out
    }

    /// Prepends `asn` to the leading sequence in place.
    pub fn prepend(&mut self, asn: u16) {
        match self.as_path.first_mut() {
            Some(AsPathSegment::Sequence(seq)) => seq.insert(0, asn),
            _ => self.as_path.insert(0, AsPathSegment::Sequence(vec![asn])),
        }
    }

    /// The neighboring (first) AS on the path, if any.
    pub fn neighbor_as(&self) -> Option<u16> {
        match self.as_path.first() {
            Some(AsPathSegment::Sequence(v)) => v.first().copied(),
            Some(AsPathSegment::Set(v)) => v.first().copied(),
            None => None,
        }
    }
}

/// OPEN-message capabilities (RFC 5492 TLVs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Multiprotocol extensions (AFI, SAFI).
    Multiprotocol {
        /// Address family identifier (1 = IPv4).
        afi: u16,
        /// Subsequent AFI (1 = unicast).
        safi: u8,
    },
    /// Four-octet AS numbers (RFC 6793).
    FourOctetAs(u32),
    /// Anything else, carried opaquely.
    Unknown(u8, Vec<u8>),
}

/// An OPEN message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    /// Protocol version (always 4).
    pub version: u8,
    /// Sender's AS number.
    pub my_as: u16,
    /// Proposed hold time in seconds (0 or ≥ 3).
    pub hold_time: u16,
    /// Sender's BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Capabilities advertised.
    pub capabilities: Vec<Capability>,
}

/// An UPDATE's three sections, its path attributes in whatever form `A`
/// the reader wants them: decoded ([`UpdateMsg`]), or resolved against an
/// attribute pool without decoding ([`crate::session::RxUpdate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Update<A> {
    /// Prefixes withdrawn.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Attributes for the announced NLRI (None when only withdrawing).
    pub attrs: Option<A>,
    /// Prefixes announced with `attrs`.
    pub nlri: Vec<Ipv4Prefix>,
}

impl<A> Default for Update<A> {
    fn default() -> Self {
        Update {
            withdrawn: Vec::new(),
            attrs: None,
            nlri: Vec::new(),
        }
    }
}

/// An UPDATE message with decoded attributes.
///
/// Attributes ride behind an [`Arc`] so a message built from an interned
/// attribute set (see [`crate::rib::AttrStore`]) shares the canonical
/// allocation instead of deep-cloning the nested AS-path vectors; the wire
/// encoding is unchanged.
pub type UpdateMsg = Update<Arc<PathAttributes>>;

impl UpdateMsg {
    /// Fixed per-UPDATE overhead: header plus the withdrawn-routes-length
    /// and total-path-attribute-length fields.
    const FIXED_LEN: usize = HEADER_LEN + 4;

    /// Encoded wire length including the RFC 4271 header (exact mirror of
    /// [`Message::encode`]).
    pub fn wire_len(&self) -> usize {
        Self::FIXED_LEN
            + self.attrs.as_deref().map_or(0, attrs_wire_len)
            + self.withdrawn.iter().map(prefix_wire_len).sum::<usize>()
            + self.nlri.iter().map(prefix_wire_len).sum::<usize>()
    }
}

/// A NOTIFICATION message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Major error code.
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

impl Notification {
    /// Hold-timer-expired notification (code 4).
    pub fn hold_timer_expired() -> Notification {
        Notification {
            code: 4,
            subcode: 0,
            data: Vec::new(),
        }
    }

    /// Cease (code 6).
    pub fn cease() -> Notification {
        Notification {
            code: 6,
            subcode: 0,
            data: Vec::new(),
        }
    }

    /// OPEN error with subcode (code 2).
    pub fn open_error(subcode: u8) -> Notification {
        Notification {
            code: 2,
            subcode,
            data: Vec::new(),
        }
    }
}

/// A BGP message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session establishment offer.
    Open(OpenMsg),
    /// Route announcement/withdrawal.
    Update(UpdateMsg),
    /// Error report; sender closes the session.
    Notification(Notification),
    /// Liveness.
    Keepalive,
}

impl Message {
    /// Encoded wire length including the RFC 4271 header (exact mirror of
    /// [`Message::encode`], which sizes its one allocation with it).
    pub fn wire_len(&self) -> usize {
        match self {
            Message::Open(o) => HEADER_LEN + open_wire_len(o),
            Message::Update(u) => u.wire_len(),
            Message::Notification(n) => HEADER_LEN + 2 + n.data.len(),
            Message::Keepalive => HEADER_LEN,
        }
    }

    /// Serializes the message with its RFC 4271 header.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.wire_len());
        match self {
            Message::Open(o) => {
                let start = put_header(&mut out, 1);
                encode_open(o, &mut out);
                finish_message(&mut out, start);
            }
            Message::Update(u) => put_update(
                &mut out,
                &u.withdrawn,
                |buf| {
                    if let Some(a) = &u.attrs {
                        encode_attrs(a, buf);
                    }
                },
                &u.nlri,
            ),
            Message::Notification(n) => {
                let start = put_header(&mut out, 3);
                out.put_u8(n.code);
                out.put_u8(n.subcode);
                out.put_slice(&n.data);
                finish_message(&mut out, start);
            }
            Message::Keepalive => {
                let start = put_header(&mut out, 4);
                finish_message(&mut out, start);
            }
        }
        out.freeze()
    }

    /// Decodes one message from `buf` if a complete one is present.
    /// Returns `(message, bytes_consumed)`.
    pub fn decode(buf: &[u8]) -> Result<Option<(Message, usize)>, CodecError> {
        let decoded = Frame::decode(buf, |block| decode_attrs(block).map(Arc::new))?;
        Ok(decoded.map(|(frame, len)| (frame.into_message(), len)))
    }
}

/// One message off the wire, an UPDATE's path-attribute block turned into
/// an `A` by the caller (see [`Frame::decode`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame<A> {
    /// An UPDATE.
    Update(Update<A>),
    /// Any other message (never [`Message::Update`]).
    Other(Message),
}

impl Frame<Arc<PathAttributes>> {
    fn into_message(self) -> Message {
        match self {
            Frame::Update(u) => Message::Update(u),
            Frame::Other(m) => m,
        }
    }
}

impl<A> Frame<A> {
    /// [`Message::decode`] with the attribute block of an UPDATE handed to
    /// `attrs` in its wire position — after the withdrawn routes, before the
    /// NLRI — so a malformed message fails at the same check whatever
    /// `attrs` does with a well-formed block.
    pub(crate) fn decode(
        buf: &[u8],
        attrs: impl FnOnce(&[u8]) -> Result<A, CodecError>,
    ) -> Result<Option<(Frame<A>, usize)>, CodecError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if buf[..16].iter().any(|b| *b != 0xff) {
            return Err(CodecError::BadMarker);
        }
        let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len) {
            return Err(CodecError::BadLength(len as u16));
        }
        if buf.len() < len {
            return Ok(None);
        }
        let msg_type = buf[18];
        let mut body = &buf[HEADER_LEN..len];
        let msg = match msg_type {
            1 => Message::Open(decode_open(&mut body)?),
            2 => return Ok(Some((Frame::Update(decode_update(&mut body, attrs)?), len))),
            3 => {
                if body.len() < 2 {
                    return Err(CodecError::Truncated("notification"));
                }
                let code = body.get_u8();
                let subcode = body.get_u8();
                Message::Notification(Notification {
                    code,
                    subcode,
                    data: body.to_vec(),
                })
            }
            4 => {
                if !body.is_empty() {
                    return Err(CodecError::Malformed("keepalive body"));
                }
                Message::Keepalive
            }
            t => return Err(CodecError::BadType(t)),
        };
        Ok(Some((Frame::Other(msg), len)))
    }
}

/// Starts a message at the end of `buf`: marker, a length to be patched by
/// [`finish_message`], type. Returns the message's start offset.
fn put_header(buf: &mut BytesMut, msg_type: u8) -> usize {
    let start = buf.len();
    buf.put_slice(&[0xff; 16]);
    buf.put_u16(0);
    buf.put_u8(msg_type);
    start
}

/// Patches the header length of the message that started at `start` and
/// ends at the end of `buf`.
fn finish_message(buf: &mut BytesMut, start: usize) {
    let len = (buf.len() - start) as u16;
    buf[start + 16..start + 18].copy_from_slice(&len.to_be_bytes());
}

/// Reserves a 16-bit length field; [`patch_len16`] fills it in.
fn put_len16_slot(buf: &mut BytesMut) -> usize {
    buf.put_u16(0);
    buf.len() - 2
}

/// Writes the number of bytes appended since [`put_len16_slot`] returned
/// `slot` into that field.
fn patch_len16(buf: &mut BytesMut, slot: usize) {
    let len = (buf.len() - slot - 2) as u16;
    buf[slot..slot + 2].copy_from_slice(&len.to_be_bytes());
}

fn encode_open(o: &OpenMsg, buf: &mut BytesMut) {
    buf.put_u8(o.version);
    buf.put_u16(o.my_as);
    buf.put_u16(o.hold_time);
    buf.put_slice(&o.bgp_id.octets());
    if o.capabilities.is_empty() {
        buf.put_u8(0);
        return;
    }
    // Optional parameters: one parameter of type 2 (capabilities). Both
    // 8-bit lengths are patched once the capabilities are written.
    let opt_len_at = buf.len();
    buf.put_u8(0);
    buf.put_u8(2);
    buf.put_u8(0);
    for c in &o.capabilities {
        match c {
            Capability::Multiprotocol { afi, safi } => {
                buf.put_u8(1);
                buf.put_u8(4);
                buf.put_u16(*afi);
                buf.put_u8(0);
                buf.put_u8(*safi);
            }
            Capability::FourOctetAs(asn) => {
                buf.put_u8(65);
                buf.put_u8(4);
                buf.put_u32(*asn);
            }
            Capability::Unknown(code, data) => {
                buf.put_u8(*code);
                buf.put_u8(data.len() as u8);
                buf.put_slice(data);
            }
        }
    }
    let caps_len = buf.len() - opt_len_at - 3;
    buf[opt_len_at] = (caps_len + 2) as u8;
    buf[opt_len_at + 2] = caps_len as u8;
}

/// Wire size of an OPEN body (exact mirror of [`encode_open`]).
fn open_wire_len(o: &OpenMsg) -> usize {
    let caps: usize = o
        .capabilities
        .iter()
        .map(|c| match c {
            Capability::Multiprotocol { .. } | Capability::FourOctetAs(_) => 6,
            Capability::Unknown(_, data) => 2 + data.len(),
        })
        .sum();
    10 + if caps == 0 { 0 } else { 2 + caps }
}

fn decode_open(buf: &mut &[u8]) -> Result<OpenMsg, CodecError> {
    if buf.len() < 10 {
        return Err(CodecError::Truncated("open"));
    }
    let version = buf.get_u8();
    if version != BGP_VERSION {
        return Err(CodecError::Malformed("open version"));
    }
    let my_as = buf.get_u16();
    let hold_time = buf.get_u16();
    if hold_time == 1 || hold_time == 2 {
        return Err(CodecError::Malformed("open hold time"));
    }
    let mut id = [0u8; 4];
    buf.copy_to_slice(&mut id);
    let opt_len = buf.get_u8() as usize;
    if buf.len() < opt_len {
        return Err(CodecError::Truncated("open optional parameters"));
    }
    let mut params = &buf[..opt_len];
    buf.advance(opt_len);
    let mut capabilities = Vec::new();
    while params.len() >= 2 {
        let ptype = params.get_u8();
        let plen = params.get_u8() as usize;
        if params.len() < plen {
            return Err(CodecError::Truncated("open parameter"));
        }
        let mut pval = &params[..plen];
        params.advance(plen);
        if ptype != 2 {
            continue; // ignore non-capability parameters
        }
        while pval.len() >= 2 {
            let code = pval.get_u8();
            let clen = pval.get_u8() as usize;
            if pval.len() < clen {
                return Err(CodecError::Truncated("capability"));
            }
            let cval = &pval[..clen];
            pval.advance(clen);
            capabilities.push(match (code, clen) {
                (1, 4) => Capability::Multiprotocol {
                    afi: u16::from_be_bytes([cval[0], cval[1]]),
                    safi: cval[3],
                },
                (65, 4) => Capability::FourOctetAs(u32::from_be_bytes([
                    cval[0], cval[1], cval[2], cval[3],
                ])),
                _ => Capability::Unknown(code, cval.to_vec()),
            });
        }
    }
    if !params.is_empty() {
        return Err(CodecError::Malformed("open parameter padding"));
    }
    Ok(OpenMsg {
        version,
        my_as,
        hold_time,
        bgp_id: Ipv4Addr::from(id),
        capabilities,
    })
}

fn encode_prefix(p: &Ipv4Prefix, buf: &mut BytesMut) {
    buf.put_u8(p.len());
    let octets = p.network().octets();
    let nbytes = p.len().div_ceil(8) as usize;
    buf.put_slice(&octets[..nbytes]);
}

/// Wire size of one prefix in withdrawn-routes / NLRI encoding.
fn prefix_wire_len(p: &Ipv4Prefix) -> usize {
    1 + p.len().div_ceil(8) as usize
}

fn decode_prefix(buf: &mut &[u8]) -> Result<Ipv4Prefix, CodecError> {
    if buf.is_empty() {
        return Err(CodecError::Truncated("prefix length"));
    }
    let len = buf.get_u8();
    if len > 32 {
        return Err(CodecError::Malformed("prefix length"));
    }
    let nbytes = len.div_ceil(8) as usize;
    if buf.len() < nbytes {
        return Err(CodecError::Truncated("prefix bytes"));
    }
    let mut octets = [0u8; 4];
    octets[..nbytes].copy_from_slice(&buf[..nbytes]);
    buf.advance(nbytes);
    Ok(Ipv4Prefix::new(Ipv4Addr::from(octets), len))
}

/// Decodes the prefixes filling `bytes` into a `Vec` sized by one pass
/// over their length octets: one allocation, not one per doubling of a
/// thousand-prefix NLRI field.
fn decode_prefixes(mut bytes: &[u8]) -> Result<Vec<Ipv4Prefix>, CodecError> {
    let (mut count, mut at) = (0, 0);
    while at < bytes.len() {
        count += 1;
        at += 1 + usize::from(bytes[at]).div_ceil(8);
    }
    let mut out = Vec::with_capacity(count);
    while !bytes.is_empty() {
        out.push(decode_prefix(&mut bytes)?);
    }
    Ok(out)
}

const ATTR_FLAG_OPTIONAL: u8 = 0x80;
const ATTR_FLAG_TRANSITIVE: u8 = 0x40;
const ATTR_FLAG_EXTENDED: u8 = 0x10;

/// Writes an attribute's flags, type and length. The two-byte length form
/// is used when the value needs it — or when `flags` already carries the
/// extended-length bit (an unknown attribute received that way), since a
/// decoder reads the length by that bit.
fn put_attr_header(buf: &mut BytesMut, flags: u8, type_code: u8, value_len: usize) {
    if attr_is_extended(flags, value_len) {
        buf.put_u8(flags | ATTR_FLAG_EXTENDED);
        buf.put_u8(type_code);
        buf.put_u16(value_len as u16);
    } else {
        buf.put_u8(flags);
        buf.put_u8(type_code);
        buf.put_u8(value_len as u8);
    }
}

fn attr_is_extended(flags: u8, value_len: usize) -> bool {
    value_len > 255 || flags & ATTR_FLAG_EXTENDED != 0
}

/// Wire size of one attribute: value plus a 3-byte header, 4 in the
/// extended-length form.
fn attr_wire_len(flags: u8, value_len: usize) -> usize {
    value_len
        + if attr_is_extended(flags, value_len) {
            4
        } else {
            3
        }
}

fn as_path_value_len(a: &PathAttributes) -> usize {
    a.as_path
        .iter()
        .map(|seg| {
            let (AsPathSegment::Set(asns) | AsPathSegment::Sequence(asns)) = seg;
            2 + 2 * asns.len()
        })
        .sum()
}

/// Appends the path-attribute block of an UPDATE and returns the offset in
/// `buf` of the 4-byte NEXT_HOP value, so a caller holding the encoded
/// block can re-address it without encoding again.
pub(crate) fn encode_attrs(a: &PathAttributes, buf: &mut BytesMut) -> usize {
    put_attr_header(buf, ATTR_FLAG_TRANSITIVE, 1, 1);
    buf.put_u8(a.origin.code());
    put_attr_header(buf, ATTR_FLAG_TRANSITIVE, 2, as_path_value_len(a));
    for seg in &a.as_path {
        let (code, asns) = match seg {
            AsPathSegment::Set(v) => (1u8, v),
            AsPathSegment::Sequence(v) => (2u8, v),
        };
        buf.put_u8(code);
        buf.put_u8(asns.len() as u8);
        for asn in asns {
            buf.put_u16(*asn);
        }
    }
    put_attr_header(buf, ATTR_FLAG_TRANSITIVE, 3, 4);
    let next_hop_at = buf.len();
    buf.put_slice(&a.next_hop.octets());
    if let Some(med) = a.med {
        put_attr_header(buf, ATTR_FLAG_OPTIONAL, 4, 4);
        buf.put_u32(med);
    }
    if let Some(lp) = a.local_pref {
        put_attr_header(buf, ATTR_FLAG_TRANSITIVE, 5, 4);
        buf.put_u32(lp);
    }
    if !a.communities.is_empty() {
        put_attr_header(
            buf,
            ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE,
            8,
            4 * a.communities.len(),
        );
        for c in &a.communities {
            buf.put_u32(*c);
        }
    }
    for (flags, code, data) in &a.unknown {
        put_attr_header(buf, *flags, *code, data.len());
        buf.put_slice(data);
    }
    next_hop_at
}

/// Wire size of the encoded path attributes (exact mirror of
/// [`encode_attrs`]).
fn attrs_wire_len(a: &PathAttributes) -> usize {
    // origin, as_path, next_hop
    let mut n = attr_wire_len(0, 1) + attr_wire_len(0, as_path_value_len(a)) + attr_wire_len(0, 4);
    if a.med.is_some() {
        n += attr_wire_len(0, 4);
    }
    if a.local_pref.is_some() {
        n += attr_wire_len(0, 4);
    }
    if !a.communities.is_empty() {
        n += attr_wire_len(0, 4 * a.communities.len());
    }
    for (flags, _, data) in &a.unknown {
        n += attr_wire_len(*flags, data.len());
    }
    n
}

/// Decodes and validates an UPDATE's path-attribute block.
pub(crate) fn decode_attrs(mut buf: &[u8]) -> Result<PathAttributes, CodecError> {
    let mut origin = None;
    let mut as_path = None;
    let mut next_hop = None;
    let mut med = None;
    let mut local_pref = None;
    let mut communities = Vec::new();
    let mut unknown = Vec::new();
    while !buf.is_empty() {
        if buf.len() < 3 {
            return Err(CodecError::Truncated("attribute header"));
        }
        let flags = buf.get_u8();
        let type_code = buf.get_u8();
        let len = if flags & ATTR_FLAG_EXTENDED != 0 {
            if buf.len() < 2 {
                return Err(CodecError::Truncated("attribute extended length"));
            }
            buf.get_u16() as usize
        } else {
            buf.get_u8() as usize
        };
        if buf.len() < len {
            return Err(CodecError::Truncated("attribute value"));
        }
        let mut val = &buf[..len];
        buf.advance(len);
        match type_code {
            1 => {
                if val.len() != 1 {
                    return Err(CodecError::Malformed("origin length"));
                }
                origin = Some(Origin::from_code(val[0])?);
            }
            2 => {
                // Room for the usual single segment only: the speaker that
                // receives a path is the one whose copy the attribute pool
                // keeps, and `Vec`'s first growth step would reserve four
                // segments (128 bytes) for every path in the pool.
                let mut segs = Vec::with_capacity(1);
                while !val.is_empty() {
                    if val.len() < 2 {
                        return Err(CodecError::Truncated("as_path segment header"));
                    }
                    let seg_type = val.get_u8();
                    let count = val.get_u8() as usize;
                    if val.len() < count * 2 {
                        return Err(CodecError::Truncated("as_path asns"));
                    }
                    let mut asns = Vec::with_capacity(count);
                    for _ in 0..count {
                        asns.push(val.get_u16());
                    }
                    segs.push(match seg_type {
                        1 => AsPathSegment::Set(asns),
                        2 => AsPathSegment::Sequence(asns),
                        _ => return Err(CodecError::Malformed("as_path segment type")),
                    });
                }
                as_path = Some(segs);
            }
            3 => {
                if val.len() != 4 {
                    return Err(CodecError::Malformed("next_hop length"));
                }
                next_hop = Some(Ipv4Addr::new(val[0], val[1], val[2], val[3]));
            }
            4 => {
                if val.len() != 4 {
                    return Err(CodecError::Malformed("med length"));
                }
                med = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            5 => {
                if val.len() != 4 {
                    return Err(CodecError::Malformed("local_pref length"));
                }
                local_pref = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
            }
            8 => {
                if !val.len().is_multiple_of(4) {
                    return Err(CodecError::Malformed("communities length"));
                }
                while !val.is_empty() {
                    communities.push(val.get_u32());
                }
                // Canonicalize on ingest so equal sets compare (and intern)
                // equal regardless of sender ordering.
                communities.sort_unstable();
                communities.dedup();
            }
            _ => unknown.push((flags, type_code, val.to_vec())),
        }
    }
    Ok(PathAttributes {
        origin: origin.ok_or(CodecError::Malformed("missing origin"))?,
        as_path: as_path.ok_or(CodecError::Malformed("missing as_path"))?,
        next_hop: next_hop.ok_or(CodecError::Malformed("missing next_hop"))?,
        med,
        local_pref,
        communities,
        unknown,
    })
}

/// Offset of the NEXT_HOP value in a path-attribute block, found by walking
/// the attribute headers only. `None` unless every header and length is in
/// bounds and exactly one NEXT_HOP with a 4-byte value is present — the
/// blocks whose validity cannot depend on what those four bytes hold
/// (the receive path's wire index keys on the rest of the block).
pub(crate) fn next_hop_offset(mut block: &[u8]) -> Option<usize> {
    let total = block.len();
    let mut found = None;
    while !block.is_empty() {
        let (flags, type_code) = (*block.first()?, *block.get(1)?);
        let (header, len) = if flags & ATTR_FLAG_EXTENDED != 0 {
            (
                4,
                u16::from_be_bytes([*block.get(2)?, *block.get(3)?]) as usize,
            )
        } else {
            (3, *block.get(2)? as usize)
        };
        if block.len() < header + len {
            return None;
        }
        if type_code == 3 {
            if found.is_some() || len != 4 {
                return None;
            }
            found = Some(total - block.len() + header);
        }
        block = &block[header + len..];
    }
    found
}

/// Appends one whole UPDATE — header included — to `buf`: the single
/// writer of the UPDATE framing. `put_attrs` appends the path-attribute
/// block (nothing for a withdraw-only message); the message length and the
/// two section lengths are patched in once their sections are written.
fn put_update(
    buf: &mut BytesMut,
    withdrawn: &[Ipv4Prefix],
    put_attrs: impl FnOnce(&mut BytesMut),
    nlri: &[Ipv4Prefix],
) {
    let start = put_header(buf, 2);
    let slot = put_len16_slot(buf);
    for p in withdrawn {
        encode_prefix(p, buf);
    }
    patch_len16(buf, slot);
    let slot = put_len16_slot(buf);
    put_attrs(buf);
    patch_len16(buf, slot);
    for p in nlri {
        encode_prefix(p, buf);
    }
    finish_message(buf, start);
}

/// Offset of the NEXT_HOP value from the start of an announce-only UPDATE
/// whose attribute block has it at `next_hop_at` (see [`encode_attrs`]).
pub(crate) const fn announce_next_hop_offset(next_hop_at: usize) -> usize {
    UpdateMsg::FIXED_LEN + next_hop_at
}

/// An announcement no UPDATE can carry: the prefix does not fit behind its
/// attribute block within [`MAX_MESSAGE_LEN`], even in a message of its
/// own. A received near-maximal block plus the own-AS prepend of the
/// export gets here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unsendable {
    /// The prefix that cannot be announced.
    pub prefix: Ipv4Prefix,
    /// Length of the encoded attribute block it would have to follow.
    pub attrs_len: usize,
}

/// Checks that an UPDATE can announce `prefix` behind an attribute block
/// of `attrs_len` bytes.
pub(crate) fn check_announce(attrs_len: usize, prefix: Ipv4Prefix) -> Result<(), Unsendable> {
    if UpdateMsg::FIXED_LEN + attrs_len + prefix_wire_len(&prefix) <= MAX_MESSAGE_LEN {
        Ok(())
    } else {
        Err(Unsendable { prefix, attrs_len })
    }
}

/// Appends to `out` the UPDATE(s) carrying `prefixes` — announced with the
/// already encoded attribute block `attrs`, or withdrawn when it is `None`
/// — and pushes each message's end offset in `out` onto `ends`. Each
/// message takes the longest run of prefixes that fits
/// [`MAX_MESSAGE_LEN`], which is how the tests' whole-message splitter
/// (`tests/support/split_to_fit.rs`) splits the equivalent message; the
/// two share no code. Every announced prefix must pass [`check_announce`]
/// behind `attrs`; the speaker withholds those that do not before it gets
/// here.
pub(crate) fn encode_updates(
    attrs: Option<&[u8]>,
    prefixes: &[Ipv4Prefix],
    out: &mut BytesMut,
    ends: &mut Vec<usize>,
) {
    let block = attrs.unwrap_or_default();
    let base = UpdateMsg::FIXED_LEN + block.len();
    let mut put_run = |run: &[Ipv4Prefix]| {
        let (withdrawn, nlri) = if attrs.is_some() {
            (&[][..], run)
        } else {
            (run, &[][..])
        };
        put_update(out, withdrawn, |buf| buf.put_slice(block), nlri);
        ends.push(out.len());
    };
    let (mut start, mut used) = (0, base);
    for (i, p) in prefixes.iter().enumerate() {
        let w = prefix_wire_len(p);
        debug_assert!(
            check_announce(block.len(), *p).is_ok(),
            "{p} cannot follow {} bytes of path attributes",
            block.len()
        );
        if used + w > MAX_MESSAGE_LEN {
            put_run(&prefixes[start..i]);
            start = i;
            used = base;
        }
        used += w;
    }
    if start < prefixes.len() {
        put_run(&prefixes[start..]);
    }
}

fn decode_update<A>(
    buf: &mut &[u8],
    decode_block: impl FnOnce(&[u8]) -> Result<A, CodecError>,
) -> Result<Update<A>, CodecError> {
    if buf.len() < 2 {
        return Err(CodecError::Truncated("update withdrawn length"));
    }
    let wlen = buf.get_u16() as usize;
    if buf.len() < wlen {
        return Err(CodecError::Truncated("update withdrawn routes"));
    }
    let withdrawn = decode_prefixes(&buf[..wlen])?;
    buf.advance(wlen);
    if buf.len() < 2 {
        return Err(CodecError::Truncated("update attribute length"));
    }
    let alen = buf.get_u16() as usize;
    if buf.len() < alen {
        return Err(CodecError::Truncated("update attributes"));
    }
    let abuf = &buf[..alen];
    buf.advance(alen);
    let attrs = if alen == 0 {
        None
    } else {
        Some(decode_block(abuf)?)
    };
    let nlri = decode_prefixes(buf)?;
    buf.advance(buf.len());
    if attrs.is_none() && !nlri.is_empty() {
        return Err(CodecError::Malformed("nlri without attributes"));
    }
    Ok(Update {
        withdrawn,
        attrs,
        nlri,
    })
}

/// A streaming decoder that accumulates bytes and yields complete messages
/// (BGP rides a byte stream; message boundaries are internal).
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Start of the unread bytes in `buf`.
    read: usize,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete message, if any. After an error the stream is
    /// unrecoverable (the session should send a NOTIFICATION and close).
    // Fallible Result<Option<_>> pull, not an Iterator — decode errors must
    // reach the session so it can emit a NOTIFICATION before closing.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Message>, CodecError> {
        let frame = self.next_frame(|block| decode_attrs(block).map(Arc::new))?;
        Ok(frame.map(Frame::into_message))
    }

    /// [`StreamDecoder::next`] with an UPDATE's attribute block handed to
    /// `attrs` (see [`Frame::decode`]).
    pub(crate) fn next_frame<A>(
        &mut self,
        attrs: impl FnOnce(&[u8]) -> Result<A, CodecError>,
    ) -> Result<Option<Frame<A>>, CodecError> {
        let Some((msg, consumed)) = Frame::decode(&self.buf[self.read..], attrs)? else {
            return Ok(None);
        };
        self.read += consumed;
        // Consuming moves the cursor, not the bytes. Read bytes are dropped
        // for free when nothing is left, and by a move of the smaller half
        // otherwise — so a push carrying many messages costs O(bytes), not
        // O(bytes × messages).
        if self.read == self.buf.len() {
            self.buf.clear();
            self.read = 0;
        } else if self.read > self.buf.len() / 2 {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        Ok(Some(msg))
    }

    /// Bytes buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }
}

#[cfg(test)]
#[path = "../tests/support/split_to_fit.rs"]
mod split_ref;

#[cfg(test)]
mod tests {
    use super::split_ref::split_to_fit;
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn sample_attrs() -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(vec![64512, 64513])],
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            med: Some(100),
            local_pref: Some(200),
            communities: vec![],
            unknown: vec![],
        }
    }

    fn roundtrip(msg: Message) -> Message {
        let bytes = msg.encode();
        let (decoded, consumed) = Message::decode(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        decoded
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(roundtrip(Message::Keepalive), Message::Keepalive);
    }

    #[test]
    fn open_roundtrip_with_capabilities() {
        let open = OpenMsg {
            version: 4,
            my_as: 64512,
            hold_time: 90,
            bgp_id: Ipv4Addr::new(1, 1, 1, 1),
            capabilities: vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::FourOctetAs(64512),
                Capability::Unknown(99, vec![1, 2, 3]),
            ],
        };
        assert_eq!(roundtrip(Message::Open(open.clone())), Message::Open(open));
    }

    #[test]
    fn open_roundtrip_no_capabilities() {
        let open = OpenMsg {
            version: 4,
            my_as: 1,
            hold_time: 0,
            bgp_id: Ipv4Addr::new(9, 9, 9, 9),
            capabilities: vec![],
        };
        assert_eq!(roundtrip(Message::Open(open.clone())), Message::Open(open));
    }

    #[test]
    fn update_roundtrip_announce() {
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.1.0.0/16"), pfx("10.2.3.0/24"), pfx("0.0.0.0/0")],
        };
        assert_eq!(roundtrip(Message::Update(u.clone())), Message::Update(u));
    }

    #[test]
    fn update_roundtrip_withdraw_only() {
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.1.0.0/16"), pfx("192.168.1.128/25")],
            attrs: None,
            nlri: vec![],
        };
        assert_eq!(roundtrip(Message::Update(u.clone())), Message::Update(u));
    }

    #[test]
    fn wire_len_matches_encoding() {
        let cases = [
            UpdateMsg {
                withdrawn: vec![pfx("10.1.0.0/16"), pfx("0.0.0.0/0")],
                attrs: None,
                nlri: vec![],
            },
            UpdateMsg {
                withdrawn: vec![pfx("192.168.1.128/25")],
                attrs: Some(Arc::new(sample_attrs())),
                nlri: vec![pfx("10.2.3.0/24"), pfx("10.0.0.1/32")],
            },
            UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(PathAttributes {
                    // 200 ASNs forces the extended-length attribute form.
                    as_path: vec![AsPathSegment::Sequence(vec![64512; 200])],
                    med: None,
                    unknown: vec![(0xc0, 99, vec![0u8; 300])],
                    ..sample_attrs()
                })),
                nlri: vec![pfx("10.9.0.0/16")],
            },
        ];
        let open = |capabilities| {
            Message::Open(OpenMsg {
                version: 4,
                my_as: 64512,
                hold_time: 90,
                bgp_id: Ipv4Addr::new(1, 1, 1, 1),
                capabilities,
            })
        };
        let others = [
            Message::Keepalive,
            open(vec![]),
            open(vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::FourOctetAs(64512),
                Capability::Unknown(99, vec![1, 2, 3]),
            ]),
            Message::Notification(Notification::cease()),
            Message::Notification(Notification {
                code: 6,
                subcode: 2,
                data: vec![0xde, 0xad, 0xbe],
            }),
        ];
        for m in cases.into_iter().map(Message::Update).chain(others) {
            assert_eq!(m.wire_len(), m.encode().len(), "{m:?}");
        }
    }

    /// Runs [`encode_updates`] and checks what it wrote without reference
    /// to how it splits: every message decodes, fits, carries `block`
    /// untouched and could not have taken the next message's first prefix;
    /// together they carry `prefixes` in order. Returns the message lengths.
    fn checked_encode_updates(block: Option<&[u8]>, prefixes: &[Ipv4Prefix]) -> Vec<usize> {
        let (mut out, mut ends) = (BytesMut::new(), Vec::new());
        encode_updates(block, prefixes, &mut out, &mut ends);
        let mut runs: Vec<Vec<Ipv4Prefix>> = Vec::new();
        let mut lens = Vec::new();
        let mut start = 0;
        for end in ends {
            let bytes = &out[start..end];
            assert!(bytes.len() <= MAX_MESSAGE_LEN, "{} bytes", bytes.len());
            let Ok(Some((Message::Update(u), n))) = Message::decode(bytes) else {
                panic!("not an UPDATE: {bytes:?}");
            };
            assert_eq!(n, bytes.len());
            match block {
                Some(block) => {
                    assert!(u.withdrawn.is_empty());
                    let at = UpdateMsg::FIXED_LEN;
                    assert_eq!(bytes[at..at + block.len()], *block);
                    runs.push(u.nlri);
                }
                None => {
                    assert!(u.attrs.is_none() && u.nlri.is_empty());
                    runs.push(u.withdrawn);
                }
            }
            lens.push(bytes.len());
            start = end;
        }
        assert_eq!(start, out.len());
        for (i, next) in runs.iter().enumerate().skip(1) {
            assert!(
                lens[i - 1] + prefix_wire_len(&next[0]) > MAX_MESSAGE_LEN,
                "message {} had room for the next prefix",
                i - 1
            );
        }
        assert_eq!(runs.concat(), prefixes);
        lens
    }

    /// `n` wire bytes of prefixes: /24s, then one shorter prefix for the
    /// remainder.
    fn prefixes_of_wire_len(n: usize) -> Vec<Ipv4Prefix> {
        let mut out: Vec<Ipv4Prefix> = (0..n as u32 / 4)
            .map(|g| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 | (g << 8)), 24))
            .collect();
        match n % 4 {
            0 => {}
            r => out.push(Ipv4Prefix::new(
                Ipv4Addr::new(77, 1, 0, 0),
                8 * (r as u8 - 1),
            )),
        }
        assert_eq!(out.iter().map(prefix_wire_len).sum::<usize>(), n);
        out
    }

    /// `attrs` with an unknown attribute added that brings its encoded
    /// block to `len` bytes.
    fn attrs_of_block_len(len: usize) -> (Arc<PathAttributes>, BytesMut) {
        let mut block = BytesMut::new();
        encode_attrs(&sample_attrs(), &mut block);
        // Extended-length attribute header: flags, type, two length bytes.
        let pad = len - block.len() - 4;
        assert!(pad > 255);
        let attrs = Arc::new(PathAttributes {
            unknown: vec![(0xc0, 99, vec![7u8; pad])],
            ..sample_attrs()
        });
        block.clear();
        encode_attrs(&attrs, &mut block);
        assert_eq!(block.len(), len);
        (attrs, block)
    }

    /// What the parent commit's sender would have put on the wire: the
    /// whole message through `split_to_fit`, each piece encoded. It shares
    /// no code with [`encode_updates`].
    fn split_to_fit_encodings(
        attrs: Option<&Arc<PathAttributes>>,
        prefixes: &[Ipv4Prefix],
    ) -> Vec<Bytes> {
        let whole = match attrs {
            Some(attrs) => UpdateMsg {
                withdrawn: vec![],
                attrs: Some(attrs.clone()),
                nlri: prefixes.to_vec(),
            },
            None => UpdateMsg {
                withdrawn: prefixes.to_vec(),
                attrs: None,
                nlri: vec![],
            },
        };
        split_to_fit(whole)
            .into_iter()
            .map(|u| Message::Update(u).encode())
            .collect()
    }

    fn lens(messages: &[Bytes]) -> Vec<usize> {
        messages.iter().map(Bytes::len).collect()
    }

    #[test]
    fn pre_encoded_updates_match_split_to_fit() {
        // The image the speaker copies per peer: an attribute block encoded
        // once, NLRI (or withdrawals) appended.
        let attrs = Arc::new(sample_attrs());
        let mut block = BytesMut::new();
        let next_hop_at = encode_attrs(&attrs, &mut block);
        assert_eq!(block[next_hop_at..next_hop_at + 4], [10, 0, 0, 1]);
        let many = prefixes_of_wire_len(6000);
        for prefixes in [&many[..1], &many[..]] {
            for announce in [true, false] {
                let expected = split_to_fit_encodings(announce.then_some(&attrs), prefixes);
                let (mut out, mut ends) = (BytesMut::new(), Vec::new());
                encode_updates(
                    announce.then_some(&block[..]),
                    prefixes,
                    &mut out,
                    &mut ends,
                );
                assert_eq!(ends.len(), expected.len());
                let mut start = 0;
                for (end, want) in ends.into_iter().zip(expected) {
                    assert_eq!(out[start..end], want[..]);
                    if announce {
                        let at = start + announce_next_hop_offset(next_hop_at);
                        assert_eq!(out[at..at + 4], [10, 0, 0, 1]);
                    }
                    start = end;
                }
            }
        }
    }

    #[test]
    fn pre_encoded_updates_split_at_the_byte() {
        let attrs = Arc::new(sample_attrs());
        let mut block = BytesMut::new();
        encode_attrs(&attrs, &mut block);
        for block in [Some(&block[..]), None] {
            let room = MAX_MESSAGE_LEN - UpdateMsg::FIXED_LEN - block.map_or(0, <[u8]>::len);
            // Checked on its own terms, then against the reference.
            let encode = |prefixes: &[Ipv4Prefix]| {
                let got = checked_encode_updates(block, prefixes);
                let reference = split_to_fit_encodings(block.map(|_| &attrs), prefixes);
                assert_eq!(got, lens(&reference));
                got
            };
            // A run that ends exactly on the limit stays one message.
            for exact in [room, room - 1] {
                let got = encode(&prefixes_of_wire_len(exact));
                assert_eq!(got, [MAX_MESSAGE_LEN - (room - exact)]);
            }
            // One byte over and the last prefix moves to a second message.
            for over in 1..=5 {
                let got = encode(&prefixes_of_wire_len(room + over));
                assert_eq!(got.len(), 2, "{over} over: {got:?}");
            }
            // Two full messages and a third of one prefix.
            let mut prefixes = prefixes_of_wire_len(room);
            prefixes.extend(prefixes_of_wire_len(room));
            prefixes.push(pfx("192.0.2.0/24"));
            assert_eq!(
                encode(&prefixes),
                [MAX_MESSAGE_LEN, MAX_MESSAGE_LEN, MAX_MESSAGE_LEN - room + 4]
            );
        }
    }

    #[test]
    fn near_maximal_attribute_block_still_carries_a_short_prefix() {
        // 23 + 4070 leaves three bytes: a /8 or a /16 fits, one per message.
        let (attrs, block) = attrs_of_block_len(4070);
        for prefix in [pfx("77.0.0.0/8"), pfx("77.1.0.0/16")] {
            let lens = checked_encode_updates(Some(&block), &[prefix]);
            let whole = UpdateMsg {
                withdrawn: vec![],
                attrs: Some(attrs.clone()),
                nlri: vec![prefix],
            };
            assert_eq!(lens, [whole.wire_len()]);
            assert_eq!(split_to_fit(whole.clone()), vec![whole]);
        }
        let lens = checked_encode_updates(Some(&block), &[pfx("77.0.0.0/8"), pfx("78.0.0.0/8")]);
        assert_eq!(lens, [4095, 4095]);
    }

    #[test]
    fn prefix_that_cannot_follow_its_attribute_block_is_unsendable() {
        // 23 + 4070 + 4 is one byte over: a /24 cannot be announced behind
        // this block, a /16 can, and one byte less of block lets the /24.
        let (_, block) = attrs_of_block_len(4070);
        let p24 = pfx("77.1.2.0/24");
        assert_eq!(
            check_announce(block.len(), p24),
            Err(Unsendable {
                prefix: p24,
                attrs_len: 4070
            })
        );
        assert_eq!(check_announce(block.len(), pfx("77.1.0.0/16")), Ok(()));
        assert_eq!(check_announce(4069, p24), Ok(()));
    }

    #[test]
    fn split_to_fit_keeps_small_updates_intact() {
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.1.0.0/16")],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.2.3.0/24")],
        };
        assert_eq!(split_to_fit(u.clone()), vec![u]);
    }

    #[test]
    fn split_to_fit_chunks_oversized_updates() {
        // 1500 /24s (4 wire bytes each) blows well past 4096 in both the
        // withdrawn and NLRI sections.
        let many: Vec<Ipv4Prefix> = (0u32..1500)
            .map(|g| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 | (g << 8)), 24))
            .collect();
        let u = UpdateMsg {
            withdrawn: many.clone(),
            attrs: Some(Arc::new(sample_attrs())),
            nlri: many.clone(),
        };
        let chunks = split_to_fit(u);
        assert!(
            chunks.len() >= 4,
            "expected several chunks, got {}",
            chunks.len()
        );
        let mut withdrawn = Vec::new();
        let mut nlri = Vec::new();
        for c in &chunks {
            assert!(c.wire_len() <= MAX_MESSAGE_LEN);
            // Each chunk must survive a codec roundtrip.
            assert_eq!(
                roundtrip(Message::Update(c.clone())),
                Message::Update(c.clone())
            );
            assert!(c.withdrawn.is_empty() || c.nlri.is_empty());
            if c.nlri.is_empty() {
                assert!(c.attrs.is_none());
            } else {
                assert_eq!(c.attrs.as_deref(), Some(&sample_attrs()));
            }
            withdrawn.extend(c.withdrawn.iter().copied());
            nlri.extend(c.nlri.iter().copied());
        }
        // Order and content preserved exactly.
        assert_eq!(withdrawn, many);
        assert_eq!(nlri, many);
    }

    #[test]
    fn notification_roundtrip() {
        let n = Notification {
            code: 6,
            subcode: 2,
            data: vec![0xde, 0xad],
        };
        assert_eq!(
            roundtrip(Message::Notification(n.clone())),
            Message::Notification(n)
        );
    }

    #[test]
    fn incomplete_buffer_returns_none() {
        let bytes = Message::Keepalive.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Message::decode(&bytes[..cut]).unwrap(), None, "cut={cut}");
        }
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = Message::Keepalive.encode().to_vec();
        bytes[3] = 0;
        assert_eq!(Message::decode(&bytes), Err(CodecError::BadMarker));
    }

    #[test]
    fn bad_length_rejected() {
        let mut bytes = Message::Keepalive.encode().to_vec();
        bytes[16] = 0xff;
        bytes[17] = 0xff; // 65535 > 4096
        assert!(matches!(
            Message::decode(&bytes),
            Err(CodecError::BadLength(_))
        ));
        bytes[16] = 0;
        bytes[17] = 5; // 5 < 19
        assert!(matches!(
            Message::decode(&bytes),
            Err(CodecError::BadType(_)) | Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn bad_type_rejected() {
        let mut bytes = Message::Keepalive.encode().to_vec();
        bytes[18] = 42;
        assert_eq!(Message::decode(&bytes), Err(CodecError::BadType(42)));
    }

    #[test]
    fn nlri_without_attrs_rejected() {
        // Hand-craft: empty withdrawn, empty attrs, one NLRI prefix.
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(0);
        body.put_u8(8);
        body.put_u8(10);
        let mut out = BytesMut::new();
        out.put_slice(&[0xff; 16]);
        out.put_u16((HEADER_LEN + body.len()) as u16);
        out.put_u8(2);
        out.put_slice(&body);
        assert!(matches!(
            Message::decode(&out),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn as_path_helpers() {
        let a = sample_attrs();
        assert_eq!(a.as_path_len(), 2);
        assert!(a.contains_asn(64513));
        assert!(!a.contains_asn(7));
        assert_eq!(a.neighbor_as(), Some(64512));
        let b = a.prepended(65000);
        assert_eq!(b.neighbor_as(), Some(65000));
        assert_eq!(b.as_path_len(), 3);
    }

    #[test]
    fn prepend_onto_set_creates_sequence() {
        let mut a = sample_attrs();
        a.as_path = vec![AsPathSegment::Set(vec![1, 2])];
        let b = a.prepended(9);
        assert_eq!(
            b.as_path,
            vec![
                AsPathSegment::Sequence(vec![9]),
                AsPathSegment::Set(vec![1, 2])
            ]
        );
        assert_eq!(b.as_path_len(), 2, "set counts once");
    }

    #[test]
    fn communities_roundtrip() {
        let mut a = sample_attrs();
        a.communities = vec![0x0001_0002, 0xff00_0001, 0xffff_ff01];
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a.clone())),
            nlri: vec![pfx("10.0.0.0/8")],
        };
        assert_eq!(u.wire_len(), Message::Update(u.clone()).encode().len());
        match roundtrip(Message::Update(u)) {
            Message::Update(got) => {
                let ga = got.attrs.unwrap();
                assert_eq!(ga.communities, a.communities);
                assert!(ga.has_community(0xff00_0001));
                assert!(!ga.has_community(0xff00_0002));
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn empty_communities_are_not_encoded() {
        // Byte-compat with the pre-communities codec: an empty list adds
        // zero wire bytes and no type-8 attribute appears in the encoding.
        let without = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let mut a = sample_attrs();
        a.communities = vec![0xff00_0001];
        let with = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a)),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        // One community = 3-byte attr header + 4-byte value.
        assert_eq!(with.len(), without.len() + 7);
    }

    #[test]
    fn decoded_communities_are_canonicalized() {
        // Hand-craft a type-8 attr with unsorted duplicates; the decoder
        // must sort + dedup so equal sets intern identically.
        let mut a = sample_attrs();
        a.communities = vec![5, 5, 3, 9, 3];
        let bytes = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a)),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let (decoded, _) = Message::decode(&bytes).unwrap().unwrap();
        match decoded {
            Message::Update(u) => assert_eq!(u.attrs.unwrap().communities, vec![3, 5, 9]),
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn originated_attrs_have_empty_path() {
        let a = PathAttributes::originated(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(a.as_path_len(), 0);
        assert_eq!(a.neighbor_as(), None);
    }

    #[test]
    fn stream_decoder_reassembles() {
        let mut dec = StreamDecoder::new();
        let m1 = Message::Keepalive.encode();
        let m2 = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let all = [m1.as_ref(), m2.as_ref()].concat();
        // Feed one byte at a time.
        let mut got = Vec::new();
        for b in all {
            dec.push(&[b]);
            while let Some(m) = dec.next().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Message::Keepalive);
        assert!(matches!(got[1], Message::Update(_)));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn hold_time_1_or_2_rejected() {
        let open = OpenMsg {
            version: 4,
            my_as: 1,
            hold_time: 90,
            bgp_id: Ipv4Addr::new(1, 1, 1, 1),
            capabilities: vec![],
        };
        let mut bytes = Message::Open(open).encode().to_vec();
        bytes[HEADER_LEN + 3] = 0;
        bytes[HEADER_LEN + 4] = 1; // hold time 1
        assert!(matches!(
            Message::decode(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_attrs_survive_roundtrip() {
        let mut a = sample_attrs();
        a.unknown = vec![(ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE, 16, vec![0; 300])];
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a.clone())),
            nlri: vec![pfx("10.0.0.0/8")],
        };
        // 300-byte value exercises the extended-length flag path.
        match roundtrip(Message::Update(u)) {
            Message::Update(got) => {
                let ga = got.attrs.unwrap();
                assert_eq!(ga.unknown.len(), 1);
                assert_eq!(ga.unknown[0].2.len(), 300);
                assert_ne!(ga.unknown[0].0 & ATTR_FLAG_EXTENDED, 0);
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn stream_decoder_drains_a_long_push_without_losing_the_tail() {
        let keepalive = Message::Keepalive.encode();
        let update = Message::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(sample_attrs())),
            nlri: vec![pfx("10.0.0.0/8")],
        })
        .encode();
        let tail = &update[..update.len() - 3];
        let mut all = Vec::new();
        for _ in 0..4096 {
            all.extend_from_slice(&keepalive);
        }
        all.extend_from_slice(tail);
        let mut dec = StreamDecoder::new();
        dec.push(&all);
        let mut got = 0;
        while let Some(m) = dec.next().unwrap() {
            assert_eq!(m, Message::Keepalive);
            got += 1;
            assert_eq!(dec.buffered(), all.len() - got * keepalive.len());
        }
        assert_eq!(got, 4096);
        assert_eq!(dec.buffered(), tail.len());
        // The rest of the truncated message completes it.
        dec.push(&update[tail.len()..]);
        assert!(matches!(dec.next(), Ok(Some(Message::Update(_)))));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn stream_decoder_reports_a_bad_marker_mid_buffer() {
        let keepalive = Message::Keepalive.encode();
        let mut all = [&keepalive[..], &keepalive[..], &keepalive[..]].concat();
        all[2 * keepalive.len() + 5] = 0;
        let mut dec = StreamDecoder::new();
        dec.push(&all);
        assert_eq!(dec.next(), Ok(Some(Message::Keepalive)));
        assert_eq!(dec.next(), Ok(Some(Message::Keepalive)));
        assert_eq!(dec.next(), Err(CodecError::BadMarker));
    }

    #[test]
    fn unknown_attr_keeps_its_extended_length_flag_on_a_short_value() {
        // Received with the two-byte length form although one byte would
        // do (legal): the flag is part of the carried attribute, so the
        // re-encoding must use the form the flag announces.
        let mut a = sample_attrs();
        a.unknown = vec![(
            ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE | ATTR_FLAG_EXTENDED,
            16,
            vec![7; 5],
        )];
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(a)),
            nlri: vec![pfx("10.0.0.0/8")],
        };
        assert_eq!(u.wire_len(), Message::Update(u.clone()).encode().len());
        assert_eq!(roundtrip(Message::Update(u.clone())), Message::Update(u));
    }
}
