//! The whole-message UPDATE splitter: the reference the speaker's
//! pre-encoded UPDATEs (`msg::encode_updates`) are held to. It reads only
//! the public codec API and shares no code with the encoder, so the two
//! agree only if both split where RFC 4271's 4096-byte limit says.
//!
//! Test code only. The codec's unit tests (`src/msg.rs`) and
//! `tests/prop_fanout.rs` each include this file as a module; the parent
//! module must have `Ipv4Prefix`, `UpdateMsg` and `MAX_MESSAGE_LEN` in
//! scope.

use super::{Ipv4Prefix, UpdateMsg, MAX_MESSAGE_LEN};

/// Wire length of one prefix: the length octet plus the significant
/// address octets.
fn prefix_len(p: &Ipv4Prefix) -> usize {
    1 + usize::from(p.len()).div_ceil(8)
}

/// Splits `update` into UPDATEs that each fit within [`MAX_MESSAGE_LEN`],
/// preserving prefix order. An UPDATE that already fits is returned as
/// is; an oversized one becomes withdraw-only messages first, then NLRI
/// messages that each repeat the shared attributes (RFC 4271 §9.2), each
/// taking the longest run of prefixes that fits.
pub fn split_to_fit(update: UpdateMsg) -> Vec<UpdateMsg> {
    if update.wire_len() <= MAX_MESSAGE_LEN {
        return vec![update];
    }
    let UpdateMsg {
        withdrawn,
        attrs,
        nlri,
    } = update;
    let message = |withdrawn, attrs, nlri| UpdateMsg {
        withdrawn,
        attrs,
        nlri,
    };
    let mut out = Vec::new();
    // Withdrawals carry no attributes, so they pack densely.
    let base = message(vec![], None, vec![]).wire_len();
    let mut batch = Vec::new();
    let mut used = base;
    for p in withdrawn {
        if used + prefix_len(&p) > MAX_MESSAGE_LEN {
            out.push(message(std::mem::take(&mut batch), None, vec![]));
            used = base;
        }
        used += prefix_len(&p);
        batch.push(p);
    }
    if !batch.is_empty() {
        out.push(message(batch, None, vec![]));
    }
    if !nlri.is_empty() {
        let attrs = attrs.expect("NLRI without attributes");
        let base = message(vec![], Some(attrs.clone()), vec![]).wire_len();
        assert!(
            base + 5 <= MAX_MESSAGE_LEN,
            "path attributes leave no room for NLRI"
        );
        let mut batch = Vec::new();
        let mut used = base;
        for p in nlri {
            if used + prefix_len(&p) > MAX_MESSAGE_LEN {
                out.push(message(
                    vec![],
                    Some(attrs.clone()),
                    std::mem::take(&mut batch),
                ));
                used = base;
            }
            used += prefix_len(&p);
            batch.push(p);
        }
        out.push(message(vec![], Some(attrs), batch));
    }
    out
}
