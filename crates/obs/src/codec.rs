//! Wire codec for trace events: `tag(u8) · len(uvarint) · payload`,
//! written and read with [`tw_proto::frame`]'s cursors — the same
//! primitives, error type and bounds as protocol datagrams.
//!
//! ```text
//! event    := tag:u8 len:uvarint payload[len]
//! payload  := pid stamp fields               (per tag, below)
//! stamp    := hw:ivarint sync:ivarint
//! 0 decision-sent           send_ts:ivarint view-id
//! 1 decision-received       from:pid send_ts:ivarint view-id
//! 2 suspicion-raised        suspect:pid view-id
//! 3 no-decision-hop         suspect:pid send_ts:ivarint view-id
//! 4 wrong-suspicion-rescue  suspect:pid view-id
//! 5 reconfig-slot-fired     slot:ivarint listed:uvarint empty:bool
//! 6 view-installed          view-id members:uvarint
//! 7 delivered               proposal-id (0x00 | 0x01 ordinal:uvarint) semantics
//!                           send_ts:ivarint view-id
//! 8 purged                  view-id lost:uvarint orphaned:uvarint unknown:uvarint
//! 9 fault-injected          kind:u8 target:pid arg:uvarint
//! ```
//!
//! (`pid`, `view-id`, `proposal-id`, `semantics`, `uvarint`, `ivarint`
//! and `bool` as in the [`tw_proto::frame`] grammar; the writer emits
//! `len` as the cursor's padded 4-byte LEB128.)
//!
//! The explicit payload length is what buys forward compatibility in
//! both directions:
//!
//! * an **unknown tag** decodes to [`TraceEvent::Unknown`] — the payload
//!   is skipped, and the rest of the stream stays parseable;
//! * a **known tag with extra trailing payload bytes** (a newer producer
//!   appended fields) still decodes: parsing reads the fields it knows
//!   and discards the remainder of the frame.
//!
//! Decoding is total: arbitrary bytes either decode or return a
//! [`WireError`], never panic (fuzzed in `proptests/tests/prop_obs_codec.rs`).

use crate::trace::{ClockStamp, FaultKind, TraceEvent};
use tw_proto::frame::{
    get_pid, get_proposal_id, get_semantics, get_view_id, put_pid, put_proposal_id, put_semantics,
    put_view_id,
};
use tw_proto::{AckBits, FrameRef, HwTime, Ordinal, SyncTime, WireCursor, WireError};

/// Highest event tag this version of the crate produces.
pub const MAX_KNOWN_TAG: u8 = 9;

/// Upper bound on one encoded event: tag, padded length and the longest
/// payload (`delivered` with every varint at full width is 72 bytes).
pub const MAX_EVENT_LEN: usize = 80;

impl TraceEvent {
    /// The variant's wire tag. [`TraceEvent::Unknown`] re-encodes under
    /// the tag it was decoded with (and an empty payload).
    pub fn tag(&self) -> u8 {
        match self {
            TraceEvent::DecisionSent { .. } => 0,
            TraceEvent::DecisionReceived { .. } => 1,
            TraceEvent::SuspicionRaised { .. } => 2,
            TraceEvent::NoDecisionHop { .. } => 3,
            TraceEvent::WrongSuspicionRescue { .. } => 4,
            TraceEvent::ReconfigSlotFired { .. } => 5,
            TraceEvent::ViewInstalled { .. } => 6,
            TraceEvent::Delivered { .. } => 7,
            TraceEvent::Purged { .. } => 8,
            TraceEvent::FaultInjected { .. } => 9,
            TraceEvent::Unknown { tag } => *tag,
        }
    }

    /// Append this event's frame (`tag · len · payload`).
    pub fn encode(&self, w: &mut WireCursor) {
        w.put_u8(self.tag());
        let frame = w.begin_frame();
        if let (Some(pid), Some(at)) = (self.pid(), self.stamp()) {
            put_pid(w, pid);
            w.put_ivarint(at.hw.0);
            w.put_ivarint(at.sync.0);
        }
        match self {
            TraceEvent::DecisionSent { send_ts, view, .. } => {
                w.put_ivarint(send_ts.0);
                put_view_id(w, view);
            }
            TraceEvent::DecisionReceived {
                from,
                send_ts,
                view,
                ..
            } => {
                put_pid(w, *from);
                w.put_ivarint(send_ts.0);
                put_view_id(w, view);
            }
            TraceEvent::SuspicionRaised { suspect, view, .. }
            | TraceEvent::WrongSuspicionRescue { suspect, view, .. } => {
                put_pid(w, *suspect);
                put_view_id(w, view);
            }
            TraceEvent::NoDecisionHop {
                suspect,
                send_ts,
                view,
                ..
            } => {
                put_pid(w, *suspect);
                w.put_ivarint(send_ts.0);
                put_view_id(w, view);
            }
            TraceEvent::ReconfigSlotFired {
                slot,
                listed,
                empty,
                ..
            } => {
                w.put_ivarint(*slot);
                w.put_uvarint(*listed as u64);
                w.put_bool(*empty);
            }
            TraceEvent::ViewInstalled { view, members, .. } => {
                put_view_id(w, view);
                w.put_uvarint(members.0);
            }
            TraceEvent::Delivered {
                id,
                ordinal,
                semantics,
                send_ts,
                view,
                ..
            } => {
                put_proposal_id(w, id);
                w.put_bool(ordinal.is_some());
                if let Some(o) = ordinal {
                    w.put_uvarint(o.0);
                }
                put_semantics(w, semantics);
                w.put_ivarint(send_ts.0);
                put_view_id(w, view);
            }
            TraceEvent::Purged {
                view,
                lost,
                orphaned,
                unknown,
                ..
            } => {
                put_view_id(w, view);
                w.put_uvarint(*lost as u64);
                w.put_uvarint(*orphaned as u64);
                w.put_uvarint(*unknown as u64);
            }
            TraceEvent::FaultInjected {
                kind, target, arg, ..
            } => {
                w.put_u8(*kind as u8);
                put_pid(w, *target);
                w.put_uvarint(*arg as u64);
            }
            TraceEvent::Unknown { .. } => {}
        }
        w.end_frame(frame);
    }

    /// Consume one event frame from the front of `f`.
    pub fn decode(f: &mut FrameRef<'_>) -> Result<TraceEvent, WireError> {
        let tag = f.u8("trace event tag")?;
        let mut payload = FrameRef::new(f.bytes("trace event payload")?);
        if tag > MAX_KNOWN_TAG {
            // Newer producer: skip the frame, keep the stream parseable.
            return Ok(TraceEvent::Unknown { tag });
        }
        let p = &mut payload;
        let pid = get_pid(p)?;
        let at = ClockStamp {
            hw: HwTime(p.ivarint("hw")?),
            sync: SyncTime(p.ivarint("sync")?),
        };
        // Trailing payload bytes (fields appended by a newer producer)
        // are deliberately ignored.
        Ok(match tag {
            0 => TraceEvent::DecisionSent {
                pid,
                at,
                send_ts: SyncTime(p.ivarint("send-ts")?),
                view: get_view_id(p)?,
            },
            1 => TraceEvent::DecisionReceived {
                pid,
                at,
                from: get_pid(p)?,
                send_ts: SyncTime(p.ivarint("send-ts")?),
                view: get_view_id(p)?,
            },
            2 => TraceEvent::SuspicionRaised {
                pid,
                at,
                suspect: get_pid(p)?,
                view: get_view_id(p)?,
            },
            3 => TraceEvent::NoDecisionHop {
                pid,
                at,
                suspect: get_pid(p)?,
                send_ts: SyncTime(p.ivarint("send-ts")?),
                view: get_view_id(p)?,
            },
            4 => TraceEvent::WrongSuspicionRescue {
                pid,
                at,
                suspect: get_pid(p)?,
                view: get_view_id(p)?,
            },
            5 => TraceEvent::ReconfigSlotFired {
                pid,
                at,
                slot: p.ivarint("slot")?,
                listed: p.narrow("listed")?,
                empty: p.bool("empty")?,
            },
            6 => TraceEvent::ViewInstalled {
                pid,
                at,
                view: get_view_id(p)?,
                members: AckBits(p.uvarint("members")?),
            },
            7 => TraceEvent::Delivered {
                pid,
                at,
                id: get_proposal_id(p)?,
                ordinal: match p.bool("has ordinal")? {
                    true => Some(Ordinal(p.uvarint("ordinal")?)),
                    false => None,
                },
                semantics: get_semantics(p)?,
                send_ts: SyncTime(p.ivarint("send-ts")?),
                view: get_view_id(p)?,
            },
            8 => TraceEvent::Purged {
                pid,
                at,
                view: get_view_id(p)?,
                lost: p.narrow("lost")?,
                orphaned: p.narrow("orphaned")?,
                unknown: p.narrow("unknown")?,
            },
            9 => TraceEvent::FaultInjected {
                pid,
                at,
                kind: {
                    let b = p.u8("fault kind")?;
                    FaultKind::from_u8(b).ok_or(WireError::BadTag {
                        what: "fault kind",
                        tag: b,
                    })?
                },
                target: get_pid(p)?,
                arg: p.narrow("arg")?,
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "trace event",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tw_proto::{ProcessId, ProposalId, Semantics, ViewId};

    fn to_bytes(ev: &TraceEvent) -> Vec<u8> {
        let mut buf = Vec::new();
        ev.encode(&mut WireCursor::new(&mut buf));
        buf
    }

    fn from_bytes(bytes: &[u8]) -> Result<TraceEvent, WireError> {
        let mut f = FrameRef::new(bytes);
        let ev = TraceEvent::decode(&mut f)?;
        f.finish()?;
        Ok(ev)
    }

    /// `tag · len · payload` by hand, for frames no encoder produces.
    fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![tag];
        WireCursor::new(&mut buf).put_bytes(payload);
        buf
    }

    /// The payload bytes of `ev`'s frame.
    fn payload_of(ev: &TraceEvent) -> Vec<u8> {
        let bytes = to_bytes(ev);
        let mut f = FrameRef::new(&bytes[1..]);
        f.bytes("payload").unwrap().to_vec()
    }

    fn stamp(hw: i64, sync: i64) -> ClockStamp {
        ClockStamp {
            hw: HwTime(hw),
            sync: SyncTime(sync),
        }
    }

    pub(crate) fn all_variants() -> Vec<TraceEvent> {
        let pid = ProcessId(3);
        let view = ViewId::new(7, ProcessId(1));
        let at = stamp(1_000, 1_002);
        vec![
            TraceEvent::DecisionSent {
                pid,
                at,
                send_ts: SyncTime(5),
                view,
            },
            TraceEvent::DecisionReceived {
                pid,
                at,
                from: ProcessId(2),
                send_ts: SyncTime(5),
                view,
            },
            TraceEvent::SuspicionRaised {
                pid,
                at,
                suspect: ProcessId(4),
                view,
            },
            TraceEvent::NoDecisionHop {
                pid,
                at,
                suspect: ProcessId(4),
                send_ts: SyncTime(6),
                view,
            },
            TraceEvent::WrongSuspicionRescue {
                pid,
                at,
                suspect: ProcessId(0),
                view,
            },
            TraceEvent::ReconfigSlotFired {
                pid,
                at,
                slot: -3,
                listed: 4,
                empty: true,
            },
            TraceEvent::ViewInstalled {
                pid,
                at,
                view,
                members: AckBits(0b1_0111),
            },
            TraceEvent::Delivered {
                pid,
                at,
                id: ProposalId::new(ProcessId(2), 9),
                ordinal: Some(Ordinal(11)),
                semantics: Semantics::TOTAL_STRONG,
                send_ts: SyncTime(4),
                view,
            },
            TraceEvent::Delivered {
                pid,
                at,
                id: ProposalId::new(ProcessId(2), 10),
                ordinal: None,
                semantics: Semantics::UNORDERED_WEAK,
                send_ts: SyncTime(5),
                view,
            },
            TraceEvent::Purged {
                pid,
                at,
                view,
                lost: 1,
                orphaned: 2,
                unknown: 3,
            },
            TraceEvent::FaultInjected {
                pid,
                at,
                kind: FaultKind::Corrupt,
                target: ProcessId(1),
                arg: 17,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for ev in all_variants() {
            let back = from_bytes(&to_bytes(&ev)).unwrap();
            assert_eq!(back, ev, "roundtrip of {}", ev.label());
        }
    }

    #[test]
    fn widest_event_fits_max_event_len() {
        let pid = ProcessId(u16::MAX);
        let ev = TraceEvent::Delivered {
            pid,
            at: stamp(i64::MIN, i64::MIN),
            id: ProposalId::new(pid, u64::MAX),
            ordinal: Some(Ordinal(u64::MAX)),
            semantics: Semantics::TIME_STRICT,
            send_ts: SyncTime(i64::MIN),
            view: ViewId::new(u64::MAX, pid),
        };
        let bytes = to_bytes(&ev);
        assert_eq!(bytes.len(), 77);
        assert!(bytes.len() <= MAX_EVENT_LEN);
        assert_eq!(from_bytes(&bytes).unwrap(), ev);
    }

    #[test]
    fn a_stream_of_events_decodes_in_sequence() {
        let evs = all_variants();
        let mut buf = Vec::new();
        for ev in &evs {
            ev.encode(&mut WireCursor::new(&mut buf));
        }
        let mut f = FrameRef::new(&buf);
        for ev in &evs {
            assert_eq!(&TraceEvent::decode(&mut f).unwrap(), ev);
        }
        assert!(f.is_exhausted());
    }

    #[test]
    fn unknown_tag_skips_payload_and_keeps_stream() {
        // Frame a fictitious tag-42 event with 5 payload bytes, followed
        // by a real event.
        let real = all_variants().remove(0);
        let mut buf = frame(42, &[9, 9, 9, 9, 9]);
        real.encode(&mut WireCursor::new(&mut buf));
        let mut f = FrameRef::new(&buf);
        assert_eq!(
            TraceEvent::decode(&mut f).unwrap(),
            TraceEvent::Unknown { tag: 42 }
        );
        assert_eq!(TraceEvent::decode(&mut f).unwrap(), real);
        assert!(f.is_exhausted());
    }

    #[test]
    fn known_tag_with_appended_fields_still_decodes() {
        // A newer producer appends bytes to a DecisionSent payload; we
        // must parse the fields we know and skip the rest of the frame.
        let ev = all_variants().remove(0);
        let mut payload = payload_of(&ev);
        payload.extend_from_slice(&[1, 2, 3]);
        assert_eq!(from_bytes(&frame(ev.tag(), &payload)).unwrap(), ev);
    }

    #[test]
    fn truncated_input_errors_without_panicking() {
        for ev in all_variants() {
            let full = to_bytes(&ev);
            for cut in 0..full.len() {
                assert!(from_bytes(&full[..cut]).is_err(), "{cut} bytes of {ev:?}");
            }
            // A frame whose length is honest but whose payload stops
            // short of the fields is an error too.
            let payload = payload_of(&ev);
            for cut in 0..payload.len() {
                assert!(from_bytes(&frame(ev.tag(), &payload[..cut])).is_err());
            }
        }
    }

    #[test]
    fn over_long_payload_length_errors_without_allocating() {
        let mut buf = vec![0u8];
        WireCursor::new(&mut buf).put_uvarint(u64::MAX);
        assert!(matches!(from_bytes(&buf), Err(WireError::TooLong { .. })));
    }

    #[test]
    fn bad_fault_kind_byte_errors_without_panicking() {
        // Frame a FaultInjected event whose kind byte is a value this
        // version does not know: decoding must fail cleanly, not panic
        // and not alias onto another kind.
        let mut payload = Vec::new();
        let mut w = WireCursor::new(&mut payload);
        put_pid(&mut w, ProcessId(2));
        w.put_ivarint(5);
        w.put_ivarint(6);
        w.put_u8(255);
        put_pid(&mut w, ProcessId(2));
        w.put_uvarint(0);
        assert!(matches!(
            from_bytes(&frame(9, &payload)),
            Err(WireError::BadTag {
                what: "fault kind",
                tag: 255
            })
        ));
    }

    #[test]
    fn unknown_reencodes_as_empty_frame() {
        let ev = TraceEvent::Unknown { tag: 99 };
        let bytes = to_bytes(&ev);
        assert_eq!(bytes, [99, 0x80, 0x80, 0x80, 0x00]); // tag + zero length
        assert_eq!(from_bytes(&bytes).unwrap(), ev);
    }
}
