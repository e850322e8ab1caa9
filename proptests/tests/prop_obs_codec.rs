//! Property tests for the trace-event wire codec: arbitrary events
//! round-trip, unknown tags are skipped without breaking the stream
//! (forward compatibility), and arbitrary byte soup never panics.

use proptest::prelude::*;
use tw_obs::codec::MAX_KNOWN_TAG;
use tw_obs::{ClockStamp, FaultKind, TraceEvent};
use tw_proto::{
    AckBits, Atomicity, FrameRef, HwTime, Ordinal, ProcessId, ProposalId, Semantics, SyncTime,
    ViewId, WireCursor, WireError,
};

fn to_bytes(ev: &TraceEvent) -> Vec<u8> {
    let mut buf = Vec::new();
    ev.encode(&mut WireCursor::new(&mut buf));
    buf
}

/// Decode one complete event, rejecting trailing bytes.
fn from_bytes(bytes: &[u8]) -> Result<TraceEvent, WireError> {
    let mut f = FrameRef::new(bytes);
    let ev = TraceEvent::decode(&mut f)?;
    f.finish()?;
    Ok(ev)
}

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u16..64).prop_map(ProcessId)
}

fn arb_stamp() -> impl Strategy<Value = ClockStamp> {
    (any::<i64>(), any::<i64>()).prop_map(|(hw, sync)| ClockStamp {
        hw: HwTime(hw),
        sync: SyncTime(sync),
    })
}

fn arb_view() -> impl Strategy<Value = ViewId> {
    (any::<u64>(), arb_pid()).prop_map(|(seq, creator)| ViewId::new(seq, creator))
}

fn arb_sem() -> impl Strategy<Value = Semantics> {
    (
        prop_oneof![
            Just(tw_proto::Ordering::Unordered),
            Just(tw_proto::Ordering::Total),
            Just(tw_proto::Ordering::Time)
        ],
        prop_oneof![
            Just(Atomicity::Weak),
            Just(Atomicity::Strong),
            Just(Atomicity::Strict)
        ],
    )
        .prop_map(|(o, a)| Semantics::new(o, a))
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (arb_pid(), arb_stamp(), any::<i64>(), arb_view()).prop_map(|(pid, at, ts, view)| {
            TraceEvent::DecisionSent {
                pid,
                at,
                send_ts: SyncTime(ts),
                view,
            }
        }),
        (arb_pid(), arb_stamp(), arb_pid(), any::<i64>(), arb_view()).prop_map(
            |(pid, at, from, ts, view)| TraceEvent::DecisionReceived {
                pid,
                at,
                from,
                send_ts: SyncTime(ts),
                view,
            }
        ),
        (arb_pid(), arb_stamp(), arb_pid(), arb_view()).prop_map(|(pid, at, suspect, view)| {
            TraceEvent::SuspicionRaised {
                pid,
                at,
                suspect,
                view,
            }
        }),
        (arb_pid(), arb_stamp(), arb_pid(), any::<i64>(), arb_view()).prop_map(
            |(pid, at, suspect, ts, view)| TraceEvent::NoDecisionHop {
                pid,
                at,
                suspect,
                send_ts: SyncTime(ts),
                view,
            }
        ),
        (arb_pid(), arb_stamp(), arb_pid(), arb_view()).prop_map(|(pid, at, suspect, view)| {
            TraceEvent::WrongSuspicionRescue {
                pid,
                at,
                suspect,
                view,
            }
        }),
        (
            arb_pid(),
            arb_stamp(),
            any::<i64>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(pid, at, slot, listed, empty)| TraceEvent::ReconfigSlotFired {
                pid,
                at,
                slot,
                listed,
                empty,
            }),
        (arb_pid(), arb_stamp(), arb_view(), any::<u64>()).prop_map(
            |(pid, at, view, members)| TraceEvent::ViewInstalled {
                pid,
                at,
                view,
                members: AckBits(members),
            }
        ),
        (
            arb_pid(),
            arb_stamp(),
            arb_pid(),
            any::<u64>(),
            proptest::option::of(any::<u64>().prop_map(Ordinal)),
            arb_sem(),
            any::<i64>(),
            arb_view()
        )
            .prop_map(
                |(pid, at, proposer, seq, ordinal, semantics, ts, view)| TraceEvent::Delivered {
                    pid,
                    at,
                    id: ProposalId::new(proposer, seq),
                    ordinal,
                    semantics,
                    send_ts: SyncTime(ts),
                    view,
                }
            ),
        (
            arb_pid(),
            arb_stamp(),
            arb_view(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(pid, at, view, lost, orphaned, unknown)| TraceEvent::Purged {
                pid,
                at,
                view,
                lost,
                orphaned,
                unknown,
            }),
        (
            arb_pid(),
            arb_stamp(),
            (0..FaultKind::ALL.len()).prop_map(|i| FaultKind::ALL[i]),
            arb_pid(),
            any::<u32>()
        )
            .prop_map(|(pid, at, kind, target, arg)| TraceEvent::FaultInjected {
                pid,
                at,
                kind,
                target,
                arg,
            }),
        // Unknown events only exist with tags beyond the known range
        // (re-encoding one under a known tag would be a lie on the wire).
        ((MAX_KNOWN_TAG + 1)..=u8::MAX).prop_map(|tag| TraceEvent::Unknown { tag }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_event_round_trips(ev in arb_event()) {
        let back = from_bytes(&to_bytes(&ev)).expect("decode");
        prop_assert_eq!(back, ev);
    }

    #[test]
    fn encoding_is_deterministic(ev in arb_event()) {
        prop_assert_eq!(to_bytes(&ev), to_bytes(&ev));
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; panicking or looping is not.
        let _ = from_bytes(&bytes);
    }

    #[test]
    fn truncation_always_detected(ev in arb_event(), cut_frac in 0.0f64..1.0) {
        let bytes = to_bytes(&ev);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_tags_are_skipped_in_streams(
        evs in proptest::collection::vec(arb_event(), 0..8),
        future_tag in (MAX_KNOWN_TAG + 1)..=u8::MAX,
        future_payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // Interleave a frame from a "future" producer at the front; every
        // event behind it must still decode.
        let mut buf = vec![future_tag];
        let mut w = WireCursor::new(&mut buf);
        w.put_bytes(&future_payload);
        for ev in &evs {
            ev.encode(&mut w);
        }
        let mut f = FrameRef::new(&buf);
        prop_assert_eq!(
            TraceEvent::decode(&mut f).expect("skip future frame"),
            TraceEvent::Unknown { tag: future_tag }
        );
        for ev in &evs {
            prop_assert_eq!(&TraceEvent::decode(&mut f).expect("tail event"), ev);
        }
        prop_assert!(f.is_exhausted());
    }
}
