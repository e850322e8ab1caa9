//! Corruption-focused codec properties: a datagram with flipped bits or
//! missing bytes — what a faulty network hands the receive path — must
//! never panic the decoder, must report a version problem only when the
//! version byte itself was hit, and must never expand past the decoder's
//! bounds. The chaos harness's `FaultTransport` relies on exactly this:
//! it models corruption as flip-then-drop (a UDP checksum failure), and
//! these properties guarantee the decode attempt it makes on the flipped
//! bytes is safe.

use bytes::Bytes;
use proptest::prelude::*;
use tw_proto::*;

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u16..64).prop_map(ProcessId)
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            arb_pid(),
            any::<u32>(),
            any::<u64>(),
            any::<i64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(p, inc, seq, ts, hdo, payload)| {
                Msg::Proposal(Proposal {
                    sender: p,
                    incarnation: Incarnation(inc),
                    seq,
                    send_ts: SyncTime(ts),
                    hdo: Ordinal(hdo),
                    semantics: Semantics::TOTAL_STRONG,
                    payload: Bytes::from(payload),
                })
            }),
        (
            arb_pid(),
            any::<u32>(),
            any::<i64>(),
            proptest::collection::vec((arb_pid(), any::<u32>().prop_map(Incarnation)), 0..8),
            any::<u64>()
        )
            .prop_map(|(p, inc, ts, join_list, alive)| {
                Msg::Join(Join {
                    sender: p,
                    incarnation: Incarnation(inc),
                    send_ts: SyncTime(ts),
                    join_list,
                    alive: AckBits(alive),
                })
            }),
        (arb_pid(), any::<u64>(), any::<i64>()).prop_map(|(p, rid, hw)| {
            Msg::ClockSync(ClockSyncMsg::Request {
                sender: p,
                rid,
                hw_send: HwTime(hw),
            })
        }),
        (
            arb_pid(),
            any::<u64>(),
            any::<i64>(),
            any::<i64>(),
            any::<bool>()
        )
            .prop_map(|(p, rid, hw, sync, synced)| {
                Msg::ClockSync(ClockSyncMsg::Reply {
                    sender: p,
                    rid,
                    hw_send_echo: HwTime(hw),
                    sync_at_reply: SyncTime(sync),
                    synced,
                })
            }),
        (
            arb_pid(),
            any::<i64>(),
            proptest::collection::vec(
                (arb_pid(), any::<u64>()).prop_map(|(p, s)| ProposalId::new(p, s)),
                0..8
            )
        )
            .prop_map(|(p, ts, missing)| {
                Msg::Nack(Nack {
                    sender: p,
                    send_ts: SyncTime(ts),
                    missing,
                })
            }),
    ]
}

/// An oal window made of run-shaped segments (same proposer, seq + 1,
/// constant timestamp stride) with breaks of every kind between and
/// inside them — what the oal block's run coding folds and must unfold.
fn arb_oal() -> impl Strategy<Value = Oal> {
    let segment = (
        arb_pid(),
        prop_oneof![0u64..1 << 20, u64::MAX - 40..=u64::MAX],
        any::<i64>(),
        -3i64..4,
        any::<u16>(),
        any::<u8>(),
        0u64..40,
        0u8..6,
    );
    (proptest::collection::vec(segment, 0..8), 0u64..1 << 40).prop_map(|(segments, pruned)| {
        let mut entries = Vec::new();
        for (p, seq, ts, stride, hdo, acks, len, breaker) in segments {
            for k in 0..len {
                let mut d = Descriptor::update(
                    ProposalId::new(p, seq.wrapping_add(k)),
                    Ordinal(hdo as u64),
                    Semantics::TOTAL_STRONG,
                    SyncTime(ts.wrapping_add(stride * k as i64)),
                    p,
                );
                d.acks = AckBits(acks as u64);
                if k == len / 2 {
                    match breaker {
                        0 => d.undeliverable = true,
                        1 => d.acks = AckBits(u64::MAX),
                        2 => entries
                            .push(Descriptor::membership(View::new(ViewId::new(k, p), [p]), p)),
                        _ => {}
                    }
                }
                entries.push(d);
            }
        }
        let mut oal = Oal::new();
        oal.restore(Ordinal(1 + pruned + entries.len() as u64), entries);
        oal
    })
}

/// The three message kinds that carry an oal.
fn arb_oal_msg() -> impl Strategy<Value = Msg> {
    (arb_oal(), arb_pid(), any::<i64>(), 0usize..3).prop_map(|(oal, p, ts, kind)| match kind {
        0 => Msg::Decision(Decision {
            sender: p,
            send_ts: SyncTime(ts),
            view: View::new(ViewId::new(1, p), [p]),
            oal,
            alive: AckBits(1),
        }),
        1 => Msg::NoDecision(NoDecision {
            sender: p,
            send_ts: SyncTime(ts),
            suspect: p,
            view_id: ViewId::new(1, p),
            oal_view: oal,
            dpd: vec![],
            alive: AckBits(1),
        }),
        _ => Msg::Reconfig(Reconfig {
            sender: p,
            send_ts: SyncTime(ts),
            reconfig_list: vec![p],
            last_decision_ts: SyncTime(ts),
            last_view: ViewId::new(1, p),
            oal_view: oal,
            dpd: vec![],
            alive: AckBits(1),
        }),
    })
}

/// A `propose_batch`-shaped datagram: `len` proposals of one sender that
/// a `FrameBuilder` folds into one run frame (timestamp deltas of either
/// sign, empty payloads included), then any other message.
fn arb_run_datagram() -> impl Strategy<Value = Vec<u8>> {
    (
        arb_pid(),
        any::<u32>(),
        any::<u64>(),
        any::<i64>(),
        proptest::collection::vec(
            (-300i64..300, proptest::collection::vec(any::<u8>(), 0..6)),
            1..40,
        ),
        arb_msg(),
    )
        .prop_map(|(p, inc, seq, ts, steps, tail)| {
            let mut b = tw_proto::frame::FrameBuilder::new();
            let mut send_ts = ts;
            for (k, (delta, payload)) in steps.into_iter().enumerate() {
                send_ts = send_ts.wrapping_add(delta);
                b.push_msg(&Msg::Proposal(Proposal {
                    sender: p,
                    incarnation: Incarnation(inc),
                    seq: seq.wrapping_add(k as u64),
                    send_ts: SyncTime(send_ts),
                    hdo: Ordinal(7),
                    semantics: Semantics::UNORDERED_WEAK,
                    payload: Bytes::from(payload),
                }));
            }
            b.push_msg(&tail);
            b.bytes().to_vec()
        })
}

/// Descriptors materialized by the oal blocks of one decoded datagram.
fn expanded(msgs: &[Msg]) -> usize {
    msgs.iter()
        .map(|m| match m {
            Msg::Decision(d) => d.oal.len(),
            Msg::NoDecision(nd) => nd.oal_view.len(),
            Msg::Reconfig(r) => r.oal_view.len(),
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ----- the oal block: delta-coded runs (exhaustive single-message
    // sweeps live in tests/oal_wire.rs, which also runs offline) -----

    #[test]
    fn oal_block_round_trips(msg in arb_oal_msg()) {
        let dgram = tw_proto::frame::encode_single(&msg);
        let back = tw_proto::frame::decode_datagram(&dgram);
        prop_assert_eq!(back, Ok(vec![msg]));
    }

    #[test]
    fn oal_block_truncated_anywhere_is_an_error(msg in arb_oal_msg()) {
        let dgram = tw_proto::frame::encode_single(&msg);
        for cut in 0..dgram.len() {
            prop_assert!(tw_proto::frame::decode_datagram(&dgram[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn oal_block_with_any_bit_flipped_is_an_error_or_a_bounded_message(
        msgs in proptest::collection::vec(arb_oal_msg(), 1..3),
    ) {
        let mut b = tw_proto::frame::FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        let dgram = b.bytes().to_vec();
        for bit in 0..dgram.len() * 8 {
            let mut flipped = dgram.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match tw_proto::frame::decode_datagram(&flipped) {
                Err(tw_proto::WireError::BadVersion { .. }) => prop_assert!(bit < 8),
                Err(_) => {}
                Ok(decoded) => prop_assert!(expanded(&decoded) <= tw_proto::frame::MAX_OAL_WINDOW),
            }
        }
    }

    // ----- framed datagrams: corruption across frame boundaries -----

    #[test]
    fn framed_bit_flip_never_panics(
        msgs in proptest::collection::vec(arb_msg(), 1..4),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut b = tw_proto::frame::FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        let mut flipped = b.bytes().to_vec();
        let idx = (byte_pick % flipped.len() as u64) as usize;
        flipped[idx] ^= 1 << bit;
        match tw_proto::frame::decode_datagram(&flipped) {
            // A flip that leaves the version byte intact must never be
            // reported as a version problem.
            Err(tw_proto::WireError::BadVersion { .. }) => prop_assert_eq!(idx, 0),
            Ok(_) | Err(_) => {}
        }
    }

    #[test]
    fn framed_truncation_yields_error_or_frame_prefix(
        msgs in proptest::collection::vec(arb_msg(), 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut b = tw_proto::frame::FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        let dgram = b.bytes().to_vec();
        let cut = ((dgram.len() as f64) * cut_frac) as usize;
        // Frames are length-prefixed, so cutting a datagram anywhere
        // either fails cleanly (mid-frame: the prefix overruns the
        // buffer) or decodes exactly the whole frames before the cut.
        match tw_proto::frame::decode_datagram(&dgram[..cut]) {
            Ok(decoded) => {
                prop_assert!(decoded.len() <= msgs.len());
                for (d, m) in decoded.iter().zip(&msgs) {
                    prop_assert_eq!(d, m);
                }
            }
            Err(_) => {}
        }
    }

    #[test]
    fn framed_length_prefix_flip_never_panics(
        msgs in proptest::collection::vec(arb_msg(), 1..4),
        prefix_byte in 0usize..4,
        bit in 0u8..8,
    ) {
        let mut b = tw_proto::frame::FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        let mut flipped = b.bytes().to_vec();
        // Byte 0 is the version; the first frame's LEB128 length prefix
        // starts at byte 1 and takes one or two bytes here, so bytes 1..5
        // hit the prefix and the start of the body. Attacking them
        // directly exercises the framing bounds checks, not the message
        // codec.
        flipped[1 + prefix_byte] ^= 1 << bit;
        let _ = tw_proto::frame::decode_datagram(&flipped);
    }

    // ----- proposal runs: corruption inside a run frame -----

    #[test]
    fn run_frame_flipped_or_cut_is_an_error_or_a_bounded_batch(
        dgram in arb_run_datagram(),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
        cut_frac in 0.0f64..1.0,
    ) {
        // Every continuation takes at least two bytes and every frame
        // more, so no datagram decodes to more than half its length in
        // messages.
        let mut flipped = dgram.clone();
        let idx = (byte_pick % flipped.len() as u64) as usize;
        flipped[idx] ^= 1 << bit;
        match tw_proto::frame::decode_datagram(&flipped) {
            Err(tw_proto::WireError::BadVersion { .. }) => prop_assert_eq!(idx, 0),
            Err(_) => {}
            Ok(decoded) => prop_assert!(decoded.len() <= flipped.len() / 2),
        }
        let cut = ((dgram.len() as f64) * cut_frac) as usize;
        match tw_proto::frame::decode_datagram(&dgram[..cut]) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(decoded.len() <= cut / 2),
        }
    }
}
