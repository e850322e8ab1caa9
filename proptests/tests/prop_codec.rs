//! Property tests for the wire format: arbitrary messages round-trip
//! through a datagram, encode deterministically, fail on every
//! truncation, and arbitrary byte soup never panics the decoder; any
//! sequence of proposals comes back through a `FrameBuilder`'s runs
//! unchanged, never longer than framed one each, and broken into frames
//! exactly where a field changes.

use bytes::Bytes;
use proptest::prelude::*;
use tw_proto::*;

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u16..64).prop_map(ProcessId)
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

fn arb_view() -> impl Strategy<Value = View> {
    (
        any::<u64>(),
        arb_pid(),
        proptest::collection::btree_set(arb_pid(), 0..8),
    )
        .prop_map(|(seq, creator, members)| View::new(ViewId::new(seq, creator), members))
}

fn arb_desc() -> impl Strategy<Value = Descriptor> {
    (
        prop_oneof![
            (
                arb_pid(),
                any::<u64>(),
                any::<u64>(),
                arb_sem(),
                any::<i64>()
            )
                .prop_map(|(p, seq, hdo, sem, ts)| DescriptorBody::Update {
                    id: ProposalId::new(p, seq),
                    hdo: Ordinal(hdo),
                    semantics: sem,
                    send_ts: SyncTime(ts),
                }),
            arb_view().prop_map(DescriptorBody::Membership),
        ],
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(body, acks, undeliverable)| Descriptor {
            body,
            acks: AckBits(acks),
            undeliverable,
        })
}

fn arb_oal() -> impl Strategy<Value = Oal> {
    proptest::collection::vec(arb_desc(), 0..6).prop_map(|descs| {
        let mut oal = Oal::new();
        for d in descs {
            oal.append(d);
        }
        oal
    })
}

fn arb_update_desc() -> impl Strategy<Value = UpdateDesc> {
    (
        arb_pid(),
        any::<u64>(),
        any::<u64>(),
        arb_sem(),
        any::<i64>(),
    )
        .prop_map(|(p, seq, hdo, sem, ts)| UpdateDesc {
            id: ProposalId::new(p, seq),
            hdo: Ordinal(hdo),
            semantics: sem,
            send_ts: SyncTime(ts),
        })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            arb_pid(),
            any::<u32>(),
            any::<u64>(),
            any::<i64>(),
            any::<u64>(),
            arb_sem(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(p, inc, seq, ts, hdo, sem, payload)| {
                Msg::Proposal(Proposal {
                    sender: p,
                    incarnation: Incarnation(inc),
                    seq,
                    send_ts: SyncTime(ts),
                    hdo: Ordinal(hdo),
                    semantics: sem,
                    payload: Bytes::from(payload),
                })
            }),
        (arb_pid(), any::<i64>(), arb_view(), arb_oal(), any::<u64>()).prop_map(
            |(p, ts, view, oal, alive)| {
                Msg::Decision(Decision {
                    sender: p,
                    send_ts: SyncTime(ts),
                    view,
                    oal,
                    alive: AckBits(alive),
                })
            }
        ),
        (
            arb_pid(),
            any::<i64>(),
            arb_pid(),
            any::<u64>(),
            arb_pid(),
            arb_oal(),
            proptest::collection::vec(arb_update_desc(), 0..4),
            any::<u64>()
        )
            .prop_map(|(p, ts, suspect, seq, creator, oal, dpd, alive)| {
                Msg::NoDecision(NoDecision {
                    sender: p,
                    send_ts: SyncTime(ts),
                    suspect,
                    view_id: ViewId::new(seq, creator),
                    oal_view: oal,
                    dpd,
                    alive: AckBits(alive),
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
        (
            arb_pid(),
            any::<i64>(),
            proptest::collection::vec(arb_pid(), 0..8),
            any::<i64>(),
            (any::<u64>(), arb_pid()),
            arb_oal(),
            proptest::collection::vec(arb_update_desc(), 0..4),
            any::<u64>()
        )
            .prop_map(|(p, ts, list, dts, (vseq, vc), oal, dpd, alive)| {
                Msg::Reconfig(Reconfig {
                    sender: p,
                    send_ts: SyncTime(ts),
                    reconfig_list: list,
                    last_decision_ts: SyncTime(dts),
                    last_view: ViewId::new(vseq, vc),
                    oal_view: oal,
                    dpd,
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
            arb_pid(),
            (any::<u64>(), arb_pid()),
            proptest::collection::vec(any::<u8>(), 0..32),
            proptest::collection::vec((arb_pid(), any::<u64>()), 0..4)
        )
            .prop_map(|(p, to, (vseq, vc), state, fifo)| {
                Msg::StateTransfer(StateTransfer {
                    sender: p,
                    to,
                    view_id: ViewId::new(vseq, vc),
                    app_state: Bytes::from(state),
                    proposals: vec![],
                    fifo: fifo.clone(),
                    ordinals: fifo
                        .iter()
                        .map(|(pid, s)| (ProposalId::new(*pid, *s), Ordinal(*s)))
                        .collect(),
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

/// A sender's proposals as `propose_batch` emits them, with every kind
/// of break: each step continues the previous proposal (next sequence
/// number, a timestamp delta of either sign, any payload, empty ones
/// included) and then may change one field — sender, incarnation,
/// sequence number (a gap, or a wrap past `u64::MAX`), hdo, semantics,
/// or a timestamp jump.
fn arb_proposal_stream() -> impl Strategy<Value = Vec<Proposal>> {
    let first = (
        arb_pid(),
        0u32..3,
        prop_oneof![0u64..1 << 20, u64::MAX - 4..=u64::MAX],
        any::<i64>(),
        0u64..4,
        arb_sem(),
    );
    let step = (
        0u8..12,
        -3_000i64..3_000,
        proptest::collection::vec(any::<u8>(), 0..8),
        any::<u64>(),
    );
    (first, proptest::collection::vec(step, 0..48)).prop_map(
        |((sender, inc, seq, ts, hdo, semantics), steps)| {
            let mut p = Proposal {
                sender,
                incarnation: Incarnation(inc),
                seq,
                send_ts: SyncTime(ts),
                hdo: Ordinal(hdo),
                semantics,
                payload: Bytes::new(),
            };
            let mut out = vec![p.clone()];
            for (change, delta, payload, r) in steps {
                p.seq = p.seq.wrapping_add(1);
                p.send_ts = SyncTime(p.send_ts.0.wrapping_add(delta));
                p.payload = Bytes::from(payload);
                match change {
                    0 => p.sender = ProcessId((r % 4) as u16),
                    1 => p.incarnation = Incarnation((r % 3) as u32),
                    2 => p.seq = p.seq.saturating_sub(2).saturating_add(r % 4),
                    3 => p.hdo = Ordinal(r % 4),
                    4 => {
                        p.semantics = [
                            Semantics::TOTAL_STRONG,
                            Semantics::TIME_STRICT,
                            Semantics::UNORDERED_WEAK,
                        ][(r % 3) as usize]
                    }
                    5 => p.send_ts = SyncTime(r as i64),
                    _ => {}
                }
                out.push(p.clone());
            }
            out
        },
    )
}

/// Whether `next` continues a run ending in `prev` — the rule stated
/// from the format's definition, not taken from the encoder: same
/// sender, incarnation, hdo and semantics, the next sequence number, and
/// a timestamp delta whose zigzag varint takes at most 8 bytes.
fn continues(prev: &Proposal, next: &Proposal) -> bool {
    let delta_fits = next
        .send_ts
        .0
        .checked_sub(prev.send_ts.0)
        .is_some_and(|d| (-(1i64 << 55)..1i64 << 55).contains(&d));
    prev.sender == next.sender
        && prev.incarnation == next.incarnation
        && prev.hdo == next.hdo
        && prev.semantics == next.semantics
        && prev.seq.checked_add(1) == Some(next.seq)
        && delta_fits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_message_round_trips(msg in arb_msg()) {
        let dgram = frame::encode_single(&msg);
        prop_assert_eq!(frame::decode_datagram(&dgram), Ok(vec![msg]));
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..256),
        versioned in any::<bool>(),
    ) {
        // Any result is fine; panicking or looping is not. Half the
        // cases get a valid version byte so the soup reaches the frame
        // and message decoders instead of stopping at byte 0.
        if versioned && !bytes.is_empty() {
            bytes[0] = frame::VERSION_BYTE;
        }
        let _ = frame::decode_datagram(&bytes);
    }

    #[test]
    fn truncation_always_detected(msg in arb_msg(), cut_frac in 0.0f64..1.0) {
        // A single-frame datagram: every proper prefix is an error.
        let dgram = frame::encode_single(&msg);
        let cut = ((dgram.len() as f64) * cut_frac) as usize;
        if cut < dgram.len() {
            prop_assert!(frame::decode_datagram(&dgram[..cut]).is_err());
        }
    }

    #[test]
    fn encoding_is_deterministic(msg in arb_msg()) {
        prop_assert_eq!(frame::encode_single(&msg), frame::encode_single(&msg));
    }

    #[test]
    fn proposal_runs_round_trip_and_break_where_a_field_changes(
        stream in arb_proposal_stream(),
    ) {
        let msgs: Vec<Msg> = stream.iter().cloned().map(Msg::Proposal).collect();
        let mut b = frame::FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        prop_assert_eq!(b.msgs(), msgs.len());
        prop_assert_eq!(frame::decode_datagram(b.bytes()), Ok(msgs.clone()));
        // Never longer than the same proposals framed one per frame.
        let one_each: usize = 1 + msgs
            .iter()
            .map(|m| frame::encode_single(m).len() - 1)
            .sum::<usize>();
        prop_assert!(b.bytes().len() <= one_each, "{} > {}", b.bytes().len(), one_each);
        // One frame per run, a run broken exactly where a field changes.
        let runs = 1 + stream.windows(2).filter(|w| !continues(&w[0], &w[1])).count();
        let frames = frame::open_datagram(b.bytes()).unwrap().count();
        prop_assert_eq!(frames, runs);
    }
}
