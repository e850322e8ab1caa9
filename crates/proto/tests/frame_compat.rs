//! v1 ↔ framed codec compatibility — every message kind must survive
//! both codecs and come back identical, the framing must reject foreign
//! version bytes outright (no silent fallback to v1 or to an older
//! framed version), and a seeded workload pins the two codecs against
//! each other at scale.
//!
//! Deliberately proptest-free so the offline shadow harness runs it;
//! the randomized sweep uses a hand-rolled SplitMix64 with a fixed
//! seed, making failures reproducible by seed alone.

use bytes::Bytes;
use tw_proto::codec::{Decode, Encode, WireError};
use tw_proto::frame::{self, FrameBuilder, VERSION_BYTE};
use tw_proto::{
    AckBits, ClockSyncMsg, Decision, Descriptor, HwTime, Incarnation, Join, Msg, Nack,
    NoDecision, Oal, Ordinal, ProcessId, Proposal, ProposalId, Reconfig, Semantics, StateTransfer,
    SyncTime, View, ViewId,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn view(rng: &mut SplitMix64) -> View {
    let n = 2 + rng.below(6) as u16;
    View::new(
        ViewId::new(rng.below(100), ProcessId(rng.below(n as u64) as u16)),
        (0..n).map(ProcessId),
    )
}

fn alive(rng: &mut SplitMix64) -> AckBits {
    AckBits(rng.next() & 0xFF)
}

fn proposal(rng: &mut SplitMix64) -> Proposal {
    Proposal {
        sender: ProcessId(rng.below(8) as u16),
        incarnation: Incarnation(rng.below(4) as u32),
        seq: 1 + rng.below(1 << 20),
        send_ts: SyncTime(rng.below(1 << 40) as i64 - (1 << 39)),
        hdo: Ordinal(rng.below(1 << 12)),
        semantics: match rng.below(3) {
            0 => Semantics::TOTAL_STRONG,
            1 => Semantics::TIME_STRICT,
            _ => Semantics::UNORDERED_WEAK,
        },
        payload: Bytes::from(vec![rng.next() as u8; rng.below(64) as usize]),
    }
}

fn oal(rng: &mut SplitMix64) -> Oal {
    let mut o = Oal::new();
    for _ in 0..rng.below(12) {
        let p = proposal(rng);
        let ord = if rng.below(5) == 0 {
            o.append(Descriptor::membership(view(rng), p.sender))
        } else {
            o.append(Descriptor::update(
                p.id(),
                p.hdo,
                p.semantics,
                p.send_ts,
                p.sender,
            ))
        };
        for rank in 0..8 {
            if rng.below(2) == 0 {
                o.ack(ord, ProcessId(rank));
            }
        }
    }
    o
}

/// One pseudorandom message of each kind per call, driven by `rng`.
fn sample(rng: &mut SplitMix64, kind: usize) -> Msg {
    match kind {
        0 => Msg::Proposal(proposal(rng)),
        1 => Msg::Decision(Decision {
            sender: ProcessId(rng.below(8) as u16),
            send_ts: SyncTime(rng.below(1 << 40) as i64),
            view: view(rng),
            oal: oal(rng),
            alive: alive(rng),
        }),
        2 => Msg::NoDecision(NoDecision {
            sender: ProcessId(rng.below(8) as u16),
            send_ts: SyncTime(rng.below(1 << 40) as i64),
            suspect: ProcessId(rng.below(8) as u16),
            view_id: ViewId::new(rng.below(100), ProcessId(0)),
            oal_view: oal(rng),
            dpd: (0..rng.below(4)).map(|_| proposal(rng).desc()).collect(),
            alive: alive(rng),
        }),
        3 => Msg::Join(Join {
            sender: ProcessId(rng.below(8) as u16),
            incarnation: Incarnation(rng.below(8) as u32),
            send_ts: SyncTime(rng.below(1 << 40) as i64),
            join_list: (0..rng.below(5))
                .map(|_| (ProcessId(rng.below(8) as u16), Incarnation(rng.below(8) as u32)))
                .collect(),
            alive: alive(rng),
        }),
        4 => Msg::Reconfig(Reconfig {
            sender: ProcessId(rng.below(8) as u16),
            send_ts: SyncTime(rng.below(1 << 40) as i64),
            reconfig_list: (0..rng.below(5)).map(|_| ProcessId(rng.below(8) as u16)).collect(),
            last_decision_ts: SyncTime(rng.below(1 << 40) as i64),
            last_view: ViewId::new(rng.below(100), ProcessId(0)),
            oal_view: oal(rng),
            dpd: (0..rng.below(3)).map(|_| proposal(rng).desc()).collect(),
            alive: alive(rng),
        }),
        5 => {
            if rng.below(2) == 0 {
                Msg::ClockSync(ClockSyncMsg::Request {
                    sender: ProcessId(rng.below(8) as u16),
                    rid: rng.next(),
                    hw_send: HwTime(rng.next() as i64),
                })
            } else {
                Msg::ClockSync(ClockSyncMsg::Reply {
                    sender: ProcessId(rng.below(8) as u16),
                    rid: rng.next(),
                    hw_send_echo: HwTime(rng.next() as i64),
                    sync_at_reply: SyncTime(rng.next() as i64),
                    synced: rng.below(2) == 0,
                })
            }
        }
        6 => Msg::StateTransfer(StateTransfer {
            sender: ProcessId(rng.below(8) as u16),
            to: ProcessId(rng.below(8) as u16),
            view_id: ViewId::new(rng.below(100), ProcessId(0)),
            app_state: Bytes::from(vec![rng.next() as u8; rng.below(128) as usize]),
            proposals: (0..rng.below(4)).map(|_| proposal(rng)).collect(),
            fifo: (0..rng.below(4))
                .map(|_| (ProcessId(rng.below(8) as u16), rng.below(1 << 16)))
                .collect(),
            ordinals: (0..rng.below(4))
                .map(|_| {
                    (
                        ProposalId::new(ProcessId(rng.below(8) as u16), rng.below(1 << 16)),
                        Ordinal(rng.below(1 << 12)),
                    )
                })
                .collect(),
        }),
        _ => Msg::Nack(Nack {
            sender: ProcessId(rng.below(8) as u16),
            send_ts: SyncTime(rng.below(1 << 40) as i64),
            missing: (0..rng.below(6))
                .map(|_| ProposalId::new(ProcessId(rng.below(8) as u16), rng.below(1 << 16)))
                .collect(),
        }),
    }
}

const KINDS: usize = 8;

#[test]
fn every_kind_roundtrips_through_both_codecs_identically() {
    let mut rng = SplitMix64(0xC0FFEE);
    for kind in 0..KINDS {
        for _ in 0..50 {
            let msg = sample(&mut rng, kind);
            // v1: flat byte codec.
            let v1 = msg.to_bytes();
            let from_v1 = Msg::from_bytes(&v1).expect("v1 decode");
            assert_eq!(from_v1, msg, "v1 roundtrip, kind {kind}");
            // Framed datagram.
            let framed = frame::encode_single(&msg);
            let from_framed = frame::decode_datagram(&framed).expect("framed decode");
            assert_eq!(from_framed.len(), 1);
            assert_eq!(from_framed[0], msg, "framed roundtrip, kind {kind}");
            // Cross-check: the two decode paths agree on the message.
            assert_eq!(from_v1, from_framed[0]);
        }
    }
}

#[test]
fn batches_preserve_order_across_mixed_kinds() {
    let mut rng = SplitMix64(0xBEEF);
    let mut builder = FrameBuilder::new();
    for _ in 0..20 {
        let batch: Vec<Msg> = (0..1 + rng.below(12) as usize)
            .map(|_| {
                let kind = rng.below(KINDS as u64) as usize;
                sample(&mut rng, kind)
            })
            .collect();
        builder.reset();
        for m in &batch {
            builder.push_msg(m);
        }
        assert_eq!(builder.frames(), batch.len());
        let decoded = frame::decode_datagram(builder.bytes()).expect("batch decode");
        assert_eq!(decoded, batch);
    }
}

#[test]
fn v1_datagrams_are_rejected_with_bad_version() {
    let mut rng = SplitMix64(0x51DE);
    for kind in 0..KINDS {
        let msg = sample(&mut rng, kind);
        let v1 = msg.to_bytes();
        // v1 kind tags are small integers; they can never equal the
        // version byte, so a legacy datagram is rejected up front
        // instead of being half-decoded as framing.
        assert_ne!(v1[0], VERSION_BYTE);
        match frame::decode_datagram(&v1) {
            Err(WireError::BadVersion { found }) => assert_eq!(found, v1[0]),
            other => panic!("kind {kind}: expected BadVersion, got {other:?}"),
        }
    }
}

#[test]
fn other_version_bytes_are_rejected_not_guessed() {
    // The previous framed version (0xD2), a hypothetical next one and
    // arbitrary junk must all surface as BadVersion — the decoder
    // guesses nothing.
    for b in [0xD0u8, 0xD1, 0xD2, 0xD4, 0xD7, 0x00, 0xFF] {
        let dgram = [b, 0x01, 0x00];
        match frame::decode_datagram(&dgram) {
            Err(WireError::BadVersion { found }) => assert_eq!(found, b),
            other => panic!("version {b:#x}: expected BadVersion, got {other:?}"),
        }
    }
}

#[test]
fn seeded_workload_sizes_favor_framed() {
    // Not a perf claim (the probes own that) — a structural one: over a
    // large mixed workload of *random* messages, where no two oal
    // descriptors share a field and the run coding finds nothing to
    // fold, the framed format still undercuts v1 overall. (What it does
    // to the windows the hot path ships is pinned in `oal_wire.rs`.)
    let mut rng = SplitMix64(7);
    let mut v1_total = 0usize;
    let mut framed_total = 0usize;
    for i in 0..400 {
        let msg = sample(&mut rng, i % KINDS);
        v1_total += msg.to_bytes().len();
        framed_total += frame::encode_single(&msg).len();
    }
    assert!(
        framed_total < v1_total,
        "framed total {framed_total} should undercut v1 total {v1_total}"
    );
}
