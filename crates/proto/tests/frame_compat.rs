//! What a receiver accepts and what it refuses: mixed-kind batches and
//! proposal runs come back identical and in order, and every leading
//! byte other than the
//! current version byte — the retired unframed format included, frozen
//! here as one literal — is refused outright as `BadVersion`, never
//! half-decoded and never guessed at.
//!
//! Deliberately proptest-free so it runs in the registry-free root
//! workspace (the proptest suites are `proptests/`); the randomized
//! sweep uses a hand-rolled SplitMix64 with a fixed seed, making
//! failures reproducible by seed alone.

use bytes::Bytes;
use tw_proto::frame::{self, FrameBuilder, VERSION_BYTE};
use tw_proto::{
    AckBits, ClockSyncMsg, Decision, Descriptor, HwTime, Incarnation, Join, Msg, Nack, NoDecision,
    Oal, Ordinal, ProcessId, Proposal, ProposalId, Reconfig, Semantics, StateTransfer, SyncTime,
    View, ViewId, WireError,
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
                .map(|_| {
                    (
                        ProcessId(rng.below(8) as u16),
                        Incarnation(rng.below(8) as u32),
                    )
                })
                .collect(),
            alive: alive(rng),
        }),
        4 => Msg::Reconfig(Reconfig {
            sender: ProcessId(rng.below(8) as u16),
            send_ts: SyncTime(rng.below(1 << 40) as i64),
            reconfig_list: (0..rng.below(5))
                .map(|_| ProcessId(rng.below(8) as u16))
                .collect(),
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
        assert_eq!(builder.msgs(), batch.len());
        let decoded = frame::decode_datagram(builder.bytes()).expect("batch decode");
        assert_eq!(decoded, batch);
    }
}

/// A sender's proposals as `propose_batch` emits them, broken now and
/// then by a change of one field (the proptest suite's
/// `arb_proposal_stream`, on a fixed seed).
fn proposal_stream(rng: &mut SplitMix64) -> Vec<Proposal> {
    let mut p = proposal(rng);
    if rng.below(4) == 0 {
        p.seq = u64::MAX - rng.below(4);
    }
    let mut out = vec![p.clone()];
    for _ in 0..rng.below(48) {
        p.seq = p.seq.wrapping_add(1);
        p.send_ts = SyncTime(p.send_ts.0.wrapping_add(rng.below(6_000) as i64 - 3_000));
        p.payload = Bytes::from(vec![rng.next() as u8; rng.below(8) as usize]);
        let r = rng.next();
        match rng.below(12) {
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
}

/// Whether `next` continues a run ending in `prev`, stated from the
/// format's definition rather than taken from the encoder.
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

#[test]
fn proposal_runs_round_trip_and_break_where_a_field_changes() {
    let mut rng = SplitMix64(0x5EED);
    let mut builder = FrameBuilder::new();
    for _ in 0..500 {
        let stream = proposal_stream(&mut rng);
        let msgs: Vec<Msg> = stream.iter().cloned().map(Msg::Proposal).collect();
        builder.reset();
        for m in &msgs {
            builder.push_msg(m);
        }
        assert_eq!(builder.msgs(), msgs.len());
        let dgram = builder.bytes();
        assert_eq!(frame::decode_datagram(dgram).expect("runs decode"), msgs);
        let one_each: usize = 1 + msgs
            .iter()
            .map(|m| frame::encode_single(m).len() - 1)
            .sum::<usize>();
        assert!(dgram.len() <= one_each, "{} > {one_each}", dgram.len());
        let runs = 1 + stream
            .windows(2)
            .filter(|w| !continues(&w[0], &w[1]))
            .count();
        assert_eq!(frame::open_datagram(dgram).unwrap().count(), runs);
    }
}

/// The last datagram the retired fixed-width format ever produced
/// here: `Decision { sender: p1, send_ts: 2000, view: 3@p1 {p0, p1, p4},
/// oal: empty, alive: 0b10011 }`, bytes captured from the commit before
/// that codec was deleted. `runtime`'s
/// `udp_receiver_drops_unknown_version_and_counts_it` sends the same
/// bytes at a live socket.
const V1_DECISION: &[u8] = &[
    0x01, 0x01, 0x00, 0xd0, 0x07, 0, 0, 0, 0, 0, 0, 0x03, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x00, 0x03, 0,
    0, 0, 0x00, 0x00, 0x01, 0x00, 0x04, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x00, 0, 0, 0, 0x13, 0, 0,
    0, 0, 0, 0, 0,
];

fn assert_bad_version(dgram: &[u8]) {
    match frame::decode_datagram(dgram) {
        Err(WireError::BadVersion { found }) => assert_eq!(found, dgram[0]),
        other => panic!("byte {:#x}: expected BadVersion, got {other:?}", dgram[0]),
    }
}

#[test]
fn the_frozen_v1_datagram_is_rejected_with_bad_version() {
    assert_eq!(V1_DECISION.len(), 51);
    assert_bad_version(V1_DECISION);
}

#[test]
fn other_version_bytes_are_rejected_not_guessed() {
    // Every message tag (what led an unframed datagram), the previous
    // framed versions (0xD2, 0xD3), a hypothetical next one and arbitrary
    // junk must all surface as BadVersion — the decoder guesses nothing.
    for b in (0..=7u8).chain([0xD0, 0xD1, 0xD2, 0xD3, 0xD5, 0xD7, 0xFF]) {
        assert_ne!(b, VERSION_BYTE);
        assert_bad_version(&[b, 0x01, 0x00]);
    }
}
