//! The run-coded parts of wire v4 from the outside — the oal block's
//! delta-coded descriptor runs and the proposal frame's runs: round
//! trips over adversarial windows for every oal-bearing message kind,
//! size regressions pinned as tests, frozen byte fixtures (and the v3
//! bytes that must now be refused), and the decoder-safety sweeps
//! (truncate at every offset, flip every bit, overflowing arithmetic,
//! the expansion cap).
//!
//! Proptest-free so it runs in the registry-free root workspace (the
//! proptest suites are `proptests/`); the randomized windows come from a
//! fixed-seed SplitMix64.

use bytes::Bytes;
use tw_proto::frame::{self, FrameBuilder, WireCursor, MAX_OAL_WINDOW, VERSION_BYTE};
use tw_proto::WireError;
use tw_proto::{
    AckBits, Decision, Descriptor, Incarnation, Msg, NoDecision, Oal, Ordinal, ProcessId, Proposal,
    ProposalId, Reconfig, Semantics, SyncTime, View, ViewId,
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

fn view(seq: u64, n: u16) -> View {
    View::new(ViewId::new(seq, ProcessId(0)), (0..n).map(ProcessId))
}

fn update(p: u16, seq: u64, hdo: u64, sem: Semantics, ts: i64, acks: u64) -> Descriptor {
    let mut d = Descriptor::update(
        ProposalId::new(ProcessId(p), seq),
        Ordinal(hdo),
        sem,
        SyncTime(ts),
        ProcessId(0),
    );
    d.acks = AckBits(acks);
    d
}

/// A window whose head was pruned `pruned` ordinals ago.
fn window(pruned: u64, entries: Vec<Descriptor>) -> Oal {
    let mut oal = Oal::new();
    oal.restore(Ordinal(1 + pruned + entries.len() as u64), entries);
    oal
}

/// `n` descriptors that fold into one run.
fn run(p: u16, seq: u64, ts: i64, stride: i64, n: u64) -> Vec<Descriptor> {
    (0..n)
        .map(|k| {
            update(
                p,
                seq + k,
                7,
                Semantics::UNORDERED_WEAK,
                ts + stride * k as i64,
                0b011,
            )
        })
        .collect()
}

/// The adversarial windows the issue names, plus seeded random ones.
fn windows() -> Vec<(&'static str, Oal)> {
    let mut out = vec![
        ("empty", Oal::new()),
        ("empty, pruned", window(900, vec![])),
        ("one entry", window(0, run(3, 1, 50, 1, 1))),
        ("one membership", {
            window(4, vec![Descriptor::membership(view(2, 3), ProcessId(1))])
        }),
        ("plain run", window(10, run(0, 100, 1_000_000, 1, 64))),
    ];

    let mut w = run(0, 100, 5_000, 1, 20);
    w.insert(10, Descriptor::membership(view(9, 5), ProcessId(2)));
    out.push(("membership descriptor in mid-run", window(3, w)));

    let mut w = run(1, 1, 5_000, 2, 20);
    w[7].undeliverable = true;
    out.push(("undeliverable inside a would-be run", window(0, w)));

    let mut w = run(1, 1, 5_000, 2, 9);
    w.last_mut().unwrap().undeliverable = true;
    let mut m = Descriptor::membership(view(3, 2), ProcessId(0));
    m.undeliverable = true;
    w.push(m);
    out.push(("undeliverable tail and membership", window(0, w)));

    out.push((
        "timestamps going backwards",
        window(0, run(2, 40, 9_000, -3, 30)),
    ));
    let ts = [5i64, 4, 9, -2, -2, i64::MIN, i64::MAX, 0, i64::MIN + 1, -1];
    out.push((
        "timestamps jumping, extremes included",
        window(
            0,
            ts.iter()
                .enumerate()
                .map(|(i, &t)| update(0, 1 + i as u64, 0, Semantics::TOTAL_STRONG, t, 1))
                .collect(),
        ),
    ));

    let seqs = [1u64, 2, 4, 5, 9, u64::MAX - 1, u64::MAX, 0, 1, u64::MAX];
    out.push((
        "seq gaps and u64::MAX",
        window(
            0,
            seqs.iter()
                .enumerate()
                .map(|(i, &s)| update(4, s, 3, Semantics::TIME_STRICT, 100 + i as i64, 0b10000))
                .collect(),
        ),
    ));
    out.push((
        "hdo at both ends of u64",
        window(
            0,
            [0, u64::MAX, 1, u64::MAX - 1, u64::MAX]
                .iter()
                .enumerate()
                .map(|(i, &h)| update(0, 1 + i as u64, h, Semantics::TOTAL_STRONG, i as i64, 1))
                .collect(),
        ),
    ));
    out.push((
        "ack sets changing every entry",
        window(
            77,
            (0..40u64)
                .map(|i| {
                    let acks = (i * 0x9E37) | 1 << (i % 64);
                    update(0, 1 + i, 2, Semantics::UNORDERED_WEAK, 10 + i as i64, acks)
                })
                .collect(),
        ),
    ));
    out.push((
        "proposers sharing a sequence-table slot",
        window(
            0,
            (0..30u64)
                .map(|i| {
                    let p = [0u16, 64, 128, u16::MAX][i as usize % 4];
                    update(p, 1 + i / 4, 1, Semantics::UNORDERED_WEAK, i as i64, 1)
                })
                .collect(),
        ),
    ));
    out.push((
        "every semantics pair",
        window(
            0,
            (0..9u64)
                .map(|i| {
                    let sem = Semantics::new(
                        tw_proto::Ordering::ALL[i as usize % 3],
                        tw_proto::Atomicity::ALL[i as usize / 3],
                    );
                    update(1, 1 + i, 0, sem, i as i64, 1)
                })
                .collect(),
        ),
    ));

    // Seeded: segments of runs with random breaks of every kind.
    let mut rng = SplitMix64(0x0A1);
    for _ in 0..60 {
        let mut entries = Vec::new();
        for _ in 0..rng.below(8) {
            let p = rng.below(6) as u16;
            let seq = match rng.below(4) {
                0 => u64::MAX - rng.below(4),
                _ => rng.below(1 << 20),
            };
            let ts = rng.below(1 << 40) as i64 - (1 << 39);
            let stride = rng.below(7) as i64 - 3;
            let hdo = rng.below(1 << 16);
            let acks = rng.next() & 0x3F;
            let sem = match rng.below(3) {
                0 => Semantics::TOTAL_STRONG,
                1 => Semantics::TIME_STRICT,
                _ => Semantics::UNORDERED_WEAK,
            };
            for k in 0..rng.below(40) {
                let mut d = update(
                    p,
                    seq.wrapping_add(k),
                    hdo,
                    sem,
                    ts + stride * k as i64,
                    acks,
                );
                match rng.below(24) {
                    0 => d.undeliverable = true,
                    1 => d.acks = AckBits(rng.next()),
                    2 => entries.push(Descriptor::membership(view(k, 4), ProcessId(p))),
                    _ => {}
                }
                entries.push(d);
            }
        }
        out.push(("seeded", window(rng.below(1 << 30), entries)));
    }
    out
}

/// The three message kinds that carry an oal, each around `oal`.
fn carriers(oal: &Oal) -> [Msg; 3] {
    let dpd = vec![tw_proto::UpdateDesc {
        id: ProposalId::new(ProcessId(2), 8),
        hdo: Ordinal(3),
        semantics: Semantics::TOTAL_STRONG,
        send_ts: SyncTime(77),
    }];
    [
        Msg::Decision(Decision {
            sender: ProcessId(1),
            send_ts: SyncTime(123_456),
            view: view(4, 3),
            oal: oal.clone(),
            alive: AckBits(0b111),
        }),
        Msg::NoDecision(NoDecision {
            sender: ProcessId(2),
            send_ts: SyncTime(123_457),
            suspect: ProcessId(0),
            view_id: ViewId::new(4, ProcessId(0)),
            oal_view: oal.clone(),
            dpd: dpd.clone(),
            alive: AckBits(0b110),
        }),
        Msg::Reconfig(Reconfig {
            sender: ProcessId(2),
            send_ts: SyncTime(123_458),
            reconfig_list: vec![ProcessId(1), ProcessId(2)],
            last_decision_ts: SyncTime(123_000),
            last_view: ViewId::new(4, ProcessId(0)),
            oal_view: oal.clone(),
            dpd,
            alive: AckBits(0b110),
        }),
    ]
}

fn oal_of(msg: &Msg) -> &Oal {
    match msg {
        Msg::Decision(d) => &d.oal,
        Msg::NoDecision(nd) => &nd.oal_view,
        Msg::Reconfig(r) => &r.oal_view,
        other => panic!("{:?} carries no oal", other.kind()),
    }
}

#[test]
fn adversarial_windows_round_trip_in_every_carrier() {
    for (name, oal) in windows() {
        for msg in carriers(&oal) {
            let dgram = frame::encode_single(&msg);
            let back = frame::decode_datagram(&dgram)
                .unwrap_or_else(|e| panic!("{name}: {:?} failed to decode: {e}", msg.kind()));
            assert_eq!(back.len(), 1);
            assert_eq!(back[0], msg, "{name}: {:?}", msg.kind());
            let got = oal_of(&back[0]);
            assert_eq!(got.base(), oal.base(), "{name}: base");
            assert_eq!(got.next_ordinal(), oal.next_ordinal(), "{name}: next");
        }
    }
}

fn decision_bytes(oal: Oal) -> usize {
    let [decision, ..] = carriers(&oal);
    frame::encode_single(&decision).len()
}

#[test]
fn single_proposer_window_in_three_ack_generations_stays_under_1k() {
    // The ladder's shape: 2 000 descriptors from one proposer in batches
    // of 64 (1 µs apart inside a batch, 2 ms between batches, one hdo
    // per batch), acknowledged in three generations. One 16.5-byte
    // record each used to make this ≈ 33 KiB.
    let entries: Vec<Descriptor> = (0..2_000u64)
        .map(|i| {
            let batch = i / 64;
            let acks = [0b111, 0b011, 0b010][(i / 667) as usize];
            update(
                0,
                5_000 + i,
                40_000 + batch * 64,
                Semantics::UNORDERED_WEAK,
                3_000_000_000 + batch as i64 * 2_000 + (i % 64) as i64,
                acks,
            )
        })
        .collect();
    let bytes = decision_bytes(window(45_000, entries));
    assert!(bytes < 1024, "2 000-descriptor window took {bytes} B");
}

#[test]
fn five_interleaved_proposers_cost_at_most_4_bytes_a_descriptor() {
    // The worst shape for run folding: no two neighbours share a
    // proposer, so every descriptor is its own entry — flags, proposer,
    // timestamp delta, and now and then a new hdo.
    let mut rng = SplitMix64(5);
    let mut ts = 7_000_000_000i64;
    let n = 1_000u64;
    let entries: Vec<Descriptor> = (0..n)
        .map(|i| {
            ts += 20 + rng.below(40) as i64;
            update(
                (i % 5) as u16,
                90_000 + i / 5,
                300_000 + i / 20 * 20,
                Semantics::TOTAL_STRONG,
                ts,
                0b11111,
            )
        })
        .collect();
    let empty = decision_bytes(window(300_000, vec![]));
    let bytes = decision_bytes(window(300_000, entries)) - empty;
    assert!(
        bytes as u64 <= 4 * n,
        "{n} interleaved descriptors took {bytes} B"
    );
}

/// A small decision exercising every entry shape: a run, a proposer
/// switch with an explicit sequence number, a membership descriptor, a
/// changed ack set and an undeliverable mark.
fn fixture_decision() -> Msg {
    let mut entries = run(0, 10, 1_000, 1, 4);
    entries.push(update(1, 7, 12, Semantics::TOTAL_STRONG, 1_010, 0b001));
    entries.push(Descriptor::membership(view(2, 3), ProcessId(0)));
    let mut dead = update(1, 8, 12, Semantics::TOTAL_STRONG, 1_020, 0b001);
    dead.undeliverable = true;
    entries.push(dead);
    Msg::Decision(Decision {
        sender: ProcessId(1),
        send_ts: SyncTime(2_000),
        view: view(1, 3),
        oal: window(20, entries),
        alive: AckBits(0b111),
    })
}

/// `fixture_decision()` on the wire, frozen. A change to these bytes is
/// a wire-format change: bump `WIRE_VERSION`.
#[rustfmt::skip]
const FIXTURE: &[u8] = &[
    0xD4, // version
    0x28, // frame length 40
    0x01, // decision
    0x01, // sender p1
    0xA0, 0x1F, // send_ts 2000
    0x01, 0x00, 0x03, 0x00, 0x01, 0x02, // view 1@p0 {p0,p1,p2}
    0x1C, 0x07, // oal: next 28, 7 descriptors
    // run: seq 10.., hdo +7, acks 0b011, ts +1000, 3 more at stride 1
    0xAC, 0x0A, 0x0E, 0x03, 0xD0, 0x0F, 0x03, 0x02,
    // p1 seq 7, hdo +5, total/strong, acks 0b001, ts +7
    0x3E, 0x01, 0x07, 0x0A, 0x05, 0x01, 0x0E,
    // membership: view 2@p0 {p0,p1,p2}, acks 0b001, deliverable
    0x01, 0x02, 0x00, 0x03, 0x00, 0x01, 0x02, 0x01, 0x00,
    // p1 next seq, undeliverable, ts +10
    0x10, 0x15, 0x14,
    0x07, // alive
];

/// The same decision as wire v3 wrote it: the v4 body behind the old
/// version byte and a padded 4-byte length prefix. Must be refused.
#[rustfmt::skip]
const V3_FIXTURE: &[u8] = &[
    0xD3, // version
    0xA8, 0x80, 0x80, 0x00, // frame length 40, padded
    0x01, 0x01, 0xA0, 0x1F, 0x01, 0x00, 0x03, 0x00, 0x01, 0x02, 0x1C, 0x07,
    0xAC, 0x0A, 0x0E, 0x03, 0xD0, 0x0F, 0x03, 0x02,
    0x3E, 0x01, 0x07, 0x0A, 0x05, 0x01, 0x0E,
    0x01, 0x02, 0x00, 0x03, 0x00, 0x01, 0x02, 0x01, 0x00,
    0x10, 0x15, 0x14,
    0x07,
];

#[test]
fn frozen_v4_decision_fixture() {
    let msg = fixture_decision();
    assert_eq!(frame::encode_single(&msg), FIXTURE, "encoder drifted");
    assert_eq!(
        frame::decode_datagram(FIXTURE).expect("fixture decodes"),
        vec![msg]
    );
}

#[test]
fn the_v3_fixture_is_bad_version() {
    assert_eq!(&V3_FIXTURE[5..], &FIXTURE[2..], "same body");
    assert_eq!(
        frame::decode_datagram(V3_FIXTURE),
        Err(WireError::BadVersion { found: 0xD3 })
    );
}

#[test]
fn the_same_fixture_labelled_v2_is_bad_version() {
    let mut dgram = FIXTURE.to_vec();
    dgram[0] = 0xD2;
    assert_eq!(
        frame::decode_datagram(&dgram),
        Err(WireError::BadVersion { found: 0xD2 })
    );
}

/// Three proposals of p1 in one batch: seq 7, 8, 9 at 1000, 1003 and
/// 1002 µs (a negative delta), with an empty payload in the middle.
fn fixture_run() -> Vec<Msg> {
    [(1_000, &b"ab"[..]), (1_003, b""), (1_002, b"xyz")]
        .into_iter()
        .zip(7..)
        .map(|((ts, payload), seq)| {
            Msg::Proposal(Proposal {
                sender: ProcessId(1),
                incarnation: Incarnation(2),
                seq,
                send_ts: SyncTime(ts),
                hdo: Ordinal(5),
                semantics: Semantics::TOTAL_STRONG,
                payload: Bytes::copy_from_slice(payload),
            })
        })
        .collect()
}

/// `fixture_run()` pushed through one `FrameBuilder`, frozen: one frame.
#[rustfmt::skip]
const RUN_FIXTURE: &[u8] = &[
    0xD4, // version
    0x13, // frame length 19
    0x00, // proposal
    0x01, 0x02, 0x07, // sender p1, incarnation 2, seq 7
    0xD0, 0x0F, // send_ts 1000
    0x05, 0x01, 0x01, // hdo 5, total/strong
    0x02, b'a', b'b', // payload
    0x06, 0x00, // seq 8: ts +3, empty payload
    0x01, 0x03, b'x', b'y', b'z', // seq 9: ts -1
];

#[test]
fn frozen_v4_proposal_run_fixture() {
    let msgs = fixture_run();
    let mut b = FrameBuilder::new();
    for m in &msgs {
        b.push_msg(m);
    }
    assert_eq!(b.bytes(), RUN_FIXTURE, "encoder drifted");
    assert_eq!(b.msgs(), 3);
    assert_eq!(
        frame::decode_datagram(RUN_FIXTURE).expect("fixture decodes"),
        msgs
    );
}

#[test]
fn a_run_frame_cut_or_flipped_is_an_error_or_a_bounded_batch() {
    let dgram = RUN_FIXTURE;
    for cut in 0..dgram.len() {
        assert!(frame::decode_datagram(&dgram[..cut]).is_err(), "cut {cut}");
    }
    for bit in 0..dgram.len() * 8 {
        let mut flipped = dgram.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match frame::decode_datagram(&flipped) {
            Err(WireError::BadVersion { .. }) => assert!(bit < 8),
            Err(_) => {}
            // Every continuation takes at least two bytes.
            Ok(msgs) => assert!(msgs.len() <= 1 + flipped.len() / 2, "bit {bit}"),
        }
    }
}

#[test]
fn a_64_update_batch_costs_at_most_66_bytes_an_update() {
    // The ladder's `propose_batch`: 64 weak updates of 64 bytes from one
    // proposer, 1 µs apart, one hdo. One frame: a header, then a 1-byte
    // timestamp delta and the payload with its length per update.
    let mut b = FrameBuilder::new();
    for i in 0..64u64 {
        b.push_msg(&Msg::Proposal(Proposal {
            sender: ProcessId(0),
            incarnation: Incarnation(1),
            seq: 5_000 + i,
            send_ts: SyncTime(3_000_000_000 + i as i64),
            hdo: Ordinal(40_000),
            semantics: Semantics::UNORDERED_WEAK,
            payload: Bytes::from(vec![i as u8; 64]),
        }));
    }
    let bytes = b.bytes().len();
    assert!(bytes <= 64 * 66 + 32, "64-update batch took {bytes} B");
}

/// Everything a decoded datagram may hold is inside the expansion cap.
fn assert_bounded(msgs: &[Msg]) {
    let total: usize = msgs
        .iter()
        .filter(|m| matches!(m, Msg::Decision(_) | Msg::NoDecision(_) | Msg::Reconfig(_)))
        .map(|m| oal_of(m).len())
        .sum();
    assert!(
        total <= MAX_OAL_WINDOW,
        "{total} descriptors from one datagram"
    );
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    for (name, oal) in windows().into_iter().take(16) {
        for msg in carriers(&oal) {
            let dgram = frame::encode_single(&msg);
            for cut in 0..dgram.len() {
                assert!(
                    frame::decode_datagram(&dgram[..cut]).is_err(),
                    "{name}: {:?} cut at {cut} of {}",
                    msg.kind(),
                    dgram.len()
                );
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_an_error_or_a_bounded_message() {
    for (_, oal) in windows().into_iter().take(16) {
        for msg in carriers(&oal) {
            let dgram = frame::encode_single(&msg);
            for bit in 0..dgram.len() * 8 {
                let mut flipped = dgram.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match frame::decode_datagram(&flipped) {
                    Err(WireError::BadVersion { .. }) => assert!(bit < 8),
                    Err(_) => {}
                    Ok(msgs) => assert_bounded(&msgs),
                }
            }
        }
    }
}

/// A datagram of one decision frame per element of `blocks`, each block
/// being the raw bytes of an oal (`next len entry*`).
fn decisions_around(blocks: &[&[u8]]) -> Vec<u8> {
    let mut buf = vec![VERSION_BYTE];
    let mut w = WireCursor::new(&mut buf);
    for block in blocks {
        let t = w.begin_frame();
        w.put_u8(1); // decision
        w.put_uvarint(0); // sender
        w.put_ivarint(0); // send_ts
        for v in [1, 0, 1, 0] {
            w.put_uvarint(v); // view 1@p0 {p0}
        }
        for &b in *block {
            w.put_u8(b);
        }
        w.put_uvarint(1); // alive
        w.end_frame(t);
    }
    buf
}

/// The raw oal block `next len [flags ts count stride]`: `len`
/// descriptors claimed, one run entry of `1 + count`.
fn one_run_block(next: u64, len: u64, count: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = WireCursor::new(&mut buf);
    w.put_uvarint(next);
    w.put_uvarint(len);
    w.put_u8(0x80); // RUN, everything else as the initial state
    w.put_ivarint(5); // ts
    w.put_uvarint(count);
    w.put_ivarint(1); // stride
    buf
}

#[test]
fn expansion_is_capped_per_datagram() {
    let cap = MAX_OAL_WINDOW as u64;
    // A dozen bytes may stand for a full window …
    let full = one_run_block(cap + 1, cap, cap - 1);
    assert!(full.len() < 16);
    let msgs = frame::decode_datagram(&decisions_around(&[&full])).expect("a full window");
    assert_eq!(oal_of(&msgs[0]).len(), MAX_OAL_WINDOW);
    // … but not for one descriptor more,
    let over = one_run_block(cap + 2, cap + 1, cap);
    assert_eq!(
        frame::decode_datagram(&decisions_around(&[&over])),
        Err(WireError::TooLong {
            what: "oal",
            len: MAX_OAL_WINDOW + 1
        })
    );
    // nor may a run outgrow the length its block declared,
    let liar = one_run_block(100, 10, 10);
    assert_eq!(
        frame::decode_datagram(&decisions_around(&[&liar])),
        Err(WireError::TooLong {
            what: "oal run",
            len: 10
        })
    );
    // nor may the frames of one datagram add up to more than the cap:
    // the largest datagram UDP carries, filled with full windows, fails
    // at its second frame instead of expanding to gigabytes.
    let half = one_run_block(cap, cap / 2, cap / 2 - 1);
    let two_halves = decisions_around(&[&half, &half]);
    assert_bounded(&frame::decode_datagram(&two_halves).expect("two halves fit"));
    let frame_len = decisions_around(&[&full]).len() - 1;
    let bomb = decisions_around(&vec![full.as_slice(); 65_507 / frame_len]);
    assert!(bomb.len() <= 65_507 && bomb.len() + frame_len > 65_507);
    assert!(matches!(
        frame::decode_datagram(&bomb),
        Err(WireError::TooLong { what: "oal", .. })
    ));
}

#[test]
fn overflowing_arithmetic_is_an_error_not_a_wrap() {
    let block = |entries: &dyn Fn(&mut WireCursor)| {
        let mut buf = Vec::new();
        let mut w = WireCursor::new(&mut buf);
        w.put_uvarint(100); // next
        w.put_uvarint(4); // len
        entries(&mut w);
        buf
    };
    let cases: [(&str, Vec<u8>); 5] = [
        (
            "run walks seq past u64::MAX",
            block(&|w| {
                w.put_u8(0x80 | 0x04); // RUN | SEQ
                w.put_uvarint(u64::MAX - 1);
                w.put_ivarint(0);
                w.put_uvarint(3);
                w.put_ivarint(1);
            }),
        ),
        (
            "run walks ts past i64::MAX",
            block(&|w| {
                w.put_u8(0x80);
                w.put_ivarint(i64::MAX - 1);
                w.put_uvarint(3);
                w.put_ivarint(1);
            }),
        ),
        (
            "implied seq after u64::MAX",
            block(&|w| {
                w.put_u8(0x04);
                w.put_uvarint(u64::MAX);
                w.put_ivarint(0);
                w.put_u8(0x00);
                w.put_ivarint(0);
            }),
        ),
        (
            "ts delta past i64::MIN",
            block(&|w| {
                w.put_u8(0x00);
                w.put_ivarint(i64::MIN);
                w.put_u8(0x00);
                w.put_ivarint(-1);
            }),
        ),
        (
            "hdo delta below zero",
            block(&|w| {
                w.put_u8(0x08);
                w.put_ivarint(-1);
                w.put_ivarint(0);
            }),
        ),
    ];
    for (name, bytes) in cases {
        assert!(
            matches!(
                frame::decode_datagram(&decisions_around(&[&bytes])),
                Err(WireError::TooLong { .. })
            ),
            "{name}"
        );
    }
}

#[test]
fn malformed_entries_are_rejected() {
    for (name, entry) in [
        ("membership with update flags", vec![0x03u8]),
        ("mode with ordering 3", vec![0x10, 0x03, 0x00]),
        ("mode with atomicity 3", vec![0x10, 0x0C, 0x00]),
        ("mode with unknown bits", vec![0x10, 0x20, 0x00]),
    ] {
        let mut block = vec![2u8, 1]; // next 2, len 1
        block.extend(entry);
        assert!(
            matches!(
                frame::decode_datagram(&decisions_around(&[&block])),
                Err(WireError::BadTag { .. })
            ),
            "{name}"
        );
    }
}

#[test]
fn a_coalesced_datagram_keeps_each_window_apart() {
    // The per-block state (previous entry, sequence table) must not
    // leak from one frame's oal into the next.
    let mut b = FrameBuilder::new();
    let msgs: Vec<Msg> = windows()
        .into_iter()
        .skip(2)
        .take(6)
        .flat_map(|(_, oal)| carriers(&oal))
        .collect();
    for m in &msgs {
        b.push_msg(m);
    }
    assert_eq!(frame::decode_datagram(b.bytes()).expect("decode"), msgs);
}
