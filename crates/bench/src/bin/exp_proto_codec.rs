//! Codec probe — v1 (`tw_proto::codec`) vs framed (`tw_proto::frame`).
//!
//! Measures encode/decode cost and wire size over a seeded hot-path
//! message mix (proposals and decisions dominate, as on a loaded team),
//! plus the batched case the runtime actually exercises: eight messages
//! packed into one multi-frame datagram through a reused
//! [`FrameBuilder`]. Decisions carry the window a loaded team ships —
//! a thousand-odd descriptors in proposer batches and ack generations —
//! so the `*_bytes_per_msg` metrics the bench gate compares everywhere
//! are dominated by the oal block encoding.
//!
//! Deliberately self-contained — no serde_json, no rand, no criterion —
//! so the shadow harness can build and run it offline, and so the JSON
//! it emits is byte-stable given the same inputs. The emitted JSON is
//! the committed `BENCH_proto_codec.json` baseline consumed by
//! `cargo xtask bench-gate` (see DESIGN.md §12 for the refresh
//! procedure).
//!
//! Usage: `exp_proto_codec [--iters N] [--seed S] [--out FILE]`

#![forbid(unsafe_code)]

use bytes::Bytes;
use std::time::Instant;
use tw_proto::codec::{Decode, Encode};
use tw_proto::frame::{self, FrameBuilder};
use tw_proto::{
    AckBits, ClockSyncMsg, Decision, Descriptor, HwTime, Incarnation, Join, Msg, NoDecision, Oal,
    Ordinal, ProcessId, Proposal, ProposalId, Semantics, SyncTime, View, ViewId,
};

/// SplitMix64 — tiny, seedable, dependency-free.
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

fn team_view(n: u16) -> View {
    View::new(ViewId::new(7, ProcessId(0)), (0..n).map(ProcessId))
}

fn proposal(rng: &mut SplitMix64, n: u16) -> Proposal {
    let payload_len = 8 + rng.below(56) as usize;
    Proposal {
        sender: ProcessId(rng.below(n as u64) as u16),
        incarnation: Incarnation(1),
        seq: 1 + rng.below(1 << 16),
        send_ts: SyncTime(1_000_000 + rng.below(1 << 30) as i64),
        hdo: Ordinal(rng.below(1 << 10)),
        semantics: match rng.below(3) {
            0 => Semantics::TOTAL_STRONG,
            1 => Semantics::TIME_STRICT,
            _ => Semantics::UNORDERED_WEAK,
        },
        payload: Bytes::from(vec![rng.next() as u8; payload_len]),
    }
}

/// A decision under load, shaped like the ladder's: 16–24 proposer
/// batches of 64 updates (consecutive sequence numbers 1 µs apart, one
/// hdo per batch, 2 ms between batches), now and then a membership
/// descriptor between two batches, and acknowledgements in three
/// generations — the oldest third stable but for one member, the middle
/// third seen by a random majority, the newest by the decider alone.
fn decision(rng: &mut SplitMix64, n: u16) -> Decision {
    let view = team_view(n);
    let sender = ProcessId(rng.below(n as u64) as u16);
    let batches = 16 + rng.below(9);
    let pruned = rng.below(1 << 20);
    let mut ts = 1_000_000 + rng.below(1 << 30) as i64;
    let mut next_seq = vec![1 + rng.below(1 << 16); n as usize];
    let mut entries = Vec::new();
    for b in 0..batches {
        let proposer = ProcessId(rng.below(n as u64) as u16);
        let semantics = match rng.below(3) {
            0 => Semantics::TOTAL_STRONG,
            1 => Semantics::TIME_STRICT,
            _ => Semantics::UNORDERED_WEAK,
        };
        let hdo = Ordinal(pruned + entries.len() as u64);
        let mut acks = AckBits::EMPTY;
        acks.set(sender);
        for rank in 0..n {
            let seen = match b * 3 / batches {
                0 => rank != n - 1,
                1 => rng.below(2) == 0,
                _ => false,
            };
            if seen {
                acks.set(ProcessId(rank));
            }
        }
        for i in 0..64 {
            let seq = &mut next_seq[proposer.rank()];
            let mut d = Descriptor::update(
                ProposalId::new(proposer, *seq),
                hdo,
                semantics,
                SyncTime(ts + i),
                sender,
            );
            d.acks = acks;
            entries.push(d);
            *seq += 1;
        }
        ts += 2_000;
        if rng.below(16) == 0 {
            entries.push(Descriptor::membership(view.clone(), sender));
        }
    }
    let mut oal = Oal::new();
    oal.restore(Ordinal(1 + pruned + entries.len() as u64), entries);
    let mut alive = AckBits::EMPTY;
    for rank in 0..n {
        alive.set(ProcessId(rank));
    }
    Decision {
        sender,
        send_ts: SyncTime(ts),
        view,
        oal,
        alive,
    }
}

/// The hot-path mix: mostly proposals and decisions, a sprinkle of the
/// rest so every tag stays on the measured path.
fn workload(seed: u64, count: usize, n: u16) -> Vec<Msg> {
    let mut rng = SplitMix64(seed);
    let mut alive = AckBits::EMPTY;
    for rank in 0..n {
        alive.set(ProcessId(rank));
    }
    (0..count)
        .map(|_| match rng.below(100) {
            0..=59 => Msg::Proposal(proposal(&mut rng, n)),
            60..=84 => Msg::Decision(decision(&mut rng, n)),
            85..=89 => Msg::NoDecision(NoDecision {
                sender: ProcessId(rng.below(n as u64) as u16),
                send_ts: SyncTime(3_000_000),
                suspect: ProcessId(0),
                view_id: ViewId::new(7, ProcessId(0)),
                oal_view: Oal::new(),
                dpd: vec![proposal(&mut rng, n).desc()],
                alive,
            }),
            90..=94 => Msg::ClockSync(ClockSyncMsg::Reply {
                sender: ProcessId(rng.below(n as u64) as u16),
                rid: rng.next() & 0xFFFF,
                hw_send_echo: HwTime(rng.below(1 << 40) as i64),
                sync_at_reply: SyncTime(rng.below(1 << 40) as i64),
                synced: true,
            }),
            _ => Msg::Join(Join {
                sender: ProcessId(rng.below(n as u64) as u16),
                incarnation: Incarnation(2),
                send_ts: SyncTime(4_000_000),
                join_list: vec![(ProcessId(1), Incarnation(2))],
                alive,
            }),
        })
        .collect()
}

/// Time `f` over the workload; returns (ns/msg, black-box checksum).
fn measure(msgs: &[Msg], reps: usize, mut f: impl FnMut(&Msg) -> u64) -> (f64, u64) {
    let mut sum = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        for m in msgs {
            sum = sum.wrapping_add(f(m));
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / (reps * msgs.len()) as f64;
    (ns, sum)
}

struct Metric {
    name: &'static str,
    value: f64,
    /// "lower" or "higher" is better.
    better: &'static str,
    /// Machine-independent (sizes, ratios) vs timing-dependent. The
    /// bench gate only compares non-portable metrics when the machine
    /// tags match.
    portable: bool,
}

fn emit_json(bench: &str, seed: u64, iters: usize, metrics: &[Metric]) -> String {
    let machine = format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH);
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {:.4}, \"better\": \"{}\", \"portable\": {}}}",
                m.name, m.value, m.better, m.portable
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"schema\": 1,\n  \"machine\": \"{machine}\",\n  \
         \"seed\": {seed},\n  \"iters\": {iters},\n  \"metrics\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn main() {
    let mut iters = 2_000usize;
    let mut seed = 42u64;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => iters = args.next().expect("--iters N").parse().expect("number"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("number"),
            "--out" => out = Some(args.next().expect("--out FILE")),
            other => {
                eprintln!("unknown arg {other}; usage: exp_proto_codec [--iters N] [--seed S] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let n = 5u16;
    let msgs = workload(seed, 512, n);
    let reps = iters.div_ceil(512).max(1);

    // Warm-up pass so first-touch page faults don't land in v1's column.
    for m in &msgs {
        let _ = m.to_bytes();
        let _ = frame::encode_single(m);
    }

    let (v1_enc_ns, _) = measure(&msgs, reps, |m| m.to_bytes().len() as u64);
    let v1_bytes: Vec<Bytes> = msgs.iter().map(|m| m.to_bytes()).collect();
    let mut i = 0usize;
    let (v1_dec_ns, _) = measure(&msgs, reps, |_| {
        let b = &v1_bytes[i % v1_bytes.len()];
        i += 1;
        Msg::from_bytes(b).expect("v1 decode").sender().0 as u64
    });

    // Framed single-message datagrams through one reused builder.
    let mut builder = FrameBuilder::new();
    let (framed_enc_ns, _) = measure(&msgs, reps, |m| {
        builder.reset();
        builder.push_msg(m);
        builder.bytes().len() as u64
    });
    let framed_dgrams: Vec<Vec<u8>> = msgs.iter().map(frame::encode_single).collect();
    let mut j = 0usize;
    let (framed_dec_ns, _) = measure(&msgs, reps, |_| {
        let d = &framed_dgrams[j % framed_dgrams.len()];
        j += 1;
        frame::decode_datagram(d).expect("decode")[0].sender().0 as u64
    });

    // Batched: 8 messages per datagram, encode + decode per message.
    let mut batch_builder = FrameBuilder::new();
    let start = Instant::now();
    let mut batched_total = 0usize;
    for _ in 0..reps {
        for chunk in msgs.chunks(8) {
            batch_builder.reset();
            for m in chunk {
                batch_builder.push_msg(m);
            }
            batched_total += batch_builder.bytes().len();
        }
    }
    let batch_enc_ns = start.elapsed().as_nanos() as f64 / (reps * msgs.len()) as f64;
    let batch_dgrams: Vec<Vec<u8>> = msgs
        .chunks(8)
        .map(|chunk| {
            let mut b = FrameBuilder::new();
            for m in chunk {
                b.push_msg(m);
            }
            b.bytes().to_vec()
        })
        .collect();
    let start = Instant::now();
    let mut decoded = 0usize;
    for _ in 0..reps {
        for d in &batch_dgrams {
            decoded += frame::decode_datagram(d).expect("batch decode").len();
        }
    }
    let batch_dec_ns = start.elapsed().as_nanos() as f64 / decoded as f64;

    let v1_total: usize = v1_bytes.iter().map(|b| b.len()).sum();
    let framed_total: usize = framed_dgrams.iter().map(|d| d.len()).sum();
    let v1_bpm = v1_total as f64 / msgs.len() as f64;
    let framed_bpm = framed_total as f64 / msgs.len() as f64;
    let batch_bpm = batched_total as f64 / (reps * msgs.len()) as f64;

    let metrics = [
        Metric { name: "v1_encode_ns_per_msg", value: v1_enc_ns, better: "lower", portable: false },
        Metric { name: "v1_decode_ns_per_msg", value: v1_dec_ns, better: "lower", portable: false },
        Metric { name: "framed_encode_ns_per_msg", value: framed_enc_ns, better: "lower", portable: false },
        Metric { name: "framed_decode_ns_per_msg", value: framed_dec_ns, better: "lower", portable: false },
        Metric { name: "framed_batch_encode_ns_per_msg", value: batch_enc_ns, better: "lower", portable: false },
        Metric { name: "framed_batch_decode_ns_per_msg", value: batch_dec_ns, better: "lower", portable: false },
        Metric { name: "v1_bytes_per_msg", value: v1_bpm, better: "lower", portable: true },
        Metric { name: "framed_bytes_per_msg", value: framed_bpm, better: "lower", portable: true },
        Metric { name: "framed_batch_bytes_per_msg", value: batch_bpm, better: "lower", portable: true },
    ];

    println!("== proto codec probe (seed {seed}, {} msgs x {reps} reps, team n={n}) ==", msgs.len());
    println!("{:<28} {:>12} {:>8}", "metric", "value", "better");
    for m in &metrics {
        println!("{:<28} {:>12.2} {:>8}", m.name, m.value, m.better);
    }
    println!(
        "\nframed is {:.1}% smaller than v1 on the wire; batching amortizes the \
         version byte and builder reset across 8 frames.",
        100.0 * (1.0 - framed_bpm / v1_bpm)
    );

    let json = emit_json("proto_codec", seed, iters, &metrics);
    match out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(&path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create --out dir");
                }
            }
            std::fs::write(&path, &json).expect("write --out file");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
