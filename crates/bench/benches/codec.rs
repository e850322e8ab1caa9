//! Criterion micro-benchmarks of the framed codec against the v1
//! byte codec: single-message encode/decode, and the batched multi-frame
//! datagram path the runtime's `OutBatch` flush actually exercises
//! (reused `FrameBuilder` scratch, borrowed-slice decode).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tw_proto::frame::{self, FrameBuilder};
use tw_proto::{
    AckBits, Decision, Decode, Descriptor, Encode, Msg, Oal, Ordinal, ProcessId, Proposal,
    ProposalId, Semantics, SyncTime, View, ViewId,
};

fn loaded_decision(window: usize) -> Decision {
    let view = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
    let mut oal = Oal::new();
    for i in 0..window {
        let o = oal.append(Descriptor::update(
            ProposalId::new(ProcessId((i % 5) as u16), i as u64 + 1),
            Ordinal::ZERO,
            Semantics::TOTAL_STRONG,
            SyncTime(i as i64),
            ProcessId(0),
        ));
        oal.ack(o, ProcessId(1));
    }
    Decision {
        sender: ProcessId(0),
        send_ts: SyncTime(1_000),
        view,
        oal,
        alive: AckBits(0b11111),
    }
}

fn proposal(seq: u64) -> Proposal {
    Proposal {
        sender: ProcessId((seq % 5) as u16),
        incarnation: tw_proto::Incarnation(0),
        seq,
        send_ts: SyncTime(5 + seq as i64),
        hdo: Ordinal(3),
        semantics: Semantics::TOTAL_STRONG,
        payload: Bytes::from(vec![7u8; 64]),
    }
}

fn bench_v1_vs_framed(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame_codec");
    for window in [0usize, 16, 64] {
        let msg = Msg::Decision(loaded_decision(window));
        let v1 = msg.to_bytes();
        let framed = frame::encode_single(&msg);
        g.throughput(Throughput::Bytes(framed.len() as u64));
        g.bench_function(format!("v1_encode_decision_w{window}"), |b| {
            b.iter(|| std::hint::black_box(&msg).to_bytes())
        });
        let mut builder = FrameBuilder::new();
        g.bench_function(format!("framed_encode_decision_w{window}"), |b| {
            b.iter(|| {
                builder.reset();
                builder.push_msg(std::hint::black_box(&msg));
                builder.bytes().len()
            })
        });
        g.bench_function(format!("v1_decode_decision_w{window}"), |b| {
            b.iter(|| Msg::from_bytes(std::hint::black_box(&v1)).unwrap())
        });
        g.bench_function(format!("framed_decode_decision_w{window}"), |b| {
            b.iter(|| frame::decode_datagram(std::hint::black_box(&framed)).unwrap())
        });
    }
    g.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame_batch");
    for batch in [1usize, 8, 32] {
        let msgs: Vec<Msg> = (0..batch as u64).map(|i| Msg::Proposal(proposal(i))).collect();
        let mut builder = FrameBuilder::new();
        builder.reset();
        for m in &msgs {
            builder.push_msg(m);
        }
        let dgram = builder.bytes().to_vec();
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_function(format!("encode_proposals_x{batch}"), |b| {
            b.iter(|| {
                builder.reset();
                for m in &msgs {
                    builder.push_msg(std::hint::black_box(m));
                }
                builder.frames()
            })
        });
        g.bench_function(format!("decode_proposals_x{batch}"), |b| {
            b.iter(|| frame::decode_datagram(std::hint::black_box(&dgram)).unwrap().len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_v1_vs_framed, bench_batched);
criterion_main!(benches);
