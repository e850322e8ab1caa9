//! Criterion micro-benchmarks of the protocol's hot paths: oal algebra,
//! member message dispatch, and whole-simulator throughput. (Encode,
//! decode and bytes per message are priced by `benchmark/`'s
//! `ladder_weak`.)

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use timewheel::{Config, Member};
use tw_proto::{
    AckBits, Decision, Descriptor, Duration, Msg, Oal, Ordinal, ProcessId, Proposal, ProposalId,
    Semantics, SyncTime, View, ViewId,
};
use tw_sim::SimTime;

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

fn bench_oal(c: &mut Criterion) {
    let mut g = c.benchmark_group("oal");
    let group = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
    g.bench_function("append_ack_prune_64", |b| {
        b.iter(|| {
            let mut oal = Oal::new();
            for i in 0..64u64 {
                let o = oal.append(Descriptor::update(
                    ProposalId::new(ProcessId((i % 5) as u16), i + 1),
                    Ordinal::ZERO,
                    Semantics::UNORDERED_WEAK,
                    SyncTime(i as i64),
                    ProcessId(0),
                ));
                for r in 0..5u16 {
                    oal.ack(o, ProcessId(r));
                }
            }
            oal.prune_stable(&group)
        })
    });
    let big = loaded_decision(64).oal;
    g.bench_function("adopt_latest_w64", |b| {
        b.iter_batched(
            || (Oal::new(), big.clone()),
            |(mut mine, theirs)| {
                mine.adopt_latest(&theirs).unwrap();
                mine
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A synced member of a 5-group, ready to process decisions.
fn ready_member() -> (Member, Decision) {
    let cfg = Config::for_team(5, Duration::from_millis(10));
    let mut m = Member::new(ProcessId(1), cfg).unwrap();
    m.on_start(tw_proto::HwTime(0));
    m.force_clock_sync();
    let view = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
    let d0 = Decision {
        sender: ProcessId(0),
        send_ts: SyncTime(1),
        view,
        oal: Oal::new(),
        alive: AckBits(0b11111),
    };
    m.on_message(tw_proto::HwTime(2), ProcessId(0), Msg::Decision(d0.clone()));
    (m, d0)
}

fn bench_member_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("member");
    g.bench_function("handle_decision", |b| {
        let (proto_member, d0) = ready_member();
        let mut ts = 10i64;
        b.iter_batched(
            || proto_member.clone(),
            |mut m| {
                ts += 1;
                let d = Decision {
                    send_ts: SyncTime(ts),
                    sender: ProcessId(2),
                    ..d0.clone()
                };
                m.on_message(tw_proto::HwTime(ts), ProcessId(2), Msg::Decision(d))
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("handle_proposal_weak", |b| {
        let (proto_member, _) = ready_member();
        b.iter_batched(
            || proto_member.clone(),
            |mut m| {
                let p = Proposal {
                    sender: ProcessId(2),
                    incarnation: tw_proto::Incarnation(0),
                    seq: 1,
                    send_ts: SyncTime(50),
                    hdo: Ordinal::ZERO,
                    semantics: Semantics::UNORDERED_WEAK,
                    payload: Bytes::from_static(b"x"),
                };
                m.on_message(tw_proto::HwTime(51), ProcessId(2), Msg::Proposal(p))
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("tick_idle", |b| {
        let (proto_member, _) = ready_member();
        b.iter_batched(
            || proto_member.clone(),
            |mut m| m.on_tick(tw_proto::HwTime(100)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    g.bench_function("five_member_group_one_second", |b| {
        b.iter(|| {
            let params = TeamParams::new(5);
            let mut w = team_world(&params);
            run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, 5)).unwrap();
            w.run_for(Duration::from_secs(1));
            w.stats().total_sends()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_oal, bench_member_dispatch, bench_simulation);
criterion_main!(benches);
