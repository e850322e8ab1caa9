//! End-to-end properties of the fault-injection transport: corruption
//! is an omission (never a panic, never a delivered mangled frame), and
//! every fate drawn on a link is a pure function of the fabric seed —
//! however the messages are grouped into flushes.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;
use tw_obs::FaultKind;
use tw_proto::{ClockSyncMsg, HwTime, Incarnation, Msg, Ordinal, ProcessId, Proposal, Semantics, SyncTime};
use tw_runtime::transport::Incoming;
use tw_runtime::{ChaosNet, FaultTransport, LinkPlan, MemTransport, OutBatch, Transport};

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), any::<i64>()).prop_map(|(rid, hw)| {
            Msg::ClockSync(ClockSyncMsg::Request {
                sender: ProcessId(0),
                rid,
                hw_send: HwTime(hw),
            })
        }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<i64>(),
            proptest::collection::vec(any::<u8>(), 0..48)
        )
            .prop_map(|(inc, seq, ts, payload)| {
                Msg::Proposal(Proposal {
                    sender: ProcessId(0),
                    incarnation: Incarnation(inc),
                    seq,
                    send_ts: SyncTime(ts),
                    hdo: Ordinal(seq),
                    semantics: Semantics::TOTAL_STRONG,
                    payload: Bytes::from(payload),
                })
            }),
    ]
}

/// Node 0's fault-wrapped transport feeding node 1's inbox.
fn rig(
    seed: u64,
) -> (
    Arc<FaultTransport>,
    crossbeam::channel::Receiver<Incoming>,
    Arc<ChaosNet>,
) {
    let (tx0, _rx0) = crossbeam::channel::unbounded();
    let (tx1, rx1) = crossbeam::channel::unbounded();
    let mem = MemTransport::new(vec![tx0.into(), tx1.into()]);
    let net = ChaosNet::new(seed);
    let t = FaultTransport::new(ProcessId(0), mem, net.clone(), tw_obs::Tracer::disabled());
    (t, rx1, net)
}

/// Flush one batch from node 0: a send of each message to node 1.
fn send<'a>(t: &FaultTransport, msgs: impl IntoIterator<Item = &'a Msg>) {
    let mut batch = OutBatch::new();
    for m in msgs {
        batch.push_send(ProcessId(1), m.clone());
    }
    t.flush(ProcessId(0), &mut batch);
}

/// Everything queued in `rx`, datagrams flattened in arrival order.
fn received(rx: &crossbeam::channel::Receiver<Incoming>) -> Vec<Msg> {
    rx.try_iter()
        .flat_map(|i| match i {
            Incoming::Msg(_, m) => vec![m],
            Incoming::Batch(_, ms) => ms,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fully corrupting link turns every datagram — whatever its
    /// contents — into a counted omission: the decoder is exercised on
    /// the flipped bytes without panicking, and nothing is delivered.
    #[test]
    fn corruption_is_always_a_counted_omission(
        seed in any::<u64>(),
        msgs in proptest::collection::vec(arb_msg(), 1..32),
    ) {
        let (t, rx, net) = rig(seed);
        net.set_default_plan(LinkPlan {
            corrupt_ppm: 1_000_000,
            ..LinkPlan::clean()
        });
        for m in &msgs {
            send(&t, [m]);
        }
        prop_assert!(rx.try_iter().next().is_none(), "corrupt frames must be dropped");
        prop_assert_eq!(net.injected(FaultKind::Corrupt), msgs.len() as u64);
    }

    /// Losses are deterministic in the seed and fully accounted for:
    /// same seed → identical survivor sequence, whether every message
    /// is a flush of its own or all share one, and the drop counter
    /// explains exactly the missing datagrams.
    #[test]
    fn losses_are_seeded_and_counted(
        seed in any::<u64>(),
        drop_ppm in 0u32..=1_000_000,
        msgs in proptest::collection::vec(arb_msg(), 1..48),
    ) {
        let run = |one_flush: bool| {
            let (t, rx, net) = rig(seed);
            net.set_default_plan(LinkPlan {
                drop_ppm,
                ..LinkPlan::clean()
            });
            if one_flush {
                send(&t, &msgs);
            } else {
                for m in &msgs {
                    send(&t, [m]);
                }
            }
            (received(&rx), net.injected(FaultKind::Drop))
        };
        let (a, dropped_a) = run(false);
        let (b, dropped_b) = run(false);
        let (c, dropped_c) = run(true);
        prop_assert_eq!(&a, &b, "same seed must reproduce the same fates");
        prop_assert_eq!(dropped_a, dropped_b);
        prop_assert_eq!(&a, &c, "one flush of all must keep each message's fate");
        prop_assert_eq!(dropped_a, dropped_c);
        prop_assert_eq!(a.len() as u64 + dropped_a, msgs.len() as u64);
    }
}
