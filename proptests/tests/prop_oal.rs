//! Property tests for the oal algebra: density, prefix agreement under
//! merging, stability monotonicity, pruning correctness.

use proptest::prelude::*;
use tw_proto::*;

#[derive(Debug, Clone)]
enum Op {
    Append { proposer: u16, seq: u64 },
    Ack { idx: usize, rank: u16 },
    Mark { idx: usize },
    Prune,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..5, 1u64..50).prop_map(|(proposer, seq)| Op::Append { proposer, seq }),
        (0usize..20, 0u16..5).prop_map(|(idx, rank)| Op::Ack { idx, rank }),
        (0usize..20).prop_map(|idx| Op::Mark { idx }),
        Just(Op::Prune),
    ]
}

fn group() -> View {
    View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId))
}

fn apply(oal: &mut Oal, op: &Op, g: &View) {
    match op {
        Op::Append { proposer, seq } => {
            oal.append(Descriptor::update(
                ProposalId::new(ProcessId(*proposer), *seq),
                Ordinal::ZERO,
                Semantics::UNORDERED_WEAK,
                SyncTime::ZERO,
                ProcessId(*proposer),
            ));
        }
        Op::Ack { idx, rank } => {
            let o = Ordinal(oal.base().0 + *idx as u64);
            oal.ack(o, ProcessId(*rank));
        }
        Op::Mark { idx } => {
            let o = Ordinal(oal.base().0 + *idx as u64);
            oal.mark_undeliverable(o);
        }
        Op::Prune => {
            oal.prune_stable(g);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ordinals_stay_dense(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let g = group();
        let mut oal = Oal::new();
        for op in &ops {
            apply(&mut oal, op, &g);
            // Window arithmetic is consistent.
            prop_assert_eq!(oal.base().0 + oal.len() as u64, oal.next_ordinal().0);
            // Every window position is addressable, nothing else is.
            let mut o = oal.base();
            while o < oal.next_ordinal() {
                prop_assert!(oal.get(o).is_some());
                o = o.next();
            }
            prop_assert!(oal.get(oal.next_ordinal()).is_none());
            if oal.base().0 > 1 {
                prop_assert!(oal.get(Ordinal(oal.base().0 - 1)).is_none());
            }
        }
    }

    #[test]
    fn snapshot_always_agrees_with_evolved_copy(
        ops in proptest::collection::vec(arb_op(), 0..40),
        at in 0usize..40,
    ) {
        let g = group();
        let mut oal = Oal::new();
        for op in ops.iter().take(at) {
            apply(&mut oal, op, &g);
        }
        let snapshot = oal.clone();
        for op in ops.iter().skip(at) {
            apply(&mut oal, op, &g);
        }
        // A past snapshot is always a prefix-compatible view.
        prop_assert!(snapshot.agrees_with(&oal), "snapshot diverged");
        // Merging its (older) acks back in never fails.
        let mut evolved = oal.clone();
        prop_assert!(evolved.merge_acks(&snapshot).is_ok());
    }

    #[test]
    fn adopt_latest_is_upper_bound(
        ops in proptest::collection::vec(arb_op(), 0..30),
        extra in proptest::collection::vec(arb_op(), 0..10),
    ) {
        let g = group();
        let mut a = Oal::new();
        for op in &ops {
            apply(&mut a, op, &g);
        }
        let mut b = a.clone();
        for op in &extra {
            apply(&mut b, op, &g);
        }
        let mut merged = a.clone();
        prop_assert!(merged.adopt_latest(b.clone()).is_ok());
        prop_assert!(merged.next_ordinal() >= a.next_ordinal());
        prop_assert!(merged.next_ordinal() >= b.next_ordinal());
        // Ack bits are unions on the overlap.
        for (o, d) in a.iter() {
            if let Some(m) = merged.get(o) {
                prop_assert_eq!(m.acks.0 & d.acks.0, d.acks.0, "lost acks at {}", o);
            }
        }
    }

    #[test]
    fn pruning_only_removes_stable_prefix(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let g = group();
        let mut oal = Oal::new();
        for op in &ops {
            apply(&mut oal, op, &g);
        }
        let before = oal.clone();
        let pruned = oal.prune_stable(&g);
        prop_assert_eq!(pruned.start, before.base(), "pruned past the head");
        prop_assert_eq!(pruned.end, oal.base(), "pruned what is still held");
        for (o, d) in before.iter().take_while(|(o, _)| *o < pruned.end) {
            prop_assert!(
                d.undeliverable || d.acks.all_of(&g),
                "pruned unstable descriptor at {}", o
            );
        }
        // Head of the remainder is not stable (or the window is empty).
        if let Some(head) = oal.get(oal.base()) {
            prop_assert!(!(head.undeliverable || head.acks.all_of(&g)));
        }
    }

    #[test]
    fn stability_frontier_is_monotone_under_acks(
        n_append in 1usize..10,
        acks in proptest::collection::vec((0usize..10, 0u16..5), 0..40),
    ) {
        let g = group();
        let mut oal = Oal::new();
        for i in 0..n_append {
            oal.append(Descriptor::update(
                ProposalId::new(ProcessId(0), i as u64 + 1),
                Ordinal::ZERO,
                Semantics::UNORDERED_WEAK,
                SyncTime::ZERO,
                ProcessId(0),
            ));
        }
        let mut prev = oal.stability_frontier(&g);
        for (idx, rank) in acks {
            let o = Ordinal(oal.base().0 + idx as u64);
            oal.ack(o, ProcessId(rank));
            let cur = oal.stability_frontier(&g);
            prop_assert!(cur >= prev, "frontier moved backwards");
            prev = cur;
        }
    }
}
