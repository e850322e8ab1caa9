//! Property tests over the core's pure components: the FIFO cursor model,
//! the delivery conditions, and the §4.3 undeliverable classifier.

use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeSet;
use timewheel::buffers::ProposalBuffer;
use timewheel::config::Config;
use timewheel::delivery;
use timewheel::undeliverable::mark_undeliverables;
use tw_proto::{
    Atomicity, Descriptor, Duration, Incarnation, Oal, Ordering as Ord2, Ordinal, ProcessId,
    Proposal, ProposalId, Semantics, SyncTime, View, ViewId,
};

fn prop(sender: u16, seq: u64, sem: Semantics) -> Proposal {
    Proposal {
        sender: ProcessId(sender),
        incarnation: Incarnation(0),
        seq,
        send_ts: SyncTime(seq as i64),
        hdo: Ordinal::ZERO,
        semantics: sem,
        payload: Bytes::from_static(b"x"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Model check of the FIFO cursor: interleave inserts, deliveries
    /// and purges in random order; delivered sequence numbers per sender
    /// must come out strictly increasing, and every seq must be consumed
    /// at most once.
    #[test]
    fn fifo_cursor_model(ops in proptest::collection::vec((0u16..3, 1u64..12, 0u8..3), 0..80)) {
        let mut buf = ProposalBuffer::new();
        let mut delivered: Vec<(u16, u64)> = Vec::new();
        for (sender, seq, action) in ops {
            let id = ProposalId::new(ProcessId(sender), seq);
            match action {
                0 => {
                    buf.insert(prop(sender, seq, Semantics::UNORDERED_WEAK));
                }
                1 => {
                    if buf.has_pending(id) && buf.fifo_ready(id) {
                        buf.deliver(id);
                        delivered.push((sender, seq));
                    }
                }
                _ => {
                    buf.purge(id);
                }
            }
        }
        // Strictly increasing per sender.
        for s in 0..3u16 {
            let seqs: Vec<u64> = delivered.iter().filter(|(x, _)| *x == s).map(|(_, q)| *q).collect();
            for w in seqs.windows(2) {
                prop_assert!(w[0] < w[1], "sender {s} delivered out of order: {seqs:?}");
            }
        }
        // No duplicates.
        let uniq: BTreeSet<_> = delivered.iter().collect();
        prop_assert_eq!(uniq.len(), delivered.len());
    }

    /// Atomicity conditions are monotone in acknowledgements: adding an
    /// ack can only make a blocked proposal deliverable, never the
    /// reverse.
    #[test]
    fn atomicity_monotone_in_acks(
        n_deps in 1usize..6,
        acks in proptest::collection::vec((0usize..6, 0u16..5), 0..30),
        strict in any::<bool>(),
    ) {
        let group = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
        let mut oal = Oal::new();
        for i in 0..n_deps {
            oal.append(Descriptor::update(
                ProposalId::new(ProcessId(1), i as u64 + 1),
                Ordinal::ZERO,
                Semantics::UNORDERED_WEAK,
                SyncTime(i as i64),
                ProcessId(1),
            ));
        }
        let hdo = Ordinal(n_deps as u64);
        let sem = Semantics::new(
            Ord2::Unordered,
            if strict { Atomicity::Strict } else { Atomicity::Strong },
        );
        let mut p = prop(0, 1, sem);
        p.hdo = hdo;
        let mut was_ok = delivery::atomicity_ok(&oal, &group, &p);
        for (idx, rank) in acks {
            let o = Ordinal(oal.base().0 + idx as u64);
            oal.ack(o, ProcessId(rank));
            let now_ok = delivery::atomicity_ok(&oal, &group, &p);
            prop_assert!(!was_ok || now_ok, "ack revoked deliverability");
            was_ok = now_ok;
        }
        // Fully acknowledged ⇒ both levels deliverable.
        let mut o = oal.base();
        while o < oal.next_ordinal() {
            for r in 0..5u16 {
                oal.ack(o, ProcessId(r));
            }
            o = o.next();
        }
        prop_assert!(delivery::atomicity_ok(&oal, &group, &p));
    }

    /// The §4.3 classifier: marks are consistent — every marked ordinal
    /// is in the window; lost/orphan-order only hit departed proposers;
    /// the result is "closed" (running the classifier again marks
    /// nothing new); and survivors' fully-acked weak updates survive.
    #[test]
    fn classifier_is_sound_and_idempotent(
        entries in proptest::collection::vec(
            (0u16..6, 1u64..50, 0u8..3, 0u8..3, 0u64..10, 0u64..64),
            0..24,
        ),
    ) {
        let survivors: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let group = View::new(ViewId::new(2, ProcessId(0)), survivors.clone());
        let departed: BTreeSet<ProcessId> = [ProcessId(4), ProcessId(5)].into_iter().collect();
        let mut oal = Oal::new();
        for (sender, seq, ord_sel, atom_sel, hdo, ackbits) in entries {
            let sem = Semantics::new(
                [Ord2::Unordered, Ord2::Total, Ord2::Time][ord_sel as usize],
                [Atomicity::Weak, Atomicity::Strong, Atomicity::Strict][atom_sel as usize],
            );
            let mut d = Descriptor::update(
                ProposalId::new(ProcessId(sender), seq),
                Ordinal(hdo),
                sem,
                SyncTime(seq as i64),
                ProcessId(sender),
            );
            d.acks = tw_proto::AckBits(ackbits & 0b1111 | (1 << sender.min(5)));
            // Wipe departed-only acks sometimes to create "lost".
            if departed.contains(&ProcessId(sender)) && seq % 2 == 0 {
                d.acks = tw_proto::AckBits(1 << sender);
            }
            oal.append(d);
        }
        let report = mark_undeliverables(&mut oal, &group, &departed);
        // Soundness of categories.
        for (o, id) in &report.lost {
            prop_assert!(departed.contains(&id.proposer));
            prop_assert!(oal.get(*o).unwrap().undeliverable);
            prop_assert_eq!(oal.get(*o).unwrap().acks.count_in(&group), 0);
        }
        for (_, id) in &report.orphan_order {
            prop_assert!(departed.contains(&id.proposer));
        }
        // All marked ordinals are inside the window.
        for (o, _) in report
            .lost
            .iter()
            .chain(&report.orphan_order)
            .chain(&report.orphan_atomicity)
            .chain(&report.unknown_dependency)
        {
            prop_assert!(oal.get(*o).is_some());
        }
        // Idempotence: a second pass finds nothing.
        let second = mark_undeliverables(&mut oal, &group, &departed);
        prop_assert_eq!(second.total(), 0, "classifier not closed");
        // Survivor weak updates acked by a survivor are never marked.
        for (o, d) in oal.iter() {
            if let tw_proto::DescriptorBody::Update { id, semantics, .. } = &d.body {
                if !departed.contains(&id.proposer)
                    && semantics.atomicity == Atomicity::Weak
                {
                    prop_assert!(
                        !d.undeliverable,
                        "survivor weak update marked at {o}"
                    );
                }
            }
        }
    }

    /// Total-order gating: an ordered update never becomes deliverable
    /// while an earlier ordered update is neither delivered nor marked
    /// undeliverable.
    #[test]
    fn total_order_never_skips(
        k in 1usize..6,
        deliver_first in any::<bool>(),
    ) {
        let cfg = Config::for_team(5, Duration::from_millis(10));
        let group = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
        let sem = Semantics::new(Ord2::Total, Atomicity::Weak);
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let mut ids = Vec::new();
        for i in 0..=k {
            let p = prop(i as u16 % 5, 1 + (i / 5) as u64, sem);
            let o = oal.append(Descriptor::update(
                p.id(), p.hdo, p.semantics, p.send_ts, p.sender,
            ));
            buf.learn_ordinal(p.id(), o);
            buf.insert(p.clone());
            ids.push(p);
        }
        let last = &ids[k];
        // The final update is blocked while any predecessor is pending.
        prop_assert!(!delivery::order_ok(&oal, &buf, &cfg, SyncTime(1_000), last));
        if deliver_first {
            // Deliver all predecessors in order → unblocked.
            for p in &ids[..k] {
                prop_assert!(delivery::deliverable(&oal, &buf, &group, &cfg, SyncTime(1_000), p));
                buf.deliver(p.id());
            }
        } else {
            // Mark all predecessors undeliverable → also unblocked.
            for p in &ids[..k] {
                let o = buf.ordinal_of(p.id()).unwrap();
                oal.mark_undeliverable(o);
                buf.purge(p.id());
            }
        }
        prop_assert!(delivery::order_ok(&oal, &buf, &cfg, SyncTime(1_000), last));
    }
}
