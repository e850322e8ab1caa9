//! T9 — §4.3: ordering/atomicity preservation across membership changes.
//!
//! When a member departs mid-stream, the new decider must classify and
//! discard undeliverable proposals (lost / orphan-order /
//! orphan-atomicity / unknown-dependency) so that no semantics are
//! violated. We run the full 3×3 semantics matrix as in-flight load
//! while crashing a proposer, then check:
//!
//! * every survivor delivers exactly the same set of updates per
//!   semantics class (agreement);
//! * all order invariants hold (total order, time order, FIFO);
//! * the purge report of the new decider accounts for the suppressed
//!   updates.

use timewheel::harness::{inject_proposals, TeamParams};
use tw_bench::{formed_team, Table};
use tw_proto::{Duration, ProcessId, Semantics};

fn main() {
    let n = 5;
    let params = TeamParams::new(n).seed(909);
    let (mut w, _) = formed_team(&params);

    // Interleave the full semantics matrix as load (180 proposals from
    // all senders, including the soon-to-crash p2).
    let sems: Vec<Semantics> = Semantics::matrix().collect();
    for (i, sem) in sems.iter().enumerate() {
        inject_proposals(
            &mut w,
            n,
            20,
            *sem,
            Duration::from_millis(30 + 5 * i as i64),
            Duration::from_millis(45),
        );
    }
    // Crash p2 in the middle of the stream.
    let crash_at = w.now() + Duration::from_millis(450);
    w.crash_at(crash_at, ProcessId(2));
    w.run_for(Duration::from_secs(30));

    timewheel::invariants::assert_all(&w);

    let survivors = [0u16, 1, 3, 4];
    let mut table = Table::new(&["semantics", "p0", "p1", "p3", "p4", "agree"]);
    let mut all_agree = true;
    for sem in &sems {
        let sets: Vec<std::collections::BTreeSet<tw_proto::ProposalId>> = survivors
            .iter()
            .map(|&i| {
                w.actor(ProcessId(i))
                    .deliveries
                    .iter()
                    .filter(|(_, d)| d.semantics == *sem)
                    .map(|(_, d)| d.id)
                    .collect()
            })
            .collect();
        let agree = sets.windows(2).all(|p| p[0] == p[1]);
        all_agree &= agree;
        table.row(&[
            sem.to_string(),
            sets[0].len().to_string(),
            sets[1].len().to_string(),
            sets[2].len().to_string(),
            sets[3].len().to_string(),
            agree.to_string(),
        ]);
    }
    table.print("T9: per-semantics delivered counts at the survivors (p2 crashed mid-stream)");
    assert!(all_agree, "survivors disagree on a semantics class");

    // --- Part 2: a scripted scenario that forces the §4.3 categories ---
    //
    // p2's first proposal (total-ordered) is dropped to every other
    // member — including NACK retransmissions — but p2 itself orders it
    // into the oal when its decider turn comes. Its second total-ordered
    // proposal reaches everyone (orphan-order candidate), and a
    // survivor's strong proposal then depends on the lost ordinal
    // (orphan-atomicity candidate). Then p2 crashes.
    use bytes::Bytes;
    use tw_proto::{Atomicity, Msg, Ordering as Ord2};
    use tw_sim::{Fault, MsgMatcher};
    let params = TeamParams::new(n).seed(910);
    let (mut w, _) = formed_team(&params);
    // Swallow p2's first proposal forever (covers retransmissions).
    w.add_fault_at(
        w.now(),
        Fault::drop_all(MsgMatcher::any().matching(
            |m: &Msg| matches!(m, Msg::Proposal(p) if p.sender == ProcessId(2) && p.seq == 1),
        )),
    );
    let propose = |w: &mut tw_bench::TeamWorld, at_ms: i64, who: u16, sem: Semantics, tag: &str| {
        let t = w.now() + Duration::from_millis(at_ms);
        let payload = Bytes::from(tag.to_string());
        w.call_at(t, ProcessId(who), move |a, ctx| {
            let _ = a.propose(ctx, payload, sem);
        });
    };
    let total_weak = Semantics::new(Ord2::Total, Atomicity::Weak);
    let strong = Semantics::new(Ord2::Unordered, Atomicity::Strong);
    propose(&mut w, 50, 2, total_weak, "lost-candidate"); // seq 1: swallowed
    propose(&mut w, 120, 2, total_weak, "orphan-order-candidate"); // seq 2: delivered to all
                                                                   // Give p2 a decider turn to order its own pending proposals, then a
                                                                   // survivor proposes a strong update depending on those ordinals.
    let cfg = params.protocol_config();
    w.run_for(cfg.cycle() * 2);
    propose(&mut w, 10, 0, strong, "orphan-atomicity-candidate");
    w.run_for(Duration::from_millis(100));
    w.crash_at(w.now() + Duration::from_millis(10), ProcessId(2));
    w.run_for(Duration::from_secs(20));
    timewheel::invariants::assert_all(&w);

    let mut purge_table = Table::new(&["category", "count", "proposals"]);
    let mut found = false;
    for &i in &survivors {
        if let Some(r) = w.actor(ProcessId(i)).member().last_purge() {
            if r.total() == 0 {
                continue;
            }
            let fmt = |v: &Vec<(tw_proto::Ordinal, tw_proto::ProposalId)>| {
                v.iter()
                    .map(|(o, id)| format!("{id}{o}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            purge_table.row(&["lost".into(), r.lost.len().to_string(), fmt(&r.lost)]);
            purge_table.row(&[
                "orphan-order".into(),
                r.orphan_order.len().to_string(),
                fmt(&r.orphan_order),
            ]);
            purge_table.row(&[
                "orphan-atomicity".into(),
                r.orphan_atomicity.len().to_string(),
                fmt(&r.orphan_atomicity),
            ]);
            purge_table.row(&[
                "unknown-dependency".into(),
                r.unknown_dependency.len().to_string(),
                fmt(&r.unknown_dependency),
            ]);
            found = true;
            break;
        }
    }
    assert!(found, "the forced-purge scenario produced no purge report");
    purge_table.print("T9 (part 2): §4.3 classification after the scripted loss scenario");
    // Neither suppressed update may have been delivered anywhere.
    for &i in &survivors {
        for (_, d) in &w.actor(ProcessId(i)).deliveries {
            assert!(
                d.payload != Bytes::from_static(b"lost-candidate")
                    && d.payload != Bytes::from_static(b"orphan-order-candidate"),
                "p{i} delivered a suppressed update"
            );
        }
    }
    println!("\nclaim check: identical per-semantics delivery sets at every survivor;");
    println!("the new decider classifies lost/orphan updates and no survivor ever");
    println!("delivers a suppressed update — FIFO/total/time invariants all hold.");
}
