//! Atomic-broadcast semantics, end to end: the 3×3 semantics matrix in
//! failure-free runs, under message loss, and across membership changes
//! (§4.3 undeliverable handling).

use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;
use timewheel::harness::{
    all_in_group, formed_team, inject_proposals, run_until_pred, TeamParams, TeamWorld,
};
use timewheel::invariants;
use timewheel::AppEvent;
use tw_proto::{Atomicity, Duration, Ordering, ProcessId, Semantics};
use tw_sim::LinkModel;

fn delivered_count(w: &TeamWorld, pid: u16) -> usize {
    w.actor(ProcessId(pid)).deliveries.len()
}

#[test]
fn all_nine_semantics_deliver_everywhere_failure_free() {
    for sem in Semantics::matrix() {
        let params = TeamParams::new(3).seed(11);
        let (mut w, _) = formed_team(&params);
        inject_proposals(
            &mut w,
            3,
            6,
            sem,
            Duration::from_millis(100),
            Duration::from_millis(40),
        );
        w.run_for(Duration::from_secs(10));
        for i in 0..3u16 {
            assert_eq!(
                delivered_count(&w, i),
                6,
                "{sem}: p{i} delivered {} of 6",
                delivered_count(&w, i)
            );
        }
        invariants::assert_all(&w);
    }
}

#[test]
fn mixed_semantics_in_one_run() {
    let params = TeamParams::new(5).seed(5);
    let (mut w, _) = formed_team(&params);
    let semantics: Vec<Semantics> = Semantics::matrix().collect();
    for (k, sem) in semantics.iter().enumerate() {
        let sender = ProcessId((k % 5) as u16);
        let t = w.now() + Duration::from_millis(100 + 30 * k as i64);
        let payload = Bytes::from(format!("m{k}"));
        let sem = *sem;
        w.call_at(t, sender, move |a, ctx| {
            let _ = a.propose(ctx, payload, sem);
        });
    }
    w.run_for(Duration::from_secs(10));
    for i in 0..5u16 {
        assert_eq!(delivered_count(&w, i), 9, "p{i}");
    }
    invariants::assert_all(&w);
}

#[test]
fn lost_proposals_are_repaired_by_retransmission() {
    use tw_proto::Msg;
    use tw_sim::{Fault, MsgMatcher};
    let params = TeamParams::new(3).seed(17);
    let (mut w, _) = formed_team(&params);
    // Drop the first 12 proposal datagrams outright (a burst of omission
    // failures hitting only the data path — decisions keep flowing, so
    // membership must not change and the NACK/retransmission machinery
    // must repair every hole).
    let views_before: Vec<u64> = (0..3u16)
        .map(|i| w.actor(ProcessId(i)).member().view().id.seq)
        .collect();
    w.add_fault_at(
        w.now(),
        Fault::drop_next(
            MsgMatcher::any().matching(|m: &Msg| matches!(m, Msg::Proposal(_))),
            12,
        ),
    );
    inject_proposals(
        &mut w,
        3,
        30,
        Semantics::TOTAL_STRONG,
        Duration::from_millis(100),
        Duration::from_millis(25),
    );
    w.run_for(Duration::from_secs(30));
    for i in 0..3u16 {
        assert_eq!(
            delivered_count(&w, i),
            30,
            "p{i} delivered {} of 30 despite retransmission",
            delivered_count(&w, i)
        );
        assert_eq!(
            w.actor(ProcessId(i)).member().view().id.seq,
            views_before[i as usize],
            "data-path loss must not change membership"
        );
    }
    assert!(w.stats().kind("nack").sends > 0, "repair never triggered");
    invariants::assert_all(&w);
}

#[test]
fn uniform_loss_preserves_safety_even_with_churn() {
    // 5% loss on EVERY datagram, including decisions and election
    // messages: live members may be excluded and rejoin (the paper's
    // "limited divergence"), but every safety invariant must hold.
    let params = TeamParams::new(3)
        .seed(17)
        .link(LinkModel::default().with_drop_prob(0.05));
    let (mut w, _) = formed_team(&params);
    inject_proposals(
        &mut w,
        3,
        30,
        Semantics::TOTAL_STRONG,
        Duration::from_millis(100),
        Duration::from_millis(25),
    );
    w.run_for(Duration::from_secs(30));
    invariants::assert_all(&w);
    // The members that never left the group have everything.
    let max = (0..3u16).map(|i| delivered_count(&w, i)).max().unwrap();
    assert!(max >= 25, "even the best member delivered only {max}");
}

#[test]
fn time_ordered_updates_deliver_in_timestamp_order_across_senders() {
    let params = TeamParams::new(5).seed(23);
    let (mut w, _) = formed_team(&params);
    let sem = Semantics::new(Ordering::Time, Atomicity::Weak);
    inject_proposals(
        &mut w,
        5,
        20,
        sem,
        Duration::from_millis(100),
        Duration::from_millis(15),
    );
    w.run_for(Duration::from_secs(15));
    for i in 0..5u16 {
        let ds = &w.actor(ProcessId(i)).deliveries;
        assert_eq!(ds.len(), 20, "p{i}");
        let mut prev = None;
        for (_, d) in ds {
            if let Some(p) = prev {
                assert!(d.send_ts >= p, "p{i} delivered out of timestamp order");
            }
            prev = Some(d.send_ts);
        }
    }
    invariants::assert_all(&w);
}

#[test]
fn strict_atomicity_waits_for_stability_but_terminates() {
    let params = TeamParams::new(5).seed(29);
    let (mut w, _) = formed_team(&params);
    let sem = Semantics::new(Ordering::Unordered, Atomicity::Strict);
    inject_proposals(
        &mut w,
        5,
        10,
        sem,
        Duration::from_millis(100),
        Duration::from_millis(50),
    );
    // Strict updates need a full ack rotation (≈ one cycle per stability
    // round); give it time.
    w.run_for(Duration::from_secs(20));
    for i in 0..5u16 {
        assert_eq!(delivered_count(&w, i), 10, "p{i}");
    }
    invariants::assert_all(&w);
}

#[test]
fn proposals_in_flight_survive_a_decider_crash() {
    let params = TeamParams::new(5).seed(31);
    let (mut w, _) = formed_team(&params);
    // Fire a burst of total/strong proposals from p0 and p4, then crash
    // p2 in the middle of the burst.
    inject_proposals(
        &mut w,
        5,
        20,
        Semantics::TOTAL_STRONG,
        Duration::from_millis(50),
        Duration::from_millis(20),
    );
    let crash_at = w.now() + Duration::from_millis(250);
    w.crash_at(crash_at, ProcessId(2));
    w.run_for(Duration::from_secs(30));
    // Survivors agree on everything they delivered (invariants), and all
    // survivor-proposed updates are delivered by all survivors.
    let survivors = [0u16, 1, 3, 4];
    for &i in &survivors {
        let ds = &w.actor(ProcessId(i)).deliveries;
        // 16 of the 20 proposals come from survivors (every 5th from p2).
        let from_survivors = ds
            .iter()
            .filter(|(_, d)| d.id.proposer != ProcessId(2))
            .count();
        assert!(
            from_survivors >= 16,
            "p{i} delivered only {from_survivors} survivor updates"
        );
    }
    invariants::assert_all(&w);
}

#[test]
fn rejoined_member_receives_state_transfer() {
    let params = TeamParams::new(5).seed(37);
    let (mut w, _) = formed_team(&params);
    // Give the group an application snapshot to ship: the application
    // speaks through its hook, so one delivered update makes every
    // member hold it.
    for i in 0..5u16 {
        w.actor_mut(ProcessId(i))
            .set_hook(|_| Some(Bytes::from_static(b"snapshot-v1")));
    }
    // p2's application keeps the snapshot its rejoin installs.
    let installed = Rc::new(RefCell::new(None));
    let seen = installed.clone();
    w.actor_mut(ProcessId(2)).set_hook(move |ev| {
        if let AppEvent::InstallSnapshot(s) = ev {
            *seen.borrow_mut() = Some(s.clone());
        }
        Some(Bytes::from_static(b"snapshot-v1"))
    });
    inject_proposals(
        &mut w,
        5,
        1,
        Semantics::UNORDERED_WEAK,
        Duration::from_millis(50),
        Duration::ZERO,
    );
    let crash_at = w.now() + Duration::from_millis(500);
    w.crash_at(crash_at, ProcessId(2));
    let recover_at = crash_at + Duration::from_secs(4);
    w.recover_at(recover_at, ProcessId(2));
    w.run_until(recover_at + Duration::from_millis(1));
    run_until_pred(&mut w, recover_at + Duration::from_secs(60), |w| {
        all_in_group(w, 5)
    })
    .expect("rejoin");
    // The transfer datagram may still be in flight when the predicate
    // first holds.
    w.run_for(Duration::from_millis(200));
    let st = installed
        .borrow()
        .clone()
        .expect("no state transfer received");
    assert_eq!(st, Bytes::from_static(b"snapshot-v1"));
    invariants::assert_all(&w);
}

#[test]
fn post_rejoin_proposals_flow_to_everyone() {
    let params = TeamParams::new(5).seed(41);
    let (mut w, _) = formed_team(&params);
    let crash_at = w.now() + Duration::from_millis(500);
    w.crash_at(crash_at, ProcessId(2));
    let recover_at = crash_at + Duration::from_secs(4);
    w.recover_at(recover_at, ProcessId(2));
    w.run_until(recover_at + Duration::from_millis(1));
    run_until_pred(&mut w, recover_at + Duration::from_secs(60), |w| {
        all_in_group(w, 5)
    })
    .expect("rejoin");
    // Now the recovered member proposes; everyone must deliver.
    let before: Vec<usize> = (0..5u16).map(|i| delivered_count(&w, i)).collect();
    let t = w.now() + Duration::from_millis(100);
    w.call_at(t, ProcessId(2), |a, ctx| {
        let _ = a.propose(ctx, Bytes::from_static(b"back"), Semantics::TOTAL_STRONG);
    });
    w.run_for(Duration::from_secs(10));
    for i in 0..5u16 {
        assert_eq!(
            delivered_count(&w, i),
            before[i as usize] + 1,
            "p{i} missed the rejoined member's proposal"
        );
    }
    invariants::assert_all(&w);
}
