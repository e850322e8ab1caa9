//! End-to-end membership scenarios on the deterministic simulator:
//! formation, single-failure removal, false alarms, multiple failures,
//! rejoin and partitions — each checked against the protocol invariants.

use timewheel::harness::{all_in_group, formed_team, reformed, run_until_pred, TeamParams};
use timewheel::invariants;
use timewheel::CreatorState;
use tw_proto::{Duration, ProcessId};
use tw_sim::ProcessStatus;

#[test]
fn initial_group_forms_for_many_team_sizes() {
    for n in [2, 3, 4, 5, 7, 9] {
        let params = TeamParams::new(n);
        let (w, t) = formed_team(&params);
        let cfg = params.protocol_config();
        assert!(
            t.as_micros() <= cfg.cycle().as_micros() * 6,
            "n={n}: formation took {t}"
        );
        invariants::assert_all(&w);
    }
}

#[test]
fn crashed_member_is_removed_within_bounded_time() {
    let params = TeamParams::new(5);
    let cfg = params.protocol_config();
    let (mut w, _) = formed_team(&params);
    let crash_at = w.now() + Duration::from_secs(1);
    w.crash_at(crash_at, ProcessId(2));
    let removed = run_until_pred(&mut w, crash_at + Duration::from_secs(20), |w| {
        reformed(w, &[ProcessId(2)])
    })
    .expect("crashed member never removed");
    // Single-failure recovery: detection (≤ 2D + tick) plus one ND ring
    // round (≤ (N−1)·(D+δ)) plus settle. Generously: 2 cycles.
    let elapsed = removed - crash_at;
    assert!(
        elapsed.as_micros() <= cfg.cycle().as_micros() * 2,
        "removal took {elapsed} (cycle = {})",
        cfg.cycle()
    );
    invariants::assert_all(&w);
}

#[test]
fn losing_one_decision_message_does_not_change_membership() {
    use tw_proto::Msg;
    use tw_sim::{Fault, MsgMatcher};
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    // Drop the next decision from whoever sends it, for every receiver:
    // the group must recover via the single-failure election or the
    // wrong-suspicion path, with no membership change.
    let views_before: Vec<u64> = (0..5u16)
        .map(|i| w.actor(ProcessId(i)).member().view().id.seq)
        .collect();
    let t = w.now() + Duration::from_millis(50);
    w.add_fault_at(
        t,
        Fault::drop_next(
            MsgMatcher::any().matching(|m: &Msg| matches!(m, Msg::Decision(_))),
            4, // all four copies of one broadcast decision
        ),
    );
    w.run_for(Duration::from_secs(15));
    for i in 0..5u16 {
        let m = w.actor(ProcessId(i)).member();
        assert_eq!(m.state(), CreatorState::FailureFree, "p{i} stuck");
        assert_eq!(m.view().len(), 5, "p{i} lost a member on a lost message");
        assert_eq!(
            m.view().id.seq,
            views_before[i as usize],
            "membership changed on a single lost decision"
        );
    }
    invariants::assert_all(&w);
}

#[test]
fn partial_decision_loss_triggers_wrong_suspicion_rescue() {
    use tw_proto::Msg;
    use tw_sim::{Fault, MsgMatcher};
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    // Drop the next TWO decision datagrams to specific receivers only
    // (p3 and p4 miss it; others have it): classic false-alarm setup.
    let t = w.now() + Duration::from_millis(50);
    for target in [3u16, 4] {
        w.add_fault_at(
            t,
            Fault::drop_next(
                MsgMatcher::any()
                    .to(ProcessId(target))
                    .matching(|m: &Msg| matches!(m, Msg::Decision(_))),
                1,
            ),
        );
    }
    w.run_for(Duration::from_secs(15));
    for i in 0..5u16 {
        let m = w.actor(ProcessId(i)).member();
        assert_eq!(m.state(), CreatorState::FailureFree, "p{i} stuck");
        assert_eq!(m.view().len(), 5, "false alarm must not remove members");
    }
    invariants::assert_all(&w);
}

#[test]
fn two_simultaneous_crashes_resolved_by_reconfiguration() {
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    let crash_at = w.now() + Duration::from_secs(1);
    w.crash_at(crash_at, ProcessId(1));
    w.crash_at(crash_at, ProcessId(3));
    let formed = run_until_pred(&mut w, crash_at + Duration::from_secs(60), |w| {
        reformed(w, &[ProcessId(1), ProcessId(3)])
    })
    .expect("survivors never reformed");
    let cfg = params.protocol_config();
    // Reconfiguration: detection + ~2 cycles of slots.
    assert!(
        (formed - crash_at).as_micros() <= cfg.cycle().as_micros() * 5,
        "multi-failure recovery took {}",
        formed - crash_at
    );
    for &i in &[0u16, 2, 4] {
        let v = w.actor(ProcessId(i)).member().view().clone();
        assert!(!v.contains(ProcessId(1)));
        assert!(!v.contains(ProcessId(3)));
    }
    invariants::assert_all(&w);
}

#[test]
fn crashed_member_rejoins_after_recovery() {
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    let crash_at = w.now() + Duration::from_secs(1);
    w.crash_at(crash_at, ProcessId(2));
    // Let the removal happen, then recover.
    let recover_at = crash_at + Duration::from_secs(5);
    w.recover_at(recover_at, ProcessId(2));
    // Advance past the recovery before waiting on the rejoin predicate
    // (it would otherwise hold trivially before the crash executes).
    w.run_until(recover_at + Duration::from_millis(1));
    let rejoined = run_until_pred(&mut w, recover_at + Duration::from_secs(60), |w| {
        all_in_group(w, 5)
    })
    .expect("recovered member never rejoined");
    let m2 = w.actor(ProcessId(2)).member();
    assert_eq!(m2.incarnation(), tw_proto::Incarnation(1));
    assert!(m2.view().contains(ProcessId(2)));
    let cfg = params.protocol_config();
    assert!(
        (rejoined - recover_at).as_micros() <= cfg.cycle().as_micros() * 8,
        "re-integration took {}",
        rejoined - recover_at
    );
    invariants::assert_all(&w);
}

#[test]
fn minority_partition_knows_it_is_out_of_date() {
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    let cut = w.now() + Duration::from_secs(1);
    // {0,1,2} majority / {3,4} minority.
    w.partition_at(cut, &[&[0, 1, 2], &[3, 4]]);
    // Majority side reforms; minority must *know* it has no up-to-date
    // group (fail-awareness).
    run_until_pred(&mut w, cut + Duration::from_secs(60), |w| {
        reformed(w, &[ProcessId(3), ProcessId(4)])
    })
    .expect("majority never reformed");
    // Give the minority time to notice.
    w.run_for(Duration::from_secs(5));
    for &i in &[3u16, 4] {
        let hw = w.hw_time(ProcessId(i));
        let m = w.actor(ProcessId(i)).member();
        assert!(
            !m.is_up_to_date(hw),
            "p{i} in a minority partition claims an up-to-date group"
        );
    }
    invariants::assert_all(&w);
}

#[test]
fn healed_partition_reunites_the_team() {
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    let cut = w.now() + Duration::from_secs(1);
    w.partition_at(cut, &[&[0, 1, 2], &[3, 4]]);
    run_until_pred(&mut w, cut + Duration::from_secs(60), |w| {
        reformed(w, &[ProcessId(3), ProcessId(4)])
    })
    .expect("majority never reformed");
    let heal = w.now() + Duration::from_secs(2);
    w.heal_at(heal);
    let reunited = run_until_pred(&mut w, heal + Duration::from_secs(120), |w| {
        all_in_group(w, 5)
    });
    assert!(reunited.is_some(), "team never reunited after heal");
    invariants::assert_all(&w);
}

#[test]
fn majority_never_lost_across_all_views() {
    // A longer chaotic run: one crash, one recovery, then steady state.
    let params = TeamParams::new(7).seed(3);
    let (mut w, _) = formed_team(&params);
    w.crash_at(w.now() + Duration::from_secs(1), ProcessId(5));
    w.recover_at(w.now() + Duration::from_secs(6), ProcessId(5));
    w.run_for(Duration::from_secs(30));
    invariants::assert_all(&w);
    // The group should be whole again.
    assert!(all_in_group(&w, 7), "team did not fully reassemble");
}

#[test]
fn every_process_up_to_date_while_stable() {
    let params = TeamParams::new(5);
    let (mut w, _) = formed_team(&params);
    w.run_for(Duration::from_secs(5));
    for i in 0..5u16 {
        let p = ProcessId(i);
        assert_eq!(w.status(p), ProcessStatus::Up);
        let hw = w.hw_time(p);
        assert!(
            w.actor(p).member().is_up_to_date(hw),
            "p{i} not up-to-date during stable period"
        );
    }
}
