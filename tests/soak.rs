//! Soak test: a long, adversarial run mixing every fault class and all
//! nine semantics, ending in a stability window — the team must converge
//! back to the full group with every invariant intact.
//!
//! Known failing (ROADMAP item 1), twice over. `assert_all` reports 156
//! `ordinal-prefix` findings: on installing v843@p3, 78 s into the run
//! and inside the second partition, p2 and p3 deliver a backlog of
//! total-ordered updates out of the order of their ordinals
//! (266, 275, 80, 87, …). Nothing re-ordered them: this is delivery below
//! the oal window's base. The view change's merged acks let
//! `prune_stable` prune descriptors that are stable (received by all)
//! but not yet delivered here, the delivery cursors treat everything
//! below the new base as delivered, and the backlog goes out proposer by
//! proposer. Behind it, the
//! liveness floor: p1, crashed at 5 s and back at 12 s while total-order
//! traffic flows, never catches up and delivers 45 of the 600 offered
//! updates against a floor of 80. This is the in-tree repro of
//! `benchmark/README.md` finding 1. Fix `Member`; do not re-seed,
//! `#[ignore]` or loosen this test. `tools/shadow/check.sh` and CI run
//! it as its own step so it cannot hide the other suites.

use bytes::Bytes;
use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use timewheel::invariants;
use tw_proto::{Duration, Msg, ProcessId, Semantics};
use tw_sim::{Fault, LinkModel, MsgMatcher, SimTime};

#[test]
fn two_minute_adversarial_soak_converges_clean() {
    let n = 5;
    let params = TeamParams::new(n)
        .seed(123_457)
        .link(LinkModel::default().with_drop_prob(0.01));
    let mut w = team_world(&params);
    run_until_pred(&mut w, SimTime::from_secs(60), |w| all_in_group(w, n)).expect("formation");
    let base = w.now();

    // Continuous mixed-semantics client load for the whole run.
    let sems: Vec<Semantics> = Semantics::matrix().collect();
    for k in 0..600usize {
        let sem = sems[k % sems.len()];
        let sender = ProcessId((k % n) as u16);
        let t = base + Duration::from_millis(100 + 150 * k as i64);
        let payload = Bytes::from(format!("s{k}"));
        w.call_at(t, sender, move |a, ctx| {
            let _ = a.propose(ctx, payload, sem);
        });
    }

    // A rolling fault schedule: crashes, recoveries, partitions,
    // targeted decision drops — something every ~8 s.
    let s = |secs: i64| base + Duration::from_secs(secs);
    w.crash_at(s(5), ProcessId(1));
    w.recover_at(s(12), ProcessId(1));
    w.partition_at(s(20), &[&[0, 1, 2], &[3, 4]]);
    w.heal_at(s(28));
    w.crash_at(s(38), ProcessId(0));
    w.crash_at(s(38), ProcessId(2));
    w.recover_at(s(46), ProcessId(0));
    w.recover_at(s(48), ProcessId(2));
    w.add_fault_at(
        s(56),
        Fault::drop_next(
            MsgMatcher::any().matching(|m: &Msg| matches!(m, Msg::Decision(_))),
            8,
        ),
    );
    w.crash_at(s(64), ProcessId(4));
    w.recover_at(s(70), ProcessId(4));
    w.partition_at(s(76), &[&[0, 1], &[2, 3, 4]]);
    w.heal_at(s(84));

    // Run through the chaos plus a long stability tail.
    w.run_until(s(120));
    let converged = run_until_pred(&mut w, s(240), |w| all_in_group(w, n));
    let stalls: String = (0..n as u16)
        .map(|i| w.actor(ProcessId(i)).stall_report() + "\n")
        .collect();
    assert!(
        converged.is_some(),
        "team never reconverged after the soak\n{stalls}"
    );
    let violations = invariants::check_all(&w);
    assert!(
        violations.is_empty(),
        "protocol invariants violated: {violations:#?}\n{stalls}"
    );

    // Liveness floor. Members that were excluded receive the missed
    // prefix as application snapshots, not deliveries — so the floor for
    // them is lower; p3 never crashed and sat in every majority, so it
    // must have delivered nearly everything that was actually proposed
    // (proposals scheduled while their sender was down are skipped).
    for i in 0..n as u16 {
        let got = w.actor(ProcessId(i)).deliveries.len();
        assert!(
            got >= 80,
            "p{i} delivered only {got} of 600 offered\n{stalls}"
        );
    }
    let p3_got = w.actor(ProcessId(3)).deliveries.len();
    assert!(
        p3_got >= 450,
        "the always-up member delivered only {p3_got} of 600 offered\n{stalls}"
    );

    // And the protocol is (almost) quiet again. With the permanent 1%
    // background loss, sporadic lost decisions still trigger the
    // occasional no-decision repair — but the membership must not churn:
    // no view changes, and only a handful of repair messages.
    w.run_for(Duration::from_secs(15));
    let views_before: Vec<u64> = (0..n as u16)
        .map(|i| w.actor(ProcessId(i)).member().views_installed())
        .collect();
    w.reset_stats();
    w.run_for(Duration::from_secs(10));
    let repair = w.stats().sends_of(&["no-decision", "join", "reconfig"]);
    assert!(
        repair < 12,
        "excessive membership traffic ({repair}) in the final stable window"
    );
    for i in 0..n as u16 {
        assert_eq!(
            w.actor(ProcessId(i)).member().views_installed(),
            views_before[i as usize],
            "membership churned during the final stable window"
        );
    }
}
