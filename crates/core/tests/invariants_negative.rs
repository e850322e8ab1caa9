//! Negative coverage for `timewheel::invariants`: fabricate deliberately
//! corrupted member logs and prove each check can actually fail.
//!
//! The checks gate every integration test and every schedule the
//! exhaustive explorer enumerates; a checker that silently accepts
//! garbage would turn all of that into green noise. Each test here
//! builds the *minimal* corrupted log for one invariant and asserts
//! `check_all_members` — the `SimMember` adapter over `tw_obs::audit` —
//! flags it under that invariant's check label
//! (`crates/obs/tests/audit_negative.rs` feeds the same checker from
//! trace streams).

use bytes::Bytes;
use timewheel::events::Delivery;
use timewheel::harness::{
    all_in_group, inject_proposals, run_until_pred, team_world, SimMember, TeamParams,
};
use timewheel::invariants::check_all_members;
use timewheel::{Config, Member};
use tw_proto::{
    Duration, HwTime, Ordinal, ProcessId, ProposalId, Semantics, SyncTime, View, ViewId,
};
use tw_sim::SimTime;

const N: usize = 3;

fn blank(pid: u16) -> SimMember {
    let cfg = Config::for_team(N, Duration::from_millis(10));
    SimMember::new(Member::new_unchecked(ProcessId(pid), cfg))
}

fn delivery(proposer: u16, seq: u64, sem: Semantics, send_us: i64) -> Delivery {
    Delivery {
        id: ProposalId {
            proposer: ProcessId(proposer),
            seq,
        },
        ordinal: Some(Ordinal(seq)),
        semantics: sem,
        send_ts: SyncTime(send_us),
        payload: Bytes::from_static(b"x"),
    }
}

/// The total-ordered update `proposer:1`, bound to ordinal `ord`.
fn total(proposer: u16, ord: u64) -> Delivery {
    Delivery {
        ordinal: Some(Ordinal(ord)),
        ..delivery(proposer, 1, Semantics::TOTAL_STRONG, 200)
    }
}

/// Install `view` on the member at local time `t_us` — keeps the views
/// log and the delivery-view alignment the checkers expect.
fn install(m: &mut SimMember, view: &View, t_us: i64) {
    m.views.push((HwTime::from_micros(t_us), view.clone()));
}

fn deliver(m: &mut SimMember, d: Delivery, vid: ViewId, t_us: i64) {
    m.log_delivery(HwTime::from_micros(t_us), d, vid);
}

/// A majority view over members 0..k of an N-process team.
fn view(seq: u64, creator: u16, members: impl IntoIterator<Item = u16>) -> View {
    View::new(
        ViewId::new(seq, ProcessId(creator)),
        members.into_iter().map(ProcessId),
    )
}

fn refs(members: &[SimMember]) -> Vec<&SimMember> {
    members.iter().collect()
}

/// The check label of every violation `check_all_members` reports.
fn checks(members: &[SimMember]) -> Vec<&'static str> {
    check_all_members(&refs(members))
        .iter()
        .map(|v| v.check)
        .collect()
}

#[test]
fn clean_fabricated_log_passes() {
    let v = view(1, 0, [0, 1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    for (i, m) in team.iter_mut().enumerate() {
        install(m, &v, 100 + i as i64);
        deliver(m, delivery(0, 1, Semantics::TOTAL_STRONG, 200), v.id, 300);
        deliver(m, delivery(0, 2, Semantics::TOTAL_STRONG, 210), v.id, 310);
    }
    assert_eq!(check_all_members(&refs(&team)), Vec::new());
}

#[test]
fn duplicate_delivery_is_flagged() {
    let v = view(1, 0, [0, 1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    for m in team.iter_mut() {
        install(m, &v, 100);
    }
    // p1 applies the same proposal twice within one life.
    deliver(
        &mut team[1],
        delivery(0, 1, Semantics::TOTAL_STRONG, 200),
        v.id,
        300,
    );
    deliver(
        &mut team[1],
        delivery(0, 1, Semantics::TOTAL_STRONG, 200),
        v.id,
        310,
    );

    let found = checks(&team);
    let dups = found.iter().filter(|c| **c == "duplicate-delivery").count();
    assert_eq!(dups, 1, "{found:?}");
}

#[test]
fn delivery_logged_without_its_view_is_flagged() {
    let v = view(1, 0, [0, 1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    for m in team.iter_mut() {
        install(m, &v, 100);
    }
    deliver(
        &mut team[0],
        delivery(0, 1, Semantics::TOTAL_STRONG, 200),
        v.id,
        300,
    );
    // What a hand-rolled applier does: grow one column of the log only.
    // The replay into the auditor would silently zip the tail away.
    team[0].deliveries.push((
        HwTime::from_micros(310),
        delivery(0, 2, Semantics::TOTAL_STRONG, 210),
    ));

    // Alignment is the adapter's first check.
    let viols = check_all_members(&refs(&team));
    assert_eq!(viols[0].check, "log-alignment", "{viols:?}");
    assert!(
        viols[0]
            .message
            .contains("2 deliveries but 1 delivery views"),
        "{viols:?}"
    );
}

/// The positive control: the one real effect router never produces such
/// a log. Every semantics of the 3×3 matrix, proposed through
/// `SimMember::propose` — a proposer's own weak updates deliver inside the
/// propose call itself and must carry their view like any other.
#[test]
fn proposing_through_the_sim_member_keeps_the_log_aligned() {
    for sem in Semantics::matrix() {
        let mut w = team_world(&TeamParams::new(N).seed(11));
        run_until_pred(&mut w, SimTime::from_secs(10), |w| all_in_group(w, N)).unwrap();
        let (after, gap) = (Duration::from_millis(100), Duration::from_millis(40));
        inject_proposals(&mut w, N, 6, sem, after, gap);
        w.run_for(Duration::from_secs(10));
        for i in 0..N as u16 {
            let a = w.actor(ProcessId(i));
            assert_eq!(a.deliveries.len(), 6, "{sem}: p{i}");
            let view = a.views.last().expect("formation installed a view").1.id;
            assert_eq!(a.delivery_views, vec![view; 6], "{sem}: p{i}");
            assert!(!a.leaves.is_empty(), "start-up is a logged departure");
        }
        timewheel::invariants::assert_all(&w);
    }
}

#[test]
fn fifo_inversion_is_flagged() {
    let v = view(1, 0, [0, 1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    for m in team.iter_mut() {
        install(m, &v, 100);
    }
    // p2 delivers proposer 0's seq 2 before seq 1.
    deliver(
        &mut team[2],
        delivery(0, 2, Semantics::UNORDERED_WEAK, 210),
        v.id,
        300,
    );
    deliver(
        &mut team[2],
        delivery(0, 1, Semantics::UNORDERED_WEAK, 200),
        v.id,
        310,
    );

    assert_eq!(checks(&team), ["fifo"]);
}

#[test]
fn two_completed_views_sharing_a_seq_are_flagged() {
    // Two *different* majority groups both complete at seq 1: {0,1}
    // created by p0, and {1,2} created by p2 (p1 schizophrenically joins
    // both). A correct run can never produce this — two majorities of
    // the same team intersect, and the intersection member's decider
    // hands the seq to exactly one lineage.
    let va = view(1, 0, [0, 1]);
    let vb = view(1, 2, [1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    install(&mut team[0], &va, 100);
    install(&mut team[1], &va, 100);
    install(&mut team[1], &vb, 200);
    install(&mut team[2], &vb, 200);

    assert_eq!(checks(&team), ["competing-groups"]);
}

#[test]
fn same_view_id_with_diverging_member_sets_is_flagged() {
    let mut va = view(1, 0, [0, 1]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    install(&mut team[0], &va, 100);
    va.members.insert(ProcessId(2)); // p1 saw a different set under the same id
    install(&mut team[1], &va, 100);

    assert_eq!(checks(&team), ["view-agreement"]);
}

#[test]
fn minority_view_is_flagged() {
    // A singleton view in a 3-process team: the paper's majority rule
    // (|view| > n/2) exists precisely to forbid this split-brain shape.
    let v = view(1, 0, [0]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    install(&mut team[0], &v, 100);

    assert_eq!(checks(&team), ["minority-view"]);
}

#[test]
fn total_order_disagreement_in_a_completed_view_is_flagged() {
    let v = view(1, 0, [0, 1]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    install(&mut team[0], &v, 100);
    install(&mut team[1], &v, 100);
    // Both bind the same ordinals; p1 applies them the other way round.
    let (d1, d2) = (total(0, 1), total(1, 2));
    deliver(&mut team[0], d1.clone(), v.id, 300);
    deliver(&mut team[0], d2.clone(), v.id, 310);
    deliver(&mut team[1], d2, v.id, 300);
    deliver(&mut team[1], d1, v.id, 310);

    let viols = check_all_members(&refs(&team));
    let v = viols
        .iter()
        .find(|v| v.check == "total-order")
        .expect("flagged");
    assert!(v.message.contains("total order disagreement"), "{v}");
}

#[test]
fn total_order_divergence_outside_completed_views_is_not_flagged() {
    // Same inversion, but the view never completes (p1 never installs
    // it) — the paper scopes agreement to completed majority groups, so
    // the checker must stay quiet.
    let v = view(1, 0, [0, 1]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    install(&mut team[0], &v, 100); // p1 never installs v
    let (d1, d2) = (total(0, 1), total(1, 2));
    deliver(&mut team[0], d1.clone(), v.id, 300);
    deliver(&mut team[0], d2.clone(), v.id, 310);
    deliver(&mut team[1], d2, v.id, 300);
    deliver(&mut team[1], d1, v.id, 310);

    let found = checks(&team);
    assert!(!found.contains(&"total-order"), "{found:?}");
}

/// `benchmark/README.md` finding 4, minimal: v1 and v2 both complete; p0
/// delivers a then b in v1, p1 delivers b in v1 and a only in v2. No
/// single view holds the disagreement, so a checker that compares
/// members view by view cannot see it. `complete_v2 = false` leaves v2
/// installed by p1 alone.
fn cross_view_inversion(complete_v2: bool) -> Vec<SimMember> {
    let (v1, v2) = (view(1, 0, [0, 1]), view(2, 1, [0, 1]));
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    install(&mut team[0], &v1, 100);
    install(&mut team[1], &v1, 100);
    install(&mut team[1], &v2, 400);
    if complete_v2 {
        install(&mut team[0], &v2, 400);
    }
    let (a, b) = (total(0, 1), total(1, 2));
    deliver(&mut team[0], a.clone(), v1.id, 300);
    deliver(&mut team[0], b.clone(), v1.id, 310);
    deliver(&mut team[1], b, v1.id, 300);
    deliver(
        &mut team[1],
        Delivery {
            ordinal: Some(Ordinal(3)),
            ..a
        },
        v2.id,
        500,
    );
    team
}

#[test]
fn total_order_inversion_across_two_completed_views_is_flagged() {
    let viols = check_all_members(&refs(&cross_view_inversion(true)));
    let v = viols
        .iter()
        .find(|v| v.check == "total-order")
        .expect("flagged");
    assert!(
        v.message
            .contains("p0 delivered p0:1 before p1:1 (views v1@p0, v1@p0)")
            && v.message
                .contains("p1 delivered p1:1 before p0:1 (views v1@p0, v2@p1)"),
        "{v}"
    );
}

#[test]
fn total_order_inversion_reaching_into_a_never_completed_view_is_not_flagged() {
    let found = checks(&cross_view_inversion(false));
    assert!(!found.contains(&"total-order"), "{found:?}");
}

#[test]
fn time_order_inversion_is_flagged() {
    let v = view(1, 0, [0, 1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    for m in team.iter_mut() {
        install(m, &v, 100);
    }
    // p0 delivers a time-ordered update whose send timestamp precedes
    // the previous one.
    deliver(
        &mut team[0],
        delivery(1, 1, Semantics::TIME_STRICT, 500),
        v.id,
        600,
    );
    deliver(
        &mut team[0],
        delivery(2, 1, Semantics::TIME_STRICT, 400),
        v.id,
        610,
    );

    assert_eq!(checks(&team), ["time-order"]);
}

#[test]
fn duplicate_across_crash_lives_is_not_flagged() {
    // A crash-recovery starts a new life; re-applying an update after
    // the join-time state transfer is legal. The duplicate check must
    // scope itself to one continuous life.
    let v = view(1, 0, [0, 1, 2]);
    let mut team: Vec<SimMember> = (0..N as u16).map(blank).collect();
    for m in team.iter_mut() {
        install(m, &v, 100);
    }
    let m = &mut team[1];
    m.leaves.push((
        HwTime::from_micros(0),
        timewheel::events::LeaveReason::Startup,
    ));
    deliver(m, delivery(0, 1, Semantics::TOTAL_STRONG, 200), v.id, 300);
    m.leaves.push((
        HwTime::from_micros(400),
        timewheel::events::LeaveReason::Startup,
    ));
    deliver(m, delivery(0, 1, Semantics::TOTAL_STRONG, 200), v.id, 500);

    assert_eq!(check_all_members(&refs(&team)), []);
}
