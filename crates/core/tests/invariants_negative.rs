//! Negative coverage for `timewheel::invariants`: fabricate deliberately
//! corrupted member traces and prove each check can actually fail.
//!
//! The checks gate every integration test and every schedule the
//! exhaustive explorer enumerates; a checker that silently accepts
//! garbage would turn all of that into green noise. Each test records
//! the *minimal* corrupted history for one invariant into `SimMember`
//! traces and asserts `check_all_members` — the simulator's feed into
//! `tw_obs::audit` — flags it under that invariant's check label
//! (`crates/obs/tests/audit_negative.rs` feeds the auditor the same
//! kind of stream directly).

use timewheel::harness::{
    all_in_group, inject_proposals, run_until_pred, team_world, SimMember, TeamParams,
};
use timewheel::invariants::check_all_members;
use timewheel::{Config, Member};
use tw_obs::{ClockStamp, FaultKind, TraceEvent};
use tw_proto::{
    AckBits, Duration, HwTime, Ordinal, ProcessId, ProposalId, Semantics, SyncTime, ViewId,
};
use tw_sim::SimTime;

const N: usize = 3;

fn blank(pid: u16) -> SimMember {
    let cfg = Config::for_team(N, Duration::from_millis(10));
    SimMember::new(Member::new_unchecked(ProcessId(pid), cfg))
}

fn team() -> Vec<SimMember> {
    (0..N as u16).map(blank).collect()
}

fn stamp(t_us: i64) -> ClockStamp {
    ClockStamp {
        hw: HwTime::from_micros(t_us),
        sync: SyncTime(t_us),
    }
}

/// The view `seq@creator` over `members` of the N-process team.
fn view(seq: u64, creator: u16, members: &[u16]) -> (ViewId, AckBits) {
    let bits = members.iter().map(|&p| ProcessId(p)).collect();
    (ViewId::new(seq, ProcessId(creator)), bits)
}

/// Member `i` of `team` installs `view` at local time `t_us`.
fn install(team: &mut [SimMember], i: u16, (view, members): (ViewId, AckBits), t_us: i64) {
    team[i as usize].record(TraceEvent::ViewInstalled {
        pid: ProcessId(i),
        at: stamp(t_us),
        view,
        members,
    });
}

/// Member `i` of `team` delivers `proposer:seq` bound to ordinal `ord`,
/// sent at `send_us`, in `view`.
fn deliver(
    team: &mut [SimMember],
    i: u16,
    (proposer, seq, ord): (u16, u64, u64),
    semantics: Semantics,
    send_us: i64,
    view: ViewId,
) {
    team[i as usize].record(TraceEvent::Delivered {
        pid: ProcessId(i),
        at: stamp(send_us + 100),
        id: ProposalId::new(ProcessId(proposer), seq),
        ordinal: Some(Ordinal(ord)),
        semantics,
        send_ts: SyncTime(send_us),
        view,
    });
}

/// Member `i` delivers the total-ordered update `proposer:1`, bound to
/// ordinal `ord`.
fn total(team: &mut [SimMember], i: u16, proposer: u16, ord: u64, view: ViewId) {
    let sem = Semantics::TOTAL_STRONG;
    deliver(team, i, (proposer, 1, ord), sem, 200, view);
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
    let v = view(1, 0, &[0, 1, 2]);
    let mut team = team();
    for i in 0..N as u16 {
        install(&mut team, i, v, 100 + i as i64);
        deliver(&mut team, i, (0, 1, 1), Semantics::TOTAL_STRONG, 200, v.0);
        deliver(&mut team, i, (0, 2, 2), Semantics::TOTAL_STRONG, 210, v.0);
    }
    assert_eq!(check_all_members(&refs(&team)), Vec::new());
}

#[test]
fn duplicate_delivery_is_flagged() {
    let v = view(1, 0, &[0, 1, 2]);
    let mut team = team();
    for i in 0..N as u16 {
        install(&mut team, i, v, 100);
    }
    // p1 applies the same proposal twice within one life.
    deliver(&mut team, 1, (0, 1, 1), Semantics::TOTAL_STRONG, 200, v.0);
    deliver(&mut team, 1, (0, 1, 1), Semantics::TOTAL_STRONG, 200, v.0);

    let found = checks(&team);
    let dups = found.iter().filter(|c| **c == "duplicate-delivery").count();
    assert_eq!(dups, 1, "{found:?}");
}

/// The positive control: the member's own trace carries, on every
/// `Delivered`, the view it had installed when it delivered. Every
/// semantics of the 3×3 matrix, proposed through `SimMember::propose` — a
/// proposer's own weak updates deliver inside the propose call itself
/// and must carry their view like any other.
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
            let mut installed = None;
            let mut delivered = 0;
            for ev in a.trace() {
                match *ev {
                    TraceEvent::ViewInstalled { view, .. } => installed = Some(view),
                    TraceEvent::Delivered { view, .. } => {
                        assert_eq!(Some(view), installed, "{sem}: p{i}");
                        delivered += 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(delivered, 6, "{sem}: p{i}");
            assert_eq!(a.deliveries.len(), 6, "{sem}: p{i}");
        }
        timewheel::invariants::assert_all(&w);
    }
}

#[test]
fn fifo_inversion_is_flagged() {
    let v = view(1, 0, &[0, 1, 2]);
    let mut team = team();
    for i in 0..N as u16 {
        install(&mut team, i, v, 100);
    }
    // p2 delivers proposer 0's seq 2 before seq 1.
    deliver(&mut team, 2, (0, 2, 2), Semantics::UNORDERED_WEAK, 210, v.0);
    deliver(&mut team, 2, (0, 1, 1), Semantics::UNORDERED_WEAK, 200, v.0);

    assert_eq!(checks(&team), ["fifo"]);
}

#[test]
fn two_completed_views_sharing_a_seq_are_flagged() {
    // Two *different* majority groups both complete at seq 1: {0,1}
    // created by p0, and {1,2} created by p2 (p1 schizophrenically joins
    // both). A correct run can never produce this — two majorities of
    // the same team intersect, and the intersection member's decider
    // hands the seq to exactly one lineage.
    let (va, vb) = (view(1, 0, &[0, 1]), view(1, 2, &[1, 2]));
    let mut team = team();
    install(&mut team, 0, va, 100);
    install(&mut team, 1, va, 100);
    install(&mut team, 1, vb, 200);
    install(&mut team, 2, vb, 200);

    assert_eq!(checks(&team), ["competing-groups"]);
}

#[test]
fn same_view_id_with_diverging_member_sets_is_flagged() {
    let mut team = team();
    install(&mut team, 0, view(1, 0, &[0, 1]), 100);
    // p1 saw a different set under the same id.
    install(&mut team, 1, view(1, 0, &[0, 1, 2]), 100);

    assert_eq!(checks(&team), ["view-agreement"]);
}

#[test]
fn minority_view_is_flagged() {
    // A singleton view in a 3-process team: the paper's majority rule
    // (|view| > n/2) exists precisely to forbid this split-brain shape.
    let mut team = team();
    install(&mut team, 0, view(1, 0, &[0]), 100);

    assert_eq!(checks(&team), ["minority-view"]);
}

/// `benchmark/README.md` finding 4, minimal: v1 and v2 both complete; p0
/// delivers a then b in v1, p1 delivers b in v1 and a only in v2. No
/// single view holds the disagreement, so a checker that compares
/// members view by view cannot see it. `complete_v2 = false` leaves v2
/// installed by p1 alone.
fn cross_view_inversion(complete_v2: bool) -> Vec<SimMember> {
    let (v1, v2) = (view(1, 0, &[0, 1]), view(2, 1, &[0, 1]));
    let mut team = team();
    install(&mut team, 0, v1, 100);
    install(&mut team, 1, v1, 100);
    install(&mut team, 1, v2, 400);
    if complete_v2 {
        install(&mut team, 0, v2, 400);
    }
    // a = p0:1, b = p1:1
    total(&mut team, 0, 0, 1, v1.0);
    total(&mut team, 0, 1, 2, v1.0);
    total(&mut team, 1, 1, 2, v1.0);
    total(&mut team, 1, 0, 3, v2.0);
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
    let v = view(1, 0, &[0, 1, 2]);
    let mut team = team();
    for i in 0..N as u16 {
        install(&mut team, i, v, 100);
    }
    // p0 delivers a time-ordered update whose send timestamp precedes
    // the previous one.
    deliver(&mut team, 0, (1, 1, 1), Semantics::TIME_STRICT, 500, v.0);
    deliver(&mut team, 0, (2, 1, 1), Semantics::TIME_STRICT, 400, v.0);

    assert_eq!(checks(&team), ["time-order"]);
}

#[test]
fn duplicate_across_crash_lives_is_not_flagged() {
    // A crash-recovery starts a new life; re-applying an update after
    // the join-time state transfer is legal. The duplicate check must
    // scope itself to one continuous life. The restart is the fact
    // `SimMember::on_recover` records.
    let v = view(1, 0, &[0, 1, 2]);
    let mut team = team();
    for i in 0..N as u16 {
        install(&mut team, i, v, 100);
    }
    deliver(&mut team, 1, (0, 1, 1), Semantics::TOTAL_STRONG, 200, v.0);
    team[1].record(TraceEvent::FaultInjected {
        pid: ProcessId(1),
        at: stamp(400),
        kind: FaultKind::Restart,
        target: ProcessId(1),
        arg: 0,
    });
    deliver(&mut team, 1, (0, 1, 1), Semantics::TOTAL_STRONG, 200, v.0);

    assert_eq!(check_all_members(&refs(&team)), []);
}
