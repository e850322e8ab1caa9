//! Negative coverage for the history checker, fed as a trace stream:
//! fabricate deliberately corrupted streams and prove each check can
//! actually fire.
//!
//! `crates/core/tests/invariants_negative.rs` feeds the same checker
//! through fabricated `SimMember` traces. An auditor that silently accepts
//! garbage would turn every runtime/soak assertion built on it into
//! green noise. Each test doctors the *minimal* broken stream for one
//! invariant and asserts the auditor flags it under the expected check —
//! so stubbing a check out fails these tests loudly.

use tw_obs::{Auditor, ClockStamp, FaultKind, SharedAuditor, TraceEvent, TraceSink, Violation};
use tw_proto::{AckBits, HwTime, Ordinal, ProcessId, ProposalId, Semantics, SyncTime, ViewId};

const N: usize = 5;

fn stamp(us: i64) -> ClockStamp {
    ClockStamp {
        hw: HwTime::from_micros(us),
        sync: SyncTime(us),
    }
}

fn view1() -> ViewId {
    ViewId::new(1, ProcessId(0))
}

fn installed(pid: u16, view: ViewId, members: u64, t_us: i64) -> TraceEvent {
    TraceEvent::ViewInstalled {
        pid: ProcessId(pid),
        at: stamp(t_us),
        view,
        members: AckBits(members),
    }
}

fn delivered(pid: u16, proposer: u16, seq: u64, sem: Semantics, send_us: i64) -> TraceEvent {
    TraceEvent::Delivered {
        pid: ProcessId(pid),
        at: stamp(send_us + 100),
        id: ProposalId::new(ProcessId(proposer), seq),
        ordinal: Some(Ordinal(seq)),
        semantics: sem,
        send_ts: SyncTime(send_us),
        view: view1(),
    }
}

/// A clean failure-free stream: full view everywhere, FIFO in-order
/// total-ordered deliveries. The baseline every doctored stream is a
/// one-event mutation of.
fn clean_stream() -> Vec<TraceEvent> {
    let mut evs = Vec::new();
    for p in 0..N as u16 {
        evs.push(installed(p, view1(), 0b1_1111, 100));
    }
    for seq in 1..=3u64 {
        for p in 0..N as u16 {
            evs.push(delivered(
                p,
                0,
                seq,
                Semantics::TOTAL_STRONG,
                200 + seq as i64,
            ));
        }
    }
    evs
}

/// Feed a whole stream and finish: every violation, per-event and
/// whole-history.
fn audit(evs: &[TraceEvent]) -> Vec<Violation> {
    let mut a = Auditor::new(N);
    for ev in evs {
        a.observe(ev);
    }
    a.finish().to_vec()
}

fn checks(evs: &[TraceEvent]) -> Vec<&'static str> {
    audit(evs).iter().map(|v| v.check).collect()
}

/// A total-ordered delivery of `proposer:1` by `pid` in `view`.
fn total(pid: u16, view: ViewId, proposer: u16, ord: u64) -> TraceEvent {
    TraceEvent::Delivered {
        pid: ProcessId(pid),
        at: stamp(300),
        id: ProposalId::new(ProcessId(proposer), 1),
        ordinal: Some(Ordinal(ord)),
        semantics: Semantics::TOTAL_STRONG,
        send_ts: SyncTime(200),
        view,
    }
}

#[test]
fn clean_stream_passes() {
    assert_eq!(audit(&clean_stream()), []);
}

#[test]
fn doctored_duplicate_delivery_is_flagged() {
    let mut evs = clean_stream();
    // p3 re-delivers proposer 0's seq 2.
    evs.push(delivered(3, 0, 2, Semantics::TOTAL_STRONG, 202));
    let found = checks(&evs);
    assert!(found.contains(&"duplicate-delivery"), "{found:?}");
}

/// The trace-fed twin of core's `duplicate_across_crash_lives_is_not_flagged`:
/// an injected restart starts a new life, and re-applying an update
/// after the join-time state transfer is legal.
#[test]
fn duplicate_across_a_restart_is_not_flagged() {
    let mut evs = clean_stream();
    evs.push(TraceEvent::FaultInjected {
        pid: ProcessId(3),
        at: stamp(800),
        kind: FaultKind::Restart,
        target: ProcessId(3),
        arg: 0,
    });
    evs.push(delivered(3, 0, 2, Semantics::TOTAL_STRONG, 202));
    assert_eq!(audit(&evs), []);
}

#[test]
fn doctored_minority_view_is_flagged() {
    let mut evs = clean_stream();
    // p4 installs a two-member view of the five-process team.
    evs.push(installed(4, ViewId::new(2, ProcessId(4)), 0b1_0001, 900));
    let found = checks(&evs);
    assert!(found.contains(&"minority-view"), "{found:?}");
}

#[test]
fn doctored_fifo_inversion_is_flagged() {
    let mut evs = vec![installed(0, view1(), 0b1_1111, 100)];
    evs.push(delivered(0, 1, 2, Semantics::UNORDERED_WEAK, 210));
    evs.push(delivered(0, 1, 1, Semantics::UNORDERED_WEAK, 200));
    let found = checks(&evs);
    assert!(found.contains(&"fifo"), "{found:?}");
}

#[test]
fn doctored_total_order_conflict_is_flagged() {
    let mut evs: Vec<TraceEvent> = (0..2u16)
        .map(|p| installed(p, view1(), 0b1_1111, 100))
        .collect();
    // Both members bind ordinal 1, but to different proposals.
    evs.push(total(0, view1(), 1, 1));
    evs.push(total(1, view1(), 2, 1));
    let found = checks(&evs);
    assert!(found.contains(&"total-order"), "{found:?}");
}

#[test]
fn doctored_time_order_inversion_is_flagged() {
    let mut evs = vec![installed(0, view1(), 0b1_1111, 100)];
    evs.push(delivered(0, 1, 1, Semantics::TIME_STRICT, 500));
    evs.push(delivered(0, 2, 1, Semantics::TIME_STRICT, 400));
    let found = checks(&evs);
    assert!(found.contains(&"time-order"), "{found:?}");
}

#[test]
fn doctored_view_disagreement_is_flagged() {
    let v = ViewId::new(2, ProcessId(1));
    let evs = vec![
        installed(0, v, 0b0_0111, 100),
        installed(1, v, 0b0_1110, 110), // same id, different member set
    ];
    let found = checks(&evs);
    assert!(found.contains(&"view-agreement"), "{found:?}");
}

#[test]
fn doctored_competing_majority_groups_are_flagged() {
    // Two different majority groups both complete at view seq 2: every
    // member of {0,1,2} installs p0's, every member of {2,3,4} installs
    // p4's (p2 joins both).
    let (va, vb) = (ViewId::new(2, ProcessId(0)), ViewId::new(2, ProcessId(4)));
    let mut evs: Vec<TraceEvent> = (0..3).map(|p| installed(p, va, 0b0_0111, 100)).collect();
    evs.extend((2..5).map(|p| installed(p, vb, 0b1_1100, 110)));
    assert_eq!(checks(&evs), ["competing-groups"]);
}

#[test]
fn competing_groups_that_never_complete_are_not_flagged() {
    // The same two groups, each installed by its creator only: a decider
    // whose first decision is lost creates exactly this, and the paper
    // puts it outside the agreement guarantee.
    let evs = vec![
        installed(0, ViewId::new(2, ProcessId(0)), 0b0_0111, 100),
        installed(4, ViewId::new(2, ProcessId(4)), 0b1_1100, 110),
    ];
    assert_eq!(audit(&evs), []);
}

/// p0 delivers a then b, p1 b then a, both in view {0,1,2} and with the
/// same ordinal bindings — no binding conflicts, only the order differs.
/// `complete = false` leaves the view uninstalled at p2.
fn inversion_in_one_view(complete: bool) -> Vec<TraceEvent> {
    let v = view1();
    let installers = if complete { 0..3 } else { 0..2 };
    let mut evs: Vec<TraceEvent> = installers.map(|p| installed(p, v, 0b0_0111, 100)).collect();
    evs.extend([
        total(0, v, 1, 1), // a = p1:1
        total(0, v, 2, 2), // b = p2:1
        total(1, v, 2, 2),
        total(1, v, 1, 1),
    ]);
    evs
}

#[test]
fn total_order_disagreement_in_a_completed_view_is_flagged() {
    let found = audit(&inversion_in_one_view(true));
    let v = found
        .iter()
        .find(|v| v.check == "total-order")
        .expect("flagged");
    assert!(v.message.contains("total order disagreement"), "{v}");
}

#[test]
fn total_order_divergence_outside_completed_views_is_not_flagged() {
    // The paper scopes agreement to completed majority groups.
    let found = checks(&inversion_in_one_view(false));
    assert!(!found.contains(&"total-order"), "{found:?}");
}

/// `benchmark/README.md` finding 4, minimal: v1 and v2 both complete;
/// p0 delivers a then b in v1, p1 delivers b in v1 and a only in v2.
/// No single view holds the disagreement.
fn cross_view_inversion() -> Vec<TraceEvent> {
    let (v1, v2) = (view1(), ViewId::new(2, ProcessId(1)));
    let mut evs: Vec<TraceEvent> = (0..N as u16)
        .flat_map(|p| {
            [
                installed(p, v1, 0b1_1111, 100),
                installed(p, v2, 0b1_1111, 400),
            ]
        })
        .collect();
    evs.extend([
        total(0, v1, 1, 1), // a = p1:1
        total(0, v1, 2, 2), // b = p2:1
        total(1, v1, 2, 2),
        total(1, v2, 1, 3),
    ]);
    evs
}

#[test]
fn total_order_inversion_across_two_completed_views_is_flagged() {
    let found = audit(&cross_view_inversion());
    let v = found
        .iter()
        .find(|v| v.check == "total-order")
        .expect("flagged");
    // The witness names who delivered what before what, and where.
    assert!(
        v.message
            .contains("p0 delivered p1:1 before p2:1 (views v1@p0, v1@p0)")
            && v.message
                .contains("p1 delivered p2:1 before p1:1 (views v1@p0, v2@p1)"),
        "{v}"
    );
}

#[test]
fn total_order_inversion_outside_completed_views_is_not_flagged() {
    // The same stream, but p4 never installs v2: p1's second delivery
    // was made in a group that never completed.
    let v2 = ViewId::new(2, ProcessId(1));
    let evs: Vec<TraceEvent> = cross_view_inversion()
        .into_iter()
        .filter(|ev| !matches!(ev, TraceEvent::ViewInstalled { pid: ProcessId(4), view, .. } if *view == v2))
        .collect();
    let found = checks(&evs);
    assert!(!found.contains(&"total-order"), "{found:?}");
}

#[test]
fn three_member_order_cycle_with_consistent_pairs_is_flagged() {
    // p0: a,b   p1: b,c   p2: c,a — any two members agree on the one
    // update they share, so no pairwise comparison can see it; the union
    // of the three precedences is a cycle.
    let mut evs: Vec<TraceEvent> = (0..N as u16)
        .map(|p| installed(p, view1(), 0b1_1111, 100))
        .collect();
    let (a, b, c) = (1, 2, 3);
    evs.extend([
        total(0, view1(), a, 1),
        total(0, view1(), b, 2),
        total(1, view1(), b, 2),
        total(1, view1(), c, 3),
        total(2, view1(), c, 3),
        total(2, view1(), a, 4),
    ]);
    let found = audit(&evs);
    let v = found
        .iter()
        .find(|v| v.check == "total-order")
        .expect("flagged");
    assert_eq!(v.message.matches(" delivered ").count(), 3, "{v}");
}

#[test]
fn shared_auditor_flags_through_the_sink_interface() {
    // The runtime feeds the auditor through `TraceSink::record`; the
    // broken fixture must be caught on that path too.
    let shared = SharedAuditor::new(N);
    let sink: &dyn TraceSink = &shared;
    for ev in clean_stream() {
        sink.record(&ev);
    }
    assert_eq!(shared.finish(), []);
    sink.record(&delivered(3, 0, 2, Semantics::TOTAL_STRONG, 202));
    assert!(shared.finish().iter().any(|v| v.message.contains("twice")));
    let result = std::panic::catch_unwind(|| shared.assert_clean());
    assert!(result.is_err(), "assert_clean must panic on violations");
}
