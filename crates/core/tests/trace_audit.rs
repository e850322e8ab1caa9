//! End-to-end trace audit: run the real protocol in the simulator with a
//! tracer attached to every member and tail the stream with the live
//! auditor. Unlike the unit fixtures in tw-obs (which feed the auditor
//! hand-written event sequences), these tests audit the traces the
//! protocol actually produces — formation, failure-free rotation, and a
//! crash-driven reconfiguration.

use std::sync::Arc;

use timewheel::harness::{all_in_group, inject_proposals, run_until_pred, team_world, TeamParams};
use tw_obs::{SharedAuditor, TraceEvent, TraceSink, VecSink};
use tw_proto::{Duration, ProcessId, Semantics};
use tw_sim::{SimTime, World};

/// Forwards every event both to the live auditor and to a buffer, so the
/// test can assert on what the protocol actually emitted.
struct Tee {
    auditor: SharedAuditor,
    events: VecSink,
}

impl TraceSink for Tee {
    fn record(&self, ev: &TraceEvent) {
        self.auditor.record(ev);
        self.events.record(ev);
    }
}

fn attach_tracers(w: &mut World<timewheel::harness::SimMember>, n: usize, sink: &Arc<Tee>) {
    for i in 0..n {
        w.actor_mut(ProcessId(i as u16)).attach_sink(sink.clone());
    }
}

fn count_events(events: &[TraceEvent], pred: impl Fn(&TraceEvent) -> bool) -> usize {
    events.iter().filter(|ev| pred(ev)).count()
}

/// Failure-free formation plus a proposal burst: the trace stream must
/// contain the rotation (decisions sent and received), view installs and
/// deliveries — and no suspicion or election traffic — and the auditor
/// must find nothing wrong with it.
#[test]
fn failure_free_run_audits_clean() {
    const N: usize = 5;
    let params = TeamParams::new(N);
    let cfg = params.protocol_config();
    let sink = Arc::new(Tee {
        auditor: SharedAuditor::new(N),
        events: VecSink::new(),
    });

    let mut w = team_world(&params);
    attach_tracers(&mut w, N, &sink);

    run_until_pred(&mut w, SimTime::from_millis(5_000), |w| all_in_group(w, N))
        .expect("group forms");

    const PROPOSALS: usize = 8;
    inject_proposals(
        &mut w,
        N,
        PROPOSALS,
        Semantics::TOTAL_STRONG,
        cfg.cycle(),
        cfg.cycle(),
    );
    w.run_for(cfg.cycle() * (PROPOSALS as i64 + 6));

    let events = sink.events.snapshot();
    // The attached sink saw what the members' own traces hold.
    let traced: usize = (0..N)
        .map(|i| w.actor(ProcessId(i as u16)).trace().len())
        .sum();
    assert_eq!(events.len(), traced);
    assert!(
        count_events(&events, |e| matches!(e, TraceEvent::DecisionSent { .. })) > 0,
        "rotation emitted no decisions"
    );
    assert!(
        count_events(&events, |e| matches!(
            e,
            TraceEvent::DecisionReceived { .. }
        )) > 0,
        "no member traced accepting a decision"
    );
    assert!(
        count_events(&events, |e| matches!(e, TraceEvent::ViewInstalled { .. })) >= N,
        "formation installed fewer views than members"
    );
    // Every proposal is delivered at every member.
    let delivered = count_events(&events, |e| matches!(e, TraceEvent::Delivered { .. }));
    assert!(
        delivered >= N * PROPOSALS,
        "expected at least {} deliveries, traced {delivered}",
        N * PROPOSALS
    );
    assert_eq!(
        count_events(&events, |e| {
            matches!(
                e,
                TraceEvent::SuspicionRaised { .. }
                    | TraceEvent::NoDecisionHop { .. }
                    | TraceEvent::ReconfigSlotFired { .. }
            )
        }),
        0,
        "failure-free run traced membership machinery"
    );

    sink.auditor.assert_clean();
}

/// Crash one member after formation: the trace must show the suspicion
/// and the reconfiguration down to a 4-member view, and the stream must
/// still satisfy every auditor invariant.
#[test]
fn crash_reconfiguration_audits_clean() {
    const N: usize = 5;
    let params = TeamParams::new(N).seed(7);
    let sink = Arc::new(Tee {
        auditor: SharedAuditor::new(N),
        events: VecSink::new(),
    });

    let mut w = team_world(&params);
    attach_tracers(&mut w, N, &sink);

    run_until_pred(&mut w, SimTime::from_millis(5_000), |w| all_in_group(w, N))
        .expect("group forms");

    let crash_at = w.now() + Duration::from_millis(5);
    w.crash_at(crash_at, ProcessId(2));
    run_until_pred(&mut w, SimTime::from_millis(10_000), |w| {
        all_in_group(w, N - 1)
    })
    .expect("survivors reconfigure to a 4-member view");

    let events = sink.events.snapshot();
    assert!(
        count_events(&events, |e| matches!(
            e,
            TraceEvent::SuspicionRaised {
                suspect: ProcessId(2),
                ..
            }
        )) > 0,
        "no survivor traced suspecting the crashed member"
    );
    assert!(
        count_events(&events, |e| matches!(
            e,
            TraceEvent::ViewInstalled { members, .. } if members.count() == N - 1
        )) >= N - 1,
        "survivors did not all trace installing the 4-member view"
    );

    sink.auditor.assert_clean();
}
