//! Property tests for the fail-aware clock: adoption error bounds,
//! fail-awareness truthfulness, and reply correctness under random
//! timing.

use proptest::prelude::*;
use tw_clock::{ClockAction, ClockEvent, ClockSyncConfig, FailAwareClock};
use tw_proto::{ClockSyncMsg, Duration, HwTime, ProcessId, SyncTime};

fn cfg(n: usize, delta_us: i64) -> ClockSyncConfig {
    ClockSyncConfig::for_team(n, Duration::from_micros(delta_us))
}

/// Drive one probe round from `requester` answered by `responder`, in
/// *real* time: each clock's hardware reading is `real + its offset`.
/// The probe leaves at real time `t_real`, takes `fwd` to arrive, `bwd`
/// to come back.
#[allow(clippy::too_many_arguments)]
fn round(
    requester: &mut FailAwareClock,
    req_offset: i64,
    responder: &mut FailAwareClock,
    resp_offset: i64,
    t_real: i64,
    fwd: i64,
    bwd: i64,
) {
    let acts = requester.handle(HwTime(t_real + req_offset), ClockEvent::Tick);
    let req = acts
        .iter()
        .find_map(|a| match a {
            ClockAction::Broadcast(m) => Some(*m),
            _ => None,
        })
        .expect("probe");
    let reply_acts = responder.handle(
        HwTime(t_real + fwd + resp_offset),
        ClockEvent::Msg {
            from: req.sender(),
            msg: req,
        },
    );
    let reply = reply_acts
        .iter()
        .find_map(|a| match a {
            ClockAction::Send(_, m) => Some(*m),
            _ => None,
        })
        .expect("reply");
    requester.handle(
        HwTime(t_real + fwd + bwd + req_offset),
        ClockEvent::Msg {
            from: reply.sender(),
            msg: reply,
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// After a timely adoption from the source, the requester's
    /// synchronized clock deviates from the source's by at most the
    /// round-trip (generously; the analytic bound is rtt/2 + ρ·rtt).
    #[test]
    fn adoption_error_bounded_by_round_trip(
        offset in -1_000_000i64..1_000_000,
        fwd in 1i64..9_000,
        bwd in 1i64..9_000,
    ) {
        let c = cfg(2, 10_000); // δ = 10 ms; rtt < 2δ always here
        let mut p0 = FailAwareClock::new(ProcessId(0), c);
        let mut p1 = FailAwareClock::new(ProcessId(1), c);
        // p0's hw clock reads real time; p1's reads real + offset.
        p0.on_start(HwTime(0));
        p1.on_start(HwTime(offset));
        // Give p0 majority contact first (p1 answers p0's probe).
        round(&mut p0, 0, &mut p1, offset, 1_000, fwd, bwd);
        // p1 adopts from p0.
        let t_real = 50_000;
        round(&mut p1, offset, &mut p0, 0, t_real, fwd, bwd);
        let real_now = t_real + fwd + bwd + 10;
        let t1 = HwTime(real_now + offset);
        prop_assert!(p1.is_synced(t1), "timely adoption must sync");
        let s1 = p1.read(t1).unwrap();
        // Source time at the same real instant.
        let s0 = p0.read_unchecked(HwTime(real_now));
        let dev = (s1.0 - s0.0).abs();
        prop_assert!(
            dev <= fwd + bwd + 2,
            "deviation {dev} exceeds rtt {} (fwd {fwd} bwd {bwd})",
            fwd + bwd
        );
        // And the advertised error bound is honest.
        prop_assert!(dev <= p1.err_bound().as_micros() + 2);
    }

    /// Late round trips (> 2δ) never produce synchronization.
    #[test]
    fn late_round_trips_rejected(
        extra in 1i64..50_000,
        split in 0.0f64..1.0,
    ) {
        let c = cfg(2, 5_000); // δ = 5 ms → rtt budget 10 ms
        let rtt = 10_000 + extra;
        let fwd = ((rtt as f64) * split) as i64;
        let bwd = rtt - fwd;
        let mut p0 = FailAwareClock::new(ProcessId(0), c);
        let mut p1 = FailAwareClock::new(ProcessId(1), c);
        p0.on_start(HwTime(0));
        p1.on_start(HwTime(0));
        round(&mut p0, 0, &mut p1, 0, 500, 100, 100); // p0 majority contact
        round(&mut p1, 0, &mut p0, 0, 2_000, fwd.max(1), bwd.max(1));
        prop_assert!(!p1.is_synced(HwTime(2_000 + rtt + 1)),
            "late round trip (rtt {rtt}) must not synchronize");
    }

    /// Every request gets exactly one reply, addressed to the requester,
    /// echoing the request's hardware send time.
    #[test]
    fn requests_always_answered_correctly(
        rid in any::<u64>(),
        hw_send in -1_000_000i64..1_000_000,
        now in 0i64..1_000_000,
        rank in 0u16..5,
    ) {
        let c = cfg(5, 10_000);
        let mut p = FailAwareClock::new(ProcessId(3), c);
        p.on_start(HwTime(0));
        let from = ProcessId(rank);
        prop_assume!(from != ProcessId(3));
        let acts = p.handle(
            HwTime(now),
            ClockEvent::Msg {
                from,
                msg: ClockSyncMsg::Request {
                    sender: from,
                    rid,
                    hw_send: HwTime(hw_send),
                },
            },
        );
        prop_assert_eq!(acts.len(), 1);
        match &acts[0] {
            ClockAction::Send(to, ClockSyncMsg::Reply { rid: r, hw_send_echo, sync_at_reply, .. }) => {
                prop_assert_eq!(*to, from);
                prop_assert_eq!(*r, rid);
                prop_assert_eq!(*hw_send_echo, HwTime(hw_send));
                // Reply carries the responder's unchecked time base.
                prop_assert_eq!(*sync_at_reply, SyncTime(now));
            }
            other => prop_assert!(false, "unexpected action {other:?}"),
        }
    }

    /// Fail-awareness is truthful under silence: with no messages at all,
    /// a non-source process never claims synchronization, at any time.
    #[test]
    fn silence_never_synchronizes(rank in 1u16..8, probes in 0usize..20) {
        let c = cfg(8, 10_000);
        let mut p = FailAwareClock::new(ProcessId(rank), c);
        p.on_start(HwTime(0));
        let mut t = HwTime(0);
        for _ in 0..probes {
            t = t + c.resync_interval;
            p.handle(t, ClockEvent::Tick);
            prop_assert!(!p.is_synced(t), "synced without any peer contact");
        }
    }
}
