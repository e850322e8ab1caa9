//! Total order across a crash and rejoin: the deterministic repro of
//! `benchmark/README.md` finding 4, through `SimMember::propose`.
//!
//! Known failing protocol, passing test (ROADMAP item 1): today's
//! `Member` lets the survivors of a crash disagree on the order of
//! total-ordered updates *across two completed views* — one delivers
//! an update in the old view, another only in the new one. Nothing is
//! re-ordered: every member binds the same ordinals. The cause is
//! delivery below the oal window's base. p0 and p1 still hold updates
//! the others delivered in v9@p4 when v13@p1's merged acks let
//! `prune_stable` prune them as stable (received by all); the delivery
//! cursors treat everything below the new base as delivered, so p0 and
//! p1 deliver them proposer by proposer, out of ordinal order. This test
//! pins that the history checker sees it (a checker that compares
//! members view by view reports this seed clean). When item 1 fixes
//! `Member`, flip the assertion to "clean": the same contract
//! `tests/soak.rs` has. Wall-clock-free.

use bytes::Bytes;
use std::collections::BTreeSet;
use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use timewheel::invariants::{check_all, Violation};
use tw_proto::{Duration, ProcessId, Semantics};
use tw_sim::SimTime;

const N: usize = 5;

/// Five members, a total/strong update every 2 ms from rotating
/// proposers for a second, one crash ~300 ms in, restart 500 ms later.
fn crash_and_rejoin_under_load(seed: u64) -> Vec<Violation> {
    let mut w = team_world(&TeamParams::new(N).seed(seed));
    run_until_pred(&mut w, SimTime::from_secs(10), |w| all_in_group(w, N)).expect("formation");
    let base = w.now();
    for k in 0..500usize {
        let t = base + Duration::from_millis(1 + 2 * k as i64);
        let payload = Bytes::from(format!("u{k}"));
        w.call_at(t, ProcessId((k % N) as u16), move |a, ctx| {
            let _ = a.propose(ctx, payload, Semantics::TOTAL_STRONG);
        });
    }
    let victim = ProcessId((seed % N as u64) as u16);
    let crash = base + Duration::from_millis(301 + (seed % 26) as i64);
    w.crash_at(crash, victim);
    w.recover_at(crash + Duration::from_millis(500), victim);
    w.run_until(base + Duration::from_secs(3));
    check_all(&w)
}

#[test]
fn survivors_disagree_on_total_order_across_two_completed_views() {
    let found = crash_and_rejoin_under_load(42);
    // p0 delivers p0:31 before p1:28, both in v13@p1; p3 delivered p1:28
    // back in v9@p4 and p0:31 only in v13@p1. No single view holds the
    // disagreement, so only the cross-view cycle search sees it.
    let order = found
        .iter()
        .find(|v| v.check == "total-order")
        .expect("total-order");
    assert!(order.message.contains("(views v9@p4, v13@p1)"), "{order}");
    // The same out-of-order delivery has two more faces, and nothing
    // else fires: inside v13@p1 the survivors deliver ordinals out of
    // order (ordinal-prefix), and whoever applied an update in v9@p4
    // skips its ordinal in v13@p1 (oal-prefix).
    let checks: BTreeSet<&str> = found.iter().map(|v| v.check).collect();
    assert_eq!(
        checks,
        BTreeSet::from(["oal-prefix", "ordinal-prefix", "total-order"]),
        "{found:#?}"
    );
}
