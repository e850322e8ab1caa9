//! The paper's correctness properties over the logs a
//! [`crate::harness::SimMember`] records.
//!
//! No property is defined here. [`tw_obs::audit`] owns every delivery and
//! view property (view agreement, majority, one completed group per seq,
//! total order, FIFO, time order, no duplicates, oal-prefix, view
//! overlap); this module replays a member's `views`, `deliveries` +
//! `delivery_views` and `Startup` departures into that
//! [`Auditor`] as its three facts — *installed*, *delivered*,
//! *restarted* — so the seeded [`World`], the exhaustive explorer
//! (`cargo xtask explore`, at every terminal state) and a test
//! fabricating corrupted logs get the verdicts a live cluster's trace
//! stream and `tw-trace` get. The one check made here is about the log
//! itself: **log alignment** — every logged delivery carries the view it
//! was delivered in (the auditor is blind to a delivery without one).

use crate::events::LeaveReason;
use crate::harness::SimMember;
use tw_obs::Auditor;
use tw_proto::ProcessId;
use tw_sim::World;

pub use tw_obs::Violation;

/// Check every invariant over a finished simulation; returns all
/// violations found (empty = clean).
pub fn check_all(world: &World<SimMember>) -> Vec<Violation> {
    check_all_members(&members_of(world))
}

/// Check every invariant over a slice of member logs (the member at
/// index `i` must be process `i`; the slice length is the team size).
pub fn check_all_members(members: &[&SimMember]) -> Vec<Violation> {
    let mut out = check_log_alignment(members);
    let mut auditor = Auditor::new(members.len());
    for (i, m) in members.iter().enumerate() {
        let pid = ProcessId(i as u16);
        for (_, v) in &m.views {
            auditor.installed(pid, v.id, v.members.iter().copied().collect());
        }
        // Every start logs a `Startup` departure; each one after the
        // first is a crash-recovery, and the deliveries logged from then
        // on belong to the fresh incarnation.
        let mut restarts = m
            .leaves
            .iter()
            .filter(|(_, r)| matches!(r, LeaveReason::Startup))
            .map(|(t, _)| *t)
            .skip(1)
            .peekable();
        for ((t, d), view) in m.deliveries.iter().zip(&m.delivery_views) {
            while restarts.next_if(|r| r <= t).is_some() {
                auditor.restarted(pid);
            }
            auditor.delivered(pid, *view, d.id, d.ordinal, d.semantics, d.send_ts);
        }
    }
    out.extend_from_slice(auditor.finish());
    out
}

/// Assert-style wrapper for tests: panics with the violations.
pub fn assert_all(world: &World<SimMember>) {
    let v = check_all(world);
    assert!(v.is_empty(), "protocol invariants violated: {v:#?}");
}

/// Collect the per-process member logs of a finished simulation.
pub fn members_of(world: &World<SimMember>) -> Vec<&SimMember> {
    (0..world.len())
        .map(|i| world.actor(ProcessId(i as u16)))
        .collect()
}

/// `deliveries` and `delivery_views` are one log in two columns; a host
/// that grows one without the other would have its tail deliveries
/// replayed into no view at all.
fn check_log_alignment(members: &[&SimMember]) -> Vec<Violation> {
    members
        .iter()
        .enumerate()
        .filter(|(_, a)| a.deliveries.len() != a.delivery_views.len())
        .map(|(i, a)| {
            Violation::new(
                "log-alignment",
                format!(
                    "p{i} logged {} deliveries but {} delivery views",
                    a.deliveries.len(),
                    a.delivery_views.len()
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{all_in_group, run_until_pred, team_world, TeamParams};
    use tw_sim::SimTime;

    #[test]
    fn clean_failure_free_run_passes_all_checks() {
        let mut w = team_world(&TeamParams::new(3));
        run_until_pred(&mut w, SimTime::from_secs(10), |w| all_in_group(w, 3)).unwrap();
        w.run_for(tw_proto::Duration::from_secs(5));
        assert_all(&w);
    }

    #[test]
    fn world_and_member_slice_paths_agree() {
        let mut w = team_world(&TeamParams::new(3));
        run_until_pred(&mut w, SimTime::from_secs(10), |w| all_in_group(w, 3)).unwrap();
        assert_eq!(check_all(&w), check_all_members(&members_of(&w)));
    }

    #[test]
    fn violation_display() {
        let v = Violation::new("fifo", "boom");
        assert_eq!(v.to_string(), "[fifo] boom");
    }
}
