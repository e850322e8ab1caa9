//! The paper's correctness properties over the traces a
//! [`crate::harness::SimMember`] keeps.
//!
//! No property is defined here. [`tw_obs::audit`] owns every delivery and
//! view property (view agreement, majority, one completed group per seq,
//! total order, FIFO, time order, no duplicates, oal-prefix, view
//! overlap); this module feeds each member's trace — the `TraceEvent`s
//! its `Member` emitted, with the host's injected restarts — to that
//! [`Auditor`] through [`Auditor::observe`], the one adapter a live
//! cluster's trace stream and `tw-trace` use too. So the seeded
//! [`World`] and the exhaustive explorer (`cargo xtask explore`, at
//! every terminal state) get the verdicts a live cluster gets.

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

/// Check every invariant over a slice of members (the member at index
/// `i` must be process `i`; the slice length is the team size).
pub fn check_all_members(members: &[&SimMember]) -> Vec<Violation> {
    let mut auditor = Auditor::new(members.len());
    for ev in members.iter().flat_map(|m| m.trace()) {
        auditor.observe(ev);
    }
    auditor.finish().to_vec()
}

/// Assert-style wrapper for tests: panics with the violations.
pub fn assert_all(world: &World<SimMember>) {
    let v = check_all(world);
    assert!(v.is_empty(), "protocol invariants violated: {v:#?}");
}

/// Collect the per-process members of a finished simulation.
pub fn members_of(world: &World<SimMember>) -> Vec<&SimMember> {
    (0..world.len())
        .map(|i| world.actor(ProcessId(i as u16)))
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
