//! Runtime-checkable protocol invariants.
//!
//! These checkers encode the paper's correctness properties over the logs
//! a [`crate::harness::SimMember`] records — the integration
//! and property tests run them after every scenario, and the bounded
//! schedule explorer (`cargo xtask explore`) runs them at every terminal
//! state it enumerates:
//!
//! * **view agreement** — views with the same id have identical member
//!   sets, and no two different *completed* majority groups (groups
//!   joined by all their members) share a sequence number;
//! * **majority** — every installed view contains a majority of the team;
//! * **unique creator** — at most one decider creates any view seq;
//! * **total-order agreement** — any two members deliver their common
//!   total-ordered updates in the same relative order;
//! * **FIFO** — each member delivers each proposer's updates in
//!   ascending sequence order;
//! * **time-order** — each member delivers time-ordered updates in
//!   non-decreasing send-timestamp order;
//! * **no duplicates** — no member delivers the same update twice;
//! * **log alignment** — every logged delivery carries the view it was
//!   delivered in (the per-view checks above are blind without it).
//!
//! Every checker operates on a plain slice of member logs
//! (`&[&SimMember]`), so any host that can produce logs — the seeded
//! [`World`], the exhaustive explorer, or a test fabricating corrupted
//! logs directly — gets the same verdicts. The `*`-suffixed `_world`
//! wrappers adapt a finished simulation.

use crate::events::Delivery;
use crate::harness::SimMember;
use std::collections::BTreeMap;
use tw_proto::{Ordering, ProcessId, View};
use tw_sim::World;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violated: {}", self.0)
    }
}

/// Check every invariant over a finished simulation; returns all
/// violations found (empty = clean).
pub fn check_all(world: &World<SimMember>) -> Vec<Violation> {
    check_all_members(&members_of(world))
}

/// Check every invariant over a slice of member logs (the member at
/// index `i` must be process `i`; the slice length is the team size).
pub fn check_all_members(members: &[&SimMember]) -> Vec<Violation> {
    let mut v = check_log_alignment(members);
    v.extend(check_view_agreement(members));
    v.extend(check_majority(members));
    v.extend(check_total_order_agreement(members));
    v.extend(check_fifo(members));
    v.extend(check_time_order(members));
    v.extend(check_no_duplicate_deliveries(members));
    v
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

fn views_of<'a>(members: &'a [&SimMember], p: ProcessId) -> impl Iterator<Item = &'a View> {
    members[p.rank()].views.iter().map(|(_, v)| v)
}

/// Majority-agreement on views (paper §3): the protocol provides a
/// sequence of *completed* majority groups — groups joined by **all**
/// their members — and all members agree on that sequence. During
/// unstable periods a decider may create a group whose first decision is
/// lost before the other members join it; such a never-completed group is
/// explicitly outside the agreement guarantee ("there may be some limited
/// divergences between the histories seen by the members of completed
/// majority groups and other team members").
///
/// Checked here: (a) views with the same id always have identical member
/// sets, and (b) no two *different completed* views share a sequence
/// number.
pub fn check_view_agreement(members: &[&SimMember]) -> Vec<Violation> {
    let mut out = Vec::new();
    // (a) id ⇒ member set.
    let mut by_id: BTreeMap<tw_proto::ViewId, &View> = BTreeMap::new();
    for i in 0..members.len() {
        let p = ProcessId(i as u16);
        for v in views_of(members, p) {
            match by_id.get(&v.id) {
                Some(prev) if *prev != v => out.push(Violation(format!(
                    "view id {} has two member sets: {} vs {} (seen at {})",
                    v.id, prev, v, p
                ))),
                _ => {
                    by_id.insert(v.id, v);
                }
            }
        }
    }
    // (b) at most one completed view per seq.
    let installed_by: Vec<std::collections::BTreeSet<tw_proto::ViewId>> = (0..members.len())
        .map(|i| views_of(members, ProcessId(i as u16)).map(|v| v.id).collect())
        .collect();
    let mut completed_by_seq: BTreeMap<u64, &View> = BTreeMap::new();
    for v in by_id.values() {
        let completed = v
            .members
            .iter()
            .all(|m| installed_by[m.rank()].contains(&v.id));
        if !completed {
            continue;
        }
        match completed_by_seq.get(&v.id.seq) {
            Some(prev) if **prev != **v => out.push(Violation(format!(
                "two completed majority groups at seq {}: {} vs {}",
                v.id.seq, prev, v
            ))),
            _ => {
                completed_by_seq.insert(v.id.seq, v);
            }
        }
    }
    out
}

/// Every installed view contains a majority of the team.
pub fn check_majority(members: &[&SimMember]) -> Vec<Violation> {
    let n = members.len();
    let mut out = Vec::new();
    for i in 0..n {
        let p = ProcessId(i as u16);
        for v in views_of(members, p) {
            if !v.is_majority_of(n) {
                out.push(Violation(format!(
                    "{} installed non-majority view {} (team {})",
                    p, v, n
                )));
            }
        }
    }
    out
}

/// The set of *completed* view ids: views installed by every one of
/// their members (the scope of the paper's majority-agreement
/// guarantees).
pub fn completed_view_ids(members: &[&SimMember]) -> std::collections::BTreeSet<tw_proto::ViewId> {
    let installed_by: Vec<std::collections::BTreeSet<tw_proto::ViewId>> = (0..members.len())
        .map(|i| views_of(members, ProcessId(i as u16)).map(|v| v.id).collect())
        .collect();
    let mut out = std::collections::BTreeSet::new();
    for i in 0..members.len() {
        for v in views_of(members, ProcessId(i as u16)) {
            if v.members
                .iter()
                .all(|m| installed_by[m.rank()].contains(&v.id))
            {
                out.insert(v.id);
            }
        }
    }
    out
}

/// Total-order agreement, scoped to the paper's §3 guarantee: the
/// members of each **completed** majority group agree on the order of
/// the total-ordered updates they delivered *while in that group*. A
/// member that delivered inside a group the others never completed — or
/// that was excluded while a new lineage re-ordered in-flight updates —
/// is explicitly outside the guarantee ("limited divergences between the
/// histories seen by the members of completed majority groups and other
/// team members"); the application layer reconciles such members through
/// the join-time state transfer.
pub fn check_total_order_agreement(members: &[&SimMember]) -> Vec<Violation> {
    let completed = completed_view_ids(members);
    // Per member: view-id → ordered list of total deliveries in it.
    let per_member: Vec<BTreeMap<tw_proto::ViewId, Vec<&Delivery>>> = members
        .iter()
        .map(|a| {
            let mut m: BTreeMap<tw_proto::ViewId, Vec<&Delivery>> = BTreeMap::new();
            for ((_, d), vid) in a.deliveries.iter().zip(&a.delivery_views) {
                if d.semantics.ordering == Ordering::Total && completed.contains(vid) {
                    m.entry(*vid).or_default().push(d);
                }
            }
            m
        })
        .collect();
    let mut out = Vec::new();
    for vid in &completed {
        for a in 0..members.len() {
            let Some(da) = per_member[a].get(vid) else {
                continue;
            };
            for (b, pm) in per_member.iter().enumerate().skip(a + 1) {
                let Some(db) = pm.get(vid) else { continue };
                let pos_b: BTreeMap<_, _> =
                    db.iter().enumerate().map(|(i, d)| (d.id, i)).collect();
                let common: Vec<_> = da
                    .iter()
                    .filter_map(|d| pos_b.get(&d.id).map(|&i| (d.id, i)))
                    .collect();
                for w in common.windows(2) {
                    if w[0].1 >= w[1].1 {
                        out.push(Violation(format!(
                            "total order disagreement in {} between p{a} and p{b}: {} vs {}",
                            vid, w[0].0, w[1].0
                        )));
                    }
                }
            }
        }
    }
    out
}

/// `deliveries` and `delivery_views` are one log in two columns; a host
/// that grows one without the other makes
/// [`check_total_order_agreement`] scope deliveries to the wrong views.
pub fn check_log_alignment(members: &[&SimMember]) -> Vec<Violation> {
    members
        .iter()
        .enumerate()
        .filter(|(_, a)| a.deliveries.len() != a.delivery_views.len())
        .map(|(i, a)| {
            Violation(format!(
                "p{i} logged {} deliveries but {} delivery views",
                a.deliveries.len(),
                a.delivery_views.len()
            ))
        })
        .collect()
}

/// Split a member's delivery log into continuous lives (a crash-recovery
/// wipes volatile state; the fresh incarnation's log is a new life whose
/// consistency is re-established by the join-time state transfer).
fn lives_of<'a>(members: &'a [&SimMember], p: ProcessId) -> Vec<Vec<&'a Delivery>> {
    let a = members[p.rank()];
    let mut restarts: Vec<tw_proto::HwTime> = a
        .leaves
        .iter()
        .filter(|(_, r)| matches!(r, crate::events::LeaveReason::Startup))
        .map(|(t, _)| *t)
        .collect();
    restarts.sort();
    let mut lives = vec![Vec::new()];
    let mut next_restart = restarts.iter().skip(1).peekable(); // skip initial start
    for (t, d) in &a.deliveries {
        while next_restart.peek().is_some_and(|r| **r <= *t) {
            next_restart.next();
            lives.push(Vec::new());
        }
        lives.last_mut().expect("non-empty").push(d);
    }
    lives
}

/// Each member delivers each proposer's updates in ascending seq order,
/// within each of its continuous lives.
pub fn check_fifo(members: &[&SimMember]) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..members.len() {
        let p = ProcessId(i as u16);
        for life in lives_of(members, p) {
            let mut last: BTreeMap<ProcessId, u64> = BTreeMap::new();
            for d in life {
                if let Some(&prev) = last.get(&d.id.proposer) {
                    if d.id.seq <= prev {
                        out.push(Violation(format!(
                            "{} delivered {} after seq {} of the same proposer",
                            p, d.id, prev
                        )));
                    }
                }
                last.insert(d.id.proposer, d.id.seq);
            }
        }
    }
    out
}

/// Time-ordered deliveries occur in non-decreasing send-timestamp order
/// within each continuous life.
pub fn check_time_order(members: &[&SimMember]) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..members.len() {
        let p = ProcessId(i as u16);
        for life in lives_of(members, p) {
            let mut last = None;
            for d in life {
                if d.semantics.ordering != Ordering::Time {
                    continue;
                }
                if let Some(prev) = last {
                    if d.send_ts < prev {
                        out.push(Violation(format!(
                            "{} delivered time-ordered {} with ts {} after ts {}",
                            p, d.id, d.send_ts, prev
                        )));
                    }
                }
                last = Some(d.send_ts);
            }
        }
    }
    out
}

/// No member delivers any update twice within one continuous life
/// (after a crash, the fresh incarnation's state is rebuilt from the
/// transferred snapshot, so a re-delivery across lives is not a
/// duplicate application).
pub fn check_no_duplicate_deliveries(members: &[&SimMember]) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..members.len() {
        let p = ProcessId(i as u16);
        for life in lives_of(members, p) {
            let mut seen = std::collections::BTreeSet::new();
            for d in life {
                if !seen.insert(d.id) {
                    out.push(Violation(format!("{} delivered {} twice", p, d.id)));
                }
            }
        }
    }
    out
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
        let v = Violation("boom".into());
        assert!(v.to_string().contains("boom"));
    }
}
