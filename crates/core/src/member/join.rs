//! Join state: initial group formation and re-integration (paper §4.2).
//!
//! A process in join state sends a join message once per own time slot,
//! carrying its *join-list* (everyone it heard a join from within the
//! last `N−1` slots, itself included). The first group forms when a
//! majority agree on identical join-lists; a process joining an existing
//! group is instead *integrated* by the decider that is its successor in
//! the group-to-be, once every member's alive-list contains it.

use super::{CreatorState, JoinRecord, Member};
use crate::events::Action;
use std::collections::BTreeSet;
use tw_proto::{Decision, Join, Msg, ProcessId, SyncTime};

impl Member {
    /// Per-tick behaviour in join state: once per own slot, send a join
    /// message, then check whether we can form the initial group.
    pub(crate) fn join_tick(&mut self, now: SyncTime, actions: &mut Vec<Action>) {
        if !self.cfg.in_slot_of(now, self.pid) {
            return;
        }
        let slot = self.cfg.slot_index(now);
        if slot == self.last_join_slot {
            return; // already acted in this slot
        }
        let has_sent_before = self.last_join_slot != i64::MIN;
        self.last_join_slot = slot;
        let list = self.my_join_set(now);
        // Creation is checked BEFORE sending this slot's join: the paper's
        // at-most-one-decider argument relies on the creator *not*
        // sending, so that processes which miss the first decision age
        // the creator out of their join-lists instead of reusing its
        // messages to elect a second decider.
        if has_sent_before && self.try_form_initial_group(now, &list, actions) {
            return;
        }
        let send_ts = self.stamp(now);
        let msg = Msg::Join(Join {
            sender: self.pid,
            incarnation: self.incarnation,
            send_ts,
            join_list: list
                .iter()
                .map(|p| {
                    let inc = if *p == self.pid {
                        self.incarnation
                    } else {
                        self.join_heard[p].incarnation
                    };
                    (*p, inc)
                })
                .collect(),
            alive: self.my_alive(now),
        });
        self.last_ctrl_sent = Some(msg.clone());
        actions.push(Action::Broadcast(msg));
    }

    /// My current join-list: self plus every process whose join message
    /// arrived within the last cycle. (The paper says "the last N−1
    /// slots"; since each process sends exactly once per cycle in its own
    /// slot, N−1 slots is the gap measured between slot *starts* — with
    /// in-slot sending offsets the robust window is one full cycle.)
    pub(crate) fn my_join_set(&self, now: SyncTime) -> BTreeSet<ProcessId> {
        let horizon = self.cfg.cycle();
        let mut set: BTreeSet<ProcessId> = self
            .join_heard
            .iter()
            .filter(|(_, r)| now - r.ts <= horizon)
            .map(|(p, _)| *p)
            .collect();
        set.insert(self.pid);
        set
    }

    /// Become the initial decider if the paper's two conditions hold:
    /// (1) my join-list contains a majority, and (2) each listed process
    /// sent, in its own last slot, a join message whose join-list equals
    /// mine.
    fn try_form_initial_group(
        &mut self,
        now: SyncTime,
        list: &BTreeSet<ProcessId>,
        actions: &mut Vec<Action>,
    ) -> bool {
        if list.len() < self.cfg.majority() {
            return false;
        }
        for p in list {
            if *p == self.pid {
                continue;
            }
            let Some(rec) = self.join_heard.get(p) else {
                return false;
            };
            if !self.cfg.in_last_slot_of(now, rec.ts, *p) {
                return false;
            }
            if &rec.set != list {
                return false;
            }
        }
        // All agreed: create the group with exactly the join-list.
        self.create_group(now, list.clone(), vec![], vec![], actions);
        true
    }

    /// Record a join message (any state: members track joiners for
    /// integration; joiners build join-lists from these).
    pub(crate) fn handle_join(&mut self, _now: SyncTime, j: Join, _actions: &mut Vec<Action>) {
        if !self.ctrl_fresh(j.sender, j.send_ts, j.alive) {
            return;
        }
        self.buf.note_incarnation(j.sender, j.incarnation);
        let mut set = j.join_set();
        set.insert(j.sender);
        self.join_heard.insert(
            j.sender,
            JoinRecord {
                incarnation: j.incarnation,
                ts: j.send_ts,
                set,
            },
        );
    }

    /// Decision received while in join state: adopt it if the new group
    /// includes me (either the initial group forming around me or my
    /// re-integration completing).
    pub(crate) fn decision_in_join(
        &mut self,
        now: SyncTime,
        d: Decision,
        actions: &mut Vec<Action>,
    ) {
        if !d.view.contains(self.pid) {
            return; // someone else's group; keep joining
        }
        self.view = d.view.clone();
        self.views_installed += 1;
        self.trace_view_installed(now);
        actions.push(Action::InstallView(self.view.clone()));
        // Fresh oal adoption: our copy is empty or stale. (Ordinals from
        // a previous membership were voided on leaving; assignments
        // learned from a state transfer for this join are kept.)
        self.replace_oal(d.oal);
        self.sync_with_oal(now);
        self.last_decision_ts = d.send_ts;
        self.state = CreatorState::FailureFree;
        self.join_heard.clear();
        self.last_join_slot = i64::MIN;
        self.arm_rotation(d.sender, d.send_ts);
        self.decider_due = None;
        if self.succ(d.sender) == self.pid {
            self.decider_due = Some(now + self.cfg.decider_interval);
        }
    }

    /// Decider-side integration check (paper §4.2): a joiner `p` is ready
    /// when (a) its join message is fresh, (b) it is not yet in the view,
    /// (c) I am its successor in the group-to-be, and (d) every current
    /// member's alive-list already contains it.
    pub(crate) fn integration_candidate(&self, now: SyncTime) -> Option<ProcessId> {
        let cycle = self.cfg.cycle();
        'joiner: for (p, rec) in &self.join_heard {
            if self.view.contains(*p) {
                continue;
            }
            if now - rec.ts > cycle {
                continue; // stale join
            }
            // I must be p's successor in view ∪ {p}.
            let prospective = self
                .view
                .with(*p, self.view.id /* id irrelevant for rotation */);
            if prospective.successor_in_group(*p) != Some(self.pid) {
                continue;
            }
            // Every member must have p in its alive-list.
            for m in &self.view.members {
                if *m == self.pid {
                    if !self.my_alive(now).contains(*p) {
                        continue 'joiner;
                    }
                } else {
                    match self.peer_alive.get(m) {
                        Some(list) if list.contains(*p) => {}
                        _ => continue 'joiner,
                    }
                }
            }
            return Some(*p);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use tw_proto::{AliveList, Duration, HwTime, Incarnation, Oal, View, ViewId};

    fn cfg() -> Config {
        Config::for_team(3, Duration::from_millis(10))
    }

    /// A member with a synchronized clock (rank 0 is the time source).
    fn p0() -> Member {
        let mut m = Member::new(ProcessId(0), cfg()).unwrap();
        m.on_start(HwTime(0));
        m.force_clock_sync();
        m
    }

    fn join_msg(sender: u16, ts: SyncTime, list: &[u16]) -> Join {
        Join {
            sender: ProcessId(sender),
            incarnation: Incarnation(0),
            send_ts: ts,
            join_list: list
                .iter()
                .map(|&r| (ProcessId(r), Incarnation(0)))
                .collect(),
            alive: AliveList::EMPTY,
        }
    }

    #[test]
    fn sends_one_join_per_own_slot() {
        let mut m = p0();
        let c = cfg();
        // p0 owns slot 0 (t in [0, slot_len)).
        let t_in_slot = HwTime(c.slot_len.0 / 2);
        let a1 = m.on_tick(t_in_slot);
        assert!(a1
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Join(_)))));
        // Second tick in the same slot: no second join.
        let a2 = m.on_tick(HwTime(c.slot_len.0 / 2 + 100));
        assert!(!a2
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Join(_)))));
        // Not my slot: nothing.
        let a3 = m.on_tick(HwTime(c.slot_len.0 + 100));
        assert!(!a3
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Join(_)))));
        // Next cycle, my slot again: a new join.
        let a4 = m.on_tick(HwTime(c.cycle().0 + 100));
        assert!(a4
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Join(_)))));
    }

    #[test]
    fn join_set_includes_self_and_fresh_senders() {
        let mut m = p0();
        m.on_start(HwTime(0));
        m.handle_join(SyncTime(10), join_msg(1, SyncTime(10), &[1]), &mut vec![]);
        let set = m.my_join_set(SyncTime(20));
        assert!(set.contains(&ProcessId(0)));
        assert!(set.contains(&ProcessId(1)));
        // After a full cycle, p1's join ages out.
        let set2 = m.my_join_set(SyncTime(10) + cfg().cycle() + Duration(1));
        assert!(!set2.contains(&ProcessId(1)));
    }

    #[test]
    fn initial_group_forms_on_matching_majority() {
        let mut m = p0();
        let c = cfg();
        // p0 sends its own join in its cycle-0 slot first (creation
        // requires a previously sent join).
        m.on_tick(HwTime(5));
        // p1 and p2 each sent joins in their own last slots with list
        // {0,1,2}.
        let t1 = SyncTime(c.slot_len.0 + 5); // p1's slot
        let t2 = SyncTime(c.slot_len.0 * 2 + 5); // p2's slot
        m.handle_join(t1, join_msg(1, t1, &[0, 1, 2]), &mut vec![]);
        m.handle_join(t2, join_msg(2, t2, &[0, 1, 2]), &mut vec![]);
        // p0's slot in the next cycle:
        let now_hw = HwTime(c.cycle().0 + 5);
        let actions = m.on_tick(now_hw);
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert_eq!(m.view().len(), 3);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Decision(_)))));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::InstallView(v) if v.len() == 3)));
    }

    #[test]
    fn no_group_on_mismatched_lists() {
        let mut m = p0();
        let c = cfg();
        let t1 = SyncTime(c.slot_len.0 + 5);
        // p1's list omits p2 → mismatch with p0's {0,1,2}.
        m.handle_join(t1, join_msg(1, t1, &[0, 1]), &mut vec![]);
        let t2 = SyncTime(c.slot_len.0 * 2 + 5);
        m.handle_join(t2, join_msg(2, t2, &[0, 1, 2]), &mut vec![]);
        m.on_tick(HwTime(c.cycle().0 + 5));
        assert_eq!(m.state(), CreatorState::Join);
    }

    #[test]
    fn no_group_below_majority() {
        let mut m = p0();
        let c = cfg();
        m.on_tick(HwTime(5)); // p0's own cycle-0 join
        let t1 = SyncTime(c.slot_len.0 + 5);
        m.handle_join(t1, join_msg(1, t1, &[0, 1]), &mut vec![]);
        // join set {0,1} = 2 of 3 → majority is 2… but p1's list {0,1}
        // must equal p0's {0,1} — it does! So this SHOULD form a group
        // of 2. Check the complement: only self → no group.
        let mut lone = Member::new(ProcessId(0), c).unwrap();
        lone.on_start(HwTime(0));
        lone.force_clock_sync();
        lone.on_tick(HwTime(5));
        assert_eq!(lone.state(), CreatorState::Join);
        // And the two-process majority does form:
        m.on_tick(HwTime(c.cycle().0 + 5));
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert_eq!(m.view().len(), 2);
    }

    #[test]
    fn decision_in_join_adopts_when_included() {
        let mut m = p0();
        let view = View::new(
            ViewId::new(1, ProcessId(1)),
            [ProcessId(0), ProcessId(1), ProcessId(2)],
        );
        let d = Decision {
            sender: ProcessId(1),
            send_ts: SyncTime(100),
            view,
            oal: Oal::new(),
            alive: AliveList::EMPTY,
        };
        let mut actions = Vec::new();
        m.handle_decision(SyncTime(101), d, &mut actions);
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert_eq!(m.view().len(), 3);
        // p2 is succ(p1); p0 is not the next decider.
        assert!(!m.is_decider());
    }

    #[test]
    fn decision_in_join_ignored_when_excluded() {
        let mut m = p0();
        let view = View::new(ViewId::new(1, ProcessId(1)), [ProcessId(1), ProcessId(2)]);
        let d = Decision {
            sender: ProcessId(1),
            send_ts: SyncTime(100),
            view,
            oal: Oal::new(),
            alive: AliveList::EMPTY,
        };
        m.handle_decision(SyncTime(101), d, &mut vec![]);
        assert_eq!(m.state(), CreatorState::Join);
        assert!(m.view().is_empty());
    }

    #[test]
    fn integration_needs_all_alive_lists() {
        let mut m = p0();
        m.view = View::new(ViewId::new(1, ProcessId(0)), [ProcessId(0), ProcessId(2)]);
        m.state = CreatorState::FailureFree;
        let now = SyncTime(1_000);
        // p1 wants in; succ of p1 in {0,1,2} is p2 — not me (p0): not my
        // call.
        m.handle_join(now, join_msg(1, now, &[1]), &mut vec![]);
        assert_eq!(m.integration_candidate(now), None);
        // Make me the successor: view {0,2}, joiner 1 → succ(1) = 2 ≠ 0.
        // Try joiner with rank that makes p0 the successor: joiner p3?
        // Team is 3 here, so test the positive case directly with a view
        // where I follow the joiner:
        m.view = View::new(ViewId::new(1, ProcessId(0)), [ProcessId(0), ProcessId(1)]);
        m.handle_join(now, join_msg(2, now, &[2]), &mut vec![]);
        // succ(2) in {0,1,2} wraps to 0 = me ✓. But peer alive-lists do
        // not mention p2 yet:
        assert_eq!(m.integration_candidate(now), None);
        // My own alive-list hears p2 (the join did that); p1's must too.
        let mut alive1 = AliveList::EMPTY;
        alive1.set(ProcessId(1));
        alive1.set(ProcessId(2));
        m.peer_alive.insert(ProcessId(1), alive1);
        assert_eq!(m.integration_candidate(now), Some(ProcessId(2)));
    }

    #[test]
    fn stale_joins_not_integrated() {
        let mut m = p0();
        m.view = View::new(ViewId::new(1, ProcessId(0)), [ProcessId(0), ProcessId(1)]);
        m.state = CreatorState::FailureFree;
        let old = SyncTime(0);
        m.handle_join(old, join_msg(2, old, &[2]), &mut vec![]);
        let mut alive1 = AliveList::EMPTY;
        alive1.set(ProcessId(2));
        m.peer_alive.insert(ProcessId(1), alive1);
        let much_later = old + cfg().cycle() + Duration(1);
        assert_eq!(m.integration_candidate(much_later), None);
    }
}
