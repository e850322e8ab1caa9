//! The multiple-failure (reconfiguration) election — the n-failure state
//! of paper §4.2.
//!
//! The synchronized time base is divided into cycles of `N` slots, one
//! per team member. Each member in n-failure state sends one
//! reconfiguration message per own slot, carrying its
//! reconfiguration-list, the timestamp of the freshest decision it knows,
//! and its oal view. A member creates the new group in its slot when a
//! majority `S` (itself included) sent fresh reconfiguration messages
//! with lists identical to its own, decision timestamps no greater than
//! its own, and all of `S` belonged to the last group it knows — the
//! highest-timestamp member wins, and slot order breaks ties.
//!
//! After a *mixed* election (a no-decision message followed by entering
//! n-failure), a member cools down for `N−1` slots, sending empty
//! reconfiguration-lists so that its earlier messages cannot help elect a
//! second decider (paper §4.2's at-most-one-decider argument).

use super::{CreatorState, Member, ReconfigRecord};
use crate::events::{Action, LeaveReason};
use std::collections::BTreeSet;
use tw_proto::{Decision, Msg, ProcessId, Reconfig, SyncTime};

impl Member {
    /// Enter n-failure state (from any election state or failure-free).
    pub(crate) fn enter_nfailure(&mut self, now: SyncTime, _actions: &mut Vec<Action>) {
        // Mixed-election guard: if we sent a no-decision message within
        // the last cycle, both elections could succeed — cool down for
        // N−1 slots (paper §4.2).
        if let Some(t) = self.sent_nd_at {
            if now - t <= self.cfg.cycle() {
                self.cooldown_until = now + self.cfg.slot_len * (self.cfg.n as i64 - 1);
            }
        }
        self.state = CreatorState::NFailure;
        self.suspect = None;
        self.decider_due = None;
        self.watchdog.disarm();
        self.nfail_wait = None;
        self.last_reconfig_slot = i64::MIN;
    }

    /// Per-tick behaviour in n-failure: once per own slot, send a
    /// reconfiguration message and (cooldown permitting) try to create
    /// the new group.
    pub(crate) fn nfailure_tick(&mut self, now: SyncTime, actions: &mut Vec<Action>) {
        if !self.cfg.in_slot_of(now, self.pid) {
            return;
        }
        let slot = self.cfg.slot_index(now);
        if slot == self.last_reconfig_slot {
            return;
        }
        let has_sent_before = self.last_reconfig_slot != i64::MIN;
        self.last_reconfig_slot = slot;
        let cooldown = now <= self.cooldown_until;
        // Creation BEFORE sending (paper §4.2): "the first process p
        // which can use these reconfiguration messages does not send a
        // reconfiguration message", so a process that misses p's first
        // decision ages p out of its reconfiguration-list within a cycle
        // instead of using p's stale messages to elect a second decider.
        if !cooldown && has_sent_before && self.try_reconfig_create(now, actions) {
            return;
        }
        self.send_reconfig(now, cooldown, actions);
    }

    /// My reconfiguration-list: myself plus everyone whose reconfiguration
    /// message arrived within the last cycle (see `my_join_set` for why
    /// the paper's "N−1 slots" is measured as a full cycle here).
    pub(crate) fn my_reconfig_set(&self, now: SyncTime) -> BTreeSet<ProcessId> {
        let horizon = self.cfg.cycle();
        let mut set: BTreeSet<ProcessId> = self
            .reconfig_heard
            .iter()
            .filter(|(_, r)| now - r.ts <= horizon)
            .map(|(p, _)| *p)
            .collect();
        set.insert(self.pid);
        set
    }

    /// Broadcast a reconfiguration message (empty list during cooldown).
    pub(crate) fn send_reconfig(&mut self, now: SyncTime, empty: bool, actions: &mut Vec<Action>) {
        let list = if empty {
            vec![]
        } else {
            self.my_reconfig_set(now).into_iter().collect()
        };
        let send_ts = self.stamp(now);
        let (slot, listed) = (self.cfg.slot_index(now), list.len() as u32);
        self.trace(now, |at| tw_obs::TraceEvent::ReconfigSlotFired {
            pid: self.pid,
            at,
            slot,
            listed,
            empty,
        });
        let r = Reconfig {
            sender: self.pid,
            send_ts,
            reconfig_list: list,
            last_decision_ts: self.last_decision_ts,
            last_view: self.view.id,
            oal_view: self.oal.clone(),
            dpd: self.dpd_field(),
            alive: self.my_alive(now),
        };
        let msg = Msg::Reconfig(r);
        self.last_ctrl_sent = Some(msg.clone());
        actions.push(Action::Broadcast(msg));
    }

    /// The creation condition (paper §4.2, four clauses).
    fn try_reconfig_create(&mut self, now: SyncTime, actions: &mut Vec<Action>) -> bool {
        if self.view.is_empty() {
            return false; // never had a group: join state handles formation
        }
        let my_list = self.my_reconfig_set(now);
        let mut members: BTreeSet<ProcessId> = BTreeSet::new();
        members.insert(self.pid);
        let mut merge = Vec::new();
        let mut dpds = Vec::new();
        for (p, rec) in &self.reconfig_heard {
            if *p == self.pid {
                continue;
            }
            // (1) received in p's last slot
            if !self.cfg.in_last_slot_of(now, rec.ts, *p) {
                continue;
            }
            // (2) identical reconfiguration-list
            if rec.list != my_list {
                continue;
            }
            // (3) decision timestamp not greater than mine
            if rec.last_decision_ts > self.last_decision_ts {
                continue;
            }
            // (4) member of the last group I know about
            if !self.view.contains(*p) {
                continue;
            }
            members.insert(*p);
            merge.push(rec.oal.clone());
            dpds.extend(rec.dpd.iter().copied());
        }
        if members.len() < self.cfg.majority() {
            return false;
        }
        self.create_group(now, members, merge, dpds, actions);
        true
    }

    /// Record a received reconfiguration message; in rotation-watching
    /// states a reconfiguration from the expected sender signals multiple
    /// failures.
    pub(crate) fn handle_reconfig(
        &mut self,
        now: SyncTime,
        r: Reconfig,
        actions: &mut Vec<Action>,
    ) {
        if !self.ctrl_fresh(r.sender, r.send_ts, r.alive) {
            return;
        }
        self.reconfig_heard.insert(
            r.sender,
            ReconfigRecord {
                ts: r.send_ts,
                list: r.reconfig_set(),
                last_decision_ts: r.last_decision_ts,
                oal: r.oal_view,
                dpd: r.dpd,
            },
        );
        match self.state {
            CreatorState::FailureFree
            | CreatorState::WrongSuspicion
            | CreatorState::OneFailureReceive
            | CreatorState::OneFailureSend => {
                if Some(r.sender) == self.watchdog.expected() {
                    self.enter_nfailure(now, actions);
                }
            }
            CreatorState::NFailure | CreatorState::Join => {}
        }
    }

    /// A decision arrived while in n-failure state.
    pub(crate) fn decision_in_nfailure(
        &mut self,
        now: SyncTime,
        d: Decision,
        actions: &mut Vec<Action>,
    ) {
        if d.view.contains(self.pid) {
            if d.send_ts > self.last_decision_ts || d.view.id.seq > self.view.id.seq {
                self.reconfig_heard.clear();
                self.accept_decision(now, d, actions);
            }
            return;
        }
        // A new group formed without me: delay the switch to join until
        // decisions from *all* its members were seen, so that if the new
        // decider role is lost within a round I can still participate in
        // the follow-up election (paper §4.2).
        let seen_all = {
            let entry = match &mut self.nfail_wait {
                Some((v, seen)) if v.id == d.view.id => {
                    seen.insert(d.sender);
                    Some((v.clone(), seen.clone()))
                }
                _ => {
                    let seen: BTreeSet<ProcessId> = [d.sender].into_iter().collect();
                    self.nfail_wait = Some((d.view.clone(), seen.clone()));
                    Some((d.view.clone(), seen))
                }
            };
            match entry {
                Some((v, seen)) => v.members.iter().all(|m| seen.contains(m)),
                None => false,
            }
        };
        if seen_all {
            self.leave_to_join(LeaveReason::Excluded, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use tw_proto::{AliveList, Duration, HwTime, Oal, UpdateDesc, View, ViewId};

    fn cfg() -> Config {
        Config::for_team(5, Duration::from_millis(10))
    }

    /// A synced member of group {0..4} in n-failure state knowing a
    /// decision at ts=1000.
    fn nfail_member(pid: u16) -> Member {
        let mut m = Member::new(ProcessId(pid), cfg()).unwrap();
        m.on_start(HwTime(0));
        m.force_clock_sync();
        m.view = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
        m.state = CreatorState::NFailure;
        m.last_decision_ts = SyncTime(1_000);
        m
    }

    fn reconfig(sender: u16, ts: SyncTime, list: &[u16], decision_ts: i64) -> Reconfig {
        Reconfig {
            sender: ProcessId(sender),
            send_ts: ts,
            reconfig_list: list.iter().map(|&r| ProcessId(r)).collect(),
            last_decision_ts: SyncTime(decision_ts),
            last_view: ViewId::new(1, ProcessId(0)),
            oal_view: Oal::new(),
            dpd: vec![],
            alive: AliveList::EMPTY,
        }
    }

    /// A time inside pid's slot, at least one cycle in.
    fn slot_time(pid: u16, cycle_n: i64) -> SyncTime {
        let c = cfg();
        SyncTime(c.cycle().0 * cycle_n + c.slot_len.0 * pid as i64 + 10)
    }

    #[test]
    fn sends_reconfig_once_per_own_slot() {
        let mut m = nfail_member(0);
        let t = slot_time(0, 1);
        let a1 = m.on_tick(HwTime(t.0));
        assert!(a1
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Reconfig(_)))));
        let a2 = m.on_tick(HwTime(t.0 + 50));
        assert!(!a2
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Reconfig(_)))));
        // Not my slot:
        let a3 = m.on_tick(HwTime(slot_time(1, 1).0));
        assert!(!a3
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Reconfig(_)))));
    }

    #[test]
    fn creation_requires_matching_majority() {
        let mut m = nfail_member(0);
        // My own reconfig must precede creation: send one in cycle 1.
        m.on_tick(HwTime(slot_time(0, 1).0));
        // p1 and p2 sent matching reconfigs {0,1,2} in their last slots.
        let t1 = slot_time(1, 1);
        let t2 = slot_time(2, 1);
        m.handle_reconfig(t1, reconfig(1, t1, &[0, 1, 2], 1_000), &mut vec![]);
        m.handle_reconfig(t2, reconfig(2, t2, &[0, 1, 2], 1_000), &mut vec![]);
        // My slot next cycle: my list = {0,1,2} (both fresh) → matches.
        let t0 = slot_time(0, 2);
        let actions = m.on_tick(HwTime(t0.0));
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert_eq!(m.view().len(), 3);
        assert!(m.view().id.seq > 1, "seq advanced past the old view");
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Decision(_)))));
    }

    #[test]
    fn no_creation_with_stale_reconfigs() {
        let mut m = nfail_member(0);
        let t1 = slot_time(1, 1);
        m.handle_reconfig(t1, reconfig(1, t1, &[0, 1, 2], 1_000), &mut vec![]);
        let t2 = slot_time(2, 1);
        m.handle_reconfig(t2, reconfig(2, t2, &[0, 1, 2], 1_000), &mut vec![]);
        // Two cycles later, those reconfigs are stale.
        let t0 = slot_time(0, 4);
        m.on_tick(HwTime(t0.0));
        assert_eq!(m.state(), CreatorState::NFailure);
    }

    #[test]
    fn no_creation_when_peer_has_fresher_decision() {
        let mut m = nfail_member(0);
        let t1 = slot_time(1, 1);
        // p1 knows a NEWER decision (ts 2000 > my 1000): clause (3) fails
        // for me — p1 should win instead.
        m.handle_reconfig(t1, reconfig(1, t1, &[0, 1, 2], 2_000), &mut vec![]);
        let t2 = slot_time(2, 1);
        m.handle_reconfig(t2, reconfig(2, t2, &[0, 1, 2], 1_000), &mut vec![]);
        m.on_tick(HwTime(slot_time(0, 2).0));
        assert_eq!(m.state(), CreatorState::NFailure);
    }

    #[test]
    fn no_creation_with_mismatched_lists() {
        let mut m = nfail_member(0);
        let t1 = slot_time(1, 1);
        m.handle_reconfig(t1, reconfig(1, t1, &[1, 2], 1_000), &mut vec![]);
        let t2 = slot_time(2, 1);
        m.handle_reconfig(t2, reconfig(2, t2, &[0, 1, 2], 1_000), &mut vec![]);
        m.on_tick(HwTime(slot_time(0, 2).0));
        assert_eq!(m.state(), CreatorState::NFailure);
    }

    #[test]
    fn outsiders_to_last_group_excluded() {
        let mut m = nfail_member(0);
        // Last group was only {0,1,2}:
        m.view = View::new(ViewId::new(1, ProcessId(0)), [0, 1, 2].map(ProcessId));
        // p3 (not in the last group) sends matching reconfigs — clause 4
        // must reject it; with only p1 matching, majority of 5 (=3) via
        // {0,1} fails.
        let t1 = slot_time(1, 1);
        m.handle_reconfig(t1, reconfig(1, t1, &[0, 1, 3], 1_000), &mut vec![]);
        let t3 = slot_time(3, 1);
        m.handle_reconfig(t3, reconfig(3, t3, &[0, 1, 3], 1_000), &mut vec![]);
        m.on_tick(HwTime(slot_time(0, 2).0));
        assert_eq!(m.state(), CreatorState::NFailure);
    }

    #[test]
    fn cooldown_sends_empty_lists_and_blocks_creation() {
        let mut m = nfail_member(0);
        // Entered n-failure in slot 4 of cycle 0, right after sending an
        // ND: mixed election. Cooldown = N−1 slots from entry, which
        // covers my slot in cycle 1.
        let entry = slot_time(4, 0);
        m.sent_nd_at = Some(entry - Duration(100));
        m.state = CreatorState::OneFailureSend;
        let mut actions = Vec::new();
        m.enter_nfailure(entry, &mut actions);
        assert!(m.cooldown_until > entry);
        // Matching majority is available, but cooldown blocks creation.
        let t1 = slot_time(1, 0);
        let t2 = slot_time(2, 0);
        m.handle_reconfig(t1, reconfig(1, t1, &[0, 1, 2], 1_000), &mut vec![]);
        m.handle_reconfig(t2, reconfig(2, t2, &[0, 1, 2], 1_000), &mut vec![]);
        let t0 = slot_time(0, 1);
        assert!(t0 <= m.cooldown_until, "test setup: still cooling down");
        let a = m.on_tick(HwTime(t0.0));
        assert_eq!(m.state(), CreatorState::NFailure);
        let Some(Action::Broadcast(Msg::Reconfig(r))) = a
            .iter()
            .find(|x| matches!(x, Action::Broadcast(Msg::Reconfig(_))))
        else {
            panic!("no reconfig sent");
        };
        assert!(r.reconfig_list.is_empty(), "cooldown sends empty lists");
    }

    #[test]
    fn reconfig_from_expected_escalates_rotation_watchers() {
        let mut m = nfail_member(3);
        m.state = CreatorState::FailureFree;
        m.watchdog
            .arm(ProcessId(1), SyncTime(1_000), Duration(50_000));
        let r = reconfig(1, SyncTime(1_500), &[1], 900);
        m.handle_reconfig(SyncTime(1_501), r, &mut vec![]);
        assert_eq!(m.state(), CreatorState::NFailure);
    }

    #[test]
    fn reconfig_from_unexpected_only_recorded() {
        let mut m = nfail_member(3);
        m.state = CreatorState::FailureFree;
        m.watchdog
            .arm(ProcessId(1), SyncTime(1_000), Duration(50_000));
        let r = reconfig(2, SyncTime(1_500), &[2], 900);
        m.handle_reconfig(SyncTime(1_501), r, &mut vec![]);
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert!(m.reconfig_heard.contains_key(&ProcessId(2)));
    }

    #[test]
    fn inclusive_decision_restores_failure_free() {
        let mut m = nfail_member(3);
        let d = Decision {
            sender: ProcessId(0),
            send_ts: SyncTime(2_000),
            view: View::new(ViewId::new(2, ProcessId(0)), [0, 1, 3].map(ProcessId)),
            oal: Oal::new(),
            alive: AliveList::EMPTY,
        };
        let mut actions = Vec::new();
        m.handle_decision(SyncTime(2_001), d, &mut actions);
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert_eq!(m.view().len(), 3);
    }

    #[test]
    fn exclusive_decisions_wait_for_all_members() {
        let mut m = nfail_member(4);
        let new_view = View::new(ViewId::new(2, ProcessId(0)), [0, 1, 2].map(ProcessId));
        let mk = |sender: u16, ts: i64| Decision {
            sender: ProcessId(sender),
            send_ts: SyncTime(ts),
            view: new_view.clone(),
            oal: Oal::new(),
            alive: AliveList::EMPTY,
        };
        let mut actions = Vec::new();
        m.handle_decision(SyncTime(2_001), mk(0, 2_000), &mut actions);
        assert_eq!(m.state(), CreatorState::NFailure, "still waiting");
        m.handle_decision(SyncTime(2_101), mk(1, 2_100), &mut actions);
        assert_eq!(m.state(), CreatorState::NFailure);
        m.handle_decision(SyncTime(2_201), mk(2, 2_200), &mut actions);
        assert_eq!(m.state(), CreatorState::Join, "all members seen → join");
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::LeftGroup {
                reason: LeaveReason::Excluded
            }
        )));
    }

    #[test]
    fn merged_election_state_reaches_new_oal() {
        let mut m = nfail_member(0);
        m.on_tick(HwTime(slot_time(0, 1).0)); // own reconfig first
                                              // p1's reconfig carries a dpd entry; after creation the new oal
                                              // must order it.
        let t1 = slot_time(1, 1);
        let mut r1 = reconfig(1, t1, &[0, 1, 2], 1_000);
        r1.dpd = vec![UpdateDesc {
            id: tw_proto::ProposalId::new(ProcessId(1), 7),
            hdo: tw_proto::Ordinal::ZERO,
            semantics: tw_proto::Semantics::UNORDERED_WEAK,
            send_ts: SyncTime(900),
        }];
        m.handle_reconfig(t1, r1, &mut vec![]);
        let t2 = slot_time(2, 1);
        m.handle_reconfig(t2, reconfig(2, t2, &[0, 1, 2], 1_000), &mut vec![]);
        m.on_tick(HwTime(slot_time(0, 2).0));
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert!(
            m.oal()
                .ordinal_of(tw_proto::ProposalId::new(ProcessId(1), 7))
                .is_some(),
            "dpd update ordered by the new decider"
        );
    }
}
