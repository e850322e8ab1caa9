//! The single-failure election and the wrong-suspicion path (paper §4.1,
//! §4.2: the failure-free, wrong-suspicion, 1-failure-receive and
//! 1-failure-send states).
//!
//! When the expected sender falls silent, the suspicion travels around
//! the ring as a chain of no-decision messages: the suspect's successor
//! starts it, every concurring member forwards it within `D`, and the
//! suspect's predecessor terminates it by removing the suspect (if a
//! majority would remain) or escalating to the reconfiguration election.
//! A member holding the allegedly missed decision refuses to concur
//! (wrong-suspicion) and rescues the rotation by becoming decider itself
//! when the ring reaches it — the group is never reformed over a false
//! alarm.

use super::{CreatorState, Member};
use crate::events::Action;
use tw_obs::TraceEvent;
use tw_proto::{Msg, NoDecision, ProcessId, SyncTime};

impl Member {
    /// The failure detector reported a timeout failure of `suspect`.
    pub(crate) fn on_timeout_failure(
        &mut self,
        now: SyncTime,
        suspect: ProcessId,
        actions: &mut Vec<Action>,
    ) {
        match self.state {
            CreatorState::FailureFree => {
                if suspect == self.pid {
                    // Degenerate: the watchdog is waiting for *us* (we
                    // are the decider and somehow missed our duty —
                    // e.g. a scheduling stall). Make up for it now.
                    self.emit_decision(now, actions);
                    return;
                }
                if !self.cfg.single_failure_fastpath {
                    // A2 ablation: skip the fast path entirely.
                    self.enter_nfailure(now, actions);
                    return;
                }
                self.begin_single_failure(now, suspect, actions);
            }
            CreatorState::WrongSuspicion
            | CreatorState::OneFailureReceive
            | CreatorState::OneFailureSend => {
                // A second failure inside the election window: multiple
                // failures (Fig. 2: timeout → n-failure).
                self.enter_nfailure(now, actions);
            }
            CreatorState::Join | CreatorState::NFailure => {}
        }
    }

    /// One election per cycle (paper §4.1): a process that contributed a
    /// no-decision message to an election may not take part in another
    /// single-failure election until a full cycle has passed — the old
    /// messages could otherwise combine with the new election to
    /// instantiate two deciders. Blocked participants fall through to
    /// the (slot-serialized) reconfiguration election instead.
    fn may_participate_in_election(&self, now: SyncTime) -> bool {
        match self.sent_nd_at {
            Some(t) => now - t > self.cfg.cycle(),
            None => true,
        }
    }

    /// Start the single-failure election for `suspect` from failure-free
    /// state.
    fn begin_single_failure(
        &mut self,
        now: SyncTime,
        suspect: ProcessId,
        actions: &mut Vec<Action>,
    ) {
        let view = self.view.id;
        self.trace(now, |at| TraceEvent::SuspicionRaised {
            pid: self.pid,
            at,
            suspect,
            view,
        });
        if !self.may_participate_in_election(now) {
            self.enter_nfailure(now, actions);
            return;
        }
        self.election_oals.clear();
        self.election_dpds.clear();
        if self.succ(suspect) == self.pid {
            // I am the suspect's successor: I open the no-decision ring.
            self.send_no_decision(now, suspect, actions);
            self.enter_single_failure(CreatorState::OneFailureSend, suspect);
            self.arm_ring(suspect, self.pid, now);
        } else {
            self.enter_single_failure(CreatorState::OneFailureReceive, suspect);
            // First expected ring message: the suspect's successor's ND.
            let first = self.succ(suspect);
            self.watchdog.arm(first, now, self.cfg.election_timeout);
        }
    }

    /// Broadcast my no-decision message for `suspect` and apply the §4.3
    /// local undeliverable marks.
    pub(crate) fn send_no_decision(
        &mut self,
        now: SyncTime,
        suspect: ProcessId,
        actions: &mut Vec<Action>,
    ) {
        // §4.3: mark the suspect's proposals that are ordered in the oal
        // but that I never received; they may be lost with it. The mark
        // expires after one cycle unless renewed.
        let until = now + self.cfg.cycle();
        let lacked = self.window_gaps().map(|(id, _)| id);
        let unreceived: Vec<_> = lacked.filter(|id| id.proposer == suspect).collect();
        for id in unreceived {
            self.buf.mark_local(id, until);
        }
        let send_ts = self.stamp(now);
        let view = self.view.id;
        self.trace(now, |at| TraceEvent::NoDecisionHop {
            pid: self.pid,
            at,
            suspect,
            send_ts,
            view,
        });
        let nd = NoDecision {
            sender: self.pid,
            send_ts,
            suspect,
            view_id: self.view.id,
            oal_view: self.oal.clone(),
            dpd: self.dpd_field(),
            alive: self.my_alive(now),
        };
        let msg = Msg::NoDecision(nd);
        self.sent_nd_at = Some(send_ts);
        self.last_ctrl_sent = Some(msg.clone());
        actions.push(Action::Broadcast(msg));
    }

    /// Route a received no-decision message by creator state.
    pub(crate) fn handle_no_decision(
        &mut self,
        now: SyncTime,
        nd: NoDecision,
        actions: &mut Vec<Action>,
    ) {
        if !self.ctrl_fresh(nd.sender, nd.send_ts, nd.alive) {
            return;
        }
        if nd.view_id != self.view.id {
            return; // a different group's election
        }
        // Election messages are only usable for about (N−1)·D after they
        // were sent (paper §4.1's at-most-one-decider argument).
        if now - nd.send_ts > self.cfg.big_d * (self.cfg.n as i64 - 1) {
            return;
        }
        // Gather §4.3 election state from every ND we accept.
        self.election_oals.push(nd.oal_view.clone());
        for d in &nd.dpd {
            self.election_dpds.insert(d.id, *d);
        }
        match self.state {
            CreatorState::FailureFree => self.nd_in_failure_free(now, nd, actions),
            CreatorState::OneFailureReceive => self.nd_in_one_failure_receive(now, nd, actions),
            CreatorState::OneFailureSend => self.nd_in_one_failure_send(now, nd),
            CreatorState::WrongSuspicion => self.nd_in_wrong_suspicion(now, nd, actions),
            CreatorState::Join | CreatorState::NFailure => {}
        }
    }

    fn nd_in_failure_free(&mut self, now: SyncTime, nd: NoDecision, actions: &mut Vec<Action>) {
        let expected = self.watchdog.expected();
        if Some(nd.sender) == expected {
            // The member I expected a decision from instead claims the
            // previous decider failed — but I have that decision (that is
            // why my expectation had advanced): wrong suspicion.
            if nd.suspect == self.pid {
                self.enter_single_failure(CreatorState::WrongSuspicion, nd.suspect);
                self.arm_ring(nd.suspect, nd.sender, nd.send_ts);
                self.resend_last_ctrl(actions);
            } else if self.ring_succ(nd.suspect, nd.sender) == self.pid {
                // The very ND that made me wrong-suspicious came from my
                // ring predecessor: the ring has already reached me, and
                // I hold the missed decision — rescue immediately.
                self.state = CreatorState::FailureFree;
                self.suspect = None;
                let (suspect, view) = (nd.suspect, self.view.id);
                self.trace(now, |at| TraceEvent::WrongSuspicionRescue {
                    pid: self.pid,
                    at,
                    suspect,
                    view,
                });
                self.emit_decision(now, actions);
            } else {
                self.enter_single_failure(CreatorState::WrongSuspicion, nd.suspect);
                self.arm_ring(nd.suspect, nd.sender, nd.send_ts);
            }
        } else if Some(nd.suspect) == expected {
            if !self.may_participate_in_election(now) {
                self.enter_nfailure(now, actions);
                return;
            }
            // Someone else noticed the silence before my tick did; concur.
            let suspect = nd.suspect;
            let view = self.view.id;
            self.trace(now, |at| TraceEvent::SuspicionRaised {
                pid: self.pid,
                at,
                suspect,
                view,
            });
            self.election_oals.push(nd.oal_view);
            if self.ring_succ(suspect, nd.sender) == self.pid {
                self.send_no_decision(now, suspect, actions);
                self.enter_single_failure(CreatorState::OneFailureSend, suspect);
                self.arm_ring(suspect, self.pid, now);
            } else {
                self.enter_single_failure(CreatorState::OneFailureReceive, suspect);
                self.arm_ring(suspect, nd.sender, nd.send_ts);
            }
        }
        // Any other ND: not addressed to my position in the rotation.
    }

    fn nd_in_one_failure_receive(
        &mut self,
        now: SyncTime,
        nd: NoDecision,
        actions: &mut Vec<Action>,
    ) {
        if Some(nd.suspect) != self.suspect || Some(nd.sender) != self.watchdog.expected() {
            return;
        }
        let suspect = nd.suspect;
        if self.ring_succ(suspect, nd.sender) == self.pid {
            // The ring reached me.
            if self.view.predecessor_in_group(suspect) == Some(self.pid) {
                // I am the suspect's predecessor: every member but the
                // suspect has concurred. Remove it if a majority remains
                // — unless my own stale no-decision from an earlier
                // election is still live, in which case creating here
                // could pair with that election into two deciders.
                if !self.may_participate_in_election(now) {
                    self.enter_nfailure(now, actions);
                    return;
                }
                if self.view.len() > self.cfg.majority() {
                    let members: std::collections::BTreeSet<_> = self
                        .view
                        .members
                        .iter()
                        .copied()
                        .filter(|m| *m != suspect)
                        .collect();
                    let merge = std::mem::take(&mut self.election_oals);
                    let dpds: Vec<_> = std::mem::take(&mut self.election_dpds)
                        .into_values()
                        .collect();
                    self.create_group(now, members, merge, dpds, actions);
                } else {
                    // Removal would break the majority property: escalate.
                    self.enter_nfailure(now, actions);
                }
            } else {
                // Concur and forward the ring.
                self.send_no_decision(now, suspect, actions);
                self.enter_single_failure(CreatorState::OneFailureSend, suspect);
                self.arm_ring(suspect, self.pid, now);
            }
        } else {
            // Ring progressing elsewhere; keep watching the next member.
            self.arm_ring(suspect, nd.sender, nd.send_ts);
        }
    }

    fn nd_in_one_failure_send(&mut self, _now: SyncTime, nd: NoDecision) {
        if Some(nd.suspect) != self.suspect || Some(nd.sender) != self.watchdog.expected() {
            return;
        }
        // Fig. 2: ND from expected sender → stay in 1-failure-send.
        self.arm_ring(nd.suspect, nd.sender, nd.send_ts);
    }

    fn nd_in_wrong_suspicion(&mut self, now: SyncTime, nd: NoDecision, actions: &mut Vec<Action>) {
        if nd.suspect == self.pid {
            // I am suspected but alive: resend my last control message so
            // the group can still see it (no guarantee — timed
            // asynchronous systems cannot promise a live member is never
            // excluded).
            self.resend_last_ctrl(actions);
        }
        if Some(nd.suspect) != self.suspect || Some(nd.sender) != self.watchdog.expected() {
            return;
        }
        let suspect = nd.suspect;
        if self.ring_succ(suspect, nd.sender) == self.pid {
            // The ring reached me, and I do not concur: I have the
            // allegedly missed decision. Rescue the rotation — become
            // decider with the information from that decision, *without*
            // any membership change.
            self.state = CreatorState::FailureFree;
            self.suspect = None;
            self.election_oals.clear();
            self.election_dpds.clear();
            let view = self.view.id;
            self.trace(now, |at| TraceEvent::WrongSuspicionRescue {
                pid: self.pid,
                at,
                suspect,
                view,
            });
            self.emit_decision(now, actions);
        } else {
            self.arm_ring(suspect, nd.sender, nd.send_ts);
        }
    }

    fn resend_last_ctrl(&self, actions: &mut Vec<Action>) {
        if let Some(msg) = &self.last_ctrl_sent {
            actions.push(Action::Broadcast(msg.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use tw_proto::{AliveList, Decision, Duration, HwTime, Oal, View, ViewId};

    fn cfg() -> Config {
        Config::for_team(5, Duration::from_millis(10))
    }

    /// A synced member of the 5-group {0..4} that has just accepted a
    /// decision from `last_decider` at ts=1000.
    fn member_after_decision(pid: u16, last_decider: u16) -> Member {
        let mut m = Member::new(ProcessId(pid), cfg()).unwrap();
        m.on_start(HwTime(0));
        m.force_clock_sync();
        m.view = View::new(ViewId::new(1, ProcessId(0)), (0..5).map(ProcessId));
        m.state = CreatorState::FailureFree;
        let d = Decision {
            sender: ProcessId(last_decider),
            send_ts: SyncTime(1_000),
            view: m.view.clone(),
            oal: Oal::new(),
            alive: AliveList::EMPTY,
        };
        let mut actions = Vec::new();
        m.handle_decision(SyncTime(1_001), d, &mut actions);
        m.decider_due = None; // tests drive duties explicitly
        m
    }

    fn nd(sender: u16, suspect: u16, ts: i64, view_id: ViewId) -> NoDecision {
        NoDecision {
            sender: ProcessId(sender),
            send_ts: SyncTime(ts),
            suspect: ProcessId(suspect),
            view_id,
            oal_view: Oal::new(),
            dpd: vec![],
            alive: AliveList::EMPTY,
        }
    }

    #[test]
    fn successor_of_suspect_opens_the_ring() {
        // Last decider p0; expected p1 fails silently. p2 = succ(p1).
        let mut m = member_after_decision(2, 0);
        let mut actions = Vec::new();
        let deadline = SyncTime(1_000) + cfg().decision_timeout;
        m.on_timeout_failure(deadline + Duration(1), ProcessId(1), &mut actions);
        assert_eq!(m.state(), CreatorState::OneFailureSend);
        assert_eq!(m.suspect, Some(ProcessId(1)));
        assert!(actions.iter().any(
            |a| matches!(a, Action::Broadcast(Msg::NoDecision(n)) if n.suspect == ProcessId(1))
        ));
        // Next expected ring member: p3.
        assert_eq!(m.watchdog.expected(), Some(ProcessId(3)));
    }

    #[test]
    fn non_successor_waits_in_receive_state() {
        let mut m = member_after_decision(3, 0);
        let mut actions = Vec::new();
        m.on_timeout_failure(SyncTime(100_000), ProcessId(1), &mut actions);
        assert_eq!(m.state(), CreatorState::OneFailureReceive);
        assert!(actions.is_empty());
        assert_eq!(m.watchdog.expected(), Some(ProcessId(2)));
    }

    #[test]
    fn ring_forwards_through_receive_members() {
        let mut m = member_after_decision(3, 0);
        let vid = m.view.id;
        m.on_timeout_failure(SyncTime(100_000), ProcessId(1), &mut vec![]);
        // p2's ND arrives; ring_succ(1, 2) = 3 = me → I forward.
        let mut actions = Vec::new();
        m.handle_no_decision(SyncTime(100_010), nd(2, 1, 100_005, vid), &mut actions);
        assert_eq!(m.state(), CreatorState::OneFailureSend);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::NoDecision(_)))));
        assert_eq!(m.watchdog.expected(), Some(ProcessId(4)));
    }

    #[test]
    fn predecessor_terminates_ring_and_removes_suspect() {
        // Suspect p1; its predecessor in {0..4} is p0.
        let mut m = member_after_decision(0, 4);
        let vid = m.view.id;
        m.on_timeout_failure(SyncTime(100_000), ProcessId(1), &mut vec![]);
        assert_eq!(m.state(), CreatorState::OneFailureReceive);
        // Ring: p2 → p3 → p4 → me.
        m.handle_no_decision(SyncTime(100_010), nd(2, 1, 100_005, vid), &mut vec![]);
        m.handle_no_decision(SyncTime(100_020), nd(3, 1, 100_015, vid), &mut vec![]);
        let mut actions = Vec::new();
        m.handle_no_decision(SyncTime(100_030), nd(4, 1, 100_025, vid), &mut actions);
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert_eq!(m.view().len(), 4);
        assert!(!m.view().contains(ProcessId(1)));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Decision(_)))));
    }

    #[test]
    fn exactly_majority_escalates_to_nfailure() {
        // 5-team but the current group is only {0,1,2} (= majority).
        let mut m = member_after_decision(0, 2);
        m.view = View::new(ViewId::new(2, ProcessId(0)), [0, 1, 2].map(ProcessId));
        let vid = m.view.id;
        m.on_timeout_failure(SyncTime(100_000), ProcessId(1), &mut vec![]);
        // Ring over {0,2}: p2 opens; I am pred(1).
        let mut actions = Vec::new();
        m.handle_no_decision(SyncTime(100_010), nd(2, 1, 100_005, vid), &mut actions);
        assert_eq!(m.state(), CreatorState::NFailure);
        assert_eq!(m.view().len(), 3, "no removal below majority");
    }

    #[test]
    fn wrong_suspicion_on_nd_from_expected() {
        // I have p0's decision; expected sender is p1. p1's ND (it missed
        // p0's decision) must move me to wrong-suspicion, not an election.
        let mut m = member_after_decision(3, 0);
        let vid = m.view.id;
        let mut actions = Vec::new();
        m.handle_no_decision(SyncTime(1_500), nd(1, 0, 1_400, vid), &mut actions);
        assert_eq!(m.state(), CreatorState::WrongSuspicion);
        assert_eq!(m.suspect, Some(ProcessId(0)));
        assert_eq!(m.view().len(), 5, "no membership change");
    }

    #[test]
    fn wrong_suspicion_rescue_becomes_decider() {
        // p2 holds p0's decision. p1's ND(suspect=p0) arrives from p2's
        // ring predecessor (ring over view\{p0}: p1 → p2 → …), so p2
        // rescues IMMEDIATELY: becomes decider with no membership change.
        let mut m = member_after_decision(2, 0);
        let vid = m.view.id;
        let mut rescue_actions = Vec::new();
        m.handle_no_decision(SyncTime(1_500), nd(1, 0, 1_400, vid), &mut rescue_actions);
        assert_eq!(m.state(), CreatorState::FailureFree);
        assert!(rescue_actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Decision(_)))));
        assert_eq!(m.view().len(), 5, "immediate rescue keeps membership");
        // A member further down the ring (p3) transitions to
        // wrong-suspicion first, then rescues when the ring reaches it.
        let mut m3 = member_after_decision(3, 0);
        m3.handle_no_decision(SyncTime(1_500), nd(1, 0, 1_400, vid), &mut vec![]);
        assert_eq!(m3.state(), CreatorState::WrongSuspicion);
        assert_eq!(m3.watchdog.expected(), Some(ProcessId(2)));
        let mut actions = Vec::new();
        m3.handle_no_decision(SyncTime(1_600), nd(2, 0, 1_550, vid), &mut actions);
        assert_eq!(m3.state(), CreatorState::FailureFree);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Decision(_)))));
        assert_eq!(m3.view().len(), 5, "rescue keeps the membership");
        let _ = m;
    }

    #[test]
    fn suspected_member_resends_last_control_message() {
        // p0 sent the last decision; p1 (its successor) missed it and
        // suspects p0. p0 receives p1's ND.
        let mut m = member_after_decision(0, 4);
        let vid = m.view.id;
        // p0 emits its own decision (it is succ(p4)): set up last_ctrl.
        let mut actions = Vec::new();
        m.emit_decision(SyncTime(2_000), &mut actions);
        actions.clear();
        m.handle_no_decision(SyncTime(2_500), nd(1, 0, 2_400, vid), &mut actions);
        assert_eq!(m.state(), CreatorState::WrongSuspicion);
        // The resent decision:
        assert!(actions.iter().any(
            |a| matches!(a, Action::Broadcast(Msg::Decision(d)) if d.send_ts == SyncTime(2_000))
        ));
    }

    #[test]
    fn timeout_in_election_escalates() {
        let mut m = member_after_decision(3, 0);
        m.on_timeout_failure(SyncTime(100_000), ProcessId(1), &mut vec![]);
        assert_eq!(m.state(), CreatorState::OneFailureReceive);
        let mut actions = Vec::new();
        m.on_timeout_failure(SyncTime(200_000), ProcessId(2), &mut actions);
        assert_eq!(m.state(), CreatorState::NFailure);
    }

    #[test]
    fn foreign_view_nds_ignored() {
        let mut m = member_after_decision(3, 0);
        let other = ViewId::new(9, ProcessId(4));
        m.handle_no_decision(SyncTime(1_500), nd(1, 0, 1_400, other), &mut vec![]);
        assert_eq!(m.state(), CreatorState::FailureFree);
    }
}
