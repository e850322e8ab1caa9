//! Decider-role behaviour: accepting decisions, emitting decisions,
//! creating groups (the only way membership ever changes).
//!
//! Only the decider changes group-lists (paper §4.2): it appends a
//! membership descriptor to the oal of its decision message, and every
//! other member adopts the change from there. This file implements the
//! common machinery used by all four group-creation paths (initial join,
//! join integration, single-failure removal, reconfiguration).

use super::{CreatorState, Member};
use crate::events::{Action, LeaveReason};
use crate::undeliverable;
use std::collections::BTreeSet;
use std::ops::Range;
use tw_obs::TraceEvent;
#[cfg(any(test, debug_assertions))]
use tw_proto::DescriptorBody;
use tw_proto::{
    AckBits, Decision, Descriptor, Entry, Msg, Oal, Ordinal, ProcessId, ProposalId, SyncTime,
    UpdateDesc, UpdateRun, View, ViewId,
};

/// The view's member set as a bitset (for allocation-free trace events).
fn member_bits(view: &View) -> AckBits {
    let mut bits = AckBits::EMPTY;
    for p in &view.members {
        bits.set(*p);
    }
    bits
}

impl Member {
    /// Sequence number for a view created now: strictly above everything
    /// this member has seen, and at least the current timewheel slot
    /// index. The slot floor makes view sequence numbers globally
    /// time-ordered, so a group formed after a crash-and-amnesia restart
    /// (or by a previously partitioned creator) can never collide with a
    /// sequence number used by an earlier group — slot owners are unique,
    /// and later formations land in later slots.
    pub(crate) fn next_view_seq(&self, now: SyncTime) -> u64 {
        let slot = self.cfg.slot_index(now).max(1) as u64;
        (self.view.id.seq + 1).max(slot)
    }

    /// Route a received decision by creator state.
    pub(crate) fn handle_decision(
        &mut self,
        now: SyncTime,
        d: Decision,
        actions: &mut Vec<Action>,
    ) {
        if !self.ctrl_fresh(d.sender, d.send_ts, d.alive) {
            return;
        }
        match self.state {
            CreatorState::Join => self.decision_in_join(now, d, actions),
            CreatorState::NFailure => self.decision_in_nfailure(now, d, actions),
            CreatorState::OneFailureReceive if Some(d.sender) == self.suspect => {
                // The suspect is alive after all (its decision reached us,
                // possibly resent): stop concurring (§4.2
                // 1-failure-receive → wrong-suspicion).
                self.adopt_decision_payload(d.oal, d.send_ts);
                self.enter_single_failure(CreatorState::WrongSuspicion, d.sender);
            }
            CreatorState::OneFailureSend if Some(d.sender) == self.suspect => {
                // Fig. 2 has no suspect-decision edge out of
                // 1-failure-send: we already asked for removal; the ring
                // or the wrong-suspicion rescue will resolve it.
            }
            _ => {
                // FailureFree / WrongSuspicion / 1-failure states: a
                // fresher decision restores the rotation.
                if d.send_ts > self.last_decision_ts {
                    self.accept_decision(now, d, actions);
                }
            }
        }
    }

    /// Full acceptance of a decision: adopt view and oal, rearm the
    /// rotation, return to failure-free state.
    pub(crate) fn accept_decision(
        &mut self,
        now: SyncTime,
        d: Decision,
        actions: &mut Vec<Action>,
    ) {
        let (from, send_ts, dview) = (d.sender, d.send_ts, d.view.id);
        self.trace(now, |at| TraceEvent::DecisionReceived {
            pid: self.pid,
            at,
            from,
            send_ts,
            view: dview,
        });
        if d.view.id.seq > self.view.id.seq {
            if !d.view.contains(self.pid) {
                // A new group without me: I am out (paper §4.2
                // wrong-suspicion: "switches to join state").
                self.leave_to_join(LeaveReason::Excluded, actions);
                return;
            }
            self.view = d.view.clone();
            self.views_installed += 1;
            self.trace_view_installed(now);
            actions.push(Action::InstallView(self.view.clone()));
        }
        self.adopt_decision_payload(d.oal, d.send_ts);
        self.state = CreatorState::FailureFree;
        self.suspect = None;
        self.election_oals.clear();
        self.election_dpds.clear();
        self.arm_rotation(d.sender, d.send_ts);
        self.decider_due = None;
        if self.succ(d.sender) == self.pid {
            // I am the next decider; relinquish within D.
            self.decider_due = Some(now + self.cfg.decider_interval);
        }
    }

    /// Emit the `ViewInstalled` trace event for the freshly adopted view.
    pub(crate) fn trace_view_installed(&self, now: SyncTime) {
        let (view, members) = (self.view.id, member_bits(&self.view));
        self.trace(now, |at| TraceEvent::ViewInstalled {
            pid: self.pid,
            at,
            view,
            members,
        });
    }

    /// Adopt the oal carried by a decision (taken by value: the decision
    /// is ours): merge, learn ordinals, purge undeliverables, record own
    /// acknowledgements, update the decision frontier.
    pub(crate) fn adopt_decision_payload(&mut self, oal: Oal, send_ts: SyncTime) {
        if let Err((_, oal)) = self.oal.adopt_latest(oal) {
            // Prefix violation: our oal belongs to a lineage the new
            // decider's election did not include (e.g. we held a
            // decision nobody in the electing majority saw). The decider
            // is authoritative — take its oal wholesale and void every
            // ordinal assignment we learned from the dead lineage.
            self.replace_oal(oal);
            self.buf.clear_ordinals();
        }
        self.sync_with_oal(send_ts);
        self.last_decision_ts = self.last_decision_ts.max(send_ts);
    }

    /// Reconcile buffers with the current oal: learn ordinal
    /// assignments, drop proposals a decider ruled undeliverable, mark
    /// our own acknowledgement bits for everything we hold, and settle
    /// what the base passed.
    ///
    /// Walks only what the last sync did not see, a run of the oal at a
    /// time. While the window it walked stands, a run below where it
    /// stopped that carries my acknowledgement and is not undeliverable
    /// needs nothing: its assignments are learned and there is nothing
    /// to ack or purge.
    pub(crate) fn sync_with_oal(&mut self, now: SyncTime) {
        let window = self.oal.base()..self.oal.next_ordinal();
        // A window re-opened below the base last walked holds
        // descriptors that sync never saw.
        let seen = if window.start >= self.synced.start {
            self.synced.end
        } else {
            Ordinal::ZERO
        };
        let me = self.pid;
        let mut o = window.start;
        // What to acknowledge is gathered while it stays contiguous.
        // Acknowledging cuts and joins runs, so each step looks its run
        // up afresh by ordinal.
        let mut acks = Ordinal::ZERO..Ordinal::ZERO;
        while let Some((at, e)) = self.oal.run_at(o) {
            let end = Ordinal(at.0 + e.count());
            let done = e.acks().contains(me) && !e.undeliverable();
            let from = if done { o.max(seen) } else { o };
            match e {
                _ if from >= end => {}
                Entry::Membership { .. } => self.ack_later(&mut acks, from..end),
                Entry::Updates(r) => {
                    let run = r.slice_from(from.0 - at.0);
                    self.sync_run(now, from, run, &mut acks);
                }
            }
            o = end;
        }
        self.oal.ack_range(acks, me);
        #[cfg(any(test, debug_assertions))]
        self.check_synced(now, window.clone());
        // Everything below the window base is stable: stop archiving it,
        // and nobody will be asked for it again.
        self.buf.settle(window.start);
        self.synced = window;
    }

    /// Sync one run of updates, ordered from `o` on: learn the
    /// assignments, then purge the run if it is undeliverable, or
    /// acknowledge the stretches of it this member holds.
    fn sync_run(&mut self, now: SyncTime, o: Ordinal, run: UpdateRun, acks: &mut Range<Ordinal>) {
        self.buf.learn_run(run.first, o, run.count);
        if run.undeliverable {
            for k in 0..run.count {
                self.buf.purge(run.id(k));
            }
        } else if !run.acks.contains(self.pid) {
            let mut k = 0;
            while k < run.count {
                let held = self.buf.held_from(run.id(k), run.count - k, now);
                let at = Ordinal(o.0 + k);
                if held > 0 {
                    self.ack_later(acks, at..Ordinal(at.0 + held));
                }
                k += held.max(1);
            }
        }
    }

    /// Add `range` to the acknowledgements `acks` gathers, acknowledging
    /// what it gathered so far first if `range` does not continue it.
    fn ack_later(&mut self, acks: &mut Range<Ordinal>, range: Range<Ordinal>) {
        if acks.end == range.start {
            acks.end = range.end;
        } else {
            let gathered = std::mem::replace(acks, range);
            self.oal.ack_range(gathered, self.pid);
        }
    }

    /// Assert that a sync of `window` left nothing for a walk over every
    /// descriptor to do: each update's assignment learned and its dpd
    /// entry ended, each undeliverable one purged, and each descriptor
    /// this member holds acknowledged.
    #[cfg(any(test, debug_assertions))]
    fn check_synced(&self, now: SyncTime, window: Range<Ordinal>) {
        let me = self.pid;
        for (o, d) in self.oal.iter() {
            let acked = d.acks.contains(me);
            let missing = match &d.body {
                DescriptorBody::Update { id, .. } => {
                    let holds = self.buf.has_received(*id) && !self.buf.is_locally_marked(*id, now);
                    (self.buf.ordinal_of(*id) != Some(o) || self.buf.has_dpd(*id))
                        .then_some("an assignment learned")
                        .or((d.undeliverable && self.buf.has_pending(*id)).then_some("a purge"))
                        .or((!d.undeliverable && holds && !acked).then_some("an ack"))
                }
                DescriptorBody::Membership(_) => (!acked).then_some("an ack"),
            };
            assert!(
                missing.is_none(),
                "sync of {window:?} and full-window sync disagree: {o:?} lacks {}",
                missing.unwrap_or_default()
            );
        }
    }

    /// Emit my decision message (I hold the decider role).
    pub(crate) fn emit_decision(&mut self, now: SyncTime, actions: &mut Vec<Action>) {
        debug_assert_eq!(self.state, CreatorState::FailureFree);
        // Join integration (paper §4.2): if a joiner is ready and I am
        // its successor in the group-to-be, extend the membership now.
        if let Some(joiner) = self.integration_candidate(now) {
            let new_view = self
                .view
                .with(joiner, ViewId::new(self.next_view_seq(now), self.pid));
            self.oal
                .append(Descriptor::membership(new_view.clone(), self.pid));
            self.view = new_view;
            self.views_installed += 1;
            self.trace_view_installed(now);
            actions.push(Action::InstallView(self.view.clone()));
            actions.push(Action::Send(
                joiner,
                Msg::StateTransfer(self.build_state_transfer(joiner)),
            ));
        }
        self.sync_with_oal(now);
        // Order every received-but-unordered proposal, then every update
        // delivered before ordering (dpd pool), listed in a reused buffer.
        let mut todo = std::mem::take(&mut self.to_order);
        let buf = &self.buf;
        let unordered = buf.pending().filter(|p| !buf.is_ordered(p.id()));
        todo.extend(unordered.map(|p| p.desc()));
        self.order_updates(&mut todo, now);
        self.buf.extend_with_dpds(&mut todo);
        self.order_updates(&mut todo, now);
        self.to_order = todo;
        // Prune the stable prefix (decider-side garbage collection).
        self.oal.prune_stable(&self.view);
        let send_ts = self.stamp(now);
        let view = self.view.id;
        self.trace(now, |at| TraceEvent::DecisionSent {
            pid: self.pid,
            at,
            send_ts,
            view,
        });
        let d = Decision {
            sender: self.pid,
            send_ts,
            view: self.view.clone(),
            oal: self.oal.clone(),
            alive: self.my_alive(now),
        };
        let msg = Msg::Decision(d);
        self.last_ctrl_sent = Some(msg.clone());
        actions.push(Action::Broadcast(msg));
        self.last_decision_ts = send_ts;
        self.decider_due = None;
        self.arm_rotation(self.pid, send_ts);
    }

    /// Append every update of `descs` not yet ordered and not under
    /// suspicion, draining `descs`. What the appends assign is learned a
    /// run at a time: consecutive ids of one proposer land at
    /// consecutive ordinals.
    fn order_updates(&mut self, descs: &mut Vec<UpdateDesc>, now: SyncTime) {
        // The assignments appended but not yet learned: (first id,
        // first ordinal, count).
        let mut run: Option<(ProposalId, Ordinal, u64)> = None;
        for desc in descs.drain(..) {
            let id = desc.id;
            let in_run = run.is_some_and(|(first, _, n)| {
                first.proposer == id.proposer && (first.seq..first.seq + n).contains(&id.seq)
            });
            if in_run || self.buf.is_ordered(id) {
                continue; // in the window, or settled below it
            }
            if self.buf.is_locally_marked(id, now) {
                continue; // under suspicion: neither delivered nor acknowledged
            }
            let o = self.oal.append(Descriptor::update(
                id,
                desc.hdo,
                desc.semantics,
                desc.send_ts,
                self.pid,
            ));
            match &mut run {
                Some((first, at, n))
                    if first.proposer == id.proposer
                        && first.seq + *n == id.seq
                        && at.0 + *n == o.0 =>
                {
                    *n += 1
                }
                _ => {
                    if let Some((first, at, n)) = run.replace((id, o, 1)) {
                        self.buf.learn_run(first, at, n);
                    }
                }
            }
        }
        if let Some((first, at, n)) = run {
            self.buf.learn_run(first, at, n);
        }
    }

    /// Become the decider of a freshly created group (initial formation,
    /// single-failure removal, or reconfiguration): merge the oal views
    /// gathered during the election, mark §4.3 undeliverables, append the
    /// `dpd` proposals and the membership descriptor, install, and send
    /// the first decision.
    pub(crate) fn create_group(
        &mut self,
        now: SyncTime,
        members: BTreeSet<ProcessId>,
        merge: Vec<Oal>,
        dpds: Vec<UpdateDesc>,
        actions: &mut Vec<Action>,
    ) {
        debug_assert!(members.contains(&self.pid));
        let departed: BTreeSet<ProcessId> = self
            .view
            .members
            .iter()
            .copied()
            .filter(|m| !members.contains(m))
            .collect();
        let new_view = View::new(ViewId::new(self.next_view_seq(now), self.pid), members);

        for v in merge {
            // A prefix violation between election views should be
            // unreachable (the election guarantees prefixes); on one,
            // keep the history we already adopted.
            let _ = self.oal.adopt_latest(v);
        }
        self.sync_with_oal(now);
        // §4.3: mark undeliverables BEFORE appending anything new, so the
        // "highest known ordinal" is the old deciders' frontier.
        let report = undeliverable::mark_undeliverables(&mut self.oal, &new_view, &departed);
        for id in report.all_ids() {
            self.buf.purge(id);
        }
        let (lost, orphaned, unknown) = (
            report.lost.len() as u32,
            (report.orphan_order.len() + report.orphan_atomicity.len()) as u32,
            report.unknown_dependency.len() as u32,
        );
        self.last_purge = Some(report);
        // Append updates delivered by some member but never ordered.
        let mut all_dpds = dpds;
        self.buf.extend_with_dpds(&mut all_dpds);
        self.order_updates(&mut all_dpds, now);
        self.oal
            .append(Descriptor::membership(new_view.clone(), self.pid));

        self.view = new_view;
        self.views_installed += 1;
        self.trace_view_installed(now);
        let view = self.view.id;
        self.trace(now, |at| TraceEvent::Purged {
            pid: self.pid,
            at,
            view,
            lost,
            orphaned,
            unknown,
        });
        actions.push(Action::InstallView(self.view.clone()));
        self.state = CreatorState::FailureFree;
        self.suspect = None;
        self.election_oals.clear();
        self.election_dpds.clear();
        self.reconfig_heard.clear();
        self.nfail_wait = None;
        self.emit_decision(now, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use bytes::Bytes;
    use tw_proto::{AliveList, Duration, HwTime, Semantics};

    fn member_in_group(pid: u16) -> Member {
        let mut m = Member::new(
            ProcessId(pid),
            Config::for_team(3, Duration::from_millis(10)),
        )
        .unwrap();
        m.on_start(HwTime(0));
        m.force_clock_sync();
        m.view = View::new(
            ViewId::new(1, ProcessId(0)),
            [ProcessId(0), ProcessId(1), ProcessId(2)],
        );
        m.state = CreatorState::FailureFree;
        m
    }

    fn decision_from(sender: u16, ts: i64, view: &View, oal: &Oal) -> Decision {
        Decision {
            sender: ProcessId(sender),
            send_ts: SyncTime(ts),
            view: view.clone(),
            oal: oal.clone(),
            alive: AliveList::EMPTY,
        }
    }

    #[test]
    fn accepting_decision_rearms_rotation_and_assigns_role() {
        let mut m = member_in_group(1);
        let view = m.view.clone();
        let d = decision_from(0, 100, &view, &Oal::new());
        let mut actions = Vec::new();
        m.handle_decision(SyncTime(101), d, &mut actions);
        // p1 is succ(p0): assumes the decider role.
        assert!(m.is_decider());
        assert_eq!(m.watchdog.expected(), Some(ProcessId(1)));
        assert_eq!(m.last_decision_ts, SyncTime(100));
    }

    #[test]
    fn non_successor_does_not_become_decider() {
        let mut m = member_in_group(2);
        let view = m.view.clone();
        let mut actions = Vec::new();
        m.handle_decision(
            SyncTime(101),
            decision_from(0, 100, &view, &Oal::new()),
            &mut actions,
        );
        assert!(!m.is_decider());
        assert_eq!(m.watchdog.expected(), Some(ProcessId(1)));
    }

    #[test]
    fn stale_decision_ignored() {
        let mut m = member_in_group(1);
        let view = m.view.clone();
        let mut actions = Vec::new();
        m.handle_decision(
            SyncTime(101),
            decision_from(0, 100, &view, &Oal::new()),
            &mut actions,
        );
        m.decider_due = None; // pretend we handled the duty
                              // An older decision from p2 must not regress anything.
        m.handle_decision(
            SyncTime(102),
            decision_from(2, 50, &view, &Oal::new()),
            &mut actions,
        );
        assert_eq!(m.last_decision_ts, SyncTime(100));
        assert!(!m.is_decider());
    }

    #[test]
    fn excluding_view_sends_member_to_join() {
        let mut m = member_in_group(2);
        let smaller = View::new(ViewId::new(2, ProcessId(0)), [ProcessId(0), ProcessId(1)]);
        let mut actions = Vec::new();
        m.handle_decision(
            SyncTime(101),
            decision_from(0, 100, &smaller, &Oal::new()),
            &mut actions,
        );
        assert_eq!(m.state(), CreatorState::Join);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::LeftGroup {
                reason: LeaveReason::Excluded
            }
        )));
    }

    #[test]
    fn emit_decision_orders_pending_proposals() {
        let mut m = member_in_group(0); // rank 0: clock synced as source
        m.propose(HwTime(1), Bytes::from_static(b"x"), Semantics::TOTAL_STRONG)
            .unwrap();
        let mut actions = Vec::new();
        m.emit_decision(SyncTime(50), &mut actions);
        let Some(Action::Broadcast(Msg::Decision(d))) = actions
            .iter()
            .find(|a| matches!(a, Action::Broadcast(Msg::Decision(_))))
        else {
            panic!("no decision broadcast");
        };
        assert_eq!(d.oal.len(), 1, "pending proposal ordered");
        assert_eq!(d.sender, ProcessId(0));
        assert!(!m.is_decider(), "role relinquished after sending");
    }

    #[test]
    fn emit_decision_orders_dpd_updates() {
        let mut m = member_in_group(0);
        // A weak unordered update delivered before ordering:
        m.propose(
            HwTime(1),
            Bytes::from_static(b"x"),
            Semantics::UNORDERED_WEAK,
        )
        .unwrap();
        assert_eq!(m.dpd_field().len(), 1);
        let mut actions = Vec::new();
        m.emit_decision(SyncTime(50), &mut actions);
        assert!(m.dpd_field().is_empty(), "ordered now");
        assert_eq!(m.oal.len(), 1);
    }

    #[test]
    fn create_group_removes_and_purges() {
        let mut m = member_in_group(0);
        // p2's proposal nobody received (only its own ack would exist;
        // we emulate by appending a descriptor with no survivor acks).
        let mut d = Descriptor::update(
            tw_proto::ProposalId::new(ProcessId(2), 1),
            tw_proto::Ordinal::ZERO,
            Semantics::UNORDERED_WEAK,
            SyncTime(1),
            ProcessId(2),
        );
        d.acks = tw_proto::AckBits::EMPTY;
        m.oal.append(d);
        let survivors: BTreeSet<_> = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let mut actions = Vec::new();
        m.create_group(SyncTime(100), survivors, vec![], vec![], &mut actions);
        assert_eq!(m.view().len(), 2);
        assert!(!m.view().contains(ProcessId(2)));
        assert_eq!(m.view().id.seq, 2);
        let purge = m.last_purge().unwrap();
        assert_eq!(purge.lost.len(), 1);
        // First decision of the new group broadcast.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::Decision(_)))));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::InstallView(v) if v.len() == 2)));
    }

    #[test]
    fn suspect_decision_moves_receiver_to_wrong_suspicion() {
        let mut m = member_in_group(2);
        m.enter_single_failure(CreatorState::OneFailureReceive, ProcessId(0));
        let view = m.view.clone();
        let mut actions = Vec::new();
        m.handle_decision(
            SyncTime(101),
            decision_from(0, 100, &view, &Oal::new()),
            &mut actions,
        );
        assert_eq!(m.state(), CreatorState::WrongSuspicion);
        assert_eq!(m.suspect, Some(ProcessId(0)));
    }
}
