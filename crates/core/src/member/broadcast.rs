//! Broadcast-side behaviour of a member: proposing updates, buffering
//! received proposals, driving deliveries, and join-time state transfer.

use super::{CreatorState, Gaps, Member};
use crate::events::Action;
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use tw_proto::frame::MAX_OAL_WINDOW;
use tw_proto::{
    Descriptor, DescriptorBody, HwTime, Msg, Ordinal, ProcessId, Proposal, ProposalId, Semantics,
    StateTransfer, SyncTime,
};

/// Why a propose call was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposeError {
    /// The member is not currently in a group.
    NotMember,
    /// The member's clock is not synchronized.
    NotSynced,
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProposeError::NotMember => "not a group member",
            ProposeError::NotSynced => "clock not synchronized",
        })
    }
}

impl std::error::Error for ProposeError {}

impl Member {
    /// Broadcast a client update with the given semantics.
    ///
    /// A broadcast may be initiated by a member at any time (paper §2);
    /// the update's `hdo` is the highest ordinal this member currently
    /// knows, which is what its delivery may be predicated on.
    pub fn propose(
        &mut self,
        now_hw: HwTime,
        payload: Bytes,
        semantics: Semantics,
    ) -> Result<Vec<Action>, ProposeError> {
        self.propose_batch(now_hw, std::iter::once((payload, semantics)))
    }

    /// Broadcast a batch of client updates in one dispatch.
    ///
    /// The pending-proposal drain of the hot path: every queued update
    /// shares one clock read and one delivery pass, and the contiguous
    /// `Broadcast` actions let the runtime coalesce the whole batch into
    /// a single multi-frame datagram per destination. Each proposal still
    /// gets its own strictly-increasing `send_ts` (receivers dedup on
    /// timestamps) and its own sequence number, so the per-sender FIFO
    /// order and the §3 total order are exactly those of sequential
    /// `propose` calls. An empty batch is a no-op returning no actions.
    pub fn propose_batch(
        &mut self,
        now_hw: HwTime,
        batch: impl IntoIterator<Item = (Bytes, Semantics)>,
    ) -> Result<Vec<Action>, ProposeError> {
        self.trace_hw = now_hw;
        let now = self.clock.read(now_hw).ok_or(ProposeError::NotSynced)?;
        if self.view.is_empty() || !self.view.contains(self.pid) {
            return Err(ProposeError::NotMember);
        }
        let mut actions = Vec::new();
        for (payload, semantics) in batch {
            self.my_seq += 1;
            let send_ts = self.stamp(now);
            let hdo = self
                .oal
                .highest_ordinal()
                .unwrap_or(tw_proto::Ordinal::ZERO);
            let p = Proposal {
                sender: self.pid,
                incarnation: self.incarnation,
                seq: self.my_seq,
                send_ts,
                hdo,
                semantics,
                payload,
            };
            actions.push(Action::Broadcast(Msg::Proposal(p.clone())));
            self.buf.insert(p);
        }
        if !actions.is_empty() {
            self.try_deliver(now, &mut actions);
        }
        Ok(actions)
    }

    /// How many more proposals this member may take before the next
    /// decision risks outgrowing the wire: half of [`MAX_OAL_WINDOW`]
    /// (the most descriptors a receiver accepts) minus what that decision
    /// may carry — the window, the updates delivered before ordering, and
    /// the pending proposals. Zero when full. A host that stops taking
    /// proposals at zero turns overload into client latency instead of a
    /// decision every receiver refuses.
    pub fn proposal_room(&self) -> usize {
        let carried = self.oal.len() + self.dpd_descs.len() + self.buf.pending_len();
        (MAX_OAL_WINDOW / 2).saturating_sub(carried)
    }

    /// Store a received proposal; §4.3 marks apply if it arrives from a
    /// currently suspected process after we asked for its removal.
    pub(crate) fn handle_proposal(&mut self, now: SyncTime, p: Proposal, _actions: &mut [Action]) {
        let id = p.id();
        if !self.buf.insert(p) {
            return;
        }
        // "p marks all those proposals undeliverable that are proposed by
        // q and are received after p has sent the no-decision or
        // reconfiguration message" (§4.3).
        if let (Some(suspect), Some(_)) = (self.suspect, self.sent_nd_at) {
            if id.proposer == suspect {
                self.buf.mark_local(id, now + self.cfg.cycle());
            }
        }
    }

    /// Drive deliveries to a fixpoint: deliver the first deliverable
    /// pending proposal in id order, re-evaluate, until none is. Only a
    /// proposer's FIFO head can be deliverable, so each round tests at
    /// most one proposal per proposer against the frontier.
    pub(crate) fn try_deliver(&mut self, now: SyncTime, actions: &mut Vec<Action>) {
        if self.view.is_empty() {
            return;
        }
        loop {
            self.frontier.advance(&self.oal, &self.view, &self.buf);
            let next = self.buf.heads().find_map(|p| {
                let ordinal = self.ordinal_of(p.id());
                self.frontier
                    .deliverable(&self.oal, &self.buf, &self.cfg, now, p, ordinal)
                    .then_some((p.id(), ordinal))
            });
            #[cfg(any(test, debug_assertions))]
            assert_eq!(
                next.map(|(id, _)| id),
                crate::delivery::next_deliverable(&self.oal, &self.buf, &self.view, &self.cfg, now),
                "frontier and reference scan disagree on the next delivery ({:?})",
                self.frontier
            );
            let Some((id, ordinal)) = next else {
                break;
            };
            let p = self.buf.deliver(id);
            // Delivered is received for good: never asked for again.
            self.nack_last.remove(&id);
            if ordinal.is_none() {
                // Delivered before ordering: remember its descriptor for
                // the dpd field of control messages (§4.3).
                self.dpd_descs.insert(id, p.desc());
            }
            self.delivered_count += 1;
            let (semantics, send_ts, view) = (p.semantics, p.send_ts, self.view.id);
            self.trace(now, |at| tw_obs::TraceEvent::Delivered {
                pid: self.pid,
                at,
                id,
                ordinal,
                semantics,
                send_ts,
                view,
            });
            actions.push(Action::Deliver(crate::events::Delivery {
                id,
                ordinal,
                semantics: p.semantics,
                send_ts: p.send_ts,
                payload: p.payload,
            }));
        }
    }

    /// Current `dpd` field content: descriptors of updates delivered
    /// before any decider ordered them.
    pub(crate) fn dpd_field(&self) -> Vec<tw_proto::UpdateDesc> {
        self.dpd_descs.values().copied().collect()
    }

    /// Join-time state transfer from the integrating decider. Accepted in
    /// join state, or just after (the integrating decision may outrace
    /// the transfer on the wire) when it names our current view.
    pub(crate) fn handle_state_transfer(
        &mut self,
        _now: SyncTime,
        st: StateTransfer,
        actions: &mut Vec<Action>,
    ) {
        let acceptable = self.state == CreatorState::Join || st.view_id == self.view.id;
        if st.to != self.pid || !acceptable || self.transferred_state.is_some() {
            return;
        }
        actions.push(Action::InstallAppState(st.app_state.clone()));
        self.transferred_state = Some(st.app_state);
        for (p, next) in st.fifo {
            self.buf.set_fifo_cursor(p, next);
        }
        self.nack_gaps = None; // the cursors may have un-received ordered proposals
        for p in st.proposals {
            self.buf.insert(p);
        }
        // Assignments of shipped proposals already outside the oal
        // window: learn them so they are never re-ordered.
        for (id, o) in st.ordinals {
            self.buf.learn_ordinal(id, o);
        }
    }

    /// Periodic loss repair: if the oal orders proposals we never
    /// received, ask a member that acknowledged them to retransmit
    /// (rate-limited to one request per proposal per `2D`). Walks the
    /// gaps only, not the window.
    pub(crate) fn maybe_nack(&mut self, now: SyncTime, actions: &mut Vec<Action>) {
        if self.nack_gaps.is_none() {
            self.nack_gaps = Some(Gaps {
                ordinals: self.unreceived_in_window(),
                ..Gaps::default()
            });
        }
        let mut last = std::mem::take(&mut self.nack_last);
        #[cfg(any(test, debug_assertions))]
        let reference = {
            crate::delivery::visited(self.oal.len());
            let mut last = last.clone();
            let window = self.oal.iter().map(|(_, d)| d);
            (self.nack_requests(window, now, &mut last), last)
        };
        let gaps = self.nack_gaps.iter().flat_map(|g| &g.ordinals);
        let requests = self.nack_requests(gaps.filter_map(|o| self.oal.get(*o)), now, &mut last);
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            (&requests, &last),
            (&reference.0, &reference.1),
            "gap set and window scan disagree on what to ask for ({:?})",
            self.nack_gaps
        );
        self.nack_last = last;
        for (holder, missing) in requests {
            let send_ts = self.stamp(now);
            actions.push(Action::Send(
                holder,
                Msg::Nack(tw_proto::Nack {
                    sender: self.pid,
                    send_ts,
                    missing,
                }),
            ));
        }
    }

    /// Ordinals of the window's deliverable updates we have not received.
    fn unreceived_in_window(&self) -> BTreeSet<Ordinal> {
        self.oal
            .iter()
            .filter(|(_, d)| match &d.body {
                DescriptorBody::Update { id, .. } => {
                    !d.undeliverable && !self.buf.has_received(*id)
                }
                DescriptorBody::Membership(_) => false,
            })
            .map(|(o, _)| o)
            .collect()
    }

    /// The NACK rule over `descs`, in order: whom to ask for which missing
    /// update. Requests made are stamped into `nack_last`.
    fn nack_requests<'a>(
        &self,
        descs: impl Iterator<Item = &'a Descriptor>,
        now: SyncTime,
        nack_last: &mut BTreeMap<ProposalId, SyncTime>,
    ) -> BTreeMap<ProcessId, Vec<ProposalId>> {
        let retry = self.cfg.big_d * 2;
        let mut requests: BTreeMap<ProcessId, Vec<ProposalId>> = BTreeMap::new();
        for desc in descs {
            let DescriptorBody::Update { id, .. } = &desc.body else {
                continue;
            };
            if desc.undeliverable
                || self.buf.has_received(*id)
                || self.buf.is_locally_marked(*id, now)
            {
                continue;
            }
            if let Some(&last) = nack_last.get(id) {
                if now - last < retry {
                    continue;
                }
            }
            // Ask the lowest-ranked acknowledged holder (≠ me).
            let holder = self
                .view
                .members
                .iter()
                .copied()
                .find(|m| *m != self.pid && desc.acks.contains(*m));
            if let Some(h) = holder {
                nack_last.insert(*id, now);
                requests.entry(h).or_default().push(*id);
            }
        }
        requests
    }

    /// Answer a retransmission request with whatever we still hold.
    pub(crate) fn handle_nack(&mut self, nack: tw_proto::Nack, actions: &mut Vec<Action>) {
        for id in nack.missing {
            if let Some(p) = self.buf.retrieve(id) {
                actions.push(Action::Send(nack.sender, Msg::Proposal(p.clone())));
            }
        }
    }

    /// Build the state transfer for a joiner (decider side).
    pub(crate) fn build_state_transfer(&self, to: ProcessId) -> StateTransfer {
        let proposals: Vec<_> = self.buf.pending().cloned().collect();
        let ordinals = proposals
            .iter()
            .filter_map(|p| self.buf.ordinal_of(p.id()).map(|o| (p.id(), o)))
            .collect();
        StateTransfer {
            sender: self.pid,
            to,
            view_id: self.view.id,
            app_state: self.app_snapshot.clone(),
            proposals,
            fifo: self.buf.fifo_cursors(),
            ordinals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use tw_proto::{Atomicity, Duration, Oal, View, ViewId};

    fn synced_member(pid: u16) -> Member {
        let mut m = Member::new(
            tw_proto::ProcessId(pid),
            Config::for_team(3, Duration::from_millis(10)),
        )
        .unwrap();
        m.on_start(HwTime(0));
        m.force_clock_sync();
        m
    }

    /// Force p into a group with a synchronized clock (unit-test shortcut;
    /// integration tests build groups the honest way).
    fn in_group(m: &mut Member) {
        m.view = View::new(
            ViewId::new(1, tw_proto::ProcessId(0)),
            [
                tw_proto::ProcessId(0),
                tw_proto::ProcessId(1),
                tw_proto::ProcessId(2),
            ],
        );
        m.state = CreatorState::FailureFree;
    }

    #[test]
    fn propose_requires_sync() {
        let mut m = Member::new(
            tw_proto::ProcessId(1),
            Config::for_team(3, Duration::from_millis(10)),
        )
        .unwrap();
        m.on_start(HwTime(0)); // rank 1: unsynced at start
        in_group(&mut m);
        let r = m.propose(
            HwTime(1),
            Bytes::from_static(b"x"),
            Semantics::UNORDERED_WEAK,
        );
        assert_eq!(r.unwrap_err(), ProposeError::NotSynced);
    }

    #[test]
    fn propose_requires_membership() {
        let mut m = synced_member(0); // rank 0: source, synced
        let r = m.propose(
            HwTime(1),
            Bytes::from_static(b"x"),
            Semantics::UNORDERED_WEAK,
        );
        assert_eq!(r.unwrap_err(), ProposeError::NotMember);
    }

    #[test]
    fn propose_broadcasts_and_self_delivers_weak() {
        let mut m = synced_member(0);
        in_group(&mut m);
        let actions = m
            .propose(
                HwTime(1),
                Bytes::from_static(b"x"),
                Semantics::UNORDERED_WEAK,
            )
            .unwrap();
        assert!(matches!(actions[0], Action::Broadcast(Msg::Proposal(_))));
        // Weak unordered: own update delivers immediately.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Deliver(d) if d.payload == Bytes::from_static(b"x"))));
        assert_eq!(m.delivered_count(), 1);
    }

    #[test]
    fn propose_seq_increments() {
        let mut m = synced_member(0);
        in_group(&mut m);
        m.propose(HwTime(1), Bytes::new(), Semantics::UNORDERED_WEAK)
            .unwrap();
        m.propose(HwTime(2), Bytes::new(), Semantics::UNORDERED_WEAK)
            .unwrap();
        assert_eq!(m.my_seq, 2);
    }

    #[test]
    fn delivered_before_ordering_lands_in_dpd() {
        let mut m = synced_member(0);
        in_group(&mut m);
        m.propose(
            HwTime(1),
            Bytes::from_static(b"x"),
            Semantics::UNORDERED_WEAK,
        )
        .unwrap();
        assert_eq!(m.dpd_field().len(), 1);
    }

    #[test]
    fn proposal_room_counts_what_the_next_decision_carries() {
        const HALF: usize = MAX_OAL_WINDOW / 2;
        let mut m = synced_member(0);
        in_group(&mut m);
        assert_eq!(m.proposal_room(), HALF);
        // Delivered before it is ordered: no longer pending, but it rides
        // in the next decision all the same.
        m.propose(HwTime(1), Bytes::new(), Semantics::UNORDERED_WEAK)
            .unwrap();
        assert_eq!((m.buf.pending_len(), m.dpd_field().len()), (0, 1));
        assert_eq!(m.proposal_room(), HALF - 1);
        // Pending, waiting for its ordinal.
        m.propose(HwTime(2), Bytes::new(), Semantics::TOTAL_STRONG)
            .unwrap();
        assert_eq!(m.proposal_room(), HALF - 2);
        // In the window.
        order(&mut m.oal, P1, 1, Semantics::UNORDERED_WEAK, &[P1]);
        assert_eq!(m.proposal_room(), HALF - 3);
    }

    #[test]
    fn proposal_room_saturates_at_zero() {
        let mut m = synced_member(0);
        in_group(&mut m);
        for seq in 1..=(MAX_OAL_WINDOW / 2 + 10) as u64 {
            order(&mut m.oal, P1, seq, Semantics::UNORDERED_WEAK, &[P1]);
        }
        assert_eq!(m.proposal_room(), 0);
    }

    #[test]
    fn state_transfer_only_for_me_in_join() {
        let mut m = synced_member(0);
        let st = StateTransfer {
            sender: tw_proto::ProcessId(1),
            to: tw_proto::ProcessId(2), // not me
            view_id: ViewId::new(1, tw_proto::ProcessId(1)),
            app_state: Bytes::from_static(b"s"),
            proposals: vec![],
            fifo: vec![],
            ordinals: vec![],
        };
        m.handle_state_transfer(SyncTime(0), st.clone(), &mut Vec::new());
        assert!(m.take_transferred_state().is_none());
        let st2 = StateTransfer {
            to: tw_proto::ProcessId(0),
            ..st
        };
        m.handle_state_transfer(SyncTime(0), st2, &mut Vec::new());
        assert_eq!(m.take_transferred_state(), Some(Bytes::from_static(b"s")));
    }

    #[test]
    fn build_state_transfer_carries_pending_and_fifo() {
        let mut m = synced_member(0);
        in_group(&mut m);
        m.propose(HwTime(1), Bytes::from_static(b"x"), Semantics::TOTAL_STRONG)
            .unwrap(); // total: stays pending (no ordinal yet)
        let st = m.build_state_transfer(tw_proto::ProcessId(2));
        assert_eq!(st.proposals.len(), 1);
        assert_eq!(st.to, tw_proto::ProcessId(2));
    }

    #[test]
    fn proposal_from_suspect_after_nd_marked() {
        let mut m = synced_member(0);
        in_group(&mut m);
        m.suspect = Some(tw_proto::ProcessId(1));
        m.sent_nd_at = Some(SyncTime(0));
        let p = Proposal {
            sender: tw_proto::ProcessId(1),
            incarnation: tw_proto::Incarnation(0),
            seq: 1,
            send_ts: SyncTime(1),
            hdo: tw_proto::Ordinal::ZERO,
            semantics: Semantics::UNORDERED_WEAK,
            payload: Bytes::new(),
        };
        m.handle_proposal(SyncTime(2), p.clone(), &mut []);
        assert!(m.buf.is_locally_marked(p.id(), SyncTime(3)));
        // And therefore not delivered by try_deliver.
        let mut actions = Vec::new();
        m.try_deliver(SyncTime(3), &mut actions);
        assert!(actions.is_empty());
    }

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);
    const STRONG: Semantics = Semantics::new(tw_proto::Ordering::Unordered, Atomicity::Strong);

    /// Order a (never received) update of `proposer` in `oal`,
    /// acknowledged by `acks`.
    fn order(oal: &mut Oal, proposer: ProcessId, seq: u64, sem: Semantics, acks: &[ProcessId]) {
        let id = ProposalId::new(proposer, seq);
        let mut d = Descriptor::update(id, Ordinal(1), sem, SyncTime(1), proposer);
        d.acks = acks.iter().copied().collect();
        oal.append(d);
    }

    fn proposal(sender: ProcessId, seq: u64, semantics: Semantics, hdo: Ordinal) -> Proposal {
        Proposal {
            sender,
            incarnation: tw_proto::Incarnation(0),
            seq,
            send_ts: SyncTime(1),
            hdo,
            semantics,
            payload: Bytes::new(),
        }
    }

    fn decision(sender: ProcessId, ts: i64, view: &View, oal: &Oal) -> Msg {
        Msg::Decision(tw_proto::Decision {
            sender,
            send_ts: SyncTime(ts),
            view: view.clone(),
            oal: oal.clone(),
            alive: tw_proto::AliveList::EMPTY,
        })
    }

    /// p0 in {p0, p1, p2} whose window holds one update of p1's that p1
    /// and p2 acknowledged, with the frontier advanced past it.
    fn member_past_a_majority_acked_update() -> Member {
        let mut m = synced_member(0);
        in_group(&mut m);
        order(&mut m.oal, P1, 1, Semantics::UNORDERED_WEAK, &[P1, P2]);
        m.sync_with_oal(SyncTime(1));
        m.try_deliver(SyncTime(1), &mut Vec::new());
        m
    }

    /// Propose a strong update depending on ordinal 1; was it delivered?
    fn strong_on_first_ordinal_delivers(m: &mut Member) -> bool {
        let actions = m
            .propose(HwTime(50), Bytes::from_static(b"s"), STRONG)
            .unwrap();
        actions.iter().any(|a| matches!(a, Action::Deliver(_)))
    }

    #[test]
    fn majority_acked_dependency_releases_a_strong_update() {
        let mut m = member_past_a_majority_acked_update();
        assert!(strong_on_first_ordinal_delivers(&mut m));
    }

    #[test]
    fn view_change_that_shrinks_a_majority_holds_strong_updates_back() {
        let mut m = member_past_a_majority_acked_update();
        // {p1, p2} was a majority of the old view; neither is in the next.
        let next = View::new(ViewId::new(2, P1), [P0, ProcessId(3), ProcessId(4)]);
        let oal = m.oal.clone();
        m.on_message(HwTime(10), P1, decision(P1, 10, &next, &oal));
        assert_eq!(m.view.id, next.id);
        assert!(!strong_on_first_ordinal_delivers(&mut m));
    }

    #[test]
    fn oal_replaced_on_prefix_violation_holds_strong_updates_back() {
        let mut m = member_past_a_majority_acked_update();
        // The next decider's lineage has a different, barely acknowledged
        // update at ordinal 1: ours is void, and so is what the frontier
        // knew about it.
        let mut other = Oal::new();
        order(&mut other, P2, 1, Semantics::UNORDERED_WEAK, &[P2]);
        let view = m.view.clone();
        m.on_message(HwTime(10), P1, decision(P1, 10, &view, &other));
        assert_eq!(m.oal, other, "taken wholesale");
        assert!(!strong_on_first_ordinal_delivers(&mut m));
    }

    #[test]
    fn recovery_forgets_the_frontier() {
        let mut m = member_past_a_majority_acked_update();
        m.on_recover(HwTime(10));
        m.force_clock_sync();
        // Back in a view of the same id (FIFO cursor in the new life's
        // band, as a state transfer leaves it), over a fresh window whose
        // first update only its proposer holds.
        in_group(&mut m);
        m.buf.note_incarnation(P0, m.incarnation);
        order(&mut m.oal, P1, 1, Semantics::UNORDERED_WEAK, &[P1]);
        m.sync_with_oal(SyncTime(11));
        assert!(!strong_on_first_ordinal_delivers(&mut m));
        m.oal.ack(Ordinal(1), P2);
        assert!(
            strong_on_first_ordinal_delivers(&mut m),
            "held for want of acks only"
        );
    }

    #[test]
    fn nack_bookkeeping_ends_with_delivery_or_pruning() {
        let mut m = synced_member(0);
        in_group(&mut m);
        // Two ordered updates of p1's that we never received: a weak one,
        // and a strong one that will wait for a majority once it arrives.
        order(&mut m.oal, P1, 1, Semantics::UNORDERED_WEAK, &[P1]);
        order(&mut m.oal, P1, 2, STRONG, &[P1]);
        m.sync_with_oal(SyncTime(1));
        let mut actions = Vec::new();
        m.maybe_nack(SyncTime(2), &mut actions);
        let asked: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(to, Msg::Nack(n)) => Some((*to, n.missing.clone())),
                _ => None,
            })
            .collect();
        let (weak, strong) = (ProposalId::new(P1, 1), ProposalId::new(P1, 2));
        assert_eq!(asked, vec![(P1, vec![weak, strong])]);
        assert_eq!(m.nack_last.len(), 2);
        // Asked again at once: rate-limited.
        let mut again = Vec::new();
        m.maybe_nack(SyncTime(3), &mut again);
        assert!(again.is_empty());
        // Both arrive. The weak one delivers and is forgotten; the strong
        // one stays pending, and so does its entry (a pending proposal
        // can still be dropped by a state transfer's FIFO cursors).
        for (seq, sem) in [(1, Semantics::UNORDERED_WEAK), (2, STRONG)] {
            let p = proposal(P1, seq, sem, Ordinal(2));
            m.on_message(HwTime(4), P1, Msg::Proposal(p));
        }
        assert!(m.buf.is_delivered(weak) && m.buf.has_pending(strong));
        assert_eq!(m.nack_last.keys().collect::<Vec<_>>(), vec![&strong]);
        // The next decision has pruned both descriptors.
        let mut pruned = Oal::new();
        pruned.restore(Ordinal(3), vec![]);
        let view = m.view.clone();
        m.on_message(HwTime(10), P1, decision(P1, 10, &view, &pruned));
        assert_eq!(m.oal.base(), Ordinal(3));
        assert!(m.nack_last.is_empty(), "{:?}", m.nack_last);
    }

    #[test]
    fn delivery_and_nack_cost_is_flat_in_backlog() {
        use crate::delivery::VISITS;
        const WINDOW: u64 = 2_000;
        let mut m = synced_member(0);
        in_group(&mut m);
        // A window of 2 000 updates of p1's, all received and delivered
        // here and acknowledged by everyone (only a decider prunes)...
        for seq in 1..=WINDOW {
            order(&mut m.oal, P1, seq, Semantics::TOTAL_STRONG, &[P0, P1, P2]);
            m.buf
                .insert(proposal(P1, seq, Semantics::TOTAL_STRONG, Ordinal::ZERO));
            m.buf.deliver(ProposalId::new(P1, seq));
        }
        m.sync_with_oal(SyncTime(1));
        // ...and 500 proposals of p2's stuck behind the one that is missing.
        for seq in 2..=501 {
            m.buf
                .insert(proposal(P2, seq, Semantics::TOTAL_STRONG, Ordinal::ZERO));
        }
        assert_eq!((m.oal.len() as u64, m.buf.pending_len()), (WINDOW, 500));
        m.on_tick(HwTime(10)); // walk the window once
        assert!(m.buf.heads().count() <= m.view.len());

        let count = |m: &mut Member, event: &dyn Fn(&mut Member)| {
            m.frontier.visits = 0;
            VISITS.with(|v| v.set(0));
            event(m);
            (m.frontier.visits, VISITS.with(|v| v.get()))
        };
        let (fast, reference) = count(&mut m, &|m| {
            m.on_tick(HwTime(20));
        });
        assert_eq!(fast, 0, "on_tick walked the window");
        assert!(reference >= WINDOW, "{reference}");
        let (fast, reference) = count(&mut m, &|m| {
            let weak = Semantics::UNORDERED_WEAK;
            let actions = m.propose(HwTime(30), Bytes::new(), weak).unwrap();
            assert!(actions.iter().any(|a| matches!(a, Action::Deliver(_))));
        });
        assert_eq!(fast, 0, "propose walked the window");
        assert!(reference >= WINDOW, "{reference}");
    }

    #[test]
    fn member_state_is_flat_in_history() {
        const UPDATES: u64 = 21_000;
        const CHUNK: u64 = 1_000;
        let mut m = synced_member(0);
        in_group(&mut m);
        let view = m.view.clone();
        // 21 000 updates of p1's, received, delivered and acknowledged by
        // everyone, the window pruned (as a decider would) every thousand
        // — all but the last thousand...
        for seq in 1..=UPDATES {
            order(&mut m.oal, P1, seq, Semantics::TOTAL_STRONG, &[P0, P1, P2]);
            m.buf
                .insert(proposal(P1, seq, Semantics::TOTAL_STRONG, Ordinal::ZERO));
            m.buf.deliver(ProposalId::new(P1, seq));
            if seq % CHUNK == 0 {
                m.sync_with_oal(SyncTime(1));
                if seq < UPDATES {
                    m.oal.prune_stable(&view);
                }
            }
        }
        // ...and 100 proposals of p2's stuck behind the missing first one.
        for seq in 2..=101 {
            m.buf
                .insert(proposal(P2, seq, Semantics::TOTAL_STRONG, Ordinal::ZERO));
        }
        m.sync_with_oal(SyncTime(2));
        let bound = m.oal.len() + m.buf.pending_len();
        assert_eq!(bound, 1_100);
        let ([ordinals, index, archive], delivered, settled) = m.buf.footprint();
        assert!(
            ordinals <= bound && index <= bound && archive <= bound,
            "{ordinals} assignments, {index} indexed, {archive} archived \
             for a window of {} and {} pending",
            m.oal.len(),
            m.buf.pending_len()
        );
        assert_eq!(
            (delivered, settled),
            (1, 1),
            "runs of delivered, settled ids"
        );
        // What settled is still known to be ordered: no decider here will
        // order it again.
        assert!(m.buf.is_ordered(ProposalId::new(P1, 1)));
        assert_eq!(m.ordinal_of(ProposalId::new(P1, 1)), None);
    }
}
