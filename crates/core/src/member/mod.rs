//! The protocol participant: failure detector + group creator + broadcast.
//!
//! [`Member`] is the sans-I/O composition of everything one team member
//! runs: the fail-aware clock, the failure detector's expected-sender
//! watchdog and alive-list, the six-state group creator of the paper's
//! Fig. 2, and the timewheel atomic broadcast pipeline. Hosts feed it
//! four kinds of events — start/recover, protocol ticks, clock-sync
//! ticks, and received messages — plus client `propose` calls, and apply
//! the returned [`Action`]s.
//!
//! The group-creator state machine (Fig. 2):
//!
//! ```text
//!        ┌──────┐   D (me ∈ view) / created group
//!        │ Join │ ─────────────────────────────► FailureFree ◄────┐
//!        └──────┘                                 │  ▲  │          │ D
//!            ▲      timeout, me=succ(suspect)     │  │  └── ND(expected) ──► WrongSuspicion
//!            │           ┌───────────────────────┘  │D                     │ ND(pred) → decider
//!   D(all) & me ∉ view   ▼                           │                      ▼
//!        ┌──────────┐  1-failure-send ◄── ND(pred) ── 1-failure-receive     │
//!        │ NFailure │ ◄── timeout / R ──── (both) ◄──────────────────┘      │
//!        └──────────┘ ── created group / D(me ∈ view) ──► FailureFree ◄─────┘
//! ```

/// Broadcast-side member behaviour (public for its [`ProposeError`]).
pub mod broadcast;
mod decider;
mod join;
mod nfailure;
mod single;

pub use broadcast::ProposeError;

use crate::buffers::ProposalBuffer;
use crate::config::Config;
use crate::delivery::Frontier;
use crate::detector::{AliveTracker, ExpectedSender};
use crate::events::{Action, LeaveReason, MemberObservation};
use crate::undeliverable::PurgeReport;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::ops::Range;
use tw_clock::{ClockAction, ClockEvent, FailAwareClock};
use tw_obs::{ClockStamp, TraceEvent, Tracer};
use tw_proto::{
    AliveList, HwTime, Incarnation, Msg, Oal, Ordinal, ProcessId, ProposalId, SyncTime, UpdateDesc,
    View,
};

/// The six states of the group creator (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreatorState {
    /// Not in any group; sending join messages in own slots.
    Join,
    /// Normal operation: the decider rotation is healthy.
    FailureFree,
    /// A single failure was suspected, and this member does *not* concur
    /// (it holds the allegedly missed decision).
    WrongSuspicion,
    /// A single failure was suspected; this member concurs but has not
    /// yet sent its no-decision message.
    OneFailureReceive,
    /// A single failure was suspected; this member has sent its
    /// no-decision message.
    OneFailureSend,
    /// Multiple failures: slotted reconfiguration election in progress.
    NFailure,
}

impl CreatorState {
    /// Static label for traces and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            CreatorState::Join => "join",
            CreatorState::FailureFree => "failure-free",
            CreatorState::WrongSuspicion => "wrong-suspicion",
            CreatorState::OneFailureReceive => "1-failure-receive",
            CreatorState::OneFailureSend => "1-failure-send",
            CreatorState::NFailure => "n-failure",
        }
    }

    /// Is this one of the single-failure election states?
    pub fn in_single_failure_election(self) -> bool {
        matches!(
            self,
            CreatorState::WrongSuspicion
                | CreatorState::OneFailureReceive
                | CreatorState::OneFailureSend
        )
    }
}

/// A remembered join message.
#[derive(Debug, Clone)]
pub(crate) struct JoinRecord {
    pub incarnation: Incarnation,
    pub ts: SyncTime,
    pub set: std::collections::BTreeSet<ProcessId>,
}

/// A remembered reconfiguration message.
#[derive(Debug, Clone)]
pub(crate) struct ReconfigRecord {
    pub ts: SyncTime,
    pub list: std::collections::BTreeSet<ProcessId>,
    pub last_decision_ts: SyncTime,
    pub oal: Oal,
    pub dpd: Vec<UpdateDesc>,
}

/// One team member's full protocol state.
#[derive(Debug, Clone)]
pub struct Member {
    pub(crate) cfg: Config,
    pub(crate) pid: ProcessId,
    pub(crate) incarnation: Incarnation,
    pub(crate) clock: FailAwareClock,
    pub(crate) state: CreatorState,
    pub(crate) alive: AliveTracker,
    pub(crate) watchdog: ExpectedSender,
    /// Latest alive-list received from each member (piggybacked on
    /// control messages) — drives join integration.
    pub(crate) peer_alive: BTreeMap<ProcessId, AliveList>,
    /// Current group (empty before the first view).
    pub(crate) view: View,
    pub(crate) oal: Oal,
    pub(crate) last_decision_ts: SyncTime,
    /// When I must emit my decision (set on assuming the decider role).
    pub(crate) decider_due: Option<SyncTime>,
    pub(crate) my_seq: u64,
    /// Timestamp of the last message this member sent; outgoing
    /// timestamps are forced strictly increasing (receivers reject
    /// non-increasing control timestamps as duplicates).
    pub(crate) last_sent_ts: SyncTime,
    /// Received, delivered and ordered proposals, and the `dpd` pool.
    pub(crate) buf: ProposalBuffer,
    /// What the decision being emitted must order; empty between
    /// decisions, kept for its allocation.
    pub(crate) to_order: Vec<UpdateDesc>,
    /// How far into the oal window each delivery condition holds
    /// (derived from `oal`, `view` and `buf`; see [`Frontier`]).
    pub(crate) frontier: Frontier,
    /// The window [`Member::sync_with_oal`] last walked; empty after
    /// anything that voids what it learned, so the next sync walks all.
    pub(crate) synced: Range<Ordinal>,
    /// Application snapshot the host keeps fresh, shipped to joiners.
    pub(crate) app_snapshot: Bytes,
    /// Application state received via state transfer (host consumes it).
    pub(crate) transferred_state: Option<Bytes>,
    // --- join state ---
    pub(crate) join_heard: BTreeMap<ProcessId, JoinRecord>,
    pub(crate) last_join_slot: i64,
    // --- single-failure election ---
    pub(crate) suspect: Option<ProcessId>,
    pub(crate) sent_nd_at: Option<SyncTime>,
    pub(crate) last_ctrl_sent: Option<Msg>,
    /// oal views and dpds gathered from this election's ND messages.
    pub(crate) election_oals: Vec<Oal>,
    pub(crate) election_dpds: BTreeMap<ProposalId, UpdateDesc>,
    // --- n-failure ---
    pub(crate) reconfig_heard: BTreeMap<ProcessId, ReconfigRecord>,
    pub(crate) last_reconfig_slot: i64,
    pub(crate) cooldown_until: SyncTime,
    /// A new group formed without me: wait for decisions from all its
    /// members before going back to join (paper §4.2 n-failure).
    pub(crate) nfail_wait: Option<(View, std::collections::BTreeSet<ProcessId>)>,
    // --- observability ---
    /// Updates delivered so far.
    pub(crate) delivered_count: u64,
    /// Views installed so far.
    pub(crate) views_installed: u64,
    /// The last §4.3 purge performed by this member as a new decider.
    pub(crate) last_purge: Option<PurgeReport>,
    /// Structured trace sink (disabled unless a host attaches one).
    pub(crate) tracer: Tracer,
    /// Hardware time of the entry point currently executing; pairs with
    /// the synchronized time to stamp emitted trace events.
    pub(crate) trace_hw: HwTime,
}

impl Member {
    /// Create a member with a validated configuration.
    pub fn new(pid: ProcessId, cfg: Config) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        Ok(Self::new_unchecked(pid, cfg))
    }

    /// Create a member without validating the configuration (for
    /// ablation experiments that deliberately violate the bounds).
    pub fn new_unchecked(pid: ProcessId, cfg: Config) -> Self {
        Member {
            cfg,
            pid,
            incarnation: Incarnation(0),
            clock: FailAwareClock::new(pid, cfg.clock),
            state: CreatorState::Join,
            alive: AliveTracker::new(),
            watchdog: ExpectedSender::new(),
            peer_alive: BTreeMap::new(),
            view: View::default(),
            oal: Oal::new(),
            last_decision_ts: SyncTime(i64::MIN / 2),
            decider_due: None,
            my_seq: 0,
            last_sent_ts: SyncTime(i64::MIN / 2),
            buf: ProposalBuffer::new(),
            to_order: Vec::new(),
            frontier: Frontier::default(),
            synced: Range::default(),
            app_snapshot: Bytes::new(),
            transferred_state: None,
            join_heard: BTreeMap::new(),
            last_join_slot: i64::MIN,
            suspect: None,
            sent_nd_at: None,
            last_ctrl_sent: None,
            election_oals: Vec::new(),
            election_dpds: BTreeMap::new(),
            reconfig_heard: BTreeMap::new(),
            last_reconfig_slot: i64::MIN,
            cooldown_until: SyncTime(i64::MIN / 2),
            nfail_wait: None,
            delivered_count: 0,
            views_installed: 0,
            last_purge: None,
            tracer: Tracer::disabled(),
            trace_hw: HwTime::ZERO,
        }
    }

    /// Attach a structured trace sink. Cloned members (e.g. forked
    /// simulator worlds) share the same sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Emit a trace event stamped with the entry point's hardware time
    /// and the given synchronized time. The closure only runs when a
    /// sink is attached.
    pub(crate) fn trace(&self, now: SyncTime, make: impl FnOnce(ClockStamp) -> TraceEvent) {
        let at = ClockStamp {
            hw: self.trace_hw,
            sync: now,
        };
        self.tracer.emit(|| make(at));
    }

    // ---- accessors ------------------------------------------------------

    /// This member's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Current creator state.
    pub fn state(&self) -> CreatorState {
        self.state
    }

    /// Current incarnation.
    pub fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    /// Current view (empty before the first group).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Current oal snapshot.
    pub fn oal(&self) -> &Oal {
        &self.oal
    }

    /// Am I currently holding the decider role (assumed, decision not
    /// yet sent)?
    pub fn is_decider(&self) -> bool {
        self.decider_due.is_some()
    }

    /// Updates delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Views installed so far.
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }

    /// The §4.3 purge report from the last group this member created, if
    /// any.
    pub fn last_purge(&self) -> Option<&PurgeReport> {
        self.last_purge.as_ref()
    }

    /// The fail-aware clock (read-only).
    pub fn clock(&self) -> &FailAwareClock {
        &self.clock
    }

    /// Synchronized time now, if the clock is synchronized.
    pub fn now_sync(&self, now_hw: HwTime) -> Option<SyncTime> {
        self.clock.read(now_hw)
    }

    /// Fail-aware up-to-date check (membership spec §3): does this member
    /// currently *know* its group is up to date? True while the clock is
    /// synchronized, the creator is in failure-free state and the
    /// expected-sender deadline has not passed.
    pub fn is_up_to_date(&self, now_hw: HwTime) -> bool {
        match self.clock.read(now_hw) {
            Some(now) => {
                self.state == CreatorState::FailureFree
                    && self.watchdog.expected().is_some()
                    && now <= self.watchdog.deadline()
            }
            None => false,
        }
    }

    /// Debug: number of pending proposals.
    #[doc(hidden)]
    pub fn pending_len_dbg(&self) -> usize {
        self.buf.pending_len()
    }

    /// Debug: explain why each pending proposal is undeliverable.
    #[doc(hidden)]
    pub fn explain_pending_dbg(&self, now: SyncTime) -> Vec<String> {
        let mut frontier = self.frontier.clone();
        frontier.advance(&self.oal, &self.view, &self.buf);
        self.buf
            .pending()
            .map(|p| {
                let id = p.id();
                let ordinal = self.ordinal_of(id);
                format!(
                    "{id} sem={} fifo={} marked={} ordinal={:?} atom={} order={}",
                    p.semantics,
                    self.buf.fifo_ready(id),
                    self.buf.is_locally_marked(id, now),
                    ordinal,
                    frontier.atomicity_ok(p),
                    frontier.order_ok(&self.oal, &self.buf, &self.cfg, now, p, ordinal),
                )
            })
            .collect()
    }

    /// Test/bench support: force the fail-aware clock into a
    /// permanently synchronized state (sync == hardware time).
    #[doc(hidden)]
    pub fn force_clock_sync(&mut self) {
        self.clock.force_synced();
    }

    /// Harness support: restart a crashed process as incarnation `inc`.
    /// A real recovery ([`Member::on_recover`]) bumps the incarnation of
    /// surviving state; a chaos-harness restart builds a *fresh* member
    /// (the crash destroyed the old one) and must place it in the right
    /// incarnation band so its proposal ids stay unique across lives.
    pub fn force_incarnation(&mut self, inc: Incarnation) {
        self.incarnation = inc;
        self.my_seq = (inc.0 as u64) << 32;
    }

    /// Explorer/test support: a member born directly into `view` in
    /// failure-free state with a force-synced clock, skipping the
    /// join protocol. The schedule explorer uses this to study formed
    /// groups under adversarial scheduling without spending its bounded
    /// budgets on start-up.
    #[doc(hidden)]
    pub fn new_in_view(pid: ProcessId, cfg: Config, view: View) -> Member {
        let mut m = Member::new_unchecked(pid, cfg);
        let _ = m.on_start(HwTime::ZERO); // arm trackers; discard join traffic
        m.force_clock_sync();
        m.view = view;
        m.state = CreatorState::FailureFree;
        m
    }

    /// Provide the application snapshot shipped to joiners.
    pub fn set_app_snapshot(&mut self, snapshot: Bytes) {
        self.app_snapshot = snapshot;
    }

    /// Take the application state received in a state transfer, if any.
    pub fn take_transferred_state(&mut self) -> Option<Bytes> {
        self.transferred_state.take()
    }

    /// A point-in-time observation for experiments.
    pub fn observe(&self, now_hw: HwTime) -> MemberObservation {
        MemberObservation {
            pid: self.pid,
            now: self.clock.read(now_hw),
            state: self.state.label(),
            view: self.view.clone(),
            is_decider: self.is_decider(),
        }
    }

    // ---- lifecycle -------------------------------------------------------

    /// Start at process creation.
    pub fn on_start(&mut self, now_hw: HwTime) -> Vec<Action> {
        self.trace_hw = now_hw;
        let mut actions = Vec::new();
        self.reset_protocol_state();
        for a in self.clock.on_start(now_hw) {
            actions.push(map_clock_action(a));
        }
        actions.push(Action::LeftGroup {
            reason: LeaveReason::Startup,
        });
        actions
    }

    /// Recover after a crash: new incarnation, all volatile state gone.
    pub fn on_recover(&mut self, now_hw: HwTime) -> Vec<Action> {
        self.trace_hw = now_hw;
        self.incarnation = self.incarnation.next();
        // Proposal ids must stay unique across incarnations even though
        // the sequence counter is volatile: restart the counter in a
        // fresh incarnation-numbered band.
        self.my_seq = (self.incarnation.0 as u64) << 32;
        self.buf.clear();
        let mut actions = self.on_start(now_hw);
        // on_start pushes Startup; keep it (recovery is a startup).
        actions.retain(|a| !matches!(a, Action::LeftGroup { .. }));
        actions.push(Action::LeftGroup {
            reason: LeaveReason::Startup,
        });
        actions
    }

    fn reset_protocol_state(&mut self) {
        self.state = CreatorState::Join;
        self.transferred_state = None;
        self.alive.clear();
        self.watchdog.disarm();
        self.peer_alive.clear();
        self.view = View::default();
        self.replace_oal(Oal::new());
        self.last_decision_ts = SyncTime(i64::MIN / 2);
        self.decider_due = None;
        self.buf.dpd_clear();
        self.join_heard.clear();
        self.last_join_slot = i64::MIN;
        self.suspect = None;
        self.sent_nd_at = None;
        self.last_ctrl_sent = None;
        self.election_oals.clear();
        self.election_dpds.clear();
        self.reconfig_heard.clear();
        self.last_reconfig_slot = i64::MIN;
        self.cooldown_until = SyncTime(i64::MIN / 2);
        self.nfail_wait = None;
    }

    /// The clock-synchronization resync tick.
    pub fn on_clock_tick(&mut self, now_hw: HwTime) -> Vec<Action> {
        self.trace_hw = now_hw;
        self.clock
            .handle(now_hw, ClockEvent::Tick)
            .into_iter()
            .map(map_clock_action)
            .collect()
    }

    /// The periodic protocol tick: evaluates every deadline predicate.
    pub fn on_tick(&mut self, now_hw: HwTime) -> Vec<Action> {
        self.trace_hw = now_hw;
        let mut actions = Vec::new();
        let Some(now) = self.clock.read(now_hw) else {
            // Fail-awareness: we know we are not synchronized. A member
            // of a group must leave it (paper §2: such a process is
            // removed and rejoins once synchronized).
            if self.state != CreatorState::Join {
                self.leave_to_join(LeaveReason::LostClockSync, &mut actions);
            }
            return actions;
        };
        self.buf.expire_marks(now);

        match self.state {
            CreatorState::Join => self.join_tick(now, &mut actions),
            CreatorState::NFailure => self.nfailure_tick(now, &mut actions),
            _ => {
                // Decider duty first: emitting our decision also feeds
                // everyone's watchdog.
                if let Some(due) = self.decider_due {
                    if now >= due {
                        self.emit_decision(now, &mut actions);
                    }
                }
                if let Some(suspect) = self.watchdog.timed_out(now) {
                    self.on_timeout_failure(now, suspect, &mut actions);
                }
                self.maybe_nack(now, &mut actions);
            }
        }
        self.try_deliver(now, &mut actions);
        actions
    }

    /// A datagram arrived.
    pub fn on_message(&mut self, now_hw: HwTime, from: ProcessId, msg: Msg) -> Vec<Action> {
        self.trace_hw = now_hw;
        let mut actions = Vec::new();
        if from == self.pid {
            return actions; // own broadcast echo (possible on UDP runtimes)
        }
        self.dispatch_one(now_hw, from, msg, &mut actions);
        actions
    }

    /// Apply a batch of messages received from `from` in one dispatch —
    /// the decode of one multi-frame datagram.
    ///
    /// Semantically this is exactly `on_message` in a loop (each message
    /// drives deliveries before the next is applied, so the §3 delivery
    /// order and the Deliver/InstallView interleaving are identical to
    /// sequential processing — `tests/batch_order.rs` pins this down);
    /// the batching win is one handler entry, one actions vector and one
    /// coalesced outbound flush for the whole datagram.
    pub fn on_messages(&mut self, now_hw: HwTime, from: ProcessId, msgs: Vec<Msg>) -> Vec<Action> {
        self.trace_hw = now_hw;
        // A batch of proposals delivers about one update each.
        let mut actions = Vec::with_capacity(msgs.len());
        if from == self.pid {
            return actions; // own broadcast echo (possible on UDP runtimes)
        }
        for msg in msgs {
            self.dispatch_one(now_hw, from, msg, &mut actions);
        }
        actions
    }

    /// Dispatch one received message, appending its actions. Shared body
    /// of [`Member::on_message`] and [`Member::on_messages`].
    fn dispatch_one(
        &mut self,
        now_hw: HwTime,
        from: ProcessId,
        msg: Msg,
        actions: &mut Vec<Action>,
    ) {
        if let Msg::ClockSync(cs) = msg {
            for a in self.clock.handle(now_hw, ClockEvent::Msg { from, msg: cs }) {
                actions.push(map_clock_action(a));
            }
            return;
        }
        // Everything else needs a synchronized clock to timestamp-check.
        let Some(now) = self.clock.read(now_hw) else {
            return;
        };
        match msg {
            Msg::ClockSync(_) => unreachable!("handled above"),
            Msg::Proposal(p) => self.handle_proposal(now, p, actions),
            Msg::StateTransfer(st) => self.handle_state_transfer(now, st, actions),
            Msg::Decision(d) => self.handle_decision(now, d, actions),
            Msg::NoDecision(nd) => self.handle_no_decision(now, nd, actions),
            Msg::Join(j) => self.handle_join(now, j, actions),
            Msg::Reconfig(r) => self.handle_reconfig(now, r, actions),
            Msg::Nack(nk) => self.handle_nack(nk, actions),
        }
        self.try_deliver(now, actions);
    }

    // ---- shared helpers --------------------------------------------------

    /// Record a control message for alive-list/duplicate purposes.
    /// Returns false when the message is stale or duplicate and must be
    /// ignored (paper §4.2).
    pub(crate) fn ctrl_fresh(&mut self, sender: ProcessId, ts: SyncTime, alive: AliveList) -> bool {
        if !self.alive.record_if_fresh(sender, ts) {
            return false;
        }
        self.peer_alive.insert(sender, alive);
        true
    }

    /// Timestamp for an outgoing message: the current synchronized time,
    /// bumped if needed so that this member's send timestamps are
    /// strictly increasing (two messages in one tick would otherwise
    /// collide and be dropped as duplicates by receivers).
    pub(crate) fn stamp(&mut self, now: SyncTime) -> SyncTime {
        let ts = now.max(self.last_sent_ts + tw_proto::Duration(1));
        self.last_sent_ts = ts;
        ts
    }

    /// The ordinal assigned to `id`, if any and not settled: the one id →
    /// ordinal lookup.
    ///
    /// `buf`'s learned assignments cover the oal window whenever this
    /// member is in a group — every change to the window ends in
    /// [`Member::sync_with_oal`] or a `learn_ordinal` — so the window
    /// itself is never searched. Below the window base only undelivered
    /// updates keep theirs; a delivered one's is settled (see
    /// `ProposalBuffer::settle`). Outside a group the assignments are
    /// void and the oal is whatever the last lineage left behind.
    pub(crate) fn ordinal_of(&self, id: ProposalId) -> Option<Ordinal> {
        let o = self.buf.ordinal_of(id);
        debug_assert!(
            o.is_some() || self.view.is_empty() || self.oal.ordinal_of(id).is_none(),
            "{id} is ordered in the window but its assignment was never learned"
        );
        o
    }

    /// Take `oal` in place of ours wholesale. Nothing the frontier
    /// learned about the old descriptors holds for the new ones.
    pub(crate) fn replace_oal(&mut self, oal: Oal) {
        self.oal = oal;
        self.frontier.reset();
        self.synced = Range::default();
    }

    /// My current alive-list (self + heard within N slots).
    pub(crate) fn my_alive(&self, now: SyncTime) -> AliveList {
        self.alive
            .alive_list(self.pid, now, self.cfg.slot_len * self.cfg.n as i64)
    }

    /// The successor of `p` in the current view.
    pub(crate) fn succ(&self, p: ProcessId) -> ProcessId {
        self.view.successor_in_group(p).unwrap_or(p)
    }

    /// The successor of `p` in the current view with `skip` removed
    /// (the no-decision ring order).
    pub(crate) fn ring_succ(&self, skip: ProcessId, p: ProcessId) -> ProcessId {
        let mut cur = self.succ(p);
        if cur == skip {
            cur = self.succ(cur);
        }
        cur
    }

    /// Arm the watchdog for the normal decider rotation after a decision
    /// from `sender` at `ts`.
    pub(crate) fn arm_rotation(&mut self, sender: ProcessId, ts: SyncTime) {
        let next = self.succ(sender);
        self.watchdog.arm(next, ts, self.cfg.decision_timeout);
    }

    /// Arm the watchdog for the no-decision ring: after a control message
    /// from `after` at `base`, expect the next ring member.
    pub(crate) fn arm_ring(&mut self, suspect: ProcessId, after: ProcessId, base: SyncTime) {
        let next = self.ring_succ(suspect, after);
        self.watchdog.arm(next, base, self.cfg.election_timeout);
    }

    /// Leave the group and return to join state.
    pub(crate) fn leave_to_join(&mut self, reason: LeaveReason, actions: &mut Vec<Action>) {
        self.state = CreatorState::Join;
        self.view = View::default();
        // Assignments from the lineage we are leaving are void; the
        // rejoin's state transfer supplies fresh ones.
        self.buf.clear_ordinals();
        self.frontier.reset();
        self.synced = Range::default();
        self.transferred_state = None;
        self.watchdog.disarm();
        self.decider_due = None;
        self.suspect = None;
        self.sent_nd_at = None;
        self.election_oals.clear();
        self.election_dpds.clear();
        self.reconfig_heard.clear();
        self.nfail_wait = None;
        self.join_heard.clear();
        self.last_join_slot = i64::MIN;
        actions.push(Action::LeftGroup { reason });
    }

    /// Record that we are now in `state` with `suspect` under election.
    pub(crate) fn enter_single_failure(&mut self, state: CreatorState, suspect: ProcessId) {
        debug_assert!(state.in_single_failure_election());
        self.state = state;
        self.suspect = Some(suspect);
        self.decider_due = None;
    }
}

fn map_clock_action(a: ClockAction) -> Action {
    match a {
        ClockAction::Broadcast(m) => Action::Broadcast(Msg::ClockSync(m)),
        ClockAction::Send(to, m) => Action::Send(to, Msg::ClockSync(m)),
        ClockAction::ScheduleTick(d) => Action::ScheduleClockTick(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_proto::{Duration, ViewId};

    fn member(pid: u16, n: usize) -> Member {
        Member::new(
            ProcessId(pid),
            Config::for_team(n, Duration::from_millis(10)),
        )
        .unwrap()
    }

    #[test]
    fn new_member_starts_in_join() {
        let m = member(0, 3);
        assert_eq!(m.state(), CreatorState::Join);
        assert!(m.view().is_empty());
        assert!(!m.is_decider());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = Config::for_team(3, Duration::from_millis(10));
        cfg.slot_len = Duration(1);
        assert!(Member::new(ProcessId(0), cfg).is_err());
        // unchecked constructor tolerates it (for ablations)
        let m = Member::new_unchecked(ProcessId(0), cfg);
        assert_eq!(m.state(), CreatorState::Join);
    }

    #[test]
    fn recover_bumps_incarnation_and_seq_band() {
        let mut m = member(0, 3);
        m.on_start(HwTime(0));
        assert_eq!(m.incarnation(), Incarnation(0));
        m.on_recover(HwTime(1_000));
        assert_eq!(m.incarnation(), Incarnation(1));
        assert_eq!(m.my_seq, 1u64 << 32);
    }

    #[test]
    fn start_emits_clock_probe_and_startup() {
        let mut m = member(0, 3);
        let actions = m.on_start(HwTime(0));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Msg::ClockSync(_)))));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ScheduleClockTick(_))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::LeftGroup {
                reason: LeaveReason::Startup
            }
        )));
    }

    #[test]
    fn state_labels_are_distinct() {
        use CreatorState::*;
        let all = [
            Join,
            FailureFree,
            WrongSuspicion,
            OneFailureReceive,
            OneFailureSend,
            NFailure,
        ];
        let labels: std::collections::BTreeSet<_> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
        assert!(WrongSuspicion.in_single_failure_election());
        assert!(!NFailure.in_single_failure_election());
        assert!(!Join.in_single_failure_election());
    }

    #[test]
    fn ctrl_fresh_rejects_stale() {
        let mut m = member(0, 3);
        assert!(m.ctrl_fresh(ProcessId(1), SyncTime(10), AliveList::EMPTY));
        assert!(!m.ctrl_fresh(ProcessId(1), SyncTime(10), AliveList::EMPTY));
        assert!(!m.ctrl_fresh(ProcessId(1), SyncTime(9), AliveList::EMPTY));
        assert!(m.ctrl_fresh(ProcessId(1), SyncTime(11), AliveList::EMPTY));
    }

    #[test]
    fn ring_succ_skips_suspect() {
        let mut m = member(0, 3);
        m.view = View::new(
            ViewId::new(1, ProcessId(0)),
            [ProcessId(0), ProcessId(1), ProcessId(2)],
        );
        assert_eq!(m.ring_succ(ProcessId(1), ProcessId(0)), ProcessId(2));
        assert_eq!(m.ring_succ(ProcessId(2), ProcessId(1)), ProcessId(0));
        assert_eq!(m.ring_succ(ProcessId(0), ProcessId(2)), ProcessId(1));
    }

    #[test]
    fn observation_reports_state() {
        let mut m = member(0, 3);
        m.on_start(HwTime(0));
        let obs = m.observe(HwTime(10));
        assert_eq!(obs.pid, ProcessId(0));
        assert_eq!(obs.state, "join");
        assert!(!obs.is_decider);
    }

    #[test]
    fn unsynced_message_handling_is_inert() {
        // p1 has no synchronized clock at start; a decision arriving then
        // is ignored rather than mis-timestamped.
        let mut m = member(1, 3);
        m.on_start(HwTime(0));
        let d = tw_proto::Decision {
            sender: ProcessId(0),
            send_ts: SyncTime(100),
            view: View::new(
                ViewId::new(1, ProcessId(0)),
                [ProcessId(0), ProcessId(1), ProcessId(2)],
            ),
            oal: Oal::new(),
            alive: AliveList::EMPTY,
        };
        let actions = m.on_message(HwTime(10), ProcessId(0), Msg::Decision(d));
        assert!(actions.is_empty());
        assert_eq!(m.state(), CreatorState::Join);
    }

    #[test]
    fn own_echo_ignored() {
        let mut m = member(0, 3);
        m.on_start(HwTime(0));
        let j = tw_proto::Join {
            sender: ProcessId(0),
            incarnation: Incarnation(0),
            send_ts: SyncTime(1),
            join_list: vec![],
            alive: AliveList::EMPTY,
        };
        let actions = m.on_message(HwTime(5), ProcessId(0), Msg::Join(j));
        assert!(actions.is_empty());
    }
}
