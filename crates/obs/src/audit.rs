//! The history checker: every delivery and view property the paper
//! claims, stated once.
//!
//! An [`Auditor`] is fed [`TraceEvent`]s through
//! [`observe`](Auditor::observe), its one adapter: `ViewInstalled`,
//! `Delivered` and an injected `Restart` are the three facts it reads.
//! Every feeder hands it the members' own trace: a live cluster
//! ([`SharedAuditor`] is a [`TraceSink`]), a merged set of recordings
//! ([`mod@crate::analyze`]), and the simulator (`timewheel::invariants`,
//! which the schedule explorer runs at every terminal state). The
//! auditor's per-member record *is* the history.
//!
//! Checked as each fact arrives, in O(log n):
//!
//! * **duplicate-delivery** — a member never delivers the same proposal
//!   twice within one life.
//! * **fifo** — within one life a member delivers a proposer's updates in
//!   ascending proposal-sequence order.
//! * **time-order** — within one life, time-ordered deliveries carry
//!   non-decreasing synchronized send timestamps.
//! * **total-order** (binding) — no two members bind the same
//!   `(view, ordinal)` to different proposals, and a total-ordered
//!   delivery carries an ordinal.
//! * **ordinal-prefix** — within one life and view, the ordinals of a
//!   member's total-ordered deliveries grow strictly.
//! * **minority-view** — every installed view holds a strict majority of
//!   the team (§3: only majority groups may form).
//! * **view-agreement** — members installing the same view id agree on
//!   its membership.
//! * **competing-groups** — at most one *completed* group (installed by
//!   all its members) per view sequence number, decided at the install
//!   that completes the second one.
//!
//! Checked by [`Auditor::finish`], once, over the whole history:
//!
//! * **view-overlap** — consecutive installed views share a member (the
//!   majority chain that carries state across reconfigurations).
//! * **oal-prefix** — per view, the total-ordered ordinals a member
//!   delivered are a prefix of those anyone delivered in it.
//! * **total-order** (agreement) — the union over all members and lives
//!   of "delivered m before m′", taken over total-ordered updates, is
//!   acyclic (the atomic-multicast statement of total order). It has no
//!   view and no life in it, so a disagreement inside one view, across
//!   two views, or around a rejoin is the same finding, reported as the
//!   shortest cycle. One filter applies: only deliveries made in
//!   *completed* views count. That is the paper's own exemption — §3
//!   promises agreement to the members of completed majority groups and
//!   allows "limited divergences" for a member delivering inside a group
//!   the others never joined.
//!
//! A *restarted* fact starts a new life for that member: duplicate, FIFO,
//! time-order and ordinal-prefix state is per life (a fresh incarnation
//! is rebuilt from the join-time state transfer, so re-applying an update
//! is legal), and delivery precedence does not run across the restart.
//!
//! Violations accumulate; they are never dropped. Wiring a metrics
//! [`Registry`] into the auditor additionally exposes each check as a
//! `tw_audit_violations_total.<check>` counter, so live deployments can
//! alarm on invariant violations instead of only seeing them in test
//! assertions.

use crate::metrics::Registry;
use crate::trace::{FaultKind, TraceEvent, TraceSink};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use tw_proto::{AckBits, Ordering, Ordinal, ProcessId, ProposalId, Semantics, SyncTime, ViewId};

/// Every check the auditor (and the offline cross-node analyzer) can
/// flag. Wiring a registry pre-registers one counter per check at zero,
/// so dashboards see the metric before anything goes wrong.
pub const AUDIT_CHECKS: &[&str] = &[
    "duplicate-delivery",
    "fifo",
    "time-order",
    "total-order",
    "ordinal-prefix",
    "minority-view",
    "view-agreement",
    "competing-groups",
    "view-overlap",
    "oal-prefix",
    "clock-alignment",
];

/// Metric-name prefix for per-check violation counters.
pub const AUDIT_COUNTER_PREFIX: &str = "tw_audit_violations_total";

/// A single invariant violation: which check fired, and a
/// human-readable sentence saying why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable check label (one of [`AUDIT_CHECKS`]); doubles as the
    /// metric key suffix.
    pub check: &'static str,
    /// What happened, as a sentence.
    pub message: String,
}

impl Violation {
    /// A violation of `check` described by `message`.
    pub fn new(check: &'static str, message: impl Into<String>) -> Self {
        Violation {
            check,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.message)
    }
}

/// What one member did, as far as the auditor was told.
#[derive(Debug, Default)]
struct MemberLog {
    /// Per-life check state; a restart resets it.
    life: Life,
    /// Total-ordered ordinals delivered per view, over all lives
    /// (oal-prefix).
    ordinals: BTreeMap<ViewId, BTreeSet<Ordinal>>,
    /// Total-ordered deliveries in delivery order, one chain per life
    /// (a restart opens the next), first delivery of each update only
    /// (total-order agreement).
    chains: Vec<Chain>,
}

#[derive(Debug, Default)]
struct Life {
    seen: BTreeSet<ProposalId>,
    /// Per proposer: highest delivered proposal seq.
    fifo: BTreeMap<ProcessId, u64>,
    /// Send timestamp of the latest time-ordered delivery.
    time_order: Option<SyncTime>,
    /// Per view: highest total-ordered ordinal delivered.
    last_ordinal: BTreeMap<ViewId, Ordinal>,
}

/// A view id as first installed, and who has installed it since.
#[derive(Debug, Clone, Copy)]
struct ViewRecord {
    members: AckBits,
    installed_by: AckBits,
}

impl ViewRecord {
    /// Installed by all its members: the scope of the paper's agreement
    /// guarantees.
    fn completed(&self) -> bool {
        self.members.0 & !self.installed_by.0 == 0
    }
}

/// The history checker (see the module docs for what it checks when).
#[derive(Debug)]
pub struct Auditor {
    team: usize,
    members: BTreeMap<ProcessId, MemberLog>,
    views: BTreeMap<ViewId, ViewRecord>,
    /// The view that completed first at each view sequence number.
    completed_by_seq: BTreeMap<u64, ViewId>,
    /// Global binding of `(view, ordinal)` to a proposal.
    order: BTreeMap<(ViewId, Ordinal), ProposalId>,
    violations: Vec<Violation>,
    /// Optional metrics registry; when wired, every flag also bumps
    /// `tw_audit_violations_total.<check>`.
    registry: Option<Arc<Registry>>,
}

impl Auditor {
    /// New auditor for a team of `team` members.
    pub fn new(team: usize) -> Self {
        Auditor {
            team,
            members: BTreeMap::new(),
            views: BTreeMap::new(),
            completed_by_seq: BTreeMap::new(),
            order: BTreeMap::new(),
            violations: Vec::new(),
            registry: None,
        }
    }

    /// Expose violations as counters in `registry`: one
    /// `tw_audit_violations_total.<check>` per known check, all
    /// pre-registered at zero so the metrics exist before anything
    /// fires.
    pub fn wire_registry(&mut self, registry: Arc<Registry>) {
        for check in AUDIT_CHECKS {
            registry.counter(&format!("{AUDIT_COUNTER_PREFIX}.{check}"));
        }
        self.registry = Some(registry);
    }

    fn flag(&mut self, check: &'static str, msg: String) {
        if let Some(reg) = &self.registry {
            reg.counter(&format!("{AUDIT_COUNTER_PREFIX}.{check}"))
                .inc();
        }
        self.violations.push(Violation::new(check, msg));
    }

    /// Feed one trace event: `ViewInstalled`, `Delivered` and an injected
    /// `Restart` are the three facts; everything else is ignored.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Delivered {
                pid,
                id,
                ordinal,
                semantics,
                send_ts,
                view,
                ..
            } => self.delivered(pid, view, id, ordinal, semantics, send_ts),
            TraceEvent::ViewInstalled {
                pid, view, members, ..
            } => self.installed(pid, view, members),
            TraceEvent::FaultInjected {
                kind: FaultKind::Restart,
                target,
                ..
            } => self.restarted(target),
            _ => {}
        }
    }

    /// Fact: `pid` came back as a fresh incarnation. Its deliveries from
    /// here on are a new life.
    fn restarted(&mut self, pid: ProcessId) {
        let log = self.members.entry(pid).or_default();
        log.life = Life::default();
        // Chain `k` is life `k + 1`, whether or not it delivered anything.
        log.chains
            .resize_with(log.chains.len().max(1) + 1, Vec::new);
    }

    /// Fact: `pid` delivered update `id` while in `view`.
    fn delivered(
        &mut self,
        pid: ProcessId,
        view: ViewId,
        id: ProposalId,
        ordinal: Option<Ordinal>,
        semantics: Semantics,
        send_ts: SyncTime,
    ) {
        let log = self.members.entry(pid).or_default();
        let mut found: Vec<(&'static str, String)> = Vec::new();

        let first = log.life.seen.insert(id);
        if !first {
            found.push(("duplicate-delivery", format!("{pid} delivered {id} twice")));
        }

        let prev_seq = log.life.fifo.entry(id.proposer).or_insert(0);
        if id.seq <= *prev_seq {
            found.push((
                "fifo",
                format!(
                    "{pid} violated FIFO: delivered {id} after seq {prev_seq} from {}",
                    id.proposer
                ),
            ));
        }
        *prev_seq = id.seq.max(*prev_seq);

        if semantics.ordering == Ordering::Time {
            if let Some(prev) = log.life.time_order.filter(|prev| send_ts < *prev) {
                found.push((
                    "time-order",
                    format!(
                        "{pid} delivered time-ordered {id} (send_ts {send_ts:?}) after {prev:?}"
                    ),
                ));
            }
            log.life.time_order = log.life.time_order.max(Some(send_ts));
        }

        if semantics.ordering == Ordering::Total {
            if first {
                match log.chains.last_mut() {
                    Some(chain) => chain.push((id, view)),
                    None => log.chains.push(vec![(id, view)]),
                }
            }
            match ordinal {
                None => found.push((
                    "total-order",
                    format!("{pid} delivered total-ordered {id} without an ordinal"),
                )),
                Some(ord) => {
                    log.ordinals.entry(view).or_default().insert(ord);
                    let bound = *self.order.entry((view, ord)).or_insert(id);
                    if bound != id {
                        found.push((
                            "total-order",
                            format!(
                                "total order disagreement at {view} ordinal {ord:?}: {bound} vs {id}"
                            ),
                        ));
                    }
                    // Ordinals start at 1 (`ZERO` is the no-dependency mark).
                    let last = log.life.last_ordinal.entry(view).or_insert(Ordinal::ZERO);
                    if ord <= *last {
                        found.push((
                            "ordinal-prefix",
                            format!("{pid} delivered ordinal {ord:?} after {last:?} in {view}"),
                        ));
                    }
                    *last = ord.max(*last);
                }
            }
        }
        for (check, msg) in found {
            self.flag(check, msg);
        }
    }

    /// Fact: `pid` installed `view` with member set `members`.
    fn installed(&mut self, pid: ProcessId, view: ViewId, members: AckBits) {
        if members.count() * 2 <= self.team {
            self.flag(
                "minority-view",
                format!(
                    "{pid} installed non-majority view {view} ({} of {})",
                    members.count(),
                    self.team
                ),
            );
        }
        let rec = self.views.entry(view).or_insert(ViewRecord {
            members,
            installed_by: AckBits::EMPTY,
        });
        let was_completed = rec.completed();
        rec.installed_by.set(pid);
        let rec = *rec;
        if rec.members != members {
            self.flag(
                "view-agreement",
                format!(
                    "view agreement broken for {view}: {pid} installed members {members}, first installer saw {}",
                    rec.members
                ),
            );
        }
        if rec.completed() && !was_completed {
            let first = *self.completed_by_seq.entry(view.seq).or_insert(view);
            if first != view {
                self.flag(
                    "competing-groups",
                    format!(
                        "two completed majority groups at seq {}: {first} and {view}",
                        view.seq
                    ),
                );
            }
        }
    }

    /// Run the whole-history checks (view-overlap, oal-prefix,
    /// total-order agreement) over everything observed so far and return
    /// every violation. Calling it again on a longer history is fine: a
    /// finding already flagged is not flagged or counted twice.
    pub fn finish(&mut self) -> &[Violation] {
        let mut found = Vec::new();
        self.view_overlap(&mut found);
        self.oal_prefix(&mut found);
        found.extend(self.order_cycle());
        for v in found {
            if !self.violations.contains(&v) {
                self.flag(v.check, v.message);
            }
        }
        &self.violations
    }

    /// Panic with a readable report if [`finish`](Self::finish) finds
    /// any invariant violated.
    pub fn assert_clean(&mut self) {
        if !self.finish().is_empty() {
            let mut report = String::from("invariant auditor found violations:\n");
            for v in &self.violations {
                report.push_str(&format!("  - {v}\n"));
            }
            panic!("{report}");
        }
    }

    /// Consecutive installed views (in id order) must share a member —
    /// the majority chain that lets state, and the oal, survive every
    /// reconfiguration.
    fn view_overlap(&self, out: &mut Vec<Violation>) {
        let mut views = self.views.iter().peekable();
        while let (Some((va, a)), Some((vb, b))) = (views.next(), views.peek()) {
            if a.members.0 & b.members.0 == 0 {
                out.push(Violation::new(
                    "view-overlap",
                    format!("views {va} and {vb} share no member — the majority chain is broken"),
                ));
            }
        }
    }

    /// Per view, the total-ordered ordinals a member delivered must be a
    /// prefix of those anyone delivered in it (the keys of `order`) — the
    /// cross-node shape of oal-prefix agreement: nobody skips an update
    /// a fellow member applied and carries on.
    fn oal_prefix(&self, out: &mut Vec<Violation>) {
        for (pid, log) in &self.members {
            for (view, ords) in &log.ordinals {
                let chain = self
                    .order
                    .range((*view, Ordinal::ZERO)..)
                    .map(|((_, o), _)| o);
                if !ords.iter().eq(chain.take(ords.len())) {
                    out.push(Violation::new(
                        "oal-prefix",
                        format!(
                            "{pid} delivered ordinals {ords:?} in view {view}, not a prefix of the view's chain"
                        ),
                    ));
                }
            }
        }
    }

    /// Total-order agreement: the union over members and lives of
    /// "delivered m before m′" is acyclic. Returns the shortest cycle as
    /// a witness, one "who delivered what before what" clause per member
    /// involved.
    fn order_cycle(&self) -> Option<Violation> {
        // The paper's exemption, as one filter: only deliveries made in
        // completed views are promised agreement.
        let completed = |v: &ViewId| self.views.get(v).is_some_and(ViewRecord::completed);
        let mut who: Vec<(ProcessId, usize)> = Vec::new();
        let mut chains: Vec<Chain> = Vec::new();
        for (pid, log) in &self.members {
            for (life, chain) in log.chains.iter().enumerate() {
                who.push((*pid, life + 1));
                chains.push(
                    chain
                        .iter()
                        .filter(|(_, v)| completed(v))
                        .copied()
                        .collect(),
                );
            }
        }
        let rest: Vec<&[(ProposalId, ViewId)]> = chains
            .iter()
            .zip(peel(&chains))
            .map(|(chain, head)| &chain[head..])
            .collect();
        let clauses: Vec<String> = shortest_cycle(&rest)?
            .into_iter()
            .map(|(c, i, j)| {
                let ((x, vx), (y, vy)) = (rest[c][i], rest[c][j]);
                let who = match who[c] {
                    (pid, 1) => pid.to_string(),
                    (pid, life) => format!("{pid} (life {life})"),
                };
                format!("{who} delivered {x} before {y} (views {vx}, {vy})")
            })
            .collect();
        Some(Violation::new(
            "total-order",
            format!("total order disagreement: {}", clauses.join("; ")),
        ))
    }
}

/// One life's total-ordered deliveries, in delivery order.
type Chain = Vec<(ProposalId, ViewId)>;

/// Kahn's algorithm on the chains themselves: peel every update that
/// heads all the chains holding it, and return how far each chain was
/// peeled. What is left is in, or downstream of, a precedence cycle;
/// nothing left means the union of the chains is acyclic. Linear in the
/// history (times a log).
fn peel(chains: &[Chain]) -> Vec<usize> {
    let mut holders: BTreeMap<ProposalId, Vec<usize>> = BTreeMap::new();
    for (c, chain) in chains.iter().enumerate() {
        for (id, _) in chain {
            holders.entry(*id).or_default().push(c);
        }
    }
    let mut head = vec![0usize; chains.len()];
    let mut at_head: BTreeMap<ProposalId, usize> = BTreeMap::new();
    let mut work: Vec<usize> = (0..chains.len()).collect();
    while let Some(c) = work.pop() {
        let Some(&(id, _)) = chains[c].get(head[c]) else {
            continue;
        };
        let heads = at_head.entry(id).or_insert(0);
        *heads += 1;
        if *heads == holders[&id].len() {
            for &h in &holders[&id] {
                head[h] += 1;
                work.push(h);
            }
        }
    }
    head
}

/// The shortest precedence cycle through `chains`, as steps
/// `(chain, index of the earlier update, index of the later)`:
/// breadth-first search from each update, one step being "some chain
/// holds x before y". `covered[c]` is the lowest index of chain `c`
/// whose successors are already queued, so one search walks each chain
/// once.
fn shortest_cycle(chains: &[&[(ProposalId, ViewId)]]) -> Option<Vec<(usize, usize, usize)>> {
    let mut at: BTreeMap<ProposalId, Vec<(usize, usize)>> = BTreeMap::new();
    for (c, chain) in chains.iter().enumerate() {
        for (i, (id, _)) in chain.iter().enumerate() {
            at.entry(*id).or_default().push((c, i));
        }
    }
    let mut best: Option<Vec<(usize, usize, usize)>> = None;
    for &start in at.keys() {
        let mut covered: Vec<usize> = chains.iter().map(|chain| chain.len()).collect();
        let mut via: BTreeMap<ProposalId, (ProposalId, (usize, usize, usize))> = BTreeMap::new();
        // (update, length of the cycle that closing from it would have)
        let mut queue = VecDeque::from([(start, 1usize)]);
        'search: while let Some((x, len)) = queue.pop_front() {
            if best.as_ref().is_some_and(|b| len >= b.len()) {
                break;
            }
            for &(c, i) in &at[&x] {
                for (j, &(y, _)) in chains[c].iter().enumerate().take(covered[c]).skip(i + 1) {
                    if y == start {
                        let mut cycle = vec![(c, i, j)];
                        let mut node = x;
                        while let Some(&(prev, step)) = via.get(&node) {
                            cycle.push(step);
                            node = prev;
                        }
                        cycle.reverse();
                        best = Some(cycle);
                        break 'search;
                    }
                    if let Entry::Vacant(slot) = via.entry(y) {
                        slot.insert((x, (c, i, j)));
                        queue.push_back((y, len + 1));
                    }
                }
                covered[c] = covered[c].min(i + 1);
            }
        }
        if best.as_ref().is_some_and(|b| b.len() == 2) {
            break; // no cycle is shorter
        }
    }
    best
}

/// A thread-safe handle to an [`Auditor`], usable as a live [`TraceSink`].
///
/// Clone one handle into the tracer of every node; events from all
/// members funnel into a single checker.
#[derive(Debug, Clone)]
pub struct SharedAuditor(Arc<Mutex<Auditor>>);

impl SharedAuditor {
    /// New shared auditor for a team of `team` members.
    pub fn new(team: usize) -> Self {
        SharedAuditor(Arc::new(Mutex::new(Auditor::new(team))))
    }

    /// Expose violations as counters in `registry` (see
    /// [`Auditor::wire_registry`]).
    pub fn wire_registry(&self, registry: Arc<Registry>) {
        self.lock().wire_registry(registry);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Auditor> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run [`Auditor::finish`] on the history so far and snapshot every
    /// violation.
    pub fn finish(&self) -> Vec<Violation> {
        self.lock().finish().to_vec()
    }

    /// Panic with a readable report if any invariant was violated
    /// ([`Auditor::assert_clean`]).
    pub fn assert_clean(&self) {
        self.lock().assert_clean();
    }
}

impl TraceSink for SharedAuditor {
    fn record(&self, ev: &TraceEvent) {
        self.lock().observe(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ClockStamp;

    fn delivered(pid: u16, proposer: u16, seq: u64) -> TraceEvent {
        TraceEvent::Delivered {
            pid: ProcessId(pid),
            at: ClockStamp::default(),
            id: ProposalId::new(ProcessId(proposer), seq),
            ordinal: None,
            semantics: Semantics::UNORDERED_WEAK,
            send_ts: SyncTime(0),
            view: ViewId::new(1, ProcessId(0)),
        }
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mut a = Auditor::new(5);
        let view = ViewId::new(1, ProcessId(0));
        for p in 0..5u16 {
            a.observe(&TraceEvent::ViewInstalled {
                pid: ProcessId(p),
                at: ClockStamp::default(),
                view,
                members: AckBits(0b1_1111),
            });
        }
        for p in 0..5u16 {
            for seq in 1..=3 {
                a.observe(&delivered(p, 2, seq));
            }
        }
        assert_eq!(a.finish(), []);
    }

    #[test]
    fn duplicate_delivery_is_flagged() {
        let mut a = Auditor::new(3);
        a.observe(&delivered(0, 1, 1));
        a.observe(&delivered(0, 1, 1));
        assert_eq!(a.finish().len(), 2); // duplicate + FIFO regression
        assert_eq!(a.finish()[0].check, "duplicate-delivery");
        assert!(a.finish()[0].message.contains("twice"));
    }

    #[test]
    fn fifo_regression_is_flagged() {
        let mut a = Auditor::new(3);
        a.observe(&delivered(0, 1, 2));
        a.observe(&delivered(0, 1, 1));
        assert!(a.finish().iter().any(|v| v.check == "fifo"));
    }

    #[test]
    fn minority_view_is_flagged() {
        let mut a = Auditor::new(5);
        a.observe(&TraceEvent::ViewInstalled {
            pid: ProcessId(0),
            at: ClockStamp::default(),
            view: ViewId::new(2, ProcessId(0)),
            members: AckBits(0b11),
        });
        assert_eq!(a.finish()[0].check, "minority-view");
        assert!(a.finish()[0].message.contains("non-majority"));
    }

    #[test]
    fn total_order_conflict_is_flagged() {
        let mut a = Auditor::new(3);
        let view = ViewId::new(1, ProcessId(0));
        let mk = |pid: u16, proposer: u16, seq: u64, ord: u64| TraceEvent::Delivered {
            pid: ProcessId(pid),
            at: ClockStamp::default(),
            id: ProposalId::new(ProcessId(proposer), seq),
            ordinal: Some(Ordinal(ord)),
            semantics: Semantics::TOTAL_STRONG,
            send_ts: SyncTime(0),
            view,
        };
        a.observe(&mk(0, 1, 1, 1));
        a.observe(&mk(1, 2, 1, 1)); // different proposal, same ordinal
        assert!(a
            .finish()
            .iter()
            .any(|v| v.check == "total-order" && v.message.contains("disagreement")));
    }

    #[test]
    fn wired_registry_counts_violations_per_check() {
        let registry = Arc::new(Registry::new());
        let mut a = Auditor::new(3);
        a.wire_registry(registry.clone());
        // Pre-registered at zero, present in the snapshot before any
        // violation.
        let snap = registry.snapshot();
        for check in AUDIT_CHECKS {
            let key = format!("{AUDIT_COUNTER_PREFIX}.{check}");
            assert_eq!(snap.counter(&key), 0, "{key} not pre-registered");
        }
        a.observe(&delivered(0, 1, 1));
        a.observe(&delivered(0, 1, 1)); // duplicate + FIFO regression
        assert_eq!(
            registry.counter_value("tw_audit_violations_total.duplicate-delivery"),
            1
        );
        assert_eq!(registry.counter_value("tw_audit_violations_total.fifo"), 1);
        assert_eq!(
            registry.counter_value("tw_audit_violations_total.minority-view"),
            0
        );
        // A whole-history finding counts once, however often it is asked for.
        for (p, members) in [(0, 0b011), (2, 0b100)] {
            a.installed(
                ProcessId(p),
                ViewId::new(p as u64 + 1, ProcessId(p)),
                AckBits(members),
            );
        }
        a.finish();
        a.finish();
        assert_eq!(
            registry.counter_value("tw_audit_violations_total.view-overlap"),
            1
        );
    }

    #[test]
    fn shared_auditor_funnels_from_sink() {
        let shared = SharedAuditor::new(3);
        let sink: &dyn TraceSink = &shared;
        sink.record(&delivered(0, 1, 1));
        sink.record(&delivered(0, 1, 1));
        assert!(shared.finish()[0].message.contains("twice"));
    }
}
