//! Exhaustive small-scope schedule exploration (bounded model checking).
//!
//! The seeded [`World`](crate::World) replays *one* schedule per seed.
//! This module instead enumerates **every** delivery interleaving, crash
//! placement and omission-fault placement a small configuration admits,
//! within explicit budgets — turning per-seed invariant checks into a
//! bounded model-checking pass in the spirit of TLC/Shuttle/Loom, scoped
//! to the actor model the engine already enforces.
//!
//! ## Semantics
//!
//! * Each process owns a monotone local hardware clock that advances to
//!   the execution time of the events it handles (timers fire at their
//!   deadline or later; a delivery happens no earlier than
//!   `send + min_latency`). Clocks are driven apart only by the schedule
//!   itself — the explorer checks *safety under adversarial scheduling
//!   and skew*, not timeliness (a liveness concern the timed world
//!   measures instead).
//! * A schedule step is one of: deliver a pending message, drop a
//!   pending message (omission fault, budgeted), fire a process's
//!   earliest pending timer, or crash a process (budgeted, permanent).
//! * Exploration is a depth-first search over schedules; terminal states
//!   (no enabled step, or all remaining steps beyond budget) are handed
//!   to a caller-supplied checker.
//!
//! ## Partial-order reduction
//!
//! Two steps are *independent* when they touch different processes: a
//! delivery only mutates its recipient (plus appends in-flight
//! messages, which commute as a multiset), a timer firing only its
//! owner, a crash only its victim. The explorer prunes
//! schedule-equivalent interleavings with **sleep sets** over that
//! relation (Godefroid-style DPOR). Budget exhaustion is deliberately
//! *not* part of the relation, so near the budget boundary the pruned
//! search may truncate a few equivalent-prefix schedules differently
//! than full enumeration; pass [`ExploreConfig::dpor`] `= false` for
//! exact exhaustive enumeration (the test suite cross-checks both).

use crate::engine::{Actor, Ctx, Effect, TimerId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use tw_proto::{Duration, HwTime, ProcessId};

/// Identity of an in-flight message: `(recipient, sender, sender-seq)`.
///
/// Sender sequence numbers are assigned per sender in emission order,
/// which is a schedule-invariant labelling for commuting steps — the
/// cornerstone the sleep sets rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgKey {
    /// The recipient.
    pub to: ProcessId,
    /// The sender.
    pub from: ProcessId,
    /// Index in the sender's emission order.
    pub seq: u64,
}

/// One step of a schedule, as reported in violation traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Deliver the identified in-flight message.
    Deliver(MsgKey),
    /// Drop the identified in-flight message (omission fault).
    Drop(MsgKey),
    /// Fire the identified process's pending timer.
    Fire(ProcessId, TimerId),
    /// Crash the process (permanent within the explored window).
    Crash(ProcessId),
}

impl Step {
    /// The process whose state this step mutates.
    fn target(self) -> Option<ProcessId> {
        match self {
            Step::Deliver(k) => Some(k.to),
            Step::Drop(_) => None,
            Step::Fire(p, _) => Some(p),
            Step::Crash(p) => Some(p),
        }
    }

    /// Schedule-equivalence independence: may `self` and `other` be
    /// swapped in a schedule without changing any process's observable
    /// history? Conservative: fault steps (drops, crashes) interfere
    /// with each other through their shared budgets.
    fn independent(self, other: Step) -> bool {
        let budget_coupled = |s: Step| matches!(s, Step::Drop(_) | Step::Crash(_));
        if budget_coupled(self) && budget_coupled(other) {
            return false;
        }
        // A drop of message k conflicts with any step involving k.
        let key = |s: Step| match s {
            Step::Deliver(k) | Step::Drop(k) => Some(k),
            _ => None,
        };
        if let (Some(a), Some(b)) = (key(self), key(other)) {
            if a == b {
                return false;
            }
        }
        match (self.target(), other.target()) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Deliver(k) => write!(f, "deliver {}->{} #{}", k.from, k.to, k.seq),
            Step::Drop(k) => write!(f, "drop {}->{} #{}", k.from, k.to, k.seq),
            Step::Fire(p, id) => write!(f, "fire {} t{}", p, id.0),
            Step::Crash(p) => write!(f, "crash {}", p),
        }
    }
}

/// Budgets and knobs bounding the explored schedule space.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Total message deliveries per schedule.
    pub max_deliveries: usize,
    /// Timer firings per process per schedule.
    pub max_timer_fires_per_proc: usize,
    /// Processes that may crash (each placement is explored at every
    /// point of every schedule).
    pub crash_budget: usize,
    /// Messages that may be dropped (omission-fault placements).
    pub drop_budget: usize,
    /// Minimum one-way message latency (stamps delivery times).
    pub min_latency: Duration,
    /// Optional clock-skew bound: a step is disabled while it would push
    /// its process further than this ahead of the slowest live process.
    /// `None` explores unbounded skew.
    pub max_skew: Option<Duration>,
    /// Hard cap on schedules (terminal states); exploration reports
    /// truncation when it hits the cap.
    pub max_schedules: u64,
    /// Stop after this many violating schedules (0 = collect all).
    pub max_violations: usize,
    /// Sleep-set partial-order reduction (`false` = exact enumeration).
    pub dpor: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_deliveries: 30,
            max_timer_fires_per_proc: 4,
            crash_budget: 0,
            drop_budget: 0,
            min_latency: Duration::from_micros(1_000),
            max_skew: None,
            max_schedules: 5_000_000,
            max_violations: 8,
            dpor: true,
        }
    }
}

/// A schedule that ended in a state violating the caller's checker.
#[derive(Debug, Clone)]
pub struct ScheduleViolation {
    /// The steps executed, in order (starts are implicit).
    pub schedule: Vec<Step>,
    /// The checker's findings at the terminal state.
    pub violations: Vec<String>,
}

/// Aggregate result of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Terminal states reached (complete schedules).
    pub schedules: u64,
    /// Steps executed across all schedules.
    pub transitions: u64,
    /// Steps skipped by the sleep-set reduction.
    pub sleep_pruned: u64,
    /// Violating schedules found (bounded by `max_violations`).
    pub violations: Vec<ScheduleViolation>,
    /// True when `max_schedules` stopped the search early.
    pub truncated: bool,
}

impl ExploreReport {
    /// Did every explored schedule satisfy the checker?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

struct PendingMsg<M> {
    msg: M,
    send_hw: HwTime,
}

impl<M: Clone> Clone for PendingMsg<M> {
    fn clone(&self) -> Self {
        PendingMsg {
            msg: self.msg.clone(),
            send_hw: self.send_hw,
        }
    }
}

/// One process's explorer-side bookkeeping.
#[derive(Clone)]
struct ProcState {
    up: bool,
    local_hw: HwTime,
    next_timer_id: u64,
    /// Pending timers: id → (deadline, token). Fires in deadline order
    /// (ties by id), matching the engine's `(time, seq)` total order.
    timers: BTreeMap<TimerId, (HwTime, u64)>,
    timer_fires: usize,
}

/// The explorer's world state (cloned at every branch point).
struct ExpState<A: Actor> {
    actors: Vec<A>,
    procs: Vec<ProcState>,
    pending: BTreeMap<MsgKey, PendingMsg<A::Msg>>,
    next_msg_seq: Vec<u64>,
    deliveries: usize,
    crashes_left: usize,
    drops_left: usize,
}

impl<A: Actor + Clone> Clone for ExpState<A> {
    fn clone(&self) -> Self {
        ExpState {
            actors: self.actors.clone(),
            procs: self.procs.clone(),
            pending: self.pending.clone(),
            next_msg_seq: self.next_msg_seq.clone(),
            deliveries: self.deliveries,
            crashes_left: self.crashes_left,
            drops_left: self.drops_left,
        }
    }
}

/// The exhaustive schedule explorer. Construct with [`Explorer::new`],
/// run with [`Explorer::run`].
pub struct Explorer<A: Actor, F> {
    cfg: ExploreConfig,
    check: F,
    report: ExploreReport,
    schedule: Vec<Step>,
    rng: StdRng,
    effects: Vec<Effect<A::Msg>>,
    done: bool,
}

impl<A, F> Explorer<A, F>
where
    A: Actor + Clone,
    A::Msg: Clone,
    F: FnMut(&[A]) -> Vec<String>,
{
    /// Build an explorer over the given configuration and terminal-state
    /// checker. The checker returns human-readable violation strings
    /// (empty = state is fine).
    pub fn new(cfg: ExploreConfig, check: F) -> Self {
        Explorer {
            cfg,
            check,
            report: ExploreReport::default(),
            schedule: Vec::new(),
            // Actors under exploration are expected not to consume
            // randomness (the lint's ambient-rng rule plus Ctx-only
            // discipline); this fixed stream keeps any stray draw
            // deterministic per process invocation.
            rng: StdRng::seed_from_u64(0),
            effects: Vec::new(),
            done: false,
        }
    }

    /// Explore every schedule for the given initial actors. `on_start`
    /// runs for each process (in pid order — starts commute) before
    /// branching begins.
    pub fn run(mut self, actors: Vec<A>) -> ExploreReport {
        let n = actors.len();
        let mut st = ExpState {
            actors,
            procs: vec![
                ProcState {
                    up: true,
                    local_hw: HwTime::ZERO,
                    next_timer_id: 1,
                    timers: BTreeMap::new(),
                    timer_fires: 0,
                };
                n
            ],
            pending: BTreeMap::new(),
            next_msg_seq: vec![0; n],
            deliveries: 0,
            crashes_left: self.cfg.crash_budget,
            drops_left: self.cfg.drop_budget,
        };
        for pid in 0..n {
            self.invoke(&mut st, ProcessId(pid as u16), Invoke::Start);
        }
        self.dfs(&st, BTreeSet::new());
        self.report
    }

    // ---- step enumeration and execution --------------------------------

    /// All steps enabled at `st`, in canonical order.
    fn enabled(&self, st: &ExpState<A>) -> Vec<Step> {
        let mut out = Vec::new();
        let deliver_ok = st.deliveries < self.cfg.max_deliveries;
        for (k, m) in &st.pending {
            debug_assert!(st.procs[k.to.rank()].up, "stale msg to crashed proc");
            if deliver_ok && self.skew_ok(st, self.deliver_time(st, *k, m)) {
                out.push(Step::Deliver(*k));
            }
            if st.drops_left > 0 {
                out.push(Step::Drop(*k));
            }
        }
        for (i, p) in st.procs.iter().enumerate() {
            let pid = ProcessId(i as u16);
            if !p.up {
                continue;
            }
            if p.timer_fires < self.cfg.max_timer_fires_per_proc {
                if let Some((id, deadline)) = earliest_timer(p) {
                    if self.skew_ok(st, deadline.max(p.local_hw)) {
                        out.push(Step::Fire(pid, id));
                    }
                }
            }
            if st.crashes_left > 0 {
                out.push(Step::Crash(pid));
            }
        }
        out
    }

    fn deliver_time(&self, st: &ExpState<A>, k: MsgKey, m: &PendingMsg<A::Msg>) -> HwTime {
        st.procs[k.to.rank()]
            .local_hw
            .max(m.send_hw + self.cfg.min_latency)
    }

    /// Clock-skew gate: would executing a step at `at` race its process
    /// too far ahead of the slowest live process?
    fn skew_ok(&self, st: &ExpState<A>, at: HwTime) -> bool {
        let Some(skew) = self.cfg.max_skew else {
            return true;
        };
        let slowest = st
            .procs
            .iter()
            .filter(|p| p.up)
            .map(|p| p.local_hw)
            .min()
            .unwrap_or(HwTime::ZERO);
        at <= slowest + skew
    }

    /// Execute one step on a state (mutating it).
    fn exec(&mut self, st: &mut ExpState<A>, step: Step) {
        self.report.transitions += 1;
        match step {
            Step::Deliver(k) => {
                let m = st.pending.remove(&k).expect("enabled deliver exists");
                let at = st.procs[k.to.rank()]
                    .local_hw
                    .max(m.send_hw + self.cfg.min_latency);
                st.procs[k.to.rank()].local_hw = at;
                st.deliveries += 1;
                self.invoke(
                    st,
                    k.to,
                    Invoke::Message {
                        from: k.from,
                        msg: m.msg,
                    },
                );
            }
            Step::Drop(k) => {
                st.pending.remove(&k).expect("enabled drop exists");
                st.drops_left -= 1;
            }
            Step::Fire(pid, id) => {
                let p = &mut st.procs[pid.rank()];
                let (deadline, token) = p.timers.remove(&id).expect("enabled timer exists");
                p.local_hw = p.local_hw.max(deadline);
                p.timer_fires += 1;
                self.invoke(st, pid, Invoke::Timer { token });
            }
            Step::Crash(pid) => {
                let p = &mut st.procs[pid.rank()];
                p.up = false;
                p.timers.clear();
                st.crashes_left -= 1;
                // Nothing in flight can reach it any more.
                st.pending.retain(|k, _| k.to != pid);
            }
        }
    }

    /// Invoke an actor through the engine's effect interface and fold
    /// the emitted effects back into explorer state.
    fn invoke(&mut self, st: &mut ExpState<A>, pid: ProcessId, what: Invoke<A::Msg>) {
        debug_assert!(self.effects.is_empty());
        let n = st.actors.len();
        let now_hw = st.procs[pid.rank()].local_hw;
        {
            let mut ctx = Ctx::internal(
                pid,
                n,
                now_hw,
                &mut st.procs[pid.rank()].next_timer_id,
                &mut self.effects,
                &mut self.rng,
            );
            let actor = &mut st.actors[pid.rank()];
            match what {
                Invoke::Start => actor.on_start(&mut ctx),
                Invoke::Message { from, msg } => actor.on_message(&mut ctx, from, msg),
                Invoke::Timer { token } => actor.on_timer(&mut ctx, token),
            }
        }
        let effects = std::mem::take(&mut self.effects);
        for e in effects {
            match e {
                Effect::Send { to, msg } => self.route(st, pid, to, now_hw, msg),
                Effect::Broadcast { msg } => {
                    for rank in 0..n {
                        let to = ProcessId(rank as u16);
                        if to != pid {
                            self.route(st, pid, to, now_hw, msg.clone());
                        }
                    }
                }
                Effect::Timer {
                    id,
                    after_hw,
                    token,
                } => {
                    st.procs[pid.rank()]
                        .timers
                        .insert(id, (now_hw + after_hw, token));
                }
                Effect::Trace(_) => {}
            }
        }
    }

    fn route(
        &mut self,
        st: &mut ExpState<A>,
        from: ProcessId,
        to: ProcessId,
        at: HwTime,
        msg: A::Msg,
    ) {
        if !st.procs[to.rank()].up {
            return; // sends to crashed processes vanish, like the engine
        }
        let seq = st.next_msg_seq[from.rank()];
        st.next_msg_seq[from.rank()] = seq + 1;
        st.pending
            .insert(MsgKey { to, from, seq }, PendingMsg { msg, send_hw: at });
    }

    // ---- search --------------------------------------------------------

    /// Sleep-set DFS. `sleep` holds steps whose exploration from this
    /// state would only reproduce schedules already covered elsewhere.
    fn dfs(&mut self, st: &ExpState<A>, sleep: BTreeSet<Step>) {
        if self.done {
            return;
        }
        let enabled = self.enabled(st);
        let explorable: Vec<Step> = if self.cfg.dpor {
            enabled
                .iter()
                .copied()
                .filter(|s| !sleep.contains(s))
                .collect()
        } else {
            enabled.clone()
        };
        if self.cfg.dpor {
            self.report.sleep_pruned += (enabled.len() - explorable.len()) as u64;
        }
        if explorable.is_empty() {
            // Terminal (a state whose every enabled step is asleep is
            // fully covered by sibling subtrees — not a new schedule).
            if enabled.is_empty() {
                self.terminal(st);
            }
            return;
        }
        let mut done: BTreeSet<Step> = BTreeSet::new();
        for step in explorable {
            if self.done {
                return;
            }
            let mut child = st.clone();
            self.exec(&mut child, step);
            self.schedule.push(step);
            let child_sleep: BTreeSet<Step> = if self.cfg.dpor {
                sleep
                    .iter()
                    .chain(done.iter())
                    .copied()
                    .filter(|&u| step.independent(u))
                    .collect()
            } else {
                BTreeSet::new()
            };
            self.dfs(&child, child_sleep);
            self.schedule.pop();
            done.insert(step);
        }
    }

    fn terminal(&mut self, st: &ExpState<A>) {
        self.report.schedules += 1;
        let violations = (self.check)(&st.actors);
        if !violations.is_empty() {
            self.report.violations.push(ScheduleViolation {
                schedule: self.schedule.clone(),
                violations,
            });
            if self.cfg.max_violations > 0
                && self.report.violations.len() >= self.cfg.max_violations
            {
                self.done = true;
            }
        }
        if self.report.schedules >= self.cfg.max_schedules {
            self.report.truncated = true;
            self.done = true;
        }
    }
}

fn earliest_timer(p: &ProcState) -> Option<(TimerId, HwTime)> {
    p.timers
        .iter()
        .map(|(id, (deadline, _))| (*id, *deadline))
        .min_by_key(|&(id, deadline)| (deadline, id))
}

enum Invoke<M> {
    Start,
    Message { from: ProcessId, msg: M },
    Timer { token: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Payload;

    /// Counts everything it sees; broadcasts one ping on start from p0,
    /// echoes pongs, and rearms a timer up to the budget.
    #[derive(Clone, Default)]
    struct Echo {
        got: Vec<(ProcessId, &'static str)>,
        fired: u32,
    }

    #[derive(Clone)]
    struct M(&'static str);

    impl Payload for M {
        fn kind_label(&self) -> &'static str {
            self.0
        }
    }

    impl Actor for Echo {
        type Msg = M;

        fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
            if ctx.pid() == ProcessId(0) {
                ctx.broadcast(M("ping"));
            }
            ctx.set_timer(Duration::from_millis(10), 1);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M) {
            self.got.push((from, msg.0));
            if msg.0 == "ping" {
                ctx.send(from, M("pong"));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: u64) {
            self.fired += 1;
        }
    }

    fn cfg() -> ExploreConfig {
        ExploreConfig {
            max_deliveries: 8,
            max_timer_fires_per_proc: 1,
            max_schedules: 1_000_000,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn explores_all_schedules_without_violations() {
        let rep = Explorer::new(cfg(), |_: &[Echo]| Vec::new()).run(vec![Echo::default(); 3]);
        assert!(rep.clean());
        assert!(
            rep.schedules > 1,
            "expected branching, got {}",
            rep.schedules
        );
        assert!(!rep.truncated);
    }

    #[test]
    fn checker_violations_carry_schedules() {
        // Flag any terminal state where p1 saw a ping — always true once
        // delivered, so violations must be found, each with a schedule.
        let rep = Explorer::new(cfg(), |actors: &[Echo]| {
            if actors[1].got.iter().any(|(_, k)| *k == "ping") {
                vec!["p1 saw ping".to_string()]
            } else {
                Vec::new()
            }
        })
        .run(vec![Echo::default(); 2]);
        assert!(!rep.clean());
        let v = &rep.violations[0];
        assert!(!v.schedule.is_empty());
        assert!(v
            .schedule
            .iter()
            .any(|s| matches!(s, Step::Deliver(k) if k.to == ProcessId(1))));
    }

    #[test]
    fn dpor_agrees_with_full_enumeration_on_verdicts() {
        let run = |dpor: bool, crash: usize| {
            let c = ExploreConfig {
                dpor,
                crash_budget: crash,
                ..cfg()
            };
            Explorer::new(c, |actors: &[Echo]| {
                // "Violation": some live process never got any message
                // although every delivery happened (vacuous enough to
                // trigger in some schedules, not others).
                if actors.iter().all(|a| a.got.is_empty()) {
                    vec!["nobody got anything".into()]
                } else {
                    Vec::new()
                }
            })
            .run(vec![Echo::default(); 3])
        };
        for crash in [0usize, 1] {
            let full = run(false, crash);
            let dpor = run(true, crash);
            assert_eq!(full.clean(), dpor.clean(), "crash={crash}");
            assert!(
                dpor.schedules <= full.schedules,
                "reduction should not grow the space"
            );
            assert!(dpor.schedules > 0);
        }
    }

    #[test]
    fn crash_budget_explores_crash_placements() {
        let c = ExploreConfig {
            crash_budget: 1,
            ..cfg()
        };
        let rep = Explorer::new(c, |_: &[Echo]| Vec::new()).run(vec![Echo::default(); 2]);
        assert!(rep.clean());
        // With a crash budget the space is strictly larger than without.
        let rep0 = Explorer::new(cfg(), |_: &[Echo]| Vec::new()).run(vec![Echo::default(); 2]);
        assert!(rep.schedules > rep0.schedules);
    }

    #[test]
    fn drop_budget_enables_omission_faults() {
        let c = ExploreConfig {
            drop_budget: 1,
            ..cfg()
        };
        // A schedule must exist where p1 never sees the ping.
        let rep = Explorer::new(c, |actors: &[Echo]| {
            if actors[1].got.is_empty() {
                vec!["ping omitted".into()]
            } else {
                Vec::new()
            }
        })
        .run(vec![Echo::default(); 2]);
        assert!(!rep.clean());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.schedule.iter().any(|s| matches!(s, Step::Drop(_)))));
    }

    #[test]
    fn deliveries_respect_min_latency_timestamps() {
        // After any complete schedule, every recipient clock is at least
        // min_latency past zero if it received anything.
        let rep = Explorer::new(cfg(), |_: &[Echo]| Vec::new()).run(vec![Echo::default(); 2]);
        assert!(rep.clean());
        assert!(rep.transitions > 0);
    }
}
