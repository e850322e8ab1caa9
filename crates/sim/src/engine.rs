//! The discrete-event engine: world, processes, actors and effects.
//!
//! Processes are [`Actor`]s — pure state machines invoked with messages
//! and timer expirations, emitting effects (send, broadcast, set-timer,
//! trace) through a [`Ctx`]. The [`World`] owns the event queue, the
//! network model, fault injection and the stats ledger, and guarantees
//! **bit-for-bit determinism** for a given seed: events are totally
//! ordered by `(time, insertion-seq)` and all randomness flows from one
//! seeded generator consumed in event order.

use crate::clock::{ClockConfig, HardwareClock};
use crate::fault::{Fault, FaultAction};
use crate::link::{Fate, LinkModel};
use crate::stats::Stats;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeSet, BinaryHeap};
use tw_proto::{Duration, HwTime, Msg, ProcessId};

/// Message payloads the engine can account for.
pub trait Payload: Clone {
    /// A static label for the stats ledger ("decision", "join", …).
    fn kind_label(&self) -> &'static str;
}

impl Payload for Msg {
    fn kind_label(&self) -> &'static str {
        self.kind().as_str()
    }
}

/// A simulated process body.
///
/// Implementations must be deterministic: any randomness must come from
/// [`Ctx::rng`], any time from [`Ctx::now_hw`]. The engine never exposes
/// real simulated time to actors — processes in a timed asynchronous
/// system only ever see their own hardware clock.
pub trait Actor: Sized {
    /// The message type exchanged between processes.
    type Msg: Payload;

    /// Called once when the process starts at simulation time zero.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called for every delivered datagram.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: ProcessId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] expires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64);

    /// Called when the process recovers from a crash (default: behave
    /// like a fresh start). Implementations should reset volatile state
    /// and bump their incarnation.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.on_start(ctx);
    }
}

/// Whether a process is currently running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessStatus {
    /// Running normally.
    Up,
    /// Crashed: receives nothing, timers cancelled, sends impossible.
    Crashed,
}

/// Handle for a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// The effect interface an actor sees while handling one event.
pub struct Ctx<'a, M> {
    pid: ProcessId,
    n: usize,
    now_hw: HwTime,
    next_timer_id: &'a mut u64,
    effects: &'a mut Vec<Effect<M>>,
    rng: &'a mut StdRng,
}

impl<'a, M> Ctx<'a, M> {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Team size (number of processes in the world).
    #[inline]
    pub fn team_size(&self) -> usize {
        self.n
    }

    /// This process's hardware clock reading for the current event.
    #[inline]
    pub fn now_hw(&self) -> HwTime {
        self.now_hw
    }

    /// Send a datagram to one process (may be self).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Broadcast a datagram to every *other* process (UDP-broadcast
    /// style: the sender does not receive its own broadcast).
    pub fn broadcast(&mut self, msg: M) {
        self.effects.push(Effect::Broadcast { msg });
    }

    /// Arm a one-shot timer that fires after `after_hw` *hardware* time.
    /// The returned id names the timer in the explorer's schedules.
    pub fn set_timer(&mut self, after_hw: Duration, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::Timer {
            id,
            after_hw,
            token,
        });
        id
    }

    /// Emit a trace line (recorded with real time and pid when tracing is
    /// enabled).
    pub fn trace(&mut self, text: impl Into<String>) {
        self.effects.push(Effect::Trace(text.into()));
    }

    /// Deterministic randomness for the actor.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Crate-internal constructor so sibling drivers (the [`World`] event
    /// loop and the [`crate::explore`] schedule explorer) can invoke
    /// actors through the same effect interface.
    pub(crate) fn internal(
        pid: ProcessId,
        n: usize,
        now_hw: HwTime,
        next_timer_id: &'a mut u64,
        effects: &'a mut Vec<Effect<M>>,
        rng: &'a mut StdRng,
    ) -> Self {
        Ctx {
            pid,
            n,
            now_hw,
            next_timer_id,
            effects,
            rng,
        }
    }
}

pub(crate) enum Effect<M> {
    Send {
        to: ProcessId,
        msg: M,
    },
    Broadcast {
        msg: M,
    },
    Timer {
        id: TimerId,
        after_hw: Duration,
        token: u64,
    },
    Trace(String),
}

/// Scheduled world mutations (the fault script).
enum ScriptKind<A: Actor> {
    Crash(ProcessId),
    Recover(ProcessId),
    Partition(Vec<BTreeSet<ProcessId>>),
    Heal,
    AddFault(Fault<A::Msg>),
    #[allow(clippy::type_complexity)]
    Call(ProcessId, Box<dyn FnOnce(&mut A, &mut Ctx<'_, A::Msg>)>),
}

enum EventKind<A: Actor> {
    Start(ProcessId),
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: A::Msg,
        late: bool,
    },
    Timer {
        pid: ProcessId,
        token: u64,
        epoch: u32,
    },
    Script(ScriptKind<A>),
}

struct Event<A: Actor> {
    at: SimTime,
    /// Tie-break class at equal timestamps: scripts (world mutations)
    /// apply before process activity scheduled for the same instant.
    class: u8,
    seq: u64,
    kind: EventKind<A>,
}

impl<A: Actor> PartialEq for Event<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.class == other.class && self.seq == other.seq
    }
}
impl<A: Actor> Eq for Event<A> {}
impl<A: Actor> PartialOrd for Event<A> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<A: Actor> Ord for Event<A> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
    // first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Process<A> {
    actor: A,
    status: ProcessStatus,
    clock: HardwareClock,
    epoch: u32,
}

/// Static world parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for all simulation randomness.
    pub seed: u64,
    /// Network behaviour.
    pub link: LinkModel,
    /// Maximum scheduling delay σ: every actor invocation for a timer is
    /// additionally delayed by a uniform draw from `[0, sched_jitter]`,
    /// modelling OS scheduling.
    pub sched_jitter: Duration,
    /// Record `Ctx::trace` lines.
    pub trace: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            link: LinkModel::default(),
            sched_jitter: Duration::ZERO,
            trace: false,
        }
    }
}

/// The simulated world: processes, network, clocks, faults and time.
pub struct World<A: Actor> {
    cfg: WorldConfig,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Event<A>>,
    procs: Vec<Process<A>>,
    partition: Option<Vec<BTreeSet<ProcessId>>>,
    faults: Vec<Fault<A::Msg>>,
    rng: StdRng,
    stats: Stats,
    trace: Vec<(SimTime, ProcessId, String)>,
    next_timer_id: u64,
    /// The current invocation's effects; drained by `flush_effects` and
    /// kept for its capacity.
    effects: Vec<Effect<A::Msg>>,
    /// Per rank: whether the current flush sends to it (see
    /// `flush_effects`), kept across flushes like `effects`.
    wire_dest: Vec<bool>,
}

impl<A: Actor> World<A> {
    /// Create an empty world.
    pub fn new(cfg: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        World {
            cfg,
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            procs: Vec::new(),
            partition: None,
            faults: Vec::new(),
            rng,
            stats: Stats::new(),
            trace: Vec::new(),
            next_timer_id: 1,
            effects: Vec::new(),
            wire_dest: Vec::new(),
        }
    }

    /// Add a process with the given clock; its `on_start` runs at time
    /// zero. Returns its id (ranks are assigned in insertion order).
    pub fn add_process(&mut self, actor: A, clock: ClockConfig) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u16);
        self.procs.push(Process {
            actor,
            status: ProcessStatus::Up,
            clock: HardwareClock::new(clock),
            epoch: 0,
        });
        self.push_event(SimTime::ZERO, EventKind::Start(pid));
        pid
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no processes were added.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Current simulated real time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to a process's actor.
    pub fn actor(&self, p: ProcessId) -> &A {
        &self.procs[p.rank()].actor
    }

    /// Mutable access to a process's actor (for test/experiment setup
    /// outside the event loop; inside it, use [`World::call_at`]).
    pub fn actor_mut(&mut self, p: ProcessId) -> &mut A {
        &mut self.procs[p.rank()].actor
    }

    /// A process's up/crashed status.
    pub fn status(&self, p: ProcessId) -> ProcessStatus {
        self.procs[p.rank()].status
    }

    /// A process's hardware clock reading at the current time.
    pub fn hw_time(&self, p: ProcessId) -> HwTime {
        self.procs[p.rank()].clock.read(self.now)
    }

    /// The message ledger.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reset the message ledger (to measure a steady-state window).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Recorded trace lines `(time, pid, text)`.
    pub fn trace(&self) -> &[(SimTime, ProcessId, String)] {
        &self.trace
    }

    // ---- fault script -------------------------------------------------

    /// Crash `p` at time `t`: timers are invalidated, in-flight messages
    /// to it are discarded on arrival.
    pub fn crash_at(&mut self, t: SimTime, p: ProcessId) {
        self.push_event(t, EventKind::Script(ScriptKind::Crash(p)));
    }

    /// Recover `p` at time `t` (invokes [`Actor::on_recover`]).
    pub fn recover_at(&mut self, t: SimTime, p: ProcessId) {
        self.push_event(t, EventKind::Script(ScriptKind::Recover(p)));
    }

    /// Partition the network at `t` into the given groups; messages cross
    /// group boundaries are dropped. Processes absent from all groups are
    /// isolated.
    pub fn partition_at(&mut self, t: SimTime, groups: &[&[u16]]) {
        let groups = groups
            .iter()
            .map(|g| g.iter().map(|&r| ProcessId(r)).collect())
            .collect();
        self.push_event(t, EventKind::Script(ScriptKind::Partition(groups)));
    }

    /// Remove any partition at time `t`.
    pub fn heal_at(&mut self, t: SimTime) {
        self.push_event(t, EventKind::Script(ScriptKind::Heal));
    }

    /// Install a targeted fault at time `t`.
    pub fn add_fault_at(&mut self, t: SimTime, fault: Fault<A::Msg>) {
        self.push_event(t, EventKind::Script(ScriptKind::AddFault(fault)));
    }

    /// Invoke a closure on `p`'s actor at time `t`, with a full effect
    /// context (the way experiments inject "client" operations such as
    /// proposing an update). Skipped if `p` is crashed at `t`.
    pub fn call_at(
        &mut self,
        t: SimTime,
        p: ProcessId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) + 'static,
    ) {
        self.push_event(t, EventKind::Script(ScriptKind::Call(p, Box::new(f))));
    }

    // ---- run loop ------------------------------------------------------

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.heap.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        match ev.kind {
            EventKind::Start(pid) => self.invoke(pid, Invoke::Start),
            EventKind::Deliver {
                from,
                to,
                msg,
                late,
            } => {
                let kind = msg.kind_label();
                if self.procs[to.rank()].status == ProcessStatus::Crashed {
                    self.stats.record_to_crashed(kind);
                } else {
                    self.stats.record_delivered(kind, late);
                    self.invoke(to, Invoke::Message { from, msg });
                }
            }
            EventKind::Timer { pid, token, epoch } => {
                let proc = &self.procs[pid.rank()];
                let stale = proc.epoch != epoch || proc.status == ProcessStatus::Crashed;
                if !stale {
                    self.invoke(pid, Invoke::Timer { token });
                }
            }
            EventKind::Script(s) => self.apply_script(s),
        }
        true
    }

    /// Run until the queue is exhausted or simulated time would pass `t`;
    /// afterwards `now() == t` (unless already later).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(ev) = self.heap.peek() {
            if ev.at > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// Run for a real-time duration from `now()`.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now + d;
        self.run_until(t);
    }

    // ---- internals ------------------------------------------------------

    fn push_event(&mut self, at: SimTime, kind: EventKind<A>) {
        let class = match kind {
            EventKind::Script(_) => 0,
            _ => 1,
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event {
            at,
            class,
            seq,
            kind,
        });
    }

    fn apply_script(&mut self, s: ScriptKind<A>) {
        match s {
            ScriptKind::Crash(p) => {
                let proc = &mut self.procs[p.rank()];
                proc.status = ProcessStatus::Crashed;
                proc.epoch += 1;
            }
            ScriptKind::Recover(p) => {
                if self.procs[p.rank()].status == ProcessStatus::Crashed {
                    self.procs[p.rank()].status = ProcessStatus::Up;
                    self.invoke(p, Invoke::Recover);
                }
            }
            ScriptKind::Partition(groups) => self.partition = Some(groups),
            ScriptKind::Heal => self.partition = None,
            ScriptKind::AddFault(f) => self.faults.push(f),
            ScriptKind::Call(p, f) => {
                if self.procs[p.rank()].status == ProcessStatus::Up {
                    self.invoke(p, Invoke::Call(f));
                }
            }
        }
    }

    fn invoke(&mut self, pid: ProcessId, what: Invoke<A>) {
        debug_assert!(self.effects.is_empty());
        let n = self.procs.len();
        let now_hw = self.procs[pid.rank()].clock.read(self.now);
        {
            let proc = &mut self.procs[pid.rank()];
            let mut ctx = Ctx {
                pid,
                n,
                now_hw,
                next_timer_id: &mut self.next_timer_id,
                effects: &mut self.effects,
                rng: &mut self.rng,
            };
            match what {
                Invoke::Start => proc.actor.on_start(&mut ctx),
                Invoke::Recover => proc.actor.on_recover(&mut ctx),
                Invoke::Message { from, msg } => proc.actor.on_message(&mut ctx, from, msg),
                Invoke::Timer { token } => proc.actor.on_timer(&mut ctx, token),
                Invoke::Call(f) => f(&mut proc.actor, &mut ctx),
            }
        }
        self.flush_effects(pid);
    }

    fn flush_effects(&mut self, pid: ProcessId) {
        // Both buffers are taken out for the walk (routing needs `self`)
        // and handed back emptied, so their capacity serves every
        // invocation.
        let mut effects = std::mem::take(&mut self.effects);
        // Coalesced wire model alongside the per-message ledger: a
        // batching runtime packs everything one dispatch emits for a
        // given destination into a single framed datagram, so the wire
        // cost of this flush is the number of distinct destinations —
        // tracked here per rank, recorded once at the end.
        let mut wire_dest = std::mem::take(&mut self.wire_dest);
        wire_dest.clear();
        wire_dest.resize(self.procs.len(), false);
        for e in effects.drain(..) {
            match e {
                Effect::Send { to, msg } => {
                    self.stats.record_send(msg.kind_label(), pid);
                    if to.rank() < wire_dest.len() && to != pid {
                        wire_dest[to.rank()] = true;
                    }
                    self.route(pid, to, msg);
                }
                Effect::Broadcast { msg } => {
                    self.stats.record_send(msg.kind_label(), pid);
                    for (rank, dest) in wire_dest.iter_mut().enumerate() {
                        let to = ProcessId(rank as u16);
                        if to != pid {
                            *dest = true;
                            self.route(pid, to, msg.clone());
                        }
                    }
                }
                Effect::Timer {
                    after_hw, token, ..
                } => {
                    let proc = &self.procs[pid.rank()];
                    let mut real = proc.clock.hw_to_real(after_hw);
                    if self.cfg.sched_jitter > Duration::ZERO {
                        // tw-lint: allow(float-state) -- seeded-RNG jitter draw, rounded to integral micros before queueing
                        let j: f64 = self.rng.gen();
                        // tw-lint: allow(float-state) -- same jitter computation
                        let jitter = self.cfg.sched_jitter.as_micros() as f64 * j;
                        real += Duration(jitter.round() as i64);
                    }
                    let epoch = proc.epoch;
                    let at = self.now + real.max(Duration::ZERO);
                    self.push_event(at, EventKind::Timer { pid, token, epoch });
                }
                Effect::Trace(text) => {
                    if self.cfg.trace {
                        self.trace.push((self.now, pid, text));
                    }
                }
            }
        }
        let coalesced = wire_dest.iter().filter(|d| **d).count() as u64;
        self.stats.record_wire_flush(coalesced);
        self.effects = effects;
        self.wire_dest = wire_dest;
    }

    fn partition_blocks(&self, from: ProcessId, to: ProcessId) -> bool {
        match &self.partition {
            None => false,
            Some(groups) => !groups.iter().any(|g| g.contains(&from) && g.contains(&to)),
        }
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg) {
        let kind = msg.kind_label();
        self.stats.record_datagram(kind);
        if self.partition_blocks(from, to) {
            self.stats.record_dropped(kind);
            return;
        }
        // Targeted faults take precedence over the stochastic link model.
        let mut injected: Option<FaultAction> = None;
        for f in &mut self.faults {
            if let Some(a) = f.apply(from, to, &msg) {
                injected = Some(a);
                break;
            }
        }
        self.faults.retain(|f| !f.exhausted());
        let (delay, late) = match injected {
            Some(FaultAction::Drop) => {
                self.stats.record_dropped(kind);
                return;
            }
            Some(FaultAction::Delay(extra)) => match self.cfg.link.draw(&mut self.rng) {
                Fate::Deliver(d) | Fate::DeliverLate(d) => (d + extra, true),
                Fate::Drop => {
                    self.stats.record_dropped(kind);
                    return;
                }
            },
            None => match self.cfg.link.draw(&mut self.rng) {
                Fate::Deliver(d) => (d, false),
                Fate::DeliverLate(d) => (d, true),
                Fate::Drop => {
                    self.stats.record_dropped(kind);
                    return;
                }
            },
        };
        let at = self.now + delay;
        self.push_event(
            at,
            EventKind::Deliver {
                from,
                to,
                msg,
                late,
            },
        );
    }
}

enum Invoke<A: Actor> {
    Start,
    Recover,
    Message {
        from: ProcessId,
        msg: A::Msg,
    },
    Timer {
        token: u64,
    },
    #[allow(clippy::type_complexity)]
    Call(Box<dyn FnOnce(&mut A, &mut Ctx<'_, A::Msg>)>),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny ping-pong actor for engine tests.
    #[derive(Default)]
    struct Pinger {
        received: Vec<(ProcessId, &'static str, u32)>,
        timer_tokens: Vec<u64>,
        started: u32,
        recovered: u32,
    }

    #[derive(Clone)]
    struct TestMsg(&'static str, u32);

    impl Payload for TestMsg {
        fn kind_label(&self) -> &'static str {
            self.0
        }
    }

    impl Actor for Pinger {
        type Msg = TestMsg;

        fn on_start(&mut self, ctx: &mut Ctx<'_, TestMsg>) {
            self.started += 1;
            if ctx.pid() == ProcessId(0) {
                ctx.broadcast(TestMsg("ping", 1));
                ctx.set_timer(Duration::from_millis(10), 77);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: ProcessId, msg: TestMsg) {
            self.received.push((from, msg.0, msg.1));
            if msg.0 == "ping" {
                ctx.send(from, TestMsg("pong", msg.1));
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TestMsg>, token: u64) {
            self.timer_tokens.push(token);
        }

        fn on_recover(&mut self, _ctx: &mut Ctx<'_, TestMsg>) {
            self.recovered += 1;
        }
    }

    fn world(n: usize) -> World<Pinger> {
        let mut w = World::new(WorldConfig::default());
        for _ in 0..n {
            w.add_process(Pinger::default(), ClockConfig::default());
        }
        w
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut w = world(4);
        w.run_until(SimTime::from_millis(100));
        // p1..p3 each got one ping; p0 got three pongs.
        for r in 1..4u16 {
            let a = w.actor(ProcessId(r));
            assert_eq!(a.received.len(), 1);
            assert_eq!(a.received[0].1, "ping");
        }
        let p0 = w.actor(ProcessId(0));
        assert_eq!(p0.received.len(), 3);
        assert!(p0.received.iter().all(|(_, k, _)| *k == "pong"));
    }

    #[test]
    fn timers_fire_with_tokens() {
        let mut w = world(2);
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.actor(ProcessId(0)).timer_tokens, vec![77]);
        assert!(w.actor(ProcessId(1)).timer_tokens.is_empty());
    }

    #[test]
    fn stats_count_sends_and_datagrams() {
        let mut w = world(3);
        w.run_until(SimTime::from_millis(100));
        let ping = w.stats().kind("ping");
        assert_eq!(ping.sends, 1);
        assert_eq!(ping.datagrams, 2);
        assert_eq!(ping.delivered, 2);
        let pong = w.stats().kind("pong");
        assert_eq!(pong.sends, 2);
        assert_eq!(pong.delivered, 2);
    }

    #[test]
    fn wire_ledger_counts_coalesced_destinations() {
        let mut w = world(3);
        w.run_until(SimTime::from_millis(100));
        // Flushes that sent something: p0's start broadcast (2 dests)
        // and each pong reply (1 dest). Receive-only and timer
        // dispatches emit nothing and are not counted.
        assert_eq!(w.stats().wire_flushes(), 3);
        assert_eq!(w.stats().wire_datagrams(), 4);
    }

    #[test]
    fn wire_ledger_coalesces_send_plus_broadcast() {
        let mut w = world(3);
        // One dispatch emitting a broadcast AND a targeted send to p1:
        // the per-message ledger pays 3 datagrams, the coalesced wire
        // ledger pays one framed datagram per destination = 2.
        w.call_at(SimTime::from_millis(50), ProcessId(0), |_, ctx| {
            ctx.broadcast(TestMsg("burst", 9));
            ctx.send(ProcessId(1), TestMsg("extra", 9));
        });
        w.run_until(SimTime::from_millis(60));
        let per_msg = w.stats().kind("burst").datagrams + w.stats().kind("extra").datagrams;
        assert_eq!(per_msg, 3);
        // 2 from the start broadcast + 2 from the coalesced dispatch,
        // plus one per pong reply to the start ping.
        assert_eq!(w.stats().wire_datagrams(), 6);
        let all_datagrams: u64 = w.stats().iter().map(|(_, c)| c.datagrams).sum();
        assert!(w.stats().wire_datagrams() < all_datagrams);
    }

    #[test]
    fn crashed_process_receives_nothing() {
        let mut w = world(3);
        w.crash_at(SimTime::ZERO, ProcessId(1));
        w.run_until(SimTime::from_millis(100));
        // The crash script at t=0 runs before any delivery (~1 ms later).
        assert!(w.actor(ProcessId(1)).received.is_empty());
        assert_eq!(w.stats().kind("ping").to_crashed, 1);
    }

    #[test]
    fn recover_invokes_hook_and_reenables_delivery() {
        let mut w = world(3);
        w.crash_at(SimTime::ZERO, ProcessId(1));
        w.recover_at(SimTime::from_millis(50), ProcessId(1));
        w.call_at(SimTime::from_millis(60), ProcessId(0), |_, ctx| {
            ctx.send(ProcessId(1), TestMsg("ping", 2));
        });
        w.run_until(SimTime::from_millis(100));
        let p1 = w.actor(ProcessId(1));
        assert_eq!(p1.recovered, 1);
        assert_eq!(p1.received.len(), 1);
        assert_eq!(p1.received[0].2, 2);
    }

    #[test]
    fn crash_invalidates_pending_timers() {
        let mut w = world(2);
        // p0 sets a timer for t=10ms at start; crash it at 5ms.
        w.crash_at(SimTime::from_millis(5), ProcessId(0));
        w.recover_at(SimTime::from_millis(8), ProcessId(0));
        w.run_until(SimTime::from_millis(100));
        assert!(w.actor(ProcessId(0)).timer_tokens.is_empty());
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut w = world(4);
        w.partition_at(SimTime::ZERO, &[&[0, 1], &[2, 3]]);
        w.run_until(SimTime::from_millis(100));
        // Ping from p0 only reaches p1.
        assert_eq!(w.actor(ProcessId(1)).received.len(), 1);
        assert!(w.actor(ProcessId(2)).received.is_empty());
        assert!(w.actor(ProcessId(3)).received.is_empty());
        assert_eq!(w.stats().kind("ping").dropped, 2);
    }

    #[test]
    fn heal_restores_traffic() {
        let mut w = world(2);
        w.partition_at(SimTime::ZERO, &[&[0], &[1]]);
        w.heal_at(SimTime::from_millis(20));
        w.call_at(SimTime::from_millis(30), ProcessId(0), |_, ctx| {
            ctx.send(ProcessId(1), TestMsg("ping", 9));
        });
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.actor(ProcessId(1)).received.len(), 1);
    }

    #[test]
    fn targeted_drop_fault() {
        use crate::fault::MsgMatcher;
        let mut w = world(3);
        w.add_fault_at(
            SimTime::ZERO,
            Fault::drop_next(MsgMatcher::any().to(ProcessId(1)), 1),
        );
        w.run_until(SimTime::from_millis(100));
        assert!(w.actor(ProcessId(1)).received.is_empty());
        assert_eq!(w.actor(ProcessId(2)).received.len(), 1);
    }

    #[test]
    fn targeted_delay_fault_marks_late() {
        use crate::fault::MsgMatcher;
        let mut w = world(2);
        w.add_fault_at(
            SimTime::ZERO,
            Fault::delay_next(MsgMatcher::any(), 1, Duration::from_millis(40)),
        );
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.stats().kind("ping").late, 1);
        assert_eq!(w.actor(ProcessId(1)).received.len(), 1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut w = World::new(WorldConfig {
                seed,
                link: LinkModel::default().with_drop_prob(0.2),
                ..WorldConfig::default()
            });
            for _ in 0..5 {
                w.add_process(Pinger::default(), ClockConfig::default());
            }
            w.run_until(SimTime::from_millis(200));
            (
                w.stats().kind("ping").delivered,
                w.stats().kind("pong").delivered,
            )
        };
        assert_eq!(run(11), run(11));
        // And a different seed gives (very likely) different drops — not
        // asserted strictly, but compute it to ensure no panic.
        let _ = run(12);
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut w = world(1);
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.now(), SimTime::from_secs(5));
    }

    #[test]
    fn call_at_skipped_for_crashed_process() {
        let mut w = world(2);
        w.crash_at(SimTime::from_millis(10), ProcessId(0));
        w.call_at(SimTime::from_millis(20), ProcessId(0), |_, ctx| {
            ctx.broadcast(TestMsg("ping", 3));
        });
        w.run_until(SimTime::from_millis(100));
        // Only the start-time ping arrived at p1, not the scripted one.
        assert_eq!(w.actor(ProcessId(1)).received.len(), 1);
    }

    #[test]
    fn hw_clocks_drift_apart() {
        let mut w: World<Pinger> = World::new(WorldConfig::default());
        w.add_process(Pinger::default(), ClockConfig::with_drift_ppm(100.0));
        w.add_process(Pinger::default(), ClockConfig::with_drift_ppm(-100.0));
        w.run_until(SimTime::from_secs(10));
        let h0 = w.hw_time(ProcessId(0));
        let h1 = w.hw_time(ProcessId(1));
        assert_eq!((h0 - h1).as_micros(), 2_000);
    }
}
