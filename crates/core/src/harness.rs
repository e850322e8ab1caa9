//! Hosting the protocol on the deterministic simulator.
//!
//! [`SimMember`] adapts a [`Member`] to [`tw_sim::Actor`]. It keeps the
//! application's delivery stream and the member's own trace — the
//! [`TraceEvent`]s its `Member` emits, the history
//! [`crate::invariants`] audits. [`team_world`] builds a whole team
//! in one call and [`formed_team`] runs it until the group has formed;
//! the integration tests, the examples and every experiment go through
//! them, and wait for a crash to be absorbed with [`reformed`].

use crate::config::Config;
use crate::driver::{AppEvent, Driver, Input};
use crate::events::{Action, Delivery};
use crate::member::{CreatorState, Member, ProposeError};
use bytes::Bytes;
use std::sync::Arc;
use tw_obs::{ClockStamp, FaultKind, TraceEvent, TraceSink, Tracer, VecSink};
use tw_proto::{DescriptorBody, Duration, HwTime, Msg, ProcessId, ProposalId, Semantics, SyncTime};
use tw_sim::{Actor, ClockConfig, Ctx, LinkModel, ProcessStatus, SimTime, World, WorldConfig};

/// Timer token for the fixed-period protocol tick.
const TICK: u64 = 1;
/// Timer token for the clock-synchronization resync tick.
const CLOCK_TICK: u64 = 2;

/// An application layered on the delivery stream (see
/// [`crate::driver::DeliveryHook`]; the simulator is single-threaded, so
/// its hooks need not be `Send`).
type SimHook = Box<dyn FnMut(AppEvent<'_>) -> Option<Bytes>>;

/// A [`Member`] wired to the simulator, with its delivery stream and its
/// trace.
pub struct SimMember {
    driver: Driver,
    /// Every delivered update, with the local hardware receive time.
    pub deliveries: Vec<(HwTime, Delivery)>,
    /// Everything the member traced, in order, plus the facts the host
    /// recorded ([`SimMember::record`]).
    trace: Vec<TraceEvent>,
    /// The member's tracer sink, emptied into `trace` after each step.
    /// Each `SimMember` has its own, so explorer forks never mix events.
    sink: Arc<VecSink>,
    /// Fed each event as `trace` takes it ([`SimMember::attach_sink`]).
    attached: Option<Arc<dyn TraceSink>>,
    /// Optional application hook.
    on_deliver: Option<SimHook>,
}

/// Manual impl: the exhaustive schedule explorer (`tw_sim::explore`)
/// forks member state at every branch point. A fork gets a sink of its
/// own and a copy of the trace so far; the application hook is an
/// arbitrary `FnMut` and not clonable, so forks run with it reset to
/// `None`. Explored scenarios therefore exercise the protocol layer, not
/// application hooks.
impl Clone for SimMember {
    fn clone(&self) -> Self {
        SimMember {
            deliveries: self.deliveries.clone(),
            trace: self.trace.clone(),
            attached: self.attached.clone(),
            ..SimMember::hosting(self.driver.clone())
        }
    }
}

impl SimMember {
    /// Wrap a member. A tracer set on `member` beforehand is replaced:
    /// attach sinks with [`SimMember::attach_sink`].
    pub fn new(member: Member) -> Self {
        SimMember::hosting(Driver::new(member))
    }

    /// Point the driven member's tracer at a fresh sink of this host's.
    fn hosting(mut driver: Driver) -> Self {
        let sink = Arc::new(VecSink::new());
        driver.member_mut().set_tracer(Tracer::new(sink.clone()));
        SimMember {
            driver,
            deliveries: Vec::new(),
            trace: Vec::new(),
            sink,
            attached: None,
            on_deliver: None,
        }
    }

    /// The protocol state machine.
    pub fn member(&self) -> &Member {
        self.driver.member()
    }

    /// The member's trace so far, with the host's recorded facts: what
    /// [`crate::invariants`] feeds to the `tw_obs` auditor.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Append a fact the member did not trace itself: a fault the host
    /// injected (a restart, see [`Actor::on_recover`]), or a fabricated
    /// event in a checker's negative test.
    pub fn record(&mut self, ev: TraceEvent) {
        self.sink.record(&ev);
        self.take_trace();
    }

    /// Feed everything the trace takes from here on to `sink` as well (a
    /// flight recorder, a live auditor).
    pub fn attach_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.attached = Some(sink);
    }

    /// Where this member's delivery stream stands, for a test's failure
    /// message: the first oal window descriptor the member has neither
    /// delivered nor seen marked undeliverable; whether it received and
    /// acknowledged that update; the state of the update's FIFO
    /// predecessor; and the member's FIFO cursor for its proposer.
    pub fn stall_report(&self) -> String {
        let m = self.member();
        let (pid, oal, buf) = (m.pid(), m.oal(), &m.buf);
        let head = format!("{pid} ({:?} in {}, {oal})", m.state(), m.view().id);
        let first = oal.iter().find_map(|(o, d)| match d.body {
            DescriptorBody::Update { id, semantics, .. }
                if !d.undeliverable && !buf.is_delivered(id) =>
            {
                Some((o, id, semantics, d.acks.contains(pid)))
            }
            _ => None,
        });
        let Some((o, id, semantics, acked)) = first else {
            return format!("{head}: no window update undelivered");
        };
        let cursor = buf
            .fifo_cursors()
            .into_iter()
            .find_map(|(p, next)| (p == id.proposer).then_some(next))
            .unwrap_or(1);
        let received = if buf.has_pending(id) {
            "received (pending)"
        } else {
            "not received"
        };
        let acked = if acked { "acked" } else { "not acked" };
        let before = ProposalId::new(id.proposer, id.seq.saturating_sub(1));
        let predecessor = if before.seq == 0 {
            "none".to_string()
        } else if buf.is_delivered(before) {
            format!("{before} delivered")
        } else if cursor > before.seq {
            format!("{before} consumed undelivered")
        } else {
            let at = buf.ordinal_of(before).or_else(|| oal.ordinal_of(before));
            let held = if buf.has_pending(before) {
                "pending"
            } else {
                "not received"
            };
            let marked = at.is_some_and(|o| oal.is_undeliverable(o));
            format!("{before} {held}, ordinal {at:?}, undeliverable {marked}")
        };
        let fifo = format!(
            "FIFO predecessor {predecessor}; FIFO cursor of {}: {cursor}",
            id.proposer
        );
        format!("{head}: first undelivered {id} at {o} ({semantics}), {received}, {acked}; {fifo}")
    }

    /// Attach an application hook.
    pub fn set_hook(&mut self, hook: impl FnMut(AppEvent<'_>) -> Option<Bytes> + 'static) {
        self.on_deliver = Some(Box::new(hook));
    }

    /// Broadcast a client update from inside a [`World::call_at`]
    /// closure — the simulator's client API.
    pub fn propose(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        payload: Bytes,
        semantics: Semantics,
    ) -> Result<(), ProposeError> {
        self.dispatch(ctx, Input::Propose(vec![(payload, semantics)]))
    }

    fn take_trace(&mut self) {
        let from = self.trace.len();
        self.sink.drain_into(&mut self.trace);
        if let Some(other) = &self.attached {
            self.trace[from..].iter().for_each(|ev| other.record(ev));
        }
    }

    /// Step the driver and route its effects: messages to the simulated
    /// network, deliveries to the delivery stream; the trace takes what
    /// the member emitted. Timers are the host's: re-armed after the
    /// inputs that consumed them.
    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>, input: Input) -> Result<(), ProposeError> {
        let now = ctx.now_hw();
        let (arm_clock, arm_tick) = match input {
            Input::Start | Input::Recover => (true, true),
            Input::ClockTick => (true, false),
            Input::Tick => (false, true),
            _ => (false, false),
        };
        let effects = self.driver.step(now, input, &mut self.on_deliver);
        self.take_trace();
        for e in effects? {
            match e {
                Action::Broadcast(m) => ctx.broadcast(m),
                Action::Send(to, m) => ctx.send(to, m),
                Action::Deliver(d) => self.deliveries.push((now, d)),
                Action::InstallView(_) | Action::LeftGroup { .. } => {}
                Action::ScheduleClockTick(_) | Action::InstallAppState(_) => {
                    unreachable!("consumed by Driver::step")
                }
            }
        }
        if arm_clock {
            ctx.set_timer(self.driver.clock_deadline() - now, CLOCK_TICK);
        }
        if arm_tick {
            self.arm_tick(ctx);
        }
        Ok(())
    }

    pub(crate) fn arm_tick(&self, ctx: &mut Ctx<'_, Msg>) {
        ctx.set_timer(self.member().config().tick, TICK);
    }
}

impl Actor for SimMember {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let _ = self.dispatch(ctx, Input::Start);
    }

    /// A recovery starts a fresh incarnation: the trace records it as
    /// an injected restart, as the runtime's chaos controller does, so
    /// the auditor opens a new life for this member.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let (pid, hw) = (self.member().pid(), ctx.now_hw());
        self.record(TraceEvent::FaultInjected {
            pid,
            at: ClockStamp {
                hw,
                sync: SyncTime(hw.0),
            },
            kind: FaultKind::Restart,
            target: pid,
            arg: 0,
        });
        let _ = self.dispatch(ctx, Input::Recover);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        let _ = self.dispatch(ctx, Input::Message(from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let _ = match token {
            TICK => self.dispatch(ctx, Input::Tick),
            CLOCK_TICK => self.dispatch(ctx, Input::ClockTick),
            _ => Ok(()),
        };
    }
}

/// Parameters for building a simulated team.
#[derive(Debug, Clone)]
pub struct TeamParams {
    /// Team size.
    pub n: usize,
    /// One-way timeout δ.
    pub delta: Duration,
    /// Simulation seed.
    pub seed: u64,
    /// Network model (its `max_timely_delay()` should be ≤ δ).
    pub link: LinkModel,
    /// Hardware clock drift magnitude; process `i` gets
    /// `±drift_ppm` alternating, so clocks genuinely diverge.
    pub drift_ppm: f64, // tw-lint: allow(float-state) -- experiment knob for the simulated clock environment, not protocol state
    /// Override the derived protocol config (for ablations).
    pub config: Option<Config>,
}

impl TeamParams {
    /// Defaults: δ = 10 ms LAN, ±50 ppm drift.
    pub fn new(n: usize) -> Self {
        TeamParams {
            n,
            delta: Duration::from_millis(10),
            seed: 42,
            link: LinkModel::default(),
            drift_ppm: 50.0,
            config: None,
        }
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// The protocol configuration this team will run.
    pub fn protocol_config(&self) -> Config {
        self.config
            .unwrap_or_else(|| Config::for_team(self.n, self.delta))
    }
}

/// A simulated team.
pub type TeamWorld = World<SimMember>;

/// Build a world with `params.n` members, each running the full protocol
/// stack. Call `world.run_until(..)` to execute.
pub fn team_world(params: &TeamParams) -> TeamWorld {
    let cfg = params.protocol_config();
    let mut world = World::new(WorldConfig {
        seed: params.seed,
        link: params.link,
        sched_jitter: Duration::ZERO,
        trace: false,
    });
    for i in 0..params.n {
        let pid = ProcessId(i as u16);
        let member = Member::new_unchecked(pid, cfg);
        let drift = if i % 2 == 0 {
            params.drift_ppm
        } else {
            -params.drift_ppm
        };
        world.add_process(SimMember::new(member), ClockConfig::with_drift_ppm(drift));
    }
    world
}

/// Schedule `count` proposals from rotating senders (`k % n`), the first
/// `after` from now and `gap` apart. A sender that is outside the group
/// when its turn comes simply skips it.
pub fn inject_proposals(
    world: &mut TeamWorld,
    n: usize,
    count: usize,
    sem: Semantics,
    after: Duration,
    gap: Duration,
) {
    for k in 0..count {
        let sender = ProcessId((k % n) as u16);
        let t = world.now() + after + gap * k as i64;
        let payload = Bytes::from(format!("u{k}"));
        world.call_at(t, sender, move |a, ctx| {
            let _ = a.propose(ctx, payload, sem);
        });
    }
}

/// Step the world until `pred` holds or `deadline` passes. Returns the
/// time the predicate first held.
pub fn run_until_pred<F>(world: &mut TeamWorld, deadline: SimTime, mut pred: F) -> Option<SimTime>
where
    F: FnMut(&TeamWorld) -> bool,
{
    loop {
        if pred(world) {
            return Some(world.now());
        }
        if world.now() >= deadline {
            return None;
        }
        if !world.step() {
            return if pred(world) { Some(world.now()) } else { None };
        }
    }
}

/// Convenience predicate: every live member is in failure-free state with
/// a view of exactly `members` size.
pub fn all_in_group(world: &TeamWorld, expect_members: usize) -> bool {
    (0..world.len()).all(|i| {
        let p = ProcessId(i as u16);
        if world.status(p) != ProcessStatus::Up {
            return true;
        }
        let m = world.actor(p).member();
        m.state() == CreatorState::FailureFree && m.view().len() == expect_members
    })
}

/// Build a team world and run it until the initial group has formed.
/// Returns the world and the formation time.
pub fn formed_team(params: &TeamParams) -> (TeamWorld, SimTime) {
    let mut w = team_world(params);
    let t = run_until_pred(&mut w, SimTime::from_secs(240), |w| {
        all_in_group(w, params.n)
    })
    .expect("initial group formation");
    (w, t)
}

/// The survivors have absorbed the loss of `victims`: every other member
/// is up, failure-free and in a view of `n − |victims|` members that
/// contains no victim.
pub fn reformed(world: &TeamWorld, victims: &[ProcessId]) -> bool {
    let size = world.len() - victims.len();
    (0..world.len() as u16)
        .map(ProcessId)
        .filter(|p| !victims.contains(p))
        .all(|p| {
            let m = world.actor(p).member();
            world.status(p) == ProcessStatus::Up
                && m.state() == CreatorState::FailureFree
                && m.view().len() == size
                && victims.iter().all(|v| !m.view().contains(*v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_world_builds_n_processes() {
        let w = team_world(&TeamParams::new(3));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn initial_group_forms_on_simulator() {
        let params = TeamParams::new(3);
        let mut w = team_world(&params);
        let formed = run_until_pred(&mut w, SimTime::from_secs(10), |w| all_in_group(w, 3));
        assert!(formed.is_some(), "3-team never formed a group");
        // All three installed the same view.
        let v0 = w.actor(ProcessId(0)).member().view().clone();
        for i in 1..3u16 {
            assert_eq!(w.actor(ProcessId(i)).member().view(), &v0);
        }
        assert!(v0.is_majority_of(3));
    }

    #[test]
    fn formation_time_is_a_few_cycles() {
        let params = TeamParams::new(5);
        let cfg = params.protocol_config();
        let mut w = team_world(&params);
        let formed =
            run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, 5)).unwrap();
        // Formation should take at most ~4 cycles (clock sync + 2 join
        // rounds + settle).
        assert!(
            formed.as_micros() <= cfg.cycle().as_micros() * 5,
            "took {formed} (cycle = {})",
            cfg.cycle()
        );
    }

    #[test]
    fn decider_rotation_keeps_running_failure_free() {
        let params = TeamParams::new(3);
        let mut w = team_world(&params);
        run_until_pred(&mut w, SimTime::from_secs(10), |w| all_in_group(w, 3)).unwrap();
        w.reset_stats();
        w.run_for(Duration::from_secs(10));
        let s = w.stats();
        assert!(s.kind("decision").sends > 50, "rotation stalled");
        assert_eq!(s.kind("no-decision").sends, 0);
        assert_eq!(s.kind("reconfig").sends, 0);
        assert_eq!(s.kind("join").sends, 0);
        // Everyone is still in the same group.
        assert!(all_in_group(&w, 3));
    }

    #[test]
    fn reformed_waits_for_a_view_without_the_victim() {
        let (mut w, t) = formed_team(&TeamParams::new(3));
        assert!(t > SimTime::ZERO);
        assert!(reformed(&w, &[]));
        let victim = ProcessId(1);
        w.crash_at(w.now() + Duration::from_millis(1), victim);
        w.run_for(Duration::from_millis(2));
        assert!(!reformed(&w, &[]), "a crashed member is not up");
        assert!(!reformed(&w, &[victim]), "survivors still hold the victim");
        let deadline = w.now() + Duration::from_secs(10);
        assert!(run_until_pred(&mut w, deadline, |w| reformed(w, &[victim])).is_some());
    }

    /// The explorer forks members mid-run; each copy's trace must hold
    /// the history it shares with its sibling and then only its own
    /// steps.
    #[test]
    fn a_fork_traces_only_its_own_events() {
        let params = TeamParams::new(3);
        let (mut a, _) = formed_team(&params);
        // Same seed, same schedule: b reaches the same state, and its
        // members are then replaced by forks of a's.
        let (mut b, _) = formed_team(&params);
        assert_eq!(a.now(), b.now());
        let team = || (0..3u16).map(ProcessId);
        for p in team() {
            *b.actor_mut(p) = a.actor(p).clone();
        }
        let shared: Vec<Vec<TraceEvent>> = team().map(|p| a.actor(p).trace().to_vec()).collect();
        // Different inputs: p0 proposes in a, p1 in b.
        for (w, proposer) in [(&mut a, ProcessId(0)), (&mut b, ProcessId(1))] {
            w.call_at(w.now() + Duration::from_millis(5), proposer, |m, ctx| {
                let _ = m.propose(ctx, Bytes::from_static(b"x"), Semantics::UNORDERED_WEAK);
            });
            w.run_for(Duration::from_secs(1));
        }
        let delivered = |w: &TeamWorld, p: ProcessId| -> Vec<ProcessId> {
            let tail = &w.actor(p).trace()[shared[p.rank()].len()..];
            (tail.iter())
                .filter_map(|ev| match ev {
                    TraceEvent::Delivered { id, .. } => Some(id.proposer),
                    _ => None,
                })
                .collect()
        };
        for p in team() {
            assert!(a.actor(p).trace().starts_with(&shared[p.rank()]));
            assert!(b.actor(p).trace().starts_with(&shared[p.rank()]));
            assert_eq!(delivered(&a, p), [ProcessId(0)], "a's {p}");
            assert_eq!(delivered(&b, p), [ProcessId(1)], "b's {p}");
        }
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let params = TeamParams::new(3).seed(seed);
            let mut w = team_world(&params);
            w.run_until(SimTime::from_secs(8));
            (
                w.stats().kind("decision").sends,
                w.actor(ProcessId(0)).member().views_installed(),
            )
        };
        assert_eq!(run(7), run(7));
    }
}
