//! The simulator workloads: `sim_ordered` and `sim_crash`.
//!
//! Both run five `Member`s on `tw-sim` through a benchmark-side
//! [`BenchActor`] that mirrors `timewheel::harness::SimMember`'s
//! dispatch and adds what the benchmark needs: spans around every call
//! into `core`, a wire-byte count, and delivery logs the harness stamps
//! with simulated time after each `World::step`.

use crate::clock::thread_cpu_s;
use crate::common::{ratio, Outcome, Params, Payloads, Rng};
use crate::spans::{Spans, Stage};
use crate::stats::{highest_supported, median, undisturbed_rate};
use crate::verify::{check_safety, delivered_by, MemberLog, Rec, ViewRec};
use bytes::Bytes;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use timewheel::harness::TeamParams;
use timewheel::{Action, Config, CreatorState, Member};
use tw_obs::{TraceEvent, Tracer, VecSink};
use tw_proto::frame::{self, FrameBuilder};
use tw_proto::{Duration, Msg, ProcessId, Semantics};
use tw_sim::{Actor, ClockConfig, Ctx, ProcessStatus, SimTime, World, WorldConfig};

/// Simulated team size.
const N: usize = 5;
const TICK: u64 = 1;
const CLOCK_TICK: u64 = 2;
/// How far ahead of simulated time proposals are put on the event queue.
const SCHEDULE_AHEAD_US: i64 = 5_000;
/// `sim_ordered`: one update every 500 µs of simulated time.
const ORDERED_PERIOD_US: i64 = 500;
/// `sim_crash`: one update every 2 ms of simulated time.
const CRASH_PERIOD_US: i64 = 2_000;

/// State the actors and the harness share.
struct Shared {
    spans: RefCell<Spans>,
    /// An actor logged a delivery or a view during the current step.
    dirty: Cell<bool>,
    /// Bytes a coalescing runtime would have put on the wire.
    wire_bytes: Cell<u64>,
    scratch: RefCell<FrameBuilder>,
    /// Proposals a member refused: (update index, member, payload).
    refused: RefCell<Vec<(u64, u16, Bytes)>>,
    /// Largest `pending_len_dbg` seen (traced pass only).
    pending_max: Cell<usize>,
    traced: bool,
}

/// A `Member` on the simulator, instrumented from outside.
struct BenchActor {
    member: Member,
    log: MemberLog,
    /// Log entries already stamped with simulated time.
    stamped: (usize, usize),
    life: u32,
    shared: Rc<Shared>,
}

impl BenchActor {
    fn apply(&mut self, actions: Vec<Action>, ctx: &mut Ctx<'_, Msg>) {
        let sh = self.shared.clone();
        sh.spans.borrow_mut().enter(Stage::Apply, 0);
        let mut scratch = sh.scratch.borrow_mut();
        scratch.reset();
        let mut bytes = 0u64;
        for a in actions {
            match a {
                Action::Broadcast(m) => {
                    scratch.push_msg(&m);
                    ctx.broadcast(m);
                }
                Action::Send(to, m) => {
                    bytes += frame::encode_single(&m).len() as u64;
                    ctx.send(to, m);
                }
                Action::ScheduleClockTick(d) => {
                    ctx.set_timer(d, CLOCK_TICK);
                }
                Action::Deliver(d) => {
                    self.log.recs.push(Rec::of(&d, self.life, 0));
                    sh.dirty.set(true);
                }
                Action::InstallView(v) => {
                    self.log.views.push(ViewRec::of(&v, 0));
                    sh.dirty.set(true);
                }
                Action::InstallAppState(_) | Action::LeftGroup { .. } => {}
            }
        }
        if !scratch.is_empty() {
            // One coalesced datagram per other member.
            bytes += scratch.bytes().len() as u64 * (ctx.team_size() as u64 - 1);
        }
        sh.wire_bytes.set(sh.wire_bytes.get() + bytes);
        sh.spans.borrow_mut().exit();
    }

    fn timed<R>(&mut self, stage: Stage, f: impl FnOnce(&mut Member) -> R) -> R {
        self.shared.spans.borrow_mut().enter(stage, 0);
        let r = f(&mut self.member);
        self.shared.spans.borrow_mut().exit();
        r
    }

    fn propose(&mut self, ctx: &mut Ctx<'_, Msg>, idx: u64, payload: Bytes) {
        let now = ctx.now_hw();
        let result = self.timed(Stage::Propose, |m| {
            m.propose(now, payload.clone(), Semantics::TOTAL_STRONG)
        });
        match result {
            Ok(actions) => self.apply(actions, ctx),
            Err(_) => self
                .shared
                .refused
                .borrow_mut()
                .push((idx, self.member.pid().0, payload)),
        }
    }

    fn start(&mut self, ctx: &mut Ctx<'_, Msg>, recover: bool) {
        let now = ctx.now_hw();
        let actions = self.timed(Stage::Lifecycle, |m| {
            if recover {
                m.on_recover(now)
            } else {
                m.on_start(now)
            }
        });
        self.apply(actions, ctx);
        ctx.set_timer(self.member.config().tick, TICK);
    }
}

impl Actor for BenchActor {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.start(ctx, false);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.life += 1;
        self.start(ctx, true);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        let now = ctx.now_hw();
        let actions = self.timed(Stage::OnMessages, |m| m.on_message(now, from, msg));
        if self.shared.traced {
            let pending = self.member.pending_len_dbg();
            if pending > self.shared.pending_max.get() {
                self.shared.pending_max.set(pending);
            }
        }
        self.apply(actions, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let now = ctx.now_hw();
        match token {
            TICK => {
                let actions = self.timed(Stage::OnTick, |m| m.on_tick(now));
                self.apply(actions, ctx);
                ctx.set_timer(self.member.config().tick, TICK);
            }
            CLOCK_TICK => {
                let actions = self.timed(Stage::OnClockTick, |m| m.on_clock_tick(now));
                self.apply(actions, ctx);
            }
            _ => {}
        }
    }
}

/// One simulated team plus the instrumentation around it.
struct Sim {
    world: World<BenchActor>,
    shared: Rc<Shared>,
    cfg: Config,
    /// Trace events of every member (traced pass only), with the
    /// simulated time of the step that emitted each.
    sink: Option<Arc<VecSink>>,
    event_times: Vec<i64>,
    steps: u64,
}

impl Sim {
    /// Five members as `timewheel::harness::team_world` builds them
    /// (δ = 10 ms, ±50 ppm drift, 1 ms ± 0.2 ms links).
    fn new(seed: u64, traced: bool) -> Sim {
        let params = TeamParams::new(N).seed(seed);
        let cfg = params.protocol_config();
        let shared = Rc::new(Shared {
            spans: RefCell::new(Spans::new(false)),
            dirty: Cell::new(false),
            wire_bytes: Cell::new(0),
            scratch: RefCell::new(FrameBuilder::new()),
            refused: RefCell::new(Vec::new()),
            pending_max: Cell::new(0),
            traced,
        });
        let sink = traced.then(|| Arc::new(VecSink::new()));
        let mut world = World::new(WorldConfig {
            seed: params.seed,
            link: params.link,
            sched_jitter: Duration::ZERO,
            trace: false,
        });
        for i in 0..N {
            let mut member = Member::new(ProcessId(i as u16), cfg).expect("valid config");
            if let Some(s) = &sink {
                member.set_tracer(Tracer::new(s.clone()));
            }
            let drift = if i % 2 == 0 {
                params.drift_ppm
            } else {
                -params.drift_ppm
            };
            world.add_process(
                BenchActor {
                    member,
                    log: MemberLog::default(),
                    stamped: (0, 0),
                    life: 0,
                    shared: shared.clone(),
                },
                ClockConfig::with_drift_ppm(drift),
            );
        }
        Sim {
            world,
            shared,
            cfg,
            sink,
            event_times: Vec::new(),
            steps: 0,
        }
    }

    /// Start the measured window: hand the actors the pass's span
    /// recorder and zero the counters formation ran up.
    fn open_window(&mut self, spans: Spans) {
        *self.shared.spans.borrow_mut() = spans;
        self.shared.wire_bytes.set(0);
        self.world.reset_stats();
        self.steps = 0;
    }

    fn close_window(&mut self) -> Spans {
        std::mem::replace(&mut *self.shared.spans.borrow_mut(), Spans::new(false))
    }

    /// One `World::step`, then stamp whatever it logged with the
    /// simulated time it happened at.
    fn step(&mut self) -> bool {
        self.shared
            .spans
            .borrow_mut()
            .enter(Stage::Round, self.steps);
        let more = self.world.step();
        self.shared.spans.borrow_mut().exit();
        self.steps += 1;
        let now = self.world.now().as_micros();
        if self.shared.dirty.replace(false) {
            for i in 0..N {
                let a = self.world.actor_mut(ProcessId(i as u16));
                for r in &mut a.log.recs[a.stamped.0..] {
                    r.t_us = now;
                }
                for v in &mut a.log.views[a.stamped.1..] {
                    v.t_us = now;
                }
                a.stamped = (a.log.recs.len(), a.log.views.len());
            }
        }
        if let Some(s) = &self.sink {
            let n = s.len();
            if n > self.event_times.len() {
                self.event_times.resize(n, now);
            }
        }
        more
    }

    fn now_us(&self) -> i64 {
        self.world.now().as_micros()
    }

    fn member(&self, rank: usize) -> &Member {
        &self.world.actor(ProcessId(rank as u16)).member
    }

    fn up(&self, rank: usize) -> bool {
        self.world.status(ProcessId(rank as u16)) == ProcessStatus::Up
    }

    /// Every live member is failure-free in one view of `size` members.
    fn all_in_view(&self, size: usize) -> bool {
        let mut id = None;
        (0..N).filter(|&i| self.up(i)).all(|i| {
            let m = self.member(i);
            let same = *id.get_or_insert(m.view().id) == m.view().id;
            same && m.state() == CreatorState::FailureFree && m.view().len() == size
        })
    }

    /// Run until the five members share one view.
    fn form(&mut self) {
        while !self.all_in_view(N) {
            assert!(
                self.now_us() < 30_000_000 && self.step(),
                "five members did not form a group in 30 simulated seconds"
            );
        }
    }

    fn logs(&self) -> Vec<MemberLog> {
        (0..N)
            .map(|i| self.world.actor(ProcessId(i as u16)).log.clone())
            .collect()
    }

    fn ledger(&self) -> Ledger {
        let s = self.world.stats();
        Ledger {
            sends: s.total_sends(),
            decisions: s.kind("decision").sends,
            membership: s.sends_of(&["no-decision", "join", "reconfig"]),
            clock_sync: s.kind("clock-sync").sends,
        }
    }
}

/// Counts from the simulator's message ledger.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    sends: u64,
    decisions: u64,
    membership: u64,
    clock_sync: u64,
}

impl std::ops::AddAssign for Ledger {
    fn add_assign(&mut self, o: Ledger) {
        self.sends += o.sends;
        self.decisions += o.decisions;
        self.membership += o.membership;
        self.clock_sync += o.clock_sync;
    }
}

/// An open-loop generator of total/strong updates on simulated time,
/// round-robin over the members a client can reach.
struct Load {
    payloads: Payloads,
    period_us: i64,
    next_due: i64,
    stop_at: i64,
    rr: usize,
    /// Due time of every update proposed so far, by index.
    due_us: Vec<i64>,
    tries: Vec<u8>,
    /// Updates every member refused.
    refused: u64,
}

impl Load {
    fn new(seed: u64, period_us: i64, start_us: i64) -> Load {
        Load {
            payloads: Payloads::new(seed),
            period_us,
            next_due: start_us,
            stop_at: i64::MAX,
            rr: 0,
            due_us: Vec::new(),
            tries: Vec::new(),
            refused: 0,
        }
    }

    /// Put every proposal due within `SCHEDULE_AHEAD_US` on the event
    /// queue; `down(rank, t)` tells which members are crashed at `t`.
    fn schedule(&mut self, sim: &mut Sim, down: &dyn Fn(usize, i64) -> bool) {
        let horizon = sim.now_us() + SCHEDULE_AHEAD_US;
        while self.next_due <= horizon && self.next_due < self.stop_at {
            let mut target = self.rr % N;
            self.rr += 1;
            while down(target, self.next_due) {
                target = (target + 1) % N;
            }
            let idx = self.payloads.next_index();
            let payload = self.payloads.next_payload();
            self.due_us.push(self.next_due);
            self.tries.push(1);
            propose_at(sim, self.next_due, target, idx, payload);
            self.next_due += self.period_us;
        }
    }

    /// A refused proposal goes to the next member at once, as a client
    /// would retry; refused by all of them, it has failed.
    fn retry_refused(&mut self, sim: &mut Sim) {
        if sim.shared.refused.borrow().is_empty() {
            return;
        }
        let refused: Vec<_> = sim.shared.refused.borrow_mut().drain(..).collect();
        for (idx, at, payload) in refused {
            let tries = &mut self.tries[idx as usize];
            if *tries as usize >= N {
                self.refused += 1;
                continue;
            }
            *tries += 1;
            let mut target = (at as usize + 1) % N;
            while !sim.up(target) {
                target = (target + 1) % N;
            }
            let now = sim.now_us();
            propose_at(sim, now, target, idx, payload);
        }
    }
}

fn propose_at(sim: &mut Sim, t_us: i64, target: usize, idx: u64, payload: Bytes) {
    sim.world.call_at(
        SimTime::from_micros(t_us),
        ProcessId(target as u16),
        move |a: &mut BenchActor, ctx| a.propose(ctx, idx, payload),
    );
}

/// Step until `done` holds; false if `deadline_us` passed first. Keeps
/// the load scheduled and refused proposals retried on the way.
fn drive(
    sim: &mut Sim,
    load: &mut Load,
    down: &dyn Fn(usize, i64) -> bool,
    deadline_us: i64,
    done: &dyn Fn(&Sim) -> bool,
) -> bool {
    loop {
        load.schedule(sim, down);
        if done(sim) {
            return true;
        }
        if sim.now_us() >= deadline_us || !sim.step() {
            return false;
        }
        load.retry_refused(sim);
    }
}

/// How long a pass lasts.
#[derive(Debug, Clone, Copy)]
enum Limit {
    /// Until this much wall time has passed.
    Wall(f64),
    /// Until this many units of work (updates or episodes) are done.
    Work(u64),
}

fn views_after(logs: &[MemberLog], t_us: i64) -> u64 {
    logs.iter()
        .map(|l| l.views.iter().filter(|v| v.t_us > t_us).count() as u64)
        .sum()
}

/// What a pass over either workload measured, summed over its windows.
/// Seconds are seconds of this thread's CPU time (see `clock.rs`) unless
/// they are simulated.
#[derive(Default)]
struct Pass {
    setup_s: Vec<f64>,
    cpu_s: f64,
    sim_s: f64,
    steps: u64,
    attempted: u64,
    failed: u64,
    delivered_at_observer: u64,
    /// Observer deliveries as (CPU seconds into the pass, count).
    delivered_at: Vec<(f64, u64)>,
    /// Deliveries summed over all members: equal between a traced and
    /// an untraced pass over the same work.
    delivered_total: u64,
    lat_ms: Vec<f64>,
    wire_bytes: u64,
    ledger: Ledger,
    view_changes: u64,
    /// Total-order deliveries out of the reference member's order.
    reorders: u64,
    pending_max: usize,
    violations: Vec<String>,
    spans: Option<Spans>,
    episodes: Vec<Episode>,
}

/// Set-ups timed per run when they are repeated.
const SETUPS: u32 = 50;

/// Build a world and form the group; the CPU seconds that took.
fn formed_sim(seed: u64, traced: bool) -> (Sim, f64) {
    let t0 = thread_cpu_s();
    let mut sim = Sim::new(seed, traced);
    sim.form();
    (sim, thread_cpu_s() - t0)
}

/// One pass over `sim_ordered`. With `more_setups` another world is set
/// up (and dropped) every fiftieth of a wall-limited pass: a set-up
/// takes half a millisecond, and fifty in a row would time the
/// machine's speed during one 25 ms stretch, not the set-up.
fn ordered_pass(seed: u64, traced: bool, limit: Limit, more_setups: bool) -> Pass {
    let mut pass = Pass::default();
    let (mut sim, first_setup) = formed_sim(seed, traced);
    pass.setup_s.push(first_setup);
    let formed_us = sim.now_us();
    sim.open_window(Spans::new(traced));
    let mut load = Load::new(seed, ORDERED_PERIOD_US, formed_us + 1_000);
    let nobody_down = |_: usize, _: i64| false;
    let (t0, started) = (thread_cpu_s(), Instant::now());
    let mut seen = 0;
    loop {
        load.schedule(&mut sim, &nobody_down);
        for _ in 0..64 {
            sim.step();
        }
        load.retry_refused(&mut sim);
        let delivered = sim.world.actor(ProcessId(0)).log.recs.len() as u64;
        pass.delivered_at
            .push((thread_cpu_s() - t0, delivered - seen));
        seen = delivered;
        let done = match limit {
            Limit::Wall(s) => {
                let elapsed = started.elapsed().as_secs_f64();
                if more_setups && elapsed >= s * pass.setup_s.len() as f64 / SETUPS as f64 {
                    pass.setup_s.push(formed_sim(seed, false).1);
                }
                elapsed >= s
            }
            Limit::Work(n) => load.due_us.len() as u64 >= n,
        };
        if done {
            break;
        }
    }
    pass.cpu_s = thread_cpu_s() - t0;
    let window_end_us = sim.now_us();
    load.stop_at = window_end_us.min(load.next_due);
    pass.sim_s = (window_end_us - formed_us) as f64 / 1e6;
    pass.steps = sim.steps;
    pass.wire_bytes = sim.shared.wire_bytes.get();
    pass.ledger = sim.ledger();
    pass.delivered_at_observer = sim.world.actor(ProcessId(0)).log.recs.len() as u64;
    pass.spans = Some(sim.close_window());
    // Everything proposed gets five simulated seconds to arrive.
    drive(
        &mut sim,
        &mut load,
        &nobody_down,
        window_end_us + 5_000_000,
        &|_| false,
    );

    let logs = sim.logs();
    pass.attempted = load.due_us.len() as u64;
    let seen = delivered_by(&logs, load.due_us.len(), |_, _| true);
    pass.failed = seen.iter().filter(|&&c| (c as usize) < N).count() as u64;
    pass.delivered_total = logs.iter().map(|l| l.recs.len() as u64).sum();
    pass.lat_ms = logs[0]
        .recs
        .iter()
        .map(|r| (r.t_us - load.due_us[r.idx as usize]) as f64 / 1e3)
        .collect();
    pass.view_changes = views_after(&logs, formed_us);
    pass.pending_max = sim.shared.pending_max.get();
    pass.violations = check_safety(&logs, N, true).violations;
    if pass.view_changes > 0 {
        pass.violations.push(format!(
            "{} view installations in a failure-free run",
            pass.view_changes
        ));
    }
    pass
}

/// What one crash episode measured (times in simulated microseconds).
#[derive(Debug, Default)]
struct Episode {
    recovery_us: i64,
    rejoin_us: i64,
    unavailable_us: i64,
    /// Crash to first `SuspicionRaised`, and from there to the last
    /// survivor's `ViewInstalled` (traced pass only).
    detect_ring_us: Option<(i64, i64)>,
    probe_sent: u64,
    probe_delivered_by_victim: u64,
}

/// Golden-ratio sequence: any prefix of it covers `[0, 1)` evenly, so
/// the crash phases of a run are spread over the decider rotation
/// however many episodes fit into the run.
fn spread(base: f64, k: u64) -> f64 {
    (base + k as f64 * 0.618_033_988_749_894_9).fract()
}

/// One episode in its own world: form, load, crash, recover, rejoin,
/// probe, drain.
fn crash_episode(seed: u64, k: u64, traced: bool, pass: &mut Pass) {
    let mut rng = Rng::new(seed);
    let victim = ((rng.next_u64() % N as u64 + k) % N as u64) as usize;
    let phase = spread(rng.unit(), k);
    let observer = if victim == 0 { 1 } else { 0 };
    let pid = ProcessId(victim as u16);

    let (mut sim, setup_s) = formed_sim(seed.wrapping_add(k), traced);
    let formed_us = sim.now_us();
    pass.setup_s.push(setup_s);
    sim.open_window(pass.spans.take().unwrap_or_else(|| Spans::new(traced)));
    let t0 = thread_cpu_s();

    let cfg = sim.cfg;
    let rotation_us = cfg.decider_interval.as_micros() * N as i64;
    let load_start = formed_us + 1_000;
    let load_end = load_start + 1_000_000;
    let crash_us = load_start + 300_000 + (phase * rotation_us as f64) as i64;
    let recover_us = crash_us + 500_000;
    sim.world.crash_at(SimTime::from_micros(crash_us), pid);
    sim.world.recover_at(SimTime::from_micros(recover_us), pid);
    let down = move |r: usize, t: i64| r == victim && t >= crash_us && t < recover_us;
    let mut load = Load::new(seed.wrapping_add(k), CRASH_PERIOD_US, load_start);
    load.stop_at = load_end;
    let mut ep = Episode::default();

    // To the crash, then until the four survivors share the
    // victim-free view.
    drive(&mut sim, &mut load, &down, crash_us, &|_| false);
    let recovered = drive(&mut sim, &mut load, &down, crash_us + 5_000_000, &|s| {
        (0..N).filter(|&i| i != victim).all(|i| {
            let m = s.member(i);
            m.state() == CreatorState::FailureFree
                && m.view().len() == N - 1
                && !m.view().contains(pid)
        })
    });
    ep.recovery_us = sim.now_us() - crash_us;
    if !recovered {
        pass.violations.push(format!(
            "episode {k}: survivors did not exclude p{victim} within 5 s"
        ));
    }
    // Paper §4.2: detection within two decision timeouts, then one ring
    // hop (D + δ) per remaining survivor, plus tick granularity.
    let envelope =
        cfg.decision_timeout * 2 + (cfg.big_d + cfg.delta) * (N as i64 - 2) + cfg.tick * 4;
    if ep.recovery_us > envelope.as_micros() {
        pass.violations.push(format!(
            "episode {k}: recovery took {} us, the envelope is {} us",
            ep.recovery_us,
            envelope.as_micros()
        ));
    }
    drive(&mut sim, &mut load, &down, recover_us, &|_| false);
    let rejoined = drive(&mut sim, &mut load, &down, recover_us + 10_000_000, &|s| {
        s.up(victim) && s.all_in_view(N)
    });
    ep.rejoin_us = sim.now_us() - recover_us;
    if !rejoined {
        pass.violations
            .push(format!("episode {k}: p{victim} did not rejoin within 10 s"));
    }
    drive(&mut sim, &mut load, &down, load_end, &|_| false);
    let main_updates = load.due_us.len();
    // Probe: does the rejoined member deliver what is proposed now?
    let probe_start = sim.now_us() + 1_000;
    load.next_due = probe_start;
    load.stop_at = probe_start + 200_000;
    let end_us = load.stop_at + 1_000_000;
    drive(&mut sim, &mut load, &down, end_us, &|_| false);

    // The episode's deliveries are credited to its midpoint.
    let cpu = thread_cpu_s() - t0;
    let delivered = sim.world.actor(ProcessId(observer as u16)).log.recs.len() as u64;
    pass.delivered_at.push((pass.cpu_s + cpu / 2.0, delivered));
    pass.cpu_s += cpu;
    pass.sim_s += (end_us - formed_us) as f64 / 1e6;
    pass.steps += sim.steps;
    pass.wire_bytes += sim.shared.wire_bytes.get();
    pass.ledger += sim.ledger();
    pass.pending_max = pass.pending_max.max(sim.shared.pending_max.get());
    pass.spans = Some(sim.close_window());

    let logs = sim.logs();
    let updates = load.due_us.len();
    pass.attempted += updates as u64;
    // The service is the four survivors: an update has failed unless
    // each of them delivered it. What the victim catches up on after
    // rejoining is reported as core.rejoin_delivered_ratio instead.
    let by_survivors = delivered_by(&logs, updates, |i, _| i != victim);
    pass.failed += by_survivors
        .iter()
        .filter(|&&c| (c as usize) < N - 1)
        .count() as u64;
    let by_victim = delivered_by(&logs, updates, |i, r| i == victim && r.life > 0);
    ep.probe_sent = (updates - main_updates) as u64;
    ep.probe_delivered_by_victim =
        by_victim[main_updates..].iter().filter(|&&c| c > 0).count() as u64;
    pass.view_changes += views_after(&logs, formed_us);
    pass.delivered_total += logs.iter().map(|l| l.recs.len() as u64).sum::<u64>();
    let observed = &logs[observer].recs;
    pass.delivered_at_observer += observed.len() as u64;
    pass.lat_ms.extend(
        observed
            .iter()
            .map(|r| (r.t_us - load.due_us[r.idx as usize]) as f64 / 1e3),
    );
    ep.unavailable_us = observed
        .windows(2)
        .filter(|w| w[1].t_us >= crash_us && w[0].t_us <= crash_us + ep.recovery_us)
        .map(|w| w[1].t_us - w[0].t_us)
        .max()
        .unwrap_or(0);
    if let Some(sink) = &sim.sink {
        let events = sink.snapshot();
        let timed = || events.iter().zip(&sim.event_times);
        let suspicion = timed()
            .filter(|(e, t)| matches!(e, TraceEvent::SuspicionRaised { .. }) && **t >= crash_us)
            .map(|(_, t)| *t)
            .min();
        let installed = timed()
            .filter(|(e, t)| {
                matches!(e, TraceEvent::ViewInstalled { pid, .. } if pid.rank() != victim)
                    && (crash_us..=crash_us + ep.recovery_us).contains(*t)
            })
            .map(|(_, t)| *t)
            .max();
        match suspicion.zip(installed) {
            Some((s, i)) if i - crash_us == ep.recovery_us => {
                ep.detect_ring_us = Some((s - crash_us, i - s));
            }
            other => pass.violations.push(format!(
                "episode {k}: detection and ring {other:?} do not add up to the recovery time {} us after the crash at {crash_us}",
                ep.recovery_us
            )),
        }
    }
    let safety = check_safety(&logs, N, false);
    pass.violations.extend(safety.violations);
    pass.reorders += safety.reorders;
    pass.episodes.push(ep);
}

fn crash_pass(seed: u64, traced: bool, limit: Limit) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    loop {
        let k = pass.episodes.len() as u64;
        let done = match limit {
            Limit::Wall(s) => t0.elapsed().as_secs_f64() >= s,
            Limit::Work(n) => k >= n,
        };
        if done && k > 0 {
            return pass;
        }
        crash_episode(seed, k, traced, &mut pass);
    }
}

fn end_to_end(out: &mut Outcome, pass: Pass) {
    let updates = pass.delivered_at_observer as f64;
    out.set_opt("setup_s", median(&pass.setup_s));
    out.set_opt(
        "delivered_per_s",
        undisturbed_rate(&pass.delivered_at, pass.cpu_s),
    );
    // Simulated time: nothing disturbs it, plain percentiles do.
    out.set_opt("deliver_p50_ms", median(&pass.lat_ms));
    out.set_opt("deliver_p99_ms", highest_supported(&pass.lat_ms, 0.99));
    out.set_delivered(pass.attempted, pass.failed);
    out.set(
        "wire_bytes_per_update",
        ratio(pass.wire_bytes as f64, updates),
    );
    out.notes.push(format!(
        "{} updates over {:.3} simulated s in {:.3} CPU s; {} latency samples; {} set-ups",
        pass.attempted,
        pass.sim_s,
        pass.cpu_s,
        pass.lat_ms.len(),
        pass.setup_s.len()
    ));
    out.violations = pass.violations;
}

/// The per-layer report of a traced pass; `plain` is the untraced pass
/// over the same work.
fn per_layer(out: &mut Outcome, name: &'static str, traced: Pass, plain: &Pass) {
    let spans = traced.spans.as_ref().expect("a pass keeps its spans");
    let updates = traced.delivered_at_observer as f64;
    let per_call = |s: Stage| {
        let a = spans.agg(s);
        ratio(a.total_ns as f64, a.count as f64)
    };
    let core_ns: u64 = [
        Stage::Propose,
        Stage::OnMessages,
        Stage::OnTick,
        Stage::OnClockTick,
        Stage::Lifecycle,
    ]
    .iter()
    .map(|s| spans.agg(*s).self_ns)
    .sum();
    out.set("core.propose_ns_per_update", per_call(Stage::Propose));
    out.set("core.on_messages_ns_per_msg", per_call(Stage::OnMessages));
    out.set("core.on_tick_ns_per_tick", per_call(Stage::OnTick));
    out.set("core.busy_share", core_ns as f64 / 1e9 / traced.cpu_s);
    out.set("core.pending_max", traced.pending_max as f64);
    out.set(
        "core.decisions_per_update",
        ratio(traced.ledger.decisions as f64, updates),
    );
    out.set(
        "core.msgs_per_update",
        ratio(traced.ledger.sends as f64, updates),
    );
    out.set("core.membership_msgs", traced.ledger.membership as f64);
    out.set("core.view_changes", traced.view_changes as f64);
    out.set("core.total_order_reorders", traced.reorders as f64);
    out.set(
        "clock.sync_msgs_per_s",
        traced.ledger.clock_sync as f64 / traced.sim_s,
    );
    out.set("sim.events_per_s", traced.steps as f64 / traced.cpu_s);
    out.set(
        "sim.self_ns_per_event",
        ratio(spans.agg(Stage::Round).self_ns as f64, traced.steps as f64),
    );
    out.set(
        "bench.trace_overhead_ratio",
        ratio(traced.cpu_s, plain.cpu_s),
    );
    if !traced.episodes.is_empty() {
        let ms = |f: &dyn Fn(&Episode) -> Option<i64>| -> Vec<f64> {
            traced
                .episodes
                .iter()
                .filter_map(f)
                .map(|us| us as f64 / 1e3)
                .collect()
        };
        let recovery = ms(&|e| Some(e.recovery_us));
        out.set_opt(
            "core.detect_p50_ms",
            median(&ms(&|e| e.detect_ring_us.map(|d| d.0))),
        );
        out.set_opt(
            "core.ring_p50_ms",
            median(&ms(&|e| e.detect_ring_us.map(|d| d.1))),
        );
        out.set_opt("core.recovery_p50_ms", median(&recovery));
        out.set_opt(
            "core.recovery_max_ms",
            recovery.iter().copied().max_by(f64::total_cmp),
        );
        out.set_opt(
            "core.unavailable_p50_ms",
            median(&ms(&|e| Some(e.unavailable_us))),
        );
        out.set_opt("core.rejoin_p50_ms", median(&ms(&|e| Some(e.rejoin_us))));
        let (sent, got) = traced.episodes.iter().fold((0, 0), |(s, g), e| {
            (s + e.probe_sent, g + e.probe_delivered_by_victim)
        });
        out.set(
            "core.rejoin_delivered_ratio",
            ratio(got as f64, sent as f64),
        );
    }
    out.notes.push(format!(
        "{} updates, {} simulator steps, {} episodes; traced {:.3} s, untraced {:.3} s",
        traced.attempted,
        traced.steps,
        traced.episodes.len(),
        traced.cpu_s,
        plain.cpu_s
    ));
    crate::write_trace(spans, name, out);
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    if (plain.attempted, plain.delivered_total) != (traced.attempted, traced.delivered_total) {
        out.violations.push(format!(
            "the traced pass delivered {} of {} updates, the untraced pass {} of {}",
            traced.delivered_total, traced.attempted, plain.delivered_total, plain.attempted
        ));
    }
    out.violations.extend(traced.violations);
}

/// A traced run: an untraced pass sized by wall time, then the same
/// work again with spans on.
fn traced_run(
    out: &mut Outcome,
    name: &'static str,
    seconds: f64,
    pass: impl Fn(bool, Limit) -> Pass,
    work: impl Fn(&Pass) -> u64,
) {
    let plain = pass(false, Limit::Wall(seconds * 0.4));
    let traced = pass(true, Limit::Work(work(&plain)));
    per_layer(out, name, traced, &plain);
}

/// `sim_ordered`: 2000 total/strong updates per simulated second,
/// round-robin over five members.
pub fn sim_ordered(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    if p.trace {
        traced_run(
            &mut out,
            "sim_ordered",
            p.seconds,
            |traced, limit| ordered_pass(p.seed, traced, limit, false),
            |plain| plain.attempted,
        );
    } else {
        let pass = ordered_pass(p.seed, false, Limit::Wall(p.seconds), !p.quick);
        end_to_end(&mut out, pass);
    }
    out
}

/// `sim_crash`: independent episodes, each crashing one seeded victim
/// at a seeded phase of the decider rotation under 500 updates/s.
pub fn sim_crash(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    if p.trace {
        traced_run(
            &mut out,
            "sim_crash",
            p.seconds,
            |traced, limit| crash_pass(p.seed, traced, limit),
            |plain| plain.episodes.len() as u64,
        );
    } else {
        end_to_end(&mut out, crash_pass(p.seed, false, Limit::Wall(p.seconds)));
    }
    out
}
