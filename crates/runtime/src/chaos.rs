//! Chaos orchestration for real clusters.
//!
//! [`ChaosCluster`] is an in-process team whose every datagram crosses
//! the [`MemTransport`] mesh through a [`FaultTransport`], and whose
//! nodes can be crash-stopped, restarted (rejoining via the §5 join path
//! in a fresh incarnation), and paused/resumed to fake slow processing.
//! [`ChaosController`] executes a time-scripted [`ChaosSchedule`]
//! against such a cluster; schedules are either written by hand or
//! generated deterministically from a seed within a [`FaultBudget`].
//!
//! Every injected fault is emitted as
//! [`tw_obs::TraceEvent::FaultInjected`] into the affected node's trace
//! sink, so flight recordings of adversarial runs are self-describing
//! and the `tw-trace` analyzer can check the paper's guarantees against
//! the faults that actually fired.
//!
//! Determinism contract: a [`ChaosSchedule`] is a pure function of
//! `(seed, team size, budget)`; [`ChaosSchedule::fingerprint`] hashes
//! the whole script so two runs can prove they executed the same
//! adversity. Fault *timing* relative to protocol events is still real
//! concurrency — the guarantee checked downstream is that the verdict
//! (guarantees held / violated) is identical, not the interleaving.

use crate::fault::{ChaosNet, ChaosRng, FaultTransport, LinkPlan};
use crate::node::{ClusterBuilder, Node, Wiring};
use crate::status::NodeStatus;
use crate::transport::MemTransport;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use timewheel::Config;
use tw_obs::{FaultKind, TraceEvent, Tracer};
use tw_proto::{Incarnation, ProcessId};

/// A switch any executor thread checks before dispatching: while
/// paused, the node's threads block, faking arbitrarily slow
/// processing (the model's performance failure).
#[derive(Debug, Default)]
pub struct PauseGate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl PauseGate {
    /// A gate that starts open.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, bool> {
        self.paused.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Close the gate: executor threads block at their next check.
    pub fn pause(&self) {
        *self.lock() = true;
    }

    /// Open the gate and wake every blocked thread.
    pub fn resume(&self) {
        *self.lock() = false;
        self.cv.notify_all();
    }

    /// Block the calling thread until the gate is open.
    pub fn block_while_paused(&self) {
        let mut paused = self.lock();
        while *paused {
            paused = self
                .cv
                .wait_timeout(paused, Duration::from_millis(50))
                .map(|(g, _)| g)
                .unwrap_or_else(|e| e.into_inner().0);
        }
    }
}

/// One scripted chaos action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Replace the default per-link fault plan (loss/dup/reorder/…).
    SetPlan(LinkPlan),
    /// Partition the team into the given sides (cross-side links cut
    /// both ways, intra-side links healed).
    Partition(Vec<Vec<ProcessId>>),
    /// Reconnect every link.
    HealAll,
    /// Cut one directed link.
    Cut(ProcessId, ProcessId),
    /// Heal one directed link.
    Heal(ProcessId, ProcessId),
    /// Crash-stop a node: its threads die, its inbox unplugs, no
    /// farewell is sent.
    Crash(ProcessId),
    /// Restart a crashed node as a fresh incarnation; it rejoins via
    /// the §5 join path.
    Restart(ProcessId),
    /// Freeze a node's executor threads (performance failure).
    Pause(ProcessId),
    /// Unfreeze a paused node.
    Resume(ProcessId),
}

impl ChaosOp {
    /// Stable numeric encoding for fingerprinting.
    fn words(&self, out: &mut Vec<u64>) {
        match self {
            ChaosOp::SetPlan(p) => out.extend([
                1,
                p.drop_ppm as u64,
                p.dup_ppm as u64,
                p.reorder_ppm as u64,
                p.delay_ppm as u64,
                p.corrupt_ppm as u64,
                p.hold_ms as u64,
                p.delay_ms as u64,
            ]),
            ChaosOp::Partition(sides) => {
                out.push(2);
                for side in sides {
                    out.push(u64::MAX); // side delimiter
                    out.extend(side.iter().map(|p| p.0 as u64));
                }
            }
            ChaosOp::HealAll => out.push(3),
            ChaosOp::Cut(a, b) => out.extend([4, a.0 as u64, b.0 as u64]),
            ChaosOp::Heal(a, b) => out.extend([5, a.0 as u64, b.0 as u64]),
            ChaosOp::Crash(p) => out.extend([6, p.0 as u64]),
            ChaosOp::Restart(p) => out.extend([7, p.0 as u64]),
            ChaosOp::Pause(p) => out.extend([8, p.0 as u64]),
            ChaosOp::Resume(p) => out.extend([9, p.0 as u64]),
        }
    }
}

impl std::fmt::Display for ChaosOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosOp::SetPlan(p) if p.is_clean() => write!(f, "set-plan clean"),
            ChaosOp::SetPlan(p) => write!(
                f,
                "set-plan drop={} dup={} reorder={} delay={} corrupt={} (ppm)",
                p.drop_ppm, p.dup_ppm, p.reorder_ppm, p.delay_ppm, p.corrupt_ppm
            ),
            ChaosOp::Partition(sides) => {
                write!(f, "partition")?;
                for (i, side) in sides.iter().enumerate() {
                    write!(f, "{}[", if i == 0 { " " } else { " | " })?;
                    for (j, p) in side.iter().enumerate() {
                        write!(f, "{}{p}", if j == 0 { "" } else { "," })?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            ChaosOp::HealAll => write!(f, "heal-all"),
            ChaosOp::Cut(a, b) => write!(f, "cut {a}→{b}"),
            ChaosOp::Heal(a, b) => write!(f, "heal {a}→{b}"),
            ChaosOp::Crash(p) => write!(f, "crash {p}"),
            ChaosOp::Restart(p) => write!(f, "restart {p}"),
            ChaosOp::Pause(p) => write!(f, "pause {p}"),
            ChaosOp::Resume(p) => write!(f, "resume {p}"),
        }
    }
}

/// One step of a chaos script: do `op` at `at_ms` after the script
/// starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosStep {
    /// Milliseconds from script start.
    pub at_ms: u64,
    /// What to do.
    pub op: ChaosOp,
}

/// Limits for randomized schedule generation — how much adversity a
/// generated script may contain and how it is paced.
#[derive(Debug, Clone)]
pub struct FaultBudget {
    /// Quiet time before the first fault (group formation margin).
    pub warmup_ms: u64,
    /// Total script length; the tail past the last cleanup is quiet so
    /// the cluster can converge before the verdict.
    pub duration_ms: u64,
    /// How long each fault episode persists before its cleanup.
    pub hold_ms: u64,
    /// Quiet time after each cleanup before the next episode.
    pub settle_ms: u64,
    /// Maximum number of fault episodes.
    pub episodes: usize,
    /// Link plan applied during a loss episode ([`LinkPlan::is_clean`]
    /// disables loss episodes).
    pub loss_plan: LinkPlan,
    /// Allow minority partitions.
    pub partitions: bool,
    /// Allow crash + restart episodes.
    pub crashes: bool,
    /// Allow pause + resume episodes.
    pub pauses: bool,
}

impl Default for FaultBudget {
    fn default() -> Self {
        FaultBudget {
            warmup_ms: 2_000,
            duration_ms: 16_000,
            hold_ms: 1_000,
            settle_ms: 2_500,
            episodes: 3,
            loss_plan: LinkPlan {
                drop_ppm: 120_000,
                dup_ppm: 30_000,
                reorder_ppm: 30_000,
                hold_ms: 30,
                ..LinkPlan::clean()
            },
            partitions: true,
            crashes: true,
            pauses: true,
        }
    }
}

/// A time-scripted chaos scenario: a seed plus an ordered step list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The seed the schedule (and the fault fabric) was built from.
    pub seed: u64,
    /// Steps in execution order.
    pub steps: Vec<ChaosStep>,
}

impl ChaosSchedule {
    /// A hand-written schedule over `steps` (sorted by time here).
    pub fn new(seed: u64, mut steps: Vec<ChaosStep>) -> Self {
        steps.sort_by_key(|s| s.at_ms);
        ChaosSchedule { seed, steps }
    }

    /// Generate a randomized-but-deterministic schedule: a pure
    /// function of `(seed, team size, budget)`. Episodes are
    /// sequential — each fault is cleaned up (healed / restarted /
    /// resumed) and given `settle_ms` of quiet before the next one, so
    /// at most a minority is ever disturbed at once and the script is
    /// survivable by construction.
    pub fn generate(seed: u64, team: usize, budget: &FaultBudget) -> ChaosSchedule {
        let mut rng = ChaosRng::new(seed);
        let mut kinds: Vec<u8> = Vec::new();
        if !budget.loss_plan.is_clean() {
            kinds.push(0);
        }
        if budget.partitions && team >= 3 {
            kinds.push(1);
        }
        if budget.crashes && team >= 3 {
            kinds.push(2);
        }
        if budget.pauses && team >= 3 {
            kinds.push(3);
        }
        let mut steps = Vec::new();
        let mut t = budget.warmup_ms;
        if !kinds.is_empty() {
            for _ in 0..budget.episodes {
                if t + budget.hold_ms + budget.settle_ms > budget.duration_ms {
                    break;
                }
                let kind = kinds[rng.below(kinds.len() as u64) as usize];
                let until = t + budget.hold_ms;
                match kind {
                    0 => {
                        steps.push(ChaosStep {
                            at_ms: t,
                            op: ChaosOp::SetPlan(budget.loss_plan),
                        });
                        steps.push(ChaosStep {
                            at_ms: until,
                            op: ChaosOp::SetPlan(LinkPlan::clean()),
                        });
                    }
                    1 => {
                        // A minority side of 1..=(team-1)/2 random members.
                        let max_side = (team - 1) / 2;
                        let side_len = 1 + rng.below(max_side as u64) as usize;
                        let mut all: Vec<ProcessId> =
                            (0..team).map(|i| ProcessId(i as u16)).collect();
                        // Deterministic partial Fisher-Yates.
                        for i in 0..side_len {
                            let j = i + rng.below((team - i) as u64) as usize;
                            all.swap(i, j);
                        }
                        let minority: Vec<ProcessId> = all[..side_len].to_vec();
                        let majority: Vec<ProcessId> = {
                            let mut m = all[side_len..].to_vec();
                            m.sort();
                            m
                        };
                        let mut minority = minority;
                        minority.sort();
                        steps.push(ChaosStep {
                            at_ms: t,
                            op: ChaosOp::Partition(vec![majority, minority]),
                        });
                        steps.push(ChaosStep {
                            at_ms: until,
                            op: ChaosOp::HealAll,
                        });
                    }
                    2 => {
                        let victim = ProcessId(rng.below(team as u64) as u16);
                        steps.push(ChaosStep {
                            at_ms: t,
                            op: ChaosOp::Crash(victim),
                        });
                        steps.push(ChaosStep {
                            at_ms: until,
                            op: ChaosOp::Restart(victim),
                        });
                    }
                    _ => {
                        let victim = ProcessId(rng.below(team as u64) as u16);
                        steps.push(ChaosStep {
                            at_ms: t,
                            op: ChaosOp::Pause(victim),
                        });
                        steps.push(ChaosStep {
                            at_ms: until,
                            op: ChaosOp::Resume(victim),
                        });
                    }
                }
                t = until + budget.settle_ms;
            }
        }
        ChaosSchedule::new(seed, steps)
    }

    /// Order-sensitive hash of the whole script. Two runs with equal
    /// fingerprints executed the identical fault schedule.
    pub fn fingerprint(&self) -> u64 {
        let mut words = vec![self.seed, self.steps.len() as u64];
        for step in &self.steps {
            words.push(step.at_ms);
            step.op.words(&mut words);
        }
        let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
        for w in words {
            acc = ChaosRng::new(acc ^ w.wrapping_mul(0xFF51_AFD7_ED55_8CCD)).next_u64();
        }
        acc
    }

    /// Human-readable script, one step per line.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "schedule seed={} steps={}",
            self.seed,
            self.steps.len()
        );
        for s in &self.steps {
            let _ = writeln!(out, "  +{:>6}ms {}", s.at_ms, s.op);
        }
        out
    }
}

/// An in-process cluster wired for adversity: every datagram crosses
/// the [`MemTransport`] mesh through a [`FaultTransport`], and every
/// node can be crashed, restarted, paused and resumed at runtime. Built
/// by [`ClusterBuilder::chaos`].
pub struct ChaosCluster {
    plan: ClusterBuilder,
    net: Arc<ChaosNet>,
    mesh: Arc<MemTransport>,
    wrapped: Vec<Arc<FaultTransport>>,
    nodes: Vec<Option<Node>>,
    lives: Vec<u32>,
}

impl ClusterBuilder {
    /// Start the team as a [`ChaosCluster`] whose fault fabric is seeded
    /// with `seed`. Everything else the builder attached applies to
    /// every incarnation of every node: restarted members append to the
    /// same recording, re-run `hooks`, and re-bind their rank's ops port
    /// (falling back to an ephemeral one if the old port is still in
    /// TIME_WAIT — rediscover it through [`ChaosCluster::ops_addr`]).
    /// Chaos clusters run on the in-process mesh; [`ClusterBuilder::udp`]
    /// does not apply.
    pub fn chaos(mut self, seed: u64) -> std::io::Result<ChaosCluster> {
        self.resolve()?;
        let n = self.cfg.n;
        let net = ChaosNet::new(seed);
        let mesh = MemTransport::unplugged(n);
        let wrapped = (0..n)
            .map(|rank| {
                let tracer = match &self.sinks[rank] {
                    Some(s) => Tracer::new(s.clone()),
                    None => Tracer::disabled(),
                };
                let pid = ProcessId(rank as u16);
                FaultTransport::new(pid, mesh.clone(), net.clone(), tracer)
            })
            .collect();
        let mut cluster = ChaosCluster {
            plan: self,
            net,
            mesh,
            wrapped,
            nodes: (0..n).map(|_| None).collect(),
            lives: vec![0; n],
        };
        for rank in 0..n {
            cluster.start_node(rank)?;
        }
        Ok(cluster)
    }
}

impl ChaosCluster {
    /// Spawn (or respawn) the member at `rank` as incarnation
    /// `lives[rank]`, plugging a fresh bounded inbox into the mesh.
    fn start_node(&mut self, rank: usize) -> std::io::Result<()> {
        let transport = self.wrapped[rank].clone();
        let wiring = Wiring::on_mesh(&self.mesh, rank, transport, Arc::new(self.net.clock()));
        let life = Incarnation(self.lives[rank]);
        self.nodes[rank] = Some(self.plan.start(rank, life, wiring, true)?);
        Ok(())
    }

    /// The ops endpoint address of the node at `rank` (`None` while
    /// crashed or when the cluster was spawned without ops).
    pub fn ops_addr(&self, rank: usize) -> Option<std::net::SocketAddr> {
        self.node(rank).and_then(|n| n.ops_addr())
    }

    /// The shared fault fabric (plans, cuts, counters, clock).
    pub fn net(&self) -> &Arc<ChaosNet> {
        &self.net
    }

    /// The cluster configuration.
    pub fn config(&self) -> &Config {
        &self.plan.cfg
    }

    /// The live node at `rank`, if not currently crashed.
    pub fn node(&self, rank: usize) -> Option<&Node> {
        self.nodes.get(rank).and_then(|n| n.as_ref())
    }

    /// Locally observed status of the member at `rank` (crashed nodes
    /// report `None`).
    pub fn status(&self, rank: usize) -> Option<NodeStatus> {
        self.node(rank).map(|n| n.status())
    }

    /// How many times the node at `rank` has been (re)started.
    pub fn incarnation(&self, rank: usize) -> u32 {
        self.lives.get(rank).copied().unwrap_or(0)
    }

    /// Emit a [`TraceEvent::FaultInjected`] into `rank`'s sink and the
    /// fabric's ledger.
    fn emit_fault(&self, rank: usize, kind: FaultKind, target: ProcessId, arg: u32) {
        self.net.count(kind);
        if let Some(s) = self.plan.sinks.get(rank).and_then(|s| s.as_ref()) {
            s.record(&TraceEvent::FaultInjected {
                pid: ProcessId(rank as u16),
                at: self.net.stamp(),
                kind,
                target,
                arg,
            });
        }
    }

    /// Crash-stop `pid`: unplug its inbox, kill its threads, send no
    /// farewell. No-op if already crashed.
    pub fn crash(&mut self, pid: ProcessId, arg: u32) {
        let rank = pid.rank();
        if let Some(node) = self.nodes.get_mut(rank).and_then(Option::take) {
            self.emit_fault(rank, FaultKind::Crash, pid, arg);
            self.mesh.set_slot(rank, None);
            node.shutdown();
        }
    }

    /// Restart a crashed `pid` as a fresh incarnation; it rejoins via
    /// the normal §5 join path. No-op if the node is running.
    pub fn restart(&mut self, pid: ProcessId, arg: u32) {
        let rank = pid.rank();
        if rank < self.nodes.len() && self.nodes[rank].is_none() {
            self.lives[rank] += 1;
            self.start_node(rank)
                .unwrap_or_else(|e| panic!("ops endpoint bind failed for node {rank}: {e}"));
            self.emit_fault(rank, FaultKind::Restart, pid, arg);
        }
    }

    /// Freeze `pid`'s executor threads (fake slow processing).
    pub fn pause(&self, pid: ProcessId, arg: u32) {
        if let Some(node) = self.node(pid.rank()) {
            self.emit_fault(pid.rank(), FaultKind::Pause, pid, arg);
            node.pause();
        }
    }

    /// Unfreeze `pid`.
    pub fn resume(&self, pid: ProcessId, arg: u32) {
        if let Some(node) = self.node(pid.rank()) {
            node.resume();
            self.emit_fault(pid.rank(), FaultKind::Resume, pid, arg);
        }
    }

    /// Apply one scripted op (`arg` tags the emitted fault events,
    /// conventionally the step index).
    pub fn apply(&mut self, op: &ChaosOp, arg: u32) {
        match op {
            ChaosOp::SetPlan(p) => self.net.set_default_plan(*p),
            ChaosOp::Partition(sides) => {
                for (from, to) in self.net.partition(sides) {
                    self.emit_fault(from.rank(), FaultKind::CutLink, to, arg);
                }
            }
            ChaosOp::HealAll => {
                for (from, to) in self.net.heal_all() {
                    self.emit_fault(from.rank(), FaultKind::HealLink, to, arg);
                }
            }
            ChaosOp::Cut(a, b) => {
                if self.net.cut(*a, *b) {
                    self.emit_fault(a.rank(), FaultKind::CutLink, *b, arg);
                }
            }
            ChaosOp::Heal(a, b) => {
                if self.net.heal(*a, *b) {
                    self.emit_fault(a.rank(), FaultKind::HealLink, *b, arg);
                }
            }
            ChaosOp::Crash(p) => self.crash(*p, arg),
            ChaosOp::Restart(p) => self.restart(*p, arg),
            ChaosOp::Pause(p) => self.pause(*p, arg),
            ChaosOp::Resume(p) => self.resume(*p, arg),
        }
    }

    /// Flush every live node's flight recorder.
    pub fn flush_recorders(&self) {
        for node in self.nodes.iter().flatten() {
            node.flush_recorder();
        }
    }

    /// Paths of the per-node recording files, when recording.
    pub fn recording_paths(&self) -> Vec<std::path::PathBuf> {
        self.plan
            .recorders
            .iter()
            .flatten()
            .map(|r| r.path().to_path_buf())
            .collect()
    }

    /// Tear the cluster down: resume anything paused, stop every live
    /// node, join all threads.
    pub fn shutdown(mut self) {
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            node.shutdown();
        }
    }
}

/// What a schedule execution did, for verdicts and re-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Steps applied (always the full script).
    pub steps: usize,
    /// [`ChaosSchedule::fingerprint`] of the executed script.
    pub fingerprint: u64,
    /// Per-kind injected-fault totals from the fabric, in
    /// [`FaultKind::ALL`] order. Probabilistic kinds (drop, …) depend
    /// on traffic volume and are *not* part of the determinism
    /// contract; the fingerprint and the scripted kinds are.
    pub injected: [u64; FaultKind::ALL.len()],
}

/// Executes a [`ChaosSchedule`] against a live [`ChaosCluster`] in real
/// time.
pub struct ChaosController;

impl ChaosController {
    /// Run the whole script, sleeping between steps; returns the
    /// execution report. Steps fire in order even when the clock slips
    /// (a late step fires immediately).
    pub fn execute(cluster: &mut ChaosCluster, schedule: &ChaosSchedule) -> ChaosReport {
        let start = Instant::now();
        for (i, step) in schedule.steps.iter().enumerate() {
            let due = start + Duration::from_millis(step.at_ms);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            cluster.apply(&step.op, i as u32);
        }
        ChaosReport {
            steps: schedule.steps.len(),
            fingerprint: schedule.fingerprint(),
            injected: cluster.net.injected_counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn p(n: u16) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn pause_gate_blocks_until_resumed() {
        let gate = Arc::new(PauseGate::new());
        gate.pause();
        let g = gate.clone();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let d = done.clone();
        let h = std::thread::spawn(move || {
            g.block_while_paused();
            d.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!done.load(Ordering::SeqCst), "thread must be blocked");
        gate.resume();
        h.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn generated_schedules_are_deterministic_and_paced() {
        let budget = FaultBudget::default();
        let a = ChaosSchedule::generate(7, 5, &budget);
        let b = ChaosSchedule::generate(7, 5, &budget);
        let c = ChaosSchedule::generate(8, 5, &budget);
        assert_eq!(a, b, "same seed → same script");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
        assert!(!a.steps.is_empty());
        // Sorted, inside the budget window, and every disruptive op is
        // cleaned up by a later step.
        let mut last = 0;
        for s in &a.steps {
            assert!(s.at_ms >= last);
            last = s.at_ms;
            assert!(s.at_ms <= budget.duration_ms);
        }
        let mut open: Vec<&ChaosOp> = Vec::new();
        for s in &a.steps {
            match &s.op {
                ChaosOp::Crash(_) => open.push(&s.op),
                ChaosOp::Restart(pid) => {
                    assert!(matches!(open.pop(), Some(ChaosOp::Crash(c)) if c == pid));
                }
                ChaosOp::Pause(_) => open.push(&s.op),
                ChaosOp::Resume(pid) => {
                    assert!(matches!(open.pop(), Some(ChaosOp::Pause(c)) if c == pid));
                }
                ChaosOp::Partition(_) => open.push(&s.op),
                ChaosOp::HealAll => {
                    assert!(matches!(open.pop(), Some(ChaosOp::Partition(_))));
                }
                ChaosOp::SetPlan(plan) if plan.is_clean() => {
                    assert!(matches!(open.pop(), Some(ChaosOp::SetPlan(_))));
                }
                ChaosOp::SetPlan(_) => open.push(&s.op),
                _ => {}
            }
        }
        assert!(open.is_empty(), "every episode must be cleaned up");
    }

    #[test]
    fn generated_partitions_cut_only_minorities() {
        for seed in 0..20 {
            let s = ChaosSchedule::generate(seed, 5, &FaultBudget::default());
            for step in &s.steps {
                if let ChaosOp::Partition(sides) = &step.op {
                    assert_eq!(sides.len(), 2);
                    assert!(sides[1].len() * 2 < 5, "side B must be a minority");
                    assert_eq!(sides[0].len() + sides[1].len(), 5);
                }
            }
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_step_changes() {
        let a = ChaosSchedule::new(
            1,
            vec![ChaosStep {
                at_ms: 100,
                op: ChaosOp::Crash(p(2)),
            }],
        );
        let mut b = a.clone();
        b.steps[0].op = ChaosOp::Crash(p(3));
        let mut c = a.clone();
        c.steps[0].at_ms = 101;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn describe_lists_every_step() {
        let s = ChaosSchedule::generate(5, 5, &FaultBudget::default());
        let text = s.describe();
        assert_eq!(text.lines().count(), s.steps.len() + 1);
        assert!(text.contains("seed=5"));
    }
}
