//! `ladder_weak`: the whole update path driven from one thread.
//!
//! Three `Member`s, no executor, a virtual clock. Every message climbs
//! the same ladder a live node's would: `propose_batch` → `OutBatch` →
//! `UdpTransport::flush` (v2 encode + `sendmmsg`) → loopback →
//! `BatchSocket::recv_batch` → `frame::decode_datagram` →
//! `InboxSender::deliver`/`recv` → `Member::on_messages`. The harness
//! owns the receiving sockets, so each rung is a call it makes itself
//! and can time. The group forms through the same ladder.

use crate::clock::thread_cpu_s;
use crate::common::{ratio, Outcome, Params, Payloads};
use crate::spans::{Spans, Stage};
use crate::stats::{median, undisturbed_percentile, undisturbed_rate};
use crate::verify::{check_safety, delivered_by, MemberLog, Rec, ViewRec};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;
use timewheel::{Action, Config, CreatorState, Member};
use tw_obs::{TraceEvent, TraceSink, Tracer};
use tw_proto::frame::{self, FrameBuilder};
use tw_proto::{Duration, HwTime, Msg, MsgKind, ProcessId, Semantics};
use tw_runtime::mmsg::RecvSlot;
use tw_runtime::transport::{node_inbox, Deliver, InboxSender, Incoming};
use tw_runtime::{BatchSocket, OutBatch, Transport, UdpTransport};

const N: usize = 3;
/// Updates member 0 proposes per round.
const BATCH: usize = 64;
/// Virtual time per round: 32 000 updates per virtual second. At 500 µs
/// per round the decisions outgrow a UDP datagram within a second and
/// the group falls apart (README, finding 3).
const ROUND: Duration = Duration(2_000);
/// The member whose deliveries are timed; it never proposes.
const OBSERVER: usize = 2;

/// A trace sink that only counts: the cheapest consumer a `Tracer` can
/// have, so what remains is the cost of emitting.
#[derive(Default)]
struct CountingSink(AtomicU64);

impl TraceSink for CountingSink {
    fn record(&self, _ev: &TraceEvent) {
        self.0.fetch_add(1, AtomicOrdering::Relaxed);
    }
}

/// One member's station: its state machine, its sending transport and
/// the harness-owned socket and inbox it receives through.
struct Rung {
    member: Member,
    transport: Arc<UdpTransport>,
    socket: UdpSocket,
    inbox_tx: InboxSender,
    inbox_rx: Receiver<Incoming>,
    batch: OutBatch,
    slots: Vec<RecvSlot>,
    next_tick: HwTime,
    next_clock: HwTime,
    log: MemberLog,
}

/// Counts taken where the work happens.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    msgs_sent: u64,
    decisions: u64,
    membership: u64,
    clock_sync: u64,
    datagrams: u64,
    wire_bytes: u64,
    msgs_decoded: u64,
    probe_msgs: u64,
    probe_bytes: u64,
    inbox_shed: u64,
    decode_errors: u64,
}

struct Ladder {
    rungs: Vec<Rung>,
    now: HwTime,
    round: u64,
    spans: Spans,
    counts: Counts,
    /// Encodes every outgoing message a second time in the traced pass,
    /// because the encode inside `flush` cannot be timed from outside.
    probe: Option<FrameBuilder>,
    /// Thread CPU time at which the observer finished delivering each
    /// round's batch.
    round_done: Vec<Option<f64>>,
    first_measured_idx: u64,
}

impl Ladder {
    fn new(cfg: Config, tracer: Option<Tracer>) -> std::io::Result<Ladder> {
        let sockets: Vec<UdpSocket> = (0..N)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let mut peers = HashMap::new();
        for (i, s) in sockets.iter().enumerate() {
            s.set_nonblocking(true)?;
            peers.insert(ProcessId(i as u16), s.local_addr()?);
        }
        let mut rungs = Vec::new();
        for (i, socket) in sockets.into_iter().enumerate() {
            let pid = ProcessId(i as u16);
            let mut member = Member::new(pid, cfg).expect("valid config");
            if let Some(t) = &tracer {
                member.set_tracer(t.clone());
            }
            let transport =
                UdpTransport::bind(pid, "127.0.0.1:0".parse().expect("addr"), peers.clone())?;
            let (inbox_tx, inbox_rx) = node_inbox(tw_runtime::node::INBOX_CAPACITY, None);
            rungs.push(Rung {
                member,
                transport,
                socket,
                inbox_tx,
                inbox_rx,
                batch: OutBatch::new(),
                slots: (0..16).map(|_| RecvSlot::new(64 * 1024)).collect(),
                next_tick: HwTime::ZERO,
                next_clock: HwTime::ZERO,
                log: MemberLog::default(),
            });
        }
        let mut ladder = Ladder {
            rungs,
            now: HwTime::ZERO,
            round: 0,
            spans: Spans::new(false),
            counts: Counts::default(),
            probe: None,
            round_done: Vec::new(),
            first_measured_idx: 0,
        };
        for i in 0..N {
            let tick = cfg.tick;
            let resync = cfg.clock.resync_interval;
            ladder.spans.enter(Stage::Lifecycle, 0);
            let actions = ladder.rungs[i].member.on_start(HwTime::ZERO);
            ladder.spans.exit();
            ladder.rungs[i].next_tick = HwTime::ZERO + tick;
            ladder.rungs[i].next_clock = HwTime::ZERO + resync;
            ladder.apply(i, actions);
        }
        ladder.pump();
        Ok(ladder)
    }

    /// Carry out a member's actions; everything outbound leaves in one
    /// `flush`.
    fn apply(&mut self, i: usize, actions: Vec<Action>) {
        let (now, round) = (self.now, self.round);
        self.spans.enter(Stage::Apply, round);
        for a in actions {
            match a {
                Action::Broadcast(m) => {
                    self.note_send(&m, N as u64 - 1);
                    self.rungs[i].batch.push_broadcast(m);
                }
                Action::Send(to, m) => {
                    self.note_send(&m, 1);
                    self.rungs[i].batch.push_send(to, m);
                }
                Action::Deliver(d) => {
                    let rec = Rec::of(&d, 0, now.0);
                    let idx = rec.idx;
                    self.rungs[i].log.recs.push(rec);
                    if i == OBSERVER && idx >= self.first_measured_idx {
                        let rel = (idx - self.first_measured_idx) as usize;
                        if rel % BATCH == BATCH - 1 {
                            if let Some(slot) = self.round_done.get_mut(rel / BATCH) {
                                *slot = Some(thread_cpu_s());
                            }
                        }
                    }
                }
                Action::InstallView(v) => self.rungs[i].log.views.push(ViewRec::of(&v, now.0)),
                Action::ScheduleClockTick(d) => self.rungs[i].next_clock = now + d,
                Action::InstallAppState(_) | Action::LeftGroup { .. } => {}
            }
        }
        let rung = &mut self.rungs[i];
        if !rung.batch.is_empty() {
            self.spans.enter(Stage::Flush, round);
            rung.transport.flush(rung.member.pid(), &mut rung.batch);
            self.spans.exit();
        }
        self.spans.exit();
    }

    fn note_send(&mut self, m: &Msg, copies: u64) {
        self.counts.msgs_sent += 1;
        match m.kind() {
            MsgKind::Decision => self.counts.decisions += 1,
            MsgKind::ClockSync => self.counts.clock_sync += 1,
            k if k.is_membership_overhead() => self.counts.membership += 1,
            _ => {}
        }
        if let Some(probe) = &mut self.probe {
            self.spans.enter(Stage::Encode, self.round);
            probe.reset();
            for _ in 0..copies {
                probe.push_msg(m);
            }
            self.spans.exit();
            self.counts.probe_msgs += copies;
            self.counts.probe_bytes += probe.bytes().len() as u64 - 1;
        }
    }

    /// Receive on every rung until a full pass moves nothing.
    fn pump(&mut self) {
        loop {
            let mut progressed = false;
            for i in 0..N {
                progressed |= self.receive(i);
            }
            if !progressed {
                return;
            }
        }
    }

    fn receive(&mut self, i: usize) -> bool {
        let round = self.round;
        self.spans.enter(Stage::Recv, round);
        let rung = &mut self.rungs[i];
        let filled = rung.socket.recv_batch(&mut rung.slots).unwrap_or(0);
        self.spans.exit();
        for s in 0..filled {
            self.spans.enter(Stage::Decode, round);
            let decoded = frame::decode_datagram(self.rungs[i].slots[s].datagram());
            self.spans.exit();
            self.counts.datagrams += 1;
            self.counts.wire_bytes += self.rungs[i].slots[s].len as u64;
            let msgs = match decoded {
                Ok(m) => m,
                Err(_) => {
                    self.counts.decode_errors += 1;
                    continue;
                }
            };
            self.counts.msgs_decoded += msgs.len() as u64;
            let from = msgs[0].sender();
            // Through the inbox exactly as the receiver thread would.
            self.spans.enter(Stage::Inbox, round);
            let rung = &mut self.rungs[i];
            let mut msgs = msgs;
            let offered = if msgs.len() == 1 {
                rung.inbox_tx
                    .deliver(Incoming::Msg(from, msgs.pop().expect("len 1")))
            } else {
                rung.inbox_tx.deliver(Incoming::Batch(from, msgs))
            };
            let incoming = rung.inbox_rx.try_recv().ok();
            self.spans.exit();
            if offered != Deliver::Delivered {
                self.counts.inbox_shed += 1;
            }
            let Some(incoming) = incoming else { continue };
            let now = self.now;
            self.spans.enter(Stage::OnMessages, round);
            let actions = match incoming {
                Incoming::Msg(from, msg) => self.rungs[i].member.on_message(now, from, msg),
                Incoming::Batch(from, msgs) => self.rungs[i].member.on_messages(now, from, msgs),
            };
            self.spans.exit();
            self.apply(i, actions);
        }
        filled > 0
    }

    /// One round: advance the virtual clock, let member 0 propose
    /// `payloads` (if any), fire due timers, move every datagram.
    fn round(&mut self, payloads: Option<&mut Payloads>) -> bool {
        self.round += 1;
        self.now += ROUND;
        let (now, round) = (self.now, self.round);
        self.spans.enter(Stage::Round, round);
        let mut accepted = true;
        if let Some(p) = payloads {
            self.spans.enter(Stage::Gen, round);
            let batch: Vec<(Bytes, Semantics)> = (0..BATCH)
                .map(|_| (p.next_payload(), Semantics::UNORDERED_WEAK))
                .collect();
            self.spans.exit();
            self.spans.enter(Stage::Propose, round);
            let result = self.rungs[0].member.propose_batch(now, batch);
            self.spans.exit();
            match result {
                Ok(actions) => self.apply(0, actions),
                Err(_) => accepted = false,
            }
        }
        for i in 0..N {
            if now >= self.rungs[i].next_tick {
                self.spans.enter(Stage::OnTick, round);
                let actions = self.rungs[i].member.on_tick(now);
                self.spans.exit();
                self.rungs[i].next_tick = now + self.rungs[i].member.config().tick;
                self.apply(i, actions);
            }
            if now >= self.rungs[i].next_clock {
                self.spans.enter(Stage::OnClockTick, round);
                let actions = self.rungs[i].member.on_clock_tick(now);
                self.spans.exit();
                // Re-armed by the ScheduleClockTick among the actions;
                // this is the fallback if there is none.
                self.rungs[i].next_clock =
                    now + self.rungs[i].member.config().clock.resync_interval;
                self.apply(i, actions);
            }
        }
        self.pump();
        self.spans.exit();
        accepted
    }

    fn formed(&self) -> bool {
        self.rungs
            .iter()
            .all(|r| r.member.state() == CreatorState::FailureFree && r.member.view().len() == N)
    }
}

/// Build a ladder and run rounds until the group has formed.
fn setup(cfg: Config, tracer: Option<Tracer>) -> (Ladder, f64) {
    let t0 = thread_cpu_s();
    let mut ladder = Ladder::new(cfg, tracer).expect("bind loopback sockets");
    while !ladder.formed() {
        assert!(
            ladder.now < HwTime::ZERO + Duration::from_secs(60),
            "three members did not form a group in 60 virtual seconds"
        );
        ladder.round(None);
    }
    (ladder, thread_cpu_s() - t0)
}

/// What one pass measured. Seconds are seconds of this thread's CPU
/// time (see `clock.rs`); only the length of the pass is wall time.
struct Pass {
    setup_s: f64,
    cpu_s: f64,
    /// The observer's delivery rate, slow spells taken out.
    rate: Option<f64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    delivered_at_observer: u64,
    lat_ms: Vec<f64>,
    counts: Counts,
    spans: Spans,
    view_changes: u64,
    violations: Vec<String>,
}

/// Set-ups timed per run when they are repeated.
const SETUPS: u32 = 50;

/// Set up, warm up, then run rounds for `seconds`. With `more_setups`
/// another ladder is set up (and dropped) every fiftieth of the pass:
/// a set-up takes under a millisecond, and fifty in a row would time
/// the machine's speed during one 40 ms stretch, not the set-up.
fn pass(
    p: &Params,
    seconds: f64,
    spans_on: bool,
    tracer: Option<Tracer>,
    more_setups: bool,
) -> Pass {
    let cfg = Config::for_team(N, Duration::from_millis(10));
    let (mut l, first_setup) = setup(cfg, tracer.clone());
    let mut setup_walls = vec![first_setup];
    let formed_at = l.now;
    // Warm-up: a virtual second under load, unmeasured, so buffers and
    // the oal window are at their steady size when the window opens.
    let mut payloads = Payloads::new(p.seed);
    for _ in 0..if p.quick { 100 } else { 500 } {
        l.round(Some(&mut payloads));
    }
    l.first_measured_idx = payloads.next_index();
    l.counts = Counts::default();
    l.spans = Spans::new(spans_on);
    l.probe = spans_on.then(FrameBuilder::new);

    let mut round_start = Vec::new();
    let mut refused = 0;
    let (t0, started) = (thread_cpu_s(), Instant::now());
    while started.elapsed().as_secs_f64() < seconds {
        if more_setups
            && started.elapsed().as_secs_f64() >= seconds * setup_walls.len() as f64 / SETUPS as f64
        {
            // A third of a percent of the pass; left in its time.
            setup_walls.push(setup(cfg, None).1);
        }
        round_start.push(thread_cpu_s());
        l.round_done.push(None);
        if !l.round(Some(&mut payloads)) {
            refused += BATCH as u64;
        }
    }
    let cpu_s = thread_cpu_s() - t0;
    let first = l.first_measured_idx;
    let measured = |log: &MemberLog| log.recs.iter().filter(|r| r.idx >= first).count() as u64;
    let delivered_at_observer = measured(&l.rungs[OBSERVER].log);
    let counts = l.counts;
    let spans = std::mem::replace(&mut l.spans, Spans::new(false));
    l.probe = None;
    // Quiet rounds for anything still in a socket buffer.
    for _ in 0..100 {
        l.round(None);
    }
    let attempted = payloads.next_index() - first;
    let logs: Vec<MemberLog> = l.rungs.iter().map(|r| r.log.clone()).collect();
    let seen = delivered_by(&logs, payloads.next_index() as usize, |_, _| true);
    let failed = seen[first as usize..]
        .iter()
        .filter(|&&c| (c as usize) < N)
        .count() as u64;
    let lat_ms = round_start
        .iter()
        .zip(&l.round_done)
        .filter_map(|(s, d)| d.map(|d| (d - s) * 1e3))
        .collect();
    let done: Vec<(f64, u64)> = l
        .round_done
        .iter()
        .flatten()
        .map(|d| (d - t0, BATCH as u64))
        .collect();
    let view_changes = logs
        .iter()
        .map(|log| log.views.iter().filter(|v| v.t_us > formed_at.0).count() as u64)
        .sum();
    let mut violations = check_safety(&logs, N, true).violations;
    if view_changes > 0 {
        violations.push(format!(
            "{view_changes} view installations in a failure-free run"
        ));
    }
    Pass {
        setup_s: median(&setup_walls).expect("setups >= 1"),
        cpu_s,
        rate: undisturbed_rate(&done, cpu_s),
        attempted,
        failed,
        refused,
        delivered_at_observer,
        lat_ms,
        counts,
        spans,
        view_changes,
        violations,
    }
}

pub fn ladder_weak(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    if !p.trace {
        let r = pass(p, p.seconds, false, None, !p.quick);
        let updates = r.delivered_at_observer as f64;
        out.set("setup_s", r.setup_s);
        out.set_opt("delivered_per_s", r.rate);
        out.set_opt("deliver_p50_ms", undisturbed_percentile(&r.lat_ms, 0.5));
        out.set_opt("deliver_p99_ms", undisturbed_percentile(&r.lat_ms, 0.99));
        out.set_delivered(r.attempted, r.failed);
        out.set(
            "wire_bytes_per_update",
            ratio(r.counts.wire_bytes as f64, updates),
        );
        out.notes.push(format!(
            "{} updates in {:.3} CPU s; {} round latency samples; {} refused",
            r.attempted,
            r.cpu_s,
            r.lat_ms.len(),
            r.refused
        ));
        out.violations = r.violations;
        return out;
    }
    // Three passes of a third each: plain, with spans, and with a
    // `Tracer` over a counting sink on every member.
    let third = p.seconds / 3.0;
    let plain = pass(p, third, false, None, false);
    let traced = pass(p, third, true, None, false);
    let sink = Arc::new(CountingSink::default());
    let observed = pass(p, third, false, Some(Tracer::new(sink)), false);

    let spans = &traced.spans;
    let c = &traced.counts;
    let updates = traced.delivered_at_observer as f64;
    let total = |s: Stage| spans.agg(s).total_ns as f64;
    let per_call = |s: Stage| ratio(total(s), spans.agg(s).count as f64);
    let core_ns: f64 = [
        Stage::Propose,
        Stage::OnMessages,
        Stage::OnTick,
        Stage::OnClockTick,
    ]
    .iter()
    .map(|s| spans.agg(*s).self_ns as f64)
    .sum();
    // Spans are stamped with the wall clock; this is the wall time the
    // traced pass spent in rounds.
    let wall_ns = spans.agg(Stage::Round).total_ns as f64;
    let ns_per_update = |r: &Pass| ratio(r.cpu_s * 1e9, r.delivered_at_observer as f64);
    out.set(
        "proto.encode_ns_per_msg",
        ratio(total(Stage::Encode), c.probe_msgs as f64),
    );
    out.set(
        "proto.decode_ns_per_msg",
        ratio(total(Stage::Decode), c.msgs_decoded as f64),
    );
    out.set(
        "proto.bytes_per_msg",
        ratio(c.probe_bytes as f64, c.probe_msgs as f64),
    );
    out.set(
        "proto.msgs_per_datagram",
        ratio(c.msgs_decoded as f64, c.datagrams as f64),
    );
    out.set(
        "core.propose_ns_per_update",
        ratio(total(Stage::Propose), traced.attempted as f64),
    );
    out.set(
        "core.on_messages_ns_per_msg",
        ratio(total(Stage::OnMessages), c.msgs_decoded as f64),
    );
    out.set("core.on_tick_ns_per_tick", per_call(Stage::OnTick));
    out.set("core.busy_share", ratio(core_ns, wall_ns));
    out.set(
        "core.decisions_per_update",
        ratio(c.decisions as f64, updates),
    );
    out.set("core.msgs_per_update", ratio(c.msgs_sent as f64, updates));
    out.set("core.membership_msgs", c.membership as f64);
    out.set("core.view_changes", traced.view_changes as f64);
    out.set(
        "clock.sync_msgs_per_s",
        ratio(
            c.clock_sync as f64,
            spans.agg(Stage::Round).count as f64 * ROUND.as_secs_f64(),
        ),
    );
    out.set(
        "runtime.flush_ns_per_update",
        ratio(total(Stage::Flush), updates),
    );
    out.set(
        "runtime.recv_ns_per_datagram",
        ratio(total(Stage::Recv), c.datagrams as f64),
    );
    out.set("runtime.inbox_ns_per_batch", per_call(Stage::Inbox));
    out.set(
        "runtime.datagrams_per_update",
        ratio(c.datagrams as f64, updates),
    );
    out.set(
        "runtime.msgs_per_datagram",
        ratio(c.msgs_decoded as f64, c.datagrams as f64),
    );
    out.set("runtime.inbox_dropped", c.inbox_shed as f64);
    out.set("runtime.decode_errors", c.decode_errors as f64);
    out.set("runtime.propose_rejected", traced.refused as f64);
    out.set(
        "obs.trace_ns_per_update",
        ns_per_update(&observed) - ns_per_update(&plain),
    );
    out.set(
        "bench.trace_overhead_ratio",
        ratio(ns_per_update(&traced), ns_per_update(&plain)),
    );
    // The stages must account for the time of a round (both on the
    // wall clock, which is what spans are stamped with).
    let staged = spans.staged_self_ns() as f64;
    if staged < 0.9 * wall_ns {
        out.violations.push(format!(
            "stage times sum to {staged} ns of {wall_ns} ns spent in rounds"
        ));
    }
    out.notes.push(format!(
        "{} updates; stages cover {:.1} % of {:.0} ns per update; plain {:.0}, with Tracer {:.0} ns per update",
        traced.attempted,
        100.0 * staged / wall_ns,
        ns_per_update(&traced),
        ns_per_update(&plain),
        ns_per_update(&observed),
    ));
    crate::write_trace(spans, "ladder_weak", &mut out);
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    for r in [plain, traced, observed] {
        out.violations.extend(r.violations);
    }
    out
}
