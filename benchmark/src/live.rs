//! The live workloads: `udp_flood` and `udp_ordered`.
//!
//! A real three-node cluster on UDP loopback, event-loop executors, one
//! load-generator thread. The generator blocks on the observer node's
//! `outputs` and drains the other nodes' without spinning. What happens
//! inside the nodes is read from outside: `Node::metrics_snapshot`,
//! `Node::wire_stats`, per-thread CPU from procfs and the loopback
//! interface's byte counters.

use crate::common::{ratio, Outcome, Params, Payloads};
use crate::procfs;
use crate::spans::{Spans, Stage};
use crate::stats::{highest_supported, median, undisturbed_percentile, undisturbed_rate, WINDOWS};
use crate::verify::{check_safety, delivered_by, MemberLog, Rec, ViewRec};
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_obs::{HistogramSnapshot, Snapshot};
use tw_proto::{Duration, Semantics};
use tw_runtime::{spawn_udp_cluster, ExecutorKind, Node, NodeOutput, WireStats};

const N: usize = 3;
/// One-way timeout of the live clusters. A shared two-core box takes
/// the CPU away for tens of milliseconds now and then; at 10 or 20 ms a
/// member then misses its clock-sync round trips and leaves the group
/// in one run in twenty. 50 ms rides those spells out.
const DELTA: Duration = Duration::from_millis(50);
/// The node whose deliveries are timed.
const OBSERVER: usize = 2;
/// Outstanding proposals of the closed loop. At δ = 50 ms a decision
/// stops fitting a UDP datagram at about 13 000 updates per second
/// (README, finding 3); a window of 4 keeps the flood under half that.
const FLOOD_WINDOW: usize = 4;
/// An update not delivered at the observer this long after it was due
/// (proposed, on the flood) has failed. On the flood, no delivery at
/// all for this long also writes off whatever is outstanding and
/// re-opens the window. A quarter of that would do for the protocol,
/// but the box itself stops for a few hundred milliseconds now and then.
const LIMIT: StdDuration = StdDuration::from_secs(1);
/// Rate of the open loop, updates per second over all proposers.
const ORDERED_RATE: u64 = 1_000;
/// Unmeasured load before the window opens (a twentieth of it in a
/// `--quick` run).
const WARM_UP: StdDuration = StdDuration::from_secs(1);

/// Spawn a cluster and wait until every node installed the full view.
fn spawn_formed() -> (Vec<Node>, f64) {
    let t0 = Instant::now();
    let nodes = spawn_udp_cluster(ExecutorKind::EventLoop, Config::for_team(N, DELTA))
        .expect("bind loopback sockets");
    for n in &nodes {
        n.wait_for_view(N, StdDuration::from_secs(60))
            .expect("three nodes form a group within 60 s");
    }
    (nodes, t0.elapsed().as_secs_f64())
}

/// Stop every node and join its threads. In parallel: each receiver
/// thread notices the request only at its next 200 ms poll.
fn shutdown(nodes: Vec<Node>) {
    std::thread::scope(|s| {
        for n in nodes {
            s.spawn(move || n.shutdown());
        }
    });
}

/// Set up `times` clusters one after the other, keep the last; returns
/// it with the mean set-up time. Formation time takes one of a few
/// values a join slot apart, so a median would jump by a whole slot
/// where the mean moves by a fraction of one.
fn setup(times: usize) -> (Vec<Node>, f64) {
    let mut walls = Vec::new();
    let mut last: Option<Vec<Node>> = None;
    for _ in 0..times {
        if let Some(prev) = last.take() {
            shutdown(prev);
        }
        let (nodes, s) = spawn_formed();
        walls.push(s);
        last = Some(nodes);
    }
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    (last.expect("times >= 1"), mean)
}

/// Bytes and packets the loopback interface carried so far. The
/// interface is the machine's, not the cluster's: whatever else talks
/// over loopback during a run is in here too, which is why the figure
/// is taken per window (see [`Session::sample_loopback`]).
fn loopback_counters() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/net/dev").ok()?;
    let line = text.lines().find(|l| l.trim_start().starts_with("lo:"))?;
    let mut fields = line.split(':').nth(1)?.split_whitespace();
    let bytes = fields.next()?.parse().ok()?;
    let packets = fields.next()?.parse().ok()?;
    Some((bytes, packets))
}

/// IPv4 + UDP header bytes the interface counts per datagram.
const IP_UDP_HEADERS: u64 = 28;

/// Everything readable from outside the nodes at one instant.
struct Probe {
    at: Instant,
    metrics: Vec<Snapshot>,
    wire: Vec<WireStats>,
    cpu: Option<(u64, u64)>,
}

impl Probe {
    fn take(nodes: &[Node], with_cpu: bool) -> Probe {
        Probe {
            at: Instant::now(),
            metrics: nodes.iter().map(|n| n.metrics_snapshot()).collect(),
            wire: nodes
                .iter()
                .map(|n| n.wire_stats().expect("udp nodes have wire stats"))
                .collect(),
            cpu: if with_cpu {
                procfs::runtime_cpu_ns()
            } else {
                None
            },
        }
    }
}

/// The change between two probes, summed over the nodes.
struct Window {
    wall_s: f64,
    counters: Snapshot,
    send_syscalls: u64,
    datagrams_sent: u64,
    msgs_sent: u64,
    decode_errors: u64,
    cpu: Option<(u64, u64)>,
}

fn merge_hist(into: &mut HistogramSnapshot, h: &HistogramSnapshot) {
    if into.bounds.is_empty() {
        *into = h.clone();
        return;
    }
    for (a, b) in into.buckets.iter_mut().zip(&h.buckets) {
        *a += b;
    }
    into.count += h.count;
    into.sum += h.sum;
}

impl Window {
    fn between(a: &Probe, b: &Probe) -> Window {
        let mut counters = Snapshot::default();
        for (before, after) in a.metrics.iter().zip(&b.metrics) {
            let d = after.delta(before);
            for (k, v) in d.counters {
                *counters.counters.entry(k).or_insert(0) += v;
            }
            for (k, h) in d.histograms {
                merge_hist(counters.histograms.entry(k).or_default(), &h);
            }
        }
        let sum = |f: fn(&WireStats) -> u64| -> u64 {
            a.wire.iter().zip(&b.wire).map(|(x, y)| f(y) - f(x)).sum()
        };
        Window {
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
            counters,
            send_syscalls: sum(|w| w.send_syscalls),
            datagrams_sent: sum(|w| w.datagrams_sent),
            msgs_sent: sum(|w| w.msgs_sent),
            decode_errors: sum(|w| w.decode_errors),
            cpu: a.cpu.zip(b.cpu).map(|(x, y)| (y.0 - x.0, y.1 - x.1)),
        }
    }

    fn sends(&self, kinds: &[&str]) -> u64 {
        kinds
            .iter()
            .map(|k| self.counters.counter(&format!("sends.{k}")))
            .sum()
    }

    fn all_sends(&self) -> u64 {
        self.counters
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("sends."))
            .map(|(_, v)| *v)
            .sum()
    }
}

/// A quantile of a bucketed histogram, interpolated inside its bucket
/// (the registry's own `quantile` returns the bucket's upper bound).
fn hist_quantile(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    if h.count == 0 {
        return None;
    }
    let rank = (h.count as f64 * q).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &b) in h.buckets.iter().enumerate() {
        let next = seen + b as f64;
        if next >= rank && b > 0 {
            let hi = *h.bounds.get(i)? as f64;
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] as f64 };
            return Some(lo + (hi - lo) * (rank - seen) / b as f64);
        }
        seen = next;
    }
    None
}

/// What the generator saw on the nodes' output channels.
struct Outputs {
    logs: Vec<MemberLog>,
    rejected: u64,
    /// Departures to join state: node, reason, seconds since start.
    left: Vec<String>,
    /// Each node's current life: bumped when it leaves the group.
    life: [u32; N],
    t0: Instant,
}

impl Outputs {
    fn new() -> Outputs {
        Outputs {
            logs: vec![MemberLog::default(); N],
            rejected: 0,
            left: Vec::new(),
            life: [0; N],
            t0: Instant::now(),
        }
    }

    /// Record one output of node `i`; returns the update index when it
    /// was a delivery.
    fn record(&mut self, i: usize, out: NodeOutput) -> Option<u64> {
        let t_us = self.t0.elapsed().as_micros() as i64;
        match out {
            NodeOutput::Delivery(d) => {
                let rec = Rec::of(&d, self.life[i], t_us);
                self.logs[i].recs.push(rec);
                Some(rec.idx)
            }
            NodeOutput::View(v) => {
                self.logs[i].views.push(ViewRec::of(&v, t_us));
                None
            }
            NodeOutput::Left(reason) => {
                self.left
                    .push(format!("p{i} {reason:?} at {:.3} s", t_us as f64 / 1e6));
                self.life[i] += 1;
                None
            }
            NodeOutput::ProposeRejected(_) => {
                self.rejected += 1;
                None
            }
        }
    }

    fn drain_others(&mut self, nodes: &[Node]) {
        for (i, n) in nodes.iter().enumerate() {
            if i != OBSERVER {
                while let Ok(out) = n.outputs.try_recv() {
                    self.record(i, out);
                }
            }
        }
    }

    /// After the load stopped: collect what is still on its way.
    fn drain_all(&mut self, nodes: &[Node], quiet: StdDuration) {
        let mut last = Instant::now();
        while last.elapsed() < quiet {
            let mut any = false;
            for (i, n) in nodes.iter().enumerate() {
                while let Ok(out) = n.outputs.try_recv() {
                    self.record(i, out);
                    any = true;
                }
            }
            if any {
                last = Instant::now();
            } else {
                std::thread::sleep(StdDuration::from_millis(5));
            }
        }
    }
}

/// What one measured window of a live workload produced.
struct LiveRun {
    setup_s: f64,
    window: Window,
    attempted: u64,
    failed: u64,
    delivered_in_window: u64,
    /// The observer's delivery rate, slow spells taken out.
    rate: Option<f64>,
    wire_bytes_per_update: Option<f64>,
    lat_ms: Vec<f64>,
    gen_late_us: Vec<f64>,
    rejected: u64,
    /// Departures to join state during the run (none when all is well).
    left: Vec<String>,
    violations: Vec<String>,
    spans: Spans,
    /// Wall seconds and observer deliveries of the untraced and the
    /// traced half of a traced run.
    halves: [(f64, u64); 2],
}

/// A cluster under load: the nodes, what they reported, and per update
/// when it was due and how long the observer took to deliver it.
struct Session {
    nodes: Vec<Node>,
    setup_s: f64,
    trace: bool,
    outputs: Outputs,
    payloads: Payloads,
    due: Vec<Instant>,
    lat_ms: Vec<Option<f64>>,
    /// Observer deliveries so far.
    delivered: u64,
    /// Seconds into the window of each observer delivery.
    delivered_at: Vec<(f64, u64)>,
    spans: Spans,
    measure_from: Instant,
    half: Instant,
    end: Instant,
    /// Probe, first update and delivery count at the window's start.
    opened: Option<(Probe, usize, u64)>,
    half_mark: (Instant, u64),
    halves: [(f64, u64); 2],
    gen_late_us: Vec<f64>,
    /// Loopback counters and observer deliveries at each window edge.
    lo_samples: Vec<((u64, u64), u64)>,
    next_lo_sample: Instant,
    lo_every: StdDuration,
}

impl Session {
    fn start(p: &Params) -> Session {
        // Formation is quantised by join slots, so one set-up reads one
        // of a few values a slot apart; three of them steady the figure.
        let (nodes, setup_s) = setup(if p.trace || p.quick { 1 } else { 3 });
        let measure_from = Instant::now() + if p.quick { WARM_UP / 20 } else { WARM_UP };
        Session {
            nodes,
            setup_s,
            trace: p.trace,
            outputs: Outputs::new(),
            payloads: Payloads::new(p.seed),
            due: Vec::new(),
            lat_ms: Vec::new(),
            delivered: 0,
            delivered_at: Vec::new(),
            spans: Spans::new(false),
            measure_from,
            half: measure_from + StdDuration::from_secs_f64(p.seconds / 2.0),
            end: measure_from + StdDuration::from_secs_f64(p.seconds),
            opened: None,
            half_mark: (measure_from, 0),
            halves: [(0.0, 0); 2],
            gen_late_us: Vec::new(),
            lo_samples: Vec::new(),
            next_lo_sample: measure_from,
            lo_every: StdDuration::from_secs_f64(p.seconds / WINDOWS as f64),
        }
    }

    /// At each window edge, note what the loopback interface has
    /// carried and what the observer has delivered.
    fn sample_loopback(&mut self, now: Instant) {
        if now >= self.next_lo_sample {
            if let Some(lo) = loopback_counters() {
                self.lo_samples.push((lo, self.delivered));
            }
            self.next_lo_sample += self.lo_every;
        }
    }

    /// UDP payload bytes per delivered update: the median over the
    /// windows, so that traffic that is not the cluster's has to fill
    /// half of them before it shows.
    fn wire_bytes_per_update(&self) -> Option<f64> {
        let per_window: Vec<f64> = self
            .lo_samples
            .windows(2)
            .filter(|w| w[1].1 > w[0].1)
            .map(|w| {
                let ((b0, p0), (b1, p1)) = (w[0].0, w[1].0);
                let payload = (b1 - b0).saturating_sub((p1 - p0) * IP_UDP_HEADERS);
                payload as f64 / (w[1].1 - w[0].1) as f64
            })
            .collect();
        median(&per_window)
    }

    /// Open the window after the warm-up, switch spans on for the
    /// second half of a traced run; false once the window is over.
    fn running(&mut self) -> bool {
        let now = Instant::now();
        self.sample_loopback(now);
        if self.opened.is_none() && now >= self.measure_from {
            let probe = Probe::take(&self.nodes, self.trace);
            self.half_mark = (probe.at, self.delivered);
            self.opened = Some((probe, self.due.len(), self.delivered));
        }
        if self.trace && !self.spans.is_on() && now >= self.half {
            self.close_half(now, 0);
            self.spans = Spans::new(true);
        }
        now < self.end
    }

    fn close_half(&mut self, now: Instant, slot: usize) {
        let (since, delivered) = self.half_mark;
        self.halves[slot] = (
            now.duration_since(since).as_secs_f64(),
            self.delivered - delivered,
        );
        self.half_mark = (now, self.delivered);
    }

    /// Hand the next update, due at `due`, to node `to`.
    fn propose(&mut self, to: usize, due: Instant, semantics: Semantics) {
        let k = self.due.len() as u64;
        self.spans.enter(Stage::Gen, k);
        let payload = self.payloads.next_payload();
        self.spans.exit();
        self.due.push(due);
        self.lat_ms.push(None);
        self.spans.enter(Stage::ProposeCmd, k);
        self.nodes[to].propose(payload, semantics);
        self.spans.exit();
    }

    /// Block on the observer's outputs for at most `timeout`, then take
    /// whatever else is ready there and on the other nodes. Returns how
    /// many updates the observer delivered.
    fn wait(&mut self, timeout: StdDuration) -> u64 {
        self.spans.enter(Stage::OutputsWait, self.due.len() as u64);
        let mut next = self.nodes[OBSERVER].outputs.recv_timeout(timeout).ok();
        self.spans.exit();
        let before = self.delivered;
        while let Some(out) = next {
            if let Some(idx) = self.outputs.record(OBSERVER, out) {
                let now = Instant::now();
                if let Some(slot) = self.lat_ms.get_mut(idx as usize) {
                    let due = self.due[idx as usize];
                    slot.get_or_insert(now.duration_since(due).as_secs_f64() * 1e3);
                }
                self.delivered += 1;
                if let Some(t) = now.checked_duration_since(self.measure_from) {
                    self.delivered_at.push((t.as_secs_f64(), 1));
                }
            }
            next = self.nodes[OBSERVER].outputs.try_recv().ok();
        }
        self.outputs.drain_others(&self.nodes);
        self.delivered - before
    }

    /// Close the window, give what is in flight until [`LIMIT`] after
    /// its due time, stop the cluster and judge every update.
    fn finish(mut self) -> LiveRun {
        let limit_ms = LIMIT.as_secs_f64() * 1e3;
        let closing = Probe::take(&self.nodes, self.trace);
        let slot = usize::from(self.spans.is_on());
        self.close_half(closing.at, slot);
        let (opening, first, delivered_before) = self
            .opened
            .take()
            .expect("the run is longer than its warm-up");
        let delivered_in_window = self.delivered - delivered_before;
        let wire_bytes_per_update = self.wire_bytes_per_update();
        let settle = Instant::now() + LIMIT;
        while Instant::now() < settle && self.lat_ms.iter().any(Option::is_none) {
            self.wait(StdDuration::from_millis(20));
        }
        self.outputs
            .drain_all(&self.nodes, StdDuration::from_millis(100));
        shutdown(self.nodes);

        // An update has failed unless the observer delivered it within
        // the limit and every node delivered it at all.
        let everywhere = delivered_by(&self.outputs.logs, self.due.len(), |_, _| true);
        let mut failed = 0;
        let mut lat_ms = Vec::new();
        for (lat, nodes) in self.lat_ms[first..].iter().zip(&everywhere[first..]) {
            match *lat {
                Some(l) => {
                    lat_ms.push(l);
                    if l > limit_ms || (*nodes as usize) < N {
                        failed += 1;
                    }
                }
                None => failed += 1,
            }
        }
        // A member that left and came back starts a new life, and a
        // run in which that happened is held to what `sim_crash` is.
        // The departure itself is no safety violation: the box froze,
        // the member noticed (fail-awareness) and the updates that
        // missed the limit are in `failed`.
        let views: usize = self.outputs.logs.iter().map(|l| l.views.len()).sum();
        let undisturbed = views == 0 && self.outputs.left.is_empty();
        let violations = check_safety(&self.outputs.logs, N, undisturbed).violations;
        let window = Window::between(&opening, &closing);
        LiveRun {
            wire_bytes_per_update,
            setup_s: self.setup_s,
            rate: undisturbed_rate(&self.delivered_at, window.wall_s),
            window,
            attempted: (self.due.len() - first) as u64,
            failed,
            delivered_in_window,
            lat_ms,
            gen_late_us: self.gen_late_us,
            rejected: self.outputs.rejected,
            left: self.outputs.left,
            violations,
            spans: self.spans,
            halves: self.halves,
        }
    }
}

/// Closed loop: node 0 keeps `FLOOD_WINDOW` unordered/weak updates
/// outstanding; the observer's deliveries acknowledge them.
fn flood(p: &Params) -> LiveRun {
    let mut s = Session::start(p);
    let mut acked = 0;
    while s.running() {
        while s.due.len() - acked < FLOOD_WINDOW {
            s.propose(0, Instant::now(), Semantics::UNORDERED_WEAK);
        }
        match s.wait(LIMIT) {
            // Stalled: whatever is outstanding is given up (and counts
            // as failed, having missed the limit).
            0 => acked = s.due.len(),
            n => acked += n as usize,
        }
    }
    s.finish()
}

/// Open loop: one total/strong update per millisecond, round-robin over
/// the three nodes, each timed from the moment it was due.
fn ordered(p: &Params) -> LiveRun {
    let mut s = Session::start(p);
    let period = StdDuration::from_nanos(1_000_000_000 / ORDERED_RATE);
    let mut next_due = Instant::now();
    while s.running() {
        while next_due <= Instant::now() {
            let k = s.due.len();
            s.propose(k % N, next_due, Semantics::TOTAL_STRONG);
            if s.opened.is_some() {
                let late = Instant::now().duration_since(next_due);
                s.gen_late_us.push(late.as_secs_f64() * 1e6);
            }
            next_due += period;
        }
        s.wait(next_due.saturating_duration_since(Instant::now()));
    }
    s.finish()
}

fn report(name: &'static str, p: &Params, r: LiveRun) -> Outcome {
    let mut out = Outcome {
        attempted: r.attempted,
        failed: r.failed,
        violations: r.violations,
        ..Outcome::default()
    };
    let w = &r.window;
    let updates = r.delivered_in_window as f64;
    if !p.trace {
        out.set("setup_s", r.setup_s);
        out.set_opt("delivered_per_s", r.rate);
        out.set_opt("deliver_p50_ms", undisturbed_percentile(&r.lat_ms, 0.5));
        out.set_opt("deliver_p99_ms", undisturbed_percentile(&r.lat_ms, 0.99));
        out.set_delivered(r.attempted, r.failed);
        out.set_opt("wire_bytes_per_update", r.wire_bytes_per_update);
        out.notes.push(format!(
            "{} updates in {:.3} s; {} latency samples; {} rejected; departures {:?}",
            r.attempted,
            w.wall_s,
            r.lat_ms.len(),
            r.rejected,
            r.left
        ));
        return out;
    }
    out.set(
        "core.decisions_per_update",
        ratio(w.sends(&["decision"]) as f64, updates),
    );
    out.set("core.msgs_per_update", ratio(w.all_sends() as f64, updates));
    out.set(
        "core.membership_msgs",
        w.sends(&["no-decision", "join", "reconfig"]) as f64,
    );
    out.set(
        "core.view_changes",
        w.counters.counter("views_installed") as f64,
    );
    out.set(
        "clock.sync_msgs_per_s",
        w.sends(&["clock-sync"]) as f64 / w.wall_s,
    );
    out.set(
        "runtime.send_syscalls_per_update",
        ratio(w.send_syscalls as f64, updates),
    );
    out.set(
        "runtime.datagrams_per_update",
        ratio(w.datagrams_sent as f64, updates),
    );
    out.set(
        "runtime.msgs_per_datagram",
        ratio(w.msgs_sent as f64, w.datagrams_sent as f64),
    );
    let hist = |name: &str, q: f64| {
        w.counters
            .histograms
            .get(name)
            .and_then(|h| hist_quantile(h, q))
    };
    out.set_opt("runtime.dispatch_p50_us", hist("dispatch_latency_us", 0.5));
    out.set_opt("runtime.dispatch_p99_us", hist("dispatch_latency_us", 0.99));
    out.set_opt("runtime.tick_lag_p99_us", hist("tick_lag_us", 0.99));
    out.set_opt("runtime.deliver_p99_ms", highest_supported(&r.lat_ms, 0.99));
    out.set_opt(
        "runtime.node_cpu_us_per_update",
        w.cpu.map(|(node, _)| ratio(node as f64 / 1e3, updates)),
    );
    out.set_opt(
        "runtime.rx_cpu_us_per_update",
        w.cpu.map(|(_, rx)| ratio(rx as f64 / 1e3, updates)),
    );
    out.set_opt(
        "runtime.cpu_util",
        w.cpu.map(|(node, rx)| (node + rx) as f64 / 1e9 / w.wall_s),
    );
    out.set(
        "runtime.inbox_dropped",
        w.counters.counter("tw_inbox_dropped_total") as f64,
    );
    out.set("runtime.decode_errors", w.decode_errors as f64);
    out.set("runtime.propose_rejected", r.rejected as f64);
    // Only the open loop has a schedule to be late against.
    if !r.gen_late_us.is_empty() {
        let worst = r.gen_late_us.iter().copied().max_by(f64::total_cmp);
        out.set_opt(
            "bench.gen_late_p99_us",
            highest_supported(&r.gen_late_us, 0.99).or(worst),
        );
    }
    let [(plain_s, plain_n), (traced_s, traced_n)] = r.halves;
    out.set(
        "bench.trace_overhead_ratio",
        ratio(
            ratio(traced_s, traced_n as f64),
            ratio(plain_s, plain_n as f64),
        ),
    );
    out.notes.push(format!(
        "{} updates in {:.3} s; spans cover the second half",
        r.attempted, w.wall_s
    ));
    crate::write_trace(&r.spans, name, &mut out);
    out
}

pub fn udp_flood(p: &Params) -> Outcome {
    report("udp_flood", p, flood(p))
}

pub fn udp_ordered(p: &Params) -> Outcome {
    report("udp_ordered", p, ordered(p))
}
