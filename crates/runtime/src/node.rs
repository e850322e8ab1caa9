//! Node handles and cluster assembly.
//!
//! A [`Node`] owns the threads hosting one protocol member and exposes a
//! command channel (propose, shutdown) plus an output channel
//! (deliveries, view installations, departures). [`spawn_cluster`] builds
//! an in-process team over [`MemTransport`]; [`spawn_udp_cluster`] builds
//! one over real UDP sockets.

use crate::chaos::{NodeStatus, PauseGate, StatusCell};
use crate::clock::{RealClock, RuntimeClock};
use crate::metrics::NodeMetrics;
use crate::transport::{node_inbox, Incoming, MemTransport, OutBatch, Transport, UdpTransport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use timewheel::events::LeaveReason;
use timewheel::member::broadcast::ProposeError;
use timewheel::{Config, Delivery, Member};
use tw_obs::{
    FlightRecorder, OpsServer, OpsSources, RecorderConfig, Snapshot, StreamSink, TeeSink,
    TraceSink, Tracer,
};
use tw_proto::{ProcessId, Semantics, View};

/// Commands a client can send to its node.
#[derive(Debug)]
pub enum NodeCommand {
    /// Broadcast an update.
    Propose(Bytes, Semantics),
    /// Stop all node threads.
    Shutdown,
}

/// Everything a node reports back to its client.
#[derive(Debug, Clone)]
pub enum NodeOutput {
    /// An update was delivered.
    Delivery(Delivery),
    /// A new view was installed.
    View(View),
    /// The member dropped back to join state.
    Left(LeaveReason),
    /// A propose command was rejected.
    ProposeRejected(ProposeError),
}

/// Which executor hosts the member (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Single-threaded event handler (the paper's choice).
    EventLoop,
    /// One thread per event type over a shared lock (the rejected
    /// baseline from \[22], kept for the T7 comparison).
    Threaded,
}

/// Bound on a node's inbox channel. When the node cannot keep up,
/// excess datagrams are shed (counted in `tw_inbox_dropped_total`)
/// instead of growing an unbounded queue — the datagram model permits
/// the omission, and overload stays observable instead of becoming an
/// OOM.
pub const INBOX_CAPACITY: usize = 4096;

/// A running protocol node.
pub struct Node {
    /// The member's process id.
    pub pid: ProcessId,
    cmds: Sender<NodeCommand>,
    /// Stream of deliveries/views/departures.
    pub outputs: Receiver<NodeOutput>,
    handles: Vec<std::thread::JoinHandle<()>>,
    udp: Option<Arc<UdpTransport>>,
    metrics: Arc<NodeMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
    gate: Arc<PauseGate>,
    status: Arc<StatusCell>,
    ops: Option<OpsServer>,
    stream: Option<Arc<StreamSink>>,
}

impl Node {
    /// This node's live metrics (counters update while the node runs).
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// This node's flight recorder, when one was attached at spawn.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The path of this node's recording file, when recording.
    pub fn recording_path(&self) -> Option<&Path> {
        self.recorder.as_ref().map(|r| r.path())
    }

    /// Persist any buffered trace events now (no-op when not
    /// recording). The executor also flushes at every view install and
    /// on shutdown/panic.
    pub fn flush_recorder(&self) {
        if let Some(r) = &self.recorder {
            r.flush();
        }
    }

    /// A point-in-time copy of this node's metrics, exportable as JSON.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Broadcast an update (fire-and-forget; rejection reported on
    /// `outputs`).
    pub fn propose(&self, payload: Bytes, semantics: Semantics) {
        let _ = self.cmds.send(NodeCommand::Propose(payload, semantics));
    }

    /// Freeze this node's executor threads at their next dispatch
    /// (chaos harness: fake arbitrarily slow processing). The node's
    /// peers see silence, exactly as for a performance failure.
    pub fn pause(&self) {
        self.gate.pause();
    }

    /// Unfreeze a paused node.
    pub fn resume(&self) {
        self.gate.resume();
    }

    /// The member's locally observed status (fail-awareness §6),
    /// published by the executor after every dispatch.
    pub fn status(&self) -> NodeStatus {
        self.status.read()
    }

    /// The address of this node's ops endpoint (`/metrics`, `/status`,
    /// `/healthz`, `/trace`), when one was attached at spawn.
    pub fn ops_addr(&self) -> Option<std::net::SocketAddr> {
        self.ops.as_ref().map(|s| s.addr())
    }

    /// This node's live trace stream, when an ops endpoint was attached
    /// at spawn (subscribers get TWFR-framed segments as they flush).
    pub fn trace_stream(&self) -> Option<&Arc<StreamSink>> {
        self.stream.as_ref()
    }

    /// Wire-level counters of this node's UDP transport — syscalls,
    /// datagrams and messages sent/received (`None` on channel-mesh
    /// clusters). The quantity behind the syscalls-per-decision claim.
    pub fn wire_stats(&self) -> Option<crate::transport::WireStats> {
        self.udp.as_ref().map(|u| u.wire_stats())
    }

    /// Stop the node and join its threads.
    pub fn shutdown(mut self) {
        // A paused node must be released or its threads never observe
        // the shutdown.
        self.gate.resume();
        let _ = self.cmds.send(NodeCommand::Shutdown);
        if let Some(udp) = &self.udp {
            udp.shutdown();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Ship whatever the live stream still buffers so tailers see
        // the tail before the ops server (dropped with self) goes away.
        if let Some(s) = &self.stream {
            s.flush();
        }
    }

    /// Drain outputs until a view of `size` members is installed or the
    /// timeout elapses. Returns the view.
    pub fn wait_for_view(&self, size: usize, timeout: std::time::Duration) -> Option<View> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            match self.outputs.recv_timeout(left) {
                Ok(NodeOutput::View(v)) if v.len() == size => return Some(v),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    /// Drain outputs until `count` deliveries were seen or the timeout
    /// elapses; returns the deliveries seen.
    pub fn wait_for_deliveries(&self, count: usize, timeout: std::time::Duration) -> Vec<Delivery> {
        let deadline = std::time::Instant::now() + timeout;
        let mut out = Vec::new();
        while out.len() < count {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                break;
            };
            match self.outputs.recv_timeout(left) {
                Ok(NodeOutput::Delivery(d)) => out.push(d),
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        out
    }
}

/// What the application hook is called with.
#[derive(Debug)]
pub enum AppEvent<'a> {
    /// An update was delivered (apply it).
    Deliver(&'a Delivery),
    /// A join-time snapshot arrived (replace the application state).
    InstallSnapshot(&'a Bytes),
}

/// Application hook run inside the executor on every delivery and on
/// join-time snapshot installation; a `Some(snapshot)` return value
/// becomes the member's fresh application snapshot (shipped to
/// joiners), keeping application state and protocol state consistent by
/// construction.
pub type DeliveryHook = Box<dyn FnMut(AppEvent<'_>) -> Option<Bytes> + Send>;

pub(crate) struct NodeParts {
    pub member: Member,
    pub inbox: Receiver<Incoming>,
    pub cmds: Receiver<NodeCommand>,
    pub out: Sender<NodeOutput>,
    pub transport: Arc<dyn Transport>,
    pub clock: Arc<dyn RuntimeClock + Sync>,
    pub hook: Option<DeliveryHook>,
    pub metrics: Arc<NodeMetrics>,
    /// The node's black box; the executor holds a flush guard on its
    /// stack so the tail is persisted even on panic unwind.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Chaos pause switch; executors check it before every dispatch.
    pub gate: Arc<PauseGate>,
    /// Where the executor publishes the member's observed status.
    pub status: Arc<StatusCell>,
}

/// Per-node ops wiring resolved by the cluster spawner: where the ops
/// server should listen and the live stream (already teed into the
/// member's tracer) it should serve at `/trace`.
pub(crate) struct OpsWiring {
    pub addr: String,
    pub stream: Option<Arc<StreamSink>>,
}

/// Everything [`spawn_node`] needs to host one member.
pub(crate) struct SpawnArgs {
    pub kind: ExecutorKind,
    pub member: Member,
    pub inbox: Receiver<Incoming>,
    pub transport: Arc<dyn Transport>,
    pub udp: Option<Arc<UdpTransport>>,
    pub extra_handles: Vec<std::thread::JoinHandle<()>>,
    pub hook: Option<DeliveryHook>,
    pub recorder: Option<Arc<FlightRecorder>>,
    pub metrics: Arc<NodeMetrics>,
    pub clock: Arc<dyn RuntimeClock + Sync>,
    pub ops: Option<OpsWiring>,
}

/// Render the `/status` payload from the executor-published
/// [`NodeStatus`] — hand-built JSON, same discipline as
/// [`tw_obs::metrics::Snapshot::to_json`] (no serde dependency).
fn status_json(pid: ProcessId, s: NodeStatus) -> String {
    format!(
        "{{\"pid\":{},\"up_to_date\":{},\"view_len\":{},\"view_seq\":{}}}",
        pid.0, s.up_to_date, s.view_len, s.view_seq
    )
}

pub(crate) fn spawn_node(args: SpawnArgs) -> std::io::Result<Node> {
    let SpawnArgs {
        kind,
        member,
        inbox,
        transport,
        udp,
        mut extra_handles,
        hook,
        recorder,
        metrics,
        clock,
        ops,
    } = args;
    let pid = member.pid();
    let (cmd_tx, cmd_rx) = unbounded();
    let (out_tx, out_rx) = unbounded();
    let gate = Arc::new(PauseGate::new());
    let status = Arc::new(StatusCell::new());
    // Bind the ops endpoint before the member threads start so a port
    // clash surfaces as an error here, not a half-observable node.
    let (ops_server, stream) = match ops {
        Some(wiring) => {
            let status_for_json = status.clone();
            let status_for_health = status.clone();
            let sources = OpsSources {
                registry: metrics.shared_registry(),
                labels: vec![("pid".to_string(), pid.0.to_string())],
                status_json: Arc::new(move || status_json(pid, status_for_json.read())),
                // Health is the §6 fail-awareness verdict: the member's
                // own judgement of whether it is up to date, not mere
                // process liveness (liveness is the TCP connect itself).
                healthy: Arc::new(move || status_for_health.read().up_to_date),
            };
            let server = OpsServer::bind(wiring.addr.as_str(), sources, wiring.stream.clone())?;
            (Some(server), wiring.stream)
        }
        None => (None, None),
    };
    let parts = NodeParts {
        member,
        inbox,
        cmds: cmd_rx,
        out: out_tx,
        transport,
        clock,
        hook,
        metrics: metrics.clone(),
        recorder: recorder.clone(),
        gate: gate.clone(),
        status: status.clone(),
    };
    let main = std::thread::Builder::new()
        .name(format!("tw-node-{pid}"))
        .spawn(move || match kind {
            ExecutorKind::EventLoop => crate::event_loop::run(parts),
            ExecutorKind::Threaded => crate::threaded::run(parts),
        })
        .expect("spawn node thread");
    extra_handles.push(main);
    Ok(Node {
        pid,
        cmds: cmd_tx,
        outputs: out_rx,
        handles: extra_handles,
        udp,
        metrics,
        recorder,
        gate,
        status,
        ops: ops_server,
        stream,
    })
}

/// Where a cluster's per-node ops endpoints listen and how their live
/// trace streams are buffered.
#[derive(Debug, Clone)]
pub struct OpsSetup {
    /// Base TCP port on localhost: the node of rank `r` listens on
    /// `base_port + r`. `0` gives every node an ephemeral port —
    /// discover them through [`Node::ops_addr`].
    pub base_port: u16,
    /// Events buffered per node before the live stream ships a
    /// TWFR-framed segment to its subscribers (view installations force
    /// a flush, mirroring the flight recorder).
    pub stream_capacity: usize,
}

impl OpsSetup {
    /// Ops endpoints on ephemeral ports with the default stream
    /// batching (256 events per segment).
    pub fn ephemeral() -> Self {
        OpsSetup {
            base_port: 0,
            stream_capacity: 256,
        }
    }

    /// Ops endpoints on the fixed ports `base_port + rank`.
    pub fn at(base_port: u16) -> Self {
        OpsSetup {
            base_port,
            stream_capacity: 256,
        }
    }

    /// Override the live stream's per-segment event budget.
    pub fn stream_capacity(mut self, capacity: usize) -> Self {
        self.stream_capacity = capacity.max(1);
        self
    }

    /// The listen address for the node of rank `rank`.
    pub(crate) fn addr_for(&self, rank: usize) -> String {
        if self.base_port == 0 {
            "127.0.0.1:0".to_string()
        } else {
            format!("127.0.0.1:{}", self.base_port + rank as u16)
        }
    }
}

/// Start an in-process team of `n` members over channel datagrams.
pub fn spawn_cluster(kind: ExecutorKind, cfg: Config) -> Vec<Node> {
    spawn_cluster_with_hooks(kind, cfg, |_| None)
}

/// Start an in-process team, attaching a per-node application hook
/// (see [`DeliveryHook`]); `make_hook` is called once per node.
pub fn spawn_cluster_with_hooks(
    kind: ExecutorKind,
    cfg: Config,
    make_hook: impl FnMut(ProcessId) -> Option<DeliveryHook>,
) -> Vec<Node> {
    spawn_cluster_inner(kind, cfg, make_hook, None, None, None)
        .expect("no ops endpoints requested, spawn cannot fail")
}

/// Start an in-process team with every member's trace stream attached to
/// `sink` — e.g. a [`tw_obs::SharedAuditor`] checking the protocol's
/// invariants live, or a [`tw_obs::VecSink`] capturing events for later
/// analysis. Events from all members interleave on the one sink; each
/// event carries its emitting process id.
pub fn spawn_cluster_traced(
    kind: ExecutorKind,
    cfg: Config,
    sink: Arc<dyn TraceSink>,
) -> Vec<Node> {
    spawn_cluster_inner(kind, cfg, |_| None, Some(sink), None, None)
        .expect("no ops endpoints requested, spawn cannot fail")
}

/// Start an in-process team with a live ops endpoint per node: each
/// member serves `/metrics` (Prometheus text), `/status` (JSON),
/// `/healthz` (the member's own §6 fail-awareness verdict) and `/trace`
/// (a TWFR-framed live stream of its trace events) on localhost TCP.
/// `tw-top` and any Prometheus scraper attach to these addresses.
pub fn spawn_cluster_observed(
    kind: ExecutorKind,
    cfg: Config,
    ops: &OpsSetup,
) -> std::io::Result<Vec<Node>> {
    spawn_cluster_inner(kind, cfg, |_| None, None, None, Some(ops))
}

/// Where and how a cluster's flight recorders write their per-node
/// recording files (`<dir>/node-<pid>.twrec`).
#[derive(Debug, Clone)]
pub struct RecorderSetup {
    /// Directory the recording files are created in (created if
    /// missing).
    pub dir: PathBuf,
    /// Per-node in-memory buffer capacity, in events (see
    /// [`RecorderConfig::capacity`]).
    pub capacity: usize,
}

impl RecorderSetup {
    /// Record into `dir` with the default per-node buffer capacity.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RecorderSetup {
            dir: dir.into(),
            capacity: 1024,
        }
    }

    /// Override the per-node buffer capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// The recording file for `pid`.
    pub fn path_for(&self, pid: ProcessId) -> PathBuf {
        self.dir.join(format!("node-{}.twrec", pid.0))
    }
}

/// Start an in-process team with a [`FlightRecorder`] attached to every
/// node: each member's trace stream is spilled crash-safely to
/// `<dir>/node-<pid>.twrec`, flushed at every view installation and on
/// shutdown or panic. The recordings are the input to the `tw-trace`
/// analyzer.
pub fn spawn_cluster_recorded(
    kind: ExecutorKind,
    cfg: Config,
    setup: &RecorderSetup,
) -> std::io::Result<Vec<Node>> {
    spawn_cluster_recorded_traced(kind, cfg, setup, None)
}

/// [`spawn_cluster_recorded`] plus a shared live sink (e.g. a
/// [`tw_obs::SharedAuditor`]): every event goes to both the node's
/// recorder and `sink`.
pub fn spawn_cluster_recorded_traced(
    kind: ExecutorKind,
    cfg: Config,
    setup: &RecorderSetup,
    sink: Option<Arc<dyn TraceSink>>,
) -> std::io::Result<Vec<Node>> {
    std::fs::create_dir_all(&setup.dir)?;
    // Create every recording file up front so I/O errors surface here,
    // not inside node threads.
    let recorders = (0..cfg.n)
        .map(|i| {
            let pid = ProcessId(i as u16);
            let rc = RecorderConfig::new(pid, cfg.n, cfg.epsilon).capacity(setup.capacity);
            FlightRecorder::create(setup.path_for(pid), rc).map(Arc::new)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    spawn_cluster_inner(kind, cfg, |_| None, sink, Some(recorders), None)
}

/// Combine a node's optional sinks (recorder, shared live sink, ops
/// stream) into the single [`TraceSink`] its tracer writes to.
fn combine_sinks(
    recorder: &Option<Arc<FlightRecorder>>,
    shared: &Option<Arc<dyn TraceSink>>,
    stream: &Option<Arc<StreamSink>>,
) -> Option<Arc<dyn TraceSink>> {
    let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
    if let Some(r) = recorder {
        sinks.push(r.clone());
    }
    if let Some(s) = shared {
        sinks.push(s.clone());
    }
    if let Some(s) = stream {
        sinks.push(s.clone());
    }
    match sinks.len() {
        0 => None,
        1 => sinks.pop(),
        _ => Some(Arc::new(TeeSink::new(sinks))),
    }
}

fn spawn_cluster_inner(
    kind: ExecutorKind,
    cfg: Config,
    mut make_hook: impl FnMut(ProcessId) -> Option<DeliveryHook>,
    sink: Option<Arc<dyn TraceSink>>,
    recorders: Option<Vec<Arc<FlightRecorder>>>,
    ops: Option<&OpsSetup>,
) -> std::io::Result<Vec<Node>> {
    let n = cfg.n;
    // Metrics exist before the inboxes so each bounded inbox can count
    // its shed datagrams into its node's `tw_inbox_dropped_total`.
    let metrics: Vec<Arc<NodeMetrics>> = (0..n).map(|_| NodeMetrics::new()).collect();
    let mut inbox_txs = Vec::with_capacity(n);
    let mut inbox_rxs = Vec::with_capacity(n);
    for m in &metrics {
        let (tx, rx) = node_inbox(INBOX_CAPACITY, Some(m.inbox_dropped()));
        inbox_txs.push(tx);
        inbox_rxs.push(rx);
    }
    let transport = MemTransport::new(inbox_txs);
    inbox_rxs
        .into_iter()
        .enumerate()
        .map(|(i, inbox)| {
            let pid = ProcessId(i as u16);
            let mut member = Member::new_unchecked(pid, cfg);
            let recorder = recorders.as_ref().map(|rs| rs[i].clone());
            let stream = ops.map(|o| {
                Arc::new(StreamSink::new(pid, cfg.n, cfg.epsilon, o.stream_capacity))
            });
            if let Some(s) = combine_sinks(&recorder, &sink, &stream) {
                member.set_tracer(Tracer::new(s));
            }
            spawn_node(SpawnArgs {
                kind,
                member,
                inbox,
                transport: transport.clone() as Arc<dyn Transport>,
                udp: None,
                extra_handles: Vec::new(),
                hook: make_hook(pid),
                recorder,
                metrics: metrics[i].clone(),
                clock: Arc::new(RealClock::new()),
                ops: ops.map(|o| OpsWiring {
                    addr: o.addr_for(i),
                    stream: stream.clone(),
                }),
            })
        })
        .collect()
}

/// Start a team of `n` members over real localhost UDP sockets on
/// ephemeral ports.
pub fn spawn_udp_cluster(kind: ExecutorKind, cfg: Config) -> std::io::Result<Vec<Node>> {
    spawn_udp_cluster_inner(kind, cfg, None)
}

/// [`spawn_udp_cluster`] plus a live ops endpoint per node (see
/// [`spawn_cluster_observed`]): the closest thing to the deployed
/// telemetry topology — real datagrams below, a real scrape plane above.
pub fn spawn_udp_cluster_observed(
    kind: ExecutorKind,
    cfg: Config,
    ops: &OpsSetup,
) -> std::io::Result<Vec<Node>> {
    spawn_udp_cluster_inner(kind, cfg, Some(ops))
}

fn spawn_udp_cluster_inner(
    kind: ExecutorKind,
    cfg: Config,
    ops: Option<&OpsSetup>,
) -> std::io::Result<Vec<Node>> {
    let n = cfg.n;
    // Reserve n ephemeral ports first.
    let sockets: Vec<std::net::UdpSocket> = (0..n)
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<std::net::SocketAddr> = sockets
        .iter()
        .map(|s| s.local_addr())
        .collect::<Result<_, _>>()?;
    drop(sockets);
    let peers: HashMap<ProcessId, std::net::SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (ProcessId(i as u16), *a))
        .collect();
    let mut nodes = Vec::with_capacity(n);
    for (i, addr) in addrs.iter().enumerate() {
        let pid = ProcessId(i as u16);
        let transport = UdpTransport::bind(pid, *addr, peers.clone())?;
        let metrics = NodeMetrics::new();
        transport.set_send_metrics(metrics.send_metrics());
        let (inbox_tx, inbox_rx) = node_inbox(INBOX_CAPACITY, Some(metrics.inbox_dropped()));
        let rx_handle = transport.spawn_receiver(inbox_tx, Some(metrics.udp_recv_errors()));
        let mut member = Member::new_unchecked(pid, cfg);
        let stream =
            ops.map(|o| Arc::new(StreamSink::new(pid, cfg.n, cfg.epsilon, o.stream_capacity)));
        if let Some(s) = combine_sinks(&None, &None, &stream) {
            member.set_tracer(Tracer::new(s));
        }
        nodes.push(spawn_node(SpawnArgs {
            kind,
            member,
            inbox: inbox_rx,
            transport: transport.clone() as Arc<dyn Transport>,
            udp: Some(transport),
            extra_handles: vec![rx_handle],
            hook: None,
            recorder: None,
            metrics,
            clock: Arc::new(RealClock::new()),
            ops: ops.map(|o| OpsWiring {
                addr: o.addr_for(i),
                stream: stream.clone(),
            }),
        })?);
    }
    Ok(nodes)
}

/// Apply protocol actions to the runtime environment. Returns the new
/// clock-tick deadline, if the actions rescheduled it, plus the fresh
/// application snapshot if the delivery hook produced one (the caller
/// pushes it into the member).
///
/// Outbound messages are collected into `batch` (the executor's
/// long-lived [`OutBatch`], so encoder scratch is reused across
/// dispatches) and put on the wire in one [`Transport::flush`] at the
/// end — on UDP that is one coalesced datagram per destination and one
/// vectored syscall for the whole dispatch.
pub(crate) fn apply_actions(
    pid: ProcessId,
    actions: Vec<timewheel::Action>,
    transport: &dyn Transport,
    out: &Sender<NodeOutput>,
    now: tw_proto::HwTime,
    hook: &mut Option<DeliveryHook>,
    metrics: &NodeMetrics,
    batch: &mut OutBatch,
) -> (Option<tw_proto::HwTime>, Option<Bytes>) {
    let mut next_clock = None;
    let mut snapshot = None;
    for a in actions {
        match a {
            timewheel::Action::Broadcast(m) => {
                metrics.on_send(m.kind());
                batch.push_broadcast(m);
            }
            timewheel::Action::Send(to, m) => {
                metrics.on_send(m.kind());
                batch.push_send(to, m);
            }
            timewheel::Action::Deliver(d) => {
                metrics.on_delivery();
                if let Some(h) = hook {
                    if let Some(s) = h(AppEvent::Deliver(&d)) {
                        snapshot = Some(s);
                    }
                }
                let _ = out.send(NodeOutput::Delivery(d));
            }
            timewheel::Action::InstallAppState(b) => {
                if let Some(h) = hook {
                    if let Some(s) = h(AppEvent::InstallSnapshot(&b)) {
                        snapshot = Some(s);
                    }
                }
            }
            timewheel::Action::InstallView(v) => {
                metrics.on_view();
                let _ = out.send(NodeOutput::View(v));
            }
            timewheel::Action::LeftGroup { reason } => {
                let _ = out.send(NodeOutput::Left(reason));
            }
            timewheel::Action::ScheduleClockTick(d) => {
                next_clock = Some(now + d);
            }
        }
    }
    transport.flush(pid, batch);
    (next_clock, snapshot)
}
