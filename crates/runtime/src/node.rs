//! Node handles and cluster assembly.
//!
//! A [`Node`] owns the threads hosting one protocol member and exposes a
//! command channel (propose, shutdown) plus an output channel
//! (deliveries, view installations, departures). [`ClusterBuilder`] is
//! the one way to assemble a team of them — over real UDP sockets or
//! the in-process [`MemTransport`] mesh, with any combination of
//! application hooks, trace sinks, flight recorders and ops endpoints.
//! A fault-injected [`ChaosCluster`](crate::ChaosCluster) runs on the
//! same mesh, each node sending through a
//! [`FaultTransport`](crate::FaultTransport).

use crate::chaos::PauseGate;
use crate::clock::{RealClock, RuntimeClock};
#[cfg(all(target_os = "linux", target_env = "gnu"))]
use crate::event_loop::OwnSocket;
use crate::inbox::Doorbell;
use crate::metrics::NodeMetrics;
use crate::status::{NodeStatus, StatusCell};
use crate::transport::{node_inbox, Incoming, MemTransport, OutBatch, Transport, UdpTransport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use timewheel::events::LeaveReason;
use timewheel::member::broadcast::ProposeError;
use timewheel::{Action, Config, Delivery, Driver, Input, Member};
pub use timewheel::{AppEvent, DeliveryHook};
use tw_obs::{
    FlightRecorder, FlushGuard, OpsServer, OpsSources, RecorderConfig, Snapshot, TeeSink,
    TraceSink, Tracer,
};
use tw_proto::{HwTime, Incarnation, ProcessId, Semantics, View};

/// Commands a client can send to its node. Stopping is not a command:
/// [`Node::shutdown`] closes the node's doorbell, so it never waits
/// behind proposals the executor has no room to take yet.
#[derive(Debug)]
pub enum NodeCommand {
    /// Broadcast an update.
    Propose(Bytes, Semantics),
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
/// OOM. A UDP event-loop node on linux-gnu has no inbox: it reads its
/// own socket, and the kernel's socket buffer is its bound.
pub const INBOX_CAPACITY: usize = 4096;

/// A running protocol node.
pub struct Node {
    /// The member's process id.
    pub pid: ProcessId,
    cmds: Sender<NodeCommand>,
    /// Rung by every command (and every datagram queued in an inbox);
    /// closed on shutdown.
    bell: Arc<Doorbell>,
    /// Stream of deliveries/views/departures.
    pub outputs: Receiver<NodeOutput>,
    handles: Vec<std::thread::JoinHandle<()>>,
    udp: Option<Arc<UdpTransport>>,
    metrics: Arc<NodeMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
    gate: Arc<PauseGate>,
    status: Arc<StatusCell>,
    ops: Option<OpsServer>,
}

impl Node {
    /// This node's live metrics (counters update while the node runs).
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// This node's TWFR writer, when recording or ops was attached at
    /// spawn: the one [`FlightRecorder`] behind both its recording file
    /// and its `/trace` stream.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The path of this node's recording file, when recording.
    pub fn recording_path(&self) -> Option<&Path> {
        self.recorder.as_ref().and_then(|r| r.path())
    }

    /// Spill any buffered trace events now, as one segment to the
    /// recording file and the `/trace` subscribers (no-op when neither
    /// is attached). The writer also spills at every view install, and
    /// the executor flushes it on shutdown/panic.
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
        self.bell.ring();
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
        self.bell.close();
        if let Some(udp) = &self.udp {
            udp.shutdown();
        }
        // Joining the executor drops its flush guard: the buffered tail
        // reaches the file and the subscribers' queues before the ops
        // server (dropped with self) goes away.
        for h in self.handles.drain(..) {
            let _ = h.join();
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

/// A node dropped without [`Node::shutdown`] still stops its executor;
/// only the join is skipped.
impl Drop for Node {
    fn drop(&mut self) {
        self.bell.close();
    }
}

/// One member as an executor sees it: the driver plus everything its
/// effects are routed to. Both executors feed every input through
/// [`Dispatcher::dispatch`]; they differ only in who calls it when.
pub(crate) struct Dispatcher {
    pub driver: Driver,
    hook: Option<DeliveryHook>,
    /// Long-lived outbound batch: reused across dispatches so encoder
    /// scratch amortizes to zero allocations.
    batch: OutBatch,
    transport: Arc<dyn Transport>,
    out: Sender<NodeOutput>,
    pub metrics: Arc<NodeMetrics>,
    status: Arc<StatusCell>,
    /// The node's TWFR writer, sampled into `tw_recorder_buffered`.
    writer: Option<Arc<FlightRecorder>>,
}

impl Dispatcher {
    /// One dispatch: step the driver at `now`, route its effects —
    /// messages into the outbound batch, the rest to the client — and put
    /// the batch on the wire in one [`Transport::flush`] (on UDP: one
    /// coalesced datagram per destination, one vectored syscall). The span
    /// from `started` to here lands in `dispatch_latency_us`, for every
    /// kind of input.
    pub(crate) fn dispatch(&mut self, started: Instant, now: HwTime, input: Input) {
        match self.driver.step(now, input, &mut self.hook) {
            Ok(effects) => {
                for e in effects {
                    match e {
                        Action::Broadcast(m) => {
                            self.metrics.on_send(m.kind());
                            self.batch.push_broadcast(m);
                        }
                        Action::Send(to, m) => {
                            self.metrics.on_send(m.kind());
                            self.batch.push_send(to, m);
                        }
                        Action::Deliver(d) => {
                            self.metrics.on_delivery();
                            let _ = self.out.send(NodeOutput::Delivery(d));
                        }
                        Action::InstallView(v) => {
                            self.metrics.on_view();
                            let _ = self.out.send(NodeOutput::View(v));
                        }
                        Action::LeftGroup { reason } => {
                            let _ = self.out.send(NodeOutput::Left(reason));
                        }
                        Action::ScheduleClockTick(_) | Action::InstallAppState(_) => {
                            unreachable!("consumed by Driver::step")
                        }
                    }
                }
                self.transport
                    .flush(self.driver.member().pid(), &mut self.batch);
            }
            Err(e) => {
                let _ = self.out.send(NodeOutput::ProposeRejected(e));
            }
        }
        self.metrics.on_dispatch(started);
    }

    /// Publish the member's locally observed status (§6 fail-awareness)
    /// for harness-side checks and the ops endpoint, and the trace
    /// writer's backlog: both executors call this once per loop, not per
    /// dispatch — the gauge reports a level, so the latest look wins.
    pub(crate) fn publish_status(&self, now: HwTime) {
        let member = self.driver.member();
        self.status.publish(NodeStatus {
            up_to_date: member.is_up_to_date(now),
            view_len: member.view().len(),
            view_seq: member.view().id.seq,
        });
        if let Some(w) = &self.writer {
            self.metrics.recorder_buffered().set(w.buffered() as i64);
        }
    }
}

/// Where an executor's datagrams come from.
pub(crate) enum Datagrams {
    /// A bounded inbox: the in-process mesh's, or a UDP receive thread's.
    Inbox(Receiver<Incoming>),
    /// The node's own UDP socket, read by the event loop itself.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    Socket(OwnSocket),
}

impl Datagrams {
    /// The inbox of a node that has one: every node but an event-loop
    /// node on its own socket.
    pub(crate) fn into_inbox(self) -> Receiver<Incoming> {
        match self {
            Datagrams::Inbox(inbox) => inbox,
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            Datagrams::Socket(_) => unreachable!("only the event loop reads its own socket"),
        }
    }
}

/// What an executor thread is handed.
pub(crate) struct NodeParts {
    pub dispatcher: Dispatcher,
    pub datagrams: Datagrams,
    pub cmds: Receiver<NodeCommand>,
    /// Rung by every command (and every datagram queued in an inbox);
    /// closed on shutdown.
    pub bell: Arc<Doorbell>,
    pub clock: Arc<dyn RuntimeClock + Sync>,
    /// Flushes the node's TWFR writer when dropped. Each executor keeps
    /// it on the stack of the thread that runs until shutdown, so the
    /// buffered tail is spilled even if that thread unwinds — the
    /// [`Node`]'s own `Arc` keeps the writer alive, so its `Drop` would
    /// not fire.
    pub flush: FlushGuard,
    /// Chaos pause switch; executors check it before every dispatch.
    pub gate: Arc<PauseGate>,
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

/// Where a cluster's per-node ops endpoints listen. A node's `/trace`
/// streams the segments its [`FlightRecorder`] spills: with recording,
/// the very segments of the file; without, at the default capacity.
#[derive(Debug, Clone)]
pub struct OpsSetup {
    /// Base TCP port on localhost: the node of rank `r` listens on
    /// `base_port + r`. `0` gives every node an ephemeral port —
    /// discover them through [`Node::ops_addr`].
    pub base_port: u16,
}

impl OpsSetup {
    /// Ops endpoints on ephemeral ports.
    pub fn ephemeral() -> Self {
        OpsSetup { base_port: 0 }
    }

    /// Ops endpoints on the fixed ports `base_port + rank`.
    pub fn at(base_port: u16) -> Self {
        OpsSetup { base_port }
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

/// The one way to assemble a cluster: say what the team runs on and what
/// is attached to every node, then [`spawn`](ClusterBuilder::spawn) it —
/// or hand it to [`chaos`](ClusterBuilder::chaos) for a fault-injected
/// one. Defaults: event-loop executor, in-process channel mesh, nothing
/// attached.
pub struct ClusterBuilder {
    pub(crate) cfg: Config,
    kind: ExecutorKind,
    udp: bool,
    make_hook: Box<dyn FnMut(ProcessId) -> Option<DeliveryHook> + Send>,
    sink: Option<Arc<dyn TraceSink>>,
    record: Option<RecorderSetup>,
    ops: Option<OpsSetup>,
    /// Per rank, once resolved: the node's one TWFR writer, when
    /// recording or ops is attached.
    pub(crate) writers: Vec<Option<Arc<FlightRecorder>>>,
    /// Per rank, once resolved: writer plus shared sink — the node's
    /// trace plumbing, which outlives an incarnation and is all that
    /// its member, its fault transport and the chaos controller trace to.
    pub(crate) sinks: Vec<Option<Arc<dyn TraceSink>>>,
}

impl ClusterBuilder {
    /// A team of `cfg.n` members.
    pub fn new(cfg: Config) -> Self {
        ClusterBuilder {
            cfg,
            kind: ExecutorKind::EventLoop,
            udp: false,
            make_hook: Box::new(|_| None),
            sink: None,
            record: None,
            ops: None,
            writers: Vec::new(),
            sinks: Vec::new(),
        }
    }

    /// Which executor hosts each member.
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.kind = kind;
        self
    }

    /// Real localhost UDP sockets on ephemeral ports instead of the
    /// channel mesh: real datagrams below whatever else is attached.
    pub fn udp(mut self) -> Self {
        self.udp = true;
        self
    }

    /// Attach a per-node application hook (see [`DeliveryHook`]);
    /// `make_hook` is called once per node incarnation.
    pub fn hooks(
        mut self,
        make_hook: impl FnMut(ProcessId) -> Option<DeliveryHook> + Send + 'static,
    ) -> Self {
        self.make_hook = Box::new(make_hook);
        self
    }

    /// Attach every member's trace stream to `sink` — e.g. a
    /// [`tw_obs::SharedAuditor`] checking the protocol's invariants live,
    /// or a [`tw_obs::VecSink`] capturing events for later analysis.
    /// Events from all members interleave on the one sink; each event
    /// carries its emitting process id.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a [`FlightRecorder`] to every node: each member's trace
    /// stream is spilled crash-safely to `<dir>/node-<pid>.twrec`,
    /// flushed at every view installation and on shutdown or panic. The
    /// recordings are the input to the `tw-trace` analyzer.
    pub fn record(mut self, setup: &RecorderSetup) -> Self {
        self.record = Some(setup.clone());
        self
    }

    /// Give every node a live ops endpoint on localhost TCP: `/metrics`
    /// (Prometheus text), `/status` (JSON), `/healthz` (the member's own
    /// §6 fail-awareness verdict) and `/trace` (a TWFR-framed live stream
    /// of its trace events). `tw-top` and any Prometheus scraper attach to
    /// these addresses.
    pub fn ops(mut self, ops: &OpsSetup) -> Self {
        self.ops = Some(ops.clone());
        self
    }

    /// Start the team. Fails only on I/O the attachments need: creating
    /// recording files, binding sockets and ops ports.
    pub fn spawn(mut self) -> std::io::Result<Vec<Node>> {
        self.resolve()?;
        if self.udp {
            self.spawn_udp()
        } else {
            self.spawn_mem()
        }
    }

    /// Fix what outlives any one node, before the first is started:
    /// check that every rank's ops port exists, create every rank's
    /// writer — and its recording file, up front, so I/O errors surface
    /// here, not inside node threads — and its writer-plus-shared-sink.
    pub(crate) fn resolve(&mut self) -> std::io::Result<()> {
        let cfg = self.cfg;
        if let Some(ops) = &self.ops {
            let last = ops.base_port as usize + cfg.n.saturating_sub(1);
            if last > u16::MAX as usize {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("ops ports {}..={last} run past {}", ops.base_port, u16::MAX),
                ));
            }
        }
        if let Some(setup) = &self.record {
            std::fs::create_dir_all(&setup.dir)?;
        }
        self.writers = vec![None; cfg.n];
        for (i, slot) in self.writers.iter_mut().enumerate() {
            let pid = ProcessId(i as u16);
            let rc = RecorderConfig::new(cfg.stream_header(pid));
            let writer = match &self.record {
                Some(r) => FlightRecorder::create(r.path_for(pid), rc.capacity(r.capacity))?,
                None if self.ops.is_some() => FlightRecorder::new(rc),
                None => continue,
            };
            *slot = Some(Arc::new(writer));
        }
        // The shared sink sees each event before the writer spills it.
        let with_shared = |w: &Option<Arc<FlightRecorder>>| {
            let writer = w.clone().map(|w| w as Arc<dyn TraceSink>);
            tee(self.sink.clone().into_iter().chain(writer).collect())
        };
        self.sinks = self.writers.iter().map(with_shared).collect();
        Ok(())
    }

    /// Start the member of `rank` as `incarnation` over `wiring`. With
    /// `ops_fallback`, an ops port that cannot be bound (a restarted
    /// incarnation whose predecessor's sockets linger in TIME_WAIT) falls
    /// back to an ephemeral one — rediscover it through
    /// [`Node::ops_addr`].
    pub(crate) fn start(
        &mut self,
        rank: usize,
        incarnation: Incarnation,
        mut wiring: Wiring,
        ops_fallback: bool,
    ) -> std::io::Result<Node> {
        let cfg = self.cfg;
        let pid = ProcessId(rank as u16);
        let mut member = Member::new_unchecked(pid, cfg);
        member.force_incarnation(incarnation);
        let (cmd_tx, cmd_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let gate = Arc::new(PauseGate::new());
        let status = Arc::new(StatusCell::new());
        let writer = self.writers[rank].clone();
        // Bind the ops endpoint before the member threads start so a port
        // clash surfaces as an error here, not a half-observable node.
        let ops = match &self.ops {
            Some(o) => {
                let status_for_json = status.clone();
                let status_for_health = status.clone();
                let sources = OpsSources {
                    registry: wiring.metrics.shared_registry(),
                    labels: vec![("pid".to_string(), pid.0.to_string())],
                    status_json: Arc::new(move || status_json(pid, status_for_json.read())),
                    // Health is the §6 fail-awareness verdict: the member's
                    // own judgement of whether it is up to date, not mere
                    // process liveness (liveness is the TCP connect itself).
                    healthy: Arc::new(move || status_for_health.read().up_to_date),
                };
                let bind = |addr: &str| OpsServer::bind(addr, sources.clone(), writer.clone());
                Some(match bind(&o.addr_for(rank)) {
                    Err(_) if ops_fallback => bind("127.0.0.1:0")?,
                    bound => bound?,
                })
            }
            None => None,
        };
        if let Some(s) = self.sinks[rank].clone() {
            member.set_tracer(Tracer::new(s));
        }
        let parts = NodeParts {
            dispatcher: Dispatcher {
                driver: Driver::new(member),
                hook: (self.make_hook)(pid),
                batch: OutBatch::new(),
                transport: wiring.transport,
                out: out_tx,
                metrics: wiring.metrics.clone(),
                status: status.clone(),
                writer: writer.clone(),
            },
            datagrams: wiring.datagrams,
            cmds: cmd_rx,
            bell: wiring.bell.clone(),
            clock: wiring.clock,
            flush: FlushGuard::new(writer.clone()),
            gate: gate.clone(),
        };
        let kind = self.kind;
        let main = std::thread::Builder::new()
            .name(format!("tw-node-{pid}"))
            .spawn(move || match kind {
                ExecutorKind::EventLoop => crate::event_loop::run(parts),
                ExecutorKind::Threaded => crate::threaded::run(parts),
            })
            .expect("spawn node thread");
        wiring.extra_handles.push(main);
        Ok(Node {
            pid,
            cmds: cmd_tx,
            bell: wiring.bell,
            outputs: out_rx,
            handles: wiring.extra_handles,
            udp: wiring.udp,
            metrics: wiring.metrics,
            recorder: writer,
            gate,
            status,
            ops,
        })
    }

    /// An in-process team over channel datagrams. Every inbox is plugged
    /// into the mesh before the first member starts.
    fn spawn_mem(mut self) -> std::io::Result<Vec<Node>> {
        let mesh = MemTransport::unplugged(self.cfg.n);
        let wirings: Vec<Wiring> = (0..self.cfg.n)
            .map(|rank| Wiring::on_mesh(&mesh, rank, mesh.clone(), Arc::new(RealClock::new())))
            .collect();
        wirings
            .into_iter()
            .enumerate()
            .map(|(rank, wiring)| self.start(rank, Incarnation(0), wiring, false))
            .collect()
    }

    /// A team over real localhost UDP sockets on ephemeral ports.
    fn spawn_udp(mut self) -> std::io::Result<Vec<Node>> {
        let n = self.cfg.n;
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
        for (rank, addr) in addrs.iter().enumerate() {
            let udp = UdpTransport::bind(ProcessId(rank as u16), *addr, peers.clone())?;
            let metrics = NodeMetrics::new();
            udp.set_send_metrics(metrics.send_metrics());
            // Who reads the socket: the event loop itself where it can
            // park in `ppoll`, a receive thread otherwise.
            let wiring = match self.kind {
                #[cfg(all(target_os = "linux", target_env = "gnu"))]
                ExecutorKind::EventLoop => Wiring::own_socket(udp, metrics)?,
                ExecutorKind::Threaded => Wiring::receive_thread(udp, metrics),
                #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
                ExecutorKind::EventLoop => Wiring::receive_thread(udp, metrics),
            };
            nodes.push(self.start(rank, Incarnation(0), wiring, false)?);
        }
        Ok(nodes)
    }
}

/// Fan `sinks` into the single [`TraceSink`] a tracer writes to.
fn tee(mut sinks: Vec<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
    match sinks.len() {
        0 | 1 => sinks.pop(),
        _ => Some(Arc::new(TeeSink::new(sinks))),
    }
}

/// The environment's half of a node: where its datagrams come from and
/// go to, and which clock it reads.
pub(crate) struct Wiring {
    pub datagrams: Datagrams,
    /// The node's doorbell: its inbox's
    /// ([`crate::inbox::InboxSender::doorbell`]), or for a node on its
    /// own socket one whose hook wakes the socket's park.
    pub bell: Arc<Doorbell>,
    pub transport: Arc<dyn Transport>,
    pub udp: Option<Arc<UdpTransport>>,
    pub extra_handles: Vec<std::thread::JoinHandle<()>>,
    pub metrics: Arc<NodeMetrics>,
    pub clock: Arc<dyn RuntimeClock + Sync>,
}

impl Wiring {
    /// Rank `rank` of an in-process team: a fresh bounded inbox, plugged
    /// into `mesh`'s slot for the rank, that counts its shed datagrams
    /// into the node's `tw_inbox_dropped_total`. The node sends through
    /// `transport` — the mesh itself, or a fault-injecting way onto it.
    pub(crate) fn on_mesh(
        mesh: &MemTransport,
        rank: usize,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn RuntimeClock + Sync>,
    ) -> Wiring {
        let metrics = NodeMetrics::new();
        let (tx, inbox) = node_inbox(INBOX_CAPACITY, Some(metrics.inbox_dropped()));
        let bell = tx.doorbell().clone();
        mesh.set_slot(rank, Some(tx));
        Wiring {
            datagrams: Datagrams::Inbox(inbox),
            bell,
            transport,
            udp: None,
            extra_handles: Vec::new(),
            metrics,
            clock,
        }
    }

    /// An event-loop node on `udp` that reads the socket itself: no
    /// inbox and no second thread. Its doorbell's hook wakes the loop's
    /// `ppoll`; failed receives count into `tw_udp_recv_errors_total`.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn own_socket(udp: Arc<UdpTransport>, metrics: Arc<NodeMetrics>) -> std::io::Result<Wiring> {
        let wake = Arc::new(crate::mmsg::EventFd::new()?);
        let hook = wake.clone();
        Ok(Wiring {
            datagrams: Datagrams::Socket(OwnSocket::new(
                udp.clone(),
                wake,
                metrics.udp_recv_errors(),
            )),
            bell: Arc::new(Doorbell::with_hook(move || hook.wake())),
            transport: udp.clone(),
            udp: Some(udp),
            extra_handles: Vec::new(),
            metrics,
            clock: Arc::new(RealClock::new()),
        })
    }

    /// A node on `udp` whose socket a receive thread reads into a
    /// bounded inbox: the threaded baseline, whose receive thread is part
    /// of the §5 design it reproduces, and the event loop on targets
    /// without `ppoll`.
    fn receive_thread(udp: Arc<UdpTransport>, metrics: Arc<NodeMetrics>) -> Wiring {
        let (tx, inbox) = node_inbox(INBOX_CAPACITY, Some(metrics.inbox_dropped()));
        let bell = tx.doorbell().clone();
        let receiver = udp.spawn_receiver(tx, Some(metrics.udp_recv_errors()));
        Wiring {
            datagrams: Datagrams::Inbox(inbox),
            bell,
            transport: udp.clone(),
            udp: Some(udp),
            extra_handles: vec![receiver],
            metrics,
            clock: Arc::new(RealClock::new()),
        }
    }
}

/// Start an in-process team of `cfg.n` members over channel datagrams.
pub fn spawn_cluster(kind: ExecutorKind, cfg: Config) -> Vec<Node> {
    let spawned = ClusterBuilder::new(cfg).executor(kind).spawn();
    spawned.expect("nothing attached that does I/O, spawn cannot fail")
}

/// Start a team of `cfg.n` members over real localhost UDP sockets on
/// ephemeral ports.
pub fn spawn_udp_cluster(kind: ExecutorKind, cfg: Config) -> std::io::Result<Vec<Node>> {
    ClusterBuilder::new(cfg).executor(kind).udp().spawn()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_proto::Duration;

    /// The dispatch function both executors share: every kind of input
    /// is one `dispatch_latency_us` sample — the threaded baseline used to
    /// time message dispatches only, so T7 compared different things.
    #[test]
    fn every_input_kind_is_one_timed_dispatch() {
        let cfg = Config::for_team(3, Duration::from_millis(10));
        let metrics = NodeMetrics::new();
        let (out, outputs) = unbounded();
        let mut dispatcher = Dispatcher {
            driver: Driver::new(Member::new_unchecked(ProcessId(0), cfg)),
            hook: None,
            batch: OutBatch::new(),
            transport: MemTransport::new(Vec::new()),
            out,
            metrics: metrics.clone(),
            status: Arc::new(StatusCell::new()),
            writer: None,
        };
        let samples = || metrics.snapshot().histograms["dispatch_latency_us"].count;
        let at = HwTime::from_micros;
        dispatcher.dispatch(Instant::now(), at(0), Input::Start);
        assert_eq!(samples(), 1);
        dispatcher.dispatch(Instant::now(), at(10), Input::Tick);
        assert_eq!(samples(), 2);
        let update = (Bytes::from_static(b"u"), Semantics::UNORDERED_WEAK);
        dispatcher.dispatch(Instant::now(), at(20), Input::Propose(vec![update]));
        assert_eq!(samples(), 3);
        // Outside a group the propose is refused — still one dispatch.
        assert!(outputs
            .try_iter()
            .any(|o| matches!(o, NodeOutput::ProposeRejected(_))));
    }
}
