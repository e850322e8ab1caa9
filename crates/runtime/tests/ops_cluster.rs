//! End-to-end checks of the live telemetry plane on real clusters: ops
//! endpoints answer mid-run, `/metrics` carries the protocol counters
//! and the runtime's self-observation signals, `/healthz` reflects §6
//! fail-awareness, and `/trace` decodes through the same `StreamReader`
//! contract as on-disk recordings — it carries the segments of the
//! node's one TWFR writer, the very bytes its recording file holds.

use bytes::Bytes;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_obs::recorder::HEADER_LEN;
use tw_obs::{http_get, FaultKind, LiveTail, TraceEvent, TraceSink};
use tw_proto::{Duration, ProcessId, Semantics};
use tw_runtime::{ChaosCluster, ChaosOp, ClusterBuilder, Node, OpsSetup, RecorderSetup};

fn cfg(n: usize) -> Config {
    Config::for_team(n, Duration::from_millis(10))
}

fn form_group(nodes: &[Node], n: usize) {
    for node in nodes {
        let v = node
            .wait_for_view(n, StdDuration::from_secs(20))
            .unwrap_or_else(|| panic!("{} never saw the full view", node.pid));
        assert_eq!(v.len(), n);
    }
}

fn shutdown(nodes: Vec<Node>) {
    for n in nodes {
        n.shutdown();
    }
}

const TIMEOUT: StdDuration = StdDuration::from_secs(2);

/// Poll `tail` until its TWFR header arrived: from then on the node's
/// writer holds the subscription, so every later spill reaches it.
fn subscribed(tail: &mut LiveTail) {
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while tail.header().is_none() && Instant::now() < deadline {
        tail.poll(StdDuration::from_millis(20))
            .expect("clean stream");
    }
    assert!(tail.header().is_some(), "no TWFR header on /trace");
}

/// Poll `tail` until an event matching `want` arrives; false on timeout.
fn tail_until(tail: &mut LiveTail, want: impl Fn(&TraceEvent) -> bool) -> bool {
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while Instant::now() < deadline {
        let events = tail
            .poll(StdDuration::from_millis(100))
            .expect("clean stream");
        if events.iter().any(&want) {
            return true;
        }
    }
    false
}

/// A trace sink that holds every thread tracing into it until opened,
/// so nothing a node traces is spilled before the test is ready.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl TraceSink for Gate {
    fn record(&self, _: &TraceEvent) {
        let open = self.open.lock().unwrap();
        drop(self.opened.wait_while(open, |open| !*open).unwrap());
    }
}

/// The body of a raw `/trace` response, byte for byte as it arrives.
struct RawTrace {
    sock: TcpStream,
    bytes: Vec<u8>,
}

impl RawTrace {
    fn connect(addr: SocketAddr) -> RawTrace {
        let mut sock = TcpStream::connect_timeout(&addr, TIMEOUT).expect("connect /trace");
        sock.write_all(b"GET /trace HTTP/1.0\r\n\r\n").unwrap();
        sock.set_read_timeout(Some(StdDuration::from_secs(10)))
            .unwrap();
        RawTrace {
            sock,
            bytes: Vec::new(),
        }
    }

    /// Read until the body holds at least `len` bytes; returns the body.
    fn body(&mut self, len: usize) -> &[u8] {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let head = self.bytes.windows(4).position(|w| w == b"\r\n\r\n");
            if let Some(at) = head.map(|i| i + 4) {
                if self.bytes.len() - at >= len {
                    return &self.bytes[at..];
                }
            }
            let n = self.sock.read(&mut chunk).expect("/trace went quiet");
            assert!(n > 0, "/trace closed early");
            self.bytes.extend_from_slice(&chunk[..n]);
        }
    }
}

#[test]
fn ops_ports_past_the_last_port_are_refused_before_any_node_starts() {
    // Ranks 0..=4 would need ports 65534..=65538.
    let ops = OpsSetup::at(65534);
    let spawned = ClusterBuilder::new(cfg(5)).ops(&ops).spawn();
    let err = spawned.err().expect("spawn refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let chaos = ClusterBuilder::new(cfg(5)).ops(&ops).chaos(1);
    let err = chaos.err().expect("chaos refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}

#[test]
fn ops_endpoints_scrape_mid_run() {
    let n = 3;
    let nodes = ClusterBuilder::new(cfg(n))
        .ops(&OpsSetup::ephemeral())
        .spawn()
        .expect("bind ops endpoints");
    form_group(&nodes, n);
    nodes[0].propose(Bytes::from_static(b"observed"), Semantics::TOTAL_STRONG);
    for node in &nodes {
        let ds = node.wait_for_deliveries(1, StdDuration::from_secs(10));
        assert_eq!(ds.len(), 1, "{} missed the delivery", node.pid);
    }
    for node in &nodes {
        let addr = node.ops_addr().expect("ops endpoint attached");

        // Health: every member settled into an up-to-date view.
        let (code, body) = http_get(addr, "/healthz", TIMEOUT).expect("healthz");
        assert_eq!(code, 200, "{}: {body}", node.pid);

        // Status: the fail-awareness triple as JSON.
        let (code, body) = http_get(addr, "/status", TIMEOUT).expect("status");
        assert_eq!(code, 200);
        assert!(body.contains(&format!("\"pid\":{}", node.pid.0)), "{body}");
        assert!(body.contains("\"up_to_date\":true"), "{body}");
        assert!(body.contains(&format!("\"view_len\":{n}")), "{body}");

        // Metrics: protocol counters, the pid label, and the runtime
        // self-observation families all render.
        let (code, text) = http_get(addr, "/metrics", TIMEOUT).expect("metrics");
        assert_eq!(code, 200);
        assert!(
            text.contains(&format!("deliveries_total{{pid=\"{}\"}} 1", node.pid.0)),
            "{text}"
        );
        assert!(text.contains("# TYPE tick_lag_us histogram"), "{text}");
        assert!(text.contains("# TYPE tw_inbox_depth gauge"), "{text}");
        assert!(text.contains("tw_recorder_buffered"), "{text}");

        // Unknown paths 404 without killing the server.
        let (code, _) = http_get(addr, "/nope", TIMEOUT).expect("404 path");
        assert_eq!(code, 404);
    }
    shutdown(nodes);
}

#[test]
fn live_trace_stream_decodes_like_a_recording() {
    let n = 3;
    let nodes = ClusterBuilder::new(cfg(n))
        .ops(&OpsSetup::ephemeral())
        .spawn()
        .expect("bind ops endpoints");
    form_group(&nodes, n);
    let addr = nodes[0].ops_addr().expect("ops endpoint attached");
    let mut tail = LiveTail::connect(addr, TIMEOUT).expect("connect /trace");
    subscribed(&mut tail);

    nodes[0].propose(Bytes::from_static(b"tailed"), Semantics::TOTAL_STRONG);
    for node in &nodes {
        let _ = node.wait_for_deliveries(1, StdDuration::from_secs(10));
    }
    // Ship the delivery without waiting for a full segment.
    nodes[0].flush_recorder();
    let saw_delivery = tail_until(&mut tail, |e| matches!(e, TraceEvent::Delivered { .. }));
    assert!(saw_delivery, "delivery never appeared on /trace");
    let header = tail.header().expect("TWFR header arrives first");
    assert_eq!(*header, cfg(n).stream_header(ProcessId(0)));
    shutdown(nodes);
}

#[test]
fn a_recording_node_streams_exactly_the_segments_it_records() {
    let n = 3;
    let dir = std::env::temp_dir().join(format!("tw-ops-same-bytes-{}", std::process::id()));
    let gate = Arc::new(Gate::default());
    let nodes = ClusterBuilder::new(cfg(n))
        .record(&RecorderSetup::new(&dir))
        .ops(&OpsSetup::ephemeral())
        .trace(gate.clone())
        .spawn()
        .expect("bind ops endpoints");
    // Subscribe while every node is held at its first event: the shared
    // sink sees each event before the writer does, so node 0's writer
    // has seen nothing yet.
    let mut raw = RawTrace::connect(nodes[0].ops_addr().expect("ops endpoint attached"));
    raw.body(HEADER_LEN);
    gate.open();

    form_group(&nodes, n);
    nodes[0].propose(Bytes::from_static(b"twice"), Semantics::TOTAL_STRONG);
    for node in &nodes {
        let _ = node.wait_for_deliveries(1, StdDuration::from_secs(10));
    }
    nodes[0].flush_recorder();
    // Each spill reaches the file and the subscriber together, so what
    // the file holds now is a prefix of what the stream carries.
    let file = std::fs::read(nodes[0].recording_path().expect("recording")).unwrap();
    assert!(file.len() > HEADER_LEN, "node 0 spilled nothing");
    let streamed = raw.body(file.len());
    assert!(
        streamed.starts_with(&file),
        "stream differs from the recording: {} file bytes, first difference at byte {:?}",
        file.len(),
        file.iter().zip(streamed).position(|(a, b)| a != b)
    );
    shutdown(nodes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_faults_reach_the_live_trace_stream() {
    let mut cluster = ClusterBuilder::new(cfg(3))
        .ops(&OpsSetup::ephemeral())
        .chaos(5)
        .expect("bind ops endpoints");
    let addr = cluster.ops_addr(0).expect("ops endpoint attached");
    let mut tail = LiveTail::connect(addr, TIMEOUT).expect("connect /trace");
    subscribed(&mut tail);

    cluster.apply(&ChaosOp::Cut(ProcessId(0), ProcessId(1)), 0);
    cluster.flush_recorders();
    let saw_cut = tail_until(&mut tail, |e| {
        matches!(
            e,
            TraceEvent::FaultInjected {
                kind: FaultKind::CutLink,
                target: ProcessId(1),
                ..
            }
        )
    });
    assert!(saw_cut, "the cut never appeared on node 0's /trace");
    cluster.shutdown();
}

#[test]
fn health_flips_with_fail_awareness_under_chaos() {
    let n = 3;
    let mut cluster = ClusterBuilder::new(cfg(n))
        .ops(&OpsSetup::ephemeral())
        .chaos(7)
        .expect("bind ops endpoints");
    // Wait for the group to form and every endpoint to report healthy.
    let deadline = Instant::now() + StdDuration::from_secs(20);
    let all_healthy = |cluster: &ChaosCluster| {
        (0..n).all(|r| {
            cluster
                .ops_addr(r)
                .and_then(|a| http_get(a, "/healthz", TIMEOUT).ok())
                .is_some_and(|(code, _)| code == 200)
        })
    };
    while Instant::now() < deadline && !all_healthy(&cluster) {
        std::thread::sleep(StdDuration::from_millis(50));
    }
    assert!(all_healthy(&cluster), "cluster never became healthy");

    // Crash a node: its endpoint vanishes (connection refused), which
    // is the liveness signal; the survivors keep answering.
    cluster.crash(tw_proto::ProcessId(2), 0);
    assert!(cluster.ops_addr(2).is_none());
    for r in 0..2 {
        let addr = cluster.ops_addr(r).expect("survivor endpoint");
        let (code, _) = http_get(addr, "/metrics", TIMEOUT).expect("survivor scrape");
        assert_eq!(code, 200);
    }
    cluster.shutdown();
}
