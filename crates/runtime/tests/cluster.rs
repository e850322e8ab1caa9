//! Real-time cluster tests: both executors and both transports must form
//! a group and deliver updates on actual threads and sockets.

use bytes::Bytes;
use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;
use timewheel::Config;
use tw_obs::{SharedAuditor, TraceSink};
use tw_proto::{Duration, Semantics};
use tw_runtime::{
    spawn_cluster, spawn_udp_cluster, AppEvent, ClusterBuilder, ExecutorKind, Node, NodeOutput,
    RecorderSetup,
};

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

/// Every node delivers a proposal from each member in one total order,
/// and its application hook sees exactly the payloads the node outputs,
/// in the same order.
fn cluster_forms_and_delivers(kind: ExecutorKind) {
    let n = 3;
    let hooked: Arc<Vec<Mutex<Vec<Bytes>>>> = Arc::new((0..n).map(|_| Mutex::default()).collect());
    let logs = hooked.clone();
    let nodes = ClusterBuilder::new(cfg(n))
        .executor(kind)
        .hooks(move |pid| {
            let logs = logs.clone();
            Some(Box::new(move |ev| {
                if let AppEvent::Deliver(d) = ev {
                    logs[pid.rank()].lock().unwrap().push(d.payload.clone());
                }
                None
            }))
        })
        .spawn()
        .expect("spawn");
    form_group(&nodes, n);
    let sent: Vec<Bytes> = (0..n).map(|i| Bytes::from(format!("hello-{i}"))).collect();
    for (node, payload) in nodes.iter().zip(&sent) {
        node.propose(payload.clone(), Semantics::TOTAL_STRONG);
    }
    let mut orders = Vec::new();
    for node in &nodes {
        let ds = node.wait_for_deliveries(n, StdDuration::from_secs(10));
        let payloads: Vec<Bytes> = ds.into_iter().map(|d| d.payload).collect();
        let mut sorted = payloads.clone();
        sorted.sort();
        assert_eq!(sorted, sent, "{} missed or changed an update", node.pid);
        assert_eq!(
            *hooked[node.pid.rank()].lock().unwrap(),
            payloads,
            "{}'s hook and its delivery stream differ",
            node.pid
        );
        orders.push(payloads);
    }
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "total order broken: {orders:?}"
    );
    shutdown(nodes);
}

#[test]
fn event_loop_cluster_forms_and_delivers() {
    cluster_forms_and_delivers(ExecutorKind::EventLoop);
}

#[test]
fn threaded_cluster_forms_and_delivers() {
    cluster_forms_and_delivers(ExecutorKind::Threaded);
}

#[test]
fn udp_cluster_forms_and_delivers() {
    let n = 3;
    let nodes = spawn_udp_cluster(ExecutorKind::EventLoop, cfg(n)).expect("bind sockets");
    form_group(&nodes, n);
    nodes[1].propose(Bytes::from_static(b"over-udp"), Semantics::UNORDERED_WEAK);
    for node in &nodes {
        let ds = node.wait_for_deliveries(1, StdDuration::from_secs(10));
        assert_eq!(ds.len(), 1, "{} missed the delivery", node.pid);
    }
    shutdown(nodes);
}

/// The threaded baseline reads its socket on a receive thread, into a
/// bounded inbox.
#[test]
fn threaded_udp_cluster_forms_and_delivers() {
    let n = 3;
    let nodes = spawn_udp_cluster(ExecutorKind::Threaded, cfg(n)).expect("bind sockets");
    form_group(&nodes, n);
    nodes[2].propose(Bytes::from_static(b"over-udp"), Semantics::UNORDERED_WEAK);
    for node in &nodes {
        let ds = node.wait_for_deliveries(1, StdDuration::from_secs(10));
        assert_eq!(ds.len(), 1, "{} missed the delivery", node.pid);
    }
    shutdown(nodes);
}

#[test]
fn both_executors_deliver_a_burst_identically() {
    let n = 3;
    let count = 20;
    for kind in [ExecutorKind::EventLoop, ExecutorKind::Threaded] {
        let nodes = spawn_cluster(kind, cfg(n));
        form_group(&nodes, n);
        for k in 0..count {
            nodes[k % n].propose(Bytes::from(format!("u{k}")), Semantics::TOTAL_STRONG);
            std::thread::sleep(StdDuration::from_millis(5));
        }
        for node in &nodes {
            let ds = node.wait_for_deliveries(count, StdDuration::from_secs(30));
            assert_eq!(ds.len(), count, "{:?}: {} incomplete", kind, node.pid);
        }
        shutdown(nodes);
    }
}

#[test]
fn shutdown_node_is_removed_from_membership() {
    let n = 3;
    let nodes = spawn_cluster(ExecutorKind::EventLoop, cfg(n));
    form_group(&nodes, n);
    let mut it = nodes.into_iter();
    let dead = it.next().unwrap();
    let rest: Vec<Node> = it.collect();
    dead.shutdown(); // crash, as seen by the others
    for node in &rest {
        let v = node
            .wait_for_view(n - 1, StdDuration::from_secs(20))
            .unwrap_or_else(|| panic!("{} never removed the dead node", node.pid));
        assert!(!v.contains(tw_proto::ProcessId(0)));
    }
    shutdown(rest);
}

#[test]
fn propose_before_membership_is_rejected() {
    // A 2-team with only one node started: no group can form, proposals
    // must be rejected with NotMember/NotSynced.
    let c = cfg(2);
    let mut nodes = spawn_cluster(ExecutorKind::EventLoop, c);
    let lone = nodes.remove(0);
    // Shut the second node immediately: the first stays groupless.
    nodes.remove(0).shutdown();
    std::thread::sleep(StdDuration::from_millis(300));
    lone.propose(Bytes::from_static(b"x"), Semantics::UNORDERED_WEAK);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    let mut rejected = false;
    while std::time::Instant::now() < deadline {
        match lone.outputs.recv_timeout(StdDuration::from_millis(200)) {
            Ok(NodeOutput::ProposeRejected(_)) => {
                rejected = true;
                break;
            }
            Ok(_) => continue,
            Err(_) => continue,
        }
    }
    assert!(rejected, "groupless propose was not rejected");
    lone.shutdown();
}

/// The paper's T1 claim, measured on the real runtime instead of the
/// simulator, and asserted *only* from the metrics registry: during a
/// stable (failure-free) window a 5-node cluster exchanges zero
/// membership-protocol messages — no no-decisions, no joins, no
/// reconfigurations — and the decision load is evenly rotated.
fn failure_free_window_is_membership_silent(kind: ExecutorKind) {
    let n = 5;
    let nodes = spawn_cluster(kind, cfg(n));
    form_group(&nodes, n);
    // Let the join/reconfiguration tail from group formation drain.
    std::thread::sleep(StdDuration::from_millis(500));

    let before: Vec<_> = nodes.iter().map(Node::metrics_snapshot).collect();
    std::thread::sleep(StdDuration::from_millis(2500));
    let after: Vec<_> = nodes.iter().map(Node::metrics_snapshot).collect();

    let mut decisions = Vec::new();
    for (node, (b, a)) in nodes.iter().zip(before.iter().zip(after.iter())) {
        let d = a.delta(b);
        assert_eq!(
            d.counter("sends.no-decision"),
            0,
            "{:?}: {} sent no-decisions in a stable window",
            kind,
            node.pid
        );
        assert_eq!(
            d.counter("sends.join"),
            0,
            "{:?}: {} sent joins in a stable window",
            kind,
            node.pid
        );
        assert_eq!(
            d.counter("sends.reconfig"),
            0,
            "{:?}: {} sent reconfigs in a stable window",
            kind,
            node.pid
        );
        decisions.push(d.counter("sends.decision"));
    }
    let max = decisions.iter().copied().max().unwrap_or(0);
    let min = decisions.iter().copied().min().unwrap_or(0);
    assert!(
        max >= 1,
        "{kind:?}: no decisions at all in the window — is the wheel turning?"
    );
    assert!(
        max - min <= 1,
        "{kind:?}: decision load skewed across the rotation: {decisions:?}"
    );
    shutdown(nodes);
}

#[test]
fn event_loop_failure_free_window_is_membership_silent() {
    failure_free_window_is_membership_silent(ExecutorKind::EventLoop);
}

#[test]
fn threaded_failure_free_window_is_membership_silent() {
    failure_free_window_is_membership_silent(ExecutorKind::Threaded);
}

#[test]
fn event_loop_records_dispatch_latency() {
    let n = 3;
    let nodes = spawn_cluster(ExecutorKind::EventLoop, cfg(n));
    form_group(&nodes, n);
    nodes[0].propose(Bytes::from_static(b"timed"), Semantics::TOTAL_STRONG);
    for node in &nodes {
        node.wait_for_deliveries(1, StdDuration::from_secs(10));
        let s = node.metrics_snapshot();
        let h = s
            .histograms
            .get("dispatch_latency_us")
            .expect("dispatch latency histogram registered");
        assert!(h.count > 0, "{} dispatched nothing", node.pid);
        assert!(s.counter("deliveries") >= 1);
        assert!(s.counter("views_installed") >= 1);
    }
    shutdown(nodes);
}

/// Every node of a recorded cluster writes a loadable flight recording,
/// flushed on shutdown by the executor's guard; the offline analyzer
/// reconstructs the run from the files alone with a clean audit.
#[test]
fn recorded_cluster_writes_analyzable_recordings() {
    let n = 3;
    let dir = std::env::temp_dir().join(format!("tw-runtime-rec-{}", std::process::id()));
    let setup = RecorderSetup::new(&dir).capacity(128);
    let nodes = ClusterBuilder::new(cfg(n))
        .record(&setup)
        .spawn()
        .expect("create recordings");
    form_group(&nodes, n);
    nodes[0].propose(Bytes::from_static(b"boxed"), Semantics::TOTAL_STRONG);
    for node in &nodes {
        let ds = node.wait_for_deliveries(1, StdDuration::from_secs(10));
        assert_eq!(ds.len(), 1, "{} missed the delivery", node.pid);
        assert!(node.recording_path().is_some());
    }
    shutdown(nodes);

    let recordings: Vec<tw_obs::Recording> = (0..n)
        .map(|i| {
            let r = tw_obs::Recording::load(setup.path_for(tw_proto::ProcessId(i as u16)))
                .expect("load recording");
            assert_eq!(r.damage, None, "clean shutdown left damage on node {i}");
            assert!(!r.events.is_empty(), "node {i} recorded nothing");
            r
        })
        .collect();
    let set = tw_obs::TraceSet::new(recordings).expect("distinct recordings");
    let analysis = tw_obs::analyze(&set);
    assert!(
        analysis
            .merged
            .iter()
            .any(|e| matches!(e, tw_obs::TraceEvent::Delivered { .. })),
        "recordings lost the delivery"
    );
    assert!(
        analysis.audits_clean(),
        "offline audit of the recorded cluster failed: {:?} / {:?}",
        analysis.audit,
        analysis.cross
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The live invariant auditor tails the trace streams of all five
/// members while the cluster forms, broadcasts and delivers; at the end
/// it must have seen real events and flagged nothing.
#[test]
fn live_auditor_sees_a_clean_cluster() {
    /// Forwards to the auditor while counting, so the test can prove
    /// events actually flowed (a disconnected tracer would trivially
    /// pass `assert_clean`).
    struct CountingSink {
        auditor: SharedAuditor,
        seen: std::sync::atomic::AtomicU64,
    }
    impl TraceSink for CountingSink {
        fn record(&self, ev: &tw_obs::TraceEvent) {
            self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.auditor.record(ev);
        }
    }

    let n = 5;
    let auditor = SharedAuditor::new(n);
    let sink = Arc::new(CountingSink {
        auditor: auditor.clone(),
        seen: std::sync::atomic::AtomicU64::new(0),
    });
    let nodes = ClusterBuilder::new(cfg(n))
        .trace(sink.clone() as Arc<dyn TraceSink>)
        .spawn()
        .expect("nothing attached that does I/O");
    form_group(&nodes, n);
    let count = 10;
    for k in 0..count {
        nodes[k % n].propose(Bytes::from(format!("audited-{k}")), Semantics::TOTAL_STRONG);
        std::thread::sleep(StdDuration::from_millis(5));
    }
    for node in &nodes {
        let ds = node.wait_for_deliveries(count, StdDuration::from_secs(30));
        assert_eq!(ds.len(), count, "{} incomplete", node.pid);
    }
    shutdown(nodes);
    let seen = sink.seen.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        seen > 0,
        "tracer emitted nothing — trace plumbing is disconnected"
    );
    auditor.assert_clean();
}
