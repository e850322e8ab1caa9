//! End-to-end checks of the live telemetry plane on real clusters: ops
//! endpoints answer mid-run, `/metrics` carries the protocol counters
//! and the runtime's self-observation signals, `/healthz` reflects §6
//! fail-awareness, and `/trace` decodes through the same `StreamReader`
//! contract as on-disk recordings.

use bytes::Bytes;
use std::time::Duration as StdDuration;
use timewheel::Config;
use tw_obs::{http_get, LiveTail, TraceEvent};
use tw_proto::{Duration, ProcessId, Semantics};
use tw_runtime::{ChaosCluster, ClusterBuilder, Node, OpsSetup};

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
    // stream_capacity 1: every event ships as its own segment, so the
    // tailer sees traffic without waiting for a 256-event batch.
    let ops = OpsSetup::ephemeral().stream_capacity(1);
    let nodes = ClusterBuilder::new(cfg(n))
        .ops(&ops)
        .spawn()
        .expect("bind ops endpoints");
    form_group(&nodes, n);
    let addr = nodes[0].ops_addr().expect("ops endpoint attached");
    let mut tail = LiveTail::connect(addr, TIMEOUT).expect("connect /trace");

    nodes[0].propose(Bytes::from_static(b"tailed"), Semantics::TOTAL_STRONG);
    for node in &nodes {
        let _ = node.wait_for_deliveries(1, StdDuration::from_secs(10));
    }

    // Poll until the delivery shows up in the live stream.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    let mut saw_delivery = false;
    while std::time::Instant::now() < deadline && !saw_delivery {
        let events = tail
            .poll(StdDuration::from_millis(100))
            .expect("clean stream");
        saw_delivery = events
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { .. }));
    }
    assert!(saw_delivery, "delivery never appeared on /trace");
    let header = tail.header().expect("TWFR header arrives first");
    assert_eq!(*header, cfg(n).stream_header(ProcessId(0)));
    shutdown(nodes);
}

#[test]
fn health_flips_with_fail_awareness_under_chaos() {
    let n = 3;
    let mut cluster = ClusterBuilder::new(cfg(n))
        .ops(&OpsSetup::ephemeral())
        .chaos(7)
        .expect("bind ops endpoints");
    // Wait for the group to form and every endpoint to report healthy.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(20);
    let all_healthy = |cluster: &ChaosCluster| {
        (0..n).all(|r| {
            cluster
                .ops_addr(r)
                .and_then(|a| http_get(a, "/healthz", TIMEOUT).ok())
                .is_some_and(|(code, _)| code == 200)
        })
    };
    while std::time::Instant::now() < deadline && !all_healthy(&cluster) {
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
