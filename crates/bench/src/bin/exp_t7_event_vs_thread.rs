//! T7 — event-based vs thread-based implementation (paper §5, ref \[22]).
//!
//! The paper reports that an initial thread-based implementation had
//! "significant performance overhead" from the large number of threads
//! and from scheduling them explicitly, and switched to a single-threaded
//! event handler. We reproduce the comparison on real threads: the same
//! protocol core, same in-process datagram mesh, hosted by the two
//! executors.
//!
//! Two workloads, both using unordered/weak updates so that delivery
//! happens at *receipt* (executor dispatch cost dominates, not the
//! decider rotation):
//!
//! * **throughput** — one node floods updates; time until another node
//!   has delivered them all;
//! * **latency** — paced updates carrying send timestamps; receiver-side
//!   propose→deliver latency distribution.

use bytes::Bytes;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_bench::{mean, percentile, Table};
use tw_proto::{Duration, Semantics};
use tw_runtime::{spawn_cluster, ExecutorKind, NodeOutput};

fn formed_nodes(kind: ExecutorKind) -> Vec<tw_runtime::Node> {
    let n = 3;
    let cfg = Config::for_team(n, Duration::from_millis(10));
    let nodes = spawn_cluster(kind, cfg);
    for node in &nodes {
        node.wait_for_view(n, StdDuration::from_secs(30))
            .expect("formation");
    }
    nodes
}

/// Offer weak updates from node 0 at `rate` updates/second for
/// `secs` seconds; return the delivered rate observed at node 1 (with a
/// bounded drain window after the offered load ends).
fn throughput(kind: ExecutorKind, rate: usize, secs: u64) -> f64 {
    let nodes = formed_nodes(kind);
    while nodes[1].outputs.try_recv().is_ok() {}
    let count = rate * secs as usize;
    let batch = (rate / 500).max(1); // one batch every ~2 ms
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < count {
        let due = start + StdDuration::from_micros((sent as u64 * 1_000_000) / rate as u64);
        if let Some(d) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
        for _ in 0..batch.min(count - sent) {
            nodes[0].propose(Bytes::from_static(b"x"), Semantics::UNORDERED_WEAK);
            sent += 1;
        }
    }
    let mut delivered = 0usize;
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while delivered < count && Instant::now() < deadline {
        match nodes[1].outputs.recv_timeout(StdDuration::from_millis(250)) {
            Ok(NodeOutput::Delivery(_)) => delivered += 1,
            Ok(_) => {}
            Err(_) => {}
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    for n in nodes {
        n.shutdown();
    }
    delivered as f64 / elapsed
}

/// Paced weak updates with embedded timestamps; receiver-side latency
/// (mean, p99) in microseconds, plus the receiver's own median dispatch
/// latency (every input kind, lock wait included on the threaded
/// executor) from its `dispatch_latency_us` histogram.
fn latency(kind: ExecutorKind, count: usize) -> (f64, f64, u64) {
    let nodes = formed_nodes(kind);
    while nodes[1].outputs.try_recv().is_ok() {}
    let epoch = Instant::now();
    let mut lats = Vec::with_capacity(count);
    for _ in 0..count {
        let t_us = epoch.elapsed().as_micros() as u64;
        nodes[0].propose(
            Bytes::from(t_us.to_le_bytes().to_vec()),
            Semantics::UNORDERED_WEAK,
        );
        // Collect while pacing at ~500/s.
        let pace_until = Instant::now() + StdDuration::from_millis(2);
        loop {
            let left = pace_until.saturating_duration_since(Instant::now());
            match nodes[1].outputs.recv_timeout(left) {
                Ok(NodeOutput::Delivery(d)) => {
                    let sent = u64::from_le_bytes(d.payload.as_ref().try_into().unwrap());
                    let now = epoch.elapsed().as_micros() as u64;
                    lats.push((now - sent) as f64);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }
    // Drain stragglers.
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while lats.len() < count && Instant::now() < deadline {
        match nodes[1].outputs.recv_timeout(StdDuration::from_millis(100)) {
            Ok(NodeOutput::Delivery(d)) => {
                let sent = u64::from_le_bytes(d.payload.as_ref().try_into().unwrap());
                let now = epoch.elapsed().as_micros() as u64;
                lats.push((now - sent) as f64);
            }
            Ok(_) => {}
            Err(_) => {}
        }
    }
    let dispatch_p50 = nodes[1].metrics_snapshot().histograms["dispatch_latency_us"]
        .quantile(1, 2)
        .expect("median dispatch inside the histogram's finite buckets");
    for n in nodes {
        n.shutdown();
    }
    (mean(&lats), percentile(&mut lats, 99.0), dispatch_p50)
}

fn main() {
    // Warm-up.
    let _ = throughput(ExecutorKind::EventLoop, 1_000, 1);

    let mut sweep = Table::new("offered_upd/s event-loop_delivered/s threaded_delivered/s");
    let mut last_pair = (0.0f64, 0.0f64);
    for rate in [1_000usize, 5_000, 20_000, 60_000] {
        let ev = throughput(ExecutorKind::EventLoop, rate, 3);
        let th = throughput(ExecutorKind::Threaded, rate, 3);
        last_pair = (ev, th);
        sweep.row(&[rate.to_string(), format!("{ev:.0}"), format!("{th:.0}")]);
    }
    print!(
        "{}",
        sweep.render("T7a: sustained throughput vs offered load (N = 3, unordered/weak)")
    );

    let mut lat = Table::new("executor mean_latency_us p99_latency_us dispatch_p50_us");
    for (label, kind) in [
        ("event-loop (paper §5)", ExecutorKind::EventLoop),
        ("thread-per-event-type", ExecutorKind::Threaded),
    ] {
        let (m, p99, dispatch_p50) = latency(kind, 500);
        lat.row(&[
            label.into(),
            format!("{m:.0}"),
            format!("{p99:.0}"),
            dispatch_p50.to_string(),
        ]);
    }
    print!(
        "{}",
        lat.render("T7b: propose→deliver latency at low load (500 upd/s)")
    );

    println!(
        "\nshape check: at low load both executors keep up; past saturation the\n\
         thread-per-event-type design collapses ({:.0} vs {:.0} delivered/s at the\n\
         highest offered load) under lock hand-offs and context switches —\n\
         the overhead paper §5 cites for rejecting the thread-based design.",
        last_pair.0, last_pair.1
    );
}
