//! Who reads a UDP node's socket. On linux-gnu an event-loop node reads
//! it from its own loop, parked in `ppoll`: the node is one thread, and
//! its shutdown reaches that thread through the doorbell's wake hook
//! instead of waiting for a receive thread's read timeout.
//!
//! A test binary of its own: the thread census reads every thread of
//! the process, so nothing here may start a node that has a receive
//! thread (the threaded baseline's UDP cluster is in `cluster.rs`).
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_proto::Duration;
use tw_runtime::{spawn_udp_cluster, ExecutorKind, Node};

fn cfg(n: usize) -> Config {
    Config::for_team(n, Duration::from_millis(10))
}

/// The names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn an_event_loop_udp_node_runs_one_thread() {
    let n = 3;
    let nodes = spawn_udp_cluster(ExecutorKind::EventLoop, cfg(n)).expect("bind sockets");
    for node in &nodes {
        node.wait_for_view(n, StdDuration::from_secs(20))
            .unwrap_or_else(|| panic!("{} never saw the full view", node.pid));
    }
    let names = thread_names();
    for node in &nodes {
        let main = format!("tw-node-{}", node.pid);
        assert!(names.contains(&main), "no {main} in {names:?}");
    }
    assert!(
        !names.iter().any(|name| name.starts_with("udp-rx-")),
        "a receive thread runs beside the event loop: {names:?}"
    );
    nodes.into_iter().for_each(Node::shutdown);
}

/// Five lone nodes, whose sockets nothing ever writes to: a receive
/// thread would notice each shutdown only at its next 200 ms read
/// timeout, 0.5 s for the five on average. The loop is woken at once.
#[test]
fn shutdown_does_not_wait_for_a_receive_timeout() {
    let nodes: Vec<Node> = (0..5)
        .flat_map(|_| spawn_udp_cluster(ExecutorKind::EventLoop, cfg(1)).expect("bind socket"))
        .collect();
    std::thread::sleep(StdDuration::from_millis(50));
    let t0 = Instant::now();
    nodes.into_iter().for_each(Node::shutdown);
    let took = t0.elapsed();
    assert!(
        took < StdDuration::from_millis(100),
        "five shutdowns took {took:?}"
    );
}
