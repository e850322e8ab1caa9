//! Backpressure, not collapse: a client that queues more proposals than
//! one decision can carry sees latency, and the group stays intact.
//!
//! The event loop takes proposals only while `Member::proposal_room` says
//! the next decision still fits the wire. Without that gate a burst this
//! size puts tens of thousands of descriptors into one decision: past
//! `MAX_OAL_WINDOW` every receiver refuses it (a decode error), past 64 KiB
//! the kernel refuses to send it (a send error), and the group falls
//! apart.
//!
//! Release only: debug builds check core's compact state against
//! reference scans that are O(window) per query.
//!
//! Run: `cargo test --release -p tw-runtime --test backpressure`

use bytes::Bytes;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_proto::frame::MAX_OAL_WINDOW;
use tw_proto::{Duration, Semantics};
use tw_runtime::{spawn_udp_cluster, ExecutorKind, Node, NodeOutput};

const N: usize = 3;
/// Proposals queued on node 0 at once: more than a decision may carry.
const BURST: usize = 60_000;
const _: () = assert!(BURST > MAX_OAL_WINDOW);

fn views_installed(node: &Node) -> u64 {
    node.metrics_snapshot().counter("views_installed")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: O(window) reference scans in debug"
)]
fn a_burst_past_the_wire_cap_is_delivered_without_a_view_change() {
    // δ = 50 ms, as the benchmark's live clusters: a shared two-core box
    // stalls for tens of milliseconds now and then.
    let cfg = Config::for_team(N, Duration::from_millis(50));
    let nodes = spawn_udp_cluster(ExecutorKind::EventLoop, cfg).expect("bind sockets");
    for node in &nodes {
        node.wait_for_view(N, StdDuration::from_secs(60))
            .unwrap_or_else(|| panic!("{} never saw the full view", node.pid));
    }
    let formed: Vec<u64> = nodes.iter().map(views_installed).collect();

    let t0 = Instant::now();
    for i in 0..BURST as u32 {
        let payload = Bytes::from(i.to_le_bytes().to_vec());
        nodes[0].propose(payload, Semantics::UNORDERED_WEAK);
    }
    let deadline = t0 + StdDuration::from_secs(120);
    for node in &nodes {
        let mut seen = vec![false; BURST];
        let mut delivered = 0;
        while delivered < BURST {
            let left = deadline.saturating_duration_since(Instant::now());
            match node.outputs.recv_timeout(left) {
                Ok(NodeOutput::Delivery(d)) => {
                    let i = u32::from_le_bytes(d.payload[..4].try_into().unwrap()) as usize;
                    assert!(!seen[i], "{} delivered update {i} twice", node.pid);
                    seen[i] = true;
                    delivered += 1;
                }
                Ok(NodeOutput::ProposeRejected(e)) => {
                    panic!("{} rejected a proposal: {e}", node.pid)
                }
                Ok(_) => {}
                Err(_) => panic!("{} delivered {delivered} of {BURST} in time", node.pid),
            }
        }
    }
    eprintln!("{BURST} updates delivered everywhere in {:?}", t0.elapsed());

    for (node, formed) in nodes.iter().zip(formed) {
        assert_eq!(
            views_installed(node),
            formed,
            "{} installed a view",
            node.pid
        );
        let wire = node.wire_stats().expect("udp nodes have wire stats");
        assert_eq!(
            (wire.decode_errors, wire.send_errors),
            (0, 0),
            "{}: decode and send errors",
            node.pid
        );
    }
    for node in nodes {
        node.shutdown();
    }
}
