//! Hot-path saturation probe — the T7-style throughput measurement that
//! backs the batching claims, plus the syscall ledger behind them.
//!
//! Two scenarios, both flooding unordered/weak updates (delivery at
//! receipt, so executor + wire cost dominates, not the decider
//! rotation):
//!
//! * **mem** — n = 3 event-loop cluster on the in-process mesh, load
//!   windowed at saturation: delivered updates/second at a
//!   non-proposing node.
//! * **udp** — n = 5 cluster on real UDP sockets with the framed
//!   codec: delivered/second plus the sender's [`WireStats`] — how many
//!   `sendmmsg`/`send_to` syscalls, datagrams and messages the flood
//!   actually cost. `syscall_reduction` = messages per syscall: what an
//!   unbatched one-sendto-per-message runtime would have paid, divided
//!   by what the batched runtime paid.
//!
//! Self-contained (no serde_json/rand/criterion) so the shadow harness
//! can build it offline. Emits the `BENCH_hotpath.json` baseline for
//! `cargo xtask bench-gate`; see DESIGN.md §12 for the refresh
//! procedure.
//!
//! Usage: `exp_hotpath [--quick] [--updates N] [--out FILE] [--machine TAG]`
//!
//! `--machine` overrides the default `os-arch` tag in the emitted JSON.
//! Baselines measured off CI hardware (e.g. the single-vCPU dev
//! container) must carry a tag no CI runner matches, so the gate skips
//! their non-portable timings instead of comparing across machines.

#![forbid(unsafe_code)]

use bytes::Bytes;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_proto::{Duration, Semantics};
use tw_runtime::{spawn_cluster, spawn_udp_cluster, ExecutorKind, Node, NodeOutput, WireStats};

fn formed(nodes: &[Node], n: usize) {
    for node in nodes {
        node.wait_for_view(n, StdDuration::from_secs(30))
            .expect("group formation");
    }
}

fn drain(node: &Node) {
    while node.outputs.try_recv().is_ok() {}
}

/// Flood `count` weak updates from `nodes[0]`, count deliveries at
/// `nodes[1]`; returns (delivered, elapsed seconds up to the last
/// delivery).
///
/// The flood is windowed (at most `WINDOW` proposals outstanding, well
/// under `INBOX_CAPACITY` and the UDP socket buffers): an open-loop
/// burst would overrun the bounded inboxes on a slow machine and
/// measure the shed path instead of delivery throughput. A stall (no
/// delivery for 250 ms) re-opens the window: under overload the
/// membership protocol may briefly exclude a member — fail-awareness
/// working as designed — and weak updates in flight when the view
/// changed are gone, so waiting for them would deadlock the flood.
fn flood(nodes: &[Node], count: usize) -> (usize, f64) {
    const WINDOW: usize = 1024;
    drain(&nodes[1]);
    let start = Instant::now();
    let deadline = start + StdDuration::from_secs(60);
    let mut proposed = 0usize;
    let mut delivered = 0usize;
    // Deliveries plus proposals presumed lost to a view change.
    let mut acked = 0usize;
    let mut last_delivery = start;
    loop {
        while proposed < count && proposed - acked < WINDOW {
            nodes[0].propose(Bytes::from_static(b"x"), Semantics::UNORDERED_WEAK);
            proposed += 1;
        }
        if delivered >= count || Instant::now() >= deadline {
            break;
        }
        match nodes[1].outputs.recv_timeout(StdDuration::from_millis(250)) {
            Ok(NodeOutput::Delivery(_)) => {
                delivered += 1;
                acked += 1;
                last_delivery = Instant::now();
            }
            Ok(_) => {}
            Err(_) => {
                if proposed == count {
                    // Everything sent and the pipe has drained dry.
                    break;
                }
                acked = proposed;
            }
        }
    }
    (delivered, (last_delivery - start).as_secs_f64().max(1e-9))
}

fn mem_throughput(count: usize) -> f64 {
    let n = 3;
    let nodes = spawn_cluster(
        ExecutorKind::EventLoop,
        Config::for_team(n, Duration::from_millis(10)),
    );
    formed(&nodes, n);
    let (delivered, secs) = flood(&nodes, count);
    for node in nodes {
        node.shutdown();
    }
    assert!(
        delivered * 2 >= count,
        "mem flood lost more than half its updates: {delivered}/{count}"
    );
    delivered as f64 / secs
}

fn udp_throughput(count: usize) -> (f64, WireStats) {
    let n = 5;
    let nodes = spawn_udp_cluster(
        ExecutorKind::EventLoop,
        Config::for_team(n, Duration::from_millis(10)),
    )
    .expect("udp cluster");
    formed(&nodes, n);
    let (delivered, secs) = flood(&nodes, count);
    let wire = nodes[0].wire_stats().expect("udp node has wire stats");
    for node in nodes {
        node.shutdown();
    }
    assert!(
        delivered * 2 >= count,
        "udp flood lost more than half its updates: {delivered}/{count}"
    );
    (delivered as f64 / secs, wire)
}

struct Metric {
    name: &'static str,
    value: f64,
    better: &'static str,
    portable: bool,
}

fn emit_json(seed: u64, iters: usize, machine: &str, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {:.4}, \"better\": \"{}\", \"portable\": {}}}",
                m.name, m.value, m.better, m.portable
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"schema\": 1,\n  \"machine\": \"{machine}\",\n  \
         \"seed\": {seed},\n  \"iters\": {iters},\n  \"metrics\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn main() {
    let mut updates = 60_000usize;
    let mut out: Option<String> = None;
    let mut machine =
        format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => updates = 10_000,
            "--updates" => {
                updates = args.next().expect("--updates N").parse().expect("number")
            }
            "--out" => out = Some(args.next().expect("--out FILE")),
            "--machine" => machine = args.next().expect("--machine TAG"),
            other => {
                eprintln!(
                    "unknown arg {other}; usage: exp_hotpath [--quick] [--updates N] \
                     [--out FILE] [--machine TAG]"
                );
                std::process::exit(2);
            }
        }
    }

    // Warm-up: group formation + first flood touch every code path once.
    let _ = mem_throughput(updates / 10);

    let mem_rate = mem_throughput(updates);
    let (udp_rate, wire) = udp_throughput(updates);

    let syscall_reduction = wire.msgs_sent as f64 / wire.send_syscalls.max(1) as f64;
    let msgs_per_datagram = wire.msgs_sent as f64 / wire.datagrams_sent.max(1) as f64;

    let metrics = [
        Metric { name: "mem_delivered_per_s", value: mem_rate, better: "higher", portable: false },
        Metric { name: "udp_delivered_per_s", value: udp_rate, better: "higher", portable: false },
        Metric { name: "udp_syscall_reduction", value: syscall_reduction, better: "higher", portable: false },
        Metric { name: "udp_msgs_per_datagram", value: msgs_per_datagram, better: "higher", portable: false },
    ];

    println!("== hot-path saturation probe ({updates} weak updates, backend: {}) ==", tw_runtime::mmsg::backend());
    println!("{:<24} {:>14}", "metric", "value");
    for m in &metrics {
        println!("{:<24} {:>14.1}", m.name, m.value);
    }
    println!(
        "\nudp sender wire ledger (n=5): {} syscalls, {} datagrams, {} messages \
         ({} decode errors at receivers would show in their own ledgers)\n\
         an unbatched runtime pays one syscall per message: {:.1}x fewer syscalls here.",
        wire.send_syscalls, wire.datagrams_sent, wire.msgs_sent, wire.decode_errors,
        syscall_reduction
    );

    let json = emit_json(0, updates, &machine, &metrics);
    match out {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(&path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create --out dir");
                }
            }
            std::fs::write(&path, &json).expect("write --out file");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
