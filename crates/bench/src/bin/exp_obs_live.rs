//! Live-telemetry overhead probe — a T1-style flood run twice: once on
//! a plain cluster and once with the full
//! telemetry plane active (ops endpoints bound, a Prometheus scraper
//! hitting `/metrics` on every node, and a `LiveTail` draining node 0's
//! `/trace` stream), so the emitted ratio is the *measured* cost of
//! observing a running cluster, not the cost of having the code linked.
//!
//! Scenario: n = 3 event-loop cluster on the in-process mesh, flooding unordered/weak updates unpaced and
//! counting delivered updates/second at a non-proposing node. Each arm
//! runs twice interleaved (off, on, off, on) and keeps its best rate,
//! which is robust against one arm eating a scheduler hiccup.
//!
//! Metrics: `obs_off_delivered_per_s`, `obs_on_delivered_per_s`, and
//! `obs_on_off_ratio` (on ÷ off, 1.0 = free). The plane's design budget
//! is ≤ 5 % overhead.
//!
//! A probe, not a gate: nothing compares its output. `benchmark/` cannot
//! show the plane's cost yet (its live workloads are latency-bound, see
//! `benchmark/README.md`), so this stays the one place the scrape-and-
//! tail plane is exercised under load; CI's `observability` job runs it
//! and uploads the JSON, `tools/shadow/check.sh` smoke-runs it.
//!
//! Usage: `exp_obs_live [--quick] [--updates N] [--out FILE]`

#![forbid(unsafe_code)]

use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_obs::{http_get, LiveTail};
use tw_proto::{Duration, Semantics};
use tw_runtime::{spawn_cluster, ClusterBuilder, ExecutorKind, Node, NodeOutput, OpsSetup};

fn cfg(n: usize) -> Config {
    Config::for_team(n, Duration::from_millis(10))
}

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
/// `nodes[1]`; returns delivered updates/second.
///
/// The flood is windowed (at most `WINDOW` proposals outstanding, well
/// under `INBOX_CAPACITY`): an open-loop burst would overrun the
/// bounded inboxes on a slow machine and measure the shed path instead
/// of delivery throughput. A stall (no delivery for 250 ms) re-opens
/// the window: under overload the membership protocol may briefly
/// exclude a member — fail-awareness working as designed — and weak
/// updates in flight when the view changed are gone, so waiting for
/// them would deadlock the flood. The rate counts only what was
/// delivered, over the span up to the last delivery.
fn flood(nodes: &[Node], count: usize) -> f64 {
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
    let secs = (last_delivery - start).as_secs_f64().max(1e-9);
    assert!(
        delivered * 2 >= count,
        "flood lost more than half its updates: {delivered}/{count}"
    );
    delivered as f64 / secs
}

/// Telemetry off: a plain cluster, nothing bound, nothing tailing.
fn off_throughput(count: usize) -> f64 {
    let n = 3;
    let nodes = spawn_cluster(ExecutorKind::EventLoop, cfg(n));
    formed(&nodes, n);
    let rate = flood(&nodes, count);
    for node in nodes {
        node.shutdown();
    }
    rate
}

/// Telemetry on: ops endpoints bound on every node, a scraper thread
/// pulling `/metrics` from all of them at a 100 ms cadence (a fast
/// Prometheus interval), and a `LiveTail` continuously draining node
/// 0's `/trace` stream while the flood runs.
fn on_throughput(count: usize) -> (f64, u64, usize) {
    let n = 3;
    let nodes = ClusterBuilder::new(cfg(n))
        .ops(&OpsSetup::ephemeral())
        .spawn()
        .expect("bind ops endpoints");
    formed(&nodes, n);
    let addrs: Vec<_> = (0..n)
        .map(|r| nodes[r].ops_addr().expect("ops endpoint attached"))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = stop.clone();
        let addrs = addrs.clone();
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for a in &addrs {
                    if http_get(*a, "/metrics", StdDuration::from_secs(1))
                        .is_ok_and(|(code, _)| code == 200)
                    {
                        scrapes += 1;
                    }
                }
                std::thread::sleep(StdDuration::from_millis(100));
            }
            scrapes
        })
    };
    let mut tail = LiveTail::connect(addrs[0], StdDuration::from_secs(5)).expect("connect /trace");
    let tailer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut events = 0usize;
            while !stop.load(Ordering::Relaxed) {
                match tail.poll(StdDuration::from_millis(50)) {
                    Ok(es) => events += es.len(),
                    Err(_) => break,
                }
            }
            events
        })
    };

    let rate = flood(&nodes, count);

    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    let events = tailer.join().expect("tailer thread");
    for node in nodes {
        node.shutdown();
    }
    assert!(scrapes > 0, "scraper never completed a scrape mid-flood");
    (rate, scrapes, events)
}

struct Metric {
    name: &'static str,
    value: f64,
    better: &'static str,
}

fn emit_json(iters: usize, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {:.4}, \"better\": \"{}\"}}",
                m.name, m.value, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"obs_live\",\n  \"iters\": {iters},\n  \"metrics\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn main() {
    let mut updates = 40_000usize;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => updates = 8_000,
            "--updates" => updates = args.next().expect("--updates N").parse().expect("number"),
            "--out" => out = Some(args.next().expect("--out FILE")),
            other => {
                eprintln!(
                    "unknown arg {other}; usage: exp_obs_live [--quick] [--updates N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    // Warm-up: group formation + one flood touch every code path once.
    let _ = off_throughput(updates / 10);

    // Interleave the arms so drift hits both equally; keep each arm's
    // best run.
    let mut off = 0f64;
    let mut on = 0f64;
    let mut scrapes = 0u64;
    let mut events = 0usize;
    for _ in 0..2 {
        off = off.max(off_throughput(updates));
        let (rate, s, e) = on_throughput(updates);
        on = on.max(rate);
        scrapes += s;
        events += e;
    }

    let ratio = on / off;
    let overhead_pct = (1.0 - ratio) * 100.0;

    let metrics = [
        Metric {
            name: "obs_off_delivered_per_s",
            value: off,
            better: "higher",
        },
        Metric {
            name: "obs_on_delivered_per_s",
            value: on,
            better: "higher",
        },
        Metric {
            name: "obs_on_off_ratio",
            value: ratio,
            better: "higher",
        },
    ];

    println!("== live-telemetry overhead probe ({updates} weak updates per arm) ==");
    println!("{:<26} {:>14}", "metric", "value");
    for m in &metrics {
        println!("{:<26} {:>14.1}", m.name, m.value);
    }
    println!(
        "\ntelemetry tax: {overhead_pct:.1}% (design budget: <= 5%)\n\
         observation pressure during the 'on' arms: {scrapes} /metrics scrapes, \
         {events} events drained off /trace."
    );

    let json = emit_json(updates, &metrics);
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
