//! Observability overhead baseline.
//!
//! The structured observability layer (tw-obs) sits on the protocol's hot
//! paths: every send bumps a registry counter, every dispatch records a
//! histogram sample, and every decision point runs one `Tracer::emit`
//! branch (constructing nothing when no sink is attached). This binary
//! measures those per-operation costs plus an end-to-end simulator run,
//! and writes `BENCH_obs_baseline.json` so CI can track regressions.

use std::time::Instant;
use timewheel::harness::{formed_team, TeamParams};
use tw_bench::Table;
use tw_obs::{ClockStamp, Registry, TraceEvent, Tracer, VecSink, LATENCY_BOUNDS_US};
use tw_proto::{HwTime, ProcessId, SyncTime, ViewId};

/// Nanoseconds per call of `f`, averaged over `iters` calls.
fn per_op_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn sample_event() -> TraceEvent {
    TraceEvent::DecisionSent {
        pid: ProcessId(1),
        at: ClockStamp {
            hw: HwTime::from_micros(42),
            sync: SyncTime::from_micros(40),
        },
        send_ts: SyncTime::from_micros(40),
        view: ViewId::new(7, ProcessId(0)),
    }
}

fn main() {
    const ITERS: u64 = 5_000_000;

    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.histogram", LATENCY_BOUNDS_US);

    let counter_inc_ns = per_op_ns(ITERS, || counter.inc());
    let mut v = 0u64;
    let histogram_record_ns = per_op_ns(ITERS, || {
        v = (v + 37) % 2_000_000;
        histogram.record(v);
    });

    let disabled = Tracer::disabled();
    let tracer_disabled_emit_ns = per_op_ns(ITERS, || disabled.emit(sample_event));

    let sink = std::sync::Arc::new(VecSink::new());
    let attached = Tracer::new(sink.clone());
    // Fewer iterations: this one actually stores events.
    let tracer_vecsink_emit_ns = per_op_ns(ITERS / 10, || attached.emit(sample_event));

    // Snapshot cost on a realistically sized registry.
    let big = Registry::new();
    for i in 0..48 {
        big.counter(&format!("c{i}")).add(i);
    }
    for i in 0..4 {
        big.histogram(&format!("h{i}"), LATENCY_BOUNDS_US).record(i);
    }
    let snapshot_us = per_op_ns(10_000, || {
        std::hint::black_box(big.snapshot());
    }) / 1000.0;

    // End-to-end: the registry-backed Stats ledger under the T1 workload.
    let params = TeamParams::new(5);
    let cfg = params.protocol_config();
    let (mut w, _) = formed_team(&params);
    w.reset_stats();
    let cycles = 200i64;
    let wall = Instant::now();
    w.run_for(cfg.cycle() * cycles);
    let sim_run_ms = wall.elapsed().as_secs_f64() * 1000.0;
    let total_sends = w.stats().total_sends();
    let membership = w.stats().sends_of(&["no-decision", "join", "reconfig"]);
    assert_eq!(membership, 0, "failure-free run grew membership traffic");

    let mut table = Table::new("metric value");
    let rows: &[(&str, String)] = &[
        ("counter_inc_ns", format!("{counter_inc_ns:.1}")),
        ("histogram_record_ns", format!("{histogram_record_ns:.1}")),
        (
            "tracer_disabled_emit_ns",
            format!("{tracer_disabled_emit_ns:.1}"),
        ),
        (
            "tracer_vecsink_emit_ns",
            format!("{tracer_vecsink_emit_ns:.1}"),
        ),
        ("registry_snapshot_us", format!("{snapshot_us:.2}")),
        ("sim_5x200cycles_ms", format!("{sim_run_ms:.1}")),
        ("sim_total_sends", total_sends.to_string()),
    ];
    for (k, val) in rows {
        table.row(&[k.to_string(), val.clone()]);
    }
    print!(
        "{}",
        table.render("OBS: observability layer overhead baseline")
    );

    let json = format!(
        r#"{{
  "experiment": "obs_baseline",
  "iters": {ITERS},
  "counter_inc_ns": {counter_inc_ns},
  "histogram_record_ns": {histogram_record_ns},
  "tracer_disabled_emit_ns": {tracer_disabled_emit_ns},
  "tracer_vecsink_emit_ns": {tracer_vecsink_emit_ns},
  "registry_snapshot_us": {snapshot_us},
  "sim": {{
    "team": 5,
    "cycles": {cycles},
    "run_ms": {sim_run_ms},
    "total_sends": {total_sends},
    "membership_msgs": {membership}
  }}
}}
"#
    );
    let path = "BENCH_obs_baseline.json";
    std::fs::write(path, json).expect("write baseline");
    println!("\nwrote {path}");
}
