//! Flight-recorder overhead, against the `exp_obs_baseline` numbers.
//!
//! The recorder sits on the same hot path as any other [`TraceSink`]:
//! every traced transition encodes one wire frame into an in-memory
//! buffer, and a segment spill (CRC + buffered write) runs once per
//! `capacity` events plus once per view install. This binary measures:
//!
//! * per-operation costs — `record()` into a large buffer, `record()`
//!   with spills amortized in, and a forced `flush()`;
//! * end-to-end — the T1 failure-free workload (5 members, 200 cycles)
//!   with a recorder attached to every member, vs. none (each simulated
//!   member keeps its own trace for the auditor in both), 10 pairs of
//!   runs, alternating which side runs first; the claim in EXPERIMENTS.md
//!   is < 5% overhead, with the T1 shape (zero membership messages)
//!   preserved.
//!
//! Wall time resolves the 5% claim only when the unrecorded runs spread
//! less than that: if their interquartile range exceeds 5% of their
//! median, the verdict is `unresolved`, whatever the medians say.
//!
//! Writes `BENCH_obs_recorder.json` next to `BENCH_obs_baseline.json`.

use std::sync::Arc;
use std::time::Instant;
use timewheel::harness::{formed_team, TeamParams};
use tw_bench::{median, percentile, Table};
use tw_obs::{ClockStamp, FlightRecorder, RecorderConfig, TraceEvent, TraceSink};
use tw_proto::{HwTime, ProcessId, SyncTime, ViewId};

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

/// Nanoseconds per call of `f`, averaged over `iters` calls.
fn per_op_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn tmp_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tw-bench-rec-{}", std::process::id()))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = tmp_dir();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Wall-clock ms of one T1 workload (5 members, `cycles` failure-free
/// cycles), with or without recorders attached. Asserts the T1 shape —
/// zero membership messages.
fn sim_run_ms(run: usize, cycles: i64, recorded: bool) -> f64 {
    let params = TeamParams::new(5);
    let cfg = params.protocol_config();
    let (mut w, _) = formed_team(&params);
    let mut recorders = Vec::new();
    if recorded {
        for i in 0..5u16 {
            let pid = ProcessId(i);
            let rc = RecorderConfig::new(cfg.stream_header(pid));
            let rec = Arc::new(
                FlightRecorder::create(tmp(&format!("e2e-{run}-{i}.twrec")), rc)
                    .expect("create recording"),
            );
            w.actor_mut(pid).attach_sink(rec.clone());
            recorders.push(rec);
        }
    }
    w.reset_stats();
    let wall = Instant::now();
    w.run_for(cfg.cycle() * cycles);
    for rec in &recorders {
        rec.flush();
    }
    let elapsed_ms = wall.elapsed().as_secs_f64() * 1000.0;
    let membership = w.stats().sends_of(&["no-decision", "join", "reconfig"]);
    assert_eq!(
        membership, 0,
        "failure-free run grew membership traffic (recorded={recorded})"
    );
    for rec in &recorders {
        assert!(rec.spilled_events() > 0, "recorder never spilled");
        assert!(rec.take_error().is_none(), "recorder hit an I/O error");
    }
    elapsed_ms
}

/// First quartile, median and third quartile.
fn quartiles(samples: &mut [f64]) -> [f64; 3] {
    [
        percentile(samples, 25.0),
        median(samples),
        percentile(samples, 75.0),
    ]
}

fn main() {
    const ITERS: u64 = 500_000;
    let header = TeamParams::new(5)
        .protocol_config()
        .stream_header(ProcessId(1));

    // record() into a buffer that never spills during the measurement.
    let rec = FlightRecorder::create(
        tmp("perop-nospill.twrec"),
        RecorderConfig::new(header).capacity(ITERS as usize + 1),
    )
    .expect("create recording");
    let record_buffered_ns = per_op_ns(ITERS, || rec.record(&sample_event()));

    // record() with segment spills amortized in (capacity 1024).
    let rec = FlightRecorder::create(tmp("perop-spill.twrec"), RecorderConfig::new(header))
        .expect("create recording");
    let record_spilling_ns = per_op_ns(ITERS, || rec.record(&sample_event()));

    // One-event flush (spill + write of a minimal segment).
    let rec = FlightRecorder::create(tmp("perop-flush.twrec"), RecorderConfig::new(header))
        .expect("create recording");
    let flush_ns = per_op_ns(ITERS / 10, || {
        rec.record(&sample_event());
        rec.flush();
    });

    const RUNS: usize = 10;
    const CYCLES: i64 = 200;
    const CLAIM_PCT: f64 = 5.0;
    let (mut baseline, mut recorded) = (Vec::new(), Vec::new());
    for run in 0..RUNS {
        // Pairs alternate which side runs first.
        if run % 2 == 0 {
            baseline.push(sim_run_ms(run, CYCLES, false));
            recorded.push(sim_run_ms(run, CYCLES, true));
        } else {
            recorded.push(sim_run_ms(run, CYCLES, true));
            baseline.push(sim_run_ms(run, CYCLES, false));
        }
    }
    let [base_q1, base_med, base_q3] = quartiles(&mut baseline);
    let [rec_q1, rec_med, rec_q3] = quartiles(&mut recorded);
    let spread_pct = (base_q3 - base_q1) / base_med * 100.0;
    let overhead_pct = (rec_med - base_med) / base_med * 100.0;
    let verdict = if spread_pct > CLAIM_PCT {
        "unresolved"
    } else if overhead_pct < CLAIM_PCT {
        "holds"
    } else {
        "fails"
    };

    let mut table = Table::new("metric value");
    let rows: &[(&str, String)] = &[
        ("record_buffered_ns", format!("{record_buffered_ns:.1}")),
        ("record_spilling_ns", format!("{record_spilling_ns:.1}")),
        ("record_plus_flush_ns", format!("{flush_ns:.1}")),
        (
            "sim_baseline_ms_q1/med/q3",
            format!("{base_q1:.1}/{base_med:.1}/{base_q3:.1}"),
        ),
        (
            "sim_recorded_ms_q1/med/q3",
            format!("{rec_q1:.1}/{rec_med:.1}/{rec_q3:.1}"),
        ),
        ("baseline_spread_pct", format!("{spread_pct:.2}")),
        ("overhead_pct", format!("{overhead_pct:.2}")),
    ];
    for (k, val) in rows {
        table.row(&[k.to_string(), val.clone()]);
    }
    print!(
        "{}",
        table.render("OBS-REC: flight recorder overhead (vs no recorder)")
    );
    println!("\nclaim check: end-to-end overhead < {CLAIM_PCT}% with the T1 shape preserved");
    println!("(zero membership messages asserted in every run, recorded or not);");
    println!("{RUNS} alternating pairs of runs, medians compared; the claim is unresolved");
    println!("when the unrecorded runs' interquartile range exceeds {CLAIM_PCT}% of their median.");
    println!("verdict: {verdict}");

    let json = format!(
        r#"{{
  "experiment": "obs_recorder",
  "iters": {ITERS},
  "record_buffered_ns": {record_buffered_ns},
  "record_spilling_ns": {record_spilling_ns},
  "record_plus_flush_ns": {flush_ns},
  "sim": {{
    "team": 5,
    "cycles": {CYCLES},
    "runs": {RUNS},
    "baseline_ms": {{ "q1": {base_q1}, "median": {base_med}, "q3": {base_q3} }},
    "recorded_ms": {{ "q1": {rec_q1}, "median": {rec_med}, "q3": {rec_q3} }},
    "baseline_spread_pct": {spread_pct},
    "overhead_pct": {overhead_pct},
    "claim_pct": {CLAIM_PCT},
    "verdict": "{verdict}"
  }},
  "baseline_file": "BENCH_obs_baseline.json"
}}
"#
    );
    let path = "BENCH_obs_recorder.json";
    std::fs::write(path, json).expect("write results");
    println!("\nwrote {path}");
    // The recordings only loaded the recorder; nothing reads them back.
    std::fs::remove_dir_all(tmp_dir()).expect("remove the run's recordings");
}
