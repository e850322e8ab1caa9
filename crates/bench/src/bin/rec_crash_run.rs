//! Produce a set of flight recordings for the `tw-trace` analyzer —
//! the input to CI's trace-analysis job.
//!
//! Runs the deterministic 5-node single-failure scenario (form, crash
//! p2, survivors reconfigure to 4, a few failure-free cycles after),
//! with a [`FlightRecorder`] attached to every member, and writes:
//!
//! * `node-{0..4}.twrec` — the per-node recordings;
//! * `meta.json` — the parameters the analyzer run is judged against
//!   (team size, ε, and the §4.2 analytic recovery envelope in µs).
//!
//! Usage: `rec_crash_run [out-dir]` (default `trace-out/`).

use std::sync::Arc;
use timewheel::harness::{formed_team, reformed, run_until_pred, TeamParams};
use tw_obs::{FlightRecorder, RecorderConfig};
use tw_proto::{Duration, ProcessId};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace-out".to_string());
    let out = std::path::PathBuf::from(out);
    std::fs::create_dir_all(&out).expect("create output dir");

    const N: usize = 5;
    let params = TeamParams::new(N).seed(7);
    let cfg = params.protocol_config();

    let (mut w, _) = formed_team(&params);
    let recorders: Vec<Arc<FlightRecorder>> = (0..N)
        .map(|i| {
            let pid = ProcessId(i as u16);
            let rc = RecorderConfig::new(pid, N, cfg.epsilon).capacity(64);
            let rec = Arc::new(
                FlightRecorder::create(out.join(format!("node-{i}.twrec")), rc)
                    .expect("create recording"),
            );
            w.actor_mut(pid).attach_sink(rec.clone());
            rec
        })
        .collect();

    let victim = ProcessId(2);
    let crash_at = w.now() + Duration::from_millis(5);
    w.crash_at(crash_at, victim);
    run_until_pred(&mut w, crash_at + Duration::from_secs(60), |w| {
        reformed(w, &[victim])
    })
    .expect("survivors never reformed");
    // A few failure-free cycles after the install, so the recordings
    // also show the wheel turning in the recovered view.
    w.run_for(cfg.cycle() * 4);
    for rec in &recorders {
        rec.flush();
        if let Some(e) = rec.take_error() {
            panic!("recorder {} failed: {e}", rec.config().pid);
        }
    }

    // The §4.2 envelope the analyzer judges the recovery span against,
    // the bound experiment T2 asserts.
    let envelope = cfg.recovery_envelope();

    let recordings: Vec<String> = (0..N).map(|i| format!("\"node-{i}.twrec\"")).collect();
    let meta = format!(
        r#"{{
  "scenario": "single_failure_crash",
  "team": {N},
  "seed": 7,
  "victim": {},
  "epsilon_us": {},
  "recovery_envelope_us": {},
  "recordings": [{}]
}}
"#,
        victim.0,
        cfg.epsilon.as_micros(),
        envelope.as_micros(),
        recordings.join(", ")
    );
    std::fs::write(out.join("meta.json"), meta).expect("write meta.json");

    for i in 0..N {
        let len = std::fs::metadata(out.join(format!("node-{i}.twrec")))
            .expect("recording exists")
            .len();
        println!("wrote {}/node-{i}.twrec ({len} bytes)", out.display());
    }
    println!(
        "wrote {}/meta.json (envelope {} us)",
        out.display(),
        envelope.as_micros()
    );
}
