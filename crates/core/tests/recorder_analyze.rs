//! End-to-end flight-recorder acceptance: run the real protocol in the
//! simulator with a crash-safe [`FlightRecorder`] attached to every
//! member, crash one member, then reconstruct the recovery **offline**
//! from the five per-node recording files alone — exactly what the
//! `tw-trace` CLI does post mortem. The reconstructed recovery span must
//! show per-hop latency attribution and fit the §4.2 envelope the
//! recordings carry, and the offline audit (live invariants plus the
//! cross-node checks) must be clean.
//!
//! The recordings stay behind, in `recorder_analyze/<test>/` under the
//! target directory's `tmp/`, for `tw-trace` to be run over them:
//!
//! ```text
//! cargo test -p timewheel --test recorder_analyze
//! cargo run -p tw-obs --bin tw-trace -- target/tmp/recorder_analyze/crash/node-*.twrec
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use tw_obs::{
    analyze, render_timeline, FlightRecorder, RecorderConfig, Recording, TimelineOptions,
    TraceEvent, TraceSet,
};
use tw_proto::{Duration, ProcessId};
use tw_sim::SimTime;

/// `recorder_analyze/<name>` under the target's scratch directory,
/// emptied of an earlier run's recordings.
fn recording_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("recorder_analyze")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir); // absent on a first run
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Attach a fresh recorder to every member; returns the recorders so the
/// test can flush and then load them back.
fn attach_recorders(
    w: &mut tw_sim::World<timewheel::harness::SimMember>,
    cfg: &timewheel::Config,
    dir: &std::path::Path,
) -> Vec<Arc<FlightRecorder>> {
    (0..cfg.n)
        .map(|i| {
            let pid = ProcessId(i as u16);
            let rc = RecorderConfig::new(cfg.stream_header(pid)).capacity(64);
            let rec = Arc::new(
                FlightRecorder::create(dir.join(format!("node-{i}.twrec")), rc)
                    .expect("create recording"),
            );
            w.actor_mut(pid).attach_sink(rec.clone());
            rec
        })
        .collect()
}

/// The full post-mortem pipeline: form a 5-member group, crash p2,
/// let the survivors reconfigure, then throw the live world away and
/// analyze nothing but the recording files.
#[test]
fn crash_recovery_reconstructs_from_recordings_alone() {
    const N: usize = 5;
    let params = TeamParams::new(N).seed(7);
    let cfg = params.protocol_config();
    let dir = recording_dir("crash");

    let mut w = team_world(&params);
    let recorders = attach_recorders(&mut w, &cfg, &dir);

    run_until_pred(&mut w, SimTime::from_millis(5_000), |w| all_in_group(w, N))
        .expect("group forms");

    let crash_at = w.now() + Duration::from_millis(5);
    w.crash_at(crash_at, ProcessId(2));
    run_until_pred(&mut w, SimTime::from_millis(10_000), |w| {
        all_in_group(w, N - 1)
    })
    .expect("survivors reconfigure to a 4-member view");

    // Let some failure-free rotation follow the install so the
    // recordings also contain post-recovery decisions.
    w.run_for(cfg.cycle() * 4);
    for rec in &recorders {
        rec.flush();
    }
    drop(w);

    // ---- Offline: only the files from here on. ----
    let recordings: Vec<Recording> = (0..N)
        .map(|i| {
            let r = Recording::load(dir.join(format!("node-{i}.twrec"))).expect("load recording");
            assert_eq!(r.header, cfg.stream_header(ProcessId(i as u16)));
            assert_eq!(r.damage, None, "clean shutdown left damage on node {i}");
            r
        })
        .collect();
    assert!(
        recordings.iter().all(|r| !r.events.is_empty()),
        "every member recorded something"
    );

    let set = TraceSet::new(recordings).expect("5 distinct recordings");
    assert_eq!(set.epsilon, cfg.epsilon, "ε comes from the file headers");
    assert_eq!(
        set.recovery_envelope,
        cfg.recovery_envelope(),
        "so does the envelope"
    );
    let a = analyze(&set);

    // The recovery span: p2 suspected, no-decision hops attributed
    // per-survivor, and all four survivors installing the 4-member view.
    let rec_span = a
        .recoveries
        .iter()
        .find(|r| r.suspect == ProcessId(2))
        .expect("recovery span for the crashed member");
    assert!(
        !rec_span.hops.is_empty(),
        "no per-hop attribution in the recovery span"
    );
    assert!(
        rec_span.hops.iter().all(|h| h.cost >= Duration::ZERO),
        "hop costs must be non-negative on the synchronized clock"
    );
    assert_eq!(
        rec_span.installs.len(),
        N - 1,
        "all survivors install the recovered view"
    );
    assert!(rec_span.total().is_some(), "the recovery completed");

    // §4.2: suspicion → final install within the recorded envelope.
    assert!(
        a.over_envelope().is_empty(),
        "recovery over the {} envelope: {:?}",
        a.recovery_envelope,
        a.over_envelope()
    );

    // Per-phase latency attribution made it into the histograms.
    for key in [
        "span.recovery.total_us",
        "span.recovery.last_hop_to_install_us",
    ] {
        let h = a
            .latencies
            .histograms
            .get(key)
            .unwrap_or_else(|| panic!("missing latency histogram {key}"));
        assert!(h.count > 0, "{key} recorded no samples");
    }

    // Offline audit: live invariants and cross-node checks all clean.
    assert!(
        a.audits_clean(),
        "offline audit found violations: {:?} / {:?}",
        a.audit,
        a.cross
    );

    // The timeline renders every lane and mentions the recovery.
    let timeline = render_timeline(
        &a.merged,
        a.team,
        TimelineOptions {
            deliveries: false,
            max_rows: 10_000,
        },
    );
    for i in 0..N {
        assert!(timeline.contains(&format!("p{i}")), "lane p{i} missing");
    }
    assert!(
        timeline.contains("suspicion suspect=p2"),
        "timeline does not show the suspicion"
    );
}

/// Torn-tail recovery at the protocol level: truncate one node's file
/// mid-segment (a crash while spilling) and the analysis still runs on
/// the surviving prefix, reporting the damage.
#[test]
fn torn_recording_still_analyzes() {
    const N: usize = 5;
    let params = TeamParams::new(N).seed(11);
    let cfg = params.protocol_config();
    let dir = recording_dir("torn");

    let mut w = team_world(&params);
    let recorders = attach_recorders(&mut w, &cfg, &dir);
    run_until_pred(&mut w, SimTime::from_millis(5_000), |w| all_in_group(w, N))
        .expect("group forms");
    w.run_for(cfg.cycle() * 8);
    for rec in &recorders {
        rec.flush();
    }
    drop(w);

    // Tear node 3's file: drop the last 5 bytes (mid-segment with
    // overwhelming likelihood; if the cut lands on a boundary the
    // recording is simply clean and shorter, which the assert allows).
    let torn_path = dir.join("node-3.twrec");
    let bytes = std::fs::read(&torn_path).unwrap();
    std::fs::write(&torn_path, &bytes[..bytes.len() - 5]).unwrap();

    let recordings: Vec<Recording> = (0..N)
        .map(|i| Recording::load(dir.join(format!("node-{i}.twrec"))).expect("load"))
        .collect();
    let torn = &recordings[3];
    assert!(
        torn.damage.is_some(),
        "5-byte tear should land mid-segment for this trace"
    );

    let set = TraceSet::new(recordings).expect("recordings still merge");
    let a = analyze(&set);
    assert!(
        a.merged
            .iter()
            .any(|e| matches!(e, TraceEvent::ViewInstalled { .. })),
        "merged stream lost the formation installs"
    );
    // A torn tail loses events, never invents them: the offline audit
    // of a failure-free run must still be clean.
    assert!(
        a.audits_clean(),
        "torn tail broke the offline audit: {:?} / {:?}",
        a.audit,
        a.cross
    );
}
