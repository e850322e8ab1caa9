//! Property tests for flight-recorder crash consistency: for *any*
//! event stream, buffer capacity, truncation point and single-byte
//! corruption, the loader returns every complete segment before the
//! damage and reports (never swallows) the damage itself. The
//! exhaustive fixed-layout variant lives in `recorder_crash.rs`.

use proptest::prelude::*;
use tw_obs::recorder::{FlightRecorder, RecorderConfig, HEADER_LEN};
use tw_obs::recording::{Recording, StreamHeader};
use tw_obs::trace::TraceSink;
use tw_obs::{ClockStamp, TraceEvent};
use tw_proto::{AckBits, Duration, HwTime, ProcessId, SyncTime, ViewId};

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u16..16).prop_map(ProcessId)
}

fn arb_stamp() -> impl Strategy<Value = ClockStamp> {
    (any::<i64>(), any::<i64>()).prop_map(|(hw, sync)| ClockStamp {
        hw: HwTime(hw),
        sync: SyncTime(sync),
    })
}

fn arb_view() -> impl Strategy<Value = ViewId> {
    (any::<u64>(), arb_pid()).prop_map(|(seq, creator)| ViewId::new(seq, creator))
}

/// A few representative variants — including `ViewInstalled`, which
/// forces a spill and therefore exercises irregular segment sizes.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (arb_pid(), arb_stamp(), any::<i64>(), arb_view()).prop_map(|(pid, at, ts, view)| {
            TraceEvent::DecisionSent {
                pid,
                at,
                send_ts: SyncTime(ts),
                view,
            }
        }),
        (arb_pid(), arb_stamp(), arb_pid(), arb_view()).prop_map(|(pid, at, suspect, view)| {
            TraceEvent::SuspicionRaised {
                pid,
                at,
                suspect,
                view,
            }
        }),
        (arb_pid(), arb_stamp(), arb_view(), any::<u64>()).prop_map(
            |(pid, at, view, members)| TraceEvent::ViewInstalled {
                pid,
                at,
                view,
                members: AckBits(members),
            }
        ),
    ]
}

/// Record `events` through a real recorder and return the file bytes.
fn recorded(events: &[TraceEvent], capacity: usize, name: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("tw-obs-proprec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let header = StreamHeader {
        pid: ProcessId(0),
        team: 4,
        epsilon: Duration::from_micros(7),
        recovery_envelope: Duration::from_millis(300),
    };
    let cfg = RecorderConfig::new(header).capacity(capacity);
    let rec = FlightRecorder::create(&path, cfg).unwrap();
    for ev in events {
        rec.record(ev);
    }
    drop(rec);
    std::fs::read(&path).unwrap()
}

/// The crash-consistency property both tests below assert: the loaded
/// events are a prefix of what was written, and damage implies a
/// report, never an error.
fn assert_prefix(original: &[TraceEvent], damaged: &[u8], label: &str) {
    let r = Recording::parse(damaged).unwrap_or_else(|e| panic!("{label}: load error {e}"));
    assert!(
        r.events.len() <= original.len(),
        "{label}: more events than written"
    );
    assert_eq!(
        r.events,
        original[..r.events.len()],
        "{label}: loaded events are not a prefix of the written stream"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_truncation_yields_a_prefix(
        events in proptest::collection::vec(arb_event(), 1..40),
        capacity in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = recorded(&events, capacity, "prop-trunc.twrec");
        let clean = Recording::parse(&bytes).unwrap();
        prop_assert_eq!(&clean.events, &events);
        prop_assert_eq!(clean.damage, None);

        let span = bytes.len() - HEADER_LEN;
        let cut = HEADER_LEN + ((span as f64) * cut_frac) as usize;
        assert_prefix(&events, &bytes[..cut.min(bytes.len())], "truncation");
    }

    #[test]
    fn any_single_byte_corruption_yields_a_prefix_and_is_reported(
        events in proptest::collection::vec(arb_event(), 1..40),
        capacity in 1usize..8,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let bytes = recorded(&events, capacity, "prop-flip.twrec");
        let span = bytes.len() - HEADER_LEN;
        let pos = HEADER_LEN + (((span - 1) as f64) * pos_frac) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= mask;

        let r = Recording::parse(&corrupt).unwrap();
        prop_assert!(r.damage.is_some(), "flip at {} went undetected", pos);
        assert_prefix(&events, &corrupt, "corruption");
    }
}
