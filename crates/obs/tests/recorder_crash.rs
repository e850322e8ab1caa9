//! Crash-consistency of the flight-recorder file format, checked
//! exhaustively (satellite of the flight-recorder PR; the proptest
//! variant lives in `proptests/tests/prop_recorder.rs`).
//!
//! The recorder's contract after a torn write or bit rot is:
//!
//! * **every** complete segment before the damage loads, event for
//!   event;
//! * the damage is reported in [`Recording::damage`], never as a load
//!   error (only an unreadable file or broken header is fatal);
//! * nothing past the damage is trusted (no resynchronization).
//!
//! These tests enumerate *every* prefix truncation of a multi-segment
//! recording and *every* single-byte corruption position after the
//! header, instead of sampling: the file is a few hundred bytes, so the
//! exhaustive check is cheap and leaves no cut point to luck.

use tw_obs::recorder::{FlightRecorder, RecorderConfig, HEADER_LEN, SEGMENT_OVERHEAD};
use tw_obs::recording::{Damage, LoadError, Recording, StreamHeader};
use tw_obs::trace::TraceSink;
use tw_obs::{ClockStamp, TraceEvent};
use tw_proto::{Duration, HwTime, ProcessId, SyncTime, ViewId};

/// A sample event. Not `ViewInstalled`: the recorder force-spills on
/// view installs, and these tests need the capacity-driven segment
/// layout to be exact.
fn ev(i: i64) -> TraceEvent {
    TraceEvent::DecisionSent {
        pid: ProcessId(1),
        at: ClockStamp {
            hw: HwTime(i),
            sync: SyncTime(i + 1),
        },
        send_ts: SyncTime(i + 1),
        view: ViewId::new(i as u64, ProcessId(0)),
    }
}

/// Record `n` events with the given buffer capacity and return the file
/// bytes plus the byte offset where each segment starts.
fn recorded(n: i64, capacity: usize, name: &str) -> (Vec<u8>, Vec<usize>) {
    let dir = std::env::temp_dir().join(format!("tw-obs-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let header = StreamHeader {
        pid: ProcessId(1),
        team: 3,
        epsilon: Duration::from_micros(5),
        recovery_envelope: Duration::from_millis(270),
    };
    let cfg = RecorderConfig::new(header).capacity(capacity);
    let rec = FlightRecorder::create(&path, cfg).unwrap();
    for i in 0..n {
        rec.record(&ev(i));
    }
    drop(rec); // flush the tail
    let bytes = std::fs::read(&path).unwrap();

    // Walk the (clean) segment structure to find each segment's start.
    let mut starts = Vec::new();
    let mut off = HEADER_LEN;
    while off < bytes.len() {
        starts.push(off);
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += SEGMENT_OVERHEAD + len;
    }
    assert_eq!(
        off,
        bytes.len(),
        "clean file must end on a segment boundary"
    );
    (bytes, starts)
}

/// The index of the segment a damaged byte offset falls into.
fn segment_of(starts: &[usize], file_len: usize, offset: usize) -> usize {
    assert!(offset >= HEADER_LEN && offset < file_len);
    starts.iter().rposition(|&s| s <= offset).unwrap()
}

#[test]
fn every_prefix_truncation_keeps_all_complete_segments() {
    const EVENTS: i64 = 9;
    const CAPACITY: usize = 3; // → three 3-event segments
    let (bytes, starts) = recorded(EVENTS, CAPACITY, "trunc.twrec");
    assert_eq!(starts.len(), 3);

    for cut in HEADER_LEN..=bytes.len() {
        let r = Recording::parse(&bytes[..cut]).unwrap_or_else(|e| {
            panic!("cut at {cut} must not be a load error: {e}");
        });
        // Complete segments strictly before the cut survive in full.
        let complete = starts
            .iter()
            .enumerate()
            .take_while(|&(i, _)| {
                let end = starts.get(i + 1).copied().unwrap_or(bytes.len());
                end <= cut
            })
            .count();
        assert_eq!(r.intact_segments as usize, complete, "cut at {cut}");
        let kept = (complete as i64) * (CAPACITY as i64);
        assert_eq!(
            r.events,
            (0..kept).map(ev).collect::<Vec<_>>(),
            "cut at {cut}"
        );
        // A cut inside a segment is reported as a torn tail; a cut on a
        // boundary is indistinguishable from a shorter clean file.
        let on_boundary = cut == bytes.len() || starts.contains(&cut);
        if on_boundary {
            assert_eq!(r.damage, None, "cut at {cut}");
        } else {
            assert_eq!(
                r.damage,
                Some(Damage::TruncatedSegment {
                    index: complete as u64
                }),
                "cut at {cut}"
            );
        }
    }
}

#[test]
fn every_single_byte_corruption_keeps_all_segments_before_it() {
    const EVENTS: i64 = 9;
    const CAPACITY: usize = 3;
    let (bytes, starts) = recorded(EVENTS, CAPACITY, "flip.twrec");

    for pos in HEADER_LEN..bytes.len() {
        for mask in [0x01u8, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let r = Recording::parse(&corrupt).unwrap_or_else(|e| {
                panic!("flip {mask:#04x} at {pos} must not be a load error: {e}");
            });
            let seg = segment_of(&starts, bytes.len(), pos);
            assert!(
                r.damage.is_some(),
                "flip {mask:#04x} at {pos} (segment {seg}) went undetected"
            );
            assert_eq!(
                r.intact_segments as usize, seg,
                "flip {mask:#04x} at {pos}: segments before segment {seg} must load"
            );
            let kept = (seg as i64) * (CAPACITY as i64);
            assert_eq!(
                r.events,
                (0..kept).map(ev).collect::<Vec<_>>(),
                "flip {mask:#04x} at {pos}"
            );
        }
    }
}

#[test]
fn header_corruption_in_the_magic_is_fatal_metadata_is_not() {
    let (bytes, _) = recorded(3, 3, "header.twrec");
    // Any flip inside the magic makes the file unrecognizable.
    for pos in 0..8 {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xff;
        assert!(
            matches!(Recording::parse(&corrupt), Err(LoadError::BadHeader(_))),
            "magic flip at {pos}"
        );
    }
    // Flips in pid/team/ε/envelope change metadata, not loadability.
    for pos in 8..HEADER_LEN {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xff;
        let r = Recording::parse(&corrupt).unwrap();
        assert_eq!(r.events.len(), 3, "metadata flip at {pos}");
        assert_eq!(r.damage, None, "metadata flip at {pos}");
    }
}

#[test]
fn appended_garbage_after_a_clean_file_is_reported_not_trusted() {
    let (bytes, starts) = recorded(6, 3, "append.twrec");
    let mut grown = bytes.clone();
    grown.extend_from_slice(&[0xAA; 5]); // shorter than a segment header
    let r = Recording::parse(&grown).unwrap();
    assert_eq!(r.intact_segments as usize, starts.len());
    assert_eq!(r.events.len(), 6);
    assert!(matches!(r.damage, Some(Damage::TruncatedSegment { .. })));
}
