//! Reading flight-recorder files back into event streams, tolerating
//! torn tails.
//!
//! A recording written by [`crate::recorder::FlightRecorder`] may be
//! damaged in exactly the ways a crash (or a corrupted copy) produces:
//! a truncated final segment, or bytes flipped anywhere after the
//! header. The loader's contract — the crash-consistency contract the
//! property tests pin down — is:
//!
//! * every segment **before** the damage loads completely;
//! * damage is *reported* ([`Damage`]), never fatal: the only hard
//!   errors are an unreadable file or a broken header (without the
//!   header there is no recording to speak of).
//!
//! Detection is structural (a segment length that overruns the file, or
//! one over [`MAX_SEGMENT_LEN`] that no writer produces) or checksummed
//! (CRC-32 mismatch over the payload). The loader does not
//! try to resynchronize past damage: frame lengths are not
//! self-delimiting under corruption, so anything after the first bad
//! segment is untrusted by design.
//!
//! The decoding core is the incremental [`StreamReader`]: feed it byte
//! chunks in any sizes and it yields events as segments complete. The
//! file loader is one `feed` of the whole file followed by
//! [`StreamReader::finish`]; the live tailer feeds TCP reads as they
//! arrive. Both therefore share one reader and one torn-stream
//! contract — a recording on disk and a trace stream on the wire are
//! the same TWFR bytes, damaged the same ways.

// tw-lint: allow-file(actor-io) -- the recording loader is the read side of the
// flight recorder's file format; it runs in analyzers and tests, never inside a
// simulated actor.

use crate::recorder::{crc32, FILE_MAGIC, HEADER_LEN, MAX_SEGMENT_LEN, SEGMENT_OVERHEAD};
use crate::trace::TraceEvent;
use std::fmt;
use std::path::Path;
use tw_proto::{Duration, FrameRef, ProcessId};

/// Where and how a recording was damaged. The events of all segments
/// before the damage are still in [`Recording::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Damage {
    /// The file ends in the middle of segment `index` (crash while
    /// spilling, or a truncated copy).
    TruncatedSegment {
        /// Zero-based index of the damaged segment.
        index: u64,
    },
    /// Segment `index` failed its CRC (bit rot, or a torn write that
    /// happened to keep the length plausible), or claims a length over
    /// [`MAX_SEGMENT_LEN`].
    CorruptSegment {
        /// Zero-based index of the damaged segment.
        index: u64,
    },
    /// Segment `index` passed its CRC but its payload did not parse as
    /// trace frames — a writer bug or deliberate tampering.
    UndecodableSegment {
        /// Zero-based index of the damaged segment.
        index: u64,
    },
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Damage::TruncatedSegment { index } => {
                write!(f, "segment {index} truncated (torn tail)")
            }
            Damage::CorruptSegment { index } => write!(f, "segment {index} failed CRC"),
            Damage::UndecodableSegment { index } => {
                write!(f, "segment {index} payload undecodable")
            }
        }
    }
}

/// Why a file could not be opened as a recording at all.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file is shorter than a header, is not a TWFR recording, or
    /// is one of a format version this build does not read.
    BadHeader(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "reading recording: {e}"),
            LoadError::BadHeader(why) => write!(f, "bad recording header: {why}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// The TWFR stream header: the one description of a recorded stream,
/// written by [`crate::recorder::encode_header`] and read back by
/// [`StreamReader`] — who recorded, at what team size, and the timing
/// bounds the recording is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// The emitting member's process id.
    pub pid: ProcessId,
    /// Team size N at stream start (0 if unknown).
    pub team: usize,
    /// The clock-sync deviation bound ε: the fuzz bound the analyzer
    /// aligns recordings on synchronized time with.
    pub epsilon: Duration,
    /// The §4.2 single-failure recovery envelope, first suspicion to the
    /// last survivor's install: the bound the analyzer judges recovery
    /// spans against.
    pub recovery_envelope: Duration,
}

impl StreamHeader {
    fn decode(b: &[u8; HEADER_LEN]) -> StreamHeader {
        let micros = |at: usize| {
            Duration::from_micros(i64::from_le_bytes(
                b[at..at + 8].try_into().expect("8 header bytes"),
            ))
        };
        StreamHeader {
            pid: ProcessId(u16::from_le_bytes([b[8], b[9]])),
            team: u16::from_le_bytes([b[10], b[11]]) as usize,
            epsilon: micros(12),
            recovery_envelope: micros(20),
        }
    }
}

/// Incremental TWFR decoder — the one reader behind both the file
/// loader ([`Recording::parse`]) and the live tailer.
///
/// Feed it bytes in whatever chunks the carrier delivers; complete
/// segments decode immediately, partial ones wait for more input. Damage
/// semantics match the file loader exactly: a CRC or decode failure is
/// recorded ([`StreamReader::finish`]) and everything after it is
/// discarded (no resync); an incomplete tail only becomes
/// [`Damage::TruncatedSegment`] when the caller declares the stream over
/// by calling `finish` — mid-stream, a partial segment is just bytes
/// that have not arrived yet.
#[derive(Debug, Default)]
pub struct StreamReader {
    buf: Vec<u8>,
    header: Option<StreamHeader>,
    intact_segments: u64,
    damage: Option<Damage>,
    /// Set once the header failed to parse; every later feed re-fails.
    dead: bool,
}

impl StreamReader {
    /// A reader expecting a TWFR header first.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stream header, once all of its bytes have arrived.
    pub fn header(&self) -> Option<&StreamHeader> {
        self.header.as_ref()
    }

    /// Segments decoded completely so far.
    pub fn intact_segments(&self) -> u64 {
        self.intact_segments
    }

    /// The damage that stopped decoding, if any has been detected yet.
    /// Truncation is only ever reported by [`StreamReader::finish`].
    pub fn damage(&self) -> Option<&Damage> {
        self.damage.as_ref()
    }

    /// Append `bytes` and decode every segment that is now complete,
    /// returning its events in write order. After detected damage the
    /// input is discarded (untrusted by design) and the result is
    /// empty. The only hard error is a malformed header.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<TraceEvent>, LoadError> {
        if self.dead {
            return Err(LoadError::BadHeader(
                "stream already failed header validation".into(),
            ));
        }
        if self.damage.is_some() {
            return Ok(Vec::new());
        }
        self.buf.extend_from_slice(bytes);

        if self.header.is_none() {
            // The magic is judged as soon as it is complete: a shorter
            // header of another version is refused by name, not waited on.
            let magic = &self.buf[..self.buf.len().min(8)];
            if magic.len() == 8 && magic != FILE_MAGIC {
                self.dead = true;
                return Err(LoadError::BadHeader(foreign_magic(magic)));
            }
            let Some(head) = self.buf.first_chunk::<HEADER_LEN>() else {
                return Ok(Vec::new());
            };
            self.header = Some(StreamHeader::decode(head));
            self.buf.drain(..HEADER_LEN);
        }

        let mut events = Vec::new();
        let mut off = 0usize;
        while self.buf.len() - off >= SEGMENT_OVERHEAD {
            let len =
                u32::from_le_bytes(self.buf[off..off + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(self.buf[off + 4..off + 8].try_into().expect("4 bytes"));
            let start = off + SEGMENT_OVERHEAD;
            let index = self.intact_segments;
            if len > MAX_SEGMENT_LEN {
                // No writer produces this: refuse now rather than buffer
                // toward a length no CRC has vouched for.
                self.damage = Some(Damage::CorruptSegment { index });
                break;
            }
            if self.buf.len() - start < len {
                break; // partial segment — wait for more bytes
            }
            let payload = &self.buf[start..start + len];
            if crc32(payload) != crc {
                self.damage = Some(Damage::CorruptSegment { index });
                break;
            }
            match decode_payload(payload) {
                Some(mut evs) => events.append(&mut evs),
                None => {
                    self.damage = Some(Damage::UndecodableSegment { index });
                    break;
                }
            }
            self.intact_segments += 1;
            off = start + len;
        }
        if self.damage.is_some() {
            self.buf.clear(); // everything past damage is untrusted
        } else {
            self.buf.drain(..off);
        }
        Ok(events)
    }

    /// Declare the stream over (EOF, connection drop) and report how it
    /// ended: previously detected damage, a truncated tail if any bytes
    /// are still pending (including an incomplete header), or `None`
    /// for a clean end on a segment boundary.
    pub fn finish(&self) -> Option<Damage> {
        if let Some(d) = &self.damage {
            return Some(d.clone());
        }
        if !self.buf.is_empty() {
            return Some(Damage::TruncatedSegment {
                index: self.intact_segments,
            });
        }
        None
    }
}

/// One node's recording, loaded back into memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// The file's header.
    pub header: StreamHeader,
    /// Every event from every intact segment, in write order.
    pub events: Vec<TraceEvent>,
    /// Segments that loaded completely.
    pub intact_segments: u64,
    /// The damage that ended the scan, if any.
    pub damage: Option<Damage>,
}

impl Recording {
    /// Load the recording at `path`. Damage after the header is
    /// reported in [`Recording::damage`], not returned as an error.
    pub fn load(path: impl AsRef<Path>) -> Result<Recording, LoadError> {
        let bytes = std::fs::read(path.as_ref())?;
        Recording::parse(&bytes)
    }

    /// Parse recording bytes (see [`Recording::load`]). One `feed` of
    /// the whole file into the shared [`StreamReader`], then `finish` —
    /// so files and live streams cannot drift apart in how they decode.
    pub fn parse(bytes: &[u8]) -> Result<Recording, LoadError> {
        let mut reader = StreamReader::new();
        let events = reader.feed(bytes)?;
        let header = match reader.header() {
            Some(h) => *h,
            None => {
                return Err(LoadError::BadHeader(format!(
                    "{} bytes is shorter than the {HEADER_LEN}-byte header",
                    bytes.len()
                )))
            }
        };
        Ok(Recording {
            header,
            events,
            intact_segments: reader.intact_segments(),
            damage: reader.finish(),
        })
    }
}

fn decode_payload(payload: &[u8]) -> Option<Vec<TraceEvent>> {
    let mut f = FrameRef::new(payload);
    let mut out = Vec::new();
    while !f.is_exhausted() {
        out.push(TraceEvent::decode(&mut f).ok()?);
    }
    Some(out)
}

/// Why eight bytes that are not [`FILE_MAGIC`] were refused: another
/// TWFR format version (named, so the operator knows to re-record), or
/// not a recording at all.
fn foreign_magic(magic: &[u8]) -> String {
    let version = |magic: &[u8]| {
        let digits = magic.strip_prefix(b"TWFR")?;
        if !digits.iter().all(u8::is_ascii_digit) {
            return None; // `parse` alone would take "+002"
        }
        std::str::from_utf8(digits).ok()?.parse::<u32>().ok()
    };
    match (version(magic), version(FILE_MAGIC)) {
        (Some(found), Some(this)) => {
            format!("recording format version {found}; this build reads version {this} — re-record")
        }
        _ => "missing TWFR magic — not a flight recording".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{
        encode_header, encode_segment, FlightRecorder, RecorderConfig, MAX_SEGMENT_EVENTS,
    };
    use crate::trace::{ClockStamp, TraceSink};
    use std::path::PathBuf;
    use tw_proto::{HwTime, SyncTime, ViewId};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tw-obs-recload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    // Not a ViewInstalled: the recorder force-spills on view installs,
    // and these tests need exact capacity-driven segment layout.
    fn ev(i: i64) -> TraceEvent {
        TraceEvent::DecisionSent {
            pid: ProcessId(2),
            at: ClockStamp {
                hw: HwTime(i),
                sync: SyncTime(i + 1),
            },
            send_ts: SyncTime(i + 1),
            view: ViewId::new(i as u64, ProcessId(0)),
        }
    }

    fn header(pid: u16) -> StreamHeader {
        StreamHeader {
            pid: ProcessId(pid),
            team: 3,
            epsilon: Duration::from_micros(9),
            recovery_envelope: Duration::from_millis(250),
        }
    }

    fn written(n: i64, capacity: usize, name: &str) -> Vec<u8> {
        let path = tmp(name);
        let cfg = RecorderConfig::new(header(2)).capacity(capacity);
        let rec = FlightRecorder::create(&path, cfg).unwrap();
        for i in 0..n {
            rec.record(&ev(i));
        }
        drop(rec);
        std::fs::read(&path).unwrap()
    }

    #[test]
    fn short_or_wrong_magic_is_a_header_error() {
        assert!(matches!(
            Recording::parse(b"TWFR"),
            Err(LoadError::BadHeader(_))
        ));
        let mut bytes = written(2, 10, "magic.twrec");
        bytes[0] = b'X';
        assert!(matches!(
            Recording::parse(&bytes),
            Err(LoadError::BadHeader(_))
        ));
    }

    #[test]
    fn other_format_versions_are_named_not_called_garbage() {
        let why = |bytes: &[u8]| match Recording::parse(bytes) {
            Err(LoadError::BadHeader(why)) => why,
            other => panic!("expected BadHeader, got {other:?}"),
        };
        let mut bytes = written(2, 10, "version.twrec");
        for (magic, version) in [(b"TWFR0001", 1), (b"TWFR0002", 2)] {
            bytes[..8].copy_from_slice(magic);
            let old = why(&bytes);
            assert!(old.contains(&format!("format version {version};")), "{old}");
            assert!(old.contains("reads version 3"), "{old}");
        }
        // A version 2 file whose whole 20-byte header is shorter than
        // this version's is still refused by its version, not its length.
        assert!(why(&bytes[..20]).contains("format version 2;"));
        bytes[..8].copy_from_slice(b"TWFR0013");
        assert!(why(&bytes).contains("format version 13"));
        for not_twfr in [b"XWFR0002", b"TWFRv002", b"TWFR+002", b"\x7fELF\0\0\0\0"] {
            bytes[..8].copy_from_slice(not_twfr);
            assert!(why(&bytes).contains("not a flight recording"));
        }
    }

    #[test]
    fn oversize_length_word_is_damage_at_once_not_a_wait() {
        // Header, one good segment, then a length word followed by a CRC
        // word and 1 KiB of bytes.
        let with_word = |word: u32| {
            let mut bytes = written(2, 2, "oversize.twrec");
            bytes.extend_from_slice(&word.to_le_bytes());
            bytes.extend_from_slice(&[0xAB; 4 + 1024]);
            bytes
        };
        // A word no writer produces: the reader must not sit on it
        // waiting for 4 GiB that no CRC has vouched for.
        for word in [u32::MAX, MAX_SEGMENT_LEN as u32 + 1] {
            let mut r = StreamReader::new();
            let events = r.feed(&with_word(word)).unwrap();
            assert_eq!(events, (0..2).map(ev).collect::<Vec<_>>());
            assert_eq!(r.damage(), Some(&Damage::CorruptSegment { index: 1 }));
            assert!(r.buf.is_empty(), "nothing is kept past damage");
            assert!(r.feed(&[0u8; 64]).unwrap().is_empty());
            assert!(r.buf.is_empty());
        }
        // The largest legal word is still just a partial segment.
        let mut r = StreamReader::new();
        r.feed(&with_word(MAX_SEGMENT_LEN as u32)).unwrap();
        assert_eq!(r.damage(), None);
        assert_eq!(r.finish(), Some(Damage::TruncatedSegment { index: 1 }));
    }

    #[test]
    fn sinks_spill_inside_max_segment_len_whatever_capacity_says() {
        let path = tmp("hugecap.twrec");
        let mut cfg = RecorderConfig::new(header(2));
        cfg.capacity = usize::MAX;
        let rec = FlightRecorder::create(&path, cfg).unwrap();
        for i in 0..MAX_SEGMENT_EVENTS as i64 + 1 {
            rec.record(&ev(i));
        }
        assert_eq!(rec.segments(), 1, "spilled at the cap, not at capacity");
        assert_eq!(rec.buffered(), 1);
        drop(rec);
        let r = Recording::load(&path).unwrap();
        assert_eq!((r.intact_segments, r.damage), (2, None));
        assert_eq!(r.events.len(), MAX_SEGMENT_EVENTS + 1);

        let sink = crate::server::StreamSink::new(header(2), usize::MAX);
        for i in 0..MAX_SEGMENT_EVENTS as i64 {
            sink.record(&ev(i));
        }
        assert_eq!(sink.buffered(), 0, "the live sink spilled at the cap too");
    }

    #[test]
    fn frozen_twfr0003_recording_loads_every_variant() {
        // Header plus one segment holding every variant, captured when
        // the format was fixed: a change to the header, the segment
        // framing or any event's field encoding fails here first, so the
        // next format change is a deliberate one (and a magic bump).
        #[rustfmt::skip]
        const FIXTURE: &[u8] = &[
            // header: magic · pid 3 · team 5 · epsilon 250 µs · envelope 330 000 µs
            0x54, 0x57, 0x46, 0x52, 0x30, 0x30, 0x30, 0x33,
            0x03, 0x00, 0x05, 0x00, 0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x10, 0x09, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
            // segment: len 158 · crc32
            0x9e, 0x00, 0x00, 0x00, 0xf4, 0x4e, 0x74, 0x1b,
            // one frame per variant, `all_variants()` order: tag · padded len · payload
            0x00, 0x88, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x0a, 0x07, 0x01,
            0x01, 0x89, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x02, 0x0a, 0x07, 0x01,
            0x02, 0x88, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x04, 0x07, 0x01,
            0x03, 0x89, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x04, 0x0c, 0x07, 0x01,
            0x04, 0x88, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x00, 0x07, 0x01,
            0x05, 0x88, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x05, 0x04, 0x01,
            0x06, 0x88, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x07, 0x01, 0x17,
            0x07, 0x8e, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x02, 0x09, 0x01, 0x0b, 0x01, 0x01,
              0x08, 0x07, 0x01,
            0x07, 0x8d, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x02, 0x0a, 0x00, 0x00, 0x00, 0x0a,
              0x07, 0x01,
            0x08, 0x8a, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x07, 0x01, 0x01, 0x02, 0x03,
            0x09, 0x88, 0x80, 0x80, 0x00, 0x03, 0xd0, 0x0f, 0xd4, 0x0f, 0x04, 0x01, 0x11,
        ];
        let events = crate::codec::tests::all_variants();
        let header = StreamHeader {
            pid: ProcessId(3),
            team: 5,
            epsilon: Duration::from_micros(250),
            recovery_envelope: Duration::from_millis(330),
        };
        let mut fresh = encode_header(&header).to_vec();
        fresh.extend(encode_segment(&events));
        assert_eq!(fresh, FIXTURE, "the writer still produces the frozen bytes");
        let rec = Recording::parse(FIXTURE).unwrap();
        assert_eq!(rec.header, header);
        assert_eq!(rec.events, events);
        assert_eq!((rec.intact_segments, rec.damage), (1, None));
    }

    #[test]
    fn truncated_tail_keeps_earlier_segments() {
        // 6 events, capacity 2 → three 2-event segments.
        let bytes = written(6, 2, "torn.twrec");
        // Cut in the middle of the last segment.
        let cut = bytes.len() - 3;
        let r = Recording::parse(&bytes[..cut]).unwrap();
        assert_eq!(r.intact_segments, 2);
        assert_eq!(r.events, (0..4).map(ev).collect::<Vec<_>>());
        assert!(matches!(
            r.damage,
            Some(Damage::TruncatedSegment { index: 2 })
        ));
    }

    #[test]
    fn corrupt_middle_segment_stops_the_scan_there() {
        let bytes = written(6, 2, "corrupt.twrec");
        let mut bytes = bytes;
        // Flip a byte inside the second segment's payload. Segment
        // layout after the header: [len 4][crc 4][payload ...].
        let seg0_len = u32::from_le_bytes(bytes[HEADER_LEN..][..4].try_into().unwrap()) as usize;
        let seg1_payload_start = HEADER_LEN + 8 + seg0_len + 8;
        bytes[seg1_payload_start + 1] ^= 0xff;
        let r = Recording::parse(&bytes).unwrap();
        assert_eq!(r.intact_segments, 1);
        assert_eq!(r.events, (0..2).map(ev).collect::<Vec<_>>());
        assert!(matches!(
            r.damage,
            Some(Damage::CorruptSegment { index: 1 })
        ));
    }

    #[test]
    fn stream_reader_and_file_loader_agree_byte_for_byte() {
        // The shared-framing proof: the same recorder-written bytes,
        // decoded (a) in one shot by the file loader and (b) dribbled
        // into the incremental reader in awkward chunk sizes, must
        // yield identical headers, events and damage verdicts.
        let bytes = written(9, 2, "shared.twrec");
        let whole = Recording::parse(&bytes).unwrap();

        for chunk in [1usize, 3, 7, 64, bytes.len()] {
            let mut r = StreamReader::new();
            let mut events = Vec::new();
            for part in bytes.chunks(chunk) {
                events.extend(r.feed(part).unwrap());
            }
            assert_eq!(r.header(), Some(&whole.header));
            assert_eq!(events, whole.events, "chunk size {chunk}");
            assert_eq!(r.intact_segments(), whole.intact_segments);
            assert_eq!(r.finish(), whole.damage);
        }
    }

    #[test]
    fn stream_reader_waits_for_partial_segments_mid_stream() {
        let bytes = written(4, 2, "partial.twrec");
        let mut r = StreamReader::new();
        // Everything but the last 3 bytes: the final segment is
        // incomplete, which mid-stream is not damage.
        let cut = bytes.len() - 3;
        let early = r.feed(&bytes[..cut]).unwrap();
        assert_eq!(early, (0..2).map(ev).collect::<Vec<_>>());
        assert!(r.damage().is_none());
        // …but an EOF here is a torn tail.
        assert_eq!(r.finish(), Some(Damage::TruncatedSegment { index: 1 }));
        // The missing bytes arrive after all: the segment completes and
        // the same reader finishes clean.
        let late = r.feed(&bytes[cut..]).unwrap();
        assert_eq!(late, (2..4).map(ev).collect::<Vec<_>>());
        assert_eq!(r.finish(), None);
    }

    #[test]
    fn stream_reader_discards_everything_after_damage() {
        let mut bytes = written(6, 2, "streamcorrupt.twrec");
        let seg0_len = u32::from_le_bytes(bytes[HEADER_LEN..][..4].try_into().unwrap()) as usize;
        let seg1_payload_start = HEADER_LEN + 8 + seg0_len + 8;
        bytes[seg1_payload_start] ^= 0xff;
        let mut r = StreamReader::new();
        let events = r.feed(&bytes).unwrap();
        assert_eq!(events, (0..2).map(ev).collect::<Vec<_>>());
        assert_eq!(r.damage(), Some(&Damage::CorruptSegment { index: 1 }));
        // Later feeds are swallowed: no resync past damage.
        let more = written(2, 2, "streamcorrupt2.twrec");
        assert!(r.feed(&more[HEADER_LEN..]).unwrap().is_empty());
        assert_eq!(r.finish(), Some(Damage::CorruptSegment { index: 1 }));
    }

    #[test]
    fn stream_reader_rejects_bad_magic_permanently() {
        let mut r = StreamReader::new();
        // Magic split across feeds: no verdict until its 8 bytes exist.
        assert!(r.feed(b"TWFR").unwrap().is_empty());
        assert!(r.header().is_none());
        assert!(matches!(
            r.feed(b"XXXXxxxxxxxxxxxxxxxx"),
            Err(LoadError::BadHeader(_))
        ));
        assert!(matches!(r.feed(b""), Err(LoadError::BadHeader(_))));
    }

    #[test]
    fn stream_reader_incomplete_header_is_truncation_at_finish() {
        let mut r = StreamReader::new();
        assert!(r.feed(b"TWFR00").unwrap().is_empty());
        assert_eq!(r.finish(), Some(Damage::TruncatedSegment { index: 0 }));
        // An empty stream, though, ends clean.
        assert_eq!(StreamReader::new().finish(), None);
    }

    #[test]
    fn damage_displays_human_readably() {
        assert!(Damage::TruncatedSegment { index: 3 }
            .to_string()
            .contains("torn tail"));
        assert!(Damage::CorruptSegment { index: 0 }
            .to_string()
            .contains("CRC"));
        assert!(Damage::UndecodableSegment { index: 1 }
            .to_string()
            .contains("undecodable"));
    }
}
