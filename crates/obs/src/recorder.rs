//! Crash-safe flight recorder — the node's one TWFR writer: a bounded
//! in-memory event buffer that spills CRC-framed segments of
//! wire-encoded trace events, each encoded once and handed to up to two
//! outlets: a per-node recording file and live subscribers (the ops
//! server's `/trace`, [`crate::server`]).
//!
//! The recorder is the durable counterpart of [`crate::trace::VecSink`]:
//! it implements [`TraceSink`], so a member's tracer can feed it
//! directly, but instead of growing without bound it buffers at most
//! `capacity` events and spills them as one *segment* whenever the
//! buffer fills, at every view installation, or on an explicit
//! [`FlightRecorder::flush`] (which hosts call on shutdown/panic via a
//! drop guard). A node that dies mid-run therefore leaves a black box
//! whose only possible damage is a torn final segment — which the
//! reader ([`crate::recording`]) detects by CRC and skips, never losing
//! the frames before it. A subscriber reads the same bytes: the header
//! first, then every segment spilled after it attached; one whose
//! bounded queue is full is shed and counted, never waited for.
//!
//! ## File format (`TWFR` version 3)
//!
//! ```text
//! header  : magic b"TWFR0003" · pid u16 LE · team u16 LE · epsilon_us i64 LE
//!           · recovery_envelope_us i64 LE
//! segment*: len u32 LE · crc32 u32 LE · payload[len]      (len ≤ MAX_SEGMENT_LEN)
//! ```
//!
//! The payload of a segment is a concatenation of [`TraceEvent`] wire
//! frames (`tag · len · payload`, [`crate::codec`]) — the exact bytes a
//! live exporter would ship, so recordings and network streams share one
//! vocabulary. `crc32` is CRC-32/ISO-HDLC over the payload bytes. A
//! file with any other version digits is refused at the header, naming
//! the version it carries; there is no reader for older formats. The
//! header is a [`StreamHeader`]: the emitting process, the team size,
//! the clock-sync deviation bound ε and the §4.2 single-failure recovery
//! envelope at recording time, so the offline analyzer can align
//! recordings from different nodes and judge their recovery spans
//! without out-of-band configuration.

// tw-lint: allow-file(actor-io) -- the flight recorder IS the module that owns
// file I/O: it runs host-side (behind a TraceSink), never inside a simulated
// actor, and persistence is its entire purpose.

use crate::codec::MAX_EVENT_LEN;
use crate::recording::StreamHeader;
use crate::trace::{TraceEvent, TraceSink};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use tw_proto::WireCursor;

/// File magic + format version, the first 8 bytes of every recording.
pub const FILE_MAGIC: &[u8; 8] = b"TWFR0003";
/// Total header length: magic, pid, team, epsilon, recovery envelope.
pub const HEADER_LEN: usize = 8 + 2 + 2 + 8 + 8;
/// Per-segment framing overhead: length and CRC words.
pub const SEGMENT_OVERHEAD: usize = 4 + 4;
/// Largest segment payload a writer produces and a reader accepts. A
/// reader meeting a larger length word reports corruption at once
/// instead of buffering toward it — the word is read before any CRC
/// can vouch for it.
pub const MAX_SEGMENT_LEN: usize = 1 << 20;
/// Most events a sink buffers before it spills, whatever its configured
/// capacity: that many always encode inside [`MAX_SEGMENT_LEN`].
pub const MAX_SEGMENT_EVENTS: usize = MAX_SEGMENT_LEN / MAX_EVENT_LEN;
/// Segments a live subscriber may have queued before it is declared
/// slow and shed (each segment is at most `capacity` events).
pub(crate) const SUBSCRIBER_QUEUE: usize = 64;

/// Encode a TWFR header: the exact bytes [`FlightRecorder::create`]
/// writes at the start of a file, and the first bytes
/// [`FlightRecorder::subscribe`] hands a live subscriber — one format,
/// two carriers.
pub fn encode_header(header: &StreamHeader) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(FILE_MAGIC);
    out[8..10].copy_from_slice(&header.pid.0.to_le_bytes());
    out[10..12].copy_from_slice(&(header.team.min(u16::MAX as usize) as u16).to_le_bytes());
    out[12..20].copy_from_slice(&header.epsilon.as_micros().to_le_bytes());
    out[20..28].copy_from_slice(&header.recovery_envelope.as_micros().to_le_bytes());
    out
}

/// Encode `events` as one TWFR segment (`len · crc32 · payload` with
/// the payload a concatenation of trace-event wire frames). Returns an
/// empty vector for an empty slice — the format has no empty segments.
pub fn encode_segment(events: &[TraceEvent]) -> Vec<u8> {
    if events.is_empty() {
        return Vec::new();
    }
    debug_assert!(events.len() <= MAX_SEGMENT_EVENTS, "over MAX_SEGMENT_LEN");
    let mut out = vec![0u8; SEGMENT_OVERHEAD];
    out.reserve(events.len() * 32);
    let mut w = WireCursor::new(&mut out);
    for ev in events {
        ev.encode(&mut w);
    }
    let (len, crc) = {
        let payload = &out[SEGMENT_OVERHEAD..];
        (payload.len() as u32, crc32(payload))
    };
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ *b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Static parameters of one TWFR writer.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// What the stream's header says about the recorded events.
    pub header: StreamHeader,
    /// Events buffered in memory before a segment is spilled. Bounds
    /// both memory use and the worst-case loss window on a hard crash.
    /// Clamped to `1..=`[`MAX_SEGMENT_EVENTS`] when the recorder is
    /// created.
    pub capacity: usize,
}

impl RecorderConfig {
    /// A recorder writing `header`, using the default buffer capacity
    /// (1024 events).
    pub fn new(header: StreamHeader) -> Self {
        RecorderConfig {
            header,
            capacity: 1024,
        }
    }

    /// Override the buffer capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

struct Inner {
    buf: Vec<TraceEvent>,
    /// The recording file: `None` for a recorder created without one,
    /// and from the first I/O error on (the file alone goes inert — a
    /// sink must never panic the protocol thread).
    file: Option<BufWriter<File>>,
    /// Live subscribers' bounded queues.
    subs: Vec<SyncSender<Vec<u8>>>,
    /// Events persisted to the file so far.
    spilled_events: u64,
    /// Segments written to the file so far.
    segments: u64,
    /// Subscribers shed for falling behind.
    shed: u64,
    /// The I/O error that made the file inert.
    error: Option<std::io::Error>,
}

/// A node's one TWFR writer: a [`TraceSink`] that buffers events and
/// spills them as segments, each encoded once and handed to two
/// optional outlets — a crash-safe recording file and live subscribers
/// (the ops server's `/trace`). See the module docs for the format and
/// the durability contract.
pub struct FlightRecorder {
    cfg: RecorderConfig,
    path: Option<PathBuf>,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// Create (truncating) the recording file at `path` and write its
    /// header. The returned recorder is ready to use as a sink.
    pub fn create(path: impl AsRef<Path>, cfg: RecorderConfig) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = BufWriter::new(File::create(&path)?);
        file.write_all(&encode_header(&cfg.header))?;
        file.flush()?;
        let mut recorder = Self::new(cfg);
        recorder.path = Some(path);
        recorder.lock().file = Some(file);
        Ok(recorder)
    }

    /// A recorder with no file: its segments reach live subscribers only.
    pub fn new(mut cfg: RecorderConfig) -> Self {
        cfg.capacity = cfg.capacity.clamp(1, MAX_SEGMENT_EVENTS);
        FlightRecorder {
            cfg,
            path: None,
            inner: Mutex::new(Inner {
                buf: Vec::with_capacity(cfg.capacity),
                file: None,
                subs: Vec::new(),
                spilled_events: 0,
                segments: 0,
                shed: 0,
                error: None,
            }),
        }
    }

    /// The recording file this recorder appends to, if it has one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Encode the buffer as one segment and hand it to both outlets:
    /// written to the file (under the caller's lock, so segments land in
    /// spill order) and offered to every subscriber without blocking. A
    /// subscriber whose queue is full is shed, never waited for. With
    /// neither outlet attached the events are dropped unencoded.
    fn spill(inner: &mut Inner) {
        if inner.buf.is_empty() {
            return;
        }
        if inner.file.is_some() || !inner.subs.is_empty() {
            let segment = encode_segment(&inner.buf);
            if let Some(file) = &mut inner.file {
                match file.write_all(&segment).and_then(|()| file.flush()) {
                    Ok(()) => {
                        inner.spilled_events += inner.buf.len() as u64;
                        inner.segments += 1;
                    }
                    Err(e) => {
                        inner.error = Some(e);
                        inner.file = None;
                    }
                }
            }
            let mut shed = 0;
            inner.subs.retain(|tx| match tx.try_send(segment.clone()) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    shed += 1;
                    false
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
            inner.shed += shed;
        }
        inner.buf.clear();
    }

    /// Spill everything buffered so far as one segment now. Called by
    /// hosts on demand and from the shutdown / panic drop guard; cheap
    /// when the buffer is empty.
    pub fn flush(&self) {
        let mut inner = self.lock();
        // tw-lint: allow(blocking-under-lock) -- crash-safe spill must write under the lock: the buffer and writer are one atomic unit
        Self::spill(&mut inner);
    }

    /// Attach a live subscriber. The first bytes on the channel are the
    /// TWFR header; after that, every segment spilled from now on —
    /// joining mid-run is always a valid stream start.
    pub fn subscribe(&self) -> Receiver<Vec<u8>> {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_QUEUE);
        tx.try_send(encode_header(&self.cfg.header).to_vec())
            .expect("fresh subscriber queue cannot be full");
        self.lock().subs.push(tx);
        rx
    }

    /// Subscribers disconnected for falling behind since creation.
    pub fn shed_subscribers(&self) -> u64 {
        self.lock().shed
    }

    /// Events persisted to the file so far (excludes the in-memory
    /// buffer).
    pub fn spilled_events(&self) -> u64 {
        self.lock().spilled_events
    }

    /// Events currently buffered in memory, waiting for the next spill
    /// (the occupancy the runtime exports as a gauge).
    pub fn buffered(&self) -> usize {
        self.lock().buf.len()
    }

    /// Segments written to the file so far.
    pub fn segments(&self) -> u64 {
        self.lock().segments
    }

    /// The I/O error that made the file inert, if one did.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.lock().error.take()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&self, ev: &TraceEvent) {
        let mut inner = self.lock();
        inner.buf.push(*ev);
        // Spill when full — and at every view installation, so the
        // recording and the live stream are always current through the
        // last membership change even if the host dies without unwinding.
        if inner.buf.len() >= self.cfg.capacity || matches!(ev, TraceEvent::ViewInstalled { .. }) {
            // tw-lint: allow(blocking-under-lock) -- segment spill is the recorder's contract; contention is bounded by capacity and sinks are per-node
            Self::spill(&mut inner);
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Flushes a recorder when dropped — a guard a host thread holds so the
/// buffered tail survives panics.
///
/// The recorder's own `Drop` only runs when the *last* `Arc` goes away;
/// a node handle usually keeps one alive, so a panicking executor thread
/// would not flush the tail on unwind. Holding a `FlushGuard` on the
/// executor's stack closes that gap: unwinding drops the guard, the
/// guard flushes. Cheap when the buffer is already empty.
pub struct FlushGuard(Option<Arc<FlightRecorder>>);

impl FlushGuard {
    /// Guard `recorder` (a `None` guard is a no-op, so hosts can hold
    /// one unconditionally).
    pub fn new(recorder: Option<Arc<FlightRecorder>>) -> Self {
        FlushGuard(recorder)
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        if let Some(r) = &self.0 {
            r.flush();
        }
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FlightRecorder")
            .field("path", &self.path)
            .field("pid", &self.cfg.header.pid)
            .field("buffered", &inner.buf.len())
            .field("spilled_events", &inner.spilled_events)
            .field("segments", &inner.segments)
            .field("errored", &inner.error.is_some())
            .field("subscribers", &inner.subs.len())
            .field("shed", &inner.shed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::Recording;
    use crate::trace::ClockStamp;
    use tw_proto::{Duration, HwTime, ProcessId, SyncTime, ViewId};

    fn header(pid: u16) -> StreamHeader {
        StreamHeader {
            pid: ProcessId(pid),
            team: 3,
            epsilon: Duration::ZERO,
            recovery_envelope: Duration::ZERO,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tw-obs-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn ev(i: i64) -> TraceEvent {
        TraceEvent::DecisionSent {
            pid: ProcessId(1),
            at: ClockStamp {
                hw: HwTime(i),
                sync: SyncTime(i + 2),
            },
            send_ts: SyncTime(i + 2),
            view: ViewId::new(3, ProcessId(0)),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // CRC-32/ISO-HDLC check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn events_roundtrip_through_a_recording_file() {
        let path = tmp("roundtrip.twrec");
        let header = StreamHeader {
            pid: ProcessId(1),
            team: 5,
            epsilon: Duration::from_micros(250),
            recovery_envelope: Duration::from_millis(330),
        };
        let cfg = RecorderConfig::new(header).capacity(4);
        let rec = FlightRecorder::create(&path, cfg).unwrap();
        for i in 0..10 {
            rec.record(&ev(i));
        }
        rec.flush();
        // 10 events, capacity 4: two full segments + one flushed tail.
        assert_eq!(rec.segments(), 3);
        assert_eq!(rec.spilled_events(), 10);

        let loaded = Recording::load(&path).unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.events, (0..10).map(ev).collect::<Vec<_>>());
        assert!(loaded.damage.is_none());
    }

    #[test]
    fn view_install_forces_a_spill() {
        let path = tmp("viewspill.twrec");
        let cfg = RecorderConfig::new(header(0)).capacity(1000);
        let rec = FlightRecorder::create(&path, cfg).unwrap();
        rec.record(&ev(1));
        assert_eq!(rec.segments(), 0, "plain events buffer");
        rec.record(&TraceEvent::ViewInstalled {
            pid: ProcessId(0),
            at: ClockStamp {
                hw: HwTime(5),
                sync: SyncTime(6),
            },
            view: ViewId::new(2, ProcessId(0)),
            members: tw_proto::AckBits(0b111),
        });
        assert_eq!(rec.segments(), 1, "view install must reach disk");
        assert_eq!(rec.spilled_events(), 2);
    }

    #[test]
    fn flush_guard_flushes_while_other_arcs_live() {
        let path = tmp("guard.twrec");
        let cfg = RecorderConfig::new(header(0)).capacity(100);
        let rec = Arc::new(FlightRecorder::create(&path, cfg).unwrap());
        let keepalive = rec.clone(); // the "node handle"
        {
            let _guard = FlushGuard::new(Some(rec.clone()));
            rec.record(&ev(3));
        } // guard drops here; recorder itself stays alive
        assert_eq!(keepalive.spilled_events(), 1);
        let loaded = Recording::load(&path).unwrap();
        assert_eq!(loaded.events, vec![ev(3)]);
    }

    #[test]
    fn drop_flushes_the_tail() {
        let path = tmp("dropflush.twrec");
        let cfg = RecorderConfig::new(header(0)).capacity(100);
        {
            let rec = FlightRecorder::create(&path, cfg).unwrap();
            rec.record(&ev(7));
        } // dropped without an explicit flush
        let loaded = Recording::load(&path).unwrap();
        assert_eq!(loaded.events, vec![ev(7)]);
    }

    #[test]
    fn empty_flush_writes_no_segment() {
        let path = tmp("empty.twrec");
        let cfg = RecorderConfig::new(header(0));
        let rec = FlightRecorder::create(&path, cfg).unwrap();
        rec.flush();
        rec.flush();
        assert_eq!(rec.segments(), 0);
        drop(rec);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN as u64);
        let loaded = Recording::load(&path).unwrap();
        assert!(loaded.events.is_empty());
        assert!(loaded.damage.is_none());
    }
}
