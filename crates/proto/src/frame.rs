//! The wire format (wire version 4), and the cursor vocabulary every
//! encoder and decoder in the workspace is written in.
//!
//! A datagram is a **version byte** followed by one or more
//! **length-prefixed LEB128 frames**, each frame holding one [`Msg`]
//! encoded with variable-length integers — or, for proposals, a **run**
//! of them. Batching many messages into one datagram is what lets the
//! runtime amortize one syscall over a whole tick's traffic; varints are
//! what keep the common small ordinals, ranks and sequence numbers at
//! one byte each; runs are what keep a `propose_batch` from repeating
//! its header once per update.
//!
//! ```text
//! datagram    := version-byte frame*
//! frame       := len:uvarint body              (len = |body| in bytes, fewest bytes)
//! body        := 0x00 proposal (ts-delta:ivarint payload:bytes)*                     (proposal run)
//!              | 0x01 sender:pid send_ts:ivarint view oal alive:uvarint              (decision)
//!              | 0x02 sender:pid send_ts:ivarint suspect:pid view-id oal dpd
//!                     alive:uvarint                                                  (no-decision)
//!              | 0x03 sender:pid incarnation:uvarint send_ts:ivarint
//!                     n:uvarint (pid incarnation:uvarint)*n alive:uvarint            (join)
//!              | 0x04 sender:pid send_ts:ivarint n:uvarint pid*n
//!                     last_decision_ts:ivarint view-id oal dpd alive:uvarint         (reconfiguration)
//!              | 0x05 0x00 sender:pid rid:uvarint hw_send:ivarint                    (clock-sync request)
//!              | 0x05 0x01 sender:pid rid:uvarint hw_send_echo:ivarint
//!                     sync_at_reply:ivarint synced:bool                              (clock-sync reply)
//!              | 0x06 sender:pid to:pid view-id app_state:bytes n:uvarint proposal*n
//!                     n:uvarint (pid next:uvarint)*n
//!                     n:uvarint (proposal-id ordinal:uvarint)*n                      (state transfer)
//!              | 0x07 sender:pid send_ts:ivarint n:uvarint proposal-id*n             (nack)
//! proposal    := sender:pid incarnation:uvarint seq:uvarint send_ts:ivarint
//!                hdo:uvarint semantics payload:bytes
//! dpd         := n:uvarint (proposal-id hdo:uvarint semantics send_ts:ivarint)*n
//! view        := view-id n:uvarint pid*n
//! view-id     := seq:uvarint creator:pid
//! proposal-id := proposer:pid seq:uvarint
//! semantics   := ordering:u8 atomicity:u8      (0 unordered/weak, 1 total/strong, 2 time/strict)
//! pid         := uvarint                       (≤ 65 535)
//! bytes       := len:uvarint byte*len
//! bool        := 0x00 | 0x01
//! uvarint     := unsigned LEB128, ≤ 10 bytes
//! ivarint     := zigzag(i64) as uvarint
//! ```
//!
//! The oal carried by decisions, no-decisions and reconfigurations is
//! the one field that is not a plain field list: consecutive update
//! descriptors differ in almost nothing, so the window travels as
//! **delta-coded runs** (see [`MAX_OAL_WINDOW`] for the expansion bound):
//!
//! ```text
//! oal      := next:uvarint len:uvarint entry*     (entries expand to exactly len descriptors)
//! entry    := 0x01 view acks:uvarint undeliverable:bool          (membership, verbatim)
//!           | flags:u8 [proposer:uvarint] [seq:uvarint] [hdo] [mode:u8]
//!             [acks:uvarint] ts [count:uvarint stride:ivarint]   (update, or a run of them)
//! flags    := 0x02 PROPOSER | 0x04 SEQ | 0x08 HDO | 0x10 MODE
//!           | 0x20 ACKS | 0x40 ABS | 0x80 RUN
//! hdo, ts  := ivarint delta against the previous update entry,
//!             or the absolute value (uvarint / ivarint) when ABS is set
//! mode     := ordering | atomicity << 2 | undeliverable << 4
//! ```
//!
//! A field whose flag is clear repeats the previous update entry's
//! value (initially: proposer 0, hdo 0, unordered/weak, deliverable, no
//! acks, timestamp 0); a clear SEQ means one more than the last
//! sequence number this block carried for the proposer. RUN appends
//! `count` further descriptors that differ from the entry's first only
//! in `seq + 1` and `ts + stride` each.
//!
//! An [`Oal`] is held in memory as these entries
//! ([`crate::oal::Entry`]: an [`UpdateRun`] or a verbatim membership
//! descriptor), so both directions cost the runs, not the window:
//! decoding builds the entries without expanding a run, and encoding
//! folds the held runs greedily, as if each were expanded descriptor by
//! descriptor — the bytes are those of the descriptors, whatever cuts
//! acknowledgements left in the held runs.
//!
//! A proposal frame is a run too: each continuation `(ts-delta,
//! payload)` after the first proposal is one more proposal with the
//! previous one's sender, incarnation, hdo and semantics, sequence
//! number `seq + 1` and send timestamp `send_ts + ts-delta`; the frame
//! length says where the run ends. [`FrameBuilder::push_msg`] extends
//! the open run with every proposal that continues it, and only when
//! the continuation is no longer than the frame of its own it replaces,
//! so a datagram is never longer than its messages framed one each.
//! Every continuation takes at least two bytes, so a frame expands to at
//! most half its length in proposals.
//!
//! Encoding goes through a [`WireCursor`] writing into a **caller-owned
//! `Vec<u8>` scratch** that is reused across sends — steady-state sending
//! allocates nothing. Decoding goes through a [`FrameRef`], a borrowed
//! cursor over `&[u8]`: parsing never copies the datagram; only the
//! variable-length payload fields of an owned [`Msg`] are copied out of
//! the frame at the very end. Decoding is total: any byte string either
//! decodes or returns a [`WireError`], never panics.
//!
//! The two cursors are also how everything else that leaves a process
//! is written — trace events in recordings and `/trace` streams
//! (`tw-obs`) — so there is one set of primitives, one error type and
//! one set of bounds.
//!
//! [`FrameBuilder`] writes each frame's length prefix in the fewest
//! LEB128 bytes: it reserves one byte and, when the body outgrows what
//! the prefix can say (127 bytes, then 16 383, …), moves the body right
//! to make room — at most once per length class, however many
//! continuations a run takes. [`WireCursor::begin_frame`]/[`WireCursor::end_frame`],
//! which the recording format frames its events with, keep a padded
//! 4-byte prefix patched in place. LEB128 tolerates such non-canonical
//! encodings; the decoder accepts any valid LEB128 length.
//!
//! Version policy: a datagram's first byte is [`VERSION_BYTE`]
//! (`0xD0 | version`). Receivers reject any other leading byte — other
//! framed versions, and the message tags `0..=7` that led the retired
//! unframed format — with [`WireError::BadVersion`]; there is no silent
//! fallback; see DESIGN.md §12 for the compatibility policy.

use crate::ids::{Incarnation, Ordinal, ProcessId, ProposalId};
use crate::messages::{
    ClockSyncMsg, Decision, Join, Msg, Nack, NoDecision, Proposal, Reconfig, StateTransfer,
    UpdateDesc,
};
use crate::oal::{AckBits, Entry, Oal, UpdateRun};
use crate::semantics::{Atomicity, Ordering, Semantics};
use crate::time::{HwTime, SyncTime};
use crate::view::{View, ViewId};
use bytes::Bytes;
use std::fmt;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// An unknown variant tag.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeding the sanity limit.
    TooLong {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: usize,
    },
    /// Trailing bytes after a complete message.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
    /// A framed datagram whose leading version byte is not a version
    /// this build understands (see [`WIRE_VERSION`]).
    BadVersion {
        /// The offending first byte.
        found: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => write!(f, "unexpected eof decoding {what}"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} decoding {what}"),
            WireError::TooLong { what, len } => write!(f, "length {len} too long decoding {what}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            WireError::BadVersion { found } => {
                write!(f, "unknown wire version byte {found:#04x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Current wire format version.
pub const WIRE_VERSION: u8 = 4;

/// First byte of every framed datagram: `0xD0 | WIRE_VERSION`. The high
/// nibble keeps it out of the message-tag space (`0..=7`).
pub const VERSION_BYTE: u8 = 0xD0 | WIRE_VERSION;

/// Sanity cap on a single frame's body length (bytes). Also the largest
/// value [`WireCursor::begin_frame`]'s padded 4-byte prefix can carry.
pub const MAX_FRAME_LEN: usize = (1 << 28) - 1;

/// Sanity cap on any decoded sequence length (items, not bytes).
const MAX_SEQ: usize = 1 << 20;

/// Most descriptors the oal blocks of one datagram may expand to.
///
/// A run count is a decompression step: a few bytes can stand for any
/// number of descriptors, so unlike every other sequence the expanded
/// size is not bounded by the datagram's. This cap is that bound — the
/// oal blocks of one datagram stand for at most this many descriptors
/// (under 2 MiB if a receiver expanded them all; decoding keeps them as
/// runs), whatever it claims. Senders must keep the window
/// under it: a larger one is rejected by every receiver as
/// [`WireError::TooLong`] and counted, like any undecodable datagram.
pub const MAX_OAL_WINDOW: usize = 1 << 15;

/// Longest legal LEB128 encoding of a u64.
const MAX_VARINT_BYTES: usize = 10;

// ---------------------------------------------------------------------------
// varint primitives
// ---------------------------------------------------------------------------

/// Append `v` to `buf` as unsigned LEB128 (1–10 bytes).
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Zigzag-map a signed value so small magnitudes encode small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A number that does not fit the integer it is decoded into, or that
/// arithmetic on wire-derived values pushed out of range.
fn out_of_range(what: &'static str) -> WireError {
    WireError::TooLong {
        what,
        len: usize::MAX,
    }
}

/// Decode an unsigned LEB128 value from the front of `buf`.
/// Returns `(value, bytes_consumed)`.
#[inline]
pub fn read_uvarint(buf: &[u8], what: &'static str) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate().take(MAX_VARINT_BYTES) {
        let data = (byte & 0x7F) as u64;
        // The 10th byte may only contribute the low bit of the 64-bit
        // value; anything more overflows.
        if shift == 63 && data > 1 {
            return Err(out_of_range(what));
        }
        value |= data << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    if buf.len() < MAX_VARINT_BYTES {
        Err(WireError::UnexpectedEof { what })
    } else {
        // 10 continuation bytes and still going: not a valid u64.
        Err(out_of_range(what))
    }
}

// ---------------------------------------------------------------------------
// WireCursor — the writer
// ---------------------------------------------------------------------------

/// Append-only encoder over a caller-owned `Vec<u8>` scratch.
///
/// The scratch is cleared by the *owner* (e.g. [`FrameBuilder::reset`]),
/// not the cursor, so one allocation serves many sends. All `put_*`
/// methods append; [`WireCursor::begin_frame`]/[`WireCursor::end_frame`]
/// bracket a frame whose length is patched in place when it closes.
pub struct WireCursor<'a> {
    buf: &'a mut Vec<u8>,
}

/// Handle returned by [`WireCursor::begin_frame`], consumed by
/// [`WireCursor::end_frame`].
#[derive(Debug)]
#[must_use = "an open frame must be closed with end_frame"]
pub struct FrameToken {
    len_at: usize,
}

impl<'a> WireCursor<'a> {
    /// Wrap a scratch buffer. Existing contents are kept (the cursor
    /// appends), so a datagram can be built incrementally.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        WireCursor { buf }
    }

    /// Bytes written so far (including anything already in the scratch).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the scratch is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append an unsigned LEB128 varint.
    #[inline]
    pub fn put_uvarint(&mut self, v: u64) {
        put_uvarint(self.buf, v);
    }

    /// Append a zigzag signed LEB128 varint.
    #[inline]
    pub fn put_ivarint(&mut self, v: i64) {
        put_uvarint(self.buf, zigzag(v));
    }

    /// Append a length-prefixed byte string (uvarint length + bytes).
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_uvarint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append `true`/`false` as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Open a frame: reserves a padded 4-byte LEB128 length prefix and
    /// returns the token [`WireCursor::end_frame`] needs to patch it.
    pub fn begin_frame(&mut self) -> FrameToken {
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0x80, 0x80, 0x80, 0x00]);
        FrameToken { len_at }
    }

    /// Close a frame: patch its length prefix with the number of body
    /// bytes written since [`WireCursor::begin_frame`].
    ///
    /// # Panics
    /// If the body exceeds [`MAX_FRAME_LEN`] — a frame that large cannot
    /// be a datagram and indicates a logic error in the caller.
    pub fn end_frame(&mut self, token: FrameToken) {
        let body_len = self.buf.len() - token.len_at - 4;
        assert!(
            body_len <= MAX_FRAME_LEN,
            "frame body exceeds MAX_FRAME_LEN"
        );
        let len = body_len as u32;
        self.buf[token.len_at] = (len & 0x7F) as u8 | 0x80;
        self.buf[token.len_at + 1] = ((len >> 7) & 0x7F) as u8 | 0x80;
        self.buf[token.len_at + 2] = ((len >> 14) & 0x7F) as u8 | 0x80;
        self.buf[token.len_at + 3] = ((len >> 21) & 0x7F) as u8;
    }
}

// ---------------------------------------------------------------------------
// FrameRef — the borrowed reader
// ---------------------------------------------------------------------------

/// A borrowed decoding cursor over `&[u8]` — one frame's body, or any
/// byte string being decoded in place.
///
/// Nothing is copied while parsing: [`FrameRef::take`] returns subslices
/// of the original datagram. Only when an owned [`Msg`] is materialized
/// are its payload fields ([`Bytes`]) copied out.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Descriptors oal blocks may still expand to ([`MAX_OAL_WINDOW`]
    /// for a fresh cursor; [`decode_datagram`] carries what is left from
    /// frame to frame so the bound holds per datagram).
    oal_budget: usize,
}

impl<'a> FrameRef<'a> {
    /// Wrap a byte string.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameRef {
            buf,
            pos: 0,
            oal_budget: MAX_OAL_WINDOW,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole frame was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// `Ok` when the whole frame was consumed, [`WireError::TrailingBytes`]
    /// otherwise — the last step of decoding a complete value.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }

    /// The full underlying frame body (position-independent).
    pub fn as_slice(&self) -> &'a [u8] {
        self.buf
    }

    /// Consume `n` bytes, returning them as a borrowed subslice.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let s = self.take(1, what)?;
        Ok(s[0])
    }

    /// Consume an unsigned LEB128 varint.
    #[inline]
    pub fn uvarint(&mut self, what: &'static str) -> Result<u64, WireError> {
        let (v, n) = read_uvarint(&self.buf[self.pos..], what)?;
        self.pos += n;
        Ok(v)
    }

    /// Consume a zigzag signed LEB128 varint.
    #[inline]
    pub fn ivarint(&mut self, what: &'static str) -> Result<i64, WireError> {
        Ok(unzigzag(self.uvarint(what)?))
    }

    /// Consume a `u64` varint and narrow it, rejecting out-of-range.
    #[inline]
    pub fn narrow<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, WireError> {
        let v = self.uvarint(what)?;
        T::try_from(v).map_err(|_| out_of_range(what))
    }

    /// Consume a length-prefixed byte string as a borrowed subslice.
    #[inline]
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.uvarint(what)? as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::TooLong { what, len });
        }
        self.take(len, what)
    }

    /// Consume a boolean byte.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    /// Consume a sequence count, capped at the sanity limit.
    #[inline]
    fn seq_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let len = self.uvarint(what)? as usize;
        if len > MAX_SEQ {
            return Err(WireError::TooLong { what, len });
        }
        Ok(len)
    }
}

// ---------------------------------------------------------------------------
// Datagram framing
// ---------------------------------------------------------------------------

/// Builds multi-frame datagrams into a reusable scratch buffer.
///
/// One builder lives per sender; [`FrameBuilder::reset`] rewinds it
/// without freeing, so steady-state encoding allocates nothing. A
/// proposal that continues the one pushed just before it joins that
/// proposal's frame as a continuation (module docs give the rule).
#[derive(Debug, Default)]
pub struct FrameBuilder {
    buf: Vec<u8>,
    msgs: usize,
    /// The last frame, while it is a proposal run the next push may
    /// extend.
    run: Option<OpenRun>,
}

/// The proposal frame a [`FrameBuilder`] closed last.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    /// Offset of the frame's length prefix.
    at: usize,
    /// Bytes the length prefix takes.
    width: usize,
    /// The last proposal of the run.
    last: RunHead,
}

/// The fields a continuation is checked against.
#[derive(Debug, Clone, Copy)]
struct RunHead {
    sender: ProcessId,
    incarnation: Incarnation,
    seq: u64,
    send_ts: i64,
    hdo: Ordinal,
    semantics: Semantics,
}

impl RunHead {
    fn of(p: &Proposal) -> Self {
        RunHead {
            sender: p.sender,
            incarnation: p.incarnation,
            seq: p.seq,
            send_ts: p.send_ts.0,
            hdo: p.hdo,
            semantics: p.semantics,
        }
    }

    /// The timestamp delta that appends `p` to a run ending in `self`,
    /// if `p` continues it. The delta takes at most 8 bytes, never more
    /// than the eight-plus header bytes a frame of its own would spend,
    /// so a continuation is never longer than that frame.
    fn continued_by(&self, p: &Proposal) -> Option<i64> {
        if p.sender != self.sender
            || p.incarnation != self.incarnation
            || p.hdo != self.hdo
            || p.semantics != self.semantics
            || self.seq.checked_add(1) != Some(p.seq)
        {
            return None;
        }
        let delta = p.send_ts.0.checked_sub(self.send_ts)?;
        (zigzag(delta) < 1 << 56).then_some(delta)
    }
}

/// Bytes of the unsigned LEB128 encoding of `v`.
#[inline]
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Write the length of the frame whose prefix starts at `at` and takes
/// `width` bytes, in the fewest LEB128 bytes, moving the body right when
/// the length outgrew `width`. Returns the prefix's new width.
///
/// # Panics
/// If the body exceeds [`MAX_FRAME_LEN`] — a frame that large cannot
/// be a datagram and indicates a logic error in the caller.
#[inline]
fn close_frame(buf: &mut Vec<u8>, at: usize, width: usize) -> usize {
    let end = buf.len();
    let body = end - at - width;
    assert!(body <= MAX_FRAME_LEN, "frame body exceeds MAX_FRAME_LEN");
    let need = uvarint_len(body as u64);
    // A frame only grows, so its prefix never has to shrink.
    debug_assert!(need >= width);
    if need > width {
        buf.resize(end + need - width, 0);
        buf.copy_within(at + width..end, at + need);
    }
    let mut v = body;
    for b in &mut buf[at..at + need - 1] {
        *b = (v & 0x7F) as u8 | 0x80;
        v >>= 7;
    }
    buf[at + need - 1] = v as u8;
    need
}

impl FrameBuilder {
    /// An empty builder (no datagram open).
    pub fn new() -> Self {
        FrameBuilder {
            buf: Vec::with_capacity(1500),
            msgs: 0,
            run: None,
        }
    }

    /// Start a fresh datagram, reusing the allocation.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.buf.push(VERSION_BYTE);
        self.msgs = 0;
        self.run = None;
    }

    /// Append one message: as a continuation of the open proposal run
    /// when it continues it, as a frame of its own otherwise. Starts the
    /// datagram if needed.
    pub fn push_msg(&mut self, msg: &Msg) {
        if self.buf.is_empty() {
            self.reset();
        }
        self.msgs += 1;
        if let (Msg::Proposal(p), Some(run)) = (msg, &mut self.run) {
            if let Some(delta) = run.last.continued_by(p) {
                let mut w = WireCursor::new(&mut self.buf);
                w.put_ivarint(delta);
                w.put_bytes(&p.payload);
                run.width = close_frame(&mut self.buf, run.at, run.width);
                run.last = RunHead::of(p);
                return;
            }
        }
        let at = self.buf.len();
        self.buf.push(0);
        encode_msg(msg, &mut WireCursor::new(&mut self.buf));
        let width = close_frame(&mut self.buf, at, 1);
        self.run = match msg {
            Msg::Proposal(p) => Some(OpenRun {
                at,
                width,
                last: RunHead::of(p),
            }),
            _ => None,
        };
    }

    /// Messages in the current datagram (a proposal run counts each of
    /// its proposals).
    pub fn msgs(&self) -> usize {
        self.msgs
    }

    /// True when nothing has been pushed since the last reset.
    pub fn is_empty(&self) -> bool {
        self.msgs == 0
    }

    /// The encoded datagram (version byte + frames).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

impl Clone for FrameBuilder {
    fn clone(&self) -> Self {
        FrameBuilder {
            buf: self.buf.clone(),
            msgs: self.msgs,
            run: self.run,
        }
    }

    /// Copy `source`'s datagram and open run into this builder's
    /// allocation: pushing the same messages into both afterwards gives
    /// the same bytes.
    fn clone_from(&mut self, source: &Self) {
        self.buf.clone_from(&source.buf);
        self.msgs = source.msgs;
        self.run = source.run;
    }
}

/// Iterator over the frames of one datagram, yielding borrowed
/// [`FrameRef`] cursors positioned at each frame body.
pub struct FrameIter<'a> {
    rest: &'a [u8],
    failed: bool,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Result<FrameRef<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        let (len, n) = match read_uvarint(self.rest, "frame length") {
            Ok(v) => v,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        let len = len as usize;
        if len > MAX_FRAME_LEN {
            self.failed = true;
            return Some(Err(WireError::TooLong {
                what: "frame length",
                len,
            }));
        }
        if self.rest.len() - n < len {
            self.failed = true;
            return Some(Err(WireError::UnexpectedEof { what: "frame body" }));
        }
        let body = &self.rest[n..n + len];
        self.rest = &self.rest[n + len..];
        Some(Ok(FrameRef::new(body)))
    }
}

/// Open a framed datagram: check the version byte and return the frame
/// iterator. Rejects every leading byte other than [`VERSION_BYTE`].
pub fn open_datagram(dgram: &[u8]) -> Result<FrameIter<'_>, WireError> {
    let Some((&first, rest)) = dgram.split_first() else {
        return Err(WireError::UnexpectedEof { what: "datagram" });
    };
    if first != VERSION_BYTE {
        return Err(WireError::BadVersion { found: first });
    }
    Ok(FrameIter {
        rest,
        failed: false,
    })
}

/// Decode every message of a framed datagram, a proposal run expanded
/// into its proposals. The returned messages own their payloads (copied
/// per field); everything else decodes straight off the borrowed input.
/// A datagram with zero frames is an error — senders never emit one, so
/// it can only be truncation.
pub fn decode_datagram(dgram: &[u8]) -> Result<Vec<Msg>, WireError> {
    let mut out = Vec::new();
    let mut oal_budget = MAX_OAL_WINDOW;
    for frame in open_datagram(dgram)? {
        let mut f = frame?;
        f.oal_budget = oal_budget;
        decode_msg(&mut f, &mut out)?;
        oal_budget = f.oal_budget;
        f.finish()?;
    }
    if out.is_empty() {
        return Err(WireError::UnexpectedEof { what: "datagram" });
    }
    Ok(out)
}

/// Encode one message as a complete single-frame datagram (convenience
/// for paths without a long-lived [`FrameBuilder`]).
pub fn encode_single(msg: &Msg) -> Vec<u8> {
    let mut b = FrameBuilder::new();
    b.push_msg(msg);
    b.bytes().to_vec()
}

// ---------------------------------------------------------------------------
// message codec
// ---------------------------------------------------------------------------

/// Append a `pid`.
pub fn put_pid(w: &mut WireCursor, p: ProcessId) {
    w.put_uvarint(p.0 as u64);
}

/// Consume a `pid`.
pub fn get_pid(f: &mut FrameRef<'_>) -> Result<ProcessId, WireError> {
    Ok(ProcessId(f.narrow::<u16>("process-id")?))
}

/// Append a `proposal-id`.
pub fn put_proposal_id(w: &mut WireCursor, id: &ProposalId) {
    put_pid(w, id.proposer);
    w.put_uvarint(id.seq);
}

/// Consume a `proposal-id`.
pub fn get_proposal_id(f: &mut FrameRef<'_>) -> Result<ProposalId, WireError> {
    Ok(ProposalId {
        proposer: get_pid(f)?,
        seq: f.uvarint("proposal-seq")?,
    })
}

fn ordering_tag(o: Ordering) -> u8 {
    match o {
        Ordering::Unordered => 0,
        Ordering::Total => 1,
        Ordering::Time => 2,
    }
}

fn ordering_of(tag: u8) -> Result<Ordering, WireError> {
    match tag {
        0 => Ok(Ordering::Unordered),
        1 => Ok(Ordering::Total),
        2 => Ok(Ordering::Time),
        tag => Err(WireError::BadTag {
            what: "ordering",
            tag,
        }),
    }
}

fn atomicity_tag(a: Atomicity) -> u8 {
    match a {
        Atomicity::Weak => 0,
        Atomicity::Strong => 1,
        Atomicity::Strict => 2,
    }
}

fn atomicity_of(tag: u8) -> Result<Atomicity, WireError> {
    match tag {
        0 => Ok(Atomicity::Weak),
        1 => Ok(Atomicity::Strong),
        2 => Ok(Atomicity::Strict),
        tag => Err(WireError::BadTag {
            what: "atomicity",
            tag,
        }),
    }
}

/// Append a `semantics` pair.
pub fn put_semantics(w: &mut WireCursor, s: &Semantics) {
    w.put_u8(ordering_tag(s.ordering));
    w.put_u8(atomicity_tag(s.atomicity));
}

/// Consume a `semantics` pair.
pub fn get_semantics(f: &mut FrameRef<'_>) -> Result<Semantics, WireError> {
    Ok(Semantics {
        ordering: ordering_of(f.u8("ordering")?)?,
        atomicity: atomicity_of(f.u8("atomicity")?)?,
    })
}

/// Append a `view-id`.
pub fn put_view_id(w: &mut WireCursor, id: &ViewId) {
    w.put_uvarint(id.seq);
    put_pid(w, id.creator);
}

/// Consume a `view-id`.
pub fn get_view_id(f: &mut FrameRef<'_>) -> Result<ViewId, WireError> {
    Ok(ViewId {
        seq: f.uvarint("view-seq")?,
        creator: get_pid(f)?,
    })
}

fn put_view(w: &mut WireCursor, v: &View) {
    put_view_id(w, &v.id);
    let members = v.member_vec();
    w.put_uvarint(members.len() as u64);
    for m in members {
        put_pid(w, m);
    }
}

fn get_view(f: &mut FrameRef<'_>) -> Result<View, WireError> {
    let id = get_view_id(f)?;
    let len = f.seq_len("view members")?;
    let mut members = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        members.push(get_pid(f)?);
    }
    Ok(View::new(id, members))
}

fn put_update_desc(w: &mut WireCursor, d: &UpdateDesc) {
    put_proposal_id(w, &d.id);
    w.put_uvarint(d.hdo.0);
    put_semantics(w, &d.semantics);
    w.put_ivarint(d.send_ts.0);
}

fn get_update_desc(f: &mut FrameRef<'_>) -> Result<UpdateDesc, WireError> {
    Ok(UpdateDesc {
        id: get_proposal_id(f)?,
        hdo: Ordinal(f.uvarint("hdo")?),
        semantics: get_semantics(f)?,
        send_ts: SyncTime(f.ivarint("send-ts")?),
    })
}

/// Flag bits of one oal entry (module docs give the grammar).
mod oal_flag {
    pub const MEMBERSHIP: u8 = 0x01;
    pub const PROPOSER: u8 = 0x02;
    pub const SEQ: u8 = 0x04;
    pub const HDO: u8 = 0x08;
    pub const MODE: u8 = 0x10;
    pub const ACKS: u8 = 0x20;
    pub const ABS: u8 = 0x40;
    pub const RUN: u8 = 0x80;
}

/// An update descriptor flattened to the fields the oal block codes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct UpdateEntry {
    proposer: ProcessId,
    seq: u64,
    hdo: u64,
    semantics: Semantics,
    undeliverable: bool,
    acks: AckBits,
    ts: i64,
}

impl UpdateEntry {
    /// The `i`-th update of `r`.
    fn of(r: &UpdateRun, i: u64) -> UpdateEntry {
        UpdateEntry {
            proposer: r.first.proposer,
            seq: r.first.seq + i,
            hdo: r.hdo.0,
            semantics: r.semantics,
            undeliverable: r.undeliverable,
            acks: r.acks,
            ts: r.ts(i).0,
        }
    }

    /// `ordering | atomicity << 2 | undeliverable << 4`.
    fn mode(&self) -> u8 {
        ordering_tag(self.semantics.ordering)
            | atomicity_tag(self.semantics.atomicity) << 2
            | (self.undeliverable as u8) << 4
    }

    fn set_mode(&mut self, mode: u8) -> Result<(), WireError> {
        if mode >> 5 != 0 {
            return Err(WireError::BadTag {
                what: "oal mode",
                tag: mode,
            });
        }
        self.semantics = Semantics {
            ordering: ordering_of(mode & 0b11)?,
            atomicity: atomicity_of((mode >> 2) & 0b11)?,
        };
        self.undeliverable = mode & 0x10 != 0;
        Ok(())
    }
}

/// What encoder and decoder both remember while walking an oal block:
/// the previous update entry, and per proposer the last sequence number
/// carried (a direct-mapped table over the team-size bound; two
/// proposers sharing a slot only cost explicit sequence numbers).
struct OalContext {
    prev: UpdateEntry,
    last_seq: [u64; AckBits::MAX_TEAM],
}

impl OalContext {
    fn new() -> Self {
        OalContext {
            prev: UpdateEntry {
                proposer: ProcessId(0),
                seq: 0,
                hdo: 0,
                semantics: Semantics::default(),
                undeliverable: false,
                acks: AckBits::EMPTY,
                ts: 0,
            },
            last_seq: [0; AckBits::MAX_TEAM],
        }
    }

    fn last_seq(&mut self, p: ProcessId) -> &mut u64 {
        &mut self.last_seq[p.rank() % AckBits::MAX_TEAM]
    }
}

/// Write the oal block. The window is held as runs already; the block
/// folds them again, greedily, descriptor after descriptor — as if every
/// run were expanded — so the bytes depend on the descriptors alone,
/// never on where the held runs happen to be cut. Costs the held runs.
fn put_oal(w: &mut WireCursor, oal: &Oal) {
    debug_assert!(oal.len() <= MAX_OAL_WINDOW, "oal window over the wire cap");
    w.put_uvarint(oal.next_ordinal().0);
    w.put_uvarint(oal.len() as u64);
    let mut ctx = OalContext::new();
    // The run being folded: started at one descriptor, it takes every
    // follower that continues it at the stride of the first follower.
    let mut open: Option<UpdateRun> = None;
    for (_, e) in oal.runs() {
        let mut rest = match e {
            Entry::Updates(r) => *r,
            Entry::Membership {
                view,
                acks,
                undeliverable,
            } => {
                if let Some(r) = open.take() {
                    put_update_run(w, &mut ctx, &r);
                }
                w.put_u8(oal_flag::MEMBERSHIP);
                put_view(w, view);
                w.put_uvarint(acks.0);
                w.put_bool(*undeliverable);
                continue;
            }
        };
        loop {
            if let Some(cur) = &mut open {
                if let Some(stride) = cur.continued_by(&rest) {
                    cur.extend(&rest, stride);
                    break;
                }
                // Its first descriptor alone may still continue the
                // open run (at a stride the rest does not keep).
                let head = rest.slice(0, 1);
                let stride = (rest.count > 1).then(|| cur.continued_by(&head));
                if let Some(Some(stride)) = stride {
                    cur.extend(&head, stride);
                    rest = rest.slice(1, rest.count - 1);
                    continue;
                }
                put_update_run(w, &mut ctx, cur);
            }
            // A held run continues itself: from its first descriptor on,
            // the fold takes all of it.
            open = Some(rest);
            break;
        }
    }
    if let Some(r) = open {
        put_update_run(w, &mut ctx, &r);
    }
}

/// Write one update entry: the run's first descriptor against the
/// context, then the run's length and stride if it has followers.
fn put_update_run(w: &mut WireCursor, ctx: &mut OalContext, r: &UpdateRun) {
    let (first, last) = (UpdateEntry::of(r, 0), UpdateEntry::of(r, r.count - 1));
    let count = r.count - 1;
    let prev = ctx.prev;
    let hdo_delta = i64::try_from(first.hdo as i128 - prev.hdo as i128).ok();
    let (abs, hdo, ts) = match (hdo_delta, first.ts.checked_sub(prev.ts)) {
        (Some(hdo), Some(ts)) => (false, zigzag(hdo), ts),
        _ => (true, first.hdo, first.ts),
    };
    let mut flags = 0u8;
    if first.proposer != prev.proposer {
        flags |= oal_flag::PROPOSER;
    }
    if ctx.last_seq(first.proposer).checked_add(1) != Some(first.seq) {
        flags |= oal_flag::SEQ;
    }
    if first.hdo != prev.hdo {
        flags |= oal_flag::HDO;
    }
    if first.mode() != prev.mode() {
        flags |= oal_flag::MODE;
    }
    if first.acks != prev.acks {
        flags |= oal_flag::ACKS;
    }
    if abs {
        flags |= oal_flag::ABS;
    }
    if count > 0 {
        flags |= oal_flag::RUN;
    }
    w.put_u8(flags);
    if flags & oal_flag::PROPOSER != 0 {
        put_pid(w, first.proposer);
    }
    if flags & oal_flag::SEQ != 0 {
        w.put_uvarint(first.seq);
    }
    if flags & oal_flag::HDO != 0 {
        w.put_uvarint(hdo);
    }
    if flags & oal_flag::MODE != 0 {
        w.put_u8(first.mode());
    }
    if flags & oal_flag::ACKS != 0 {
        w.put_uvarint(first.acks.0);
    }
    w.put_ivarint(ts);
    if count > 0 {
        w.put_uvarint(count);
        w.put_ivarint(r.stride);
    }
    *ctx.last_seq(last.proposer) = last.seq;
    ctx.prev = last;
}

/// The first of `count` steps from `e` by `+1` in sequence number and
/// `+stride` in time that leaves the integers they are held in, as the
/// error that step raises (the sequence number is checked first).
fn run_overflow(e: &UpdateEntry, count: u64, stride: i64) -> Option<WireError> {
    let seq_room = u64::MAX - e.seq;
    let ts_room = match stride {
        0 => u64::MAX,
        s if s > 0 => ((i64::MAX as i128 - e.ts as i128) / s as i128) as u64,
        s => ((e.ts as i128 - i64::MIN as i128) / -(s as i128)) as u64,
    };
    match (count > seq_room, count > ts_room) {
        (true, ts) if !ts || seq_room <= ts_room => Some(out_of_range("proposal-seq")),
        (_, true) => Some(out_of_range("send-ts")),
        _ => None,
    }
}

fn get_oal(f: &mut FrameRef<'_>) -> Result<Oal, WireError> {
    let next = Ordinal(f.uvarint("oal next")?);
    let len = f.seq_len("oal")?;
    if len > f.oal_budget || (len as u64) >= next.0.max(1) {
        // Over the expansion cap, or a window longer than the assigned
        // range: nonsense either way.
        return Err(WireError::TooLong { what: "oal", len });
    }
    f.oal_budget -= len;
    let mut oal = Oal::starting_at(Ordinal(next.0 - len as u64));
    let mut ctx = OalContext::new();
    while oal.next_ordinal() < next {
        let flags = f.u8("oal entry")?;
        if flags & oal_flag::MEMBERSHIP != 0 {
            if flags != oal_flag::MEMBERSHIP {
                return Err(WireError::BadTag {
                    what: "oal entry",
                    tag: flags,
                });
            }
            oal.push(Entry::Membership {
                view: get_view(f)?,
                acks: AckBits(f.uvarint("acks")?),
                undeliverable: f.bool("undeliverable")?,
            });
            continue;
        }
        let abs = flags & oal_flag::ABS != 0;
        let mut e = ctx.prev;
        if flags & oal_flag::PROPOSER != 0 {
            e.proposer = get_pid(f)?;
        }
        e.seq = if flags & oal_flag::SEQ != 0 {
            f.uvarint("proposal-seq")?
        } else {
            ctx.last_seq(e.proposer)
                .checked_add(1)
                .ok_or(out_of_range("proposal-seq"))?
        };
        if flags & oal_flag::HDO != 0 {
            e.hdo = if abs {
                f.uvarint("hdo")?
            } else {
                e.hdo
                    .checked_add_signed(f.ivarint("hdo")?)
                    .ok_or(out_of_range("hdo"))?
            };
        }
        if flags & oal_flag::MODE != 0 {
            e.set_mode(f.u8("oal mode")?)?;
        }
        if flags & oal_flag::ACKS != 0 {
            e.acks = AckBits(f.uvarint("acks")?);
        }
        e.ts = if abs {
            f.ivarint("send-ts")?
        } else {
            e.ts.checked_add(f.ivarint("send-ts")?)
                .ok_or(out_of_range("send-ts"))?
        };
        let (mut count, mut stride) = (0, 0);
        if flags & oal_flag::RUN != 0 {
            count = f.uvarint("oal run")?;
            let room = next.0 - oal.next_ordinal().0 - 1;
            if count > room {
                return Err(WireError::TooLong {
                    what: "oal run",
                    len: usize::try_from(count).unwrap_or(usize::MAX),
                });
            }
            stride = f.ivarint("oal stride")?;
            if let Some(err) = run_overflow(&e, count, stride) {
                return Err(err);
            }
        }
        oal.push(Entry::Updates(UpdateRun {
            first: ProposalId::new(e.proposer, e.seq),
            count: count + 1,
            hdo: Ordinal(e.hdo),
            semantics: e.semantics,
            send_ts: SyncTime(e.ts),
            stride: if count > 0 { stride } else { 0 },
            acks: e.acks,
            undeliverable: e.undeliverable,
        }));
        e.seq += count;
        e.ts = (e.ts as i128 + count as i128 * stride as i128) as i64;
        *ctx.last_seq(e.proposer) = e.seq;
        ctx.prev = e;
    }
    oal.check();
    Ok(oal)
}

fn put_proposal(w: &mut WireCursor, p: &Proposal) {
    put_pid(w, p.sender);
    w.put_uvarint(p.incarnation.0 as u64);
    w.put_uvarint(p.seq);
    w.put_ivarint(p.send_ts.0);
    w.put_uvarint(p.hdo.0);
    put_semantics(w, &p.semantics);
    w.put_bytes(&p.payload);
}

fn get_proposal(f: &mut FrameRef<'_>) -> Result<Proposal, WireError> {
    Ok(Proposal {
        sender: get_pid(f)?,
        incarnation: Incarnation(f.narrow::<u32>("incarnation")?),
        seq: f.uvarint("seq")?,
        send_ts: SyncTime(f.ivarint("send-ts")?),
        hdo: Ordinal(f.uvarint("hdo")?),
        semantics: get_semantics(f)?,
        // The single point where payload bytes are copied out of the
        // borrowed frame into the owned message.
        payload: Bytes::copy_from_slice(f.bytes("payload")?),
    })
}

/// Consume a proposal and every continuation after it, up to the end
/// of the frame.
fn get_proposal_run(f: &mut FrameRef<'_>, out: &mut Vec<Msg>) -> Result<(), WireError> {
    let mut p = get_proposal(f)?;
    while !f.is_exhausted() {
        let delta = f.ivarint("send-ts delta")?;
        let next = Proposal {
            seq: p.seq.checked_add(1).ok_or(out_of_range("seq"))?,
            send_ts: SyncTime(
                p.send_ts
                    .0
                    .checked_add(delta)
                    .ok_or(out_of_range("send-ts"))?,
            ),
            payload: Bytes::copy_from_slice(f.bytes("payload")?),
            ..p
        };
        out.push(Msg::Proposal(std::mem::replace(&mut p, next)));
    }
    out.push(Msg::Proposal(p));
    Ok(())
}

/// Encode `msg` (tag byte + body) through the cursor. Framing, and
/// folding proposals into runs, is the caller's concern
/// ([`FrameBuilder::push_msg`] does both).
pub fn encode_msg(msg: &Msg, w: &mut WireCursor) {
    match msg {
        Msg::Proposal(p) => {
            w.put_u8(0);
            put_proposal(w, p);
        }
        Msg::Decision(d) => {
            w.put_u8(1);
            put_pid(w, d.sender);
            w.put_ivarint(d.send_ts.0);
            put_view(w, &d.view);
            put_oal(w, &d.oal);
            w.put_uvarint(d.alive.0);
        }
        Msg::NoDecision(nd) => {
            w.put_u8(2);
            put_pid(w, nd.sender);
            w.put_ivarint(nd.send_ts.0);
            put_pid(w, nd.suspect);
            put_view_id(w, &nd.view_id);
            put_oal(w, &nd.oal_view);
            w.put_uvarint(nd.dpd.len() as u64);
            for d in &nd.dpd {
                put_update_desc(w, d);
            }
            w.put_uvarint(nd.alive.0);
        }
        Msg::Join(j) => {
            w.put_u8(3);
            put_pid(w, j.sender);
            w.put_uvarint(j.incarnation.0 as u64);
            w.put_ivarint(j.send_ts.0);
            w.put_uvarint(j.join_list.len() as u64);
            for (p, inc) in &j.join_list {
                put_pid(w, *p);
                w.put_uvarint(inc.0 as u64);
            }
            w.put_uvarint(j.alive.0);
        }
        Msg::Reconfig(r) => {
            w.put_u8(4);
            put_pid(w, r.sender);
            w.put_ivarint(r.send_ts.0);
            w.put_uvarint(r.reconfig_list.len() as u64);
            for p in &r.reconfig_list {
                put_pid(w, *p);
            }
            w.put_ivarint(r.last_decision_ts.0);
            put_view_id(w, &r.last_view);
            put_oal(w, &r.oal_view);
            w.put_uvarint(r.dpd.len() as u64);
            for d in &r.dpd {
                put_update_desc(w, d);
            }
            w.put_uvarint(r.alive.0);
        }
        Msg::ClockSync(cs) => {
            w.put_u8(5);
            match cs {
                ClockSyncMsg::Request {
                    sender,
                    rid,
                    hw_send,
                } => {
                    w.put_u8(0);
                    put_pid(w, *sender);
                    w.put_uvarint(*rid);
                    w.put_ivarint(hw_send.0);
                }
                ClockSyncMsg::Reply {
                    sender,
                    rid,
                    hw_send_echo,
                    sync_at_reply,
                    synced,
                } => {
                    w.put_u8(1);
                    put_pid(w, *sender);
                    w.put_uvarint(*rid);
                    w.put_ivarint(hw_send_echo.0);
                    w.put_ivarint(sync_at_reply.0);
                    w.put_bool(*synced);
                }
            }
        }
        Msg::StateTransfer(st) => {
            w.put_u8(6);
            put_pid(w, st.sender);
            put_pid(w, st.to);
            put_view_id(w, &st.view_id);
            w.put_bytes(&st.app_state);
            w.put_uvarint(st.proposals.len() as u64);
            for p in &st.proposals {
                put_proposal(w, p);
            }
            w.put_uvarint(st.fifo.len() as u64);
            for (p, next) in &st.fifo {
                put_pid(w, *p);
                w.put_uvarint(*next);
            }
            w.put_uvarint(st.ordinals.len() as u64);
            for (id, o) in &st.ordinals {
                put_proposal_id(w, id);
                w.put_uvarint(o.0);
            }
        }
        Msg::Nack(nk) => {
            w.put_u8(7);
            put_pid(w, nk.sender);
            w.put_ivarint(nk.send_ts.0);
            w.put_uvarint(nk.missing.len() as u64);
            for id in &nk.missing {
                put_proposal_id(w, id);
            }
        }
    }
}

/// Decode one frame body (tag byte + fields) from a frame cursor into
/// `out`: one message, or every proposal of a run. The caller checks
/// [`FrameRef::is_exhausted`] afterwards if trailing bytes must be
/// rejected (a proposal run consumes the whole frame).
fn decode_msg(f: &mut FrameRef<'_>, out: &mut Vec<Msg>) -> Result<(), WireError> {
    let msg = match f.u8("msg")? {
        0 => return get_proposal_run(f, out),
        1 => Msg::Decision(Decision {
            sender: get_pid(f)?,
            send_ts: SyncTime(f.ivarint("send-ts")?),
            view: get_view(f)?,
            oal: get_oal(f)?,
            alive: AckBits(f.uvarint("alive")?),
        }),
        2 => {
            let sender = get_pid(f)?;
            let send_ts = SyncTime(f.ivarint("send-ts")?);
            let suspect = get_pid(f)?;
            let view_id = get_view_id(f)?;
            let oal_view = get_oal(f)?;
            let len = f.seq_len("dpd")?;
            let mut dpd = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                dpd.push(get_update_desc(f)?);
            }
            Msg::NoDecision(NoDecision {
                sender,
                send_ts,
                suspect,
                view_id,
                oal_view,
                dpd,
                alive: AckBits(f.uvarint("alive")?),
            })
        }
        3 => {
            let sender = get_pid(f)?;
            let incarnation = Incarnation(f.narrow::<u32>("incarnation")?);
            let send_ts = SyncTime(f.ivarint("send-ts")?);
            let len = f.seq_len("join-list")?;
            let mut join_list = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                let p = get_pid(f)?;
                let inc = Incarnation(f.narrow::<u32>("incarnation")?);
                join_list.push((p, inc));
            }
            Msg::Join(Join {
                sender,
                incarnation,
                send_ts,
                join_list,
                alive: AckBits(f.uvarint("alive")?),
            })
        }
        4 => {
            let sender = get_pid(f)?;
            let send_ts = SyncTime(f.ivarint("send-ts")?);
            let len = f.seq_len("reconfig-list")?;
            let mut reconfig_list = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                reconfig_list.push(get_pid(f)?);
            }
            let last_decision_ts = SyncTime(f.ivarint("last-decision-ts")?);
            let last_view = get_view_id(f)?;
            let oal_view = get_oal(f)?;
            let dlen = f.seq_len("dpd")?;
            let mut dpd = Vec::with_capacity(dlen.min(1024));
            for _ in 0..dlen {
                dpd.push(get_update_desc(f)?);
            }
            Msg::Reconfig(Reconfig {
                sender,
                send_ts,
                reconfig_list,
                last_decision_ts,
                last_view,
                oal_view,
                dpd,
                alive: AckBits(f.uvarint("alive")?),
            })
        }
        5 => match f.u8("clock-sync")? {
            0 => Msg::ClockSync(ClockSyncMsg::Request {
                sender: get_pid(f)?,
                rid: f.uvarint("rid")?,
                hw_send: HwTime(f.ivarint("hw-send")?),
            }),
            1 => Msg::ClockSync(ClockSyncMsg::Reply {
                sender: get_pid(f)?,
                rid: f.uvarint("rid")?,
                hw_send_echo: HwTime(f.ivarint("hw-send-echo")?),
                sync_at_reply: SyncTime(f.ivarint("sync-at-reply")?),
                synced: f.bool("synced")?,
            }),
            tag => {
                return Err(WireError::BadTag {
                    what: "clock-sync",
                    tag,
                })
            }
        },
        6 => {
            let sender = get_pid(f)?;
            let to = get_pid(f)?;
            let view_id = get_view_id(f)?;
            let app_state = Bytes::copy_from_slice(f.bytes("app-state")?);
            let plen = f.seq_len("proposals")?;
            let mut proposals = Vec::with_capacity(plen.min(1024));
            for _ in 0..plen {
                proposals.push(get_proposal(f)?);
            }
            let flen = f.seq_len("fifo")?;
            let mut fifo = Vec::with_capacity(flen.min(1024));
            for _ in 0..flen {
                let p = get_pid(f)?;
                let next = f.uvarint("fifo-next")?;
                fifo.push((p, next));
            }
            let olen = f.seq_len("ordinals")?;
            let mut ordinals = Vec::with_capacity(olen.min(1024));
            for _ in 0..olen {
                let id = get_proposal_id(f)?;
                let o = Ordinal(f.uvarint("ordinal")?);
                ordinals.push((id, o));
            }
            Msg::StateTransfer(StateTransfer {
                sender,
                to,
                view_id,
                app_state,
                proposals,
                fifo,
                ordinals,
            })
        }
        7 => {
            let sender = get_pid(f)?;
            let send_ts = SyncTime(f.ivarint("send-ts")?);
            let len = f.seq_len("missing")?;
            let mut missing = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                missing.push(get_proposal_id(f)?);
            }
            Msg::Nack(Nack {
                sender,
                send_ts,
                missing,
            })
        }
        tag => return Err(WireError::BadTag { what: "msg", tag }),
    };
    out.push(msg);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oal::Descriptor;

    fn roundtrip(msg: &Msg) -> Msg {
        let dgram = encode_single(msg);
        let mut msgs = decode_datagram(&dgram).expect("decode");
        assert_eq!(msgs.len(), 1);
        msgs.pop().unwrap()
    }

    fn sample_view() -> View {
        View::new(
            ViewId::new(3, ProcessId(1)),
            [ProcessId(0), ProcessId(1), ProcessId(4)],
        )
    }

    fn sample_proposal(seq: u64) -> Proposal {
        Proposal {
            sender: ProcessId(2),
            incarnation: Incarnation(1),
            seq,
            send_ts: SyncTime(40 + seq as i64),
            hdo: Ordinal(3),
            semantics: Semantics::TOTAL_STRONG,
            payload: Bytes::from(vec![seq as u8; 5]),
        }
    }

    #[test]
    fn uvarint_boundaries() {
        for (v, len) in [
            (0u64, 1usize),
            (127, 1),
            (128, 2),
            (300, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), len, "length of {v}");
            let (back, n) = read_uvarint(&buf, "t").unwrap();
            assert_eq!((back, n), (v, len));
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(read_uvarint(&buf[..cut], "t").is_err(), "cut {cut}");
        }
        // Eleven continuation bytes: too long for u64.
        let long = [0x80u8; 11];
        assert!(matches!(
            read_uvarint(&long, "t"),
            Err(WireError::TooLong { .. })
        ));
        // Ten bytes whose last contributes more than one bit: overflow.
        let mut over = [0x80u8; 10];
        over[9] = 0x02;
        assert!(matches!(
            read_uvarint(&over, "t"),
            Err(WireError::TooLong { .. })
        ));
    }

    #[test]
    fn padded_length_prefix_is_valid_leb128() {
        let mut buf = Vec::new();
        let mut w = WireCursor::new(&mut buf);
        let t = w.begin_frame();
        w.put_u8(0xAB);
        w.end_frame(t);
        let (len, n) = read_uvarint(&buf, "t").unwrap();
        assert_eq!((len, n), (1, 4), "padded 4-byte prefix decodes");
        assert_eq!(buf[4], 0xAB);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -1_000_000, 1_000_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small on the wire.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, zigzag(-3));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn every_msg_kind_roundtrips() {
        let oal = Oal::new();
        let view = sample_view();
        let alive: AckBits = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let msgs = vec![
            Msg::Proposal(sample_proposal(7)),
            Msg::Decision(Decision {
                sender: ProcessId(0),
                send_ts: SyncTime(20),
                view: view.clone(),
                oal: oal.clone(),
                alive,
            }),
            Msg::NoDecision(NoDecision {
                sender: ProcessId(1),
                send_ts: SyncTime(30),
                suspect: ProcessId(0),
                view_id: view.id,
                oal_view: oal.clone(),
                dpd: vec![sample_proposal(1).desc()],
                alive,
            }),
            Msg::Join(Join {
                sender: ProcessId(2),
                incarnation: Incarnation(1),
                send_ts: SyncTime(40),
                join_list: vec![(ProcessId(2), Incarnation(1))],
                alive,
            }),
            Msg::Reconfig(Reconfig {
                sender: ProcessId(2),
                send_ts: SyncTime(50),
                reconfig_list: vec![ProcessId(1), ProcessId(2)],
                last_decision_ts: SyncTime(20),
                last_view: view.id,
                oal_view: oal.clone(),
                dpd: vec![],
                alive,
            }),
            Msg::ClockSync(ClockSyncMsg::Request {
                sender: ProcessId(0),
                rid: 3,
                hw_send: HwTime(-11),
            }),
            Msg::ClockSync(ClockSyncMsg::Reply {
                sender: ProcessId(0),
                rid: 3,
                hw_send_echo: HwTime(11),
                sync_at_reply: SyncTime(13),
                synced: true,
            }),
            Msg::StateTransfer(StateTransfer {
                sender: ProcessId(0),
                to: ProcessId(2),
                view_id: view.id,
                app_state: Bytes::from_static(b"state"),
                proposals: vec![sample_proposal(2)],
                fifo: vec![(ProcessId(0), 3)],
                ordinals: vec![(ProposalId::new(ProcessId(1), 4), Ordinal(9))],
            }),
            Msg::Nack(Nack {
                sender: ProcessId(1),
                send_ts: SyncTime(60),
                missing: vec![ProposalId::new(ProcessId(0), 2)],
            }),
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m), m);
        }
    }

    /// The oal block as the encoder wrote it while the window was a list
    /// of descriptors: fold them one by one. What [`put_oal`] must write
    /// whatever runs the window is held as.
    fn put_oal_by_descriptor(w: &mut WireCursor, oal: &Oal) {
        w.put_uvarint(oal.next_ordinal().0);
        w.put_uvarint(oal.len() as u64);
        let mut ctx = OalContext::new();
        let mut window = oal.iter().map(|(_, d)| Entry::from(d)).peekable();
        while let Some(e) = window.next() {
            let Entry::Updates(mut run) = e else {
                let Entry::Membership {
                    view,
                    acks,
                    undeliverable,
                } = e
                else {
                    unreachable!()
                };
                w.put_u8(oal_flag::MEMBERSHIP);
                put_view(w, &view);
                w.put_uvarint(acks.0);
                w.put_bool(undeliverable);
                continue;
            };
            while let Some(Entry::Updates(next)) = window.peek() {
                let Some(stride) = run.continued_by(next) else {
                    break;
                };
                run.extend(next, stride);
                window.next();
            }
            put_update_run(w, &mut ctx, &run);
        }
    }

    #[test]
    fn held_runs_encode_as_their_descriptors_fold() {
        let g = View::new(
            ViewId::new(1, ProcessId(0)),
            [ProcessId(0), ProcessId(1), ProcessId(2)],
        );
        let mut state = 7u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for _ in 0..300 {
            let mut oal = Oal::new();
            let mut seq = [0u64; 3];
            for _ in 0..below(12) {
                if below(9) == 0 {
                    oal.append(Descriptor::membership(sample_view(), ProcessId(0)));
                    continue;
                }
                let p = below(3) as usize;
                let (ts, stride) = (below(40) as i64, below(3) as i64);
                for k in 0..1 + below(5) {
                    seq[p] += 1;
                    oal.append(Descriptor::update(
                        ProposalId::new(ProcessId(p as u16), seq[p]),
                        Ordinal(below(2)),
                        Semantics::UNORDERED_WEAK,
                        SyncTime(ts + stride * k as i64),
                        ProcessId(0),
                    ));
                }
            }
            for _ in 0..below(6) {
                let lo = oal.base().0 + below(oal.len() as u64 + 1);
                let hi = lo + below(6);
                oal.ack_range(Ordinal(lo)..Ordinal(hi), ProcessId(below(3) as u16));
            }
            if below(3) == 0 {
                oal.prune_stable(&g);
            }
            let (mut held, mut folded) = (Vec::new(), Vec::new());
            put_oal(&mut WireCursor::new(&mut held), &oal);
            put_oal_by_descriptor(&mut WireCursor::new(&mut folded), &oal);
            assert_eq!(held, folded, "{oal:?}");
            let back = get_oal(&mut FrameRef::new(&held)).unwrap();
            assert_eq!(back, oal);
        }
    }

    #[test]
    fn oal_roundtrip_preserves_base() {
        let g = View::new(ViewId::new(1, ProcessId(0)), [ProcessId(0), ProcessId(1)]);
        let mut oal = Oal::new();
        for i in 0..5u64 {
            let o = oal.append(Descriptor::update(
                ProposalId::new(ProcessId(0), i + 1),
                Ordinal::ZERO,
                Semantics::TOTAL_STRONG,
                SyncTime(i as i64),
                ProcessId(0),
            ));
            if i < 2 {
                oal.ack(o, ProcessId(1));
            }
        }
        oal.prune_stable(&g);
        let mut buf = Vec::new();
        let mut w = WireCursor::new(&mut buf);
        put_oal(&mut w, &oal);
        let mut f = FrameRef::new(&buf);
        let back = get_oal(&mut f).unwrap();
        assert!(f.is_exhausted());
        assert_eq!(back, oal);
        assert_eq!(back.base(), oal.base());
        assert_eq!(back.next_ordinal(), oal.next_ordinal());
    }

    #[test]
    fn multi_frame_datagram_roundtrips_in_order() {
        let mut b = FrameBuilder::new();
        for seq in 1..=5 {
            b.push_msg(&Msg::Proposal(sample_proposal(seq)));
        }
        assert_eq!(b.msgs(), 5);
        let msgs = decode_datagram(b.bytes()).unwrap();
        assert_eq!(msgs.len(), 5);
        for (i, m) in msgs.iter().enumerate() {
            let Msg::Proposal(p) = m else {
                panic!("wrong kind")
            };
            assert_eq!(p.seq, i as u64 + 1);
        }
    }

    #[test]
    fn builder_reset_reuses_allocation() {
        let mut b = FrameBuilder::new();
        b.push_msg(&Msg::Proposal(sample_proposal(1)));
        let cap = {
            b.reset();
            assert!(b.is_empty());
            b.buf.capacity()
        };
        b.push_msg(&Msg::Proposal(sample_proposal(2)));
        assert!(b.buf.capacity() >= cap.min(b.buf.len()));
        assert_eq!(decode_datagram(b.bytes()).unwrap().len(), 1);
    }

    #[test]
    fn unknown_version_rejected() {
        // A bare message tag (0..=7) is rejected, as are the framed
        // versions before and after this one.
        for first in [0u8, 1, 7, 0xD0 | 1, 0xD2, 0xD3, 0xD0 | 5, 0xFF] {
            let dgram = [first, 0x00];
            assert!(
                matches!(
                    open_datagram(&dgram),
                    Err(WireError::BadVersion { found }) if found == first
                ),
                "byte {first:#x}"
            );
        }
        assert!(matches!(
            open_datagram(&[]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn empty_datagram_is_an_error() {
        assert!(decode_datagram(&[VERSION_BYTE]).is_err());
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let mut b = FrameBuilder::new();
        for seq in 1..=3 {
            b.push_msg(&Msg::Proposal(sample_proposal(seq)));
        }
        let bytes = b.bytes();
        assert_eq!(frames_of(bytes), 1, "one run frame");
        for cut in 0..bytes.len() {
            assert!(decode_datagram(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    fn frames_of(dgram: &[u8]) -> usize {
        open_datagram(dgram).unwrap().count()
    }

    /// The bytes of `msgs` framed one per frame.
    fn framed_one_each(msgs: &[Msg]) -> usize {
        1 + msgs
            .iter()
            .map(|m| encode_single(m).len() - 1)
            .sum::<usize>()
    }

    #[test]
    fn a_batch_of_proposals_is_one_frame() {
        let msgs: Vec<Msg> = (1..=64)
            .map(|seq| Msg::Proposal(sample_proposal(seq)))
            .collect();
        let mut b = FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        assert_eq!((b.msgs(), frames_of(b.bytes())), (64, 1));
        assert_eq!(decode_datagram(b.bytes()).unwrap(), msgs);
        // Each continuation is a 1-byte delta and its payload (1 + 5).
        let head = encode_single(&msgs[0]).len();
        assert_eq!(b.bytes().len(), head + 1 + 63 * 7);
        assert!(b.bytes().len() < framed_one_each(&msgs));
    }

    #[test]
    fn a_run_breaks_exactly_where_a_field_changes() {
        let base = sample_proposal(10);
        let next = |f: &dyn Fn(&mut Proposal)| {
            let mut p = sample_proposal(11);
            f(&mut p);
            Msg::Proposal(p)
        };
        let cases: [(&str, Msg, usize); 9] = [
            ("continues", next(&|_| {}), 1),
            ("negative ts delta", next(&|p| p.send_ts = SyncTime(-5)), 1),
            ("empty payload", next(&|p| p.payload = Bytes::new()), 1),
            ("sender", next(&|p| p.sender = ProcessId(3)), 2),
            ("incarnation", next(&|p| p.incarnation = Incarnation(2)), 2),
            ("seq gap", next(&|p| p.seq = 12), 2),
            ("hdo", next(&|p| p.hdo = Ordinal(4)), 2),
            (
                "semantics",
                next(&|p| p.semantics = Semantics::UNORDERED_WEAK),
                2,
            ),
            (
                "ts delta over 8 bytes",
                next(&|p| p.send_ts = SyncTime(1 << 56)),
                2,
            ),
        ];
        for (name, second, frames) in cases {
            let msgs = [Msg::Proposal(base.clone()), second];
            let mut b = FrameBuilder::new();
            for m in &msgs {
                b.push_msg(m);
            }
            assert_eq!(frames_of(b.bytes()), frames, "{name}");
            assert_eq!(decode_datagram(b.bytes()).unwrap(), msgs, "{name}");
            assert!(b.bytes().len() <= framed_one_each(&msgs), "{name}");
        }
        // Any other message closes the run.
        let clock = Msg::ClockSync(ClockSyncMsg::Request {
            sender: ProcessId(2),
            rid: 1,
            hw_send: HwTime(0),
        });
        let msgs = [
            Msg::Proposal(sample_proposal(1)),
            clock,
            Msg::Proposal(sample_proposal(2)),
        ];
        let mut b = FrameBuilder::new();
        for m in &msgs {
            b.push_msg(m);
        }
        assert_eq!(frames_of(b.bytes()), 3);
        assert_eq!(decode_datagram(b.bytes()).unwrap(), msgs);
    }

    #[test]
    fn length_prefix_is_the_shortest_as_a_run_crosses_length_classes() {
        let mut b = FrameBuilder::new();
        let mut msgs = Vec::new();
        for seq in 1..=400u64 {
            let mut p = sample_proposal(seq);
            p.payload = Bytes::from(vec![seq as u8; 60]);
            let m = Msg::Proposal(p);
            b.push_msg(&m);
            msgs.push(m);
            let dgram = b.bytes();
            let (len, n) = read_uvarint(&dgram[1..], "t").unwrap();
            assert_eq!(n, uvarint_len(len), "prefix of a {len}-byte body");
            assert_eq!(1 + n + len as usize, dgram.len(), "one frame");
        }
        assert!(b.bytes().len() > 16_384 + 3, "crossed two length classes");
        assert_eq!(decode_datagram(b.bytes()).unwrap(), msgs);
    }

    #[test]
    fn a_cloned_builder_continues_the_same_run() {
        let mut a = FrameBuilder::new();
        a.push_msg(&Msg::Proposal(sample_proposal(1)));
        let mut b = FrameBuilder::new();
        b.push_msg(&Msg::Proposal(sample_proposal(9)));
        b.clone_from(&a);
        for builder in [&mut a, &mut b] {
            builder.push_msg(&Msg::Proposal(sample_proposal(2)));
        }
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!((b.msgs(), frames_of(b.bytes())), (2, 1));
    }

    #[test]
    fn a_broken_continuation_is_an_error() {
        let frame_after = |seq: u64, send_ts: i64, tail: &[u8]| {
            let mut body = Vec::new();
            encode_msg(
                &Msg::Proposal(Proposal {
                    seq,
                    send_ts: SyncTime(send_ts),
                    ..sample_proposal(1)
                }),
                &mut WireCursor::new(&mut body),
            );
            body.extend_from_slice(tail);
            let mut dgram = vec![VERSION_BYTE];
            put_uvarint(&mut dgram, body.len() as u64);
            dgram.extend(body);
            decode_datagram(&dgram)
        };
        let frame = |tail: &[u8]| frame_after(1, 0, tail);
        assert_eq!(frame(&[0x00, 0x00]).map(|m| m.len()), Ok(2));
        // A delta without its payload, and a payload cut short.
        assert!(matches!(
            frame(&[0x00]),
            Err(WireError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            frame(&[0x00, 0x02, 0xAA]),
            Err(WireError::UnexpectedEof { .. })
        ));
        // A continuation after seq u64::MAX, or a delta past i64::MAX.
        assert!(matches!(
            frame_after(u64::MAX, 0, &[0x00, 0x00]),
            Err(WireError::TooLong { .. })
        ));
        assert!(matches!(
            frame_after(1, i64::MAX, &[0x02, 0x00]),
            Err(WireError::TooLong { .. })
        ));
    }

    #[test]
    fn uvarint_len_matches_the_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, 1 << 56, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(uvarint_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn frame_length_overrun_is_an_error() {
        // A frame claiming more body than the datagram holds.
        let mut dgram = vec![VERSION_BYTE];
        put_uvarint(&mut dgram, 100);
        dgram.push(0x00); // only 1 body byte present
        assert!(matches!(
            decode_datagram(&dgram),
            Err(WireError::UnexpectedEof { .. })
        ));
        // A frame claiming an absurd length fails the sanity cap.
        let mut dgram = vec![VERSION_BYTE];
        put_uvarint(&mut dgram, (MAX_FRAME_LEN as u64) + 1);
        assert!(matches!(
            decode_datagram(&dgram),
            Err(WireError::TooLong { .. })
        ));
    }

    #[test]
    fn trailing_bytes_in_frame_rejected() {
        let mut buf = vec![VERSION_BYTE];
        let mut w = WireCursor::new(&mut buf);
        let t = w.begin_frame();
        encode_msg(
            &Msg::ClockSync(ClockSyncMsg::Request {
                sender: ProcessId(0),
                rid: 1,
                hw_send: HwTime(2),
            }),
            &mut w,
        );
        w.put_u8(0xEE); // junk inside the frame, after the message
        w.end_frame(t);
        assert!(matches!(
            decode_datagram(&buf),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn frame_ref_take_borrows_from_input() {
        let data = [5u8, 1, 2, 3, 4, 5];
        let mut f = FrameRef::new(&data);
        let payload = f.bytes("p").unwrap();
        // Same allocation: the subslice points into `data`.
        assert_eq!(payload.as_ptr(), data[1..].as_ptr());
        assert!(f.is_exhausted());
    }
}
