//! Datagram transports for runtime nodes.
//!
//! The protocol assumes an unreliable, unordered datagram service. A
//! node puts a whole dispatch's outbound messages on the wire through
//! one call, [`Transport::flush`], and every transport hands each
//! destination its share of the batch as one datagram:
//!
//! * [`MemTransport`] — the in-process mesh: one switchable slot per
//!   rank holding that node's inbox. A datagram reaches the inbox as
//!   one [`Incoming`]; an unplugged slot (a crashed node) swallows it.
//!   Reliable on its own — [`crate::fault::FaultTransport`] puts the
//!   timed-asynchronous failures on top of it.
//! * [`UdpTransport`] — real UDP sockets on localhost (or any address
//!   map), using the framed zero-copy wire format ([`tw_proto::frame`]).
//!   Each destination's datagram is the multi-frame encoding of its
//!   share (broadcasts are encoded once wherever the destinations'
//!   datagrams agree, and a sender's consecutive proposals share one
//!   run frame), and the fan-out goes through a single vectored syscall
//!   where the platform has one ([`crate::mmsg`]). Genuinely lossy
//!   under load, exactly the substrate the paper deployed on. Its
//!   socket has one reader: on linux-gnu an event-loop node reads it
//!   from its own loop; the threaded baseline, and the event loop on
//!   other targets, read it on a receive thread
//!   ([`UdpTransport::spawn_receiver`]). Both decode and count every
//!   datagram through one method, `UdpTransport::take_datagram`.
//!
//! Node inboxes are **bounded**: when a node cannot keep up, excess
//! datagrams are shed (the datagram model permits omission) and counted
//! in `tw_inbox_dropped_total`, so overload degrades gracefully and
//! observably instead of growing an unbounded queue. A node that reads
//! its own socket has no inbox; the kernel's socket buffer bounds it.

use crate::mmsg::{is_emsgsize, BatchSocket, OutDatagram, RecvSlot};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use tw_obs::{Counter, Gauge};
use tw_proto::frame::{self, FrameBuilder};
use tw_proto::{Msg, ProcessId};

/// A way for one node to put datagrams on the wire.
pub trait Transport: Send + Sync + 'static {
    /// Put a whole dispatch's outbound messages on the wire at once:
    /// every other member gets its share of `batch` (the broadcasts and
    /// the sends addressed to it, in action order) as one datagram,
    /// best effort. Always leaves `batch` empty and ready for reuse.
    fn flush(&self, from: ProcessId, batch: &mut OutBatch);
}

/// One outbound message of a dispatch batch.
#[derive(Debug, Clone)]
pub enum OutItem {
    /// To every other member.
    Broadcast(Msg),
    /// To one member.
    Send(ProcessId, Msg),
}

/// A dispatch's outbound messages, collected by the executor and handed
/// to [`Transport::flush`] in one call.
///
/// Owned by the executor loop and reused across dispatches, so the item
/// vector and the encoder and send scratch inside amortize to zero
/// allocations in steady state.
#[derive(Default)]
pub struct OutBatch {
    pub(crate) items: Vec<OutItem>,
    /// Reusable framed-datagram builders, one per destination of
    /// [`UdpTransport::flush`] (index into `dests`).
    builders: Vec<FrameBuilder>,
    /// The flush's destinations, in rank order.
    dests: Vec<(ProcessId, SocketAddr)>,
    /// The datagrams handed to the socket; empty between flushes, kept
    /// for its allocation.
    sends: Vec<OutDatagram<'static>>,
}

impl OutBatch {
    /// An empty batch.
    pub fn new() -> Self {
        OutBatch::default()
    }

    /// Queue a broadcast.
    pub fn push_broadcast(&mut self, msg: Msg) {
        self.items.push(OutItem::Broadcast(msg));
    }

    /// Queue a point-to-point send.
    pub fn push_send(&mut self, to: ProcessId, msg: Msg) {
        self.items.push(OutItem::Send(to, msg));
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `to`'s share of the batch, in action order: every broadcast and
    /// every send addressed to `to`.
    pub(crate) fn share(&self, to: ProcessId) -> impl Iterator<Item = &Msg> {
        self.items.iter().filter_map(move |item| match item {
            OutItem::Broadcast(m) => Some(m),
            OutItem::Send(dest, m) => (*dest == to).then_some(m),
        })
    }
}

// The inbox types live in their own loom-checkable module
// ([`crate::inbox`]); re-exported here because transports are where
// callers historically found them.
pub use crate::inbox::{node_inbox, Deliver, InboxSender, Incoming};

/// In-process channel mesh: one slot per rank, holding that node's
/// inbox. A crashed node's slot is unplugged (datagrams to it vanish, as
/// to any dead process) and a restarted node's fresh inbox is plugged
/// back in.
pub struct MemTransport {
    slots: Vec<RwLock<Option<InboxSender>>>,
}

impl MemTransport {
    /// A mesh over the given inbox senders (index = rank), all plugged.
    pub fn new(inboxes: Vec<InboxSender>) -> Arc<Self> {
        Arc::new(MemTransport {
            slots: inboxes
                .into_iter()
                .map(|tx| RwLock::new(Some(tx)))
                .collect(),
        })
    }

    /// A mesh of `n` unplugged slots.
    pub fn unplugged(n: usize) -> Arc<Self> {
        Arc::new(MemTransport {
            slots: (0..n).map(|_| RwLock::new(None)).collect(),
        })
    }

    /// Plug (or unplug, with `None`) the inbox for `rank`.
    pub fn set_slot(&self, rank: usize, tx: Option<InboxSender>) {
        if let Some(slot) = self.slots.get(rank) {
            *slot.write().unwrap_or_else(|e| e.into_inner()) = tx;
        }
    }

    /// Team size.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the mesh is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Hand `msgs` from `from` to `to`'s inbox as one datagram. Unplugged
    /// slots, shed and closed inboxes all read as datagram loss.
    pub(crate) fn deliver(&self, from: ProcessId, to: ProcessId, msgs: Vec<Msg>) {
        let Some(slot) = self.slots.get(to.rank()) else {
            return;
        };
        let slot = slot.read().unwrap_or_else(|e| e.into_inner());
        if let (Some(tx), Some(inc)) = (slot.as_ref(), Incoming::of(from, msgs)) {
            let _ = tx.deliver(inc);
        }
    }
}

impl Transport for MemTransport {
    fn flush(&self, from: ProcessId, batch: &mut OutBatch) {
        if batch.is_empty() {
            return;
        }
        for rank in (0..self.len()).filter(|&rank| rank != from.rank()) {
            let to = ProcessId(rank as u16);
            self.deliver(from, to, batch.share(to).cloned().collect());
        }
        batch.items.clear();
    }
}

/// What the UDP receive loop should do about a socket error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvErrorAction {
    /// Expected poll-timeout wakeup: loop again, reset any backoff.
    Poll,
    /// Transient fault (e.g. an ICMP-induced `ConnectionReset` on
    /// Windows/Linux, `Interrupted`, resource pressure): count it as an
    /// omission and retry after a bounded backoff. A datagram service
    /// has no connection to lose, so no socket error here is fatal.
    Retry,
}

/// Classify a `recv_from` error. Kept pure so the policy is testable
/// without a socket.
pub(crate) fn classify_recv_error(kind: std::io::ErrorKind) -> RecvErrorAction {
    match kind {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RecvErrorAction::Poll,
        _ => RecvErrorAction::Retry,
    }
}

/// A socket reader's receive buffers: 16 max-size slots, enough to
/// drain a heavy burst per syscall without a multi-MB standing buffer.
pub(crate) fn recv_slots() -> Vec<RecvSlot> {
    (0..16).map(|_| RecvSlot::new(64 * 1024)).collect()
}

/// Wire-level counters of one [`UdpTransport`] (plain atomics — these
/// sit on the hot path; the registry-backed metrics stay at the node
/// level). `send_syscalls` vs. `msgs_sent` is the quantity the batching
/// work optimizes: syscalls per protocol message.
#[derive(Debug, Default)]
struct WireCounters {
    send_syscalls: AtomicU64,
    datagrams_sent: AtomicU64,
    msgs_sent: AtomicU64,
    datagrams_recv: AtomicU64,
    msgs_recv: AtomicU64,
    decode_errors: AtomicU64,
    send_errors: AtomicU64,
}

/// A point-in-time copy of a transport's wire counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Send-side syscalls issued (`sendto`/`sendmmsg` calls).
    pub send_syscalls: u64,
    /// Datagrams the kernel accepted for the wire.
    pub datagrams_sent: u64,
    /// Protocol messages in those datagrams (≥ datagrams when
    /// coalescing).
    pub msgs_sent: u64,
    /// Datagrams received and decoded.
    pub datagrams_recv: u64,
    /// Protocol messages received.
    pub msgs_recv: u64,
    /// Datagrams dropped as undecodable (bad version, truncation,
    /// corruption — the model's omission failure).
    pub decode_errors: u64,
    /// Datagrams the kernel refused to send (`EMSGSIZE` for one that
    /// outgrew UDP, or any other send error): omissions the sender
    /// inflicted on itself.
    pub send_errors: u64,
}

/// Registry handles the send path reports into (see
/// [`UdpTransport::set_send_metrics`]).
#[derive(Debug, Clone)]
pub struct SendMetrics {
    /// `tw_mmsg_batch_fill`: datagrams coalesced into the most recent
    /// vectored submission.
    pub batch_fill: Gauge,
    /// `tw_send_errors_total.emsgsize`: datagrams refused as too large.
    pub errors_emsgsize: Counter,
    /// `tw_send_errors_total.other`: datagrams refused for any other
    /// reason.
    pub errors_other: Counter,
}

/// Real UDP datagrams with the framed zero-copy wire format.
pub struct UdpTransport {
    socket: UdpSocket,
    /// Peer addresses ordered by rank, self excluded lazily per call
    /// (stable iteration order for the vectored fan-out).
    peer_list: Vec<(ProcessId, SocketAddr)>,
    me: ProcessId,
    stop: AtomicBool,
    wire: WireCounters,
    /// Optional registry handles (set once at node wiring time; the hot
    /// path pays one pointer load plus an atomic store).
    metrics: OnceLock<SendMetrics>,
}

impl UdpTransport {
    /// Bind `me`'s socket and remember the peer address map.
    pub fn bind(
        me: ProcessId,
        addr: SocketAddr,
        peers: HashMap<ProcessId, SocketAddr>,
    ) -> std::io::Result<Arc<Self>> {
        let socket = UdpSocket::bind(addr)?;
        let mut peer_list: Vec<(ProcessId, SocketAddr)> = peers.into_iter().collect();
        peer_list.sort_by_key(|(p, _)| *p);
        Ok(Arc::new(UdpTransport {
            socket,
            peer_list,
            me,
            stop: AtomicBool::new(false),
            wire: WireCounters::default(),
            metrics: OnceLock::new(),
        }))
    }

    /// Ask the receive thread, if any, to exit at its next poll.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Wire the send path into a registry: every vectored submission
    /// records how many datagrams it coalesced, every refused datagram
    /// is counted by cause. First caller wins.
    pub fn set_send_metrics(&self, metrics: SendMetrics) {
        let _ = self.metrics.set(metrics);
    }

    fn note_batch_fill(&self, datagrams: usize) {
        if let Some(m) = self.metrics.get() {
            m.batch_fill.set(datagrams as i64);
        }
    }

    /// Count one datagram the kernel refused.
    fn note_send_error(&self, err: &std::io::Error) {
        self.wire.send_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            if is_emsgsize(err) {
                m.errors_emsgsize.inc();
            } else {
                m.errors_other.inc();
            }
        }
    }

    /// Current wire counters.
    pub fn wire_stats(&self) -> WireStats {
        WireStats {
            send_syscalls: self.wire.send_syscalls.load(Ordering::Relaxed),
            datagrams_sent: self.wire.datagrams_sent.load(Ordering::Relaxed),
            msgs_sent: self.wire.msgs_sent.load(Ordering::Relaxed),
            datagrams_recv: self.wire.datagrams_recv.load(Ordering::Relaxed),
            msgs_recv: self.wire.msgs_recv.load(Ordering::Relaxed),
            decode_errors: self.wire.decode_errors.load(Ordering::Relaxed),
            send_errors: self.wire.send_errors.load(Ordering::Relaxed),
        }
    }

    /// The node's socket, for the event loop that reads it itself.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pub(crate) fn socket(&self) -> &UdpSocket {
        &self.socket
    }

    /// Decode one received datagram and count it: its sender and
    /// messages, in order, or `None` when it carries none. An undecodable
    /// datagram (unknown wire version, truncation, corruption) is dropped
    /// and counted in `decode_errors`: the model's omission failure. The
    /// one receive body of both readers of the socket, the event loop and
    /// the receive thread.
    pub(crate) fn take_datagram(&self, datagram: &[u8]) -> Option<(ProcessId, Vec<Msg>)> {
        let Ok(msgs) = frame::decode_datagram(datagram) else {
            self.wire.decode_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.wire.datagrams_recv.fetch_add(1, Ordering::Relaxed);
        self.wire
            .msgs_recv
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        Some((msgs.first()?.sender(), msgs))
    }

    fn note_sent(&self, syscalls: u64, datagrams: u64, msgs: u64) {
        self.wire
            .send_syscalls
            .fetch_add(syscalls, Ordering::Relaxed);
        self.wire
            .datagrams_sent
            .fetch_add(datagrams, Ordering::Relaxed);
        self.wire.msgs_sent.fetch_add(msgs, Ordering::Relaxed);
    }

    /// Spawn a receive thread: it reads the socket, decodes each datagram
    /// with `take_datagram` and forwards its messages into `inbox` as one
    /// item, until shutdown is requested or the inbox closes. Two kinds
    /// of node have one: the threaded baseline, whose receive thread is
    /// part of the §5 design it reproduces, and an event-loop node on a
    /// target without `ppoll` (anything but linux-gnu). The thread
    /// drains the socket queue in batches
    /// ([`crate::mmsg::BatchSocket::recv_batch`]) so a burst of datagrams
    /// costs one syscall, not one each, and notices a shutdown within its
    /// 200 ms read timeout. Socket errors are
    /// treated as omissions — counted into `recv_errors` (wire it to
    /// `tw_udp_recv_errors_total`) and retried with a bounded backoff —
    /// never as a reason to abandon the socket.
    pub fn spawn_receiver(
        self: &Arc<Self>,
        inbox: InboxSender,
        recv_errors: Option<Counter>,
    ) -> std::thread::JoinHandle<()> {
        let me = self.clone();
        std::thread::Builder::new()
            .name(format!("udp-rx-{}", me.me))
            .spawn(move || {
                let mut slots = recv_slots();
                // A read timeout lets the thread notice inbox closure.
                let _ = me
                    .socket
                    .set_read_timeout(Some(std::time::Duration::from_millis(200)));
                let min_backoff = std::time::Duration::from_millis(1);
                let max_backoff = std::time::Duration::from_millis(100);
                let mut backoff = min_backoff;
                loop {
                    if me.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match me.socket.recv_batch(&mut slots) {
                        Ok(filled) => {
                            backoff = min_backoff;
                            for slot in &slots[..filled] {
                                // One datagram, one inbox item, one
                                // dispatch; shed reads as datagram loss.
                                let delivered = me
                                    .take_datagram(slot.datagram())
                                    .and_then(|(from, msgs)| Incoming::of(from, msgs))
                                    .map(|inc| inbox.deliver(inc));
                                if delivered == Some(Deliver::Closed) {
                                    return;
                                }
                            }
                        }
                        Err(e) => match classify_recv_error(e.kind()) {
                            RecvErrorAction::Poll => backoff = min_backoff,
                            RecvErrorAction::Retry => {
                                if let Some(c) = &recv_errors {
                                    c.inc();
                                }
                                std::thread::sleep(backoff);
                                backoff = (backoff * 2).min(max_backoff);
                            }
                        },
                    }
                }
            })
            .expect("spawn udp receiver")
    }
}

impl Transport for UdpTransport {
    /// The coalesced hot path: one multi-frame datagram per destination,
    /// byte for byte what pushing that destination's messages through
    /// one [`FrameBuilder`] gives, the whole fan-out submitted through
    /// [`crate::mmsg::BatchSocket::send_batch`].
    ///
    /// The broadcasts before the first point-to-point send open every
    /// destination's datagram alike, so they are encoded once, into the
    /// first builder. When nothing follows them, every destination is
    /// sent that one buffer; otherwise every builder starts from a copy
    /// of it and takes the rest of its destination's messages.
    fn flush(&self, from: ProcessId, batch: &mut OutBatch) {
        let OutBatch {
            items,
            builders,
            dests,
            sends,
        } = batch;
        if items.is_empty() {
            return;
        }
        dests.clear();
        dests.extend(self.peer_list.iter().filter(|(pid, _)| *pid != from));
        if dests.is_empty() {
            items.clear();
            return;
        }
        if builders.len() < dests.len() {
            builders.resize_with(dests.len(), FrameBuilder::new);
        }
        let builders = &mut builders[..dests.len()];
        let shared = items
            .iter()
            .position(|item| matches!(item, OutItem::Send(..)))
            .unwrap_or(items.len());
        let (head, rest) = builders.split_first_mut().expect("dests is not empty");
        head.reset();
        for item in &items[..shared] {
            if let OutItem::Broadcast(m) = item {
                head.push_msg(m);
            }
        }
        let alike = shared == items.len();
        if !alike {
            for b in rest {
                b.clone_from(head);
            }
            for item in &items[shared..] {
                match item {
                    OutItem::Broadcast(m) => builders.iter_mut().for_each(|b| b.push_msg(m)),
                    OutItem::Send(to, m) => {
                        if let Some(i) = dests.iter().position(|(pid, _)| pid == to) {
                            builders[i].push_msg(m);
                        }
                    }
                }
            }
        }
        let builder = |i: usize| if alike { &builders[0] } else { &builders[i] };
        let mut out = recycle(std::mem::take(sends));
        let mut msgs = 0;
        for (i, (_, addr)) in dests.iter().enumerate() {
            let b = builder(i);
            if !b.is_empty() {
                out.push((b.bytes(), *addr));
                msgs += b.msgs() as u64;
            }
        }
        if !out.is_empty() {
            let mut datagrams = out.len() as u64;
            let syscalls = self.socket.send_batch(&out, &mut |i, e| {
                self.note_send_error(e);
                datagrams -= 1;
                // `out[i]` came from the i-th non-empty builder.
                let lost = (0..dests.len())
                    .map(builder)
                    .filter(|b| !b.is_empty())
                    .nth(i);
                msgs -= lost.map_or(0, |b| b.msgs() as u64);
            });
            self.note_sent(syscalls as u64, datagrams, msgs);
            self.note_batch_fill(out.len());
        }
        *sends = recycle(out);
        items.clear();
    }
}

/// Empty `v` and hand its allocation to a vector of another lifetime.
/// The element layouts are equal, so the standard library collects in
/// place: nothing is allocated or freed.
fn recycle<'a>(mut v: Vec<OutDatagram<'_>>) -> Vec<OutDatagram<'a>> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crossbeam::channel::unbounded;
    use tw_proto::{ClockSyncMsg, HwTime, Incarnation, Ordinal, Proposal, Semantics, SyncTime};

    fn sample(from: u16) -> Msg {
        Msg::ClockSync(ClockSyncMsg::Request {
            sender: ProcessId(from),
            rid: 7,
            hw_send: HwTime(1),
        })
    }

    fn proposal(from: u16, seq: u64) -> Msg {
        Msg::Proposal(Proposal {
            sender: ProcessId(from),
            incarnation: Incarnation(0),
            seq,
            send_ts: SyncTime(seq as i64),
            hdo: Ordinal::ZERO,
            semantics: Semantics::UNORDERED_WEAK,
            payload: Bytes::from_static(b"payload"),
        })
    }

    /// Flush a batch of one point-to-point send.
    fn send(t: &dyn Transport, from: u16, to: u16, msg: Msg) {
        let mut batch = OutBatch::new();
        batch.push_send(ProcessId(to), msg);
        t.flush(ProcessId(from), &mut batch);
    }

    /// Flush a batch of one broadcast.
    fn broadcast(t: &dyn Transport, from: u16, msg: Msg) {
        let mut batch = OutBatch::new();
        batch.push_broadcast(msg);
        t.flush(ProcessId(from), &mut batch);
    }

    #[test]
    fn mem_transport_send_routes_to_inbox() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t = MemTransport::new(vec![tx0.into(), tx1.into()]);
        send(&*t, 0, 1, sample(0));
        match rx1.try_recv().unwrap() {
            Incoming::Msg(from, _) => assert_eq!(from, ProcessId(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(rx0.try_recv().is_err());
    }

    #[test]
    fn mem_transport_broadcast_skips_sender() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let (tx2, rx2) = unbounded();
        let t = MemTransport::new(vec![tx0.into(), tx1.into(), tx2.into()]);
        broadcast(&*t, 1, sample(1));
        assert!(rx0.try_recv().is_ok());
        assert!(rx1.try_recv().is_err());
        assert!(rx2.try_recv().is_ok());
    }

    #[test]
    fn mem_transport_tolerates_dead_receiver() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        drop(rx1);
        let t = MemTransport::new(vec![tx0.into(), tx1.into()]);
        broadcast(&*t, 0, sample(0)); // must not panic
        drop(rx0);
        send(&*t, 0, 1, sample(0));
    }

    #[test]
    fn mem_transport_unplugs_and_replugs() {
        let mesh = MemTransport::unplugged(2);
        // Unplugged: datagrams vanish (dead process).
        send(&*mesh, 0, 1, sample(0));
        let (tx, rx) = node_inbox(8, None);
        mesh.set_slot(1, Some(tx));
        send(&*mesh, 0, 1, sample(0));
        assert!(rx.try_recv().is_ok());
        mesh.set_slot(1, None);
        send(&*mesh, 0, 1, sample(0));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn mem_transport_flush_coalesces_per_destination() {
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let (tx2, rx2) = unbounded();
        let t = MemTransport::new(vec![tx0.into(), tx1.into(), tx2.into()]);
        let mut batch = OutBatch::new();
        batch.push_broadcast(proposal(0, 1));
        batch.push_broadcast(proposal(0, 2));
        batch.push_send(ProcessId(1), sample(0));
        t.flush(ProcessId(0), &mut batch);
        assert!(batch.is_empty(), "flush drains the batch");
        assert!(rx0.try_recv().is_err(), "nothing loops back to sender");
        // Destination 1: one Batch of [p1, p2, clock-sync], in order.
        match rx1.try_recv().unwrap() {
            Incoming::Batch(from, msgs) => {
                assert_eq!(from, ProcessId(0));
                assert_eq!(msgs.len(), 3);
                assert!(matches!(&msgs[0], Msg::Proposal(p) if p.seq == 1));
                assert!(matches!(&msgs[1], Msg::Proposal(p) if p.seq == 2));
                assert!(matches!(&msgs[2], Msg::ClockSync(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(rx1.try_recv().is_err(), "exactly one channel op");
        // Destination 2: only the broadcasts.
        match rx2.try_recv().unwrap() {
            Incoming::Batch(from, msgs) => {
                assert_eq!(from, ProcessId(0));
                assert_eq!(msgs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mem_transport_flush_single_message_stays_msg() {
        let (tx0, _rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let t = MemTransport::new(vec![tx0.into(), tx1.into()]);
        let mut batch = OutBatch::new();
        batch.push_send(ProcessId(1), sample(0));
        t.flush(ProcessId(0), &mut batch);
        assert!(matches!(rx1.try_recv().unwrap(), Incoming::Msg(..)));
    }

    #[test]
    fn bounded_inbox_sheds_and_counts_overflow() {
        let dropped = Counter::default();
        let (tx, rx) = node_inbox(2, Some(dropped.clone()));
        let mesh = MemTransport::new(vec![
            InboxSender::new(
                crossbeam::channel::unbounded().0, // rank 0 unused
                None,
            ),
            tx,
        ]);
        for _ in 0..5 {
            send(&*mesh, 0, 1, sample(0));
        }
        assert_eq!(rx.try_iter().count(), 2, "capacity bounds the queue");
        assert_eq!(dropped.get(), 3, "overflow is shed and counted");
    }

    #[test]
    fn inbox_sender_reports_closure() {
        let (tx, rx) = node_inbox(4, None);
        drop(rx);
        assert_eq!(
            tx.deliver(Incoming::Msg(ProcessId(0), sample(0))),
            Deliver::Closed
        );
    }

    #[test]
    fn recv_error_classification_only_exits_never() {
        use std::io::ErrorKind::*;
        assert_eq!(classify_recv_error(WouldBlock), RecvErrorAction::Poll);
        assert_eq!(classify_recv_error(TimedOut), RecvErrorAction::Poll);
        // The ICMP port-unreachable case that used to kill the loop.
        assert_eq!(classify_recv_error(ConnectionReset), RecvErrorAction::Retry);
        assert_eq!(classify_recv_error(Interrupted), RecvErrorAction::Retry);
        assert_eq!(classify_recv_error(Other), RecvErrorAction::Retry);
    }

    fn udp_pair() -> (Arc<UdpTransport>, Arc<UdpTransport>) {
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let tmp_a = UdpSocket::bind(any).unwrap();
        let tmp_b = UdpSocket::bind(any).unwrap();
        let addr_a = tmp_a.local_addr().unwrap();
        let addr_b = tmp_b.local_addr().unwrap();
        drop(tmp_a);
        drop(tmp_b);
        let peers: HashMap<ProcessId, SocketAddr> =
            [(ProcessId(0), addr_a), (ProcessId(1), addr_b)].into();
        let ta = UdpTransport::bind(ProcessId(0), addr_a, peers.clone()).unwrap();
        let tb = UdpTransport::bind(ProcessId(1), addr_b, peers).unwrap();
        (ta, tb)
    }

    #[test]
    fn udp_transport_round_trip() {
        let (ta, tb) = udp_pair();
        let (tx, rx) = unbounded();
        let _h = tb.spawn_receiver(tx.into(), None);
        send(&*ta, 0, 1, sample(0));
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            Incoming::Msg(from, msg) => {
                assert_eq!(from, ProcessId(0));
                assert_eq!(msg, sample(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = ta.wire_stats();
        assert_eq!(stats.msgs_sent, 1);
        assert_eq!(stats.datagrams_sent, 1);
    }

    #[test]
    fn udp_flush_coalesces_into_one_datagram_per_destination() {
        let (ta, tb) = udp_pair();
        let (tx, rx) = unbounded();
        let _h = tb.spawn_receiver(tx.into(), None);
        let mut batch = OutBatch::new();
        for seq in 1..=4 {
            batch.push_broadcast(proposal(0, seq));
        }
        batch.push_send(ProcessId(1), sample(0));
        ta.flush(ProcessId(0), &mut batch);
        assert!(batch.is_empty());
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            Incoming::Batch(from, msgs) => {
                assert_eq!(from, ProcessId(0));
                assert_eq!(msgs.len(), 5, "whole dispatch in one datagram");
                for (i, m) in msgs[..4].iter().enumerate() {
                    assert!(matches!(m, Msg::Proposal(p) if p.seq == i as u64 + 1));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = ta.wire_stats();
        assert_eq!(stats.datagrams_sent, 1, "one destination, one datagram");
        assert_eq!(stats.msgs_sent, 5);
        assert_eq!(stats.send_syscalls, 1);
        // Receiver-side accounting.
        let rstats = tb.wire_stats();
        assert_eq!(rstats.datagrams_recv, 1);
        assert_eq!(rstats.msgs_recv, 5);
    }

    /// Node 0 of a team whose `n` other members are plain sockets.
    fn node_and_sockets(n: usize) -> (Arc<UdpTransport>, Vec<UdpSocket>) {
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let socks: Vec<UdpSocket> = (0..n).map(|_| UdpSocket::bind(any).unwrap()).collect();
        let mut peers: HashMap<ProcessId, SocketAddr> = socks
            .iter()
            .enumerate()
            .map(|(i, s)| (ProcessId(i as u16 + 1), s.local_addr().unwrap()))
            .collect();
        peers.insert(ProcessId(0), any);
        for s in &socks {
            s.set_read_timeout(Some(std::time::Duration::from_secs(2)))
                .unwrap();
        }
        (UdpTransport::bind(ProcessId(0), any, peers).unwrap(), socks)
    }

    #[test]
    fn udp_flush_skips_an_oversize_datagram_and_counts_it() {
        // Node 0 with three peers that are plain sockets. One flush:
        // a small broadcast to all, plus a state transfer to the middle
        // peer that pushes *its* datagram past what UDP carries.
        let (t, socks) = node_and_sockets(3);
        let registry = tw_obs::Registry::new();
        t.set_send_metrics(SendMetrics {
            batch_fill: registry.gauge("tw_mmsg_batch_fill"),
            errors_emsgsize: registry.counter("tw_send_errors_total.emsgsize"),
            errors_other: registry.counter("tw_send_errors_total.other"),
        });
        let oversize = Msg::StateTransfer(tw_proto::StateTransfer {
            sender: ProcessId(0),
            to: ProcessId(2),
            view_id: tw_proto::ViewId::new(1, ProcessId(0)),
            app_state: Bytes::from(vec![7u8; 65_507]),
            proposals: vec![],
            fifo: vec![],
            ordinals: vec![],
        });
        let mut batch = OutBatch::new();
        batch.push_broadcast(sample(0));
        batch.push_send(ProcessId(2), oversize);
        t.flush(ProcessId(0), &mut batch);

        let mut buf = vec![0u8; 64 * 1024];
        for (i, s) in socks.iter().enumerate() {
            s.set_read_timeout(Some(std::time::Duration::from_millis(300)))
                .unwrap();
            match s.recv_from(&mut buf) {
                Ok((len, _)) => {
                    assert_ne!(i, 1, "the oversize datagram cannot have arrived");
                    assert_eq!(frame::decode_datagram(&buf[..len]).unwrap(), [sample(0)]);
                }
                Err(_) => assert_eq!(i, 1, "first and third peers get their datagram"),
            }
        }
        let stats = t.wire_stats();
        assert_eq!(stats.send_errors, 1);
        assert_eq!(stats.datagrams_sent, 2, "only what the kernel accepted");
        assert_eq!(stats.msgs_sent, 2);
        assert_eq!(registry.counter_value("tw_send_errors_total.emsgsize"), 1);
        assert_eq!(registry.counter_value("tw_send_errors_total.other"), 0);
    }

    #[test]
    fn udp_flush_copies_each_broadcast_frame_as_encoding_per_destination_would() {
        let (t, socks) = node_and_sockets(3);
        let batch_of_64: Vec<OutItem> = (1..=64)
            .map(|seq| OutItem::Broadcast(proposal(0, seq)))
            .collect();
        // A batch that mixes broadcasts with sends to two of the peers,
        // a 64-proposal batch, and the same with a send in the middle of
        // its run.
        let mut interrupted = batch_of_64.clone();
        interrupted.insert(32, OutItem::Send(ProcessId(3), sample(0)));
        let cases = [
            vec![
                OutItem::Broadcast(proposal(0, 1)),
                OutItem::Send(ProcessId(2), sample(0)),
                OutItem::Broadcast(proposal(0, 2)),
                OutItem::Send(ProcessId(1), proposal(0, 9)),
                OutItem::Broadcast(sample(0)),
            ],
            batch_of_64,
            interrupted,
        ];
        let mut batch = OutBatch::new();
        let mut buf = vec![0u8; 64 * 1024];
        for items in cases {
            let before = t.wire_stats();
            batch.items.extend(items.iter().cloned());
            t.flush(ProcessId(0), &mut batch);
            let mut expected_msgs = 0;
            for (i, s) in socks.iter().enumerate() {
                let to = ProcessId(i as u16 + 1);
                let mut expected = FrameBuilder::new();
                for item in &items {
                    match item {
                        OutItem::Send(dest, _) if *dest != to => {}
                        OutItem::Broadcast(m) | OutItem::Send(_, m) => expected.push_msg(m),
                    }
                }
                expected_msgs += expected.msgs() as u64;
                let (len, _) = s.recv_from(&mut buf).unwrap();
                assert_eq!(&buf[..len], expected.bytes(), "datagram to {to}");
            }
            let stats = t.wire_stats();
            assert_eq!(
                (
                    stats.datagrams_sent - before.datagrams_sent,
                    stats.msgs_sent - before.msgs_sent
                ),
                (3, expected_msgs)
            );
        }
    }

    #[test]
    fn udp_flush_counts_messages_not_frames() {
        let (t, socks) = node_and_sockets(2);
        let mut batch = OutBatch::new();
        for seq in 1..=64 {
            batch.push_broadcast(proposal(0, seq));
        }
        t.flush(ProcessId(0), &mut batch);
        let mut buf = vec![0u8; 64 * 1024];
        for s in &socks {
            let (len, _) = s.recv_from(&mut buf).unwrap();
            let mut frames = frame::open_datagram(&buf[..len]).unwrap();
            assert!(
                frames.next().is_some() && frames.next().is_none(),
                "one run frame"
            );
            assert_eq!(frame::decode_datagram(&buf[..len]).unwrap().len(), 64);
        }
        let stats = t.wire_stats();
        assert_eq!((stats.datagrams_sent, stats.msgs_sent), (2, 128));
    }

    #[test]
    fn udp_receiver_drops_unknown_version_and_counts_it() {
        let (ta, tb) = udp_pair();
        let (tx, rx) = unbounded();
        let _h = tb.spawn_receiver(tx.into(), None);
        // A decision in the retired unframed format (the literal frozen
        // in proto/tests/frame_compat.rs): leading tag byte, not a
        // version byte. The receiver must reject it (explicit version
        // bump, no silent fallback) and count the drop.
        const V1_DECISION: &[u8] = &[
            0x01, 0x01, 0x00, 0xd0, 0x07, 0, 0, 0, 0, 0, 0, 0x03, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x00,
            0x03, 0, 0, 0, 0x00, 0x00, 0x01, 0x00, 0x04, 0x00, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x00, 0,
            0, 0, 0x13, 0, 0, 0, 0, 0, 0, 0,
        ];
        let addr = tb.socket.local_addr().unwrap();
        ta.socket.send_to(V1_DECISION, addr).unwrap();
        // And the previous framed version's datagram: the frozen v3
        // decision of proto/tests/oal_wire.rs.
        #[rustfmt::skip]
        const V3_DECISION: &[u8] = &[
            0xD3, 0xA8, 0x80, 0x80, 0x00,
            0x01, 0x01, 0xA0, 0x1F, 0x01, 0x00, 0x03, 0x00, 0x01, 0x02, 0x1C, 0x07,
            0xAC, 0x0A, 0x0E, 0x03, 0xD0, 0x0F, 0x03, 0x02,
            0x3E, 0x01, 0x07, 0x0A, 0x05, 0x01, 0x0E,
            0x01, 0x02, 0x00, 0x03, 0x00, 0x01, 0x02, 0x01, 0x00,
            0x10, 0x15, 0x14,
            0x07,
        ];
        ta.socket.send_to(V3_DECISION, addr).unwrap();
        // Then a valid datagram to prove the loop survived.
        send(&*ta, 0, 1, sample(0));
        match rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap() {
            Incoming::Msg(_, msg) => assert_eq!(msg, sample(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(tb.wire_stats().decode_errors, 2);
        assert_eq!(tb.wire_stats().datagrams_recv, 1);
    }
}
