//! The event-based executor (paper §5).
//!
//! One thread per process runs a single event-demultiplexing loop:
//! network datagrams, client commands and the two protocol timers are all
//! dispatched from the same place, one handler at a time. No locking, no
//! inter-thread scheduling — the design the paper adopted after finding
//! the thread-based version's overhead "significant".
//!
//! When nothing is queued the loop parks until the next timer deadline,
//! `min(next_tick, clock_deadline())`, and wakes for whichever arrives
//! first: a datagram, a client command or the shutdown. How it parks
//! depends on where its datagrams come from:
//!
//! * **Its own UDP socket** (linux-gnu). The loop is the socket's only
//!   reader and the node's only thread. It parks in one `ppoll` over the
//!   socket and an eventfd, with a nanosecond timeout, and drains a
//!   readable socket with a non-blocking `recvmmsg`; each datagram goes
//!   straight to one `Input::Messages` dispatch, with no channel in
//!   between. Commands and the shutdown ring the node's
//!   [`Doorbell`]; the loop brackets its `ppoll` with
//!   [`Doorbell::park`] and [`Doorbell::unpark`], and a ring while it is
//!   parked writes the eventfd (the bell's wake hook). The kernel's
//!   socket buffer bounds what waits; a failed receive is counted in
//!   `tw_udp_recv_errors_total` and never slept on.
//! * **A bounded inbox** — the in-process mesh's, or on UDP elsewhere a
//!   receive thread's ([`UdpTransport::spawn_receiver`]). The loop parks
//!   on the inbox's doorbell, which every queued datagram and every
//!   client command rings.
//!
//! Either way commands are looked at before datagrams.
//!
//! Hot-path batching happens here: a coalesced datagram's messages are
//! applied in one `on_messages` dispatch, a burst of queued propose
//! commands drains into one `propose_batch` call, and every dispatch's
//! outbound traffic leaves through one [`OutBatch`] flush (one datagram
//! per destination, one vectored syscall on Linux). The burst is capped
//! by [`Member::proposal_room`](timewheel::Member::proposal_room): what
//! would not fit the next decision stays queued, so overload shows up as
//! client latency rather than as a decision the receivers refuse.
//!
//! The loop only schedules: every input goes through the one
//! `Dispatcher::dispatch`, which times it
//! (step through flush) into the node's `dispatch_latency_us` histogram,
//! making the §5 latency argument measurable: compare this distribution
//! against the thread-based executor's lock-and-switch overhead.
//!
//! [`OutBatch`]: crate::transport::OutBatch
//! [`UdpTransport::spawn_receiver`]: crate::transport::UdpTransport::spawn_receiver

use crate::inbox::Doorbell;
use crate::node::{Datagrams, NodeCommand, NodeParts};
use crate::transport::Incoming;
use bytes::Bytes;
use crossbeam::channel::{Receiver, TryRecvError};
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) use own_socket::OwnSocket;
use std::time::Duration as StdDuration;
use std::time::Instant;
use timewheel::Input;
use tw_proto::Semantics;

/// Most propose commands drained into one batch (bounds the latency a
/// later proposer can add to an earlier one's broadcast).
const MAX_PROPOSE_DRAIN: usize = 256;

/// Command intake: the queued proposals, oldest first, at most
/// [`MAX_PROPOSE_DRAIN`] and at most `room` of them. The rest stay
/// queued. An idle queue yields nothing; under load many updates share
/// one dispatch and one multi-frame datagram.
pub(crate) fn take_proposals(cmds: &Receiver<NodeCommand>, room: usize) -> Vec<(Bytes, Semantics)> {
    let limit = room.min(MAX_PROPOSE_DRAIN);
    let mut updates = Vec::new();
    while updates.len() < limit {
        match cmds.try_recv() {
            Ok(NodeCommand::Propose(payload, sem)) => updates.push((payload, sem)),
            Err(_) => break,
        }
    }
    updates
}

/// The transport is gone: no datagram will ever come again.
struct Gone;

impl Datagrams {
    /// The next datagram as one dispatch's input, `None` when none is
    /// waiting.
    fn next(&mut self) -> Result<Option<Input>, Gone> {
        match self {
            Datagrams::Inbox(inbox) => match inbox.try_recv() {
                Ok(Incoming::Msg(from, msg)) => Ok(Some(Input::Message(from, msg))),
                // One coalesced datagram → one dispatch.
                Ok(Incoming::Batch(from, msgs)) => Ok(Some(Input::Messages(from, msgs))),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(Gone),
            },
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            Datagrams::Socket(socket) => Ok(socket.next()),
        }
    }

    /// Park until a datagram arrives, the bell rings past `seen` or is
    /// closed, or `timeout` passes.
    fn park(&mut self, bell: &Doorbell, seen: u64, timeout: StdDuration) {
        match self {
            Datagrams::Inbox(_) => {
                bell.wait_past(seen, timeout);
            }
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            Datagrams::Socket(socket) => socket.park(bell, seen, timeout),
        }
    }

    /// Datagrams queued in the inbox; 0 for a node that has none.
    fn queued(&self) -> usize {
        match self {
            Datagrams::Inbox(inbox) => inbox.len(),
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            Datagrams::Socket(_) => 0,
        }
    }
}

pub(crate) fn run(parts: NodeParts) {
    let NodeParts {
        mut dispatcher,
        mut datagrams,
        cmds,
        bell,
        clock,
        flush: _flush,
        gate,
    } = parts;
    let metrics = dispatcher.metrics.clone();
    let inbox_depth = metrics.inbox_depth();
    let tick = dispatcher.driver.member().config().tick;

    let now = clock.now_hw();
    dispatcher.dispatch(Instant::now(), now, Input::Start);
    let mut next_tick = now + tick;

    loop {
        // Chaos pause: freeze before the next dispatch, faking a
        // process that stopped making progress (performance failure).
        gate.block_while_paused();

        // Read the bell before looking at the queues: whatever arrives
        // after this read rings past it, so the wait below cannot sleep
        // through it. `None` is the shutdown.
        let Some(seen) = bell.seen() else {
            break;
        };
        let room = dispatcher.driver.member().proposal_room();
        let updates = take_proposals(&cmds, room);
        let input = if !updates.is_empty() {
            Some(Input::Propose(updates))
        } else {
            match datagrams.next() {
                Ok(input) => input,
                Err(Gone) => break,
            }
        };
        match input {
            Some(input) => dispatcher.dispatch(Instant::now(), clock.now_hw(), input),
            None => {
                let now = clock.now_hw();
                let deadline = next_tick.min(dispatcher.driver.clock_deadline());
                if now < deadline {
                    let wait_us = (deadline - now).as_micros() as u64;
                    datagrams.park(&bell, seen, StdDuration::from_micros(wait_us));
                }
            }
        }

        let now = clock.now_hw();
        if now >= next_tick {
            metrics.on_tick_lag((now - next_tick).as_micros().max(0) as u64);
            dispatcher.dispatch(Instant::now(), now, Input::Tick);
            next_tick = now + tick;
        }
        let next_clock = dispatcher.driver.clock_deadline();
        if now >= next_clock {
            metrics.on_deadline_overrun((now - next_clock).as_micros().max(0) as u64);
            dispatcher.dispatch(Instant::now(), now, Input::ClockTick);
        }

        // Standing backlogs and the member's locally observed status
        // (§6 fail-awareness): sampled once per loop iteration, not per
        // dispatch — gauges report levels, so the latest look wins.
        inbox_depth.set(datagrams.queued() as i64);
        dispatcher.publish_status(clock.now_hw());
    }
}

/// The loop's own socket (linux-gnu): the only reader of a UDP node's
/// socket, inside the node's only thread.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod own_socket {
    use crate::inbox::Doorbell;
    use crate::mmsg::{try_recv_batch, wait_readable, EventFd, RecvSlot};
    use crate::transport::{classify_recv_error, recv_slots, RecvErrorAction, UdpTransport};
    use std::sync::Arc;
    use std::time::Duration as StdDuration;
    use timewheel::Input;
    use tw_obs::Counter;

    /// A UDP node's socket as its event loop reads it: what was received
    /// and not dispatched yet, and the eventfd the node's doorbell hook
    /// writes.
    pub(crate) struct OwnSocket {
        udp: Arc<UdpTransport>,
        wake: Arc<EventFd>,
        /// `tw_udp_recv_errors_total`.
        recv_errors: Counter,
        slots: Vec<RecvSlot>,
        /// `slots[next..filled]` are received and not dispatched yet.
        next: usize,
        filled: usize,
        /// The socket may hold more: the last park saw it readable, or
        /// the last read filled every slot.
        readable: bool,
    }

    impl OwnSocket {
        /// Read `udp`'s socket from the loop. The node's doorbell must
        /// wake `wake` from its hook.
        pub(crate) fn new(
            udp: Arc<UdpTransport>,
            wake: Arc<EventFd>,
            recv_errors: Counter,
        ) -> Self {
            OwnSocket {
                udp,
                wake,
                recv_errors,
                slots: recv_slots(),
                next: 0,
                filled: 0,
                readable: true,
            }
        }

        /// The next decodable datagram, read with a non-blocking
        /// `recvmmsg` once the ones already received are dispatched.
        pub(super) fn next(&mut self) -> Option<Input> {
            loop {
                if let Some(slot) = self.slots[..self.filled].get(self.next) {
                    self.next += 1;
                    match self.udp.take_datagram(slot.datagram()) {
                        Some((from, msgs)) => return Some(Input::Messages(from, msgs)),
                        None => continue,
                    }
                }
                if !self.readable {
                    return None;
                }
                (self.next, self.filled) = (0, 0);
                match try_recv_batch(self.udp.socket(), &mut self.slots) {
                    Ok(filled) => {
                        self.filled = filled;
                        self.readable = filled == self.slots.len();
                    }
                    Err(e) => {
                        self.readable = false;
                        if classify_recv_error(e.kind()) == RecvErrorAction::Retry {
                            self.recv_errors.inc();
                        }
                    }
                }
            }
        }

        /// Park in `ppoll` until the socket is readable, `bell` rings or
        /// closes, or `timeout` passes.
        pub(super) fn park(&mut self, bell: &Doorbell, seen: u64, timeout: StdDuration) {
            if !bell.park(seen) {
                // A command or the shutdown came in since `seen`. Look at
                // the socket on the way back as well, so that a stream
                // of rings cannot leave it unread.
                self.readable = true;
                return;
            }
            let ready = wait_readable(self.udp.socket(), &self.wake, timeout);
            bell.unpark();
            match ready {
                Ok(ready) => {
                    if ready.woken {
                        self.wake.drain();
                    }
                    self.readable = ready.socket;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.recv_errors.inc();
                    self.readable = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;
    use crate::metrics::NodeMetrics;
    use crate::node::{ClusterBuilder, NodeOutput, Wiring};
    use crate::transport::{node_inbox, MemTransport};
    use crossbeam::channel::unbounded;
    use std::sync::Arc;
    use timewheel::Config;
    use tw_proto::frame::MAX_OAL_WINDOW;
    use tw_proto::{ClockSyncMsg, Duration, HwTime, Incarnation, Msg, ProcessId, Proposal};

    /// A command queue holding `n` proposals whose payloads count 0, 1, …
    fn queue(n: usize) -> Receiver<NodeCommand> {
        let (tx, rx) = unbounded();
        for i in 0..n {
            let payload = Bytes::from((i as u32).to_le_bytes().to_vec());
            tx.send(NodeCommand::Propose(payload, Semantics::UNORDERED_WEAK))
                .unwrap();
        }
        rx
    }

    fn counts(updates: &[(Bytes, Semantics)]) -> Vec<u32> {
        let count = |p: &Bytes| u32::from_le_bytes(p[..4].try_into().unwrap());
        updates.iter().map(|(p, _)| count(p)).collect()
    }

    #[test]
    fn no_room_takes_nothing_and_leaves_the_queue_intact() {
        let cmds = queue(3);
        assert!(take_proposals(&cmds, 0).is_empty());
        assert_eq!(cmds.len(), 3);
        assert_eq!(counts(&take_proposals(&cmds, 10)), [0, 1, 2]);
    }

    #[test]
    fn room_k_takes_at_most_k_oldest_first() {
        let cmds = queue(5);
        assert_eq!(counts(&take_proposals(&cmds, 2)), [0, 1]);
        assert_eq!(counts(&take_proposals(&cmds, 2)), [2, 3]);
        assert_eq!(counts(&take_proposals(&cmds, 2)), [4]);
        assert!(take_proposals(&cmds, 2).is_empty());
    }

    #[test]
    fn one_intake_takes_at_most_the_drain_cap() {
        let cmds = queue(MAX_PROPOSE_DRAIN + 10);
        let first = counts(&take_proposals(&cmds, usize::MAX));
        assert_eq!(first, (0..MAX_PROPOSE_DRAIN as u32).collect::<Vec<_>>());
        assert_eq!(take_proposals(&cmds, 1000).len(), 10);
    }

    /// The loop's own socket hands each decodable datagram to one
    /// `Input::Messages` and never dispatches an undecodable one: it is
    /// counted in `decode_errors`, through the receive body the receive
    /// thread shares.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn own_socket_dispatches_each_decodable_datagram_and_counts_the_rest() {
        use crate::inbox::Doorbell;
        use crate::mmsg::EventFd;
        use crate::transport::UdpTransport;
        use std::net::UdpSocket;
        use tw_proto::frame::FrameBuilder;

        let p0 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let me = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = me.local_addr().unwrap();
        drop(me);
        let peers = [
            (ProcessId(0), p0.local_addr().unwrap()),
            (ProcessId(1), addr),
        ]
        .into();
        let udp = UdpTransport::bind(ProcessId(1), addr, peers).unwrap();
        let wake = Arc::new(EventFd::new().unwrap());
        let hook = wake.clone();
        let bell = Doorbell::with_hook(move || hook.wake());
        let recv_errors = tw_obs::Counter::default();
        let mut socket = OwnSocket::new(udp.clone(), wake, recv_errors.clone());

        let from = ProcessId(0);
        let request = |rid| {
            Msg::ClockSync(ClockSyncMsg::Request {
                sender: from,
                rid,
                hw_send: HwTime(1),
            })
        };
        let datagram = |msgs: &[Msg]| {
            let mut b = FrameBuilder::new();
            msgs.iter().for_each(|m| b.push_msg(m));
            b.bytes().to_vec()
        };
        // A retired version byte, then a valid two-message datagram, then
        // a truncated one, then a valid single message.
        let two = datagram(&[request(1), request(2)]);
        let valid = datagram(&[request(3)]);
        for bytes in [&[0x01, 0x01, 0x00][..], &two, &two[..two.len() - 1], &valid] {
            p0.send_to(bytes, addr).unwrap();
        }
        let mut inputs = Vec::new();
        let deadline = Instant::now() + StdDuration::from_secs(10);
        while inputs.len() < 2 && Instant::now() < deadline {
            match socket.next() {
                Some(input) => inputs.push(input),
                None => socket.park(&bell, bell.seen().unwrap(), StdDuration::from_secs(1)),
            }
        }
        let got: Vec<(ProcessId, Vec<Msg>)> = inputs
            .into_iter()
            .map(|input| match input {
                Input::Messages(from, msgs) => (from, msgs),
                other => panic!("not one datagram's messages: {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            [
                (from, vec![request(1), request(2)]),
                (from, vec![request(3)])
            ]
        );
        assert!(socket.next().is_none());
        let stats = udp.wire_stats();
        assert_eq!((stats.decode_errors, stats.datagrams_recv), (2, 2));
        assert_eq!(stats.msgs_recv, 3);
        assert_eq!(recv_errors.get(), 0);
    }

    /// A member with no room leaves the client's proposals queued — and
    /// a shutdown still ends the loop at once, because it does not queue
    /// behind them.
    #[test]
    fn a_closed_doorbell_ends_the_loop_with_proposals_queued_at_room_zero() {
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        let cfg = Config::for_team(3, Duration::from_millis(10));
        let (tx0, inbox) = node_inbox(8, None);
        // p1's inbox: where p0's replies land.
        let (tx1, p1_inbox) = node_inbox(1024, None);
        let wiring = Wiring {
            datagrams: Datagrams::Inbox(inbox),
            bell: tx0.doorbell().clone(),
            transport: MemTransport::new(vec![tx0.clone(), tx1]),
            udp: None,
            extra_handles: Vec::new(),
            metrics: NodeMetrics::new(),
            clock: Arc::new(RealClock::new()),
        };
        let mut builder = ClusterBuilder::new(cfg);
        builder.resolve().unwrap();
        let node = builder.start(0, Incarnation(0), wiring, false).unwrap();

        // The test plays p1: it answers p0's clock probes (the source
        // counts as synchronized only with a majority in contact) and asks
        // p0 for the time. p0's reply says whether it is synchronized, and
        // proves that everything queued before the question was applied.
        let deadline = Instant::now() + StdDuration::from_secs(60);
        let ask = |rid: u64| -> bool {
            let request = ClockSyncMsg::Request {
                sender: p1,
                rid,
                hw_send: HwTime(1),
            };
            tx0.deliver(Incoming::Msg(p1, Msg::ClockSync(request)));
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let msgs = match p1_inbox.recv_timeout(left) {
                    Ok(Incoming::Msg(from, m)) if from == p0 => vec![m],
                    Ok(Incoming::Batch(from, ms)) if from == p0 => ms,
                    Ok(_) => Vec::new(),
                    Err(e) => panic!("p0 never answered: {e:?}"),
                };
                for m in msgs {
                    match m {
                        Msg::ClockSync(ClockSyncMsg::Request { rid, hw_send, .. }) => {
                            let reply = ClockSyncMsg::Reply {
                                sender: p1,
                                rid,
                                hw_send_echo: hw_send,
                                sync_at_reply: tw_proto::SyncTime(0),
                                synced: false,
                            };
                            tx0.deliver(Incoming::Msg(p1, Msg::ClockSync(reply)));
                        }
                        Msg::ClockSync(ClockSyncMsg::Reply { rid: r, synced, .. }) if r == rid => {
                            return synced;
                        }
                        _ => {}
                    }
                }
            }
        };
        // Once synchronized, p0 buffers what p1 sends even outside a group.
        let mut rid = 1;
        while !ask(rid) {
            std::thread::sleep(StdDuration::from_millis(5));
            rid += 1;
        }

        // Fill p0's room with p1's proposals.
        let proposals = (1..=(MAX_OAL_WINDOW / 2) as u64)
            .map(|seq| {
                Msg::Proposal(Proposal {
                    sender: p1,
                    incarnation: Incarnation(0),
                    seq,
                    send_ts: tw_proto::SyncTime(1),
                    hdo: tw_proto::Ordinal::ZERO,
                    semantics: Semantics::TOTAL_STRONG,
                    payload: Bytes::new(),
                })
            })
            .collect();
        tx0.deliver(Incoming::Batch(p1, proposals));
        assert!(ask(rid + 1));

        // Outside a group a proposal p0 takes is refused at once; at room
        // 0 it takes none.
        for _ in 0..3 {
            node.propose(Bytes::new(), Semantics::UNORDERED_WEAK);
        }
        std::thread::sleep(StdDuration::from_millis(100));
        let refused = node
            .outputs
            .try_iter()
            .filter(|o| matches!(o, NodeOutput::ProposeRejected(_)))
            .count();
        assert_eq!(refused, 0, "proposals taken at room 0");

        let (done_tx, done) = unbounded();
        let stopper = std::thread::spawn(move || {
            node.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done.recv_timeout(StdDuration::from_secs(10)).is_ok(),
            "shutdown waited behind the queued proposals"
        );
        stopper.join().unwrap();
    }
}
