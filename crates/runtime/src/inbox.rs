//! Bounded node inboxes with shed-on-overflow delivery.
//!
//! The protocol assumes an unreliable datagram service, and the inbox
//! leans on that: when a node cannot keep up, excess datagrams are
//! *shed* — counted, never queued unboundedly, never blocking the
//! sender. [`InboxSender::deliver`] is called from transport receiver
//! threads and from other nodes' executor threads, so its no-block
//! guarantee is what keeps one slow node from stalling its peers (the
//! Lifeguard failure mode the chaos harness exists to provoke).
//!
//! Like [`crate::status`], this module compiles under loom
//! (`RUSTFLAGS="--cfg loom"`): the real build delivers into a crossbeam
//! bounded channel, the loom build into a loom-modeled bounded queue
//! with the same `try_send` semantics, so `tests/loom.rs` can
//! exhaustively check the deliver/shed/close race: every datagram is
//! either delivered or counted shed — none vanish — and delivery after
//! the receiver is gone reports [`Deliver::Closed`].
//!
//! Every inbox comes with a [`Doorbell`]: a successful delivery rings
//! it, and so does a client command, so the executor parks on one thing
//! and wakes for whichever arrives first.
//!
//! A UDP event-loop node on linux-gnu has no inbox: its loop reads its
//! own socket, and the kernel's socket buffer is the bound. Its doorbell
//! carries only commands and the shutdown, and the loop parks on it in
//! two halves: [`Doorbell::park`] before it waits outside the bell (in
//! `ppoll`, over the socket and an eventfd), [`Doorbell::unpark`] after.
//! A ring or a close while a waiter is parked outside calls the bell's
//! wake hook, which writes the eventfd. This module stays free of FFI,
//! so loom and Miri cover the split park as they cover the condvar one.

#[cfg(not(loom))]
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
#[cfg(loom)]
use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tw_obs::Counter;
use tw_proto::{Msg, ProcessId};

/// One node's wake-up: a generation counter that every arrival bumps.
///
/// The executor reads the generation with [`seen`](Doorbell::seen)
/// *before* it looks at its queues, and parks with
/// [`wait_past`](Doorbell::wait_past) only if they were all empty.
/// Anything queued after the read rings past it, so the wait returns at
/// once instead of sleeping through it — no lost wake-up, whatever the
/// interleaving (`tests/loom.rs`). Every wait is bounded by the caller's
/// timer deadline. [`close`](Doorbell::close) is the shutdown signal: it
/// wakes the waiter and makes `seen` report `None` from then on.
///
/// A waiter that sleeps somewhere else — the UDP event loop in `ppoll` —
/// uses the split park instead of `wait_past`: [`park`](Doorbell::park)
/// with the same `seen`, its own wait, then [`unpark`](Doorbell::unpark).
/// While it is parked, `ring` and `close` call the bell's wake hook
/// ([`with_hook`](Doorbell::with_hook)) instead of the condvar, so the
/// same no-lost-wake-up argument holds.
pub struct Doorbell {
    state: Mutex<Bell>,
    cv: Condvar,
    /// Ends a wait outside the condvar; called by `ring` and `close`
    /// only while a waiter is parked.
    hook: Option<Box<dyn Fn() + Send + Sync>>,
}

#[derive(Default)]
struct Bell {
    generation: u64,
    closed: bool,
    /// Threads inside `wait_past`. A ring with none skips the notify,
    /// which is a syscall even when nobody waits: most rings find the
    /// executor busy, and a receiver that is never parked (the
    /// benchmark's single-threaded ladder) would pay it per datagram.
    waiters: u32,
    /// Threads between `park` and `unpark`: a ring with none skips the
    /// hook, for the same reason.
    parked: u32,
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell {
            state: Mutex::new(Bell::default()),
            cv: Condvar::new(),
            hook: None,
        }
    }
}

impl Doorbell {
    /// An open bell at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An open bell at generation 0 whose rings and close reach a waiter
    /// parked outside it ([`park`](Doorbell::park)) through `hook`.
    pub fn with_hook(hook: impl Fn() + Send + Sync + 'static) -> Self {
        Doorbell {
            hook: Some(Box::new(hook)),
            ..Self::default()
        }
    }

    fn lock(&self) -> MutexGuard<'_, Bell> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Count one arrival and wake a waiting or parked waiter.
    pub fn ring(&self) {
        let mut bell = self.lock();
        bell.generation += 1;
        let (waiting, parked) = (bell.waiters > 0, bell.parked > 0);
        drop(bell);
        if waiting {
            self.cv.notify_all();
        }
        if parked {
            self.call_hook();
        }
    }

    fn call_hook(&self) {
        if let Some(hook) = &self.hook {
            hook();
        }
    }

    /// The generation now, or `None` once the bell is closed.
    pub fn seen(&self) -> Option<u64> {
        let bell = self.lock();
        (!bell.closed).then_some(bell.generation)
    }

    /// Park until the bell rings past `seen`, is closed, or `timeout`
    /// passes, whichever comes first. True when a ring or the close
    /// ended the wait, false when the timeout did.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut bell = self.lock();
        while bell.generation == seen && !bell.closed {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            bell.waiters += 1;
            bell = match self.cv.wait_timeout(bell, left) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
            bell.waiters -= 1;
        }
        true
    }

    /// The first half of a wait outside the bell: unless the bell rang
    /// past `seen` or was closed (false: look at the queues again), count
    /// the caller as parked and return true. From then on, until
    /// [`unpark`](Doorbell::unpark), every ring and the close call the
    /// wake hook, so the caller's own wait returns. A bell without a hook
    /// never ends such a wait; park only on one built
    /// [`with_hook`](Doorbell::with_hook).
    pub fn park(&self, seen: u64) -> bool {
        debug_assert!(self.hook.is_some(), "park on a bell without a wake hook");
        let mut bell = self.lock();
        let quiet = bell.generation == seen && !bell.closed;
        if quiet {
            bell.parked += 1;
        }
        quiet
    }

    /// The second half: the caller's outside wait is over.
    pub fn unpark(&self) {
        self.lock().parked -= 1;
    }

    /// Close the bell for good: wakes the waiter, and every later `seen`
    /// reports `None`.
    pub fn close(&self) {
        let mut bell = self.lock();
        bell.closed = true;
        let parked = bell.parked > 0;
        drop(bell);
        self.cv.notify_all();
        if parked {
            self.call_hook();
        }
    }
}

/// What lands in a node's inbox.
#[derive(Debug, Clone)]
pub enum Incoming {
    /// A single-message datagram from another node.
    Msg(ProcessId, Msg),
    /// A coalesced multi-message datagram from another node; the
    /// messages are applied in order by one dispatch.
    Batch(ProcessId, Vec<Msg>),
}

impl Incoming {
    /// One datagram's messages from `from` as the inbox carries them: a
    /// lone message as [`Incoming::Msg`], more as one [`Incoming::Batch`]
    /// (one channel operation, one dispatch). `None` when there are none.
    pub fn of(from: ProcessId, mut msgs: Vec<Msg>) -> Option<Incoming> {
        match msgs.len() {
            0 => None,
            1 => msgs.pop().map(|msg| Incoming::Msg(from, msg)),
            _ => Some(Incoming::Batch(from, msgs)),
        }
    }
}

/// What became of a datagram handed to an inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deliver {
    /// Queued for the node.
    Delivered,
    /// Inbox full — shed (an omission; counted when a counter is
    /// attached).
    Shed,
    /// The node is gone; datagrams to crashed processes vanish.
    Closed,
}

/// The sending half of a node inbox: a channel, the shed counter and the
/// node's doorbell. Never blocks — a full inbox sheds the datagram,
/// which the protocol treats exactly like network loss.
#[derive(Clone)]
pub struct InboxSender {
    tx: Sender<Incoming>,
    dropped: Option<Counter>,
    bell: Arc<Doorbell>,
}

impl InboxSender {
    /// Wrap a channel sender; `dropped` counts shed datagrams. The
    /// sender starts a fresh [`Doorbell`].
    pub fn new(tx: Sender<Incoming>, dropped: Option<Counter>) -> Self {
        InboxSender {
            tx,
            dropped,
            bell: Arc::new(Doorbell::new()),
        }
    }

    /// The doorbell every delivery into this inbox rings.
    pub fn doorbell(&self) -> &Arc<Doorbell> {
        &self.bell
    }

    /// Offer one datagram to the node.
    pub fn deliver(&self, inc: Incoming) -> Deliver {
        match self.tx.try_send(inc) {
            Ok(()) => {
                self.bell.ring();
                Deliver::Delivered
            }
            Err(TrySendError::Full(_)) => {
                if let Some(c) = &self.dropped {
                    c.inc();
                }
                Deliver::Shed
            }
            Err(TrySendError::Disconnected(_)) => Deliver::Closed,
        }
    }
}

#[cfg(not(loom))]
impl From<Sender<Incoming>> for InboxSender {
    fn from(tx: Sender<Incoming>) -> Self {
        InboxSender::new(tx, None)
    }
}

/// Build a bounded node inbox that sheds on overflow; `dropped` is
/// bumped per shed datagram (wire it to `tw_inbox_dropped_total`). The
/// node's doorbell is [`InboxSender::doorbell`].
pub fn node_inbox(capacity: usize, dropped: Option<Counter>) -> (InboxSender, Receiver<Incoming>) {
    let (tx, rx) = bounded(capacity.max(1));
    (InboxSender::new(tx, dropped), rx)
}

/// Loom stand-in for the crossbeam bounded channel: a mutex-guarded
/// ring with an atomic closed flag, exposing the same `try_send`
/// contract (`Full` when at capacity, `Disconnected` once the receiver
/// dropped) so [`InboxSender::deliver`] above compiles unchanged
/// against it. Only the operations `deliver` exercises are modeled.
#[cfg(loom)]
mod loom_chan {
    use loom::sync::atomic::{AtomicBool, Ordering};
    use loom::sync::{Arc, Mutex};
    use std::collections::VecDeque;

    pub struct Shared<T> {
        buf: Mutex<VecDeque<T>>,
        cap: usize,
        closed: AtomicBool,
    }

    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Same shape as `crossbeam::channel::TrySendError`.
    pub enum TrySendError<T> {
        /// At capacity; the datagram comes back to the caller.
        Full(T),
        /// The receiving side is gone.
        Disconnected(T),
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            buf: Mutex::new(VecDeque::new()),
            cap,
            closed: AtomicBool::new(false),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn try_send(&self, v: T) -> Result<(), TrySendError<T>> {
            if self.0.closed.load(Ordering::Acquire) {
                return Err(TrySendError::Disconnected(v));
            }
            let mut buf = self.0.buf.lock().unwrap();
            if buf.len() >= self.0.cap {
                return Err(TrySendError::Full(v));
            }
            buf.push_back(v);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Drain one queued item (the loom tests' dispatch stand-in).
        pub fn try_recv(&self) -> Option<T> {
            self.0.buf.lock().unwrap().pop_front()
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.closed.store(true, Ordering::Release);
        }
    }
}

#[cfg(loom)]
use loom_chan::{bounded, Receiver, Sender, TrySendError};

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use tw_proto::{ClockSyncMsg, HwTime};

    fn msg(n: u16) -> Incoming {
        Incoming::Msg(
            ProcessId(n),
            Msg::ClockSync(ClockSyncMsg::Request {
                sender: ProcessId(n),
                rid: n as u64,
                hw_send: HwTime(1),
            }),
        )
    }

    #[test]
    fn delivers_until_capacity_then_sheds_and_counts() {
        let shed = Counter::default();
        let (tx, rx) = node_inbox(2, Some(shed.clone()));
        assert_eq!(tx.deliver(msg(1)), Deliver::Delivered);
        assert_eq!(tx.deliver(msg(2)), Deliver::Delivered);
        assert_eq!(tx.deliver(msg(3)), Deliver::Shed);
        assert_eq!(shed.get(), 1);
        // Draining makes room again.
        let _ = rx.try_recv().unwrap();
        assert_eq!(tx.deliver(msg(4)), Deliver::Delivered);
        assert_eq!(shed.get(), 1);
    }

    #[test]
    fn delivery_after_receiver_drop_reports_closed() {
        let shed = Counter::default();
        let (tx, rx) = node_inbox(2, Some(shed.clone()));
        drop(rx);
        assert_eq!(tx.deliver(msg(1)), Deliver::Closed);
        // Closed is not shed: the node is gone, not overloaded.
        assert_eq!(shed.get(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let (tx, _rx) = node_inbox(0, None);
        assert_eq!(tx.deliver(msg(1)), Deliver::Delivered);
        assert_eq!(tx.deliver(msg(2)), Deliver::Shed);
    }

    /// Only a queued datagram rings: a shed one left nothing to wake for.
    #[test]
    fn delivery_rings_the_doorbell_and_shedding_does_not() {
        let (tx, _rx) = node_inbox(1, None);
        let bell = tx.doorbell().clone();
        assert_eq!(bell.seen(), Some(0));
        tx.deliver(msg(1));
        assert_eq!(bell.seen(), Some(1));
        assert_eq!(tx.deliver(msg(2)), Deliver::Shed);
        assert_eq!(bell.seen(), Some(1));
    }

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn a_ring_between_seen_and_wait_returns_at_once() {
        let (tx, rx) = node_inbox(4, None);
        let bell = tx.doorbell().clone();
        let seen = bell.seen().unwrap();
        assert!(rx.try_recv().is_err());
        tx.deliver(msg(1)); // lands after the look at the queue
        let t0 = Instant::now();
        assert!(bell.wait_past(seen, LONG));
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn with_no_ring_the_wait_ends_at_its_bound() {
        let bell = Doorbell::new();
        let seen = bell.seen().unwrap();
        let t0 = Instant::now();
        assert!(!bell.wait_past(seen, Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_wakes_a_waiter_and_ends_seen() {
        let bell = Arc::new(Doorbell::new());
        let seen = bell.seen().unwrap();
        let waiter = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                (bell.wait_past(seen, LONG), t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        bell.close();
        let (woken, took) = waiter.join().unwrap();
        assert!(woken && took < Duration::from_secs(10), "{took:?}");
        assert_eq!(bell.seen(), None);
        // A closed bell never parks anyone again.
        assert!(bell.wait_past(seen, LONG));
    }

    /// A bell whose hook counts its calls.
    fn hooked() -> (Doorbell, Arc<std::sync::atomic::AtomicU32>) {
        let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let counter = calls.clone();
        let bell = Doorbell::with_hook(move || {
            counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        (bell, calls)
    }

    #[test]
    fn the_hook_fires_only_while_a_waiter_is_parked() {
        use std::sync::atomic::Ordering::SeqCst;
        let (bell, calls) = hooked();
        bell.ring();
        assert_eq!(calls.load(SeqCst), 0, "nobody parked");
        let seen = bell.seen().unwrap();
        assert!(bell.park(seen));
        bell.ring();
        bell.ring();
        assert_eq!(calls.load(SeqCst), 2);
        bell.unpark();
        bell.ring();
        assert_eq!(calls.load(SeqCst), 2, "unparked again");
        let seen = bell.seen().unwrap();
        assert!(bell.park(seen));
        bell.close();
        assert_eq!(calls.load(SeqCst), 3, "the close reaches a parked waiter");
        bell.unpark();
    }

    #[test]
    fn park_refuses_after_a_ring_or_the_close() {
        let (bell, calls) = hooked();
        let seen = bell.seen().unwrap();
        bell.ring(); // lands between the look at the queues and the park
        assert!(!bell.park(seen));
        let seen = bell.seen().unwrap();
        bell.close();
        assert!(!bell.park(seen));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 0);
    }
}
