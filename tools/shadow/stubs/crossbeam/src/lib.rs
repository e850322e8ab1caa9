//! The `crossbeam` API surface this workspace uses, implemented in-tree:
//! `channel::{unbounded, Sender, Receiver}`, the channel error types, and
//! a polling `select!` limited to the two-receivers-plus-default shape the
//! runtime's event loop relies on. Semantics match crossbeam where the
//! workspace can observe them (MPMC, disconnect on last sender/receiver
//! drop). Timing does not: `select!` re-checks its second arm only every
//! 500 µs, and that is in every number `benchmark/` reports (ROADMAP 4c).

/// Channel types mirroring `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        q: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `None` for unbounded channels, `Some(cap)` for bounded ones.
        cap: Option<usize>,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        cv: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Sending half of an unbounded MPMC channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half of an unbounded MPMC channel.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// The channel is disconnected (all receivers dropped).
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Outcome of a non-blocking send attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and at capacity.
        Full(T),
        /// All receivers dropped.
        Disconnected(T),
    }

    /// The channel is empty and disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a non-blocking receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and all senders dropped.
        Disconnected,
    }

    /// Outcome of a bounded-wait receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Deadline passed with nothing queued.
        Timeout,
        /// Empty and all senders dropped.
        Disconnected,
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                q: VecDeque::new(),
                senders: 1,
                receivers: 1,
                cap,
            }),
            cv: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Create a bounded channel that holds at most `cap` queued values.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    impl<T> Sender<T> {
        /// Queue a value; fails if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.q.push_back(value);
            drop(st);
            self.0.cv.notify_one();
            Ok(())
        }

        /// Queue a value without blocking; fails when the channel is at
        /// capacity or every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.0.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = st.cap {
                if st.q.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            st.q.push_back(value);
            drop(st);
            self.0.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.q.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .0
                    .cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive attempt.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.q.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Drain whatever is queued right now without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Values queued right now (like crossbeam's `Receiver::len`).
        pub fn len(&self) -> usize {
            self.0.lock().q.len()
        }

        /// True when nothing is queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.q.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }

    pub use crate::select;
}

/// Stand-in for `crossbeam::channel::select!`, restricted to the one
/// shape this workspace uses: two `recv` arms plus a `default` timeout.
/// The arm bodies see the same `Result<T, RecvError>` binding the real
/// macro provides.
///
/// Two properties mirror the real macro and were violated by earlier
/// stub versions — both cost days of "single-vCPU livelock" mystery:
///
/// 1. **Arm bodies run *outside* the macro's internal wait loop.** The
///    wait loop only picks a ready arm; the body executes afterwards in
///    the caller's own context, so a `break`/`continue` inside an arm
///    targets the *caller's* loop (how the event loop shuts down), not
///    an invisible loop inside the macro.
/// 2. **Waiting blocks instead of sleeping.** The first arm is treated
///    as the hot channel: when both are empty the macro parks in its
///    `recv_timeout` (condvar wait, so a send wakes it immediately) in
///    slices of at most 500µs, re-checking the second arm and the
///    deadline between slices. The old flat 200µs `thread::sleep`
///    stretched every message hop to milliseconds under one vCPU and
///    starved real clusters into never forming a group.
#[macro_export]
macro_rules! select {
    (
        recv($r1:expr) -> $p1:pat => $b1:expr,
        recv($r2:expr) -> $p2:pat => $b2:expr,
        default($d:expr) => $bd:expr $(,)?
    ) => {{
        let mut __tw_sel_r1 = ::std::option::Option::None;
        let mut __tw_sel_r2 = ::std::option::Option::None;
        let __tw_sel_which: u8 = {
            let deadline = ::std::time::Instant::now() + $d;
            loop {
                match $r2.try_recv() {
                    ::std::result::Result::Ok(v) => {
                        __tw_sel_r2 = ::std::option::Option::Some(
                            ::std::result::Result::Ok(v),
                        );
                        break 2;
                    }
                    ::std::result::Result::Err($crate::channel::TryRecvError::Disconnected) => {
                        __tw_sel_r2 = ::std::option::Option::Some(
                            ::std::result::Result::Err($crate::channel::RecvError),
                        );
                        break 2;
                    }
                    ::std::result::Result::Err($crate::channel::TryRecvError::Empty) => {}
                }
                let now = ::std::time::Instant::now();
                if now >= deadline {
                    break 0;
                }
                let slice =
                    ::std::cmp::min(deadline - now, ::std::time::Duration::from_micros(500));
                match $r1.recv_timeout(slice) {
                    ::std::result::Result::Ok(v) => {
                        __tw_sel_r1 = ::std::option::Option::Some(
                            ::std::result::Result::Ok(v),
                        );
                        break 1;
                    }
                    ::std::result::Result::Err($crate::channel::RecvTimeoutError::Disconnected) => {
                        __tw_sel_r1 = ::std::option::Option::Some(
                            ::std::result::Result::Err($crate::channel::RecvError),
                        );
                        break 1;
                    }
                    ::std::result::Result::Err($crate::channel::RecvTimeoutError::Timeout) => {}
                }
            }
        };
        match __tw_sel_which {
            1 => {
                let $p1: ::std::result::Result<_, $crate::channel::RecvError> =
                    __tw_sel_r1.take().expect("select: arm 1 chosen without a value");
                $b1
            }
            2 => {
                let $p2: ::std::result::Result<_, $crate::channel::RecvError> =
                    __tw_sel_r2.take().expect("select: arm 2 chosen without a value");
                $b2
            }
            _ => $bd,
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn try_recv_empty_then_disconnected() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn bounded_try_send_reports_full_then_disconnected() {
        let (tx, rx) = bounded::<i32>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(42));
        h.join().unwrap();
    }

    #[test]
    fn select_macro_drains_and_times_out() {
        let (tx1, rx1) = unbounded::<i32>();
        let (_tx2, rx2) = unbounded::<i32>();
        tx1.send(5).unwrap();
        let mut got = None;
        crate::select! {
            recv(rx1) -> m => got = m.ok(),
            recv(rx2) -> m => got = m.ok(),
            default(Duration::from_millis(5)) => {}
        }
        assert_eq!(got, Some(5));
        let mut timed_out = false;
        crate::select! {
            recv(rx1) -> m => { let _: Result<i32, _> = m; },
            recv(rx2) -> m => { let _: Result<i32, _> = m; },
            default(Duration::from_millis(5)) => timed_out = true,
        }
        assert!(timed_out);
    }
}
