//! The `crossbeam` API surface this workspace uses, implemented in-tree:
//! `channel::{unbounded, bounded, Sender, Receiver}` and the channel error
//! types, over a std mutex plus condvar. Semantics match crossbeam where
//! the workspace can observe them (MPMC, disconnect on last
//! sender/receiver drop, `try_send` on a full bounded channel). There is
//! no `select!`: the runtime's event loop waits on a doorbell of its own
//! (`tw_runtime::inbox::Doorbell`).

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
}
