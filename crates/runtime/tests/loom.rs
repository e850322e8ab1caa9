//! Loom model checks for the runtime's hand-rolled concurrency
//! primitives (`tw_runtime::status`, `tw_runtime::inbox` and its
//! doorbell, both its condvar wait and its split park around a wait
//! outside the bell).
//!
//! These tests only exist under `RUSTFLAGS="--cfg loom"`; a normal
//! `cargo test` compiles this file to nothing. Under loom, each
//! `loom::model` closure is executed once per *possible interleaving*
//! of the threads it spawns, so the assertions quantify over every
//! schedule the memory model admits — the dynamic complement to the
//! concurrency pass of `cargo xtask lint` (DESIGN.md §13).
//!
//! Run: `RUSTFLAGS="--cfg loom" cargo test -p tw-runtime --test loom`
//! With the in-tree `loom` (tools/shadow/stubs/loom) that is a
//! single-schedule smoke run; CI's `concurrency-analysis` job strips the
//! `[patch.crates-io]` table first, so the published crate explores.
#![cfg(loom)]

use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::time::Duration;
use tw_proto::{ClockSyncMsg, HwTime, Msg, ProcessId};
use tw_runtime::inbox::{node_inbox, Deliver, Doorbell, Incoming};
use tw_runtime::status::{NodeStatus, StatusCell};

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

const STATUS_A: NodeStatus = NodeStatus {
    up_to_date: true,
    view_len: 3,
    view_seq: 7,
};
const STATUS_B: NodeStatus = NodeStatus {
    up_to_date: false,
    view_len: 2,
    view_seq: 8,
};
const STATUS_INIT: NodeStatus = NodeStatus {
    up_to_date: false,
    view_len: 0,
    view_seq: 0,
};

/// A reader racing two publishes can only ever observe one of the
/// three complete statuses — never a torn mix of their bit fields.
#[test]
fn status_cell_reads_are_never_torn() {
    loom::model(|| {
        let cell = Arc::new(StatusCell::new());
        let writer = {
            let cell = cell.clone();
            thread::spawn(move || {
                cell.publish(STATUS_A);
                cell.publish(STATUS_B);
            })
        };
        let got = cell.read();
        assert!(
            got == STATUS_INIT || got == STATUS_A || got == STATUS_B,
            "torn read: {got:?}"
        );
        writer.join().unwrap();
        // After the writer is joined, the last publish is visible.
        assert_eq!(cell.read(), STATUS_B);
    });
}

/// With a single writer publishing monotonically increasing view
/// sequences, a reader's successive reads are monotone too: the
/// release store / acquire load pairing forbids going back in time.
#[test]
fn status_cell_view_seq_is_monotone_for_a_reader() {
    loom::model(|| {
        let cell = Arc::new(StatusCell::new());
        let writer = {
            let cell = cell.clone();
            thread::spawn(move || {
                cell.publish(STATUS_A); // seq 7
                cell.publish(STATUS_B); // seq 8
            })
        };
        let first = cell.read().view_seq;
        let second = cell.read().view_seq;
        assert!(
            second >= first,
            "view_seq ran backwards: {first} then {second}"
        );
        writer.join().unwrap();
    });
}

/// Two senders racing a capacity-1 inbox: exactly one datagram is
/// queued or drained, every other one is *counted* shed — the race can
/// lose a message only by saying so.
#[test]
fn inbox_at_capacity_sheds_and_counts_every_loss() {
    loom::model(|| {
        let shed = tw_obs::Counter::default();
        let (tx, rx) = node_inbox(1, Some(shed.clone()));
        let t1 = {
            let tx = tx.clone();
            thread::spawn(move || tx.deliver(msg(1)))
        };
        let r2 = tx.deliver(msg(2));
        let r1 = t1.join().unwrap();
        let outcomes = [r1, r2];
        let delivered = outcomes
            .iter()
            .filter(|d| **d == Deliver::Delivered)
            .count();
        let shed_n = outcomes.iter().filter(|d| **d == Deliver::Shed).count();
        assert_eq!(delivered + shed_n, 2, "no datagram silently vanished");
        assert!(delivered >= 1, "capacity-1 inbox accepted nothing");
        assert_eq!(shed.get(), shed_n as u64, "every shed datagram is counted");
        // End-state accounting: queued + shed == offered.
        let mut queued = 0;
        while rx.try_recv().is_some() {
            queued += 1;
        }
        assert_eq!(queued + shed_n, 2);
    });
}

/// A sender racing the receiver's drop either delivers into the live
/// queue or observes `Closed` — and `Closed` is never counted as shed
/// (the node is gone, not overloaded).
#[test]
fn inbox_delivery_racing_receiver_drop_is_delivered_or_closed() {
    loom::model(|| {
        let shed = tw_obs::Counter::default();
        let (tx, rx) = node_inbox(4, Some(shed.clone()));
        let closer = thread::spawn(move || drop(rx));
        let outcome = tx.deliver(msg(1));
        assert!(
            outcome == Deliver::Delivered || outcome == Deliver::Closed,
            "a roomy inbox cannot shed: {outcome:?}"
        );
        assert_eq!(shed.get(), 0);
        closer.join().unwrap();
    });
}

/// The executor's park protocol against a racing delivery: read the
/// bell, look at the inbox, park only if it was empty. Whatever the
/// interleaving, the consumer never sleeps through a queued datagram —
/// a ring lands either before `seen` (the inbox then holds the datagram)
/// or after it (the wait then returns at once). Loom does not model
/// timeouts, so a lost wake-up shows up as a deadlock; the in-tree smoke
/// run reports it as the wait running out.
#[test]
fn doorbell_never_sleeps_through_a_queued_datagram() {
    loom::model(|| {
        let (tx, rx) = node_inbox(4, None);
        let bell = tx.doorbell().clone();
        let producer = thread::spawn(move || tx.deliver(msg(1)));
        loop {
            let seen = bell.seen().expect("nobody closes this bell");
            if rx.try_recv().is_some() {
                break;
            }
            assert!(
                bell.wait_past(seen, Duration::from_secs(30)),
                "slept through a queued datagram"
            );
        }
        assert_eq!(producer.join().unwrap(), Deliver::Delivered);
    });
}

/// Shutdown races the park: a close before `seen` makes `seen` say so,
/// a close after it ends the wait.
#[test]
fn doorbell_close_is_never_missed() {
    loom::model(|| {
        let (tx, _rx) = node_inbox(4, None);
        let bell = tx.doorbell().clone();
        let closer = {
            let bell = bell.clone();
            thread::spawn(move || bell.close())
        };
        while let Some(seen) = bell.seen() {
            assert!(
                bell.wait_past(seen, Duration::from_secs(30)),
                "missed the close"
            );
        }
        closer.join().unwrap();
    });
}

/// Stand-in for the event loop's eventfd: a counter the bell's hook
/// bumps and the outside wait (`ppoll` in the real loop) sleeps on until
/// it is non-zero, then resets.
struct EventFdModel {
    count: Mutex<u64>,
    cv: Condvar,
}

impl EventFdModel {
    fn new() -> Self {
        EventFdModel {
            count: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn wake(&self) {
        *self.count.lock().unwrap() += 1;
        self.cv.notify_all();
    }

    /// The outside wait: true once woken, false when the bound ran out
    /// first (loom does not model timeouts, so there a lost wake-up is
    /// a deadlock instead).
    fn wait(&self) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut count = self.count.lock().unwrap();
        while *count == 0 {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            count = self.cv.wait_timeout(count, left).unwrap().0;
        }
        *count = 0;
        true
    }
}

/// A bell whose hook wakes a modeled eventfd, as the UDP event loop's
/// does.
fn hooked_bell() -> (Arc<Doorbell>, Arc<EventFdModel>) {
    let efd = Arc::new(EventFdModel::new());
    let hook = efd.clone();
    (Arc::new(Doorbell::with_hook(move || hook.wake())), efd)
}

/// The split park against a racing command: read the bell, look at the
/// queue, `park`, wait outside the bell, `unpark`. Whatever the
/// interleaving, the consumer never sleeps through a queued command — a
/// ring lands before `seen` (the queue then holds it), between `seen`
/// and `park` (`park` then refuses), or after `park` (the hook then
/// wakes the outside wait).
#[test]
fn doorbell_park_never_sleeps_through_a_queued_command() {
    loom::model(|| {
        let (bell, efd) = hooked_bell();
        let (tx, rx) = node_inbox(4, None);
        let producer = {
            let bell = bell.clone();
            thread::spawn(move || {
                // As `Node::propose`: queue, then ring the node's bell.
                let queued = tx.deliver(msg(1));
                bell.ring();
                queued
            })
        };
        loop {
            let seen = bell.seen().expect("nobody closes this bell");
            if rx.try_recv().is_some() {
                break;
            }
            if bell.park(seen) {
                let woken = efd.wait();
                bell.unpark();
                assert!(woken, "slept through a queued command");
            }
        }
        assert_eq!(producer.join().unwrap(), Deliver::Delivered);
    });
}

/// Shutdown races the split park: a close before `seen` makes `seen`
/// say so, one before `park` makes `park` refuse, one after `park`
/// wakes the outside wait through the hook.
#[test]
fn doorbell_close_is_never_missed_by_a_parked_waiter() {
    loom::model(|| {
        let (bell, efd) = hooked_bell();
        let closer = {
            let bell = bell.clone();
            thread::spawn(move || bell.close())
        };
        while let Some(seen) = bell.seen() {
            if bell.park(seen) {
                let woken = efd.wait();
                bell.unpark();
                assert!(woken, "missed the close");
            }
        }
        closer.join().unwrap();
    });
}
