//! The thread-based executor — the baseline the paper measured and
//! rejected (§5, and the comparison in reference \[22]).
//!
//! One thread per event *type*: a receive thread, a protocol-tick thread,
//! a clock-tick thread and a command thread, all serializing on a mutex
//! around the shared `Dispatcher`. Every event pays a lock acquisition and
//! usually a context switch; under load the threads contend. Experiment
//! T7 quantifies the difference against [`crate::event_loop`].

use crate::node::{Dispatcher, NodeCommand, NodeParts};
use crate::transport::Incoming;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Input;

pub(crate) fn run(parts: NodeParts) {
    let NodeParts {
        mut dispatcher,
        datagrams,
        cmds,
        bell,
        clock,
        recorder,
        gate,
    } = parts;
    // Held on the command-loop stack so the flight recorder's tail is
    // spilled even if this thread panics (the Node's Arc keeps the
    // recorder alive, so Drop alone would not fire here).
    let recorder_watch = recorder.clone();
    let _recorder_guard = tw_obs::FlushGuard::new(recorder);
    let metrics = dispatcher.metrics.clone();
    let tick = dispatcher.driver.member().config().tick;
    let inbox = datagrams.into_inbox();

    // Start the member before the event threads exist.
    dispatcher.dispatch(Instant::now(), clock.now_hw(), Input::Start);

    // One lock around the whole dispatcher — driver, hook and outbound
    // batch — so a dispatch is atomic: the snapshot a hook returns
    // reaches the member before any other thread's input does, and two
    // threads' effects never interleave in one flush.
    let shared: Arc<Mutex<Dispatcher>> = Arc::new(Mutex::new(dispatcher));
    // What every event thread does with its input. The wait for the
    // lock is inside the timed span: it is the overhead T7 measures.
    let dispatch = {
        let shared = shared.clone();
        let clock = clock.clone();
        move |input: Input| {
            let started = Instant::now();
            let mut dispatcher = shared.lock();
            dispatcher.dispatch(started, clock.now_hw(), input);
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // Faithful to the paper's baseline: "a separate thread is spawned for
    // each event type". A demultiplexer thread classifies datagrams by
    // message kind and hands each kind to its own handler thread; every
    // handler serializes on the dispatcher lock. The per-event context
    // switches and lock hand-offs are exactly the overhead §5 describes.
    {
        let mut kind_txs = std::collections::HashMap::new();
        for kind in tw_proto::MsgKind::ALL {
            let (tx, rx) = crossbeam::channel::unbounded::<(tw_proto::ProcessId, tw_proto::Msg)>();
            kind_txs.insert(kind, tx);
            let dispatch = dispatch.clone();
            let stop = stop.clone();
            let gate = gate.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    gate.block_while_paused();
                    match rx.recv_timeout(StdDuration::from_millis(20)) {
                        Ok((from, msg)) => dispatch(Input::Message(from, msg)),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(_) => return,
                    }
                }
            }));
        }
        let stop = stop.clone();
        let gate = gate.clone();
        let inbox_depth = metrics.inbox_depth();
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                gate.block_while_paused();
                inbox_depth.set(inbox.len() as i64);
                match inbox.recv_timeout(StdDuration::from_millis(20)) {
                    Ok(Incoming::Msg(from, msg)) => {
                        if let Some(tx) = kind_txs.get(&msg.kind()) {
                            let _ = tx.send((from, msg));
                        }
                    }
                    // A coalesced datagram: fan the messages out to the
                    // per-kind handlers one by one — faithful to the
                    // baseline's thread-per-event-type design (this
                    // executor exists to measure that design's cost).
                    Ok(Incoming::Batch(from, msgs)) => {
                        for msg in msgs {
                            if let Some(tx) = kind_txs.get(&msg.kind()) {
                                let _ = tx.send((from, msg));
                            }
                        }
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(_) => return,
                }
            }
        }));
    }

    // Protocol-tick thread.
    {
        let dispatch = dispatch.clone();
        let shared = shared.clone();
        let clock = clock.clone();
        let stop = stop.clone();
        let metrics = metrics.clone();
        let gate = gate.clone();
        let recorder_buffered = metrics.recorder_buffered();
        handles.push(std::thread::spawn(move || {
            let period = StdDuration::from_micros(tick.as_micros() as u64);
            while !stop.load(Ordering::Relaxed) {
                gate.block_while_paused();
                let before = clock.now_hw();
                std::thread::sleep(period);
                // How late the tick fired versus its intended deadline
                // (sleep start + period): the scheduler latency this
                // baseline pays per tick.
                let lag = clock.now_hw() - (before + tick);
                metrics.on_tick_lag(lag.as_micros().max(0) as u64);
                dispatch(Input::Tick);
                if let Some(r) = &recorder_watch {
                    recorder_buffered.set(r.buffered() as i64);
                }
                // Publish the member's locally observed status (§6
                // fail-awareness) for harness-side checks.
                shared.lock().publish_status(clock.now_hw());
            }
        }));
    }

    // Clock-tick thread.
    {
        let dispatch = dispatch.clone();
        let shared = shared.clone();
        let clock = clock.clone();
        let stop = stop.clone();
        let gate = gate.clone();
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                gate.block_while_paused();
                let due = shared.lock().driver.clock_deadline();
                let now = clock.now_hw();
                if now >= due {
                    metrics.on_deadline_overrun((now - due).as_micros().max(0) as u64);
                    dispatch(Input::ClockTick);
                } else {
                    let wait = ((due - now).as_micros() as u64).min(20_000);
                    std::thread::sleep(StdDuration::from_micros(wait.max(100)));
                }
            }
        }));
    }

    // Command handling runs on this thread until shutdown, under the
    // event loop's admission rule: no proposal while the next decision
    // has no room for it. Every wait is at most a tick, and a closed
    // bell ends it at once.
    let period = StdDuration::from_micros(tick.as_micros() as u64);
    while let Some(seen) = bell.seen() {
        let room = shared.lock().driver.member().proposal_room();
        if room == 0 {
            bell.wait_past(seen, period);
            continue;
        }
        match cmds.recv_timeout(period) {
            Ok(NodeCommand::Propose(payload, sem)) => {
                dispatch(Input::Propose(vec![(payload, sem)]))
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
}
