//! The event-based executor (paper §5).
//!
//! One thread per process runs a single event-demultiplexing loop:
//! network datagrams, client commands and the two protocol timers are all
//! dispatched from the same place, one handler at a time. No locking, no
//! inter-thread scheduling — the design the paper adopted after finding
//! the thread-based version's overhead "significant".
//!
//! Hot-path batching happens here: a coalesced datagram's messages are
//! applied in one `on_messages` dispatch, a burst of queued propose
//! commands drains into one `propose_batch` call, and every dispatch's
//! outbound traffic leaves through one [`OutBatch`] flush (one datagram
//! per destination, one vectored syscall on Linux).
//!
//! The loop only schedules: every input goes through the one
//! [`Dispatcher::dispatch`](crate::node::Dispatcher), which times it
//! (step through flush) into the node's `dispatch_latency_us` histogram,
//! making the §5 latency argument measurable: compare this distribution
//! against the thread-based executor's lock-and-switch overhead.

use crate::node::{NodeCommand, NodeParts};
use crate::transport::Incoming;
use bytes::Bytes;
use std::time::Duration as StdDuration;
use std::time::Instant;
use timewheel::Input;
use tw_proto::Semantics;

/// Most propose commands drained into one batch (bounds the latency a
/// later proposer can add to an earlier one's broadcast).
const MAX_PROPOSE_DRAIN: usize = 256;

pub(crate) fn run(parts: NodeParts) {
    let NodeParts {
        mut dispatcher,
        inbox,
        cmds,
        clock,
        recorder,
        gate,
    } = parts;
    // Held on this stack so the flight recorder's tail is spilled even
    // if a handler panics and unwinds this thread (the Node's own Arc
    // keeps the recorder alive, so Drop alone would not fire here).
    let recorder_watch = recorder.clone();
    let _recorder_guard = tw_obs::FlushGuard::new(recorder);
    let metrics = dispatcher.metrics.clone();
    let inbox_depth = metrics.inbox_depth();
    let recorder_buffered = metrics.recorder_buffered();
    let tick = dispatcher.driver.member().config().tick;

    let now = clock.now_hw();
    dispatcher.dispatch(Instant::now(), now, Input::Start);
    let mut next_tick = now + tick;
    let mut shutdown = false;

    while !shutdown {
        // Chaos pause: freeze before the next dispatch, faking a
        // process that stopped making progress (performance failure).
        gate.block_while_paused();

        let now = clock.now_hw();
        let deadline = next_tick.min(dispatcher.driver.clock_deadline());
        let wait_us = (deadline - now).as_micros().max(0) as u64;

        let input = crossbeam::channel::select! {
            recv(inbox) -> m => match m {
                Ok(Incoming::Msg(from, msg)) => Some(Input::Message(from, msg)),
                // One coalesced datagram → one dispatch.
                Ok(Incoming::Batch(from, msgs)) => Some(Input::Messages(from, msgs)),
                Err(_) => break, // transport gone
            },
            recv(cmds) -> c => match c {
                Ok(NodeCommand::Propose(payload, sem)) => {
                    // Drain whatever else the client already queued into
                    // the same batch: under load, many updates share one
                    // dispatch and one multi-frame datagram; an idle
                    // queue degenerates to the classic single propose
                    // with no added latency.
                    let mut updates: Vec<(Bytes, Semantics)> = vec![(payload, sem)];
                    while updates.len() < MAX_PROPOSE_DRAIN {
                        match cmds.try_recv() {
                            Ok(NodeCommand::Propose(p, s)) => updates.push((p, s)),
                            Ok(NodeCommand::Shutdown) => {
                                shutdown = true;
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    Some(Input::Propose(updates))
                }
                Ok(NodeCommand::Shutdown) | Err(_) => break,
            },
            default(StdDuration::from_micros(wait_us)) => None,
        };
        if let Some(input) = input {
            dispatcher.dispatch(Instant::now(), clock.now_hw(), input);
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

        // Standing-backlog gauges: sampled once per loop iteration, not
        // per dispatch — gauges report levels, so the latest look wins.
        inbox_depth.set(inbox.len() as i64);
        if let Some(r) = &recorder_watch {
            recorder_buffered.set(r.buffered() as i64);
        }

        // Publish the member's locally observed status (§6
        // fail-awareness) for harness-side checks.
        dispatcher.publish_status(clock.now_hw());
    }
}
