//! The one way to drive a [`Member`].
//!
//! [`Member`] is a pure `(now, input) → actions` machine; everything
//! between it and a host — which entry point an input maps to, the
//! application hook and the snapshot it feeds back, the clock-tick
//! deadline — lives here once. A host (the simulator adapter, the event
//! loop, the thread-per-event-type baseline) only *schedules*: it decides
//! when an [`Input`] happens, calls [`Driver::step`], and routes the
//! returned effects to its network and its client.

use crate::events::{Action, Delivery};
use crate::member::{Member, ProposeError};
use bytes::Bytes;
use tw_proto::{HwTime, Msg, ProcessId, Semantics};

/// What the application hook is called with.
#[derive(Debug)]
pub enum AppEvent<'a> {
    /// An update was delivered (apply it).
    Deliver(&'a Delivery),
    /// A join-time snapshot arrived (replace the application state).
    InstallSnapshot(&'a Bytes),
}

/// Application hook: called synchronously, in delivery order, on every
/// delivery and on join-time snapshot installation. A `Some(snapshot)`
/// return value becomes the member's fresh application snapshot (shipped
/// to joiners in state transfers), keeping snapshot and delivery stream
/// consistent by construction. Hosts that never leave one thread (the
/// simulator) accept the same closure shape without the `Send` bound.
pub type DeliveryHook = Box<dyn FnMut(AppEvent<'_>) -> Option<Bytes> + Send>;

/// Everything that can happen to a member.
#[derive(Debug)]
pub enum Input {
    /// Process creation.
    Start,
    /// Restart after a crash: new incarnation, volatile state gone.
    Recover,
    /// One datagram carrying one message.
    Message(ProcessId, Msg),
    /// One coalesced datagram: applied in one dispatch.
    Messages(ProcessId, Vec<Msg>),
    /// Client updates, broadcast in one dispatch.
    Propose(Vec<(Bytes, Semantics)>),
    /// The fixed-period protocol tick (the host owns its period:
    /// `config().tick`).
    Tick,
    /// The clock-synchronization resync tick, due at
    /// [`Driver::clock_deadline`].
    ClockTick,
}

/// A [`Member`] plus the host-independent glue around it.
#[derive(Debug, Clone)]
pub struct Driver {
    member: Member,
    next_clock: HwTime,
}

impl Driver {
    /// Wrap a member; feed it [`Input::Start`] first.
    pub fn new(member: Member) -> Self {
        Driver {
            member,
            next_clock: HwTime::ZERO,
        }
    }

    /// The driven member (read-only: state changes go through
    /// [`Driver::step`]).
    pub fn member(&self) -> &Member {
        &self.member
    }

    /// Set-up access to the member (attach a tracer, take transferred
    /// state). Not for feeding it events.
    pub fn member_mut(&mut self) -> &mut Member {
        &mut self.member
    }

    /// Hardware time at which the host owes the next [`Input::ClockTick`].
    pub fn clock_deadline(&self) -> HwTime {
        self.next_clock
    }

    /// Apply one input at hardware time `now` and return what is left
    /// for the host to route, in protocol order: `Broadcast`, `Send`,
    /// `Deliver`, `InstallView` and `LeftGroup`. `ScheduleClockTick` and
    /// `InstallAppState` never reach the host — they become
    /// [`Driver::clock_deadline`] and an [`AppEvent::InstallSnapshot`]
    /// here. `hook` has seen every returned `Deliver` by the time this
    /// returns. Only [`Input::Propose`] can fail.
    pub fn step(
        &mut self,
        now: HwTime,
        input: Input,
        hook: &mut Option<impl FnMut(AppEvent<'_>) -> Option<Bytes>>,
    ) -> Result<Vec<Action>, ProposeError> {
        let mut effects = match input {
            Input::Start => self.member.on_start(now),
            Input::Recover => self.member.on_recover(now),
            Input::Message(from, msg) => self.member.on_message(now, from, msg),
            Input::Messages(from, msgs) => self.member.on_messages(now, from, msgs),
            Input::Propose(batch) => self.member.propose_batch(now, batch)?,
            Input::Tick => self.member.on_tick(now),
            Input::ClockTick => {
                // A clock tick that does not re-arm itself falls back to
                // the plain resync period.
                self.next_clock = now + self.member.config().clock.resync_interval;
                self.member.on_clock_tick(now)
            }
        };
        let mut snapshot = None;
        let mut tell_app = |ev: AppEvent<'_>| {
            if let Some(s) = hook.as_mut().and_then(|h| h(ev)) {
                snapshot = Some(s);
            }
        };
        effects.retain(|a| match a {
            Action::Deliver(d) => {
                tell_app(AppEvent::Deliver(d));
                true
            }
            Action::InstallAppState(b) => {
                tell_app(AppEvent::InstallSnapshot(b));
                false
            }
            Action::ScheduleClockTick(d) => {
                self.next_clock = now + *d;
                false
            }
            _ => true,
        });
        // The hook's latest word is the state joiners must receive.
        if let Some(s) = snapshot {
            self.member.set_app_snapshot(s);
        }
        Ok(effects)
    }
}
