//! Typed trace events and the pluggable sink they flow through.
//!
//! Every event names the emitting member and carries a [`ClockStamp`]:
//! the member's raw hardware clock reading *and* the synchronized time
//! its fail-aware clock translated it to. Consumers correlate events
//! across members on the synchronized component and diagnose clock
//! behaviour on the hardware component — exactly the two time bases the
//! paper's timed asynchronous model distinguishes.
//!
//! Events are plain `Copy` data over [`tw_proto`] vocabulary types; a
//! member set travels as an [`AckBits`] rank bitmask, so emitting an
//! event never allocates. When no sink is attached, [`Tracer::emit`]
//! does not even construct the event.

use std::fmt;
use std::sync::{Arc, Mutex};
use tw_proto::{AckBits, HwTime, Ordinal, ProcessId, ProposalId, Semantics, SyncTime, ViewId};

/// The hardware/synchronized clock pair an event is stamped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockStamp {
    /// The member's hardware clock at the input that caused the event.
    pub hw: HwTime,
    /// The synchronized time the fail-aware clock mapped it to.
    pub sync: SyncTime,
}

/// The kind of fault a chaos harness injected into a run.
///
/// Each kind maps onto the timed-asynchronous failure model the paper
/// assumes (DESIGN.md §11): drop/duplicate/reorder/delay/corrupt are
/// omission or performance failures of the datagram service, cut/heal
/// describe the link matrix, and crash/restart/pause/resume are process
/// failures. The discriminant is the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FaultKind {
    /// A datagram was discarded (omission failure).
    Drop = 0,
    /// A datagram was delivered twice.
    Duplicate = 1,
    /// A datagram was held back past later traffic (bounded reorder).
    Reorder = 2,
    /// A datagram was delayed (performance failure).
    Delay = 3,
    /// A datagram's bytes were corrupted, then dropped at decode
    /// (checksummed omission).
    Corrupt = 4,
    /// A directional link was cut.
    CutLink = 5,
    /// A directional link was healed.
    HealLink = 6,
    /// A node was crash-stopped.
    Crash = 7,
    /// A crashed node was restarted (rejoins via the §5 join path).
    Restart = 8,
    /// A node's event processing was paused (performance failure).
    Pause = 9,
    /// A paused node was resumed.
    Resume = 10,
}

impl FaultKind {
    /// Every kind, in wire-byte order.
    pub const ALL: [FaultKind; 11] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Delay,
        FaultKind::Corrupt,
        FaultKind::CutLink,
        FaultKind::HealLink,
        FaultKind::Crash,
        FaultKind::Restart,
        FaultKind::Pause,
        FaultKind::Resume,
    ];

    /// Stable label for metrics keys and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Delay => "delay",
            FaultKind::Corrupt => "corrupt",
            FaultKind::CutLink => "cut-link",
            FaultKind::HealLink => "heal-link",
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
            FaultKind::Pause => "pause",
            FaultKind::Resume => "resume",
        }
    }

    /// Decode a wire byte; `None` for values this version doesn't know.
    pub fn from_u8(b: u8) -> Option<FaultKind> {
        FaultKind::ALL.get(b as usize).copied()
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One protocol-visible transition, as observed by one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The member held the decider role and broadcast its decision.
    DecisionSent {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks at emission.
        at: ClockStamp,
        /// The decision's send timestamp.
        send_ts: SyncTime,
        /// The view the decision was sent in.
        view: ViewId,
    },
    /// The member accepted a decision from the rotation.
    DecisionReceived {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks at acceptance.
        at: ClockStamp,
        /// Who sent the decision.
        from: ProcessId,
        /// The decision's send timestamp.
        send_ts: SyncTime,
        /// The view the decision carried.
        view: ViewId,
    },
    /// The failure detector (or a concurring no-decision message) made
    /// this member suspect another.
    SuspicionRaised {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks when the suspicion was raised.
        at: ClockStamp,
        /// The suspected member.
        suspect: ProcessId,
        /// The view the suspicion arose in.
        view: ViewId,
    },
    /// The member sent its no-decision message — one hop of the §4.1
    /// single-failure ring.
    NoDecisionHop {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks at the send.
        at: ClockStamp,
        /// The suspect the ring is removing.
        suspect: ProcessId,
        /// The no-decision message's send timestamp.
        send_ts: SyncTime,
        /// The view the election belongs to.
        view: ViewId,
    },
    /// A member holding the allegedly missed decision became decider and
    /// rescued the rotation with no membership change (§4.2).
    WrongSuspicionRescue {
        /// Emitting (rescuing) member.
        pid: ProcessId,
        /// Local clocks at the rescue.
        at: ClockStamp,
        /// The wrongly suspected member.
        suspect: ProcessId,
        /// The view that was preserved.
        view: ViewId,
    },
    /// The member sent a reconfiguration message in its own slot (§4.2
    /// n-failure election).
    ReconfigSlotFired {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks at the send.
        at: ClockStamp,
        /// The timewheel slot index the message was sent in.
        slot: i64,
        /// Size of the reconfiguration-list carried.
        listed: u32,
        /// Whether the list was deliberately empty (mixed-election
        /// cooldown).
        empty: bool,
    },
    /// The member installed a new group view.
    ViewInstalled {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks at installation.
        at: ClockStamp,
        /// The installed view's identity.
        view: ViewId,
        /// The installed member set, as a rank bitmask.
        members: AckBits,
    },
    /// The member delivered an update to its application.
    Delivered {
        /// Emitting member.
        pid: ProcessId,
        /// Local clocks at delivery.
        at: ClockStamp,
        /// The delivered proposal.
        id: ProposalId,
        /// Its ordinal, when known at delivery time (unordered updates
        /// may legally deliver before ordering).
        ordinal: Option<Ordinal>,
        /// The semantics it was broadcast with.
        semantics: Semantics,
        /// Its synchronized send timestamp.
        send_ts: SyncTime,
        /// The view the member was in when it delivered.
        view: ViewId,
    },
    /// A new decider marked undeliverable proposals while creating a
    /// group (§4.3).
    Purged {
        /// Emitting (creating) member.
        pid: ProcessId,
        /// Local clocks at creation.
        at: ClockStamp,
        /// The freshly created view.
        view: ViewId,
        /// Proposals lost with the departed members (category 1).
        lost: u32,
        /// Order/atomicity orphans (categories 2–3).
        orphaned: u32,
        /// Unknown-dependency marks (category 4).
        unknown: u32,
    },
    /// A chaos harness injected a fault into the run. Emitted by the
    /// fault-injection transport and the chaos controller — never by the
    /// protocol — so recordings of adversarial runs are self-describing.
    FaultInjected {
        /// The node whose traffic or lifecycle was affected (for link
        /// faults, the sending side).
        pid: ProcessId,
        /// Injection time (the harness's clock; `sync` is its best
        /// global estimate).
        at: ClockStamp,
        /// What was injected.
        kind: FaultKind,
        /// The link's far end for link faults; `pid` itself for
        /// node-scoped faults (crash/restart/pause/resume).
        target: ProcessId,
        /// Kind-specific detail: hold/delay in milliseconds for
        /// `Reorder`/`Delay`, the flipped byte offset for `Corrupt`,
        /// the schedule step index for controller ops, else 0.
        arg: u32,
    },
    /// An event tag this consumer does not know (newer producer); the
    /// payload was skipped. Lets old auditors tail new clusters.
    Unknown {
        /// The unrecognized wire tag.
        tag: u8,
    },
}

impl TraceEvent {
    /// Static label for metrics keys and debug output.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::DecisionSent { .. } => "decision-sent",
            TraceEvent::DecisionReceived { .. } => "decision-received",
            TraceEvent::SuspicionRaised { .. } => "suspicion-raised",
            TraceEvent::NoDecisionHop { .. } => "no-decision-hop",
            TraceEvent::WrongSuspicionRescue { .. } => "wrong-suspicion-rescue",
            TraceEvent::ReconfigSlotFired { .. } => "reconfig-slot-fired",
            TraceEvent::ViewInstalled { .. } => "view-installed",
            TraceEvent::Delivered { .. } => "delivered",
            TraceEvent::Purged { .. } => "purged",
            TraceEvent::FaultInjected { .. } => "fault-injected",
            TraceEvent::Unknown { .. } => "unknown",
        }
    }

    /// The emitting member, when known.
    pub fn pid(&self) -> Option<ProcessId> {
        match self {
            TraceEvent::DecisionSent { pid, .. }
            | TraceEvent::DecisionReceived { pid, .. }
            | TraceEvent::SuspicionRaised { pid, .. }
            | TraceEvent::NoDecisionHop { pid, .. }
            | TraceEvent::WrongSuspicionRescue { pid, .. }
            | TraceEvent::ReconfigSlotFired { pid, .. }
            | TraceEvent::ViewInstalled { pid, .. }
            | TraceEvent::Delivered { pid, .. }
            | TraceEvent::Purged { pid, .. }
            | TraceEvent::FaultInjected { pid, .. } => Some(*pid),
            TraceEvent::Unknown { .. } => None,
        }
    }

    /// The event's clock stamp, when known.
    pub fn stamp(&self) -> Option<ClockStamp> {
        match self {
            TraceEvent::DecisionSent { at, .. }
            | TraceEvent::DecisionReceived { at, .. }
            | TraceEvent::SuspicionRaised { at, .. }
            | TraceEvent::NoDecisionHop { at, .. }
            | TraceEvent::WrongSuspicionRescue { at, .. }
            | TraceEvent::ReconfigSlotFired { at, .. }
            | TraceEvent::ViewInstalled { at, .. }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::Purged { at, .. }
            | TraceEvent::FaultInjected { at, .. } => Some(*at),
            TraceEvent::Unknown { .. } => None,
        }
    }
}

/// Where trace events go. Implementations must tolerate concurrent
/// `record` calls (cluster members emit from their own threads).
pub trait TraceSink: Send + Sync {
    /// Consume one event. Called on the emitting member's thread; keep it
    /// cheap.
    fn record(&self, ev: &TraceEvent);
}

/// A member's handle on its (optional) trace sink.
///
/// `Tracer` is deliberately cheap to clone and carry inside protocol
/// state: a disabled tracer is a `None` and [`Tracer::emit`] never even
/// builds the event, so tracing costs nothing unless a sink is attached.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<dyn TraceSink>>);

impl Tracer {
    /// A tracer with no sink: every emit is a no-op.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer feeding `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer(Some(sink))
    }

    /// Record the event produced by `make` — if and only if a sink is
    /// attached. The closure keeps the disabled path free of even the
    /// event construction.
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.record(&make());
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Tracer(attached)"
        } else {
            "Tracer(disabled)"
        })
    }
}

/// A sink that buffers every event in memory — the test workhorse.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Move everything recorded so far to the end of `out`.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.lock());
    }

    /// How many events were recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl TraceSink for VecSink {
    fn record(&self, ev: &TraceEvent) {
        self.lock().push(*ev);
    }
}

/// Fans every event out to several sinks, in order — e.g. a node's
/// flight recorder plus a cluster-wide live auditor.
#[derive(Default)]
pub struct TeeSink(Vec<Arc<dyn TraceSink>>);

impl TeeSink {
    /// A tee over `sinks`, invoked in the given order.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink(sinks)
    }
}

impl TraceSink for TeeSink {
    fn record(&self, ev: &TraceEvent) {
        for sink in &self.0 {
            sink.record(ev);
        }
    }
}

impl fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TeeSink({} sinks)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent::DecisionSent {
            pid: ProcessId(1),
            at: ClockStamp {
                hw: HwTime(10),
                sync: SyncTime(12),
            },
            send_ts: SyncTime(12),
            view: ViewId::new(3, ProcessId(0)),
        }
    }

    #[test]
    fn disabled_tracer_never_builds_the_event() {
        let t = Tracer::disabled();
        let mut built = false;
        t.emit(|| {
            built = true;
            sample()
        });
        assert!(!built);
    }

    #[test]
    fn vec_sink_records_in_order() {
        let sink = Arc::new(VecSink::new());
        let t = Tracer::new(sink.clone());
        t.emit(sample);
        t.emit(|| TraceEvent::Unknown { tag: 200 });
        let evs = sink.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].label(), "decision-sent");
        assert_eq!(evs[0].pid(), Some(ProcessId(1)));
        assert_eq!(evs[1].pid(), None);
        let mut out = vec![sample()];
        sink.drain_into(&mut out);
        assert_eq!(out.len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn tee_sink_fans_out_to_every_sink() {
        let a = Arc::new(VecSink::new());
        let b = Arc::new(VecSink::new());
        let tee = TeeSink::new(vec![
            a.clone() as Arc<dyn TraceSink>,
            b.clone() as Arc<dyn TraceSink>,
        ]);
        let t = Tracer::new(Arc::new(tee));
        t.emit(sample);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn cloned_tracers_share_the_sink() {
        let sink = Arc::new(VecSink::new());
        let t = Tracer::new(sink.clone());
        let t2 = t.clone();
        t.emit(sample);
        t2.emit(sample);
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn labels_and_stamps_cover_all_variants() {
        let at = ClockStamp::default();
        let pid = ProcessId(0);
        let view = ViewId::new(1, pid);
        let all = [
            sample(),
            TraceEvent::DecisionReceived {
                pid,
                at,
                from: ProcessId(1),
                send_ts: SyncTime(1),
                view,
            },
            TraceEvent::SuspicionRaised {
                pid,
                at,
                suspect: ProcessId(1),
                view,
            },
            TraceEvent::NoDecisionHop {
                pid,
                at,
                suspect: ProcessId(1),
                send_ts: SyncTime(1),
                view,
            },
            TraceEvent::WrongSuspicionRescue {
                pid,
                at,
                suspect: ProcessId(1),
                view,
            },
            TraceEvent::ReconfigSlotFired {
                pid,
                at,
                slot: 7,
                listed: 2,
                empty: false,
            },
            TraceEvent::ViewInstalled {
                pid,
                at,
                view,
                members: AckBits(0b111),
            },
            TraceEvent::Delivered {
                pid,
                at,
                id: ProposalId::new(pid, 1),
                ordinal: Some(Ordinal(4)),
                semantics: Semantics::TOTAL_STRONG,
                send_ts: SyncTime(1),
                view,
            },
            TraceEvent::Purged {
                pid,
                at,
                view,
                lost: 1,
                orphaned: 2,
                unknown: 0,
            },
            TraceEvent::FaultInjected {
                pid,
                at,
                kind: FaultKind::Drop,
                target: ProcessId(1),
                arg: 0,
            },
        ];
        let labels: std::collections::BTreeSet<_> = all.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), all.len(), "labels must be distinct");
        for e in &all {
            assert!(e.pid().is_some());
            assert!(e.stamp().is_some());
        }
    }

    #[test]
    fn fault_kinds_roundtrip_with_distinct_labels() {
        let labels: std::collections::BTreeSet<_> =
            FaultKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels.len(), FaultKind::ALL.len());
        for (i, k) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(*k as u8, i as u8, "wire byte must match position");
            assert_eq!(FaultKind::from_u8(*k as u8), Some(*k));
        }
        assert_eq!(FaultKind::from_u8(FaultKind::ALL.len() as u8), None);
    }
}
