//! Offline cross-node trace analysis: merge per-node recordings on the
//! synchronized clock, reconstruct protocol spans, attribute per-phase
//! latency, and audit the merged stream.
//!
//! The paper's fail-aware clock synchronization guarantees that two
//! synchronized clocks deviate by at most ε — which makes the `sync`
//! component of every [`ClockStamp`](crate::ClockStamp) a *global* coordinate, accurate to
//! ε. This module exploits exactly that: recordings from N nodes merge
//! into one timeline by sorting on synchronized time (ties broken by
//! process id and per-node order, so the merge is deterministic), and ε
//! is the fuzz bound — any apparent causality inversion larger than ε
//! (a decision *received* more than ε before it was *sent*) is flagged,
//! anything within ε is clock noise and clamped.
//!
//! Reconstructed spans mirror the paper's timed claims:
//!
//! * **decision lifecycle** (§4.1) — one `DecisionSent`, matched to the
//!   `DecisionReceived` it caused at every other member; propagation
//!   latency per receiver.
//! * **single-failure recovery** (§4.2) — first `SuspicionRaised` for a
//!   suspect, every `NoDecisionHop` of the ring, and the survivors'
//!   installations of the suspect-free view, with the latency of each
//!   hop attributed, and judged against the recovery envelope the
//!   recordings' headers carry ([`Analysis::over_envelope`]).
//! * **reconfiguration** (§4.4) — first `ReconfigSlotFired` through the
//!   resulting view installations.
//!
//! The merged stream is also fed to the history checker — the same
//! [`Auditor`] and the same [`Auditor::finish`] a live cluster and the
//! simulator run — plus the one check that needs spans and ε rather than
//! history: clock alignment of decision receives against their sends.
//!
//! Everything here is pure: recordings in, report out. File I/O lives in
//! [`crate::recording`] and the `tw-trace` binary.

use crate::audit::{Auditor, Violation};
use crate::metrics::{Registry, Snapshot, LATENCY_BOUNDS_US};
use crate::recording::Recording;
use crate::trace::TraceEvent;
use std::collections::BTreeMap;
use tw_proto::{Duration, ProcessId, SyncTime, ViewId};

/// A set of per-node recordings, validated for joint analysis.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// The recordings, one per node, sorted by process id.
    pub recordings: Vec<Recording>,
    /// Team size: the headers' consensus, or their maximum if they
    /// disagree (a node recorded before a reconfiguration).
    pub team: usize,
    /// The alignment fuzz bound ε: the maximum over the headers.
    pub epsilon: Duration,
    /// The §4.2 recovery envelope: the maximum over the headers.
    pub recovery_envelope: Duration,
}

impl TraceSet {
    /// Assemble a trace set. Fails on an empty set or duplicate process
    /// ids (two recordings claiming the same node).
    pub fn new(mut recordings: Vec<Recording>) -> Result<TraceSet, String> {
        if recordings.is_empty() {
            return Err("no recordings to analyze".into());
        }
        recordings.sort_by_key(|r| r.header.pid);
        for w in recordings.windows(2) {
            if w[0].header.pid == w[1].header.pid {
                return Err(format!("two recordings claim node {}", w[0].header.pid));
            }
        }
        let headers = || recordings.iter().map(|r| &r.header);
        let epsilon = headers().map(|h| h.epsilon).max().unwrap_or(Duration::ZERO);
        let recovery_envelope = headers()
            .map(|h| h.recovery_envelope)
            .max()
            .unwrap_or(Duration::ZERO);
        let team = headers().map(|h| h.team).max().unwrap_or(0);
        let team = if team == 0 { recordings.len() } else { team };
        Ok(TraceSet {
            recordings,
            team,
            epsilon,
            recovery_envelope,
        })
    }

    /// Merge all recordings into one globally ordered stream: sorted by
    /// synchronized stamp, ties broken by process id then per-node
    /// order. Events without a stamp (`TraceEvent::Unknown`) are
    /// dropped; the count of dropped events is returned alongside.
    pub fn merge(&self) -> (Vec<TraceEvent>, usize) {
        let mut keyed: Vec<(SyncTime, u16, usize, TraceEvent)> = Vec::new();
        let mut dropped = 0usize;
        for r in &self.recordings {
            for (i, ev) in r.events.iter().enumerate() {
                match ev.stamp() {
                    Some(at) => keyed.push((at.sync, r.header.pid.0, i, *ev)),
                    None => dropped += 1,
                }
            }
        }
        keyed.sort_by_key(|(t, p, i, _)| (*t, *p, *i));
        (keyed.into_iter().map(|(_, _, _, ev)| ev).collect(), dropped)
    }
}

/// One decision's lifecycle across the team.
#[derive(Debug, Clone)]
pub struct DecisionSpan {
    /// The decider that sent it.
    pub sender: ProcessId,
    /// The view it was sent in.
    pub view: ViewId,
    /// Its protocol send timestamp (the matching key).
    pub send_ts: SyncTime,
    /// Synchronized time at the sender when it was emitted.
    pub sent_at: SyncTime,
    /// Each receiver's acceptance, with its synchronized time.
    pub receives: Vec<(ProcessId, SyncTime)>,
}

/// One hop of a single-failure no-decision ring, with its latency share.
#[derive(Debug, Clone, Copy)]
pub struct HopAttribution {
    /// The member that sent this no-decision message.
    pub pid: ProcessId,
    /// Synchronized time of the hop.
    pub at: SyncTime,
    /// Time since the previous event of the span (the hop's cost).
    pub cost: Duration,
}

/// A single-failure recovery episode: suspicion → ring → view install.
#[derive(Debug, Clone)]
pub struct RecoverySpan {
    /// The removed member.
    pub suspect: ProcessId,
    /// Who first raised the suspicion, and when.
    pub first_suspicion: (ProcessId, SyncTime),
    /// Every no-decision hop, in merged order, with per-hop latency.
    pub hops: Vec<HopAttribution>,
    /// A wrong-suspicion rescue that ended the episode, if any (§4.2:
    /// the group survives unchanged).
    pub rescue: Option<(ProcessId, SyncTime)>,
    /// Each survivor's first installation of a suspect-free view.
    pub installs: Vec<(ProcessId, SyncTime, ViewId)>,
}

impl RecoverySpan {
    /// Synchronized time when the last survivor installed the new view.
    pub fn completed_at(&self) -> Option<SyncTime> {
        self.installs.iter().map(|(_, t, _)| *t).max()
    }

    /// Suspicion-to-last-install duration (the recovery envelope the
    /// paper bounds by one no-decision cycle).
    pub fn total(&self) -> Option<Duration> {
        self.completed_at().map(|t| t - self.first_suspicion.1)
    }

    /// Do the two completed spans' [first suspicion, last install]
    /// intervals overlap?
    fn overlaps(&self, other: &RecoverySpan) -> bool {
        match (self.completed_at(), other.completed_at()) {
            (Some(end), Some(other_end)) => {
                self.first_suspicion.1 <= other_end && other.first_suspicion.1 <= end
            }
            _ => false,
        }
    }
}

/// A reconfiguration episode: first slot fired → view installs.
#[derive(Debug, Clone)]
pub struct ReconfigSpan {
    /// The first reconfiguration slot fired, and by whom.
    pub first_slot: (ProcessId, SyncTime),
    /// Number of reconfiguration slot messages in the episode.
    pub slots: usize,
    /// View installations that closed the episode.
    pub installs: Vec<(ProcessId, SyncTime, ViewId)>,
}

impl ReconfigSpan {
    /// First-slot-to-last-install duration (§4.4: ≈ two slot rounds).
    pub fn total(&self) -> Option<Duration> {
        self.installs
            .iter()
            .map(|(_, t, _)| *t)
            .max()
            .map(|t| t - self.first_slot.1)
    }
}

/// The full offline analysis of a trace set.
#[derive(Debug)]
pub struct Analysis {
    /// Team size used for majority checks.
    pub team: usize,
    /// Alignment fuzz bound used for causality checks.
    pub epsilon: Duration,
    /// The recorded §4.2 recovery envelope recovery spans are judged
    /// against ([`Analysis::over_envelope`]).
    pub recovery_envelope: Duration,
    /// The merged, globally ordered stream.
    pub merged: Vec<TraceEvent>,
    /// Events dropped from the merge (unknown tags carry no stamp).
    pub dropped: usize,
    /// Decision lifecycles, in send order.
    pub decisions: Vec<DecisionSpan>,
    /// Recovery episodes, in suspicion order.
    pub recoveries: Vec<RecoverySpan>,
    /// Reconfiguration episodes.
    pub reconfigs: Vec<ReconfigSpan>,
    /// Violations from feeding the merged stream to the [`Auditor`]
    /// (per-event and whole-history checks alike).
    pub audit: Vec<Violation>,
    /// Violations from the analyzer's own cross-node check
    /// (ε-causality of decision spans).
    pub cross: Vec<Violation>,
    /// Injected faults found in the stream, counted per kind label —
    /// non-empty exactly when the run was adversarial (self-describing
    /// chaos recordings).
    pub faults: BTreeMap<&'static str, u64>,
    /// Per-phase latency histograms (microseconds; see the
    /// `span.*` keys) with percentile summaries in the JSON snapshot.
    pub latencies: Snapshot,
}

impl Analysis {
    /// True when both the history audit and the causality check are
    /// clean.
    pub fn audits_clean(&self) -> bool {
        self.audit.is_empty() && self.cross.is_empty()
    }

    /// The completed recovery spans that took longer than the recorded
    /// envelope allows. Concurrent failures share the ring, so a span
    /// may take the envelope once per completed span whose [first
    /// suspicion, last install] interval overlaps its own, itself
    /// included: a lone crash gets exactly one envelope, as T2 judges it.
    /// Not part of [`Analysis::audits_clean`].
    pub fn over_envelope(&self) -> Vec<&RecoverySpan> {
        let spans = &self.recoveries;
        spans
            .iter()
            .filter(|r| {
                let concurrent = spans.iter().filter(|o| r.overlaps(o)).count() as i64;
                r.total()
                    .is_some_and(|t| t > self.recovery_envelope * concurrent)
            })
            .collect()
    }
}

/// Analyze a trace set: merge, span reconstruction, latency
/// attribution, offline audit. Pure and deterministic.
pub fn analyze(set: &TraceSet) -> Analysis {
    let (merged, dropped) = set.merge();

    let decisions = decision_spans(&merged);
    let recoveries = recovery_spans(&merged);
    let reconfigs = reconfig_spans(&merged);

    // Per-phase latency attribution.
    let registry = Registry::new();
    let h = |name: &str| registry.histogram(name, LATENCY_BOUNDS_US);
    let prop = h("span.decision.propagation_us");
    for d in &decisions {
        for (_, at) in &d.receives {
            prop.record((*at - d.sent_at).as_micros().max(0) as u64);
        }
    }
    let first_hop = h("span.recovery.suspicion_to_first_hop_us");
    let hop_hop = h("span.recovery.hop_to_hop_us");
    let install = h("span.recovery.last_hop_to_install_us");
    let total = h("span.recovery.total_us");
    for r in &recoveries {
        if let Some(first) = r.hops.first() {
            first_hop.record(first.cost.as_micros().max(0) as u64);
        }
        for hop in r.hops.iter().skip(1) {
            hop_hop.record(hop.cost.as_micros().max(0) as u64);
        }
        if let Some(last) = r.hops.last() {
            if let Some(first_install) = r.installs.iter().map(|(_, t, _)| *t).min() {
                install.record((first_install - last.at).as_micros().max(0) as u64);
            }
        }
        if let Some(t) = r.total() {
            total.record(t.as_micros().max(0) as u64);
        }
    }
    let reconfig_h = h("span.reconfig.slot_to_install_us");
    for r in &reconfigs {
        if let Some(t) = r.total() {
            reconfig_h.record(t.as_micros().max(0) as u64);
        }
    }

    // Offline audit: the history checker over the merged stream, plus
    // the analyzer's own ε-causality check.
    let mut auditor = Auditor::new(set.team);
    for ev in &merged {
        auditor.observe(ev);
    }
    let mut cross = Vec::new();
    causality_check(&decisions, set.epsilon, &mut cross);

    // Surface injected faults so adversarial runs read as such: the
    // protocol's guarantees must hold *despite* everything counted here.
    let mut faults: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in &merged {
        if let TraceEvent::FaultInjected { kind, .. } = ev {
            *faults.entry(kind.as_str()).or_insert(0) += 1;
        }
    }

    Analysis {
        team: set.team,
        epsilon: set.epsilon,
        recovery_envelope: set.recovery_envelope,
        merged,
        dropped,
        decisions,
        recoveries,
        reconfigs,
        audit: auditor.finish().to_vec(),
        cross,
        faults,
        latencies: registry.snapshot(),
    }
}

fn decision_spans(merged: &[TraceEvent]) -> Vec<DecisionSpan> {
    // Two passes: an ε-violating receive can *sort before* its send in
    // the merged stream, and the causality check exists precisely to
    // catch that — so index every send first, then attach receives.
    let mut spans: Vec<DecisionSpan> = Vec::new();
    let mut index: BTreeMap<(ViewId, SyncTime, ProcessId), usize> = BTreeMap::new();
    for ev in merged {
        if let TraceEvent::DecisionSent {
            pid,
            at,
            send_ts,
            view,
        } = *ev
        {
            index.insert((view, send_ts, pid), spans.len());
            spans.push(DecisionSpan {
                sender: pid,
                view,
                send_ts,
                sent_at: at.sync,
                receives: Vec::new(),
            });
        }
    }
    for ev in merged {
        if let TraceEvent::DecisionReceived {
            pid,
            at,
            from,
            send_ts,
            view,
        } = *ev
        {
            if let Some(&i) = index.get(&(view, send_ts, from)) {
                spans[i].receives.push((pid, at.sync));
            }
        }
    }
    spans
}

fn recovery_spans(merged: &[TraceEvent]) -> Vec<RecoverySpan> {
    let mut spans: Vec<RecoverySpan> = Vec::new();
    // At most one open episode per suspect: index into `spans`.
    let mut open: BTreeMap<ProcessId, usize> = BTreeMap::new();
    for ev in merged {
        match *ev {
            TraceEvent::SuspicionRaised {
                pid, at, suspect, ..
            } => {
                open.entry(suspect).or_insert_with(|| {
                    spans.push(RecoverySpan {
                        suspect,
                        first_suspicion: (pid, at.sync),
                        hops: Vec::new(),
                        rescue: None,
                        installs: Vec::new(),
                    });
                    spans.len() - 1
                });
            }
            TraceEvent::NoDecisionHop {
                pid, at, suspect, ..
            } => {
                if let Some(&i) = open.get(&suspect) {
                    let span = &mut spans[i];
                    let prev = span
                        .hops
                        .last()
                        .map(|h| h.at)
                        .unwrap_or(span.first_suspicion.1);
                    span.hops.push(HopAttribution {
                        pid,
                        at: at.sync,
                        cost: at.sync - prev,
                    });
                }
            }
            TraceEvent::WrongSuspicionRescue {
                pid, at, suspect, ..
            } => {
                if let Some(i) = open.remove(&suspect) {
                    spans[i].rescue = Some((pid, at.sync));
                }
            }
            TraceEvent::ViewInstalled {
                pid,
                at,
                view,
                members,
            } => {
                // Close every open episode whose suspect is outside the
                // freshly installed membership; record one install per
                // survivor per episode.
                let suspects: Vec<ProcessId> = open.keys().copied().collect();
                for s in suspects {
                    if members.contains(s) || pid == s {
                        continue;
                    }
                    let i = open[&s];
                    let span = &mut spans[i];
                    if !span.installs.iter().any(|(p, _, _)| *p == pid) {
                        span.installs.push((pid, at.sync, view));
                    }
                    // The episode stays open until every member of the
                    // new view has installed it.
                    if span.installs.len() >= members.count() {
                        open.remove(&s);
                    }
                }
            }
            _ => {}
        }
    }
    spans
}

fn reconfig_spans(merged: &[TraceEvent]) -> Vec<ReconfigSpan> {
    let mut spans: Vec<ReconfigSpan> = Vec::new();
    let mut open: Option<usize> = None;
    for ev in merged {
        match *ev {
            TraceEvent::ReconfigSlotFired { pid, at, .. } => match open {
                Some(i) => spans[i].slots += 1,
                None => {
                    open = Some(spans.len());
                    spans.push(ReconfigSpan {
                        first_slot: (pid, at.sync),
                        slots: 1,
                        installs: Vec::new(),
                    });
                }
            },
            TraceEvent::ViewInstalled {
                pid,
                at,
                view,
                members,
            } => {
                if let Some(i) = open {
                    let span = &mut spans[i];
                    if !span.installs.iter().any(|(p, _, _)| *p == pid) {
                        span.installs.push((pid, at.sync, view));
                    }
                    if span.installs.len() >= members.count() {
                        open = None;
                    }
                }
            }
            _ => {}
        }
    }
    spans
}

/// Offline check: a decision may not be received more than ε before it
/// was sent — the fail-aware clock bound. Within ε is clock noise.
fn causality_check(decisions: &[DecisionSpan], epsilon: Duration, out: &mut Vec<Violation>) {
    for d in decisions {
        for (pid, at) in &d.receives {
            if *at + epsilon < d.sent_at {
                out.push(Violation::new(
                    "clock-alignment",
                    format!(
                        "{pid} received {}'s decision (ts {:?}) at {:?}, more than ε={} before it was sent at {:?}",
                        d.sender, d.send_ts, at, epsilon, d.sent_at
                    ),
                ));
            }
        }
    }
}

/// Options for [`render_timeline`].
#[derive(Debug, Clone, Copy)]
pub struct TimelineOptions {
    /// Include `Delivered` events (verbose on busy runs).
    pub deliveries: bool,
    /// Cap on rendered rows; further events are summarized.
    pub max_rows: usize,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            deliveries: false,
            max_rows: 200,
        }
    }
}

/// Render the merged stream as an ASCII timeline: one row per event,
/// offset from the first event, one lane column per node.
pub fn render_timeline(merged: &[TraceEvent], team: usize, opts: TimelineOptions) -> String {
    let glyph = |ev: &TraceEvent| match ev {
        TraceEvent::DecisionSent { .. } => 'D',
        TraceEvent::DecisionReceived { .. } => 'd',
        TraceEvent::SuspicionRaised { .. } => 'S',
        TraceEvent::NoDecisionHop { .. } => 'N',
        TraceEvent::WrongSuspicionRescue { .. } => 'R',
        TraceEvent::ReconfigSlotFired { .. } => 'C',
        TraceEvent::ViewInstalled { .. } => 'V',
        TraceEvent::Delivered { .. } => '*',
        TraceEvent::Purged { .. } => 'P',
        TraceEvent::FaultInjected { .. } => 'F',
        TraceEvent::Unknown { .. } => '?',
    };
    let detail = |ev: &TraceEvent| match ev {
        TraceEvent::DecisionSent { view, send_ts, .. } => {
            format!(
                "decision-sent view={}.{} ts={}",
                view.seq, view.creator, send_ts
            )
        }
        TraceEvent::DecisionReceived { from, send_ts, .. } => {
            format!("decision-received from={from} ts={send_ts}")
        }
        TraceEvent::SuspicionRaised { suspect, .. } => format!("suspicion suspect={suspect}"),
        TraceEvent::NoDecisionHop { suspect, .. } => format!("no-decision-hop suspect={suspect}"),
        TraceEvent::WrongSuspicionRescue { suspect, .. } => {
            format!("wrong-suspicion-rescue suspect={suspect}")
        }
        TraceEvent::ReconfigSlotFired {
            slot,
            listed,
            empty,
            ..
        } => {
            format!("reconfig-slot slot={slot} listed={listed} empty={empty}")
        }
        TraceEvent::ViewInstalled { view, members, .. } => format!(
            "view-installed view={}.{} members={}",
            view.seq,
            view.creator,
            members.count()
        ),
        TraceEvent::Delivered { id, ordinal, .. } => format!("delivered {id} ord={ordinal:?}"),
        TraceEvent::Purged {
            lost,
            orphaned,
            unknown,
            ..
        } => {
            format!("purged lost={lost} orphaned={orphaned} unknown={unknown}")
        }
        TraceEvent::FaultInjected {
            pid,
            kind,
            target,
            arg,
            ..
        } => {
            if pid == target {
                format!("fault {kind} arg={arg}")
            } else {
                format!("fault {kind} link={pid}→{target} arg={arg}")
            }
        }
        TraceEvent::Unknown { tag } => format!("unknown tag={tag}"),
    };

    let rows: Vec<&TraceEvent> = merged
        .iter()
        .filter(|ev| opts.deliveries || !matches!(ev, TraceEvent::Delivered { .. }))
        .collect();
    let t0 = rows
        .first()
        .and_then(|ev| ev.stamp())
        .map(|at| at.sync)
        .unwrap_or(SyncTime::ZERO);

    let lanes = team.max(1);
    let mut out = String::new();
    out.push_str("     offset_us ");
    for i in 0..lanes {
        out.push_str(&format!(" p{i:<2}"));
    }
    out.push_str("  event\n");
    let shown = rows.len().min(opts.max_rows);
    for ev in &rows[..shown] {
        let at = ev.stamp().map(|a| a.sync).unwrap_or(t0);
        let lane = ev.pid().map(|p| p.rank()).unwrap_or(0).min(lanes - 1);
        out.push_str(&format!("{:>14} ", (at - t0).as_micros()));
        for i in 0..lanes {
            if i == lane {
                out.push_str(&format!(" {}  ", glyph(ev)));
            } else {
                out.push_str(" ·  ");
            }
        }
        out.push(' ');
        out.push_str(&detail(ev));
        out.push('\n');
    }
    if rows.len() > shown {
        out.push_str(&format!("… {} more events elided\n", rows.len() - shown));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::StreamHeader;
    use crate::trace::{ClockStamp, FaultKind};
    use tw_proto::{AckBits, HwTime, Ordinal, ProposalId, Semantics};

    /// The recovery envelope of [`rec`]'s headers.
    const ENVELOPE: Duration = Duration::from_micros(1_000);

    fn stamp(t: i64) -> ClockStamp {
        ClockStamp {
            hw: HwTime(t),
            sync: SyncTime(t),
        }
    }

    fn rec(pid: u16, events: Vec<TraceEvent>) -> Recording {
        Recording {
            header: StreamHeader {
                pid: ProcessId(pid),
                team: 3,
                epsilon: Duration::from_micros(10),
                recovery_envelope: ENVELOPE,
            },
            events,
            intact_segments: 1,
            damage: None,
        }
    }

    fn view(seq: u64) -> ViewId {
        ViewId::new(seq, ProcessId(0))
    }

    #[test]
    fn merge_orders_by_sync_time_deterministically() {
        let a = rec(
            0,
            vec![TraceEvent::SuspicionRaised {
                pid: ProcessId(0),
                at: stamp(50),
                suspect: ProcessId(2),
                view: view(1),
            }],
        );
        let b = rec(
            1,
            vec![TraceEvent::NoDecisionHop {
                pid: ProcessId(1),
                at: stamp(20),
                suspect: ProcessId(2),
                send_ts: SyncTime(20),
                view: view(1),
            }],
        );
        let set = TraceSet::new(vec![a, b]).unwrap();
        let (merged, dropped) = set.merge();
        assert_eq!(dropped, 0);
        assert!(matches!(merged[0], TraceEvent::NoDecisionHop { .. }));
        assert!(matches!(merged[1], TraceEvent::SuspicionRaised { .. }));
    }

    #[test]
    fn duplicate_pids_are_rejected() {
        let set = TraceSet::new(vec![rec(0, vec![]), rec(0, vec![])]);
        assert!(set.is_err());
    }

    #[test]
    fn recovery_span_reconstructs_hops_and_installs() {
        let suspect = ProcessId(2);
        let v2 = view(2);
        let members = AckBits(0b1011); // p0, p1, p3 — suspect p2 gone
        let mut events = vec![TraceEvent::SuspicionRaised {
            pid: ProcessId(0),
            at: stamp(100),
            suspect,
            view: view(1),
        }];
        for (i, (pid, t)) in [(0u16, 150i64), (1, 210), (3, 300)].iter().enumerate() {
            let _ = i;
            events.push(TraceEvent::NoDecisionHop {
                pid: ProcessId(*pid),
                at: stamp(*t),
                suspect,
                send_ts: SyncTime(*t),
                view: view(1),
            });
        }
        for (pid, t) in [(0u16, 400i64), (1, 410), (3, 420)] {
            events.push(TraceEvent::ViewInstalled {
                pid: ProcessId(pid),
                at: stamp(t),
                view: v2,
                members,
            });
        }
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let analysis = analyze(&set);
        assert_eq!(analysis.recoveries.len(), 1);
        let r = &analysis.recoveries[0];
        assert_eq!(r.suspect, suspect);
        assert_eq!(r.first_suspicion, (ProcessId(0), SyncTime(100)));
        assert_eq!(r.hops.len(), 3);
        assert_eq!(r.hops[0].cost, Duration::from_micros(50));
        assert_eq!(r.hops[1].cost, Duration::from_micros(60));
        assert_eq!(r.hops[2].cost, Duration::from_micros(90));
        assert_eq!(r.installs.len(), 3);
        assert_eq!(r.total(), Some(Duration::from_micros(320)));
        // Latency attribution landed in the histograms.
        let snap = &analysis.latencies;
        assert_eq!(snap.histograms["span.recovery.hop_to_hop_us"].count, 2);
        assert_eq!(snap.histograms["span.recovery.total_us"].count, 1);
    }

    #[test]
    fn wrong_suspicion_rescue_closes_the_span() {
        let events = vec![
            TraceEvent::SuspicionRaised {
                pid: ProcessId(1),
                at: stamp(10),
                suspect: ProcessId(0),
                view: view(1),
            },
            TraceEvent::WrongSuspicionRescue {
                pid: ProcessId(2),
                at: stamp(40),
                suspect: ProcessId(0),
                view: view(1),
            },
        ];
        let set = TraceSet::new(vec![rec(1, events)]).unwrap();
        let a = analyze(&set);
        assert_eq!(a.recoveries.len(), 1);
        assert_eq!(a.recoveries[0].rescue, Some((ProcessId(2), SyncTime(40))));
        assert!(a.recoveries[0].installs.is_empty());
    }

    /// A recovery of `suspect` in a 4-member team: suspected at `from`,
    /// the three survivors installing at `to`.
    fn recovery(suspect: u16, from: i64, to: i64) -> Vec<TraceEvent> {
        let survivors = (0..4u16).filter(|p| *p != suspect);
        let members = AckBits(survivors.clone().fold(0, |m, p| m | 1 << p));
        let suspicion = TraceEvent::SuspicionRaised {
            pid: survivors.clone().next().map(ProcessId).unwrap(),
            at: stamp(from),
            suspect: ProcessId(suspect),
            view: view(1),
        };
        let installs = survivors.map(|p| TraceEvent::ViewInstalled {
            pid: ProcessId(p),
            at: stamp(to),
            view: view(2 + suspect as u64),
            members,
        });
        std::iter::once(suspicion).chain(installs).collect()
    }

    fn analyzed(events: Vec<TraceEvent>) -> Analysis {
        analyze(&TraceSet::new(vec![rec(0, events)]).unwrap())
    }

    #[test]
    fn a_lone_recovery_gets_one_envelope() {
        let e = ENVELOPE.as_micros();
        let a = analyzed(recovery(2, 100, 100 + e));
        assert_eq!(a.recovery_envelope, ENVELOPE);
        assert_eq!(a.recoveries[0].total(), Some(ENVELOPE));
        assert!(a.over_envelope().is_empty(), "at the envelope is within it");

        let a = analyzed(recovery(2, 100, 100 + e + 1));
        let over = a.over_envelope();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].suspect, ProcessId(2));
        assert!(a.audits_clean(), "the envelope verdict is not an audit");
    }

    #[test]
    fn overlapping_recoveries_share_the_envelope() {
        // Two suspects disturbed at once, each taking 1.5 envelopes: the
        // ring recovers them one after the other, so two envelopes bound
        // each span.
        let span = ENVELOPE.as_micros() * 3 / 2;
        let mut events = recovery(2, 100, 100 + span);
        events.extend(recovery(3, 200, 200 + span));
        let a = analyzed(events);
        assert_eq!(a.recoveries.len(), 2);
        assert!(a.over_envelope().is_empty());

        // The same two spans one after the other are two lone recoveries.
        let mut events = recovery(2, 100, 100 + span);
        events.extend(recovery(3, 200 + span, 200 + 2 * span));
        let a = analyzed(events);
        assert_eq!(a.over_envelope().len(), 2);
    }

    #[test]
    fn the_envelope_is_the_headers_maximum() {
        let with_envelope = |pid: u16, micros: i64| {
            let mut r = rec(pid, vec![]);
            r.header.recovery_envelope = Duration::from_micros(micros);
            r
        };
        let set = TraceSet::new(vec![
            with_envelope(0, 300),
            with_envelope(1, 900),
            with_envelope(2, 600),
        ])
        .unwrap();
        assert_eq!(set.recovery_envelope, Duration::from_micros(900));
        assert_eq!(analyze(&set).recovery_envelope, Duration::from_micros(900));
    }

    #[test]
    fn decision_spans_attribute_propagation() {
        let v = view(1);
        let events = vec![
            TraceEvent::DecisionSent {
                pid: ProcessId(0),
                at: stamp(100),
                send_ts: SyncTime(100),
                view: v,
            },
            TraceEvent::DecisionReceived {
                pid: ProcessId(1),
                at: stamp(130),
                from: ProcessId(0),
                send_ts: SyncTime(100),
                view: v,
            },
            TraceEvent::DecisionReceived {
                pid: ProcessId(2),
                at: stamp(160),
                from: ProcessId(0),
                send_ts: SyncTime(100),
                view: v,
            },
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert_eq!(a.decisions.len(), 1);
        assert_eq!(a.decisions[0].receives.len(), 2);
        let h = &a.latencies.histograms["span.decision.propagation_us"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30 + 60);
    }

    #[test]
    fn causality_beyond_epsilon_is_flagged() {
        let v = view(1);
        let events = vec![
            TraceEvent::DecisionSent {
                pid: ProcessId(0),
                at: stamp(1000),
                send_ts: SyncTime(1000),
                view: v,
            },
            // Received 100 before sent; ε is only 10.
            TraceEvent::DecisionReceived {
                pid: ProcessId(1),
                at: stamp(900),
                from: ProcessId(0),
                send_ts: SyncTime(1000),
                view: v,
            },
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert!(a.cross.iter().any(|x| x.check == "clock-alignment"));
        // Within ε it is not flagged.
        let events = vec![
            TraceEvent::DecisionSent {
                pid: ProcessId(0),
                at: stamp(1000),
                send_ts: SyncTime(1000),
                view: v,
            },
            TraceEvent::DecisionReceived {
                pid: ProcessId(1),
                at: stamp(995),
                from: ProcessId(0),
                send_ts: SyncTime(1000),
                view: v,
            },
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert!(a.cross.iter().all(|x| x.check != "clock-alignment"));
    }

    #[test]
    fn disjoint_consecutive_views_are_flagged() {
        let events = vec![
            TraceEvent::ViewInstalled {
                pid: ProcessId(0),
                at: stamp(10),
                view: view(1),
                members: AckBits(0b0011),
            },
            TraceEvent::ViewInstalled {
                pid: ProcessId(2),
                at: stamp(20),
                view: view(2),
                members: AckBits(0b1100),
            },
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert!(a.audit.iter().any(|x| x.check == "view-overlap"));
    }

    #[test]
    fn ordinal_gap_breaks_oal_prefix() {
        let v = view(1);
        let mk = |pid: u16, seq: u64, ord: u64, t: i64| TraceEvent::Delivered {
            pid: ProcessId(pid),
            at: stamp(t),
            id: ProposalId::new(ProcessId(0), seq),
            ordinal: Some(Ordinal(ord)),
            semantics: Semantics::TOTAL_STRONG,
            send_ts: SyncTime(t),
            view: v,
        };
        // p0 delivers ordinals 1 and 2; p1 delivers 1 and *3* — not a
        // prefix, and the global chain {1,2,3} is fine, so the member
        // check fires.
        let events = vec![
            mk(0, 1, 1, 10),
            mk(0, 2, 2, 20),
            mk(1, 1, 1, 30),
            mk(1, 3, 3, 40),
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert!(a.audit.iter().any(|x| x.check == "oal-prefix"));

        // Clean prefixes pass.
        let events = vec![mk(0, 1, 1, 10), mk(0, 2, 2, 20), mk(1, 1, 1, 30)];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert!(a.audit.iter().all(|x| x.check != "oal-prefix"));
    }

    #[test]
    fn injected_faults_are_counted_and_rendered_without_breaking_audits() {
        let events = vec![
            TraceEvent::FaultInjected {
                pid: ProcessId(0),
                at: stamp(5),
                kind: FaultKind::Drop,
                target: ProcessId(2),
                arg: 0,
            },
            TraceEvent::FaultInjected {
                pid: ProcessId(0),
                at: stamp(9),
                kind: FaultKind::Drop,
                target: ProcessId(1),
                arg: 0,
            },
            TraceEvent::FaultInjected {
                pid: ProcessId(2),
                at: stamp(12),
                kind: FaultKind::Crash,
                target: ProcessId(2),
                arg: 3,
            },
            TraceEvent::ViewInstalled {
                pid: ProcessId(0),
                at: stamp(20),
                view: view(1),
                members: AckBits(0b011),
            },
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let a = analyze(&set);
        assert_eq!(a.faults.get("drop"), Some(&2));
        assert_eq!(a.faults.get("crash"), Some(&1));
        // Fault markers are harness bookkeeping, not protocol events:
        // they must not trip the audit.
        assert!(a.audits_clean(), "{:?} / {:?}", a.audit, a.cross);
        let tl = render_timeline(&a.merged, 3, TimelineOptions::default());
        assert!(tl.contains("fault drop link=p0→p2"), "{tl}");
        assert!(tl.contains("fault crash arg=3"), "{tl}");
    }

    #[test]
    fn timeline_renders_lanes_and_offsets() {
        let events = vec![
            TraceEvent::SuspicionRaised {
                pid: ProcessId(0),
                at: stamp(1_000),
                suspect: ProcessId(2),
                view: view(1),
            },
            TraceEvent::ViewInstalled {
                pid: ProcessId(1),
                at: stamp(1_500),
                view: view(2),
                members: AckBits(0b011),
            },
        ];
        let set = TraceSet::new(vec![rec(0, events)]).unwrap();
        let (merged, _) = set.merge();
        let tl = render_timeline(&merged, 3, TimelineOptions::default());
        assert!(tl.contains("suspicion suspect=p2"), "{tl}");
        assert!(tl.contains("view-installed"), "{tl}");
        assert!(tl.contains("500"), "offset column missing: {tl}");
        // First event renders at offset 0.
        assert!(
            tl.lines().nth(1).unwrap().trim_start().starts_with('0'),
            "{tl}"
        );
    }
}
