//! The messages of the timewheel group communication service.
//!
//! Four *control* messages drive membership (paper §4): the broadcast
//! protocol's [`Decision`] (doubling as the failure detector's heartbeat),
//! plus [`NoDecision`], [`Join`] and [`Reconfig`]. [`Proposal`] carries
//! client updates; [`ClockSyncMsg`] and [`StateTransfer`] belong to the
//! substrate layers.
//!
//! Every control message piggybacks the sender's *alive-list* — the paper
//! relies on this for join integration ("group members piggyback their
//! alive-lists on all control messages they send").

use crate::ids::{Incarnation, Ordinal, ProcessId, ProposalId};
use crate::oal::{AckBits, Oal};
use crate::semantics::Semantics;
use crate::time::{HwTime, SyncTime};
use crate::view::{View, ViewId};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An alive-list, piggybacked on every control message: the set of team
/// members the sender's failure detector currently believes to be alive.
pub type AliveList = AckBits;

/// Descriptor of a proposal as carried in `dpd` fields: enough to let a
/// new decider append the proposal to the oal (paper §4.3, "delivered
/// proposal descriptors").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UpdateDesc {
    /// Which proposal.
    pub id: ProposalId,
    /// Its highest-dependency ordinal.
    pub hdo: Ordinal,
    /// Its delivery semantics.
    pub semantics: Semantics,
    /// Its synchronized send timestamp.
    pub send_ts: SyncTime,
}

/// A client update broadcast by a team member (timewheel atomic broadcast).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proposal {
    /// The proposing member.
    pub sender: ProcessId,
    /// Sender incarnation (stale-life rejection).
    pub incarnation: Incarnation,
    /// Per-sender sequence number (1-based).
    pub seq: u64,
    /// Synchronized send timestamp.
    pub send_ts: SyncTime,
    /// Highest dependency ordinal: the highest ordinal the sender knew
    /// when proposing. The update may depend on anything ≤ `hdo`.
    pub hdo: Ordinal,
    /// Requested delivery semantics.
    pub semantics: Semantics,
    /// Opaque application payload.
    pub payload: Bytes,
}

impl Proposal {
    /// This proposal's identity.
    #[inline]
    pub fn id(&self) -> ProposalId {
        ProposalId::new(self.sender, self.seq)
    }

    /// Its `dpd`-style descriptor.
    pub fn desc(&self) -> UpdateDesc {
        UpdateDesc {
            id: self.id(),
            hdo: self.hdo,
            semantics: self.semantics,
            send_ts: self.send_ts,
        }
    }
}

/// The decider's periodic message (timewheel atomic broadcast): assigns
/// ordinals via the carried oal, establishes stability, detects losses —
/// and, for the membership protocol, is the heartbeat that keeps the
/// failure detector quiet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The decider sending this message.
    pub sender: ProcessId,
    /// Synchronized send timestamp; also the message's identity in the
    /// expected-sender protocol.
    pub send_ts: SyncTime,
    /// The group this decision is issued in.
    pub view: View,
    /// The ordering and acknowledgement list.
    pub oal: Oal,
    /// Piggybacked alive-list.
    pub alive: AliveList,
}

/// Single-failure election message: the sender suspects `suspect` and asks
/// that it be removed from the membership. Travels around the ring (each
/// member sends its own after hearing its predecessor's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoDecision {
    /// The suspecting member.
    pub sender: ProcessId,
    /// Synchronized send timestamp.
    pub send_ts: SyncTime,
    /// The member suspected to have failed.
    pub suspect: ProcessId,
    /// The group in which the suspicion arose.
    pub view_id: ViewId,
    /// The sender's current view of the oal (paper §4.3: used by the new
    /// decider to merge acknowledgements and detect lost proposals).
    pub oal_view: Oal,
    /// Delivered-but-unordered proposal descriptors (paper §4.3 `dpd`).
    pub dpd: Vec<UpdateDesc>,
    /// Piggybacked alive-list.
    pub alive: AliveList,
}

/// Join message: sent by a process in join state, once per own time slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Join {
    /// The joining process.
    pub sender: ProcessId,
    /// Its current incarnation.
    pub incarnation: Incarnation,
    /// Synchronized send timestamp.
    pub send_ts: SyncTime,
    /// The sender's join-list: processes it heard a join from in the last
    /// N−1 slots (always includes the sender), with incarnations.
    pub join_list: Vec<(ProcessId, Incarnation)>,
    /// Piggybacked alive-list.
    pub alive: AliveList,
}

impl Join {
    /// The join-list as a set of process ids (incarnations stripped).
    pub fn join_set(&self) -> std::collections::BTreeSet<ProcessId> {
        self.join_list.iter().map(|(p, _)| *p).collect()
    }
}

/// Multiple-failure election message, sent once per own time slot while in
/// n-failure state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconfig {
    /// The sender.
    pub sender: ProcessId,
    /// Synchronized send timestamp.
    pub send_ts: SyncTime,
    /// The sender's reconfiguration-list: processes it received a reconfig
    /// message from in the last N−1 slots, plus itself. Sent *empty*
    /// during the one-cycle cool-down after a mixed election (paper §4.2).
    pub reconfig_list: Vec<ProcessId>,
    /// Timestamp of the last decision message the sender knows about.
    pub last_decision_ts: SyncTime,
    /// Id of the last group the sender is aware of.
    pub last_view: ViewId,
    /// The sender's current view of the oal of that last decision.
    pub oal_view: Oal,
    /// Delivered-but-unordered proposal descriptors (paper §4.3 `dpd`).
    pub dpd: Vec<UpdateDesc>,
    /// Piggybacked alive-list.
    pub alive: AliveList,
}

impl Reconfig {
    /// The reconfiguration-list as a set.
    pub fn reconfig_set(&self) -> std::collections::BTreeSet<ProcessId> {
        self.reconfig_list.iter().copied().collect()
    }
}

/// Negative acknowledgement: the sender saw descriptors in the oal for
/// proposals it never received (the loss-detection role of decision
/// messages, paper §2) and asks a holder to retransmit them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Nack {
    /// Who is missing the proposals.
    pub sender: ProcessId,
    /// Synchronized send timestamp.
    pub send_ts: SyncTime,
    /// The missing proposals.
    pub missing: Vec<ProposalId>,
}

/// Clock synchronization substrate messages (round-trip remote clock
/// reading, fail-aware style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockSyncMsg {
    /// "What time is it?" — carries the requester's hardware send time so
    /// the reply can echo it back for round-trip measurement.
    Request {
        /// The requester.
        sender: ProcessId,
        /// Request id (for matching replies).
        rid: u64,
        /// Requester hardware clock at send.
        hw_send: HwTime,
    },
    /// Reply carrying the responder's synchronized time.
    Reply {
        /// The responder.
        sender: ProcessId,
        /// Echoed request id.
        rid: u64,
        /// Echoed requester hardware send time.
        hw_send_echo: HwTime,
        /// Responder's synchronized clock at reply time.
        sync_at_reply: SyncTime,
        /// Whether the responder considered itself synchronized.
        synced: bool,
    },
}

impl ClockSyncMsg {
    /// The sending process.
    pub fn sender(&self) -> ProcessId {
        match self {
            ClockSyncMsg::Request { sender, .. } | ClockSyncMsg::Reply { sender, .. } => *sender,
        }
    }
}

/// Application state + undelivered proposals shipped by the decider to a
/// joining member (paper §4.2 join state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateTransfer {
    /// The decider performing the transfer.
    pub sender: ProcessId,
    /// The joining member being brought up to date.
    pub to: ProcessId,
    /// The view in which the transfer happens.
    pub view_id: ViewId,
    /// Opaque serialized application state (retrieved via the dedicated
    /// application callback).
    pub app_state: Bytes,
    /// Undelivered proposals from the decider's proposal buffer.
    pub proposals: Vec<Proposal>,
    /// Per-sender FIFO delivery cursors (next sequence number to deliver),
    /// so the joiner continues each sender's stream where the transferred
    /// application state left off.
    pub fifo: Vec<(ProcessId, u64)>,
    /// Ordinal assignments of the shipped proposals whose descriptors
    /// have already left the oal window (stable prefix): without these
    /// the joiner could not place them in the total order — or worse,
    /// re-order them when it becomes decider.
    pub ordinals: Vec<(ProposalId, Ordinal)>,
}

/// Tag identifying a message variant (used in stats, traces and the wire
/// format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgKind {
    /// [`Proposal`]
    Proposal,
    /// [`Decision`]
    Decision,
    /// [`NoDecision`]
    NoDecision,
    /// [`Join`]
    Join,
    /// [`Reconfig`]
    Reconfig,
    /// [`ClockSyncMsg`]
    ClockSync,
    /// [`StateTransfer`]
    StateTransfer,
    /// [`Nack`]
    Nack,
}

impl MsgKind {
    /// All kinds, for stats tables.
    pub const ALL: [MsgKind; 8] = [
        MsgKind::Proposal,
        MsgKind::Decision,
        MsgKind::NoDecision,
        MsgKind::Join,
        MsgKind::Reconfig,
        MsgKind::ClockSync,
        MsgKind::StateTransfer,
        MsgKind::Nack,
    ];

    /// Static label for stats ledgers and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            MsgKind::Proposal => "proposal",
            MsgKind::Decision => "decision",
            MsgKind::NoDecision => "no-decision",
            MsgKind::Join => "join",
            MsgKind::Reconfig => "reconfig",
            MsgKind::ClockSync => "clock-sync",
            MsgKind::StateTransfer => "state-transfer",
            MsgKind::Nack => "nack",
        }
    }

    /// Whether the membership failure detector treats this kind as a
    /// control message (paper §4.1: decision, no-decision, join,
    /// reconfiguration).
    pub fn is_control(self) -> bool {
        matches!(
            self,
            MsgKind::Decision | MsgKind::NoDecision | MsgKind::Join | MsgKind::Reconfig
        )
    }

    /// Whether this kind belongs to the membership layer proper (i.e. is
    /// *extra* load beyond broadcast + substrate). Decision messages are
    /// part of the broadcast protocol; the failure-free claim (T1) is that
    /// zero messages of the other three control kinds flow.
    pub fn is_membership_overhead(self) -> bool {
        matches!(
            self,
            MsgKind::NoDecision | MsgKind::Join | MsgKind::Reconfig
        )
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Any message of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Msg {
    /// A client update broadcast.
    Proposal(Proposal),
    /// The decider's periodic ordering/heartbeat message.
    Decision(Decision),
    /// Single-failure election message.
    NoDecision(NoDecision),
    /// Join-state message.
    Join(Join),
    /// Multiple-failure election message.
    Reconfig(Reconfig),
    /// Clock synchronization substrate.
    ClockSync(ClockSyncMsg),
    /// Join-time state transfer.
    StateTransfer(StateTransfer),
    /// Retransmission request for missed proposals.
    Nack(Nack),
}

impl Msg {
    /// This message's kind tag.
    pub fn kind(&self) -> MsgKind {
        match self {
            Msg::Proposal(_) => MsgKind::Proposal,
            Msg::Decision(_) => MsgKind::Decision,
            Msg::NoDecision(_) => MsgKind::NoDecision,
            Msg::Join(_) => MsgKind::Join,
            Msg::Reconfig(_) => MsgKind::Reconfig,
            Msg::ClockSync(_) => MsgKind::ClockSync,
            Msg::StateTransfer(_) => MsgKind::StateTransfer,
            Msg::Nack(_) => MsgKind::Nack,
        }
    }

    /// The sending process.
    pub fn sender(&self) -> ProcessId {
        match self {
            Msg::Proposal(m) => m.sender,
            Msg::Decision(m) => m.sender,
            Msg::NoDecision(m) => m.sender,
            Msg::Join(m) => m.sender,
            Msg::Reconfig(m) => m.sender,
            Msg::ClockSync(m) => m.sender(),
            Msg::StateTransfer(m) => m.sender,
            Msg::Nack(m) => m.sender,
        }
    }

    /// The synchronized send timestamp, when the message carries one
    /// (all but clock-sync and state-transfer messages).
    pub fn send_ts(&self) -> Option<SyncTime> {
        match self {
            Msg::Proposal(m) => Some(m.send_ts),
            Msg::Decision(m) => Some(m.send_ts),
            Msg::NoDecision(m) => Some(m.send_ts),
            Msg::Join(m) => Some(m.send_ts),
            Msg::Reconfig(m) => Some(m.send_ts),
            Msg::Nack(m) => Some(m.send_ts),
            Msg::ClockSync(_) | Msg::StateTransfer(_) => None,
        }
    }

    /// The piggybacked alive-list, for control messages.
    pub fn alive_list(&self) -> Option<AliveList> {
        match self {
            Msg::Decision(m) => Some(m.alive),
            Msg::NoDecision(m) => Some(m.alive),
            Msg::Join(m) => Some(m.alive),
            Msg::Reconfig(m) => Some(m.alive),
            _ => None,
        }
    }
}

impl From<Proposal> for Msg {
    fn from(m: Proposal) -> Msg {
        Msg::Proposal(m)
    }
}
impl From<Decision> for Msg {
    fn from(m: Decision) -> Msg {
        Msg::Decision(m)
    }
}
impl From<NoDecision> for Msg {
    fn from(m: NoDecision) -> Msg {
        Msg::NoDecision(m)
    }
}
impl From<Join> for Msg {
    fn from(m: Join) -> Msg {
        Msg::Join(m)
    }
}
impl From<Reconfig> for Msg {
    fn from(m: Reconfig) -> Msg {
        Msg::Reconfig(m)
    }
}
impl From<ClockSyncMsg> for Msg {
    fn from(m: ClockSyncMsg) -> Msg {
        Msg::ClockSync(m)
    }
}
impl From<StateTransfer> for Msg {
    fn from(m: StateTransfer) -> Msg {
        Msg::StateTransfer(m)
    }
}
impl From<Nack> for Msg {
    fn from(m: Nack) -> Msg {
        Msg::Nack(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_proposal() -> Proposal {
        Proposal {
            sender: ProcessId(2),
            incarnation: Incarnation(1),
            seq: 7,
            send_ts: SyncTime::from_millis(42),
            hdo: Ordinal(3),
            semantics: Semantics::TOTAL_STRONG,
            payload: Bytes::from_static(b"hello"),
        }
    }

    #[test]
    fn proposal_identity() {
        let p = sample_proposal();
        assert_eq!(p.id(), ProposalId::new(ProcessId(2), 7));
        let d = p.desc();
        assert_eq!(d.id, p.id());
        assert_eq!(d.hdo, Ordinal(3));
    }

    #[test]
    fn msg_kind_and_sender() {
        let m: Msg = sample_proposal().into();
        assert_eq!(m.kind(), MsgKind::Proposal);
        assert_eq!(m.sender(), ProcessId(2));
        assert_eq!(m.send_ts(), Some(SyncTime::from_millis(42)));
        assert!(m.alive_list().is_none());
    }

    #[test]
    fn control_classification() {
        assert!(MsgKind::Decision.is_control());
        assert!(MsgKind::NoDecision.is_control());
        assert!(MsgKind::Join.is_control());
        assert!(MsgKind::Reconfig.is_control());
        assert!(!MsgKind::Proposal.is_control());
        assert!(!MsgKind::ClockSync.is_control());
        assert!(!MsgKind::StateTransfer.is_control());
    }

    #[test]
    fn membership_overhead_excludes_decisions() {
        assert!(!MsgKind::Decision.is_membership_overhead());
        assert!(MsgKind::NoDecision.is_membership_overhead());
        assert!(MsgKind::Join.is_membership_overhead());
        assert!(MsgKind::Reconfig.is_membership_overhead());
        assert!(!MsgKind::Proposal.is_membership_overhead());
    }

    #[test]
    fn join_set_strips_incarnations() {
        let j = Join {
            sender: ProcessId(0),
            incarnation: Incarnation(2),
            send_ts: SyncTime::ZERO,
            join_list: vec![
                (ProcessId(0), Incarnation(2)),
                (ProcessId(1), Incarnation(0)),
            ],
            alive: AliveList::EMPTY,
        };
        let s = j.join_set();
        assert!(s.contains(&ProcessId(0)) && s.contains(&ProcessId(1)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn clocksync_sender() {
        let m = ClockSyncMsg::Request {
            sender: ProcessId(4),
            rid: 9,
            hw_send: HwTime(100),
        };
        assert_eq!(m.sender(), ProcessId(4));
        assert_eq!(Msg::from(m).kind(), MsgKind::ClockSync);
    }
}
