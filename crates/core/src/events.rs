//! Inputs, outputs and observations of the protocol state machine.
//!
//! [`Member`](crate::member::Member) is sans-I/O: hosts feed it events
//! and apply the returned [`Action`]s. Everything a host or an experiment
//! needs to observe is surfaced here, not read out of private state.

use bytes::Bytes;
use tw_proto::{Duration, Msg, Ordinal, ProcessId, ProposalId, Semantics, SyncTime, View};

/// An instruction from the protocol to its host.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Broadcast a message to all other team members.
    Broadcast(Msg),
    /// Send a message to one team member.
    Send(ProcessId, Msg),
    /// Hand an update to the application (all delivery conditions hold).
    Deliver(Delivery),
    /// A new group view was installed.
    InstallView(View),
    /// (Re-)arm the clock-synchronization resync tick after this much
    /// hardware time. The protocol tick is fixed-period and managed by
    /// the host directly.
    ScheduleClockTick(Duration),
    /// The member left the group (lost synchronization or was excluded)
    /// and returned to join state.
    LeftGroup {
        /// Why it left.
        reason: LeaveReason,
    },
    /// A join-time state transfer arrived: the application must replace
    /// its state with this snapshot before applying further deliveries.
    InstallAppState(Bytes),
}

/// Why a member dropped back to join state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveReason {
    /// A new group formed without this member.
    Excluded,
    /// The fail-aware clock reported loss of synchronization.
    LostClockSync,
    /// The member just started or recovered from a crash.
    Startup,
}

/// An update delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Which proposal this is.
    pub id: ProposalId,
    /// The ordinal it was ordered with, when known at delivery time
    /// (unordered updates may legally deliver before ordering — these are
    /// the paper's `dpd` entries).
    pub ordinal: Option<Ordinal>,
    /// The semantics it was broadcast with.
    pub semantics: Semantics,
    /// Its synchronized send timestamp.
    pub send_ts: SyncTime,
    /// The opaque application payload.
    pub payload: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_proto::ViewId;

    #[test]
    fn delivery_equality_ignores_nothing() {
        let d = Delivery {
            id: ProposalId::new(ProcessId(0), 1),
            ordinal: Some(Ordinal(4)),
            semantics: Semantics::TOTAL_STRONG,
            send_ts: SyncTime(9),
            payload: Bytes::from_static(b"x"),
        };
        assert_eq!(d.clone(), d);
    }

    #[test]
    fn action_variants_compare() {
        let v = View::new(ViewId::new(1, ProcessId(0)), [ProcessId(0)]);
        assert_eq!(Action::InstallView(v.clone()), Action::InstallView(v));
        assert_ne!(
            Action::LeftGroup {
                reason: LeaveReason::Excluded
            },
            Action::LeftGroup {
                reason: LeaveReason::Startup
            }
        );
    }
}
