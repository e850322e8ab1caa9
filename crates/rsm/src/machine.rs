//! The state-machine abstraction and its host.
//!
//! A [`StateMachine`] is the deterministic heart of a replicated service:
//! commands in, responses out, snapshot/restore for join-time state
//! transfer. [`MachineHost`] wraps one replica's machine and adapts it to
//! the protocol's delivery stream.

use bytes::Bytes;
use timewheel::{AppEvent, Delivery};

/// A deterministic service state.
///
/// Determinism is the only real requirement: two machines that start
/// equal and apply the same command sequence must stay equal (no clocks,
/// no randomness, no I/O inside `apply`).
pub trait StateMachine: Send + 'static {
    /// Apply one command, mutating the state and returning the response
    /// a client would receive.
    fn apply(&mut self, command: &[u8]) -> Bytes;

    /// Serialize the full state (shipped to joining replicas).
    fn snapshot(&self) -> Bytes;

    /// Rebuild the state from a snapshot. Must accept every byte string
    /// `snapshot` can produce; malformed input may panic (it indicates a
    /// protocol-level corruption, which deterministic replication rules
    /// out).
    fn restore(snapshot: &[u8]) -> Self;
}

/// What happened when a delivery was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutcome {
    /// The proposal that carried the command.
    pub id: tw_proto::ProposalId,
    /// The machine's response.
    pub response: Bytes,
}

/// One replica's machine plus its apply log.
pub struct MachineHost<S: StateMachine> {
    machine: S,
    applied: u64,
    outcomes: Vec<CommandOutcome>,
}

impl<S: StateMachine> MachineHost<S> {
    /// Host a fresh machine.
    pub fn new(machine: S) -> Self {
        MachineHost {
            machine,
            applied: 0,
            outcomes: Vec::new(),
        }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &S {
        &self.machine
    }

    /// Number of commands applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The responses produced so far (drained by hosts that forward them
    /// to clients).
    pub fn outcomes(&self) -> &[CommandOutcome] {
        &self.outcomes
    }

    /// Apply a delivered update; returns the current snapshot so the
    /// hosting layer can refresh the member's transferable state.
    pub fn apply_delivery(&mut self, d: &Delivery) -> Bytes {
        let response = self.machine.apply(&d.payload);
        self.applied += 1;
        self.outcomes.push(CommandOutcome { id: d.id, response });
        self.machine.snapshot()
    }

    /// Adopt a transferred snapshot (joining replica).
    pub fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.machine = S::restore(snapshot);
    }

    /// The whole application hook: apply or install, and answer with the
    /// snapshot the member should ship to joiners from now on. Hosts wrap
    /// this in whatever sharing their threading model needs.
    pub fn on_app_event(&mut self, ev: AppEvent<'_>) -> Option<Bytes> {
        Some(match ev {
            AppEvent::Deliver(d) => self.apply_delivery(d),
            AppEvent::InstallSnapshot(b) => {
                self.install_snapshot(b);
                b.clone()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_proto::{Ordinal, ProcessId, ProposalId, Semantics, SyncTime};

    /// Appends bytes; snapshot is the whole history.
    struct Log(Vec<u8>);
    impl StateMachine for Log {
        fn apply(&mut self, c: &[u8]) -> Bytes {
            self.0.extend_from_slice(c);
            Bytes::from(vec![c.len() as u8])
        }
        fn snapshot(&self) -> Bytes {
            Bytes::from(self.0.clone())
        }
        fn restore(s: &[u8]) -> Self {
            Log(s.to_vec())
        }
    }

    fn delivery(seq: u64, payload: &'static [u8]) -> Delivery {
        Delivery {
            id: ProposalId::new(ProcessId(0), seq),
            ordinal: Some(Ordinal(seq)),
            semantics: Semantics::TOTAL_STRONG,
            send_ts: SyncTime(seq as i64),
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn applies_and_snapshots() {
        let mut h = MachineHost::new(Log(vec![]));
        let s1 = h.apply_delivery(&delivery(1, b"ab"));
        assert_eq!(s1, Bytes::from_static(b"ab"));
        let s2 = h.apply_delivery(&delivery(2, b"c"));
        assert_eq!(s2, Bytes::from_static(b"abc"));
        assert_eq!(h.applied(), 2);
        assert_eq!(h.outcomes().len(), 2);
        assert_eq!(h.outcomes()[0].response, Bytes::from(vec![2u8]));
    }

    #[test]
    fn restore_replaces_state() {
        let mut h = MachineHost::new(Log(vec![]));
        h.apply_delivery(&delivery(1, b"zz"));
        h.install_snapshot(b"fresh");
        assert_eq!(h.machine().0, b"fresh");
    }

    #[test]
    fn two_hosts_replaying_agree() {
        let cmds: Vec<&'static [u8]> = vec![b"a", b"bc", b"def"];
        let mut a = MachineHost::new(Log(vec![]));
        let mut b = MachineHost::new(Log(vec![]));
        for (i, c) in cmds.iter().enumerate() {
            a.apply_delivery(&delivery(i as u64 + 1, c));
            b.apply_delivery(&delivery(i as u64 + 1, c));
        }
        assert_eq!(a.machine().0, b.machine().0);
        assert_eq!(a.outcomes(), b.outcomes());
    }
}
