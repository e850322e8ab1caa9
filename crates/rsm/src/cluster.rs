//! Replicated state machines on real threads, with a synchronous
//! client API.
//!
//! [`spawn_rsm_cluster`] attaches a [`MachineHost`] to every node of an
//! in-process cluster (the machine is applied *inside* the executor, so
//! snapshots shipped to joiners are always consistent with the delivery
//! stream), and wraps each node in an [`RsmNode`] whose
//! [`execute`](RsmNode::execute) proposes a command, waits for its own
//! delivery, and returns the machine's response.

use crate::machine::{MachineHost, StateMachine};
use bytes::Bytes;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration as StdDuration;
use timewheel::{Config, ProposeError};
use tw_proto::{ProposalId, Semantics};
use tw_runtime::{AppEvent, ClusterBuilder, DeliveryHook, ExecutorKind, Node, NodeOutput};

/// Why an [`RsmNode::execute`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteError {
    /// The protocol rejected the proposal.
    Rejected(ProposeError),
    /// The command was not delivered within the deadline (the node may
    /// be outside the group, or the group may be reforming).
    Timeout,
    /// The node's threads are gone.
    Closed,
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Rejected(e) => write!(f, "proposal rejected: {e}"),
            ExecuteError::Timeout => f.write_str("command not delivered in time"),
            ExecuteError::Closed => f.write_str("node closed"),
        }
    }
}

impl std::error::Error for ExecuteError {}

/// One replica of the service: a protocol node plus its machine.
pub struct RsmNode<S: StateMachine> {
    /// The underlying protocol node.
    pub node: Node,
    machine: Arc<Mutex<MachineHost<S>>>,
}

impl<S: StateMachine> RsmNode<S> {
    /// Inspect the replica's machine (read-only snapshot access).
    pub fn with_machine<R>(&self, f: impl FnOnce(&MachineHost<S>) -> R) -> R {
        f(&lock(&self.machine))
    }

    /// Execute one command through the replicated log: proposes it with
    /// total/strong semantics, waits for this replica to deliver it, and
    /// returns the machine's response.
    ///
    /// Single-threaded client assumption: `execute` calls on one node
    /// must not be interleaved from multiple threads (responses are
    /// matched by this node's own-proposal delivery order, which the
    /// protocol's FIFO condition guarantees).
    pub fn execute(&self, command: Bytes, timeout: StdDuration) -> Result<Bytes, ExecuteError> {
        self.node.propose(command, Semantics::TOTAL_STRONG);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return Err(ExecuteError::Timeout);
            };
            match self.node.outputs.recv_timeout(left) {
                Ok(NodeOutput::Delivery(d)) if d.id.proposer == self.node.pid => {
                    return self.response_for(d.id).ok_or(ExecuteError::Timeout);
                }
                Ok(NodeOutput::ProposeRejected(e)) => return Err(ExecuteError::Rejected(e)),
                Ok(_) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    return Err(ExecuteError::Timeout)
                }
                Err(_) => return Err(ExecuteError::Closed),
            }
        }
    }

    fn response_for(&self, id: ProposalId) -> Option<Bytes> {
        lock(&self.machine)
            .outcomes()
            .iter()
            .rev()
            .find(|o| o.id == id)
            .map(|o| o.response.clone())
    }

    /// Wait until this replica is in a view of `size` members.
    pub fn wait_for_view(&self, size: usize, timeout: StdDuration) -> bool {
        self.node.wait_for_view(size, timeout).is_some()
    }

    /// Stop the replica.
    pub fn shutdown(self) {
        self.node.shutdown();
    }
}

fn lock<S: StateMachine>(machine: &Mutex<MachineHost<S>>) -> MutexGuard<'_, MachineHost<S>> {
    machine
        .lock()
        .expect("a machine panicked inside its delivery hook")
}

/// Start an in-process replicated service of `cfg.n` replicas, each
/// hosting a machine produced by `make`.
pub fn spawn_rsm_cluster<S, F>(kind: ExecutorKind, cfg: Config, mut make: F) -> Vec<RsmNode<S>>
where
    S: StateMachine,
    F: FnMut() -> S,
{
    let machines: Vec<Arc<Mutex<MachineHost<S>>>> = (0..cfg.n)
        .map(|_| Arc::new(Mutex::new(MachineHost::new(make()))))
        .collect();
    let hook_machines = machines.clone();
    let nodes = ClusterBuilder::new(cfg)
        .executor(kind)
        .hooks(move |pid| {
            let host = hook_machines[pid.rank()].clone();
            Some(Box::new(move |ev: AppEvent<'_>| lock(&host).on_app_event(ev)) as DeliveryHook)
        })
        .spawn()
        .expect("nothing attached that does I/O, spawn cannot fail");
    nodes
        .into_iter()
        .zip(machines)
        .map(|(node, machine)| RsmNode { node, machine })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{KvCmd, KvResponse, KvStore};
    use tw_proto::Duration;

    #[test]
    fn kv_cluster_executes_and_replicates() {
        let cfg = Config::for_team(3, Duration::from_millis(10));
        let nodes = spawn_rsm_cluster(ExecutorKind::EventLoop, cfg, KvStore::new);
        for n in &nodes {
            assert!(n.wait_for_view(3, StdDuration::from_secs(20)));
        }
        let to = StdDuration::from_secs(10);
        let r = nodes[0]
            .execute(
                KvCmd::Put {
                    key: "city".into(),
                    value: "laramie".into(),
                }
                .to_bytes(),
                to,
            )
            .unwrap();
        assert_eq!(KvResponse::from_bytes(&r).unwrap(), KvResponse::Value(None));
        // Execute a read at a DIFFERENT replica: sees the write (total
        // order = the read command is serialized after the put).
        let r = nodes[2]
            .execute(KvCmd::Get { key: "city".into() }.to_bytes(), to)
            .unwrap();
        assert_eq!(
            KvResponse::from_bytes(&r).unwrap(),
            KvResponse::Value(Some("laramie".into()))
        );
        // All replicas converged.
        std::thread::sleep(StdDuration::from_millis(300));
        for n in &nodes {
            n.with_machine(|m| {
                assert_eq!(m.machine().get("city"), Some(&"laramie".to_string()));
            });
        }
        for n in nodes {
            n.shutdown();
        }
    }

    #[test]
    fn cas_contention_is_serialized() {
        let cfg = Config::for_team(3, Duration::from_millis(10));
        let nodes = spawn_rsm_cluster(ExecutorKind::EventLoop, cfg, KvStore::new);
        for n in &nodes {
            assert!(n.wait_for_view(3, StdDuration::from_secs(20)));
        }
        let to = StdDuration::from_secs(10);
        nodes[0]
            .execute(
                KvCmd::Put {
                    key: "lock".into(),
                    value: "free".into(),
                }
                .to_bytes(),
                to,
            )
            .unwrap();
        // Two replicas race a CAS on the same expectation; exactly one
        // must win because the commands are totally ordered.
        let cas = |who: &str| KvCmd::Cas {
            key: "lock".into(),
            expect: Some("free".into()),
            new: who.into(),
        };
        let h0 = {
            let cmd: Bytes = cas("n0").to_bytes();
            let node = &nodes[0];
            node.execute(cmd, to).unwrap()
        };
        let h2 = {
            let cmd: Bytes = cas("n2").to_bytes();
            let node = &nodes[2];
            node.execute(cmd, to).unwrap()
        };
        let r0 = KvResponse::from_bytes(&h0).unwrap();
        let r2 = KvResponse::from_bytes(&h2).unwrap();
        let wins = [&r0, &r2]
            .iter()
            .filter(|r| matches!(r, KvResponse::CasResult { swapped: true, .. }))
            .count();
        assert_eq!(wins, 1, "exactly one CAS may win: {r0:?} vs {r2:?}");
        for n in nodes {
            n.shutdown();
        }
    }
}
