//! Replicated state machines on the deterministic simulator.
//!
//! Each simulated member gets a [`MachineHost`] attached through the
//! harness's delivery hook: deliveries are applied synchronously, the
//! member's transferable snapshot is refreshed after every command, and a
//! join-time state transfer replaces the machine wholesale — so the
//! machine is always exactly the fold of the member's delivery history.

use crate::machine::{MachineHost, StateMachine};
use std::cell::RefCell;
use std::rc::Rc;
use timewheel::harness::{team_world, SimMember, TeamParams};
use tw_proto::ProcessId;
use tw_sim::World;

/// Shared handle to one replica's machine (the simulator is
/// single-threaded, so `Rc<RefCell<…>>` is the right tool).
pub type MachineHandle<S> = Rc<RefCell<MachineHost<S>>>;

/// Build a simulated team whose members each host a state machine
/// produced by `make`. Returns the world plus per-replica machine
/// handles (index = rank).
pub fn rsm_team<S, F>(params: &TeamParams, mut make: F) -> (World<SimMember>, Vec<MachineHandle<S>>)
where
    S: StateMachine,
    F: FnMut() -> S,
{
    let mut world = team_world(params);
    let handles = (0..params.n)
        .map(|i| {
            let host: MachineHandle<S> = Rc::new(RefCell::new(MachineHost::new(make())));
            let hooked = host.clone();
            world
                .actor_mut(ProcessId(i as u16))
                .set_hook(move |ev| hooked.borrow_mut().on_app_event(ev));
            host
        })
        .collect();
    (world, handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{Counter, CounterCmd, KvCmd, KvStore};
    use timewheel::harness::{all_in_group, run_until_pred};
    use tw_proto::{Duration, Semantics};
    use tw_sim::SimTime;

    fn propose_cmd(w: &mut World<SimMember>, at: SimTime, who: u16, cmd: bytes::Bytes) {
        w.call_at(at, ProcessId(who), move |a, ctx| {
            let _ = a.propose(ctx, cmd, Semantics::TOTAL_STRONG);
        });
    }

    #[test]
    fn counters_converge() {
        let params = TeamParams::new(3);
        let (mut w, machines) = rsm_team(&params, Counter::default);
        run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, 3)).unwrap();
        // The weak command delivers at its proposer inside the propose
        // call itself: replica 0's machine must see it like any other.
        let weak = Semantics::UNORDERED_WEAK;
        let strong = Semantics::TOTAL_STRONG;
        for (k, amount, sem) in [(0u16, 5i64, weak), (1, 7, strong), (2, -3, strong)] {
            let at = w.now() + Duration::from_millis(50 * (k as i64 + 1));
            let cmd = CounterCmd::Add(amount).to_bytes();
            w.call_at(at, ProcessId(k), move |a, ctx| {
                let _ = a.propose(ctx, cmd, sem);
            });
        }
        w.run_for(Duration::from_secs(5));
        for (i, m) in machines.iter().enumerate() {
            assert_eq!(m.borrow().machine().total(), 9, "replica {i}");
            assert_eq!(m.borrow().applied(), 3, "replica {i}");
        }
    }

    #[test]
    fn kv_replicas_identical() {
        let params = TeamParams::new(5).seed(3);
        let (mut w, machines) = rsm_team(&params, KvStore::new);
        run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, 5)).unwrap();
        for i in 0..10u16 {
            let cmd = KvCmd::Put {
                key: format!("k{}", i % 4),
                value: format!("v{i}"),
            };
            let at = w.now() + Duration::from_millis(30 * (i as i64 + 1));
            propose_cmd(&mut w, at, i % 5, cmd.to_bytes());
        }
        w.run_for(Duration::from_secs(5));
        let first = machines[0].borrow().machine().clone();
        assert_eq!(first.len(), 4);
        for m in &machines[1..] {
            assert_eq!(m.borrow().machine(), &first);
        }
        timewheel::invariants::assert_all(&w);
    }

    #[test]
    fn rejoined_replica_catches_up_via_snapshot() {
        let params = TeamParams::new(5).seed(9);
        let (mut w, machines) = rsm_team(&params, Counter::default);
        run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, 5)).unwrap();
        // Apply some commands, then crash p2.
        for k in 0..4i64 {
            let at = w.now() + Duration::from_millis(40 * (k + 1));
            propose_cmd(&mut w, at, (k % 5) as u16, CounterCmd::Add(10).to_bytes());
        }
        let crash_at = w.now() + Duration::from_millis(500);
        w.crash_at(crash_at, ProcessId(2));
        // More commands while p2 is down (it misses these).
        for k in 0..3i64 {
            let at = crash_at + Duration::from_millis(500 + 40 * (k + 1));
            propose_cmd(&mut w, at, 0, CounterCmd::Add(1).to_bytes());
        }
        let recover_at = crash_at + Duration::from_secs(4);
        w.recover_at(recover_at, ProcessId(2));
        w.run_until(recover_at + Duration::from_millis(1));
        run_until_pred(&mut w, recover_at + Duration::from_secs(60), |w| {
            all_in_group(w, 5)
        })
        .expect("rejoin");
        // Post-rejoin command: everyone, including p2, must land on the
        // same total — which requires p2 to have installed the snapshot
        // covering the missed commands.
        let at = w.now() + Duration::from_millis(200);
        propose_cmd(&mut w, at, 1, CounterCmd::Add(100).to_bytes());
        w.run_for(Duration::from_secs(5));
        let expect = 4 * 10 + 3 + 100;
        for (i, m) in machines.iter().enumerate() {
            assert_eq!(m.borrow().machine().total(), expect, "replica {i} diverged");
        }
    }
}
