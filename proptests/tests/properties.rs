//! Randomized whole-protocol property tests: arbitrary fault schedules
//! (crashes, recoveries, partitions, lossy links, client load) must never
//! violate the safety invariants, and deterministic replay must hold.

use bytes::Bytes;
use proptest::prelude::*;
use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use timewheel::invariants;
use tw_proto::{Duration, ProcessId, Semantics};
use tw_sim::{LinkModel, SimTime};

#[derive(Debug, Clone)]
enum ChaosEvent {
    Crash {
        victim: u16,
        at_ms: i64,
    },
    Recover {
        victim: u16,
        after_ms: i64,
    },
    Partition {
        split: u16,
        at_ms: i64,
        heal_ms: i64,
    },
    Propose {
        sender: u16,
        at_ms: i64,
        sem_idx: usize,
    },
}

fn arb_event(n: u16) -> impl Strategy<Value = ChaosEvent> {
    prop_oneof![
        (0..n, 0i64..8_000).prop_map(|(victim, at_ms)| ChaosEvent::Crash { victim, at_ms }),
        (0..n, 500i64..8_000)
            .prop_map(|(victim, after_ms)| ChaosEvent::Recover { victim, after_ms }),
        (1..n, 0i64..6_000, 500i64..4_000).prop_map(|(split, at_ms, heal_ms)| {
            ChaosEvent::Partition {
                split,
                at_ms,
                heal_ms,
            }
        }),
        (0..n, 0i64..8_000, 0usize..9).prop_map(|(sender, at_ms, sem_idx)| {
            ChaosEvent::Propose {
                sender,
                at_ms,
                sem_idx,
            }
        }),
    ]
}

fn run_chaos(
    n: usize,
    seed: u64,
    drop_pct: f64,
    events: &[ChaosEvent],
) -> Vec<invariants::Violation> {
    let params = TeamParams::new(n)
        .seed(seed)
        .link(LinkModel::default().with_drop_prob(drop_pct));
    let mut w = team_world(&params);
    run_until_pred(&mut w, SimTime::from_secs(120), |w| all_in_group(w, n));
    let base = w.now();
    let sems: Vec<Semantics> = Semantics::matrix().collect();
    let mut crashed: std::collections::BTreeSet<u16> = Default::default();
    for ev in events {
        match ev {
            ChaosEvent::Crash { victim, at_ms } => {
                // Keep a majority alive (the paper's failure assumption:
                // a majority of the last group survives).
                if crashed.len() + 1 < n.div_ceil(2) && crashed.insert(*victim) {
                    w.crash_at(base + Duration::from_millis(*at_ms), ProcessId(*victim));
                }
            }
            ChaosEvent::Recover { victim, after_ms } => {
                if crashed.remove(victim) {
                    w.recover_at(
                        base + Duration::from_millis(8_000 + *after_ms),
                        ProcessId(*victim),
                    );
                }
            }
            ChaosEvent::Partition {
                split,
                at_ms,
                heal_ms,
            } => {
                let a: Vec<u16> = (0..*split).collect();
                let b: Vec<u16> = (*split..n as u16).collect();
                let t = base + Duration::from_millis(*at_ms);
                w.partition_at(t, &[&a, &b]);
                w.heal_at(t + Duration::from_millis(*heal_ms));
            }
            ChaosEvent::Propose {
                sender,
                at_ms,
                sem_idx,
            } => {
                let sem = sems[*sem_idx % sems.len()];
                let t = base + Duration::from_millis(*at_ms);
                let payload = Bytes::from(format!("c{at_ms}"));
                w.call_at(t, ProcessId(*sender), move |a, ctx| {
                    let _ = a.propose(ctx, payload, sem);
                });
            }
        }
    }
    w.run_until(base + Duration::from_secs(30));
    invariants::check_all(&w)
}

proptest! {
    // Each case simulates ~45 s of protocol time; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_preserves_safety_n5(
        seed in 0u64..10_000,
        events in proptest::collection::vec(arb_event(5), 0..12),
    ) {
        let v = run_chaos(5, seed, 0.0, &events);
        prop_assert!(v.is_empty(), "violations: {v:#?}");
    }

    #[test]
    fn chaos_preserves_safety_lossy_n4(
        seed in 0u64..10_000,
        events in proptest::collection::vec(arb_event(4), 0..10),
    ) {
        let v = run_chaos(4, seed, 0.02, &events);
        prop_assert!(v.is_empty(), "violations: {v:#?}");
    }
}

#[test]
fn simulation_replay_is_bit_identical() {
    // Same seed, same script ⇒ identical observable history.
    let run = |seed: u64| {
        let params = TeamParams::new(5).seed(seed);
        let mut w = team_world(&params);
        run_until_pred(&mut w, SimTime::from_secs(60), |w| all_in_group(w, 5)).unwrap();
        w.crash_at(w.now() + Duration::from_secs(1), ProcessId(3));
        w.recover_at(w.now() + Duration::from_secs(5), ProcessId(3));
        w.run_for(Duration::from_secs(20));
        let traces: Vec<_> = (0..5u16)
            .map(|i| w.actor(ProcessId(i)).trace().to_vec())
            .collect();
        (w.stats().total_sends(), traces)
    };
    assert_eq!(run(99), run(99));
}
