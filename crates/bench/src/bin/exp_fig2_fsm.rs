//! FIG2 — the group creator's state-transition diagram, recovered from
//! execution.
//!
//! We drive the protocol through every scenario class (formation, single
//! crash, false alarm, multiple crashes, partition + heal, recovery +
//! rejoin), polling each member's creator state after every simulation
//! event. The observed transition relation must be a subset of the
//! paper's Fig. 2 edge set, and the interesting edges must all be
//! exercised.

use std::collections::BTreeSet;
use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use timewheel::CreatorState;
use tw_bench::Table;
use tw_proto::{Duration, Msg, ProcessId};
use tw_sim::{Fault, MsgMatcher, SimTime};

type Edge = (&'static str, &'static str);

/// The paper's Fig. 2, as an edge list (labels per CreatorState::label).
/// Transitions back to `join` exist from every non-join state: exclusion
/// from a new group (wrong-suspicion/n-failure arrows in the figure) and
/// loss of clock synchronization (§2).
fn allowed_edges() -> BTreeSet<Edge> {
    let mut e = BTreeSet::new();
    // join
    e.insert(("join", "failure-free")); // D received / group created (Dsend)
                                        // failure-free
    e.insert(("failure-free", "1-failure-send")); // timeout & NDsend
    e.insert(("failure-free", "1-failure-receive")); // timeout
    e.insert(("failure-free", "wrong-suspicion")); // ND from expected
    e.insert(("failure-free", "n-failure")); // R from expected
    e.insert(("failure-free", "join")); // excluded / lost sync
                                        // wrong-suspicion
    e.insert(("wrong-suspicion", "failure-free")); // D / rescue (Dsend)
    e.insert(("wrong-suspicion", "n-failure")); // timeout, R
    e.insert(("wrong-suspicion", "join")); // D with me excluded
                                           // 1-failure-receive
    e.insert(("1-failure-receive", "1-failure-send")); // ND from pred, NDsend
    e.insert(("1-failure-receive", "failure-free")); // D / removal (Dsend)
    e.insert(("1-failure-receive", "wrong-suspicion")); // D from suspect
    e.insert(("1-failure-receive", "n-failure")); // timeout, R, majority edge
    e.insert(("1-failure-receive", "join"));
    // 1-failure-send
    e.insert(("1-failure-send", "failure-free")); // D
    e.insert(("1-failure-send", "n-failure")); // timeout, R
    e.insert(("1-failure-send", "join"));
    // n-failure
    e.insert(("n-failure", "failure-free")); // created / D with me
    e.insert(("n-failure", "join")); // excluded, after all decisions
    e
}

fn observe(
    w: &mut tw_bench::TeamWorld,
    until: SimTime,
    n: usize,
    last: &mut [CreatorState],
    seen: &mut BTreeSet<Edge>,
) {
    while w.now() < until {
        if !w.step() {
            break;
        }
        for i in 0..n as u16 {
            if w.status(ProcessId(i)) != tw_sim::ProcessStatus::Up {
                continue;
            }
            let s = w.actor(ProcessId(i)).member().state();
            let prev = last[i as usize];
            if s != prev {
                seen.insert((prev.label(), s.label()));
                last[i as usize] = s;
            }
        }
    }
}

fn main() {
    let n = 5;
    let allowed = allowed_edges();
    let mut seen: BTreeSet<Edge> = BTreeSet::new();

    // Scenario battery.
    for scenario in 0..5 {
        let params = TeamParams::new(n).seed(2000 + scenario);
        let mut w = team_world(&params);
        let mut last = vec![CreatorState::Join; n];
        run_until_pred(&mut w, SimTime::from_secs(60), |w| all_in_group(w, n)).unwrap();
        // catch the join → failure-free edges we skipped over:
        for s in last.iter_mut() {
            seen.insert(("join", "failure-free"));
            *s = CreatorState::FailureFree;
        }
        match scenario {
            0 => {
                // stable run
                let until = w.now() + Duration::from_secs(5);
                observe(&mut w, until, n, &mut last, &mut seen);
            }
            1 => {
                // single crash + recovery + rejoin
                let t0 = w.now();
                w.crash_at(t0 + Duration::from_millis(300), ProcessId(1));
                w.recover_at(t0 + Duration::from_secs(4), ProcessId(1));
                let until = t0 + Duration::from_secs(20);
                // a recovered process restarts in join state:
                observe(&mut w, until, n, &mut last, &mut seen);
                last[1] = w.actor(ProcessId(1)).member().state();
            }
            2 => {
                // false alarm: decision dropped to two members
                let t = w.now() + Duration::from_millis(300);
                for target in [3u16, 4] {
                    w.add_fault_at(
                        t,
                        Fault::drop_next(
                            MsgMatcher::any()
                                .to(ProcessId(target))
                                .matching(|m: &Msg| matches!(m, Msg::Decision(_))),
                            1,
                        ),
                    );
                }
                let until = t + Duration::from_secs(5);
                observe(&mut w, until, n, &mut last, &mut seen);
            }
            3 => {
                // two simultaneous crashes → reconfiguration
                let t = w.now() + Duration::from_millis(300);
                w.crash_at(t, ProcessId(1));
                w.crash_at(t, ProcessId(3));
                let until = t + Duration::from_secs(15);
                observe(&mut w, until, n, &mut last, &mut seen);
            }
            _ => {
                // partition + heal
                let t = w.now() + Duration::from_millis(300);
                w.partition_at(t, &[&[0, 1, 2], &[3, 4]]);
                w.heal_at(t + Duration::from_secs(8));
                let until = t + Duration::from_secs(40);
                observe(&mut w, until, n, &mut last, &mut seen);
            }
        }
    }

    let mut table = Table::new(&["from", "to", "observed", "allowed_by_fig2"]);
    let states = [
        "join",
        "failure-free",
        "wrong-suspicion",
        "1-failure-receive",
        "1-failure-send",
        "n-failure",
    ];
    let mut violations = 0;
    for from in states {
        for to in states {
            if from == to {
                continue;
            }
            let o = seen.contains(&(from, to));
            let a = allowed.contains(&(from, to));
            if o || a {
                table.row(&[from.into(), to.into(), o.to_string(), a.to_string()]);
            }
            if o && !a {
                violations += 1;
            }
        }
    }
    table.print("FIG2: observed vs allowed group-creator transitions (5 scenario classes)");
    assert_eq!(violations, 0, "observed a transition outside Fig. 2");
    let coverage = seen.len();
    println!(
        "\nshape check: every observed transition is a Fig. 2 edge; {coverage} of {}\n\
         edges exercised across the scenario battery.",
        allowed.len()
    );
}
