//! Failure handling, narrated: watch the group creator's state machine
//! (paper Fig. 2) walk through a single-failure election, a false alarm,
//! and a multiple-failure reconfiguration.
//!
//! Run with: `cargo run --example failover`

use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams, TeamWorld};
use tw_proto::{Duration, Msg, ProcessId};
use tw_sim::{Fault, MsgMatcher, SimTime};

/// Step the world, printing every member state change until `until`.
fn narrate(w: &mut TeamWorld, until: SimTime, n: usize) {
    let mut last = vec![String::new(); n];
    while w.now() < until {
        if !w.step() {
            break;
        }
        for i in 0..n as u16 {
            if w.status(ProcessId(i)) != tw_sim::ProcessStatus::Up {
                continue;
            }
            let m = w.actor(ProcessId(i)).member();
            let s = format!("{:<18} {}", m.state().label(), m.view());
            if s != last[i as usize] {
                println!("  {}  p{i}: {s}", w.now());
                last[i as usize] = s;
            }
        }
    }
}

fn main() {
    let n = 5;
    let params = TeamParams::new(n);
    let mut w = team_world(&params);
    println!("=== formation ===");
    run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, n)).expect("formation");
    println!(
        "formed {} at {}",
        w.actor(ProcessId(0)).member().view(),
        w.now()
    );

    println!("\n=== scenario 1: crash one member (single-failure election) ===");
    let t = w.now() + Duration::from_millis(200);
    println!("crashing p2 at {}", t);
    w.crash_at(t, ProcessId(2));
    narrate(&mut w, t + Duration::from_secs(3), n);

    println!("\n=== scenario 2: false alarm (lost decision, wrong-suspicion rescue) ===");
    let t = w.now() + Duration::from_millis(200);
    println!("dropping one decision broadcast to two members at {}", t);
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
    narrate(&mut w, t + Duration::from_secs(3), n);
    println!("(note: states visit the election and return — membership unchanged)");

    println!("\n=== scenario 3: two simultaneous crashes (reconfiguration) ===");
    let t = w.now() + Duration::from_millis(200);
    println!("crashing p1 and p3 at {}", t);
    w.crash_at(t, ProcessId(1));
    w.crash_at(t, ProcessId(3));
    narrate(&mut w, t + Duration::from_secs(6), n);

    println!("\n=== scenario 4: recovery and re-integration ===");
    let t = w.now() + Duration::from_millis(200);
    println!("recovering p1, p2, p3 at {}", t);
    for p in [1u16, 2, 3] {
        w.recover_at(t, ProcessId(p));
    }
    narrate(&mut w, t + Duration::from_secs(10), n);

    println!("\nfinal views:");
    for i in 0..n as u16 {
        let m = w.actor(ProcessId(i)).member();
        println!(
            "  p{i}: {:<18} {}  (views installed: {})",
            m.state().label(),
            m.view(),
            m.views_installed()
        );
    }
    timewheel::invariants::assert_all(&w);
    println!("all protocol invariants hold.");
}
