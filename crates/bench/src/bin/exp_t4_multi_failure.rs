//! T4 — multiple-failure recovery via the time-slotted reconfiguration
//! election.
//!
//! Paper claim: when several members fail within a cycle, the slotted
//! reconfiguration protocol forms the new group, "typically … in two
//! rounds" — i.e. about two cycles of slots after detection.
//!
//! We crash `f` members of an `N`-group simultaneously and measure the
//! time until every survivor runs failure-free in the (N−f)-group,
//! expressed in ms, in slots, and in cycles. Safety side-conditions
//! (majority views, single completed group per seq) are asserted.

use timewheel::harness::TeamParams;
use tw_bench::{formed_team, median, ms, Table};
use tw_proto::{Duration, ProcessId};

fn main() {
    let mut table = Table::new(&[
        "N",
        "f",
        "recovery_ms(median)",
        "in_slots",
        "in_cycles",
        "survivor_group",
    ]);
    for (n, fs) in [
        (5usize, vec![2usize]),
        (7, vec![2, 3]),
        (9, vec![2, 3, 4]),
        (13, vec![2, 4, 6]),
    ] {
        for f in fs {
            let params_base = TeamParams::new(n);
            let cfg = params_base.protocol_config();
            let mut samples = Vec::new();
            for seed in 0..5u64 {
                let params = TeamParams::new(n).seed(300 + seed);
                let (mut w, _) = formed_team(&params);
                // Crash f members spread over the ring (worst-ish case).
                let victims: Vec<ProcessId> = (0..f)
                    .map(|k| ProcessId((1 + 2 * k as u16) % n as u16))
                    .collect();
                let crash_at = w.now() + Duration::from_secs(1);
                for v in &victims {
                    w.crash_at(crash_at, *v);
                }
                let survivors: Vec<u16> = (0..n as u16)
                    .filter(|i| !victims.contains(&ProcessId(*i)))
                    .collect();
                let recovered = timewheel::harness::run_until_pred(
                    &mut w,
                    crash_at + Duration::from_secs(120),
                    |w| {
                        survivors.iter().all(|&i| {
                            let m = w.actor(ProcessId(i)).member();
                            m.state() == timewheel::CreatorState::FailureFree
                                && m.view().len() == n - f
                                && victims.iter().all(|v| !m.view().contains(*v))
                        })
                    },
                )
                .expect("survivors never reformed");
                samples.push(ms(recovered, crash_at));
                timewheel::invariants::assert_all(&w);
            }
            let med = median(&mut samples);
            table.row(&[
                n.to_string(),
                f.to_string(),
                format!("{med:.0}"),
                format!("{:.1}", med * 1_000.0 / cfg.slot_len.as_micros() as f64),
                format!("{:.2}", med * 1_000.0 / cfg.cycle().as_micros() as f64),
                (n - f).to_string(),
            ]);
        }
    }
    table.print("T4: multiple-failure recovery (f simultaneous crashes, 5 seeds)");
    println!("\nclaim check: recovery completes in ≈1–3 cycles — the paper's");
    println!("\"a new decider is typically elected in two rounds\" of slots.");
}
