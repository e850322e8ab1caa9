//! A1 — ablation: the slot-length bound.
//!
//! Paper §4.2: "the length of each time slot has to be at least D + δ".
//! A reconfiguration message must be *sendable and deliverable* within
//! its sender's slot for the freshness clauses of the creation condition
//! to line up. We sweep the slot length as a fraction of `D + δ` and
//! measure multi-failure recovery (2 crashes in a 5-group): recovery
//! time and success rate within a generous deadline, in benign runs and
//! under 5% uniform loss. The measurable effect of the bound is the
//! linear slot-length → recovery-latency relationship; the safety margin
//! it buys is analytic (worst-case message timing), not a cliff at the
//! parameters tested — the experiment reports both honestly.

use timewheel::harness::TeamParams;
use tw_bench::{median, ms, Table};
use tw_proto::{Duration, ProcessId};
use tw_sim::SimTime;

fn main() {
    let n = 5;
    let mut table = Table::new(&[
        "slot_len/(D+delta)",
        "slot_ms",
        "recoveries",
        "recovery_ms(median)",
        "valid_per_paper",
    ]);
    for factor in [0.25f64, 0.5, 0.75, 1.0, 1.3, 2.0] {
        let mut params = TeamParams::new(n).seed(40);
        let mut cfg = params.protocol_config();
        let base = cfg.big_d + cfg.delta;
        cfg.slot_len = Duration((base.as_micros() as f64 * factor) as i64);
        params.config = Some(cfg);
        let mut successes = 0usize;
        let mut samples = Vec::new();
        let runs = 5;
        for seed in 0..runs as u64 {
            let params = {
                let mut p = params.clone();
                p.seed = 700 + seed;
                p
            };
            // Formation itself may fail with invalid slots; bound it.
            let mut w = timewheel::harness::team_world(&params);
            let formed = timewheel::harness::run_until_pred(&mut w, SimTime::from_secs(60), |w| {
                timewheel::harness::all_in_group(w, n)
            });
            if formed.is_none() {
                continue;
            }
            let crash_at = w.now() + Duration::from_secs(1);
            w.crash_at(crash_at, ProcessId(1));
            w.crash_at(crash_at, ProcessId(3));
            let recovered = timewheel::harness::run_until_pred(
                &mut w,
                crash_at + Duration::from_secs(60),
                |w| {
                    [0u16, 2, 4].iter().all(|&i| {
                        let m = w.actor(ProcessId(i)).member();
                        m.state() == timewheel::CreatorState::FailureFree && m.view().len() == 3
                    })
                },
            );
            if let Some(t) = recovered {
                successes += 1;
                samples.push(ms(t, crash_at));
            }
        }
        let med = if samples.is_empty() {
            f64::NAN
        } else {
            median(&mut samples)
        };
        table.row(&[
            format!("{factor:.2}"),
            format!("{:.1}", (cfg.slot_len.as_micros() as f64) / 1_000.0),
            format!("{successes}/{runs}"),
            if med.is_nan() {
                "—".into()
            } else {
                format!("{med:.0}")
            },
            (factor >= 1.0).to_string(),
        ]);
    }
    table.print("A1 (benign): slot-length ablation (N = 5, two crashes, 5 seeds)");

    // Part 2: the bound's real job is safety margin. Short slots shrink
    // the election cool-down ((N−1) slots) and the message-validity
    // window below the (N−1)·D the at-most-one-decider argument needs.
    // Under message loss during elections, sub-bound slots must show
    // agreement violations (two completed groups at one seq) and/or
    // failed recoveries that the paper-valid configuration never shows.
    let mut stress = Table::new(&[
        "slot_len/(D+delta)",
        "runs",
        "recovered",
        "safety_violations",
    ]);
    for factor in [0.25f64, 0.5, 1.0, 1.3] {
        let mut recovered_count = 0usize;
        let mut violations = 0usize;
        let runs = 8;
        for seed in 0..runs as u64 {
            let mut params = TeamParams::new(n).seed(7_000 + seed);
            let mut cfg = params.protocol_config();
            let base = cfg.big_d + cfg.delta;
            cfg.slot_len = Duration((base.as_micros() as f64 * factor) as i64);
            params.config = Some(cfg);
            params.link = tw_sim::LinkModel::default().with_drop_prob(0.05);
            let mut w = timewheel::harness::team_world(&params);
            if timewheel::harness::run_until_pred(&mut w, SimTime::from_secs(60), |w| {
                timewheel::harness::all_in_group(w, n)
            })
            .is_none()
            {
                continue;
            }
            let crash_at = w.now() + Duration::from_secs(1);
            w.crash_at(crash_at, ProcessId(1));
            w.crash_at(crash_at, ProcessId(3));
            let rec = timewheel::harness::run_until_pred(
                &mut w,
                crash_at + Duration::from_secs(45),
                |w| {
                    [0u16, 2, 4].iter().all(|&i| {
                        let m = w.actor(ProcessId(i)).member();
                        m.state() == timewheel::CreatorState::FailureFree && m.view().len() == 3
                    })
                },
            );
            if rec.is_some() {
                recovered_count += 1;
            }
            violations += timewheel::invariants::check_all(&w).len();
        }
        stress.row(&[
            format!("{factor:.2}"),
            runs.to_string(),
            recovered_count.to_string(),
            violations.to_string(),
        ]);
    }
    stress.print("A1 (stress): same scenario + 5% uniform loss during the election");
    println!("\nfindings: (a) reconfiguration latency scales linearly with the slot");
    println!("length — the paper's bound directly prices recovery time; (b) in the");
    println!("scenarios tested, sub-bound slots did NOT produce safety violations:");
    println!("this implementation's election guards (one election per cycle, message");
    println!("validity windows) are expressed in D as well as slots, so the paper's");
    println!("D + δ bound is the analytic worst-case requirement rather than an");
    println!("empirically sharp cliff at these parameters. See EXPERIMENTS.md.");
}
