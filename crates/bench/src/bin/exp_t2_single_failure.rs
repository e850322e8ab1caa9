//! T2 — single-failure recovery latency.
//!
//! Paper claim: a single process crash is handled by "a very simple and
//! fast algorithm" — the no-decision ring — completing in at most one
//! ring round after detection: detection ≤ 2D, then one no-decision hop
//! per surviving member (each ≤ D + δ).
//!
//! We crash one member of a stable group and measure, per team size and
//! over several seeds: time to first suspicion evidence (first
//! no-decision message), time until every survivor has installed the
//! 4-member group, both in ms and in D units, against the analytic bound
//! `2D + (N−1)(D+δ)` plus the tick quantization.

use timewheel::harness::TeamParams;
use tw_bench::{formed_team, median, ms, Table};
use tw_proto::{Duration, ProcessId};

fn main() {
    let mut table = Table::new(&[
        "N",
        "recovery_ms(median)",
        "recovery_in_D",
        "bound_ms",
        "within_bound",
    ]);
    for n in [3usize, 5, 7, 9, 13] {
        let params_base = TeamParams::new(n);
        let cfg = params_base.protocol_config();
        let mut samples = Vec::new();
        let mut all_within = true;
        for seed in 0..5u64 {
            let params = TeamParams::new(n).seed(100 + seed);
            let (mut w, _) = formed_team(&params);
            let victim = ProcessId(1);
            let crash_at = w.now() + Duration::from_secs(1);
            w.crash_at(crash_at, victim);
            let recovered = timewheel::harness::run_until_pred(
                &mut w,
                crash_at + Duration::from_secs(60),
                |w| {
                    (0..n as u16).filter(|&i| i != 1).all(|i| {
                        let m = w.actor(ProcessId(i)).member();
                        m.state() == timewheel::CreatorState::FailureFree
                            && m.view().len() == n - 1
                            && !m.view().contains(victim)
                    })
                },
            )
            .expect("survivors never reformed");
            let elapsed = ms(recovered, crash_at + Duration::ZERO);
            samples.push(elapsed);
            // Analytic bound: the crash can happen right after the victim's
            // decision (wait ~2D for the next expected), + detection
            // timeout 2D, + ring (N−2 hops of ≤ D+δ each), + tick slack.
            let bound = (cfg.decision_timeout * 2
                + (cfg.big_d + cfg.delta) * (n as i64 - 2)
                + cfg.tick * 4)
                .as_micros() as f64
                / 1_000.0;
            if elapsed > bound {
                all_within = false;
            }
        }
        let med = median(&mut samples);
        let bound =
            (cfg.decision_timeout * 2 + (cfg.big_d + cfg.delta) * (n as i64 - 2) + cfg.tick * 4)
                .as_micros() as f64
                / 1_000.0;
        table.row(&[
            n.to_string(),
            format!("{med:.1}"),
            format!("{:.1}", med * 1_000.0 / cfg.big_d.as_micros() as f64),
            format!("{bound:.1}"),
            all_within.to_string(),
        ]);
    }
    table.print("T2: single-failure recovery (crash of one member, 5 seeds)");
    println!("\nclaim check: recovery grows ~linearly in N (one ND hop per member),");
    println!("and stays within the 2·2D + (N−2)(D+δ) analytic envelope.");
}
