//! T8 — the fail-aware clock synchronization substrate.
//!
//! The membership protocol's slots only work if (a) synchronized clocks
//! of stable members deviate by at most a known ε, and (b) a process
//! that cannot synchronize *knows* it (fail-awareness). We sweep drift
//! rate ρ and one-way timeout δ, measuring the worst observed deviation
//! between any two synchronized members against the configured ε, and
//! the latency until a partitioned minority reports itself unsynced.

use timewheel::harness::TeamParams;
use tw_bench::{formed_team, ms, Table};
use tw_proto::{Duration, ProcessId};

fn main() {
    let n = 5;
    let mut table = Table::new(&[
        "delta_ms",
        "drift_ppm",
        "worst_deviation_us",
        "epsilon_us",
        "within_eps",
        "failaware_latency_ms",
    ]);
    for delta_ms in [2i64, 10, 50] {
        for drift_ppm in [1.0f64, 100.0] {
            let mut params = TeamParams::new(n).seed(77);
            params.delta = Duration::from_millis(delta_ms);
            params.drift_ppm = drift_ppm;
            let cfg = params.protocol_config();
            let (mut w, _) = formed_team(&params);
            // Sample pairwise deviations every 20 ms for 10 s.
            let mut worst: i64 = 0;
            for _ in 0..500 {
                w.run_for(Duration::from_millis(20));
                let readings: Vec<Option<i64>> = (0..n as u16)
                    .map(|i| {
                        let p = ProcessId(i);
                        let hw = w.hw_time(p);
                        w.actor(p).member().now_sync(hw).map(|t| t.0)
                    })
                    .collect();
                for a in 0..n {
                    for b in (a + 1)..n {
                        if let (Some(x), Some(y)) = (readings[a], readings[b]) {
                            worst = worst.max((x - y).abs());
                        }
                    }
                }
            }
            // Fail-awareness: partition off {3,4} and time their
            // unsynced report.
            let cut = w.now() + Duration::from_millis(100);
            w.partition_at(cut, &[&[0, 1, 2], &[3, 4]]);
            let noticed =
                timewheel::harness::run_until_pred(&mut w, cut + Duration::from_secs(120), |w| {
                    [3u16, 4].iter().all(|&i| {
                        let p = ProcessId(i);
                        let hw = w.hw_time(p);
                        w.actor(p).member().now_sync(hw).is_none()
                    })
                })
                .expect("minority never lost sync awareness");
            let eps = cfg.epsilon.as_micros();
            table.row(&[
                delta_ms.to_string(),
                format!("{drift_ppm:.0}"),
                worst.to_string(),
                eps.to_string(),
                (worst <= eps).to_string(),
                format!("{:.0}", ms(noticed, cut)),
            ]);
        }
    }
    table.print("T8: fail-aware clock synchronization (N = 5, 10 s sampled)");
    println!("\nclaim check: observed deviation stays within the configured ε for");
    println!("every (δ, ρ) point, and a partitioned minority reports itself");
    println!("unsynchronized within its sync-validity window.");
}
