//! T10 — what each semantics level costs (delivery latency by class).
//!
//! The timewheel service's selling point (§1) is offering multiple
//! ordering/atomicity semantics *simultaneously*, so each update pays
//! only for what it needs. This experiment prices the menu: propose→
//! deliver latency at a non-proposing member, per semantics class, in a
//! stable 5-group.
//!
//! Expected shape: weak/unordered ≈ one datagram delay (δ-ish);
//! total adds waiting for the next decision (ordinals), ≈ D/2;
//! strong adds majority acknowledgement of dependencies;
//! strict adds full stability (one ack rotation ≈ a cycle);
//! time is pinned at the configured Δ_deliv regardless.

use timewheel::harness::{inject_proposals, TeamParams};
use tw_bench::{formed_team, mean, percentile, Table};
use tw_proto::{Duration, ProcessId, Semantics};

fn main() {
    let n = 5;
    let mut table = Table::new(&["semantics", "mean_ms", "p99_ms", "delivered"]);
    let cfg = TeamParams::new(n).protocol_config();
    for sem in Semantics::matrix() {
        let params = TeamParams::new(n).seed(4242);
        let (mut w, _) = formed_team(&params);
        let count = 40;
        inject_proposals(
            &mut w,
            n,
            count,
            sem,
            Duration::from_millis(100),
            Duration::from_millis(60),
        );
        w.run_for(Duration::from_secs(30));
        // Latency at p0 for updates proposed by others: delivery hw time
        // minus the proposal's synchronized send timestamp (clocks agree
        // to within ε ≪ the latencies measured).
        let mut lats: Vec<f64> = w
            .actor(ProcessId(0))
            .deliveries
            .iter()
            .filter(|(_, d)| d.id.proposer != ProcessId(0))
            .map(|(t, d)| (t.0 - d.send_ts.0) as f64 / 1_000.0)
            .collect();
        let delivered = w.actor(ProcessId(0)).deliveries.len();
        table.row(&[
            sem.to_string(),
            format!("{:.1}", mean(&lats)),
            format!("{:.1}", percentile(&mut lats, 99.0)),
            format!("{delivered}/{count}"),
        ]);
    }
    table.print("T10: delivery latency by semantics class (N = 5, stable group)");
    println!(
        "\nreference points: δ = {}, D/2 (decider interval) = {}, Δ_deliv (time\n\
         order) = {}, cycle (full ack rotation) = {}.",
        cfg.delta,
        cfg.decider_interval,
        cfg.time_delivery_latency,
        cfg.cycle()
    );
    println!("shape check: each step up the semantics ladder costs what its");
    println!("mechanism implies — the \"pay only for what you use\" design of §1.");
}
