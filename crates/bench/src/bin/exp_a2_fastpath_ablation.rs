//! A2 — ablation: what does the single-failure fast path buy?
//!
//! The paper's headline optimization is handling the common case — one
//! crash or one lost decision — with the lightweight no-decision ring
//! instead of the heavyweight slotted reconfiguration. We disable the
//! fast path (every timeout failure goes straight to n-failure state)
//! and compare single-crash recovery latency and message cost.

use timewheel::harness::TeamParams;
use tw_bench::{formed_team, median, ms, Table};
use tw_proto::{Duration, ProcessId};

fn run(n: usize, fastpath: bool) -> (f64, f64, f64) {
    let mut samples = Vec::new();
    let mut nds = Vec::new();
    let mut reconfigs = Vec::new();
    for seed in 0..5u64 {
        let mut params = TeamParams::new(n).seed(800 + seed);
        let mut cfg = params.protocol_config();
        cfg.single_failure_fastpath = fastpath;
        params.config = Some(cfg);
        let (mut w, _) = formed_team(&params);
        let crash_at = w.now() + Duration::from_secs(1);
        w.crash_at(crash_at, ProcessId(1));
        w.reset_stats();
        let recovered =
            timewheel::harness::run_until_pred(&mut w, crash_at + Duration::from_secs(120), |w| {
                (0..n as u16).filter(|&i| i != 1).all(|i| {
                    let m = w.actor(ProcessId(i)).member();
                    m.state() == timewheel::CreatorState::FailureFree && m.view().len() == n - 1
                })
            })
            .expect("never recovered");
        samples.push(ms(recovered, crash_at));
        nds.push(w.stats().kind("no-decision").sends as f64);
        reconfigs.push(w.stats().kind("reconfig").sends as f64);
    }
    (
        median(&mut samples),
        median(&mut nds),
        median(&mut reconfigs),
    )
}

fn main() {
    let mut table = Table::new(&[
        "N",
        "path",
        "recovery_ms(median)",
        "no-decision_msgs",
        "reconfig_msgs",
    ]);
    let mut pairs = Vec::new();
    for n in [5usize, 9, 13] {
        let fast = run(n, true);
        let slow = run(n, false);
        pairs.push((n, fast.0, slow.0));
        table.row(&[
            n.to_string(),
            "fast path (paper)".into(),
            format!("{:.0}", fast.0),
            format!("{:.0}", fast.1),
            format!("{:.0}", fast.2),
        ]);
        table.row(&[
            n.to_string(),
            "reconfig only".into(),
            format!("{:.0}", slow.0),
            format!("{:.0}", slow.1),
            format!("{:.0}", slow.2),
        ]);
    }
    table.print("A2: single-failure fast path vs reconfiguration-only (1 crash, 5 seeds)");
    println!("\nshape check: the no-decision ring recovers a single crash");
    for (n, f, s) in pairs {
        println!(
            "  N={n}: {:.1}× faster than going straight to reconfiguration ({f:.0} vs {s:.0} ms)",
            s / f
        );
    }
    println!("— the asymmetry the paper optimizes for (single failures are common).");
}
