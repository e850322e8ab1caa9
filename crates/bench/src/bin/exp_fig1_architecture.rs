//! FIG1 — the layered architecture of Fig. 1, as a running artifact.
//!
//! ```text
//!      ┌──────────────────────────────┐
//!      │  timewheel broadcast service │  proposal / decision / nack
//!      ├──────────────────────────────┤
//!      │  timewheel membership svc    │  no-decision / join / reconfig
//!      ├──────────────────────────────┤
//!      │  clock synchronization svc   │  clock-sync request/reply
//!      ├──────────────────────────────┤
//!      │  unreliable broadcast svc    │  (simulated datagrams)
//!      └──────────────────────────────┘
//! ```
//!
//! We run the full stack through formation, one failure and one rejoin,
//! and attribute every datagram to its layer — demonstrating that each
//! layer exists, is exercised, and speaks only its own messages.

use timewheel::harness::TeamParams;
use tw_bench::{formed_team, Table};
use tw_proto::{Duration, ProcessId};

fn main() {
    let n = 5;
    let params = TeamParams::new(n);
    let (mut w, formed) = formed_team(&params);
    // Exercise all layers: client load, a crash, a recovery.
    timewheel::harness::inject_proposals(
        &mut w,
        n,
        50,
        tw_proto::Semantics::TOTAL_STRONG,
        Duration::from_millis(50),
        Duration::from_millis(20),
    );
    let crash_at = w.now() + Duration::from_secs(2);
    w.crash_at(crash_at, ProcessId(2));
    w.recover_at(crash_at + Duration::from_secs(4), ProcessId(2));
    w.run_for(Duration::from_secs(15));
    timewheel::invariants::assert_all(&w);

    println!("Fig. 1 — system architecture of the timewheel group communication service");
    println!();
    println!("      ┌────────────────────────────────┐");
    println!("      │  timewheel broadcast service   │  proposal, decision, nack,");
    println!("      │                                │  state-transfer");
    println!("      ├────────────────────────────────┤");
    println!("      │  timewheel membership service  │  no-decision, join, reconfig");
    println!("      ├────────────────────────────────┤");
    println!("      │  clock synchronization service │  clock-sync request/reply");
    println!("      ├────────────────────────────────┤");
    println!("      │  unreliable broadcast service  │  (datagram substrate)");
    println!("      └────────────────────────────────┘");

    let s = w.stats();
    let layer = |kinds: &[&str]| -> (u64, u64) {
        (
            kinds.iter().map(|k| s.kind(k).sends).sum(),
            kinds.iter().map(|k| s.kind(k).delivered).sum(),
        )
    };
    let (b_s, b_d) = layer(&["proposal", "decision", "nack", "state-transfer"]);
    let (m_s, m_d) = layer(&["no-decision", "join", "reconfig"]);
    let (c_s, c_d) = layer(&["clock-sync"]);
    let mut table = Table::new(&["layer", "sends", "datagrams_delivered"]);
    table.row(&["broadcast".into(), b_s.to_string(), b_d.to_string()]);
    table.row(&["membership".into(), m_s.to_string(), m_d.to_string()]);
    table.row(&["clock-sync".into(), c_s.to_string(), c_d.to_string()]);
    table.print("FIG1: per-layer traffic over formation + crash + rejoin");
    println!(
        "\nformation at {formed}; the membership layer only spoke during the\n\
         crash/rejoin episodes ({m_s} sends), the broadcast layer carried the\n\
         service, and clock-sync ran continuously underneath."
    );
}
