//! Quickstart: a five-member timewheel group on the deterministic
//! simulator — formation, a few broadcasts with different semantics, and
//! the message-count ledger showing the failure-free claim (no
//! membership traffic at all while the group is stable).
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use tw_proto::{Duration, ProcessId, Semantics};
use tw_sim::SimTime;

fn main() {
    let n = 5;
    let params = TeamParams::new(n);
    println!(
        "timewheel quickstart: team of {n}, delta = {}, D = {}, slot = {}",
        params.protocol_config().delta,
        params.protocol_config().big_d,
        params.protocol_config().slot_len,
    );

    let mut world = team_world(&params);
    let formed = run_until_pred(&mut world, SimTime::from_secs(30), |w| all_in_group(w, n))
        .expect("group formation");
    let view = world.actor(ProcessId(0)).member().view().clone();
    println!("group formed at {formed}: {view}");

    // Broadcast three updates with the three headline semantics.
    let semantics = [
        ("unordered/weak  ", Semantics::UNORDERED_WEAK),
        ("total/strong    ", Semantics::TOTAL_STRONG),
        ("time/strict     ", Semantics::TIME_STRICT),
    ];
    for (i, (_, sem)) in semantics.iter().enumerate() {
        let sender = ProcessId(i as u16);
        let payload = Bytes::from(format!("update-{i}"));
        let sem = *sem;
        world.call_at(
            world.now() + Duration::from_millis(50 * (i as i64 + 1)),
            sender,
            move |a, ctx| {
                let _ = a.propose(ctx, payload, sem);
            },
        );
    }
    world.reset_stats();
    world.run_for(Duration::from_secs(5));

    println!("\ndeliveries at p0:");
    for (t, d) in &world.actor(ProcessId(0)).deliveries {
        println!(
            "  {t}  {}  [{}]  {:?}",
            d.id,
            d.semantics,
            std::str::from_utf8(&d.payload).unwrap_or("<bin>")
        );
    }

    println!("\nmessage ledger over the stable 5-second window:");
    for (kind, c) in world.stats().iter() {
        println!(
            "  {kind:<15} sends={:<6} delivered={:<6} dropped={}",
            c.sends, c.delivered, c.dropped
        );
    }
    let membership = world.stats().sends_of(&["no-decision", "join", "reconfig"]);
    println!("\nmembership-protocol messages during the stable period: {membership}");
    println!("(the paper's failure-free claim: this is always zero)");
}
