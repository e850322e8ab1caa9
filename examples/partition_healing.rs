//! Fail-awareness under a network partition: the majority side reforms
//! and keeps serving; the minority side *knows* its group is out of date
//! (it never lies about being current); after healing, the team reunites.
//!
//! Run with: `cargo run --example partition_healing`

use timewheel::harness::{all_in_group, run_until_pred, team_world, TeamParams};
use tw_proto::{Duration, ProcessId};
use tw_sim::SimTime;

fn report(w: &tw_sim::World<timewheel::harness::SimMember>, n: usize) {
    for i in 0..n as u16 {
        let p = ProcessId(i);
        let hw = w.hw_time(p);
        let m = w.actor(p).member();
        println!(
            "  p{i}: state={:<18} view={:<24} clock_synced={:<5} up_to_date={}",
            m.state().label(),
            m.view().to_string(),
            m.now_sync(hw).is_some(),
            m.is_up_to_date(hw),
        );
    }
}

fn main() {
    let n = 5;
    let params = TeamParams::new(n);
    let mut w = team_world(&params);
    run_until_pred(&mut w, SimTime::from_secs(30), |w| all_in_group(w, n)).expect("formation");
    println!("formed at {}:", w.now());
    report(&w, n);

    let cut = w.now() + Duration::from_millis(500);
    println!("\npartitioning {{p0,p1,p2}} | {{p3,p4}} at {cut} …");
    w.partition_at(cut, &[&[0, 1, 2], &[3, 4]]);
    w.run_until(cut + Duration::from_secs(8));
    println!("8 s into the partition:");
    report(&w, n);
    println!("\nnote: the minority members report up_to_date = false —");
    println!("fail-awareness means they *know* their view is stale.");

    let heal = w.now() + Duration::from_millis(500);
    println!("\nhealing at {heal} …");
    w.heal_at(heal);
    let reunited = run_until_pred(&mut w, heal + Duration::from_secs(120), |w| {
        all_in_group(w, n)
    })
    .expect("reunification");
    println!("reunited at {reunited}:");
    report(&w, n);
    timewheel::invariants::assert_all(&w);
    println!("\nall protocol invariants hold.");
}
