//! Exploration of the real protocol: the standard small-scope scenarios
//! must come back clean, must not be vacuous (updates really deliver in
//! some schedules), and the deliberately-broken fixture must be caught.

use timewheel::explore::{
    check_team, config_for, deliveries_in, run_broken_fixture, run_scenario, scenario, team,
    Budgets, ExploreMember, Scenario,
};
use tw_sim::explore::Explorer;

fn quick() -> Budgets {
    Budgets::default() // deliveries 4, timer fires 1: completes everywhere
}

fn deep() -> Budgets {
    Budgets {
        deliveries: 6,
        timer_fires: 2,
        ..Budgets::default()
    }
}

/// Every crash placement of a formed 3-member group stays invariant-
/// clean, at budgets that saturate the scenario's whole bounded space.
#[test]
fn single_failure_explores_clean() {
    let sc = scenario("single-failure").expect("standard scenario");
    let rep = run_scenario(sc, &deep());
    assert!(rep.clean(), "violations: {:#?}", rep.violations);
    assert!(!rep.truncated);
    assert!(rep.schedules > 0);
}

/// Every single-message omission (wrong-suspicion inducing) stays clean.
#[test]
fn false_alarm_explores_clean() {
    let sc = scenario("false-alarm").expect("standard scenario");
    let rep = run_scenario(sc, &deep());
    assert!(rep.clean(), "violations: {:#?}", rep.violations);
    assert!(!rep.truncated);
    assert!(rep.schedules > 0);
}

/// The join phase from scratch: all interleavings at the quick budget.
#[test]
fn reconfiguration_explores_clean() {
    let sc = scenario("reconfiguration").expect("standard scenario");
    let rep = run_scenario(sc, &quick());
    assert!(rep.clean(), "violations: {:#?}", rep.violations);
    assert!(!rep.truncated);
    assert!(
        rep.schedules > 10_000,
        "join phase should branch heavily, got {}",
        rep.schedules
    );
}

/// The explored scenarios actually deliver updates — the delivery-side
/// invariants are exercised, not vacuously true over empty logs.
#[test]
fn exploration_is_not_vacuous() {
    let sc = scenario("single-failure").expect("standard scenario");
    let mut max_delivered = 0usize;
    let mut actors = team(sc);
    actors[0].set_proposals(1);
    let rep = Explorer::new(config_for(sc, &deep()), |a: &[ExploreMember]| {
        max_delivered = max_delivered.max(deliveries_in(a));
        check_team(a)
    })
    .run(actors);
    assert!(rep.clean());
    assert!(
        max_delivered >= 3,
        "expected some schedule to deliver the update everywhere, max was {max_delivered}"
    );
}

/// Sleep-set reduction must not change verdicts, only effort: both modes
/// agree the scenarios are clean, and DPOR never enlarges the space.
#[test]
fn dpor_and_full_enumeration_agree() {
    for name in ["single-failure", "false-alarm"] {
        let sc = scenario(name).expect("standard scenario");
        let full = run_scenario(
            sc,
            &Budgets {
                dpor: false,
                ..quick()
            },
        );
        let dpor = run_scenario(sc, &quick());
        assert_eq!(full.clean(), dpor.clean(), "{name}");
        assert!(dpor.schedules <= full.schedules, "{name}");
        assert!(dpor.schedules > 0, "{name}");
    }
}

/// Crash placements genuinely enlarge the schedule space (the fault
/// budget is exercised, not ignored).
#[test]
fn crash_budget_enlarges_the_space() {
    let sc = scenario("single-failure").expect("standard scenario");
    let no_crash = Scenario {
        crashes: 0,
        ..sc.clone()
    };
    let b = Budgets {
        dpor: false,
        ..quick()
    };
    let with_crash = run_scenario(sc, &b);
    let without = run_scenario(&no_crash, &b);
    assert!(
        with_crash.schedules > without.schedules,
        "{} !> {}",
        with_crash.schedules,
        without.schedules
    );
}

/// The pipeline self-test: a member that duplicates its first delivery
/// MUST be reported. If this fixture explores clean, green exploration
/// runs are meaningless.
#[test]
fn broken_fixture_is_caught() {
    let rep = run_broken_fixture(&quick());
    assert!(!rep.clean(), "sabotaged member escaped the checkers");
    let v = &rep.violations[0];
    assert!(!v.schedule.is_empty(), "violation must carry its schedule");
    assert!(
        v.violations.iter().any(|m| m.contains("twice")),
        "expected the duplicate-delivery invariant, got: {:?}",
        v.violations
    );
}
