//! Exhaustive small-scope schedule explorer CLI.
//!
//! Invoked as `cargo xtask explore [flags]`. Enumerates every schedule
//! (delivery interleavings × crash placements × omission placements) of
//! the standard scenarios within explicit budgets, running the paper's
//! invariants at every terminal state. Exits non-zero on any violation
//! (each reported with its full schedule) — and the `--broken-fixture`
//! mode inverts that, proving the pipeline can fail at all.

use std::process::ExitCode;
use timewheel::explore::{
    run_broken_fixture, run_scenario, scenario, Budgets, Scenario, SCENARIOS,
};
use tw_sim::explore::ExploreReport;

const USAGE: &str = "\
explore — exhaustive small-scope schedule exploration

  --members N        team size for all scenarios (default: per-scenario, 3)
  --faults N         crash budget override (default: per-scenario)
  --drops N          omission budget override (default: per-scenario)
  --scenario NAME    run one scenario: reconfiguration | single-failure | false-alarm
                     (default: all three)
  --deliveries N     delivery budget per schedule (default 4)
  --timer-fires N    timer fires per process per schedule (default 1)
  --proposals N      updates proposed by p0 (default 1)
  --max-schedules N  schedule cap per scenario (default 2000000)
  --no-dpor          exact enumeration (no sleep-set reduction)
  --broken-fixture   run the deliberately-broken actor; exit 0 iff a
                     violation IS reported (pipeline self-test)
";

fn parse_flag(args: &[String], i: &mut usize, name: &str) -> Result<Option<String>, String> {
    if args[*i] != name {
        return Ok(None);
    }
    *i += 1;
    match args.get(*i) {
        Some(v) => {
            *i += 1;
            Ok(Some(v.clone()))
        }
        None => Err(format!("{name} needs a value")),
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budgets = Budgets::default();
    let mut members: Option<usize> = None;
    let mut faults: Option<usize> = None;
    let mut drops: Option<usize> = None;
    let mut only: Option<String> = None;
    let mut broken = false;

    let mut i = 0;
    while i < args.len() {
        let bad_num = |n: &str, v: &String| format!("{n}: not a number: {v}");
        if let Some(v) = parse_flag(&args, &mut i, "--members")? {
            members = Some(v.parse().map_err(|_| bad_num("--members", &v))?);
        } else if let Some(v) = parse_flag(&args, &mut i, "--faults")? {
            faults = Some(v.parse().map_err(|_| bad_num("--faults", &v))?);
        } else if let Some(v) = parse_flag(&args, &mut i, "--drops")? {
            drops = Some(v.parse().map_err(|_| bad_num("--drops", &v))?);
        } else if let Some(v) = parse_flag(&args, &mut i, "--scenario")? {
            only = Some(v);
        } else if let Some(v) = parse_flag(&args, &mut i, "--deliveries")? {
            budgets.deliveries = v.parse().map_err(|_| bad_num("--deliveries", &v))?;
        } else if let Some(v) = parse_flag(&args, &mut i, "--timer-fires")? {
            budgets.timer_fires = v.parse().map_err(|_| bad_num("--timer-fires", &v))?;
        } else if let Some(v) = parse_flag(&args, &mut i, "--proposals")? {
            budgets.proposals = v.parse().map_err(|_| bad_num("--proposals", &v))?;
        } else if let Some(v) = parse_flag(&args, &mut i, "--max-schedules")? {
            budgets.max_schedules = v.parse().map_err(|_| bad_num("--max-schedules", &v))?;
        } else if args[i] == "--no-dpor" {
            budgets.dpor = false;
            i += 1;
        } else if args[i] == "--broken-fixture" {
            broken = true;
            i += 1;
        } else if args[i] == "--help" || args[i] == "-h" {
            println!("{USAGE}");
            return Ok(true);
        } else {
            return Err(format!("unknown flag `{}`\n\n{USAGE}", args[i]));
        }
    }

    if broken {
        let rep = run_broken_fixture(&budgets);
        report("broken-fixture", &rep);
        return if rep.clean() {
            Err("broken fixture explored clean — the checking pipeline is not catching bugs".into())
        } else {
            println!(
                "broken fixture correctly caught — pipeline can fail, green runs mean something"
            );
            Ok(true)
        };
    }

    let selected: Vec<Scenario> = match &only {
        Some(name) => {
            let sc =
                scenario(name).ok_or_else(|| format!("unknown scenario `{name}` (see --help)"))?;
            vec![sc.clone()]
        }
        None => SCENARIOS.to_vec(),
    };

    let mut all_clean = true;
    for mut sc in selected {
        if let Some(n) = members {
            sc.members = n;
        }
        if let Some(f) = faults {
            sc.crashes = f;
        }
        if let Some(d) = drops {
            sc.drops = d;
        }
        println!(
            "== {} (n={}, crashes={}, drops={}): {}",
            sc.name, sc.members, sc.crashes, sc.drops, sc.about
        );
        let rep = run_scenario(&sc, &budgets);
        report(sc.name, &rep);
        all_clean &= rep.clean();
    }
    Ok(all_clean)
}

fn report(name: &str, rep: &ExploreReport) {
    println!(
        "   {name}: {} schedules, {} transitions, {} sleep-pruned{}",
        rep.schedules,
        rep.transitions,
        rep.sleep_pruned,
        if rep.truncated { " (TRUNCATED)" } else { "" }
    );
    for v in &rep.violations {
        println!("   VIOLATION after {} steps:", v.schedule.len());
        for s in &v.schedule {
            println!("     {s}");
        }
        for msg in &v.violations {
            println!("     => {msg}");
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("explore: violations found");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("explore: {e}");
            ExitCode::FAILURE
        }
    }
}
