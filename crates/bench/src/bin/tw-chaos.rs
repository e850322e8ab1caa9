//! Chaos harness for real clusters: run a seeded, deterministic fault
//! schedule against a live in-process cluster and check the paper's
//! guarantees under adversity.
//!
//! For the chosen scenario a [`ChaosSchedule`] is generated as a pure
//! function of `(seed, team, budget)`, executed step by step against a
//! flight-recorded [`ChaosCluster`] while the harness probes each
//! node's locally observable status (§6 fail-awareness), and the
//! recordings are then re-analyzed offline (`tw_obs::analyze`) exactly
//! like CI's trace job. The verdict contains only deterministic fields
//! — seed, schedule fingerprint, script text, guarantee booleans — so
//! two runs of the same seed must produce byte-identical verdicts
//! (`--repeat 2` asserts this).
//!
//! Guarantees checked:
//!
//! * the group forms before any fault fires;
//! * during a partition, some minority member *itself* reports
//!   out-of-date (fail-awareness, §6) while the majority side installs
//!   a minority-free view (progress, §4.2);
//! * during a crash, the survivors install a view without the victim;
//! * after the last fault is healed, every member — including restarted
//!   incarnations rejoining via the §5 join path — converges back to
//!   the full, up-to-date view;
//! * every completed recovery span in the merged recordings fits the
//!   §4.2 analytic envelope (scaled by the number of simultaneously
//!   disturbed members);
//! * the offline audit of the merged recordings is clean, and the
//!   recordings are self-describing (fault events present).
//!
//! Usage: tw-chaos [--scenario loss|partition|crash|random] [--seed N]
//!                 [--team N] [--executor event-loop|threaded|both]
//!                 [--out DIR] [--repeat K]
//!                 [--ops-base PORT] [--ops-addrs FILE]
//!
//! `--ops-base PORT` turns on the live telemetry plane: every node
//! binds an ops endpoint at `127.0.0.1:(PORT + rank)` (falling back to
//! an ephemeral port when the fixed one is taken), so an external
//! scraper or `tw-top` can watch the cluster mid-chaos. `--ops-addrs
//! FILE` writes the actual bound addresses (one per line, rank order)
//! once the group has formed — CI's live-smoke step waits on that file
//! before scraping.
//!
//! Exit codes: 0 all guarantees held, 1 a guarantee was violated,
//! 2 usage or I/O error.

use bytes::Bytes;
use std::fmt::Write as _;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_obs::{analyze, Analysis, Recording, TraceSet};
use tw_proto::{Duration, Semantics};
use tw_runtime::{
    ChaosCluster, ChaosOp, ChaosSchedule, ClusterBuilder, ExecutorKind, FaultBudget, LinkPlan,
    OpsSetup, RecorderSetup,
};

const USAGE: &str = "usage: tw-chaos [--scenario loss|partition|crash|random] [--seed N] \
[--team N] [--executor event-loop|threaded|both] [--out DIR] [--repeat K] \
[--ops-base PORT] [--ops-addrs FILE]";

#[derive(Clone)]
struct Opts {
    scenario: String,
    seed: u64,
    team: usize,
    executors: Vec<ExecutorKind>,
    out: std::path::PathBuf,
    repeat: usize,
    /// Base port for per-node ops endpoints; 0 = telemetry plane off.
    ops_base: u16,
    /// Where to write the bound ops addresses after formation.
    ops_addrs: Option<std::path::PathBuf>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        scenario: "random".into(),
        seed: 1,
        team: 5,
        executors: vec![ExecutorKind::EventLoop],
        out: "chaos-out".into(),
        repeat: 1,
        ops_base: 0,
        ops_addrs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--scenario" => {
                let s = val("--scenario")?;
                if !["loss", "partition", "crash", "random"].contains(&s.as_str()) {
                    return Err(format!("unknown scenario {s}"));
                }
                opts.scenario = s;
            }
            "--seed" => opts.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--team" => {
                opts.team = val("--team")?.parse().map_err(|e| format!("--team: {e}"))?;
                if opts.team < 3 || opts.team > 16 {
                    return Err("--team must be in 3..=16".into());
                }
            }
            "--executor" => {
                opts.executors = match val("--executor")?.as_str() {
                    "event-loop" => vec![ExecutorKind::EventLoop],
                    "threaded" => vec![ExecutorKind::Threaded],
                    "both" => vec![ExecutorKind::EventLoop, ExecutorKind::Threaded],
                    other => return Err(format!("unknown executor {other}")),
                };
            }
            "--out" => opts.out = val("--out")?.into(),
            "--ops-base" => {
                opts.ops_base = val("--ops-base")?
                    .parse()
                    .map_err(|e| format!("--ops-base: {e}"))?;
                if opts.ops_base == 0 {
                    return Err("--ops-base must be nonzero".into());
                }
            }
            "--ops-addrs" => opts.ops_addrs = Some(val("--ops-addrs")?.into()),
            "--repeat" => {
                opts.repeat = val("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if opts.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.ops_base as usize + opts.team - 1 > u16::MAX as usize {
        return Err(format!(
            "--ops-base {} leaves rank {} no port",
            opts.ops_base,
            opts.team - 1
        ));
    }
    Ok(opts)
}

/// The budget a named scenario generates its schedule from. Each fixed
/// scenario is a single episode of one fault family; `random` mixes
/// all families over a longer script.
fn scenario_budget(scenario: &str) -> FaultBudget {
    let one_episode = FaultBudget {
        warmup_ms: 2_500,
        duration_ms: 12_000,
        hold_ms: 4_000,
        settle_ms: 4_000,
        episodes: 1,
        loss_plan: LinkPlan::clean(),
        partitions: false,
        crashes: false,
        pauses: false,
    };
    match scenario {
        // ≥10% loss plus duplication and reordering on every link.
        "loss" => FaultBudget {
            loss_plan: LinkPlan {
                drop_ppm: 120_000,
                dup_ppm: 30_000,
                reorder_ppm: 30_000,
                hold_ms: 30,
                ..LinkPlan::clean()
            },
            ..one_episode
        },
        "partition" => FaultBudget {
            partitions: true,
            ..one_episode
        },
        "crash" => FaultBudget {
            crashes: true,
            ..one_episode
        },
        _ => FaultBudget::default(),
    }
}

/// One disruptive interval of the schedule, with the members it
/// disturbs, reconstructed by pairing each fault step with its cleanup.
struct Episode {
    start_ms: u64,
    end_ms: u64,
    /// Ranks cut off / crashed / paused during the interval (empty for
    /// a loss episode, which disturbs links rather than members).
    minority: Vec<usize>,
    is_partition: bool,
    is_crash: bool,
}

fn episodes_of(schedule: &ChaosSchedule) -> Vec<Episode> {
    let mut eps: Vec<Episode> = Vec::new();
    let mut open: Vec<usize> = Vec::new(); // indices into eps
    for step in &schedule.steps {
        match &step.op {
            ChaosOp::Partition(sides) => {
                open.push(eps.len());
                eps.push(Episode {
                    start_ms: step.at_ms,
                    end_ms: u64::MAX,
                    minority: sides
                        .last()
                        .map(|s| s.iter().map(|p| p.rank()).collect())
                        .unwrap_or_default(),
                    is_partition: true,
                    is_crash: false,
                });
            }
            ChaosOp::Crash(p) => {
                open.push(eps.len());
                eps.push(Episode {
                    start_ms: step.at_ms,
                    end_ms: u64::MAX,
                    minority: vec![p.rank()],
                    is_partition: false,
                    is_crash: true,
                });
            }
            ChaosOp::Pause(p) => {
                open.push(eps.len());
                eps.push(Episode {
                    start_ms: step.at_ms,
                    end_ms: u64::MAX,
                    minority: vec![p.rank()],
                    is_partition: false,
                    is_crash: false,
                });
            }
            ChaosOp::SetPlan(plan) if !plan.is_clean() => {
                open.push(eps.len());
                eps.push(Episode {
                    start_ms: step.at_ms,
                    end_ms: u64::MAX,
                    minority: Vec::new(),
                    is_partition: false,
                    is_crash: false,
                });
            }
            ChaosOp::HealAll | ChaosOp::Restart(_) | ChaosOp::Resume(_) => {
                if let Some(i) = open.pop() {
                    eps[i].end_ms = step.at_ms;
                }
            }
            ChaosOp::SetPlan(_) => {
                if let Some(i) = open.pop() {
                    eps[i].end_ms = step.at_ms;
                }
            }
            _ => {}
        }
    }
    eps
}

/// What the in-flight probes observed, folded into booleans.
#[derive(Default)]
struct Probes {
    /// A partition episode ran and some minority member reported
    /// out-of-date by its own clock and watchdog.
    minority_fail_aware: Option<bool>,
    /// During every partition/crash episode the undisturbed majority
    /// installed a view excluding the disturbed members.
    majority_reconfigured: Option<bool>,
}

struct RunOutcome {
    formed: bool,
    reconverged: bool,
    probes: Probes,
    analysis: Option<Analysis>,
}

fn executor_name(kind: ExecutorKind) -> &'static str {
    match kind {
        ExecutorKind::EventLoop => "event-loop",
        ExecutorKind::Threaded => "threaded",
    }
}

/// Execute the schedule against a recorded cluster, probing statuses
/// between steps, then analyze the recordings offline.
fn run_once(
    kind: ExecutorKind,
    cfg: Config,
    schedule: &ChaosSchedule,
    episodes: &[Episode],
    dir: &std::path::Path,
    ops: Option<&OpsSetup>,
    ops_addrs: Option<&std::path::Path>,
) -> Result<RunOutcome, String> {
    let n = cfg.n;
    let setup = RecorderSetup::new(dir).capacity(4096);
    let mut builder = ClusterBuilder::new(cfg).executor(kind).record(&setup);
    if let Some(ops) = ops {
        builder = builder.ops(ops);
    }
    let mut cluster = builder
        .chaos(schedule.seed)
        .map_err(|e| format!("spawn recorded cluster: {e}"))?;

    let mut out = RunOutcome {
        formed: true,
        reconverged: false,
        probes: Probes::default(),
        analysis: None,
    };

    // Formation must precede adversity: every member sees the full view.
    for rank in 0..n {
        let node = cluster.node(rank).expect("freshly spawned");
        if node.wait_for_view(n, StdDuration::from_secs(30)).is_none() {
            out.formed = false;
        }
    }
    if !out.formed {
        cluster.shutdown();
        return Ok(out);
    }

    // The group is up: publish where the ops endpoints actually landed
    // (fixed base ports, or ephemeral fallbacks) so external scrapers
    // can find them mid-run.
    if let Some(path) = ops_addrs {
        let lines: Vec<String> = (0..n)
            .map(|r| {
                cluster
                    .ops_addr(r)
                    .map(|a| a.to_string())
                    .unwrap_or_default()
            })
            .collect();
        std::fs::write(path, lines.join("\n") + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  ops endpoints: {}", lines.join(" "));
    }

    // Sticky per-episode observations, resolved after the run.
    let mut minority_aware = vec![false; episodes.len()];
    let mut majority_shrank = vec![false; episodes.len()];

    let start = Instant::now();
    let mut proposal: u64 = 0;
    let mut last_proposal = Instant::now() - StdDuration::from_secs(1);
    let probe = |cluster: &ChaosCluster,
                 minority_aware: &mut [bool],
                 majority_shrank: &mut [bool],
                 proposal: &mut u64,
                 last_proposal: &mut Instant| {
        let elapsed = start.elapsed().as_millis() as u64;
        // Background traffic so decisions, deliveries and the oal keep
        // moving while faults fire.
        if last_proposal.elapsed() >= StdDuration::from_millis(100) {
            *last_proposal = Instant::now();
            let rank = (*proposal as usize) % cluster.config().n;
            if let Some(node) = cluster.node(rank) {
                node.propose(
                    Bytes::from(format!("chaos-{proposal}")),
                    Semantics::TOTAL_STRONG,
                );
            }
            *proposal += 1;
        }
        for (i, ep) in episodes.iter().enumerate() {
            if elapsed < ep.start_ms || elapsed >= ep.end_ms || ep.minority.is_empty() {
                continue;
            }
            if ep.is_partition {
                for &r in &ep.minority {
                    if let Some(s) = cluster.status(r) {
                        if !s.up_to_date {
                            minority_aware[i] = true;
                        }
                    }
                }
            }
            if ep.is_partition || ep.is_crash {
                let expected = cluster.config().n - ep.minority.len();
                let ok = (0..cluster.config().n)
                    .filter(|r| !ep.minority.contains(r))
                    .all(|r| cluster.status(r).is_some_and(|s| s.view_len == expected));
                if ok {
                    majority_shrank[i] = true;
                }
            }
        }
    };

    for (i, step) in schedule.steps.iter().enumerate() {
        let due = start + StdDuration::from_millis(step.at_ms);
        while Instant::now() < due {
            probe(
                &cluster,
                &mut minority_aware,
                &mut majority_shrank,
                &mut proposal,
                &mut last_proposal,
            );
            std::thread::sleep(StdDuration::from_millis(25));
        }
        println!("  +{:>6}ms {}", step.at_ms, step.op);
        cluster.apply(&step.op, i as u32);
    }

    // Convergence: every member — restarted incarnations included —
    // back in the full view and up to date.
    let deadline = Instant::now() + StdDuration::from_secs(30);
    while Instant::now() < deadline {
        probe(
            &cluster,
            &mut minority_aware,
            &mut majority_shrank,
            &mut proposal,
            &mut last_proposal,
        );
        let good = (0..n).all(|r| {
            cluster
                .status(r)
                .is_some_and(|s| s.up_to_date && s.view_len == n)
        });
        if good {
            out.reconverged = true;
            break;
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }
    // A short quiet tail so post-recovery cycles reach the recordings.
    std::thread::sleep(StdDuration::from_millis(500));

    let partitions: Vec<usize> = (0..episodes.len())
        .filter(|&i| episodes[i].is_partition)
        .collect();
    if !partitions.is_empty() {
        out.probes.minority_fail_aware = Some(partitions.iter().all(|&i| minority_aware[i]));
    }
    let disruptive: Vec<usize> = (0..episodes.len())
        .filter(|&i| episodes[i].is_partition || episodes[i].is_crash)
        .collect();
    if !disruptive.is_empty() {
        out.probes.majority_reconfigured = Some(disruptive.iter().all(|&i| majority_shrank[i]));
    }

    cluster.flush_recorders();
    let paths = cluster.recording_paths();
    cluster.shutdown();

    let recordings = paths
        .iter()
        .map(|p| Recording::load(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<Vec<_>, _>>()?;
    let set = TraceSet::new(recordings)?;
    out.analysis = Some(analyze(&set));
    Ok(out)
}

/// Render the verdict: deterministic fields only (no wall-clock
/// timings, no probabilistic fault counts), stable order, so equal
/// seeds yield byte-identical files.
#[allow(clippy::too_many_arguments)]
fn verdict_json(
    opts: &Opts,
    kind: ExecutorKind,
    schedule: &ChaosSchedule,
    envelope: Duration,
    max_disturbed: usize,
    outcome: &RunOutcome,
    checks: &[(&str, Option<bool>)],
    pass: bool,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"tool\": \"tw-chaos\",");
    let _ = writeln!(s, "  \"scenario\": \"{}\",", opts.scenario);
    let _ = writeln!(s, "  \"seed\": {},", schedule.seed);
    let _ = writeln!(s, "  \"team\": {},", opts.team);
    let _ = writeln!(s, "  \"executor\": \"{}\",", executor_name(kind));
    let _ = writeln!(
        s,
        "  \"fingerprint\": \"{:#018x}\",",
        schedule.fingerprint()
    );
    let _ = writeln!(s, "  \"recovery_envelope_us\": {},", envelope.as_micros());
    let _ = writeln!(s, "  \"max_disturbed\": {max_disturbed},");
    let _ = writeln!(s, "  \"schedule\": [");
    for (i, step) in schedule.steps.iter().enumerate() {
        let comma = if i + 1 == schedule.steps.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(s, "    \"+{}ms {}\"{comma}", step.at_ms, step.op);
    }
    let _ = writeln!(s, "  ],");
    let faults: Vec<String> = outcome
        .analysis
        .as_ref()
        .map(|a| a.faults.keys().map(|k| format!("\"{k}\"")).collect())
        .unwrap_or_default();
    let _ = writeln!(s, "  \"fault_kinds_traced\": [{}],", faults.join(", "));
    let _ = writeln!(s, "  \"guarantees\": {{");
    for (i, (name, val)) in checks.iter().enumerate() {
        let comma = if i + 1 == checks.len() { "" } else { "," };
        let v = match val {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(s, "    \"{name}\": {v}{comma}");
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"verdict\": \"{}\"",
        if pass { "pass" } else { "fail" }
    );
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tw-chaos: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let cfg = Config::for_team(opts.team, Duration::from_millis(10));
    let budget = scenario_budget(&opts.scenario);
    let schedule = ChaosSchedule::generate(opts.seed, opts.team, &budget);
    if schedule.steps.is_empty() {
        eprintln!("tw-chaos: empty schedule (team too small for the scenario?)");
        std::process::exit(2);
    }
    let episodes = episodes_of(&schedule);
    let max_disturbed = episodes
        .iter()
        .map(|e| e.minority.len().max(1))
        .max()
        .unwrap_or(1);
    let envelope = cfg.recovery_envelope();

    println!(
        "tw-chaos scenario={} seed={} team={} fingerprint={:#018x}",
        opts.scenario,
        opts.seed,
        opts.team,
        schedule.fingerprint()
    );
    print!("{}", schedule.describe());

    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("tw-chaos: create {}: {e}", opts.out.display());
        std::process::exit(2);
    }

    let mut all_pass = true;
    for &kind in &opts.executors {
        let mut first_verdict: Option<String> = None;
        for rep in 0..opts.repeat {
            let dir = opts.out.join(format!(
                "{}-{}-rep{rep}",
                opts.scenario,
                executor_name(kind)
            ));
            println!(
                "== run scenario={} executor={} rep={rep} ==",
                opts.scenario,
                executor_name(kind)
            );
            let ops = (opts.ops_base != 0).then(|| OpsSetup::at(opts.ops_base));
            let outcome = match run_once(
                kind,
                cfg,
                &schedule,
                &episodes,
                &dir,
                ops.as_ref(),
                opts.ops_addrs.as_deref(),
            ) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("tw-chaos: {e}");
                    std::process::exit(2);
                }
            };

            // Envelope check: every completed recovery span fits the
            // §4.2 bound, scaled by the simultaneously disturbed count
            // (each disturbed member costs one detection + ring round).
            let allowed = envelope * max_disturbed as i64;
            let analysis = outcome.analysis.as_ref();
            let recovery_within = analysis.map(|a| {
                a.recoveries
                    .iter()
                    .filter_map(|r| r.total())
                    .all(|t| t <= allowed)
            });
            let spans_completed = if episodes.iter().any(|e| e.is_partition || e.is_crash) {
                Some(analysis.is_some_and(|a| a.recoveries.iter().any(|r| r.total().is_some())))
            } else {
                None
            };
            let audits_clean = analysis.map(|a| a.audits_clean());
            let faults_traced = analysis.map(|a| !a.faults.is_empty());

            let checks: Vec<(&str, Option<bool>)> = vec![
                ("formed", Some(outcome.formed)),
                ("minority_fail_aware", outcome.probes.minority_fail_aware),
                (
                    "majority_reconfigured",
                    outcome.probes.majority_reconfigured,
                ),
                ("reconverged", Some(outcome.reconverged)),
                ("recovery_spans_completed", spans_completed),
                ("recovery_within_envelope", recovery_within),
                ("audits_clean", audits_clean),
                ("faults_traced", faults_traced),
            ];
            let pass = checks.iter().all(|(_, v)| *v != Some(false));
            for (name, val) in &checks {
                let shown = match val {
                    Some(b) => b.to_string(),
                    None => "n/a".into(),
                };
                println!("  {name:<26} {shown}");
            }
            if let Some(a) = analysis {
                if !a.audit.is_empty() || !a.cross.is_empty() {
                    for v in a.audit.iter().chain(a.cross.iter()) {
                        eprintln!("  audit violation: {v:?}");
                    }
                }
            }

            let verdict = verdict_json(
                &opts,
                kind,
                &schedule,
                envelope,
                max_disturbed,
                &outcome,
                &checks,
                pass,
            );
            let vpath = dir.join("verdict.json");
            if let Err(e) = std::fs::write(&vpath, &verdict) {
                eprintln!("tw-chaos: write {}: {e}", vpath.display());
                std::process::exit(2);
            }
            println!(
                "  verdict {} -> {}",
                if pass { "PASS" } else { "FAIL" },
                vpath.display()
            );
            all_pass &= pass;

            // Same seed, same schedule, same guarantees: the verdict
            // must be byte-identical across repeats.
            match &first_verdict {
                None => first_verdict = Some(verdict),
                Some(first) if *first == verdict => {
                    println!("  verdict identical to rep0 (deterministic)");
                }
                Some(_) => {
                    eprintln!("tw-chaos: verdict differs from rep0 — determinism violated");
                    all_pass = false;
                }
            }
        }
    }
    std::process::exit(if all_pass { 0 } else { 1 });
}
