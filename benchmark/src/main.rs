//! The timewheel benchmark: one offline command that prices an update
//! end to end and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! tw-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!              [--trace 0|1|both] [--quick] [--out FILE]
//! tw-benchmark compare BASELINE CANDIDATE
//! tw-benchmark compare --twice [--seed N] [--seconds S] [--quick]
//! ```
//!
//! With `--workload NAME --trace 0|1` (the form the acceptance driver
//! uses) the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod clock;
mod common;
mod compare;
mod ladder;
mod live;
mod metrics;
mod procfs;
mod simw;
mod spans;
mod stats;
mod verify;

use common::{Outcome, Params};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 42;
/// Seconds each workload measures when none are given.
const DEFAULT_SECONDS: f64 = 10.0;

/// Where a traced run writes its spans.
fn trace_path(workload: &str) -> std::path::PathBuf {
    out_dir().join(format!("trace-{workload}.json"))
}

/// Write a traced run's spans to `out/trace-<workload>.json`. The file
/// is an extra: failing to write it is noted, not fatal.
pub fn write_trace(spans: &spans::Spans, workload: &str, out: &mut Outcome) {
    let path = trace_path(workload);
    match spans.write_json(&path, workload) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// `benchmark/out/`, next to this package's manifest: inside the
/// checkout wherever that is.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One finished run of one workload in one mode.
pub struct Record {
    pub workload: &'static str,
    pub trace: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit — complete for the mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of layers the workload does not exercise:
    /// in `metrics` as 0, left out of the printed report.
    idle: Vec<&'static str>,
}

impl Record {
    /// The result object the acceptance driver reads.
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The same with the run's identity, one line of a results file.
    pub fn file_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, {}",
            self.workload,
            u8::from(self.trace),
            self.seed,
            &self.result_json()[1..]
        )
    }
}

fn run_workload(name: &str, p: &Params) -> Option<(&'static str, Outcome)> {
    let (name, _) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
    let outcome = match *name {
        "ladder_weak" => ladder::ladder_weak(p),
        "udp_flood" => live::udp_flood(p),
        "udp_ordered" => live::udp_ordered(p),
        "sim_ordered" => simw::sim_ordered(p),
        "sim_crash" => simw::sim_crash(p),
        _ => unreachable!("every table entry has a runner"),
    };
    Some((name, outcome))
}

/// Run one workload in one mode, print its report, and complete its
/// metric list for the mode.
pub fn run(name: &str, p: &Params) -> Option<Record> {
    let (workload, mut outcome) = run_workload(name, p)?;
    let mut metrics = Vec::new();
    let mut idle = Vec::new();
    if p.trace {
        for m in &PER_LAYER {
            match outcome.metrics.iter().find(|(n, _)| *n == m.name) {
                // Measured.
                Some((_, Some(v))) if v.is_finite() => metrics.push((m.name, *v, m.unit)),
                // Could not be measured here: left out, not zero.
                Some(_) => {}
                // A layer this workload does not exercise did no work.
                None => {
                    metrics.push((m.name, 0.0, m.unit));
                    idle.push(m.name);
                }
            }
        }
    } else {
        for m in &END_TO_END {
            match outcome.get(m.name) {
                Some(v) if v.is_finite() => metrics.push((m.name, v, m.unit)),
                _ => outcome
                    .violations
                    .push(format!("end-to-end metric {} was not measured", m.name)),
            }
        }
    }
    if outcome.attempted == 0 {
        outcome.violations.push("no update was attempted".into());
    }
    let record = Record {
        workload,
        trace: p.trace,
        seed: p.seed,
        correct: outcome.violations.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        idle,
    };
    print_report(&record, p, &outcome);
    Some(record)
}

fn print_report(r: &Record, p: &Params, outcome: &Outcome) {
    println!(
        "== {} (seed {}, {} s, {}) ==",
        r.workload,
        r.seed,
        p.seconds,
        if r.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for (name, value, unit) in r.metrics.iter().filter(|m| !r.idle.contains(&m.0)) {
        let (better, bound) = match metrics::end_to_end(name) {
            Some(m) => (m.better, format!(", may worsen by {} %", m.bound * 100.0)),
            None => (
                metrics::per_layer(name).expect("a table entry").better,
                String::new(),
            ),
        };
        println!(
            "  {name:<34} {value:>16.4} {unit:<6} {} is better{bound}",
            better.as_str()
        );
    }
    if !r.idle.is_empty() {
        println!(
            "  ({} metrics of layers this workload does not exercise read 0)",
            r.idle.len()
        );
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    println!(
        "  attempted {}, failed {}, verifier {}",
        r.attempted,
        r.failed,
        if r.correct {
            "clean"
        } else {
            "FOUND VIOLATIONS"
        }
    );
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
}

struct Args {
    workload: String,
    params: Params,
    /// `Some(traced)` for one mode, `None` for both.
    trace: Option<bool>,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tw-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|both] [--quick] [--out FILE]\n\
         \x20      tw-benchmark compare BASELINE CANDIDATE\n\
         \x20      tw-benchmark compare --twice [--seed N] [--seconds S] [--quick]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: "all".into(),
        params: Params {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
        },
        trace: None,
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => parsed.workload = value(),
            "--seed" => parsed.params.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    "both" => None,
                    _ => usage(),
                }
            }
            "--quick" => parsed.params.quick = true,
            "--out" => parsed.out = Some(value()),
            _ => usage(),
        }
    }
    // A quick run is a tenth as long unless told otherwise.
    let default = DEFAULT_SECONDS / if parsed.params.quick { 10.0 } else { 1.0 };
    parsed.params.seconds = seconds.unwrap_or(default);
    parsed
}

/// Run the chosen workloads and modes; the records in run order.
pub fn run_suite(workload: &str, params: &Params, trace: Option<bool>) -> Vec<Record> {
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![workload]
    };
    let modes: &[bool] = match trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut records = Vec::new();
    for name in names {
        for &traced in modes {
            let p = Params {
                trace: traced,
                ..*params
            };
            match run(name, &p) {
                Some(r) => records.push(r),
                None => usage(),
            }
        }
    }
    records
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let args = parse(&args);
    let records = run_suite(&args.workload, &args.params, args.trace);
    if let Some(path) = &args.out {
        let text: String = records.iter().map(|r| r.file_line() + "\n").collect();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    let all_correct = records.iter().all(|r| r.correct);
    match records.as_slice() {
        // The driver's form: one workload, one mode, one result line.
        [only] => println!("{}", only.result_json()),
        many => {
            for r in many {
                println!("{}", r.file_line());
            }
        }
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}
