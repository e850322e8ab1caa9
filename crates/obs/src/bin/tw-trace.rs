//! `tw-trace` — offline analyzer for timewheel flight recordings.
//!
//! Loads N per-node `.twrec` files (written by
//! `tw_obs::recorder::FlightRecorder`), aligns them on the synchronized
//! clock, reconstructs protocol spans, and reports:
//!
//! * an ASCII global timeline of the merged event stream;
//! * per-phase latency attribution (decision propagation, each hop of a
//!   single-failure recovery, reconfiguration) with p50/p95/p99;
//! * an offline audit of the merged stream — the history checker
//!   (`tw_obs::audit`, the one a live cluster and the simulator run)
//!   plus ε-causality of decision spans;
//! * every completed recovery span over the §4.2 envelope the
//!   recordings' headers carry (`Analysis::over_envelope`).
//!
//! ```text
//! tw-trace [FLAGS] <recording>...
//!   --no-timeline          skip the ASCII timeline
//!   --deliveries           include Delivered events in the timeline
//!   --max-rows N           timeline row cap (default 200)
//!   --json PATH            also write a machine-readable report
//! ```
//!
//! Exit status: 0 clean, 1 violations or a recovery over its envelope,
//! 2 usage / unreadable input.

// tw-lint: allow-file(actor-io) -- tw-trace is the offline analyzer CLI: it
// exists to read recording files and print a report; it never runs inside an
// actor.

use std::process::ExitCode;
use tw_obs::analyze::{analyze, render_timeline, Analysis, TimelineOptions};
use tw_obs::recording::Recording;
use tw_obs::TraceSet;

const USAGE: &str =
    "usage: tw-trace [--no-timeline] [--deliveries] [--max-rows N] [--json PATH] <recording>...";

struct Options {
    timeline: bool,
    deliveries: bool,
    max_rows: usize,
    json: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        timeline: true,
        deliveries: false,
        max_rows: 200,
        json: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(str::to_owned)
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--no-timeline" => opts.timeline = false,
            "--deliveries" => opts.deliveries = true,
            "--max-rows" => {
                opts.max_rows = value("--max-rows")?
                    .parse()
                    .map_err(|_| "--max-rows needs an integer".to_string())?;
            }
            "--json" => opts.json = Some(value("--json")?),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.files.is_empty() {
        return Err("no recordings given".into());
    }
    Ok(opts)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn report_json(analysis: &Analysis, recordings: &[Recording], failures: &[String]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"team\":{},\"epsilon_us\":{},\"recovery_envelope_us\":{},\"events\":{},\"dropped\":{},",
        analysis.team,
        analysis.epsilon.as_micros(),
        analysis.recovery_envelope.as_micros(),
        analysis.merged.len(),
        analysis.dropped
    ));
    out.push_str("\"recordings\":[");
    for (i, r) in recordings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"pid\":{},\"events\":{},\"intact_segments\":{},\"damage\":{}}}",
            r.header.pid.0,
            r.events.len(),
            r.intact_segments,
            match &r.damage {
                Some(d) => format!("\"{}\"", json_escape(&d.to_string())),
                None => "null".into(),
            }
        ));
    }
    out.push_str("],\"recoveries\":[");
    for (i, r) in analysis.recoveries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"suspect\":{},\"hops\":{},\"installs\":{},\"rescued\":{},\"total_us\":{}}}",
            r.suspect.0,
            r.hops.len(),
            r.installs.len(),
            r.rescue.is_some(),
            match r.total() {
                Some(d) => d.as_micros().to_string(),
                None => "null".into(),
            }
        ));
    }
    out.push_str(&format!(
        "],\"decisions\":{},\"reconfigs\":{},",
        analysis.decisions.len(),
        analysis.reconfigs.len()
    ));
    out.push_str("\"faults\":{");
    for (i, (kind, count)) in analysis.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{kind}\":{count}"));
    }
    out.push_str("},");
    out.push_str("\"violations\":[");
    for (i, v) in analysis.audit.iter().chain(&analysis.cross).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"check\":\"{}\",\"message\":\"{}\"}}",
            json_escape(v.check),
            json_escape(&v.message)
        ));
    }
    out.push_str("],\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json_escape(f)));
    }
    out.push_str("],\"latencies\":");
    out.push_str(&analysis.latencies.to_json());
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("tw-trace: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut recordings = Vec::new();
    for file in &opts.files {
        match Recording::load(file) {
            Ok(r) => {
                if let Some(d) = &r.damage {
                    eprintln!(
                        "tw-trace: {file}: {d}; kept {} events from {} intact segments",
                        r.events.len(),
                        r.intact_segments
                    );
                }
                recordings.push(r);
            }
            Err(e) => {
                eprintln!("tw-trace: {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let set = match TraceSet::new(recordings) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("tw-trace: {e}");
            return ExitCode::from(2);
        }
    };

    let analysis = analyze(&set);

    println!(
        "tw-trace: {} recordings · team {} · ε {} · recovery envelope {} · {} events merged ({} dropped)",
        set.recordings.len(),
        analysis.team,
        analysis.epsilon,
        analysis.recovery_envelope,
        analysis.merged.len(),
        analysis.dropped
    );

    if opts.timeline {
        println!();
        print!(
            "{}",
            render_timeline(
                &analysis.merged,
                analysis.team,
                TimelineOptions {
                    deliveries: opts.deliveries,
                    max_rows: opts.max_rows,
                },
            )
        );
    }

    println!();
    for d in &analysis.decisions {
        println!(
            "decision: {} sent ts {} in view {}.{} → {} receives",
            d.sender,
            d.send_ts,
            d.view.seq,
            d.view.creator,
            d.receives.len()
        );
    }
    for r in &analysis.recoveries {
        match (&r.rescue, r.total()) {
            (Some((by, _)), _) => println!(
                "recovery: suspect {} (first raised by {}) — wrong suspicion, rescued by {by}",
                r.suspect, r.first_suspicion.0
            ),
            (None, Some(total)) => {
                println!(
                    "recovery: suspect {} (first raised by {}) — {} hops, {} installs, total {}",
                    r.suspect,
                    r.first_suspicion.0,
                    r.hops.len(),
                    r.installs.len(),
                    total
                );
                for h in &r.hops {
                    println!("  hop {} at +{} (cost {})", h.pid, h.at, h.cost);
                }
            }
            (None, None) => println!(
                "recovery: suspect {} (first raised by {}) — incomplete ({} hops, {} installs)",
                r.suspect,
                r.first_suspicion.0,
                r.hops.len(),
                r.installs.len()
            ),
        }
    }
    for r in &analysis.reconfigs {
        println!(
            "reconfig: first slot by {} — {} slot messages, {} installs, total {}",
            r.first_slot.0,
            r.slots,
            r.installs.len(),
            match r.total() {
                Some(d) => d.to_string(),
                None => "incomplete".into(),
            }
        );
    }

    if !analysis.faults.is_empty() {
        let summary: Vec<String> = analysis
            .faults
            .iter()
            .map(|(kind, count)| format!("{kind}×{count}"))
            .collect();
        println!();
        println!(
            "adversarial run: {} injected faults ({})",
            analysis.faults.values().sum::<u64>(),
            summary.join(", ")
        );
    }

    println!();
    println!("latencies: {}", analysis.latencies.to_json());

    let mut failures: Vec<String> = Vec::new();
    for v in analysis.audit.iter().chain(&analysis.cross) {
        failures.push(v.to_string());
    }
    for r in analysis.over_envelope() {
        failures.push(format!(
            "recovery of {} took {} — over the recorded {} envelope",
            r.suspect,
            r.total().expect("only completed spans are judged"),
            analysis.recovery_envelope
        ));
    }

    if let Some(path) = &opts.json {
        let json = report_json(&analysis, &set.recordings, &failures);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("tw-trace: writing {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }

    if failures.is_empty() {
        println!("offline audit: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("offline audit: {} failure(s)", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}
