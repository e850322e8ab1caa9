//! `cargo xtask` — repo automation entry point.

use std::process::ExitCode;
use xtask::{concurrency, lint};

const USAGE: &str = "\
cargo xtask <command>

Commands:
  lint              run the determinism lint over the protocol crates
                    (tw-proto, timewheel, tw-clock, tw-sim) and the
                    lock-order / blocking-call / unsafe-surface analysis
                    over tw-runtime and tw-obs; exit 1 on findings
  explore [args..]  build and run the exhaustive schedule explorer
                    (forwards args to `cargo run --release -p timewheel --bin explore`)
  help              show this message

Lint escape hatch: `// tw-lint: allow(<rule>) -- <justification>` on the
line of (or above) a finding; `allow-file(<rule>)` for a whole file.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("explore") => run_explore(&args[1..]),
        Some("help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint() -> ExitCode {
    let root = lint::repo_root();
    let findings = lint::lint_workspace(&root).and_then(|mut findings| {
        findings.extend(concurrency::lint_workspace(&root)?);
        Ok(findings)
    });
    let mut findings = match findings {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tw-lint: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut dirs: Vec<&str> = lint::SCOPED_DIRS.to_vec();
    for d in concurrency::SCOPED_DIRS {
        if !dirs.contains(d) {
            dirs.push(d);
        }
    }
    let rules = lint::RULES.len() + concurrency::CONCURRENCY_RULES.len();
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    findings.dedup();
    if findings.is_empty() {
        println!("tw-lint: clean ({rules} rules over {})", dirs.join(", "));
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("\ntw-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn run_explore(args: &[String]) -> ExitCode {
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(lint::repo_root())
        .args([
            "run",
            "--release",
            "-p",
            "timewheel",
            "--bin",
            "explore",
            "--",
        ])
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask explore: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
