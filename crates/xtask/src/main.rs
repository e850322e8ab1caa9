//! `cargo xtask` — repo automation entry point.

use std::process::ExitCode;
use xtask::{concurrency, lint};

const USAGE: &str = "\
cargo xtask <command>

Commands:
  lint [--all]      run the determinism lint over the protocol crates
                    (tw-proto, timewheel, tw-clock, tw-sim); exit 1 on findings.
                    --all also runs the concurrency lint
  lint-concurrency  run the lock-order / blocking-call / unsafe-surface
                    analysis over tw-runtime and tw-obs; exit 1 on findings
  explore [args..]  build and run the exhaustive schedule explorer
                    (forwards args to `cargo run --release -p timewheel --bin explore`)
  help              show this message

Lint escape hatch: `// tw-lint: allow(<rule>) -- <justification>` on the
line of (or above) a finding; `allow-file(<rule>)` for a whole file.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(args.iter().any(|a| a == "--all")),
        Some("lint-concurrency") => run_lint_concurrency(),
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

fn run_lint(all: bool) -> ExitCode {
    let root = lint::repo_root();
    let mut findings = match lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tw-lint: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut dirs: Vec<&str> = lint::SCOPED_DIRS.to_vec();
    let mut rules = lint::RULES.len();
    if all {
        match concurrency::lint_workspace(&root) {
            Ok(f) => findings.extend(f),
            Err(e) => {
                eprintln!("tw-lint: I/O error: {e}");
                return ExitCode::FAILURE;
            }
        }
        for d in concurrency::SCOPED_DIRS {
            if !dirs.contains(d) {
                dirs.push(d);
            }
        }
        rules += concurrency::CONCURRENCY_RULES.len();
    }
    let scope = dirs.join(", ");
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    findings.dedup();
    report("tw-lint", rules, &scope, &findings)
}

fn run_lint_concurrency() -> ExitCode {
    let root = lint::repo_root();
    match concurrency::lint_workspace(&root) {
        Ok(findings) => report(
            "tw-lint-concurrency",
            concurrency::CONCURRENCY_RULES.len(),
            &concurrency::SCOPED_DIRS.join(", "),
            &findings,
        ),
        Err(e) => {
            eprintln!("tw-lint-concurrency: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report(pass: &str, rules: usize, scope: &str, findings: &[lint::Finding]) -> ExitCode {
    if findings.is_empty() {
        println!("{pass}: clean ({rules} rules over {scope})");
        ExitCode::SUCCESS
    } else {
        for f in findings {
            println!("{f}");
        }
        println!("\n{pass}: {} finding(s)", findings.len());
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
