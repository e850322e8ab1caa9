//! `compare`: are two sets of results within the benchmark's bounds?
//!
//! For every workload × end-to-end metric the baseline's median is set
//! against the candidate's. The pair is *inside* the bound, *outside*
//! it, or *unresolved* because runs of the same code already differ by
//! more than the bound — then the metric cannot tell a regression from
//! noise, and saying "unchanged" would be wrong.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{judge, median, worse_by, Verdict};

/// workload → metric → values, from a results file's lines.
type Table = Vec<(String, String, Vec<f64>)>;

/// The text right after `"key": ` in `line`.
fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))?;
    Some(line[at + key.len() + 3..].trim_start())
}

fn number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// Parse the untraced records of a results file (one JSON object per
/// line, as `--out` writes them).
fn parse(text: &str) -> Table {
    let mut table: Table = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"trace\": 0")) {
        let Some(workload) = after(line, "workload")
            .and_then(|w| w.strip_prefix('"'))
            .and_then(|w| w.split('"').next())
        else {
            continue;
        };
        for m in &END_TO_END {
            let value = after(line, m.name)
                .and_then(|obj| after(obj, "value"))
                .and_then(number);
            let Some(value) = value else { continue };
            match table
                .iter_mut()
                .find(|(w, n, _)| w == workload && n == m.name)
            {
                Some((_, _, values)) => values.push(value),
                None => table.push((workload.to_string(), m.name.to_string(), vec![value])),
            }
        }
    }
    table
}

fn values<'a>(table: &'a Table, workload: &str, metric: &str) -> &'a [f64] {
    table
        .iter()
        .find(|(w, m, _)| w == workload && m == metric)
        .map_or(&[], |(_, _, v)| v.as_slice())
}

/// Print the verdict table; returns how many pairs were outside and how
/// many unresolved. With `same_code` the two sets are runs of one
/// program, so their own difference is the noise.
fn report(baseline: &Table, candidate: &Table, same_code: bool) -> (usize, usize) {
    let (mut outside, mut unresolved) = (0, 0);
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                median(values(baseline, workload, m.name)),
                median(values(candidate, workload, m.name)),
            ) else {
                continue;
            };
            let runs = values(baseline, workload, m.name);
            let noise = if same_code {
                worse_by(a, b, m.better).abs()
            } else if runs.len() >= 2 {
                let max = runs.iter().copied().fold(f64::MIN, f64::max);
                let min = runs.iter().copied().fold(f64::MAX, f64::min);
                (max - min) / a.abs()
            } else {
                0.0
            };
            let verdict = judge(a, b, m.better, m.bound, noise);
            match verdict {
                Verdict::Inside => {}
                Verdict::Outside => outside += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            println!(
                "{workload:<12} {:<22} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%  {}",
                m.name,
                100.0 * worse_by(a, b, m.better),
                100.0 * m.bound,
                verdict.as_str()
            );
        }
    }
    println!("{outside} outside, {unresolved} unresolved");
    (outside, unresolved)
}

fn read(path: &str) -> Table {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Run the untraced suite in a process of its own (as every other run
/// of the benchmark is: a second suite in this process would find the
/// allocator warm and set up faster) and return what it wrote.
fn suite_in_child(args: &[String], n: usize) -> Option<Table> {
    let out = crate::out_dir().join(format!("twice-{n}.txt"));
    std::fs::create_dir_all(crate::out_dir()).ok()?;
    let status = std::process::Command::new(std::env::current_exe().ok()?)
        .args(args)
        .args(["--trace", "0", "--out"])
        .arg(&out)
        .status()
        .ok()?;
    status.success().then(|| read(&out.to_string_lossy()))
}

/// Entry point of the `compare` subcommand; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let (baseline, candidate, same_code) = if args.first().map(String::as_str) == Some("--twice") {
        let (Some(first), Some(second)) =
            (suite_in_child(&args[1..], 1), suite_in_child(&args[1..], 2))
        else {
            eprintln!("a suite run failed");
            return 1;
        };
        (first, second, true)
    } else if let [a, b] = args {
        (read(a), read(b), false)
    } else {
        crate::usage();
    };
    let (outside, unresolved) = report(&baseline, &candidate, same_code);
    i32::from(outside + unresolved > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"workload\": \"udp_flood\", \"trace\": 0, \"seed\": 42, \"correct\": true, \
        \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.65, \"unit\": \"s\"}, \
        \"delivered_per_s\": {\"value\": 19000.5, \"unit\": \"1/s\"}, \
        \"deliver_p50_ms\": {\"value\": 7.5e-1, \"unit\": \"ms\"}}}";

    #[test]
    fn parses_what_the_suite_writes() {
        let traced = LINE.replace("\"trace\": 0", "\"trace\": 1");
        let table = parse(&format!("{LINE}\n{traced}\n{LINE}\n"));
        assert_eq!(values(&table, "udp_flood", "setup_s"), &[0.65, 0.65]);
        assert_eq!(
            values(&table, "udp_flood", "delivered_per_s"),
            &[19000.5, 19000.5]
        );
        assert_eq!(values(&table, "udp_flood", "deliver_p50_ms"), &[0.75, 0.75]);
        assert!(values(&table, "udp_flood", "deliver_p99_ms").is_empty());
        assert!(values(&table, "sim_crash", "setup_s").is_empty());
    }

    #[test]
    fn verdicts_count_outside_and_unresolved() {
        let base = parse(LINE);
        // 40 % fewer deliveries per second: outside the 25 % bound.
        let slow = parse(&LINE.replace("19000.5", "11400.3"));
        assert_eq!(report(&base, &slow, false), (1, 0));
        assert_eq!(report(&base, &base, false), (0, 0));
        // The same pair as two runs of one program: unresolved.
        assert_eq!(report(&base, &slow, true), (0, 1));
    }
}
