//! `tw-top` — live cluster telemetry viewer over the per-node ops plane.
//!
//! Attaches to N nodes' ops endpoints (`tw_obs::server::OpsServer`,
//! spawned by `tw-runtime`'s `ClusterBuilder::ops`), scrapes `/healthz`,
//! `/status` and `/metrics`, and renders one row per node: the member's own §6
//! fail-awareness verdict next to the runtime's self-observation
//! signals (tick lag, inbox depth, recorder backlog, mmsg batch fill).
//!
//! ```text
//! tw-top [FLAGS] <addr>...
//!   --interval-ms N   refresh period (default 1000)
//!   --timeout-ms N    per-request socket timeout (default 500)
//!   --once            one snapshot, then exit (CI mode)
//!   --json            with --once: emit a JSON array instead of a table
//! ```
//!
//! Exit status (with `--once`): 0 when every node answered, 1 when any
//! was unreachable, 2 on usage errors. Without `--once` it refreshes
//! until interrupted, showing unreachable nodes as `down`.

// tw-lint: allow-file(actor-io) -- tw-top is an operator CLI: its whole job
// is TCP scraping and terminal output; it never runs inside an actor.

use std::process::ExitCode;
use std::time::Duration;
use tw_obs::http_get;

const USAGE: &str = "usage: tw-top [--interval-ms N] [--timeout-ms N] [--once] [--json] <addr>...";

struct Options {
    interval: Duration,
    timeout: Duration,
    once: bool,
    json: bool,
    addrs: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        interval: Duration::from_millis(1000),
        timeout: Duration::from_millis(500),
        once: false,
        json: false,
        addrs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| "--interval-ms: not a number")?;
                opts.interval = Duration::from_millis(ms.max(10));
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| "--timeout-ms: not a number")?;
                opts.timeout = Duration::from_millis(ms.max(1));
            }
            "--once" => opts.once = true,
            "--json" => opts.json = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            addr => opts.addrs.push(addr.to_string()),
        }
    }
    if opts.addrs.is_empty() {
        return Err("no node addresses given".to_string());
    }
    if opts.json && !opts.once {
        return Err("--json requires --once".to_string());
    }
    Ok(opts)
}

/// What one scrape of one node yielded.
struct NodeSample {
    addr: String,
    reachable: bool,
    healthy: bool,
    /// The raw `/status` JSON body (empty when unreachable).
    status: String,
    /// The raw `/metrics` exposition (empty when unreachable).
    metrics: String,
}

fn scrape(addr: &str, timeout: Duration) -> NodeSample {
    let health = http_get(addr, "/healthz", timeout);
    let status = http_get(addr, "/status", timeout);
    let metrics = http_get(addr, "/metrics", timeout);
    match (health, status, metrics) {
        (Ok((hc, _)), Ok((200, sb)), Ok((200, mb))) => NodeSample {
            addr: addr.to_string(),
            reachable: true,
            healthy: hc == 200,
            status: sb,
            metrics: mb,
        },
        _ => NodeSample {
            addr: addr.to_string(),
            reachable: false,
            healthy: false,
            status: String::new(),
            metrics: String::new(),
        },
    }
}

/// Pull `"key":<integer>` out of a flat JSON object (the `/status`
/// payload is produced by our own server; no general parser needed).
fn json_i64(body: &str, key: &str) -> Option<i64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of the (single) sample of `name` in an exposition text:
/// a line `name 3` or `name{pid="0"} 3`. Comments don't match; names
/// that are prefixes of longer names don't match.
fn metric_value(text: &str, name: &str) -> Option<i64> {
    for line in text.lines() {
        if !line.starts_with(name) {
            continue;
        }
        let rest = &line[name.len()..];
        let after_labels = if let Some(r) = rest.strip_prefix('{') {
            match r.find('}') {
                Some(i) => &r[i + 1..],
                None => continue,
            }
        } else {
            rest
        };
        if let Some(v) = after_labels.strip_prefix(' ') {
            if let Ok(n) = v.trim().parse() {
                return Some(n);
            }
        }
    }
    None
}

/// The p95 upper bound of a histogram, read from its cumulative
/// `_bucket` lines (ascending `le` order as rendered): the smallest
/// bucket bound covering ≥95% of the count, as its `le` string
/// (`"+Inf"` when the tail spills past the last finite bound).
fn hist_p95(text: &str, name: &str) -> Option<String> {
    let total = metric_value(text, &format!("{name}_count"))?;
    if total == 0 {
        return Some("-".to_string());
    }
    let target = (total * 95 + 99) / 100;
    let bucket = format!("{name}_bucket");
    for line in text.lines() {
        if !line.starts_with(bucket.as_str()) {
            continue;
        }
        let le = line
            .find("le=\"")
            .map(|i| &line[i + 4..])
            .and_then(|r| r.find('"').map(|j| &r[..j]))?;
        let cum: i64 = line.rsplit(' ').next()?.parse().ok()?;
        if cum >= target {
            return Some(le.to_string());
        }
    }
    None
}

/// Fields tw-top surfaces per node; every entry is (label, metric kind).
fn row(sample: &NodeSample) -> Vec<String> {
    if !sample.reachable {
        let mut r = vec![sample.addr.clone(), "down".to_string()];
        r.extend(vec!["-".to_string(); HEADERS.len() - 2]);
        return r;
    }
    let s = &sample.status;
    let m = &sample.metrics;
    let int = |v: Option<i64>| v.map_or("-".to_string(), |n| n.to_string());
    vec![
        sample.addr.clone(),
        if sample.healthy { "ok" } else { "lagging" }.to_string(),
        json_i64(s, "view_len").map_or("-".to_string(), |n| {
            format!("{n}@{}", json_i64(s, "view_seq").unwrap_or(0))
        }),
        int(metric_value(m, "deliveries_total")),
        int(metric_value(m, "views_installed_total")),
        int(metric_value(m, "tw_inbox_depth")),
        int(metric_value(m, "tw_inbox_dropped_total")),
        int(metric_value(m, "tw_recorder_buffered")),
        int(metric_value(m, "tw_mmsg_batch_fill")),
        hist_p95(m, "tick_lag_us").unwrap_or_else(|| "-".to_string()),
        hist_p95(m, "dispatch_latency_us").unwrap_or_else(|| "-".to_string()),
    ]
}

const HEADERS: [&str; 11] = [
    "ADDR",
    "HEALTH",
    "VIEW",
    "DELIV",
    "VIEWS",
    "INBOX",
    "SHED",
    "RECBUF",
    "BATCH",
    "TICKLAG_P95",
    "DISP_P95",
];

fn render_table(samples: &[NodeSample]) -> String {
    let rows: Vec<Vec<String>> = samples.iter().map(row).collect();
    let mut widths: Vec<usize> = HEADERS.iter().map(|h| h.len()).collect();
    for r in &rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header: Vec<String> = HEADERS.iter().map(|h| h.to_string()).collect();
    let mut out = fmt_row(&header);
    for r in &rows {
        out.push('\n');
        out.push_str(&fmt_row(r));
    }
    out
}

/// Machine form for CI: `/status` is embedded verbatim (it is already
/// JSON from our own server), the selected metrics as integers.
fn render_json(samples: &[NodeSample]) -> String {
    let mut out = String::from("[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let int = |name: &str| {
            metric_value(&s.metrics, name).map_or("null".to_string(), |n| n.to_string())
        };
        out.push_str(&format!(
            "{{\"addr\":\"{}\",\"reachable\":{},\"healthy\":{},\"status\":{},\
             \"deliveries\":{},\"views_installed\":{},\"inbox_depth\":{},\
             \"inbox_dropped\":{},\"recorder_buffered\":{},\"batch_fill\":{}}}",
            s.addr,
            s.reachable,
            s.healthy,
            if s.status.is_empty() {
                "null"
            } else {
                &s.status
            },
            int("deliveries_total"),
            int("views_installed_total"),
            int("tw_inbox_depth"),
            int("tw_inbox_dropped_total"),
            int("tw_recorder_buffered"),
            int("tw_mmsg_batch_fill"),
        ));
    }
    out.push(']');
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tw-top: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    use std::io::Write as _;
    loop {
        let samples: Vec<NodeSample> = opts.addrs.iter().map(|a| scrape(a, opts.timeout)).collect();
        if opts.once {
            let body = if opts.json {
                render_json(&samples)
            } else {
                render_table(&samples)
            };
            // Tolerate a closed pipe (`tw-top --once --json | head`):
            // truncated output is the reader's choice, not an error.
            let _ = writeln!(std::io::stdout(), "{body}");
            return if samples.iter().all(|s| s.reachable) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            };
        }
        // Clear + home, then the fresh table (plain ANSI, no TUI deps).
        let mut stdout = std::io::stdout();
        if writeln!(stdout, "\x1b[2J\x1b[H{}", render_table(&samples)).is_err() {
            // Live mode into a pipe that went away: stop redrawing.
            return ExitCode::SUCCESS;
        }
        let _ = stdout.flush();
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = "\
# HELP deliveries_total counter `deliveries`\n\
# TYPE deliveries_total counter\n\
deliveries_total{pid=\"0\"} 42\n\
# TYPE tw_inbox_depth gauge\n\
tw_inbox_depth{pid=\"0\"} -3\n\
# TYPE tick_lag_us histogram\n\
tick_lag_us_bucket{pid=\"0\",le=\"100\"} 10\n\
tick_lag_us_bucket{pid=\"0\",le=\"1000\"} 19\n\
tick_lag_us_bucket{pid=\"0\",le=\"+Inf\"} 20\n\
tick_lag_us_sum{pid=\"0\"} 5000\n\
tick_lag_us_count{pid=\"0\"} 20\n";

    #[test]
    fn metric_value_reads_labeled_samples_not_comments() {
        assert_eq!(metric_value(METRICS, "deliveries_total"), Some(42));
        assert_eq!(metric_value(METRICS, "tw_inbox_depth"), Some(-3));
        assert_eq!(metric_value(METRICS, "missing"), None);
    }

    #[test]
    fn p95_picks_the_covering_bucket() {
        // ceil(20 * 0.95) = 19, cumulative 19 is reached at le=1000.
        assert_eq!(hist_p95(METRICS, "tick_lag_us").as_deref(), Some("1000"));
    }

    #[test]
    fn status_json_fields_parse() {
        let body = "{\"pid\":3,\"up_to_date\":true,\"view_len\":5,\"view_seq\":12}";
        assert_eq!(json_i64(body, "view_len"), Some(5));
        assert_eq!(json_i64(body, "view_seq"), Some(12));
        assert_eq!(json_i64(body, "absent"), None);
    }

    #[test]
    fn json_snapshot_marks_unreachable_nodes() {
        let samples = vec![NodeSample {
            addr: "127.0.0.1:1".to_string(),
            reachable: false,
            healthy: false,
            status: String::new(),
            metrics: String::new(),
        }];
        let j = render_json(&samples);
        assert!(j.contains("\"reachable\":false"), "{j}");
        assert!(j.contains("\"status\":null"), "{j}");
    }
}
