//! Shared machinery for the experiment binaries (`src/bin/exp_*`).
//!
//! Each binary regenerates one table or figure of EXPERIMENTS.md: it runs
//! the scenario on the deterministic simulator (or the real runtime, for
//! T7), aggregates over several seeds, and prints an aligned table plus a
//! machine-readable JSON line per row (`--json` filterable with grep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use timewheel::harness::{all_in_group, run_until_pred, team_world, SimMember, TeamParams};
use tw_proto::ProcessId;
use tw_sim::{SimTime, World};

/// A simulated team world.
pub type TeamWorld = World<SimMember>;

/// Aligned console table with JSON side-channel.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Print the table, aligned, followed by one JSON object per row.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
        for row in &self.rows {
            println!("JSON {}", json_object(&self.headers, row));
        }
    }
}

/// One row as a JSON object of string fields, keys sorted — hand-built,
/// same discipline as `tw_obs::metrics::Snapshot::to_json` (no serde for
/// output), so every experiment binary builds offline.
fn json_object(headers: &[String], row: &[String]) -> String {
    let fields: std::collections::BTreeMap<&String, &String> = headers.iter().zip(row).collect();
    let mut out = String::from("{");
    for (i, (h, c)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        tw_obs::metrics::push_json_str(&mut out, h);
        out.push(':');
        tw_obs::metrics::push_json_str(&mut out, c);
    }
    out + "}"
}

/// Median of a set of samples (ms, latencies, …).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Mean of a set of samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// p-th percentile (0..=100) of a set of samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() - 1) as f64 * p / 100.0).round() as usize;
    samples[idx]
}

/// Build a team world and run it until the initial group has formed.
/// Returns the world and the formation time.
pub fn formed_team(params: &TeamParams) -> (TeamWorld, SimTime) {
    let mut w = team_world(params);
    let t = run_until_pred(&mut w, SimTime::from_secs(240), |w| {
        all_in_group(w, params.n)
    })
    .expect("initial group formation");
    (w, t)
}

/// The live members currently in failure-free state with views of the
/// given size.
pub fn members_in_group(w: &TeamWorld, size: usize) -> usize {
    (0..w.len())
        .filter(|&i| {
            let p = ProcessId(i as u16);
            w.status(p) == tw_sim::ProcessStatus::Up && {
                let m = w.actor(p).member();
                m.state() == timewheel::CreatorState::FailureFree && m.view().len() == size
            }
        })
        .count()
}

/// Milliseconds between two simulation instants.
pub fn ms(later: SimTime, earlier: SimTime) -> f64 {
    (later - earlier).as_micros() as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        let mut s = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut s), 3.0);
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut s), 2.5);
        let mut s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&mut s, 99.0), 99.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_rows_are_sorted_and_escaped() {
        let headers = ["b".to_string(), "a\"q".to_string()];
        let row = ["x\\y".to_string(), "1\n".to_string()];
        assert_eq!(
            json_object(&headers, &row),
            r#"{"a\"q":"1\u000a","b":"x\\y"}"#
        );
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.print("smoke");
    }

    #[test]
    fn formed_team_smoke() {
        let (w, t) = formed_team(&TeamParams::new(3));
        assert!(t > SimTime::ZERO);
        assert_eq!(members_in_group(&w, 3), 3);
    }
}
