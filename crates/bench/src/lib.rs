//! The paper's experiments ([`experiments::ALL`], run by the
//! `experiments` binary and checked against EXPERIMENTS.md by
//! `cargo test`) and what they share with the reported-only binaries
//! (`src/bin/`): an aligned table and a few sample statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use tw_sim::SimTime;

/// Aligned console table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers, separated by
    /// whitespace.
    pub fn new(headers: &str) -> Self {
        Table {
            headers: headers.split_whitespace().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// The table under its title, each column padded to its widest cell,
    /// after a blank line.
    pub fn render(&self, title: &str) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            padded.join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = format!("\n== {title} ==\n{}{rule}\n", line(&self.headers));
        for row in &self.rows {
            out += &line(row);
        }
        out
    }
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
    fn table_pads_every_column_to_its_widest_cell() {
        let mut t = Table::new("a bb");
        t.row(&["123".into(), "2".into()]);
        assert_eq!(
            t.render("smoke"),
            "\n== smoke ==\na    bb\n-------\n123  2 \n"
        );
    }
}
