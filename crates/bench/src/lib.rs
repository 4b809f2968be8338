//! Shared harness for the figure/table generators and `dmfb bench`.
//!
//! Every experiment in the paper's evaluation section has a binary in
//! `src/bin/` that regenerates the corresponding table or figure as text,
//! printing paper-expected values next to measured ones. This library holds
//! the pieces they share: experiment parameter sets, plain-text table
//! rendering, and the machine-readable [`BenchReport`] JSON format
//! (`BENCH_*.json`) that `dmfb bench --json` emits and CI archives.

mod compare;
pub mod json;
mod report;

pub use compare::{
    compare, CompareOutcome, EntryDelta, LatencyDelta, DEFAULT_REGRESSION_THRESHOLD,
};
pub use report::{BenchEntry, BenchReport, BENCH_SCHEMA};

use std::fmt::Write as _;

/// The survival probabilities swept by Figures 7 and 9 (the paper plots
/// roughly the 0.90–1.00 range where yields are meaningfully distinct).
pub const FIG7_9_SURVIVAL_GRID: [f64; 11] = [
    0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.00,
];

/// The wider survival grid used by the Figure 10 effective-yield curves,
/// where the low-`p` regime is what separates the designs: DTMB(4,4) only
/// pulls ahead once cell survival drops well below 0.8.
pub const FIG10_SURVIVAL_GRID: [f64; 16] = [
    0.70, 0.72, 0.74, 0.76, 0.78, 0.80, 0.82, 0.84, 0.86, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98, 1.00,
];

/// Primary-cell counts plotted in Figures 7 and 9.
pub const FIG7_9_ARRAY_SIZES: [usize; 3] = [60, 120, 240];

/// Monte-Carlo trials per data point, per the paper ("After 10000
/// simulation runs ...").
pub const PAPER_TRIALS: u32 = 10_000;

/// Master seed used by all figure generators, so the printed numbers are
/// reproducible and match `EXPERIMENTS.md`.
pub const FIGURE_SEED: u64 = 0xDA7E_2005_u64;

/// A minimal plain-text table renderer for figure output.
///
/// # Example
///
/// ```
/// use dmfb_bench::TextTable;
///
/// let mut t = TextTable::new(vec!["p".into(), "yield".into()]);
/// t.row(vec!["0.95".into(), "0.4690".into()]);
/// let s = t.render();
/// assert!(s.contains("yield"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with blanks;
    /// longer rows are allowed and extend the width bookkeeping.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |row: &[String], widths: &[usize], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:>w$}  ", w = w);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total.max(4)));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xx".into(), "y".into()]);
        t.row(vec!["1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn constants_sane() {
        assert!(FIG7_9_SURVIVAL_GRID.windows(2).all(|w| w[0] < w[1]));
        assert!(FIG10_SURVIVAL_GRID.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(PAPER_TRIALS, 10_000);
    }
}
