//! Shared helpers for the benchmark harness.
//!
//! The `experiments` binary (`cargo run -p huge-bench --release --bin
//! experiments -- <exp> [--scale S]`) regenerates every table and figure of
//! the paper's evaluation section at laptop scale (micro-benchmark figures
//! — cache designs, intersection kernels, planning time, operator throughput
//! — come from the perf ledger in `bench/`). This library holds the glue the
//! experiments share: dataset construction, query parsing and plain-text
//! table rendering.

use huge_core::report::RunReport;
use huge_graph::{Dataset, DatasetKind, Graph};
use huge_query::{Pattern, QueryGraph};

/// Default scale multiplier: keeps every experiment under a few minutes.
pub const DEFAULT_SCALE: f64 = 0.08;

/// Builds a dataset at the given scale: a real edge list from
/// `HUGE_DATASET_DIR` when one is available, else the synthetic stand-in.
pub fn load_dataset(kind: DatasetKind, scale: f64) -> Graph {
    Dataset::new(kind).scaled(scale).load()
}

/// Builds the query graph for a paper query index (1..=8).
pub fn paper_query(i: usize) -> QueryGraph {
    Pattern::paper(i)
        .unwrap_or_else(|| panic!("q{i} is not defined"))
        .query_graph()
}

/// A minimal fixed-width table printer for experiment output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have the same number of cells as the header).
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<w$} | ", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push_str(&format!(
            "|{}\n",
            widths
                .iter()
                .map(|w| format!("{}-|", "-".repeat(w + 2)))
                .collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count in mebibytes.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// CPU seconds (user + system) this process has used so far, read from
/// `/proc/self/stat`, or `None` where that file does not exist. Linux counts
/// them in `USER_HZ` ticks, which its ABI fixes at 100 per second.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the fields after its `)` do not.
    // `utime` and `stime` are the 12th and 13th of those.
    let mut fields = stat.get(stat.rfind(')')? + 2..)?.split(' ');
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Summarises a run report as the row the paper's Table 1 uses:
/// `T, T_R, T_C, C (MiB), M (MiB)`.
pub fn table1_row(report: &RunReport) -> Vec<String> {
    vec![
        secs(report.total_time()),
        secs(report.compute_time),
        secs(report.comm_time),
        mib(report.comm_bytes),
        mib(report.peak_memory_bytes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_is_aligned() {
        let mut t = TextTable::new(vec!["system", "T(s)"]);
        t.add_row(vec!["HUGE", "1.0"]);
        t.add_row(vec!["BiGJoin", "10.0"]);
        let text = t.render();
        assert!(text.contains("HUGE"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(1024 * 1024), "1.00");
    }

    #[test]
    fn dataset_and_query_loading() {
        let g = load_dataset(DatasetKind::Go, 0.02);
        assert!(g.num_vertices() > 0);
        let q = paper_query(1);
        assert_eq!(q.num_vertices(), 4);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn process_cpu_time_is_read_and_grows() {
        let before = process_cpu_seconds().expect("/proc/self/stat parses");
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(200) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds().unwrap() > before);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only-one"]);
    }
}
