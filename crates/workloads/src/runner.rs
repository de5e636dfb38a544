//! Small utilities shared by the paper's experiments: wall-clock timing,
//! human-readable unit formatting and plain-text table rendering in the style
//! of the paper's tables.

use std::time::{Duration, Instant};

/// Runs `f`, returning its result together with the elapsed wall-clock time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Formats a duration with an adaptive unit (µs, ms, s) as the paper's plots
/// do.
pub fn format_duration(d: Duration) -> String {
    let micros = d.as_secs_f64() * 1e6;
    if micros < 1_000.0 {
        format!("{micros:.1} µs")
    } else if micros < 1_000_000.0 {
        format!("{:.2} ms", micros / 1_000.0)
    } else {
        format!("{:.2} s", d.as_secs_f64())
    }
}

/// Formats a byte count with an adaptive unit (B, KB, MB, GB).
pub fn format_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KB {
        format!("{bytes} B")
    } else if b < KB * KB {
        format!("{:.1} KB", b / KB)
    } else if b < KB * KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else {
        format!("{:.2} GB", b / (KB * KB * KB))
    }
}

/// A simple fixed-column text table, printed with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells must match the header.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..columns {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1))
        ));
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to standard output.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_execution() {
        // No wall-clock lower bounds tied to sleeps: those are flaky under
        // scheduler noise. Check that the closure's value is returned, that
        // the reported duration is contained in an enclosing measurement
        // (monotonicity), and that measurable work yields a non-zero
        // duration.
        let outer_start = Instant::now();
        let (value, elapsed) = time(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        let outer_elapsed = outer_start.elapsed();
        assert_eq!(value, (0..100_000u64).sum::<u64>());
        assert!(
            elapsed <= outer_elapsed,
            "inner {elapsed:?} > outer {outer_elapsed:?}"
        );
        assert!(elapsed > Duration::ZERO, "real work must take time");
    }

    #[test]
    fn duration_formatting_uses_adaptive_units() {
        assert!(format_duration(Duration::from_micros(12)).contains("µs"));
        assert!(format_duration(Duration::from_millis(12)).contains("ms"));
        assert!(format_duration(Duration::from_secs(2)).contains(" s"));
    }

    #[test]
    fn byte_formatting_uses_adaptive_units() {
        assert_eq!(format_bytes(100), "100 B");
        assert!(format_bytes(4 * 1024).contains("KB"));
        assert!(format_bytes(3 * 1024 * 1024).contains("MB"));
        assert!(format_bytes(5 * 1024 * 1024 * 1024).contains("GB"));
    }

    #[test]
    fn table_renders_aligned_rows() {
        let mut table = Table::new("Example", &["graph", "time"]);
        table.add_row(vec!["AD".into(), "0.7 s".into()]);
        table.add_row(vec!["Web-NotreDame".into(), "33.1 s".into()]);
        let text = table.render();
        assert!(text.contains("== Example =="));
        assert!(text.contains("graph"));
        assert!(text.contains("Web-NotreDame"));
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut table = Table::new("Example", &["a", "b"]);
        table.add_row(vec!["only one".into()]);
    }
}
