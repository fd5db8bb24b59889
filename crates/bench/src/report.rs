//! Harness output: aligned text tables and the `BENCH_*.json` reports.
//!
//! Every experiment prints the same rows/series the corresponding paper
//! table or figure reports, in an aligned text table that is also easy to
//! grep/awk into a plot. Experiments that archive their numbers build one
//! [`JsonObject`] document and hand it to [`write_json`].

use planar_core::JsonObject;

/// An aligned text table built row by row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render and print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Write `BENCH_<experiment>.json` into the working directory and log the
/// path. `fill` adds the experiment's fields to a document whose first
/// field, `experiment`, already names it.
pub fn write_json(experiment: &str, fill: impl FnOnce(JsonObject) -> JsonObject) {
    let doc = fill(JsonObject::new().field_str("experiment", experiment)).finish();
    let path = format!("BENCH_{experiment}.json");
    match std::fs::write(&path, doc + "\n") {
        Ok(()) => eprintln!("[harness] wrote {path}"),
        Err(e) => eprintln!("[harness] could not write {path}: {e}"),
    }
}

/// CPUs available to this process. Reports record it so a speedup
/// measured on a small host is not misread as an engine limitation.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a ratio as `N.Nx`.
pub fn speedup(baseline: f64, ours: f64) -> String {
    if ours <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.1}x", baseline / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_header"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(250.0), "250");
        assert_eq!(ms(2.5), "2.50");
        assert_eq!(ms(0.01), "0.0100");
        assert_eq!(pct(99.95), "100.0"); // rounds to one decimal
        assert_eq!(speedup(100.0, 10.0), "10.0x");
        assert_eq!(speedup(1.0, 0.0), "inf");
    }
}
