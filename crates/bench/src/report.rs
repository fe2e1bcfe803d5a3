//! Plain-text result tables for the experiment binaries.
//!
//! The harness prints aligned text tables (one per experiment), so every
//! table can be regenerated with a single `cargo run` per experiment. Every
//! experiment binary also persists a machine-readable [`BenchRecord`]
//! (`BENCH_<experiment>.json`, under `$SUU_BENCH_DIR` or
//! `target/bench-reports/`) so the performance trajectory of the repository
//! can be tracked across commits.

use std::path::PathBuf;
use std::time::Duration;

use serde::Serialize;

/// A simple column-aligned table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table title (experiment id + what it shows).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, already formatted as strings.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (e.g. the paper's claim).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (cells are formatted by the caller).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(widths.iter())
            .map(|(h, w)| format!("{h:<w$}"))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Renders the table as a JSON object.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (cannot happen for string cells).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serialises")
    }
}

/// A machine-readable record of one experiment run: the experiment name,
/// wall-clock time, and every result table (headers carry the instance
/// sizes and makespan-ratio columns the experiment reports).
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// Experiment identifier; the file is named `BENCH_<experiment>.json`.
    pub experiment: String,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_clock_secs: f64,
    /// The result tables (title, headers, rows, notes).
    pub tables: Vec<Table>,
}

impl BenchRecord {
    /// Renders the record as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialisation fails (cannot happen for string cells).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("record serialises")
    }

    /// Writes `BENCH_<experiment>.json` into [`bench_output_dir`], creating
    /// the directory as needed. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        self.save_to(&bench_output_dir())
    }

    /// Writes `BENCH_<experiment>.json` into an explicit directory (used by
    /// tests, which must not route configuration through process-global
    /// environment variables).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Where benchmark records are written: `$SUU_BENCH_DIR` when set, otherwise
/// `target/bench-reports/` relative to the working directory.
#[must_use]
pub fn bench_output_dir() -> PathBuf {
    std::env::var_os("SUU_BENCH_DIR")
        .map_or_else(|| PathBuf::from("target/bench-reports"), PathBuf::from)
}

/// Saves a [`BenchRecord`] for `experiment`, logging instead of failing when
/// the filesystem is unavailable (experiment binaries should still print
/// their tables on a read-only checkout).
pub fn save_bench_record(experiment: &str, tables: &[&Table], elapsed: Duration) {
    let record = BenchRecord {
        experiment: experiment.to_string(),
        wall_clock_secs: elapsed.as_secs_f64(),
        tables: tables.iter().map(|t| (*t).clone()).collect(),
    };
    match record.save() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write BENCH_{experiment}.json: {err}"),
    }
}

/// Formats a float with two decimal places.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio `a / b`, guarding against a zero denominator.
#[must_use]
pub fn ratio(a: f64, b: f64) -> String {
    if b <= 0.0 {
        "inf".to_string()
    } else {
        format!("{:.2}", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_notes() {
        let mut t = Table::new("E0: demo", &["n", "value"]);
        t.push_row(vec!["4".into(), "1.25".into()]);
        t.push_row(vec!["1024".into(), "17.50".into()]);
        t.push_note("paper claim: O(log n)");
        let text = t.render();
        assert!(text.contains("== E0: demo =="));
        assert!(text.contains("1024"));
        assert!(text.contains("note: paper claim"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_must_match() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn json_rendering_contains_rows() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["x".into()]);
        let json = t.to_json();
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"x\""));
    }

    #[test]
    fn helpers_format_numbers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(ratio(4.0, 2.0), "2.00");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn bench_record_serialises_with_experiment_and_timing() {
        let mut t = Table::new("E0: demo", &["n", "ratio"]);
        t.push_row(vec!["16".into(), "1.40".into()]);
        let record = BenchRecord {
            experiment: "demo".to_string(),
            wall_clock_secs: 1.25,
            tables: vec![t],
        };
        let json = record.to_json();
        assert!(json.contains("\"experiment\": \"demo\""));
        assert!(json.contains("\"wall_clock_secs\": 1.25"));
        assert!(json.contains("\"ratio\""));
        assert!(json.contains("\"1.40\""));
    }

    #[test]
    fn bench_record_saves_under_an_explicit_dir() {
        let dir = std::env::temp_dir().join(format!("suu-bench-test-{}", std::process::id()));
        let record = BenchRecord {
            experiment: "save_test".to_string(),
            wall_clock_secs: 0.5,
            tables: vec![Table::new("t", &["a"])],
        };
        let path = record.save_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_save_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("save_test"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
