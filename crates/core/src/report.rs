//! Report emission for the `repro` experiments (one per paper
//! table/figure): plain-text table rendering plus the [`Report`] every
//! experiment routes its text and JSON/CSV artifacts through.

use std::io::Write;
use std::path::Path;

/// A rendered table: header plus rows of equal arity.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a normalized value with three decimals.
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

/// Where one experiment's output goes: its text into `writer` (stdout,
/// a `<name>.txt` file, or a `Vec<u8>` in tests), its machine-readable
/// artifacts (`*.json` / `*.csv`) under `artifact_dir` when one is given.
///
/// `write!` / `writeln!` work on a `Report` directly. The experiment
/// bodies do not handle I/O errors line by line: the first one is kept,
/// later output is dropped, and [`Report::finish`] returns it.
pub struct Report<'a> {
    writer: &'a mut dyn Write,
    artifact_dir: Option<&'a Path>,
    error: Option<std::io::Error>,
}

impl<'a> Report<'a> {
    /// Report into `writer`; artifacts are written only when
    /// `artifact_dir` is given.
    pub fn new(writer: &'a mut dyn Write, artifact_dir: Option<&'a Path>) -> Self {
        Report { writer, artifact_dir, error: None }
    }

    /// The target of `write!(report, ..)` / `writeln!(report, ..)`.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = self.writer.write_fmt(args).err();
        }
    }

    /// Emit a rendered table followed by a blank line.
    pub fn table(&mut self, table: &TextTable) {
        self.write_fmt(format_args!("{}\n", table.render()));
    }

    /// Write a named machine-readable artifact under the artifact
    /// directory; without one the contents are dropped. `name` is a
    /// relative file name whose extension declares the format.
    pub fn artifact(&mut self, name: &str, contents: &str) {
        let Some(dir) = self.artifact_dir else { return };
        if self.error.is_none() {
            let path = dir.join(name);
            match std::fs::write(&path, contents) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Flush the writer and return the first I/O error met, if any.
    pub fn finish(mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.writer.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn report_text_lands_in_the_writer_and_artifacts_only_under_a_dir() {
        let dir = std::env::temp_dir().join(format!("abft-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let mut t = TextTable::new(&["k", "v"]);
        t.row(&["a".into(), "1".into()]);
        let emit = |artifact_dir: Option<&Path>| {
            let mut text = Vec::new();
            let mut report = Report::new(&mut text, artifact_dir);
            report.table(&t);
            writeln!(report, "caveat {}", 7);
            report.artifact("cells.csv", "a,b\n1,2\n");
            report.finish().expect("no I/O error");
            String::from_utf8(text).expect("utf-8")
        };

        let text = emit(None);
        assert_eq!(text, format!("{}\ncaveat 7\n", t.render()));
        assert!(!Path::new("cells.csv").exists(), "no dir, no file");

        assert_eq!(emit(Some(&dir)), text, "the artifact dir does not change the text");
        let art = std::fs::read_to_string(dir.join("cells.csv")).expect("artifact exists");
        assert_eq!(art, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_keeps_the_first_io_error_for_finish() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut full = Full;
        let mut report = Report::new(&mut full, None);
        writeln!(report, "lost");
        writeln!(report, "also lost");
        assert_eq!(report.finish().expect_err("write failed").to_string(), "disk full");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(norm(1.23456), "1.235");
    }
}
