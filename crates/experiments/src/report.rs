//! Result tables: the common output format of every experiment harness.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// One value in a result table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text (benchmark names, configuration labels).
    Text(String),
    /// Integer quantity.
    Int(i64),
    /// Floating-point quantity with a display precision.
    Float {
        /// The value.
        value: f64,
        /// Digits after the decimal point when rendered.
        precision: u8,
    },
}

impl Cell {
    /// A float cell with the given precision.
    pub fn f(value: f64, precision: u8) -> Cell {
        Cell::Float { value, precision }
    }

    /// The numeric value, if this cell is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Cell::Text(_) => None,
            Cell::Int(v) => Some(*v as f64),
            Cell::Float { value, .. } => Some(*value),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float { value, precision } => {
                write!(f, "{value:.*}", *precision as usize)
            }
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Cell {
        Cell::Int(v)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Cell {
        Cell::Int(v as i64)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as i64)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v as i64)
    }
}

/// A labelled result table corresponding to one paper artifact (or one
/// panel of it).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier, e.g. `"fig03-xgene2"`.
    pub id: String,
    /// Human title, e.g. `"Figure 3 — safe Vmin (X-Gene 2)"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {} in table {}",
            row.len(),
            self.headers.len(),
            self.id
        );
        self.rows.push(row);
    }

    /// Looks up a row by the text in its first column.
    pub fn row_by_label(&self, label: &str) -> Option<&[Cell]> {
        self.rows
            .iter()
            .find(|r| matches!(r.first(), Some(Cell::Text(s)) if s == label))
            .map(|r| r.as_slice())
    }

    /// The numeric value at `(row_label, column_header)`, if present.
    pub fn value(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.headers.iter().position(|h| h == column)?;
        self.row_by_label(row_label)?.get(col)?.as_f64()
    }

    /// All numeric values of a column, skipping non-numeric cells.
    pub fn column(&self, column: &str) -> Vec<f64> {
        let Some(col) = self.headers.iter().position(|h| h == column) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|r| r.get(col)?.as_f64())
            .collect()
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(
                &row.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push_str(" |\n");
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self
            .headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| escape(&c.to_string()))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `dir/<id>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or file.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        f.write_all(self.to_csv().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t1", "Sample", &["name", "value", "pct"]);
        t.push_row(vec!["alpha".into(), Cell::Int(3), Cell::f(12.345, 1)]);
        t.push_row(vec!["beta".into(), Cell::Int(-1), Cell::f(0.5, 2)]);
        t
    }

    #[test]
    fn lookup_by_label_and_column() {
        let t = sample();
        assert_eq!(t.value("alpha", "value"), Some(3.0));
        assert_eq!(t.value("beta", "pct"), Some(0.5));
        assert_eq!(t.value("gamma", "pct"), None);
        assert_eq!(t.value("alpha", "nope"), None);
        assert_eq!(t.column("value"), vec![3.0, -1.0]);
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### Sample"));
        assert!(md.contains("| name | value | pct |"));
        assert!(md.contains("| alpha | 3 | 12.3 |"));
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut t = Table::new("t2", "X", &["a", "b"]);
        t.push_row(vec!["with,comma".into(), Cell::Int(1)]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\",1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("t3", "X", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_precision_renders() {
        assert_eq!(Cell::f(1.23456, 3).to_string(), "1.235");
        assert_eq!(Cell::f(2.0, 0).to_string(), "2");
    }
}
