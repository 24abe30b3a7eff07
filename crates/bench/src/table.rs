//! Minimal markdown table builder for experiment outputs.

use std::fmt::Display;

/// A markdown table accumulated row by row.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Columns `s` occupies on screen: its characters, minus combining marks
/// (U+0300–U+036F — the hat of `δ̂`), which draw over the one before.
fn display_width(s: &str) -> usize {
    let combining = |c: &char| ('\u{300}'..='\u{36f}').contains(c);
    s.chars().filter(|c| !combining(c)).count()
}

impl Table {
    /// Creates a table with a title line and its column names, written as
    /// one `", "`-separated list.
    pub fn new(title: &str, header: &str) -> Self {
        Table {
            title: title.to_string(),
            header: header.split(", ").map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| display_width(h)).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(display_width(c));
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {}{c} |", " ".repeat(w - display_width(c))));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        // `δ̂` is two chars and four bytes in one column; `√g` two columns
        // in four bytes. Every line must come out equally wide.
        let mut t = Table::new("demo", "a, bbbb, δ̂, √g");
        t.row(&[&1, &2, &16, &f2(1.5)]);
        let s = t.render();
        assert_eq!(
            s,
            "### demo\n\n\
             | a | bbbb |  δ̂ |   √g |\n\
             |---|------|----|------|\n\
             | 1 |    2 | 16 | 1.50 |\n"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new("demo", "a");
        t.row(&[&1, &2]);
    }
}
