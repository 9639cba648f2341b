//! Plain-text and CSV rendering of exploration results.

use crate::pareto::ScatterPoint;
use cfp_ir::WordSet;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded or truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render as CSV (no quoting — cells are plain identifiers/numbers).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ncols = self.header.len();
        let mut width = vec![0_usize; ncols];
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let line = |row: &[String], f: &mut std::fmt::Formatter<'_>| {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{c:>w$}", w = width[i])?;
            }
            writeln!(f)
        };
        line(&self.header, f)?;
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            line(r, f)?;
        }
        Ok(())
    }
}

/// Render a cost/speedup scatter as ASCII art (cost on x, speedup on y),
/// with frontier points drawn as `#` and the rest as `*`.
#[must_use]
pub fn ascii_scatter(
    points: &[ScatterPoint],
    frontier: &[usize],
    width: usize,
    height: usize,
) -> String {
    if points.is_empty() {
        return String::from("(no points)\n");
    }
    let max_cost = points.iter().map(|p| p.cost).fold(1.0_f64, f64::max);
    let max_su = points.iter().map(|p| p.speedup).fold(1.0_f64, f64::max);
    let mut grid = vec![vec![' '; width]; height];
    let on_frontier: WordSet<usize> = frontier.iter().copied().collect();
    for (i, p) in points.iter().enumerate() {
        let x = ((p.cost / max_cost) * (width as f64 - 1.0)).round() as usize;
        let y = ((p.speedup / max_su) * (height as f64 - 1.0)).round() as usize;
        let row = height - 1 - y.min(height - 1);
        let col = x.min(width - 1);
        let mark = if on_frontier.contains(&i) { '#' } else { '*' };
        // Frontier marks win over plain ones.
        if grid[row][col] != '#' {
            grid[row][col] = mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("speedup (max {max_su:.2})\n"));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str(&format!("> cost (max {max_cost:.1})\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_machine::ArchSpec;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]).row(["long-name", "22"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[2].ends_with('1'));
        assert_eq!(t.to_csv(), "name,value\na,1\nlong-name,22\n");
    }

    #[test]
    fn scatter_renders_marks() {
        let p = |cost: f64, su: f64| ScatterPoint {
            spec: ArchSpec::baseline(),
            cost,
            speedup: su,
        };
        let pts = vec![p(1.0, 1.0), p(5.0, 3.0), p(10.0, 2.0)];
        let art = ascii_scatter(&pts, &[0, 1], 20, 10);
        assert!(art.contains('#'));
        assert!(art.contains('*'));
        assert!(art.contains("max 3.00"));
    }
}
