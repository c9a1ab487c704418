//! On-disk dataset format shared by the CLI subcommands.

use mmdr_json::Value;
use mmdr_linalg::Matrix;

/// A dataset file: dimensionality plus row-major points. JSON keeps the
/// tooling dependency-free and diffable; at CLI scales (≤ a few hundred
/// thousand points) file sizes stay manageable.
pub struct DatasetFile {
    /// Dimensionality of every row.
    pub dim: usize,
    /// Points, one row each.
    pub rows: Vec<Vec<f64>>,
}

impl DatasetFile {
    /// Wraps a matrix.
    pub fn from_matrix(m: &Matrix) -> Self {
        Self {
            dim: m.cols(),
            rows: m.iter_rows().map(|r| r.to_vec()).collect(),
        }
    }

    /// Converts to a matrix, validating row widths.
    pub fn into_matrix(self) -> Result<Matrix, String> {
        if self.rows.is_empty() {
            return Err("dataset has no rows".into());
        }
        if self.rows.iter().any(|r| r.len() != self.dim) {
            return Err("dataset row width disagrees with dim".into());
        }
        Matrix::from_rows(&self.rows).map_err(|e| e.to_string())
    }

    /// Reads a dataset file.
    pub fn load(path: &str) -> Result<Matrix, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = mmdr_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let dim = doc
            .get("dim")
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("{path}: missing or invalid `dim`"))?;
        let rows = doc
            .get("rows")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: missing or invalid `rows`"))?
            .iter()
            .map(Value::as_f64_vec)
            .collect::<Option<Vec<Vec<f64>>>>()
            .ok_or_else(|| format!("{path}: non-numeric row entry"))?;
        DatasetFile { dim, rows }.into_matrix()
    }

    /// Writes a dataset file.
    pub fn save(path: &str, m: &Matrix) -> Result<(), String> {
        let file = Self::from_matrix(m);
        let json = Value::object(vec![
            ("dim", file.dim.into()),
            (
                "rows",
                Value::Array(file.rows.into_iter().map(Value::from).collect()),
            ),
        ])
        .to_json();
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses CSV text (comma-separated floats, one point per line; blank
    /// lines skipped; a non-numeric first line is treated as a header). A
    /// cell that parses to infinity or NaN is refused on any line, the
    /// first included: a dataset holds finite coordinates only.
    pub fn parse_csv(text: &str) -> Result<Matrix, String> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut row = Vec::new();
            let mut unparsed = None;
            for cell in line.split(',').map(str::trim) {
                match cell.parse::<f64>() {
                    Ok(x) if x.is_finite() => row.push(x),
                    Ok(_) => return Err(format!("line {}: non-finite value `{cell}`", lineno + 1)),
                    Err(e) => drop(unparsed.get_or_insert(e)),
                }
            }
            match unparsed {
                None => rows.push(row),
                Some(_) if lineno == 0 => continue, // header line
                Some(e) => return Err(format!("line {}: {e}", lineno + 1)),
            }
        }
        if rows.is_empty() {
            return Err("CSV contains no data rows".into());
        }
        let dim = rows[0].len();
        if rows.iter().any(|r| r.len() != dim) {
            return Err("CSV rows have inconsistent widths".into());
        }
        Matrix::from_rows(&rows).map_err(|e| e.to_string())
    }

    /// Renders a matrix as CSV (no header).
    pub fn to_csv(m: &Matrix) -> String {
        let mut out = String::new();
        for row in m.iter_rows() {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let file = DatasetFile::from_matrix(&m);
        let back = file.into_matrix().unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn validates() {
        let bad = DatasetFile {
            dim: 3,
            rows: vec![vec![1.0, 2.0]],
        };
        assert!(bad.into_matrix().is_err());
        let empty = DatasetFile {
            dim: 2,
            rows: vec![],
        };
        assert!(empty.into_matrix().is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.5, -2.0], vec![0.25, 3.0]]).unwrap();
        let csv = DatasetFile::to_csv(&m);
        let back = DatasetFile::parse_csv(&csv).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn csv_header_and_blank_lines() {
        let text = "x,y\n1.0, 2.0\n\n3.0,4.0\n";
        let m = DatasetFile::parse_csv(text).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn csv_errors() {
        assert!(DatasetFile::parse_csv("").is_err());
        assert!(DatasetFile::parse_csv("header only\n").is_err());
        assert!(DatasetFile::parse_csv("1.0,2.0\n3.0\n").is_err());
        assert!(DatasetFile::parse_csv("1.0,2.0\n3.0,oops\n").is_err());
        for text in ["1,nan\n2,3\n", "1,2\n3,inf\n", "x,-inf\n1,2\n", "1,1e999\n"] {
            let err = DatasetFile::parse_csv(text).unwrap_err();
            assert!(err.contains("non-finite value"), "{text:?}: {err}");
        }
    }
}
