//! The attribute-payload file format of the CLI: a header of
//! `name:type` column declarations (types `i64`, `f64`, `tag`) followed by
//! one CSV row per vector row, in row-id order. An empty cell is NULL —
//! NULL fails every filter term, including `!=`.
//!
//! ```text
//! label:tag,score:f64,views:i64
//! news,12.5,3
//! sports,,7
//! ```
//!
//! `mmdr generate --attrs-out` writes one deterministically from the seed;
//! `build-index --attrs` embeds it into snapshots as the checksummed
//! ATTRS section.

use mmdr_query::{AttrStore, AttrType, AttrValue};

/// Parses the header + CSV body into an [`AttrStore`] with `rows` rows
/// (row `i` of the file becomes attribute row id `i`).
pub fn load_attrs(path: &str, rows: usize) -> Result<AttrStore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| format!("{path}: empty file"))?;
    let mut schema: Vec<(String, AttrType)> = Vec::new();
    for decl in header.split(',') {
        let (name, ty) = decl
            .trim()
            .split_once(':')
            .ok_or_else(|| format!("{path}: header column `{decl}` is not name:type"))?;
        let ty = match ty.trim() {
            "i64" => AttrType::I64,
            "f64" => AttrType::F64,
            "tag" => AttrType::Tag,
            other => return Err(format!("{path}: unknown attribute type `{other}`")),
        };
        schema.push((name.trim().to_string(), ty));
    }
    let borrowed: Vec<(&str, AttrType)> = schema.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut store = AttrStore::new(&borrowed).map_err(|e| format!("{path}: {e}"))?;
    let mut n = 0usize;
    for (i, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != schema.len() {
            return Err(format!(
                "{path}: row {i} has {} cells, header declares {} columns",
                cells.len(),
                schema.len()
            ));
        }
        let mut values = Vec::new();
        for (cell, (name, ty)) in cells.iter().zip(&schema) {
            let cell = cell.trim();
            if cell.is_empty() {
                continue; // NULL
            }
            let value =
                match ty {
                    AttrType::I64 => AttrValue::I64(cell.parse().map_err(|_| {
                        format!("{path}: row {i}, column {name}: bad i64 `{cell}`")
                    })?),
                    AttrType::F64 => AttrValue::F64(cell.parse().map_err(|_| {
                        format!("{path}: row {i}, column {name}: bad f64 `{cell}`")
                    })?),
                    AttrType::Tag => AttrValue::Tag(cell.to_string()),
                };
            values.push((name.clone(), value));
        }
        store
            .set_row(i as u64, &values)
            .map_err(|e| format!("{path}: row {i}: {e}"))?;
        n += 1;
    }
    if n != rows {
        return Err(format!(
            "{path}: has {n} attribute rows, the dataset has {rows}"
        ));
    }
    Ok(store)
}

/// splitmix64 — the deterministic generator behind `--attrs-out` (no
/// dependency on the vendored rand; stable across platforms).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes a deterministic attrs file for `n` rows: `label` (tag, four
/// values), `score` (f64 in [0, 100)), `views` (i64 in [0, 1000)). The
/// same `(n, seed)` always produces the same bytes.
pub fn write_synthetic_attrs(path: &str, n: usize, seed: u64) -> Result<(), String> {
    const LABELS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let mut state = seed ^ 0xa076_1d64_78bd_642f;
    let mut out = String::with_capacity(32 * (n + 1));
    out.push_str("label:tag,score:f64,views:i64\n");
    for _ in 0..n {
        let r = splitmix64(&mut state);
        let label = LABELS[(r % 4) as usize];
        let score = ((splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64) * 100.0;
        let views = (splitmix64(&mut state) % 1000) as i64;
        out.push_str(&format!("{label},{score:.6},{views}\n"));
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}
