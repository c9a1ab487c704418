//! Columnar per-row attribute payloads.
//!
//! An [`AttrStore`] holds a fixed schema of typed columns (i64, f64, or
//! dictionary-encoded tag strings) addressed by point id. Any id may be
//! missing a value — NULL — and NULL fails every predicate term, including
//! `!=` (SQL three-valued logic collapsed to "filters never match NULL").
//!
//! The store serializes to a self-contained byte payload (see
//! [`AttrStore::to_bytes`]); the snapshot layer wraps those bytes in a
//! checksummed ATTRS section, so the codec here carries layout validation
//! only, not integrity checks.
//!
//! # Byte layout
//!
//! ```text
//! magic "MATR" | version u32 = 1 | capacity u64 | n_columns u32
//! per column:
//!   name_len u32 | name utf-8 | type u8 (0=i64, 1=f64, 2=tag)
//!   i64/f64: presence bitmap (capacity bits, little-endian u64 words)
//!            | one 8-byte value per PRESENT row, in id order
//!   tag:     dict_len u32 | (len u32 | utf-8)* | one u32 code per row
//!            (0 = NULL, c = dict[c-1])
//! ```

use crate::error::{Error, Result};

/// Attribute column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// 64-bit signed integer.
    I64,
    /// 64-bit float (finite values only).
    F64,
    /// Dictionary-encoded string tag (equality/inequality only).
    Tag,
}

/// One attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer value.
    I64(i64),
    /// Float value.
    F64(f64),
    /// Tag value.
    Tag(String),
}

#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    I64(Vec<Option<i64>>),
    F64(Vec<Option<f64>>),
    Tag {
        /// 0 = NULL, c = dict[c-1].
        codes: Vec<u32>,
        dict: Vec<String>,
    },
}

impl ColumnData {
    fn new(ty: AttrType) -> Self {
        match ty {
            AttrType::I64 => ColumnData::I64(Vec::new()),
            AttrType::F64 => ColumnData::F64(Vec::new()),
            AttrType::Tag => ColumnData::Tag {
                codes: Vec::new(),
                dict: Vec::new(),
            },
        }
    }

    fn ty(&self) -> AttrType {
        match self {
            ColumnData::I64(_) => AttrType::I64,
            ColumnData::F64(_) => AttrType::F64,
            ColumnData::Tag { .. } => AttrType::Tag,
        }
    }

    fn grow(&mut self, capacity: usize) {
        match self {
            ColumnData::I64(v) => v.resize(capacity, None),
            ColumnData::F64(v) => v.resize(capacity, None),
            ColumnData::Tag { codes, .. } => codes.resize(capacity, 0),
        }
    }
}

/// One named, typed column.
#[derive(Debug, Clone)]
pub(crate) struct Column {
    pub(crate) name: String,
    pub(crate) data: ColumnData,
}

/// The columnar attribute store. Rows are addressed by point id; ids the
/// store has never seen hold NULL in every column.
#[derive(Debug, Clone, Default)]
pub struct AttrStore {
    columns: Vec<Column>,
    /// Id-space bound: values exist for ids in `0..capacity` only.
    capacity: u64,
}

impl AttrStore {
    /// An empty store with the given schema. Column names must be unique,
    /// non-empty, and free of whitespace and comparison characters (they
    /// appear verbatim in predicate syntax).
    pub fn new(schema: &[(&str, AttrType)]) -> Result<Self> {
        let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
        for &(name, ty) in schema {
            if name.is_empty()
                || name
                    .chars()
                    .any(|c| c.is_whitespace() || "<>=!&\"'".contains(c))
            {
                return Err(Error::Parse(format!("invalid column name {name:?}")));
            }
            if columns.iter().any(|c| c.name == name) {
                return Err(Error::DuplicateColumn(name.to_string()));
            }
            columns.push(Column {
                name: name.to_string(),
                data: ColumnData::new(ty),
            });
        }
        Ok(Self {
            columns,
            capacity: 0,
        })
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the store has no columns (attribute-less dataset).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Schema in declaration order.
    pub fn schema(&self) -> Vec<(String, AttrType)> {
        self.columns
            .iter()
            .map(|c| (c.name.clone(), c.data.ty()))
            .collect()
    }

    /// Id-space bound (one past the largest id ever written).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub(crate) fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Sets `column` of row `id`. The id space grows to cover `id`.
    pub fn set(&mut self, id: u64, column: &str, value: &AttrValue) -> Result<()> {
        let capacity = self.capacity.max(id + 1);
        if capacity > self.capacity {
            self.capacity = capacity;
            for c in &mut self.columns {
                c.data.grow(capacity as usize);
            }
        }
        let col = self
            .columns
            .iter_mut()
            .find(|c| c.name == column)
            .ok_or_else(|| Error::UnknownColumn(column.to_string()))?;
        match (&mut col.data, value) {
            (ColumnData::I64(v), AttrValue::I64(x)) => v[id as usize] = Some(*x),
            (ColumnData::F64(v), AttrValue::F64(x)) => {
                if !x.is_finite() {
                    return Err(Error::TypeMismatch {
                        column: column.to_string(),
                        detail: "f64 attribute values must be finite",
                    });
                }
                v[id as usize] = Some(*x);
            }
            (ColumnData::Tag { codes, dict }, AttrValue::Tag(s)) => {
                let code = match dict.iter().position(|d| d == s) {
                    Some(i) => i as u32 + 1,
                    None => {
                        dict.push(s.clone());
                        dict.len() as u32
                    }
                };
                codes[id as usize] = code;
            }
            _ => {
                return Err(Error::TypeMismatch {
                    column: column.to_string(),
                    detail: "value type does not match the column type",
                })
            }
        }
        Ok(())
    }

    /// Sets every column of row `id` from `(column, value)` pairs.
    pub fn set_row(&mut self, id: u64, values: &[(String, AttrValue)]) -> Result<()> {
        for (col, v) in values {
            self.set(id, col, v)?;
        }
        Ok(())
    }

    /// Checks `(column, value)` pairs against the schema without mutating
    /// anything. Ingest validates a row with this *before* logging it, so a
    /// rejected row never reaches the WAL and [`set_row`](Self::set_row)
    /// cannot fail halfway through applying it.
    pub fn validate_row(&self, values: &[(String, AttrValue)]) -> Result<()> {
        for (name, value) in values {
            let col = self.column(name)?;
            let ok = match (&col.data, value) {
                (ColumnData::I64(_), AttrValue::I64(_)) => true,
                (ColumnData::F64(_), AttrValue::F64(x)) => {
                    if !x.is_finite() {
                        return Err(Error::TypeMismatch {
                            column: name.clone(),
                            detail: "f64 attribute values must be finite",
                        });
                    }
                    true
                }
                (ColumnData::Tag { .. }, AttrValue::Tag(_)) => true,
                _ => false,
            };
            if !ok {
                return Err(Error::TypeMismatch {
                    column: name.clone(),
                    detail: "value type does not match the column type",
                });
            }
        }
        Ok(())
    }

    /// Reads `column` of row `id`; NULL (or out-of-range id) is `None`.
    pub fn get(&self, id: u64, column: &str) -> Result<Option<AttrValue>> {
        let col = self.column(column)?;
        if id >= self.capacity {
            return Ok(None);
        }
        Ok(match &col.data {
            ColumnData::I64(v) => v[id as usize].map(AttrValue::I64),
            ColumnData::F64(v) => v[id as usize].map(AttrValue::F64),
            ColumnData::Tag { codes, dict } => match codes[id as usize] {
                0 => None,
                c => Some(AttrValue::Tag(dict[c as usize - 1].clone())),
            },
        })
    }

    /// Clears every column of row `id` back to NULL (deletes fold attribute
    /// rows out alongside their vectors).
    pub fn clear_row(&mut self, id: u64) {
        if id >= self.capacity {
            return;
        }
        for c in &mut self.columns {
            match &mut c.data {
                ColumnData::I64(v) => v[id as usize] = None,
                ColumnData::F64(v) => v[id as usize] = None,
                ColumnData::Tag { codes, .. } => codes[id as usize] = 0,
            }
        }
    }

    /// Serializes the store (see the module docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"MATR");
        put_u32(&mut out, 1);
        put_u64(&mut out, self.capacity);
        put_u32(&mut out, self.columns.len() as u32);
        let cap = self.capacity as usize;
        for c in &self.columns {
            put_u32(&mut out, c.name.len() as u32);
            out.extend_from_slice(c.name.as_bytes());
            match &c.data {
                ColumnData::I64(v) => {
                    out.push(0);
                    put_presence(&mut out, cap, |i| v[i].is_some());
                    for x in v.iter().flatten() {
                        put_u64(&mut out, *x as u64);
                    }
                }
                ColumnData::F64(v) => {
                    out.push(1);
                    put_presence(&mut out, cap, |i| v[i].is_some());
                    for x in v.iter().flatten() {
                        put_u64(&mut out, x.to_bits());
                    }
                }
                ColumnData::Tag { codes, dict } => {
                    out.push(2);
                    put_u32(&mut out, dict.len() as u32);
                    for s in dict {
                        put_u32(&mut out, s.len() as u32);
                        out.extend_from_slice(s.as_bytes());
                    }
                    for code in codes {
                        put_u32(&mut out, *code);
                    }
                }
            }
        }
        out
    }

    /// Deserializes a store written by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != b"MATR" {
            return Err(Error::Corrupt("bad attribute magic"));
        }
        if r.u32()? != 1 {
            return Err(Error::Corrupt("unknown attribute payload version"));
        }
        let capacity = r.u64()?;
        let cap = usize::try_from(capacity).map_err(|_| Error::Corrupt("capacity overflow"))?;
        if cap > bytes.len().saturating_mul(64) {
            return Err(Error::Corrupt("capacity larger than the payload can hold"));
        }
        let n_columns = r.u32()? as usize;
        // A column is at least its name's length and its type tag.
        if n_columns > (bytes.len() - r.pos) / 5 {
            return Err(Error::Corrupt("more columns than the payload can hold"));
        }
        let mut columns = Vec::with_capacity(n_columns);
        for _ in 0..n_columns {
            let name_len = r.u32()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| Error::Corrupt("column name is not utf-8"))?
                .to_string();
            let data = match r.u8()? {
                0 => {
                    let present = r.presence(cap)?;
                    let mut v = vec![None; cap];
                    for (i, slot) in v.iter_mut().enumerate() {
                        if present[i / 64] >> (i % 64) & 1 == 1 {
                            *slot = Some(r.u64()? as i64);
                        }
                    }
                    ColumnData::I64(v)
                }
                1 => {
                    let present = r.presence(cap)?;
                    let mut v = vec![None; cap];
                    for (i, slot) in v.iter_mut().enumerate() {
                        if present[i / 64] >> (i % 64) & 1 == 1 {
                            *slot = Some(f64::from_bits(r.u64()?));
                        }
                    }
                    ColumnData::F64(v)
                }
                2 => {
                    let dict_len = r.u32()? as usize;
                    let mut dict = Vec::with_capacity(dict_len.min(1 << 16));
                    for _ in 0..dict_len {
                        let len = r.u32()? as usize;
                        dict.push(
                            std::str::from_utf8(r.take(len)?)
                                .map_err(|_| Error::Corrupt("tag value is not utf-8"))?
                                .to_string(),
                        );
                    }
                    let mut codes = Vec::with_capacity(cap);
                    for _ in 0..cap {
                        let code = r.u32()?;
                        if code as usize > dict.len() {
                            return Err(Error::Corrupt("tag code out of dictionary range"));
                        }
                        codes.push(code);
                    }
                    ColumnData::Tag { codes, dict }
                }
                _ => return Err(Error::Corrupt("unknown column type tag")),
            };
            if columns.iter().any(|c: &Column| c.name == name) {
                return Err(Error::Corrupt("duplicate column name"));
            }
            columns.push(Column { name, data });
        }
        if r.pos != bytes.len() {
            return Err(Error::Corrupt("trailing bytes after the last column"));
        }
        Ok(Self { columns, capacity })
    }
}

/// Serializes one row's `(column, value)` pairs — the opaque attribute
/// payload carried by insert-with-attributes WAL records. The WAL layer
/// treats these bytes as a blob; only this crate reads them back.
///
/// Layout: `n_pairs u32 | (name_len u32 | name utf-8 | type u8 | value)*`
/// where the value is 8 little-endian bytes for i64/f64 and
/// `len u32 | utf-8` for tags.
pub fn encode_row(values: &[(String, AttrValue)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, values.len() as u32);
    for (name, value) in values {
        put_u32(&mut out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
        match value {
            AttrValue::I64(x) => {
                out.push(0);
                put_u64(&mut out, *x as u64);
            }
            AttrValue::F64(x) => {
                out.push(1);
                put_u64(&mut out, x.to_bits());
            }
            AttrValue::Tag(s) => {
                out.push(2);
                put_u32(&mut out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

/// Deserializes a row payload written by [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Result<Vec<(String, AttrValue)>> {
    let mut r = Reader { bytes, pos: 0 };
    let n = r.u32()? as usize;
    if n > bytes.len() {
        return Err(Error::Corrupt("row pair count larger than the payload"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| Error::Corrupt("row column name is not utf-8"))?
            .to_string();
        let value = match r.u8()? {
            0 => AttrValue::I64(r.u64()? as i64),
            1 => AttrValue::F64(f64::from_bits(r.u64()?)),
            2 => {
                let len = r.u32()? as usize;
                AttrValue::Tag(
                    std::str::from_utf8(r.take(len)?)
                        .map_err(|_| Error::Corrupt("row tag value is not utf-8"))?
                        .to_string(),
                )
            }
            _ => return Err(Error::Corrupt("unknown row value type tag")),
        };
        out.push((name, value));
    }
    if r.pos != bytes.len() {
        return Err(Error::Corrupt("trailing bytes after the last row value"));
    }
    Ok(out)
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_presence(out: &mut Vec<u8>, cap: usize, present: impl Fn(usize) -> bool) {
    let words = cap.div_ceil(64);
    for w in 0..words {
        let mut word = 0u64;
        for b in 0..64 {
            let i = w * 64 + b;
            if i < cap && present(i) {
                word |= 1 << b;
            }
        }
        put_u64(out, word);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(Error::Corrupt("payload truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn presence(&mut self, cap: usize) -> Result<Vec<u64>> {
        let words = cap.div_ceil(64);
        let mut out = Vec::with_capacity(words);
        for _ in 0..words {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AttrStore {
        let mut s = AttrStore::new(&[
            ("tenant", AttrType::I64),
            ("price", AttrType::F64),
            ("region", AttrType::Tag),
        ])
        .unwrap();
        for id in 0..10u64 {
            s.set(id, "tenant", &AttrValue::I64(id as i64 % 3)).unwrap();
            s.set(id, "price", &AttrValue::F64(id as f64 * 1.5))
                .unwrap();
            if id % 2 == 0 {
                s.set(id, "region", &AttrValue::Tag(format!("r{}", id % 4)))
                    .unwrap();
            }
        }
        s
    }

    #[test]
    fn schema_validation() {
        assert!(matches!(
            AttrStore::new(&[("a", AttrType::I64), ("a", AttrType::F64)]),
            Err(Error::DuplicateColumn(_))
        ));
        assert!(AttrStore::new(&[("bad name", AttrType::I64)]).is_err());
        assert!(AttrStore::new(&[("p<q", AttrType::I64)]).is_err());
        assert!(AttrStore::new(&[("", AttrType::I64)]).is_err());
    }

    #[test]
    fn set_get_and_nulls() {
        let s = store();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.get(4, "tenant").unwrap(), Some(AttrValue::I64(1)));
        assert_eq!(s.get(4, "price").unwrap(), Some(AttrValue::F64(6.0)));
        assert_eq!(
            s.get(4, "region").unwrap(),
            Some(AttrValue::Tag("r0".into()))
        );
        assert_eq!(s.get(5, "region").unwrap(), None, "odd rows lack tags");
        assert_eq!(s.get(99, "tenant").unwrap(), None, "past capacity is NULL");
        assert!(s.get(0, "nope").is_err());
    }

    #[test]
    fn type_checks() {
        let mut s = store();
        assert!(s.set(0, "tenant", &AttrValue::F64(1.0)).is_err());
        assert!(s.set(0, "price", &AttrValue::F64(f64::NAN)).is_err());
        assert!(s.set(0, "region", &AttrValue::I64(3)).is_err());
    }

    #[test]
    fn clear_row_nulls_everything() {
        let mut s = store();
        s.clear_row(4);
        assert_eq!(s.get(4, "tenant").unwrap(), None);
        assert_eq!(s.get(4, "region").unwrap(), None);
        assert_eq!(s.get(6, "tenant").unwrap(), Some(AttrValue::I64(0)));
    }

    #[test]
    fn roundtrip_bytes() {
        let mut s = store();
        s.set(70, "tenant", &AttrValue::I64(-5)).unwrap(); // sparse growth
        let bytes = s.to_bytes();
        let back = AttrStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.capacity(), 71);
        assert_eq!(back.schema(), s.schema());
        for id in 0..71u64 {
            for col in ["tenant", "price", "region"] {
                assert_eq!(back.get(id, col).unwrap(), s.get(id, col).unwrap());
            }
        }
    }

    #[test]
    fn corrupt_payloads_fail_closed() {
        let s = store();
        let good = s.to_bytes();
        assert!(AttrStore::from_bytes(&good[..good.len() - 1]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(AttrStore::from_bytes(&bad_magic).is_err());
        let mut extra = good.clone();
        extra.push(0);
        assert!(AttrStore::from_bytes(&extra).is_err());
        assert!(AttrStore::from_bytes(&[]).is_err());
        // 20 bytes claiming u32::MAX columns: an error, not an allocation.
        let mut greedy = b"MATR".to_vec();
        greedy.extend_from_slice(&1u32.to_le_bytes());
        greedy.extend_from_slice(&0u64.to_le_bytes());
        greedy.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(greedy.len(), 20);
        assert!(matches!(
            AttrStore::from_bytes(&greedy),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn row_codec_roundtrips() {
        let row = vec![
            ("tenant".to_string(), AttrValue::I64(-7)),
            ("price".to_string(), AttrValue::F64(3.25)),
            ("region".to_string(), AttrValue::Tag("eu-west".into())),
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
        assert_eq!(decode_row(&encode_row(&[])).unwrap(), vec![]);
    }

    #[test]
    fn row_codec_rejects_corruption() {
        let bytes = encode_row(&[("a".to_string(), AttrValue::I64(1))]);
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_row(&extra).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[4 + 4 + 1] = 9; // type byte after count + name_len + "a"
        assert!(decode_row(&bad_tag).is_err());
    }
}
