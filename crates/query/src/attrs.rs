//! Columnar per-row attribute payloads.
//!
//! An [`AttrStore`] holds a fixed schema of typed columns (i64, f64, or
//! dictionary-encoded tag strings) addressed by point id. Any id may be
//! missing a value — NULL — and NULL fails every predicate term, including
//! `!=` (SQL three-valued logic collapsed to "filters never match NULL").
//!
//! The store serializes to a self-contained byte payload (see
//! [`AttrStore::to_bytes`]); the snapshot layer wraps those bytes in a
//! checksummed ATTRS section, so the layout here carries validation only,
//! not integrity checks. It is written and read with the storage layer's
//! byte codec ([`mmdr_index::codec`]), as is the row payload a WAL record
//! carries ([`encode_row`]): every count in either is held to the bytes
//! behind it by the codec's one count rule before it sizes anything, and a
//! damaged payload is [`Error::Corrupt`], never a panic.
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
use mmdr_index::codec::{self, Reader, Writer};

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

    /// Sets `column` of row `id`. The id space grows to cover `id` once
    /// the column is found and the value checked against it, so a refused
    /// value leaves the store as it was.
    pub fn set(&mut self, id: u64, column: &str, value: &AttrValue) -> Result<()> {
        let at = self.check(column, value)?;
        if id >= self.capacity {
            self.capacity = id + 1;
            for c in &mut self.columns {
                c.data.grow(self.capacity as usize);
            }
        }
        let slot = id as usize;
        match (&mut self.columns[at].data, value) {
            (ColumnData::I64(v), AttrValue::I64(x)) => v[slot] = Some(*x),
            (ColumnData::F64(v), AttrValue::F64(x)) => v[slot] = Some(*x),
            (ColumnData::Tag { codes, dict }, AttrValue::Tag(s)) => {
                codes[slot] = match dict.iter().position(|d| d == s) {
                    Some(i) => i as u32 + 1,
                    None => {
                        dict.push(s.clone());
                        dict.len() as u32
                    }
                };
            }
            _ => unreachable!("`check` matched the value to the column"),
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
            self.check(name, value)?;
        }
        Ok(())
    }

    /// The index of `column`, once `value` is found to fit it: its type,
    /// and a finite `f64`.
    fn check(&self, column: &str, value: &AttrValue) -> Result<usize> {
        let at = (self.columns.iter())
            .position(|c| c.name == column)
            .ok_or_else(|| Error::UnknownColumn(column.to_string()))?;
        let detail = match (&self.columns[at].data, value) {
            (ColumnData::F64(_), AttrValue::F64(x)) if !x.is_finite() => {
                "f64 attribute values must be finite"
            }
            (ColumnData::I64(_), AttrValue::I64(_))
            | (ColumnData::F64(_), AttrValue::F64(_))
            | (ColumnData::Tag { .. }, AttrValue::Tag(_)) => return Ok(at),
            _ => "value type does not match the column type",
        };
        Err(Error::TypeMismatch {
            column: column.to_string(),
            detail,
        })
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
        let mut w = Writer::new();
        w.put_raw(MAGIC);
        w.put_u32(1);
        w.put_u64(self.capacity);
        w.put_u32(self.columns.len() as u32);
        for c in &self.columns {
            w.put_bytes(c.name.as_bytes());
            match &c.data {
                ColumnData::I64(v) => put_values(&mut w, 0, v, |x| *x as u64),
                ColumnData::F64(v) => put_values(&mut w, 1, v, |x| x.to_bits()),
                ColumnData::Tag { codes, dict } => {
                    w.put_u8(2);
                    w.put_u32(dict.len() as u32);
                    for s in dict {
                        w.put_bytes(s.as_bytes());
                    }
                    for code in codes {
                        w.put_u32(*code);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Deserializes a store written by [`to_bytes`](Self::to_bytes). Every
    /// count is held to the bytes behind it before it sizes anything: the
    /// capacity to its presence bitmap (8 bytes per 64 rows, the least a
    /// column stores), a column to its name length and type byte, a
    /// dictionary entry to its length, a tag column to 4 bytes a row.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        if r.get_raw(4)? != MAGIC {
            return Err(Error::Corrupt("bad attribute magic"));
        }
        if r.get_u32()? != 1 {
            return Err(Error::Corrupt("unknown attribute payload version"));
        }
        let capacity = r.get_u64()?;
        let words = r.count(capacity.div_ceil(64), 8)?;
        let cap = capacity as usize;
        let n_columns = r.get_u32()?;
        let n_columns = r.count(n_columns.into(), 5)?;
        let mut columns = Vec::with_capacity(n_columns);
        for _ in 0..n_columns {
            let name = utf8(r.get_bytes()?, "column name is not utf-8")?;
            let data = match r.get_u8()? {
                0 => ColumnData::I64(get_values(&mut r, cap, words, |x| x as i64)?),
                1 => ColumnData::F64(get_values(&mut r, cap, words, f64::from_bits)?),
                2 => {
                    let dict_len = r.get_u32()?;
                    let dict = (0..r.count(dict_len.into(), 4)?)
                        .map(|_| utf8(r.get_bytes()?, "tag value is not utf-8"))
                        .collect::<Result<Vec<String>>>()?;
                    let mut codes = Vec::with_capacity(r.count(capacity, 4)?);
                    for _ in 0..cap {
                        let code = r.get_u32()?;
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
        r.finish()?;
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
    let mut w = Writer::new();
    w.put_u32(values.len() as u32);
    for (name, value) in values {
        w.put_bytes(name.as_bytes());
        match value {
            AttrValue::I64(x) => {
                w.put_u8(0);
                w.put_u64(*x as u64);
            }
            AttrValue::F64(x) => {
                w.put_u8(1);
                w.put_f64(*x);
            }
            AttrValue::Tag(s) => {
                w.put_u8(2);
                w.put_bytes(s.as_bytes());
            }
        }
    }
    w.into_bytes()
}

/// Deserializes a row payload written by [`encode_row`]. A pair is at
/// least 9 bytes (a name length, a type byte and a tag's length), and the
/// pair count is held to that before it sizes anything.
pub fn decode_row(bytes: &[u8]) -> Result<Vec<(String, AttrValue)>> {
    let mut r = Reader::new(bytes);
    let n = r.get_u32()?;
    let n = r.count(n.into(), 9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = utf8(r.get_bytes()?, "row column name is not utf-8")?;
        let value = match r.get_u8()? {
            0 => AttrValue::I64(r.get_u64()? as i64),
            1 => AttrValue::F64(r.get_f64()?),
            2 => AttrValue::Tag(utf8(r.get_bytes()?, "row tag value is not utf-8")?),
            _ => return Err(Error::Corrupt("unknown row value type tag")),
        };
        out.push((name, value));
    }
    r.finish()?;
    Ok(out)
}

/// The ATTRS payload's first four bytes.
const MAGIC: &[u8; 4] = b"MATR";

fn utf8(bytes: &[u8], what: &'static str) -> Result<String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt(what))
}

/// Reads an i64 or f64 column's body: its presence bitmap of `words`
/// words, then one value for each row the bitmap marks present.
fn get_values<T: Clone>(
    r: &mut Reader<'_>,
    cap: usize,
    words: usize,
    value: impl Fn(u64) -> T,
) -> codec::Result<Vec<Option<T>>> {
    r.count(words as u64, 8)?;
    let present = (0..words)
        .map(|_| r.get_u64())
        .collect::<codec::Result<Vec<u64>>>()?;
    let mut values = vec![None; cap];
    for (i, slot) in values.iter_mut().enumerate() {
        if present[i / 64] >> (i % 64) & 1 == 1 {
            *slot = Some(value(r.get_u64()?));
        }
    }
    Ok(values)
}

/// Writes an i64 or f64 column's type byte and body: its presence bitmap,
/// then one value for each present row.
fn put_values<T>(w: &mut Writer, ty: u8, values: &[Option<T>], bits: impl Fn(&T) -> u64) {
    w.put_u8(ty);
    for word in values.chunks(64) {
        let present = word.iter().enumerate().filter(|(_, v)| v.is_some());
        w.put_u64(present.fold(0, |acc, (b, _)| acc | 1 << b));
    }
    for x in values.iter().flatten() {
        w.put_u64(bits(x));
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
    fn a_refused_set_leaves_the_store_as_it_was() {
        let mut s = store();
        let (capacity, bytes) = (s.capacity(), s.to_bytes());
        // An unknown column, far past the id space: refused, not grown.
        assert!(matches!(
            s.set(999_999, "nope", &AttrValue::I64(1)),
            Err(Error::UnknownColumn(_))
        ));
        assert_eq!(s.capacity(), capacity);
        // A value the column refuses, far past it: the same, to the byte.
        for (column, value) in [
            ("price", AttrValue::F64(f64::NAN)),
            ("tenant", AttrValue::Tag("x".into())),
        ] {
            assert!(matches!(
                s.set(4_999_999, column, &value),
                Err(Error::TypeMismatch { .. })
            ));
            assert_eq!(s.capacity(), capacity);
            assert_eq!(s.to_bytes(), bytes);
        }
        // A value that fits grows it.
        s.set(4_999_999, "price", &AttrValue::F64(2.5)).unwrap();
        assert_eq!(s.capacity(), 5_000_000);
        assert_eq!(
            s.get(4_999_999, "price").unwrap(),
            Some(AttrValue::F64(2.5))
        );
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

    /// Plants counts no bytes could back, as a little-endian `u32` and
    /// `u64`, at every offset of `bytes` (cut at the end): each decode
    /// returns `Ok` or `Corrupt` — a trusted count would have aborted on its
    /// allocation first — and at the offsets in `counts` the lie is refused.
    fn plant_counts(bytes: &[u8], counts: &[usize], decode: impl Fn(&[u8]) -> Result<()>) {
        decode(bytes).unwrap();
        let n = bytes.len() as u64;
        let lies32 = [n as u32 + 1, 1 << 16, 1 << 31, u32::MAX].map(u32::to_le_bytes);
        let lies64 = [n + 1, 1 << 40, 1 << 62, u64::MAX].map(u64::to_le_bytes);
        let lies = lies32
            .iter()
            .map(|l| &l[..])
            .chain(lies64.iter().map(|l| &l[..]));
        for lie in lies {
            for at in 0..bytes.len() {
                let mut damaged = bytes.to_vec();
                let end = damaged.len().min(at + lie.len());
                damaged[at..end].copy_from_slice(&lie[..end - at]);
                let got = decode(&damaged);
                assert!(matches!(got, Ok(()) | Err(Error::Corrupt(_))), "{got:?}");
                assert!(
                    !(counts.contains(&at) && got.is_ok()),
                    "a lie at {at} decoded"
                );
            }
        }
    }

    /// An ATTRS payload's capacity, column count and dictionary length, and
    /// a row's pair count, are each held to the bytes behind them.
    #[test]
    fn a_planted_count_is_refused_or_harmless_at_every_offset() {
        let mut s = AttrStore::new(&[
            ("region", AttrType::Tag),
            ("tenant", AttrType::I64),
            ("price", AttrType::F64),
        ])
        .unwrap();
        for id in 0..70u64 {
            s.set(id, "region", &AttrValue::Tag(format!("r{}", id % 3)))
                .unwrap();
            if id % 4 != 0 {
                s.set(id, "tenant", &AttrValue::I64(id as i64)).unwrap();
                s.set(id, "price", &AttrValue::F64(id as f64 / 4.0))
                    .unwrap();
            }
        }
        // Magic and version, then the capacity at 8 and the column count at
        // 16; the first column's name ("region") and type byte, then its
        // dictionary length at 31.
        plant_counts(&s.to_bytes(), &[8, 16, 31], |b| {
            AttrStore::from_bytes(b).map(drop)
        });
        let row = encode_row(&[
            ("tenant".to_string(), AttrValue::I64(-7)),
            ("region".to_string(), AttrValue::Tag("eu-west".into())),
        ]);
        plant_counts(&row, &[0], |b| decode_row(b).map(drop));
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
