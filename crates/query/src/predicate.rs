//! Predicate IR, text parser, and bitmap compilation.
//!
//! A [`Predicate`] is a conjunction of comparison terms over attribute
//! columns — the filter language of `query --filter`:
//!
//! ```text
//! tenant = 7 AND price < 100 AND region = eu
//! ```
//!
//! Operators: `=` `!=` `<` `<=` `>` `>=`. Terms combine with `AND` (case
//! insensitive; `&&` also accepted). Values parse as i64 first, then f64,
//! else as a bare or quoted string. Numeric columns compare numerically
//! (i64 literals coerce to f64 columns and vice versa); tag columns accept
//! `=` and `!=` against strings only. NULL fails every term.
//!
//! [`Predicate::compile`] evaluates the conjunction over an [`AttrStore`]
//! into a [`RowFilter`] bitmap — the form backends consume.

use crate::attrs::{AttrStore, AttrValue, ColumnData};
use crate::error::{Error, Result};
use mmdr_index::RowFilter;

/// Comparison operator of one term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One comparison term: `column op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Attribute column name.
    pub column: String,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand literal.
    pub value: AttrValue,
}

/// A conjunction of terms. At least one term; `AND` is the only connective.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The conjoined terms.
    pub terms: Vec<Term>,
}

impl Predicate {
    /// Parses the `--filter` surface syntax (see the module docs).
    pub fn parse(text: &str) -> Result<Self> {
        let mut terms = Vec::new();
        for part in split_conjuncts(text) {
            let part = part.trim();
            if part.is_empty() {
                return Err(Error::Parse("empty term".into()));
            }
            terms.push(parse_term(part)?);
        }
        if terms.is_empty() {
            return Err(Error::Parse("predicate has no terms".into()));
        }
        Ok(Self { terms })
    }

    /// Validates every term against the store's schema without building a
    /// bitmap (servers reject malformed filters before doing work).
    pub fn validate(&self, store: &AttrStore) -> Result<()> {
        for t in &self.terms {
            let col = store.column(&t.column)?;
            check_term(t, &col.data)?;
        }
        Ok(())
    }

    /// Whether row `id` passes the conjunction (NULL fails every term).
    pub fn passes(&self, store: &AttrStore, id: u64) -> Result<bool> {
        for t in &self.terms {
            let v = store.get(id, &t.column)?;
            let col = store.column(&t.column)?;
            check_term(t, &col.data)?;
            match v {
                None => return Ok(false),
                Some(v) => {
                    if !eval(t, &v) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Compiles the conjunction over the whole store into a row bitmap
    /// covering ids `0..capacity` (ids beyond the store's capacity fail, as
    /// does every NULL). Each term is one pass over its column's own
    /// values ([`RowFilter::and_where`]), ANDed into the bitmap as it goes;
    /// nothing is kept between calls, so there is nothing to invalidate
    /// when the store changes.
    pub fn compile(&self, store: &AttrStore) -> Result<RowFilter> {
        let mut rows = RowFilter::all(store.capacity());
        for t in &self.terms {
            let col = store.column(&t.column)?;
            check_term(t, &col.data)?;
            // Mixed numeric sides meet in f64, as in `eval`.
            match (&col.data, &t.value) {
                (ColumnData::I64(v), AttrValue::I64(b)) => and_cmp(&mut rows, v, t.op, |a| a, *b),
                (ColumnData::I64(v), AttrValue::F64(b)) => {
                    and_cmp(&mut rows, v, t.op, |a| a as f64, *b)
                }
                (ColumnData::F64(v), AttrValue::F64(b)) => and_cmp(&mut rows, v, t.op, |a| a, *b),
                (ColumnData::F64(v), AttrValue::I64(b)) => {
                    and_cmp(&mut rows, v, t.op, |a| a, *b as f64)
                }
                (ColumnData::Tag { codes, dict }, AttrValue::Tag(s)) => {
                    // Resolve the literal against the dictionary once, then
                    // compare codes (0 is NULL, and no literal resolves to it).
                    let want = dict.iter().position(|d| d == s).map_or(0, |i| i as u32 + 1);
                    match t.op {
                        Op::Eq => rows.and_where(codes, |code| code != 0 && code == want),
                        Op::Ne => rows.and_where(codes, |code| code != 0 && code != want),
                        _ => unreachable!("check_term enforces tag operators"),
                    }
                }
                _ => unreachable!("check_term enforces the literal's type"),
            }
        }
        Ok(rows)
    }
}

/// ANDs `stored op literal` over a numeric column into `rows`: one loop
/// per operator, the `match` outside it. `as_literal` brings a stored value
/// to the literal's type. A NULL fails, and so does a comparison with no
/// order (a NaN), `!=` included — [`cmp_f64`]'s rule.
fn and_cmp<T: Copy, V: PartialOrd + Copy>(
    rows: &mut RowFilter,
    column: &[Option<T>],
    op: Op,
    as_literal: impl Fn(T) -> V,
    b: V,
) {
    let stored = |x: Option<T>| x.map(&as_literal);
    match op {
        Op::Eq => rows.and_where(column, |x| stored(x).is_some_and(|a| a == b)),
        // Not `a != b`, which a NaN satisfies.
        #[allow(clippy::double_comparisons)]
        Op::Ne => rows.and_where(column, |x| stored(x).is_some_and(|a| a < b || a > b)),
        Op::Lt => rows.and_where(column, |x| stored(x).is_some_and(|a| a < b)),
        Op::Le => rows.and_where(column, |x| stored(x).is_some_and(|a| a <= b)),
        Op::Gt => rows.and_where(column, |x| stored(x).is_some_and(|a| a > b)),
        Op::Ge => rows.and_where(column, |x| stored(x).is_some_and(|a| a >= b)),
    }
}

/// Type/operator admissibility of a term against a column.
fn check_term(t: &Term, data: &ColumnData) -> Result<()> {
    match (data, &t.value) {
        (ColumnData::I64(_) | ColumnData::F64(_), AttrValue::I64(_) | AttrValue::F64(_)) => Ok(()),
        (ColumnData::Tag { .. }, AttrValue::Tag(_)) => match t.op {
            Op::Eq | Op::Ne => Ok(()),
            _ => Err(Error::TypeMismatch {
                column: t.column.clone(),
                detail: "tag columns support = and != only",
            }),
        },
        _ => Err(Error::TypeMismatch {
            column: t.column.clone(),
            detail: "literal type does not match the column type",
        }),
    }
}

/// Evaluates `stored op literal`. Numeric comparisons go through f64 when
/// the sides disagree (exact for every i64 the datasets here use; the
/// pushdown-vs-postfilter parity gate covers the conversion).
fn eval(t: &Term, stored: &AttrValue) -> bool {
    match (stored, &t.value) {
        (AttrValue::I64(a), AttrValue::I64(b)) => cmp_ord(t.op, a.cmp(b)),
        (AttrValue::F64(a), AttrValue::F64(b)) => cmp_f64(t.op, *a, *b),
        (AttrValue::I64(a), AttrValue::F64(b)) => cmp_f64(t.op, *a as f64, *b),
        (AttrValue::F64(a), AttrValue::I64(b)) => cmp_f64(t.op, *a, *b as f64),
        (AttrValue::Tag(a), AttrValue::Tag(b)) => match t.op {
            Op::Eq => a == b,
            Op::Ne => a != b,
            _ => false,
        },
        _ => false,
    }
}

fn cmp_ord(op: Op, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        Op::Eq => ord == Equal,
        Op::Ne => ord != Equal,
        Op::Lt => ord == Less,
        Op::Le => ord != Greater,
        Op::Gt => ord == Greater,
        Op::Ge => ord != Less,
    }
}

fn cmp_f64(op: Op, a: f64, b: f64) -> bool {
    match a.partial_cmp(&b) {
        Some(ord) => cmp_ord(op, ord),
        None => false,
    }
}

/// The byte offsets of `text`'s characters outside quotes. A quote opens
/// at `"` or `'` and closes at the next of the same character; the quote
/// characters themselves are not yielded.
fn unquoted(text: &str) -> impl Iterator<Item = usize> + '_ {
    let mut in_quote = None;
    text.char_indices()
        .filter_map(move |(i, c)| match in_quote {
            Some(q) => {
                if c == q {
                    in_quote = None;
                }
                None
            }
            None if c == '"' || c == '\'' => {
                in_quote = Some(c);
                None
            }
            None => Some(i),
        })
}

/// Splits on the `AND` connective (case-insensitive word) or `&&`, outside
/// of quotes.
fn split_conjuncts(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    for i in unquoted(text) {
        if i < start {
            continue;
        }
        let rest = &text[i..];
        let is_and_word = rest.get(..3).is_some_and(|w| w.eq_ignore_ascii_case("and"))
            && text[..i]
                .chars()
                .next_back()
                .is_none_or(char::is_whitespace)
            && rest[3..].chars().next().is_none_or(char::is_whitespace);
        let len = if is_and_word {
            3
        } else if rest.starts_with("&&") {
            2
        } else {
            continue;
        };
        parts.push(&text[start..i]);
        start = i + len;
    }
    parts.push(&text[start..]);
    parts
}

/// Each operator's surface syntax, the longest first where one is a
/// prefix of another.
const OPS: [(&str, Op); 6] = [
    ("<=", Op::Le),
    (">=", Op::Ge),
    ("!=", Op::Ne),
    ("<", Op::Lt),
    (">", Op::Gt),
    ("=", Op::Eq),
];

/// Reads `column op value` at the leftmost operator outside quotes, the
/// longest one at that position first, so `<=` is not read as `<` + `=`
/// and an operator inside a quoted value is part of the value.
fn parse_term(text: &str) -> Result<Term> {
    let (pos, sym, op) = unquoted(text)
        .find_map(|i| {
            OPS.iter()
                .find(|(sym, _)| text[i..].starts_with(sym))
                .map(|&(sym, op)| (i, sym, op))
        })
        .ok_or_else(|| Error::Parse(format!("no comparison operator in {text:?}")))?;
    let column = text[..pos].trim();
    let value = text[pos + sym.len()..].trim();
    if column.is_empty() || value.is_empty() {
        return Err(Error::Parse(format!("malformed term {text:?}")));
    }
    if column.contains(|c: char| c.is_whitespace()) {
        return Err(Error::Parse(format!("malformed column in {text:?}")));
    }
    Ok(Term {
        column: column.to_string(),
        op,
        value: parse_literal(value),
    })
}

fn parse_literal(text: &str) -> AttrValue {
    let t = text.trim();
    if (t.starts_with('"') && t.ends_with('"') && t.len() >= 2)
        || (t.starts_with('\'') && t.ends_with('\'') && t.len() >= 2)
    {
        return AttrValue::Tag(t[1..t.len() - 1].to_string());
    }
    if let Ok(i) = t.parse::<i64>() {
        return AttrValue::I64(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        if f.is_finite() {
            return AttrValue::F64(f);
        }
    }
    AttrValue::Tag(t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrType;
    use proptest::prelude::*;

    fn store() -> AttrStore {
        let mut s = AttrStore::new(&[
            ("tenant", AttrType::I64),
            ("price", AttrType::F64),
            ("region", AttrType::Tag),
        ])
        .unwrap();
        for id in 0..100u64 {
            s.set(id, "tenant", &AttrValue::I64(id as i64 % 5)).unwrap();
            s.set(id, "price", &AttrValue::F64(id as f64)).unwrap();
            if id % 10 != 9 {
                s.set(
                    id,
                    "region",
                    &AttrValue::Tag(if id % 2 == 0 { "eu" } else { "us" }.into()),
                )
                .unwrap();
            }
        }
        s
    }

    #[test]
    fn parses_every_operator() {
        let p = Predicate::parse("a=1 AND b!=2 and c<3 && d<=4 AND e>5 AND f>=6.5").unwrap();
        assert_eq!(p.terms.len(), 6);
        assert_eq!(p.terms[0].op, Op::Eq);
        assert_eq!(p.terms[1].op, Op::Ne);
        assert_eq!(p.terms[2].op, Op::Lt);
        assert_eq!(p.terms[3].op, Op::Le);
        assert_eq!(p.terms[4].op, Op::Gt);
        assert_eq!(p.terms[5].op, Op::Ge);
        assert_eq!(p.terms[5].value, AttrValue::F64(6.5));
    }

    #[test]
    fn parses_strings_and_quotes() {
        let p = Predicate::parse("region = eu AND name = \"with space\"").unwrap();
        assert_eq!(p.terms[0].value, AttrValue::Tag("eu".into()));
        assert_eq!(p.terms[1].value, AttrValue::Tag("with space".into()));
        // Quoted AND does not split.
        let p = Predicate::parse("name = 'x AND y'").unwrap();
        assert_eq!(p.terms.len(), 1);
        assert_eq!(p.terms[0].value, AttrValue::Tag("x AND y".into()));
        // An operator inside a quoted value is part of the value.
        for (text, column, op, tag) in [
            ("region = \"x>y\"", "region", Op::Eq, "x>y"),
            ("region = 'a<b'", "region", Op::Eq, "a<b"),
            ("note = \"!=\"", "note", Op::Eq, "!="),
            ("region=\"x>y\"", "region", Op::Eq, "x>y"),
            ("region != '<=' && n = 1", "region", Op::Ne, "<="),
        ] {
            let p = Predicate::parse(text).unwrap();
            assert_eq!(p.terms[0].column, column, "{text}");
            assert_eq!(p.terms[0].op, op, "{text}");
            assert_eq!(p.terms[0].value, AttrValue::Tag(tag.into()), "{text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Predicate::parse("").is_err());
        assert!(Predicate::parse("a").is_err());
        assert!(Predicate::parse("= 3").is_err());
        assert!(Predicate::parse("a = ").is_err());
        assert!(Predicate::parse("a = 1 AND").is_err());
        assert!(Predicate::parse("two words = 1").is_err());
    }

    #[test]
    fn compile_matches_row_evaluation() {
        let s = store();
        for text in [
            "tenant = 3",
            "price < 20",
            "price >= 20 AND price < 40",
            "region = eu",
            "region != eu",
            "tenant = 2 AND region = us AND price > 10",
            "tenant = 99",
            "price <= 1e9",
        ] {
            let p = Predicate::parse(text).unwrap();
            let rows = p.compile(&s).unwrap();
            for id in 0..s.capacity() {
                assert_eq!(rows.passes(id), p.passes(&s, id).unwrap(), "{text} id {id}");
            }
        }
    }

    #[test]
    fn null_fails_even_not_equal() {
        let s = store();
        // Rows id%10==9 have NULL region: != must not match them.
        let rows = Predicate::parse("region != eu")
            .unwrap()
            .compile(&s)
            .unwrap();
        assert!(!rows.passes(9));
        assert!(rows.passes(1), "us passes !=eu");
        assert!(!rows.passes(2), "eu fails");
    }

    #[test]
    fn numeric_coercion_both_ways() {
        let s = store();
        // Float literal on i64 column, int literal on f64 column.
        let a = Predicate::parse("tenant < 2.5")
            .unwrap()
            .compile(&s)
            .unwrap();
        assert!(a.passes(2) && !a.passes(3));
        let b = Predicate::parse("price = 42").unwrap().compile(&s).unwrap();
        assert_eq!(b.count(), 1);
        assert!(b.passes(42));
    }

    #[test]
    fn type_errors_surface() {
        let s = store();
        assert!(Predicate::parse("region < x").unwrap().compile(&s).is_err());
        assert!(Predicate::parse("tenant = eu")
            .unwrap()
            .compile(&s)
            .is_err());
        assert!(Predicate::parse("nope = 1").unwrap().compile(&s).is_err());
        assert!(Predicate::parse("region < x")
            .unwrap()
            .validate(&s)
            .is_err());
        assert!(Predicate::parse("tenant = 1").unwrap().validate(&s).is_ok());
    }

    #[test]
    fn an_unordered_comparison_fails_every_operator_in_both_forms() {
        let s = store();
        for op in [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge] {
            for column in ["price", "tenant"] {
                let p = Predicate {
                    terms: vec![Term {
                        column: column.into(),
                        op,
                        value: AttrValue::F64(f64::NAN),
                    }],
                };
                assert_eq!(p.compile(&s).unwrap().count(), 0, "{column} {op:?}");
                assert!(!p.passes(&s, 3).unwrap(), "{column} {op:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The compiled bitmap is [`Predicate::passes`] row by row: over
        /// i64, f64 and tag columns with NULLs scattered through them, for
        /// every operator, literals of either numeric type (so both
        /// coercions run) and tags the dictionary has and has not, one to
        /// three terms, and ids past the store's capacity.
        #[test]
        fn compile_is_passes_row_by_row(
            cells in proptest::collection::vec((0u32..8, -4i64..5, -4i64..5, 0usize..3), 0..200),
            terms in proptest::collection::vec(
                (0usize..3, 0usize..6, -5i64..6, proptest::bool::ANY),
                1..4,
            ),
        ) {
            const TAGS: [&str; 4] = ["a", "b", "c", "zz"];
            const OPS: [Op; 6] = [Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge];
            let mut s = AttrStore::new(&[
                ("i", AttrType::I64),
                ("f", AttrType::F64),
                ("t", AttrType::Tag),
            ])
            .unwrap();
            for (id, &(nulls, i, f, tag)) in cells.iter().enumerate() {
                let id = id as u64;
                if nulls & 1 == 0 {
                    s.set(id, "i", &AttrValue::I64(i)).unwrap();
                }
                if nulls & 2 == 0 {
                    s.set(id, "f", &AttrValue::F64(f as f64 * 0.5)).unwrap();
                }
                if nulls & 4 == 0 {
                    s.set(id, "t", &AttrValue::Tag(TAGS[tag].into())).unwrap();
                }
            }
            let terms = terms
                .into_iter()
                .map(|(column, op, literal, as_float)| match column {
                    2 => Term {
                        column: "t".into(),
                        op: OPS[op % 2],
                        value: AttrValue::Tag(TAGS[literal.rem_euclid(4) as usize].into()),
                    },
                    _ => Term {
                        column: ["i", "f"][column].into(),
                        op: OPS[op],
                        value: if as_float {
                            AttrValue::F64(literal as f64 * 0.5)
                        } else {
                            AttrValue::I64(literal)
                        },
                    },
                })
                .collect();
            let p = Predicate { terms };
            let rows = p.compile(&s).unwrap();
            prop_assert_eq!(rows.capacity(), s.capacity());
            for id in 0..s.capacity() + 70 {
                prop_assert_eq!(
                    rows.passes(id),
                    p.passes(&s, id).unwrap(),
                    "{:?} id {}", p, id
                );
            }
        }
    }

    /// Pieces of a generated tag: every operator, both connectives in
    /// either case, both quote characters, spaces and a multi-byte letter.
    const PIECES: [&str; 16] = [
        "a", "Z", "0", "-1.5", "<", ">", "<=", "!=", "=", " AND ", " and ", "&&", "'", "\"", " ",
        "é",
    ];

    /// What joins two generated terms.
    const CONNECTIVES: [&str; 5] = [" AND ", " and ", " AnD ", " && ", "&&"];

    /// One generated term: column suffix, operator, value kind (i64, f64,
    /// tag), the value's bits, the tag's pieces, and whether the operator
    /// is set off by spaces.
    type TermSpec = (u32, usize, u8, u64, Vec<usize>);

    fn term_specs() -> impl Strategy<Value = Vec<(TermSpec, bool, usize)>> {
        proptest::collection::vec(
            (
                (
                    0u32..1000,
                    0usize..OPS.len(),
                    0u8..3,
                    0u64..=u64::MAX,
                    proptest::collection::vec(0usize..PIECES.len(), 0..6),
                ),
                proptest::bool::ANY,
                0usize..CONNECTIVES.len(),
            ),
            1..5,
        )
    }

    /// The filter text for `specs`, and the terms it must parse to. An
    /// f64 is written by `{:?}` (never a bare integer, so it parses back
    /// as an f64, exactly) and a tag is quoted with a quote character it
    /// does not hold.
    fn compose(specs: &[(TermSpec, bool, usize)]) -> (String, Vec<Term>) {
        let mut text = String::new();
        let mut terms = Vec::new();
        for (n, ((column, op, kind, bits, pieces), spaced, connective)) in specs.iter().enumerate()
        {
            let (sym, op) = OPS[*op];
            let (literal, value) = match kind {
                0 => (format!("{}", *bits as i64), AttrValue::I64(*bits as i64)),
                1 => {
                    let x = Some(f64::from_bits(*bits))
                        .filter(|x| x.is_finite())
                        .unwrap_or((*bits >> 11) as f64);
                    (format!("{x:?}"), AttrValue::F64(x))
                }
                _ => {
                    let mut tag: String = pieces.iter().map(|&i| PIECES[i]).collect();
                    let quote = if tag.contains('"') {
                        tag.retain(|c| c != '\'');
                        '\''
                    } else {
                        '"'
                    };
                    (format!("{quote}{tag}{quote}"), AttrValue::Tag(tag))
                }
            };
            if n > 0 {
                text.push_str(CONNECTIVES[*connective]);
            }
            let gap = if *spaced { " " } else { "" };
            text.push_str(&format!("c{column}{gap}{sym}{gap}{literal}"));
            terms.push(Term {
                column: format!("c{column}"),
                op,
                value,
            });
        }
        (text, terms)
    }

    /// The parser's whole contract on hostile input: an answer or a typed
    /// parse error, never a panic and never another error.
    fn parses_or_refuses(text: &str) -> bool {
        matches!(Predicate::parse(text), Ok(_) | Err(Error::Parse(_)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Text composed from generated terms parses back to exactly those
        /// terms, whatever operators and connectives their quoted tags hold.
        #[test]
        fn composed_filters_parse_back_to_their_terms(specs in term_specs()) {
            let (text, terms) = compose(&specs);
            let parsed = Predicate::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            prop_assert_eq!(parsed.terms, terms, "{:?}", text);
        }

        /// Arbitrary bytes, a soup of the grammar's own pieces, and a valid
        /// filter with bytes replaced, inserted or deleted all parse or are
        /// refused with `Error::Parse`.
        #[test]
        fn any_text_parses_or_is_refused_typed(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
            soup in proptest::collection::vec(0usize..PIECES.len(), 0..16),
            specs in term_specs(),
            edits in proptest::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 1..5),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            prop_assert!(parses_or_refuses(&text), "{:?}", text);
            let text: String = soup.iter().map(|&i| PIECES[i]).collect();
            prop_assert!(parses_or_refuses(&text), "{:?}", text);
            let mut mutated = compose(&specs).0.into_bytes();
            for (kind, at, byte) in edits {
                let at = at % (mutated.len() + 1);
                match kind {
                    0 if at < mutated.len() => mutated[at] = byte,
                    1 => mutated.insert(at, byte),
                    _ if at < mutated.len() => {
                        mutated.remove(at);
                    }
                    _ => {}
                }
            }
            let text = String::from_utf8_lossy(&mutated);
            prop_assert!(parses_or_refuses(&text), "{:?}", text);
        }
    }
}
