//! Error type for the query-processing layer.

use mmdr_index::codec::{DecodeError, Fault};
use std::fmt;

/// Errors from attribute storage, predicate parsing, and planning.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A predicate referenced a column the store does not have.
    UnknownColumn(String),
    /// A column already exists (schema) or a value/operator does not fit
    /// the column's type.
    TypeMismatch {
        column: String,
        detail: &'static str,
    },
    /// A column name appeared twice in a schema.
    DuplicateColumn(String),
    /// Predicate text failed to parse.
    Parse(String),
    /// Serialized attribute bytes failed validation.
    Corrupt(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColumn(c) => write!(f, "unknown attribute column {c:?}"),
            Error::TypeMismatch { column, detail } => {
                write!(f, "type mismatch on column {column:?}: {detail}")
            }
            Error::DuplicateColumn(c) => write!(f, "duplicate attribute column {c:?}"),
            Error::Parse(msg) => write!(f, "predicate parse error: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt attribute payload: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// A payload the byte codec could not read: every such fault is
/// [`Error::Corrupt`].
impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Self {
        Error::Corrupt(match e.fault {
            Fault::Truncated { .. } => "payload truncated",
            Fault::Count { .. } => "a count larger than the payload can hold",
            Fault::Varint => "a varint past 64 bits",
            Fault::Trailing(_) => "trailing bytes after the payload",
        })
    }
}

impl From<Error> for mmdr_index::Error {
    fn from(e: Error) -> Self {
        mmdr_index::Error::backend(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
