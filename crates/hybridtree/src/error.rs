//! Error type for the hybrid tree.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the hybrid tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The storage layer failed.
    Storage(mmdr_storage::Error),
    /// A bulk load was handed points and record ids that disagree in
    /// count.
    InputMismatch {
        /// Number of points supplied.
        points: usize,
        /// Number of record ids supplied.
        rids: usize,
    },
    /// The dimensionality is zero or too large for a single leaf entry to
    /// fit a page.
    UnsupportedDimensionality {
        /// The offending dimensionality.
        dim: usize,
    },
    /// A node, or the metadata a tree is put together from, holds what no
    /// bulk load writes (damage surfaced safely).
    Corrupt(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage failure: {e}"),
            Error::InputMismatch { points, rids } => {
                write!(f, "{points} points but {rids} record ids")
            }
            Error::UnsupportedDimensionality { dim } => {
                write!(f, "dimensionality {dim} is unsupported (must fit a page)")
            }
            Error::Corrupt(msg) => write!(f, "tree invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mmdr_storage::Error> for Error {
    fn from(e: mmdr_storage::Error) -> Self {
        Error::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(Error::InputMismatch { points: 3, rids: 2 }
            .to_string()
            .contains("3"));
        assert!(Error::UnsupportedDimensionality { dim: 600 }
            .to_string()
            .contains("600"));
        assert!(Error::Corrupt("x").to_string().contains('x'));
        assert!(Error::from(mmdr_storage::Error::ZeroCapacity)
            .to_string()
            .contains("storage"));
    }
}
