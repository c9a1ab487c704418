//! Error type for the index crate.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building or querying indexes.
#[derive(Debug)]
pub enum Error {
    /// The storage layer failed.
    Storage(mmdr_storage::Error),
    /// The underlying B⁺-tree failed.
    BTree(mmdr_btree::Error),
    /// The hybrid-tree baseline failed.
    Hybrid(mmdr_hybridtree::Error),
    /// A PCA/subspace operation failed.
    Pca(mmdr_pca::Error),
    /// A linear-algebra primitive failed.
    Linalg(mmdr_linalg::Error),
    /// A reduction-model operation failed.
    Core(mmdr_core::Error),
    /// The data an index is built over does not have the model's
    /// dimensionality.
    DimensionMismatch {
        /// Dimensionality of the model.
        expected: usize,
        /// Dimensionality of the data.
        actual: usize,
    },
    /// A record id, or a tree position, does not resolve to a heap record.
    BadRecordId(u64),
    /// A configuration field is out of range.
    InvalidConfig(&'static str),
    /// A row was given the point id `u64::MAX`, which no row may carry.
    ReservedId,
    /// A row's stored coordinate is finite but past `f32::MAX`, so no
    /// record can store it.
    CoordinateOverflow(f64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage failure: {e}"),
            Error::BTree(e) => write!(f, "B+-tree failure: {e}"),
            Error::Hybrid(e) => write!(f, "hybrid-tree failure: {e}"),
            Error::Pca(e) => write!(f, "subspace failure: {e}"),
            Error::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            Error::Core(e) => write!(f, "reduction model failure: {e}"),
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "data has dimension {actual}, model expects {expected}")
            }
            Error::BadRecordId(rid) => write!(f, "record id {rid} does not exist"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::ReservedId => write!(f, "point id {} is reserved", u64::MAX),
            Error::CoordinateOverflow(x) => {
                write!(
                    f,
                    "coordinate {x:e} is past f32::MAX, which a record stores"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            Error::BTree(e) => Some(e),
            Error::Hybrid(e) => Some(e),
            Error::Pca(e) => Some(e),
            Error::Linalg(e) => Some(e),
            Error::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mmdr_storage::Error> for Error {
    fn from(e: mmdr_storage::Error) -> Self {
        Error::Storage(e)
    }
}
impl From<mmdr_btree::Error> for Error {
    fn from(e: mmdr_btree::Error) -> Self {
        Error::BTree(e)
    }
}
impl From<mmdr_hybridtree::Error> for Error {
    fn from(e: mmdr_hybridtree::Error) -> Self {
        Error::Hybrid(e)
    }
}
impl From<mmdr_pca::Error> for Error {
    fn from(e: mmdr_pca::Error) -> Self {
        Error::Pca(e)
    }
}
impl From<mmdr_linalg::Error> for Error {
    fn from(e: mmdr_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}
impl From<mmdr_core::Error> for Error {
    fn from(e: mmdr_core::Error) -> Self {
        Error::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error as _;
        let cases: Vec<Error> = vec![
            Error::from(mmdr_storage::Error::ZeroCapacity),
            Error::from(mmdr_btree::Error::InvalidKey),
            Error::from(mmdr_hybridtree::Error::Corrupt("x")),
            Error::from(mmdr_pca::Error::EmptyDataset),
            Error::from(mmdr_linalg::Error::Singular),
            Error::from(mmdr_core::Error::EmptyDataset),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_some());
        }
        assert!(Error::DimensionMismatch {
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains("3"));
        assert!(Error::BadRecordId(9).to_string().contains('9'));
        assert!(Error::BadRecordId(9).source().is_none());
        assert!(Error::InvalidConfig("x").to_string().contains('x'));
        assert!(Error::ReservedId
            .to_string()
            .contains(&u64::MAX.to_string()));
        assert!(Error::CoordinateOverflow(1e39).to_string().contains("1e39"));
    }
}
