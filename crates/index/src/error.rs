//! Backend-independent query errors.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors a [`crate::VectorIndex`] query can produce. The first variants
/// are the validation failures of [`crate::Query::validate`]; anything
/// backend-specific (storage, tree corruption, …) travels in
/// [`Error::Backend`] with its source preserved.
#[derive(Debug)]
pub enum Error {
    /// The query's dimensionality does not match the index.
    DimensionMismatch {
        /// Dimensionality the index was built for.
        expected: usize,
        /// Dimensionality of the query.
        actual: usize,
    },
    /// Query coordinates must be finite.
    InvalidQuery,
    /// A range-search radius must be non-negative and finite.
    InvalidRadius,
    /// A mutation reached an index whose delta layer has been sealed
    /// (it is being retired after an epoch swap, or was frozen for a
    /// consistent read).
    Sealed,
    /// A mutation reached a read-only serving handle (a static snapshot
    /// with no write-ahead log behind it).
    ReadOnly,
    /// A filtered query reached a serving handle with no attribute store
    /// behind it (the snapshot carries no ATTRS section, or the handle
    /// does not implement filtered search).
    FiltersUnavailable,
    /// The backend failed internally.
    Backend(Box<dyn std::error::Error + Send + Sync>),
}

impl Error {
    /// Wraps a backend-specific error.
    pub fn backend(e: impl std::error::Error + Send + Sync + 'static) -> Self {
        Error::Backend(Box::new(e))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "query has dimension {actual}, index expects {expected}")
            }
            Error::InvalidQuery => write!(f, "query coordinates must be finite"),
            Error::InvalidRadius => write!(f, "radius must be non-negative and finite"),
            Error::Sealed => write!(f, "index delta layer is sealed against mutation"),
            Error::ReadOnly => write!(f, "index is served read-only (no write-ahead log)"),
            Error::FiltersUnavailable => {
                write!(
                    f,
                    "index has no attribute store to evaluate filters against"
                )
            }
            Error::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Backend(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error as _;
        assert!(Error::DimensionMismatch {
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains('3'));
        assert!(!Error::InvalidQuery.to_string().is_empty());
        assert!(!Error::InvalidRadius.to_string().is_empty());
        let wrapped = Error::backend(std::io::Error::other("boom"));
        assert!(wrapped.to_string().contains("boom"));
        assert!(wrapped.source().is_some());
        assert!(Error::InvalidQuery.source().is_none());
    }
}
