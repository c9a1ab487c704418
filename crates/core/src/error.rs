//! Error type for the MMDR algorithm and baselines.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the reduction algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A linear-algebra primitive failed.
    Linalg(mmdr_linalg::Error),
    /// A PCA operation failed.
    Pca(mmdr_pca::Error),
    /// A clustering pass failed.
    Cluster(mmdr_cluster::Error),
    /// The dataset has no points.
    EmptyDataset,
    /// A parameter is out of range (message names it).
    InvalidParams(&'static str),
    /// An input value is NaN or infinite; the fit refuses it before any
    /// work.
    NonFinite {
        /// The offending row.
        row: usize,
        /// Its column.
        col: usize,
    },
    /// A point's dimensionality does not match the fitted model.
    DimensionMismatch {
        /// Dimensionality the model was fitted on.
        expected: usize,
        /// Dimensionality of the offending input.
        actual: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            Error::Pca(e) => write!(f, "PCA failure: {e}"),
            Error::Cluster(e) => write!(f, "clustering failure: {e}"),
            Error::EmptyDataset => write!(f, "dataset is empty"),
            Error::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            Error::NonFinite { row, col } => {
                write!(f, "row {row}, column {col} is not a finite number")
            }
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "point has dimension {actual}, model expects {expected}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Pca(e) => Some(e),
            Error::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mmdr_linalg::Error> for Error {
    fn from(e: mmdr_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<mmdr_pca::Error> for Error {
    fn from(e: mmdr_pca::Error) -> Self {
        Error::Pca(e)
    }
}

impl From<mmdr_cluster::Error> for Error {
    fn from(e: mmdr_cluster::Error) -> Self {
        Error::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error as _;
        let e = Error::from(mmdr_linalg::Error::Singular);
        assert!(e.to_string().contains("singular"));
        assert!(e.source().is_some());
        let e = Error::from(mmdr_pca::Error::EmptyDataset);
        assert!(e.to_string().contains("PCA"));
        let e = Error::from(mmdr_cluster::Error::EmptyDataset);
        assert!(e.to_string().contains("clustering"));
        assert!(Error::EmptyDataset.source().is_none());
        assert!(Error::InvalidParams("beta").to_string().contains("beta"));
        assert!(Error::NonFinite { row: 5, col: 2 }
            .to_string()
            .contains("row 5, column 2"));
        assert!(Error::DimensionMismatch {
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains("4"));
    }
}
