//! The typed error every persistence failure surfaces as.
//!
//! The contract of the snapshot layer is *fail closed*: a truncated file, a
//! flipped byte, a wrong magic or a future version must produce one of
//! these variants — never a panic, and never a silently wrong index.

use mmdr_storage::codec::DecodeError;
use std::fmt;
use std::path::PathBuf;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Errors produced while saving or opening index snapshots.
#[derive(Debug)]
pub enum PersistError {
    /// The operating system failed to read or write the snapshot file.
    Io {
        /// Path of the file being accessed.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The file does not start with the snapshot magic — it is not a
    /// snapshot (or the first bytes were destroyed).
    BadMagic {
        /// The eight bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The snapshot was written in another format revision than the one
    /// this build writes and reads — newer, or older (there is no second
    /// reader: rebuild the snapshot).
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// The version this build opens.
        supported: u32,
    },
    /// The file ends before the data its header promises.
    Truncated {
        /// Bytes the structure requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The file is longer than its recorded length — bytes were appended
    /// (or the length field was corrupted).
    TrailingBytes {
        /// Length the superblock records.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A checksummed region does not hash to its stored CRC32 — at least
    /// one byte changed since the snapshot was written.
    Checksum {
        /// Which region failed ("superblock", "section table",
        /// "section model", …).
        region: String,
        /// CRC32 recorded in the file.
        stored: u32,
        /// CRC32 of the bytes actually present.
        computed: u32,
    },
    /// The bytes checksum correctly but do not decode to a valid
    /// structure — the snapshot was produced by a buggy or hostile writer.
    Malformed(String),
    /// The snapshot stores a different backend than the caller asked for.
    BackendMismatch {
        /// Backend name the caller expected.
        expected: &'static str,
        /// Backend name the snapshot stores.
        found: &'static str,
    },
    /// The backend tag in the superblock is not one of the three known
    /// backends.
    UnknownBackendTag(u32),
    /// The file is a model file: it holds a model and no index.
    NoIndex,
    /// Reassembling the index from decoded parts failed validation.
    Index(mmdr_idistance::Error),
    /// Reattaching the B⁺-tree failed validation.
    Btree(mmdr_btree::Error),
    /// Reattaching a hybrid tree failed validation.
    Hybrid(mmdr_hybridtree::Error),
    /// Restoring a reduction-model structure failed validation.
    Core(mmdr_core::Error),
    /// Restoring a subspace failed validation (e.g. a non-orthonormal
    /// basis that nevertheless checksummed correctly).
    Pca(mmdr_pca::Error),
    /// The storage layer rejected restored pages.
    Storage(mmdr_storage::Error),
    /// A matrix operation on fold inputs failed (e.g. a row of the wrong
    /// width reached a rebuild).
    Linalg(mmdr_linalg::Error),
    /// The query layer rejected an ingest operation (bad vector, sealed
    /// delta, read-only index).
    Query(mmdr_index::Error),
    /// A complete write-ahead-log record failed its CRC or decoded to an
    /// invalid structure — mid-log corruption, as opposed to a torn tail
    /// (an incomplete final record), which replay truncates cleanly.
    WalCorrupt {
        /// Byte offset of the damaged record's frame header.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
}

impl PersistError {
    /// Shorthand for a malformed-structure error.
    pub(crate) fn malformed(what: impl Into<String>) -> Self {
        PersistError::Malformed(what.into())
    }

    /// Wraps an OS error with the path being accessed.
    pub(crate) fn io(path: &std::path::Path, source: std::io::Error) -> Self {
        PersistError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

/// A section the byte codec could not read: the section passed its CRC, so
/// its writer produced a structure that does not decode.
impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        PersistError::Malformed(e.to_string())
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "snapshot I/O on {}: {source}", path.display())
            }
            PersistError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:02x?}")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not the supported {supported}"
            ),
            PersistError::Truncated { expected, actual } => {
                write!(
                    f,
                    "snapshot truncated: need {expected} bytes, have {actual}"
                )
            }
            PersistError::TrailingBytes { expected, actual } => {
                write!(
                    f,
                    "snapshot has trailing bytes: recorded {expected}, file is {actual}"
                )
            }
            PersistError::Checksum {
                region,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {region}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            PersistError::BackendMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot stores backend `{found}`, expected `{expected}`"
                )
            }
            PersistError::UnknownBackendTag(tag) => {
                write!(f, "unknown backend tag {tag} in superblock")
            }
            PersistError::NoIndex => f.write_str("the file holds a model and no index"),
            PersistError::Index(e) => write!(f, "index reassembly failed: {e}"),
            PersistError::Btree(e) => write!(f, "B+-tree reattach failed: {e}"),
            PersistError::Hybrid(e) => write!(f, "hybrid-tree reattach failed: {e}"),
            PersistError::Core(e) => write!(f, "model restore failed: {e}"),
            PersistError::Pca(e) => write!(f, "subspace restore failed: {e}"),
            PersistError::Storage(e) => write!(f, "storage restore failed: {e}"),
            PersistError::Linalg(e) => write!(f, "fold arithmetic failed: {e}"),
            PersistError::Query(e) => write!(f, "ingest rejected: {e}"),
            PersistError::WalCorrupt { offset, detail } => {
                write!(f, "write-ahead log corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Index(e) => Some(e),
            PersistError::Btree(e) => Some(e),
            PersistError::Hybrid(e) => Some(e),
            PersistError::Core(e) => Some(e),
            PersistError::Pca(e) => Some(e),
            PersistError::Storage(e) => Some(e),
            PersistError::Linalg(e) => Some(e),
            PersistError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mmdr_idistance::Error> for PersistError {
    fn from(e: mmdr_idistance::Error) -> Self {
        PersistError::Index(e)
    }
}
impl From<mmdr_btree::Error> for PersistError {
    fn from(e: mmdr_btree::Error) -> Self {
        PersistError::Btree(e)
    }
}
impl From<mmdr_hybridtree::Error> for PersistError {
    fn from(e: mmdr_hybridtree::Error) -> Self {
        PersistError::Hybrid(e)
    }
}
impl From<mmdr_core::Error> for PersistError {
    fn from(e: mmdr_core::Error) -> Self {
        PersistError::Core(e)
    }
}
impl From<mmdr_pca::Error> for PersistError {
    fn from(e: mmdr_pca::Error) -> Self {
        PersistError::Pca(e)
    }
}
impl From<mmdr_storage::Error> for PersistError {
    fn from(e: mmdr_storage::Error) -> Self {
        PersistError::Storage(e)
    }
}
impl From<mmdr_linalg::Error> for PersistError {
    fn from(e: mmdr_linalg::Error) -> Self {
        PersistError::Linalg(e)
    }
}
impl From<mmdr_index::Error> for PersistError {
    fn from(e: mmdr_index::Error) -> Self {
        PersistError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error as _;
        let io = PersistError::io(
            std::path::Path::new("/tmp/x"),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("/tmp/x"));
        assert!(io.source().is_some());
        assert!(PersistError::BadMagic {
            found: *b"NOTASNAP"
        }
        .to_string()
        .contains("magic"));
        assert!(PersistError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(PersistError::Truncated {
            expected: 100,
            actual: 7
        }
        .to_string()
        .contains("7"));
        assert!(PersistError::TrailingBytes {
            expected: 5,
            actual: 9
        }
        .to_string()
        .contains("trailing"));
        let c = PersistError::Checksum {
            region: "section model".into(),
            stored: 1,
            computed: 2,
        };
        assert!(c.to_string().contains("section model"));
        assert!(c.source().is_none());
        assert!(PersistError::malformed("odd length")
            .to_string()
            .contains("odd length"));
        assert!(PersistError::BackendMismatch {
            expected: "gldr",
            found: "seqscan"
        }
        .to_string()
        .contains("gldr"));
        assert!(PersistError::UnknownBackendTag(7).to_string().contains('7'));
        assert!(PersistError::NoIndex.to_string().contains("no index"));
        assert!(PersistError::from(mmdr_storage::Error::ZeroCapacity)
            .source()
            .is_some());
    }
}
